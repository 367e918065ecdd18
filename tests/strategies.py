"""Hypothesis strategies for generated PML schemas and prompts over them.

:func:`schemas` draws a schema of one to four top-level modules of 1-40
words each and, optionally:

- a ``<union>`` of two or three members of unequal length;
- one ``<param len=...>`` at a drawn word offset inside a drawn module;
- a ``<scaffold>`` over two of the top-level modules.

Each draw is a :class:`GeneratedSchema`, which knows its module names and
builds prompts that import them, so a test can reach every stored
variant without parsing the source back.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import strategies as st

WORDS = ["the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
         "miami", "paris", "plan", "trip", "days", "focus", "food"]


@dataclass(frozen=True)
class GeneratedSchema:
    name: str
    source: str
    modules: tuple[str, ...]  # top-level modules, document order
    union: tuple[str, ...]  # union members; empty without a union
    scaffold: tuple[str, str] | None  # the two scaffolded modules

    def prompt(self, member: str | None = None, text: str = "go on") -> str:
        """A prompt importing every top-level module, plus ``member`` of
        the union when given, then ``text``."""
        names = [*self.modules, *([member] if member else [])]
        imports = "".join(f"<{name}/>" for name in names)
        return f'<prompt schema="{self.name}">{imports} {text}</prompt>'

    def prompts(self) -> list[str]:
        """Prompts that, between them, import every module: one per union
        member (one in all without a union)."""
        return [self.prompt(member) for member in self.union or (None,)]


def words(min_size: int = 1, max_size: int = 40):
    return st.lists(st.sampled_from(WORDS), min_size=min_size, max_size=max_size)


@st.composite
def schemas(
    draw,
    name: str = "gen",
    max_modules: int = 4,
    unions: bool = True,
    params: bool = True,
    scaffolds: bool = True,
) -> GeneratedSchema:
    """A generated schema (see the module docstring); each optional
    feature can be switched off."""
    n_modules = draw(st.integers(min_value=1, max_value=max_modules))
    modules = tuple(f"m{i}" for i in range(n_modules))
    bodies = [draw(words()) for _ in modules]

    if params and draw(st.booleans()):
        index = draw(st.integers(min_value=0, max_value=n_modules - 1))
        offset = draw(st.integers(min_value=0, max_value=len(bodies[index])))
        length = draw(st.integers(min_value=1, max_value=6))
        bodies[index] = [
            *bodies[index][:offset],
            f'<param name="p" len="{length}"/>',
            *bodies[index][offset:],
        ]
    parts = [
        f'<module name="{module}">{" ".join(body)}</module>'
        for module, body in zip(modules, bodies)
    ]

    union: tuple[str, ...] = ()
    if unions and draw(st.booleans()):
        sizes = draw(st.lists(
            st.integers(min_value=1, max_value=40), min_size=2, max_size=3, unique=True,
        ))
        union = tuple(f"u{i}" for i in range(len(sizes)))
        members = "".join(
            f'<module name="{member}">{" ".join(draw(words(size, size)))}</module>'
            for member, size in zip(union, sizes)
        )
        at = draw(st.integers(min_value=0, max_value=len(parts)))
        parts.insert(at, f"<union>{members}</union>")

    scaffold = None
    if scaffolds and n_modules >= 2 and draw(st.booleans()):
        pair = draw(st.lists(
            st.sampled_from(modules), min_size=2, max_size=2, unique=True,
        ))
        scaffold = (pair[0], pair[1])
        parts.insert(0, f'<scaffold modules="{",".join(scaffold)}"/>')

    return GeneratedSchema(
        name=name,
        source=f'<schema name="{name}">{"".join(parts)}</schema>',
        modules=modules,
        union=union,
        scaffold=scaffold,
    )
