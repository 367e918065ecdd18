"""Prompt objects and their resolution against a schema.

Serving a prompt starts with *alignment* (paper §3.4): Prompt Cache "parses
[the prompt] to ensure alignment with the claimed schema" and "verifies the
validity of the imported modules". :func:`resolve` performs that check and
produces a :class:`ResolvedPrompt` — the exact work order for cached
inference: which modules to splice in (with parameter arguments), and which
new text segments to prefill, anchored to their schema positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pml.ast import ImportNode, PromptNode, TextNode
from repro.pml.errors import SchemaMismatchError
from repro.pml.parser import parse_prompt
from repro.pml.schema import Schema


@dataclass
class Selection:
    """One imported module with any supplied parameter arguments."""

    name: str
    args: dict[str, str] = field(default_factory=dict)


@dataclass
class NewText:
    """Uncached prompt text, positioned after ``anchor`` (a module name) or
    at the very start when ``anchor`` is None."""

    text: str
    anchor: str | None


@dataclass
class ResolvedPrompt:
    """A prompt checked against its schema and flattened for serving."""

    schema: Schema
    selections: list[Selection]
    texts: list[NewText]

    def selected_names(self) -> list[str]:
        return [s.name for s in self.selections]


def parse(source: str) -> PromptNode:
    """Parse prompt markup (thin alias of :func:`repro.pml.parser.parse_prompt`)."""
    return parse_prompt(source)


def resolve(prompt: PromptNode | str, schema: Schema) -> ResolvedPrompt:
    """Validate ``prompt`` against ``schema`` and flatten it.

    Raises :class:`SchemaMismatchError` when the prompt names the wrong
    schema, imports unknown modules, nests imports outside their parent
    module, selects two members of one union, supplies undeclared
    parameters, or imports a module twice.
    """
    if isinstance(prompt, str):
        prompt = parse_prompt(prompt)
    if prompt.schema != schema.name:
        raise SchemaMismatchError(
            f"prompt targets schema {prompt.schema!r} but was resolved against "
            f"{schema.name!r}"
        )

    resolver = _Resolver(schema)
    resolver.visit(prompt.children, None, None)
    return ResolvedPrompt(
        schema=schema, selections=resolver.selections, texts=resolver.texts
    )


class _Resolver:
    """The walk behind :func:`resolve`: collects selections and anchored
    text, checking each import as it goes. Methods rather than nested
    closures, which would reference each other and leave every resolved
    prompt as cyclic garbage."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.selections: list[Selection] = []
        self.texts: list[NewText] = []
        self.seen: set[str] = set()

    def visit(self, children: list, parent: str | None, anchor: str | None) -> str | None:
        for child in children:
            if isinstance(child, TextNode):
                self.texts.append(NewText(text=child.text, anchor=anchor))
                continue
            assert isinstance(child, ImportNode)
            anchor = self.visit_import(child, parent)
        return anchor

    def visit_import(self, node: ImportNode, parent: str | None) -> str:
        schema, seen = self.schema, self.seen
        if node.name not in schema.modules:
            raise SchemaMismatchError(
                f"prompt imports unknown module {node.name!r} "
                f"(schema {schema.name!r} defines {sorted(schema.modules)})"
            )
        if node.name in seen:
            raise SchemaMismatchError(f"module {node.name!r} imported twice")
        actual_parent = schema.parents[node.name]
        if actual_parent != parent:
            where = f"inside <{actual_parent}>" if actual_parent else "at the top level"
            raise SchemaMismatchError(
                f"module {node.name!r} must be imported {where}"
            )
        declared = schema.params_of(node.name)
        for arg in node.args:
            if arg not in declared:
                raise SchemaMismatchError(
                    f"module {node.name!r} has no parameter {arg!r}; "
                    f"declared: {sorted(declared)}"
                )
        for prior in seen:
            if schema.in_same_union(prior, node.name):
                raise SchemaMismatchError(
                    f"modules {prior!r} and {node.name!r} belong to the same "
                    "<union>; a prompt may select at most one"
                )
        seen.add(node.name)
        self.selections.append(Selection(name=node.name, args=dict(node.args)))
        # Nested imports live inside this module; new text inside an import
        # is anchored to the module itself.
        self.visit(node.children, node.name, node.name)
        return node.name
