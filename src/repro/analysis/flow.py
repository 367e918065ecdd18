"""Interprocedural flow analyses over the project call graph.

Two flagship :class:`~repro.analysis.engine.ProjectRule`\\ s live here,
the static counterparts of the ``REPRO_SANITIZE=1`` runtime auditors —
they cover the paths tests never execute:

- :class:`LeaseLifecycleRule` (``lease-lifecycle``) — an abstract
  interpreter ("borrow checker") for forks of a spliced base, tail-arena
  seats, and serve-stream leases. It tracks acquire/release facts
  through branches, loops, ``try/finally``, ``with``, and early
  returns; follows calls through :class:`~repro.analysis.callgraph.
  ProjectIndex` using per-function summaries (which parameters a callee
  releases or escapes, which return slots carry a fresh lease); and
  reports **leak on exception path** (warning), **leak on normal exit**,
  **double release**, and **use after release** (errors).

- :class:`LockOrderRule` (``lock-order``) — builds the static lock
  graph from ``with lock:`` / ``.acquire()`` nesting plus transitive
  callee acquisitions, merges the declared partial order
  (:func:`repro.analysis.locks.ordered_lock` literals and
  ``# lock-order:`` comments), and reports cycles, acquisitions that
  contradict the declared order, re-acquisition of non-reentrant locks,
  and calls into ``assert_unheld`` guards while the named lock is held.

Annotation grammar (consumed here, enforced nowhere else):

- ``# lock-order: <name> [after <a>, <b>]`` — on a lock-creation line:
  names the lock canonically and declares which locks may be held when
  acquiring it. `ordered_lock("name", after=("a",))` declares the same
  thing directly from code.
- ``# holds-lock: <name>[, <name2>]`` — on a ``def`` line: the function
  is documented as called with those locks held (e.g. store-eviction
  listeners fire under the store lock). Seeds the held-set.

Both analyses are deliberately *sound-ish*: unresolved calls and
escaped values are treated conservatively (tracking stops), so a
reported finding is nearly always real — the bar the lexical rules set.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.callgraph import FunctionInfo, ProjectIndex
from repro.analysis.engine import Finding, ProjectRule, SourceModule

__all__ = [
    "LeaseLifecycleRule",
    "LockOrderRule",
    "mapped_write_helper_findings",
]


_LOCK_ORDER_RE = re.compile(
    r"#\s*lock-order:\s*(?P<name>[\w.\-]+)(?:\s+after\s+(?P<after>[\w.\-, ]+))?"
)
_HOLDS_LOCK_RE = re.compile(r"#\s*holds-lock:\s*(?P<names>[\w.\-, ]+)")


def _split_names(raw: str) -> tuple[str, ...]:
    return tuple(n.strip() for n in raw.split(",") if n.strip())


def _attr_chain(node: ast.AST) -> list[str] | None:
    """``self.a.b`` -> ["self", "a", "b"]; None for anything fancier."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _const_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _const_str_tuple(node: ast.AST) -> tuple[str, ...]:
    if isinstance(node, (ast.Tuple, ast.List)):
        return tuple(s for s in (_const_str(e) for e in node.elts) if s)
    one = _const_str(node)
    return (one,) if one else ()


# =============================================================================
# Lock model: canonical names, declared order, reentrancy
# =============================================================================


@dataclass
class LockDecl:
    name: str
    reentrant: bool
    module: SourceModule
    line: int


class LockModel:
    """Canonical lock identities + the declared partial order.

    A lock's canonical name is shared by every instance guarding the
    same subsystem (both cache tiers hold ``"store"``); identity comes
    from ``ordered_lock("name", ...)`` literals, ``# lock-order:``
    comments on the creation line, or — for plain un-annotated
    ``threading.Lock()`` attributes — the auto-name ``Class.attr``.
    """

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        # (class name, attr) -> canonical lock name
        self.attr_locks: dict[tuple[str, str], str] = {}
        # (module relpath, variable) -> canonical, for module-level locks
        self.global_locks: dict[tuple[str, str], str] = {}
        self.decls: dict[str, LockDecl] = {}
        # declared order edge (a, b): a may be held while acquiring b
        self.declared_edges: dict[tuple[str, str], tuple[str, int]] = {}
        for module in index.modules:
            self._scan_module(module)

    # -- declaration scan --------------------------------------------------------

    def _scan_module(self, module: SourceModule) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._scan_assign(module, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                for item in ast.walk(node):
                    if isinstance(item, (ast.Assign, ast.AnnAssign)):
                        self._scan_assign(module, item, cls=node.name)
        # Pure-comment declarations (no assignment on the line) still
        # contribute names and declared edges.
        for line, comment in module.comments.items():
            match = _LOCK_ORDER_RE.search(comment)
            if match:
                self._declare(
                    module, line, match.group("name"),
                    _split_names(match.group("after") or ""),
                    reentrant=True, weak=True,
                )

    def _scan_assign(
        self, module: SourceModule, stmt: ast.Assign | ast.AnnAssign, cls: str | None
    ) -> None:
        value = stmt.value
        if value is None:
            return
        spec = self._lock_value(value)
        comment = _LOCK_ORDER_RE.search(module.line_text(stmt.lineno))
        if spec is None and comment is None:
            return
        if comment is not None:
            name = comment.group("name")
            after = _split_names(comment.group("after") or "")
            reentrant = spec.reentrant if spec else True
        else:
            assert spec is not None
            name, after, reentrant = spec.name, spec.after, spec.reentrant
            if name is None:  # plain Lock()/RLock(): auto-name below
                pass
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        for target in targets:
            chain = _attr_chain(target)
            if chain is None:
                continue
            if len(chain) == 2 and chain[0] == "self" and cls is not None:
                canonical = name or f"{cls}.{chain[1]}"
                self.attr_locks[(cls, chain[1])] = canonical
            elif len(chain) == 1:
                canonical = name or f"{module.relpath}:{chain[0]}"
                key = (module.relpath, chain[0])
                if cls is None:
                    self.global_locks[key] = canonical
                else:  # class-body assign
                    self.attr_locks[(cls, chain[0])] = canonical
            else:
                continue
            self._declare(module, stmt.lineno, canonical, after, reentrant)

    @dataclass
    class _Spec:
        name: str | None
        after: tuple[str, ...]
        reentrant: bool

    def _lock_value(self, value: ast.AST) -> "LockModel._Spec | None":
        """Recognize ``ordered_lock(...)`` / ``threading.Lock/RLock()``
        as the (possibly ``a or``-peeled) assigned value."""
        if isinstance(value, ast.BoolOp):
            for operand in value.values:
                spec = self._lock_value(operand)
                if spec is not None:
                    return spec
            return None
        if not isinstance(value, ast.Call):
            return None
        fn = value.func
        callee = fn.attr if isinstance(fn, ast.Attribute) else (
            fn.id if isinstance(fn, ast.Name) else None
        )
        if callee == "ordered_lock":
            name = _const_str(value.args[0]) if value.args else None
            after: tuple[str, ...] = ()
            reentrant = True
            for kw in value.keywords:
                if kw.arg == "after":
                    after = _const_str_tuple(kw.value)
                elif kw.arg == "reentrant" and isinstance(kw.value, ast.Constant):
                    reentrant = bool(kw.value.value)
            return self._Spec(name, after, reentrant)
        if callee in ("Lock", "RLock"):
            return self._Spec(None, (), callee == "RLock")
        return None

    def _declare(
        self,
        module: SourceModule,
        line: int,
        name: str,
        after: tuple[str, ...],
        reentrant: bool,
        weak: bool = False,
    ) -> None:
        if name not in self.decls or not weak:
            prev = self.decls.get(name)
            # A lock is non-reentrant if *any* creation site says so.
            if prev is not None:
                reentrant = reentrant and prev.reentrant
            self.decls[name] = LockDecl(name, reentrant, module, line)
        for earlier in after:
            self.declared_edges.setdefault(
                (earlier, name), (module.relpath, line)
            )

    # -- expression -> canonical name --------------------------------------------

    def reentrant(self, name: str) -> bool:
        decl = self.decls.get(name)
        return decl.reentrant if decl else True

    def _class_attr_lock(self, cls_name: str, attr: str) -> str | None:
        seen: set[str] = set()
        queue = [cls_name]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            found = self.attr_locks.get((current, attr))
            if found is not None:
                return found
            cls = self.index.classes.get(current)
            if cls is not None:
                queue.extend(cls.bases)
        return None

    def lock_of(self, expr: ast.AST, fn: FunctionInfo) -> str | None:
        """Canonical name of the lock ``expr`` denotes, or None."""
        if isinstance(expr, ast.Name):
            return self.global_locks.get((fn.module.relpath, expr.id))
        chain = _attr_chain(expr)
        if chain is None:
            return None
        if chain[0] == "self" and fn.cls:
            if len(chain) == 2:
                return self._class_attr_lock(fn.cls, chain[1])
            if len(chain) == 3:
                cls = self.index.classes.get(fn.cls)
                attr_type = cls.attr_types.get(chain[1]) if cls else None
                if attr_type is not None:
                    return self._class_attr_lock(attr_type, chain[2])
        # Fallback: an attribute name held by exactly one canonical lock
        # across the project (e.g. a local ``mirror.lock``).
        attr = chain[-1]
        candidates = {
            canonical
            for (_, a), canonical in self.attr_locks.items()
            if a == attr
        }
        return candidates.pop() if len(candidates) == 1 else None


def _holds_lock_names(module: SourceModule, fn: ast.AST) -> tuple[str, ...]:
    """``# holds-lock:`` names annotated on the ``def`` line(s)."""
    body_start = fn.body[0].lineno if getattr(fn, "body", None) else fn.lineno + 1
    names: list[str] = []
    for line in range(fn.lineno, body_start + 1):
        comment = module.comments.get(line)
        if not comment:
            continue
        match = _HOLDS_LOCK_RE.search(comment)
        if match:
            names.extend(_split_names(match.group("names")))
    return tuple(dict.fromkeys(names))


# =============================================================================
# lock-order rule
# =============================================================================


@dataclass
class _Edge:
    module: str
    line: int
    note: str


class LockOrderRule(ProjectRule):
    """Static deadlock detector over the project lock graph."""

    name = "lock-order"
    description = "lock acquisition cycles / declared-order violations"

    def check_project(self, modules: list[SourceModule]) -> list[Finding]:
        index = ProjectIndex(modules)
        model = LockModel(index)
        by_relpath = {m.relpath: m for m in modules}

        self._index = index
        self._model = model
        self._acquired_memo: dict[str, frozenset[str]] = {}
        self._unheld_memo: dict[str, frozenset[str]] = {}
        self._observed: dict[tuple[str, str], _Edge] = {}
        self._findings: list[Finding] = []
        self._reported: set[tuple] = set()

        for fn in index.functions.values():
            self._walk_function(fn)

        self._check_graph(by_relpath)
        return self._findings

    # -- traversal ---------------------------------------------------------------

    def _emit(self, module: SourceModule, node_or_line, message: str) -> None:
        key = (module.relpath, message)
        if key in self._reported:
            return
        self._reported.add(key)
        self._findings.append(module.finding(self.name, node_or_line, message))

    def _walk_function(self, fn: FunctionInfo) -> None:
        held = list(_holds_lock_names(fn.module, fn.node))
        self._visit_stmts(fn.node.body, fn, held)

    def _visit_stmts(self, stmts: list[ast.stmt], fn: FunctionInfo, held: list[str]) -> None:
        index = 0
        while index < len(stmts):
            stmt = stmts[index]
            index += 1
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: list[str] = []
                for item in stmt.items:
                    self._visit_expr(item.context_expr, fn, held)
                    lock = self._model.lock_of(item.context_expr, fn)
                    if lock is None:
                        continue
                    self._acquire(lock, fn, item.context_expr, held)
                    acquired.append(lock)
                self._visit_stmts(stmt.body, fn, held + acquired)
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
                call = stmt.value
                callee = call.func
                if isinstance(callee, ast.Attribute) and callee.attr == "acquire":
                    lock = self._model.lock_of(callee.value, fn)
                    if lock is not None:
                        self._acquire(lock, fn, call, held)
                        # the lock stays held for the rest of this suite
                        self._visit_stmts(stmts[index:], fn, held + [lock])
                        return
                if isinstance(callee, ast.Attribute) and callee.attr == "release":
                    lock = self._model.lock_of(callee.value, fn)
                    if lock is not None and lock in held:
                        held = [h for h in held if h != lock]
                        self._visit_stmts(stmts[index:], fn, held)
                        return
            # Generic statement: visit nested suites with the same
            # held-set, and expressions for call effects.
            for child_suite in (
                getattr(stmt, "body", None),
                getattr(stmt, "orelse", None),
                getattr(stmt, "finalbody", None),
            ):
                if isinstance(child_suite, list) and child_suite and isinstance(
                    child_suite[0], ast.stmt
                ):
                    self._visit_stmts(child_suite, fn, list(held))
            for handler in getattr(stmt, "handlers", []) or []:
                self._visit_stmts(handler.body, fn, list(held))
            for expr in ast.iter_child_nodes(stmt):
                if isinstance(expr, ast.expr):
                    self._visit_expr(expr, fn, held)

    def _visit_expr(self, expr: ast.AST, fn: FunctionInfo, held: list[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._call_effects(node, fn, held)

    def _acquire(
        self, lock: str, fn: FunctionInfo, site: ast.AST, held: list[str]
    ) -> None:
        if lock in held:
            if not self._model.reentrant(lock):
                self._emit(
                    fn.module, site,
                    f"non-reentrant lock '{lock}' re-acquired while already "
                    f"held in {fn.name}() — this self-deadlocks",
                )
            return
        for holder in held:
            if holder != lock:
                self._observed.setdefault(
                    (holder, lock),
                    _Edge(fn.module.relpath, site.lineno, f"in {fn.name}()"),
                )

    def _call_effects(self, call: ast.Call, fn: FunctionInfo, held: list[str]) -> None:
        callee = call.func
        callee_name = (
            callee.attr if isinstance(callee, ast.Attribute)
            else callee.id if isinstance(callee, ast.Name) else None
        )
        # assert_unheld("x") used directly as a no-lock guard.
        if callee_name == "assert_unheld" and call.args:
            guarded = _const_str(call.args[0])
            if guarded and guarded in held:
                self._emit(
                    fn.module, call,
                    f"assert_unheld('{guarded}') reached while '{guarded}' is "
                    f"held in {fn.name}()",
                )
            return
        if not held:
            return
        for target in self._index.resolve_call(call, fn):
            for guarded in self._assert_unheld_of(target):
                if guarded in held:
                    self._emit(
                        fn.module, call,
                        f"{fn.name}() calls {target.name}() while holding "
                        f"'{guarded}', but {target.name}() is declared to run "
                        f"with '{guarded}' unheld (assert_unheld)",
                    )
            for lock in self._locks_acquired(target):
                if lock in held:
                    continue
                for holder in held:
                    self._observed.setdefault(
                        (holder, lock),
                        _Edge(
                            fn.module.relpath, call.lineno,
                            f"in {fn.name}() via {target.name}()",
                        ),
                    )

    # -- summaries ---------------------------------------------------------------

    def _locks_acquired(self, fn: FunctionInfo) -> frozenset[str]:
        """Locks possibly acquired by ``fn`` or its resolvable callees."""
        memo = self._acquired_memo
        if fn.qualname in memo:
            return memo[fn.qualname]
        memo[fn.qualname] = frozenset()  # cycle guard
        acquired: set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    lock = self._model.lock_of(item.context_expr, fn)
                    if lock is not None:
                        acquired.add(lock)
            elif isinstance(node, ast.Call):
                callee = node.func
                if isinstance(callee, ast.Attribute) and callee.attr == "acquire":
                    lock = self._model.lock_of(callee.value, fn)
                    if lock is not None:
                        acquired.add(lock)
                else:
                    for target in self._index.resolve_call(node, fn):
                        acquired.update(memo.get(target.qualname) or
                                        self._locks_acquired(target))
        memo[fn.qualname] = frozenset(acquired)
        return memo[fn.qualname]

    def _assert_unheld_of(self, fn: FunctionInfo) -> frozenset[str]:
        """Locks ``fn`` directly asserts are not held on entry."""
        memo = self._unheld_memo
        if fn.qualname in memo:
            return memo[fn.qualname]
        names: set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                callee = node.func
                callee_name = (
                    callee.attr if isinstance(callee, ast.Attribute)
                    else callee.id if isinstance(callee, ast.Name) else None
                )
                if callee_name == "assert_unheld" and node.args:
                    guarded = _const_str(node.args[0])
                    if guarded:
                        names.add(guarded)
        memo[fn.qualname] = frozenset(names)
        return memo[fn.qualname]

    # -- graph checks ------------------------------------------------------------

    def _check_graph(self, by_relpath: dict[str, SourceModule]) -> None:
        combined: dict[str, set[str]] = {}
        declared: dict[str, set[str]] = {}
        for (a, b) in list(self._observed) + list(self._model.declared_edges):
            combined.setdefault(a, set()).add(b)
        for (a, b) in self._model.declared_edges:
            declared.setdefault(a, set()).add(b)

        def _path(graph: dict[str, set[str]], src: str, dst: str) -> list[str] | None:
            if src == dst:
                return [src]
            prev: dict[str, str] = {src: src}
            queue = [src]
            while queue:
                current = queue.pop(0)
                for nxt in graph.get(current, ()):
                    if nxt in prev:
                        continue
                    prev[nxt] = current
                    if nxt == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(prev[path[-1]])
                        path.reverse()
                        return path
                    queue.append(nxt)
            return None

        for (a, b), edge in sorted(self._observed.items()):
            module = by_relpath.get(edge.module)
            if module is None:
                continue
            back = _path(declared, b, a)
            if back is not None and len(back) > 1:
                self._emit(
                    module, edge.line,
                    f"acquiring '{b}' while holding '{a}' ({edge.note}) "
                    f"contradicts the declared lock order "
                    f"({' -> '.join(back)})",
                )
                continue
            back = _path(combined, b, a)
            if back is not None and len(back) > 1:
                self._emit(
                    module, edge.line,
                    f"lock-order cycle: '{b}' acquired while holding '{a}' "
                    f"({edge.note}), but elsewhere "
                    f"{' -> '.join(back)} is acquired in that order",
                )
        # Purely-declared cycles (no observed edge involved) are config
        # errors in the annotations themselves.
        for (a, b), (relpath, line) in sorted(self._model.declared_edges.items()):
            if (a, b) in self._observed:
                continue
            back = _path(declared, b, a)
            if back is not None and len(back) > 1:
                module = by_relpath.get(relpath)
                if module is not None:
                    self._emit(
                        module, line,
                        f"declared lock order is cyclic: '{a}' before '{b}' "
                        f"but also {' -> '.join(back)}",
                    )


# =============================================================================
# lease-lifecycle rule
# =============================================================================

#: (class, method) pairs whose call returns a fresh lease, with the
#: receiver methods that release it. Resolution-based where names are
#: generic; name-based where the name is distinctive project-wide.
_SEED_BY_RESOLUTION = {
    ("TailArena", "seat"): ("seat", ("release",)),
}
_SEED_BY_NAME = {
    "fork": ("fork", ("free",)),
    "open_stream": ("stream", ("finish", "abort")),
    "open_text_stream": ("stream", ("finish", "abort")),
    "_open_text": ("stream", ("finish", "abort")),
}
#: Receiver methods that release a lease of unknown kind (parameters).
_GENERIC_RELEASERS = ("free", "finish", "abort", "close", "release")
#: Builtins that neither raise (for leak purposes) nor capture references.
_SAFE_CALLS = {
    "len", "isinstance", "issubclass", "id", "repr", "str", "int", "float",
    "bool", "min", "max", "abs", "sorted", "sum", "range", "enumerate",
    "zip", "print", "format", "type", "getattr", "hasattr", "callable",
}

_MAX_STATES = 24


@dataclass
class _Summary:
    # return slot (-1 = whole value) -> (kind, releaser methods)
    returns_acquired: dict[int, tuple[str, tuple[str, ...]]] = field(
        default_factory=dict
    )
    releases_params: set[int] = field(default_factory=set)
    escapes_params: set[int] = field(default_factory=set)


@dataclass
class _Resource:
    rid: int
    kind: str  # "fork" | "stream" | "seat" | "param"
    state: str  # "ACQ" | "REL" | "ESC" | "PARAM"
    line: int
    releasers: tuple[str, ...]
    param_index: int = -1
    released_line: int = 0

    def copy(self) -> "_Resource":
        return _Resource(
            self.rid, self.kind, self.state, self.line,
            self.releasers, self.param_index, self.released_line,
        )


class _State:
    __slots__ = ("env", "res")

    def __init__(self, env=None, res=None) -> None:
        self.env: dict[str, int] = env or {}
        self.res: dict[int, _Resource] = res or {}

    def copy(self) -> "_State":
        return _State(dict(self.env), {k: r.copy() for k, r in self.res.items()})

    def names_of(self, rid: int) -> set[str]:
        return {name for name, bound in self.env.items() if bound == rid}


class LeaseLifecycleRule(ProjectRule):
    """Abstract interpreter for KV lease lifecycles: forks, seats, streams."""

    name = "lease-lifecycle"
    description = "leaked, double-released, or used-after-release KV leases"

    def check_project(self, modules: list[SourceModule]) -> list[Finding]:
        self._index = ProjectIndex(modules)
        self._summaries: dict[str, _Summary] = {}
        self._findings: list[Finding] = []
        self._reported: set[tuple] = set()
        for fn in self._index.functions.values():
            self._summary(fn)  # interpreting computes findings as a side effect
        return self._findings

    # -- per-function driver -----------------------------------------------------

    def _summary(self, fn: FunctionInfo) -> _Summary:
        cached = self._summaries.get(fn.qualname)
        if cached is not None:
            return cached
        self._summaries[fn.qualname] = _Summary()  # recursion cut
        summary = _Interp(self, fn).run()
        self._summaries[fn.qualname] = summary
        return summary

    def _emit(
        self, fn: FunctionInfo, line: int, message: str, severity: str = "error"
    ) -> None:
        key = (fn.module.relpath, line, message)
        if key in self._reported:
            return
        self._reported.add(key)
        self._findings.append(
            fn.module.finding(self.name, line, message, severity=severity)
        )


class _Interp:
    """One path-sensitive interpretation of one function body."""

    def __init__(self, rule: LeaseLifecycleRule, fn: FunctionInfo) -> None:
        self.rule = rule
        self.fn = fn
        self.index = rule._index
        self.summary = _Summary()
        self.protection: list[set[str]] = []  # names released on unwind
        self.next_rid = 0
        self.exit_states: list[tuple[_State, str]] = []  # (state, "return"|"raise")
        self.warned: set[int] = set()  # rids already reported leak-on-raise

    # -- plumbing ----------------------------------------------------------------

    def run(self) -> _Summary:
        entry = _State()
        params = self.fn.params
        for pos, param in enumerate(params):
            rid = self._new_rid()
            entry.env[param] = rid
            entry.res[rid] = _Resource(
                rid, "param", "PARAM", self.fn.node.lineno,
                _GENERIC_RELEASERS, param_index=pos,
            )
        states = self._stmts(self.fn.node.body, [entry])
        for state in states:
            self.exit_states.append((state, "return"))
        for state, how in self.exit_states:
            self._leak_check(state, how)
        return self.summary

    def _new_rid(self) -> int:
        self.next_rid += 1
        return self.next_rid

    def _emit(self, line: int, message: str, severity: str = "error") -> None:
        self.rule._emit(self.fn, line, message, severity)

    def _protected(self, state: _State, rid: int) -> bool:
        names = state.names_of(rid)
        return any(names & frame for frame in self.protection)

    def _leak_check(self, state: _State, how: str) -> None:
        for resource in state.res.values():
            if resource.state != "ACQ":
                continue
            if how == "raise":
                if resource.rid in self.warned:
                    continue
                self.warned.add(resource.rid)
                self._emit(
                    resource.line,
                    f"{resource.kind} lease acquired here leaks when "
                    f"{self.fn.name}() unwinds via 'raise' — release it in a "
                    "finally or handler",
                    severity="warning",
                )
            else:
                self._emit(
                    resource.line,
                    f"{resource.kind} lease acquired here is never released "
                    f"on a path reaching the end of {self.fn.name}() "
                    f"(expected one of: "
                    f"{', '.join(resource.releasers) or 'release(x)'})",
                )

    # -- statements --------------------------------------------------------------

    def _stmts(self, stmts: list[ast.stmt], states: list[_State]) -> list[_State]:
        for stmt in stmts:
            if not states:
                return []
            states = self._stmt(stmt, states)
            if len(states) > _MAX_STATES:
                states = states[:_MAX_STATES]
        return states

    def _stmt(self, stmt: ast.stmt, states: list[_State]) -> list[_State]:
        handler = getattr(self, f"_s_{type(stmt).__name__}", None)
        if handler is not None:
            return handler(stmt, states)
        # Default: evaluate child expressions for uses/calls.
        for state in states:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, state)
        return states

    def _s_FunctionDef(self, stmt, states):  # nested defs are separate units
        return states

    _s_AsyncFunctionDef = _s_FunctionDef
    _s_ClassDef = _s_FunctionDef
    _s_Import = _s_FunctionDef
    _s_ImportFrom = _s_FunctionDef
    _s_Global = _s_FunctionDef
    _s_Nonlocal = _s_FunctionDef
    _s_Pass = _s_FunctionDef

    def _s_Assign(self, stmt: ast.Assign, states: list[_State]) -> list[_State]:
        for state in states:
            self._assign(stmt.targets, stmt.value, state)
        return states

    def _s_AnnAssign(self, stmt: ast.AnnAssign, states: list[_State]) -> list[_State]:
        if stmt.value is not None:
            for state in states:
                self._assign([stmt.target], stmt.value, state)
        return states

    def _s_AugAssign(self, stmt: ast.AugAssign, states: list[_State]) -> list[_State]:
        for state in states:
            self._expr(stmt.value, state)
        return states

    def _s_Expr(self, stmt: ast.Expr, states: list[_State]) -> list[_State]:
        for state in states:
            self._expr(stmt.value, state)
        return states

    def _s_Return(self, stmt: ast.Return, states: list[_State]) -> list[_State]:
        for state in states:
            value = stmt.value
            if value is None:
                pass
            elif isinstance(value, ast.Name):
                self._return_slot(state, value, -1)
            elif isinstance(value, ast.Tuple):
                for pos, elt in enumerate(value.elts):
                    if isinstance(elt, ast.Name):
                        self._return_slot(state, elt, pos)
                    else:
                        self._expr(elt, state)
            elif isinstance(value, ast.Call):
                for slot, spec in self._call(value, state, value_bound=True):
                    self.summary.returns_acquired.setdefault(slot, spec)
            else:
                self._expr(value, state)
            self.exit_states.append((state, "return"))
        return []

    def _return_slot(self, state: _State, name: ast.Name, slot: int) -> None:
        rid = state.env.get(name.id)
        resource = state.res.get(rid) if rid is not None else None
        if resource is None:
            return
        if resource.state == "REL":
            self._use_after_release(name.lineno, name.id, resource)
        elif resource.state == "ACQ":
            self.summary.returns_acquired.setdefault(
                slot, (resource.kind, resource.releasers)
            )
            resource.state = "ESC"

    def _s_Raise(self, stmt: ast.Raise, states: list[_State]) -> list[_State]:
        for state in states:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child, state)
            self.exit_states.append((state, "raise"))
        return []

    def _s_If(self, stmt: ast.If, states: list[_State]) -> list[_State]:
        out: list[_State] = []
        for state in states:
            self._expr(stmt.test, state)
            branch = self._none_test_branch(stmt.test, state)
            if branch == "body":
                out.extend(self._stmts(stmt.body, [state]))
            elif branch == "orelse":
                out.extend(self._stmts(stmt.orelse, [state]))
            else:
                body_state = state.copy()
                out.extend(self._stmts(stmt.body, [body_state]))
                out.extend(self._stmts(stmt.orelse, [state]))
        return out

    @staticmethod
    def _none_test_branch(test: ast.expr, state: _State) -> str | None:
        """The only feasible branch of an ``x is None`` / ``x is not
        None`` test when ``x`` is bound to a tracked lease in this state
        (bound ⇒ the acquire returned, so ``x`` is not None). This is
        what makes the ``release = fork; ... finally: if release is not
        None: release.free()`` idiom verify cleanly per-path."""
        if not (
            isinstance(test, ast.Compare)
            and len(test.ops) == 1
            and isinstance(test.ops[0], (ast.Is, ast.IsNot))
            and isinstance(test.left, ast.Name)
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value is None
        ):
            return None
        rid = state.env.get(test.left.id)
        resource = state.res.get(rid) if rid is not None else None
        if resource is None or resource.state == "PARAM":
            # A parameter really can be None at runtime; only leases
            # acquired on this path are known non-None.
            return None
        return "orelse" if isinstance(test.ops[0], ast.Is) else "body"

    def _s_For(self, stmt: ast.For, states: list[_State]) -> list[_State]:
        for state in states:
            self._expr(stmt.iter, state)
            for target in ast.walk(stmt.target):
                if isinstance(target, ast.Name):
                    state.env.pop(target.id, None)
        # One symbolic iteration; the no-iterations path is kept too.
        skipped = [s.copy() for s in states]
        looped = self._stmts(stmt.body, states)
        after = self._stmts(stmt.orelse, looped + skipped)
        return after

    _s_AsyncFor = _s_For

    def _s_While(self, stmt: ast.While, states: list[_State]) -> list[_State]:
        for state in states:
            self._expr(stmt.test, state)
        skipped = [s.copy() for s in states]
        looped = self._stmts(stmt.body, states)
        return self._stmts(stmt.orelse, looped + skipped)

    def _s_With(self, stmt: ast.With, states: list[_State]) -> list[_State]:
        for state in states:
            for item in stmt.items:
                self._expr(item.context_expr, state)
                if item.optional_vars is not None:
                    for target in ast.walk(item.optional_vars):
                        if isinstance(target, ast.Name):
                            state.env.pop(target.id, None)
        return self._stmts(stmt.body, states)

    _s_AsyncWith = _s_With

    def _s_Try(self, stmt: ast.Try, states: list[_State]) -> list[_State]:
        protected = self._protected_names(stmt)
        entry_snapshot = [s.copy() for s in states]
        entry_rids = {rid for s in states for rid in s.res}
        self.protection.append(protected)
        try:
            body_states = self._stmts(stmt.body, states)
        finally:
            self.protection.pop()
        orelse_states = self._stmts(stmt.orelse, body_states)
        handler_states: list[_State] = []
        if stmt.handlers:
            # A handler can run from anywhere inside the body: model its
            # entry as "body never ran" ∪ "body completed". In the
            # completed copies, neutralize leases the body itself
            # acquired: if the exception predates the acquire the lease
            # never existed, and if it postdates it the in-body
            # may-raise check already reported the leak — re-checking it
            # against handler code only duplicates the finding (and
            # misfires when the acquire was the body's last action).
            completed = [s.copy() for s in body_states]
            for s in completed:
                for rid, resource in s.res.items():
                    if rid not in entry_rids and resource.state == "ACQ":
                        resource.state = "ESC"
            basis = entry_snapshot + completed
            basis = basis[:_MAX_STATES]
            for handler in stmt.handlers:
                handler_states.extend(
                    self._stmts(handler.body, [s.copy() for s in basis])
                )
        out = orelse_states + handler_states
        if stmt.finalbody:
            out = self._stmts(stmt.finalbody, out)
        return out

    def _s_Delete(self, stmt: ast.Delete, states: list[_State]) -> list[_State]:
        for state in states:
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.env.pop(target.id, None)
        return states

    def _s_Assert(self, stmt: ast.Assert, states: list[_State]) -> list[_State]:
        for state in states:
            self._expr(stmt.test, state)
        return states

    # -- protection scan ---------------------------------------------------------

    def _protected_names(self, stmt: ast.Try) -> set[str]:
        """Names whose lease is released on unwind: released in the
        ``finally`` suite or in a catch-all handler."""
        suites: list[list[ast.stmt]] = []
        if stmt.finalbody:
            suites.append(stmt.finalbody)
        for handler in stmt.handlers:
            if handler.type is None or (
                isinstance(handler.type, ast.Name)
                and handler.type.id in ("Exception", "BaseException")
            ):
                suites.append(handler.body)
        names: set[str] = set()
        for suite in suites:
            for node in suite:
                for call in ast.walk(node):
                    if not isinstance(call, ast.Call):
                        continue
                    callee = call.func
                    if not isinstance(callee, ast.Attribute):
                        continue
                    if callee.attr in _GENERIC_RELEASERS and isinstance(
                        callee.value, ast.Name
                    ):
                        names.add(callee.value.id)
                    # <anything>.release(x) / helper(x) releasing by arg
                    for arg in call.args:
                        if isinstance(arg, ast.Name):
                            names.add(arg.id)
        return names

    # -- expressions -------------------------------------------------------------

    def _assign(
        self, targets: list[ast.expr], value: ast.expr, state: _State
    ) -> None:
        acquired: list[tuple[int, tuple[str, tuple[str, ...]]]] = []
        if isinstance(value, ast.Call):
            acquired = self._call(value, state, value_bound=True)
        elif isinstance(value, ast.Name):
            pass  # alias; handled below
        else:
            self._expr(value, state)

        for target in targets:
            if isinstance(target, ast.Name):
                if isinstance(value, ast.Name):
                    rid = state.env.get(value.id)
                    if rid is not None:
                        state.env[target.id] = rid
                    else:
                        state.env.pop(target.id, None)
                    continue
                spec = dict(acquired).get(-1)
                if spec is not None:
                    self._bind_new(state, target.id, value.lineno, spec)
                else:
                    state.env.pop(target.id, None)
            elif isinstance(target, ast.Tuple) and isinstance(value, ast.Call):
                by_slot = dict(acquired)
                for pos, elt in enumerate(target.elts):
                    if not isinstance(elt, ast.Name):
                        continue
                    spec = by_slot.get(pos)
                    if spec is not None:
                        self._bind_new(state, elt.id, value.lineno, spec)
                    else:
                        state.env.pop(elt.id, None)
            else:
                # Attribute / subscript store: the value escapes.
                if isinstance(value, ast.Name):
                    self._escape_name(state, value.id)
                self._expr(target, state)

    def _bind_new(
        self, state: _State, name: str, line: int,
        spec: tuple[str, tuple[str, ...]],
    ) -> None:
        kind, releasers = spec
        rid = self._new_rid()
        state.env[name] = rid
        state.res[rid] = _Resource(rid, kind, "ACQ", line, releasers)

    def _escape_name(self, state: _State, name: str) -> None:
        rid = state.env.get(name)
        resource = state.res.get(rid) if rid is not None else None
        if resource is not None and resource.state == "ACQ":
            resource.state = "ESC"
        elif resource is not None and resource.state == "PARAM":
            self.summary.escapes_params.add(resource.param_index)

    def _release(self, state: _State, name: str, line: int) -> None:
        rid = state.env.get(name)
        resource = state.res.get(rid) if rid is not None else None
        if resource is None:
            return
        if resource.state == "PARAM":
            # Parameters aren't known to *be* leases — record the effect
            # for callers (who know what they passed) without entering
            # the released state, which would misfire on ordinary
            # objects that happen to have a close()/abort() method.
            self.summary.releases_params.add(resource.param_index)
            return
        if resource.state == "REL":
            self._emit(
                line,
                f"double release of '{name}' ({resource.kind} lease, first "
                f"released at line {resource.released_line})",
            )
            return
        resource.state = "REL"
        resource.released_line = line

    def _use_after_release(self, line: int, name: str, resource: _Resource) -> None:
        self._emit(
            line,
            f"use of '{name}' after its {resource.kind} lease was released "
            f"at line {resource.released_line}",
        )

    def _expr(self, expr: ast.expr, state: _State) -> None:
        """Generic expression evaluation: uses, nested calls, escapes."""
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                self._call(node, state, value_bound=False)
                break  # _call walks its own arguments
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                rid = state.env.get(node.id)
                resource = state.res.get(rid) if rid is not None else None
                if resource is not None and resource.state == "REL":
                    self._use_after_release(node.lineno, node.id, resource)

    # -- calls -------------------------------------------------------------------

    def _callee_name(self, call: ast.Call) -> str | None:
        fn = call.func
        if isinstance(fn, ast.Attribute):
            return fn.attr
        if isinstance(fn, ast.Name):
            return fn.id
        return None

    def _call(
        self, call: ast.Call, state: _State, value_bound: bool
    ) -> list[tuple[int, tuple[str, tuple[str, ...]]]]:
        """Interpret one call; returns acquired (slot, spec) pairs for a
        bound value. Recurses into argument calls first."""
        name = self._callee_name(call)
        receiver = call.func.value if isinstance(call.func, ast.Attribute) else None

        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if isinstance(arg, ast.Call):
                self._call(arg, state, value_bound=False)
            elif not isinstance(arg, ast.Name):
                self._expr(arg, state)
        if receiver is not None and not isinstance(receiver, ast.Name):
            self._expr(receiver, state)

        # Receiver-release: x.free() / x.finish() / x.release() ...
        if receiver is not None and isinstance(receiver, ast.Name):
            rid = state.env.get(receiver.id)
            resource = state.res.get(rid) if rid is not None else None
            if resource is not None:
                if name in resource.releasers:
                    self._release(state, receiver.id, call.lineno)
                    return []
                if resource.state == "REL":
                    self._use_after_release(call.lineno, receiver.id, resource)
                    return []

        targets = self.index.resolve_call(call, self.fn)
        acquired = self._seed(call, targets)

        if acquired is None:
            acquired = []
            if targets:
                summary = self.rule._summary(targets[0])
                self._apply_summary(call, targets[0], summary, state)
                if value_bound:
                    acquired = list(summary.returns_acquired.items())
            else:
                # Unresolved call: tracked arguments escape.
                for arg in list(call.args) + [kw.value for kw in call.keywords]:
                    if isinstance(arg, ast.Name):
                        self._escape_name(state, arg.id)
        elif not value_bound:
            # A fresh lease whose value is dropped on the floor is out
            # of scope (comprehensions, direct hand-off); don't track.
            acquired = []

        if name not in _SAFE_CALLS:
            self._may_raise(call, state)
        return acquired

    def _seed(
        self, call: ast.Call, targets: list[FunctionInfo]
    ) -> list[tuple[int, tuple[str, tuple[str, ...]]]] | None:
        """Acquire spec when ``call`` mints a fresh lease, else None."""
        name = self._callee_name(call)
        for target in targets:
            spec = _SEED_BY_RESOLUTION.get((target.cls or "", target.name))
            if spec is not None:
                return [(-1, spec)]
        if name in _SEED_BY_NAME and isinstance(call.func, ast.Attribute):
            return [(-1, _SEED_BY_NAME[name])]
        return None

    def _apply_summary(
        self,
        call: ast.Call,
        target: FunctionInfo,
        summary: _Summary,
        state: _State,
    ) -> None:
        """Map callee param effects (release/escape) back onto our args."""
        params = target.params
        is_method = bool(params) and params[0] in ("self", "cls")
        arg_exprs: list[ast.expr | None] = []
        receiver = call.func.value if isinstance(call.func, ast.Attribute) else None
        if is_method and receiver is not None:
            arg_exprs.append(receiver)
        elif is_method:
            arg_exprs.append(None)
        arg_exprs.extend(call.args)
        by_name = {kw.arg: kw.value for kw in call.keywords if kw.arg}
        for pos, param in enumerate(params):
            expr: ast.expr | None = None
            if pos < len(arg_exprs):
                expr = arg_exprs[pos]
            elif param in by_name:
                expr = by_name[param]
            if not isinstance(expr, ast.Name):
                continue
            if pos in summary.releases_params:
                self._release(state, expr.id, call.lineno)
            elif pos in summary.escapes_params:
                self._escape_name(state, expr.id)

    def _may_raise(self, call: ast.Call, state: _State) -> None:
        for resource in state.res.values():
            if resource.state != "ACQ" or resource.rid in self.warned:
                continue
            if resource.line >= call.lineno:
                continue
            if self._protected(state, resource.rid):
                continue
            self.warned.add(resource.rid)
            self._emit(
                resource.line,
                f"{resource.kind} lease acquired here leaks if "
                f"'{ast.unparse(call.func)}(...)' at line {call.lineno} "
                "raises — release it in a try/finally",
                severity="warning",
            )


# =============================================================================
# no-write-to-mapped, promoted through the call graph
# =============================================================================


def mapped_write_helper_findings(
    modules: list[SourceModule],
    arena_expr,
    flag,
) -> list[Finding]:
    """Writes into KV arenas *through helper functions*.

    ``arena_expr``/``flag`` come from the lexical rule so both layers
    share one definition of "an arena expression" and one message shape.
    A helper taints a parameter when its body subscript-stores into it
    (or ``.fill()``\\ s it, or targets it with ``np.copyto``); every call
    site passing an arena into a tainted parameter is a finding.
    """
    index = ProjectIndex(modules)
    by_module: dict[str, SourceModule] = {m.relpath: m for m in modules}

    tainted: dict[str, set[int]] = {}  # qualname -> writing param positions
    for fn in index.functions.values():
        positions = _writing_params(fn)
        if positions:
            tainted[fn.qualname] = positions

    findings: list[Finding] = []
    if not tainted:
        return findings
    for fn in index.functions.values():
        module = by_module.get(fn.module.relpath)
        if module is None:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            for target in index.resolve_call(node, fn):
                positions = tainted.get(target.qualname)
                if not positions:
                    continue
                params = target.params
                is_method = bool(params) and params[0] in ("self", "cls")
                offset = 1 if is_method else 0
                by_name = {kw.arg: kw.value for kw in node.keywords if kw.arg}
                for pos in sorted(positions):
                    expr: ast.AST | None = None
                    arg_index = pos - offset
                    if 0 <= arg_index < len(node.args):
                        expr = node.args[arg_index]
                    elif pos < len(params) and params[pos] in by_name:
                        expr = by_name[params[pos]]
                    if expr is None:
                        continue
                    arena = arena_expr(expr)
                    if arena is not None:
                        findings.append(
                            flag(
                                module, node, arena,
                                f"passed to {target.name}(), which writes "
                                f"its '{params[pos]}' parameter in place",
                            )
                        )
    return findings


def _writing_params(fn: FunctionInfo) -> set[int]:
    """Parameter positions ``fn`` writes through (subscript store,
    ``.fill()``-style mutators, or as an ``np.copyto`` destination)."""
    params = {name: pos for pos, name in enumerate(fn.params)}
    positions: set[int] = set()

    def _written_name(target: ast.AST) -> str | None:
        seen = target
        while isinstance(seen, ast.Subscript):
            seen = seen.value
        if isinstance(seen, ast.Name):
            return seen.id
        return None

    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if not isinstance(target, ast.Subscript):
                    continue
                name = _written_name(target)
                if name in params:
                    positions.add(params[name])
        elif isinstance(node, ast.Call):
            callee = node.func
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr in ("fill", "sort", "partition", "put", "itemset")
                and isinstance(callee.value, ast.Name)
                and callee.value.id in params
            ):
                positions.add(params[callee.value.id])
            elif (
                isinstance(callee, ast.Attribute)
                and callee.attr == "copyto"
                and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id in params
            ):
                positions.add(params[node.args[0].id])
    return positions
