"""Codebase rules for the serving hot path's concurrency invariants.

Four rules ship by default, each targeting a regression class that the
tier-1 tests cannot reliably catch (they mostly run single-threaded and
unsanitized):

- :class:`GuardedByRule` — lock discipline for fields annotated
  ``# guarded-by: <lock>`` at their ``__init__`` assignment;
- :class:`AsyncHygieneRule` — no blocking calls or await-free spin loops
  inside ``async def`` (the event loop must keep admitting/shedding);
- :class:`BroadExceptRule` — a broad ``except`` must re-raise or use the
  caught exception (silent swallows hide engine bugs from operators);
- :class:`KVContractRule` — functions whose parameters name KV tensors
  must declare their shapes via
  :func:`repro.analysis.contracts.shape_contract`;
- :class:`NoWriteToMappedRule` — no in-place mutation of ``key_arena`` /
  ``value_arena`` attributes (snapshot-attached modules share those
  arenas read-only across workers; mutate a private copy instead).
"""

from __future__ import annotations

import ast
import re

from repro.analysis.engine import Finding, ProjectRule, Rule, SourceModule

__all__ = [
    "AsyncHygieneRule",
    "BroadExceptRule",
    "DEFAULT_RULES",
    "GuardedByRule",
    "KVContractRule",
    "NoWriteToMappedRule",
    "NoqaJustificationRule",
    "default_rules",
    "rules_by_name",
]

_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*(?P<lock>\w+)")


def _function_defs(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _is_self_attr(node: ast.AST, attr: str | None = None) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
        and (attr is None or node.attr == attr)
    )


class GuardedByRule(Rule):
    """Fields annotated ``# guarded-by: <lock>`` in ``__init__`` must only
    be touched inside ``with self.<lock>:`` elsewhere in the class.

    The annotation is the registration: no central config to drift from
    the code. Limitations (by design, to stay fast and predictable): the
    check is lexical per-class — helper methods *documented* as
    lock-held should take the re-entrant lock themselves, and cross-object
    accesses (``other.field``) are out of scope.
    """

    name = "guarded-by"
    description = "lock-annotated fields accessed outside their lock"

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    def _check_class(self, module: SourceModule, cls: ast.ClassDef) -> list[Finding]:
        guarded = self._registered_fields(module, cls)
        if not guarded:
            return []
        findings: list[Finding] = []
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue  # registration site; objects are private until shared
            findings.extend(self._check_method(module, method, guarded))
        return findings

    def _registered_fields(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> dict[str, str]:
        """field name -> lock attribute, from annotated ``__init__`` lines."""
        guarded: dict[str, str] = {}
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef) and method.name == "__init__"):
                continue
            for stmt in ast.walk(method):
                if not isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    continue
                match = _GUARDED_BY.search(module.line_text(stmt.lineno))
                if not match:
                    continue
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in targets:
                    if _is_self_attr(target):
                        guarded[target.attr] = match.group("lock")
        return guarded

    def _check_method(
        self,
        module: SourceModule,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        guarded: dict[str, str],
    ) -> list[Finding]:
        findings: list[Finding] = []

        def visit(node: ast.AST, held: frozenset[str]) -> None:
            if isinstance(node, ast.With):
                acquired = {
                    item.context_expr.attr
                    for item in node.items
                    if _is_self_attr(item.context_expr)
                }
                inner = held | acquired
                for child in ast.iter_child_nodes(node):
                    visit(child, inner)
                return
            if _is_self_attr(node) and node.attr in guarded:
                lock = guarded[node.attr]
                if lock not in held:
                    findings.append(
                        module.finding(
                            self.name,
                            node,
                            f"field 'self.{node.attr}' is guarded by "
                            f"'self.{lock}' but accessed in {method.name}() "
                            f"outside 'with self.{lock}:'",
                        )
                    )
                return  # attribute chains below self.<field> are covered
            for child in ast.iter_child_nodes(node):
                visit(child, held)

        for stmt in method.body:
            visit(stmt, frozenset())
        return findings


_BLOCKING_CALLS = {
    ("time", "sleep"): "time.sleep() blocks the event loop; use asyncio.sleep()",
    ("os", "system"): "os.system() blocks the event loop; use a subprocess executor",
    ("subprocess", "run"): "subprocess.run() blocks the event loop",
    ("subprocess", "check_output"): "subprocess.check_output() blocks the event loop",
}
_BLOCKING_METHODS = {
    "read_text": "blocking file read inside async code; run it in an executor",
    "write_text": "blocking file write inside async code; run it in an executor",
    "read_bytes": "blocking file read inside async code; run it in an executor",
    "write_bytes": "blocking file write inside async code; run it in an executor",
}


class AsyncHygieneRule(Rule):
    """No blocking calls or await-free ``while`` loops in ``async def``.

    The live server's whole design rests on a responsive loop (admission
    and shedding continue while the engine computes in an executor); one
    ``time.sleep`` or busy-wait in a coroutine silently serializes it.
    """

    name = "async-hygiene"
    description = "blocking calls / await-free loops inside async functions"

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for fn in _function_defs(module.tree):
            if not isinstance(fn, ast.AsyncFunctionDef):
                continue
            for node in self._walk_own(fn):
                if isinstance(node, ast.Call):
                    findings.extend(self._check_call(module, node))
                elif isinstance(node, ast.While):
                    findings.extend(self._check_loop(module, node))
        return findings

    def _walk_own(self, fn: ast.AsyncFunctionDef):
        """Walk ``fn`` without descending into nested function defs —
        a nested sync helper is the *caller's* concern only if awaited."""
        stack: list[ast.AST] = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _check_call(self, module: SourceModule, call: ast.Call) -> list[Finding]:
        fn = call.func
        if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
            message = _BLOCKING_CALLS.get((fn.value.id, fn.attr))
            if message:
                return [module.finding(self.name, call, message)]
            message = _BLOCKING_METHODS.get(fn.attr)
            if message:
                return [module.finding(self.name, call, f"{fn.attr}(): {message}")]
        if isinstance(fn, ast.Name) and fn.id == "open":
            return [
                module.finding(
                    self.name, call,
                    "open() inside async code blocks the event loop; "
                    "run file I/O in an executor",
                )
            ]
        return []

    def _check_loop(self, module: SourceModule, loop: ast.While) -> list[Finding]:
        for node in ast.walk(loop):
            if isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith, ast.Break)):
                return []
        # Bounded compute over locals is fine; what starves the loop is
        # spinning on a condition only *other* tasks can change — an
        # unconditional loop or one polling shared ``self`` state.
        unbounded = (
            isinstance(loop.test, ast.Constant) and bool(loop.test.value)
        ) or any(_is_self_attr(node) for node in ast.walk(loop.test))
        if not unbounded:
            return []
        return [
            module.finding(
                self.name, loop,
                "'while' loop in a coroutine never awaits; it starves the "
                "event loop (await inside, or make the work synchronous)",
            )
        ]


class BroadExceptRule(Rule):
    """Broad ``except`` handlers must re-raise or use the exception.

    ``except Exception: pass`` in the serving path converts engine bugs
    into silently dropped requests. A handler passes if it re-raises,
    binds the exception (``as exc``) *and* references it, or carries a
    ``# noqa: no-bare-broad-except`` justification.
    """

    name = "no-bare-broad-except"
    description = "broad except handlers that swallow the exception"

    _BROAD = {"Exception", "BaseException"}

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and self._is_broad(node):
                if not self._handles(node):
                    findings.append(
                        module.finding(
                            self.name, node,
                            "broad 'except' swallows the exception: re-raise, "
                            "record it ('as exc' and use it), or justify with "
                            "'# noqa: no-bare-broad-except'",
                        )
                    )
        return findings

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        names = (
            handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        )
        return any(
            isinstance(name, ast.Name) and name.id in self._BROAD for name in names
        )

    def _handles(self, handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return True
            if (
                handler.name
                and isinstance(node, ast.Name)
                and node.id == handler.name
                and isinstance(node.ctx, ast.Load)
            ):
                return True
        return False


_KV_PARAM_SETS = (frozenset({"keys", "values"}), frozenset({"key_arena", "value_arena"}))


class KVContractRule(Rule):
    """Functions whose parameters name KV tensors must declare shapes.

    A parameter list containing both ``keys`` and ``values`` (or both
    arena names) marks a function as handling ``(…, T, head_dim)``
    attention state; it must carry ``@shape_contract(...)`` with a spec
    for each such parameter so the contract is both documented and
    runtime-checkable under ``REPRO_SANITIZE=1``.
    """

    name = "kv-contract"
    description = "KV-tensor functions missing a shape_contract declaration"

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for fn in _function_defs(module.tree):
            params = {
                arg.arg
                for arg in (
                    fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                )
                if arg.arg not in ("self", "cls")
            }
            kv_params: set[str] = set()
            for wanted in _KV_PARAM_SETS:
                if wanted <= params:
                    kv_params |= wanted
            if not kv_params:
                continue
            declared = self._declared(fn)
            if declared is None:
                findings.append(
                    module.finding(
                        self.name, fn,
                        f"{fn.name}() takes KV tensors "
                        f"({', '.join(sorted(kv_params))}) but declares no "
                        "@shape_contract",
                    )
                )
                continue
            missing = sorted(kv_params - declared)
            if missing:
                findings.append(
                    module.finding(
                        self.name, fn,
                        f"{fn.name}()'s @shape_contract omits KV parameters: "
                        f"{', '.join(missing)}",
                    )
                )
        return findings

    def _declared(self, fn) -> set[str] | None:
        """Keyword names of the shape_contract decorator, or None."""
        for deco in fn.decorator_list:
            if not isinstance(deco, ast.Call):
                continue
            target = deco.func
            name = (
                target.id
                if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute) else None
            )
            if name == "shape_contract":
                return {kw.arg for kw in deco.keywords if kw.arg}
        return None


_ARENA_ATTRS = {"key_arena", "value_arena"}
_FILL_METHODS = {"fill", "sort", "partition", "put", "itemset"}
_COPYING_CALLS = {"copy", "ascontiguousarray", "array", "copyto_private", "ensure_arena"}


class NoWriteToMappedRule(ProjectRule):
    """No in-place mutation of arrays reachable from a ``ModuleKV`` arena.

    Snapshot-attached modules expose ``key_arena``/``value_arena`` as
    views over a read-only file mapping shared by every worker on the
    host; a subscript store, ``np.copyto`` destination, or ``.fill()``
    on such an attribute either crashes (read-only map) or corrupts
    sibling workers (writable map). Mutations must go through an explicit
    private copy (``.copy()``, ``ensure_arena()`` on a view, …) — the
    copy call in the expression chain is the copy-on-write guard the rule
    looks for. Suppress deliberate cases with
    ``# noqa: no-write-to-mapped``.

    The rule is interprocedural: passing an arena into a helper that
    subscript-stores through the parameter is flagged at the call site
    (the lexical scan alone can't see through ``_blit(dst, src)``).
    """

    name = "no-write-to-mapped"
    description = "in-place writes into (possibly memmap-backed) KV arenas"

    def check_project(self, modules: list[SourceModule]) -> list[Finding]:
        from repro.analysis.flow import mapped_write_helper_findings

        findings: list[Finding] = []
        for module in modules:
            findings.extend(self._check_module(module))
        findings.extend(
            mapped_write_helper_findings(modules, self._arena_expr, self._flag)
        )
        return findings

    def check(self, module: SourceModule) -> list[Finding]:
        # The lexical scan still works standalone (single-module tests);
        # the engine routes ProjectRules through check_project instead.
        return self._check_module(module)

    def _check_module(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(node, ast.Assign) and not isinstance(target, ast.Subscript):
                        continue  # rebinding the attribute writes into no array
                    arena = self._arena_expr(target)
                    if arena is not None:
                        findings.append(self._flag(module, node, arena, "subscript store"))
            elif isinstance(node, ast.Call):
                findings.extend(self._check_call(module, node))
        return findings

    def _check_call(self, module: SourceModule, call: ast.Call) -> list[Finding]:
        fn = call.func
        # <expr>.key_arena.fill(...) and friends mutate in place.
        if isinstance(fn, ast.Attribute) and fn.attr in _FILL_METHODS:
            arena = self._arena_expr(fn.value)
            if arena is not None:
                return [self._flag(module, call, arena, f".{fn.attr}() call")]
        # np.copyto(dst, src) writes its first argument.
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr == "copyto"
            and call.args
        ):
            arena = self._arena_expr(call.args[0])
            if arena is not None:
                return [self._flag(module, call, arena, "np.copyto destination")]
        return []

    def _arena_expr(self, node: ast.AST) -> str | None:
        """The arena attribute name when ``node`` writes through one —
        peeling subscripts/slices — or None. An expression that passed
        through an explicit copying call (``kv.key_arena.copy()[…]``) is
        private memory and exempt."""
        seen = node
        while True:
            if isinstance(seen, ast.Subscript):
                seen = seen.value
                continue
            if isinstance(seen, ast.Call):
                fn = seen.func
                name = (
                    fn.attr if isinstance(fn, ast.Attribute)
                    else fn.id if isinstance(fn, ast.Name) else None
                )
                if name in _COPYING_CALLS:
                    return None  # explicit copy-on-write guard
                return None  # arbitrary call result: not provably an arena
            if isinstance(seen, ast.Attribute) and seen.attr in _ARENA_ATTRS:
                return seen.attr
            return None

    def _flag(self, module: SourceModule, node: ast.AST, arena: str, how: str) -> Finding:
        return module.finding(
            self.name, node,
            f"in-place write into '{arena}' ({how}): arenas may be "
            "snapshot-mapped and shared read-only across workers — mutate "
            "an explicit private copy, or justify with "
            "'# noqa: no-write-to-mapped'",
        )


class NoqaJustificationRule(Rule):
    """Every ``# noqa`` suppression must say *why*.

    A suppression is a standing exception to a rule; without a recorded
    reason the next editor can't tell a deliberate invariant from a
    stale workaround. The justification rides in the same comment, after
    the rule list: ``# noqa: guarded-by - snapshot is private here``.
    Blanket ``# noqa`` (no rule names) is always a finding — name the
    rule being silenced.
    """

    name = "noqa-justification"
    description = "noqa suppressions lacking a justification"
    severity = "warning"

    def check(self, module: SourceModule) -> list[Finding]:
        findings: list[Finding] = []
        for comment in module.noqa_comments:
            if comment.justified:
                continue
            if not comment.names:
                message = (
                    "blanket '# noqa' suppresses every rule with no "
                    "justification: name the rule(s) and append a reason "
                    "('# noqa: <rule> - why')"
                )
            else:
                shown = ", ".join(comment.names)
                message = (
                    f"'# noqa: {shown}' has no justification: append a "
                    "reason after the rule list ('# noqa: "
                    f"{comment.names[0]} - why')"
                )
            findings.append(
                module.finding(
                    self.name, comment.line, message, severity=self.severity
                )
            )
        return findings


def default_rules() -> list[Rule]:
    from repro.analysis.flow import LeaseLifecycleRule, LockOrderRule

    return [
        GuardedByRule(),
        AsyncHygieneRule(),
        BroadExceptRule(),
        KVContractRule(),
        NoWriteToMappedRule(),
        NoqaJustificationRule(),
        LeaseLifecycleRule(),
        LockOrderRule(),
    ]


def rules_by_name() -> dict[str, type[Rule]]:
    """Registry used to rebuild rules across the process-pool boundary
    and to resolve ``--rules`` selections by name."""
    return {rule.name: type(rule) for rule in default_rules()}


DEFAULT_RULES = default_rules()
