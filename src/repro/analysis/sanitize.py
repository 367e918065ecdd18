"""Runtime sanitizers for the shared-KV and splice invariants.

Static rules catch lock-discipline regressions; these sanitizers catch
the *dynamic* invariants the paper's §3.2–3.4 machinery depends on:

- :class:`PageAuditor` shadows, in an independent ledger, the live forks
  of every :class:`~repro.llm.paged.SplicedKV` base and the seated rows
  of every :class:`~repro.llm.paged.TailArena`, and raises
  :class:`SanitizerError` on a **double release** of either and on a
  slot **seated twice**. :meth:`PageAuditor.expect_balanced` turns
  "every fork must be freed, every seat given back" into an assertion
  for tests, and :func:`assert_quiescent` checks at end of test that a
  base has no live fork and an arena no seated row.
- A **splice-plan validator** re-derives the position-ID invariants of
  every compiled plan: selected modules occupy disjoint, monotonically
  increasing position sets; uncached work only lands on parameter slots,
  free gaps, or the recompute tail; and at registration, union members
  share their start position and ``<unk>`` parameter slots sit inside
  their module's span.

Everything here is **off by default** and costs nothing until
:func:`install_sanitizers` runs — the hot modules hold a module-global
hook that is ``None`` in production. Set ``REPRO_SANITIZE=1`` and the
test suite (via ``tests/conftest.py``) or your own entry point installs
them for the whole run.
"""

from __future__ import annotations

import os
import threading
import weakref
from contextlib import contextmanager

import numpy as np

from repro.analysis.contracts import enforce_contracts

__all__ = [
    "LockDep",
    "PageAuditor",
    "SanitizerError",
    "active_auditor",
    "assert_quiescent",
    "guard_kv_write",
    "install_sanitizers",
    "sanitizers_enabled",
    "uninstall_sanitizers",
    "validate_layout",
    "validate_plan",
]

_ENV_FLAG = "REPRO_SANITIZE"


class SanitizerError(AssertionError):
    """A runtime invariant of the shared-KV/splice machinery was violated."""


def sanitizers_enabled() -> bool:
    """True when the environment opts into sanitized runs."""
    return os.environ.get(_ENV_FLAG, "").strip().lower() in ("1", "true", "yes", "on")


class PageAuditor:
    """Independent ledger of base forks and arena seats.

    The ledger never trusts the owners' own counts: hooks fire *before*
    the owner mutates, so a buggy release is caught at the faulting call
    instead of as corruption three requests later, when a recycled row is
    rewritten under a live reader.
    """

    def __init__(self) -> None:
        # arena -> seated slots; base -> live forks. Weak keys so owners
        # dropped by tests don't pin the ledger; seeded lazily from the
        # owner's own state when it predates the auditor.
        self._seats: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._forks: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.errors_raised = 0

    def _fail(self, message: str):
        self.errors_raised += 1
        raise SanitizerError(message)

    # -- spliced-base forks ---------------------------------------------------

    def on_fork(self, base) -> None:
        """Called right before ``base`` hands out a fork."""
        self._forks[base] = self._forks.get(base, base.forks) + 1

    def on_unfork(self, base) -> None:
        """Called right before a fork gives ``base`` back."""
        expected = self._forks.get(base, base.forks)
        if expected <= 0:
            self._fail(
                "double release of a fork of a spliced base: no fork is "
                "live — a stream freed a cache it no longer holds"
            )
        self._forks[base] = expected - 1

    # -- tail-arena seats -----------------------------------------------------

    def _seated(self, arena) -> set[int]:
        seats = self._seats.get(arena)
        if seats is None:
            # Arena predates the auditor: seed from its own free list.
            seats = self._seats[arena] = set(range(arena.slots)) - set(arena._free)
        return seats

    def on_seat(self, arena, slot: int) -> None:
        """Called right before ``slot`` leaves the arena's free list."""
        seats = self._seated(arena)
        if slot in seats:
            self._fail(
                f"arena slot {slot} seated twice: two sequences would "
                "append their decode tails to one row"
            )
        seats.add(slot)

    def on_unseat(self, arena, slot: int) -> None:
        """Called right before ``slot`` returns to the free list."""
        seats = self._seated(arena)
        if slot not in seats:
            self._fail(
                f"double release of arena slot {slot}: the row may already "
                "belong to another sequence"
            )
        seats.discard(slot)

    # -- balance / quiescence -------------------------------------------------

    def live(self, owner) -> int:
        """Live forks of a base, or seated rows of an arena, by the ledger."""
        if hasattr(owner, "forks"):
            return self._forks.get(owner, owner.forks)
        return len(self._seated(owner))

    @contextmanager
    def expect_balanced(self, *owners):
        """Assert no net fork or seat leak across the ``with`` body.

        Every fork or seat inside the region must be matched by a release
        before it exits — the end-of-test discipline for code that
        borrows bases or arena rows (``serve`` forks, batch forks, seated
        decode tails).
        """
        before = {owner: self.live(owner) for owner in owners}
        yield self
        for owner, baseline in before.items():
            live = self.live(owner)
            if live > baseline:
                what = "fork" if hasattr(owner, "forks") else "seat"
                self._fail(
                    f"{what} leak: {live} live {what}s, expected {baseline} "
                    f"— {live - baseline} never released (a fork was "
                    "dropped without free())"
                )


def assert_quiescent(*owners) -> None:
    """Raise if any spliced base still has a live fork or any
    :class:`~repro.llm.paged.TailArena` a seated row (end-of-test check)."""
    for owner in owners:
        if hasattr(owner, "forks"):
            if owner.forks:
                raise SanitizerError(
                    f"base not quiescent: {owner.forks} live fork(s) — a "
                    "stream ended without freeing its cache"
                )
        elif owner.live_slots:
            raise SanitizerError(
                f"arena not quiescent: {owner.live_slots} of {owner.slots} "
                "slot(s) still seated — a stream ended without freeing "
                "its fork"
            )


# -- splice-plan validation ---------------------------------------------------


def validate_layout(schema, layout) -> None:
    """Schema-layout invariants, checked at registration time.

    Union members share their start position (paper §3.2.3) and every
    parameter's ``<unk>`` slot positions sit inside its module's span.
    """
    _check_unions(schema.root.children, schema, layout)
    for name, module in layout.modules.items():
        for slot in module.params.values():
            positions = module.param_positions(slot.name)
            if len(positions) and (
                positions.min() < module.span_start
                or positions.max() >= module.span_end
            ):
                raise SanitizerError(
                    f"parameter {slot.name!r} of module {name!r} has slot "
                    f"positions outside the module span "
                    f"[{module.span_start}, {module.span_end})"
                )


def _check_unions(children, schema, layout) -> None:
    # A function of its own, not a closure calling itself: that closure
    # would be a reference cycle holding the schema and its layout.
    from repro.pml.ast import ModuleNode, UnionNode

    for child in children:
        if isinstance(child, UnionNode):
            starts = {
                layout.module(member.name).span_start
                for member in child.members
                if member.name in layout.modules
            }
            if len(starts) > 1:
                raise SanitizerError(
                    f"union members of schema {schema.name!r} disagree on "
                    f"start positions {sorted(starts)}; members must "
                    "share their start (paper §3.2.3)"
                )
            for member in child.members:
                _check_unions(member.children, schema, layout)
        elif isinstance(child, ModuleNode):
            _check_unions(child.children, schema, layout)


def validate_plan(plan, layout) -> None:
    """Position-ID invariants of one compiled serve plan.

    Selected modules' direct positions are strictly increasing and
    pairwise disjoint; uncached tokens only land on parameter slots, the
    recompute tail, or positions no cached token occupies.
    """
    occupied: set[int] = set()
    slot_positions: set[int] = set()
    for module, name in plan.modules:
        positions = module.positions
        if len(positions) > 1 and not np.all(np.diff(positions) > 0):
            raise SanitizerError(
                f"module {name!r} has non-monotonic position IDs; cached "
                "states must keep document order (paper §3.3)"
            )
        as_set = set(map(int, positions))
        overlap = occupied & as_set
        if overlap:
            raise SanitizerError(
                f"module {name!r} overlaps previously selected modules at "
                f"positions {sorted(overlap)[:8]}; selected modules must be "
                "disjoint"
            )
        occupied |= as_set
        for slot in module.params.values():
            slot_positions.update(map(int, module.param_positions(slot.name)))

    allowed_tail: set[int] = set()
    if plan.recompute_tail is not None:
        name, index = plan.recompute_tail
        allowed_tail.add(int(layout.module(name).positions[index]))
    cached = (occupied - slot_positions) - allowed_tail
    for token_ids, positions in plan.uncached:
        clash = cached & set(map(int, positions))
        if clash:
            raise SanitizerError(
                f"uncached tokens collide with cached positions "
                f"{sorted(clash)[:8]}; suffix text must land on parameter "
                "slots or free positions"
            )


# -- runtime lockdep ----------------------------------------------------------


class LockDep:
    """Runtime lock-order recorder — the dynamic half of ``lock-order``.

    Locks built through :func:`repro.analysis.locks.ordered_lock` while
    a recorder is installed report every acquisition. The recorder keeps
    a per-thread stack of held locks and a global edge graph seeded with
    the declared partial order (``after=`` edges); acquiring ``b`` while
    holding ``a`` adds the edge ``a -> b`` and immediately checks for a
    path ``b -> … -> a`` — a cycle means two call paths take the same
    pair of locks in opposite orders, i.e. a schedule exists that
    deadlocks, even if *this* run happened not to. The check runs
    *before* blocking on the real lock, so the sanitized shard fails
    fast with the offending edge instead of hanging.

    Also enforced: re-acquisition of non-reentrant locks (self-deadlock)
    and :func:`~repro.analysis.locks.assert_unheld` guards on code
    documented to run lock-free.
    """

    def __init__(self) -> None:
        self._graph_lock = threading.Lock()
        # canonical name -> names that may be acquired after it
        self._edges: dict[str, set[str]] = {}
        # edge -> provenance ("declared" or the first observing thread)
        self._sources: dict[tuple[str, str], str] = {}
        self._tls = threading.local()

    # -- declaration ----------------------------------------------------------

    def declare(self, name: str, after: tuple[str, ...]) -> None:
        with self._graph_lock:
            for earlier in after:
                self._add_edge(earlier, name, "declared")

    # -- per-thread state -----------------------------------------------------

    def _held(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def held_locks(self) -> tuple[str, ...]:
        return tuple(self._held())

    def edges(self) -> dict[tuple[str, str], str]:
        with self._graph_lock:
            return dict(self._sources)

    # -- hooks ----------------------------------------------------------------

    def on_acquire(self, name: str, reentrant: bool = True) -> None:
        held = self._held()
        if name in held:
            if not reentrant:
                raise SanitizerError(
                    f"lockdep: non-reentrant lock '{name}' re-acquired by the "
                    "holding thread — this deadlocks"
                )
            held.append(name)
            return
        with self._graph_lock:
            for holder in dict.fromkeys(held):
                self._add_edge(holder, name, threading.current_thread().name)
        held.append(name)

    def on_release(self, name: str) -> None:
        held = self._held()
        for index in range(len(held) - 1, -1, -1):
            if held[index] == name:
                del held[index]
                return

    def assert_unheld(self, name: str) -> None:
        if name in self._held():
            raise SanitizerError(
                f"lockdep: '{name}' is held on a path documented to run "
                f"without it (held: {self.held_locks()})"
            )

    # -- graph ---------------------------------------------------------------

    def _add_edge(self, earlier: str, later: str, source: str) -> None:
        """Record ``earlier -> later``; caller holds ``_graph_lock``."""
        if later in self._edges.get(earlier, ()):
            return
        back = self._path(later, earlier)
        if back is not None:
            chain = " -> ".join(back)
            provenance = ", ".join(
                f"{a}->{b} ({self._sources.get((a, b), '?')})"
                for a, b in zip(back, back[1:])
            )
            raise SanitizerError(
                f"lockdep: acquiring '{later}' while holding '{earlier}' "
                f"({source}) inverts the established order {chain} "
                f"[{provenance}] — a deadlocking schedule exists"
            )
        self._edges.setdefault(earlier, set()).add(later)
        self._sources[(earlier, later)] = source

    def _path(self, src: str, dst: str) -> list[str] | None:
        prev = {src: src}
        queue = [src]
        while queue:
            current = queue.pop(0)
            for nxt in self._edges.get(current, ()):
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


# -- mapped-arena write guard -------------------------------------------------


def guard_kv_write(buffer: np.ndarray) -> None:
    """KV write guard (installed into :mod:`repro.llm.kv` by
    :func:`install_sanitizers`): reject in-place writes into snapshot-
    mapped or otherwise read-only arenas.

    A mapped module's pages are shared by every worker attached to the
    same snapshot; an in-place append would either corrupt siblings
    (writable mapping) or crash mid-splice (read-only mapping). The guard
    turns both into a :class:`SanitizerError` at the faulting append with
    the fix in the message: take a private copy (``ensure_arena`` on a
    non-arena view, or ``copy()``) before mutating.
    """
    from repro.llm.kv import is_mapped_array

    if is_mapped_array(buffer):
        raise SanitizerError(
            "in-place write into a snapshot-mapped KV arena: mapped modules "
            "are shared read-only across attached workers — copy into a "
            "private arena before appending"
        )
    if not buffer.flags.writeable:
        raise SanitizerError(
            "in-place write into a read-only KV buffer — copy before mutating"
        )


# -- installation -------------------------------------------------------------

_ACTIVE: PageAuditor | None = None


def active_auditor() -> PageAuditor | None:
    return _ACTIVE


def install_sanitizers() -> PageAuditor:
    """Wire the auditor + validators into the hot modules; returns the
    auditor. Idempotent — re-installing returns the active auditor."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    from repro.analysis import locks
    from repro.cache import engine as cache_engine
    from repro.llm import kv as kv_mod
    from repro.llm import paged

    auditor = PageAuditor()
    paged.set_page_auditor(auditor)
    cache_engine.set_plan_validator(validate_plan)
    cache_engine.set_layout_validator(validate_layout)
    kv_mod.set_write_guard(guard_kv_write)
    locks.set_lockdep(LockDep())
    enforce_contracts(True)
    _ACTIVE = auditor
    return auditor


def uninstall_sanitizers() -> None:
    global _ACTIVE
    if _ACTIVE is None:
        return
    from repro.analysis import locks
    from repro.cache import engine as cache_engine
    from repro.llm import kv as kv_mod
    from repro.llm import paged

    paged.set_page_auditor(None)
    cache_engine.set_plan_validator(None)
    cache_engine.set_layout_validator(None)
    kv_mod.set_write_guard(None)
    locks.set_lockdep(None)
    enforce_contracts(False)
    _ACTIVE = None


def install_if_enabled() -> PageAuditor | None:
    """Install when ``REPRO_SANITIZE`` opts in; the conftest entry point."""
    if sanitizers_enabled():
        return install_sanitizers()
    return None
