"""Interprocedural flow analyses: lease lifecycles and lock order."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.engine import SourceModule
from repro.analysis.flow import LeaseLifecycleRule, LockOrderRule
from repro.analysis.rules import NoWriteToMappedRule


def module_of(text: str, name: str = "mod.py") -> SourceModule:
    return SourceModule(Path(name), name, text)


def lease_findings(*sources: str):
    modules = [module_of(src, f"m{i}.py") for i, src in enumerate(sources)]
    return LeaseLifecycleRule().check_project(modules)


def lock_findings(*sources: str):
    modules = [module_of(src, f"m{i}.py") for i, src in enumerate(sources)]
    return LockOrderRule().check_project(modules)


# An arena that mints seat leases by resolution (TailArena.seat is a
# seeded acquire); the handle it returns is released by its release().
ARENA = """\
class TailArena:
    def seat(self, cache):
        return object()
"""


class TestLeaseLifecycle:
    def test_leak_on_fall_through_is_an_error(self):
        src = """\
def serve(pool, model):
    cache = pool.fork()
    model.prefill()
"""
        messages = [f.message for f in lease_findings(src)]
        assert any("never released" in m for m in messages)

    def test_leak_on_exception_is_a_warning_at_the_acquire(self):
        src = """\
def serve(pool, model):
    cache = pool.fork()
    model.prefill()
    cache.free()
"""
        findings = lease_findings(src)
        assert len(findings) == 1
        assert findings[0].severity == "warning"
        assert "leaks if" in findings[0].message
        assert findings[0].line == 2  # anchored at the acquire, not the call

    def test_release_in_finally_is_clean(self):
        src = """\
def serve(pool, model):
    cache = pool.fork()
    try:
        model.prefill()
    finally:
        cache.free()
"""
        assert lease_findings(src) == []

    def test_release_in_catch_all_handler_is_clean(self):
        src = """\
def serve(pool, model):
    cache = pool.fork()
    try:
        model.prefill()
    except Exception:
        cache.free()
        raise
    cache.free()
"""
        assert lease_findings(src) == []

    def test_double_release(self):
        src = ARENA + """\
def use(arena, cache):
    tail = arena.seat(cache)
    tail.release()
    tail.release()
"""
        messages = [f.message for f in lease_findings(src)]
        assert any("double release of 'tail'" in m for m in messages)

    def test_use_after_release(self):
        src = ARENA + """\
def use(arena, cache):
    tail = arena.seat(cache)
    tail.release()
    tail.kv(0)
"""
        messages = [f.message for f in lease_findings(src)]
        assert any("use of 'tail'" in m for m in messages)

    def test_lease_returned_by_helper_leaks_in_the_caller(self):
        src = ARENA + """\
def make(arena, cache):
    return arena.seat(cache)

def outer(arena, cache):
    tail = make(arena, cache)
"""
        findings = lease_findings(src)
        assert any(
            "never released" in f.message and "outer" in f.message
            for f in findings
        )
        # The helper itself is clean: returning the lease transfers it.
        assert not any("make" in f.message for f in findings)

    def test_release_through_helper_is_clean(self):
        src = ARENA + """\
def give_back(tail):
    tail.release()

def outer(arena, cache):
    tail = arena.seat(cache)
    give_back(tail)
"""
        assert lease_findings(src) == []

    def test_leaked_seat_is_seeded(self):
        """``TailArena.seat`` mints a lease by resolution: a seat that is
        never released is a leak, though ``seat`` returns a plain value."""
        src = ARENA + """\
def decode(arena, cache, model):
    tail = arena.seat(cache)
    model.step()
"""
        assert any(
            "seat lease" in f.message and "never released" in f.message
            for f in lease_findings(src)
        )

    def test_leaked_fork_is_seeded(self):
        """``fork`` mints a lease by name, even when the base's class
        resolves and its ``fork`` returns a plain value."""
        src = """\
class SplicedKV:
    def fork(self):
        return object()

def serve(base, model):
    cache = base.fork()
    model.prefill()
"""
        assert any(
            "fork lease" in f.message and "never released" in f.message
            for f in lease_findings(src)
        )

    def test_escape_into_container_transfers_ownership(self):
        src = """\
def admit(pool, inflight):
    cache = pool.fork()
    inflight.append(cache)
"""
        # .append() is unresolvable -> the lease escapes conservatively.
        assert lease_findings(src) == []

    def test_none_guarded_cleanup_is_clean(self):
        # The release-alias idiom used by the engine's open_stream().
        src = """\
def open_it(self, paged):
    release = None
    if paged:
        cache = self.pool.fork()
        release = cache
    else:
        cache = self.fresh()
    try:
        return self.wrap(cache)
    except BaseException:
        if release is not None:
            self.pool.release(release)
        raise
"""
        assert lease_findings(src) == []

    def test_boolean_guarded_cleanup_still_warns(self):
        # Same shape, but guarded by a boolean the interpreter cannot
        # correlate with the acquire branch — stays a warning.
        src = """\
def open_it(self, paged):
    owns = False
    if paged:
        cache = self.pool.fork()
        owns = True
    else:
        cache = self.fresh()
    try:
        return self.wrap(cache)
    except BaseException:
        if owns:
            cache.free()
        raise
"""
        findings = lease_findings(src)
        assert any("raise" in f.message for f in findings)


LOCKED_PAIR = """\
from repro.analysis.locks import ordered_lock

class Store:
    def __init__(self):
        self._a = ordered_lock("a")
        self._b = ordered_lock("b")

    def forward(self):
        with self._a:
            with self._b:
                pass
"""


class TestLockOrder:
    def test_two_lock_cycle(self):
        src = LOCKED_PAIR + """\

    def backward(self):
        with self._b:
            with self._a:
                pass
"""
        findings = lock_findings(src)
        assert any("lock-order cycle" in f.message for f in findings)

    def test_consistent_nesting_is_clean(self):
        src = LOCKED_PAIR + """\

    def also_forward(self):
        with self._a:
            with self._b:
                pass
"""
        assert lock_findings(src) == []

    def test_three_lock_cycle_across_functions(self):
        src = """\
from repro.analysis.locks import ordered_lock

class S:
    def __init__(self):
        self._a = ordered_lock("a")
        self._b = ordered_lock("b")
        self._c = ordered_lock("c")

    def ab(self):
        with self._a:
            with self._b:
                pass

    def bc(self):
        with self._b:
            with self._c:
                pass

    def ca(self):
        with self._c:
            with self._a:
                pass
"""
        findings = lock_findings(src)
        assert any("lock-order cycle" in f.message for f in findings)

    def test_observed_edge_contradicting_declared_order(self):
        src = """\
from repro.analysis.locks import ordered_lock

class S:
    def __init__(self):
        self._w = ordered_lock("w")
        self._x = ordered_lock("x", after=("w",))

    def wrong(self):
        with self._x:
            with self._w:
                pass
"""
        findings = lock_findings(src)
        assert any("contradicts the declared lock order" in f.message for f in findings)

    def test_edge_observed_through_a_callee(self):
        src = """\
from repro.analysis.locks import ordered_lock

class S:
    def __init__(self):
        self._w = ordered_lock("w")
        self._x = ordered_lock("x", after=("w",))

    def take_w(self):
        with self._w:
            pass

    def wrong(self):
        with self._x:
            self.take_w()
"""
        findings = lock_findings(src)
        assert any("contradicts the declared lock order" in f.message for f in findings)

    def test_reentrant_reacquire_is_clean(self):
        src = """\
from repro.analysis.locks import ordered_lock

class S:
    def __init__(self):
        self._r = ordered_lock("r")

    def outer(self):
        with self._r:
            with self._r:
                pass
"""
        assert lock_findings(src) == []

    def test_non_reentrant_reacquire_self_deadlocks(self):
        src = """\
from repro.analysis.locks import ordered_lock

class S:
    def __init__(self):
        self._m = ordered_lock("m", reentrant=False)

    def outer(self):
        with self._m:
            with self._m:
                pass
"""
        findings = lock_findings(src)
        assert any("non-reentrant lock 'm'" in f.message for f in findings)

    def test_assert_unheld_violated_through_a_call(self):
        src = """\
from repro.analysis.locks import assert_unheld, ordered_lock

class S:
    def __init__(self):
        self._s = ordered_lock("s")

    def fetch(self):
        assert_unheld("s")

    def bad(self):
        with self._s:
            self.fetch()
"""
        findings = lock_findings(src)
        assert any("unheld" in f.message for f in findings)

    def test_holds_lock_annotation_seeds_the_held_set(self):
        src = """\
from repro.analysis.locks import ordered_lock

class S:
    def __init__(self):
        self._w = ordered_lock("w")
        self._x = ordered_lock("x", after=("w",))

    def callback(self):  # holds-lock: x
        with self._w:
            pass
"""
        findings = lock_findings(src)
        assert any("contradicts the declared lock order" in f.message for f in findings)

    def test_declared_cycle_is_a_config_error(self):
        src = """\
from repro.analysis.locks import ordered_lock

A = ordered_lock("a", after=("b",))
B = ordered_lock("b", after=("a",))
"""
        findings = lock_findings(src)
        assert any("declared lock order is cyclic" in f.message for f in findings)


class TestMappedWriteThroughHelpers:
    def test_arena_passed_to_writing_helper_is_flagged(self):
        src = """\
def fill_block(dst, x):
    dst[0] = x

def attach(kv, x):
    fill_block(kv.key_arena, x)
"""
        module = module_of(src)
        findings = NoWriteToMappedRule().check_project([module])
        assert any("fill_block" in f.message for f in findings)

    def test_helper_that_only_reads_is_clean(self):
        src = """\
def peek(srcv):
    return srcv[0]

def attach(kv):
    return peek(kv.key_arena)
"""
        module = module_of(src)
        assert NoWriteToMappedRule().check_project([module]) == []
