"""Each shipped rule fires on its target pattern and stays quiet on the
blessed idioms around it (positive + negative fixtures per rule)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.engine import SourceModule
from repro.analysis.rules import (
    AsyncHygieneRule,
    BroadExceptRule,
    GuardedByRule,
    KVContractRule,
    NoWriteToMappedRule,
)


def run_rule(rule, src: str):
    module = SourceModule(Path("fixture.py"), "fixture.py", src)
    return [
        finding
        for finding in rule.check(module)
        if not module.suppressed(finding.line, finding.rule)
    ]


class TestGuardedBy:
    GOOD = """\
import threading

class Store:
    def __init__(self):
        self._lock = threading.Lock()
        self.entries = {}  # guarded-by: _lock

    def put(self, key, value):
        with self._lock:
            self.entries[key] = value

    def get(self, key):
        with self._lock:
            return self.entries.get(key)
"""

    def test_locked_access_is_clean(self):
        assert run_rule(GuardedByRule(), self.GOOD) == []

    def test_unlocked_access_fires(self):
        bad = self.GOOD + """\

    def size(self):
        return len(self.entries)
"""
        findings = run_rule(GuardedByRule(), bad)
        assert len(findings) == 1
        assert findings[0].rule == "guarded-by"
        assert "self.entries" in findings[0].message
        assert "size()" in findings[0].message

    def test_access_after_with_block_fires(self):
        bad = self.GOOD + """\

    def drain(self):
        with self._lock:
            items = list(self.entries)
        self.entries.clear()
"""
        findings = run_rule(GuardedByRule(), bad)
        assert [finding.line for finding in findings] == [len(bad.splitlines())]

    def test_wrong_lock_fires(self):
        bad = self.GOOD.replace(
            "self._lock = threading.Lock()",
            "self._lock = threading.Lock()\n        self._other = threading.Lock()",
        ).replace("with self._lock:\n            return", "with self._other:\n            return")
        findings = run_rule(GuardedByRule(), bad)
        assert len(findings) == 1
        assert "get()" in findings[0].message

    def test_init_is_exempt_and_unannotated_fields_ignored(self):
        src = """\
class Plain:
    def __init__(self):
        self.free = 0

    def bump(self):
        self.free += 1
"""
        assert run_rule(GuardedByRule(), src) == []

    def test_noqa_suppresses(self):
        bad = self.GOOD + """\

    def size(self):
        return len(self.entries)  # noqa: guarded-by - snapshot read is racy-ok
"""
        assert run_rule(GuardedByRule(), bad) == []


class TestAsyncHygiene:
    def test_time_sleep_in_coroutine_fires(self):
        src = """\
import time

async def tick():
    time.sleep(0.1)
"""
        findings = run_rule(AsyncHygieneRule(), src)
        assert len(findings) == 1
        assert "time.sleep" in findings[0].message

    def test_asyncio_sleep_is_clean(self):
        src = """\
import asyncio

async def tick():
    await asyncio.sleep(0.1)
"""
        assert run_rule(AsyncHygieneRule(), src) == []

    def test_blocking_file_io_fires(self):
        src = """\
async def load(path):
    return path.read_text()
"""
        findings = run_rule(AsyncHygieneRule(), src)
        assert len(findings) == 1 and "read_text" in findings[0].message

    def test_bare_open_fires(self):
        src = """\
async def load(path):
    with open(path) as fh:
        return fh.read()
"""
        assert len(run_rule(AsyncHygieneRule(), src)) == 1

    def test_sync_function_is_out_of_scope(self):
        src = """\
import time

def tick():
    time.sleep(0.1)
"""
        assert run_rule(AsyncHygieneRule(), src) == []

    def test_nested_sync_helper_is_out_of_scope(self):
        src = """\
import time

async def outer():
    def helper():
        time.sleep(0.1)
    return helper
"""
        assert run_rule(AsyncHygieneRule(), src) == []

    def test_await_free_spin_on_self_state_fires(self):
        src = """\
async def drain(self):
    while self.pending:
        self.pending.pop()
"""
        findings = run_rule(AsyncHygieneRule(), src)
        assert len(findings) == 1
        assert "never awaits" in findings[0].message

    def test_while_true_without_await_fires(self):
        src = """\
async def spin():
    while True:
        pass
"""
        assert len(run_rule(AsyncHygieneRule(), src)) == 1

    def test_loop_with_await_is_clean(self):
        src = """\
async def drain(self):
    while self.pending:
        await self.pending.pop()
"""
        assert run_rule(AsyncHygieneRule(), src) == []

    def test_bounded_local_loop_is_clean(self):
        src = """\
async def chunk(items):
    n = len(items)
    while n > 0:
        n -= 1
    return n
"""
        assert run_rule(AsyncHygieneRule(), src) == []


class TestBroadExcept:
    def test_silent_swallow_fires(self):
        src = """\
def f():
    try:
        risky()
    except Exception:
        pass
"""
        findings = run_rule(BroadExceptRule(), src)
        assert len(findings) == 1
        assert findings[0].rule == "no-bare-broad-except"

    def test_bare_except_fires(self):
        src = """\
def f():
    try:
        risky()
    except:
        pass
"""
        assert len(run_rule(BroadExceptRule(), src)) == 1

    def test_tuple_including_broad_fires(self):
        src = """\
def f():
    try:
        risky()
    except (ValueError, Exception):
        pass
"""
        assert len(run_rule(BroadExceptRule(), src)) == 1

    def test_reraise_is_clean(self):
        src = """\
def f():
    try:
        risky()
    except Exception:
        cleanup()
        raise
"""
        assert run_rule(BroadExceptRule(), src) == []

    def test_recording_the_exception_is_clean(self):
        src = """\
def f(report):
    try:
        risky()
    except Exception as exc:
        report.record_failure(exc)
"""
        assert run_rule(BroadExceptRule(), src) == []

    def test_binding_without_using_still_fires(self):
        src = """\
def f():
    try:
        risky()
    except Exception as exc:
        pass
"""
        assert len(run_rule(BroadExceptRule(), src)) == 1

    def test_narrow_except_is_out_of_scope(self):
        src = """\
def f():
    try:
        risky()
    except ValueError:
        pass
"""
        assert run_rule(BroadExceptRule(), src) == []


class TestKVContract:
    def test_missing_contract_fires(self):
        src = """\
def append(self, keys, values):
    return keys, values
"""
        findings = run_rule(KVContractRule(), src)
        assert len(findings) == 1
        assert "no @shape_contract" in findings[0].message

    def test_arena_names_also_fire(self):
        src = """\
def from_arenas(cls, key_arena, value_arena):
    return key_arena, value_arena
"""
        assert len(run_rule(KVContractRule(), src)) == 1

    def test_contract_present_is_clean(self):
        src = """\
from repro.analysis.contracts import shape_contract

@shape_contract(keys="(n_kv_heads, T, head_dim)", values="(n_kv_heads, T, head_dim)")
def append(self, keys, values):
    return keys, values
"""
        assert run_rule(KVContractRule(), src) == []

    def test_incomplete_contract_fires(self):
        src = """\
from repro.analysis.contracts import shape_contract

@shape_contract(keys="(n_kv_heads, T, head_dim)")
def append(self, keys, values):
    return keys, values
"""
        findings = run_rule(KVContractRule(), src)
        assert len(findings) == 1
        assert "omits" in findings[0].message and "values" in findings[0].message

    def test_unrelated_params_out_of_scope(self):
        src = """\
def lookup(self, keys):
    return keys
"""
        assert run_rule(KVContractRule(), src) == []


class TestNoWriteToMapped:
    def test_subscript_store_fires(self):
        src = """\
def patch(kv, x):
    kv.key_arena[0] = x
"""
        findings = run_rule(NoWriteToMappedRule(), src)
        assert len(findings) == 1
        assert "key_arena" in findings[0].message

    def test_augassign_and_nested_subscript_fire(self):
        src = """\
def scale(kv, x):
    kv.value_arena[:, 1:] *= x
    kv.key_arena[0][2] = x
"""
        assert len(run_rule(NoWriteToMappedRule(), src)) == 2

    def test_copyto_destination_and_fill_fire(self):
        src = """\
import numpy as np

def overwrite(kv, x):
    np.copyto(kv.key_arena, x)
    kv.value_arena.fill(0)
"""
        findings = run_rule(NoWriteToMappedRule(), src)
        assert len(findings) == 2
        assert "copyto" in findings[0].message
        assert ".fill()" in findings[1].message

    def test_reads_and_private_copies_are_clean(self):
        src = """\
import numpy as np

def ok(kv, x, out):
    y = kv.key_arena[0]                    # read
    np.copyto(out, kv.value_arena)         # arena as *source*
    kv.key_arena.copy()[0] = x             # explicit copy-on-write
    key_arena = np.empty_like(y)           # plain local, not an attribute
    key_arena[0] = x
    kv.key_arena = key_arena               # rebinding, not a write
    return y
"""
        assert run_rule(NoWriteToMappedRule(), src) == []

    def test_noqa_suppresses(self):
        src = """\
def rebuild(kv, x):
    kv.key_arena[0] = x  # noqa: no-write-to-mapped -- private rebuild buffer
"""
        assert run_rule(NoWriteToMappedRule(), src) == []
