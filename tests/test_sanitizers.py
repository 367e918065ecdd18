"""REPRO_SANITIZE runtime sanitizers: the auditor catches deliberate
fork and seat abuse, the plan/layout validators accept every real plan
and reject tampered ones, and shape contracts flag mis-ranked tensors."""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import sanitize
from repro.analysis.contracts import (
    ContractViolation,
    contracts_enforced,
    enforce_contracts,
    shape_contract,
)
from repro.analysis.sanitize import (
    SanitizerError,
    assert_quiescent,
    install_sanitizers,
    sanitizers_enabled,
    uninstall_sanitizers,
    validate_layout,
    validate_plan,
)
from repro.cache.engine import PromptCache
from repro.cache.layout import layout_schema
from repro.llm.kv import LayerKV, ModuleKV
from repro.llm.paged import SplicedKV, TailArena
from repro.pml import PLAIN_TEMPLATE
from repro.pml.schema import Schema

RNG = np.random.default_rng(17)


def block(tokens, heads=2, head_dim=4):
    return RNG.normal(size=(heads, tokens, head_dim)).astype(np.float32)


@pytest.fixture
def auditor():
    """Install sanitizers for one test; restore the prior state after.

    Under ``REPRO_SANITIZE=1`` the conftest session fixture already
    installed them — then this is a no-op passthrough."""
    already = sanitize.active_auditor()
    installed = install_sanitizers()
    installed.errors_raised = 0  # per-test delta, even on a session auditor
    yield installed
    if already is None:
        uninstall_sanitizers()


class TestEnvFlag:
    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("", False), ("off", False), ("maybe", False),
    ])
    def test_parsing(self, monkeypatch, value, expected):
        monkeypatch.setitem(os.environ, "REPRO_SANITIZE", value)
        assert sanitizers_enabled() is expected

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitizers_enabled() is False

    def test_install_is_idempotent(self, auditor):
        assert install_sanitizers() is auditor
        assert sanitize.active_auditor() is auditor


def one_layer_base(tokens=6):
    """A one-layer base over one module of ``block(tokens)``."""
    config = SimpleNamespace(n_layers=1, n_kv_heads=2, head_dim=4)
    kv = ModuleKV(keys=[block(tokens)], values=[block(tokens)], positions=np.arange(tokens))
    return SplicedKV.from_module_kvs(config, [kv]), config


class TestForkLedger:
    """Every fork a base hands out comes back exactly once, and an arena
    row is seated by one fork at a time."""

    def test_double_free_of_a_fork_raises(self, auditor):
        base, _ = one_layer_base()
        fork = base.fork()
        fork.free()
        with pytest.raises(SanitizerError, match="double release of a fork"):
            fork.free()
        assert auditor.errors_raised == 1

    def test_leaked_fork_of_a_base_raises(self, auditor):
        base, _ = one_layer_base()
        with pytest.raises(SanitizerError, match="fork leak"):
            with auditor.expect_balanced(base):
                base.fork()  # dropped without free()
        with pytest.raises(SanitizerError, match="base not quiescent"):
            assert_quiescent(base)

    def test_seated_forks_balance_across_an_image(self, auditor):
        """Forks taken before and after the base becomes an image, one of
        them seated, all freed: the ledger and the arena end empty."""
        base, config = one_layer_base()
        arena = TailArena(config, slots=2)
        with auditor.expect_balanced(base):
            first = base.fork(capacity=4)
            first.layers[0].append(block(3), block(3), np.arange(6, 9))
            base.to_image()
            second = base.fork()
            assert arena.seat(first) is first.tail and len(first) == 9
            first.free()
            second.free()
        assert_quiescent(base, arena)
        assert auditor.errors_raised == 0

    def test_balanced_seats_pass_on_an_arena(self, auditor):
        """``expect_balanced`` and ``live`` read an arena's seat ledger:
        seats given back inside the region balance it."""
        base, config = one_layer_base()
        arena = TailArena(config, slots=2)
        with auditor.expect_balanced(arena):
            forks = [base.fork(), base.fork()]
            for fork in forks:
                arena.seat(fork)
            assert auditor.live(arena) == 2
            for fork in forks:
                fork.free()
        assert auditor.live(arena) == 0
        assert_quiescent(arena)
        assert auditor.errors_raised == 0

    def test_leaked_seat_raises(self, auditor):
        base, config = one_layer_base()
        arena = TailArena(config, slots=2)
        with pytest.raises(SanitizerError, match="seat leak"):
            with auditor.expect_balanced(arena):
                arena.seat(base.fork())  # the fork is never freed
        with pytest.raises(SanitizerError, match="arena not quiescent"):
            assert_quiescent(arena)


def stub_module(positions, params=None, slots=None):
    module = SimpleNamespace(
        positions=np.asarray(positions),
        params=params or {},
    )
    module.param_positions = lambda name: np.asarray((slots or {})[name])
    return module


def stub_plan(modules, uncached=(), recompute_tail=None):
    return SimpleNamespace(
        modules=modules, uncached=list(uncached), recompute_tail=recompute_tail
    )


class TestPlanValidator:
    def test_disjoint_monotonic_plan_passes(self):
        plan = stub_plan(
            [(stub_module([0, 1, 2]), "a"), (stub_module([5, 6]), "b")],
            uncached=[(np.array([9]), np.array([7]))],
        )
        validate_plan(plan, layout=None)

    def test_non_monotonic_positions_raise(self):
        plan = stub_plan([(stub_module([0, 2, 1]), "a")])
        with pytest.raises(SanitizerError, match="non-monotonic"):
            validate_plan(plan, layout=None)

    def test_overlapping_modules_raise(self):
        plan = stub_plan(
            [(stub_module([0, 1, 2]), "a"), (stub_module([2, 3]), "b")]
        )
        with pytest.raises(SanitizerError, match="overlaps"):
            validate_plan(plan, layout=None)

    def test_uncached_collision_with_cached_raises(self):
        plan = stub_plan(
            [(stub_module([0, 1, 2]), "a")],
            uncached=[(np.array([9]), np.array([1]))],
        )
        with pytest.raises(SanitizerError, match="collide"):
            validate_plan(plan, layout=None)

    def test_uncached_on_param_slot_is_allowed(self):
        slot = SimpleNamespace(name="p")
        module = stub_module(
            [0, 1, 2], params={"p": slot}, slots={"p": [1]}
        )
        plan = stub_plan(
            [(module, "a")], uncached=[(np.array([9]), np.array([1]))]
        )
        validate_plan(plan, layout=None)


UNION_SCHEMA = (
    '<schema name="cities"><union>'
    '<module name="miami">miami beaches nightlife surf</module>'
    '<module name="paris">paris museums cafes architecture louvre</module>'
    '</union></schema>'
)


class TestLayoutValidator:
    def test_real_union_layout_passes(self, tok):
        schema = Schema.parse(UNION_SCHEMA)
        layout = layout_schema(schema, tok)
        validate_layout(schema, layout)

    def test_tampered_union_start_raises(self, tok):
        schema = Schema.parse(UNION_SCHEMA)
        layout = layout_schema(schema, tok)
        layout.module("paris").span_start += 7
        with pytest.raises(SanitizerError, match="disagree on"):
            validate_layout(schema, layout)

    def test_slot_positions_outside_span_raise(self, tok):
        schema = Schema.parse(
            '<schema name="p"><module name="m">greet '
            '<param name="who" len="2" default="you"/> warmly</module></schema>'
        )
        layout = layout_schema(schema, tok)
        validate_layout(schema, layout)  # sane as laid out
        layout.module("m").span_end = 1
        with pytest.raises(SanitizerError, match="outside the module span"):
            validate_layout(schema, layout)


class TestShapeContracts:
    def test_not_enforced_no_check(self):
        @shape_contract(keys="(h, T, d)", values="(h, T, d)")
        def f(keys, values):
            return keys.shape

        was_on = contracts_enforced()
        enforce_contracts(False)
        try:
            assert f(np.zeros((2, 3)), np.zeros(4)) == (2, 3)  # wrong ranks pass
        finally:
            enforce_contracts(was_on)

    def test_enforced_wrong_rank_raises(self, auditor):
        @shape_contract(keys="(h, T, d)", values="(h, T, d)")
        def f(keys, values):
            return True

        assert contracts_enforced()
        assert f(np.zeros((2, 3, 4)), np.zeros((2, 3, 4)))
        with pytest.raises(ContractViolation, match="'values'"):
            f(np.zeros((2, 3, 4)), np.zeros((3, 4)))

    def test_none_and_scalars_skipped(self, auditor):
        @shape_contract(keys="(h, T, d)")
        def f(keys=None):
            return keys

        assert f() is None
        assert f(keys=None) is None

    def test_unknown_parameter_rejected_at_decoration(self):
        with pytest.raises(TypeError, match="not in its signature"):
            @shape_contract(nope="(a, b)")
            def f(keys):
                return keys

    def test_real_append_under_contracts(self, auditor):
        layer = LayerKV(2, 4)
        with pytest.raises(ContractViolation):
            layer.append(block(5)[0], block(5)[0], np.arange(5))  # rank 2
        layer.append(block(5), block(5), np.arange(5))
        assert len(layer) == 5


DOC = (
    '<schema name="doc"><module name="d">the quick brown fox jumps over the '
    'lazy dog again and again</module></schema>'
)
PROMPT = '<prompt schema="doc"><d/> plan a trip</prompt>'


class TestEndToEnd:
    def test_sanitized_serve_matches_unsanitized(self, llama, tok, auditor):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(DOC)
        sanitized = pc.serve(PROMPT, max_new_tokens=4)

        uninstall_sanitizers()
        try:
            pc_plain = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
            pc_plain.register_schema(DOC)
            plain = pc_plain.serve(PROMPT, max_new_tokens=4)
        finally:
            install_sanitizers()

        assert sanitized.output_ids == plain.output_ids
        assert auditor.errors_raised == 0

    def test_union_registration_validated_live(self, llama, tok, auditor):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(UNION_SCHEMA)  # layout validator runs clean
        out = pc.serve(
            '<prompt schema="cities"><miami/> plan a trip</prompt>',
            max_new_tokens=2,
        )
        assert len(out.output_ids) >= 1
        assert auditor.errors_raised == 0
