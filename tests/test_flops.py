"""FLOP/byte counting: internal consistency and the paper's formulas."""

from __future__ import annotations

import pytest

from repro.llm import flops as F
from repro.llm.config import paper_config, tiny_config

LLAMA7B = paper_config("llama2-7b")


class TestAttentionFlops:
    def test_paper_formula_values(self):
        # 6nd^2 + 4n^2d exactly as §2.2 states.
        assert F.paper_attention_flops(10, 100) == 6 * 10 * 100**2 + 4 * 100 * 100

    def test_full_prefill_reduces_to_quadratic_plus_linear(self):
        cfg = LLAMA7B
        n = 1000
        total = F.attention_flops(cfg, n, n)
        # projections + output grow linearly, score/context quadratically.
        linear_part = 2 * n * cfg.d_model * (cfg.d_model + 2 * cfg.kv_dim) + 2 * n * cfg.d_model**2
        quadratic_part = 4 * n * n * cfg.d_model
        assert total == linear_part + quadratic_part

    def test_mha_matches_paper_order(self):
        """For MHA the detailed count differs from the paper's 6nd^2+4n^2d
        only by the output projection (2nd^2)."""
        cfg = LLAMA7B
        n = 512
        assert F.attention_flops(cfg, n, n) == F.paper_attention_flops(
            n, cfg.d_model
        ) + 2 * n * cfg.d_model**2

    def test_suffix_prefill_scales_with_new_tokens(self):
        cfg = LLAMA7B
        full = F.attention_flops(cfg, 1000, 1000)
        suffix = F.attention_flops(cfg, 10, 1000)
        assert suffix < full / 50

    def test_gqa_shrinks_kv_projections(self):
        mha = tiny_config("llama")
        import dataclasses

        gqa = dataclasses.replace(mha, n_kv_heads=2)
        assert F.attention_flops(gqa, 64, 64) < F.attention_flops(mha, 64, 64)

    def test_gqa_pinned_counts(self):
        """Regression pins for the explicit head-grouped accounting:
        tiny-llama (d=64, 4 heads of dim 16) with 2 KV heads. GQA halves
        the K/V projection term; the quadratic score/context terms run
        per *query* head and must not shrink."""
        import dataclasses

        mha = tiny_config("llama")
        gqa = dataclasses.replace(mha, n_kv_heads=2)
        assert F.attention_flops(mha, 64, 64) == 3_145_728
        assert F.attention_flops(gqa, 64, 64) == 2_621_440
        assert F.attention_flops(gqa, 1, 100) == 50_176
        # The whole MHA-GQA gap is the K/V projection delta.
        assert F.attention_flops(mha, 64, 64) - F.attention_flops(
            gqa, 64, 64
        ) == 2 * 2 * 64 * mha.d_model * (2 * mha.head_dim)


class TestModelFlops:
    def test_prefill_quadratic_growth(self):
        """Doubling sequence length must more than double prefill FLOPs
        (the quadratic term the paper's Fig 5 hinges on)."""
        a = F.prefill_flops(LLAMA7B, 2000)
        b = F.prefill_flops(LLAMA7B, 4000)
        assert b > 2 * a

    def test_cached_prefill_near_linear_in_uncached(self):
        a = F.cached_prefill_flops(LLAMA7B, 10, 5000)
        b = F.cached_prefill_flops(LLAMA7B, 20, 5000)
        assert b < 2.2 * a

    def test_cached_prefill_below_full(self):
        assert F.cached_prefill_flops(LLAMA7B, 100, 5000) < F.prefill_flops(LLAMA7B, 5000)

    def test_decode_step_linear_in_context(self):
        a = F.decode_step_flops(LLAMA7B, 1000)
        b = F.decode_step_flops(LLAMA7B, 2000)
        assert a < b < 2 * a  # linear attention term + constant projections

    def test_swiglu_mlp_has_three_matrices(self):
        llama = tiny_config("llama")
        import dataclasses

        gelu = dataclasses.replace(llama, mlp="gelu")
        assert F.mlp_flops(llama, 10) == 3 * 2 * 10 * llama.d_model * llama.d_ff
        assert F.mlp_flops(gelu, 10) == 2 * 2 * 10 * llama.d_model * llama.d_ff


class TestBytes:
    def test_kv_bytes_matches_table2_accounting(self):
        assert F.kv_bytes(LLAMA7B, 1000) == 1000 * LLAMA7B.kv_bytes_per_token()

    def test_weight_bytes_roughly_param_count(self):
        # Llama2-7B has ~6.7B parameters; fp16 weights ~13.5 GB.
        gb = F.weight_bytes(LLAMA7B, 2) / 1e9
        assert 12 < gb < 15

    def test_activation_bytes_grow_quadratically(self):
        a = F.prefill_activation_bytes(LLAMA7B, 1000)
        b = F.prefill_activation_bytes(LLAMA7B, 4000)
        assert b > 4 * a
