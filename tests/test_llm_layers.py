"""Primitive layers: numerical correctness against independent references."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import softmax as scipy_softmax

from repro.llm import build_model, tiny_config
from repro.llm.layers import (
    embed,
    gelu,
    layer_norm,
    linear_rows,
    rms_norm,
    silu,
    softmax,
)

RNG = np.random.default_rng(42)


def rand(*shape):
    return RNG.normal(size=shape).astype(np.float32)


class TestLinear:
    def test_matches_manual_matmul(self):
        x, w, b = rand(5, 8), rand(3, 8), rand(3)
        out = linear_rows(x, w, b)
        np.testing.assert_allclose(out, x @ w.T + b, rtol=1e-6)

    def test_no_bias(self):
        x, w = rand(4, 6), rand(2, 6)
        np.testing.assert_allclose(linear_rows(x, w), x @ w.T, rtol=1e-6)


class TestNorms:
    def test_rms_norm_unit_scale(self):
        x = rand(7, 16)
        out = rms_norm(x, np.ones(16, dtype=np.float32))
        rms = np.sqrt(np.mean(out**2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-3)

    def test_rms_norm_weight_scales(self):
        x = rand(3, 8)
        w = np.full(8, 2.0, dtype=np.float32)
        np.testing.assert_allclose(
            rms_norm(x, w), 2.0 * rms_norm(x, np.ones(8, dtype=np.float32)), rtol=1e-6
        )

    def test_layer_norm_zero_mean_unit_var(self):
        x = rand(5, 32)
        out = layer_norm(x, np.ones(32, dtype=np.float32), np.zeros(32, dtype=np.float32))
        np.testing.assert_allclose(out.mean(-1), 0.0, atol=1e-5)
        np.testing.assert_allclose(out.std(-1), 1.0, atol=1e-3)

    def test_layer_norm_bias_shifts(self):
        x = rand(2, 4)
        bias = np.full(4, 3.0, dtype=np.float32)
        shifted = layer_norm(x, np.ones(4, dtype=np.float32), bias)
        base = layer_norm(x, np.ones(4, dtype=np.float32), np.zeros(4, dtype=np.float32))
        np.testing.assert_allclose(shifted, base + 3.0, rtol=1e-6)

    def test_rms_norm_invariant_to_scale_direction(self):
        # RMSNorm(a*x) == RMSNorm(x) for positive scalar a.
        x = rand(4, 8)
        w = np.ones(8, dtype=np.float32)
        np.testing.assert_allclose(rms_norm(3.0 * x, w), rms_norm(x, w), atol=1e-5)


class TestActivations:
    def test_silu_matches_definition(self):
        x = rand(100)
        expected = x / (1 + np.exp(-x))
        np.testing.assert_allclose(silu(x), expected, rtol=1e-6)

    def test_silu_zero_at_zero(self):
        assert silu(np.zeros(1, dtype=np.float32))[0] == 0.0

    def test_gelu_close_to_exact(self):
        # tanh approximation should track the exact erf form closely.
        from scipy.special import erf

        x = np.linspace(-4, 4, 200).astype(np.float32)
        exact = 0.5 * x * (1 + erf(x / np.sqrt(2)))
        np.testing.assert_allclose(gelu(x), exact, atol=2e-3)

    def test_gelu_monotone_on_positive(self):
        x = np.linspace(0, 5, 50).astype(np.float32)
        assert np.all(np.diff(gelu(x)) > 0)


class TestSoftmax:
    def test_matches_scipy(self):
        x = rand(6, 10)
        np.testing.assert_allclose(softmax(x), scipy_softmax(x, axis=-1), rtol=1e-5)

    def test_rows_sum_to_one(self):
        x = rand(4, 9) * 10
        np.testing.assert_allclose(softmax(x).sum(-1), 1.0, rtol=1e-5)

    def test_stable_under_large_inputs(self):
        x = np.array([[1e4, 1e4 + 1.0]], dtype=np.float32)
        out = softmax(x)
        assert np.all(np.isfinite(out))
        assert out[0, 1] > out[0, 0]

    def test_shift_invariance(self):
        x = rand(3, 5)
        np.testing.assert_allclose(softmax(x), softmax(x + 7.0), rtol=1e-5)


class TestMLPs:
    """The model's MLP (``TransformerModel._mlp``) against its formula."""

    def test_swiglu_shape_and_gating(self):
        model = build_model(tiny_config("llama"), seed=1)
        x = rand(4, model.config.d_model)
        gate_up = model._fused[0][2]
        out = model._mlp(x, 0, gate_up)
        assert out.shape == (4, model.config.d_model)
        p = model.params
        gate, up, down = (p[f"layers.0.mlp.{n}"] for n in ("gate", "up", "down"))
        expected = (silu(x @ gate.T) * (x @ up.T)) @ down.T
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-6)

    def test_gelu_mlp_with_and_without_bias(self):
        model = build_model(tiny_config("gpt2"), seed=1)
        p = model.params
        x = rand(3, model.config.d_model)
        assert "layers.0.mlp.up_bias" in p  # zero at initialisation
        with_zero_bias = model._mlp(x, 0, None)
        biases = {n: p.pop(f"layers.0.mlp.{n}") for n in ("up_bias", "down_bias")}
        try:
            no_bias = model._mlp(x, 0, None)
        finally:
            p.update({f"layers.0.mlp.{n}": b for n, b in biases.items()})
        np.testing.assert_allclose(no_bias, with_zero_bias, rtol=1e-6)
        expected = gelu(x @ p["layers.0.mlp.up"].T) @ p["layers.0.mlp.down"].T
        np.testing.assert_allclose(no_bias, expected, rtol=1e-4, atol=1e-6)


class TestEmbed:
    def test_lookup(self):
        table = rand(10, 4)
        ids = np.array([3, 3, 7])
        out = embed(ids, table)
        np.testing.assert_array_equal(out[0], table[3])
        np.testing.assert_array_equal(out[2], table[7])

    def test_empty_sequence(self):
        table = rand(5, 4)
        assert embed(np.array([], dtype=int), table).shape == (0, 4)
