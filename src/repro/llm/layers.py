"""Primitive neural-network layers as pure functions over NumPy arrays.

The engine is functional: parameters are plain ``np.ndarray`` values held in
dicts, and every layer is a stateless function. This keeps the hot path
vectorized (guides: avoid Python loops over elements) and makes the
bit-exactness tests trivial — identical inputs produce identical outputs.

All computation is float32. fp16 appears only in *storage* accounting
(Table 2); NumPy fp16 arithmetic would be both slow and needlessly lossy.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float32


def linear_rows(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """``x @ weight.T (+ bias)`` for rows ``x`` (B, in_features) with the
    weight stored (out_features, in_features), evaluated weight-first:
    ``(weight @ x.T).T``.

    Same product, other operand order: with the (out, in) weight on the
    left the GEMM's long side is M, and OpenBLAS runs it about twice as
    fast at B <= 16 as the skinny ``(B, in) @ (in, out)`` (qkv at B=16:
    ~110 vs ~260 us) — without keeping a transposed copy of any weight.
    The result is a Fortran-ordered (B, out_features) view. Every model
    GEMM goes through here; its rounding depends on B, which is why a
    pack of several sequences agrees with packs of one to float32
    tolerance rather than bitwise.
    """
    out = (weight @ x.T).T
    if bias is not None:
        out += bias
    return out


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Root-mean-square normalization (Llama family).

    The mean is ``np.add.reduce(...) / d``: the same float32 rounding
    as ``np.mean`` without its Python wrappers, ten calls a norm that
    ``tests/test_decode_step_cost.py`` counts."""
    variance = np.add.reduce(np.square(x), axis=-1, keepdims=True) / x.shape[-1]
    return (x / np.sqrt(variance + eps)) * weight


def layer_norm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    eps: float = 1e-5,
) -> np.ndarray:
    """Standard LayerNorm (Falcon / MPT / GPT-2 families); means as in
    :func:`rms_norm`."""
    d = x.shape[-1]
    mean = np.add.reduce(x, axis=-1, keepdims=True) / d
    variance = np.add.reduce(np.square(x - mean), axis=-1, keepdims=True) / d
    return (x - mean) / np.sqrt(variance + eps) * weight + bias


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU/swish activation: ``x * sigmoid(x)``."""
    return x / (1.0 + np.exp(-x))


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU (tanh approximation, matching common inference kernels)."""
    c = np.sqrt(2.0 / np.pi).astype(DTYPE)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * x**3)))


def embed(token_ids: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Token-embedding lookup; ``table`` is (vocab, d_model)."""
    return table[token_ids]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted
