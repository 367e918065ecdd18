"""Closed-form FLOP and byte counts for transformer inference.

These drive the analytical device model (:mod:`repro.hw.latency`) used for
the paper-shape results in Figures 3–5 and §5.4. Counting conventions:

- One multiply-accumulate = 2 FLOPs.
- A matmul (m, k) @ (k, n) costs ``2 * m * k * n``.
- Norms, activations, and softmax are counted at a few FLOPs/element; they
  are a rounding error next to the matmuls but keep the totals honest.

The paper quotes attention prefill as ``6 n d^2 + 4 n^2 d`` (Q/K/V
projections plus score/value matmuls, MHA); :func:`attention_flops`
generalizes that to GQA and includes the output projection, and
:func:`paper_attention_flops` reproduces the quoted formula exactly.
"""

from __future__ import annotations

from repro.llm.config import ModelConfig


def paper_attention_flops(n: int, d: int) -> int:
    """The paper's §2.2 formula for one layer's attention prefill."""
    return 6 * n * d * d + 4 * n * n * d


def attention_flops(config: ModelConfig, n_new: int, n_total: int) -> int:
    """One layer's attention cost for ``n_new`` query tokens over a context
    of ``n_total`` keys (``n_total == n_new`` for a from-scratch prefill).

    Priced from the explicit GQA head grouping: Q projects to
    ``n_heads * head_dim`` but K/V project only to
    ``n_kv_heads * head_dim``, and the score/context matmuls run per
    *query* head against the group's shared KV head — GQA shrinks the
    K/V projections (and the cached bytes, see :func:`kv_bytes`), while
    every query head still prices its full ``n_total``-key dot products,
    so the quadratic terms match MHA at equal ``n_heads``.
    """
    heads, kv_heads, hd = config.n_heads, config.n_kv_heads, config.head_dim
    d = config.d_model
    q_proj = 2 * n_new * d * (heads * hd)
    kv_proj = 2 * 2 * n_new * d * (kv_heads * hd)  # K and V
    scores = 2 * heads * n_new * n_total * hd  # per query head: Q @ K_group^T
    context = 2 * heads * n_new * n_total * hd  # softmax(scores) @ V_group
    out = 2 * n_new * (heads * hd) * d
    return q_proj + kv_proj + scores + context + out


def mlp_flops(config: ModelConfig, n_new: int) -> int:
    """One layer's MLP cost; SwiGLU has three matrices, GELU has two."""
    matrices = 3 if config.mlp == "swiglu" else 2
    return matrices * 2 * n_new * config.d_model * config.d_ff


def layer_flops(config: ModelConfig, n_new: int, n_total: int) -> int:
    return attention_flops(config, n_new, n_total) + mlp_flops(config, n_new)


def prefill_flops(config: ModelConfig, n: int) -> int:
    """Full-model prefill of an ``n``-token prompt (the KV-cache baseline's
    TTFT compute). The LM head is counted for the final token only, as in
    inference engines that skip logits for non-final prompt positions."""
    return (
        config.n_layers * layer_flops(config, n, n)
        + lm_head_flops(config)
    )


def cached_prefill_flops(config: ModelConfig, n_uncached: int, n_total: int) -> int:
    """Prompt Cache's TTFT compute: only ``n_uncached`` suffix/argument
    tokens are computed, attending to the full ``n_total`` context of
    spliced-in module states (paper §3.4)."""
    return (
        config.n_layers * layer_flops(config, n_uncached, n_total)
        + lm_head_flops(config)
    )


def decode_step_flops(config: ModelConfig, context_len: int) -> int:
    """One generated token attending to ``context_len`` cached tokens."""
    return config.n_layers * layer_flops(config, 1, context_len) + lm_head_flops(config)


def lm_head_flops(config: ModelConfig) -> int:
    return 2 * config.d_model * config.vocab_size


# -- bytes --------------------------------------------------------------------


def kv_bytes(config: ModelConfig, n_tokens: int, bytes_per_element: int = 2) -> int:
    """Bytes of cached K/V for ``n_tokens`` across all layers (Table 2)."""
    return n_tokens * config.kv_bytes_per_token(bytes_per_element)


def weight_bytes(config: ModelConfig, bytes_per_element: int = 2) -> int:
    """Total parameter bytes — the floor of memory traffic per forward pass
    (every weight is read at least once), which dominates decode latency."""
    d, ff, kv = config.d_model, config.d_ff, config.kv_dim
    per_layer = (
        d * (d + 2 * kv)  # q, k, v projections
        + d * d  # output projection
        + (3 if config.mlp == "swiglu" else 2) * d * ff
        + 2 * d  # norms (approximate: weight + bias)
    )
    embeddings = config.vocab_size * d
    if config.positional == "learned":
        embeddings += config.max_position * d
    return (config.n_layers * per_layer + embeddings + d) * bytes_per_element


def prefill_activation_bytes(
    config: ModelConfig,
    n_new: int,
    bytes_per_element: int = 2,
    n_total: int | None = None,
    attention_passes: float = 2.0,
) -> int:
    """Activation traffic for prefilling ``n_new`` tokens over ``n_total``
    context: residual stream reads/writes plus the attention score matrix,
    which crosses memory ``attention_passes`` times per layer (mask, bias,
    softmax) — the dominant term for unfused kernels."""
    if n_total is None:
        n_total = n_new
    d = config.d_model
    residual = 4 * n_new * d
    scores = attention_passes * config.n_heads * n_new * n_total
    return int(config.n_layers * (residual + scores) * bytes_per_element)
