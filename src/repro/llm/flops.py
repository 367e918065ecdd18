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


# -- two-phase (ChunkAttention) decode accounting ------------------------------
#
# Decode attention on real hardware is memory-bandwidth bound: the cost
# that matters is KV tokens *streamed from memory*, not multiply-adds
# (each sequence's query is distinct, so the MAC count of the score and
# context products is the same with or without sharing). These helpers
# price the bandwidth-equivalent "effective FLOPs" of a batched decode
# step — the score + context work attached to each KV token the kernel
# actually streams. The two-phase path streams a shared chunk once per
# *group* instead of once per *sequence*, which is exactly the quantity
# ChunkAttention (arxiv 2402.15220) optimizes and what the scheduler's
# decode_flops_saved_total reports (pinned in tests/test_flops.py).


def decode_attention_stream_flops(
    config: ModelConfig, kv_tokens: int, queries: int = 1
) -> int:
    """Effective attention cost of streaming ``kv_tokens`` cached keys
    and values for ``queries`` single-token decoders: one score dot and
    one context accumulation per query head per token."""
    per_token = 2 * config.n_heads * config.head_dim  # Q . K per query head
    per_token += 2 * config.n_heads * config.head_dim  # weights @ V
    return per_token * kv_tokens * queries


def two_phase_merge_flops(config: ModelConfig, queries: int = 1) -> int:
    """Online-softmax merge overhead per merged sequence: rescaling the
    exp-sums and the two partial context vectors (a few elementwise
    passes over ``head_dim`` per head — noise next to the streams, but
    counted so savings never read as free)."""
    return 8 * config.n_heads * config.head_dim * queries


def shared_decode_attention_flops(
    config: ModelConfig, shared_len: int, private_lens: list[int]
) -> int:
    """Effective attention cost of one two-phase batched decode step for
    a group of ``len(private_lens)`` sequences sharing ``shared_len`` KV
    tokens: the shared chunk is streamed once for the whole group, each
    private suffix once per owner, plus the per-sequence merge."""
    group = len(private_lens)
    shared = decode_attention_stream_flops(config, shared_len)
    private = sum(
        decode_attention_stream_flops(config, n) for n in private_lens
    )
    return shared + private + group * two_phase_merge_flops(config)


def single_pass_decode_attention_flops(
    config: ModelConfig, shared_len: int, private_lens: list[int]
) -> int:
    """The same step without sharing: every sequence streams the full
    ``shared_len + private`` context itself."""
    return sum(
        decode_attention_stream_flops(config, shared_len + n)
        for n in private_lens
    )


def shared_decode_flops_saved(
    config: ModelConfig, shared_len: int, group_size: int
) -> int:
    """Effective attention FLOPs one two-phase group saves per decode
    step versus the single-pass path, net of merge overhead — the
    ``decode_flops_saved_total`` gauge's per-iteration increment.
    Private-suffix streams cancel between the two paths, so only the
    shared chunk's duplication factor and the merge enter."""
    saved = (group_size - 1) * decode_attention_stream_flops(config, shared_len)
    saved -= group_size * two_phase_merge_flops(config)
    return max(saved, 0)


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
