"""Decoder-only transformer models over NumPy parameters.

One generic :class:`TransformerModel` covers the paper's three evaluated
architecture families (plus GPT-2-style learned positions), differing only
in the knobs carried by :class:`~repro.llm.config.ModelConfig`:

============  ========  ===========  =========  ==============
family        norm      positional   MLP        block layout
============  ========  ===========  =========  ==============
llama         RMSNorm   RoPE         SwiGLU     sequential
falcon        LayerNorm RoPE         GELU       parallel
mpt           LayerNorm ALiBi        GELU       sequential
gpt2          LayerNorm learned      GELU       sequential
============  ========  ===========  =========  ==============

There are two prefill entry points, both ``forward``. Given one cache it
is the single-sequence pass (no batch axis: Prompt Cache is a
prefill-stage transformation and all paper results are per-request
TTFT) — the bit reference behind ``serve``, ``generate`` and module
encoding. Given a sequence of ``(cache, rows)`` it is the *packed*
prefill the serving scheduler runs: the chunks of several sequences as
one (sum_rows, d_model) hidden state, attention per sequence. The packed
pass multiplies weight-first at M = sum_rows, which rounds differently
from M = rows, so the two agree on greedy tokens and to float32
tolerance, not in the last ulp — the promise the batched decode step
(``forward_decode_batch``) makes as well.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.llm.attention import (
    decode_step_attention,
    packed_prefill_attention,
    plan_decode_step,
    plan_packed_prefill,
    self_attention,
)
from repro.llm.config import ModelConfig
from repro.llm.kv import KVCache
from repro.llm.layers import (
    embed,
    gelu,
    gelu_mlp,
    layer_norm,
    linear_rows,
    rms_norm,
    silu,
    swiglu_mlp,
)
from repro.llm.positional import (
    AlibiBias,
    LearnedPositionalEmbedding,
    RotaryEmbedding,
)
from repro.llm.positional.rope import rotate


def _fuse(params: dict[str, np.ndarray], names: list[str]) -> np.ndarray | None:
    """Stack ``params[name]`` row-wise into one array and re-point each
    entry at its slice of it, so the stack *is* the storage — the fused
    matrix a batched step multiplies by and the per-matrix views every
    other path reads cost one copy of the weights between them. ``None``
    when the entries are absent (bias-free families)."""
    if names[0] not in params:
        return None
    fused = np.concatenate([params[name] for name in names])
    offset = 0
    for name in names:
        rows = len(params[name])
        params[name] = fused[offset : offset + rows]
        offset += rows
    return fused


class TransformerModel:
    """A config + parameter dict, exposing a KV-cache forward pass.

    Construction fuses each layer's q/k/v (and SwiGLU gate/up) matrices
    into one array and replaces the ``params`` entries, in place, with
    views of it: names, shapes and values are unchanged — ``forward``,
    persistence and training read them as before — and the batched
    decode step gets its one-GEMM projections without a second copy.
    """

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]) -> None:
        self.config = config
        self.params = params
        # Per layer: (wqkv, bqkv | None, gate_up | None).
        self._fused = []
        for i in range(config.n_layers):
            attn = f"layers.{i}.attn"
            self._fused.append((
                _fuse(params, [f"{attn}.wq", f"{attn}.wk", f"{attn}.wv"]),
                _fuse(params, [f"{attn}.bq", f"{attn}.bk", f"{attn}.bv"]),
                _fuse(params, [f"layers.{i}.mlp.gate", f"layers.{i}.mlp.up"])
                if config.mlp == "swiglu" else None,
            ))
        self.rope = (
            RotaryEmbedding(config.head_dim, config.max_position, config.rope_theta)
            if config.positional == "rope"
            else None
        )
        self.alibi = (
            AlibiBias(config.n_heads, config.max_position)
            if config.positional == "alibi"
            else None
        )
        self.learned_pos = (
            LearnedPositionalEmbedding(params["pos.weight"])
            if config.positional == "learned"
            else None
        )

    # -- parameter access ----------------------------------------------------

    def _p(self, name: str) -> np.ndarray:
        return self.params[name]

    def _maybe(self, name: str) -> np.ndarray | None:
        return self.params.get(name)

    def _norm(self, x: np.ndarray, prefix: str) -> np.ndarray:
        if self.config.norm == "rmsnorm":
            return rms_norm(x, self._p(f"{prefix}.weight"))
        return layer_norm(x, self._p(f"{prefix}.weight"), self._p(f"{prefix}.bias"))

    def _mlp(self, x: np.ndarray, i: int) -> np.ndarray:
        if self.config.mlp == "swiglu":
            return swiglu_mlp(
                x,
                self._p(f"layers.{i}.mlp.gate"),
                self._p(f"layers.{i}.mlp.up"),
                self._p(f"layers.{i}.mlp.down"),
            )
        return gelu_mlp(
            x,
            self._p(f"layers.{i}.mlp.up"),
            self._maybe(f"layers.{i}.mlp.up_bias"),
            self._p(f"layers.{i}.mlp.down"),
            self._maybe(f"layers.{i}.mlp.down_bias"),
        )

    def _attention(
        self,
        x: np.ndarray,
        i: int,
        position_ids: np.ndarray,
        cache: KVCache,
        trace: list | None = None,
    ) -> np.ndarray:
        cfg = self.config
        return self_attention(
            x,
            wq=self._p(f"layers.{i}.attn.wq"),
            wk=self._p(f"layers.{i}.attn.wk"),
            wv=self._p(f"layers.{i}.attn.wv"),
            wo=self._p(f"layers.{i}.attn.wo"),
            bq=self._maybe(f"layers.{i}.attn.bq"),
            bk=self._maybe(f"layers.{i}.attn.bk"),
            bv=self._maybe(f"layers.{i}.attn.bv"),
            bo=self._maybe(f"layers.{i}.attn.bo"),
            n_heads=cfg.n_heads,
            n_kv_heads=cfg.n_kv_heads,
            position_ids=position_ids,
            layer_kv=cache.layers[i],
            rope=self.rope,
            alibi=self.alibi,
            trace=trace,
        )

    # -- forward ---------------------------------------------------------------

    def forward(
        self,
        token_ids: np.ndarray,
        position_ids: np.ndarray,
        cache: KVCache,
        trace: list | None = None,
        *,
        logits: bool = True,
    ) -> np.ndarray:
        """Run ``token_ids`` (T,) at ``position_ids`` (T,), appending K/V to
        ``cache``. Returns logits of shape (T, vocab).

        ``cache`` may already hold states — from an earlier chunk of this
        prompt, previous decode steps, or Prompt Cache module splicing; the
        new tokens attend to everything whose position precedes theirs.

        ``trace``, when a list, collects per-layer post-softmax attention
        weights (see :mod:`repro.llm.introspect`).

        This single-sequence pass is the bit reference. Given a sequence
        of ``(cache, rows)`` pairs in place of ``cache`` the call is the
        *packed* prefill instead (:meth:`_forward_packed`): the ids are
        several sequences' chunks laid end to end, and the result is the
        last row's logits per sequence — or, with ``logits=False`` (which
        only the packed call reads), nothing.
        """
        token_ids = np.asarray(token_ids)
        position_ids = np.asarray(position_ids)
        if token_ids.shape != position_ids.shape:
            raise ValueError("token_ids and position_ids must have equal shape")
        if not hasattr(cache, "layers"):
            return self._forward_packed(token_ids, position_ids, cache, logits)

        hidden = embed(token_ids, self._p("embed.weight"))
        if self.learned_pos is not None:
            hidden = self.learned_pos.apply(hidden, position_ids)

        for i in range(self.config.n_layers):
            normed = self._norm(hidden, f"layers.{i}.attn_norm")
            attn_out = self._attention(normed, i, position_ids, cache, trace)
            if self.config.parallel_block:
                # Falcon layout: attention and MLP both read the same
                # normalized input and are summed into the residual.
                hidden = hidden + attn_out + self._mlp(normed, i)
            else:
                hidden = hidden + attn_out
                hidden = hidden + self._mlp(
                    self._norm(hidden, f"layers.{i}.mlp_norm"), i
                )

        hidden = self._norm(hidden, "final_norm")
        # Weight-tied LM head: logits share the embedding matrix.
        return hidden @ self._p("embed.weight").T

    def _forward_packed(
        self,
        token_ids: np.ndarray,
        position_ids: np.ndarray,
        segments,
        logits: bool,
    ) -> np.ndarray | None:
        """Prefill chunks of several sequences in one pass.

        ``segments`` is ``(cache, rows)`` per sequence, in the order their
        chunks are laid end to end in ``token_ids`` / ``position_ids``
        (sum_rows,). The hidden state is (sum_rows, d_model), so whatever
        is not attention costs what one sequence's does — per layer one
        norm, one fused qkv GEMM, one RoPE lookup, one output GEMM, one
        fused gate/up and one down GEMM, however ragged the pack — while
        K/V is appended per sequence to *its* cache and each sequence
        attends over its own base + tail under the position-ID mask
        (:func:`~repro.llm.attention.packed_prefill_attention`). Final
        norm and LM head run on the last row of each sequence only:
        returns (len(segments), vocab), rows contiguous, or ``None``
        without ``logits``.

        Streams forked from one spliced base each read it through their
        own cache; folding their queries into one score GEMM over the
        shared image was measured and left out (see CHANGES.md, ISSUE 22).
        GEMMs at M = sum_rows round differently from M = rows, so against
        per-sequence :meth:`forward` calls this pins greedy tokens, not
        bits — the batched decode step's promise.
        """
        plan = plan_packed_prefill(segments, position_ids, self.alibi)
        hidden, rotary = self._embed_rows(token_ids, position_ids)
        attend = partial(packed_prefill_attention, plan)
        for i in range(self.config.n_layers):
            hidden = self._layer_rows(i, hidden, rotary, attend)
        if not logits:
            return None
        last = self._norm(hidden[[seg.stop - 1 for seg in plan]], "final_norm")
        # Weight-tied LM head, C order so each row is a contiguous vector.
        return np.ascontiguousarray(linear_rows(last, self._p("embed.weight")))

    def forward_decode_batch(
        self,
        token_ids: np.ndarray,
        position_ids: np.ndarray,
        caches: list[KVCache],
        shared_groups: list[tuple[list[int], int]] | None = None,
    ) -> np.ndarray:
        """One decode step for B independent sequences at once.

        ``token_ids``/``position_ids`` are (B,) — one freshly sampled
        token per sequence — and ``caches`` the B per-sequence KV caches
        (plain or paged), each of which grows by that token. Returns
        logits of shape (B, vocab).

        There is one step (:func:`~repro.llm.attention.plan_decode_step`,
        planned once): hidden state (B, d_model), and per layer one fused
        qkv GEMM, stacked RoPE, the attention, one output GEMM, one fused
        gate/up GEMM and one down GEMM — then one LM-head GEMM. Only the
        attention (:func:`~repro.llm.attention.decode_step_attention`)
        depends on where a row's KV lives. Rows seated in a
        :class:`~repro.llm.paged.TailArena` share one write of the new
        K/V rows, one GEMM per base, one GEMM over the arena tails and
        one softmax per row over both. Every other row — raw text with no
        base, a param below a later module, a group too small to seat —
        appends to its own cache and attends over it. GEMMs at M = B
        round differently from B GEMVs and the arena kernel reassociates
        sums, so against sequential :meth:`forward` calls the step pins
        greedy tokens, not bits.

        ``shared_groups`` names, as ``(members, shared_len)``, cache
        indices forked from one spliced base whose first ``shared_len``
        tokens are a common KV prefix; seated members of an entry share
        one GEMM over the base per layer instead of one each.
        """
        n = len(caches)
        cfg = self.config
        step = plan_decode_step(
            caches, np.asarray(position_ids).reshape(n), shared_groups,
            n_heads=cfg.n_heads, n_kv_heads=cfg.n_kv_heads, alibi=self.alibi,
        )
        hidden, rotary = self._embed_rows(
            np.asarray(token_ids).reshape(n)[step.order], step.positions
        )
        attend = partial(decode_step_attention, step)
        for i in range(cfg.n_layers):
            hidden = self._layer_rows(i, hidden, rotary, attend)

        # Weight-tied LM head: logits share the embedding matrix. Back to
        # batch order, and to C order so each row is a contiguous vector.
        logits = np.empty((n, cfg.vocab_size), dtype=hidden.dtype)
        logits[step.order] = linear_rows(
            self._norm(hidden, "final_norm"), self._p("embed.weight")
        )
        return logits

    def _embed_rows(self, token_ids: np.ndarray, position_ids: np.ndarray):
        """Hidden state (rows, d_model) for one token per row — rows of
        any mix of sequences — and the RoPE ``(cos, sin)`` table rows,
        looked up once for every layer (``None`` without RoPE)."""
        hidden = embed(token_ids, self._p("embed.weight"))
        if self.learned_pos is not None:
            hidden = self.learned_pos.apply(hidden, position_ids)
        rotary = None
        if self.rope is not None:
            rotary = tuple(t[:, None, :] for t in self.rope.rows(position_ids))
        return hidden, rotary

    def _layer_rows(self, i: int, hidden: np.ndarray, rotary, attend) -> np.ndarray:
        """Layer ``i`` over (rows, d_model) hidden state whose rows may
        belong to different sequences: one norm, one fused qkv GEMM, one
        rotation, ``attend(i, q, k, v)`` — which owns whatever is per
        sequence: the K/V append and the attention itself, on (rows,
        heads, head_dim) operands — one output GEMM and the fused MLP.
        Weight-first GEMMs (:func:`~repro.llm.layers.linear_rows`)."""
        cfg = self.config
        rows, d, kv_dim = len(hidden), cfg.d_model, cfg.kv_dim
        wqkv, bqkv, gate_up = self._fused[i]
        normed = self._norm(hidden, f"layers.{i}.attn_norm")
        qkv = linear_rows(normed, wqkv, bqkv)
        q = qkv[:, :d].reshape(rows, cfg.n_heads, -1)
        k = qkv[:, d : d + kv_dim].reshape(rows, cfg.n_kv_heads, -1)
        v = qkv[:, d + kv_dim :].reshape(rows, cfg.n_kv_heads, -1)
        if rotary is not None:
            q = rotate(q, *rotary)
            k = rotate(k, *rotary)
        attn_out = linear_rows(
            attend(i, q, k, v), self._p(f"layers.{i}.attn.wo"),
            self._maybe(f"layers.{i}.attn.bo"),
        )
        if cfg.parallel_block:
            return hidden + attn_out + self._mlp_rows(normed, i, gate_up)
        hidden = hidden + attn_out
        return hidden + self._mlp_rows(
            self._norm(hidden, f"layers.{i}.mlp_norm"), i, gate_up
        )

    def _mlp_rows(self, x: np.ndarray, i: int, gate_up: np.ndarray | None) -> np.ndarray:
        """:meth:`_mlp` on (B, d_model) rows with weight-first GEMMs and,
        for SwiGLU, gate and up as one product."""
        if gate_up is not None:
            both = linear_rows(x, gate_up)
            half = both.shape[1] // 2
            return linear_rows(
                silu(both[:, :half]) * both[:, half:], self._p(f"layers.{i}.mlp.down")
            )
        up = linear_rows(
            x, self._p(f"layers.{i}.mlp.up"), self._maybe(f"layers.{i}.mlp.up_bias")
        )
        return linear_rows(
            gelu(up), self._p(f"layers.{i}.mlp.down"),
            self._maybe(f"layers.{i}.mlp.down_bias"),
        )

    def check_positions(self, position_ids: np.ndarray) -> None:
        """Raise the ``ValueError`` a forward at ``position_ids`` would:
        an ID outside the RoPE or learned-position table (ALiBi has no
        table to run off). Lets a caller vet one sequence's chunk before
        packing it with others'."""
        table = self.rope or self.learned_pos
        if table is not None:
            table.check(position_ids)

    def new_cache(self, capacity: int = 64) -> KVCache:
        return KVCache.empty(self.config, capacity=capacity)


def build_model(config: ModelConfig, seed: int = 0) -> TransformerModel:
    """Construct a model with deterministic seeded initialization."""
    from repro.llm.weights import init_params

    return TransformerModel(config, init_params(config, seed=seed))
