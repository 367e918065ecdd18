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

There is one prefill pass, ``forward``, and it is *packed*: given a
sequence of ``(cache, rows)`` it runs the chunks of several sequences as
one (sum_rows, d_model) hidden state, attention per sequence — what the
serving scheduler runs. Given one cache it is that pass over the single
segment ``[(cache, len(ids))]``, a pack of one, and that call is the bit
reference behind ``serve``, ``generate``, ``check`` and module encoding
(there is no batch axis: Prompt Cache is a prefill-stage transformation
and all paper results are per-request TTFT).

Every layer appends every row's K/V. The **last** layer then runs
attention, the output projection, the MLP, the final norm and the LM
head only on the rows whose logits are returned: none with
``logits=False`` (every module encode, a chunk that does not complete
its prompt), the last row of each segment for a packed call, every row
only for the single-cache call. K/V bytes do not depend on which. GEMMs
at M = sum_rows round differently from M = rows, so a pack of several
agrees with packs of one on greedy tokens and to float32 tolerance, not
in the last ulp — the promise the batched decode step
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
)
from repro.llm.config import ModelConfig
from repro.llm.kv import KVCache
from repro.llm.layers import embed, gelu, layer_norm, linear_rows, rms_norm, silu
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
        ``cache``. Returns logits of shape (T, vocab), or ``None`` with
        ``logits=False``.

        ``cache`` may already hold states — from an earlier chunk of this
        prompt, previous decode steps, or Prompt Cache module splicing; the
        new tokens attend to everything whose position precedes theirs.

        ``trace``, when a list, collects per-layer post-softmax attention
        weights (see :mod:`repro.llm.introspect`).

        Given a sequence of ``(cache, rows)`` pairs in place of ``cache``
        the ids are several sequences' chunks laid end to end, and the
        result is the last row's logits per sequence, (len(segments),
        vocab) — so a caller that reads only a chunk's last row passes
        ``[(cache, len(token_ids))]``. Either way the call is
        :meth:`_forward_packed`; the single-cache one is a pack of one
        that returns every row.
        """
        token_ids = np.asarray(token_ids)
        position_ids = np.asarray(position_ids)
        if token_ids.shape != position_ids.shape:
            raise ValueError("token_ids and position_ids must have equal shape")
        if hasattr(cache, "layers"):
            segments, returned = [(cache, len(token_ids))], None
        else:
            segments, returned = cache, 1
        return self._forward_packed(
            token_ids, position_ids, segments, returned if logits else 0, trace
        )

    def _forward_packed(
        self,
        token_ids: np.ndarray,
        position_ids: np.ndarray,
        segments,
        returned: int | None,
        trace: list | None = None,
    ) -> np.ndarray | None:
        """Prefill chunks of several sequences in one pass.

        ``segments`` is ``(cache, rows)`` per sequence, in the order their
        chunks are laid end to end in ``token_ids`` / ``position_ids``
        (sum_rows,). The hidden state is (sum_rows, d_model), so whatever
        is not attention costs what one sequence's does — per layer one
        norm, one fused qkv GEMM, one RoPE lookup, one output GEMM, one
        fused gate/up and one down GEMM, however ragged the pack — while
        K/V is appended per sequence to *its* cache and each sequence
        attends over its own base + tail under the position-ID mask, in
        row tiles that score only the keys their rows can see
        (:func:`~repro.llm.attention.packed_prefill_attention`).

        ``returned`` is how many of each segment's last rows the logits
        cover — ``None`` for all of them. Those rows are all the last
        layer carries past its K/V append: with ``0`` it stops there and
        the call returns ``None``; otherwise the logits, rows contiguous,
        in pack order.

        Streams forked from one spliced base each read it through their
        own cache; folding their queries into one score GEMM over the
        shared base was measured and left out (see CHANGES.md).
        """
        plan = plan_packed_prefill(segments, position_ids, self.alibi)
        hidden, rotary = self._embed_rows(token_ids, position_ids)
        attend = partial(packed_prefill_attention, plan, trace=trace)
        last = self.config.n_layers - 1
        for i in range(last):
            hidden = self._layer_rows(i, hidden, rotary, attend)
        keep = None
        if returned is not None:
            keep = [
                row for seg in plan
                for row in range(max(seg.start, seg.stop - returned), seg.stop)
            ]
        hidden = self._layer_rows(
            last, hidden, rotary, partial(attend, queries=returned), keep
        )
        if not len(hidden):
            return None
        # Weight-tied LM head, C order so each row is a contiguous vector.
        return np.ascontiguousarray(
            linear_rows(self._norm(hidden, "final_norm"), self._p("embed.weight"))
        )

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

    def _layer_rows(
        self, i: int, hidden: np.ndarray, rotary, attend, keep=None
    ) -> np.ndarray:
        """Layer ``i`` over (rows, d_model) hidden state whose rows may
        belong to different sequences: one norm, one fused qkv GEMM, one
        rotation, ``attend(i, q, k, v)`` — which owns whatever is per
        sequence: the K/V append and the attention itself, on (rows,
        heads, head_dim) operands — one output GEMM and the fused MLP.
        Weight-first GEMMs (:func:`~repro.llm.layers.linear_rows`).

        ``keep``, when given, lists the rows whose output is wanted:
        every row's K/V is still appended, but ``attend`` gets those
        rows' queries only and the output GEMM and the MLP run on those
        rows alone; the result is (len(keep), d_model)."""
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
        if keep is not None:
            hidden, normed, q = hidden[keep], normed[keep], q[keep]
        context = attend(i, q, k, v)
        if not len(hidden):
            return hidden
        attn_out = linear_rows(
            context, self._p(f"layers.{i}.attn.wo"), self._maybe(f"layers.{i}.attn.bo")
        )
        if cfg.parallel_block:
            return hidden + attn_out + self._mlp(normed, i, gate_up)
        hidden = hidden + attn_out
        return hidden + self._mlp(self._norm(hidden, f"layers.{i}.mlp_norm"), i, gate_up)

    def _mlp(self, x: np.ndarray, i: int, gate_up: np.ndarray | None) -> np.ndarray:
        """Layer ``i``'s MLP on (rows, d_model) with weight-first GEMMs:
        SwiGLU ``down(silu(gate(x)) * up(x))`` with gate and up as one
        product, or ``down(gelu(up(x)))`` with optional biases."""
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
