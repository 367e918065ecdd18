"""Causal self-attention with explicit position IDs and KV-cache reuse.

The causal mask is derived from position IDs, not array indices:
``query may attend to key  iff  key_position <= query_position``.
With contiguous IDs this is the ordinary lower-triangular mask; with
Prompt Cache's gapped IDs it is exactly the semantics the paper relies on —
a module encoded alone attends only within itself (the paper's implicit
per-module mask, §3.3), and uncached suffix tokens attend to every cached
module that the schema placed before them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.llm.layers import DTYPE, softmax
from repro.llm.positional.alibi import AlibiBias

_NEG_INF = np.float32(-1e9)


def merge_heads(x: np.ndarray) -> np.ndarray:
    """(n_heads, T, head_dim) -> (T, n_heads * head_dim)."""
    heads, t, head_dim = x.shape
    return x.transpose(1, 0, 2).reshape(t, heads * head_dim)


def repeat_kv(x: np.ndarray, n_rep: int) -> np.ndarray:
    """Expand KV heads for grouped-query attention (no copy when n_rep==1)."""
    if n_rep == 1:
        return x
    return np.repeat(x, n_rep, axis=0)


def causal_position_mask(
    q_positions: np.ndarray, k_positions: np.ndarray
) -> np.ndarray:
    """Boolean (Tq, Tk) mask, True where attention is allowed."""
    return np.asarray(k_positions)[None, :] <= np.asarray(q_positions)[:, None]


def grouped_scores(q: np.ndarray, k: np.ndarray, n_rep: int) -> np.ndarray:
    """Scaled scores (n_heads, Tq, Tk) without expanding KV heads.

    For GQA (``n_rep > 1``) the query heads are folded into
    ``(n_kv_heads, n_rep, Tq, head_dim)`` and matmul broadcasts the
    un-expanded keys across the group axis. Each 2-D GEMM slice is the
    same ``q_h @ k_g.T`` product the :func:`repeat_kv` path computes, so
    the result is bit-identical — minus the ``n_rep×`` key/value copy.
    """
    head_dim = q.shape[-1]
    scale = np.sqrt(np.float32(head_dim))
    if n_rep == 1:
        scores = q @ k.transpose(0, 2, 1)
        scores /= scale
        return scores
    n_heads, tq, _ = q.shape
    n_kv = k.shape[0]
    folded = q.reshape(n_kv, n_rep, tq, head_dim)
    scores = folded @ k[:, None, :, :].transpose(0, 1, 3, 2)
    scores /= scale
    return scores.reshape(n_heads, tq, -1)


def grouped_context(weights: np.ndarray, v: np.ndarray, n_rep: int) -> np.ndarray:
    """``weights @ values`` (n_heads, Tq, head_dim) without expanding values."""
    if n_rep == 1:
        return weights @ v
    n_heads, tq, tk = weights.shape
    n_kv = v.shape[0]
    context = weights.reshape(n_kv, n_rep, tq, tk) @ v[:, None, :, :]
    return context.reshape(n_heads, tq, -1)


def part_scores(q: np.ndarray, parts, n_rep: int) -> np.ndarray:
    """Scaled scores (n_heads, Tq, keys) of ``q`` against keys held as
    consecutive ``parts`` — ``(keys, values)`` pairs, a spliced base's
    modules read in place, then a private tail. Each part's GEMM writes
    its own columns of one buffer, so no key is copied; one part is
    :func:`grouped_scores` itself."""
    if len(parts) == 1:
        return grouped_scores(q, parts[0][0], n_rep)
    n_heads, tq, head_dim = q.shape
    total = 0
    for k, _ in parts:
        total += k.shape[1]
    scores = np.empty((n_heads, tq, total), dtype=q.dtype)
    grid = scores.reshape(-1, n_rep, tq, total)
    folded = q.reshape(grid.shape[:3] + (head_dim,))
    start = 0
    for k, _ in parts:
        stop = start + k.shape[1]
        np.matmul(folded, k[:, None].swapaxes(-2, -1), out=grid[..., start:stop])
        start = stop
    scores /= np.sqrt(np.float32(head_dim))
    return scores


def part_context(weights: np.ndarray, parts, n_rep: int) -> np.ndarray:
    """``weights @ values`` (n_heads, Tq, head_dim) over keys held as
    consecutive ``parts``: one product per part over its columns of
    ``weights``, summed in part order."""
    context = None
    start = 0
    for _, v in parts:
        stop = start + v.shape[1]
        piece = grouped_context(weights[..., start:stop], v, n_rep)
        start = stop
        if context is None:
            context = piece
        else:
            context += piece
    return context


def _decode_context(
    qb: np.ndarray,
    layer_kv,
    pos: np.ndarray,
    n_rep: int,
    alibi: AlibiBias | None,
) -> np.ndarray:
    """One sequence's single-pass decode attention over its own cache:
    ``qb`` (n_heads, 1, head_dim) at position ``pos`` (1,) against every
    key in ``layer_kv`` — its base's parts and its tail, this step's key
    included. What a row of the batched decode step gets when it is not
    seated in the tail arena; the mask is skipped when the query sits at
    or after every key, where it would be an elementwise identity.
    Returns (1, n_heads * head_dim)."""
    parts = layer_kv.parts
    scores = part_scores(qb, parts, n_rep)
    # The cache's O(1) max_position says whether the query sits at or
    # after every key; only then is the key positions array not read.
    masked = layer_kv.max_position > pos[0]
    if alibi is not None or masked:
        k_positions = layer_kv.positions
        if alibi is not None:
            scores = scores + alibi.bias(pos, k_positions)
        if masked:
            allowed = causal_position_mask(pos, k_positions)
            scores = np.where(allowed[None, :, :], scores, _NEG_INF)
    if scores.dtype != DTYPE:
        scores = scores.astype(DTYPE)
    weights = softmax(scores)
    return merge_heads(part_context(weights, parts, n_rep))


# -- shared-prefix decode attention (ChunkAttention, arxiv 2402.15220) ---------
#
# When many in-flight sequences decode over the *same* spliced module KV,
# their scores against that prefix are computed once per physical copy
# instead of once per sequence: every member's query (and its GQA
# repeats) is folded into one GEMM per part of the base, read in place;
# one stacked GEMM covers every private tail in the arena. The two score
# blocks of a row are then one softmax — a shared max, one sum, one
# divide — so there are no partial statistics to rescale and merge. The
# sums are reassociated against a single pass over the concatenated keys,
# so activations agree with it to a few ulps rather than bit-for-bit;
# greedy decode outputs are byte-identical, which is what the serving
# tests pin.


@dataclass
class DecodeStep:
    """Everything per-sequence about one batched decode step, worked out
    once — not once per layer — by :func:`plan_decode_step`.

    The step runs in *step order*: ``order[r]`` is the batch index of row
    ``r`` and ``positions[r]`` its position ID; the first ``resident``
    rows are sequences seated in a :class:`~repro.llm.paged.TailArena`,
    laid out group by group, the rest are ``unseated`` — ``(row,
    cache.layers, position as (1,))`` each — and attend over their own
    caches. The fields from ``arena`` on describe the resident rows and
    stay unset in a step that has none. Each ``groups`` entry ``(start,
    stop, base, bias)`` is a run of resident rows sharing one
    :class:`~repro.llm.paged.SplicedKV` (``base.parts[layer]``, read when
    the layer runs) and their ALiBi bias over it,
    already folded to the base scores' ``(n_kv_heads, members * n_rep,
    shared_len)`` layout (``None`` without ALiBi).
    """

    order: list[int]
    positions: np.ndarray
    resident: int
    unseated: list[tuple[int, list, np.ndarray]]
    n_rep: int
    alibi: AlibiBias | None
    arena: object = None  # repro.llm.paged.TailArena
    slots: np.ndarray | None = None  # (resident,) arena row of each resident step row
    write_at: np.ndarray | None = None  # (resident,) tail length before this step's token
    rows: int = 0  # arena rows the tail GEMM spans: highest live slot + 1
    longest: int = 0  # longest tail after this step's token
    # Additive (rows, n_kv_heads | 1, n_rep | 1, longest) bias over the arena
    # block: the mask floor past each row's length, ALiBi where in use.
    tail_bias: np.ndarray | None = None
    groups: list[tuple[int, int, list, np.ndarray | None]] = field(default_factory=list)


def plan_decode_step(
    caches: list,
    position_ids: np.ndarray,
    shared_groups: list[tuple[list[int], int]] | None,
    *,
    n_heads: int,
    n_kv_heads: int,
    alibi: AlibiBias | None = None,
) -> DecodeStep:
    """Plan one batched decode step: who attends where.

    Residency decides a row's attention: a cache with a ``tail`` takes
    the arena kernel, any other attends over itself — whatever
    ``shared_groups`` says; a step may hold any mix of the two, all of
    one or none (``resident == 0``). ``shared_groups`` decides only which
    residents share one GEMM over their base: seated members of one
    ``(members, shared_len)`` entry (whose base is indeed ``shared_len``
    long) become one group reading the first such member's base; a
    resident nobody listed is a group of one. Each resident's tail grows
    by this step's token here: position recorded, length bumped, arena
    capacity reserved.
    """
    tails = [cache.tail for cache in caches]
    batch = len(caches)
    order: list[int] = []
    bounds: list[tuple[int, int]] = []
    taken: set[int] = set()
    for members, shared_len in shared_groups or ():
        start = len(order)
        for b in members:
            if (
                0 <= b < batch
                and b not in taken
                and tails[b] is not None
                and tails[b].shared_len == shared_len
            ):
                order.append(b)
                taken.add(b)
        if len(order) > start:
            bounds.append((start, len(order)))
    for b, tail in enumerate(tails):
        if tail is not None and b not in taken:
            bounds.append((len(order), len(order) + 1))
            order.append(b)
    resident = len(order)
    order.extend(b for b in range(batch) if tails[b] is None)
    n_rep = n_heads // n_kv_heads
    position_ids = position_ids[order]
    unseated = [
        (row, caches[order[row]].layers, position_ids[row : row + 1])
        for row in range(resident, batch)
    ]
    if not resident:
        return DecodeStep(order, position_ids, 0, unseated, n_rep, alibi)

    arena = tails[order[0]].arena
    positions = position_ids[:resident]
    slots = np.fromiter(
        (tails[b].slot for b in order[:resident]), dtype=np.intp, count=resident
    )
    write_at = arena.lengths[slots]
    longest = int(write_at.max()) + 1
    arena.reserve(longest)
    arena.positions[slots, write_at] = positions
    arena.lengths[slots] = write_at + 1
    rows = int(slots.max()) + 1

    past_end = np.arange(longest) >= arena.lengths[:rows, None]  # (rows, longest)
    if alibi is None:
        tail_bias = np.where(past_end, _NEG_INF, DTYPE(0))[:, None, None, :]
    else:
        q_pos = np.zeros(rows, dtype=DTYPE)
        q_pos[slots] = positions
        distance = arena.positions[:rows, :longest].astype(DTYPE) - q_pos[:, None]
        tail_bias = np.where(
            past_end[:, None, :], _NEG_INF, alibi.slopes[:, None] * distance[:, None, :]
        ).reshape(rows, n_kv_heads, n_rep, longest)

    groups = []
    for start, stop in bounds:
        lead = tails[order[start]]
        bias = None
        if alibi is not None:
            # (n_heads, members, shared) -> (n_kv_heads, members * n_rep, shared)
            bias = (
                alibi.bias(positions[start:stop], lead.base.positions)
                .reshape(n_kv_heads, n_rep, stop - start, -1)
                .transpose(0, 2, 1, 3)
                .reshape(n_kv_heads, (stop - start) * n_rep, -1)
            )
        groups.append((start, stop, lead.base, bias))
    return DecodeStep(
        order, position_ids, resident, unseated, n_rep, alibi, arena=arena,
        slots=slots, write_at=write_at, rows=rows, longest=longest,
        tail_bias=tail_bias, groups=groups,
    )


def decode_step_attention(
    step: DecodeStep, layer: int, q: np.ndarray, k: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """One layer's attention for every row of a planned decode step.

    ``q`` is (rows, n_heads, head_dim) and ``k``/``v`` (rows, n_kv_heads,
    head_dim), rotated, in step order. The resident rows go through
    :func:`arena_decode_attention` together; each unseated row appends
    its K/V to its own cache and attends over it
    (:func:`_decode_context`). Returns the context (rows, n_heads *
    head_dim).
    """
    n = step.resident
    context = np.empty((len(q), q.shape[1] * q.shape[2]), dtype=q.dtype)
    if n:
        context[:n] = arena_decode_attention(step, layer, q[:n], k[:n], v[:n])
    # (rows, heads, 1, head_dim): an unseated row is a one-token sequence.
    q, k, v = q[:, :, None], k[:, :, None], v[:, :, None]
    for row, layers, pos in step.unseated:
        layer_kv = layers[layer]
        layer_kv.append(k[row], v[row], pos)
        context[row] = _decode_context(q[row], layer_kv, pos, step.n_rep, step.alibi)
    return context


def arena_decode_attention(
    step: DecodeStep, layer: int, q: np.ndarray, k: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """One layer's attention for the resident rows of a planned step.

    ``q`` is (resident, n_heads, head_dim) and ``k``/``v`` (resident,
    n_kv_heads, head_dim), rotated, in step order. Returns the context
    (resident, n_heads * head_dim). Each row takes one softmax over its
    keys [base | arena tail], in stacked stages with no loop over
    sequences:

    1. the new K/V rows land in the arena with one fancy-index write;
    2. one GEMM scores every tail in the arena block ``[:rows, :,
       :longest]`` under the length mask, and each row's max starts there;
    3. per group, one GEMM per part of the base read in place, its
       members (and their GQA repeats) folded into the query axis —
       ``(n_kv_heads, members * n_rep, head_dim) @ (n_kv_heads, head_dim,
       part_len)``, ``n_kv_heads`` row-major GEMMs, since every part keeps
       its keys head_dim-major — raises each member's max to the
       row's, exponentiates in place and takes the base's sum and context
       product;
    4. the tail scores are shifted by that max and exponentiated in
       place; their sum and context product join the base's, and one
       divide normalizes every row.

    Sums are reassociated against the single-pass kernel (a few ulps);
    greedy tokens are pinned equal by the serving tests.
    """
    n, n_rep = step.resident, step.n_rep
    if not n:
        raise ValueError("arena_decode_attention needs a seated row")
    arena_k, arena_v = step.arena.keys[layer], step.arena.values[layer]
    arena_k[step.slots, :, step.write_at] = k
    arena_v[step.slots, :, step.write_at] = v
    n_kv_heads, head_dim = k.shape[1:]
    scale = np.sqrt(np.float32(head_dim))
    folded = q.reshape(n, n_kv_heads, n_rep, head_dim)
    # Queries land by arena row for the tail GEMM; free rows stay zero
    # and fully masked.
    by_slot = np.zeros((step.rows, n_kv_heads, n_rep, head_dim), dtype=DTYPE)
    by_slot[step.slots] = folded
    tail = by_slot @ arena_k[: step.rows, :, : step.longest].transpose(0, 1, 3, 2)
    tail /= scale
    tail += step.tail_bias
    tail = tail[step.slots]  # (resident, n_kv_heads, n_rep, longest), step order
    # ufunc reductions: ndarray.max/.sum would add a Python frame each.
    peak = np.maximum.reduce(tail, axis=-1, keepdims=True)
    total = np.empty_like(peak)
    context = np.empty(folded.shape, dtype=DTYPE)

    for start, stop, base, bias in step.groups:
        members = stop - start
        parts = base.parts[layer]
        shared = part_scores(
            folded[start:stop].transpose(1, 0, 2, 3).reshape(
                n_kv_heads, members * n_rep, head_dim
            ),
            parts, 1,
        )
        if bias is not None:
            shared += bias
        # (n_kv_heads, members, n_rep, ·) views line up with step order's
        # (members, n_kv_heads, n_rep, ·) by one transpose.
        grid = shared.reshape(n_kv_heads, members, n_rep, -1)
        row_peak = peak[start:stop].transpose(1, 0, 2, 3)
        np.maximum(row_peak, np.maximum.reduce(grid, axis=-1, keepdims=True), out=row_peak)
        grid -= row_peak
        np.exp(shared, out=shared)
        total[start:stop] = np.add.reduce(grid, axis=-1, keepdims=True).transpose(1, 0, 2, 3)
        context[start:stop] = part_context(shared, parts, 1).reshape(
            n_kv_heads, members, n_rep, head_dim
        ).transpose(1, 0, 2, 3)

    tail -= peak
    np.exp(tail, out=tail)
    total += np.add.reduce(tail, axis=-1, keepdims=True)
    weights = np.zeros((step.rows,) + tail.shape[1:], dtype=DTYPE)
    weights[step.slots] = tail
    context += (weights @ arena_v[: step.rows, :, : step.longest])[step.slots]
    context /= total
    return context.reshape(n, -1)


@dataclass
class PrefillSegment:
    """One sequence's rows ``[start, stop)`` of a packed prefill, with
    what its attention needs that does not change from layer to layer.

    ``bias`` is added to the score columns from ``bias_from`` on: the
    position-ID mask as 0 / mask floor (a key is visible iff ``key_pos <=
    query_pos``) and, under ALiBi, the distance term — then
    ``(n_heads, rows, keys)`` over every key. Without ALiBi it is
    ``(rows, keys - bias_from)``, and ``bias_from`` is the cache's length
    before this chunk whenever everything cached lies at or below the
    chunk's lowest position: those columns need no mask.
    """

    start: int
    stop: int
    cache: object
    positions: np.ndarray
    bias: np.ndarray
    bias_from: int


def plan_packed_prefill(
    segments, position_ids: np.ndarray, alibi: AlibiBias | None = None
) -> list[PrefillSegment]:
    """Lay ``segments`` — ``(cache, rows)`` in pack order — over the
    ``position_ids`` of one packed prefill and work out each one's mask
    (:class:`PrefillSegment`) once, not once per layer."""
    plan = []
    start = 0
    for cache, rows in segments:
        stop = start + rows
        positions = position_ids[start:stop]
        cached = cache.layers[0]
        k_positions = np.concatenate([cached.positions, positions])
        # Params sitting below a later module keep the mask over the base.
        bias_from = len(cached) if cached.max_position <= positions.min() else 0
        bias = np.where(
            k_positions[bias_from:] <= positions[:, None], DTYPE(0), _NEG_INF
        )
        if alibi is not None:
            full = alibi.bias(positions, k_positions)
            full[:, :, bias_from:] += bias
            bias, bias_from = full, 0
        plan.append(PrefillSegment(start, stop, cache, positions, bias, bias_from))
        start = stop
    if start != len(position_ids):
        raise ValueError(
            f"segments cover {start} rows, the pack has {len(position_ids)}"
        )
    return plan


def packed_prefill_attention(
    plan: list[PrefillSegment],
    layer: int,
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    *,
    queries: int | None = None,
    trace: list | None = None,
) -> np.ndarray:
    """One layer's attention for the rows of a packed prefill.

    ``k``/``v`` are (rows, n_kv_heads, head_dim) and ``q`` (rows, n_heads,
    head_dim), rotated, in pack order. Each segment's K/V rows are
    appended to *its* cache and its queries attend over that cache —
    its base's parts, read in place, and its tail, under one softmax —
    under the planned bias. Returns the context (rows, n_heads *
    head_dim).

    ``queries``, when given, is how many of each segment's last rows
    attend — the last layer of a call that returns fewer logits than it
    has rows: ``q`` and the context then hold only those rows, still in
    pack order, while every row's K/V is appended all the same.

    ``trace``, when a list, receives per segment ``(weights, key
    positions)``: the post-softmax weights (n_heads, queries, keys) and
    the cache's position IDs, copies made only then.
    """
    n_heads, head_dim = q.shape[1:]
    n_rep = n_heads // k.shape[1]
    context = np.empty(q.shape, dtype=q.dtype)
    q, k, v = (t.transpose(1, 0, 2) for t in (q, k, v))
    at = 0  # the segment's first row in ``q``
    for seg in plan:
        layer_kv = seg.cache.layers[layer]
        layer_kv.append(
            k[:, seg.start : seg.stop], v[:, seg.start : seg.stop], seg.positions
        )
        rows = seg.stop - seg.start
        first = 0 if queries is None else max(rows - queries, 0)
        span = slice(at, at + rows - first)
        at = span.stop
        if span.start == span.stop:
            continue
        parts = layer_kv.parts
        scores = part_scores(q[:, span], parts, n_rep)
        scores[:, :, seg.bias_from :] += seg.bias[..., first:, :]
        # Softmax with the division moved past the value product: it
        # then runs over head_dim columns per row instead of every key.
        scores -= scores.max(axis=-1, keepdims=True)
        np.exp(scores, out=scores)
        attended = part_context(scores, parts, n_rep)
        total = scores.sum(axis=-1, keepdims=True)
        attended /= total
        if trace is not None:
            trace.append((scores / total, layer_kv.positions.copy()))
        context[span] = attended.transpose(1, 0, 2)
    return context.reshape(len(context), n_heads * head_dim)
