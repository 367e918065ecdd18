"""Prompt-module encoding: precomputing attention states (paper §3.3).

Each module's direct token sequence runs through the model **alone**, with
its schema-assigned (absolute, possibly gapped) position IDs and an empty
KV cache — so attention is confined to the module's own span. This is the
paper's implicit per-module attention mask: encoding in isolation is
mathematically identical to a full prefill under a block-diagonal mask.
Each encode is ``forward(..., logits=False)`` over a pack of one, the
same pass as the reference ``forward`` over the module's tokens on an
empty cache, so its K/V are verified bit-exactly against that reference
by the equivalence tests; only the last layer's work past its K/V append
— which feeds nothing but logits — is skipped.

Scaffolds (§3.3 "Attention masking effect") are the escape hatch for
semantically dependent modules: a scaffold set is encoded *jointly* — one
forward pass over the concatenated sequences — so its members share an
attention span, then split back into per-module states that override the
independent ones when all members are imported together.
"""

from __future__ import annotations

import numpy as np

from repro.cache.layout import ModuleLayout, ParamSlot
from repro.llm.kv import KVCache, LayerKV, ModuleKV, alloc_keys, tracked_alloc
from repro.llm.models import TransformerModel


def _arena_from_cache(cache, start: int, stop: int, positions) -> ModuleKV:
    """Copy a token range of a filled KV cache into layer-major arenas."""
    n_layers = len(cache.layers)
    first = cache.layers[0]
    shape = (n_layers, first.n_kv_heads, stop - start, first.head_dim)
    key_arena = alloc_keys(shape)
    value_arena = tracked_alloc(shape)
    for i, layer in enumerate(cache.layers):
        key_arena[i] = layer.keys[:, start:stop, :]
        value_arena[i] = layer.values[:, start:stop, :]
    return ModuleKV.from_arenas(key_arena, value_arena, positions.copy())


def encode_module(model: TransformerModel, layout: ModuleLayout) -> ModuleKV:
    """Compute one module's KV states in isolation.

    The result is **arena-backed**: one contiguous
    ``(n_layers, n_kv_heads, T, head_dim)`` tensor per side, so the splice
    phase can copy the whole module in one memcpy (see
    :class:`~repro.llm.kv.ModuleKV`). The arenas are the encode's own
    cache: each layer adopts its slice, and the forward fills them.
    """
    n = len(layout.token_ids)
    if n == 0:
        return _empty_module_kv(model)
    cfg = model.config
    shape = (cfg.n_layers, cfg.n_kv_heads, n, cfg.head_dim)
    key_arena, value_arena = alloc_keys(shape), tracked_alloc(shape)
    cache = KVCache([
        LayerKV.adopt(key_arena[i], value_arena[i], np.empty(n, dtype=np.int64), 0)
        for i in range(cfg.n_layers)
    ])
    model.forward(layout.token_ids, layout.positions, cache, logits=False)
    return ModuleKV.from_arenas(key_arena, value_arena, layout.positions.copy())


def encode_scaffold(
    model: TransformerModel, layouts: list[ModuleLayout]
) -> dict[str, ModuleKV]:
    """Jointly encode a scaffold set; returns per-module states.

    Members attend to each other (causally, by position) exactly as they
    would in a full prefill — trading the extra memory of a second copy for
    the removal of the masking approximation.
    """
    if not layouts:
        raise ValueError("a scaffold needs at least one module")
    ordered = sorted(layouts, key=lambda m: m.span_start)
    token_ids = np.concatenate([m.token_ids for m in ordered])
    positions = np.concatenate([m.positions for m in ordered])
    cache = model.new_cache(capacity=len(token_ids))
    model.forward(token_ids, positions, cache, logits=False)

    out: dict[str, ModuleKV] = {}
    offset = 0
    for layout in ordered:
        n = len(layout.token_ids)
        out[layout.name] = _arena_from_cache(
            cache, offset, offset + n, layout.positions
        )
        offset += n
    return out


def drop_param_slots(
    module_kv: ModuleKV, layout: ModuleLayout, slots: list[ParamSlot]
) -> ModuleKV:
    """Remove parameter-placeholder entries from a module's cached states.

    The paper *replaces* ``<unk>`` slot states with freshly computed
    argument states (§3.3); operationally we drop the placeholder entries
    here and let the suffix prefill compute the argument tokens at the
    recorded slot positions — same result, one concat instead of a scatter.
    """
    if not slots:
        return module_kv
    keep = np.ones(len(module_kv), dtype=bool)
    for slot in slots:
        keep[slot.offset : slot.offset + slot.length] = False
    if module_kv.is_arena:
        # Each side is indexed once over the token axis for every layer,
        # keeping the result arena-backed (contiguous).
        return ModuleKV.from_arenas(
            _kept_keys(module_kv.key_arena, keep),
            module_kv.value_arena[:, :, keep, :],
            module_kv.positions[keep],
        )
    return ModuleKV(
        keys=[_kept_keys(k, keep) for k in module_kv.keys],
        values=[v[:, keep, :] for v in module_kv.values],
        positions=module_kv.positions[keep],
    )


def _kept_keys(keys: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``keys[..., keep, :]`` in a fresh head_dim-major buffer, one slice
    copy per run of kept tokens: a fancy index would lay the result out
    anew, and ``np.compress`` into the strided buffer is 4-5x slower."""
    out = alloc_keys(keys.shape[:-2] + (int(keep.sum()), keys.shape[-1]), keys.dtype)
    edges = np.flatnonzero(np.diff(keep, prepend=False, append=False))
    at = 0
    for start, stop in zip(edges[::2], edges[1::2]):
        out[..., at : at + stop - start, :] = keys[..., start:stop, :]
        at += stop - start
    return out


def _empty_module_kv(model: TransformerModel) -> ModuleKV:
    cfg = model.config
    shape = (cfg.n_layers, cfg.n_kv_heads, 0, cfg.head_dim)
    return ModuleKV.from_arenas(
        np.empty(shape, dtype=np.float32),
        np.empty(shape, dtype=np.float32),
        np.empty(0, dtype=np.int64),
    )
