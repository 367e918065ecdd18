"""Key/value attention-state containers.

Two pieces of the paper live here:

- Every cached key/value carries its **position ID** (paper §3.3): cached
  module states sit at schema-assigned absolute positions, and the suffix
  prefill needs those IDs for causal masking and ALiBi bias.
- **Buffered concatenation** (paper §4.2): assembling a prompt's KV from
  cached modules would, with naive ``np.concatenate``, allocate a fresh
  buffer per module. :class:`LayerKV` preallocates one buffer and copies
  module states into it; appends reuse spare capacity and grow
  geometrically. :func:`buffered_concat` exposes the same trick for raw
  arrays, with an allocation counter used by the concat ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.contracts import shape_contract
from repro.llm.config import ModelConfig
from repro.llm.layers import DTYPE

# Module-level counter of buffer allocations, for the Abl-3 concat bench.
_ALLOCATION_COUNT = 0

# Optional in-place-write guard (repro.analysis.sanitize). None in
# production; when installed it sees every buffer a LayerKV is about to
# write into, and rejects mapped (snapshot-backed) or read-only arenas.
_WRITE_GUARD = None


def set_write_guard(fn) -> None:
    """Install (or clear, with ``None``) the KV write guard."""
    global _WRITE_GUARD
    _WRITE_GUARD = fn


def is_mapped_array(array) -> bool:
    """True when ``array`` is (a view over) a ``np.memmap`` — i.e. its
    bytes come from a file mapping, shared with every process that
    attached the same snapshot, rather than private memory."""
    seen = array
    while isinstance(seen, np.ndarray):
        if isinstance(seen, np.memmap):
            return True
        seen = seen.base
    return False


def allocation_count() -> int:
    return _ALLOCATION_COUNT


def reset_allocation_count() -> None:
    global _ALLOCATION_COUNT
    _ALLOCATION_COUNT = 0


def _alloc(shape: tuple[int, ...], dtype=DTYPE) -> np.ndarray:
    global _ALLOCATION_COUNT
    _ALLOCATION_COUNT += 1
    return np.empty(shape, dtype=dtype)


def tracked_alloc(shape: tuple[int, ...], dtype=DTYPE) -> np.ndarray:
    """Allocate an uninitialized buffer, counted by :func:`allocation_count`.

    The paged store and the splice fast path route their buffer
    allocations through here so the concat/splice benches can compare
    allocation behaviour across code paths with one counter.
    """
    return _alloc(shape, dtype=dtype)


class LayerKV:
    """Growable KV buffer for one transformer layer.

    Keys/values have shape ``(n_kv_heads, T, head_dim)`` and ``positions``
    is the ``(T,)`` int array of absolute position IDs — contiguous for
    ordinary KV-cache decoding, gapped under Prompt Cache.
    """

    def __init__(
        self,
        n_kv_heads: int,
        head_dim: int,
        capacity: int = 64,
    ) -> None:
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self._keys = _alloc((n_kv_heads, capacity, head_dim))
        self._values = _alloc((n_kv_heads, capacity, head_dim))
        self._positions = np.empty(capacity, dtype=np.int64)
        self._length = 0
        # Highest cached position ID, maintained on append so the decode
        # fast path can test "query at or after every key" in O(1)
        # instead of scanning the positions array every layer and step.
        # -1 = empty (positions are non-negative).
        self.max_position = -1

    @classmethod
    @shape_contract(keys="(n_kv_heads, T, head_dim)", values="(n_kv_heads, T, head_dim)")
    def from_arrays(
        cls, keys: np.ndarray, values: np.ndarray, positions: np.ndarray
    ) -> "LayerKV":
        """Wrap existing (n_kv_heads, T, head_dim) arrays without copying headroom."""
        n_kv_heads, length, head_dim = keys.shape
        kv = cls(n_kv_heads, head_dim, capacity=max(length, 1))
        kv.append(keys, values, positions)
        return kv

    @classmethod
    @shape_contract(
        keys="(n_kv_heads, capacity, head_dim)",
        values="(n_kv_heads, capacity, head_dim)",
    )
    def adopt(
        cls,
        keys: np.ndarray,
        values: np.ndarray,
        positions: np.ndarray,
        length: int,
    ) -> "LayerKV":
        """Take ownership of preallocated buffers **without copying**.

        ``keys``/``values`` are (n_kv_heads, capacity, head_dim) buffers
        whose first ``length`` tokens are valid; ``positions`` is the
        matching (capacity,) int64 buffer. Appends write into the spare
        capacity in place; growth beyond it reallocates privately. This is
        the splice fast path: one arena allocation serves every layer.
        """
        n_kv_heads, capacity, head_dim = keys.shape
        if not (0 <= length <= capacity):
            raise ValueError(f"length {length} outside buffer capacity {capacity}")
        kv = cls.__new__(cls)
        kv.n_kv_heads = n_kv_heads
        kv.head_dim = head_dim
        kv._keys = keys
        kv._values = values
        kv._positions = positions
        kv._length = length
        kv.max_position = int(positions[:length].max()) if length else -1
        return kv

    def __len__(self) -> int:
        return self._length

    @property
    def keys(self) -> np.ndarray:
        """View (no copy) of the live keys, shape (n_kv_heads, len, head_dim)."""
        return self._keys[:, : self._length, :]

    @property
    def values(self) -> np.ndarray:
        return self._values[:, : self._length, :]

    @property
    def positions(self) -> np.ndarray:
        return self._positions[: self._length]

    @property
    def parts(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The keys and values as the attention kernels read a layer: a
        flat layer is one part (see :class:`repro.llm.paged.SplicedKV`)."""
        return [(self.keys, self.values)]

    def reserve(self, total: int) -> None:
        """Ensure capacity for ``total`` tokens, growing geometrically."""
        capacity = self._keys.shape[1]
        if total <= capacity:
            return
        new_capacity = max(total, 2 * capacity)
        for name in ("_keys", "_values"):
            old = getattr(self, name)
            grown = _alloc((self.n_kv_heads, new_capacity, self.head_dim))
            grown[:, : self._length, :] = old[:, : self._length, :]
            setattr(self, name, grown)
        positions = np.empty(new_capacity, dtype=np.int64)
        positions[: self._length] = self._positions[: self._length]
        self._positions = positions

    @shape_contract(keys="(n_kv_heads, T, head_dim)", values="(n_kv_heads, T, head_dim)")
    def append(
        self, keys: np.ndarray, values: np.ndarray, positions: np.ndarray
    ) -> None:
        """Append new tokens' KV states (the per-step cache update)."""
        added = keys.shape[1]
        if values.shape[1] != added or len(positions) != added:
            raise ValueError("keys, values and positions must agree on length")
        self.reserve(self._length + added)
        if _WRITE_GUARD is not None:
            _WRITE_GUARD(self._keys)
            _WRITE_GUARD(self._values)
        end = self._length + added
        self._keys[:, self._length : end, :] = keys
        self._values[:, self._length : end, :] = values
        self._positions[self._length : end] = positions
        self._length = end
        if added:
            self.max_position = max(self.max_position, int(positions.max()))

    def copy(self) -> "LayerKV":
        dup = LayerKV(self.n_kv_heads, self.head_dim, capacity=max(self._length, 1))
        dup.append(self.keys, self.values, self.positions)
        return dup

    def nbytes(self) -> int:
        """Bytes held by live entries (excluding spare capacity)."""
        return int(self.keys.nbytes + self.values.nbytes + self.positions.nbytes)


class KVCache:
    """Whole-model KV cache: one :class:`LayerKV` per transformer layer."""

    # Never seated in a tail arena (unlike repro.llm.paged.ForkCache.tail):
    # a batched decode step attends over the flat cache itself.
    tail = None

    def __init__(self, layers: list[LayerKV]) -> None:
        self.layers = layers

    @classmethod
    def empty(cls, config: ModelConfig, capacity: int = 64) -> "KVCache":
        return cls(
            [
                LayerKV(config.n_kv_heads, config.head_dim, capacity=capacity)
                for _ in range(config.n_layers)
            ]
        )

    def __len__(self) -> int:
        """Number of cached tokens (identical across layers)."""
        return len(self.layers[0]) if self.layers else 0

    def copy(self) -> "KVCache":
        return KVCache([layer.copy() for layer in self.layers])

    def nbytes(self) -> int:
        return sum(layer.nbytes() for layer in self.layers)

    def reserve(self, total: int) -> None:
        for layer in self.layers:
            layer.reserve(total)


def buffered_concat(arrays: list[np.ndarray], axis: int = 1) -> np.ndarray:
    """Concatenate with a single preallocated buffer (paper §4.2).

    Equivalent to ``np.concatenate`` but performs exactly one allocation,
    which the concat ablation bench contrasts with pairwise concatenation's
    ``len(arrays) - 1`` intermediate buffers.
    """
    if not arrays:
        raise ValueError("nothing to concatenate")
    first = arrays[0]
    total = sum(a.shape[axis] for a in arrays)
    shape = list(first.shape)
    shape[axis] = total
    out = _alloc(tuple(shape), dtype=first.dtype)
    offset = 0
    index: list[slice] = [slice(None)] * first.ndim
    for a in arrays:
        index[axis] = slice(offset, offset + a.shape[axis])
        out[tuple(index)] = a
        offset += a.shape[axis]
    return out


def naive_concat(arrays: list[np.ndarray], axis: int = 1) -> np.ndarray:
    """Pairwise concatenation (the default PyTorch-style behaviour the
    paper's buffered operator replaces); counts every intermediate buffer."""
    if not arrays:
        raise ValueError("nothing to concatenate")
    out = arrays[0]
    for a in arrays[1:]:
        joined = _alloc(
            tuple(
                out.shape[i] + a.shape[i] if i == axis % out.ndim else out.shape[i]
                for i in range(out.ndim)
            ),
            dtype=out.dtype,
        )
        index: list[slice] = [slice(None)] * out.ndim
        index[axis] = slice(0, out.shape[axis])
        joined[tuple(index)] = out
        index[axis] = slice(out.shape[axis], None)
        joined[tuple(index)] = a
        out = joined
    return out


@dataclass
class ModuleKV:
    """Encoded attention states of one prompt module (all layers).

    ``keys[i]``/``values[i]`` are the layer-``i`` tensors of shape
    ``(n_kv_heads, T, head_dim)``; ``positions`` is the shared ``(T,)``
    absolute position-ID array assigned by the schema layout.

    When the module was encoded through the splice fast path, the
    per-layer tensors are views into one contiguous **layer-major arena**
    of shape ``(n_layers, n_kv_heads, T, head_dim)`` (``key_arena`` /
    ``value_arena``), so splicing can copy a whole module — every layer —
    with a single memcpy instead of ``n_layers`` slice copies.
    """

    keys: list[np.ndarray]
    values: list[np.ndarray]
    positions: np.ndarray
    key_arena: np.ndarray | None = None
    value_arena: np.ndarray | None = None

    @classmethod
    @shape_contract(
        key_arena="(n_layers, n_kv_heads, T, head_dim)",
        value_arena="(n_layers, n_kv_heads, T, head_dim)",
    )
    def from_arenas(
        cls, key_arena: np.ndarray, value_arena: np.ndarray, positions: np.ndarray
    ) -> "ModuleKV":
        """Build from (n_layers, n_kv_heads, T, head_dim) arenas; the
        per-layer lists become zero-copy views."""
        return cls(
            keys=list(key_arena),
            values=list(value_arena),
            positions=positions,
            key_arena=key_arena,
            value_arena=value_arena,
        )

    @property
    def is_arena(self) -> bool:
        return self.key_arena is not None

    @property
    def is_mapped(self) -> bool:
        """True when the tensors live in a file-backed snapshot mapping
        (attached read-only, shared across same-host workers) rather than
        private memory. Mapped modules must never be written in place."""
        if self.is_arena:
            return is_mapped_array(self.key_arena) or is_mapped_array(self.value_arena)
        return any(is_mapped_array(a) for a in (*self.keys, *self.values))

    def ensure_arena(self) -> "ModuleKV":
        """Return an arena-backed equivalent (self when already one).

        Stacking costs one allocation + copy per tensor; codecs that
        rebuild per-layer arrays (fp16/int8) land here on decode.
        """
        if self.is_arena:
            return self
        n_layers = len(self.keys)
        if n_layers == 0:
            return self
        head_shape = self.keys[0].shape
        key_arena = _alloc((n_layers, *head_shape), dtype=self.keys[0].dtype)
        value_arena = _alloc((n_layers, *head_shape), dtype=self.values[0].dtype)
        for i in range(n_layers):
            key_arena[i] = self.keys[i]
            value_arena[i] = self.values[i]
        return ModuleKV.from_arenas(key_arena, value_arena, self.positions)

    def __len__(self) -> int:
        return int(self.positions.shape[0])

    def nbytes(self) -> int:
        tensors = sum(k.nbytes + v.nbytes for k, v in zip(self.keys, self.values))
        return int(tensors + self.positions.nbytes)

    def slice(self, start: int, stop: int) -> "ModuleKV":
        """Token-range view (used for parameter-slot surgery)."""
        if self.is_arena:
            return ModuleKV.from_arenas(
                self.key_arena[:, :, start:stop, :],
                self.value_arena[:, :, start:stop, :],
                self.positions[start:stop],
            )
        return ModuleKV(
            keys=[k[:, start:stop, :] for k in self.keys],
            values=[v[:, start:stop, :] for v in self.values],
            positions=self.positions[start:stop],
        )
