"""Shared KV prefixes by reference (paper §3.4).

The paper's batched-serving optimization: "Paged attention can resolve
this issue by sharing the *pointer* to the same prompt module across
different prompts, instead of duplicating the attention states." The
serving path keeps exactly the pointers:

- :class:`SplicedKV` — a spliced base: per layer, the ordered list of
  its modules' K/V *parts*, the arrays the store holds, which the
  attention kernels read in place. Building one copies nothing. A base
  forked a second time has shown it is reused, and is copied once into
  an *image*: one part per layer whose keys sit head_dim-major
  (:func:`_image_buffers`), the layout a score GEMM reads fastest;
- :class:`ForkCache` — one stream's cache: a base, plus a private flat
  *tail* per layer for the prefilled suffix and every decode token not
  seated in an arena. A plain :class:`~repro.llm.kv.KVCache` is the same
  thing with no base — zero parts and a tail;
- :class:`TailArena` — the decode-time home of forked sequences' private
  tails: one row per sequence of a per-layer ``(slots, n_kv_heads,
  capacity, head_dim)`` buffer, so a batched decode step reads and writes
  every sequence's private KV with stacked array ops instead of a Python
  loop over caches (see
  :func:`repro.llm.attention.arena_decode_attention`).

Nothing is paged or refcounted: sharing is by reference, and
:func:`physical_bytes` counts each shared array once.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.analysis.contracts import shape_contract
from repro.llm.config import ModelConfig
from repro.llm.kv import LayerKV, ModuleKV, tracked_alloc
from repro.llm.layers import DTYPE

# Optional fork and seat auditor (repro.analysis.sanitize). None in
# production: each hook site is a single is-None check.
_AUDITOR = None


def set_page_auditor(auditor) -> None:
    """Install (or clear, with ``None``) the sanitizer auditor that
    shadows base forks and arena seats."""
    global _AUDITOR
    _AUDITOR = auditor


def _image_buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialized ``(keys, values)`` of a contiguous image, each seen
    as ``shape`` — ``(..., capacity, head_dim)``.

    The keys are stored head_dim-major — ``(..., head_dim, capacity)`` in
    memory, handed out as the transposed view — because every reader
    multiplies by K^T: over the view's transpose a score product is a
    row-major GEMM, where a K-major buffer sends OpenBLAS down its
    transposed-B path (8 KV heads, 8 queries, 512 keys, head_dim 32:
    88 µs against 23). The values stay K-major, the layout ``p @ V``
    reads row-major. This is the one place the key layout is decided."""
    keys = tracked_alloc(shape[:-2] + shape[:-3:-1]).swapaxes(-2, -1)
    return keys, tracked_alloc(shape)


# A base becomes an image at this fork of its lifetime: the first stream
# reads the modules in place, the second shows the base is reused.
IMAGE_AT_FORK = 2


class SplicedKV:
    """The K/V of a module sequence laid end to end, by reference.

    ``parts[layer]`` lists ``(keys, values)`` pairs of ``(n_kv_heads,
    T_i, head_dim)`` — each module's own arrays, K-major as the store
    holds them — and ``positions`` the ``(T,)`` position IDs every layer
    shares. :meth:`to_image` swaps the parts for one image per layer;
    the K/V never change, only where they live, so a reader holding
    either sees the same tokens.

    ``forks`` counts live forks (:meth:`fork` and ``ForkCache.free``);
    the sanitizer's auditor shadows it.
    """

    def __init__(self, config: ModelConfig, parts: list[list], positions) -> None:
        self.n_kv_heads = config.n_kv_heads
        self.head_dim = config.head_dim
        self.parts = parts
        self.positions = positions
        self.max_position = int(positions.max()) if len(positions) else -1
        self.image = False
        self.forks = 0

    @classmethod
    def from_module_kvs(cls, config: ModelConfig, modules: list[ModuleKV]) -> "SplicedKV":
        """A base over ``modules`` in order; nothing is copied but the
        position IDs."""
        modules = [kv for kv in modules if len(kv)]
        positions = (
            np.concatenate([kv.positions for kv in modules])
            if modules else np.empty(0, dtype=np.int64)
        )
        parts = [
            [(kv.keys[i], kv.values[i]) for kv in modules]
            for i in range(config.n_layers)
        ]
        return cls(config, parts, positions)

    def __len__(self) -> int:
        return len(self.positions)

    def to_image(self) -> None:
        """Copy the parts into one image — one allocation per side for
        every layer, keys head_dim-major — and read that from now on."""
        if self.image:
            return
        shape = (len(self.parts), self.n_kv_heads, len(self), self.head_dim)
        keys, values = _image_buffers(shape)
        for i, layer in enumerate(self.parts):
            start = 0
            for k, v in layer:
                stop = start + k.shape[1]
                keys[i, :, start:stop] = k
                values[i, :, start:stop] = v
                start = stop
        self.parts = [[(keys[i], values[i])] for i in range(len(self.parts))]
        self.image = True

    def fork(self, capacity: int = 0) -> "ForkCache":
        """A new sequence over this base; ``capacity`` is the tail room
        its first append allocates (it grows past that if it must)."""
        if _AUDITOR is not None:
            _AUDITOR.on_fork(self)
        self.forks += 1
        return ForkCache(self, capacity)

    def _unfork(self) -> None:
        if _AUDITOR is not None:
            _AUDITOR.on_unfork(self)
        self.forks -= 1


class ForkLayer:
    """Layer ``index`` of a :class:`ForkCache`: the base's parts, then
    ``tail`` — a private :class:`~repro.llm.kv.LayerKV`, allocated at the
    first append. Satisfies what the attention kernels read of a cache
    layer: ``parts``, ``positions``, ``max_position``, ``append``."""

    __slots__ = ("cache", "index", "tail")

    def __init__(self, cache: "ForkCache", index: int) -> None:
        self.cache = cache
        self.index = index
        self.tail: LayerKV | None = None

    def __len__(self) -> int:
        return len(self.cache.base) + (len(self.tail) if self.tail is not None else 0)

    @property
    def max_position(self) -> int:
        tail = self.tail.max_position if self.tail is not None else -1
        return max(self.cache.base.max_position, tail)

    @property
    def parts(self) -> list[tuple[np.ndarray, np.ndarray]]:
        parts = self.cache.base.parts[self.index]
        if self.tail is None:  # never empty once opened: appends add rows
            return parts
        return [*parts, (self.tail.keys, self.tail.values)]

    @property
    def positions(self) -> np.ndarray:
        if self.tail is None:
            return self.cache.base.positions
        return np.concatenate([self.cache.base.positions, self.tail.positions])

    # Whole-layer copies, for readers outside the kernels.
    @property
    def keys(self) -> np.ndarray:
        return np.concatenate([k for k, _ in self.parts], axis=1)

    @property
    def values(self) -> np.ndarray:
        return np.concatenate([v for _, v in self.parts], axis=1)

    @shape_contract(keys="(n_kv_heads, T, head_dim)", values="(n_kv_heads, T, head_dim)")
    def append(self, keys, values, positions) -> None:
        if self.tail is None:
            self.cache._open_tails(keys.shape[1])
        self.tail.append(keys, values, positions)


class ForkCache:
    """One stream's KV cache over a :class:`SplicedKV` base.

    Satisfies the engine's cache interface (``layers``, ``tail``,
    ``__len__``), so ``model.forward`` and
    :func:`repro.llm.generation.decode_loop` run on it: they read the
    base's parts in place and append to the private tails.

    ``tail`` is set once the sequence has been seated in a
    :class:`TailArena`: the seat moved the private tails into an arena
    row, decode steps append there, and ``len()`` counts base and row.
    """

    def __init__(self, base: SplicedKV, capacity: int = 0) -> None:
        self.base = base
        self.capacity = capacity
        self.layers = [ForkLayer(self, i) for i in range(len(base.parts))]
        self.tail: ArenaTail | None = None

    def __len__(self) -> int:
        if self.tail is not None:
            return len(self.base) + len(self.tail)
        return len(self.layers[0]) if self.layers else 0

    def _open_tails(self, added: int) -> None:
        """Every layer's private tail, one allocation per side."""
        capacity = max(self.capacity, added, 1)
        shape = (len(self.layers), self.base.n_kv_heads, capacity, self.base.head_dim)
        keys, values = tracked_alloc(shape), tracked_alloc(shape)
        for i, layer in enumerate(self.layers):
            layer.tail = LayerKV.adopt(
                keys[i], values[i], np.empty(capacity, dtype=np.int64), 0
            )

    def _bytes(self, tokens: int) -> int:
        base = self.base
        return tokens * _token_bytes(base.n_kv_heads, base.head_dim) * len(base.parts)

    def tail_bytes(self) -> int:
        """Bytes of the live private tail, wherever it lives."""
        return self._bytes(len(self) - len(self.base))

    def logical_bytes(self) -> int:
        """What a private copy of this sequence would hold."""
        return self._bytes(len(self))

    def free(self) -> None:
        """Give back the arena row, the tails and the hold on the base."""
        if self.tail is not None:
            self.tail.release()
            self.tail = None
        self.layers = []  # the tails go with them
        self.base._unfork()


def _token_bytes(n_kv_heads: int, head_dim: int) -> int:
    """Keys, values and a position ID for one token of one layer."""
    return 2 * n_kv_heads * head_dim * np.dtype(DTYPE).itemsize + 8


def physical_bytes(caches: list[ForkCache]) -> int:
    """Bytes the forks ``caches`` hold between them: every distinct part
    once — a module two bases share, an image every fork reads — plus
    each private tail."""
    seen: dict[tuple[int, int], int] = {}
    positions: dict[int, int] = {}
    for cache in caches:
        base = cache.base
        positions[id(base)] = base.positions.nbytes * len(base.parts)
        for layer in base.parts:
            for part in layer:
                for array in part:
                    seen[(array.__array_interface__["data"][0], array.nbytes)] = array.nbytes
    tails = sum(cache.tail_bytes() for cache in caches)
    return sum(seen.values()) + sum(positions.values()) + tails


# Smallest arena row, in tokens; rows double from here as tails lengthen.
_ARENA_MIN_CAPACITY = 32


class TailArena:
    """Private KV tails of up to ``slots`` decoding sequences, one row each.

    A sequence forked from a spliced base attends over two ranges: the
    base every fork shares, and its own *tail* — the prefilled suffix
    plus every token decoded since. Kept in per-sequence caches, the
    tails cost a batched decode step one Python round trip per sequence
    per layer (append, then attend). Here each tail is row ``slot`` of
    one ``(slots, n_kv_heads, capacity, head_dim)`` buffer per layer and
    side, so the step appends every sequence's new K/V with one
    fancy-index write and attends over ``buffer[:, :, :longest]`` under a
    length mask in one stacked call.

    :meth:`seat` copies a fork's private tail into a row once and hands
    back an :class:`ArenaTail`; the row stays the sequence's until the
    handle is released (``ForkCache.free``). ``positions`` and
    ``lengths`` are shared by all layers. Buffers are allocated on first
    use and ``capacity`` doubles whenever the longest live tail outgrows
    it, so memory follows the tails actually in flight; untouched
    capacity is never-written zero pages.

    Not thread-safe: owned and driven by the one engine thread that runs
    the scheduler's iterations.
    """

    def __init__(self, config: ModelConfig, slots: int) -> None:
        if slots < 1:
            raise ValueError("slots must be positive")
        self.slots = slots
        row = (slots, config.n_kv_heads, 0, config.head_dim)
        self.keys = [np.zeros(row, dtype=DTYPE) for _ in range(config.n_layers)]
        self.values = [np.zeros(row, dtype=DTYPE) for _ in range(config.n_layers)]
        self.positions = np.zeros((slots, 0), dtype=np.int64)
        self.lengths = np.zeros(slots, dtype=np.int64)
        self._free = list(range(slots))  # heap: lowest slot first keeps rows dense

    @property
    def capacity(self) -> int:
        return self.positions.shape[1]

    @property
    def live_slots(self) -> int:
        return self.slots - len(self._free)

    def reserve(self, total: int) -> None:
        """Ensure every row can hold ``total`` tokens."""
        if total <= self.capacity:
            return
        capacity = max(_ARENA_MIN_CAPACITY, 2 * self.capacity)
        while capacity < total:
            capacity *= 2
        live = int(self.lengths.max())

        def grown(old: np.ndarray) -> np.ndarray:
            # Zeros, not empty: rows are read up to the longest tail under
            # a mask, and a masked NaN would still poison its softmax row.
            shape = old.shape[:2] + (capacity,) + old.shape[3:]
            new = np.zeros(shape, dtype=old.dtype)
            new[:, :, :live] = old[:, :, :live]
            return new

        for side in (self.keys, self.values):
            for i, old in enumerate(side):
                side[i] = grown(old)  # one old buffer dies per new one
        positions = np.zeros((self.slots, capacity), dtype=np.int64)
        positions[:, :live] = self.positions[:, :live]
        self.positions = positions

    def seat(self, cache: ForkCache) -> "ArenaTail | None":
        """Give ``cache``'s private tail — everything past its base — a
        row, copying it out of the fork's tails once and dropping them.
        Sets and returns ``cache.tail``; ``None`` when every slot is
        taken. The base is not copied: the handle reads it by reference,
        so a seated sequence costs its row and nothing else."""
        if not self._free:
            return None
        own = [layer.tail for layer in cache.layers]
        tail_len = len(own[0]) if own and own[0] is not None else 0
        self.reserve(tail_len + 1)
        if _AUDITOR is not None:
            _AUDITOR.on_seat(self, self._free[0])
        slot = heapq.heappop(self._free)
        if tail_len:
            self.positions[slot, :tail_len] = own[0].positions
            for i, layer in enumerate(own):
                self.keys[i][slot, :, :tail_len] = layer.keys
                self.values[i][slot, :, :tail_len] = layer.values
        self.lengths[slot] = tail_len
        for layer in cache.layers:
            layer.tail = None
        cache.tail = ArenaTail(self, slot, cache.base)
        return cache.tail

    def _release(self, slot: int) -> None:
        if _AUDITOR is not None:
            _AUDITOR.on_unseat(self, slot)
        self.lengths[slot] = 0
        heapq.heappush(self._free, slot)


class ArenaTail:
    """One seated sequence: its :class:`TailArena` row plus the shared
    base in front of it — every fork of ``base`` reads the same K/V, so
    a group's GEMM over the base may read it once for all members."""

    __slots__ = ("arena", "slot", "base", "shared_len")

    def __init__(self, arena: TailArena, slot: int, base: SplicedKV) -> None:
        self.arena = arena
        self.slot = slot
        self.base = base
        self.shared_len = len(base)

    def __len__(self) -> int:
        return int(self.arena.lengths[self.slot])

    def kv(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, values, positions)`` views of the tail at ``layer``."""
        arena, n = self.arena, len(self)
        return (
            arena.keys[layer][self.slot, :, :n],
            arena.values[layer][self.slot, :, :n],
            arena.positions[self.slot, :n],
        )

    def release(self) -> None:
        """Give the row back (idempotent)."""
        if self.slot >= 0:
            self.arena._release(self.slot)
            self.slot = -1
