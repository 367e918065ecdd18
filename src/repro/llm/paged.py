"""Paged KV storage with refcounted page sharing (paper §3.4).

The paper's batched-serving optimization: "Paged attention can resolve
this issue by sharing the *pointer* to the same prompt module across
different prompts, instead of duplicating the attention states." This
module implements that mechanism with real tensors:

- :class:`PagePool` — fixed-size pages (16 tokens) of K/V storage with
  reference counts and byte accounting; a page is either private storage
  or a *window* onto a spliced base's contiguous image (the base's pages
  and its mirror are then one piece of memory, built with one block copy
  per module);
- :class:`PagedLayerKV` — a drop-in replacement for
  :class:`~repro.llm.kv.LayerKV` backed by a page table; ``fork()`` shares
  pages between sequences, ``append()`` copies-on-write only the final
  partial page;
- :class:`PagedKVCache` — the whole-model view, plus
  :func:`shared_batch_caches` which gives every request in a batch its own
  cache while all of them point at one physical copy of the spliced
  module states;
- :class:`TailArena` — the decode-time home of forked sequences' private
  tails: one row per sequence of a per-layer ``(slots, n_kv_heads,
  capacity, head_dim)`` buffer, so a batched decode step reads and writes
  every sequence's private KV with stacked array ops instead of a Python
  loop over page tables (see
  :func:`repro.llm.attention.arena_decode_attention`).

The engine's forward pass works unchanged on paged caches (it only needs
``keys``/``values``/``positions``/``append``), so the §3.4 memory claim is
demonstrated end-to-end with bit-identical outputs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.analysis.contracts import shape_contract
from repro.analysis.locks import ordered_lock
from repro.llm.config import ModelConfig
from repro.llm.kv import ModuleKV, tracked_alloc
from repro.llm.layers import DTYPE

PAGE_TOKENS = 16

# Optional refcount/lease auditor (repro.analysis.sanitize). None in
# production: each hook site is a single is-None check.
_AUDITOR = None


def set_page_auditor(auditor) -> None:
    """Install (or clear, with ``None``) the sanitizer auditor that
    shadows page refcounts and mirror-lease transitions."""
    global _AUDITOR
    _AUDITOR = auditor

# Spare capacity (tokens) built into a freshly gathered mirror so the
# first decode steps extend in place instead of growing immediately.
_MIRROR_HEADROOM = 64


@dataclass
class PoolStats:
    pages_allocated: int = 0
    pages_freed: int = 0
    peak_live_pages: int = 0
    cow_copies: int = 0
    mirror_gathers: int = 0
    # Decoders that lost the mirror-lease race and paid a contiguous
    # prefix memcpy — the per-sequence cost of decoding many forks of one
    # base concurrently (the continuous-batching steady state is one seed
    # per extra in-flight sequence, then in-place extension).
    mirror_private_seeds: int = 0


class PagePool:
    """Allocator of fixed-size KV pages for one layer shape.

    Two kinds of page share one index space, refcounts and accounting. A
    *private* page owns ``(n_kv_heads, page_tokens, head_dim)`` storage
    that is recycled through the free list. A *window* page
    (:meth:`adopt_run`) is a view of ``page_tokens`` consecutive tokens
    of an image somebody else allocated; it is never written through the
    pool, and when its last reference goes only its *index* is recycled —
    the view is dropped, so the image dies with its last page and mirror.
    """

    def __init__(
        self, n_kv_heads: int, head_dim: int, page_tokens: int = PAGE_TOKENS
    ) -> None:
        if page_tokens < 1:
            raise ValueError("page_tokens must be positive")
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self.page_tokens = page_tokens
        self._keys: list[np.ndarray] = []
        self._values: list[np.ndarray] = []
        self._positions: list[np.ndarray] = []
        self._used: list[int] = []  # tokens filled per page
        self._refcounts: list[int] = []
        self._free: list[int] = []  # released private pages, storage kept
        self._bare: list[int] = []  # released window pages: index only
        self.stats = PoolStats()

    # -- allocation ---------------------------------------------------------

    def _new_indices(self, count: int) -> range:
        """``count`` fresh page indices with no storage behind them yet."""
        first = len(self._keys)
        for column in (self._keys, self._values, self._positions):
            column.extend([None] * count)
        self._used.extend([0] * count)
        self._refcounts.extend([0] * count)
        return range(first, first + count)

    def allocate(self) -> int:
        if self._free:
            page = self._free.pop()
        else:
            page = self._bare.pop() if self._bare else self._new_indices(1)[0]
            shape = (self.n_kv_heads, self.page_tokens, self.head_dim)
            self._keys[page] = tracked_alloc(shape)
            self._values[page] = tracked_alloc(shape)
            self._positions[page] = np.empty(self.page_tokens, dtype=np.int64)
            self.stats.pages_allocated += 1
        self._used[page] = 0
        self._refcounts[page] = 1
        self.stats.peak_live_pages = max(self.stats.peak_live_pages, self.live_pages)
        if _AUDITOR is not None:
            _AUDITOR.on_allocate(self, page)
        return page

    @shape_contract(
        keys="(n_kv_heads, capacity, head_dim)",
        values="(n_kv_heads, capacity, head_dim)",
    )
    def adopt_run(
        self, keys: np.ndarray, values: np.ndarray, positions: np.ndarray, length: int
    ) -> list[int]:
        """Pages over an image that already holds ``length`` tokens.

        ``keys``/``values`` are ``(n_kv_heads, capacity, head_dim)`` and
        ``positions`` ``(capacity,)``; page ``p`` of the returned run is
        the window ``[p * page_tokens, (p + 1) * page_tokens)`` of them —
        no copy, the pages *are* the image. The last window may reach
        past ``length`` into the image's headroom (``capacity`` must cover
        it); only its first ``used`` tokens are ever read as page data."""
        step = self.page_tokens
        count = -(-length // step)
        if count * step > keys.shape[1]:
            raise ValueError(
                f"image capacity {keys.shape[1]} does not cover {count} pages"
            )
        recycled = min(count, len(self._bare))
        pages = self._bare[len(self._bare) - recycled :]
        del self._bare[len(self._bare) - recycled :]
        pages.extend(self._new_indices(count - recycled))
        start = 0
        for page in pages:
            stop = start + step
            self._keys[page] = keys[:, start:stop]
            self._values[page] = values[:, start:stop]
            self._positions[page] = positions[start:stop]
            self._used[page] = step
            self._refcounts[page] = 1
            start = stop
        if pages:
            self._used[pages[-1]] = length - (count - 1) * step
        self.stats.pages_allocated += count
        self.stats.peak_live_pages = max(self.stats.peak_live_pages, self.live_pages)
        if _AUDITOR is not None:
            for page in pages:
                _AUDITOR.on_allocate(self, page)
        return pages

    def is_window(self, page: int) -> bool:
        """True for a page that views a run's image (:meth:`adopt_run`)."""
        return self._keys[page].base is not None

    def retain(self, page: int) -> None:
        if _AUDITOR is not None:
            _AUDITOR.on_retain(self, page)
        self._refcounts[page] += 1

    def release(self, page: int) -> None:
        if _AUDITOR is not None:
            _AUDITOR.on_release(self, page)
        self._refcounts[page] -= 1
        if self._refcounts[page] == 0:
            if self.is_window(page):
                # The storage is the image's, not the pool's: let go of
                # it, or every base ever built would stay alive here.
                self._keys[page] = self._values[page] = self._positions[page] = None
                self._bare.append(page)
            else:
                self._free.append(page)
            self.stats.pages_freed += 1

    def refcount(self, page: int) -> int:
        return self._refcounts[page]

    @property
    def live_pages(self) -> int:
        return len(self._keys) - len(self._free) - len(self._bare)

    def physical_bytes(self) -> int:
        """Bytes of live page storage (shared pages counted once)."""
        kv_bytes = 2 * self.n_kv_heads * self.head_dim * np.dtype(DTYPE).itemsize
        return self.live_pages * self.page_tokens * (kv_bytes + 8)

    # -- page data ------------------------------------------------------------

    def write(self, page: int, offset: int, k, v, positions) -> int:
        """Fill ``page`` from ``offset``; returns tokens written."""
        count = min(self.page_tokens - offset, k.shape[1])
        self._keys[page][:, offset : offset + count] = k[:, :count]
        self._values[page][:, offset : offset + count] = v[:, :count]
        self._positions[page][offset : offset + count] = positions[:count]
        self._used[page] = offset + count
        return count

    def copy_page(self, page: int) -> int:
        """Private duplicate of ``page`` (copy-on-write support)."""
        fresh = self.allocate()
        self._keys[fresh][:] = self._keys[page]
        self._values[fresh][:] = self._values[page]
        self._positions[fresh][:] = self._positions[page]
        self._used[fresh] = self._used[page]
        self.stats.cow_copies += 1
        return fresh

    def used(self, page: int) -> int:
        return self._used[page]

    def page_views(self, page: int, upto: int):
        return (
            self._keys[page][:, :upto],
            self._values[page][:, :upto],
            self._positions[page][:upto],
        )


def _image_buffers(
    n_kv_heads: int, head_dim: int, capacity: int
) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialized ``(keys, values)`` of a contiguous image, each seen
    as ``(n_kv_heads, capacity, head_dim)``.

    The keys are stored head_dim-major — ``(n_kv_heads, head_dim,
    capacity)`` in memory, handed out as the transposed view — because
    every reader multiplies by K^T: over the view's transpose a score
    product is a row-major GEMM, where a K-major buffer sends OpenBLAS
    down its transposed-B path (8 KV heads, 8 queries, 512 keys, head_dim
    32: 88 µs against 23). The values stay K-major, the layout ``p @ V``
    reads row-major. This is the one place the key layout is decided."""
    keys = tracked_alloc((n_kv_heads, head_dim, capacity)).transpose(0, 2, 1)
    return keys, tracked_alloc((n_kv_heads, capacity, head_dim))


class _Mirror:
    """Shared contiguous image of a paged sequence, with spare capacity.

    The attention kernel wants flat ``(n_kv_heads, T, head_dim)`` arrays;
    re-gathering the page table on every decode step is O(T) per step. A
    mirror is gathered once and then *extended in place*: appends write the
    new tokens at the tail, O(added) per step.

    Several forks of one sequence share a single mirror. Exactly one of
    them may hold the **lease** — the right to extend the image in place.
    The lease is taken lazily by the first sharer that appends while the
    image tail matches its own length, and released (with the tail
    truncated back to the shared prefix) when that sequence is freed, so
    the next fork of the same base extends the same buffers with zero
    prefix copies. Sharers that cannot take the lease fall back to a
    private mirror seeded by one contiguous memcpy of the shared prefix.

    Invariant: for every sequence S referencing this mirror,
    ``mirror[:S._mirror_len]`` equals S's first ``_mirror_len`` tokens and
    ``S._mirror_len <= self.length`` — in-place writes only ever land at
    offsets >= every sharer's prefix.
    """

    __slots__ = (
        "keys", "values", "positions", "length",
        "lease", "lease_start", "fork_high_water", "lock", "origin",
    )

    def __init__(
        self, n_kv_heads: int, head_dim: int, capacity: int, length: int
    ) -> None:
        self.keys, self.values = _image_buffers(n_kv_heads, head_dim, capacity)
        self.positions = np.empty(capacity, dtype=np.int64)
        self.length = length
        self.lease: "PagedLayerKV | None" = None
        self.lease_start = length
        self.fork_high_water = length
        # The shared image a private mirror was seeded from (its first
        # ``lease_start`` tokens are that image's, byte for byte).
        self.origin: "_Mirror | None" = None
        # Serializes lease transitions and tail writes when forks decode
        # from different server worker threads. Non-reentrant by design:
        # re-entry would mean a lease transition raced itself.
        self.lock = ordered_lock(
            "paged.mirror", after=("engine.fastpath",), reentrant=False
        )

    @property
    def capacity(self) -> int:
        return self.keys.shape[1]

    def grow(self, total: int) -> None:
        if total <= self.capacity:
            return
        new_capacity = max(total, 2 * self.capacity)
        n_kv_heads, _, head_dim = self.keys.shape
        keys, values = _image_buffers(n_kv_heads, head_dim, new_capacity)
        keys[:, : self.length] = self.keys[:, : self.length]
        values[:, : self.length] = self.values[:, : self.length]
        self.keys, self.values = keys, values
        positions = np.empty(new_capacity, dtype=np.int64)
        positions[: self.length] = self.positions[: self.length]
        self.positions = positions


class PagedLayerKV:
    """LayerKV-compatible store backed by a page table.

    Pages remain the source of truth (they are what ``fork()`` shares and
    what copy-on-write protects); ``keys``/``values``/``positions`` are
    served from a contiguous :class:`_Mirror` that is gathered lazily on
    first access and extended in place afterwards.
    """

    def __init__(self, pool: PagePool) -> None:
        self.pool = pool
        self.n_kv_heads = pool.n_kv_heads
        self.head_dim = pool.head_dim
        self._table: list[int] = []
        self._length = 0
        self._mirror: _Mirror | None = None
        self._mirror_len = 0
        # Highest cached position ID (see LayerKV.max_position): the
        # decode fast path's O(1) mask-skip test.
        self.max_position = -1

    def __len__(self) -> int:
        return self._length

    @property
    def page_table(self) -> list[int]:
        return list(self._table)

    # -- mutation ---------------------------------------------------------------

    @shape_contract(keys="(n_kv_heads, T, head_dim)", values="(n_kv_heads, T, head_dim)")
    def append(self, keys, values, positions) -> None:
        added = keys.shape[1]
        if values.shape[1] != added or len(positions) != added:
            raise ValueError("keys, values and positions must agree on length")
        offset = 0
        while offset < added:
            tail_used = self._length % self.pool.page_tokens
            if self._table and tail_used != 0:
                page = self._table[-1]
                if self.pool.refcount(page) > 1 or self.pool.is_window(page):
                    # Copy-on-write: the partial tail is shared with a
                    # sibling sequence — or is a window onto a base's
                    # image, whose headroom belongs to the mirror's lease
                    # holder (a sibling may be extending it in place even
                    # after the base let go). Take a private copy first.
                    private = self.pool.copy_page(page)
                    self.pool.release(page)
                    self._table[-1] = private
                    page = private
            else:
                page = self.pool.allocate()
                self._table.append(page)
                tail_used = 0
            wrote = self.pool.write(
                page, tail_used,
                keys[:, offset:], values[:, offset:], positions[offset:],
            )
            offset += wrote
            self._length += wrote
        if added:
            self.max_position = max(self.max_position, int(positions.max()))
        if self._mirror is not None:
            self._extend_mirror(keys, values, positions)

    @shape_contract(keys="(n_kv_heads, T, head_dim)", values="(n_kv_heads, T, head_dim)")
    def _extend_mirror(self, keys, values, positions) -> None:
        mirror = self._mirror
        added = keys.shape[1]
        with mirror.lock:
            if mirror.lease is None and mirror.length == self._mirror_len:
                mirror.lease = self
                mirror.lease_start = self._mirror_len
            holds_lease = mirror.lease is self
        if holds_lease:
            # We own the tail: extend the shared image in place.
            if _AUDITOR is not None:
                _AUDITOR.on_inplace_extend(self, mirror)
            mirror.grow(mirror.length + added)
            end = mirror.length + added
            mirror.keys[:, mirror.length : end] = keys
            mirror.values[:, mirror.length : end] = values
            mirror.positions[mirror.length : end] = positions
            mirror.length = end
            self._mirror_len = end
            return
        # Another sequence is extending the shared image — seed a private
        # mirror with one contiguous memcpy of the shared prefix.
        self.pool.stats.mirror_private_seeds += 1
        prefix = self._mirror_len
        total = prefix + added
        fresh = _Mirror(
            self.n_kv_heads, self.head_dim,
            capacity=max(total + _MIRROR_HEADROOM, 1), length=total,
        )
        fresh.keys[:, :prefix] = mirror.keys[:, :prefix]
        fresh.values[:, :prefix] = mirror.values[:, :prefix]
        fresh.positions[:prefix] = mirror.positions[:prefix]
        fresh.keys[:, prefix:total] = keys
        fresh.values[:, prefix:total] = values
        fresh.positions[prefix:total] = positions
        fresh.lease = self
        fresh.lease_start = prefix
        fresh.fork_high_water = prefix
        fresh.origin = mirror
        self._mirror = fresh
        self._mirror_len = total

    def reserve(self, total: int) -> None:
        """Interface parity with LayerKV; pages allocate lazily."""

    def splice(self, parts: list[tuple[np.ndarray, np.ndarray]], positions) -> None:
        """Fill this (empty) layer with ``parts`` — ``(keys, values)``
        pairs of ``(n_kv_heads, T_i, head_dim)`` — laid end to end, as one
        contiguous image: one block copy per part per side, after which
        the page table is a run of windows onto the image and the image
        is the mirror. The prefix exists once; nothing is gathered."""
        if self._length:
            raise ValueError("splice needs an empty layer")
        total = len(positions)
        if total == 0:
            return
        step = self.pool.page_tokens
        capacity = max(total + _MIRROR_HEADROOM, -(-total // step) * step)
        mirror = _Mirror(self.n_kv_heads, self.head_dim, capacity, total)
        start = 0
        for keys, values in parts:
            stop = start + keys.shape[1]
            mirror.keys[:, start:stop] = keys
            mirror.values[:, start:stop] = values
            start = stop
        if start != total:
            raise ValueError("keys, values and positions must agree on length")
        mirror.positions[:total] = positions
        self._table = self.pool.adopt_run(
            mirror.keys, mirror.values, mirror.positions, total
        )
        self._length = total
        self._mirror = mirror
        self._mirror_len = total
        self.max_position = int(positions.max())

    def fork(self) -> "PagedLayerKV":
        """A new sequence sharing every current page (refcounted)."""
        sibling = PagedLayerKV(self.pool)
        sibling._table = list(self._table)
        sibling._length = self._length
        sibling.max_position = self.max_position
        for page in sibling._table:
            self.pool.retain(page)
        if self._mirror is not None:
            sibling._mirror = self._mirror
            sibling._mirror_len = self._mirror_len
            with self._mirror.lock:
                self._mirror.fork_high_water = max(
                    self._mirror.fork_high_water, self._mirror_len
                )
        return sibling

    def _drop_mirror(self) -> None:
        mirror = self._mirror
        if mirror is not None:
            with mirror.lock:
                if mirror.lease is self:
                    # Hand the image back: truncate our private tail so
                    # the next fork of the same base can extend in place
                    # from the shared prefix (no live sharer's prefix
                    # extends past this point).
                    mirror.lease = None
                    mirror.length = max(mirror.lease_start, mirror.fork_high_water)
        self._mirror = None
        self._mirror_len = 0

    def shed_mirror(self, keep: int) -> tuple[np.ndarray, np.ndarray]:
        """Give up the contiguous image — the lease goes back as in
        :meth:`free`, a private mirror is dropped — and return ``(keys,
        values)`` views of its first ``keep`` tokens. Where this
        sequence's mirror was a private seed, the views are of the shared
        image it was seeded from, so what they pin is the copy every fork
        of the base shares. The pages are untouched; asking for
        ``keys``/``values`` again re-gathers them."""
        mirror = self._ensure_mirror()
        if mirror.origin is not None and keep <= mirror.lease_start:
            mirror = mirror.origin
        self._drop_mirror()
        return mirror.keys[:, :keep], mirror.values[:, :keep]

    def free(self) -> None:
        self._drop_mirror()
        for page in self._table:
            self.pool.release(page)
        self._table = []
        self._length = 0
        self.max_position = -1

    # -- materialized views --------------------------------------------------------

    def _ensure_mirror(self) -> _Mirror:
        mirror = self._mirror
        if mirror is not None:
            return mirror
        capacity = max(self._length + _MIRROR_HEADROOM, 1)
        mirror = _Mirror(self.n_kv_heads, self.head_dim, capacity, self._length)
        offset = 0
        remaining = self._length
        for page in self._table:
            upto = min(self.pool.page_tokens, remaining)
            k, v, p = self.pool.page_views(page, upto)
            mirror.keys[:, offset : offset + upto] = k
            mirror.values[:, offset : offset + upto] = v
            mirror.positions[offset : offset + upto] = p
            offset += upto
            remaining -= upto
        self.pool.stats.mirror_gathers += 1
        self._mirror = mirror
        self._mirror_len = self._length
        return mirror

    @property
    def keys(self) -> np.ndarray:
        return self._ensure_mirror().keys[:, : self._length]

    @property
    def values(self) -> np.ndarray:
        return self._ensure_mirror().values[:, : self._length]

    @property
    def positions(self) -> np.ndarray:
        return self._ensure_mirror().positions[: self._length]

    def nbytes(self) -> int:
        """This sequence's *logical* bytes (shared pages fully charged)."""
        per_token = 2 * self.n_kv_heads * self.head_dim * 4 + 8
        return self._length * per_token


class PagedKVCache:
    """Whole-model paged cache: one PagedLayerKV per layer.

    Satisfies the engine's cache interface (``layers``, ``reserve``,
    ``__len__``), so :func:`repro.llm.generation.decode_loop` and
    ``model.forward`` run on it unchanged.

    ``tail`` is set once the sequence has been seated in a
    :class:`TailArena`: from then on the pages hold the frozen prefix
    (spliced modules + prefilled suffix), decode steps append to the
    arena row, and ``len()`` counts both.
    """

    def __init__(self, layers: list[PagedLayerKV], pools: list[PagePool]) -> None:
        self.layers = layers
        self.pools = pools
        self.tail: ArenaTail | None = None

    @classmethod
    def empty(
        cls,
        config: ModelConfig,
        pools: list[PagePool] | None = None,
        page_tokens: int = PAGE_TOKENS,
    ) -> "PagedKVCache":
        pools = pools or [
            PagePool(config.n_kv_heads, config.head_dim, page_tokens)
            for _ in range(config.n_layers)
        ]
        return cls([PagedLayerKV(pool) for pool in pools], pools)

    @classmethod
    def from_module_kvs(
        cls, config: ModelConfig, modules: list[ModuleKV],
        pools: list[PagePool] | None = None,
        page_tokens: int = PAGE_TOKENS,
    ) -> "PagedKVCache":
        """Splice module states into a fresh paged cache, already
        mirrored (see :meth:`PagedLayerKV.splice`): forks inherit the
        image and the first to decode extends it in place."""
        cache = cls.empty(config, pools, page_tokens)
        if modules:
            positions = np.concatenate([kv.positions for kv in modules])
            for i, layer in enumerate(cache.layers):
                layer.splice([(kv.keys[i], kv.values[i]) for kv in modules], positions)
        return cache

    def __len__(self) -> int:
        if self.tail is not None:
            return self.tail.shared_len + len(self.tail)
        return len(self.layers[0]) if self.layers else 0

    def reserve(self, total: int) -> None:
        pass  # pages allocate lazily

    def fork(self) -> "PagedKVCache":
        return PagedKVCache([layer.fork() for layer in self.layers], self.pools)

    def materialize(self) -> None:
        """Pre-gather every layer's contiguous mirror, so that forks
        inherit it and the first to decode extends the shared image in
        place. A cache built by :meth:`from_module_kvs` already has one;
        this is for caches filled by ``append``."""
        for layer in self.layers:
            layer._ensure_mirror()

    def free(self) -> None:
        if self.tail is not None:
            self.tail.release()
            self.tail = None
        for layer in self.layers:
            layer.free()

    def physical_bytes(self) -> int:
        return sum(pool.physical_bytes() for pool in self.pools)

    def logical_bytes(self) -> int:
        return sum(layer.nbytes() for layer in self.layers)


# Smallest arena row, in tokens; rows double from here as tails lengthen.
_ARENA_MIN_CAPACITY = 32


class TailArena:
    """Private KV tails of up to ``slots`` decoding sequences, one row each.

    A sequence forked from a pre-spliced base attends over two ranges:
    the base image every fork shares, and its own *tail* — the prefilled
    suffix plus every token decoded since. Kept as per-sequence pages and
    mirrors, the tails cost a batched decode step one Python round trip
    per sequence per layer (append, then attend). Here each tail is row
    ``slot`` of one ``(slots, n_kv_heads, capacity, head_dim)`` buffer
    per layer and side, so the step appends every sequence's new K/V with
    one fancy-index write and attends over ``buffer[:, :, :longest]``
    under a length mask in one stacked call.

    :meth:`seat` copies a sequence's tail out of its paged cache once and
    hands back an :class:`ArenaTail`; the row stays the sequence's until
    the handle is released (``PagedKVCache.free``). ``positions`` and
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

    def seat(self, cache: "PagedKVCache", shared_len: int) -> "ArenaTail | None":
        """Give ``cache``'s private tail — everything past its first
        ``shared_len`` tokens — a row, copying it out of the paged mirror
        once. Sets and returns ``cache.tail``; ``None`` when every slot is
        taken. The shared prefix is *not* copied: the handle keeps views
        of the shared image's first ``shared_len`` tokens, and the
        sequence's own mirror — its job done — is shed, so a seated
        sequence costs its pages, its row and nothing else."""
        if not self._free:
            return None
        tail_len = len(cache) - shared_len
        self.reserve(tail_len + 1)
        if _AUDITOR is not None:
            _AUDITOR.on_seat(self, self._free[0])
        slot = heapq.heappop(self._free)
        positions = cache.layers[0].positions.copy()
        self.positions[slot, :tail_len] = positions[shared_len:]
        self.lengths[slot] = tail_len
        image = []
        for i, layer in enumerate(cache.layers):
            self.keys[i][slot, :, :tail_len] = layer.keys[:, shared_len:]
            self.values[i][slot, :, :tail_len] = layer.values[:, shared_len:]
            image.append(layer.shed_mirror(shared_len))
        cache.tail = ArenaTail(self, slot, image, positions[:shared_len])
        return cache.tail

    def _release(self, slot: int) -> None:
        if _AUDITOR is not None:
            _AUDITOR.on_unseat(self, slot)
        self.lengths[slot] = 0
        heapq.heappush(self._free, slot)


class ArenaTail:
    """One seated sequence: its :class:`TailArena` row plus the shared
    base image in front of it.

    ``image[layer]`` is the ``(keys, values)`` pair of ``(n_kv_heads,
    shared_len, head_dim)`` views :meth:`PagedLayerKV.shed_mirror` left
    behind — byte for byte the base every fork of that base shares, so
    a group's GEMM over the base may read any one member's. The views pin
    the buffers they look into, which nothing writes below
    ``shared_len``.
    """

    __slots__ = ("arena", "slot", "image", "image_positions", "shared_len")

    def __init__(self, arena: TailArena, slot: int, image, image_positions) -> None:
        self.arena = arena
        self.slot = slot
        self.image = image
        self.image_positions = image_positions
        self.shared_len = len(image_positions)

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


def shared_batch_caches(
    config: ModelConfig, modules: list[ModuleKV], batch_size: int,
    page_tokens: int = PAGE_TOKENS,
) -> tuple[list[PagedKVCache], PagedKVCache]:
    """Per-request caches all sharing one physical copy of ``modules``.

    Returns (request caches, the base cache). Every request cache forks the
    base: module pages are shared (refcounted); each request's subsequent
    appends (uncached text, generated tokens) copy-on-write only the final
    partial page and then extend privately — exactly the §3.4 picture.
    """
    base = PagedKVCache.from_module_kvs(config, modules, page_tokens=page_tokens)
    return [base.fork() for _ in range(batch_size)], base
