"""Module cache storage: the tier walk, capacity accounting, eviction.

The paper stores encoded modules in GPU HBM (fast, scarce) or host DRAM
(abundant, pays a host-to-device copy) and leaves eviction and prefetch
to future work (§4.1, §6). :class:`ModuleCacheStore` is that hierarchy,
in one class. A ``fetch`` walks it hot to cold:

    fast hit → DRAM hit (placement may promote) → snapshot page-in →
    peer fetch → None (the caller encodes; ``observe_reencode`` prices it)

- **Fast and DRAM tiers** are :class:`CacheTier`\\ s with byte-exact
  budgets, TTLs, and one of four eviction policies (LRU, LFU, FIFO,
  size-aware) choosing each tier's capacity victim — the eviction
  ablation compares them.
- **The snapshot tier** is a catalog of v2 payload records: those of the
  ``index.json`` under ``snapshot_dir``, plus every DRAM victim this store
  has written back there. A page-in verifies each payload file through a
  :class:`~repro.cache.persist.VerifyLedger` and maps the descriptor it
  checked, and installs the result only if the catalog still holds that
  record — a text edit that lands mid-page-in makes the fetch a miss.
  :meth:`ModuleCacheStore.verify_catalog` checks every record's full
  digest, under the same rule.
- **The peer tier** is the miss fetcher (``set_miss_fetcher``), called
  outside the store lock with its round-trip observed; its answer is not
  installed if a ``remove_matching`` ran while it was in flight.

Where a capacity victim goes:

- A fast-tier victim is dropped when placement calls it snapshot-backed
  and cold (the snapshot pages it back in); otherwise it moves to DRAM.
- A DRAM victim — or a fast-tier victim DRAM cannot take — is spilled to
  ``snapshot_dir`` unless the catalog already has it; without a
  ``snapshot_dir`` it is dropped. Evict listeners see every capacity
  victim with reason ``"capacity"``; TTL victims are dropped, never
  demoted or spilled.

No ``snapshot_dir`` means no spill: a module leaving DRAM is gone and its
next use re-encodes. ``cpu_capacity_bytes=0`` means no DRAM tier: a
fast-tier victim goes straight to the spill-or-drop path. Placement
(:mod:`repro.fabric.placement`) is the only promote/drop policy, and
:meth:`ModuleCacheStore.maintenance` adds budgeted predictive prefetch
to the TTL sweep whenever there is something colder than DRAM to pull
from.

Entries are keyed by ``(schema, module, variant)``; ``variant`` separates a
module's independent encoding from its scaffolded encodings.
"""

from __future__ import annotations

import itertools
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.locks import ordered_lock
from repro.cache.compress import CompressedModuleKV
from repro.cache.persist import (
    VerifyLedger,
    catalog_entry_fault,
    catalog_entry_nbytes,
    load_catalog_entry,
    snapshot_catalog,
    write_catalog_entry,
)
from repro.fabric.costs import TIER_CPU, TIER_GPU, TierCostModel
from repro.fabric.placement import PlacementEngine
from repro.fabric.prefetch import PredictivePrefetcher
from repro.hw.allocator import CapacityError, MemoryAccountant
from repro.llm.kv import ModuleKV

SOLO_VARIANT = "solo"

# Eviction reasons reported to evict listeners and metrics labels.
EVICT_CAPACITY = "capacity"
EVICT_TTL = "ttl"


@dataclass(frozen=True)
class CacheKey:
    schema: str
    module: str
    variant: str = SOLO_VARIANT

    def tag(self) -> str:
        return f"{self.schema}/{self.module}/{self.variant}"


@dataclass
class CacheEntry:
    key: CacheKey
    kv: ModuleKV
    nbytes: int
    pinned: bool = False
    # Bookkeeping consumed by eviction policies.
    inserted_at: int = 0
    last_used_at: int = 0
    use_count: int = 0
    # Wall-clock last access, consumed by TTL expiry (last-access TTL:
    # every hit pushes expiry out by the tier's ttl_s).
    last_used_wall: float = 0.0


class EvictionPolicy:
    """Chooses a victim among unpinned entries; subclasses order them."""

    name = "base"

    def victim(self, entries: list[CacheEntry]) -> CacheEntry:
        candidates = [e for e in entries if not e.pinned]
        if not candidates:
            raise CapacityError("cache full and every entry is pinned")
        return min(candidates, key=self.rank)

    def rank(self, entry: CacheEntry):
        raise NotImplementedError


class LRUPolicy(EvictionPolicy):
    name = "lru"

    def rank(self, entry: CacheEntry):
        return entry.last_used_at


class LFUPolicy(EvictionPolicy):
    name = "lfu"

    def rank(self, entry: CacheEntry):
        return (entry.use_count, entry.last_used_at)


class FIFOPolicy(EvictionPolicy):
    name = "fifo"

    def rank(self, entry: CacheEntry):
        return entry.inserted_at


class SizeAwarePolicy(EvictionPolicy):
    """Evict the largest cold entry first (GreedyDual-style tie to LRU)."""

    name = "size"

    def rank(self, entry: CacheEntry):
        return (-entry.nbytes, entry.last_used_at)


POLICIES = {p.name: p for p in (LRUPolicy(), LFUPolicy(), FIFOPolicy(), SizeAwarePolicy())}


@dataclass
class TierStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    ttl_evictions: int = 0
    bytes_evicted: int = 0
    # Miss-fetcher plane only (the store-level ``fetch_stats`` ledger):
    # a fetcher that raised instead of returning KV-or-None.
    fetch_errors: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CacheTier:
    """One storage tier (e.g. GPU HBM or host DRAM) with a byte budget."""

    def __init__(
        self,
        name: str,
        capacity_bytes: int | None = None,
        policy: EvictionPolicy | str = "lru",
        lock: threading.RLock | None = None,
        ttl_s: float | None = None,
        clock=time.monotonic,
    ) -> None:
        self.name = name
        self.policy = POLICIES[policy] if isinstance(policy, str) else policy
        # Last-access TTL: an unpinned entry idle longer than ttl_s is
        # expired lazily on the next get/put touching the tier (or by an
        # explicit sweep_expired()). TTL victims are *dropped*, not
        # demoted — staleness, unlike capacity pressure, follows the
        # entry to any tier.
        self.ttl_s = ttl_s
        self.clock = clock
        # Re-entrant so an ``on_evict`` callback may call back into the
        # tier (or a sibling sharing the lock) from inside ``put``. The
        # store passes one shared lock to both tiers, making every
        # cross-tier sequence (demotion, spill, prefetch) atomic.
        self._lock = lock or ordered_lock("store")  # lock-order: store
        self.accountant = MemoryAccountant(capacity_bytes=capacity_bytes)  # guarded-by: _lock
        self.entries: dict[CacheKey, CacheEntry] = {}  # guarded-by: _lock
        self.stats = TierStats()  # guarded-by: _lock
        self._clock = itertools.count()  # guarded-by: _lock
        # Called with each capacity victim (the store uses it to move a
        # victim down a tier instead of dropping it).
        self.on_evict = None  # guarded-by: _lock
        self._evict_listeners: list = []  # guarded-by: _lock

    def add_evict_listener(self, fn) -> None:
        """Register an observer called as ``fn(victim, reason)`` with each
        evicted entry, *after* ``on_evict`` (so demotion has already
        happened). ``reason`` is ``"capacity"`` or ``"ttl"``. Listeners
        run under the tier lock; they may call back into the store but
        must not block."""
        with self._lock:
            self._evict_listeners.append(fn)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self.entries

    def get(self, key: CacheKey) -> CacheEntry | None:
        with self._lock:
            entry = self.entries.get(key)
            if entry is not None and self._expired(entry, self.clock()):
                self._expire(entry)
                entry = None
            if entry is None:
                self.stats.misses += 1
                return None
            entry.last_used_at = next(self._clock)
            entry.last_used_wall = self.clock()
            entry.use_count += 1
            self.stats.hits += 1
            return entry

    def peek(self, key: CacheKey) -> CacheEntry | None:
        """Look up without touching hit/miss statistics or recency."""
        with self._lock:
            return self.entries.get(key)

    def put(self, key: CacheKey, kv: ModuleKV, pinned: bool = False) -> CacheEntry:
        """Insert, evicting until the entry fits. Raises
        :class:`CapacityError` if it can never fit (entry > capacity or all
        remaining entries pinned)."""
        with self._lock:
            if key in self.entries:
                self.remove(key)
            self.sweep_expired()  # reclaim stale space before evicting live entries
            nbytes = kv.nbytes()
            capacity = self.accountant.capacity_bytes
            if capacity is not None and nbytes > capacity:
                raise CapacityError(
                    f"module {key.tag()} ({nbytes} B) exceeds tier {self.name!r} "
                    f"capacity ({capacity} B)"
                )
            while not self.accountant.would_fit(nbytes):
                self._evict_one()
            self.accountant.allocate(key.tag(), nbytes)
            now = next(self._clock)
            entry = CacheEntry(
                key=key, kv=kv, nbytes=nbytes, pinned=pinned,
                inserted_at=now, last_used_at=now, last_used_wall=self.clock(),
            )
            self.entries[key] = entry
            self.stats.insertions += 1
            return entry

    def remove(self, key: CacheKey) -> None:
        with self._lock:
            self.entries.pop(key)
            self.accountant.release(key.tag())

    def _expired(self, entry: CacheEntry, now: float) -> bool:
        return (
            self.ttl_s is not None
            and not entry.pinned
            and now - entry.last_used_wall > self.ttl_s
        )

    def sweep_expired(self) -> int:
        """Expire every entry idle past ``ttl_s`` now; returns the count.
        Runs implicitly on get/put, publicly for idle-time maintenance."""
        if self.ttl_s is None:
            return 0
        with self._lock:
            now = self.clock()
            doomed = [e for e in self.entries.values() if self._expired(e, now)]
            for entry in doomed:
                self._expire(entry)
            return len(doomed)

    def _expire(self, entry: CacheEntry) -> None:
        # TTL victims are not demoted: ``on_evict`` (the demotion hook)
        # is skipped, listeners still observe the drop with its reason.
        with self._lock:
            self.remove(entry.key)
            self.stats.evictions += 1
            self.stats.ttl_evictions += 1
            self.stats.bytes_evicted += entry.nbytes
            for listener in self._evict_listeners:
                listener(entry, EVICT_TTL)

    def _evict_one(self) -> None:
        with self._lock:
            victim = self.policy.victim(list(self.entries.values()))
            self.remove(victim.key)
            self.stats.evictions += 1
            self.stats.bytes_evicted += victim.nbytes
            if self.on_evict is not None:
                self.on_evict(victim)
            for listener in self._evict_listeners:
                listener(victim, EVICT_CAPACITY)

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self.accountant.used_bytes

    def mapped_bytes(self) -> int:
        """Bytes of entries whose tensors are snapshot-mapped (file-backed,
        shared with other attached workers) rather than private memory.
        Operators subtract this from ``used_bytes`` to price a host's real
        per-worker footprint."""
        with self._lock:
            return sum(
                entry.nbytes
                for entry in self.entries.values()
                if getattr(entry.kv, "is_mapped", False)
            )

    def keys(self) -> list[CacheKey]:
        with self._lock:
            return list(self.entries)


@dataclass
class FetchResult:
    entry: CacheEntry
    tier: str  # which tier holds it now ("gpu" fast path or "cpu" copy path)
    # Where this fetch found the bytes: ``tier`` for a resident hit, or
    # "snapshot"/"peer" when the walk pulled the entry up from colder down.
    source: str


class ModuleCacheStore:
    """The module store: fast and DRAM tiers, a snapshot catalog, a peer
    hook, and placement deciding what moves between them (see the module
    docstring for the walk and the eviction rules)."""

    def __init__(
        self,
        gpu_capacity_bytes: int | None = None,
        cpu_capacity_bytes: int | None = None,
        *,
        policy: str = "lru",
        gpu_ttl_s: float | None = None,
        cpu_ttl_s: float | None = None,
        snapshot_dir: str | Path | None = None,
        prefetch_bytes_per_s: float = 64e6,
        clock=time.monotonic,
    ) -> None:
        # One re-entrant lock shared by both tiers: the serving runtime
        # hits the store from worker threads while the event loop reads
        # statistics, and eviction re-enters the store (demotion, spill).
        # A single lock makes those sequences atomic with no ordering
        # hazards between tiers.
        self._lock = ordered_lock("store")
        self.clock = clock
        self.gpu = CacheTier(
            "gpu", gpu_capacity_bytes, policy, lock=self._lock, ttl_s=gpu_ttl_s,
            clock=clock,
        )
        self.cpu = CacheTier(
            "cpu", cpu_capacity_bytes, policy, lock=self._lock, ttl_s=cpu_ttl_s,
            clock=clock,
        )
        self.gpu.on_evict = self._on_gpu_evict
        self.cpu.on_evict = self._spill
        self.cost_model = TierCostModel()
        self.placement = PlacementEngine(self.cost_model)
        self.prefetcher = PredictivePrefetcher(
            self.placement, bytes_per_s=prefetch_bytes_per_s
        )
        # Get-or-fetch hook: called on a miss in every local tier with the
        # CacheKey, *outside* the store lock — it may block on a network
        # round-trip. Returning a KV object installs it and the fetch
        # succeeds; returning None falls through to the ordinary miss
        # (re-encode upstream). The cluster's PeerFetcher plugs in here.
        self._miss_fetcher = None
        # Async peer pull hook for prefetch: ``fn(key) -> bool`` (issued?).
        # The cluster worker wires it to its event-loop peer fetch.
        self.peer_prefetch = None
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        # Records carry two in-memory fields index.json never sees:
        # ``spilled`` (ours to unlink) and ``verified`` — the fstat states
        # at which each payload file's sparse digest last matched
        # (``VerifyLedger.states``), read and replaced under the lock like
        # the catalog they sit on and forgotten with the record.
        self._catalog: dict[CacheKey, dict] = (  # guarded-by: _lock
            snapshot_catalog(self.snapshot_dir)
            if self.snapshot_dir is not None and (self.snapshot_dir / "index.json").exists()
            else {}
        )
        # Size of every key this store has held (recorded at insertion),
        # for budgeting pulls of entries no longer resident anywhere local
        # — and what tells a re-encode from a module's first encode.
        self._size_hints: dict[CacheKey, int] = {}  # guarded-by: _lock
        # ``remove_matching`` calls so far: a peer answer that arrives
        # after one is not installed (it may predate the text change).
        self._removals = 0  # guarded-by: _lock
        # Miss-fetch plane ledger: hits = fetcher returned KV, misses =
        # fetcher declined (None), fetch_errors = fetcher raised.
        self.fetch_stats = TierStats()  # guarded-by: _lock
        self._fetch_error_listeners: list = []  # guarded-by: _lock
        # Snapshot-tier ledger: hits = demand fetches served by a page-in,
        # misses = a cataloged payload refused (corrupt, truncated, gone).
        # Maintenance prefetches are page-ins too but nobody's hit.
        self.snapshot_stats = TierStats()  # guarded-by: _lock
        self.prefetch_page_ins = 0  # guarded-by: _lock
        # Payload files a page-in hashed / mapped on a remembered state /
        # refused (see ``repro.cache.persist.VerifyLedger``); a record
        # ``verify_catalog`` drops counts as refused too.
        self.verify_hashed = 0  # guarded-by: _lock
        self.verify_trusted = 0  # guarded-by: _lock
        self.verify_failed = 0  # guarded-by: _lock
        # Encodes observed upstream: of a module never held before, and of
        # one the store once held and could not give back.
        self.first_encodes = 0  # guarded-by: _lock
        self.reencodes = 0  # guarded-by: _lock
        self.spills = 0  # guarded-by: _lock
        self.spill_bytes = 0  # guarded-by: _lock
        self.spill_errors = 0  # guarded-by: _lock
        self.spill_ms_total = 0.0  # guarded-by: _lock
        self.maintenance_runs = 0  # guarded-by: _lock

    def set_miss_fetcher(self, fn) -> None:
        """Install (or clear, with ``None``) the local-miss hook."""
        self._miss_fetcher = fn

    def add_fetch_error_listener(self, fn) -> None:
        """Register ``fn(key, exc)``, called (outside the store lock) each
        time the miss fetcher raises. The runtime uses it to export
        per-reason error counters."""
        with self._lock:
            self._fetch_error_listeners.append(fn)

    def _run_miss_fetcher(self, key: CacheKey):
        """Invoke the miss fetcher, degrading a raised exception into an
        ordinary miss (``None`` → re-encode upstream) after recording it.

        A fetcher blowing up mid-fetch (peer died, socket reset, codec
        mismatch) must not take the serve path down with it — re-encoding
        locally is always a correct fallback. Runs outside the store lock,
        like the fetcher itself.
        """
        fetcher = self._miss_fetcher
        if fetcher is None:
            return None
        try:
            kv = fetcher(key)
        except Exception as exc:
            with self._lock:
                self.fetch_stats.fetch_errors += 1
                listeners = list(self._fetch_error_listeners)
            for listener in listeners:
                listener(key, exc)
            return None
        with self._lock:
            if kv is None:
                self.fetch_stats.misses += 1
            else:
                self.fetch_stats.hits += 1
        return kv

    def tier(self, name: str) -> CacheTier:
        if name == "gpu":
            return self.gpu
        if name == "cpu":
            return self.cpu
        raise KeyError(f"unknown tier {name!r}; expected 'gpu' or 'cpu'")

    def put(
        self, key: CacheKey, kv: ModuleKV, tier: str = "gpu", pinned: bool = False
    ) -> CacheEntry:
        """Store in ``tier``, falling back to DRAM if the fast tier cannot
        fit it, and remember the key's size.

        The whole attempt-then-fallback sequence runs under the shared
        lock so a concurrent ``fetch`` never observes the entry missing
        from both tiers midway.
        """
        with self._lock:
            try:
                entry = self.tier(tier).put(key, kv, pinned=pinned)
            except CapacityError:
                if tier != "gpu":
                    raise
                entry = self.cpu.put(key, kv, pinned=pinned)
            self._size_hints[key] = entry.nbytes
            return entry

    # ------------------------------------------------------------------
    # eviction: drop snapshot-backed cold victims, demote, spill the rest

    def _on_gpu_evict(self, entry: CacheEntry) -> None:  # holds-lock: store
        key = entry.key
        with self._lock:
            backed = key in self._catalog  # attached or spilled alike
            if self.placement.should_drop(key, entry.nbytes, self.clock(), backed):
                return  # the snapshot pages it back in on demand
            try:
                self.cpu.put(key, entry.kv, pinned=entry.pinned)
            except CapacityError:
                # No DRAM tier, or every DRAM entry pinned: the victim
                # leaves the last resident tier right here.
                self._spill(entry)

    def _spill(self, entry: CacheEntry) -> None:  # holds-lock: store
        """Write back a capacity victim leaving the last resident tier,
        unless something on disk already backs it.

        Synchronous, at the eviction that would have lost the entry:
        whether a key is on disk when it is next wanted then depends on
        the request order alone, never on timing. It runs under the store
        lock (eviction happens inside ``CacheTier.put``), which the write
        holds for a few milliseconds — once per module per process, since
        a cataloged key's later evictions return at the first line; the
        per-request path, ``_page_in``, hashes and faults outside the
        lock. TTL victims never get here (``_expire`` skips
        ``on_evict``: staleness follows an entry to every tier). A store
        with no ``snapshot_dir``, a stand-in payload with no tensors, or a
        failed write drops the entry."""
        key = entry.key
        with self._lock:
            if key in self._catalog:
                return
        if self.snapshot_dir is None or not isinstance(
            entry.kv, (ModuleKV, CompressedModuleKV)
        ):
            return
        started = time.perf_counter()
        try:
            self.snapshot_dir.mkdir(parents=True, exist_ok=True)
            record = write_catalog_entry(self.snapshot_dir, key, entry.kv)
        except OSError:
            with self._lock:
                self.spill_errors += 1
            return
        record["spilled"] = True  # ours to unlink when the text changes
        with self._lock:
            self._catalog[key] = record
            self.spills += 1
            self.spill_bytes += catalog_entry_nbytes(record)
            self.spill_ms_total += (time.perf_counter() - started) * 1e3
        self.placement.note_spill()

    # ------------------------------------------------------------------
    # the tier walk

    def fetch(self, key: CacheKey) -> FetchResult | None:
        now = self.clock()
        self.placement.record_demand(key, now)
        with self._lock:
            entry = self.gpu.get(key)
            if entry is not None:
                return FetchResult(entry=entry, tier="gpu", source="gpu")
            entry = self.cpu.get(key)
        if entry is not None:
            # DRAM hit: placement decides whether the expected demand
            # justifies paying the promotion copy now.
            if self.placement.should_promote(
                key, entry.nbytes, now, src_tier=TIER_CPU, dst_tier=TIER_GPU
            ):
                self.prefetch([key])
            return FetchResult(entry=entry, tier="cpu", source="cpu")
        found = self._page_in(key)
        if found is not None:
            return found
        # Peer tier: the miss fetcher, deliberately outside the lock (it
        # may block on I/O), with its RTT observed so the cost model
        # tracks the live deployment.
        with self._lock:
            removals = self._removals
        started = time.perf_counter()
        kv = self._run_miss_fetcher(key)
        if kv is None:
            return None  # encode upstream; observe_reencode prices it
        self.cost_model.observe_peer_rtt(time.perf_counter() - started)
        with self._lock:
            if self._removals != removals:
                # A text changed while the peer answered, and its states
                # may be the old text's: a miss, like a forgotten record.
                return None
            return self._install(key, kv, "peer")

    def _install(self, key: CacheKey, kv, source: str) -> FetchResult:
        """``put`` into the fast tier (DRAM if it cannot fit) and report
        where the entry landed — one critical section, so nothing can
        evict it in between."""
        with self._lock:
            entry = self.put(key, kv)
            tier = "gpu" if self.gpu.peek(key) is entry else "cpu"
        return FetchResult(entry=entry, tier=tier, source=source)

    def _page_in(self, key: CacheKey, *, prefetch: bool = False) -> FetchResult | None:
        """Materialize ``key`` from the snapshot tier, if cataloged, into
        the fast tier (a demand fetch) or DRAM (a prefetch).

        Loading runs outside the store lock — it faults pages and, for a
        payload file whose state is not the one its digest last matched
        at, hashes the sparse digest. Installing runs under it, and only
        if the catalog still holds the record that was loaded: a
        ``remove_matching`` in between (the module's text changed) makes
        this a miss rather than putting the old text's states back. A
        refused payload drops out of the catalog (its verified states
        with it) so the store stops retrying it."""
        with self._lock:
            record = self._catalog.get(key)
            if record is None:
                return None
            ledger = VerifyLedger(dict(record.get("verified", ())))
        kv = load_catalog_entry(self.snapshot_dir, record, ledger=ledger)
        with self._lock:
            self.verify_hashed += ledger.hashed
            self.verify_trusted += ledger.trusted
            self.verify_failed += ledger.failed
            if self._catalog.get(key) is not record:
                return None  # forgotten (or replaced) while it loaded
            if kv is None:
                del self._catalog[key]
                self.snapshot_stats.misses += 1
                return None
            record["verified"] = ledger.states
            if not prefetch:
                self.snapshot_stats.hits += 1
                return self._install(key, kv, "snapshot")
            self.prefetch_page_ins += 1
            try:
                # Land prefetches in DRAM; the promote path moves them up
                # on first demand if placement judges it worthwhile.
                entry = self.put(key, kv, tier="cpu")
            except CapacityError:
                return None  # every resident entry outranks the prediction
            return FetchResult(entry=entry, tier="cpu", source="snapshot")

    def verify_catalog(self) -> int:
        """Check every cataloged payload file — attached and spilled —
        against its full SHA-256 and drop each record that fails, with any
        resident copy of its key (the module re-encodes on next use).
        Returns the number of records dropped.

        Hashing runs outside the store lock. A failure drops the record
        only if the catalog still holds that same record object (the
        ``_page_in`` rule), so a text edit that lands mid-sweep is never
        undone; it counts in ``verify_failed``. The cluster worker runs
        this on a daemon thread when its store has a ``snapshot_dir``."""
        with self._lock:
            records = list(self._catalog.items())
        dropped = 0
        for key, record in records:
            fault = catalog_entry_fault(self.snapshot_dir, record)
            if fault is None:
                continue
            with self._lock:
                if self._catalog.get(key) is not record:
                    continue  # forgotten (or replaced) while it hashed
                del self._catalog[key]
                for tier in (self.gpu, self.cpu):
                    if key in tier:
                        tier.remove(key)
                self.verify_failed += 1
            dropped += 1
            warnings.warn(f"digest sweep dropping {key.tag()}: {fault}", stacklevel=2)
        return dropped

    def snapshot_backed(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._catalog

    def observe_reencode(self, key: CacheKey, tokens: int, seconds: float) -> None:
        """Record a measured module encode (the most expensive tier's
        cost). Every encode feeds the cost model; only one of a key this
        store has held counts as a *re*-encode — a first encode is the
        price of admission, a re-encode is a loss."""
        self.cost_model.observe_reencode(tokens, seconds)
        with self._lock:
            if key in self._size_hints:
                self.reencodes += 1
            else:
                self.first_encodes += 1

    def peek(self, key: CacheKey) -> CacheEntry | None:
        """Both-tier lookup without touching statistics, recency, or the
        miss fetcher — what a peer exporter serves from."""
        with self._lock:
            return self.gpu.peek(key) or self.cpu.peek(key)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self.gpu or key in self.cpu

    def total_bytes(self) -> int:
        return self.gpu.used_bytes + self.cpu.used_bytes

    def mapped_bytes(self) -> int:
        """Snapshot-mapped bytes across both tiers (see
        :meth:`CacheTier.mapped_bytes`)."""
        with self._lock:
            return self.gpu.mapped_bytes() + self.cpu.mapped_bytes()

    def remove_matching(self, schema: str, module: str | None = None) -> int:
        """Drop every entry of ``schema`` (optionally one module) from
        every tier — the storage half of :meth:`PromptCache.invalidate`.

        Resident entries go, and so does the snapshot tier's catalog
        record, or the next DRAM miss would page the old text's states
        back in. Size hints and placement demand go with them; payload
        files are unlinked only where this store spilled them (an
        attached snapshot belongs to whoever saved it). Returns the
        number of resident entries and catalog records removed."""

        def matches(key: CacheKey) -> bool:
            return key.schema == schema and (module is None or key.module == module)

        removed = 0
        with self._lock:
            self._removals += 1
            for tier in (self.gpu, self.cpu):
                for key in tier.keys():
                    if matches(key):
                        tier.remove(key)
                        removed += 1
            doomed = [key for key in {*self._catalog, *self._size_hints} if matches(key)]
            for key in doomed:
                self._size_hints.pop(key, None)
                record = self._catalog.pop(key, None)
                if record is None:
                    continue
                removed += 1
                if record.get("spilled"):
                    for info in record["files"].values():
                        (self.snapshot_dir / info["file"]).unlink(missing_ok=True)
        self.placement.forget(doomed)
        return removed

    def sweep_expired(self) -> int:
        """Expire idle entries in both tiers; returns the total dropped."""
        with self._lock:
            return self.gpu.sweep_expired() + self.cpu.sweep_expired()

    def prefetch(self, keys: list[CacheKey]) -> int:
        """Promote DRAM-resident modules into the fast tier ahead of use —
        the union-aware prefetching the paper floats in §3.2.3. Returns how
        many modules were promoted; missing or already-resident keys are
        skipped, and promotion stops silently when the fast tier is full of
        pinned entries."""
        promoted = 0
        with self._lock:
            for key in keys:
                if key in self.gpu:
                    continue
                entry = self.cpu.peek(key)
                if entry is None:
                    continue
                try:
                    self.gpu.put(key, entry.kv, pinned=entry.pinned)
                except CapacityError:
                    break
                promoted += 1
        return promoted

    # ------------------------------------------------------------------
    # maintenance: TTL sweep + predictive prefetch

    def _candidates(self) -> dict[CacheKey, tuple[str, int]]:
        """Keys with live demand that are *not* resident locally, mapped to
        where they can be pulled from and their size."""
        candidates: dict[CacheKey, tuple[str, int]] = {}
        peer_ok = self.peer_prefetch is not None
        with self._lock:
            for key in self.placement.tracked_keys():
                if key in self:
                    continue
                record = self._catalog.get(key)
                hint = self._size_hints.get(key)
                if record is not None:
                    candidates[key] = ("snapshot", catalog_entry_nbytes(record))
                elif peer_ok and hint is not None:
                    candidates[key] = ("peer", hint)
        return candidates

    def maintenance(self, now: float | None = None) -> dict:
        """One idle-time tick: sweep expired entries, then issue budgeted
        prefetch pulls for keys predicted to arrive soon. Called from the
        live server's spare-capacity iterations and its periodic upkeep
        (never from the request path). With an empty catalog and no peer
        hook there is nothing colder than DRAM to pull from, and the tick
        is the sweep alone."""
        swept = self.sweep_expired()
        with self._lock:
            self.maintenance_runs += 1
            idle = not self._catalog and self.peer_prefetch is None
        pulled = issued = 0
        if not idle:
            now = self.clock() if now is None else now
            for action in self.prefetcher.plan(self._candidates(), now):
                if action.source == "snapshot":
                    if self._page_in(action.key, prefetch=True) is not None:
                        pulled += 1
                elif self.peer_prefetch is not None and self.peer_prefetch(action.key):
                    issued += 1
        return {"swept": swept, "prefetched": pulled, "peer_issued": issued}

    # ------------------------------------------------------------------
    # observability

    def residency_tags(self, limit: int = 256) -> list[str]:
        """Module tags this store can serve without re-encoding: resident
        entries first (both tiers), then snapshot-cataloged ones, capped
        at ``limit`` for the heartbeat payload."""
        tags: list[str] = []
        seen: set[str] = set()
        with self._lock:
            key_groups = (self.gpu.keys(), self.cpu.keys(), list(self._catalog))
        for keys in key_groups:
            for key in keys:
                tag = key.tag()
                if tag in seen:
                    continue
                seen.add(tag)
                tags.append(tag)
                if len(tags) >= limit:
                    return tags
        return tags

    def fabric_snapshot(self) -> dict:
        """One structured view of every tier, placement and prefetch, for
        the CLI and metrics."""
        with self._lock:
            tiers = {
                "gpu": vars(self.gpu.stats).copy(),
                "cpu": vars(self.cpu.stats).copy(),
                "snapshot": vars(self.snapshot_stats).copy(),
                "peer": vars(self.fetch_stats).copy(),
            }
            counters = {
                "catalog_entries": len(self._catalog),
                "prefetch_page_ins": self.prefetch_page_ins,
                "verify_hashed": self.verify_hashed,
                "verify_trusted": self.verify_trusted,
                "verify_failed": self.verify_failed,
                "first_encodes": self.first_encodes,
                "reencodes": self.reencodes,
                "spills": self.spills,
                "spill_bytes": self.spill_bytes,
                "spill_errors": self.spill_errors,
                "spill_ms_total": self.spill_ms_total,
                "maintenance_runs": self.maintenance_runs,
            }
        return {
            "tiers": tiers,
            **counters,
            "costs": self.cost_model.snapshot(),
            "placement": self.placement.snapshot(),
            "prefetch": self.prefetcher.snapshot(),
        }
