"""FabricStore: the five-tier cache fabric behind one store facade.

``FabricStore`` extends the two-tier :class:`ModuleCacheStore` with the
rest of the storage hierarchy the paper leaves to future work (§storage
hierarchy): a mapped v2 snapshot directory as a third, disk-backed tier;
the cluster peer plane (the existing miss-fetcher hook) as a fourth; and
encode as the tier of last resort, paid only by a module the fabric has
never held. A ``fetch`` walks them hot-to-cold:

    gpu hit → cpu hit (cost-model promote) → snapshot page-in →
    peer fetch → None (caller encodes; the cost is observed)

The snapshot tier is written as well as read: when a capacity victim
leaves the DRAM tier and nothing on disk backs it, the fabric *spills*
it — the same v2 payload ``save_store`` writes, digests included — and
catalogs it, so the last copy of an encoded module is never thrown away
and the next fetch is an ordinary verified page-in. A page-in opens each
payload file once, hashes that descriptor's sparse digest unless the file
is in exactly the state the digest last matched at (remembered on the
catalog record, never for a file under two seconds old), and maps the
descriptor it checked. The catalog of spilled payloads lives in memory and
dies with the process; ``index.json`` is never rewritten.
``remove_matching`` (a module's text changed) forgets catalog records
with the resident entries, so no tier can hand back the old text's states.

Because it *is* a ``ModuleCacheStore``, everything that consumes the
store today — ``PromptCache``, ``ClusterWorker``, snapshot save/load,
metrics wiring — works unchanged; the fabric only changes what a full
miss means. Placement (promote/demote/drop) and predictive prefetch are
delegated to :mod:`repro.fabric.placement` and
:mod:`repro.fabric.prefetch`; the periodic ``maintenance`` entry point is
driven by the live server's spare-capacity iterations so prefetch never
competes with decode.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.cache.compress import CompressedModuleKV
from repro.cache.persist import (
    VerifyLedger,
    catalog_entry_nbytes,
    load_catalog_entry,
    snapshot_catalog,
    write_catalog_entry,
)
from repro.cache.storage import (
    CacheEntry,
    CacheKey,
    FetchResult,
    ModuleCacheStore,
    TierStats,
)
from repro.fabric.costs import TIER_CPU, TIER_GPU, TierCostModel
from repro.fabric.placement import PlacementEngine
from repro.fabric.prefetch import PredictivePrefetcher
from repro.hw.allocator import CapacityError
from repro.llm.kv import ModuleKV


class FabricStore(ModuleCacheStore):
    """Tiered cache fabric: DRAM tiers + snapshot + peers + re-encode."""

    def __init__(
        self,
        gpu_capacity_bytes: int | None = None,
        cpu_capacity_bytes: int | None = None,
        *,
        snapshot_dir: str | Path | None = None,
        cost_model: TierCostModel | None = None,
        placement: PlacementEngine | None = None,
        prefetcher: PredictivePrefetcher | None = None,
        prefetch_bytes_per_s: float = 64e6,
        horizon_s: float = 2.0,
        peer_prefetch=None,
        clock=time.monotonic,
        **store_kwargs,
    ) -> None:
        super().__init__(
            gpu_capacity_bytes, cpu_capacity_bytes, clock=clock, **store_kwargs
        )
        self.clock = clock
        self.cost_model = cost_model or TierCostModel()
        self.placement = placement or PlacementEngine(
            self.cost_model, horizon_s=horizon_s
        )
        self.prefetcher = prefetcher or PredictivePrefetcher(
            self.placement, bytes_per_s=prefetch_bytes_per_s
        )
        # Async peer pull hook: ``fn(key) -> bool`` (issued?). The cluster
        # worker wires this to its event-loop peer fetch; standalone
        # fabrics leave it None and prefetch only from the snapshot.
        self.peer_prefetch = peer_prefetch
        self.snapshot_dir = Path(snapshot_dir) if snapshot_dir is not None else None
        # Records carry two in-memory fields index.json never sees:
        # ``spilled`` (ours to unlink) and ``verified`` — the fstat states
        # at which each payload file's sparse digest last matched
        # (``VerifyLedger.states``), read and replaced under the lock like
        # the catalog they sit on and forgotten with the record.
        self._catalog: dict[CacheKey, dict] = {}  # guarded-by: _lock
        if self.snapshot_dir is not None and (self.snapshot_dir / "index.json").exists():
            catalog = snapshot_catalog(self.snapshot_dir)
            with self._lock:
                self._catalog = catalog
        # Size of every key this fabric has held (recorded at insertion),
        # for budgeting pulls of entries no longer resident anywhere local
        # — and what tells a re-encode from a module's first encode.
        self._size_hints: dict[CacheKey, int] = {}  # guarded-by: _lock
        # Snapshot-tier ledger: hits = demand fetches served by a page-in,
        # misses = a cataloged payload refused (corrupt, truncated, gone).
        # Maintenance prefetches are page-ins too but nobody's hit.
        self.snapshot_stats = TierStats()  # guarded-by: _lock
        self.prefetch_page_ins = 0  # guarded-by: _lock
        # Payload files a page-in hashed / mapped on a remembered state /
        # refused (see ``repro.cache.persist.VerifyLedger``).
        self.verify_hashed = 0  # guarded-by: _lock
        self.verify_trusted = 0  # guarded-by: _lock
        self.verify_failed = 0  # guarded-by: _lock
        # Encodes observed upstream: of a module never held before, and of
        # one the fabric once held and could not give back.
        self.first_encodes = 0  # guarded-by: _lock
        self.reencodes = 0  # guarded-by: _lock
        self.spills = 0  # guarded-by: _lock
        self.spill_bytes = 0  # guarded-by: _lock
        self.spill_errors = 0  # guarded-by: _lock
        self.spill_ms_total = 0.0  # guarded-by: _lock
        self.maintenance_runs = 0  # guarded-by: _lock
        if store_kwargs.get("demote_on_evict", True):
            # Replace the unconditional demote lambda: placement now
            # decides drop-vs-demote per victim.
            self.gpu.on_evict = self._on_gpu_evict
        self.cpu.on_evict = self._on_dram_evict

    def put(
        self, key: CacheKey, kv, tier: str = "gpu", pinned: bool = False
    ) -> CacheEntry:
        entry = super().put(key, kv, tier=tier, pinned=pinned)
        with self._lock:
            self._size_hints[key] = entry.nbytes
        return entry

    # ------------------------------------------------------------------
    # eviction policy: drop snapshot-backed cold victims, spill the rest

    def _on_gpu_evict(self, entry) -> None:
        # holds-lock: store
        key = entry.key
        with self._lock:
            backed = key in self._catalog  # attached or spilled alike
        if self.placement.should_drop(key, entry.nbytes, self.clock(), backed):
            return  # snapshot pages it back in on demand
        self.cpu.put(key, entry.kv, pinned=entry.pinned)

    def _on_dram_evict(self, entry) -> None:
        # holds-lock: store
        """Write back a DRAM capacity victim that nothing on disk backs.

        Synchronous, at the eviction that would have lost the entry:
        whether a key is on disk when it is next wanted then depends on
        the request order alone, never on timing. It runs under the store
        lock (eviction happens inside ``CacheTier.put``), which the write
        holds for a few milliseconds — once per module per process, since
        a cataloged key's later evictions return at the first line; the
        per-request path, ``_page_in``, hashes and faults outside the
        lock. TTL victims never get here (``_expire`` skips
        ``on_evict``: staleness follows an entry to every tier). A fabric
        with no ``snapshot_dir``, a stand-in payload with no tensors, or a
        failed write loses the entry exactly as before."""
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

    def remove_matching(self, schema: str, module: str | None = None) -> int:
        """Drop every entry of ``schema`` (optionally one module) from
        *every* tier: the resident ones, and the snapshot tier's catalog
        record — or the next DRAM miss would page the old text's states
        back in. Size hints and placement demand go with them; payload
        files are unlinked only where this fabric spilled them (an
        attached snapshot belongs to whoever saved it)."""
        with self._lock:
            removed = super().remove_matching(schema, module)
            doomed = [
                key
                for key in {*self._catalog, *self._size_hints}
                if key.schema == schema and (module is None or key.module == module)
            ]
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
        # Snapshot tier: map the entry's payload in from disk.
        kv = self._page_in(key)
        if kv is not None:
            return self._install(key, kv, source="snapshot")
        # Peer tier: the cluster miss-fetcher, with its RTT observed so
        # the cost model tracks the live deployment.
        started = time.perf_counter()
        kv = self._run_miss_fetcher(key)
        if kv is not None:
            self.cost_model.observe_peer_rtt(time.perf_counter() - started)
            return self._install(key, kv, source="peer")
        return None  # encode upstream; observe_reencode prices it

    def _install(self, key: CacheKey, kv, *, source: str) -> FetchResult | None:
        self.put(key, kv, tier="gpu")
        with self._lock:
            for tier in (self.gpu, self.cpu):
                entry = tier.peek(key)
                if entry is not None:
                    return FetchResult(entry=entry, tier=tier.name, source=source)
        return None  # evicted in the gap; treat as a miss

    def _page_in(self, key: CacheKey, *, prefetch: bool = False):
        """Materialize ``key`` from the mapped snapshot, if cataloged.

        Runs outside the store lock — it faults pages and, for a payload
        file whose state is not the one its digest last matched at, hashes
        the sparse digest. A refused payload drops out of the catalog (its
        verified states with it) so the fabric stops retrying it."""
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
            if kv is None:
                if self._catalog.get(key) is record:
                    del self._catalog[key]
                self.snapshot_stats.misses += 1
            else:
                record["verified"] = ledger.states
                if prefetch:
                    self.prefetch_page_ins += 1
                else:
                    self.snapshot_stats.hits += 1
        return kv

    def snapshot_backed(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._catalog

    def observe_reencode(self, key: CacheKey, tokens: int, seconds: float) -> None:
        """Record a measured module encode (the most expensive tier's
        cost). Every encode feeds the cost model; only one of a key this
        fabric has held counts as a *re*-encode — a first encode is the
        price of admission, a re-encode is a loss."""
        self.cost_model.observe_reencode(tokens, seconds)
        with self._lock:
            if key in self._size_hints:
                self.reencodes += 1
            else:
                self.first_encodes += 1

    # ------------------------------------------------------------------
    # maintenance: TTL sweep + predictive prefetch

    def _candidates(self) -> dict[CacheKey, tuple[str, int]]:
        """Keys with live demand that are *not* resident locally, mapped to
        where they can be pulled from and their size."""
        candidates: dict[CacheKey, tuple[str, int]] = {}
        peer_ok = self.peer_prefetch is not None
        for key in self.placement.tracked_keys():
            with self._lock:
                if self.gpu.peek(key) is not None or self.cpu.peek(key) is not None:
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
        live server's spare-capacity scheduler iterations (never from the
        request path)."""
        now = self.clock() if now is None else now
        swept = self.sweep_expired()
        actions = self.prefetcher.plan(self._candidates(), now)
        pulled = issued = 0
        for action in actions:
            if action.source == "snapshot":
                kv = self._page_in(action.key, prefetch=True)
                if kv is None:
                    continue
                try:
                    # Land prefetches in DRAM; the promote path moves them
                    # up on first demand if placement judges it worthwhile.
                    entry = self.cpu.put(action.key, kv)
                except CapacityError:
                    continue  # every resident entry outranks the prediction
                with self._lock:
                    self._size_hints[action.key] = entry.nbytes
                pulled += 1
            elif action.source == "peer":
                if self.peer_prefetch is not None and self.peer_prefetch(action.key):
                    issued += 1
        with self._lock:
            self.maintenance_runs += 1
        return {"swept": swept, "prefetched": pulled, "peer_issued": issued}

    # ------------------------------------------------------------------
    # observability

    def residency_tags(self, limit: int = 256) -> list[str]:
        """Module tags this worker can serve without re-encoding: resident
        entries first (both DRAM tiers), then snapshot-mapped ones, capped
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
        """One structured view of the whole fabric, for CLI/metrics."""
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
