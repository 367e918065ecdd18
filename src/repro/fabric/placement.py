"""Cost-model placement: promote/demote/drop decisions per module.

The placement engine keeps a small demand ledger — per-key hit counts and
an EWMA of inter-arrival gaps — and turns tier moves into an expected-value
question: a move is worth making when the per-fetch saving times the hits
expected inside the planning horizon exceeds the one-time move cost.

    benefit = (cost(src) - cost(dst)) × expected_hits(horizon)
    promote ⇔ benefit > move_cost

Demotion asks the mirror question on eviction: a capacity victim that is
*snapshot-backed* and cold is dropped outright (restoring it from the
mapped snapshot later is cheaper than holding DRAM now), while hot or
unbacked victims keep the classic demote-to-DRAM path. A DRAM victim has
no decision to make — the store writes it back to the snapshot tier if it
is not there yet — and is only counted here (``spills``).

All ledger state lives under its own ``fabric.placement`` ordered lock,
declared after ``store`` so fetch paths may consult placement while
holding the store lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.locks import ordered_lock
from repro.fabric.costs import TIER_CPU, TIER_GPU, TierCostModel


@dataclass
class KeyDemand:
    """Observed demand for one cache key."""

    hits: int = 0
    last_seen: float = 0.0
    interarrival_s: float | None = None  # EWMA of gaps between hits


@dataclass
class PlacementStats:
    promotions: int = 0
    demotions: int = 0
    drops: int = 0
    spills: int = 0  # DRAM victims written back to the snapshot tier
    holds: int = 0  # hit on the slow tier judged not worth promoting


class PlacementEngine:
    """Ranks tiers per module and decides moves on hits and evictions."""

    def __init__(
        self,
        cost_model: TierCostModel | None = None,
        *,
        horizon_s: float = 2.0,
        cold_factor: float = 4.0,
        max_tracked: int = 4096,
        alpha: float = 0.25,
    ) -> None:
        self.cost_model = cost_model or TierCostModel()
        # How far ahead the expected-hits projection looks; also the
        # prefetcher's lead window.
        self.horizon_s = horizon_s
        # An entry is "cold" when its expected gap exceeds
        # ``cold_factor × horizon_s`` — the threshold for drop-not-demote.
        self.cold_factor = cold_factor
        self.max_tracked = max_tracked
        self.alpha = alpha
        self._lock = ordered_lock("fabric.placement", after=("store",))
        self._demand: dict = {}  # guarded-by: _lock
        self.stats = PlacementStats()  # guarded-by: _lock

    # ------------------------------------------------------------------
    # demand ledger

    def record_demand(self, key, now: float) -> None:
        """Fold one request for ``key`` at time ``now`` into the ledger."""
        with self._lock:
            demand = self._demand.get(key)
            if demand is None:
                if len(self._demand) >= self.max_tracked:
                    self._evict_coldest_locked(now)
                demand = self._demand[key] = KeyDemand()
            if demand.hits > 0:
                gap = max(now - demand.last_seen, 0.0)
                if demand.interarrival_s is None:
                    demand.interarrival_s = gap
                else:
                    demand.interarrival_s += self.alpha * (gap - demand.interarrival_s)
            demand.hits += 1
            demand.last_seen = now

    def _evict_coldest_locked(self, now: float) -> None:
        # Re-entrant: always called with fabric.placement already held.
        with self._lock:
            coldest = max(
                self._demand, key=lambda k: now - self._demand[k].last_seen
            )
            del self._demand[coldest]

    def forget(self, keys) -> None:
        """Drop the demand history of ``keys`` (their text changed: the
        old arrival pattern predicts nothing about the new module)."""
        with self._lock:
            for key in keys:
                self._demand.pop(key, None)

    def demand_for(self, key) -> KeyDemand | None:
        with self._lock:
            demand = self._demand.get(key)
            if demand is None:
                return None
            return KeyDemand(
                hits=demand.hits,
                last_seen=demand.last_seen,
                interarrival_s=demand.interarrival_s,
            )

    def tracked_keys(self) -> list:
        with self._lock:
            return list(self._demand)

    def expected_hits(self, key, now: float) -> float:
        """Hits expected for ``key`` inside the planning horizon."""
        with self._lock:
            demand = self._demand.get(key)
            if demand is None:
                return 0.0
            return self._expected_hits_locked(demand, now)

    def _expected_hits_locked(self, demand: KeyDemand, now: float) -> float:
        # Re-entrant: always called with fabric.placement already held.
        gap = demand.interarrival_s
        if gap is None or gap <= 0:
            # One observation: assume the horizon holds one more hit.
            return 1.0
        idle = max(now - demand.last_seen, 0.0)
        if idle > self.cold_factor * max(gap, self.horizon_s):
            return 0.0  # pattern has gone cold; don't extrapolate it
        return self.horizon_s / gap

    # ------------------------------------------------------------------
    # decisions

    def should_promote(
        self, key, nbytes: int, now: float, src_tier: str = TIER_CPU,
        dst_tier: str = TIER_GPU,
    ) -> bool:
        """Is moving ``key`` from ``src_tier`` to ``dst_tier`` worth it now?"""
        cost = self.cost_model
        saving = cost.fetch_cost_s(src_tier, nbytes) - cost.fetch_cost_s(
            dst_tier, nbytes
        )
        if saving <= 0:
            return False
        move_cost = cost.fetch_cost_s(src_tier, nbytes)  # the move pays one src read
        with self._lock:
            demand = self._demand.get(key)
            hits = self._expected_hits_locked(demand, now) if demand else 0.0
            worth = saving * hits > move_cost
            if worth:
                self.stats.promotions += 1
            else:
                self.stats.holds += 1
            return worth

    def should_drop(self, key, nbytes: int, now: float, snapshot_backed: bool) -> bool:
        """On capacity eviction: drop instead of demoting to DRAM?

        Only snapshot-backed entries are droppable — their bytes survive in
        the mapped snapshot and page back in at MMAP_PAGEIN rate; an
        unbacked victim would pay a full re-encode, so it always demotes.
        A backed entry is dropped when it is cold (no expected hits inside
        the horizon).
        """
        if not snapshot_backed:
            with self._lock:
                self.stats.demotions += 1
            return False
        with self._lock:
            demand = self._demand.get(key)
            hits = self._expected_hits_locked(demand, now) if demand else 0.0
            drop = hits <= 0.0
            if drop:
                self.stats.drops += 1
            else:
                self.stats.demotions += 1
            return drop

    def note_spill(self) -> None:
        """A DRAM capacity victim was written back rather than lost."""
        with self._lock:
            self.stats.spills += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "tracked_keys": len(self._demand),
                "promotions": self.stats.promotions,
                "demotions": self.stats.demotions,
                "drops": self.stats.drops,
                "spills": self.stats.spills,
                "holds": self.stats.holds,
                "horizon_s": self.horizon_s,
            }
