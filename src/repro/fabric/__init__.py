"""repro.fabric — the policy half of the module store's tier hierarchy.

:class:`~repro.cache.storage.ModuleCacheStore` walks its tiers (fast,
DRAM, mapped v2 snapshot, cluster peers, re-encode) itself; this package
holds what decides between them: per-tier cost models (``costs``), the
promote/demote/drop decisions (``placement``) and budgeted predictive
prefetch (``prefetch``). See ``docs/ARCHITECTURE.md`` Layer 11.

``FabricStore`` is an alias of ``ModuleCacheStore`` kept for callers of
the name, resolved on first use so that importing this package never
imports ``repro.cache`` (the store imports this package).
"""

from repro.fabric.costs import (
    TIER_CPU,
    TIER_GPU,
    TIER_ORDER,
    TIER_PEER,
    TIER_REENCODE,
    TIER_SNAPSHOT,
    TierCostModel,
    analytic_cost_model,
)
from repro.fabric.placement import PlacementEngine
from repro.fabric.prefetch import ByteBudget, PredictivePrefetcher, PrefetchAction

__all__ = [
    "ByteBudget",
    "PlacementEngine",
    "PredictivePrefetcher",
    "PrefetchAction",
    "TIER_CPU",
    "TIER_GPU",
    "TIER_ORDER",
    "TIER_PEER",
    "TIER_REENCODE",
    "TIER_SNAPSHOT",
    "TierCostModel",
    "analytic_cost_model",
]


def __getattr__(name: str):
    if name == "FabricStore":
        from repro.cache.storage import ModuleCacheStore

        return ModuleCacheStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
