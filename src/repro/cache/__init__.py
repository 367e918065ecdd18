"""Prompt Cache core: layout, encoding, storage, and cached inference."""

from repro.cache.batch import BatchFootprint, BatchRequest, batch_footprint, max_batch_size
from repro.cache.persist import load_store, save_store
from repro.cache.engine import (
    BatchServeResult,
    PromptCache,
    RegisteredSchema,
    ServeResult,
)
from repro.cache.session import GenerationSession, SessionResult, Turn, start_session
from repro.cache.encoder import drop_param_slots, encode_module, encode_scaffold
from repro.cache.layout import (
    ModuleLayout,
    ParamSlot,
    SchemaLayout,
    layout_schema,
)
from repro.cache.storage import (
    CacheEntry,
    CacheKey,
    CacheTier,
    CapacityError,
    FetchResult,
    ModuleCacheStore,
    SOLO_VARIANT,
    TierStats,
)

__all__ = [
    "PromptCache", "ServeResult", "RegisteredSchema", "BatchServeResult",
    "GenerationSession", "Turn", "SessionResult", "start_session",
    "BatchRequest", "BatchFootprint", "batch_footprint", "max_batch_size",
    "save_store", "load_store",
    "encode_module", "encode_scaffold", "drop_param_slots",
    "SchemaLayout", "ModuleLayout", "ParamSlot", "layout_schema",
    "ModuleCacheStore", "CacheTier", "CacheKey", "CacheEntry", "CapacityError",
    "FetchResult", "TierStats", "SOLO_VARIANT",
]
