"""The Prompt Cache engine: schema registration and cached inference.

:class:`PromptCache` ties the substrates together (paper Fig 2):

1. **Register** a schema → lay out position IDs (:mod:`repro.cache.layout`)
   and optionally pre-encode every module (:mod:`repro.cache.encoder`) into
   the module store (:mod:`repro.cache.storage`).
2. **Serve** a prompt → one pipeline behind every entry point: *plan*
   (resolve a PML prompt against its schema, or match raw text against
   the discovered prefixes), *fork* a shared spliced base — the cached
   module KV states by reference (§3.4, §4.2) — and let a :class:`ServeStream`
   prefill only the uncached tokens (parameter arguments + new text) at
   their planned positions and decode. TTFT = splice + suffix prefill,
   replacing the full quadratic prefill (§3.4). The scheduler drives
   streams a chunk and a token at a time; ``serve`` / ``serve_text`` and
   ``serve_batch`` drive them to completion in one call.

:meth:`PromptCache.baseline` runs the exact same token content through the
ordinary KV-cache path, which is how the accuracy and latency comparisons
pair up cached vs baseline runs.
"""

from __future__ import annotations

import operator
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.analysis.locks import ordered_lock
from repro.cache.encoder import (
    _arena_from_cache,
    drop_param_slots,
    encode_module,
    encode_scaffold,
)
from repro.cache.layout import ModuleLayout, SchemaLayout, layout_schema
from repro.cache.storage import CacheKey, ModuleCacheStore, SOLO_VARIANT
from repro.llm.generation import GenerationResult, decode_loop, generate
from repro.llm.sampling import GreedySampler
from repro.llm.kv import KVCache, LayerKV, ModuleKV, alloc_keys, tracked_alloc
from repro.llm.models import TransformerModel
from repro.llm.paged import ForkCache, SplicedKV, physical_bytes
from repro.pml.chat import ChatTemplate, template_for_architecture
from repro.pml.errors import SchemaMismatchError, UnknownSchemaError
from repro.pml.parser import parse_prompt
from repro.pml.prompt import ResolvedPrompt, resolve
from repro.pml.schema import Schema

# Optional splice sanitizers (repro.analysis.sanitize). None in
# production; installed validators see every compiled plan and layout.
_PLAN_VALIDATOR = None
_LAYOUT_VALIDATOR = None


def set_plan_validator(fn) -> None:
    """Install (or clear) a ``validator(plan, layout)`` run on every
    freshly compiled serve plan."""
    global _PLAN_VALIDATOR
    _PLAN_VALIDATOR = fn


def set_layout_validator(fn) -> None:
    """Install (or clear) a ``validator(schema, layout)`` run at schema
    registration and module update."""
    global _LAYOUT_VALIDATOR
    _LAYOUT_VALIDATOR = fn


# Reserved schema namespace for modules mined from live traffic by
# repro.reuse (never a valid PML schema name — parser rejects it).
DISCOVERED_SCHEMA = "__discovered__"

# LRU bounds on the compiled-plan and spliced-base caches.
PLAN_CACHE_SIZE = 256
BASE_CACHE_SIZE = 8


@dataclass(frozen=True)
class DiscoveredModule:
    """A prompt segment promoted from the reuse trie (ISSUE 6).

    Covers tokens ``[start, end)`` of every prompt that begins with the
    promoted prefix; ``token_ids`` is the covered slice. Its cached KV is
    encoded conditioned on the *true* preceding tokens ``[0, start)``
    (the promoted ancestor chain), so splicing the chain and prefilling
    the remainder reproduces a full prefill bit-exactly under causal
    attention — the byte-identity guarantee discovery rides on.
    """

    name: str
    start: int
    end: int
    token_ids: tuple[int, ...]


@dataclass
class RegisteredSchema:
    schema: Schema
    layout: SchemaLayout
    scaffold_variants: dict[str, str] = field(default_factory=dict)
    # module name -> scaffold variant id covering it (used when the whole
    # scaffold set is imported)
    scaffold_sets: list[tuple[str, ...]] = field(default_factory=list)


@dataclass
class ServeResult:
    """Cached-inference outcome plus the latency/occupancy breakdown."""

    output_ids: list[int]
    text: str
    prompt_tokens: int
    cached_tokens: int
    uncached_tokens: int
    ttft_s: float
    splice_s: float  # cache lookup + KV concatenation ("memcpy")
    # Uncached-token prefill. Under the continuous scheduler a stream's last
    # chunk shares a packed forward with other streams' and each is
    # charged that whole call's wall time — as a batched decode step is
    # charged to every sequence in it.
    suffix_s: float
    step_times_s: list[float] = field(default_factory=list)
    tier_tokens: dict[str, int] = field(default_factory=dict)

    @property
    def ttst_s(self) -> float:
        return float(np.mean(self.step_times_s)) if self.step_times_s else 0.0


@dataclass
class BatchServeResult:
    """Batch outcome plus the §3.4 memory picture."""

    results: list[ServeResult]
    physical_bytes: int  # distinct parts once, plus every tail
    duplicated_bytes: int  # what per-request private caches would cost
    shared_groups: int  # distinct module sequences in the batch

    @property
    def memory_savings(self) -> float:
        if self.duplicated_bytes == 0:
            return 0.0
        return 1.0 - self.physical_bytes / self.duplicated_bytes

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


class ServeStream:
    """One request's serve, resumable between prefill chunks and decode steps.

    Every serve in this package is a stream: a planner names the cached
    prefix, :meth:`PromptCache._open` forks the shared spliced base
    holding it, and the stream owns that fork until it is finished or
    aborted. Its pieces are scheduler-sized, so
    the iteration-level runtime (:mod:`repro.server.scheduler`) can
    interleave many requests over one engine:

    - :meth:`prefill_chunk` names the next up-to-a-budget uncached
      prompt tokens for the scheduler to pack, with other streams'
      chunks, into one forward over every stream's cache, and
      :meth:`prefill_done` takes the outcome back — first-token logits
      when the prompt completes, and the packed call's wall time, which
      ``suffix_s`` charges in full to each stream in it;
      :meth:`prefill_step` is the same step for this stream alone, a
      pack of one;
    - :meth:`next_token` samples one token in :func:`decode_loop`'s
      sample-then-check order; the scheduler feeds the batched forward's
      logits row back through :meth:`set_logits` and, once it has
      sampled from it, the step's wall time through :meth:`charge_step`;
    - :meth:`finish` releases the fork and assembles the
      :class:`ServeResult`; :meth:`abort` releases it on failure or
      shutdown without a result.

    :meth:`PromptCache.serve` / ``serve_text`` :meth:`run` the same stream
    to completion in one call — one :meth:`prefill_step` chunk, then
    ``decode_loop`` — and produce the same greedy tokens: the splice is
    the same, the forwards are the same arithmetic up to how batched
    GEMMs round, only the loop structure differs.

    Where the stream's KV lives: the spliced prefix is the shared base —
    its modules' K/V read in place — and the prefilled suffix is appended
    to the fork's private flat tail. A scheduler that batches decode over a
    :class:`~repro.llm.paged.TailArena` calls :meth:`seat_tail` at the
    stream's first decode step, which moves the tail into an arena row;
    from then on decoded tokens are appended there, and
    ``len(stream.cache)`` counts base and row. Read the private tail
    through :meth:`tail_kv`, wherever it lives. A prompt with nothing
    cached has no base: its stream runs on a private flat cache and is
    never seated.
    """

    def __init__(
        self,
        pc: "PromptCache",
        *,
        cache,
        base: "_SplicedBase | None",
        pending_ids: np.ndarray,
        pending_positions: np.ndarray,
        next_position: int,
        tier_tokens: dict[str, int],
        max_new_tokens: int,
        sampler,
        stop_ids: set[int] | None,
        splice_s: float,
    ) -> None:
        self.pc = pc
        self.cache = cache
        # ChunkAttention grouping key: the _SplicedBase this stream's
        # cache was forked from (identity-compared — two streams holding
        # the same base object read the same K/V) and the spliced-prefix
        # length those shared tokens cover. None for a prompt with
        # nothing cached: no fork to free, never grouped.
        self.shared_group = base
        self.shared_len = len(cache) if base is not None else 0
        self._pending_ids = pending_ids
        self._pending_positions = pending_positions
        self._offset = 0
        self._position = next_position
        self.cached_tokens = len(cache)
        self.tier_tokens = tier_tokens
        self.max_new_tokens = max_new_tokens
        self.sampler = sampler or GreedySampler()
        self.stop_ids = stop_ids or set()
        self.splice_s = splice_s
        self.suffix_s = 0.0
        self.step_times_s: list[float] = []
        self.output_ids: list[int] = []
        self.logits: np.ndarray | None = None
        self.done = False
        self._closed = False

    # -- state -------------------------------------------------------------------

    @property
    def prompt_tokens(self) -> int:
        return self.cached_tokens + len(self._pending_ids)

    @property
    def prefill_remaining(self) -> int:
        """Uncached prompt tokens not yet forwarded."""
        return len(self._pending_ids) - self._offset

    @property
    def decoding(self) -> bool:
        """Prefill complete, more tokens to sample."""
        return self.logits is not None and not self.done

    @property
    def decode_position(self) -> int:
        """Position ID the next decoded token's forward must use."""
        return self._position

    # -- prefill -----------------------------------------------------------------

    def prefill_step(self, max_tokens: int) -> int:
        """Forward up to ``max_tokens`` uncached prompt tokens at their
        planned positions; returns the number consumed. When the last
        chunk lands, the final token's logits become the first sampling
        decision (and a zero-budget request retires immediately)."""
        remaining = self.prefill_remaining
        take = min(max_tokens, remaining)
        if take <= 0:
            return 0
        chunk = slice(self._offset, self._offset + take)
        last = take == remaining
        start = time.perf_counter()
        # Only the prompt's last row is ever sampled from.
        logits = self.pc.model.forward(
            self._pending_ids[chunk], self._pending_positions[chunk],
            [(self.cache, take)], logits=last,
        )
        self.prefill_done(take, logits[0] if last else None, time.perf_counter() - start)
        return take

    def prefill_chunk(self, max_tokens: int) -> tuple[np.ndarray, np.ndarray]:
        """``(token_ids, position_ids)`` of the next up-to-``max_tokens``
        uncached prompt tokens, for a scheduler to pack with other
        streams' chunks into one forward over :attr:`cache`. Nothing
        moves until :meth:`prefill_done`. The positions are checked here,
        so that a prompt the model cannot place fails alone rather than
        with everyone it would have been packed with."""
        chunk = slice(self._offset, self._offset + max_tokens)
        token_ids, positions = self._pending_ids[chunk], self._pending_positions[chunk]
        if token_ids.shape != positions.shape:
            raise ValueError("token_ids and position_ids must have equal shape")
        self.pc.model.check_positions(positions)
        return token_ids, positions

    def prefill_done(self, rows: int, logits: np.ndarray | None, seconds: float) -> None:
        """The packed forward holding this stream's ``rows``-token chunk
        returned: ``logits`` is the chunk's last row — the first sampling
        decision when the prompt is now complete (a zero-budget request
        retires instead) — and ``seconds`` the whole call's wall time,
        charged to every stream in it."""
        self.suffix_s += seconds
        self._offset += rows
        if self.prefill_remaining == 0:
            self.logits = logits
            if self.max_new_tokens <= 0:
                self.done = True

    # -- decode ------------------------------------------------------------------

    def next_token(self) -> tuple[int, bool]:
        """Sample one token (:func:`decode_loop`'s sample-then-check
        order). Returns ``(token, needs_forward)`` — ``needs_forward``
        is False when the stream just retired on a stop token or its
        budget, in which case it must not join the batched forward."""
        assert self.decoding, "next_token on a stream that is not decoding"
        token = self.sampler(self.logits)
        self.output_ids.append(token)
        if token in self.stop_ids or len(self.output_ids) >= self.max_new_tokens:
            self.done = True
        return token, not self.done

    def set_logits(self, row: np.ndarray) -> None:
        """Feed back one batched decode forward: the logits row for this
        stream's token."""
        self.logits = row
        self._position += 1

    def charge_step(self, step_s: float) -> None:
        """Charge one decode step to TTST: the forward that made the
        last :meth:`set_logits` row plus the sampling that read it."""
        self.step_times_s.append(step_s)

    def run(self) -> None:
        """The whole-request driver: the entire suffix as one prefill
        chunk, then the per-sequence reference decode loop (the one
        :func:`~repro.llm.generation.generate` runs) over this stream's
        cache. Leaves the stream ready to :meth:`finish`."""
        self.prefill_step(self.prefill_remaining)
        self.output_ids, self.step_times_s = decode_loop(
            self.pc.model, self.cache, self.logits,
            max_new_tokens=self.max_new_tokens,
            next_position=self._position,
            sampler=self.sampler, stop_ids=self.stop_ids,
        )
        self.done = True

    def seat_tail(self, arena) -> bool:
        """Move the private tail into ``arena`` for batched decode; True
        when the stream is (now or already) seated. Only a fork of a
        spliced base qualifies, and only in the ordinary decode state —
        the next position at or after every cached key, which is what
        lets the arena kernel skip the causal mask. The seat is for life:
        it goes back with the fork in :meth:`abort` / :meth:`finish`."""
        if self.shared_group is None:
            return False
        if self.cache.tail is not None:
            return True
        if self.cache.layers[0].max_position > self._position:
            return False
        return arena.seat(self.cache) is not None

    def tail_kv(self, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, values, positions)`` of everything past the shared
        prefix at ``layer`` — suffix and decoded tokens — read from the
        arena row once seated, from the cache itself before."""
        if self.cache.tail is not None:
            return self.cache.tail.kv(layer)
        kv = self.cache.layers[layer]
        if self.shared_group is not None:  # a fork: its private tail
            base = self.cache.base
            kv = kv.tail if kv.tail is not None else LayerKV(base.n_kv_heads, base.head_dim, 0)
        return kv.keys, kv.values, kv.positions

    # -- completion --------------------------------------------------------------

    def abort(self) -> None:
        """Release the fork — and with it the arena seat, if any —
        (idempotent) without building a result: the failure/shutdown
        path."""
        if not self._closed:
            self._closed = True
            if self.shared_group is not None:
                self.pc._free_fork(self.cache)

    def finish(self) -> ServeResult:
        """Release resources and assemble the :class:`ServeResult`."""
        self.abort()
        return ServeResult(
            output_ids=self.output_ids,
            text=self.pc.tokenizer.decode(self.output_ids, skip_specials=True),
            prompt_tokens=self.prompt_tokens,
            cached_tokens=self.cached_tokens,
            uncached_tokens=len(self._pending_ids),
            ttft_s=self.splice_s + self.suffix_s,
            splice_s=self.splice_s,
            suffix_s=self.suffix_s,
            step_times_s=self.step_times_s,
            tier_tokens=self.tier_tokens,
        )


@dataclass
class _Plan:
    """Everything needed to serve one resolved prompt."""

    # (layout, kv-after-slot-drop-pending, variant) in document order
    modules: list[tuple[ModuleLayout, str]]
    # Uncached work: (token_ids, positions) batches for args + new text
    uncached: list[tuple[np.ndarray, np.ndarray]]
    # What only baseline() reads, kept unconverted until it asks: each
    # selected module's arguments and each new text's (start, token ids).
    args_by_module: dict[str, dict[str, str]]
    texts: list[tuple[int, np.ndarray]]
    next_position: int  # first decode position
    # Fully-cached prompts recompute their highest-positioned token to get
    # first logits: (module name, direct-sequence index) or None.
    recompute_tail: tuple[str, int] | None = None


@dataclass
class PlanCacheStats:
    """Counters for the compiled-plan and spliced-base caches."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    base_hits: int = 0  # serve() reused an already-spliced base
    base_misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class _CompiledPlan:
    """Memoized parse → resolve → plan for one canonical prompt source.

    Everything here is a pure function of the prompt text and the schema
    layout, so entries stay valid until ``register_schema`` /
    ``invalidate`` / ``update_module_text`` touches the schema.
    """

    schema_name: str
    registered: RegisteredSchema
    plan: _Plan
    merged_uncached: tuple[np.ndarray, np.ndarray]
    module_names: frozenset[str]
    baseline_sequence: list[int] | None = None  # lazy, for baseline()


@dataclass
class _SplicedBase:
    """One spliced module sequence every stream naming it forks.

    ``entries`` records each contributing store key with its post-drop
    token count, and ``sources`` the very store objects the base was
    built from: a fork is a hit only while the store still serves those
    objects, so a module re-encoded or paged in again rebuilds the base.
    """

    kv: SplicedKV
    entries: list[tuple[CacheKey, int]]
    sources: tuple
    module_names: frozenset[str]


class _ModuleIndex:
    """Which entries of an LRU map were built from a ``(schema, module)``
    — kept beside the map and updated wherever it is, so invalidating a
    module (every capacity eviction asks) costs a lookup instead of a
    walk over every plan. ``(schema, None)`` lists the whole schema's."""

    def __init__(self) -> None:
        self._keys: dict[tuple[str, str | None], set] = {}

    def add(self, key, schema: str, modules) -> None:
        for module in (None, *modules):
            self._keys.setdefault((schema, module), set()).add(key)

    def discard(self, key, schema: str, modules) -> None:
        for module in (None, *modules):
            keys = self._keys[(schema, module)]
            keys.discard(key)
            if not keys:
                del self._keys[(schema, module)]

    def keys_for(self, schema: str, module: str | None) -> list:
        return list(self._keys.get((schema, module), ()))


class PromptCache:
    """Modular attention reuse on top of a NumPy transformer.

    Parameters
    ----------
    model, tokenizer:
        The inference engine and its tokenizer.
    store:
        The module store (:class:`~repro.cache.storage.ModuleCacheStore`);
        defaults to unbounded tiers with no snapshot directory.
    template:
        Chat template compiled into role tags; defaults to the model
        architecture's native template.

    Every encode — eager registration, a lazy first use, a re-encode
    after eviction — runs in-process, one module forward at a time (its
    GEMMs use every core through BLAS), and lands in the fast tier;
    placement decides where the module lives after that.
    """

    def __init__(
        self,
        model: TransformerModel,
        tokenizer,
        store: ModuleCacheStore | None = None,
        template: ChatTemplate | None = None,
    ) -> None:
        self.model = model
        self.tokenizer = tokenizer
        self.store = store or ModuleCacheStore()
        self.template = template or template_for_architecture(model.config.architecture)
        self.schemas: dict[str, RegisteredSchema] = {}
        # Guards the two LRU maps, their stats, and base fork/free
        # (fork counts are not thread-safe on their own).
        self._fastpath_lock = ordered_lock("engine.fastpath", after=("store",))
        self.plan_stats = PlanCacheStats()  # guarded-by: _fastpath_lock
        self._plan_cache: OrderedDict[str, _CompiledPlan] = OrderedDict()  # guarded-by: _fastpath_lock
        self._bases: OrderedDict[tuple, _SplicedBase] = OrderedDict()  # guarded-by: _fastpath_lock
        # Entries of the two maps by the modules they were built from;
        # every insert and pop goes through _put_*/_pop_* to keep them so.
        self._plan_index = _ModuleIndex()  # guarded-by: _fastpath_lock
        self._base_index = _ModuleIndex()  # guarded-by: _fastpath_lock
        self._plan_listeners: list = []
        # Schema-free reuse discovery (repro.reuse): attach_discovery()
        # installs a miner; _discovered maps module name -> span.
        self.discovery = None
        self._discovered: dict[str, DiscoveredModule] = {}  # guarded-by: _fastpath_lock
        # Plan-staleness fix: compiled plans and spliced bases must die
        # with the last resident copy of any module they reference.
        # register/invalidate/update already handle their paths; this
        # listener covers capacity eviction inside the store itself. Held
        # weakly: a store may outlive its engine, and must not keep it.
        for tier_ in (self.store.gpu, self.store.cpu):
            tier_.add_evict_listener(weakref.WeakMethod(self._on_store_evict))

    # -- schema management -----------------------------------------------------

    def register_schema(self, source: str | Schema, eager: bool = True) -> Schema:
        """Parse, lay out, and (eagerly) encode a schema's modules.

        Eager registration mirrors the paper's flow — "Prompt Cache
        populates its cache when a schema is loaded" (Fig 1c) — so the
        first derived prompt already hits warm states. Lazy registration
        encodes each module on first use instead.
        """
        schema = source if isinstance(source, Schema) else Schema.parse(source, self.template)
        layout = layout_schema(schema, self.tokenizer)
        if layout.total_length >= self.model.config.max_position:
            raise SchemaMismatchError(
                f"schema {schema.name!r} needs {layout.total_length} positions "
                f"but the model supports {self.model.config.max_position}"
            )
        if _LAYOUT_VALIDATOR is not None:
            _LAYOUT_VALIDATOR(schema, layout)
        registered = RegisteredSchema(schema=schema, layout=layout)
        for i, names in enumerate(schema.scaffolds):
            variant = f"scaffold{i}"
            registered.scaffold_sets.append(tuple(names))
            for name in names:
                registered.scaffold_variants[name] = variant
        self.schemas[schema.name] = registered
        # (Re-)registration replaces the layout: compiled plans and
        # spliced bases derived from the old one are stale.
        self._evict_compiled(schema.name)
        if eager:
            self._encode_all(registered)
        return schema

    # -- compiled-plan cache -----------------------------------------------------

    def add_plan_cache_listener(self, fn) -> None:
        """Register an observer called with each plan-cache event:
        ``"hit"``, ``"miss"`` or ``"invalidation"`` (one call per evicted
        plan). The serving runtime uses this to export counters."""
        self._plan_listeners.append(fn)

    def remove_plan_cache_listener(self, fn) -> None:
        self._plan_listeners.remove(fn)

    def plan_cache_stats(self) -> PlanCacheStats:
        with self._fastpath_lock:
            return self.plan_stats

    def _notify_plan(self, event: str) -> None:
        for fn in self._plan_listeners:
            fn(event)

    def _compiled(self, prompt: str) -> _CompiledPlan:
        """Memoized parse → resolve → plan, keyed by canonical source."""
        source = prompt.strip()
        with self._fastpath_lock:
            entry = self._plan_cache.get(source)
            if entry is not None:
                self._plan_cache.move_to_end(source)
                self.plan_stats.hits += 1
        if entry is not None:
            self._notify_plan("hit")
            return entry
        resolved = self._resolve(prompt)
        registered = self._registered(resolved.schema.name)
        plan = self._plan(resolved, registered)
        entry = _CompiledPlan(
            schema_name=resolved.schema.name,
            registered=registered,
            plan=plan,
            merged_uncached=_merge_uncached(plan.uncached),
            module_names=frozenset(name for _, name in plan.modules),
        )
        with self._fastpath_lock:
            self.plan_stats.misses += 1
            if source in self._plan_cache:  # two threads compiled it at once
                self._pop_plan(source)
            self._plan_cache[source] = entry
            self._plan_index.add(source, entry.schema_name, entry.module_names)
            while len(self._plan_cache) > PLAN_CACHE_SIZE:
                self._pop_plan(next(iter(self._plan_cache)))
        self._notify_plan("miss")
        return entry

    def _pop_plan(self, source: str) -> None:
        with self._fastpath_lock:  # re-entrant: callers hold it
            entry = self._plan_cache.pop(source)
            self._plan_index.discard(source, entry.schema_name, entry.module_names)

    def _pop_base(self, key: tuple) -> None:
        with self._fastpath_lock:  # re-entrant: callers hold it
            base = self._bases.pop(key)
            self._base_index.discard(key, key[0], base.module_names)

    def _evict_compiled(
        self, schema_name: str, module_name: str | None = None
    ) -> int:
        """Drop compiled plans and spliced bases touching a schema (or one
        of its modules). Returns the number of plans invalidated."""
        with self._fastpath_lock:
            doomed = self._plan_index.keys_for(schema_name, module_name)
            for source in doomed:
                self._pop_plan(source)
            for key in self._base_index.keys_for(schema_name, module_name):
                self._pop_base(key)
            self.plan_stats.invalidations += len(doomed)
        for _ in doomed:
            self._notify_plan("invalidation")
        return len(doomed)

    def _encode_all(self, registered: RegisteredSchema) -> None:
        for name in registered.layout.order:
            self._ensure_encoded(registered, name, SOLO_VARIANT)
        for index in range(len(registered.scaffold_sets)):
            self._encode_scaffold_set(registered, index)

    def _ensure_encoded(
        self, registered: RegisteredSchema, name: str, variant: str
    ) -> tuple[ModuleKV, str]:
        """Fetch a module's states, encoding on miss into the fast tier.
        Returns (the module's K/V, tier)."""
        key = CacheKey(registered.layout.schema_name, name, variant)
        found = self.store.fetch(key)
        if found is not None:
            return found.entry.kv, found.tier
        if variant == SOLO_VARIANT:
            started = time.perf_counter()
            kv = encode_module(self.model, registered.layout.module(name))
            self.store.observe_reencode(key, len(kv), time.perf_counter() - started)
            self.store.put(key, kv)
            return kv, "gpu"
        index = int(variant.removeprefix("scaffold"))
        return self._encode_scaffold_set(registered, index)[name], "gpu"

    def _encode_scaffold_set(self, registered: RegisteredSchema, index: int) -> dict:
        """Encode scaffold set ``index`` — always materialized as a set —
        and store every member under its ``scaffold<index>`` variant.
        Returns the K/V by module name."""
        layout = registered.layout
        names = registered.scaffold_sets[index]
        states = encode_scaffold(self.model, [layout.module(n) for n in names])
        for n in names:
            self.store.put(CacheKey(layout.schema_name, n, f"scaffold{index}"), states[n])
        return states

    # -- serving ------------------------------------------------------------------

    def serve(
        self,
        prompt: str,
        *,
        max_new_tokens: int = 32,
        sampler=None,
        stop_ids: set[int] | None = None,
        use_scaffolds: bool = True,
    ) -> ServeResult:
        """Cached inference for a PML prompt (paper Fig 2, §3.4), start
        to finish in one call."""
        return self._serve(self.open_stream(
            prompt, max_new_tokens=max_new_tokens, sampler=sampler,
            stop_ids=stop_ids, use_scaffolds=use_scaffolds,
        ))

    def serve_batch(
        self,
        prompts: list[str],
        *,
        max_new_tokens: int = 32,
        sampler=None,
        stop_ids: set[int] | None = None,
    ) -> "BatchServeResult":
        """Serve a batch with module sharing (paper §3.4).

        Prompts selecting the same module sequence fork one spliced base
        (:mod:`repro.llm.paged`), which reads the modules' K/V by
        reference; each request's suffix and generated tokens extend a
        private tail. Outputs are identical to serving each prompt alone.
        """
        held: list[ServeStream] = []
        try:
            for prompt in prompts:
                stream = self.open_stream(
                    prompt, max_new_tokens=max_new_tokens, sampler=sampler,
                    stop_ids=stop_ids,
                )
                held.append(stream)
                stream.run()
            # The §3.4 memory picture is read first, while every fork
            # still holds its tail: the distinct parts the forks read,
            # once, plus the tails.
            forked = [s for s in held if s.shared_group is not None]
            bases = {id(s.shared_group) for s in forked}
            physical = physical_bytes([s.cache for s in forked])
            duplicated = sum(s.cache.logical_bytes() for s in forked)
            return BatchServeResult(
                results=[stream.finish() for stream in held],
                physical_bytes=physical,
                duplicated_bytes=duplicated,
                # A prompt with nothing cached shares with nobody.
                shared_groups=len(bases) + len(held) - len(forked),
            )
        finally:
            for stream in held:
                stream.abort()

    def _serve(self, stream: ServeStream) -> ServeResult:
        """Run one stream to completion; its fork goes back on any unwind."""
        try:
            stream.run()
            return stream.finish()
        except BaseException:
            stream.abort()
            raise

    def open_stream(
        self,
        prompt: str,
        *,
        max_new_tokens: int = 32,
        sampler=None,
        stop_ids: set[int] | None = None,
        use_scaffolds: bool = True,
    ) -> ServeStream:
        """Begin a resumable serve for a PML prompt.

        The splice happens here — a fork of the spliced base for the
        prompt's module sequence; prefill chunks and decode steps are
        driven by the caller through the returned :class:`ServeStream`.
        The iteration-level scheduler's entry point.
        """
        compiled = self._compiled(prompt)
        registered, plan = compiled.registered, compiled.plan
        token_ids, positions = compiled.merged_uncached
        return self._open(
            self._base_key(registered, plan, use_scaffolds),
            partial(self._gather_module_records, registered, plan, use_scaffolds),
            token_ids, positions, plan.next_position,
            max_new_tokens, sampler, stop_ids,
        )

    def open_text_stream(
        self,
        text: str,
        *,
        max_new_tokens: int = 32,
        sampler=None,
        stop_ids: set[int] | None = None,
        observe: bool = True,
    ) -> ServeStream:
        """Begin a resumable serve for schema-free raw text: the prompt
        is observed by the discovery miner (feeding promotion), and the
        deepest discovered chain tiling a prefix of it is spliced from
        cache here; the rest is left for prefill chunks at positions
        ``cached..n-1``. No chain means no base — the stream is the plain
        KV-cache baseline."""
        ids = self.tokenizer.encode(text)
        if not ids:
            raise ValueError("a raw prompt needs at least one token")
        if self.discovery is not None and observe:
            self.discovery.observe(ids, self)
        n = len(ids)
        chain = self._match_discovered(ids) if self.discovery is not None else []
        # Fully-covered prompt: trim the final cached token and recompute
        # it as the suffix — the first sampling decision needs its logits
        # (same move as the schema path's recompute_tail).
        trim = bool(chain) and chain[-1].end >= n
        cached = min(chain[-1].end, n - 1) if chain else 0
        key = gather = None
        if cached > 0:
            key = (DISCOVERED_SCHEMA, tuple(s.name for s in chain), trim)
            gather = partial(self._gather_discovered_records, chain, trim, ids)
        return self._open(
            key, gather,
            np.asarray(ids[cached:], dtype=np.int64),
            np.arange(cached, n, dtype=np.int64),
            n, max_new_tokens, sampler, stop_ids,
        )

    def _open(
        self,
        key: tuple | None,
        gather,
        token_ids: np.ndarray,
        positions: np.ndarray,
        next_position: int,
        max_new_tokens: int,
        sampler,
        stop_ids: set[int] | None,
    ) -> ServeStream:
        """The one stream constructor: fork the spliced base ``key``
        names (built from ``gather()`` on a miss) and hand the fork to a
        stream that will prefill ``token_ids`` at ``positions``. ``key``
        None means nothing is cached: a private flat cache, no base."""
        # release: the fork to give back if we unwind before a stream owns it.
        base = release = None
        tier_tokens = {"gpu": 0, "cpu": 0}
        start = time.perf_counter()
        if key is None:
            cache = self.model.new_cache(capacity=len(token_ids) + max_new_tokens)
        else:
            cache, base, tier_tokens = self._fork(
                key, gather, len(token_ids) + max_new_tokens
            )
            release = cache
        try:
            return ServeStream(
                self,
                cache=cache,
                base=base,
                pending_ids=token_ids,
                pending_positions=positions,
                next_position=next_position,
                tier_tokens=tier_tokens,
                max_new_tokens=max_new_tokens,
                sampler=sampler,
                stop_ids=stop_ids,
                splice_s=time.perf_counter() - start,
            )
        except BaseException:
            if release is not None:
                self._free_fork(release)
            raise

    def invalidate(self, schema_name: str, module_name: str | None = None) -> int:
        """Drop cached states for one module (or a whole schema) from every
        tier; the next use re-encodes. Returns the number of entries
        dropped. This is the eviction half of runtime module updates.

        Compiled plans and spliced bases referencing the module are
        dropped too — serving a stale plan would be a silent correctness
        bug."""
        self._evict_compiled(schema_name, module_name)
        return self.store.remove_matching(schema_name, module_name)

    def update_module_text(
        self, schema_name: str, module_name: str, new_text: str
    ) -> None:
        """Replace one module's text at runtime (paper §1: modules can be
        "update[d] during the runtime").

        The schema is re-parsed with the new text and re-laid-out; only the
        updated module is re-encoded eagerly, other modules are invalidated
        lazily if their positions shifted (same token count -> no shift ->
        their cached states stay valid and are kept).
        """
        registered = self._registered(schema_name)
        # The layout is about to change: every compiled plan and spliced
        # base for this schema is stale regardless of which modules shift.
        self._evict_compiled(schema_name)
        old_layout = registered.layout
        module = registered.schema.module(module_name)
        from repro.pml.ast import TextNode

        module.children = [TextNode(new_text)]
        new_layout = layout_schema(registered.schema, self.tokenizer)
        if _LAYOUT_VALIDATOR is not None:
            _LAYOUT_VALIDATOR(registered.schema, new_layout)
        # Keep cached states whose position assignment is unchanged.
        for name in list(old_layout.modules):
            if name == module_name:
                continue
            unchanged = (
                name in new_layout.modules
                and old_layout.module(name).span_start
                == new_layout.module(name).span_start
                and len(old_layout.module(name).token_ids)
                == len(new_layout.module(name).token_ids)
            )
            if not unchanged:
                self.invalidate(schema_name, name)
        self.invalidate(schema_name, module_name)
        registered.layout = new_layout
        self._ensure_encoded(registered, module_name, SOLO_VARIANT)
        # Scaffold variants embed cross-module state: always refresh.
        for i, names in enumerate(registered.scaffold_sets):
            if module_name in names:
                for n in names:
                    self.invalidate(schema_name, n)

    # -- schema-free reuse discovery (repro.reuse, ISSUE 6) ----------------------

    def attach_discovery(self, config=None):
        """Attach a :class:`~repro.reuse.miner.ReuseMiner` so schema-free
        prompts served through :meth:`serve_text` are mined for shared
        prefixes and hot ones are cached as discovered modules. Returns
        the miner (for stats/tuning); pass ``config`` to set thresholds."""
        from repro.reuse.miner import ReuseMiner

        self.discovery = ReuseMiner(config)
        return self.discovery

    def register_discovered_module(
        self, name: str, prefix_tokens, start: int, ancestors=()
    ) -> DiscoveredModule:
        """Engine hook for the miner: cache tokens ``[start, end)`` of a
        promoted prefix as a synthetic module.

        ``prefix_tokens`` is the full path from position 0 (so the KV can
        be conditioned on the true preceding context); ``ancestors`` are
        the already-registered modules tiling ``[0, start)`` — when all
        are still resident their KV is spliced so only the extension is
        forwarded, otherwise the whole prefix is re-forwarded once.
        """
        end = len(prefix_tokens)
        if not 0 <= start < end:
            raise ValueError(f"invalid segment [{start}, {end})")
        kv = self._encode_segment(tuple(prefix_tokens), start, end, tuple(ancestors))
        self.store.put(CacheKey(DISCOVERED_SCHEMA, name, SOLO_VARIANT), kv)
        segment = DiscoveredModule(
            name=name,
            start=start,
            end=end,
            token_ids=tuple(int(t) for t in prefix_tokens[start:end]),
        )
        with self._fastpath_lock:
            self._discovered[name] = segment
        return segment

    def unregister_discovered_module(self, name: str) -> int:
        """Demote a discovered module (trie eviction, operator request):
        drop its store entries and every spliced base referencing it."""
        with self._fastpath_lock:
            self._discovered.pop(name, None)
        self._evict_compiled(DISCOVERED_SCHEMA, name)
        return self.store.remove_matching(DISCOVERED_SCHEMA, name)

    def discovered_modules(self) -> list[DiscoveredModule]:
        """Currently registered discovered modules (shallowest first)."""
        with self._fastpath_lock:
            return sorted(self._discovered.values(), key=lambda s: s.end)

    def _encode_segment(
        self, token_ids: tuple[int, ...], start: int, end: int, ancestors: tuple
    ) -> ModuleKV:
        """KV states for tokens ``[start, end)`` conditioned on the true
        prefix ``[0, start)`` — bit-exact rows of a full prefill."""
        chain_kvs = self._ancestor_kvs(ancestors, start) if start else None
        if chain_kvs is not None:
            cache = _arena_splice(self.model.config, chain_kvs, end - start)
            first = start  # the resident chain stands in for [0, start)
        else:
            cache = self.model.new_cache(capacity=end)
            first = 0
        self.model.forward(
            np.asarray(token_ids[first:end], dtype=np.int64),
            np.arange(first, end, dtype=np.int64), cache, logits=False,
        )
        return _arena_from_cache(
            cache, start, end, np.arange(start, end, dtype=np.int64)
        )

    def _ancestor_kvs(self, ancestors: tuple, start: int) -> list[ModuleKV] | None:
        """Resident KV chain tiling ``[0, start)``, or None (fall back to
        re-forwarding the prefix)."""
        if not ancestors:
            return None
        kvs: list[ModuleKV] = []
        covered = 0
        for name in ancestors:
            found = self.store.fetch(CacheKey(DISCOVERED_SCHEMA, name, SOLO_VARIANT))
            if found is None:
                return None
            kv = found.entry.kv
            kvs.append(kv)
            covered += len(kv)
        return kvs if covered == start else None

    def serve_text(
        self,
        text: str,
        *,
        max_new_tokens: int = 32,
        sampler=None,
        stop_ids: set[int] | None = None,
        observe: bool = True,
    ) -> ServeResult:
        """Schema-free cached inference over raw text, in one call.

        Without discovery this is exactly the KV-cache baseline
        (:func:`~repro.llm.generation.generate`). With a miner attached,
        the prompt is observed (feeding promotion) and any promoted
        prefix chain is spliced from cache, with only the remainder
        prefilled — outputs are byte-identical either way.
        """
        return self._serve(self.open_text_stream(
            text, max_new_tokens=max_new_tokens, sampler=sampler,
            stop_ids=stop_ids, observe=observe,
        ))

    def _match_discovered(self, ids: list[int]) -> list[DiscoveredModule]:
        """Resolve the miner's matched chain against the registry into the
        deepest contiguous, token-verified tiling of a prompt prefix.

        Matched segments usually tile ``[0, m)`` directly, but a trie
        split can leave overlapping spans (e.g. ``[0, 42)`` promoted
        after ``[0, 53)``); the backward walk below then picks the
        deepest subset that still tiles from zero."""
        names = self.discovery.match(ids)
        if not names:
            return []
        with self._fastpath_lock:
            resolved = [self._discovered.get(name) for name in names]
        segments = [
            s for s in resolved
            if s is not None
            and s.end <= len(ids)
            and tuple(int(t) for t in ids[s.start : s.end]) == s.token_ids
        ]
        # Deepest-first: the first backward chain that reaches offset 0
        # has the deepest endpoint (segments arrive shallowest-first).
        for i in range(len(segments) - 1, -1, -1):
            chain = [segments[i]]
            target = segments[i].start
            for j in range(i - 1, -1, -1):
                if target == 0:
                    break
                if segments[j].end == target:
                    chain.append(segments[j])
                    target = segments[j].start
            if target == 0:
                return list(reversed(chain))
        return []

    def _gather_discovered_records(
        self, chain: list[DiscoveredModule], trim: bool, ids: list[int]
    ) -> list[tuple]:
        """Records per segment of a discovered chain — the raw-text
        mirror of :meth:`_gather_module_records`; re-encodes a dropped
        segment from ``ids``."""
        records = []
        for i, segment in enumerate(chain):
            ancestors = tuple(s.name for s in chain[:i])
            kv, tier = self._ensure_discovered(segment, ids, ancestors)
            key = CacheKey(DISCOVERED_SCHEMA, segment.name, SOLO_VARIANT)
            last = trim and segment is chain[-1]
            records.append((key, tier, kv, partial(_drop_last, last)))
        return records

    def _ensure_discovered(
        self, segment: DiscoveredModule, ids: list[int], ancestors: tuple
    ) -> tuple[ModuleKV, str]:
        """Fetch a discovered module's stored KV, re-encoding from the
        observed prompt if the store dropped it (a capacity victim with
        nowhere to go) — the trie keeps the boundary, the KV self-heals on
        the next hit."""
        key = CacheKey(DISCOVERED_SCHEMA, segment.name, SOLO_VARIANT)
        found = self.store.fetch(key)
        if found is not None:
            return found.entry.kv, found.tier
        started = time.perf_counter()
        kv = self._encode_segment(
            tuple(int(t) for t in ids), segment.start, segment.end, ancestors
        )
        self.store.observe_reencode(key, len(kv), time.perf_counter() - started)
        self.store.put(key, kv)
        return kv, "gpu"

    def _on_store_evict(self, entry) -> None:  # holds-lock: store
        """Store evict listener (runs under the store lock): once a module
        is resident in *no* tier, compiled plans and spliced bases that
        reference it are stale — drop them. Demotions (GPU→CPU) leave the
        module servable and invalidate nothing."""
        if entry.key in self.store:
            return
        self._evict_compiled(entry.key.schema, entry.key.module)

    def start_session(self, prompt: str):
        """Open a multi-turn :class:`~repro.cache.session.GenerationSession`
        whose cached modules persist across turns."""
        from repro.cache.session import GenerationSession

        return GenerationSession(self, prompt)

    def baseline(
        self,
        prompt: str,
        *,
        max_new_tokens: int = 32,
        sampler=None,
        stop_ids: set[int] | None = None,
    ) -> GenerationResult:
        """KV-cache baseline over the *same* token content as :meth:`serve`
        (modules inlined, arguments substituted), positions ``0..n-1``."""
        compiled = self._compiled(prompt)
        if compiled.baseline_sequence is None:
            plan = compiled.plan
            # (sort key, token ids) chunks reproducing identical content.
            args = plan.args_by_module
            chunks = [
                (mod.span_start, self._module_chunk(mod, args.get(name, {})))
                for mod, name in plan.modules
            ]
            chunks += [(start, ids.tolist()) for start, ids in plan.texts]
            compiled.baseline_sequence = [
                t for _, chunk in sorted(chunks, key=lambda c: c[0]) for t in chunk
            ]
        return generate(
            self.model,
            list(compiled.baseline_sequence),
            max_new_tokens=max_new_tokens,
            sampler=sampler,
            stop_ids=stop_ids,
        )

    def prompt_token_count(self, prompt: str) -> tuple[int, int]:
        """(cached, uncached) token counts for a prompt — what the latency
        benches feed the analytical device model."""
        plan = self._compiled(prompt).plan
        uncached = sum(len(t) for t, _ in plan.uncached)
        cached = sum(
            int(np.count_nonzero(_keep_mask(layout))) for layout, _ in plan.modules
        )
        if plan.recompute_tail is not None:
            cached -= 1
        return cached, uncached

    # -- internals ------------------------------------------------------------------

    def _resolve(self, prompt: str) -> ResolvedPrompt:
        node = parse_prompt(prompt)
        return resolve(node, self._registered(node.schema).schema)

    def _registered(self, schema_name: str) -> RegisteredSchema:
        """Look up a registered schema, raising the typed error on miss."""
        try:
            return self.schemas[schema_name]
        except KeyError:
            raise UnknownSchemaError(schema_name, list(self.schemas)) from None

    def _plan(self, resolved: ResolvedPrompt, registered: RegisteredSchema) -> _Plan:
        layout = registered.layout
        selected = set(layout.always_included()) | set(resolved.selected_names())
        args_by_module = {s.name: s.args for s in resolved.selections}

        modules: list[tuple[ModuleLayout, str]] = []
        uncached: list[tuple[np.ndarray, np.ndarray]] = []
        texts: list[tuple[int, np.ndarray]] = []
        occupied: list[tuple[int, int]] = []

        for name in layout.order:
            if name not in selected:
                continue
            mod = layout.module(name)
            modules.append((mod, name))
            occupied.append((mod.span_start, mod.span_end))
            # Parameter arguments become uncached work at the slot positions.
            for slot in mod.params.values():
                value = args_by_module.get(name, {}).get(slot.name, slot.default)
                if not value:
                    continue
                ids = self.tokenizer.encode(value)
                if len(ids) > slot.length:
                    raise SchemaMismatchError(
                        f"argument for parameter {slot.name!r} of module "
                        f"{name!r} is {len(ids)} tokens; the schema allows "
                        f"{slot.length}"
                    )
                pos = mod.param_positions(slot.name)[: len(ids)]
                uncached.append((np.asarray(ids, dtype=np.int64), pos))

        # New prompt text: use the gap after its anchor if one exists,
        # otherwise append past the schema extent (paper §3.4).
        tail = layout.total_length
        for new_text in resolved.texts:
            ids = np.asarray(self.tokenizer.encode(new_text.text), dtype=np.int64)
            if len(ids) == 0:
                continue
            anchor_end = (
                layout.module(new_text.anchor).span_end if new_text.anchor else 0
            )
            if _gap_fits(anchor_end, len(ids), occupied, tail):
                start = anchor_end
            else:
                start = tail
                tail += len(ids)
            positions = np.arange(start, start + len(ids), dtype=np.int64)
            occupied.append((start, start + len(ids)))
            uncached.append((ids, positions))
            texts.append((start, ids))

        if not modules and not uncached:
            raise SchemaMismatchError(
                "the prompt selects no modules and adds no text; there is "
                "nothing to serve"
            )
        recompute_tail = None
        if not uncached:
            # Fully cached prompt: the first sampling decision still needs
            # logits, so the highest-positioned cached token is recomputed
            # as the suffix (its cached copy is skipped during assembly).
            # The token must be one that survives slot-dropping, i.e. not a
            # parameter placeholder.
            mod = max((m for m, _ in modules), key=lambda m: m.span_end)
            last = int(np.flatnonzero(_keep_mask(mod))[-1])
            recompute_tail = (mod.name, last)
            uncached.append((mod.token_ids[last : last + 1], mod.positions[last : last + 1]))

        plan = _Plan(
            modules=modules,
            uncached=uncached,
            args_by_module=args_by_module,
            texts=texts,
            next_position=max(tail, self._max_position(uncached, occupied)),
            recompute_tail=recompute_tail,
        )
        if _PLAN_VALIDATOR is not None:
            _PLAN_VALIDATOR(plan, layout)
        return plan

    @staticmethod
    def _max_position(uncached, occupied) -> int:
        top = 0
        for _, positions in uncached:
            if len(positions):
                top = max(top, int(positions.max()) + 1)
        for _, end in occupied:
            top = max(top, end)
        return top

    def _module_chunk(self, mod: ModuleLayout, args: dict[str, str]) -> list[int]:
        """Module tokens with argument values spliced into their slots —
        the content a user would have sent without Prompt Cache."""
        if not mod.params:
            return list(map(int, mod.token_ids))
        pieces: list[tuple[int, list[int]]] = []
        keep = _keep_mask(mod)
        for slot in mod.params.values():
            value = args.get(slot.name, slot.default)
            ids = self.tokenizer.encode(value) if value else []
            pieces.append((slot.offset, list(map(int, ids))))
        base = [(i, [int(t)]) for i, t in enumerate(mod.token_ids) if keep[i]]
        merged = sorted(base + pieces, key=lambda p: p[0])
        return [t for _, chunk in merged for t in chunk]

    def _variants_for(
        self, registered: RegisteredSchema, plan: _Plan, use_scaffolds: bool
    ) -> list[tuple[ModuleLayout, str, str]]:
        """(layout, name, variant) for each selected module, in order."""
        selected_names = [name for _, name in plan.modules]
        scaffold_active = set()
        if use_scaffolds:
            for names in registered.scaffold_sets:
                if set(names) <= set(selected_names):
                    scaffold_active.update(names)
        return [
            (
                mod,
                name,
                registered.scaffold_variants[name]
                if name in scaffold_active
                else SOLO_VARIANT,
            )
            for mod, name in plan.modules
        ]

    def _gather_module_records(
        self, registered: RegisteredSchema, plan: _Plan, use_scaffolds: bool
    ) -> list[tuple]:
        """``(store key, tier served from, stored K/V, shape)`` per
        selected module, in document order; encodes on miss. The store
        lookups happen here; ``shape`` (slot drop, recomputed tail) waits
        for :meth:`_module_kvs`, which only a base build needs."""
        records = []
        schema_name = registered.layout.schema_name
        for mod, name, variant in self._variants_for(registered, plan, use_scaffolds):
            kv, tier = self._ensure_encoded(registered, name, variant)
            # A fully-cached prompt recomputes its tail token.
            last = plan.recompute_tail is not None and plan.recompute_tail[0] == name
            records.append((
                CacheKey(schema_name, name, variant), tier, kv,
                partial(_spliced_form, mod, last),
            ))
        return records

    def _module_kvs(self, records: list[tuple]) -> list[ModuleKV]:
        """Each gathered record's K/V as a splice reads it: shaped."""
        return [shape(kv) for _, _, kv, shape in records]

    def _base_key(
        self, registered: RegisteredSchema, plan: _Plan, use_scaffolds: bool
    ) -> tuple:
        """Identity of a spliced base: schema + exact module/variant
        sequence + the recompute-tail adjustment."""
        variants = self._variants_for(registered, plan, use_scaffolds)
        return (
            registered.layout.schema_name,
            tuple((name, variant) for _, name, variant in variants),
            plan.recompute_tail,
        )

    def _fork(
        self, key: tuple, gather, capacity: int
    ) -> tuple[ForkCache, _SplicedBase, dict[str, int]]:
        """The splice: fork the shared spliced base ``key`` names.

        ``gather()`` makes every store lookup first — hit statistics,
        tier occupancy and DRAM-hit promotion are those of a build
        whatever follows. Then the base is looked up: it is a hit only if
        it is still the entry for ``key`` (no module of it has left the
        store since it was built) and was built from the very objects
        the lookups returned, and it is forked under the same lock hold.
        On a miss the base is built from the records — parts read in
        place, nothing copied — and kept for subsequent requests.
        Returns ``(fork, base, tier_tokens)``; ``capacity`` is the tail
        room the fork allocates at its first append. The base object is
        the ChunkAttention grouping key.
        """
        records = gather()
        sources = tuple(kv for _, _, kv, _ in records)
        tier_tokens = {"gpu": 0, "cpu": 0}
        with self._fastpath_lock:
            base = self._bases.get(key)
            if base is not None and all(map(operator.is_, base.sources, sources)):
                self._bases.move_to_end(key)
                self.plan_stats.base_hits += 1
                for (_, tier, _, _), (_, count) in zip(records, base.entries):
                    tier_tokens[tier] += count
                return base.kv.fork(capacity), base, tier_tokens
        module_kvs = self._module_kvs(records)
        entries = [(cache_key, len(kv)) for (cache_key, *_), kv in zip(records, module_kvs)]
        for (_, tier, _, _), kv in zip(records, module_kvs):
            tier_tokens[tier] += len(kv)
        base = _SplicedBase(
            kv=SplicedKV.from_module_kvs(self.model.config, module_kvs),
            entries=entries,
            sources=sources,
            module_names=frozenset(k.module for k, _ in entries),
        )
        with self._fastpath_lock:
            self.plan_stats.base_misses += 1
            if key in self._bases:  # stale, or two threads built it at once
                self._pop_base(key)
            self._bases[key] = base
            self._base_index.add(key, key[0], base.module_names)
            while len(self._bases) > BASE_CACHE_SIZE:
                self._pop_base(next(iter(self._bases)))
            return base.kv.fork(capacity), base, tier_tokens

    def _free_fork(self, cache) -> None:
        with self._fastpath_lock:
            cache.free()


def _arena_splice(
    config, module_kvs: list[ModuleKV], extra_capacity: int = 0
) -> KVCache:
    """A private flat copy of a module sequence, one allocation per side
    — for callers whose cache outlives a request (a
    :class:`~repro.cache.session.GenerationSession`, an attention probe,
    a discovered segment being encoded) and so should not pin a shared
    base and its modules.

    Builds a single ``(n_layers, n_kv_heads, capacity, head_dim)`` arena
    per side; each module lands with one contiguous copy covering every
    layer at once, and each layer adopts its slice of the arena (spare
    capacity included) without further copies.
    """
    module_kvs = [
        kv if kv.is_arena else kv.ensure_arena() for kv in module_kvs if len(kv)
    ]
    total = sum(len(kv) for kv in module_kvs)
    capacity = max(total + extra_capacity, 1)
    shape = (config.n_layers, config.n_kv_heads, capacity, config.head_dim)
    key_arena = alloc_keys(shape)
    value_arena = tracked_alloc(shape)
    positions = np.empty(capacity, dtype=np.int64)
    offset = 0
    for kv in module_kvs:
        n = len(kv)
        key_arena[:, :, offset : offset + n, :] = kv.key_arena
        value_arena[:, :, offset : offset + n, :] = kv.value_arena
        positions[offset : offset + n] = kv.positions
        offset += n
    layers = [
        LayerKV.adopt(
            key_arena[i],
            value_arena[i],
            positions if i == 0 else positions.copy(),
            total,
        )
        for i in range(config.n_layers)
    ]
    return KVCache(layers)


def _spliced_form(mod: ModuleLayout, drop_last: bool, kv: ModuleKV) -> ModuleKV:
    """A module's stored K/V as a base splices it: parameter slots
    dropped, and the last token too when the prompt recomputes it."""
    return _drop_last(drop_last, drop_param_slots(kv, mod, list(mod.params.values())))


def _drop_last(drop: bool, kv: ModuleKV) -> ModuleKV:
    return kv.slice(0, len(kv) - 1) if drop else kv


def _keep_mask(mod: ModuleLayout) -> np.ndarray:
    """True for direct tokens that are not parameter placeholders."""
    keep = np.ones(len(mod.token_ids), dtype=bool)
    for slot in mod.params.values():
        keep[slot.offset : slot.offset + slot.length] = False
    return keep


def _merge_uncached(
    batches: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the uncached batches into one forward pass, position-sorted.

    Position-derived causal masking makes the order mathematically
    irrelevant, but sorting keeps traces readable and decode positions
    contiguous at the tail.
    """
    token_ids = np.concatenate([t for t, _ in batches])
    positions = np.concatenate([p for _, p in batches])
    order = np.argsort(positions, kind="stable")
    return token_ids[order], positions[order]


def _gap_fits(
    start: int, length: int, occupied: list[tuple[int, int]], tail: int
) -> bool:
    """True when [start, start+length) collides with no occupied range and
    stays inside the schema extent."""
    end = start + length
    if end > tail:
        return False
    return all(end <= lo or start >= hi for lo, hi in occupied)
