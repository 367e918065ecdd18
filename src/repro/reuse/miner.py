"""Reuse miner: turns trie statistics into cache policy.

The miner observes every token stream the engine serves, feeds it to the
:class:`~repro.reuse.trie.TokenRadixTrie`, and promotes trie nodes that
cross configurable hit/length thresholds into *discovered modules* via
the engine hook ``register_discovered_module``. Schema inference becomes
a cache policy instead of an authoring step (ISSUE 6): nobody writes PML
for a shared system prompt — the miner notices it repeating and caches
it. The miner holds no engine: the engine passes itself to ``observe``,
which carries out that call's promotions and demotions through it and
keeps nothing.

Byte-identity contract (the load-bearing invariant): a discovered module
covers a token span ``[start, end)`` of a *prefix chain* — ``start`` is
the end of the nearest promoted ancestor at promotion time — and its KV
is encoded conditioned on the true tokens ``[0, start)``. Serving then
splices the matched promoted chain (which tiles ``[0, chain[-1].end)``
contiguously) and prefills the remainder, which under causal attention
reproduces the full-prefill attention states exactly. The miner
guarantees the tiling by only ever extending a path's promoted chain at
its tip: a node shallower than an already-promoted descendant is never
promoted (its segment would overlap the descendant's).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.analysis.locks import ordered_lock
from repro.reuse.trie import TokenRadixTrie, TrieNode


@dataclass(frozen=True)
class DiscoveryConfig:
    """Tuning knobs for promotion and trie retention.

    ``min_hits`` is the number of observed sequences that must share a
    prefix before it is worth encoding (2 = promote on first repeat);
    ``min_tokens`` is the minimum segment length — splicing a handful of
    tokens costs more than prefilling them. ``max_modules`` and
    ``max_trie_tokens`` bound memory; the trie evicts its least recently
    used leaf past the latter.
    """

    min_hits: int = 3
    min_tokens: int = 16
    max_modules: int = 64
    max_trie_tokens: int = 262_144

    def validate(self) -> None:
        if self.min_hits < 2:
            raise ValueError("min_hits must be >= 2 (a prefix seen once is not shared)")
        if self.min_tokens < 1:
            raise ValueError("min_tokens must be >= 1")
        if self.max_modules < 1:
            raise ValueError("max_modules must be >= 1")


@dataclass
class MinerStats:
    promotions: int = 0
    demotions: int = 0
    failed_promotions: int = 0
    observed_sequences: int = 0
    observed_tokens: int = 0


class ReuseMiner:
    """Observe token streams; promote hot shared prefixes into modules.

    The miner is thread-safe (one lock around trie + promotion state):
    the live server observes from its executor thread while stats
    snapshots come from the event loop.
    """

    def __init__(self, config: DiscoveryConfig | None = None) -> None:
        self.config = config or DiscoveryConfig()
        self.config.validate()
        self.trie = TokenRadixTrie(max_tokens=self.config.max_trie_tokens)
        self.stats = MinerStats()
        self.last_promotion_error: str | None = None
        # Promotion calls into the engine (store + fastpath locks) while
        # holding this lock, so the miner sits *before* the store in the
        # canonical order:
        # lock-order: store after reuse.miner
        self._lock = ordered_lock("reuse.miner")
        self._module_count = 0
        self._seq = 0

    # -- observation & promotion -------------------------------------------------

    def observe(self, token_ids, engine) -> None:
        """Record one served sequence: demote the modules of promoted
        nodes the trie pruned (``engine.unregister_discovered_module``),
        then promote any node that newly crosses the thresholds
        (``engine.register_discovered_module``)."""
        with self._lock:
            self.stats.observed_sequences += 1
            self.stats.observed_tokens += len(token_ids)
            path, pruned = self.trie.insert(token_ids)
            for node in pruned:
                self._demote(node, engine)
            self._maybe_promote(path, engine)

    def _maybe_promote(self, path: list[TrieNode], engine) -> None:
        # guarded-by: self._lock
        # Only extend the promoted chain at its tip: nodes above the
        # deepest already-promoted node are permanently ineligible (their
        # segment would overlap a registered module's span).
        last_promoted = -1
        for i, node in enumerate(path):
            if node.promoted:
                last_promoted = i
        prev_end = path[last_promoted].end if last_promoted >= 0 else 0
        ancestors = [
            n.module_name for n in path[: last_promoted + 1]
            if n.promoted and n.module_name is not None
        ]
        for node in path[last_promoted + 1 :]:
            if self._module_count >= self.config.max_modules:
                return
            if (
                node.hits >= self.config.min_hits
                and node.end - prev_end >= self.config.min_tokens
            ):
                if self._promote(node, prev_end, ancestors, engine):
                    prev_end = node.end
                    ancestors.append(node.module_name)
            # A node that fails the length test stays unpromoted, but a
            # deeper node may still qualify with a segment spanning it.

    def _promote(self, node: TrieNode, start: int, ancestors: list[str], engine) -> bool:
        # guarded-by: self._lock
        self._seq += 1
        name = f"seg{self._seq:04d}"
        prefix = node.path_tokens()
        try:
            engine.register_discovered_module(
                name, prefix, start, ancestors=tuple(ancestors)
            )
        except Exception as exc:
            # Encoding can fail (store pressure, model errors); the node
            # stays eligible and the next observation retries. The cause
            # is kept for reuse-stats — a silently failing promoter
            # would look like a discovery plane that found nothing.
            self.stats.failed_promotions += 1
            self.last_promotion_error = repr(exc)
            return False
        node.promoted = True
        node.module_name = name
        self._module_count += 1
        self.stats.promotions += 1
        return True

    def _demote(self, node: TrieNode, engine) -> None:
        # guarded-by: self._lock
        if not node.promoted or node.module_name is None:
            return
        engine.unregister_discovered_module(node.module_name)
        self._module_count -= 1
        self.stats.demotions += 1
        node.promoted = False
        node.module_name = None

    # -- matching ----------------------------------------------------------------

    def match(self, token_ids) -> list[str]:
        """Names of the promoted chain covering a prefix of ``token_ids``,
        root side first. The engine resolves names to spans/KV."""
        with self._lock:
            return [
                n.module_name
                for n in self.trie.promoted_chain(token_ids)
                if n.module_name is not None
            ]

    def matched_prefix_len(self, token_ids) -> int:
        """Tokens of ``token_ids`` covered by the promoted chain (0 when
        nothing matches) — content-based, so routers can key placement on
        the covered prefix without depending on per-miner module names."""
        with self._lock:
            chain = self.trie.promoted_chain(token_ids)
            return chain[-1].end if chain else 0

    # -- introspection -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready stats for metrics export and ``repro reuse-stats``."""
        with self._lock:
            t = self.trie.stats
            return {
                "trie_nodes": t.node_count,
                "trie_tokens": t.token_count,
                "trie_inserts": t.inserts,
                "trie_lookups": t.lookups,
                "trie_splits": t.splits,
                "trie_evictions": t.evictions,
                "modules": self._module_count,
                "promotions": self.stats.promotions,
                "demotions": self.stats.demotions,
                "failed_promotions": self.stats.failed_promotions,
                "observed_sequences": self.stats.observed_sequences,
                "observed_tokens": self.stats.observed_tokens,
                "last_promotion_error": self.last_promotion_error,
            }
