"""repro.reuse — schema-free reuse discovery (ISSUE 6).

A token-level radix trie mines live traffic for shared prefixes and
auto-registers them as synthetic prompt modules, extending Prompt
Cache's modular reuse to workloads that never wrote a PML schema.

- :mod:`repro.reuse.trie` — path-compressed token trie: O(L) longest
  prefix match, per-node hit/recency stats, LRU leaf eviction.
- :mod:`repro.reuse.miner` — promotion policy: hot shared prefixes
  become discovered modules through the observing engine's
  ``register_discovered_module``.
- :mod:`repro.reuse.dedup` — pre-flight batch dedup-potential analysis.
"""

from repro.reuse.dedup import DedupReport, analyze_batch
from repro.reuse.miner import DiscoveryConfig, MinerStats, ReuseMiner
from repro.reuse.trie import (
    MatchResult,
    TokenRadixTrie,
    TrieNode,
    TrieStats,
)

__all__ = [
    "DedupReport",
    "analyze_batch",
    "DiscoveryConfig",
    "MinerStats",
    "ReuseMiner",
    "MatchResult",
    "TokenRadixTrie",
    "TrieNode",
    "TrieStats",
]
