"""Token-level radix trie: the index behind schema-free reuse discovery.

Prompt Cache (§3) reuses attention states only for segments declared in
a hand-written PML schema. The trie removes that authoring step: every
token stream served by the engine is inserted here, shared prefixes
compress into single edges (path compression, ChunkAttention-style), and
per-node hit/recency/frequency statistics tell the miner which prefixes
are hot enough to promote into real cached modules.

Design points:

- **O(L) longest-prefix match.** Children are keyed by their first
  token, so a lookup touches each query token exactly once regardless of
  how many sequences are stored.
- **Path compression.** A node holds a *run* of tokens (its edge label),
  not a single token; inserting a diverging sequence splits the run at
  the divergence point. ``node_count`` therefore scales with the number
  of branch points, not total tokens.
- **Eviction.** The trie is itself a cache: it holds at most
  ``max_tokens`` tokens across all runs, evicting the least recently
  used leaf first — its one retention rule. Evicting an interior node
  would orphan its subtree, so only leaves are candidates; pruning a
  leaf re-merges its parent with a single surviving sibling to keep
  compression canonical. ``insert`` returns the nodes it pruned; the
  trie calls nobody back.
- **Deterministic.** Recency is a logical access counter, not a clock,
  so tests and the miner's promotion policy are reproducible.

The trie stores no KV tensors — it manages token keys and statistics;
the engine owns the attention states (same split as the
prompt-cache-engine exemplar the ROADMAP points at).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


@dataclass
class TrieStats:
    """Counters the metrics layer exports (see ``LiveServer``)."""

    inserts: int = 0
    lookups: int = 0
    splits: int = 0
    evictions: int = 0
    node_count: int = 0
    token_count: int = 0


class TrieNode:
    """One compressed edge: a run of tokens plus reuse statistics.

    ``end`` is the absolute token offset (from the root) of the last
    token in this node's run, exclusive: the path from the root to this
    node spells exactly ``end`` tokens.
    """

    __slots__ = (
        "tokens", "children", "parent", "end",
        "hits", "last_used_at", "promoted", "module_name",
    )

    def __init__(self, tokens: tuple[int, ...], parent: "TrieNode | None", end: int):
        self.tokens = tokens
        self.children: dict[int, TrieNode] = {}
        self.parent = parent
        self.end = end
        self.hits = 0  # sequences that fully covered this run
        self.last_used_at = 0  # logical access clock (LRU order)
        self.promoted = False  # miner marked this node a module boundary
        self.module_name: str | None = None

    @property
    def start(self) -> int:
        return self.end - len(self.tokens)

    def is_leaf(self) -> bool:
        return not self.children

    def path_tokens(self) -> tuple[int, ...]:
        """Full token sequence from the root to the end of this run."""
        runs: list[tuple[int, ...]] = []
        node: TrieNode | None = self
        while node is not None and node.parent is not None:
            runs.append(node.tokens)
            node = node.parent
        return tuple(t for run in reversed(runs) for t in run)


@dataclass
class MatchResult:
    """Outcome of :meth:`TokenRadixTrie.longest_prefix`."""

    length: int  # matched prefix length in tokens
    path: list[TrieNode] = field(default_factory=list)  # fully covered nodes


class TokenRadixTrie:
    """Path-compressed token trie with LRU leaf eviction."""

    def __init__(self, max_tokens: int | None = None) -> None:
        self.max_tokens = max_tokens
        self.root = TrieNode((), None, 0)
        self.stats = TrieStats()
        self._access = itertools.count(1)

    # -- insertion ---------------------------------------------------------------

    def insert(self, token_ids) -> tuple[list[TrieNode], list[TrieNode]]:
        """Insert a sequence, splitting runs at divergence points, then
        prune least recently used leaves down to ``max_tokens``.

        Returns the node path whose runs the sequence fully covers, root
        side first — the candidates the miner scans for promotion — and
        the pruned nodes, in pruning order (the miner demotes the promoted
        ones). Every returned path node's hit count and recency are
        refreshed.
        """
        tokens = tuple(int(t) for t in token_ids)
        self.stats.inserts += 1
        covered: list[TrieNode] = []
        node = self.root
        i = 0
        while i < len(tokens):
            child = node.children.get(tokens[i])
            if child is None:
                child = TrieNode(tokens[i:], node, i + len(tokens) - i)
                child.end = len(tokens)
                node.children[tokens[i]] = child
                self.stats.node_count += 1
                self.stats.token_count += len(child.tokens)
                self._touch(child)
                covered.append(child)
                i = len(tokens)
                break
            run = child.tokens
            common = _common_prefix_len(run, tokens, i)
            if common == len(run):
                # Full run covered: descend.
                self._touch(child)
                covered.append(child)
                i += common
                node = child
                continue
            # Partial cover: split the run at the divergence point.
            child = self._split(child, common)
            self._touch(child)
            if common > 0:
                covered.append(child)
            i += common
            node = child
            # Loop continues; next iteration either finds no child for
            # tokens[i] (new leaf) or never matches (split node's other
            # half starts with a different token).
        return covered, self._enforce_limits()

    def _split(self, node: TrieNode, at: int) -> TrieNode:
        """Split ``node``'s run after ``at`` tokens; returns the new upper
        node (which keeps the statistics — every sequence that covered
        the old long run also covered the shorter upper half)."""
        upper = TrieNode(node.tokens[:at], node.parent, node.start + at)
        upper.hits = node.hits
        upper.last_used_at = node.last_used_at
        assert node.parent is not None
        node.parent.children[node.tokens[0]] = upper
        node.tokens = node.tokens[at:]
        node.parent = upper
        upper.children[node.tokens[0]] = node
        self.stats.node_count += 1
        self.stats.splits += 1
        return upper

    def _touch(self, node: TrieNode) -> None:
        node.hits += 1
        node.last_used_at = next(self._access)

    # -- lookup ------------------------------------------------------------------

    def longest_prefix(self, token_ids, touch: bool = False) -> MatchResult:
        """Longest stored prefix of ``token_ids``: O(len(token_ids)).

        ``path`` holds the nodes whose full runs matched; ``length`` also
        counts a partial match inside the next node's run. With
        ``touch``, matched nodes' recency/frequency are refreshed (a
        lookup that leads to reuse should keep the prefix warm).
        """
        tokens = tuple(int(t) for t in token_ids)
        self.stats.lookups += 1
        node = self.root
        i = 0
        path: list[TrieNode] = []
        while i < len(tokens):
            child = node.children.get(tokens[i])
            if child is None:
                break
            common = _common_prefix_len(child.tokens, tokens, i)
            i += common
            if common < len(child.tokens):
                break
            if touch:
                self._touch(child)
            path.append(child)
            node = child
        return MatchResult(length=i, path=path)

    def promoted_chain(self, token_ids) -> list[TrieNode]:
        """Promoted nodes along the fully-matched prefix, root side first.

        The chain is contiguous from the root by construction (the miner
        promotes ancestors before descendants), so the returned nodes'
        segments tile ``[0, chain[-1].end)``.
        """
        result = self.longest_prefix(token_ids, touch=True)
        return [n for n in result.path if n.promoted]

    def nodes(self):
        """Every node (excluding the root), no particular order."""
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    # -- eviction ----------------------------------------------------------------

    def _enforce_limits(self) -> list[TrieNode]:
        pruned: list[TrieNode] = []
        while self.max_tokens is not None and self.stats.token_count > self.max_tokens:
            leaves = [n for n in self.nodes() if n.is_leaf()]
            if not leaves:
                break
            node = min(leaves, key=lambda n: n.last_used_at)
            self._prune(node)
            pruned.append(node)
        return pruned

    def _prune(self, node: TrieNode) -> None:
        parent = node.parent
        assert parent is not None and node.is_leaf()
        del parent.children[node.tokens[0]]
        self.stats.node_count -= 1
        self.stats.token_count -= len(node.tokens)
        self.stats.evictions += 1
        self._maybe_merge(parent)

    def _maybe_merge(self, node: TrieNode) -> None:
        """Re-compress: a non-promoted interior node left with exactly one
        child merges with it (promoted nodes keep their boundary — it is
        a module edge the engine references)."""
        if node is self.root or node.promoted or len(node.children) != 1:
            return
        (child,) = node.children.values()
        child.tokens = node.tokens + child.tokens
        child.parent = node.parent
        assert node.parent is not None
        node.parent.children[child.tokens[0]] = child
        # Drop the merged-away node's run from the books; the child keeps
        # its own statistics (the merged node's were a superset count of
        # a shorter prefix, which no longer exists as a boundary).
        self.stats.node_count -= 1


def _common_prefix_len(run: tuple[int, ...], tokens: tuple[int, ...], offset: int) -> int:
    """Length of the common prefix of ``run`` and ``tokens[offset:]``."""
    limit = min(len(run), len(tokens) - offset)
    i = 0
    while i < limit and run[i] == tokens[offset + i]:
        i += 1
    return i
