"""Invariants of the reuse-discovery radix trie (and the dedup analyzer).

Property-based core (hypothesis, seeded/deterministic):

- insert/longest-prefix round-trip: every inserted sequence matches in
  full, and an arbitrary query's match length equals its longest common
  prefix with the inserted set;
- path compression: resident ``token_count`` equals the number of
  *distinct non-empty prefixes* in the inserted set (the uncompressed
  trie's node count), while ``node_count`` only grows at branch points;
- eviction: capacity bounds hold after every insert, the least recently
  used leaf goes first (cascading into a parent left childless), and
  pruning re-merges single-child parents.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.reuse.trie import TokenRadixTrie

sequences = st.lists(
    st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=12),
    min_size=1,
    max_size=8,
)


def lcp(a, b) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


class TestRoundTrip:
    @given(seqs=sequences)
    @settings(max_examples=60, deadline=None)
    def test_inserted_sequences_match_in_full(self, seqs):
        trie = TokenRadixTrie()
        for seq in seqs:
            trie.insert(seq)
        for seq in seqs:
            assert trie.longest_prefix(seq).length == len(seq)

    @given(seqs=sequences, query=st.lists(st.integers(0, 7), max_size=14))
    @settings(max_examples=60, deadline=None)
    def test_match_length_is_longest_common_prefix(self, seqs, query):
        trie = TokenRadixTrie()
        for seq in seqs:
            trie.insert(seq)
        expected = max(lcp(query, seq) for seq in seqs)
        assert trie.longest_prefix(query).length == expected

    @given(seqs=sequences)
    @settings(max_examples=60, deadline=None)
    def test_covered_path_tiles_the_sequence(self, seqs):
        trie = TokenRadixTrie()
        for seq in seqs:
            path, _ = trie.insert(seq)
            offset = 0
            for node in path:
                assert node.start == offset
                offset = node.end
            assert offset == len(seq)
            assert tuple(seq[: path[-1].end]) == path[-1].path_tokens()


class TestCompression:
    @given(seqs=sequences)
    @settings(max_examples=60, deadline=None)
    def test_token_count_equals_distinct_prefixes(self, seqs):
        trie = TokenRadixTrie()
        prefixes: set[tuple] = set()
        for seq in seqs:
            trie.insert(seq)
            prefixes.update(tuple(seq[:i]) for i in range(1, len(seq) + 1))
        assert trie.stats.token_count == len(prefixes)
        assert trie.stats.node_count == sum(1 for _ in trie.nodes())

    def test_shared_prefix_is_one_run_until_divergence(self):
        trie = TokenRadixTrie()
        trie.insert([1, 2, 3, 4, 5])
        assert trie.stats.node_count == 1
        trie.insert([1, 2, 3, 9, 9])
        # Split at the divergence: shared run [1,2,3] + two tails.
        assert trie.stats.splits == 1
        assert trie.stats.node_count == 3
        shared = trie.longest_prefix([1, 2, 3]).path
        assert len(shared) == 1 and shared[0].tokens == (1, 2, 3)

    def test_split_preserves_hit_statistics_on_upper_node(self):
        trie = TokenRadixTrie()
        for _ in range(3):
            trie.insert([1, 2, 3, 4])
        trie.insert([1, 2, 7])
        upper = trie.longest_prefix([1, 2]).path[0]
        # Every earlier full-run cover also covered the shorter upper
        # half, plus the insert that caused the split.
        assert upper.tokens == (1, 2)
        assert upper.hits == 4

    def test_prune_merges_single_child_parent(self):
        trie = TokenRadixTrie(max_tokens=None)
        trie.insert([1, 2, 3, 4])
        trie.insert([1, 2, 9])
        trie.insert([1, 2, 3, 4, 5])  # keep the [3,4] branch warm
        assert trie.stats.node_count == 4
        victim = trie.longest_prefix([1, 2, 9]).path[-1]
        trie._prune(victim)
        # [1,2] re-merges with its surviving [3,4] child.
        assert trie.longest_prefix([1, 2, 3, 4, 5]).length == 5
        assert trie.stats.node_count == 2


class TestEviction:
    @given(seqs=sequences, cap=st.integers(min_value=4, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_capacity_bound_holds_after_every_insert(self, seqs, cap):
        trie = TokenRadixTrie(max_tokens=cap)
        for seq in seqs:
            trie.insert(seq)
            assert trie.stats.token_count <= cap

    def test_lru_evicts_least_recently_used_leaf(self):
        trie = TokenRadixTrie(max_tokens=8)
        trie.insert([1, 1, 1])
        trie.insert([2, 2, 2])
        trie.insert([1, 1, 1])  # refresh the first branch
        trie.insert([3, 3, 3])  # over budget: [2,2,2] is coldest
        assert trie.longest_prefix([2, 2, 2]).length == 0
        assert trie.longest_prefix([1, 1, 1]).length == 3
        assert trie.longest_prefix([3, 3, 3]).length == 3

    def test_capacity_eviction_cascades_into_a_promoted_parent(self):
        trie = TokenRadixTrie(max_tokens=4)
        assert trie.insert([1, 2, 3])[1] == []
        assert trie.insert([1, 2, 9])[1] == []  # splits: [1,2] interior + two leaves
        # Promote the interior node: it cannot re-merge away, so once its
        # children are evicted it is a leaf, and the coldest one.
        trie.longest_prefix([1, 2]).path[0].promoted = True
        _, pruned = trie.insert([5, 6, 7, 8])
        assert [node.tokens for node in pruned] == [(3,), (9,), (1, 2)]
        assert trie.stats.node_count == 1 and trie.stats.token_count == 4
        assert trie.longest_prefix([5, 6, 7, 8]).length == 4


class TestDedupAnalyzer:
    def test_disjoint_batch_has_zero_potential(self):
        from repro.reuse.dedup import analyze_batch

        report = analyze_batch([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert report.shared_tokens == 0
        assert report.potential == 0.0

    def test_shared_prefix_fraction(self):
        from repro.reuse.dedup import analyze_batch

        report = analyze_batch([[1, 2, 3, 4], [1, 2, 3, 9], [1, 2, 7, 7]])
        # Second shares [1,2,3] with the first; third shares [1,2].
        assert report.total_tokens == 12
        assert report.shared_tokens == 5
        assert report.potential == pytest.approx(5 / 12)

    @given(seqs=sequences)
    @settings(max_examples=40, deadline=None)
    def test_potential_bounded_and_order_of_first_sequence_free(self, seqs):
        from repro.reuse.dedup import analyze_batch

        report = analyze_batch(seqs)
        assert 0.0 <= report.potential < 1.0 or len(seqs) == 0
        assert report.total_tokens == sum(len(s) for s in seqs)
