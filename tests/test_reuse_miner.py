"""Miner promotion policy against a recording stub engine.

These tests pin the policy invariants the byte-identity contract rests
on (no real model needed — the stub records registrations):

- thresholds: promotion requires ``min_hits`` observations AND a segment
  of at least ``min_tokens`` beyond the previous promoted boundary;
- tip-extension only: a node shallower than an already-promoted
  descendant is never promoted (its span would overlap);
- segments of one path tile ``[0, end)`` contiguously;
- demotion: trie eviction of a promoted node unregisters its module;
- failed registration is retried and surfaced in the stats.
"""

from __future__ import annotations

import pytest

from repro.reuse.miner import DiscoveryConfig, ReuseMiner


class StubEngine:
    """Records register/unregister calls; optionally fails some."""

    def __init__(self, fail_first: int = 0) -> None:
        self.registered: dict[str, tuple[tuple[int, ...], int, tuple[str, ...]]] = {}
        self.unregistered: list[str] = []
        self._fail_remaining = fail_first

    def register_discovered_module(self, name, prefix_tokens, start, ancestors=()):
        if self._fail_remaining > 0:
            self._fail_remaining -= 1
            raise RuntimeError("store pressure")
        self.registered[name] = (tuple(prefix_tokens), start, tuple(ancestors))

    def unregister_discovered_module(self, name):
        self.unregistered.append(name)


def miner(**overrides) -> ReuseMiner:
    return ReuseMiner(DiscoveryConfig(**{"min_hits": 2, "min_tokens": 4, **overrides}))


SHARED = list(range(100, 112))  # 12-token shared prefix


class TestThresholds:
    def test_no_promotion_below_min_hits(self):
        engine = StubEngine()
        m = miner(min_hits=3)
        m.observe(SHARED + [1], engine)
        m.observe(SHARED + [2], engine)
        assert not engine.registered

    def test_promotes_at_min_hits(self):
        engine = StubEngine()
        m = miner(min_hits=2)
        m.observe(SHARED + [1], engine)
        m.observe(SHARED + [2], engine)
        (prefix, start, ancestors), = engine.registered.values()
        assert prefix == tuple(SHARED)
        assert start == 0 and ancestors == ()
        assert m.stats.promotions == 1

    def test_no_promotion_below_min_tokens(self):
        engine = StubEngine()
        m = miner(min_tokens=64)
        for i in range(5):
            m.observe(SHARED + [i], engine)
        assert not engine.registered

    def test_max_modules_cap(self):
        engine = StubEngine()
        m = miner(max_modules=1)
        for i in range(3):
            m.observe(SHARED + [i], engine)
            m.observe(list(range(200, 212)) + [i], engine)
        assert len(engine.registered) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="min_hits"):
            DiscoveryConfig(min_hits=1).validate()
        with pytest.raises(ValueError, match="min_tokens"):
            DiscoveryConfig(min_tokens=0).validate()


class TestChainTiling:
    def test_deeper_segment_starts_at_previous_boundary(self):
        engine = StubEngine()
        m = miner()
        extended = SHARED + list(range(300, 308))
        m.observe(SHARED + [1], engine)
        m.observe(SHARED + [2], engine)  # promotes [0, 12)
        m.observe(extended + [1], engine)
        m.observe(extended + [2], engine)  # promotes [12, 20) on the same path
        starts = sorted(start for _, start, _ in engine.registered.values())
        assert starts == [0, 12]
        deeper = [
            (prefix, start, anc)
            for prefix, start, anc in engine.registered.values()
            if start == 12
        ]
        (prefix, start, ancestors), = deeper
        assert prefix == tuple(extended)
        assert len(ancestors) == 1  # conditioned on the promoted root segment

    def test_shallower_node_never_promoted_after_descendant(self):
        engine = StubEngine()
        # min_tokens small so the shallow split node would qualify if the
        # tip-extension rule did not exclude it.
        m = miner(min_hits=2, min_tokens=2)
        deep = SHARED + list(range(300, 306))
        m.observe(deep, engine)
        m.observe(deep, engine)  # promotes the full deep path [0, 18)
        registered_before = set(engine.registered)
        # Diverge inside the promoted run: the split creates a shallower
        # node that keeps the hit stats — still not promotable.
        for i in range(4):
            m.observe(SHARED[:6] + [900 + i], engine)
        new = {
            name: engine.registered[name]
            for name in set(engine.registered) - registered_before
        }
        for prefix, start, _ in new.values():
            # Any new module must not overlap [0, 18) unless it *is* a
            # chain extension starting at a promoted boundary.
            assert start == 0 and len(prefix) <= 6 or start >= 18

    def test_observed_paths_promote_chain_that_tiles(self):
        engine = StubEngine()
        m = miner(min_hits=2, min_tokens=4)
        a = SHARED + list(range(300, 310))
        for seq in (SHARED, SHARED, a, a, a + [1], a + [2]):
            m.observe(seq, engine)
        # Every registered segment chain tiles from 0 with no gaps.
        segs = sorted(
            (start, len(prefix)) for prefix, start, _ in engine.registered.values()
        )
        prev_end = 0
        for start, prefix_len in segs:
            assert start == prev_end
            prev_end = prefix_len


class TestDemotionAndFailure:
    def test_trie_eviction_demotes_module(self):
        engine = StubEngine()
        m = miner(max_trie_tokens=16, min_tokens=4, min_hits=2)
        m.observe(SHARED, engine)
        m.observe(SHARED, engine)  # promoted, 12 tokens resident
        assert len(engine.registered) == 1
        # Unrelated traffic blows the token budget; the promoted leaf is
        # the eviction victim and must be demoted.
        m.observe(list(range(400, 412)), engine)
        m.observe(list(range(500, 512)), engine)
        assert engine.unregistered, "eviction did not demote"
        assert engine.unregistered[0] == "seg0001"
        assert m.stats.demotions == 1
        assert m.snapshot()["modules"] == len(engine.registered) - len(
            engine.unregistered
        )

    def test_failed_registration_retries_and_is_counted(self):
        engine = StubEngine(fail_first=1)
        m = miner(min_hits=2)
        m.observe(SHARED + [1], engine)
        m.observe(SHARED + [2], engine)  # first attempt fails
        assert not engine.registered
        assert m.stats.failed_promotions == 1
        assert "store pressure" in (m.last_promotion_error or "")
        m.observe(SHARED + [3], engine)  # retried on the next observation
        assert len(engine.registered) == 1
        assert m.stats.promotions == 1

    def test_match_and_matched_prefix_len(self):
        engine = StubEngine()
        m = miner(min_hits=2)
        m.observe(SHARED + [1], engine)
        m.observe(SHARED + [2], engine)
        names = m.match(SHARED + [5, 6])
        assert names == list(engine.registered)
        assert m.matched_prefix_len(SHARED + [5, 6]) == len(SHARED)
        assert m.match([9, 9, 9]) == []
        assert m.matched_prefix_len([9, 9, 9]) == 0

    def test_snapshot_shape(self):
        engine = StubEngine()
        m = miner()
        m.observe(SHARED, engine)
        snap = m.snapshot()
        for key in (
            "trie_nodes", "trie_tokens", "modules", "promotions", "demotions",
            "failed_promotions", "observed_sequences", "observed_tokens",
            "last_promotion_error",
        ):
            assert key in snap
        assert snap["observed_sequences"] == 1
        assert snap["observed_tokens"] == len(SHARED)
