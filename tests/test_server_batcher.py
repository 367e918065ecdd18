"""The admission queue: arrival order, schema labels, deadlines — all
fake-clock."""

from __future__ import annotations

from repro.server.batcher import RAW_BUCKET, CacheAwareBatcher
from repro.server.request import LiveRequest


def req(schema: str, submitted_at: float, *, max_new=4, deadline_at=None,
        rid="r", raw=False):
    return LiveRequest(
        request_id=rid,
        prompt=f'<prompt schema="{schema}"><context/></prompt>',
        schema=schema,
        max_new_tokens=max_new,
        submitted_at=submitted_at,
        deadline_at=deadline_at,
        raw=raw,
    )


def pop_all(b: CacheAwareBatcher) -> list[str]:
    return [b.pop_oldest().request_id for _ in range(len(b))]


class TestGrouping:
    def test_groups_by_schema(self):
        """Pending counts are per schema; every raw request reports under
        one bounded ``<raw>`` label, never under its own text or chain."""
        b = CacheAwareBatcher()
        b.put(req("a", 0.0))
        b.put(req("b", 0.0))
        b.put(req("a", 0.01, max_new=8))
        b.put(req("__raw__", 0.02, raw=True))
        b.put(req("__raw__", 0.03, raw=True))
        assert b.pending_by_schema() == {"a": 2, "b": 1, RAW_BUCKET: 2}

    def test_fifo_between_groups(self):
        """Schemas and decode budgets interleave adversarially; pop order
        follows arrival and nothing else."""
        b = CacheAwareBatcher()
        for rid, schema, at in [("a", "x", 1.0), ("b", "y", 2.0),
                                ("c", "x", 3.0), ("d", "z", 4.0)]:
            b.put(req(schema, at, rid=rid, max_new=4 + int(at)))
        assert b.pop_oldest().request_id == "a"
        b.put(req("w", 5.0, rid="e"))
        assert pop_all(b) == ["b", "c", "d", "e"]
        assert b.pop_oldest() is None


class TestDeadlines:
    def test_remove_expired_pulls_mid_queue(self):
        b = CacheAwareBatcher()
        b.put(req("a", 0.0, rid="keep1", deadline_at=100.0))
        b.put(req("a", 0.0, rid="dead", deadline_at=1.0))
        b.put(req("a", 0.0, rid="keep2"))  # no deadline
        expired = b.remove_expired(now=2.0)
        assert [r.request_id for r in expired] == ["dead"]
        assert pop_all(b) == ["keep1", "keep2"]

    def test_expired_whole_group_vanishes(self):
        b = CacheAwareBatcher()
        b.put(req("a", 0.0, deadline_at=1.0))
        assert len(b.remove_expired(now=5.0)) == 1
        assert len(b) == 0
        assert b.pending_by_schema() == {}

    def test_drain_empties_everything(self):
        b = CacheAwareBatcher()
        b.put(req("a", 0.0))
        b.put(req("b", 0.0))
        assert len(b.drain()) == 2
        assert len(b) == 0
