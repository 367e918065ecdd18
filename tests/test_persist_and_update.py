"""Module persistence to disk + runtime module updates + invalidation."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.cache.compress import Int8Codec
from repro.cache.engine import PromptCache
from repro.cache.persist import load_store, save_store
from repro.cache.storage import CacheKey, ModuleCacheStore
from repro.pml import PLAIN_TEMPLATE

SCHEMA = (
    '<schema name="lib"><module name="a">the quick brown fox</module>'
    '<module name="b">jumps over the lazy dog</module></schema>'
)


@pytest.fixture()
def pc(llama, tok):
    cache = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
    cache.register_schema(SCHEMA)
    return cache


class TestPersistence:
    def test_round_trip_raw_entries(self, pc, tmp_path):
        report = save_store(pc.store, tmp_path)
        assert report.saved >= 2
        assert not report.partial
        restored = load_store(tmp_path)
        for name in ("a", "b"):
            key = CacheKey("lib", name)
            original = pc.store.fetch(key).entry.kv
            loaded = restored.fetch(key).entry.kv
            np.testing.assert_array_equal(loaded.positions, original.positions)
            np.testing.assert_array_equal(loaded.keys[0], original.keys[0])

    def test_round_trip_restores_arena_backing(self, pc, tmp_path):
        """Restored raw modules must stay on the one-memcpy splice fast
        path: the loader rebuilds them via ``ModuleKV.from_arenas``, not
        as loose per-layer lists (the pre-v2 loader silently dropped the
        arena on restart)."""
        save_store(pc.store, tmp_path)
        restored = load_store(tmp_path)
        for name in ("a", "b"):
            key = CacheKey("lib", name)
            loaded = restored.fetch(key).entry.kv
            assert loaded.is_arena, "restore dropped arena backing"
            np.testing.assert_array_equal(
                loaded.key_arena, pc.store.fetch(key).entry.kv.key_arena
            )
            np.testing.assert_array_equal(
                loaded.value_arena, pc.store.fetch(key).entry.kv.value_arena
            )

    def test_round_trip_preserves_tier(self, llama, tok, tmp_path):
        store = ModuleCacheStore(gpu_capacity_bytes=0)  # every encode lands in DRAM
        pc = PromptCache(llama, tok, store=store, template=PLAIN_TEMPLATE)
        pc.register_schema(SCHEMA)
        save_store(pc.store, tmp_path)
        restored = load_store(tmp_path)
        assert restored.fetch(CacheKey("lib", "a")).tier == "cpu"

    def test_round_trip_compressed_entries(self, llama, tok, tmp_path):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE, kv_codec="int8")
        pc.register_schema(SCHEMA)
        save_store(pc.store, tmp_path)
        restored = load_store(tmp_path)
        stored = restored.fetch(CacheKey("lib", "a")).entry.kv
        assert stored.codec == "int8"
        decoded = Int8Codec().decode(stored)
        reference = Int8Codec().decode(pc.store.fetch(CacheKey("lib", "a")).entry.kv)
        np.testing.assert_array_equal(decoded.keys[0], reference.keys[0])

    def test_restored_store_serves(self, pc, llama, tok, tmp_path):
        expected = pc.serve('<prompt schema="lib"><a/><b/> go</prompt>', max_new_tokens=4)
        save_store(pc.store, tmp_path)
        fresh = PromptCache(llama, tok, store=load_store(tmp_path), template=PLAIN_TEMPLATE)
        fresh.register_schema(SCHEMA, eager=False)
        # No re-encoding happens: the store already holds every module.
        insertions_before = fresh.store.gpu.stats.insertions
        result = fresh.serve('<prompt schema="lib"><a/><b/> go</prompt>', max_new_tokens=4)
        assert fresh.store.gpu.stats.insertions == insertions_before
        assert result.output_ids == expected.output_ids


class TestInvalidation:
    def test_invalidate_single_module(self, pc):
        assert pc.invalidate("lib", "a") == 1
        assert pc.store.fetch(CacheKey("lib", "a")) is None
        assert pc.store.fetch(CacheKey("lib", "b")) is not None

    def test_invalidate_whole_schema(self, pc):
        dropped = pc.invalidate("lib")
        assert dropped >= 2
        assert pc.store.fetch(CacheKey("lib", "b")) is None

    def test_serving_after_invalidation_re_encodes(self, pc):
        pc.invalidate("lib", "a")
        result = pc.serve('<prompt schema="lib"><a/> go</prompt>', max_new_tokens=2)
        assert result.cached_tokens > 0
        assert pc.store.fetch(CacheKey("lib", "a")) is not None


class TestRuntimeUpdate:
    def test_update_changes_output(self, pc):
        before = pc.serve('<prompt schema="lib"><a/> go</prompt>', max_new_tokens=5)
        pc.update_module_text("lib", "a", "paris museums cafes louvre seine")
        after = pc.serve('<prompt schema="lib"><a/> go</prompt>', max_new_tokens=5)
        assert before.output_ids != after.output_ids or (
            before.cached_tokens != after.cached_tokens
        )

    def test_update_matches_fresh_registration(self, pc, llama, tok):
        """Updating in place must equal registering the new text from
        scratch — greedy outputs agree."""
        pc.update_module_text("lib", "a", "paris museums cafes louvre seine")
        updated = pc.serve('<prompt schema="lib"><a/><b/> go</prompt>', max_new_tokens=5)

        fresh = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        fresh.register_schema(
            '<schema name="lib"><module name="a">paris museums cafes louvre seine</module>'
            '<module name="b">jumps over the lazy dog</module></schema>'
        )
        reference = fresh.serve('<prompt schema="lib"><a/><b/> go</prompt>', max_new_tokens=5)
        assert updated.output_ids == reference.output_ids

    def test_unaffected_modules_keep_states_when_layout_stable(self, pc, tok):
        """Same token count -> b's span is unchanged -> no re-encode of b."""
        old_text = "the quick brown fox"
        same_length_text = "the quick brown dog"
        assert len(tok.encode(old_text)) == len(tok.encode(same_length_text))
        insertions = pc.store.gpu.stats.insertions
        pc.update_module_text("lib", "a", same_length_text)
        pc.serve('<prompt schema="lib"><a/><b/> go</prompt>', max_new_tokens=2)
        # Exactly one new insertion: the re-encoded module a.
        assert pc.store.gpu.stats.insertions == insertions + 1


class _StandIn:
    """Simulator-style payload with sizes but no tensors to persist."""

    def nbytes(self) -> int:
        return 256

    def __len__(self) -> int:
        return 4


class TestSnapshotIntegrity:
    def test_corrupt_file_is_skipped_with_warning(self, pc, tmp_path):
        save_store(pc.store, tmp_path)
        victim = _flip_byte(tmp_path, "lib", "a")
        with pytest.warns(UserWarning, match="checksum mismatch"):
            restored = load_store(tmp_path)
        assert restored.fetch(CacheKey("lib", "a")) is None  # skipped
        assert restored.fetch(CacheKey("lib", "b")) is not None  # survived
        assert victim.exists()  # we only skip, never delete

    def test_missing_file_is_skipped_with_warning(self, pc, tmp_path):
        save_store(pc.store, tmp_path)
        _payload_path(tmp_path, "lib", "a").unlink()
        with pytest.warns(UserWarning, match="missing"):
            restored = load_store(tmp_path)
        assert restored.fetch(CacheKey("lib", "a")) is None
        assert restored.fetch(CacheKey("lib", "b")) is not None

    def test_truncated_file_is_skipped(self, pc, tmp_path):
        save_store(pc.store, tmp_path)
        path = _payload_path(tmp_path, "lib", "a")
        path.write_bytes(path.read_bytes()[:40])
        with pytest.warns(UserWarning, match="checksum mismatch"):
            restored = load_store(tmp_path)
        assert restored.fetch(CacheKey("lib", "a")) is None
        assert restored.fetch(CacheKey("lib", "b")) is not None

    def test_v1_index_records_sha256(self, pc, tmp_path):
        """The index records a SHA-256 per payload file, as the retired v1
        layout already did per archive, so the corrupt-file test above
        exercises the checksum, not the unreadable-payload fallback."""
        save_store(pc.store, tmp_path)
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["entries"]
        for record in index["entries"]:
            assert record["files"]
            for file in record["files"].values():
                assert len(file["sha256"]) == 64
                int(file["sha256"], 16)

    def test_a_bare_list_index_is_refused(self, pc, tmp_path):
        """An index that is a bare record list, as the retired v1 layout
        wrote, is refused whole by both readers."""
        save_store(pc.store, tmp_path)
        index_path = tmp_path / "index.json"
        entries = json.loads(index_path.read_text())["entries"]
        index_path.write_text(json.dumps(entries))
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            load_store(tmp_path)
        with pytest.raises(ValueError, match="unsupported snapshot version"):
            ModuleCacheStore(snapshot_dir=tmp_path)

    def test_save_reports_skipped_stand_ins(self, pc, tmp_path):
        pc.store.put(CacheKey("lib", "ghost"), _StandIn())
        with pytest.warns(UserWarning, match="partial snapshot"):
            report = save_store(pc.store, tmp_path)
        assert report.saved >= 2
        assert report.skipped == 1
        assert report.partial
        assert "lib/ghost/solo" in report.skipped_keys
        assert "skipped 1" in report.summary()
        # The stand-in never lands in the index; a restore is clean.
        restored = load_store(tmp_path)
        assert restored.fetch(CacheKey("lib", "ghost")) is None


# One field ``save_store`` writes, dropped from module a's record: its key
# file's digest, sparse digest and data offset, and the record's layout.
DROPPED = {
    "sha256": lambda record: record["files"]["keys"].pop("sha256"),
    "sparse_sha256": lambda record: record["files"]["keys"].pop("sparse_sha256"),
    "offset": lambda record: record["files"]["keys"].pop("offset"),
    "key_layout": lambda record: record.pop("key_layout"),
}


@pytest.fixture(params=sorted(DROPPED))
def incomplete(request, pc, tmp_path):
    """A snapshot whose record of module a lacks one field."""
    save_store(pc.store, tmp_path)
    index_path = tmp_path / "index.json"
    index = json.loads(index_path.read_text())
    for record in index["entries"]:
        if record["module"] == "a":
            DROPPED[request.param](record)
    index_path.write_text(json.dumps(index))
    return tmp_path


class TestIncompleteRecords:
    """A record lacking any field ``save_store`` writes is refused like a
    corrupt file by every reader — skipped with a warning, the module
    left to re-encode — and never served on a guess."""

    def test_load_store_skips_it(self, incomplete):
        with pytest.warns(UserWarning, match="lacks"):
            restored = load_store(incomplete)
        assert restored.fetch(CacheKey("lib", "a")) is None
        assert restored.fetch(CacheKey("lib", "b")) is not None

    def test_a_page_in_refuses_it(self, incomplete):
        store = ModuleCacheStore(snapshot_dir=incomplete)
        with pytest.warns(UserWarning, match="lacks"):
            assert store.fetch(CacheKey("lib", "a")) is None
        assert store.fabric_snapshot()["verify_failed"] == 1
        assert not store.snapshot_backed(CacheKey("lib", "a"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert store.fetch(CacheKey("lib", "a")) is None  # not retried
            assert store.fetch(CacheKey("lib", "b")).source == "snapshot"

    def test_the_digest_sweep_drops_it(self, incomplete):
        store = ModuleCacheStore(snapshot_dir=incomplete)
        with pytest.warns(UserWarning, match="lacks"):
            assert store.verify_catalog() == 1
        assert not store.snapshot_backed(CacheKey("lib", "a"))
        assert store.snapshot_backed(CacheKey("lib", "b"))
        assert store.fetch(CacheKey("lib", "a")) is None


def _payload_path(directory, schema, module, variant="solo"):
    return directory / f"{schema}__{module}__{variant}.keys.npy"


def _flip_byte(directory, schema, module):
    path = _payload_path(directory, schema, module)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    return path
