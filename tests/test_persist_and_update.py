"""Module persistence to disk + runtime module updates + invalidation."""

from __future__ import annotations

import hashlib
import json

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


def save_v1(store: ModuleCacheStore, directory) -> None:
    """Write ``store``'s raw entries in the retired v1 layout, frozen here
    because nothing else writes it any more: one ``savez_compressed``
    archive per entry (``positions`` plus ``keys{i}``/``values{i}`` per
    layer) and an ``index.json`` that is a bare list of records."""
    directory.mkdir(parents=True, exist_ok=True)
    records = []
    for tier_name in ("gpu", "cpu"):
        for key, entry in store.tier(tier_name).entries.items():
            kv = entry.kv
            arrays = {"positions": kv.positions}
            for i, (k, v) in enumerate(zip(kv.keys, kv.values)):
                arrays[f"keys{i}"] = k
                arrays[f"values{i}"] = v
            path = _payload_path(directory, key.schema, key.module, key.variant)
            np.savez_compressed(path, **arrays)
            records.append({
                "schema": key.schema, "module": key.module, "variant": key.variant,
                "kind": "raw", "file": path.name,
                "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "tier": tier_name, "pinned": entry.pinned,
            })
    (directory / "index.json").write_text(json.dumps(records, indent=1))


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

    @pytest.mark.parametrize("format", ["v1", "v2"])
    def test_round_trip_restores_arena_backing(self, pc, tmp_path, format):
        """Restored raw modules must stay on the one-memcpy splice fast
        path: the loader rebuilds them via ``ModuleKV.from_arenas``, not
        as loose per-layer lists (the pre-v2 loader silently dropped the
        arena on restart)."""
        (save_v1 if format == "v1" else save_store)(pc.store, tmp_path)
        restored = load_store(tmp_path)
        for name in ("a", "b"):
            key = CacheKey("lib", name)
            loaded = restored.fetch(key).entry.kv
            assert loaded.is_arena, f"{format} restore dropped arena backing"
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
    def test_v1_index_records_sha256(self, pc, tmp_path):
        """v1 recorded a digest per archive, so the corrupt-file test below
        exercises the checksum, not the unreadable-payload fallback."""
        save_v1(pc.store, tmp_path)
        index = json.loads((tmp_path / "index.json").read_text())
        assert index
        for record in index:
            assert len(record["sha256"]) == 64

    def test_v1_snapshot_upgrades_to_a_catalog(self, pc, tmp_path):
        """The catalog refuses v1 (its archives cannot be mapped);
        ``save_store(load_store(old), new)`` upgrades it to one that
        serves the same bytes through page-ins."""
        save_v1(pc.store, tmp_path / "v1")
        with pytest.raises(ValueError, match="needs a v2 snapshot"):
            ModuleCacheStore(snapshot_dir=tmp_path / "v1")
        save_store(load_store(tmp_path / "v1"), tmp_path / "v2")
        attached = ModuleCacheStore(snapshot_dir=tmp_path / "v2")
        for name in ("a", "b"):
            key = CacheKey("lib", name)
            found = attached.fetch(key)
            assert found.source == "snapshot" and found.entry.kv.is_mapped
            original = pc.store.peek(key).kv
            np.testing.assert_array_equal(found.entry.kv.key_arena, original.key_arena)
            np.testing.assert_array_equal(found.entry.kv.value_arena, original.value_arena)

    def test_corrupt_file_is_skipped_with_warning(self, pc, tmp_path):
        save_v1(pc.store, tmp_path)
        victim = _flip_byte(tmp_path, "lib", "a")
        with pytest.warns(UserWarning, match="checksum mismatch"):
            restored = load_store(tmp_path)
        assert restored.fetch(CacheKey("lib", "a")) is None  # skipped
        assert restored.fetch(CacheKey("lib", "b")) is not None  # survived
        assert victim.exists()  # we only skip, never delete

    def test_missing_file_is_skipped_with_warning(self, pc, tmp_path):
        save_v1(pc.store, tmp_path)
        _payload_path(tmp_path, "lib", "a").unlink()
        with pytest.warns(UserWarning, match="missing"):
            restored = load_store(tmp_path)
        assert restored.fetch(CacheKey("lib", "a")) is None
        assert restored.fetch(CacheKey("lib", "b")) is not None

    def test_truncated_legacy_file_is_skipped(self, pc, tmp_path):
        """Pre-checksum snapshots (no sha256 in the index) still degrade
        to a skip when the archive itself is truncated."""
        save_v1(pc.store, tmp_path)
        index_path = tmp_path / "index.json"
        index = json.loads(index_path.read_text())
        for record in index:
            record.pop("sha256")
        index_path.write_text(json.dumps(index))
        path = _payload_path(tmp_path, "lib", "a")
        path.write_bytes(path.read_bytes()[:40])
        with pytest.warns(UserWarning, match="unreadable payload"):
            restored = load_store(tmp_path)
        assert restored.fetch(CacheKey("lib", "a")) is None
        assert restored.fetch(CacheKey("lib", "b")) is not None

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


def _payload_path(directory, schema, module, variant="solo"):
    return directory / f"{schema}__{module}__{variant}.npz"


def _flip_byte(directory, schema, module):
    path = _payload_path(directory, schema, module)
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    return path
