"""The last layer computes only the rows whose logits are returned.

Every layer of ``forward`` appends every row's K/V; the last one then
runs attention, the output projection, the MLP, the final norm and the LM
head only on the rows the call returns — none with ``logits=False``, the
last row of each segment for a packed call, every row for the
single-cache call. Over the four positional families (RoPE sequential and
parallel block, ALiBi, learned positions) and the grouped-query models of
``test_gqa``, on packs holding a flat cache, a continuing chunk, forks of
a spliced base and a param sitting below a later module:

- the K/V appended with ``logits=False`` and with ``logits=True`` are
  byte-equal to those of the all-rows call;
- the returned last-row logits equal the all-rows call's last rows to
  float32 tolerance, greedy token included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.llm import build_model
from repro.llm.paged import ForkCache
from tests.test_gqa import gqa_config
from tests.test_packed_prefill import (
    assert_same_logits,
    family_model,
    segment_positions,
    shared_bases,
)

# (kind, which base, earlier tokens, rows) — see test_packed_prefill.segment_specs
PACK = [
    ("flat", 0, 0, 5),
    ("fork", 0, 0, 7),
    ("param", 0, 0, 9),  # six rows inside the gap, three above the later module
    ("flat", 0, 4, 3),  # a continuing chunk
    ("fork", 1, 0, 1),
]

MODELS = {
    **{
        arch: lambda arch=arch: family_model(arch, False)
        for arch in ("llama", "falcon", "mpt", "gpt2")
    },
    "gqa-1": lambda: build_model(gqa_config(1), seed=4),
    "gqa-2": lambda: build_model(gqa_config(2), seed=4),
}


def assert_same_kv(caches, reference):
    for cache, ref in zip(caches, reference):
        assert len(cache) == len(ref)
        for layer, ref_layer in zip(cache.layers, ref.layers):
            assert layer.keys.tobytes() == ref_layer.keys.tobytes()
            assert layer.values.tobytes() == ref_layer.values.tobytes()
            np.testing.assert_array_equal(layer.positions, ref_layer.positions)


@pytest.mark.parametrize("name", list(MODELS))
def test_packed_trim_keeps_kv_and_last_rows(name):
    model = MODELS[name]()
    vocab = model.config.vocab_size
    rng = np.random.default_rng(7)
    bases, gap_start = shared_bases(rng, model.config)
    earlier = {i: rng.integers(0, vocab, size=spec[2]) for i, spec in enumerate(PACK)}

    def make_caches():
        caches = []
        for i, (kind, which, _, _) in enumerate(PACK):
            if kind == "flat":
                cache = model.new_cache(capacity=4)
                if len(earlier[i]):
                    model.forward(earlier[i], np.arange(len(earlier[i])), cache)
            else:
                cache = bases[2 if kind == "param" else which].fork()
            caches.append(cache)
        return caches

    every, last_rows, no_logits = make_caches(), make_caches(), make_caches()
    positions = [
        segment_positions(kind, cache, n, rows, gap_start)
        for (kind, _, n, rows), cache in zip(PACK, every)
    ]
    ids = rng.integers(0, vocab, size=sum(rows for *_, rows in PACK))
    packed = np.concatenate(positions)
    rows = [len(p) for p in positions]
    stops = np.cumsum(rows) - 1

    full = model._forward_packed(ids, packed, list(zip(every, rows)), None)
    assert full.shape == (len(ids), vocab)
    logits = model.forward(ids, packed, list(zip(last_rows, rows)))
    assert logits.shape == (len(PACK), vocab) and logits.flags.c_contiguous
    assert model.forward(ids, packed, list(zip(no_logits, rows)), logits=False) is None

    assert_same_kv(last_rows, every)
    assert_same_kv(no_logits, every)
    for row, expected in zip(logits, full[stops]):
        assert_same_logits(row, expected)

    for cache in every + last_rows + no_logits:
        if isinstance(cache, ForkCache):
            cache.free()
    assert all(base.forks == 0 for base in bases)


@pytest.mark.parametrize("name", list(MODELS))
def test_single_cache_trim_keeps_kv_and_last_row(name):
    """The single-cache call returns every row; a pack of one the last;
    ``logits=False`` none — all three append the same K/V bytes."""
    model = MODELS[name]()
    rng = np.random.default_rng(8)
    ids = rng.integers(0, model.config.vocab_size, size=11)
    positions = np.arange(3, 14)
    caches = [model.new_cache(capacity=4) for _ in range(3)]
    every = model.forward(ids, positions, caches[0])
    last = model.forward(ids, positions, [(caches[1], len(ids))])
    assert model.forward(ids, positions, caches[2], logits=False) is None
    assert every.shape == (len(ids), model.config.vocab_size) and last.shape[0] == 1
    assert_same_kv(caches[1:], [caches[0]] * 2)
    assert_same_logits(last[0], every[-1])
