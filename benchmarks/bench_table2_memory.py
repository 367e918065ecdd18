"""Table 2 — memory overhead of caching a single token (MB/token, fp16).

Paper values: BERT 0.03, Falcon-1B 0.18, Llama2-7B 0.50, Llama2-13B 0.78,
MPT-30B 1.31, Falcon-40B 1.87, Llama2-70B 2.5, Falcon-180B 4.53.

Regenerated from the architecture shapes alone, plus a cross-check that a
tiny model's *actual* cached tensors match the analytic count bit-for-bit
(scaled to fp16 accounting).
"""

from __future__ import annotations

import pytest

from repro.bench import emit, format_table
from repro.cache.encoder import encode_module
from repro.cache.layout import layout_schema
from repro.llm.config import ModelConfig, paper_config
from repro.pml import Schema

TABLE2 = [
    ("bert-base", 0.03), ("falcon-1b", 0.18), ("llama2-7b", 0.50),
    ("llama2-13b", 0.78), ("mpt-30b", 1.31), ("falcon-40b", 1.87),
    ("llama2-70b", 2.50), ("falcon-180b", 4.53),
]


def module_bytes(config: ModelConfig, n_tokens: int, bytes_per_element: int = 2) -> int:
    """Bytes to cache one ``n_tokens`` prompt module for ``config``: K and
    V across all layers, full KV width, the paper's fp16 accounting."""
    return n_tokens * config.kv_bytes_per_token(bytes_per_element)


def mb_per_token(config: ModelConfig, bytes_per_element: int = 2) -> float:
    """Table 2's headline number. The paper's figures divide by 2^20
    (0.50 for Llama2-7B = 524288 / 1048576), i.e. MiB labelled "MB"."""
    return config.kv_bytes_per_token(bytes_per_element) / (1024 * 1024)


def table2_rows():
    return [
        [name, paper, round(mb_per_token(paper_config(name)), 2)]
        for name, paper in TABLE2
    ]


def test_table2_memory_per_token(benchmark):
    rows = table2_rows()
    emit(
        "table2_memory",
        format_table(
            "Table 2: memory overhead of caching a single token (fp16)",
            ["model", "paper_MB_per_token", "ours_MB_per_token"],
            rows,
            note="MB = MiB; paper's BERT row truncates 0.035 to 0.03",
        ),
    )
    for name, paper, ours in rows:
        assert ours == pytest.approx(paper, abs=0.011), name
    benchmark(table2_rows)


def test_table2_example_magnitudes(benchmark):
    """§5.5's worked examples: ~180 MB per 1K-token document on Falcon-1B,
    ~2.5 GB on Llama2-70B."""
    falcon = module_bytes(paper_config("falcon-1b"), 1000)
    llama70 = module_bytes(paper_config("llama2-70b"), 1000)
    assert 170e6 < falcon < 210e6
    assert 2.4e9 < llama70 < 2.8e9
    benchmark(module_bytes, paper_config("llama2-70b"), 1000)


def test_table2_accounting_matches_real_tensors(benchmark, tiny_model, tok):
    """The analytic bytes/token equal the engine's actual cached tensor
    sizes (fp32 arrays here; fp16 accounting is exactly half)."""
    text = "the quick brown fox jumps over the lazy dog " * 4
    schema = Schema.parse(f'<schema name="acc"><module name="m">{text}</module></schema>')
    layout = layout_schema(schema, tok)
    kv = encode_module(tiny_model, layout.module("m"))
    n = len(kv)
    analytic_fp32 = tiny_model.config.kv_bytes_per_token(bytes_per_element=4) * n
    tensor_bytes = sum(k.nbytes + v.nbytes for k, v in zip(kv.keys, kv.values))
    assert tensor_bytes == analytic_fp32
    benchmark(encode_module, tiny_model, layout.module("m"))
