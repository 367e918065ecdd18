"""Byte-exact accounting of cached attention states (paper §5.5, Table 2).

The cache storage tiers raise :class:`CapacityError` for an entry larger
than their budget, and the Table 2 bench reports MB per cached token for
each paper-shape model. Accounting matches the paper's: K and V at fp16
across all layers, full multi-head KV width.
"""

from __future__ import annotations

from repro.llm.config import ModelConfig


class CapacityError(MemoryError):
    """Raised when an entry is larger than a tier's whole capacity."""


def module_bytes(config: ModelConfig, n_tokens: int, bytes_per_element: int = 2) -> int:
    """Bytes to cache one ``n_tokens`` prompt module for ``config``."""
    return n_tokens * config.kv_bytes_per_token(bytes_per_element)


def mb_per_token(config: ModelConfig, bytes_per_element: int = 2) -> float:
    """Table 2's headline number. The paper's figures divide by 2^20
    (0.50 for Llama2-7B = 524288 / 1048576), i.e. MiB labelled "MB"."""
    return config.kv_bytes_per_token(bytes_per_element) / (1024 * 1024)
