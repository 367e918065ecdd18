"""Learned absolute position embeddings (BERT / GPT-2 style).

This is the one scheme the paper notes needs *no* adaptation for
discontinuous position IDs (§4.2): the embedding table is already a lookup
keyed by position ID.
"""

from __future__ import annotations

import numpy as np


class LearnedPositionalEmbedding:
    """Adds a learned per-position vector to the token embeddings."""

    def __init__(self, table: np.ndarray) -> None:
        self.table = table  # (max_position, d_model)
        self.max_position = table.shape[0]

    def check(self, position_ids: np.ndarray) -> None:
        """Raise ``ValueError`` for position IDs outside the table."""
        if position_ids.size and (
            position_ids.min() < 0 or position_ids.max() >= self.max_position
        ):
            raise ValueError(
                f"position ids must lie in [0, {self.max_position}); "
                f"got range [{position_ids.min()}, {position_ids.max()}]"
            )

    def apply(self, hidden: np.ndarray, position_ids: np.ndarray) -> np.ndarray:
        """``hidden`` is (T, d_model); returns hidden + table[position_ids]."""
        position_ids = np.asarray(position_ids)
        self.check(position_ids)
        return hidden + self.table[position_ids]
