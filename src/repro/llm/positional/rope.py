"""Rotary position embedding with a position-ID lookup table.

Stock RoPE implementations rotate by positions ``0..n-1``; Prompt Cache
needs rotations at arbitrary (possibly gapped) IDs, so — exactly as the
paper's adaptation (§4.2) — the full cos/sin tables are precomputed up to
``max_position`` and indexed by whatever position IDs arrive.
"""

from __future__ import annotations

import numpy as np

from repro.llm.layers import DTYPE


class RotaryEmbedding:
    """Precomputed rotation tables applied to query/key heads.

    Uses the rotate-half formulation (Llama convention): the head dimension
    is split into two halves that form the (real, imaginary) components.
    """

    def __init__(self, head_dim: int, max_position: int, theta: float = 10000.0) -> None:
        if head_dim % 2:
            raise ValueError("RoPE requires an even head dimension")
        self.head_dim = head_dim
        self.max_position = max_position
        inv_freq = 1.0 / (theta ** (np.arange(0, head_dim, 2) / head_dim))
        angles = np.outer(np.arange(max_position), inv_freq)  # (P, head_dim/2)
        # Duplicate to full head_dim so application is a single elementwise op.
        full = np.concatenate([angles, angles], axis=-1)
        self._cos = np.cos(full).astype(DTYPE)  # (P, head_dim)
        self._sin = np.sin(full).astype(DTYPE)

    def check(self, position_ids: np.ndarray) -> None:
        """Raise ``ValueError`` for position IDs outside the tables."""
        if position_ids.size and (
            position_ids.min() < 0 or position_ids.max() >= self.max_position
        ):
            raise ValueError(
                f"position ids must lie in [0, {self.max_position}); "
                f"got range [{position_ids.min()}, {position_ids.max()}]"
            )

    def rows(self, position_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The ``(cos, sin)`` table rows for ``position_ids`` (any shape),
        each of shape ``position_ids.shape + (head_dim,)`` — looked up
        once and handed to :func:`rotate` as often as needed."""
        self.check(position_ids)
        return self._cos[position_ids], self._sin[position_ids]


def rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate-half RoPE of ``x`` by table rows broadcastable against it."""
    return x * cos + _rotate_half(x) * sin


def _rotate_half(x: np.ndarray) -> np.ndarray:
    half = x.shape[-1] // 2
    return np.concatenate([-x[..., half:], x[..., :half]], axis=-1)
