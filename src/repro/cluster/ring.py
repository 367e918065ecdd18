"""Consistent-hash ring for cache-affinity routing.

Prompts that share modules should land on the worker already holding
their encoded KV (the ChunkAttention observation: prefix-aware sharing
pays off most when common-segment requests are routed together). A
consistent-hash ring gives that affinity a stable, decentralized form:

- each worker owns ``vnodes`` points on a 64-bit ring (the first 8
  bytes of the SHA-256 of ``"name#i"``), so load spreads evenly without
  a central table;
- a request key maps to the first point clockwise from its hash — the
  worker's death moves *only its own keys* to their successors, leaving
  every other placement (and its warm cache) untouched;
- :meth:`preference_list` yields the distinct-owner failover order the
  router walks when the home worker is overloaded or dead.
"""

from __future__ import annotations

import bisect
import hashlib

DEFAULT_VNODES = 64


class HashRing:
    """Consistent hashing with virtual nodes over a truncated SHA-256.

    Not thread-safe: the router mutates it only from its event loop.
    """

    def __init__(self, nodes: list[str] | None = None, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: list[int] = []  # sorted vnode hashes
        self._owners: dict[int, str] = {}  # vnode hash -> node name
        self.nodes: set[str] = set()
        for node in nodes or []:
            self.add(node)

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: str) -> bool:
        return node in self.nodes

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")

    def add(self, node: str) -> None:
        if node in self.nodes:
            return
        self.nodes.add(node)
        for i in range(self.vnodes):
            point = self._hash(f"{node}#{i}")
            # Collisions across 64-bit hashes are ~impossible; keep the
            # first owner deterministic if one ever happens.
            if point in self._owners:
                continue
            bisect.insort(self._points, point)
            self._owners[point] = node

    def remove(self, node: str) -> None:
        if node not in self.nodes:
            return
        self.nodes.discard(node)
        doomed = [p for p, owner in self._owners.items() if owner == node]
        for point in doomed:
            del self._owners[point]
            index = bisect.bisect_left(self._points, point)
            del self._points[index]

    def node_for(self, key: str) -> str:
        """The key's home node. Raises :class:`LookupError` on an empty ring."""
        if not self._points:
            raise LookupError("hash ring is empty")
        point = self._hash(key)
        index = bisect.bisect_right(self._points, point)
        if index == len(self._points):
            index = 0  # wrap past 2^64 back to the first point
        return self._owners[self._points[index]]

    def preference_list(self, key: str, n: int | None = None) -> list[str]:
        """The first ``n`` *distinct* nodes clockwise from the key's hash —
        home first, then the failover order."""
        if not self._points:
            return []
        want = len(self.nodes) if n is None else min(n, len(self.nodes))
        point = self._hash(key)
        start = bisect.bisect_right(self._points, point)
        out: list[str] = []
        for step in range(len(self._points)):
            owner = self._owners[self._points[(start + step) % len(self._points)]]
            if owner not in out:
                out.append(owner)
                if len(out) == want:
                    break
        return out

    def ownership_share(self) -> dict[str, float]:
        """Fraction of the 64-bit key space owned by each node — the
        balance diagnostic ``loadgen --cluster`` prints."""
        if not self._points:
            return {}
        if len(self._points) == 1:
            return {self._owners[self._points[0]]: 1.0}
        shares: dict[str, float] = {node: 0.0 for node in self.nodes}
        span = float(1 << 64)
        for i, point in enumerate(self._points):
            prev = self._points[i - 1]  # wraps: first arc starts at the last point
            arc = (point - prev) % (1 << 64)
            shares[self._owners[point]] += arc / span
        return shares
