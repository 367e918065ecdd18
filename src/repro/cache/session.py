"""Multi-turn generation sessions on top of Prompt Cache.

A chat-style workload is the paper's motivating case for module reuse:
the system message and context documents are identical across turns, so a
session splices them once and keeps a **live KV cache** across turns —
each turn only prefills its own user text (at fresh tail positions) and
decodes. The per-turn cost is Prompt Cache's cached TTFT regardless of how
long the conversation grows, while a KV-cache baseline would re-prefill
the whole transcript.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.cache.engine import PromptCache, _arena_splice, _merge_uncached
from repro.llm.generation import decode_loop
from repro.pml.errors import SchemaMismatchError


@dataclass
class Turn:
    user_text: str
    output_ids: list[int]
    text: str
    ttft_s: float
    uncached_tokens: int


@dataclass
class SessionResult:
    turns: list[Turn] = field(default_factory=list)

    @property
    def transcript(self) -> str:
        return "\n".join(t.text for t in self.turns)


class GenerationSession:
    """A conversation bound to one served prompt's cache.

    Created via :meth:`PromptCache.start_session`; each :meth:`send` call
    appends user tokens (uncached) and the model's reply to the shared KV
    cache, so later turns attend to the full history without recomputing
    any of it.
    """

    def __init__(self, pc: PromptCache, prompt: str) -> None:
        self.pc = pc
        resolved = pc._resolve(prompt)
        registered = pc._registered(resolved.schema.name)
        plan = pc._plan(resolved, registered)
        # A private flat copy, not a fork: the session outlives requests
        # and should not pin a shared base and its modules.
        records = pc._gather_module_records(registered, plan, True)
        self._cache = _arena_splice(pc.model.config, pc._module_kvs(records))
        token_ids, positions = _merge_uncached(plan.uncached)
        self._cache.reserve(len(self._cache) + len(token_ids) + 64)
        self._last_logits = pc.model.forward(
            token_ids, positions, [(self._cache, len(token_ids))]
        )[0]
        self._next_position = plan.next_position
        self.turns: list[Turn] = []

    def send(
        self,
        user_text: str,
        *,
        max_new_tokens: int = 32,
        sampler=None,
        stop_ids: set[int] | None = None,
    ) -> Turn:
        """One conversation turn: prefill ``user_text``, decode a reply."""
        model = self.pc.model
        ids = np.asarray(self.pc.tokenizer.encode(user_text), dtype=np.int64)
        positions = np.arange(
            self._next_position, self._next_position + len(ids), dtype=np.int64
        )
        if len(ids) and positions[-1] + max_new_tokens >= model.config.max_position:
            raise SchemaMismatchError(
                "conversation exceeds the model's position budget; start a "
                "new session or use a model with a longer context"
            )
        self._cache.reserve(len(self._cache) + len(ids) + max_new_tokens)
        start = time.perf_counter()
        if len(ids):
            self._last_logits = model.forward(ids, positions, [(self._cache, len(ids))])[0]
            self._next_position += len(ids)
        ttft = time.perf_counter() - start
        output_ids, _ = decode_loop(
            model,
            self._cache,
            self._last_logits,
            max_new_tokens=max_new_tokens,
            next_position=self._next_position,
            sampler=sampler,
            stop_ids=stop_ids,
        )
        self._next_position += len(output_ids)
        # The reply's final logits seed the next turn.
        if output_ids:
            self._last_logits = model.forward(
                np.asarray(output_ids[-1:]),
                np.asarray([self._next_position - 1]),
                self._cache,
            )[-1]
        turn = Turn(
            user_text=user_text,
            output_ids=output_ids,
            text=self.pc.tokenizer.decode(output_ids, skip_specials=True),
            ttft_s=ttft,
            uncached_tokens=len(ids),
        )
        self.turns.append(turn)
        return turn

    @property
    def context_tokens(self) -> int:
        """Total tokens currently live in the session cache."""
        return len(self._cache)


def start_session(pc: PromptCache, prompt: str) -> GenerationSession:
    """Open a multi-turn session seeded by a PML prompt."""
    return GenerationSession(pc, prompt)
