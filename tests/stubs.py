"""One stream-speaking engine double for the serving-runtime tests.

:class:`StubEngine` is PromptCache-shaped as far as ``LiveServer`` and
``ContinuousScheduler`` look: ``open_stream`` / ``open_text_stream``
return a :class:`StubStream` (one prefill chunk, then a fixed token
sequence), ``model.forward`` (the packed prefill) and
``model.forward_decode_batch`` hand back opaque logits. The service time
is dialable: the prefill sleeps ``service_s`` per stream on the engine
thread, so with ``max_inflight=1`` requests are served one after
another, ``service_s`` apart.
"""

from __future__ import annotations

import time

from repro.cache.engine import ServeResult
from repro.cache.storage import ModuleCacheStore


class StubCache(list):
    """What the scheduler reads of a stream's cache: how many tokens it
    holds (one list entry each) and that it has no arena seat."""

    tail = None


class StubStream:
    """ServeStream double: the attributes and calls the scheduler uses."""

    shared_group = None  # forked from no spliced base: never grouped
    shared_len = 0

    def __init__(self, engine: "StubEngine", tokens: list[int]) -> None:
        self.engine = engine
        self.tokens = tokens
        self.max_new_tokens = len(tokens)
        self.output_ids: list[int] = []
        self.prefill_remaining = 1
        self.logits = None
        self.done = False
        self.cache = StubCache()
        self.decode_position = 0
        self.aborted = False

    @property
    def decoding(self) -> bool:
        return self.logits is not None and not self.done

    def prefill_chunk(self, budget: int):
        return [0], [0]

    def prefill_done(self, rows: int, logits, seconds: float) -> None:
        self.prefill_remaining = 0
        self.logits = logits
        self.done = not self.tokens

    def next_token(self) -> tuple[int, bool]:
        token = self.tokens[len(self.output_ids)]
        self.output_ids.append(token)
        self.done = len(self.output_ids) >= len(self.tokens)
        return token, not self.done

    def set_logits(self, row) -> None:
        self.logits = row

    def charge_step(self, step_s: float) -> None:
        pass

    def abort(self) -> None:
        self.aborted = True

    def finish(self) -> ServeResult:
        cached, uncached = self.engine.prompt_split
        return ServeResult(
            output_ids=list(self.output_ids), text="ok",
            prompt_tokens=cached + uncached, cached_tokens=cached,
            uncached_tokens=uncached, ttft_s=0.001, splice_s=0.0005,
            suffix_s=0.0005, step_times_s=[0.001] * max(len(self.tokens) - 1, 0),
        )


class StubEngine:
    """``tokens(serial, max_new_tokens)`` picks what stream number
    ``serial`` emits (default: ``max_new_tokens`` ones); ``prompt_split``
    is the (cached, uncached) prompt-token pair every result reports.
    ``opened`` records ``(kind, prompt)`` per stream, in admission order.
    """

    def __init__(
        self,
        service_s: float = 0.0,
        schemas=("a", "b"),
        tokens=None,
        prompt_split: tuple[int, int] = (4, 1),
        discovery=None,
        tokenizer=None,
    ) -> None:
        self.schemas = {name: object() for name in schemas}
        self.store = ModuleCacheStore()
        self.model = self
        self.service_s = service_s
        self.tokens = tokens or (lambda serial, budget: [1] * budget)
        self.prompt_split = prompt_split
        self.discovery = discovery
        self.tokenizer = tokenizer
        self.opened: list[tuple[str, str]] = []
        self.streams: list[StubStream] = []

    def _open(self, kind: str, prompt: str, max_new_tokens: int) -> StubStream:
        stream = StubStream(self, self.tokens(len(self.streams), max_new_tokens))
        self.opened.append((kind, prompt))
        self.streams.append(stream)
        return stream

    def open_stream(self, prompt, max_new_tokens=32):
        return self._open("pml", prompt, max_new_tokens)

    def open_text_stream(self, text, max_new_tokens=32):
        return self._open("raw", text, max_new_tokens)

    def forward(self, tokens, positions, segments, logits=True):
        """The packed prefill: ``service_s`` per sequence in it."""
        if self.service_s:
            time.sleep(self.service_s * len(segments))
        return [object()] * len(segments)

    def forward_decode_batch(self, tokens, positions, caches, shared_groups):
        return [object()] * len(caches)

    def prompts(self, kind: str | None = None) -> list[str]:
        return [p for k, p in self.opened if kind in (None, k)]
