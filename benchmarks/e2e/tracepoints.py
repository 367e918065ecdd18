"""Spans around each layer's public functions, recorded from outside.

The repository has no spans of its own yet, so the traced run wraps the
functions in :data:`TRACEPOINTS` at run time and unwraps them when it
ends. A span is a list ``[name, start_ns, end_ns, parent, thread, attrs]``
— ``parent`` is the span that was open on the same thread when this one
began. Spans stay in memory; :func:`write_chrome_trace` writes them out
when the run is over.

Times are ``time.monotonic_ns``, the clock the load generator and the
server stamp with, so client events line up with spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

NAME, START, END, PARENT, THREAD, ATTRS = range(6)


# -- what each tracepoint keeps of its call ----------------------------------------


def _request_id(args, kwargs, result, before):
    return {"req": kwargs.get("request_id")}


def _iteration(args, kwargs, result, before):
    return {
        "admitted": [r.request_id for r in args[1]],
        "emitted": len(result.emitted),
        "finished": len(result.finished),
        "prefill_tokens": result.prefill_tokens,
        "decode_batch": result.decode_batch,
        "groups": list(result.shared_group_sizes),
        "shared_kv": result.shared_kv_tokens,
        "private_kv": result.private_kv_tokens,
    }


def _opened_stream(args, kwargs, result, before):
    return {"stream": id(result)}


def _stream_step(args, kwargs, result, before):
    return {"stream": id(args[0])}


def _prefill_step(args, kwargs, result, before):
    return {"stream": id(args[0]), "tokens": result}


def _forward(args, kwargs, result, before):
    return {"tokens": len(args[1])}


def _decode_batch(args, kwargs, result, before):
    caches = args[3] if len(args) > 3 else kwargs["caches"]
    groups = kwargs.get("shared_groups") or (args[4] if len(args) > 4 else None) or []
    # KV rows the step reads: every sequence's cache, minus the shared
    # prefix of each group counted once instead of once per member.
    rows = sum(len(cache) for cache in caches)
    rows -= sum((len(members) - 1) * shared for members, shared in groups)
    return {"batch": len(caches), "kv_rows": rows}


def _fetch(args, kwargs, result, before):
    return {"key": args[1].tag(), "source": result.source if result is not None else "miss"}


def _put(args, kwargs, result, before):
    return {"key": args[1].tag()}


def _dram_keys_before(args, kwargs):
    return set(args[0].cpu.keys())


def _maintenance(args, kwargs, result, before):
    pulled = []
    if result.get("prefetched"):
        pulled = [key.tag() for key in set(args[0].cpu.keys()) - before]
    return {"prefetched": result.get("prefetched", 0), "pulled": pulled}


def _reencode(args, kwargs, result, before):
    return {"tokens": args[2], "seconds": args[3]}


def _token_count_in(args, kwargs, result, before):
    return {"tokens": len(args[1])}


def _token_count_out(args, kwargs, result, before):
    return {"tokens": len(result)}


# (target in sut.TRACE_TARGETS, public function, span name, capture, before)
TRACEPOINTS = [
    ("LiveServer", "submit", "runtime.submit", _request_id, None),
    ("LiveServer", "submit_text", "runtime.submit_text", _request_id, None),
    ("ContinuousScheduler", "iterate", "scheduler.iterate", _iteration, None),
    ("PromptCache", "open_stream", "engine.open_stream", _opened_stream, None),
    ("PromptCache", "open_text_stream", "engine.open_text_stream", _opened_stream, None),
    ("ServeStream", "prefill_step", "engine.prefill_step", _prefill_step, None),
    ("ServeStream", "next_token", "llm.sample", _stream_step, None),
    ("ServeStream", "finish", "engine.finish", _stream_step, None),
    ("TransformerModel", "forward", "llm.forward", _forward, None),
    ("TransformerModel", "forward_decode_batch", "llm.forward_decode_batch", _decode_batch, None),
    ("ModuleCacheStore", "fetch", "store.fetch", _fetch, None),
    ("ModuleCacheStore", "put", "store.put", _put, None),
    ("FabricStore", "fetch", "store.fetch", _fetch, None),
    ("FabricStore", "maintenance", "store.maintenance", _maintenance, _dram_keys_before),
    ("FabricStore", "observe_reencode", "store.observe_reencode", _reencode, None),
    ("ReuseMiner", "observe", "reuse.observe", _token_count_in, None),
    ("ReuseMiner", "match", "reuse.match", _token_count_in, None),
    ("Tokenizer", "encode", "tokenizer.encode", _token_count_out, None),
]

EXECUTOR_TASK = "executor.task"


class Tracer:
    """Installs the tracepoints, holds the spans, removes the tracepoints."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._local = threading.local()
        self._originals: list[tuple[type, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.monotonic_ns(), 0, stack[-1] if stack else None,
                threading.get_ident(), None]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[END] = time.monotonic_ns()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, fn, name, capture, before):
        tracer = self

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                span = tracer.begin(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    tracer.end(span)
                span[ATTRS] = capture(args, kwargs, result, None)
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                token = before(args, kwargs) if before is not None else None
                span = tracer.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end(span)
                span[ATTRS] = capture(args, kwargs, result, token)
                return result

        return wrapper

    def install(self, targets: dict[str, type]) -> None:
        for target, function, name, capture, before in TRACEPOINTS:
            cls = targets[target]
            if function not in vars(cls):
                continue  # inherited: the base class's tracepoint covers it
            original = vars(cls)[function]
            self._originals.append((cls, function, original))
            setattr(cls, function, self._wrap(original, name, capture, before))

    def uninstall(self) -> None:
        for cls, function, original in reversed(self._originals):
            setattr(cls, function, original)
        self._originals.clear()

    def executor(self) -> ThreadPoolExecutor:
        """The one-thread engine executor with its work items as spans:
        the root of everything the engine thread does, with the time the
        item waited for the thread (the executor hop) as an attribute."""
        return _TracingExecutor(self)


class _TracingExecutor(ThreadPoolExecutor):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__(max_workers=1, thread_name_prefix="engine")
        self._tracer = tracer

    def submit(self, fn, /, *args, **kwargs):
        queued = time.monotonic_ns()
        tracer = self._tracer

        def task():
            span = tracer.begin(EXECUTOR_TASK)
            span[ATTRS] = {"hop_ns": span[START] - queued}
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(span)

        return super().submit(task)


# -- arithmetic on spans ------------------------------------------------------------


def self_times(spans: list[list]) -> dict[int, int]:
    """``id(span) -> self time in ns``: a span's duration minus the part
    of it its child spans cover. Children run on the parent's thread,
    one after another, so their durations add."""
    own = {id(span): span[END] - span[START] for span in spans}
    for span in spans:
        parent = span[PARENT]
        if parent is not None and id(parent) in own:
            own[id(parent)] -= span[END] - span[START]
    return own


def write_chrome_trace(spans: list[list], path, extra_events=()) -> None:
    """Chrome trace-event JSON (``chrome://tracing`` / Perfetto): one
    complete event per span, microseconds, one row per thread."""
    index = {id(span): i for i, span in enumerate(spans)}
    events = [
        {
            "name": span[NAME],
            "ph": "X",
            "ts": span[START] / 1e3,
            "dur": (span[END] - span[START]) / 1e3,
            "pid": 1,
            "tid": span[THREAD],
            "args": {
                "id": i,
                "parent": index.get(id(span[PARENT])) if span[PARENT] is not None else None,
                **(span[ATTRS] or {}),
            },
        }
        for i, span in enumerate(spans)
    ]
    events.extend(extra_events)
    with open(path, "w") as out:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
