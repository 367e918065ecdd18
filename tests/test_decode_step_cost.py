"""What one decode iteration costs, in counts rather than clocks.

The step's wall time drifts with the host; the number of Python and C
calls it makes does not. One scheduler iteration with streams decoding
over one 512-token base, on the benchmark's model shape (four layers),
is profiled with ``sys.setprofile``:

- sixteen streams cost at most 1.5 k call events (the per-sequence
  two-phase loop this replaced made ~4.8 k);
- going from 4 streams to 16 in the same group adds **no** call inside
  the per-layer kernel — batch size is an array dimension there — only
  per-sequence bookkeeping around it;
- a seated stream's decode step never calls ``PagedLayerKV.append``:
  its tail grows in the arena.
"""

from __future__ import annotations

import sys

import pytest

from repro.cache.engine import PromptCache
from repro.llm import build_model, small_config
from repro.llm.paged import PagedLayerKV
from repro.pml.chat import PLAIN_TEMPLATE
from repro.server import ContinuousScheduler
from repro.server.request import LiveRequest

PROMPT = '<prompt schema="hot"><m/> what is due ?</prompt>'
KERNEL = "arena_decode_attention"


@pytest.fixture(scope="module")
def pc(tok):
    model = build_model(small_config("llama", vocab_size=tok.vocab_size), seed=0)
    engine = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    words = "the quick brown fox jumps over the lazy dog".split()
    body = " ".join(words[i % len(words)] for i in range(600))
    engine.register_schema(f'<schema name="hot"><module name="m">{body}</module></schema>')
    assert engine.prompt_token_count(PROMPT)[0] >= 512
    return engine


def profile_iteration(pc, width):
    """Call events of one steady-state iteration with ``width`` streams:
    ``(all, inside the per-layer kernel, PagedLayerKV.append calls)``."""
    sched = ContinuousScheduler(pc, max_inflight=16)
    sched.iterate([
        LiveRequest(request_id=f"r{i}", prompt=PROMPT, schema="hot",
                    max_new_tokens=32, submitted_at=0.0)
        for i in range(width)
    ])
    sched.iterate([])  # seats taken, arena grown: the next one is steady state
    counts = {"all": 0, "kernel": 0, "append": 0}
    depth = 0  # > 0 while a kernel frame is on the stack
    append_code = PagedLayerKV.append.__wrapped__.__code__ if hasattr(
        PagedLayerKV.append, "__wrapped__") else PagedLayerKV.append.__code__

    def hook(frame, event, arg):
        nonlocal depth
        if event == "call":
            if frame.f_code.co_name == KERNEL:
                depth += 1
            if frame.f_code is append_code:
                counts["append"] += 1
        elif event == "return" and frame.f_code.co_name == KERNEL:
            depth -= 1
        if event in ("call", "c_call"):
            counts["all"] += 1
            counts["kernel"] += depth > 0
        return None

    sys.setprofile(hook)
    try:
        outcome = sched.iterate([])
    finally:
        sys.setprofile(None)
    assert outcome.decode_batch == width and outcome.shared_group_sizes == [width]
    sched.abort_all()
    return counts


def test_sixteen_streams_cost_under_1500_calls(pc):
    counts = profile_iteration(pc, 16)
    assert counts["all"] <= 1500, counts


def test_batch_size_adds_no_kernel_calls(pc):
    four, sixteen = profile_iteration(pc, 4), profile_iteration(pc, 16)
    assert four["kernel"] > 0
    assert sixteen["kernel"] == four["kernel"]
    # Outside the kernel: a few dozen calls per added sequence (sampling,
    # planning, logits hand-back), nothing per sequence *per layer*.
    extra = (sixteen["all"] - sixteen["kernel"]) - (four["all"] - four["kernel"])
    assert extra <= 40 * 12, (four, sixteen)


def test_seated_streams_never_append_to_their_pages(pc):
    assert profile_iteration(pc, 16)["append"] == 0

