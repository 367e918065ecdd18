"""What one decode iteration costs, in counts rather than clocks.

The step's wall time drifts with the host; the number of Python and C
calls it makes does not. One scheduler iteration with streams decoding
over one 512-token base, on the benchmark's model shape (four layers),
is profiled with ``sys.setprofile``:

- sixteen streams cost at most 860 call events (measured 788; 878
  while the nine norms called ``np.mean``, the chunk-phase-plus-merge
  kernel before that made 1,012, the per-sequence two-phase loop before
  it ~4.8 k);
- the per-layer kernel costs at most 30 call events a layer (measured
  28, the replaced kernel 59), and going from 4 streams to 16 in the
  same group adds **no** call inside it — batch size is an array
  dimension there — only per-sequence bookkeeping around it;
- a seated stream's decode step never calls ``ForkLayer.append``:
  its tail grows in the arena;
- streams on *distinct* 512-token bases are never seated and attend per
  sequence inside the same step: at most 410 call events for one, 960
  for four (measured 380 and 921; 470 and 1,011 with ``np.mean`` in the
  norms; the per-sequence step this replaced made 622 and 1,165), and
  the same number of projection GEMMs — those are per step.
"""

from __future__ import annotations

import sys

import pytest

from repro.analysis.contracts import contracts_enforced
from repro.cache.engine import PromptCache
from repro.llm import build_model, small_config
from repro.llm.paged import ForkLayer
from repro.pml.chat import PLAIN_TEMPLATE
from repro.server import ContinuousScheduler
from repro.server.request import LiveRequest

PROMPT = '<prompt schema="hot"><m/> what is due ?</prompt>'
KERNEL = "arena_decode_attention"
DISTINCT = 4  # schemas hot0..hot3: one 512-token base each


@pytest.fixture(scope="module")
def pc(tok):
    model = build_model(small_config("llama", vocab_size=tok.vocab_size), seed=0)
    engine = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    words = "the quick brown fox jumps over the lazy dog".split()
    body = " ".join(words[i % len(words)] for i in range(600))
    for name in ["hot", *(f"hot{i}" for i in range(DISTINCT))]:
        engine.register_schema(
            f'<schema name="{name}"><module name="m">{body} {name}</module></schema>'
        )
    assert engine.prompt_token_count(PROMPT)[0] >= 512
    return engine


def profile_iteration(pc, width, distinct=False):
    """Call events of one steady-state iteration with ``width`` streams
    on one base — or, ``distinct``, on one base each: ``(all, inside the
    per-layer kernel, ForkLayer.append calls, linear_rows calls)``."""
    sched = ContinuousScheduler(pc, max_inflight=16)
    sched.iterate([
        LiveRequest(request_id=f"r{i}", schema="hot", max_new_tokens=32, submitted_at=0.0,
                    prompt=PROMPT.replace("hot", f"hot{i}") if distinct else PROMPT)
        for i in range(width)
    ])
    sched.iterate([])  # seats taken, arena grown: the next one is steady state
    counts = {"all": 0, "kernel": 0, "append": 0, "gemm": 0}
    depth = 0  # > 0 while a kernel frame is on the stack
    append_code = ForkLayer.append.__wrapped__.__code__ if hasattr(
        ForkLayer.append, "__wrapped__") else ForkLayer.append.__code__

    def hook(frame, event, arg):
        nonlocal depth
        if event == "call":
            if frame.f_code.co_name == KERNEL:
                depth += 1
            if frame.f_code is append_code:
                counts["append"] += 1
            counts["gemm"] += frame.f_code.co_name == "linear_rows"
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
    assert outcome.decode_batch == width
    assert outcome.shared_group_sizes == ([] if distinct else [width])
    sched.abort_all()
    return counts


def test_sixteen_streams_cost_under_1500_calls(pc):
    counts = profile_iteration(pc, 16)
    assert counts["all"] <= 860, counts


def test_batch_size_adds_no_kernel_calls(pc):
    four, sixteen = profile_iteration(pc, 4), profile_iteration(pc, 16)
    assert 0 < four["kernel"] <= 30 * 4, four  # four layers
    assert sixteen["kernel"] == four["kernel"]
    # Outside the kernel: a few dozen calls per added sequence (sampling,
    # planning, logits hand-back), nothing per sequence *per layer*.
    extra = (sixteen["all"] - sixteen["kernel"]) - (four["all"] - four["kernel"])
    assert extra <= 40 * 12, (four, sixteen)


def test_seated_streams_never_append_to_their_pages(pc):
    assert profile_iteration(pc, 16)["append"] == 0



def test_unseated_streams_cost_under_500_and_1050_calls(pc):
    one, four = (profile_iteration(pc, n, distinct=True) for n in (1, DISTINCT))
    if not contracts_enforced():  # shape contracts wrap every tail append
        assert one["all"] <= 410 and four["all"] <= 960, (one, four)
    assert one["kernel"] == four["kernel"] == 0
    # Projections are per step; only attention is per sequence.
    assert one["gemm"] == four["gemm"] > 0
