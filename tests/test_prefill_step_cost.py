"""What one prefill iteration costs, in counts rather than clocks.

The step's wall time drifts with the host; the number of Python and C
calls it makes does not (``sys.setprofile``, as in
``test_decode_step_cost``). One scheduler iteration admitting streams
that fork one 512-token base and prefill a ~38-token suffix each, on the
benchmark's model shape (four layers) — the iteration goes on to the
decode step and samples every stream's second token, none of which is
counted here:

- four streams admitted together make **one** prefill forward (the
  per-stream prefill this replaced made four);
- that forward makes the same number of GEMM-level calls
  (``linear_rows``) for one stream and for four — seventeen: four per
  layer and the LM head (four per-stream forwards would make 68) — the
  pack is an array dimension there;
- four streams cost at most 2.3 k call events inside it (3,452 before);
- a 256-row chunk over an empty cache scores 5/8 of the full square: its
  64-row tiles see 64, 128, 192 and 256 keys.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.analysis.contracts import contracts_enforced
from repro.llm import attention
from repro.cache.engine import PromptCache
from repro.llm import build_model, small_config
from repro.pml.chat import PLAIN_TEMPLATE
from repro.server import ContinuousScheduler
from repro.server.request import LiveRequest

WORDS = "the quick brown fox jumps over the lazy dog".split()
GEMM = "linear_rows"


def prompt(i: int) -> str:
    suffix = " ".join(WORDS[(3 * j + i) % len(WORDS)] for j in range(36))
    return f'<prompt schema="hot"><m/> {suffix} ?</prompt>'


@pytest.fixture(scope="module")
def pc(tok):
    model = build_model(small_config("llama", vocab_size=tok.vocab_size), seed=0)
    engine = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    body = " ".join(WORDS[i % len(WORDS)] for i in range(600))
    engine.register_schema(f'<schema name="hot"><module name="m">{body}</module></schema>')
    cached, uncached = engine.prompt_token_count(prompt(0))
    assert cached >= 512 and 30 <= uncached <= 46
    engine.serve(prompt(0), max_new_tokens=1)  # build the shared base
    return engine


def profile_admission(pc, width):
    """Call events of the prefill forwards of one iteration admitting
    ``width`` streams: ``(forwards, events inside them, GEMM-level calls
    inside them)``."""
    sched = ContinuousScheduler(pc, max_inflight=8)
    requests = [
        LiveRequest(request_id=f"r{i}", prompt=prompt(i), schema="hot",
                    max_new_tokens=4, submitted_at=0.0)
        for i in range(width)
    ]
    counts = {"forwards": 0, "events": 0, "gemms": 0}
    depth = 0  # > 0 while a prefill forward is on the stack

    def hook(frame, event, arg):
        nonlocal depth
        name = frame.f_code.co_name
        if event == "call":
            if name == "forward":
                depth += 1
                counts["forwards"] += 1
            elif depth and name == GEMM:
                counts["gemms"] += 1
        elif event == "return" and name == "forward":
            depth -= 1
        if depth and event in ("call", "c_call"):
            counts["events"] += 1
        return None

    sys.setprofile(hook)
    try:
        outcome = sched.iterate(requests)
    finally:
        sys.setprofile(None)
    assert outcome.admitted == width and outcome.prefill_batch == width
    assert outcome.decode_batch == width
    assert outcome.tokens == 2 * width and not any(e for *_, e, _ in outcome.finished)
    sched.abort_all()
    return counts


def test_four_admissions_make_one_prefill_forward(pc):
    assert profile_admission(pc, 4)["forwards"] == 1


def test_pack_width_adds_no_gemm(pc):
    one, four = profile_admission(pc, 1), profile_admission(pc, 4)
    assert one["gemms"] == four["gemms"] == 4 * pc.model.config.n_layers + 1


def test_four_streams_cost_under_2300_calls(pc):
    counts = profile_admission(pc, 4)
    if not contracts_enforced():  # the auditor and contracts add hook calls
        assert counts["events"] <= 2300, counts


class ExpCounter:
    """Stands in for ``numpy`` inside the attention module, counting the
    elements exponentiated: every score the kernel computes goes through
    one ``exp``."""

    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.elements += x.size
        return np.exp(x, *args, **kwargs)


def test_a_256_row_chunk_scores_five_eighths_of_the_square(monkeypatch):
    model = build_model(small_config("llama", vocab_size=64), seed=0)
    heads, rows = model.config.n_heads, 256
    counter = ExpCounter()
    monkeypatch.setattr(attention, "np", counter)
    cache = model.new_cache()
    model.forward(np.arange(rows) % 64, np.arange(rows), cache, logits=False)
    # Every layer but the last attends (``logits=False`` stops it at its
    # K/V append).
    per_layer = counter.elements / (model.config.n_layers - 1)
    assert per_layer <= 0.625 * heads * rows**2, per_layer
