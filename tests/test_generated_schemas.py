"""A module's KV depends only on its layout, over generated schemas.

Paper §3.3 encodes each module (and each scaffold set) alone at its
schema-assigned positions, so the states are a function of the layout:
whether they were encoded when the schema was registered, on first use,
or again after the store lost them must not change a byte. For schemas
drawn by :func:`tests.strategies.schemas` — modules, unequal union
members, a parameter slot, a scaffold — on each of the four positional
families:

- every stored solo and scaffold variant is arena-backed and
  byte-identical across an eager ``register_schema``, an ``eager=False``
  registration followed by serves importing every module, and
  ``invalidate`` followed by the same serves (the re-encode the
  ``tier_churn`` output check compares against eager encodes);
- for a one-module schema, greedy ids from ``serve`` equal those from
  ``baseline``, the same tokens prefilled in one piece;
- every prompt run through :class:`~repro.server.ContinuousScheduler`
  on a cold base and on one already forked (its modules' K/V read in
  place either way), unseated and seated, agrees with ``serve`` on
  a fresh engine: greedy ids, first-token logits to float32 tolerance,
  and ``cached_tokens`` equal to the plan's cached span. Random weights
  make greedy ids nearly blind to the cached context; the logits are not.
"""

from __future__ import annotations

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache.engine import PromptCache
from repro.llm.paged import TailArena
from repro.pml import PLAIN_TEMPLATE
from tests.conftest import ARCHITECTURES
from tests.strategies import GeneratedSchema, schemas
from tests.test_continuous_scheduler import (
    assert_same_first_logits,
    ids,
    scheduled,
    served,
)

SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow],
)


def stored_bytes(pc: PromptCache) -> dict:
    """Every resident entry's key and value arenas and positions, as bytes."""
    return {
        key: tuple(
            np.ascontiguousarray(side).tobytes()
            for side in (entry.kv.key_arena, entry.kv.value_arena, entry.kv.positions)
        )
        for tier in (pc.store.gpu, pc.store.cpu)
        for key, entry in tier.entries.items()
    }


def serve_every_module(pc: PromptCache, generated: GeneratedSchema) -> None:
    """Serves that, between them, need every solo variant and (with a
    scaffold) every scaffold variant of the schema."""
    for prompt in generated.prompts():
        pc.serve(prompt, max_new_tokens=1, use_scaffolds=False)
        if generated.scaffold:
            pc.serve(prompt, max_new_tokens=1)


@pytest.mark.parametrize("arch", ARCHITECTURES)
@SETTINGS
@given(generated=schemas())
def test_every_encode_path_stores_the_same_bytes(arch, models, tok, generated):
    model = models[arch]
    eager = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    eager.register_schema(generated.source)
    expected = stored_bytes(eager)
    assert all(entry.kv.is_arena for entry in eager.store.gpu.entries.values())
    variants = {key.variant for key in expected}
    assert variants == {"solo", *(["scaffold0"] if generated.scaffold else [])}

    lazy = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    lazy.register_schema(generated.source, eager=False)
    assert stored_bytes(lazy) == {}
    serve_every_module(lazy, generated)
    assert stored_bytes(lazy) == expected

    assert eager.invalidate(generated.name) == len(expected)
    assert stored_bytes(eager) == {}
    serve_every_module(eager, generated)
    assert stored_bytes(eager) == expected


@pytest.mark.parametrize("arch", ARCHITECTURES)
@SETTINGS
@given(generated=schemas(max_modules=1, unions=False, params=False))
def test_one_module_serve_matches_baseline(arch, models, tok, generated):
    pc = PromptCache(models[arch], tok, template=PLAIN_TEMPLATE)
    pc.register_schema(generated.source)
    prompt = generated.prompt(text="what comes next ?")
    served = pc.serve(prompt, max_new_tokens=4)
    assert served.output_ids == pc.baseline(prompt, max_new_tokens=4).output_ids


BUDGET = 4


def engine(model, tok, generated: GeneratedSchema) -> PromptCache:
    pc = PromptCache(model, tok, template=PLAIN_TEMPLATE)
    pc.register_schema(generated.source)
    return pc


def seated_by_hand(pc: PromptCache, prompt: str):
    """One stream prefilled alone, then seated in an arena of its own —
    the scheduler seats only a base two streams decode over — and
    decoded by batched steps of one."""
    stream = pc.open_stream(prompt, max_new_tokens=BUDGET)
    stream.prefill_step(stream.prefill_remaining)
    first = stream.logits.copy()
    assert stream.seat_tail(TailArena(pc.model.config, 1))
    while stream.decoding:
        token, needs_forward = stream.next_token()
        if needs_forward:
            logits = pc.model.forward_decode_batch(
                np.asarray([token]), np.asarray([stream.decode_position]), [stream.cache]
            )
            stream.set_logits(logits[0], 0.0)
    return stream.finish(), first


@pytest.mark.parametrize("arch", ARCHITECTURES)
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(generated=schemas())
def test_scheduler_agrees_with_serve_on_parts_and_image(arch, models, tok, generated):
    model = models[arch]
    prompts = generated.prompts()
    reference = engine(model, tok, generated)
    expected, expected_first = zip(*(served(reference, p, BUDGET) for p in prompts))
    spans = [reference.prompt_token_count(p)[0] for p in prompts]
    assert [r.cached_tokens for r in expected] == spans

    def check(results, first_logits):
        assert ids(results) == ids(expected)
        assert [r.cached_tokens for r in results] == spans
        assert_same_first_logits(first_logits, expected_first)

    # Cold bases, one stream each: read in place, never seated.
    pc = engine(model, tok, generated)
    first_logits = {}
    check(scheduled(pc, prompts, chunk=256, max_new_tokens=BUDGET,
                    first_logits=first_logits), first_logits)
    # Two streams a prompt over the bases just built: the pair decoding
    # over one is seated.
    first_logits = {}
    with patch.object(TailArena, "seat", autospec=True, side_effect=TailArena.seat) as seat:
        pairs = scheduled(pc, prompts * 2, chunk=256, max_new_tokens=BUDGET,
                          first_logits=first_logits)
    assert seat.call_count == 2 * len(prompts)
    check(pairs[: len(prompts)], {i: first_logits[i] for i in range(len(prompts))})
    check(pairs[len(prompts):], {
        i: first_logits[i + len(prompts)] for i in range(len(prompts))
    })
    # A cold base seated by hand: the arena kernel over parts.
    cold = engine(model, tok, generated)
    results, firsts = zip(*(seated_by_hand(cold, p) for p in prompts))
    check(results, dict(enumerate(firsts)))
