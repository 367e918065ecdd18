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
  ``baseline``, the same tokens prefilled in one piece.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.cache.engine import PromptCache
from repro.pml import PLAIN_TEMPLATE
from tests.conftest import ARCHITECTURES
from tests.strategies import GeneratedSchema, schemas

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
