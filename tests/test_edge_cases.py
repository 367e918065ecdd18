"""Edge-case battery across subsystems: paths the focused suites skip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.engine import PromptCache
from repro.llm import generate, generate_no_cache
from repro.llm.sampling import TemperatureSampler
from repro.pml import (
    FALCON_TEMPLATE,
    PLAIN_TEMPLATE,
    Schema,
    TEMPLATES,
    prompt_function,
)
from repro.pml.compiler import emit


class TestParamDefaults:
    SCHEMA = (
        '<schema name="dflt"><module name="m">the plan lasts '
        '<param name="dur" len="10" default="two days"/> total</module></schema>'
    )

    def test_default_used_when_arg_missing(self, llama, tok):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(self.SCHEMA)
        with_default = pc.serve('<prompt schema="dflt"><m/> go</prompt>', max_new_tokens=3)
        explicit = pc.serve(
            '<prompt schema="dflt"><m dur="two days"/> go</prompt>', max_new_tokens=3
        )
        # Default text behaves exactly like supplying it as the argument.
        assert with_default.output_ids == explicit.output_ids
        assert with_default.uncached_tokens == explicit.uncached_tokens

    def test_argument_overrides_default(self, llama, tok):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(self.SCHEMA)
        default = pc.serve('<prompt schema="dflt"><m/> go</prompt>', max_new_tokens=3)
        overridden = pc.serve(
            '<prompt schema="dflt"><m dur="one week"/> go</prompt>', max_new_tokens=3
        )
        assert (
            default.output_ids != overridden.output_ids
            or default.uncached_tokens != overridden.uncached_tokens
        )

    def test_multiple_params_in_one_module(self, llama, tok):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(
            '<schema name="mp"><module name="m">from '
            '<param name="src" len="4"/> to <param name="dst" len="4"/> now'
            "</module></schema>"
        )
        result = pc.serve(
            '<prompt schema="mp"><m src="paris" dst="miami"/> go</prompt>',
            max_new_tokens=3,
        )
        assert result.uncached_tokens >= 2  # both arguments computed

    def test_param_inside_nested_module(self, llama, tok):
        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(
            '<schema name="nest"><module name="outer">intro '
            '<module name="inner">span <param name="p" len="3"/> end</module>'
            " outro</module></schema>"
        )
        result = pc.serve(
            '<prompt schema="nest"><outer><inner p="x"/></outer> q</prompt>',
            max_new_tokens=2,
        )
        assert result.cached_tokens > 0


class TestSamplers:
    def test_temperature_sampling_distribution(self):
        sampler = TemperatureSampler(temperature=1.0, seed=0)
        logits = np.log(np.array([0.7, 0.2, 0.1], dtype=np.float32))
        draws = [sampler(logits) for _ in range(600)]
        freq0 = draws.count(0) / len(draws)
        assert 0.6 < freq0 < 0.8  # tracks the softmax probabilities

    def test_high_temperature_flattens(self):
        sharp = TemperatureSampler(temperature=0.1, seed=1)
        flat = TemperatureSampler(temperature=10.0, seed=1)
        logits = np.array([2.0, 0.0, 0.0], dtype=np.float32)
        sharp_draws = [sharp(logits) for _ in range(200)]
        flat_draws = [flat(logits) for _ in range(200)]
        assert sharp_draws.count(0) > flat_draws.count(0)

    def test_no_cache_generation_records_ttst(self, llama):
        result = generate_no_cache(llama, [5, 6, 7], max_new_tokens=3)
        assert len(result.step_times_s) == 2
        assert result.ttst_s > 0

    def test_stop_ids_in_no_cache_path(self, llama):
        probe = generate(llama, [5, 6, 7], max_new_tokens=5)
        stop = probe.output_ids[0]
        result = generate_no_cache(llama, [5, 6, 7], max_new_tokens=5, stop_ids={stop})
        assert result.output_ids == [stop]


class TestTemplatesRegistry:
    def test_four_templates_registered(self):
        assert set(TEMPLATES) == {"llama2", "mpt", "falcon", "plain"}

    def test_falcon_framing(self):
        prefix, suffix = FALCON_TEMPLATE.framing("user")
        assert prefix == "User: " and suffix == "\n"

    def test_unknown_role_rejected(self):
        with pytest.raises(KeyError):
            PLAIN_TEMPLATE.framing("narrator")


class TestCompilerNaming:
    def test_custom_name_override(self):
        @prompt_function(name="custom-name")
        def whatever():
            """Some text."""
            emit("body text here ")

        assert whatever.name == "custom-name"
        assert 'schema name="custom-name"' in whatever.to_pml()

    def test_compiled_schema_serves(self, llama, tok):
        @prompt_function(name="served")
        def fn():
            """Intro words here."""
            emit("the quick brown fox jumps ")

        pc = PromptCache(llama, tok, template=PLAIN_TEMPLATE)
        pc.register_schema(fn.to_pml())
        result = pc.serve(fn.build_prompt(extra_text=" and then ?"), max_new_tokens=3)
        assert result.cached_tokens > 0
