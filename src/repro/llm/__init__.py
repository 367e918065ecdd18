"""NumPy transformer inference engine.

The substrate the paper assumes (HF transformers + PyTorch), rebuilt from
scratch: decoder-only transformers in the Llama / Falcon / MPT / GPT-2
families, position-ID-aware attention, growable KV caches with buffered
concatenation, and instrumented generation loops. Everything Prompt Cache
needs, nothing it doesn't.
"""

from repro.llm.config import (
    ModelConfig,
    PAPER_MODELS,
    paper_config,
    small_config,
    tiny_config,
)
from repro.llm.kv import KVCache, LayerKV, ModuleKV, buffered_concat
from repro.llm.models import TransformerModel, build_model
from repro.llm.generation import (
    GenerationResult,
    decode_loop,
    generate,
    generate_no_cache,
    prefill,
)
from repro.llm.sampling import GreedySampler, TemperatureSampler
from repro.llm.weights import init_params, load_params, param_count, save_params

__all__ = [
    "ModelConfig",
    "PAPER_MODELS",
    "paper_config",
    "small_config",
    "tiny_config",
    "KVCache",
    "LayerKV",
    "ModuleKV",
    "buffered_concat",
    "TransformerModel",
    "build_model",
    "GenerationResult",
    "decode_loop",
    "generate",
    "generate_no_cache",
    "prefill",
    "GreedySampler",
    "TemperatureSampler",
    "init_params",
    "load_params",
    "param_count",
    "save_params",
]
