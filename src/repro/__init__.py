"""Prompt Cache: modular attention reuse for low-latency LLM inference.

A from-scratch reproduction of Gim et al., MLSys 2024. The public API
surface is:

- :class:`repro.PromptCache` — the system: register schemas, serve prompts.
- :mod:`repro.pml` — the Prompt Markup Language (schemas, prompts, the
  Python-to-PML compiler).
- :mod:`repro.llm` — the NumPy transformer engine substrate.
- :mod:`repro.hw` — device latency/memory models for the paper's testbeds.
- :mod:`repro.datasets` — the synthetic LongBench-like evaluation suite.

Quickstart::

    from repro import PromptCache, build_model, tiny_config
    from repro.tokenizer import default_tokenizer

    tok = default_tokenizer()
    model = build_model(tiny_config(vocab_size=tok.vocab_size))
    pc = PromptCache(model, tok)
    pc.register_schema('''
        <schema name="cities">
          <module name="miami">Miami has beaches and nightlife.</module>
        </schema>''')
    result = pc.serve('<prompt schema="cities"><miami/>Plan a day.</prompt>')
"""

__version__ = "1.0.0"

from repro.llm import build_model, paper_config, small_config, tiny_config


def __getattr__(name: str):
    # PromptCache pulls in the whole cache/pml tree; import it lazily so
    # `import repro` stays cheap for users who only need the substrates.
    if name == "PromptCache":
        from repro.cache.engine import PromptCache

        return PromptCache
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

__all__ = [
    "PromptCache",
    "build_model",
    "paper_config",
    "small_config",
    "tiny_config",
    "__version__",
]
