"""Shared fixtures: one tokenizer and one tiny model per architecture,
built once per session so the suite stays fast.

With ``REPRO_SANITIZE=1`` in the environment the whole suite runs under
the runtime sanitizers (:mod:`repro.analysis.sanitize`): fork and
seat auditing, splice-plan validation, and shape-contract
enforcement — any violation fails the offending test at the faulting
call."""

from __future__ import annotations

import pytest

from repro.analysis.sanitize import install_if_enabled, uninstall_sanitizers
from repro.llm import build_model, tiny_config
from repro.tokenizer.bpe import train_bpe


@pytest.fixture(scope="session", autouse=True)
def _sanitizers():
    """Install the REPRO_SANITIZE sanitizers for the whole session."""
    auditor = install_if_enabled()
    yield auditor
    if auditor is not None:
        uninstall_sanitizers()

TRAIN_TEXTS = [
    "the quick brown fox jumps over the lazy dog " * 4,
    "miami beaches nightlife surf spots art deco " * 4,
    "paris museums cafes architecture louvre seine " * 4,
    "plan a trip lasting three days focus on food " * 4,
    "the capital of atlantis is coral city " * 4,
    "answer the question using the documents above " * 4,
    "def main(): return game.run() class Unit: pass " * 4,
]

ARCHITECTURES = ("llama", "falcon", "mpt", "gpt2")


@pytest.fixture(scope="session")
def tok():
    return train_bpe(TRAIN_TEXTS, vocab_size=420)


@pytest.fixture(scope="session")
def models(tok):
    return {
        arch: build_model(tiny_config(arch, vocab_size=tok.vocab_size), seed=11)
        for arch in ARCHITECTURES
    }


@pytest.fixture(scope="session")
def llama(models):
    return models["llama"]


@pytest.fixture(scope="session")
def mpt(models):
    return models["mpt"]


@pytest.fixture(params=ARCHITECTURES)
def any_model(request, models):
    """Parametrized across all four architecture families."""
    return models[request.param]
