"""Process-wide default tokenizer.

Benchmarks, examples, and the synthetic dataset suite must agree on token
ids, so they all share one BPE tokenizer trained on the seeded synthetic
corpus. Training is deterministic, hence so are the resulting ids — which
is why the default-size tokenizer is not trained per process: its merge
table ships beside this file (``python -m repro.tokenizer`` regenerates
it) and a tier-1 test retrains and fails when the shipped copy is stale.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path

from repro.tokenizer.bpe import BPETokenizer, train_bpe

_DEFAULT_VOCAB_SIZE = 2048
SHIPPED_VOCAB = Path(__file__).with_name(f"default_bpe_{_DEFAULT_VOCAB_SIZE}.json")


def train_default(vocab_size: int = _DEFAULT_VOCAB_SIZE) -> BPETokenizer:
    """Train on the seeded corpus (imported lazily to keep the tokenizer
    package free of dataset dependencies)."""
    from repro.datasets.corpus import training_corpus

    return train_bpe(training_corpus(), vocab_size=vocab_size)


@lru_cache(maxsize=4)
def default_tokenizer(vocab_size: int = _DEFAULT_VOCAB_SIZE) -> BPETokenizer:
    """The shared tokenizer, built once per process and memoized: loaded
    from the shipped merge table at the default size, trained otherwise."""
    if vocab_size == _DEFAULT_VOCAB_SIZE:
        return BPETokenizer.load(SHIPPED_VOCAB)
    return train_default(vocab_size)
