"""``python -m repro.tokenizer`` — retrain the default tokenizer on the
built-in corpus and rewrite the merge table shipped beside ``default.py``.
Run it after changing the corpus or the trainer; ``tests/test_tokenizer.py``
fails until the shipped file matches."""

from repro.tokenizer.default import SHIPPED_VOCAB, train_default

if __name__ == "__main__":
    tokenizer = train_default()
    tokenizer.save(SHIPPED_VOCAB)
    print(f"wrote {SHIPPED_VOCAB} ({len(tokenizer)} ids, {len(tokenizer.merges())} merges)")
