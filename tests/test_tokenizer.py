"""Tokenizer substrate: round-trip, determinism, specials, persistence."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.tokenizer import (
    BPETokenizer,
    SpecialTokens,
    Vocab,
    WhitespaceTokenizer,
    train_bpe,
)
from tests.conftest import TRAIN_TEXTS


class TestVocab:
    def test_specials_occupy_first_ids(self):
        vocab = Vocab()
        assert vocab.pad_id == 0
        assert vocab.unk_id == 1
        assert vocab.bos_id == 2
        assert vocab.eos_id == 3

    def test_add_is_idempotent(self):
        vocab = Vocab()
        first = vocab.add("hello")
        assert vocab.add("hello") == first
        assert len(vocab) == 5

    def test_unknown_token_maps_to_unk(self):
        vocab = Vocab()
        assert vocab.id_of("nonexistent") == vocab.unk_id

    def test_token_of_out_of_range(self):
        with pytest.raises(IndexError):
            Vocab().token_of(999)

    def test_tokens_returns_copy(self):
        vocab = Vocab()
        tokens = vocab.tokens()
        tokens.append("mutant")
        assert "mutant" not in vocab.tokens()


class TestBPETraining:
    def test_vocab_size_respected(self, tok):
        assert tok.vocab_size <= 420

    def test_too_small_vocab_rejected(self):
        with pytest.raises(ValueError):
            train_bpe(["abc"], vocab_size=100)

    def test_training_is_deterministic(self):
        a = train_bpe(TRAIN_TEXTS, vocab_size=300)
        b = train_bpe(TRAIN_TEXTS, vocab_size=300)
        assert a.merges() == b.merges()

    def test_merges_compress_common_words(self, tok):
        # "the" appears constantly in the training corpus; it must encode
        # to fewer tokens than its byte length.
        assert len(tok.encode("the")) < 3

    def test_empty_corpus_trains_byte_vocab(self):
        t = train_bpe([], vocab_size=260)
        assert t.vocab_size == 260
        assert t.decode(t.encode("xyz")) == "xyz"


class TestBPEEncodeDecode:
    def test_round_trip_ascii(self, tok):
        text = "the quick brown fox!"
        assert tok.decode(tok.encode(text)) == text

    def test_round_trip_unicode(self, tok):
        text = "héllo wörld Δ 東京 🎉"
        assert tok.decode(tok.encode(text)) == text

    def test_round_trip_untrained_bytes(self, tok):
        text = "\x00\x01 binary-ish \x7f"
        assert tok.decode(tok.encode(text)) == text

    def test_special_token_literals_map_to_ids(self, tok):
        ids = tok.encode("a <unk> b <s>")
        assert tok.unk_id in ids
        assert tok.bos_id in ids

    def test_bos_eos_flags(self, tok):
        ids = tok.encode("hi", add_bos=True, add_eos=True)
        assert ids[0] == tok.bos_id
        assert ids[-1] == tok.eos_id

    def test_skip_specials_on_decode(self, tok):
        ids = tok.encode("hello", add_bos=True, add_eos=True)
        assert tok.decode(ids, skip_specials=True) == "hello"

    def test_decode_rejects_out_of_range(self, tok):
        with pytest.raises(IndexError):
            tok.decode([tok.vocab_size + 5])

    def test_chunk_invariance(self, tok):
        """Splitting text at a word boundary must not change the encoding —
        the property that lets modules tokenize independently."""
        a, b = "the quick brown", " fox jumps over"
        assert tok.encode(a) + tok.encode(b) == tok.encode(a + b)

    def test_byte_ids_are_stable_across_tokenizers(self):
        t1 = train_bpe(["aaa bbb"], vocab_size=300)
        t2 = train_bpe(["ccc ddd eee"], vocab_size=300)
        # Single-byte symbols always sit at 4 + byte value.
        assert t1.encode("\x41") == t2.encode("\x41") == [4 + 0x41]

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=200))
    def test_round_trip_property(self, text):
        tok = _PROPERTY_TOKENIZER
        assert tok.decode(tok.encode(text)) == text

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=120))
    def test_encoding_deterministic_property(self, text):
        tok = _PROPERTY_TOKENIZER
        assert tok.encode(text) == tok.encode(text)


# Trained once at import: hypothesis re-runs the test body many times.
_PROPERTY_TOKENIZER = train_bpe(TRAIN_TEXTS, vocab_size=320)


class TestBPEPersistence:
    def test_save_load_round_trip(self, tok, tmp_path):
        path = tmp_path / "tok.json"
        tok.save(path)
        loaded = BPETokenizer.load(path)
        assert loaded.merges() == tok.merges()
        text = "the quick brown fox"
        assert loaded.encode(text) == tok.encode(text)

    def test_custom_specials_survive(self, tmp_path):
        specials = SpecialTokens(pad="<p>", unk="<u>", bos="<b>", eos="<e>")
        t = train_bpe(["abc"], vocab_size=300, specials=specials)
        path = tmp_path / "tok.json"
        t.save(path)
        assert BPETokenizer.load(path).specials == specials


class TestShippedDefault:
    def test_shipped_vocabulary_is_what_training_produces(self, tmp_path):
        """``default_tokenizer()`` loads a shipped merge table instead of
        training per process; this is what keeps the file honest. Stale
        after a corpus or trainer change? ``python -m repro.tokenizer``."""
        from repro.datasets.corpus import training_corpus
        from repro.tokenizer.default import (
            SHIPPED_VOCAB,
            default_tokenizer,
            train_default,
        )

        trained, shipped = train_default(), default_tokenizer()
        assert shipped.merges() == trained.merges()  # vocabulary and merge order
        assert shipped.specials == trained.specials
        assert len(shipped) == len(trained)
        for text in training_corpus():
            assert shipped.encode(text) == trained.encode(text)
        trained.save(tmp_path / "retrained.json")
        assert SHIPPED_VOCAB.read_bytes() == (tmp_path / "retrained.json").read_bytes()

    def test_other_sizes_still_train(self):
        from repro.tokenizer.default import default_tokenizer

        assert len(default_tokenizer(300)) == 300


class TestWhitespaceTokenizer:
    def test_round_trip_words(self):
        t = WhitespaceTokenizer()
        ids = t.encode("alpha beta gamma")
        assert t.decode(ids) == "alpha beta gamma"

    def test_vocab_grows_on_demand(self):
        t = WhitespaceTokenizer()
        before = t.vocab_size
        t.encode("new words here")
        assert t.vocab_size == before + 3

    def test_same_word_same_id(self):
        t = WhitespaceTokenizer()
        a = t.encode("repeat")
        b = t.encode("repeat")
        assert a == b

    def test_specials(self):
        t = WhitespaceTokenizer()
        ids = t.encode("x", add_bos=True, add_eos=True)
        assert ids[0] == t.bos_id and ids[-1] == t.eos_id
        assert t.decode(ids, skip_specials=True) == "x"
