import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import regex_tokenize, vocabulary_order
from polycap.errors import ValidationError
from polycap.files import write_json
from polycap.text import (
    SPECIAL_TOKENS,
    Language,
    StopwordList,
    Vocabulary,
    build_vocabulary,
    load_stopwords,
    tokenize,
)


class TestLanguage:
    def test_exactly_four_members(self):
        assert [l.value for l in Language] == ["en", "fr", "es", "de"]

    def test_member_order_is_head_order(self):
        assert list(Language) == [Language.EN, Language.FR, Language.ES, Language.DE]

    def test_parse_is_case_insensitive(self):
        assert Language.parse("EN") is Language.EN

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValidationError):
            Language.parse("it")


class TestTokenize:
    def test_simple_sentence(self):
        assert tokenize("A duck quacking.") == ["a", "duck", "quacking"]

    def test_empty(self):
        assert tokenize("") == []

    def test_french_line(self):
        toks = tokenize("la pluie tombe et le tonnerre gronde au loin")
        assert len(toks) == 9
        assert toks[0] == "la" and toks[-1] == "loin"

    def test_apostrophe_splits(self):
        assert tokenize("l'eau d'une rivière") == ["l", "eau", "d", "une", "rivière"]

    def test_hyphen_kept_inside_words(self):
        assert tokenize("a well-known sound") == ["a", "well-known", "sound"]

    def test_punctuation_stripped(self):
        assert tokenize("dogs, (really!) bark; loudly?") == ["dogs", "really", "bark", "loudly"]

    # the characters where a per-word fast path could part from one regex pass:
    # whitespace that is no ASCII space, hyphens, the three apostrophes, a
    # combining mark, a letter whose lowercase form gains one, digits and `_`
    EDGE_CHARACTERS = list("\u2028\x1c\x85 -'’ʼ\u0301İ07²_aé.")

    @settings(max_examples=500, derandomize=True)
    @given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(EDGE_CHARACTERS)), max_size=40))
    @example("l'eau d’une rivière ʼn")
    @example("İstanbul i\u0301 well-known -x- a--b __ a_b 3-2 x²\u2028y\x1cz")
    def test_equals_one_regex_pass(self, s):
        assert tokenize(s) == regex_tokenize(s)

    @settings(max_examples=200, derandomize=True)
    @given(st.text(max_size=60))
    def test_idempotent_on_own_output(self, s):
        toks = tokenize(s)
        assert tokenize(" ".join(toks)) == toks


class TestBuildVocabulary:
    def test_small_corpus_sizes_and_order(self):
        vocab = build_vocabulary([["a", "duck"], ["a", "dog"]], min_count=1)
        assert vocab.size == 7
        # "a" is the most frequent word, so it takes the first non-special id
        assert vocab.index["a"] == 4
        assert vocab.index["dog"] == 5 and vocab.index["duck"] == 6  # tie broken lexically

    def test_empty_corpus_gives_specials_only(self):
        assert build_vocabulary([], min_count=1).size == 4

    def test_min_count_filters(self):
        vocab = build_vocabulary([["x", "x"], ["y"]], min_count=2)
        assert vocab.size == 5
        assert "x" in vocab.index and "y" not in vocab.index

    def test_min_count_must_be_positive(self):
        with pytest.raises(ValidationError):
            build_vocabulary([["a"]], min_count=0)

    def test_deterministic(self):
        corpus = [["b", "a"], ["a", "c"], ["c", "b", "a"]]
        assert build_vocabulary(corpus).tokens == build_vocabulary(list(corpus)).tokens

    @settings(max_examples=300, derandomize=True)
    @given(
        # few distinct tokens over many captions: most counts tie
        st.lists(st.lists(st.sampled_from(["a", "b", "B", "ab", "aa", "é", "e", "z", "-", "10", "9"]), max_size=6),
                 max_size=30),
        st.sampled_from([1, 2, 3, 5]),
    )  # fmt: skip
    def test_order_is_count_descending_then_token(self, corpus, min_count):
        vocab = build_vocabulary(corpus, min_count=min_count)
        assert list(vocab.tokens) == [*SPECIAL_TOKENS, *vocabulary_order(corpus, min_count)]


class TestEncodeDecode:
    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.sampled_from(["a", "b", "c", "dog", "duck"]), max_size=12))
    def test_roundtrip_in_vocab(self, caption):
        vocab = build_vocabulary([["a", "b", "c", "dog", "duck"]])
        assert vocab.decode(vocab.encode(caption)) == caption

    def test_unknown_token_becomes_unk(self):
        vocab = build_vocabulary([["a"]])
        assert vocab.encode(["zzz-unknown"]) == [vocab.bos_id, vocab.unk_id, vocab.eos_id]

    def test_empty_caption(self):
        vocab = build_vocabulary([["a"]])
        assert vocab.encode([]) == [vocab.bos_id, vocab.eos_id]

    def test_specials_pinned(self):
        vocab = build_vocabulary([["a"]])
        assert vocab.tokens[:4] == SPECIAL_TOKENS
        assert (vocab.pad_id, vocab.bos_id, vocab.eos_id, vocab.unk_id) == (0, 1, 2, 3)

    def test_index_inverts_tokens(self):
        vocab = build_vocabulary([["b", "a", "b"]])
        for i, tok in enumerate(vocab.tokens):
            assert vocab.index[tok] == i


class TestVocabularySerialization:
    def test_json_roundtrip(self, tmp_path):
        vocab = build_vocabulary([["duck", "a", "dog"], ["a"]])
        path = tmp_path / "vocab.json"
        write_json(path, vocab.to_doc())
        loaded = Vocabulary.from_doc(json.loads(path.read_text("utf-8")))
        assert loaded.tokens == vocab.tokens

    def test_json_fields(self):
        vocab = build_vocabulary([["a"]])
        doc = vocab.to_doc()
        assert set(doc) == {"tokens", "specials"}
        assert doc["specials"] == {"pad": 0, "bos": 1, "eos": 2, "unk": 3}

    def test_reject_bad_specials(self):
        with pytest.raises(ValidationError):
            Vocabulary.from_doc({"tokens": list(SPECIAL_TOKENS), "specials": {"pad": 1}})

    def test_reject_duplicates(self):
        with pytest.raises(ValidationError):
            Vocabulary.from_tokens([*SPECIAL_TOKENS, "a", "a"])

    def test_reject_tokens_that_are_not_strings(self):
        doc = {"tokens": [*SPECIAL_TOKENS, "a", 5, 7.5], "specials": {"pad": 0, "bos": 1, "eos": 2, "unk": 3}}
        with pytest.raises(ValidationError) as caught:
            Vocabulary.from_doc(doc)
        assert caught.value.items == ["token 5: 5", "token 6: 7.5"]

    def test_reject_tokens_that_cannot_be_keys(self):
        doc = {"tokens": [*SPECIAL_TOKENS, ["a"]], "specials": {"pad": 0, "bos": 1, "eos": 2, "unk": 3}}
        with pytest.raises(ValidationError) as caught:
            Vocabulary.from_doc(doc)
        assert caught.value.items == ["token 4: ['a']"]

    def test_index_is_derived_from_the_tokens(self):
        # an index that disagreed with the tokens made a real token encode as UNK
        with pytest.raises(TypeError):
            Vocabulary(tokens=(*SPECIAL_TOKENS, "a"), index={**{t: i for i, t in enumerate(SPECIAL_TOKENS)}, "b": 4})
        vocab = Vocabulary((*SPECIAL_TOKENS, "a", "b"))
        assert vocab.index == {**{t: i for i, t in enumerate(SPECIAL_TOKENS)}, "a": 4, "b": 5}
        assert vocab.encode(["a", "b", "c"]) == [vocab.bos_id, 4, 5, vocab.unk_id, vocab.eos_id]


class TestStopwords:
    @pytest.mark.parametrize("language", list(Language))
    def test_nonempty_and_lowercase(self, language):
        stopwords = load_stopwords(language)
        assert len(stopwords.words) > 10
        assert all(w == w.lower() for w in stopwords.words)

    def test_contains(self):
        assert "the" in load_stopwords(Language.EN).words
        assert "quacking" not in load_stopwords(Language.EN).words

    @pytest.mark.parametrize(
        "words, message",
        [
            (frozenset(), "stopword list for fr is empty"),
            (frozenset({"le", "La"}), "stopwords must be lowercase: ['La']"),
        ],
        ids=["empty", "uppercase"],
    )
    def test_empty_or_uppercase_list_errors(self, words, message):
        with pytest.raises(ValidationError) as err:
            StopwordList(Language.FR, words)
        assert err.value.message == message
