import math
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import beam_search, peak_bytes, tiny_model_config, word_vocab
from oracles import (
    composed_log_softmax,
    exhaustive_constrained_search,
    greedy_constrained_decode,
    reference_beam_search,
)
from polycap import autodiff as ad
from polycap.decoding import (
    DecodeConfig,
    _round_bytes,
    caption_audio,
    caption_clip,
    fit_decode_config,
    grouped_beam_search,
)
from polycap.errors import ValidationError
from polycap.model import IncrementalDecoder, ModelConfig, MultilingualModel, SequenceTooLongError, log_softmax
from polycap.text import Language, build_vocabulary, load_stopwords


def constant_scorer(vocab, probs: dict[str, float]):
    """Context-independent log-prob rows over the full id space."""
    row = np.full(vocab.size, -np.inf)
    for surface, p in probs.items():
        row[vocab.index[surface]] = math.log(p)
    row[vocab.eos_id] = math.log(probs["<eos>"]) if "<eos>" in probs else row[vocab.eos_id]

    def step(prefixes, parents=None):
        return np.tile(row, (prefixes.shape[0], 1))

    return step


def table_scorer(vocab_size, seed, concentration=1.0):
    """Deterministic context-dependent random log-prob tables."""
    cache = {}

    def step(prefixes, parents=None):
        rows = []
        for p in prefixes:
            key = tuple(int(x) for x in p)
            if key not in cache:
                local = np.random.default_rng((hash(key) ^ seed) % (2**63))
                logits = local.normal(scale=concentration, size=vocab_size)
                logits = logits - math.log(np.exp(logits).sum())
                cache[key] = logits
            rows.append(cache[key])
        return np.array(rows)

    return step


def full_forward_scorer(model, audio, language):
    """Uncached log-prob rows: one full eval-mode forward over every prefix."""

    def step(prefixes, parents=None):
        with ad.no_grad():
            logits = model.forward(
                np.broadcast_to(audio, (len(prefixes), *audio.shape)), prefixes, language
            ).data[:, -1, :]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    return step


def cached_scorer(model, audio, language):
    """The one-group cached model scorer, called as step(ids, parents)."""
    step = IncrementalDecoder(model, audio, [language])
    return lambda prefixes, parents: step([prefixes], [parents])[0]


class TestToyTraces:
    def test_greedy_bans_repeats_until_eos(self):
        # P(a)=0.6 > P(b)=0.3 > P(eos)=0.1, context-independent:
        # greedy takes "a", then "a" is banned -> "b", then both banned -> EOS
        vocab = word_vocab(["a", "b"])
        step = constant_scorer(vocab, {"a": 0.6, "b": 0.3, "<eos>": 0.1})
        result = beam_search(step, vocab, None, DecodeConfig(beam_size=1, max_len=3))
        assert result.tokens == ["a", "b"]

    def test_stopwords_exempt_from_ban(self):
        vocab = word_vocab(["the", "dog"])
        step = constant_scorer(vocab, {"the": 0.7, "dog": 0.2, "<eos>": 0.1})
        result = beam_search(step, vocab, frozenset({"the"}), DecodeConfig(beam_size=1, max_len=3))
        assert result.tokens == ["the", "the", "the"]

    def test_word_budget_forces_scored_eos(self):
        vocab = word_vocab(["a", "b", "c"])
        step = constant_scorer(vocab, {"a": 0.5, "b": 0.3, "c": 0.15, "<eos>": 0.05})
        result = beam_search(step, vocab, None, DecodeConfig(beam_size=2, max_len=2))
        assert len(result.tokens) <= 2
        assert result.token_ids[-1] == vocab.eos_id
        # log-prob includes the EOS step
        want = math.log(0.5) + math.log(0.3) + math.log(0.05)
        assert result.log_prob == pytest.approx(want)

    def test_log_prob_non_increasing_along_hypothesis(self):
        vocab = word_vocab(["a", "b"])
        step = constant_scorer(vocab, {"a": 0.6, "b": 0.3, "<eos>": 0.1})
        result = beam_search(step, vocab, None, DecodeConfig(beam_size=2, max_len=2))
        assert result.log_prob <= 0.0


class TestOracleEquivalence:
    @pytest.mark.parametrize("trial", range(12))
    def test_full_width_beam_matches_exhaustive_search(self, trial):
        rng = np.random.default_rng(trial)
        n_words = int(rng.integers(2, 6))  # vocab of up to 5 words
        max_len = int(rng.integers(1, 4))  # max_len <= 3
        vocab = word_vocab([f"t{i}" for i in range(n_words)])
        stopwords = frozenset({"t0"}) if trial % 3 == 0 else frozenset()
        step = table_scorer(vocab.size, seed=trial * 7919 + 13)
        width = vocab.size**max_len
        got = beam_search(step, vocab, stopwords, DecodeConfig(beam_size=width, max_len=max_len))
        want_ids, want_score = exhaustive_constrained_search(
            step, vocab, stopwords, max_len, length_norm=1.0
        )
        assert got.normalized_score == pytest.approx(want_score, abs=1e-12)
        assert got.token_ids == want_ids

    def test_spec_sized_instance(self):
        # vocab 5, max_len 3: beam 125 equals brute force
        vocab = word_vocab([f"w{i}" for i in range(5)])
        step = table_scorer(vocab.size, seed=99)
        got = beam_search(step, vocab, None, DecodeConfig(beam_size=125, max_len=3))
        want_ids, want_score = exhaustive_constrained_search(step, vocab, frozenset(), 3, 1.0)
        assert got.normalized_score == pytest.approx(want_score, abs=1e-12)
        assert got.token_ids == want_ids

    def test_beam_one_is_constrained_greedy_on_tables(self):
        for trial in range(30):
            rng = np.random.default_rng(trial + 50)
            n_words = int(rng.integers(2, 7))
            vocab = word_vocab([f"t{i}" for i in range(n_words)])
            stopwords = frozenset({"t1"}) if trial % 2 == 0 else frozenset()
            step = table_scorer(vocab.size, seed=trial * 3 + 1)
            max_len = int(rng.integers(1, 6))
            got = beam_search(step, vocab, stopwords, DecodeConfig(beam_size=1, max_len=max_len))
            want_ids, want_score = greedy_constrained_decode(step, vocab, stopwords, max_len, 1.0)
            assert got.token_ids == want_ids, trial
            assert got.normalized_score == pytest.approx(want_score, abs=1e-12)

    def test_beam_one_is_constrained_greedy_on_models(self, tiny_model):
        vocab = tiny_model.vocab(Language.EN)
        rng = np.random.default_rng(4)
        for _ in range(5):
            audio = rng.normal(size=(3, 6))
            got = caption_audio(tiny_model, audio, Language.EN, DecodeConfig(beam_size=1, max_len=5), None)
            want_ids, _ = greedy_constrained_decode(
                full_forward_scorer(tiny_model, audio, Language.EN), vocab, frozenset(), 5, 1.0
            )
            assert got.token_ids == want_ids


def tied_table_scorer(vocab_size, seed, levels=3, p_inf=0.0):
    """Context-dependent tables drawn from a few values, so candidates tie
    exactly; with p_inf, some entries are -inf but still allowed."""
    cache = {}

    def step(prefixes, parents=None):
        rows = []
        for p in prefixes:
            key = tuple(int(x) for x in p)
            if key not in cache:
                local = np.random.default_rng((hash(key) ^ seed) % (2**63))
                row = -local.integers(0, levels, size=vocab_size).astype(np.float64)
                row[local.random(vocab_size) < p_inf] = -np.inf
                cache[key] = row
            rows.append(cache[key])
        return np.array(rows)

    return step


class TestReferenceEquivalence:
    def test_matches_object_search_on_randomized_battery(self):
        rng = np.random.default_rng(7)
        for trial in range(1200):
            n_words = int(rng.integers(1, 7))
            vocab = word_vocab([f"t{i}" for i in range(n_words)])
            stopwords = frozenset(f"t{i}" for i in range(n_words) if rng.random() < 0.3)
            kind = trial % 4
            if kind == 0:
                step = table_scorer(vocab.size, seed=trial, concentration=float(rng.uniform(0.5, 3.0)))
            elif kind == 1:
                step = tied_table_scorer(vocab.size, seed=trial, levels=int(rng.integers(1, 4)))
            elif kind == 2:
                step = tied_table_scorer(vocab.size, seed=trial, levels=2, p_inf=0.3)
            else:
                # context-independent: equal words tie at every depth; some words impossible
                words = {f"t{i}": float(rng.choice([0.1, 0.2])) for i in range(n_words) if rng.random() < 0.8}
                step = constant_scorer(vocab, {**words, "<eos>": float(rng.choice([0.1, 0.2]))})
            cfg = DecodeConfig(
                beam_size=int(rng.integers(1, 6)),
                max_len=int(rng.integers(1, 6)),
                length_norm=float(rng.choice([0.0, 0.7, 1.0])),
            )
            got = beam_search(step, vocab, stopwords, cfg)
            want_ids, want_log_prob, want_norm = reference_beam_search(
                step, vocab, stopwords, cfg.beam_size, cfg.max_len, cfg.length_norm
            )
            assert got.token_ids == want_ids, (trial, cfg)
            assert got.log_prob == want_log_prob, (trial, cfg)
            assert got.normalized_score == want_norm, (trial, cfg)

    def test_matches_object_search_on_models(self):
        rng = np.random.default_rng(12)
        for trial in range(4):
            vocab = word_vocab([f"w{i}" for i in range(int(rng.integers(3, 9)))])
            cfg = tiny_model_config(d_in=5, d_model=16, n_layers=2, n_heads=2, d_ff=24)
            model = MultilingualModel(cfg, {Language.EN: vocab}, seed=trial)
            audio = rng.normal(size=(4, 5))
            stopwords = frozenset({"w0"})
            got = caption_audio(model, audio, Language.EN, DecodeConfig(3, 6), stopwords)
            want_ids, want_log_prob, _ = reference_beam_search(
                cached_scorer(model, audio, Language.EN), vocab, stopwords, 3, 6, 1.0
            )
            assert got.token_ids == want_ids
            assert got.log_prob == want_log_prob


class TestCachedScorer:
    @staticmethod
    def _setup(seed, n_layers=2):
        rng = np.random.default_rng(seed)
        vocab = word_vocab([f"w{i}" for i in range(9)])
        cfg = tiny_model_config(d_in=5, d_model=16, n_layers=n_layers, n_heads=4, d_ff=24, max_len=8)
        model = MultilingualModel(cfg, {Language.EN: vocab}, seed=seed)
        audio = rng.normal(size=(int(rng.integers(1, 6)), 5))
        return rng, vocab, model, audio

    def test_rows_match_full_forward_on_random_prefix_trees(self):
        for trial in range(8):
            rng, vocab, model, audio = self._setup(trial)
            step = cached_scorer(model, audio, Language.EN)
            full = full_forward_scorer(model, audio, Language.EN)
            prefixes = np.full((1, 1), vocab.bos_id, dtype=np.int64)
            parents = np.zeros(1, dtype=np.intp)
            for _ in range(model.config.max_len):
                np.testing.assert_allclose(step(prefixes, parents), full(prefixes), rtol=0, atol=1e-12)
                # next call: parents reordered, duplicated or dropped; the beam grows and shrinks
                rows = int(rng.integers(1, 7))
                parents = rng.integers(0, len(prefixes), size=rows)
                tokens = rng.integers(0, vocab.size, size=rows)
                prefixes = np.column_stack([prefixes[parents], tokens])
            with pytest.raises(SequenceTooLongError):
                step(prefixes, parents)


class TestNoRepeatProperty:
    def test_randomized_battery(self):
        rng = np.random.default_rng(2025)
        for trial in range(500):
            n_words = int(rng.integers(2, 7))
            vocab = word_vocab([f"t{i}" for i in range(n_words)])
            stopwords = frozenset({"t0"}) if trial % 4 == 0 else frozenset()
            step = table_scorer(vocab.size, seed=trial, concentration=float(rng.uniform(0.5, 3.0)))
            cfg = DecodeConfig(
                beam_size=int(rng.integers(1, 5)), max_len=int(rng.integers(1, 6))
            )
            result = beam_search(step, vocab, stopwords, cfg)
            non_stop = [t for t in result.tokens if t not in stopwords]
            assert len(non_stop) == len(set(non_stop)), (trial, result.tokens)
            assert len(result.tokens) <= cfg.max_len


class TestMonotoneBeams:
    def test_context_independent_scorers(self):
        # order-independent sequence scores: wider beams can never lose ground
        rng = np.random.default_rng(31)
        for trial in range(40):
            n_words = int(rng.integers(2, 6))
            vocab = word_vocab([f"t{i}" for i in range(n_words)])
            weights = rng.random(n_words + 1) + 0.05
            probs = {f"t{i}": w for i, w in enumerate(weights[:-1])}
            probs["<eos>"] = weights[-1]
            total = sum(probs.values())
            probs = {k: v / total for k, v in probs.items()}
            step = constant_scorer(vocab, probs)
            max_len = int(rng.integers(1, 5))
            prev = -np.inf
            for k in range(1, 6):
                res = beam_search(step, vocab, None, DecodeConfig(beam_size=k, max_len=max_len))
                assert res.normalized_score >= prev - 1e-12
                prev = res.normalized_score

    def test_transformer_scorers(self):
        for trial in range(10):
            rng = np.random.default_rng(trial + 1000)
            n_words = int(rng.integers(3, 7))
            vocab = word_vocab([f"w{i}" for i in range(n_words)])
            cfg = tiny_model_config(d_in=5, d_model=16, n_heads=2, d_ff=24, max_len=8)
            model = MultilingualModel(cfg, {Language.EN: vocab}, seed=trial)
            audio = rng.normal(size=(4, 5))
            prev = -np.inf
            for k in range(1, 6):
                res = caption_audio(model, audio, Language.EN, DecodeConfig(beam_size=k, max_len=4), None)
                assert res.normalized_score >= prev - 1e-12
                prev = res.normalized_score


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        vocab = word_vocab([f"t{i}" for i in range(4)])
        step = table_scorer(vocab.size, seed=5)
        cfg = DecodeConfig(beam_size=3, max_len=4)
        a = beam_search(step, vocab, None, cfg)
        b = beam_search(step, vocab, None, cfg)
        assert a.token_ids == b.token_ids
        assert a.log_prob == b.log_prob

    def test_tie_break_prefers_smaller_ids(self):
        # both words equally likely everywhere: the winner is the lexicographically
        # smallest id sequence among the best-scoring finished hypotheses
        vocab = word_vocab(["a", "b"])
        step = constant_scorer(vocab, {"a": 0.45, "b": 0.45, "<eos>": 0.1})
        result = beam_search(step, vocab, None, DecodeConfig(beam_size=4, max_len=1))
        assert result.tokens == ["a"]


class TestModelAdapter:
    def test_caption_audio_decodes_and_respects_max_len(self, tiny_model):
        rng = np.random.default_rng(0)
        audio = rng.normal(size=(3, 6))
        result = caption_audio(
            tiny_model, audio, Language.EN, DecodeConfig(beam_size=2, max_len=50), None
        )
        # model max_len is 10: BOS plus at most 9 scored positions
        assert len(result.tokens) <= tiny_model.config.max_len - 1
        assert result.token_ids[-1] == tiny_model.vocab(Language.EN).eos_id

    def test_step_fn_rows_are_log_probs(self, tiny_model):
        rng = np.random.default_rng(1)
        step = cached_scorer(tiny_model, rng.normal(size=(3, 6)), Language.EN)
        rows = step(np.array([[1], [1]]), np.array([0, 0]))
        assert rows.shape == (2, tiny_model.vocab(Language.EN).size)
        assert np.allclose(np.exp(rows).sum(axis=-1), 1.0)

    def test_log_softmax_equals_composed_oracle_bit_for_bit(self):
        rng = np.random.default_rng(23)
        logits = rng.normal(size=(2, 3, 4, 6)) * 3.0
        logits[..., 4:] += -1e9  # masked entries
        logits[0, 0, 0, 1:] = -1e9  # a row with one live entry
        want, _ = composed_log_softmax(logits, np.zeros_like(logits))
        assert np.array_equal(log_softmax(logits), want)

    def test_rejects_batched_audio(self, tiny_model):
        with pytest.raises(ValidationError):
            IncrementalDecoder(tiny_model, np.zeros((2, 3, 6)), [Language.EN])

    def test_vocabulary_without_words_decodes_empty_caption(self):
        # a min_count above every word's count keeps only the specials
        vocab = build_vocabulary([["a", "b"]], min_count=5)
        assert len(vocab.word_ids) == 0
        model = MultilingualModel(tiny_model_config(), {Language.EN: vocab}, seed=0)
        result = caption_audio(model, np.ones((3, 6)), Language.EN, DecodeConfig(beam_size=2), None)
        assert result.tokens == []
        assert result.token_ids == (vocab.bos_id, vocab.eos_id)


def multilingual_model(rng, n_languages, seed, max_len=8):
    """A tiny model whose heads have different vocabulary sizes."""
    vocabs = {
        lang: word_vocab([f"{lang.value}{i}" for i in range(int(rng.integers(2, 9)))])
        for lang in list(Language)[:n_languages]
    }
    cfg = tiny_model_config(d_in=5, d_model=16, n_layers=2, n_heads=2, d_ff=24, max_len=max_len)
    return MultilingualModel(cfg, vocabs, seed=seed)


def random_stopwords(rng, vocab):
    return frozenset(t for t in (vocab.tokens[i] for i in vocab.word_ids) if rng.random() < 0.3)


class TestLockstep:
    """G language groups of one clip searched together through the shared trunk
    give each group what its own serial search gives."""

    def test_groups_match_serial_captions(self):
        rng = np.random.default_rng(60)
        for trial in range(40):
            model = multilingual_model(rng, int(rng.integers(2, 5)), seed=trial)
            audio = rng.normal(size=(int(rng.integers(1, 6)), 5))
            # groups may repeat a language
            languages = [model.languages[i] for i in rng.integers(0, len(model.languages), size=int(rng.integers(1, 5)))]
            stopwords = {
                lang: random_stopwords(rng, model.vocab(lang)) if trial % 2 else None
                for lang in model.languages
            }
            cfg = DecodeConfig(beam_size=int(rng.integers(1, 6)), max_len=int(rng.integers(1, 9)))
            got = caption_clip(model, audio, languages, cfg, stopwords)
            for lang, result in zip(languages, got, strict=True):
                want = caption_audio(model, audio, lang, cfg, stopwords[lang])
                assert result.token_ids == want.token_ids, (trial, lang)
                assert abs(result.log_prob - want.log_prob) <= 1e-12, (trial, lang)

    def test_stacked_rows_match_serial_rows(self):
        rng = np.random.default_rng(61)
        for trial in range(6):
            model = multilingual_model(rng, 4, seed=trial)
            audio = rng.normal(size=(int(rng.integers(1, 6)), 5))
            languages = [model.languages[i] for i in rng.integers(0, 4, size=int(rng.integers(2, 5)))]
            stacked = IncrementalDecoder(model, audio, languages)
            serial = [cached_scorer(model, audio, lang) for lang in languages]
            vocabs = [model.vocab(lang) for lang in languages]
            prefixes = [np.full((1, 1), v.bos_id, dtype=np.int64) for v in vocabs]
            parents = [np.zeros(1, dtype=np.intp) for _ in vocabs]
            # the search stops once every group is at zero rows, and so does this walk
            while any(len(p) for p in prefixes) and prefixes[0].shape[1] <= model.config.max_len:
                got = stacked(prefixes, parents)
                for rows, step, p, up, v in zip(got, serial, prefixes, parents, vocabs, strict=True):
                    assert rows.shape == (len(p), v.size)
                    if len(p):  # a one-group scorer is never called with zero rows
                        np.testing.assert_allclose(rows, step(p, up), rtol=0, atol=1e-12)
                # next call: each group's parents reordered, duplicated or
                # dropped, down to zero rows at times
                nxt, parents = [], []
                for p, v in zip(prefixes, vocabs):
                    rows = int(rng.integers(0, 6)) if len(p) else 0
                    parents.append(rng.integers(0, max(len(p), 1), size=rows))
                    nxt.append(np.column_stack([p[parents[-1]], rng.integers(0, v.size, size=rows)]))
                prefixes = nxt

    def test_one_group_is_bit_identical_to_the_single_search(self):
        rng = np.random.default_rng(62)
        for trial in range(10):
            model = multilingual_model(rng, 2, seed=trial)
            audio = rng.normal(size=(4, 5))
            lang = model.languages[trial % 2]
            vocab = model.vocab(lang)
            stopwords = random_stopwords(rng, vocab)
            cfg = DecodeConfig(beam_size=int(rng.integers(1, 6)), max_len=6)
            want = grouped_beam_search(
                IncrementalDecoder(model, audio, [lang]), [vocab], [stopwords], cfg
            )[0]
            assert caption_clip(model, audio, [lang], cfg, {lang: stopwords}) == [want]
            assert caption_audio(model, audio, lang, cfg, stopwords) == want
            # the one-argument search over an uncached scorer finds the same caption
            uncached = beam_search(full_forward_scorer(model, audio, lang), vocab, stopwords, cfg)
            assert uncached.token_ids == want.token_ids
            assert abs(uncached.log_prob - want.log_prob) <= 1e-12

    def test_table_scorers_as_groups_match_reference_search(self):
        rng = np.random.default_rng(63)
        for trial in range(300):
            vocabs, stopwords, steps = [], [], []
            for g in range(int(rng.integers(1, 5))):
                n_words = int(rng.integers(1, 7))
                vocab = word_vocab([f"t{i}" for i in range(n_words)])
                vocabs.append(vocab)
                stopwords.append(frozenset(f"t{i}" for i in range(n_words) if rng.random() < 0.3))
                seed = trial * 8 + g
                if g % 2:
                    steps.append(tied_table_scorer(vocab.size, seed=seed, levels=2, p_inf=0.3))
                else:
                    steps.append(table_scorer(vocab.size, seed=seed))
            cfg = DecodeConfig(
                beam_size=int(rng.integers(1, 6)),
                max_len=int(rng.integers(1, 6)),
                length_norm=float(rng.choice([0.0, 0.7, 1.0])),
            )
            got = grouped_beam_search(
                lambda prefixes, parents: [step(p) for step, p in zip(steps, prefixes)], vocabs, stopwords, cfg
            )
            for result, step, vocab, stop in zip(got, steps, vocabs, stopwords, strict=True):
                want_ids, want_log_prob, want_norm = reference_beam_search(
                    step, vocab, stop, cfg.beam_size, cfg.max_len, cfg.length_norm
                )
                assert result.token_ids == want_ids, (trial, cfg)
                assert result.log_prob == want_log_prob, (trial, cfg)
                assert result.normalized_score == want_norm, (trial, cfg)

    def test_front_end_runs_once_per_clip(self, monkeypatch):
        rng = np.random.default_rng(64)
        model = multilingual_model(rng, 4, seed=0)
        calls = []
        original = MultilingualModel.encode_audio

        def counting_encode(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MultilingualModel, "encode_audio", counting_encode)
        for g in range(1, 5):
            calls.clear()
            caption_clip(model, rng.normal(size=(3, 5)), model.languages[:g], DecodeConfig(2, 5), {})
            assert len(calls) == 1, g

    def test_step_rejects_misshapen_groups(self):
        rng = np.random.default_rng(65)
        model = multilingual_model(rng, 2, seed=0)
        step = IncrementalDecoder(model, rng.normal(size=(3, 5)), model.languages)
        bos = [np.full((1, 1), model.vocab(lang).bos_id) for lang in model.languages]
        first = [np.zeros(1, dtype=np.intp)] * 2
        with pytest.raises(ValidationError):
            step(bos, first[:1])  # parents for one of two groups
        with pytest.raises(ValidationError):
            step(bos[:1], first)  # one matrix for two groups
        with pytest.raises(ValidationError):
            step(bos, [first[0], np.zeros(2, dtype=np.intp)])  # two parents, one row
        step = IncrementalDecoder(model, rng.normal(size=(3, 5)), model.languages)
        assert [len(rows) for rows in step([bos[0], bos[1][:0]], [first[0], first[1][:0]])] == [1, 0]
        # an empty group may come as empty lists, which numpy reads as floats
        step = IncrementalDecoder(model, rng.normal(size=(3, 5)), model.languages)
        assert [len(rows) for rows in step([bos[0], np.zeros((0, 1))], [[0], []])] == [1, 0]

    def test_rejected_call_leaves_the_scorer_as_it_was(self):
        rng = np.random.default_rng(67)
        model = multilingual_model(rng, 2, seed=0)
        audio = rng.normal(size=(3, 5))
        bos = [np.full((1, 1), model.vocab(lang).bos_id) for lang in model.languages]
        step, fresh = (IncrementalDecoder(model, audio, model.languages) for _ in range(2))
        for scorer in (step, fresh):
            scorer(bos, [[0], [0]])
        two = [np.column_stack([b, [4]]) for b in bos]
        with pytest.raises(ValidationError):
            step(two, [[], [0]])  # one prefix row, but no parent, in group 0
        for got, want in zip(step(two, [[0], [0]]), fresh(two, [[0], [0]]), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "group, parent, token",
        [(0, -1, 4), (1, -1, 4), (0, 2, 4), (1, 2, 4), (0, 1.0, 4), (0, 0, -1), (1, 0, 99), (1, 0, 4.0)],
    )
    def test_step_rejects_bad_parents_and_tokens(self, group, parent, token):
        # each group's parents index its own rows of the previous call, and
        # each token its own vocabulary, by integers
        rng = np.random.default_rng(68)
        model = multilingual_model(rng, 2, seed=0)
        audio = rng.normal(size=(3, 5))
        step, fresh = (IncrementalDecoder(model, audio, model.languages) for _ in range(2))
        bos = [np.full((1, 1), model.vocab(lang).bos_id) for lang in model.languages]
        two = [np.array([[b[0, 0], 4], [b[0, 0], 5]]) for b in bos]
        for scorer in (step, fresh):
            scorer(bos, [[0], [0]])
            scorer(two, [[0, 0], [0, 0]])  # each group now has two rows
        third = [np.column_stack([p, [4, 5]]) for p in two]
        parents = [np.array([1, 0]), np.array([0, 1])]
        bad_prefixes, bad_parents = [p.tolist() for p in third], [p.tolist() for p in parents]
        bad_parents[group][0], bad_prefixes[group][0][-1] = parent, token
        with pytest.raises(ValidationError) as caught:
            step([np.array(p) for p in bad_prefixes], [np.array(p) for p in bad_parents])
        assert [item.split(":")[0] for item in caught.value.items] == [f"group {group}"]
        for got, want in zip(step(third, parents), fresh(third, parents), strict=True):
            assert np.array_equal(got, want)

    def test_step_rejects_every_group_empty(self):
        # a group may have zero rows, but not all
        rng = np.random.default_rng(66)
        model = multilingual_model(rng, 2, seed=0)
        step = IncrementalDecoder(model, rng.normal(size=(3, 5)), model.languages)
        empty = [np.zeros((0, 1), dtype=np.int64)] * 2
        with pytest.raises(ValidationError, match="zero rows"):
            step(empty, [np.zeros(0, dtype=np.intp)] * 2)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"length_norm": math.nan}, "length_norm"),
        ({"length_norm": math.inf}, "length_norm"),
        ({"length_norm": "1"}, "length_norm"),
        ({"beam_size": 2.5}, "beam_size"),
        ({"beam_size": 0}, "beam_size"),
        ({"max_len": True}, "max_len"),
    ],
)
def test_decode_config_rejects_bad_fields(kwargs, field):
    with pytest.raises(ValidationError) as info:
        DecodeConfig(**kwargs)
    assert info.value.exit_code == 2
    assert [item.split("=")[0] for item in info.value.items] == [field]


class TestRoundMemory:
    """`_round_bytes` against tracemalloc: each round's peak, counted from
    before the decoder is built, so the weights are left out. Below about
    1 MB the clip's fixed costs outweigh the per-row terms, so every config
    here is larger. And no round's rows outlive the round."""

    def test_no_round_rows_live_through_the_next_step_call(self):
        # every array a step call returns is freed before the search's next call
        vocabs = [word_vocab([f"t{i}" for i in range(6)]), word_vocab([f"u{i}" for i in range(4)])]
        scorers = [table_scorer(vocab.size, seed=seed) for seed, vocab in enumerate(vocabs)]
        returned, calls = [], []

        def step(prefixes, parents):
            assert all(ref() is None for ref in returned), f"round {len(calls) - 1}'s rows outlived it"
            calls.append(len(calls))
            rows = [scorer(p) for scorer, p in zip(scorers, prefixes)]
            returned[:] = [weakref.ref(r) for r in rows]
            return rows

        grouped_beam_search(step, vocabs, [None, None], DecodeConfig(beam_size=3, max_len=5))
        assert len(calls) == 6  # every round ran: BOS and five words

    @pytest.mark.parametrize(
        "beam_size, n_words, n_languages, dims",
        [
            (16, 5000, 1, {}),
            (32, 2000, 4, {}),
            (64, 500, 1, dict(d_model=128, n_layers=4, d_ff=256)),
        ],
        ids=["vocabulary_heavy", "four_languages", "cache_heavy"],
    )
    def test_every_round_peaks_within_the_estimate(self, beam_size, n_words, n_languages, dims):
        languages = list(Language)[:n_languages]
        vocabs = {lang: word_vocab([f"{lang.value}{i}" for i in range(n_words)]) for lang in languages}
        cfg = tiny_model_config(**{"d_in": 8, "d_model": 16, "n_layers": 2, "d_ff": 32, "max_len": 20, **dims})
        model = MultilingualModel(cfg, vocabs, seed=0)
        decode_cfg = fit_decode_config(model, languages, DecodeConfig(beam_size=beam_size, max_len=12))
        estimate = _round_bytes(model, languages, decode_cfg)
        assert estimate >= 1 << 20
        peaks = []
        tracemalloc.start()
        try:
            decoder = IncrementalDecoder(model, np.random.default_rng(0).normal(size=(10, 8)), languages)

            def step(prefixes, parents):
                peaks.append(tracemalloc.get_traced_memory()[1])  # the decoder's build, then each round
                tracemalloc.reset_peak()
                return decoder(prefixes, parents)

            grouped_beam_search(step, list(vocabs.values()), [None] * n_languages, decode_cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(peaks) == decode_cfg.max_len + 2
        assert max(peaks[1:]) <= estimate, (max(peaks[1:]), estimate)


class TestCaptionMemory:
    # the tracemalloc peak of one caption_clip call after a warm-up call, in
    # bytes, mostly Python objects of the search, not arrays: 197,514-198,651
    # at OPENBLAS_NUM_THREADS 1 and 2, run alone or in the whole suite. A
    # change that moves the pin updates it here and says why in CHANGES.md
    PIN = 198_100

    def test_a_caption_call_stays_at_its_pinned_peak(self):
        languages = [Language.EN, Language.FR]
        config = ModelConfig(d_in=16, d_model=32, n_layers=2, n_heads=4, d_ff=64, max_len=20)
        vocabs = {lang: word_vocab([f"{lang.value}{i}" for i in range(40)]) for lang in languages}
        model = MultilingualModel(config, vocabs, seed=1)
        audio = np.random.default_rng(0).normal(size=(12, 16))
        stopwords = {lang: load_stopwords(lang).words for lang in languages}
        cfg = DecodeConfig(beam_size=4, max_len=12)
        caption_clip(model, audio, languages, cfg, stopwords)
        peaks = [peak_bytes(lambda: caption_clip(model, audio, languages, cfg, stopwords)) for _ in range(2)]
        assert all(abs(peak - self.PIN) <= 2048 for peak in peaks), peaks
