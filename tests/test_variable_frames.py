"""Variable-length audio: padding, memory masking and augmentation must all
respect each item's true frame count."""

import math

import numpy as np
import pytest

from conftest import beam_search, tiny_model_config, word_vocab
from polycap.corpus import CorpusIndex
from polycap.decoding import DecodeConfig, caption_audio
from polycap.model import MixupDraw, MultilingualModel
from polycap.text import Language, build_vocabulary, tokenize
from polycap.training import SpecAugmentConfig, TrainConfig, Trainer, spec_mask


def ragged_corpus(languages, frame_counts, d_in=12, seed=0):
    rng = np.random.default_rng(seed)
    entries, embeddings = {}, {}
    for i, frames in enumerate(frame_counts):
        audio_id = f"r{i:02d}"
        embeddings[audio_id] = rng.normal(size=(frames, d_in))
        entries[audio_id] = {
            lang: (f"{lang.value}w{i} {lang.value}xa {lang.value}xb {lang.value}xc",)
            for lang in languages
        }
    index = CorpusIndex(
        captions=entries,
        embeddings=embeddings,
        languages=tuple(languages),
    )
    vocabs = {
        lang: build_vocabulary(
            [tokenize(c) for e in entries.values() for c in e[lang]]
        )
        for lang in languages
    }
    return index, vocabs


class TestRaggedTraining:
    def test_trainer_handles_mixed_frame_counts(self):
        languages = [Language.EN, Language.FR]
        index, vocabs = ragged_corpus(languages, frame_counts=[3, 7, 5, 9, 4, 6])
        cfg = tiny_model_config(d_in=12, d_model=16, n_heads=2, d_ff=24, max_len=8)
        model = MultilingualModel(cfg, vocabs, seed=1)
        tcfg = TrainConfig(
            epochs=2, lr0=1e-3, weight_decay=0.0, label_smoothing_eps=0.1,
            mixup_alpha=0.4, specaug=SpecAugmentConfig(1, 3, 1, 4), batch_size=3, seed=2,
        )
        history = Trainer(model, index, tcfg).fit()
        assert all(np.isfinite(m["train_loss"]) for m in history)

    def test_padded_batch_equals_unpadded_singles(self):
        # a ragged batch (short item zero-padded + masked) must score exactly
        # like the items run one at a time with no padding at all
        from polycap.training import smoothed_cross_entropy

        languages = [Language.EN]
        index, vocabs = ragged_corpus(languages, frame_counts=[3, 7], seed=5)
        vocab = vocabs[Language.EN]
        cfg = tiny_model_config(d_in=12, d_model=16, n_heads=2, d_ff=24, max_len=8)
        model = MultilingualModel(cfg, vocabs, seed=3)

        ids = []
        for audio_id in index.audio_ids:
            caption = index.captions[audio_id][Language.EN][0]
            ids.append(vocab.encode(tokenize(caption)))
        ids = np.array(ids)  # equal caption lengths by construction

        frames = [index.embeddings[a] for a in index.audio_ids]
        width = max(f.shape[0] for f in frames)
        audio = np.zeros((2, width, 12))
        mask = np.zeros((2, width), dtype=bool)
        for i, f in enumerate(frames):
            audio[i, : f.shape[0]] = f
            mask[i, : f.shape[0]] = True

        batch_logits = model.forward(audio, ids[:, :-1], Language.EN, frame_mask=mask)
        batch_loss = smoothed_cross_entropy(batch_logits, ids[:, 1:], 0.0, vocab.pad_id).item()

        single_losses = []
        for i, f in enumerate(frames):
            logits = model.forward(f[None, :, :], ids[i : i + 1, :-1], Language.EN)
            single_losses.append(
                smoothed_cross_entropy(logits, ids[i : i + 1, 1:], 0.0, vocab.pad_id).item()
            )
        # equal target lengths, so the batch mean is the plain mean
        assert batch_loss == pytest.approx(np.mean(single_losses), rel=1e-12)


class TestRaggedSpecMask:
    def test_masks_stay_inside_each_items_extent(self):
        rng = np.random.default_rng(0)
        batch = np.ones((2, 10, 6))
        batch[1, 4:] = np.nan  # padding region: must never be selected for masking
        frame_counts = np.array([10, 4])
        cfg = SpecAugmentConfig(n_time_masks=3, max_time_width=10, n_channel_masks=0, max_channel_width=0)
        for _ in range(200):
            out = spec_mask(batch, frame_counts, cfg, rng)
            # zeros may appear anywhere within [0, frames_i); the nan padding
            # region of item 1 must pass through untouched
            assert np.isnan(out[1, 4:]).all()
            assert np.isfinite(out[1, :4]).all()


class TestMixupMaskUnion:
    def make_model(self):
        vocab = word_vocab([f"w{i}" for i in range(5)])
        cfg = tiny_model_config(d_in=4, d_model=8, n_heads=2, d_ff=12, max_len=8)
        return MultilingualModel(cfg, {Language.EN: vocab}, seed=0), vocab

    def test_partial_mix_attends_partner_frames(self):
        model, _ = self.make_model()
        rng = np.random.default_rng(1)
        audio = rng.normal(size=(2, 5, 4))
        mask = np.array([[True, True, False, False, False], [True] * 5])
        ids = np.array([[1, 4, 5], [1, 6, 7]])
        mix = MixupDraw(lam=0.5, partner=np.array([1, 0]))
        mixed = model.forward(audio, ids, Language.EN, frame_mask=mask, mixup=mix).data
        # with lam=0.5 item 0 sees partner frames 2..4; zeroing those frames
        # in the partner must change item 0's logits
        audio2 = audio.copy()
        audio2[1, 2:] = 0.0
        changed = model.forward(audio2, ids, Language.EN, frame_mask=mask, mixup=mix).data
        assert not np.allclose(mixed[0], changed[0])

    def test_lambda_one_keeps_own_mask(self):
        model, _ = self.make_model()
        rng = np.random.default_rng(2)
        audio = rng.normal(size=(2, 5, 4))
        mask = np.array([[True, True, False, False, False], [True] * 5])
        ids = np.array([[1, 4, 5], [1, 6, 7]])
        mix = MixupDraw(lam=1.0, partner=np.array([1, 0]))
        mixed = model.forward(audio, ids, Language.EN, frame_mask=mask, mixup=mix).data
        plain = model.forward(audio, ids, Language.EN, frame_mask=mask).data
        assert np.array_equal(mixed, plain)

    def test_lambda_zero_takes_the_partners_mask(self):
        # only the partner contributes, so each row is its partner's plain row
        # (row 0 sees all 5 of row 1's frames, row 1 only 2 of row 0's)
        model, _ = self.make_model()
        rng = np.random.default_rng(3)
        audio = rng.normal(size=(2, 5, 4))
        mask = np.array([[True, True, False, False, False], [True] * 5])
        ids = np.array([[1, 4, 5], [1, 6, 7]])
        partner = np.array([1, 0])
        mixed = model.forward(audio, ids, Language.EN, frame_mask=mask, mixup=MixupDraw(lam=0.0, partner=partner)).data
        plain = model.forward(audio[partner], ids[partner], Language.EN, frame_mask=mask[partner]).data
        assert np.array_equal(mixed, plain)


class TestCaptionTruncation:
    def test_overlong_captions_are_truncated_to_fit(self):
        languages = [Language.EN]
        rng = np.random.default_rng(0)
        words = " ".join(f"t{i}" for i in range(30))  # far beyond max_len
        entries = {"a": {Language.EN: (words,)}, "b": {Language.EN: (words,)}}
        index = CorpusIndex(
            captions=entries,
            embeddings={"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(3, 4))},
            languages=(Language.EN,),
        )
        vocabs = {Language.EN: build_vocabulary([tokenize(words)])}
        cfg = tiny_model_config(d_in=4, d_model=8, n_heads=2, d_ff=12, max_len=6)
        model = MultilingualModel(cfg, vocabs, seed=0)
        tcfg = TrainConfig(epochs=1, lr0=1e-3, weight_decay=0.0, mixup_alpha=0.0,
                           specaug=None, batch_size=2, seed=1)
        metrics = Trainer(model, index, tcfg).run_epoch(0)
        assert np.isfinite(metrics["train_loss"])


class TestEmptyCaptionDecode:
    def test_eos_first_wins_when_most_likely(self):
        vocab = word_vocab(["a", "b"])
        row = np.full(vocab.size, -np.inf)
        row[vocab.eos_id] = math.log(0.90)
        row[vocab.index["a"]] = math.log(0.06)
        row[vocab.index["b"]] = math.log(0.04)

        result = beam_search(
            lambda p: np.tile(row, (p.shape[0], 1)), vocab, None,
            DecodeConfig(beam_size=2, max_len=3),
        )
        assert result.tokens == []
        assert result.log_prob == pytest.approx(math.log(0.90))

    def test_model_decode_never_crashes_on_tiny_vocab(self, tiny_model):
        rng = np.random.default_rng(3)
        for _ in range(5):
            result = caption_audio(
                tiny_model, rng.normal(size=(4, 6)), Language.EN,
                DecodeConfig(beam_size=3, max_len=4), None,
            )
            assert result.token_ids[-1] == tiny_model.vocab(Language.EN).eos_id
