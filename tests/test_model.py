import json
import struct
import tracemalloc

import numpy as np
import pytest

from conftest import tiny_model_config, word_vocab
from oracles import finite_difference_grads, relative_error
from polycap.errors import ValidationError
from polycap.model import (
    FROZEN_ENCODER_PARAMS,
    HeadParams,
    MixupDraw,
    ModelConfig,
    MultilingualModel,
    ParamReport,
    SequenceTooLongError,
    UnknownLanguageError,
    load_checkpoint,
    param_report,
    save_checkpoint,
    sinusoidal_encoding,
    size_comparison,
)
from polycap.text import Language
from polycap.training import smoothed_cross_entropy


class TestModelConfig:
    def test_defaults_match_contract(self):
        cfg = ModelConfig()
        assert (cfg.d_in, cfg.d_model, cfg.n_layers, cfg.n_heads, cfg.d_ff) == (768, 256, 6, 4, 2048)
        assert (cfg.trunk_dropout, cfg.frontend_dropout) == (0.2, 0.5)

    def test_heads_must_divide_width(self):
        with pytest.raises(ValidationError):
            ModelConfig(d_model=10, n_heads=3)

    def test_dropout_range(self):
        with pytest.raises(ValidationError):
            ModelConfig(trunk_dropout=1.0)

    @pytest.mark.parametrize("max_len", [0, 1])
    def test_max_len_holds_bos_and_one_word(self, max_len):
        # max_len 1 could be trained but not captioned: the word budget,
        # max_len - 1, would be 0
        with pytest.raises(ValidationError) as exc:
            ModelConfig(max_len=max_len)
        assert exc.value.items == [f"max_len={max_len} must be an integer >= 2"]
        assert ModelConfig(max_len=2).max_len == 2


class TestForward:
    def test_logit_shape_contract(self):
        # batch 2, 31 frames, target len 5, vocab 100 -> (2, 5, 100)
        vocab = word_vocab([f"w{i}" for i in range(96)])
        cfg = tiny_model_config(d_in=768, d_model=16, n_heads=2, max_len=12)
        model = MultilingualModel(cfg, {Language.EN: vocab}, seed=0)
        rng = np.random.default_rng(0)
        audio = rng.normal(size=(2, 31, 768))
        ids = rng.integers(0, vocab.size, size=(2, 5))
        logits = model.forward(audio, ids, Language.EN)
        assert logits.shape == (2, 5, 100)

    def test_positional_table_is_a_prefix_of_any_longer_one(self):
        # the forward and the cached decoder build the table only up to the
        # positions they use, so a short table must have the bits of the
        # first rows of a long one
        for d in (8, 16, 256, 512):
            for length in (40, 64, 200):
                full = sinusoidal_encoding(length, d)
                for t in range(1, length + 1):
                    assert sinusoidal_encoding(t, d).tobytes() == full[:t].tobytes(), (d, length, t)

    def test_causality_by_perturbation(self, tiny_model, en_vocab):
        rng = np.random.default_rng(1)
        audio = rng.normal(size=(1, 3, 6))
        ids = np.array([[1, 4, 5, 6, 7]])
        base = tiny_model.forward(audio, ids, Language.EN).data
        for t in range(1, ids.shape[1]):
            perturbed = ids.copy()
            perturbed[0, t] = 8
            out = tiny_model.forward(audio, perturbed, Language.EN).data
            assert np.array_equal(out[:, :t], base[:, :t]), f"position {t} leaked backwards"

    def test_eval_mode_deterministic(self, tiny_model):
        rng = np.random.default_rng(2)
        audio = rng.normal(size=(2, 3, 6))
        ids = np.array([[1, 4, 5], [1, 6, 2]])
        a = tiny_model.forward(audio, ids, Language.EN).data
        b = tiny_model.forward(audio, ids, Language.EN).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("lengths", [None, np.array([3, 2])], ids=["padded", "live_rows"])
    @pytest.mark.parametrize("trunk, frontend", [(0.0, 0.0), (0.3, 0.0), (0.0, 0.4)])
    def test_dropout_runs_iff_a_generator_is_given(self, en_vocab, trunk, frontend, lengths):
        cfg = tiny_model_config(trunk_dropout=trunk, frontend_dropout=frontend)
        model = MultilingualModel(cfg, {Language.EN: en_vocab}, seed=0)
        data = np.random.default_rng(6)
        audio = data.normal(size=(2, 3, 6))
        ids = np.array([[1, 4, 5], [1, 6, 2]])
        plain = model.forward(audio, ids, Language.EN, lengths=lengths).data
        gen = np.random.default_rng(7)
        state = gen.bit_generator.state
        dropped = model.forward(audio, ids, Language.EN, rng=gen, lengths=lengths).data
        if trunk == frontend == 0.0:
            # no rate to apply: the generator changes no bit and is not drawn from
            assert np.array_equal(dropped, plain)
            assert gen.bit_generator.state == state
        else:
            assert not np.array_equal(dropped, plain)

    def test_unknown_language(self, tiny_model):
        with pytest.raises(UnknownLanguageError):
            tiny_model.forward(np.zeros((1, 3, 6)), np.array([[1, 2]]), Language.DE)

    def test_length_overflow(self, tiny_model):
        ids = np.ones((1, 11), dtype=np.int64)
        with pytest.raises(SequenceTooLongError):
            tiny_model.forward(np.zeros((1, 3, 6)), ids, Language.EN)

    def test_frame_mask_hides_padding(self, tiny_model):
        rng = np.random.default_rng(3)
        audio = rng.normal(size=(1, 4, 6))
        mask = np.array([[True, True, True, False]])
        ids = np.array([[1, 4, 5]])
        ref = tiny_model.forward(audio, ids, Language.EN, frame_mask=mask).data
        audio2 = audio.copy()
        audio2[0, 3] = 99.0  # padded frame content must not matter
        out = tiny_model.forward(audio2, ids, Language.EN, frame_mask=mask).data
        assert np.allclose(ref, out)

    def test_mixup_lambda_one_is_identity(self, tiny_model):
        rng = np.random.default_rng(4)
        audio = rng.normal(size=(2, 3, 6))
        ids = np.array([[1, 4, 5], [1, 6, 7]])
        plain = tiny_model.forward(audio, ids, Language.EN).data
        mixed = tiny_model.forward(
            audio, ids, Language.EN,
            mixup=MixupDraw(lam=1.0, partner=np.array([1, 0])),
        ).data
        assert np.array_equal(plain, mixed)

    def test_mix_keeps_the_bits_of_both_inline_forms(self):
        # the audio and the token embeddings were once mixed by two inline
        # expressions; multiplication commutes, so the one mix has both's bits
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3, 6)) * 100.0
        draw = MixupDraw(lam=0.37, partner=np.array([2, 0, 3, 1]))
        mixed = draw.mix(x)
        assert np.array_equal(mixed, draw.lam * x + (1.0 - draw.lam) * x[draw.partner])
        assert np.array_equal(mixed, x * draw.lam + x[draw.partner] * (1.0 - draw.lam))


class TestTrunkSharing:
    def test_multilingual_step_leaves_other_heads_untouched(self):
        from polycap.training import AdamW, zero_grads

        vocab = word_vocab([f"w{i}" for i in range(7)])
        cfg = tiny_model_config()
        model = MultilingualModel(cfg, {l: vocab for l in Language}, seed=0)
        before = {
            name: p.data.copy()
            for name, p in model.named_parameters().items()
            if name.startswith("heads.") and not name.startswith("heads.en.")
        }
        trunk_before = model.named_parameters()["frontend.weight"].data.copy()

        rng = np.random.default_rng(0)
        audio = rng.normal(size=(2, 3, 6))
        ids = np.array([[1, 4, 5, 2], [1, 6, 2, 0]])
        logits = model.forward(audio, ids[:, :-1], Language.EN)
        loss = smoothed_cross_entropy(logits, ids[:, 1:], 0.1, vocab.pad_id)
        params = model.named_parameters(Language.EN)
        zero_grads(params)
        loss.backward()
        AdamW().step(params, lr=1e-2, weight_decay=2.0, decay_names=model.decay_parameter_names())

        after = model.named_parameters()
        for name, old in before.items():
            assert np.array_equal(after[name].data, old), f"{name} changed"
        assert not np.array_equal(after["frontend.weight"].data, trunk_before)

    def test_monolingual_is_one_head_special_case(self, en_vocab):
        model = MultilingualModel(tiny_model_config(), {Language.EN: en_vocab}, seed=0)
        assert model.languages == (Language.EN,)


class TestGradients:
    def test_all_parameter_groups_match_finite_differences(self, en_vocab):
        cfg = tiny_model_config()  # d_model=8, 1 layer, 2 attention heads, vocab 11
        model = MultilingualModel(cfg, {Language.EN: en_vocab, Language.FR: en_vocab}, seed=3)
        rng = np.random.default_rng(1)
        audio = rng.normal(size=(2, 3, 6))
        ids = np.array([[1, 4, 5, 6], [1, 7, 8, 2]])
        targets = np.array([[4, 5, 6, 2], [7, 8, 2, 0]])

        def losses():
            return [
                smoothed_cross_entropy(model.forward(audio, ids, lang), targets, 0.1, 0)
                for lang in (Language.EN, Language.FR)
            ]

        params = model.named_parameters()
        for loss in losses():  # the trunk's gradients add up over both
            loss.backward()
        analytic = {n: p.grad.copy() for n, p in params.items()}
        for p in params.values():
            p.grad = None
        numeric = finite_difference_grads(lambda: sum(loss.item() for loss in losses()), params)
        worst = {n: relative_error(analytic[n], numeric[n]) for n in params}
        offenders = {n: e for n, e in worst.items() if e >= 1e-4}
        assert not offenders, offenders


class TestParamAccounting:
    def test_classifier_closed_form_en(self):
        report = param_report(ModelConfig(), {Language.EN: 4861})
        assert report.heads["en"].classifier == 1_249_277  # 4861*256 + 4861

    def test_classifier_closed_form_de(self):
        report = param_report(ModelConfig(), {Language.DE: 9391})
        assert report.heads["de"].classifier == 2_413_487

    def test_zero_layer_trunk(self):
        cfg = ModelConfig(n_layers=0)
        assert param_report(cfg, {}).trunk == 0

    def test_live_count_equals_closed_form(self, en_vocab):
        cfg = tiny_model_config(n_layers=2)
        model = MultilingualModel(cfg, {Language.EN: en_vocab, Language.DE: en_vocab}, seed=0)
        sizes = {name: t.data.size for name, t in model.named_parameters().items()}
        closed = param_report(cfg, {Language.EN: en_vocab.size, Language.DE: en_vocab.size})

        def total(prefix):
            return sum(n for name, n in sizes.items() if name.startswith(prefix))

        assert closed.frontend == total("frontend.")
        assert closed.trunk == total("trunk.")
        assert set(closed.heads) == {"en", "de"}
        for code, head in closed.heads.items():
            assert head.embedding == total(f"heads.{code}.embedding.")
            assert head.classifier == total(f"heads.{code}.classifier.")
        assert closed.trainable_total == sum(sizes.values())

    def test_grand_total_includes_frozen_encoder(self):
        report = param_report(ModelConfig(), {Language.EN: 4861})
        assert report.grand_total == report.trainable_total + FROZEN_ENCODER_PARAMS

    def test_size_comparison_example(self):
        def fake(total_heads, trainable):
            # build a report with the requested grand total via the frontend slot
            return ParamReport(
                frontend=trainable, trunk=0, heads={code: HeadParams(0, 0) for code in total_heads}
            )

        monos = [fake([c], 12_000_000) for c in ("en", "fr", "es", "de")]
        multi = fake(["en", "fr", "es", "de"], 22_800_000)
        expected = (4 * 40_000_000 - 50_800_000) / (4 * 40_000_000) * 100
        assert size_comparison(monos, multi) == pytest.approx(expected)
        assert expected == pytest.approx(68.25)

    def test_size_comparison_identity(self):
        report = param_report(ModelConfig(), {Language.EN: 100})
        assert size_comparison([report], report) == pytest.approx(0.0)

    def test_size_comparison_two_monos_arithmetic(self):
        # two 10M monos vs one 10M multi -> 50%
        def ten_million(heads):
            return ParamReport(
                frontend=10_000_000, trunk=0,
                heads={code: HeadParams(0, 0) for code in heads}, frozen_encoder=0,
            )

        monos = [ten_million(["en"]), ten_million(["fr"])]
        multi = ten_million(["en", "fr"])
        assert size_comparison(monos, multi) == pytest.approx(50.0)

    def test_size_comparison_language_mismatch(self):
        a = param_report(ModelConfig(), {Language.EN: 10})
        b = param_report(ModelConfig(), {Language.FR: 10})
        with pytest.raises(ValidationError):
            size_comparison([a], b)


class TestCheckpoint:
    def test_bit_exact_roundtrip(self, tmp_path, en_vocab):
        cfg = tiny_model_config(n_layers=2)
        model = MultilingualModel(cfg, {Language.EN: en_vocab, Language.FR: en_vocab}, seed=9)
        path = tmp_path / "model.ackp"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        assert loaded.languages == model.languages
        assert loaded.vocab(Language.EN).tokens == en_vocab.tokens
        a, b = model.named_parameters(), loaded.named_parameters()
        assert set(a) == set(b)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data), name
            assert b[name].data.flags.writeable and b[name].data.flags.owndata, name
        # saving the loaded model reproduces the file byte for byte
        save_checkpoint(loaded, tmp_path / "again.ackp")
        assert (tmp_path / "again.ackp").read_bytes() == path.read_bytes()

    def test_file_bytes_match_the_documented_layout(self, tmp_path, en_vocab):
        model = MultilingualModel(tiny_model_config(), {Language.EN: en_vocab, Language.FR: en_vocab}, seed=4)
        path = tmp_path / "m.ackp"
        save_checkpoint(model, path)
        vocab_doc = {"tokens": list(en_vocab.tokens), "specials": {"pad": 0, "bos": 1, "eos": 2, "unk": 3}}
        meta = {
            "model_config": model.config.to_dict(),
            "languages": ["en", "fr"],
            "vocabs": {code: vocab_doc for code in ("en", "fr")},
        }
        meta_bytes = json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8")
        params = model.named_parameters()
        expected = [b"ACKP", struct.pack("<II", 1, len(meta_bytes)), meta_bytes, struct.pack("<I", len(params))]
        for name, t in params.items():
            expected += [struct.pack("<I", len(name)), name.encode("utf-8"), struct.pack("<I", t.data.ndim)]
            expected += [struct.pack(f"<{t.data.ndim}I", *t.data.shape), t.data.astype("<f8").tobytes()]
        assert path.read_bytes() == b"".join(expected)

    def test_save_writes_tensors_without_copying_them(self, tmp_path, en_vocab):
        cfg = tiny_model_config(d_in=32, d_model=128, n_heads=4, d_ff=512, n_layers=2)
        model = MultilingualModel(cfg, {Language.EN: en_vocab}, seed=0)
        path = tmp_path / "m.ackp"
        tracemalloc.start()
        try:
            save_checkpoint(model, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 2_000_000
        assert peak < 0.25 * size, (peak, size)

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "bad.ackp"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(ValidationError):
            load_checkpoint(path)

    def test_truncated_file_is_validation_error(self, tmp_path, tiny_model):
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        meta_end = 12 + int.from_bytes(raw[8:12], "little")
        # inside the header, the metadata, a tensor header, a tensor body, the last byte
        for cut in (6, 10, meta_end - 3, meta_end + 2, meta_end + 9, len(raw) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValidationError):
                load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path, tiny_model):
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        path.write_bytes(path.read_bytes() + b"\0")
        with pytest.raises(ValidationError, match="trailing"):
            load_checkpoint(path)

    def test_max_len_one_checkpoint_is_rejected(self, tmp_path, tiny_model):
        # a file written before max_len needed room for a word
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        meta_end = 12 + int.from_bytes(raw[8:12], "little")
        meta = json.loads(raw[12:meta_end])
        meta["model_config"]["max_len"] = 1
        meta_bytes = json.dumps(meta).encode("utf-8")
        path.write_bytes(raw[:4] + struct.pack("<II", 1, len(meta_bytes)) + meta_bytes + raw[meta_end:])
        with pytest.raises(ValidationError) as exc:
            load_checkpoint(path)
        assert exc.value.items == ["max_len=1 must be an integer >= 2"]

    def test_meta_the_file_cannot_back_is_rejected(self, tmp_path, tiny_model, monkeypatch):
        # checked before the model is built, so hostile sizes allocate nothing
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        meta_end = 12 + int.from_bytes(raw[8:12], "little")
        meta = json.loads(raw[12:meta_end])
        meta["model_config"]["d_model"] = 64
        meta_bytes = json.dumps(meta).encode("utf-8")
        path.write_bytes(raw[:4] + struct.pack("<II", 1, len(meta_bytes)) + meta_bytes + raw[meta_end:])
        monkeypatch.setattr(MultilingualModel, "_unfilled", None)
        n = param_report(ModelConfig.from_dict(meta["model_config"]), {Language.EN: 11}).trainable_total
        with pytest.raises(ValidationError) as exc:
            load_checkpoint(path)
        assert exc.value.message == (
            f"{path}: metadata describes {n} parameters ({8 * n} bytes), "
            f"but only {len(raw) - meta_end} bytes follow it"
        )

    def test_accented_vocabulary_roundtrips(self, tmp_path):
        from polycap.text import build_vocabulary, tokenize

        captions = ["la pluie tombe très fort", "el pájaro canta aquí", "ein hund bellt draußen"]
        vocab = build_vocabulary([tokenize(c) for c in captions])
        model = MultilingualModel(tiny_model_config(), {Language.FR: vocab}, seed=0)
        path = tmp_path / "m.ackp"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.vocab(Language.FR).tokens == vocab.tokens
        assert "très" in loaded.vocab(Language.FR).index
        vocab_path = tmp_path / "v.json"
        vocab.save(vocab_path)
        from polycap.text import Vocabulary

        assert Vocabulary.load(vocab_path).tokens == vocab.tokens

    def test_loaded_model_forward_matches(self, tmp_path, tiny_model):
        rng = np.random.default_rng(5)
        audio = rng.normal(size=(1, 3, 6))
        ids = np.array([[1, 4, 5]])
        want = tiny_model.forward(audio, ids, Language.EN).data
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        got = load_checkpoint(path).forward(audio, ids, Language.EN).data
        assert np.array_equal(want, got)


class TestInitDeterminism:
    def test_same_seed_same_parameters(self, en_vocab):
        cfg = tiny_model_config()
        m1 = MultilingualModel(cfg, {Language.EN: en_vocab}, seed=11)
        m2 = MultilingualModel(cfg, {Language.EN: en_vocab}, seed=11)
        for name, p in m1.named_parameters().items():
            assert np.array_equal(p.data, m2.named_parameters()[name].data)

    def test_head_order_is_language_ordinal(self, en_vocab):
        model = MultilingualModel(
            tiny_model_config(), {Language.DE: en_vocab, Language.EN: en_vocab}, seed=0
        )
        assert model.languages == (Language.EN, Language.DE)
