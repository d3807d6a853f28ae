import functools
import hashlib
import json
import math
import mmap
import os
import resource
import struct
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import documented_meta, splice_meta, tiny_model_config, word_vocab
from oracles import checkpoint_bytes, finite_difference_grads, initial_parameters, relative_error
import polycap
import polycap.cli
from polycap.errors import ValidationError
from polycap.files import write_json
from polycap.model import (
    FROZEN_ENCODER_PARAMS,
    MixupDraw,
    ModelConfig,
    MultilingualModel,
    SequenceTooLongError,
    UnknownLanguageError,
    load_checkpoint,
    param_report,
    parameter_table,
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

    def test_one_position_row_is_the_tables_row(self):
        # the cached decoder builds only the row of the position it decodes
        for d in (1, 6, 8, 256, 512):
            full = sinusoidal_encoding(41, d)
            for t in range(41):
                assert sinusoidal_encoding(t + 1, d, start=t)[0].tobytes() == full[t].tobytes(), (d, t)

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

    @pytest.mark.parametrize("lam", [-0.01, 1.01])
    def test_lambda_outside_0_1_errors(self, lam):
        with pytest.raises(ValidationError, match=rf"^mixup lambda {lam} outside \[0, 1\]$"):
            MixupDraw(lam=lam, partner=np.array([1, 0]))


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
        assert report["heads"]["en"]["classifier"] == 1_249_277  # 4861*256 + 4861

    def test_classifier_closed_form_de(self):
        report = param_report(ModelConfig(), {Language.DE: 9391})
        assert report["heads"]["de"]["classifier"] == 2_413_487

    def test_zero_layer_trunk(self):
        cfg = ModelConfig(n_layers=0)
        assert param_report(cfg, {})["trunk"] == 0

    def test_grand_total_includes_frozen_encoder(self):
        report = param_report(ModelConfig(), {Language.EN: 4861})
        assert report["grand_total"] == report["trainable_total"] + FROZEN_ENCODER_PARAMS

    def test_size_comparison_example(self):
        def fake(total_heads, trainable):
            # an entry with the requested grand total: trainable plus the frozen encoder
            return {"heads": {code: {} for code in total_heads}, "grand_total": trainable + FROZEN_ENCODER_PARAMS}

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
            return {"heads": {code: {} for code in heads}, "grand_total": 10_000_000}

        monos = [ten_million(["en"]), ten_million(["fr"])]
        multi = ten_million(["en", "fr"])
        assert size_comparison(monos, multi) == pytest.approx(50.0)

    def test_size_comparison_language_mismatch(self):
        a = param_report(ModelConfig(), {Language.EN: 10})
        b = param_report(ModelConfig(), {Language.FR: 10})
        with pytest.raises(ValidationError):
            size_comparison([a], b)


class TestParameterTable:
    @pytest.mark.parametrize("n_layers, n_heads", [(0, 2), (1, 1), (2, 2)])
    def test_initial_parameters_match_the_oracle(self, n_layers, n_heads):
        cfg = tiny_model_config(n_layers=n_layers, n_heads=n_heads)
        vocabs = {Language.DE: word_vocab(["a", "b", "c"]), Language.EN: word_vocab(["a", "b", "c", "d", "e"])}
        got = MultilingualModel(cfg, vocabs, seed=5).named_parameters()
        want = initial_parameters(cfg.d_in, cfg.d_model, n_layers, cfg.d_ff, [("en", 9), ("de", 7)], seed=5)
        assert list(got) == list(want)  # the checkpoint order too
        for name, array in want.items():
            assert got[name].data.tobytes() == array.tobytes(), name

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        dims=st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.integers(0, 12), st.integers(1, 5)),
        sizes=st.dictionaries(st.sampled_from(list(Language)), st.integers(4, 12), min_size=1),
    )
    def test_table_is_what_the_model_holds_reports_and_saves(self, dims, sizes):
        d_in, n_heads, width, n_layers, d_ff = dims
        cfg = tiny_model_config(d_in=d_in, d_model=n_heads * width, n_heads=n_heads, n_layers=n_layers, d_ff=d_ff)
        vocabs = {lang: word_vocab([f"w{i}" for i in range(size - 4)]) for lang, size in sizes.items()}
        model = MultilingualModel(cfg, vocabs)
        table = parameter_table(cfg, sizes)
        assert table == {name: t.shape for name, t in model.named_parameters().items()}
        assert list(table) == list(model.named_parameters())

        def total(prefix):
            return sum(math.prod(shape) for name, shape in table.items() if name.startswith(prefix))

        report = param_report(cfg, sizes)
        assert (report["frontend"], report["trunk"]) == (total("frontend."), total("trunk."))
        for lang in sizes:
            head = report["heads"][lang.value]
            assert head["embedding"] == total(f"heads.{lang.value}.embedding.")
            assert head["classifier"] == total(f"heads.{lang.value}.classifier.")
        assert report["trainable_total"] == total("")
        # the loader's exact-size check accepts what the saver writes, layer 10 and up included
        with tempfile.TemporaryDirectory() as tmp:
            save_checkpoint(model, Path(tmp) / "m.ackp")
            loaded = load_checkpoint(Path(tmp) / "m.ackp").named_parameters()
        assert list(loaded) == list(table)


def buffer_owner(array: np.ndarray):
    """The object that exports the memory `array` views, at the root of its bases."""
    while isinstance(array, np.ndarray):
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


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
            assert b[name].data.flags.writeable and b[name].data.flags.aligned, name
        # saving the loaded model reproduces the file byte for byte
        save_checkpoint(loaded, tmp_path / "again.ackp")
        assert (tmp_path / "again.ackp").read_bytes() == path.read_bytes()

    def test_file_bytes_match_the_documented_layout(self, tmp_path, en_vocab):
        model = MultilingualModel(tiny_model_config(), {Language.EN: en_vocab, Language.FR: en_vocab}, seed=4)
        path = tmp_path / "m.ackp"
        save_checkpoint(model, path)
        params = {name: t.data for name, t in model.named_parameters().items()}
        raw = path.read_bytes()
        assert raw == checkpoint_bytes(documented_meta(model), params, version=2)
        _, padding, records = layout(raw)
        assert padding and all(raw[at] == 0 for at in padding)
        assert [data % 8 for _, data, _ in records.values()] == [0] * len(params)

    def test_load_maps_every_parameter_without_allocating_it(self, tmp_path, en_vocab):
        cfg = tiny_model_config(d_in=64, d_model=256, n_heads=4, d_ff=2048, n_layers=2)
        model = MultilingualModel(cfg, {Language.EN: en_vocab}, seed=0)
        path = tmp_path / "m.ackp"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        digest = hashlib.sha256()
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path, digest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(raw) > 20_000_000
        assert peak < 0.01 * len(raw), (peak, len(raw))
        assert digest.hexdigest() == hashlib.sha256(raw).hexdigest()
        arrays = [t.data for t in loaded.named_parameters().values()]
        for array in arrays:
            assert array.flags.aligned and array.ctypes.data % 8 == 0 and not array.flags.owndata
        owners = {id(buffer_owner(array)) for array in arrays}
        assert owners == {id(buffer_owner(arrays[0]))} and isinstance(buffer_owner(arrays[0]), mmap.mmap)
        # copy-on-write: an update of a loaded parameter leaves the file as it was
        arrays[0] += 1.0
        assert path.read_bytes() == raw

    def test_version_1_file_from_the_oracle_loads_bit_exactly(self, tmp_path, en_vocab):
        # eleven layers, so the record sizes of two-digit layer names count too
        cfg = tiny_model_config(n_layers=11, d_model=4, n_heads=2, d_ff=3)
        model = MultilingualModel(cfg, {Language.EN: en_vocab, Language.FR: word_vocab(["a"])}, seed=6)
        params = {name: t.data for name, t in model.named_parameters().items()}
        raw = checkpoint_bytes(documented_meta(model), params, version=1)
        assert any(data % 8 for _, data, _ in layout(raw)[2].values())  # unaligned tensors to copy out
        path = tmp_path / "v1.ackp"
        path.write_bytes(raw)
        digest = hashlib.sha256()
        loaded = load_checkpoint(path, digest)
        assert digest.hexdigest() == hashlib.sha256(raw).hexdigest()
        assert loaded.config == model.config and loaded.languages == model.languages
        for name, array in loaded.named_parameters().items():
            assert array.data.tobytes() == params[name].tobytes(), name
            assert array.data.flags.owndata and array.data.flags.aligned and array.data.flags.writeable, name
        # a loaded version-1 model saves as the current version
        save_checkpoint(loaded, tmp_path / "v2.ackp")
        assert (tmp_path / "v2.ackp").read_bytes() == checkpoint_bytes(documented_meta(model), params, version=2)

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

    def test_records_out_of_table_order_are_rejected(self, tmp_path, tiny_model):
        # the two records have one shape, so the file keeps its size; a
        # reader that looked each record up by name loaded it
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        records = layout(raw)[2]
        name = "trunk.layers.0.self_attn.wq.bias"
        (a, _, b), (c, _, d) = records[name], records["trunk.layers.0.self_attn.wk.bias"]
        path.write_bytes(raw[:a] + raw[c:d] + raw[b:c] + raw[a:b] + raw[d:])
        with pytest.raises(ValidationError) as exc:
            load_checkpoint(path)
        shape = tiny_model.named_parameters()[name].data.shape
        assert exc.value.message == f"{path}: tensor {list(records).index(name)} is not {name!r} of shape {shape}"

    def test_a_changed_name_byte_is_rejected(self, tmp_path, tiny_model):
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        raw = bytearray(path.read_bytes())
        records = layout(bytes(raw))[2]
        name = "trunk.layers.0.ff.w1.weight"
        raw[records[name][0] + 4 + name.index("w1")] = ord("W")
        path.write_bytes(raw)
        with pytest.raises(ValidationError) as exc:
            load_checkpoint(path)
        shape = tiny_model.named_parameters()[name].data.shape
        assert exc.value.message == f"{path}: tensor {list(records).index(name)} is not {name!r} of shape {shape}"

    def test_a_fifo_exits_2_without_waiting_for_a_writer(self, tmp_path, capsys):
        # only a regular file can be mapped; opening a FIFO for reading waits for a writer
        path = tmp_path / "m.ackp"
        os.mkfifo(path)
        argv = ["caption", "--checkpoint", str(path), "--embeddings-dir", str(tmp_path), "--out", str(tmp_path / "o")]
        assert polycap.cli.main(argv) == 2
        assert json.loads(capsys.readouterr().err)["message"] == f"cannot read checkpoint {path}: [Errno 22] not a regular file"

    def test_a_wrong_tensor_count_is_rejected(self, tmp_path, tiny_model):
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        raw = bytearray(path.read_bytes())
        at = 12 + int.from_bytes(raw[8:12], "little")
        n = len(tiny_model.named_parameters())
        struct.pack_into("<I", raw, at, n + 1)
        path.write_bytes(raw)
        with pytest.raises(ValidationError) as exc:
            load_checkpoint(path)
        assert exc.value.message == f"{path}: tensor count {n + 1} is not {n}"

    @pytest.mark.parametrize("where", ["count", "record"])
    def test_nonzero_padding_exits_2(self, tmp_path, tiny_model, capsys, where):
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        meta_bytes = raw[12 : 12 + int.from_bytes(raw[8:12], "little")]
        while (16 + len(meta_bytes)) % 8 == 0:  # room for a padding byte after the count
            meta_bytes += b" "
        raw = bytearray(splice_meta(raw, meta_bytes))
        _, padding, records = layout(bytes(raw))
        if where == "count":
            at, problem = 16 + len(meta_bytes), "nonzero padding after the tensor count"
        else:
            i, name = next((i, name) for i, (name, (_, data, _)) in enumerate(records.items()) if data - 1 in padding)
            at, problem = records[name][1] - 1, f"nonzero padding after the header of tensor {i} ({name!r})"
        assert at in padding
        raw[at] = 1
        path.write_bytes(raw)
        argv = ["caption", "--checkpoint", str(path), "--embeddings-dir", str(tmp_path), "--out", str(tmp_path / "o")]
        assert polycap.cli.main(argv) == 2
        assert json.loads(capsys.readouterr().err)["message"] == f"{path}: {problem}"

    def test_a_file_that_shrinks_while_read_is_rejected(self, tmp_path, tiny_model, monkeypatch, capsys):
        # the size is taken once, before the file is mapped; a file cut
        # after that leaves the last tensor short of the mapping
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])

        def fstat(fd):
            return SimpleNamespace(st_size=len(raw), st_mtime_ns=os.fstat(fd).st_mtime_ns)

        monkeypatch.setattr(polycap.model, "os", SimpleNamespace(**{**vars(os), "fstat": fstat}))
        argv = ["caption", "--checkpoint", str(path), "--embeddings-dir", str(tmp_path), "--out", str(tmp_path / "o")]
        assert polycap.cli.main(argv) == 2
        last = list(layout(raw)[2])[-1]
        assert json.loads(capsys.readouterr().err)["message"] == f"{path}: truncated checkpoint (reading {last!r})"

    def test_a_dimension_past_u32_is_bad_metadata(self, tmp_path, tiny_model):
        # no record header can hold it, so no file of that meta exists
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        meta_end = 12 + int.from_bytes(raw[8:12], "little")
        meta = json.loads(raw[12:meta_end])
        meta["model_config"]["d_ff"] = 2**32
        path.write_bytes(splice_meta(raw, json.dumps(meta).encode("utf-8")))
        with pytest.raises(ValidationError, match="bad checkpoint metadata .*4294967295"):
            load_checkpoint(path)

    def test_max_len_one_checkpoint_is_rejected(self, tmp_path, tiny_model):
        # a file written before max_len needed room for a word
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        meta_end = 12 + int.from_bytes(raw[8:12], "little")
        meta = json.loads(raw[12:meta_end])
        meta["model_config"]["max_len"] = 1
        path.write_bytes(splice_meta(raw, json.dumps(meta).encode("utf-8")))
        with pytest.raises(ValidationError) as exc:
            load_checkpoint(path)
        assert exc.value.message == f"{path}: bad checkpoint metadata"
        assert exc.value.items == ["model_config: bad model config", "model_config: max_len=1 must be an integer >= 2"]

    def test_meta_the_file_cannot_back_is_rejected(self, tmp_path, tiny_model, monkeypatch):
        # checked before the file is mapped and the model built, so hostile sizes allocate nothing
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        meta_end = 12 + int.from_bytes(raw[8:12], "little")
        meta = json.loads(raw[12:meta_end])
        meta["model_config"]["d_model"] = 64
        meta_bytes = json.dumps(meta).encode("utf-8")
        path.write_bytes(splice_meta(raw, meta_bytes))
        # the tensor block a model of the rewritten meta saves, after a meta block of this length
        wide = MultilingualModel(ModelConfig(**meta["model_config"]), {Language.EN: tiny_model.vocab(Language.EN)})
        save_checkpoint(wide, tmp_path / "wide.ackp")
        block = len(splice_meta((tmp_path / "wide.ackp").read_bytes(), meta_bytes)) - 12 - len(meta_bytes)
        follow = path.stat().st_size - 12 - len(meta_bytes)
        monkeypatch.setattr(MultilingualModel, "_from_arrays", None)
        monkeypatch.setattr(polycap.model, "mmap", None)
        with pytest.raises(ValidationError) as exc:
            load_checkpoint(path)
        assert exc.value.message == (
            f"{path}: metadata implies a {block}-byte tensor block, but {follow} bytes follow it (truncated)"
        )

    def test_many_narrow_layers_exit_2_before_anything_is_built(self, tmp_path, monkeypatch, capsys):
        # 4,000 one-wide layers padded with 8 bytes a parameter: a bound on
        # tensor data alone lets this 0.83 MB file through, and building its
        # layers' objects took 40 MB before the first tensor name failed
        vocab = word_vocab(["a", "b", "c"])
        cfg = tiny_model_config(d_in=1, d_model=1, d_ff=1, n_heads=1)
        save_checkpoint(MultilingualModel(cfg, {Language.EN: vocab}), tmp_path / "m.ackp")
        raw = (tmp_path / "m.ackp").read_bytes()
        meta = json.loads(raw[12 : 12 + int.from_bytes(raw[8:12], "little")])
        meta["model_config"]["n_layers"] = 4000
        n = param_report(ModelConfig(**meta["model_config"]), {Language.EN: vocab.size})["trainable_total"]
        meta_bytes = json.dumps(meta).encode("utf-8")
        monkeypatch.setattr(MultilingualModel, "_from_arrays", None)
        monkeypatch.setattr(polycap.model, "mmap", None)
        for version in (1, 2):
            path = tmp_path / f"narrow{version}.ackp"
            path.write_bytes(b"ACKP" + struct.pack("<II", version, len(meta_bytes)) + meta_bytes + bytes(8 * n))
            assert path.stat().st_size > 800_000
            argv = ["caption", "--checkpoint", str(path), "--embeddings-dir", str(tmp_path), "--out", str(tmp_path / "o")]
            tracemalloc.start()
            try:
                code = polycap.cli.main(argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 2, version
            assert "tensor block" in json.loads(capsys.readouterr().err)["message"]
            assert peak < 1 << 20, (version, peak)

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
        write_json(vocab_path, vocab.to_doc())
        from polycap.text import Vocabulary

        assert Vocabulary.from_doc(json.loads(vocab_path.read_text("utf-8"))).tokens == vocab.tokens

    def test_loaded_model_forward_matches(self, tmp_path, tiny_model):
        rng = np.random.default_rng(5)
        audio = rng.normal(size=(1, 3, 6))
        ids = np.array([[1, 4, 5]])
        want = tiny_model.forward(audio, ids, Language.EN).data
        path = tmp_path / "m.ackp"
        save_checkpoint(tiny_model, path)
        got = load_checkpoint(path).forward(audio, ids, Language.EN).data
        assert np.array_equal(want, got)


def layout(raw: bytes) -> tuple[list[int], list[int], dict[str, tuple[int, int, int]]]:
    """A checkpoint walked by its README layout, version 1 or 2: the byte
    offset of every u32 size field (the meta length, the tensor count, and
    each tensor's name length, rank and dims), the offset of every padding
    byte, and each tensor record's name with its (start, data, end) offsets,
    in file order."""
    version, meta_len = struct.unpack_from("<II", raw, 4)
    align = 8 if version == 2 else 1
    at = 12 + meta_len
    sizes, padding, records = [8, at], [], {}

    def pad(at: int) -> int:
        padding.extend(range(at, at + -at % align))
        return at + -at % align

    count = struct.unpack_from("<I", raw, at)[0]
    at = pad(at + 4)
    for _ in range(count):
        start, n = at, struct.unpack_from("<I", raw, at)[0]
        ndim = struct.unpack_from("<I", raw, at + 4 + n)[0]
        shape = struct.unpack_from(f"<{ndim}I", raw, at + 8 + n)
        sizes += [at, at + 4 + n, *(at + 8 + n + 4 * j for j in range(ndim))]
        data = pad(at + 8 + n + 4 * ndim)
        at = data + 8 * math.prod(shape)
        records[raw[start + 4 : start + 4 + n].decode("utf-8")] = (start, data, at)
    assert at == len(raw)
    return sizes, padding, records


U32 = st.integers(0, 2**32 - 1)
CONFIG_SIZES = ("d_in", "d_model", "n_layers", "n_heads", "d_ff", "max_len")


@functools.cache
def base_checkpoint(version: int) -> tuple[bytes, dict[str, np.ndarray]]:
    """A valid two-language checkpoint's bytes in `version`, the current
    one saved, version 1 from the oracle, and its parameters."""
    vocab = word_vocab(["a", "b", "c"])
    model = MultilingualModel(tiny_model_config(), {Language.EN: vocab, Language.FR: vocab}, seed=2)
    params = {name: t.data for name, t in model.named_parameters().items()}
    if version == 1:
        return checkpoint_bytes(documented_meta(model), params, version=1), params
    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(model, Path(tmp) / "m.ackp")
        return (Path(tmp) / "m.ackp").read_bytes(), params


@settings(max_examples=600, deadline=None, database=None)
@given(version=st.sampled_from([1, 2]),
       config=st.dictionaries(st.sampled_from(CONFIG_SIZES), U32, max_size=2),
       fields=st.lists(st.tuples(st.integers(0, 2**20), U32), max_size=3),
       pads=st.lists(st.tuples(st.integers(0, 2**20), st.integers(1, 255)), max_size=2))
def inflated_checkpoints_load_exactly_or_fail_validation(version, config, fields, pads):
    """A checkpoint of `version` with model_config sizes set from `config`,
    then the padding bytes picked by `pads` and the u32 size fields picked
    by `fields` (index modulo their count, new value) set, either loads with
    every parameter bit-exact, its padding all zero, or raises
    ValidationError."""
    raw, params = base_checkpoint(version)
    meta_len = struct.unpack_from("<I", raw, 8)[0]
    meta = json.loads(raw[12 : 12 + meta_len])
    meta["model_config"].update(config)
    data = bytearray(splice_meta(raw, json.dumps(meta, sort_keys=True).encode("utf-8")))
    sizes, padding, _ = layout(bytes(data))
    for index, value in pads if padding else ():
        data[padding[index % len(padding)]] = value
    for index, value in fields:
        struct.pack_into("<I", data, sizes[index % len(sizes)], value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.ackp"
        path.write_bytes(data)
        try:
            model = load_checkpoint(path)
        except ValidationError:
            return
    assert not (pads and padding), "a file with nonzero padding loaded"
    loaded = {name: t.data for name, t in model.named_parameters().items()}
    assert loaded.keys() == params.keys()
    for name, want in params.items():
        assert loaded[name].tobytes() == want.tobytes(), name


class TestHostileCheckpointSizes:
    def test_the_search_base_is_valid_and_every_size_field_is_found(self, tmp_path):
        for version in (1, 2):
            raw, params = base_checkpoint(version)
            (tmp_path / "m.ackp").write_bytes(raw)
            loaded = load_checkpoint(tmp_path / "m.ackp").named_parameters()
            assert all(loaded[name].data.tobytes() == want.tobytes() for name, want in params.items())
            sizes, padding, records = layout(raw)
            assert len(sizes) == 2 + sum(2 + p.ndim for p in params.values())
            assert list(records) == list(params)
            # version 2 pads every record's data to a multiple of 8, version 1 pads nothing
            assert all(raw[at] == 0 for at in padding) and bool(padding) == (version == 2)
            assert all(data % 8 == 0 for _, data, _ in records.values()) == (version == 2)

    def test_inflated_sizes_end_in_validation_error(self, tmp_path):
        # every size up to 2**32 - 1, searched in a child under a 2 GiB
        # address-space limit, so a size check that lets an allocation
        # through fails here instead of taking the machine's memory
        search = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import test_model\n"
            "test_model.inflated_checkpoints_load_exactly_or_fail_validation()\n"
        )
        src = str(Path(polycap.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cap = 2 << 30
        proc = subprocess.run(
            [sys.executable, "-c", search, str(Path(__file__).resolve().parent)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        )
        assert proc.returncode == 0, proc.stderr[-4000:]


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
