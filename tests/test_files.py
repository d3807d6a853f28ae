"""Atomic output writes: a failed write or replace leaves the previous file
byte-for-byte and no temporary file behind."""

import json

import numpy as np
import pytest

from conftest import synthetic_corpus, tiny_model_config, word_vocab
from polycap import cli, files
from polycap.cli import main
from polycap.corpus import EmbeddingSequence, write_embedding
from polycap.model import MultilingualModel, load_checkpoint, save_checkpoint
from polycap.text import Language
from polycap.training import TrainConfig, Trainer


def failing_replace(monkeypatch):
    def replace(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr(files.os, "replace", replace)


def tiny_model(seed):
    return MultilingualModel(tiny_model_config(), {Language.EN: word_vocab(["a", "b"])}, seed=seed)


WRITERS = {
    "checkpoint": lambda path, seed: save_checkpoint(tiny_model(seed), path),
    "json": lambda path, seed: cli._dump_json({"seed": seed}, path),
    "vocabulary": lambda path, seed: word_vocab([f"w{i}" for i in range(seed + 1)]).save(path),
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_replace_keeps_previous_file(tmp_path, monkeypatch, kind):
    write = WRITERS[kind]
    path = tmp_path / "out"
    write(path, 0)
    before = path.read_bytes()
    failing_replace(monkeypatch)
    with pytest.raises(OSError, match="replace failed"):
        write(path, 1)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_successful_write_replaces_file(tmp_path, kind):
    write = WRITERS[kind]
    path = tmp_path / "out"
    write(path, 0)
    before = path.read_bytes()
    write(path, 1)
    assert path.read_bytes() != before
    assert list(tmp_path.iterdir()) == [path]


def test_failure_mid_write_leaves_no_file(tmp_path):
    path = tmp_path / "out"
    with pytest.raises(RuntimeError):
        with files.atomic_write(path) as f:
            f.write("partial")
            raise RuntimeError("writer fault")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_round_trips_through_atomic_write(tmp_path):
    model = tiny_model(3)
    save_checkpoint(model, tmp_path / "m.ackp")
    loaded = load_checkpoint(tmp_path / "m.ackp")
    for name, t in model.named_parameters().items():
        assert np.array_equal(loaded.named_parameters()[name].data, t.data)


def test_failed_caption_replace_keeps_previous_captions(tmp_path, monkeypatch):
    emb_dir = tmp_path / "emb"
    emb_dir.mkdir()
    write_embedding(emb_dir / "a.aemb", EmbeddingSequence("a", np.ones((3, 6), dtype=np.float32)))
    save_checkpoint(tiny_model(0), tmp_path / "m.ackp")
    out = tmp_path / "o"

    def caption(beam_size):
        return main([
            "caption", "--checkpoint", str(tmp_path / "m.ackp"), "--embeddings-dir", str(emb_dir),
            "--beam-size", str(beam_size), "--out", str(out),
        ])  # fmt: skip

    assert caption(1) == 0
    before = (out / "captions.jsonl").read_bytes()
    assert json.loads(before)["decode_config"]["beam_size"] == 1
    failing_replace(monkeypatch)
    assert caption(2) == 3
    assert (out / "captions.jsonl").read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == ["captions.jsonl", "run_manifest.json"]


def test_failed_metrics_replace_keeps_earlier_epochs(tmp_path, monkeypatch):
    index, vocabs = synthetic_corpus([Language.EN], n_items=4, d_in=6)
    model = MultilingualModel(tiny_model_config(), vocabs, seed=0)
    trainer = Trainer(model, index, TrainConfig(epochs=2, batch_size=4, specaug=None, mixup_alpha=0.0))
    path = tmp_path / "metrics.jsonl"
    real_replace = files.os.replace
    written = []

    def replace(src, dst):  # the first epoch's write lands, the second fails
        if written:
            raise OSError("replace failed")
        real_replace(src, dst)
        written.append(path.read_bytes())

    monkeypatch.setattr(files.os, "replace", replace)
    with pytest.raises(OSError, match="replace failed"):
        trainer.fit(path)
    assert len(written[0].splitlines()) == 1
    assert path.read_bytes() == written[0]
    assert list(tmp_path.iterdir()) == [path]
