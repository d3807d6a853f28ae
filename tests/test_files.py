"""Atomic output writes: a failed write or move leaves the previous file
byte-for-byte and no temporary file behind; over a regular file the move is
an exchange of names, elsewhere an `os.replace`."""

import json
import os

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
    """Make the move of every finished temporary file into place fail."""

    def move(tmp, path):
        raise OSError("replace failed")

    monkeypatch.setattr(files, "_move_into_place", move)


def poisoned_replace(monkeypatch):
    def replace(src, dst):
        raise AssertionError("os.replace reached")

    monkeypatch.setattr(files.os, "replace", replace)


def exchange_works(directory):
    """Whether libc has renameat2 and the filesystem of `directory` exchanges names."""
    a, b = directory / ".probe-a", directory / ".probe-b"
    a.write_bytes(b"a")
    b.write_bytes(b"b")
    try:
        swapped = files._renameat2 is not None and files._renameat2(
            files._AT_FDCWD, os.fsencode(a), files._AT_FDCWD, os.fsencode(b), files._RENAME_EXCHANGE
        ) == 0
        return swapped and a.read_bytes() == b"b"
    finally:
        a.unlink()
        b.unlink()


def tiny_model(seed):
    return MultilingualModel(tiny_model_config(), {Language.EN: word_vocab(["a", "b"])}, seed=seed)


WRITERS = {
    "checkpoint": lambda path, seed: save_checkpoint(tiny_model(seed), path),
    "json": lambda path, seed: cli._dump_json({"seed": seed}, path),
    "vocabulary": lambda path, seed: word_vocab([f"w{i}" for i in range(seed + 1)]).save(path),
    "embedding": lambda path, seed: write_embedding(path, EmbeddingSequence("a", np.full((2, 3), seed, np.float32))),
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
    real_move = files._move_into_place
    written = []

    def move(tmp, dst):  # the first epoch's write lands, the second fails
        if written:
            raise OSError("replace failed")
        real_move(tmp, dst)
        written.append(path.read_bytes())

    monkeypatch.setattr(files, "_move_into_place", move)
    with pytest.raises(OSError, match="replace failed"):
        trainer.fit(path)
    assert len(written[0].splitlines()) == 1
    assert path.read_bytes() == written[0]
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_write_over_a_regular_file_exchanges_without_replace(tmp_path, monkeypatch, kind):
    # ext4 flushes the new file's data inside a rename over an old one; the
    # exchange does not wait on that
    if not exchange_works(tmp_path):
        pytest.skip("no renameat2 RENAME_EXCHANGE here")
    write = WRITERS[kind]
    path = tmp_path / "out"
    write(path, 0)
    expected = tmp_path / "expected"
    write(expected, 1)
    poisoned_replace(monkeypatch)
    write(path, 1)
    assert path.read_bytes() == expected.read_bytes()
    assert sorted(tmp_path.iterdir()) == [expected, path]


@pytest.mark.parametrize("renameat2", [None, lambda *args: -1], ids=["missing", "failing"])
def test_without_the_exchange_the_write_replaces(tmp_path, monkeypatch, renameat2):
    path = tmp_path / "out.json"
    cli._dump_json({"seed": 0}, path)
    monkeypatch.setattr(files, "_renameat2", renameat2)
    replaced = []
    real_replace = files.os.replace
    monkeypatch.setattr(files.os, "replace", lambda src, dst: replaced.append(dst) or real_replace(src, dst))
    cli._dump_json({"seed": 1}, path)
    assert replaced == [path]
    assert json.loads(path.read_text()) == {"seed": 1}
    assert list(tmp_path.iterdir()) == [path]


def test_symlink_target_becomes_a_regular_file(tmp_path):
    pointed = tmp_path / "pointed.json"
    pointed.write_text("untouched\n", encoding="utf-8")
    path = tmp_path / "out.json"
    path.symlink_to(pointed)
    cli._dump_json({"seed": 1}, path)
    assert not path.is_symlink() and json.loads(path.read_text()) == {"seed": 1}
    assert pointed.read_text() == "untouched\n"
    assert sorted(tmp_path.iterdir()) == [path, pointed]


def test_directory_target_raises_and_stays(tmp_path):
    path = tmp_path / "out"
    path.mkdir()
    (path / "inside").write_bytes(b"kept")
    with pytest.raises(OSError):
        cli._dump_json({"seed": 1}, path)
    assert [(p.name, p.read_bytes()) for p in path.iterdir()] == [("inside", b"kept")]
    assert list(tmp_path.iterdir()) == [path]


def test_no_temporary_file_after_a_write_over_an_existing_file(tmp_path):
    path = tmp_path / "out.txt"
    for text in ("old\n", "new\n"):
        with files.atomic_write(path) as f:
            f.write(text)
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_target_turned_directory_after_the_check_is_swapped_back(tmp_path, monkeypatch):
    # the lstat saw a regular file; a directory took its place before the exchange
    if not exchange_works(tmp_path):
        pytest.skip("no renameat2 RENAME_EXCHANGE here")
    path = tmp_path / "out"
    path.mkdir()
    (path / "inside").write_bytes(b"kept")
    monkeypatch.setattr(files.stat, "S_ISREG", lambda mode: True)
    with pytest.raises(IsADirectoryError):
        cli._dump_json({"seed": 1}, path)
    assert [(p.name, p.read_bytes()) for p in path.iterdir()] == [("inside", b"kept")]
    assert list(tmp_path.iterdir()) == [path]


def test_failed_unlink_after_the_exchange_keeps_previous_file(tmp_path, monkeypatch):
    if not exchange_works(tmp_path):
        pytest.skip("no renameat2 RENAME_EXCHANGE here")
    path = tmp_path / "out.json"
    cli._dump_json({"seed": 0}, path)
    before = path.read_bytes()
    real_unlink, calls = files.os.unlink, []

    def unlink(p):
        calls.append(p)
        if len(calls) == 1:
            raise PermissionError("unlink failed")
        real_unlink(p)

    monkeypatch.setattr(files.os, "unlink", unlink)
    with pytest.raises(PermissionError, match="unlink failed"):
        cli._dump_json({"seed": 1}, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_open_regular_reads_a_regular_file_and_refuses_the_rest_at_once(tmp_path):
    # a FIFO with no writer would block a plain open for reading
    (tmp_path / "f").write_bytes(b"data")
    with files.open_regular(tmp_path / "f") as f:
        assert f.read() == b"data"
    os.mkfifo(tmp_path / "fifo")
    (tmp_path / "dir").mkdir()
    for name in ("fifo", "dir"):
        with pytest.raises(OSError, match="not a regular file"):
            files.open_regular(tmp_path / name)
    with pytest.raises(FileNotFoundError):
        files.open_regular(tmp_path / "gone")
