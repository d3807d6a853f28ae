import builtins
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
from dataclasses import fields
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from conftest import documented_meta, splice_meta, tiny_model_config, word_vocab
from oracles import checkpoint_bytes
import polycap
from polycap import decoding
from polycap.cli import TrainData, TrainRun, _load_train_config, main
from polycap.corpus import EmbeddingSequence, load_embedding, write_embedding
from polycap.model import ModelConfig, MultilingualModel, save_checkpoint
from polycap.text import SPECIAL_TOKENS, Language, load_stopwords
from polycap.training import SpecAugmentConfig, TrainConfig


def write_corpus(root: Path, n_items=6, frames=5, d_in=8, languages=("en", "fr"), seed=0):
    """A tiny but fully valid corpus: manifest + AEMB files, 1 caption each."""
    rng = np.random.default_rng(seed)
    emb_dir = root / "emb"
    emb_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for split, count in (("train", n_items), ("test", 3)):
        for i in range(count):
            audio_id = f"{split}{i:02d}"
            data = rng.normal(size=(frames, d_in)).astype(np.float32)
            write_embedding(emb_dir / f"{audio_id}.aemb", EmbeddingSequence(audio_id, data))
            captions = {
                lang: [f"{lang}m{i} {lang}fa {lang}fb {lang}fc"] for lang in languages
            }
            rows.append({"audio_id": audio_id, "split": split, "captions": captions})
    manifest = root / "manifest.jsonl"
    manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return manifest, emb_dir


def write_train_config(root: Path, manifest: Path, emb_dir: Path, epochs=25, seed=7):
    config = {
        "languages": ["en", "fr"],
        "data": {
            "manifest": str(manifest.name),
            "embeddings_dir": str(emb_dir.name),
            "train_split": "train",
            "val_split": None,
        },
        "model": {
            "d_in": 8, "d_model": 16, "n_layers": 1, "n_heads": 2, "d_ff": 24,
            "trunk_dropout": 0.0, "frontend_dropout": 0.0, "max_len": 8,
        },
        "train": {
            "epochs": epochs, "lr0": 2e-3, "weight_decay": 0.0,
            "label_smoothing_eps": 0.0, "mixup_alpha": 0.0, "specaug": None,
            "batch_size": 3, "seed": seed,
        },
    }
    path = root / "train.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def rewrite_meta(path: Path, edit) -> None:
    """Rewrite a checkpoint's JSON meta block in place with edit(meta)."""
    raw = path.read_bytes()
    meta_end = 12 + int.from_bytes(raw[8:12], "little")
    meta = json.loads(raw[12:meta_end])
    edit(meta)
    path.write_bytes(splice_meta(raw, json.dumps(meta).encode("utf-8")))


class TestPrepare:
    def test_writes_vocabularies_and_manifest(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        out = tmp_path / "prep"
        code = main([
            "prepare", "--manifest", str(manifest), "--embeddings-dir", str(emb_dir),
            "--languages", "en,fr", "--out", str(out),
        ])
        assert code == 0
        assert (out / "vocab.en.json").is_file()
        assert (out / "vocab.fr.json").is_file()
        assert (out / "run_manifest.json").is_file()
        summary = json.loads((out / "corpus_index.json").read_text())
        assert summary["n_audios"] == 6

    def test_missing_embedding_exits_2_with_items(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        (emb_dir / "train03.aemb").unlink()
        code = main([
            "prepare", "--manifest", str(manifest), "--embeddings-dir", str(emb_dir),
            "--languages", "en,fr", "--out", str(tmp_path / "prep"),
        ])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert any("train03" in item for item in payload["items"])

    def test_every_problem_of_a_split_in_one_report(self, tmp_path, capsys):
        # a file problem once stopped the check before captions were looked
        # at, so these three took three runs to see
        manifest, emb_dir = write_corpus(tmp_path)
        (emb_dir / "train01.aemb").unlink()
        truncated = emb_dir / "train02.aemb"
        truncated.write_bytes(truncated.read_bytes()[:-4])
        rows = [json.loads(line) for line in manifest.read_text().splitlines()]
        del rows[3]["captions"]["fr"]
        manifest.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        code = main([
            "prepare", "--manifest", str(manifest), "--embeddings-dir", str(emb_dir),
            "--languages", "en,fr", "--out", str(tmp_path / "prep"),
        ])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["message"] == "corpus validation failed for split 'train'"
        assert payload["items"] == [
            "train01: missing embedding file train01.aemb",
            f"train02: {truncated}: payload length mismatch, header implies 160 bytes, found 156",
            "train03: no fr captions",
        ]

    @pytest.mark.parametrize("min_count", ["0", "-3"])
    def test_min_count_below_one_exits_2_and_makes_no_out(self, min_count, tmp_path, capsys):
        # the vocabularies, which check min_count, were once built after --out was made
        manifest, emb_dir = write_corpus(tmp_path)
        out = tmp_path / "prep"
        code = main([
            "prepare", "--manifest", str(manifest), "--embeddings-dir", str(emb_dir),
            "--languages", "en,fr", "--min-count", min_count, "--out", str(out),
        ])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "ValidationError", "message": f"min_count must be >= 1, got {min_count}"}
        assert not out.exists()

    def test_empty_language_list_is_usage_error(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        code = main([
            "prepare", "--manifest", str(manifest), "--embeddings-dir", str(emb_dir),
            "--languages", ",", "--out", str(tmp_path / "prep"),
        ])
        assert code == 2


def clips_digest(emb_dir: Path, prefix: str = "") -> str:
    """SHA-256 of the sorted `name:hash` lines of the clips in emb_dir whose
    names start with prefix."""
    lines = sorted(
        f"{p.name}:{hashlib.sha256(p.read_bytes()).hexdigest()}" for p in emb_dir.glob(f"{prefix}*.aemb")
    )
    assert lines
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestRunManifest:
    """`input_digests` against SHA-256 computed here with hashlib: a file's
    digest is its bytes' hash; the embeddings' is the hash of the sorted
    `name:hash` lines, joined by newlines, of the clips the command read."""

    def test_input_digests_match_independent_sha256(self, tmp_path):
        manifest, emb_dir = write_corpus(tmp_path)
        prep = tmp_path / "prep"
        assert main([
            "prepare", "--manifest", str(manifest), "--embeddings-dir", str(emb_dir),
            "--languages", "en,fr", "--out", str(prep),
        ]) == 0
        assert len(list(emb_dir.glob("train*.aemb"))) == 6 and len(list(emb_dir.iterdir())) == 9
        digests = json.loads((prep / "run_manifest.json").read_text())["input_digests"]
        assert digests == {
            "manifest": hashlib.sha256(manifest.read_bytes()).hexdigest(),
            "embeddings_dir": clips_digest(emb_dir, "train"),  # the split's 6 clips, not all 9
        }

        checkpoint = tmp_path / "model.ackp"
        vocab = word_vocab(["a", "b"])
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), {Language.EN: vocab}), checkpoint)
        cap = tmp_path / "cap"
        assert main([
            "caption", "--checkpoint", str(checkpoint), "--embeddings-dir", str(emb_dir),
            "--beam-size", "1", "--max-len", "3", "--out", str(cap),
        ]) == 0
        digests = json.loads((cap / "run_manifest.json").read_text())["input_digests"]
        assert digests["checkpoint"] == hashlib.sha256(checkpoint.read_bytes()).hexdigest()
        assert digests["embeddings_dir"] == clips_digest(emb_dir)  # the glob read every clip

    @pytest.mark.parametrize("command", ["prepare", "train", "caption"])
    def test_no_clip_file_is_read_twice(self, command, tmp_path, monkeypatch):
        # the manifest's clip digests once came from a second read of every
        # clip; now they hash the bytes the command parsed
        from polycap import corpus

        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        doc = json.loads(config.read_text())
        doc["data"]["val_split"] = "test"
        config.write_text(json.dumps(doc), encoding="utf-8")
        checkpoint = tmp_path / "m.ackp"
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), {Language.EN: word_vocab(["a"])}), checkpoint)
        reads = []
        real_load = corpus.load_embedding
        monkeypatch.setattr(corpus, "load_embedding", lambda path, *rest: reads.append(path) or real_load(path, *rest))
        out = tmp_path / "out"
        argv = {
            "prepare": ["prepare", "--manifest", str(manifest), "--embeddings-dir", str(emb_dir), "--languages", "en"],
            "train": ["train", "--config", str(config)],
            "caption": ["caption", "--checkpoint", str(checkpoint), "--embeddings-dir", str(emb_dir),
                        "--beam-size", "1", "--max-len", "3"],
        }[command]
        assert main([*argv, "--out", str(out)]) == 0
        clips = sorted(path.name for path in reads if path.suffix == ".aemb")
        assert clips == sorted(p.name for p in emb_dir.glob("train*.aemb" if command == "prepare" else "*.aemb"))
        digest = json.loads((out / "run_manifest.json").read_text())["input_digests"]["embeddings_dir"]
        assert digest == clips_digest(emb_dir, "train" if command == "prepare" else "")

    @pytest.mark.parametrize("command", ["prepare", "stats", "train", "caption", "eval", "compare-langs"])
    def test_each_text_input_is_opened_once_and_hashed_as_read(
        self, command, tmp_path, embed_endpoint, monkeypatch, capsys
    ):
        # manifests and captions files were once hashed by a second read
        argv = [command, *command_argv(command, tmp_path, embed_endpoint)]
        if command == "caption":
            argv += ["--manifest", str(tmp_path / "manifest.jsonl"), "--beam-size", "1"]
        texts = {tmp_path.resolve() / "manifest.jsonl": "manifest", tmp_path.resolve() / "captions.jsonl": "captions"}
        opened = []
        real_open = io.open

        def recording_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append(Path(file).resolve())
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(builtins, "open", recording_open)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 0
        monkeypatch.undo()
        read = [path for path in opened if path in texts]
        assert sorted(read) == sorted(set(read)) and read
        digests = json.loads((out / "run_manifest.json").read_text())["input_digests"]
        assert {texts[path]: hashlib.sha256(path.read_bytes()).hexdigest() for path in read} == {
            label: digest for label, digest in digests.items() if label in texts.values()
        }

    def test_caption_with_a_manifest_records_the_manifest_split_and_clips(self, tmp_path):
        manifest, emb_dir = write_corpus(tmp_path)
        checkpoint = tmp_path / "model.ackp"
        vocab = word_vocab(["a", "b"])
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), {Language.EN: vocab}), checkpoint)
        records = {}
        for split in ("test", "train"):
            out = tmp_path / split
            assert main([
                "caption", "--checkpoint", str(checkpoint), "--embeddings-dir", str(emb_dir),
                "--manifest", str(manifest), "--split", split,
                "--beam-size", "1", "--max-len", "3", "--out", str(out),
            ]) == 0
            records[split] = json.loads((out / "run_manifest.json").read_text())
        assert records["test"]["config"]["split"] == "test"
        assert records["test"]["input_digests"] == {
            "checkpoint": hashlib.sha256(checkpoint.read_bytes()).hexdigest(),
            "manifest": hashlib.sha256(manifest.read_bytes()).hexdigest(),
            "embeddings_dir": clips_digest(emb_dir, "test"),  # the split's 3 clips
        }
        # two splits of one directory are two different records
        assert records["train"]["config"]["split"] == "train"
        assert records["train"]["input_digests"]["embeddings_dir"] == clips_digest(emb_dir, "train")

    def test_caption_records_the_decode_config_it_ran(self, tmp_path):
        # a model of max_len 6 scores BOS and 5 words, so --max-len 20 decodes
        # at most 5 words; both records say so, and the captions are the ones
        # the library decodes from the requested config
        _, emb_dir = write_corpus(tmp_path)
        checkpoint = tmp_path / "model.ackp"
        vocab = word_vocab([f"w{i}" for i in range(8)])
        model = MultilingualModel(tiny_model_config(d_in=8, max_len=6), {Language.EN: vocab}, seed=5)
        save_checkpoint(model, checkpoint)
        out = tmp_path / "cap"
        assert main([
            "caption", "--checkpoint", str(checkpoint), "--embeddings-dir", str(emb_dir),
            "--beam-size", "2", "--max-len", "20", "--out", str(out),
        ]) == 0
        ran = {"beam_size": 2, "max_len": 5, "length_norm": 1.0}
        assert json.loads((out / "run_manifest.json").read_text())["config"]["decode_config"] == ran
        lines = [json.loads(line) for line in (out / "captions.jsonl").read_text().splitlines()]
        assert len(lines) == 9
        requested = decoding.DecodeConfig(beam_size=2, max_len=20)
        stopwords = {Language.EN: load_stopwords(Language.EN).words}
        for line in lines:
            assert line["decode_config"] == ran
            clip = load_embedding(emb_dir / f"{line['audio_id']}.aemb").data
            want = decoding.caption_clip(model, clip, [Language.EN], requested, stopwords)[0]
            assert (line["caption"], line["log_prob"]) == (" ".join(want.tokens), want.log_prob)

    def test_files_the_command_did_not_read_leave_the_digest(self, tmp_path):
        manifest, emb_dir = write_corpus(tmp_path)
        digests = []
        for run in ("before", "after"):
            out = tmp_path / run
            assert main([
                "prepare", "--manifest", str(manifest), "--embeddings-dir", str(emb_dir),
                "--languages", "en", "--out", str(out),
            ]) == 0
            digests.append(json.loads((out / "run_manifest.json").read_text())["input_digests"])
            (emb_dir / "notes.txt").write_text("not a clip\n", encoding="utf-8")
            (emb_dir / "sub").mkdir(exist_ok=True)
            (emb_dir / "sub" / "train00.aemb").write_bytes(b"stray")
        assert digests[0] == digests[1]
        assert digests[0]["embeddings_dir"] == clips_digest(emb_dir, "train")

    def test_environment_records_the_blas_thread_setting(self, tmp_path):
        # a fit's weight-gradient bits differ between 1 and 2 BLAS threads,
        # so the manifest names the setting a run had
        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir, epochs=2)
        count_threads = (
            "import os, sys\n"
            "from polycap.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(code, len(os.listdir('/proc/self/task')))\n"
        )
        environments = {}
        for threads in ("1", "2"):
            out = tmp_path / f"run{threads}"
            proc = run_module(
                "train", "--config", str(config), "--out", str(out), cwd=tmp_path,
                args=("-c", count_threads), env={"OPENBLAS_NUM_THREADS": threads},
            )
            code, n_threads = map(int, proc.stdout.split()[-2:])
            assert code == 0, proc.stderr
            assert n_threads - 1 <= 2  # the BLAS workers besides the main thread
            environments[threads] = json.loads((out / "run_manifest.json").read_text())["environment"]
        assert [env["thread_vars"]["OPENBLAS_NUM_THREADS"] for env in environments.values()] == ["1", "2"]
        assert {key: value for key, value in environments["1"].items() if key != "thread_vars"} == {
            key: value for key, value in environments["2"].items() if key != "thread_vars"
        }
        assert environments["1"]["numpy"] == np.__version__
        assert environments["1"]["cpus"] == len(os.sched_getaffinity(0))


class TestCheckpointUnderCaption:
    """`caption` builds its model from the pages of the checkpoint file, so
    its digest must be the file's, and a write to that file while it runs
    must not pass unnoticed."""

    def test_both_versions_give_the_files_digest_and_the_same_captions(self, tmp_path):
        _, emb_dir = write_corpus(tmp_path)
        model = MultilingualModel(tiny_model_config(d_in=8), {Language.EN: word_vocab(["a", "b"])}, seed=4)
        params = {name: t.data for name, t in model.named_parameters().items()}
        captions = []
        for version in (1, 2):
            path = tmp_path / f"v{version}.ackp"
            path.write_bytes(checkpoint_bytes(documented_meta(model), params, version))
            out = tmp_path / f"cap{version}"
            argv = ["--embeddings-dir", str(emb_dir), "--beam-size", "2", "--max-len", "3", "--out", str(out)]
            assert main(["caption", "--checkpoint", str(path), *argv]) == 0
            digests = json.loads((out / "run_manifest.json").read_text())["input_digests"]
            assert digests["checkpoint"] == hashlib.sha256(path.read_bytes()).hexdigest()
            captions.append((out / "captions.jsonl").read_bytes())
        assert captions[0] == captions[1]

    @pytest.mark.parametrize("write", ["append", "overwrite"])
    def test_an_in_place_write_exits_3_and_writes_no_manifest(self, tmp_path, monkeypatch, capsys, write):
        _, emb_dir = write_corpus(tmp_path)
        path = tmp_path / "m.ackp"
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), {Language.EN: word_vocab(["a", "b"])}), path)
        os.utime(path, ns=(10**18, 10**18))  # an old mtime, so the write below moves it on any clock
        caption_clip = decoding.caption_clip

        def write_then_caption(*args):
            with open(path, "r+b") as f:  # the same inode, as a copy onto the path writes
                f.seek(0 if write == "append" else -8, os.SEEK_END)
                f.write(b"\xff" * 8)
            return caption_clip(*args)

        monkeypatch.setattr(decoding, "caption_clip", write_then_caption)
        out = tmp_path / "cap"
        assert main(["caption", "--checkpoint", str(path), "--embeddings-dir", str(emb_dir), "--out", str(out)]) == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "RuntimeFailure" and str(path) in payload["message"]
        assert not (out / "run_manifest.json").exists() and not (out / "captions.jsonl").exists()

    def test_an_atomic_replacement_leaves_the_run_as_it_was(self, tmp_path, monkeypatch):
        # the path then names a new inode; the mapped one is unchanged
        _, emb_dir = write_corpus(tmp_path)
        cfg, vocabs = tiny_model_config(d_in=8), {Language.EN: word_vocab(["a", "b"])}
        path = tmp_path / "m.ackp"
        save_checkpoint(MultilingualModel(cfg, vocabs, seed=1), path)
        raw = path.read_bytes()
        argv = ["caption", "--checkpoint", str(path), "--embeddings-dir", str(emb_dir)]
        assert main([*argv, "--out", str(tmp_path / "clean")]) == 0
        caption_clip = decoding.caption_clip

        def replace_then_caption(*args):
            save_checkpoint(MultilingualModel(cfg, vocabs, seed=2), path)
            return caption_clip(*args)

        monkeypatch.setattr(decoding, "caption_clip", replace_then_caption)
        assert main([*argv, "--out", str(tmp_path / "cap")]) == 0
        assert path.read_bytes() != raw
        digests = json.loads((tmp_path / "cap" / "run_manifest.json").read_text())["input_digests"]
        assert digests["checkpoint"] == hashlib.sha256(raw).hexdigest()
        clean = (tmp_path / "clean" / "captions.jsonl").read_bytes()
        assert (tmp_path / "cap" / "captions.jsonl").read_bytes() == clean

    def test_truncating_the_mapped_file_ends_the_process_with_sigbus(self, tmp_path):
        # the case the README states as remaining: a mapping cannot outlive its file's pages
        path = tmp_path / "m.ackp"
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), {Language.EN: word_vocab(["a", "b"])}), path)
        script = (
            "import os, sys\n"
            "from polycap.model import load_checkpoint\n"
            "model = load_checkpoint(sys.argv[1])\n"
            "os.truncate(sys.argv[1], 0)\n"
            "print(sum(float(t.data.sum()) for t in model.named_parameters().values()))\n"
        )
        proc = run_module(str(path), cwd=tmp_path, args=("-c", script))
        assert proc.returncode == -signal.SIGBUS, proc.stderr


class TestStats:
    def test_table_and_json(self, tmp_path, capsys):
        manifest, _ = write_corpus(tmp_path)
        out = tmp_path / "stats"
        code = main([
            "stats", "--manifest", str(manifest), "--languages", "en,fr",
            "--split", "train", "--out", str(out),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + 2 languages
        rows = json.loads((out / "stats.json").read_text())
        assert rows[0]["avg_sentence_length"] == pytest.approx(4.0)
        assert rows[0]["word_types"] == 9  # 6 markers + 3 fills

    def test_missing_split_fails(self, tmp_path, capsys):
        manifest, _ = write_corpus(tmp_path)
        code = main(["stats", "--manifest", str(manifest), "--languages", "en", "--split", "val"])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["message"] == f"split 'val' not present in {manifest}"

    def test_non_object_manifest_line_exits_2_with_items(self, tmp_path, capsys):
        manifest, _ = write_corpus(tmp_path)
        lines = manifest.read_text("utf-8").splitlines()
        manifest.write_text("\n".join([lines[0], "[1, 2]", *lines[1:]]) + "\n", "utf-8")
        assert main(["stats", "--manifest", str(manifest), "--languages", "en"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == ["line 2: not a JSON object"]


class TestTrainCaptionEval:
    def test_pipeline_and_reproducibility(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir)

        runs = []
        for tag in ("run_a", "run_b"):
            out = tmp_path / tag
            assert main(["train", "--config", str(config), "--out", str(out)]) == 0
            runs.append(out)
        ckpt_a = (runs[0] / "checkpoint.ackp").read_bytes()
        ckpt_b = (runs[1] / "checkpoint.ackp").read_bytes()
        assert ckpt_a == ckpt_b  # same seed, byte-identical weights

        def metrics_without_timing(path):
            rows = [json.loads(l) for l in (path / "metrics.jsonl").read_text().splitlines()]
            return [{k: v for k, v in r.items() if k != "seconds"} for r in rows]

        assert metrics_without_timing(runs[0]) == metrics_without_timing(runs[1])

        # captions: run twice, byte-identical
        cap_dirs = []
        for tag in ("cap_a", "cap_b"):
            out = tmp_path / tag
            code = main([
                "caption", "--checkpoint", str(runs[0] / "checkpoint.ackp"),
                "--embeddings-dir", str(emb_dir), "--manifest", str(manifest),
                "--split", "train", "--languages", "en,fr",
                "--beam-size", "2", "--out", str(out),
            ])
            assert code == 0
            cap_dirs.append(out)
        captions_a = (cap_dirs[0] / "captions.jsonl").read_bytes()
        assert captions_a == (cap_dirs[1] / "captions.jsonl").read_bytes()
        records = [json.loads(l) for l in captions_a.decode().splitlines()]
        assert len(records) == 6 * 2
        assert {r["language"] for r in records} == {"en", "fr"}
        assert all("decode_config" in r for r in records)

        # eval on the train split (references exist for these ids)
        eval_out = tmp_path / "eval"
        code = main([
            "eval", "--captions", str(cap_dirs[0] / "captions.jsonl"),
            "--manifest", str(manifest), "--split", "train", "--out", str(eval_out),
        ])
        assert code == 0
        report = json.loads((eval_out / "eval_report.json").read_text())
        assert set(report["scores"]) == {"en", "fr"}
        for scores in report["scores"].values():
            assert scores["n_items"] == 6
            assert scores["cider_d_raw"] >= 0.0
            assert scores["sbert_sim_pct"] is None

    def test_caption_manifest_missing_embedding_exits_2_with_items(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        (emb_dir / "test01.aemb").unlink()
        capsys.readouterr()
        code = main([
            "caption", "--checkpoint", str(tmp_path / "run" / "checkpoint.ackp"),
            "--embeddings-dir", str(emb_dir), "--manifest", str(manifest),
            "--split", "test", "--out", str(tmp_path / "cap"),
        ])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == ["test01: missing embedding file test01.aemb"]
        assert not (tmp_path / "cap" / "captions.jsonl").exists()

    def test_caption_embedding_dim_mismatch_exits_2(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        other = tmp_path / "emb5"
        other.mkdir()
        write_embedding(other / "a.aemb", EmbeddingSequence("a", np.ones((3, 5), dtype=np.float32)))
        capsys.readouterr()
        code = main([
            "caption", "--checkpoint", str(tmp_path / "run" / "checkpoint.ackp"),
            "--embeddings-dir", str(other), "--out", str(tmp_path / "cap"),
        ])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {
            "error": "ValidationError",
            "message": f"embeddings in {other} failed validation",
            "items": ["a: embedding dim 5 does not match model d_in 8"],
        }
        assert not (tmp_path / "cap" / "captions.jsonl").exists()

    def test_caption_unreadable_embedding_exits_2(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        (emb_dir / "zz.aemb").mkdir()
        capsys.readouterr()
        code = main([
            "caption", "--checkpoint", str(tmp_path / "run" / "checkpoint.ackp"),
            "--embeddings-dir", str(emb_dir), "--out", str(tmp_path / "cap"),
        ])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == [f"zz: {emb_dir / 'zz.aemb'}: cannot read embedding file (Is a directory)"]
        assert not (tmp_path / "cap" / "captions.jsonl").exists()

    @pytest.mark.parametrize("source", ["manifest", "glob"])
    def test_every_bad_clip_in_one_report_before_decoding(self, source, tmp_path, capsys, monkeypatch):
        # a wrong-dim clip once failed in the decoder after every earlier clip
        # was decoded, naming no clip, and the clips after it went unread
        manifest, emb_dir = write_corpus(tmp_path)
        checkpoint = tmp_path / "m.ackp"
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), {Language.EN: word_vocab(["a"])}), checkpoint)
        (emb_dir / "test00.aemb").unlink()
        if source == "glob":  # a dangling link is globbed but absent
            (emb_dir / "test00.aemb").symlink_to("nowhere.aemb")
        write_embedding(emb_dir / "test01.aemb", EmbeddingSequence("test01", np.ones((3, 5), dtype=np.float32)))
        truncated = emb_dir / "test02.aemb"
        truncated.write_bytes(truncated.read_bytes()[:-4])
        calls = []
        monkeypatch.setattr(decoding, "caption_clip", lambda *a: calls.append(a))
        argv = ["--checkpoint", str(tmp_path / "m.ackp"), "--embeddings-dir", str(emb_dir), "--out", str(tmp_path / "cap")]
        if source == "manifest":
            argv += ["--manifest", str(manifest), "--split", "test"]
        assert main(["caption", *argv]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {
            "error": "ValidationError",
            "message": f"embeddings in {emb_dir} failed validation",
            "items": [
                "test00: missing embedding file test00.aemb",
                "test01: embedding dim 5 does not match model d_in 8",
                f"test02: {truncated}: payload length mismatch, header implies 160 bytes, found 156",
            ],
        }
        assert calls == []
        assert not (tmp_path / "cap").exists()

    def test_train_smoke_loss_collapses(self, tmp_path):
        # 10-item monolingual corpus, 200 epochs: final loss < 10% of initial
        manifest, emb_dir = write_corpus(tmp_path, n_items=10, languages=("en",))
        config = json.loads(write_train_config(tmp_path, manifest, emb_dir).read_text())
        config["languages"] = ["en"]
        config["train"]["epochs"] = 200
        config["train"]["batch_size"] = 5
        path = tmp_path / "train.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "smoke"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert len(rows) == 200
        assert rows[-1]["train_loss"] < 0.1 * rows[0]["train_loss"]

    def test_manifest_loaded_once_with_val_split(self, tmp_path, monkeypatch):
        from polycap import corpus

        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        config = json.loads(config_path.read_text())
        config["data"]["val_split"] = "test"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        loads = []
        real_load = corpus.load_manifests
        monkeypatch.setattr(corpus, "load_manifests", lambda path, *rest: loads.append(path) or real_load(path, *rest))
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
        assert len(loads) == 1
        rows = [json.loads(l) for l in (out / "metrics.jsonl").read_text().splitlines()]
        assert rows[0]["val_loss"] is not None

    def test_bad_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{\"languages\": []}", encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2

    def test_unknown_keys_exit_2_in_one_report(self, tmp_path, capsys):
        # once silently ignored: this run trained, exited 0 and logged val_loss null
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        config = json.loads(config_path.read_text())
        config["data"]["val_splt"] = config["data"].pop("val_split")
        config |= {"min_cuont": 5, "out_dir": "o"}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["message"] == f"bad train config {config_path}"
        assert payload["items"] == [
            "unknown key 'min_cuont'", "unknown key 'out_dir'", "unknown key 'data.val_splt'"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "params"])
    def test_repeated_config_key_exits_2(self, tmp_path, capsys, command):
        # json.loads alone keeps the last of two equal keys: the first train block was dropped
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        text, argv, items = {
            "train": (
                config_path.read_text()[:-1] + ', "train": {"epochs": 2}}',
                ["train", "--config", str(config_path), "--out", str(tmp_path / "o")],
                ["repeated key 'train'"],
            ),
            "params": (
                '{"d_model": 16, "n_heads": 2, "n_heads": 4, "d_model": 32}',
                ["params", "--config", str(config_path), "--vocab-sizes", "en=10"],
                ["repeated key 'd_model'", "repeated key 'n_heads'"],
            ),
        }[command]
        config_path.write_text(text, encoding="utf-8")
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "ValidationError", "message": f"config {config_path} repeats keys", "items": items}
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "data, items",
        [
            ({"embeddings_dir": "emb"}, ["missing required key 'data.manifest'"]),
            (
                {"manifest": 5, "embeddings_dir": "emb", "train_split": None},
                ["'data.manifest' must be a path string", "'data.train_split' must be a split name"],
            ),
            ("x", ["'data' must be an object"]),
            (
                {"manifest": "m.jsonl", "embeddings_dir": "emb", "train_split": ["train"]},
                ["'data.train_split' must be a split name"],
            ),
            (
                {"manifest": "m.jsonl", "embeddings_dir": "emb", "val_split": 5},
                ["'data.val_split' must be a split name"],
            ),
            # no OS path holds a NUL byte: opening one raises ValueError, not OSError
            ({"manifest": "m\0.jsonl", "embeddings_dir": "emb"}, ["'data.manifest' must be a path string"]),
            ({"manifest": "m.jsonl", "embeddings_dir": "emb\0"}, ["'data.embeddings_dir' must be a path string"]),
        ],
        ids=[
            "no_manifest", "manifest_int", "not_an_object", "train_split_list", "val_split_int",
            "manifest_nul", "embeddings_dir_nul",
        ],
    )
    def test_malformed_data_block_exits_2_with_items(self, tmp_path, capsys, data, items):
        path = tmp_path / "train.json"
        path.write_text(json.dumps({"languages": ["en"], "data": data}), encoding="utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == items

    @pytest.mark.parametrize(
        "key, value, items",
        [
            ("languages", 5, ["'languages' must be a list of language codes"]),
            ("model", "x", ["'model' must be an object"]),
            ("train", "x", ["'train' must be an object"]),
            ("model", None, ["'model' must be an object"]),
            ("train", None, ["'train' must be an object"]),
            ("min_count", "2", ["'min_count' must be an integer >= 1"]),
            ("out_dir", 5, ["unknown key 'out_dir'"]),
        ],
        ids=[
            "languages_int", "model_string", "train_string", "model_null", "train_null", "min_count_string",
            "out_dir_int",
        ],
    )
    def test_malformed_config_shape_exits_2_with_items(self, tmp_path, capsys, key, value, items):
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir)
        config = json.loads(config_path.read_text()) | {key: value}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == items

    def test_bad_adam_betas_exits_2_with_items(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir)
        config = json.loads(config_path.read_text())
        config["train"]["adam_betas"] = [0.9, 0.99, 0.5]
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == ["adam_betas=[0.9, 0.99, 0.5] must be a pair of numbers in [0, 1)"]

    def test_bad_train_values_exit_2_with_items(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir)
        config = json.loads(config_path.read_text())
        config["train"] |= {"lr0": float("nan"), "specaug": {"n_time_masks": 2.5}}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == [
            "lr0=nan must be a finite number > 0",
            "specaug.n_time_masks=2.5 must be an integer >= 0",
        ]
        assert not (tmp_path / "o" / "checkpoint.ackp").exists()

    def test_overflowing_update_exits_3_and_saves_nothing(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir, epochs=2)
        config = json.loads(config_path.read_text())
        config["train"] |= {"lr0": 1e300, "weight_decay": 2.0, "batch_size": 1}
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "RuntimeFailure"
        assert payload["message"].startswith("non-finite update of ")
        (item,) = payload["items"]
        assert (item["epoch"], item["batch_index"]) == (0, 0) and len(item["audio_ids"]) == 1
        assert item["language"] in ("en", "fr") and item["parameter"]
        assert not (tmp_path / "o" / "checkpoint.ackp").exists()

    def test_typoed_config_key_is_validation_error(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir)
        config = json.loads(config_path.read_text())
        config["train"]["weight_dekay"] = 1.0
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["message"] == f"bad train config {config_path}"
        assert payload["items"] == ["unknown key 'train.weight_dekay'"]

    @pytest.mark.parametrize(
        "edit, items",
        [
            (
                lambda doc: doc["train"].update(epohcs=3, lr=0.1),
                ["unknown key 'train.epohcs'", "unknown key 'train.lr'"],
            ),
            (
                lambda doc: (doc["model"].update(d_modle=8), doc["train"].update(specaug={"n_time_mask": 1})),
                ["unknown key 'model.d_modle'", "unknown key 'train.specaug.n_time_mask'"],
            ),
        ],
        ids=["two_in_train", "model_and_specaug"],
    )
    def test_every_unknown_key_at_any_depth_is_an_item(self, tmp_path, capsys, edit, items):
        # `TrainConfig.from_dict` once named only the first unknown key, in a TypeError's message
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir)
        config = json.loads(config_path.read_text())
        edit(config)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "ValidationError", "message": f"bad train config {config_path}", "items": items}
        assert not (tmp_path / "o").exists()

    def test_max_len_one_exits_2_naming_max_len(self, tmp_path, capsys):
        # such a model could be trained but not captioned (no room for a word)
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir)
        config = json.loads(config_path.read_text())
        config["model"]["max_len"] = 1
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == ["max_len=1 must be an integer >= 2"]
        assert not (tmp_path / "o").exists()

    def test_val_caption_mode_is_an_unknown_key(self, tmp_path, capsys):
        # the validation loss always scores each audio's first caption; the
        # option that once chose another is gone, and a config naming it fails
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir)
        config = json.loads(config_path.read_text())
        config["train"]["val_caption_mode"] = "first"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["message"] == f"bad train config {config_path}"
        assert payload["items"] == ["unknown key 'train.val_caption_mode'"]
        assert not (tmp_path / "o").exists()

    def test_dim_mismatch_reported(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path, d_in=8)
        config_path = write_train_config(tmp_path, manifest, emb_dir)
        config = json.loads(config_path.read_text())
        config["model"]["d_in"] = 16
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "x")]) == 2
        assert "d_in" in json.loads(capsys.readouterr().err)["message"]


class TestEvalToyIdentity:
    def test_candidate_equals_reference_scores_ten(self, tmp_path, capsys):
        manifest, _ = write_corpus(tmp_path)
        captions_path = tmp_path / "captions.jsonl"
        rows = [
            {"audio_id": f"train{i:02d}", "language": "en",
             "caption": f"enm{i} enfa enfb enfc"}
            for i in range(6)
        ]
        captions_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", "utf-8")
        out = tmp_path / "eval"
        code = main([
            "eval", "--captions", str(captions_path), "--manifest", str(manifest),
            "--split", "train", "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "eval_report.json").read_text())
        assert report["scores"]["en"]["cider_d_raw"] == 10.0

    def test_malformed_caption_lines_exit_2_with_items(self, tmp_path, capsys):
        manifest, _ = write_corpus(tmp_path)
        good = {"audio_id": "train00", "language": "en", "caption": "enm0 enfa"}
        lines = [
            json.dumps(good),
            "[1, 2]",
            json.dumps(good | {"language": 5}),
            json.dumps(good | {"audio_id": ["a"]}),
            json.dumps(good | {"caption": 5}),
        ]
        captions_path = tmp_path / "captions.jsonl"
        captions_path.write_text("\n".join(lines) + "\n", "utf-8")
        for argv in (
            ["eval", "--manifest", str(manifest), "--split", "train", "--out", str(tmp_path / "e")],
            ["compare-langs", "--endpoint", "http://127.0.0.1:9/unused"],
        ):
            capsys.readouterr()
            assert main([*argv, "--captions", str(captions_path)]) == 2
            payload = json.loads(capsys.readouterr().err)
            assert payload["error"] == "ValidationError"
            assert payload["items"] == [
                "line 2: not a JSON object",
                "line 3: language must be a string",
                "line 4: audio_id must be a non-empty string",
                "line 5: caption must be a string",
            ]

    def test_repeated_caption_line_exit_2_names_both_lines(self, tmp_path, capsys):
        # a second caption for one (audio_id, language) would silently
        # replace the first, so eval would score one and drop the other
        manifest, _ = write_corpus(tmp_path)
        rows = [
            {"audio_id": "train00", "language": "en", "caption": "enm0 enfa"},
            {"audio_id": "train00", "language": "de", "caption": "dem0 defa"},
            {"audio_id": "train01", "language": "en", "caption": "enm1 enfa"},
            {"audio_id": "train00", "language": "EN", "caption": "enm0 enfb"},
        ]
        captions_path = tmp_path / "captions.jsonl"
        captions_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", "utf-8")
        code = main([
            "eval", "--captions", str(captions_path), "--manifest", str(manifest),
            "--split", "train", "--out", str(tmp_path / "e"),
        ])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == [
            "line 4: audio_id 'train00' in en repeats line 1"
        ]
        assert not (tmp_path / "e").exists()


class TestRawLineBreaksInJsonStrings:
    def test_caption_then_eval_over_a_clip_id_with_u2028(self, tmp_path, capsys):
        # json.dumps(ensure_ascii=False) writes U+2028, U+2029 and U+0085 raw;
        # they must not break a JSON-Lines record, in polycap's output or its input
        rng = np.random.default_rng(0)
        emb_dir = tmp_path / "emb"
        emb_dir.mkdir()
        rows = []
        for audio_id in ("rain\u2028on\u2029a\x85roof", "wind"):
            data = rng.normal(size=(5, 8)).astype(np.float32)
            write_embedding(emb_dir / f"{audio_id}.aemb", EmbeddingSequence(audio_id, data))
            rows.append({"audio_id": audio_id, "split": "test", "captions": {"en": ["a b\u2028a"]}})
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), "utf-8")
        checkpoint = tmp_path / "m.ackp"
        model = MultilingualModel(tiny_model_config(d_in=8), {Language.EN: word_vocab(["a", "b"])})
        save_checkpoint(model, checkpoint)
        assert main([
            "caption", "--checkpoint", str(checkpoint), "--embeddings-dir", str(emb_dir),
            "--max-len", "3", "--out", str(tmp_path / "c"),
        ]) == 0
        captions = tmp_path / "c" / "captions.jsonl"
        assert "\u2028" in captions.read_text("utf-8")
        assert main([
            "eval", "--captions", str(captions), "--manifest", str(manifest), "--out", str(tmp_path / "e"),
        ]) == 0
        report = json.loads((tmp_path / "e" / "eval_report.json").read_text("utf-8"))
        assert report["scores"]["en"]["n_items"] == 2


class TestParams:
    def test_default_vocab_sizes_table(self, tmp_path, capsys):
        out = tmp_path / "params"
        assert main(["params", "--out", str(out)]) == 0
        doc = json.loads((out / "params.json").read_text())
        multi = doc["multilingual"]
        assert multi["heads"]["en"]["classifier"] == 1_249_277
        assert multi["heads"]["de"]["classifier"] == 2_413_487
        assert doc["reduction_pct"] > 65.0
        printed = capsys.readouterr().out
        assert "size reduction" in printed

    def test_bad_vocab_spec(self, tmp_path):
        assert main(["params", "--vocab-sizes", "en=abc"]) == 2

    def test_unknown_codes_and_non_integer_sizes_are_all_itemized(self, capsys):
        # an unknown code or a non-integer size once stopped the parse at the
        # first such entry, so only 'xx' was reported here
        assert main(["params", "--vocab-sizes", "xx=5,yy=6,en=abc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "ValidationError"
        assert payload["message"] == "bad vocab sizes"
        assert payload["items"] == [
            "xx=5: unknown language code 'xx' (known: en, fr, es, de)",
            "yy=6: unknown language code 'yy' (known: en, fr, es, de)",
            "en=abc: size 'abc' is not an integer",
        ]

    def test_too_small_or_repeated_vocab_sizes_exit_2_with_items(self, capsys):
        assert main(["params", "--vocab-sizes", "en=-5,en=7,fr=3,de=4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == [
            "en=-5: fewer than the 4 special tokens",
            "en=7: language 'en' given twice",
            "fr=3: fewer than the 4 special tokens",
        ]

    @pytest.mark.parametrize(
        "model, item",
        [
            ({"n_heads": 0}, "n_heads=0 must be an integer >= 1"),
            ({"d_ff": 2048.5}, "d_ff=2048.5 must be an integer >= 1"),
            ({"d_model": 256.0}, "d_model=256.0 must be an integer >= 1"),
        ],
        ids=["zero_heads", "fractional_d_ff", "float_d_model"],
    )
    def test_bad_model_dimension_exits_2_with_items(self, tmp_path, capsys, model, item):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert main(["params", "--config", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == [item]

    def test_every_unknown_key_exits_2_as_an_item(self, tmp_path, capsys):
        # `ModelConfig.from_dict` once named only the first, in a TypeError's message
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"d_modle": 16, "n_heads": 2, "layers": 3}), encoding="utf-8")
        assert main(["params", "--config", str(path)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {
            "error": "ValidationError", "message": "bad model config",
            "items": ["unknown key 'd_modle'", "unknown key 'layers'"],
        }


class _Handler(BaseHTTPRequestHandler):
    table = {
        "rain falls": [1.0, 0.0],
        "la pluie tombe": [0.6, 0.8],
    }

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        vectors = [self.table.get(t, [0.0, 1.0]) for t in body["texts"]]
        payload = json.dumps({"vectors": vectors}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def embed_endpoint():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()


class TestCompareLangs:
    def test_cross_language_table(self, tmp_path, capsys, embed_endpoint):
        captions_path = tmp_path / "captions.jsonl"
        rows = [
            {"audio_id": "a", "language": "en", "caption": "rain falls"},
            {"audio_id": "a", "language": "fr", "caption": "la pluie tombe"},
        ]
        captions_path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", "utf-8")
        out = tmp_path / "cmp"
        code = main([
            "compare-langs", "--captions", str(captions_path), "--base", "en",
            "--endpoint", embed_endpoint, "--out", str(out),
        ])
        assert code == 0
        doc = json.loads((out / "cross_language.json").read_text())
        assert doc["similarity_pct"]["fr"] == pytest.approx(60.0)
        assert doc["similarity_pct"]["en"] == pytest.approx(100.0)


def command_argv(command: str, root: Path, endpoint: str) -> list[str]:
    """Valid arguments, --out aside, for `command` over a tiny corpus in root."""
    manifest, emb_dir = write_corpus(root)
    captions = root / "captions.jsonl"
    rows = [
        {"audio_id": audio_id, "language": lang, "caption": caption}
        for audio_id in ("test00", "test01")
        for lang, caption in (("en", "rain falls"), ("fr", "la pluie tombe"))
    ]
    captions.write_text("\n".join(json.dumps(r) for r in rows) + "\n", "utf-8")
    checkpoint = root / "m.ackp"
    save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), {Language.EN: word_vocab(["a", "b"])}), checkpoint)
    return {
        "prepare": ["--manifest", str(manifest), "--embeddings-dir", str(emb_dir), "--languages", "en,fr"],
        "stats": ["--manifest", str(manifest), "--languages", "en,fr"],
        "train": ["--config", str(write_train_config(root, manifest, emb_dir, epochs=1))],
        "caption": ["--checkpoint", str(checkpoint), "--embeddings-dir", str(emb_dir), "--max-len", "3"],
        "eval": ["--captions", str(captions), "--manifest", str(manifest)],
        "params": [],
        "compare-langs": ["--captions", str(captions), "--endpoint", endpoint],
    }[command]


class TestManifestCommand:
    """`main` writes each run manifest under the subcommand's own name, and
    only for a command that wrote outputs."""

    @pytest.mark.parametrize("command", ["prepare", "stats", "train", "caption", "eval", "params", "compare-langs"])
    def test_manifest_names_its_command(self, command, tmp_path, embed_endpoint, capsys):
        out = tmp_path / "out"
        assert main([command, *command_argv(command, tmp_path, embed_endpoint), "--out", str(out)]) == 0
        assert json.loads((out / "run_manifest.json").read_text())["command"] == command

    @pytest.mark.parametrize(
        "command, option, first, second",
        [
            ("prepare", "--languages", "en,fr", "en"),
            ("stats", "--languages", "en,fr", "en"),
            ("params", "--vocab-sizes", "en=10,fr=12", "en=10,fr=13"),
            ("eval", "--sbert-endpoint", "{endpoint}", "{endpoint}/v2"),
            ("eval", "--sbert-aggregate", "mean", "max"),
            ("compare-langs", "--endpoint", "{endpoint}", "{endpoint}/v2"),
        ],
    )
    def test_config_records_every_option_the_outputs_depend_on(
        self, command, option, first, second, tmp_path, embed_endpoint, capsys
    ):
        # two runs that differ only in `option`: a flag given last overrides
        # the one command_argv gives (the embedding server ignores the path)
        argv = [command, *command_argv(command, tmp_path, embed_endpoint)]
        if command == "eval":
            argv += ["--sbert-endpoint", embed_endpoint]
        configs = []
        for run, value in enumerate((first, second)):
            out = tmp_path / f"out{run}"
            assert main([*argv, option, value.format(endpoint=embed_endpoint), "--out", str(out)]) == 0
            configs.append(json.loads((out / "run_manifest.json").read_text())["config"])
        assert configs[0] != configs[1]

    @pytest.mark.parametrize("key, first, second", [("min_count", 1, 2), ("val_split", None, "test")])
    def test_train_records_min_count_and_splits(self, key, first, second, tmp_path, capsys):
        # the vocabularies, checkpoint and metrics depend on them; runs that
        # differed only in one of them once wrote equal config blocks
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        doc = json.loads(config_path.read_text())
        configs = []
        for run, value in enumerate((first, second)):
            (doc["data"] if key == "val_split" else doc)[key] = value
            config_path.write_text(json.dumps(doc), encoding="utf-8")
            out = tmp_path / f"out{run}"
            assert main(["train", "--config", str(config_path), "--out", str(out)]) == 0
            configs.append(json.loads((out / "run_manifest.json").read_text())["config"])
        assert configs[0] != configs[1]
        # the data paths are not recorded: resolved, they name the machine; the input digests cover the files
        assert configs[0]["data"] == {"train_split": "train", "val_split": None}
        assert sorted(configs[0]) == ["data", "languages", "min_count", "model", "train"]

    def test_seed_flag_trains_as_the_config_seed(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        flagged = write_train_config(tmp_path, manifest, emb_dir, epochs=2, seed=7)
        assert main(["train", "--config", str(flagged), "--seed", "5", "--out", str(tmp_path / "flag")]) == 0
        configured = write_train_config(tmp_path, manifest, emb_dir, epochs=2, seed=5)
        assert main(["train", "--config", str(configured), "--out", str(tmp_path / "conf")]) == 0
        flag, conf = (tmp_path / "flag", tmp_path / "conf")
        assert (flag / "checkpoint.ackp").read_bytes() == (conf / "checkpoint.ackp").read_bytes()
        record = json.loads((flag / "run_manifest.json").read_text())
        assert record["seed"] == 5 and record["config"]["train"]["seed"] == 5

    @pytest.mark.parametrize("command", ["stats", "params", "compare-langs"])
    def test_no_out_writes_no_manifest(self, command, tmp_path, embed_endpoint, monkeypatch, capsys):
        argv = [command, *command_argv(command, tmp_path, embed_endpoint)]
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert main(argv) == 0
        assert capsys.readouterr().out
        assert sorted(tmp_path.rglob("*")) == before


class TestUnreadableInputs:
    @pytest.mark.parametrize("command", ["eval", "stats", "prepare", "params"])
    def test_missing_or_bad_input_file_exits_2(self, command, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        nope = str(tmp_path / "nope.jsonl")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        out = ["--out", str(tmp_path / "o")]
        argv = {
            "eval": ["--captions", nope, "--manifest", str(manifest), *out],
            "stats": ["--manifest", nope, "--languages", "en"],
            "prepare": ["--manifest", nope, "--embeddings-dir", str(emb_dir), "--languages", "en", *out],
            "params": ["--config", str(bad)],
        }[command]
        assert main([command, *argv]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert (str(bad) if command == "params" else nope) in payload["message"]


class TestOutputDirectory:
    """`--out` is made only once a command's inputs have validated, and an
    `--out` that cannot be a directory is itself a validation failure."""

    @pytest.mark.parametrize("case", ["prepare_no_manifest", "train_no_manifest", "train_bad_dims", "caption_headless"])
    def test_failed_validation_leaves_no_out(self, case, tmp_path, capsys):
        # prepare and train once made --out first; a val split's dim was
        # never checked, so train ran an epoch and then failed with exit 3;
        # a headless caption language failed alone, after --out was made
        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        doc = json.loads(config.read_text())
        vocabs = {Language.EN: word_vocab(["a"]), Language.FR: word_vocab(["b"])}
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), vocabs), tmp_path / "m.ackp")
        nope = tmp_path / "nope.jsonl"
        if case == "train_no_manifest":
            doc["data"]["manifest"] = nope.name
        if case == "train_bad_dims":
            doc["data"]["val_split"] = "test"
            for path in emb_dir.glob("*.aemb"):
                dim = 16 if path.stem.startswith("train") else 5
                write_embedding(path, EmbeddingSequence(path.stem, np.ones((3, dim), dtype=np.float32)))
        config.write_text(json.dumps(doc), encoding="utf-8")
        argv, message, items = {
            "prepare_no_manifest": (
                ["prepare", "--manifest", str(nope), "--embeddings-dir", str(emb_dir), "--languages", "en"],
                f"cannot read manifest {nope}: ",
                None,
            ),
            "train_no_manifest": (["train", "--config", str(config)], f"cannot read manifest {nope}: ", None),
            "train_bad_dims": (
                ["train", "--config", str(config)],
                "embedding dims do not match model d_in 8",
                ["split 'train': embedding dim 16", "split 'test': embedding dim 5"],
            ),
            "caption_headless": (
                ["caption", "--checkpoint", str(tmp_path / "m.ackp"), "--embeddings-dir", str(emb_dir),
                 "--languages", "de,es,en"],
                f"--languages: not all in checkpoint {tmp_path / 'm.ackp'}",
                ["no head for language 'de'", "no head for language 'es'"],
            ),
        }[case]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["message"].startswith(message)
        assert payload.get("items") == items
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["prepare", "stats"])
    def test_out_that_cannot_be_a_directory_exits_2(self, command, tmp_path, capsys):
        # once exit 3 with a raw FileExistsError or NotADirectoryError
        manifest, emb_dir = write_corpus(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("kept", encoding="utf-8")
        out, argv, reason = {
            "prepare": (afile, ["--manifest", str(manifest), "--embeddings-dir", str(emb_dir)], "File exists"),
            "stats": (afile / "sub", ["--manifest", str(manifest)], "Not a directory"),
        }[command]
        assert main([command, *argv, "--languages", "en", "--out", str(out)]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "ValidationError", "message": f"cannot create output directory {out} ({reason})"}
        assert afile.read_text(encoding="utf-8") == "kept"


class TestCliSurface:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0

    def test_unknown_command_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["frobnicate"])
        assert exit_info.value.code == 2

    def test_train_requires_out(self, tmp_path, capsys):
        # once an undocumented config key, `out_dir`, or "run" under the working directory
        manifest, emb_dir = write_corpus(tmp_path)
        config_path = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        with pytest.raises(SystemExit) as exit_info:
            main(["train", "--config", str(config_path)])
        assert exit_info.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err

    def test_unexpected_failure_is_exit_3(self, tmp_path, capsys, monkeypatch):
        _, emb_dir = write_corpus(tmp_path)
        vocabs = {Language.EN: word_vocab(["enfa", "enfb"])}
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), vocabs), tmp_path / "m.ackp")

        def broken(*args, **kwargs):
            raise RuntimeError("decoder fault")

        monkeypatch.setattr(decoding, "caption_clip", broken)
        code = main([
            "caption", "--checkpoint", str(tmp_path / "m.ackp"), "--embeddings-dir", str(emb_dir),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert json.loads(capsys.readouterr().err) == {"error": "RuntimeError", "message": "decoder fault"}

    def test_non_finite_length_norm_exits_2(self, tmp_path, capsys):
        _, emb_dir = write_corpus(tmp_path)
        vocabs = {Language.EN: word_vocab(["enfa", "enfb"])}
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), vocabs), tmp_path / "m.ackp")
        code = main([
            "caption", "--checkpoint", str(tmp_path / "m.ackp"), "--embeddings-dir", str(emb_dir),
            "--length-norm", "nan", "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == ["length_norm=nan must be a finite number"]
        assert not (tmp_path / "o" / "captions.jsonl").exists()

    @pytest.mark.parametrize("checkpoint", ["nope.ackp", "."], ids=["missing", "directory"])
    def test_unreadable_checkpoint_exits_2(self, tmp_path, capsys, checkpoint):
        code = main([
            "caption", "--checkpoint", str(tmp_path / checkpoint), "--embeddings-dir", str(tmp_path),
            "--out", str(tmp_path / "o"),
        ])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["message"].startswith("cannot read checkpoint")

    @pytest.mark.parametrize(
        "edit, items",
        [
            (
                lambda meta: meta["vocabs"]["en"].update(tokens=[*SPECIAL_TOKENS, 5, 7.5]),
                ["vocabs.en: vocabulary tokens must be strings", "vocabs.en: token 4: 5", "vocabs.en: token 5: 7.5"],
            ),
            (
                lambda meta: meta["vocabs"]["en"].update(tokens=[*SPECIAL_TOKENS, "a", "a"]),
                ["vocabs.en: vocabulary contains duplicate tokens"],
            ),
            (
                lambda meta: meta["vocabs"].update(xx=meta["vocabs"]["en"]),
                ["vocabs.xx: unknown language code 'xx' (known: en, fr, es, de)"],
            ),
            (
                lambda meta: meta["model_config"].update(d_model=0),
                ["model_config: bad model config", "model_config: d_model=0 must be an integer >= 1"],
            ),
            (
                lambda meta: meta["model_config"].update(d_modle=8),
                ["model_config: bad model config", "model_config: unknown key 'd_modle'"],
            ),
            # `EN` once replaced `en`: sizes 6 and 7 failed later on a tensor
            # shape, equal sizes loaded silently
            (
                lambda meta: meta["vocabs"].update(
                    EN=dict(meta["vocabs"]["en"], tokens=[*meta["vocabs"]["en"]["tokens"], "c"])
                ),
                ["vocabs: 'en' is listed 2 times"],
            ),
            (
                lambda meta: meta["vocabs"].update(EN=meta["vocabs"]["en"]),
                ["vocabs: 'en' is listed 2 times"],
            ),
        ],
        ids=[
            "non_string_token", "duplicate_token", "unknown_language", "zero_d_model", "unknown_model_key",
            "repeated_language_other_size", "repeated_language_same_size",
        ],
    )
    def test_bad_checkpoint_meta_exits_2_naming_the_file(self, tmp_path, capsys, edit, items):
        # each once exited 2 with the bare message of the part at fault, naming
        # neither the file nor the part; non-string tokens before that loaded,
        # and caption failed with a raw TypeError (exit 3) when it joined a
        # decoded caption's words
        _, emb_dir = write_corpus(tmp_path)
        path = tmp_path / "m.ackp"
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), {Language.EN: word_vocab(["a", "b"])}), path)
        rewrite_meta(path, edit)
        code = main(["caption", "--checkpoint", str(path), "--embeddings-dir", str(emb_dir), "--out", str(tmp_path / "o")])
        assert code == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["message"] == f"{path}: bad checkpoint metadata"
        assert payload["items"] == items
        assert not (tmp_path / "o").exists()


class TestOversizedJsonIntegers:
    """A JSON integer past Python's 4,300-digit string limit raises a plain
    ValueError, not a JSONDecodeError; each reader of outside JSON once let
    it out as a raw exception (exit 3)."""

    HUGE = "1" * 5000

    def test_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "train.json"
        path.write_text(f'{{"languages": ["en"], "seed": {self.HUGE}}}', "utf-8")
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["message"].startswith(f"cannot read config {path}: Exceeds the limit")

    def test_manifest_exits_2_naming_the_line(self, tmp_path, capsys):
        manifest, _ = write_corpus(tmp_path)
        lines = manifest.read_text("utf-8").splitlines()
        manifest.write_text("\n".join([lines[0], f'{{"audio_id": {self.HUGE}}}', *lines[1:]]) + "\n", "utf-8")
        assert main(["stats", "--manifest", str(manifest), "--languages", "en"]) == 2
        [item] = json.loads(capsys.readouterr().err)["items"]
        assert item.startswith("line 2: invalid JSON (Exceeds the limit")

    def test_captions_file_exits_2_naming_the_line(self, tmp_path, capsys):
        manifest, _ = write_corpus(tmp_path)
        captions_path = tmp_path / "captions.jsonl"
        captions_path.write_text(f'{{"audio_id": "train00", "language": "en", "caption": {self.HUGE}}}\n', "utf-8")
        argv = ["eval", "--captions", str(captions_path), "--manifest", str(manifest), "--split", "train"]
        assert main([*argv, "--out", str(tmp_path / "e")]) == 2
        [item] = json.loads(capsys.readouterr().err)["items"]
        assert item.startswith("line 1: invalid JSON (Exceeds the limit")

    def test_checkpoint_meta_exits_2_naming_the_file(self, tmp_path, capsys):
        _, emb_dir = write_corpus(tmp_path)
        path = tmp_path / "m.ackp"
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), {Language.EN: word_vocab(["a", "b"])}), path)
        raw = path.read_bytes()
        meta_end = 12 + int.from_bytes(raw[8:12], "little")
        meta_bytes = raw[12 : meta_end - 1] + f', "x": {self.HUGE}}}'.encode()
        path.write_bytes(splice_meta(raw, meta_bytes))
        code = main(["caption", "--checkpoint", str(path), "--embeddings-dir", str(emb_dir), "--out", str(tmp_path / "o")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["message"].startswith(f"{path}: bad checkpoint metadata (ValueError(")


class TestRepeatedJsonKeys:
    """Every reader of outside JSON reports a key repeated within one object;
    a plain `json.loads` keeps the last of the two, silently."""

    def test_manifest_exits_2_naming_each_key_and_line(self, tmp_path, capsys):
        # line 2 once loaded as clip 'c' with only the caption "y", and line 3 without its English captions
        manifest, _ = write_corpus(tmp_path)
        lines = manifest.read_text("utf-8").splitlines()
        extra = [
            '{"audio_id": "b", "audio_id": "c", "split": "train", "captions": {"en": ["x"], "en": ["y"]}}',
            '{"audio_id": "d", "split": "train", "captions": {"en": ["x"]}, "captions": {"fr": ["y"]}}',
        ]
        manifest.write_text("\n".join([lines[0], *extra, *lines[1:]]) + "\n", "utf-8")
        assert main(["stats", "--manifest", str(manifest), "--languages", "en"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["message"] == f"manifest {manifest} failed validation"
        assert payload["items"] == [
            "line 2: repeated key 'en'", "line 2: repeated key 'audio_id'", "line 3: repeated key 'captions'"
        ]

    @pytest.mark.parametrize("where", ["manifest", "config"])
    def test_key_repeated_only_in_a_nested_object_exits_2(self, where, tmp_path, capsys):
        # the keys are counted only when an object's dict comes out shorter
        # than its pairs; the outer objects here repeat nothing
        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        if where == "manifest":
            lines = manifest.read_text("utf-8").splitlines()
            line = '{"audio_id": "b", "split": "train", "captions": {"en": ["x"], "fr": ["y"], "en": ["z"]}}'
            manifest.write_text("\n".join([lines[0], line, *lines[1:]]) + "\n", "utf-8")
            argv = ["stats", "--manifest", str(manifest), "--languages", "en"]
            message, items = f"manifest {manifest} failed validation", ["line 2: repeated key 'en'"]
        else:
            text = config.read_text()
            config.write_text(text.replace('"specaug": null', '"specaug": {"n_time_masks": 1, "n_time_masks": 2}'))
            argv = ["train", "--config", str(config)]
            message, items = f"config {config} repeats keys", ["repeated key 'n_time_masks'"]
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ValidationError", "message": message, "items": items}
        assert not (tmp_path / "o").exists()

    def test_captions_file_exits_2_naming_the_line(self, tmp_path, capsys):
        manifest, _ = write_corpus(tmp_path)
        captions_path = tmp_path / "captions.jsonl"
        captions_path.write_text('{"audio_id": "train00", "language": "en", "caption": "a", "caption": "b"}\n', "utf-8")
        argv = ["eval", "--captions", str(captions_path), "--manifest", str(manifest), "--split", "train"]
        assert main([*argv, "--out", str(tmp_path / "e")]) == 2
        assert json.loads(capsys.readouterr().err)["items"] == ["line 1: repeated key 'caption'"]
        assert not (tmp_path / "e").exists()

    def test_checkpoint_meta_exits_2_naming_the_key(self, tmp_path, capsys):
        _, emb_dir = write_corpus(tmp_path)
        path = tmp_path / "m.ackp"
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), {Language.EN: word_vocab(["a", "b"])}), path)
        raw = path.read_bytes()
        meta_end = 12 + int.from_bytes(raw[8:12], "little")
        meta_bytes = raw[12 : meta_end - 1] + b', "languages": ["en"]}'
        path.write_bytes(splice_meta(raw, meta_bytes))
        argv = ["caption", "--checkpoint", str(path), "--embeddings-dir", str(emb_dir), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["message"] == f"{path}: bad checkpoint metadata"
        assert payload["items"] == ["repeated key 'languages'"]


class TestRepeatedLanguages:
    """A language listed twice would train every (audio, language) pair
    twice per epoch, or write every caption twice."""

    @pytest.mark.parametrize("command", ["prepare", "stats", "caption"])
    def test_repeated_language_flag_exits_2_with_items(self, command, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        vocabs = {Language.EN: word_vocab(["enfa", "enfb"])}
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), vocabs), tmp_path / "m.ackp")
        out = ["--out", str(tmp_path / "o")]
        argv = {
            "prepare": ["--manifest", str(manifest), "--embeddings-dir", str(emb_dir), *out],
            "stats": ["--manifest", str(manifest)],
            "caption": ["--checkpoint", str(tmp_path / "m.ackp"), "--embeddings-dir", str(emb_dir), *out],
        }[command]
        assert main([command, *argv, "--languages", "en,fr,EN"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == ["'en' is listed 2 times"]
        assert not (tmp_path / "o").exists()

    def test_repeated_language_in_train_config_exits_2_with_items(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        doc = json.loads(config.read_text()) | {"languages": ["en", "fr", "en", "fr", "en"]}
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == ["'en' is listed 3 times", "'fr' is listed 2 times"]
        assert not (tmp_path / "run").exists()


class TestLanguageLists:
    """Every unknown code of a language list is its own item, not just the
    first one; an empty list is an error for every command that takes one."""

    UNKNOWN = [f"unknown language code {c!r} (known: en, fr, es, de)" for c in ("xx", "yy")]

    def test_unknown_codes_in_flag_exit_2_with_items(self, tmp_path, capsys):
        manifest, _ = write_corpus(tmp_path)
        assert main(["stats", "--manifest", str(manifest), "--languages", "en,xx,yy"]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == self.UNKNOWN

    def test_unknown_codes_in_train_config_exit_2_with_items(self, tmp_path, capsys):
        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        doc = json.loads(config.read_text()) | {"languages": ["en", "xx", "yy"]}
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["train", "--config", str(config), "--out", str(tmp_path / "run")]) == 2
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValidationError"
        assert payload["items"] == self.UNKNOWN
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("spec", ["", ","])
    def test_empty_caption_language_flag_exits_2(self, spec, tmp_path, capsys):
        # an empty flag once captioned every language of the checkpoint
        _, emb_dir = write_corpus(tmp_path)
        vocabs = {Language.EN: word_vocab(["a"])}
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), vocabs), tmp_path / "m.ackp")
        argv = ["--checkpoint", str(tmp_path / "m.ackp"), "--embeddings-dir", str(emb_dir), "--languages", spec]
        assert main(["caption", *argv, "--out", str(tmp_path / "o")]) == 2
        assert json.loads(capsys.readouterr().err)["message"] == "--languages: empty language list"
        assert not (tmp_path / "o").exists()


def run_module(*argv: str, cwd: Path, args=("-m", "polycap"), env=(), **kwargs) -> subprocess.CompletedProcess:
    """`python -m polycap ARGV` (or `python ARGS ARGV`) in a fresh
    interpreter that imports this checkout's polycap, with the variables of
    `env` added to this process's environment."""
    src = str(Path(polycap.__file__).resolve().parent.parent)
    env = dict(os.environ, **dict(env), PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *args, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=120, **kwargs
    )


def run_capped_main(*argv: str, cwd: Path, cap: int = 2 << 30) -> tuple[subprocess.CompletedProcess, dict]:
    """`polycap.cli.main(ARGV)` in a fresh interpreter under a `cap`-byte
    address-space limit, so a regression that allocates fails here instead of
    taking the machine's memory. Returns the process and main's exit code and
    seconds, imports not counted."""
    timed_main = (
        "import json, sys, time\n"
        "from polycap.cli import main\n"
        "t0 = time.monotonic()\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps({'code': code, 'seconds': time.monotonic() - t0}))\n"
    )
    proc = run_module(
        *argv, cwd=cwd, args=("-c", timed_main),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(proc.stdout.splitlines()[-1])


class TestModuleEntryPoint:
    def test_python_dash_m_prints_the_version(self, tmp_path):
        proc = run_module("--version", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == f"polycap {polycap.__version__}"

    def test_overflowing_run_writes_only_the_json_error(self, tmp_path):
        # lr0 1e300 overflows the weights on the first update; numpy's
        # RuntimeWarnings must not reach stderr ahead of the JSON error
        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir, epochs=2)
        doc = json.loads(config.read_text())
        doc["train"]["lr0"] = 1e300
        config.write_text(json.dumps(doc), encoding="utf-8")
        proc = run_module("train", "--config", str(config), "--out", str(tmp_path / "run"), cwd=tmp_path)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        payload = json.loads(lines[0])
        assert payload["error"] == "RuntimeFailure"
        assert payload["message"].startswith("non-finite training loss")

    def test_checkpoint_meta_its_file_cannot_back_exits_2_fast(self, tmp_path):
        # a 10 kB file whose meta says d_model 10^9 once allocated 44.7 GiB
        # of weights before reading a tensor. The child runs under a 2 GiB
        # address-space cap, so a regression fails here instead of taking
        # the machine's memory.
        path = tmp_path / "m.ackp"
        vocabs = {Language.EN: word_vocab([f"w{i}" for i in range(20)])}
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), vocabs), path)
        rewrite_meta(path, lambda meta: meta["model_config"].update(d_model=10**9))
        assert path.stat().st_size < 15_000
        proc, result = run_capped_main(
            "caption", "--checkpoint", str(path), "--embeddings-dir", str(tmp_path),
            "--out", str(tmp_path / "o"), cwd=tmp_path,
        )
        assert result["code"] == 2, proc.stderr
        assert result["seconds"] < 1.0
        payload = json.loads(proc.stderr)
        assert payload["error"] == "ValidationError"
        assert "bytes follow it" in payload["message"]
        assert not (tmp_path / "o").exists()

    def test_checkpoint_with_a_huge_max_len_captions_fast(self, tmp_path):
        # max_len only bounds positions; a valid checkpoint whose meta says
        # 10^8 once made the loader fill a 10^8 x d_model positional table.
        # Under a 2 GiB address-space cap it now loads and captions at once.
        manifest, emb_dir = write_corpus(tmp_path)
        path = tmp_path / "m.ackp"
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), {Language.EN: word_vocab(["a", "b"])}), path)
        rewrite_meta(path, lambda meta: meta["model_config"].update(max_len=10**8))
        proc, result = run_capped_main(
            "caption", "--checkpoint", str(path), "--embeddings-dir", str(emb_dir),
            "--beam-size", "2", "--max-len", "4", "--out", str(tmp_path / "o"), cwd=tmp_path,
        )
        assert result["code"] == 0, proc.stderr
        assert result["seconds"] < 1.0
        lines = (tmp_path / "o" / "captions.jsonl").read_text().splitlines()
        assert len(lines) == len(list(emb_dir.iterdir()))

    @pytest.mark.parametrize("n_words, code", [(20, 2), (2, 0)], ids=["refused", "bounded_by_the_vocabulary"])
    def test_huge_beam_exits_2_fast_unless_the_vocabulary_bounds_it(self, tmp_path, n_words, code):
        # beam 200000 on a default-size checkpoint once exited 3 with a raw
        # MemoryError for a (200000, 2, 256) cache array. 20 words can fill
        # 10^12 rows; 2 words fill at most 2^9 in the 9 words max_len 10 allows.
        _, emb_dir = write_corpus(tmp_path)
        path = tmp_path / "m.ackp"
        vocabs = {Language.EN: word_vocab([f"w{i}" for i in range(n_words)])}
        save_checkpoint(MultilingualModel(tiny_model_config(d_in=8), vocabs), path)
        proc, result = run_capped_main(
            "caption", "--checkpoint", str(path), "--embeddings-dir", str(emb_dir),
            "--beam-size", str(10**12), "--out", str(tmp_path / "o"), cwd=tmp_path,
        )
        assert result["code"] == code, proc.stderr
        assert result["seconds"] < 1.0
        if code == 2:
            payload = json.loads(proc.stderr)
            assert payload["message"] == "bad decoding config"
            [item] = payload["items"]
            assert item.startswith(f"beam_size={10**12}: a decode round needs about ")
            assert not (tmp_path / "o").exists()  # refused before any clip, so before --out

    def test_model_too_big_to_train_exits_2_fast(self, tmp_path):
        # a d_ff typo once reached MultilingualModel, which draws every weight
        manifest, emb_dir = write_corpus(tmp_path)
        config = write_train_config(tmp_path, manifest, emb_dir, epochs=1)
        doc = json.loads(config.read_text())
        doc["model"]["d_ff"] = 10**12
        config.write_text(json.dumps(doc), encoding="utf-8")
        proc, result = run_capped_main("train", "--config", str(config), "--out", str(tmp_path / "run"), cwd=tmp_path)
        assert result["code"] == 2, proc.stderr
        assert result["seconds"] < 1.0
        payload = json.loads(proc.stderr)
        assert payload["message"] == "bad model config"
        [item] = payload["items"]
        assert " trainable parameters need about " in item and "physical memory" in item
        assert not (tmp_path / "run" / "checkpoint.ackp").exists()


class TestScipySpecialImport:
    # GELU's erf is the package's one use of scipy.special, whose import
    # costs a process about 0.25 s and a second BLAS thread pool; only a
    # command that builds a model loads it
    CHILD = (
        "import json, sys\n"
        "from polycap.cli import main\n"
        "loaded = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    loaded.append('scipy.special' in sys.modules)\n"
        "print(json.dumps(loaded))\n"
    )

    def test_only_train_and_caption_load_it(self, tmp_path):
        golden = Path(__file__).resolve().parent / "golden"
        shutil.copytree(golden / "emb", tmp_path / "emb")
        for name in ("manifest.jsonl", "train.json"):
            shutil.copy(golden / name, tmp_path / name)
        with (tmp_path / "captions.jsonl").open("w", encoding="utf-8") as f:
            for audio_id in ("clip07", "clip08", "clip09"):
                for code in ("en", "fr"):
                    f.write(json.dumps({"audio_id": audio_id, "language": code, "caption": "un chien"}) + "\n")
        steps = [
            ["prepare", "--manifest", "manifest.jsonl", "--embeddings-dir", "emb", "--languages", "en,fr",
             "--out", "prepare"],
            ["stats", "--manifest", "manifest.jsonl", "--languages", "en,fr", "--split", "train"],
            ["eval", "--captions", "captions.jsonl", "--manifest", "manifest.jsonl", "--split", "test",
             "--out", "eval"],
            ["params", "--vocab-sizes", "en=40,fr=50"],
            ["train", "--config", "train.json", "--out", "train"],
        ]
        proc = run_module(
            json.dumps(steps), cwd=tmp_path, args=("-c", self.CHILD), env={"OPENBLAS_NUM_THREADS": "1"}
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False, False, True]


class TestTrainConfigSchema:
    """The README's training-config example names every field of the config
    dataclasses, at every depth, so a field added to the schema is
    documented with it."""

    def test_readme_example_names_the_whole_schema(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
        example = readme.split("### Training config\n", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "run.json"
        path.write_text(example, "utf-8")
        run = _load_train_config(path)  # reads no file the config names: none exists here
        root = tmp_path.resolve()
        assert (run.data.manifest, run.data.embeddings_dir) == (root / "manifest.jsonl", root / "emb")
        assert (run.model, run.train, run.min_count) == (ModelConfig(), TrainConfig(), 1)  # the defaults, as it says
        doc = json.loads(example)
        for obj, config_cls in (
            (doc, TrainRun),
            (doc["data"], TrainData),
            (doc["model"], ModelConfig),
            (doc["train"], TrainConfig),
            (doc["train"]["specaug"], SpecAugmentConfig),
        ):
            assert sorted(obj) == sorted(f.name for f in fields(config_cls)), config_cls.__name__
