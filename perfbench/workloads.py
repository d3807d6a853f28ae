"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. A workload is driven in blocks (a train
epoch, one captioned clip, one prepare/eval/checkpoint cycle), so every block
has the same mix of work and runs can be compared block for block.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from polycap import autodiff as ad
from polycap import cli, corpus, evaluation, training
from polycap import model as model_mod
from polycap.text import SPECIAL_TOKENS, load_stopwords, tokenize

import inputs
from inputs import LANGUAGES, MODEL_SEED

LANG_ARG = ",".join(l.value for l in LANGUAGES)
RESCORE_TOL = 1e-9
ORACLE_TOL = 1e-6


@dataclass
class Outcome:
    """Checked operations: steps, captions, scored items, ingested clips,
    checkpoint saves and loads."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, n: int, what: str) -> bool:
        self.attempted += n
        if not ok:
            self.failed += n
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok


@dataclass
class Op:
    seconds: float
    units: int  # work units completed: pairs, captions or clips
    parts: dict[str, float] = field(default_factory=dict)


def traced(tracer, request: str, name: str, fn, *args):
    """fn(*args); given a tracer, inside a span named `name` and with every
    polycap entry point wrapped for just this call, so that the checks run
    around it stay out of the trace."""
    if tracer is None:
        return fn(*args)
    tracer.request = request
    tracer.install()
    try:
        return tracer.call(name, fn, *args)
    finally:
        tracer.uninstall()


def run_cli(argv: list[str], tracer=None, request: str = "-") -> tuple[int, str]:
    """polycap.cli.main in-process; returns the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = traced(tracer, request, f"cli.{argv[0]}", cli.main, argv)
    return code, err.getvalue().strip()


def load_oracles(root: Path):
    path = root / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("polycap_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Workload:
    name = ""
    unit = ""  # what work_per_s counts
    op = ""  # what op_p50_s times

    def __init__(self, scale: inputs.Scale, seed: int, work: Path, root: Path):
        self.scale = scale
        self.seed = seed
        self.work = work
        self.root = root
        self.outcome = Outcome()
        self.input_files: list[Path] = []

    def setup(self) -> None:
        """Generate inputs, write files, build models; timed and repeated."""
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def block(self, tracer) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that run once, after the measured window."""

    def details(self, ops: list[Op]) -> dict:
        """Named per-workload metrics: name -> (value, unit)."""
        raise NotImplementedError

    def input_digest(self) -> str:
        return inputs.digest_files(self.input_files)

    def trace_ops(self, ops: list[Op]) -> int:
        """How many operations the per-layer numbers are divided by."""
        return len(ops)


# -- train ---------------------------------------------------------------------


class Train(Workload):
    """Trainer steps over a generated corpus with the full recipe."""

    name = "train"
    unit = "(audio, language) training pairs"
    op = "one training step of a batch"
    epochs = 100  # cosine schedule length; the window covers the first epochs
    checked_steps = 2

    def setup(self) -> None:
        self.trainer = None
        gc.collect()
        s = self.scale
        self.vocabs = inputs.vocabularies(s)
        gen = inputs.Generator(s, self.seed, self.vocabs)
        ids = [f"clip{i:04d}" for i in range(s.train_clips)]
        clips = gen.clips(s.train_clips)
        # one longest caption per language fixes every batch's padded length
        captions = {a: {lang: [gen.caption(lang, longest=a == ids[0])] for lang in LANGUAGES} for a in ids}
        emb = self.work / "emb"
        inputs.write_clips(emb, ids, clips)
        manifest = self.work / "manifest.jsonl"
        inputs.write_manifest(manifest, "train", captions)
        self.input_files = [manifest, *(emb / f"{a}.aemb" for a in ids)]
        self.trainer = self._trainer()
        self.epoch = 0
        self.losses: list[float] = []

    def _trainer(self) -> training.Trainer:
        index = corpus.CorpusIndex.from_paths(
            self.work / "manifest.jsonl", self.work / "emb", "train", LANGUAGES
        )
        model = model_mod.MultilingualModel(self.scale.model, self.vocabs, seed=self.seed)
        cfg = training.TrainConfig(epochs=self.epochs, batch_size=self.scale.batch_size, seed=self.seed)
        return training.Trainer(model, index, cfg)

    @staticmethod
    def _epoch(trainer: training.Trainer, epoch: int) -> tuple[float, list]:
        """Learning rate and batches of one epoch, as Trainer.run_epoch makes
        them; driving the steps here lets each one be timed without patching."""
        lr = training.cosine_lr(epoch, trainer.cfg.epochs, trainer.cfg.lr0)
        return lr, trainer._make_batches(trainer.corpus)

    def warmup(self) -> None:
        # A second trainer from the same seed runs the first steps; the
        # measured trainer must reproduce its losses bit for bit.
        twin = self._trainer()
        lr, batches = self._epoch(twin, 0)
        self.reference = [twin._train_batch(lang, ids, lr) for lang, ids in batches[: self.checked_steps]]
        del twin
        gc.collect()

    def block(self, tracer) -> list[Op]:
        ops = []
        lr, batches = self._epoch(self.trainer, self.epoch)
        for language, audio_ids in batches:
            t0 = time.perf_counter()
            try:
                step = f"step{len(self.losses)}"
                loss = traced(tracer, step, "bench.step", self.trainer._train_batch, language, audio_ids, lr)
            except Exception as exc:  # noqa: BLE001 - a failed step is counted, not fatal
                self.outcome.check(False, 1, f"step raised {type(exc).__name__}: {exc}")
                continue
            dt = time.perf_counter() - t0
            self.losses.append(loss)
            if self.outcome.check(math.isfinite(loss), 1, f"non-finite loss {loss}"):
                ops.append(Op(dt, len(audio_ids)))
        self.epoch += 1
        return ops

    def finish(self) -> None:
        n = min(len(self.losses), len(self.reference))
        same = self.losses[:n] == self.reference[:n] and n == len(self.reference)
        # the compared steps were already counted as attempted
        if not same:
            self.outcome.failed += n
            self.outcome.problems.append(
                f"loss trajectory differs under the same seed: {self.losses[:n]} vs {self.reference}"
            )

    def details(self, ops: list[Op]) -> dict:
        total = sum(o.seconds for o in ops)
        return {
            "train.pairs_per_s": (sum(o.units for o in ops) / total, "pairs/s"),
            "train.step_s": (summary([o.seconds for o in ops]), "s"),
        }


# -- caption -------------------------------------------------------------------


class Caption(Workload):
    """`polycap caption` on one clip per call, in all four languages."""

    name = "caption"
    unit = "(clip, language) captions, checkpoint load included"
    op = "one `polycap caption` call: one clip in four languages"

    def trace_ops(self, ops: list[Op]) -> int:
        return sum(o.units for o in ops)  # per caption

    def setup(self) -> None:
        self.model = None
        gc.collect()
        s = self.scale
        self.vocabs = inputs.vocabularies(s)
        gen = inputs.Generator(s, self.seed, self.vocabs)
        self.clips = gen.clips(s.caption_clips)
        self.clip_dirs = []
        self.input_files = []
        for i, clip in enumerate(self.clips):
            d = self.work / "emb" / f"clip{i:03d}"
            inputs.write_clips(d, [f"clip{i:03d}"], [clip])
            self.clip_dirs.append(d)
            self.input_files.append(d / f"clip{i:03d}.aemb")
        self.model = model_mod.MultilingualModel(s.model, self.vocabs, seed=MODEL_SEED)
        self.checkpoint = self.work / "model.ackp"
        model_mod.save_checkpoint(self.model, self.checkpoint)
        self.stopwords = {lang: load_stopwords(lang).words for lang in LANGUAGES}
        self.next_clip = 0
        self.words: list[int] = []

    def _argv(self, clip_dir: Path, out: Path, max_len: int) -> list[str]:
        return [
            "caption",
            "--checkpoint", str(self.checkpoint),
            "--embeddings-dir", str(clip_dir),
            "--languages", LANG_ARG,
            "--beam-size", str(self.scale.beam_size),
            "--max-len", str(max_len),
            "--length-norm", "1.0",
            "--out", str(out),
        ]  # fmt: skip

    def warmup(self) -> None:
        code, err = run_cli(self._argv(self.clip_dirs[0], self.work / "warm", 1))
        self.outcome.check(code == 0, len(LANGUAGES), f"warm-up caption exit {code}: {err}")

    def block(self, tracer) -> list[Op]:
        i = self.next_clip % len(self.clips)
        self.next_clip += 1
        out = self.work / "out" / f"clip{i:03d}"
        t0 = time.perf_counter()
        code, err = run_cli(self._argv(self.clip_dirs[i], out, self.scale.max_len), tracer, f"clip{self.next_clip - 1}")
        dt = time.perf_counter() - t0
        if code != 0:
            self.outcome.check(False, len(LANGUAGES), f"caption exit {code}: {err}")
            return []
        lines = (out / "captions.jsonl").read_text("utf-8").splitlines()
        records = {r["language"]: r for r in map(json.loads, lines)}
        good = 0
        for lang in LANGUAGES:
            record = records.get(lang.value)
            if len(lines) != len(LANGUAGES):
                problem = f"{len(lines)} caption lines for {len(LANGUAGES)} languages"
            elif record is None:
                problem = "no caption"
            else:
                problem = self._check_caption(self.clips[i], lang, record)
            good += self.outcome.check(problem is None, 1, f"clip{i:03d}/{lang.value}: {problem}")
        return [Op(dt, len(LANGUAGES))] if good == len(LANGUAGES) else []

    def _check_caption(self, clip: np.ndarray, lang, record: dict) -> str | None:
        words = record["caption"].split()
        self.words.append(len(words))
        if len(words) > self.scale.max_len:
            return f"{len(words)} words > max_len {self.scale.max_len}"
        content = [w for w in words if w not in self.stopwords[lang]]
        if len(set(content)) != len(content):
            return f"repeated non-stopword in {record['caption']!r}"
        vocab = self.model.vocab(lang)
        try:
            ids = [vocab.bos_id, *(vocab.index[w] for w in words), vocab.eos_id]
        except KeyError as exc:
            return f"word {exc} not in the vocabulary"
        ids = np.array([ids], dtype=np.int64)
        with ad.no_grad():
            logits = self.model.forward(clip[None].astype(np.float64), ids[:, :-1], lang).data[0]
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        rescored = float(logp[np.arange(ids.shape[1] - 1), ids[0, 1:]].sum())
        if abs(rescored - record["log_prob"]) > RESCORE_TOL:
            return f"log_prob {record['log_prob']!r} but teacher-forced rescoring gives {rescored!r}"
        return None

    def details(self, ops: list[Op]) -> dict:
        total = sum(o.seconds for o in ops)
        return {
            "caption.captions_per_s": (sum(o.units for o in ops) / total, "captions/s"),
            "caption.clip_s": (summary([o.seconds for o in ops]), "s"),
            "caption.words_mean": (float(np.mean(self.words)) if self.words else 0.0, "count"),
        }


# -- prepare_eval --------------------------------------------------------------


class PrepareEval(Workload):
    """`polycap prepare` and `polycap eval` over a generated corpus, plus a
    checkpoint save/load round trip of the default four-language model."""

    name = "prepare_eval"
    unit = "clips through prepare, eval (four languages) and a checkpoint round trip"
    op = "one cycle: prepare, eval, save_checkpoint, load_checkpoint"
    split = "test"

    def setup(self) -> None:
        self.model = None
        gc.collect()
        s = self.scale
        vocabs = inputs.vocabularies(s)
        gen = inputs.Generator(s, self.seed, vocabs)
        self.ids = [f"clip{i:04d}" for i in range(s.eval_clips)]
        clips = gen.clips(s.eval_clips)
        self.refs = {
            a: {lang: [gen.caption(lang) for _ in range(s.refs_per_clip)] for lang in LANGUAGES}
            for a in self.ids
        }
        self.cands = {lang: {a: gen.candidate(lang, self.refs[a][lang][0]) for a in self.ids} for lang in LANGUAGES}
        emb = self.work / "emb"
        inputs.write_clips(emb, self.ids, clips)
        self.manifest = self.work / "manifest.jsonl"
        inputs.write_manifest(self.manifest, self.split, self.refs)
        self.captions = self.work / "captions.jsonl"
        lines = [
            json.dumps({"audio_id": a, "language": lang.value, "caption": c}, sort_keys=True)
            for lang, by_id in self.cands.items()
            for a, c in by_id.items()
        ]
        self.captions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.input_files = [self.manifest, self.captions, *(emb / f"{a}.aemb" for a in self.ids)]
        self.model = model_mod.MultilingualModel(s.model, vocabs, seed=MODEL_SEED)
        self.checkpoint = self.work / "model.ackp"
        self.cycles = 0

    def warmup(self) -> None:
        # Reference values come straight from the library, outside the CLI.
        self.expected_vocab = {
            lang: {w for a in self.ids for c in self.refs[a][lang] for w in tokenize(c)} for lang in LANGUAGES
        }
        self.expected_cider = {
            lang.value: evaluation.cider_d(self.cands[lang], {a: self.refs[a][lang] for a in self.ids}).corpus_score
            for lang in LANGUAGES
        }
        self.block(None)

    def block(self, tracer) -> list[Op]:
        c = len(self.ids)
        prep, ev = self.work / "prep", self.work / "eval"
        self.cycles += 1
        req = f"cycle{self.cycles}"
        t0 = time.perf_counter()
        code_p, err_p = run_cli(
            ["prepare", "--manifest", str(self.manifest), "--embeddings-dir", str(self.work / "emb"),
             "--languages", LANG_ARG, "--split", self.split, "--out", str(prep)],
            tracer, req,
        )  # fmt: skip
        t1 = time.perf_counter()
        code_e, err_e = run_cli(
            ["eval", "--captions", str(self.captions), "--manifest", str(self.manifest),
             "--split", self.split, "--out", str(ev)],
            tracer, req,
        )  # fmt: skip
        t2 = time.perf_counter()
        # looked up at call time, so that a traced call reaches the wrapper
        traced(tracer, req, "bench.save", lambda: model_mod.save_checkpoint(self.model, self.checkpoint))
        t3 = time.perf_counter()
        loaded = traced(tracer, req, "bench.load", lambda: model_mod.load_checkpoint(self.checkpoint))
        t4 = time.perf_counter()

        good, why = self._check_prepare(code_p, err_p, prep)
        ok = self.outcome.check(good, c, why)
        for lang in LANGUAGES:
            problem = self._check_eval(code_e, err_e, ev, lang.value)
            ok &= self.outcome.check(problem is None, c, f"eval {lang.value}: {problem}")
        same = _same_model(self.model, loaded)
        ok &= self.outcome.check(same, 2, "checkpoint round trip is not bit-exact")
        del loaded
        parts = {"prepare_s": t1 - t0, "eval_s": t2 - t1, "save_s": t3 - t2, "load_s": t4 - t3}
        return [Op(t4 - t0, c, parts)] if ok else []

    def _check_prepare(self, code: int, err: str, prep: Path) -> tuple[bool, str]:
        if code != 0:
            return False, f"prepare exit {code}: {err}"
        index = json.loads((prep / "corpus_index.json").read_text("utf-8"))
        if index["n_audios"] != len(self.ids) or index["embed_dim"] != self.scale.model.d_in:
            return False, f"prepare indexed {index['n_audios']} audios of dim {index['embed_dim']}"
        for lang in LANGUAGES:
            tokens = json.loads((prep / f"vocab.{lang.value}.json").read_text("utf-8"))["tokens"]
            if tokens[:4] != list(SPECIAL_TOKENS) or set(tokens[4:]) != self.expected_vocab[lang]:
                return False, f"prepare built a wrong {lang.value} vocabulary"
        return True, ""

    def _check_eval(self, code: int, err: str, ev: Path, lang: str) -> str | None:
        if code != 0:
            return f"exit {code}: {err}"
        score = json.loads((ev / "eval_report.json").read_text("utf-8"))["scores"][lang]
        if score["n_items"] != len(self.ids) or score["cider_d_raw"] != self.expected_cider[lang]:
            return f"CIDEr-D {score['cider_d_raw']!r} on {score['n_items']} items, expected {self.expected_cider[lang]!r}"
        return None

    def finish(self) -> None:
        oracles = load_oracles(self.root)
        sub = self.ids[: self.scale.oracle_items]
        for lang in LANGUAGES:
            cands = {a: self.cands[lang][a] for a in sub}
            refs = {a: self.refs[a][lang] for a in sub}
            got = evaluation.cider_d(cands, refs).per_item
            want = oracles.bruteforce_cider_d(
                {a: tokenize(c) for a, c in cands.items()},
                {a: [tokenize(r) for r in rs] for a, rs in refs.items()},
            )
            for a in sub:
                self.outcome.check(
                    abs(got[a] - want[a]) <= ORACLE_TOL, 1, f"CIDEr-D {lang.value}/{a}: {got[a]} vs oracle {want[a]}"
                )

    def details(self, ops: list[Op]) -> dict:
        c = len(self.ids)
        parts = {k: [o.parts[k] for o in ops] for k in ("prepare_s", "eval_s", "save_s", "load_s")}
        return {
            "prepare.clips_per_s": (c * len(ops) / sum(parts["prepare_s"]), "clips/s"),
            "eval.items_per_s": (c * len(LANGUAGES) * len(ops) / sum(parts["eval_s"]), "items/s"),
            "ckpt.save_s": (summary(parts["save_s"]), "s"),
            "ckpt.load_s": (summary(parts["load_s"]), "s"),
            "cycle_s": (summary([o.seconds for o in ops]), "s"),
        }


def _same_model(a, b) -> bool:
    if a.config != b.config or a.languages != b.languages:
        return False
    if any(a.vocab(l).tokens != b.vocab(l).tokens for l in a.languages):
        return False
    pa, pb = a.named_parameters(), b.named_parameters()
    return pa.keys() == pb.keys() and all(
        pa[k].data.dtype == pb[k].data.dtype and pa[k].data.tobytes() == pb[k].data.tobytes() for k in pa
    )


# -- statistics ------------------------------------------------------------------


def summary(samples: list[float]) -> dict:
    """Median plus the highest listed percentile with at least ten samples
    above it (None when there are too few samples), and the sample count."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    out = {"p50": float(np.median(xs)) if len(xs) else None, "tail": None, "n": len(xs)}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(xs) and int((xs > np.percentile(xs, pct)).sum()) >= 10:
            out["tail"] = {"pct": pct, "value": float(np.percentile(xs, pct))}
            break
    return out


WORKLOADS = {w.name: w for w in (Train, Caption, PrepareEval)}
