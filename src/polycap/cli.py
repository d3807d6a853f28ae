"""Command-line surface: prepare, stats, train, caption, eval, params,
compare-langs.

Every command is reproducible (same inputs, --seed, numpy/BLAS build and
BLAS thread settings give byte-identical outputs; wall-clock values live only
in the run manifest and metrics timings). A command that wrote outputs
returns (out_dir, config, inputs[, seed]), from which `main` writes the run
manifest. Exit codes: 0 success, 2 validation failure, 3 runtime failure;
errors are JSON on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import polycap
from polycap import corpus as corpus_mod
from polycap import decoding, evaluation, model as model_mod, training
from polycap.errors import ToolkitError, ValidationError, config_from_json, is_integer, physical_memory
from polycap.files import atomic_write, dump_json, parse_json, write_json
from polycap.text import (
    SPECIAL_TOKENS,
    Language,
    Vocabulary,
    build_vocabulary,
    load_stopwords,
    repeated_languages,
    tokenize,
)


def _digest(source) -> str:
    """Content hash of an input, a hashlib object fed its bytes as they were read, or of
    files by name, each such an object: the hash of their sorted `name:hash` lines."""
    if isinstance(source, dict):
        lines = sorted(f"{name}:{digest.hexdigest()}" for name, digest in source.items())
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return source.hexdigest()


def _environment() -> dict:
    """What a run's bits depend on besides its inputs and seed: the Python,
    numpy and scipy builds, the BLAS, and the thread settings. Training at
    one BLAS thread count and at another gives different weight-gradient
    bits, so the thread variables are recorded as set (or null)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_vars": {
            var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        # macOS's Python has no sched_getaffinity
        "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def write_run_manifest(out_dir: Path, command: str, config: dict, inputs: dict, seed: int | None = None) -> None:
    """Write run_manifest.json. Each input is a hashlib object that hashed
    the input's bytes as the command read them, or a dict of such objects by
    file name (the clips a command read)."""
    manifest = {
        "command": command,
        "toolkit_version": polycap.__version__,
        "seed": seed,
        "config": config,
        "input_digests": {label: _digest(source) for label, source in inputs.items()},
        "environment": _environment(),
        "timestamp_unix": time.time(),
    }
    write_json(out_dir / "run_manifest.json", manifest, indent=2)


def _out_dir(path) -> Path:
    """The output directory `path`, made if need be, without an earlier run's
    manifest: a directory that holds a manifest holds what that run wrote.
    Commands call it once their inputs have validated, before any output."""
    out_dir = Path(path)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out_dir} ({exc.strerror})") from exc
    manifest = out_dir / "run_manifest.json"
    try:
        manifest.unlink(missing_ok=True)
    except OSError as exc:  # a directory of that name, say
        raise ValidationError(f"cannot remove {manifest} ({exc.strerror})") from exc
    return out_dir


def _code_list(spec: str) -> list[str]:
    return [c for c in (s.strip() for s in spec.split(",")) if c]


def _parse_languages(codes: list[str], source: str) -> list[Language]:
    """The languages of `codes`, from the flag or config named by `source`.
    Every unknown code and every repeated language is one error item."""
    if not codes:
        raise ValidationError(f"{source}: empty language list")
    languages, problems = [], []
    for code in codes:
        try:
            languages.append(Language.parse(code))
        except ValidationError as exc:
            problems.append(exc.message)
    problems += repeated_languages(languages)
    if problems:
        raise ValidationError(f"{source}: bad language list", items=problems)
    return languages


def _build_vocabularies(
    captions: corpus_mod.Captions, languages: list[Language], min_count: int
) -> dict[Language, Vocabulary]:
    """One vocabulary per language from the tokenized captions of a split."""
    return {
        lang: build_vocabulary(
            [tokenize(c) for caps in captions.values() for c in caps[lang]],
            min_count=min_count,
        )
        for lang in languages
    }


# -- commands ----------------------------------------------------------------


def cmd_prepare(args) -> tuple:
    languages = _parse_languages(args.languages, "--languages")
    manifest_digest, clip_digests = hashlib.sha256(), {}
    captions = corpus_mod.load_split(args.manifest, args.split, manifest_digest)
    # one clip held at a time: only its width is kept
    clips = corpus_mod.read_split(args.split, captions, args.embeddings_dir, languages, clip_digests)
    (embed_dim,) = {clip.shape[1] for _, clip in clips}
    vocabs = _build_vocabularies(captions, languages, args.min_count)  # checks min_count before --out is made
    out_dir = _out_dir(args.out)
    vocab_files = {}
    for lang, vocab in vocabs.items():
        path = out_dir / f"vocab.{lang.value}.json"
        write_json(path, vocab.to_doc())
        vocab_files[lang.value] = {"path": path.name, "size": vocab.size}
    summary = {
        "split": args.split,
        "n_audios": len(captions),
        "embed_dim": embed_dim,
        "languages": [l.value for l in languages],
        "vocabularies": vocab_files,
    }
    write_json(out_dir / "corpus_index.json", summary, indent=2)
    print(f"prepared {len(captions)} audios, {len(languages)} languages -> {out_dir}")
    config = {
        "manifest": str(args.manifest),
        "split": args.split,
        "min_count": args.min_count,
        "languages": [l.value for l in languages],
    }
    return out_dir, config, {"manifest": manifest_digest, "embeddings_dir": clip_digests}


def cmd_stats(args) -> tuple | None:
    languages = _parse_languages(args.languages, "--languages")
    manifest_digest = hashlib.sha256()
    captions = corpus_mod.load_split(args.manifest, args.split, manifest_digest)
    rows = [corpus_mod.compute_stats(captions, lang, args.split) for lang in languages]
    print(f"{'lang':<6}{'split':<8}{'sent.length':>12}{'word types':>12}{'captions':>10}")
    for r in rows:
        print(
            f"{r['language']:<6}{r['split']:<8}{r['avg_sentence_length']:>12.2f}"
            f"{r['word_types']:>12}{r['n_captions']:>10}"
        )
    if args.out:
        out_dir = _out_dir(args.out)
        write_json(out_dir / "stats.json", rows, indent=2)
        config = {"split": args.split, "languages": [l.value for l in languages]}
        return out_dir, config, {"manifest": manifest_digest}
    return None


def _read_config(path: Path) -> dict:
    try:
        doc, repeated = parse_json(corpus_mod.read_text(path, "config"))
    except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if repeated:
        raise ValidationError(f"config {path} repeats keys", items=repeated)
    if not isinstance(doc, dict):
        raise ValidationError(f"config {path} is not a JSON object")
    return doc


@dataclass(frozen=True)
class TrainData:
    """A train config's `data` object, its paths relative to the config file until loaded."""

    manifest: Path
    embeddings_dir: Path
    train_split: str = "train"
    val_split: str | None = None


@dataclass(frozen=True)
class TrainRun:
    """A train config: its fields are the document's keys, at every depth."""

    data: TrainData
    languages: list[Language]
    model: model_mod.ModelConfig = model_mod.ModelConfig()
    train: training.TrainConfig = training.TrainConfig()
    min_count: int = 1


def _load_train_config(path: Path) -> TrainRun:
    """The run a train config file states, its data paths resolved against
    the file and its languages parsed; it reads no file the config names."""
    run = config_from_json(TrainRun, _read_config(path), f"bad train config {path}")
    data = run.data
    problems = [
        f"'{key}' must be {rule}"
        for key, ok, rule in (
            ("data.manifest", isinstance(data.manifest, str) and "\0" not in data.manifest, "a path string"),
            ("data.embeddings_dir", isinstance(data.embeddings_dir, str) and "\0" not in data.embeddings_dir,
             "a path string"),
            ("data.train_split", isinstance(data.train_split, str), "a split name"),
            ("data.val_split", data.val_split is None or isinstance(data.val_split, str), "a split name"),
            ("languages", isinstance(run.languages, list) and all(isinstance(c, str) for c in run.languages),
             "a list of language codes"),
            ("min_count", is_integer(run.min_count) and run.min_count >= 1, "an integer >= 1"),
        )
        if not ok
    ]
    if problems:
        raise ValidationError(f"bad train config {path}", items=problems)
    paths = {key: (path.parent / getattr(data, key)).resolve() for key in ("manifest", "embeddings_dir")}
    return replace(run, data=replace(data, **paths), languages=_parse_languages(run.languages, f"config {path}"))


def cmd_train(args) -> tuple:
    run = _load_train_config(Path(args.config))
    train_cfg = run.train if args.seed is None else replace(run.train, seed=args.seed)
    manifest_digest, clip_digests = hashlib.sha256(), {}
    manifests = corpus_mod.load_manifests(run.data.manifest, manifest_digest)

    def index(split: str) -> corpus_mod.CorpusIndex:
        captions = corpus_mod.select_split(manifests, split, run.data.manifest)
        return corpus_mod.CorpusIndex.from_manifest(
            split, captions, run.data.embeddings_dir, run.languages, clip_digests, run.model.d_in
        )

    train_index = index(run.data.train_split)
    val_index = index(run.data.val_split) if run.data.val_split else None
    vocabs = _build_vocabularies(train_index.captions, run.languages, run.min_count)
    n_params = model_mod.param_report(run.model, {lang: v.size for lang, v in vocabs.items()})["trainable_total"]
    physical = physical_memory()
    if 32 * n_params > physical:  # the state held all run, not a step's peak: weights, grads, 2 AdamW moments
        raise ValidationError("bad model config", items=[
            f"{n_params} trainable parameters need about {32 * n_params} bytes to train, "
            f"more than the {physical} bytes of physical memory"
        ])
    model = model_mod.MultilingualModel(run.model, vocabs, seed=train_cfg.seed)
    out_dir = _out_dir(args.out)

    trainer = training.Trainer(model, train_index, train_cfg, val_corpus=val_index)
    history = trainer.fit(metrics_path=out_dir / "metrics.jsonl")
    model_mod.save_checkpoint(model, out_dir / "checkpoint.ackp")
    first, last = history[0]["train_loss"], history[-1]["train_loss"]
    print(f"trained {train_cfg.epochs} epochs: loss {first:.4f} -> {last:.4f}; wrote {out_dir}")
    config = asdict(replace(run, train=train_cfg, languages=[l.value for l in run.languages]))
    del config["data"]["manifest"], config["data"]["embeddings_dir"]  # resolved, they would name the machine
    return out_dir, config, {"manifest": manifest_digest, "embeddings_dir": clip_digests}, train_cfg.seed


def cmd_caption(args) -> tuple:
    cfg = decoding.DecodeConfig(beam_size=args.beam_size, max_len=args.max_len, length_norm=args.length_norm)
    checkpoint_digest = hashlib.sha256()  # of the very bytes the model is built from
    model = model_mod.load_checkpoint(args.checkpoint, checkpoint_digest)
    languages = list(model.languages)
    if args.languages is not None:
        languages = _parse_languages(args.languages, "--languages")
        headless = [f"no head for language {lang.value!r}" for lang in languages if lang not in model.heads]
        if headless:
            raise ValidationError(f"--languages: not all in checkpoint {args.checkpoint}", items=headless)
    # max_len cut to the model's positions, decoded with and recorded; a beam
    # too big for memory fails before any clip
    cfg = decoding.fit_decode_config(model, languages, cfg)
    embeddings_dir = Path(args.embeddings_dir)
    manifest_digest = hashlib.sha256()
    if args.manifest:
        audio_ids = list(corpus_mod.load_split(args.manifest, args.split, manifest_digest))
    else:
        audio_ids = corpus_mod.clip_ids(embeddings_dir)
    if not audio_ids:
        raise ValidationError(f"no embeddings to caption in {embeddings_dir}")
    stopwords = {lang: load_stopwords(lang).words for lang in languages}
    decode_config = asdict(cfg)
    clip_digests, problems, lines = {}, {}, []
    for audio_id, clip in corpus_mod.read_clips(embeddings_dir, audio_ids, problems, clip_digests, model.config.d_in):
        if problems:  # the run fails: the clips left are read for the report, not decoded
            continue
        results = decoding.caption_clip(model, clip, languages, cfg, stopwords)
        for lang, result in zip(languages, results):
            record = {
                "audio_id": audio_id,
                "language": lang.value,
                "caption": " ".join(result.tokens),
                "log_prob": result.log_prob,
                "normalized_score": result.normalized_score,
                "decode_config": decode_config,
            }
            lines.append(dump_json(record) + "\n")
    if problems:
        raise ValidationError(
            f"embeddings in {embeddings_dir} failed validation",
            items=[f"{audio_id}: {problem}" for audio_id, problem in problems.items()],
        )
    # the weights map the file, so a write into it since the load may have
    # reached them unhashed: checked before --out is made
    model.source.check_unchanged()
    out_dir = _out_dir(args.out)
    out_path = out_dir / "captions.jsonl"
    with atomic_write(out_path) as sink:
        sink.writelines(lines)
    print(f"captioned {len(audio_ids)} audios x {len(languages)} languages -> {out_path}")
    config = {"decode_config": decode_config, "languages": [l.value for l in languages]}
    inputs = {"checkpoint": checkpoint_digest, "embeddings_dir": clip_digests}
    if args.manifest:
        config["split"] = args.split
        inputs["manifest"] = manifest_digest
    return out_dir, config, inputs


def _read_captions_jsonl(path: Path, digest) -> dict[Language, dict[str, str]]:
    """Captions by language and audio id, the file's bytes fed to `digest`. Every malformed
    or repeated (audio_id, language) line is reported, itemized, in one ValidationError."""
    out: dict[Language, dict[str, str]] = {}
    first_line: dict[tuple[Language, str], int] = {}
    problems: list[str] = []
    for lineno, obj in corpus_mod.jsonl_objects(path, "captions file", problems, digest):
        audio_id, code, caption = obj.get("audio_id"), obj.get("language"), obj.get("caption")
        if not isinstance(audio_id, str) or not audio_id:
            problems.append(f"line {lineno}: audio_id must be a non-empty string")
        elif not isinstance(code, str):
            problems.append(f"line {lineno}: language must be a string")
        elif not isinstance(caption, str):
            problems.append(f"line {lineno}: caption must be a string")
        else:
            try:
                lang = Language.parse(code)
            except ValidationError as exc:
                problems.append(f"line {lineno}: {exc.message}")
                continue
            first = first_line.setdefault((lang, audio_id), lineno)
            if first != lineno:
                problems.append(f"line {lineno}: audio_id {audio_id!r} in {lang.value} repeats line {first}")
                continue
            out.setdefault(lang, {})[audio_id] = caption
    if problems:
        raise ValidationError(f"captions file {path} failed validation", items=problems)
    if not out:
        raise ValidationError(f"{path}: no caption records")
    return out


def cmd_eval(args) -> tuple:
    captions_digest, manifest_digest = hashlib.sha256(), hashlib.sha256()
    candidates = _read_captions_jsonl(Path(args.captions), captions_digest)
    refs = corpus_mod.load_split(args.manifest, args.split, manifest_digest)
    references = {
        lang: {audio_id: list(caps[lang]) for audio_id, caps in refs.items() if lang in caps}
        for lang in candidates
    }
    provider = evaluation.HttpEmbedder(args.sbert_endpoint) if args.sbert_endpoint else None
    config = {"split": args.split, "sbert_endpoint": args.sbert_endpoint, "sbert_aggregate": args.sbert_aggregate}
    report = evaluation.evaluate_captions(
        candidates, references, provider=provider, aggregate=args.sbert_aggregate, config_echo=config
    )
    out_dir = _out_dir(args.out)
    write_json(out_dir / "eval_report.json", report, indent=2)
    for code, s in report["scores"].items():
        sim = f"{s['sbert_sim_pct']:.1f}" if s["sbert_sim_pct"] is not None else "-"
        print(
            f"{code}: CIDEr-D {s['cider_d_raw']:.4f} (raw) / {s['cider_d_pct']:.1f}% "
            f"SBERT-sim {sim} on {s['n_items']} items"
        )
    return out_dir, config, {"captions": captions_digest, "manifest": manifest_digest}


def _parse_vocab_sizes(spec: str) -> dict[Language, int]:
    out = {}
    problems = []
    for entry in _code_list(spec):
        code, eq, size = entry.partition("=")
        if not eq:
            problems.append(f"{entry}: want lang=size")
            continue
        try:
            lang = Language.parse(code)
        except ValidationError as exc:
            problems.append(f"{entry}: {exc.message}")
            continue
        try:
            size = int(size)
        except ValueError:
            problems.append(f"{entry}: size {size.strip()!r} is not an integer")
            continue
        if lang in out:
            problems.append(f"{lang.value}={size}: language {lang.value!r} given twice")
        elif size < len(SPECIAL_TOKENS):
            problems.append(f"{lang.value}={size}: fewer than the {len(SPECIAL_TOKENS)} special tokens")
        out[lang] = size
    if problems:
        raise ValidationError("bad vocab sizes", items=problems)
    if not out:
        raise ValidationError("empty vocab size list")
    return out


def cmd_params(args) -> tuple | None:
    doc = _read_config(Path(args.config)) if args.config else {}
    config = config_from_json(model_mod.ModelConfig, doc, "bad model config")
    vocab_sizes = _parse_vocab_sizes(args.vocab_sizes)
    multi = model_mod.param_report(config, vocab_sizes)
    monos = {lang.value: model_mod.param_report(config, {lang: size}) for lang, size in vocab_sizes.items()}
    reduction = model_mod.size_comparison(list(monos.values()), multi)
    print(f"{'component':<28}{'params':>14}")
    print(f"{'frontend':<28}{multi['frontend']:>14,}")
    print(f"{'trunk':<28}{multi['trunk']:>14,}")
    for code, head in multi["heads"].items():
        print(f"{'head.' + code + '.embedding':<28}{head['embedding']:>14,}")
        print(f"{'head.' + code + '.classifier':<28}{head['classifier']:>14,}")
    print(f"{'multilingual trainable':<28}{multi['trainable_total']:>14,}")
    print(f"{'multilingual grand total':<28}{multi['grand_total']:>14,}")
    for code, mono in monos.items():
        print(f"{'mono-' + code + ' trainable':<28}{mono['trainable_total']:>14,}")
        print(f"{'mono-' + code + ' grand total':<28}{mono['grand_total']:>14,}")
    print(f"size reduction vs monolinguals: {reduction:.2f}%")
    if args.out:
        out_dir = _out_dir(args.out)
        doc = {"multilingual": multi, "monolingual": monos, "reduction_pct": reduction}
        write_json(out_dir / "params.json", doc, indent=2)
        sizes = {lang.value: size for lang, size in vocab_sizes.items()}
        return out_dir, {"config": config.to_dict(), "vocab_sizes": sizes}, {}
    return None


def cmd_compare_langs(args) -> tuple | None:
    captions_digest = hashlib.sha256()
    captions = _read_captions_jsonl(Path(args.captions), captions_digest)
    base = Language.parse(args.base)
    provider = evaluation.HttpEmbedder(args.endpoint)
    result = evaluation.cross_language_similarity(captions, base, provider)
    table = {lang.value: pct for lang, pct in sorted(result.items(), key=lambda kv: kv[0].ordinal)}
    for code, pct in table.items():
        print(f"{base.value} vs {code}: {pct:.1f}%")
    if args.out:
        out_dir = _out_dir(args.out)
        write_json(out_dir / "cross_language.json", {"base": base.value, "similarity_pct": table}, indent=2)
        return out_dir, {"base": base.value, "endpoint": args.endpoint}, {"captions": captions_digest}
    return None


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycap",
        description="Train, decode and evaluate multilingual audio-caption decoders.",
    )
    parser.add_argument("--version", action="version", version=f"polycap {polycap.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="validate a corpus and build vocabularies")
    p.add_argument("--manifest", required=True)
    p.add_argument("--embeddings-dir", required=True)
    p.add_argument(
        "--languages", type=_code_list, required=True, help="comma-separated codes, e.g. en,fr,es,de"
    )
    p.add_argument("--split", default="train")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("stats", help="corpus statistics per language")
    p.add_argument("--manifest", required=True)
    p.add_argument("--languages", type=_code_list, required=True)
    p.add_argument("--split", default="train")
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("caption", help="decode captions with constrained beam search")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embeddings-dir", required=True)
    p.add_argument("--languages", type=_code_list)
    p.add_argument("--manifest")
    p.add_argument("--split", default="test")
    p.add_argument("--beam-size", type=int, default=4)
    p.add_argument("--max-len", type=int, default=20)
    p.add_argument("--length-norm", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_caption)

    p = sub.add_parser("eval", help="score captions against references")
    p.add_argument("--captions", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--sbert-endpoint")
    p.add_argument("--sbert-aggregate", choices=("mean", "max"), default="mean")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("params", help="parameter accounting for a configuration")
    p.add_argument("--config")
    p.add_argument(
        "--vocab-sizes",
        default="en=4861,fr=5797,es=5889,de=9391",
        help="comma-separated lang=size pairs",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("compare-langs", help="cross-language output similarity")
    p.add_argument("--captions", required=True)
    p.add_argument("--base", default="en")
    p.add_argument("--endpoint", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare_langs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # stderr carries only the JSON error: a numpy overflow in a command
        # surfaces as that command's own error (a non-finite loss, say), not
        # as a RuntimeWarning line
        with np.errstate(all="ignore"):
            record = args.func(args)
            if record is not None:
                write_run_manifest(record[0], args.command, *record[1:])
        return 0
    except ToolkitError as exc:
        sys.stderr.write(json.dumps(exc.payload(), sort_keys=True) + "\n")
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        payload = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return 3


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
