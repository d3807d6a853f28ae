"""Training recipe: smoothed cross-entropy, mixup, embedding-sequence masking,
cosine learning-rate decay, AdamW with decoupled weight decay, and the
mono/multilingual epoch loops.

A multilingual epoch visits every (audio, language) pair exactly once, so one
epoch touches each audio file once per registered language. All randomness
flows from per-purpose streams spawned deterministically from one seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from polycap import autodiff as ad
from polycap.autodiff import Tensor
from polycap.corpus import CorpusIndex, sample_caption
from polycap.errors import RuntimeFailure, ValidationError, integer_problems, is_finite, is_real
from polycap.files import atomic_write, dump_json
from polycap.model import MixupDraw, MultilingualModel, live_positions
from polycap.text import Language, tokenize


@dataclass(frozen=True)
class SpecAugmentConfig:
    """Masking over the embedding sequence: time-frame spans and channel bands.

    Widths are drawn uniformly from {0, ..., max_width}; start positions
    uniformly over valid placements. Widths are clamped to each item's extent.
    """

    n_time_masks: int = 2
    max_time_width: int = 6
    n_channel_masks: int = 2
    max_channel_width: int = 96


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    lr0: float = 5e-4
    weight_decay: float = 2.0
    label_smoothing_eps: float = 0.1
    mixup_alpha: float = 0.4
    specaug: SpecAugmentConfig | None = SpecAugmentConfig()
    batch_size: int = 32
    seed: int = 0
    adam_betas: tuple[float, float] = (0.9, 0.999)
    adam_eps: float = 1e-8

    def __post_init__(self):
        problems = []
        for name, ok, rule in (
            ("lr0", lambda v: v > 0, "a finite number > 0"),
            ("weight_decay", lambda v: v >= 0, "a finite number >= 0"),
            ("label_smoothing_eps", lambda v: 0 <= v < 1, "a number in [0, 1)"),
            ("mixup_alpha", lambda v: v >= 0, "a finite number >= 0"),
            ("adam_eps", lambda v: v > 0, "a finite number > 0"),
        ):
            value = getattr(self, name)
            if not (is_finite(value) and ok(value)):
                problems.append(f"{name}={value!r} must be {rule}")
        counts = (("epochs", 1), ("batch_size", 1), ("seed", 0))
        problems += integer_problems((name, getattr(self, name), low) for name, low in counts)
        betas = self.adam_betas
        if not (isinstance(betas, tuple) and len(betas) == 2 and all(is_real(b) and 0.0 <= b < 1.0 for b in betas)):
            shown = list(betas) if isinstance(betas, tuple) else betas  # as the JSON list it was read from
            problems.append(f"adam_betas={shown!r} must be a pair of numbers in [0, 1)")
        if self.specaug is not None:
            problems += integer_problems((f"specaug.{name}", value, 0) for name, value in asdict(self.specaug).items())
        if problems:
            raise ValidationError("bad training config", items=problems)


# -- loss ----------------------------------------------------------------


def _weighted_targets(
    target_ids: np.ndarray, pad_id: int, mixup: MixupDraw | None
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(ids, weight) per target set: a set's share over its non-pad count at
    its non-pad positions, 0 elsewhere."""
    target_ids = np.asarray(target_ids)
    if mixup is None:
        target_sets = [(1.0, target_ids)]
    else:
        target_sets = [(mixup.lam, target_ids), (1.0 - mixup.lam, target_ids[mixup.partner])]
    weighted = []
    for share, ids in target_sets:
        mask = ids != pad_id
        n_valid = mask.sum()
        if n_valid == 0:
            raise ValidationError("all-pad batch: no target positions to score")
        weighted.append((ids, share * mask / n_valid))
    return weighted


def loss_lengths(target_ids: np.ndarray, pad_id: int, mixup: MixupDraw | None = None) -> np.ndarray:
    """Per row, how many leading positions a loss term reaches: up to the
    last position where a target set has nonzero weight. A set whose share
    is 0 (mixup lambda 0 or 1) reaches nothing."""
    weighted = _weighted_targets(target_ids, pad_id, mixup)
    reached = np.logical_or.reduce([weight != 0 for _, weight in weighted])
    return (reached * np.arange(1, reached.shape[1] + 1)).max(axis=1, initial=0)


def smoothed_cross_entropy(
    logits: Tensor,
    target_ids: np.ndarray,
    eps: float,
    pad_id: int,
    mixup: MixupDraw | None = None,
    lengths: np.ndarray | None = None,
) -> Tensor:
    """Mean cross-entropy against eps-smoothed one-hot targets.

    The true class gets 1-eps, the remaining eps is spread over the other
    vocab entries. Pad positions contribute nothing; the mean runs over
    non-pad positions only. With a mixup draw the loss is
    lam * CE(targets) + (1 - lam) * CE(targets[partner]), each term averaged
    over its own non-pad positions. With `lengths`, the logits are the
    packed rows `MultilingualModel.forward` returns for those lengths, which
    must cover every weighted position. The loss is one autodiff node
    (`autodiff.cross_entropy`).
    """
    if not 0.0 <= eps < 1.0:
        raise ValidationError(f"eps={eps} outside [0, 1)")
    weighted = _weighted_targets(target_ids, pad_id, mixup)
    if lengths is not None:
        live = live_positions(lengths, np.shape(target_ids)[1])
        if any(weight[~live].any() for _, weight in weighted):
            raise ValidationError("lengths leave out target positions that the loss weights")
        weighted = [(ids[live], weight[live]) for ids, weight in weighted]
    return ad.cross_entropy(logits, weighted, eps)


def draw_mixup(batch_size: int, alpha: float, rng: np.random.Generator) -> MixupDraw:
    """Sample a batch mixup draw: lambda ~ Beta(alpha, alpha) plus a partner permutation."""
    partner = rng.permutation(batch_size)
    return MixupDraw(lam=float(rng.beta(alpha, alpha)), partner=partner)


# -- embedding-sequence masking ------------------------------------------


def spec_mask(
    batch: np.ndarray,
    frame_counts: np.ndarray,
    cfg: SpecAugmentConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Zero random time-frame spans and channel bands, per item.

    batch: (B, S, D) zero-padded embedding sequences; frame_counts gives each
    item's true frame count. Draw order per item is fixed: time masks first,
    then channel masks, each as (width, start).
    """
    out = np.array(batch, dtype=np.float64, copy=True)
    n_channels = out.shape[2]
    for i in range(out.shape[0]):
        frames = int(frame_counts[i])
        for _ in range(cfg.n_time_masks):
            w = int(rng.integers(0, min(cfg.max_time_width, frames) + 1))
            t0 = int(rng.integers(0, frames - w + 1))
            out[i, t0 : t0 + w, :] = 0.0
        for _ in range(cfg.n_channel_masks):
            w = int(rng.integers(0, min(cfg.max_channel_width, n_channels) + 1))
            c0 = int(rng.integers(0, n_channels - w + 1))
            out[i, :, c0 : c0 + w] = 0.0
    return out


# -- schedule and optimizer ------------------------------------------------


def cosine_lr(epoch: int, epochs: int, lr0: float) -> float:
    """Cosine decay from lr0 at epoch 0 to zero at the final epoch."""
    if not 0 <= epoch <= epochs:
        raise ValidationError(f"epoch {epoch} outside [0, {epochs}]")
    return lr0 * (1.0 + math.cos(math.pi * epoch / epochs)) / 2.0


# Elements per block of `AdamW.step`. A block's operands and scratch stay in
# cache; whole-array passes over a parameter were bound by memory bandwidth.
ADAM_BLOCK = 1 << 15


class AdamW:
    """AdamW with decoupled weight decay and per-parameter step counts.

    Decay applies only to names in the decay set, directly to the weights
    (not through the gradient), so zero-gradient parameters still shrink.
    Heads that sit out a step keep their moments and step counts untouched.
    """

    def __init__(self, betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.b1, self.b2 = betas
        self.eps = eps
        self.state: dict[str, dict] = {}

    def step(
        self,
        named_params: Mapping[str, Tensor],
        lr: float,
        weight_decay: float,
        decay_names: frozenset[str],
    ) -> None:
        """Update every named parameter from its `.grad` (zeros when None).

        Each parameter runs over its flat view in blocks of `ADAM_BLOCK`
        elements, in the textbook order of operations, so every element is
        bit-identical to m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g;
        p = p - lr*m_hat / (sqrt(v_hat) + eps); p = p - lr*wd*p. The new
        weights go to a new array: callers may hold the old one.

        A block whose new weights are not finite raises RuntimeFailure
        naming the parameter. That parameter keeps its old weights, but the
        parameters before it in this step are already updated, and its own
        step count and moments may be too.
        """
        b1, b2, eps = self.b1, self.b2, self.eps
        upd, den = np.empty(ADAM_BLOCK), np.empty(ADAM_BLOCK)
        finite = np.empty(ADAM_BLOCK, dtype=bool)
        for name, p in named_params.items():
            st = self.state.get(name)
            if st is None:
                st = self.state[name] = {"m": np.zeros(p.data.shape), "v": np.zeros(p.data.shape), "t": 0}
            st["t"] += 1
            bias1, bias2 = 1.0 - b1 ** st["t"], 1.0 - b2 ** st["t"]
            decay = name in decay_names and weight_decay > 0.0
            old = p.data.reshape(-1)
            grad = np.zeros(old.size) if p.grad is None else p.grad.reshape(-1)
            m, v = st["m"].reshape(-1), st["v"].reshape(-1)
            new = np.empty(p.data.shape)
            flat = new.reshape(-1)
            for start in range(0, old.size, ADAM_BLOCK):
                block = slice(start, start + ADAM_BLOCK)
                g, mb, vb, out = grad[block], m[block], v[block], flat[block]
                u, d = upd[: g.size], den[: g.size]
                mb *= b1
                np.multiply(g, 1.0 - b1, out=u)
                mb += u
                vb *= b2
                np.multiply(g, 1.0 - b2, out=u)
                u *= g
                vb += u
                np.divide(mb, bias1, out=u)
                u *= lr
                np.divide(vb, bias2, out=d)
                np.sqrt(d, out=d)
                d += eps
                u /= d
                np.subtract(old[block], u, out=out)
                if decay:
                    np.multiply(out, lr * weight_decay, out=u)
                    out -= u
                if not np.isfinite(out, out=finite[: g.size]).all():
                    raise RuntimeFailure(f"non-finite update of {name!r}", items=[{"parameter": name}])
            p.data = new


def zero_grads(named_params: Mapping[str, Tensor]) -> None:
    for p in named_params.values():
        p.grad = None


# -- batching ---------------------------------------------------------------


def _pad_audio(arrays: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack variable-length embedding sequences with zero padding."""
    frames = np.array([a.shape[0] for a in arrays])
    dim = arrays[0].shape[1]
    out = np.zeros((len(arrays), int(frames.max()), dim), dtype=np.float64)
    for i, a in enumerate(arrays):
        out[i, : a.shape[0]] = a
    return out, live_positions(frames, out.shape[1]), frames


def _pad_ids(seqs: Sequence[list[int]], pad_id: int) -> np.ndarray:
    width = max(len(s) for s in seqs)
    out = np.full((len(seqs), width), pad_id, dtype=np.int64)
    for i, s in enumerate(seqs):
        out[i, : len(s)] = s
    return out


class Trainer:
    """Drives epochs over a corpus index; owns optimizer and RNG streams.

    Streams are spawned from the config seed in a fixed order (captions,
    batch order, mixup, masking, dropout), so disabling one augmentation
    never perturbs the draws of another.
    """

    def __init__(
        self,
        model: MultilingualModel,
        train_corpus: CorpusIndex,
        cfg: TrainConfig,
        val_corpus: CorpusIndex | None = None,
    ):
        for corpus in (train_corpus, val_corpus):
            if corpus is None:
                continue
            missing = [l.value for l in corpus.languages if l not in model.heads]
            if missing:
                raise ValidationError(f"corpus languages without model heads: {missing}")
        self.model = model
        self.corpus = train_corpus
        self.val_corpus = val_corpus
        self.cfg = cfg
        self.optimizer = AdamW(betas=cfg.adam_betas, eps=cfg.adam_eps)
        self.decay_names = model.decay_parameter_names()
        seqs = np.random.SeedSequence(cfg.seed).spawn(5)
        self.rng_captions = np.random.default_rng(seqs[0])
        self.rng_order = np.random.default_rng(seqs[1])
        self.rng_mixup = np.random.default_rng(seqs[2])
        self.rng_specaug = np.random.default_rng(seqs[3])
        self.rng_dropout = np.random.default_rng(seqs[4])

    # -- batch assembly --

    def _batch(
        self, corpus: CorpusIndex, language: Language, audio_ids: Sequence[str], captions: Sequence[str]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(ids, audio, frame_mask, frame_counts) of one batch: each caption's
        BOS..EOS ids, cut to max_len - 1 words and padded, and the padded
        audio of each id."""
        vocab = self.model.vocab(language)
        max_words = self.model.config.max_len - 1
        ids = _pad_ids([vocab.encode(tokenize(c)[:max_words]) for c in captions], vocab.pad_id)
        return ids, *_pad_audio([corpus.embeddings[a] for a in audio_ids])

    def _loss(
        self,
        language: Language,
        ids: np.ndarray,
        audio: np.ndarray,
        frame_mask: np.ndarray,
        mixup: MixupDraw | None = None,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """The smoothed loss of predicting ids[:, 1:] from ids[:, :-1].
        Dropout runs iff `rng` is given, mixup iff a draw is given."""
        dec_in, targets = ids[:, :-1], ids[:, 1:]
        pad_id = self.model.vocab(language).pad_id
        # positions no loss term reaches skip every row-wise layer
        lengths = loss_lengths(targets, pad_id, mixup)
        logits = self.model.forward(
            audio, dec_in, language, frame_mask=frame_mask, rng=rng, mixup=mixup, lengths=lengths
        )
        return smoothed_cross_entropy(logits, targets, self.cfg.label_smoothing_eps, pad_id, mixup, lengths)

    def _make_batches(self, epoch_corpus: CorpusIndex) -> list[tuple[Language, list[str]]]:
        """Language-homogeneous batches covering every (audio, language) pair once."""
        batches: list[tuple[Language, list[str]]] = []
        for lang in epoch_corpus.languages:
            ids = list(epoch_corpus.audio_ids)
            order = self.rng_order.permutation(len(ids))
            shuffled = [ids[i] for i in order]
            for i in range(0, len(shuffled), self.cfg.batch_size):
                batches.append((lang, shuffled[i : i + self.cfg.batch_size]))
        batch_order = self.rng_order.permutation(len(batches))
        return [batches[i] for i in batch_order]

    def _train_batch(self, language: Language, audio_ids: list[str], lr: float) -> float:
        """One update on one batch; returns its loss. No parameter holds a
        gradient afterwards.

        A non-finite loss raises RuntimeFailure before any gradient is taken,
        so the weights and optimizer state stay as they were. A non-finite
        update raises RuntimeFailure naming the parameter; the parameters the
        step updated before it stay updated (see `AdamW.step`).
        """
        cfg = self.cfg
        captions = [
            sample_caption(self.corpus.captions[a][language], self.rng_captions) for a in audio_ids
        ]
        ids, audio, frame_mask, frame_counts = self._batch(self.corpus, language, audio_ids, captions)
        if cfg.specaug is not None:
            audio = spec_mask(audio, frame_counts, cfg.specaug, self.rng_specaug)
        mixup = draw_mixup(len(audio_ids), cfg.mixup_alpha, self.rng_mixup) if cfg.mixup_alpha > 0 else None
        loss = self._loss(language, ids, audio, frame_mask, mixup, self.rng_dropout)

        value = loss.item()
        if not math.isfinite(value):
            raise RuntimeFailure(f"non-finite training loss {value}")
        params = self.model.named_parameters(language)
        zero_grads(params)  # a gradient left by the caller's own backward is not this batch's
        try:
            loss.backward()
            self.optimizer.step(params, lr, cfg.weight_decay, self.decay_names)
        finally:
            zero_grads(params)  # no gradient outlives its step
        return value

    def run_epoch(self, epoch: int) -> dict:
        """One multilingual epoch: each (audio, language) pair exactly once.
        Returns the epoch's record, the line `fit` logs: `epoch`, `lr`,
        `train_loss`, `val_loss` (None without a validation corpus), `seconds`,
        `n_examples`, `n_updates` and `per_language` (pairs by language code).
        A step's RuntimeFailure is raised again naming its batch: the message
        gains `at epoch E, batch B, language 'xx'`, its first item the
        `epoch`, `batch_index`, `language` and `audio_ids`. A non-finite
        validation loss raises RuntimeFailure naming the epoch."""
        t0 = time.monotonic()
        lr = cosine_lr(epoch, self.cfg.epochs, self.cfg.lr0)
        batches = self._make_batches(self.corpus)
        losses = []
        per_language: dict[str, int] = {}
        for batch_index, (language, audio_ids) in enumerate(batches):
            try:
                losses.append(self._train_batch(language, audio_ids, lr))
            except RuntimeFailure as exc:  # the step cannot say which batch it was
                at = f"at epoch {epoch}, batch {batch_index}, language {language.value!r}"
                where = {"epoch": epoch, "batch_index": batch_index, "language": language.value, "audio_ids": audio_ids}
                first = where | (exc.items[0] if exc.items else {})
                raise RuntimeFailure(f"{exc.message} {at}", items=[first]) from exc
            per_language[language.value] = per_language.get(language.value, 0) + len(audio_ids)
        val_loss = self.evaluate_loss(self.val_corpus) if self.val_corpus is not None else None
        if val_loss is not None and not math.isfinite(val_loss):  # finite weights can still overflow it
            raise RuntimeFailure(f"non-finite validation loss {val_loss} at epoch {epoch}", items=[{"epoch": epoch}])
        return {
            "epoch": epoch,
            "lr": lr,
            "train_loss": float(np.mean(losses)),
            "val_loss": val_loss,
            "seconds": time.monotonic() - t0,
            "n_examples": sum(per_language.values()),
            "n_updates": len(batches),
            "per_language": per_language,
        }

    def evaluate_loss(self, corpus: CorpusIndex) -> float:
        """Mean dropout-free loss over a corpus (no updates, no augmentation),
        each audio scored against its first caption."""
        losses = []
        audio_ids = list(corpus.audio_ids)
        for language in corpus.languages:
            for i in range(0, len(audio_ids), self.cfg.batch_size):
                chunk = audio_ids[i : i + self.cfg.batch_size]
                captions = [corpus.captions[a][language][0] for a in chunk]
                ids, audio, frame_mask, _ = self._batch(corpus, language, chunk, captions)
                with ad.no_grad():
                    losses.append(self._loss(language, ids, audio, frame_mask).item())
        return float(np.mean(losses))

    def fit(self, metrics_path: str | Path | None = None) -> list[dict]:
        """Train for cfg.epochs epochs; returns every epoch's record. With a
        metrics path, the JSONL log of every finished epoch's record is
        rewritten atomically after each epoch."""
        history = []
        for epoch in range(self.cfg.epochs):
            history.append(self.run_epoch(epoch))
            if metrics_path:
                with atomic_write(metrics_path) as f:
                    f.writelines(dump_json(record) + "\n" for record in history)
        return history
