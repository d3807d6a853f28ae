"""Caption decoder: projection front-end, transformer trunk, language heads.

The trunk (front-end projection plus decoder stack) is shared by all
languages; each language owns an embedding matrix and an output classifier
sized to its vocabulary. A monolingual model is the one-head special case.

Width defaults to 256: the reported per-language classifier sizes divide by
the vocabulary sizes to ~257 = width + bias, so 256 is the implied width.
It stays configurable.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from dataclasses import dataclass, field, asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from polycap import autodiff as ad
from polycap.autodiff import Tensor
from polycap.errors import ValidationError, is_integer, is_real
from polycap.files import atomic_write
from polycap.text import Language, Vocabulary

FROZEN_ENCODER_PARAMS = 28_000_000  # reporting constant; the audio encoder is external
NEG_INF = -1e9

CKPT_MAGIC = b"ACKP"
CKPT_VERSION = 1


class UnknownLanguageError(ValidationError):
    pass


class SequenceTooLongError(ValidationError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    d_in: int = 768
    d_model: int = 256
    n_layers: int = 6
    n_heads: int = 4
    d_ff: int = 2048
    trunk_dropout: float = 0.2
    frontend_dropout: float = 0.5
    max_len: int = 40

    def __post_init__(self):
        problems = []
        dims = (("d_in", 1), ("d_model", 1), ("n_layers", 0), ("n_heads", 1), ("d_ff", 1), ("max_len", 2))
        for name, low in dims:
            value = getattr(self, name)
            if not is_integer(value) or value < low:
                problems.append(f"{name}={value!r} must be an integer >= {low}")
        for name in ("trunk_dropout", "frontend_dropout"):
            p = getattr(self, name)
            if not is_real(p) or not 0.0 <= p < 1.0:
                problems.append(f"{name}={p!r} must be a number in [0, 1)")
        if not problems and self.d_model % self.n_heads != 0:
            problems.append(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if problems:
            raise ValidationError("bad model config", items=problems)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "ModelConfig":
        if not isinstance(d, Mapping):
            raise ValidationError(f"bad model config: expected an object, got {type(d).__name__}")
        try:
            return cls(**dict(d))
        except TypeError as exc:
            raise ValidationError(f"bad model config: {exc}") from exc


@dataclass
class MixupDraw:
    """One batch's mixup draw: interpolation weight and partner permutation."""

    lam: float
    partner: np.ndarray

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValidationError(f"mixup lambda {self.lam} outside [0, 1]")

    def mix(self, x: np.ndarray) -> np.ndarray:
        """Each row of x's leading axis mixed with its partner's row."""
        return x * self.lam + x[self.partner] * (1.0 - self.lam)


def _uniform_init(rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    if rng is None:  # a loader fills every parameter
        return np.empty(shape)
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    def __init__(self, rng: np.random.Generator | None, d_in: int, d_out: int):
        self.weight = Tensor(_uniform_init(rng, (d_in, d_out), d_in), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor, activation: str | None = None, keep=None, p: float = 0.0) -> Tensor:
        """x @ weight + bias, then the activation (None, "relu" or "gelu"),
        then dropout with the keep-mask `keep` at rate p (None: no dropout)."""
        return ad.linear(x, self.weight, self.bias, activation, keep, p)

    def params(self) -> list[tuple[str, Tensor]]:
        return [("weight", self.weight), ("bias", self.bias)]


class LayerNorm:
    def __init__(self, d: int, eps: float = 1e-5):
        self.gain = Tensor(np.ones(d), requires_grad=True)
        self.bias = Tensor(np.zeros(d), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor, h: Tensor, keep: np.ndarray | None = None, p: float = 0.0) -> Tensor:
        """LayerNorm(x + dropout(h)), keep-mask `keep` at rate p (None: no dropout)."""
        return ad.add_norm(x, h, keep, p, self.gain, self.bias, self.eps)

    def params(self) -> list[tuple[str, Tensor]]:
        return [("gain", self.gain), ("bias", self.bias)]


def _keep_mask(
    shape: tuple[int, ...], p: float, rng: np.random.Generator | None, live=None
) -> np.ndarray | None:
    """Boolean dropout keep-mask for an array of `shape`, True with
    probability 1-p. Dropout runs iff a generator is given: without `rng`, or
    at p 0, the mask is None and nothing is drawn. With `live`, the array
    holds the live rows of a padded batch: the mask is drawn at the padded
    shape, so the draw does not depend on the packing, and then indexed."""
    if rng is None or p <= 0.0:
        return None
    if live is None:
        return rng.random(shape) >= p
    return (rng.random(live.shape + shape[-1:]) >= p)[live]


def live_positions(lengths: np.ndarray, width: int) -> np.ndarray:
    """(b, width) boolean mask of each row's first lengths[row] positions."""
    lengths = np.asarray(lengths)
    if lengths.ndim != 1 or not np.issubdtype(lengths.dtype, np.integer):
        raise ValidationError(f"lengths must be a 1-D integer array, got {lengths.dtype} {lengths.shape}")
    if lengths.size and not 0 <= lengths.min() <= lengths.max() <= width:
        raise ValidationError(f"lengths must lie in [0, {width}], got {lengths.min()}..{lengths.max()}")
    return np.arange(width) < lengths[:, None]


class MultiHeadAttention:
    def __init__(self, rng: np.random.Generator | None, d_model: int, n_heads: int, p_drop: float):
        self.n_heads = n_heads
        self.p_drop = p_drop
        self.wq = Linear(rng, d_model, d_model)
        self.wk = Linear(rng, d_model, d_model)
        self.wv = Linear(rng, d_model, d_model)
        self.wo = Linear(rng, d_model, d_model)

    def __call__(
        self, query: Tensor, memory, additive_mask: np.ndarray | None, rng, live=None, cache=None
    ) -> Tensor:
        """Scaled dot-product attention of `query`, flat (rows, d_model), over
        `memory`: a Tensor to project, or a (keys, values) pair from
        `keys_values`, whose leading axis of 1 broadcasts over the batch.
        Without `live`, each query row is one position. With `live`, a (b, t)
        mask, query and flat memory rows are the live positions of a padded
        batch (see `autodiff.attention`). `cache`, a [keys, values] pair of
        (rows, t, d_model) arrays, holds the earlier positions' keys/values:
        the call appends the new position's to it in place and attends over
        them all. The dropout generator `rng`, if given, draws the
        attention-weight keep-mask."""
        keys, values = memory if isinstance(memory, tuple) else self.keys_values(memory)
        if cache is not None:
            cache[0] = np.concatenate([cache[0], keys.data[:, None]], axis=1)
            cache[1] = np.concatenate([cache[1], values.data[:, None]], axis=1)
            keys, values = Tensor(cache[0]), Tensor(cache[1])
        q = self.wq(query)
        b, t = live.shape if live is not None else (q.shape[0], 1)
        s = keys.shape[1] if len(keys.shape) == 3 else t  # flat keys: packed self-attention
        keep = _keep_mask((b, self.n_heads, t, s), self.p_drop, rng)
        return self.wo(ad.attention(q, keys, values, self.n_heads, additive_mask, keep, self.p_drop, live))

    def keys_values(self, memory: Tensor) -> tuple[Tensor, Tensor]:
        """Projected keys and values of `memory`, one row per memory row."""
        return self.wk(memory), self.wv(memory)

    def params(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, lin in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            out.extend((f"{name}.{p}", t) for p, t in lin.params())
        return out


class DecoderLayer:
    """Post-norm decoder block: masked self-attention, cross-attention, GELU FF."""

    def __init__(self, rng: np.random.Generator | None, cfg: ModelConfig):
        d = cfg.d_model
        self.p_drop = cfg.trunk_dropout
        self.self_attn = MultiHeadAttention(rng, d, cfg.n_heads, cfg.trunk_dropout)
        self.cross_attn = MultiHeadAttention(rng, d, cfg.n_heads, cfg.trunk_dropout)
        self.w1 = Linear(rng, d, cfg.d_ff)
        self.w2 = Linear(rng, cfg.d_ff, d)
        self.norm1 = LayerNorm(d)
        self.norm2 = LayerNorm(d)
        self.norm3 = LayerNorm(d)

    def __call__(self, x, memory, causal_mask, memory_mask, rng, live=None, cache=None):
        """x holds flat rows: with a (b, t) `live` mask the live positions of
        a padded batch, without one a single position per row. `memory` and
        `cache` go to cross- and self-attention (see `MultiHeadAttention`);
        every op but attention is row-wise. Training, validation and cached
        decoding all run this body."""
        # perfbench's tracer tells self- from cross-attention by the query
        # and the memory being one object, so self-attention passes x twice
        h = self.self_attn(x, x, causal_mask, rng, live, cache)
        x = self.norm1(x, h, _keep_mask(h.shape, self.p_drop, rng, live), self.p_drop)
        h = self.cross_attn(x, memory, memory_mask, rng, live)
        x = self.norm2(x, h, _keep_mask(h.shape, self.p_drop, rng, live), self.p_drop)
        keep = _keep_mask(x.shape[:-1] + self.w1.bias.shape, self.p_drop, rng, live)
        h = self.w2(self.w1(x, "gelu", keep, self.p_drop))
        return self.norm3(x, h, _keep_mask(h.shape, self.p_drop, rng, live), self.p_drop)

    def params(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, mod in (
            ("self_attn", self.self_attn),
            ("cross_attn", self.cross_attn),
            ("ff.w1", self.w1),
            ("ff.w2", self.w2),
            ("norm1", self.norm1),
            ("norm2", self.norm2),
            ("norm3", self.norm3),
        ):
            out.extend((f"{name}.{p}", t) for p, t in mod.params())
        return out


class LanguageHead:
    """Per-language token embedding and output classifier (untied)."""

    def __init__(self, rng: np.random.Generator | None, language: Language, vocab: Vocabulary, d_model: int):
        self.language = language
        self.vocab = vocab
        self.embedding = Tensor(
            _uniform_init(rng, (vocab.size, d_model), d_model), requires_grad=True
        )
        self.classifier = Linear(rng, d_model, vocab.size)

    def params(self) -> list[tuple[str, Tensor]]:
        return [
            ("embedding.weight", self.embedding),
            ("classifier.weight", self.classifier.weight),
            ("classifier.bias", self.classifier.bias),
        ]


def sinusoidal_encoding(max_len: int, d_model: int) -> np.ndarray:
    """Fixed sine/cosine table added to target-token embeddings, one row per
    position below max_len. Each row is computed on its own, so the table
    for t positions is the first t rows of any longer one; callers build it
    only up to the positions they use."""
    pos = np.arange(max_len)[:, None]
    i = np.arange(d_model)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / d_model)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return table


class MultilingualModel:
    """Shared trunk plus one head per registered language."""

    def __init__(self, config: ModelConfig, vocabs: Mapping[Language, Vocabulary], seed: int = 0):
        self._build(config, vocabs, np.random.default_rng(seed))

    @classmethod
    def _unfilled(cls, config: ModelConfig, vocabs: Mapping[Language, Vocabulary]) -> "MultilingualModel":
        """Weight matrices allocated but not initialized, for a loader that
        fills every parameter."""
        model = cls.__new__(cls)
        model._build(config, vocabs, None)
        return model

    def _build(
        self,
        config: ModelConfig,
        vocabs: Mapping[Language, Vocabulary],
        rng: np.random.Generator | None,
    ) -> None:
        if not vocabs:
            raise ValidationError("model needs at least one language head")
        self.config = config
        self.frontend = Linear(rng, config.d_in, config.d_model)
        self.layers = [DecoderLayer(rng, config) for _ in range(config.n_layers)]
        # heads initialized in stable language order so seeds are reproducible
        self.heads: dict[Language, LanguageHead] = {}
        for lang in sorted(vocabs, key=lambda l: l.ordinal):
            self.heads[lang] = LanguageHead(rng, lang, vocabs[lang], config.d_model)

    @property
    def languages(self) -> tuple[Language, ...]:
        return tuple(self.heads.keys())

    def vocab(self, language: Language) -> Vocabulary:
        return self.head(language).vocab

    def head(self, language: Language) -> LanguageHead:
        try:
            return self.heads[language]
        except KeyError:
            raise UnknownLanguageError(
                f"no head registered for language {language.value!r}"
            ) from None

    # -- parameters ----------------------------------------------------

    def named_parameters(self, language: Language | None = None) -> dict[str, Tensor]:
        """Trunk parameters plus either one language's head or all heads."""
        out: dict[str, Tensor] = {}
        for name, t in self.frontend.params():
            out[f"frontend.{name}"] = t
        for i, layer in enumerate(self.layers):
            for name, t in layer.params():
                out[f"trunk.layers.{i}.{name}"] = t
        heads = [self.head(language)] if language is not None else list(self.heads.values())
        for head in heads:
            for name, t in head.params():
                out[f"heads.{head.language.value}.{name}"] = t
        return out

    def decay_parameter_names(self) -> frozenset[str]:
        """Weight matrices subject to decoupled weight decay.

        Biases, normalization gains and embeddings are excluded.
        """
        return frozenset(
            name for name in self.named_parameters() if name.endswith(".weight") and ".embedding." not in name
        )

    # -- forward -------------------------------------------------------

    def encode_audio(self, audio: np.ndarray, rng: np.random.Generator | None) -> Tensor:
        """Project raw audio embeddings through the dropout/dense/ReLU/dropout
        front-end. No gradient reaches the audio, so its dropout is a plain
        array multiply outside the graph."""
        audio = np.asarray(audio, dtype=np.float64)
        p = self.config.frontend_dropout
        x = Tensor(ad.drop(audio, _keep_mask(audio.shape, p, rng), p))
        keep = _keep_mask(audio.shape[:-1] + self.frontend.bias.shape, p, rng)
        return self.frontend(x, "relu", keep, p)

    def forward(
        self,
        audio: np.ndarray,
        target_ids: np.ndarray,
        language: Language,
        *,
        frame_mask: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        mixup: MixupDraw | None = None,
        lengths: np.ndarray | None = None,
    ) -> Tensor:
        """Next-token logits, one row per target position.

        audio: (batch, frames, d_in) raw embedding sequences, zero-padded.
        target_ids: (batch, t) decoder input ids (BOS-first).
        frame_mask: (batch, frames) True on valid frames; None means all valid.
        mixup: optional batch interpolation of audio and token embeddings.
        lengths: (batch,) live positions per row. Causal masking keeps
        position t blind to positions > t, so each row's live positions are a
        prefix, and the positions after it feed nothing that is kept. The
        row-wise layers then run on the live rows only, and the logits are
        (sum(lengths), vocab), row-major over the live positions. None means
        every position is live, and the same logits come shaped (batch, t,
        vocab).
        rng: dropout runs iff a generator is given (training), its masks
        drawn at the padded shape; without one the forward is deterministic.
        """
        head = self.head(language)
        audio = np.asarray(audio, dtype=np.float64)
        target_ids = np.asarray(target_ids)
        b, t = target_ids.shape
        if t > self.config.max_len:
            raise SequenceTooLongError(
                f"target length {t} exceeds max_len {self.config.max_len}"
            )
        if mixup is not None:
            audio = mixup.mix(audio)
            if frame_mask is not None:
                # the partner's frames only become valid when it contributes
                if mixup.lam == 0.0:
                    frame_mask = frame_mask[mixup.partner]
                elif mixup.lam < 1.0:
                    frame_mask = frame_mask | frame_mask[mixup.partner]

        live = live_positions(np.full(b, t) if lengths is None else lengths, t)
        if len(live) != b:
            raise ValidationError(f"{len(live)} lengths for a batch of {b} rows")

        memory = self.encode_audio(audio, rng)

        scale = math.sqrt(self.config.d_model)
        p = self.config.trunk_dropout
        keep = _keep_mask((b, t, self.config.d_model), p, rng, live)
        positions = sinusoidal_encoding(t, self.config.d_model)
        x = ad.embedding(head.embedding, target_ids, scale, mixup, live, positions, keep, p)

        causal = np.triu(np.full((t, t), NEG_INF), k=1)[None, None, :, :]
        memory_mask = None
        if frame_mask is not None:
            memory_mask = np.where(frame_mask, 0.0, NEG_INF)[:, None, None, :]

        for layer in self.layers:
            x = layer(x, memory, causal, memory_mask, rng, live)
        logits = head.classifier(x)
        if lengths is None:
            # a view, no node: no backward reads its own node's output, and
            # the classifier's backward flattens its gradient to rows
            logits.data = logits.data.reshape(b, t, -1)
        return logits


class IncrementalDecoder:
    """Dropout-free next-token logits for one audio sequence in G language
    groups, one new position per call (incremental decoding, Shazeer 2019).

    The front-end output and every layer's cross-attention keys/values are
    computed once per clip, at construction, and serve every group. Each
    group's rows look up their own language's embedding; `advance` stacks the
    rows of all groups, runs the new position once through the shared trunk,
    one flat row per hypothesis through each `DecoderLayer.__call__`, and
    slices the output by group for each language's classifier. Each layer's
    self-attention keys/values of the positions decoded so far are cached per
    row, group after group, in one [keys, values] pair per layer that the
    layer extends in place; each group starts with one empty row.
    `reorder` gathers a group's cached rows by parent index, as a beam keeps,
    drops or duplicates hypotheses. The logits equal
    `MultilingualModel.forward` on the full prefixes up to floating-point
    rounding.
    """

    def __init__(self, model: MultilingualModel, audio: np.ndarray, languages: Sequence[Language]):
        self.model = model
        self.heads = [model.head(language) for language in languages]
        with ad.no_grad():
            memory = model.encode_audio(audio, None)
            self.memory = [layer.cross_attn.keys_values(Tensor(memory.data[None])) for layer in model.layers]
        self.rows = [1] * len(self.heads)
        empty = np.zeros((len(self.heads), 0, model.config.d_model))
        self.caches = [[empty, empty] for _ in model.layers]
        self.length = 0

    def reorder(self, parents: Sequence[np.ndarray]) -> None:
        """Row i of group g becomes that group's old row parents[g][i]."""
        if len(parents) != len(self.rows):
            raise ValidationError(f"expected parents for {len(self.rows)} groups, got {len(parents)}")
        offsets = np.cumsum([0, *self.rows[:-1]])
        rows = np.concatenate(
            [offset + np.asarray(p, dtype=np.intp) for offset, p in zip(offsets, parents)]
        )
        for cache in self.caches:  # layer by layer, so one layer's old rows go at a time
            cache[0], cache[1] = cache[0][rows], cache[1][rows]
        self.rows = [len(p) for p in parents]

    def advance(self, ids: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Append one token id per row of each group; return each group's
        (rows, vocab) next-token logits. A group may have zero rows, but not
        all of them."""
        if [len(group) for group in ids] != self.rows:
            raise ValidationError(f"expected {self.rows} ids per group, got {[len(g) for g in ids]}")
        if not any(self.rows):
            raise ValidationError("every group has zero rows: nothing to advance")
        if self.length >= self.model.config.max_len:
            raise SequenceTooLongError(
                f"target length {self.length + 1} exceeds max_len {self.model.config.max_len}"
            )
        scale = math.sqrt(self.model.config.d_model)
        pos = sinusoidal_encoding(self.length + 1, self.model.config.d_model)[self.length]
        with ad.no_grad():
            x = Tensor(np.concatenate(
                [ad.embedding(head.embedding, group, scale, positions=pos).data
                 for head, group in zip(self.heads, ids)]
            ))
            for layer, memory, cache in zip(self.model.layers, self.memory, self.caches):
                x = layer(x, memory, None, None, None, cache=cache)
            ends = np.cumsum(self.rows)
            logits = [
                head.classifier(Tensor(x.data[end - n : end])).data
                for head, n, end in zip(self.heads, self.rows, ends)
            ]
        self.length += 1
        return logits


# -- parameter accounting ----------------------------------------------


@dataclass(frozen=True)
class HeadParams:
    embedding: int
    classifier: int

    @property
    def total(self) -> int:
        return self.embedding + self.classifier


@dataclass(frozen=True)
class ParamReport:
    frontend: int
    trunk: int
    heads: dict[str, HeadParams] = field(default_factory=dict)
    frozen_encoder: int = FROZEN_ENCODER_PARAMS

    @property
    def trainable_total(self) -> int:
        return self.frontend + self.trunk + sum(h.total for h in self.heads.values())

    @property
    def grand_total(self) -> int:
        return self.trainable_total + self.frozen_encoder

    def to_dict(self) -> dict:
        return {
            "frontend": self.frontend,
            "trunk": self.trunk,
            "heads": {
                code: {"embedding": h.embedding, "classifier": h.classifier, "total": h.total}
                for code, h in self.heads.items()
            },
            "trainable_total": self.trainable_total,
            "frozen_encoder": self.frozen_encoder,
            "grand_total": self.grand_total,
        }


def param_report(config: ModelConfig, vocab_sizes: Mapping[Language, int]) -> ParamReport:
    """Closed-form parameter counts for a configuration (no tensors allocated)."""
    d, dff = config.d_model, config.d_ff
    attn = 4 * d * d + 4 * d
    ff = d * dff + dff + dff * d + d
    norms = 3 * 2 * d
    per_layer = 2 * attn + ff + norms
    heads = {
        lang.value: HeadParams(embedding=v * d, classifier=d * v + v)
        for lang, v in vocab_sizes.items()
    }
    return ParamReport(
        frontend=config.d_in * d + d,
        trunk=config.n_layers * per_layer,
        heads=heads,
    )


def size_comparison(mono_reports: Sequence[ParamReport], multi_report: ParamReport) -> float:
    """Relative size reduction (%) of one multilingual model vs. monolinguals.

    Compares grand totals: (sum of mono totals - multi total) / sum of monos.
    """
    mono_langs = sorted(code for r in mono_reports for code in r.heads)
    multi_langs = sorted(multi_report.heads)
    if mono_langs != multi_langs:
        raise ValidationError(
            f"language sets differ: monolinguals {mono_langs} vs multilingual {multi_langs}"
        )
    mono_sum = sum(r.grand_total for r in mono_reports)
    return (mono_sum - multi_report.grand_total) / mono_sum * 100.0


# -- checkpointing ------------------------------------------------------


def save_checkpoint(model: MultilingualModel, path: str | Path) -> None:
    """Single-container checkpoint: JSON meta block + named float64 tensors,
    each written straight from its parameter array, atomically."""
    meta = {
        "model_config": model.config.to_dict(),
        "languages": [lang.value for lang in model.languages],
        "vocabs": {
            lang.value: json.loads(model.vocab(lang).to_json()) for lang in model.languages
        },
    }
    meta_bytes = json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8")
    params = model.named_parameters()
    blob = [CKPT_MAGIC, struct.pack("<II", CKPT_VERSION, len(meta_bytes)), meta_bytes]
    blob.append(struct.pack("<I", len(params)))
    for name, t in params.items():
        name_bytes = name.encode("utf-8")
        arr = np.ascontiguousarray(t.data, dtype="<f8")
        blob.append(struct.pack("<I", len(name_bytes)))
        blob.append(name_bytes)
        blob.append(struct.pack("<I", arr.ndim))
        blob.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        blob.append(memoryview(arr).cast("B"))  # the parameter's own bytes, no copy
    with atomic_write(path, binary=True) as f:
        f.writelines(blob)


def load_checkpoint(path: str | Path, digest=None) -> MultilingualModel:
    """Rebuild a model from a checkpoint, bit-exactly.

    Each tensor is read straight into its parameter array. Every read is
    bounds-checked against the file size, so a truncated file, trailing bytes
    or a tensor that does not match the model fail as ValidationError.
    `digest`, a hashlib object, is fed every byte as it is read, so after a
    successful load it has hashed exactly the file the model came from.
    """
    path = Path(path)
    try:
        f = path.open("rb")
    except OSError as exc:
        raise ValidationError(f"cannot read checkpoint {path}: {exc}") from exc
    hashed = (lambda data: None) if digest is None else digest.update
    with f:
        size = os.fstat(f.fileno()).st_size

        def need(n: int, what: str) -> None:
            if f.tell() + n > size:
                raise ValidationError(f"{path}: truncated checkpoint (reading {what})")

        def read(n: int, what: str) -> bytes:
            need(n, what)
            data = f.read(n)
            hashed(data)
            return data

        def read_u32(what: str) -> int:
            return struct.unpack("<I", read(4, what))[0]

        magic = f.read(4)
        hashed(magic)
        if magic != CKPT_MAGIC:
            raise ValidationError(f"{path}: not a checkpoint file (bad magic)")
        version, meta_len = struct.unpack("<II", read(8, "header"))
        if version != CKPT_VERSION:
            raise ValidationError(f"{path}: unsupported checkpoint version {version}")
        try:
            meta = json.loads(read(meta_len, "metadata").decode("utf-8"))
            config = ModelConfig.from_dict(meta["model_config"])
            vocabs = {
                Language.parse(code): Vocabulary.from_json(json.dumps(doc))
                for code, doc in meta["vocabs"].items()
            }
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, AttributeError) as exc:
            raise ValidationError(f"{path}: bad checkpoint metadata ({exc!r})") from exc
        n_params = param_report(config, {lang: v.size for lang, v in vocabs.items()}).trainable_total
        if 8 * n_params > size - f.tell():
            raise ValidationError(
                f"{path}: metadata describes {n_params} parameters ({8 * n_params} bytes), "
                f"but only {size - f.tell()} bytes follow it"
            )
        model = MultilingualModel._unfilled(config, vocabs)
        params = model.named_parameters()
        seen = set()
        for _ in range(read_u32("tensor count")):
            name = read(read_u32("tensor name length"), "tensor name").decode("utf-8", "replace")
            if name not in params or name in seen:
                raise ValidationError(f"{path}: unexpected or repeated tensor {name!r}")
            ndim = read_u32(f"{name} rank")
            shape = struct.unpack(f"<{ndim}I", read(4 * ndim, f"{name} shape"))
            target = params[name].data
            if target.shape != shape:
                raise ValidationError(f"{path}: shape mismatch for {name!r}")
            need(target.nbytes, name)
            view = memoryview(target).cast("B")
            f.readinto(view)
            hashed(view)
            if sys.byteorder == "big":
                target.byteswap(inplace=True)
            seen.add(name)
        if f.tell() != size:
            raise ValidationError(f"{path}: {size - f.tell()} trailing bytes after the last tensor")
    missing = set(params) - seen
    if missing:
        raise ValidationError(f"{path}: missing tensors", items=sorted(missing))
    return model
