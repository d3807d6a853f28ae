"""Caption decoder: projection front-end, transformer trunk, language heads.

The trunk (front-end projection plus decoder stack) is shared by all
languages; each language owns an embedding matrix and an output classifier
sized to its vocabulary. A monolingual model is the one-head special case.

Width defaults to 256: the reported per-language classifier sizes divide by
the vocabulary sizes to ~257 = width + bias, so 256 is the implied width.
It stays configurable.
"""

from __future__ import annotations

import importlib
import json
import math
import mmap
import os
import struct
import sys
import weakref
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from polycap import autodiff as ad
from polycap.autodiff import Tensor
from polycap.errors import RuntimeFailure, ValidationError, config_from_json, integer_problems, is_real
from polycap.files import atomic_write, open_regular, parse_json
from polycap.text import Language, Vocabulary, repeated_languages

FROZEN_ENCODER_PARAMS = 28_000_000  # reporting constant; the audio encoder is external
NEG_INF = -1e9
LAYER_NORM_EPS = 1e-5

CKPT_MAGIC = b"ACKP"
CKPT_VERSION = 2
CKPT_ALIGN = {1: 1, 2: 8}  # by version: the file offsets a tensor's data starts at are multiples of this


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
        dims = (("d_in", 1), ("d_model", 1), ("n_layers", 0), ("n_heads", 1), ("d_ff", 1), ("max_len", 2))
        problems = integer_problems((name, getattr(self, name), low) for name, low in dims)
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


class Linear:
    def __init__(self, params: Mapping[str, Tensor], name: str):
        self.weight, self.bias = params[f"{name}.weight"], params[f"{name}.bias"]

    def __call__(self, x: Tensor, activation: str | None = None, keep=None, p: float = 0.0) -> Tensor:
        """x @ weight + bias, then the activation (None, "relu" or "gelu"),
        then dropout with the keep-mask `keep` at rate p (None: no dropout)."""
        return ad.linear(x, self.weight, self.bias, activation, keep, p)


class LayerNorm:
    def __init__(self, params: Mapping[str, Tensor], name: str):
        self.gain, self.bias = params[f"{name}.gain"], params[f"{name}.bias"]

    def __call__(self, x: Tensor, h: Tensor, keep: np.ndarray | None = None, p: float = 0.0) -> Tensor:
        """LayerNorm(x + dropout(h)), keep-mask `keep` at rate p (None: no dropout)."""
        return ad.add_norm(x, h, keep, p, self.gain, self.bias, LAYER_NORM_EPS)


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
    def __init__(self, params: Mapping[str, Tensor], name: str, n_heads: int, p_drop: float):
        self.n_heads = n_heads
        self.p_drop = p_drop
        self.wq, self.wk, self.wv, self.wo = (Linear(params, f"{name}.{w}") for w in ("wq", "wk", "wv", "wo"))

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


class DecoderLayer:
    """Post-norm decoder block: masked self-attention, cross-attention, GELU FF."""

    def __init__(self, params: Mapping[str, Tensor], name: str, cfg: ModelConfig):
        self.p_drop = cfg.trunk_dropout
        self.self_attn = MultiHeadAttention(params, f"{name}.self_attn", cfg.n_heads, cfg.trunk_dropout)
        self.cross_attn = MultiHeadAttention(params, f"{name}.cross_attn", cfg.n_heads, cfg.trunk_dropout)
        self.w1 = Linear(params, f"{name}.ff.w1")
        self.w2 = Linear(params, f"{name}.ff.w2")
        self.norm1, self.norm2, self.norm3 = (LayerNorm(params, f"{name}.norm{k}") for k in (1, 2, 3))
        # GELU's scipy.special (about 0.25 s, once per process) loads with the
        # layer that runs it, not in its first forward
        importlib.import_module("scipy.special")

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


class LanguageHead:
    """Per-language token embedding and output classifier (untied)."""

    def __init__(self, params: Mapping[str, Tensor], name: str, vocab: Vocabulary):
        self.vocab = vocab
        self.embedding = params[f"{name}.embedding.weight"]
        self.classifier = Linear(params, f"{name}.classifier")


def parameter_table(config: ModelConfig, vocab_sizes: Mapping[Language, int]) -> dict[str, tuple[int, ...]]:
    """Every trainable parameter's name and shape, in the order the model
    draws their initial values and a checkpoint stores them: the front-end,
    each decoder layer, then each head in language order."""
    d, table = config.d_model, {}

    def linear(name: str, d_in: int, d_out: int) -> None:
        table[f"{name}.weight"] = (d_in, d_out)
        table[f"{name}.bias"] = (d_out,)

    linear("frontend", config.d_in, d)
    for i in range(config.n_layers):
        layer = f"trunk.layers.{i}"
        for attn in ("self_attn", "cross_attn"):
            for w in ("wq", "wk", "wv", "wo"):
                linear(f"{layer}.{attn}.{w}", d, d)
        linear(f"{layer}.ff.w1", d, config.d_ff)
        linear(f"{layer}.ff.w2", config.d_ff, d)
        for k in (1, 2, 3):
            table[f"{layer}.norm{k}.gain"] = (d,)
            table[f"{layer}.norm{k}.bias"] = (d,)
    for lang in sorted(vocab_sizes, key=lambda l: l.ordinal):
        table[f"heads.{lang.value}.embedding.weight"] = (vocab_sizes[lang], d)
        linear(f"heads.{lang.value}.classifier", d, vocab_sizes[lang])
    return table


def sinusoidal_encoding(max_len: int, d_model: int, start: int = 0) -> np.ndarray:
    """Fixed sine/cosine table added to target-token embeddings, one row per
    position from `start` up to max_len. Each row is computed on its own,
    so the rows of positions a..b are the same in any table that holds them;
    callers build only the positions they use."""
    pos = np.arange(start, max_len)[:, None]
    i = np.arange(d_model)[None, :]
    angles = pos / np.power(10000.0, (2 * (i // 2)) / d_model)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return table


class MultilingualModel:
    """Shared trunk plus one head per registered language."""

    source: MappedCheckpoint | None = None  # set by `load_checkpoint`

    def __init__(self, config: ModelConfig, vocabs: Mapping[Language, Vocabulary], seed: int = 0):
        self._build(config, vocabs, np.random.default_rng(seed))

    @classmethod
    def _from_arrays(
        cls, config: ModelConfig, vocabs: Mapping[Language, Vocabulary], arrays: Mapping[str, np.ndarray]
    ) -> "MultilingualModel":
        """A model whose parameters are the loader's `arrays`, by table name,
        used as they are: nothing is allocated or copied."""
        model = cls.__new__(cls)
        model._build(config, vocabs, arrays)
        return model

    def _build(
        self,
        config: ModelConfig,
        vocabs: Mapping[Language, Vocabulary],
        init: np.random.Generator | Mapping[str, np.ndarray],
    ) -> None:
        """Every parameter of the table, in table order: the array of its
        name if `init` maps names to arrays, else drawn from the generator
        `init`: weight matrices uniform in +-1/sqrt(fan-in) (an embedding's
        fan-in is d_model), biases zeros, LayerNorm gains ones."""
        if not vocabs:
            raise ValidationError("model needs at least one language head")
        self.config = config
        self._params: dict[str, Tensor] = {}
        for name, shape in parameter_table(config, {lang: v.size for lang, v in vocabs.items()}).items():
            if isinstance(init, Mapping):
                data = init[name]
            elif name.endswith(".bias"):
                data = np.zeros(shape)
            elif name.endswith(".gain"):
                data = np.ones(shape)
            else:
                bound = 1.0 / math.sqrt(config.d_model if name.endswith(".embedding.weight") else shape[0])
                data = init.uniform(-bound, bound, size=shape)
            self._params[name] = Tensor(data, requires_grad=True)
        self.frontend = Linear(self._params, "frontend")
        self.layers = [DecoderLayer(self._params, f"trunk.layers.{i}", config) for i in range(config.n_layers)]
        self.heads = {
            lang: LanguageHead(self._params, f"heads.{lang.value}", vocabs[lang])
            for lang in sorted(vocabs, key=lambda l: l.ordinal)
        }

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
        """Trunk parameters plus either one language's head or all heads, in
        `parameter_table` order."""
        if language is None:
            return dict(self._params)
        self.head(language)  # an unknown language fails here
        own = f"heads.{language.value}."
        return {name: t for name, t in self._params.items() if not name.startswith("heads.") or name.startswith(own)}

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
                # a frame is valid where a row with a nonzero share has it
                frame_mask = mixup.mix(frame_mask) > 0

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


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, shifted by the row maximum first."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class IncrementalDecoder:
    """The cached grouped step function (`decoding.GroupStepFn`) of one audio
    sequence in G language groups: each call scores one new position
    (incremental decoding, Shazeer 2019), dropout-free.

    The front-end output and every layer's cross-attention keys/values are
    computed once per clip, at construction, and serve every group. Each
    layer's self-attention keys/values of the positions decoded so far are
    cached per row, group after group, in one [keys, values] pair per layer
    that the layer extends in place; each group starts with one empty row.
    Group g's rows equal the log-softmax of `MultilingualModel.forward` in
    languages[g] on the same prefixes, up to floating-point rounding.
    """

    def __init__(self, model: MultilingualModel, audio: np.ndarray, languages: Sequence[Language]):
        audio = np.asarray(audio, dtype=np.float64)
        if audio.ndim != 2 or audio.shape[1] != model.config.d_in:
            raise ValidationError(f"expected one (frames, {model.config.d_in}) audio sequence, got {audio.shape}")
        self.model = model
        self.heads = [model.head(language) for language in languages]
        with ad.no_grad():
            memory = model.encode_audio(audio, None)
            self.memory = [layer.cross_attn.keys_values(Tensor(memory.data[None])) for layer in model.layers]
        self.rows = [1] * len(self.heads)
        empty = np.zeros((len(self.heads), 0, model.config.d_model))
        self.caches = [[empty, empty] for _ in model.layers]
        self.length = 0

    def __call__(self, prefixes: Sequence[np.ndarray], parents: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Each group's (k_g, vocab_g) next-token log-prob rows. Row i of
        group g extends that group's row parents[g][i] of the previous call
        by the token prefixes[g][i, -1]. A group may have zero rows, but not
        all of them. A rejected call leaves the decoder as it was."""
        if len(prefixes) != len(self.rows) or len(parents) != len(self.rows):
            raise ValidationError(
                f"expected {len(self.rows)} groups, got {len(prefixes)} prefix matrices and {len(parents)} parent lists"
            )
        ids = [np.asarray(p)[:, -1] for p in prefixes]
        parents = [np.asarray(p) for p in parents]
        counts = [len(p) for p in parents]
        if [len(group) for group in ids] != counts:
            raise ValidationError(f"expected one prefix row per parent, got {[len(g) for g in ids]} for {counts}")
        if not any(counts):
            raise ValidationError("every group has zero rows: nothing to advance")
        problems = [
            f"group {g}: {what} must be integers in [0, {n}), got {values.tolist()}"
            for g, (p, group, n_rows, head) in enumerate(zip(parents, ids, self.rows, self.heads))
            for what, values, n in (("parents", p, n_rows), ("token ids", group, head.vocab.size))
            if len(values) and not (values.dtype.kind in "iu" and 0 <= values.min() <= values.max() < n)
        ]
        if problems:
            raise ValidationError("bad decode round", items=problems)
        if self.length >= self.model.config.max_len:
            raise SequenceTooLongError(
                f"target length {self.length + 1} exceeds max_len {self.model.config.max_len}"
            )
        # an empty group's parents or ids may be a float array, as np.asarray([]) is
        ids = [group.astype(np.intp) for group in ids]
        offsets = np.cumsum([0, *self.rows[:-1]])
        rows = np.concatenate([offset + p.astype(np.intp) for offset, p in zip(offsets, parents)])
        for cache in self.caches:  # layer by layer, so one layer's old rows go at a time
            cache[0], cache[1] = cache[0][rows], cache[1][rows]
        self.rows = counts
        scale = math.sqrt(self.model.config.d_model)
        pos = sinusoidal_encoding(self.length + 1, self.model.config.d_model, start=self.length)[0]
        with ad.no_grad():
            x = Tensor(np.concatenate(
                [ad.embedding(head.embedding, group, scale, positions=pos).data
                 for head, group in zip(self.heads, ids)]
            ))
            for layer, memory, cache in zip(self.model.layers, self.memory, self.caches):
                x = layer(x, memory, None, None, None, cache=cache)
            ends = np.cumsum(counts)
            logits = [
                log_softmax(head.classifier(Tensor(x.data[end - n : end])).data)
                for head, n, end in zip(self.heads, counts, ends)
            ]
        self.length += 1
        return logits


# -- parameter accounting ----------------------------------------------


def param_report(config: ModelConfig, vocab_sizes: Mapping[Language, int]) -> dict:
    """A configuration's `params.json` entry: `frontend`, `trunk`, `heads` by
    language code (`embedding`, `classifier`, `total`), `trainable_total`,
    `frozen_encoder` and `grand_total`. Counted from the table's entries for
    the front-end, each head, and layer 0 times n_layers: every layer has the
    same shapes, so no tensor and no table of every layer is built."""
    table = parameter_table(replace(config, n_layers=1), vocab_sizes)

    def count(prefix: str) -> int:
        return sum(math.prod(shape) for name, shape in table.items() if name.startswith(prefix))

    heads = {}
    for lang in vocab_sizes:
        head = {part: count(f"heads.{lang.value}.{part}.") for part in ("embedding", "classifier")}
        heads[lang.value] = head | {"total": sum(head.values())}
    frontend, trunk = count("frontend."), config.n_layers * count("trunk.layers.0.")
    trainable = frontend + trunk + sum(head["total"] for head in heads.values())
    return {
        "frontend": frontend,
        "trunk": trunk,
        "heads": heads,
        "trainable_total": trainable,
        "frozen_encoder": FROZEN_ENCODER_PARAMS,
        "grand_total": trainable + FROZEN_ENCODER_PARAMS,
    }


def size_comparison(mono_reports: Sequence[dict], multi_report: dict) -> float:
    """Relative size reduction (%) of one multilingual model vs. monolinguals,
    from their `param_report` entries.

    Compares grand totals: (sum of mono totals - multi total) / sum of monos.
    """
    mono_langs = sorted(code for r in mono_reports for code in r["heads"])
    multi_langs = sorted(multi_report["heads"])
    if mono_langs != multi_langs:
        raise ValidationError(
            f"language sets differ: monolinguals {mono_langs} vs multilingual {multi_langs}"
        )
    mono_sum = sum(r["grand_total"] for r in mono_reports)
    return (mono_sum - multi_report["grand_total"]) / mono_sum * 100.0


# -- checkpointing ------------------------------------------------------


def _record_header(name: str, shape: tuple[int, ...]) -> bytes:
    """The bytes of a checkpoint's tensor record before its padding and
    float64 data: u32 name length, UTF-8 name, u32 rank, then one u32 per
    dimension."""
    encoded = name.encode("utf-8")
    return struct.pack(f"<I{len(encoded)}sI{len(shape)}I", len(encoded), encoded, len(shape), *shape)


def _padding(offset: int, align: int) -> bytes:
    """The zero bytes that take `offset` up to a multiple of `align`."""
    return bytes(-offset % align)


def _tensor_block_bytes(
    config: ModelConfig, vocab_sizes: Mapping[Language, int], start: int, align: int
) -> int:
    """Exact size of a checkpoint's tensor block for a configuration, the
    block starting `start` bytes into the file: the u32 tensor count and its
    padding, then per tensor its record header, padding and float64 data.
    Every record starts at a multiple of `align`, so its padding follows
    from its header's length. Layer i's names hold len(str(i)) digits where
    layer 0's hold one, so the size follows from one layer's entries: the
    layers numbered with w digits share their record sizes."""

    def nbytes(name: str, shape: tuple[int, ...]) -> int:
        header = len(_record_header(name, shape))
        return header + -header % align + 8 * math.prod(shape)

    n = config.n_layers
    block = 4 + -(start + 4) % align
    for name, shape in parameter_table(replace(config, n_layers=1), vocab_sizes).items():
        if not name.startswith("trunk.layers.0."):
            block += nbytes(name, shape)
            continue
        for w in range(1, len(str(n)) + 1):
            layers = min(n, 10**w) - (10 ** (w - 1) if w > 1 else 0)
            block += layers * nbytes(name.replace(".0.", f".{'0' * w}.", 1), shape)
    return block


def save_checkpoint(model: MultilingualModel, path: str | Path) -> None:
    """Single-container checkpoint: JSON meta block + named float64 tensors,
    each written straight from its parameter array, atomically."""
    meta = {
        "model_config": model.config.to_dict(),
        "languages": [lang.value for lang in model.languages],
        "vocabs": {lang.value: model.vocab(lang).to_doc() for lang in model.languages},
    }
    meta_bytes = json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8")
    params, align = model.named_parameters(), CKPT_ALIGN[CKPT_VERSION]
    blob = [CKPT_MAGIC, struct.pack("<II", CKPT_VERSION, len(meta_bytes)), meta_bytes]
    blob += [struct.pack("<I", len(params)), _padding(12 + len(meta_bytes) + 4, align)]
    for name, t in params.items():
        arr = np.ascontiguousarray(t.data, dtype="<f8")
        header = _record_header(name, arr.shape)
        # the parameter's own bytes, no copy
        blob += [header, _padding(len(header), align), memoryview(arr).cast("B")]
    with atomic_write(path, binary=True) as f:
        f.writelines(blob)


class MappedCheckpoint:
    """The checkpoint file a loaded model came from, held open: the inode
    its parameters map, and that inode's size and modification time when
    the load began."""

    def __init__(self, path: Path, fd: int, stat: os.stat_result):
        self.path, self._fd, self._stamp = path, fd, (stat.st_size, stat.st_mtime_ns)
        weakref.finalize(self, os.close, fd)

    def check_unchanged(self) -> None:
        """Raise RuntimeFailure if the file was written since the load
        began. The mapping shows such writes in every page it never copied,
        and the digest taken at load does not."""
        stat = os.fstat(self._fd)
        if (stat.st_size, stat.st_mtime_ns) != self._stamp:
            raise RuntimeFailure(f"checkpoint {self.path} was written to while in use (its size or mtime changed)")


def load_checkpoint(path: str | Path, digest=None) -> MultilingualModel:
    """Rebuild a model from a checkpoint of version 1 or 2, bit-exactly.

    The meta block fixes the exact size of the tensor block and every
    record's header and padding, in `parameter_table` order. A file of
    another size fails as ValidationError before anything is mapped or
    built, and a record that is not the next table entry, or nonzero
    padding, fails before any tensor past it is read. The file is mapped
    copy-on-write: each version-2 tensor, aligned at 8 bytes, is its
    parameter as a view of the mapping, so no weight is allocated or
    copied; a version-1 tensor is copied out into an aligned array.
    `digest`, a hashlib object, is fed the header and meta block as read,
    then the mapped tensor block, so after a successful load it has hashed
    exactly the file the model came from. The model's `source` keeps the
    file open (`MappedCheckpoint`).
    """
    path = Path(path)
    try:
        f = open_regular(path)  # only a regular file can be mapped
    except OSError as exc:
        raise ValidationError(f"cannot read checkpoint {path}: {exc}") from exc
    with f:
        stat = os.fstat(f.fileno())
        head = f.read(12)
        if head[:4] != CKPT_MAGIC:
            raise ValidationError(f"{path}: not a checkpoint file (bad magic)")
        if len(head) < 12:
            raise ValidationError(f"{path}: truncated checkpoint (reading header)")
        version, meta_len = struct.unpack("<II", head[4:])
        align = CKPT_ALIGN.get(version)
        if align is None:
            raise ValidationError(f"{path}: unsupported checkpoint version {version}")
        if meta_len > stat.st_size - 12:
            raise ValidationError(f"{path}: truncated checkpoint (reading metadata)")
        raw_meta = f.read(meta_len)
        at = 12 + meta_len  # the tensor block's start
        try:
            meta, repeated = parse_json(raw_meta.decode("utf-8"))
            part = "model_config"
            config = config_from_json(ModelConfig, meta["model_config"], "bad model config")
            vocabs, languages = {}, []
            for code, doc in meta["vocabs"].items():
                part = f"vocabs.{code}"
                languages.append(Language.parse(code))
                vocabs[languages[-1]] = Vocabulary.from_doc(doc)
            # a dimension past u32 fails to pack (struct.error): no file holds it
            sizes = {lang: v.size for lang, v in vocabs.items()}
            block = _tensor_block_bytes(config, sizes, at, align)
        except (ValueError, KeyError, TypeError, AttributeError, struct.error) as exc:
            raise ValidationError(f"{path}: bad checkpoint metadata ({exc!r})") from exc
        except ValidationError as exc:
            items = [f"{part}: {problem}" for problem in (exc.message, *exc.items)]
            raise ValidationError(f"{path}: bad checkpoint metadata", items=items) from exc
        repeats = [*repeated, *(f"vocabs: {r}" for r in repeated_languages(languages))]  # `en` and `EN` share a head
        if repeats:
            raise ValidationError(f"{path}: bad checkpoint metadata", items=repeats)
        # checked before the file is mapped and the model built, so no size a meta block claims allocates anything
        follow = stat.st_size - at
        if follow != block:
            raise ValidationError(
                f"{path}: metadata implies a {block}-byte tensor block, but {follow} bytes follow it "
                f"({'truncated' if follow < block else f'{follow - block} trailing bytes'})"
            )
        try:
            mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
        except (OSError, ValueError) as exc:  # a file emptied since the size was taken is ValueError
            raise ValidationError(f"{path}: cannot map checkpoint ({exc})") from exc
        source = MappedCheckpoint(path, os.dup(f.fileno()), stat)

    def expect(want: bytes, problem: str) -> None:
        nonlocal at
        if mapped[at : at + len(want)] != want:
            raise ValidationError(f"{path}: {problem}")
        at += len(want)

    table = parameter_table(config, sizes)
    count = int.from_bytes(mapped[at : at + 4], "little")
    expect(struct.pack("<I", len(table)), f"tensor count {count} is not {len(table)}")
    expect(_padding(at, align), "nonzero padding after the tensor count")
    # with the exact size, headers that match in table order keep every view inside the file
    arrays = {}
    for i, (name, shape) in enumerate(table.items()):
        expect(_record_header(name, shape), f"tensor {i} is not {name!r} of shape {shape}")
        expect(_padding(at, align), f"nonzero padding after the header of tensor {i} ({name!r})")
        n = math.prod(shape)
        if at + 8 * n > len(mapped):  # the file shrank after its size was taken
            raise ValidationError(f"{path}: truncated checkpoint (reading {name!r})")
        data = np.frombuffer(mapped, "<f8", n, at).reshape(shape)
        # an unaligned version-1 tensor, or a big-endian host, takes a native copy
        arrays[name] = data.astype(np.float64) if align < 8 or sys.byteorder == "big" else data
        at += 8 * n
    if digest is not None:
        digest.update(head)
        digest.update(raw_meta)
        with memoryview(mapped) as view, view[12 + meta_len : at] as tensors:
            digest.update(tensors)
    model = MultilingualModel._from_arrays(config, vocabs, arrays)
    model.source = source
    return model
