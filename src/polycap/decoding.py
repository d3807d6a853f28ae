"""Constrained beam search: no word is emitted twice unless it is a stopword.

The search is layer-synchronous. At every expansion, any word already present
in a hypothesis scores -inf unless it is a stopword; BOS/PAD/UNK are never
candidates; EOS is always available and terminates a hypothesis. Hypotheses
that reach the word budget may only take EOS (scored normally). Finished
hypotheses go to a pool that never competes for beam slots, and the best one
under length normalization wins. Ties break on lexicographic token ids.

Independent searches can step in lockstep, one group each, so one scorer
call serves them all: `caption_clip` searches every language of a clip
together through the model's shared trunk, scored by the cached
`model.IncrementalDecoder`. The search hands the scorer each row's parent,
by which the cached scorer gathers its cache.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from polycap.errors import ValidationError, integer_problems, is_finite, physical_memory
from polycap.model import IncrementalDecoder, MultilingualModel
from polycap.text import Language, Vocabulary

# grouped step function: per group, (k_g, t) prefix rows and (k_g,) parents
# (row i extends row parents[i] of the previous call; BOS has parent 0) ->
# (k_g, vocab_g) log-probability rows; a group may have k_g = 0 rows
GroupStepFn = Callable[[list[np.ndarray], list[np.ndarray]], list[np.ndarray]]


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 4
    max_len: int = 20
    length_norm: float = 1.0  # 1.0 = mean log-probability

    def __post_init__(self):
        problems = integer_problems((("beam_size", self.beam_size, 1), ("max_len", self.max_len, 1)))
        if not is_finite(self.length_norm):
            problems.append(f"length_norm={self.length_norm!r} must be a finite number")
        if problems:
            raise ValidationError("bad decoding config", items=problems)


@dataclass(frozen=True)
class DecodeResult:
    tokens: list[str]
    token_ids: tuple[int, ...]
    log_prob: float
    normalized_score: float


def _normalized(log_prob: float, ids: tuple[int, ...], exponent: float) -> float:
    steps = len(ids) - 1  # emitted tokens, EOS included, BOS not
    return log_prob / (steps**exponent)


def _best_candidates(scores: np.ndarray, allowed: np.ndarray, ids: np.ndarray, n: int) -> np.ndarray:
    """Flat (row * vocab + token) indices of the n best allowed candidates,
    ordered by (-log_prob, id tuple).

    A partition finds the n-th best score; every allowed entry at least that
    good is then sorted exactly, so ties keep the lexicographic order. An
    allowed candidate may score -inf and still take a slot; a disallowed one
    never does.
    """
    flat = scores.ravel()
    picks = np.flatnonzero(allowed.ravel())
    if len(picks) > n:
        values = flat[picks]
        kth = np.partition(values, len(picks) - n)[len(picks) - n]
        picks = picks[values >= kth]
    parents, tokens = np.divmod(picks, scores.shape[1])
    # lexsort's last key is the primary one: score, then prefix ids, then token
    order = np.lexsort((tokens, *ids[parents].T[::-1], -flat[picks]))
    return picks[order[:n]]


class _Beam:
    """One group's search state. The k active hypotheses are arrays: their
    BOS-prefixed id rows, each row's parent in the previous round, log-probs
    and a (k, vocab) boolean ban of the non-stopword words each has used.
    Finished hypotheses go to a pool."""

    def __init__(self, vocab: Vocabulary, stopwords: frozenset[str] | None):
        stop_set = stopwords or frozenset()
        self.vocab = vocab
        self.is_word = np.zeros(vocab.size, dtype=bool)
        self.is_word[np.asarray(vocab.word_ids, dtype=np.intp)] = True
        is_stop = np.fromiter((t in stop_set for t in vocab.tokens), dtype=bool, count=vocab.size)
        self.bannable = self.is_word & ~is_stop
        self.ids = np.full((1, 1), vocab.bos_id, dtype=np.int64)
        self.parents = np.zeros(1, dtype=np.intp)  # BOS extends the scorer's one empty row
        self.log_prob = np.zeros(1)
        self.banned = np.zeros((1, vocab.size), dtype=bool)
        self.finished: list[tuple[tuple[int, ...], float]] = []

    def finish(self, rows: np.ndarray) -> None:
        """Send every active hypothesis, ended by EOS, to the finished pool."""
        ended = np.column_stack([self.ids, np.full(len(self.ids), self.vocab.eos_id)])
        self.finished.extend(
            zip(map(tuple, ended.tolist()), (self.log_prob + rows[:, self.vocab.eos_id]).tolist())
        )

    def extend(self, rows: np.ndarray, beam_size: int) -> None:
        """Keep the beam_size best word candidates; the survivors' ban rows
        are gathered by parent and the chosen word is set. With no allowed
        candidate the beam is left with zero rows."""
        scores = self.log_prob[:, None] + rows
        picks = _best_candidates(scores, self.is_word & ~self.banned, self.ids, beam_size)
        parents, tokens = np.divmod(picks, self.vocab.size)
        self.ids = np.column_stack([self.ids[parents], tokens])
        self.parents = parents
        self.log_prob = scores.ravel()[picks]
        self.banned = self.banned[parents]
        self.banned[np.arange(len(picks)), tokens] = self.bannable[tokens]

    def result(self, length_norm: float) -> DecodeResult:
        best_ids, best_log_prob = min(
            self.finished, key=lambda f: (-_normalized(f[1], f[0], length_norm), f[0])
        )
        return DecodeResult(
            tokens=self.vocab.decode(best_ids),
            token_ids=best_ids,
            log_prob=best_log_prob,
            normalized_score=_normalized(best_log_prob, best_ids, length_norm),
        )


def grouped_beam_search(
    step_fn: GroupStepFn,
    vocabs: Sequence[Vocabulary],
    stopwords: Sequence[frozenset[str] | None],
    cfg: DecodeConfig,
) -> list[DecodeResult]:
    """Best finished hypothesis of each of G independent searches, stepped
    in lockstep under the no-repeat constraint.

    step_fn maps G (k_g, t) matrices of BOS-prefixed id rows and their G
    (k_g,) parent indices to G (k_g, vocab_g) log-probability rows for the
    next token, so one call scores every group's hypotheses. Each group keeps
    its own ids, ban mask, finished pool and tie-break. A round sends every
    EOS column to the finished pool and keeps each group's best beam_size
    word candidates. A group left without candidates goes on with zero rows;
    the search ends when every group has none, or after the word budget.
    """
    beams = [_Beam(vocab, stop) for vocab, stop in zip(vocabs, stopwords, strict=True)]
    # every round appends one token; +1 round lets max_len-word hyps take EOS
    for words in range(cfg.max_len + 1):
        scored = step_fn([beam.ids for beam in beams], [beam.parents for beam in beams])
        for beam, rows in zip(beams, scored, strict=True):
            rows = np.asarray(rows, dtype=np.float64).reshape(len(beam.ids), beam.vocab.size)
            beam.finish(rows)
            if words < cfg.max_len:
                beam.extend(rows, cfg.beam_size)
        scored = rows = None  # no round's rows stay alive through the next step_fn call
        if words == cfg.max_len or not any(len(beam.ids) for beam in beams):
            break
    return [beam.result(cfg.length_norm) for beam in beams]


def _round_bytes(model: MultilingualModel, languages: Sequence[Language], cfg: DecodeConfig) -> int:
    """An estimate of the bytes of `caption_clip`'s largest decode round,
    from its per-row terms. A language holds at most beam_size rows, and at
    most words**t after t words; past beam_size.bit_length() words that
    second bound exceeds beam_size. Over the largest vocabulary a row holds
    at most five 8-byte arrays at once (log-probs, scores, and the picked
    candidates' indices, scores and partitioned copy) and three bool ones
    (ban, allowed, a temporary); over all positions, every layer's
    self-attention keys and values plus one layer's gathered copy. From
    about 1 MB up, a round's measured peak stays below it; below that, what
    it leaves out (the clip's cross-attention keys and values) can exceed it."""
    beam = int(cfg.beam_size)
    length = min(cfg.max_len, beam.bit_length())
    rows = sum(min(beam, len(model.vocab(lang).word_ids) ** length) for lang in languages)
    vocab = max((model.vocab(lang).size for lang in languages), default=0)
    positions = cfg.max_len + 1  # BOS and every word
    c = model.config
    return rows * vocab * (5 * 8 + 3) + 2 * (c.n_layers + 1) * rows * positions * c.d_model * 8


def fit_decode_config(model: MultilingualModel, languages: Sequence[Language], cfg: DecodeConfig) -> DecodeConfig:
    """`cfg` for decoding `languages` with `model`: max_len cut to the
    positions the model scores (BOS included). A search whose largest decode
    round would exceed physical memory is a ValidationError."""
    cfg = replace(cfg, max_len=min(cfg.max_len, model.config.max_len - 1))
    need, physical = _round_bytes(model, languages, cfg), physical_memory()
    if need > physical:
        raise ValidationError("bad decoding config", items=[
            f"beam_size={cfg.beam_size}: a decode round needs about {need} bytes, "
            f"more than the {physical} bytes of physical memory"
        ])
    return cfg


def caption_clip(
    model: MultilingualModel,
    audio: np.ndarray,
    languages: Sequence[Language],
    cfg: DecodeConfig,
    stopwords_by_language: Mapping[Language, frozenset[str] | None],
) -> list[DecodeResult]:
    """Decode one caption per language for one audio sequence; the languages
    are searched in lockstep through the shared trunk. A language missing
    from stopwords_by_language has no stopwords."""
    cfg = fit_decode_config(model, languages, cfg)
    return grouped_beam_search(
        IncrementalDecoder(model, audio, languages),
        [model.vocab(lang) for lang in languages],
        [stopwords_by_language.get(lang) for lang in languages],
        cfg,
    )


def caption_audio(
    model: MultilingualModel,
    audio: np.ndarray,
    language: Language,
    cfg: DecodeConfig,
    stopwords: frozenset[str] | None,
) -> DecodeResult:
    """Decode one caption for one (audio, language) pair: the one-language
    `caption_clip`."""
    return caption_clip(model, audio, [language], cfg, {language: stopwords})[0]
