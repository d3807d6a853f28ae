"""Constrained beam search: no word is emitted twice unless it is a stopword.

The search is layer-synchronous. At every expansion, any word already present
in a hypothesis scores -inf unless it is a stopword; BOS/PAD/UNK are never
candidates; EOS is always available and terminates a hypothesis. Hypotheses
that reach the word budget may only take EOS (scored normally). Finished
hypotheses go to a pool that never competes for beam slots, and the best one
under length normalization wins. Ties break on lexicographic token ids.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict, replace
from typing import Callable

import numpy as np

from polycap import autodiff as ad
from polycap.errors import ValidationError
from polycap.model import IncrementalDecoder, MultilingualModel
from polycap.text import Language, StopwordList, Vocabulary

# step function: (k, t) int prefix matrix -> (k, vocab) log-probability rows
StepFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 4
    max_len: int = 20
    length_norm: float = 1.0  # 1.0 = mean log-probability

    def __post_init__(self):
        if self.beam_size < 1 or self.max_len < 1:
            raise ValidationError("beam_size and max_len must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


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


def beam_search(
    step_fn: StepFn,
    vocab: Vocabulary,
    stopwords: StopwordList | frozenset[str] | None,
    cfg: DecodeConfig,
) -> DecodeResult:
    """Best finished hypothesis under the no-repeat constraint.

    step_fn maps a (k, t) matrix of BOS-prefixed id rows to (k, vocab)
    log-probability rows for the next token. The k active hypotheses are
    arrays: their id rows, log-probs and a (k, vocab) boolean ban of the
    non-stopword words each has used. A round scores the (k, vocab)
    candidate matrix, sends every EOS column to the finished pool and keeps
    the best beam_size word candidates; the survivors' ban rows are gathered
    by parent and the chosen word is set.
    """
    stop_set = frozenset() if stopwords is None else frozenset(getattr(stopwords, "words", stopwords))
    is_word = np.zeros(vocab.size, dtype=bool)
    is_word[np.array(vocab.word_ids)] = True
    is_stop = np.fromiter((t in stop_set for t in vocab.tokens), dtype=bool, count=vocab.size)
    bannable = is_word & ~is_stop

    ids = np.full((1, 1), vocab.bos_id, dtype=np.int64)
    log_prob = np.zeros(1)
    banned = np.zeros((1, vocab.size), dtype=bool)
    finished: list[tuple[tuple[int, ...], float]] = []
    # every round appends one token; +1 round lets max_len-word hyps take EOS
    for words in range(cfg.max_len + 1):
        rows = np.asarray(step_fn(ids), dtype=np.float64)
        ended = np.column_stack([ids, np.full(len(ids), vocab.eos_id)])
        finished.extend(zip(map(tuple, ended.tolist()), (log_prob + rows[:, vocab.eos_id]).tolist()))
        if words == cfg.max_len:
            break
        allowed = is_word & ~banned
        scores = log_prob[:, None] + rows
        picks = _best_candidates(scores, allowed, ids, cfg.beam_size)
        if len(picks) == 0:
            break
        parents, tokens = np.divmod(picks, vocab.size)
        ids = np.column_stack([ids[parents], tokens])
        log_prob = scores.ravel()[picks]
        banned = banned[parents]
        banned[np.arange(len(picks)), tokens] = bannable[tokens]
    best_ids, best_log_prob = min(
        finished, key=lambda f: (-_normalized(f[1], f[0], cfg.length_norm), f[0])
    )
    return DecodeResult(
        tokens=vocab.decode(best_ids),
        token_ids=best_ids,
        log_prob=best_log_prob,
        normalized_score=_normalized(best_log_prob, best_ids, cfg.length_norm),
    )


def model_step_fn(
    model: MultilingualModel, audio: np.ndarray, language: Language
) -> StepFn:
    """Adapt a model + one audio sequence into a cached beam-search step function.

    Rows equal the log-softmax of `MultilingualModel.forward` on the same
    prefixes (eval mode). When every prefix extends a row of the previous
    call by one token (matched on prefix[:-1]), the per-row cache is gathered
    by parent and only the new position is computed; any other call rebuilds
    the cache from its prefixes.
    """
    audio = np.asarray(audio, dtype=np.float64)
    if audio.ndim != 2:
        raise ValidationError("model_step_fn expects a single (frames, dim) sequence")
    decoder = IncrementalDecoder(model, audio, language)
    previous: dict[tuple[int, ...], int] = {}  # last call's rows -> cache row

    def step(prefixes: np.ndarray) -> np.ndarray:
        nonlocal previous
        prefixes = np.asarray(prefixes, dtype=np.int64)
        if prefixes.ndim != 2 or prefixes.shape[1] < 1:
            raise ValidationError("step expects a (k, t) prefix matrix with t >= 1")
        known, previous = previous, {}  # stays empty if this call fails midway
        parents = [known.get(tuple(row)) for row in prefixes[:, :-1].tolist()]
        if None in parents:
            decoder.reset(len(prefixes))
            for column in prefixes[:, :-1].T:
                decoder.advance(column)
        else:
            decoder.reorder(np.array(parents, dtype=np.intp))
        logits = decoder.advance(prefixes[:, -1])
        previous = {tuple(row): i for i, row in enumerate(prefixes.tolist())}
        return ad.log_softmax(ad.Tensor(logits)).data

    return step


def caption_audio(
    model: MultilingualModel,
    audio: np.ndarray,
    language: Language,
    cfg: DecodeConfig,
    stopwords: StopwordList | frozenset[str] | None,
) -> DecodeResult:
    """Decode one caption for one (audio, language) pair."""
    # the model scores at most max_len positions (BOS included)
    cfg = replace(cfg, max_len=min(cfg.max_len, model.config.max_len - 1))
    return beam_search(model_step_fn(model, audio, language), model.vocab(language), stopwords, cfg)
