"""Caption scoring: CIDEr-D, embedding-based sentence similarity, and
cross-language output comparison.

CIDEr-D follows the standard recipe: n-grams for n=1..4, TF-IDF vectors with
document frequency over the evaluated corpus's reference sets, candidate
counts clipped to reference counts, cosine per n with a Gaussian length
penalty (sigma=6), averaged over references and n, scaled by 10.

Sentence similarity is computed against a pluggable embedder: a deterministic
table-driven stub ships for tests, plus a client for an external service
speaking ``{"texts": [...], "language": ...} -> {"vectors": [[...]]}`` over
HTTP. The multilingual sentence encoder itself is not part of this toolkit.
"""

from __future__ import annotations

import json
import math
import urllib.error
import urllib.request
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Protocol, Sequence

import numpy as np

from polycap.errors import RuntimeFailure, ValidationError
from polycap.text import Language, tokenize

CIDER_N_MAX = 4
CIDER_SIGMA = 6.0
CIDER_SCALE = 10.0


class EmbedderError(RuntimeFailure):
    """Embedding provider failed; carries the affected item when known."""

    def __init__(self, message: str, *, item_id: str | None = None):
        items = [item_id] if item_id else None
        super().__init__(message, items=items)
        self.item_id = item_id


def ngram_counts(tokens: Sequence[str], n_max: int = CIDER_N_MAX) -> Counter:
    """Counts of all n-grams (as tuples) for n = 1..n_max."""
    counts: Counter = Counter()
    for n in range(1, n_max + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


@dataclass(frozen=True)
class CiderResult:
    corpus_score: float  # raw scale, 0..10
    per_item: dict[str, float]

    @property
    def corpus_pct(self) -> float:
        return self.corpus_score * 100.0


def _tfidf_vectors(
    counts: Counter, df: Mapping[tuple, float], log_n: float
) -> tuple[list[dict[tuple, float]], list[float]]:
    """Per-n TF-IDF dictionaries and squared norms for one caption."""
    vecs: list[dict[tuple, float]] = [dict() for _ in range(CIDER_N_MAX)]
    norms_sq = [0.0] * CIDER_N_MAX
    for gram, tf in counts.items():
        idf = log_n - math.log(max(1.0, df.get(gram, 0.0)))
        slot = len(gram) - 1
        w = tf * idf
        vecs[slot][gram] = w
        norms_sq[slot] += w * w
    return vecs, norms_sq


def _clipped_cosine(
    cand_vec: dict[tuple, float],
    ref_vec: dict[tuple, float],
    cand_norm_sq: float,
    ref_norm_sq: float,
) -> float:
    if cand_norm_sq == 0.0 or ref_norm_sq == 0.0:
        return 0.0
    num = 0.0
    for gram, w in cand_vec.items():
        rw = ref_vec.get(gram, 0.0)
        num += min(w, rw) * rw
    if num == cand_norm_sq and cand_norm_sq == ref_norm_sq:
        return 1.0  # identical vectors: exact by definition, avoids sqrt jitter
    return num / (math.sqrt(cand_norm_sq) * math.sqrt(ref_norm_sq))


def cider_d(
    candidates: Mapping[str, str], references: Mapping[str, Sequence[str]]
) -> CiderResult:
    """Corpus and per-item CIDEr-D on the raw 0..10 scale.

    Document frequencies come from the reference sets of this corpus; every
    candidate needs at least one reference, and at least two items are
    required (IDF is degenerate on a single item).
    """
    if not candidates:
        raise ValidationError("empty corpus: no candidates to score")
    missing = sorted(set(candidates) - set(references))
    if missing:
        raise ValidationError("candidates without references", items=missing)
    if len(candidates) < 2:
        raise ValidationError("CIDEr-D needs at least 2 items (IDF is degenerate otherwise)")

    cand_tokens = {i: tokenize(c) for i, c in candidates.items()}
    ref_tokens = {i: [tokenize(r) for r in references[i]] for i in candidates}
    for i, refs in ref_tokens.items():
        if not refs:
            raise ValidationError(f"item {i!r} has an empty reference list")

    ref_counts = {i: [ngram_counts(r) for r in refs] for i, refs in ref_tokens.items()}
    df: Counter = Counter()
    for counts_list in ref_counts.values():
        seen: set[tuple] = set()
        for counts in counts_list:
            seen.update(counts.keys())
        for gram in seen:
            df[gram] += 1
    log_n = math.log(len(candidates))

    per_item: dict[str, float] = {}
    for item, ctoks in cand_tokens.items():
        cvecs, cnorms = _tfidf_vectors(ngram_counts(ctoks), df, log_n)
        clen = len(ctoks)
        sims = np.zeros(CIDER_N_MAX)
        for rtoks, rcounts in zip(ref_tokens[item], ref_counts[item]):
            rvecs, rnorms = _tfidf_vectors(rcounts, df, log_n)
            penalty = math.exp(-((clen - len(rtoks)) ** 2) / (2.0 * CIDER_SIGMA**2))
            for n in range(CIDER_N_MAX):
                sims[n] += penalty * _clipped_cosine(cvecs[n], rvecs[n], cnorms[n], rnorms[n])
        per_item[item] = CIDER_SCALE * float(np.mean(sims / len(ref_tokens[item])))
    return CiderResult(
        corpus_score=float(np.mean(list(per_item.values()))), per_item=per_item
    )


# -- sentence-embedding similarity ----------------------------------------


class EmbedderProvider(Protocol):
    """Deterministic text -> unit-norm vector provider."""

    name: str

    def embed_batch(self, texts: Sequence[str], language: Language) -> np.ndarray: ...


def _normalize_rows(vectors: np.ndarray, texts: Sequence[str]) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    zero = np.where(norms == 0)[0]
    if zero.size:
        raise EmbedderError(f"zero-norm embedding for text {texts[zero[0]]!r}")
    return vectors / norms[:, None]


class StubEmbedder:
    """Table-driven embedder for tests: exact, deterministic, no service."""

    def __init__(self, table: Mapping[str, Sequence[float]], name: str = "stub"):
        self.name = name
        self._table = {text: np.asarray(v, dtype=np.float64) for text, v in table.items()}

    def embed_batch(self, texts: Sequence[str], language: Language) -> np.ndarray:
        rows = []
        for text in texts:
            if text not in self._table:
                raise EmbedderError(f"stub embedder has no vector for {text!r}")
            rows.append(self._table[text])
        return _normalize_rows(np.stack(rows), texts)


class HttpEmbedder:
    """Client for an external embedding service.

    One request per batch: POST ``{"texts": [...], "language": code}`` to the
    endpoint, expect ``{"vectors": [[...], ...]}`` back. Vectors are
    re-normalized to unit length on receipt.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0, name: str | None = None):
        self.endpoint = endpoint
        self.timeout = timeout
        self.name = name or f"http:{endpoint}"

    def embed_batch(self, texts: Sequence[str], language: Language) -> np.ndarray:
        payload = json.dumps({"texts": list(texts), "language": language.value}).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, UnicodeDecodeError, json.JSONDecodeError, OSError) as exc:
            raise EmbedderError(f"embedding service failed: {exc}") from exc
        vectors = body.get("vectors") if isinstance(body, dict) else None
        if not isinstance(vectors, list) or len(vectors) != len(texts):
            raise EmbedderError(
                f"embedding service returned {len(vectors) if isinstance(vectors, list) else 'no'}"
                f" vectors for {len(texts)} texts"
            )
        try:
            matrix = np.asarray(vectors)
        except ValueError as exc:  # ragged rows
            raise EmbedderError(f"embedding service returned ragged vectors ({exc})") from exc
        if matrix.ndim != 2 or matrix.dtype.kind not in "iuf":
            raise EmbedderError("embedding service returned vectors that are not rows of numbers")
        matrix = matrix.astype(np.float64)
        if not np.isfinite(matrix).all():
            raise EmbedderError("embedding service returned non-finite vector values")
        return _normalize_rows(matrix, texts)


def _embed_with_item_context(
    provider: EmbedderProvider,
    texts: Sequence[str],
    language: Language,
    text_to_item: Mapping[str, str],
) -> dict[str, np.ndarray]:
    """Embed unique texts in one batch; on failure, attribute the item."""
    unique = list(dict.fromkeys(texts))
    try:
        vectors = provider.embed_batch(unique, language)
    except EmbedderError as exc:
        if exc.item_id is not None:
            raise
        # retry one text at a time to find the offender
        for text in unique:
            try:
                provider.embed_batch([text], language)
            except EmbedderError as inner:
                raise EmbedderError(
                    inner.message, item_id=text_to_item.get(text)
                ) from inner
        raise
    return dict(zip(unique, vectors))


@dataclass(frozen=True)
class SimilarityResult:
    corpus_pct: float
    per_item: dict[str, float]


def sbert_sim(
    candidates: Mapping[str, str],
    references: Mapping[str, Sequence[str]],
    provider: EmbedderProvider,
    language: Language,
    aggregate: str = "mean",
) -> SimilarityResult:
    """Mean cosine similarity between candidates and their references, as %.

    Per item the candidate is compared to each reference and aggregated with
    ``mean`` (default) or ``max``; the corpus value is the mean over items.
    """
    if aggregate not in ("mean", "max"):
        raise ValidationError(f"aggregate must be 'mean' or 'max', got {aggregate!r}")
    if not candidates:
        raise ValidationError("empty corpus: no candidates to score")
    missing = sorted(set(candidates) - set(references))
    if missing:
        raise ValidationError("candidates without references", items=missing)
    texts: list[str] = []
    text_to_item: dict[str, str] = {}
    for item, cand in candidates.items():
        texts.append(cand)
        text_to_item.setdefault(cand, item)
        for ref in references[item]:
            texts.append(ref)
            text_to_item.setdefault(ref, item)
    table = _embed_with_item_context(provider, texts, language, text_to_item)
    per_item: dict[str, float] = {}
    for item, cand in candidates.items():
        cos = [float(table[cand] @ table[ref]) for ref in references[item]]
        value = max(cos) if aggregate == "max" else float(np.mean(cos))
        per_item[item] = value * 100.0
    return SimilarityResult(
        corpus_pct=float(np.mean(list(per_item.values()))), per_item=per_item
    )


def cross_language_similarity(
    outputs: Mapping[Language, Mapping[str, str]],
    base: Language,
    provider: EmbedderProvider,
) -> dict[Language, float]:
    """Mean cosine (as %) between the base language's captions and each other
    language's captions for the same audio ids."""
    if base not in outputs:
        raise ValidationError(f"base language {base.value!r} missing from outputs")
    base_ids = set(outputs[base])
    for lang, captions in outputs.items():
        if set(captions) != base_ids:
            diff = sorted(base_ids.symmetric_difference(captions))
            raise ValidationError(
                f"audio-id sets differ between {base.value} and {lang.value}", items=diff
            )
    if not base_ids:
        raise ValidationError("no items to compare")
    ordered = sorted(base_ids)
    base_texts = [outputs[base][i] for i in ordered]
    base_table = _embed_with_item_context(
        provider, base_texts, base, {t: i for t, i in zip(base_texts, ordered)}
    )
    result: dict[Language, float] = {}
    for lang, captions in outputs.items():
        texts = [captions[i] for i in ordered]
        table = _embed_with_item_context(
            provider, texts, lang, {t: i for t, i in zip(texts, ordered)}
        )
        cos = [
            float(base_table[outputs[base][i]] @ table[captions[i]]) for i in ordered
        ]
        result[lang] = float(np.mean(cos)) * 100.0
    return result


# -- report assembly -------------------------------------------------------


@dataclass(frozen=True)
class LanguageScores:
    cider_d_raw: float
    cider_d_pct: float
    sbert_sim_pct: float | None
    n_items: int


@dataclass(frozen=True)
class EvalReport:
    scores: dict[str, LanguageScores]
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "scores": {
                code: {
                    "cider_d_raw": s.cider_d_raw,
                    "cider_d_pct": s.cider_d_pct,
                    "sbert_sim_pct": s.sbert_sim_pct,
                    "n_items": s.n_items,
                }
                for code, s in self.scores.items()
            },
            "config": self.config,
        }


def evaluate_captions(
    candidates_by_language: Mapping[Language, Mapping[str, str]],
    references_by_language: Mapping[Language, Mapping[str, Sequence[str]]],
    provider: EmbedderProvider | None = None,
    aggregate: str = "mean",
    config_echo: Mapping | None = None,
) -> EvalReport:
    """Score each language's candidates and assemble one report."""
    scores: dict[str, LanguageScores] = {}
    for lang, cands in candidates_by_language.items():
        if lang not in references_by_language:
            raise ValidationError(f"no references for language {lang.value!r}")
        refs = references_by_language[lang]
        cider = cider_d(cands, refs)
        sim = (
            sbert_sim(cands, refs, provider, lang, aggregate).corpus_pct
            if provider is not None
            else None
        )
        scores[lang.value] = LanguageScores(
            cider_d_raw=cider.corpus_score,
            cider_d_pct=cider.corpus_pct,
            sbert_sim_pct=sim,
            n_items=len(cands),
        )
    return EvalReport(scores=scores, config=dict(config_echo or {}))
