"""Caption scoring: CIDEr-D, embedding-based sentence similarity, and
cross-language output comparison.

CIDEr-D follows the standard recipe: n-grams for n=1..4, TF-IDF vectors with
document frequency over the evaluated corpus's reference sets, candidate
counts clipped to reference counts, cosine per n with a Gaussian length
penalty (sigma=6), averaged over references and n, scaled by 10.

Sentence similarity is computed against a pluggable embedder: a client for
an external service speaking ``{"texts": [...], "language": ...} ->
{"vectors": [[...]]}`` over HTTP, or any other `EmbedderProvider` (the tests
use a deterministic stub). The multilingual sentence encoder itself is not
part of this toolkit.
"""

from __future__ import annotations

import http.client
import math
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from polycap.errors import RuntimeFailure, ValidationError
from polycap.files import dump_json, parse_json
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


@dataclass(frozen=True)
class CiderResult:
    corpus_score: float  # raw scale, 0..10
    per_item: dict[str, float]


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (a sort is faster than np.unique's hash table)."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def cider_d(
    candidates: Mapping[str, str], references: Mapping[str, Sequence[str]]
) -> CiderResult:
    """Corpus and per-item CIDEr-D on the raw 0..10 scale.

    Document frequencies come from the reference sets of this corpus; every
    candidate needs at least one reference, and at least two items are
    required (IDF is degenerate on a single item).

    Every caption is tokenized once and its n-grams are interned as integer
    ids, one order at a time; TF-IDF weights, norms, clipped numerators and
    length penalties are then flat arrays. Each caption's terms are summed in
    the order its n-grams first occur (n-major, then position), so the scores
    are bit-identical to scoring caption by caption over n-gram dictionaries.
    """
    if not candidates:
        raise ValidationError("empty corpus: no candidates to score")
    missing = sorted(set(candidates) - set(references))
    if missing:
        raise ValidationError("candidates without references", items=missing)
    if len(candidates) < 2:
        raise ValidationError("CIDEr-D needs at least 2 items (IDF is degenerate otherwise)")

    cand_tokens = [tokenize(c) for c in candidates.values()]
    ref_tokens = [[tokenize(r) for r in references[i]] for i in candidates]
    for i, refs in zip(candidates, ref_tokens):
        if not refs:
            raise ValidationError(f"item {i!r} has an empty reference list")

    # captions 0..n_items-1 are the candidates (caption i is item i's), the
    # references follow item by item
    n_items = len(cand_tokens)
    captions = cand_tokens + [toks for refs in ref_tokens for toks in refs]
    n_refs = np.array([len(refs) for refs in ref_tokens])
    ref_item = np.repeat(np.arange(n_items), n_refs)
    lengths = np.array([len(toks) for toks in captions])
    word_ids: dict[str, int] = {}
    words = np.fromiter(
        (word_ids.setdefault(w, len(word_ids)) for toks in captions for w in toks),
        dtype=np.int64,
        count=int(lengths.sum()),
    )

    # n-gram ids, one order at a time: an n-gram is its (n-1)-gram prefix id
    # plus the next word, so keys stay below (#prefixes * #words)
    token_cap = np.repeat(np.arange(len(captions)), lengths)
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(words))  # tokens left from here
    starts, ids, n_distinct = np.arange(len(words)), words, len(word_ids)
    occ_cap, occ_gram, occ_n = [], [], []
    n_grams = 0
    for n in range(1, CIDER_N_MAX + 1):
        if n > 1:
            keep = room[starts] >= n
            starts = starts[keep]
            distinct, ids = np.unique(
                ids[keep] * len(word_ids) + words[starts + n - 1], return_inverse=True
            )
            n_distinct = len(distinct)
        occ_cap.append(token_cap[starts])
        occ_gram.append(ids + n_grams)
        occ_n.append(np.full(len(starts), n - 1))
        n_grams += n_distinct
    occ_cap, occ_gram, occ_n = (np.concatenate(a) for a in (occ_cap, occ_gram, occ_n))

    # one entry per (caption, n-gram) with its count, in first-occurrence order
    occ_key = occ_cap * n_grams + occ_gram
    by_key = np.argsort(occ_key)
    run = np.flatnonzero(np.diff(occ_key[by_key], prepend=-1))
    keys = occ_key[by_key[run]]
    first = np.minimum.reduceat(by_key, run)
    tf = np.diff(run, append=len(occ_key))
    entry_cap = keys // n_grams
    order = np.argsort(entry_cap * len(occ_key) + first)
    entry_cap, entry_gram, tf = entry_cap[order], keys[order] % n_grams, tf[order]
    entry_n = occ_n[first[order]]

    # document frequency: the number of items whose references hold the gram
    n_cand = int(np.searchsorted(entry_cap, n_items))
    ref_entry_item = ref_item[entry_cap[n_cand:] - n_items]
    item_grams = _distinct(ref_entry_item * n_grams + entry_gram[n_cand:]) % n_grams
    df = np.bincount(item_grams, minlength=n_grams)
    log_df = np.array([0.0] + [math.log(k) for k in range(1, n_items + 1)])
    weight = tf * (math.log(n_items) - log_df[df[entry_gram]])

    # np.bincount adds its weights in array order, so every (caption, n) sum
    # runs left to right over that caption's entries, as the recipe's loop does
    # (float addition is not associative: the order is part of the result)
    segment = entry_cap * CIDER_N_MAX + entry_n
    n_slots = len(captions) * CIDER_N_MAX
    norms_sq = np.bincount(segment, weight * weight, n_slots).reshape(-1, CIDER_N_MAX)

    # clipped numerators: each reference entry joined to the same n-gram in
    # its item's candidate, summed in the candidate's entry order
    cand_keys = entry_cap[:n_cand] * n_grams + entry_gram[:n_cand]
    by_key = np.argsort(cand_keys)
    sorted_keys = np.append(cand_keys[by_key], -1)
    query = ref_entry_item * n_grams + entry_gram[n_cand:]
    at = np.searchsorted(sorted_keys[:-1], query)
    found = sorted_keys[at] == query
    ref_entry = n_cand + np.flatnonzero(found)
    cand_entry = by_key[at[found]]
    joined = np.argsort(cand_entry)
    ref_entry, cand_entry = ref_entry[joined], cand_entry[joined]
    rw = weight[ref_entry]
    nums = np.bincount(
        segment[ref_entry], np.minimum(weight[cand_entry], rw) * rw, n_slots
    ).reshape(-1, CIDER_N_MAX)[n_items:]

    cand_sq, ref_sq = norms_sq[ref_item], norms_sq[n_items:]
    with np.errstate(divide="ignore", invalid="ignore"):
        cosine = nums / (np.sqrt(cand_sq) * np.sqrt(ref_sq))
    cosine[(nums == cand_sq) & (cand_sq == ref_sq)] = 1.0  # identical vectors: no sqrt jitter
    cosine[(cand_sq == 0.0) | (ref_sq == 0.0)] = 0.0

    gap_sq, gap_index = np.unique(
        (lengths[ref_item] - lengths[n_items:]) ** 2, return_inverse=True
    )
    penalty = np.array([math.exp(-int(g) / (2.0 * CIDER_SIGMA**2)) for g in gap_sq])[gap_index]

    # each item's references are added in order, one sum per (item, n)
    sims = np.bincount(
        (ref_item[:, None] * CIDER_N_MAX + np.arange(CIDER_N_MAX)).ravel(),
        (penalty[:, None] * cosine).ravel(),
        n_items * CIDER_N_MAX,
    ).reshape(n_items, CIDER_N_MAX)
    scores = CIDER_SCALE * np.mean(sims / n_refs[:, None], axis=1)
    per_item = dict(zip(candidates, scores.tolist()))
    return CiderResult(
        corpus_score=float(np.mean(list(per_item.values()))), per_item=per_item
    )


# -- sentence-embedding similarity ----------------------------------------


class EmbedderProvider(Protocol):
    """Deterministic text -> unit-norm vector provider."""

    def embed_batch(self, texts: Sequence[str], language: Language) -> np.ndarray: ...


def _normalize_rows(vectors: np.ndarray, texts: Sequence[str]) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    zero = np.where(norms == 0)[0]
    if zero.size:
        raise EmbedderError(f"zero-norm embedding for text {texts[zero[0]]!r}")
    return vectors / norms[:, None]


class HttpEmbedder:
    """Client for an external embedding service.

    One request per batch: POST ``{"texts": [...], "language": code}`` to the
    endpoint, expect ``{"vectors": [[...], ...]}`` back. Vectors are
    re-normalized to unit length on receipt.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def embed_batch(self, texts: Sequence[str], language: Language) -> np.ndarray:
        payload = dump_json({"texts": list(texts), "language": language.value}).encode("utf-8")
        request = urllib.request.Request(
            self.endpoint, data=payload, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                body, repeated = parse_json(response.read().decode("utf-8"))
        # URLError is an OSError; bad UTF-8 or JSON a ValueError; an answer that
        # is no HTTP response (bad status line, short body) an HTTPException
        except (OSError, ValueError, http.client.HTTPException) as exc:
            raise EmbedderError(f"embedding service failed: {exc}") from exc
        if repeated:
            raise EmbedderError(f"embedding service returned {', '.join(repeated)}")
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
    """Embed unique texts in one batch; on failure, attribute the item by
    retrying one text at a time. A service that was never reached (refused,
    unresolvable, timed out) or that sent no valid HTTP response fails alike
    for every text: no retry, no item."""
    unique = list(dict.fromkeys(texts))
    try:
        vectors = provider.embed_batch(unique, language)
    except EmbedderError as exc:
        cause = exc.__cause__
        unreached = isinstance(cause, (OSError, http.client.HTTPException)) and not isinstance(
            cause, urllib.error.HTTPError
        )
        if exc.item_id is not None or unreached:
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


def sbert_sim(
    candidates: Mapping[str, str],
    references: Mapping[str, Sequence[str]],
    provider: EmbedderProvider,
    language: Language,
    aggregate: str = "mean",
) -> float:
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
    item_pcts = []
    for item, cand in candidates.items():
        cos = [float(table[cand] @ table[ref]) for ref in references[item]]
        value = max(cos) if aggregate == "max" else float(np.mean(cos))
        item_pcts.append(value * 100.0)
    return float(np.mean(item_pcts))


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
    tables = {}
    for lang, captions in outputs.items():
        texts = [captions[i] for i in ordered]
        tables[lang] = _embed_with_item_context(provider, texts, lang, dict(zip(texts, ordered)))
    result: dict[Language, float] = {}
    for lang, captions in outputs.items():
        cos = [float(tables[base][outputs[base][i]] @ tables[lang][captions[i]]) for i in ordered]
        result[lang] = float(np.mean(cos)) * 100.0
    return result


# -- report assembly -------------------------------------------------------


def evaluate_captions(
    candidates_by_language: Mapping[Language, Mapping[str, str]],
    references_by_language: Mapping[Language, Mapping[str, Sequence[str]]],
    provider: EmbedderProvider | None = None,
    aggregate: str = "mean",
    config_echo: Mapping | None = None,
) -> dict:
    """Score each language's candidates: the `eval_report.json` document,
    `scores` by language code (`cider_d_raw`, `cider_d_pct`, `sbert_sim_pct`,
    None without a provider, and `n_items`) and `config`, the echo given."""
    scores = {}
    for lang, cands in candidates_by_language.items():
        if lang not in references_by_language:
            raise ValidationError(f"no references for language {lang.value!r}")
        refs = references_by_language[lang]
        cider = cider_d(cands, refs)
        sim = sbert_sim(cands, refs, provider, lang, aggregate) if provider is not None else None
        scores[lang.value] = {
            "cider_d_raw": cider.corpus_score,
            "cider_d_pct": cider.corpus_score * 100.0,
            "sbert_sim_pct": sim,
            "n_items": len(cands),
        }
    return {"scores": scores, "config": dict(config_echo or {})}
