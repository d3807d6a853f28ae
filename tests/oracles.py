"""Independent reference implementations used only to check the production
code: a literal transcription of the CIDEr-D formula, the caption-by-caption
dictionary CIDEr-D scorer that the array scorer must match bit for bit,
exhaustive constrained sequence search, an object-per-hypothesis beam search,
central finite differences, the softmax, log-softmax, LayerNorm, dropout then
add then LayerNorm, GELU and multi-head attention spelled out as chains of
separate steps with the chain rule run back through each step, and the
label-smoothed loss as a dense coefficient array times the log-softmax,
AdamW as whole-array textbook formulas, a seed's initial parameters drawn
one module after another, the tokenizer as one regex pass over the whole
text, the vocabulary order as one sort by (-count, token), and the bytes of
an `.ackp` checkpoint of either version packed field by field. These
deliberately share no code with the package paths they verify.
"""

from __future__ import annotations

import json
import math
import re
import struct
from collections import Counter
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy import special

from polycap.errors import ValidationError
from polycap.evaluation import CIDER_N_MAX, CIDER_SCALE, CIDER_SIGMA, CiderResult
from polycap.text import tokenize


def bruteforce_cider_d(
    cand_tokens: dict[str, list[str]],
    ref_tokens: dict[str, list[list[str]]],
    n_max: int = 4,
    sigma: float = 6.0,
) -> dict[str, float]:
    """CIDEr-D per item, written straight from the published formula."""

    def grams(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    items = list(cand_tokens)
    log_n = math.log(len(items))

    def df(gram):
        hits = 0
        for item in items:
            if any(gram in grams(ref, len(gram)) for ref in ref_tokens[item]):
                hits += 1
        return hits

    def tfidf(tokens, n):
        return {
            g: tf * (log_n - math.log(max(1.0, df(g)))) for g, tf in grams(tokens, n).items()
        }

    scores = {}
    for item in items:
        cand = cand_tokens[item]
        per_n = []
        for n in range(1, n_max + 1):
            vc = tfidf(cand, n)
            nc = math.sqrt(sum(w * w for w in vc.values()))
            acc = 0.0
            for ref in ref_tokens[item]:
                vr = tfidf(ref, n)
                nr = math.sqrt(sum(w * w for w in vr.values()))
                if nc == 0.0 or nr == 0.0:
                    continue
                num = sum(min(vc[g], vr.get(g, 0.0)) * vr.get(g, 0.0) for g in vc)
                penalty = math.exp(-((len(cand) - len(ref)) ** 2) / (2.0 * sigma**2))
                acc += penalty * num / (nc * nr)
            per_n.append(acc / len(ref_tokens[item]))
        scores[item] = 10.0 * sum(per_n) / n_max
    return scores


def ngram_counts(tokens: Sequence[str], n_max: int = CIDER_N_MAX) -> Counter:
    """Counts of all n-grams (as tuples) for n = 1..n_max."""
    counts: Counter = Counter()
    for n in range(1, n_max + 1):
        for i in range(len(tokens) - n + 1):
            counts[tuple(tokens[i : i + n])] += 1
    return counts


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


def dict_cider_d(
    candidates: Mapping[str, str], references: Mapping[str, Sequence[str]]
) -> CiderResult:
    """Corpus and per-item CIDEr-D on the raw 0..10 scale, scored caption by
    caption over n-gram dictionaries: the recipe `evaluation.cider_d` must
    reproduce bit for bit.

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


def exhaustive_constrained_search(
    step_fn,
    vocab,
    stopwords: frozenset[str],
    max_len: int,
    length_norm: float,
) -> tuple[tuple[int, ...], float]:
    """Enumerate every no-repeat word sequence of length <= max_len (EOS
    appended and scored) and return (ids, best normalized score)."""
    word_ids = list(vocab.word_ids)
    best_ids, best_score = None, -math.inf

    def score_of(seq: tuple[int, ...]) -> float:
        prefix = (vocab.bos_id,)
        total = 0.0
        for tok in seq + (vocab.eos_id,):
            row = step_fn(np.array([prefix], dtype=np.int64))[0]
            total += float(row[tok])
            prefix = prefix + (tok,)
        steps = len(seq) + 1
        return total / steps**length_norm

    def expand(seq: tuple[int, ...]):
        nonlocal best_ids, best_score
        norm = score_of(seq)
        key = tuple([vocab.bos_id, *seq, vocab.eos_id])
        if norm > best_score or (norm == best_score and key < best_ids):
            best_ids, best_score = key, norm
        if len(seq) >= max_len:
            return
        used = {vocab.tokens[i] for i in seq}
        for tok in word_ids:
            surface = vocab.tokens[tok]
            if surface in used and surface not in stopwords:
                continue
            expand(seq + (tok,))

    expand(tuple())
    return best_ids, best_score


def greedy_constrained_decode(
    step_fn,
    vocab,
    stopwords: frozenset[str],
    max_len: int,
    length_norm: float,
) -> tuple[tuple[int, ...], float]:
    """Constrained greedy decoding, written independently of the beam code.

    Follow the argmax word at every step (banned words excluded, ties to the
    smaller id), consider the EOS termination of every prefix along the way,
    and return the termination with the best normalized score (ties to the
    lexicographically smaller id sequence).
    """
    prefix = (vocab.bos_id,)
    total = 0.0
    terminations = []

    def consider(prefix, total, row):
        logp = total + float(row[vocab.eos_id])
        ids = prefix + (vocab.eos_id,)
        steps = len(ids) - 1
        terminations.append((logp / steps**length_norm, ids, logp))

    for _ in range(max_len):
        row = step_fn(np.array([prefix], dtype=np.int64))[0]
        consider(prefix, total, row)
        used = {vocab.tokens[i] for i in prefix[1:]}
        best_tok, best_lp = None, -math.inf
        for tok in vocab.word_ids:
            surface = vocab.tokens[tok]
            if surface in used and surface not in stopwords:
                continue
            lp = float(row[tok])
            if lp > best_lp:
                best_tok, best_lp = tok, lp
        if best_tok is None:
            break
        prefix = prefix + (best_tok,)
        total += best_lp
    row = step_fn(np.array([prefix], dtype=np.int64))[0]
    consider(prefix, total, row)
    best = min(terminations, key=lambda t: (-t[0], t[1]))
    return best[1], best[0]


def reference_beam_search(
    step_fn,
    vocab,
    stopwords: frozenset[str],
    beam_size: int,
    max_len: int,
    length_norm: float,
) -> tuple[tuple[int, ...], float, float]:
    """Object-per-hypothesis constrained beam search, the loop form of
    polycap.decoding.grouped_beam_search over one group. Returns (ids, log_prob, normalized score).

    Each round expands every active hypothesis by EOS (to the finished pool)
    and by every word it has not used (stopwords exempt; only EOS once the
    word budget is spent), then keeps the beam_size best candidates by
    (-log_prob, id tuple). The finished hypothesis with the best normalized
    score wins, ties to the smaller id tuple.

    step_fn is called as step_fn(ids, parents): the active id rows and, for
    each, its index in the previous round's active list (0 for BOS).
    """

    def normalized(ids, log_prob):
        return log_prob / ((len(ids) - 1) ** length_norm)

    active = [((vocab.bos_id,), 0.0, 0)]  # (ids, log_prob, parent)
    finished = []
    for _ in range(max_len + 1):
        if not active:
            break
        rows = step_fn(
            np.array([ids for ids, _, _ in active], dtype=np.int64),
            np.array([parent for _, _, parent in active], dtype=np.intp),
        )
        candidates = []
        for index, ((ids, log_prob, _), row) in enumerate(zip(active, rows)):
            finished.append((ids + (vocab.eos_id,), log_prob + float(row[vocab.eos_id])))
            if len(ids) - 1 >= max_len:
                continue
            used = {vocab.tokens[i] for i in ids[1:]}
            for tok in vocab.word_ids:
                surface = vocab.tokens[tok]
                if surface in used and surface not in stopwords:
                    continue
                candidates.append((ids + (tok,), log_prob + float(row[tok]), index))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        active = candidates[:beam_size]
    ids, log_prob = min(finished, key=lambda f: (-normalized(*f), f[0]))
    return ids, log_prob, normalized(ids, log_prob)


def finite_difference_grads(loss_fn, params: dict, h: float = 1e-5) -> dict:
    """Central finite differences of a scalar loss for each named array.
    Entries are stepped in place through their own indices, so an array of
    any memory layout (a strided view included) is perturbed, not a copy."""
    grads = {}
    for name, p in params.items():
        data = p.data
        out = np.zeros(data.shape)
        for idx in np.ndindex(data.shape):
            orig = data[idx]
            step = h * max(1.0, abs(orig))
            data[idx] = orig + step
            lp = loss_fn()
            data[idx] = orig - step
            lm = loss_fn()
            data[idx] = orig
            out[idx] = (lp - lm) / (2.0 * step)
        grads[name] = out
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(a) + np.abs(b), 1e-6)))


# -- composed primitives -------------------------------------------------
# Each returns the forward value and the gradients of sum(g * value), built
# step by step from exp, log, sums, means, erf and powers.


def composed_log_softmax(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    shifted = x - x.max(axis=-1, keepdims=True)  # the max carries no gradient
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    out = shifted - np.log(total)
    g_total = -g.sum(axis=-1, keepdims=True) / total
    return out, g + g_total * e


def composed_softmax(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    log_out, _ = composed_log_softmax(x, np.zeros_like(x))
    out = np.exp(log_out)
    _, grad = composed_log_softmax(x, g * out)
    return out, grad


def composed_layer_norm(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Value and (x, gain, bias) gradients of
    (x - mean) * (var + eps) ** -0.5 * gain + bias."""
    d = x.shape[-1]
    lead = tuple(range(x.ndim - 1))
    mu = x.sum(axis=-1, keepdims=True) / d
    centered = x - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) / d
    scale = (var + eps) ** -0.5
    out = centered * scale * gain + bias
    g_gain = (g * centered * scale).sum(axis=lead)
    g_bias = g.sum(axis=lead)
    g_scaled = g * gain
    g_scale = (g_scaled * centered).sum(axis=-1, keepdims=True)
    g_var = g_scale * -0.5 * (var + eps) ** -1.5
    g_centered = g_scaled * scale + 2.0 * centered * g_var / d
    g_x = g_centered - g_centered.sum(axis=-1, keepdims=True) / d
    return out, g_x, g_gain, g_bias


def composed_add_norm(
    x: np.ndarray,
    h: np.ndarray,
    multipliers: np.ndarray | None,
    gain: np.ndarray,
    bias: np.ndarray,
    eps: float,
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Value and (x, h, gain, bias) gradients of LayerNorm(x + h * multipliers),
    the float dropout multipliers (or none) applied first, then the addition,
    then the LayerNorm chain above."""
    dropped = h if multipliers is None else h * multipliers
    out, g_sum, g_gain, g_bias = composed_layer_norm(x + dropped, gain, bias, eps, g)
    g_h = g_sum if multipliers is None else g_sum * multipliers
    return out, g_sum, g_h, g_gain, g_bias


def composed_gelu(x: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and gradient of x * (erf(x / sqrt 2) + 1) * 0.5."""
    u = x / math.sqrt(2.0)
    cdf2 = special.erf(u) + 1.0
    out = x * cdf2 * 0.5
    g_u = g * x * 0.5 * (2.0 / math.sqrt(math.pi)) * np.exp(-u * u)
    return out, g * cdf2 * 0.5 + g_u / math.sqrt(2.0)


def composed_linear_activation(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    activation: str | None,
    multipliers: np.ndarray | None,
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Value and (x, w, b) gradients of a linear layer, an activation and
    dropout, one step at a time: the product over x's flattened rows, the
    bias, then the activation (none, ReLU, or `composed_gelu`), then the
    float dropout multipliers (or none). The gradient runs the same steps
    back."""
    rows = x.reshape(-1, w.shape[0])
    h = rows @ w
    h = h + b
    h = h.reshape(x.shape[:-1] + w.shape[1:])
    g_act = g if multipliers is None else g * multipliers
    if activation == "gelu":
        value, g_h = composed_gelu(h, g_act)
    elif activation == "relu":
        value, g_h = np.where(h > 0, h, 0.0), np.where(h > 0, g_act, 0.0)
    else:
        value, g_h = h, g_act
    if multipliers is not None:
        value = value * multipliers
    g_rows = g_h.reshape(-1, w.shape[1])
    return value, (g_rows @ w.T).reshape(x.shape), rows.T @ g_rows, g_rows.sum(axis=0)


def composed_dropout(
    activation: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    keep: np.ndarray,
    p: float,
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Value and input gradient of an activation followed by inverted
    dropout: the activation's value, then * keep, then * 1/(1-p). The output
    gradient `g` takes the same two multiplies on its way back, then the
    activation's own backward. `activation` maps an output gradient to the
    activation's value and its input gradient."""
    scale = 1.0 / (1.0 - p)
    value, grad = activation(g * keep * scale)
    return value * keep * scale, grad


def composed_attention(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    n_heads: int,
    mask: np.ndarray | None,
    keep: np.ndarray | None,
    g: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Value and (q, k, v) gradients of sum(g * attention), one step at a
    time: head split, batched query-key products, scale, additive mask,
    softmax, dropout multipliers, batched products with the values, head
    merge. q is (b, t, d) or flat (rows, d), one position per row; k and v
    are (b or 1, s, d), and a leading 1 is repeated over the b queries."""
    d_head = q.shape[-1] // n_heads
    b = q.shape[0]

    def split(x):  # (n, t, d) -> (n, heads, t, d_head)
        return np.transpose(x.reshape(x.shape[0], -1, n_heads, d_head), (0, 2, 1, 3))

    def merge(x, shape):
        return np.transpose(x, (0, 2, 1, 3)).reshape(shape)

    qh = split(q)
    kh = np.repeat(split(k), b // k.shape[0], axis=0)
    vh = np.repeat(split(v), b // v.shape[0], axis=0)
    raw = np.matmul(qh, np.transpose(kh, (0, 1, 3, 2)))
    scaled = raw / math.sqrt(d_head)
    masked = scaled if mask is None else scaled + mask
    probs, _ = composed_softmax(masked, np.zeros_like(masked))
    dropped = probs if keep is None else probs * keep
    out = merge(np.matmul(dropped, vh), q.shape)

    g_out = split(g)
    g_vh = np.matmul(np.transpose(dropped, (0, 1, 3, 2)), g_out)
    g_dropped = np.matmul(g_out, np.transpose(vh, (0, 1, 3, 2)))
    g_probs = g_dropped if keep is None else g_dropped * keep
    _, g_masked = composed_softmax(masked, g_probs)
    g_raw = g_masked / math.sqrt(d_head)
    g_qh = np.matmul(g_raw, kh)
    g_kh = np.matmul(np.transpose(g_raw, (0, 1, 3, 2)), qh)

    def fold(grad, like):  # a repeated batch axis collects every copy's gradient
        return merge(grad.reshape(like.shape[0], -1, *grad.shape[1:]).sum(axis=1), like.shape)

    return out, merge(g_qh, q.shape), fold(g_kh, k), fold(g_vh, v)


def composed_smoothed_cross_entropy(
    z: np.ndarray,
    target_ids: np.ndarray,
    eps: float,
    pad_id: int,
    lam: float | None = None,
    partner: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Value and logits gradient of sum(coef * log_softmax(z)), with coef
    minus the position-weighted smoothed targets: eps / (V - 1) on every
    entry and 1 - eps on each target set's id. Each set's weight is its
    mixup share over its non-pad count; without `lam` there is one set."""
    sets = [(1.0, target_ids)] if lam is None else [(lam, target_ids), (1.0 - lam, target_ids[partner])]
    off = eps / (z.shape[-1] - 1)
    coef = np.zeros(z.shape)
    rows, cols = np.indices(target_ids.shape)
    for share, ids in sets:
        valid = ids != pad_id
        weight = share * valid / valid.sum()
        coef -= off * weight[..., None]
        coef[rows, cols, ids] -= (1.0 - eps - off) * weight
    log_probs, grad = composed_log_softmax(z, coef)
    return float((log_probs * coef).sum()), grad


class TextbookAdamW:
    """AdamW with decoupled decay, one whole-array formula per line; a
    drop-in for `training.AdamW` in a `Trainer`."""

    def __init__(self, betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        self.b1, self.b2 = betas
        self.eps = eps
        self.state: dict[str, dict] = {}

    def step(self, named_params: Mapping, lr: float, weight_decay: float, decay_names: frozenset[str]) -> None:
        b1, b2 = self.b1, self.b2
        for name, p in named_params.items():
            g = p.grad if p.grad is not None else np.zeros(p.data.shape)
            st = self.state.setdefault(name, {"m": 0.0, "v": 0.0, "t": 0})
            st["t"] += 1
            st["m"] = b1 * st["m"] + (1.0 - b1) * g
            st["v"] = b2 * st["v"] + (1.0 - b2) * g * g
            m_hat = st["m"] / (1.0 - b1 ** st["t"])
            v_hat = st["v"] / (1.0 - b2 ** st["t"])
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)
            if name in decay_names and weight_decay > 0.0:
                p.data = p.data - lr * weight_decay * p.data


def initial_parameters(
    d_in: int, d_model: int, n_layers: int, d_ff: int, vocab_sizes: Sequence[tuple[str, int]], seed: int
) -> dict[str, np.ndarray]:
    """A model's initial parameters by name, drawn as the README documents:
    one generator from `seed`; every weight matrix uniform in
    +-1/sqrt(fan-in), drawn in the order front-end, each layer's
    self-attention q/k/v/o, cross-attention q/k/v/o, feed-forward in and out,
    then per head in the given (language) order its embedding (fan-in
    d_model) and classifier; biases zero, LayerNorm gains one."""
    rng = np.random.default_rng(seed)
    out: dict[str, np.ndarray] = {}

    def uniform(fan_in, shape):
        return rng.uniform(-1.0 / math.sqrt(fan_in), 1.0 / math.sqrt(fan_in), size=shape)

    def dense(name, n_in, n_out):
        out[name + ".weight"] = uniform(n_in, (n_in, n_out))
        out[name + ".bias"] = np.zeros(n_out)

    dense("frontend", d_in, d_model)
    for i in range(n_layers):
        for block in ("self_attn", "cross_attn"):
            for proj in ("wq", "wk", "wv", "wo"):
                dense(f"trunk.layers.{i}.{block}.{proj}", d_model, d_model)
        dense(f"trunk.layers.{i}.ff.w1", d_model, d_ff)
        dense(f"trunk.layers.{i}.ff.w2", d_ff, d_model)
        for norm in ("norm1", "norm2", "norm3"):
            out[f"trunk.layers.{i}.{norm}.gain"] = np.ones(d_model)
            out[f"trunk.layers.{i}.{norm}.bias"] = np.zeros(d_model)
    for code, size in vocab_sizes:
        out[f"heads.{code}.embedding.weight"] = uniform(d_model, (size, d_model))
        dense(f"heads.{code}.classifier", d_model, size)
    return out


def regex_tokenize(text: str) -> list[str]:
    """Lowercase, every apostrophe turned into a space, then each run of word
    characters, optionally joined by internal hyphens, in one regex pass."""
    lowered = text.lower()
    for apostrophe in "'’ʼ":
        lowered = lowered.replace(apostrophe, " ")
    return re.findall(r"\w+(?:-\w+)*", lowered)


def vocabulary_order(corpus: Sequence[Sequence[str]], min_count: int) -> list[str]:
    """The word tokens seen at least `min_count` times, by count descending,
    equal counts by token."""
    counts = Counter(tok for caption in corpus for tok in caption)
    return sorted((tok for tok, c in counts.items() if c >= min_count), key=lambda tok: (-counts[tok], tok))


def checkpoint_bytes(meta: dict, params: Mapping[str, np.ndarray], version: int) -> bytes:
    """An `.ackp` file of `version` 1 or 2, packed with `struct` from the
    README's layout: `ACKP`, then little-endian u32 version, meta length,
    the UTF-8 JSON meta (keys sorted), u32 tensor count, then per tensor
    u32 name length, UTF-8 name, u32 rank, one u32 per dimension and the
    little-endian float64 data. Version 2 puts zero bytes after the count
    and after each record's dimensions, up to the next file offset that is a
    multiple of 8; version 1 puts none."""
    meta_bytes = json.dumps(meta, ensure_ascii=False, sort_keys=True).encode("utf-8")
    out = bytearray(b"ACKP" + struct.pack("<II", version, len(meta_bytes)) + meta_bytes)

    def pad() -> None:
        while version == 2 and len(out) % 8:
            out.append(0)

    out += struct.pack("<I", len(params))
    pad()
    for name, array in params.items():
        encoded = name.encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded
        out += struct.pack("<I", array.ndim) + struct.pack(f"<{array.ndim}I", *array.shape)
        pad()
        out += array.astype("<f8").tobytes()
    return bytes(out)
