"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Just enough machinery to train a transformer decoder, one node per layer with
a closed-form gradient and no generic arithmetic operator: the scaled, mixed
and position-encoded token lookup, a `Linear` layer with an optional ReLU or
GELU activation, multi-head attention, the post-norm residual
LayerNorm(x + dropout(h)) and the label-smoothed cross-entropy loss. Dropout
is no node of its own: the lookup, Linear, attention and Add & Norm take a
boolean keep-mask and a rate and apply inverted dropout (`drop`) inside the
node that makes the activation. Attention and the token lookup also take a
mask of the live positions of a padded batch, so the row-wise nodes between
them can run on those rows only. Each node keeps only the arrays its own
backward reads, and no backward reads its own node's output. Everything runs
in 64-bit so finite-difference gradient checks are meaningful and training
is bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import special as sp_special

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph construction inside the block (cheap eval forwards)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape it was broadcast from."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A float64 array plus the closure that routes gradients to its parents."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _grad_enabled
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction -------------------------------------------------

    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"], backward) -> "Tensor":
        if not _grad_enabled:
            return Tensor(data)
        parents = tuple(p for p in parents if p.requires_grad)
        out = Tensor(data, requires_grad=bool(parents))
        if out.requires_grad:
            out._parents = parents
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add `grad` into this tensor's gradient.

        The first gradient is taken over without a copy. That is safe because
        every backward hands each parent a buffer that no other live tensor
        holds: a fresh array, or a view of the child's own gradient, which the
        child no longer reads once its backward has run. `add_norm` is the one
        node that routes one gradient to two parents; the second gets a copy.
        """
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def backward(self) -> None:
        """Reverse-accumulate gradients from a scalar output.

        The graph is freed as the walk goes: before a node's own backward
        runs, the walk takes the closure and the gradient off the node,
        clears its closure, gradient and parent edges, and drops its own
        reference to it. So a node nothing else holds is freed, output
        included, before its closure runs. That is safe because no closure
        reads its own node's output, only its parents' arrays and what it
        kept. After backward only leaves (tensors made with
        requires_grad=True, such as parameters) hold `.grad`, plus this root,
        which keeps its ones.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar tensor")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()  # the list must not keep a node alive
            backward, grad = node._backward, node.grad
            if backward is None or grad is None:
                continue  # a leaf keeps its gradient
            node._backward = None
            node._parents = ()
            if node is not self:
                node.grad = None
            del node  # the walk's own reference: the node may go now
            backward(grad)


# -- pointwise functions ---------------------------------------------


def drop(a: np.ndarray, keep: np.ndarray | None, p: float) -> np.ndarray:
    """Inverted dropout of an array: a * keep, then * 1/(1-p), a fresh array
    with the bits of one multiply by the float multipliers (1/(1-p) or 0),
    without making them. `a` itself when keep is None."""
    if keep is None:
        return a
    out = a * keep
    out *= 1.0 / (1.0 - p)
    return out


def gelu(x: np.ndarray, slope: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Exact GELU of an array, x * Phi(x) with the Gaussian CDF via erf, and
    with `slope` its derivative Phi(x) + x * phi(x), phi the standard normal
    density (else None)."""
    # each step in place where the formula's next operation allows it: the
    # same operations in the same order, so the same bits, with fewer
    # temporaries the size of x
    cdf2 = x / math.sqrt(2.0)
    sp_special.erf(cdf2, out=cdf2)
    cdf2 += 1.0  # 2 * Phi(x)
    derivative = None
    if slope:  # cdf2 * 0.5 + x * exp(-0.5 * x * x) / sqrt(2 pi)
        density = -0.5 * x
        density *= x
        np.exp(density, out=density)
        density *= x
        density /= math.sqrt(2.0 * math.pi)
        derivative = cdf2 * 0.5
        derivative += density
    cdf2 *= x
    cdf2 *= 0.5
    return cdf2, derivative


def add_norm(x: Tensor, h: Tensor, keep, p: float, gain: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Post-norm residual ("Add & Norm"): LayerNorm(x + dropout(h)) as one
    node, normalizing over the last axis, then scaling by `gain` and shifting
    by `bias`. `keep` is dropout's boolean keep-mask at rate `p`, or None for
    no dropout. The backward runs the LayerNorm backward once: x gets that
    gradient, and h gets it through the dropout."""
    summed = x.data + drop(h.data, keep, p)
    centered = summed - summed.mean(axis=-1, keepdims=True)
    inv_std = ((centered * centered).mean(axis=-1, keepdims=True) + eps) ** -0.5
    normed = centered * inv_std
    out_data = normed * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate(_unbroadcast(g * normed, gain.shape))
        if bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        g_normed = g * gain.data
        grad = normed * (g_normed * normed).mean(axis=-1, keepdims=True)
        grad += g_normed.mean(axis=-1, keepdims=True)
        np.subtract(g_normed, grad, out=grad)
        grad *= inv_std
        if h.requires_grad:  # a copy when no dropout multiply makes a fresh array
            h._accumulate(grad.copy() if keep is None else drop(grad, keep, p))
        if x.requires_grad:
            x._accumulate(grad)

    return Tensor._make(out_data, (x, h, gain, bias), backward)


def cross_entropy(
    logits: Tensor, targets: Sequence[tuple[np.ndarray, np.ndarray]], eps: float
) -> Tensor:
    """Weighted cross-entropy against eps-smoothed one-hot targets, as one
    scalar node.

    `targets` holds (ids, weight) pairs, each shaped like the logits' leading
    axes. At every position a pair's target puts 1 - eps on its id and
    spreads eps over the other entries; the loss is the sum over pairs and
    positions of weight times the cross-entropy of softmax(logits) against
    that target. Written as sum_j c_j * log_softmax(z)_j, the coefficients c
    sum to -W, with W a position's total weight, so the node needs only the
    per-row log-sum-exp: the value is W * lse minus the weighted target
    logits, and the logits gradient is c + W * softmax, built in one buffer.
    No dense coefficient or log-softmax array is made.
    """
    z = logits.data
    off = eps / (z.shape[-1] - 1)  # every entry's share of eps
    on = 1.0 - eps - off  # what a target id gets on top of `off`
    total = sum(weight for _, weight in targets)
    positions = tuple(np.indices(total.shape))
    peak = z.max(axis=-1)
    shifted = z - peak[..., None]
    shifted_sum = shifted.sum(axis=-1)
    np.exp(shifted, out=shifted)
    log_norm = np.log(shifted.sum(axis=-1))
    losses = total * (log_norm - off * shifted_sum)
    for ids, weight in targets:
        losses -= on * weight * (z[(*positions, ids)] - peak)
    lse = peak + log_norm

    def backward(g):
        grad = z - lse[..., None]
        np.exp(grad, out=grad)  # the softmax
        grad -= off
        grad *= (total * g)[..., None]
        for ids, weight in targets:
            grad[(*positions, ids)] -= on * weight * g
        logits._accumulate(grad)

    return Tensor._make(losses.sum(), (logits,), backward)


# -- products ---------------------------------------------------------


def linear(
    x: Tensor, weight: Tensor, bias: Tensor, activation: str | None = None, keep=None, p: float = 0.0
) -> Tensor:
    """x @ weight + bias over the last axis of x, then the activation (None,
    "relu" or "gelu"), then inverted dropout with the boolean keep-mask
    `keep`, shaped like the output, at rate p (None: no dropout), as one node.

    The product runs over the flattened rows of x. The node keeps the input
    rows, the keep-mask and the activation's slope (ReLU's `> 0` mask, GELU's
    derivative), not the pre-activation: the backward drops the output
    gradient, multiplies it by the slope, and runs two flat products and a
    row sum. The slope is computed only while a graph is being built.
    """
    d_in, d_out = weight.shape
    rows = x.data.reshape(-1, d_in)
    out = rows @ weight.data
    out += bias.data
    out = out.reshape(x.shape[:-1] + (d_out,))
    building = _grad_enabled and (x.requires_grad or weight.requires_grad or bias.requires_grad)
    slope = None
    if activation == "relu":
        slope = out > 0
        out = np.where(slope, out, 0.0)
    elif activation == "gelu":
        out, slope = gelu(out, building)  # the module global, so a tracer can wrap it
    elif activation is not None:
        raise ValueError(f"unknown activation {activation!r}")

    def backward(g):
        g = drop(g, keep, p)
        if slope is not None:
            g = g * slope
        g_rows = g.reshape(-1, d_out)
        if bias.requires_grad:
            bias._accumulate(g_rows.sum(axis=0))
        if x.requires_grad:
            x._accumulate((g_rows @ weight.data.T).reshape(x.shape))
        if weight.requires_grad:
            weight._accumulate(rows.T @ g_rows)

    return Tensor._make(drop(out, keep, p), (x, weight, bias), backward)


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    additive_mask=None,
    keep=None,
    p_drop: float = 0.0,
    live: np.ndarray | None = None,
) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    q is (b, t, d), or flat (rows, d) with one position per row; k and v are
    (b or 1, s, d), and a leading 1 broadcasts over the b queries. The model
    always passes flat query rows: packed by `live` in training and
    validation, one position per row in the cached decoder. The node
    splits d into n_heads heads, scales the scores by 1/sqrt(d / n_heads), adds
    the numpy `additive_mask` (broadcast to the (b, n_heads, t, s) scores),
    takes the softmax over s, drops it out with the boolean keep-mask `keep`
    (shaped like the scores) at rate p_drop, sums the values with those
    weights and merges the heads back to q's shape. The backward is the
    closed-form attention backward of FlashAttention (Dao et al. 2022)
    without the tiling: with P the softmax, the score gradient is
    P * (dP - rowsum(dP * P)).

    `live`, a (b, t) boolean mask, packs the inputs: each flat (rows, d)
    input among q, k and v then holds the rows of a padded (b, t, d) batch
    where `live` is True, in row-major order. The node scatters them into
    zeroed (b, t, d) buffers, attends in that padded layout and returns the
    live rows of the output; the backward gathers the gradients back.

    The node keeps only the softmax and the keep-mask. Its backward pads and
    splits q, k and v again from the parents' arrays, which the graph holds
    anyway, and drops the softmax again.
    """
    d_head = q.shape[-1] // n_heads
    scale = 1.0 / math.sqrt(d_head)
    packed = [live is not None and x.data.ndim == 2 for x in (q, k, v)]

    def pad(y: np.ndarray, is_packed: bool) -> np.ndarray:
        if not is_packed:
            return y
        out = np.zeros(live.shape + y.shape[-1:])
        out[live] = y
        return out

    def split(y: np.ndarray) -> np.ndarray:  # (n, t, d) -> (n, n_heads, t, d_head)
        return y.reshape(y.shape[0], -1, n_heads, d_head).swapaxes(1, 2)

    def merge(y: np.ndarray, shape: tuple[int, ...], is_packed: bool) -> np.ndarray:
        if is_packed:
            return y.swapaxes(1, 2).reshape(live.shape + shape[-1:])[live]
        return y.swapaxes(1, 2).reshape(shape)

    def heads() -> list[np.ndarray]:
        return [split(pad(x.data, is_packed)) for x, is_packed in zip((q, k, v), packed)]

    qh, kh, vh = heads()
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    if additive_mask is not None:
        scores += additive_mask
    probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    out_data = merge(drop(probs, keep, p_drop) @ vh, q.shape, packed[0])

    def backward(g):
        qh, kh, vh = heads()
        weights = drop(probs, keep, p_drop)
        g_heads = split(pad(g, packed[0]))
        if v.requires_grad:
            g_values = _unbroadcast(weights.swapaxes(-1, -2) @ g_heads, vh.shape)
            v._accumulate(merge(g_values, v.shape, packed[2]))
        g_scores = drop(g_heads @ vh.swapaxes(-1, -2), keep, p_drop)
        g_scores *= probs
        g_scores -= probs * g_scores.sum(axis=-1, keepdims=True)
        g_scores *= scale
        if q.requires_grad:
            q._accumulate(merge(g_scores @ kh, q.shape, packed[0]))
        if k.requires_grad:
            g_keys = _unbroadcast(qh.swapaxes(-1, -2) @ g_scores, kh.swapaxes(-1, -2).shape)
            k._accumulate(merge(g_keys.swapaxes(-1, -2), k.shape, packed[1]))

    return Tensor._make(out_data, (q, k, v), backward)


# -- lookups ----------------------------------------------------------


def embedding(
    weight: Tensor, ids: np.ndarray, scale: float = 1.0, mixup=None, live=None, positions=None, keep=None, p=0.0
) -> Tensor:
    """Row lookup, scaled, mixed and position-encoded: out[...] =
    weight[ids[...]] * scale + positions.

    `mixup`, a draw with a weight `lam` and a `partner` permutation of the
    leading axis, mixes the scaled rows (`mixup.mix`) before the constant
    `positions`, broadcast to the rows' shape, are added. `live`, a boolean
    mask over ids' shape, keeps only the rows where it is True (row-major);
    the backward scatters their gradients back. The output is then dropped
    out with the boolean keep-mask `keep`, shaped like it, at rate p (None:
    no dropout).
    """
    ids = np.asarray(ids)
    out_data = weight.data[ids] * scale
    if mixup is not None:
        out_data = mixup.mix(out_data)
    if positions is not None:
        out_data += positions
    if live is not None:
        out_data = out_data[live]

    def backward(g):
        g = drop(g, keep, p)
        if live is not None:
            g_full = np.zeros(ids.shape + g.shape[-1:])
            g_full[live] = g
            g = g_full
        if mixup is not None:
            g_rows = g * mixup.lam
            np.add.at(g_rows, mixup.partner, g * (1.0 - mixup.lam))
            g = g_rows
        full = np.zeros_like(weight.data)
        np.add.at(full, ids.reshape(-1), (g * scale).reshape(-1, weight.data.shape[1]))
        weight._accumulate(full)

    return Tensor._make(drop(out_data, keep, p), (weight,), backward)
