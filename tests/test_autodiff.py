import tracemalloc

import numpy as np
import pytest

import oracles
from oracles import finite_difference_grads, relative_error
from polycap import autodiff as ad
from polycap.autodiff import Tensor
from polycap.model import MixupDraw


def weighted_sum(t: Tensor, w: np.ndarray) -> Tensor:
    """The scalar sum(t * w) for a constant array `w` shaped like `t`, as one
    node: the tests reduce an output to a loss through it."""

    def backward(g):
        t._accumulate(g * w)

    return Tensor._make(np.sum(t.data * w), (t,), backward)


def plus(a: Tensor, b: Tensor) -> Tensor:
    """a + b for same-shaped tensors as one two-parent node. The engine has
    no generic operator; the tests build shared uses and diamonds with this."""

    def backward(g):
        for parent in (a, b):
            if parent.requires_grad:
                parent._accumulate(g.copy())

    return Tensor._make(a.data + b.data, (a, b), backward)


def activated(x: Tensor, name: str, keep=None, p: float = 0.0) -> Tensor:
    """The Linear node with an identity weight and a bias of -0.0, the
    activation `name` of x itself, then dropout. The product and the bias
    keep finite nonzero entries of x as they are, and with one column every
    entry: signed zeros, infinities and NaNs too."""
    d = x.shape[-1]
    return ad.linear(x, Tensor(np.eye(d)), Tensor(np.full(d, -0.0)), name, keep, p)


def check_grads(make_loss, params: dict, tol=1e-7):
    loss = make_loss()
    loss.backward()
    analytic = {name: p.grad.copy() for name, p in params.items()}
    for p in params.values():
        p.grad = None
    numeric = finite_difference_grads(lambda: make_loss().item(), params)
    for name in params:
        assert relative_error(analytic[name], numeric[name]) < tol, name


class TestBasicOps:
    def test_pointwise_chain(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 3)) + 0.5, requires_grad=True)
        w = rng.normal(size=(4, 3))

        def loss():
            return weighted_sum(plus(activated(x, "gelu"), activated(x, "relu")), w)

        check_grads(loss, {"x": x})

    def test_softmax_rows_sum_to_one(self):
        # with every value 1, each attention output is the sum of its softmax row
        rng = np.random.default_rng(4)
        q, k = Tensor(rng.normal(size=(1, 3, 4)) * 10), Tensor(rng.normal(size=(1, 7, 4)) * 10)
        rows = ad.attention(q, k, Tensor(np.ones((1, 7, 4))), 2).data
        assert np.allclose(rows, 1.0)

    def test_embedding_scatter_accumulates(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        ids = np.array([[0, 0, 2], [5, 0, 2]])  # repeated rows must accumulate
        g = rng.normal(size=(2, 3, 4))

        def loss():
            return weighted_sum(ad.embedding(w, ids), g)

        check_grads(loss, {"w": w})

    def test_scaled_mixed_live_embedding_keeps_the_composed_bits(self):
        # one node for the lookup, the scale, the mixup, the positions and the
        # live-row selection: its values and gradient are those of the scaled
        # lookup followed by the mixup, the row selection and the addition of
        # the selected positions, each run separately
        rng = np.random.default_rng(15)
        w = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
        ids = rng.integers(0, 7, size=(3, 5))
        mixup = MixupDraw(lam=0.3, partner=np.array([2, 0, 1]))
        live = np.arange(5) < np.array([5, 2, 4])[:, None]
        positions = rng.normal(size=(5, 4))
        out = ad.embedding(w, ids, 2.0, mixup, live, positions)
        g = rng.normal(size=out.shape)
        weighted_sum(out, g).backward()
        fused_grad, w.grad = w.grad, None

        tok = ad.embedding(w, ids, 2.0)
        mixed = tok.data * 0.3 + tok.data[mixup.partner] * (1.0 - 0.3)
        # the draw's one mix has the bits of the token and the audio forms
        assert np.array_equal(mixup.mix(tok.data), mixed)
        assert np.array_equal(mixup.mix(tok.data), 0.3 * tok.data + (1.0 - 0.3) * tok.data[mixup.partner])
        composed = mixed[live] + np.broadcast_to(positions, mixed.shape)[live]
        g_full = np.zeros(mixed.shape)
        g_full[live] = g
        g_tok = g_full * 0.3
        np.add.at(g_tok, mixup.partner, g_full * (1.0 - 0.3))
        weighted_sum(tok, g_tok).backward()
        assert np.array_equal(out.data, composed)
        assert np.array_equal(fused_grad, w.grad)

    def test_scaled_mixed_live_embedding_gradients(self):
        rng = np.random.default_rng(16)
        w = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        ids = np.array([[0, 0, 2], [5, 0, 2], [1, 3, 0]])
        mixup = MixupDraw(lam=0.7, partner=np.array([1, 2, 0]))
        live = np.array([[True, True, False], [True, False, False], [True, True, True]])
        g = rng.normal(size=(int(live.sum()), 4))
        positions = rng.normal(size=(3, 4))  # constants: no gradient
        for keep in (None, rng.random(g.shape) >= 0.4):  # dropout over the live rows

            def loss():
                return weighted_sum(ad.embedding(w, ids, 1.5, mixup, live, positions, keep, 0.4), g)

            check_grads(loss, {"w": w})


class TestFusedNodes:
    """Linear (with its ReLU or GELU), the token lookup, Add & Norm and
    attention are one node each with a closed-form gradient, dropout
    included; they match finite differences and the old chains of
    elementwise nodes (tests/oracles.py)."""

    def test_one_node_each(self):
        rng = np.random.default_rng(20)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(1, 5, 4)), requires_grad=True)
        gain = Tensor(np.ones(4), requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        mask = np.triu(np.full((3, 5), -1e9), k=1)
        keep = rng.random((2, 2, 3, 5)) >= 0.5
        for out in (
            ad.linear(x, weight, bias, "relu", keep[0, :, :, :4], 0.5),
            ad.linear(x, weight, bias, "gelu", keep[0, :, :, :4], 0.5),
            ad.embedding(weight, np.array([[0, 3, 3], [1, 2, 0]]), keep=keep[0, :, :, :4], p=0.5),
            ad.add_norm(x, h, keep[0, :, :, :4], 0.5, gain, bias, 1e-5),
            ad.linear(x, weight, bias),
            ad.attention(x, k, k, 2, mask, keep, 0.5),
        ):
            assert all(p._parents == () for p in out._parents)

    def test_add_norm_gradients(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 3, 5)) * 2.0 + 1.0, requires_grad=True)
        h = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        gain = Tensor(rng.normal(size=(5,)), requires_grad=True)
        bias = Tensor(rng.normal(size=(5,)), requires_grad=True)
        w = rng.normal(size=(2, 3, 5))
        for keep in (rng.random((2, 3, 5)) >= 0.3, None):

            def loss():
                return weighted_sum(ad.add_norm(x, h, keep, 0.3, gain, bias, 1e-5), w)

            check_grads(loss, {"x": x, "h": h, "gain": gain, "bias": bias})

    def test_masked_softmax_gradients(self):
        rng = np.random.default_rng(22)
        q = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        k = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        v = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
        mask = np.triu(np.full((3, 4), -1e9), k=1)
        w = rng.normal(size=(2, 3, 4))

        def loss():
            return weighted_sum(ad.attention(q, k, v, 2, mask), w)

        check_grads(loss, {"q": q, "k": k, "v": v})
        # the first query sees only the first key: masked weights are exactly 0
        assert np.array_equal(ad.attention(q, k, v, 2, mask).data[:, 0], v.data[:, 0])

    @staticmethod
    def _dropped_node(name: str, data: np.ndarray, rng):
        """A leaf holding the 2-D `data` and the node `name` over it, as a
        function of dropout's keep-mask and rate. The node's output is shaped
        like `data`: the lookup reads one row per weight row, some twice, and
        an activation is the Linear node with an identity weight."""
        leaf = Tensor(data, requires_grad=True)
        if name == "embedding":
            ids = rng.integers(0, len(data), size=len(data))
            return leaf, lambda keep=None, p=0.0: ad.embedding(leaf, ids, 1.5, keep=keep, p=p)
        return leaf, lambda keep=None, p=0.0: activated(leaf, name, keep, p)

    @pytest.mark.parametrize("name", ["relu", "gelu", "embedding"])
    def test_dropout_gradients(self, name):
        rng = np.random.default_rng(26)
        # ReLU's kink stays farther from every entry than the finite-difference step
        data = rng.uniform(0.2, 2.0, size=(6, 5)) * rng.choice([-1.0, 1.0], size=(6, 5))
        leaf, node = self._dropped_node(name, data, rng)
        keep = rng.random(data.shape) >= 0.3
        w = rng.normal(size=data.shape)

        def loss():
            return weighted_sum(node(keep, 0.3), w)

        check_grads(loss, {name: leaf})

    @pytest.mark.parametrize("name", ["relu", "gelu", "embedding"])
    def test_dropout_equals_composition_bit_for_bit(self, name):
        # the node with a keep-mask has the bits of the node without one,
        # then * keep, then * 1/(1-p); the gradient is dropped the same way
        # before the node's own backward
        rng = np.random.default_rng(27)
        leaf, node = self._dropped_node(name, rng.normal(size=(4, 6)), rng)
        g = rng.normal(size=(4, 6))

        def activation(g_out):
            out, (grad,) = self._forward_and_grads(node, leaf, g=g_out)
            return out, grad

        for p in (0.1, 0.2, 0.5):
            keep = rng.random((4, 6)) >= p
            out, (grad,) = self._forward_and_grads(lambda: node(keep, p), leaf, g=g)
            want_out, want_grad = oracles.composed_dropout(activation, keep, p, g)
            assert np.array_equal(out, want_out)
            assert np.array_equal(grad, want_grad)

    @pytest.mark.parametrize("name", ["relu", "gelu", "embedding"])
    def test_dropout_multiply_keeps_special_value_bits(self, name):
        # x * keep, then * 1/(1-p), has the bits of x * where(keep, 1/(1-p), 0),
        # signed zeros, infinities and NaNs included, forward and backward;
        # one column, so an identity product keeps every value
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -2.5, 1e308, -1e-310])
        data = np.repeat(specials, 2).reshape(20, 1)
        keep = np.tile([True, False], 10).reshape(20, 1)
        g = data[::-1].copy()
        with np.errstate(all="ignore"):
            for p in (0.1, 0.2, 0.5):
                multipliers = np.where(keep, 1.0 / (1.0 - p), 0.0)
                leaf, node = self._dropped_node(name, data.copy(), np.random.default_rng(28))
                plain, (plain_grad,) = self._forward_and_grads(node, leaf, g=g * multipliers)
                out, (grad,) = self._forward_and_grads(lambda: node(keep, p), leaf, g=g)
                assert np.array_equal(out.view(np.int64), (plain * multipliers).view(np.int64))
                assert np.array_equal(grad.view(np.int64), plain_grad.view(np.int64))

    def test_gelu_gradients_around_zero(self):
        x = Tensor(np.linspace(-3.0, 3.0, 13).reshape(1, 13), requires_grad=True)
        w = np.random.default_rng(24).normal(size=(1, 13))

        def loss():
            return weighted_sum(activated(x, "gelu"), w)

        check_grads(loss, {"x": x})

    @pytest.mark.parametrize("name", ["relu", "gelu", None])
    def test_linear_activation_dropout_gradients(self, name):
        # weight, bias and input together, with and without a keep-mask
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        bias = Tensor(rng.normal(size=(5,)), requires_grad=True)
        w = rng.normal(size=(2, 3, 5))
        for keep in (None, rng.random((2, 3, 5)) >= 0.3):

            def loss():
                return weighted_sum(ad.linear(x, weight, bias, name, keep, 0.3), w)

            check_grads(loss, {"x": x, "weight": weight, "bias": bias})

    @staticmethod
    def _forward_and_grads(fn, *tensors, g):
        for t in tensors:
            t.grad = None
        out = fn()
        weighted_sum(out, g).backward()
        return out.data, [t.grad for t in tensors]

    @staticmethod
    def _assert_close(actual, expected):
        assert np.max(np.abs(actual - expected)) <= 1e-12

    def test_equal_to_composition(self):
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(3, 7)) * 2.0, requires_grad=True)
        g = rng.normal(size=x.shape)
        out, (grad,) = self._forward_and_grads(lambda: activated(x, "gelu"), x, g=g)
        want_out, want_grad = oracles.composed_gelu(x.data, g)
        self._assert_close(out, want_out)
        self._assert_close(grad, want_grad)

        x = Tensor(rng.normal(size=(2, 3, 6)) * 3.0 + 1.0, requires_grad=True)
        h = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        gain = Tensor(rng.normal(size=(6,)), requires_grad=True)
        bias = Tensor(rng.normal(size=(6,)), requires_grad=True)
        g = rng.normal(size=x.shape)
        for keep in (rng.random(x.shape) >= 0.2, None):
            out, grads = self._forward_and_grads(
                lambda: ad.add_norm(x, h, keep, 0.2, gain, bias, 1e-5), x, h, gain, bias, g=g
            )
            multipliers = None if keep is None else keep / (1.0 - 0.2)
            want_out, *want_grads = oracles.composed_add_norm(
                x.data, h.data, multipliers, gain.data, bias.data, 1e-5, g
            )
            assert relative_error(out, want_out) <= 1e-12
            for grad, want in zip(grads, want_grads):
                assert relative_error(grad, want) <= 1e-12


    @pytest.mark.parametrize("name", ["relu", "gelu", None])
    def test_linear_activation_dropout_equals_composition(self, name):
        # the product, the bias, the activation and the dropout multiply as
        # one node: the composed forward's bits, its gradients within 1e-12
        rng = np.random.default_rng(29)
        x = Tensor(rng.normal(size=(2, 3, 4)) * 2.0, requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
        bias = Tensor(rng.normal(size=(6,)), requires_grad=True)
        g = rng.normal(size=(2, 3, 6))
        for keep in (rng.random(g.shape) >= 0.25, None):
            out, grads = self._forward_and_grads(
                lambda: ad.linear(x, weight, bias, name, keep, 0.25), x, weight, bias, g=g
            )
            multipliers = None if keep is None else keep / (1.0 - 0.25)
            want_out, *want_grads = oracles.composed_linear_activation(
                x.data, weight.data, bias.data, name, multipliers, g
            )
            assert np.array_equal(out, want_out)
            for grad, want in zip(grads, want_grads):
                assert grad.shape == want.shape
                self._assert_close(grad, want)


class TestFlatRowMatmul:
    """ad.linear: an N-D input times a 2-D weight plus a bias, as one product
    over the flattened rows."""

    def test_three_d_input_with_bias(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)
        g = rng.normal(size=(2, 3, 5))

        def loss():
            return weighted_sum(ad.linear(x, w, b), g)

        check_grads(loss, {"x": x, "w": w, "b": b})

    def test_four_d_input_with_bias(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)
        g = np.random.default_rng(42).normal(size=(2, 3, 4, 3))

        def loss():
            return weighted_sum(ad.linear(x, w, b), g)

        check_grads(loss, {"x": x, "w": w, "b": b})

    def test_non_contiguous_inputs(self):
        rng = np.random.default_rng(10)
        # every other column has one flat stride; with the first row dropped
        # too there is none, so reshape(-1) is a copy and the finite
        # differences must step the entries through their own indices
        for shape, view in (((2, 3, 8), np.s_[..., ::2]), ((2, 4, 8), np.s_[:, 1:, ::2])):
            x = Tensor(rng.normal(size=shape)[view], requires_grad=True)
            assert not x.data.flags.c_contiguous
            w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            b = Tensor(rng.normal(size=(5,)), requires_grad=True)
            g = rng.normal(size=(2, 3, 5))

            def loss():
                return weighted_sum(ad.linear(x, w, b), g)

            check_grads(loss, {"x": x, "w": w, "b": b})
        assert not np.shares_memory(x.data.reshape(-1), x.data)

    def test_gradients_match_batched_then_summed(self):
        rng = np.random.default_rng(11)
        three_d, four_d = rng.normal(size=(4, 7, 6)), rng.normal(size=(2, 3, 5, 6))
        strided = rng.normal(size=(4, 7, 12))[..., ::2]  # not C-contiguous
        for data in (three_d, four_d, strided):
            x = Tensor(data, requires_grad=True)
            w = Tensor(rng.normal(size=(6, 9)), requires_grad=True)
            b = Tensor(rng.normal(size=(9,)), requires_grad=True)
            g = rng.normal(size=data.shape[:-1] + (9,))
            out = ad.linear(x, w, b)
            weighted_sum(out, g).backward()
            lead = tuple(range(data.ndim - 1))
            batched_w = (np.swapaxes(data, -1, -2) @ g).sum(axis=lead[:-1])
            assert np.max(np.abs(w.grad - batched_w)) <= 1e-12
            assert np.max(np.abs(x.grad - g @ w.data.T)) <= 1e-12
            assert np.max(np.abs(b.grad - g.sum(axis=lead))) <= 1e-12
            assert np.max(np.abs(out.data - (data @ w.data + b.data))) <= 1e-12


class TestAttention:
    """ad.attention: head split, scaled scores, additive mask, softmax,
    dropout over a boolean keep-mask, weighted sum and head merge as one
    node."""

    N_HEADS = 2
    P_DROP = 0.3
    # name -> (q shape, leading k/v axis, key positions); d_model 4 in 2 heads
    CASES = {
        "causal": ((2, 3, 4), 2, 3),
        "frame_mask": ((2, 3, 4), 2, 5),
        "broadcast_kv": ((3, 2, 4), 1, 4),
        "flat_rows": ((3, 4), 1, 5),
        "causal_dropout": ((2, 3, 4), 2, 3),
    }

    def _case(self, name: str):
        """q, k, v arrays, additive mask and boolean keep-mask of one named
        case."""
        rng = np.random.default_rng(30)
        q_shape, kv_batch, s = self.CASES[name]
        b, t = q_shape[0], (q_shape[1] if len(q_shape) == 3 else 1)
        q = rng.normal(size=q_shape)
        k, v = rng.normal(size=(kv_batch, s, 4)), rng.normal(size=(kv_batch, s, 4))
        mask = keep = None
        if name.startswith("causal"):
            mask = np.triu(np.full((t, s), -1e9), k=1)[None, None]
        if name == "frame_mask":
            valid = np.ones((b, s), dtype=bool)
            valid[1, 3:] = False
            mask = np.where(valid, 0.0, -1e9)[:, None, None, :]
        if name.endswith("dropout"):
            keep = rng.random((b, self.N_HEADS, t, s)) >= self.P_DROP
        return q, k, v, mask, keep

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_finite_differences(self, name):
        q, k, v, mask, keep = self._case(name)
        q, k, v = (Tensor(a, requires_grad=True) for a in (q, k, v))
        w = np.random.default_rng(40).normal(size=q.shape)

        def loss():
            return weighted_sum(ad.attention(q, k, v, self.N_HEADS, mask, keep, self.P_DROP), w)

        check_grads(loss, {"q": q, "k": k, "v": v})

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_equal_to_composition(self, name):
        *arrays, mask, keep = self._case(name)
        q, k, v = (Tensor(a, requires_grad=True) for a in arrays)
        g = np.random.default_rng(41).normal(size=q.shape)
        out = ad.attention(q, k, v, self.N_HEADS, mask, keep, self.P_DROP)
        weighted_sum(out, g).backward()
        multipliers = None if keep is None else keep / (1.0 - self.P_DROP)
        want_out, *want_grads = oracles.composed_attention(*arrays, self.N_HEADS, mask, multipliers, g)
        assert np.max(np.abs(out.data - want_out)) <= 1e-12
        for got, want in zip((q.grad, k.grad, v.grad), want_grads):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12


class TestGradientOwnership:
    def test_add_parents_get_independent_gradients(self):
        # add_norm without dropout hands one gradient to both of its parents
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        gain, bias = Tensor(rng.normal(size=(4,))), Tensor(rng.normal(size=(4,)))
        c, d = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        weighted_sum(ad.add_norm(a, b, None, 0.0, gain, bias, 1e-5), c).backward()
        assert np.array_equal(a.grad, b.grad)
        shared = b.grad.copy()
        # a's second gradient must not leak into b's
        weighted_sum(a, d).backward()
        assert np.array_equal(b.grad, shared)
        assert np.array_equal(a.grad, shared + d)
        assert not np.may_share_memory(a.grad, b.grad)

    def test_self_add_doubles_gradient(self):
        # add_norm(x, x) is the LayerNorm of y = x + x, so x gets twice y's gradient
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        gain, bias = Tensor(rng.normal(size=(5,))), Tensor(rng.normal(size=(5,)))
        g = rng.normal(size=(2, 5))
        weighted_sum(ad.add_norm(x, x, None, 0.0, gain, bias, 1e-5), g).backward()
        y = Tensor(x.data + x.data, requires_grad=True)
        weighted_sum(ad.add_norm(y, Tensor(np.zeros((2, 5))), None, 0.0, gain, bias, 1e-5), g).backward()
        assert np.array_equal(x.grad, 2.0 * y.grad)

    def test_second_backward_adds_to_taken_over_gradient(self):
        # the first gradient is a reshaped view of the linear node's product
        x = Tensor(np.arange(6.0).reshape(1, 2, 3), requires_grad=True)
        first = weighted_sum(ad.linear(x, Tensor(np.eye(3) * 2.0), Tensor(np.zeros(3))), np.ones((1, 2, 3)))
        first.backward()
        weighted_sum(x, np.full((1, 2, 3), 3.0)).backward()
        assert np.array_equal(x.grad, np.full((1, 2, 3), 5.0))


class TestEngineBehavior:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            activated(x, "relu").backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([3.0]), requires_grad=True)
        weighted_sum(x, np.array([2.0])).backward()
        weighted_sum(activated(x, "relu"), np.array([5.0])).backward()  # the two add to 7
        assert x.grad == pytest.approx([7.0])

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = activated(x, "relu")
        assert not y.requires_grad
        assert y._parents == ()

    def test_float64_everywhere(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert x.data.dtype == np.float64
        assert activated(x, "gelu").data.dtype == np.float64

    def test_only_leaves_keep_gradients(self):
        x = Tensor(np.arange(1.0, 5.0), requires_grad=True)
        hidden = activated(x, "relu")
        root = weighted_sum(hidden, np.arange(4.0))
        root.backward()
        assert np.array_equal(x.grad, np.arange(4.0))
        assert hidden.grad is None and hidden._parents == ()
        assert root.grad == 1.0

    def test_root_keeps_its_ones_when_its_own_backward_writes_in_place(self):
        # a one-element Linear root: ReLU's backward multiplies the gradient
        # it is handed by the zero slope in place
        x = Tensor(np.array([-2.0]), requires_grad=True)
        root = activated(x, "relu")
        root.backward()
        assert root.grad == 1.0 and x.grad == 0.0

    def test_backward_frees_the_graph_as_it_goes(self):
        # a chain of 16 large intermediates: holding each node's output and
        # gradient until the walk ends would add 16 arrays to the forward's
        # memory; freeing each node once its backward has run adds about two
        rng = np.random.default_rng(14)
        x = Tensor(np.abs(rng.normal(size=(256, 512))) + 0.5, requires_grad=True)  # relu passes it all
        w = rng.normal(size=x.shape)
        tracemalloc.start()
        try:
            h = x
            for _ in range(16):
                h = activated(h, "relu")
            loss = weighted_sum(h, w)
            del h
            forward_bytes, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            loss.backward()
            _, backward_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert backward_peak - forward_bytes <= 3 * x.data.nbytes
        assert np.array_equal(x.grad, w)

    def test_diamond_graph_single_backward_pass(self):
        # z = s + s reuses the same node s = 5a + 2b; gradient must not double-count
        a = Tensor(np.array(2.0), requires_grad=True)
        b = Tensor(np.array(5.0), requires_grad=True)
        s = plus(weighted_sum(a, np.array(5.0)), weighted_sum(b, np.array(2.0)))
        z = plus(s, s)
        z.backward()
        assert a.grad == pytest.approx(10.0)
        assert b.grad == pytest.approx(4.0)
