import numpy as np
import pytest

import oracles
from oracles import finite_difference_grads, relative_error
from polycap import autodiff as ad
from polycap.autodiff import Tensor


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
    def test_arithmetic_with_broadcasting(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4,)), requires_grad=True)
        c = Tensor(rng.normal(size=(3, 1)), requires_grad=True)

        def loss():
            return ((a * b - c) / (b * b + 1.0) + 2.0 * a).sum()

        check_grads(loss, {"a": a, "b": b, "c": c})

    def test_matmul_batched(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)

        def loss():
            return ((a @ w) @ b).sum()

        check_grads(loss, {"a": a, "w": w, "b": b})

    def test_pointwise_chain(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 3)) + 0.5, requires_grad=True)

        def loss():
            return (ad.gelu(x) + ad.relu(x)).sum()

        check_grads(loss, {"x": x})

    def test_log_softmax_and_gather(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        ids = np.array([[0, 2, 4], [1, 1, 3]])
        picks = Tensor(ids[..., None] == np.arange(5))

        def loss():
            return (ad.log_softmax(x, axis=-1) * picks).sum()

        check_grads(loss, {"x": x})

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(4).normal(size=(3, 7)) * 10)
        rows = ad.softmax(x, axis=-1).data
        assert np.allclose(rows.sum(axis=-1), 1.0)

    def test_embedding_scatter_accumulates(self):
        rng = np.random.default_rng(5)
        w = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        ids = np.array([[0, 0, 2], [5, 0, 2]])  # repeated rows must accumulate

        def loss():
            y = ad.embedding(w, ids)
            return (y * y).sum()

        check_grads(loss, {"w": w})

    def test_reductions_and_reshape(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

        def loss():
            y = x.sum(axis=-1, keepdims=True) * 0.25
            z = (x - y).reshape(6, 4).swapaxes(0, 1)
            return (z * z).sum() + x.sum(axis=(0, 1)).sum() * 0.25

        check_grads(loss, {"x": x})

    def test_getitem_slice(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

        def loss():
            # a repeated row index must accumulate, as in ad.embedding
            y = x[np.array([0, 0, 3])]
            return (x[1:3, ::2] * 3.0).sum() + (y * y).sum()

        check_grads(loss, {"x": x})


class TestFusedNodes:
    """Softmax, log-softmax, LayerNorm and GELU are one node each with a
    closed-form gradient; they match finite differences and the old chains of
    elementwise nodes (tests/oracles.py)."""

    def test_one_node_each(self):
        x = Tensor(np.random.default_rng(20).normal(size=(2, 3, 4)), requires_grad=True)
        gain = Tensor(np.ones(4), requires_grad=True)
        bias = Tensor(np.zeros(4), requires_grad=True)
        for out in (ad.softmax(x), ad.log_softmax(x), ad.gelu(x), ad.layer_norm(x, gain, bias, 1e-5)):
            assert all(p._parents == () for p in out._parents)

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 3, 5)) * 2.0 + 1.0, requires_grad=True)
        gain = Tensor(rng.normal(size=(5,)), requires_grad=True)
        bias = Tensor(rng.normal(size=(5,)), requires_grad=True)
        w = Tensor(rng.normal(size=(2, 3, 5)))

        def loss():
            return (ad.layer_norm(x, gain, bias, 1e-5) * w).sum()

        check_grads(loss, {"x": x, "gain": gain, "bias": bias})

    def test_masked_softmax_gradients(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
        mask = Tensor(np.triu(np.full((3, 4), -1e9), k=1))
        w = Tensor(rng.normal(size=(2, 2, 3, 4)))

        def loss():
            return (ad.softmax(x + mask, axis=-1) * w).sum()

        check_grads(loss, {"x": x})
        assert np.all(ad.softmax(x + mask).data[..., 0, 1:] == 0.0)

    def test_log_softmax_gradients(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(3, 6)) * 3.0, requires_grad=True)
        w = Tensor(rng.normal(size=(3, 6)))

        def loss():
            return (ad.log_softmax(x, axis=-1) * w).sum()

        check_grads(loss, {"x": x})

    def test_gelu_gradients_around_zero(self):
        x = Tensor(np.linspace(-3.0, 3.0, 13).reshape(1, 13), requires_grad=True)
        w = Tensor(np.random.default_rng(24).normal(size=(1, 13)))

        def loss():
            return (ad.gelu(x) * w).sum()

        check_grads(loss, {"x": x})

    @staticmethod
    def _forward_and_grads(fn, *tensors, g):
        for t in tensors:
            t.grad = None
        out = fn()
        (out * Tensor(g)).sum().backward()
        return out.data, [t.grad for t in tensors]

    @staticmethod
    def _assert_close(actual, expected):
        assert np.max(np.abs(actual - expected)) <= 1e-12

    def test_equal_to_composition(self):
        rng = np.random.default_rng(25)
        data = rng.normal(size=(2, 3, 4, 5)) * 2.0
        data[..., 3:] += -1e9  # masked entries, as attention has
        g = rng.normal(size=data.shape)
        x = Tensor(data, requires_grad=True)
        for fused, composed in (
            (ad.softmax, oracles.composed_softmax),
            (ad.log_softmax, oracles.composed_log_softmax),
        ):
            out, (grad,) = self._forward_and_grads(lambda: fused(x, axis=-1), x, g=g)
            want_out, want_grad = composed(data, g)
            self._assert_close(out, want_out)
            self._assert_close(grad, want_grad)

        x = Tensor(rng.normal(size=(3, 7)) * 2.0, requires_grad=True)
        g = rng.normal(size=x.shape)
        out, (grad,) = self._forward_and_grads(lambda: ad.gelu(x), x, g=g)
        want_out, want_grad = oracles.composed_gelu(x.data, g)
        self._assert_close(out, want_out)
        self._assert_close(grad, want_grad)

        x = Tensor(rng.normal(size=(2, 3, 6)) * 3.0 + 1.0, requires_grad=True)
        gain = Tensor(rng.normal(size=(6,)), requires_grad=True)
        bias = Tensor(rng.normal(size=(6,)), requires_grad=True)
        g = rng.normal(size=x.shape)
        out, grads = self._forward_and_grads(lambda: ad.layer_norm(x, gain, bias, 1e-5), x, gain, bias, g=g)
        want_out, *want_grads = oracles.composed_layer_norm(x.data, gain.data, bias.data, 1e-5, g)
        self._assert_close(out, want_out)
        for grad, want in zip(grads, want_grads):
            self._assert_close(grad, want)


class TestFlatRowMatmul:
    """N-D input times a 2-D weight: one product over the flattened rows."""

    def test_three_d_input_with_bias(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)

        def loss():
            y = x @ w + b
            return (y * y).sum()

        check_grads(loss, {"x": x, "w": w, "b": b})

    def test_four_d_input_with_bias(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(3,)), requires_grad=True)

        def loss():
            y = x @ w + b
            return (y * y).sum()

        check_grads(loss, {"x": x, "w": w, "b": b})

    def test_non_contiguous_inputs(self):
        # (B, H, T, d) heads merged back as attention does, and a swapped view
        rng = np.random.default_rng(10)
        heads = Tensor(rng.normal(size=(2, 3, 4, 2)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
        v = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(5,)), requires_grad=True)

        def loss():
            merged = heads.swapaxes(1, 2).reshape(2, 4, 6)
            swapped = heads.swapaxes(1, 2)  # (2, 4, 3, 2), not C-contiguous
            assert not swapped.data.flags.c_contiguous
            y, z = merged @ w + b, swapped @ v.swapaxes(0, 1)
            return (y * y).sum() + (z * z).sum()

        check_grads(loss, {"heads": heads, "w": w, "v": v, "b": b})

    def test_gradients_match_batched_then_summed(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 7, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(6, 9)), requires_grad=True)
        g = rng.normal(size=(4, 7, 9))
        ((x @ w) * Tensor(g)).sum().backward()
        batched_w = ad._unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.shape)
        batched_x = g @ w.data.T
        assert np.max(np.abs(w.grad - batched_w)) <= 1e-12
        assert np.max(np.abs(x.grad - batched_x)) <= 1e-12
        assert np.max(np.abs((x @ w).data - x.data @ w.data)) <= 1e-12


class TestGradientOwnership:
    def test_add_parents_get_independent_gradients(self):
        rng = np.random.default_rng(12)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        c, d = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        # a is used twice: its second gradient must not leak into b's
        (((a + b) * Tensor(c)).sum() + (a * Tensor(d)).sum()).backward()
        assert np.array_equal(b.grad, c)
        assert np.array_equal(a.grad, c + d)
        assert not np.may_share_memory(a.grad, b.grad)

    def test_self_add_doubles_gradient(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        g = rng.normal(size=(2, 5))
        ((x + x) * Tensor(g)).sum().backward()
        assert np.array_equal(x.grad, 2.0 * g)

    def test_second_backward_adds_to_taken_over_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        first = (x.reshape(3, 2) * 2.0).sum()
        first.backward()
        (x * 3.0).sum().backward()
        assert np.array_equal(x.grad, np.full((2, 3), 5.0))


class TestEngineBehavior:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array(3.0), requires_grad=True)
        y = x * x + x  # dy/dx = 2x + 1 = 7
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = (x * 2).sum()
        assert not y.requires_grad
        assert y._parents == ()

    def test_float64_everywhere(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert x.data.dtype == np.float64
        assert (x + 1).data.dtype == np.float64

    def test_diamond_graph_single_backward_pass(self):
        # z = a*b + a*b reuses the same node; gradient must not double-count
        a = Tensor(np.array(2.0), requires_grad=True)
        b = Tensor(np.array(5.0), requires_grad=True)
        prod = a * b
        z = prod + prod
        z.backward()
        assert a.grad == pytest.approx(10.0)
        assert b.grad == pytest.approx(4.0)
