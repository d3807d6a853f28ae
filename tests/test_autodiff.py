import numpy as np
import pytest

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
            return (ad.gelu(x) + ad.exp(x * 0.1) + ad.relu(x)).sum()

        check_grads(loss, {"x": x})

    def test_log_softmax_and_gather(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        ids = np.array([[0, 2, 4], [1, 1, 3]])

        def loss():
            return ad.gather_last(ad.log_softmax(x, axis=-1), ids).sum()

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
            return (ad.embedding(w, ids) ** 2).sum()

        check_grads(loss, {"w": w})

    def test_reductions_and_reshape(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

        def loss():
            y = x.mean(axis=-1, keepdims=True)
            z = (x - y).reshape(6, 4).swapaxes(0, 1)
            return (z * z).sum() + x.sum(axis=(0, 1)).mean()

        check_grads(loss, {"x": x})

    def test_getitem_slice(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

        def loss():
            # a repeated row index must accumulate, as in ad.embedding
            return (x[1:3, ::2] * 3.0).sum() + (x[np.array([0, 0, 3])] ** 2).sum()

        check_grads(loss, {"x": x})


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
