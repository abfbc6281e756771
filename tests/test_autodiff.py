import json

import numpy as np
import pytest
import scipy.sparse as sp

from ccgl import autodiff as ad
from ccgl.autodiff import ParamStore, Tensor


def make_store(**arrays):
    store = ParamStore()
    for name, arr in arrays.items():
        store.add(name, arr)
    return store


class TestForwardBackward:
    def test_identity_linear_map(self):
        store = make_store(W=np.eye(2))
        x = np.array([[1.0], [1.0]])

        def f(leaves):
            return ad.reduce_sum(ad.matmul(leaves["W"], Tensor(x)))

        value, grads = ad.forward_backward(f, store)
        assert value == pytest.approx(2.0)
        assert np.allclose(grads["W"], np.tile(x.T, (2, 1)))

    def test_untouched_parameter_gets_zero(self):
        store = make_store(a=np.ones(3), b=np.ones(2))
        value, grads = ad.forward_backward(lambda lv: ad.reduce_sum(lv["a"]), store)
        assert value == pytest.approx(3.0)
        assert np.array_equal(grads["b"], np.zeros(2))

    def test_relu_gradient(self):
        store = make_store(x=np.array([-1.0, 2.0]))
        value, grads = ad.forward_backward(lambda lv: ad.reduce_sum(ad.relu(lv["x"])), store)
        assert value == pytest.approx(2.0)
        assert np.array_equal(grads["x"], np.array([0.0, 1.0]))

    def test_non_scalar_loss_rejected(self):
        store = make_store(x=np.ones(3))
        with pytest.raises(ValueError, match="non-scalar"):
            ad.forward_backward(lambda lv: lv["x"], store)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="matmul"):
            ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        store = make_store(W=rng.standard_normal((4, 4)))
        x = rng.standard_normal((4, 2))

        def f(leaves):
            return ad.reduce_sum(ad.tanh(ad.matmul(leaves["W"], Tensor(x))))

        v1, g1 = ad.forward_backward(f, store)
        v2, g2 = ad.forward_backward(f, store)
        assert v1 == v2
        assert np.array_equal(g1["W"], g2["W"])


class TestGradCheck:
    def test_quadratic(self):
        store = make_store(w=np.array([1.5, -2.0, 0.5]))
        err = ad.grad_check(lambda lv: ad.reduce_sum(ad.mul(lv["w"], lv["w"])), store, eps=1e-5, samples=3)
        assert err < 1e-8

    def test_composite_of_primitives(self):
        rng = np.random.default_rng(1)
        store = make_store(W=rng.standard_normal((4, 3)), b=rng.standard_normal(3))
        x = rng.standard_normal((5, 4))
        a = np.abs(rng.standard_normal((5, 5)))
        s = sp.csr_matrix(a + a.T)  # spmm takes a symmetric matrix

        def f(leaves):
            h = ad.relu(ad.add(ad.matmul(Tensor(x), leaves["W"]), leaves["b"]))
            h = ad.spmm(s, h)
            e = ad.exp(ad.mul(h, 0.2))
            q = ad.div(e, ad.reduce_sum(e, axis=1, keepdims=True))
            picked = ad.take_pairs(q, np.array([0, 2]), np.array([1, 0]))
            pooled = ad.reduce_sum(ad.reshape(ad.power(h, 2.0), (5, 3, 1)), axis=1)
            top = ad.reduce_max(ad.sqrt(ad.add(pooled, 1.0)), axis=0)
            return ad.add(ad.reduce_sum(ad.log(ad.clamp_min(picked, 1e-9))), ad.reduce_mean(top))

        assert ad.grad_check(f, store, eps=1e-5, samples=15, seed=2) < 1e-6

    def test_eps_bounds(self):
        store = make_store(w=np.ones(2))
        with pytest.raises(ValueError, match="eps"):
            ad.grad_check(lambda lv: ad.reduce_sum(lv["w"]), store, eps=1e-2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_perturbed_loss(self):
        store = make_store(w=np.array([0.0]))

        def f(leaves):
            return ad.reduce_sum(ad.log(leaves["w"]))

        with pytest.raises(ValueError, match="non-finite"):
            ad.grad_check(f, store, eps=1e-4, samples=1)


class TestPrimitives:
    def test_concat_and_gather_roundtrip(self):
        a, b = Tensor(np.arange(6.0).reshape(3, 2)), Tensor(np.arange(4.0).reshape(2, 2))
        joined = ad.concat([a, b], axis=0)
        picked = ad.gather_rows(joined, np.array([4, 0]))
        loss = ad.reduce_sum(ad.mul(picked, picked))
        ad.backward(loss)
        assert a.grad is not None and b.grad is not None
        assert np.allclose(b.grad[1], 2 * b.data[1])

    def test_reduce_max_tie_goes_to_first(self):
        x = Tensor(np.array([[1.0, 1.0, 0.5]]))
        out = ad.reduce_max(x, axis=1)
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(x.grad, np.array([[1.0, 0.0, 0.0]]))

    def test_power_zero_exponent(self):
        x = Tensor(np.array([0.0, 2.0]))
        out = ad.power(x, 0.0)
        assert np.array_equal(out.data, np.ones(2))
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(x.grad, np.zeros(2))

    def test_power_at_zero_base(self):
        x = Tensor(np.array([0.0, 3.0]))
        out = ad.power(x, 2.0)
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(x.grad, np.array([0.0, 6.0]))

    def test_broadcast_add_unbroadcasts_grad(self):
        a = Tensor(np.zeros((4, 3)))
        b = Tensor(np.zeros(3))
        ad.backward(ad.reduce_sum(ad.add(a, b)))
        assert b.grad.shape == (3,)
        assert np.array_equal(b.grad, np.full(3, 4.0))

    def test_backward_keeps_only_leaf_grads(self):
        x = Tensor(np.array([1.0, -2.0]))
        y = ad.mul(x, 3.0)
        z = ad.tanh(y)
        loss = ad.reduce_sum(z)
        ad.backward(loss)
        assert np.allclose(x.grad, 3.0 * (1.0 - np.tanh(3.0 * x.data) ** 2))
        assert y.grad is None and z.grad is None and loss.grad is None

    def test_tape_is_topologically_ordered(self):
        x = Tensor(np.ones(2))
        y = ad.mul(x, 2.0)
        z = ad.add(y, x)
        loss = ad.reduce_sum(z)
        tape = ad.Tape.trace(loss)
        position = {id(node): i for i, node in enumerate(tape.nodes)}
        for node in tape.nodes:
            for parent in node._parents:
                assert position[id(parent)] < position[id(node)]


class TestAdam:
    def test_zero_gradient_is_identity(self):
        store = make_store(w=np.array([1.0, 2.0]))
        out = ad.adam_step(store, {"w": np.zeros(2)}, lr=0.1)
        assert np.array_equal(out.values["w"], store.values["w"])
        assert out.step == 1

    def test_first_step_magnitude(self):
        store = make_store(w=np.zeros(3))
        g = np.array([0.3, -2.0, 5.0])
        out = ad.adam_step(store, {"w": g}, lr=0.01)
        assert np.allclose(out.values["w"], -0.01 * np.sign(g), atol=1e-6)

    def test_zero_lr(self):
        store = make_store(w=np.array([1.0]))
        out = ad.adam_step(store, {"w": np.array([5.0])}, lr=0.0)
        assert np.array_equal(out.values["w"], store.values["w"])

    def test_nonfinite_gradient_names_parameter(self):
        store = make_store(w=np.ones(2), v=np.ones(2))
        with pytest.raises(ValueError, match="'v'"):
            ad.adam_step(store, {"v": np.array([np.nan, 0.0])}, lr=0.1)

    def test_shape_mismatch(self):
        store = make_store(w=np.ones(2))
        with pytest.raises(ValueError, match="shape"):
            ad.adam_step(store, {"w": np.ones(3)}, lr=0.1)


class TestCheckpoint:
    def test_roundtrip_bitexact(self, tmp_path):
        rng = np.random.default_rng(3)
        store = make_store(a=rng.standard_normal((3, 4)), b=rng.standard_normal(5))
        path = tmp_path / "ckpt.json"
        ad.save_checkpoint(store, path)
        loaded = ad.load_checkpoint(path)
        assert set(loaded.values) == {"a", "b"}
        assert np.array_equal(loaded.values["a"], store.values["a"])
        assert np.array_equal(loaded.values["b"], store.values["b"])
        payload = json.loads(path.read_text())
        assert payload["version"] == "ccgl-ckpt-1"

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": "other", "params": {}}))
        with pytest.raises(ValueError, match="version"):
            ad.load_checkpoint(path)

    def test_duplicate_name_rejected(self):
        store = make_store(w=np.ones(1))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", np.ones(2))
