import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgl import autodiff as ad
from ccgl.autodiff import ParamStore, Tensor

VERSION = ad.CHECKPOINT_VERSION


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

    @pytest.mark.parametrize("case", ["broadcast_piece", "shared_piece", "leaf_fed_twice"])
    def test_leaf_gradients_are_owned_c_arrays(self, case):
        # backward keeps pieces as they arrive (broadcast views, one array reaching two
        # parents) and only turns a leaf's gradient into its own array at the end
        c = np.arange(6.0).reshape(2, 3)
        w, x, y = (Tensor(np.ones((2, 3))) for _ in range(3))
        if case == "broadcast_piece":
            leaves, loss, expected = [w], ad.reduce_sum(w), [np.ones((2, 3))]
        elif case == "shared_piece":
            leaves, loss, expected = [x, y], ad.reduce_sum(ad.add(x, y)), [np.ones((2, 3))] * 2
        else:
            leaves, loss, expected = [w], ad.reduce_sum(ad.mul(ad.add(w, w), c)), [2.0 * c]
        ad.backward(loss)
        for leaf, want in zip(leaves, expected):
            grad = leaf.grad
            assert grad.shape == leaf.shape and grad.dtype == np.float64
            assert grad.flags.c_contiguous and grad.flags.writeable and grad.flags.owndata
            assert np.array_equal(grad, want)
        if case == "shared_piece":
            x.grad[0, 0] = 5.0
            assert y.grad[0, 0] == 1.0

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
        s = np.abs(rng.standard_normal((2, 5, 5)))  # a constant stack

        def f(leaves):
            h = ad.relu(ad.add(ad.matmul(Tensor(x), leaves["W"]), leaves["b"]))
            h = ad.reduce_sum(ad.matmul(s, h), axis=0)
            e = ad.exp(ad.mul(h, 0.2))
            q = ad.div(e, ad.reduce_sum(e, axis=1, keepdims=True))
            picked = ad.take(q, (np.array([0, 2]), np.array([1, 0])))
            pooled = ad.reduce_sum(ad.reshape(ad.power(h, 2.0), (5, 3, 1)), axis=1)
            top = ad.reduce_max(ad.sqrt(ad.add(pooled, 1.0)), axis=0)
            return ad.add(ad.reduce_sum(ad.log(picked)), ad.reduce_mean(top))

        assert ad.grad_check(f, store, eps=1e-5, samples=15, seed=2) < 1e-6

    def test_take_with_repeated_and_batched_indices(self):
        rng = np.random.default_rng(3)
        store = make_store(W=rng.standard_normal((4, 3)), V=rng.standard_normal((2, 5, 3)))

        def f(leaves):
            rows = ad.take(leaves["W"], np.array([2, 0, 2, 2]))
            pairs = ad.take(leaves["W"], (np.array([1, 1, 3]), np.array([0, 0, 2])))
            kept = ad.take(leaves["V"], (np.arange(2)[:, None], np.array([[0, 4], [1, 3]])))
            return ad.add(
                ad.add(ad.reduce_sum(ad.tanh(rows)), ad.reduce_sum(ad.power(pairs, 3.0))),
                ad.reduce_sum(ad.mul(kept, kept)),
            )

        assert ad.grad_check(f, store, eps=1e-5, samples=30, seed=4) < 1e-6

    def test_edge_relu_with_repeated_neighbours(self):
        rng = np.random.default_rng(5)
        store = make_store(A=rng.standard_normal((4, 3)), B=rng.standard_normal((5, 3)))
        nbr = np.array([[1, 1, 4], [0, 2, 2], [3, 3, 3], [4, 0, 1]])
        weights = rng.standard_normal((4, 3, 3))

        def f(leaves):
            h = ad.edge_relu(leaves["A"], leaves["B"], nbr)
            return ad.reduce_sum(ad.mul(ad.power(h, 2.0), weights))

        assert ad.grad_check(f, store, eps=1e-5, samples=27, seed=6) < 1e-6

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
        picked = ad.take(joined, np.array([4, 0]))
        loss = ad.reduce_sum(ad.mul(picked, picked))
        ad.backward(loss)
        assert a.grad is not None and b.grad is not None
        assert np.allclose(b.grad[1], 2 * b.data[1])

    def test_take_along_axis_scatters_back(self):
        x = Tensor(np.arange(24.0).reshape(2, 4, 3))
        index = np.array([[0, 3], [2, 1]])[..., None]
        picked = ad.take(x, (np.arange(2)[:, None], index[..., 0]))
        assert np.array_equal(picked.data, np.take_along_axis(x.data, index, axis=1))
        ad.backward(ad.reduce_sum(ad.mul(picked, picked)))
        expected = np.zeros((2, 4, 3))
        np.put_along_axis(expected, index, 2.0 * picked.data, axis=1)
        assert np.array_equal(x.grad, expected)

    @pytest.mark.parametrize("shapes", [((3, 4, 5), (5, 2)), ((3, 4, 5), (3, 5, 2)), ((4, 5), (3, 5, 2))])
    def test_batched_matmul_grad_check(self, shapes):
        rng = np.random.default_rng(5)
        store = make_store(a=rng.standard_normal(shapes[0]), b=rng.standard_normal(shapes[1]))

        def f(leaves):
            return ad.reduce_sum(ad.tanh(ad.matmul(leaves["a"], leaves["b"])))

        assert ad.grad_check(f, store, eps=1e-5, samples=20, seed=1) < 1e-6

    def test_matmul_constant_operand_is_not_recorded(self):
        w = Tensor(np.ones((3, 2)))
        const = np.ones((4, 5, 3))
        out = ad.matmul(const, w)
        assert out.data.shape == (4, 5, 2)
        assert out._parents == (w,)
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(w.grad, np.full((3, 2), 20.0))

    @pytest.mark.parametrize("shapes", [((2, 3, 4), (3, 4, 1)), ((5,), (5, 1)), ((2, 3), (4, 1))])
    def test_matmul_rejects_mismatched_shapes(self, shapes):
        with pytest.raises(ValueError, match="matmul shape mismatch"):
            ad.matmul(np.ones(shapes[0]), Tensor(np.ones(shapes[1])))

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


# each step maps the running value h to a new (3, 3) one; k(x) passes a constant x as numpy or as Tensor(x)
NBR = np.array([[0, 2], [1, 1], [2, 0]])
STEPS = {
    "add": lambda h, c, k: ad.add(h, k(c)),
    "add_left": lambda h, c, k: ad.add(k(c), h),
    "sub": lambda h, c, k: ad.sub(h, k(c)),
    "sub_left": lambda h, c, k: ad.sub(k(c), h),
    "mul": lambda h, c, k: ad.mul(k(c), h),
    "div": lambda h, c, k: ad.div(h, k(np.abs(c) + 1.0)),
    "div_left": lambda h, c, k: ad.div(k(c), ad.add(ad.mul(h, h), k(1.0))),
    "matmul": lambda h, c, k: ad.matmul(h, k(c)),
    "matmul_left": lambda h, c, k: ad.matmul(k(c), h),
    "batched_matmul": lambda h, c, k: ad.reduce_sum(ad.matmul(k(np.stack([c, c.T])), h), axis=0),
    "relu": lambda h, c, k: ad.relu(ad.sub(h, k(0.1))),
    "tanh": lambda h, c, k: ad.tanh(h),
    "exp": lambda h, c, k: ad.exp(ad.mul(h, k(0.1))),
    "log_sqrt": lambda h, c, k: ad.log(ad.sqrt(ad.add(ad.mul(h, h), k(1.0)))),
    "power_neg": lambda h, c, k: ad.neg(ad.power(h, 2.0)),
    "transpose_reshape": lambda h, c, k: ad.reshape(ad.reshape(ad.transpose(h), (9,)), (3, 3)),
    "reduce_constant": lambda h, c, k: ad.add(h, ad.reduce_mean(ad.reduce_max(k(c), axis=1, keepdims=True), axis=0)),
    "reduce": lambda h, c, k: ad.mul(h, ad.reduce_sum(ad.mul(h, k(c)), axis=1, keepdims=True)),
    "concat_take": lambda h, c, k: ad.take(ad.concat([k(c), h, k(c.T)], axis=0), np.array([3, 0, 5])),
    "edge_relu": lambda h, c, k: ad.reduce_sum(ad.edge_relu(h, k(c), NBR), axis=1),
    "edge_relu_left": lambda h, c, k: ad.reduce_sum(ad.edge_relu(k(c), h, NBR), axis=1),
    "leaf": lambda h, c, k: ad.mul(h, ad.tanh(k(c))),
}


class TestConstantRule:
    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(st.sampled_from(sorted(STEPS)), min_size=1, max_size=6), seed=st.integers(0, 2**32 - 1))
    def test_numpy_constants_give_the_gradients_of_wrapped_ones(self, steps, seed):
        rng = np.random.default_rng(seed)
        store = make_store(W=rng.standard_normal((3, 3)), V=rng.standard_normal((3, 3)))
        constants = [rng.standard_normal((3, 3)) for _ in steps]
        weights = rng.standard_normal((3, 3))

        def loss(k):
            def f(leaves):
                h = leaves["W"]
                for step, c in zip(steps, constants):
                    h = STEPS[step](h, c, k)
                    if step == "leaf":
                        h = ad.add(h, leaves["V"])
                return ad.reduce_sum(ad.mul(h, k(weights)))

            return ad.forward_backward(f, store)

        with np.errstate(all="ignore"):
            plain_value, plain = loss(lambda x: x)
            wrapped_value, wrapped = loss(Tensor)
        assert np.array_equal(plain_value, wrapped_value, equal_nan=True)
        for name in ("W", "V"):
            assert np.array_equal(plain[name], wrapped[name], equal_nan=True), name

    def test_numpy_operands_give_an_ndarray(self):
        a, b = np.full((2, 3), -0.5), np.full((2, 3), 2.0)
        results = [
            *(op(a, b) for op in (ad.add, ad.sub, ad.mul, ad.div)),
            *(op(b) for op in (ad.neg, ad.transpose, ad.relu, ad.exp, ad.log, ad.sqrt, ad.tanh)),
            ad.matmul(a, b.T),
            ad.reshape(a, (3, 2)),
            ad.power(b, 3.0),
            ad.reduce_sum(a),
            ad.reduce_mean(a, axis=0),
            ad.reduce_max(a, axis=1, keepdims=True),
            ad.concat([a, b], axis=1),
            ad.take(a, (np.array([1, 0]), np.array([2, 2]))),
            ad.edge_relu(a, b, np.zeros((2, 1), dtype=int)),
        ]
        assert [type(r) for r in results] == [np.ndarray] * len(results)
        assert np.array_equal(results[0], a + b) and np.array_equal(results[-1], np.full((2, 1, 3), 1.5))

    def test_recorded_parents_are_the_tensor_operands(self):
        w = Tensor(np.ones((2, 3)))
        c = np.full((2, 3), 2.0)
        outs = [
            ad.add(c, w),
            ad.div(w, c),
            ad.matmul(c.T, w),
            ad.concat([c, w, c]),
            ad.edge_relu(c, w, np.zeros((2, 1), dtype=int)),
        ]
        assert [out._parents for out in outs] == [(w,)] * 5
        assert ad.add(w, w)._parents == (w, w)
        loss = ad.reduce_sum(ad.concat([ad.reshape(ad.reduce_sum(out), (1,)) for out in outs]))
        for node in ad.Tape.trace(loss).nodes:
            assert all(isinstance(parent, Tensor) for parent in node._parents)


@st.composite
def edge_relu_cases(draw):
    """(a, b, nbr): k = 0, k = 1 and H = 1 are common, neighbours repeat, and integer values make exact-zero sums."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k, hidden = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    a, b = rng.standard_normal((n, hidden)), rng.standard_normal((m, hidden))
    if draw(st.booleans()):
        a, b = np.round(2.0 * a), np.round(2.0 * b)
    return a, b, rng.integers(0, m, (n, k))


class TestEdgeRelu:
    @settings(max_examples=150, deadline=None)
    @given(case=edge_relu_cases(), seed=st.integers(0, 999), through_sum=st.booleans())
    def test_matches_take_add_relu_chain_bitwise(self, case, seed, through_sum):
        a0, b0, nbr = case
        (n, hidden), k = a0.shape, nbr.shape[1]
        a, b, a_ref, b_ref = Tensor(a0), Tensor(b0), Tensor(a0), Tensor(b0)
        out = ad.edge_relu(a, b, nbr)
        gathered = ad.reshape(ad.take(b_ref, nbr.ravel()), (n, k, hidden))
        ref = ad.relu(ad.add(ad.reshape(a_ref, (n, 1, hidden)), gathered))
        assert out.shape == (n, k, hidden) and np.array_equal(out.data, ref.data)
        # magnitudes that differ by up to 16 decades make the sums depend on accumulation order
        rng = np.random.default_rng(seed)
        shape = (n, hidden) if through_sum else out.shape
        g = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)

        def loss(h):
            if through_sum:
                # the population "sum" path: h's gradient arrives as a broadcast view
                h = ad.reduce_sum(h, axis=1)
            return ad.reduce_sum(ad.mul(h, g))

        ad.backward(loss(out))
        ad.backward(loss(ref))
        assert np.array_equal(a.grad, a_ref.grad) and np.array_equal(b.grad, b_ref.grad)

    @pytest.mark.parametrize(
        "a_shape, b_shape, nbr_shape",
        [((3, 2), (4, 3), (3, 2)), ((3, 2), (4, 2), (2, 2)), ((3, 2), (4, 2), (6,)), ((3,), (4, 2), (3, 1))],
    )
    def test_rejects_mismatched_shapes(self, a_shape, b_shape, nbr_shape):
        with pytest.raises(ValueError, match="edge_relu shape mismatch"):
            ad.edge_relu(np.zeros(a_shape), np.zeros(b_shape), np.zeros(nbr_shape, dtype=int))


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


class TestTrainStep:
    def test_equals_adam_on_forward_backward_gradients(self):
        rng = np.random.default_rng(1)
        store = make_store(W=rng.standard_normal((3, 3)), unused=np.ones(2))
        x = rng.standard_normal((3, 2))

        def f(leaves):
            return ad.reduce_sum(ad.tanh(ad.matmul(leaves["W"], x)))

        leaves = ad.make_leaves(store)
        value, stepped = ad.train_step(store, leaves, f(leaves), 0.01, "test loss")
        expected_value, grads = ad.forward_backward(f, store)
        expected = ad.adam_step(store, grads, 0.01)
        assert value == expected_value
        assert stepped.step == expected.step == 1
        for name in store.names():
            assert np.array_equal(stepped.values[name], expected.values[name])
            assert np.array_equal(stepped.m[name], expected.m[name])
        assert np.array_equal(stepped.values["unused"], store.values["unused"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loss_names_where(self, bad):
        store = make_store(w=np.ones(2))
        leaves = ad.make_leaves(store)
        loss = ad.mul(ad.reduce_sum(leaves["w"]), bad)
        with pytest.raises(ValueError, match=r"^non-finite test loss at step 3$"):
            ad.train_step(store, leaves, loss, 0.1, "test loss at step 3")
        assert leaves["w"].grad is None


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

    def test_save_writes_through_a_partial_file(self, tmp_path, monkeypatch):
        store = make_store(w=np.arange(3.0))
        path = tmp_path / "ckpt.json"
        path.write_text("stale")
        moves = []
        replace = os.replace
        monkeypatch.setattr(ad.os, "replace", lambda src, dst: (moves.append((src, dst)), replace(src, dst)))
        ad.save_checkpoint(store, path)
        assert moves == [(f"{path}.partial", path)]
        expected = {"version": VERSION, "params": {"w": {"shape": [3], "values": [0.0, 1.0, 2.0]}}}
        assert path.read_text() == json.dumps(expected, sort_keys=True)
        assert not Path(f"{path}.partial").exists()

    def test_a_write_that_raises_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "predictions.csv"
        path.write_bytes(b"patient_id\r\np0\r\n")
        with pytest.raises(RuntimeError, match="interrupted"):
            with ad.atomic_write(path) as fh:
                fh.write("patient_id\r\np1")
                fh.flush()
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"patient_id\r\np0\r\n"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_truncated_file_names_the_path(self, tmp_path):
        path = tmp_path / "ckpt.json"
        ad.save_checkpoint(make_store(w=np.ones((2, 2))), path)
        path.write_text(path.read_text()[:30])
        with pytest.raises(ValueError, match="not valid JSON") as info:
            ad.load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([], "must hold a JSON object"),
            (VERSION, "must hold a JSON object"),
            ({"version": VERSION}, "'params' object"),
            ({"version": VERSION, "params": {"w": {"values": [1.0]}}}, "parameter 'w' needs 'shape' and 'values'"),
            ({"version": VERSION, "params": {"w": [1.0]}}, "parameter 'w' needs 'shape' and 'values'"),
            ({"version": VERSION, "params": {"w": {"shape": [2, 2], "values": [1.0]}}}, "parameter 'w' does not fit"),
            ({"version": VERSION, "params": {"w": {"shape": "x", "values": [1.0]}}}, "parameter 'w' does not fit"),
            ({"version": VERSION, "params": {"w": {"shape": [2], "values": ["a", 1]}}}, "parameter 'w' does not fit"),
            ({"version": VERSION, "params": {"w": {"shape": [2], "values": [1.0, np.nan]}}}, "parameter 'w' holds non-finite"),
            ({"version": VERSION, "params": {"w": {"shape": [1], "values": [np.inf]}}}, "parameter 'w' holds non-finite"),
        ],
    )
    def test_malformed_file_names_the_path(self, tmp_path, payload, match):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match) as info:
            ad.load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_duplicate_name_rejected(self):
        store = make_store(w=np.ones(1))
        with pytest.raises(ValueError, match="duplicate"):
            store.add("w", np.ones(2))
