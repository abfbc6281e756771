"""Vectorised production paths against the reference versions in tests/oracles.py."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgl import autodiff as ad
from ccgl import cohort, connectivity
from ccgl.autodiff import Tensor
from ccgl.cohort import RoiTimeSeries
from ccgl.config import EncoderSettings
from ccgl.connectivity import CorrelationMatrix, EdgePolicy, ViewGraph, build_fc_graph
from ccgl.encoder import _encode_batch_t, init_encoder_params, prepare_view
from ccgl.metrics import auc, knn_baseline
from ccgl.population import _edge_conv_t, knn_edges, squared_distances
from ccgl.spectral import induced_laplacian, largest_eigenvalue, normalized_laplacian
from tests import oracles


class TestPrimitives:
    def test_segment_max_routes_gradient(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0], [0.0, 7.0]]))
        out = oracles.segment_max(x, np.array([0, 0, 1]), 2)
        ad.backward(ad.reduce_sum(out))
        assert np.array_equal(x.grad, np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))

    def test_segment_max_requires_sorted(self):
        with pytest.raises(ValueError, match="sorted"):
            oracles.segment_max(Tensor(np.zeros((3, 2))), np.array([1, 0, 1]), 2)


@st.composite
def gather_cases(draw):
    """(a, index, oracle): an ad.take index and the replaced primitive that makes the same pick."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["rows", "pairs", "batch_rows"]))
    n_picks = draw(st.integers(0, 12))  # zero picks is an empty index; more picks than rows repeat
    # rows and pairs also take negative indices, counted from the end as numpy does
    if kind == "rows":
        a = rng.standard_normal((draw(st.integers(1, 6)), draw(st.integers(1, 4))))
        rows = rng.integers(-a.shape[0], a.shape[0], n_picks)
        return a, rows, lambda t: oracles.gather_rows(t, rows)
    if kind == "pairs":
        a = rng.standard_normal((draw(st.integers(1, 6)), draw(st.integers(1, 6))))
        rows, cols = rng.integers(-a.shape[0], a.shape[0], n_picks), rng.integers(-a.shape[1], a.shape[1], n_picks)
        return a, (rows, cols), lambda t: oracles.take_pairs(t, rows, cols)
    b, r = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    a = rng.standard_normal((b, r, draw(st.integers(1, 3))))
    kept = np.sort(np.argsort(rng.random((b, r)), axis=1)[:, : draw(st.integers(0, r))], axis=1)
    return a, (np.arange(b)[:, None], kept), lambda t: oracles.take_along_axis(t, kept[..., None], axis=1)


class TestTakeOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=gather_cases(), seed=st.integers(0, 999))
    def test_forward_and_backward_match_replaced_primitives(self, case, seed):
        a, index, oracle = case
        x, x_ref = Tensor(a), Tensor(a)
        out, ref = ad.take(x, index), oracle(x_ref)
        assert out.shape == ref.shape and np.array_equal(out.data, ref.data)
        # magnitudes that differ by up to 16 decades make the sum depend on accumulation order
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(out.shape) * 10.0 ** rng.integers(-8, 9, out.shape)
        ad.backward(ad.reduce_sum(ad.mul(out, g)))
        ad.backward(ad.reduce_sum(ad.mul(ref, g)))
        assert np.array_equal(x.grad, x_ref.grad)


@st.composite
def point_sets(draw, max_p=40):
    """(features, k): P in [2, max_p], k in [1, P-1], with duplicate rows and grid ties."""
    p = draw(st.integers(2, max_p))
    k = draw(st.integers(1, p - 1))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((p, d))
    if draw(st.booleans()):  # a coarse grid makes equal distances between distinct points
        x = np.round(x)
    n_dup = draw(st.integers(0, p - 1))
    x[rng.integers(0, p, n_dup)] = x[rng.integers(0, p, n_dup)]
    return x, k


class TestKnnOracle:
    @settings(max_examples=120, deadline=None)
    @given(case=point_sets())
    def test_knn_edges_matches_per_row_argsort(self, case):
        x, k = case
        assert np.array_equal(knn_edges(x, k), oracles.knn_edges(x, k))

    @settings(max_examples=80, deadline=None)
    @given(train=point_sets(), n_test=st.integers(1, 12), seed=st.integers(0, 999))
    def test_knn_baseline_matches_per_row_argsort(self, train, n_test, seed):
        x_train, _ = train
        rng = np.random.default_rng(seed)
        # test rows copied from training rows sit at distance ties with every duplicate
        x_test = x_train[rng.integers(0, x_train.shape[0], n_test)]
        y_train = rng.integers(0, 2, x_train.shape[0])
        k = int(rng.integers(1, x_train.shape[0] + 1))
        scores, predictions = knn_baseline(x_train, y_train, x_test, k)
        expected = oracles.knn_baseline_scores(x_train, y_train, x_test, k)
        assert np.array_equal(scores, expected)
        assert np.array_equal(predictions, (expected >= 0.5).astype(np.int64))

    @settings(max_examples=80, deadline=None)
    @given(train=point_sets(), n_test=st.integers(1, 12), seed=st.integers(0, 999))
    def test_squared_distances_match_the_plain_expression_bitwise(self, train, n_test, seed):
        x_train, _ = train
        x_test = np.random.default_rng(seed).standard_normal((n_test, x_train.shape[1]))
        for a, b in ((x_test, x_train), (x_train, x_train)):
            plain = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
            assert np.array_equal(squared_distances(a, b), plain)


@st.composite
def partial_matrices(draw):
    """(partial, per_node_top): R in [2, 40], per_node_top in [1, R + 2], often on a grid so magnitudes tie."""
    r = draw(st.integers(2, 40))
    top = draw(st.integers(1, r + 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = rng.uniform(-1.0, 1.0, (r, r))
    if draw(st.booleans()):  # equal |partial| across a row, opposite signs and exact zeros
        levels = draw(st.integers(1, 4))
        upper = np.round(upper * levels) / levels
    upper = np.triu(upper, k=1)
    partial = upper + upper.T
    np.fill_diagonal(partial, 1.0)
    return partial, top


def fc_graph_on(partial, top):
    """build_fc_graph with its partial-correlation matrix replaced by ``partial``."""
    r = partial.shape[0]
    series = RoiTimeSeries(np.random.default_rng(r).standard_normal((r + 3, r)))
    with mock.patch.object(connectivity, "partial_corr_matrix", return_value=CorrelationMatrix(partial)):
        return build_fc_graph(series, np.zeros(7), EdgePolicy(per_node_top=top))


def oracle_edges(partial, top):
    # a retained pair whose partial correlation is exactly 0 has no weight, so it is no edge
    return tuple(e for e in oracles.fc_edges(partial, top) if e[2] != 0.0)


class TestFcEdgeOracle:
    @settings(max_examples=150, deadline=None)
    @given(case=partial_matrices())
    def test_edges_match_per_node_selection(self, case):
        partial, top = case
        assert fc_graph_on(partial, top).edges == oracle_edges(partial, top)

    @settings(max_examples=60, deadline=None)
    @given(case=partial_matrices())
    def test_stored_adjacency_matches_tuple_decoder(self, case):
        partial, top = case
        expected = oracles.adjacency_from_edges(
            SimpleNamespace(edges=oracle_edges(partial, top), roi_count=partial.shape[0])
        )
        assert_same_csr(sp.csr_matrix(normalized_laplacian(fc_graph_on(partial, top)).adjacency), expected)


def assert_same_csr(a, b):
    assert a.format == b.format == "csr"
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


def assert_matches_scipy_build(lap):
    laplacian, lam, scaled = oracles.scipy_scaled_laplacian(sp.csr_matrix(lap.adjacency))
    assert_same_csr(lap.laplacian, laplacian)
    assert_same_csr(lap.scaled, scaled)
    assert lap.lambda_max == lam


LAPLACIAN_GRAPHS = {
    "empty": ViewGraph(node_features=np.zeros((4, 11)), weights=np.zeros((4, 4))),
    "isolated_node": ViewGraph(
        node_features=np.zeros((3, 10)), weights=oracles.weights_from_edges(3, [(0, 1, -0.5)])
    ),
    "two_isolated_nodes": ViewGraph(
        node_features=np.zeros((5, 12)), weights=oracles.weights_from_edges(5, [(0, 3, 0.2), (3, 4, -0.7)])
    ),
}
for _rois, _top, _seed in ((8, 3, 0), (16, 10, 1), (16, 2, 2), (130, 3, 3)):
    LAPLACIAN_GRAPHS[f"fc_r{_rois}_top{_top}"] = build_fc_graph(
        RoiTimeSeries(np.random.default_rng(_seed).standard_normal((200, _rois))),
        np.zeros(7),
        EdgePolicy(per_node_top=_top),
    )


class TestLaplacianOracle:
    """Dense-array arithmetic gives the same matrices, bit for bit, as scipy operators."""

    @pytest.mark.parametrize("name", sorted(LAPLACIAN_GRAPHS))
    def test_build_matches_scipy_operators(self, name):
        assert_matches_scipy_build(normalized_laplacian(LAPLACIAN_GRAPHS[name]))

    @pytest.mark.parametrize("name", sorted(LAPLACIAN_GRAPHS))
    def test_induced_matches_scipy_operators(self, name):
        lap = normalized_laplacian(LAPLACIAN_GRAPHS[name])
        rng = np.random.default_rng(len(name))
        for size in (1, (lap.n_nodes + 1) // 2, lap.n_nodes):
            kept = np.sort(rng.choice(lap.n_nodes, size=size, replace=False))
            sub = induced_laplacian(lap, kept)
            assert_same_csr(sp.csr_matrix(sub.adjacency), sp.csr_matrix(lap.adjacency)[kept][:, kept].tocsr())
            assert_matches_scipy_build(sub)


@st.composite
def signed_weights(draw):
    """Symmetric signed weights: R in [2, 40], edge density down to 0, some nodes isolated."""
    r = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.uniform(-1.0, 1.0, (r, r)), k=1)
    upper[rng.random((r, r)) >= draw(st.sampled_from([0.0, 0.1, 0.3, 1.0]))] = 0.0
    weights = upper + upper.T
    isolated = rng.choice(r, size=draw(st.integers(0, r)), replace=False)
    weights[isolated, :] = weights[:, isolated] = 0.0
    return weights


class TestPowerIterationOracle:
    """The exact largest eigenvalue agrees with Ritz-polished power iteration run to 1e-9."""

    @settings(max_examples=80, deadline=None)
    @given(weights=signed_weights())
    def test_lambda_matches_power_iteration(self, weights):
        r = weights.shape[0]
        lap = normalized_laplacian(ViewGraph(node_features=np.zeros((r, 9)), weights=weights))
        lam, _ = oracles.power_iteration(lap.laplacian)
        assert abs(lap.lambda_max - min(2.0, max(lam, 1.0))) <= 1e-8
        assert abs(largest_eigenvalue(lap.laplacian, tol=1e-9) - min(2.0, max(lam, 1e-12))) <= 1e-8

    def test_sparse_input_above_dense_limit(self):
        lap = normalized_laplacian(LAPLACIAN_GRAPHS["fc_r130_top3"]).laplacian
        assert sp.issparse(lap) and lap.shape[0] > oracles.DENSE_POWER_LIMIT
        lam, _ = oracles.power_iteration(lap)
        assert abs(largest_eigenvalue(lap, tol=1e-9) - min(2.0, lam)) <= 1e-8


class TestEdgeConvOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=point_sets(), hidden=st.integers(1, 6), seed=st.integers(0, 999))
    def test_node_level_matches_per_edge(self, case, hidden, seed):
        x0, k = case
        p, d = x0.shape
        rng = np.random.default_rng(seed)
        params = {
            "l/w1": rng.standard_normal((2 * d, hidden)),
            "l/b1": rng.standard_normal(hidden),
            "l/w2": rng.standard_normal((hidden, 3)),
            "l/b2": rng.standard_normal(3),
        }
        loss_weights = rng.standard_normal((p, 3))
        edges = knn_edges(x0, k)
        results = []
        # the layer reads each node's neighbours as one (P, k) row; the oracle reads the edge list
        for conv, graph in ((_edge_conv_t, edges[:, 1].reshape(p, k)), (oracles.edge_conv_t, edges)):
            x = Tensor(x0.copy())
            leaves = {name: Tensor(value.copy()) for name, value in params.items()}
            out = conv(x, graph, leaves, "l")
            ad.backward(ad.reduce_sum(ad.mul(out, loss_weights)))
            results.append((out.data, x.grad, [leaves[name].grad for name in params]))
        (out, x_grad, grads), (ref_out, ref_x_grad, ref_grads) = results
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-10)
        np.testing.assert_allclose(x_grad, ref_x_grad, rtol=0, atol=1e-10)
        for grad, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-10)


@st.composite
def view_batches(draw):
    """(views, settings): B in [1, 6] views sharing R in [2, 40], with tied pooling scores.

    Edge densities run from the empty edge set to complete graphs, so
    isolated nodes are common; copying one node's features onto others makes
    isolated nodes tie exactly, and zero rows tie after relu.
    """
    b = draw(st.integers(1, 6))
    r = draw(st.integers(2, 40))
    f = draw(st.integers(1, 6))
    enc = EncoderSettings(
        hidden1=draw(st.integers(3, 8)),
        hidden2=draw(st.integers(3, 8)),
        embed_dim=draw(st.integers(1, 4)),
        pool_ratio=draw(st.sampled_from([1e-3, 0.3, 0.5, 0.8, 1.0])),  # 1e-3 keeps one node
        cheb_k=draw(st.integers(1, 4)),
    )
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    views = []
    for _ in range(b):
        w = np.triu(rng.uniform(-1.0, 1.0, (r, r)) * (rng.random((r, r)) < density), 1)
        x = rng.standard_normal((r, f))
        n_tied = draw(st.integers(0, r - 1))
        x[rng.integers(0, r, n_tied)] = x[rng.integers(0, r)]
        x[rng.integers(0, r, draw(st.integers(0, r // 2)))] = 0.0
        views.append(prepare_view(ViewGraph(node_features=x, weights=w + w.T)))
    return views, enc


class TestBatchedEncoderOracle:
    @settings(max_examples=80, deadline=None)
    @given(case=view_batches(), seed=st.integers(0, 999))
    def test_batched_matches_per_view(self, case, seed):
        views, enc = case
        params = init_encoder_params(views[0].features.shape[1], enc, seed)
        loss_weights = np.random.default_rng(seed).standard_normal((len(views), enc.embed_dim))
        encoders = (
            lambda leaves: _encode_batch_t(views, leaves, enc),
            lambda leaves: ad.concat([oracles.encode_t(view, leaves, enc) for view in views], axis=0),
        )
        results = []
        for encode in encoders:
            leaves = ad.make_leaves(params)
            try:
                out = encode(leaves)
            except ValueError as err:
                assert "zero-norm" in str(err)
                results.append(None)
                continue
            ad.backward(ad.reduce_sum(ad.mul(out, loss_weights)))
            results.append((out.data, {name: leaf.grad for name, leaf in leaves.items()}))
        batched, reference = results
        assert (batched is None) == (reference is None)
        if batched is None:
            return
        np.testing.assert_allclose(batched[0], reference[0], rtol=0, atol=1e-10)
        for name, ref in reference[1].items():
            np.testing.assert_allclose(batched[1][name], ref, rtol=0, atol=1e-10)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 60), levels=st.integers(1, 6), seed=st.integers(0, 999))
def test_auc_matches_midrank_loop(n, levels, seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, n) / levels  # few distinct values: long tie runs
    labels = rng.integers(0, 2, n)
    labels[:2] = (0, 1)
    assert auc(scores, labels) == oracles.auc(scores, labels)


def _leave_pending_half(rng) -> None:
    """Leave PCG64's buffered 32-bit half set, as the integer draws of cohort._draw_pcd do."""
    if not rng.bit_generator.state["has_uint32"]:
        rng.integers(8, 19)
    assert rng.bit_generator.state["has_uint32"]


def _bytes(drawn) -> list:
    return [(key, value.tobytes()) for key, value in sorted(drawn.items())] if isinstance(drawn, dict) else [drawn.tobytes()]


class TestSynthStreamOracle:
    """The cohort generator's array draws read the random stream exactly as the scalar loops did."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rois=st.integers(2, 40),
        counts=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        density=st.sampled_from([0.15, 0.9]),
        pending=st.booleans(),
        label=st.integers(0, 1),
    )
    def test_values_and_generator_state_match_the_scalar_loops(self, seed, n_rois, counts, density, pending, label):
        steps = (
            (
                lambda rng: cohort._subtype_precision_templates(rng, n_rois, counts),
                lambda rng: oracles.subtype_precision_templates(rng, n_rois, counts),
            ),
            (
                lambda rng: cohort._fc_jitter(rng, n_rois),
                lambda rng: oracles.fc_jitter(rng, n_rois, density, cohort.PATIENT_FC_JITTER),
            ),
            (
                lambda rng: cohort._draw_pcd(rng, label),
                lambda rng: oracles.draw_pcd(rng, label, cohort.PCD_IQ_SHIFT),
            ),
        )
        arrays, scalars = np.random.default_rng(seed), np.random.default_rng(seed)
        # a density of 0.9 gives long runs of below-density doubles, whose parity decides the gates
        with mock.patch.object(cohort, "PATIENT_FC_DENSITY", density):
            for array_draw, scalar_draw in steps:
                if pending:
                    _leave_pending_half(arrays)
                    _leave_pending_half(scalars)
                assert _bytes(array_draw(arrays)) == _bytes(scalar_draw(scalars))
                assert arrays.bit_generator.state == scalars.bit_generator.state
