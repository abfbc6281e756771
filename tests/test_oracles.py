"""Vectorised production paths against the reference versions in tests/oracles.py."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgl import autodiff as ad
from ccgl import connectivity
from ccgl.autodiff import ParamStore, Tensor
from ccgl.cohort import RoiTimeSeries
from ccgl.connectivity import CorrelationMatrix, EdgePolicy, ViewGraph, build_fc_graph
from ccgl.metrics import auc, knn_baseline
from ccgl.population import _edge_conv_t, knn_edges
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

    def test_segment_sum_grad_check(self):
        rng = np.random.default_rng(1)
        store = ParamStore()
        store.add("W", rng.standard_normal((4, 3)))
        x = rng.standard_normal((5, 4))
        seg = np.array([0, 0, 1, 1, 1])

        def f(leaves):
            h = ad.tanh(ad.matmul(Tensor(x), leaves["W"]))
            pooled = oracles.segment_sum(ad.power(h, 2.0), seg, 2)
            return ad.reduce_mean(ad.reduce_max(ad.sqrt(ad.add(pooled, 1.0)), axis=0))

        assert ad.grad_check(f, store, eps=1e-5, samples=12, seed=2) < 1e-6


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
        assert_same_csr(normalized_laplacian(fc_graph_on(partial, top)).adjacency, expected)


def assert_same_csr(a, b):
    assert a.format == b.format == "csr"
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert a.data.tobytes() == b.data.tobytes()


def assert_matches_scipy_build(lap):
    laplacian, lam, scaled = oracles.scipy_scaled_laplacian(lap.adjacency)
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
    """Dense-array arithmetic stores the same csr matrices, bit for bit, as scipy operators."""

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
            assert_same_csr(sub.adjacency, lap.adjacency[kept][:, kept].tocsr())
            assert_matches_scipy_build(sub)

    def test_fixed2_scaled_is_laplacian_minus_identity(self):
        lap = normalized_laplacian(LAPLACIAN_GRAPHS["fc_r16_top10"], lambda_mode="fixed2")
        reference, _, _ = oracles.scipy_scaled_laplacian(lap.adjacency)
        assert_same_csr(lap.laplacian, reference)
        assert_same_csr(lap.scaled, (reference - sp.identity(16, format="csr")).tocsr())


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
    @given(case=point_sets(), hidden=st.integers(1, 6), aggregation=st.sampled_from(["sum", "max"]), seed=st.integers(0, 999))
    def test_node_level_matches_per_edge(self, case, hidden, aggregation, seed):
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
        for conv in (_edge_conv_t, oracles.edge_conv_t):
            x = Tensor(x0.copy())
            leaves = {name: Tensor(value.copy()) for name, value in params.items()}
            out = conv(x, edges, leaves, "l", aggregation)
            ad.backward(ad.reduce_sum(ad.mul(out, loss_weights)))
            results.append((out.data, x.grad, [leaves[name].grad for name in params]))
        (out, x_grad, grads), (ref_out, ref_x_grad, ref_grads) = results
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-10)
        np.testing.assert_allclose(x_grad, ref_x_grad, rtol=0, atol=1e-10)
        for grad, ref in zip(grads, ref_grads):
            np.testing.assert_allclose(grad, ref, rtol=0, atol=1e-10)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 60), levels=st.integers(1, 6), seed=st.integers(0, 999))
def test_auc_matches_midrank_loop(n, levels, seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, levels, n) / levels  # few distinct values: long tie runs
    labels = rng.integers(0, 2, n)
    labels[:2] = (0, 1)
    assert auc(scores, labels) == oracles.auc(scores, labels)
