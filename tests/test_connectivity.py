import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgl.cohort import RoiTimeSeries
from ccgl.connectivity import (
    CONDITION_LIMIT,
    CorrelationMatrix,
    EdgePolicy,
    ViewGraph,
    build_fc_graph,
    k_nearest,
    partial_corr_matrix,
    pearson_matrix,
    symmetric_condition,
)
from tests.oracles import weights_from_edges


def _series(rng, t=120, r=5):
    return RoiTimeSeries(rng.standard_normal((t, r)))


def residual_partial_corr(x: np.ndarray) -> np.ndarray:
    """Oracle: correlation of residuals after regressing out all other columns."""
    t, r = x.shape
    out = np.eye(r)
    for a in range(r):
        for b in range(a + 1, r):
            others = [c for c in range(r) if c not in (a, b)]
            design = np.hstack([np.ones((t, 1)), x[:, others]])
            res_a = x[:, a] - design @ np.linalg.lstsq(design, x[:, a], rcond=None)[0]
            res_b = x[:, b] - design @ np.linalg.lstsq(design, x[:, b], rcond=None)[0]
            rho = np.corrcoef(res_a, res_b)[0, 1]
            out[a, b] = out[b, a] = rho
    return out


class TestPearson:
    def test_duplicate_column_gives_one(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 2))
        x = np.hstack([x, x[:, :1]])
        corr = pearson_matrix(RoiTimeSeries(x)).values
        assert corr[0, 2] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column_gives_minus_one(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 2))
        x = np.hstack([x, -x[:, :1]])
        corr = pearson_matrix(RoiTimeSeries(x)).values
        assert corr[0, 2] == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_pair(self):
        # r = 6 / sqrt(5 * 9) for these two columns
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 2.0], [4.0, 5.0]])
        corr = pearson_matrix(RoiTimeSeries(x)).values
        assert corr[0, 1] == pytest.approx(6.0 / np.sqrt(45.0), abs=1e-12)

    def test_constant_column_rejected(self):
        x = np.ones((30, 3))
        x[:, 0] = np.arange(30)
        x[:, 2] = np.random.default_rng(2).standard_normal(30)
        with pytest.raises(ValueError, match="roi 1"):
            pearson_matrix(RoiTimeSeries(x))

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(min_value=0.01, max_value=50.0),
        beta=st.floats(min_value=-100.0, max_value=100.0),
        seed=st.integers(min_value=0, max_value=999),
    )
    def test_affine_invariance(self, alpha, beta, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((40, 4))
        scaled = x.copy()
        scaled[:, 1] = alpha * scaled[:, 1] + beta
        base = pearson_matrix(RoiTimeSeries(x)).values
        mapped = pearson_matrix(RoiTimeSeries(scaled)).values
        assert np.allclose(base, mapped, atol=1e-9)


class TestPartialCorr:
    def test_two_variable_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((100, 2))
        x[:, 1] += 0.5 * x[:, 0]
        series = RoiTimeSeries(x)
        pc = partial_corr_matrix(series, shrinkage=0.0).values
        pearson = pearson_matrix(series).values
        assert pc[0, 1] == pytest.approx(pearson[0, 1], abs=1e-12)

    def test_chain_conditioning_removes_link(self):
        rng = np.random.default_rng(4)
        t = 2000
        x = rng.standard_normal(t)
        z = x + 0.4 * rng.standard_normal(t)
        y = z + 0.4 * rng.standard_normal(t)
        series = RoiTimeSeries(np.column_stack([x, y, z]))
        pearson = pearson_matrix(series).values
        partial = partial_corr_matrix(series, shrinkage=0.0).values
        assert pearson[0, 1] > 0.5
        assert abs(partial[0, 1]) < 0.1

    def test_matches_residual_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((500, 5)) @ rng.standard_normal((5, 5))
        mine = partial_corr_matrix(RoiTimeSeries(x), shrinkage=0.0).values
        oracle = residual_partial_corr(x)
        assert np.abs(mine - oracle).max() < 1e-8

    def test_singular_needs_shrinkage(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 8))  # fewer timepoints than rois
        with pytest.raises(ValueError, match="increase shrinkage"):
            partial_corr_matrix(RoiTimeSeries(x), shrinkage=0.0)
        out = partial_corr_matrix(RoiTimeSeries(x), shrinkage=0.5)
        assert np.all(np.abs(out.values) <= 1.0 + 1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=999), shrink=st.floats(min_value=0.05, max_value=0.9))
    def test_symmetric_and_bounded(self, seed, shrink):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((60, 6))
        out = partial_corr_matrix(RoiTimeSeries(x), shrinkage=shrink).values
        assert np.allclose(out, out.T)
        assert out.min() >= -1.0 and out.max() <= 1.0


class TestConditionGuard:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 999),
        r=st.integers(2, 12),
        t_share=st.floats(0.0, 1.0),
        shrink=st.floats(0.0, 1.0),
    )
    def test_agrees_with_svd_condition(self, seed, r, t_share, shrink):
        t = 3 + round(t_share * (2 * r - 3))
        x = np.random.default_rng(seed).standard_normal((t, r))
        cov = np.cov(x, rowvar=False, ddof=1)
        shrunk = (1.0 - shrink) * cov + shrink * np.diag(np.diag(cov))
        reference = np.linalg.cond(shrunk)
        if reference < 1e8:
            assert symmetric_condition(shrunk) == pytest.approx(reference, rel=1e-6)
        if 1e11 <= reference <= 1e13:
            return
        if reference > CONDITION_LIMIT:
            with pytest.raises(ValueError, match="increase shrinkage"):
                partial_corr_matrix(RoiTimeSeries(x), shrinkage=shrink)
        else:
            partial_corr_matrix(RoiTimeSeries(x), shrinkage=shrink)

    def test_constant_view_has_infinite_condition(self):
        # an all-zero shrunk covariance is 0 / 0, which np.linalg.cond also reads as inf
        with pytest.raises(ValueError, match=r"condition inf\); increase shrinkage"):
            partial_corr_matrix(RoiTimeSeries(np.full((10, 4), 3.0)), shrinkage=0.5)


OFFSETS = [0.0, 0.5e-10, 0.999e-10, 1e-10, 1.001e-10, 2e-10, 4e-6]


class TestCorrelationMatrixChecks:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 999),
        r=st.integers(2, 6),
        asymmetry=st.sampled_from(OFFSETS),
        diagonal=st.sampled_from(OFFSETS),
        signs=st.tuples(st.sampled_from([-1.0, 1.0]), st.sampled_from([-1.0, 1.0])),
    )
    def test_same_verdict_as_allclose(self, seed, r, asymmetry, diagonal, signs):
        rng = np.random.default_rng(seed)
        values = rng.uniform(-0.9, 0.9, (r, r))
        values = (values + values.T) / 2.0
        np.fill_diagonal(values, 1.0)
        i, j = rng.choice(r, size=2, replace=False)
        values[i, j] += signs[0] * asymmetry
        values[j, j] += signs[1] * diagonal
        if not np.allclose(values, values.T, rtol=0, atol=1e-10):
            expected = "must be symmetric"
        elif not np.allclose(np.diag(values), 1.0, rtol=0, atol=1e-10):
            expected = "must have unit diagonal"
        elif values.max() > 1.0 + 1e-10:
            expected = "must lie in"
        else:
            assert CorrelationMatrix(values).values is not None
            return
        with pytest.raises(ValueError, match=expected):
            CorrelationMatrix(values)

    def test_non_finite_checked_before_symmetry(self):
        values = np.eye(3)
        values[0, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            CorrelationMatrix(values)

    def test_empty_matrix_refused_by_the_range_check(self):
        with pytest.raises(ValueError, match="zero-size array to reduction operation minimum"):
            CorrelationMatrix(np.zeros((0, 0)))


@st.composite
def tied_rows(draw):
    n = draw(st.integers(2, 12))
    grid = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0])
    cells = grid if draw(st.booleans()) else st.floats(-5.0, 5.0, allow_nan=False)
    dist = np.array(draw(st.lists(cells, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        np.fill_diagonal(dist, np.inf)
    k = draw(st.integers(1, n - 1)) if draw(st.booleans()) else n - 1
    return dist, k


class TestKNearest:
    @settings(max_examples=200, deadline=None)
    @given(case=tied_rows())
    def test_rows_match_stable_argsort(self, case):
        dist, k = case
        expected = np.argsort(dist, axis=1, kind="stable")[:, :k]
        assert np.array_equal(k_nearest(dist, k), expected)

    def test_negative_zero_ties_with_zero(self):
        dist = np.array([[np.inf, 0.0, -0.0, -0.0], [0.0, np.inf, -0.0, 0.0]])
        assert k_nearest(dist, 2).tolist() == [[1, 2], [0, 2]]

    def test_nan_row_refused(self):
        dist = np.array([[np.inf, 1.0, 2.0], [np.nan, np.inf, np.nan]])
        with pytest.raises(ValueError, match="row 1 has NaN distances"):
            k_nearest(dist, 2)


class TestBuildFcGraph:
    def test_feature_dim_is_rois_plus_seven(self):
        rng = np.random.default_rng(7)
        graph = build_fc_graph(_series(rng, r=6), np.zeros(7))
        assert graph.feature_dim == 6 + 7

    def test_small_graph_complete(self):
        rng = np.random.default_rng(8)
        graph = build_fc_graph(_series(rng, r=4), np.zeros(7), EdgePolicy(per_node_top=3))
        assert len(graph.edges) == 6  # complete on 4 nodes

    def test_top1_bounded_by_node_count(self):
        rng = np.random.default_rng(9)
        graph = build_fc_graph(_series(rng, r=8), np.zeros(7), EdgePolicy(per_node_top=1))
        assert len(graph.edges) <= 8
        partial = partial_corr_matrix(_series(np.random.default_rng(9), r=8), 0.1).values
        # every retained edge is some node's strongest partner
        strength = np.abs(partial)
        np.fill_diagonal(strength, -np.inf)
        best = set()
        for i in range(8):
            j = int(np.argmax(strength[i]))
            best.add((min(i, j), max(i, j)))
        assert {(i, j) for i, j, _ in graph.edges} == best

    def test_node_features_are_pearson_rows_plus_pcd(self):
        rng = np.random.default_rng(10)
        series = _series(rng, r=5)
        pcd = np.arange(7.0)
        graph = build_fc_graph(series, pcd)
        pearson = pearson_matrix(series).values
        assert np.allclose(graph.node_features[:, :5], pearson)
        assert np.allclose(graph.node_features[:, 5:], np.tile(pcd, (5, 1)))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((150, 6))
        perm = np.array([3, 0, 5, 1, 4, 2])
        g1 = build_fc_graph(RoiTimeSeries(x), np.zeros(7), EdgePolicy(per_node_top=2))
        g2 = build_fc_graph(RoiTimeSeries(x[:, perm]), np.zeros(7), EdgePolicy(per_node_top=2))
        # column j of the permuted series is original roi perm[j]
        inverse = np.argsort(perm)
        mapped = {(min(inverse[i], inverse[j]), max(inverse[i], inverse[j])): w for i, j, w in g1.edges}
        got = {(i, j): w for i, j, w in g2.edges}
        assert set(mapped) == set(got)
        for key, w in mapped.items():
            assert got[key] == pytest.approx(w, abs=1e-12)

    def test_edge_weights_keep_sign(self):
        rng = np.random.default_rng(12)
        series = _series(rng, r=6)
        graph = build_fc_graph(series, np.zeros(7))
        partial = partial_corr_matrix(series, 0.1).values
        for i, j, w in graph.edges:
            assert w == pytest.approx(partial[i, j], abs=1e-12)
        assert any(w < 0 for _, _, w in graph.edges)


def test_viewgraph_invariants():
    feats = np.zeros((3, 10))
    w = weights_from_edges(3, [(0, 1, 0.5), (1, 2, -0.25)])
    assert ViewGraph(node_features=feats, weights=w).edges == ((0, 1, 0.5), (1, 2, -0.25))
    self_edge = w.copy()
    self_edge[1, 1] = 0.5
    with pytest.raises(ValueError, match="self-edge at node 1"):
        ViewGraph(node_features=feats, weights=self_edge)
    asymmetric = w.copy()
    asymmetric[0, 1] = 0.4
    with pytest.raises(ValueError, match="symmetric"):
        ViewGraph(node_features=feats, weights=asymmetric)
    with pytest.raises(ValueError, match="square"):
        ViewGraph(node_features=feats, weights=np.zeros((3, 4)))
    with pytest.raises(ValueError, match=r"node features must be \(4, F\)"):
        ViewGraph(node_features=feats, weights=np.zeros((4, 4)))
    non_finite = w.copy()
    non_finite[0, 2] = non_finite[2, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ViewGraph(node_features=feats, weights=non_finite)
