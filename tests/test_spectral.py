import numpy as np
import pytest

from ccgl.cohort import RoiTimeSeries
from ccgl.connectivity import EdgePolicy, ViewGraph, build_fc_graph
from ccgl.spectral import induced_laplacian, largest_eigenvalue, normalized_laplacian
from tests.oracles import weights_from_edges


def random_view_graph(seed, rois=8, top=3):
    rng = np.random.default_rng(seed)
    series = RoiTimeSeries(rng.standard_normal((200, rois)))
    return build_fc_graph(series, np.zeros(7), EdgePolicy(per_node_top=top))


class TestNormalizedLaplacian:
    def test_empty_graph_is_identity(self):
        graph = ViewGraph(node_features=np.zeros((4, 11)), weights=np.zeros((4, 4)))
        lap = normalized_laplacian(graph)
        assert np.allclose(lap.laplacian.toarray(), np.eye(4), atol=0)
        assert lap.lambda_max == pytest.approx(1.0)
        assert np.allclose(lap.scaled.toarray(), np.eye(4), atol=0)

    def test_single_edge_two_nodes(self):
        graph = ViewGraph(node_features=np.zeros((2, 9)), weights=weights_from_edges(2, [(0, 1, 0.37)]))
        lap = normalized_laplacian(graph)
        assert np.allclose(lap.laplacian.toarray(), np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert lap.lambda_max == pytest.approx(2.0, abs=1e-9)

    def test_isolated_node_row_is_identity(self):
        graph = ViewGraph(node_features=np.zeros((3, 10)), weights=weights_from_edges(3, [(0, 1, -0.5)]))
        lap = normalized_laplacian(graph).laplacian.toarray()
        assert np.array_equal(lap[2], np.array([0.0, 0.0, 1.0]))

    def test_spectrum_bounds_random_graphs(self):
        for seed in range(20):
            lap = normalized_laplacian(random_view_graph(seed))
            evals = np.linalg.eigvalsh(lap.laplacian.toarray())
            assert evals.min() >= -1e-9
            assert evals.max() <= 2.0 + 1e-9
            scaled = np.linalg.eigvalsh(lap.scaled.toarray())
            assert scaled.min() >= -1.0 - 1e-9
            assert scaled.max() <= 1.0 + 1e-9

    def test_scaled_is_exactly_symmetric(self):
        # Chebyshev filters are polynomials of a symmetric operator: the dense
        # scaled Laplacians the encoder stacks must be symmetric bit for bit
        rng = np.random.default_rng(0)
        for seed in range(10):
            lap = normalized_laplacian(random_view_graph(seed, rois=16, top=seed % 5 + 1))
            laps = [lap] + [
                induced_laplacian(lap, np.sort(rng.choice(16, size=size, replace=False)))
                for size in (1, 5, 8, 16)
            ]
            for each in laps:
                assert np.array_equal(each.values, each.values.T)


class TestLargestEigenvalue:
    def test_identity(self):
        import scipy.sparse as sp

        assert largest_eigenvalue(sp.identity(5, format="csr")) == pytest.approx(1.0, abs=1e-9)

    def test_matches_dense_oracle(self):
        for seed in range(15):
            lap = normalized_laplacian(random_view_graph(seed, rois=8))
            dense = np.linalg.eigvalsh(lap.laplacian.toarray()).max()
            assert largest_eigenvalue(lap.laplacian, tol=1e-6) == pytest.approx(dense, abs=1e-5)

    def test_tol_validation(self):
        import scipy.sparse as sp

        with pytest.raises(ValueError, match="tol"):
            largest_eigenvalue(sp.identity(3), tol=0.0)


class TestInducedLaplacian:
    def test_subgraph_matches_direct_build(self):
        graph = random_view_graph(7, rois=8)
        lap = normalized_laplacian(graph)
        kept = np.array([0, 2, 3, 6])
        sub = induced_laplacian(lap, kept)
        direct = normalized_laplacian(
            ViewGraph(node_features=graph.node_features[kept], weights=graph.weights[np.ix_(kept, kept)])
        )
        assert np.allclose(sub.laplacian.toarray(), direct.laplacian.toarray())
        assert sub.lambda_max == pytest.approx(direct.lambda_max, abs=1e-9)

    def test_cache_returns_same_object(self):
        lap = normalized_laplacian(random_view_graph(9))
        a = induced_laplacian(lap, [0, 1, 2])
        b = induced_laplacian(lap, [0, 1, 2])
        assert a is b
        c = induced_laplacian(lap, [0, 1, 3])
        assert c is not a
