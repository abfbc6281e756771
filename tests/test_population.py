import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ccgl import autodiff as ad
from ccgl import population
from ccgl.cohort import SynthSpec, split_cohort, synth_cohort
from ccgl.config import DgcSettings, RunConfig, TrainSettings
from ccgl.population import (
    PopulationGraph,
    _dgc_forward_t,
    _edge_conv_t,
    _focal_batch_t,
    dgc_forward,
    focal_loss,
    init_dgc_params,
    knn_edges,
    patient_embedding,
    population_from_embeddings,
    squared_distances,
    train_dgc,
)


def random_population(seed=0, p=12, d=6):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((p, d))
    features /= np.linalg.norm(features, axis=1, keepdims=True)
    labels = rng.integers(0, 2, p)
    labels[0], labels[1] = 0, 1
    masks = np.zeros((3, p), dtype=bool)
    masks[0, : p // 2] = True
    masks[1, p // 2 : p // 2 + p // 4] = True
    masks[2, p // 2 + p // 4 :] = True
    return PopulationGraph(
        node_features=features,
        labels=labels,
        train_mask=masks[0],
        val_mask=masks[1],
        test_mask=masks[2],
    )


class TestPatientEmbedding:
    def test_identical_views(self):
        v = np.array([0.6, 0.8])
        assert np.allclose(patient_embedding([v, v]), v)

    def test_mean_then_normalize(self):
        out = patient_embedding([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.allclose(out, np.array([1.0, 1.0]) / np.sqrt(2.0))

    def test_antipodal_views_rejected(self):
        with pytest.raises(ValueError, match="zero-norm aggregate"):
            patient_embedding([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])

    def test_antipodal_views_name_the_patient(self):
        spec = SynthSpec(n_patients=8, n_rois=8, n_timepoints=160)
        cohort = split_cohort(synth_cohort(spec, 0), (0.7, 0.1, 0.2), 0)
        views = [[np.ones(4)] for _ in range(8)]
        views[5] = [np.array([1.0, 0.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0, 0.0])]
        expected = rf"^patient '{cohort.patients[5].id}' \(entry 5\): zero-norm aggregate$"
        with pytest.raises(ValueError, match=expected):
            population_from_embeddings(cohort, views)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no view"):
            patient_embedding([])


class TestKnnEdges:
    def test_collinear_points(self):
        pts = np.array([[0.0], [1.0], [3.0]])
        assert knn_edges(pts, 1).tolist() == [[0, 1], [1, 0], [2, 1]]

    def test_full_k_gives_complete_digraph(self):
        pts = np.random.default_rng(0).standard_normal((5, 3))
        edges = knn_edges(pts, 4)
        assert len(edges) == 20
        assert all(i != j for i, j in edges)

    def test_duplicate_points_tie_to_lower_index(self):
        pts = np.array([[0.0], [0.0], [0.0]])
        edges = knn_edges(pts, 1)
        assert edges.tolist() == [[0, 1], [1, 0], [2, 0]]

    def test_k_bounds(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError, match="k must be"):
            knn_edges(pts, 3)

    @pytest.mark.parametrize("k", [1, 2])
    def test_all_nan_row_names_the_node(self, k):
        # at k = 1 this row used to get a self-edge: its inf diagonal sorted before the NaNs
        pts = np.random.default_rng(3).standard_normal((6, 3))
        pts[2] = np.nan
        with pytest.raises(ValueError, match="node 2 has non-finite features"):
            knn_edges(pts, k)

    def test_single_inf_entry_names_the_node(self):
        pts = np.random.default_rng(4).standard_normal((6, 3))
        pts[4, 1] = np.inf
        with pytest.raises(ValueError, match="node 4 has non-finite features"):
            knn_edges(pts, 2)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 999), p=st.integers(4, 20), k=st.integers(1, 3))
    def test_out_degree_exactly_k(self, seed, p, k):
        pts = np.random.default_rng(seed).standard_normal((p, 4))
        edges = knn_edges(pts, k)
        counts = np.bincount(edges[:, 0], minlength=p)
        assert np.all(counts == k)


def projection_phi(d):
    """phi that reproduces the neighbour difference via a relu pair."""
    w1 = np.zeros((2 * d, 2 * d))
    for c in range(d):
        w1[d + c, c] = 1.0
        w1[d + c, d + c] = -1.0
    w2 = np.zeros((2 * d, d))
    for c in range(d):
        w2[c, c] = 1.0
        w2[d + c, c] = -1.0
    return {"w1": w1, "b1": np.zeros(2 * d), "w2": w2, "b2": np.zeros(d)}


def neighbours(x, k):
    """``knn_edges`` as the (P, k) neighbour matrix an edge-conv layer reads."""
    return knn_edges(x, k)[:, 1].reshape(-1, k)


def edge_conv(x, nbr, phi_weights):
    leaves = {f"phi/{k}": ad.Tensor(v) for k, v in phi_weights.items()}
    return _edge_conv_t(ad.Tensor(x), nbr, leaves, "phi").data


class TestEdgeConv:
    def test_identical_features_identical_rows(self):
        rng = np.random.default_rng(1)
        x = np.tile(rng.standard_normal(4), (6, 1))
        nbr = neighbours(x + rng.standard_normal((6, 4)) * 0.0, 2)
        weights = {
            "w1": rng.standard_normal((8, 5)),
            "b1": rng.standard_normal(5),
            "w2": rng.standard_normal((5, 3)),
            "b2": rng.standard_normal(3),
        }
        out = edge_conv(x, nbr, weights)
        assert np.allclose(out, out[0])

    def test_difference_projection(self):
        x = np.array([[0.0], [1.0], [3.0]])
        out = edge_conv(x, neighbours(x, 1), projection_phi(1))
        # row i = v_nearest - v_i
        assert np.allclose(out, np.array([[1.0], [-1.0], [-2.0]]))

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((7, 3))
        weights = {
            "w1": rng.standard_normal((6, 4)),
            "b1": rng.standard_normal(4),
            "w2": rng.standard_normal((4, 4)),
            "b2": rng.standard_normal(4),
        }
        nbr = neighbours(x, 2)
        base = edge_conv(x, nbr, weights)
        perm = rng.permutation(7)
        inverse = np.argsort(perm)
        # node a of x[perm] is node perm[a] of x, and its neighbours are renumbered the same way
        permuted = edge_conv(x[perm], inverse[nbr[perm]], weights)
        assert np.allclose(permuted, base[perm], atol=1e-12)

    def test_out_of_range_endpoint_rejected(self):
        # a negative index would otherwise wrap around silently
        for bad in (-1, 3):
            with pytest.raises(ValueError, match=r"neighbours must lie in \[0, 2\]"):
                edge_conv(np.zeros((3, 2)), np.array([[1], [bad], [0]]), projection_phi(2))

    def test_grad_check_with_repeated_neighbours(self):
        # a neighbour listed twice ties with itself, and its gradient arrives once
        rng = np.random.default_rng(5)
        store = ad.ParamStore()
        store.add("x", rng.standard_normal((5, 3)))
        for name, shape in (("w1", (6, 4)), ("b1", (4,)), ("w2", (4, 3)), ("b2", (3,))):
            store.add(f"phi/{name}", rng.standard_normal(shape))
        nbr = np.array([[1, 1, 4], [0, 2, 2], [3, 3, 3], [4, 0, 1], [0, 0, 2]])
        weights = rng.standard_normal((5, 3))

        def f(leaves):
            out = _edge_conv_t(leaves["x"], nbr, leaves, "phi")
            return ad.reduce_sum(ad.mul(ad.power(out, 2.0), weights))

        assert ad.grad_check(f, store, eps=1e-5, samples=40, seed=6) < 1e-6

    def test_max_tie_routes_gradient_to_first_neighbour(self):
        # nodes 1 and 2 coincide, so node 0 receives two identical messages
        x = ad.Tensor(np.array([[0.0], [1.0], [1.0]]))
        leaves = {f"phi/{k}": ad.Tensor(v) for k, v in projection_phi(1).items()}
        out = _edge_conv_t(x, neighbours(x.data, 2), leaves, "phi")
        assert out.data[0, 0] == 1.0
        ad.backward(ad.reduce_sum(ad.take(out, np.array([0]))))
        assert np.array_equal(x.grad, np.array([[-1.0], [1.0], [0.0]]))


class TestFocalLoss:
    def test_gamma_zero_is_cross_entropy(self):
        probs = np.random.default_rng(3).uniform(0.01, 1.0, 100)
        assert np.allclose(focal_loss(probs, 0.0), -np.log(probs), atol=1e-12)

    def test_perfect_prediction_zero(self):
        assert focal_loss(1.0, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_half_probability_gamma_two(self):
        assert focal_loss(0.5, 2.0) == pytest.approx(0.25 * np.log(2.0), abs=1e-12)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="gamma"):
            focal_loss(0.5, -1.0)

    @settings(max_examples=25, deadline=None)
    @given(gamma=st.floats(0.0, 5.0), a=st.floats(0.02, 0.97))
    def test_monotone_decreasing_in_probability(self, gamma, a):
        b = a + 0.02
        assert focal_loss(a, gamma) >= focal_loss(b, gamma)

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
    def test_zero_probability_is_infinite(self):
        assert focal_loss(0.0, 2.0) == np.inf
        assert np.array_equal(focal_loss(np.array([1e-300, 0.0]), 0.0), [-np.log(1e-300), np.inf])

    @pytest.mark.parametrize("bad", [1.5, -1e-300, np.nan, np.inf])
    def test_probability_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^probability 1 is {bad!r}, expected a value in \[0, 1\]$"):
            focal_loss(np.array([0.5, bad, 2.0]), 2.0)

    def test_gradient_reaches_a_node_far_below_1e_12(self):
        # node 0's true class 1 gets p = 1e-18: the loss's slope in its logit is -(1 - p), over 3 nodes
        logits = ad.Tensor(np.array([[0.0, np.log(1e-18)], [0.3, -0.2], [-0.1, 0.4]]))
        e = ad.exp(ad.sub(logits, logits.data.max(axis=1, keepdims=True)))
        probs = ad.div(e, ad.reduce_sum(e, axis=1, keepdims=True))
        assert probs.data[0, 1] == pytest.approx(1e-18, rel=1e-9)
        ad.backward(_focal_batch_t(probs, np.array([1, 0, 1]), np.ones(3, dtype=bool), 2.0))
        assert logits.grad[0, 1] == pytest.approx(-1.0 / 3.0, rel=1e-9)


class TestDgcForward:
    def test_rows_sum_to_one(self):
        pop = random_population(4)
        settings = DgcSettings(k=3, hidden1=5, hidden2=4)
        params = init_dgc_params(6, settings, seed=0)
        probs = dgc_forward(pop, params, settings=settings)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
        _, record = _dgc_forward_t(pop.node_features, params.values, settings)
        assert set(record) == {"layer1", "layer2"}

    def test_tape_free_forward_equals_the_tape_path(self):
        pop = random_population(15, p=12)
        settings = DgcSettings(k=3, hidden1=6, hidden2=5)
        params = init_dgc_params(6, settings, seed=7)
        probs = dgc_forward(pop, params, settings=settings)
        taped, _ = _dgc_forward_t(pop.node_features, ad.make_leaves(params), settings)
        assert type(probs) is np.ndarray
        assert isinstance(taped, ad.Tensor)
        assert np.array_equal(probs, taped.data)

    def test_settings_are_required(self):
        # parameters trained under one k give other probabilities under the default k
        pop = random_population(4)
        params = init_dgc_params(6, DgcSettings(k=3, hidden1=5, hidden2=4), seed=0)
        with pytest.raises(TypeError, match="settings"):
            dgc_forward(pop, params)

    def test_deterministic(self):
        pop = random_population(5)
        settings = DgcSettings(k=2, hidden1=5, hidden2=4)
        params = init_dgc_params(6, settings, seed=1)
        a = dgc_forward(pop, params, settings=settings)
        b = dgc_forward(pop, params, settings=settings)
        assert np.array_equal(a, b)

    def test_identical_features_identical_rows(self):
        pop = random_population(6)
        pop.node_features = np.tile(pop.node_features[0], (pop.n_patients, 1))
        settings = DgcSettings(k=3, hidden1=5, hidden2=4)
        params = init_dgc_params(6, settings, seed=2)
        probs = dgc_forward(pop, params, settings=settings)
        assert np.allclose(probs, probs[0], atol=1e-12)

    def test_separated_clusters_keep_edges_within(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((10, 4)) * 0.05 + np.array([5.0, 0, 0, 0])
        b = rng.standard_normal((10, 4)) * 0.05 - np.array([5.0, 0, 0, 0])
        features = np.vstack([a, b])
        membership = np.array([0] * 10 + [1] * 10)
        pop = PopulationGraph(
            node_features=features,
            labels=membership,
            train_mask=np.ones(20, dtype=bool),
            val_mask=np.zeros(20, dtype=bool),
            test_mask=np.zeros(20, dtype=bool),
        )
        settings = DgcSettings(k=4, hidden1=6, hidden2=5)
        params = init_dgc_params(4, settings, seed=3)
        _, record = _dgc_forward_t(pop.node_features, params.values, settings)
        within = (membership[record["layer2"]] == membership[:, None]).mean()
        assert within >= 0.9

    def test_gradients_with_frozen_edges(self):
        pop = random_population(8, p=8)
        settings = DgcSettings(k=3, gamma=0.0, hidden1=6, hidden2=5)
        params = init_dgc_params(6, settings, seed=4)
        probs, record = _dgc_forward_t(pop.node_features, ad.make_leaves(params), settings)
        fixed = (record["layer1"], record["layer2"])

        def f(leaves):
            out, _ = _dgc_forward_t(pop.node_features, leaves, settings, fixed_edges=fixed)
            return _focal_batch_t(out, pop.labels, pop.train_mask, settings.gamma)

        assert ad.grad_check(f, params, eps=1e-5, samples=30, seed=5) < 1e-4

    def test_pinned_input_graph_equals_a_rebuild(self):
        pop = random_population(13, p=12)
        settings = DgcSettings(k=3, hidden1=6, hidden2=5)
        leaves = ad.make_leaves(init_dgc_params(6, settings, seed=6))
        rebuilt, rebuilt_edges = _dgc_forward_t(pop.node_features, leaves, settings)
        layer1 = neighbours(pop.node_features, settings.k)
        pinned, pinned_edges = _dgc_forward_t(pop.node_features, leaves, settings, fixed_edges=(layer1, None))
        assert np.array_equal(pinned.data, rebuilt.data)
        for layer in ("layer1", "layer2"):
            assert np.array_equal(pinned_edges[layer], rebuilt_edges[layer])

    @pytest.mark.parametrize("pinned, rebuilds", [((), 2), ((1,), 1), ((1, 2), 0)])
    def test_each_unpinned_layer_calls_knn_edges_once(self, monkeypatch, pinned, rebuilds):
        # the benchmark times the kNN rebuild by wrapping population.knn_edges
        pop = random_population(16, p=12)
        settings = DgcSettings(k=3, hidden1=6, hidden2=5)
        leaves = init_dgc_params(6, settings, seed=8).values
        _, record = _dgc_forward_t(pop.node_features, leaves, settings)
        fixed = tuple(record[f"layer{layer}"] if layer in pinned else None for layer in (1, 2))
        calls = []
        real = population.knn_edges
        monkeypatch.setattr(population, "knn_edges", lambda x, k: calls.append(k) or real(x, k))
        _dgc_forward_t(pop.node_features, leaves, settings, fixed_edges=fixed)
        assert len(calls) == rebuilds


class TestTrainDgc:
    def _config(self, **overrides):
        defaults = dict(
            synth=SynthSpec(n_patients=8, n_rois=8, n_timepoints=160),
            dgc=DgcSettings(k=3, hidden1=6, hidden2=5),
            train=TrainSettings(cgl_epochs=1, dgc_epochs=40, dgc_lr=0.01),
            seeds=(0,),
        )
        defaults.update(overrides)
        return RunConfig(**defaults)

    def test_single_class_training_converges(self):
        pop = random_population(9, p=10)
        pop.labels = np.zeros(10, dtype=np.int64)
        cfg = self._config()
        params, history = train_dgc(pop, cfg, seed=0)
        assert history[-1]["loss"] < 0.05

    def test_empty_train_mask_rejected(self):
        pop = random_population(10)
        pop.train_mask[:] = False
        pop.val_mask[:2] = True
        with pytest.raises(ValueError, match="training nodes"):
            train_dgc(pop, self._config(), seed=0)

    def test_scrambled_test_labels_bitwise_identical(self):
        pop_a = random_population(11, p=14)
        pop_b = random_population(11, p=14)
        scrambled = pop_b.labels.copy()
        scrambled[pop_b.test_mask] = 1 - scrambled[pop_b.test_mask]
        pop_b.labels = scrambled
        cfg = self._config()
        params_a, _ = train_dgc(pop_a, cfg, seed=3)
        params_b, _ = train_dgc(pop_b, cfg, seed=3)
        for name in params_a.names():
            assert np.array_equal(params_a.values[name], params_b.values[name])

    def test_builds_the_layer1_graph_once(self, monkeypatch):
        built = []
        real = population.knn_edges
        monkeypatch.setattr(population, "knn_edges", lambda x, k: built.append(k) or real(x, k))
        cfg = self._config(train=TrainSettings(cgl_epochs=1, dgc_epochs=7, dgc_lr=0.01))
        train_dgc(random_population(14, p=12), cfg, seed=0)
        # one layer-1 graph for the whole run, then one layer-2 graph per epoch
        assert len(built) == cfg.train.dgc_epochs + 1

    def test_non_finite_loss_names_the_epoch(self, monkeypatch):
        real = population._focal_batch_t
        calls = []

        def nan_at_epoch_2(probs, labels, mask, gamma):
            loss = real(probs, labels, mask, gamma)
            calls.append(None)
            return ad.mul(loss, np.nan) if len(calls) == 3 else loss

        monkeypatch.setattr(population, "_focal_batch_t", nan_at_epoch_2)
        with pytest.raises(ValueError, match=r"^non-finite classification loss at epoch 2$"):
            train_dgc(random_population(16, p=12), self._config(), seed=0)

    @pytest.mark.filterwarnings("ignore:divide by zero encountered in log")
    def test_underflowed_probability_stops_training(self, monkeypatch):
        # scaled classifier weights push some training node's p_true below the smallest double
        real = population.init_dgc_params

        def saturated(in_dim, settings, seed):
            store = real(in_dim, settings, seed)
            store.values["classifier"] *= 1e6
            return store

        monkeypatch.setattr(population, "init_dgc_params", saturated)
        pop, cfg = random_population(16, p=12), self._config()
        probs = dgc_forward(pop, saturated(6, cfg.dgc, 0), settings=cfg.dgc)
        assert (probs[pop.train_mask, pop.labels[pop.train_mask]] == 0.0).any()
        with pytest.raises(ValueError, match=r"^non-finite classification loss at epoch 0$"):
            train_dgc(pop, cfg, seed=0)

    def test_returns_best_validation_epoch(self):
        pop = random_population(12, p=16)
        cfg = self._config(train=TrainSettings(cgl_epochs=1, dgc_epochs=25, dgc_lr=0.02))
        params, history = train_dgc(pop, cfg, seed=1)
        assert len(history) == 25
        assert all(np.isfinite(h["loss"]) for h in history)


def test_population_mask_validation():
    with pytest.raises(ValueError, match="disjoint"):
        PopulationGraph(
            node_features=np.zeros((3, 2)),
            labels=np.zeros(3, dtype=int),
            train_mask=np.array([True, True, False]),
            val_mask=np.array([True, False, False]),
            test_mask=np.array([False, False, True]),
        )
    with pytest.raises(ValueError, match="split role"):
        PopulationGraph(
            node_features=np.zeros((3, 2)),
            labels=np.zeros(3, dtype=int),
            train_mask=np.array([True, False, False]),
            val_mask=np.array([False, False, False]),
            test_mask=np.array([False, False, True]),
        )



@pytest.mark.parametrize("bad, shown", [(-1, "-1"), (2, "2"), (0.5, "0.5"), (None, "None")])
def test_population_rejects_labels_other_than_zero_and_one(bad, shown):
    pop = random_population(p=5, d=2)
    labels = [0, 1, 1, bad, 0]
    with pytest.raises(ValueError, match=rf"^label of node 3 is {shown}, expected 0 or 1$"):
        PopulationGraph(pop.node_features, labels, pop.train_mask, pop.val_mask, pop.test_mask)


def test_population_rejects_ids_of_the_wrong_length():
    pop = random_population(p=5, d=2)
    masks = (pop.train_mask, pop.val_mask, pop.test_mask)
    with pytest.raises(ValueError, match="ids has 1 entries but there are 5 patients"):
        PopulationGraph(pop.node_features, pop.labels, *masks, ids=("a",))
    named = PopulationGraph(pop.node_features, pop.labels, *masks, ids=np.array(list("abcde")))
    assert named.ids == tuple("abcde")


def test_population_from_embeddings_requires_splits():
    spec = SynthSpec(n_patients=4, n_rois=8, n_timepoints=160)
    cohort = synth_cohort(spec, 0)
    views = [[np.ones(4)] for _ in range(4)]
    with pytest.raises(ValueError, match="unassigned"):
        population_from_embeddings(cohort, views)
    cohort = split_cohort(cohort, (0.7, 0.1, 0.2), 0)
    pop = population_from_embeddings(cohort, views)
    assert pop.n_patients == 4
    assert pop.ids == tuple(p.id for p in cohort.patients)


@pytest.mark.parametrize("n_views", [11, 13])
def test_population_from_embeddings_names_both_counts_on_a_mismatch(n_views):
    spec = SynthSpec(n_patients=12, n_rois=8, n_timepoints=160)
    cohort = split_cohort(synth_cohort(spec, 0), (0.7, 0.1, 0.2), 0)
    views = [[np.ones(4)] for _ in range(n_views)]
    with pytest.raises(ValueError, match=f"^{n_views} patient embeddings for a cohort of 12 patients$"):
        population_from_embeddings(cohort, views)


@st.composite
def relabelled_populations(draw):
    """(graph, the same graph with its nodes reordered by a drawn permutation, the permutation, k)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p, k = draw(st.integers(12, 40)), draw(st.integers(2, 5))
    features = rng.standard_normal((p, 6))
    dist = np.sort(squared_distances(features, features) + np.diag(np.full(p, np.inf)), axis=1)
    # k_nearest breaks distance ties by index, which a relabelling changes
    assume(np.diff(dist[:, : k + 1], axis=1).min() > 1e-9)
    role = rng.permutation(np.arange(p) % 3)
    labels = rng.integers(0, 2, p)
    perm = rng.permutation(p)
    ids = np.array([f"p{i}" for i in range(p)])

    def graph(order):
        masks = [role[order] == r for r in range(3)]
        return PopulationGraph(features[order], labels[order], *masks, ids=ids[order])

    return graph(np.arange(p)), graph(perm), perm, k


class TestPatientRelabelling:
    """Relabelling the patients permutes the classifier's probabilities with them."""

    @settings(max_examples=30, deadline=None)
    @given(case=relabelled_populations())
    def test_probabilities_permute_with_the_patients(self, case):
        pop, moved, perm, k = case
        settings_ = DgcSettings(k=k, hidden1=6, hidden2=5)
        params = init_dgc_params(6, settings_, seed=0)
        before = dgc_forward(pop, params, settings=settings_)
        np.testing.assert_allclose(dgc_forward(moved, params, settings=settings_), before[perm], rtol=0, atol=1e-12)
        cfg = RunConfig(
            synth=SynthSpec(n_patients=8, n_rois=8, n_timepoints=160),
            dgc=settings_,
            train=TrainSettings(cgl_epochs=1, dgc_epochs=4, dgc_lr=0.01),
            seeds=(0,),
        )
        trained, _ = train_dgc(pop, cfg, seed=0)
        trained_moved, _ = train_dgc(moved, cfg, seed=0)
        after = dgc_forward(pop, trained, settings=settings_)
        np.testing.assert_allclose(dgc_forward(moved, trained_moved, settings=settings_), after[perm], rtol=0, atol=1e-12)
