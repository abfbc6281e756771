import math
import re

import numpy as np
import pytest

from ccgl import autodiff as ad
from ccgl import encoder
from ccgl.cohort import RoiTimeSeries, SynthSpec, split_cohort, synth_cohort
from ccgl.config import EncoderSettings, RunConfig, TrainSettings
from ccgl.connectivity import EdgePolicy, ViewGraph, build_fc_graph
from ccgl.encoder import (
    AttractionMatrix,
    PreparedView,
    _chebyshev_t,
    _contrastive_loss_t,
    _encode_batch_t,
    _encode_t,
    _topk_pool_t,
    chebyshev_conv,
    contrastive_loss,
    init_encoder_params,
    pair_partner,
    pair_split,
    prepare_view,
    prepare_views,
    similarity_matrix,
    train_cgl,
)
from ccgl.spectral import induced_laplacian, normalized_laplacian


def small_graph(seed=0, rois=6, top=3):
    rng = np.random.default_rng(seed)
    series = RoiTimeSeries(rng.standard_normal((180, rois)))
    return build_fc_graph(series, rng.standard_normal(7) * 0.05, EdgePolicy(per_node_top=top))


def tiny_config(**overrides):
    defaults = dict(
        synth=SynthSpec(n_patients=8, n_rois=8, n_timepoints=160),
        encoder=EncoderSettings(hidden1=10, hidden2=8, embed_dim=6),
        train=TrainSettings(batch_size=100, cgl_epochs=3, dgc_epochs=3),
        seeds=(0,),
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def encode(graph, params, settings):
    return _encode_t(prepare_view(graph), ad.make_leaves(params), settings).data.ravel()


def topk_pool(v, score_vec, ratio):
    gated, kept = _topk_pool_t(ad.Tensor(v[None]), ad.Tensor(np.reshape(score_vec, (-1, 1))), ratio)
    return gated.data[0], kept[0]


class TestChebyshevConv:
    def test_matches_dense_polynomial_oracle(self):
        rng = np.random.default_rng(0)
        for seed in range(8):
            graph = small_graph(seed, rois=6)
            lap = normalized_laplacian(graph)
            lt = lap.scaled.toarray()
            v = rng.standard_normal((6, graph.feature_dim))
            thetas = [rng.standard_normal((graph.feature_dim, 4)) for _ in range(3)]
            polys = [np.eye(6), lt, 2.0 * lt @ lt - np.eye(6)]
            oracle = sum(polys[k] @ v @ thetas[k] for k in range(3))
            assert np.abs(chebyshev_conv(v, lap, thetas) - oracle).max() < 1e-10

    def test_identity_filter(self):
        graph = small_graph(1)
        lap = normalized_laplacian(graph)
        f = graph.feature_dim
        v = np.random.default_rng(1).standard_normal((6, f))
        thetas = [np.eye(f), np.zeros((f, f)), np.zeros((f, f))]
        assert np.allclose(chebyshev_conv(v, lap, thetas), v)

    def test_edgeless_graph_sums_filters(self):
        graph = ViewGraph(node_features=np.zeros((5, 12)), weights=np.zeros((5, 5)))
        lap = normalized_laplacian(graph)
        rng = np.random.default_rng(2)
        v = rng.standard_normal((5, 12))
        thetas = [rng.standard_normal((12, 3)) for _ in range(3)]
        expected = v @ (thetas[0] + thetas[1] + thetas[2])
        assert np.abs(chebyshev_conv(v, lap, thetas) - expected).max() < 1e-12

    def test_empty_thetas_rejected(self):
        graph = small_graph(0)
        with pytest.raises(ValueError, match="at least one filter weight"):
            chebyshev_conv(np.zeros((6, graph.feature_dim)), normalized_laplacian(graph), [])

    @pytest.mark.parametrize("batch", [None, 3])
    def test_numpy_recursion_gives_numpy_matching_dense_polynomials(self, batch):
        rng = np.random.default_rng(4)
        graphs = [small_graph(seed, rois=6) for seed in range(batch or 1)]
        lt = np.stack([normalized_laplacian(g).scaled.toarray() for g in graphs])
        v = rng.standard_normal((len(graphs), 6, graphs[0].feature_dim))
        thetas = [rng.standard_normal((graphs[0].feature_dim, 4)) for _ in range(4)]
        # T_0..T_3 written out as polynomials, not by the recursion under test
        polys = [np.eye(6), lt, 2.0 * lt @ lt - np.eye(6), 4.0 * lt @ lt @ lt - 3.0 * lt]
        oracle = sum(polys[k] @ v @ thetas[k] for k in range(4))
        if batch is None:
            lt, v, oracle = lt[0], v[0], oracle[0]
        got = _chebyshev_t(v, lt, thetas)
        assert type(got) is np.ndarray
        assert np.abs(got - oracle).max() < 1e-10


class TestTopkPool:
    def test_keeps_highest_scores(self):
        graph = small_graph(3, rois=4)
        lap = normalized_laplacian(graph)
        v = np.diag([3.0, 1.0, 2.0, 0.0]) @ np.ones((4, 5))
        p = np.ones(5)
        pooled, kept = topk_pool(v, p, ratio=0.5)
        assert kept.tolist() == [0, 2]
        assert induced_laplacian(lap, kept).n_nodes == 2

    def test_full_ratio_keeps_all_but_gates(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((4, 5))
        p = rng.standard_normal(5)
        pooled, kept = topk_pool(v, p, ratio=1.0)
        assert kept.tolist() == [0, 1, 2, 3]
        scores = v @ (p / np.linalg.norm(p))
        assert np.allclose(pooled, v * np.tanh(scores)[:, None])

    def test_equal_scores_keep_lowest_indices(self):
        pooled, kept = topk_pool(np.ones((4, 3)), np.ones(3), ratio=0.5)
        assert kept.tolist() == [0, 1]


class TestEncode:
    def test_unit_norm_and_deterministic(self):
        graph = small_graph(7)
        settings = EncoderSettings(hidden1=9, hidden2=7, embed_dim=5)
        params = init_encoder_params(graph.feature_dim, settings, seed=0)
        a = encode(graph, params, settings)
        b = encode(graph, params, settings)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
        assert a.shape == (5,)

    def test_permutation_invariance(self):
        # relabelling nodes (rows and edge indices) must not move the embedding
        settings = EncoderSettings(hidden1=9, hidden2=7, embed_dim=5)
        g1 = small_graph(8, rois=7)
        params = init_encoder_params(g1.feature_dim, settings, seed=3)
        base = encode(g1, params, settings)
        for trial in range(3):
            perm = np.random.default_rng(trial).permutation(7)
            g2 = ViewGraph(node_features=g1.node_features[perm], weights=g1.weights[np.ix_(perm, perm)])
            permuted = encode(g2, params, settings)
            assert np.allclose(base, permuted, atol=1e-7)


class TestConcurrentEncode:
    def test_parallel_calls_match_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        settings = EncoderSettings(hidden1=9, hidden2=7, embed_dim=5)
        graphs = [small_graph(seed, rois=6) for seed in range(12)]
        params = init_encoder_params(graphs[0].feature_dim, settings, seed=0)
        serial = [encode(g, params, settings) for g in graphs]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda g: encode(g, params, settings), graphs))
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)


class TestSimilarityMatrix:
    def test_identical_rows_give_one(self):
        e = np.tile(np.array([[0.6, 0.8]]), (4, 1))
        m = similarity_matrix(e)
        assert np.allclose(m.values, 1.0)

    def test_orthogonal_rows_give_zero(self):
        e = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert similarity_matrix(e).values[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_known_angle(self):
        e = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert similarity_matrix(e).values[0, 1] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="zero-norm"):
            similarity_matrix(np.array([[0.0, 0.0], [1.0, 0.0]]))

    def test_pairing_layout(self):
        # rows 2i and 2i+1 are patient i's views: row r's partner is r ^ 1
        values = np.arange(36.0).reshape(6, 6)
        homo, heter = pair_split(values)
        assert homo.tolist() == [1.0, 6.0, 15.0, 20.0, 29.0, 34.0]
        assert heter.size == 36 - 6 - 6

    @pytest.mark.parametrize("rows", [0, 3])
    def test_odd_or_empty_row_count_rejected(self, rows):
        with pytest.raises(ValueError, match=rf"needs 2N rows \(two views per patient, N >= 1\), got {rows}$"):
            AttractionMatrix(values=np.eye(rows))


    @pytest.mark.parametrize(
        "entries, match",
        [
            pytest.param({(0, 1): np.nan}, "non-finite", id="nan-non-finite"),
            pytest.param({(0, 1): 1e-9}, "symmetric", id="1e-09-symmetric"),
            pytest.param({(0, 1): 0.5, (1, 0): 0.5 + 4e-6}, "symmetric", id="relative-asymmetry"),
            pytest.param({(1, 1): 1.0 + 4e-6}, "unit diagonal", id="relative-diagonal"),
            pytest.param({(1, 1): 1.0 - 4e-6}, "unit diagonal", id="relative-diagonal-below"),
        ],
    )
    def test_inherits_the_correlation_checks(self, entries, match):
        values = np.eye(2)
        for cell, value in entries.items():
            values[cell] = value
        with pytest.raises(ValueError, match=match):
            AttractionMatrix(values=values)


class TestPairSplit:
    @pytest.mark.parametrize("n_patients", [1, 2, 5])
    def test_matches_per_row_loop(self, n_patients):
        values = np.random.default_rng(n_patients).standard_normal((2 * n_patients, 2 * n_patients))
        homo, heter = [], []
        for row in range(2 * n_patients):
            partner = row + 1 if row % 2 == 0 else row - 1
            homo.append(values[row, partner])
            heter.extend(values[row, col] for col in range(2 * n_patients) if col not in (row, partner))
        got_homo, got_heter = pair_split(values)
        assert np.array_equal(got_homo, homo)
        assert np.array_equal(got_heter, np.array(heter).reshape(-1))

    @pytest.mark.parametrize("n_patients", [1, 4])
    def test_partner_is_the_homo_column(self, n_patients):
        two_n = 2 * n_patients
        homo, _ = pair_split(np.broadcast_to(np.arange(two_n), (two_n, two_n)))
        assert np.array_equal(pair_partner(two_n), homo)

    def test_one_patient_batches_record_zero_heter(self):
        cfg = tiny_config(train=TrainSettings(batch_size=1, cgl_epochs=2, dgc_epochs=1))
        cohort = split_cohort(synth_cohort(cfg.synth, 1), (0.7, 0.1, 0.2), 1)
        _, history = train_cgl(cohort, cfg, seed=0)
        assert [h["mean_heter"] for h in history] == [0.0, 0.0]


class TestContrastiveLoss:
    def test_single_patient_is_zero(self):
        m = similarity_matrix(np.array([[1.0, 0.0], [0.8, 0.6]]))
        assert contrastive_loss(m, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_identical_embeddings_log3(self):
        m = similarity_matrix(np.tile(np.array([[1.0, 0.0, 0.0]]), (4, 1)))
        assert contrastive_loss(m, 0.1) == pytest.approx(np.log(3.0), abs=1e-9)

    def test_separated_limit_vanishes(self):
        values = -np.ones((4, 4))
        for a, b in ((0, 1), (2, 3)):
            values[a, b] = values[b, a] = 1.0
        np.fill_diagonal(values, 1.0)
        m = AttractionMatrix(values=values)
        # denominator adds two cross terms of exp(-20): loss ~ 2e^-20
        assert contrastive_loss(m, 0.1) == pytest.approx(2.0 * np.exp(-20.0), rel=1e-6)

    def test_scale_invariance_through_cosine(self):
        rng = np.random.default_rng(11)
        e = rng.standard_normal((6, 4))
        base = contrastive_loss(similarity_matrix(e), 0.2)
        scaled = contrastive_loss(similarity_matrix(3.7 * e), 0.2)
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_tape_version_matches_numeric(self):
        rng = np.random.default_rng(12)
        e = rng.standard_normal((6, 5))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        loss_t, m_values = _contrastive_loss_t(ad.Tensor(e), 0.1)
        numeric = contrastive_loss(similarity_matrix(e), 0.1)
        assert loss_t.data.item() == pytest.approx(numeric, abs=1e-12)
        assert np.allclose(m_values, similarity_matrix(e).values, atol=1e-12)

    def test_tau_validation(self):
        m = similarity_matrix(np.eye(2))
        with pytest.raises(ValueError, match="tau"):
            contrastive_loss(m, 0.0)


class TestEncoderGradients:
    def test_full_loss_grad_check(self):
        cfg = tiny_config(synth=SynthSpec(n_patients=4, n_rois=8, n_timepoints=160))
        cohort = split_cohort(synth_cohort(cfg.synth, 2), (1.0, 0.0, 0.0), 0)
        prepared = prepare_views(cohort, cfg)
        params = init_encoder_params(prepared[0][0].features.shape[1], cfg.encoder, seed=0)

        def f(leaves):
            rows = []
            for views in prepared:
                rows.append(_encode_t(views[0], leaves, cfg.encoder))
                rows.append(_encode_t(views[1], leaves, cfg.encoder))
            loss, _ = _contrastive_loss_t(ad.concat(rows, axis=0), cfg.encoder.tau)
            return loss

        assert ad.grad_check(f, params, eps=1e-5, samples=30, seed=3) < 1e-4


class TestBatchTape:
    def test_tape_size_does_not_depend_on_batch_size(self):
        # one contrastive batch of 1 patient (B = 2 views) and of 84 (B = 168)
        cfg = tiny_config(synth=SynthSpec(n_patients=84, n_rois=8, n_timepoints=160))
        cohort = split_cohort(synth_cohort(cfg.synth, 6), (1.0, 0.0, 0.0), 6)
        prepared = prepare_views(cohort, cfg)
        params = init_encoder_params(prepared[0][0].features.shape[1], cfg.encoder, seed=0)
        counts = []
        for n_patients in (1, 84):
            views = [view for views in prepared[:n_patients] for view in views[:2]]
            emb = _encode_batch_t(views, ad.make_leaves(params), cfg.encoder)
            loss, _ = _contrastive_loss_t(emb, cfg.encoder.tau)
            counts.append(len(ad.Tape.trace(loss).nodes))
        assert counts[0] == counts[1]


def _zero_readout(params):
    params.values["readout"][:] = 0.0
    return params


class TestZeroNormEmbedding:
    def test_train_cgl_names_patient_and_view(self, monkeypatch):
        cfg = tiny_config()
        cohort = split_cohort(synth_cohort(cfg.synth, 1), (0.7, 0.1, 0.2), 1)
        init = encoder.init_encoder_params
        monkeypatch.setattr(encoder, "init_encoder_params", lambda *args: _zero_readout(init(*args)))
        train_idx = [i for i, p in enumerate(cohort.patients) if p.split == "train"]
        first = train_idx[np.random.default_rng([0, 1]).permutation(len(train_idx))[0]]
        expected = f"zero-norm embedding for patient {cohort.patients[first].id}, view 0"
        with pytest.raises(ValueError, match=re.escape(expected)):
            train_cgl(cohort, cfg, seed=0)

    def test_embed_cohort_names_patient_and_view(self):
        cfg = tiny_config()
        cohort = split_cohort(synth_cohort(cfg.synth, 1), (0.7, 0.1, 0.2), 1)
        prepared = prepare_views(cohort, cfg)
        params = _zero_readout(init_encoder_params(prepared[0][0].features.shape[1], cfg.encoder, seed=0))
        expected = f"zero-norm embedding for patient {cohort.patients[0].id}, view 0"
        with pytest.raises(ValueError, match=re.escape(expected)):
            encoder.embed_cohort(cohort, params, cfg, prepared=prepared)


class TestTapeFreeInference:
    def test_embed_cohort_equals_the_tape_path(self):
        cfg = tiny_config()
        cohort = split_cohort(synth_cohort(cfg.synth, 1), (0.7, 0.1, 0.2), 1)
        prepared = prepare_views(cohort, cfg)
        params = init_encoder_params(prepared[0][0].features.shape[1], cfg.encoder, seed=0)
        embedded = encoder.embed_cohort(cohort, params, cfg, prepared=prepared)
        for views, rows in zip(prepared, embedded):
            taped = _encode_batch_t(views, ad.make_leaves(params), cfg.encoder)
            assert np.array_equal(np.stack(rows), taped.data)

    def test_numpy_leaves_return_an_ndarray(self):
        cfg = tiny_config()
        views = prepare_views(split_cohort(synth_cohort(cfg.synth, 1), (0.7, 0.1, 0.2), 1), cfg)[0]
        params = init_encoder_params(views[0].features.shape[1], cfg.encoder, seed=0)
        assert type(_encode_batch_t(views, params.values, cfg.encoder)) is np.ndarray


class TestPreparedLength:
    def test_embed_cohort_rejects_short_prepared(self):
        cfg = tiny_config()
        cohort = split_cohort(synth_cohort(cfg.synth, 1), (0.7, 0.1, 0.2), 1)
        prepared = prepare_views(cohort, cfg)
        params = init_encoder_params(prepared[0][0].features.shape[1], cfg.encoder, seed=0)
        with pytest.raises(ValueError, match="prepared has 7 entries but the cohort has 8 patients"):
            encoder.embed_cohort(cohort, params, cfg, prepared=prepared[:-1])

    def test_train_cgl_rejects_long_prepared(self):
        cfg = tiny_config()
        cohort = split_cohort(synth_cohort(cfg.synth, 1), (0.7, 0.1, 0.2), 1)
        prepared = prepare_views(cohort, cfg)
        with pytest.raises(ValueError, match="prepared has 9 entries but the cohort has 8 patients"):
            train_cgl(cohort, cfg, seed=0, prepared=prepared + prepared[:1])


class TestTrainCgl:
    def test_zero_lr_constant_history(self):
        cfg = tiny_config(train=TrainSettings(cgl_epochs=3, dgc_epochs=1, cgl_lr=0.0))
        cohort = split_cohort(synth_cohort(cfg.synth, 1), (0.7, 0.1, 0.2), 1)
        _, history = train_cgl(cohort, cfg, seed=0)
        losses = [h["loss"] for h in history]
        assert losses[0] == pytest.approx(losses[-1], abs=1e-12)

    def test_deterministic_history(self):
        cfg = tiny_config()
        cohort = split_cohort(synth_cohort(cfg.synth, 1), (0.7, 0.1, 0.2), 1)
        _, h1 = train_cgl(cohort, cfg, seed=5)
        _, h2 = train_cgl(cohort, cfg, seed=5)
        assert h1 == h2

    def test_non_finite_loss_names_epoch_and_batch(self, monkeypatch):
        cfg = tiny_config(train=TrainSettings(batch_size=2, cgl_epochs=3, dgc_epochs=1))
        cohort = split_cohort(synth_cohort(cfg.synth, 1), (0.7, 0.1, 0.2), 1)
        n_batches = math.ceil(sum(p.split == "train" for p in cohort.patients) / 2)
        real = encoder._contrastive_loss_t
        calls = []

        def nan_at_second_batch_of_epoch_1(embeddings, tau):
            loss, m = real(embeddings, tau)
            calls.append(None)
            return (ad.mul(loss, np.nan) if len(calls) == n_batches + 2 else loss), m

        monkeypatch.setattr(encoder, "_contrastive_loss_t", nan_at_second_batch_of_epoch_1)
        with pytest.raises(ValueError, match=r"^non-finite contrastive loss at epoch 1, batch starting 2$"):
            train_cgl(cohort, cfg, seed=0)

    def test_needs_two_training_patients(self):
        cfg = tiny_config()
        cohort = synth_cohort(cfg.synth, 1)  # all unassigned
        with pytest.raises(ValueError, match="training patients"):
            train_cgl(cohort, cfg, seed=0)

    def test_more_than_two_views_samples_pairs(self):
        cfg = tiny_config(
            synth=SynthSpec(n_patients=6, n_rois=8, n_timepoints=200),
            n_views=3,
            min_window_length=20,
        )
        cohort = split_cohort(synth_cohort(cfg.synth, 4), (0.7, 0.1, 0.2), 4)
        _, h1 = train_cgl(cohort, cfg, seed=2)
        _, h2 = train_cgl(cohort, cfg, seed=2)
        assert h1 == h2
        assert all(np.isfinite(h["loss"]) for h in h1)

    def test_separable_cohort_separates(self):
        cfg = RunConfig(
            synth=SynthSpec(n_patients=40, n_rois=16, n_timepoints=240),
            encoder=EncoderSettings(hidden1=24, hidden2=24, embed_dim=16),
            train=TrainSettings(batch_size=100, cgl_epochs=50, dgc_epochs=1, cgl_lr=0.003),
            seeds=(0,),
        )
        cohort = split_cohort(synth_cohort(cfg.synth, 3), (0.7, 0.1, 0.2), 3)
        _, history = train_cgl(cohort, cfg, seed=3)
        last = history[-1]
        assert last["mean_homo"] - last["mean_heter"] >= 0.3
