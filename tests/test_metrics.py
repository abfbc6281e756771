import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgl.encoder import similarity_matrix
from ccgl.metrics import (
    attraction_stats,
    auc,
    confusion_metrics,
    export_population_graph,
    knn_baseline,
    write_attraction_csv,
)


def brute_force_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def parse_dot(text: str):
    """Minimal strict DOT reader: returns (nodes, edges) or raises."""
    lines = [l.strip() for l in text.strip().splitlines()]
    if lines[0] != "digraph population {" or lines[-1] != "}":
        raise ValueError("not a digraph block")
    node_re = re.compile(r'^(\w+) \[([^\]]*)\];$')
    edge_re = re.compile(r'^(\w+) -> (\w+) \[([^\]]*)\];$')
    nodes, edges = {}, []
    for line in lines[1:-1]:
        edge = edge_re.match(line)
        if edge:
            edges.append((edge.group(1), edge.group(2), edge.group(3)))
            continue
        node = node_re.match(line)
        if node:
            nodes[node.group(1)] = node.group(2)
            continue
        raise ValueError(f"unparseable DOT statement: {line!r}")
    for src, dst, _ in edges:
        if src not in nodes or dst not in nodes:
            raise ValueError(f"edge references unknown node: {src} -> {dst}")
    return nodes, edges


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_documented_example(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            auc([0.1, 0.2], [1, 1])

    @pytest.mark.parametrize("labels, message", [([0, 1, 2], "label 2 is 2,"), ([-1, 1, 0], "label 0 is -1,")])
    def test_label_outside_zero_one_rejected(self, labels, message):
        # a label 2 used to count as neither class and lift the score to 2.0
        with pytest.raises(ValueError, match=f"^{message} expected 0 or 1$"):
            auc([0.1, 0.9, 0.5], labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        # a NaN sorts after every finite score, so it used to be scored as the top rank
        with pytest.raises(ValueError, match="score 2 is not finite"):
            auc([0.1, 0.2, bad, 0.9], [0, 0, 1, 1])

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = 30
            scores = np.round(rng.uniform(0, 1, n), 2)  # induce ties
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auc(scores, labels) == brute_force_auc(scores, labels)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 999))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(20)
        labels = rng.integers(0, 2, 20)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        transformed = np.exp(2.0 * scores) + 5.0
        assert auc(scores, labels) == pytest.approx(auc(transformed, labels), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 999))
    def test_label_flip_complement(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(15)
        labels = rng.integers(0, 2, 15)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc(scores, labels) + auc(scores, 1 - labels) == pytest.approx(1.0, abs=1e-12)


class TestConfusionMetrics:
    def test_perfect(self):
        report = confusion_metrics([1, 0, 1, 0], [1, 0, 1, 0])
        assert (report.accuracy, report.sensitivity, report.specificity) == (1.0, 1.0, 1.0)

    def test_inverted(self):
        report = confusion_metrics([0, 1, 0, 1], [1, 0, 1, 0])
        assert (report.accuracy, report.sensitivity, report.specificity) == (0.0, 0.0, 0.0)

    def test_mixed_counts(self):
        report = confusion_metrics([1, 1, 0, 0], [1, 0, 0, 1])
        assert (report.tp, report.fp, report.tn, report.fn) == (1, 1, 1, 1)
        assert report.accuracy == 0.5
        assert report.sensitivity == 0.5
        assert report.specificity == 0.5

    def test_counts_sum_to_length(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 2, 37)
        labels = rng.integers(0, 2, 37)
        report = confusion_metrics(preds, labels)
        assert report.total == 37

    def test_undefined_rate_is_none(self):
        report = confusion_metrics([0, 0], [0, 0])
        assert report.sensitivity is None
        assert report.specificity == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            confusion_metrics([], [])

    @pytest.mark.parametrize(
        "preds, labels, message",
        [
            ([1, 0, 1], [0, 1, 2], "label 2 is 2,"),
            ([1, 0, 7], [0, 1, 1], "prediction 2 is 7,"),
            ([1, -1, 0], [0, 1, 0], "prediction 1 is -1,"),
            ([1, 0], [0.5, 1.0], "label 0 is 0.5,"),
        ],
    )
    def test_value_outside_zero_one_rejected(self, preds, labels, message):
        # a label 2 or a prediction 7 used to be counted as the negative class
        with pytest.raises(ValueError, match=f"^{message} expected 0 or 1$"):
            confusion_metrics(preds, labels)


class TestAttractionStats:
    def test_single_patient(self):
        m = similarity_matrix(np.array([[1.0, 0.0], [0.8, 0.6]]))
        summary = attraction_stats(m)
        assert summary.homo["count"] == 2
        assert summary.heter is None

    def test_identical_embeddings(self):
        m = similarity_matrix(np.tile(np.array([[1.0, 0.0]]), (4, 1)))
        summary = attraction_stats(m)
        assert summary.homo["mean"] == pytest.approx(1.0)
        assert summary.heter["mean"] == pytest.approx(1.0)
        assert summary.homo["std"] == pytest.approx(0.0)

    def test_histogram_has_fifty_bins(self):
        rng = np.random.default_rng(2)
        m = similarity_matrix(rng.standard_normal((10, 6)))
        summary = attraction_stats(m)
        assert len(summary.homo["histogram"]) == 50
        assert sum(summary.homo["histogram"]) == summary.homo["count"]

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(3)
        m = similarity_matrix(rng.standard_normal((6, 4)))
        summary = attraction_stats(m)
        values_path = tmp_path / "attraction.csv"
        hist_path = tmp_path / "hist.csv"
        write_attraction_csv(summary, values_path, hist_path)
        rows = values_path.read_text().splitlines()
        assert rows[0] == "pair_type,value"
        assert len(rows) == 1 + 6 + 6 * 4  # homo ordered pairs + heter ordered pairs
        hist_rows = hist_path.read_text().splitlines()
        assert hist_rows[0] == "pair_type,bin_left,bin_right,count"
        assert len(hist_rows) == 1 + 100


class TestExportPopulationGraph:
    def _features(self, seed=4, p=8):
        return np.random.default_rng(seed).standard_normal((p, 3))

    def test_dot_parses_with_two_out_edges(self, tmp_path):
        path = export_population_graph(self._features(), [0, 1] * 4, tmp_path / "g.dot", "dot")
        nodes, edges = parse_dot(path.read_text())
        assert len(nodes) == 8
        assert len(edges) == 16
        out_deg = {}
        for src, _, attrs in edges:
            out_deg[src] = out_deg.get(src, 0) + 1
            assert attrs.startswith("distance=")
        assert all(v == 2 for v in out_deg.values())

    def test_graphml_parses_with_networkx(self, tmp_path):
        import networkx as nx

        path = export_population_graph(
            self._features(5),
            [0, 1] * 4,
            tmp_path / "g.graphml",
            "graphml",
            ids=[f"p{i}" for i in range(8)],
            splits=["train"] * 8,
        )
        g = nx.read_graphml(path)
        assert g.number_of_nodes() == 8
        assert g.number_of_edges() == 16
        assert all(g.out_degree(n) == 2 for n in g.nodes)
        node = g.nodes["n0"]
        assert node["patient"] == "p0"
        assert node["label"] in (0, 1)
        assert all("distance" in g.edges[e] for e in g.edges)

    def test_dot_escapes_quotes_and_backslashes(self, tmp_path):
        path = export_population_graph(
            self._features(6, p=3),
            [0, 1, 0],
            tmp_path / "g.dot",
            "dot",
            ids=['a"b', "c\\d", "2"],
            splits=['t"x', "val", "test"],
        )
        lines = path.read_text().splitlines()
        assert lines[1] == '  n0 [id="a\\"b", label=0, split="t\\"x"];'
        assert lines[2] == '  n1 [id="c\\\\d", label=1, split="val"];'
        assert lines[3] == '  n2 [id="2", label=0, split="test"];'

    def test_three_patients_complete(self, tmp_path):
        path = export_population_graph(self._features(6, p=3), [0, 1, 0], tmp_path / "g.dot", "dot")
        _, edges = parse_dot(path.read_text())
        assert len(edges) == 6

    def test_min_patients(self, tmp_path):
        with pytest.raises(ValueError, match=">= 3"):
            export_population_graph(self._features(7, p=2), [0, 1], tmp_path / "g.dot", "dot")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            export_population_graph(self._features(), [0, 1] * 4, tmp_path / "g.x", "svg")

    @pytest.mark.parametrize("bad, shown", [(0.7, "0.7"), (2, "2"), (-1, "-1")])
    def test_labels_other_than_zero_and_one_are_refused(self, tmp_path, bad, shown):
        # int() would write 0.7 as label=0, and 2 or -1 as labels the DOT schema refuses
        labels = [0, 1, 0, bad, 1, 0, 1, 0]
        with pytest.raises(ValueError, match=rf"^label of node 3 is {shown}, expected 0 or 1$"):
            export_population_graph(self._features(), labels, tmp_path / "g.dot", "dot")
        assert not (tmp_path / "g.dot").exists()

    def test_clusters_keep_edges_within(self, tmp_path):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((10, 3)) * 0.1 + 10.0
        b = rng.standard_normal((10, 3)) * 0.1 - 10.0
        features = np.vstack([a, b])
        path = export_population_graph(features, [0] * 10 + [1] * 10, tmp_path / "g.dot", "dot")
        _, edges = parse_dot(path.read_text())
        same = sum((int(s[1:]) < 10) == (int(d[1:]) < 10) for s, d, _ in edges)
        assert same / len(edges) >= 0.9


class TestKnnBaseline:
    def test_exact_duplicate_takes_neighbour_label(self):
        train = np.array([[0.0, 0.0], [5.0, 5.0]])
        scores, preds = knn_baseline(train, np.array([1, 0]), np.array([[0.0, 0.0]]), k=1)
        assert scores[0] == 1.0 and preds[0] == 1

    def test_full_k_gives_base_rate(self):
        rng = np.random.default_rng(9)
        train = rng.standard_normal((10, 4))
        labels = np.array([1, 0, 1, 0, 1, 0, 1, 0, 1, 1])
        scores, _ = knn_baseline(train, labels, rng.standard_normal((5, 4)), k=10)
        assert np.allclose(scores, labels.mean())

    def test_matches_exhaustive_count(self):
        train = np.array([[0.0, 0], [0.1, 0], [5.0, 5], [5.1, 5]])
        labels = np.array([0, 0, 1, 1])
        test = np.array([[0.05, 0.0], [5.05, 5.0]])
        scores, preds = knn_baseline(train, labels, test, k=3)
        assert scores.tolist() == [1.0 / 3.0, 2.0 / 3.0]
        assert preds.tolist() == [0, 1]

    def test_tie_goes_to_disorder_class(self):
        train = np.array([[0.0], [1.0]])
        scores, preds = knn_baseline(train, np.array([0, 1]), np.array([[0.5]]), k=2)
        assert scores[0] == 0.5 and preds[0] == 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_all_nan_training_row_names_the_patient(self, k):
        train = np.random.default_rng(5).standard_normal((6, 3))
        train[3] = np.nan
        with pytest.raises(ValueError, match="training patient 3 has non-finite features"):
            knn_baseline(train, np.array([0, 1, 0, 1, 0, 1]), np.zeros((2, 3)), k=k)

    def test_single_inf_test_entry_names_the_patient(self):
        test = np.zeros((3, 2))
        test[1, 0] = -np.inf
        with pytest.raises(ValueError, match="test patient 1 has non-finite features"):
            knn_baseline(np.eye(2), np.array([0, 1]), test, k=1)

    @pytest.mark.parametrize("n_labels", [9, 12])
    def test_wrong_label_count_rejected(self, n_labels):
        # 9 or 12 labels for 10 rows used to return scores without complaint
        train = np.arange(10.0)[:, None]
        with pytest.raises(ValueError, match=f"^{n_labels} training labels for 10 training patients$"):
            knn_baseline(train, np.arange(n_labels) % 2, np.array([[2.0], [7.0]]), k=3)

    def test_test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"test features of shape \(2, 2\) for 3 training feature columns"):
            knn_baseline(np.eye(3), np.array([0, 1, 0]), np.zeros((2, 2)), k=1)

    @pytest.mark.parametrize("labels, message", [([0, 2], "training label 1 is 2,"), ([-1, 1], "training label 0 is -1,")])
    def test_label_outside_zero_one_rejected(self, labels, message):
        # labels [0, 2] used to score the test point 2.0
        with pytest.raises(ValueError, match=f"^{message} expected 0 or 1$"):
            knn_baseline(np.array([[0.0], [1.0]]), np.array(labels), np.array([[0.9]]), k=1)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError, match="empty training"):
            knn_baseline(np.zeros((0, 2)), np.array([]), np.zeros((1, 2)), k=1)
