import json

import numpy as np
import pytest

from ccgl.cohort import (
    MIN_WINDOW_LENGTH,
    RoiTimeSeries,
    SynthSpec,
    load_cohort,
    slice_views,
    split_cohort,
    standardized_pcd,
    synth_cohort,
)


class TestLoadCohort:
    def test_loads_two_patients(self, manifest_dir):
        cohort = load_cohort(manifest_dir / "manifest.json")
        assert len(cohort) == 2
        assert cohort.roi_count == 16
        assert cohort.patients[0].series.values.shape == (200, 16)

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"roi_count": 4, "patients": []}))
        with pytest.raises(ValueError, match="empty cohort"):
            load_cohort(manifest)

    def test_nan_reported_with_position(self, manifest_dir):
        csv = manifest_dir / "p1.csv"
        lines = csv.read_text().splitlines()
        cells = lines[3].split(",")
        cells[5] = "NaN"
        lines[3] = ",".join(cells)
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"p1.*row 4 column 5"):
            load_cohort(manifest_dir / "manifest.json")

    def test_ragged_row_reported(self, manifest_dir):
        csv = manifest_dir / "p0.csv"
        lines = csv.read_text().splitlines()
        lines[10] = lines[10] + ",0.5"
        csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"p0.*row 11 has 17 values"):
            load_cohort(manifest_dir / "manifest.json")

    def test_bad_pcd_length(self, manifest_dir):
        manifest = manifest_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["patients"][1]["pcd"] = [1.0, 2.0]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"p1.*pcd has length 2"):
            load_cohort(manifest)

    @pytest.mark.parametrize(
        "pcd, named",
        [
            (5, r"field 'pcd' must be a list of 7 numbers, got 5"),
            ([1.0, 2.0, "a", 4.0, 5.0, 6.0, 7.0], r"field 'pcd' item 2 must be a finite number, got 'a'"),
            ([True, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], r"field 'pcd' item 0 must be a finite number, got True"),
        ],
        ids=["scalar", "string_entry", "boolean_entry"],
    )
    def test_pcd_must_be_finite_numbers(self, manifest_dir, pcd, named):
        manifest = manifest_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["patients"][1]["pcd"] = pcd
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"patient 'p1' \(entry 1\): " + named):
            load_cohort(manifest)

    def test_duplicate_id(self, manifest_dir):
        manifest = manifest_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["patients"][1]["id"] = "p0"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="duplicate patient id"):
            load_cohort(manifest)

    def test_missing_csv(self, manifest_dir):
        (manifest_dir / "p0.csv").unlink()
        with pytest.raises(ValueError, match="csv not found"):
            load_cohort(manifest_dir / "manifest.json")

    @pytest.mark.parametrize("label", [1.9, True, "1", 1.0, 2])
    def test_label_must_be_integer_0_or_1(self, manifest_dir, label):
        manifest = manifest_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["patients"][1]["label"] = label
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"patient 'p1' \(entry 1\): field 'label' must be the integer 0 or 1"):
            load_cohort(manifest)

    @pytest.mark.parametrize("roi_count", [4.7, True, "16", 16.0, 1])
    def test_roi_count_must_be_integer(self, manifest_dir, roi_count):
        manifest = manifest_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["roi_count"] = roi_count
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"field 'roi_count' must be an integer >= 2"):
            load_cohort(manifest)

    def test_missing_field_named(self, manifest_dir):
        manifest = manifest_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["patients"][1]["site"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"p1.*missing field 'site'"):
            load_cohort(manifest)


class TestSliceViews:
    def test_even_split(self):
        series = RoiTimeSeries(np.arange(200.0 * 4).reshape(200, 4))
        views = slice_views(series, 2)
        assert [v.values.shape for v in views] == [(100, 4), (100, 4)]
        assert np.array_equal(views[0].values, series.values[:100])
        assert np.array_equal(views[1].values, series.values[100:200])

    def test_remainder_discarded(self):
        series = RoiTimeSeries(np.random.default_rng(0).standard_normal((201, 3)))
        views = slice_views(series, 2)
        assert all(v.values.shape == (100, 3) for v in views)
        assert np.array_equal(views[1].values, series.values[100:200])

    def test_window_too_short(self):
        series = RoiTimeSeries(np.random.default_rng(0).standard_normal((50, 3)))
        with pytest.raises(ValueError, match="window too short"):
            slice_views(series, 2, min_window_length=30)

    def test_views_cover_disjoint_prefix(self):
        rng = np.random.default_rng(5)
        series = RoiTimeSeries(rng.standard_normal((127, 5)))
        views = slice_views(series, 3, min_window_length=10)
        window = 127 // 3
        stacked = np.vstack([v.values for v in views])
        assert np.array_equal(stacked, series.values[: 3 * window])


class TestSynthCohort:
    def test_deterministic(self):
        spec = SynthSpec(n_patients=4, n_rois=8, n_timepoints=200)
        a = synth_cohort(spec, 7)
        b = synth_cohort(spec, 7)
        for pa, pb in zip(a.patients, b.patients):
            assert pa.id == pb.id and pa.label == pb.label and pa.site == pb.site
            assert np.array_equal(pa.series.values, pb.series.values)
            assert np.array_equal(pa.pcd, pb.pcd)

    def test_zero_noise_recovers_template_correlation(self):
        # Monte-Carlo check against the generating template at T=5000
        spec = SynthSpec(
            n_patients=4,
            n_rois=6,
            n_timepoints=5000,
            subtypes_per_class=(1, 1),
            noise_level=0.0,
        )
        cohort = synth_cohort(spec, 3)
        by_label = {0: [], 1: []}
        for p in cohort.patients:
            by_label[p.label].append(np.corrcoef(p.series.values.T))
        for label, mats in by_label.items():
            same = np.abs(mats[0] - mats[1]).max()
            assert same < 0.1, f"class {label} patients disagree by {same}"

    def test_subtypes_partition_class(self):
        spec = SynthSpec(
            n_patients=16,
            n_rois=8,
            n_timepoints=2000,
            subtypes_per_class=(2, 1),
            noise_level=0.0,
        )
        cohort = synth_cohort(spec, 9)
        class0 = [p for p in cohort.patients if p.label == 0]
        fc = [np.corrcoef(p.series.values.T) for p in class0]
        # generation alternates subtypes within the class
        groups = [fc[0::2], fc[1::2]]
        within, between = [], []
        for g in range(2):
            for i in range(len(groups[g])):
                for j in range(i + 1, len(groups[g])):
                    within.append(np.linalg.norm(groups[g][i] - groups[g][j]))
        for a in groups[0]:
            for b in groups[1]:
                between.append(np.linalg.norm(a - b))
        assert np.mean(within) < np.mean(between)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_patients"):
            SynthSpec(n_patients=3, n_rois=8, n_timepoints=100)
        with pytest.raises(ValueError, match="n_rois"):
            SynthSpec(n_patients=8, n_rois=1, n_timepoints=100)
        with pytest.raises(ValueError, match="ratio"):
            SynthSpec(n_patients=8, n_rois=4, n_timepoints=100, class_ratio=1.0)


class TestSplitCohort:
    def test_ten_patients_single_site(self):
        spec = SynthSpec(n_patients=10, n_rois=4, n_timepoints=80, n_sites=1, class_ratio=0.5)
        cohort = synth_cohort(spec, 0)
        out = split_cohort(cohort, (0.7, 0.1, 0.2), 0)
        counts = {s: sum(p.split == s for p in out.patients) for s in ("train", "val", "test")}
        assert (counts["train"], counts["val"], counts["test"]) == (7, 1, 2)

    def test_balanced_cells_of_ten(self):
        spec = SynthSpec(n_patients=40, n_rois=4, n_timepoints=80, n_sites=2, class_ratio=0.5)
        cohort = synth_cohort(spec, 1)
        out = split_cohort(cohort, (0.7, 0.1, 0.2), 5)
        for site in ("site0", "site1"):
            for label in (0, 1):
                cell = [p for p in out.patients if p.site == site and p.label == label]
                assert len(cell) == 10
                counts = {s: sum(p.split == s for p in cell) for s in ("train", "val", "test")}
                assert (counts["train"], counts["val"], counts["test"]) == (7, 1, 2)

    def test_all_train_ratio(self, small_cohort):
        out = split_cohort(small_cohort, (1.0, 0.0, 0.0), 3)
        assert all(p.split == "train" for p in out.patients)

    def test_deterministic(self, small_cohort):
        a = split_cohort(small_cohort, (0.7, 0.1, 0.2), 21)
        b = split_cohort(small_cohort, (0.7, 0.1, 0.2), 21)
        assert [p.split for p in a.patients] == [p.split for p in b.patients]

    def test_label_ratio_preserved(self):
        spec = SynthSpec(n_patients=60, n_rois=4, n_timepoints=80, n_sites=1, class_ratio=0.5)
        cohort = synth_cohort(spec, 2)
        out = split_cohort(cohort, (0.7, 0.1, 0.2), 7)
        overall = np.mean([p.label for p in out.patients])
        for split in ("train", "test"):
            group = [p.label for p in out.patients if p.split == split]
            assert abs(np.mean(group) - overall) <= 1.0 / 30

    def test_every_cell_contributes_train(self):
        spec = SynthSpec(n_patients=12, n_rois=4, n_timepoints=80, n_sites=3)
        cohort = synth_cohort(spec, 4)
        out = split_cohort(cohort, (0.2, 0.3, 0.5), 1)
        cells = {}
        for p in out.patients:
            cells.setdefault((p.site, p.label), []).append(p.split)
        for cell, splits in cells.items():
            assert "train" in splits, f"cell {cell} has no train patient"

    def test_invalid_ratios(self, small_cohort):
        with pytest.raises(ValueError, match="sum to 1"):
            split_cohort(small_cohort, (0.5, 0.1, 0.2), 0)
        with pytest.raises(ValueError, match="train ratio"):
            split_cohort(small_cohort, (0.0, 0.5, 0.5), 0)


def test_series_invariants():
    with pytest.raises(ValueError, match="2-D"):
        RoiTimeSeries(np.zeros(5))
    with pytest.raises(ValueError, match="non-finite"):
        RoiTimeSeries(np.array([[1.0, np.inf], [0.0, 1.0]]))
    assert RoiTimeSeries(np.zeros((60, 3)) + np.eye(60, 3)).n_rois == 3


def test_standardized_pcd_uses_train_stats(small_cohort):
    z = standardized_pcd(small_cohort)
    train_rows = [i for i, p in enumerate(small_cohort.patients) if p.split == "train"]
    train_z = z[train_rows]
    assert np.allclose(train_z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(train_z.std(axis=0), 1.0, atol=1e-12)


def test_min_window_guard_constant():
    assert MIN_WINDOW_LENGTH == 30
