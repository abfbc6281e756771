import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccgl.cohort import (
    ENTRY_FIELDS,
    MIN_WINDOW_LENGTH,
    VALID_SPLITS,
    Cohort,
    ConfigError,
    PatientRecord,
    RoiTimeSeries,
    SynthSpec,
    load_cohort,
    load_snapshot,
    save_snapshot,
    slice_views,
    split_cohort,
    standardized_pcd,
    synth_cohort,
)
from ccgl.cohort import _apportion, _subtype_precision_templates


class TestLoadCohort:
    def test_loads_two_patients(self, manifest_dir):
        cohort = load_cohort(manifest_dir / "manifest.json")
        assert len(cohort) == 2
        assert cohort.roi_count == 16
        assert cohort.patients[0].series.values.shape == (200, 16)

    def test_series_shorter_than_the_views_need_is_refused(self, manifest_dir):
        where = re.escape(f"manifest {manifest_dir / 'manifest.json'}: patient 'p0' (entry 0)")
        with pytest.raises(ValueError, match=rf"^{where}: series has 200 timepoints, needs >= 201$"):
            load_cohort(manifest_dir / "manifest.json", min_timepoints=201)
        assert len(load_cohort(manifest_dir / "manifest.json", min_timepoints=200)) == 2

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"roi_count": 4, "patients": []}))
        with pytest.raises(ValueError, match="empty cohort"):
            load_cohort(manifest)

    @pytest.mark.parametrize("top", ['"x"', "5", "null", "[]"])
    def test_top_level_must_be_an_object(self, tmp_path, top):
        manifest = tmp_path / "m.json"
        manifest.write_text(top)
        with pytest.raises(ValueError, match=rf"manifest {re.escape(str(manifest))}: top level must be a JSON object"):
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
            ([1.0, 2.0, 3.0, 10**400, 5.0, 6.0, 7.0], r"field 'pcd' item 3 must be a finite number, got 10{400}$"),
        ],
        ids=["scalar", "string_entry", "boolean_entry", "huge_int_entry"],
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

    @pytest.mark.parametrize(
        "patients, named",
        [
            ({"p0": {}}, r"field 'patients' must be a JSON list, got \{'p0': \{\}\}"),
            (["p0"], r"manifest .*manifest\.json: entry 0: must be a JSON object, got 'p0'"),
        ],
        ids=["object", "string_entry"],
    )
    def test_patients_must_be_a_list_of_objects(self, manifest_dir, patients, named):
        manifest = manifest_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["patients"] = patients
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=named):
            load_cohort(manifest)

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("id", 3, r"manifest .*manifest\.json: patient 3 \(entry 1\): field 'id' must be a JSON string, got 3"),
            ("site", 3, r"patient 'p1' \(entry 1\): field 'site' must be a JSON string, got 3"),
            ("site", None, r"patient 'p1' \(entry 1\): field 'site' must be a JSON string, got None"),
            ("csv", ["p1.csv"], r"patient 'p1' \(entry 1\): field 'csv' must be a JSON string, got \['p1.csv'\]"),
        ],
        ids=["numeric_id", "numeric_site", "null_site", "list_csv"],
    )
    def test_id_csv_and_site_must_be_strings(self, manifest_dir, field, value, named):
        manifest = manifest_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["patients"][1][field] = value
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=named):
            load_cohort(manifest)

    def test_missing_field_named(self, manifest_dir):
        manifest = manifest_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["patients"][1]["site"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"p1.*missing field 'site'"):
            load_cohort(manifest)


@pytest.fixture(scope="module")
def entry_files(tmp_path_factory):
    """(directory, {source: document}) of a four-patient cohort saved as a CSV manifest and as a snapshot."""
    root = tmp_path_factory.mktemp("entries")
    cohort = synth_cohort(SynthSpec(n_patients=4, n_rois=4, n_timepoints=6), 0)
    entries = []
    for p in cohort.patients:
        (root / f"{p.id}.csv").write_text("\n".join(",".join(map(repr, row)) for row in p.series.values.tolist()))
        entries.append({"id": p.id, "csv": f"{p.id}.csv", "pcd": p.pcd.tolist(), "label": p.label, "site": p.site})
    save_snapshot(cohort, root)
    snapshot = json.loads((root / "cohort.json").read_text())
    return root, {"manifest": {"roi_count": cohort.roi_count, "patients": entries}, "snapshot": snapshot}


def load_mutated(root, source, doc):
    """The cohort loaded after writing ``doc`` as the source's JSON file."""
    (root / FILES[source]).write_text(json.dumps(doc))
    return load_cohort(root / FILES[source], min_timepoints=2) if source == "manifest" else load_snapshot(root)


FILES = {"manifest": "manifest.json", "snapshot": "cohort.json"}
SOURCE_KEYS = {"manifest": ("id", "csv", "pcd", "label", "site"), "snapshot": ENTRY_FIELDS}
# a bool, a float, a string, None, a list and an object
ODD_VALUES = (True, 1.5, "1", None, [1.0], {"a": 1})


@st.composite
def mutations(draw, source):
    """(key, value) for one entry; value None with key prefixed by "-" deletes the key."""
    keys = SOURCE_KEYS[source]
    return draw(
        st.one_of(
            st.sampled_from(keys).map(lambda key: ("-" + key, None)),
            st.tuples(st.sampled_from(keys), st.sampled_from(ODD_VALUES)),
            st.tuples(st.just("pcd"), st.lists(st.just(1.0), max_size=9).filter(lambda pcd: len(pcd) != 7)),
            st.tuples(
                st.just("pcd"),
                st.tuples(st.integers(0, 6), st.sampled_from([math.nan, math.inf, -math.inf])).map(
                    lambda bad: [bad[1] if k == bad[0] else 1.0 for k in range(7)]
                ),
            ),
            st.tuples(st.just("split"), st.text(max_size=6)),
            st.tuples(st.just("id"), st.text(max_size=6)),
        )
    )


class TestEntryOwners:
    """PatientRecord and Cohort own the entry rule for the manifest, the snapshot and Python callers alike."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), source=st.sampled_from(["manifest", "snapshot"]), pos=st.integers(0, 3))
    def test_a_mutated_entry_is_refused_with_file_entry_and_field(self, entry_files, data, source, pos):
        root, docs = entry_files
        key, value = data.draw(mutations(source))
        doc = json.loads(json.dumps(docs[source]))
        entry = doc["patients"][pos]
        if key.startswith("-"):
            key = key[1:]
            del entry[key]
            legal = False
        else:
            others = [e["id"] for e in doc["patients"] if e is not entry]
            unchanged = key in entry and type(entry[key]) is type(value) and entry[key] == value
            legal = unchanged or {
                "site": isinstance(value, str),
                "id": source == "manifest" and isinstance(value, str) and value not in others,
                "split": source == "manifest" or value in VALID_SPLITS,  # the manifest ignores a split key
            }.get(key, False)
            entry[key] = value
        try:
            cohort = load_mutated(root, source, doc)
        except ValueError as exc:
            message = str(exc)
            assert not legal, message
            kind = "manifest" if source == "manifest" else "cohort snapshot"
            assert message.startswith(f"{kind} {root / FILES[source]}: "), message
            assert re.search(rf"\bentr(y|ies)\b[^:]*\b{pos}\b", message), message
            assert re.search(rf"\b{key}\b", message), message
        else:
            assert legal, (key, value)
            if key in ("id", "site"):
                assert getattr(cohort.patients[pos], key) == value
            if source == "manifest":
                assert all(p.split == "unassigned" for p in cohort.patients)

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("label", "1", r"field 'label' must be the integer 0 or 1, got '1'"),
            ("label", True, r"field 'label' must be the integer 0 or 1, got True"),
            ("id", "zz", r"field 'id' names no array in .*series\.npz"),
            ("site", None, r"field 'site' must be a JSON string, got None"),
        ],
    )
    def test_snapshot_entry_is_not_coerced(self, entry_files, key, value, named):
        root, docs = entry_files
        doc = json.loads(json.dumps(docs["snapshot"]))
        doc["patients"][2][key] = value
        where = re.escape(f"cohort snapshot {root / 'cohort.json'}: patient {doc['patients'][2]['id']!r} (entry 2)")
        with pytest.raises(ValueError, match=rf"^{where}: {named}$"):
            load_mutated(root, "snapshot", doc)

    def test_snapshot_without_a_site_names_it(self, entry_files):
        root, docs = entry_files
        doc = json.loads(json.dumps(docs["snapshot"]))
        del doc["patients"][1]["site"]
        with pytest.raises(ValueError, match=r"cohort\.json: patient 'p1' \(entry 1\): missing field 'site'$"):
            load_mutated(root, "snapshot", doc)

    @pytest.mark.parametrize(
        "field, value",
        [("label", True), ("label", 1.0), ("pcd", ["1"] * 7), ("pcd", [True] * 7), ("id", 5), ("site", 3)],
    )
    def test_python_built_record_is_held_to_the_entry_rule(self, field, value):
        fields = dict(id="p0", series=RoiTimeSeries(np.eye(3)), pcd=np.zeros(7), label=0, site="s")
        with pytest.raises(ValueError, match=rf"^field '{field}'"):
            PatientRecord(**{**fields, field: value})

    def test_numpy_values_are_stored_as_builtins(self):
        series = RoiTimeSeries(np.eye(3))
        record = PatientRecord(id="p0", series=series, pcd=np.arange(7, dtype=np.int32), label=np.int64(1), site="s")
        assert type(record.label) is int and record.pcd.dtype == np.float64
        assert type(Cohort(patients=[record], roi_count=np.int64(3)).roi_count) is int

    def test_duplicate_id_names_both_entries(self, small_cohort):
        patients = [*small_cohort.patients[:3], small_cohort.patients[1]]
        with pytest.raises(ValueError, match=rf"^duplicate patient id {small_cohort.patients[1].id!r} \(entries 1 and 3\)$"):
            Cohort(patients=patients, roi_count=small_cohort.roi_count)

    def test_roi_count_is_checked_before_any_csv_is_read(self, manifest_dir):
        manifest = manifest_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["roi_count"] = 1
        manifest.write_text(json.dumps(doc))
        (manifest_dir / "p0.csv").write_text("not,a,series\n")
        with pytest.raises(ValueError, match=r"manifest\.json: field 'roi_count' must be an integer >= 2, got 1$"):
            load_cohort(manifest)

    @pytest.mark.parametrize("roi_count", [True, 8.0, "8", 1])
    def test_roi_count_is_an_integer_of_at_least_two(self, small_cohort, roi_count):
        rule = re.escape(f"field 'roi_count' must be an integer >= 2, got {roi_count!r}")
        with pytest.raises(ValueError, match=rf"^{rule}$"):
            Cohort(patients=small_cohort.patients, roi_count=roi_count)


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

    def test_too_few_rois_for_every_subtype_to_own_a_pair_is_refused(self):
        # 3 rois give 3 pairs, one of them shared, which leaves 2 for 4 subtypes
        with pytest.raises(ConfigError, match=r"^n_rois: must be >= 4 so that each of 4 subtypes owns a pair, got 3$"):
            SynthSpec(n_patients=8, n_rois=3, n_timepoints=100)
        with pytest.raises(ConfigError, match=r"^n_rois: must be >= 5 so that each of 6 subtypes owns a pair, got 4$"):
            SynthSpec(n_patients=8, n_rois=4, n_timepoints=100, subtypes_per_class=(3, 3))

    @settings(max_examples=60, deadline=None)
    @given(n_rois=st.integers(2, 12), counts=st.tuples(st.integers(1, 6), st.integers(1, 6)), seed=st.integers(0, 99))
    def test_a_spec_is_accepted_iff_its_subtype_templates_all_differ(self, n_rois, counts, seed):
        templates = list(_subtype_precision_templates(np.random.default_rng(seed), n_rois, counts).values())
        distinct = all(not np.array_equal(a, b) for k, a in enumerate(templates) for b in templates[k + 1 :])
        try:
            SynthSpec(n_patients=8, n_rois=n_rois, n_timepoints=100, subtypes_per_class=counts)
        except ConfigError as exc:
            assert not distinct and exc.path == "n_rois"
        else:
            assert distinct


# seed -> (sha256 of the stacked pcd, last value of the last ROI of patients
# 0, 1, P-2 and P-1) of synth_cohort for the desk and atlas specs. The pcd
# entries come straight from the draws and are pinned exactly; a series value
# also passes through a matrix inverse and a Cholesky factor, whose last bits
# depend on the BLAS build and thread count, so it is compared to 1e-9. The
# draw order is part of the contract: a change that moves it on purpose
# updates these and says why in CHANGES.md
GOLDEN_COHORTS = {
    ("desk", 0): (
        "ce0df9f79e6d302ab426734f79aabe6f16e90f04e0af9230dc8c84ef180b7a50",
        [-1.8691132996159092, -0.5780004504083925, 0.024531863456651204, -1.205191360272322],
    ),
    ("desk", 97): (
        "f98eb82b30e8750fe28ef8d1ec90ae077310cd134de025fbc4457997a1d8445e",
        [1.6082280289674522, 0.5890468446622596, 3.3117304473540266, 1.2291628765978797],
    ),
    ("atlas", 0): (
        "4e1c30ca91ebc25d5b8267a216a66a66a825184bcbaf2374283e4230cfe73baa",
        [-1.4962675602895075, 0.2199773622163015, -0.6338082823646433, -0.6019535391674138],
    ),
    ("atlas", 97): (
        "17f4f5277ae079405b9d919622f37c6fd8ca917d964e72f102190f00634c24e1",
        [-1.2519684761600827, 0.526905249802733, -0.5450399405563114, -0.21981706779260696],
    ),
}
GOLDEN_SPECS = {"desk": SynthSpec(120, 16, 400), "atlas": SynthSpec(40, 116, 400)}


@pytest.mark.parametrize("name, seed", sorted(GOLDEN_COHORTS))
def test_synth_cohort_is_pinned_for_the_desk_and_atlas_specs(name, seed):
    patients = synth_cohort(GOLDEN_SPECS[name], seed).patients
    pcd_digest, series_values = GOLDEN_COHORTS[name, seed]
    assert hashlib.sha256(np.stack([p.pcd for p in patients]).tobytes()).hexdigest() == pcd_digest
    last = [patients[k].series.values[-1, -1] for k in (0, 1, -2, -1)]
    np.testing.assert_allclose(last, series_values, rtol=1e-9, atol=1e-12)


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

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(0, 40), min_size=1, max_size=8),
        train=st.floats(1e-3, 1.0),
        val_share=st.floats(0.0, 1.0),
    )
    def test_apportion_gives_every_nonempty_cell_a_training_seat(self, sizes, train, val_share):
        # split_cohort chains the carry from cell to cell, as here
        val = (1.0 - train) * val_share
        ratios = np.array([train, val, 1.0 - train - val])
        carry = np.zeros(3)
        for n in sizes:
            counts, carry = _apportion(n, ratios, carry)
            assert min(counts) >= 0 and sum(counts) == n
            assert counts[0] >= 1 or n == 0

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
