"""Cohort ingestion, synthesis, view slicing, and split assignment.

A cohort is an ordered collection of patients, each carrying a multi-ROI
time series, a 7-entry vector of personal characteristics, a binary label,
a site tag, and a split role. Views are non-overlapping temporal windows
of a patient's series.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

MIN_WINDOW_LENGTH = 30
PCD_SIZE = 7
VALID_SPLITS = ("train", "val", "test", "unassigned")

# synthetic generator knobs: disorder shift of the IQ-like pcd entries, the
# per-patient spread of the observation-noise scale around noise_level, and
# the size of each patient's private precision perturbation
PCD_IQ_SHIFT = -4.0
NOISE_JITTER = (0.9, 1.1)
PATIENT_FC_JITTER = 0.10


@dataclass(frozen=True)
class RoiTimeSeries:
    """A T x R matrix of per-ROI signal values, one row per timepoint."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"time series must be 2-D, got ndim={arr.ndim}")
        if arr.shape[0] < 2 or arr.shape[1] < 2:
            raise ValueError(f"time series needs >= 2 timepoints and >= 2 rois, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            bad = np.argwhere(~np.isfinite(arr))[0]
            raise ValueError(f"non-finite value at row {bad[0]} column {bad[1]}")
        object.__setattr__(self, "values", arr)

    @property
    def n_timepoints(self) -> int:
        return self.values.shape[0]

    @property
    def n_rois(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PatientRecord:
    id: str
    series: RoiTimeSeries
    pcd: np.ndarray
    label: int
    site: str
    split: str = "unassigned"

    def __post_init__(self):
        pcd = np.asarray(self.pcd, dtype=np.float64)
        if pcd.shape != (PCD_SIZE,):
            raise ValueError(f"patient {self.id!r}: pcd must have length {PCD_SIZE}, got {pcd.shape}")
        if not np.all(np.isfinite(pcd)):
            raise ValueError(f"patient {self.id!r}: non-finite pcd value")
        if self.label not in (0, 1):
            raise ValueError(f"patient {self.id!r}: label must be 0 or 1, got {self.label}")
        if self.split not in VALID_SPLITS:
            raise ValueError(f"patient {self.id!r}: unknown split {self.split!r}")
        object.__setattr__(self, "pcd", pcd)


@dataclass(frozen=True)
class Cohort:
    patients: tuple
    roi_count: int

    def __post_init__(self):
        object.__setattr__(self, "patients", tuple(self.patients))
        if len(self.patients) == 0:
            raise ValueError("empty cohort")
        ids = [p.id for p in self.patients]
        if len(set(ids)) != len(ids):
            dup = next(i for i in ids if ids.count(i) > 1)
            raise ValueError(f"duplicate patient id {dup!r}")
        for p in self.patients:
            if p.series.n_rois != self.roi_count:
                raise ValueError(
                    f"patient {p.id!r}: has {p.series.n_rois} rois, cohort expects {self.roi_count}"
                )

    def __len__(self) -> int:
        return len(self.patients)

    def subset(self, split: str) -> list:
        return [p for p in self.patients if p.split == split]

    def labels(self) -> np.ndarray:
        return np.array([p.label for p in self.patients], dtype=np.int64)


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic cohort generator."""

    n_patients: int
    n_rois: int
    n_timepoints: int
    n_sites: int = 3
    class_ratio: float = 0.5
    subtypes_per_class: tuple = (2, 2)
    noise_level: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "subtypes_per_class", tuple(int(s) for s in self.subtypes_per_class))
        if self.n_patients < 4:
            raise ValueError(f"n_patients must be >= 4, got {self.n_patients}")
        if self.n_rois < 2:
            raise ValueError(f"n_rois must be >= 2, got {self.n_rois}")
        if not (0.0 < self.class_ratio < 1.0):
            raise ValueError(f"invalid class ratio {self.class_ratio}, need 0 < ratio < 1")
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if len(self.subtypes_per_class) != 2 or any(s < 1 for s in self.subtypes_per_class):
            raise ValueError("subtypes_per_class must give >= 1 subtype for each of the two classes")
        if self.noise_level < 0:
            raise ValueError(f"noise_level must be >= 0, got {self.noise_level}")
        if self.n_timepoints < 2 * MIN_WINDOW_LENGTH:
            raise ValueError(
                f"n_timepoints must be >= {2 * MIN_WINDOW_LENGTH} to allow two views, got {self.n_timepoints}"
            )


def load_cohort(manifest_path, min_window_length: int = MIN_WINDOW_LENGTH) -> Cohort:
    """Load a cohort from a JSON manifest plus one CSV of time series per patient.

    The manifest maps to ``{"roi_count": int, "patients": [...]}`` where each
    patient entry gives ``id``, ``csv`` (path relative to the manifest),
    ``pcd`` (7 floats), ``label`` (0 or 1) and ``site``.
    """
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise ValueError(f"manifest not found: {manifest_path}")
    with open(manifest_path) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"manifest {manifest_path}: invalid JSON ({exc})") from exc

    if "roi_count" not in manifest or "patients" not in manifest:
        raise ValueError(f"manifest {manifest_path}: needs 'roi_count' and 'patients' keys")
    roi_count = manifest["roi_count"]
    if not _is_json_int(roi_count) or roi_count < 2:
        raise ValueError(f"manifest {manifest_path}: field 'roi_count' must be an integer >= 2, got {roi_count!r}")
    entries = manifest["patients"]
    if not entries:
        raise ValueError("empty cohort")

    patients = []
    seen = set()
    for pos, entry in enumerate(entries):
        pid = entry.get("id")
        if pid is None:
            raise ValueError(f"manifest entry {pos}: missing id")
        if pid in seen:
            raise ValueError(f"duplicate patient id {pid!r} (manifest entry {pos})")
        seen.add(pid)
        missing = [key for key in ("csv", "pcd", "label", "site") if key not in entry]
        if missing:
            raise ValueError(f"patient {pid!r} (entry {pos}): missing field {missing[0]!r}")
        label = entry["label"]
        if not _is_json_int(label) or label not in (0, 1):
            raise ValueError(f"patient {pid!r} (entry {pos}): field 'label' must be the integer 0 or 1, got {label!r}")
        pcd = entry["pcd"]
        if not isinstance(pcd, list):
            raise ValueError(f"patient {pid!r} (entry {pos}): field 'pcd' must be a list of {PCD_SIZE} numbers, got {pcd!r}")
        if len(pcd) != PCD_SIZE:
            raise ValueError(f"patient {pid!r} (entry {pos}): pcd has length {len(pcd)}, expected {PCD_SIZE}")
        for k, value in enumerate(pcd):
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"patient {pid!r} (entry {pos}): field 'pcd' item {k} must be a finite number, got {value!r}")
        csv_path = manifest_path.parent / entry["csv"]
        if not csv_path.exists():
            raise ValueError(f"patient {pid!r} (entry {pos}): csv not found: {csv_path}")
        values = _read_series_csv(csv_path, pid, roi_count)
        if values.shape[0] < 2 * min_window_length:
            raise ValueError(
                f"patient {pid!r}: series has {values.shape[0]} timepoints, "
                f"needs >= {2 * min_window_length} for two views"
            )
        patients.append(
            PatientRecord(
                id=str(pid),
                series=RoiTimeSeries(values),
                pcd=np.asarray(pcd, dtype=np.float64),
                label=label,
                site=str(entry["site"]),
            )
        )
    return Cohort(patients=tuple(patients), roi_count=roi_count)


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read_series_csv(csv_path: Path, pid: str, roi_count: int) -> np.ndarray:
    rows = []
    with open(csv_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != roi_count:
                raise ValueError(
                    f"patient {pid!r}: {csv_path.name} row {lineno} has {len(cells)} values, expected {roi_count}"
                )
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise ValueError(f"patient {pid!r}: {csv_path.name} row {lineno}: unparseable value") from exc
            for col, v in enumerate(row):
                if not np.isfinite(v):
                    raise ValueError(
                        f"patient {pid!r}: non-finite value in {csv_path.name} at row {lineno} column {col}"
                    )
            rows.append(row)
    if len(rows) < 2:
        raise ValueError(f"patient {pid!r}: {csv_path.name} has fewer than 2 rows")
    return np.asarray(rows, dtype=np.float64)


def slice_views(series: RoiTimeSeries, n_views: int, min_window_length: int = MIN_WINDOW_LENGTH) -> list:
    """Cut a series into ``n_views`` consecutive disjoint windows of equal length.

    Windows start at t=0 and each spans floor(T / n_views) timepoints; any
    trailing remainder is discarded so that all views are length-equal.
    """
    if n_views < 2:
        raise ValueError(f"n_views must be >= 2, got {n_views}")
    window = series.n_timepoints // n_views
    if window < min_window_length:
        raise ValueError(
            f"window too short: {series.n_timepoints} timepoints / {n_views} views gives "
            f"{window} < {min_window_length}"
        )
    return [
        RoiTimeSeries(series.values[k * window : (k + 1) * window])
        for k in range(n_views)
    ]


def _subtype_precision_templates(rng: np.random.Generator, n_rois: int, subtype_counts) -> dict:
    """Off-diagonal precision patterns: shared backbone plus per-subtype support.

    All subtypes share a common set of connections; on top of it every
    subtype owns an exclusive block of pairs, so any two subtypes differ by
    construction rather than by sampling luck.
    """
    pairs = [(i, j) for i in range(n_rois) for j in range(i + 1, n_rois)]
    order = [pairs[k] for k in rng.permutation(len(pairs))]
    n_shared = max(1, int(0.15 * len(order)))
    shared, rest = order[:n_shared], order[n_shared:]

    backbone = np.zeros((n_rois, n_rois))
    for i, j in shared:
        v = rng.uniform(0.4, 0.9) * (1.0 if rng.random() < 0.5 else -1.0)
        backbone[i, j] = backbone[j, i] = v

    keys = [(c, s) for c in (0, 1) for s in range(subtype_counts[c])]
    block = len(rest) // len(keys)
    templates = {}
    for t, key in enumerate(keys):
        tmpl = backbone.copy()
        for i, j in rest[t * block : (t + 1) * block]:
            v = rng.uniform(0.5, 1.0) * (1.0 if rng.random() < 0.5 else -1.0)
            tmpl[i, j] = tmpl[j, i] = v
        templates[key] = tmpl
    return templates


def _patient_covariance(rng: np.random.Generator, template: np.ndarray) -> np.ndarray:
    """Correlation-scaled covariance: subtype precision plus a small private jitter.

    The per-patient term keeps same-subtype patients distinguishable through
    their connectivity itself, while the shared template dominates. A
    diagonal-dominance margin keeps every perturbed precision positive
    definite.
    """
    n = template.shape[0]
    delta = np.zeros_like(template)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.15:
                v = rng.uniform(-PATIENT_FC_JITTER, PATIENT_FC_JITTER)
                delta[i, j] = v
                delta[j, i] = v
    prec = template + delta
    np.fill_diagonal(prec, 0.3 + np.abs(prec).sum(axis=1))
    cov = np.linalg.inv(prec)
    d = np.sqrt(np.diag(cov))
    return cov / np.outer(d, d)


def _draw_pcd(rng: np.random.Generator, label: int) -> np.ndarray:
    """Demographic-style personal characteristics: integer-valued, class-shifted.

    Age and the four IQ-like measures carry a mild disorder shift; gender and
    handedness are unshifted binaries. Integer rounding mirrors how such
    covariates arrive in practice and lets patients collide on them.
    """
    age = float(rng.integers(8, 19) + label)
    gender = float(rng.integers(0, 2))
    handedness = float(rng.random() < 0.9)
    iqs = [float(np.round(rng.normal(100.0 + PCD_IQ_SHIFT * label, 12.0))) for _ in range(4)]
    return np.array([age, gender, handedness, *iqs])


def synth_cohort(spec: SynthSpec, seed: int) -> Cohort:
    """Generate a deterministic synthetic cohort.

    Each class owns one latent covariance template per subtype; a patient's
    series is a stationary Gaussian draw from a privately perturbed copy of
    its subtype's template plus i.i.d. observation noise whose scale is the
    patient's own draw around ``noise_level`` (views of one patient share
    it, so raw connectivity strength varies across patients while the
    latent structure does not). Personal characteristics are
    demographic-style integers with a mild disorder shift, and sites rotate
    round-robin over patients.
    """
    rng = np.random.default_rng(seed)
    templates = _subtype_precision_templates(rng, spec.n_rois, spec.subtypes_per_class)

    n_pos = int(round(spec.n_patients * spec.class_ratio))
    n_pos = min(max(n_pos, 1), spec.n_patients - 1)
    labels = [0] * (spec.n_patients - n_pos) + [1] * n_pos

    patients = []
    subtype_counter = {0: 0, 1: 0}
    width = len(str(spec.n_patients - 1))
    for i in range(spec.n_patients):
        label = labels[i]
        subtype = subtype_counter[label] % spec.subtypes_per_class[label]
        subtype_counter[label] += 1
        cov = _patient_covariance(rng, templates[(label, subtype)])
        latent = rng.standard_normal((spec.n_timepoints, spec.n_rois)) @ np.linalg.cholesky(cov).T
        scale = spec.noise_level * rng.uniform(*NOISE_JITTER)
        noise = scale * rng.standard_normal((spec.n_timepoints, spec.n_rois))
        pcd = _draw_pcd(rng, label)
        patients.append(
            PatientRecord(
                id=f"p{i:0{width}d}",
                series=RoiTimeSeries(latent + noise),
                pcd=pcd,
                label=label,
                site=f"site{i % spec.n_sites}",
            )
        )
    return Cohort(patients=tuple(patients), roi_count=spec.n_rois)


def _apportion(n: int, ratios: np.ndarray, carry: np.ndarray):
    """Largest-remainder seat allocation of n patients to (train, val, test).

    ``carry`` holds the rounding residue of earlier cells, so quotas balance
    across the whole cohort instead of drifting cell by cell.
    """
    # snap quotas so 2 * 0.7 style representation noise cannot flip a tie
    quota = np.round(n * ratios + carry, 9)
    clipped = np.clip(quota, 0.0, None)
    counts = np.floor(clipped).astype(int)
    remainders = np.round(clipped - counts, 9)
    seats = n - int(counts.sum())
    # ties go to the earlier split (train before val before test)
    for _ in range(max(seats, 0)):
        pick = int(np.argmax(remainders))
        counts[pick] += 1
        remainders[pick] = -1.0
    for _ in range(max(-seats, 0)):
        eligible = np.where(counts > 0, remainders, np.inf)
        pick = int(np.argmin(eligible))
        counts[pick] -= 1
        remainders[pick] = np.inf
    if n > 0 and counts[0] == 0:
        donor = 2 if counts[2] >= counts[1] else 1
        if counts[donor] > 0:
            counts[donor] -= 1
            counts[0] += 1
    new_carry = np.clip(quota - counts, -1.0, 1.0)
    return list(counts), new_carry


def split_cohort(cohort: Cohort, ratios, seed: int) -> Cohort:
    """Assign train/val/test roles stratified within each (site, label) cell.

    Within every cell the three roles are apportioned proportionally to
    ``ratios`` by largest remainder, so each split keeps the cohort's class
    balance up to integer rounding. Any non-empty cell contributes at least
    one training patient. Deterministic for a fixed seed.
    """
    ratios = np.asarray(ratios, dtype=np.float64)
    if ratios.shape != (3,):
        raise ValueError(f"ratios must have 3 entries, got {ratios.shape}")
    if np.any(ratios < 0):
        raise ValueError(f"ratios must be non-negative, got {ratios.tolist()}")
    if abs(ratios.sum() - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got sum {ratios.sum()}")
    if ratios[0] <= 0:
        raise ValueError("train ratio must be positive")

    cells = {}
    for idx, p in enumerate(cohort.patients):
        cells.setdefault((p.site, p.label), []).append(idx)

    rng = np.random.default_rng(seed)
    assignment = {}
    carry = np.zeros(3)
    for key in sorted(cells):
        idxs = cells[key]
        order = [idxs[j] for j in rng.permutation(len(idxs))]
        (n_train, n_val, _), carry = _apportion(len(order), ratios, carry)
        for pos, pidx in enumerate(order):
            if pos < n_train:
                assignment[pidx] = "train"
            elif pos < n_train + n_val:
                assignment[pidx] = "val"
            else:
                assignment[pidx] = "test"

    for key, idxs in cells.items():
        if len(idxs) >= 3 and not any(assignment[i] == "train" for i in idxs):
            raise ValueError(f"cell (site={key[0]!r}, label={key[1]}) received no training patients")

    patients = tuple(
        replace(p, split=assignment[idx]) for idx, p in enumerate(cohort.patients)
    )
    return Cohort(patients=patients, roi_count=cohort.roi_count)


def standardized_pcd(cohort: Cohort) -> np.ndarray:
    """Z-score each personal-characteristic column using training-split statistics.

    Returns a P x 7 matrix aligned with cohort order. Columns that are
    constant on the training split are centered only.
    """
    train = cohort.subset("train")
    if not train:
        raise ValueError("cohort has no training patients; assign splits first")
    stack = np.stack([p.pcd for p in train])
    mean = stack.mean(axis=0)
    std = stack.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    full = np.stack([p.pcd for p in cohort.patients])
    return (full - mean) / std
