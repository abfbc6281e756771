"""Cohort ingestion, synthesis, view slicing, and split assignment.

A cohort is an ordered collection of patients, each carrying a multi-ROI
time series, a 7-entry vector of personal characteristics, a binary label,
a site tag, and a split role. Views are non-overlapping temporal windows
of a patient's series.
"""

from __future__ import annotations

import json
import math
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, is_dataclass, replace
from functools import cache
from itertools import count
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .autodiff import atomic_write

MIN_WINDOW_LENGTH = 30
PCD_SIZE = 7
VALID_SPLITS = ("train", "val", "test", "unassigned")
ENTRY_FIELDS = ("id", "pcd", "label", "site", "split")  # a PatientRecord's JSON fields: all but the series

# synthetic generator knobs: disorder shift of the IQ-like pcd entries, the
# per-patient spread of the observation-noise scale around noise_level, and
# the size and pair density of each patient's private precision perturbation
PCD_IQ_SHIFT = -4.0
NOISE_JITTER = (0.9, 1.1)
PATIENT_FC_JITTER = 0.10
PATIENT_FC_DENSITY = 0.15


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
    """One patient; owns the entry rule that the manifest, the snapshot and Python callers share."""

    id: str
    series: RoiTimeSeries
    pcd: np.ndarray
    label: int
    site: str
    split: str = "unassigned"

    def __post_init__(self):
        for name in ("id", "site", "split"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"field {name!r} must be a JSON string, got {getattr(self, name)!r}")
        if self.split not in VALID_SPLITS:
            raise ValueError(f"field 'split' must be one of {VALID_SPLITS}, got {self.split!r}")
        if not _accepts(int, self.label) or self.label not in (0, 1):
            raise ValueError(f"field 'label' must be the integer 0 or 1, got {self.label!r}")
        pcd = self.pcd.tolist() if isinstance(self.pcd, np.ndarray) else self.pcd
        if not isinstance(pcd, (list, tuple)):
            raise ValueError(f"field 'pcd' must be a list of {PCD_SIZE} numbers, got {pcd!r}")
        if len(pcd) != PCD_SIZE:
            raise ValueError(f"pcd has length {len(pcd)}, expected {PCD_SIZE}")
        for k, value in enumerate(pcd):
            if not _accepts(float, value):
                raise ValueError(f"field 'pcd' item {k} must be a finite number, got {value!r}")
        object.__setattr__(self, "pcd", np.asarray(self.pcd, dtype=np.float64))
        object.__setattr__(self, "label", int(self.label))


@dataclass(frozen=True)
class Cohort:
    patients: tuple
    roi_count: int

    def __post_init__(self):
        if not _accepts(int, self.roi_count) or self.roi_count < 2:
            raise ValueError(f"field 'roi_count' must be an integer >= 2, got {self.roi_count!r}")
        object.__setattr__(self, "roi_count", int(self.roi_count))
        object.__setattr__(self, "patients", tuple(self.patients))
        if len(self.patients) == 0:
            raise ValueError("empty cohort")
        first = {}
        for pos, p in enumerate(self.patients):
            if first.setdefault(p.id, pos) != pos:
                raise ValueError(f"duplicate patient id {p.id!r} (entries {first[p.id]} and {pos})")
            if p.series.n_rois != self.roi_count:
                raise ValueError(f"patient {p.id!r} (entry {pos}): has {p.series.n_rois} rois, roi_count is {self.roi_count}")

    def __len__(self) -> int:
        return len(self.patients)

    def subset(self, split: str) -> list:
        return [p for p in self.patients if p.split == split]

    def labels(self) -> np.ndarray:
        return np.array([p.label for p in self.patients], dtype=np.int64)


class ConfigError(ValueError):
    """Validation failure carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path, self.message = path, message
        super().__init__(f"{path}: {message}")


_NOUNS = {int: "integer", float: "number", str: "string"}
# concrete types, not the numbers ABCs, whose isinstance is several times slower
_ACCEPTED = {int: (int, np.integer), float: (int, float, np.integer, np.floating), str: (str,)}


@cache
def field_types(cls) -> dict:
    """{field: (kind, is_tuple, optional)} of the dataclass ``cls``; a tuple field's kind is its item type."""
    out = {}
    for name, hint in get_type_hints(cls).items():
        optional = type(None) in get_args(hint)
        if optional:
            (hint,) = [arg for arg in get_args(hint) if arg is not type(None)]
        is_tuple = get_origin(hint) is tuple
        out[name] = (get_args(hint)[0] if is_tuple else hint, is_tuple, optional)
    return out


def _finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an int too large for a float64
        return False


def _accepts(kind, value) -> bool:
    """The JSON rule for one value: no boolean is a number, an integer takes no 2.5, and a number is finite."""
    return not isinstance(value, bool) and isinstance(value, _ACCEPTED[kind]) and (kind is not float or _finite(value))


def check_types(obj, paths=None) -> None:
    """Hold every field of the dataclass ``obj`` to the JSON config rule, storing numpy numbers as builtins.

    No boolean is a number, an int field takes no 2.5, a number is finite, a
    str field only a string, a tuple field a list or tuple of its kind
    (stored as a tuple), a dataclass field only its type, and None only
    where annotated. ``paths`` renames fields in the ConfigError.
    """
    for name, (kind, is_tuple, optional) in field_types(type(obj)).items():
        value = getattr(obj, name)
        if is_tuple:
            if type(value) is tuple and all(type(v) is kind and (kind is not float or _finite(v)) for v in value):
                continue
        elif (type(value) is kind and (kind is not float or _finite(value))) or (value is None and optional):
            continue
        path = paths.get(name, name) if paths else name
        if is_tuple:
            object.__setattr__(obj, name, json_list(kind, value, path))
        elif is_dataclass(kind):
            if not isinstance(value, kind):
                raise ConfigError(path, f"must be an instance of {kind.__name__}, got {value!r}")
        elif _accepts(kind, value):
            object.__setattr__(obj, name, value.item() if isinstance(value, np.generic) else value)
        else:
            raise ConfigError(path, f"must be a JSON {_NOUNS[kind]}, got {value!r}")


def json_list(kind, value, path: str) -> tuple:
    """A list or tuple of JSON values of ``kind`` as a tuple of ``kind``; anything else is a ConfigError at ``path``."""
    if not isinstance(value, (list, tuple)) or not all(_accepts(kind, v) for v in value):
        raise ConfigError(path, f"must be a list of JSON {_NOUNS[kind]}s, got {value!r}")
    return tuple(map(kind, value))


def require(obj, name: str, ok: bool, rule: str) -> None:
    """Raise a ConfigError naming field ``name`` of ``obj`` and its value unless ``ok``."""
    if not ok:
        raise ConfigError(name, f"{rule}, got {getattr(obj, name)!r}")


def check_split_ratios(ratios, path: str) -> tuple:
    """``ratios`` as floats if they are (train, val, test) shares of the cohort, else a ConfigError at ``path``."""
    values = json_list(float, ratios, path)
    if len(values) != 3:
        raise ConfigError(path, f"must have 3 entries, got {len(values)}")
    if not all(0.0 <= v <= 1.0 for v in values):
        raise ConfigError(path, f"must each lie in [0, 1], got {list(values)}")
    if abs(sum(values) - 1.0) > 1e-9:
        raise ConfigError(path, f"must sum to 1, got sum {sum(values)}")
    if values[0] <= 0:
        raise ConfigError(path, "train ratio must be positive")
    return values


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of the synthetic cohort generator."""

    n_patients: int
    n_rois: int
    n_timepoints: int
    n_sites: int = 3
    class_ratio: float = 0.5
    subtypes_per_class: tuple[int, ...] = (2, 2)
    noise_level: float = 0.5

    def __post_init__(self):
        check_types(self)
        require(self, "n_patients", self.n_patients >= 4, "must be >= 4")
        require(self, "n_rois", self.n_rois >= 2, "must be >= 2")
        require(self, "n_timepoints", self.n_timepoints >= 2, "must be >= 2")
        require(self, "n_sites", self.n_sites >= 1, "must be >= 1")
        require(self, "class_ratio", 0.0 < self.class_ratio < 1.0, "must be in (0, 1)")
        counts = self.subtypes_per_class
        require(self, "subtypes_per_class", len(counts) == 2 and min(counts) >= 1, "must give each of 2 classes >= 1 subtype")
        smallest = next(r for r in count(2) if _pair_blocks(r, sum(counts))[1] >= 1)
        require(self, "n_rois", self.n_rois >= smallest, f"must be >= {smallest} so that each of {sum(counts)} subtypes owns a pair")
        require(self, "noise_level", self.noise_level >= 0, "must be >= 0")


@contextmanager
def _located(where: str):
    """Re-raise a ValueError from the block with ``where`` in front of its message."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _read_cohort(kind: str, path: Path, keys: tuple, series_of) -> Cohort:
    """The Cohort in the JSON file ``path``; each entry needs ``keys``, and ``series_of(entry)`` gives its (T, R) values.

    Checks only the document's shape. PatientRecord and Cohort own the value
    rules; any ValueError gets the file, the patient id and the entry in front.
    """
    if not path.exists():
        raise FileNotFoundError(f"{kind} not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{kind} {path} is not valid JSON: {exc}") from None

    def records():
        for pos, entry in enumerate(doc["patients"]):
            named = isinstance(entry, dict) and "id" in entry
            with _located(f"patient {entry['id']!r} (entry {pos})" if named else f"entry {pos}"):
                if not isinstance(entry, dict):
                    raise ValueError(f"must be a JSON object, got {entry!r}")
                missing = [key for key in keys if key not in entry]
                if missing:
                    raise ValueError(f"missing field {missing[0]!r}")
                fields = {key: entry[key] for key in ENTRY_FIELDS if key in keys}
                record = PatientRecord(series=RoiTimeSeries(series_of(entry)), **fields)
            yield record

    with _located(f"{kind} {path}"):
        if not isinstance(doc, dict):
            raise ValueError(f"top level must be a JSON object, got {doc!r}")
        if not isinstance(doc.get("patients"), list):
            raise ValueError(f"field 'patients' must be a JSON list, got {doc.get('patients')!r}")
        # Cohort checks roi_count before it draws the records, so before any series is read
        return Cohort(patients=records(), roi_count=doc.get("roi_count"))


def load_cohort(manifest_path, min_timepoints: int = 2 * MIN_WINDOW_LENGTH) -> Cohort:
    """Load a cohort from a JSON manifest plus one CSV of time series per patient.

    The manifest maps to ``{"roi_count": int, "patients": [...]}`` where each
    patient entry gives ``id``, ``csv`` (path relative to the manifest),
    ``pcd`` (7 numbers), ``label`` (0 or 1) and ``site``. Every series needs
    ``min_timepoints`` rows: n_views * min_window_length, for ``slice_views``.
    """
    manifest_path = Path(manifest_path)

    def csv_series(entry) -> np.ndarray:
        if not isinstance(entry["csv"], str):
            raise ValueError(f"field 'csv' must be a JSON string, got {entry['csv']!r}")
        csv_path = manifest_path.parent / entry["csv"]
        if not csv_path.is_file():
            raise ValueError(f"csv not found: {csv_path}")
        values = _read_series_csv(csv_path)
        if values.shape[0] < min_timepoints:
            raise ValueError(f"series has {values.shape[0]} timepoints, needs >= {min_timepoints}")
        return values

    return _read_cohort("manifest", manifest_path, ("id", "csv", "pcd", "label", "site"), csv_series)


def _read_series_csv(csv_path: Path) -> np.ndarray:
    """The rows of ``csv_path`` as a (T, R) array; every row needs as many values as the first."""
    rows = []
    with open(csv_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if rows and len(cells) != len(rows[0]):
                raise ValueError(f"{csv_path.name} row {lineno} has {len(cells)} values, expected {len(rows[0])}")
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise ValueError(f"{csv_path.name} row {lineno}: unparseable value") from exc
            for col, v in enumerate(row):
                if not np.isfinite(v):
                    raise ValueError(f"non-finite value in {csv_path.name} at row {lineno} column {col}")
            rows.append(row)
    if len(rows) < 2:
        raise ValueError(f"{csv_path.name} has fewer than 2 rows")
    return np.asarray(rows, dtype=np.float64)


def save_snapshot(cohort: Cohort, out: Path) -> None:
    """Write ``cohort.json`` (every record field but the series) and ``series.npz`` (one array per id) under ``out``."""
    entries = [{**{key: getattr(p, key) for key in ENTRY_FIELDS}, "pcd": p.pcd.tolist()} for p in cohort.patients]
    meta = {"roi_count": cohort.roi_count, "patients": entries}
    with atomic_write(out / "cohort.json") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    with atomic_write(out / "series.npz", "wb") as fh:
        np.savez(fh, **{p.id: p.series.values for p in cohort.patients})


def read_npz(path: Path, what: str) -> dict:
    """Every array in the ``.npz`` file at ``path``; a missing or damaged file raises naming it as ``what``."""
    if not path.exists():
        raise FileNotFoundError(f"{what} not found: {path}")
    try:
        with np.load(path) as archive:
            return dict(archive)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ValueError(f"{what} {path} is unreadable: {exc}") from None


def load_snapshot(run_dir: Path) -> Cohort:
    """The cohort ``save_snapshot`` wrote; a damaged or inconsistent file raises a ValueError naming it."""
    series_path = run_dir / "series.npz"
    series = read_npz(series_path, "cohort series")

    def stored_series(entry) -> np.ndarray:
        try:
            return series[entry["id"]]
        except (KeyError, TypeError):  # TypeError: an unhashable id
            raise ValueError(f"field 'id' names no array in {series_path}") from None

    return _read_cohort("cohort snapshot", run_dir / "cohort.json", ENTRY_FIELDS, stored_series)


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


def _pair_blocks(n_rois: int, n_subtypes: int) -> tuple:
    """(n_shared, block): the backbone's pair count and each subtype's exclusive pair count."""
    pairs = n_rois * (n_rois - 1) // 2
    n_shared = max(1, int(0.15 * pairs))
    return n_shared, (pairs - n_shared) // n_subtypes


def _signed_uniform(rng: np.random.Generator, n: int, low: float, high: float) -> np.ndarray:
    """``n`` values rng.uniform(low, high) * (+1 if rng.random() < 0.5 else -1), drawn value, sign, value, ..."""
    u = rng.random(2 * n)
    # rng.uniform(low, high) is low + (high - low) * rng.random(), bit for bit
    return (low + (high - low) * u[0::2]) * np.where(u[1::2] < 0.5, 1.0, -1.0)


def _subtype_precision_templates(rng: np.random.Generator, n_rois: int, subtype_counts) -> dict:
    """Off-diagonal precision patterns: shared backbone plus per-subtype support.

    All subtypes share a common set of connections; on top of it every
    subtype owns an exclusive block of pairs, so any two subtypes differ by
    construction rather than by sampling luck (``SynthSpec`` refuses an
    ``n_rois`` too small to give every subtype a pair).
    """
    rows, cols = np.triu_indices(n_rois, 1)
    order = rng.permutation(rows.size)
    rows, cols = rows[order], cols[order]
    keys = [(c, s) for c in (0, 1) for s in range(subtype_counts[c])]
    n_shared, block = _pair_blocks(n_rois, len(keys))

    backbone = np.zeros((n_rois, n_rois))
    i, j = rows[:n_shared], cols[:n_shared]
    backbone[i, j] = backbone[j, i] = _signed_uniform(rng, n_shared, 0.4, 0.9)

    templates = {}
    for t, key in enumerate(keys):
        pick = slice(n_shared + t * block, n_shared + (t + 1) * block)
        tmpl = backbone.copy()
        tmpl[rows[pick], cols[pick]] = tmpl[cols[pick], rows[pick]] = _signed_uniform(rng, block, 0.5, 1.0)
        templates[key] = tmpl
    return templates


def _fc_jitter(rng: np.random.Generator, n: int) -> np.ndarray:
    """Symmetric (n, n) jitter: pair i < j, in row-major order, is set with probability PATIENT_FC_DENSITY.

    The stream is read as by a scalar loop: per pair one gate double, and
    when it is below the density one more double for the value
    rng.uniform(-PATIENT_FC_JITTER, PATIENT_FC_JITTER). Here the m = n(n-1)/2
    gates and their values come from one block of 2m doubles, in which a
    double is a gate iff the run of below-density doubles just before it has
    even length. The generator is then put back and moved on by exactly the
    doubles used: restoring the state keeps PCG64's buffered 32-bit half,
    which ``bit_generator.advance`` would clear.
    """
    m = n * (n - 1) // 2
    saved = rng.bit_generator.state
    u = rng.random(2 * m)
    below = u < PATIENT_FC_DENSITY
    pos = np.arange(u.size)
    last_above = np.maximum.accumulate(np.where(below, -1, pos))  # last index <= k whose double is >= density
    gate = np.ones(u.size, dtype=bool)
    gate[1:] = (pos[:-1] - last_above[:-1]) % 2 == 0
    gates = np.flatnonzero(gate)[:m]
    hit = below[gates]
    rng.bit_generator.state = saved
    rng.random(gates[-1] + 1 + hit[-1])

    low, high = -PATIENT_FC_JITTER, PATIENT_FC_JITTER
    rows, cols = np.triu_indices(n, 1)
    rows, cols = rows[hit], cols[hit]
    delta = np.zeros((n, n))
    delta[rows, cols] = delta[cols, rows] = low + (high - low) * u[gates[hit] + 1]
    return delta


def _patient_covariance(rng: np.random.Generator, template: np.ndarray) -> np.ndarray:
    """Correlation-scaled covariance: subtype precision plus a small private jitter.

    The per-patient term keeps same-subtype patients distinguishable through
    their connectivity itself, while the shared template dominates. A
    diagonal-dominance margin keeps every perturbed precision positive
    definite.
    """
    prec = template + _fc_jitter(rng, template.shape[0])
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
    iqs = np.round(rng.normal(100.0 + PCD_IQ_SHIFT * label, 12.0, size=4))
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
        # the counts sum to n > 0, so the larger of val and test has a seat to give
        donor = 2 if counts[2] >= counts[1] else 1
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
    ratios = np.asarray(check_split_ratios(ratios, "ratios"))

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
