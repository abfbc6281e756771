"""Run configuration: one JSON document drives every pipeline stage.

Defaults follow the reference operating point (batch 100, 150 epochs,
learning rates 0.001 / 0.005, temperature 0.1, filter size 3, 20 nearest
neighbours, 7:1:2 split); everything is overridable per run and the
effective configuration is archived next to each run's artifacts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from pathlib import Path

from .autodiff import write_json
from .cohort import MIN_WINDOW_LENGTH, ConfigError, SynthSpec, check_split_ratios, check_types, field_types, require
from .connectivity import EdgePolicy


@dataclass(frozen=True)
class EncoderSettings:
    hidden1: int = 64
    hidden2: int = 64
    embed_dim: int = 64
    pool_ratio: float = 0.5
    cheb_k: int = 3
    tau: float = 0.1

    def __post_init__(self):
        check_types(self)
        for name in ("hidden1", "hidden2", "embed_dim", "cheb_k"):
            require(self, name, getattr(self, name) >= 1, "must be >= 1")
        require(self, "pool_ratio", 0.0 < self.pool_ratio <= 1.0, "must be in (0, 1]")
        require(self, "tau", self.tau > 0.0, "must be > 0")


@dataclass(frozen=True)
class DgcSettings:
    k: int = 20
    gamma: float = 2.0
    hidden1: int = 64
    hidden2: int = 64

    def __post_init__(self):
        check_types(self)
        for name in ("k", "hidden1", "hidden2"):
            require(self, name, getattr(self, name) >= 1, "must be >= 1")
        require(self, "gamma", self.gamma >= 0.0, "must be >= 0")


@dataclass(frozen=True)
class TrainSettings:
    batch_size: int = 100
    cgl_epochs: int = 150
    dgc_epochs: int = 150
    cgl_lr: float = 0.001
    dgc_lr: float = 0.005

    def __post_init__(self):
        check_types(self)
        for name in ("batch_size", "cgl_epochs", "dgc_epochs"):
            require(self, name, getattr(self, name) >= 1, "must be >= 1")
        for name in ("cgl_lr", "dgc_lr"):
            require(self, name, getattr(self, name) >= 0.0, "must be >= 0")


DATA_PATHS = {"manifest": "data.manifest", "synth": "data.synth"}


@dataclass(frozen=True)
class RunConfig:
    manifest: str | None = None
    synth: SynthSpec | None = None
    n_views: int = 2
    min_window_length: int = MIN_WINDOW_LENGTH
    edge_policy: EdgePolicy = field(default_factory=EdgePolicy)
    encoder: EncoderSettings = field(default_factory=EncoderSettings)
    dgc: DgcSettings = field(default_factory=DgcSettings)
    train: TrainSettings = field(default_factory=TrainSettings)
    split_ratios: tuple[float, ...] = (0.7, 0.1, 0.2)
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    out_dir: str = "runs/default"

    def __post_init__(self):
        check_types(self, DATA_PATHS)
        if (self.manifest is None) == (self.synth is None):
            raise ConfigError("data", "exactly one of 'manifest' or 'synth' must be given")
        require(self, "n_views", self.n_views >= 2, "must be >= 2")
        require(self, "min_window_length", self.min_window_length >= 2, "must be >= 2")
        check_split_ratios(self.split_ratios, "split_ratios")
        require(self, "seeds", len(self.seeds) >= 1, "need at least one seed")
        require(self, "seeds", min(self.seeds, default=0) >= 0, "must be non-negative")
        if self.synth is not None and self.synth.n_timepoints < self.min_timepoints:
            rule = f"must be >= n_views * min_window_length = {self.min_timepoints}"
            raise ConfigError("data.synth.n_timepoints", f"{rule}, got {self.synth.n_timepoints}")

    @property
    def min_timepoints(self) -> int:
        return self.n_views * self.min_window_length  # the shortest series slice_views accepts

    def to_dict(self) -> dict:
        """The JSON document ``config_from_dict`` reads: every field, tuples as lists, the data source under "data"."""
        out = asdict(self, dict_factory=lambda items: {k: list(v) if isinstance(v, tuple) else v for k, v in items})
        manifest, synth = out.pop("manifest"), out.pop("synth")
        out["data"] = {"manifest": manifest} if synth is None else {"synth": synth}
        return out

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seeds=(seed,))

    def with_out_dir(self, out_dir) -> "RunConfig":
        return replace(self, out_dir=str(out_dir))


def _build(path: str, cls, payload, **given):
    """``cls`` from the JSON object ``payload`` and ``given``; its own ConfigError is re-raised under ``path``."""
    if not isinstance(payload, dict):
        raise ConfigError(path, "must be an object")
    kinds = field_types(cls)
    kwargs = dict(given)
    for key, value in payload.items():
        where = f"{path}.{key}" if path else key
        if key not in kinds or key in given:
            raise ConfigError(where, "unknown config field")
        kwargs[key] = _build(where, kinds[key][0], value) if is_dataclass(kinds[key][0]) else value
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc.path}" if path else exc.path, exc.message) from None
    except TypeError as exc:
        raise ConfigError(path, f"missing field ({exc})") from exc


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("", "config must be a JSON object")
    data = doc.get("data", {})
    if not isinstance(data, dict) or len(data) > 1 or not data.keys() <= DATA_PATHS.keys():
        raise ConfigError("data", "must be an object with exactly one of 'manifest' or 'synth'")
    synth = _build("data.synth", SynthSpec, data["synth"]) if "synth" in data else None
    rest = {key: value for key, value in doc.items() if key != "data"}
    return _build("", RunConfig, rest, manifest=data.get("manifest"), synth=synth)


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("config", f"file not found: {path}")
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)


def save_config(cfg: RunConfig, path) -> None:
    write_json(cfg.to_dict(), path)


def default_config() -> RunConfig:
    """Synthetic two-class cohort with the reference hyperparameters."""
    return RunConfig(
        synth=SynthSpec(n_patients=120, n_rois=16, n_timepoints=400),
        out_dir="runs/default",
    )


def desk_config() -> RunConfig:
    """Tuned desk-scale profile for the bundled synthetic cohort.

    The reference hyperparameters target a multi-site cohort several times
    larger; at 120 patients a smaller neighbourhood, narrower layers and a
    shorter contrastive schedule classify markedly better. All overrides
    are ordinary config fields.
    """
    return RunConfig(
        synth=SynthSpec(n_patients=120, n_rois=16, n_timepoints=400),
        encoder=EncoderSettings(hidden1=16, hidden2=16, embed_dim=16),
        dgc=DgcSettings(k=10, hidden1=32, hidden2=32),
        train=TrainSettings(batch_size=100, cgl_epochs=60, dgc_epochs=150, cgl_lr=0.005, dgc_lr=0.001),
        out_dir="runs/desk",
    )
