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
from typing import get_args, get_origin, get_type_hints

from .cohort import MIN_WINDOW_LENGTH, SynthSpec, is_json_int, number_tuple
from .connectivity import EdgePolicy


class ConfigError(ValueError):
    """Validation failure carrying the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


@dataclass(frozen=True)
class EncoderSettings:
    hidden1: int = 64
    hidden2: int = 64
    embed_dim: int = 64
    pool_ratio: float = 0.5
    cheb_k: int = 3
    tau: float = 0.1


@dataclass(frozen=True)
class DgcSettings:
    k: int = 20
    gamma: float = 2.0
    hidden1: int = 64
    hidden2: int = 64
    aggregation: str = "sum"


@dataclass(frozen=True)
class TrainSettings:
    batch_size: int = 100
    cgl_epochs: int = 150
    dgc_epochs: int = 150
    cgl_lr: float = 0.001
    dgc_lr: float = 0.005


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
        for name, kind in (("split_ratios", float), ("seeds", int)):
            try:
                object.__setattr__(self, name, number_tuple(getattr(self, name), kind))
            except ValueError as exc:
                raise ConfigError(name, str(exc)) from None
        if (self.manifest is None) == (self.synth is None):
            raise ConfigError("data", "exactly one of 'manifest' or 'synth' must be given")
        _check(self.n_views >= 2, "n_views", "must be >= 2")
        _check(self.min_window_length >= 2, "min_window_length", "must be >= 2")
        enc = self.encoder
        _check(enc.hidden1 >= 1 and enc.hidden2 >= 1, "encoder.hidden1", "widths must be >= 1")
        _check(enc.embed_dim >= 1, "encoder.embed_dim", "must be >= 1")
        _check(0.0 < enc.pool_ratio <= 1.0, "encoder.pool_ratio", "must be in (0, 1]")
        _check(enc.cheb_k >= 1, "encoder.cheb_k", "must be >= 1")
        _check(enc.tau > 0.0, "encoder.tau", "must be > 0")
        dgc = self.dgc
        _check(dgc.k >= 1, "dgc.k", "must be >= 1")
        _check(dgc.gamma >= 0.0, "dgc.gamma", "must be >= 0")
        _check(dgc.hidden1 >= 1 and dgc.hidden2 >= 1, "dgc.hidden1", "widths must be >= 1")
        _check(dgc.aggregation in ("sum", "max"), "dgc.aggregation", "must be 'sum' or 'max'")
        tr = self.train
        _check(tr.batch_size >= 1, "train.batch_size", "must be >= 1")
        _check(tr.cgl_epochs >= 1 and tr.dgc_epochs >= 1, "train.cgl_epochs", "epoch counts must be >= 1")
        _check(tr.cgl_lr >= 0.0 and tr.dgc_lr >= 0.0, "train.cgl_lr", "learning rates must be >= 0")
        _check(len(self.split_ratios) == 3, "split_ratios", "must have 3 entries")
        _check(all(r >= 0 for r in self.split_ratios), "split_ratios", "must be non-negative")
        _check(abs(sum(self.split_ratios) - 1.0) <= 1e-9, "split_ratios", "must sum to 1")
        _check(self.split_ratios[0] > 0, "split_ratios", "train ratio must be positive")
        _check(len(self.seeds) >= 1, "seeds", "need at least one seed")
        _check(all(seed >= 0 for seed in self.seeds), "seeds", "must be non-negative")

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


def _check(ok: bool, path: str, message: str) -> None:
    if not ok:
        raise ConfigError(path, message)


_KINDS = {int: "integer", float: "number", str: "string"}


def _is_kind(kind, value) -> bool:
    if kind is str:
        return isinstance(value, str)
    return is_json_int(value) or (kind is float and isinstance(value, float))


def _typed(path: str, hint, value):
    """value checked against its field's annotated type; a dataclass field is built from its object."""
    if is_dataclass(hint):
        return _build(path, hint, value)
    if get_origin(hint) is tuple:
        kind = get_args(hint)[0]
        if not isinstance(value, list) or not all(_is_kind(kind, v) for v in value):
            raise ConfigError(path, f"must be a list of JSON {_KINDS[kind]}s, got {value!r}")
    elif not _is_kind(hint, value):
        raise ConfigError(path, f"must be a JSON {_KINDS[hint]}, got {value!r}")
    return value


def _kwargs(path: str, factory, payload, skip=()) -> dict:
    """Keyword arguments for ``factory`` from a JSON object, each value type-checked."""
    if not isinstance(payload, dict):
        raise ConfigError(path, "must be an object")
    hints = get_type_hints(factory)
    kwargs = {}
    for key, value in payload.items():
        where = f"{path}.{key}" if path else key
        if key not in hints or key in skip:
            raise ConfigError(where, "unknown config field")
        kwargs[key] = _typed(where, hints[key], value)
    return kwargs


def _build(path: str, factory, payload):
    kwargs = _kwargs(path, factory, payload)
    try:
        return factory(**kwargs)
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(path, f"missing field ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def config_from_dict(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("", "config must be a JSON object")
    doc = dict(doc)
    data = doc.pop("data", None)
    manifest = None
    synth = None
    if data is not None:
        if not isinstance(data, dict) or len(data) != 1:
            raise ConfigError("data", "must be an object with exactly one of 'manifest' or 'synth'")
        if "manifest" in data:
            manifest = _typed("data.manifest", str, data["manifest"])
        elif "synth" in data:
            synth = _build("data.synth", SynthSpec, data["synth"])
        else:
            raise ConfigError("data", "must contain 'manifest' or 'synth'")
    # the data source is given only through the "data" block
    return RunConfig(manifest=manifest, synth=synth, **_kwargs("", RunConfig, doc, skip=("manifest", "synth")))


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
    with open(path, "w") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def default_config() -> RunConfig:
    """Synthetic two-class cohort with the reference hyperparameters."""
    return RunConfig(
        synth=SynthSpec(n_patients=120, n_rois=16, n_timepoints=400),
        out_dir="runs/default",
    )


def desk_config() -> RunConfig:
    """Tuned desk-scale profile for the bundled synthetic cohort.

    The reference hyperparameters target a multi-site cohort several times
    larger; at 120 patients a smaller neighbourhood, max aggregation, and a
    shorter contrastive schedule classify markedly better. All overrides
    are ordinary config fields.
    """
    return RunConfig(
        synth=SynthSpec(n_patients=120, n_rois=16, n_timepoints=400),
        encoder=EncoderSettings(hidden1=16, hidden2=16, embed_dim=16),
        dgc=DgcSettings(k=10, hidden1=32, hidden2=32, aggregation="max"),
        train=TrainSettings(batch_size=100, cgl_epochs=60, dgc_epochs=150, cgl_lr=0.005, dgc_lr=0.001),
        out_dir="runs/desk",
    )
