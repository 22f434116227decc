"""Run configuration: a single JSON file whose keys mirror the engine's
field names, so configs double as experiment documentation."""

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .datagen import GeneratorSpec, generate
from .dynamics import FlowConfig
from .errors import ConfigError
from .functionals import (
    EntropyTerm,
    FunctionalSpec,
    InteractionTerm,
    PotentialTerm,
    TargetDistanceTerm,
)
from .io import load_dataset
from .optim import OptimizerState
from .otdd import DatasetState

OUTPUT_DIR_ENV = "OTFLOW_OUTPUT_DIR"


@dataclass
class RunConfig:
    source: DatasetState
    target: DatasetState | None
    flow: FlowConfig
    output_dir: Path
    plot: dict
    raw: dict


def load_config_dict(path) -> dict:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def dataset_from_entry(entry, what: str) -> DatasetState:
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} must be an object")
    if "generator" in entry:
        gen = dict(entry["generator"])
        try:
            spec = GeneratorSpec(**gen)
        except TypeError as exc:
            raise ConfigError(f"{what} generator: {exc}") from exc
        return generate(spec)
    if "path" in entry:
        return load_dataset(
            entry["path"],
            fmt=entry.get("format", "csv"),
            labels_path=entry.get("labels_path"),
            downscale=int(entry.get("downscale", 1)),
            per_class_cap=entry.get("per_class_cap"),
        )
    raise ConfigError(f"{what} needs either a 'generator' or a 'path'")


# Config keys read into each library constructor, with the cast applied to
# the JSON value. Absent or null keys are not passed, so the library
# defaults apply on both the config and the library path.
TARGET_TERM_KEYS = {"reg": float, "debias": bool, "squared": bool, "max_iter": int, "tol": float}
OPTIMIZER_KEYS = {
    "rule": str, "step_size": float, "momentum": float, "beta1": float, "beta2": float,
    "adam_eps": float, "adagrad_eps": float,
    "block_step_sizes": lambda v: {k: float(x) for k, x in v.items()},
}
FLOW_KEYS = {
    "mode": str, "steps": int, "noise_scale": float, "noise_schedule": str,
    "noise_target": str, "relabel_every": int, "relabel_method": str,
    "cluster_eps": float, "cluster_min_pts": int, "cluster_k": int, "seed": int,
    "record_every": int,
}


def _given(entry: dict, keys: dict) -> dict:
    """The keys of ``entry`` listed in ``keys`` that are set, cast."""
    return {k: cast(entry[k]) for k, cast in keys.items() if entry.get(k) is not None}


def term_from_entry(entry: dict, target: DatasetState | None):
    kind = entry.get("kind")
    weight = float(entry.get("weight", 1.0))
    if kind == "target_distance":
        if target is None:
            raise ConfigError("functional has a target_distance term but no target dataset")
        return TargetDistanceTerm(target, weight=weight, **_given(entry, TARGET_TERM_KEYS))
    if kind == "potential":
        return PotentialTerm(entry["form"], entry.get("params", {}), weight=weight)
    if kind == "interaction":
        return InteractionTerm(entry["form"], entry.get("params", {}), weight=weight)
    if kind == "entropy":
        return EntropyTerm(weight=weight)
    raise ConfigError(f"unknown functional term kind {kind!r}")


def optimizer_from_entry(entry: dict) -> OptimizerState:
    try:
        return OptimizerState(**_given(entry or {}, OPTIMIZER_KEYS))
    except ValueError as exc:
        raise ConfigError(f"optimizer: {exc}") from exc


def build_run(cfg: dict) -> RunConfig:
    """Materialize datasets, functional, and flow config; validates before
    any flow compute happens."""
    if "source" not in cfg:
        raise ConfigError("config needs a 'source' dataset")
    source = dataset_from_entry(cfg["source"], "source")

    term_entries = (cfg.get("functional") or {}).get("terms")
    if not term_entries:
        raise ConfigError("config needs functional.terms with at least one term")
    wants_target = any(t.get("kind") == "target_distance" for t in term_entries)
    target = None
    if "target" in cfg and cfg["target"] is not None:
        target = dataset_from_entry(cfg["target"], "target")
    if wants_target and target is None:
        raise ConfigError("functional has a target_distance term but no target dataset")

    try:
        functional = FunctionalSpec([term_from_entry(t, target) for t in term_entries])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"functional: {exc}") from exc

    try:
        flow = FlowConfig(
            functional=functional,
            optimizer=optimizer_from_entry(cfg.get("optimizer", {})),
            **_given(cfg, FLOW_KEYS),
        )
        flow.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = os.environ.get(OUTPUT_DIR_ENV) or cfg.get("output_dir", "otflow_out")
    plot = cfg.get("plot") or {}
    return RunConfig(source, target, flow, Path(out_dir), plot, cfg)
