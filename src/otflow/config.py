"""Run configuration: a single JSON file whose keys are the keyword
parameters of the library constructors, so configs double as experiment
documentation and run exactly what they say. A null value leaves the library
default in place; a key the engine would not read, or a value that does not
fit its parameter's annotation, is a ConfigError."""

import json
import os
from dataclasses import dataclass
from inspect import Parameter, formatannotation, signature
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin

from .datagen import GeneratorSpec, generate
from .diagnostics import CONVEXITY_KEYS
from .dynamics import FlowConfig
from .errors import ConfigError, NumericError
from .functionals import TERM_KINDS, FunctionalSpec, TargetDistanceTerm
from .io import load_dataset
from .optim import OptimizerState
from .otdd import MODE_FD, DatasetState
from .plots import PLOT_KEYS, _axes_for

OUTPUT_DIR_ENV = "OTFLOW_OUTPUT_DIR"
# Top-level keys that are not FlowConfig arguments.
RUN_SECTIONS = ("source", "target", "functional", "optimizer", "output_dir", "plot", "convexity")


@dataclass
class RunConfig:
    source: DatasetState
    target: DatasetState | None
    flow: FlowConfig
    output_dir: Path
    plot: dict
    convexity: dict


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


def _check_keys(entry, keys, what: str) -> dict:
    """``entry``, once it is an object whose keys are all in ``keys``."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} must be an object")
    for key in entry:
        if key not in keys:
            raise ConfigError(f"{what}: unknown key {key!r}")
    return entry


def _fits(value, annotation) -> bool:
    """Whether a JSON value fits a parameter annotation: an int fits a float,
    a bool fits only a bool, and a list[T] is a list whose items fit T."""
    if annotation is Parameter.empty:
        return True
    if get_origin(annotation) in (Union, UnionType):
        return any(_fits(value, a) for a in get_args(annotation))
    if get_origin(annotation) is list:
        (item,) = get_args(annotation)
        return isinstance(value, list) and all(_fits(v, item) for v in value)
    annotation = get_origin(annotation) or annotation
    if isinstance(value, bool):
        return annotation is bool
    if annotation is float:
        return isinstance(value, (int, float))
    return isinstance(value, annotation)


def _values(entry, annotations: dict, what: str) -> dict:
    """The non-null values of ``entry``, so that null keys take the library
    defaults. A key that is not in ``annotations``, or a value that does not
    fit its annotation there, is a ConfigError naming ``what``."""
    values = {k: v for k, v in _check_keys(entry, annotations, what).items() if v is not None}
    for key, value in values.items():
        if not _fits(value, annotations[key]):
            wanted = formatannotation(annotations[key])
            raise ConfigError(f"{what}: {key} must be {wanted}, not {value!r}")
    return values


def _build(cls, what: str, entry, *args):
    """``cls(*args, **entry)``, with the keyword parameters of ``cls`` as the
    schema of ``_values``; a value that ``cls`` rejects is a ConfigError too."""
    params = signature(cls).parameters
    kwargs = _values(entry, {k: p.annotation for k, p in params.items()}, what)
    try:
        return cls(*args, **kwargs)
    except (TypeError, ValueError, NumericError) as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def dataset_from_entry(entry, what: str) -> DatasetState:
    if not isinstance(entry, dict) or ("generator" in entry) == ("path" in entry):
        raise ConfigError(f"{what} must be an object with either a 'generator' or a 'path'")
    if "generator" in entry:
        _check_keys(entry, ("generator",), what)
        return generate(_build(GeneratorSpec, f"{what} generator", entry["generator"]))
    return _build(load_dataset, what, entry)


def term_from_entry(entry, target: DatasetState | None, what: str):
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} must be an object")
    args = dict(entry)
    kind = args.pop("kind", None)
    if kind not in TERM_KINDS:
        raise ConfigError(f"{what}: unknown kind {kind!r} (available: {', '.join(TERM_KINDS)})")
    if kind != "target_distance":
        return _build(TERM_KINDS[kind], what, args)
    if target is None:
        raise ConfigError("functional has a target_distance term but no target dataset")
    return _build(TargetDistanceTerm, what, args, target)


def build_run(cfg: dict) -> RunConfig:
    """Materialize datasets, functional, and flow config; validates before
    any flow compute happens. Each entry goes to one callable: a generator to
    GeneratorSpec, a path entry to load_dataset, a term to TERM_KINDS[kind],
    ``optimizer`` to OptimizerState and the other top-level keys to FlowConfig.
    Potential params are checked against the source data here too."""
    plot = _values(cfg.get("plot") or {}, PLOT_KEYS, "plot")
    convexity = _values(cfg.get("convexity") or {}, CONVEXITY_KEYS, "convexity")
    if plot.get("stride", 1) < 1:
        raise ConfigError(f"plot: stride must be >= 1, not {plot['stride']}")
    if cfg.get("source") is None:
        raise ConfigError("config needs a 'source' dataset")
    source = dataset_from_entry(cfg["source"], "source")
    if "axes" in plot:
        _axes_for(source.dim, plot["axes"])
    target = None
    if cfg.get("target") is not None:
        target = dataset_from_entry(cfg["target"], "target")

    entries = _check_keys(cfg.get("functional") or {}, ("terms",), "functional").get("terms")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("config needs functional.terms with at least one term")
    terms = [term_from_entry(t, target, f"functional term {i}") for i, t in enumerate(entries)]
    for i, term in enumerate(terms):
        if term.kind == "potential":
            # One evaluation on the source checks the params against the data
            # (dimension, per-class labels) with the checks every step makes.
            try:
                term.value_and_grads(source, MODE_FD)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"functional term {i}: {exc}") from exc
    functional = _build(FunctionalSpec, "functional", {"terms": terms})

    optimizer = _build(OptimizerState, "optimizer", cfg.get("optimizer") or {})
    flow_args = {k: v for k, v in cfg.items() if k not in RUN_SECTIONS}
    flow = _build(FlowConfig, "config", flow_args, functional, optimizer)
    try:
        flow.validate(source.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out_dir = cfg.get("output_dir") or "otflow_out"
    if not isinstance(out_dir, str):
        raise ConfigError(f"output_dir must be a string, not {out_dir!r}")
    out_dir = Path(os.environ.get(OUTPUT_DIR_ENV) or out_dir)
    return RunConfig(source, target, flow, out_dir, plot, convexity)
