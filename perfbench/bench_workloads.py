"""Workload inputs and output checks for the otflow benchmark.

Inputs are a pure function of (workload, seed). The default seed reproduces
the example configs in ``configs/`` exactly. Other seeds change the inputs
in one of two ways, chosen per workload:

- ``motion``: every dataset of the workload is rotated (or reflected) by one
  seeded orthogonal map and its particles are shuffled. The ground cost is
  invariant under a joint orthogonal map, and the radial-shell potential is
  centred at the origin, so the problem keeps its geometry: solver rounds,
  and with them the time, stay those of the example. The coordinates and
  the particle order the program sees still differ from seed to seed. The
  final objective and the distances are invariant too, which lets every
  seed be checked against the reference values of the default seed.
- ``reseed``: generator and flow seeds are offset by the seed. Used where
  the work does not depend on the data (``ou_diffusion`` runs no solver).
"""

import json
import math
from pathlib import Path

import numpy as np

import otflow
from otflow import config as otflow_config
from otflow import datagen

DEFAULT_SEED = 0

FLOW_WORKLOADS = {
    "swiss_roll_shaping": "motion",
    "class_adaptation": "motion",
    "ou_diffusion": "reseed",
}
DISTANCE_WORKLOAD = "distance_matrix"

# distance_matrix: a fixed set of mixed kinds, n from 300 to 800, k from 2
# to 8, all in 2-D so that every pair is comparable. The largest n x m cost
# arrays (~5 MB) exceed a 4 MiB L2.
DISTANCE_SPECS = (
    {"kind": "gaussian-mixture", "n": 300, "k": 2, "seed": 1},
    {"kind": "moons", "n": 400, "k": 2, "seed": 2, "radius": 4.0, "noise": 0.3},
    {"kind": "rings", "n": 500, "k": 3, "seed": 3, "radius": 5.0, "noise": 0.2},
    {"kind": "swiss-roll", "n": 600, "k": 4, "seed": 4, "noise": 0.3},
    {"kind": "gaussian-mixture", "n": 700, "k": 8, "seed": 5, "radius": 5.0},
    {"kind": "gaussian-mixture", "n": 800, "k": 5, "seed": 6, "sigma": 0.8},
)
DISTANCE_PAIRS = tuple(
    (i, j) for i in range(len(DISTANCE_SPECS)) for j in range(i + 1, len(DISTANCE_SPECS))
)

# Acceptance-contract bounds (criteria 6 and 9), used unchanged.
CLASS_ADAPTATION_CLUSTERS = 5
SELF_DISTANCE_BOUND = 1e-3   # otdd(a, a) / mean ground cost of (a, a)
SYMMETRY_BOUND = 1e-6        # |otdd(a, b) - otdd(b, a)|

# Reference agreement. Distances are solved to EVAL_TOL, so they agree to
# ~1e-9; a flow compounds 250+ solves at 1e-6 marginals, and a moved or
# warm-started rerun differs by ~3e-7 relative.
DISTANCE_RTOL = 1e-6
OBJECTIVE_RTOL = 1e-5

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _motion(seed: int, dim: int):
    """Seeded orthogonal map (Haar: rotations and reflections) and the rng
    that draws the particle orders."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r)), rng


def _moved(state, rot, rng):
    perm = rng.permutation(state.n)
    return otflow.DatasetState.from_features(state.features[perm] @ rot.T, state.labels[perm])


def flow_inputs(root: Path, name: str, seed: int, steps: int | None = None):
    """A fresh ``RunConfig`` for the workload: new datasets, new functional
    terms, so no solver state is shared between repetitions."""
    cfg = otflow_config.load_config_dict(root / "configs" / f"{name}.json")
    if steps is not None:
        cfg["steps"] = steps
    if seed == DEFAULT_SEED:
        return otflow_config.build_run(cfg)
    if FLOW_WORKLOADS[name] == "reseed":
        for side in ("source", "target"):
            if cfg.get(side):
                cfg[side]["generator"]["seed"] += seed
        cfg["seed"] = cfg.get("seed", 0) + seed
        return otflow_config.build_run(cfg)
    run = otflow_config.build_run(cfg)
    rot, rng = _motion(seed, run.source.dim)
    run.source = _moved(run.source, rot, rng)
    if run.target is not None:
        run.target = _moved(run.target, rot, rng)
    for term in run.flow.functional.terms:
        if term.kind == "target_distance":
            term.target = run.target
    return run


def distance_inputs(seed: int):
    """The distance_matrix datasets, moved as a whole for a non-default seed."""
    datasets = [datagen.generate(datagen.GeneratorSpec(**spec)) for spec in DISTANCE_SPECS]
    if seed == DEFAULT_SEED:
        return datasets
    rot, rng = _motion(seed, datasets[0].dim)
    return [_moved(state, rot, rng) for state in datasets]


def build_inputs(root: Path, name: str, seed: int):
    if name == DISTANCE_WORKLOAD:
        return distance_inputs(seed)
    return flow_inputs(root, name, seed)


def _close(value: float, expected: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rtol * abs(expected)


def check_flow(name: str, seed: int, run, trajectory, reference: dict) -> list:
    """Problems found in one flow's output; empty when it is correct."""
    problems = []
    final = trajectory.final.objective
    if not math.isfinite(final):
        problems.append(f"final objective {final!r} is not finite")
    elif seed == DEFAULT_SEED or FLOW_WORKLOADS[name] == "motion":
        expected = reference[name]["objective"]
        if not _close(final, expected, OBJECTIVE_RTOL):
            problems.append(f"final objective {final!r} != reference {expected!r}")
    if name == "class_adaptation":
        flow = run.flow
        clusters = otflow.dbscan_bures(
            trajectory.final.state.label_dists, flow.cluster_eps, flow.cluster_min_pts
        ).k
        if clusters != CLASS_ADAPTATION_CLUSTERS:
            problems.append(f"{clusters} clusters, contract needs {CLASS_ADAPTATION_CLUSTERS}")
    return problems


def check_distances(values: list, reference: dict) -> list:
    """Indices of pair distances that disagree with the reference."""
    expected = reference[DISTANCE_WORKLOAD]["distances"]
    return [k for k, v in enumerate(values) if not _close(v, expected[k], DISTANCE_RTOL)]
