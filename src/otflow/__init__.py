"""Particle-based optimal-transport gradient flows for labeled datasets.

Datasets are weighted particle systems whose labels carry Gaussian feature
summaries. The package evaluates the optimal-transport distance between
such datasets, composes it with potential / interaction / entropy
functionals, and flows a dataset down the resulting objective with explicit
Euler or Euler-Maruyama particle updates.
"""

__version__ = "0.1.0"

from .clustering import ClusterAssignment, dbscan_bures, kmeans_embedded
from .datagen import GeneratorSpec, generate
from .diagnostics import (
    ConvexityReport,
    check_displacement_convexity,
    check_flow_contraction,
    displacement_interpolant,
    oracle_accuracy_proxy,
)
from .dynamics import FlowConfig, Snapshot, Trajectory, flow_step, run_flow
from .functionals import (
    EntropyTerm,
    FunctionalSpec,
    InteractionTerm,
    PotentialTerm,
    TargetDistanceTerm,
    grad_functional,
)
from .gaussian import Moments, project_psd, spd_sqrt
from .io import load_dataset, read_trajectory, save_dataset, write_trajectory
from .optim import OptimizerState, apply_step
from .otdd import (
    DatasetState,
    FlowGradients,
    ground_cost_matrix,
    label_stats,
    otdd,
)
from .transport import (
    TransportPlan,
    exact_ot,
    ot_position_grad,
    sinkhorn,
    sinkhorn_symmetric,
)

__all__ = [
    "ClusterAssignment",
    "ConvexityReport",
    "DatasetState",
    "EntropyTerm",
    "FlowConfig",
    "FlowGradients",
    "FunctionalSpec",
    "GeneratorSpec",
    "InteractionTerm",
    "Moments",
    "OptimizerState",
    "PotentialTerm",
    "Snapshot",
    "TargetDistanceTerm",
    "Trajectory",
    "TransportPlan",
    "apply_step",
    "check_displacement_convexity",
    "check_flow_contraction",
    "dbscan_bures",
    "displacement_interpolant",
    "exact_ot",
    "flow_step",
    "generate",
    "grad_functional",
    "ground_cost_matrix",
    "kmeans_embedded",
    "label_stats",
    "load_dataset",
    "oracle_accuracy_proxy",
    "ot_position_grad",
    "otdd",
    "project_psd",
    "read_trajectory",
    "run_flow",
    "save_dataset",
    "sinkhorn",
    "sinkhorn_symmetric",
    "spd_sqrt",
    "write_trajectory",
]
