"""Command-line interface.

Subcommands:
    run <config>                  execute a flow, write trajectory/summary/frames
    distance <src> <dst>          dataset distance between two CSV files
    check-convexity <config>      geodesic-convexity report for the configured functional
    plot <trajectory>             render SVG frames from a trajectory file

Exit codes: 0 success, 2 config error, 3 flow divergence, 4 IO error.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from .config import build_run, load_config_dict
from .diagnostics import check_displacement_convexity
from .dynamics import run_flow
from .errors import ConfigError, FlowDivergenceError, OtflowError, ParseError
from .io import load_dataset, read_trajectory, write_summary, write_trajectory
from .otdd import otdd
from .plots import export_frames, snapshot_frames, trajectory_frames

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4


def _write_outputs(run_cfg, trajectory, out_dir: Path, status: str, elapsed: float):
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory(trajectory, out_dir / "trajectory.jsonl")
    summary = {
        "status": status,
        "mode": trajectory.mode,
        "seed": trajectory.seed,
        "steps_recorded": len(trajectory.objective_trace),
        "term_kinds": trajectory.term_kinds,
        "initial_objective": trajectory.snapshots[0].objective if trajectory.snapshots else None,
        "final_objective": trajectory.snapshots[-1].objective if trajectory.snapshots else None,
        "particles": run_cfg.source.n,
        "runtime_s": elapsed,
    }
    write_summary(out_dir / "summary.json", summary)
    plot = run_cfg.plot
    if plot.get("enabled", True) and trajectory.snapshots:
        dim = run_cfg.source.dim
        axes = plot.get("axes")
        if dim <= 3 or axes is not None:
            target = None
            if run_cfg.target is not None:
                target = (run_cfg.target.features, run_cfg.target.labels)
            export_frames(
                snapshot_frames(trajectory),
                out_dir / "frames",
                stride=plot.get("stride", 1),
                axes=axes,
                target=target,
                colors=plot.get("colors"),
            )


def cmd_run(args) -> int:
    cfg = load_config_dict(args.config)
    run_cfg = build_run(cfg)
    t0 = time.perf_counter()
    try:
        trajectory = run_flow(run_cfg.source, run_cfg.flow)
    except FlowDivergenceError as exc:
        if exc.trajectory is not None and exc.trajectory.snapshots:
            _write_outputs(run_cfg, exc.trajectory, run_cfg.output_dir, "diverged",
                           time.perf_counter() - t0)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    _write_outputs(run_cfg, trajectory, run_cfg.output_dir, "ok", time.perf_counter() - t0)
    print(
        f"flow finished: {trajectory.mode}, {len(trajectory.objective_trace) - 1} steps, "
        f"objective {trajectory.snapshots[0].objective:.6g} -> "
        f"{trajectory.snapshots[-1].objective:.6g}"
    )
    print(f"outputs in {run_cfg.output_dir}")
    return EXIT_OK


def cmd_distance(args) -> int:
    src = load_dataset(args.src)
    dst = load_dataset(args.dst)
    value, _ = otdd(src, dst, reg=args.reg, debias=not args.no_debias)
    print(f"{value:.9g}")
    return EXIT_OK


def cmd_check_convexity(args) -> int:
    run_cfg = build_run(load_config_dict(args.config))
    if run_cfg.target is None:
        raise ConfigError("check-convexity needs both a source and a target dataset")
    conv = run_cfg.convexity
    base = run_cfg.target if conv.get("use_target_base", False) else None
    report = check_displacement_convexity(
        run_cfg.flow.functional,
        run_cfg.source,
        run_cfg.target,
        lambda_claimed=conv.get("lambda_claimed", 0.0),
        base=base,
    )
    run_cfg.output_dir.mkdir(parents=True, exist_ok=True)
    out = run_cfg.output_dir / "convexity_report.json"
    out.write_text(
        json.dumps(
            {
                "functional": report.functional_name,
                "lambda_claimed": report.lambda_claimed,
                "generalized_base": report.generalized_base,
                "max_violation": report.max_violation,
                "samples": [
                    {"t": t, "lhs": lhs, "rhs": rhs} for t, lhs, rhs in report.samples
                ],
            },
            indent=2,
        )
        + "\n"
    )
    print(f"max violation {report.max_violation:.3e} (report: {out})")
    return EXIT_OK


def cmd_plot(args) -> int:
    records = read_trajectory(args.trajectory)
    if not records:
        raise ParseError(args.trajectory, "no complete trajectory records")
    out_dir = Path(args.out) if args.out else Path(args.trajectory).parent / "frames"
    axes = tuple(args.axes) if args.axes else None
    paths = export_frames(trajectory_frames(records), out_dir, stride=args.stride, axes=axes)
    print(f"wrote {len(paths)} frames to {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otflow",
        description="Particle-based optimal-transport gradient flows for labeled datasets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured flow")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_dist = sub.add_parser("distance", help="dataset distance between two CSV files")
    p_dist.add_argument("src")
    p_dist.add_argument("dst")
    p_dist.add_argument("--reg", type=float, default=None, help="entropic regularization")
    p_dist.add_argument("--no-debias", action="store_true")
    p_dist.set_defaults(func=cmd_distance)

    p_conv = sub.add_parser("check-convexity", help="geodesic-convexity report")
    p_conv.add_argument("config")
    p_conv.set_defaults(func=cmd_check_convexity)

    p_plot = sub.add_parser("plot", help="render SVG frames from a trajectory")
    p_plot.add_argument("trajectory")
    p_plot.add_argument("--stride", type=int, default=1)
    p_plot.add_argument("--out", default=None)
    p_plot.add_argument("--axes", type=int, nargs=2, default=None)
    p_plot.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FlowDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ParseError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OtflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
