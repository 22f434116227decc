"""Static SVG scatter frames for recorded flows.

SVG is generated directly (no plotting dependency): output is deterministic
text, cheap to diff, and renders anywhere. Each frame shows one snapshot's
particles colored by label, with the target dataset underlaid when given.
"""

import math
from pathlib import Path

import numpy as np

from .errors import ConfigError

SIZE = 480
MARGIN = 36
PALETTE = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
]
TARGET_COLOR = "#b0b0b0"


def _axes_for(dim: int, axes) -> tuple:
    if axes is not None:
        ax = tuple(int(a) for a in axes)
        if len(ax) != 2 or max(ax) >= dim or min(ax) < 0:
            raise ConfigError(f"axis pair {axes} invalid for dimension {dim}")
        return ax
    if dim > 3:
        raise ConfigError(f"dimension {dim} > 3 needs an explicit axis pair")
    return (0, 1) if dim >= 2 else (0, 0)


def _bounds(frames, target, ax):
    pts = [f[1][:, ax] for f in frames]
    if target is not None:
        pts.append(target[0][:, ax])
    allpts = np.vstack(pts)
    lo = allpts.min(axis=0)
    hi = allpts.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    return lo - 0.05 * span, hi + 0.05 * span


def _to_px(xy, lo, hi):
    scale = (SIZE - 2 * MARGIN) / (hi - lo)
    s = min(scale)  # uniform scale keeps aspect
    cx = 0.5 * (lo + hi)
    px = MARGIN + (SIZE - 2 * MARGIN) / 2 + (xy - cx) * s
    px[:, 1] = SIZE - px[:, 1]  # flip y for svg coordinates
    return px


def color_for(label: int, palette=None) -> str:
    palette = PALETTE if palette is None else palette
    if label < 0:
        return "#000000"  # noise
    if label < len(palette):
        return palette[label]
    hue = (label * 47) % 360
    return f"hsl({hue},70%,45%)"


def render_frame(features, labels, lo, hi, ax, target=None, title="", palette=None) -> str:
    """One snapshot as an SVG document string."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white" stroke="#cccccc"/>',
    ]
    if title:
        parts.append(
            f'<text x="{MARGIN}" y="{MARGIN - 12}" font-family="monospace" '
            f'font-size="13" fill="#333333">{title}</text>'
        )
    if target is not None:
        t_px = _to_px(target[0][:, ax].copy(), lo, hi)
        for x, y in t_px:
            parts.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2" fill="{TARGET_COLOR}" fill-opacity="0.7"/>'
            )
    px = _to_px(features[:, ax].copy(), lo, hi)
    for (x, y), lab in zip(px, labels):
        parts.append(
            f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="{color_for(int(lab), palette)}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# Keys of a run config's ``plot`` section and the types of their values:
# ``enabled`` (default true) turns frame export on or off, and the rest are
# export_frames arguments.
PLOT_KEYS = {"enabled": bool, "stride": int, "axes": list[int], "colors": list[str]}


def export_frames(frames, out_dir, stride: int = 1, axes=None, target=None, colors=None) -> list:
    """Write one SVG per selected snapshot.

    ``frames`` is a list of (step, features, labels); ``target`` an optional
    (features, labels) overlay; ``colors`` overrides the label palette.
    Every ``stride``-th snapshot is rendered, so the number of files is
    ceil(len(frames) / stride).
    """
    if not frames:
        return []
    if stride < 1:
        raise ConfigError("stride must be >= 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dim = frames[0][1].shape[1]
    ax = _axes_for(dim, axes)
    selected = frames[::stride]
    lo, hi = _bounds(selected, target, ax)
    width = max(4, int(math.log10(max(f[0] for f in frames) + 1)) + 1)
    paths = []
    for step, feats, labels in selected:
        path = out_dir / f"frame_{step:0{width}d}.svg"
        path.write_text(
            render_frame(feats, labels, lo, hi, ax, target=target,
                         title=f"step {step}", palette=colors)
        )
        paths.append(path)
    return paths


def trajectory_frames(records) -> list:
    """Adapt parsed trajectory records to (step, features, labels) tuples."""
    return [
        (int(r["step"]), np.asarray(r["features"], dtype=float), np.asarray(r["labels"], dtype=int))
        for r in records
    ]


def snapshot_frames(trajectory) -> list:
    return [(s.step, s.state.features, s.state.labels) for s in trajectory.snapshots]
