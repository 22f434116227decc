"""Dataset and trajectory serialization.

Datasets are CSV files with columns f0..f(d-1) plus an integer label column,
or MNIST-family IDX binary pairs. Trajectories are line-delimited JSON so
they stream, diff, and survive truncation (every complete line is a valid
record). Every input file is read by one ``_read``: a file that cannot be
opened, or text that is not UTF-8, is a ParseError naming its path.
"""

import csv
import json
import struct
from pathlib import Path

import numpy as np

from .errors import ParseError
from .otdd import DatasetState


def load_dataset(
    path: str,
    format: str = "csv",
    labels_path: str | None = None,
    downscale: int = 1,
    per_class_cap: int | None = None,
) -> DatasetState:
    """Load a labeled dataset from disk.

    csv: a header of f0..f(d-1) and label, in any order; one particle per
         row. The idx options are a ValueError.
    idx: MNIST-family binary images at ``path`` plus labels at
         ``labels_path``; pixels are flattened, scaled to [0, 1], optionally
         strided down by ``downscale`` and capped per class, each >= 1.

    A file without data (no rows, no images), a row whose field count is
    not the header's, a field that does not parse and a non-finite feature
    are each a ParseError, naming the line where there is one.
    """
    if format == "csv":
        if labels_path is not None or downscale != 1 or per_class_cap is not None:
            raise ValueError("a csv dataset takes no labels_path, downscale or per_class_cap")
        return _load_csv(path)
    if format == "idx":
        if labels_path is None:
            raise ParseError(path, "idx format needs a labels file")
        if downscale < 1:
            raise ValueError(f"downscale must be >= 1, not {downscale}")
        if per_class_cap is not None and per_class_cap < 1:
            raise ValueError(f"per_class_cap must be >= 1, not {per_class_cap}")
        return _load_idx(path, labels_path, downscale, per_class_cap)
    raise ParseError(path, f"unknown dataset format {format!r}")


def _read(path, binary: bool = False):
    """The contents of the file at ``path``, as bytes or as UTF-8 text; the
    one read of an input file. An OSError or undecodable text is a
    ParseError naming the path."""
    path = Path(path)
    try:
        return path.read_bytes() if binary else path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(path, str(exc)) from exc


def _load_csv(path) -> DatasetState:
    path = Path(path)
    rows = list(csv.reader(_read(path).splitlines()))
    if not rows:
        raise ParseError(path, "empty file")
    header = [h.strip() for h in rows[0]]
    names = [f"f{i}" for i in range(len(header) - 1)]
    if sorted(header) != sorted(names + ["label"]) or not names:
        raise ParseError(path, f"header must be f0..f(d-1) and label, not {header}", line=1)
    label_col = header.index("label")
    feat_cols = [header.index(name) for name in names]
    feats, labels = [], []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(path, f"row has {len(row)} fields, header {len(header)}", line=ln)
        try:
            feats.append([float(row[i]) for i in feat_cols])
            labels.append(int(row[label_col]))
        except (ValueError, IndexError) as exc:
            raise ParseError(path, f"bad row: {exc}", line=ln) from exc
        if not np.isfinite(feats[-1]).all():
            raise ParseError(path, f"non-finite feature in row {row}", line=ln)
    if not feats:
        raise ParseError(path, "no data rows")
    return DatasetState.from_features(np.array(feats), np.array(labels))


def save_dataset(state: DatasetState, path):
    """Write features and labels as CSV. Floats use repr, so a save/load
    round trip is bit-identical."""
    path = Path(path)
    d = state.dim
    header = ",".join([f"f{i}" for i in range(d)] + ["label"])
    lines = [header]
    for i in range(state.n):
        vals = [repr(float(v)) for v in state.features[i]]
        lines.append(",".join(vals + [str(int(state.labels[i]))]))
    path.write_text("\n".join(lines) + "\n")


def _read_idx_header(data: bytes, path, expected_magic: int, ndim: int):
    need = 4 * (1 + ndim)
    if len(data) < need:
        raise ParseError(path, f"truncated idx header (offset {len(data)})")
    magic = struct.unpack(">i", data[:4])[0]
    if magic != expected_magic:
        raise ParseError(path, f"bad idx magic {magic} (expected {expected_magic})")
    dims = struct.unpack(f">{ndim}i", data[4:need])
    return dims, need


def _load_idx(images_path, labels_path, downscale: int, per_class_cap):
    images_path, labels_path = Path(images_path), Path(labels_path)
    img_data, lbl_data = _read(images_path, binary=True), _read(labels_path, binary=True)

    (n, rows, cols), off = _read_idx_header(img_data, images_path, 2051, 3)
    if n == 0:
        raise ParseError(images_path, "no images")
    if len(img_data) - off < n * rows * cols:
        raise ParseError(images_path, f"truncated idx payload (offset {len(img_data)})")
    images = np.frombuffer(img_data, dtype=np.uint8, count=n * rows * cols, offset=off)
    images = images.reshape(n, rows, cols)

    (n_lbl,), off_l = _read_idx_header(lbl_data, labels_path, 2049, 1)
    if n_lbl != n:
        raise ParseError(labels_path, f"label count {n_lbl} != image count {n}")
    labels = np.frombuffer(lbl_data, dtype=np.uint8, count=n, offset=off_l).astype(int)

    feats = images[:, ::downscale, ::downscale].reshape(n, -1).astype(float) / 255.0

    if per_class_cap is not None:
        keep = []
        counts = {}
        for i, y in enumerate(labels):
            if counts.get(int(y), 0) < per_class_cap:
                counts[int(y)] = counts.get(int(y), 0) + 1
                keep.append(i)
        feats, labels = feats[keep], labels[keep]
    return DatasetState.from_features(feats, labels)


def snapshot_record(snap) -> dict:
    """One trajectory line. ``class_stats`` holds the empirical Gaussian
    summary of each class, keyed by class id, in every dynamics mode."""
    state = snap.state
    classes = DatasetState.from_features(state.features, state.labels)
    rows = classes.label_dists
    return {
        "step": int(snap.step),
        "objective": float(snap.objective),
        "term_values": [float(v) for v in snap.term_values],
        "features": state.features.tolist(),
        "labels": state.labels.tolist(),
        "class_stats": {
            str(c): {"mean": mean.tolist(), "cov": cov.tolist()}
            for c, mean, cov in zip(classes.class_ids(), rows.means, rows.covs)
        },
        "wall_time": float(snap.wall_time),
    }


def write_trajectory(trajectory, path):
    """Write a run's recorded snapshots as JSONL, one record per line, once
    the run has ended; an existing file at ``path`` is truncated. Nothing
    is streamed while the run is in progress."""
    path = Path(path)
    with path.open("w") as fh:
        for snap in trajectory.snapshots:
            fh.write(json.dumps(snapshot_record(snap)) + "\n")


def read_trajectory(path) -> list:
    """Parse a trajectory file line by line and return every record. A last
    line that does not parse is a truncated write and is dropped; any other
    that does not is a ParseError naming its line."""
    lines = [(k, line) for k, line in enumerate(_read(path).splitlines(), start=1) if line.strip()]
    records = []
    for k, line in lines:
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if k < lines[-1][0]:
                raise ParseError(path, f"corrupt record: {exc.msg}", line=k) from exc
    return records


def write_summary(path, summary: dict):
    Path(path).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
