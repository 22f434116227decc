import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otflow
from otflow.cli import main
from otflow.config import OUTPUT_DIR_ENV, build_run, load_config_dict
from otflow.datagen import GeneratorSpec, generate
from otflow.dynamics import FlowConfig
from otflow.errors import ConfigError, ParseError
from otflow.functionals import TargetDistanceTerm
from otflow.io import load_dataset, read_trajectory, save_dataset
from otflow.optim import OptimizerState
from otflow.plots import export_frames


def minimal_config(tmp_path, **overrides):
    cfg = {
        "source": {"generator": {"n": 12, "k": 2, "seed": 0}},
        "functional": {"terms": [{"kind": "potential", "form": "quadratic", "weight": 0.0}]},
        "optimizer": {"rule": "sgd", "step_size": 0.1},
        "steps": 1,
        "record_every": 1,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestCsv:
    def test_round_trip_bit_identical(self, tmp_path):
        state = generate(GeneratorSpec(n=17, k=3, seed=1))
        path = tmp_path / "data.csv"
        save_dataset(state, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.features, state.features)
        assert np.array_equal(loaded.labels, state.labels)

    def test_three_row_csv(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n0.5,1.5,0\n1.0,2.0,1\n3.0,4.0,0\n")
        state = load_dataset(path)
        assert state.n == 3 and state.dim == 2
        np.testing.assert_array_equal(state.labels, [0, 1, 0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "nolabel.csv"
        path.write_text("f0,f1\n1.0,2.0\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert "label" in str(exc.value)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,label\n1.0,0\nnot_a_number,1\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path)
        assert exc.value.line == 3


def write_idx_pair(tmp_path, images, labels):
    """Encode arrays in the binary image/label format (the decode oracle)."""
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(
        struct.pack(">iiii", 2051, n, rows, cols) + images.astype(np.uint8).tobytes()
    )
    lbl_path.write_bytes(struct.pack(">ii", 2049, n) + labels.astype(np.uint8).tobytes())
    return img_path, lbl_path


class TestIdx:
    def test_decode_matches_encode(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(100, 8, 8), dtype=np.uint8)
        labels = rng.integers(0, 10, size=100, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        state = load_dataset(img, format="idx", labels_path=lbl)
        assert state.n == 100 and state.dim == 64
        np.testing.assert_allclose(
            state.features, images.reshape(100, -1) / 255.0, atol=1e-12
        )
        np.testing.assert_array_equal(state.labels, labels)

    def test_per_class_cap(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(100, 4, 4), dtype=np.uint8)
        labels = (np.arange(100) % 10).astype(np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        state = load_dataset(img, format="idx", labels_path=lbl, per_class_cap=5)
        assert state.n <= 50
        assert np.bincount(state.labels).max() <= 5
        assert set(state.labels.tolist()) == set(range(10))

    def test_downscale(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, size=(10, 8, 8), dtype=np.uint8)
        labels = np.zeros(10, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        state = load_dataset(img, format="idx", labels_path=lbl, downscale=2)
        assert state.dim == 16

    def test_bad_magic(self, tmp_path):
        img = tmp_path / "junk.idx"
        img.write_bytes(struct.pack(">iiii", 1234, 1, 2, 2) + b"\x00" * 4)
        lbl = tmp_path / "lbl.idx"
        lbl.write_bytes(struct.pack(">ii", 2049, 1) + b"\x00")
        with pytest.raises(ParseError):
            load_dataset(img, format="idx", labels_path=lbl)

    def test_unreadable_labels_file_named(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, np.zeros(2, dtype=np.uint8))
        lbl.unlink()
        with pytest.raises(ParseError) as info:
            load_dataset(img, format="idx", labels_path=lbl)
        assert info.value.path == lbl


class TestTrajectoryFile:
    def run_small(self, tmp_path, **overrides):
        cfg_path, cfg = minimal_config(tmp_path, **overrides)
        assert main(["run", str(cfg_path)]) == 0
        return tmp_path / "out"

    def test_minimal_run_two_records_zero_objective(self, tmp_path):
        out = self.run_small(tmp_path)
        records = read_trajectory(out / "trajectory.jsonl")
        assert [r["step"] for r in records] == [0, 1]
        assert all(r["objective"] == 0.0 for r in records)

    def test_truncated_file_keeps_complete_records(self, tmp_path):
        out = self.run_small(tmp_path, steps=5)
        path = out / "trajectory.jsonl"
        text = path.read_text()
        lines = text.splitlines()
        # chop the last line in half
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])
        records = read_trajectory(path)
        assert len(records) == len(lines) - 1

    def test_round_trip_features_exact(self, tmp_path):
        out = self.run_small(tmp_path, steps=3)
        records = read_trajectory(out / "trajectory.jsonl")
        state = generate(GeneratorSpec(n=12, k=2, seed=0))
        np.testing.assert_array_equal(np.array(records[0]["features"]), state.features)

    def test_byte_identical_apart_from_wall_time(self, tmp_path):
        cfg_path, _ = minimal_config(
            tmp_path,
            steps=8,
            noise_scale=0.5,
            seed=3,
            functional={"terms": [{"kind": "potential", "form": "quadratic", "weight": 1.0}]},
            output_dir=str(tmp_path / "out1"),
        )
        assert main(["run", str(cfg_path)]) == 0
        cfg2, _ = minimal_config(
            tmp_path,
            steps=8,
            noise_scale=0.5,
            seed=3,
            functional={"terms": [{"kind": "potential", "form": "quadratic", "weight": 1.0}]},
            output_dir=str(tmp_path / "out2"),
        )
        assert main(["run", str(cfg2)]) == 0
        strip = lambda text: re.sub(r', "wall_time": [^}]*}', "}", text)
        t1 = (tmp_path / "out1" / "trajectory.jsonl").read_text()
        t2 = (tmp_path / "out2" / "trajectory.jsonl").read_text()
        assert strip(t1) == strip(t2)


class TestConfig:
    def test_missing_target_with_distance_term(self, tmp_path):
        cfg_path, _ = minimal_config(
            tmp_path,
            functional={"terms": [{"kind": "target_distance", "weight": 1.0}]},
        )
        with pytest.raises(ConfigError):
            build_run(load_config_dict(cfg_path))

    def test_cli_exit_code_on_config_error(self, tmp_path):
        cfg_path, _ = minimal_config(
            tmp_path,
            functional={"terms": [{"kind": "target_distance", "weight": 1.0}]},
        )
        assert main(["run", str(cfg_path)]) == 2

    def test_io_error_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "missing.json")]) == 2
        assert main(["distance", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 4

    def test_unknown_term_kind(self, tmp_path):
        cfg_path, _ = minimal_config(
            tmp_path, functional={"terms": [{"kind": "wormhole"}]}
        )
        with pytest.raises(ConfigError):
            build_run(load_config_dict(cfg_path))

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        override = tmp_path / "elsewhere"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(override))
        cfg_path, _ = minimal_config(tmp_path)
        assert main(["run", str(cfg_path)]) == 0
        assert (override / "trajectory.jsonl").exists()

    def test_full_flow_config_round_trip(self, tmp_path):
        cfg_path, _ = minimal_config(
            tmp_path,
            target={"generator": {"n": 10, "k": 2, "seed": 5}},
            functional={"terms": [
                {"kind": "target_distance", "weight": 1.0, "debias": True},
                {"kind": "interaction", "form": "class_repulsion", "weight": 0.2},
                {"kind": "entropy", "weight": 0.1},
            ]},
            mode="jd-fl",
            steps=2,
        )
        run_cfg = build_run(load_config_dict(cfg_path))
        assert run_cfg.flow.mode == "jd-fl"
        assert run_cfg.flow.functional.entropy_weight() == 0.1
        assert run_cfg.target is not None

    def test_absent_keys_take_library_defaults(self):
        run_cfg = build_run({
            "source": {"generator": {"n": 10, "k": 2, "seed": 0}},
            "target": {"generator": {"n": 10, "k": 2, "seed": 5}},
            "functional": {"terms": [{"kind": "target_distance"}]},
        })
        term = run_cfg.flow.functional.terms[0]
        library = TargetDistanceTerm(run_cfg.target)
        for attr in ("weight", "reg", "debias", "squared", "max_iter", "tol"):
            assert getattr(term, attr) == getattr(library, attr), attr
        assert run_cfg.flow == FlowConfig(
            functional=run_cfg.flow.functional, optimizer=OptimizerState()
        )

    @pytest.mark.parametrize("rule", ["momentum", "adam", "adagrad"])
    def test_entropy_needs_sgd(self, tmp_path, rule):
        cfg_path, _ = minimal_config(
            tmp_path,
            functional={"terms": [{"kind": "entropy", "weight": 0.1}]},
            optimizer={"rule": rule, "step_size": 0.1},
        )
        with pytest.raises(ConfigError, match="sgd"):
            build_run(load_config_dict(cfg_path))
        assert main(["run", str(cfg_path)]) == 2


    def test_kmeans_needs_positive_cluster_k(self, tmp_path):
        cfg_path, _ = minimal_config(
            tmp_path, mode="jd-vl", relabel_method="kmeans", cluster_k=0
        )
        with pytest.raises(ConfigError, match="cluster_k"):
            build_run(load_config_dict(cfg_path))
        assert main(["run", str(cfg_path)]) == 2

    @pytest.mark.parametrize("sizes", [{"cov": 5.0}, {"means": -1.0}])
    def test_bad_block_step_sizes(self, tmp_path, sizes):
        cfg_path, _ = minimal_config(
            tmp_path, optimizer={"rule": "sgd", "step_size": 0.1, "block_step_sizes": sizes}
        )
        with pytest.raises(ConfigError, match="block"):
            build_run(load_config_dict(cfg_path))
        assert main(["run", str(cfg_path)]) == 2


class TestRunEndToEnd:
    def test_distance_flow_writes_decreasing_objective(self, tmp_path):
        cfg_path, _ = minimal_config(
            tmp_path,
            source={"generator": {"n": 60, "k": 3, "seed": 20, "radius": 2.0}},
            target={"generator": {"n": 60, "k": 3, "seed": 21, "radius": 4.0}},
            functional={"terms": [{"kind": "target_distance", "weight": 1.0}]},
            optimizer={"rule": "sgd", "step_size": 0.05},
            steps=120,
            record_every=30,
        )
        assert main(["run", str(cfg_path)]) == 0
        records = read_trajectory(tmp_path / "out" / "trajectory.jsonl")
        objectives = [r["objective"] for r in records]
        assert objectives[-1] <= 0.1 * objectives[0]
        assert objectives == sorted(objectives, reverse=True)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["status"] == "ok"
        assert (tmp_path / "out" / "frames").exists()

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_divergence_exit_code(self, tmp_path):
        cfg_path, _ = minimal_config(
            tmp_path,
            functional={"terms": [{
                "kind": "potential", "form": "quadratic",
                "params": {"scale": 1e200}, "weight": 1.0,
            }]},
            optimizer={"rule": "sgd", "step_size": 1e200},
            steps=10,
        )
        assert main(["run", str(cfg_path)]) == 3


class TestDistanceCommand:
    def test_prints_value(self, tmp_path, capsys):
        a = generate(GeneratorSpec(n=15, k=2, seed=0))
        b = generate(GeneratorSpec(n=15, k=2, seed=1))
        save_dataset(a, tmp_path / "a.csv")
        save_dataset(b, tmp_path / "b.csv")
        assert main(["distance", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) >= 0.0

    @pytest.mark.parametrize("extra", [[], ["--no-debias"]])
    @pytest.mark.parametrize("reg", ["nan", "inf"])
    def test_nonfinite_reg_exit_code(self, tmp_path, capsys, reg, extra):
        for seed, name in ((0, "a.csv"), (1, "b.csv")):
            save_dataset(generate(GeneratorSpec(n=10, k=2, seed=seed)), tmp_path / name)
        args = ["distance", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"), "--reg", reg]
        assert main(args + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reg must be positive and finite" in captured.err


class TestFrames:
    def test_frame_count_follows_stride(self, tmp_path):
        frames = [
            (i, np.random.default_rng(i).standard_normal((5, 2)), np.zeros(5, dtype=int))
            for i in range(7)
        ]
        for stride in (1, 2, 3):
            out = tmp_path / f"s{stride}"
            paths = export_frames(frames, out, stride=stride)
            assert len(paths) == math.ceil(len(frames) / stride)

    def test_colors_per_label_plus_target(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.standard_normal((12, 2))
        labels = np.arange(12) % 4
        target = (rng.standard_normal((6, 2)), np.zeros(6, dtype=int))
        paths = export_frames([(0, feats, labels)], tmp_path, target=target)
        svg = paths[0].read_text()
        fills = set(re.findall(r'<circle[^>]*fill="(#[0-9a-f]{6})"', svg))
        assert "#b0b0b0" in fills  # target color
        fills.discard("#b0b0b0")
        assert len(fills) == 4

    def test_high_dim_needs_axes(self, tmp_path):
        frames = [(0, np.zeros((3, 5)), np.zeros(3, dtype=int))]
        with pytest.raises(ConfigError):
            export_frames(frames, tmp_path)
        paths = export_frames(frames, tmp_path, axes=(0, 4))
        assert len(paths) == 1

    def test_plot_command(self, tmp_path):
        cfg_path, _ = minimal_config(tmp_path, steps=4)
        assert main(["run", str(cfg_path)]) == 0
        traj = tmp_path / "out" / "trajectory.jsonl"
        assert main(["plot", str(traj), "--stride", "2", "--out", str(tmp_path / "fr")]) == 0
        assert len(list((tmp_path / "fr").glob("*.svg"))) >= 1


class TestConvexityCommand:
    def test_writes_report(self, tmp_path):
        cfg_path, _ = minimal_config(
            tmp_path,
            source={"generator": {"n": 10, "k": 2, "seed": 0}},
            target={"generator": {"n": 10, "k": 2, "seed": 1}},
            functional={"terms": [{"kind": "potential", "form": "quadratic"}]},
            convexity={"lambda_claimed": 1.0},
        )
        assert main(["check-convexity", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "convexity_report.json").read_text())
        assert report["max_violation"] <= 1e-8
        assert len(report["samples"]) == 11

    def test_generalized_base_flag(self, tmp_path):
        cfg_path, _ = minimal_config(
            tmp_path,
            source={"generator": {"n": 10, "k": 2, "seed": 0}},
            target={"generator": {"n": 10, "k": 2, "seed": 1}},
            functional={"terms": [{"kind": "target_distance", "weight": 1.0}]},
            convexity={"lambda_claimed": 0.0, "use_target_base": True},
        )
        assert main(["check-convexity", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "convexity_report.json").read_text())
        assert report["generalized_base"] is True


def _child_python(*args):
    """Run the interpreter in a child process that imports the otflow this
    test imports, installed or not."""
    path = [str(Path(otflow.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = _child_python("-m", "otflow.cli", "--help")
        assert proc.returncode == 0
        assert "distance" in proc.stdout

    def test_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize is most of the import time; only the exact-OT and
        # matching oracles need it, and they import it on first use.
        proc = _child_python("-c", "import sys, otflow; print('scipy.optimize' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_sinkhorn_solves_load_no_scipy(self):
        # Both Sinkhorn solvers run on numpy alone; a scipy.linalg import
        # would add about 20 MB of peak RSS and 0.3 s of set-up to every run.
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import otflow",
            "from otflow.transport import sinkhorn, sinkhorn_symmetric",
            "x = np.random.default_rng(0).standard_normal((30, 2))",
            "cost = ((x[:, None] - x[None]) ** 2).sum(-1)",
            "w = np.full(30, 1 / 30)",
            "sinkhorn(cost, w, w, 0.05 * cost.mean())",
            "sinkhorn_symmetric(cost, w, 0.05 * cost.mean())",
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ])
        proc = _child_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_public_names_sorted_unique_and_bound(self):
        names = otflow.__all__
        assert names == sorted(names)
        assert len(set(names)) == len(names)
        for name in names:
            assert hasattr(otflow, name), name
