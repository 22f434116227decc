"""The shipped example configs must stay runnable end to end."""

import json
from pathlib import Path

import numpy as np
import pytest

from otflow.cli import main
from otflow.config import OUTPUT_DIR_ENV
from otflow.io import read_trajectory

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))
# Final objectives of the configs that the benchmark runs, checked there
# at the same tolerance.
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
OBJECTIVE_RTOL = 1e-5


@pytest.mark.parametrize("config_path", CONFIGS, ids=lambda p: p.stem)
def test_shipped_config_runs(config_path, tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert main(["run", str(config_path)]) == 0
    records = read_trajectory(tmp_path / "trajectory.jsonl")
    assert len(records) >= 2
    assert records[-1]["step"] > records[0]["step"]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "ok"
    if config_path.stem in REFERENCE:
        expected = REFERENCE[config_path.stem]["objective"]
        assert summary["final_objective"] == pytest.approx(expected, rel=OBJECTIVE_RTOL)


def test_mixture_transfer_converges(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert main(["run", str(CONFIG_DIR / "mixture_transfer.json")]) == 0
    records = read_trajectory(tmp_path / "trajectory.jsonl")
    assert records[-1]["objective"] <= 0.01 * records[0]["objective"]


def test_shaping_respects_shell(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert main(["run", str(CONFIG_DIR / "swiss_roll_shaping.json")]) == 0
    records = read_trajectory(tmp_path / "trajectory.jsonl")
    final = np.asarray(records[-1]["features"])
    radii = np.linalg.norm(final, axis=1)
    # the target spiral extends past radius 13; the shell holds the flow in
    assert np.mean(radii <= 8.5) >= 0.95


def test_ou_diffusion_spreads_to_unit_variance(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    assert main(["run", str(CONFIG_DIR / "ou_diffusion.json")]) == 0
    records = read_trajectory(tmp_path / "trajectory.jsonl")
    final = np.asarray(records[-1]["features"])
    cov = np.cov(final.T, bias=True)
    assert np.abs(cov - np.eye(2)).max() < 0.25
