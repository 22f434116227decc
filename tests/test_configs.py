"""The shipped example configs must stay runnable end to end, and a config
runs exactly what it says: a key the engine would not read is an error."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from otflow.cli import main
from otflow.config import OUTPUT_DIR_ENV, build_run
from otflow.errors import ConfigError
from otflow.functionals import POTENTIAL_FORMS
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


def ou_config(edit):
    cfg = json.loads((CONFIG_DIR / "ou_diffusion.json").read_text())
    edit(cfg)
    return cfg


def add_term(**term):
    return lambda cfg: cfg["functional"]["terms"].append(term)


def distance_term(**settings):
    def edit(cfg):
        cfg["target"] = {"generator": cfg["source"]["generator"]}
        cfg["functional"]["terms"].append({"kind": "target_distance", **settings})

    return edit


def run_exit(cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", str(path)])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda cfg: cfg.update(stepz=5), "stepz"),
        (lambda cfg: cfg["optimizer"].update(stepsize=9.0), "stepsize"),
        (lambda cfg: cfg["functional"]["terms"][1]["params"].update(scael=3.0), "scael"),
        (add_term(kind="interaction", form="class_repulsion", wieght=2), "wieght"),
        (add_term(kind="interaction", form="class_repulsion", params={"bandwidth": 5}), "params"),
    ],
    ids=["stepz", "optimizer.stepsize", "potential.scael", "interaction.wieght",
         "interaction.params"],
)
def test_typo_exits_2_naming_the_key(edit, key, tmp_path, monkeypatch, capsys):
    code, err = run_exit(ou_config(edit), tmp_path, monkeypatch, capsys)
    assert code == 2
    assert repr(key) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "edit, key",
    [
        (distance_term(debias="false"), "debias"),
        (lambda cfg: cfg.update(steps=2.5), "steps"),
        (lambda cfg: cfg["optimizer"].update(step_size="0.1"), "step_size"),
        (lambda cfg: cfg.update(seed=True), "seed"),
        (lambda cfg: cfg["functional"]["terms"][1].update(form="quadratc"), "quadratc"),
        (add_term(kind="interaction", form="class_repulsoin"), "class_repulsoin"),
        (lambda cfg: cfg["source"]["generator"].update(extra={"twist": 1}), "extra"),
        (lambda cfg: cfg["optimizer"].update(buffers={}), "buffers"),
        (lambda cfg: cfg["optimizer"].update(step_count=7), "step_count"),
        (lambda cfg: cfg["plot"].update(strid=2), "strid"),
        (lambda cfg: cfg.update(convexity={"lambda": 1.0}), "lambda"),
        (lambda cfg: cfg["functional"].update(term=[]), "term"),
        (lambda cfg: cfg.update(source={"path": "data.csv", "labels_pth": "l.idx"}),
         "labels_pth"),
        (lambda cfg: cfg["source"].update(path="data.csv"), "generator"),
        (distance_term(reg=-1.0), "reg"),
        (distance_term(tol=0.0), "tol"),
        (lambda cfg: cfg.update(output_dir=5), "output_dir"),
    ],
    ids=["debias-string", "steps-float", "step_size-string", "seed-bool", "potential-form",
         "interaction-form", "generator.extra", "optimizer.buffers", "optimizer.step_count",
         "plot.strid", "convexity.lambda", "functional.term", "path.labels_pth",
         "generator-and-path", "reg-negative", "tol-zero", "output_dir-number"],
)
def test_rejected_at_build_time(edit, key, tmp_path, monkeypatch, capsys):
    with pytest.raises(ConfigError, match=re.escape(key)):
        build_run(ou_config(edit))
    code, err = run_exit(ou_config(edit), tmp_path, monkeypatch, capsys)
    assert code == 2 and key in err


@pytest.mark.parametrize(
    "section, values, key",
    [
        ("plot", {"axes": [0, 5]}, "axis pair [0, 5]"),
        ("plot", {"axes": [0, 1.0]}, "axes"),
        ("plot", {"stride": 2.5}, "stride"),
        ("plot", {"stride": 0}, "stride"),
        ("plot", {"stride": True}, "stride"),
        ("plot", {"enabled": "false"}, "enabled"),
        ("plot", {"colors": "red"}, "colors"),
        ("convexity", {"lambda_claimed": "1.0"}, "lambda_claimed"),
        ("convexity", {"use_target_base": 1}, "use_target_base"),
    ],
    ids=["axes-out-of-range", "axes-float", "stride-float", "stride-zero", "stride-bool",
         "enabled-string", "colors-string", "lambda-string", "base-number"],
)
def test_plot_and_convexity_values_rejected_before_the_flow(
    section, values, key, tmp_path, monkeypatch, capsys
):
    cfg = ou_config(lambda cfg: cfg.update({section: values}))
    with pytest.raises(ConfigError, match=re.escape(key)):
        build_run(cfg)
    code, err = run_exit(cfg, tmp_path, monkeypatch, capsys)
    assert code == 2 and key in err
    assert not (tmp_path / "out").exists()


def potential(form, **params):
    return add_term(kind="potential", form=form, params=params)


def small_jdvl(cfg):
    cfg["source"]["generator"].update(n=20, k=2)
    cfg.update(mode="jd-vl", steps=4, relabel_method="kmeans", cluster_k=50, relabel_every=2)


@pytest.mark.parametrize(
    "edit, key",
    [
        (add_term(kind="potential", form="linear", params={}), "normal"),
        (add_term(kind="potential", form="class_affine_norm",
                  params={"per_class": {"0": {"offset": [0.0, 0.0]}}}), "matrix"),
        (small_jdvl, "cluster_k 50"),
        # Params that do not fit the 2-D, single-class source data.
        (potential("linear", normal=[1.0, 0.0, 0.0]), "'normal' has dimension 3, expected 2"),
        (potential("hinge", normal=[1.0]), "'normal' has dimension 1, expected 2"),
        (potential("quadratic", center=[0.0, 0.0, 0.0]), "'center' has dimension 3"),
        (potential("radial_shell", center=[0.0]), "'center' has dimension 1"),
        (potential("affine_norm", matrix=[[1.0, 0.0, 0.0]]), "'matrix' has dimension 3"),
        (potential("class_affine_norm", per_class={"0": {"matrix": [[1.0, 0.0, 0.0]]}}),
         "'matrix' has dimension 3"),
        (potential("class_affine_norm", per_class={"1": {"matrix": [[1.0, 0.0]]}}),
         "missing class 0"),
    ],
    ids=["linear-normal", "class_affine_norm-matrix", "kmeans-cluster_k", "linear-normal-dim",
         "hinge-normal-dim", "quadratic-center-dim", "radial_shell-center-dim",
         "affine_norm-matrix-columns", "class_affine_norm-matrix-columns",
         "class_affine_norm-missing-class"],
)
def test_runtime_faults_exit_2_before_the_flow(edit, key, tmp_path, monkeypatch, capsys):
    with pytest.raises(ConfigError, match=key):
        build_run(ou_config(edit))
    code, err = run_exit(ou_config(edit), tmp_path, monkeypatch, capsys)
    assert code == 2 and key in err
    assert not (tmp_path / "out").exists()


def test_plot_and_convexity_values_pass_as_given():
    plot = {"enabled": False, "stride": None, "axes": [1, 0], "colors": ["#000000"]}
    run_cfg = build_run(ou_config(lambda cfg: cfg.update(
        plot=plot, convexity={"lambda_claimed": 1, "use_target_base": None})))
    assert run_cfg.plot == {"enabled": False, "axes": [1, 0], "colors": ["#000000"]}
    assert run_cfg.convexity == {"lambda_claimed": 1}


def test_null_takes_the_library_default():
    absent = build_run(ou_config(lambda cfg: None))
    nulled = build_run(ou_config(lambda cfg: cfg.update(
        relabel_every=None, optimizer={**cfg["optimizer"], "momentum": None})))
    assert nulled.flow.relabel_every == absent.flow.relabel_every == 10
    assert nulled.flow.optimizer == absent.flow.optimizer


def readme_config():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    return json.loads(blocks[0])


def test_readme_config_builds():
    run_cfg = build_run(readme_config())
    assert [t.kind for t in run_cfg.flow.functional.terms] == ["target_distance", "interaction"]
    assert run_cfg.flow.steps == 300


def test_readme_lists_each_potential_form_with_its_params():
    readme = (ROOT / "README.md").read_text()
    for form, keys in POTENTIAL_FORMS.items():
        line = next((ln for ln in readme.splitlines() if ln.startswith(f"- `{form}`:")), None)
        assert line is not None, form
        assert re.findall(r"`(\w+)`", line)[1:] == list(keys), form
