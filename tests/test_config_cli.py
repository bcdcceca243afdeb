import csv
import json
import math
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pseudobound as pb
from pseudobound.cli import build_parser, main
from pseudobound.config import default_centers


def test_default_centers_geometry():
    centers = default_centers()
    assert centers.shape == (6, 4)
    assert np.allclose(np.linalg.norm(centers, axis=1), 2.5)
    # middle pair differs in the spread coordinate only
    assert np.array_equal(centers[2, [0, 3]] * [-1, 1], centers[3, [0, 3]])
    scatter = np.cov(centers.T, bias=True)
    assert np.abs(scatter[0, 1:]).max() < 1e-15


def test_default_config_kinds():
    clean = pb.default_experiment_config("clean")
    assert clean.noise.kind == pb.SYNTHETIC
    assert clean.noise.model == pb.NoiseModel(0.0, 0.0)
    assert clean.toggles == pb.Toggles.all_off()
    assert clean.target.domain_transform == pb.AffineMap.identity(4)

    noisy = pb.default_experiment_config("noisy")
    assert noisy.noise.model == pb.NoiseModel(0.1, 0.2)
    assert noisy.target.domain_transform == pb.AffineMap.identity(4)

    shifted = pb.default_experiment_config("shifted")
    assert shifted.noise.model == pb.NoiseModel(0.1, 0.2)
    assert shifted.target.domain_transform != pb.AffineMap.identity(4)
    assert shifted.source.domain_transform == pb.AffineMap.identity(4)

    practice = pb.default_experiment_config("practice")
    assert practice.noise.kind == pb.FROM_CLUSTERING
    assert practice.noise.model is None
    assert practice.toggles == pb.Toggles()
    assert practice.iterations == 5

    with pytest.raises(pb.ConfigurationError):
        pb.default_experiment_config("bogus")


REPO = Path(__file__).resolve().parent.parent


def test_shipped_config_files_match_defaults():
    for kind in ("clean", "noisy", "shifted", "practice"):
        path = REPO / "configs" / f"{kind}.json"
        loaded = pb.ExperimentConfig.load(path)
        assert loaded == pb.default_experiment_config(kind)
        assert loaded.to_json() + "\n" == path.read_text()


def test_config_json_round_trip_preserves_everything():
    cfg = replace(pb.default_experiment_config("practice"),
                  master_seed=7, trials=3, delta=0.05)
    assert pb.ExperimentConfig.from_json(cfg.to_json()) == cfg


def test_config_validation():
    base = pb.default_experiment_config("noisy")
    with pytest.raises(pb.ConfigurationError):
        replace(base, iterations=0)
    with pytest.raises(pb.ConfigurationError):
        replace(base, delta=1.0)
    with pytest.raises(pb.ConfigurationError):
        replace(base, oracle_pairs=100)
    with pytest.raises(pb.ConfigurationError):
        replace(base, m_train=1)
    narrow = pb.DomainSpec(
        num_identities=2, feature_dim=2,
        identity_centers=np.array([[0.0, 0.0], [3.0, 3.0]]),
        within_identity_stddev=0.3,
        domain_transform=pb.AffineMap.identity(2), seed=1,
    )
    with pytest.raises(pb.ConfigurationError):
        replace(base, source=narrow)


def test_noise_mode_constraints():
    with pytest.raises(pb.ConfigurationError):
        pb.NoiseMode(pb.SYNTHETIC)  # needs rates
    with pytest.raises(pb.ConfigurationError):
        pb.NoiseMode(pb.FROM_CLUSTERING, pb.NoiseModel(0.1, 0.1))
    with pytest.raises(pb.ConfigurationError):
        pb.NoiseMode("gaussian")
    mode = pb.NoiseMode.synthetic(pb.NoiseModel(0.2, 0.1))
    assert pb.NoiseMode.from_dict(mode.to_dict()) == mode


def test_toggles_validation_and_round_trip():
    t = pb.Toggles(True, False, True, pb.OFFLINE)
    assert pb.Toggles.from_dict(t.to_dict()) == t
    assert pb.Toggles.all_off().outlier_filtering == pb.FILTER_NONE
    with pytest.raises(pb.ConfigurationError):
        pb.Toggles(outlier_filtering="sometimes")
    cfg = pb.default_experiment_config("clean")
    swapped = replace(cfg, toggles=t)
    assert swapped.toggles == t
    assert swapped.master_seed == cfg.master_seed


def small_noisy_config(tmp_path, **overrides):
    cfg = replace(pb.default_experiment_config("noisy"), **overrides)
    path = tmp_path / "config.json"
    cfg.save(path)
    return cfg, str(path)


def test_cli_requires_a_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_cli_verify_bound(tmp_path, capsys):
    cfg, cfg_path = small_noisy_config(tmp_path)
    out = tmp_path / "trials.csv"
    code = main(["verify-bound", "--config", cfg_path, "--trials", "3",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(pb.TRIAL_CSV_COLUMNS)
    assert len(rows) == 4
    assert all(r[6] in ("0", "1") for r in rows[1:])
    for r in rows[1:]:
        assert float(r[7]) == pytest.approx(float(r[4]) - float(r[5]), abs=1e-8)
    printed = dict(tok.split("=") for tok in capsys.readouterr().out.split())
    assert set(printed) == {"trials", "violation_rate", "delta", "rhs", "vacuous",
                            "slack"}
    rhs = float(printed["rhs"])
    assert printed["vacuous"] == str(rhs >= cfg.risk.big_m) == "True"
    worst = max(float(r[5]) for r in rows[1:])
    assert float(printed["slack"]) == pytest.approx(rhs - worst, abs=1e-8)


def test_cli_verify_bound_rejects_negative_seed(tmp_path, capsys):
    _, cfg_path = small_noisy_config(tmp_path)
    code = main(["verify-bound", "--config", cfg_path, "--trials", "3",
                 "--seed", "-1", "--out", str(tmp_path / "trials.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("pseudobound: error: ConfigurationError: ")
    assert "got -1" in err
    assert len(err.splitlines()) == 1


def _file_argvs(tmp_path, path):
    """One command line per option that reads a JSON file, reading ``path``."""
    _, cfg_path = small_noisy_config(tmp_path)
    out = str(tmp_path / "out")
    return [
        ["run", "--config", path, "--out", out],
        ["verify-bound", "--config", path, "--out", out],
        ["lemmas", "--config", path, "--which", "3", "--out", out],
        ["ablate", "--config", path, "--out", out],
        ["ablate", "--config", cfg_path, "--grid", path, "--out", out],
        ["bound", "--inputs", path],
    ]


def test_cli_reports_a_truncated_json_file_on_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": 0.5, "beta"')
    for argv in _file_argvs(tmp_path, str(bad)):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("pseudobound: error: JSONDecodeError: "), argv
        assert len(err.splitlines()) == 1


def test_cli_reports_a_missing_file_on_one_line(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for argv in _file_argvs(tmp_path, missing):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith("pseudobound: error: FileNotFoundError: "), argv
        assert missing in err
        assert len(err.splitlines()) == 1


@pytest.mark.parametrize("removed", ["linear_probe", "weight_decay"])
def test_cli_rejects_removed_keys_by_name(tmp_path, capsys, removed):
    """Config and grid files written before the linear probe and its
    weight-decay toggle were removed fail on the stale key."""
    cfg, cfg_path = small_noisy_config(tmp_path, trials=1, iterations=1)
    if removed == "linear_probe":
        doc = cfg.to_dict()
        doc["linear_probe"] = None
        Path(cfg_path).write_text(json.dumps(doc))
        argv = ["run", "--config", cfg_path, "--out", str(tmp_path / "r.json")]
    else:
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([dict(pb.Toggles().to_dict(), weight_decay=0.0)]))
        argv = ["ablate", "--config", cfg_path, "--grid", str(grid),
                "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("pseudobound: error: ConfigurationError: ")
    assert repr(removed) in err


def test_cli_lemmas_concentration(tmp_path):
    cfg, cfg_path = small_noisy_config(tmp_path)
    out = tmp_path / "lemma3.json"
    code = main(["lemmas", "--config", cfg_path, "--which", "3",
                 "--trials", "80", "--seed", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["which"] == 3
    assert payload["holds_all"] is True
    assert len(payload["rows"]) == 10
    assert "hypothesis" in payload


def test_cli_lemmas_deviation(tmp_path):
    cfg, cfg_path = small_noisy_config(tmp_path)
    out = tmp_path / "lemma2.json"
    code = main(["lemmas", "--config", cfg_path, "--which", "2",
                 "--stumps", "2", "--seed", "0", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["which"] == 2
    assert payload["holds_all"] is True
    assert len(payload["reports"]) == 2
    for report in payload["reports"]:
        assert report["holds"] is True
        assert report["lhs"] <= report["rhs"]


def test_cli_run(tmp_path, capsys):
    cfg, cfg_path = small_noisy_config(tmp_path, iterations=2)
    out = tmp_path / "run.json"
    code = main(["run", "--config", cfg_path, "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["iterations"]) == 2
    assert payload["final_report"]["rhs"] > 0
    assert "vacuous" not in payload["final_report"]
    printed = capsys.readouterr().out
    assert "final_risk=" in printed
    assert "vacuous=True " in printed     # noisy at m = 400: rhs 3.77


def test_cli_ablate_with_grid_file(tmp_path):
    cfg, cfg_path = small_noisy_config(tmp_path, trials=1, iterations=1)
    grid_path = tmp_path / "grid.json"
    grid = [pb.Toggles.all_off().to_dict(),
            pb.Toggles(True, False, False, pb.FILTER_NONE).to_dict()]
    grid_path.write_text(json.dumps(grid))
    out = tmp_path / "ablation.csv"
    code = main(["ablate", "--config", cfg_path, "--grid", str(grid_path),
                 "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["source_guided", "domain_alignment", "bounded_loss",
                       "outlier_filtering", "trials_ok", "trials_failed",
                       "mean_final_risk"]
    assert len(rows) == 3
    assert rows[1][:4] == ["0", "0", "0", "none"]
    assert rows[2][:4] == ["1", "0", "0", "none"]
    assert all(r[4] == "1" and r[5] == "0" for r in rows[1:])


BOUND_INPUTS = {
    "alpha": 0.5, "beta": 0.5, "m": 1000, "d": 2, "delta": 0.1,
    "big_m": 1.0, "rho_neg": 0.1, "rho_pos": 0.1, "h_delta_h": 0.2,
    "ideal_joint_error": 0.05, "epsilon_t_star": 0.0,
}


def test_cli_bound_prints_report(tmp_path, capsys):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(BOUND_INPUTS))
    code = main(["bound", "--inputs", str(path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rhs"] == pytest.approx(1.657301, abs=1e-5)


def test_cli_bound_rejects_risks_outside_their_range(tmp_path, capsys):
    path = tmp_path / "inputs.json"
    for key, value in (("epsilon_t_star", -3.0), ("ideal_joint_error", 2.5)):
        path.write_text(json.dumps({**BOUND_INPUTS, key: value}))
        assert main(["bound", "--inputs", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("pseudobound: error: ConfigurationError: ")
        assert key in err


def test_cli_bound_rejects_an_infinite_big_m(tmp_path, capsys):
    """At alpha = 1 an infinite M made dd_term 0 * inf, a NaN rhs."""
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({**BOUND_INPUTS, "alpha": 1.0, "big_m": math.inf}))
    assert "Infinity" in path.read_text()
    assert main(["bound", "--inputs", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pseudobound: error: ConfigurationError: ")
    assert "big_m must be positive and finite" in err
    with pytest.raises(pb.ConfigurationError, match="finite"):
        pb.RiskConfig(big_m=math.inf)


def _readme_blocks(lang):
    text = (REPO / "README.md").read_text()
    return [block.split("\n", 1)[1] for block in text.split("```")[1::2]
            if block.startswith(lang + "\n")]


def test_readme_command_lines_parse():
    commands = []
    for block in _readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("pseudobound "):
                commands.append(shlex.split(line)[1:])
    assert len(commands) == 5
    parser = build_parser()
    for argv in commands:
        args = parser.parse_args(argv)
        assert args.command == argv[0]


def test_readme_bound_inputs_example_loads():
    (block,) = _readme_blocks("json")
    report = pb.assemble_bound(pb.BoundInputs.from_dict(json.loads(block)))
    assert report.rhs == pytest.approx(1.657301, abs=1e-5)
