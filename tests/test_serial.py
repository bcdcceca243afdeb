import json
from dataclasses import replace

import numpy as np
import pytest

import pseudobound as pb
from pseudobound.cli import main
from pseudobound.pipeline import PipelineModel
from pseudobound.serial import Serializable


def _bound_inputs():
    return pb.BoundInputs(alpha=0.5, beta=0.5, m=1000, d=2, delta=0.1,
                          big_m=1.0, rho_neg=0.1, rho_pos=0.1, h_delta_h=0.2,
                          ideal_joint_error=0.05, epsilon_t_star=0.0)


def _samples():
    """One instance of every serializable type, most taken from real runs."""
    practice = replace(pb.default_experiment_config("practice"), iterations=1)
    run = pb.run_self_learning(practice)
    rec = run.iterations[0]
    noisy = pb.default_experiment_config("noisy")
    report = pb.assemble_bound(_bound_inputs())
    row = pb.TheoremTrialRow(seed=2 ** 63 + 5, eps_t_hat=0.125, violated=False)
    cell = pb.AblationCell(pb.Toggles(), [0.1, 0.25],
                           [{"trial": 2, "error": "no positives"}], 0.175)
    filtered = pb.FilterReport(kept=7, dropped=1, fence=0.5,
                               estimated_rho_before=rec.rho_before,
                               per_epoch_dropped=[1, 0, 1])
    return [
        pb.AffineMap(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([0.5, -0.5])),
        practice.target,
        pb.PairStrategy.balanced(2),
        pb.PairStrategy.all_pairs(),
        pb.NoiseModel(0.1, 0.2),
        rec.rho_before,
        pb.StumpHypothesis(1, -0.25, -1),
        pb.RiskConfig(2.0, 0.3, 0.6),
        pb.DbscanParams(0.55, 4),
        filtered,
        pb.FilterReport(kept=3, dropped=0, fence=None),
        pb.LinearLearnerConfig(loss_kind=pb.MAE, learning_rate=0.05, epochs=77,
                               l2_penalty=0.5),
        pb.Toggles(True, False, True, False),
        pb.Toggles(),
        pb.default_experiment_config("shifted"),
        practice,
        noisy,
        _bound_inputs(),
        report,
        pb.Lemma2Report(lhs=0.01, rhs=0.2, holds=True, eps_source=0.1,
                        eps_target=0.12, h_delta_h=0.4, ideal_joint_error=0.05),
        pb.ConcentrationRow(0.02, 0.5, 1.9, True),
        row,
        pb.TheoremValidation(0.5, [row, replace(row, violated=True)], report),
        run.final_model,
        PipelineModel(pb.StumpHypothesis(0, 0.5, 1), None, False),
        rec,
        run,
        cell,
        pb.AblationTable([cell, replace(cell, failures=[], mean_final_risk=None)],
                         [3, 4]),
    ]


SAMPLES = _samples()


def test_samples_cover_every_serializable_type():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert {type(s) for s in SAMPLES} == set(subclasses(Serializable))


@pytest.mark.parametrize("obj", SAMPLES,
                         ids=[f"{type(s).__name__}-{i}" for i, s in enumerate(SAMPLES)])
def test_json_round_trip_is_exact_and_byte_stable(obj):
    text = json.dumps(obj.to_dict(), indent=2)
    back = type(obj).from_dict(json.loads(text))
    assert back == obj
    assert json.dumps(back.to_dict(), indent=2) == text


def test_pair_strategy_all_writes_a_null_ratio():
    """An ``all`` strategy has no ratio: it writes null, and loads with the
    key null or omitted."""
    strategy = pb.PairStrategy.all_pairs()
    assert strategy.to_dict() == {"kind": "all", "k_neg_per_pos": None}
    assert json.dumps(strategy.to_dict()) == '{"kind": "all", "k_neg_per_pos": null}'
    for d in (strategy.to_dict(), {"kind": "all"}, {"kind": "all", "k_neg_per_pos": None}):
        assert pb.PairStrategy.from_dict(d) == strategy
    assert pb.PairStrategy.balanced(2).to_dict() == {"kind": "balanced",
                                                     "k_neg_per_pos": 2}
    assert pb.PairStrategy.balanced().k_neg_per_pos == 3


def test_pair_strategy_all_rejects_a_negative_ratio():
    """A ratio on an ``all`` strategy would mean nothing, so it is refused on
    construction."""
    with pytest.raises(pb.ConfigurationError, match="k_neg_per_pos"):
        pb.PairStrategy.from_dict({"kind": "all", "k_neg_per_pos": 5})
    with pytest.raises(pb.ConfigurationError):
        pb.PairStrategy("all", 5)


@pytest.mark.parametrize("d", [{"kind": "balanced"}, {"kind": "balanced", "k_neg_per_pos": None},
                               {"kind": "balanced", "k_neg_per_pos": 0}])
def test_balanced_strategy_needs_a_ratio_of_at_least_one(d):
    """A ``balanced`` strategy names its ratio; a missing one used to load as 3."""
    with pytest.raises(pb.ConfigurationError, match="k_neg_per_pos"):
        pb.PairStrategy.from_dict(d)


def test_noise_estimate_reports_degenerate_and_recomputes_it():
    est = pb.NoiseEstimate(0.6, 0.5, 10, 4)
    d = est.to_dict()
    assert d["degenerate"] is True
    assert pb.NoiseEstimate.from_dict({**d, "degenerate": False}) == est


def test_numpy_scalars_serialize_as_python_scalars():
    spec = replace(pb.default_experiment_config("clean").source, seed=np.int64(11))
    assert json.dumps(spec.to_dict()) == json.dumps(
        pb.default_experiment_config("clean").source.to_dict())


def test_missing_keys_fall_back_to_field_defaults():
    assert pb.Toggles.from_dict({}) == pb.Toggles()
    assert pb.PairStrategy.from_dict({"kind": "all"}) == pb.PairStrategy.all_pairs()


def test_unknown_key_is_rejected_by_name():
    with pytest.raises(pb.ConfigurationError, match="'source_guide'"):
        pb.Toggles.from_dict({"source_guide": False})


def test_lemma2_report_with_the_retired_slack_is_rejected_by_name():
    old = {"lhs": 0.01, "rhs": 0.2, "holds": True, "slack": 0.003,
           "eps_source": 0.1, "eps_target": 0.12, "h_delta_h": 0.4,
           "ideal_joint_error": 0.05}
    with pytest.raises(pb.ConfigurationError, match="'slack' for Lemma2Report"):
        pb.Lemma2Report.from_dict(old)


def test_bound_inputs_with_the_retired_rho_sum_is_rejected_by_name():
    old = {**_bound_inputs().to_dict(), "rho_sum": 0.3}
    with pytest.raises(pb.ConfigurationError, match="'rho_sum' for BoundInputs"):
        pb.BoundInputs.from_dict(old)


def test_missing_required_key_is_rejected_by_name():
    partial = _bound_inputs().to_dict()
    del partial["epsilon_t_star"]
    with pytest.raises(pb.ConfigurationError, match="'epsilon_t_star'"):
        pb.BoundInputs.from_dict(partial)


def test_nested_errors_and_bad_values_are_typed():
    doc = pb.default_experiment_config("noisy").to_dict()
    doc["risk"]["gamma"] = 1.0
    with pytest.raises(pb.ConfigurationError, match="'gamma'"):
        pb.ExperimentConfig.from_dict(doc)
    with pytest.raises(pb.ConfigurationError, match="RiskConfig.big_m"):
        pb.RiskConfig.from_dict({"big_m": "heavy"})
    with pytest.raises(pb.ConfigurationError, match="Toggles.source_guided"):
        pb.Toggles.from_dict({"source_guided": "false"})
    with pytest.raises(pb.ConfigurationError, match="JSON object"):
        pb.Toggles.from_dict([True, True])


@pytest.mark.parametrize("value", [2.5, "3", True])
def test_int_field_takes_only_a_json_integer(value):
    doc = pb.default_experiment_config("practice").to_dict()
    doc["iterations"] = value
    with pytest.raises(pb.ConfigurationError, match="ExperimentConfig.iterations"):
        pb.ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("value", ["0.1", False])
def test_float_field_takes_only_a_json_number(value):
    with pytest.raises(pb.ConfigurationError, match="NoiseModel.rho_pos"):
        pb.NoiseModel.from_dict({"rho_neg": 0.1, "rho_pos": value})
    assert pb.NoiseModel.from_dict({"rho_neg": 0, "rho_pos": 0.25}) == \
        pb.NoiseModel(0.0, 0.25)


def test_str_field_takes_only_a_json_string():
    doc = pb.LinearLearnerConfig().to_dict()
    doc["loss_kind"] = 12.5
    with pytest.raises(pb.ConfigurationError, match="LinearLearnerConfig.loss_kind"):
        pb.LinearLearnerConfig.from_dict(doc)


def test_cli_ablate_rejects_a_misspelled_grid_key(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(
        replace(pb.default_experiment_config("noisy"), trials=1).to_json() + "\n")
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([{"source_guide": False}]))
    assert main(["ablate", "--config", str(cfg_path), "--grid", str(grid_path),
                 "--out", str(tmp_path / "table.csv")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pseudobound: error: ConfigurationError: ")
    assert "'source_guide'" in err


def test_cli_bound_rejects_partial_inputs(tmp_path, capsys):
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps({"alpha": 0.5, "beta": 0.5}))
    assert main(["bound", "--inputs", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("pseudobound: error: ConfigurationError: ")
    assert "'m'" in err
