import dataclasses
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import pseudobound as pb
from pseudobound import pipeline
from pseudobound.bound import oracle_bound_inputs


def synthetic_guided_toggles(filtering=pb.FILTER_NONE):
    return pb.Toggles(source_guided=True, domain_alignment=False,
                      bounded_loss=False, outlier_filtering=filtering)


def test_synthetic_single_iteration_equals_theorem_trial():
    """One noisy pipeline iteration is exactly a theorem-validation trial."""
    cfg = replace(pb.default_experiment_config("noisy"),
                  toggles=synthetic_guided_toggles(), iterations=1)
    result = pb.run_self_learning(cfg)
    validation = pb.validate_theorem(cfg, trials=1, rng_seed=cfg.master_seed)
    row = validation.rows[0]
    assert result.iterations[0].target_oracle_risk == row.eps_t_hat
    assert result.final_report.rhs == validation.report.rhs


def test_synthetic_run_reports_the_oracle_bound_inputs():
    cfg = pb.default_experiment_config("noisy")
    result = pb.run_self_learning(cfg)
    assert result.final_report.inputs == oracle_bound_inputs(cfg, cfg.master_seed)[0]


# Stumps the target risk scorers are compared on: random ones, both signs
# at +-inf and at 0.
_PROBE_STUMPS = [pb.random_stump(s, 4, (-1.0, 4.0)) for s in range(40)] + [
    pb.StumpHypothesis(j, t, s) for j in range(4)
    for t in (-np.inf, 0.0, np.inf) for s in (1, -1)]


def test_identity_member_maps_leave_oracle_inputs_unchanged():
    cfg = pb.default_experiment_config("shifted")
    plain, plain_risks = oracle_bound_inputs(cfg, 5)
    mapped, mapped_risks = oracle_bound_inputs(cfg, 5, pb.AffineMap.identity(4),
                                               normalize=False)
    assert mapped == plain
    assert mapped_risks(_PROBE_STUMPS) == plain_risks(_PROBE_STUMPS)


def test_practice_default_report_is_pinned():
    """The default practice run's bound, pinned bit for bit: changes to the
    bound-input path must not move it."""
    result = pb.run_self_learning(pb.default_experiment_config("practice"))
    assert result.final_report.to_dict() == {
        "inputs": {
            "alpha": 0.5, "beta": 0.5, "m": 1169, "d": 4, "delta": 0.1,
            "big_m": 1.0, "rho_neg": 0.017278617710583154, "rho_pos": 0.0,
            "h_delta_h": 0.421875, "ideal_joint_error": 0.07726666666666666,
            "epsilon_t_star": 0.0349,
        },
        "noise_term": 1.6034175853924502,
        "complexity_term": 0.2461461779524175,
        "dd_term": 0.14410208333333333,
        "rhs": 1.901804607890849,
    }


def test_synthetic_iterations_are_independent_corruption_redraws():
    """Pair draws are shared across iterations; only the corruption differs,
    so a clean run repeats the same hypothesis and risk every iteration."""
    cfg = replace(pb.default_experiment_config("clean"), iterations=3)
    assert cfg.toggles == pb.Toggles.all_off()
    result = pb.run_self_learning(cfg)
    risks = [r.target_oracle_risk for r in result.iterations]
    assert len(result.iterations) == 3
    assert risks[0] == risks[1] == risks[2]
    hyps = {r.hypothesis for r in result.iterations}
    assert len(hyps) == 1
    assert result.final_risk == risks[-1]


def test_synthetic_noisy_run_records_rates_and_filters():
    cfg = replace(pb.default_experiment_config("noisy"),
                  toggles=synthetic_guided_toggles(pb.OFFLINE_PLUS_ONLINE),
                  iterations=3)
    result = pb.run_self_learning(cfg)
    for rec in result.iterations:
        assert rec.rho_before is not None
        assert rec.filter_report is not None
        assert rec.rho_after is not None
        before = rec.rho_before.rho_neg + rec.rho_before.rho_pos
        after = rec.rho_after.rho_neg + rec.rho_after.rho_pos
        assert after <= before
        assert rec.n_target_pairs == rec.filter_report.kept


# sha256 of each run's canonical JSON (to_dict() without wall_time, keys
# sorted).  No benchmark checksum covers these runs, so a refactor of the
# loop that moves any output shows up here.  Re-pinned when the linear probe
# left the config (only config_fingerprint and the linear_probe key moved),
# when the 1-alpha^2 noise term left the bound report (only its four keys
# moved) and when the oracle became exact (only target_oracle_risk,
# epsilon_t_star, ideal_joint_error, dd_term and rhs moved).
_PINNED_SYNTHETIC = {
    ("noisy", False, pb.FILTER_NONE):
        "501dd9ace3857b5864c8dd8dca51f310370805dc1da85a12e4d7f18f7b09711c",
    ("noisy", False, pb.OFFLINE_PLUS_ONLINE):
        "66b6927cbcd56eb6c846b842f05c04ec13e7268e6d209b9344da0281a2329ea2",
    ("noisy", True, pb.FILTER_NONE):
        "c638ef1a9910edefa6097e76c225e7ed74e72ecc13e90b8ff1afa6cda5385b4f",
    ("noisy", True, pb.OFFLINE_PLUS_ONLINE):
        "91abe7765a88736288cbd9b4cd5aa88ca06311f658897f8c7a4b3dd98c717f95",
    ("shifted", False, pb.FILTER_NONE):
        "d5f6b1e650814967ddc30564437f0c2757b53ebb8b943bc516d5b6faa3284088",
    ("shifted", False, pb.OFFLINE_PLUS_ONLINE):
        "3404c780befd798d07ce9495da3352f08fb050ae352802d98135f007b08b0946",
    ("shifted", True, pb.FILTER_NONE):
        "76ae893413c19616831ce47fb5b2cf8614684799f84a7e23ca2ebfe159483438",
    ("shifted", True, pb.OFFLINE_PLUS_ONLINE):
        "c47a7e42bd6124ed72c446fd5cfe18f385a7b98e2b28603ef48215ba1d0d6c47",
}


@pytest.mark.parametrize("kind, guided, filtering", sorted(_PINNED_SYNTHETIC))
def test_synthetic_runs_are_pinned(kind, guided, filtering):
    """Three-iteration synthetic runs, pinned bit for bit."""
    toggles = replace(pb.Toggles.all_off(), source_guided=guided,
                      outlier_filtering=filtering)
    cfg = replace(pb.default_experiment_config(kind), toggles=toggles,
                  iterations=3)
    doc = pb.run_self_learning(cfg).to_dict()
    del doc["wall_time"]
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == _PINNED_SYNTHETIC[kind, guided, filtering]


def test_synthetic_failure_wraps_iteration_context():
    """One target pair holds one true class, so its flip rates are undefined."""
    cfg = replace(pb.default_experiment_config("noisy"), m_train=2)
    with pytest.raises(pb.PipelineError, match="iteration 0 failed") as exc_info:
        pb.run_self_learning(cfg)
    assert exc_info.value.iteration == 0
    assert exc_info.value.partial == []
    assert isinstance(exc_info.value.__cause__, pb.UndefinedRateError)


def test_synthetic_run_is_deterministic():
    cfg = replace(pb.default_experiment_config("noisy"), iterations=2)
    a = pb.run_self_learning(cfg)
    b = pb.run_self_learning(cfg)
    assert a.iterations[-1].hypothesis == b.iterations[-1].hypothesis
    assert a.final_risk == b.final_risk
    assert a.final_report.rhs == b.final_report.rhs


def test_practice_run_structure():
    cfg = pb.default_experiment_config("practice")
    result = pb.run_self_learning(cfg)
    assert len(result.iterations) == cfg.iterations
    first = result.iterations[0]
    assert first.n_clusters >= 1
    assert first.n_noise_points >= 0
    assert first.rho_before is not None
    assert result.final_model.align_map is not None
    assert result.final_model.normalize
    # alignment and normalization bring the pair similarity features closer
    assert first.mmd_sim_after < first.mmd_sim_before
    assert result.final_report.rhs > 0
    assert np.isfinite(result.final_report.rhs)
    assert result.wall_time > 0


def test_practice_all_off_skips_optional_stages():
    cfg = replace(pb.default_experiment_config("practice"),
                  toggles=pb.Toggles.all_off(), iterations=1)
    result = pb.run_self_learning(cfg)
    assert result.final_model.align_map is None
    assert not result.final_model.normalize
    rec = result.iterations[0]
    assert rec.rho_after is None
    assert rec.filter_report is None


def test_pipeline_model_member_prediction():
    stump = pb.StumpHypothesis(0, 0.5, -1)
    model = pb.PipelineModel(stump, None, False)
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    members = np.array([[0, 1], [0, 2], [1, 2]])
    sim = np.abs(feats[members[:, 0]] - feats[members[:, 1]])
    assert np.array_equal(model.predict_members(feats, members),
                          stump.predict(sim))
    normed = pb.PipelineModel(stump, None, True)
    assert np.array_equal(normed.transform_target_members(feats),
                          pb.unit_normalize(feats))
    shift = pb.AffineMap(np.eye(2), np.array([1.0, 0.0]))
    mapped = pb.PipelineModel(stump, shift, False)
    assert np.array_equal(mapped.transform_target_members(feats), feats + [1, 0])


def test_experiment_result_serialization():
    cfg = replace(pb.default_experiment_config("noisy"), iterations=1)
    result = pb.run_self_learning(cfg)
    expected = hashlib.sha256(cfg.to_json().encode()).hexdigest()
    assert result.config_fingerprint == expected
    round_trip = json.loads(json.dumps(result.to_dict()))
    assert round_trip["config_fingerprint"] == expected
    assert len(round_trip["iterations"]) == 1
    assert round_trip["final_report"]["rhs"] == result.final_report.rhs


def test_practice_filtering_lowers_measured_rates_vs_unfiltered_run():
    """Paired runs differing only in outlier_filtering: the filtered run's
    effective rate stays at or below the unfiltered run's, per iteration."""
    base = replace(pb.default_experiment_config("practice"), iterations=2)
    filtered = pb.run_self_learning(base)
    unfiltered = pb.run_self_learning(
        replace(base, toggles=replace(base.toggles,
                                      outlier_filtering=pb.FILTER_NONE)))
    for rec_f, rec_n in zip(filtered.iterations, unfiltered.iterations):
        eff = rec_f.rho_after if rec_f.rho_after is not None else rec_f.rho_before
        assert (eff.rho_neg + eff.rho_pos
                <= rec_n.rho_before.rho_neg + rec_n.rho_before.rho_pos)


def test_practice_failure_wraps_iteration_context():
    cfg = replace(pb.default_experiment_config("practice"),
                  dbscan_params=pb.DbscanParams(1e-9, 4), iterations=2)
    with pytest.raises(pb.PipelineError) as exc_info:
        pb.run_self_learning(cfg)
    assert exc_info.value.iteration == 0


def test_ablation_paired_seeds_and_cell_lookup():
    base = replace(pb.default_experiment_config("noisy"), trials=2, iterations=2)
    grid = [pb.Toggles.all_off(), synthetic_guided_toggles(),
            synthetic_guided_toggles(pb.OFFLINE_PLUS_ONLINE)]
    table = pb.run_ablation(base, grid)
    assert table.trial_seeds == [pb.derive_seed(base.master_seed, 30, t)
                                 for t in range(2)]
    assert [c.toggles for c in table.cells] == grid
    for cell in table.cells:
        assert len(cell.final_risks) == 2
        assert cell.failures == []
        assert cell.mean_final_risk == pytest.approx(np.mean(cell.final_risks))
    with pytest.raises(KeyError):
        table.cell(pb.Toggles(True, True, True, pb.OFFLINE))


def test_ablation_cell_reproduces_direct_runs():
    base = replace(pb.default_experiment_config("noisy"), trials=2, iterations=2)
    toggles = synthetic_guided_toggles()
    table = pb.run_ablation(base, [toggles])
    cell = table.cell(toggles)
    for t, seed in enumerate(table.trial_seeds):
        direct = pb.run_self_learning(replace(base, toggles=toggles,
                                              master_seed=seed))
        assert cell.final_risks[t] == direct.final_risk


def test_ablation_marks_failures_instead_of_aborting():
    base = replace(pb.default_experiment_config("practice"),
                   dbscan_params=pb.DbscanParams(1e-9, 4),
                   trials=1, iterations=1)
    table = pb.run_ablation(base, [base.toggles])
    cell = table.cells[0]
    assert cell.final_risks == []
    assert len(cell.failures) == 1
    assert cell.failures[0]["trial"] == 0
    assert cell.mean_final_risk is None


def test_ablation_rejects_empty_grid():
    base = replace(pb.default_experiment_config("noisy"), trials=1)
    with pytest.raises(pb.EmptyInputError):
        pb.run_ablation(base, [])


def test_default_toggle_grid_is_every_binary_combination():
    grid = pb.default_toggle_grid()
    assert len(grid) == 16
    assert set(grid) == {
        pb.Toggles(sg, da, bl, of)
        for sg in (False, True) for da in (False, True) for bl in (False, True)
        for of in (pb.FILTER_NONE, pb.OFFLINE_PLUS_ONLINE)
    }


def _small_practice():
    """Practice config with the smallest oracle draws, for memo tests."""
    return replace(pb.default_experiment_config("practice"),
                   oracle_pairs=10_000, discrepancy_sample=32)


def _practice_align_map(cfg, seed):
    target = pb.generate_domain(cfg.target, cfg.n_target_samples,
                                pb.derive_seed(seed, 20))
    source = pb.generate_domain(cfg.source, cfg.n_source_samples,
                                pb.derive_seed(seed, 21))
    return pb.align_moments(source, target)[1]


@pytest.mark.parametrize("use_map, normalize",
                         [(False, False), (False, True), (True, False), (True, True)])
def test_oracle_memo_hit_equals_a_fresh_estimate(use_map, normalize):
    cfg, seed = _small_practice(), 41
    amap = _practice_align_map(cfg, seed) if use_map else None
    fresh, fresh_risks = oracle_bound_inputs(cfg, seed, amap, normalize)
    pipeline._oracle_memo.clear()
    missed, missed_risks = pipeline._oracle_side(cfg, seed, amap, normalize)
    hit, hit_risks = pipeline._oracle_side(cfg, seed, amap, normalize)
    assert len(pipeline._oracle_memo) == 1
    assert missed == hit == fresh
    expected = fresh_risks(_PROBE_STUMPS)
    assert missed_risks(_PROBE_STUMPS) == hit_risks(_PROBE_STUMPS) == expected


def test_oracle_key_covers_every_field_oracle_bound_inputs_reads():
    """Each config field either enters the memo key or cannot change the
    oracle estimates; a new field must be placed here before this passes."""
    cfg, seed = _small_practice(), 43
    amap = _practice_align_map(cfg, seed)
    other = {
        "source": replace(cfg.source, seed=99),
        "target": replace(cfg.target, seed=99),
        "strategy": pb.PairStrategy.balanced(2),
        "risk": replace(cfg.risk, alpha=0.25),
        "noise": pb.NoiseMode.synthetic(pb.NoiseModel(0.1, 0.2)),
        "dbscan_params": pb.DbscanParams(0.3, 3),
        "toggles": pb.Toggles.all_off(),
        "iterations": 2, "trials": 3, "master_seed": 7, "delta": 0.05,
        "m_train": 300, "n_target_samples": 50, "n_source_samples": 50,
        "max_target_pairs": 100, "oracle_pairs": 12_000,
        "discrepancy_sample": 48, "refine_scale": 3.0,
    }
    assert set(other) == {f.name for f in dataclasses.fields(pb.ExperimentConfig)}
    key = pipeline._oracle_key(cfg, seed, amap, True)
    assert key != pipeline._oracle_key(cfg, seed + 1, amap, True)
    assert key != pipeline._oracle_key(cfg, seed, None, True)
    assert key != pipeline._oracle_key(cfg, seed, amap, False)
    base, base_risks = oracle_bound_inputs(cfg, seed, amap, True)
    for name, value in other.items():
        changed = replace(cfg, **{name: value})
        if name in pipeline._ORACLE_FIELDS:
            assert pipeline._oracle_key(changed, seed, amap, True) != key, name
        else:
            inputs, risks = oracle_bound_inputs(changed, seed, amap, True)
            assert inputs == base, name
            assert risks(_PROBE_STUMPS) == base_risks(_PROBE_STUMPS), name


def test_oracle_memo_stays_within_its_bound(monkeypatch):
    cfg = _small_practice()
    assert pipeline._ORACLE_MEMO_SIZE >= 80   # ablate's 20 trials x 4 maps
    monkeypatch.setattr(pipeline, "_ORACLE_MEMO_SIZE", 2)
    pipeline._oracle_memo.clear()
    for seed in range(4):
        pipeline._oracle_side(cfg, seed, None, False)
        assert len(pipeline._oracle_memo) <= 2
    assert [k[1] for k in pipeline._oracle_memo] == [2, 3]   # oldest dropped


def test_oracle_memo_keys_ignore_the_sign_of_zeros():
    cfg, seed = _small_practice(), 44
    src = cfg.source
    signed = replace(cfg, source=replace(
        src, identity_centers=np.where(src.identity_centers == 0, -0.0,
                                       src.identity_centers),
        domain_transform=pb.AffineMap(src.domain_transform.matrix,
                                      -src.domain_transform.offset)))
    plus = pb.AffineMap.identity(src.feature_dim)
    minus = pb.AffineMap(plus.matrix, -plus.offset)
    assert signed.source.identity_centers.tobytes() != src.identity_centers.tobytes()
    pipeline._oracle_memo.clear()
    first, _ = pipeline._oracle_side(cfg, seed, plus, False)
    second, _ = pipeline._oracle_side(signed, seed, minus, False)
    assert len(pipeline._oracle_memo) == 1
    assert first == second


def test_validate_theorem_never_reads_the_memo():
    cfg = pb.default_experiment_config("noisy")
    fresh = oracle_bound_inputs(cfg, 3)[0]
    key = pipeline._oracle_key(cfg, 3, None, False)
    pipeline._oracle_memo[key] = replace(fresh, epsilon_t_star=0.5)
    try:
        validation = pb.validate_theorem(cfg, trials=2, rng_seed=3)
    finally:
        del pipeline._oracle_memo[key]
    assert validation.report.inputs == fresh


def _canonical(result) -> str:
    d = result.to_dict()
    d.pop("wall_time")
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def _practice_cells_digest() -> str:
    """sha256 of the 16 default-grid cells x 2 ablation trial seeds of the
    practice config at two iterations, in ``run_ablation`` order."""
    base = replace(pb.default_experiment_config("practice"), iterations=2)
    digest = hashlib.sha256()
    for toggles in pb.default_toggle_grid():
        for t in range(2):
            seed = pb.derive_seed(base.master_seed, 30, t)
            result = pb.run_self_learning(replace(base, toggles=toggles,
                                                  master_seed=seed))
            digest.update(_canonical(result).encode() + b"\n")
    return digest.hexdigest()


# Recorded before the oracle memo and the block-wise MMD existed; re-pinned
# when the linear probe left the config (config_fingerprint and the
# linear_probe key moved, every other byte of the 32 runs is unchanged), when
# the 1-alpha^2 noise term left the bound report (only its four keys moved)
# and when the oracle became exact where members are not unit-normalized (in
# those 16 runs only target_oracle_risk, epsilon_t_star, ideal_joint_error,
# dd_term and rhs moved; the 16 normalized runs are byte-identical).
PRACTICE_CELLS_PIN = "9864a534368b9778388573104986e151c36d1887e6e87cb7c43a7c7184ab1081"


def test_practice_cells_pinned_with_the_memo_cold_and_warm():
    pipeline._oracle_memo.clear()
    assert _practice_cells_digest() == PRACTICE_CELLS_PIN   # 8 misses, 24 hits
    assert _practice_cells_digest() == PRACTICE_CELLS_PIN   # all hits
