import hashlib
import inspect
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import pseudobound as pb
from pseudobound import bound, pipeline
from pseudobound.bound import oracle_bound_inputs


def _empty_memos():
    for memo in (pipeline._oracles, pipeline._mmd_values):
        memo.values.clear()


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with every pipeline memo empty."""
    _empty_memos()


def synthetic_guided_toggles(filtering=False):
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
    mapped, mapped_risks = oracle_bound_inputs(cfg, 5, pb.AffineMap.identity(4))
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
                  toggles=synthetic_guided_toggles(True),
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
# moved), when the oracle became exact (only target_oracle_risk,
# epsilon_t_star, ideal_joint_error, dd_term and rhs moved) and when the
# noise and filter settings became one value each (only config_fingerprint
# moved).
_PINNED_SYNTHETIC = {
    ("noisy", False, False):
        "b0b843522fff0e972d72c6c6065423ef4264be625963d4227f430b640edd3816",
    ("noisy", False, True):
        "ed9757295fa58aee0e0f3e5a05f065f6dacaae561adf7deb3b3fc6a297d76fb0",
    ("noisy", True, False):
        "32795602a5c02419a26a31b042744bc0aad2d3a464dcc135f1aa8dba6d42b953",
    ("noisy", True, True):
        "2ab39528e2074831298447b6ab3fe62a0f61b8d3a275c41e5440af3670966f14",
    ("shifted", False, False):
        "26c1f7b45d8d4c824b32cba7d65ef297e792255fd7f99a119626ce4b1c9578c7",
    ("shifted", False, True):
        "36ebc2c16b58cdd7c0d783aa6ae88c14d41255c6e5aa980e718df886f3b1ad13",
    ("shifted", True, False):
        "8bd1b19534e1ff221a09ea40a56df014849b8ad203822729393cbac57abf928e",
    ("shifted", True, True):
        "0eab7634caaf8b95925ebec86cc536f2635d2711037bc511194f13c2b2b27cbc",
}


@pytest.mark.parametrize(
    "kind, guided, filtering", sorted(_PINNED_SYNTHETIC),
    ids=[f"{k}-{g}-{'offline_plus_online' if f else 'none'}"
         for k, g, f in sorted(_PINNED_SYNTHETIC)])
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
                                      outlier_filtering=False)))
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
            synthetic_guided_toggles(True)]
    table = pb.run_ablation(base, grid)
    assert table.trial_seeds == [pb.derive_seed(base.master_seed, 30, t)
                                 for t in range(2)]
    assert [c.toggles for c in table.cells] == grid
    for cell in table.cells:
        assert len(cell.final_risks) == 2
        assert cell.failures == []
        assert cell.mean_final_risk == pytest.approx(np.mean(cell.final_risks))
    with pytest.raises(KeyError):
        table.cell(pb.Toggles())


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


def test_ablation_runs_trial_major_and_matches_a_cell_major_loop(monkeypatch):
    """Trial-major order changes neither the table nor any cell's trial
    order, failures included, against a cell-major loop of direct runs."""
    base = replace(pb.default_experiment_config("practice"), trials=2)
    grid = [pb.Toggles(), pb.Toggles.all_off(), synthetic_guided_toggles()]
    failing = grid[1]
    real = pipeline.run_self_learning
    order = []

    def run(cfg):
        order.append((cfg.master_seed, cfg.toggles))
        if cfg.toggles == failing:
            raise pb.PipelineError(f"seed {cfg.master_seed} fails")
        return real(cfg)

    monkeypatch.setattr(pipeline, "run_self_learning", run)
    table = pb.run_ablation(base, grid)
    seeds = table.trial_seeds
    assert order == [(s, toggles) for s in seeds for toggles in grid]

    _empty_memos()
    cells = []
    for toggles in grid:
        finals, failures = [], []
        for t, s in enumerate(seeds):
            try:
                finals.append(run(replace(base, toggles=toggles,
                                          master_seed=s)).final_risk)
            except pb.PseudoboundError as err:
                failures.append({"trial": t, "error": str(err)})
        cells.append(pb.AblationCell(toggles, finals, failures,
                                     float(np.mean(finals)) if finals else None))
    assert table.to_dict() == pb.AblationTable(cells, seeds).to_dict()
    assert table.cell(failing).failures == [
        {"trial": t, "error": f"seed {s} fails"} for t, s in enumerate(seeds)]
    assert all(len(table.cell(tog).final_risks) == 2 for tog in grid[::2])


def test_ablation_rejects_empty_grid():
    base = replace(pb.default_experiment_config("noisy"), trials=1)
    with pytest.raises(pb.EmptyInputError):
        pb.run_ablation(base, [])


def test_default_toggle_grid_is_every_binary_combination():
    """In order, source_guided changing slowest: the benchmark's selflearn
    unit u runs cell u % 16, so a reordered grid changes its work mix."""
    assert pb.default_toggle_grid() == [
        pb.Toggles(sg, da, bl, of)
        for sg in (False, True) for da in (False, True) for bl in (False, True)
        for of in (False, True)
    ]


def _small_practice():
    """Practice config with the smallest oracle draws, for memo tests."""
    return replace(pb.default_experiment_config("practice"),
                   oracle_pairs=10_000, discrepancy_sample=32)


def _practice_pools(cfg, seed):
    """The (source, target) sample pools of a practice run."""
    source = pb.generate_domain(cfg.source, cfg.n_source_samples,
                                pb.derive_seed(seed, 21))
    target = pb.generate_domain(cfg.target, cfg.n_target_samples,
                                pb.derive_seed(seed, 20))
    return source, target


def _practice_align_map(cfg, seed):
    return pb.align_moments(*_practice_pools(cfg, seed))[1]


def test_memo_keeps_its_bound_and_follows_its_binding():
    """At most ``size`` values, the oldest dropped first; a raise stores
    and evicts nothing; a new binding of the function starts cold."""
    assert pipeline._mmd_values.size >= 4 * 62   # 4 trials of the 16-cell grid's MMDs
    memo, calls = pipeline._Memo(2), []

    def square(x):
        calls.append(x)
        if x < 0:
            raise pb.ConfigurationError("negative")
        return x * x

    for x in (1, 2, 1, 3):
        assert memo(square, x, x) == x * x
        assert len(memo.values) <= 2
    assert calls == [1, 2, 3]
    assert list(memo.values) == [2, 3]   # 1, the oldest, dropped first
    for _ in range(2):
        with pytest.raises(pb.ConfigurationError):
            memo(square, -1, -1)
    assert calls == [1, 2, 3, -1, -1] and list(memo.values) == [2, 3]
    assert memo(square, 3, 3) == 9 and calls[-1] == -1   # still a hit

    def cube(x):
        calls.append(x)
        return x ** 3

    assert memo(cube, 3, 3) == 27 and calls[-1] == 3
    assert list(memo.values) == [3] and memo.fn is cube


def _memo_inputs() -> list:
    """The bound inputs the oracle memo holds, oldest first."""
    return [inputs for inputs, _ in pipeline._oracles.values.values()]


@pytest.mark.parametrize("use_map, normalize",
                         [(False, False), (False, True), (True, False), (True, True)])
def test_oracle_memo_hit_equals_a_fresh_estimate(use_map, normalize):
    """A warm run equals a cold one, and the memo's one entry a fresh
    estimate under the run's member maps."""
    cfg = replace(_small_practice(), iterations=1, master_seed=41,
                  toggles=replace(pb.Toggles(), domain_alignment=use_map,
                                  bounded_loss=normalize))
    cold = _canonical(pb.run_self_learning(cfg))
    assert _canonical(pb.run_self_learning(cfg)) == cold
    amap = _practice_align_map(cfg, 41) if use_map else None
    fresh = oracle_bound_inputs(cfg, 41, amap, normalize)[0]
    assert _memo_inputs() == [fresh]


def test_configs_differing_only_in_toggles_share_one_oracle_entry():
    """Toggles reach the oracle only through the member maps: runs whose
    maps agree share one entry, equal to a fresh estimate with any toggles;
    each other pair of maps adds its own."""
    cfg = replace(_small_practice(), iterations=1, master_seed=42)
    amap = _practice_align_map(cfg, 42)
    full = pb.Toggles()
    for toggles in (full, replace(full, source_guided=False),
                    replace(full, outlier_filtering=False)):
        pb.run_self_learning(replace(cfg, toggles=toggles))
    fresh = oracle_bound_inputs(cfg, 42, amap, True)[0]
    assert _memo_inputs() == [fresh]
    off = replace(cfg, toggles=pb.Toggles.all_off())
    assert oracle_bound_inputs(off, 42, amap, True)[0] == fresh
    for toggles in (replace(full, domain_alignment=False),
                    replace(full, bounded_loss=False), pb.Toggles.all_off()):
        pb.run_self_learning(replace(cfg, toggles=toggles))
    assert len(pipeline._oracles.values) == 4


def test_a_new_binding_of_oracle_bound_inputs_starts_cold(monkeypatch):
    """A tracing wrapper installed after a warm run sees the oracle call a
    cold run makes."""
    cfg = pb.default_experiment_config("noisy")
    pb.run_self_learning(cfg)
    seeds = []

    def traced(config, seed, *args):
        seeds.append(seed)
        return oracle_bound_inputs(config, seed, *args)

    monkeypatch.setattr(pipeline, "oracle_bound_inputs", traced)
    inputs = [pb.run_self_learning(cfg).final_report.inputs for _ in range(2)]
    assert seeds == [cfg.master_seed]
    assert inputs == [oracle_bound_inputs(cfg, cfg.master_seed)[0]] * 2


def _counting_oracles(monkeypatch) -> list:
    """Rebind the pipeline's ``oracle_bound_inputs`` to a wrapper that
    appends each call's (seed, normalize) to the returned list."""
    calls = []

    def counted(config, seed, align_map, normalize):
        calls.append((seed, normalize))
        return oracle_bound_inputs(config, seed, align_map, normalize)

    monkeypatch.setattr(pipeline, "oracle_bound_inputs", counted)
    return calls


def test_target_memo_builds_four_targets_per_seed_and_keeps_its_bound(monkeypatch):
    """One seed of the 16-cell grid builds one target per pair of member
    maps, 2 of them pair-backed; a second seed replaces all 4."""
    assert pipeline._oracles.size == 4
    calls = _counting_oracles(monkeypatch)
    base = replace(_small_practice(), iterations=1)
    for seed in (45, 46):
        for toggles in pb.default_toggle_grid():
            pb.run_self_learning(replace(base, toggles=toggles, master_seed=seed))
        assert len(pipeline._oracles.values) == 4
        assert {key[0].master_seed for key in pipeline._oracles.values} == {seed}
    assert sorted(normalize for _, normalize in calls) == [False] * 4 + [True] * 4


def test_benchmark_selflearn_units_make_four_oracle_calls_per_trial(monkeypatch):
    """The first 64 selflearn units (4 trials of ``ablate`` on practice.json,
    the practice default, at seed 0, trial-major) make 16
    ``oracle_bound_inputs`` calls, 4 per trial."""
    base = replace(pb.default_experiment_config("practice"), master_seed=0,
                   trials=4)
    calls = _counting_oracles(monkeypatch)
    table = pb.run_ablation(base, pb.default_toggle_grid())
    assert len(calls) == 16
    assert Counter(seed for seed, _ in calls) == {s: 4 for s in table.trial_seeds}


@pytest.mark.parametrize("use_map, normalize",
                         [(False, False), (False, True), (True, False), (True, True)])
def test_target_memo_hit_scores_as_a_fresh_target(use_map, normalize):
    """The stored scorer scores any stumps as a fresh build does; a
    pair-backed target keeps no member indices."""
    cfg = replace(_small_practice(), iterations=1, master_seed=47,
                  toggles=replace(pb.Toggles(), domain_alignment=use_map,
                                  bounded_loss=normalize))
    pb.run_self_learning(cfg)
    [(_, target_risks)] = pipeline._oracles.values.values()
    amap = _practice_align_map(cfg, 47) if use_map else None
    _, fresh_risks = oracle_bound_inputs(cfg, 47, amap, normalize)
    stumps = [pb.random_stump(s, cfg.target.feature_dim, (0.0, 2.0)) for s in range(12)]
    assert [r.hex() for r in target_risks(stumps)] == \
        [r.hex() for r in fresh_risks(stumps)]
    if normalize:
        target, fresh = (inspect.getclosurevars(f).nonlocals["pairs"]
                         for f in (target_risks, fresh_risks))
        assert np.array_equal(target.similarity, fresh.similarity)
        assert np.array_equal(target.true_labels, fresh.true_labels)
        assert target.member_indices.strides[0] == 0   # one shared zero row
    else:
        assert target_risks.keywords["spec"] == fresh_risks.keywords["spec"]


def test_a_new_binding_starts_the_target_memo_cold(monkeypatch):
    """Rebinding oracle_bound_inputs, as a tracer does along with the
    draws, makes the next run draw its pair-backed target again."""
    cfg = replace(_small_practice(), iterations=1, master_seed=48)
    pb.run_self_learning(cfg)
    sizes = []

    def draw(spec, strategy, n_pairs, rng_seed):
        sizes.append(n_pairs)
        return pb.draw_pair_process(spec, strategy, n_pairs, rng_seed)

    def inputs(*args):
        return oracle_bound_inputs(*args)

    monkeypatch.setattr(bound, "draw_pair_process", draw)
    monkeypatch.setattr(pipeline, "oracle_bound_inputs", inputs)
    for _ in range(2):
        pb.run_self_learning(cfg)
    # target (sub-seed 4) and joint-error source (sub-seed 5), once
    assert sizes.count(cfg.oracle_pairs) == 2
    assert pipeline._oracles.fn is inputs


def test_oracle_memo_keys_ignore_the_sign_of_zeros():
    cfg = replace(pb.default_experiment_config("noisy"), master_seed=44)
    src = cfg.source
    signed = replace(cfg, source=replace(
        src, identity_centers=np.where(src.identity_centers == 0, -0.0,
                                       src.identity_centers),
        domain_transform=pb.AffineMap(src.domain_transform.matrix,
                                      -src.domain_transform.offset)))
    assert signed.source.identity_centers.tobytes() != src.identity_centers.tobytes()
    first = pb.run_self_learning(cfg).final_report
    second = pb.run_self_learning(signed).final_report
    assert len(pipeline._oracles.values) == 1
    assert first == second


def test_one_dimensional_practice_run_fails_typed():
    """At q = 1 alignment works (``np.cov`` is 0-d there) and the run ends in
    a typed error, not a traceback: one coordinate cannot separate the pairs."""
    cfg = pb.default_experiment_config("practice")

    def one_dim(spec):
        amap = spec.domain_transform
        return replace(spec, feature_dim=1,
                       identity_centers=spec.identity_centers[:, :1],
                       domain_transform=pb.AffineMap(amap.matrix[:1, :1],
                                                     amap.offset[:1]))

    cfg = replace(cfg, source=one_dim(cfg.source), target=one_dim(cfg.target))
    assert cfg.toggles.domain_alignment
    with pytest.raises(pb.PseudoboundError):
        pb.run_self_learning(cfg)


def test_validate_theorem_never_reads_the_memo():
    cfg = replace(pb.default_experiment_config("noisy"), master_seed=3)
    fresh = oracle_bound_inputs(cfg, 3)[0]
    pb.run_self_learning(cfg)
    [(key, (_, target_risks))] = pipeline._oracles.values.items()
    poisoned = replace(fresh, epsilon_t_star=0.5)
    pipeline._oracles.values[key] = poisoned, target_risks
    assert pb.run_self_learning(cfg).final_report.inputs == poisoned
    validation = pb.validate_theorem(cfg, trials=2, rng_seed=3)
    assert validation.report.inputs == fresh


def _counting_mmd(monkeypatch) -> list:
    """Rebind the pipeline's ``mmd_squared`` to a counting wrapper and
    so the MMD memo starts cold; returns the list each computed call
    appends to."""
    computed = []

    def counted(x, y):
        computed.append(1)
        return pb.mmd_squared(x, y)

    monkeypatch.setattr(pipeline, "mmd_squared", counted)
    return computed


@pytest.mark.parametrize("level", ["sample", "similarity"])
def test_mmd_memo_hit_equals_a_fresh_call(monkeypatch, level):
    source, target = _practice_pools(_small_practice(), 41)
    x, y = source.features, target.features
    if level == "similarity":
        members = np.random.default_rng(3).integers(0, min(len(x), len(y)),
                                                    (pipeline._MMD_CAP, 2))
        x = pb.similarity_from_members(x, members)
        y = pb.similarity_from_members(y, members[::-1])
    fresh = pb.mmd_squared(x, y)
    computed = _counting_mmd(monkeypatch)
    missed = pipeline._mmd(x, y)
    hit = pipeline._mmd(x.copy(), y.copy())     # equal content, new arrays
    assert len(computed) == len(pipeline._mmd_values.values) == 1
    assert missed.hex() == hit.hex() == fresh.hex()
    monkeypatch.undo()      # a new binding of mmd_squared starts cold
    assert pipeline._mmd(x, y).hex() == fresh.hex()
    assert len(computed) == 1 and len(pipeline._mmd_values.values) == 1
    assert pipeline._mmd_values.fn is pb.mmd_squared


def test_mmd_memo_keys_tell_shapes_apart(monkeypatch):
    a, b = np.arange(8.0), np.arange(8.0)[::-1] ** 0.5
    wide, tall = a.reshape(2, 4), a.reshape(4, 2)
    assert wide.tobytes() == tall.tobytes()
    assert pipeline._content_key(wide) != pipeline._content_key(tall)
    # the key reads values as float64 in C order, whatever the layout
    assert pipeline._content_key(np.asfortranarray(wide)) == pipeline._content_key(wide)
    assert pipeline._content_key(np.arange(8).reshape(2, 4)) == pipeline._content_key(wide)
    computed = _counting_mmd(monkeypatch)
    first = pipeline._mmd(wide, b.reshape(2, 4))
    second = pipeline._mmd(tall, b.reshape(4, 2))
    assert len(computed) == len(pipeline._mmd_values.values) == 2
    assert first.hex() == pb.mmd_squared(wide, b.reshape(2, 4)).hex()
    assert second.hex() == pb.mmd_squared(tall, b.reshape(4, 2)).hex()


def test_mmd_memo_skips_a_collapsed_draw(monkeypatch):
    """Equal members give all-zero similarities, whose median bandwidth is
    0: the error is neither stored nor logged."""
    feats = np.ones((6, 3))
    members = np.array([[0, 1], [2, 3], [4, 5]])
    pairs = pb.PairSet(pb.similarity_from_members(feats, members), [1, -1, 1],
                       [1, -1, 1], members)
    record = pb.IterationRecord(0, pb.StumpHypothesis(0, 0.5, 1),
                                pb.NoiseModel(0.0, 0.0), 0.0)
    computed = _counting_mmd(monkeypatch)
    for _ in range(2):
        pipeline._log_similarity_mmd(record, pairs, pairs,
                                     pb.SampleSet(feats, np.arange(6)))
        assert record.mmd_sim_before is None and record.mmd_sim_after is None
        assert pipeline._mmd_values.values == {}
    assert len(computed) == 2   # each attempt computes and raises again
    with pytest.raises(pb.ConfigurationError, match="bandwidth"):
        pipeline._mmd(pairs.similarity, pairs.similarity)
    assert pipeline._mmd_values.values == {}


def _canonical(result) -> str:
    d = result.to_dict()
    d.pop("wall_time")
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def _practice_cells_digest() -> str:
    """sha256 of the 16 default-grid cells x 2 ablation trial seeds of the
    practice config at two iterations, cell-major (each cell's two trials in
    a row), unlike ``run_ablation``'s trial-major order, so the pin also
    checks that the memos leave results independent of run order."""
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
# the 1-alpha^2 noise term left the bound report (only its four keys moved),
# when the oracle became exact where members are not unit-normalized (in
# those 16 runs only target_oracle_risk, epsilon_t_star, ideal_joint_error,
# dd_term and rhs moved; the 16 normalized runs are byte-identical) and
# when the noise and filter settings became one value each (only
# config_fingerprint moved).
PRACTICE_CELLS_PIN = "b03b621863f4c0ac379b8bbd3ec774e1d7cfa272186aef5e10ce456a97a9c04f"


def test_practice_cells_pinned_with_the_memo_cold_and_warm():
    # oracle: 8 misses, 24 hits; MMD: 52 misses, 108 hits
    assert _practice_cells_digest() == PRACTICE_CELLS_PIN
    assert _practice_cells_digest() == PRACTICE_CELLS_PIN   # all hits
