import csv
import hashlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pseudobound as pb
from oracles import mapped_similarity_reference


def worked_inputs(**overrides):
    base = dict(alpha=0.5, beta=0.5, m=1000, d=2, delta=0.1, big_m=1.0,
                rho_neg=0.1, rho_pos=0.1, h_delta_h=0.2,
                ideal_joint_error=0.05, epsilon_t_star=0.0)
    base.update(overrides)
    return pb.BoundInputs(**base)


def test_worked_example_terms():
    report = pb.assemble_bound(worked_inputs())
    assert report.noise_term == pytest.approx(math.sqrt(3.625), abs=1e-12)
    assert report.complexity_term == pytest.approx(
        math.sqrt((4 * math.log(2002) + 2 * math.log(80)) / 1000), abs=1e-12)
    assert report.complexity_term == pytest.approx(0.197918, abs=1e-6)
    assert report.dd_term == pytest.approx(0.075, abs=1e-12)
    # 4 M N C from the two verified factors: 4 * 1.903943 * 0.197918
    assert 4 * report.noise_term * report.complexity_term == \
        pytest.approx(1.507301, abs=1e-5)
    assert report.rhs == pytest.approx(1.507301 + 0.15, abs=1e-5)


def test_alpha_one_endpoint():
    # alpha=1, beta=0.5, rho=0: N = sqrt(8) and DD vanishes
    inputs = worked_inputs(alpha=1.0, rho_neg=0.0, rho_pos=0.0)
    report = pb.assemble_bound(inputs)
    assert report.noise_term == pytest.approx(math.sqrt(8.0), abs=1e-12)
    assert report.dd_term == 0.0


def test_bound_inputs_reject_risks_outside_their_range():
    for bad in (dict(epsilon_t_star=-3.0), dict(epsilon_t_star=1.5),
                dict(epsilon_t_star=math.nan), dict(epsilon_t_star=math.inf),
                dict(ideal_joint_error=-0.1), dict(ideal_joint_error=2.5),
                dict(ideal_joint_error=math.nan),
                dict(big_m=0.5, epsilon_t_star=0.75),
                dict(big_m=0.5, ideal_joint_error=1.25)):
        with pytest.raises(pb.ConfigurationError):
            worked_inputs(**bad)
    for edge in (dict(epsilon_t_star=1.0, ideal_joint_error=2.0),
                 dict(big_m=2.0, epsilon_t_star=2.0, ideal_joint_error=4.0)):
        worked_inputs(**edge)


def test_report_vacuous_is_rhs_at_or_above_m_and_not_serialized():
    report = pb.assemble_bound(worked_inputs())     # rhs 1.657 at M = 1
    assert report.vacuous
    tight = pb.assemble_bound(worked_inputs(m=10 ** 7, alpha=1.0))   # rhs 0.039
    assert tight.rhs < 1.0 and not tight.vacuous
    assert "vacuous" not in report.to_dict()
    assert pb.BoundReport.from_dict({**report.to_dict(), "vacuous": False}) == report


def test_complexity_term_decreases_with_m():
    assert pb.complexity_term(2000, 2, 0.1) < pb.complexity_term(1000, 2, 0.1)


def test_bound_inputs_validation():
    with pytest.raises(pb.ConfigurationError):
        worked_inputs(alpha=1.5)
    with pytest.raises(pb.ConfigurationError):
        worked_inputs(beta=1.0)
    with pytest.raises(pb.InvalidNoiseError):
        worked_inputs(rho_neg=0.6, rho_pos=0.5)
    with pytest.raises(pb.ConfigurationError):
        worked_inputs(h_delta_h=2.5)
    with pytest.raises(pb.ConfigurationError):
        worked_inputs(delta=0.0)
    back = pb.BoundInputs.from_dict(worked_inputs().to_dict())
    assert back == worked_inputs()


@pytest.mark.parametrize("bad", [
    dict(alpha=-0.1), dict(alpha=1.5), dict(alpha=math.nan), dict(alpha=math.inf),
    dict(beta=0.0), dict(beta=1.0), dict(beta=math.nan), dict(beta=-math.inf),
    dict(big_m=0.0), dict(big_m=-1.0), dict(big_m=math.inf), dict(big_m=math.nan)])
def test_bound_inputs_check_alpha_beta_and_big_m_as_risk_config_does(bad):
    with pytest.raises(pb.ConfigurationError) as want:
        pb.RiskConfig(**{"big_m": 1.0, **bad})
    with pytest.raises(pb.ConfigurationError) as got:
        worked_inputs(**bad)
    assert str(got.value) == str(want.value)


def test_rhs_monotonicities_on_sweeps():
    base = worked_inputs()
    report = pb.assemble_bound(base)

    def rhs(**kw):
        return pb.assemble_bound(worked_inputs(**kw)).rhs

    rho_vals = [rhs(rho_neg=r, rho_pos=r) for r in np.linspace(0.0, 0.4, 5)]
    assert all(a < b for a, b in zip(rho_vals, rho_vals[1:]))
    d_vals = [rhs(d=d) for d in (1, 2, 3, 4, 5)]
    assert all(a < b for a, b in zip(d_vals, d_vals[1:]))
    gap_vals = [rhs(h_delta_h=g) for g in np.linspace(0.0, 2.0, 5)]
    assert all(a < b for a, b in zip(gap_vals, gap_vals[1:]))
    lam_vals = [rhs(ideal_joint_error=v) for v in np.linspace(0.0, 0.5, 5)]
    assert all(a < b for a, b in zip(lam_vals, lam_vals[1:]))
    m_vals = [rhs(m=m) for m in (250, 500, 1000, 2000, 4000)]
    assert all(a > b for a, b in zip(m_vals, m_vals[1:]))
    assert report.rhs == rhs()


def test_oracle_inputs_are_the_exact_population_values():
    """eps*_T and lambda of the three synthetic configs, to 1e-6; clean and
    noisy share their domains, shifted's target is rescaled."""
    from pseudobound.bound import oracle_bound_inputs

    for kind, lam in (("clean", 0.1404973), ("noisy", 0.1404973),
                      ("shifted", 0.1594816)):
        cfg = pb.default_experiment_config(kind)
        inputs, _ = oracle_bound_inputs(cfg, 0)
        assert inputs.epsilon_t_star == pytest.approx(0.0702487, abs=1e-6)
        assert inputs.ideal_joint_error == pytest.approx(lam, abs=1e-6)


def test_no_trial_scores_below_the_optimal_target_risk():
    for kind in ("clean", "noisy", "shifted"):
        v = pb.validate_theorem(pb.default_experiment_config(kind), trials=500)
        eps_star = v.report.inputs.epsilon_t_star
        assert min(r.eps_t_hat for r in v.rows) >= eps_star


def _practice_align_map(cfg, seed):
    """The alignment map a practice run at ``seed`` fits on its pools."""
    target = pb.generate_domain(cfg.target, cfg.n_target_samples, pb.derive_seed(seed, 20))
    source = pb.generate_domain(cfg.source, cfg.n_source_samples, pb.derive_seed(seed, 21))
    return pb.align_moments(source, target)[1]


@pytest.mark.parametrize("use_map, normalize",
                         [(False, False), (False, True), (True, False), (True, True)])
def test_mapped_pairs_equal_mapped_copies_bit_for_bit(use_map, normalize):
    """``_mapped_pairs`` maps the draw's own members and subtracts them in
    place of the copies and row gathers it replaced; every bit agrees."""
    from pseudobound.bound import _mapped_pairs

    cfg = pb.default_experiment_config("practice")
    amap = _practice_align_map(cfg, 3) if use_map else None
    matrix, offset = (amap.matrix, amap.offset) if use_map else (None, None)
    for spec, n, seed in ((cfg.target, 3000, 11), (cfg.source, 1, 12), (cfg.target, 2, 13)):
        samples, drawn = pb.draw_pair_process(spec, cfg.strategy, n, seed)
        pairs = _mapped_pairs(cfg, spec, n, seed, amap, normalize)
        expected = mapped_similarity_reference(
            samples.features, drawn.member_indices, matrix, offset, normalize)
        assert pairs.similarity.tobytes() == expected.tobytes()
        assert np.array_equal(pairs.true_labels, drawn.true_labels)


@pytest.mark.parametrize("use_map", [False, True])
def test_normalized_oracle_call_peaks_under_10_mb(use_map):
    """One normalized oracle call on practice.json's 30 000 pairs a domain
    allocates only what it keeps or scans: under 1.0e7 traced bytes after a
    warm-up call (10.78e6 when the draws' throwaway arrays, a copy per
    normalization and four ERM sum buffers were held)."""
    from pseudobound.bound import oracle_bound_inputs

    cfg = pb.ExperimentConfig.load(str(Path(__file__).resolve().parent.parent
                                       / "configs" / "practice.json"))
    assert cfg.oracle_pairs == 30_000
    for seed in (0, 3):
        amap = _practice_align_map(cfg, seed) if use_map else None
        oracle_bound_inputs(cfg, seed, amap, normalize=True)
        tracemalloc.start()
        try:
            oracle_bound_inputs(cfg, seed, amap, normalize=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0e7, (seed, peak)

def test_aligned_target_exact_risk_within_4_se_of_a_million_mapped_pairs():
    """The oracle's exact target risks under a non-diagonal align_moments
    map from the practice pools, which they compose into the target
    transform, against 10^6 pairs drawn and mapped member by
    member (four draws of 250 000, to bound memory)."""
    from pseudobound.bound import _mapped_pairs, oracle_bound_inputs

    cfg = pb.default_experiment_config("practice")
    seed = cfg.master_seed
    amap = _practice_align_map(cfg, seed)
    assert np.count_nonzero(amap.matrix - np.diag(np.diag(amap.matrix))) == 12
    _, target_risks = oracle_bound_inputs(cfg, seed, amap)
    stumps = [pb.StumpHypothesis(0, 1.0, 1), pb.StumpHypothesis(1, 0.8, -1),
              pb.StumpHypothesis(2, 1.5, 1), pb.StumpHypothesis(3, 0.6, -1)]
    misses = np.zeros(len(stumps), dtype=np.int64)
    for sub in range(4):
        pairs = _mapped_pairs(cfg, cfg.target, 250_000, pb.derive_seed(seed, 80, sub), amap)
        misses += [h.misses(pairs.similarity, pairs.true_labels) for h in stumps]
    n = 10 ** 6
    for h, p_hat, exact in zip(stumps, misses / n, target_risks(stumps)):
        se = math.sqrt(p_hat * (1.0 - p_hat) / (n - 1))
        assert 0.1 < exact < 0.9
        assert abs(p_hat - exact) <= 4.0 * se, h


def test_lemma2_alpha_one_trivial():
    h = pb.random_stump(1, 4)
    cfg = pb.default_experiment_config("shifted")
    r = pb.check_lemma2(h, cfg.source, cfg.target, 1.0, 1.0,
                        oracle_n=10_000, rng_seed=0)
    assert r.lhs == 0.0
    assert r.rhs == 0.0
    assert r.holds


def test_lemma2_same_domain_lhs_is_zero():
    # S == T: both risks are the same exact population value.
    h = pb.random_stump(2, 4)
    cfg = pb.default_experiment_config("clean")
    r = pb.check_lemma2(h, cfg.target, cfg.target, 0.5, 1.0, rng_seed=4)
    assert r.lhs == 0.0
    assert r.holds


def test_lemma2_holds_for_random_stumps_on_shifted_domain():
    cfg = pb.default_experiment_config("shifted")
    for s in range(10):
        h = pb.random_stump(s, 4)
        r = pb.check_lemma2(h, cfg.source, cfg.target, 0.5, 1.0, rng_seed=s)
        assert r.lhs <= r.rhs  # zero tolerance
        assert r.holds


def test_lemma2_ignores_oracle_n():
    cfg = pb.default_experiment_config("shifted")
    h = pb.random_stump(3, 4)

    def report(**kw):
        return pb.check_lemma2(h, cfg.source, cfg.target, 0.5, 1.0, rng_seed=3,
                               gap_n=256, **kw)

    default = report()
    for n in (100_000, 10_000, 1):
        assert report(oracle_n=n) == default


def test_hoeffding_rhs_at_zero_mu():
    cfg = pb.RiskConfig(1.0, 0.5, 0.5)
    assert pb.hoeffding_rhs(0.0, 400, cfg, pb.NoiseModel(0.1, 0.2)) == 2.0


def test_hoeffding_rhs_decreases_in_mu_and_m():
    cfg = pb.RiskConfig(1.0, 0.5, 0.5)
    model = pb.NoiseModel(0.1, 0.2)
    assert pb.hoeffding_rhs(0.1, 400, cfg, model) > \
        pb.hoeffding_rhs(0.2, 400, cfg, model)
    assert pb.hoeffding_rhs(0.1, 400, cfg, model) > \
        pb.hoeffding_rhs(0.1, 800, cfg, model)


def test_default_mu_grid():
    grid = pb.default_mu_grid()
    assert len(grid) == 10
    assert grid[0] == pytest.approx(0.02)
    assert grid[-1] == pytest.approx(0.2)


def test_lemma3_concentration_small_run():
    cfg = pb.default_experiment_config("noisy")
    h = pb.StumpHypothesis(0, 0.5, -1)
    rows = pb.check_lemma3_concentration(h, cfg, trials=300, rng_seed=0)
    assert len(rows) == 10
    assert all(r.holds for r in rows)
    # huge mu: nothing exceeds
    far = pb.check_lemma3_concentration(h, cfg, mu_grid=[5.0], trials=50,
                                        rng_seed=1)
    assert far[0].empirical_prob == 0.0


def test_lemma3_requires_synthetic_mode():
    cfg = pb.default_experiment_config("practice")
    with pytest.raises(pb.ConfigurationError):
        pb.check_lemma3_concentration(pb.StumpHypothesis(0, 0.0, 1), cfg,
                                      trials=10)


def test_validate_theorem_structure_and_determinism():
    cfg = pb.default_experiment_config("noisy")
    res = pb.validate_theorem(cfg, trials=4, rng_seed=9)
    assert len(res.rows) == 4
    assert res.violation_rate == sum(r.violated for r in res.rows) / 4
    seeds = [r.seed for r in res.rows]
    assert len(set(seeds)) == 4
    again = pb.validate_theorem(cfg, trials=4, rng_seed=9)
    assert [r.eps_t_hat for r in again.rows] == [r.eps_t_hat for r in res.rows]
    for r in res.rows:
        assert r.violated == (r.eps_t_hat > res.report.rhs)


def _trial_by_trial(cfg, seed, iteration=0):
    """One trial's training sets drawn alone through the public samplers."""
    m_t, m_s = cfg.risk.split_m(cfg.m_train)
    _, tgt = pb.draw_pair_process(cfg.target, cfg.strategy, m_t, pb.derive_seed(seed, 1))
    tgt = pb.corrupt_labels(tgt, cfg.noise, pb.derive_seed(seed, 2, iteration))
    _, src = pb.draw_pair_process(cfg.source, cfg.strategy, m_s, pb.derive_seed(seed, 3))
    return src, tgt


def test_validate_theorem_blocks_equal_trial_by_trial_fits():
    """Blocked trials (two full blocks and a short one) match drawing, fitting
    and scoring each trial alone with the public calls (``exact_risks`` of
    one stump), row for row; shifted runs its non-identity domain
    transform."""
    from pseudobound.bound import _BLOCK_POINTS

    for kind in ("noisy", "shifted"):
        cfg = pb.default_experiment_config(kind)
        block = _BLOCK_POINTS // cfg.m_train
        assert block > 1
        trials = 2 * block + 3
        res = pb.validate_theorem(cfg, trials=trials, rng_seed=5)
        assert len(res.rows) == trials
        for t, row in enumerate(res.rows):
            seed = pb.derive_seed(5, t)
            src, tgt = _trial_by_trial(cfg, seed)
            h, _ = pb.fit_source_guided(src, tgt, cfg.risk, cfg.noise)
            [eps] = pb.exact_risks([h], cfg.target, cfg.strategy, cfg.risk.big_m)
            assert row.seed == seed
            assert row.eps_t_hat == eps
            assert row.violated == (eps > res.report.rhs)


def test_erm_batch_on_a_theorem_block_equals_per_trial_fits():
    """One real block of bound trials (shifted, 20 trials): ``erm_batch``
    returns, threshold bits included, the stump ``fit_source_guided`` fits
    on each trial's lone draws."""
    from pseudobound.bound import _trial_blocks
    from pseudobound.risk import _source_guided_problem
    from pseudobound.stumps import erm_batch

    cfg = pb.default_experiment_config("shifted")
    [(seeds, (src_sim, src_true, tgt_sim, _, pseudo))] = _trial_blocks(cfg, 20, 3)
    stumps = erm_batch(*_source_guided_problem(src_sim, src_true, tgt_sim, pseudo,
                                               cfg.risk, cfg.noise))
    assert len(stumps) == len(seeds) == 20
    for h, seed in zip(stumps, seeds):
        alone, _ = pb.fit_source_guided(*_trial_by_trial(cfg, seed), cfg.risk,
                                        cfg.noise)
        assert (h.coordinate, h.threshold.hex(), h.sign) == (
            alone.coordinate, alone.threshold.hex(), alone.sign)


def _concatenated_problem(src_sim, src_labels, tgt_sim, tgt_pseudo, cfg, model):
    """The source-guided ERM problem as first written: both cost rows from
    the elementwise corrected loss, scaled, then concatenated."""
    ones = np.ones_like(tgt_pseudo)
    target = (np.asarray(pb.corrected_loss(ones, tgt_pseudo, cfg.big_m, model), float),
              np.asarray(pb.corrected_loss(-ones, tgt_pseudo, cfg.big_m, model), float))
    w_t = cfg.alpha / tgt_pseudo.shape[-1]
    w_s = (1.0 - cfg.alpha) / src_labels.shape[-1]
    cost_pos, cost_neg = (np.concatenate([w_t * t, w_s * s], axis=-1)
                          for t, s in zip(target, pb.zero_m_costs(src_labels, cfg.big_m)))
    return np.concatenate([tgt_sim, src_sim], axis=-2), cost_pos, cost_neg


@pytest.mark.parametrize("model", [pb.NO_NOISE, pb.NoiseModel(0.1, 0.2),
                                   pb.NoiseModel(0.3, 0.05)])
@pytest.mark.parametrize("kind", ["clean", "noisy", "shifted"])
def test_source_guided_problem_equals_the_concatenated_form_bytewise(kind, model):
    """A block of trials and one lone trial, under every shipped noise model
    (clean's rates are NO_NOISE's) and an asymmetric one, at a non-unit M and
    alpha: features and both cost rows keep every byte."""
    from dataclasses import replace

    from pseudobound.bound import _trial_blocks
    from pseudobound.risk import _source_guided_problem

    cfg = pb.default_experiment_config(kind)
    [(_, (src_sim, src_true, tgt_sim, _, pseudo))] = _trial_blocks(cfg, 20, 3)
    for risk in (cfg.risk, replace(cfg.risk, big_m=2.5, alpha=0.3)):
        for args in ((src_sim, src_true, tgt_sim, pseudo),
                     (src_sim[4], src_true[4], tgt_sim[4], pseudo[4])):
            got = _source_guided_problem(*args, risk, model)
            want = _concatenated_problem(*args, risk, model)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()


@pytest.mark.parametrize("kind,strategy", [
    ("noisy", pb.PairStrategy.balanced(3)),
    ("shifted", pb.PairStrategy.balanced(2)),
    ("noisy", pb.PairStrategy.all_pairs()),
])
def test_trial_block_equals_lone_draws_bytewise(kind, strategy):
    """A block of trial draws holds, byte for byte, each trial's lone draws."""
    from dataclasses import replace

    from pseudobound.bound import _trial_blocks

    cfg = replace(pb.default_experiment_config(kind), strategy=strategy, m_train=37)
    [(seeds, draws)] = _trial_blocks(cfg, 6, 9)
    assert seeds == [pb.derive_seed(9, t) for t in range(6)]
    src_sim, src_true, tgt_sim, tgt_true, pseudo = draws
    for i, seed in enumerate(seeds):
        src, tgt = _trial_by_trial(cfg, seed)
        assert src_sim[i].tobytes() == src.similarity.tobytes()
        assert tgt_sim[i].tobytes() == tgt.similarity.tobytes()
        assert src_true[i].tobytes() == src.true_labels.tobytes()
        assert tgt_true[i].tobytes() == tgt.true_labels.tobytes()
        assert pseudo[i].tobytes() == tgt.pseudo_labels.tobytes()


def test_trial_blocks_wide_seed_and_later_iteration_equal_lone_draws():
    """The once-per-call seed chain at a master seed of 2^64 and above and
    iteration 3 gives each trial its lone draws' seed, pairs and flips."""
    from dataclasses import replace

    from pseudobound.bound import _trial_blocks

    cfg = replace(pb.default_experiment_config("noisy"), m_train=37)
    rng_seed = 2 ** 64 + 5
    [(seeds, draws)] = _trial_blocks(cfg, 7, rng_seed, iteration=3)
    assert seeds == [pb.derive_seed(rng_seed, t) for t in range(7)]
    src_sim, _, tgt_sim, _, pseudo = draws
    for i, seed in enumerate(seeds):
        src, tgt = _trial_by_trial(cfg, seed, iteration=3)
        assert src_sim[i].tobytes() == src.similarity.tobytes()
        assert tgt_sim[i].tobytes() == tgt.similarity.tobytes()
        assert pseudo[i].tobytes() == tgt.pseudo_labels.tobytes()
    with pytest.raises(pb.ConfigurationError, match="got -4"):
        next(_trial_blocks(cfg, 2, -4))


def test_lemma3_rows_equal_trial_by_trial_risks():
    """check_lemma3_concentration's rows equal those rebuilt from per-trial
    public draws and source_guided_risk, over a short last block."""
    from pseudobound.bound import _BLOCK_POINTS, hoeffding_rhs

    cfg = pb.default_experiment_config("noisy")
    trials = 2 * (_BLOCK_POINTS // cfg.m_train) + 3
    h = pb.StumpHypothesis(1, 0.8, 1)
    rows = pb.check_lemma3_concentration(h, cfg, trials=trials, rng_seed=4)
    [eps_t] = pb.exact_risks([h], cfg.target, cfg.strategy, cfg.risk.big_m)
    [eps_s] = pb.exact_risks([h], cfg.source, cfg.strategy, cfg.risk.big_m)
    center = cfg.risk.alpha * eps_t + (1.0 - cfg.risk.alpha) * eps_s
    devs = np.array([
        abs(pb.source_guided_risk(h, *_trial_by_trial(cfg, pb.derive_seed(4, t)),
                                  cfg.risk, cfg.noise) - center)
        for t in range(trials)])
    assert len({float(d) for d in devs}) > 1
    for row in rows:
        assert row.empirical_prob == np.count_nonzero(devs >= row.mu) / trials
        assert row.hoeffding_rhs == hoeffding_rhs(row.mu, cfg.m_train, cfg.risk,
                                                  cfg.noise)


# sha256 over the canonical JSON of validate_theorem(clean / noisy / shifted,
# 500 trials), one line each: the theorem workload's benchmark checksum.
# Re-pinned when the 1-alpha^2 noise term and the per-row copies of the
# report left the output (only those keys moved), and when eps*_T, lambda
# and the trial scores became exact population values (only eps_t_hat,
# epsilon_t_star, ideal_joint_error, dd_term and rhs moved).
THEOREM_PINS = {
    0: "757e6c3d7abd5683962054bd3205b3970788a0851459ffaa40bf84bc222f5271",
    8675309: "fbc18d7204158943cfc736bda8b7c089b7415e8122df4295ac662a94dffa4511",
}

# sha256 of the same three runs' write_trial_csv text, concatenated, without
# its last column (slack, checked cell by cell): the bytes verify-bound wrote
# before that column was added.
TRIAL_CSV_PINS = {
    0: "9eecbb1dcd4268e5421015a3cf86ba8a81c723594a899befd9e2b8ffee96bff8",
    8675309: "42c5f2e1d7c9764cc49799db5b7c7d0d168f03f288301307eb50c32da84dcdd1",
}


@pytest.mark.parametrize("seed", sorted(THEOREM_PINS))
def test_validate_theorem_outputs_pinned(seed):
    digest = hashlib.sha256()
    first_columns = io.StringIO()
    for kind in ("clean", "noisy", "shifted"):
        res = pb.validate_theorem(pb.default_experiment_config(kind), trials=500,
                                  rng_seed=seed)
        digest.update(json.dumps(res.to_dict(), sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n")
        csv_text = io.StringIO()
        pb.write_trial_csv(res, csv_text)
        rows = list(csv.reader(io.StringIO(csv_text.getvalue())))
        assert [row[-1] for row in rows] == ["slack", *(
            f"{res.report.rhs - r.eps_t_hat:.9g}" for r in res.rows)]
        csv.writer(first_columns).writerows(row[:-1] for row in rows)
    assert digest.hexdigest() == THEOREM_PINS[seed]
    assert hashlib.sha256(first_columns.getvalue().encode()).hexdigest() == \
        TRIAL_CSV_PINS[seed]


# sha256 over the canonical JSON of check_lemma2 on shifted for gap units 0-2
# (random stump u, gap_n 1024, oracle_n 100 000), one line each: the gap
# workload's benchmark checksum.  Re-pinned when the risks became exact and
# the slack left the report.
LEMMA2_PINS = {
    0: "7dafae472e99c4d1d0e274f9dc7ab1fc215effb4fe96f1e2e347273db4cbbb44",
    8675309: "48343d0461bfceada3033a3e3498a9d35f168bf0ddc11b36d51d7dcdcdd9847d",
}

# (h_delta_h, ideal_joint_error, rhs) of the same units: the gap draws half of
# the check, bit-identical to its values before the risks became exact.
LEMMA2_GAP_TERMS = {
    0: [(0.62890625, 0.1396484375, 0.22705078125),
        (0.60546875, 0.1357421875, 0.21923828125),
        (0.623046875, 0.1630859375, 0.2373046875)],
    8675309: [(0.630859375, 0.1552734375, 0.2353515625),
              (0.642578125, 0.1552734375, 0.23828125),
              (0.619140625, 0.1484375, 0.22900390625)],
}


@pytest.mark.parametrize("seed", sorted(LEMMA2_PINS))
def test_check_lemma2_outputs_pinned(seed):
    cfg = pb.default_experiment_config("shifted")
    digest = hashlib.sha256()
    terms = []
    for u in range(3):
        h = pb.random_stump(pb.derive_seed(seed, 91, u), cfg.target.feature_dim)
        rep = pb.check_lemma2(h, cfg.source, cfg.target, cfg.risk.alpha,
                              cfg.risk.big_m, oracle_n=100_000,
                              rng_seed=pb.derive_seed(seed, 92, u),
                              strategy=cfg.strategy, gap_n=1024)
        digest.update(json.dumps(rep.to_dict(), sort_keys=True,
                                 separators=(",", ":")).encode() + b"\n")
        terms.append((rep.h_delta_h, rep.ideal_joint_error, rep.rhs))
    assert terms == LEMMA2_GAP_TERMS[seed]
    assert digest.hexdigest() == LEMMA2_PINS[seed]


def test_validate_theorem_requires_synthetic():
    with pytest.raises(pb.ConfigurationError):
        pb.validate_theorem(pb.default_experiment_config("practice"), trials=1)


def test_trial_csv_format():
    cfg = pb.default_experiment_config("noisy")
    res = pb.validate_theorem(cfg, trials=2, rng_seed=0)
    buf = io.StringIO()
    pb.write_trial_csv(res, buf)
    lines = buf.getvalue().strip().split("\r\n")
    assert lines[0] == "seed,N,C,DD,rhs,eps_T_hat,violated,slack"
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[6] in ("0", "1")
    # reals carry at most 9 significant digits
    for tok in fields[1:6] + fields[7:]:
        mantissa = tok.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) <= 9
