"""Acceptance gate: one test per shipped criterion, each printing a
single PASS/FAIL line with its key measurements and runtime.

Every criterion is self-contained and seeded; tolerances and time limits
are asserted, not just reported.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import pseudobound as pb
from oracles import dbscan_oracle, erm_grid_oracle


@pytest.fixture
def report(capfd):
    def _print(line):
        with capfd.disabled():
            print(line)
    return _print


def test_criterion_01_corrected_loss_arithmetic(report):
    t0 = time.perf_counter()
    model = pb.NoiseModel(0.1, 0.2)
    err_a = abs(pb.corrected_loss(+1, +1, 1.0, model) - (-2.0 / 7.0))
    err_b = abs(pb.corrected_loss(-1, +1, 1.0, model) - (9.0 / 7.0))
    zero = pb.NoiseModel(0.0, 0.0)
    reduction_exact = all(
        pb.corrected_loss(s * u, y, 1.0, zero) == pb.zero_m_loss(s * u, y, 1.0)
        for u in (-1, 1) for y in (-1, 1) for s in (-1, 1)
    )
    elapsed = time.perf_counter() - t0
    ok = err_a <= 1e-12 and err_b <= 1e-12 and reduction_exact and elapsed < 1.0
    report(f"criterion 01 corrected-loss arithmetic: {'PASS' if ok else 'FAIL'} "
           f"(worked-example errors {err_a:.1e}/{err_b:.1e}, zero-noise "
           f"reduction exact on 8 combos={reduction_exact}; "
           f"{elapsed:.2f}s < 1s)")
    assert ok, (err_a, err_b, reduction_exact, elapsed)


def test_criterion_02_correction_is_unbiased(report):
    t0 = time.perf_counter()
    cfg = pb.default_experiment_config("noisy")
    _, pairs = pb.draw_pair_process(cfg.target, cfg.strategy, 400,
                                    pb.derive_seed(2, 1))
    stumps = [pb.StumpHypothesis(0, 0.8, -1),
              pb.StumpHypothesis(1, 0.5, 1),
              pb.StumpHypothesis(3, 1.1, -1)]
    settings = [(0.05, 0.05), (0.1, 0.1), (0.1, 0.2), (0.3, 0.1), (0.2, 0.4)]
    trials = 2000
    max_z = 0.0
    for k, rates in enumerate(settings):
        model = pb.NoiseModel(*rates)
        for j, h in enumerate(stumps):
            clean = pb.empirical_risk_true(h, pairs, 1.0)
            vals = np.array([
                pb.corrected_empirical_risk_target(
                    h, pb.corrupt_labels(pairs, model, pb.derive_seed(2, 2, k, j, r)),
                    1.0, model)
                for r in range(trials)
            ])
            se = vals.std(ddof=1) / math.sqrt(trials)
            max_z = max(max_z, abs(vals.mean() - clean) / se)
    elapsed = time.perf_counter() - t0
    ok = max_z <= 4.0 and elapsed < 30.0
    report(f"criterion 02 corrected-risk unbiasedness: {'PASS' if ok else 'FAIL'} "
           f"(15 settings x {trials} corruptions, max |mean-clean|/SE "
           f"{max_z:.2f} <= 4; {elapsed:.2f}s < 30s)")
    assert ok, (max_z, elapsed)


def test_criterion_03_erm_matches_grid_oracle(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    model = pb.NoiseModel(0.1, 0.2)
    mismatches = 0
    for i in range(200):
        n = int(rng.integers(1, 51))
        q = int(rng.integers(1, 4))
        feats = rng.uniform(-2, 2, size=(n, q))
        if i % 3 == 0:
            feats = np.round(feats, 1)  # force duplicate cut values
        pseudo = np.where(rng.uniform(size=n) < 0.5, 1, -1)
        cost_pos, cost_neg = pb.corrected_costs(pseudo, 1.0, model)
        h_fast, c_fast = pb.erm(feats, cost_pos, cost_neg)
        c_oracle = erm_grid_oracle(feats, cost_pos, cost_neg)
        if c_fast != c_oracle:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    report(f"criterion 03 sort-scan ERM vs grid oracle: "
           f"{'PASS' if ok else 'FAIL'} (200 instances, n<=50, q<=3, "
           f"{mismatches} cost mismatches, exact comparison; "
           f"{elapsed:.2f}s < 10s)")
    assert ok, (mismatches, elapsed)


def test_criterion_04_disagreement_gap_dominated_exactly(report):
    t0 = time.perf_counter()
    cfg = pb.default_experiment_config("shifted")
    big_m = cfg.risk.big_m
    _, src = pb.draw_pair_process(cfg.source, cfg.strategy, 256, pb.derive_seed(4, 1))
    _, tgt = pb.draw_pair_process(cfg.target, cfg.strategy, 256,
                                  pb.derive_seed(4, 2))
    d_hat = pb.h_delta_h_distance(src.similarity, tgt.similarity)
    rhs = 0.5 * big_m * d_hat
    violations = 0
    worst_slack = math.inf
    for i in range(200):
        h = pb.random_stump(pb.derive_seed(4, 3, i), src.feature_dim, (0.0, 4.0))
        h2 = pb.random_stump(pb.derive_seed(4, 4, i), src.feature_dim, (0.0, 4.0))
        lhs = abs(pb.empirical_disagreement(h, h2, src.similarity, big_m)
                  - pb.empirical_disagreement(h, h2, tgt.similarity, big_m))
        worst_slack = min(worst_slack, rhs - lhs)
        if lhs > rhs:  # zero tolerance
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report(f"criterion 04 class-distance dominates disagreement gaps: "
           f"{'PASS' if ok else 'FAIL'} (200 stump pairs, rhs {rhs:.6f}, "
           f"{violations} violations at zero tolerance, min slack "
           f"{worst_slack:.6f}; {elapsed:.2f}s < 30s)")
    assert ok, (violations, rhs, elapsed)


# Criterion 05's rows (mu, empirical_prob, hoeffding_rhs, holds), exactly.
# Re-pinned when the center became the exact population risk: the draws are
# unchanged, and the rows equal those of the previous code given that center.
CRITERION_05_ROWS = [
    (0.02, 0.3464, 1.86507838660624, True),
    (0.04000000000000001, 0.0548, 1.5125104024888132, True),
    (0.06000000000000001, 0.0042, 1.066679229367272, True),
    (0.08000000000000002, 0.0002, 0.6541893866783249, True),
    (0.10000000000000002, 0.0, 0.3489051154211419, True),
    (0.12000000000000002, 0.0, 0.1618249073181341, True),
    (0.14, 0.0, 0.06527059690426909, True),
    (0.16, 0.0, 0.02289412180397907, True),
    (0.18000000000000002, 0.0, 0.006983362413410408, True),
    (0.2, 0.0, 0.001852419569529494, True),
]


def test_criterion_05_weighted_mean_concentration(report):
    t0 = time.perf_counter()
    cfg = pb.default_experiment_config("noisy")
    _, ref_pairs = pb.draw_pair_process(cfg.source, cfg.strategy, 512,
                                        pb.derive_seed(5, 90))
    h, _ = pb.fit_plain(ref_pairs, cfg.risk.big_m)
    rows = pb.check_lemma3_concentration(h, cfg, trials=5000, rng_seed=5)
    holds = all(r.holds for r in rows)
    max_excess = max(r.empirical_prob - r.hoeffding_rhs for r in rows)
    pinned = [(r.mu, r.empirical_prob, r.hoeffding_rhs, r.holds)
              for r in rows] == CRITERION_05_ROWS
    elapsed = time.perf_counter() - t0
    ok = len(rows) == 10 and holds and pinned and elapsed < 120.0
    report(f"criterion 05 deviation concentration: {'PASS' if ok else 'FAIL'} "
           f"(5000 trials, 10 thresholds, all within exponential bound "
           f"+ 3 binomial SE, max excess over bound {max_excess:+.4f}; "
           f"rows as pinned={pinned}; {elapsed:.2f}s < 120s)")
    assert ok, ([r.to_dict() for r in rows], elapsed)


def test_criterion_06_bound_holds_across_configs(report):
    t0 = time.perf_counter()
    rates = {}
    ok = True
    for kind in ("clean", "noisy", "shifted"):
        cfg = pb.default_experiment_config(kind)
        v = pb.validate_theorem(cfg, trials=500, rng_seed=6)
        rates[kind] = (v.violation_rate, v.report.rhs)
        ok = ok and v.violation_rate <= cfg.delta
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    detail = ", ".join(f"{k}: rate {r[0]:.3f} (rhs {r[1]:.3f})"
                       for k, r in rates.items())
    report(f"criterion 06 bound violation rate <= 0.1 on 3 configs x 500 "
           f"trials: {'PASS' if ok else 'FAIL'} "
           f"({detail}; {elapsed:.1f}s < 300s)")
    assert ok, (rates, elapsed)


def test_criterion_07_bound_monotonicities(report):
    t0 = time.perf_counter()

    def rhs(**overrides):
        base = dict(alpha=0.5, beta=0.5, m=1000, d=2, delta=0.1, big_m=1.0,
                    rho_neg=0.1, rho_pos=0.1, h_delta_h=0.2,
                    ideal_joint_error=0.05, epsilon_t_star=0.0)
        base.update(overrides)
        return pb.assemble_bound(pb.BoundInputs(**base)).rhs

    rho = [rhs(rho_neg=r, rho_pos=r) for r in (0.0, 0.05, 0.1, 0.15, 0.2)]
    dim = [rhs(d=d) for d in (1, 2, 3, 4, 5)]
    dd = [rhs(h_delta_h=v) for v in (0.0, 0.1, 0.2, 0.3, 0.4)]
    lam = [rhs(ideal_joint_error=v) for v in (0.0, 0.05, 0.1, 0.15, 0.2)]
    mm = [rhs(m=m) for m in (200, 400, 800, 1600, 3200)]
    up = all(np.diff(seq).min() >= 0 for seq in (rho, dim, dd, lam))
    down = np.diff(mm).max() < 0
    elapsed = time.perf_counter() - t0
    ok = up and down and elapsed < 1.0
    report(f"criterion 07 bound monotone in noise/capacity/distance/joint "
           f"error and shrinking in sample size: {'PASS' if ok else 'FAIL'} "
           f"(5-point sweeps, nondecreasing={up}, decreasing in m={down}; "
           f"{elapsed:.2f}s < 1s)")
    assert ok, (rho, dim, dd, lam, mm, elapsed)


def test_criterion_08_mmd_properties(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)
    x = rng.standard_normal((40, 3))
    permuted = x[rng.permutation(40)]
    zero_exact = pb.mmd_squared(x, permuted)
    closed = pb.mmd_squared(np.array([[0.0]]), np.array([[1.0]]), bandwidth=1.0)
    closed_err = abs(closed - (2.0 - 2.0 * math.exp(-0.5)))

    cfg = pb.default_experiment_config("shifted")
    src = pb.generate_domain(cfg.source, 400, pb.derive_seed(8, 1))
    tgt = pb.generate_domain(cfg.target, 400, pb.derive_seed(8, 2))
    bw = pb.median_heuristic_bandwidth(np.vstack([src.features, tgt.features]))
    before = pb.mmd_squared(src.features, tgt.features, bandwidth=bw)
    aligned, _ = pb.align_moments(src, tgt)
    after = pb.mmd_squared(src.features, aligned.features, bandwidth=bw)
    elapsed = time.perf_counter() - t0
    ok = (zero_exact == 0.0 and closed_err <= 1e-9 and after < before
          and elapsed < 5.0)
    report(f"criterion 08 kernel discrepancy properties: "
           f"{'PASS' if ok else 'FAIL'} (multiset-equal inputs -> "
           f"{zero_exact}, two-point value error {closed_err:.1e} <= 1e-9, "
           f"alignment {before:.4f} -> {after:.4f}; {elapsed:.2f}s < 5s)")
    assert ok, (zero_exact, closed_err, before, after, elapsed)


def test_criterion_09_clustering_and_fence_oracles(report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(9)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 31))
        q = int(rng.integers(1, 4))
        pts = np.round(rng.uniform(-2, 2, size=(n, q)), 1)
        eps = float(rng.uniform(0.3, 1.5))
        min_pts = int(rng.integers(1, 6))
        fast = pb.dbscan(pts, pb.DbscanParams(eps, min_pts))
        if not np.array_equal(fast, dbscan_oracle(pts, eps, min_pts)):
            mismatches += 1
    fence_a, mask_a = pb.tukey_fence(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
    fence_b, mask_b = pb.tukey_fence(np.array([1.0, 2.0, 3.0, 4.0]))
    fences_ok = (fence_a == 7.0 and mask_a.tolist() == [False] * 4 + [True]
                 and fence_b == 6.0 and not mask_b.any())
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and fences_ok and elapsed < 5.0
    report(f"criterion 09 density clustering and quartile fence vs oracles: "
           f"{'PASS' if ok else 'FAIL'} (100 random instances, "
           f"{mismatches} mismatches; fences 7.0/6.0 exact={fences_ok}; "
           f"{elapsed:.2f}s < 5s)")
    assert ok, (mismatches, fence_a, fence_b, elapsed)


def test_criterion_10_gradients_match_finite_differences(report):
    t0 = time.perf_counter()
    fd_eps = 1e-6
    worst = 0.0
    for kind in (pb.LOGISTIC, pb.MAE, pb.THRESHOLDED_LOGISTIC):
        cfg = pb.LinearLearnerConfig(loss_kind=kind, l2_penalty=0.01)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            feats = rng.standard_normal((30, 3))
            labels = np.where(feats @ rng.standard_normal(3) > 0, 1, -1)
            w = 0.2 * rng.standard_normal(3)
            b = float(0.1 * rng.standard_normal())
            fence = None
            if kind == pb.THRESHOLDED_LOGISTIC:
                raw = pb.per_sample_losses(labels * (feats @ w + b), pb.LOGISTIC)
                fence = float(np.median(raw))

            def objective(wv, bv):
                return pb.batch_objective_and_grad(feats, labels, wv, bv, cfg,
                                                   fence=fence)[0]

            _, gw, gb = pb.batch_objective_and_grad(feats, labels, w, b, cfg,
                                                    fence=fence)
            for j in range(3):
                step = np.zeros(3)
                step[j] = fd_eps
                num = (objective(w + step, b) - objective(w - step, b)) / (2 * fd_eps)
                worst = max(worst, abs(num - gw[j]) / max(1.0, abs(gw[j])))
            num_b = (objective(w, b + fd_eps) - objective(w, b - fd_eps)) / (2 * fd_eps)
            worst = max(worst, abs(num_b - gb) / max(1.0, abs(gb)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 5.0
    report(f"criterion 10 analytic gradients vs central differences: "
           f"{'PASS' if ok else 'FAIL'} (3 loss kinds x 10 points, worst "
           f"relative error {worst:.2e} <= 1e-5; {elapsed:.2f}s < 5s)")
    assert ok, (worst, elapsed)


def test_criterion_11_good_practice_directions(report):
    t0 = time.perf_counter()
    base = pb.default_experiment_config("practice")
    seeds = [pb.derive_seed(base.master_seed, 30, t) for t in range(20)]
    full = pb.Toggles()
    settings = {
        "full": full,
        "all_off": pb.Toggles.all_off(),
        "sg_only": pb.Toggles(True, False, False, False),
        "sg_align": pb.Toggles(True, True, False, False),
        "full_unfiltered": replace(full, outlier_filtering=False),
    }
    # Seed-major, so the runs sharing a seed meet the pipeline's memos back
    # to back; each setting still lists its runs in seed order.
    runs = {name: [] for name in settings}
    for s in seeds:
        for name, tog in settings.items():
            runs[name].append(pb.run_self_learning(replace(base, toggles=tog,
                                                           master_seed=s)))
    means = {name: float(np.mean([r.final_risk for r in rs]))
             for name, rs in runs.items()}

    direction_a = means["full"] < means["all_off"]
    direction_c = means["sg_align"] < means["sg_only"]
    # (b): paired runs differing only in outlier_filtering; the filtered
    # run's effective training rate never exceeds the unfiltered run's.
    rate_checks = 0
    rate_violations = 0
    for r_f, r_n in zip(runs["full"], runs["full_unfiltered"]):
        for rec_f, rec_n in zip(r_f.iterations, r_n.iterations):
            eff = rec_f.rho_after if rec_f.rho_after is not None else rec_f.rho_before
            rate_checks += 1
            if (eff.rho_neg + eff.rho_pos
                    > rec_n.rho_before.rho_neg + rec_n.rho_before.rho_pos):
                rate_violations += 1
    direction_b = rate_violations == 0 and rate_checks == 20 * base.iterations
    elapsed = time.perf_counter() - t0
    ok = direction_a and direction_b and direction_c and elapsed < 600.0
    report(f"criterion 11 good-practice directions over 20 paired seeds: "
           f"{'PASS' if ok else 'FAIL'} ((a) full {means['full']:.4f} < "
           f"all-off {means['all_off']:.4f}: {direction_a}; (b) filtering "
           f"keeps rates below unfiltered in {rate_checks - rate_violations}"
           f"/{rate_checks} iterations: {direction_b}; (c) alignment "
           f"{means['sg_align']:.4f} < none {means['sg_only']:.4f}: "
           f"{direction_c}; {elapsed:.1f}s < 600s)")
    assert ok, (means, rate_violations, elapsed)
