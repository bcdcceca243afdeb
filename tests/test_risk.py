import math

import numpy as np
import pytest

import pseudobound as pb


CFG = pb.default_experiment_config("noisy")
STRAT = pb.PairStrategy.balanced(3)


def test_risk_config_validation_and_split():
    with pytest.raises(pb.ConfigurationError):
        pb.RiskConfig(big_m=0.0, alpha=0.5, beta=0.5)
    with pytest.raises(pb.ConfigurationError):
        pb.RiskConfig(big_m=1.0, alpha=1.2, beta=0.5)
    with pytest.raises(pb.ConfigurationError):
        pb.RiskConfig(big_m=1.0, alpha=0.5, beta=1.0)
    cfg = pb.RiskConfig(big_m=1.0, alpha=0.5, beta=0.5)
    assert cfg.split_m(400) == (200, 200)
    assert sum(pb.RiskConfig(1.0, 0.5, 0.7).split_m(401)) == 401


def test_empirical_risk_true_counting():
    # h wrong on 3 of 10 with M=2 -> 0.6
    feats = np.linspace(0.0, 9.0, 10).reshape(-1, 1)
    labels = np.where(feats[:, 0] > 6.5, 1, -1)
    labels[:3] = 1  # three misses for the threshold-6.5 stump
    pairs = pb.PairSet(feats, labels)
    h = pb.StumpHypothesis(0, 6.5, 1)
    assert pb.empirical_risk_true(h, pairs, 2.0) == 0.6


def test_missing_pseudo_labels_raise_typed_errors():
    no_pseudo = pb.PairSet(np.array([[0.0], [1.0]]), np.array([-1, 1]))
    empty = pb.PairSet(np.zeros((0, 1)), np.zeros(0, dtype=int))
    h = pb.StumpHypothesis(0, 0.5, 1)
    with pytest.raises(pb.DegenerateInputError):
        pb.corrected_empirical_risk_target(h, no_pseudo, 1.0, pb.NO_NOISE)
    with pytest.raises(pb.DegenerateInputError):
        pb.fit_target_corrected(no_pseudo, 1.0, pb.NO_NOISE)
    with pytest.raises(pb.DegenerateInputError):
        pb.fit_source_guided(no_pseudo, no_pseudo, pb.RiskConfig(1.0), pb.NO_NOISE)
    with pytest.raises(pb.EmptyInputError):
        pb.corrected_empirical_risk_target(h, empty, 1.0, pb.NO_NOISE)
    with pytest.raises(pb.EmptyInputError):
        pb.fit_target_corrected(empty, 1.0, pb.NO_NOISE)


def test_empirical_risk_perfect_and_total():
    feats = np.array([[0.0], [1.0], [2.0]])
    labels = np.array([-1, -1, 1])
    pairs = pb.PairSet(feats, labels)
    good = pb.StumpHypothesis(0, 1.5, 1)
    assert pb.empirical_risk_true(good, pairs, 3.0) == 0.0
    assert pb.empirical_risk_true(pb.StumpHypothesis(0, 1.5, -1), pairs, 3.0) == 3.0


def test_corrected_empirical_risk_worked_example():
    # pairs with (h(x), pseudo) = (+1, +1) and (-1, +1): mean of (-2/7, 9/7)
    feats = np.array([[1.0], [0.0]])
    pairs = pb.PairSet(feats, np.array([1, 1]),
                       pseudo_labels=np.array([1, 1]))
    h = pb.StumpHypothesis(0, 0.5, 1)
    model = pb.NoiseModel(0.1, 0.2)
    value = pb.corrected_empirical_risk_target(h, pairs, 1.0, model)
    assert value == pytest.approx(0.5, abs=1e-12)


def test_corrected_risk_zero_noise_reduces_to_pseudo_risk():
    _, pairs = pb.draw_pair_process(CFG.target, STRAT, 300, 5)
    pairs = pb.corrupt_labels(pairs, pb.NoiseModel(0.0, 0.0), 1)
    h = pb.random_stump(4, 4)
    corrected = pb.corrected_empirical_risk_target(h, pairs, 1.0, pb.NO_NOISE)
    plain = np.mean(h.predict(pairs.similarity) != pairs.pseudo_labels)
    assert corrected == pytest.approx(plain, abs=1e-12)


def test_source_guided_risk_endpoints_and_mix():
    _, src = pb.draw_pair_process(CFG.source, STRAT, 200, 1)
    _, tgt = pb.draw_pair_process(CFG.target, STRAT, 200, 2)
    tgt = pb.corrupt_labels(tgt, pb.NoiseModel(0.1, 0.2), 3)
    model = pb.NoiseModel(0.1, 0.2)
    h = pb.random_stump(1, 4)

    corrected = pb.corrected_empirical_risk_target(h, tgt, 1.0, model)
    source = pb.empirical_risk_true(h, src, 1.0)
    at_1 = pb.source_guided_risk(h, src, tgt, pb.RiskConfig(1.0, 1.0, 0.5), model)
    at_0 = pb.source_guided_risk(h, src, tgt, pb.RiskConfig(1.0, 0.0, 0.5), model)
    mid = pb.source_guided_risk(h, src, tgt, pb.RiskConfig(1.0, 0.5, 0.5), model)
    assert at_1 == pytest.approx(corrected, abs=1e-15)
    assert at_0 == pytest.approx(source, abs=1e-15)
    assert mid == pytest.approx(0.5 * corrected + 0.5 * source, abs=1e-12)


def test_source_guided_risk_convex_combination_example():
    # alpha = 0.5 with component risks (0.5, 0.3) -> 0.4, by direct formula
    assert 0.5 * 0.5 + 0.5 * 0.3 == pytest.approx(0.4)


def test_empirical_disagreement():
    feats = np.array([[0.0], [1.0], [2.0], [3.0]])
    a = pb.StumpHypothesis(0, 0.5, 1)
    b = pb.StumpHypothesis(0, 2.5, 1)
    # disagree on x in (0.5, 2.5): two of four points
    assert pb.empirical_disagreement(a, b, feats, 2.0) == 1.0
    assert pb.empirical_disagreement(a, a, feats, 2.0) == 0.0


def test_expected_risk_complement_identity():
    h = pb.random_stump(9, 4)
    est, se = pb.expected_risk(h, CFG.target, STRAT, 1.0,
                               oracle_n=2 ** 14, rng_seed=3)
    flipped = pb.StumpHypothesis(h.coordinate, h.threshold, -h.sign)
    est_f, _ = pb.expected_risk(flipped, CFG.target, STRAT, 1.0,
                                oracle_n=2 ** 14, rng_seed=3)
    assert est + est_f == 1.0  # exact: same draw, complementary misses
    assert se > 0


def test_expected_risk_zero_for_perfect_hypothesis():
    """A realizable domain admits a zero-risk stump with zero stderr."""
    centers = np.array([[0.0], [8.0]])
    spec = pb.DomainSpec(2, 1, centers, 0.01, pb.AffineMap.identity(1), 3)
    # same-identity pairs have tiny similarity, cross pairs sit near 8
    h = pb.StumpHypothesis(0, 4.0, -1)
    est, se = pb.expected_risk(h, spec, STRAT, 1.0, oracle_n=10_000, rng_seed=0)
    assert est == 0.0
    assert se == 0.0


def test_expected_risk_matches_duplicate_estimator():
    """Re-implements the documented draw chain and must agree exactly."""
    h = pb.random_stump(2, 4)
    spec = CFG.target
    est, _ = pb.expected_risk(h, spec, STRAT, 1.0, oracle_n=10_000, rng_seed=17)
    samples, pairs = pb.draw_pair_process(spec, STRAT, 10_000, 17)
    miss = np.count_nonzero(h.predict(pairs.similarity) != pairs.true_labels)
    assert est == miss / 10_000


def test_expected_risk_rejects_small_oracle():
    with pytest.raises(pb.ConfigurationError):
        pb.expected_risk(pb.random_stump(0, 4), CFG.target, STRAT, 1.0,
                         oracle_n=100, rng_seed=0)


SHIFTED = pb.default_experiment_config("shifted")


@pytest.mark.parametrize("spec,strategy,hyp", [
    (SHIFTED.target, STRAT, pb.StumpHypothesis(1, 0.4, 1)),
    (SHIFTED.source, STRAT, pb.StumpHypothesis(0, -0.5, 1)),
    (SHIFTED.target, pb.PairStrategy.all_pairs(), pb.StumpHypothesis(3, 1.2, -1)),
], ids=["target-plus", "source-negative-threshold", "target-all-minus"])
def test_exact_risk_within_4_se_of_a_million_pair_draw(spec, strategy, hyp):
    """The shifted target's transform is not the identity; the source's is."""
    [exact] = pb.exact_risks([hyp], spec, strategy, 2.0)
    est, se = pb.expected_risk(hyp, spec, strategy, 2.0, oracle_n=10 ** 6, rng_seed=11)
    assert 0.0 < exact < 2.0
    assert abs(est - exact) <= 4.0 * se


def test_exact_risk_of_a_stump_and_its_flip_sum_to_m():
    for spec in (SHIFTED.source, SHIFTED.target):
        for strategy in (STRAT, pb.PairStrategy.balanced(1), pb.PairStrategy.all_pairs()):
            for s in range(20):
                h = pb.random_stump(s, 4)
                flip = pb.StumpHypothesis(h.coordinate, h.threshold, -h.sign)
                risk, flipped = pb.exact_risks([h, flip], spec, strategy, 1.5)
                assert abs(risk + flipped - 1.5) <= 1e-12


def test_exact_risk_scores_a_zero_transform_row_as_a_point_mass():
    """Coordinate 1 of every member is the offset, so |D_1| is exactly 0: a
    stump predicts s everywhere below threshold 0 and -s from 0 up."""
    amap = pb.AffineMap(np.diag([1.0, 0.0]), np.array([0.0, 3.0]))
    spec = pb.DomainSpec(2, 2, np.array([[0.0, 1.0], [2.0, -1.0]]), 0.5, amap, 1)
    for strategy, p_pos in ((pb.PairStrategy.balanced(3), 0.25),
                            (pb.PairStrategy.all_pairs(), 0.5)):
        for t, s, risk in ((-1e-9, 1, 1.0 - p_pos), (-1e-9, -1, p_pos),
                           (0.0, 1, p_pos), (0.0, -1, 1.0 - p_pos),
                           (2.5, -1, 1.0 - p_pos)):
            assert pb.exact_risks([pb.StumpHypothesis(1, t, s)], spec, strategy,
                                  1.0) == [risk]


def test_exact_risk_typed_errors_and_one_identity():
    spec = pb.DomainSpec(1, 2, np.zeros((1, 2)), 1.0, pb.AffineMap.identity(2), 0)
    h = pb.StumpHypothesis(0, 0.5, 1)
    with pytest.raises(pb.DegenerateInputError):
        pb.exact_risks([h], spec, STRAT, 1.0)
    with pytest.raises(pb.ConfigurationError, match="coordinate 2"):
        pb.exact_risks([pb.StumpHypothesis(2, 0.5, 1)], spec, pb.PairStrategy.all_pairs(), 1.0)
    # one positive component, D_0 ~ N(0, 2): the stump misses on |D_0| <= 0.5
    [risk] = pb.exact_risks([h], spec, pb.PairStrategy.all_pairs(), 1.0)
    assert risk == pytest.approx(math.erf(0.25), rel=1e-15)


def test_exact_risks_equal_exact_risk_bit_for_bit():
    """The batched scorer against the scalar reference in oracles.py: random
    stumps, t = +-inf, t = 0 and -0.0, t < 0, both signs, all strategies, and
    a zero transform row (coordinate 1 of the last spec)."""
    from oracles import exact_risk

    zero_row = pb.DomainSpec(3, 2, np.array([[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]]),
                             0.5, pb.AffineMap(np.diag([1.0, 0.0]), np.array([0.0, 3.0])), 1)
    edges = [math.inf, -math.inf, 0.0, -0.0, -0.5, 1e-300, 2.0]
    for spec in (SHIFTED.source, SHIFTED.target, zero_row):
        q = spec.feature_dim
        stumps = [pb.random_stump(s, q, (-1.0, 5.0)) for s in range(60)]
        stumps += [pb.StumpHypothesis(j, t, s) for j in range(q) for t in edges
                   for s in (1, -1)]
        for strategy in (STRAT, pb.PairStrategy.balanced(1), pb.PairStrategy.all_pairs()):
            expected = [exact_risk(h, spec, strategy, 1.5) for h in stumps]
            assert pb.exact_risks(stumps, spec, strategy, 1.5) == expected
    assert pb.exact_risks([], SHIFTED.target, STRAT, 1.0) == []
    with pytest.raises(pb.ConfigurationError, match="coordinate 4"):
        pb.exact_risks([pb.StumpHypothesis(4, 0.0, 1)], SHIFTED.target, STRAT, 1.0)


@pytest.mark.parametrize("kind", ["clean", "shifted"])
def test_min_exact_risk_against_a_threshold_grid(kind):
    """eps*_T and lambda lie at or below every point of a 2 001-point
    threshold grid per coordinate and sign, and within 1e-6 of its minimum
    (noisy has clean's domains)."""
    from oracles import brute_force_min_exact_risk

    cfg = pb.default_experiment_config(kind)
    for specs in ([cfg.target], [cfg.source, cfg.target]):
        exact = pb.min_exact_risk(specs, cfg.strategy, 1.0)
        grid = brute_force_min_exact_risk(specs, cfg.strategy, 1.0)
        assert exact <= grid <= exact + 1e-6


def test_min_exact_risk_scores_a_zero_transform_row_at_threshold_zero():
    """Under ``all``, flat's pairs (three identities, zero transform) sit at
    |D| = 0 and one in three is positive; lone's (one identity) are all
    positive and |D| > 0 surely.  Only t = 0 with sign +1 predicts -1 on
    every flat pair and +1 on every lone pair, for a summed risk of 1/3;
    t = +-inf score 2/3 at best."""
    flat = pb.DomainSpec(3, 1, np.array([[0.0], [1.0], [2.0]]), 0.5,
                         pb.AffineMap(np.zeros((1, 1)), np.zeros(1)), 1)
    lone = pb.DomainSpec(1, 1, np.zeros((1, 1)), 0.5, pb.AffineMap.identity(1), 2)
    for specs in ([flat, lone], [lone, flat]):
        assert pb.min_exact_risk(specs, pb.PairStrategy.all_pairs(), 1.0) == \
            pytest.approx(1.0 / 3.0, abs=1e-15)


def test_min_exact_risk_typed_errors():
    """No domain, or domains of unequal feature_dim in either order."""
    wide = pb.DomainSpec(3, 6, np.arange(18.0).reshape(3, 6), 0.5,
                         pb.AffineMap.identity(6), 1)
    with pytest.raises(pb.EmptyInputError):
        pb.min_exact_risk([], STRAT, 1.0)
    for specs in ([SHIFTED.source, wide], [wide, SHIFTED.source]):
        with pytest.raises(pb.ConfigurationError, match=r"feature_dim, got \[\d, \d\]"):
            pb.min_exact_risk(specs, STRAT, 1.0)


def test_exact_oracle_does_not_import_numpy_ma():
    """np.unique without return_inverse imports numpy.ma, which stays
    resident (about 1 MB of peak RSS in the benchmark workers)."""
    import subprocess
    import sys

    code = ("import sys, pseudobound as pb\n"
            "cfg = pb.default_experiment_config('shifted')\n"
            "pb.min_exact_risk([cfg.source, cfg.target], cfg.strategy, 1.0)\n"
            "pb.exact_risks([pb.StumpHypothesis(0, 1.0, 1)], cfg.target, cfg.strategy, 1.0)\n"
            "assert 'numpy.ma' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], check=True)


def test_fit_plain_beats_random_stumps():
    _, pairs = pb.draw_pair_process(CFG.source, STRAT, 400, 23)
    h, cost = pb.fit_plain(pairs, 1.0)
    assert cost == pb.empirical_risk_true(h, pairs, 1.0)
    for s in range(10):
        other = pb.random_stump(s, 4)
        assert cost <= pb.empirical_risk_true(other, pairs, 1.0)


def test_fit_target_corrected_minimizes_corrected_risk():
    _, tgt = pb.draw_pair_process(CFG.target, STRAT, 300, 31)
    model = pb.NoiseModel(0.1, 0.2)
    tgt = pb.corrupt_labels(tgt, model, 7)
    h, value = pb.fit_target_corrected(tgt, 1.0, model)
    achieved = pb.corrected_empirical_risk_target(h, tgt, 1.0, model)
    assert value == pytest.approx(achieved, abs=1e-12)
    for s in range(10):
        other = pb.random_stump(100 + s, 4)
        assert achieved <= pb.corrected_empirical_risk_target(
            other, tgt, 1.0, model) + 1e-12


def test_fit_source_guided_minimizes_mixed_objective():
    model = pb.NoiseModel(0.1, 0.2)
    cfg = pb.RiskConfig(1.0, 0.5, 0.5)
    _, src = pb.draw_pair_process(CFG.source, STRAT, 200, 41)
    _, tgt = pb.draw_pair_process(CFG.target, STRAT, 200, 42)
    tgt = pb.corrupt_labels(tgt, model, 1)
    h, value = pb.fit_source_guided(src, tgt, cfg, model)
    achieved = pb.source_guided_risk(h, src, tgt, cfg, model)
    assert value == pytest.approx(achieved, abs=1e-12)
    for s in range(10):
        other = pb.random_stump(200 + s, 4)
        assert achieved <= pb.source_guided_risk(other, src, tgt, cfg, model) + 1e-12


def test_fit_source_guided_alpha_one_ignores_source():
    model = pb.NoiseModel(0.1, 0.2)
    _, src = pb.draw_pair_process(CFG.source, STRAT, 150, 51)
    _, tgt = pb.draw_pair_process(CFG.target, STRAT, 150, 52)
    tgt = pb.corrupt_labels(tgt, model, 2)
    h_mix, v_mix = pb.fit_source_guided(src, tgt, pb.RiskConfig(1.0, 1.0, 0.5), model)
    h_tgt, v_tgt = pb.fit_target_corrected(tgt, 1.0, model)
    assert h_mix == h_tgt
    assert v_mix == pytest.approx(v_tgt, abs=1e-12)
