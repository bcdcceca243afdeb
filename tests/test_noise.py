import numpy as np
import pytest

import pseudobound as pb


def drawn_pairs(n=200, seed=3):
    cfg = pb.default_experiment_config("clean")
    return pb.draw_pair_process(cfg.target, cfg.strategy, n, seed)[1]


def test_noise_model_validation():
    pb.NoiseModel(0.0, 0.0)
    pb.NoiseModel(0.3, 0.1)
    with pytest.raises(pb.InvalidNoiseError):
        pb.NoiseModel(0.49, 0.51)
    with pytest.raises(pb.InvalidNoiseError):
        pb.NoiseModel(-0.1, 0.2)
    assert pb.NoiseModel(0.1, 0.2).denominator == pytest.approx(0.7)


def test_corrupt_labels_zero_noise_is_identity():
    pairs = drawn_pairs()
    out = pb.corrupt_labels(pairs, pb.NO_NOISE, 1)
    assert np.array_equal(out.pseudo_labels, pairs.true_labels)
    assert np.array_equal(out.true_labels, pairs.true_labels)


def test_corrupt_labels_flip_rate_concentrates():
    # model (0.3, 0.1) on 1e5 pairs: empirical flip rate of the negative
    # class within 3 sqrt(0.3 * 0.7 / n_neg) of 0.3.
    pairs = drawn_pairs(n=100_000, seed=8)
    out = pb.corrupt_labels(pairs, pb.NoiseModel(0.3, 0.1), 21)
    neg = pairs.true_labels == -1
    rate = np.mean(out.pseudo_labels[neg] != -1)
    assert abs(rate - 0.3) <= 3 * np.sqrt(0.3 * 0.7 / neg.sum())
    pos = ~neg
    rate_pos = np.mean(out.pseudo_labels[pos] != 1)
    assert abs(rate_pos - 0.1) <= 3 * np.sqrt(0.1 * 0.9 / pos.sum())


def test_corrupt_labels_deterministic():
    pairs = drawn_pairs()
    a = pb.corrupt_labels(pairs, pb.NoiseModel(0.2, 0.2), 5)
    b = pb.corrupt_labels(pairs, pb.NoiseModel(0.2, 0.2), 5)
    assert np.array_equal(a.pseudo_labels, b.pseudo_labels)


def test_zero_m_loss_examples():
    assert pb.zero_m_loss(1, 1, 2.0) == 0.0
    assert pb.zero_m_loss(1, -1, 2.0) == 2.0
    assert pb.zero_m_loss(-1, 1, 0.5) == 0.5


def test_corrected_loss_worked_examples():
    model = pb.NoiseModel(0.1, 0.2)
    assert pb.corrected_loss(1, 1, 1.0, model) == pytest.approx(-2 / 7, abs=1e-12)
    assert pb.corrected_loss(-1, 1, 1.0, model) == pytest.approx(9 / 7, abs=1e-12)


def test_corrected_loss_zero_noise_reduction():
    for y in (-1, 1):
        for yp in (-1, 1):
            for m in (1.0, 2.5):
                assert pb.corrected_loss(y, yp, m, pb.NO_NOISE) == \
                    pb.zero_m_loss(y, yp, m)


def test_corrected_loss_range_bounds_all_values():
    """Every corrected loss lies in [-M/denom, +M/denom]."""
    model = pb.NoiseModel(0.15, 0.25)
    vals = [pb.corrected_loss(y, yp, 3.0, model)
            for y in (-1, 1) for yp in (-1, 1)]
    assert max(abs(v) for v in vals) <= 3.0 / model.denominator


def test_corrected_costs_match_pointwise_loss():
    model = pb.NoiseModel(0.1, 0.2)
    pseudo = np.array([1, -1, 1, -1])
    cost_pos, cost_neg = pb.corrected_costs(pseudo, 1.0, model)
    for i, yp in enumerate(pseudo):
        assert cost_pos[i] == pb.corrected_loss(1, int(yp), 1.0, model)
        assert cost_neg[i] == pb.corrected_loss(-1, int(yp), 1.0, model)


@pytest.mark.parametrize("labels", [[1, pb.ABSENT, -1], [2, -1], [[1, -1], [1, 0]]])
def test_corrected_costs_reject_a_label_other_than_plus_minus_one(labels):
    """An ABSENT label used to get the -1 label's costs without an error."""
    with pytest.raises(pb.DegenerateInputError, match="pseudo-labels"):
        pb.corrected_costs(np.array(labels), 1.0, pb.NoiseModel(0.1, 0.2))


def test_corrected_cost_unbiasedness_identity():
    """E over corruption of the corrected cost equals the clean 0-M cost.

    Checked in exact arithmetic, per (prediction, true label) cell:
    (1 - rho_y) Ltilde(t, y) + rho_y Ltilde(t, -y) == L(t, y).
    """
    model = pb.NoiseModel(0.1, 0.2)
    rho = {1: model.rho_pos, -1: model.rho_neg}
    for t in (-1, 1):
        for y in (-1, 1):
            mixed = (1 - rho[y]) * pb.corrected_loss(t, y, 1.0, model) \
                + rho[y] * pb.corrected_loss(t, -y, 1.0, model)
            assert mixed == pytest.approx(pb.zero_m_loss(t, y, 1.0), abs=1e-12)


def test_zero_m_costs():
    cost_pos, cost_neg = pb.zero_m_costs(np.array([1, -1]), 2.0)
    assert np.array_equal(cost_pos, np.array([0.0, 2.0]))
    assert np.array_equal(cost_neg, np.array([2.0, 0.0]))


def test_estimate_noise_rates_counting_example():
    # 4 true negatives with 1 flipped, 2 true positives with 0 flipped.
    true = np.array([-1, -1, -1, -1, 1, 1])
    pseudo = np.array([1, -1, -1, -1, 1, 1])
    pairs = pb.PairSet(np.zeros((6, 1)), true, pseudo_labels=pseudo)
    est = pb.estimate_noise_rates(pairs)
    assert (est.rho_neg, est.rho_pos) == (0.25, 0.0)
    assert (est.n_neg, est.n_pos) == (4, 2)
    assert not est.degenerate
    model = est.as_model()
    assert model.rho_neg == 0.25


def test_estimate_noise_rates_matches_planted_model():
    pairs = drawn_pairs(n=100_000, seed=2)
    out = pb.corrupt_labels(pairs, pb.NoiseModel(0.2, 0.1), 9)
    est = pb.estimate_noise_rates(out)
    n_neg = int((pairs.true_labels == -1).sum())
    n_pos = len(pairs) - n_neg
    assert abs(est.rho_neg - 0.2) <= 3 * np.sqrt(0.2 * 0.8 / n_neg)
    assert abs(est.rho_pos - 0.1) <= 3 * np.sqrt(0.1 * 0.9 / n_pos)


def test_estimate_noise_rates_errors():
    empty = pb.PairSet(np.zeros((0, 1)), np.zeros(0, dtype=int))
    with pytest.raises(pb.EmptyInputError):
        pb.estimate_noise_rates(empty)
    no_pseudo = pb.PairSet(np.zeros((2, 1)), np.array([1, -1]))
    with pytest.raises(pb.DegenerateInputError):
        pb.estimate_noise_rates(no_pseudo)
    only_pos = pb.PairSet(np.zeros((2, 1)), np.array([1, 1]),
                          pseudo_labels=np.array([1, 1]))
    with pytest.raises(pb.UndefinedRateError):
        pb.estimate_noise_rates(only_pos)


def test_degenerate_estimate_rejected_as_model():
    true = np.array([-1, -1, 1, 1])
    pseudo = np.array([1, 1, -1, -1])  # everything flipped: rates sum to 2
    est = pb.estimate_noise_rates(
        pb.PairSet(np.zeros((4, 1)), true, pseudo_labels=pseudo))
    assert est.degenerate
    with pytest.raises(pb.InvalidNoiseError):
        est.as_model()
