import numpy as np
import pytest

import pseudobound as pb
from oracles import erm_grid_oracle, erm_stable_scan_oracle
from pseudobound.stumps import erm_batch


def test_predict_conventions():
    h = pb.StumpHypothesis(0, 0.5, 1)
    assert h.predict(np.array([1.0])) == 1
    assert h.flipped().predict(np.array([1.0])) == -1
    # boundary: x == t is NOT greater, so the negative side wins
    assert pb.StumpHypothesis(0, 1.0, 1).predict(np.array([1.0])) == -1


def test_predict_vectorized_matches_scalar():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((30, 3))
    h = pb.StumpHypothesis(2, 0.1, -1)
    batch = h.predict(x)
    assert batch.shape == (30,)
    for i in range(30):
        assert batch[i] == h.predict(x[i])


def test_misses_counts_wrong_predictions():
    rng = np.random.default_rng(3)
    feats = np.round(rng.standard_normal((50, 3)), 1)
    labels = rng.choice([-1, 1], size=50).astype(np.int8)
    for h in (pb.StumpHypothesis(1, 0.1, 1), pb.StumpHypothesis(2, 0.0, -1),
              pb.StumpHypothesis(0, -np.inf, 1)):
        assert h.misses(feats, labels) == np.count_nonzero(h.predict(feats) != labels)


def test_stump_validation_and_round_trip():
    with pytest.raises(pb.ConfigurationError):
        pb.StumpHypothesis(0, 0.0, 0)
    with pytest.raises(pb.ConfigurationError):
        pb.StumpHypothesis(-1, 0.0, 1)
    h = pb.StumpHypothesis(1, -0.25, -1)
    assert pb.StumpHypothesis.from_dict(h.to_dict()) == h


def test_vc_dimension():
    assert pb.vc_dimension(1) == 2
    assert pb.vc_dimension(2) == 3
    assert pb.vc_dimension(4) == 4
    assert pb.vc_dimension(7) == 4
    assert pb.vc_dimension(8) == 5
    with pytest.raises(pb.ConfigurationError):
        pb.vc_dimension(0)


def test_erm_realizable_1d():
    # labels -1, -1, +1 on x = 1, 2, 3: zero cost, threshold in (2, 3)
    feats = np.array([[1.0], [2.0], [3.0]])
    cost_pos, cost_neg = pb.zero_m_costs(np.array([-1, -1, 1]), 1.0)
    h, cost = pb.erm(feats, cost_pos, cost_neg)
    assert cost == 0.0
    assert h.sign == 1
    assert 2.0 < h.threshold < 3.0


def test_erm_all_zero_costs():
    feats = np.array([[0.0], [1.0]])
    h, cost = pb.erm(feats, np.zeros(2), np.zeros(2))
    assert cost == 0.0
    assert isinstance(h, pb.StumpHypothesis)


def test_erm_cost_is_exact_for_returned_stump():
    rng = np.random.default_rng(4)
    feats = rng.standard_normal((60, 3))
    cp = rng.standard_normal(60)
    cn = rng.standard_normal(60)
    h, cost = pb.erm(feats, cp, cn)
    import math
    direct = math.fsum(np.where(h.predict(feats) == 1, cp, cn).tolist())
    assert cost == direct


def test_erm_matches_grid_oracle_with_corrected_costs():
    """40 random points, corrected-loss costs under NoiseModel(0.1, 0.2)."""
    rng = np.random.default_rng(12)
    model = pb.NoiseModel(0.1, 0.2)
    for _ in range(20):
        feats = rng.standard_normal((40, 2))
        pseudo = rng.choice([-1, 1], size=40)
        cp, cn = pb.corrected_costs(pseudo, 1.0, model)
        _, cost = pb.erm(feats, cp, cn)
        assert cost == erm_grid_oracle(feats, cp, cn)


def test_erm_handles_duplicate_values():
    # duplicates force cuts to skip equal-value positions
    feats = np.array([[0.0], [0.0], [0.0], [1.0], [1.0]])
    cp = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
    cn = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    h, cost = pb.erm(feats, cp, cn)
    assert cost == 0.0
    assert 0.0 < h.threshold < 1.0
    assert h.sign == 1


def test_erm_tie_break_is_deterministic():
    rng = np.random.default_rng(7)
    feats = np.round(rng.standard_normal((25, 3)), 1)  # induce ties
    cp = rng.choice([0.0, 1.0], size=25)
    cn = 1.0 - cp
    first = pb.erm(feats, cp, cn)
    for _ in range(3):
        again = pb.erm(feats, cp, cn)
        assert again[0] == first[0] and again[1] == first[1]


def test_erm_tie_break_prefers_first_coordinate_threshold_and_sign():
    # identical columns tie across coordinates: the first one wins
    feats = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    cp = np.array([1.0, 0.0, 0.0])
    h, cost = pb.erm(feats, cp, 1.0 - cp)
    assert (h, cost) == (pb.StumpHypothesis(0, 0.5, 1), 0.0)
    # every stump ties: the first cut (-inf) with sign +1 wins
    h, cost = pb.erm(feats, np.zeros(3), np.zeros(3))
    assert (h, cost) == (pb.StumpHypothesis(0, -np.inf, 1), 0.0)


def test_erm_input_validation():
    with pytest.raises(pb.EmptyInputError):
        pb.erm(np.zeros((0, 2)), np.zeros(0), np.zeros(0))
    with pytest.raises(pb.ConfigurationError):
        pb.erm(np.zeros((3, 2)), np.zeros(2), np.zeros(3))
    with pytest.raises(pb.ConfigurationError):
        pb.erm(np.array([[np.nan]]), np.zeros(1), np.zeros(1))


def test_random_stump_is_seeded_and_in_range():
    h = pb.random_stump(3, 4)
    assert h == pb.random_stump(3, 4)
    assert 0 <= h.coordinate < 4
    assert -3.0 <= h.threshold <= 3.0
    seen_signs = {pb.random_stump(s, 2).sign for s in range(20)}
    assert seen_signs == {-1, 1}


@pytest.mark.parametrize("lo, hi", [
    (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
    (1.7e308, 1.75e308),
    (-1.75e308, -1.7e308),
])
def test_erm_threshold_splits_where_midpoint_rounds_or_overflows(lo, hi):
    # The midpoint of lo and hi rounds up to hi (first case) or overflows to
    # +-inf (the others); the stump must still put hi above the threshold.
    feats = np.array([[lo], [hi]])
    cp = np.array([1.0, 0.0])
    cn = np.array([0.0, 1.0])
    h, cost = pb.erm(feats, cp, cn)
    assert cost == 0.0
    assert h.predict(feats).tolist() == [-1, 1]
    assert erm_grid_oracle(feats, cp, cn) == 0.0


def _batch_problems(rng, b, n, q, kind):
    feats = rng.standard_normal((b, n, q))
    if kind == "rounded":
        feats = np.round(feats, 1)  # ties within and across coordinates
    elif kind == "constant":
        feats[:, :, 0] = 0.25
    cp = rng.choice([0.0, 0.25, 1.0, -1 / 3], size=(b, n))
    cn = rng.choice([0.0, 0.5, 1.0], size=(b, n))
    return feats, cp, cn


@pytest.mark.parametrize("b, n, q, kind", [
    (1, 40, 3, "raw"),
    (7, 40, 3, "raw"),
    (5, 25, 3, "rounded"),
    (4, 30, 2, "constant"),
    (6, 1, 2, "raw"),
    (3, 2, 1, "rounded"),
])
def test_erm_batch_equals_erm_problem_by_problem(b, n, q, kind):
    rng = np.random.default_rng(b * 100 + n)
    feats, cp, cn = _batch_problems(rng, b, n, q, kind)
    fits = erm_batch(feats, cp, cn)
    assert len(fits) == b
    for i, (h, cost) in enumerate(fits):
        alone = pb.erm(feats[i], cp[i], cn[i])
        assert h == alone[0] and cost == alone[1]
        assert cost == erm_grid_oracle(feats[i], cp[i], cn[i])


def test_erm_batch_tie_rows_match_stable_scan():
    """Tie-free rows and rows with repeated values or +-0.0 share one batch;
    every row's stump (threshold bits included) and cost equal a per-row
    stable-sort scan.  Costs span 17 orders of magnitude, so the order a tie
    group is summed in decides which of two near-equal cuts wins."""
    rng = np.random.default_rng(11)
    b, n, q = 24, 60, 3
    feats = rng.standard_normal((b, n, q))
    feats[1::3] = rng.integers(-2, 3, size=(len(feats[1::3]), n, q)).astype(float)
    zeros = feats[2::3]
    zeros[rng.random(zeros.shape) < 0.4] = 0.0
    zeros[rng.random(zeros.shape) < 0.5] *= -1.0
    scale = 10.0 ** rng.integers(-16, 2, size=(2, b, n))
    cp, cn = rng.uniform(-1.0, 1.0, size=(2, b, n)) * scale
    fits = erm_batch(feats, cp, cn)
    assert any(np.signbit(feats[i][feats[i] == 0]).any() for i in range(b))
    for i, (h, cost) in enumerate(fits):
        ref_h, ref_cost = erm_stable_scan_oracle(feats[i], cp[i], cn[i])
        assert (h.coordinate, h.threshold.hex(), h.sign) == (
            ref_h.coordinate, ref_h.threshold.hex(), ref_h.sign)
        assert cost == ref_cost


def test_erm_batch_input_validation():
    ok = np.zeros((2, 3, 1))
    with pytest.raises(pb.ConfigurationError):
        erm_batch(np.zeros((3, 1)), np.zeros(3), np.zeros(3))
    with pytest.raises(pb.EmptyInputError):
        erm_batch(np.zeros((2, 0, 1)), np.zeros((2, 0)), np.zeros((2, 0)))
    with pytest.raises(pb.ConfigurationError):
        erm_batch(ok, np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(pb.ConfigurationError):
        erm_batch(ok, np.zeros((2, 3)), np.zeros((1, 3)))
    for bad in (np.nan, np.inf):
        feats = ok.copy()
        feats[1, 2, 0] = bad
        with pytest.raises(pb.ConfigurationError):
            erm_batch(feats, np.zeros((2, 3)), np.zeros((2, 3)))
        costs = np.zeros((2, 3))
        costs[0, 1] = bad
        with pytest.raises(pb.ConfigurationError):
            erm_batch(ok, costs, np.zeros((2, 3)))
        with pytest.raises(pb.ConfigurationError):
            erm_batch(ok, np.zeros((2, 3)), costs)
