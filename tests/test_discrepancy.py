import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import pseudobound as pb
from oracles import h_delta_h_grid_oracle, h_delta_h_oracle, mmd_oracle
import pseudobound.discrepancy as discrepancy
from pseudobound.discrepancy import _block_rows, _exact_sum, _h_delta_h_best


def test_h_delta_h_identical_sets_zero():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 2))
    assert pb.h_delta_h_distance(x, x.copy()) == 0.0


def test_h_delta_h_separated_1d_example():
    # source {0, 1}, target {10, 11}: a stump pair can disagree exactly on
    # (0.5, 10.5), capturing all of one set and none of the other
    src = np.array([[0.0], [1.0]])
    tgt = np.array([[10.0], [11.0]])
    d = pb.h_delta_h_distance(src, tgt)
    assert d == 2.0


def test_h_delta_h_in_range_and_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((15, 2))
        b = rng.standard_normal((10, 2)) + rng.uniform(-1, 1)
        d_ab = pb.h_delta_h_distance(a, b)
        d_ba = pb.h_delta_h_distance(b, a)
        assert 0.0 <= d_ab <= 2.0
        assert d_ab == d_ba


def test_h_delta_h_matches_pair_enumeration_oracle():
    rng = np.random.default_rng(11)
    for trial in range(15):
        n_s = int(rng.integers(4, 16))
        n_t = int(rng.integers(4, 16))
        q = int(rng.integers(1, 4))
        a = rng.standard_normal((n_s, q))
        b = rng.standard_normal((n_t, q)) + rng.uniform(-2, 2)
        if trial % 3 == 0:
            # shared values stress the distinct-cut handling
            a = np.round(a, 1)
            b = np.round(b, 1)
        d_fast = pb.h_delta_h_distance(a, b)
        assert d_fast == h_delta_h_oracle(a, b)


def _assert_sweep_exact(x, y):
    assert _h_delta_h_best(x, y) == h_delta_h_grid_oracle(x, y)
    assert _h_delta_h_best(y, x) == h_delta_h_grid_oracle(y, x)


def _xor_pools(pooled, q, seed):
    """(features, source count) cases: a continuous pool, the same rounded
    to one decimal (ties), and the same with a constant first coordinate
    (a single cut, hence a single block).  For q > 1 the last two
    coordinates of the source agree in sign and those of the target differ,
    so the best region is a cross-coordinate XOR rather than a slab."""
    rng = np.random.default_rng(seed)
    n_s = max(1, pooled // 3)
    pool = rng.standard_normal((pooled, q))
    sign = np.where(np.arange(pooled) < n_s, 1.0, -1.0)
    if q > 1:
        pool[:, -1] = np.abs(pool[:, -1]) * np.sign(pool[:, -2]) * sign
    constant = pool.copy()
    constant[:, 0] = 0.25
    return [(feats, n_s) for feats in (pool, np.round(pool, 1), constant)]


def _segment_cases(pooled, seed):
    """Edge cases of the XOR sweep's per-block column segments.  ``tied``:
    small-integer columns put several of a block's points in one column,
    and its integer pair (1, 2) puts every point in one block.  ``filled``:
    a column cycling through three values makes each block's points fill
    every column.  Membership follows the sign of a cross-coordinate XOR,
    10 % flipped, so an XOR and not a slab attains the best."""
    rng = np.random.default_rng(seed)
    flip = rng.random(pooled) < 0.1
    ints = rng.integers(1, 4, (pooled, 2)) * rng.choice([-1, 1], (pooled, 2))
    rows = np.round(rng.standard_normal(pooled), 2)
    tied = np.column_stack([rows, ints]).astype(float)
    r = rng.permutation(pooled)
    filled = np.column_stack([r, r % 3, ints[:, 1]]).astype(float)
    return [(tied, (rows * ints[:, 0] > 0) != flip),
            (filled, ((r < pooled // 2) != (r % 3 < 1)) != flip)]


@pytest.mark.parametrize("q", [1, 4])
@pytest.mark.parametrize("pooled", [2, 63, 64, 65, 131, 257, 581])
def test_h_delta_h_blocked_sweep_equals_full_grid(pooled, q):
    """Row counts around 64-row blocks, the sweep's block size before it was
    derived from the input; 2 points is the smallest valid pool."""
    for feats, n_s in _xor_pools(pooled, q, pooled * 10 + q):
        _assert_sweep_exact(feats[:n_s], feats[n_s:])


@pytest.mark.parametrize("pooled", [71, 257, 581])
def test_h_delta_h_column_segments_equal_full_grid(pooled):
    """The column-segment edge cases, in both argument orders."""
    for feats, is_source in _segment_cases(pooled, pooled):
        x, y = feats[is_source], feats[~is_source]
        slabs = max(h_delta_h_grid_oracle(x[:, [j]], y[:, [j]]) for j in range(3))
        assert h_delta_h_grid_oracle(x, y) > slabs
        _assert_sweep_exact(x, y)


def _rows_as(blocks, extra, at_least=2):
    """The least pooled size n >= at_least whose n distinct rows make
    ``blocks`` blocks of _block_rows(n) rows plus ``extra`` rows."""
    return next(n for n in range(at_least, 100_000)
                if n == blocks * _block_rows(n) + extra)


_B_STEP = next(n for n in range(3, 100_000) if _block_rows(n) > _block_rows(n - 1))
DERIVED_SIZES = {
    "B-1": _rows_as(1, -1),
    "B": _rows_as(1, 0),
    "B+1": _rows_as(1, 1),
    "2B+3": _rows_as(2, 3),
    "9B+5": _rows_as(9, 5),
    "9B+5-wide": _rows_as(9, 5, at_least=_B_STEP),
    "B-step-1": _B_STEP - 1,
    "B-step": _B_STEP,
    "BxB+5": next(n for n in range(500, 100_000) if n == _block_rows(n) ** 2 + 5),
}


def test_derived_sizes_reach_past_the_smallest_block():
    b = {name: _block_rows(n) for name, n in DERIVED_SIZES.items()}
    assert b["9B+5-wide"] > b["9B+5"]
    assert b["B-step"] == b["B-step-1"] + 1


@pytest.mark.parametrize("q", [1, 4])
@pytest.mark.parametrize("name", sorted(DERIVED_SIZES))
def test_h_delta_h_batched_sweep_at_derived_block_sizes(name, q):
    """Pooled sizes around the derived block size B = _block_rows(k1): one
    partial, full and overfull block, several blocks with a remainder, the
    size at which B grows, and as many blocks as rows."""
    pooled = DERIVED_SIZES[name]
    for feats, n_s in _xor_pools(pooled, q, pooled * 10 + q + 7):
        _assert_sweep_exact(feats[:n_s], feats[n_s:])


@pytest.mark.parametrize("name", ["2B+3", "9B+5-wide", "BxB+5"])
def test_h_delta_h_column_segments_at_derived_block_sizes(name):
    for feats, is_source in _segment_cases(DERIVED_SIZES[name], 3):
        _assert_sweep_exact(feats[is_source], feats[~is_source])


def test_h_delta_h_sweep_in_several_block_groups():
    """6000 continuous rows against 50 integer columns need more than one
    group of blocks at the module's cell budget; the grid stays small."""
    rng = np.random.default_rng(21)
    pooled = 6000
    x = np.column_stack([rng.standard_normal(pooled),
                         rng.integers(0, 50, pooled)]).astype(float)
    is_source = ((x[:, 0] > 0) != (x[:, 1] < 25)) != (rng.random(pooled) < 0.2)
    rows = _block_rows(pooled)
    blocks = np.argsort(np.argsort(x[:, 0])) // rows
    n_blocks = blocks.max() + 1
    segments = 1 + max(len(np.unique(x[blocks == i, 1])) for i in range(n_blocks))
    # a group is _GROUP_CELLS // (k2 + 1 + rows * segments) blocks
    assert n_blocks * (51 + rows * segments) > discrepancy._GROUP_CELLS
    _assert_sweep_exact(x[is_source], x[~is_source])


@pytest.mark.parametrize("cells", [1, 600])
def test_h_delta_h_sweep_with_small_group_budget(cells, monkeypatch):
    """One block per group, and a few per group, give the same integers."""
    monkeypatch.setattr(discrepancy, "_GROUP_CELLS", cells)
    for pooled in (DERIVED_SIZES["9B+5"], DERIVED_SIZES["BxB+5"]):
        for feats, n_s in _xor_pools(pooled, 3, pooled + cells):
            _assert_sweep_exact(feats[:n_s], feats[n_s:])
        for feats, is_source in _segment_cases(pooled, cells):
            _assert_sweep_exact(feats[is_source], feats[~is_source])


def test_h_delta_h_memory_at_gap_size():
    """At 1024 pairs per side, the size the lemma-2 gap check draws, one
    call peaks under 4 MB."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((1024, 4))
    b = rng.standard_normal((1024, 4)) + 0.3
    tracemalloc.start()
    try:
        pb.h_delta_h_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_h_delta_h_memory_stays_linear():
    """At 2048 pairs per side one (n+1)^2 int64 grid alone is 134 MB."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2048, 4))
    b = rng.standard_normal((2048, 4)) + 0.3
    tracemalloc.start()
    try:
        pb.h_delta_h_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


def test_h_delta_h_validation():
    with pytest.raises(pb.EmptyInputError):
        pb.h_delta_h_distance(np.zeros((0, 2)), np.zeros((3, 2)))
    with pytest.raises(pb.ConfigurationError):
        pb.h_delta_h_distance(np.zeros((3, 2)), np.zeros((3, 3)))
    for bad in (np.nan, np.inf):
        feats = np.zeros((3, 2))
        feats[1, 0] = bad
        with pytest.raises(pb.ConfigurationError, match="finite"):
            pb.h_delta_h_distance(feats, np.zeros((3, 2)))
        with pytest.raises(pb.ConfigurationError, match="finite"):
            pb.h_delta_h_distance(np.zeros((3, 2)), feats)


def pair_set(feats, labels):
    return pb.PairSet(np.asarray(feats, float), np.asarray(labels))


def test_ideal_joint_realizable_zero():
    feats = [[0.0], [1.0], [4.0], [5.0]]
    labels = [1, 1, -1, -1]
    h, lam = pb.ideal_joint(pair_set(feats, labels), pair_set(feats, labels), 1.0)
    assert lam == 0.0
    assert pb.empirical_risk_true(h, pair_set(feats, labels), 1.0) == 0.0


def test_ideal_joint_negated_labels_costs_m():
    """Identical features, opposite labels: every stump errs fully on one
    side, so the best joint error is exactly M."""
    feats = [[0.0], [1.0], [4.0], [5.0]]
    labels = np.array([1, 1, -1, -1])
    src = pair_set(feats, labels)
    tgt = pair_set(feats, -labels)
    for big_m in (1.0, 2.0):
        _, lam = pb.ideal_joint(src, tgt, big_m)
        assert lam == pytest.approx(big_m, abs=1e-12)


def test_ideal_joint_minimality_over_random_stumps():
    cfg = pb.default_experiment_config("shifted")
    _, src = pb.draw_pair_process(cfg.source, cfg.strategy, 200, 1)
    _, tgt = pb.draw_pair_process(cfg.target, cfg.strategy, 200, 2)
    _, lam = pb.ideal_joint(src, tgt, 1.0)
    for s in range(100):
        h = pb.random_stump(s, 4)
        joint = pb.empirical_risk_true(h, src, 1.0) + \
            pb.empirical_risk_true(h, tgt, 1.0)
        assert lam <= joint + 1e-12


def test_mmd_identical_multisets_exact_zero():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((17, 3))
    perm = rng.permutation(17)
    assert pb.mmd_squared(x, x[perm], bandwidth=0.7) == 0.0
    assert pb.mmd_squared(x, x[perm]) == 0.0  # median heuristic path


def test_mmd_two_point_closed_form():
    value = pb.mmd_squared(np.array([[0.0]]), np.array([[1.0]]), bandwidth=1.0)
    assert value == pytest.approx(2.0 - 2.0 * np.exp(-0.5), abs=1e-9)


def test_mmd_matches_double_loop_oracle():
    rng = np.random.default_rng(9)
    for _ in range(5):
        x = rng.standard_normal((8, 2))
        y = rng.standard_normal((6, 2)) + 0.5
        assert pb.mmd_squared(x, y, bandwidth=1.3) == \
            pytest.approx(mmd_oracle(x, y, 1.3), abs=1e-15)


def test_mmd_separated_exceeds_matched():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((40, 2))
    same = rng.standard_normal((40, 2))
    far = rng.standard_normal((40, 2)) + 4.0
    assert pb.mmd_squared(base, far) > pb.mmd_squared(base, same)


def test_mmd_validation():
    with pytest.raises(pb.ConfigurationError):
        pb.mmd_squared(np.zeros((2, 1)), np.zeros((2, 1)), bandwidth=0.0)
    with pytest.raises(pb.EmptyInputError):
        pb.mmd_squared(np.zeros((0, 1)), np.zeros((2, 1)))


def test_median_heuristic():
    x = np.array([[0.0], [1.0], [3.0]])
    # pairwise distances 1, 3, 2 -> median 2
    assert pb.median_heuristic_bandwidth(x) == 2.0
    with pytest.raises(pb.InsufficientDataError):
        pb.median_heuristic_bandwidth(np.array([[1.0]]))


def _fsum_outcome(f, terms):
    try:
        value = f(terms)
    except (OverflowError, ValueError) as err:
        return type(err).__name__
    return value.hex(), math.copysign(1.0, value)


def _assert_fsum_equal(terms):
    terms = np.asarray(terms, float)
    assert _fsum_outcome(_exact_sum, terms) == \
        _fsum_outcome(lambda t: math.fsum(t.tolist()), terms), terms


def test_exact_sum_special_inputs_equal_fsum():
    tiny, half = 2.0 ** -1074, 2.0 ** -53
    cases = [
        [], [0.0], [-0.0], [-0.0, -0.0], [tiny], [-tiny], [1e300], [-3.5],
        [1.0, half], [1.0, half, tiny], [1.0, half, -tiny],   # half-ulp ties
        [1.0 + 2 * half, half], [-1.0, -half, tiny], [1.0, -half / 2],
        [1e16, 1.0, -1e16], [1e300, 1.0, -1e300, tiny], [1.0, -1.0],
        [1.7e308, 1.7e308, -1.7e308], [math.inf, 1.0], [math.inf, -math.inf],
        [math.nan, 1.0], [1e308, 1e308], [np.finfo(float).max, -1.0],
    ]
    for terms in cases:
        _assert_fsum_equal(terms)


def test_exact_sum_random_arrays_equal_fsum():
    rng = np.random.default_rng(2008)
    _assert_fsum_equal(rng.random(70_000))
    _assert_fsum_equal(np.exp(-rng.uniform(0, 745, 70_000)))
    for t in range(2000):
        n = int(rng.integers(1, 200))
        kind = t % 5
        if kind == 0:   # kernel-like values down to subnormals
            terms = np.exp(-rng.uniform(0, 745, n))
        elif kind == 1:  # mixed signs that cancel, plus small leftovers
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
            terms = np.concatenate([v, -rng.permutation(v), rng.standard_normal(3)])
        elif kind == 2:  # a span of +-1e300
            terms = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
        elif kind == 3:  # half-ulp ties, broken or not by a subnormal
            big = rng.uniform(1, 2) * 2.0 ** int(rng.integers(-60, 60))
            breaker = float(rng.choice([0.0, 2.0 ** -1074, -(2.0 ** -1074)]))
            terms = rng.choice([-1.0, 1.0]) * np.array([big, math.ulp(big) / 2, breaker])
        else:            # few distinct values, many exact repeats
            terms = rng.choice(rng.standard_normal(4), n)
        _assert_fsum_equal(terms)


def _mmd_draw(rng, t):
    """Case t of the pinned mmd_squared draws: (x, y, bandwidth)."""
    q = int(rng.integers(1, 6))
    nx, ny = (int(np.exp(rng.uniform(0, np.log(320.5)))) for _ in range(2))
    x = rng.standard_normal((nx, q))
    y = rng.standard_normal((ny, q)) * rng.uniform(0.5, 2) + rng.uniform(-1, 1)
    kind, bandwidth = t % 6, pb.MEDIAN_HEURISTIC
    if kind == 1:                    # rounded: tied distances
        x, y = np.round(x, 1), np.round(y, 1)
    elif kind == 2:                  # permuted copy: exactly 0.0
        x = np.vstack([x, x + 1.0])
        y = x[rng.permutation(len(x))]
    elif kind == 3:
        bandwidth = float(rng.uniform(0.1, 3.0))
    elif kind == 4:                  # far-apart kernel values, many underflow
        x, bandwidth = x * 30.0, float(rng.uniform(0.05, 0.5))
    elif kind == 5:                  # the error and degenerate paths
        bad = (t // 6) % 7
        if bad == 0:
            x = x[:0]
        elif bad == 1:
            y = np.zeros((ny, q + 1))
        elif bad == 2:
            bandwidth = float(rng.choice([0.0, -1.0]))
        elif bad == 3:
            x, y = np.ones((nx, q)), np.ones((ny, q))
        elif bad == 4:
            x[0, 0] = np.nan
        elif bad == 5:
            x[0, 0], bandwidth = np.inf, 1.0
        else:
            y = x[:1].repeat(ny, axis=0)
    return x, y, bandwidth


def _mmd_digest() -> str:
    rng = np.random.default_rng(1500)
    digest = hashlib.sha256()
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(1500):
            x, y, bandwidth = _mmd_draw(rng, t)
            try:
                outcome = pb.mmd_squared(x, y, bandwidth).hex()
            except pb.PseudoboundError as err:
                outcome = type(err).__name__
            if t % 6 == 2:
                assert outcome == (0.0).hex()
            if t % 6 == 1:
                pooled = np.vstack([x, y])
                outcome += " " + pb.median_heuristic_bandwidth(pooled).hex()
            digest.update(f"{t} {outcome}\n".encode())
    return digest.hexdigest()


def test_mmd_outputs_pinned():
    """1 500 draws (sizes 1-320, q 1-5, ties, permuted copies, both
    bandwidth kinds, error paths) hash to the outcomes of the former pooled
    n x n implementation, recorded before the block-wise rewrite."""
    assert _mmd_digest() == MMD_PIN


MMD_PIN = "8e0f0380fa9af0e3c9f344acd794ab696636caea08fbdea1aa50a996d4652508"


def sample_sets(shift_offset, n=400, seed=0):
    cfg = pb.default_experiment_config("clean")
    src = pb.generate_domain(cfg.source, n, pb.derive_seed(seed, 0))
    spec_t = pb.DomainSpec(
        num_identities=cfg.source.num_identities,
        feature_dim=cfg.source.feature_dim,
        identity_centers=cfg.source.identity_centers,
        within_identity_stddev=cfg.source.within_identity_stddev,
        domain_transform=pb.AffineMap(np.eye(4), shift_offset),
        seed=cfg.source.seed,
    )
    tgt = pb.generate_domain(spec_t, n, pb.derive_seed(seed, 0))
    return src, tgt


def test_align_moments_pure_shift_recovers_means():
    src, tgt = sample_sets(np.full(4, 5.0))
    aligned, amap = pb.align_moments(src, tgt)
    gap = np.abs(src.features.mean(0) - aligned.features.mean(0)).max()
    assert gap <= 1e-9
    # same generative seed: covariances match, so the map is near identity
    assert np.abs(amap.matrix - np.eye(4)).max() < 1e-6


def test_align_moments_no_shift_near_identity():
    src, tgt = sample_sets(np.zeros(4))
    before = pb.mmd_squared(src.features, tgt.features)
    aligned, amap = pb.align_moments(src, tgt)
    after = pb.mmd_squared(src.features, aligned.features)
    assert np.abs(amap.matrix - np.eye(4)).max() < 1e-6
    assert abs(after - before) < 1e-6


def test_align_moments_shifted_domain_reduces_mmd():
    cfg = pb.default_experiment_config("practice")
    src = pb.generate_domain(cfg.source, 300, 1)
    tgt = pb.generate_domain(cfg.target, 300, 2)
    before = pb.mmd_squared(src.features, tgt.features)
    aligned, _ = pb.align_moments(src, tgt)
    after = pb.mmd_squared(src.features, aligned.features)
    assert after < before


def test_align_moments_needs_enough_points():
    cfg = pb.default_experiment_config("clean")
    src = pb.generate_domain(cfg.source, 100, 1)
    tiny = pb.generate_domain(cfg.target, 4, 2)
    with pytest.raises(pb.InsufficientDataError):
        pb.align_moments(src, tiny)
    with pytest.raises(pb.InsufficientDataError):
        pb.align_moments(tiny, src)
