"""Domain-gap measurements over the stump class.

The stump-class distance between two empirical feature sets is computed
exactly: every stump-pair disagreement region is either a coordinate slab or
an axis-aligned XOR of two half-spaces, so the supremum reduces to integer
prefix-sum scans.  Source points carry weight +n_T and target points -n_S;
a region's score is then n_S*n_T times the difference of its two empirical
probabilities, and everything stays in int64 until the final division.  The
XOR scan cuts each coordinate pair's prefix-sum grid into blocks of about
sqrt(k1) rows and scores a block only on the column segments its own points
cut, all blocks of a group in one batched pass.  With k1, k2 distinct values
per coordinate and n points it takes O(k1^1.5 + sqrt(k1)*k2 + n log n) time
and O(k2 + n) memory beyond a fixed group budget; no grid is built.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .domains import AffineMap, SampleSet
from .errors import (
    ConfigurationError,
    EmptyInputError,
    InsufficientDataError,
    NumericError,
)
from .noise import zero_m_costs
from .stumps import StumpHypothesis, erm

MEDIAN_HEURISTIC = "median"
_MIN_BLOCK_ROWS = 8          # fewest grid rows in an XOR sweep block
_GROUP_CELLS = 1 << 17       # int64 cells of one XOR block group (1 MB)
_CACHED_TRIANGLE_N = 1024   # largest n whose upper-triangle pairs are cached


def _h_delta_h_best(source_feats: np.ndarray, target_feats: np.ndarray) -> int:
    """max over stump pairs of |n_T*(#S in region) - n_S*(#T in region)|.

    Same-coordinate pairs disagree on a value slab, cross-coordinate pairs
    on a half-space XOR; complements score identically because the total
    signed weight is zero, so slabs and XORs cover every case.
    """
    n_s, n_t = len(source_feats), len(target_feats)
    pooled = np.vstack([source_feats, target_feats])
    weights = np.concatenate([
        np.full(n_s, n_t, dtype=np.int64),
        np.full(n_t, -n_s, dtype=np.int64),
    ])
    n, q = pooled.shape

    orders = []      # per coordinate: stable value order of the points
    ranks = []       # per coordinate: distinct-value rank of every point
    best = 0
    for j in range(q):
        order = np.argsort(pooled[:, j], kind="stable")
        xs = pooled[order, j]
        step = xs[1:] > xs[:-1]
        prefix = np.concatenate(([0], np.cumsum(weights[order])))
        sums = prefix[np.concatenate(([0], np.flatnonzero(step) + 1, [n]))]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.concatenate(([0], np.cumsum(step)))
        orders.append(order)
        ranks.append(rank)
        best = max(best, int(sums.max() - sums.min()))

    work = np.empty(_GROUP_CELLS, dtype=np.int64)   # every pair's D scratch
    for j1 in range(q):
        for j2 in range(j1 + 1, q):
            order = orders[j1]
            best = max(best, _xor_best(ranks[j1][order], ranks[j2][order],
                                       weights[order], work))
    return best


def _block_rows(k1: int) -> int:
    """Grid rows per block, about sqrt(k1): a sweep spends k1/B * k2 cells on
    carry rows and about k1 * B on in-block sums, whose total is least near
    B = sqrt(k2), and k1 and k2 are alike.  Small pools take one block."""
    return max(_MIN_BLOCK_ROWS, math.isqrt(k1))


def _xor_best(rank1: np.ndarray, rank2: np.ndarray, weights: np.ndarray,
              work: np.ndarray) -> int:
    """max over cuts (a, b) of |weight(rank1 < a XOR rank2 < b)|, rank1 sorted.

    With G[a, b] the signed weight below both cuts, the XOR region weighs
    G[a, -1] + G[-1, b] - 2 G[a, b].  Rows come in blocks of B =
    _block_rows(k1).  In a block G[a, .] is the carry row above it plus
    D[a, s], a step function of b that steps only at the block's own columns.
    So V = G[-1, .] - 2 carry is reduced to its max and min on each segment
    those columns start, and each row is scored per segment.

    Blocks are scored a group at a time in one batched pass.  One sort of the
    (block, column) keys gives every block's segments; one (B, blocks,
    segments) array holds every D, padded with each block's last real segment
    and row, so a padded cell repeats a real candidate; every carry row is
    the one above plus the previous block's last D row spread over its
    segments; one reduceat per extreme reduces V.  With n points that is
    O(k1/B * k2 + k1 * B + n log n) time.  A group is one block or as many
    as keep its carry rows and D within _GROUP_CELLS cells, so memory is
    O(_GROUP_CELLS + k2 + n) at any size.  D lives in ``work``, int64
    scratch of _GROUP_CELLS cells that the caller passes to every coordinate
    pair, so its pages are touched once a call; a block too large for it
    gets its own.
    """
    k1 = int(rank1[-1]) + 1
    width = int(rank2.max()) + 2                # grid columns b = 0..k2
    b_idx = rank2 + 1
    col = np.zeros(width, dtype=np.int64)       # G[-1, b]
    np.add.at(col, b_idx, weights)
    np.cumsum(col, out=col)
    hi, lo = int(col.max()), int(col.min())     # row a = 0, where G = 0

    rows = _block_rows(k1)
    n_blocks = -(-k1 // rows)
    block = rank1 // rows
    key = block * width + b_idx                 # (block, column) of each point
    order = np.argsort(key)
    sorted_key = key[order]
    new = np.empty(len(key), dtype=bool)        # first point of each key
    new[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new[1:])
    ukey = sorted_key[new]                      # each block's columns, in order
    firsts = np.searchsorted(ukey, np.arange(n_blocks + 1) * width)
    seg = np.empty(len(key), dtype=np.int64)    # 1-based segment in its block
    seg[order] = np.cumsum(new)
    seg -= firsts[block]
    n_seg = np.diff(firsts) + 1                 # segment 0 lies left of them
    s_all = int(n_seg.max())
    most = max(1, _GROUP_CELLS // (width + rows * s_all))   # blocks per group
    group = -(-n_blocks // -(-n_blocks // most))   # groups as equal as may be
    bounds = np.searchsorted(rank1, np.arange(n_blocks + 1) * rows)

    cells = rows * group * s_all                # a group's D at most
    buf = work if cells <= len(work) else np.empty(cells, dtype=np.int64)
    neg2w = -2 * weights
    carry = np.zeros(width, dtype=np.int64)     # -2 G at the group's top row
    for g0 in range(0, n_blocks, group):
        g1 = min(g0 + group, n_blocks)
        nb = g1 - g0
        pts = slice(bounds[g0], bounds[g1])
        s_max = int(n_seg[g0:g1].max())
        # d[r, i, s] is -2 D of block g0 + i; past its last segment and its
        # last row it repeats them, since no weight lands there.
        d = buf[:rows * nb * s_max].reshape(rows, nb, s_max)
        d.fill(0)
        np.add.at(d.ravel(), ((rank1[pts] % rows) * nb + block[pts] - g0) * s_max
                  + seg[pts], neg2w[pts])
        np.cumsum(d, axis=2, out=d)
        for r in range(1, rows):
            d[r] += d[r - 1]

        # In the group's flattened columns, block i's segment s starts at
        # starts[at[i] + s]: its base column, then one per distinct column.
        at = firsts[g0:g1] - firsts[g0] + np.arange(nb)
        starts = np.insert(ukey[firsts[g0]:firsts[g1]] - g0 * width,
                           firsts[g0:g1] - firsts[g0], np.arange(nb) * width)
        real = np.arange(s_max) < n_seg[g0:g1, None]
        # m[i] is -2 G at the top row of block g0 + i, the carry row above it
        # plus every earlier block's last D row spread over its segments;
        # m[nb] tops the next group.
        m = np.repeat(np.concatenate((carry, d[-1][real])),
                      np.concatenate((np.ones(width, dtype=np.int64),
                                      np.diff(starts, append=nb * width))))
        m = m.reshape(nb + 1, width)
        for i in range(1, nb + 1):
            m[i] += m[i - 1]
        carry = m[nb].copy()
        top = m[:nb, -1].copy()                 # -2 G[top, -1] of each block
        v = m[:nb]
        v += col                                # V = G[-1, .] - 2 carry
        pick = at[:, None] + np.minimum(np.arange(s_max), n_seg[g0:g1, None] - 1)
        v_hi = np.maximum.reduceat(v.ravel(), starts)[pick]
        v_lo = np.minimum.reduceat(v.ravel(), starts)[pick]

        d += ((d[:, :, -1] + top) // -2)[:, :, None]   # + G[a, -1]
        d += v_hi
        hi = max(hi, int(d.max()))
        d += v_lo - v_hi
        lo = min(lo, int(d.min()))
        del m, v                                # before the next group's rows
    return max(hi, -lo)


def h_delta_h_distance(source_feats: np.ndarray, target_feats: np.ndarray
                       ) -> float:
    """Empirical stump-class distance 2 sup |Pr_S[h != h'] - Pr_T[h != h']|.

    Candidate thresholds are midpoints of consecutive distinct pooled values
    plus +-inf, where the empirical supremum is attained; the value is exact
    for the two empirical distributions.  For n pooled points in q
    coordinates with k1, k2 distinct values per coordinate it takes
    O(q^2 (k1^1.5 + sqrt(k1) k2 + n log n)) time and, per coordinate pair,
    O(k2 + n) memory beyond a fixed 1 MB group budget, never an (n+1)^2 grid.
    """
    sf = np.asarray(source_feats, float)
    tf = np.asarray(target_feats, float)
    if len(sf) == 0 or len(tf) == 0:
        raise EmptyInputError("h_delta_h_distance needs nonempty feature sets")
    if sf.ndim != 2 or tf.ndim != 2 or sf.shape[1] != tf.shape[1]:
        raise ConfigurationError("feature sets must be (n, q) with equal q")
    if not (np.isfinite(sf).all() and np.isfinite(tf).all()):
        raise ConfigurationError("h_delta_h_distance inputs must be finite")
    best = _h_delta_h_best(sf, tf)
    return 2.0 * best / (len(sf) * len(tf))


def ideal_joint(source_pairs, target_pairs, big_m: float
                ) -> tuple[StumpHypothesis, float]:
    """Stump minimizing the summed source + target empirical risks.

    Returns (stump, achieved sum); the sum is the joint-error estimate
    entering the bound's domain-divergence term.
    """
    if len(source_pairs) == 0 or len(target_pairs) == 0:
        raise EmptyInputError("ideal_joint needs pairs from both domains")
    s_pos, s_neg = zero_m_costs(source_pairs.true_labels, big_m)
    t_pos, t_neg = zero_m_costs(target_pairs.true_labels, big_m)
    feats = np.vstack([source_pairs.similarity, target_pairs.similarity])
    cost_pos = np.concatenate([s_pos / len(source_pairs), t_pos / len(target_pairs)])
    cost_neg = np.concatenate([s_neg / len(source_pairs), t_neg / len(target_pairs)])
    return erm(feats, cost_pos, cost_neg)


def median_heuristic_bandwidth(pooled_feats: np.ndarray) -> float:
    """Median pairwise Euclidean distance over distinct index pairs."""
    x = np.atleast_2d(np.asarray(pooled_feats, float))
    if len(x) < 2:
        raise InsufficientDataError("median heuristic needs at least two points")
    return _median_distance(_sq_dists(x))


def _median_distance(sq: np.ndarray) -> float:
    """np.median(np.sqrt(sq)): sqrt is monotone, so one partition finds the
    middle value or two and only those are rooted."""
    if np.isnan(sq).any():
        return math.nan
    half = len(sq) // 2
    part = np.partition(sq, half)
    middle = [part[:half].max(), part[half]] if len(sq) % 2 == 0 else [part[half]]
    return float(np.mean(np.sqrt(middle)))


@functools.lru_cache(maxsize=4)
def _upper_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k=1), read-only: the MMD diagnostics of a run repeat
    a few sizes, and rebuilding the pairs at n = 256 costs about 0.4 ms."""
    pairs = np.triu_indices(n, k=1)
    for idx in pairs:
        idx.flags.writeable = False
    return pairs


def _sq_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared distances of all (a, b) row pairs or of a's strict upper
    triangle, each summed by einsum (a per-coordinate sum rounds otherwise)."""
    if b is None:
        n = len(a)
        # Cached pairs take 8 n^2 bytes, so only small sizes are kept.
        i, j = _upper_triangle(n) if n <= _CACHED_TRIANGLE_N else np.triu_indices(n, k=1)
        diff = np.stack([col.take(i) - col.take(j) for col in a.T], axis=1)
    else:
        diff = np.empty((len(a), len(b), a.shape[1]))
        for k in range(a.shape[1]):
            np.subtract.outer(a[:, k], b[:, k], out=diff[:, :, k])
        diff = diff.reshape(-1, a.shape[1])
    return np.einsum("ij,ij->i", diff, diff)


def _exact_sum(terms: np.ndarray) -> float:
    """math.fsum(terms.tolist()) bit for bit.  With sigma = 2^(M+e), 2^M > n,
    2^e > max|p|, q = (sigma + p) - sigma and p - q are exact, and so is
    sum(q) in any order (Rump, Ogita & Oishi 2008, SIAM J. Sci. Comput.
    31(1)); p - q goes round again until it is zero, then one fsum rounds."""
    p = np.array(terms, float).ravel()
    parts, m = [], len(p).bit_length()
    while p.size:
        mu = float(np.max(np.abs(p)))      # shrinks round by round
        if not (math.isfinite(mu) and math.frexp(mu)[1] + m <= 1023):
            return math.fsum(p.tolist())    # first round: p is still terms
        sigma = math.ldexp(1.0, math.frexp(mu)[1] + m)
        q = (p + sigma) - sigma
        parts.append(float(q.sum()))
        p = (p - q)[p != q]
    return math.fsum(parts)


def mmd_squared(x_feats: np.ndarray, y_feats: np.ndarray,
                bandwidth=MEDIAN_HEURISTIC) -> float:
    """Biased V-statistic MMD^2 with a Gaussian kernel.

    Squared distances of the xx and yy strict upper triangles and the xy
    block give the median bandwidth and the three kernel means.  A mean is
    the correctly rounded sum of its full block (xx, yy: the diagonal plus
    twice the triangle), exact because ``_exact_sum`` splits the terms into
    parts whose sums are exact and rounds those once with fsum; so multiset-
    equal inputs give exactly 0.0 in any row order.  Tiny negative results
    are clamped to zero.
    """
    x = np.atleast_2d(np.asarray(x_feats, float))
    y = np.atleast_2d(np.asarray(y_feats, float))
    if len(x) == 0 or len(y) == 0:
        raise EmptyInputError("mmd_squared needs nonempty feature sets")
    if x.shape[1] != y.shape[1]:
        raise ConfigurationError("feature sets must share a dimension")
    sq_xx, sq_yy, sq_xy = _sq_dists(x), _sq_dists(y), _sq_dists(x, y)
    if bandwidth == MEDIAN_HEURISTIC:
        sigma = _median_distance(np.concatenate([sq_xx, sq_yy, sq_xy]))
    else:
        sigma = float(bandwidth)
    if not sigma > 0:
        raise ConfigurationError(f"kernel bandwidth must be positive, got {sigma}")
    scale = -0.5 / (sigma * sigma)

    def self_mean(feats, sq):           # twice the triangle plus the diagonal,
        d = feats - feats               # which is NaN where feats are not finite
        diag = np.exp(scale * np.einsum("ij,ij->i", d, d))
        terms = np.concatenate([2.0 * np.exp(scale * sq), diag])
        return _exact_sum(terms) / len(feats) ** 2

    value = (self_mean(x, sq_xx) + self_mean(y, sq_yy)
             - 2.0 * _exact_sum(np.exp(scale * sq_xy)) / (len(x) * len(y)))
    return max(value, 0.0)


def align_moments(source_samples: SampleSet, target_samples: SampleSet
                  ) -> tuple[SampleSet, AffineMap]:
    """Match target mean and covariance to the source by whiten-recolor.

    The returned map is exact for affine shifts: a target that is a linear
    transform plus offset of the source distribution maps back onto it up
    to sampling error.  Covariances are regularized by 1e-6 * trace/q * I.
    """
    src = np.asarray(source_samples.features, float)
    tgt = np.asarray(target_samples.features, float)
    q = src.shape[1]
    if len(tgt) <= q:
        raise InsufficientDataError(
            f"alignment needs more target points ({len(tgt)}) than dimensions ({q})"
        )
    if len(src) <= q:
        raise InsufficientDataError(
            f"alignment needs more source points ({len(src)}) than dimensions ({q})"
        )
    mu_s = src.mean(axis=0)
    mu_t = tgt.mean(axis=0)
    cov_s = np.cov(src, rowvar=False)
    cov_t = np.cov(tgt, rowvar=False)
    matrix = _sqrt_psd(_regularize(cov_s)) @ _invsqrt_psd(_regularize(cov_t))
    offset = mu_s - matrix @ mu_t
    amap = AffineMap(matrix=matrix, offset=offset)
    return target_samples.replace_features(amap.apply(tgt)), amap


def _regularize(cov: np.ndarray) -> np.ndarray:
    q = cov.shape[0]
    eps = 1e-6 * float(np.trace(cov)) / q
    return cov + eps * np.eye(q)


def _sqrt_psd(cov: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(cov)
    if not np.isfinite(w).all():
        raise NumericError("covariance eigendecomposition produced non-finite values")
    return (v * np.sqrt(np.maximum(w, 0.0))) @ v.T


def _invsqrt_psd(cov: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(cov)
    if not np.isfinite(w).all():
        raise NumericError("covariance eigendecomposition produced non-finite values")
    tol = 1e-12 * max(float(w.max()), 1.0)
    if w.min() <= tol:
        raise NumericError("target covariance is singular even after regularization")
    return (v / np.sqrt(w)) @ v.T
