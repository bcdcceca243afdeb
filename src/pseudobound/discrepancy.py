"""Domain-gap measurements over the stump class.

The stump-class distance between two empirical feature sets is computed
exactly: every stump-pair disagreement region is either a coordinate slab or
an axis-aligned XOR of two half-spaces, so the supremum reduces to integer
prefix-sum scans.  Source points carry weight +n_T and target points -n_S;
a region's score is then n_S*n_T times the difference of its two empirical
probabilities, and everything stays in int64 until the final division.  The
XOR scan cuts each coordinate pair's prefix-sum grid into blocks of about
sqrt(k1) rows and scores a block only on the column segments its own points
cut.  A carry pass of every coordinate pair scores each block's top row;
a block's rows differ from it by at most its points' summed |weight|, so one
scan, best bound first across all pairs, visits only blocks that can beat
the best score of any pair.  With k1, k2 distinct values per coordinate and
n points it takes O(k1^1.5 + sqrt(k1)*k2 + n log n) time a pair at worst
(when every block must be scanned) and O(q^2 n) memory beyond a fixed group
budget; no grid is built.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .domains import AffineMap, SampleSet
from .errors import (
    ConfigurationError,
    EmptyInputError,
    InsufficientDataError,
    NumericError,
)
from .noise import zero_m_costs
from .stumps import StumpHypothesis, _exact_sum, erm

MEDIAN_HEURISTIC = "median"
_MIN_BLOCK_ROWS = 8          # fewest grid rows in an XOR sweep block
_GROUP_CELLS = 1 << 17       # int64 cells of one XOR block group (1 MB)
_CACHED_TRIANGLE_N = 1024   # largest n whose upper-triangle pairs are cached


def _h_delta_h_best(source_feats: np.ndarray, target_feats: np.ndarray) -> int:
    """max over stump pairs of |n_T*(#S in region) - n_S*(#T in region)|.

    Same-coordinate pairs disagree on a value slab, cross-coordinate pairs
    on a half-space XOR; complements score identically because the total
    signed weight is zero, so slabs and XORs cover every case.  numpy's
    default argsort may order ties either way; the scans read only distinct-
    value ranks and integer sums over whole runs of ties, so no tie order
    changes the integer.  All pairs' carry passes precede one joint scan.
    """
    n_s, n_t = len(source_feats), len(target_feats)
    pooled = np.vstack([source_feats, target_feats])
    weights = np.concatenate([
        np.full(n_s, n_t, dtype=np.int64),
        np.full(n_t, -n_s, dtype=np.int64),
    ])
    n, q = pooled.shape

    orders = []      # per coordinate: a value order of the points
    ranks = []       # per coordinate: distinct-value rank of every point
    best = 0
    for j in range(q):
        order = np.argsort(pooled[:, j])
        xs = pooled[order, j]
        step = xs[1:] > xs[:-1]
        prefix = np.concatenate(([0], np.cumsum(weights[order])))
        sums = prefix[np.concatenate(([0], np.flatnonzero(step) + 1, [n]))]
        rank = np.empty(n, dtype=np.int64)
        rank[order] = np.concatenate(([0], np.cumsum(step)))
        orders.append(order)
        ranks.append(rank)
        best = max(best, int(sums.max() - sums.min()))
    carries = []
    for j1 in range(q):
        for j2 in range(j1 + 1, q):
            order = orders[j1]
            best, blocks = _xor_carry(ranks[j1][order], ranks[j2][order], weights[order], best)
            carries.append(blocks)
    return _xor_best(carries, best) if carries else best


def _block_rows(k1: int) -> int:
    """Grid rows per block, about sqrt(k1): a sweep spends k1/B * k2 cells on
    carry rows and about k1 * B on in-block sums, whose total is least near
    B = sqrt(k2), and k1 and k2 are alike.  Small pools take one block."""
    return max(_MIN_BLOCK_ROWS, math.isqrt(k1))


def _xor_carry(rank1: np.ndarray, rank2: np.ndarray, weights: np.ndarray,
               floor: int) -> tuple[int, tuple]:
    """Carry pass of one coordinate pair: (max(floor, its top rows' best),
    the blocks that may still beat that, for ``_xor_best``).

    rank1 is sorted.  With G[a, b] the signed weight below both cuts, the XOR
    region weighs F(a, b) = G[a, -1] + G[-1, b] - 2 G[a, b].  Rows come in
    blocks of B = _block_rows(k1).  In a block G[a, .] is the carry row above
    it plus D[a, s], a step function of b that steps only at the block's own
    columns, so F(a, b) = F(top, b) + D[a, -1] - 2 D[a, s].  V = G[-1, .] -
    2 G is carried down the top rows a group of blocks at a time (their rows
    and a scan of theirs within _GROUP_CELLS cells) by spreading each block's
    last D row over its segments.  Each top row, a real cut, is scored; each
    block point below cut a moves F(a, .) by +-|w| from it, so no row beats
    the top score plus S, the block's summed |w|: its reach.  F = V +
    G[top, -1] enters only through F's extremes per top-row segment, which
    with the group size, each block's point and segment counts and reach, and
    each point's row, segment and -2 w are kept for blocks with reach > floor.
    """
    k1 = int(rank1[-1]) + 1
    width = int(rank2.max()) + 2                # grid columns b = 0..k2
    b_idx = rank2 + 1
    col = np.zeros(width, dtype=np.int64)       # G[-1, b]
    np.add.at(col, b_idx, weights)
    np.cumsum(col, out=col)

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
    # Block i's segments are at[i]..at[i+1] - 1 of one flat list; segment s
    # starts at column starts[at[i] + s] of the (block, column) flattening.
    at = firsts + np.arange(n_blocks + 1)
    starts = np.insert(ukey, firsts[:-1], np.arange(n_blocks) * width)
    neg2w = -2 * weights
    last = np.zeros(at[-1], dtype=np.int64)     # -2 D at each block's last row
    np.add.at(last, at[block] + seg, neg2w)
    np.cumsum(last, out=last)
    last -= np.repeat(last[at[:-1]], n_seg)     # segment 0 holds no point

    size = np.diff(np.searchsorted(rank1, np.arange(n_blocks + 1) * rows))
    reach = np.add.reduceat(np.abs(weights), np.cumsum(size) - size)   # S
    f_hi, f_lo = np.empty((2, at[-1]), dtype=np.int64)   # top row's F per segment
    most = max(1, _GROUP_CELLS // (width + rows * int(n_seg.max())))
    group = -(-n_blocks // -(-n_blocks // most))   # groups as equal as may be
    carry = col                                 # V at the group's top row
    for g0 in range(0, n_blocks, group):
        g1 = min(g0 + group, n_blocks)
        nb = g1 - g0
        cut = starts[at[g0]:at[g1]] - g0 * width
        # v[i] is V at the top row of block g0 + i: the carry row above it
        # plus every earlier block's last D row spread over its segments;
        # v[nb] tops the next group.
        v = np.repeat(np.concatenate((carry, last[at[g0]:at[g1]])),
                      np.concatenate((np.ones(width, dtype=np.int64),
                                      np.diff(cut, append=nb * width)))
                      ).reshape(nb + 1, width)
        for i in range(1, nb + 1):
            v[i] += v[i - 1]
        carry, v = v[nb].copy(), v[:nb]
        shift = v[:, -1] // -2                  # G[top, -1], as col[-1] = 0
        score = np.maximum(v.max(axis=1) + shift, -(v.min(axis=1) + shift))
        floor = max(floor, int(score.max()))
        reach[g0:g1] += score
        kept = reach[g0:g1] > floor             # the blocks still worth a scan
        sel = np.repeat(kept, n_seg[g0:g1])
        cut = (cut - np.repeat(np.cumsum(~kept) * width, n_seg[g0:g1]))[sel]
        shift = np.repeat(shift[kept], n_seg[g0:g1][kept])
        for j, i in enumerate(np.flatnonzero(kept)):   # moved up in place, not copied
            v[j] = v[i]
        v = v[:kept.sum()].ravel()
        f_hi[at[g0]:at[g1]][sel] = np.maximum.reduceat(v, cut) + shift
        f_lo[at[g0]:at[g1]][sel] = np.minimum.reduceat(v, cut) + shift
        del v                                   # before the next group's rows
    keep = reach > floor
    pts, segs = np.repeat(keep, size), np.repeat(keep, n_seg)
    return floor, (group, size[keep], n_seg[keep], reach[keep], f_hi[segs],
                   f_lo[segs], rank1[pts] % rows, seg[pts], neg2w[pts])


def _xor_best(carries: list, floor: int) -> int:
    """max(floor, max |F| over the blocks of every pair's carry pass).

    Blocks are scanned in ``_block_pass`` best reach first, whatever their
    pair, as many at once as the smallest group of any pair, while their
    reach beats the best score so far, so pruning is exact: O(k1/B * k2 +
    k1 * B + n log n) time a pair when alike samples leave every block.  One
    buffer of _GROUP_CELLS cells, made once the carry rows are freed, holds D.
    """
    group = min(blocks[0] for blocks in carries)
    size, n_seg, reach, f_hi, f_lo, row, seg, neg2w = (
        np.concatenate(parts) for parts in zip(*(blocks[1:] for blocks in carries)))
    carries.clear()                             # before the scan's buffer
    block = np.repeat(np.arange(len(size)), size)   # each point's block
    at = np.cumsum(n_seg) - n_seg                   # each block's first segment
    work = np.empty(_GROUP_CELLS, dtype=np.int64)   # every group's D
    scan = np.argsort(-reach, kind="stable")    # best reach first
    while (scan := scan[reach[scan] > floor]).size:
        take, scan = np.sort(scan[:group]), scan[group:]
        pts = np.flatnonzero(np.isin(block, take))
        s_max = int(n_seg[take].max())
        pick = at[take, None] + np.minimum(np.arange(s_max), n_seg[take, None] - 1)
        cells = (row[pts] * len(take) + np.searchsorted(take, block[pts])) * s_max
        floor = max(floor, _block_pass(work, int(row[pts].max()) + 1, cells + seg[pts],
                                       neg2w[pts], f_hi[pick], f_lo[pick]))
    return floor


def _block_pass(work: np.ndarray, rows: int, cells: np.ndarray, neg2w: np.ndarray,
                f_hi: np.ndarray, f_lo: np.ndarray) -> int:
    """max |F| over a group of blocks.  neg2w[p] lands at flat cell cells[p] of
    d, (rows, blocks, segments); summed, d is each block's -2 D, and d, f_hi and
    f_lo (F's extremes per segment of the top row) pad with the last segment,
    and a block of fewer rows with its last row, the next block's top."""
    size = rows * f_hi.size
    d = (work[:size] if size <= len(work) else np.empty(size, dtype=np.int64))
    d = d.reshape((rows,) + f_hi.shape)
    d.fill(0)
    np.add.at(d.ravel(), cells, neg2w)
    np.cumsum(d, axis=2, out=d)
    for r in range(1, rows):
        d[r] += d[r - 1]
    shift = d[:, :, -1] // -2               # F(a, b) = F(top, b) + D[a, -1] - 2 D[a, b]
    d += f_hi
    hi = int((d.max(axis=2) + shift).max())
    d += f_lo - f_hi
    return max(hi, -int((d.min(axis=2) + shift).min()))


def h_delta_h_distance(source_feats: np.ndarray, target_feats: np.ndarray
                       ) -> float:
    """Empirical stump-class distance 2 sup |Pr_S[h != h'] - Pr_T[h != h']|.

    Candidate thresholds are midpoints of consecutive distinct pooled values
    plus +-inf, where the empirical supremum is attained; the value is exact
    for the two empirical distributions, and no row or coordinate order
    changes it.  For n pooled points in q coordinates with k1, k2 distinct
    values per coordinate it takes O(q^2 (k1^1.5 + sqrt(k1) k2 + n log n))
    time at worst, less when the XOR sweep's exact bound skips row blocks
    (as on shifted samples), and O(q^2 n) memory beyond a fixed 1 MB group
    budget, never an (n+1)^2 grid.
    """
    sf = np.asarray(source_feats, float)
    tf = np.asarray(target_feats, float)
    if len(sf) == 0 or len(tf) == 0:
        raise EmptyInputError("h_delta_h_distance needs nonempty feature sets")
    if sf.ndim != 2 or tf.ndim != 2 or not 0 < sf.shape[1] == tf.shape[1]:
        raise ConfigurationError("feature sets must be (n, q) with equal q >= 1")
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
    # the per-domain cost arrays are freed before the ERM, which sets the
    # peak memory
    cost_pos, cost_neg = (
        np.concatenate([s / len(source_pairs), t / len(target_pairs)])
        for s, t in zip(zero_m_costs(source_pairs.true_labels, big_m),
                        zero_m_costs(target_pairs.true_labels, big_m)))
    feats = np.vstack([source_pairs.similarity, target_pairs.similarity])
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


def _triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, k=1), from the cache up to _CACHED_TRIANGLE_N."""
    return _upper_triangle(n) if n <= _CACHED_TRIANGLE_N else np.triu_indices(n, k=1)


def _sq_dists(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Squared distances of all (a, b) row pairs or of a's strict upper
    triangle, each summed by einsum (a per-coordinate sum rounds otherwise)."""
    if b is None:
        i, j = _triangle(len(a))
        diff = np.take(a, i, axis=0)
        diff -= np.take(a, j, axis=0)
    else:
        diff = np.empty((len(a), len(b), a.shape[1]))
        for k in range(a.shape[1]):
            np.subtract.outer(a[:, k], b[:, k], out=diff[:, :, k])
        diff = diff.reshape(-1, a.shape[1])
    return np.einsum("ij,ij->i", diff, diff)


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
    if not 0 < x.shape[1] == y.shape[1]:
        raise ConfigurationError("feature sets must share a dimension q >= 1")
    median = isinstance(bandwidth, str) and bandwidth == MEDIAN_HEURISTIC
    if not (median or isinstance(bandwidth, numbers.Real)
            and not isinstance(bandwidth, bool) and math.isfinite(bandwidth)):
        raise ConfigurationError(f"kernel bandwidth must be 'median' or finite, got {bandwidth!r}")
    sq_xx, sq_yy, sq_xy = _sq_dists(x), _sq_dists(y), _sq_dists(x, y)
    sigma = (_median_distance(np.concatenate([sq_xx, sq_yy, sq_xy])) if median
             else float(bandwidth))
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
    cov_s = np.atleast_2d(np.cov(src, rowvar=False))  # 0-d at q = 1
    cov_t = np.atleast_2d(np.cov(tgt, rowvar=False))
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
