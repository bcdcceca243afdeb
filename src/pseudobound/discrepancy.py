"""Domain-gap measurements over the stump class.

The stump-class distance between two empirical feature sets is computed
exactly: every stump-pair disagreement region is either a coordinate slab or
an axis-aligned XOR of two half-spaces, so the supremum reduces to integer
prefix-sum scans.  Source points carry weight +n_T and target points -n_S;
a region's score is then n_S*n_T times the difference of its two empirical
probabilities, and everything stays in int64 until the final division.  The
XOR scan cuts each coordinate's distinct values into blocks of about
sqrt(k), so each coordinate pair's prefix-sum grid falls into row blocks
and column blocks, and it narrows the row blocks in three steps.  A corner
grid per pair gives the grid at every block corner: those cuts score, and
they bound every row block.  Then, best bound first across all pairs, only
the blocks the corners cannot rule out get their full-width top row, which
scores and tightens the bound.  Last, only blocks whose bound still beats
the best score of any pair are scanned, on the column segments their own
points cut.  With k1, k2 distinct values per coordinate and n points it
takes O(k1^1.5 + sqrt(k1)*k2 + n log n) time a pair at worst (when every
block must be scanned) and O(q^2 n) memory beyond a fixed group budget; no
grid is built.
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
    changes the integer.  Every coordinate pair's corner grid precedes one
    joint pass over the row blocks of all pairs.
    """
    n_s, n_t = len(source_feats), len(target_feats)
    pooled = np.vstack([source_feats, target_feats])
    weights = np.concatenate([
        np.full(n_s, n_t, dtype=np.int64),
        np.full(n_t, -n_s, dtype=np.int64),
    ])
    n, q = pooled.shape

    orders = np.empty((q, n), dtype=np.int64)   # per coordinate: a value order
    ranks = np.empty((q, n), dtype=np.int64)    # per coordinate: distinct-value ranks
    best = 0
    for j in range(q):
        order = np.argsort(pooled[:, j])
        xs = pooled[order, j]
        step = xs[1:] > xs[:-1]
        prefix = np.concatenate(([0], np.cumsum(weights[order])))
        sums = prefix[np.concatenate(([0], np.flatnonzero(step) + 1, [n]))]
        orders[j] = order
        ranks[j, order] = np.concatenate(([0], np.cumsum(step)))
        best = max(best, int(sums.max() - sums.min()))
    return _xor_best(orders, ranks, weights, best) if q > 1 else best


def _block_rows(k1: int) -> int:
    """Grid rows per block, about sqrt(k1): at worst a sweep spends k1/B * k2
    cells on top rows and about k1 * B on in-block sums, whose total is least
    near B = sqrt(k2), and k1 and k2 are alike.  A coordinate's row blocks
    are its column blocks too, so a corner grid has about k1/B * k2/B cells.
    Small pools take one block."""
    return max(_MIN_BLOCK_ROWS, math.isqrt(k1))


def _xor_corners(blocks: np.ndarray, j1: np.ndarray, j2: np.ndarray, weights: np.ndarray,
                 floor: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Corner grids of the coordinate pairs (j1, j2): (max(floor, their best
    corner), each pair's reach per row block, each coordinate's S per block,
    its points' summed |w|).

    blocks[j] is every point's block of coordinate j.  With G[a, b] the
    signed weight below both cuts, the XOR region weighs F(a, b) = G[a, -1] +
    G[-1, b] - 2 G[a, b].  One histogram of the points by (j1 block, j2
    block), cumulated both ways, is G at every block corner, where F is a
    real cut and scores.  A cell of row block i and column block c differs
    from each of the four corners by at most the |w| of the row block's
    points between their rows plus that of the column block's points between
    their columns; the four add to 2 S_i + 2 S_c, so |F| there is at most
    the mean of the corners' |F| plus (S_i + S_c) / 2.  A row block's reach
    is the largest of these over its column blocks.  Grids pad to the most
    blocks of any coordinate; a padded corner repeats the last real one, and
    a padded column block, of S_c = 0, bounds no more than the last real one.
    """
    q = len(blocks)
    side = int(blocks.max()) + 2                # corners per grid side
    g = np.zeros((len(j1), side, side), dtype=np.int64)
    cell = (np.arange(len(j1))[:, None] * side + blocks[j1] + 1) * side + blocks[j2] + 1
    np.add.at(g.ravel(), cell.ravel(), np.broadcast_to(weights, cell.shape).ravel())
    np.cumsum(g, axis=1, out=g)
    np.cumsum(g, axis=2, out=g)
    f = np.abs(g[:, :, -1:] + g[:, -1:, :] - 2 * g)   # |F| at each corner
    floor = max(floor, int(f.max()))
    s_abs = np.zeros((q, side - 1), dtype=np.int64)
    np.add.at(s_abs.ravel(), (np.arange(q)[:, None] * (side - 1) + blocks).ravel(),
              np.broadcast_to(np.abs(weights), blocks.shape).ravel())
    f[:, :-1] += f[:, 1:]                       # |F| of corner rows i and i + 1
    reach = (f[:, :-1, :-1] + f[:, :-1, 1:] + 2 * s_abs[j2, None]).max(axis=2)
    reach += 2 * s_abs[j1]
    reach //= 4
    return floor, reach, s_abs


def _xor_best(orders: np.ndarray, ranks: np.ndarray, weights: np.ndarray, floor: int
              ) -> int:
    """max(floor, max |F| over the XOR regions of every coordinate pair).

    Each pair's points are taken in its row coordinate's order, so a row
    block's points are one run.  Row blocks are taken best reach first,
    whatever their pair, while their reach beats the best score so far, as
    many at once as _GROUP_CELLS holds their full-width top rows or their
    scan.  ``_top_rows`` builds a group's top rows, which are real cuts and
    score.  A block's rows differ from its top row by at most its S, so its
    exact top score plus S may lower its reach, and only the blocks whose
    reach still beats the best are scanned, in ``_block_pass``.  So pruning
    is exact.  In a block G[a, .] is G at its top row plus D[a, .], a step
    function of b that steps only at the block's own columns, so on segment
    s between them F(a, b) = F(top, b) + D[a, -1] - 2 D[a, s], and a scan
    needs only F's extremes on each segment of the top row.

    A pair's corner grid takes O(n + k1/B * k2/B) time, a top row O(k2) plus
    its pair's points above it, a scanned block O(B^2): at worst, when alike
    samples leave every block, O(k1/B * k2 + k1 * B + n log n) time a pair.
    One buffer of _GROUP_CELLS cells, made on every call (it keeps glibc's
    mmap threshold raised for the callers' later arrays), holds a group's
    top rows, then its D.
    """
    q, n = ranks.shape
    k = ranks.max(axis=1) + 1                   # distinct values per coordinate
    rows = np.array([_block_rows(int(kj)) for kj in k])
    blocks = ranks // rows[:, None]
    j1, j2 = np.array([(a, b) for a in range(q) for b in range(a + 1, q)]).T
    floor, reach, s_abs = _xor_corners(blocks, j1, j2, weights, floor)
    count = np.zeros_like(s_abs)                # points per block, per coordinate
    np.add.at(count.ravel(), (np.arange(q)[:, None] * s_abs.shape[1] + blocks).ravel(), 1)
    real = np.arange(s_abs.shape[1]) < -(-k[j1, None] // rows[j1, None])
    reach, s_row, size = reach[real], s_abs[j1][real], count[j1][real]
    pair = np.repeat(np.arange(len(j1)), real.sum(axis=1))
    start = np.cumsum(size) - size              # each block's first point
    # each pair's points by row: column b = rank2 + 1, row in block, -2 w
    order = orders[j1]
    column = ranks[j2[:, None], order]
    column += 1
    row = np.take_along_axis(ranks - blocks * rows[:, None], orders, axis=1)[j1]
    neg2w = weights[order]                      # w until G[-1, .] is built
    width = int(k[j2].max()) + 1
    bottom = np.zeros((len(j1), width), dtype=np.int64)    # G[-1, .]'s steps per pair
    np.add.at(bottom.ravel(), (np.arange(len(j1))[:, None] * width + column).ravel(),
              neg2w.ravel())
    neg2w *= -2
    column, row, neg2w = column.ravel(), row.ravel(), neg2w.ravel()
    del order

    def scan(take, floor):                      # one group of blocks, sorted
        v = _top_rows(work, start[take], pair[take], n, bottom, column, neg2w)
        pos = np.repeat(np.arange(len(take)), size[take])   # each point's block
        pts = np.arange(len(pos)) + (start[take] - np.cumsum(size[take]) + size[take])[pos]
        seg, n_seg, f_hi, f_lo = _segment_extremes(v, pos, column[pts])
        del v                                   # before the scan's D
        at = np.cumsum(n_seg) - n_seg           # each block's first segment
        score = np.maximum.reduceat(np.maximum(f_hi, -f_lo), at)
        floor = max(floor, int(score.max()))
        kept = np.minimum(reach[take], score + s_row[take]) > floor
        if not kept.any():
            return floor
        kb = np.flatnonzero(kept)
        s_max = int(n_seg[kb].max())
        pick = at[kb, None] + np.minimum(np.arange(s_max), n_seg[kb, None] - 1)
        sel = kept[pos]
        r = row[pts[sel]]
        cells = (r * len(kb) + (np.cumsum(kept) - 1)[pos[sel]]) * s_max + seg[sel]
        return max(floor, _block_pass(work, int(r.max()) + 1, cells, neg2w[pts[sel]],
                                      f_hi[pick], f_lo[pick]))

    work = np.empty(_GROUP_CELLS, dtype=np.int64)   # every group's top rows, then D
    segments = min(int(size.max()), width - 1) + 1  # most a block can have
    # a group's top rows and its D together fit the buffer, so each touches
    # only part of it: touched pages stay resident after the call
    group = max(1, _GROUP_CELLS // (width + int(rows[j1].max()) * segments))
    queue = np.argsort(-reach, kind="stable")       # best reach first
    while (queue := queue[reach[queue] > floor]).size:
        floor = scan(np.sort(queue[:group]), floor)
        queue = queue[group:]
    return floor


def _top_rows(work: np.ndarray, tops: np.ndarray, pairs: np.ndarray, n: int,
              bottom: np.ndarray, column: np.ndarray, neg2w: np.ndarray) -> np.ndarray:
    """V = G[-1, .] - 2 G[top, .], one full-width row a top.

    tops are the flat first points of blocks, ascending; pairs their pairs.
    Row i first holds, by column, -2 w of its pair's points from the last
    top before it (or the pair's first point) to its own, and a pair's first
    row also G[-1, .]'s steps; cumulated down each pair and then across, row
    i is V at its top.  The rows are built in ``work`` when they fit."""
    m, width = len(tops), bottom.shape[1]
    v = (work[:m * width] if m * width <= len(work)
         else np.empty(m * width, dtype=np.int64)).reshape(m, width)
    v.fill(0)
    heads = np.flatnonzero(np.diff(pairs, prepend=-1))
    for i0, i1 in zip(heads, [*heads[1:], m]):
        base, end = pairs[i0] * n, tops[i1 - 1]
        v[i0] = bottom[pairs[i0]]
        cell = np.repeat(np.arange(i0 * width, i1 * width, width),
                         np.diff(tops[i0:i1], prepend=base))
        cell += column[base:end]
        np.add.at(v.ravel(), cell, neg2w[base:end])
    for i in np.flatnonzero(pairs[1:] == pairs[:-1]) + 1:
        v[i] += v[i - 1]
    np.cumsum(v, axis=1, out=v)
    return v


def _segment_extremes(v: np.ndarray, pos: np.ndarray, column: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(each point's segment, each block's segment count, F's max and min on
    every segment of every top row, block by block).

    Block i's top row is V = v[i]; its points are those with pos == i, in
    the given columns.  Segment 0 lies left of the block's columns, and
    segment s runs from its s-th distinct column to the next."""
    m, width = v.shape
    key = pos * width + column
    order = np.argsort(key)
    sorted_key = key[order]
    new = np.empty(len(key), dtype=bool)        # first point of each key
    new[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new[1:])
    ukey = sorted_key[new]                      # each block's columns, in order
    firsts = np.searchsorted(ukey, np.arange(m + 1) * width)
    seg = np.empty(len(key), dtype=np.int64)
    seg[order] = np.cumsum(new)
    seg -= firsts[pos]
    n_seg = np.diff(firsts) + 1
    cuts = np.insert(ukey, firsts[:-1], np.arange(m) * width)   # flat segment starts
    shift = np.repeat(v[:, -1] // -2, n_seg)    # F = V + G[top, -1], as G[-1, -1] = 0
    return (seg, n_seg, np.maximum.reduceat(v.ravel(), cuts) + shift,
            np.minimum.reduceat(v.ravel(), cuts) + shift)


def _block_pass(work: np.ndarray, rows: int, cells: np.ndarray, neg2w: np.ndarray,
                f_hi: np.ndarray, f_lo: np.ndarray) -> int:
    """max |F| over a group of blocks.  neg2w[p] lands at flat cell cells[p] of
    d, (rows, blocks, segments); summed, d is each block's -2 D, and d, f_hi and
    f_lo (F's extremes per segment of the top row) pad with the last segment,
    and a block of fewer rows with its last row, the next block's top.  It
    takes O(rows * blocks * segments) time: about B (B + 1) cells a block
    when its B rows hold B points of distinct columns."""
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
    time at worst, when every row block of the XOR sweep needs its top row
    and a scan.  It takes less when the corner grids rule blocks out: on
    shifted samples about a tenth of the blocks get a top row.  Memory is
    O(q^2 n) beyond a fixed 1 MB group budget, never an (n+1)^2 grid.
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
    entering the bound's domain-divergence term.  The ERM runs on the
    source rows, then the target rows; where the two similarity arrays
    already are the halves of one array, in that order, it runs on that
    array instead of a stacked copy.
    """
    n_s, n_t = len(source_pairs), len(target_pairs)
    if n_s == 0 or n_t == 0:
        raise EmptyInputError("ideal_joint needs pairs from both domains")
    cost_pos, cost_neg = np.empty((2, n_s + n_t))
    for pairs, rows in ((source_pairs, slice(0, n_s)), (target_pairs, slice(n_s, None))):
        for out, cost in zip((cost_pos, cost_neg), zero_m_costs(pairs.true_labels, big_m)):
            np.divide(cost, len(pairs), out=out[rows])
    return erm(_stacked(source_pairs.similarity, target_pairs.similarity),
               cost_pos, cost_neg)


def _stacked(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """np.vstack([top, bottom]), or without a copy the C-contiguous array
    whose first and last rows top and bottom are."""
    whole = top.base
    if (isinstance(whole, np.ndarray) and bottom.base is whole
            and whole.flags.c_contiguous and whole.shape[1:] == top.shape[1:]
            and len(whole) == len(top) + len(bottom)):
        halves = whole[:len(top)], whole[len(top):]
        if all(h.__array_interface__ == v.__array_interface__
               for h, v in zip(halves, (top, bottom))):
            return whole
    return np.vstack([top, bottom])


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


def mmd_squared(x_feats: np.ndarray, y_feats: np.ndarray, bandwidth=None) -> float:
    """Biased V-statistic MMD^2 with a Gaussian kernel of the given positive,
    finite bandwidth, or of the median heuristic's when it is None.

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
    if not (bandwidth is None or isinstance(bandwidth, numbers.Real)
            and not isinstance(bandwidth, bool) and math.isfinite(bandwidth)):
        raise ConfigurationError(f"kernel bandwidth must be None or finite, got {bandwidth!r}")
    sq_xx, sq_yy, sq_xy = _sq_dists(x), _sq_dists(y), _sq_dists(x, y)
    sigma = (_median_distance(np.concatenate([sq_xx, sq_yy, sq_xy])) if bandwidth is None
             else float(bandwidth))
    if not sigma > 0:
        raise ConfigurationError(f"kernel bandwidth must be positive, got {sigma}")
    scale = -0.5 / (sigma * sigma)

    def kernel(sq):                     # exp(scale * sq), in place
        sq *= scale
        return np.exp(sq, out=sq)

    def self_mean(feats, sq):           # twice the triangle plus the diagonal,
        d = feats - feats               # which is NaN where feats are not finite
        triangle = kernel(sq)
        triangle *= 2.0
        return _exact_sum(triangle, kernel(np.einsum("ij,ij->i", d, d))) / len(feats) ** 2

    value = (self_mean(x, sq_xx) + self_mean(y, sq_yy)
             - 2.0 * _exact_sum(kernel(sq_xy)) / (len(x) * len(y)))
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
