"""Decision stumps: the finite-VC hypothesis class and its exact ERM.

A stump (j, t, s) predicts s when x[j] > t and -s otherwise; sign(0) never
arises because the comparison is strictly greater.  ERM takes per-point
(cost if predicted +1, cost if predicted -1) pairs, so the same scan serves
plain, corrected, and alpha-weighted risks.

The scan is batched: ``erm_batch`` fits b problems of equal size with one
sort and one prefix sum per coordinate, and ``erm`` is its b = 1 case.  An
interior threshold is the midpoint of the two values around the cut, or
the lower value where the midpoint rounds up to the upper one or overflows,
so the returned stump always realizes the cut it was scored on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import make_rng
from .errors import ConfigurationError, EmptyInputError
from .serial import Serializable


@dataclass(frozen=True)
class StumpHypothesis(Serializable):
    coordinate: int
    threshold: float
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ConfigurationError("sign must be +1 or -1")
        if self.coordinate < 0:
            raise ConfigurationError("coordinate must be >= 0")

    def predict(self, feats: np.ndarray) -> np.ndarray:
        """Vectorized prediction; accepts one vector or a (n, q) array."""
        x = np.asarray(feats, float)
        if x.ndim == 1:
            return self.sign if x[self.coordinate] > self.threshold else -self.sign
        return np.where(x[:, self.coordinate] > self.threshold, self.sign, -self.sign)

    def misses(self, feats: np.ndarray, labels: np.ndarray) -> int:
        """Count of (n, q) rows whose prediction differs from a +-1 label.

        Predicting s exactly when x[j] > t matches label y iff the
        comparison agrees with y == s, so no prediction array is built.
        """
        above = np.asarray(feats, float)[:, self.coordinate] > self.threshold
        return int(np.count_nonzero(above != (np.asarray(labels) == self.sign)))

    def flipped(self) -> "StumpHypothesis":
        return StumpHypothesis(self.coordinate, self.threshold, -self.sign)


def vc_dimension(feature_dim: int) -> int:
    """VC dimension of the stump class over feature_dim coordinates."""
    if feature_dim < 1:
        raise ConfigurationError("feature_dim must be >= 1")
    return 2 if feature_dim == 1 else int(math.floor(math.log2(feature_dim))) + 2


def erm(feats: np.ndarray, cost_pos: np.ndarray, cost_neg: np.ndarray
        ) -> tuple[StumpHypothesis, float]:
    """Exact empirical risk minimization over all stumps.

    Scans each coordinate once over its stable sorted order (O(q n log n)),
    as the b = 1 case of ``erm_batch``; points of equal value keep their
    input order, which fixes the rounding of the prefix sums.  Candidate
    cuts lie between consecutive distinct values, plus both ends at
    -inf/+inf; an interior threshold is the midpoint of its two values, or
    the lower value where the midpoint rounds up to the upper one or
    overflows.  Ties break toward the smallest coordinate, then the smallest
    threshold, then sign +1.  The winning cost is re-accumulated with exact
    summation so the reported value does not depend on scan order.
    """
    x = np.asarray(feats, float)
    if x.ndim != 2:
        raise ConfigurationError("feats must be a (n, q) array")
    return erm_batch(x[None], np.asarray(cost_pos, float)[None],
                     np.asarray(cost_neg, float)[None])[0]


def erm_batch(feats: np.ndarray, cost_pos: np.ndarray, cost_neg: np.ndarray
              ) -> list[tuple[StumpHypothesis, float]]:
    """``erm`` on b problems of equal size in one scan.

    feats is (b, n, q), the costs (b, n).  Each coordinate is sorted once for
    all b problems (O(b q n log n)) with numpy's default (SIMD) argsort; a
    row with a tie, +-0.0 included, is sorted again stably, so every row is
    in its unique stable order on any CPU.  cumsum accumulates every row in
    order, so each problem's prefix sums, and hence its stump and cost, are
    bit-identical to fitting it alone.
    """
    x = np.asarray(feats, float)
    cp = np.asarray(cost_pos, float)
    cn = np.asarray(cost_neg, float)
    if x.ndim != 3:
        raise ConfigurationError("feats must be a (b, n, q) array")
    b, n, q = x.shape
    if n == 0:
        raise EmptyInputError("erm needs at least one point")
    if cp.shape != (b, n) or cn.shape != (b, n):
        raise ConfigurationError("cost arrays must match the number of points")
    if not (np.isfinite(cp).all() and np.isfinite(cn).all() and np.isfinite(x).all()):
        raise ConfigurationError("erm inputs must be finite")

    rows = np.arange(b)
    by_row = rows[:, None]
    # Cut k puts the sorted points [0, k) below the threshold and [k, n)
    # above; prefix and suffix sums of cp and cn price either side.
    pre_cp = np.zeros((b, n + 1))
    pre_cn = np.zeros((b, n + 1))
    suf_cp = np.zeros((b, n + 1))
    suf_cn = np.zeros((b, n + 1))
    # (cut, sign) costs interleaved with sign +1 first, so argmin's first
    # occurrence realizes the threshold-then-sign tie-break.
    costs = np.empty((b, n + 1, 2))
    flat = costs.reshape(b, 2 * (n + 1))
    best_cost = np.full(b, np.inf)
    best_j = np.zeros(b, dtype=int)
    best_k = np.zeros(b, dtype=int)
    best_lo = np.zeros(b)
    best_hi = np.zeros(b)
    for j in range(q):
        xj = x[:, :, j]
        order = np.argsort(xj, axis=1)
        xs = xj[by_row, order]
        tied = xs[:, 1:] <= xs[:, :-1]
        # The order inside a tie group (+-0.0 included) sets the prefix sums'
        # rounding, so rows with a tie sort again stably; others have one order.
        redo = np.flatnonzero(tied.any(axis=1))
        if len(redo):
            order[redo] = np.argsort(xj[redo], axis=1, kind="stable")
            xs[redo] = xj[redo[:, None], order[redo]]
        cpj = cp[by_row, order]
        cnj = cn[by_row, order]
        np.cumsum(cpj, axis=1, out=pre_cp[:, 1:])
        np.cumsum(cnj, axis=1, out=pre_cn[:, 1:])
        np.cumsum(cpj[:, ::-1], axis=1, out=suf_cp[:, n - 1::-1])
        np.cumsum(cnj[:, ::-1], axis=1, out=suf_cn[:, n - 1::-1])
        # sign +1: below the cut predicts -1 (pays cn), above predicts +1.
        np.add(pre_cn, suf_cp, out=costs[:, :, 0])
        np.add(pre_cp, suf_cn, out=costs[:, :, 1])
        # A cut between equal values is not realizable by any threshold.
        costs[:, 1:n][tied] = np.inf
        k = np.argmin(flat, axis=1)
        cost_j = flat[rows, k]
        better = cost_j < best_cost
        if better.any():
            cut = k[better] // 2
            best_cost[better] = cost_j[better]
            best_j[better] = j
            best_k[better] = k[better]
            best_lo[better] = xs[better, np.maximum(cut - 1, 0)]
            best_hi[better] = xs[better, np.minimum(cut, n - 1)]

    cut = best_k // 2
    with np.errstate(over="ignore"):
        mid = 0.5 * (best_lo + best_hi)
    # The midpoint can round up to hi or overflow; lo then still splits.
    thresholds = np.where((best_lo <= mid) & (mid < best_hi), mid, best_lo)
    thresholds[cut == 0] = -np.inf
    thresholds[cut == n] = np.inf
    signs = np.where(best_k % 2 == 0, 1, -1)
    above = x[rows, :, best_j] > thresholds[:, None]
    chosen = np.where(above == (signs == 1)[:, None], cp, cn)
    return [
        (StumpHypothesis(j, t, s), math.fsum(row))
        for j, t, s, row in zip(best_j.tolist(), thresholds.tolist(),
                                signs.tolist(), chosen.tolist())
    ]


def random_stump(rng_seed: int, feature_dim: int,
                 threshold_range: tuple[float, float] = (-3.0, 3.0)
                 ) -> StumpHypothesis:
    """A uniformly random stump, for deviation batteries and property tests."""
    if feature_dim < 1:
        raise ConfigurationError("feature_dim must be >= 1")
    lo, hi = threshold_range
    if not hi > lo:
        raise ConfigurationError("threshold_range must be increasing")
    rng = make_rng(rng_seed)
    return StumpHypothesis(
        int(rng.integers(feature_dim)),
        float(rng.uniform(lo, hi)),
        1 if rng.integers(2) == 1 else -1,
    )
