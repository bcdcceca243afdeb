"""Decision stumps: the finite-VC hypothesis class and its exact ERM.

A stump (j, t, s) predicts s when x[j] > t and -s otherwise; sign(0) never
arises because the comparison is strictly greater.  ERM takes per-point
(cost if predicted +1, cost if predicted -1) pairs, so the same scan serves
plain, corrected, and alpha-weighted risks.

The scan is batched: ``erm_batch`` fits b problems of equal size with one
sort and one prefix sum per coordinate and returns stumps; ``erm`` is its
b = 1 case plus one exact sum of the winner's cost.  A threshold between
two values is their midpoint, or the lower one where the midpoint rounds
up or overflows, so a stump always realizes the cut it was scored on.
"""

from __future__ import annotations

import itertools
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
    threshold, then sign +1.  The winner's cost, which ``erm_batch`` skips,
    is summed exactly (``_exact_sum``), so it does not depend on scan order.
    """
    x, cp, cn = (np.asarray(a, float) for a in (feats, cost_pos, cost_neg))
    if x.ndim != 2:
        raise ConfigurationError("feats must be a (n, q) array")
    [h] = erm_batch(x[None], cp[None], cn[None])
    return h, _exact_sum(np.where(h.predict(x) == 1, cp, cn))


def erm_batch(feats: np.ndarray, cost_pos: np.ndarray, cost_neg: np.ndarray
              ) -> list[StumpHypothesis]:
    """``erm``'s stumps for b problems of equal size in one scan.

    feats is (b, n, q), the costs (b, n).  Each coordinate is sorted once for
    all b problems (O(b q n log n)) with numpy's default (SIMD) argsort; a
    row with a tie, +-0.0 included, is sorted again stably, so every row is
    in its unique stable order on any CPU (a tie-free scan does no tie
    work).  cumsum accumulates every row in order, so each problem's prefix
    sums, and hence its stump, are bit-identical to fitting it alone.

    Beyond its inputs a scan holds, per coordinate, the (b, n) sort order,
    sorted values and tie mask, one (b, n) gathered cost row at a time, and
    two (b, n + 1) buffers, prefix and suffix, that price sign +1 and then
    sign -1.  Each sign keeps its first cheapest cut, and the two are
    compared in (cut, sign) order, sign +1 first at a cut.
    """
    x, cp, cn = (np.asarray(a, float) for a in (feats, cost_pos, cost_neg))
    if x.ndim != 3 or x.shape[2] == 0:
        raise ConfigurationError("feats must be a (b, n, q) array with q >= 1")
    b, n, q = x.shape
    if n == 0:
        raise EmptyInputError("erm needs at least one point")
    if cp.shape != (b, n) or cn.shape != (b, n):
        raise ConfigurationError("cost arrays must match the number of points")
    if not (np.isfinite(cp).all() and np.isfinite(cn).all() and np.isfinite(x).all()):
        raise ConfigurationError("erm inputs must be finite")

    rows = np.arange(b)
    row_start = rows[:, None] * n
    # Cut k puts the sorted points [0, k) below the threshold and [k, n)
    # above; prefix and suffix sums of cp and cn price either side.  A
    # sign's costs are summed into suf, so its last column is reset first.
    pre, suf = np.zeros((2, b, n + 1))
    best_cost = np.full(b, np.inf)
    best_j, best_cut = np.zeros((2, b), dtype=int)
    best_sign = np.ones(b, dtype=int)
    best_lo, best_hi = np.zeros((2, b))
    for j in range(q):
        xj = x[:, :, j]
        # order holds flat indices into (b, n) arrays: row r's sorted points
        # are r * n + their positions, one index for xs, cp and cn.
        order = np.argsort(xj, axis=1)
        order += row_start
        xs = xj.take(order)
        tied = xs[:, 1:] <= xs[:, :-1]
        # The order inside a tie group (+-0.0 included) sets the prefix sums'
        # rounding, so rows with a tie sort again stably; others have one order.
        redo = np.flatnonzero(tied.any(axis=1))
        if len(redo):
            order[redo] = np.argsort(xj[redo], axis=1, kind="stable") + row_start[redo]
            xs[redo] = xj.take(order[redo])
        # sign +1: below the cut predicts -1 (pays cn), above predicts +1;
        # each sign's first cheapest cut and its cost.
        scans = []
        for below, above in ((cn, cp), (cp, cn)):
            suf[:, n] = 0.0
            np.cumsum(below.take(order), axis=1, out=pre[:, 1:])
            np.cumsum(above.take(order)[:, ::-1], axis=1, out=suf[:, n - 1::-1])
            np.add(pre, suf, out=suf)
            if len(redo):  # a cut between equal values is not realizable
                suf[:, 1:n][tied] = np.inf
            k = np.argmin(suf, axis=1)
            scans.append((k, suf[rows, k]))
        (k_pos, c_pos), (k_neg, c_neg) = scans
        # np.minimum keeps a NaN cost (an overflowed sum), never better.
        cost_j = np.minimum(c_pos, c_neg)
        better = cost_j < best_cost
        if better.any():
            neg = ((c_neg < c_pos) | ((c_neg == c_pos) & (k_neg < k_pos)))[better]
            cut = np.where(neg, k_neg[better], k_pos[better])
            best_cost[better] = cost_j[better]
            best_j[better] = j
            best_cut[better] = cut
            best_sign[better] = np.where(neg, -1, 1)
            best_lo[better] = xs[better, np.maximum(cut - 1, 0)]
            best_hi[better] = xs[better, np.minimum(cut, n - 1)]

    with np.errstate(over="ignore"):
        mid = 0.5 * (best_lo + best_hi)
    # The midpoint can round up to hi or overflow; lo then still splits.
    thresholds = np.where((best_lo <= mid) & (mid < best_hi), mid, best_lo)
    thresholds[best_cut == 0] = -np.inf
    thresholds[best_cut == n] = np.inf
    return [StumpHypothesis(j, t, s) for j, t, s in zip(
        best_j.tolist(), thresholds.tolist(), best_sign.tolist())]


def _exact_sum(*arrays: np.ndarray) -> float:
    """math.fsum over the terms of every array in turn, bit for bit, without
    a list; the arrays are only read.  With sigma = 2^(M+e), 2^M > n, 2^e >
    max|p|, q = (sigma + p) - sigma and p - q are exact, and so is sum(q) in
    any order (Rump, Ogita & Oishi 2008, SIAM J. Sci. Comput. 31(1)); p - q,
    a copy of the terms after the first round and then updated in place,
    goes round again until it is all zero, then one fsum rounds."""
    ps = [np.asarray(a, float).ravel() for a in arrays]
    parts, m, first = [], sum(map(len, ps)).bit_length(), True
    while mu := float(np.max([max(p.max(), -p.min()) for p in ps if p.size], initial=0.0)):
        if not (math.isfinite(mu) and math.frexp(mu)[1] + m <= 1023):
            # only in the first round, where ps are still the terms
            return math.fsum(itertools.chain.from_iterable(p.tolist() for p in ps))
        sigma = math.ldexp(1.0, math.frexp(mu)[1] + m)
        for i, p in enumerate(ps):
            q = p + sigma
            q -= sigma
            parts.append(float(q.sum()))
            ps[i] = p - q if first else np.subtract(p, q, out=p)
        first = False
    return math.fsum(parts)


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
