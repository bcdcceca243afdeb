"""Decision stumps: the finite-VC hypothesis class and its exact ERM.

A stump (j, t, s) predicts s when x[j] > t and -s otherwise; sign(0) never
arises because the comparison is strictly greater.  ERM takes per-point
(cost if predicted +1, cost if predicted -1) pairs, so the same scan serves
plain, corrected, and alpha-weighted risks.
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

    def flipped(self) -> "StumpHypothesis":
        return StumpHypothesis(self.coordinate, self.threshold, -self.sign)


@dataclass(frozen=True)
class HypothesisClassInfo:
    """Stump class over q coordinates and its VC dimension."""

    feature_dim: int

    def __post_init__(self):
        if self.feature_dim < 1:
            raise ConfigurationError("feature_dim must be >= 1")

    @property
    def vc_dimension(self) -> int:
        q = self.feature_dim
        return 2 if q == 1 else int(math.floor(math.log2(q))) + 2


def _candidate_cuts(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Realizable cut positions of a sorted column and their thresholds.

    Cut k splits the sorted points into [0, k) below and [k, n) above; only
    cuts between distinct values (plus both ends) are realizable by a real
    threshold.  Interior thresholds sit at midpoints, the ends at -inf/+inf.
    """
    n = len(xs)
    interior = np.flatnonzero(xs[1:] > xs[:-1]) + 1
    cuts = np.concatenate(([0], interior, [n]))
    thresholds = np.empty(len(cuts))
    thresholds[0] = -np.inf
    thresholds[-1] = np.inf
    if len(interior):
        thresholds[1:-1] = 0.5 * (xs[interior - 1] + xs[interior])
    return cuts, thresholds


def erm(feats: np.ndarray, cost_pos: np.ndarray, cost_neg: np.ndarray
        ) -> tuple[StumpHypothesis, float]:
    """Exact empirical risk minimization over all stumps.

    Scans each coordinate once over sorted order (O(q n log n)); candidate
    thresholds are midpoints of consecutive distinct values plus +-inf.  Ties
    break toward the smallest coordinate, then the smallest threshold, then
    sign +1.  The winning cost is re-accumulated with exact summation so the
    reported value does not depend on scan order.
    """
    x = np.asarray(feats, float)
    cp = np.asarray(cost_pos, float)
    cn = np.asarray(cost_neg, float)
    if x.ndim != 2:
        raise ConfigurationError("feats must be a (n, q) array")
    n, q = x.shape
    if n == 0:
        raise EmptyInputError("erm needs at least one point")
    if cp.shape != (n,) or cn.shape != (n,):
        raise ConfigurationError("cost arrays must match the number of points")
    if not (np.isfinite(cp).all() and np.isfinite(cn).all() and np.isfinite(x).all()):
        raise ConfigurationError("erm inputs must be finite")

    best_cost = np.inf
    best = None
    for j in range(q):
        order = np.argsort(x[:, j], kind="stable")
        xs = x[order, j]
        cpj = cp[order]
        cnj = cn[order]
        pre_cp = np.concatenate(([0.0], np.cumsum(cpj)))
        pre_cn = np.concatenate(([0.0], np.cumsum(cnj)))
        suf_cp = np.concatenate((np.cumsum(cpj[::-1])[::-1], [0.0]))
        suf_cn = np.concatenate((np.cumsum(cnj[::-1])[::-1], [0.0]))
        cuts, thresholds = _candidate_cuts(xs)
        # sign +1: below the cut predicts -1 (pays cn), above predicts +1.
        cost_plus = pre_cn[cuts] + suf_cp[cuts]
        cost_minus = pre_cp[cuts] + suf_cn[cuts]
        # Flattened in (threshold, sign +1 first) order; argmin returns the
        # first occurrence, which realizes the tie-break.
        stacked = np.stack([cost_plus, cost_minus], axis=1).ravel()
        k = int(np.argmin(stacked))
        if stacked[k] < best_cost:
            best_cost = stacked[k]
            best = StumpHypothesis(j, float(thresholds[k // 2]), 1 if k % 2 == 0 else -1)
    pred = best.predict(x)
    exact = math.fsum(np.where(pred == 1, cp, cn).tolist())
    return best, exact


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
