"""Desk-scale good practices: density clustering for pseudo-labels, outlier
filters, and a small gradient linear learner.

The self-learning loop deploys the exact stump ERM and filters its pairs
with the Tukey fence.  The linear learner stands apart from it: it shows
bounded losses and per-epoch loss filtering with real-valued losses, and
its gradients are checked against finite differences.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .domains import PairSet, SampleSet, make_rng, similarity_from_members
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    EmptyInputError,
    InsufficientDataError,
    NumericError,
    PseudoboundError,
)
from .noise import NoiseEstimate, estimate_noise_rates
from .serial import Serializable

NOISE = -1

LOGISTIC = "logistic"
THRESHOLDED_LOGISTIC = "thresholded_logistic"
MAE = "mae"
_LOSS_KINDS = (LOGISTIC, THRESHOLDED_LOGISTIC, MAE)


@dataclass(frozen=True)
class DbscanParams(Serializable):
    eps: float
    min_pts: int

    def __post_init__(self):
        if not self.eps > 0:
            raise ConfigurationError(f"eps must be positive, got {self.eps}")
        if self.min_pts < 1:
            raise ConfigurationError(f"min_pts must be >= 1, got {self.min_pts}")


def dbscan(points: np.ndarray, params: DbscanParams) -> np.ndarray:
    """Euclidean DBSCAN; returns per-point cluster ids with NOISE = -1.

    Neighborhoods are inclusive (distance <= eps) and count the point
    itself.  Clusters are numbered in scan order of their first core point;
    a border point reachable from several clusters joins the
    earliest-numbered one, so output is deterministic in input order.
    """
    x = np.atleast_2d(np.asarray(points, float))
    n = len(x)
    if n == 0:
        raise EmptyInputError("dbscan needs at least one point")
    diff = x[:, None, :] - x[None, :, :]
    within = np.einsum("ijk,ijk->ij", diff, diff) <= params.eps * params.eps
    core = within.sum(axis=1) >= params.min_pts
    neighbors = [np.flatnonzero(within[i]) for i in range(n)]

    labels = np.full(n, NOISE, dtype=np.int64)
    next_id = 0
    for i in range(n):
        if not core[i] or labels[i] != NOISE:
            continue
        labels[i] = next_id
        queue = deque([i])
        while queue:
            j = queue.popleft()
            for k in neighbors[j]:
                if labels[k] == NOISE:
                    labels[k] = next_id
                    if core[k]:
                        queue.append(k)
        next_id += 1
    return labels


def pseudo_label_from_clusters(samples: SampleSet, cluster_labels: np.ndarray,
                               keep_noise_as_singletons: bool = False) -> PairSet:
    """All pairs among clustered samples, pseudo-labeled by co-membership.

    Points labeled NOISE are discarded (offline outlier filtering) unless
    keep_noise_as_singletons is set, in which case each becomes its own
    cluster.  True labels come from the samples' identities; member_indices
    refer to positions in the original sample set.
    """
    labels = np.asarray(cluster_labels)
    if len(labels) != len(samples):
        raise ConfigurationError("cluster labels must align with samples")
    if keep_noise_as_singletons:
        labels = labels.copy()
        noise_at = np.flatnonzero(labels == NOISE)
        labels[noise_at] = labels.max() + 1 + np.arange(len(noise_at))
        survivors = np.arange(len(samples))
    else:
        survivors = np.flatnonzero(labels != NOISE)
    if len(survivors) == 0:
        raise DegenerateInputError("clustering marked every sample as noise")
    if len(survivors) < 2:
        raise DegenerateInputError("need at least two clustered samples to pair")
    a, b = np.triu_indices(len(survivors), k=1)
    members = np.stack([survivors[a], survivors[b]], axis=1)
    true = np.where(
        samples.identities[members[:, 0]] == samples.identities[members[:, 1]], 1, -1
    )
    pseudo = np.where(labels[members[:, 0]] == labels[members[:, 1]], 1, -1)
    sim = similarity_from_members(samples.features, members)
    return PairSet(sim, true, pseudo_labels=pseudo, member_indices=members)


def tukey_fence(values) -> tuple[float, np.ndarray]:
    """Upper Tukey fence Q3 + 1.5*IQR and the mask of values above it.

    Quartiles use the floor-rank convention: the value at index
    floor(p*(n-1)) of the sorted list, so both quartiles are data points.
    """
    v = np.asarray(values, float)
    if v.ndim != 1:
        raise ConfigurationError("tukey_fence expects a flat list of values")
    if len(v) < 4:
        raise InsufficientDataError(f"tukey_fence needs >= 4 values, got {len(v)}")
    ranks = [(len(v) - 1) // 4, 3 * (len(v) - 1) // 4]
    # Any NaN makes both quartiles NaN, as np.percentile has it.
    q1, q3 = [math.nan] * 2 if np.isnan(v).any() else np.partition(v, ranks)[ranks].tolist()
    fence = q3 + 1.5 * (q3 - q1)
    return fence, v > fence


def filter_top_p(values, p: float) -> np.ndarray:
    """Mask the ceil(p*n) largest values; earliest index survives ties."""
    v = np.asarray(values, float)
    if len(v) == 0:
        raise EmptyInputError("filter_top_p needs at least one value")
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"p must lie in (0, 1), got {p}")
    k = math.ceil(p * len(v))
    # Reversing a stable ascending sort puts later indices first among ties,
    # so those are marked and the earliest stays kept.
    descending = np.argsort(v, kind="stable")[::-1]
    mask = np.zeros(len(v), dtype=bool)
    mask[descending[:k]] = True
    return mask


@dataclass
class FilterReport(Serializable):
    """Outcome of loss-based filtering on one training set."""

    kept: int
    dropped: int
    fence: float | None
    estimated_rho_before: NoiseEstimate | None = None
    estimated_rho_after: NoiseEstimate | None = None
    per_epoch_dropped: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class LinearLearnerConfig(Serializable):
    loss_kind: str = LOGISTIC
    learning_rate: float = 0.1
    epochs: int = 200
    l2_penalty: float = 0.0

    def __post_init__(self):
        if self.loss_kind not in _LOSS_KINDS:
            raise ConfigurationError(f"unknown loss kind {self.loss_kind!r}")
        if not self.learning_rate > 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.l2_penalty < 0:
            raise ConfigurationError("l2_penalty must be nonnegative")


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float

    def decision(self, feats: np.ndarray) -> np.ndarray:
        return np.asarray(feats, float) @ self.weights + self.bias

    def predict(self, feats: np.ndarray) -> np.ndarray:
        return np.where(self.decision(feats) > 0, 1, -1)


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def per_sample_losses(margins: np.ndarray, loss_kind: str) -> np.ndarray:
    """Raw per-sample surrogate losses of margin u = y * (w.x + b).

    THRESHOLDED_LOGISTIC returns the raw logistic values; the clamp is
    applied by the caller once a fence is known.
    """
    u = np.asarray(margins, float)
    if loss_kind == MAE:
        return 1.0 - _sigmoid(u)
    return np.logaddexp(0.0, -u)


def batch_objective_and_grad(feats, labels, weights, bias, cfg: LinearLearnerConfig,
                             include=None, fence=None):
    """Mean surrogate loss + l2 penalty and its exact gradient.

    include masks the samples entering the mean; fence (THRESHOLDED_LOGISTIC
    only) clamps per-sample losses at a fixed value, clamped samples
    contributing zero gradient.  Held fixed, both make the objective a plain
    deterministic function of (weights, bias), which is what the
    finite-difference check differentiates.
    """
    x = np.asarray(feats, float)
    y = np.asarray(labels, float)
    keep = np.ones(len(x), bool) if include is None else np.asarray(include, bool)
    if not keep.any():
        raise DegenerateInputError("filtering removed every sample")
    xk, yk = x[keep], y[keep]
    u = yk * (xk @ weights + bias)
    raw = per_sample_losses(u, cfg.loss_kind)
    if cfg.loss_kind == MAE:
        dl_du = -_sigmoid(u) * _sigmoid(-u)
    else:
        dl_du = -_sigmoid(-u)
    losses = raw
    if cfg.loss_kind == THRESHOLDED_LOGISTIC:
        if fence is None:
            raise ConfigurationError("THRESHOLDED_LOGISTIC needs a fence value")
        clamped = raw > fence
        losses = np.where(clamped, fence, raw)
        dl_du = np.where(clamped, 0.0, dl_du)
    m = len(xk)
    dl_dz = (dl_du * yk) / m
    grad_w = xk.T @ dl_dz + 2.0 * cfg.l2_penalty * weights
    grad_b = float(dl_dz.sum())
    objective = float(losses.mean() + cfg.l2_penalty * (weights @ weights))
    return objective, grad_w, grad_b


def train_linear(pairs: PairSet, cfg: LinearLearnerConfig,
                 tukey_filter: bool = False, rng_seed: int = 0
                 ) -> tuple[LinearModel, list, FilterReport]:
    """Full-batch gradient descent on similarity features.

    Labels are pseudo-labels when present, true labels otherwise.  Each
    epoch recomputes per-sample raw losses; tukey_filter masks the samples
    above that epoch's Tukey fence out of the gradient, and
    THRESHOLDED_LOGISTIC clamps retained losses at the fence either way.
    Returns the model, the per-epoch objective trace, and a FilterReport for
    the final epoch.
    """
    if len(pairs) == 0:
        raise EmptyInputError("train_linear needs at least one pair")
    x = pairs.similarity
    y = (pairs.pseudo_labels if pairs.has_pseudo else pairs.true_labels).astype(float)
    rng = make_rng(rng_seed)
    w = 0.01 * rng.standard_normal(x.shape[1])
    b = 0.0
    trace = []
    report = FilterReport(kept=len(pairs), dropped=0, fence=None)
    fence = None
    include = np.ones(len(pairs), bool)
    needs_fence = cfg.loss_kind == THRESHOLDED_LOGISTIC or tukey_filter
    for epoch in range(cfg.epochs):
        raw = per_sample_losses(y * (x @ w + b), cfg.loss_kind)
        if needs_fence:
            fence, _ = tukey_fence(raw)
        mask = raw > fence if tukey_filter else np.zeros(len(raw), bool)
        include = ~mask
        obj, gw, gb = batch_objective_and_grad(x, y, w, b, cfg, include, fence)
        if not (np.isfinite(obj) and np.isfinite(gw).all() and np.isfinite(gb)):
            err = NumericError(f"training diverged at epoch {epoch}")
            err.trace = trace
            raise err
        trace.append(obj)
        w = w - cfg.learning_rate * gw
        b = b - cfg.learning_rate * gb
        report.kept = int(include.sum())
        report.dropped = int(mask.sum())
        report.fence = fence
        report.per_epoch_dropped.append(int(mask.sum()))
    if pairs.has_pseudo:
        report.estimated_rho_before = estimate_noise_rates(pairs)
        try:
            report.estimated_rho_after = estimate_noise_rates(
                pairs.subset(np.flatnonzero(include)))
        except PseudoboundError:
            # Final retained set lost a true class; fall back to the unfiltered
            # estimate rather than failing the whole fit.
            report.estimated_rho_after = report.estimated_rho_before
    return LinearModel(w, float(b)), trace, report
