"""Empirical and expected verification risks.

Plain risks on true labels, noise-corrected risks on pseudo-labels, the
alpha-mix of the two, and a stump's population risk on a synthetic domain:
exact (a sum of folded-normal tails) or, as its reference, Monte Carlo on
freshly drawn pair oracles.  Empirical means are accumulated exactly
(integer counts or fsum), so identities like "risk of h plus risk of its
flip equals M" survive float arithmetic when the sample count is a power
of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import DomainSpec, PairSet, PairStrategy, draw_pair_process
from .errors import ConfigurationError, DegenerateInputError, EmptyInputError
from .noise import NoiseModel, corrected_costs, zero_m_costs
from .serial import Serializable
from .stumps import StumpHypothesis, erm


@dataclass(frozen=True)
class RiskConfig(Serializable):
    """Loss bound M plus the alpha/beta mixing knobs.

    alpha mixes corrected-target against source risk; beta is the fraction
    of the m training pairs drawn from the target domain.
    """

    big_m: float
    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self):
        if not (self.big_m > 0 and math.isfinite(self.big_m)):
            raise ConfigurationError(
                f"big_m must be positive and finite, got {self.big_m}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 < self.beta < 1.0:
            raise ConfigurationError(f"beta must lie in (0, 1), got {self.beta}")

    def split_m(self, m: int) -> tuple[int, int]:
        """(target count, source count) for a total budget of m pairs."""
        m_target = int(round(self.beta * m))
        m_source = m - m_target
        if m_target < 1 or m_source < 1:
            raise ConfigurationError(f"m={m} leaves an empty split at beta={self.beta}")
        return m_target, m_source


def empirical_risk_true(hypothesis, pairs: PairSet, big_m: float) -> float:
    """Mean 0-M loss against true labels; exact (M * miss count / n)."""
    if len(pairs) == 0:
        raise EmptyInputError("empirical risk needs at least one pair")
    return big_m * hypothesis.misses(pairs.similarity, pairs.true_labels) / len(pairs)


def corrected_empirical_risk_target(hypothesis, pairs: PairSet, big_m: float,
                                    model: NoiseModel) -> float:
    """Mean corrected loss against pseudo-labels; may be negative."""
    if len(pairs) == 0:
        raise EmptyInputError("corrected risk needs at least one pair")
    if not pairs.has_pseudo:
        raise DegenerateInputError("corrected risk needs pseudo labels on every pair")
    pred = hypothesis.predict(pairs.similarity)
    cost_pos, cost_neg = corrected_costs(pairs.pseudo_labels, big_m, model)
    losses = np.where(pred == 1, cost_pos, cost_neg)
    return math.fsum(losses.tolist()) / len(pairs)


def source_guided_risk(hypothesis, source_pairs: PairSet, target_pairs: PairSet,
                       cfg: RiskConfig, model: NoiseModel) -> float:
    """alpha * corrected target risk + (1 - alpha) * source risk."""
    target = corrected_empirical_risk_target(hypothesis, target_pairs, cfg.big_m, model)
    source = empirical_risk_true(hypothesis, source_pairs, cfg.big_m)
    return cfg.alpha * target + (1.0 - cfg.alpha) * source


def empirical_disagreement(h, h_prime, feats: np.ndarray, big_m: float) -> float:
    """Mean 0-M loss between two hypotheses on a shared feature set."""
    x = np.asarray(feats, float)
    if len(x) == 0:
        raise EmptyInputError("empirical_disagreement needs at least one point")
    n_diff = int(np.count_nonzero(h.predict(x) != h_prime.predict(x)))
    return big_m * n_diff / len(x)


def expected_risk(hypothesis, spec: DomainSpec, strategy: PairStrategy,
                  big_m: float, oracle_n: int = 100_000, rng_seed: int = 0
                  ) -> tuple[float, float]:
    """Monte-Carlo target/source expected risk with its standard error.

    Draws oracle_n fresh i.i.d. pairs from the domain's pair process; the
    estimate is exact given the draw (M * miss count / n), the standard
    error is the ddof=1 binomial one.  Deterministic in (spec.seed,
    rng_seed), so two calls with equal arguments agree bit-for-bit.  No
    package path calls it; it stays because ``perfbench/spans.py`` traces it
    by name, sizing each call by ``oracle_n``.
    """
    if oracle_n < 10_000:
        raise ConfigurationError(f"oracle_n must be at least 10000, got {oracle_n}")
    _, pairs = draw_pair_process(spec, strategy, oracle_n, rng_seed)
    misses = hypothesis.misses(pairs.similarity, pairs.true_labels)
    p_hat = misses / oracle_n
    estimate = big_m * misses / oracle_n
    stderr = big_m * math.sqrt(p_hat * (1.0 - p_hat) / (oracle_n - 1))
    return estimate, stderr


def exact_risks(hypotheses, spec: DomainSpec, strategy: PairStrategy,
                big_m: float) -> list[float]:
    """Population 0-M risk of each stump (j, t, s) on the domain's pair process.

    A pair of identities (a, b) has member difference N(A (c_a - c_b),
    2 sigma^2 A A^T), A the transform matrix (its offset cancels), so
    coordinate j is N(mu, 2 sigma^2 sum_k A_jk^2) for any A.  With
    r = sd sqrt(2) and x = |mu|, P(|D_j| > t) is 1 for t < 0 and otherwise
    (erfc((t - x)/r) + erfc((t + x)/r)) / 2; the stump misses on that mass
    when the label is -s, and on the rest, (erfc((x - t)/r) - erfc((x + t)/r))
    / 2, when it is s.  A zero transform row makes D_j the point mass mu,
    scored as 1[|mu| > t].  The (a, b) weights are the strategy's: 1/n^2
    each under ``all``; under ``balanced(k)`` 1/((1+k) n) per (a, a) and
    k/((1+k) n (n-1)) per ordered (a, b), a != b.

    Stumps are grouped by coordinate.  A group takes its miss masses on the
    distinct components of that coordinate's mixture in one pass, spreads
    them over the n^2 weighted terms and sums each stump's terms with fsum.
    ``expected_risk`` is the Monte Carlo reference.
    """
    hyps = list(hypotheses)
    w_pos, w_neg = _pair_weights(spec, strategy)
    n = spec.num_identities
    groups: dict[int, list[int]] = {}
    for i, h in enumerate(hyps):
        _check_coordinate(h.coordinate, spec)
        groups.setdefault(h.coordinate, []).append(i)
    risks = [0.0] * len(hyps)
    for j, idx in groups.items():
        r, mu = _coordinate_mixture(spec, j)
        x_neg, inv = np.unique(mu, return_inverse=True)
        x = np.concatenate(([0.0], x_neg))      # component 0: the (a, a) pairs
        t = np.array([hyps[i].threshold for i in idx])[:, None]
        plus = np.array([hyps[i].sign == 1 for i in idx])[:, None]
        miss = _component_misses(x, t, (np.arange(len(x)) == 0) == plus, r)
        terms = np.concatenate([np.repeat(w_pos * miss[:, :1], n, axis=1),
                                w_neg * miss[:, 1 + inv]], axis=1)
        for i, row in zip(idx, terms.tolist()):
            risks[i] = big_m * math.fsum(row)
    return risks


def min_exact_risk(specs, strategy: PairStrategy, big_m: float) -> float:
    """min over stumps h of the sum over specs of h's ``exact_risks``.

    One spec gives eps*_T; a source and a target give the ideal joint error.
    On coordinate j and t >= 0 the sign +1 risk has slope big_m times
    sum_c v_c f_c(t): f_c is the folded-normal density of component c,
    v_c its weight, positive for (a, a) pairs and negative for distinct
    ones.  The sign -1 risk is M minus it, so both are stationary where the
    slope changes sign.  Its sign changes are bracketed on a grid spaced an
    eighth of a mixture's width r within 8 widths of each of its |means|,
    and bisected.  Those roots and t = +-inf are scored under both signs
    with ``exact_risks``; every t < 0 scores as -inf.  A zero transform row
    makes |D_j| exactly 0, which the stump calls above t for t < 0 and below
    it from 0 up, so there t = 0 is scored too.
    """
    specs = list(specs)
    if not specs:
        raise EmptyInputError("min_exact_risk needs at least one domain")
    dims = [spec.feature_dim for spec in specs]
    if len(set(dims)) > 1:
        raise ConfigurationError(f"min_exact_risk needs one feature_dim, got {dims}")
    candidates = []
    for j in range(specs[0].feature_dim):
        thresholds = [-math.inf, math.inf]
        mixtures = []                           # (|means|, weights, r) with r > 0
        for spec in specs:
            w_pos, w_neg = _pair_weights(spec, strategy)
            r, mu = _coordinate_mixture(spec, j)
            if r == 0.0:        # a zero transform row: |D_j| is exactly 0
                thresholds.append(0.0)
                continue
            mixtures.append((np.append(0.0, mu),
                             np.append(spec.num_identities * w_pos,
                                       np.full(len(mu), -w_neg)), r))
        if mixtures:
            thresholds += _slope_roots(mixtures)
        candidates += [StumpHypothesis(j, t, s) for t in thresholds for s in (1, -1)]
    totals = np.sum([exact_risks(candidates, spec, strategy, big_m)
                     for spec in specs], axis=0)
    return float(totals.min())


def _slope_roots(mixtures) -> list[float]:
    """Where sum_c v_c f_c(t), t >= 0, is zero or changes sign on a grid of
    step r / 8 around each component, bisected to 2^-40 of a step;
    f_c(t) r sqrt(pi) is exp(-((t - x_c) / r)^2) + exp(-((t + x_c) / r)^2)."""
    def slope(t):
        t = t[:, None]
        return sum((np.exp(-((t - x) / r) ** 2) + np.exp(-((t + x) / r) ** 2)) @ v / r
                   for x, v, r in mixtures)

    # Each mixture's lattice of step r/8 within 8 widths of its components
    # (0 among them), so a narrow mixture does not refine the whole axis;
    # points repeated across mixtures bracket nothing.  Deduplicated by hand:
    # np.unique without return_inverse imports numpy.ma, about 1 MB kept.
    lattices = []
    for x, _, r in mixtures:
        k = np.sort((np.floor(8.0 * x / r)[:, None] + np.arange(-64, 66)).ravel())
        lattices.append(r / 8.0 * k[np.append(True, k[1:] > k[:-1])])
    grid = np.sort(np.concatenate(lattices))
    grid = grid[grid >= 0.0]
    sign = np.sign(slope(grid))
    k = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    lo, hi, lo_sign = grid[k], grid[k + 1], sign[k]
    for _ in range(40 if len(k) else 0):
        mid = 0.5 * (lo + hi)
        left = np.sign(slope(mid)) == lo_sign
        lo, hi = np.where(left, mid, lo), np.where(left, hi, mid)
    return [*grid[sign == 0].tolist(), *(0.5 * (lo + hi)).tolist()]


def _check_coordinate(j: int, spec: DomainSpec) -> None:
    if j >= spec.feature_dim:
        raise ConfigurationError(
            f"stump coordinate {j} outside a {spec.feature_dim}-dim domain")


def _pair_weights(spec: DomainSpec, strategy: PairStrategy) -> tuple[float, float]:
    """The strategy's weight of each (a, a) and of each ordered (a, b), a != b."""
    n = spec.num_identities
    if strategy.kind == "balanced":
        if n < 2:
            raise DegenerateInputError("balanced pairs need at least two identities")
        k = strategy.k_neg_per_pos
        return 1.0 / ((1 + k) * n), k / ((1 + k) * n * (n - 1))
    return 1.0 / (n * n), 1.0 / (n * n)


def _coordinate_mixture(spec: DomainSpec, j: int) -> tuple[float, np.ndarray]:
    """(r, |mu| of the n (n - 1) ordered distinct identity pairs) of
    coordinate j: the mixture width and component means of ``exact_risks``."""
    row = spec.domain_transform.matrix[j]
    r = 2.0 * spec.within_identity_stddev * math.sqrt(math.fsum((row * row).tolist()))
    proj = spec.identity_centers @ row
    mu = np.abs(proj[:, None] - proj[None, :])
    return r, mu[~np.eye(len(proj), dtype=bool)]


def _component_misses(x: np.ndarray, t: np.ndarray, match: np.ndarray,
                      r: float) -> np.ndarray:
    """``exact_risks``' miss mass of components with |mean| x (c,) under
    thresholds t (b, 1), where match (b, c) says the label is the sign."""
    indicator = ((x > t) != match).astype(float)
    if r == 0.0:
        return indicator
    erfc = np.frompyfunc(math.erfc, 1, 1)
    lo = erfc(np.where(match, x - t, t - x) / r).astype(float)
    hi = erfc((x + t) / r).astype(float)
    miss = np.where(match, 0.5 * (lo - hi), 0.5 * (lo + hi))
    return np.where(t < 0, indicator, miss)


def fit_plain(pairs: PairSet, big_m: float) -> tuple[StumpHypothesis, float]:
    """Exact ERM on true labels; returns (stump, mean 0-M risk)."""
    if len(pairs) == 0:
        raise EmptyInputError("fit_plain needs at least one pair")
    cost_pos, cost_neg = zero_m_costs(pairs.true_labels, big_m)
    h, total = erm(pairs.similarity, cost_pos, cost_neg)
    return h, total / len(pairs)


def fit_target_corrected(pairs: PairSet, big_m: float, model: NoiseModel
                         ) -> tuple[StumpHypothesis, float]:
    """Exact ERM on the corrected loss; returns (stump, mean corrected risk)."""
    if len(pairs) == 0:
        raise EmptyInputError("fit_target_corrected needs at least one pair")
    if not pairs.has_pseudo:
        raise DegenerateInputError("fit_target_corrected needs pseudo labels")
    cost_pos, cost_neg = corrected_costs(pairs.pseudo_labels, big_m, model)
    h, total = erm(pairs.similarity, cost_pos, cost_neg)
    return h, total / len(pairs)


def fit_source_guided(source_pairs: PairSet, target_pairs: PairSet,
                      cfg: RiskConfig, model: NoiseModel
                      ) -> tuple[StumpHypothesis, float]:
    """Exact ERM on the alpha-weighted objective.

    Per-point costs are scaled by alpha/n_T (corrected, target) and
    (1-alpha)/n_S (plain, source) so the summed ERM objective equals the
    source-guided empirical risk.
    """
    if len(source_pairs) == 0 or len(target_pairs) == 0:
        raise EmptyInputError("fit_source_guided needs pairs from both domains")
    if not target_pairs.has_pseudo:
        raise DegenerateInputError("fit_source_guided needs pseudo labels on target pairs")
    if source_pairs.feature_dim != target_pairs.feature_dim:
        raise ConfigurationError("source and target pairs disagree on feature_dim")
    return erm(*_source_guided_problem(source_pairs.similarity, source_pairs.true_labels,
                                       target_pairs.similarity, target_pairs.pseudo_labels,
                                       cfg, model))


def _source_guided_problem(src_sim, src_labels, tgt_sim, tgt_pseudo,
                           cfg: RiskConfig, model: NoiseModel
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(feats, cost_pos, cost_neg) of the alpha-weighted ERM, target first,
    for any leading batch shape: similarities (..., n, q), labels (..., n)."""
    t_pos, t_neg = corrected_costs(tgt_pseudo, cfg.big_m, model)
    s_pos, s_neg = zero_m_costs(src_labels, cfg.big_m)
    w_t = cfg.alpha / tgt_pseudo.shape[-1]
    w_s = (1.0 - cfg.alpha) / src_labels.shape[-1]
    feats = np.concatenate([tgt_sim, src_sim], axis=-2)
    cost_pos = np.concatenate([w_t * t_pos, w_s * s_pos], axis=-1)
    cost_neg = np.concatenate([w_t * t_neg, w_s * s_neg], axis=-1)
    return feats, cost_pos, cost_neg
