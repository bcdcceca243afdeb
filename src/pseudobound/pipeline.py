"""Self-learning loop with good-practice toggles, plus paired ablations.

Each iteration clusters the target pool, pseudo-labels pairs, optionally
filters them offline (density noise points) and online (hinge-loss Tukey
fence against the current stump), trains the alpha-weighted exact ERM, and
re-weights the stump's coordinate before the next clustering pass.  With
synthetic noise the loop skips clustering and reduces, at one iteration and
default toggles, to a single theorem-validation trial bit for bit.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace

import numpy as np

from .bound import (
    BoundInputs,
    BoundReport,
    RiskScorer,
    _oracle_target,
    _rebuild_pairs,
    _trial_pairs,
    assemble_bound,
    oracle_bound_inputs,
)
from .config import (
    FILTER_NONE,
    FROM_CLUSTERING,
    OFFLINE_PLUS_ONLINE,
    ExperimentConfig,
    Toggles,
)
from .discrepancy import align_moments, mmd_squared
from .domains import (
    AffineMap,
    PairSet,
    derive_seed,
    draw_pair_process,
    generate_domain,
    make_rng,
    map_members,
    similarity_from_members,
)
from .errors import EmptyInputError, PipelineError, PseudoboundError
from .noise import NoiseEstimate, NoiseModel, estimate_noise_rates
from .practice import (
    NOISE,
    FilterReport,
    dbscan,
    pseudo_label_from_clusters,
    tukey_fence,
)
from .risk import fit_source_guided, fit_target_corrected
from .serial import Serializable
from .stumps import StumpHypothesis

_MMD_CAP = 256  # pair count per side entering similarity-space MMD logging
_ORACLE_MEMO_SIZE = 256  # oracle estimates kept per process; ablate needs 80
_ORACLE_FIELDS = ("source", "target", "strategy", "risk", "noise", "delta",
                  "m_train", "oracle_pairs", "discrepancy_sample")
_oracle_memo: dict[tuple, BoundInputs] = {}


@dataclass(frozen=True)
class PipelineModel(Serializable):
    """Deployed predictor: optional alignment, optional member
    normalization, then a stump on pair similarity features."""

    stump: StumpHypothesis
    align_map: AffineMap | None
    normalize: bool

    def transform_target_members(self, feats: np.ndarray) -> np.ndarray:
        return map_members(feats, self.align_map, self.normalize)

    def predict_members(self, feats: np.ndarray,
                        member_indices: np.ndarray) -> np.ndarray:
        sim = similarity_from_members(self.transform_target_members(feats),
                                      member_indices)
        return self.stump.predict(sim)


@dataclass
class IterationRecord(Serializable):
    index: int
    hypothesis: StumpHypothesis
    model_used: NoiseModel
    target_oracle_risk: float
    rho_before: NoiseEstimate | None = None
    rho_after: NoiseEstimate | None = None
    filter_report: FilterReport | None = None
    n_target_pairs: int = 0
    n_clusters: int | None = None
    n_noise_points: int | None = None
    mmd_sample_before: float | None = None
    mmd_sample_after: float | None = None
    mmd_sim_before: float | None = None
    mmd_sim_after: float | None = None


@dataclass
class ExperimentResult(Serializable):
    config_fingerprint: str
    iterations: list[IterationRecord]
    final_model: PipelineModel
    final_report: BoundReport
    wall_time: float

    @property
    def final_risk(self) -> float:
        return self.iterations[-1].target_oracle_risk


def _fingerprint(config: ExperimentConfig) -> str:
    return hashlib.sha256(config.to_json().encode()).hexdigest()


def _hinge_losses(stump: StumpHypothesis, pairs: PairSet) -> np.ndarray:
    """max(0, -y_pseudo * s * (x_j - t)): continuous margin violations,
    which keep the fence statistics non-degenerate where 0-M losses are
    two-valued."""
    margin = pairs.pseudo_labels * stump.sign * (
        pairs.similarity[:, stump.coordinate] - stump.threshold)
    return np.maximum(0.0, -margin)


def _train(source_pairs, target_pairs, config: ExperimentConfig,
           model: NoiseModel):
    """Fit the configured stump; with online filtering, drop the pairs whose
    hinge losses against it lie beyond the Tukey fence and refit on the rest.

    Returns (stump, kept pairs, after-filter rate estimate or None,
    FilterReport or None, noise model of the last fit).
    """
    def fit(pairs, model):
        if config.toggles.source_guided:
            return fit_source_guided(source_pairs, pairs, config.risk, model)[0]
        return fit_target_corrected(pairs, config.risk.big_m, model)[0]

    h = fit(target_pairs, model)
    if config.toggles.outlier_filtering != OFFLINE_PLUS_ONLINE:
        return h, target_pairs, None, None, model
    fence, mask = tukey_fence(_hinge_losses(h, target_pairs))
    report = FilterReport(kept=int((~mask).sum()), dropped=int(mask.sum()),
                          fence=fence)
    report.per_epoch_dropped.append(int(mask.sum()))
    if not mask.any():
        return h, target_pairs, None, report, model
    kept = target_pairs.subset(np.flatnonzero(~mask))
    try:
        rho_after = estimate_noise_rates(kept)
    except PseudoboundError:
        rho_after = None
    if config.noise.kind == FROM_CLUSTERING and rho_after is not None \
            and not rho_after.degenerate:
        model = rho_after.as_model()
    return fit(kept, model), kept, rho_after, report, model


def _oracle_key(config: ExperimentConfig, seed: int, align_map, normalize) -> tuple:
    """The config fields oracle_bound_inputs reads, the seed, the member maps."""
    return (tuple(getattr(config, f) for f in _ORACLE_FIELDS), seed, align_map,
            normalize)


def _oracle_side(config: ExperimentConfig, seed: int, align_map, normalize
                 ) -> tuple[BoundInputs, RiskScorer]:
    """``oracle_bound_inputs``, reusing the scalar inputs an earlier run
    with the same key estimated; a hit rebuilds only the target risk scorer,
    which redraws the target oracle pairs (sub-seed 4) only under unit
    normalization.  Beyond its bound the memo drops its oldest entry."""
    key = _oracle_key(config, seed, align_map, normalize)
    if key in _oracle_memo:
        return _oracle_memo[key], _oracle_target(config, seed, align_map,
                                                 normalize)[1]
    inputs, target_risks = oracle_bound_inputs(config, seed, align_map, normalize)
    if len(_oracle_memo) >= _ORACLE_MEMO_SIZE:
        del _oracle_memo[next(iter(_oracle_memo))]
    _oracle_memo[key] = inputs
    return inputs, target_risks


def run_self_learning(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured self-learning loop and measure each iteration.

    Every iteration trains on (source pairs, pseudo-labeled target pairs),
    filters, scores the stump's target risk (exact, or on the target oracle
    pairs where members are unit-normalized) and records it;
    the modes differ in where the pairs come from and in the practice-only
    diagnostics and bound inputs.  Practice mode
    (clustering noise): fixed per-run sample pools; alignment and
    normalization are computed once (their inputs do not change across
    iterations), clustering re-runs every iteration on coordinate-re-weighted
    features.  Synthetic mode: clustering, alignment, and normalization are
    bypassed; pair draws are i.i.d. and only the corruption is redrawn per
    iteration.  The oracle inputs depend only on the seed and the member
    maps, so runs in one process share them (``_oracle_side``): 12 of the 16
    cells of a seed in ``ablate`` hit, 40 % of criterion 11, none in one run.
    """
    started = time.perf_counter()
    seed = config.master_seed
    toggles = config.toggles
    practice = config.noise.kind == FROM_CLUSTERING
    align_map, normalize = None, False
    if practice:
        target_pool = generate_domain(config.target, config.n_target_samples,
                                      derive_seed(seed, 20))
        source_pool = generate_domain(config.source, config.n_source_samples,
                                      derive_seed(seed, 21))
        aligned_pool = target_pool
        mmd_sample = (None, None)
        if toggles.domain_alignment:
            aligned_pool, align_map = align_moments(source_pool, target_pool)
            mmd_sample = (mmd_squared(source_pool.features, target_pool.features),
                          mmd_squared(source_pool.features, aligned_pool.features))
        normalize = toggles.bounded_loss
        sim_pool = target_pool.replace_features(
            map_members(aligned_pool.features, normalize=normalize))
        src_samples, src_raw = draw_pair_process(
            config.source, config.strategy, config.max_target_pairs,
            derive_seed(seed, 22))
        source_pairs = _rebuild_pairs(
            src_raw, map_members(src_samples.features, normalize=normalize))
        weights = np.ones(config.target.feature_dim)
    # The member maps are fixed for the run, so the deployed model's oracle
    # quantities and target risk scorer are too.
    inputs, target_risks = _oracle_side(config, seed, align_map, normalize)

    records = []
    for it in range(config.iterations):
        try:
            if practice:
                cluster_labels = dbscan(aligned_pool.features * weights,
                                        config.dbscan_params)
                target_pairs = _subsample(pseudo_label_from_clusters(
                    sim_pool, cluster_labels,
                    keep_noise_as_singletons=toggles.outlier_filtering == FILTER_NONE,
                ), config, it)
            else:
                source_pairs, target_pairs = next(_trial_pairs(config, 1, seed, it))
            rho_before = estimate_noise_rates(target_pairs)
            model = rho_before.as_model() if practice else config.noise.model
            h, kept, rho_after, filter_report, model = _train(
                source_pairs, target_pairs, config, model)
        except PseudoboundError as err:
            raise PipelineError(
                f"iteration {it} failed: {err}", iteration=it, partial=records
            ) from err
        record = IterationRecord(
            index=it, hypothesis=h, model_used=model,
            target_oracle_risk=target_risks([h])[0],
            rho_before=rho_before, rho_after=rho_after,
            filter_report=filter_report, n_target_pairs=len(kept),
        )
        if practice:
            record.n_clusters = len(set(cluster_labels.tolist()) - {NOISE})
            record.n_noise_points = int(np.count_nonzero(cluster_labels == NOISE))
            record.mmd_sample_before, record.mmd_sample_after = mmd_sample
            _log_similarity_mmd(record, source_pairs, target_pairs, target_pool)
            weights = np.ones(config.target.feature_dim)
            weights[h.coordinate] = config.refine_scale
        records.append(record)

    if practice:
        # The practice bound speaks about the deployed model: oracle
        # quantities in its feature space, m and noise rates from its own
        # training data.
        m = len(kept) + (len(source_pairs) if toggles.source_guided else 0)
        inputs = replace(inputs, m=m, rho_neg=model.rho_neg, rho_pos=model.rho_pos)
    return ExperimentResult(
        config_fingerprint=_fingerprint(config),
        iterations=records,
        final_model=PipelineModel(h, align_map, normalize),
        final_report=assemble_bound(inputs),
        wall_time=time.perf_counter() - started,
    )


def _subsample(pairs: PairSet, config: ExperimentConfig, iteration: int
               ) -> PairSet:
    """At most max_target_pairs of the pseudo-labeled pairs, drawn without
    replacement (sub-seed 23) and kept in their original order."""
    if len(pairs) <= config.max_target_pairs:
        return pairs
    rng = make_rng(config.master_seed, 23, iteration)
    return pairs.subset(np.sort(rng.choice(len(pairs), config.max_target_pairs,
                                           replace=False)))


def _log_similarity_mmd(record, source_pairs, target_pairs, target_pool):
    """MMD^2 between source and target pair similarity features, before
    (raw target features) and after the run's alignment/normalization;
    without member maps the two inputs are equal and the value is reused."""
    cap_s = min(len(source_pairs), _MMD_CAP)
    cap_t = min(len(target_pairs), _MMD_CAP)
    raw_sim = similarity_from_members(target_pool.features,
                                      target_pairs.member_indices[:cap_t])
    try:
        record.mmd_sim_before = mmd_squared(source_pairs.similarity[:cap_s],
                                            raw_sim)
        sim = target_pairs.similarity[:cap_t]
        record.mmd_sim_after = (record.mmd_sim_before if np.array_equal(sim, raw_sim)
                                else mmd_squared(source_pairs.similarity[:cap_s], sim))
    except PseudoboundError:
        pass  # degenerate bandwidth on a collapsed draw; leave unlogged


@dataclass
class AblationCell(Serializable):
    toggles: Toggles
    final_risks: list[float]
    failures: list[dict]
    mean_final_risk: float | None


@dataclass
class AblationTable(Serializable):
    cells: list[AblationCell]
    trial_seeds: list[int]

    def cell(self, toggles: Toggles) -> AblationCell:
        for c in self.cells:
            if c.toggles == toggles:
                return c
        raise KeyError(f"no ablation cell for {toggles}")


def run_ablation(base: ExperimentConfig, toggle_grid) -> AblationTable:
    """Run every toggle combination with shared per-trial master seeds.

    Trial t of every cell reuses the same derived seed, so pools and draws
    are identical across cells and comparisons are paired.  A failing run
    marks its cell instead of aborting the table.
    """
    grid = list(toggle_grid)
    if not grid:
        raise EmptyInputError("toggle grid must be nonempty")
    trial_seeds = [derive_seed(base.master_seed, 30, t)
                   for t in range(base.trials)]
    cells = []
    for toggles in grid:
        finals, failures = [], []
        for t, s in enumerate(trial_seeds):
            cfg = replace(base, toggles=toggles, master_seed=s)
            try:
                finals.append(run_self_learning(cfg).final_risk)
            except PseudoboundError as err:
                failures.append({"trial": t, "error": str(err)})
        mean = float(np.mean(finals)) if finals else None
        cells.append(AblationCell(toggles, finals, failures, mean))
    return AblationTable(cells, trial_seeds)
