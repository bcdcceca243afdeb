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
    BoundReport,
    _draw_training,
    _rebuild_pairs,
    assemble_bound,
    oracle_bound_inputs,
)
from .config import (
    FILTER_NONE,
    FROM_CLUSTERING,
    OFFLINE_PLUS_ONLINE,
    SYNTHETIC,
    ExperimentConfig,
    Toggles,
)
from .discrepancy import align_moments, mmd_squared
from .domains import (
    SOURCE,
    TARGET,
    AffineMap,
    PairSet,
    SampleSet,
    derive_seed,
    draw_pair_process,
    generate_domain,
    make_rng,
    similarity_from_members,
    unit_normalize,
)
from .errors import EmptyInputError, PipelineError, PseudoboundError
from .noise import NoiseEstimate, NoiseModel, estimate_noise_rates
from .practice import (
    LOGISTIC,
    MAE,
    NOISE,
    FilterReport,
    FilterRule,
    dbscan,
    pseudo_label_from_clusters,
    train_linear,
    tukey_fence,
)
from .risk import fit_source_guided, fit_target_corrected
from .serial import Serializable
from .stumps import StumpHypothesis

__all__ = [
    "PipelineModel",
    "IterationRecord",
    "ExperimentResult",
    "run_self_learning",
    "AblationCell",
    "AblationTable",
    "run_ablation",
]

_MMD_CAP = 256  # pair count per side entering similarity-space MMD logging


@dataclass(frozen=True)
class PipelineModel(Serializable):
    """Deployed predictor: optional alignment, optional member
    normalization, then a stump on pair similarity features."""

    stump: StumpHypothesis
    align_map: AffineMap | None
    normalize: bool

    def transform_target_members(self, feats: np.ndarray) -> np.ndarray:
        out = feats if self.align_map is None else self.align_map.apply(feats)
        return unit_normalize(out) if self.normalize else out

    def transform_source_members(self, feats: np.ndarray) -> np.ndarray:
        return unit_normalize(feats) if self.normalize else feats

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
    linear_probe: dict | None = None

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


def _fit(source_pairs, target_pairs, config: ExperimentConfig, model: NoiseModel):
    if config.toggles.source_guided:
        h, _ = fit_source_guided(source_pairs, target_pairs, config.risk, model)
    else:
        h, _ = fit_target_corrected(target_pairs, config.risk.big_m, model)
    return h


def _online_filter(h0, target_pairs, source_pairs, config, model):
    """Tukey-fence drop on hinge losses against h0, then refit.

    Returns (final stump, kept pairs, after-filter rate estimate or None,
    FilterReport)."""
    losses = _hinge_losses(h0, target_pairs)
    fence, mask = tukey_fence(losses)
    report = FilterReport(kept=int((~mask).sum()), dropped=int(mask.sum()),
                          fence=fence)
    report.per_epoch_dropped.append(int(mask.sum()))
    if not mask.any():
        return h0, target_pairs, None, report
    kept = target_pairs.subset(np.flatnonzero(~mask))
    try:
        rho_after = estimate_noise_rates(kept)
    except PseudoboundError:
        rho_after = None
    retrain_model = model
    if config.noise.kind == FROM_CLUSTERING and rho_after is not None \
            and not rho_after.degenerate:
        retrain_model = rho_after.as_model()
    h1 = _fit(source_pairs, kept, config, retrain_model)
    return h1, kept, rho_after, report


def run_self_learning(config: ExperimentConfig) -> ExperimentResult:
    """Run the configured self-learning loop and measure each iteration.

    Practice mode (clustering noise): fixed per-run sample pools; alignment
    and normalization are computed once (their inputs do not change across
    iterations), clustering re-runs every iteration on coordinate-re-weighted
    features.  Synthetic mode: clustering, alignment, and normalization are
    bypassed; pair draws are i.i.d. and only the corruption is redrawn per
    iteration.
    """
    started = time.perf_counter()
    if config.noise.kind == SYNTHETIC:
        return _run_synthetic(config, started)
    return _run_clustering(config, started)


def _run_synthetic(config: ExperimentConfig, started: float) -> ExperimentResult:
    seed = config.master_seed
    model = config.noise.model
    trial_entropy = derive_seed(seed, 0)
    inputs, oracle_pairs = oracle_bound_inputs(config, seed)
    online = config.toggles.outlier_filtering == OFFLINE_PLUS_ONLINE
    records = []
    h_final = None
    for it in range(config.iterations):
        source_pairs, target_pairs = _draw_training(config, trial_entropy, it)
        h0 = _fit(source_pairs, target_pairs, config, model)
        kept = target_pairs
        rho_after = None
        filter_report = None
        if online:
            h0, kept, rho_after, filter_report = _online_filter(
                h0, target_pairs, source_pairs, config, model)
        eps = config.risk.big_m * h0.misses(
            oracle_pairs.similarity, oracle_pairs.true_labels) / len(oracle_pairs)
        records.append(IterationRecord(
            index=it, hypothesis=h0, model_used=model, target_oracle_risk=eps,
            rho_before=estimate_noise_rates(target_pairs),
            rho_after=rho_after, filter_report=filter_report,
            n_target_pairs=len(kept),
        ))
        h_final = h0
    result_model = PipelineModel(h_final, None, False)
    return ExperimentResult(
        config_fingerprint=_fingerprint(config),
        iterations=records,
        final_model=result_model,
        final_report=assemble_bound(inputs),
        wall_time=time.perf_counter() - started,
    )


def _run_clustering(config: ExperimentConfig, started: float) -> ExperimentResult:
    seed = config.master_seed
    toggles = config.toggles
    target_pool = generate_domain(config.target, config.n_target_samples,
                                  derive_seed(seed, 20), TARGET)
    source_pool = generate_domain(config.source, config.n_source_samples,
                                  derive_seed(seed, 21), SOURCE)

    align_map = None
    mmd_sample_before = mmd_sample_after = None
    aligned_pool = target_pool
    if toggles.domain_alignment:
        aligned_pool, align_map = align_moments(source_pool, target_pool)
        mmd_sample_before = mmd_squared(source_pool.features, target_pool.features)
        mmd_sample_after = mmd_squared(source_pool.features, aligned_pool.features)

    normalize = toggles.bounded_loss
    tgt_sim_feats = (unit_normalize(aligned_pool.features) if normalize
                     else aligned_pool.features)
    sim_pool = SampleSet(tgt_sim_feats, target_pool.identities, TARGET)

    src_samples, src_raw = draw_pair_process(
        config.source, config.strategy, config.max_target_pairs,
        derive_seed(seed, 22))
    src_feats = (unit_normalize(src_samples.features) if normalize
                 else src_samples.features)
    source_pairs = _rebuild_pairs(src_raw, src_feats)

    online = toggles.outlier_filtering == OFFLINE_PLUS_ONLINE
    keep_noise = toggles.outlier_filtering == FILTER_NONE
    weights = np.ones(config.target.feature_dim)
    records = []
    model_final = None
    pipe_model = None
    kept_final = None
    oracle_t = None
    for it in range(config.iterations):
        try:
            cluster_labels = dbscan(aligned_pool.features * weights,
                                    config.dbscan_params)
            pairs_all = pseudo_label_from_clusters(
                sim_pool, cluster_labels, keep_noise_as_singletons=keep_noise)
            if len(pairs_all) > config.max_target_pairs:
                rng = make_rng(seed, 23, it)
                chosen = np.sort(rng.choice(len(pairs_all),
                                            config.max_target_pairs,
                                            replace=False))
                target_pairs = pairs_all.subset(chosen)
            else:
                target_pairs = pairs_all
            rho_before = estimate_noise_rates(target_pairs)
            model = rho_before.as_model()
            h0 = _fit(source_pairs, target_pairs, config, model)
            kept = target_pairs
            rho_after = None
            filter_report = None
            if online:
                h0, kept, rho_after, filter_report = _online_filter(
                    h0, target_pairs, source_pairs, config, model)
        except PseudoboundError as err:
            raise PipelineError(
                f"iteration {it} failed: {err}", iteration=it, partial=records
            ) from err
        model_final = (rho_after.as_model()
                       if rho_after is not None and not rho_after.degenerate
                       else model)
        pipe_model = PipelineModel(h0, align_map, normalize)
        if oracle_t is None:
            # The member maps are fixed for the run, so the deployed model's
            # oracle quantities and target oracle pairs (seed 4) are too.
            inputs, oracle_t = oracle_bound_inputs(config, seed, pipe_model)
        eps = config.risk.big_m * h0.misses(
            oracle_t.similarity, oracle_t.true_labels) / len(oracle_t)
        n_clusters = int(len(set(cluster_labels.tolist()) - {NOISE}))
        record = IterationRecord(
            index=it, hypothesis=h0, model_used=model_final,
            target_oracle_risk=eps, rho_before=rho_before, rho_after=rho_after,
            filter_report=filter_report, n_target_pairs=len(kept),
            n_clusters=n_clusters,
            n_noise_points=int(np.count_nonzero(cluster_labels == NOISE)),
            mmd_sample_before=mmd_sample_before,
            mmd_sample_after=mmd_sample_after,
        )
        _log_similarity_mmd(record, source_pairs, target_pairs,
                            target_pool, sim_pool)
        records.append(record)
        kept_final = kept
        weights = np.ones(config.target.feature_dim)
        weights[h0.coordinate] = config.refine_scale

    # The practice bound speaks about the deployed model: oracle quantities
    # in its feature space, m and noise rates from its own training data.
    m = len(kept_final) + (len(source_pairs) if toggles.source_guided else 0)
    final_report = assemble_bound(replace(
        inputs, m=m, rho_neg=model_final.rho_neg, rho_pos=model_final.rho_pos))
    probe = _linear_probe(config, kept_final) if config.linear_probe else None
    return ExperimentResult(
        config_fingerprint=_fingerprint(config),
        iterations=records,
        final_model=pipe_model,
        final_report=final_report,
        wall_time=time.perf_counter() - started,
        linear_probe=probe,
    )


def _log_similarity_mmd(record, source_pairs, target_pairs, target_pool,
                        sim_pool):
    """MMD^2 between source and target pair similarity features, before
    (raw target features) and after the run's alignment/normalization."""
    cap_s = min(len(source_pairs), _MMD_CAP)
    cap_t = min(len(target_pairs), _MMD_CAP)
    raw_sim = similarity_from_members(target_pool.features,
                                      target_pairs.member_indices[:cap_t])
    try:
        record.mmd_sim_before = mmd_squared(source_pairs.similarity[:cap_s],
                                            raw_sim)
        record.mmd_sim_after = mmd_squared(source_pairs.similarity[:cap_s],
                                           target_pairs.similarity[:cap_t])
    except PseudoboundError:
        pass  # degenerate bandwidth on a collapsed draw; leave unlogged


def _linear_probe(config: ExperimentConfig, pairs: PairSet) -> dict:
    """Gradient-learner pass over the final kept pairs, wired to the same
    toggles: bounded loss swaps logistic for MAE, online filtering adds the
    Tukey rule, weight decay comes straight from the toggles."""
    toggles = config.toggles
    probe_cfg = replace(
        config.linear_probe,
        loss_kind=MAE if toggles.bounded_loss else LOGISTIC,
        l2_penalty=toggles.weight_decay,
    )
    rule = (FilterRule.tukey()
            if toggles.outlier_filtering == OFFLINE_PLUS_ONLINE
            else FilterRule.none())
    model, trace, report = train_linear(pairs, probe_cfg, rule,
                                        rng_seed=derive_seed(config.master_seed, 24))
    return {
        "final_objective": trace[-1],
        "trace_length": len(trace),
        "filter_report": report.to_dict(),
        "weights_norm": float(np.linalg.norm(model.weights)),
    }


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
