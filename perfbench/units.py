"""The benchmark's workloads: inputs derived from one seed, a unit, its checks.

Every workload mirrors a CLI job at ``--seed`` and calls the package only
through attributes of the ``pseudobound`` package looked up at call time, so
a traced run sees the calls.  Unit ``u`` is fully determined by the seed and
``u``; the first ``check_units`` units form the checksum set.

- ``selflearn``: ``ablate`` on ``configs/practice.json`` over the 16-cell
  ``default_toggle_grid()``; unit ``u`` is cell ``u % 16`` of trial
  ``u // 16`` with ``master_seed = derive_seed(seed, 30, trial)``, exactly as
  ``run_ablation`` derives it.
- ``theorem``: ``verify-bound --trials 500 --seed <seed>``; units cycle over
  the clean, noisy and shifted configs.
- ``gap``: ``lemmas --which 2 --seed <seed>`` on ``configs/shifted.json``;
  unit ``u`` checks random stump ``u`` at ``gap_n = 1024`` and
  ``oracle_n = 100 000``.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import pseudobound as pb

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
THEOREM_CONFIGS = ("clean", "noisy", "shifted")
THEOREM_TRIALS = 500
GAP_N = 1024
ORACLE_N = 100_000


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Any]               # seed -> inputs
    run: Callable[[Any, int], Any]            # (inputs, unit id) -> result
    check: Callable[[Any, int, Any], list]    # (inputs, unit id, result) -> problems
    counts: Callable[[Any, list], dict]       # (inputs, results) -> outcome counts
    check_units: int


def _load(name: str) -> pb.ExperimentConfig:
    return pb.ExperimentConfig.load(str(CONFIG_DIR / f"{name}.json"))


def _in_range(x, lo, hi) -> bool:
    return math.isfinite(x) and lo <= x <= hi


def _selflearn_build(seed: int):
    return replace(_load("practice"), master_seed=seed), pb.default_toggle_grid()


def _selflearn_run(inputs, u: int):
    base, grid = inputs
    trial_seed = pb.derive_seed(base.master_seed, 30, u // len(grid))
    cfg = replace(base, toggles=grid[u % len(grid)], master_seed=trial_seed)
    return pb.run_self_learning(cfg)


def _selflearn_check(inputs, u: int, result) -> list:
    big_m = inputs[0].risk.big_m
    problems = []
    if not _in_range(result.final_risk, 0.0, big_m):
        problems.append(f"final_risk {result.final_risk} outside [0, {big_m}]")
    if not math.isfinite(result.final_report.rhs):
        problems.append(f"rhs {result.final_report.rhs} not finite")
    return problems


def _theorem_build(seed: int):
    return [_load(name) for name in THEOREM_CONFIGS], seed


def _theorem_run(inputs, u: int):
    configs, seed = inputs
    return pb.validate_theorem(configs[u % len(configs)], trials=THEOREM_TRIALS,
                               rng_seed=seed)


def _theorem_check(inputs, u: int, result) -> list:
    configs, _ = inputs
    cfg = configs[u % len(configs)]
    big_m = cfg.risk.big_m
    problems = []
    if not result.violation_rate <= cfg.delta:
        problems.append(f"violation_rate {result.violation_rate} > delta {cfg.delta}")
    bad = [r.eps_t_hat for r in result.rows if not _in_range(r.eps_t_hat, 0.0, big_m)]
    if bad:
        problems.append(f"{len(bad)} eps_t_hat outside [0, {big_m}], e.g. {bad[0]}")
    return problems


def _gap_build(seed: int):
    return _load("shifted"), seed


def _gap_run(inputs, u: int):
    cfg, seed = inputs
    h = pb.random_stump(pb.derive_seed(seed, 91, u), cfg.target.feature_dim)
    return pb.check_lemma2(h, cfg.source, cfg.target, cfg.risk.alpha,
                           cfg.risk.big_m, oracle_n=ORACLE_N,
                           rng_seed=pb.derive_seed(seed, 92, u),
                           strategy=cfg.strategy, gap_n=GAP_N)


def _gap_check(inputs, u: int, result) -> list:
    if _in_range(result.h_delta_h, 0.0, 2.0):
        return []
    return [f"h_delta_h {result.h_delta_h} outside [0, 2]"]


def canonical_json(result) -> str:
    """The result's JSON with ``wall_time`` removed, keys sorted, no spaces."""
    d = result.to_dict()
    d.pop("wall_time", None)
    return json.dumps(d, sort_keys=True, separators=(",", ":"))


def checksum(results) -> str:
    """sha256 over the canonical JSON of each result, in unit order."""
    h = hashlib.sha256()
    for result in results:
        h.update(canonical_json(result).encode())
        h.update(b"\n")
    return h.hexdigest()


def _selflearn_counts(inputs, results) -> dict[str, int]:
    """Useful outcomes against attempts, from the iteration records.

    Pairs kept by / offered to the online filter; density-noise points /
    points clustered (the whole target pool, every iteration); similarity
    MMD diagnostics logged / attempted (two per iteration).
    """
    n_points = inputs[0].n_target_samples
    counts = _no_counts(inputs, results)
    for result in results:
        for rec in result.iterations:
            if rec.filter_report is not None:
                counts["pairs_kept"] += rec.filter_report.kept
                counts["pairs_offered"] += (rec.filter_report.kept
                                            + rec.filter_report.dropped)
            counts["noise_points"] += rec.n_noise_points
            counts["clustered_points"] += n_points
            counts["mmd_logged"] += ((rec.mmd_sim_before is not None)
                                     + (rec.mmd_sim_after is not None))
            counts["mmd_attempted"] += 2
    return counts


def _no_counts(inputs, results) -> dict[str, int]:
    return dict.fromkeys(COUNTS, 0)


COUNTS = ("pairs_kept", "pairs_offered", "noise_points", "clustered_points",
          "mmd_logged", "mmd_attempted")

WORKLOADS = {
    w.name: w for w in (
        Workload("selflearn", _selflearn_build, _selflearn_run, _selflearn_check,
                 _selflearn_counts, 16),
        Workload("theorem", _theorem_build, _theorem_run, _theorem_check,
                 _no_counts, 3),
        Workload("gap", _gap_build, _gap_run, _gap_check, _no_counts, 3),
    )
}
