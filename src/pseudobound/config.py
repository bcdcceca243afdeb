"""Experiment configuration: domains, toggles, noise mode, and defaults.

The default domain places six identity centers on a sphere in R^4 so that
exactly one pair of centers (the middle two) sits close enough for the
density clusterer to merge at the default radius.  Mirror symmetry keeps
the spread coordinate uncorrelated with the rest, so the moment-matching
alignment recovers the diagonal shift shipped in the shifted/practice
configs to good accuracy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .domains import AffineMap, DomainSpec, PairStrategy
from .errors import ConfigurationError
from .noise import NoiseModel
from .practice import DbscanParams
from .risk import RiskConfig
from .serial import Serializable

OFFLINE = "offline"
OFFLINE_PLUS_ONLINE = "offline_plus_online"
FILTER_NONE = "none"
_FILTER_MODES = (FILTER_NONE, OFFLINE, OFFLINE_PLUS_ONLINE)

SYNTHETIC = "synthetic"
FROM_CLUSTERING = "from_clustering"


@dataclass(frozen=True)
class Toggles(Serializable):
    """Good-practice switches for the self-learning loop."""

    source_guided: bool = True
    domain_alignment: bool = True
    bounded_loss: bool = True
    outlier_filtering: str = OFFLINE_PLUS_ONLINE

    def __post_init__(self):
        if self.outlier_filtering not in _FILTER_MODES:
            raise ConfigurationError(
                f"outlier_filtering must be one of {_FILTER_MODES}, "
                f"got {self.outlier_filtering!r}"
            )

    @staticmethod
    def all_off() -> "Toggles":
        return Toggles(False, False, False, FILTER_NONE)


@dataclass(frozen=True)
class NoiseMode(Serializable):
    """How pseudo-label noise arises.

    SYNTHETIC corrupts true pair labels with the given rates and bypasses
    clustering entirely (controlled bound studies); FROM_CLUSTERING derives
    pseudo-labels and measured rates from the density clusterer.
    """

    kind: str
    model: NoiseModel | None = None

    def __post_init__(self):
        if self.kind not in (SYNTHETIC, FROM_CLUSTERING):
            raise ConfigurationError(f"unknown noise mode {self.kind!r}")
        if self.kind == SYNTHETIC and self.model is None:
            raise ConfigurationError("synthetic noise mode needs explicit rates")
        if self.kind == FROM_CLUSTERING and self.model is not None:
            raise ConfigurationError("from_clustering mode estimates its own rates")

    @staticmethod
    def synthetic(model: NoiseModel) -> "NoiseMode":
        return NoiseMode(SYNTHETIC, model)

    @staticmethod
    def from_clustering() -> "NoiseMode":
        return NoiseMode(FROM_CLUSTERING)


@dataclass(frozen=True)
class ExperimentConfig(Serializable):
    source: DomainSpec
    target: DomainSpec
    strategy: PairStrategy
    risk: RiskConfig
    noise: NoiseMode
    dbscan_params: DbscanParams
    toggles: Toggles
    iterations: int = 5
    trials: int = 20
    master_seed: int = 0
    delta: float = 0.1
    m_train: int = 400
    n_target_samples: int = 120
    n_source_samples: int = 120
    max_target_pairs: int = 600
    # Pairs per domain of the Monte Carlo oracle (eps*_T, lambda, trial
    # scores), used only where members are unit-normalized: elsewhere the
    # oracle is exact and draws nothing.
    oracle_pairs: int = 30_000
    discrepancy_sample: int = 256
    refine_scale: float = 2.0

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ConfigurationError(f"delta must lie in (0, 1), got {self.delta}")
        if self.m_train < 2:
            raise ConfigurationError("m_train must be >= 2")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be nonnegative")
        if self.source.feature_dim != self.target.feature_dim:
            raise ConfigurationError("source and target must share feature_dim")
        if min(self.n_target_samples, self.n_source_samples) < 2:
            raise ConfigurationError("sample pools need at least two points")
        if self.max_target_pairs < 2:
            raise ConfigurationError("max_target_pairs must be >= 2")
        if self.oracle_pairs < 10_000:
            raise ConfigurationError("oracle_pairs must be >= 10000")
        if self.discrepancy_sample < 2:
            raise ConfigurationError("discrepancy_sample must be >= 2")
        if not self.refine_scale > 0:
            raise ConfigurationError("refine_scale must be positive")

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @staticmethod
    def from_json(text: str) -> "ExperimentConfig":
        return ExperimentConfig.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @staticmethod
    def load(path) -> "ExperimentConfig":
        with open(path) as fh:
            return ExperimentConfig.from_json(fh.read())


def default_centers() -> np.ndarray:
    """Six identity centers on the radius-2.5 sphere in R^4.

    The first coordinate spreads the identities on an even grid; each
    identity pair also differs in one other coordinate, except the middle
    two, which differ in the first coordinate only (gap 0.9) and are the
    intended clustering-merge pair.  Mirror symmetry decorrelates the
    first coordinate from the rest of the center scatter.
    """
    xs = np.array([-2.25, -1.35, -0.45, 0.45, 1.35, 2.25])
    rem = np.sqrt(2.5 ** 2 - xs ** 2)
    centers = np.zeros((6, 4))
    centers[:, 0] = xs
    centers[[0, 5], 1] = rem[[0, 5]]
    centers[[1, 4], 2] = rem[[1, 4]]
    centers[[2, 3], 3] = rem[[2, 3]]
    return centers


_SHIFT_SCALE = np.array([1.6, 0.7, 1.25, 0.8])
_SHIFT_OFFSET = np.array([1.6, -1.1, 0.9, 1.3])


def _domain(seed: int, shifted: bool) -> DomainSpec:
    q = 4
    transform = (AffineMap(np.diag(_SHIFT_SCALE), _SHIFT_OFFSET.copy())
                 if shifted else AffineMap.identity(q))
    return DomainSpec(
        num_identities=6,
        feature_dim=q,
        identity_centers=default_centers(),
        within_identity_stddev=0.25,
        domain_transform=transform,
        seed=seed,
    )


def default_experiment_config(kind: str = "practice", master_seed: int = 0
                              ) -> ExperimentConfig:
    """Shipped configurations.

    clean: synthetic zero noise, no shift.  noisy: synthetic rates
    (0.1, 0.2), no shift.  shifted: synthetic rates plus the diagonal domain
    shift.  practice: clustering-derived noise on the shifted domain with
    all good practices on.
    """
    if kind not in ("clean", "noisy", "shifted", "practice"):
        raise ConfigurationError(f"unknown default config kind {kind!r}")
    shifted = kind in ("shifted", "practice")
    if kind == "clean":
        noise = NoiseMode.synthetic(NoiseModel(0.0, 0.0))
    elif kind in ("noisy", "shifted"):
        noise = NoiseMode.synthetic(NoiseModel(0.1, 0.2))
    else:
        noise = NoiseMode.from_clustering()
    return ExperimentConfig(
        source=_domain(seed=11, shifted=False),
        target=_domain(seed=23, shifted=shifted),
        strategy=PairStrategy.balanced(3),
        risk=RiskConfig(big_m=1.0, alpha=0.5, beta=0.5),
        noise=noise,
        dbscan_params=DbscanParams(eps=0.55, min_pts=4),
        toggles=Toggles() if kind == "practice" else Toggles.all_off(),
        iterations=5 if kind == "practice" else 1,
        trials=20,
        master_seed=master_seed,
        delta=0.1,
    )


def default_toggle_grid() -> list:
    """Full 2^4 grid over the binary practices, with outlier_filtering
    binarized to none vs offline-plus-online."""
    grid = []
    for sg in (False, True):
        for da in (False, True):
            for bl in (False, True):
                for of in (False, True):
                    grid.append(Toggles(
                        source_guided=sg,
                        domain_alignment=da,
                        bounded_loss=bl,
                        outlier_filtering=OFFLINE_PLUS_ONLINE if of else FILTER_NONE,
                    ))
    return grid
