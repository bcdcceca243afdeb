"""Class-conditional label noise and the unbiased corrected loss.

Pseudo-labels flip +1 -> -1 with probability rho_pos and -1 -> +1 with
probability rho_neg.  As long as rho_neg + rho_pos < 1 the corrected loss

    Ltilde(y, y') = ((1 - rho_{-y'}) L(y, y') - rho_{y'} L(y, -y'))
                    / (1 - rho_pos - rho_neg)

is unbiased for the clean 0-M loss under the flip distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import PairSet, make_rng
from .errors import (
    DegenerateInputError,
    EmptyInputError,
    InvalidNoiseError,
    UndefinedRateError,
)
from .serial import Serializable


@dataclass(frozen=True)
class NoiseModel(Serializable):
    """Validated pair of class-conditional flip rates."""

    rho_neg: float
    rho_pos: float

    def __post_init__(self):
        for name, r in (("rho_neg", self.rho_neg), ("rho_pos", self.rho_pos)):
            if not (0.0 <= r < 1.0):
                raise InvalidNoiseError(f"{name} must lie in [0, 1), got {r}")
        if not self.rho_neg + self.rho_pos < 1.0:
            raise InvalidNoiseError(
                f"need rho_neg + rho_pos < 1, got {self.rho_neg} + {self.rho_pos}"
            )

    @property
    def denominator(self) -> float:
        return 1.0 - self.rho_pos - self.rho_neg


NO_NOISE = NoiseModel(0.0, 0.0)


def corrupt_labels(pairs: PairSet, model: NoiseModel, rng_seed: int) -> PairSet:
    """Fill pseudo_labels by flipping each true label with its class rate.

    Returns a new PairSet; true labels are untouched.
    """
    if len(pairs) == 0:
        raise EmptyInputError("corrupt_labels needs at least one pair")
    uniforms = make_rng(rng_seed).random(len(pairs))
    return pairs.with_pseudo_labels(_flip_labels(pairs.true_labels, uniforms, model))


def _flip_labels(labels, uniforms, model: NoiseModel) -> np.ndarray:
    """Flip each +-1 label (any shape) whose uniform falls below its class rate."""
    flips = uniforms < np.where(labels == 1, model.rho_pos, model.rho_neg)
    return np.where(flips, -labels, labels)


def zero_m_loss(y, y_other, big_m: float):
    """0-M loss: big_m when the labels disagree, 0 otherwise."""
    out = big_m * (np.asarray(y) != np.asarray(y_other))
    return out if out.ndim else float(out)


def corrected_loss(y_pred, y_pseudo, big_m: float, model: NoiseModel):
    """Unbiased noise-corrected loss of predictions against pseudo-labels."""
    y = np.asarray(y_pred)
    yp = np.asarray(y_pseudo)
    rho_same = np.where(yp == 1, model.rho_pos, model.rho_neg)
    rho_other = np.where(yp == 1, model.rho_neg, model.rho_pos)
    disagree = (y != yp)
    num = (1.0 - rho_other) * (big_m * disagree) - rho_same * (big_m * ~disagree)
    out = num / model.denominator
    return out if out.ndim else float(out)


def corrected_costs(pseudo_labels, big_m: float, model: NoiseModel
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (cost if predicted +1, cost if predicted -1) under the
    corrected loss, each value computed once and picked by the +-1 label,
    for labels of any shape.  Any other label raises DegenerateInputError."""
    labels = np.asarray(pseudo_labels)
    pos = labels == 1
    if not (pos | (labels == -1)).all():
        raise DegenerateInputError("corrected_costs needs +-1 pseudo-labels")
    return tuple(np.where(pos, corrected_loss(y, 1, big_m, model),
                          corrected_loss(y, -1, big_m, model)) for y in (1, -1))


def zero_m_costs(labels, big_m: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair (cost if predicted +1, cost if predicted -1) under 0-M loss."""
    y = np.asarray(labels)
    return (big_m * (y == -1).astype(float), big_m * (y == 1).astype(float))


@dataclass(frozen=True)
class NoiseEstimate(Serializable):
    """Empirical flip rates with a degeneracy marker.

    degenerate is True when rho_neg + rho_pos >= 1; the corrected loss is
    invalid then and as_model() refuses to build a NoiseModel.
    """

    rho_neg: float
    rho_pos: float
    n_neg: int
    n_pos: int

    @property
    def degenerate(self) -> bool:
        return self.rho_neg + self.rho_pos >= 1.0

    def as_model(self) -> NoiseModel:
        if self.degenerate:
            raise InvalidNoiseError(
                f"estimated rates are degenerate: {self.rho_neg} + {self.rho_pos} >= 1"
            )
        return NoiseModel(self.rho_neg, self.rho_pos)

    def to_dict(self) -> dict:
        return {**super().to_dict(), "degenerate": self.degenerate}


def estimate_noise_rates(pairs: PairSet) -> NoiseEstimate:
    """Empirical class-conditional flip rates of pseudo against true labels."""
    if len(pairs) == 0:
        raise EmptyInputError("estimate_noise_rates needs at least one pair")
    if not pairs.has_pseudo:
        raise DegenerateInputError(
            "estimate_noise_rates needs pseudo labels on every pair")
    y = pairs.true_labels
    yp = pairs.pseudo_labels
    n_neg = int((y == -1).sum())
    n_pos = int((y == 1).sum())
    if n_neg == 0 or n_pos == 0:
        raise UndefinedRateError(
            f"both true classes must be represented (n_neg={n_neg}, n_pos={n_pos})"
        )
    rho_neg = float(((y == -1) & (yp == 1)).sum() / n_neg)
    rho_pos = float(((y == 1) & (yp == -1)).sum() / n_pos)
    return NoiseEstimate(rho_neg, rho_pos, n_neg, n_pos)
