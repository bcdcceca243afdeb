"""Synthetic identity domains and verification pairs.

A domain draws identity-conditioned Gaussian feature vectors and pushes them
through an affine transform.  Verification pairs live in the similarity space
of elementwise absolute differences; the binary label says whether the two
members share an identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, EmptyInputError
from .serial import Serializable

#: integer placeholder meaning "no pseudo-label assigned".
ABSENT = 0


def make_rng(*entropy) -> np.random.Generator:
    """Deterministic PCG64 stream keyed by a tuple of non-negative ints."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([int(e) for e in entropy]))
    )


def derive_seed(*entropy) -> int:
    """Collapse an entropy tuple into one reproducible 64-bit seed."""
    return int(
        np.random.SeedSequence([int(e) for e in entropy]).generate_state(1, np.uint64)[0]
    )


@dataclass(frozen=True, eq=False)
class AffineMap(Serializable):
    """x -> matrix @ x + offset, applied row-wise to (n, q) arrays."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "offset", np.asarray(self.offset, dtype=float))

    def apply(self, feats: np.ndarray) -> np.ndarray:
        return np.asarray(feats, dtype=float) @ self.matrix.T + self.offset

    def is_identity(self) -> bool:
        q = self.matrix.shape[0]
        return bool(
            np.array_equal(self.matrix, np.eye(q)) and not self.offset.any()
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffineMap):
            return NotImplemented
        return (np.array_equal(self.matrix, other.matrix)
                and np.array_equal(self.offset, other.offset))

    def __hash__(self):
        return hash((self.matrix.tobytes(), self.offset.tobytes()))

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        return AffineMap(np.eye(dim), np.zeros(dim))


@dataclass(frozen=True, eq=False)
class DomainSpec(Serializable):
    """Full generative description of one domain.

    ``seed`` is the domain's own entropy; every sampling routine mixes it with
    the caller's ``rng_seed`` so that identical (spec, n, rng_seed) triples
    reproduce bit-identical draws.
    """

    num_identities: int
    feature_dim: int
    identity_centers: np.ndarray
    within_identity_stddev: float
    domain_transform: AffineMap
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "identity_centers", np.asarray(self.identity_centers, dtype=float)
        )
        self.validate()

    def validate(self) -> None:
        if self.num_identities < 1:
            raise ConfigurationError("num_identities must be >= 1")
        if self.feature_dim < 1:
            raise ConfigurationError("feature_dim must be >= 1")
        if self.identity_centers.shape != (self.num_identities, self.feature_dim):
            raise ConfigurationError(
                f"identity_centers must have shape "
                f"({self.num_identities}, {self.feature_dim}), "
                f"got {self.identity_centers.shape}"
            )
        if not np.isfinite(self.identity_centers).all():
            raise ConfigurationError("identity_centers must be finite")
        if not self.within_identity_stddev > 0:
            raise ConfigurationError("within_identity_stddev must be > 0")
        q = self.feature_dim
        if self.domain_transform.matrix.shape != (q, q):
            raise ConfigurationError("domain_transform matrix must be square of side q")
        if self.domain_transform.offset.shape != (q,):
            raise ConfigurationError("domain_transform offset must have length q")
        if int(self.seed) < 0:
            raise ConfigurationError("seed must be a non-negative integer")

    def __eq__(self, other) -> bool:
        if not isinstance(other, DomainSpec):
            return NotImplemented
        return (
            self.num_identities == other.num_identities
            and self.feature_dim == other.feature_dim
            and np.array_equal(self.identity_centers, other.identity_centers)
            and self.within_identity_stddev == other.within_identity_stddev
            and self.domain_transform == other.domain_transform
            and self.seed == other.seed
        )

    def __hash__(self):
        return hash((self.num_identities, self.feature_dim,
                     self.identity_centers.tobytes(),
                     self.within_identity_stddev, self.domain_transform,
                     self.seed))


class SampleSet:
    """Column-oriented batch of identity samples."""

    def __init__(self, features, identities):
        self.features = np.asarray(features, dtype=float)
        self.identities = np.asarray(identities, dtype=np.int64)
        if self.features.ndim != 2:
            raise ConfigurationError("features must be a (n, q) array")
        if len(self.features) != len(self.identities):
            raise ConfigurationError("features and identities disagree on length")

    def __len__(self) -> int:
        return len(self.features)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def replace_features(self, feats: np.ndarray) -> "SampleSet":
        return SampleSet(feats, self.identities)


@dataclass(frozen=True)
class PairStrategy(Serializable):
    """Which identity pairs the pair process draws.

    ``all``       both identities uniform and independent.
    ``balanced``  positive with probability 1/(1 + k_neg_per_pos); negatives
                  draw two distinct uniform identities.
    """

    kind: str
    k_neg_per_pos: int = 3

    def __post_init__(self):
        if self.kind not in ("all", "balanced"):
            raise ConfigurationError(f"unknown pair strategy {self.kind!r}")
        if self.kind == "balanced" and self.k_neg_per_pos < 1:
            raise ConfigurationError("k_neg_per_pos must be >= 1")

    @staticmethod
    def all_pairs() -> "PairStrategy":
        return PairStrategy("all")

    @staticmethod
    def balanced(k_neg_per_pos: int = 3) -> "PairStrategy":
        return PairStrategy("balanced", k_neg_per_pos)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "balanced":
            d["k_neg_per_pos"] = self.k_neg_per_pos
        return d



class PairSet:
    """Column-oriented batch of verification pairs.

    ``true_labels`` are +-1; ``pseudo_labels`` are +-1 or ABSENT (0), and
    stay ABSENT until labels are assigned.
    """

    def __init__(self, similarity, true_labels, pseudo_labels=None, member_indices=None):
        self.similarity = np.asarray(similarity, dtype=float)
        true_labels = np.asarray(true_labels)
        if not ((true_labels == 1) | (true_labels == -1)).all():
            raise ConfigurationError("true_labels must be +1 or -1")
        self.true_labels = true_labels.astype(np.int8, copy=False)
        n = len(self.similarity)
        if pseudo_labels is None:
            pseudo_labels = np.full(n, ABSENT, dtype=np.int8)
        pseudo_labels = np.asarray(pseudo_labels)
        if not ((pseudo_labels == 1) | (pseudo_labels == -1)
                | (pseudo_labels == ABSENT)).all():
            raise ConfigurationError("pseudo_labels must be +1, -1 or ABSENT")
        self.pseudo_labels = pseudo_labels.astype(np.int8, copy=False)
        if member_indices is None:
            member_indices = np.zeros((n, 2), dtype=np.int64)
        self.member_indices = np.asarray(member_indices, dtype=np.int64)
        if self.similarity.ndim != 2:
            raise ConfigurationError("similarity must be a (n, q) array")
        if not (len(self.true_labels) == n and len(self.pseudo_labels) == n
                and len(self.member_indices) == n):
            raise ConfigurationError("pair columns disagree on length")

    def __len__(self) -> int:
        return len(self.similarity)

    @property
    def feature_dim(self) -> int:
        return self.similarity.shape[1]

    @property
    def has_pseudo(self) -> bool:
        return bool(len(self)) and bool((self.pseudo_labels != ABSENT).all())

    def with_pseudo_labels(self, pseudo) -> "PairSet":
        return PairSet(self.similarity, self.true_labels, pseudo, self.member_indices)

    def subset(self, index) -> "PairSet":
        return PairSet(
            self.similarity[index],
            self.true_labels[index],
            self.pseudo_labels[index],
            self.member_indices[index],
        )


def generate_domain(spec: DomainSpec, n: int, rng_seed: int) -> SampleSet:
    """Draw n samples: identity uniform, features center + isotropic noise,
    then the domain transform."""
    spec.validate()
    if n < 1:
        raise EmptyInputError("generate_domain needs n >= 1")
    rng = make_rng(spec.seed, rng_seed)
    ids = rng.integers(0, spec.num_identities, size=n)
    feats = spec.identity_centers[ids] + spec.within_identity_stddev * rng.standard_normal(
        (n, spec.feature_dim)
    )
    return SampleSet(spec.domain_transform.apply(feats), ids)


def similarity_from_members(features: np.ndarray, member_indices: np.ndarray) -> np.ndarray:
    """Elementwise |a - b| for each (a, b) row of member_indices."""
    feats = np.asarray(features, float)
    idx = np.asarray(member_indices, np.int64)
    return np.abs(feats[idx[:, 0]] - feats[idx[:, 1]])


def _raw_pair_draws(spec: DomainSpec, strategy: PairStrategy, n_pairs: int,
                    rng_seeds) -> tuple[np.ndarray, np.ndarray]:
    """Identities (b, n_pairs, 2) and normals (b, n_pairs, 2, q) of b pair
    streams; stream i makes the calls a lone draw with rng_seeds[i] makes."""
    spec.validate()
    if n_pairs < 1:
        raise EmptyInputError("draw_pair_process needs n_pairs >= 1")
    n_id = spec.num_identities
    if strategy.kind == "balanced" and n_id < 2:
        raise DegenerateInputError("balanced pairs need at least two identities")
    ids = np.empty((len(rng_seeds), n_pairs, 2), np.int64)
    noise = np.empty((len(rng_seeds), n_pairs, 2, spec.feature_dim))
    for i, seed in enumerate(rng_seeds):
        rng = make_rng(spec.seed, seed, 1)
        if strategy.kind == "all":
            ids[i, :, 0] = rng.integers(0, n_id, size=n_pairs)
            ids[i, :, 1] = rng.integers(0, n_id, size=n_pairs)
        else:
            positive = rng.random(n_pairs) < 1.0 / (1 + strategy.k_neg_per_pos)
            ids[i, :, 0] = ids_a = rng.integers(0, n_id, size=n_pairs)
            offset = rng.integers(1, n_id, size=n_pairs)
            ids[i, :, 1] = np.where(positive, ids_a, (ids_a + offset) % n_id)
        rng.standard_normal(out=noise[i])
    return ids, noise


def _pairs_from_draws(spec: DomainSpec, ids: np.ndarray, noise: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features (..., n, 2, q), similarities (..., n, q) and +-1 labels from
    raw draws, any leading shape.  Consumes ``noise``: the features are built
    in its buffer (scaled, then offset by the centers: the bits of
    centers + scale * noise).  An identity transform is skipped: it could
    only turn -0.0 into +0.0, which ``abs`` removes."""
    noise *= spec.within_identity_stddev
    feats = np.add(noise, spec.identity_centers[ids], out=noise)
    amap = spec.domain_transform
    if not amap.is_identity():
        feats = amap.apply(feats.reshape(-1, spec.feature_dim)).reshape(feats.shape)
    sim = np.abs(feats[..., 0, :] - feats[..., 1, :])
    labels = np.where(ids[..., 0] == ids[..., 1], 1, -1).astype(np.int8)
    return feats, sim, labels


def draw_pair_process(spec: DomainSpec, strategy: PairStrategy, n_pairs: int,
                      rng_seed: int) -> tuple[SampleSet, PairSet]:
    """Draw n_pairs independent pairs whose marginals match the strategy.

    Each pair gets two fresh member samples, so pairs are i.i.d. draws from
    the strategy-induced pair distribution: under ``all`` both identities are
    uniform and independent; under ``balanced`` the pair is positive with
    probability 1/(1 + k_neg_per_pos), negatives draw two distinct uniform
    identities.  It is the b = 1 case of the block sampler behind the bound
    trials (``_raw_pair_draws``, then ``_pairs_from_draws``).
    """
    ids, noise = _raw_pair_draws(spec, strategy, n_pairs, [rng_seed])
    feats, sim, labels = _pairs_from_draws(spec, ids[0], noise[0])
    member = np.arange(2 * n_pairs, dtype=np.int64).reshape(-1, 2)
    return (SampleSet(feats.reshape(-1, spec.feature_dim), ids[0].reshape(-1)),
            PairSet(sim, labels, member_indices=member))


def unit_normalize(features: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Project member feature vectors onto the unit sphere (rows of zero norm
    are left untouched)."""
    feats = np.asarray(features, float)
    norms = np.linalg.norm(feats, axis=-1, keepdims=True)
    return feats / np.maximum(norms, eps)


def map_members(features: np.ndarray, align_map: AffineMap | None = None,
                normalize: bool = False) -> np.ndarray:
    """Member features as a deployed model sees them: the target alignment
    map, if any, then unit normalization, if asked.  Source members take no
    alignment map."""
    out = features if align_map is None else align_map.apply(features)
    return unit_normalize(out) if normalize else out
