"""Synthetic identity domains and verification pairs.

A domain draws identity-conditioned Gaussian feature vectors and pushes them
through an affine transform.  Verification pairs live in the similarity space
of elementwise absolute differences; the binary label says whether the two
members share an identity.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigurationError, DegenerateInputError, EmptyInputError
from .serial import Serializable

#: integer placeholder meaning "no pseudo-label assigned".
ABSENT = 0


def _entropy(entropy) -> list[int]:
    """The entropy tuple as ints, each checked to be non-negative."""
    ints = [int(e) for e in entropy]
    for e in ints:
        if e < 0:
            raise ConfigurationError(f"seed entropy must be non-negative, got {e}")
    return ints


def make_rng(*entropy) -> np.random.Generator:
    """Deterministic PCG64 stream keyed by a tuple of non-negative ints.

    The scalar reference for ``seed_states(..., 4)`` with ``rngs_from_states``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(_entropy(entropy))))


def derive_seed(*entropy) -> int:
    """Collapse an entropy tuple into one reproducible 64-bit seed.

    The scalar reference for ``seed_states(..., 1)``."""
    return int(np.random.SeedSequence(_entropy(entropy)).generate_state(1, np.uint64)[0])


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def seed_states(columns, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(n_words, np.uint64)`` for a
    batch of entropy tuples, as an (n, n_words) uint64 array.

    ``columns`` lists the tuple's entries: a non-negative int shared by every
    row, or an integer array with one value per row.  As in numpy, an entry
    takes as many 32-bit words as its value needs (one for 0), so rows are
    hashed in groups of equal word widths.  The hash is numpy's pool of 4
    words with no spawn key, in uint32 arithmetic that wraps as numpy's does.
    """
    n = max((len(c) for c in columns if np.ndim(c)), default=1)
    words = []      # per entry: a list of int words, or (low, high) uint32 arrays
    wide = np.zeros(n, np.int64)    # bit k set: array entry k takes two words
    k = 0
    for c in columns:
        if np.ndim(c) == 0:
            [e] = _entropy([c])
            words.append([(e >> s) & _MASK32 for s in range(0, max(e.bit_length(), 1), 32)])
            continue
        a = np.asarray(c)
        if a.dtype.kind not in "iu" or a.shape != (n,):
            raise ConfigurationError("entropy columns must be integer arrays of one length")
        if a.dtype.kind == "i" and n and a.min() < 0:
            raise ConfigurationError(f"seed entropy must be non-negative, got {a.min()}")
        a = a.astype(np.uint64)
        hi = (a >> np.uint64(32)).astype(np.uint32)
        wide |= (hi != 0).astype(np.int64) << k
        k += 1
        words.append(((a & np.uint64(_MASK32)).astype(np.uint32), hi))
    out = np.empty((n, n_words), np.uint64)
    for key in np.flatnonzero(np.bincount(wide)).tolist():
        rows = np.flatnonzero(wide == key)
        flat, k = [], 0
        for w in words:
            if isinstance(w, list):
                flat += [np.full(len(rows), x, np.uint32) for x in w]
                continue
            flat += [w[0][rows], w[1][rows]] if key >> k & 1 else [w[0][rows]]
            k += 1
        out[rows] = _generate_state(_mix_entropy(flat), n_words)
    return out


def _mix_entropy(words: list) -> list:
    """SeedSequence.mix_entropy over (g,) uint32 word columns: the pool."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * _MULT_A & _MASK32
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> np.uint32(16))

    zero = np.zeros_like(words[0])
    pool = [hashmix(words[i] if i < len(words) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(w))
    return pool


def _generate_state(pool: list, n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words, np.uint64) of a (g,) word pool:
    32-bit words in cycle over the pool, paired little-endian."""
    h = _INIT_B
    halves = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ np.uint32(h)
        h = h * _MULT_B & _MASK32
        value = value * np.uint32(h)
        halves.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(halves[::2], halves[1::2])],
                    axis=1)


class _PresetSeed:
    """A seed sequence whose state ``seed_states`` computed beforehand."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def rngs_from_states(states: np.ndarray) -> list[np.random.Generator]:
    """``make_rng(*entropy)`` for each row of ``seed_states([*entropy], 4)``:
    PCG64 asks its seed sequence for exactly those four uint64 words."""
    # Registered here, not at import: numpy loads numpy.random on first use,
    # and loading it at import raised the theorem benchmark's peak RSS by
    # about 0.75 MB (of 52.7 MB).
    np.random.bit_generator.ISeedSequence.register(_PresetSeed)
    return [np.random.Generator(np.random.PCG64(_PresetSeed(s))) for s in states]


def _frozen(a) -> np.ndarray:
    """A read-only float copy of an array, which its owner's key can trust."""
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


class _FieldKey:
    """Equality and hash of a frozen dataclass by one key: every field in
    order, an array as its shape and bytes (+ 0.0 turns -0.0 into +0.0, as
    == does)."""

    def _key(self) -> tuple:
        return tuple((v.shape, (v + 0.0).tobytes()) if isinstance(v, np.ndarray) else v
                     for v in (getattr(self, f.name) for f in fields(self)))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True, eq=False)
class AffineMap(_FieldKey, Serializable):
    """x -> matrix @ x + offset, applied row-wise to (n, q) arrays."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _frozen(self.matrix))
        object.__setattr__(self, "offset", _frozen(self.offset))

    def apply(self, feats: np.ndarray) -> np.ndarray:
        out = np.asarray(feats, dtype=float) @ self.matrix.T
        out += self.offset
        return out

    def is_identity(self) -> bool:  # == AffineMap.identity(q), without building it
        return (np.array_equal(self.matrix, np.eye(len(self.matrix)))
                and np.array_equal(self.offset, np.zeros(len(self.matrix))))

    @staticmethod
    def identity(dim: int) -> "AffineMap":
        return AffineMap(np.eye(dim), np.zeros(dim))


@dataclass(frozen=True, eq=False)
class DomainSpec(_FieldKey, Serializable):
    """Full generative description of one domain, validated on construction;
    its arrays are read-only copies, so it cannot change afterwards.

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
        object.__setattr__(self, "identity_centers", _frozen(self.identity_centers))
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
        if not (self.within_identity_stddev > 0
                and np.isfinite(self.within_identity_stddev)):
            raise ConfigurationError(
                f"within_identity_stddev must be positive and finite, "
                f"got {self.within_identity_stddev}")
        q = self.feature_dim
        if self.domain_transform.matrix.shape != (q, q):
            raise ConfigurationError("domain_transform matrix must be square of side q")
        if self.domain_transform.offset.shape != (q,):
            raise ConfigurationError("domain_transform offset must have length q")
        if not (np.isfinite(self.domain_transform.matrix).all()
                and np.isfinite(self.domain_transform.offset).all()):
            raise ConfigurationError("domain_transform must be finite")
        if int(self.seed) < 0:
            raise ConfigurationError("seed must be a non-negative integer")


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
        if self.kind == "all" and self.k_neg_per_pos != PairStrategy.k_neg_per_pos:
            raise ConfigurationError("an 'all' pair strategy takes no k_neg_per_pos")

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
    stay ABSENT until labels are assigned.  Without ``member_indices`` every
    row reads (0, 0) from one shared, read-only zero row.
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
            member_indices = np.broadcast_to(np.zeros(2, dtype=np.int64), (n, 2))
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
    sim = np.take(feats, idx[:, 0], axis=0)
    sim -= np.take(feats, idx[:, 1], axis=0)
    return np.abs(sim, out=sim)


def _raw_pair_draws(spec: DomainSpec, strategy: PairStrategy, n_pairs: int,
                    rngs) -> tuple[np.ndarray, np.ndarray]:
    """Identities (b, n_pairs, 2) and normals (b, n_pairs, 2, q) of b pair
    streams; stream i makes on rngs[i] the calls a lone draw makes on
    ``make_rng(spec.seed, rng_seed, 1)``."""
    if n_pairs < 1:
        raise EmptyInputError("draw_pair_process needs n_pairs >= 1")
    n_id, balanced = spec.num_identities, strategy.kind == "balanced"
    if balanced and n_id < 2:
        raise DegenerateInputError("balanced pairs need at least two identities")
    ids = np.empty((len(rngs), n_pairs, 2), np.int64)
    noise = np.empty((len(rngs), n_pairs, 2, spec.feature_dim))
    uniforms = np.empty((len(rngs), n_pairs) if balanced else 0)
    for i, rng in enumerate(rngs):
        if balanced:
            rng.random(out=uniforms[i])
        ids[i, :, 0] = rng.integers(0, n_id, size=n_pairs)
        ids[i, :, 1] = rng.integers(int(balanced), n_id, size=n_pairs)
        rng.standard_normal(out=noise[i])
    if balanced:  # a positive repeats the first identity, a negative offsets it
        first, positive = ids[..., 0], uniforms < 1.0 / (1 + strategy.k_neg_per_pos)
        ids[..., 1] = np.where(positive, first, (first + ids[..., 1]) % n_id)
    return ids, noise


def _member_differences(feats: np.ndarray) -> np.ndarray:
    """(..., q) |a - b| of (..., 2, q) members, one coordinate per subtract."""
    sim = np.empty(feats.shape[:-2] + feats.shape[-1:])
    for k in range(feats.shape[-1]):
        np.subtract(feats[..., 0, k], feats[..., 1, k], out=sim[..., k])
    return np.abs(sim, out=sim)


def _pairs_from_draws(spec: DomainSpec, ids: np.ndarray, noise: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features (..., n, 2, q), similarities (..., n, q) and int8 +-1 labels
    from raw draws, any leading shape, each built in place in one array (the
    features first in ``noise``'s, which this consumes).  An identity
    transform is skipped: it could only turn -0.0 into +0.0, as abs does."""
    noise *= spec.within_identity_stddev
    feats = np.add(noise, np.take(spec.identity_centers, ids, axis=0), out=noise)
    amap = spec.domain_transform
    if not amap.is_identity():
        feats = amap.apply(feats.reshape(-1, spec.feature_dim)).reshape(feats.shape)
    sim = _member_differences(feats)
    labels = (ids[..., 0] == ids[..., 1]).view(np.int8)   # 1 or 0, then 1 or -1
    labels += labels - 1
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
    ids, noise = _raw_pair_draws(spec, strategy, n_pairs,
                                 [make_rng(spec.seed, rng_seed, 1)])
    feats, sim, labels = _pairs_from_draws(spec, ids[0], noise[0])
    member = np.arange(2 * n_pairs, dtype=np.int64).reshape(-1, 2)
    return (SampleSet(feats.reshape(-1, spec.feature_dim), ids[0].reshape(-1)),
            PairSet(sim, labels, member_indices=member))


def unit_normalize(features: np.ndarray) -> np.ndarray:
    """Project member feature vectors onto the unit sphere in place (rows of
    zero norm are left untouched): a float array is divided and returned."""
    feats = np.asarray(features, float)
    feats /= np.maximum(np.linalg.norm(feats, axis=-1, keepdims=True), 1e-12)
    return feats


def map_members(features: np.ndarray, align_map: AffineMap | None = None,
                normalize: bool = False) -> np.ndarray:
    """Member features as a deployed model sees them: the target alignment
    map, if any, then unit normalization, if asked.  Source members take no
    alignment map.  features is never written; a mapped result is new."""
    out = features if align_map is None else align_map.apply(features)
    return unit_normalize(np.array(out, float) if out is features else out) if normalize else out
