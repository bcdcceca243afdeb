import dataclasses
import json

import numpy as np
import pytest

import pseudobound as pb


def small_spec(sigma=0.25, seed=7, transform=None):
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    return pb.DomainSpec(
        num_identities=3,
        feature_dim=2,
        identity_centers=centers,
        within_identity_stddev=sigma,
        domain_transform=transform or pb.AffineMap.identity(2),
        seed=seed,
    )


def test_generate_domain_deterministic():
    spec = small_spec()
    a = pb.generate_domain(spec, 50, 3)
    b = pb.generate_domain(spec, 50, 3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.identities, b.identities)
    c = pb.generate_domain(spec, 50, 4)
    assert not np.array_equal(a.features, c.features)


def test_generate_domain_tiny_stddev_collapses_to_centers():
    spec = small_spec(sigma=1e-9)
    samples = pb.generate_domain(spec, 40, 0)
    centers = spec.identity_centers[samples.identities]
    assert np.abs(samples.features - centers).max() < 1e-6


def test_generate_domain_identity_counts_multinomial_band():
    # 3 identities, n=300: each count within 3 sigma of 100,
    # sigma = sqrt(300 * (1/3) * (2/3)) ~ 8.165.
    spec = small_spec(seed=11)
    samples = pb.generate_domain(spec, 300, 5)
    counts = np.bincount(samples.identities, minlength=3)
    assert counts.sum() == 300
    assert np.all(np.abs(counts - 100) <= 3 * np.sqrt(300 * (1 / 3) * (2 / 3)))


def test_generate_domain_applies_transform():
    amap = pb.AffineMap(np.diag([2.0, 0.5]), np.array([1.0, -1.0]))
    plain = pb.generate_domain(small_spec(), 30, 9)
    moved = pb.generate_domain(small_spec(transform=amap), 30, 9)
    assert np.allclose(moved.features, amap.apply(plain.features))


def test_similarity_from_members_is_absolute_difference():
    feats = np.array([[1.0, -2.0], [4.0, 1.0], [0.0, 0.0]])
    members = np.array([[0, 1], [1, 2]])
    sim = pb.similarity_from_members(feats, members)
    assert np.array_equal(sim, np.array([[3.0, 3.0], [4.0, 1.0]]))


def test_draw_pair_process_contract():
    spec = small_spec()
    strat = pb.PairStrategy.balanced(3)
    samples, pairs = pb.draw_pair_process(spec, strat, 200, 13)
    assert len(pairs) == 200
    assert len(samples) == 400
    assert np.array_equal(pairs.member_indices,
                          np.arange(400).reshape(-1, 2))
    expected = np.abs(samples.features[0::2] - samples.features[1::2])
    assert np.array_equal(pairs.similarity, expected)
    assert not pairs.has_pseudo
    again = pb.draw_pair_process(spec, strat, 200, 13)[1]
    assert np.array_equal(pairs.similarity, again.similarity)
    assert np.array_equal(pairs.true_labels, again.true_labels)


def _draw_pair_process_reference(spec, strategy, n_pairs, rng_seed):
    """The sampler as first written: one stream, the domain transform applied
    to every draw, similarities through member indices."""
    rng = pb.make_rng(spec.seed, rng_seed, 1)
    n_id = spec.num_identities
    if strategy.kind == "all":
        ids_a = rng.integers(0, n_id, size=n_pairs)
        ids_b = rng.integers(0, n_id, size=n_pairs)
    else:
        positive = rng.random(n_pairs) < 1.0 / (1 + strategy.k_neg_per_pos)
        ids_a = rng.integers(0, n_id, size=n_pairs)
        offset = rng.integers(1, n_id, size=n_pairs)
        ids_b = np.where(positive, ids_a, (ids_a + offset) % n_id)
    ids = np.empty(2 * n_pairs, np.int64)
    ids[0::2], ids[1::2] = ids_a, ids_b
    feats = spec.identity_centers[ids] + spec.within_identity_stddev * rng.standard_normal(
        (2 * n_pairs, spec.feature_dim))
    feats = spec.domain_transform.apply(feats)
    member = np.arange(2 * n_pairs).reshape(-1, 2)
    return feats, pb.similarity_from_members(feats, member), np.where(ids_a == ids_b, 1, -1)


@pytest.mark.parametrize("kind", ["clean", "shifted"])
@pytest.mark.parametrize("strategy", [pb.PairStrategy.balanced(3),
                                      pb.PairStrategy.all_pairs()])
def test_draw_pair_process_matches_reference_bytewise(kind, strategy):
    """Skipping clean's identity transform leaves similarities byte-identical;
    shifted's non-identity transform is still applied."""
    spec = pb.default_experiment_config(kind).target
    assert spec.domain_transform.is_identity() == (kind == "clean")
    for n_pairs, seed in ((1, 0), (2, 3), (500, 17)):
        feats, sim, labels = _draw_pair_process_reference(spec, strategy, n_pairs, seed)
        samples, pairs = pb.draw_pair_process(spec, strategy, n_pairs, seed)
        assert pairs.similarity.tobytes() == sim.tobytes()
        assert pairs.true_labels.tolist() == labels.tolist()
        assert np.array_equal(samples.features, feats)  # equal up to the sign of 0


def test_draw_pair_process_mixes_labels():
    """The i.i.d. pair stream must contain both classes for risk work."""
    spec = small_spec()
    _, pairs = pb.draw_pair_process(spec, pb.PairStrategy.balanced(3), 400, 2)
    n_pos = int((pairs.true_labels == 1).sum())
    assert 0 < n_pos < 400
    # balanced(3) draws positives with probability 1/4 per slot
    assert abs(n_pos / 400 - 0.25) < 3 * np.sqrt(0.25 * 0.75 / 400)


def test_pair_set_subset_and_pseudo():
    spec = small_spec()
    _, pairs = pb.draw_pair_process(spec, pb.PairStrategy.balanced(2), 50, 1)
    pseudo = -pairs.true_labels
    tagged = pairs.with_pseudo_labels(pseudo)
    assert tagged.has_pseudo and not pairs.has_pseudo
    sub = tagged.subset(np.array([0, 3, 4]))
    assert len(sub) == 3
    assert np.array_equal(sub.pseudo_labels, pseudo[[0, 3, 4]])
    assert np.array_equal(sub.member_indices, tagged.member_indices[[0, 3, 4]])


def test_pair_set_rejects_labels_outside_their_alphabet():
    """True labels are +-1 and pseudo-labels +-1 or ABSENT; anything else
    (which would miscount risks or rates, or wrap in the int8 cast) is refused."""
    sim = np.array([[0.0], [1.0]])
    with pytest.raises(pb.ConfigurationError, match="true_labels"):
        pb.PairSet(sim, [0, 2])
    with pytest.raises(pb.ConfigurationError, match="pseudo_labels"):
        pb.PairSet(sim, [1, -1], pseudo_labels=[3, -1])
    with pytest.raises(pb.ConfigurationError, match="true_labels"):
        pb.PairSet(sim, [255, 1])
    ok = pb.PairSet(sim, [1, -1], pseudo_labels=[pb.ABSENT, -1])
    assert ok.pseudo_labels.dtype == np.int8 and not ok.has_pseudo


def test_unit_normalize():
    feats = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
    out = pb.unit_normalize(feats)
    assert np.allclose(np.linalg.norm(out[[0, 2]], axis=1), 1.0)
    assert np.allclose(out[1], 0.0)  # zero rows stay put instead of dividing by 0


def test_affine_map_round_trip_and_identity():
    amap = pb.AffineMap(np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([0.5, -0.5]))
    back = pb.AffineMap.from_dict(amap.to_dict())
    assert back == amap
    assert pb.AffineMap.identity(3).is_identity()
    assert not amap.is_identity()


def _negate_zeros(a):
    return np.where(a == 0, -0.0, a)


@pytest.mark.parametrize("amap", [
    pb.AffineMap.identity(3),
    pb.AffineMap(_negate_zeros(np.eye(3)), np.full(3, -0.0)),
    pb.AffineMap(np.eye(3), np.array([0.0, 1e-300, 0.0])),
    pb.AffineMap(np.array([[1.0, 0.0], [np.nan, 1.0]]), np.zeros(2)),
    pb.AffineMap(np.eye(2, 3), np.zeros(2)),
    pb.AffineMap(np.eye(2), np.zeros(3)),
    pb.AffineMap(np.diag([1.6, 0.7]), np.array([1.6, -1.1])),
])
def test_is_identity_is_equality_with_the_identity_map(amap):
    assert amap.is_identity() == (amap == pb.AffineMap.identity(amap.matrix.shape[0]))


def _pairs_from_draws_as_before(spec, ids, noise):
    """The pair features as formed before they were built in place: the
    mapped features through ``x @ A.T + b``, labels through where/astype."""
    feats = noise * spec.within_identity_stddev + np.take(spec.identity_centers, ids, axis=0)
    amap = spec.domain_transform
    if amap != pb.AffineMap.identity(spec.feature_dim):
        flat = feats.reshape(-1, spec.feature_dim)
        feats = (flat @ amap.matrix.T + amap.offset).reshape(feats.shape)
    sim = np.abs(feats[..., 0, :] - feats[..., 1, :])
    return feats, sim, np.where(ids[..., 0] == ids[..., 1], 1, -1).astype(np.int8)


@pytest.mark.parametrize("transform", [
    pb.AffineMap(_negate_zeros(np.eye(3)), np.full(3, -0.0)),     # the identity
    pb.AffineMap(np.array([[1.6, -0.0, 0.2], [0.0, 0.7, 0.0], [-0.3, 0.0, 1.25]]),
                 np.array([1.6, -0.0, 0.9])),
])
def test_pairs_from_draws_equal_the_old_formula_bytewise(transform):
    """Features, similarities and int8 labels keep their bytes, -0.0 in the
    centers, the normals and the transform included."""
    from pseudobound.domains import _pairs_from_draws

    centers = np.array([[0.0, -0.0, 1.5], [-0.0, 2.0, -0.0], [-0.0, -0.0, 0.0]])
    spec = pb.DomainSpec(3, 3, centers, 0.5, transform, seed=1)
    rng = np.random.default_rng(4)
    ids = rng.integers(0, 3, size=(2, 60, 2))
    noise = rng.standard_normal((2, 60, 2, 3))
    noise[rng.random(noise.shape) < 0.4] = -0.0
    noise[:, :10, 1] = noise[:, :10, 0]        # members equal coordinate by coordinate
    expected = _pairs_from_draws_as_before(spec, ids, noise)
    got = _pairs_from_draws(spec, ids, noise.copy())
    if transform.is_identity():     # the unmapped features keep their -0.0
        assert np.signbit(expected[0][expected[0] == 0]).any()
    assert got[2].dtype == np.int8 and set(got[2].ravel().tolist()) == {-1, 1}
    for new, old in zip(got, expected):
        assert new.shape == old.shape and new.tobytes() == old.tobytes()


def test_signed_zeros_hash_like_the_equal_values():
    """-0.0 == +0.0, so neither the equality nor the hash of a map or spec
    may see the sign of a zero."""
    plus = pb.AffineMap.identity(2)
    minus = pb.AffineMap(_negate_zeros(plus.matrix), _negate_zeros(plus.offset))
    assert plus.offset.tobytes() != minus.offset.tobytes()
    assert plus == minus and hash(plus) == hash(minus)
    spec = small_spec()
    signed = pb.DomainSpec(3, 2, _negate_zeros(spec.identity_centers), 0.25,
                           minus, 7)
    assert spec == signed and hash(spec) == hash(signed)


def test_maps_of_equal_bytes_but_other_shapes_differ():
    square = pb.AffineMap(np.eye(2), np.zeros(2))
    row = pb.AffineMap(np.eye(2).reshape(1, 4), np.zeros(2))
    assert square.matrix.tobytes() == row.matrix.tobytes()
    assert square != row


_OTHER_FIELD_VALUES = {
    "num_identities": 4,
    "feature_dim": 3,
    "identity_centers": np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 2.0]]),
    "within_identity_stddev": 0.5,
    "domain_transform": pb.AffineMap(np.diag([1.0, 2.0]), np.zeros(2)),
    "seed": 8,
}


@pytest.mark.parametrize("name", sorted(_OTHER_FIELD_VALUES))
def test_specs_differing_in_one_field_are_unequal(name):
    """Set behind validation, which rejects a count that disagrees with the
    centers' shape: the key must still see every field."""
    assert set(_OTHER_FIELD_VALUES) == {f.name for f in dataclasses.fields(pb.DomainSpec)}
    spec, other = small_spec(), small_spec()
    object.__setattr__(other, name, _OTHER_FIELD_VALUES[name])
    assert spec != other and other != spec


def test_a_spec_owns_its_arrays():
    """Editing the caller's arrays after construction leaves the spec, its
    hash and its memo entry as they were."""
    centers = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    matrix, offset = np.eye(2), np.zeros(2)
    spec = pb.DomainSpec(3, 2, centers, 0.25, pb.AffineMap(matrix, offset), 7)
    memo = {spec: 1}
    before = hash(spec)
    centers[0, 0], matrix[0, 0], offset[1] = np.nan, 5.0, 1.0
    assert spec == small_spec() and hash(spec) == before and spec in memo


def test_spec_arrays_are_read_only():
    spec = small_spec(transform=pb.AffineMap(np.eye(2), np.ones(2)))
    for array in (spec.identity_centers, spec.domain_transform.matrix,
                  spec.domain_transform.offset):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def test_domain_spec_json_round_trip():
    spec = small_spec()
    text = json.dumps(spec.to_dict())
    assert pb.DomainSpec.from_dict(json.loads(text)) == spec
    # JSON itself must be valid and carry row-major nested arrays
    doc = json.loads(text)
    assert doc["identity_centers"][1] == [3.0, 0.0]


def test_domain_spec_validation():
    with pytest.raises(pb.ConfigurationError):
        pb.DomainSpec(2, 2, np.zeros((3, 2)), 0.1, pb.AffineMap.identity(2), 0)
    with pytest.raises(pb.ConfigurationError):
        pb.DomainSpec(3, 2, np.zeros((3, 2)), 0.0, pb.AffineMap.identity(2), 0)
    with pytest.raises(pb.ConfigurationError):
        pb.DomainSpec(3, 2, np.zeros((3, 2)), 0.1, pb.AffineMap.identity(4), 0)


def test_derive_seed_and_make_rng():
    assert pb.derive_seed(1, 2, 3) == pb.derive_seed(1, 2, 3)
    assert pb.derive_seed(1, 2, 3) != pb.derive_seed(1, 2, 4)
    assert 0 <= pb.derive_seed(0) < 2 ** 64
    a = pb.make_rng(5, 6).standard_normal(4)
    b = pb.make_rng(5, 6).standard_normal(4)
    assert np.array_equal(a, b)


def _seed_columns():
    """Entropy columns of 1-4 entries: 0, values below 2^32, from 2^32 up to
    2^64 - 1 and one scalar of 2^64 and above, widths mixed within a batch."""
    rng = np.random.default_rng(21)
    col = np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7, 2 ** 64 - 1]
                   + rng.integers(0, 2 ** 32, size=5).tolist()
                   + rng.integers(2 ** 32, 2 ** 64 - 1, size=5, dtype=np.uint64).tolist(),
                   dtype=np.uint64)
    ids = np.arange(len(col))            # int64, one word per row
    return [
        [col],
        [2 ** 70 + 5, ids],
        [col, 2, col[::-1]],
        [7, col, 2 ** 33, col[rng.permutation(len(col))]],
        [0, 3],                          # scalars only: one row
    ]


@pytest.mark.parametrize("columns", _seed_columns())
def test_seed_states_equal_seed_sequence(columns):
    """Each row of the vectorized hash is SeedSequence's state for the row's
    entropy tuple, derive_seed's seed, and make_rng's stream."""
    from pseudobound.domains import rngs_from_states, seed_states

    one, four = seed_states(columns, 1), seed_states(columns, 4)
    n = max((len(c) for c in columns if np.ndim(c)), default=1)
    assert one.shape == (n, 1) and four.shape == (n, 4)
    rngs = rngs_from_states(four)
    for r in range(n):
        entropy = [int(c if np.ndim(c) == 0 else c[r]) for c in columns]
        seq = np.random.SeedSequence(entropy)
        assert four[r].tolist() == seq.generate_state(4, np.uint64).tolist()
        assert one[r, 0] == pb.derive_seed(*entropy)
        want = pb.make_rng(*entropy).standard_normal(3)
        assert rngs[r].standard_normal(3).tobytes() == want.tobytes()


def test_negative_entropy_raises_configuration_error():
    from pseudobound.domains import seed_states

    with pytest.raises(pb.ConfigurationError, match="got -1"):
        pb.derive_seed(-1, 3)
    with pytest.raises(pb.ConfigurationError, match="got -2"):
        pb.make_rng(4, -2)
    with pytest.raises(pb.ConfigurationError, match="got -3"):
        seed_states([-3, np.arange(4)], 1)
    with pytest.raises(pb.ConfigurationError, match="got -7"):
        seed_states([5, np.array([0, -7, 2])], 4)
