import numpy as np
import pytest

import pseudobound as pb
from oracles import dbscan_oracle


def test_dbscan_1d_example():
    pts = np.array([[0.0], [0.1], [0.2], [10.0], [10.1], [50.0]])
    labels = pb.dbscan(pts, pb.DbscanParams(0.5, 2))
    assert labels.tolist() == [0, 0, 0, 1, 1, pb.NOISE]


def test_dbscan_all_identical_points():
    pts = np.zeros((5, 2))
    labels = pb.dbscan(pts, pb.DbscanParams(0.1, 5))
    assert labels.tolist() == [0] * 5


def test_dbscan_tiny_eps_all_noise():
    pts = np.arange(6, dtype=float).reshape(-1, 1)
    labels = pb.dbscan(pts, pb.DbscanParams(1e-9, 2))
    assert (labels == pb.NOISE).all()


def test_dbscan_neighborhood_is_inclusive():
    # distance exactly eps joins the neighborhood
    pts = np.array([[0.0], [1.0]])
    labels = pb.dbscan(pts, pb.DbscanParams(1.0, 2))
    assert labels.tolist() == [0, 0]


def test_dbscan_matches_brute_force_oracle():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 31))
        q = int(rng.integers(1, 4))
        pts = np.round(rng.uniform(-2, 2, size=(n, q)), 1)
        eps = float(rng.uniform(0.3, 1.5))
        min_pts = int(rng.integers(1, 6))
        fast = pb.dbscan(pts, pb.DbscanParams(eps, min_pts))
        assert np.array_equal(fast, dbscan_oracle(pts, eps, min_pts))


def test_dbscan_validation():
    with pytest.raises(pb.ConfigurationError):
        pb.DbscanParams(0.0, 2)
    with pytest.raises(pb.ConfigurationError):
        pb.DbscanParams(0.5, 0)
    with pytest.raises(pb.EmptyInputError):
        pb.dbscan(np.zeros((0, 2)), pb.DbscanParams(0.5, 2))


def clustered_samples():
    cfg = pb.default_experiment_config("clean")
    samples = pb.generate_domain(cfg.target, 60, 3)
    return cfg, samples


def test_pseudo_labels_perfect_clusters_have_zero_noise_rates():
    cfg, samples = clustered_samples()
    # hand clustering that equals the identities exactly
    pairs = pb.pseudo_label_from_clusters(samples, samples.identities.copy())
    est = pb.estimate_noise_rates(pairs)
    assert (est.rho_neg, est.rho_pos) == (0.0, 0.0)


def test_pseudo_labels_merged_clusters_create_false_positives_only():
    cfg, samples = clustered_samples()
    merged = samples.identities.copy()
    merged[merged == 3] = 2  # identities 2 and 3 in one cluster
    pairs = pb.pseudo_label_from_clusters(samples, merged)
    est = pb.estimate_noise_rates(pairs)
    assert est.rho_neg > 0
    assert est.rho_pos == 0.0


def test_pseudo_labels_match_enumeration_on_default_domain():
    """Cluster 20 samples with the config eps and recount every pair."""
    cfg = pb.default_experiment_config("practice")
    samples = pb.generate_domain(cfg.target, 20, 9)
    labels = pb.dbscan(samples.features, cfg.dbscan_params)
    pairs = pb.pseudo_label_from_clusters(samples, labels,
                                          keep_noise_as_singletons=True)
    est = pb.estimate_noise_rates(pairs)

    relabeled = labels.copy()
    noise_at = np.flatnonzero(relabeled == pb.NOISE)
    relabeled[noise_at] = relabeled.max() + 1 + np.arange(len(noise_at))
    flip_neg = total_neg = flip_pos = total_pos = 0
    for i in range(len(samples)):
        for j in range(i + 1, len(samples)):
            same_true = samples.identities[i] == samples.identities[j]
            same_cluster = relabeled[i] == relabeled[j]
            if same_true:
                total_pos += 1
                flip_pos += int(not same_cluster)
            else:
                total_neg += 1
                flip_neg += int(same_cluster)
    assert len(pairs) == total_pos + total_neg
    assert est.rho_neg == flip_neg / total_neg
    assert est.rho_pos == flip_pos / total_pos


def test_pseudo_labels_noise_handling():
    cfg, samples = clustered_samples()
    labels = samples.identities.copy()
    labels[:5] = pb.NOISE
    dropped = pb.pseudo_label_from_clusters(samples, labels)
    kept = pb.pseudo_label_from_clusters(samples, labels,
                                         keep_noise_as_singletons=True)
    n_drop, n_keep = len(samples) - 5, len(samples)
    assert len(dropped) == n_drop * (n_drop - 1) // 2
    assert len(kept) == n_keep * (n_keep - 1) // 2
    # singleton noise points never produce a positive pseudo-label
    noise_rows = np.isin(kept.member_indices, np.arange(5)).any(axis=1)
    assert (kept.pseudo_labels[noise_rows] == -1).all()
    with pytest.raises(pb.DegenerateInputError):
        pb.pseudo_label_from_clusters(samples, np.full(len(samples), pb.NOISE))


def test_tukey_fence_examples():
    fence, mask = pb.tukey_fence(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
    assert fence == 7.0
    assert mask.tolist() == [False, False, False, False, True]
    fence2, mask2 = pb.tukey_fence(np.array([1.0, 2.0, 3.0, 4.0]))
    assert fence2 == 6.0
    assert not mask2.any()


def test_tukey_fence_constant_values():
    fence, mask = pb.tukey_fence(np.full(6, 3.3))
    assert fence == 3.3
    assert not mask.any()


def test_tukey_fence_quartiles_match_lower_percentiles():
    rng = np.random.default_rng(8)
    for n in list(range(4, 40)) + [600, 601]:
        v = np.round(rng.standard_normal(n) * 2, 1)
        v[rng.integers(n)] = (np.inf, -np.inf, 0.0)[n % 3]
        q1 = float(np.percentile(v, 25, method="lower"))
        q3 = float(np.percentile(v, 75, method="lower"))
        fence, mask = pb.tukey_fence(v)
        expected = q3 + 1.5 * (q3 - q1)
        assert fence == expected or (np.isnan(fence) and np.isnan(expected))
        assert mask.tolist() == (v > expected).tolist()


def test_tukey_fence_nan_gives_nan_fence_and_empty_mask():
    """A NaN value makes both quartiles NaN, as np.percentile does, so the
    fence is NaN and flags nothing."""
    fence, mask = pb.tukey_fence(np.array([1.0, 2.0, np.nan, 4.0, 100.0]))
    assert np.isnan(fence)
    assert not mask.any()


def test_tukey_fence_needs_four_values():
    with pytest.raises(pb.InsufficientDataError):
        pb.tukey_fence(np.array([1.0, 2.0, 3.0]))


def test_filter_top_p_examples():
    mask = pb.filter_top_p(np.array([1.0, 2.0, 3.0, 4.0]), 0.5)
    assert mask.tolist() == [False, False, True, True]
    tiny = pb.filter_top_p(np.arange(10.0), 0.001)
    assert tiny.sum() == 1  # ceiling keeps at least one
    assert tiny[-1]


def test_filter_top_p_tie_break_flags_later_duplicate():
    mask = pb.filter_top_p(np.array([5.0, 1.0, 5.0, 3.0]), 0.25)
    assert mask.tolist() == [False, False, True, False]


def test_filter_top_p_matches_sort_oracle():
    rng = np.random.default_rng(8)
    values = rng.uniform(size=100)
    mask = pb.filter_top_p(values, 0.1)
    k = 10
    worst = np.argsort(values)[::-1][:k]
    assert mask.sum() == k
    assert set(np.flatnonzero(mask)) == set(worst.tolist())


def test_per_sample_losses_shapes_and_ranges():
    margins = np.linspace(-3, 3, 7)
    logistic = pb.per_sample_losses(margins, pb.LOGISTIC)
    mae = pb.per_sample_losses(margins, pb.MAE)
    assert (logistic > 0).all()
    assert ((0 <= mae) & (mae <= 1)).all()
    assert mae[0] > 0.9 and mae[-1] < 0.1
    # thresholded shares the raw logistic curve; the clamp applies in training
    thr = pb.per_sample_losses(margins, pb.THRESHOLDED_LOGISTIC)
    assert np.array_equal(thr, logistic)


def test_logistic_loss_is_stable_for_large_margins():
    vals = pb.per_sample_losses(np.array([-800.0, 800.0]), pb.LOGISTIC)
    assert np.isfinite(vals).all()
    assert vals[0] == pytest.approx(800.0)
    assert vals[1] == pytest.approx(0.0, abs=1e-12)


def random_problem(seed, n=30, q=3):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, q))
    labels = np.where(feats @ rng.standard_normal(q) > 0, 1, -1)
    w = 0.2 * rng.standard_normal(q)
    b = float(0.1 * rng.standard_normal())
    return feats, labels, w, b


def central_difference_grads(feats, labels, w, b, cfg, fence):
    eps = 1e-6
    num_w = np.empty_like(w)
    for j in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[j] += eps
        wm[j] -= eps
        op = pb.batch_objective_and_grad(feats, labels, wp, b, cfg, fence=fence)[0]
        om = pb.batch_objective_and_grad(feats, labels, wm, b, cfg, fence=fence)[0]
        num_w[j] = (op - om) / (2 * eps)
    op = pb.batch_objective_and_grad(feats, labels, w, b + eps, cfg, fence=fence)[0]
    om = pb.batch_objective_and_grad(feats, labels, w, b - eps, cfg, fence=fence)[0]
    return num_w, (op - om) / (2 * eps)


@pytest.mark.parametrize("kind", [pb.LOGISTIC, pb.MAE, pb.THRESHOLDED_LOGISTIC])
def test_gradients_match_finite_differences(kind):
    cfg = pb.LinearLearnerConfig(loss_kind=kind, l2_penalty=0.01)
    for seed in range(5):
        feats, labels, w, b = random_problem(seed)
        fence = None
        if kind == pb.THRESHOLDED_LOGISTIC:
            raw = pb.per_sample_losses(labels * (feats @ w + b), pb.LOGISTIC)
            fence = float(np.median(raw))  # clamp roughly half the batch
        obj, gw, gb = pb.batch_objective_and_grad(feats, labels, w, b, cfg,
                                                  fence=fence)
        num_w, num_b = central_difference_grads(feats, labels, w, b, cfg, fence)
        scale = max(1.0, np.abs(gw).max())
        assert np.abs(num_w - gw).max() / scale <= 1e-5
        assert abs(num_b - gb) / max(1.0, abs(gb)) <= 1e-5


def test_thresholded_loss_requires_fence():
    cfg = pb.LinearLearnerConfig(loss_kind=pb.THRESHOLDED_LOGISTIC)
    feats, labels, w, b = random_problem(0)
    with pytest.raises(pb.ConfigurationError):
        pb.batch_objective_and_grad(feats, labels, w, b, cfg)


def separable_pairs(n=120, seed=5):
    rng = np.random.default_rng(seed)
    sim = rng.uniform(0.0, 2.0, size=(n, 2))
    margin = sim[:, 0] + sim[:, 1] - 2.0
    keep = np.abs(margin) > 0.2  # leave a real gap around the separator
    labels = np.where(margin[keep] < 0, 1, -1)
    return pb.PairSet(sim[keep], labels)


def test_train_linear_separable_reaches_zero_error():
    pairs = separable_pairs()
    cfg = pb.LinearLearnerConfig(loss_kind=pb.LOGISTIC, learning_rate=1.0,
                                 epochs=600)
    model, trace, report = pb.train_linear(pairs, cfg, rng_seed=0)
    pred = model.predict(pairs.similarity)
    assert (pred == pairs.true_labels).all()
    assert trace[-1] < trace[0]
    assert report.dropped == 0


def test_train_linear_planted_outlier_is_dropped_early():
    pairs = separable_pairs()
    sim = pairs.similarity.copy()
    labels = pairs.true_labels.copy()
    sim[0] = np.array([1.9, 1.9])
    labels[0] = 1  # mislabeled point deep in the negative region
    planted = pb.PairSet(sim, labels)
    cfg = pb.LinearLearnerConfig(loss_kind=pb.LOGISTIC, learning_rate=1.0,
                                 epochs=30)
    model, _, report = pb.train_linear(planted, cfg, tukey_filter=True,
                                       rng_seed=1)
    # bulk margins sharpen within a few epochs, pushing the plant's loss
    # above the fence; from then on it stays excluded
    assert any(d >= 1 for d in report.per_epoch_dropped[:10])
    assert report.per_epoch_dropped[-1] >= 1
    assert report.dropped >= 1
    assert model.predict(sim[:1])[0] == -1


def test_train_linear_uses_pseudo_labels_when_present():
    pairs = separable_pairs()
    flipped = pairs.with_pseudo_labels(-pairs.true_labels)
    cfg = pb.LinearLearnerConfig(loss_kind=pb.LOGISTIC, learning_rate=1.0,
                                 epochs=300)
    model, _, _ = pb.train_linear(flipped, cfg, rng_seed=0)
    pred = model.predict(pairs.similarity)
    # trained against the flipped labels, so it should track them
    assert np.mean(pred == flipped.pseudo_labels) > 0.9


def test_train_linear_mae_bounded_objective():
    pairs = separable_pairs()
    cfg = pb.LinearLearnerConfig(loss_kind=pb.MAE, learning_rate=2.0, epochs=50)
    _, trace, _ = pb.train_linear(pairs, cfg, rng_seed=3)
    assert all(0.0 <= v <= 1.0 + 1e-12 for v in trace)


def test_train_linear_weight_decay_shrinks_weights():
    pairs = separable_pairs()
    plain = pb.LinearLearnerConfig(loss_kind=pb.LOGISTIC, epochs=200)
    decayed = pb.LinearLearnerConfig(loss_kind=pb.LOGISTIC, epochs=200,
                                     l2_penalty=0.1)
    m0, _, _ = pb.train_linear(pairs, plain, rng_seed=2)
    m1, _, _ = pb.train_linear(pairs, decayed, rng_seed=2)
    assert np.linalg.norm(m1.weights) < np.linalg.norm(m0.weights)


def test_train_linear_divergence_raises_with_trace():
    # l2 term turns an oversized step into geometric blowup, then overflow
    pairs = separable_pairs()
    cfg = pb.LinearLearnerConfig(loss_kind=pb.LOGISTIC, learning_rate=1e3,
                                 epochs=200, l2_penalty=1.0)
    with np.errstate(over="ignore"), pytest.raises(pb.NumericError) as exc_info:
        pb.train_linear(pairs, cfg, rng_seed=0)
    assert len(exc_info.value.trace) >= 1


def test_train_linear_filter_report_rates():
    """Tukey filtering of a noisy pseudo-labeled set lowers estimated rho."""
    cfg_exp = pb.default_experiment_config("noisy")
    _, pairs = pb.draw_pair_process(cfg_exp.target, cfg_exp.strategy, 3000, 3)
    noisy = pb.corrupt_labels(pairs, pb.NoiseModel(0.1, 0.2), 4)
    cfg = pb.LinearLearnerConfig(loss_kind=pb.LOGISTIC, epochs=120,
                                 learning_rate=0.5)
    _, _, report = pb.train_linear(noisy, cfg, tukey_filter=True, rng_seed=0)
    before = report.estimated_rho_before
    after = report.estimated_rho_after
    assert after.rho_neg + after.rho_pos < before.rho_neg + before.rho_pos


def test_linear_learner_config_round_trip():
    cfg = pb.LinearLearnerConfig(loss_kind=pb.MAE, learning_rate=0.05,
                                 epochs=77, l2_penalty=0.5)
    assert pb.LinearLearnerConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(pb.ConfigurationError):
        pb.LinearLearnerConfig(loss_kind="hinge")
