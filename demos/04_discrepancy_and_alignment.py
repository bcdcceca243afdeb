"""
Measuring and shrinking the gap between domains
===============================================

Two domain-distance tools: a kernel discrepancy (MMD with a Gaussian
kernel) for distribution mismatch, and a hypothesis-class distance that
bounds how much stump disagreement can change across domains.  Moment
alignment maps target features onto source statistics and collapses most
of the kernel gap.
"""

import numpy as np

import pseudobound as pb

cfg = pb.default_experiment_config("shifted")
source = pb.generate_domain(cfg.source, 400, 41)
target = pb.generate_domain(cfg.target, 400, 42)

# One pooled bandwidth so before/after numbers are comparable.
bandwidth = pb.median_heuristic_bandwidth(
    np.vstack([source.features, target.features]))
print(f"median-heuristic bandwidth: {bandwidth:.4f}")

before = pb.mmd_squared(source.features, target.features, bandwidth=bandwidth)
aligned, amap = pb.align_moments(source, target)
after = pb.mmd_squared(source.features, aligned.features, bandwidth=bandwidth)
print(f"squared MMD source vs target: {before:.5f}")
print(f"squared MMD after moment alignment: {after:.5f}")
print(f"alignment offset: {amap.offset.round(3)}")

# Sanity anchors: identical multisets give exactly zero; two single points
# have a closed-form value.
perm = np.random.default_rng(43).permutation(400)
print("permuted copy of source vs source:",
      pb.mmd_squared(source.features, source.features[perm]))
closed = pb.mmd_squared(np.array([[0.0]]), np.array([[1.0]]), bandwidth=1.0)
print(f"two unit-separated points: {closed:.6f} "
      f"(closed form {2 - 2 * np.exp(-0.5):.6f})")

# The class distance looks at similarity features, where stumps live.
_, src_pairs = pb.draw_pair_process(cfg.source, cfg.strategy, 256, 44)
_, tgt_pairs = pb.draw_pair_process(cfg.target, cfg.strategy, 256, 45)
d_hat = pb.h_delta_h_distance(src_pairs.similarity, tgt_pairs.similarity)
print(f"estimated class distance between pair samples: {d_hat:.4f}")

h = pb.random_stump(46, src_pairs.feature_dim, (0.0, 4.0))
h2 = pb.random_stump(47, src_pairs.feature_dim, (0.0, 4.0))
gap = abs(pb.empirical_disagreement(h, h2, src_pairs.similarity, 1.0)
          - pb.empirical_disagreement(h, h2, tgt_pairs.similarity, 1.0))
print(f"one random stump pair: disagreement gap {gap:.4f} "
      f"<= half distance {0.5 * d_hat:.4f}")
