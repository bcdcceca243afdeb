"""
Identity domains and the pair process
=====================================

Samples carry an identity; a pair is positive when both members share one.
This script draws the shipped source and target domains, then inspects how
the pair strategy shapes the label balance.
"""

import numpy as np

import pseudobound as pb

cfg = pb.default_experiment_config("shifted")

source = pb.generate_domain(cfg.source, 500, 1)
target = pb.generate_domain(cfg.target, 500, 2)
print(f"source: {source.features.shape[0]} samples, "
      f"{cfg.source.num_identities} identities, "
      f"feature mean {source.features.mean(axis=0).round(3)}")
print(f"target: feature mean {target.features.mean(axis=0).round(3)} "
      "(the domain transform shifts and rotates it)")

# Pairs are i.i.d.; under the balanced strategy roughly 1 in
# (1 + k_neg_per_pos) pairs is positive.
_, pairs = pb.draw_pair_process(cfg.source, cfg.strategy, 2000, 3)
frac_pos = float((pairs.true_labels == 1).mean())
expected = 1.0 / (1 + cfg.strategy.k_neg_per_pos)
print(f"balanced pairs: {frac_pos:.3f} positive, expected {expected:.3f}")

all_pairs = pb.PairStrategy("all")
_, pairs_all = pb.draw_pair_process(cfg.source, all_pairs, 2000, 3)
print(f"all-pairs:      {float((pairs_all.true_labels == 1).mean()):.3f} "
      f"positive, expected {1.0 / cfg.source.num_identities:.3f}")

# Same seeds, same draw: the process is fully reproducible.
_, again = pb.draw_pair_process(cfg.source, cfg.strategy, 2000, 3)
print("redraw with the same seed identical:",
      np.array_equal(pairs.similarity, again.similarity))
