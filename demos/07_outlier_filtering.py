"""
Outlier filtering for a gradient-trained verifier
=================================================

Mislabeled pairs tend to sit in the upper tail of the per-sample loss.
A quartile fence flags that tail; dropping it before or during gradient
descent lowers the effective label-noise rate the learner sees.
"""

import numpy as np

import pseudobound as pb

# The fence on a tiny list, by hand: quartiles 2 and 4, fence 4 + 1.5*2.
values = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
fence, flagged = pb.tukey_fence(values)
print(f"values {values.tolist()} -> fence {fence}, flagged {flagged.tolist()}")

# Top-p keeps rank order and flags the ceil(p*n) largest.
losses = np.array([0.3, 1.2, 0.3, 0.9])
print("top-25% flags:", pb.filter_top_p(losses, 0.25).tolist())

# Now the real use: train on noisy pseudo labels with and without the
# offline+online filter and compare the measured flip rates.
cfg = pb.default_experiment_config("practice")
_, pairs = pb.draw_pair_process(cfg.target, cfg.strategy, 3000, 71)
model = pb.NoiseModel(0.12, 0.18)
noisy = pb.corrupt_labels(pairs, model, 72)

learner = pb.LinearLearnerConfig(loss_kind=pb.THRESHOLDED_LOGISTIC,
                                 learning_rate=0.2, epochs=120)
for tukey_filter in (False, True):
    _, trace, rep = pb.train_linear(noisy, learner, tukey_filter=tukey_filter,
                                    rng_seed=73)
    after = rep.estimated_rho_after or rep.estimated_rho_before
    rule = "tukey" if tukey_filter else "none"
    print(f"filter={rule:5s} kept {rep.kept}/{len(noisy)} "
          f"rho before ({rep.estimated_rho_before.rho_neg:.3f}, "
          f"{rep.estimated_rho_before.rho_pos:.3f}) "
          f"after ({after.rho_neg:.3f}, {after.rho_pos:.3f}) "
          f"final objective {trace[-1]:.4f}")
