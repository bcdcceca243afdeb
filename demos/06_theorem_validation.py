"""
Monte Carlo validation of the risk guarantee
============================================

Each trial resamples training pairs, fits the source-guided stump, and
compares its exact population target risk against the assembled
right-hand side.  The violation rate across trials should stay at or
below delta.
"""

import pseudobound as pb

for kind in ("clean", "noisy", "shifted"):
    cfg = pb.default_experiment_config(kind)
    v = pb.validate_theorem(cfg, trials=200, rng_seed=60)
    worst = max(r.eps_t_hat for r in v.rows)
    print(f"{kind:8s}: violation rate {v.violation_rate:.3f}, delta {cfg.delta}, "
          f"rhs {v.report.rhs:.3f}, worst trial risk {worst:.3f}")

# The report carries the bound's decomposition; a row, one trial's risk.
cfg = pb.default_experiment_config("noisy")
v = pb.validate_theorem(cfg, trials=1, rng_seed=61)
rep, row = v.report, v.rows[0]
print("\none noisy-config trial in detail:")
print(f"  noise factor {rep.noise_term:.4f}, capacity {rep.complexity_term:.4f}, "
      f"domain term {rep.dd_term:.4f}")
print(f"  measured risk {row.eps_t_hat:.4f} vs rhs {rep.rhs:.4f} "
      f"-> violated={row.violated}")
