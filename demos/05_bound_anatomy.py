"""
Anatomy of the target-risk guarantee
====================================

The guarantee is a sum of three parts: a noise/mixing term scaled by the
estimation radius, a capacity term shrinking with sample size, and a
domain-difference term.  This script prints the worked reference point,
then sweeps one input at a time to show which way each part moves.
"""

import pseudobound as pb

reference = pb.BoundInputs(
    alpha=0.5, beta=0.5, m=1000, d=2, delta=0.1, big_m=1.0,
    rho_neg=0.1, rho_pos=0.1, h_delta_h=0.2,
    ideal_joint_error=0.05, epsilon_t_star=0.0,
)
rep = pb.assemble_bound(reference)
print("reference point:")
print(f"  noise/mixing factor N = {rep.noise_term:.6f}")
print(f"  capacity factor    C = {rep.complexity_term:.6f}")
print(f"  domain term       DD = {rep.dd_term:.6f}")
print(f"  right-hand side      = {rep.rhs:.6f}")

def sweep(name, field, values):
    rhss = [pb.assemble_bound(
        pb.BoundInputs(**{**reference.__dict__, field: v})).rhs
        for v in values]
    arrow = " -> ".join(f"{r:.4f}" for r in rhss)
    print(f"  {name}: {arrow}")

print("\nsweeps (each varies one input, rest at reference):")
sweep("negative-flip rate 0.0 .. 0.2", "rho_neg", [0.0, 0.1, 0.2])
joint = [pb.assemble_bound(pb.BoundInputs(**{**reference.__dict__,
                                             "rho_neg": v, "rho_pos": v})).rhs
         for v in (0.0, 0.1, 0.2)]
print("  joint noise 0.0/0.1/0.2:", " -> ".join(f"{r:.4f}" for r in joint))
sweep("stump capacity d = 1 .. 5", "d", [1, 3, 5])
sweep("class distance 0.0 .. 0.4", "h_delta_h", [0.0, 0.2, 0.4])
sweep("ideal joint error 0.0 .. 0.2", "ideal_joint_error", [0.0, 0.1, 0.2])
sweep("training pairs m = 250 .. 4000", "m", [250, 1000, 4000])
print("\nmore data is the only lever that shrinks the guarantee; "
      "everything else inflates it.")
