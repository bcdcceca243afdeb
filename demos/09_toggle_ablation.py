"""
Which good practices actually pay off
=====================================

The ablation runner repeats the self-learning loop over a grid of toggle
settings with paired seeds, so differences between cells are attributable
to the toggles rather than to sampling luck.
"""

from dataclasses import replace

import pseudobound as pb

base = replace(pb.default_experiment_config("practice"),
               iterations=3, trials=4)

grid = [
    pb.Toggles(),                                            # everything on
    pb.Toggles.all_off(),
    pb.Toggles(True, False, False, False),                   # guidance only
    pb.Toggles(True, True, False, False),                    # + alignment
    pb.Toggles(True, True, False, True),                     # + outlier filtering
]
table = pb.run_ablation(base, grid)

print(f"paired seeds: {table.trial_seeds}")
print(f"{'sg':>3} {'align':>5} {'bound':>5} {'filter':>6} {'mean risk':>10}")
for cell in table.cells:
    t = cell.toggles
    mean = cell.mean_final_risk
    shown = f"{mean:.4f}" if mean is not None else "all failed"
    print(f"{str(t.source_guided):>3} {str(t.domain_alignment):>5} "
          f"{str(t.bounded_loss):>5} {str(t.outlier_filtering):>6} {shown:>10}")

full = table.cell(pb.Toggles()).mean_final_risk
bare = table.cell(pb.Toggles.all_off()).mean_final_risk
print(f"\neverything-on beats everything-off: {full:.4f} < {bare:.4f} "
      f"-> {full < bare}")
