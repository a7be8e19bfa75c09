"""Desk-scale replication of the aggregation-effects experiment.

Each (rho, k) cell aggregates simulated fields 30 times and records the
relative change in mean and variance plus two-sample test rejections
against the original variable. The classic picture emerges: the mean is
untouched everywhere, while the variance effect fades as either k or rho
grows. Rho isolation mode reuses one value multiset and one set of
partitions across rho levels (region seeds are keyed on instance, k and
repeat, not on rho), so the gradient is attributable to spatial structure
alone.
"""

import numpy as np

from smaup import EffectsConfig, effects_experiment

config = EffectsConfig(
    k_lists={100: (12, 53, 90)},
    rho_values=(-0.9, 0.0, 0.9),
    instances=10,
    r=30,
    master_seed=42,
)
summary = effects_experiment(config, workers=2)

print("cell        mean(RCM-bar)  mean(RCV-bar)  t-rej   Levene-rej")
for cell in summary.cells:
    print(f"rho={cell.rho:+.1f} k={cell.k:2d}   {np.mean(cell.rcm_bars):10.4f}"
          f"   {np.mean(cell.rcv_bars):10.4f}   {cell.t_rejection_proportion:5.3f}"
          f"   {cell.levene_rejection_proportion:7.3f}")

print("\nreading the table:")
print(" - t-test rejections ~0 everywhere: no aggregation effect on the mean")
print(" - Levene rejections fall as rho or k rises: the variance effect fades")
print(f" - run metadata: {summary.metadata['rcm_divisor']} divisor for RCM "
      "(simulated fields are near-zero-mean)")
