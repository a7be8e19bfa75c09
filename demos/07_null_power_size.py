"""Simulated null distributions, pseudo-p values, and test power/size.

The null distribution of the statistic for an (N, rho) pair comes from an
acceptance-sampled Monte Carlo: keep an instance only if aggregation left
its variance statistically intact (Levene never rejects over 30 random
aggregations). The sorted vector then prices any observed M as a pseudo-p.
Size keeps the null's filter and draws the null's own instances for the same
seed, so it is the share of the null's values above the table's critical
value. Power flips the filter: Levene must reject every aggregation.
"""

from smaup import (
    SarSpec,
    build_lattice_rook,
    generate_null,
    generate_sar,
    power_experiment,
    size_experiment,
    smaup_test,
)

null = generate_null(100, rho=0.0, replicates=60, master_seed=1, workers=2)
print(f"null distribution for (N=100, rho=0): {null.replicates} accepted instances")
print(f"  90/95/99th percentiles: {null.percentile(90):.4f} "
      f"{null.percentile(95):.4f} {null.percentile(99):.4f}")

w = build_lattice_rook(10, 10)
y = generate_sar(w, SarSpec(rho=0.0, seed=5))
for k in (90, 60, 30):
    res = smaup_test(y, w, k, null=null)
    print(f"  k={k}: M={res.m_value:.4f} pseudo-p={res.pseudo_p:.3f} "
          f"{'-> sensitive' if res.pseudo_p < 0.05 else ''}")

print("\npower and size at desk scale (30 instances each):")
power = power_experiment([100], [0.0], instances=30, master_seed=2, workers=2)
size = size_experiment([100], [0.0], instances=30, master_seed=3, workers=2)
print(f"  power(N=100, rho=0) = {power.proportion(100, 0.0):.2f}  (want near 1)")
print(f"  size (N=100, rho=0) = {size.proportion(100, 0.0):.2f}  (want near alpha)")
