"""Type I error study: how often does each test reject when it should not?

A reduced version of the two-group null grid (three size pairs, three
distributions, 500 replications with 500 bootstrap rounds) runs in a few
seconds (about 3 s on one core of a 2-core Xeon) and already shows the
pattern of the full study: the kurtosis-adjusted chi-square test
overshoots its level on skewed data with tiny groups, the median-centered
F test is conservative, and the bootstrap tests stay near the nominal
level.  At this reduced scale each entry still carries a standard error
around 0.01, so individual cells wobble; the full grid in the acceptance
suite runs 1000 replications.
"""

from equivar import ExperimentConfig, derive_seed, robustness, run_grid

ALPHA = 0.05
SIZES = [(5, 5), (10, 10), (5, 10)]
DISTRIBUTIONS = ["uniform", "normal", "exponential"]

cells = []
for i, sizes in enumerate(SIZES):
    for j, dist in enumerate(DISTRIBUTIONS):
        cells.append(
            ExperimentConfig(
                distribution=dist,
                sizes=sizes,
                variances=(1.0, 1.0),
                alpha=ALPHA,
                replications=500,
                bootstrap_b=500,
                master_seed=derive_seed(11, i * 10 + j),
            )
        )

estimates = run_grid(cells)

header = f"{'sizes':<10}{'distribution':<14}" + "".join(f"{t:>18}" for t in cells[0].tests)
print(header)
for est in estimates:
    c = est.config
    row = f"{str(c.sizes):<10}{c.distribution.value:<14}"
    row += "".join(f"{est.rates[t]:>18.3f}" for t in c.tests)
    print(row)

report = robustness(estimates, alpha=ALPHA)
print()
print(f"maximum estimated size over {len(cells)} null cells (robust means < {2 * ALPHA}):")
for t, mx in report.max_size.items():
    print(f"  {t:<18} {mx:.3f}  {'robust' if report.robust[t] else 'NOT robust'}")
