"""Mixed schemes beat fully unambiguous ones: sweeping both comparisons.

First comparison: against the best fully unambiguous scheme over the
shared geometry (failure probabilities x0, x1 optimized in closed form).
Second comparison: against the piecewise closed-form maximum for three
symmetric overlaps, whose four cases are tagged in the output.
"""
from statedisc.analysis import XU_CASES
from statedisc.montecarlo import sweep
from statedisc.serialize import comparison_records_to_csv

print("mixed vs optimized-unambiguous (priors restricted to p2 >= 1/3):")
result = sweep(
    "2.1",
    [0.2, 0.4, 0.6],
    [(0.3, 0.3, 0.4), (0.1, 0.2, 0.7), (0.0, 0.0, 1.0)],
)
print(comparison_records_to_csv(result.records))
print(f"failures: {result.failures}   min margin: {result.min_margin:.6f}")

print("\nmixed vs piecewise maximum (symmetric overlaps, sorted priors):")
result = sweep("3.1", [0.0, 0.3, 0.6, 0.9], [(0.05, 0.15, 0.8)])
for rec, case in zip(result.records, result.table.xu_case):
    print(
        f"  gamma = {rec.gamma:.2f}  mixed = {rec.p_mixed:.4f}  "
        f"unambiguous max = {rec.p_una_reference:.4f}  "
        f"margin = {rec.margin:+.4f}  case {XU_CASES[case]}"
    )

print("\npoints outside a comparison's domain are skipped, not fatal:")
result = sweep("2.1", [0.0, 0.5, 0.9], [(0.3, 0.3, 0.4)])
print(f"  records: {len(result.records)}   skipped: ", end="")
print(", ".join(f"gamma={s.gamma} ({s.code})" for s in result.skipped))
