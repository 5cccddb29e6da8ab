"""Mixed schemes beat fully unambiguous ones: sweeping both comparisons.

First comparison: against the best fully unambiguous scheme over the
shared geometry (failure probabilities x0, x1 optimized in closed form).
Second comparison: against the piecewise closed-form maximum for three
symmetric overlaps, whose four cases are tagged in the output.

Each sweep is one ``compare_columns`` call: column arrays over the whole
gamma-by-priors grid, with a row code that is 0 for a compared point.
"""
from statedisc.analysis import XU_CASES, compare_columns
from statedisc.serialize import comparison_csv_pieces

print("mixed vs optimized-unambiguous (priors restricted to p2 >= 1/3):")
grid = compare_columns(
    "2.1",
    [0.2, 0.4, 0.6],
    [(0.3, 0.3, 0.4), (0.1, 0.2, 0.7), (0.0, 0.0, 1.0)],
)
table = grid.select(grid.code == 0)
print("".join(comparison_csv_pieces([table])))
failures = int((~table.verdict).sum())
print(f"failures: {failures}   min margin: {table.margin.min():.6f}")

print("\nmixed vs piecewise maximum (symmetric overlaps, sorted priors):")
grid = compare_columns("3.1", [0.0, 0.3, 0.6, 0.9], [(0.05, 0.15, 0.8)])
table = grid.select(grid.code == 0)
for i in range(len(table)):
    rec = table.record(i)
    print(
        f"  gamma = {rec.gamma:.2f}  mixed = {rec.p_mixed:.4f}  "
        f"unambiguous max = {rec.p_una_reference:.4f}  "
        f"margin = {rec.margin:+.4f}  case {XU_CASES[table.xu_case[i]]}"
    )

print("\npoints outside a comparison's domain are skipped, not fatal:")
grid = compare_columns("2.1", [0.0, 0.5, 0.9], [(0.3, 0.3, 0.4)])
skipped = [i for i in range(len(grid)) if grid.code[i]]
print(f"  records: {len(grid) - len(skipped)}   skipped: ", end="")
print(", ".join(f"gamma={grid.gamma[i]} ({grid.error(i).code})" for i in skipped))
