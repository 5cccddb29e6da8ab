"""The same mixed scheme when the first two states also overlap.

u0 and u1 now have inner product alpha while both keep overlap gamma
with u2.  The success probability is piecewise in alpha with a kink at
alpha = gamma^2, where the two closed forms agree exactly and the
inconclusive outcome drops out of the measurement entirely.
"""
import numpy as np

from statedisc.montecarlo import brute_force_success
from statedisc.schemes import build_mixed_general

gamma, priors = 0.4, (0.3, 0.3, 0.4)
crossover = gamma**2

print(f"gamma = {gamma}, crossover at alpha = gamma^2 = {crossover}")
print(f"{'alpha':>8s}  {'success':>10s}  {'P(inconcl | u0)':>16s}  branch")
for alpha in (0.02, 0.08, 0.14, crossover, 0.20, 0.30, 0.45):
    scheme = build_mixed_general(gamma, alpha, priors)
    conf = scheme.confusion
    print(
        f"{alpha:8.3f}  {scheme.analytic_success:10.6f}  {conf[0, 3]:16.3e}"
        f"  {scheme.branch_note}"
    )

print("\nbelow the crossover the ancilla must absorb extra amplitude, so an")
print("inconclusive outcome appears; above it, alpha itself carries enough")
print("distinguishability loss and the measurement stays four-outcome only")
print("formally (its last element is numerically zero).")

scheme = build_mixed_general(gamma, crossover, priors)
print("\nat the crossover:")
print("  success:", scheme.analytic_success)
print("  pipeline:", brute_force_success(scheme))
print("  low-branch formula: ", 1.0 - (2.0 * gamma**2 - crossover) * (1.0 - priors[2]))
print("  high-branch formula:", 1.0 - crossover * (1.0 - priors[2]))
