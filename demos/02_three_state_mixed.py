"""Three states, two of them identified unambiguously, one ambiguously.

Geometry: u0 and u1 are orthogonal to each other but share the same
overlap gamma with u2.  The scheme never confuses u0 with u1 and never
reports u2 by mistake; all the ambiguity is funneled into outcome 2 and
the inconclusive outcome.  Success probability: 1 - 2 gamma^2 (1 - p2).
"""
import numpy as np

from statedisc.montecarlo import brute_force_success
from statedisc.schemes import build_mixed_special

gamma, priors = 0.5, (0.3, 0.3, 0.4)
scheme = build_mixed_special(gamma, priors)

print(f"gamma = {gamma}, priors = {priors}")
print("analytic success:", scheme.analytic_success)
print("pipeline success:", brute_force_success(scheme))

conf = scheme.confusion
labels = [str(lab) for lab in scheme.povm.labels]
print("\nconfusion matrix P(outcome | state):")
print("            " + "  ".join(f"{lab:>12s}" for lab in labels))
for i, row in enumerate(conf):
    print(f"  state {i}:  " + "  ".join(f"{x:12.6f}" for x in row))

print("\nstructural zeros (exact up to roundoff):")
print("  P(identify 1 | state 0) =", conf[0, 1])
print("  P(identify 0 | state 2) =", conf[2, 0])
print("  P(inconclusive | state 2) =", conf[2, 3])

# at gamma = 1/sqrt(2) the pair u0, u1 can no longer be told apart at all
boundary = build_mixed_special(1.0 / np.sqrt(2.0), priors)
conf_b = boundary.confusion
print("\nboundary gamma = 1/sqrt(2):")
print("  success:", boundary.analytic_success)
print("  P(identify 0 | state 0):", conf_b[0, 0])
print("  everything rides on outcome 2 and the inconclusive outcome")
