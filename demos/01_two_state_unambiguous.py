"""Two nonorthogonal qubit states, identified without ever being wrong.

A unitary couples the qubit to an ancilla qubit so that a projective
measurement either names the prepared state correctly or admits failure.
The failure amplitudes c_plus, c_minus are free up to the constraint
c_plus * conj(c_minus) = <psi_plus|psi_minus>, which lets the failure
budget be shifted toward the less likely state.
"""
import numpy as np

from statedisc.montecarlo import brute_force_success
from statedisc.schemes import build_rra
from statedisc.states import Ket


def pair_with_overlap(s):
    c = np.sqrt((1.0 + s) / 2.0)
    d = np.sqrt((1.0 - s) / 2.0)
    return Ket(np.array([c, d])), Ket(np.array([c, -d]))


overlap = 0.36
plus, minus = pair_with_overlap(overlap)

print("two states with overlap", overlap)

# symmetric split: both states fail with probability overlap
scheme = build_rra(plus, minus, (0.5, 0.5), 0.6, 0.6)
print("\nsymmetric amplitudes c = 0.6:")
print("  analytic success:", scheme.analytic_success)
print("  pipeline success:", brute_force_success(scheme))
conf = scheme.confusion
print("  P(identify wrong state):", max(conf[0, 1], conf[1, 0]))
print("  P(inconclusive | state +):", conf[0, 2])

# asymmetric split: protect the state that is prepared more often
scheme = build_rra(plus, minus, (0.8, 0.2), 0.4, 0.9)
print("\nskewed amplitudes (priors 0.8/0.2, c_plus = 0.4):")
print("  analytic success:", scheme.analytic_success)
conf = scheme.confusion
print("  P(inconclusive | state +):", conf[0, 2])
print("  P(inconclusive | state -):", conf[1, 2])
print("  wrong identifications stay at:", max(conf[0, 1], conf[1, 0]))
