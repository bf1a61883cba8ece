"""The causal order does not care which internal frame you compute in.

Rotating both states and the finite Dirac matrix by the same unitary gives a
different-looking problem — off-diagonal Dirac matrix, new component values —
whose verdict must be identical.  The transport check re-diagonalises the
rotated Dirac matrix numerically (its eigenbasis need not reproduce the
rotation) and compares verdicts computed independently in both frames.
"""

import math

import numpy as np

from causalnc import (
    DiracData,
    InternalUnitary,
    PureInternalState,
    PureState,
    SpacetimePoint,
    pure_causal,
)
from causalnc.selftest import unitary_transport_check

dirac = DiracData(-0.4, 0.6)
start = PureState(SpacetimePoint(0.0, 0.0), PureInternalState.from_parallel(0.2, 0.3))
end = PureState(SpacetimePoint(2.2, 0.5), PureInternalState.from_parallel(0.2, 1.9))
print(f"base-frame verdict: related = {pure_causal(start, end, dirac).related}\n")

rng = np.random.default_rng(2024)
print("random internal frames (Haar, seeded):")
for index in range(8):
    u = InternalUnitary.haar_random(rng)
    invariant = unitary_transport_check(start, end, u, dirac)
    print(f"  frame {index}: verdict invariant = {invariant}")

print("\nstructured frames:")
for label, u in [
    ("identity", InternalUnitary.identity()),
    ("parallel rotation by 1.0", InternalUnitary.phase(1.0)),
    ("pole swap (sigma_x)", InternalUnitary.pauli_x()),
    ("quarter rotation about y", InternalUnitary(np.array(
        [[math.cos(math.pi / 4), -math.sin(math.pi / 4)],
         [math.sin(math.pi / 4), math.cos(math.pi / 4)]], dtype=complex))),
]:
    print(f"  {label:28s}: verdict invariant = {unitary_transport_check(start, end, u, dirac)}")
