"""Edge probes: each runs inputs where a verdict, or what it costs, is hard to get right, and counts the outcomes."""

import math
from collections import Counter

import numpy as np
import pytest

from causalnc import causality
from causalnc.causality import BOUND_SLACK, SPHERE_BAND, MixedState, PureState, mixed_causal, pure_causal
from causalnc.cone import AlgebraElement, RegionGrid, cone_membership
from causalnc.minkowski import SpacetimePoint
from causalnc.states import DiracData, MixedInternalState, PureInternalState, angular_distance
from causalnc.witness import CertificateError, refute_with_witness
from strategies import _reference_membership, exact_proper_time

#: How far past the exact proper time the required angle is set, on either side: ten times BOUND_SLACK.
FLIP_MARGIN = 1e-11


def _flip_probe(seed: int, n: int) -> Counter:
    """Counts over n seeded near-lightlike pure pairs, each decided twice.

    q - p = (dt, dx) with dt ~ U(0.5, 2) and dx = dt*(1 - 10^U(-15, -6)),
    so dt^2 - dx^2 cancels; the gap is 1.  The states lie on the equator
    with the angle dtheta between them, set FLIP_MARGIN below and above the
    exact proper time (tests/strategies.py::exact_proper_time): the pair is
    related at the first and not at the second.  "disagree" counts
    pure_causal verdicts that contradict that, "related" the related ones.
    """
    rng = np.random.default_rng(seed)
    dirac = DiracData(0.0, 1.0)
    omega = PureState(SpacetimePoint(0.0, 0.0), PureInternalState.from_bloch(1.0, 0.0, 0.0))
    counts = Counter()
    for _ in range(n):
        dt = rng.uniform(0.5, 2.0)
        q = SpacetimePoint(dt, dt * (1.0 - 10.0 ** rng.uniform(-15.0, -6.0)))
        tau = float(exact_proper_time(omega.point, q))
        for related, angle in ((True, tau - FLIP_MARGIN), (False, tau + FLIP_MARGIN)):
            eta = PureState(q, PureInternalState.from_bloch(math.cos(angle), math.sin(angle), 0.0))
            verdict = pure_causal(omega, eta, dirac)
            counts["related"] += verdict.related
            counts["disagree"] += verdict.related != related
    return counts


def test_flip_probe_agrees_with_the_exact_proper_time():
    # proper time formed as sqrt(dt*dt - dx*dx) is up to 2.6e-9 off on such pairs,
    # far above BOUND_SLACK, and contradicts 758 of these 4,000 verdicts
    assert FLIP_MARGIN > BOUND_SLACK
    counts = _flip_probe(seed=5, n=2000)
    assert counts["disagree"] == 0 and counts["related"] == 2000


def _flat_minimum_probe(n: int) -> Counter:
    """Counts for cone_membership on an n x n grid of [-3, 3]^2, on a diagonal flat up to rounding beyond the exact range.

    a = 1e150*(2.1*t + 0.5*tanh(t + x)), b = 1e150*(1.9*t + 0.4*tanh(t - x))
    and c = 0: b_t + b_x is 1.9e150 in exact arithmetic at every node, so
    the smallest entry is flat up to rounding over much of the grid, and the
    entries lie above EXACT_DIAGONAL_MAX, so the general path reports the
    grid.  "disagree" counts a report that differs from the eigvalsh
    reference, "eigvalsh_rows" the matrices cone_membership diagonalises.
    """
    el = AlgebraElement.from_sources("1e150*(2.1*t + 0.5*tanh(t + x))", "1e150*(1.9*t + 0.4*tanh(t - x))")
    grid, dirac = RegionGrid(-3.0, 3.0, -3.0, 3.0, n, n), DiracData(0.0, 1.0)
    reference = _reference_membership(el, dirac, grid).to_dict()
    counts, eigvalsh = Counter(), np.linalg.eigvalsh

    def counting(mats):
        counts["eigvalsh_rows"] += len(mats)
        return eigvalsh(mats)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", counting)
        report = cone_membership(el, dirac, grid).to_dict()
    counts["disagree"] += report != reference
    return counts


def test_flat_minimum_probe_beyond_the_exact_range():
    # an open defect, pinned as it stands: every node of the flat region goes
    # to eigvalsh (54,848 rows at 401^2), although eigvalsh's value there is
    # needed only where d lies within a few ulps of its minimum.  A fix shows
    # as a lower count
    counts = _flat_minimum_probe(101)
    assert counts["disagree"] == 0 and counts["eigvalsh_rows"] == 3559


#: Smallest 1 - |r|^2 of the near-sphere probe, just above SPHERE_BAND (1.42e-14).
NEAR_SPHERE = 2e-14


def _near_sphere_probe(seed: int, n: int) -> Counter:
    """Counts over n seeded same-latitude mixed pairs just inside the sphere.

    Each state has 1 - |r|^2 log-uniform from NEAR_SPHERE to 1e-9, and the
    pair lies pi - 10^U(-4, 0.46) apart along the parallel.  Every other
    worldline ends between the supremum and the angular distance, where the
    sphere's rule and the supremum disagree; the rest end within 10% of the
    supremum.  "disagree" counts verdicts that differ from _mixed_angle_sup
    by more than BOUND_SLACK; each refused pair counts as "certified" or
    under the name of the error refute_with_witness raised.
    """
    rng = np.random.default_rng(seed)
    dirac = DiracData(0.0, 1.0)
    counts = Counter()
    for k in range(n):
        z, t_a = rng.uniform(-0.9, 0.9), rng.uniform(-math.pi, math.pi)
        states = []
        for theta in (t_a, t_a + rng.choice((1.0, -1.0)) * (math.pi - 10.0 ** rng.uniform(-4.0, 0.46))):
            deficit = 10.0 ** rng.uniform(math.log10(NEAR_SPHERE), -9.0)
            r = math.sqrt(1.0 - deficit - z * z)
            states.append(MixedInternalState(r * math.cos(theta), r * math.sin(theta), z))
        sup = causality._mixed_angle_sup(*states)[0]
        far = angular_distance(states[0].parallel_angle, states[1].parallel_angle)
        tau = sup + rng.random() * (far - sup) if k % 2 else sup * rng.uniform(0.9, 1.1)
        omega, eta = MixedState(SpacetimePoint(0.0, 0.0), states[0]), MixedState(SpacetimePoint(tau, 0.0), states[1])
        verdict = mixed_causal(omega, eta, dirac)
        available = verdict.bound_available
        counts["disagree"] += abs(available - sup) > BOUND_SLACK and verdict.related != (available > sup)
        if not verdict.related:
            try:
                refute_with_witness(omega, eta, dirac, n_samples=16)
                counts["certified"] += 1
            except (ValueError, CertificateError) as err:
                counts[type(err).__name__] += 1
    return counts


def test_near_sphere_probe_agrees_with_the_supremum_and_refuses_by_name():
    # a sphere band as wide as NORM_TOL (1e-12) gives 11 disagreements here, each a false certificate
    assert SPHERE_BAND < NEAR_SPHERE
    counts = _near_sphere_probe(seed=2, n=200)
    assert counts["disagree"] == 0 and counts["certified"] > 50
    assert "CertificateError" not in counts and "ValueError" not in counts  # every refusal is named
