"""Seeded edge probes: each draws inputs where a verdict is hard to get right and counts the outcomes."""

import math
from collections import Counter

import numpy as np

from causalnc.causality import BOUND_SLACK, PureState, pure_causal
from causalnc.minkowski import SpacetimePoint
from causalnc.states import DiracData, PureInternalState
from strategies import exact_proper_time

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
