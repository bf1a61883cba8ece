import math
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causalnc.minkowski import (
    EventSeparationError,
    SpacetimePoint,
    causally_precedes,
    lerp,
    max_proper_time,
)
from strategies import exact_proper_time

ORIGIN = SpacetimePoint(0.0, 0.0)

#: Error bound, in ulps of the exact proper time, where (dt - dx)(dt + dx) is a normal float.  In the
#: overflow and underflow branches sqrt(dt - dx) * sqrt(dt + dx) rounds up to four times (dt + dx or
#: dt - dx, both roots and their product), a relative error below 4u, so the bound there is 4 ulps;
#: the largest seen there in 500,000 random separations was 2.13 ulps.
ULPS_NORMAL, ULPS_FALLBACK = 2, 4


def _ulps_from_exact(p: SpacetimePoint, q: SpacetimePoint) -> Decimal:
    """|max_proper_time - exact proper time| in ulps of the exact value rounded to a float."""
    exact = exact_proper_time(p, q)
    return abs(Decimal(max_proper_time(p, q)) - exact) / Decimal(math.ulp(float(exact)))


def _polyline_proper_time(points):
    """Lorentzian length of a polyline: sum of sqrt(dt^2 - dx^2) over its future-directed causal segments."""
    total = 0.0
    for p, q in zip(points, points[1:]):
        dt, dx = q.t - p.t, q.x - p.x
        assert dt > 0.0 and dt >= abs(dx), f"segment {p} -> {q} is not future-directed causal"
        total += math.sqrt(dt * dt - dx * dx)
    return total


def test_causal_order_examples():
    assert causally_precedes(SpacetimePoint(0, 0), SpacetimePoint(1, 0))
    assert not causally_precedes(SpacetimePoint(0, 0), SpacetimePoint(0, 1))
    assert causally_precedes(SpacetimePoint(0, 0), SpacetimePoint(1, 1))
    assert not causally_precedes(SpacetimePoint(1, 0), SpacetimePoint(0, 0))


def test_point_requires_finite_coordinates():
    with pytest.raises(ValueError):
        SpacetimePoint(float("nan"), 0.0)
    with pytest.raises(ValueError):
        SpacetimePoint(0.0, float("inf"))


def test_proper_time_rest_and_null():
    assert max_proper_time(SpacetimePoint(0, 0), SpacetimePoint(2, 0)) == 2.0
    assert max_proper_time(SpacetimePoint(0, 0), SpacetimePoint(1, 1)) == 0.0
    assert max_proper_time(SpacetimePoint(0, 0), SpacetimePoint(1, -1)) == 0.0


def test_proper_time_two_segments():
    # oracle: segment formula applied by hand, sqrt(1 - 0.25) per leg; the bent path is shorter
    expected = 2.0 * math.sqrt(1.0 - 0.25)
    bent = [SpacetimePoint(0, 0), SpacetimePoint(1, 0.5), SpacetimePoint(2, 0)]
    assert _polyline_proper_time(bent) == pytest.approx(expected, abs=1e-15)
    assert _polyline_proper_time(bent) == pytest.approx(1.7320508, abs=1e-7)
    assert max_proper_time(bent[0], bent[-1]) == 2.0


def test_max_proper_time_at_overflowing_and_underflowing_squares():
    origin = SpacetimePoint(0.0, 0.0)
    # dt^2 overflows: once NaN (inf - inf) and inf, now sqrt(dt - dx) * sqrt(dt + dx)
    assert max_proper_time(origin, SpacetimePoint(1e308, 1e307)) == pytest.approx(
        math.sqrt(0.99) * 1e308, rel=1e-15
    )
    assert max_proper_time(origin, SpacetimePoint(1e200, 0.0)) == pytest.approx(1e200, rel=1e-15)
    # dt + |dx| overflows too
    assert max_proper_time(origin, SpacetimePoint(1.5e308, -1e308)) == pytest.approx(
        math.sqrt(1.25) * 1e308, rel=1e-15
    )
    # dt^2 underflows
    assert max_proper_time(origin, SpacetimePoint(3e-170, 1e-170)) == pytest.approx(
        math.sqrt(8.0) * 1e-170, rel=1e-15
    )
    # elsewhere it is sqrt((dt - dx)(dt + dx)), within 2 ulps of the exact proper time
    rng = np.random.default_rng(7)
    for _ in range(200):
        dt = 10.0 ** rng.uniform(-150, 150)
        q = SpacetimePoint(dt, dt * rng.uniform(-1.0, 1.0))
        assert _ulps_from_exact(origin, q) <= ULPS_NORMAL
    with pytest.raises(EventSeparationError, match="event separation"):
        max_proper_time(SpacetimePoint(-1e308, 0.0), SpacetimePoint(1e308, 0.0))
    with pytest.raises(EventSeparationError, match="event separation"):
        max_proper_time(SpacetimePoint(-1e308, -1e308), SpacetimePoint(1e308, 1e308))


@st.composite
def _near_lightlike(draw):
    """(dt, dx): dt from subnormal to 1e300, and 1 - |dx|/dt from 1 down to 1e-300, or a few ulps of dt."""
    dt = draw(st.floats(min_value=5e-324, max_value=1e300))
    if draw(st.booleans()):
        dx = dt * (1.0 - 10.0 ** draw(st.floats(min_value=-300.0, max_value=0.0)))
    else:
        dx = dt
        for _ in range(draw(st.integers(0, 64))):
            dx = math.nextafter(dx, 0.0)
    return dt, dx if draw(st.booleans()) else -dx


@settings(max_examples=500)
@given(_near_lightlike())
@example((1.112709808129998, 1.112709808129995))  # dt^2 - dx^2 was 7e12 ulps off
@example((1.62397411181031e-246, -1.6239741118103052e-246))  # 2.12 ulps off, in the underflow branch
@example((5e-324, 0.0))
@example((1e300, 1e300 * (1.0 - 1e-16)))
def test_max_proper_time_is_within_a_few_ulps_of_the_exact_proper_time(separation):
    dt, dx = separation
    normal = sys.float_info.min <= (dt - dx) * (dt + dx) < math.inf
    assert _ulps_from_exact(ORIGIN, SpacetimePoint(dt, dx)) <= (ULPS_NORMAL if normal else ULPS_FALLBACK)


def test_max_proper_time_examples():
    assert max_proper_time(SpacetimePoint(0, 0), SpacetimePoint(2, 0)) == 2.0
    assert max_proper_time(SpacetimePoint(0, 0), SpacetimePoint(1, 1)) == 0.0
    assert max_proper_time(SpacetimePoint(0, 0), SpacetimePoint(5, 3)) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        max_proper_time(SpacetimePoint(0, 0), SpacetimePoint(0, 1))


def _random_causal_curve(rng, p, q, n_mid):
    """The events of a perturbed causal polyline from p to q, or None when the draw fails."""
    points = [p]
    for k in range(1, n_mid + 1):
        s = k / (n_mid + 1)
        base = lerp(p, q, s)
        jitter_t = rng.uniform(-0.2, 0.2) * (q.t - p.t) / (n_mid + 1)
        jitter_x = rng.uniform(-0.4, 0.4)
        points.append(SpacetimePoint(base.t + jitter_t, base.x + jitter_x))
    points.append(q)
    causal = all(b.t > a.t and b.t - a.t >= abs(b.x - a.x) for a, b in zip(points, points[1:]))
    return points if causal else None


def test_straight_line_maximises_proper_time():
    # oracle for the (0,0)->(5,3) example: no perturbed causal polyline beats 4.0
    rng = np.random.default_rng(42)
    p, q = SpacetimePoint(0, 0), SpacetimePoint(5, 3)
    best = max_proper_time(p, q)
    assert best == pytest.approx(4.0)
    found = 0
    for _ in range(500):
        curve = _random_causal_curve(rng, p, q, rng.integers(1, 4))
        if curve is None:
            continue
        found += 1
        assert _polyline_proper_time(curve) <= best + 1e-12
    assert found > 100
    assert _polyline_proper_time([p, q]) == pytest.approx(best, abs=1e-15)


def _random_point(rng):
    return SpacetimePoint(rng.uniform(-3, 3), rng.uniform(-3, 3))


def test_partial_order_axioms():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b, c = (_random_point(rng) for _ in range(3))
        assert causally_precedes(a, a)
        if causally_precedes(a, b) and causally_precedes(b, a):
            assert a.almost_equal(b)
        if causally_precedes(a, b) and causally_precedes(b, c):
            assert causally_precedes(a, c)


def _random_causal_chain(rng):
    a = _random_point(rng)
    offsets = []
    for _ in range(2):
        dt = rng.uniform(0, 2)
        dx = rng.uniform(-1, 1) * dt
        offsets.append((dt, dx))
    b = SpacetimePoint(a.t + offsets[0][0], a.x + offsets[0][1])
    c = SpacetimePoint(b.t + offsets[1][0], b.x + offsets[1][1])
    return a, b, c


def test_reverse_triangle_inequality():
    rng = np.random.default_rng(11)
    for _ in range(300):
        a, b, c = _random_causal_chain(rng)
        assert max_proper_time(a, c) >= max_proper_time(a, b) + max_proper_time(b, c) - 1e-12


def test_curve_length_bounded_by_max_proper_time():
    rng = np.random.default_rng(13)
    for _ in range(200):
        a, b, _ = _random_causal_chain(rng)
        curve = _random_causal_curve(rng, a, b, 2)
        if curve is None:
            continue
        assert _polyline_proper_time(curve) <= max_proper_time(a, b) + 1e-12


def test_proper_time_additive_under_concatenation():
    # along the straight worldline, the supremum splits at every intermediate event
    rng = np.random.default_rng(17)
    for _ in range(100):
        a, _, c = _random_causal_chain(rng)
        b = lerp(a, c, rng.uniform())
        assert max_proper_time(a, c) == pytest.approx(
            max_proper_time(a, b) + max_proper_time(b, c), abs=1e-12
        )
