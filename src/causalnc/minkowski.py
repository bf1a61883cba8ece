"""Flat 1+1-dimensional Minkowski geometry.

Events, the classical causal order and proper time.  max_proper_time is
the proper time of the straight worldline between two events, the one the
witness certificates are built on.  Metric signature is (-,+), so the
interval between nearby events is ``dt**2 - dx**2`` and an event q is in
the causal future of p exactly when ``q.t - p.t >= |q.x - p.x|``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

#: Absolute tolerance for event equality.
COORD_TOL = 1e-12
#: Smallest normal float: below it (dt - dx)(dt + dx) has lost precision to underflow.
_SQUARE_MIN = sys.float_info.min


class EventSeparationError(ValueError):
    """The separation q - p of two finite events is beyond the largest float."""


@dataclass(frozen=True)
class SpacetimePoint:
    """An event (t, x); both coordinates must be finite."""

    t: float
    x: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError(f"event coordinates must be finite, got ({self.t}, {self.x})")

    def almost_equal(self, other: "SpacetimePoint") -> bool:
        return abs(self.t - other.t) <= COORD_TOL and abs(self.x - other.x) <= COORD_TOL


def causally_precedes(p: SpacetimePoint, q: SpacetimePoint) -> bool:
    """Classical causal order: q lies in the closed future light cone of p."""
    dt = q.t - p.t
    return dt >= 0.0 and dt >= abs(q.x - p.x)


def max_proper_time(p: SpacetimePoint, q: SpacetimePoint) -> float:
    """Supremum of the proper time over causal curves from p to q.

    In flat 2D Minkowski space the straight timelike segment maximises proper
    time (reverse triangle inequality), so this is sqrt(dt^2 - dx^2), formed
    as sqrt((dt - dx)(dt + dx)): dt - dx is exact near the light cone
    (Sterbenz), where dt^2 - dx^2 cancels.  Where that product overflows or
    underflows it is sqrt(dt - dx) * sqrt(dt + dx) instead, on halved
    coordinates where dt + |dx| overflows.
    Raises EventSeparationError when dt or dx is beyond the largest float,
    and ValueError when q is not in the causal future of p.
    """
    dt = q.t - p.t
    dx = q.x - p.x
    if not (math.isfinite(dt) and math.isfinite(dx)):
        raise EventSeparationError(
            f"event separation ({dt}, {dx}) is not finite: ({p.t},{p.x}) -> ({q.t},{q.x})"
        )
    if not causally_precedes(p, q):
        raise ValueError(f"events are not causally ordered: ({p.t},{p.x}) -> ({q.t},{q.x})")
    product = (dt - dx) * (dt + dx)
    if _SQUARE_MIN <= product < math.inf:
        return math.sqrt(product)
    if dt + abs(dx) < math.inf:
        return math.sqrt(dt - dx) * math.sqrt(dt + dx)
    return 2.0 * math.sqrt(0.5 * dt - 0.5 * dx) * math.sqrt(0.5 * dt + 0.5 * dx)


def lerp(p: SpacetimePoint, q: SpacetimePoint, s: float) -> SpacetimePoint:
    """Affine interpolation between two events."""
    return SpacetimePoint(p.t + s * (q.t - p.t), p.x + s * (q.x - p.x))
