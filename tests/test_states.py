import cmath
import math

import numpy as np
import pytest

from causalnc.states import (
    DiracData,
    InternalUnitary,
    MixedInternalState,
    PoleError,
    PureInternalState,
    angular_distance,
    apply_unitary,
    parallel_angle,
    signed_arc,
    wrap_angle,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def states_equal(a: PureInternalState, b: PureInternalState, tol: float = 1e-12) -> bool:
    """Equality of states, i.e. of canonical representatives, within tol."""
    return abs(a.xi1 - b.xi1) <= tol and abs(a.xi2 - b.xi2) <= tol


def test_dirac_gap_and_degeneracy():
    d = DiracData(0.25, -0.75)
    assert d.gap == pytest.approx(1.0)
    assert not d.degenerate
    assert DiracData(1.3, 1.3).degenerate
    assert not DiracData(1.3, 1.3 + 1e-9).degenerate


def test_dirac_gap_must_be_finite():
    # finite eigenvalues whose difference overflows: the gap was inf
    with pytest.raises(ValueError, match="Dirac gap"):
        DiracData(1e308, -1e308)
    assert DiracData(1e308, 0.0).gap == 1e308


def test_latitude_examples():
    assert PureInternalState(1.0, 0.0).z == pytest.approx(1.0)
    assert PureInternalState(INV_SQRT2, INV_SQRT2).z == pytest.approx(0.0, abs=1e-15)
    # |xi1|^2 - |xi2|^2 computed directly: 3/4 - 1/4
    xi = PureInternalState(math.sqrt(3) / 2, 0.5 * cmath.exp(1j * math.pi / 3))
    assert xi.z == pytest.approx(0.5, abs=1e-15)


def test_parallel_angle_examples():
    assert parallel_angle(PureInternalState(INV_SQRT2, INV_SQRT2)) == pytest.approx(0.0)
    assert parallel_angle(PureInternalState(INV_SQRT2, 1j * INV_SQRT2)) == pytest.approx(math.pi / 2)
    xi = PureInternalState(INV_SQRT2, cmath.exp(2.5j) * INV_SQRT2)
    assert parallel_angle(xi) == pytest.approx(2.5, abs=1e-15)


def test_parallel_angle_pole_errors():
    with pytest.raises(PoleError):
        parallel_angle(PureInternalState(1.0, 0.0))
    with pytest.raises(PoleError):
        parallel_angle(PureInternalState(0.0, 1.0))


def test_angular_distance_examples():
    assert angular_distance(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
    assert angular_distance(-3.0, 3.0) == pytest.approx(2 * math.pi - 6.0)
    assert angular_distance(0.0, math.pi) == pytest.approx(math.pi)
    assert angular_distance(2.0, 2.0) == 0.0


def test_wrap_and_signed_arc():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert signed_arc(0.1, 0.4) == pytest.approx(0.3)
    assert signed_arc(3.0, -3.0) == pytest.approx(2 * math.pi - 6.0)


def test_norm_invariant_enforced():
    with pytest.raises(ValueError):
        PureInternalState(1.0, 1.0)
    with pytest.raises(ValueError):
        PureInternalState.from_components(0.0, 0.0)


def test_non_finite_pure_state_is_refused():
    # a NaN Bloch vector passed both norm checks and sat "on the latitude" of any state
    nan = float("nan")
    for make in (
        lambda: PureInternalState.from_bloch(nan, 0.0, 0.0),
        lambda: PureInternalState.from_components(nan, 1.0),
        lambda: PureInternalState(complex(nan, 0.0), 0j),
        lambda: PureInternalState.from_bloch(float("inf"), 0.0, 0.0),
    ):
        with pytest.raises(ValueError):
            make()


def test_gauge_invariance():
    rng = np.random.default_rng(5)
    for _ in range(100):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        base = PureInternalState.from_components(*raw)
        phase = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        rotated = PureInternalState.from_components(*(phase * raw))
        assert states_equal(base, rotated, tol=1e-12)
        assert base.bloch() == pytest.approx(rotated.bloch(), abs=1e-12)


def test_bloch_round_trip_including_poles():
    rng = np.random.default_rng(9)
    for _ in range(100):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        state = PureInternalState.from_bloch(*v)
        assert state.bloch() == pytest.approx(tuple(v), abs=1e-12)
        again = PureInternalState.from_bloch(*state.bloch())
        assert states_equal(state, again, tol=1e-12)
    north = PureInternalState.from_bloch(0.0, 0.0, 1.0)
    south = PureInternalState.from_bloch(0.0, 0.0, -1.0)
    assert states_equal(north, PureInternalState(1.0, 0.0))
    assert states_equal(south, PureInternalState(0.0, 1.0))
    assert north.is_pole and south.is_pole


def test_bloch_norm_is_one():
    rng = np.random.default_rng(21)
    for _ in range(50):
        raw = rng.normal(size=2) + 1j * rng.normal(size=2)
        x, y, z = PureInternalState.from_components(*raw).bloch()
        assert x * x + y * y + z * z == pytest.approx(1.0, abs=1e-12)


def test_apply_unitary_examples():
    xi = PureInternalState.from_parallel(0.0, 0.7)
    assert states_equal(apply_unitary(InternalUnitary.identity(), xi), xi)

    alpha = 1.1
    shifted = apply_unitary(InternalUnitary.phase(alpha), xi)
    assert parallel_angle(shifted) == pytest.approx(wrap_angle(0.7 + alpha))
    assert shifted.z == pytest.approx(0.0, abs=1e-15)

    north = PureInternalState(1.0, 0.0)
    swapped = apply_unitary(InternalUnitary.pauli_x(), north)
    assert states_equal(swapped, PureInternalState(0.0, 1.0))


def test_apply_unitary_composition():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = InternalUnitary.haar_random(rng)
        v = InternalUnitary.haar_random(rng)
        xi = PureInternalState.from_bloch(*_random_unit(rng))
        left = apply_unitary(InternalUnitary(u.u @ v.u), xi)
        right = apply_unitary(u, apply_unitary(v, xi))
        assert states_equal(left, right, tol=1e-10)


def _random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_pure_mixed_bloch_agreement():
    rng = np.random.default_rng(19)
    for _ in range(50):
        state = PureInternalState.from_bloch(*_random_unit(rng))
        mixed = MixedInternalState.from_pure(state)
        assert mixed.norm == pytest.approx(1.0, abs=1e-12)
        assert mixed.parallel_radius == pytest.approx(
            math.hypot(state.bloch()[0], state.bloch()[1]), abs=1e-12
        )


def test_mixed_state_validation():
    with pytest.raises(ValueError):
        MixedInternalState(1.0, 1.0, 0.0)
    ball = MixedInternalState(0.5, 0.1, -0.2)
    assert ball.norm < 1.0 - 1e-12
    assert MixedInternalState(0.0, 0.0, 0.0).norm == 0.0


def test_unitary_validation():
    with pytest.raises(ValueError):
        InternalUnitary(np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex))
    with pytest.raises(ValueError):
        InternalUnitary(np.eye(3, dtype=complex))
