"""The verification battery: the package's 11 acceptance checks, each written once.

The checks are closed-form oracle exactness on a parameter grid, the
necessary conditions, lightlike lockout, witness refutation completeness,
brute-force never-separate runs, the order axioms, mixed/pure consistency,
unitary equivariance, conformal invariance, derivative fidelity of the field
DSL and path-planner feasibility.  Every check takes its generator, counts
and sampler seed from the BATTERY table, which gives two scales:

* full: the acceptance suite (tests/test_acceptance.py), with fixed
  generator seeds 2001-2011 and fixed sampler seeds;
* reduced: the CLI's selftest subcommand, a few seconds long, with a
  generator seeded by (seed, check index) and sampler seeds drawn from it.

Each check reports a name, a pass flag and a short detail string; the
battery passes iff every check does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .causality import (
    MixedState,
    PureState,
    Reason,
    mixed_causal,
    mixed_required_angle,
    plan_causal_path,
    pure_causal,
)
from .cone import ConeMatrix, cone_matrix_at, conformal_rescale_matrix, is_psd
from .fields import BinOp, Call, Num, Pow, Var, jet, parse, to_source
from .minkowski import SpacetimePoint
from .oracle import SamplerConfig, cross_validate_pure, sample_elements
from .states import (
    DiracData,
    InternalUnitary,
    MixedInternalState,
    PureInternalState,
    angular_distance,
    apply_unitary,
    wrap_angle,
)
from .witness import COEFF_POS_TOL, COEFF_ZERO_TOL, MATCH_RTOL, refute_with_witness

D_UNIT = DiracData(0.0, 1.0)


# --- shared samplers -----------------------------------------------------------


def _random_same_latitude_pair(rng, gap, related, z_range=0.8, dtheta_range=(0.2, math.pi - 0.2)):
    """Random same-latitude pure pair, timelike-separated, on either side of the bound."""
    z = rng.uniform(-z_range, z_range)
    theta = rng.uniform(-math.pi, math.pi)
    dtheta = rng.uniform(*dtheta_range)
    factor = rng.uniform(1.05, 1.6) if related else rng.uniform(0.15, 0.92)
    length = factor * dtheta / gap
    v = rng.uniform(-0.6, 0.6)
    t_span = length / math.sqrt(1.0 - v * v)
    p = SpacetimePoint(rng.uniform(-1.2, -0.2), rng.uniform(-0.4, 0.4))
    q = SpacetimePoint(p.t + t_span, p.x + v * t_span)
    return (
        PureState(p, PureInternalState.from_parallel(z, theta)),
        PureState(q, PureInternalState.from_parallel(z, wrap_angle(theta + rng.choice([-1.0, 1.0]) * dtheta))),
    )


def _sampler_config(rng, sampler_seed: Optional[int], n_elements: int) -> SamplerConfig:
    """Sampling plan; a scale without a fixed sampler seed draws one from rng."""
    seed = int(rng.integers(1 << 30)) if sampler_seed is None else sampler_seed
    return SamplerConfig(seed=seed, n_elements=n_elements)


def _parallel_distance(a: PureInternalState, b: PureInternalState) -> float:
    xa, ya, _ = a.bloch()
    xb, yb, _ = b.bloch()
    return angular_distance(math.atan2(ya, xa), math.atan2(yb, xb))


def unitary_transport_check(
    omega: PureState, eta: PureState, u: InternalUnitary, dirac: DiracData
) -> bool:
    """Verdict invariance under a unitary change of internal frame.

    The transformed Dirac matrix U diag(d1,d2) U* is re-diagonalised
    numerically (the eigenbasis need not reproduce U), the transported states
    are expressed in that basis, and the rotated-frame verdict is compared
    with the original one.  Must return True for every unitary.
    """
    base = pure_causal(omega, eta, dirac).related
    df = np.diag([dirac.d1, dirac.d2]).astype(complex)
    transformed = u.u @ df @ u.u.conj().T
    transformed = 0.5 * (transformed + transformed.conj().T)
    eigenvalues, basis = np.linalg.eigh(transformed)
    into_frame = InternalUnitary(basis.conj().T @ u.u)
    rotated = pure_causal(
        PureState(omega.point, apply_unitary(into_frame, omega.internal)),
        PureState(eta.point, apply_unitary(into_frame, eta.internal)),
        DiracData(float(eigenvalues[0]), float(eigenvalues[1])),
    ).related
    return base == rotated


def _random_smooth_expression(rng):
    """A random globally smooth field with moderate derivatives."""

    def coeff(lo=0.2, hi=1.5):
        return Num(round(float(rng.uniform(lo, hi)), 4))

    def linear_arg():
        node = BinOp(
            "+",
            BinOp("*", coeff(), Var("t")),
            BinOp("*", coeff(), Var("x")),
        )
        return BinOp("+", node, coeff(0.0, 2.0))

    def term():
        kind = rng.integers(5)
        if kind == 0:
            return BinOp("*", coeff(), Call(("sin", "cos")[rng.integers(2)], linear_arg()))
        if kind == 1:
            return BinOp("*", coeff(), Call("tanh", linear_arg()))
        if kind == 2:
            return BinOp("*", coeff(), Call("atan", linear_arg()))
        if kind == 3:
            gauss = Call("exp", BinOp("*", Num(0.5), BinOp("+", Pow(Var("t"), 2), Pow(Var("x"), 2))))
            return BinOp("/", coeff(), gauss)
        return BinOp(
            "*", coeff(), BinOp("*", Pow(Var("t"), int(rng.integers(1, 3))), Var("x"))
        )

    node = term()
    for _ in range(int(rng.integers(1, 3))):
        node = BinOp(("+", "-")[rng.integers(2)], node, term())
    return parse(to_source(node))  # round-trips through the grammar


# --- the checks ----------------------------------------------------------------
# Each takes (rng, **sizes) and returns (passed, detail).


def _pure_oracle_grid(_rng, gaps, n) -> tuple[bool, str]:
    t_values = np.linspace(0.0, 3.0, n)
    dx_fractions = np.linspace(-1.0, 1.0, n)
    dthetas = np.linspace(0.0, math.pi, n)
    internals = [PureInternalState.from_parallel(0.0, float(a)) for a in dthetas]
    start = PureState(SpacetimePoint(0.0, 0.0), PureInternalState.from_parallel(0.0, 0.0))
    mismatches = 0
    checked = 0
    for gap in gaps:
        dirac = DiracData(0.0, gap)
        for t_span in t_values:
            for frac in dx_fractions:
                dx = float(frac * t_span)
                q = SpacetimePoint(float(t_span), dx)
                available = math.sqrt(max(t_span**2 - dx**2, 0.0))
                for dtheta, internal in zip(dthetas, internals):
                    required = float(dtheta) / gap
                    got = pure_causal(start, PureState(q, internal), dirac).related
                    checked += 1
                    if abs(available - required) <= 1e-12:
                        continue  # boundary: either decision is within tolerance
                    mismatches += got != (available >= required)
    return mismatches == 0, f"{checked} cases, {mismatches} mismatches"


def _necessary_conditions(rng, n) -> tuple[bool, str]:
    dirac = DiracData(0.2, 1.4)
    bad_latitude = 0
    for _ in range(n):
        z1 = rng.uniform(-0.9, 0.9)
        offset = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.4)
        z2 = float(np.clip(z1 + offset, -0.95, 0.95))
        if abs(z2 - z1) < 1e-6:
            z2 = z1 + 0.01
        a = PureState(
            SpacetimePoint(0, 0), PureInternalState.from_parallel(z1, rng.uniform(-3, 3))
        )
        b = PureState(
            SpacetimePoint(rng.uniform(1, 6), 0),
            PureInternalState.from_parallel(z2, rng.uniform(-3, 3)),
        )
        v = pure_causal(a, b, dirac)
        bad_latitude += v.related or v.reason is not Reason.LATITUDE_MISMATCH

    degenerate = DiracData(0.8, 0.8)
    bad_degenerate = 0
    for _ in range(n):
        z = rng.uniform(-0.9, 0.9)
        th = rng.uniform(-math.pi, math.pi)
        dth = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0)
        a = PureState(SpacetimePoint(0, 0), PureInternalState.from_parallel(z, th))
        b = PureState(
            SpacetimePoint(rng.uniform(1, 6), 0),
            PureInternalState.from_parallel(z, wrap_angle(th + dth)),
        )
        v = pure_causal(a, b, degenerate)
        bad_degenerate += v.related or v.reason is not Reason.DEGENERATE_INTERNAL_CHANGE

    bad_order = 0
    for i in range(n):
        xi = PureInternalState.from_parallel(rng.uniform(-0.9, 0.9), rng.uniform(-3, 3))
        if i % 2:  # spacelike separation
            dt = rng.uniform(-2.0, 2.0)
            dx = (abs(dt) + rng.uniform(0.01, 2.0)) * rng.choice([-1.0, 1.0])
        else:  # past-directed timelike separation
            dt = -rng.uniform(0.01, 2.0)
            dx = rng.uniform(-1.0, 1.0) * abs(dt)
        a = PureState(SpacetimePoint(0, 0), xi)
        b = PureState(SpacetimePoint(dt, dx), xi)
        v = pure_causal(a, b, dirac)
        bad_order += v.related or v.reason is not Reason.SPACETIME_ORDER
    ok = bad_latitude == 0 and bad_degenerate == 0 and bad_order == 0
    return ok, f"failures: latitude {bad_latitude}, degenerate {bad_degenerate}, order {bad_order}"


def _null_lockout(rng, n) -> tuple[bool, str]:
    bad = 0
    for _ in range(n):
        r = rng.uniform(0.2, 4.0)
        side = rng.choice([-1.0, 1.0])
        z = rng.uniform(-0.8, 0.8)
        th = rng.uniform(-math.pi, math.pi)
        dth = rng.choice([-1.0, 1.0]) * rng.uniform(0.02, math.pi - 0.02)
        a = PureState(SpacetimePoint(0, 0), PureInternalState.from_parallel(z, th))
        b = PureState(
            SpacetimePoint(r, side * r), PureInternalState.from_parallel(z, wrap_angle(th + dth))
        )
        bad += pure_causal(a, b, D_UNIT).related
    return bad == 0, f"{bad} bad"


def _witness_refutation(rng, n) -> tuple[bool, str]:
    gaps = (0.5, 1.0, 2.0)
    failures = []
    for i in range(n):
        gap = gaps[i % len(gaps)]
        pair = _random_same_latitude_pair(
            rng, gap, related=False, dtheta_range=(0.1 + 1e-6, math.pi - 0.1 - 1e-6)
        )
        dirac = DiracData(0.0, gap)
        cert = refute_with_witness(pair[0], pair[1], dirac, n_samples=64)
        ok = cert.margin > 0 and cert.psd.passed and len(cert.psd.samples) == 64
        ok = ok and abs(cert.lhs_numeric - cert.lhs) <= MATCH_RTOL * max(1.0, abs(cert.lhs))
        for s in cert.psd.samples:
            # coefficient tolerances scale with the k-th power of the matrix scale
            ok = ok and s.c1 >= -COEFF_POS_TOL * s.scale and s.c2 >= -COEFF_POS_TOL * s.scale**2
            ok = ok and abs(s.c3) <= COEFF_ZERO_TOL * s.scale**3 and abs(s.c4) <= COEFF_ZERO_TOL * s.scale**4
        if not ok:
            failures.append(i)
    return not failures, f"failing indices {failures[:5]}" if failures else "all margins strict"


def _oracle_never_separate(rng, n_pairs, n_elements, sampler_seed=None) -> tuple[bool, str]:
    pairs = []
    while len(pairs) < n_pairs:
        pair = _random_same_latitude_pair(rng, D_UNIT.gap, related=True)
        inside = all(
            -3.0 <= s.point.t <= 3.0 and -3.0 <= s.point.x <= 3.0 for s in pair
        )
        if inside and pure_causal(*pair, D_UNIT).related:
            pairs.append(pair)
    cfg = _sampler_config(rng, sampler_seed, n_elements)
    report = cross_validate_pure(pairs, D_UNIT, sample_elements(cfg, D_UNIT))
    worst = max(c.worst_margin for c in report.pairs)
    return report.sound, f"worst margin {worst:.3e} (tolerance 1e-10)"


def _order_axioms(rng, n) -> tuple[bool, str]:
    reflexivity_bad = 0
    antisymmetry_bad = 0
    antisymmetry_cases = 0
    transitivity_bad = 0
    chains = 0
    for i in range(n):
        z = rng.uniform(-0.85, 0.85)
        t_acc = rng.uniform(-1, 0)
        x_acc = rng.uniform(-0.5, 0.5)
        theta = rng.uniform(-math.pi, math.pi)
        states = []
        for _ in range(3):
            states.append(
                PureState(SpacetimePoint(t_acc, x_acc), PureInternalState.from_parallel(z, theta))
            )
            step = rng.uniform(0.0, 1.5)
            t_acc += step
            x_acc += rng.uniform(-0.7, 0.7) * step
            theta = wrap_angle(theta + rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 1.3))
        a, b, c = states
        if i % 10 == 0:  # keep the mutual-relation branch of antisymmetry non-vacuous
            b = PureState(a.point, a.internal)
        reflexivity_bad += not pure_causal(a, a, D_UNIT).related
        ab = pure_causal(a, b, D_UNIT).related
        ba = pure_causal(b, a, D_UNIT).related
        bc = pure_causal(b, c, D_UNIT).related
        if ab and ba:
            antisymmetry_cases += 1
            antisymmetry_bad += not (
                a.point.almost_equal(b.point)
                and _parallel_distance(a.internal, b.internal) <= 1e-11
            )
        if ab and bc:
            chains += 1
            transitivity_bad += not pure_causal(a, c, D_UNIT).related
    ok = (
        reflexivity_bad == 0
        and antisymmetry_bad == 0
        and antisymmetry_cases > 0
        and transitivity_bad == 0
    )
    return ok, (
        f"{chains} transitive chains, {antisymmetry_cases} mutual pairs, 0 failures"
        if ok
        else f"failures r={reflexivity_bad} a={antisymmetry_bad} t={transitivity_bad}"
    )


def _mixed_pure_consistency(rng, n) -> tuple[bool, str]:
    verdict_mismatch = 0
    angle_mismatch = 0
    for i in range(n):
        pair = _random_same_latitude_pair(rng, D_UNIT.gap, related=bool(i % 2))
        ma = MixedState(pair[0].point, MixedInternalState.from_pure(pair[0].internal))
        mb = MixedState(pair[1].point, MixedInternalState.from_pure(pair[1].internal))
        verdict_mismatch += (
            mixed_causal(ma, mb, D_UNIT).related != pure_causal(*pair, D_UNIT).related
        )
        want = _parallel_distance(pair[0].internal, pair[1].internal)
        got = mixed_required_angle(ma.internal, mb.internal)
        angle_mismatch += abs(got - want) > 1e-8
    ok = verdict_mismatch == 0 and angle_mismatch == 0
    return ok, f"verdict mismatches {verdict_mismatch}, angle mismatches {angle_mismatch}"


def _unitary_equivariance(rng, n) -> tuple[bool, str]:
    """n unitaries against n pairs, every third pair latitude-mismatched."""
    dirac = DiracData(-0.3, 0.9)
    unitaries = [InternalUnitary.haar_random(rng) for _ in range(n)]
    pairs = []
    for i in range(n):
        if i % 3 == 2:
            a = PureState(
                SpacetimePoint(0, 0),
                PureInternalState.from_parallel(rng.uniform(-0.8, 0.8), rng.uniform(-3, 3)),
            )
            b = PureState(
                SpacetimePoint(rng.uniform(0.5, 3), 0),
                PureInternalState.from_parallel(rng.uniform(-0.8, 0.8), rng.uniform(-3, 3)),
            )
            pairs.append((a, b))
        else:
            pairs.append(_random_same_latitude_pair(rng, dirac.gap, related=bool(i % 2)))
    bad = 0
    for u in unitaries:
        for pair in pairs:
            bad += not unitary_transport_check(pair[0], pair[1], u, dirac)
    return bad == 0, f"{bad} flips"


def _conformal_invariance(rng, n_elements, n_matrices, sampler_seed=None) -> tuple[bool, str]:
    """Ten cone matrices per sampled element, topped up with random Hermitian ones."""
    matrices = []
    cfg = _sampler_config(rng, sampler_seed, n_elements)
    for el in sample_elements(cfg, D_UNIT):
        for _ in range(10):
            p = SpacetimePoint(rng.uniform(-2.5, 2.5), rng.uniform(-2.5, 2.5))
            matrices.append(cone_matrix_at(el, D_UNIT, p))
    while len(matrices) < n_matrices:
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        eigs = np.linalg.eigvalsh(h)
        if abs(eigs[0]) < 1e-2:  # keep verdicts away from the tolerance band
            continue
        matrices.append(ConeMatrix(h))
    flips = 0
    for m in matrices:
        base = is_psd(m)
        for omega in (1e-3, 0.5, 1.0, 2.0, 1e3):
            flips += is_psd(conformal_rescale_matrix(m, omega)) != base
    return flips == 0, f"{flips} flips"


def _dsl_derivatives(rng, n_expressions, n_points) -> tuple[bool, str]:
    h = 1e-5
    bad = 0
    total = 0
    for _ in range(n_expressions):
        expr = _random_smooth_expression(rng)
        f = lambda tt, xx: float(jet(expr, tt, xx)[0])
        for _ in range(n_points):
            t = rng.uniform(-1.5, 1.5)
            x = rng.uniform(-1.5, 1.5)
            _, d_dt, d_dx = (float(part) for part in jet(expr, t, x))
            fd_t = (f(t + h, x) - f(t - h, x)) / (2 * h)
            fd_x = (f(t, x + h) - f(t, x - h)) / (2 * h)
            total += 2
            for ad, fd in ((d_dt, fd_t), (d_dx, fd_x)):
                bad += abs(ad - fd) > max(1e-6 * max(abs(ad), abs(fd)), 1e-8)
    return bad == 0, f"{bad}/{total} mismatches"


def _path_planner_prefix(rng, n) -> tuple[bool, str]:
    infeasible = 0
    for _ in range(n):
        pair = _random_same_latitude_pair(rng, D_UNIT.gap, related=True)
        path = plan_causal_path(pair[0], pair[1], D_UNIT, 32)
        for sample in path:
            mid = PureState(sample.point, sample.internal)
            infeasible += not pure_causal(pair[0], mid, D_UNIT).related
            infeasible += not pure_causal(mid, pair[1], D_UNIT).related
    return infeasible == 0, f"{infeasible} infeasible samples"


# --- the table -----------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One battery entry: its function and its sizes at both scales."""

    name: str
    fn: Callable[..., tuple[bool, str]]
    full_seed: int  # generator seed at full scale
    full: dict
    reduced: dict
    quick: bool  # part of the selftest --quick subset


BATTERY = (
    Check("pure_oracle_grid", _pure_oracle_grid, 2001,  # a fixed grid; draws nothing
          dict(gaps=(0.5, 1.0, 2.0, 5.0, 10.0), n=20), dict(gaps=(0.5, 2.0), n=8), True),
    Check("necessary_conditions", _necessary_conditions, 2001, dict(n=1000), dict(n=100), True),
    Check("null_lockout", _null_lockout, 2003, dict(n=100), dict(n=30), True),
    Check("witness_refutation", _witness_refutation, 2004, dict(n=100), dict(n=10), False),
    Check("oracle_never_separate", _oracle_never_separate, 2005,
          dict(n_pairs=100, n_elements=10_000, sampler_seed=50_001),
          dict(n_pairs=20, n_elements=60), True),
    Check("order_axioms", _order_axioms, 2006, dict(n=1000), dict(n=100), True),
    Check("mixed_pure_consistency", _mixed_pure_consistency, 2007, dict(n=1000), dict(n=60), False),
    Check("unitary_equivariance", _unitary_equivariance, 2008, dict(n=100), dict(n=10), False),
    Check("conformal_invariance", _conformal_invariance, 2009,
          dict(n_elements=50, n_matrices=1000, sampler_seed=50_009),
          dict(n_elements=10, n_matrices=200), False),
    Check("dsl_derivatives", _dsl_derivatives, 2010,
          dict(n_expressions=50, n_points=100), dict(n_expressions=8, n_points=50), True),
    Check("path_planner_prefix", _path_planner_prefix, 2011, dict(n=100), dict(n=20), False),
)


def run_check(name: str, full: bool = True, seed: int = 0) -> dict:
    """One check at full scale, or reduced under seed, as {"name", "passed", "detail"}."""
    index, check = next((i, c) for i, c in enumerate(BATTERY) if c.name == name)
    rng = np.random.default_rng(check.full_seed if full else [seed, index])
    try:
        passed, detail = check.fn(rng, **(check.full if full else check.reduced))
    except Exception as err:  # a crashed check is a failed check
        passed, detail = False, f"{type(err).__name__}: {err}"
    return {"name": name, "passed": bool(passed), "detail": detail}


def run_selftest(seed: int = 0, quick: bool = False) -> dict:
    """Run the battery at reduced scale; returns a JSON-ready summary with one entry per check."""
    results = [run_check(c.name, full=False, seed=seed) for c in BATTERY if c.quick or not quick]
    return {
        "seed": seed,
        "quick": quick,
        "passed": all(r["passed"] for r in results),
        "checks": results,
    }
