"""The three benchmark workloads: seeded inputs, one operation, outside checks.

Every workload is a fixed list of operations built from the seed alone; a
pass runs the list once, in order, with one client waiting for each reply.
The cost structure of a pass (families, grid sizes, certificate paths) is
the same for every seed, and the seed drives only the continuous parameters,
so runs with different seeds measure the same amount of work.

Each result is checked by code here, not by the package: verdicts against
the closed-form bound recomputed from the inputs, certificates by their
margin and PSD flag, cone reports against membership worked out from
analytic derivatives, and sampled elements by an independent evaluation of
their sources.  A failed check is counted, never dropped.  Failures that
match a documented baseline defect of the package are labelled with that
defect's name (see NOTES.md); any other failure makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from causalnc import causality, cli, oracle, witness
from causalnc.causality import MixedState, PureState
from causalnc.fields import to_source
from causalnc.minkowski import SpacetimePoint
from causalnc.states import DiracData, MixedInternalState, PureInternalState

SCHEMA = "causalnc/1"
PSD_TOL = 1e-9
WITNESS_SAMPLES = 64
# Inputs are drawn so that no decision lies within this distance of a
# threshold; checks then cannot disagree with the package over rounding.
GUARD = 1e-7


@dataclass(frozen=True)
class Raised:
    """An operation that raised instead of returning."""

    exc: BaseException


@dataclass(frozen=True)
class Outcome:
    ok: bool
    known: Optional[str] = None  # documented baseline defect explaining a failure
    detail: str = ""
    certificate: bool = False  # the operation had to produce a certificate


OK = Outcome(True)


def attempt(run, i: int):
    """run(i), or the exception it raised; a raised operation is checked like any other."""
    try:
        return run(i)
    except Exception as exc:
        return Raised(exc)


def _fail(detail: str, known: Optional[str] = None, certificate: bool = False) -> Outcome:
    return Outcome(False, known, detail, certificate)


def _reason(verdict) -> str:
    return getattr(verdict.reason, "value", verdict.reason)


def _wrap(theta: float) -> float:
    return (theta + math.pi) % (2.0 * math.pi) - math.pi


def _available(p: SpacetimePoint, q: SpacetimePoint) -> float:
    dt, dx = q.t - p.t, q.x - p.x
    return math.sqrt(dt * dt - dx * dx) if dt > 0.0 and dt * dt > dx * dx else -1.0


def _timelike_pair(rng, required: float, gap: float, related: bool, u: float):
    """Events whose proper time is a factor clear of required / gap (criterion 5 ranges).

    u in [0, 1) places the factor inside its range.
    """
    lo, hi = (1.05, 1.6) if related else (0.15, 0.92)
    factor = lo + u * (hi - lo)
    length = factor * required / gap
    v = rng.uniform(-0.6, 0.6)
    t_span = length / math.sqrt(1.0 - v * v)
    p = SpacetimePoint(rng.uniform(-1.2, -0.2), rng.uniform(-0.4, 0.4))
    return p, SpacetimePoint(p.t + t_span, p.x + v * t_span)


class Workload:
    """A fixed operation list: run(i) is one timed operation, check(i, result) judges it."""

    name = ""
    n_ops = 0

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> Outcome:
        raise NotImplementedError

    def end_check(self, results: list) -> Outcome:
        """A check over the whole pass, after the per-operation ones."""
        return OK


# --- an evaluator for DSL sources that shares no code with the package --------

_NAMESPACE = {
    "__builtins__": {},
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "tanh": np.tanh,
    "atan": np.arctan,
    "csc": lambda u: 1.0 / np.sin(u),
}


def field_function(source: str):
    """Vectorised f(t, x) for a rendered DSL source (^ binds like Python's **)."""
    code = compile(source.replace("^", "**"), "<field>", "eval")
    return lambda t, x: eval(code, _NAMESPACE, {"t": t, "x": x}) + 0.0 * t


def cone_min_eigs(jets, delta: float) -> np.ndarray:
    """Smallest eigenvalue of the 4x4 cone matrix at each node, from field jets."""
    a_t, a_x, b_t, b_x, c, c_t, c_x = jets
    m = np.zeros((a_t.shape[0], 4, 4), dtype=complex)
    m[:, 0, 0], m[:, 1, 1] = a_t + a_x, a_t - a_x
    m[:, 2, 2], m[:, 3, 3] = b_t + b_x, b_t - b_x
    m[:, 0, 2], m[:, 1, 3] = -(c_t + c_x), -(c_t - c_x)
    m[:, 0, 3], m[:, 1, 2] = -delta * c, delta * c
    m = m + np.conj(np.transpose(m, (0, 2, 1))) - np.eye(4) * m  # add the lower triangle; keep the real diagonal once
    scale = np.maximum(1.0, np.abs(m).reshape(len(m), -1).max(axis=1))
    return np.linalg.eigvalsh(m)[:, 0] / scale


# --- crossval -------------------------------------------------------------------


class Crossval(Workload):
    """Criterion-5 stream: certified causal elements, checked against related pairs."""

    name = "crossval"
    OPS_PER_PASS = 400
    N_PAIRS = 100
    SPOT_NODES = 8
    FD_STEP = 1e-5

    def __init__(self, seed: int) -> None:
        self.dirac = DiracData(0.0, 1.0)
        self.cfg = oracle.SamplerConfig(seed=50_000 + seed, n_elements=self.OPS_PER_PASS)
        rng = np.random.default_rng([seed, 5])
        self.pairs = []
        while len(self.pairs) < self.N_PAIRS:
            z = rng.uniform(-0.8, 0.8)
            theta = rng.uniform(-math.pi, math.pi)
            dtheta = rng.uniform(0.2, math.pi - 0.2)
            p, q = _timelike_pair(rng, dtheta, self.dirac.gap, True, rng.uniform())
            sign = rng.choice([-1.0, 1.0])
            inside = all(-3.0 <= s.t <= 3.0 and -3.0 <= s.x <= 3.0 for s in (p, q))
            if inside and _available(p, q) >= dtheta / self.dirac.gap:
                self.pairs.append(
                    (
                        PureState(p, PureInternalState.from_parallel(z, theta)),
                        PureState(q, PureInternalState.from_parallel(z, _wrap(theta + sign * dtheta))),
                    )
                )
        states = [s for pair in self.pairs for s in pair]
        self.pair_t = np.array([s.point.t for s in states])
        self.pair_x = np.array([s.point.x for s in states])
        self.w1 = np.array([abs(s.internal.xi1) ** 2 for s in states])
        self.w2 = np.array([abs(s.internal.xi2) ** 2 for s in states])
        self.cross = np.array([s.internal.xi1.conjugate() * s.internal.xi2 for s in states])
        self.spot_t = rng.uniform(-3.0, 3.0, self.SPOT_NODES)
        self.spot_x = rng.uniform(-3.0, 3.0, self.SPOT_NODES)
        self.n_ops = self.OPS_PER_PASS

    def warmup(self) -> None:
        for k in range(4):
            self.check(k, attempt(self.run, k))

    def run(self, i: int):
        return oracle.sample_causal_element(self.cfg, i, self.dirac)

    def check(self, i: int, result) -> Outcome:
        if isinstance(result, Raised):
            return _fail(f"element {i} raised {type(result.exc).__name__}: {result.exc}")
        fns = [field_function(to_source(e)) for e in (result.a, result.b, result.c_re, result.c_im)]
        # pairing inequality on every related pair: omega(a) - eta(a) <= tol
        a, b, cr, ci = (f(self.pair_t, self.pair_x) for f in fns)
        values = self.w1 * a + self.w2 * b - 2.0 * (self.cross * (cr + 1j * ci)).real
        worst = float((values[0::2] - values[1::2]).max())
        if worst > 1e-9:
            return _fail(f"element {i} separates a related pair by {worst:.3e}")
        # cone matrix at off-grid nodes, partials by central differences
        t, x, h = self.spot_t, self.spot_x, self.FD_STEP
        jets = []
        for f in fns:
            jets.append(((f(t + h, x) - f(t - h, x)) / (2 * h), (f(t, x + h) - f(t, x - h)) / (2 * h), f(t, x)))
        (a_t, a_x, _), (b_t, b_x, _), (r_t, r_x, r), (i_t, i_x, im) = jets
        jet = (a_t, a_x, b_t, b_x, r + 1j * im, r_t + 1j * i_t, r_x + 1j * i_x)
        low = float(cone_min_eigs(jet, self.dirac.d1 - self.dirac.d2).min())
        if low < -1e-6:
            return _fail(f"element {i} leaves the cone off the grid (scaled eigenvalue {low:.3e})")
        return OK

    def end_check(self, results: list) -> Outcome:
        elements = [r for r in results if not isinstance(r, Raised)]
        report = oracle.cross_validate_pure(self.pairs, self.dirac, elements=elements)
        statuses = {getattr(p.status, "value", p.status) for p in report.pairs}
        if not report.sound or statuses != {"CONSISTENT"}:
            return _fail(f"cross_validate_pure: sound={report.sound}, statuses={sorted(statuses)}")
        return OK


# --- mixed_witness -----------------------------------------------------------------

_SCAN = np.linspace(0.0, 2.0 * math.pi, 2048, endpoint=False)


def _arc_gap(theta: float, ra: float, ta: float, rb: float, tb: float) -> float:
    ua = max(-1.0, min(1.0, ra * math.cos(ta + theta)))
    ub = max(-1.0, min(1.0, rb * math.cos(tb + theta)))
    return abs(math.acos(ub) - math.acos(ua))


def mixed_required_angle(ra: float, ta: float, rb: float, tb: float) -> float:
    """sup over theta of |acos(rb cos(tb+theta)) - acos(ra cos(ta+theta))|.

    Dense scan, then golden-section refinement of the four highest local
    maxima; written independently of causalnc.causality.
    """
    ua = np.clip(ra * np.cos(ta + _SCAN), -1.0, 1.0)
    ub = np.clip(rb * np.cos(tb + _SCAN), -1.0, 1.0)
    values = np.abs(np.arccos(ub) - np.arccos(ua))
    peaks = np.nonzero((values >= np.roll(values, 1)) & (values >= np.roll(values, -1)))[0]
    best = float(values.max())
    step = _SCAN[1]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    for k in peaks[np.argsort(values[peaks])][-4:]:
        lo, hi = _SCAN[k] - step, _SCAN[k] + step
        while hi - lo > 1e-12:
            c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
            if _arc_gap(c, ra, ta, rb, tb) > _arc_gap(d, ra, ta, rb, tb):
                hi = d
            else:
                lo = c
        best = max(best, _arc_gap(0.5 * (lo + hi), ra, ta, rb, tb))
    return best


@dataclass(frozen=True)
class PairOp:
    mixed: bool
    related: bool
    omega: Any
    eta: Any
    dirac: DiracData
    required: float  # angle the pair demands, computed here
    dtheta: float  # angular gap of the parallel angles
    unit: bool  # mixed pair built from pure states


class MixedWitness(Workload):
    """Verdicts on same-latitude pairs plus a certificate for each speed-bound refusal."""

    name = "mixed_witness"
    # (mixed, related) of six consecutive pairs: related and non-related pairs
    # interleave, and so do pure and mixed ones.  A third of the operations are
    # fast pure verdicts, a third mixed verdicts and a third certificates, so
    # the median operation is the middle mixed verdict and the slowest tenth
    # are certificates: latency_p50_ms follows the mixed oracle, the tail the
    # witness.
    SLOTS = ((False, True), (False, False), (True, True), (True, False), (True, True), (False, True))
    OPS_PER_PASS = 600
    GAPS = (0.5, 1.0, 2.0)
    DTHETA = (0.1 + 1e-6, math.pi - 0.1 - 1e-6)  # the witness' accepted range (criterion 4)
    FACTOR_STRATA = 4

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 7])
        n = self.OPS_PER_PASS
        # Within each (mixed, related) group the angular gap and the proper-time
        # factor are stratified jointly, one pair per cell of a grid, so every
        # seed puts the same number of pairs in each part of that plane; the
        # witness' known failures depend on where pairs fall in it.
        lo, hi = self.DTHETA
        sizes = Counter(self.SLOTS[i % len(self.SLOTS)] for i in range(n))
        cells = {}
        for key, size in sizes.items():
            rows, cols = size // self.FACTOR_STRATA, self.FACTOR_STRATA
            grid = [
                (lo + (r + rng.uniform()) / rows * (hi - lo), (c + rng.uniform()) / cols)
                for r in range(rows)
                for c in range(cols)
            ]
            cells[key] = iter(rng.permutation(grid))
        self.ops: list[PairOp] = []
        for i in range(n):
            mixed, related = self.SLOTS[i % len(self.SLOTS)]
            dtheta, u = (float(v) for v in next(cells[mixed, related]))
            gap = self.GAPS[(i // len(self.SLOTS)) % len(self.GAPS)]
            z = rng.uniform(-0.8, 0.8)
            ta = rng.uniform(-math.pi, math.pi)
            tb = _wrap(ta + rng.choice([-1.0, 1.0]) * dtheta)
            unit = mixed and (i // len(self.SLOTS)) % 4 == 0  # a quarter of the mixed pairs sit on the sphere
            if not mixed or unit:
                required = dtheta
                xa, xb = PureInternalState.from_parallel(z, ta), PureInternalState.from_parallel(z, tb)
            else:
                ra, rb = rng.uniform(0.02, 1.0, size=2)
                w = math.sqrt(1.0 - z * z)
                required = mixed_required_angle(ra, ta, rb, tb)
                xa = MixedInternalState(ra * w * math.cos(ta), ra * w * math.sin(ta), z)
                xb = MixedInternalState(rb * w * math.cos(tb), rb * w * math.sin(tb), z)
            if unit:
                xa, xb = MixedInternalState.from_pure(xa), MixedInternalState.from_pure(xb)
            p, q = _timelike_pair(rng, required, gap, related, u)
            state = MixedState if mixed else PureState
            self.ops.append(
                PairOp(mixed, related, state(p, xa), state(q, xb), DiracData(0.0, gap), required, dtheta, unit)
            )
        self.n_ops = n

    def warmup(self) -> None:
        for k in range(8):
            self.check(k, attempt(self.run, k))

    def run(self, i: int):
        op = self.ops[i]
        if op.mixed:
            verdict = causality.mixed_causal(op.omega, op.eta, op.dirac)
            if _reason(verdict) != "SPEED_BOUND":
                return verdict, None
            spec = witness.build_mixed_witness(op.omega, op.eta, op.dirac)
            lhs, rhs = witness.separation_values(spec)
            return verdict, (rhs - lhs, witness.certify_witness_psd(spec, WITNESS_SAMPLES))
        verdict = causality.pure_causal(op.omega, op.eta, op.dirac)
        if _reason(verdict) != "SPEED_BOUND":
            return verdict, None
        cert = witness.refute_with_witness(op.omega, op.eta, op.dirac, n_samples=WITNESS_SAMPLES)
        return verdict, (cert.margin, cert.psd)

    def check(self, i: int, result) -> Outcome:
        op = self.ops[i]
        needs_cert = not op.related
        kind = f"{'mixed' if op.mixed else 'pure'} pair {i} (dtheta {op.dtheta:.3f})"
        if isinstance(result, Raised):
            msg = str(result.exc)
            known = None
            if (
                not op.mixed
                and isinstance(result.exc, AssertionError)
                and msg.startswith("integrated lhs")
                and op.dtheta > 2.6
            ):
                known = "witness-simpson-lhs"
            if op.unit and isinstance(result.exc, ValueError) and msg.startswith("projected angles touch"):
                known = "mixed-witness-edge-argmax"
            return _fail(f"{kind} raised {type(result.exc).__name__}: {msg[:120]}", known, needs_cert)
        verdict, cert = result
        expected = _available(op.omega.point, op.eta.point) >= op.required / op.dirac.gap
        if expected != op.related:  # the generator's factor keeps pairs off the boundary
            return _fail(f"{kind}: generated pair is not clear of the bound", None, needs_cert)
        if bool(verdict.related) != expected:
            return _fail(f"{kind}: verdict {verdict.related}, bound says {expected}", None, needs_cert)
        if not needs_cert:
            return OK
        if _reason(verdict) != "SPEED_BOUND" or cert is None:
            return _fail(f"{kind}: refusal reason {_reason(verdict)}", None, True)
        margin, psd = cert
        if not (margin > 0.0 and psd.passed and len(psd.samples) == WITNESS_SAMPLES):
            return _fail(f"{kind}: certificate rejected (margin {margin}, psd {psd.passed})", None, True)
        return Outcome(True, certificate=True)


# --- cone_report ------------------------------------------------------------------

DIRAC_JSON = {"d1": 0.0, "d2": 1.0}
_NODE = re.compile(r"grid node \(t=([^,]+), x=([^)]+)\)")


def _f(value) -> str:
    return repr(float(value))


def _shifted(var: str, at: float) -> str:
    return f"({var} - {_f(at)})" if at >= 0.0 else f"({var} + {_f(-at)})"


def _shift(values: np.ndarray, at: float) -> np.ndarray:
    # the same floating-point operation as the rendered source
    return values - at if at >= 0.0 else values + (-at)


@dataclass
class Grid:
    t_min: float
    t_max: float
    x_min: float
    x_max: float
    n: int

    def arg(self) -> str:
        return f"--grid={_f(self.t_min)},{_f(self.t_max)},{_f(self.x_min)},{_f(self.x_max)},{self.n},{self.n}"

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linspace(self.t_min, self.t_max, self.n), np.linspace(self.x_min, self.x_max, self.n)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        t, x = self.axes()
        tt, xx = np.meshgrid(t, x, indexing="ij")
        return tt.ravel(), xx.ravel()

    def node(self, index: int) -> tuple[float, float]:
        i, j = divmod(index, self.n)
        return (
            self.t_min + (self.t_max - self.t_min) * i / (self.n - 1),
            self.x_min + (self.x_max - self.x_min) * j / (self.n - 1),
        )


@dataclass
class ConeOp:
    kind: str
    grid: Grid
    element: dict
    exit_code: int
    node: Optional[tuple[float, float]] = None  # first violation, or the refused node
    n_violations: Optional[int] = None
    min_eigenvalue: Optional[float] = None
    argv: list = field(default_factory=list)


def _diagonal_report(grid: Grid, entries) -> tuple[Optional[int], int, float, float]:
    """(first violating index, violations, min eigenvalue, closest approach of a node to the threshold)."""
    stack = np.stack(entries)
    low = stack.min(axis=0)
    scale = np.maximum(1.0, np.abs(stack).max(axis=0))
    bad = low < -PSD_TOL * scale
    first = int(np.argmax(bad)) if bad.any() else None
    return first, int(bad.sum()), float(low.min()), float(np.abs(low + PSD_TOL * scale).min())


class ConeReport(Workload):
    """`causalnc cone-check` in-process on 101^2..401^2 grids."""

    name = "cone_report"
    # (kind, grid side); the same table for every seed.  Costs form tiers
    # (refused < 101^2 < 201^2 and 101^2 lemma < 301^2 < 401^2 < large lemma),
    # sized so that the median and the tail of the 36 operations fall inside
    # a tier rather than on the edge between two.
    TABLE = (
        [("refused_sqrt", n) for n in (101, 201, 301)]
        + [("refused_log", n) for n in (101, 201, 401)]
        + [("overflow", 101)]
        + [(kind, 101) for kind in ("causal_diag", "nonmember_bump") for _ in range(2)]
        + [("near_member", 101), ("near_nonmember", 101)]
        + [("causal_lemma", 101)] * 2
        + [(kind, 201) for kind in ("causal_diag", "nonmember_bump") for _ in range(2)]
        + [("near_member", 201), ("near_nonmember", 201)]
        + [(kind, 301) for kind in ("causal_diag", "nonmember_bump") for _ in range(3)]
        + [(kind, 301) for kind in ("near_member", "near_nonmember") for _ in range(2)]
        + [(kind, 401) for kind in ("causal_diag", "nonmember_bump", "near_nonmember")]
        + [("causal_lemma", 301), ("causal_lemma", 401)]
    )

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 11])
        self.ops = [getattr(self, f"_{kind}")(rng, n) for kind, n in self.TABLE]
        self.ops = [self.ops[k] for k in rng.permutation(len(self.ops))]
        for op in self.ops:
            payload = json.dumps({"element": op.element, "dirac": DIRAC_JSON})
            op.argv = ["cone-check", op.grid.arg(), "--input", payload]
        self.n_ops = len(self.ops)
        self.split_op = next(
            k for k, op in enumerate(self.ops) if op.kind == "causal_lemma" and op.grid.n == 401
        )

    # inputs ---------------------------------------------------------------

    @staticmethod
    def _grid(rng, n: int) -> Grid:
        t0, t1, x0, x1 = rng.uniform(0.0, 0.5, size=4)
        return Grid(-3.0 + t0, 3.0 - t1, -3.0 + x0, 3.0 - x1, n)

    @staticmethod
    def _element(a: str, b: str, c_re: str = "0", c_im: str = "0") -> dict:
        return {"a": a, "b": b, "c": {"re": c_re, "im": c_im}}

    def _diagonal(self, kind: str, grid: Grid, a: str, b: str, entries) -> Optional[ConeOp]:
        first, count, low, distance = _diagonal_report(grid, entries)
        if distance <= GUARD:
            return None
        return ConeOp(
            kind,
            grid,
            self._element(a, b),
            0 if first is None else 1,
            None if first is None else grid.node(first),
            count,
            low,
        )

    def _causal_diag(self, rng, n: int) -> ConeOp:
        grid = self._grid(rng, n)
        t, x = grid.mesh()
        sources, entries = [], []
        for _ in range(2):
            beta, gamma, extra = rng.uniform(0.05, 1.5, size=3)
            alpha = beta + gamma + extra
            sources.append(f"{_f(alpha)}*t + {_f(beta)}*tanh(t + x) + {_f(gamma)}*tanh(t - x)")
            s1, s2 = 1.0 - np.tanh(t + x) ** 2, 1.0 - np.tanh(t - x) ** 2
            entries += [alpha + 2.0 * beta * s1, alpha + 2.0 * gamma * s2]
        return self._diagonal("causal_diag", grid, sources[0], sources[1], entries)

    def _causal_lemma(self, rng, n: int) -> ConeOp:
        # equal diagonal dominating a bounded Gaussian wave: causal everywhere
        grid = self._grid(rng, n)
        amp, freq, phase = rng.uniform(0.02, 0.3), rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0 * math.pi)
        slope = 1.05 * amp * (2.0 * math.sqrt(2.0 / math.e) + freq + 1.0)
        env = "exp(-(t^2 + x^2))"
        wave = f"{_f(freq)}*t + {_f(phase)}"
        element = self._element(
            f"{_f(slope)}*t", f"{_f(slope)}*t", f"{_f(amp)}*{env}*cos({wave})", f"{_f(amp)}*{env}*sin({wave})"
        )
        return ConeOp("causal_lemma", grid, element, 0, None, 0)

    def _nonmember_bump(self, rng, n: int) -> ConeOp:
        while True:
            grid = self._grid(rng, n)
            t, x = grid.mesh()
            amp, width = rng.uniform(1.5, 3.0), rng.uniform(0.3, 1.0)
            t0, x0 = rng.uniform(-1.5, 1.5, size=2)
            st, sx = _shift(t, t0), _shift(x, x0)
            bump = np.exp(-(st**2.0 + sx**2.0) / width)
            b_t, b_x = 1.0 + amp * 2.0 * st / width * bump, amp * 2.0 * sx / width * bump
            b = f"t - {_f(amp)}*exp(-({_shifted('t', t0)}^2 + {_shifted('x', x0)}^2)/{_f(width)})"
            ones = np.ones_like(t)
            op = self._diagonal("nonmember_bump", grid, "t", b, [ones, ones, b_t + b_x, b_t - b_x])
            if op is not None and op.exit_code == 1:
                return op

    def _near(self, kind: str, rng, n: int) -> ConeOp:
        # a_t -/+ a_x = 1 -/+ beta sech^2(x - x0) with x0 on a grid column:
        # the smallest eigenvalue is 1 - beta, a hair either side of zero
        while True:
            grid = self._grid(rng, n)
            t, x = grid.mesh()
            x0 = float(grid.axes()[1][rng.integers(n // 4, 3 * n // 4)])
            delta = 10.0 ** rng.uniform(-6.0, -4.0)
            beta = 1.0 - delta if kind == "near_member" else 1.0 + delta
            a_x = beta * (1.0 - np.tanh(_shift(x, x0)) ** 2)
            ones = np.ones_like(t)
            a = f"t + {_f(beta)}*tanh({_shifted('x', x0)})"
            op = self._diagonal(kind, grid, a, "t", [ones + a_x, ones - a_x, ones, ones])
            if op is not None:
                return op

    def _near_member(self, rng, n: int) -> ConeOp:
        return self._near("near_member", rng, n)

    def _near_nonmember(self, rng, n: int) -> ConeOp:
        return self._near("near_nonmember", rng, n)

    def _refused(self, kind: str, func: str, rng, n: int) -> ConeOp:
        # the argument is negative inside a disc: the first node there is named
        while True:
            grid = self._grid(rng, n)
            t, x = grid.mesh()
            t0, x0 = rng.uniform(-1.5, 1.5, size=2)
            r2 = rng.uniform(0.3, 2.0)
            arg = (_shift(t, t0) ** 2.0 + _shift(x, x0) ** 2.0) - r2
            if np.abs(arg).min() > GUARD and (arg <= 0.0).any():
                source = f"{func}({_shifted('t', t0)}^2 + {_shifted('x', x0)}^2 - {_f(r2)})"
                a, b = (f"t + {source}", "t") if func == "sqrt" else ("t", f"t + {source}")
                node = grid.node(int(np.argmax(arg <= 0.0)))
                return ConeOp(kind, grid, self._element(a, b), 2, node)

    def _refused_sqrt(self, rng, n: int) -> ConeOp:
        return self._refused("refused_sqrt", "sqrt", rng, n)

    def _refused_log(self, rng, n: int) -> ConeOp:
        return self._refused("refused_log", "log", rng, n)

    def _overflow(self, rng, n: int) -> ConeOp:
        # t^700 stops being finite near t = 2.7565 and its partial 700 t^699 near
        # 2.7348; grids keep every row out of that band, so "the first node whose
        # value or partial is not finite" names the same node either way.
        while True:
            t_min, t_max = -2.5 - rng.uniform(0.0, 0.1), 3.0 - rng.uniform(0.0, 0.1)
            grid = Grid(t_min, t_max, -3.0 + rng.uniform(0.0, 0.5), 3.0, n)
            rows = grid.axes()[0]
            with np.errstate(over="ignore"):
                value_ok, partial_ok = np.isfinite(rows**700.0), np.isfinite(700.0 * rows**699.0)
            if (value_ok == partial_ok).all():
                break
        node = grid.node(int(np.argmin(value_ok)) * n)
        return ConeOp("overflow", grid, self._element("t + 0*t^700", "t"), 2, node)

    # running and checking ---------------------------------------------------

    def warmup(self) -> None:
        for k, op in enumerate(self.ops):
            if op.grid.n == 101 and op.kind in ("causal_diag", "refused_sqrt"):
                self.check(k, attempt(self.run, k))

    def run(self, i: int):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(self.ops[i].argv))
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _same_node(got, want) -> bool:
        return all(abs(float(g) - w) <= 1e-9 * max(1.0, abs(w)) for g, w in zip(got, want))

    def check(self, i: int, result) -> Outcome:
        op = self.ops[i]
        what = f"{op.kind} {op.grid.n}^2 (op {i})"
        if isinstance(result, Raised):
            return _fail(f"{what} raised {type(result.exc).__name__}: {result.exc}")
        code, out, err = result
        if op.exit_code == 2:
            match = _NODE.search(err)
            if code == 2 and match and self._same_node(match.groups(), op.node):
                return OK
            known = None
            if op.kind == "overflow" and code == 2 and not match and "did not converge" in err:
                known = "cone-overflow-no-node"
            return _fail(f"{what}: exit {code}, stderr {err.strip()[-160:]!r}", known)
        if code != op.exit_code:
            return _fail(f"{what}: exit {code}, expected {op.exit_code}; stderr {err.strip()[-160:]!r}")
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return _fail(f"{what}: unreadable report ({exc})")
        problems = []
        if report.get("schema") != SCHEMA:
            problems.append(f"schema {report.get('schema')!r}")
        if report.get("member_on_grid") is not (op.exit_code == 0):
            problems.append(f"member_on_grid {report.get('member_on_grid')}")
        if report.get("n_nodes") != op.grid.n * op.grid.n:
            problems.append(f"n_nodes {report.get('n_nodes')}")
        if op.n_violations is not None and report.get("n_violations") != op.n_violations:
            problems.append(f"n_violations {report.get('n_violations')} != {op.n_violations}")
        first = report.get("first_violation")
        if op.node is None and first is not None:
            problems.append("unexpected first_violation")
        if op.node is not None and not (first and self._same_node(first.get("point", ()), op.node)):
            problems.append(f"first_violation {first} != node {op.node}")
        low = report.get("min_eigenvalue")
        if op.min_eigenvalue is not None and not (
            isinstance(low, float) and abs(low - op.min_eigenvalue) <= 1e-9 * max(1.0, abs(op.min_eigenvalue))
        ):
            problems.append(f"min_eigenvalue {low} != {op.min_eigenvalue}")
        return _fail(f"{what}: " + "; ".join(problems)) if problems else OK


WORKLOADS = {w.name: w for w in (Crossval, MixedWitness, ConeReport)}
