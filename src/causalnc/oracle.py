"""Brute-force cross-validation of the closed-form causal oracles.

Samples random elements of the causal cone from families that are causal by
construction, certifies each one on a declared grid at generation time, and
checks that no sampled element ever separates a pair the closed-form oracle
calls related.  Sampling cannot prove non-relatedness (the cone is infinite
dimensional), so a pair that no sample separates is reported INCONCLUSIVE;
actual refutations are the witness module's job, and a witness's element
(WitnessSpec.element) can be injected into a run like any other element.

Streams are driven by numpy's PCG64 generator seeded per (seed, index), so
identical configurations reproduce bit-identical elements on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from .causality import PureState, pure_causal
from .cone import AlgebraElement, RegionGrid, certify_grid_psd
from .fields import BinOp, Call, FieldExpr, Neg, Num, Pow, Var, jet, memo_entry
from .states import DiracData

PAIR_TOL = 1e-10

#: The grid every sampled element is certified on.
DEFAULT_REGION = RegionGrid(-3.0, 3.0, -3.0, 3.0, 41, 41)
#: Ranges of the uniform draws that shape the sampled families.
DIAG_COEFF_RANGE = (0.05, 1.5)
LEMMA_AMP_RANGE = (0.02, 0.3)
LEMMA_FREQ_RANGE = (0.2, 2.0)


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan for causal elements."""

    seed: int
    n_elements: int

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise ValueError("n_elements must be at least 1")


# The families below build their trees directly, in the shape parse() gives
# the repr-formatted sources in the comments: parse(to_source(tree)) == tree.
# Every drawn number is a positive Python float, so each literal is one Num.

_T, _X = Var("t"), Var("x")
# The subtrees that no draw shapes are built once and shared by every element,
# and their jets on DEFAULT_REGION are evaluated once, into its memo.
_TANH_SUM, _TANH_DIFF = Call("tanh", BinOp("+", _T, _X)), Call("tanh", BinOp("-", _T, _X))
_ENVELOPE = Call("exp", Neg(BinOp("+", Pow(_T, 2), Pow(_X, 2))))


def _times(*factors: FieldExpr) -> FieldExpr:
    return reduce(lambda lhs, rhs: BinOp("*", lhs, rhs), factors)


def _plus(*terms: FieldExpr) -> FieldExpr:
    return reduce(lambda lhs, rhs: BinOp("+", lhs, rhs), terms)


def _diagonal_causal(rng: np.random.Generator) -> AlgebraElement:
    def causal_field() -> FieldExpr:
        # alpha*t + beta*tanh(t + x) + gamma*tanh(t - x)
        beta, gamma, extra = rng.uniform(*DIAG_COEFF_RANGE, size=3).tolist()
        alpha = beta + gamma + extra  # slope alpha >= beta + gamma keeps d/dt dominant
        return _plus(
            _times(Num(alpha), _T),
            _times(Num(beta), _TANH_SUM),
            _times(Num(gamma), _TANH_DIFF),
        )

    return AlgebraElement(causal_field(), causal_field(), Num(0.0), Num(0.0))


def _lemma_bounded(rng: np.random.Generator, dirac: DiracData) -> AlgebraElement:
    amp = rng.uniform(*LEMMA_AMP_RANGE)
    freq = rng.uniform(*LEMMA_FREQ_RANGE)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    # sup over the plane of |c_t| + |c_x| + gap |c| for the Gaussian wave below
    # is bounded by amp * (2 sqrt(2/e) + freq + gap); 5% headroom on top.
    bound = amp * (2.0 * math.sqrt(2.0 / math.e) + freq + float(dirac.gap))
    slope = 1.05 * bound
    # diagonal slope*t; off-diagonal amp*exp(-(t^2 + x^2))*cos(freq*t + phase) and sin
    diag = _times(Num(slope), _T)
    wave = _plus(_times(Num(freq), _T), Num(phase))
    return AlgebraElement(
        diag,
        diag,
        _times(Num(amp), _ENVELOPE, Call("cos", wave)),
        _times(Num(amp), _ENVELOPE, Call("sin", wave)),
    )


def sample_causal_element(cfg: SamplerConfig, k: int, dirac: DiracData) -> AlgebraElement:
    """Deterministic k-th causal element of the stream; certified on DEFAULT_REGION at PSD_TOL.

    The families alternate, DIAGONAL_CAUSAL at even k and LEMMA_B at odd k.
    Raises RuntimeError if grid certification fails (which would be a
    generator bug, not a sampling accident).
    """
    rng = np.random.default_rng([cfg.seed, k])
    el = _lemma_bounded(rng, dirac) if k % 2 else _diagonal_causal(rng)
    if not DEFAULT_REGION.memo:  # the first element fills it with the shared subtrees
        t, x = DEFAULT_REGION.views()
        DEFAULT_REGION.memo.update((id(e), memo_entry(e, t, x)) for e in (_TANH_SUM, _TANH_DIFF, _ENVELOPE))
    if not certify_grid_psd(el, dirac, DEFAULT_REGION):
        family = "LEMMA_B" if k % 2 else "DIAGONAL_CAUSAL"
        raise RuntimeError(f"generated element failed grid certification (family {family})")
    return el


def sample_elements(cfg: SamplerConfig, dirac: DiracData) -> list[AlgebraElement]:
    return [sample_causal_element(cfg, k, dirac) for k in range(cfg.n_elements)]


class PairStatus(str, Enum):
    CONSISTENT = "CONSISTENT"  # related and never violated
    SOUNDNESS_BUG = "SOUNDNESS_BUG"  # related yet some causal element separated it
    INCONCLUSIVE = "INCONCLUSIVE"  # not related, sampling found no separation
    REFUTED = "REFUTED"  # not related and a sampled element separated it


@dataclass(frozen=True)
class PairCheck:
    related: bool
    status: PairStatus
    n_violations: int
    worst_margin: Optional[float]  # max over elements of omega(a) - eta(a)


@dataclass(frozen=True)
class CrossValidationReport:
    pairs: list[PairCheck]
    n_elements: int
    sound: bool  # no related pair was ever violated
    n_refuted: int
    n_inconclusive: int


def cross_validate_pure(
    pairs: Sequence[tuple[PureState, PureState]],
    dirac: DiracData,
    elements: Sequence[AlgebraElement],
) -> CrossValidationReport:
    """Check every pair against every element (sample_elements draws them).

    The pairing of a state with an element [[a, -c], [-c*, b]] at its event
    is |xi1|^2 a + |xi2|^2 b - 2 Re(conj(xi1) xi2 c); an element separates a
    pair when the start value exceeds the end value by more than PAIR_TOL.
    Explicit elements (e.g. a witness's element) can join the sampled ones;
    an empty element list yields a vacuous INCONCLUSIVE report.
    """
    verdicts = [pure_causal(a, b, dirac).related for a, b in pairs]
    if not elements:
        checks = [PairCheck(related, PairStatus.INCONCLUSIVE, 0, None) for related in verdicts]
        return CrossValidationReport(checks, 0, True, 0, len(checks))

    states = [state for pair in pairs for state in pair]  # start and end of each pair in turn
    t_all = np.array([s.point.t for s in states])
    x_all = np.array([s.point.x for s in states])
    w1 = np.array([abs(s.internal.xi1) ** 2 for s in states])
    w2 = np.array([abs(s.internal.xi2) ** 2 for s in states])
    cross = np.array([s.internal.xi1.conjugate() * s.internal.xi2 for s in states], dtype=complex)

    worst = np.full(len(pairs), -np.inf)
    violations = np.zeros(len(pairs), dtype=int)
    for el in elements:
        av, bv, c_re, c_im = (jet(f, t_all, x_all)[0] for f in (el.a, el.b, el.c_re, el.c_im))
        values = w1 * av + w2 * bv - 2.0 * (cross * (c_re + 1j * c_im)).real
        margins = values[0::2] - values[1::2]  # omega(a) - eta(a)
        worst = np.maximum(worst, margins)
        violations += margins > PAIR_TOL

    checks = []
    for related, count, margin in zip(verdicts, violations.tolist(), worst.tolist()):
        if related:
            status = PairStatus.SOUNDNESS_BUG if count else PairStatus.CONSISTENT
        else:
            status = PairStatus.REFUTED if count else PairStatus.INCONCLUSIVE
        checks.append(PairCheck(related, status, count, margin))
    statuses = [c.status for c in checks]
    return CrossValidationReport(
        checks,
        len(elements),
        PairStatus.SOUNDNESS_BUG not in statuses,
        statuses.count(PairStatus.REFUTED),
        statuses.count(PairStatus.INCONCLUSIVE),
    )
