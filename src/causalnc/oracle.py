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
from .cone import PSD_TOL, AlgebraElement, RegionGrid, certify_grid_psd
from .fields import BinOp, Call, FieldExpr, Neg, Num, Pow, Var, _jet
from .states import DiracData

PAIR_TOL = 1e-10

#: The grid every sampled element is certified on.
DEFAULT_REGION = RegionGrid(-3.0, 3.0, -3.0, 3.0, 41, 41)
#: Ranges of the uniform draws that shape the sampled families.
DIAG_COEFF_RANGE = (0.05, 1.5)
LEMMA_AMP_RANGE = (0.02, 0.3)
LEMMA_FREQ_RANGE = (0.2, 2.0)


class Family(str, Enum):
    """Element families with an a-priori membership argument."""

    DIAGONAL_CAUSAL = "DIAGONAL_CAUSAL"  # diag of two causal functions
    LEMMA_B = "LEMMA_B"  # equal diagonal dominating a bounded off-diagonal


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling plan for causal elements."""

    seed: int
    n_elements: int
    psd_tol: float = PSD_TOL

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise ValueError("n_elements must be at least 1")


# The families below build their trees directly, in the shape parse() gives
# the repr-formatted sources in the comments: parse(to_source(tree)) == tree.
# Every drawn number is a positive Python float, so each literal is one Num.

_T, _X = Var("t"), Var("x")


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
            _times(Num(beta), Call("tanh", BinOp("+", _T, _X))),
            _times(Num(gamma), Call("tanh", BinOp("-", _T, _X))),
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
    envelope = Call("exp", Neg(BinOp("+", Pow(_T, 2), Pow(_X, 2))))
    wave = _plus(_times(Num(freq), _T), Num(phase))
    return AlgebraElement(
        diag,
        diag,
        _times(Num(amp), envelope, Call("cos", wave)),
        _times(Num(amp), envelope, Call("sin", wave)),
    )


def sample_causal_element(cfg: SamplerConfig, k: int, dirac: DiracData) -> AlgebraElement:
    """Deterministic k-th causal element of the stream; certified on DEFAULT_REGION.

    The families alternate, DIAGONAL_CAUSAL at even k and LEMMA_B at odd k.
    Raises RuntimeError if grid certification fails (which would be a
    generator bug, not a sampling accident).
    """
    family = (Family.DIAGONAL_CAUSAL, Family.LEMMA_B)[k % 2]
    rng = np.random.default_rng([cfg.seed, k])
    el = _diagonal_causal(rng) if family is Family.DIAGONAL_CAUSAL else _lemma_bounded(rng, dirac)
    if not certify_grid_psd(el, dirac, DEFAULT_REGION, cfg.psd_tol):
        raise RuntimeError(f"generated element failed grid certification (family {family.value})")
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

    def to_dict(self) -> dict:
        return {
            "related": self.related,
            "status": self.status.value,
            "n_violations": self.n_violations,
            "worst_margin": self.worst_margin,
        }


@dataclass(frozen=True)
class CrossValidationReport:
    pairs: list[PairCheck]
    n_elements: int
    sound: bool  # no related pair was ever violated
    n_refuted: int
    n_inconclusive: int

    def to_dict(self) -> dict:
        return {
            "schema": "causalnc/1",
            "n_elements": self.n_elements,
            "sound": self.sound,
            "n_refuted": self.n_refuted,
            "n_inconclusive": self.n_inconclusive,
            "pairs": [p.to_dict() for p in self.pairs],
        }


def cross_validate_pure(
    pairs: Sequence[tuple[PureState, PureState]],
    dirac: DiracData,
    cfg: Optional[SamplerConfig] = None,
    elements: Optional[Sequence[AlgebraElement]] = None,
) -> CrossValidationReport:
    """Check every pair against every sampled element.

    The pairing of a state with an element [[a, -c], [-c*, b]] at its event
    is |xi1|^2 a + |xi2|^2 b - 2 Re(conj(xi1) xi2 c); an element separates a
    pair when the start value exceeds the end value by more than PAIR_TOL.
    Explicit elements (e.g. a witness's element) take precedence over
    sampling from cfg; an empty element list yields a vacuous INCONCLUSIVE
    report.
    """
    if elements is None:
        if cfg is None:
            raise ValueError("need either a sampler config or explicit elements")
        elements = sample_elements(cfg, dirac)

    verdicts = [pure_causal(a, b, dirac).related for a, b in pairs]
    n = len(pairs)
    t_all = np.array([s.point.t for a, b in pairs for s in (a, b)])
    x_all = np.array([s.point.x for a, b in pairs for s in (a, b)])

    w1 = np.empty(2 * n)
    w2 = np.empty(2 * n)
    cross = np.empty(2 * n, dtype=complex)
    for i, (a, b) in enumerate(pairs):
        for j, state in enumerate((a, b)):
            xi = state.internal
            w1[2 * i + j] = abs(xi.xi1) ** 2
            w2[2 * i + j] = abs(xi.xi2) ** 2
            cross[2 * i + j] = xi.xi1.conjugate() * xi.xi2

    worst = np.full(n, -np.inf)
    violations = np.zeros(n, dtype=int)
    for el in elements:
        av, bv, c_re, c_im = (_jet(f, t_all, x_all)[0][0] for f in (el.a, el.b, el.c_re, el.c_im))
        values = w1 * av + w2 * bv - 2.0 * (cross * (c_re + 1j * c_im)).real
        margins = values[0::2] - values[1::2]  # omega(a) - eta(a)
        worst = np.maximum(worst, margins)
        violations += margins > PAIR_TOL

    checks = []
    sound = True
    n_refuted = 0
    n_inconclusive = 0
    for i in range(n):
        if not elements:
            status = PairStatus.INCONCLUSIVE
            n_inconclusive += 1
            checks.append(PairCheck(verdicts[i], status, 0, None))
            continue
        violated = violations[i] > 0
        if verdicts[i]:
            status = PairStatus.SOUNDNESS_BUG if violated else PairStatus.CONSISTENT
            sound = sound and not violated
        elif violated:
            status = PairStatus.REFUTED
            n_refuted += 1
        else:
            status = PairStatus.INCONCLUSIVE
            n_inconclusive += 1
        checks.append(PairCheck(verdicts[i], status, int(violations[i]), float(worst[i])))
    return CrossValidationReport(checks, len(elements), sound, n_refuted, n_inconclusive)
