import math

import numpy as np
import pytest

from causalnc.causality import PureState
from causalnc.cone import AlgebraElement, RegionGrid, certify_grid_psd, cone_membership
from causalnc.fields import Neg, Num, Var, parse, to_source
from causalnc.minkowski import SpacetimePoint
from causalnc.oracle import (
    DEFAULT_REGION,
    PairStatus,
    SamplerConfig,
    cross_validate_pure,
    sample_causal_element,
    sample_elements,
)
from causalnc.states import DiracData, PureInternalState, wrap_angle
from causalnc.witness import build_witness

D_UNIT = DiracData(0.0, 1.0)
REGION = RegionGrid(-3.0, 3.0, -3.0, 3.0, 41, 41)


def _pair(rng, related, gap=1.0, z=None):
    z = rng.uniform(-0.8, 0.8) if z is None else z
    theta = rng.uniform(-math.pi, math.pi)
    dtheta = rng.uniform(0.2, math.pi - 0.2)
    factor = rng.uniform(1.05, 1.5) if related else rng.uniform(0.2, 0.9)
    length = factor * dtheta / gap
    v = rng.uniform(-0.5, 0.5)
    t_span = length / math.sqrt(1 - v * v)
    p = SpacetimePoint(rng.uniform(-1.5, -0.5), rng.uniform(-0.5, 0.5))
    q = SpacetimePoint(p.t + t_span, p.x + v * t_span)
    return (
        PureState(p, PureInternalState.from_parallel(z, theta)),
        PureState(q, PureInternalState.from_parallel(z, wrap_angle(theta + dtheta))),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, n_elements=0)


def test_streams_are_bit_identical():
    cfg = SamplerConfig(seed=1234, n_elements=12)
    first = [sample_causal_element(cfg, k, D_UNIT).to_dict() for k in range(12)]
    second = [sample_causal_element(cfg, k, D_UNIT).to_dict() for k in range(12)]
    assert first == second
    other = SamplerConfig(seed=1235, n_elements=12)
    third = [sample_causal_element(other, k, D_UNIT).to_dict() for k in range(12)]
    assert first != third


def test_family_corner_cases_are_causal():
    # collapsing the diagonal family to its corner gives diag(t, t)
    corner = AlgebraElement.from_sources("t", "t")
    assert cone_membership(corner, D_UNIT, REGION).member_on_grid
    # zero off-diagonal amplitude leaves the bare sloped diagonal
    bare = AlgebraElement.from_sources("2.0*t", "2.0*t")
    assert cone_membership(bare, D_UNIT, REGION).member_on_grid


def test_lemma_family_example_parameters():
    # amplitude 0.1, frequency 1, unit gap: passes the full grid membership test
    amp, freq = 0.1, 1.0
    bound = amp * (2.0 * math.sqrt(2.0 / math.e) + freq + D_UNIT.gap)
    slope = 1.05 * bound
    el = AlgebraElement.from_sources(
        f"{slope!r}*t",
        f"{slope!r}*t",
        f"{amp!r}*exp(-(t^2 + x^2))*cos({freq!r}*t)",
        f"{amp!r}*exp(-(t^2 + x^2))*sin({freq!r}*t)",
    )
    assert cone_membership(el, D_UNIT, REGION).member_on_grid


def test_generator_soundness_full_membership():
    cfg = SamplerConfig(seed=99, n_elements=30)
    for el in sample_elements(cfg, D_UNIT):
        report = cone_membership(el, D_UNIT, DEFAULT_REGION, cfg.psd_tol)
        assert report.member_on_grid, el.to_dict()


def _literal(value: float):
    """The tree parse(repr(value)) builds: a negative number is a negated Num."""
    return Neg(Num(-value)) if value < 0.0 else Num(value)


def test_constant_family_requires_degenerate_gap():
    # a constant element has zero partials, so its cone matrix is delta*c off the diagonal only
    rng = np.random.default_rng(5)
    degenerate = DiracData(0.7, 0.7)
    elements = [AlgebraElement(*map(_literal, rng.uniform(-2.0, 2.0, 4).tolist())) for _ in range(4)]
    for el in elements:
        assert certify_grid_psd(el, degenerate, DEFAULT_REGION)
        assert cone_membership(el, degenerate, DEFAULT_REGION).member_on_grid
        assert not certify_grid_psd(el, D_UNIT, DEFAULT_REGION)
    fields = [f for el in elements for f in vars(el).values()]
    assert any(isinstance(f, Neg) for f in fields)
    assert all(parse(to_source(f)) == f for f in fields)


def test_related_pairs_never_separated():
    rng = np.random.default_rng(17)
    cfg = SamplerConfig(seed=900, n_elements=200)
    pairs = [_pair(rng, related=True) for _ in range(25)]
    report = cross_validate_pure(pairs, D_UNIT, sample_elements(cfg, D_UNIT))
    assert report.sound
    assert all(c.status is PairStatus.CONSISTENT for c in report.pairs)
    assert all(c.worst_margin <= 1e-10 for c in report.pairs)


def test_unrelated_pairs_inconclusive_without_witness():
    rng = np.random.default_rng(19)
    cfg = SamplerConfig(seed=901, n_elements=100)
    pairs = [_pair(rng, related=False) for _ in range(10)]
    report = cross_validate_pure(pairs, D_UNIT, sample_elements(cfg, D_UNIT))
    assert report.sound
    assert all(c.status is PairStatus.INCONCLUSIVE for c in report.pairs)
    assert report.n_inconclusive == 10


def test_witness_injection_refutes():
    rng = np.random.default_rng(23)
    pair = _pair(rng, related=False)
    cfg = SamplerConfig(seed=902, n_elements=50)
    elements = sample_elements(cfg, D_UNIT) + [build_witness(*pair, D_UNIT).element()]
    report = cross_validate_pure([pair], D_UNIT, elements=elements)
    assert report.pairs[0].status is PairStatus.REFUTED
    assert report.pairs[0].n_violations >= 1
    assert report.n_refuted == 1


def test_empty_element_set_is_vacuous_inconclusive():
    rng = np.random.default_rng(29)
    pairs = [_pair(rng, related=True), _pair(rng, related=False)]
    report = cross_validate_pure(pairs, D_UNIT, elements=[])
    assert all(c.status is PairStatus.INCONCLUSIVE for c in report.pairs)
    assert report.n_elements == 0
    assert report.sound  # vacuously


def test_soundness_bug_detection_path():
    # a fabricated "element" that decreases along a related pair must be flagged:
    # a = b = -t falls along every future-directed pair, so it is not causal
    rng = np.random.default_rng(31)
    pair = _pair(rng, related=True)
    fake = AlgebraElement(Neg(Var("t")), Neg(Var("t")), Num(0.0), Num(0.0))
    report = cross_validate_pure([pair], D_UNIT, elements=[fake])
    assert not report.sound
    assert report.pairs[0].status is PairStatus.SOUNDNESS_BUG


def test_report_json_shape():
    rng = np.random.default_rng(37)
    cfg = SamplerConfig(seed=903, n_elements=10)
    report = cross_validate_pure([_pair(rng, related=True)], D_UNIT, sample_elements(cfg, D_UNIT))
    data = report.to_dict()
    assert data["schema"] == "causalnc/1"
    assert data["pairs"][0]["status"] == "CONSISTENT"
    assert "worst_margin" in data["pairs"][0]


def test_family_cycling():
    cfg = SamplerConfig(seed=7, n_elements=4)
    el0 = sample_causal_element(cfg, 0, D_UNIT)
    el1 = sample_causal_element(cfg, 1, D_UNIT)
    # diagonal family has zero off-diagonal, lemma family does not
    assert el0.to_dict()["c"]["re"] == "0.0"
    assert "exp" in el1.to_dict()["c"]["re"]
