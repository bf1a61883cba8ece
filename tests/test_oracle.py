import hashlib
import json
import math

import numpy as np
import pytest

from causalnc import cone, oracle
from causalnc.causality import PureState
from causalnc.cone import AlgebraElement, RegionGrid, _cone_entries, _grid_entries, certify_grid_psd, cone_membership
from causalnc.fields import Neg, Num, Var, memo_entry, parse, to_source
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


#: SHA-256 of json.dumps([el.to_dict() for el in the stream], sort_keys=True) for
#: SamplerConfig(seed=1234, n_elements=50), by Dirac gap: the draws and the tree of every element
STREAM_DIGESTS = {
    1.0: "41912816f5a2647c6468a62ad26231037b1a5fcfd72098ba20980b0e1c752c53",
    2.0: "bc3dbb19ba63cd6edcebd7ddcf09f83bad900f81edf379f4ac5b1545a020b899",
}


@pytest.mark.parametrize("gap", sorted(STREAM_DIGESTS))
def test_sampler_stream_is_pinned(gap):
    elements = sample_elements(SamplerConfig(seed=1234, n_elements=50), DiracData(0.0, gap))
    blob = json.dumps([el.to_dict() for el in elements], sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == STREAM_DIGESTS[gap]


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
        report = cone_membership(el, D_UNIT, DEFAULT_REGION)
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


def test_family_cycling():
    cfg = SamplerConfig(seed=7, n_elements=4)
    el0 = sample_causal_element(cfg, 0, D_UNIT)
    el1 = sample_causal_element(cfg, 1, D_UNIT)
    # diagonal family has zero off-diagonal, lemma family does not
    assert el0.to_dict()["c"]["re"] == "0.0"
    assert "exp" in el1.to_dict()["c"]["re"]


SHARED = (oracle._TANH_SUM, oracle._TANH_DIFF, oracle._ENVELOPE)


def _fresh_entries(el, region):
    """_cone_entries on new views of the region's axes, which no memo entry is keyed to."""
    t, x = region.axes()
    return _cone_entries(el, t[:, None], x[None, :], D_UNIT.d1 - D_UNIT.d2)


def _same_bytes(got, want) -> bool:
    pairs = zip(map(np.asarray, got), map(np.asarray, want))
    return all(a.shape == b.shape and a.tobytes() == b.tobytes() for a, b in pairs)


def test_the_shared_subtree_memo_is_byte_identical_to_a_fresh_walk():
    cfg = SamplerConfig(seed=50_001, n_elements=400)
    for k in range(cfg.n_elements):  # both families, in turn
        el = sample_causal_element(cfg, k, D_UNIT)
        assert _same_bytes(_grid_entries(el, D_UNIT, DEFAULT_REGION), _fresh_entries(el, DEFAULT_REGION)), k
    # the memo holds the three subtrees the oracle registered, and nothing else
    assert sorted(DEFAULT_REGION.memo) == sorted(map(id, SHARED))
    assert all(DEFAULT_REGION.memo[id(node)][0] is node for node in SHARED)


def test_the_memos_arrays_are_read_only():
    sample_causal_element(SamplerConfig(seed=3, n_elements=1), 0, D_UNIT)
    parts = [part for *_, (v, d) in DEFAULT_REGION.memo.values() for part in (v, *d)]
    assert len(parts) == 9 and all(isinstance(part, np.ndarray) and not part.flags.writeable for part in parts)
    with pytest.raises(ValueError):
        parts[0][0, 0] = 0.0


def _poisoned_region() -> RegionGrid:
    """A new grid equal to DEFAULT_REGION whose memo holds the shared subtrees with doubled partials."""
    region = RegionGrid(-3.0, 3.0, -3.0, 3.0, 41, 41)
    t, x = region.views()
    for node in SHARED:
        _, _, _, (v, (dt, dx)) = memo_entry(node, t, x)
        region.memo[id(node)] = (node, t, x, (v, (2.0 * dt, 2.0 * dx)))
    return region


def test_only_the_oracles_nodes_on_one_block_read_the_memo(monkeypatch):
    region = _poisoned_region()
    assert region == DEFAULT_REGION
    cfg = SamplerConfig(seed=50_001, n_elements=2)
    for k in range(2):  # one element of each family
        el = sample_causal_element(cfg, k, D_UNIT)
        fresh = _fresh_entries(el, region)
        assert not _same_bytes(_grid_entries(el, D_UNIT, region), fresh)  # the poisoned memo is read
        # a structurally equal parsed tree misses it
        twin = AlgebraElement.from_dict(el.to_dict())
        assert twin == el and twin.a is not el.a
        assert _same_bytes(_grid_entries(twin, D_UNIT, region), fresh)
        # and so does every block of a multi-block walk of the same grid
        with monkeypatch.context() as patch:
            patch.setattr(cone, "BLOCK_NODES", 8 * region.nx)
            blocks = list(cone._grid_blocks(el, D_UNIT, region))
        assert len(blocks) == 6
        nodes = region.nt * region.nx
        for i, part in enumerate(fresh):
            joined = np.concatenate([np.broadcast_to(entries[i], n) for _, n, entries in blocks])
            assert joined.tobytes() == np.broadcast_to(part, nodes).tobytes()
