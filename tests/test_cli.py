import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalnc import cli, cone
from causalnc.causality import MAX_PATH_SEGMENTS, PLATEAU_TOL, CausalVerdict, MixedState, Reason, _mixed_angle_sup
from causalnc.cli import main
from causalnc.cone import AlgebraElement, RegionGrid
from causalnc.fields import DomainError
from causalnc.minkowski import SpacetimePoint
from causalnc.states import DiracData, MixedInternalState, PureInternalState, angular_distance, parallel_angle
from causalnc.witness import (
    MATCH_RTOL,
    NearAntipodalError,
    RelatedPairError,
    UnsupportedRefusalError,
    refute_with_witness,
)
from strategies import _reference_membership, exact_proper_time

PURE_RELATED = {
    "p": [0, 0],
    "q": [2, 0],
    "xi": {"bloch": [1, 0, 0]},
    "phi": {"bloch": [0, 1, 0]},
    "dirac": {"d1": 0, "d2": 1},
}
PURE_SHORT = dict(PURE_RELATED, q=[1, 0])


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _strict_json(text: str):
    """json.loads that refuses the NaN and Infinity tokens json.dumps writes by default."""

    def refuse(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def test_check_pure_related(capsys):
    code, out, _ = _run(capsys, "check-pure", "--input", json.dumps(PURE_RELATED))
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "causalnc/1"
    assert data["related"] is True
    assert data["reason"] == "OK"
    assert data["bound_required"] == pytest.approx(math.pi / 2)


def test_check_pure_speed_bound(capsys):
    code, out, _ = _run(capsys, "check-pure", "--input", json.dumps(PURE_SHORT))
    assert code == 1
    assert json.loads(out)["reason"] == "SPEED_BOUND"


def test_check_pure_component_form(capsys):
    payload = dict(PURE_RELATED)
    inv = 1 / math.sqrt(2)
    payload["xi"] = [[inv, 0], [inv, 0]]
    payload["phi"] = [[inv, 0], [0, inv]]
    code, out, _ = _run(capsys, "check-pure", "--input", json.dumps(payload))
    assert code == 0


def test_missing_dirac_is_input_error(capsys):
    payload = {k: v for k, v in PURE_RELATED.items() if k != "dirac"}
    code, _, err = _run(capsys, "check-pure", "--input", json.dumps(payload))
    assert code == 2
    assert "dirac" in err


def test_malformed_json_is_input_error(capsys):
    code, _, err = _run(capsys, "check-pure", "--input", "{not json")
    assert code == 2
    assert "malformed" in err


def test_an_integer_beyond_the_digit_limit_is_malformed_json(capsys):
    # json.loads raises a plain ValueError, not JSONDecodeError, for an integer
    # of more than 4,300 digits; it printed only int()'s conversion message
    payload = json.dumps(PURE_RELATED)[:-1] + ', "n": 1' + "0" * 5000 + "}"
    code, out, err = _run(capsys, "plan-path", "--input", payload)
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed JSON")


def test_json_nested_beyond_the_recursion_limit_is_malformed(tmp_path, capsys):
    # json.loads raised RecursionError: a traceback and exit 1
    src = tmp_path / "deep.json"
    src.write_text("[" * 10**5 + "]" * 10**5)
    code, out, err = _run(capsys, "check-pure", "--input", str(src))
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed JSON: maximum recursion depth exceeded") and err.count("\n") == 1


def test_missing_input_flag(capsys):
    code, _, err = _run(capsys, "check-pure")
    assert code == 2


def test_input_from_file_and_atomic_output(tmp_path, capsys):
    src = tmp_path / "query.json"
    src.write_text(json.dumps(PURE_RELATED))
    dst = tmp_path / "verdict.json"
    code, out, _ = _run(capsys, "check-pure", "--input", str(src), "--output", str(dst))
    assert code == 0
    assert out == ""
    assert json.loads(dst.read_text())["related"] is True
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".causalnc-")]
    assert leftovers == []


def test_check_mixed(capsys):
    payload = {
        "p": [0, 0],
        "q": [2, 0],
        "rho": {"bloch": [0, 0, 0]},
        "sigma": {"bloch": [1, 0, 0]},
        "dirac": {"d1": 0, "d2": 1},
    }
    code, out, _ = _run(capsys, "check-mixed", "--input", json.dumps(payload))
    assert code == 0
    payload["q"] = [1, 0]
    code, out, _ = _run(capsys, "check-mixed", "--input", json.dumps(payload))
    assert code == 1


#: a pair related only through BOUND_SLACK: 0.5e-12 rad short of the bound at gap 1e13
SLACK_ONLY = dict(PURE_RELATED, q=[(math.pi / 2 - 0.5e-12) / 1e13, 0], dirac={"d1": 0, "d2": 1e13})
SLACK_ONLY_VERDICT = (True, "OK", 1.5707963267948966e-13, 1.5707963267943965e-13)
CENTRE_TO_RIM = dict(PURE_RELATED, rho={"bloch": [0, 0, 0]}, sigma={"bloch": [1, 0, 0]})


@pytest.mark.parametrize(
    "command, payload, old, within_tolerance",
    [
        ("check-pure", PURE_RELATED, (True, "OK", math.pi / 2, 2.0), False),
        ("check-pure", PURE_SHORT, (False, "SPEED_BOUND", math.pi / 2, 1.0), False),
        ("check-pure", SLACK_ONLY, SLACK_ONLY_VERDICT, True),
        ("check-mixed", CENTRE_TO_RIM, (True, "OK", math.pi / 2, 2.0), False),
        ("check-mixed", dict(CENTRE_TO_RIM, q=[1, 0]), (False, "SPEED_BOUND", math.pi / 2, 1.0), False),
        ("check-mixed", dict(SLACK_ONLY, rho=SLACK_ONLY["xi"], sigma=SLACK_ONLY["phi"]), SLACK_ONLY_VERDICT, True),
        ("check-pure", dict(PURE_RELATED, q=[0, 1]), (False, "SPACETIME_ORDER", None, None), False),
    ],
)
def test_verdicts_add_within_tolerance_and_keep_every_old_key(capsys, command, payload, old, within_tolerance):
    _, out, _ = _run(capsys, command, "--input", json.dumps(payload))
    keys = ("schema", "related", "reason", "bound_required", "bound_available")
    added = ("within_tolerance", *SUP_KEYS) if command == "check-mixed" else ("within_tolerance",)
    data = json.loads(out)
    assert list(data) == [*keys, *added]
    assert {key: data[key] for key in (*keys, "within_tolerance")} == {
        **dict(zip(keys, ("causalnc/1", *old))),
        "within_tolerance": within_tolerance,
    }


SUP_KEYS = ("theta_star", "arc_rho", "arc_sigma")


@pytest.mark.parametrize(
    "payload, took_sup",
    [
        (CENTRE_TO_RIM, True),
        (dict(CENTRE_TO_RIM, q=[1, 0]), True),
        (dict(CENTRE_TO_RIM, rho={"bloch": [0.3, -0.2, 0.1]}, sigma={"bloch": [-0.5, 0.4, 0.1]}), True),
        (dict(SLACK_ONLY, rho=SLACK_ONLY["xi"], sigma=SLACK_ONLY["phi"]), False),  # on the sphere
        (dict(CENTRE_TO_RIM, q=[0, 1]), False),  # refused before the speed bound
        (dict(CENTRE_TO_RIM, sigma={"bloch": [0, 0, 0.5]}), False),  # latitudes differ
    ],
)
def test_check_mixed_reports_the_supremum_it_took(capsys, payload, took_sup):
    _, out, _ = _run(capsys, "check-mixed", "--input", json.dumps(payload))
    got = {key: json.loads(out)[key] for key in SUP_KEYS}
    if not took_sup:
        assert got == dict.fromkeys(SUP_KEYS)
        return
    rho, sigma = (MixedInternalState(*map(float, payload[key]["bloch"])) for key in ("rho", "sigma"))
    value, *arcs = _mixed_angle_sup(rho, sigma)
    assert list(got.values()) == arcs
    # theta_star attains the supremum (the bound) up to PLATEAU_TOL
    assert abs(abs(got["arc_sigma"] - got["arc_rho"]) - value) <= PLATEAU_TOL
    assert json.loads(out)["bound_required"] == value / payload["dirac"]["d2"]


def test_cone_check_member_and_violation(capsys):
    member = {"element": {"a": "t", "b": "t"}, "dirac": {"d1": 0, "d2": 1}}
    code, out, _ = _run(
        capsys, "cone-check", "--input", json.dumps(member), "--grid=-1,1,-1,1,9,9"
    )
    assert code == 0
    assert json.loads(out)["member_on_grid"] is True

    bad = {"element": {"a": "x", "b": "x"}, "dirac": {"d1": 0, "d2": 1}}
    code, out, _ = _run(capsys, "cone-check", "--input", json.dumps(bad), "--grid=-1,1,-1,1,9,9")
    assert code == 1
    data = json.loads(out)
    assert data["first_violation"]["point"] == [-1.0, -1.0]

    code, _, err = _run(capsys, "cone-check", "--input", json.dumps(member), "--grid=1,2,3")
    assert code == 2


def test_cone_check_field_domain_error_is_input_error(capsys):
    payload = {"element": {"a": "log(t)", "b": "t"}, "dirac": {"d1": 0, "d2": 1}}
    code, _, err = _run(capsys, "cone-check", "--input", json.dumps(payload), "--grid=-1,1,-1,1,5,5")
    assert code == 2
    assert "log" in err and "grid node" in err
    payload["element"]["a"] = "t + 0*t^700"  # overflows: NaN value and partial
    code, _, err = _run(capsys, "cone-check", "--input", json.dumps(payload))
    assert code == 2
    assert "non-finite value or partial at grid node (t=-3.0, x=-3.0)" in err


def test_cone_check_overflowing_matrix_entry_is_input_error(capsys):
    # the fields and partials are finite; a_t + a_x and (d1 - d2)*c overflow
    cases = [
        ({"a": "1e308*t + 1e308*x", "b": "x"}, {"d1": 0, "d2": 1}, "'1e+308 * t + 1e+308 * x'"),
        ({"a": "t", "b": "t", "c": {"re": "1.5e308", "im": "0"}}, {"d1": 0, "d2": 2}, "'1.5e+308'"),
    ]
    for element, dirac, source in cases:
        payload = json.dumps({"element": element, "dirac": dirac})
        code, out, err = _run(capsys, "cone-check", "--input", payload, "--grid=-0.5,0.5,-0.5,0.5,5,5")
        assert code == 2 and out == ""
        assert f"non-finite cone matrix entry at grid node (t=-0.5, x=-0.5) in {source}" in err


def test_cone_check_parse_error_is_input_error(capsys):
    payload = {"element": {"a": "t +", "b": "t"}, "dirac": {"d1": 0, "d2": 1}}
    code, _, err = _run(capsys, "cone-check", "--input", json.dumps(payload))
    assert code == 2


@pytest.mark.parametrize(
    "source, offset",
    [("-" * 1200 + "t", 50), ("(" * 1200 + "t" + ")" * 1200, 50), ("t" + "+t" * 5000, 99)],
    ids=("minus", "parentheses", "sum"),
)
def test_cone_check_deep_nesting_is_input_error(capsys, source, offset):
    # the first two overflowed the parser's recursion, the third _eval's: a traceback and exit 1
    payload = {"element": {"a": source, "b": "t"}, "dirac": {"d1": 0, "d2": 1}}
    code, out, err = _run(capsys, "cone-check", "--input", json.dumps(payload))
    assert (code, out) == (2, "")
    assert err == f"error: bad element: a: expression nested deeper than 50 levels at offset {offset}\n"


def test_cone_check_huge_exponent_is_input_error(capsys):
    payload = {"element": {"a": "t^700^700", "b": "t"}, "dirac": {"d1": 0, "d2": 1}}
    code, _, err = _run(capsys, "cone-check", "--input", json.dumps(payload))
    assert code == 2
    assert err.startswith("error: bad element: a: exponent too large for a float power at offset 2")
    # folding 9^(9^9) would build a 150 MB integer: run it in a child with a deadline
    payload["element"]["a"] = "t^9^9^9"
    done = subprocess.run(
        [sys.executable, "-m", "causalnc.cli", "cone-check", "--input", json.dumps(payload)],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 2
    assert done.stderr.startswith("error: bad element: a: exponent too large for a float power")


@pytest.mark.parametrize("grid", ("-3,inf,-3,3,5,5", "-3,3,nan,3,5,5", "-1e308,1e308,-3,3,5,5"))
def test_cone_check_refuses_non_finite_grid_bounds_and_spans(capsys, grid):
    # printed numpy RuntimeWarnings, then refused the NaN node of an unnamed grid
    payload = json.dumps({"element": {"a": "t", "b": "t"}, "dirac": {"d1": 0, "d2": 1}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "cone-check", f"--grid={grid}", "--input", payload)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad --grid: grid bounds and their spans must be finite, got t in [")


def test_cone_check_names_a_grid_too_large_to_allocate(capsys, monkeypatch):
    # was a MemoryError traceback; the allocation is made to fail, so no grid is allocated here
    def refuse(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "linspace", refuse)
    payload = json.dumps({"element": {"a": "t", "b": "t"}, "dirac": {"d1": 0, "d2": 1}})
    code, out, err = _run(capsys, "cone-check", "--grid=-3,3,-3,3,2,1000000000", "--input", payload)
    assert (code, out, err) == (2, "", "error: a grid of 2 x 1000000000 nodes does not fit in memory\n")


_HUGE = 10**400  # a JSON integer beyond the float range
_GRID_AT_HUGE = {"t_min": -_HUGE, "t_max": 1, "x_min": -1, "x_max": 1, "nt": 3, "nx": 3}


@pytest.mark.parametrize(
    "command, key, payload",
    (
        ("check-pure", '"p"', dict(PURE_RELATED, p=[_HUGE, 0])),
        ("check-mixed", '"sigma"', dict(PURE_RELATED, rho={"bloch": [0, 0, 0]}, sigma={"bloch": [_HUGE, 0, 0]})),
        ("witness", '"dirac"', dict(PURE_SHORT, dirac={"d1": _HUGE, "d2": 0})),
        ("cone-check", '"grid"', {"element": {"a": "t", "b": "t"}, "dirac": {"d1": 0, "d2": 1}, "grid": _GRID_AT_HUGE}),
    ),
)
def test_integer_beyond_the_float_range_is_input_error(capsys, command, key, payload):
    # was an OverflowError traceback from float() of the JSON integer
    code, out, err = _run(capsys, command, "--input", json.dumps(payload))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and key in err


def test_cone_check_grid_from_input(capsys):
    member = {
        "element": {"a": "t", "b": "t"},
        "dirac": {"d1": 0, "d2": 1},
        "grid": {"t_min": -1, "t_max": 1, "x_min": -1, "x_max": 1, "nt": 5, "nx": 5},
    }
    code, out, _ = _run(capsys, "cone-check", "--input", json.dumps(member))
    assert code == 0
    assert json.loads(out)["n_nodes"] == 25


@pytest.mark.parametrize("key", ("nt", "nx"))
@pytest.mark.parametrize("count", (5.9, True, "41", 41.0), ids=("fraction", "bool", "string", "float"))
def test_cone_check_grid_node_count_must_be_a_json_integer(capsys, key, count):
    # int() truncated 5.9 to a 5-node axis and read true as 1, and the run exited 0
    grid = {"t_min": -1, "t_max": 1, "x_min": -1, "x_max": 1, "nt": 5, "nx": 5, key: count}
    payload = {"element": {"a": "t", "b": "t"}, "dirac": {"d1": 0, "d2": 1}, "grid": grid}
    code, out, err = _run(capsys, "cone-check", "--input", json.dumps(payload))
    assert (code, out) == (2, "")
    assert err == f'error: bad "grid" entry: "{key}" must be an integer, got {count!r}\n'


def test_cone_check_default_grid(capsys):
    payload = json.dumps({"element": {"a": "t", "b": "t + 2*tanh(x)"}, "dirac": {"d1": 0, "d2": 1}})
    code, out, err = _run(capsys, "cone-check", "--input", payload)
    assert code == 1 and json.loads(out)["n_nodes"] == 1681
    assert _run(capsys, "cone-check", "--grid=-3,3,-3,3,41,41", "--input", payload) == (code, out, err)


#: the witness JSON for PURE_SHORT as written before the "tau" key was added
GOLDEN_WITNESS = json.loads((Path(__file__).parent / "witness_golden.json").read_text())


def test_witness_certificate(capsys):
    code, out, _ = _run(capsys, "witness", "--input", json.dumps(PURE_SHORT))
    assert code == 0
    data = json.loads(out)
    assert data["margin"] > 0
    assert data["psd_passed"] is True
    assert len(data["psd_samples"]) == 64
    # "tau" is additive: every other key and value is unchanged
    tau = data.pop("tau")
    assert data == GOLDEN_WITNESS
    eps = data["epsilon"]  # the gap is 1 and the proper time from p to q is 1
    assert tau == {"certified": [0.0, 1.0], "strip": [-eps, math.pi - eps]}


def test_witness_rejects_related_pair(capsys):
    code, _, err = _run(capsys, "witness", "--input", json.dumps(PURE_RELATED))
    assert code == 2
    assert "precondition" in err


#: a mixed pair on the parallel z = 0.2 that the speed bound refuses at gap 1 and proper time 1
MIXED_SHORT = dict(PURE_SHORT, rho={"bloch": [0.5, 0.1, 0.2]}, sigma={"bloch": [-0.3, 0.6, 0.2]})


def test_witness_reads_a_mixed_pair(capsys):
    payload = {key: value for key, value in MIXED_SHORT.items() if key not in ("xi", "phi")}
    code, out, _ = _run(capsys, "witness", "--input", json.dumps(payload))
    assert code == 0
    rho, sigma = (MixedInternalState(*payload[key]["bloch"]) for key in ("rho", "sigma"))
    p, q = (SpacetimePoint(*map(float, payload[key])) for key in ("p", "q"))
    certificate = refute_with_witness(MixedState(p, rho), MixedState(q, sigma), DiracData(0.0, 1.0))
    assert _strict_json(out) == json.loads(json.dumps({"schema": "causalnc/1", **certificate.to_dict()}))
    assert _strict_json(out)["psd_passed"] is True
    related = dict(payload, q=[3, 0])
    code, _, err = _run(capsys, "witness", "--input", json.dumps(related))
    assert code == 2 and "causally related" in err
    code, _, err = _run(capsys, "witness", "--input", json.dumps(dict(payload, sigma=None)))
    assert code == 2 and 'state "sigma"' in err


def test_witness_reads_xi_and_phi_when_given(capsys):
    # rho and sigma are read only without xi: the pure path is byte-identical to the golden
    code, out, _ = _run(capsys, "witness", "--input", json.dumps(MIXED_SHORT))
    assert code == 0
    data = json.loads(out)
    data.pop("tau")
    assert data == GOLDEN_WITNESS


def test_plan_path_csv(capsys):
    payload = dict(PURE_RELATED, n=10)
    code, out, _ = _run(capsys, "plan-path", "--input", json.dumps(payload))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "s,t,x,theta,z"
    assert len(lines) == 12
    thetas = [float(line.split(",")[3]) for line in lines[1:]]
    assert thetas[0] == 0.0
    assert thetas[-1] == pytest.approx(math.pi / 2)
    assert all(b >= a - 1e-12 for a, b in zip(thetas, thetas[1:]))  # ramp then plateau
    assert thetas[-2] == pytest.approx(math.pi / 2)  # plateau reached before the end


def test_plan_path_constant_angle(capsys):
    payload = dict(PURE_RELATED, phi=PURE_RELATED["xi"], n=4)
    code, out, _ = _run(capsys, "plan-path", "--input", json.dumps(payload))
    assert code == 0
    thetas = {line.split(",")[3] for line in out.strip().splitlines()[1:]}
    assert thetas == {"0.0"}


@pytest.mark.parametrize("n", ("Infinity", "NaN", "1.5", "true", '"abc"', "0", "-3", "null"))
def test_plan_path_n_must_be_a_positive_json_integer(capsys, n):
    # Infinity was an OverflowError traceback, 1.5 and true ran as 1, "abc" and NaN did not name n
    payload = json.dumps(PURE_RELATED)[:-1] + f', "n": {n}}}'
    code, out, err = _run(capsys, "plan-path", "--input", payload)
    assert (code, out) == (2, "")
    assert err.startswith('error: "n" must be an integer of at least 1, got ')


def test_plan_path_n_above_the_segment_bound_is_refused_before_sampling(capsys, monkeypatch):
    # "n": 1 followed by 400 zeros sampled a path until the address space ran out
    def refuse(*args):
        raise AssertionError("no path may be sampled")

    monkeypatch.setattr(cli, "plan_causal_path", refuse)
    for n in ("1" + "0" * 400, str(MAX_PATH_SEGMENTS + 1)):
        payload = json.dumps(PURE_RELATED)[:-1] + f', "n": {n}}}'
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, "plan-path", "--input", payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err == f'error: "n" must be at most {MAX_PATH_SEGMENTS} path segments, got {n}\n'
        assert peak < 1 << 20


#: cone-check runs on 41^2..81^2 grids, one per benchmark kind, with the
#: stdout, stderr and exit code of the flat-mesh evaluation they replaced;
#: each stdout's "min_eigenvalue_point" was recorded later, from the row-block
#: kernel as it stood before L took one block-wide scale.  Two more, a member
#: whose smallest entry is flat up to rounding and a non-member whose entries
#: reach 1e150, were recorded from the kernel as it stood before reports of
#: elements with c = 0 were read from d: the first is read from d, the second
#: beyond the range where that is exact.  A non-member whose c.re is 0*t, a
#: zero that is not the literal 0, was recorded from the kernel as it stood
#: before the general path lost its own rule for nodes with u = z = w = 0.  The
#: last, (x, x), fails at every node with partials constant over the grid; it
#: was recorded from the kernel as it stood before the diagonal rule ran at the
#: shape of d
GOLDEN_CONE_CHECKS = json.loads((Path(__file__).parent / "cone_check_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_CONE_CHECKS, ids=[case["kind"] for case in GOLDEN_CONE_CHECKS])
def test_cone_check_outputs_equal_the_golden_ones(case, capsys, monkeypatch):
    # small blocks, so the walk runs whole-row runs and part-row slices and
    # the refusals are re-raised from a later block
    monkeypatch.setattr(cone, "BLOCK_NODES", case["block_nodes"])
    code, out, err = _run(capsys, *case["argv"])
    assert (code, out, err) == (case["exit_code"], case["stdout"], case["stderr"])


#: the full-scale selftest JSON of seeds 0, 1 and 2, with its exit code and stderr
GOLDEN_SELFTESTS = json.loads((Path(__file__).parent / "selftest_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_SELFTESTS, ids=[f"seed{case['seed']}" for case in GOLDEN_SELFTESTS])
def test_selftest_outputs_equal_the_golden_ones(case, capsys):
    code, out, err = _run(capsys, "selftest", "--seed", str(case["seed"]))
    assert (code, out, err) == (case["exit_code"], case["stdout"], case["stderr"])


def test_plan_path_unrelated_is_input_error(capsys):
    code, _, err = _run(capsys, "plan-path", "--input", json.dumps(PURE_SHORT))
    assert code == 2


def test_selftest_quick(capsys):
    started = time.perf_counter()
    code, out, _ = _run(capsys, "selftest", "--quick", "--seed", "3")
    elapsed = time.perf_counter() - started
    assert code == 0
    assert elapsed < 10.0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["schema"] == "causalnc/1"
    assert all(set(c) == {"name", "passed", "detail"} for c in data["checks"])


@pytest.mark.parametrize("command", ("cone-check", "selftest"))
@pytest.mark.parametrize("tol", ("nan", "inf", "-inf", "banana"))
def test_tol_must_be_a_finite_number(capsys, command, tol):
    # --tol nan once reported every node of a = b = t as a violation, --tol inf passed everything;
    # selftest takes no --tol at all and checks at PSD_TOL
    payload = json.dumps({"element": {"a": "t", "b": "t"}, "dirac": {"d1": 0, "d2": 1}})
    with pytest.raises(SystemExit) as exit_info:
        main([command, f"--tol={tol}", "--input", payload])
    assert exit_info.value.code == 2
    refusal = {
        "cone-check": f"argument --tol: must be a finite number, got '{tol}'",
        "selftest": f"unrecognized arguments: --tol={tol}",
    }
    assert refusal[command] in capsys.readouterr().err


def test_flags_exist_only_where_they_are_read(capsys):
    # --tol is read by cone-check only, --seed by selftest only
    for argv in (
        ["check-pure", "--tol", "1e-9"],
        ["selftest", "--tol", "1e-9"],
        ["check-pure", "--seed", "5"],
        ["cone-check", "--seed", "5"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--input", json.dumps(PURE_RELATED)])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_parser_is_built_once_and_parse_args_leaves_it_as_built(capsys):
    cli.build_parser.cache_clear()
    _run(capsys, "check-pure", "--input", json.dumps(PURE_RELATED))
    _run(capsys, "cone-check", "--input", json.dumps({"element": {"a": "t", "b": "t"}, "dirac": {"d1": 0, "d2": 1}}))
    with pytest.raises(SystemExit):
        main(["cone-check", "--seed", "5"])
    capsys.readouterr()
    assert cli.build_parser.cache_info().misses == 1
    shared, fresh = cli.build_parser(), cli.build_parser.__wrapped__()
    assert shared.format_help() == fresh.format_help()
    commands = lambda parser: parser._subparsers._group_actions[0].choices
    assert commands(shared).keys() == commands(fresh).keys()
    for name, sub in commands(shared).items():
        assert sub.format_help() == commands(fresh)[name].format_help()


# --- event separations and Dirac gaps beyond the float range -------------------

LARGE_TIMELIKE = dict(PURE_RELATED, q=[1e308, 1e307])


def test_check_pure_at_an_overflowing_square_separation(capsys):
    # dt^2 overflowed: "related": false, SPEED_BOUND, "bound_available": NaN
    code, out, err = _run(capsys, "check-pure", "--input", json.dumps(LARGE_TIMELIKE))
    data = _strict_json(out)
    assert code == 0 and err == ""
    assert data["related"] is True and data["reason"] == "OK"
    assert data["bound_available"] == pytest.approx(math.sqrt(0.99) * 1e308, rel=1e-15)


def test_witness_at_an_overflowing_square_separation_refuses_the_related_pair(capsys):
    # was an uncaught AssertionError on a NaN separation margin
    code, out, err = _run(capsys, "witness", "--input", json.dumps(LARGE_TIMELIKE))
    assert code == 2 and out == ""
    assert "causally related" in err and "Traceback" not in err


def test_check_pure_reports_a_large_finite_proper_time(capsys):
    # was "bound_available": Infinity
    code, out, _ = _run(capsys, "check-pure", "--input", json.dumps(dict(PURE_RELATED, q=[1e200, 0])))
    assert code == 0
    assert _strict_json(out)["bound_available"] == pytest.approx(1e200, rel=1e-15)


def test_check_pure_refuses_a_separation_beyond_the_float_range(capsys):
    payload = dict(PURE_RELATED, p=[-1e308, 0], q=[1e308, 0])
    code, out, err = _run(capsys, "check-pure", "--input", json.dumps(payload))
    assert code == 2 and out == ""
    assert "event separation (inf, 0.0) is not finite" in err


#: a near-lightlike pair whose angle is 1.0e-11 more than the gap-1 budget of its exact proper time, 8.0149e-08
NEAR_LIGHTLIKE_DTHETA = 8.015893295174455e-08
NEAR_LIGHTLIKE = dict(
    PURE_RELATED,
    q=[1.112709808129998, 1.112709808129995],
    phi={"bloch": [math.cos(NEAR_LIGHTLIKE_DTHETA), math.sin(NEAR_LIGHTLIKE_DTHETA), 0]},
)


def test_check_pure_reads_a_near_lightlike_proper_time_to_its_own_precision(capsys):
    # sqrt(dt^2 - dx^2) read 8.0245e-08 and related the pair, exit 0
    code, out, _ = _run(capsys, "check-pure", "--input", json.dumps(NEAR_LIGHTLIKE))
    data = _strict_json(out)
    assert code == 1 and data["related"] is False and data["reason"] == "SPEED_BOUND"
    exact = exact_proper_time(SpacetimePoint(0.0, 0.0), SpacetimePoint(*NEAR_LIGHTLIKE["q"]))
    assert abs(data["bound_available"] - float(exact)) <= 2 * math.ulp(float(exact))


def test_witness_certifies_the_near_lightlike_pair(capsys):
    # was refused as related, exit 2, although a separating element exists
    code, out, err = _run(capsys, "witness", "--input", json.dumps(NEAR_LIGHTLIKE))
    data = _strict_json(out)
    assert code == 0 and err == ""
    assert data["psd_passed"] is True and data["margin"] > 0.0


def test_cone_check_refuses_an_overflowing_dirac_gap(capsys):
    # the gap was inf, and inf * 0 blamed the literal '0.0' of c
    payload = {"element": {"a": "t", "b": "t"}, "dirac": {"d1": 1e308, "d2": -1e308}}
    code, out, err = _run(capsys, "cone-check", "--input", json.dumps(payload))
    assert code == 2 and out == ""
    assert "Dirac gap |d1 - d2| is not finite" in err


def test_non_finite_result_is_refused_not_written(capsys, monkeypatch):
    verdict = CausalVerdict(False, Reason.SPEED_BOUND, 1.0, float("nan"))
    monkeypatch.setattr(cli, "pure_causal", lambda *args: verdict)
    code, out, err = _run(capsys, "check-pure", "--input", json.dumps(PURE_RELATED))
    assert code == 2 and out == ""
    assert "JSON" in err


# --- Dirac gaps that dwarf the angle slack ---------------------------------------


def _one_event(command: str, gap: float, first=(1, 0, 0), second=(0, 1, 0), q=(0, 0)) -> str:
    keys = ("rho", "sigma") if command == "check-mixed" else ("xi", "phi")
    payload = {
        "p": [0, 0],
        "q": list(q),
        keys[0]: {"bloch": list(first)},
        keys[1]: {"bloch": list(second)},
        "dirac": {"d1": 0, "d2": gap},
    }
    return json.dumps(payload)


@pytest.mark.parametrize("command", ("check-pure", "check-mixed"))
def test_large_gap_relates_no_distinct_states_at_one_event(capsys, command):
    # was "related": true with "bound_available": 0.0, in both orders
    for first, second in (((1, 0, 0), (0, 1, 0)), ((0, 1, 0), (1, 0, 0))):
        code, out, _ = _run(capsys, command, "--input", _one_event(command, 1e13, first, second))
        data = _strict_json(out)
        assert code == 1 and data["related"] is False and data["reason"] == "SPEED_BOUND"


def test_large_gap_does_not_forgive_a_short_proper_time(capsys):
    # was related although bound_required is 15 times bound_available
    payload = _one_event("check-pure", 1e200, q=(1e-201, 0))
    code, out, _ = _run(capsys, "check-pure", "--input", payload)
    assert code == 1 and _strict_json(out)["related"] is False


def test_plan_path_refuses_distinct_states_at_one_event_under_a_large_gap(capsys):
    # was a path whose last theta is 0, not pi/2
    code, out, err = _run(capsys, "plan-path", "--input", _one_event("plan-path", 1e13))
    assert code == 2 and out == "" and "not causally related" in err


def test_witness_at_one_event_under_a_large_gap(capsys):
    code, out, _ = _run(capsys, "witness", "--input", _one_event("witness", 1e13))
    assert code == 0 and _strict_json(out)["psd_passed"] is True


@pytest.mark.parametrize("gap, q", ((1e100, (0, 0)), (1e200, (1e-201, 0))))
def test_witness_coefficient_overflow_names_the_dirac_gap(capsys, gap, q):
    # reachable once the slack is an angle: 1e100 made c4 = 0*inf a NaN that JSON
    # cannot hold, and 1e200 raised an OverflowError traceback from gap**2
    code, out, err = _run(capsys, "witness", "--input", _one_event("witness", gap, q=q))
    assert code == 2 and out == ""
    assert f"Dirac gap {gap} is too large" in err


def _same_latitude_query(dtheta, share, v, z=0.3, theta0=0.4, gap=1.5, d1_above=True, p=(0.2, -0.1)):
    """A witness query whose worldline has share of the proper time dtheta needs, at velocity v."""
    dt = share * dtheta / gap / math.sqrt(1.0 - v * v)
    r = math.sqrt(1.0 - z * z)
    return {
        "p": list(p),
        "q": [p[0] + dt, p[1] + v * dt],
        "xi": {"bloch": [r * math.cos(theta0), r * math.sin(theta0), z]},
        "phi": {"bloch": [r * math.cos(theta0 + dtheta), r * math.sin(theta0 + dtheta), z]},
        "dirac": {"d1": gap, "d2": 0.0} if d1_above else {"d1": 0.0, "d2": gap},
    }


@pytest.mark.parametrize("slack", (0.05, 1e-3, 1e-6, 1e-9))
def test_witness_near_antipodal_refusal(capsys, slack):
    # was an AssertionError traceback and exit 1: a Simpson rule re-derived lhs_numeric
    # and could not follow csc^2(Theta) near Theta = 0
    query = _same_latitude_query(math.pi - slack, 0.9, 0.8)
    code, out, err = _run(capsys, "witness", "--input", json.dumps(query))
    assert code == 0 and err == ""
    data = _strict_json(out)
    assert data["psd_passed"] is True and data["margin"] > 0
    assert abs(data["lhs_numeric"] - data["lhs"]) <= MATCH_RTOL * max(1.0, abs(data["lhs"]))


#: a refused pair 1e-6 from antipodal whose lhs < rhs is below float resolution
BELOW_RESOLUTION = {
    "p": [0, 0],
    "q": [3.1415916535877924, 0],
    "xi": {"bloch": [0.8786361890754104, 0.3714814224790249, 0.30000000000000016]},
    "phi": {"bloch": [-0.8786365605563938, -0.3714805438426497, 0.30000000000000004]},
    "dirac": {"d1": 0, "d2": 1},
}


def test_witness_names_a_separation_below_float_resolution(capsys):
    # a refused pair 1e-6 from antipodal with its proper time just short of the band edge:
    # lhs >= rhs in floats, which was a bare AssertionError traceback and exit 1
    code, out, err = _run(capsys, "witness", "--input", json.dumps(BELOW_RESOLUTION))
    assert code == 2 and out == ""
    assert "below float resolution (near-antipodal states)" in err


@pytest.mark.parametrize(
    "query, error, message",
    (
        (PURE_RELATED, RelatedPairError, "the states are causally related; no separating element exists"),
        (
            dict(PURE_SHORT, phi={"bloch": [0, 0.6, 0.8]}),
            UnsupportedRefusalError,
            "witness construction needs a speed-bound refusal, got LATITUDE_MISMATCH",
        ),
        (
            dict(PURE_SHORT, phi={"bloch": [-1, 0, 0]}),
            NearAntipodalError,
            "the schedule touches the limiting values 0 or pi (near-antipodal states); no direct witness",
        ),
        (
            BELOW_RESOLUTION,
            NearAntipodalError,
            "the separation lhs < rhs is below float resolution (near-antipodal states); no direct witness",
        ),
    ),
    ids=("related", "latitude-mismatch", "antipodal", "below-resolution"),
)
def test_witness_refusals_are_typed(capsys, monkeypatch, query, error, message):
    raised = []

    def spy(*args):
        try:
            return refute_with_witness(*args)
        except ValueError as err:
            raised.append(type(err))
            raise

    monkeypatch.setattr(cli, "refute_with_witness", spy)
    code, out, err = _run(capsys, "witness", "--input", json.dumps(query))
    assert (code, out, err) == (2, "", f"error: witness preconditions not met: {message}\n")
    assert raised == [error]


def test_witness_certificate_fault_is_an_internal_error(capsys):
    # a refused pair pi - 1e-9 apart whose worldline is 1e-22 long: the element's pairing
    # growth misses the closed-form lhs, which was an AssertionError traceback and exit 1
    z, theta, dtheta = 0.3, 0.1, math.pi - 1e-9
    r = math.sqrt(1.0 - z * z)
    query = {
        "p": [0.0, 0.0],
        "q": [1e-22, 0.0],
        "xi": {"bloch": [r * math.cos(theta), r * math.sin(theta), z]},
        "phi": {"bloch": [r * math.cos(theta + dtheta), r * math.sin(theta + dtheta), z]},
        "dirac": {"d1": 0, "d2": 1},
    }
    code, out, err = _run(capsys, "witness", "--input", json.dumps(query))
    assert code == cli.EXIT_INTERNAL == 3 and out == ""
    assert err.startswith("error: the element's lhs") and "Traceback" not in err


def test_witness_refuses_a_related_pair_just_inside_the_sphere(capsys):
    # |r|^2 is 5e-13 below 1, outside SPHERE_BAND, so the supremum at this radius,
    # 3.140592652589705, is the required angle, not the angular distance pi - 1e-3: it is
    # below the proper time 3.140592653089249, so the pair is related and witness refuses
    radius, dtheta = 1.0 - 2.5e-13, math.pi - 1e-3
    query = {
        "p": [0.0, 0.0],
        "q": [3.140592653089249, 0.0],
        "rho": {"bloch": [radius, 0.0, 0.0]},
        "sigma": {"bloch": [radius * math.cos(dtheta), radius * math.sin(dtheta), 0.0]},
        "dirac": {"d1": 0, "d2": 1},
    }
    code, out, err = _run(capsys, "witness", "--input", json.dumps(query))
    assert (code, out) == (2, "")
    assert err == "error: witness preconditions not met: the states are causally related; no separating element exists\n"


def test_the_package_raises_no_bare_assertion_error():
    src = Path(__file__).resolve().parents[1] / "src"
    raising = [
        f"{path.relative_to(src)}:{number}"
        for path in sorted(src.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if "raise AssertionError" in line
    ]
    assert raising == []


@settings(max_examples=30)
@given(
    st.floats(0.2, math.pi - 0.2),  # angular separation
    st.floats(0.05, 0.95),  # share of the required proper time
    st.floats(-0.8, 0.8),  # velocity of the worldline
    st.floats(-0.8, 0.8),  # latitude
    st.floats(-math.pi, math.pi),  # first parallel angle
    st.sampled_from((0.5, 1.0, 2.0)),  # gap
    st.booleans(),  # sign of d1 - d2
)
def test_witness_element_is_a_member_for_cone_check(dtheta, share, v, z, theta0, gap, d1_above):
    query = _same_latitude_query(dtheta, share, v, z, theta0, gap, d1_above)
    code, out, _ = _cli(["witness", "--input", json.dumps(query)])
    assert code == 0
    data = _strict_json(out)
    (lo, hi), (start, end) = data["tau"]["strip"], data["tau"]["certified"]
    assert start == 0.0 and end == pytest.approx(share * dtheta / gap, rel=1e-12)
    assert lo < start <= end < hi
    assert (gap * lo + data["epsilon"], gap * hi + data["epsilon"]) == pytest.approx((0.0, math.pi), abs=1e-12)
    # a square around the worldline's midpoint whose nodes all lie inside the strip 0 < Theta < pi
    theta_mid = 0.5 * share * dtheta + data["epsilon"]
    half = 0.5 * min(theta_mid, math.pi - theta_mid) * math.sqrt(1.0 - v * v) / (gap * (1.0 + abs(v)))
    (pt, px), (qt, qx) = query["p"], query["q"]
    tm, xm = 0.5 * (pt + qt), 0.5 * (px + qx)
    grid = f"--grid={tm - half},{tm + half},{xm - half},{xm + half},21,21"
    element = json.dumps({"element": data["element"], "dirac": query["dirac"]})
    code, out, _ = _cli(["cone-check", grid, "--input", element])
    assert code == 0 and _strict_json(out)["member_on_grid"] is True


def test_nan_bloch_state_is_input_error(capsys):
    # was "related": true against the south pole
    payload = _one_event("check-pure", 1.0, first=(0, 0, -1), second=(float("nan"), 0, 0))
    code, out, err = _run(capsys, "check-pure", "--input", payload)
    assert code == 2 and out == "" and 'state "phi"' in err


# --- verdicts agree across subcommands on edge inputs ----------------------------

#: q - p: coincident, lightlike both ways, past-directed, timelike, and a hair of time
EDGE_OFFSETS = ((0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (-1.0, 0.0), (2.0, 0.0), (1e-201, 0.0))
EDGE_GAPS = (0.0, 2e-15, 1.0, 1e13, 1e200)
#: unit Bloch vectors: equator points, antipodes, both poles, and antipodes on one parallel
EDGE_BLOCH = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (0.6, 0, 0.8), (-0.6, 0, 0.8))


#: JSON's non-finite numbers as json.loads reads them; 1e999 is a literal beyond the float range
JSON_NON_FINITE = ("NaN", "Infinity", "-Infinity", "1e999")
_COMMANDS = ("check-pure", "check-mixed", "plan-path", "witness")
#: where a non-finite atom goes in the shared payload, and the subcommands that read it there
EDGE_SLOTS = {
    ("p", 0): _COMMANDS,
    ("q", 1): _COMMANDS,
    ("xi", "bloch", 0): ("check-pure", "plan-path", "witness"),
    ("sigma", "bloch", 2): ("check-mixed",),
    ("dirac", "d1"): _COMMANDS,
    ("n",): ("plan-path",),
}
_ATOM = "@atom@"


def _with_atom(payload: dict, slot: tuple, atom: str) -> str:
    """payload as JSON text, with the literal atom as the entry at slot."""
    payload = json.loads(json.dumps(payload))
    entry = payload
    for key in slot[:-1]:
        entry = entry[key]
    entry[slot[-1]] = _ATOM
    return json.dumps(payload).replace(json.dumps(_ATOM), atom)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(((0.0, 0.0), (0.5, -0.25))),
    st.sampled_from(EDGE_OFFSETS),
    st.sampled_from(EDGE_GAPS),
    st.booleans(),
    st.sampled_from(EDGE_BLOCH),
    st.sampled_from(EDGE_BLOCH),
    st.none() | st.tuples(st.sampled_from(list(EDGE_SLOTS)), st.sampled_from(JSON_NON_FINITE)),
)
def test_cli_verdicts_agree_on_edge_inputs(p, offset, gap, d1_above, xi, phi, atom):
    payload = {"p": list(p), "q": [p[0] + offset[0], p[1] + offset[1]]}
    payload["dirac"] = {"d1": gap, "d2": 0.0} if d1_above else {"d1": 0.0, "d2": gap}
    payload.update({"xi": {"bloch": xi}, "phi": {"bloch": phi}, "rho": {"bloch": xi}, "sigma": {"bloch": phi}})
    text = json.dumps(payload) if atom is None else _with_atom(payload, *atom)
    results = {command: _cli([command, "--input", text]) for command in _COMMANDS}
    for command, (code, out, err) in results.items():
        assert code in (0, 1, 2) and "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("error: ")
        elif command != "plan-path":
            _strict_json(out)
    if atom is not None:
        slot, _ = atom
        for command in EDGE_SLOTS[slot]:
            code, _, err = results[command]
            assert code == 2 and f'"{slot[0]}"' in err, (command, err)
        return
    related = _strict_json(results["check-pure"][1])["related"]
    # unit Bloch vectors are pure states, so check-mixed must agree
    assert _strict_json(results["check-mixed"][1])["related"] == related
    code, out, _ = results["plan-path"]
    target = PureInternalState.from_bloch(*phi)
    target_theta = 0.0 if target.is_pole else parallel_angle(target)
    last_theta = float(out.splitlines()[-1].split(",")[3]) if code == 0 else math.nan
    assert (angular_distance(last_theta, target_theta) <= 1e-12) == related
    assert ("causally related" in results["witness"][2]) == related


@pytest.mark.parametrize("tol", ("0", "5e-324", "1e308"))
def test_cone_check_on_edge_tolerances_exits_cleanly_and_writes_strict_json(tol):
    # --tol 1e308 overflowed -tol*scale in the per-node PSD rule: a RuntimeWarning,
    # and with warnings as errors a failed run; the coupled element below fails G
    # and reaches the uncoupled rule, the Schur tests and eigvalsh
    element = {"a": "4*t", "b": "4*t", "c": {"re": "3*x", "im": "0"}}
    payload = json.dumps({"element": element, "dirac": {"d1": 0, "d2": 1}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _cli(["cone-check", f"--tol={tol}", "--grid=-1,1,-1,1,9,9", "--input", payload])
    assert err == ""
    report = _strict_json(out)
    assert code == (0 if report["member_on_grid"] else 1)
    assert report["member_on_grid"] == (tol == "1e308")


# --- cone-check on edge inputs -----------------------------------------------------

#: numeric atoms: the smallest subnormal, the top decade, and a literal beyond the float range
EDGE_NUMBERS = ("5e-324", "1e308", "1e999")
#: sqrt and log at their domain edges, poles, and exponent chains: t^3^3^3 folds to
#: t^7625597484987, and t^700^700 does not fit in a float
EDGE_TERMS = (
    "sqrt(t)", "log(t)", "sqrt(x + 1)", "log(t + 1)", "1/x", "csc(t)", "x^-1",
    "t^2^2^2^2", "t^3^3^3", "t^700^700",
)
#: grids across the edge t = 0, starting on it, a subnormal away from it, and clear of it
EDGE_GRIDS = ("-1,1,-1,1,3,3", "0,1,-1,1,2,3", "5e-324,1,-1,1,3,2", "-1e-300,1e-300,-1,1,2,2", "1,2,1,2,2,2")
_DIAGONAL_SOURCES = ("t", "{n}*t", "t + {n}*{f}", "t + {f}", "{f}")
_COUPLING_SOURCES = ("0", "{n}", "{n}*{f}", "{n}*t + {f}")


#: where a non-finite atom goes in a cone-check payload; a grid slot sends the grid as JSON, not --grid
CONE_SLOTS = (("dirac", "d2"), ("grid", "t_min"), ("grid", "x_max"), ("grid", "nt"), ("element", "a"))
_GRID_KEYS = ("t_min", "t_max", "x_min", "x_max", "nt", "nx")


@settings(max_examples=160, deadline=None)
@given(
    st.sampled_from(EDGE_NUMBERS),
    st.sampled_from(EDGE_TERMS),
    st.sampled_from(_DIAGONAL_SOURCES),
    st.sampled_from(_DIAGONAL_SOURCES),
    st.sampled_from(_COUPLING_SOURCES),
    st.sampled_from(EDGE_GRIDS),
    st.sampled_from((1.0, 1e308)),
    st.none() | st.tuples(st.sampled_from(CONE_SLOTS), st.sampled_from(JSON_NON_FINITE)),
)
def test_cone_check_on_edge_inputs_exits_cleanly_and_names_the_cause(n, f, a, b, c, grid, gap, atom):
    element = {"a": a.format(n=n, f=f), "b": b.format(n=n, f=f), "c": {"re": c.format(n=n, f=f), "im": "0"}}
    parts = grid.split(",")
    bounds = [*map(float, parts[:4]), *map(int, parts[4:])]
    payload = {"element": element, "dirac": {"d1": 0.0, "d2": gap}, "grid": dict(zip(_GRID_KEYS, bounds))}
    text = json.dumps(payload) if atom is None else _with_atom(payload, *atom)
    on_grid = atom is not None and atom[0][0] == "grid"
    code, out, err = _cli(["cone-check", *([] if on_grid else [f"--grid={grid}"]), "--input", text])
    assert code in (0, 1, 2) and "Traceback" not in err
    element_key = re.match(r"error: bad element: (a|b|c\.re|c\.im): ", err)
    if atom is not None:
        # the element is read first: sources that do not parse are refused before the atom
        named = {"dirac": '"dirac" entry', "grid": '"grid" entry', "element": "bad element: a: "}[atom[0][0]]
        assert code == 2 and (named in err or element_key), err
    if code == 2:
        assert out == "" and err.startswith("error: ")
        # a grid node, the failing subexpression, or the key of the source that does not parse
        assert "at grid node (t=" in err or " in '" in err or element_key or atom is not None
    else:
        assert _strict_json(out)["member_on_grid"] is (code == 0)


def test_cone_check_names_the_node_of_an_eigenvalue_beyond_the_float_range(capsys):
    # was exit 2 with "result holds a number JSON cannot represent ... -inf", naming nothing
    payload = {"element": {"a": "t", "b": "t", "c": {"re": "1e308*sqrt(x + 1)", "im": "0"}}, "dirac": {"d1": 0, "d2": 1}}
    code, out, err = _run(capsys, "cone-check", "--grid=1,2,1,2,2,2", "--input", json.dumps(payload))
    assert (code, out) == (2, "")
    assert err == "error: smallest cone matrix eigenvalue -inf at grid node (t=1.0, x=2.0)\n"


# --- cone-check against the full eigvalsh reference ------------------------------

FIXTURE_GRID = RegionGrid(-3.0, 3.0, -3.0, 3.0, 101, 101)
_X0 = repr(float(np.linspace(-3.0, 3.0, 101)[52]))  # a grid column
_WAVE = "exp(-(t^2 + x^2))"
CONE_FAMILIES = {
    "causal_diag": ("2.1*t + 0.5*tanh(t + x) + 0.7*tanh(t - x)", "1.9*t + 0.4*tanh(t + x) + 0.3*tanh(t - x)"),
    "nonmember_bump": ("t", "t - 2.0*exp(-((t - 0.3)^2 + (x + 0.2)^2)/0.5)"),
    "near_member": (f"t + 0.99999*tanh(x - {_X0})", "t"),
    "near_nonmember": (f"t + 1.00001*tanh(x - {_X0})", "t"),
    "causal_lemma": ("0.5*t", "0.5*t", f"0.1*{_WAVE}*cos(1.3*t + 0.4)", f"0.1*{_WAVE}*sin(1.3*t + 0.4)"),
    "refused_sqrt": ("t + sqrt((t - 0.5)^2 + (x + 0.3)^2 - 1.0)", "t"),
    "refused_log": ("t", "t + log((t + 0.2)^2 + (x - 0.4)^2 - 0.8)"),
    "overflow": ("t + 0*t^700", "t"),
}


@pytest.mark.parametrize("family", sorted(CONE_FAMILIES))
def test_cone_check_output_equals_the_full_eigvalsh_reference(capsys, family):
    sources = CONE_FAMILIES[family]
    dirac = DiracData(0.0, 1.0)
    try:
        report = _reference_membership(AlgebraElement.from_sources(*sources), dirac, FIXTURE_GRID)
    except DomainError as err:
        want = (2, "", f"error: {err}\n")
    else:
        text = json.dumps({"schema": "causalnc/1", **report.to_dict()}, indent=2) + "\n"
        want = (0 if report.member_on_grid else 1, text, "")
    element = dict(zip(("a", "b"), sources))
    if len(sources) == 4:
        element["c"] = {"re": sources[2], "im": sources[3]}
    payload = json.dumps({"element": element, "dirac": {"d1": 0.0, "d2": 1.0}})
    assert _run(capsys, "cone-check", "--grid=-3,3,-3,3,101,101", "--input", payload) == want
