"""Command-line front end.

Subcommands: check-pure, check-mixed, cone-check, witness, plan-path and
selftest.  Inputs are JSON (a file path or an inline object via --input),
outputs are JSON except plan-path which emits CSV; files are written
atomically.  Exit codes are a stable contract:

  0  related / member on grid / certificate valid / all checks passed
  1  not related / violation found / checks failed
  2  malformed or unusable input
  3  internal fault: a built certificate failed its own check

Every JSON output starts with a "schema" field holding SCHEMA, causalnc/1,
which only this module writes.  Angles are radians throughout.  Only
cone-check takes --tol, the PSD tolerance, which must be a finite number.
selftest runs the acceptance battery of tests/test_acceptance.py at a
reduced scale seeded by --seed, with PSD tests at cone.PSD_TOL.  witness
reads the mixed pair (rho, sigma) of an input without "xi".
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
import tempfile
from typing import Optional

from .causality import MAX_PATH_SEGMENTS, MixedState, PureState, _decide, plan_causal_path, pure_causal
from .cone import PSD_TOL, AlgebraElement, RegionGrid, cone_membership
from .minkowski import SpacetimePoint
from .oracle import DEFAULT_REGION
from .selftest import run_selftest
from .states import (
    DiracData,
    PoleError,
    mixed_state_from_dict,
    parallel_angle,
    pure_state_from_dict,
)
from .witness import CertificateError, refute_with_witness

SCHEMA = "causalnc/1"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(ValueError):
    pass


#: What reading one JSON entry can raise; OverflowError is an integer beyond the float range.
_BAD_ENTRY = (KeyError, TypeError, ValueError, OverflowError)


def _load_input(raw: Optional[str]) -> dict:
    if raw is None:
        raise InputError("missing --input (a JSON file path or an inline JSON object)")
    text = raw
    if not raw.lstrip().startswith("{"):
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise InputError(f"cannot read input file: {err}") from err
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:  # also an integer beyond int's digit limit, or deep nesting
        raise InputError(f"malformed JSON: {err}") from err
    if not isinstance(data, dict):
        raise InputError("input JSON must be an object")
    return data


def _point(data: dict, key: str) -> SpacetimePoint:
    try:
        t, x = data[key]
        return SpacetimePoint(float(t), float(x))
    except _BAD_ENTRY as err:
        raise InputError(f'bad or missing event "{key}": {err}') from err


def _dirac(data: dict) -> DiracData:
    try:
        return DiracData.from_dict(data["dirac"])
    except _BAD_ENTRY as err:
        raise InputError(f'bad or missing "dirac" entry: {err}') from err


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".causalnc-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(obj: dict, path: Optional[str]) -> None:
    """Write a result as strict JSON: a non-finite number is an error, not a bare NaN token."""
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except ValueError as err:
        raise ValueError(f"result holds a number JSON cannot represent: {err}") from err
    _write_output(text, path)


def _finite_float(text: str) -> float:
    """The argparse type of --tol: a number that is neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _internal(data: dict, key: str, read):
    """The internal state read from the entry under key; a refusal names the key."""
    try:
        return read(data[key])
    except _BAD_ENTRY as err:
        raise InputError(f'bad or missing state "{key}": {err}') from err


def _pure_entry(entry):
    """Accept {"xi": [[re,im],[re,im]]}, {"bloch": [x,y,z]} or the bare component list."""
    return pure_state_from_dict(entry if isinstance(entry, dict) else {"xi": entry})


def _pure_pair(data: dict) -> tuple[PureState, PureState]:
    omega = PureState(_point(data, "p"), _internal(data, "xi", _pure_entry))
    eta = PureState(_point(data, "q"), _internal(data, "phi", _pure_entry))
    return omega, eta


def _cmd_check_pure(args) -> int:
    data = _load_input(args.input)
    omega, eta = _pure_pair(data)
    verdict = pure_causal(omega, eta, _dirac(data))
    _write_json({"schema": SCHEMA, **verdict.to_dict()}, args.output)
    return EXIT_OK if verdict.related else EXIT_NEGATIVE


def _mixed_pair(data: dict) -> tuple[MixedState, MixedState]:
    omega = MixedState(_point(data, "p"), _internal(data, "rho", mixed_state_from_dict))
    eta = MixedState(_point(data, "q"), _internal(data, "sigma", mixed_state_from_dict))
    return omega, eta


def _cmd_check_mixed(args) -> int:
    data = _load_input(args.input)
    omega, eta = _mixed_pair(data)
    verdict, sup = _decide(omega.point, eta.point, omega.internal, eta.internal, _dirac(data))
    # the supremum's rotation and the arcs of rho and sigma there; null where none was taken
    arcs = dict(zip(("theta_star", "arc_rho", "arc_sigma"), sup[1:] if sup else (None, None, None)))
    _write_json({"schema": SCHEMA, **verdict.to_dict(), **arcs}, args.output)
    return EXIT_OK if verdict.related else EXIT_NEGATIVE


def _grid_from_args(args, data: dict) -> RegionGrid:
    if args.grid is not None:
        parts = args.grid.split(",")
        if len(parts) != 6:
            raise InputError('--grid wants "tmin,tmax,xmin,xmax,nt,nx"')
        try:
            return RegionGrid(
                float(parts[0]), float(parts[1]), float(parts[2]), float(parts[3]),
                int(parts[4]), int(parts[5]),
            )
        except ValueError as err:
            raise InputError(f"bad --grid: {err}") from err
    if "grid" in data:
        try:
            return RegionGrid.from_dict(data["grid"])
        except _BAD_ENTRY as err:
            raise InputError(f'bad "grid" entry: {err}') from err
    return DEFAULT_REGION


def _cmd_cone_check(args) -> int:
    data = _load_input(args.input)
    try:
        element = AlgebraElement.from_dict(data["element"] if "element" in data else data)
    except _BAD_ENTRY as err:
        raise InputError(f"bad element: {err}") from err
    report = cone_membership(element, _dirac(data), _grid_from_args(args, data), args.tol)
    _write_json({"schema": SCHEMA, **report.to_dict()}, args.output)
    return EXIT_OK if report.member_on_grid else EXIT_NEGATIVE


def _cmd_witness(args) -> int:
    data = _load_input(args.input)
    omega, eta = _mixed_pair(data) if "rho" in data and "xi" not in data else _pure_pair(data)
    try:
        certificate = refute_with_witness(omega, eta, _dirac(data))
    except ValueError as err:
        raise InputError(f"witness preconditions not met: {err}") from err
    _write_json({"schema": SCHEMA, **certificate.to_dict()}, args.output)
    return EXIT_OK


def _cmd_plan_path(args) -> int:
    data = _load_input(args.input)
    omega, eta = _pure_pair(data)
    n = data.get("n", 64)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InputError(f'"n" must be an integer of at least 1, got {n!r}')
    if n > MAX_PATH_SEGMENTS:
        raise InputError(f'"n" must be at most {MAX_PATH_SEGMENTS} path segments, got {n}')
    try:
        samples = plan_causal_path(omega, eta, _dirac(data), n)
    except ValueError as err:
        raise InputError(f"path preconditions not met: {err}") from err
    out = io.StringIO()
    out.write("s,t,x,theta,z\n")
    for sample in samples:
        try:
            theta = parallel_angle(sample.internal)
        except PoleError:
            theta = 0.0  # poles carry no angle; column kept plottable
        out.write(f"{sample.s},{sample.point.t},{sample.point.x},{theta},{sample.internal.z}\n")
    _write_output(out.getvalue(), args.output)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    summary = run_selftest(seed=args.seed, quick=args.quick)
    _write_json({"schema": SCHEMA, **summary}, args.output)
    return EXIT_OK if summary["passed"] else EXIT_NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    parse_args leaves it unchanged, so every main call reuses the one parser.
    """
    parser = argparse.ArgumentParser(
        prog="causalnc",
        description="Causal-order oracles and certificates for a flat 2D almost-commutative spacetime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", help="JSON file path or inline JSON object")
        p.add_argument("--output", help="write result here (atomic); default stdout")

    p = sub.add_parser("check-pure", help="decide the causal order between two pure states")
    common(p)
    p.set_defaults(fn=_cmd_check_pure)

    p = sub.add_parser("check-mixed", help="decide the causal order between two mixed states")
    common(p)
    p.set_defaults(fn=_cmd_check_mixed)

    p = sub.add_parser("cone-check", help="grid membership test for an algebra element")
    common(p)
    p.add_argument("--tol", type=_finite_float, default=PSD_TOL, help=f"PSD tolerance (default {PSD_TOL})")
    p.add_argument(
        "--grid",
        help='"tmin,tmax,xmin,xmax,nt,nx" overriding the input grid; '
        "use --grid=-3,3,... for negative bounds",
    )
    p.set_defaults(fn=_cmd_cone_check)

    p = sub.add_parser("witness", help="refutation certificate for a non-related pure (xi, phi) or mixed (rho, sigma) pair")
    common(p)
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("plan-path", help="CSV samples of a feasible causal path")
    common(p)
    p.set_defaults(fn=_cmd_plan_path)

    p = sub.add_parser("selftest", help="run the acceptance battery at reduced scale")
    common(p, needs_input=False)
    p.add_argument("--seed", type=int, default=0, help="seed of the reduced-scale sampling")
    p.add_argument("--quick", action="store_true", help="fast subset of the checks")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as err:
        # InputError plus domain-layer errors (parse, evaluation domain,
        # validation): all reflect unusable input, not an internal fault
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except CertificateError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
