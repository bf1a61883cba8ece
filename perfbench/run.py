"""causalnc benchmark: closed-loop workloads over the package's public functions.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload crossval --seed 1 --seconds 25 --trace 0

Each run starts fresh Python processes with BLAS pinned to one thread: a few
that only set up (imports, input generation, warm-up) to sample set-up time,
then one that runs passes over the workload's operation list for --seconds.
With --trace 1 the process alternates untraced passes with passes under
span tracing, and reports per-layer metrics instead.

Times are reported at a fixed reference speed (see worker.py), so that the
machine's drift in speed cancels: operation times are scaled by a reference
block timed next to them, set-up time by the median of the reference blocks
timed right after set-up in the run's processes.
The raw times are on the details line.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds run details and machine facts.
Workloads, metrics and the known baseline failures are described in NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("crossval", "mixed_witness", "cone_report")
SETUP_PROBES = 10  # set-up-only processes per run, besides the measuring one
# set-up processes, the pass that overruns --seconds, checks and reports
DEADLINE_MARGIN_S = 120.0
MIN_TAIL_BEYOND = 10

PER_LAYER_UNITS = {
    "calls": "count",
    "self_s": "s",
    "share": "ratio",
    "nodes": "count",
    "samples": "count",
    "failures": "count",
    "fallback_ratio": "ratio",
    "matrix_bytes": "B",
    "import_s": "s",
    "overhead_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(args, mode: str, deadline: float) -> dict:
    launched = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--launched", repr(launched),
    ]
    done = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if done.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least MIN_TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - MIN_TAIL_BEYOND - 1)
    return 100.0 * (k + 1) / n, ordered[k]


def end_to_end(measure: dict, setups: list[float], setup_refs: list[float]) -> tuple[dict, dict]:
    # Each operation's latency is its median over the passes; throughput is
    # the operations of a pass over the median time of the passes that ran.
    # One process's set-up is too short to bracket with reference blocks of
    # its own, so the median set-up is scaled by the blocks of all processes.
    setup_scale = measure["ref_nominal_s"] / statistics.median(setup_refs)
    per_op_ms = [1e3 * v for v in measure["op_median_scaled_s"]]
    raw_ms = [1e3 * v for v in measure["op_median_raw_s"]]
    percentile, tail_ms = tail(per_op_ms)
    ops = measure["ops_per_pass"]
    metrics = {
        "throughput_ops_s": (ops / statistics.median(measure["pass_scaled_loop_s"]), "1/s"),
        "latency_p50_ms": (statistics.median(per_op_ms), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "success_ratio": ((measure["attempted"] - measure["failed"]) / measure["attempted"], "ratio"),
        "setup_s": (statistics.median(setups) * setup_scale, "s"),
        "peak_rss_mb": (measure["peak_rss_mb"], "MB"),
    }
    details = {
        "latency_tail_percentile": round(percentile, 2),
        "latency_samples": len(per_op_ms),
        "latency_sample": "one operation's median latency over the passes, at reference speed",
        "failed_ratio": measure["failed"] / measure["attempted"],
        "raw": {
            "throughput_ops_s": ops / statistics.median(measure["pass_loop_s"]),
            "latency_p50_ms": statistics.median(raw_ms),
            "latency_tail_ms": tail(raw_ms)[1],
            "setup_s": statistics.median(setups),
        },
        "reference_block_s": measure["ref_s"],
        "setup_reference_block_s": statistics.median(setup_refs),
        "setup_samples_s": setups,
        "pass_loop_s": measure["pass_loop_s"],
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "causalnc" / "__init__.py").is_file():
        print(f"error: no causalnc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + args.seconds + DEADLINE_MARGIN_S
    try:
        if args.trace:
            measure = spawn(args, "trace", deadline)
            metrics = {
                name: {"value": value, "unit": PER_LAYER_UNITS[name.rsplit(".", 1)[1]]}
                for name, value in measure["per_layer"].items()
            }
            details = {"split_401_ms": measure["split"], "missing_targets": measure["missing"]}
        else:
            probes = [spawn(args, "setup", deadline) for _ in range(SETUP_PROBES)]
            measure = spawn(args, "measure", deadline)
            processes = probes + [measure]
            metrics, details = end_to_end(
                measure,
                [p["setup_s"] for p in processes],
                [r for p in processes for r in p["setup_refs_s"]],
            )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    details.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        passes=measure["passes"],
        traced_passes=measure["traced_passes"],
        ops_per_pass=measure["ops_per_pass"],
        failures_per_pass=measure["failures_per_pass"],
        end_check_failures=measure["end_check_failures"],
        end_check_details=measure["end_check_details"],
        known_failures=measure["known_failures"],
        unknown_failures=measure["unknown_failures"],
        machine=measure["machine"],
    )
    print(json.dumps({"details": details}))
    result = {
        "correct": measure["n_unknown"] == 0 and measure["end_check_failures"] == 0,
        "attempted": measure["attempted"],
        "failed": measure["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
