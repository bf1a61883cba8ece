"""One workload process: set up, run passes for a time budget, report as JSON.

Started by run.py with BLAS pinned to one thread; prints a single JSON object
on its last stdout line.  Modes:

  setup    imports, input generation and warm-up, then exit (a set-up sample)
  measure  set up, then untraced passes for the whole budget
  trace    set up, then passes for the whole budget, every second one traced

The machine's speed drifts, so operation times are also expressed at a
fixed reference speed: a reference block of interpreter, small-array numpy
and batched 4x4 eigvalsh work that shares no code with the package is timed
between blocks of operations, and each operation's time is scaled by
REF_NOMINAL_S over the reference time measured around it.  Every process
also times SETUP_REFS blocks right after set-up, and run.py scales set-up
time by the median of those blocks over all the processes of a run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter

_t0 = time.perf_counter()
import causalnc.cli  # noqa: E402,F401  (numpy and the whole package, as the CLI loads them)

IMPORT_S = time.perf_counter() - _t0

import numpy as np  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, attempt  # noqa: E402

LAUNCH_HELP = "time.monotonic() of the parent just before this process was started"
# The reference block's time at the nominal machine speed.  A fixed unit,
# never retuned: changing it or the block rescales every reported time.
REF_NOMINAL_S = 0.005
REF_EVERY_S = 0.25  # operation time between two reference blocks
SETUP_REFS = 5  # reference blocks right after set-up, to scale set-up time

_REF_RNG = np.random.default_rng(20_000)
_REF_MATRICES = _REF_RNG.normal(size=(600, 4, 4)) + 1j * _REF_RNG.normal(size=(600, 4, 4))
_REF_MATRICES = _REF_MATRICES + np.conj(np.transpose(_REF_MATRICES, (0, 2, 1)))
_REF_VECTOR = np.ones(16)


def _ref_step(k: int) -> int:
    return k * k % 7


def reference_block() -> float:
    """Seconds for a fixed mix of interpreter, small numpy and LAPACK work."""
    start = time.perf_counter()
    total = 0
    for k in range(20_000):
        total += _ref_step(k)
    for _ in range(600):
        _REF_VECTOR.sum()
        np.add(_REF_VECTOR, _REF_VECTOR)
    np.linalg.eigvalsh(_REF_MATRICES)
    return time.perf_counter() - start


def run_pass(workload, pass_no: int, tracer=None) -> dict:
    """Run every operation once, timing each; then check the results.

    A reference block runs before the first operation and after every
    REF_EVERY_S of operations; the operations of one block are scaled by the
    mean of the two reference times around them.
    """
    n = workload.n_ops
    latencies = [0.0] * n
    scaled = [0.0] * n
    results: list = [None] * n
    loop = scaled_loop = 0.0
    refs = [reference_block()]
    i = 0
    while i < n:
        first = i
        block_start = time.perf_counter()
        while i < n and time.perf_counter() - block_start < REF_EVERY_S:
            if tracer is not None:
                tracer.op = (pass_no, i)
            t0 = time.perf_counter()
            results[i] = attempt(workload.run, i)
            latencies[i] = time.perf_counter() - t0
            i += 1
        block = time.perf_counter() - block_start
        refs.append(reference_block())
        scale = REF_NOMINAL_S / (0.5 * (refs[-2] + refs[-1]))
        for k in range(first, i):
            scaled[k] = latencies[k] * scale
        loop += block
        scaled_loop += block * scale
    if tracer is not None:
        tracer.op = (pass_no, "check")
    check_start = time.perf_counter()
    outcomes = [workload.check(i, r) for i, r in enumerate(results)]
    end_ok = workload.end_check(results)
    wall = loop + time.perf_counter() - check_start
    return {
        "pass_no": pass_no,
        "latencies": latencies,
        "scaled": scaled,
        "outcomes": outcomes,
        "end_check": end_ok,
        "loop": loop,
        "scaled_loop": scaled_loop,
        "wall": wall,
        "refs": refs,
    }


def run_passes(workload, seconds: float, tracer=None) -> tuple[list[dict], list[dict]]:
    """Passes until the budget is spent; with a tracer, every second pass is traced.

    Alternating keeps traced and untraced passes under the same machine
    conditions, so their ratio measures the tracing overhead.  A full garbage
    collection between passes, outside the timed region, starts every pass
    from the same heap, so peak memory does not depend on how many passes fit.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while not plain or (tracer is not None and not traced) or time.perf_counter() - start < seconds:
        gc.collect()
        pass_no = len(plain) + len(traced)
        if tracer is None or pass_no % 2 == 0:
            plain.append(run_pass(workload, pass_no))
            continue
        tracer.install()
        try:
            traced.append(run_pass(workload, pass_no, tracer))
        finally:
            tracer.uninstall()
    return plain, traced


# Span metrics per layer; counters and ratios are added in per_layer().
SPAN_METRICS = (
    ("fields.parse", ("calls", "self_s", "share")),
    ("fields.eval_grid", ("calls", "self_s", "share")),
    ("fields.eval_values", ("calls", "self_s")),
    ("cone.certify_grid_psd", ("calls", "self_s", "share")),
    ("cone.cholesky", ("calls", "self_s")),
    ("cone.eigvalsh", ("calls", "self_s", "share")),
    ("cone.cone_membership", ("calls", "self_s", "share")),
    ("causality.pure_causal", ("calls", "self_s")),
    ("causality.mixed_causal", ("calls", "self_s", "share")),
    ("causality.mixed_angle_sup", ("calls", "self_s", "share")),
    ("witness.refute_with_witness", ("calls", "self_s")),
    ("witness.certify_witness_psd", ("calls", "self_s", "share")),
    ("witness.lhs_by_integration", ("calls", "self_s")),
    ("witness.build_mixed_witness", ("calls", "self_s")),
    ("oracle.sample_causal_element", ("calls", "self_s")),
    ("oracle.cross_validate_pure", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
)


def machine_facts() -> dict:
    """Facts recorded with every result; read from this process, which runs the workload."""
    import ctypes
    import os
    import platform
    from pathlib import Path

    import numpy as np

    facts = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": "unknown",
        "caches": {},
        "blas": "unknown",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset") + " (requested)",
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() != "Instruction":
                facts["caches"][f"L{(index / 'level').read_text().strip()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        pass
    # ask the loaded OpenBLAS itself how many threads it uses
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    facts["blas_threads"] = fn()
                    break
    except OSError:
        pass
    return facts


def per_layer(tracer, passes: list[dict], split_op) -> tuple[dict, dict]:
    """Per-pass layer metrics from the spans of the traced passes."""
    n = len(passes)
    wall = sum(p["wall"] for p in passes)
    stats = tracer.self_times()
    metrics: dict[str, float] = {}
    for name, kinds in SPAN_METRICS:
        calls, self_s = stats.get(name, (0, 0.0))
        values = {"calls": calls / n, "self_s": self_s / n, "share": self_s / wall}
        metrics.update((f"{name}.{kind}", values[kind]) for kind in kinds)
    counters = tracer.counters
    certify_calls = stats.get("cone.certify_grid_psd", (0, 0.0))[0]
    fallbacks = sum(
        1
        for name, _, parent, *_ in tracer.spans
        if name == "cone.eigvalsh" and parent >= 0 and tracer.spans[parent][0] == "cone.certify_grid_psd"
    )
    metrics["fields.eval_grid.nodes"] = counters["fields.eval_grid.nodes"] / n
    metrics["cone.nodes"] = counters["cone.nodes"] / n
    metrics["cone.matrix_bytes"] = 256 * counters["cone.nodes"] / n  # computed: 16 complex128 entries
    metrics["cone.fallback_ratio"] = fallbacks / certify_calls if certify_calls else 0.0
    metrics["witness.certify_witness_psd.samples"] = counters["witness.certify_witness_psd.samples"] / n
    metrics["witness.failures"] = (
        sum(1 for p in passes for o in p["outcomes"] if o.certificate and not o.ok) / n
    )
    split = {}
    if split_op is not None:
        parts = {}
        for p in passes:
            key = (p["pass_no"], split_op)
            for name, (_, self_s) in tracer.self_times(lambda op: op == key).items():
                parts.setdefault(name, []).append(self_s)
            parts.setdefault("operation", []).append(p["latencies"][split_op])
        split = {f"{name}_ms": 1e3 * statistics.median(v) for name, v in sorted(parts.items())}
    return metrics, split


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--launched", type=float, required=True, help=LAUNCH_HELP)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)
    workload.warmup()
    first_op = time.monotonic()
    report = {
        "setup_s": first_op - args.launched,
        "setup_refs_s": [reference_block() for _ in range(SETUP_REFS)],
        "import_s": IMPORT_S,
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = Tracer() if args.mode == "trace" else None
    passes, traced = run_passes(workload, args.seconds, tracer)
    if tracer is not None:
        metrics, split = per_layer(tracer, traced, getattr(workload, "split_op", None))
        metrics["cli.import_s"] = IMPORT_S
        metrics["trace.overhead_ratio"] = statistics.median(p["wall"] for p in traced) / statistics.median(
            p["wall"] for p in passes
        )
        report.update(per_layer=metrics, split=split, missing=tracer.missing)

    # Every pass repeats the same operation list, so an operation is counted
    # once: attempted is the length of the list, and an operation has failed
    # if any of its runs failed.  The counts then depend on the seed only,
    # not on how many passes fit in the budget.
    everything = passes + traced
    outcomes = [o for p in everything for o in p["outcomes"]]
    failed = [
        runs[0]
        for runs in ([p["outcomes"][i] for p in everything if not p["outcomes"][i].ok] for i in range(workload.n_ops))
        if runs
    ]
    unknown = [o.detail for o in outcomes if not o.ok and o.known is None]
    end_failures = [p["end_check"].detail for p in everything if not p["end_check"].ok]
    refs = [r for p in passes for r in p["refs"]]
    report.update(
        ops_per_pass=workload.n_ops,
        passes=len(passes),
        traced_passes=len(traced),
        attempted=workload.n_ops,
        failed=len(failed),
        failures_per_pass=[sum(not o.ok for o in p["outcomes"]) for p in everything],
        known_failures=dict(Counter(o.known for o in failed if o.known)),
        unknown_failures=unknown[:10],
        n_unknown=len(unknown),
        end_check_failures=len(end_failures),
        end_check_details=end_failures[:3],
        op_median_scaled_s=[statistics.median(p["scaled"][i] for p in passes) for i in range(workload.n_ops)],
        op_median_raw_s=[statistics.median(p["latencies"][i] for p in passes) for i in range(workload.n_ops)],
        pass_loop_s=[p["loop"] for p in passes],
        pass_scaled_loop_s=[p["scaled_loop"] for p in passes],
        ref_s={"median": statistics.median(refs), "min": min(refs), "max": max(refs), "n": len(refs)},
        ref_nominal_s=REF_NOMINAL_S,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine_facts(),
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
