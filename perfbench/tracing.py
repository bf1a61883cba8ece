"""Span tracing of the causalnc layers from outside the package.

The tracer replaces module-level names that package code resolves at call
time (``causalnc.cone.eval_grid``, ``causalnc.oracle.certify_grid_psd``,
``numpy.linalg.eigvalsh`` ...) with wrappers that record one span per call:
name, operation, parent span, start and end.  Spans stay in memory and are
reduced to per-layer metrics when the run ends.  Nothing under ``src/`` is
changed; a name that a later version of the package no longer has is
skipped and reported as missing.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter
from typing import Callable, Iterable, Optional

CONE_SPANS = ("cone.certify_grid_psd", "cone.cone_membership")


def _region_nodes(args, kwargs) -> int:
    for value in (*args, *kwargs.values()):
        if hasattr(value, "nt") and hasattr(value, "nx"):
            return int(value.nt) * int(value.nx)
    return 0


def _grid_nodes(args, kwargs) -> int:
    t = args[1] if len(args) > 1 else kwargs.get("t")
    return int(getattr(t, "size", 1))


def _witness_samples(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs.get("n", 0))


# (module, attribute, span name, counter name, counter function, only inside)
TARGETS = (
    ("causalnc.cone", "parse", "fields.parse", None, None, None),
    ("causalnc.cone", "eval_grid", "fields.eval_grid", "fields.eval_grid.nodes", _grid_nodes, None),
    ("causalnc.oracle", "eval_values", "fields.eval_values", None, None, None),
    ("causalnc.oracle", "certify_grid_psd", "cone.certify_grid_psd", "cone.nodes", _region_nodes, None),
    ("causalnc.cli", "cone_membership", "cone.cone_membership", "cone.nodes", _region_nodes, None),
    ("numpy.linalg", "cholesky", "cone.cholesky", None, None, CONE_SPANS),
    ("numpy.linalg", "eigvalsh", "cone.eigvalsh", None, None, CONE_SPANS),
    ("causalnc.causality", "pure_causal", "causality.pure_causal", None, None, None),
    ("causalnc.oracle", "pure_causal", "causality.pure_causal", None, None, None),
    ("causalnc.witness", "pure_causal", "causality.pure_causal", None, None, None),
    ("causalnc.causality", "mixed_causal", "causality.mixed_causal", None, None, None),
    ("causalnc.witness", "mixed_causal", "causality.mixed_causal", None, None, None),
    ("causalnc.causality", "_mixed_angle_sup", "causality.mixed_angle_sup", None, None, None),
    ("causalnc.witness", "_mixed_angle_sup", "causality.mixed_angle_sup", None, None, None),
    ("causalnc.witness", "refute_with_witness", "witness.refute_with_witness", None, None, None),
    (
        "causalnc.witness",
        "certify_witness_psd",
        "witness.certify_witness_psd",
        "witness.certify_witness_psd.samples",
        _witness_samples,
        None,
    ),
    ("causalnc.witness", "lhs_by_integration", "witness.lhs_by_integration", None, None, None),
    ("causalnc.witness", "build_mixed_witness", "witness.build_mixed_witness", None, None, None),
    ("causalnc.oracle", "sample_causal_element", "oracle.sample_causal_element", None, None, None),
    ("causalnc.oracle", "cross_validate_pure", "oracle.cross_validate_pure", None, None, None),
    ("causalnc.cli", "main", "cli.main", None, None, None),
)


class Tracer:
    """Records a span for every call through an installed wrapper."""

    def __init__(self) -> None:
        self.op: object = None  # key of the operation running now
        self.spans: list[list] = []  # [name, op, parent, start, end, child_time]
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, Callable]] = []

    def _wrap(self, fn, name, counter, count_fn, inside: Optional[Iterable[str]]):
        def traced(*args, **kwargs):
            if inside and not any(self._open[s] for s in inside):
                return fn(*args, **kwargs)
            if counter is not None:
                self.counters[counter] += count_fn(args, kwargs)
            parent = self._stack[-1] if self._stack else -1
            record = [name, self.op, parent, 0.0, 0.0, 0.0]
            index = len(self.spans)
            self.spans.append(record)
            self._stack.append(index)
            self._open[name] += 1
            record[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                self._open[name] -= 1
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent][5] += record[4] - record[3]

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.missing = []
        for module_name, attr, name, counter, count_fn, inside in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter, count_fn, inside))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def self_times(self, keep: Callable[[object], bool] = lambda op: True) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name, over spans whose op passes keep."""
        out: dict[str, list] = {}
        for name, op, _, start, end, child in self.spans:
            if keep(op):
                entry = out.setdefault(name, [0, 0.0])
                entry[0] += 1
                entry[1] += end - start - child
        return {name: (calls, total) for name, (calls, total) in out.items()}
