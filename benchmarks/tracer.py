"""Spans and counters for the traced benchmark run.

The package has no instrumentation of its own, so the tracer wraps public
functions of each layer by name, from outside the package. A function is
often imported by name into other modules (`bounds` calls its own
`optimize_pair` binding, `cli` its own `write_json`), so every module of the
package that holds the same function object gets the wrapper, and
`uninstall` puts the originals back.

Each call of a wrapped function becomes one span (name, start, end, parent,
op). The parent is the innermost wrapped call still open, and `op` is the
benchmark operation the span belongs to, so the spans of one operation share
an identifier. Counter hooks run after the span has closed, so their cost is
not charged to the layer.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

PACKAGE = "privdistill"


def _count_build(counters, args, kwargs, result):
    dim = result.spec.total_dim
    counters["private_states.build_calls"] += 1
    counters["private_states.dense_bytes"] += 16 * dim * dim


def _count_validate(counters, args, kwargs, result):
    counters["states.validate_calls"] += 1


def _count_optimize(counters, args, kwargs, result):
    best = result.eta
    counters["overlap.pairs"] += 1
    counters["overlap.starts"] += len(result.start_etas)
    counters["overlap.useful_starts"] += sum(
        1 for eta in result.start_etas if best - eta <= 1e-9
    )
    counters["overlap.best_start_sweeps"] += result.sweeps
    counters["overlap.converged_pairs"] += int(result.converged)


def _count_apply(counters, args, kwargs, result):
    dim = args[0].spec.total_dim
    counters["filtering.apply_calls"] += 1
    counters["filtering.regroup_bytes"] += 16 * dim * dim


def _count_cert(counters, args, kwargs, result):
    counters["bounds.cert_samples"] += result.samples


def _count_read(counters, args, kwargs, result):
    counters["serialize.bytes_read"] += os.path.getsize(args[0])


def _count_write(counters, args, kwargs, result):
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    if path not in (None, "-"):
        counters["serialize.bytes_written"] += os.path.getsize(path)


# (module, function, span name, counter hook). The span name is the layer
# the time is charged to; several functions may share one name.
WRAPPED = (
    ("private_states", "build_private_state", "private_states.build", _count_build),
    ("private_states", "tensor_power_spec", "private_states.tensor_power", None),
    ("states", "validate_state", "states.validate", _count_validate),
    ("overlap", "optimize_pair", "overlap.optimize", _count_optimize),
    ("filtering", "build_filters", "filtering.build", None),
    ("filtering", "apply_filter", "filtering.apply", _count_apply),
    ("linalg", "permute_factors", "linalg.permute_factors", None),
    ("linalg", "partial_trace", "linalg.partial_trace", None),
    ("linalg", "von_neumann_entropy", "linalg.von_neumann_entropy", None),
    ("bounds", "ed_lower_bound", "bounds.ed_lower_bound", None),
    ("bounds", "ef_certificate", "bounds.ef_certificate", _count_cert),
    ("serialize", "read_json", "serialize.read", _count_read),
    ("serialize", "spec_from_json", "serialize.read", None),
    ("serialize", "spec_to_json", "serialize.write", None),
    ("serialize", "state_to_json", "serialize.write", None),
    ("serialize", "write_json", "serialize.write", _count_write),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """In-memory spans and counters, filled while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int | None, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, func_name, span_name, hook in WRAPPED:
            original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), func_name)
            wrapper = self._wrap(original, span_name, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def totals(self, scale: dict[int, float]) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self time per span name, in seconds at nominal speed.

        Each span is scaled by `scale[op]` of its operation. Self time is a
        span's duration minus that of its direct children; calls are
        sequential, so children never overlap.
        """
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, op in self.spans:
            total[name] += (end - start) * scale[op]
            if parent is not None:
                child[parent] += (end - start) * scale[op]
        own: dict[str, float] = defaultdict(float)
        for sid, (name, start, end, _, op) in enumerate(self.spans):
            own[name] += (end - start) * scale[op] - child[sid]
        return total, own

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": self.spans,
                    "counters": dict(sorted(self.counters.items())),
                },
                fh,
            )
