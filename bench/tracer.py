"""Per-layer tracing of mlresample, installed from outside the package.

A layer is one module of ``src/mlresample``.  ``Tracer.install`` wraps every
public function a layer module defines, plus the methods named in
``METHODS``, and rebinds each wrapper under every name that refers to the
original in any ``mlresample`` module: ``from .x import y`` copies the
binding, so patching only the defining module would miss calls such as
``resampling.nearest_indices`` or ``cli.parse_mulan``.

Each wrapped call opens a frame.  Calls to the per-row functions in
``PER_ROW`` are folded into counts and totals; every other call is kept as a
span (id, parent, job, layer, name, start, end).  A frame's self time is its
duration minus the durations of the frames it directly encloses.  Spans stay
in memory and are written once, by ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = (
    "arff",
    "dataset",
    "metrics",
    "distance",
    "resampling",
    "decoupling",
    "partitioning",
    "mlknn",
    "evaluation",
    "cli",
)

METHODS = {
    "distance": ("FeatureSpace", ("__init__", "encode", "pairwise")),
    "dataset": ("MultiLabelDataset", ("__post_init__",)),
}

# Called once per instance, neighbour or label pair: one span each would
# cost more than the call and flood the trace.
PER_ROW = frozenset(
    {
        "distance.nearest_indices",
        "resampling.labelset_distance",
        "resampling.new_sample",
        "metrics.co_occurrence_count",
    }
)


def _observe_parse(counters, args, kwargs, result):
    counters["arff.bytes_read"] += sum(len(a) for a in (*args, *kwargs.values()) if isinstance(a, str))


def _observe_write(counters, args, kwargs, result):
    counters["arff.bytes_written"] += sum(len(text) for text in result)


def _observe_pairwise(counters, args, kwargs, result):
    counters["distance.cells"] += result.size
    counters["distance.max_matrix_bytes"] = max(counters["distance.max_matrix_bytes"], result.nbytes)


def _observe_select(counters, args, kwargs, result):
    counters["distance.neighbor_slots"] += len(result)


def _observe_validate(counters, args, kwargs, result):
    counters["dataset.rows_validated"] += len(args[0].instances)


def _observe_main(counters, args, kwargs, result):
    counters["cli.nonzero_exits"] += result != 0


# The files read and written are plain ASCII, so string lengths are bytes.
OBSERVERS = {
    "arff.parse_mulan": _observe_parse,
    "arff.write_mulan": _observe_write,
    "distance.FeatureSpace.pairwise": _observe_pairwise,
    "distance.nearest_indices": _observe_select,
    "dataset.MultiLabelDataset.__post_init__": _observe_validate,
    "cli.main": _observe_main,
}


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.job = -1
        self.spans: list[tuple] = []
        # key -> [calls, errors, total_s, self_s]
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span_id, start, child_s]
        self._next_id = 0

    def _call(self, key, per_row, observe, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        if per_row:
            span_id = parent
        else:
            self._next_id += 1
            span_id = self._next_id
        frame = [span_id, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
        except BaseException:
            self._close(key, per_row, frame, parent, error=True)
            raise
        self._close(key, per_row, frame, parent, error=False)
        return result

    def _close(self, key, per_row, frame, parent, error):
        end = time.perf_counter()
        span_id, start, child_s = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        stats = self.stats.setdefault(key, [0, 0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += error
        stats[2] += duration
        stats[3] += duration - child_s
        if not per_row:
            self.spans.append((span_id, parent, self.job, key, start, end, error))

    def wrap(self, key, fn):
        per_row = key in PER_ROW
        observe = OBSERVERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(key, per_row, observe, fn, args, kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the layers' public functions and methods where they are bound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mlresample.{layer}")
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == module.__name__:
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(module, cls_name, None)
                for method in methods:
                    if cls is not None and method in vars(cls):
                        setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", vars(cls)[method]))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "mlresample" and not mod_name.startswith("mlresample."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"stats": self.stats, "counters": dict(self.counters), "spans": self.spans}, fh
            )


def layer_metrics(trace: dict, rows_in: int, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics from one dumped trace.

    ``rows_in`` is the number of instances entering the jobs, ``report_bytes``
    the size of the JSON reports and manifests they wrote.
    """
    stats, counters = trace["stats"], trace["counters"]

    def total(field, *keys):
        return sum(stats[k][field] for k in keys if k in stats)

    def layer_sum(field, layer):
        return total(field, *(k for k in stats if k.split(".", 1)[0] == layer))

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_sum(3, layer)
        m[f"{layer}.calls"] = layer_sum(0, layer)
        m[f"{layer}.errors"] = layer_sum(1, layer)
    m["cli.errors"] += counters.get("cli.nonzero_exits", 0)

    m["arff.parse_s"] = total(3, "arff.parse_mulan", "arff.parse_label_header")
    m["arff.write_s"] = total(3, "arff.write_mulan")
    m["arff.bytes_read"] = counters.get("arff.bytes_read", 0)
    m["arff.bytes_written"] = counters.get("arff.bytes_written", 0)

    m["dataset.validate_s"] = total(3, "dataset.MultiLabelDataset.__post_init__")
    m["dataset.rows_validated"] = counters.get("dataset.rows_validated", 0)
    m["dataset.validations_per_row"] = m["dataset.rows_validated"] / rows_in if rows_in else 0.0

    m["metrics.profile_calls"] = total(0, "metrics.profile")

    cells = counters.get("distance.cells", 0)
    slots = counters.get("distance.neighbor_slots", 0)
    m["distance.encode_s"] = total(3, "distance.FeatureSpace.__init__", "distance.FeatureSpace.encode")
    m["distance.pairwise_s"] = total(3, "distance.FeatureSpace.pairwise")
    m["distance.select_s"] = total(3, "distance.nearest_indices")
    m["distance.cells"] = cells
    m["distance.cells_per_neighbor"] = cells / slots if slots else 0.0
    m["distance.max_matrix_mb"] = counters.get("distance.max_matrix_bytes", 0) / 1e6

    m["resampling.new_sample_calls"] = total(0, "resampling.new_sample")
    m["cli.report_bytes"] = report_bytes
    return m
