"""Layer tracing for the benchmark: spans around the package's public functions.

Each traced function is rebound, in every ``pseudobound`` module namespace
that holds it, to a wrapper that records one span per call: name, start,
end, parent span and the unit id as trace id.  Rebinding every namespace
matters because the package imports functions by name (``from .discrepancy
import mmd_squared``), so internal calls are traced too and show up as
child spans.  ``installed`` restores every binding on exit.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np
from pseudobound.domains import PairSet, SampleSet

# Public functions traced per layer; a layer is a module of the package.
LAYERS = {
    "domains": ("draw_pair_process", "generate_domain", "similarity_from_members"),
    "noise": ("corrupt_labels", "estimate_noise_rates"),
    "stumps": ("erm",),
    "risk": ("fit_plain", "fit_source_guided", "fit_target_corrected",
             "empirical_risk_true", "expected_risk"),
    "discrepancy": ("mmd_squared", "median_heuristic_bandwidth",
                    "h_delta_h_distance", "ideal_joint", "align_moments"),
    "practice": ("dbscan", "pseudo_label_from_clusters", "tukey_fence",
                 "train_linear"),
    "bound": ("oracle_bound_inputs", "assemble_bound"),
    "pipeline": ("run_self_learning",),
}
FIELDS = ("calls", "points", "self_s", "failed")
UNIT = "unit"  # root span of one workload unit; its self time is untraced code

# Functions that take no array: their point count is the size they draw.
_SIZE_PARAMS = {
    "draw_pair_process": "n_pairs",
    "generate_domain": "n",
    "expected_risk": "oracle_n",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trace_id: str
    points: int
    failed: bool = False


def _rows(values) -> int:
    """Rows of the first array, pair set or sample set among ``values``."""
    for v in values:
        if isinstance(v, np.ndarray):
            return int(v.shape[0]) if v.ndim else 1
        if isinstance(v, (PairSet, SampleSet)):
            return len(v)
    return 0


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._trace_id = ""

    def _begin(self, name: str, points: int) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._trace_id, points))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def _finish(self, index: int, failed: bool) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.failed = failed
        self._open.pop()

    @contextmanager
    def unit(self, trace_id: str):
        """Root span for one unit; spans inside it carry ``trace_id``."""
        self._trace_id = trace_id
        index = self._begin(UNIT, 0)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._finish(index, failed=not ok)

    def wrap(self, name: str, fn):
        size_param = _SIZE_PARAMS.get(fn.__name__)
        signature = inspect.signature(fn) if size_param else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is None:
                points = _rows(args) or _rows(kwargs.values())
            else:
                points = int(signature.bind(*args, **kwargs).arguments[size_param])
            index = self._begin(name, points)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._finish(index, failed=not ok)
            return result

        return traced

    def write_jsonl(self, fh, pass_id: int) -> None:
        for span in self.spans:
            fh.write(json.dumps({"pass": pass_id, **asdict(span)}) + "\n")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "pseudobound" or name.startswith("pseudobound.")]


@contextmanager
def installed(tracer: Tracer):
    """Rebind every traced function to ``tracer``'s wrapper; restore on exit."""
    modules = _package_modules()
    rebound = []
    try:
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"pseudobound.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapper = tracer.wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if vars(module).get(fname) is original:
                        rebound.append((module, fname, original))
                        setattr(module, fname, wrapper)
        yield tracer
    finally:
        for module, fname, original in reversed(rebound):
            setattr(module, fname, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered, cursor = 0.0, span.start
        for child in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def metric_names() -> list[str]:
    """Per-function metric names, in ``LAYERS`` order, plus the unit's self time."""
    names = [f"{layer}.{fname}.{field}"
             for layer, fnames in LAYERS.items()
             for fname in fnames for field in FIELDS]
    return names + [f"{UNIT}.self_s"]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """calls, points, self_s and failed per traced function, summed over spans."""
    totals = dict.fromkeys(metric_names(), 0)
    for span, own in zip(spans, self_times(spans)):
        if span.name == UNIT:
            totals[f"{UNIT}.self_s"] += own
            continue
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.points"] += span.points
        totals[f"{span.name}.self_s"] += own
        totals[f"{span.name}.failed"] += int(span.failed)
    return totals
