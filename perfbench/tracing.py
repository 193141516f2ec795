"""Spans recorded from outside the package, around its public functions.

Each wrapper is installed at the attribute its caller looks up (for
example ``pcst.cli.parse_instance``, which the CLI calls by that name,
not ``pcst.instance.parse_instance``), so no line of the package changes.
Spans stay in memory; self times are computed from them afterwards.
"""
from __future__ import annotations

import time
from contextlib import contextmanager

# (module, attribute, span name); the span name plus "_s" is the metric.
# solver.solve's own body (argument handling, the initial check-mode
# sync) is counted as state initialisation.
WRAPPED = (
    ("pcst.cli", "parse_instance", "instance.parse"),
    ("pcst.solver", "solve", "solver.init"),
    ("pcst.solver", "init_state", "solver.init"),
    ("pcst.solver", "run_phase1", "solver.growth"),
    ("pcst.solver", "run_phase2", "solver.prune"),
    ("pcst.solver", "check_growth_invariants", "solver.check"),
    ("pcst.solver", "check_prune_invariants", "solver.check"),
    ("pcst.verify", "certificate", "verify.certificate"),
    ("pcst.verify", "check_feasibility", "verify.check_feasibility"),
    ("pcst.verify", "growth_inequality", "verify.growth_inequality"),
    ("pcst.verify", "audit_solution", "verify.audit"),
    ("pcst.laminar", "to_records", "laminar.to_records"),
    ("pcst.laminar", "records_from_json", "laminar.records_from_json"),
    ("pcst.laminar", "from_records", "laminar.from_records"),
)

# span names whose call counts are reported
COUNTED = ("verify.check_feasibility", "verify.growth_inequality")


class Tracer:
    """Nested spans as [name, start, end, parent index] rows."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.results: dict[str, list] = {}

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        row = [name, 0.0, 0.0, parent]
        self.spans.append(row)
        self._open.append(index)
        row[1] = time.perf_counter()
        try:
            yield row
        finally:
            row[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str, keep_as: str | None = None):
        """fn inside a span; keep_as also keeps its results under that key."""
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep_as:
                self.results.setdefault(keep_as, []).append(result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def self_time_by_name(spans) -> dict[str, float]:
    totals: dict[str, float] = {}
    for (name, *_), own in zip(spans, self_times(spans)):
        totals[name] = totals.get(name, 0.0) + own
    return totals


def install(tracer: Tracer, modules: dict) -> list:
    """Wrap every entry of WRAPPED; returns what ``uninstall`` needs."""
    saved = []
    for module_name, attr, name in WRAPPED:
        module = modules[module_name]
        fn = getattr(module, attr)
        saved.append((module, attr, fn))
        keep_as = "solution" if attr == "solve" else None
        setattr(module, attr, tracer.wrap(fn, name, keep_as))
    return saved


def uninstall(saved):
    for module, attr, fn in saved:
        setattr(module, attr, fn)
