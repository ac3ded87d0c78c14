"""Spans around the package's internal calls, installed from outside it.

Every wrap target is a name that ``ascd.driver`` or ``ascd.cli`` looks up in
its module globals at call time, or a method of ``CompositeProblem``.
Replacing that attribute for the length of a traced call routes each call
through a timer, so the package itself is never edited.  Spans are
aggregated in memory (calls, inclusive and self nanoseconds per span name)
and written out by the caller when the benchmark ends.

A span's self time is its duration minus the whole time of the traced calls
it made, wrapper bookkeeping included; that bookkeeping is collected
separately as ``overhead_ns``.  So the self times of every span, plus the
overhead, add up to the wall time of the outermost traced call.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np


def _keep(key):
    def observe(stats, args, result):
        stats.seen[key] = result
    return observe


def _keep_arg(key, index):
    def observe(stats, args, result):
        stats.seen[key] = args[index]
    return observe


def _ties(field, best):
    """Count the coordinates of the active set that tie for the pick."""
    def observe(stats, args, result):
        scores, aset = args[0], args[1]
        sub = getattr(scores, field)[aset.indices]
        ties = int(np.count_nonzero(sub == best(sub)))
        stats.add_count("selector.tied", ties)
    return observe


def _trace_rows(stats, args, result):
    stats.add_count("driver.trace_rows", int(args[0].t.size))


# (module, attribute path, span, observer).  One span may have several
# targets; a layer is absent only when none of its targets exists.
TARGETS = (
    ("ascd.cli", "main", "cli", None),
    ("ascd.cli", "generate_synthetic", "data.generate", None),
    ("ascd.cli", "save_svmlight", "data.save", None),
    ("ascd.cli", "load_svmlight", "data.load", _keep_arg("svm_path", 0)),
    ("ascd.cli", "CompositeProblem", "problem.construct", None),
    ("ascd.cli", "run", "driver", _keep("run_result")),
    ("ascd.cli", "write_trace_csv", "driver.write_trace", _trace_rows),
    ("ascd.driver", "run", "driver", _keep("run_result")),
    ("ascd.driver", "step", "problem.step", None),
    ("ascd.driver", "OracleContext", "oracles.context",
     _keep("oracle_context")),
    ("ascd.driver", "oracle_row", "oracles.row", None),
    ("ascd.driver", "compute_bounds", "selector.score", None),
    ("ascd.driver", "gss_score_interval", "selector.score", None),
    ("ascd.driver", "gsr_bounds", "selector.score", None),
    ("ascd.driver", "gsq_bounds", "selector.score", None),
    ("ascd.driver", "active_set", "selector.active_set", None),
    ("ascd.driver", "heuristic_active_set", "selector.active_set", None),
    ("ascd.driver", "gsq_active_set", "selector.active_set", None),
    ("ascd.driver", "select_ucd", "selector.pick", None),
    ("ascd.driver", "select_scd", "selector.pick", None),
    ("ascd.driver", "select_ascd", "selector.pick", _ties("lower", np.max)),
    ("ascd.driver", "select_gsq", "selector.pick", _ties("w", np.min)),
    ("ascd.driver", "update_estimates", "selector.update",
     _keep_arg("estimate", 0)),
    ("ascd.problem", "CompositeProblem.objective", "problem.objective", None),
    ("ascd.problem", "CompositeProblem.full_gradient", "problem.full_gradient",
     None),
)


class SpanStats:
    """Aggregated spans and counters of one traced call."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.count_events = defaultdict(int)
        self.overhead_ns = 0
        self.seen = {}

    def add_span(self, span: str, ns: int) -> None:
        """Record a span the benchmark timed itself (no traced children)."""
        self.calls[span] += 1
        self.total_ns[span] += ns
        self.self_ns[span] += ns

    def add_count(self, name: str, value: int) -> None:
        self.counts[name] += value
        self.count_events[name] += 1

    def mean_count(self, name: str) -> float:
        events = self.count_events[name]
        return self.counts[name] / events if events else 0.0

    def as_dict(self) -> dict:
        return {"spans": {s: {"calls": self.calls[s],
                              "total_ns": self.total_ns[s],
                              "self_ns": self.self_ns[s]}
                          for s in sorted(self.calls)},
                "overhead_ns": self.overhead_ns,
                "counts": dict(self.counts)}


class Tracer:
    """Installs the wrappers of ``TARGETS`` and collects their spans.

    ``absent`` lists the targets that do not exist in the package, and
    ``absent_spans`` the spans none of whose targets exists.
    """

    def __init__(self):
        self.stats = SpanStats()
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        present = set()
        self._resolved = []
        for module_name, path, span, observe in TARGETS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{module_name}.{path}")
                continue
            present.add(span)
            self._resolved.append((owner, attr, original, span, observe))
        self.absent_spans = sorted({t[2] for t in TARGETS} - present)

    def take(self) -> SpanStats:
        """Return the spans collected so far and start a fresh set."""
        stats, self.stats = self.stats, SpanStats()
        return stats

    def __enter__(self) -> "Tracer":
        for owner, attr, original, span, observe in self._resolved:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, observe))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span, observe):
        clock = time.perf_counter_ns
        open_spans = self._open
        tracer = self

        def traced(*args, **kwargs):
            enter = clock()
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                children = open_spans.pop()
                stats = tracer.stats
                stats.calls[span] += 1
                stats.total_ns[span] += end - start
                stats.self_ns[span] += end - start - children
            if observe is not None:
                observe(stats, args, result)
            leave = clock()
            if open_spans:
                open_spans[-1] += leave - enter
            stats.overhead_ns += (leave - enter) - (end - start)
            return result

        traced.__wrapped__ = fn
        return traced
