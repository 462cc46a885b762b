"""Spans around calls into the package, recorded from the benchmark side.

``Tracer.install`` rebinds each traced public function in every
``topshuffle`` module namespace that holds it, so calls between modules are
traced as well as the benchmark's own.  A name that a later refactor
removed is skipped and reports 0 calls.  Generators are timed only inside
``next``.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

import reference


def _spec(args, kwargs):
    return args[0] if args else kwargs["spec"]


def _tuples(args, kwargs, result):
    spec = _spec(args, kwargs)
    return reference.outcomes(spec.n, spec.a)


def _g_tuples(args, kwargs, result):
    spec = _spec(args, kwargs)
    group = args[1] if len(args) > 1 else kwargs["group"]
    return reference.outcomes(spec.n, spec.a, group.order)


def _terms(args, kwargs, result):
    return len(result)


def _q_key(args, kwargs):
    spec = _spec(args, kwargs)
    return spec.n, spec.a, args[1] if len(args) > 1 else kwargs["j"]


# (span name, module, attribute path, count of work done, key of the work).
# The span name is the per-layer metric prefix.
TRACED = (
    ("coefficients.q_cardinality", "coefficients", "q_cardinality", None, _q_key),
    ("coefficients.phi", "coefficients", "phi", None, None),
    ("coefficients.phi_inverse", "coefficients", "phi_inverse", None, None),
    (
        "coefficients.iter_segmented_partitions",
        "coefficients",
        "iter_segmented_partitions",
        None,
        None,
    ),
    ("algebra.expansion", "algebra", "expansion", None, None),
    ("algebra.brute_force_product", "algebra", "brute_force_product", _tuples, None),
    ("algebra.expansion_element", "algebra", "expansion_element", _terms, None),
    ("algebra.AlgebraElement.eq", "algebra", "AlgebraElement.__eq__", None, None),
    ("wreath.g_expansion", "wreath", "g_expansion", None, None),
    ("wreath.g_brute_force_product", "wreath", "g_brute_force_product", _g_tuples, None),
    ("wreath.g_expansion_element", "wreath", "g_expansion_element", _terms, None),
    ("wreath.GAlgebraElement.eq", "wreath", "GAlgebraElement.__eq__", None, None),
    ("probability.ways_to_reach", "probability", "ways_to_reach", None, None),
    ("probability.g_ways_to_reach", "probability", "g_ways_to_reach", None, None),
    ("cli.run", "cli", "run", None, None),
)

JOB = "job"


class Tracer:
    """Span store for one process; one open span stack, since jobs run
    one at a time on one thread."""

    def __init__(self) -> None:
        self.names = [JOB] + [entry[0] for entry in TRACED]
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.count = array("q")
        self.keys: dict[int, set] = {}
        self.round = 0
        self._job_id = -1
        self._stack = [-1]
        self._undo: list = []

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.job.append(self._job_id)
        self.count.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def begin_job(self, job_id: int) -> int:
        self._job_id = job_id
        return self.open(0)

    def _wrap(self, name_id, fn, measure, key):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return _TracedIterator(self, name_id, fn(*args, **kwargs))

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                self.count[idx] = measure(args, kwargs, result)
            if key is not None:
                self.keys.setdefault(name_id, set()).add((self.round, key(args, kwargs)))
            return result

        return traced

    def install(self, package: str = "topshuffle") -> None:
        """Rebind every traced name; ``uninstall`` restores the originals."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for name_id, (_, module, path, measure, key) in enumerate(TRACED, start=1):
            owner = sys.modules.get(f"{package}.{module}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if owner is None or getattr(owner, attr, None) is None:
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name_id, original, measure, key)
            if outer:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, binding, original))
                        setattr(m, binding, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self nanoseconds, work count,
        and distinct keys."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {
            name: {"calls": 0, "total_ns": 0, "self_ns": 0, "count": 0}
            for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["total_ns"] += dur[i]
            row["self_ns"] += dur[i] - child[i]
            row["count"] += self.count[i]
        for name_id, keys in self.keys.items():
            out[self.names[name_id]]["distinct"] = len(keys)
        return out

    def write(self, path) -> None:
        """One JSON object per span: name, start and end in ns, parent span
        index (-1 at a job's root) and job id."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            for i in range(len(self.start)):
                handle.write(
                    json.dumps(
                        {
                            "name": self.names[self.name[i]],
                            "start_ns": self.start[i],
                            "end_ns": self.end[i],
                            "parent": self.parent[i],
                            "job": self.job[i],
                        }
                    )
                    + "\n"
                )


class _TracedIterator:
    """Times each ``next`` of a wrapped generator as one span; a span that
    produced an item counts 1."""

    def __init__(self, tracer: Tracer, name_id: int, inner) -> None:
        self._tracer = tracer
        self._name_id = name_id
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.open(self._name_id)
        try:
            item = next(self._inner)
        finally:
            self._tracer.close(idx)
        self._tracer.count[idx] = 1
        return item
