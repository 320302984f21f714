"""Spans around the calls into each graphonlab module, for the traced pass.

:class:`Tracer` replaces, while it is installed, the names a module binds
for calls into another module (``graphonlab.cli.density``,
``graphonlab.spectral.eliminate``, ``graphonlab.stepgraphon.pair``, ...)
with wrappers that record spans, and puts the originals back on removal,
so no library code changes. ``graphonlab.transforms.twin_partition`` and
``graphonlab.transforms.quotient`` are wrapped inside their own module as
well, because the rounds of ``twin_reduce`` are a layer metric.

Each span records a name, start, end, parent span and job. The
``measures`` functions are leaves called millions of times inside twin
detection, so their calls are rolled up per parent span into a call count
and a summed duration: the counts are exact, the times carry the cost of
the wrapper. A span's self time is its duration minus its children's.
"""
from __future__ import annotations

import importlib
import os
from collections import Counter, defaultdict
from time import perf_counter

from fixtures import enumeration_count, productcheck_count

#: span name of the job itself: ``cli.run`` from entry to the --out file closed
JOB = "cli"

#: (module, bound name) -> span name; modules are under ``graphonlab.``
SPANS = {
    ("fileio", "load_graphon"): "fileio.load",
    ("fileio", "load_graph"): "fileio.load",
    ("fileio", "load_partition"): "fileio.load",
    ("fileio", "load_moments"): "fileio.load",
    ("fileio", "serialize_graphon"): "fileio.serialize",
    ("fileio", "serialize_partition"): "fileio.serialize",
    ("fileio", "serialize_graph"): "fileio.serialize",
    ("fileio", "serialize_matched_pair"): "fileio.serialize",
    ("fileio", "validate_graphon"): "stepgraphon.validate",
    ("cli", "validate_graphon"): "stepgraphon.validate",
    ("cli", "density"): "density.enumerate",
    ("cli", "marginal"): "density.enumerate",
    ("momentlab", "density"): "density.enumerate",
    ("cli", "density_dp"): "density.eliminate",
    ("spectral", "eliminate"): "density.eliminate",
    ("cli", "mc_density"): "density.mc",
    ("cli", "product_identity_residual"): "density.productcheck",
    ("cli", "kernel_matrix"): "stepgraphon.kernel",
    ("density", "kernel_matrix"): "stepgraphon.kernel",
    ("transforms", "kernel_matrix"): "stepgraphon.kernel",
    ("spectral", "kernel_matrix"): "stepgraphon.kernel",
    ("cli", "p_norm"): "stepgraphon.pnorm",
    ("cli", "carleman_report"): "stepgraphon.carleman",
    ("cli", "twin_partition"): "transforms.twins",
    ("transforms", "twin_partition"): "transforms.twins",
    ("cli", "twin_reduce"): "transforms.reduce",
    ("cli", "quotient"): "transforms.quotient",
    ("transforms", "quotient"): "transforms.quotient",
    ("cli", "anchored_graphon"): "transforms.anchor",
    ("cli", "regularity_check"): "transforms.regularity",
    ("cli", "eigendecomp"): "spectral.eigen",
    ("cli", "path_kernel"): "spectral.pathkernel",
    ("cli", "lift_check"): "spectral.liftcheck",
    ("cli", "counterexample_report"): "momentlab",
    ("cli", "matched_pair"): "momentlab",
}

#: leaf calls into ``measures``, rolled up per parent span
LEAVES = {
    ("stepgraphon", "pair"): "measures.pair",
    ("stepgraphon", "tv_norm"): "measures.tv_norm",
    ("transforms", "measure_combine"): "measures.combine",
    ("transforms", "tv_distance"): "measures.tv_distance",
    ("momentlab", "moment"): "measures.moment",
    ("momentlab", "point_mass"): "measures.point_mass",
    ("momentlab", "unit_functional"): "measures.unit_functional",
}


def _assignments(F, W, pinned: int = 0) -> int:
    return enumeration_count(W.q, F.n_vertices - pinned)


def _product_assignments(F1, F2, W) -> int:
    return productcheck_count(W.q, F1.n_vertices, F2.n_vertices, len(F1.labels))


#: (module, bound name) -> counter updates computed from the call's arguments
COUNTS = {
    ("fileio", "load_graphon"): lambda a: {"fileio.bytes_read": os.path.getsize(a[0])},
    ("fileio", "load_graph"): lambda a: {"fileio.bytes_read": os.path.getsize(a[0])},
    ("fileio", "load_partition"): lambda a: {"fileio.bytes_read": os.path.getsize(a[0])},
    ("fileio", "load_moments"): lambda a: {"fileio.bytes_read": os.path.getsize(a[0])},
    ("cli", "density"): lambda a: {"density.assignments": _assignments(a[0], a[1])},
    ("momentlab", "density"): lambda a: {"density.assignments": _assignments(a[0], a[1])},
    ("cli", "marginal"): lambda a: {
        "density.assignments": _assignments(a[0], a[1], len(a[0].labels))
    },
    ("cli", "product_identity_residual"): lambda a: {
        "density.assignments": _product_assignments(*a)
    },
    ("cli", "mc_density"): lambda a: {"density.mc.samples": a[2]},
    ("cli", "twin_partition"): lambda a: {"transforms.row_pairs": a[0].q * (a[0].q - 1) // 2},
    ("transforms", "twin_partition"): lambda a: {
        "transforms.row_pairs": a[0].q * (a[0].q - 1) // 2
    },
}


class Tracer:
    """In-memory spans; ``install`` wraps the bound names, ``remove`` restores them."""

    def __init__(self):
        # span: [name, start, end, parent index, job, time covered by children]
        self.spans: list[list] = []
        # (parent index, leaf name) -> [calls, summed seconds]
        self.rollups: dict[tuple[int, str], list] = {}
        self.counters: Counter = Counter()
        self._stack = [-1]
        self._job = None
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapped(*args, **kwargs):
            if count is not None:
                counters.update(count(args))
            parent = stack[-1]
            rec = [name, 0.0, 0.0, parent, self._job, 0.0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += rec[2] - rec[1]

        return wrapped

    def _leaf(self, fn, name):
        spans, stack, rollups = self.spans, self._stack, self.rollups

        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                parent = stack[-1]
                r = rollups.get((parent, name))
                if r is None:
                    rollups[(parent, name)] = [1, dt]
                else:
                    r[0] += 1
                    r[1] += dt
                if parent >= 0:
                    spans[parent][5] += dt

        return wrapped

    def install(self) -> None:
        for key, name in SPANS.items():
            self._replace(key, lambda fn: self._span(fn, name, COUNTS.get(key)))
        for key, name in LEAVES.items():
            self._replace(key, lambda fn: self._leaf(fn, name))

    def _replace(self, key: tuple[str, str], wrap) -> None:
        mod = importlib.import_module(f"graphonlab.{key[0]}")
        fn = getattr(mod, key[1])
        self._saved.append((mod, key[1], fn))
        setattr(mod, key[1], wrap(fn))

    def remove(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def job(self, job_name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of one job."""
        self._job = job_name
        try:
            return self._span(fn, JOB, None)(*args)
        finally:
            self._job = None

    # -- reports ------------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, float], Counter]:
        """Self seconds and call counts by span name."""
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, _, _, children in self.spans:
            self_s[name] += (end - start) - children
            calls[name] += 1
        for (_, name), (n, total) in self.rollups.items():
            self_s[name] += total
            calls[name] += n
        return self_s, calls

    def reduce_rounds(self) -> tuple[int, int]:
        """(twin_partition calls made inside twin_reduce, twin_reduce calls)."""
        rounds = sum(
            1
            for name, _, _, parent, _, _ in self.spans
            if name == "transforms.twins" and parent >= 0 and self.spans[parent][0] == "transforms.reduce"
        )
        calls = sum(1 for s in self.spans if s[0] == "transforms.reduce")
        return rounds, calls

    def doc(self) -> dict:
        return {
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "job": j}
                for n, s, e, p, j, _ in self.spans
            ],
            "rollups": [
                {"name": name, "parent": parent, "calls": n, "total_s": total}
                for (parent, name), (n, total) in sorted(self.rollups.items())
            ],
            "counters": dict(self.counters),
        }


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass of the job list."""
    self_s, calls = tracer.layer_totals()
    rounds, reduces = tracer.reduce_rounds()
    measures_s = sum(v for k, v in self_s.items() if k.startswith("measures."))
    m: dict[str, tuple[float, str]] = {}

    def sec(metric, span):
        m[metric] = (self_s.get(span, 0.0), "s")

    def count(metric, value):
        m[metric] = (value, "count")

    sec("cli.self_s", JOB)
    sec("fileio.load.self_s", "fileio.load")
    count("fileio.load.calls", calls["fileio.load"])
    m["fileio.bytes_read"] = (tracer.counters["fileio.bytes_read"], "bytes")
    sec("fileio.serialize.self_s", "fileio.serialize")
    m["fileio.bytes_written"] = (tracer.counters["fileio.bytes_written"], "bytes")
    m["measures.self_s"] = (measures_s, "s")
    count("measures.pair.calls", calls["measures.pair"])
    count("measures.tv_distance.calls", calls["measures.tv_distance"])
    count("measures.combine.calls", calls["measures.combine"])
    sec("stepgraphon.kernel.self_s", "stepgraphon.kernel")
    count("stepgraphon.kernel.calls", calls["stepgraphon.kernel"])
    sec("stepgraphon.pnorm.self_s", "stepgraphon.pnorm")
    sec("stepgraphon.carleman.self_s", "stepgraphon.carleman")
    sec("stepgraphon.validate.self_s", "stepgraphon.validate")
    sec("density.enumerate.self_s", "density.enumerate")
    count("density.assignments", tracer.counters["density.assignments"])
    sec("density.eliminate.self_s", "density.eliminate")
    count("density.eliminate.calls", calls["density.eliminate"])
    sec("density.mc.self_s", "density.mc")
    count("density.mc.samples", tracer.counters["density.mc.samples"])
    sec("density.productcheck.self_s", "density.productcheck")
    sec("transforms.twins.self_s", "transforms.twins")
    count("transforms.twins.calls", calls["transforms.twins"])
    count("transforms.row_pairs", tracer.counters["transforms.row_pairs"])
    m["transforms.reduce.rounds_per_call"] = (rounds / reduces if reduces else 0.0, "ratio")
    sec("transforms.quotient.self_s", "transforms.quotient")
    sec("transforms.anchor.self_s", "transforms.anchor")
    sec("spectral.eigen.self_s", "spectral.eigen")
    sec("spectral.pathkernel.self_s", "spectral.pathkernel")
    sec("spectral.liftcheck.self_s", "spectral.liftcheck")
    sec("momentlab.self_s", "momentlab")
    return m
