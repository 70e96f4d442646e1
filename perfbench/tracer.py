"""Spans and counters around the library's layer boundaries.

The tracer replaces library functions by wrappers while it is installed and
puts the originals back afterwards; no file under ``src/`` knows about it.
``from .x import y`` copies a binding, so every module attribute that holds the
original function object is replaced, not only the defining one.

A span is ``(name, start, end, parent, job)``; ``parent`` is the index of the
enclosing span, ``-1`` at the top.  ``laurent`` is called millions of times,
so it gets counters only and its time falls to the span of its caller.
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List

import affgrass
from affgrass import grass, laurent, mvcomb, moment, paving, rootdata, springer

JOB_SPAN = "bench.job"

# (module, attribute) of each function that gets a span
SPANNED = (
    (rootdata, "family_from_support"),
    (mvcomb, "canonicalize"),
    (grass, "canonicalize_point"),
    (grass, "ec"),
    (grass, "member"),
    (grass, "point_from_y"),
    (moment, "skeleton"),
    (moment, "min_formal_poincare"),
    (paving, "_pave"),
    (paving, "_verify_steps"),
    (paving, "max_gmv_inside"),
    (paving, "greedy_paving"),
    (paving, "paving_121"),
    (paving, "contracting_cell"),
    (springer, "member_springer"),
    (springer, "criterion"),
    (springer, "truncated_paving"),
)

# short span names for the private entry points
SPAN_NAMES = {"_pave": "pave", "_verify_steps": "verify"}

MODULES = ("rootdata", "mvcomb", "grass", "moment", "paving", "springer")


class Tracer:
    def __init__(self):
        self.spans: List = []
        self.stack = [-1]
        self.job = -1
        self.counts: Dict[str, int] = defaultdict(int)
        self.in_steps = False     # inside a step of iter_points
        self._undo: List = []

    # -- installation ------------------------------------------------------
    def install(self):
        for mod, attr in SPANNED:
            fn = getattr(mod, attr)
            name = f"{mod.__name__.rsplit('.', 1)[1]}.{SPAN_NAMES.get(attr, attr)}"
            inner = self._true_counted(name, fn) if name == "springer.member_springer" else fn
            self._rebind(fn, self._span(name, inner))
        self._rebind(grass.iter_points, self._steps("grass.iter_points", grass.iter_points))
        self._rebind(grass.dprofile, self._dprofile(grass.dprofile))
        self._rebind(paving.gmv_dimension,
                     self._counted("paving.gmv_dimension", paving.gmv_dimension))
        for cls in (paving.ContractingCell, paving.IwahoriCell):
            self._set(cls, "enumerate", self._cell(cls.enumerate))
        series = laurent.LaurentSeries
        for attr, counter in (("__init__", "laurent.series_built"),
                              ("__mul__", "laurent.mul_calls"),
                              ("inv", "laurent.inv_calls")):
            self._set(series, attr, self._counted(counter, getattr(series, attr)))

    def uninstall(self):
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, orig, new):
        modules = [m for n, m in sys.modules.items()
                   if m is affgrass or n.startswith("affgrass.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, new)

    # -- wrappers ------------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.job)
        return wrapper

    def _steps(self, name, fn):
        """Each step of a generator is a span; the steps that yield are counted."""
        spans, stack, clock, counts = self.spans, self.stack, time.perf_counter, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            try:
                while True:
                    idx = len(spans)
                    spans.append(None)
                    parent = stack[-1]
                    stack.append(idx)
                    self.in_steps = True
                    t0 = clock()
                    try:
                        x = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        self.in_steps = False
                        stack.pop()
                        spans[idx] = (name, t0, t1, parent, self.job)
                    counts["grass.points_yielded"] += 1
                    yield x
            finally:
                it.close()
        return wrapper

    def _dprofile(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(x):
            if self.in_steps:
                counts["grass.dprofile_calls"] += 1
            return fn(x)
        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _true_counted(self, name, fn):
        counts, counter = self.counts, f"{name}_true"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if out:
                counts[counter] += 1
            return out
        return wrapper

    def _cell(self, fn):
        spanned = self._span("paving.cell_enumerate", fn)

        @functools.wraps(fn)
        def wrapper(cell, field):
            pts = spanned(cell, field)
            self.counts["paving.cell_points"] += len(pts)
            return pts
        return wrapper

    # -- the benchmark's own job spans -----------------------------------------
    def begin_job(self, job_id: int) -> int:
        self.job = job_id
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def end_job(self, idx: int, t0: float, t1: float):
        self.stack.pop()
        self.spans[idx] = (JOB_SPAN, t0, t1, -1, self.job)
        self.job = -1

    # -- results -------------------------------------------------------------
    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")


def summarize(tracer: Tracer, factors: List[float]) -> Dict[str, Dict[str, float]]:
    """Per-layer counts and times of one traced pass.

    Each span's duration is scaled by the speed factor of its job, so times
    are reference seconds like the end-to-end ones.
    """
    spans = tracer.spans
    total = defaultdict(float)
    calls = defaultdict(int)
    dur = [(t1 - t0) * factors[job] for _name, t0, t1, _parent, job in spans]
    child = [0.0] * len(spans)
    covered = jobs = 0.0
    for (name, _t0, _t1, parent, _job), d in zip(spans, dur):
        total[name] += d
        calls[name] += 1
        if name == JOB_SPAN:
            jobs += d
        elif parent >= 0 and spans[parent][0] == JOB_SPAN:
            covered += d
        if parent >= 0:
            child[parent] += d
    self_s = defaultdict(float)
    for (name, *_rest), d, c in zip(spans, dur, child):
        self_s[name.split(".", 1)[0]] += d - c
    c = tracer.counts
    yielded = c["grass.points_yielded"]
    ms_calls = calls["springer.member_springer"]
    counts = {
        "laurent.series_built": c["laurent.series_built"],
        "laurent.mul_calls": c["laurent.mul_calls"],
        "laurent.inv_calls": c["laurent.inv_calls"],
        "rootdata.family_from_support_calls": calls["rootdata.family_from_support"],
        "mvcomb.canonicalize_calls": calls["mvcomb.canonicalize"],
        "grass.points_yielded": yielded,
        "grass.dprofile_calls": c["grass.dprofile_calls"],
        "grass.canonicalize_point_calls": calls["grass.canonicalize_point"],
        "grass.ec_calls": calls["grass.ec"],
        "paving.max_gmv_inside_calls": calls["paving.max_gmv_inside"],
        "paving.gmv_dimension_calls": c["paving.gmv_dimension"],
        "paving.cell_points": c["paving.cell_points"],
        "springer.member_springer_calls": ms_calls,
    }
    ratios = {
        "grass.accept_ratio": yielded / c["grass.dprofile_calls"]
        if c["grass.dprofile_calls"] else 0.0,
        "springer.member_ratio": c["springer.member_springer_true"] / ms_calls
        if ms_calls else 0.0,
    }
    times = {
        "rootdata.family_from_support_s": total["rootdata.family_from_support"],
        "mvcomb.canonicalize_s": total["mvcomb.canonicalize"],
        "grass.iter_points_s": total["grass.iter_points"],
        "grass.canonicalize_point_s": total["grass.canonicalize_point"],
        "grass.ec_s": total["grass.ec"],
        "grass.point_from_y_s": total["grass.point_from_y"],
        "moment.skeleton_s": total["moment.skeleton"],
        "moment.min_formal_poincare_s": total["moment.min_formal_poincare"],
        "paving.pave_s": total["paving.pave"],
        "paving.verify_s": total["paving.verify"],
        "paving.max_gmv_inside_s": total["paving.max_gmv_inside"],
        "paving.cell_enumerate_s": total["paving.cell_enumerate"],
        "springer.member_springer_s": total["springer.member_springer"],
    }
    for mod in MODULES:
        times[f"{mod}.self_s"] = self_s[mod]
    times["trace.covered_frac"] = covered / jobs if jobs > 0 else 0.0
    return {"counts": counts, "ratios": ratios, "times": times}
