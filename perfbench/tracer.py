"""Span tracer built from outside the library.

Every public function of every ``arakelov.*`` module is replaced, in every
``arakelov`` namespace that binds it, by one wrapper per original function
(``from .lattice import gram_of`` puts the same function object into
``divisors``, so both names get the same wrapper). Public methods of
``NumberField`` and ``GramMatrix`` are wrapped on the class.

A span records name, start, end, parent span and op id. Spans are kept in
flat arrays while the workload runs and written out once at the end. Self
time is a span's duration minus the duration of its wrapped children; the
wrapper's own bookkeeping lands in the parent's self time, which is why the
traced pass time is reported (``trace.wall_s``) and ``selftest.py`` prints
the overhead against an untraced pass.
"""
from __future__ import annotations

import importlib
import inspect
import json
import math
import sys
import time
from array import array

MODULES = ("numfield", "exact", "ideals", "lattice", "divisors", "units",
           "survey", "serialize", "cli")
# NumberField methods take the module's prefix, as the layer names do; the
# method embed and the module function embed therefore share one name
CLASSES = (("numfield", "NumberField", "numfield"),
           ("lattice", "GramMatrix", "lattice.GramMatrix"))


class Tracer:
    """Installs wrappers, records spans and per-pass aggregates."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # frames: [child_time, name_id, span index]
        self.op = -1
        self.passes: list[dict] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- aggregates ---------------------------------------------------------

    def begin_pass(self):
        # name -> [calls, self_s, total_s, items]; items is what the name's
        # post hook counts (points, steps, ...)
        self.agg: dict[str, list] = {}
        self.extra = {"candidates_args": [], "box_points": 0, "escalated": 0}
        self.passes.append({"agg": self.agg, "extra": self.extra})

    def _id(self, name: str) -> int:
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        post = _POST.get(name)
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1] if stack else None
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent[2] if parent is not None else -1)
            tracer.span_op.append(tracer.op)
            tracer.span_end.append(0.0)
            frame = [0.0, nid, idx]
            stack.append(frame)
            t0 = perf()
            tracer.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                tracer.span_end[idx] = t1
                dur = t1 - t0
                if parent is not None:
                    parent[0] += dur
                a = tracer.agg.get(name)
                if a is None:
                    a = tracer.agg[name] = [0, 0.0, 0.0, 0]
                a[0] += 1
                a[1] += dur - frame[0]
                a[2] += dur
            if post is not None:
                post(tracer, a, parent, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        mods = {m: importlib.import_module(f"{self.package.__name__}.{m}")
                for m in MODULES}
        wrappers = {}
        for mname, mod in mods.items():
            for attr, val in vars(mod).items():
                if (inspect.isfunction(val) and not attr.startswith("_")
                        and val.__module__ == mod.__name__):
                    wrappers[val] = self._wrap(f"{mname}.{attr}", val)
        for ns in [self.package, *mods.values()]:
            for attr, val in list(vars(ns).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._restore.append((ns, attr, val))
                    setattr(ns, attr, wrappers[val])
        for mname, cname, prefix in CLASSES:
            cls = getattr(mods[mname], cname)
            for attr, val in list(vars(cls).items()):
                if inspect.isfunction(val) and not attr.startswith("_"):
                    self._restore.append((cls, attr, val))
                    setattr(cls, attr, self._wrap(f"{prefix}.{attr}", val))

    def uninstall(self):
        for ns, attr, val in reversed(self._restore):
            setattr(ns, attr, val)
        self._restore.clear()

    # -- output -------------------------------------------------------------

    def pass_table(self, k: int) -> dict[str, dict]:
        """Per-name {calls, self_s, total_s, items} of pass k."""
        return {name: {"calls": a[0], "self_s": a[1], "total_s": a[2], "items": a[3]}
                for name, a in self.passes[k]["agg"].items()}

    def write_spans(self, path):
        """One JSON header line (name table, span count, column layout),
        then the raw bytes of each column array in header order."""
        cols = [("name", self.span_name), ("start", self.span_start),
                ("end", self.span_end), ("parent", self.span_parent),
                ("op", self.span_op)]
        header = {"names": self.names, "spans": len(self.span_start),
                  "byteorder": sys.byteorder,
                  "columns": [[name, arr.typecode] for name, arr in cols]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in cols:
                arr.tofile(fh)


def read_spans(path) -> tuple[list[str], dict[str, array]]:
    """(name table, column arrays) of a file written by write_spans."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        cols = {}
        for name, code in header["columns"]:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            cols[name] = arr
    return header["names"], cols


# -- counters computed from outside ----------------------------------------
# Each hook sees the aggregate row of its name, the caller's frame, the call
# arguments and the result. Hooks run after the span closes, so their cost
# never enters the callee's time.

def _count_items(tracer, a, parent, args, result):
    a[3] += len(result)


def _ideals_found(tracer, a, parent, args, result):
    f, bound = args[0], args[1]
    a[3] += len(result)
    # the same limit enumerate_integral_ideals derives from its bound
    tracer.extra["candidates_args"].append(
        (f.n, int(math.floor(float(bound) + 1e-12))))


def _quadratic_form_points(tracer, a, parent, args, result):
    a[3] += len(result)
    if parent is not None and tracer.names[parent[1]] == "lattice.enumerate_box":
        tracer.extra["box_points"] += len(result)


def _embed_interval(tracer, a, parent, args, result):
    field, prec = args[0], args[3]
    if prec > field.prec:
        tracer.extra["escalated"] += 1


def _reduce_steps(tracer, a, parent, args, result):
    a[3] += result[1].k


_POST = {
    "ideals.enumerate_integral_ideals": _ideals_found,
    "lattice.enumerate_quadratic_form": _quadratic_form_points,
    "lattice.enumerate_box": _count_items,
    "numfield.embed_interval": _embed_interval,
    "divisors.reduce": _reduce_steps,
    "divisors.reduced_cycle": _count_items,
}
