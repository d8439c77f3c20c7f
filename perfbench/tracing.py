"""Spans around the calls that cross from one camscat module into another.

Only the traced run imports this module.  `install` replaces the bindings
each importing module uses (so `radial.solve_oscillator` is wrapped where
radial calls it, `scattering._hankel_arrays` where scattering calls it),
and records a span per call while an operation is open.  Outside an
operation (set-up, checks) the wrappers pass straight through.

A span is [id, parent, op, name, start, end, attrs].  The c(r) closure
that radial hands to the stepper runs ~10^5 times per operation, so it
gets no span: its calls and time accumulate on the enclosing solve span
as attrs "rhs" and "leaf_s", and count as child time of that span.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

from camscat import fields, inverse, radial, scattering, specfun

ID, PARENT, OP, NAME, START, END, ATTRS = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def open(self, name, attrs=None):
        parent = self._stack[-1][ID] if self._stack else None
        rec = [len(self.spans), parent, self.op, name, perf_counter(), None,
               dict(attrs or {})]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def close(self, rec):
        rec[END] = perf_counter()
        self._stack.pop()

    def operation(self, op_id, name):
        """Open the root span of one operation; close it with end_operation."""
        self.op = op_id
        return self.open(name)

    def end_operation(self, rec):
        self.close(rec)
        self.op = None

    def wrap(self, name, fn, attrs=None):
        """fn with a span per call; attrs(bound_args, result) adds counts."""
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if attrs:
                rec[ATTRS].update(attrs(sig.bind(*args, **kwargs).arguments, out))
            return out
        return wrapper

    def wrap_solver(self, fn):
        """solve_oscillator with its c(r) closure counted and timed."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(c_fn, *args, **kwargs):
            if self.op is None:
                return fn(c_fn, *args, **kwargs)
            a = sig.bind(c_fn, *args, **kwargs).arguments
            r_out = a.get("r_out")
            rec = self.open("integrate.solve", {
                "width": len(a["u0"]) if hasattr(a["u0"], "__len__") else 1,
                "out_points": 1 if r_out is None else len(r_out),
                "rhs": 0, "leaf_s": 0.0})
            attrs = rec[ATTRS]

            def coeff(r):
                t0 = perf_counter()
                val = c_fn(r)
                attrs["leaf_s"] += perf_counter() - t0
                attrs["rhs"] += 1
                return val

            try:
                return fn(coeff, *args, **kwargs)
            finally:
                self.close(rec)
        return wrapper

    def dump(self, path, extra) -> None:
        with open(path, "w") as f:
            json.dump({**extra, "spans": self.spans}, f)
            f.write("\n")


def _orders(arg):
    return lambda a, out: {"orders": len(list(a[arg]))}


def _points(a, out):
    return {"points": len(a["r"])}


def _sigma_attrs(a, out):
    excluded = len(out[1]) if a.get("collect_errors") else 0
    return {"orders": len(list(a["nus"])), "excluded": excluded}


def install(tracer: Tracer, bench_module) -> None:
    """Wrap the cross-module bindings the workloads reach, plus the
    benchmark's own CSV write (the I/O layer that `cli` owns)."""
    t = tracer
    radial.solve_oscillator = t.wrap_solver(radial.solve_oscillator)
    for mod in (radial, scattering, specfun):
        mod._hankel_arrays = t.wrap("specfun.hankel", mod._hankel_arrays, _points)
    fields.build_gauge = t.wrap("fields.gauge", fields.build_gauge)
    fields.adaptive_gl = t.wrap("quadrature.adaptive_gl", fields.adaptive_gl)
    scattering.sigma_many = t.wrap("scattering.sigma", scattering.sigma_many,
                                   _sigma_attrs)
    scattering.unwrap_deltas = t.wrap("scattering.unwrap", scattering.unwrap_deltas)
    for mod in (scattering, inverse):
        mod.jost_endpoints = t.wrap("radial.jost", mod.jost_endpoints, _orders("nus"))
    scattering.regular_endpoints = t.wrap("radial.regular",
                                          scattering.regular_endpoints, _orders("nus"))
    inverse.regular_solve = t.wrap("radial.regular", inverse.regular_solve,
                                   lambda a, out: {"orders": 1})
    inverse.PanelQuadrature = t.wrap("radial.panelquad", inverse.PanelQuadrature)
    inverse.recover_flux = t.wrap("inverse.recover_flux", inverse.recover_flux)
    inverse.discriminator_F = t.wrap("inverse.discriminator", inverse.discriminator_F)
    bench_module.write_csv = t.wrap("io.write", bench_module.write_csv)


def op_totals(spans, op_id) -> dict:
    """Calls, self seconds and summed attrs per span name for one operation.

    Self time is a span's duration minus its direct children's durations
    and its accumulated leaf time (the c(r) calls of a solve).
    """
    mine = [s for s in spans if s[OP] == op_id]
    child = {}
    for s in mine:
        if s[PARENT] is not None:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + s[END] - s[START]
    out = {}
    for s in mine:
        tot = out.setdefault(s[NAME], {"calls": 0, "self_s": 0.0})
        tot["calls"] += 1
        tot["self_s"] += (s[END] - s[START] - child.get(s[ID], 0.0)
                          - s[ATTRS].get("leaf_s", 0.0))
        for k, v in s[ATTRS].items():
            tot[k] = tot.get(k, 0) + v
    return out
