"""camscat benchmark: one workload, one seed, a closed loop for a fixed time.

    python3 perfbench/run.py --workload phase_table --seed 0 --seconds 30 --trace 0

One caller in one thread runs operations back to back, each starting when
the previous one returned, for about --seconds, in whole cycles over the
workload's inputs (at least one).  Every operation's result is checked outside
the timed region: the first result per input against independent routes
(see workloads.py), every repeat for bit-identity with the first.

--trace 0 reports the end-to-end metrics and never imports the tracer,
so the package runs unpatched.  Its times are wall times rescaled to a
reference host speed that a SpeedProbe samples during each operation; the
raw wall times are printed before the result.  --trace 1 wraps the calls
between camscat modules (tracing.py), reports per-layer metrics per
operation and writes the spans to .perfbench_out/ when the run ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The package is imported from
src/ of the checkout this file sits in; without it the run exits with 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 7
CALIB_ITERS = 4000
PROBE_ITERS = 200               # one probe: about 2.5 ms
PROBE_TICK_S = 0.1              # probes take about 2.5% of an operation
REF_ITER_S = 14e-6              # the loop's time per iteration at reference speed

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import camscat
import workloads
workloads.WORKLOADS[{name!r}].build({seed})
wall = time.perf_counter() - t0
from run import probe_scale
print(repr(wall), repr(probe_scale()))
"""


def _stepper_loop(iters: int) -> float:
    """A fixed pure-Python plus small-numpy loop shaped like a stepper step;
    returns its wall time."""
    import numpy as np
    k = np.full((7, 2, 16), 1.0 + 1.0j)
    w = np.linspace(0.0, 1.0, 7)
    acc = 0.0
    t0 = perf_counter()
    for i in range(iters):
        acc += float(np.max(np.abs(np.tensordot(w, k, axes=(0, 0))))) + (i % 7) * 0.5
    return perf_counter() - t0


def calibrate() -> float:
    """The stepper-shaped loop at full length, timed at the start and end of
    every run and reported as machine.calib_s."""
    return _stepper_loop(CALIB_ITERS)


class SpeedProbe:
    """The host's speed while an operation runs.

    The shared host's speed drifts by a factor up to 1.7 within tens of
    seconds, for the program and the stepper-shaped loop alike (process CPU
    time drifts with it, so it is not scheduling).  While an operation
    runs, a SIGALRM handler times a short run of the loop every PROBE_TICK_S
    seconds, and once before and after.  `scale` is the reference time of
    that short loop over the trimmed mean of its timings in the operation;
    an operation's wall time, less the handler's own time, times `scale` is
    its time at the reference speed.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum=None, frame=None):
        t0 = perf_counter()
        self.samples.append(_stepper_loop(PROBE_ITERS))
        self.spent += perf_counter() - t0

    def start(self):
        self.samples = []
        self._tick()
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, PROBE_TICK_S, PROBE_TICK_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def finish(self):
        """After disarm: the handler's time since start, and the scale."""
        spent = self.spent
        self._tick()
        return spent, _scale(self.samples)


def _scale(samples) -> float:
    """Reference probe time over the probes' 10%-trimmed mean.  Over 37
    repeats of one scan, scaled times varied by 2.7% with this mean, 5.1%
    with the median (it ignores how long a slow spell lasts) and 15.5%
    unscaled."""
    s = sorted(samples)
    k = len(s) // 10
    return PROBE_ITERS * REF_ITER_S / statistics.mean(s[k:len(s) - k])


def probe_scale(n: int = 8) -> float:
    """The scale from n probes in a row (after a set-up, in its child)."""
    return _scale([_stepper_loop(PROBE_ITERS) for _ in range(n)])


def machine_record(calib) -> dict:
    import numpy as np
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "calib_s": calib}


def measure_setup(name: str, seed: int) -> list:
    """Set-up in fresh interpreters: import camscat, build the media and
    their effective potentials (the bump gauge tabulation included).
    Returns (wall, scale) per set-up; the child probes right after it."""
    code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH), name=name, seed=seed)
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
        times.append(tuple(map(float, proc.stdout.split()[-2:])))
    return times


class Op:
    """One operation: its wall time, the probe's time within it and scale,
    and `seconds`, its time at the reference speed."""

    __slots__ = ("idx", "key", "wall", "spent", "scale", "seconds", "orders", "ok")

    def __init__(self, idx, key):
        self.idx, self.key = idx, key
        self.wall, self.spent, self.scale = 0.0, 0.0, 1.0
        self.seconds, self.orders, self.ok = 0.0, 0, False


def run_loop(wl, inputs, seconds, tracer=None, probe=None):
    """Closed loop over the inputs in turn; returns the ops and the first
    result per input.  Repeats are compared with the first bit for bit.
    With a probe, op.seconds is the wall time at the reference speed."""
    OUT.mkdir(exist_ok=True)
    ops, first, prints = [], {}, {}
    t_start = perf_counter()

    def another():
        # Operations come in whole cycles over the inputs, so every input
        # is timed equally often.  Start another cycle if it should end
        # nearer to `seconds` than stopping now would.
        if not ops or len(ops) % len(inputs):
            return True
        cycle = len(inputs) * statistics.median(op.wall for op in ops)
        return perf_counter() - t_start + 0.5 * cycle < seconds

    while another():
        inp = inputs[len(ops) % len(inputs)]
        op = Op(len(ops), inp.key)
        ops.append(op)
        root = tracer.operation(op.idx, f"op.{wl.name}") if tracer else None
        if probe:
            probe.start()
        t0 = perf_counter()
        raised = False
        try:
            result = wl.run(inp, OUT)
        except Exception:                      # an operation that raises fails
            raised = True
            traceback.print_exc(file=sys.stderr)
        finally:
            if probe:
                probe.disarm()
            op.wall = perf_counter() - t0
            if probe:
                op.spent, op.scale = probe.finish()
            if tracer:
                tracer.end_operation(root)
        op.seconds = (op.wall - op.spent) * op.scale
        if raised:
            continue
        fp = wl.fingerprint(result)
        if inp.key not in first:
            first[inp.key], prints[inp.key] = result, fp
            op.ok = True
        elif fp == prints[inp.key]:
            op.ok = True
        else:
            print(f"{wl.name}: repeat {op.idx} of input {inp.key!r} is not "
                  "bit-identical to the first", file=sys.stderr)
        if op.ok:
            op.orders = wl.orders(result)
    return ops, first


def run_checks(wl, inputs, first, ops):
    """Check the first result of each input; a failed check fails every
    operation on that input.  Returns the worst residual."""
    from workloads import Check
    worst = 0.0
    for inp in inputs:
        if inp.key not in first:
            continue
        try:
            checks = wl.check(inp, first[inp.key])
        except Exception:                      # a check that raises fails
            traceback.print_exc(file=sys.stderr)
            checks = [Check("raised", math.inf, 0.0, residual=False)]
        for c in checks:
            print(f"check {wl.name}/{inp.key}/{c.name}: {c.value:.3e} "
                  f"(tol {c.tol:.1e}) {'ok' if c.passed else 'FAIL'}")
            if c.residual:
                worst = max(worst, c.value)
        if not all(c.passed for c in checks):
            for op in ops:
                if op.key == inp.key:
                    op.ok, op.orders = False, 0
    return worst


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(ops, worst, setup_times, rss_mb):
    timed = sum(op.seconds for op in ops)
    print(f"wall: op_p50 {statistics.median(op.wall for op in ops):.4f} s, "
          f"{sum(op.orders for op in ops) / sum(op.wall for op in ops):.3f} orders/s; "
          f"scale median {statistics.median(op.scale for op in ops):.4f}; "
          f"setup {statistics.median(w for w, _ in setup_times):.4f} s")
    return {
        "setup_s": metric(statistics.median(w * k for w, k in setup_times), "s"),
        "op_p50_s": metric(statistics.median(op.seconds for op in ops), "s"),
        "orders_per_s": metric(sum(op.orders for op in ops) / timed, "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "err_digits": metric(-math.log10(worst) if worst > 0 else 16.0, "digits"),
        "ok_frac": metric(sum(op.ok for op in ops) / len(ops), "fraction"),
    }


# (metric, unit, span name, field, kind): "count" metrics are averaged
# over distinct inputs from each input's first operation, so they do not
# depend on how many operations fit in the run; "time" metrics are
# averaged over all operations.
LAYER_METRICS = [
    ("integrate.rhs_calls", "count", "integrate.solve", "rhs", "count"),
    ("integrate.solves", "count", "integrate.solve", "calls", "count"),
    ("integrate.out_points", "count", "integrate.solve", "out_points", "count"),
    ("integrate.self_s", "s", "integrate.solve", "self_s", "time"),
    ("radial.coeff_s", "s", "integrate.solve", "leaf_s", "time"),
    ("radial.jost_calls", "count", "radial.jost", "calls", "count"),
    ("radial.jost_orders", "count", "radial.jost", "orders", "count"),
    ("radial.jost_s", "s", "radial.jost", "self_s", "time"),
    ("radial.regular_calls", "count", "radial.regular", "calls", "count"),
    ("radial.regular_s", "s", "radial.regular", "self_s", "time"),
    ("radial.panelquad_s", "s", "radial.panelquad", "self_s", "time"),
    ("specfun.hankel_calls", "count", "specfun.hankel", "calls", "count"),
    ("specfun.hankel_points", "count", "specfun.hankel", "points", "count"),
    ("specfun.hankel_s", "s", "specfun.hankel", "self_s", "time"),
    ("fields.gauge_builds", "count", "fields.gauge", "calls", "count"),
    ("fields.gauge_s", "s", "fields.gauge", "self_s", "time"),
    ("quadrature.adaptive_gl_calls", "count", "quadrature.adaptive_gl", "calls", "count"),
    ("quadrature.adaptive_gl_s", "s", "quadrature.adaptive_gl", "self_s", "time"),
    ("scattering.sigma_orders", "count", "scattering.sigma", "orders", "count"),
    ("scattering.sigma_s", "s", "scattering.sigma", "self_s", "time"),
    ("scattering.excluded", "count", "scattering.sigma", "excluded", "count"),
    ("scattering.unwrap_s", "s", "scattering.unwrap", "self_s", "time"),
    ("inverse.recover_flux_s", "s", "inverse.recover_flux", "self_s", "time"),
    ("inverse.discriminator_s", "s", "inverse.discriminator", "self_s", "time"),
    ("io.write_s", "s", "io.write", "self_s", "time"),
]


def per_layer(ops, tracer, calib):
    import tracing
    totals = {op.idx: tracing.op_totals(tracer.spans, op.idx) for op in ops}
    firsts = {}
    for op in ops:
        firsts.setdefault(op.key, op.idx)
    counters = {key: {} for key in firsts}
    out = {}
    for name, unit, span, field, kind in LAYER_METRICS:
        zero = 0 if kind == "count" else 0.0
        get = lambda i: totals[i].get(span, {}).get(field, zero)
        if kind == "count":
            for key, i in firsts.items():
                counters[key][name] = get(i)
                if any(get(op.idx) != get(i) for op in ops if op.key == key):
                    print(f"counter {name} differs between repeats of {key!r}",
                          file=sys.stderr)
            value = statistics.mean(counters[key][name] for key in firsts)
        else:
            value = statistics.mean(get(op.idx) for op in ops)
        out[name] = metric(value, unit)
    solves, rhs = out["integrate.solves"]["value"], out["integrate.rhs_calls"]["value"]
    widths = statistics.mean(totals[i].get("integrate.solve", {}).get("width", 0)
                             for i in firsts.values())
    out["integrate.batch_width"] = metric(widths / solves if solves else 0.0, "orders")
    out["integrate.us_per_rhs"] = metric(
        1e6 * out["integrate.self_s"]["value"] / rhs if rhs else 0.0, "us")
    out["machine.calib_s"] = metric(calib, "s")
    out["trace.orders_per_s"] = metric(
        sum(op.orders for op in ops) / sum(op.seconds for op in ops), "1/s")
    return out, counters


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "camscat" / "__init__.py").is_file():
        print(f"no camscat package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    calib = [calibrate()]
    setup_times = [] if args.trace else measure_setup(wl.name, args.seed)
    inputs = wl.build(args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, workloads)

    probe = None if args.trace else SpeedProbe()
    ops, first = run_loop(wl, inputs, args.seconds, tracer, probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    worst = run_checks(wl, inputs, first, ops)
    calib.append(calibrate())
    calib_s = statistics.mean(calib)

    failed = sum(not op.ok for op in ops)
    print("machine: " + json.dumps(machine_record(calib)))
    for op in ops:
        print(f"op {op.idx} {op.key}: {op.seconds:.4f} s at reference speed "
              f"({op.wall:.4f} s wall, scale {op.scale:.4f}), {op.orders} orders"
              f"{'' if op.ok else ', FAILED'}")
    if args.trace:
        metrics, counters = per_layer(ops, tracer, calib_s)
        tracer.dump(OUT / f"trace-{wl.name}-{args.seed}.json", {
            "workload": wl.name, "seed": args.seed, "counters": counters,
            "ops": [[op.idx, op.key, op.seconds, op.ok] for op in ops]})
    else:
        metrics = end_to_end(ops, worst, setup_times, rss_mb)
        print(f"samples: {len(ops)} operations, {len(setup_times)} set-ups")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
