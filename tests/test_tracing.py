"""The span contract of perfbench/tracing.py holds on the current package.

perfbench's traced run wraps module bindings by name (`scattering.sigma_many`,
`inverse.regular_solve`, `radial.solve_oscillator`, ...).  A refactor that
drops or renames one of them leaves the benchmark without that layer, and
otherwise only perfbench/test_counters.py, which runs the full workloads,
would notice.  This test
installs the tracer in a fresh interpreter, runs three small calls inside
one operation, and checks the spans and counts they must record.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import json, sys
from types import SimpleNamespace
sys.path[:0] = [{src!r}, {bench!r}]
import tracing
from camscat import fields, inverse, radial, scattering

tracer = tracing.Tracer()
tracing.install(tracer, SimpleNamespace(write_csv=lambda *a: None))
med = fields.Medium(fields.step_profile(0.3, 0.5, 2.0),
                    fields.bump_field(0.3, 0.8, 1.6), 0.5, 2.0)
med_b = fields.Medium(fields.step_profile(0.5, 0.5, 2.0), med.b, 0.5, 2.0)
q, qb = fields.effective_potential(med), fields.effective_potential(med_b)
grid = radial.make_grid(0.5, 2.0, 256, include=q.breakpoints())

op = tracer.operation(0, "contract")
scattering.phase_shifts(q, (-2, 2))
scattering.cam_scan(q, [1.0 + 1.0j, 2.0])
inverse.discriminator_F(q, qb, [1], grid=grid)
tracer.end_operation(op)
print(json.dumps(tracing.op_totals(tracer.spans, 0)))
"""


def test_traced_bindings_record_their_spans():
    code = SCRIPT.format(src=str(ROOT / "src"), bench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    totals = json.loads(proc.stdout.splitlines()[-1])
    for name in ("radial.jost", "radial.regular", "integrate.solve",
                 "specfun.hankel", "scattering.sigma", "radial.panelquad",
                 "inverse.discriminator"):
        assert totals.get(name, {}).get("calls", 0) > 0, name
    # phase_shifts: orders 0..2 and orders -1, -2; cam_scan: 2 orders;
    # discriminator_F: l = 1 on both media; each read returns F+ and F-
    assert totals["radial.jost"]["orders"] == 3 + 2 + 2 + 2
    # one Hankel evaluation per Jost call, whatever its orders:
    # _hankel_arrays must not recurse
    assert totals["specfun.hankel"]["calls"] == totals["radial.jost"]["calls"]
    # one solve per sign and Jost call, plus the two regular solves of
    # discriminator_F
    assert totals["integrate.solve"]["calls"] == 2 * (1 + 1 + 1 + 2) + 2
    assert totals["integrate.solve"]["rhs"] > 0
