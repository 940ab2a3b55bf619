"""Single-solve table of the README taper (TE) across truncation orders.

    python3 bench/baseline_table.py

Rows: adaptive solves (midpoint reference, M = 3) at alpha 1e-2, 1e-3 and
1e-4, and the 256-section order-0 uniform cascade, each at n = 7, 21 and
51 harmonics. Each row gives the best-of-k wall time of a warm solve, the
solver's counters, and the traced call counts and layer self-time shares
of one more warm solve. Prints one JSON object as the last line.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from arcwa import geometry, solver

import workloads
from tracer import LAYERS, Tracer, summarize

REPEATS = 3
COUNTED = ("operators.assemble_operators", "modal.eigen_basis", "numerics.condition_number",
           "sections.first_order_smatrix", "cascade.star")


def row(spec, label, solve):
    solve()  # warm: port bases and lazy initialisation
    best = min(_timed(solve) for _ in range(REPEATS))
    tracer = Tracer()
    tracer.install()
    try:
        report = solve()
    finally:
        tracer.uninstall()
    summary = summarize(tracer.take())
    total = sum(summary["self_s"].values())
    shares = {layer: sum(s for n, s in summary["self_s"].items() if n.split(".")[0] == layer) / total
              for layer in LAYERS}
    return {
        "n": 2 * spec.truncation_order + 1,
        "solve": label,
        "best_wall_s": best,
        "sections_solved": report.sections_solved,
        "leaves": len(report.sections),
        "eig_count": report.total_eig_count,
        "calls": {name: summary["calls"].get(name, 0) for name in COUNTED},
        "self_share": {k: v for k, v in shares.items() if v > 0},
    }


def _timed(solve):
    start = time.perf_counter()
    solve()
    return time.perf_counter() - start


def main() -> int:
    rows = []
    for truncation in (3, 10, 25):
        doc = workloads.structure_doc(workloads.geometry_for(workloads.DEFAULT_SEED), "taper", "TE", truncation)
        spec = geometry.parse_structure(doc)
        for alpha in (1e-2, 1e-3, 1e-4):
            config = solver.SolverConfig(alpha=alpha)
            rows.append(row(spec, f"adaptive alpha={alpha:g}", lambda: solver.solve_adaptive(spec, config)))
            print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
        rows.append(row(spec, "uniform N=256 order 0", lambda: solver.solve_uniform(spec, 256, order=0)))
        print(json.dumps(rows[-1]), file=sys.stderr, flush=True)
    print(json.dumps({"repeats": REPEATS, "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
