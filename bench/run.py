"""arcwa benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 bench/run.py --workload adaptive_n7 --seed 0 --seconds 25 --trace 0

Run from a checkout of the repository; the library is imported from its
``src/`` directory. The process is a closed loop with one client: it
sets up (imports, parses the structures, loads the reference S-matrices
and runs a warm-up solve per structure), then runs passes over the
workload's fixed case list until ``--seconds`` have elapsed (by default
``run_seconds`` of BENCHMARK.json), checking
every result. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced passes with passes under the
tracer, and reports per-layer counts and self times from the median
traced pass. The last line of standard output is the result object; the
line before it records the machine and the details behind the metrics.

Set-up is measured three times: once in this process and once in each
of two fresh child processes of this script (``--setup-only``), and
``setup_s`` is their median.
"""

import os

# One BLAS thread: the target machine has 2 cores, and a second BLAS
# thread made dense passes slower and noisier there. This must happen
# before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import LAYERS, Tracer, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("adaptive_n7", "adaptive_n51", "uniform_n21", "cli_io")

# Traced functions reported one by one; every other public function of a
# layer is still traced and counts towards its layer's self time.
FUNCTIONS = (
    "geometry.parse_structure",
    "geometry.slice_at",
    "operators.assemble_operators",
    "operators.fourier_eps",
    "modal.eigen_basis",
    "modal.propagation_factor",
    "numerics.condition_number",
    "numerics.checked_solve",
    "numerics.checked_inv",
    "sections.first_order_smatrix",
    "sections.delta_ab",
    "sections.zeroth_order_smatrix",
    "cascade.projection_pair",
    "cascade.project_left",
    "cascade.star",
    "solver.solve_adaptive",
    "solver.solve_uniform",
    "solver.port_bases",
    "harness.write_smatrix_csv",
    "cli.main",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one arcwa benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    return args


def setup(workload, seed, workdir):
    """Import the library and prepare the workload; returns it and the time taken."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy and arcwa, so the import is timed

    prepared = workloads.Workload(workload, seed, workdir)
    return prepared, time.perf_counter() - start


def child_setup_s(args):
    """Set-up time of a fresh process of this script."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed ({done.returncode}): {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Loop:
    """Runs passes and keeps what the metrics need."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.baseline = {}

    def one_pass(self, tracer=None, port_info=None):
        """Run every case once, check the results and return the pass record."""
        record = {"time": 0.0, "case_times": {}, "sections_solved": 0, "leaves": 0,
                  "eig_count": 0, "dev": None}
        before = port_info() if port_info else None
        for case in self.workload.cases:
            self.attempted += 1
            start = time.perf_counter()
            try:
                outcome = self.workload.run(case)
            except Exception as exc:  # a failed operation is counted, not fatal
                record["time"] += time.perf_counter() - start
                self.failures.append(f"{case.name}: {type(exc).__name__}: {exc}")
                continue
            record["time"] += outcome.seconds
            record["case_times"][case.name] = outcome.seconds
            record["sections_solved"] += outcome.sections_solved
            record["leaves"] += outcome.leaves
            record["eig_count"] += outcome.eig_count
            problem, dev = self.workload.check(case, outcome.blocks, self.baseline.get(case.name))
            if problem:
                self.failures.append(problem)
            else:
                self.baseline.setdefault(case.name, outcome.blocks)
            if dev is not None:
                record["dev"] = max(dev, record["dev"] or 0.0)
        if tracer is not None:
            record["trace"] = summarize(tracer.take())
        if port_info:
            after = port_info()
            record["port_hits"] = after[0] - before[0]
            record["port_misses"] = after[1] - before[1]
        return record

    def traced_pass(self, port_info):
        """One pass with the tracer installed."""
        tracer = Tracer()
        tracer.install()
        try:
            return self.one_pass(tracer, port_info)
        finally:
            tracer.uninstall()


def repeat_for(seconds, step):
    """Call ``step`` until ``seconds`` have elapsed (at least once)."""
    results = []
    deadline = time.perf_counter() + seconds
    while True:
        results.append(step())
        if time.perf_counter() >= deadline:
            return results


def median_pass(passes):
    return sorted(passes, key=lambda p: p["time"])[(len(passes) - 1) // 2]


def tail(passes, pass_s):
    """Tail pass time from per-operation stretch.

    A pass is too long for a run to hold enough passes for a tail, so the
    tail is taken over single operations: each operation's time divided by
    the median time of its own case. The highest percentile of that
    stretch with at least ten samples beyond it, times ``pass_s``, is the
    tail pass time.
    """
    per_case = {}
    for record in passes:
        for name, t in record["case_times"].items():
            per_case.setdefault(name, []).append(t)
    ratios = sorted(t / statistics.median(ts) for ts in per_case.values() for t in ts)
    k = len(ratios)
    if k == 0:
        return pass_s, 100.0, 0
    i = k - 11 if k >= 11 else k - 1
    return pass_s * ratios[i], 100.0 * (i + 1) / k, k


def machine():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def per_layer_metrics(pairs, port_bases_cached):
    """Per-layer metrics from (untraced, traced) pass pairs."""
    record = median_pass([traced for _, traced in pairs])
    summary = record["trace"]
    calls, self_s = summary["calls"], summary["self_s"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in LAYERS:
        put(f"{layer}.self_s", sum(s for n, s in self_s.items() if n.split(".")[0] == layer), "s")
    for name in FUNCTIONS:
        put(f"{name}.calls", calls.get(name, 0), "count")
        put(f"{name}.self_s", self_s.get(name, 0.0), "s")
    assemblies = calls.get("operators.assemble_operators", 0)
    distinct = summary["distinct_keys"].get("operators.assemble_operators", 0)
    put("operators.distinct_z_ratio", distinct / assemblies if assemblies else 0.0, "ratio")
    put("solver.sections_solved", record["sections_solved"], "count")
    put("solver.leaves", record["leaves"], "count")
    put("solver.eig_count", record["eig_count"], "count")
    solved = record["sections_solved"]
    put("solver.basis_reuse_ratio", 1.0 - record["eig_count"] / solved if solved else 0.0, "ratio")
    port_calls = calls.get("solver.port_bases", 0)
    put("solver.port_bases.hits", record["port_hits"] if port_bases_cached else 0, "count")
    put("solver.port_bases.misses", record["port_misses"] if port_bases_cached else port_calls, "count")
    # -1 marks a seed without stored references.
    put("solver.output_dev_max", -1.0 if record["dev"] is None else record["dev"], "max-norm")
    put("trace.pass_s", record["time"], "s")
    put("trace.coverage", sum(self_s.values()) / record["time"], "ratio")
    # Ratios within adjacent pairs, so that drifts in machine speed cancel.
    put("trace_overhead", statistics.median(t["time"] / u["time"] for u, t in pairs), "ratio")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "arcwa" / "__init__.py").is_file():
        print(f"bench: no arcwa sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        prepared, own_setup_s = setup(args.workload, args.seed, Path(tmp))
        if args.setup_only:
            print(json.dumps({"setup_s": own_setup_s}))
            return 0
        setup_samples = [own_setup_s] + [child_setup_s(args) for _ in range(SETUP_REPEATS - 1)]
        gc.collect()

        loop = Loop(prepared)
        details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "seconds": args.seconds, "machine": machine(), "setup_samples_s": setup_samples}
        if args.trace:
            from arcwa import solver

            # Untraced and traced passes alternate, so that drifts in
            # machine speed reach both sides of trace_overhead alike.
            cache_info = getattr(solver.port_bases, "cache_info", None)
            port_info = (lambda: tuple(cache_info()[:2])) if cache_info else None
            pairs = repeat_for(args.seconds, lambda: (loop.one_pass(), loop.traced_pass(port_info)))
            metrics = per_layer_metrics(pairs, cache_info is not None)
            details.update(pairs=len(pairs))
        else:
            passes = repeat_for(args.seconds, loop.one_pass)
            pass_s = statistics.median(p["time"] for p in passes)
            tail_s, percentile, samples = tail(passes, pass_s)
            metrics = {
                "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
                "pass_s": {"value": pass_s, "unit": "s"},
                "pass_s_tail": {"value": tail_s, "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "unit": "MB"},
            }
            # The work of a pass is fixed by the seed; these show how much
            # of a spread across seeds the work itself explains.
            details.update(passes=len(passes), pass_s_tail_percentile=percentile, tail_samples=samples,
                           sections_solved=passes[0]["sections_solved"], eig_count=passes[0]["eig_count"])

    failed = len(loop.failures)
    details["failures"] = loop.failures[:10]
    print(json.dumps(details))
    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
