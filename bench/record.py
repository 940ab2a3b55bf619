"""Run the benchmark over a range of seeds, twice, and record one trajectory point.

    python3 bench/record.py --label BENCH_1 [--seeds 1-10]

Every run uses ``run_seconds`` of BENCHMARK.json. For each workload it
runs ``bench/run.py`` untraced once per seed; it does that for every
workload, then a second time, then once traced per workload (default
seed), then ``bench/baseline_table.py``. It writes
``bench/results/<label>.json``.

For each set and end-to-end metric it records the median, the quartiles
as ``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound. Across the two sets it records how far the second
median lies from the first, and what separates seed-driven spread from
run-to-run noise: the spread of the per-seed ratio of ``pass_s`` between
the sets (same seed, same work, so noise only) and the spread of the
sections solved per pass across seeds (work only). It also records the
spread ``setup_s`` would have from the in-process set-up sample alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2


def seed_range(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def spread_summary(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": spread(values), "bound": bound,
            "values": values}


def run_set(name: str, seeds: list[int], seconds: int, bounds: dict) -> tuple[dict, dict]:
    runs, machine = [], None
    for seed in seeds:
        details, res = run_once(name, seed, seconds, 0)
        machine = details["machine"]
        runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                     "failed": res["failed"], "passes": details["passes"],
                     "tail_percentile": details["pass_s_tail_percentile"],
                     "sections_solved": details["sections_solved"], "eig_count": details["eig_count"],
                     "setup_samples_s": details["setup_samples_s"],
                     "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
        print(name, seed, runs[-1]["sections_solved"], json.dumps(runs[-1]["metrics"]), flush=True)
    summary = {metric: spread_summary([r["metrics"][metric] for r in runs], bound)
               for metric, bound in bounds.items()}
    for metric, s in summary.items():
        print(f"  {metric}: median {s['median']:.6g} spread {s['spread']:.4f} (bound {s['bound']})",
              flush=True)
    return {"runs": runs, "end_to_end": summary, "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs)}, machine


def compare_sets(sets: list[dict]) -> dict:
    first, second = sets
    agreement = {
        metric: {"median_1": s1["median"], "median_2": second["end_to_end"][metric]["median"],
                 "change": second["end_to_end"][metric]["median"] / s1["median"] - 1.0,
                 "bound": s1["bound"]}
        for metric, s1 in first["end_to_end"].items()
    }
    runs = first["runs"] + second["runs"]
    return {
        "agreement": agreement,
        "pass_s_run_to_run_spread": spread([b["metrics"]["pass_s"] / a["metrics"]["pass_s"]
                                            for a, b in zip(first["runs"], second["runs"])]),
        "sections_solved_spread": spread([r["sections_solved"] for r in first["runs"]]),
        "setup_s_in_process_only_spread": [spread([r["setup_samples_s"][0] for r in s["runs"]])
                                           for s in sets],
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="an inclusive range, lo-hi")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    names = [w["name"] for w in config["workloads"]]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    result = {"label": args.label, "seconds": seconds, "seeds": seed_range(args.seeds), "workloads": {}}
    sets = {name: [] for name in names}
    for _ in range(SETS):
        for name in names:
            one, result["machine"] = run_set(name, result["seeds"], seconds, bounds)
            sets[name].append(one)
    for name in names:
        _, traced = run_once(name, 0, seconds, 1)
        comparison = compare_sets(sets[name])
        print(name, json.dumps({k: v for k, v in comparison.items() if k != "agreement"}), flush=True)
        for metric, a in comparison["agreement"].items():
            print(f"  {metric}: second median {a['change']:+.4f} of first (bound {a['bound']})", flush=True)
        result["workloads"][name] = {
            "sets": sets[name],
            **comparison,
            "traced_seed0": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    done = subprocess.run([sys.executable, str(BENCH / "baseline_table.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=900, check=True)
    result["baseline_table"] = json.loads(done.stdout.strip().splitlines()[-1])
    out = BENCH / "results" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
