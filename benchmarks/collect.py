"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 benchmarks/collect.py --workload ladder --seeds 1-10 [--trace 0] [--out FILE]

Runs run.py once per seed, one after another, with BENCHMARK.json's
run_seconds, and prints for every metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the quartile distance
as a share of the median, next to the metric's bound. --out writes the
same summary, with every run's values, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys

import common


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(common.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(common.BENCH_DIR / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True,
                              timeout=600)
        if proc.returncode != 0:
            raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
    names = list(runs[0]["metrics"])
    table = {nm: summarize([r["metrics"][nm]["value"] for r in runs]) for nm in names}
    for nm, s in table.items():
        bound = bounds.get(nm)
        print(f"{nm:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
              f"spread {s['spread']:.4f}" + ("" if bound is None else f"  bound {bound}"))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds,
                       "trace": args.trace,
                       "all_correct": all(r["correct"] for r in runs),
                       "metrics": table}, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
