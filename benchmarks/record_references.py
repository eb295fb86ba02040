"""Record the reference CSV numbers that check.py compares against.

Run at a commit whose outputs are the accepted baseline:

    python3 benchmarks/record_references.py

It runs one pass of every workload for each seed 0..check.REFERENCE_SEEDS-1
and rewrites benchmarks/references.json. It also prints each study's fitted orders
across the seeds, which is what check.ORDER_BANDS must cover.
"""

import json

import common

common.pin_blas_threads()
common.require_source()

import check  # noqa: E402
import workloads  # noqa: E402


def main():
    out_dir = common.OUT / "references"
    seeds = {}
    orders = {}
    for workload in workloads.WORKLOADS:
        seeds[workload] = {}
        for seed in range(check.REFERENCE_SEEDS):
            _, outcomes = workloads.run_pass(workloads.parse(workload, seed), out_dir)
            entry = {}
            for name, oc in outcomes.items():
                if oc.error is not None:
                    raise SystemExit(f"{workload} seed {seed}: {name} failed: {oc.error}")
                entry[name] = check.reference_entry(oc.csv_text)
                if "fitted_order" in oc.summary:
                    orders.setdefault(name, []).append(oc.summary["fitted_order"])
            seeds[workload][str(seed)] = entry
            print(f"{workload} seed {seed} recorded", flush=True)
    for name, vals in orders.items():
        print(f"{name}: fitted order min {min(vals):.4f} max {max(vals):.4f}")
    with open(check.REFERENCES, "w") as fh:
        json.dump({"rtol": check.RTOL, "row_stride": check.ROW_STRIDE,
                   "seeds": seeds}, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
