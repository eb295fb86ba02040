"""spdefem benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 benchmarks/run.py --workload ladder --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): ladder, paths, smoothing, fine_mesh. The
seed becomes study.seed of every document, so one seed gives one set of
inputs. Everything runs in this process with workers=1 and one BLAS
thread (see common.BLAS_THREADS).

--trace 0 makes one warm-up pass, then repeats untraced passes over the
workload's studies for --seconds and reports wall_s (median pass),
path_steps_per_s, peak_rss_mb, setup_s (median of fresh-process probes)
and ok_ratio. --trace 1 makes the warm-up pass, then pairs of one
untraced and one traced pass for --seconds (at least two pairs), then
the kernel microbenchmarks, and reports the per-layer metrics.
Every pass's outputs are checked (check.py); a study that raises or fails
the check counts as failed.

Human-readable lines go first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}. The full result, with the
machine's description, is written to .bench_out/, and the traced run's
spans to .bench_out/spans-*.npz.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

import common

common.pin_blas_threads()

import check  # noqa: E402  (numpy only after the thread cap)

SETUP_PROBES = 7
MIN_PAIRS = 2
PROBE_TIMEOUT_S = 120

# span name -> metric of its self seconds
SPAN_METRICS = {
    "noise.sample": "noise.sample_s",
    "noise.coarsen": "noise.coarsen_s",
    "harness": "harness.self_s",
    "scheme.run": "scheme.self_s",
    "scheme.drift_load": "scheme.drift_load_s",
    "drift.taming": "drift.taming_s",
    "drift.eval_f": "drift.eval_f_s",
    "fem1d.interp": "fem1d.interp_s",
    "fem1d.quad_load": "fem1d.quad_load_s",
    "fem1d.solve": "fem1d.solve_s",
    "fem1d.matvec": "fem1d.matvec_s",
    "fem1d.norms": "fem1d.norms_s",
    "fem1d.spectrum": "fem1d.spectrum_s",
    "fem1d.assemble": "fem1d.assemble_s",
    "fem1d.prolong": "fem1d.prolong_s",
    "smoothing_lab.propagator": "smoothing_lab.propagator_s",
    "smoothing_lab.eval": "smoothing_lab.eval_s",
    "cli.write": "cli.write_s",
}


class Judge:
    """Counts attempted and failed studies over all passes of a run."""

    def __init__(self, refs, workload, seed, studies):
        self.refs = refs
        self.workload = workload
        self.seed = seed
        self.kinds = {st.name: st.cfg.kind for st in studies}
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def _fail(self, name, msg):
        self.failed += 1
        self.problems.append(f"{name}: {msg}")

    def __call__(self, outcomes):
        for name, oc in outcomes.items():
            self.attempted += 1
            if oc.error is not None:
                self._fail(name, f"raised {oc.error}")
            elif name not in self.first:
                self.first[name] = oc.csv_text
                for msg in check.check_study(self.refs, self.workload, self.seed,
                                             name, self.kinds[name],
                                             oc.csv_text, oc.summary):
                    self._fail(name, msg)
            elif oc.csv_text != self.first[name]:
                self._fail(name, "CSV differs from the run's first pass")


def probe_setup(workload, seed):
    """Seconds from launching a fresh interpreter to its parsed documents."""
    cmd = [sys.executable, str(common.BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def timed_passes(workloads, studies, out_dir, judge, seconds):
    """One warm-up pass, then timed passes filling about `seconds`.

    The first pass of a process measured about a tenth slower than the
    later ones, so it is checked but not timed. Passes go on while the next one, if it lasts as long
    as the last, would end less than half a pass beyond `seconds`.
    Returns the timed passes' wall times.
    """
    judge(workloads.run_pass(studies, out_dir)[1])
    walls = []
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start + walls[-1] / 2 < seconds:
        wall, outcomes = workloads.run_pass(studies, out_dir)
        walls.append(wall)
        judge(outcomes)
    return walls


def end_to_end(args, workloads, studies, judge, out_dir):
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    walls = timed_passes(workloads, studies, out_dir, judge, args.seconds)
    wall = statistics.median(walls)
    steps = sum(workloads.column_steps(st.cfg) for st in studies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    ok = (judge.attempted - judge.failed) / judge.attempted
    metrics = {
        "wall_s": (wall, "s"),
        "path_steps_per_s": (steps / wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_ratio": (ok, "ratio"),
    }
    detail = {"pass_walls_s": walls, "setup_samples_s": setup,
              "column_steps_per_pass": steps}
    return metrics, detail


def traced_pass(workloads, studies, out_dir, judge):
    """One pass with the tracer installed; returns (wall seconds, tracer)."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wall, outcomes = workloads.run_pass(studies, out_dir)
    finally:
        tracer.uninstall()
    judge(outcomes)  # traced outputs must equal the untraced ones byte for byte
    return wall, tracer


def paired_passes(workloads, studies, out_dir, judge, seconds):
    """One warm-up pass, then untraced/traced pairs filling about `seconds`.

    The two passes of a pair run back to back, in alternating order
    (untraced first, then traced first), so the host's slow drift in speed
    falls mostly out of their difference. At least MIN_PAIRS pairs run.
    Returns a list of (untraced wall, traced wall, tracer).
    """
    judge(workloads.run_pass(studies, out_dir)[1])
    pairs = []
    t_start = time.perf_counter()
    while len(pairs) < MIN_PAIRS or (time.perf_counter() - t_start
                                     + (pairs[-1][0] + pairs[-1][1]) / 2 < seconds):
        if len(pairs) % 2 == 0:
            plain = workloads.run_pass(studies, out_dir)
            traced, tracer = traced_pass(workloads, studies, out_dir, judge)
        else:
            traced, tracer = traced_pass(workloads, studies, out_dir, judge)
            plain = workloads.run_pass(studies, out_dir)
        judge(plain[1])
        pairs.append((plain[0], traced, tracer))
    return pairs


def per_layer(args, workloads, studies, judge, out_dir):
    """Per-layer metrics: medians over the traced passes, then the kernels.

    Times are medians over traced passes; counts come from the first
    traced pass and every other traced pass must repeat them exactly.
    """
    import kernels
    from tracing import Tracer, span_cost

    parse_tracer = Tracer()
    parse_tracer.install()
    try:
        workloads.parse(args.workload, args.seed)
    finally:
        parse_tracer.uninstall()
    parse, _ = parse_tracer.summary(0, len(parse_tracer))

    pairs = paired_passes(workloads, studies, out_dir, judge, args.seconds)
    passes = []
    for plain, traced, tracer in pairs:
        layers, roots = tracer.summary(0, len(tracer))
        m = {metric: layers.get(span, {}).get("self_s", 0.0)
             for span, metric in SPAN_METRICS.items()}
        m["scheme.run_s"] = layers.get("scheme.run", {}).get("total_s", 0.0)
        m["trace.overhead_s"] = traced - plain
        m["trace.pass_s"] = traced
        m["trace.residue_s"] = traced - roots
        counts = {
            "noise.normals": tracer.normals,
            "noise.tape_mb": tracer.tape_bytes / 1e6,
            "scheme.column_steps": tracer.column_steps,
            "fem1d.solve_calls": layers.get("fem1d.solve", {}).get("calls", 0),
            "harness.blocks": tracer.blocks,
            "trace.spans": len(tracer),
        }
        passes.append((m, counts, layers))
    for _, counts, _ in passes[1:]:
        if counts != passes[0][1]:
            judge._fail("traced passes", f"counts differ: {passes[0][1]} vs {counts}")

    metrics = {name: (statistics.median(p[0][name] for p in passes), "s")
               for name in passes[0][0]}
    metrics["cli.parse_s"] = (parse.get("cli.parse", {}).get("self_s", 0.0), "s")
    metrics["trace.span_cost_s"] = (passes[0][1]["trace.spans"] * span_cost(), "s")
    metrics.update((name, (value, "MB" if name == "noise.tape_mb" else "count"))
                   for name, value in passes[0][1].items())
    metrics.update(kernels.measure(args.seed))

    common.OUT.mkdir(parents=True, exist_ok=True)
    pairs[0][2].save(common.OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    detail = {"untraced_pass_walls_s": [p[0] for p in pairs],
              "traced_pass_walls_s": [p[1] for p in pairs],
              "per_pass": [{"metrics": m, "counts": c} for m, c, _ in passes],
              "spans": passes[0][2],
              "analytic_column_steps": sum(workloads.column_steps(st.cfg)
                                           for st in studies)}
    return metrics, detail


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None without it."""
    path = common.ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description="spdefem benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    common.require_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    env = common.environment()
    print("environment: " + json.dumps(env), flush=True)
    out_dir = common.OUT / args.workload
    studies = workloads.parse(args.workload, args.seed)
    judge = Judge(check.load_references(), args.workload, args.seed, studies)

    measure = per_layer if args.trace else end_to_end
    metrics, detail = measure(args, workloads, studies, judge, out_dir)

    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        print(f"benchmark: metrics {sorted(set(metrics) ^ declared)} disagree "
              "with BENCHMARK.json", file=sys.stderr)
        return 1
    for msg in judge.problems:
        print(f"check failed: {msg}", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    result = {
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    common.OUT.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, environment=env,
                  problems=judge.problems, detail=detail)
    with open(common.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
