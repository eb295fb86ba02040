"""The four benchmark workloads and one timed pass over a workload's studies.

A workload is a list of study documents. The benchmark seed replaces
study.seed in every document; everything else is fixed here, so the same
seed always gives the same inputs. A pass drives the public API exactly
as the CLI does: harness study, then cli.write_report_csv and
cli.write_summary.
"""

import time
from dataclasses import dataclass
from typing import Optional

from spdefem import cli, harness

from common import BENCH_DIR

# (study name, config given to cli.load_document, overrides by document section)
WORKLOADS = {
    # Dominant shape of the acceptance run: a 2^12-step reference tape
    # (132 MB per block) coarsened to 2^5..2^9 steps, strong and weak (CRN).
    "ladder": [
        ("trace_class_ci", "trace_class_ci", {}),
        ("weak_trace_class_ci", "weak_trace_class_ci", {"study": {"samples": 64}}),
    ],
    # Small n (31): per-call overhead, recorder and seminorm active,
    # sampling only a few percent of the time. s = 0.3 gives a reporting
    # gamma of 0.75, so the recorder's H^gamma seminorm goes through the
    # discrete spectrum; the preset's s = 0.5005 gives gamma = 1, which the
    # recorder computes from the stiffness matrix instead.
    "paths": [
        ("equilibrate_ci", "equilibrate_ci", {}),
        ("longtime_ci", "longtime_ci", {"noise": {"s": 0.3}}),
    ],
    # No noise, no drift, B = 1: ~84k single-vector solves through
    # smoothing_lab and the fem1d solve path.
    "smoothing": [
        ("smoothing_spatial", "smoothing_spatial", {}),
        ("smoothing_temporal", "smoothing_temporal", {}),
    ],
    # The large-n side (reference n = K = 511): dense noise load and
    # fem1d.prolong, which the other workloads never run.
    "fine_mesh": [
        ("fine_mesh_strong", str(BENCH_DIR / "fine_mesh.json"), {}),
    ],
}

# looked up on the module at call time, so a traced run sees its wrappers
STUDY_FUNCTIONS = {
    "strong_rate": "strong_rate_study",
    "weak_rate": "weak_rate_study",
    "equilibrate": "equilibration_study",
    "longtime": "moment_study",
    "smoothing": "smoothing_study",
}


@dataclass(frozen=True)
class Study:
    name: str
    cfg: object


@dataclass
class Outcome:
    csv_path: Optional[str] = None
    csv_text: Optional[str] = None
    summary: Optional[dict] = None
    error: Optional[str] = None


def documents(workload, seed):
    """The workload's study documents with the benchmark seed applied."""
    docs = []
    for name, spec, overrides in WORKLOADS[workload]:
        doc = cli.load_document(spec)
        for section, values in overrides.items():
            doc[section].update(values)
        doc["study"]["seed"] = int(seed)
        docs.append((name, doc))
    return docs


def parse(workload, seed):
    """Load and validate every document of the workload (the set-up step)."""
    out = []
    for name, doc in documents(workload, seed):
        cfg, _ = cli.parse_document(doc, workers=1)
        out.append(Study(name, cfg))
    return out


def run_pass(studies, out_dir):
    """Run every study once and write its report; returns (wall seconds, outcomes).

    A study that raises is recorded as failed and the pass goes on.
    """
    outcomes = {}
    t0 = time.perf_counter()
    for st in studies:
        dest = out_dir / st.name
        try:
            report = getattr(harness, STUDY_FUNCTIONS[st.cfg.kind])(st.cfg)
            path = cli.write_report_csv(report, st.cfg, dest)
            summary = cli.write_summary(report, dest)
        except Exception as e:  # a failed study is a measured outcome
            outcomes[st.name] = Outcome(error=f"{type(e).__name__}: {e}")
            continue
        outcomes[st.name] = Outcome(csv_path=str(path), summary=summary)
    wall = time.perf_counter() - t0
    for oc in outcomes.values():  # read back outside the timed region
        if oc.error is None:
            with open(oc.csv_path) as fh:
                oc.csv_text = fh.read()
    return wall, outcomes


def column_steps(cfg):
    """Steps times batch columns of every time-stepping run the study makes."""
    if cfg.kind == "smoothing":
        times = cfg.times or (1.0,)
        return sum(round(t / (cfg.T / 2**r.m)) for r in cfg.grid for t in times)
    if cfg.kind in ("strong_rate", "weak_rate"):
        per_path = 2**cfg.reference.m + sum(2**r.m for r in cfg.grid)
        return cfg.samples * per_path
    if cfg.kind == "equilibrate":
        return cfg.samples * len(cfg.initials) * 2**cfg.grid[0].m
    if cfg.kind == "longtime":
        return cfg.samples * 2**cfg.grid[0].m
    raise ValueError(f"no step count for study kind {cfg.kind!r}")

