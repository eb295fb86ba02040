"""Output check for one study of a pass.

Two layers of checking:

- references.json holds CSV numbers recorded at the seed commit for the
  benchmark seeds 0..REFERENCE_SEEDS-1. On such a seed every stored number must agree
  within RTOL (plus a column-scaled ATOL). The tolerance is loose enough
  for a round-off-only change of the arithmetic (such as replacing the
  dense noise load by a sine transform): scheme perturbations contract in
  this regime, so round-off stays far below 1e-6 relative. Any change to
  sampling, coupling or the stepper moves numbers by much more.
- On every seed, invariants that hold at any seed: all numbers finite,
  errors positive, standard errors non-negative, and the fitted order
  inside a band that covers every recorded seed with margin.

A study whose own acceptance window reads passed=False is not a failure
here; the scoreboard, not the benchmark, judges the method.
"""

import json
import math

import numpy as np

from common import BENCH_DIR

REFERENCES = BENCH_DIR / "references.json"
REFERENCE_SEEDS = 32   # references.json covers seeds 0..REFERENCE_SEEDS-1
RTOL = 1e-6
ATOL_REL = 1e-9        # of the largest magnitude in the column
ROW_STRIDE = 8         # long time series keep every 8th row and the last

# fitted order at any seed; the REFERENCE_SEEDS recorded seeds lie well inside
ORDER_BANDS = {
    "trace_class_ci": (0.35, 0.75),
    "weak_trace_class_ci": (0.2, 1.2),
    "smoothing_spatial": (1.0, 1.6),
    "smoothing_temporal": (1.0, 1.6),
    "fine_mesh_strong": (1.6, 2.2),
}


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    conv = {"true": 1.0, "false": 0.0, "": math.nan}
    rows = [[conv[c] if c in conv else float(c) for c in line.split(",")]
            for line in lines[1:]]
    return header, np.array(rows, dtype=float)


def sampled_rows(n_rows):
    if n_rows <= 4 * ROW_STRIDE:
        return list(range(n_rows))
    return sorted(set(range(0, n_rows, ROW_STRIDE)) | {n_rows - 1})


def reference_entry(csv_text):
    header, values = parse_csv(csv_text)
    idx = sampled_rows(len(values))
    return {"header": header, "n_rows": len(values), "rows": idx,
            "values": values[idx].tolist()}


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)["seeds"]


def _compare(ref, header, values):
    if header != ref["header"] or len(values) != ref["n_rows"]:
        return [f"CSV shape {header} x {len(values)} differs from the reference "
                f"{ref['header']} x {ref['n_rows']}"]
    want = np.array(ref["values"], dtype=float)
    got = values[ref["rows"]]
    atol = ATOL_REL * np.nanmax(np.abs(want), axis=0, initial=0.0)
    ok = np.isclose(got, want, rtol=RTOL, atol=atol[None, :], equal_nan=True)
    if ok.all():
        return []
    r, c = np.argwhere(~ok)[0]
    return [f"{int((~ok).sum())} numbers off the reference, first "
            f"{header[c]}[row {ref['rows'][r]}] = {got[r, c]!r} vs {want[r, c]!r}"]


def _col(header, values, name):
    return values[:, header.index(name)]


def _invariants(name, kind, header, values, summary):
    problems = []
    if not np.all(np.isfinite(values)):
        problems.append("non-finite number in the CSV")
    if kind in ("strong_rate", "weak_rate", "smoothing"):
        if not np.all(_col(header, values, "error") > 0):
            problems.append("an error is not positive")
    stderr_cols = [h for h in header if "stderr" in h]
    if any(np.any(_col(header, values, h) < 0) for h in stderr_cols):
        problems.append("a standard error is negative")
    if kind == "equilibrate":
        means = values[:, [i for i, h in enumerate(header) if h.startswith("mean_")]]
        if np.any(np.abs(means) > 1.0):
            problems.append("an observable mean lies outside [-1, 1]")
    if kind == "longtime":
        means = values[:, [i for i, h in enumerate(header) if h.endswith("_mean")]]
        if np.any(means < 0):
            problems.append("a moment mean is negative")
    band = ORDER_BANDS.get(name)
    if band is not None:
        order = summary.get("fitted_order")
        if not (isinstance(order, float) and band[0] <= order <= band[1]):
            problems.append(f"fitted order {order!r} outside {band}")
    return problems


def check_study(refs, workload, seed, name, kind, csv_text, summary):
    """Problems found in one study's output; an empty list means correct."""
    header, values = parse_csv(csv_text)
    problems = _invariants(name, kind, header, values, summary)
    ref = refs.get(workload, {}).get(str(seed), {}).get(name)
    if ref is not None:
        problems += _compare(ref, header, values)
    return problems
