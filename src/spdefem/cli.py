"""Command line front end: JSON study configs in, CSV plus summary.json out.

All physics and statistics live in the other modules, and each report
lays out its own rows and summary; this one validates config documents,
dispatches, and writes reports deterministically (17 significant digits,
fixed row and key order). Timing and environment
data go only to summary.json so the CSV files are byte-stable for a
given config and seed.
"""

import argparse
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import harness
from .drift import DriftPolynomial, TamingParams, validate_params
from .errors import (CapacityError, ConfigError, ConstraintError,
                     InvalidArgumentError, NumericalBlowupError)
from .harness import Resolution

# study kind -> (harness study, the study keys only this kind accepts); the
# subcommand is the kind with dashes, and the study gets cfg plus the extras
STUDIES = {
    "strong_rate": (harness.strong_rate_study, {"reference"}),
    "weak_rate": (harness.weak_rate_study, {"reference", "crn_tapes"}),
    "smoothing": (harness.smoothing_study, {"times", "p"}),
    "longtime": (harness.moment_study, set()),
    "equilibrate": (harness.equilibration_study, {"initials"}),
    "taming_check": (harness.taming_check_study, {"u_max", "u_step"}),
    "spectrum_check": (harness.spectrum_check_study, set()),
}

_MC_KINDS = {"strong_rate", "weak_rate", "equilibrate", "longtime"}

_TOP_KEYS = {"problem", "noise", "study"}
_PROBLEM_KEYS = {"L", "drift_coeffs", "q", "taming", "initial"}
_TAMING_KEYS = {"alpha", "theta", "rho", "beta1", "beta2"}
_NOISE_KEYS = {"s", "K"}
_STUDY_COMMON = {"kind", "T", "grid", "samples", "seed", "stride",
                 "observable", "window"}


# ------------------------------------------------------------- validation

def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _check_keys(obj, allowed, where):
    _require(isinstance(obj, dict), f"{where} must be a JSON object")
    unknown = sorted(set(obj) - allowed)
    _require(not unknown, f"unknown key(s) in {where}: {', '.join(unknown)}")


def _is_int(v):
    # JSON true and false load as bool, a subclass of int: never a number here
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(obj, key, where, default=None, required=False, integer=False):
    if key not in obj or obj[key] is None:
        _require(not required, f"{where}.{key} is required")
        return default
    v = obj[key]
    if integer:
        _require(_is_int(v), f"{where}.{key} must be an integer")
        return v
    _require(_is_number(v), f"{where}.{key} must be a number")
    return float(v)


def _parse_initial(spec, where):
    if spec is None or spec == "zero":
        return None
    _require(isinstance(spec, dict) and set(spec) == {"modes"},
             f'{where} must be "zero" or {{"modes": [[j, amp], ...]}}')
    modes = spec["modes"]
    _require(isinstance(modes, list) and modes, f"{where}.modes must be a non-empty list")
    out = []
    for entry in modes:
        _require(isinstance(entry, list) and len(entry) == 2,
                 f"{where}.modes entries must be [j, amp] pairs")
        j, amp = entry
        _require(_is_int(j) and j >= 1, f"{where}.modes: j must be a positive integer")
        _require(_is_number(amp), f"{where}.modes: amp must be a number")
        out.append((j, float(amp)))
    return tuple(out)


def _parse_grid(raw, where):
    _require(isinstance(raw, list) and raw, f"{where} must be a non-empty list")
    out = []
    for entry in raw:
        _require(isinstance(entry, list) and len(entry) == 2
                 and all(_is_int(e) for e in entry),
                 f"{where} entries must be [m_exponent, h_exponent] integer pairs")
        out.append(Resolution(m=entry[0], h_exp=entry[1]))
    return tuple(out)


def parse_document(doc, workers=1):
    """Validate a ConfigDocument and build the study configuration.

    Returns (StudyConfig, extras) where extras holds the check-study
    parameters that have no harness field (taming scan bounds).
    """
    _check_keys(doc, _TOP_KEYS, "document")
    _require("problem" in doc, "document.problem is required")
    _require("study" in doc, "document.study is required")

    prob = doc["problem"]
    _check_keys(prob, _PROBLEM_KEYS, "problem")
    L = _number(prob, "L", "problem", required=True)
    _require(L > 0, "problem.L must be positive")

    drift = None
    taming = None
    if prob.get("drift_coeffs") is not None:
        coeffs = prob["drift_coeffs"]
        _require(isinstance(coeffs, list) and
                 all(_is_number(c) for c in coeffs),
                 "problem.drift_coeffs must be a list of numbers")
        q = _number(prob, "q", "problem", required=True, integer=True)
        try:
            drift = DriftPolynomial(q=q, coeffs=tuple(float(c) for c in coeffs))
        except InvalidArgumentError as e:
            raise ConfigError(f"problem.drift_coeffs: {e}") from e
        tm = prob.get("taming")
        _require(tm is not None, "problem.taming is required with a drift")
        _check_keys(tm, _TAMING_KEYS, "problem.taming")
        vals = {k: _number(tm, k, "problem.taming", required=True)
                for k in ("alpha", "theta", "rho", "beta1", "beta2")}
        try:
            taming = TamingParams(**vals)
            validate_params(drift, taming)
        except ConstraintError:
            raise
        except InvalidArgumentError as e:
            raise ConfigError(f"problem.taming: {e}") from e
    else:
        _require(prob.get("taming") is None,
                 "problem.taming given without drift_coeffs")

    initial = _parse_initial(prob.get("initial", "zero"), "problem.initial")

    s = None
    K = None
    if doc.get("noise") is not None:
        nz = doc["noise"]
        _check_keys(nz, _NOISE_KEYS, "noise")
        s = _number(nz, "s", "noise", required=True)
        _require(s >= 0, "noise.s must be nonnegative")
        K = _number(nz, "K", "noise", integer=True)
        _require(K is None or K >= 1, "noise.K must be a positive integer")

    st = doc["study"]
    _require(isinstance(st, dict) and "kind" in st, "study.kind is required")
    kind = st["kind"]
    _require(kind in STUDIES, f"study.kind must be one of {sorted(STUDIES)}")
    _check_keys(st, _STUDY_COMMON | STUDIES[kind][1], f"study (kind={kind})")

    grid = _parse_grid(st.get("grid"), "study.grid")
    reference = None
    if st.get("reference") is not None:
        (reference,) = _parse_grid([st["reference"]], "study.reference")
    if kind in ("strong_rate", "weak_rate"):
        _require(reference is not None, f"study.reference is required for {kind}")

    T = _number(st, "T", "study", default=1.0)
    _require(T > 0, "study.T must be positive")
    samples = _number(st, "samples", "study", integer=True,
                      required=kind in _MC_KINDS, default=1)
    seed = _number(st, "seed", "study", integer=True,
                   required=kind in _MC_KINDS or kind == "smoothing", default=0)
    # the Philox key is an unsigned 64-bit integer
    _require(0 <= seed < 2**64, f"study.seed must lie in [0, 2^64), got {seed}")
    stride = _number(st, "stride", "study", integer=True, default=1)
    observable = st.get("observable", harness.DEFAULT_OBSERVABLE)
    _require(isinstance(observable, str) and observable in harness.OBSERVABLES,
             f"study.observable must be one of {sorted(harness.OBSERVABLES)}")

    window = None
    if st.get("window") is not None:
        w = st["window"]
        _require(isinstance(w, list) and len(w) == 2,
                 "study.window must be [low, high]")
        ends = dict(zip(("low", "high"), w))
        window = (_number(ends, "low", "study.window", required=True),
                  _number(ends, "high", "study.window"))

    crn = st.get("crn_tapes", False)
    _require(isinstance(crn, bool), "study.crn_tapes must be true or false")
    initials = None
    if kind == "equilibrate":
        raw = st.get("initials")
        _require(isinstance(raw, list) and raw, "study.initials is required for equilibrate")
        initials = tuple(_parse_initial(e, f"study.initials[{i}]")
                         for i, e in enumerate(raw))
    times = ()
    p = 2.0
    if kind == "smoothing":
        raw = st.get("times", [1.0])
        _require(isinstance(raw, list) and raw
                 and all(_is_number(t) and math.isfinite(t) and t > 0 for t in raw),
                 "study.times must be a non-empty list of finite positive numbers")
        times = tuple(float(t) for t in raw)
        p = st.get("p", 2.0)
        if p in ("inf", "Infinity"):
            p = math.inf
        else:
            _require(_is_number(p), 'study.p must be a number or "inf"')
            p = float(p)
        _require(p >= 2, f"study.p must lie in [2, inf], got {p}")

    extras = {}
    if kind == "taming_check":
        _require(drift is not None, "taming_check needs problem.drift_coeffs")
        extras["u_max"] = _number(st, "u_max", "study", default=100.0)
        extras["u_step"] = _number(st, "u_step", "study", default=0.01)
        _require(extras["u_max"] > 0 and extras["u_step"] > 0,
                 "study.u_max and study.u_step must be positive")

    try:
        cfg = harness.make_study_config(
            kind=kind, L=L, drift=drift, taming=taming, initial_modes=initial,
            s=s, K=None if K is None else int(K), grid=grid, reference=reference,
            T=T, samples=int(samples), seed=int(seed), stride=int(stride),
            observable=observable, crn_tapes=crn, workers=int(workers),
            initials=initials, times=times, p=p, window=window,
        )
    except InvalidArgumentError as e:
        raise ConfigError(str(e)) from e
    return cfg, extras


def load_document(spec_str):
    """Read a config from a path, falling back to a packaged preset name."""
    path = Path(spec_str)
    if path.is_file():
        text = path.read_text()
    else:
        name = path.name
        if not name.endswith(".json"):
            name += ".json"
        res = resources.files("spdefem").joinpath("presets", name)
        if not res.is_file():
            raise ConfigError(f"config not found: {spec_str} "
                              f"(no such file, no preset named {name!r})")
        text = res.read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e


# ------------------------------------------------------------ serialization

def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return format(float(v), ".17g")


def _write_csv(path, rows):
    header = list(rows[0])
    lines = [",".join(header)]
    lines += [",".join(_cell(row[k]) for k in header) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_report_csv(report, cfg, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{cfg.kind}.csv"
    _write_csv(path, report.rows())
    return path


def _jsonable(v):
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        f = float(v)
        return f if math.isfinite(f) else repr(f)
    return v


def summary_dict(report):
    """The summary.json document of any study report."""
    return _jsonable(report.summary())


def write_summary(report, out_dir):
    """Write summary.json for a completed report; returns the document."""
    doc = summary_dict(report)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


# -------------------------------------------------------------------- main

def build_parser():
    ap = argparse.ArgumentParser(
        prog="spdefem",
        description="Tamed implicit FEM studies for a semilinear SPDE in 1D")
    sub = ap.add_subparsers(dest="command", required=True)
    for kind in STUDIES:
        p = sub.add_parser(kind.replace("_", "-"), help=f"run a {kind} study")
        p.add_argument("--config", required=True,
                       help="path to a config document, or a preset name")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override study.seed")
        p.add_argument("--samples", type=int, default=None,
                       help="override study.samples")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes (results identical for any count)")
    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        doc = load_document(args.config)
        if isinstance(doc, dict) and isinstance(doc.get("study"), dict):
            if args.seed is not None:
                doc["study"]["seed"] = args.seed
            if args.samples is not None:
                doc["study"]["samples"] = args.samples
        cfg, extras = parse_document(doc, workers=args.workers)
        want = args.command.replace("-", "_")
        if cfg.kind != want:
            raise ConfigError(
                f"study.kind is {cfg.kind!r} but the subcommand expects {want!r}")
        report = STUDIES[cfg.kind][0](cfg, **extras)
        write_report_csv(report, cfg, args.out)
        write_summary(report, args.out)
        print(f"{cfg.kind}: {report.outcome()}")
        return 0
    except (ConfigError, InvalidArgumentError, CapacityError) as e:
        # also what only the harness can check, e.g. a time off the step grid
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except NumericalBlowupError as e:
        print(f"numerical blowup: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # internal error
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def console_entry():  # pragma: no cover
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":  # pragma: no cover
    console_entry()
