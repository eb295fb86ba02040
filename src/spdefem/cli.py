"""Command line front end: JSON study configs in, CSV plus summary.json out.

All physics and statistics live in the other modules, and each report
lays out its own rows and summary; this one checks the shape and types
of config documents (harness.StudyConfig judges their values), dispatches,
and writes reports deterministically (17 significant digits,
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
from .drift import DriftPolynomial, TamingParams
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


def _made(prefix, make, **kw):
    """make(**kw), with an InvalidArgumentError raised as a ConfigError whose
    message starts with prefix; a ConstraintError names its quantity and
    passes as it is."""
    try:
        return make(**kw)
    except ConstraintError:
        raise
    except InvalidArgumentError as e:
        raise ConfigError(f"{prefix}{e}") from e


def _parse_initial(spec, where):
    if spec is None or spec == "zero":
        return None
    _require(isinstance(spec, dict) and set(spec) == {"modes"},
             f'{where} must be "zero" or {{"modes": [[j, amp], ...]}}')
    modes = spec["modes"]
    _require(isinstance(modes, list), f"{where}.modes must be a list")
    for entry in modes:
        _require(isinstance(entry, list) and len(entry) == 2
                 and _is_int(entry[0]) and _is_number(entry[1]),
                 f"{where}.modes entries must be [j, amp] pairs, j an integer")
    return tuple((j, float(amp)) for j, amp in modes)


def _parse_grid(raw, where):
    _require(isinstance(raw, list), f"{where} must be a list")
    out = []
    for entry in raw:
        _require(isinstance(entry, list) and len(entry) == 2
                 and all(_is_int(e) for e in entry),
                 f"{where} entries must be [m_exponent, h_exponent] integer pairs")
        out.append(Resolution(m=entry[0], h_exp=entry[1]))
    return tuple(out)


def parse_document(doc, workers=1):
    """Build the study configuration of a ConfigDocument.

    Checks here are the document's shape and types; StudyConfig and the
    value types it holds decide whether the values can run. Returns
    (StudyConfig, extras) where extras holds the check-study parameters
    that have no harness field (taming scan bounds).
    """
    _check_keys(doc, _TOP_KEYS, "document")
    _require("problem" in doc, "document.problem is required")
    _require("study" in doc, "document.study is required")

    prob = doc["problem"]
    _check_keys(prob, _PROBLEM_KEYS, "problem")
    drift = taming = None
    if prob.get("drift_coeffs") is not None:
        coeffs = prob["drift_coeffs"]
        _require(isinstance(coeffs, list) and all(_is_number(c) for c in coeffs),
                 "problem.drift_coeffs must be a list of numbers")
        drift = _made("problem.drift_coeffs: ", DriftPolynomial, coeffs=tuple(coeffs),
                      q=_number(prob, "q", "problem", required=True, integer=True))
    if prob.get("taming") is not None:
        _check_keys(prob["taming"], _TAMING_KEYS, "problem.taming")
        taming = _made("problem.taming.", TamingParams, **{
            k: _number(prob["taming"], k, "problem.taming", required=True)
            for k in sorted(_TAMING_KEYS)})
    initial = _parse_initial(prob.get("initial", "zero"), "problem.initial")

    s = K = None
    if doc.get("noise") is not None:
        _check_keys(doc["noise"], _NOISE_KEYS, "noise")
        s = _number(doc["noise"], "s", "noise", required=True)
        K = _number(doc["noise"], "K", "noise", integer=True)

    st = doc["study"]
    _require(isinstance(st, dict) and "kind" in st, "study.kind is required")
    kind = st["kind"]
    _require(kind in STUDIES, f"study.kind must be one of {sorted(STUDIES)}")
    _check_keys(st, _STUDY_COMMON | STUDIES[kind][1], f"study (kind={kind})")
    reference = None
    if st.get("reference") is not None:
        (reference,) = _parse_grid([st["reference"]], "study.reference")
    observable = st.get("observable", harness.DEFAULT_OBSERVABLE)
    _require(isinstance(observable, str), "study.observable must be a string")
    opt = {}     # the optional keys given; StudyConfig's defaults stand for the rest
    if st.get("window") is not None:
        w = st["window"]
        _require(isinstance(w, list) and len(w) == 2, "study.window must be [low, high]")
        ends = dict(zip(("low", "high"), w))
        opt["window"] = (_number(ends, "low", "study.window", required=True),
                         _number(ends, "high", "study.window"))
    if "crn_tapes" in st:
        opt["crn_tapes"] = st["crn_tapes"]
        _require(isinstance(opt["crn_tapes"], bool), "study.crn_tapes must be true or false")
    if "initials" in st:
        _require(isinstance(st["initials"], list), "study.initials must be a list")
        opt["initials"] = tuple(_parse_initial(e, f"study.initials[{i}]")
                                for i, e in enumerate(st["initials"]))
    if "times" in st:
        _require(isinstance(st["times"], list) and all(_is_number(t) for t in st["times"]),
                 "study.times must be a list of numbers")
        opt["times"] = tuple(float(t) for t in st["times"])
    if "p" in st:
        p = math.inf if st["p"] in ("inf", "Infinity") else st["p"]
        _require(_is_number(p), 'study.p must be a number or "inf"')
        opt["p"] = float(p)

    extras = {}
    if kind == "taming_check":
        extras["u_max"] = _number(st, "u_max", "study", default=100.0)
        extras["u_step"] = _number(st, "u_step", "study", default=0.01)

    cfg = _made("", harness.StudyConfig,
                kind=kind, L=_number(prob, "L", "problem", required=True),
                drift=drift, taming=taming, initial_modes=initial, s=s, K=K,
                grid=_parse_grid(st.get("grid"), "study.grid"), reference=reference,
                T=_number(st, "T", "study", default=1.0),
                samples=_number(st, "samples", "study", integer=True,
                                required=kind in _MC_KINDS, default=1),
                seed=_number(st, "seed", "study", integer=True,
                             required=kind in _MC_KINDS or kind == "smoothing", default=0),
                stride=_number(st, "stride", "study", integer=True, default=1),
                observable=observable, workers=workers, **opt)
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
        # InvalidArgumentError: a ConstraintError, or a taming scan's bounds
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
