"""Command line front end: JSON study configs in, CSV plus summary.json out.

All physics and statistics live in the other modules; this one validates
config documents, dispatches, and serializes reports deterministically
(17 significant digits, fixed row and key order). Timing and environment
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

from . import fem1d, harness
from .drift import (DriftPolynomial, TamingParams, taming_inequality_suite,
                    validate_params)
from .errors import (CapacityError, ConfigError, ConstraintError,
                     InvalidArgumentError, NumericalBlowupError, SpdefemError)
from .harness import (EquilibrationReport, MomentReport, RateReport,
                      Resolution, SmoothingReport)

COMMANDS = {
    "strong-rate": "strong_rate",
    "weak-rate": "weak_rate",
    "smoothing": "smoothing",
    "longtime": "longtime",
    "equilibrate": "equilibrate",
    "taming-check": "taming_check",
    "spectrum-check": "spectrum_check",
}

_MC_KINDS = {"strong_rate", "weak_rate", "equilibrate", "longtime"}

_TOP_KEYS = {"problem", "noise", "study"}
_PROBLEM_KEYS = {"L", "drift_coeffs", "q", "taming", "initial"}
_TAMING_KEYS = {"alpha", "theta", "rho", "beta1", "beta2"}
_NOISE_KEYS = {"s", "K"}
_STUDY_COMMON = {"kind", "T", "grid", "samples", "seed", "stride",
                 "observable", "window"}
_STUDY_EXTRA = {
    "strong_rate": {"reference"},
    "weak_rate": {"reference", "crn_tapes"},
    "smoothing": {"times", "p"},
    "equilibrate": {"initials"},
    "longtime": set(),
    "taming_check": {"u_max", "u_step"},
    "spectrum_check": set(),
}


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
    _require(kind in _STUDY_EXTRA, f"study.kind must be one of {sorted(_STUDY_EXTRA)}")
    _check_keys(st, _STUDY_COMMON | _STUDY_EXTRA[kind], f"study (kind={kind})")

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


# ----------------------------------------------------------- check studies

def run_taming_check(cfg, extras):
    n = int(round(extras["u_max"] / extras["u_step"]))
    us = np.arange(-n, n + 1) * extras["u_step"]
    rows = []
    all_ok = True
    for res in cfg.grid:
        tau = cfg.T / 2**res.m
        h = cfg.L / 2**res.h_exp
        rep = taming_inequality_suite(cfg.drift, cfg.taming, tau, h, us)
        ok = (rep.sign_ok and rep.dominated_ok and rep.approx_ok
              and rep.monotone_tau_ok and rep.monotone_h_ok)
        all_ok = all_ok and ok
        rows.append({
            "resolution_m": res.m, "resolution_h": h, "tau": tau,
            "sign_ok": rep.sign_ok,
            "dominated_margin": rep.dominated_margin,
            "growth_constant": rep.growth_constant,
            "approx_margin": rep.approx_margin,
            "monotone_tau_ok": rep.monotone_tau_ok,
            "monotone_h_ok": rep.monotone_h_ok,
            "penalty_c0": rep.penalty_c0,
            "penalty_c1": rep.penalty_c1,
            "penalty_margin": rep.penalty_margin,
            "ok": ok,
        })
    return {
        "kind": cfg.kind, "rows": rows, "passed": all_ok,
        "u_max": extras["u_max"], "u_step": extras["u_step"],
        "metadata": {"kind": cfg.kind, "grid": [[r.m, r.h_exp] for r in cfg.grid],
                     "T": cfg.T, "versions": harness._versions()},
    }


def run_spectrum_check(cfg):
    """Per mesh: the spectrum's residual and M-orthonormality against the
    assembled operators, and the eigenvalue bounds."""
    slack = 1e-9
    rows = []
    all_ok = True
    for res in cfg.grid:
        mesh = fem1d.build_mesh(cfg.L, 2**res.h_exp - 1)
        ops = fem1d.assemble_operators(mesh)
        spec = fem1d.discrete_spectrum(ops)
        lam = spec.lambdas
        j = np.arange(1, lam.size + 1.0)
        m_modes = fem1d.tridiag_matvec(ops.mass, spec.modes)
        resid = fem1d.tridiag_matvec(ops.stiffness, spec.modes) - lam * m_modes
        rel_resid = float(np.max(np.linalg.norm(resid, axis=0)
                                 / (lam * np.linalg.norm(m_modes, axis=0))))
        ortho = float(np.abs(spec.modes.T @ m_modes - np.eye(lam.size)).max())
        dirichlet_margin = float(np.min(lam - (j * np.pi / cfg.L) ** 2))
        ok = dirichlet_margin >= -slack and rel_resid <= 1e-8 and ortho <= 1e-8
        row = {
            "resolution_h": mesh.h, "n_interior": mesh.n_interior,
            "max_rel_residual": rel_resid,
            "orthonormality_defect": ortho,
            "dirichlet_margin": dirichlet_margin,
        }
        if cfg.L == 1.0:
            lower = float(np.min(lam - 4.0 * j**2))
            upper = float(np.min(3.0 * np.pi**2 * j**2 - lam))
            ok = ok and lower >= -slack and upper >= -slack
            row["lower_margin"] = lower
            row["upper_margin"] = upper
        row["ok"] = ok
        all_ok = all_ok and ok
        rows.append(row)
    return {
        "kind": cfg.kind, "rows": rows, "passed": all_ok, "slack": slack,
        "metadata": {"kind": cfg.kind, "L": cfg.L,
                     "grid": [[r.m, r.h_exp] for r in cfg.grid],
                     "versions": harness._versions()},
    }


# ------------------------------------------------------------ serialization

def _cell(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return format(float(v), ".17g")


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def write_report_csv(report, cfg, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kind = cfg.kind
    path = out_dir / f"{kind}.csv"
    if isinstance(report, RateReport):
        header = ["resolution_m", "resolution_h", "error", "stderr", "samples"]
        rows = [(res.m, hh, err, se, cfg.samples)
                for res, hh, err, se in zip(report.resolutions, report.hs,
                                            report.errors, report.stderrs)]
        _write_csv(path, header, rows)
    elif isinstance(report, SmoothingReport):
        header = ["resolution_m", "resolution_h", "t", "p", "error"]
        rows = []
        i = 0
        times = cfg.times or (1.0,)
        for res in cfg.grid:
            for _ in times:
                smp = report.samples[i]
                rows.append((res.m, smp.h, smp.t_n, smp.p, smp.error))
                i += 1
        _write_csv(path, header, rows)
    elif isinstance(report, EquilibrationReport):
        header = ["t"]
        for i in range(len(report.labels)):
            header += [f"mean_ic{i}", f"stderr_ic{i}"]
        rows = []
        for ti, t in enumerate(report.times):
            row = [t]
            for i in range(len(report.labels)):
                row += [report.means[i][ti], report.stderrs[i][ti]]
            rows.append(row)
        _write_csv(path, header, rows)
    elif isinstance(report, MomentReport):
        names = list(report.series)
        header = ["t"]
        for nm in names:
            header += [f"{nm}_mean", f"{nm}_stderr"]
        rows = []
        for ti, t in enumerate(report.times):
            row = [t]
            for nm in names:
                mean, se = report.series[nm]
                row += [mean[ti], se[ti]]
            rows.append(row)
        _write_csv(path, header, rows)
    elif isinstance(report, dict):
        rows = report["rows"]
        header = list(rows[0])
        _write_csv(path, header, [[r[k] for k in header] for r in rows])
    else:  # pragma: no cover
        raise SpdefemError(f"no CSV writer for {type(report).__name__}")
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
    if isinstance(v, Resolution):
        return [v.m, v.h_exp]
    return v


def summary_dict(report):
    """Flatten any study report into the summary.json document."""
    if isinstance(report, RateReport):
        d = {
            "kind": report.metadata.get("kind"),
            "fitted_order": report.fitted_order,
            "fit_stderr": report.fit_stderr,
            "window": report.window,
            "passed": report.passed,
            "axis": report.axis,
            "resolutions": report.resolutions,
            "taus": report.taus,
            "hs": report.hs,
            "errors": report.errors,
            "stderrs": report.stderrs,
            "flags": report.flags,
            "metadata": report.metadata,
        }
    elif isinstance(report, SmoothingReport):
        d = {
            "kind": report.metadata.get("kind"),
            "fitted_order": report.fitted_order,
            "fit_stderr": report.fit_stderr,
            "window": report.window,
            "passed": report.passed,
            "axis": report.axis,
            "decay_ok": report.decay_ok,
            "errors": [smp.error for smp in report.samples],
            "metadata": report.metadata,
        }
    elif isinstance(report, EquilibrationReport):
        d = {
            "kind": report.metadata.get("kind"),
            "labels": report.labels,
            "window": report.window,
            "window_means": report.window_means,
            "window_stderrs": report.window_stderrs,
            "pairwise": report.pairwise,
            "passed": report.agreement,
            "flags": report.flags,
            "metadata": report.metadata,
        }
    elif isinstance(report, MomentReport):
        trend_ok = all(tr["ok"] for tr in report.trends.values()) \
            if all(tr["ok"] is not None for tr in report.trends.values()) else None
        d = {
            "kind": report.metadata.get("kind"),
            "trend_window": report.trend_window,
            "trends": report.trends,
            "passed": trend_ok,
            "final_values": {nm: report.series[nm][0][-1]
                             for nm in report.series},
            "metadata": report.metadata,
        }
    elif isinstance(report, dict):
        d = dict(report)
    else:  # pragma: no cover
        raise SpdefemError(f"no summary writer for {type(report).__name__}")
    return _jsonable(d)


def write_summary(report, out_dir):
    """Write summary.json for a completed report; returns the document."""
    doc = summary_dict(report)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "summary.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


# -------------------------------------------------------------------- main

def _dispatch(cfg, extras):
    kind = cfg.kind
    if kind == "strong_rate":
        return harness.strong_rate_study(cfg)
    if kind == "weak_rate":
        return harness.weak_rate_study(cfg)
    if kind == "smoothing":
        return harness.smoothing_study(cfg)
    if kind == "equilibrate":
        return harness.equilibration_study(cfg)
    if kind == "longtime":
        return harness.moment_study(cfg)
    if kind == "taming_check":
        return run_taming_check(cfg, extras)
    if kind == "spectrum_check":
        return run_spectrum_check(cfg)
    raise ConfigError(f"unknown study kind {kind!r}")  # pragma: no cover


def _outcome_line(kind, doc):
    if "fitted_order" in doc:
        w = doc.get("window")
        wtxt = "" if w is None else f" window={w}"
        return (f"{kind}: fitted order {doc['fitted_order']:.4f} "
                f"+/- {doc['fit_stderr']:.4f}{wtxt} passed={doc['passed']}")
    if kind == "equilibrate":
        return f"{kind}: window means {doc['window_means']} passed={doc['passed']}"
    if kind == "longtime":
        slopes = {nm: round(tr["slope"], 6) for nm, tr in doc["trends"].items()}
        return f"{kind}: trend slopes {slopes} passed={doc['passed']}"
    return f"{kind}: passed={doc.get('passed')}"


def build_parser():
    ap = argparse.ArgumentParser(
        prog="spdefem",
        description="Tamed implicit FEM studies for a semilinear SPDE in 1D")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run a {COMMANDS[name]} study")
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
        want = COMMANDS[args.command]
        if cfg.kind != want:
            raise ConfigError(
                f"study.kind is {cfg.kind!r} but the subcommand expects {want!r}")
        report = _dispatch(cfg, extras)
        write_report_csv(report, cfg, args.out)
        summary = write_summary(report, args.out)
        print(_outcome_line(cfg.kind, summary))
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
