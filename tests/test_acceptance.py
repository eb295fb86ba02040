"""Acceptance scoreboard: the shipped presets and the package's hard guarantees.

Every test prints one line

    [criterion NN] PASS|FAIL <what was measured>

and the conftest hook repeats the collected lines after the run summary.
The Monte Carlo studies run at their full preset sample counts, so this
module takes a few minutes of CPU; the unit suites elsewhere stay fast.

Criterion 03 runs the weak_trace_class document on a grid set in the
test (T = 1, tau = 2^-5..2^-8): the preset's own grid lies outside the
asymptotic regime. Criteria 03 and 05 check against exact closed forms
of the drift-free scheme from closed_forms.py.
"""

import dataclasses
import json

import numpy as np
import pytest

from spdefem import cli, drift, fem1d, harness, scheme
from spdefem.harness import Resolution
from spdefem.smoothing_lab import rate_fit, rough_initial

from closed_forms import (drift_free_weak_errors, semidiscrete_smoothing_error,
                          time_only_smoothing_error)
from dense_reference import dense_one_step
from stepping import one_step

RESULTS = []

AC_TAMING = drift.TamingParams(alpha=0.25, theta=1.0, rho=2.0, beta1=1.0, beta2=1.0)


def record(num, ok, text):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {text}"
    RESULTS.append(line)
    print(line)
    return ok


def study_config(preset, **overrides):
    cfg, _ = cli.parse_document(cli.load_document(preset))
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def window_text(window):
    return f"[{window[0]:g}, {window[1]:g}]"


def grid_slope(cfg, errors):
    taus = [harness._tau_for(cfg, r) for r in cfg.grid]
    return rate_fit(zip(taus, errors)).slope


def test_c01_strong_rate_trace_class():
    rep = harness.strong_rate_study(study_config("trace_class"))
    ok = rep.passed is True
    record(1, ok,
           f"strong temporal rate, trace-class noise: fitted order "
           f"{rep.fitted_order:.3f} +/- {rep.fit_stderr:.3f}, "
           f"window {window_text(rep.window)}")
    assert rep.window == (0.3, 0.7)
    assert ok, (rep.fitted_order, rep.fit_stderr)


def test_c02_strong_rate_white_noise():
    rep = harness.strong_rate_study(study_config("white_noise"))
    ok = rep.passed is True
    record(2, ok,
           f"strong temporal rate, white noise: fitted order "
           f"{rep.fitted_order:.3f} +/- {rep.fit_stderr:.3f}, "
           f"window {window_text(rep.window)}")
    assert rep.window == (0.1, 0.4)
    assert ok, (rep.fitted_order, rep.fit_stderr)


def test_c03_weak_rate_trace_class():
    # At the preset's T = 8, tau = 2^-2..2^-5 the grid is pre-asymptotic
    # (tau lambda_1h ~ 2.5 at tau = 1/4). T = 1 is still about nine
    # relaxation times (lambda_1h - L_f ~ 8.9), and tau = 2^-5..2^-8 against
    # a 2^12-step reference keeps the preset's tape length and cost.
    preset = study_config("weak_trace_class")
    cfg = dataclasses.replace(
        preset, T=1.0, grid=tuple(Resolution(m, 6) for m in range(5, 9)),
        reference=Resolution(12, 6))
    closed = grid_slope(cfg, drift_free_weak_errors(cfg))
    closed_preset = grid_slope(preset, drift_free_weak_errors(preset))
    rep = harness.weak_rate_study(cfg)
    se_cap = 0.5 * float(np.min(rep.errors))
    se_ok = float(np.max(rep.stderrs)) < se_cap
    closed_ok = rep.window[0] <= closed <= rep.window[1]
    ok = rep.passed is True and se_ok and closed_ok
    record(3, ok,
           f"weak temporal rate, trace-class noise, T=1, tau=2^-5..2^-8: "
           f"fitted order {rep.fitted_order:.3f} +/- {rep.fit_stderr:.3f}, "
           f"window {window_text(rep.window)}, drift-free closed form "
           f"{closed:.3f} (preset grid T=8, tau=2^-2..2^-5: {closed_preset:.3f}), "
           f"max stderr {np.max(rep.stderrs):.2e} (cap {se_cap:.2e})")
    assert rep.window == (0.7, 1.3)
    assert ok, (rep.fitted_order, rep.fit_stderr, float(np.max(rep.stderrs)),
                closed)


def test_c04_equilibration_from_three_starts():
    rep = harness.equilibration_study(study_config("equilibrate"))
    ok = rep.agreement is True
    worst = max((abs(p["diff"]) for p in rep.pairwise), default=np.nan)
    record(4, ok,
           f"equilibration: window means {np.round(rep.window_means, 4).tolist()} "
           f"for starts {list(rep.labels)}, largest gap {worst:.2e}, "
           f"3-sigma pairwise agreement")
    assert ok, rep.pairwise


def test_c05_deterministic_smoothing_bench():
    rt = harness.smoothing_study(study_config("smoothing_temporal"))
    cfg_s = study_config("smoothing_spatial")
    rs = harness.smoothing_study(cfg_s)
    temporal_ok = rt.fitted_order >= 0.85
    decay_ok = rt.decay_ok is True
    # At the preset's tau = 2^-12 the time error (the same at every mesh)
    # exceeds the spatial error on the two finest meshes, so the spatial
    # order is fitted to the time-free error E_h(t) P_h v - E(t) v, and the
    # fully discrete errors must differ from it by at most the time error.
    t = rs.metadata["times"][0]
    v = rough_initial(rs.metadata["rough_modes"], cfg_s.seed, cfg_s.L)
    rows = [row for row in rs.samples if row.t_n == t]
    assert len(rows) == len(cfg_s.grid)
    e_space, e_time = [], []
    for row, res in zip(rows, cfg_s.grid):
        ops = fem1d.assemble_operators(harness._mesh_for(cfg_s, res))
        e_space.append(semidiscrete_smoothing_error(ops, t, v))
        e_time.append(time_only_smoothing_error(ops, row.tau, round(t / row.tau), v))
    space_order = rate_fit(zip((row.h for row in rows), e_space)).slope
    split_ok = all(abs(row.error - s) <= e
                   for row, s, e in zip(rows, e_space, e_time))
    spatial_ok = space_order >= 1.7
    ok = temporal_ok and decay_ok and spatial_ok and split_ok
    record(5, ok,
           f"smoothing bench: temporal order {rt.fitted_order:.3f} (need >= 0.85), "
           f"time-free spatial order {space_order:.3f} (need >= 1.7; fully "
           f"discrete at tau=2^-12: {rs.fitted_order:.3f}, time error "
           f"{max(e_time):.2e}, |e_full - e_space| <= e_time "
           f"{'holds' if split_ok else 'violated'}), "
           f"decay in t {'holds' if decay_ok else 'violated'}")
    assert ok, (rt.fitted_order, space_order, split_ok, rt.decay_ok)


def test_c06_spectrum_bounds():
    slack = 1e-9
    ok = True
    worst_low, worst_high = np.inf, np.inf
    for h_exp in range(3, 8):
        ops = fem1d.assemble_operators(fem1d.build_mesh(1.0, 2**h_exp - 1))
        lam = fem1d.discrete_spectrum(ops).lambdas
        j = np.arange(1, lam.size + 1, dtype=float)
        low = np.minimum(lam - 4.0 * j**2, lam - (np.pi * j) ** 2)
        high = 3.0 * np.pi**2 * j**2 - lam
        worst_low = min(worst_low, float(low.min()))
        worst_high = min(worst_high, float(high.min()))
        ok = ok and bool(np.all(low >= -slack) and np.all(high >= -slack))
    record(6, ok,
           f"eigenvalue bounds on h = 2^-3..2^-7: min slack below {worst_low:.2e}, "
           f"above {worst_high:.2e} (allowed -1e-09)")
    assert ok, (worst_low, worst_high)


def test_c07_taming_inequalities():
    poly = drift.DriftPolynomial(q=2, coeffs=(0.0, 1.0, 0.0, -1.0))
    us = np.arange(-10000, 10001) * 0.01
    all_ok = True
    details = []
    for tau, h in ((2.0**-4, 2.0**-4), (2.0**-8, 2.0**-6)):
        rep = drift.taming_inequality_suite(poly, AC_TAMING, tau, h, us)
        this = (rep.sign_ok and rep.dominated_ok and rep.approx_ok
                and rep.monotone_tau_ok and rep.monotone_h_ok)
        all_ok = all_ok and this
        details.append(f"(tau=2^{int(np.log2(tau))}, h=2^{int(np.log2(h))}): "
                       f"{'all hold' if this else 'violated'}")
    record(7, all_ok,
           "taming inequalities on u in [-100, 100] step 0.01, exact, "
           + "; ".join(details))
    assert all_ok, details


def test_c08_uniform_moment_bounds():
    names = ("l4_4", "hgamma_sq")
    ok = True
    parts = []
    for preset in ("longtime", "longtime_double_tau"):
        rep = harness.moment_study(study_config(preset))
        tau = rep.metadata["T"] / 2 ** rep.metadata["grid"][0][0]
        for name in names:
            mean, _ = rep.series[name]
            finite = bool(np.all(np.isfinite(mean)))
            trend = rep.trends[name]
            ok = ok and finite and trend["ok"]
            parts.append(f"{name}@tau={tau:g}: slope {trend['slope']:+.2e}"
                         f"{'' if finite and trend['ok'] else ' (BAD)'}")
    record(8, ok,
           "fourth and energy moments bounded, flat over [16, 32], "
           "stable under doubled tau: " + ", ".join(parts))
    assert ok, parts


def test_c09_dense_oracle_equivalence():
    rng = np.random.default_rng(90210)
    worst = 0.0
    failures = 0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        L = float(rng.uniform(0.5, 3.0))
        tau = float(rng.uniform(1e-3, 0.5))
        K = int(rng.integers(1, n + 1))
        coeffs = (float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-2.0, 2.0)),
                  float(rng.uniform(-2.0, 2.0)), -float(rng.uniform(0.2, 3.0)))
        x0 = rng.standard_normal(n) * float(rng.uniform(0.3, 2.0))
        inc = 0.2 * rng.standard_normal(K)
        ops = fem1d.assemble_operators(fem1d.build_mesh(L, n))
        poly = drift.DriftPolynomial(q=2, coeffs=coeffs)
        cfg = scheme.make_scheme_config(ops, poly, AC_TAMING, tau, x0)
        load = fem1d.sine_load_matrix(ops.mesh, K) @ inc
        got = one_step(cfg, load)
        expect = dense_one_step(x0, inc, L, tau, coeffs, 2,
                                0.25, 1.0, 2.0, 1.0, 1.0)
        rel = float(np.linalg.norm(got - expect)
                    / max(np.linalg.norm(expect), 1e-30))
        worst = max(worst, rel)
        failures += rel > 1e-10
    ok = failures == 0
    record(9, ok,
           f"one-step dense-matrix oracle, 100 randomized instances (dim <= 8): "
           f"worst relative gap {worst:.2e} (cap 1e-10), {failures} over cap")
    assert ok, worst


def test_c10_worker_count_determinism(tmp_path):
    doc = {
        "problem": {"L": 1.0, "drift_coeffs": [0.0, 1.0, 0.0, -1.0], "q": 2,
                    "taming": {"alpha": 0.25, "theta": 1.0, "rho": 2.0,
                               "beta1": 1.0, "beta2": 1.0},
                    "initial": "zero"},
        "noise": {"s": 0.5005, "K": None},
        "study": {"kind": "strong_rate", "T": 0.5,
                  "grid": [[4, 3], [5, 3], [6, 3]], "reference": [9, 3],
                  "samples": 320, "seed": 77},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(doc))
    blobs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        rc = cli.main(["strong-rate", "--config", str(cfg_path),
                       "--out", str(out), "--workers", str(workers)])
        assert rc == 0
        blobs[workers] = (out / "strong_rate.csv").read_bytes()
    ok = blobs[1] == blobs[4]
    record(10, ok,
           "byte-identical study CSV at 1 and 4 workers "
           f"(320 samples, {len(blobs[1])} bytes)")
    assert ok
