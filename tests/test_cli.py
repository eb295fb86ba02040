"""Config parsing, command dispatch, file outputs, exit codes."""

import copy
import json
import math
import re
from importlib import resources

import numpy as np
import pytest

from spdefem import cli, fem1d, harness
from spdefem.errors import ConfigError, ConstraintError

TINY_STRONG = {
    "problem": {
        "L": 1.0,
        "drift_coeffs": [0.0, 1.0, 0.0, -1.0],
        "q": 2,
        "taming": {"alpha": 0.25, "theta": 1.0, "rho": 2.0,
                   "beta1": 1.0, "beta2": 1.0},
        "initial": "zero",
    },
    "noise": {"s": 0.5005, "K": None},
    "study": {
        "kind": "strong_rate",
        "T": 0.25,
        "grid": [[3, 3], [4, 3], [5, 3]],
        "reference": [8, 3],
        "samples": 8,
        "seed": 11,
    },
}


def doc_file(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def preset_names():
    root = resources.files("spdefem") / "presets"
    return sorted(e.name for e in root.iterdir() if e.name.endswith(".json"))


# (subcommand, preset or None for TINY_STRONG, key, value, the field the
# error must name); key is a dotted document path, a bare name in study,
# or a command line flag
MALFORMED = [
    ("smoothing", "smoothing_spatial", "p", "two", "study.p"),
    ("smoothing", "smoothing_spatial", "p", None, "study.p"),
    ("strong-rate", None, "window", ["a", 1.5], "study.window.low"),
    ("strong-rate", None, "window", [None, 1.5], "study.window.low"),
    ("strong-rate", None, "window", [0.5, "b"], "study.window.high"),
    ("weak-rate", "weak_trace_class_ci", "crn_tapes", "no", "study.crn_tapes"),
    ("strong-rate", None, "observable", ["l2"], "study.observable"),
    # JSON true loads as a bool, which Python counts as the integer 1
    ("strong-rate", None, "grid", [[True, 5]], "study.grid"),
    ("strong-rate", None, "problem.drift_coeffs", [0, True, 0, -1],
     "problem.drift_coeffs"),
    ("equilibrate", "equilibrate_ci", "initials", [{"modes": [[True, 2.0]]}],
     "study.initials[0].modes"),
    ("equilibrate", "equilibrate_ci", "initials", [{"modes": [[1, True]]}],
     "study.initials[0].modes"),
    ("smoothing", "smoothing_spatial", "times", [True], "study.times"),
    ("smoothing", "smoothing_spatial", "p", -math.inf, "study.p"),
    ("smoothing", "smoothing_spatial", "times", [math.inf], "study.times"),
    ("smoothing", "smoothing_spatial", "times", [math.nan], "study.times"),
    # out of order, the fit would be taken at the wrong time
    ("smoothing", "smoothing_temporal", "times", [4.0, 1.0], "study.times"),
    ("smoothing", "smoothing_temporal", "times", [1.0, 1.0], "study.times"),
    # a 2e11-point scan, refused before anything is allocated
    ("taming-check", "taming_check", "u_step", 1e-9, "study.u_step"),
    # the Philox key is a uint64
    ("strong-rate", None, "seed", -1, "study.seed"),
    ("strong-rate", None, "--seed", 2**64, "study.seed"),
    ("strong-rate", None, "--workers", -3, "workers >= 1"),
    # one recorded time in the trend window [T/2, T], none in [3T/4, T]:
    # refused before any step instead of a nan slope or window mean
    ("longtime", "longtime_ci", "stride", 2048, "study.stride"),
    ("equilibrate", "equilibrate_ci", "stride", 1024, "study.stride"),
    # a grid that varies both axes, and one of two entries: no rate to fit
    ("strong-rate", "trace_class_ci", "grid", [[6, 5], [7, 6], [8, 6]], "study.grid"),
    ("strong-rate", "trace_class_ci", "grid", [[6, 6], [7, 6]], "study.grid"),
    ("smoothing", "smoothing_spatial", "grid", [[14, 3], [14, 4]], "study.grid"),
    ("equilibrate", "equilibrate_ci", "grid", [[9, 5], [9, 6]], "study.grid"),
    # non-finite numbers, each once stepped into an overflow, a blowup or nan
    ("strong-rate", None, "T", math.inf, "study.T"),
    ("strong-rate", None, "noise.s", math.inf, "noise.s"),
    ("strong-rate", None, "noise.s", math.nan, "noise.s"),
    ("strong-rate", None, "problem.taming.beta1", math.inf, "problem.taming.beta1"),
    ("strong-rate", None, "problem.taming.beta2", math.inf, "problem.taming.beta2"),
    ("strong-rate", None, "problem.taming.theta", math.nan, "problem.taming.theta"),
    ("strong-rate", None, "problem.drift_coeffs", [0, math.nan, 0, -1],
     "problem.drift_coeffs"),
    ("strong-rate", None, "problem.drift_coeffs", [math.inf, 1, 0, -1],
     "problem.drift_coeffs"),
    ("strong-rate", None, "problem.drift_coeffs", [0, 1, 0, -math.inf],
     "problem.drift_coeffs"),
    ("strong-rate", None, "window", [math.nan, 1.0], "study.window"),
    ("strong-rate", None, "problem.initial", {"modes": [[1, math.nan]]},
     "problem.initial"),
    ("taming-check", "taming_check", "problem.drift_coeffs", None, "problem.drift_coeffs"),
    # every other document field
    ("strong-rate", None, "problem.L", 0.0, "problem.L"),
    ("strong-rate", None, "problem.q", 2.5, "problem.q"),
    ("strong-rate", None, "problem.taming.alpha", 0.0, "problem.taming.alpha"),
    ("strong-rate", None, "problem.taming.rho", -1.0, "problem.taming.rho"),
    ("strong-rate", None, "noise.K", 0, "noise.K"),
    ("strong-rate", None, "kind", "strong", "study.kind"),
    ("strong-rate", None, "samples", 0, "study.samples"),
    ("strong-rate", None, "reference", [8, 2], "study.reference"),
    ("taming-check", "taming_check", "u_max", -1.0, "study.u_max"),
    ("equilibrate", "equilibrate_ci", "initials", [{"modes": [[0, 2.0]]}],
     "study.initials[0].modes"),
    ("equilibrate", "equilibrate_ci", "problem.drift_coeffs", [0, 40, 0, -1],
     "problem.drift_coeffs"),
    # once a MemoryError, or a run whose window no fit could meet
    ("strong-rate", None, "window", [1.3, 0.7], "study.window"),
    ("strong-rate", None, "problem.initial", {"modes": [[10**15, 1.0]]},
     "problem.initial"),
    ("equilibrate", "equilibrate_ci", "initials", [{"modes": [[10**15, 1.0]]}],
     "study.initials[0].modes"),
    ("strong-rate", None, "noise.K", 10**15, "noise.K"),
    # the default K = 2^15 - 1 of the finest mesh
    ("strong-rate", None, "reference", [8, 15], "noise.K"),
]


class TestDocumentParsing:
    @pytest.mark.parametrize("name", preset_names())
    def test_every_packaged_preset_parses(self, name):
        doc = json.loads((resources.files("spdefem") / "presets" / name).read_text())
        cfg, extras = cli.parse_document(doc)
        assert cfg.kind in cli.STUDIES

    def test_unknown_top_level_key(self):
        doc = copy.deepcopy(TINY_STRONG)
        doc["extra"] = 1
        with pytest.raises(ConfigError, match="extra"):
            cli.parse_document(doc)

    def test_unknown_problem_key(self):
        doc = copy.deepcopy(TINY_STRONG)
        doc["problem"]["nu"] = 0.5
        with pytest.raises(ConfigError, match="nu"):
            cli.parse_document(doc)

    def test_unknown_study_key(self):
        doc = copy.deepcopy(TINY_STRONG)
        doc["study"]["budget"] = 10
        with pytest.raises(ConfigError, match="budget"):
            cli.parse_document(doc)

    def test_kind_conditional_keys(self):
        doc = copy.deepcopy(TINY_STRONG)
        doc["study"]["times"] = [1.0]     # smoothing-only key
        with pytest.raises(ConfigError):
            cli.parse_document(doc)

    def test_missing_reference(self):
        doc = copy.deepcopy(TINY_STRONG)
        del doc["study"]["reference"]
        with pytest.raises(ConfigError, match="reference"):
            cli.parse_document(doc)

    def test_taming_constraint_checked_at_parse(self):
        doc = copy.deepcopy(TINY_STRONG)
        doc["problem"]["taming"]["alpha"] = 1.0
        with pytest.raises(ConstraintError, match="0.7916666667"):
            cli.parse_document(doc)

    def test_initial_modes_form(self):
        doc = copy.deepcopy(TINY_STRONG)
        doc["problem"]["initial"] = {"modes": [[1, 2.0], [3, -0.5]]}
        cfg, _ = cli.parse_document(doc)
        assert cfg.initial_modes == ((1, 2.0), (3, -0.5))

    def test_window_high_end_may_be_open(self):
        doc = copy.deepcopy(TINY_STRONG)
        doc["study"]["window"] = [0.5, None]
        cfg, _ = cli.parse_document(doc)
        assert cfg.window == (0.5, None)

    def test_preset_fallback_by_name(self):
        doc = cli.load_document("trace_class_ci")
        cfg, _ = cli.parse_document(doc)
        assert cfg.samples == 64


class TestMainExitCodes:
    def test_bad_config_exits_2(self, tmp_path):
        doc = copy.deepcopy(TINY_STRONG)
        doc["problem"]["taming"]["alpha"] = 1.0
        rc = cli.main(["strong-rate", "--config", doc_file(tmp_path, doc),
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("sub,preset,key,value,field", MALFORMED)
    def test_malformed_field_exits_2(self, tmp_path, capsys, monkeypatch, sub, preset,
                                     key, value, field):
        # a rejection after the work has started exits 1 and fails the row
        def no_work(*args, **kwargs):
            raise AssertionError("the study started work on an invalid config")
        monkeypatch.setattr(harness, "_paths_block", no_work)
        monkeypatch.setattr(harness, "smoothing_error", no_work)
        doc = copy.deepcopy(TINY_STRONG) if preset is None else cli.load_document(preset)
        flags = []
        if key.startswith("--"):
            flags = [key, str(value)]
        else:
            *path, name = key.split(".")
            node = doc if path else doc["study"]
            for part in path:
                node = node[part]
            node[name] = value
        rc = cli.main([sub, "--config", doc_file(tmp_path, doc),
                       "--out", str(tmp_path / "out"), *flags])
        assert rc == 2
        assert field in capsys.readouterr().err

    def test_every_document_key_has_a_malformed_row(self):
        # a document field with no row could ship unvalidated
        fields = [row[-1] for row in MALFORMED]
        study_keys = cli._STUDY_COMMON.union(*(keys for _, keys in cli.STUDIES.values()))
        sections = [("problem.", cli._PROBLEM_KEYS), ("problem.taming.", cli._TAMING_KEYS),
                    ("noise.", cli._NOISE_KEYS), ("study.", study_keys)]
        missing = [where + key for where, keys in sections for key in sorted(keys)
                   if not any(re.match(re.escape(where + key) + r"\b", f) for f in fields)]
        assert missing == []

    @pytest.mark.parametrize("sub", ["strong-rate", "weak-rate"])
    def test_degenerate_fit_exits_0(self, tmp_path, capsys, sub):
        # no drift, no noise and a zero start: every path stays 0, so every
        # error is 0 and every resolution gives the same observable
        doc = dict(tiny_doc(sub.replace("-", "_"), problem=NO_DRIFT, T=0.25,
                            grid=[[3, 3], [4, 3], [5, 3]], reference=[8, 3],
                            samples=2, seed=1), noise=None)
        rc = cli.main([sub, "--config", doc_file(tmp_path, doc),
                       "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "fitted order nan +/- nan" in capsys.readouterr().out

    def test_kind_subcommand_mismatch_exits_2(self, tmp_path):
        rc = cli.main(["weak-rate", "--config", doc_file(tmp_path, TINY_STRONG),
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_blowup_exits_3(self, tmp_path):
        doc = copy.deepcopy(TINY_STRONG)
        doc["problem"]["initial"] = {"modes": [[1, 1e200]]}
        doc["study"]["samples"] = 1
        with np.errstate(all="ignore"):
            rc = cli.main(["strong-rate", "--config", doc_file(tmp_path, doc),
                           "--out", str(tmp_path / "out")])
        assert rc == 3

    def test_missing_config_exits_2(self, tmp_path):
        rc = cli.main(["strong-rate", "--config", "no_such_preset",
                       "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("grid,times", [
        ([[3, 4], [3, 5], [3, 6]], [0.3]),   # 0.3 is not a multiple of tau = 1/8
        ([[3, 4], [4, 5], [5, 6]], [0.5]),   # the grid varies both m and h_exp
    ])
    def test_document_error_found_by_harness_exits_2(self, tmp_path, grid, times):
        # harness.StudyConfig finds it while the document is parsed
        doc = cli.load_document("smoothing_spatial")
        doc["study"].update(T=1.0, grid=grid, times=times)
        with pytest.raises(ConfigError, match=r"study\.(times|grid)"):
            cli.parse_document(doc)
        rc = cli.main(["smoothing", "--config", doc_file(tmp_path, doc),
                       "--out", str(tmp_path / "out")])
        assert rc == 2


def tiny_doc(kind, problem=TINY_STRONG["problem"], **study):
    return {"problem": problem, "noise": TINY_STRONG["noise"],
            "study": {"kind": kind, **study}}


NO_DRIFT = {"L": 1.0, "drift_coeffs": None, "initial": "zero"}
FIT = r"fitted order -?\d+\.\d{4} \+/- \d+\.\d{4} window=\[\S+, \S+\] passed=(True|False)"
PASSED = r"passed=(True|False|None)"
RATE_KEYS = {"kind", "fitted_order", "fit_stderr", "window", "passed", "axis",
             "resolutions", "taus", "hs", "errors", "stderrs", "flags", "metadata"}

# subcommand: (document, CSV header, data rows, summary.json keys, stdout line)
TINY_RUNS = {
    "strong-rate": (
        TINY_STRONG, "resolution_m,resolution_h,error,stderr,samples", 3,
        RATE_KEYS, rf"strong_rate: {FIT}"),
    "weak-rate": (
        tiny_doc("weak_rate", T=0.25, grid=[[3, 3], [4, 3], [5, 3]],
                 reference=[8, 3], samples=8, seed=11, crn_tapes=True),
        "resolution_m,resolution_h,error,stderr,samples", 3,
        RATE_KEYS, rf"weak_rate: {FIT}"),
    "smoothing": (
        tiny_doc("smoothing", problem=NO_DRIFT, T=2.0,
                 grid=[[3, 5], [4, 5], [5, 5]], times=[1.0, 2.0], p=2.0, seed=1),
        "resolution_m,resolution_h,t,p,error", 6,
        {"kind", "fitted_order", "fit_stderr", "window", "passed", "axis",
         "decay_ok", "errors", "metadata"},
        rf"smoothing: {FIT}"),
    "equilibrate": (
        tiny_doc("equilibrate", T=1.0, grid=[[6, 3]], samples=4, seed=3, stride=8,
                 initials=["zero", {"modes": [[1, 2.0]]}]),
        "t,mean_ic0,stderr_ic0,mean_ic1,stderr_ic1", 9,
        {"kind", "labels", "window", "window_means", "window_stderrs", "pairwise",
         "passed", "flags", "metadata"},
        rf"equilibrate: window means \[\S+, \S+\] {PASSED}"),
    "longtime": (
        tiny_doc("longtime", T=1.0, grid=[[6, 3]], samples=4, seed=5, stride=8),
        "t,l2_sq_mean,l2_sq_stderr,l4_4_mean,l4_4_stderr,hgamma_sq_mean,hgamma_sq_stderr",
        9, {"kind", "trend_window", "trends", "passed", "final_values", "metadata"},
        r"longtime: trend slopes \{'l2_sq': \S+, 'l4_4': \S+, 'hgamma_sq': \S+\} "
        + PASSED),
    "taming-check": (
        tiny_doc("taming_check", T=1.0, grid=[[4, 4]], u_max=5.0, u_step=0.5),
        "resolution_m,resolution_h,tau,sign_ok,dominated_margin,growth_constant,"
        "approx_margin,monotone_tau_ok,monotone_h_ok,penalty_c0,penalty_c1,"
        "penalty_margin,ok", 1,
        {"kind", "rows", "passed", "u_max", "u_step", "metadata"},
        r"taming_check: passed=True"),
    "spectrum-check": (
        tiny_doc("spectrum_check", problem=NO_DRIFT, T=1.0, grid=[[0, 3], [0, 5]]),
        "resolution_h,n_interior,max_rel_residual,orthonormality_defect,"
        "dirichlet_margin,lower_margin,upper_margin,ok", 2,
        {"kind", "rows", "passed", "slack", "metadata"},
        r"spectrum_check: passed=True"),
}


class TestOutputs:
    def run_tiny(self, tmp_path, sub, extra=(), doc=TINY_STRONG):
        out = tmp_path / "out"
        rc = cli.main([sub, "--config", doc_file(tmp_path, doc),
                       "--out", str(out), *extra])
        assert rc == 0
        return out

    @pytest.mark.parametrize("sub", sorted(TINY_RUNS))
    def test_output_layout(self, tmp_path, capsys, sub):
        doc, header, n_rows, keys, line = TINY_RUNS[sub]
        out = self.run_tiny(tmp_path, sub, doc=doc)
        kind = sub.replace("-", "_")
        csv = (out / f"{kind}.csv").read_text().splitlines()
        assert csv[0] == header
        assert len(csv) == 1 + n_rows
        assert set(json.loads((out / "summary.json").read_text())) == keys
        assert re.fullmatch(line, capsys.readouterr().out.rstrip("\n"))

    def test_strong_run_writes_csv_and_summary(self, tmp_path):
        out = self.run_tiny(tmp_path, "strong-rate")
        csv = (out / "strong_rate.csv").read_text().splitlines()
        assert csv[0] == "resolution_m,resolution_h,error,stderr,samples"
        assert len(csv) == 4
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "strong_rate"
        assert len(summary["errors"]) == 3
        assert summary["metadata"]["sampler"] == "philox4x64-10/inverse-cdf"

    def test_reruns_are_byte_identical(self, tmp_path):
        doc = doc_file(tmp_path, TINY_STRONG)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["strong-rate", "--config", doc,
                             "--out", str(out)]) == 0
            outs.append(out)
        csv_a = (outs[0] / "strong_rate.csv").read_bytes()
        csv_b = (outs[1] / "strong_rate.csv").read_bytes()
        assert csv_a == csv_b
        sums = []
        for out in outs:
            s = json.loads((out / "summary.json").read_text())
            s["metadata"].pop("wall_time_s")
            sums.append(s)
        assert sums[0] == sums[1]

    def test_seed_override_changes_results(self, tmp_path):
        doc = doc_file(tmp_path, TINY_STRONG)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert cli.main(["strong-rate", "--config", doc, "--out", str(out1)]) == 0
        assert cli.main(["strong-rate", "--config", doc, "--out", str(out2),
                         "--seed", "999"]) == 0
        s1 = json.loads((out1 / "summary.json").read_text())
        s2 = json.loads((out2 / "summary.json").read_text())
        assert s1["errors"] != s2["errors"]
        assert s2["metadata"]["seed"] == 999

    def test_samples_override(self, tmp_path):
        out = self.run_tiny(tmp_path, "strong-rate", ("--samples", "4"))
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metadata"]["samples"] == 4

    def test_taming_check_table(self, tmp_path):
        out = tmp_path / "out"
        doc = {"problem": TINY_STRONG["problem"], "noise": {"s": 0.5005},
               "study": {"kind": "taming_check", "T": 1.0,
                         "grid": [[4, 4]], "u_max": 5.0, "u_step": 0.5}}
        rc = cli.main(["taming-check", "--config", doc_file(tmp_path, doc),
                       "--out", str(out)])
        assert rc == 0
        csv = (out / "taming_check.csv").read_text().splitlines()
        assert "sign_ok" in csv[0] and "penalty_margin" in csv[0]
        assert len(csv) == 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rows"][0]["ok"] is True

    def test_spectrum_check_table(self, tmp_path):
        out = tmp_path / "out"
        doc = {"problem": {"L": 1.0, "drift_coeffs": None, "initial": "zero"},
               "study": {"kind": "spectrum_check", "T": 1.0,
                         "grid": [[0, 3], [0, 5]]}}
        rc = cli.main(["spectrum-check", "--config", doc_file(tmp_path, doc),
                       "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "summary.json").read_text())["rows"]
        assert all(r["ok"] for r in rows)
        assert rows[0]["n_interior"] == 7
        assert all(r["max_rel_residual"] < 1e-12 for r in rows)

    def test_spectrum_check_catches_wrong_eigenvalues(self, tmp_path, monkeypatch):
        # a 1e-6 relative error keeps every eigenvalue bound, so only the
        # residual against the assembled operators can see it
        exact = fem1d.uniform_mesh_eigenvalue
        monkeypatch.setattr(fem1d, "uniform_mesh_eigenvalue",
                            lambda mesh, j: exact(mesh, j) * (1.0 + 1e-6))
        out = tmp_path / "out"
        doc = {"problem": {"L": 1.0, "drift_coeffs": None, "initial": "zero"},
               "study": {"kind": "spectrum_check", "T": 1.0,
                         "grid": [[0, 3], [0, 5]]}}
        cli.main(["spectrum-check", "--config", doc_file(tmp_path, doc),
                  "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"] is False
        assert all(r["max_rel_residual"] > 1e-7 for r in summary["rows"])

    def test_smoothing_csv_layout(self, tmp_path):
        out = tmp_path / "out"
        doc = {"problem": {"L": 1.0, "drift_coeffs": None, "initial": "zero"},
               "noise": None,
               "study": {"kind": "smoothing", "T": 2.0,
                         "grid": [[3, 5], [4, 5], [5, 5]],
                         "times": [1.0, 2.0], "p": 2.0, "seed": 1}}
        rc = cli.main(["smoothing", "--config", doc_file(tmp_path, doc),
                       "--out", str(out)])
        assert rc == 0
        csv = (out / "smoothing.csv").read_text().splitlines()
        assert csv[0] == "resolution_m,resolution_h,t,p,error"
        assert len(csv) == 7
        summary = json.loads((out / "summary.json").read_text())
        assert "fitted_order" in summary and "decay_ok" in summary
