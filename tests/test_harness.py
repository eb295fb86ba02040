"""Monte Carlo study drivers: estimators, determinism, reporting."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from spdefem import cli, harness, noise
from spdefem.drift import DriftPolynomial, TamingParams
from spdefem.errors import InvalidArgumentError
from spdefem.harness import Resolution, make_study_config

CUBIC = DriftPolynomial(q=2, coeffs=(0.0, 1.0, 0.0, -1.0))
TAMING = TamingParams(alpha=0.25, theta=1.0, rho=2.0, beta1=1.0, beta2=1.0)


def strong_cfg(samples=8, workers=1, seed=13):
    return make_study_config(
        kind="strong_rate", L=1.0, drift=CUBIC, taming=TAMING,
        initial_modes=None, s=0.5005, K=None,
        grid=(Resolution(4, 3), Resolution(5, 3), Resolution(6, 3)),
        reference=Resolution(9, 3), T=0.5, samples=samples, seed=seed,
        workers=workers)


def weak_cfg(crn, samples=32):
    return make_study_config(
        kind="weak_rate", L=1.0, drift=CUBIC, taming=TAMING,
        initial_modes=None, s=0.5005, K=None,
        grid=(Resolution(3, 3), Resolution(4, 3), Resolution(5, 3)),
        reference=Resolution(9, 3), T=0.5, samples=samples, seed=7,
        crn_tapes=crn)


def equilibrate_cfg():
    return make_study_config(
        kind="equilibrate", L=1.0, drift=CUBIC, taming=TAMING,
        initial_modes=None, s=0.5005, K=None,
        grid=(Resolution(6, 4),), reference=None, T=4.0,
        samples=48, seed=3, stride=4,
        initials=(None, ((1, 2.0),), ((1, -2.0),)))


def moment_cfg():
    return make_study_config(
        kind="longtime", L=1.0, drift=CUBIC, taming=TAMING,
        initial_modes=((1, 2.0),), s=0.5005, K=None,
        grid=(Resolution(7, 4),), reference=None, T=16.0,
        samples=32, seed=5, stride=16)


# every Monte Carlo study: (study function, config builder)
MC_STUDIES = {
    "strong": (harness.strong_rate_study, strong_cfg),
    "weak_crn": (harness.weak_rate_study, lambda: weak_cfg(crn=True)),
    "weak_independent": (harness.weak_rate_study, lambda: weak_cfg(crn=False)),
    "equilibrate": (harness.equilibration_study, equilibrate_cfg),
    "longtime": (harness.moment_study, moment_cfg),
}


class TestConfigValidation:
    def test_reference_must_dominate_grid(self):
        with pytest.raises(InvalidArgumentError):
            make_study_config(
                kind="strong_rate", L=1.0, drift=None, taming=None,
                initial_modes=None, s=0.5005, K=None,
                grid=(Resolution(4, 3), Resolution(5, 4)),
                reference=Resolution(6, 3),   # coarser in h than part of the grid
                T=0.5, samples=4, seed=0)

    def test_reference_equal_everywhere_rejected(self):
        with pytest.raises(InvalidArgumentError):
            make_study_config(
                kind="strong_rate", L=1.0, drift=None, taming=None,
                initial_modes=None, s=0.5005, K=None,
                grid=(Resolution(4, 3),), reference=Resolution(4, 3),
                T=0.5, samples=4, seed=0)

    def test_unknown_observable(self):
        with pytest.raises(InvalidArgumentError):
            make_study_config(
                kind="weak_rate", L=1.0, drift=None, taming=None,
                initial_modes=None, s=0.5005, K=None,
                grid=(Resolution(4, 3),), reference=Resolution(6, 3),
                T=0.5, samples=4, seed=0, observable="nope")

    def test_drift_requires_taming(self):
        with pytest.raises(InvalidArgumentError):
            make_study_config(
                kind="strong_rate", L=1.0, drift=CUBIC, taming=None,
                initial_modes=None, s=0.5005, K=None,
                grid=(Resolution(4, 3),), reference=Resolution(6, 3),
                T=0.5, samples=4, seed=0)

    def test_default_noise_dimension_matches_finest_mesh(self):
        cfg = strong_cfg()
        model = harness.noise_model_for(cfg)
        assert model.K == 2**3 - 1

    def test_mixed_axis_grid_rejected_at_fit(self):
        cfg = make_study_config(
            kind="strong_rate", L=1.0, drift=None, taming=None,
            initial_modes=None, s=0.5005, K=None,
            grid=(Resolution(4, 3), Resolution(5, 4)),
            reference=Resolution(9, 5), T=0.5, samples=4, seed=0)
        with pytest.raises(InvalidArgumentError):
            harness._fit_axis(cfg)


class TestStrongStudy:
    def test_errors_decrease_and_dominate_noise(self):
        rep = harness.strong_rate_study(strong_cfg(samples=16))
        assert rep.axis == "tau"
        assert np.all(np.diff(rep.errors) < 0)
        assert np.all(rep.errors > 3 * rep.stderrs)
        assert rep.metadata["sampler"] == "philox4x64-10/inverse-cdf"

    @pytest.mark.parametrize("study", ["strong", "weak_crn", "weak_independent",
                                       "equilibrate", "longtime"])
    def test_worker_count_never_changes_results(self, study, tmp_path):
        run, make_cfg = MC_STUDIES[study]
        outputs = []
        for workers in (1, 2):
            # 130 samples = three blocks, unequal tail; must still agree bitwise
            cfg = dataclasses.replace(make_cfg(), samples=130, workers=workers)
            report = run(cfg)
            csv = cli.write_report_csv(report, cfg, tmp_path / str(workers))
            summary = cli.summary_dict(report)
            summary.pop("metadata")
            outputs.append((csv.read_bytes(), summary))
        assert outputs[0] == outputs[1]

    def test_stderr_shrinks_like_root_n(self):
        e1 = harness.strong_rate_study(strong_cfg(samples=64)).stderrs
        e2 = harness.strong_rate_study(strong_cfg(samples=256)).stderrs
        assert np.all(e2 < e1)
        ratio = e1 / e2
        assert np.all(ratio > 1.5) and np.all(ratio < 2.7)

    def test_reference_required(self):
        cfg = strong_cfg()
        cfg = dataclasses.replace(cfg, reference=None)
        with pytest.raises(InvalidArgumentError):
            harness.strong_rate_study(cfg)


class TestStreamedTapes:
    @pytest.mark.parametrize("study", ["strong", "weak_crn", "weak_independent",
                                       "equilibrate", "longtime"])
    def test_chunk_size_never_changes_results(self, study, tmp_path, monkeypatch):
        run, make_cfg = MC_STUDIES[study]
        cfg = dataclasses.replace(make_cfg(), samples=130)
        outputs = []
        for budget in (noise.MAX_TAPE_FLOATS, 1):
            # a budget of one float makes every chunk the largest coarsening factor
            monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", budget)
            report = run(cfg)
            csv = cli.write_report_csv(report, cfg, tmp_path / str(budget))
            summary = cli.summary_dict(report)
            summary.pop("metadata")
            outputs.append((csv.read_bytes(), summary))
        assert outputs[0] == outputs[1]

    def test_block_memory_stays_within_budget(self, monkeypatch):
        # the whole block tape would be 1024 x 15 x 64 floats = 7.9 MB
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**16)
        cfg = make_study_config(
            kind="strong_rate", L=1.0, drift=CUBIC, taming=TAMING,
            initial_modes=None, s=0.5005, K=None,
            grid=(Resolution(4, 4), Resolution(6, 4)),
            reference=Resolution(10, 4), T=0.5, samples=64, seed=1)
        legs = [harness.Leg(r, 0, None) for r in (*cfg.grid, cfg.reference)]
        tracemalloc.start()
        try:
            harness._paths_block(cfg, 0, legs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class TestWeakStudy:
    def test_crn_variance_reduction(self):
        paired = harness.weak_rate_study(weak_cfg(crn=True))
        indep = harness.weak_rate_study(weak_cfg(crn=False))
        assert np.all(paired.stderrs < indep.stderrs)

    def test_constant_observable_flagged(self):
        cfg = weak_cfg(crn=True, samples=8)
        cfg = dataclasses.replace(cfg, observable="l2sq", initial_modes=None,
                                  s=None, drift=None, taming=None)
        # zero initial data and no noise: every trajectory is identically 0
        rep = harness.weak_rate_study(cfg)
        assert rep.flags.get("degenerate") or rep.flags.get("zero_error")
        assert rep.passed is None or rep.passed is False


class TestFitReportHook:
    def test_flat_data_fails_window(self):
        cfg = strong_cfg()
        errors = np.full(3, 0.25)
        rep = harness.fit_report(cfg, errors, np.full(3, 1e-3), {"kind": "x"})
        assert abs(rep.fitted_order) < 1e-12
        assert rep.passed is False

    def test_clean_power_law_passes(self):
        # s = 0.5005 noise has gamma = 1, so the strong window sits at
        # gamma/2: (0.3, 0.7)
        cfg = strong_cfg()
        taus = np.array([harness._tau_for(cfg, r) for r in cfg.grid])
        rep = harness.fit_report(cfg, 2.0 * taus**0.5, np.full(3, 1e-6),
                                 {"kind": "x"})
        assert rep.fitted_order == pytest.approx(0.5, abs=1e-12)
        assert rep.passed is True
        assert rep.window == (0.3, 0.7)

    def test_white_noise_window_is_halved(self):
        cfg = dataclasses.replace(strong_cfg(), s=0.0)
        taus = np.array([harness._tau_for(cfg, r) for r in cfg.grid])
        rep = harness.fit_report(cfg, 0.1 * taus**0.25, np.full(3, 1e-6),
                                 {"kind": "x"})
        assert rep.window == (0.1, 0.4)
        assert rep.passed is True

    def test_degenerate_flag_disables_fit(self):
        cfg = strong_cfg()
        rep = harness.fit_report(cfg, np.zeros(3), np.zeros(3), {"kind": "x"},
                                 flags={"degenerate": True})
        assert np.isnan(rep.fitted_order)
        assert rep.passed is None


class TestEquilibration:
    def test_window_agreement_across_initials(self):
        rep = harness.equilibration_study(equilibrate_cfg())
        assert rep.agreement is True
        assert all(p["ok"] for p in rep.pairwise)
        assert rep.labels == ("zero", "2*sin(1pi x/L)", "-2*sin(1pi x/L)")
        # symmetric initial pair: window means close, zero start in between
        assert rep.window_means[1] == pytest.approx(rep.window_means[2],
                                                    abs=4 * rep.window_stderrs[1])

    def test_identical_initials_give_identical_rows(self):
        cfg = dataclasses.replace(equilibrate_cfg(), samples=8,
                                  initials=(((1, 2.0),), ((1, 2.0),)))
        rep = harness.equilibration_study(cfg)
        assert np.array_equal(rep.means[0], rep.means[1])

    def test_single_sample_flagged(self):
        cfg = dataclasses.replace(equilibrate_cfg(), samples=1)
        rep = harness.equilibration_study(cfg)
        assert rep.flags.get("insufficient_samples") is True
        assert rep.agreement is None

    def test_contraction_regime_enforced(self):
        # shift the cubic so its one-sided constant tops the first eigenvalue
        steep = DriftPolynomial(q=2, coeffs=(0.0, 40.0, 0.0, -1.0))
        cfg = dataclasses.replace(equilibrate_cfg(), drift=steep)
        with pytest.raises(InvalidArgumentError):
            harness.equilibration_study(cfg)


class TestMoments:
    def test_series_bounded_and_trends_flat(self):
        rep = harness.moment_study(moment_cfg())
        for name in ("l2_sq", "l4_4", "hgamma_sq"):
            mean, se = rep.series[name]
            assert np.all(np.isfinite(mean)) and np.all(se >= 0)
            assert rep.trends[name]["ok"], (name, rep.trends[name])
        assert rep.trend_window[0] == pytest.approx(8.0)

    def test_horizon_multiplier_extends_time(self):
        cfg = dataclasses.replace(moment_cfg(), T=4.0, samples=8,
                                  grid=(Resolution(5, 4),))
        rep = harness.moment_study(cfg, horizon_multiplier=2)
        assert rep.times[-1] == pytest.approx(8.0)
        assert rep.metadata["T"] == pytest.approx(8.0)


class TestSmoothingStudy:
    def test_temporal_fit_and_decay(self):
        cfg = make_study_config(
            kind="smoothing", L=1.0, drift=None, taming=None,
            initial_modes=None, s=None, K=None,
            grid=tuple(Resolution(m, 6) for m in (3, 4, 5, 6)),
            reference=None, T=4.0, samples=1, seed=0,
            times=(1.0, 4.0), p=2.0)
        rep = harness.smoothing_study(cfg, rough_modes=63)
        assert rep.axis == "tau"
        assert rep.fitted_order > 0.85
        assert rep.decay_ok is True
        assert rep.passed is True
        assert len(rep.samples) == 8    # 4 resolutions x 2 times

    def test_time_not_on_step_grid_rejected(self):
        cfg = make_study_config(
            kind="smoothing", L=1.0, drift=None, taming=None,
            initial_modes=None, s=None, K=None,
            grid=tuple(Resolution(m, 5) for m in (2, 3, 4)),
            reference=None, T=4.0, samples=1, seed=0,
            times=(0.3,), p=2.0)
        with pytest.raises(InvalidArgumentError):
            harness.smoothing_study(cfg, rough_modes=31)
