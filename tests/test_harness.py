"""Monte Carlo study drivers: estimators, determinism, reporting."""

import dataclasses
import functools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from spdefem import cli, fem1d, harness, noise, scheme
from spdefem.drift import DriftPolynomial, TamingParams
from spdefem.errors import CapacityError, InvalidArgumentError, NumericalBlowupError
from spdefem.harness import Resolution, StudyConfig

from stepping import recorded_run

CUBIC = DriftPolynomial(q=2, coeffs=(0.0, 1.0, 0.0, -1.0))
TAMING = TamingParams(alpha=0.25, theta=1.0, rho=2.0, beta1=1.0, beta2=1.0)


def strong_cfg(samples=8, workers=1, seed=13):
    return StudyConfig(
        kind="strong_rate", L=1.0, drift=CUBIC, taming=TAMING,
        initial_modes=None, s=0.5005, K=None,
        grid=(Resolution(4, 3), Resolution(5, 3), Resolution(6, 3)),
        reference=Resolution(9, 3), T=0.5, samples=samples, seed=seed,
        workers=workers)


def weak_cfg(crn, samples=32):
    return StudyConfig(
        kind="weak_rate", L=1.0, drift=CUBIC, taming=TAMING,
        initial_modes=None, s=0.5005, K=None,
        grid=(Resolution(3, 3), Resolution(4, 3), Resolution(5, 3)),
        reference=Resolution(9, 3), T=0.5, samples=samples, seed=7,
        crn_tapes=crn)


def equilibrate_cfg():
    return StudyConfig(
        kind="equilibrate", L=1.0, drift=CUBIC, taming=TAMING,
        initial_modes=None, s=0.5005, K=None,
        grid=(Resolution(6, 4),), reference=None, T=4.0,
        samples=48, seed=3, stride=4,
        initials=(None, ((1, 2.0),), ((1, -2.0),)))


def moment_cfg():
    return StudyConfig(
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
        with pytest.raises(InvalidArgumentError, match="study.reference"):
            dataclasses.replace(strong_cfg(), grid=(
                Resolution(4, 3), Resolution(5, 3), Resolution(6, 3)),
                reference=Resolution(9, 2))   # coarser in h than the grid

    def test_reference_equal_everywhere_rejected(self):
        # equal to the finest grid entry: that entry's error would be 0
        with pytest.raises(InvalidArgumentError, match="study.reference"):
            dataclasses.replace(strong_cfg(), reference=Resolution(6, 3))

    def test_unknown_observable(self):
        with pytest.raises(InvalidArgumentError, match="study.observable"):
            dataclasses.replace(weak_cfg(crn=True), observable="nope")

    def test_drift_requires_taming(self):
        with pytest.raises(InvalidArgumentError, match="problem.taming"):
            dataclasses.replace(strong_cfg(), taming=None)

    @pytest.mark.parametrize("change,field", [
        ({"seed": -1}, "study.seed"), ({"seed": 2**64}, "study.seed"),
        ({"T": math.inf}, "study.T"), ({"s": math.inf}, "noise.s"),
        ({"window": (math.nan, 1.0)}, "study.window"),
        ({"grid": (Resolution(4, 3), Resolution(5, 3))}, "study.grid"),
        ({"initial_modes": ((1, math.nan),)}, "problem.initial"),
        ({"kind": "taming_check", "drift": None, "taming": None}, "problem.drift_coeffs"),
    ])
    def test_replace_rejects_before_any_step(self, change, field):
        with pytest.raises(InvalidArgumentError, match=field):
            dataclasses.replace(strong_cfg(), **change)

    def test_default_noise_dimension_matches_finest_mesh(self):
        cfg = strong_cfg()
        model = harness.noise_model_for(cfg)
        assert model.K == 2**3 - 1

    @pytest.mark.parametrize("times", [(4.0, 1.0), (1.0, 2.0, 2.0)])
    def test_times_must_increase(self, times):
        with pytest.raises(InvalidArgumentError, match="study.times"):
            StudyConfig(
                kind="smoothing", L=1.0, drift=None, taming=None,
                initial_modes=None, s=None, K=None,
                grid=tuple(Resolution(m, 3) for m in (2, 3, 4)),
                reference=None, T=4.0, samples=1, seed=0, times=times)

    @pytest.mark.parametrize("u_max,u_step", [
        # the next scan past the cap, then scans that would not fit in memory
        ((harness.MAX_SCAN_POINTS + 1) / 2, 1.0), (100.0, 1e-9), (1e300, 1e-300),
        (math.inf, 1.0), (math.nan, 1.0)])
    def test_taming_scan_capped_before_allocation(self, u_max, u_step, monkeypatch):
        cfg = StudyConfig(
            kind="taming_check", L=1.0, drift=CUBIC, taming=TAMING,
            initial_modes=None, s=None, K=None, grid=(Resolution(4, 4),),
            reference=None, T=1.0, samples=1, seed=0)

        # the check comes before the scan is built: arange must not be reached
        def no_arange(*args, **kwargs):
            raise AssertionError("scan allocated")
        monkeypatch.setattr(harness.np, "arange", no_arange)
        with pytest.raises(CapacityError, match="MAX_SCAN_POINTS"):
            harness.taming_check_study(cfg, u_max, u_step)

    def test_mixed_axis_grid_rejected_at_fit(self):
        # a rate is fitted along one axis: the config is refused when built
        with pytest.raises(InvalidArgumentError, match="study.grid"):
            dataclasses.replace(strong_cfg(), grid=(
                Resolution(4, 3), Resolution(5, 4), Resolution(6, 4)),
                reference=Resolution(9, 5))


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
        with pytest.raises(InvalidArgumentError, match="study.reference"):
            dataclasses.replace(strong_cfg(), reference=None)


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
        cfg = StudyConfig(
            kind="strong_rate", L=1.0, drift=CUBIC, taming=TAMING,
            initial_modes=None, s=0.5005, K=None,
            grid=(Resolution(4, 4), Resolution(5, 4), Resolution(6, 4)),
            reference=Resolution(10, 4), T=0.5, samples=64, seed=1)
        legs = [harness.Leg(r, 0, (None,)) for r in (*cfg.grid, cfg.reference)]
        tracemalloc.start()
        try:
            harness._paths_block(cfg, 0, legs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6


class _Boom(Exception):
    pass


class ThreadWatch:
    """The threads started since it was made (through Thread.start)."""

    def __init__(self):
        self.started = []
        self.before = threading.active_count()

    def all_ended(self):
        return (threading.active_count() == self.before
                and not any(t.is_alive() for t in self.started))


@pytest.fixture
def threads(monkeypatch):
    watch = ThreadWatch()
    start = threading.Thread.start

    def counted(thread):
        watch.started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return watch


def strong_legs(cfg):
    return [harness.Leg(r, 0, (None,)) for r in (*cfg.grid, cfg.reference)]


def equilibrate_record(stride):
    """The equilibration's record, phi(x, |x|_M^2) every stride steps."""
    return (stride, functools.partial(harness._observe_phi,
                                      phi=harness.OBSERVABLES["sin_pi4_minus_l2sq"]))


def fill_hook(monkeypatch, on_call):
    """Wrap BlockSampler.fill so that on_call(count, out) sees every filled chunk."""
    calls = []
    fill = noise.BlockSampler.fill

    def hooked(sampler, out):
        calls.append(out.shape[0])
        return on_call(len(calls), fill(sampler, out))

    monkeypatch.setattr(noise.BlockSampler, "fill", hooked)
    return calls


def loads_hook(monkeypatch, on_call):
    """Wrap harness._fill_loads so that on_call(count, out) runs after every
    call, on the load set it assembled.

    Returns the list of the calling threads.
    """
    calls = []
    fill_loads = harness._fill_loads

    def hooked(*args):
        fill_loads(*args)
        calls.append(threading.current_thread())
        on_call(len(calls), args[-1])

    monkeypatch.setattr(harness, "_fill_loads", hooked)
    return calls


def assert_matches_whole_tape_runs(cfg, legs, monkeypatch, threads, budget=2**13):
    """_paths_block on stream 0 against each leg run whole on its coarsening
    of stacked whole tapes: an independent oracle for the load set order.
    A recorded leg's oracle is tests/stepping.py's recorded_run, one step
    at a time.

    Chunking happens only in _paths_block, at a budget of 4 or more chunks.
    Returns the rows of every chunk filled.
    """
    model = harness.noise_model_for(cfg)
    m = max(leg.res.m for leg in legs)
    tapes = np.stack([noise.sample_tape_coeffs(model, cfg.seed, cfg.T, 2**m,
                                               noise.stream_context(0, i))
                      for i in harness._block_range(cfg, 0)], axis=2)
    monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", budget)
    fills = fill_hook(monkeypatch, lambda count, out: out)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)     # hand the GIL over as often as it can go
    try:
        got = harness._paths_block(cfg, 0, legs)
    finally:
        sys.setswitchinterval(interval)
    assert len(fills) >= 4
    assert len(threads.started) == 1       # one helper for the one stream
    assert threads.all_ended()
    fills = list(fills)
    bs = tapes.shape[2]
    for leg, result in zip(legs, got):
        ops = fem1d.assemble_operators(harness._mesh_for(cfg, leg.res))
        tape = noise.coarsen_coeffs(tapes, 2**(m - leg.res.m))
        loads = np.matmul(fem1d.sine_load_matrix(ops.mesh, model.K), tape)
        # start i of the leg is its column group i, run here on its own
        for i, modes in enumerate(leg.starts):
            cols = slice(i * bs, (i + 1) * bs)
            sc = scheme.make_scheme_config(ops, cfg.drift, cfg.taming,
                                           cfg.T / 2**leg.res.m,
                                           harness._initial_vector(cfg, ops, modes))
            if leg.record is None:
                want, _ = scheme.run(sc, tape)
                assert np.array_equal(result[:, cols], want.x)
            else:
                _, rec = recorded_run(sc, loads, *leg.record)
                assert result.shape[0] == 2**leg.res.m // leg.record[0] + 1
                assert np.array_equal(result[:, :, cols], rec)
    return fills


class TestPrefetchedChunks:
    def test_matches_whole_tape_runs(self, monkeypatch, threads):
        # the strong ladder's shape: one mesh, a load set per coarsening factor
        cfg = strong_cfg(samples=8)
        assert_matches_whole_tape_runs(cfg, strong_legs(cfg), monkeypatch, threads)

    def test_meshes_at_one_m_match_whole_tape_runs(self, monkeypatch, threads):
        # the strong rate in space: a load set per mesh, all at factor 1
        cfg = dataclasses.replace(
            strong_cfg(samples=8),
            grid=(Resolution(5, 2), Resolution(5, 3), Resolution(5, 4)),
            reference=Resolution(5, 5))
        assert_matches_whole_tape_runs(cfg, strong_legs(cfg), monkeypatch, threads)

    def test_shared_load_set_matches_whole_tape_runs(self, monkeypatch, threads):
        # the equilibration: three starts are the column groups of one leg, so
        # the helper assembles one load set a chunk, and one stepper of
        # 3 bs columns steps all three through every row of the path
        cfg = dataclasses.replace(equilibrate_cfg(), samples=8)
        legs = [harness.Leg(cfg.grid[0], 0, cfg.initials, equilibrate_record(cfg.stride))]
        sets = []
        calls = loads_hook(monkeypatch, lambda count, out: sets.append(list(out)))
        stepped = []
        step_loads = scheme.Stepper.step_loads

        def counted(stepper, loads):
            stepped.append((stepper.x.shape[1], len(loads)))
            return step_loads(stepper, loads)

        monkeypatch.setattr(scheme.Stepper, "step_loads", counted)
        fills = assert_matches_whole_tape_runs(cfg, legs, monkeypatch, threads)
        assert all(t is not threading.main_thread() for t in calls)
        assert len(calls) == len(fills)
        assert sets == [[(cfg.grid[0].h_exp, 1)]] * len(fills)
        # the oracle steps each start on its own, bs columns wide
        assert sum(rows for width, rows in stepped if width == 3 * 8) == 2**cfg.grid[0].m

    @pytest.mark.parametrize("budget,coarse_rows", [(2**11, 4), (2**10, 2)])
    def test_stride_across_chunks_matches_one_step_runs(self, monkeypatch, threads,
                                                         budget, coarse_rows):
        # a recorded leg whose stride, 3, divides no chunk of 4 rows, and
        # exceeds chunks of 2: its segments cross chunk ends
        cfg = dataclasses.replace(equilibrate_cfg(), samples=8)
        legs = [harness.Leg(cfg.grid[0], 0, cfg.initials, equilibrate_record(3))]
        fills = assert_matches_whole_tape_runs(cfg, legs, monkeypatch, threads, budget)
        assert set(fills) == {coarse_rows}

    def test_helper_touches_no_stepper(self, monkeypatch, threads):
        # every Stepper method runs on the main thread; the helper only draws,
        # coarsens and assembles
        seen = []
        for name in ("__init__", "step_loads", "finish"):
            method = getattr(scheme.Stepper, name)

            def watched(*args, _method=method, **kwargs):
                seen.append(threading.current_thread())
                return _method(*args, **kwargs)

            monkeypatch.setattr(scheme.Stepper, name, watched)
        helper = loads_hook(monkeypatch, lambda count, out: None)
        cfg = strong_cfg(samples=8)
        legs = strong_legs(cfg) + [harness.Leg(Resolution(6, 3), 0, (None,),
                                               equilibrate_record(3))]
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**13)
        harness._paths_block(cfg, 0, legs)
        assert threads.all_ended() and len(threads.started) == 1
        assert len(helper) >= 4 and threading.main_thread() not in helper
        assert seen and all(t is threading.main_thread() for t in seen)

    def test_draw_failure_propagates(self, monkeypatch, threads):
        # the third fill is the third chunk, drawn on the helper while the
        # legs step the second
        cfg, legs = strong_cfg(samples=1), strong_legs(strong_cfg())
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**8)

        def fail_third(count, out):
            if count == 3:
                raise _Boom("third draw")
            return out

        calls = fill_hook(monkeypatch, fail_third)
        # excinfo holds the traceback, so _paths_block's frame stays alive: a
        # helper joined only when it is collected would still run here
        with pytest.raises(_Boom) as excinfo:
            harness._paths_block(cfg, 0, legs)
        assert threads.all_ended()
        assert str(excinfo.value) == "third draw"
        assert len(calls) == 3
        assert len(threads.started) == 1

    def test_load_failure_propagates(self, monkeypatch, threads):
        # four load sets per chunk (factors 32, 16, 8 and 1): the second
        # chunk's loads, assembled while the legs step the first, fail once
        # all four products are made
        cfg, legs = strong_cfg(samples=1), strong_legs(strong_cfg())
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**8)

        def fail_second(count, out):
            assert len(out) == 4
            if count == 2:
                raise _Boom("second load set")

        calls = loads_hook(monkeypatch, fail_second)
        fills = fill_hook(monkeypatch, lambda count, out: out)
        with pytest.raises(_Boom) as excinfo:
            harness._paths_block(cfg, 0, legs)
        assert threads.all_ended()
        assert str(excinfo.value) == "second load set"
        assert len(calls) == 2 and len(fills) == 2
        assert all(t is not threading.main_thread() for t in calls)
        assert len(threads.started) == 1

    def test_blowup_in_middle_chunk_propagates(self, monkeypatch, threads):
        cfg, legs = strong_cfg(samples=1), strong_legs(strong_cfg())
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**8)

        def nan_third(count, out):
            if count == 3:
                out[:] = np.nan
            return out

        calls = fill_hook(monkeypatch, nan_third)
        with pytest.raises(NumericalBlowupError) as excinfo:
            harness._paths_block(cfg, 0, legs)
        assert threads.all_ended()
        # the first leg (32 fine rows a step) blew up on the first step of
        # chunk 3, while chunk 4 was being filled
        assert excinfo.value.step_index == 3
        assert len(calls) == 4
        assert len(threads.started) == 1

    def test_zero_noise_starts_no_thread(self, threads):
        cfg = dataclasses.replace(strong_cfg(samples=8), s=None)
        states = harness._paths_block(cfg, 0, strong_legs(cfg))
        assert threads.started == [] and threads.all_ended()
        assert all(np.array_equal(x, np.zeros((7, 8))) for x in states)


class TestWeakStudy:
    def test_crn_variance_reduction(self):
        paired = harness.weak_rate_study(weak_cfg(crn=True))
        indep = harness.weak_rate_study(weak_cfg(crn=False))
        assert np.all(paired.stderrs < indep.stderrs)

    def test_independent_stderr_is_the_variance_sum(self, monkeypatch):
        # each resolution's mean and the reference's are independent, so the
        # standard error of their difference is sqrt(var_g/n + var_ref/n)
        joined = []
        run_legs = harness._run_legs

        def kept(*args):
            joined.append(run_legs(*args))
            return joined[-1]

        monkeypatch.setattr(harness, "_run_legs", kept)
        rep = harness.weak_rate_study(weak_cfg(crn=False))
        (vals,) = joined
        n = vals.shape[1]
        want = [math.sqrt(v.var(ddof=1) / n + vals[-1].var(ddof=1) / n)
                for v in vals[:-1]]
        np.testing.assert_allclose(rep.stderrs, want, rtol=1e-14, atol=0)

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

    def test_zero_error_flagged_degenerate(self):
        cfg = strong_cfg()
        rep = harness.fit_report(cfg, np.array([0.1, 0.0, 0.05]), np.zeros(3),
                                 {"kind": "x"})
        assert rep.flags == {"degenerate": True, "zero_error": True}
        assert np.isnan(rep.fitted_order) and np.isnan(rep.fit_stderr)
        assert rep.passed is None

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

    def test_starts_share_one_solve_per_step(self):
        # the three starts are column groups of one stepper: a block makes
        # one tridiagonal solve a step, not one per start
        cfg = dataclasses.replace(equilibrate_cfg(), samples=8)
        assert len(cfg.initials) == 3
        solves = []
        solve = fem1d.TriFactor.solve

        def counted(factor, rhs):
            solves.append(rhs.shape)
            return solve(factor, rhs)

        fem1d.TriFactor.solve = counted
        try:
            harness.equilibration_study(cfg)
        finally:
            fem1d.TriFactor.solve = solve
        assert len(solves) == 2 ** cfg.grid[0].m
        assert set(solves) == {(2 ** cfg.grid[0].h_exp - 1, 3 * 8)}

    def test_single_sample_flagged(self):
        cfg = dataclasses.replace(equilibrate_cfg(), samples=1)
        rep = harness.equilibration_study(cfg)
        assert rep.flags.get("insufficient_samples") is True
        assert rep.agreement is None

    def test_contraction_regime_enforced(self):
        # shift the cubic so its one-sided constant tops the first eigenvalue
        steep = DriftPolynomial(q=2, coeffs=(0.0, 40.0, 0.0, -1.0))
        with pytest.raises(InvalidArgumentError, match="contraction regime"):
            dataclasses.replace(equilibrate_cfg(), drift=steep)


class TestMoments:
    def test_series_bounded_and_trends_flat(self):
        rep = harness.moment_study(moment_cfg())
        for name in ("l2_sq", "l4_4", "hgamma_sq"):
            mean, se = rep.series[name]
            assert np.all(np.isfinite(mean)) and np.all(se >= 0)
            assert rep.trends[name]["ok"], (name, rep.trends[name])
        assert rep.trend_window[0] == pytest.approx(8.0)


class TestSmoothingStudy:
    def test_temporal_fit_and_decay(self):
        cfg = StudyConfig(
            kind="smoothing", L=1.0, drift=None, taming=None,
            initial_modes=None, s=None, K=None,
            grid=tuple(Resolution(m, 6) for m in (3, 4, 5, 6)),
            reference=None, T=4.0, samples=1, seed=0,
            times=(1.0, 4.0), p=2.0)
        rep = harness.smoothing_study(cfg)
        assert rep.axis == "tau"
        assert rep.fitted_order > 0.85
        assert rep.decay_ok is True
        assert rep.passed is True
        assert len(rep.samples) == 8    # 4 resolutions x 2 times

    def test_time_not_on_step_grid_rejected(self):
        with pytest.raises(InvalidArgumentError, match="study.times"):
            StudyConfig(
                kind="smoothing", L=1.0, drift=None, taming=None,
                initial_modes=None, s=None, K=None,
                grid=tuple(Resolution(m, 5) for m in (2, 3, 4)),
                reference=None, T=4.0, samples=1, seed=0,
                times=(0.3,), p=2.0)
