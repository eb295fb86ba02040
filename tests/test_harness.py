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

from closed_forms import (drift_free_strong_space_msq, drift_free_strong_time_msq,
                          drift_free_weak_errors, drift_free_weak_value)
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


def strong_space_cfg():
    # a spatial ladder with a gap: h = 2^-4 restricts h = 2^-7 (F = 8), and
    # h = 2^-3 and 2^-2 halve it in turn
    return dataclasses.replace(
        strong_cfg(), grid=(Resolution(5, 2), Resolution(5, 3), Resolution(5, 4)),
        reference=Resolution(5, 7))


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
    "strong_space": (harness.strong_rate_study, strong_space_cfg),
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

    @pytest.mark.parametrize("change", [
        {"K": 1},
        # the default K, the finest mesh's n, is 1 on one-node meshes
        {"grid": tuple(Resolution(m, 1) for m in (4, 5, 6)), "reference": Resolution(9, 1)}])
    def test_one_noise_mode_rejected(self, change):
        # one mode makes the tape rows the innermost axis of the coarsening
        # sums, which numpy would add pairwise, so the chunk rows would
        # change a study's bits
        with pytest.raises(InvalidArgumentError, match="noise.K must be >= 2"):
            dataclasses.replace(strong_cfg(), **change)

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

    @pytest.mark.parametrize("study", ["strong", "strong_space", "weak_crn",
                                       "weak_independent", "equilibrate", "longtime"])
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

    @pytest.mark.parametrize("s", [0.5005, 0.0])
    def test_drift_free_space_errors_match_exact_law(self, s):
        # sampler, coupling, product, restriction and reduction together: the
        # mean squares of h = 2^-3..2^-5 against 2^-6 lie within 4 standard
        # errors of their exact values (seed fixed before any run)
        cfg = StudyConfig(
            kind="strong_rate", L=1.0, drift=None, taming=None,
            initial_modes=None, s=s, K=None,
            grid=(Resolution(5, 3), Resolution(5, 4), Resolution(5, 5)),
            reference=Resolution(5, 6), T=0.5, samples=512, seed=8)
        rep = harness.strong_rate_study(cfg)
        mean2 = rep.errors**2
        se_mean2 = 2.0 * rep.errors * rep.stderrs
        z = (mean2 - drift_free_strong_space_msq(cfg)) / se_mean2
        assert np.all(np.abs(z) <= 4.0), z

    @pytest.mark.parametrize("s", [0.5005, 0.0])
    def test_drift_free_time_errors_match_exact_law(self, s, monkeypatch):
        # sampler, coupling, product and reduction together: the mean
        # squares of tau = 2^-3..2^-5 against 2^-9 at n = 15 lie within 4
        # standard errors of their exact values (seed fixed before any run).
        # Chunks of 16 rows, so factors 32 and 64 step on running sums
        cfg = StudyConfig(
            kind="strong_rate", L=1.0, drift=None, taming=None,
            initial_modes=None, s=s, K=None,
            grid=(Resolution(3, 4), Resolution(4, 4), Resolution(5, 4)),
            reference=Resolution(9, 4), T=1.0, samples=1024, seed=21)
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**16)
        distinct = [(4, 64), (4, 32), (4, 16), (4, 1)]
        assert harness._stream_plan(2**9, 15, distinct)[0] == 16
        rep = harness.strong_rate_study(cfg)
        mean2 = rep.errors**2
        se_mean2 = 2.0 * rep.errors * rep.stderrs
        z = (mean2 - drift_free_strong_time_msq(cfg)) / se_mean2
        assert np.all(np.abs(z) <= 4.0), z

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
    @pytest.mark.parametrize("study", ["strong", "strong_space", "weak_crn",
                                       "weak_independent", "equilibrate", "longtime"])
    def test_chunk_size_never_changes_results(self, study, tmp_path, monkeypatch):
        run, make_cfg = MC_STUDIES[study]
        cfg = dataclasses.replace(make_cfg(), samples=130)
        outputs = []
        for budget in (noise.MAX_TAPE_FLOATS, 1):
            # a budget of one float gives chunks of one row, so every factor
            # above 1 runs on running sums across chunks
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

    def test_spatial_block_restricts_in_place(self, monkeypatch):
        # four meshes at one m and factor 1: the three coarse load sets are
        # restricted into their own buffers, so the block holds its stream,
        # one sine load matrix and the work buffer, and less than 1 MB else.
        # One restricted chunk at n = 127 alone would be 2.1 MB
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**22)
        cfg = StudyConfig(
            kind="strong_rate", L=1.0, drift=None, taming=None,
            initial_modes=None, s=0.5005, K=None,
            grid=(Resolution(6, 5), Resolution(6, 6), Resolution(6, 7)),
            reference=Resolution(6, 8), T=0.5, samples=64, seed=1)
        legs = [harness.Leg(r, 0, (None,)) for r in (*cfg.grid, cfg.reference)]
        rows, tape, sums, sets = harness._stream_plan(
            2**6, 255, [(h, 1) for h in (8, 7, 6, 5)])
        assert rows == 32 and not sums
        stream = math.prod(tape) + sum(math.prod(shape) for st in sets
                                       for shape in st.values())
        held = stream + 255 * 255 + scheme._work_layout(255, 64, False)[1]
        tracemalloc.start()
        try:
            harness._paths_block(cfg, 0, legs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * held + 1e6

    def test_one_sine_load_matrix_per_factor(self, monkeypatch):
        # the fine_mesh benchmark's shape, h = 2^-5..2^-9 at one m: only the
        # finest mesh takes a product
        calls = []
        sine_load_matrix = fem1d.sine_load_matrix

        def spy(mesh, K):
            calls.append((mesh.n_interior, K))
            return sine_load_matrix(mesh, K)

        monkeypatch.setattr(fem1d, "sine_load_matrix", spy)
        cfg = dataclasses.replace(
            strong_cfg(samples=2),
            grid=(Resolution(2, 5), Resolution(2, 6), Resolution(2, 7), Resolution(2, 8)),
            reference=Resolution(2, 9))
        harness._paths_block(cfg, 0, strong_legs(cfg))
        assert calls == [(511, 511)]


class _Legs(Exception):
    pass


def study_legs(run, cfg, monkeypatch):
    """The legs that study function run hands to harness._run_legs for cfg."""
    def legs_of(cfg, legs, per_sample):
        raise _Legs(legs)

    with monkeypatch.context() as patch, pytest.raises(_Legs) as caught:
        patch.setattr(harness, "_run_legs", legs_of)
        run(cfg)
    return caught.value.args[0]


# each study at n = 63 (up to n = 255 for the spatial ladder, n = 15 for
# the moments), where the load product, the norms or both used to depend
# on the width
WIDTH_STUDIES = {
    "strong": (harness.strong_rate_study, lambda: dataclasses.replace(
        strong_cfg(), grid=(Resolution(3, 6), Resolution(4, 6), Resolution(5, 6)),
        reference=Resolution(7, 6))),
    "weak_crn": (harness.weak_rate_study, lambda: dataclasses.replace(
        weak_cfg(crn=True), grid=(Resolution(3, 6), Resolution(4, 6), Resolution(5, 6)),
        reference=Resolution(7, 6))),
    "strong_space": (harness.strong_rate_study, lambda: dataclasses.replace(
        strong_space_cfg(), reference=Resolution(5, 8))),
    "equilibrate": (harness.equilibration_study, lambda: dataclasses.replace(
        equilibrate_cfg(), grid=(Resolution(6, 6),))),
    "longtime": (harness.moment_study, lambda: dataclasses.replace(
        moment_cfg(), s=0.3)),
}


class TestBlockWidth:
    @pytest.mark.parametrize("study", list(WIDTH_STUDIES))
    def test_tail_block_matches_the_same_samples_in_a_full_block(self, study,
                                                                 monkeypatch):
        # a sample's final states and records are bit for bit the same in
        # a tail block of w samples as in a full block: block 1 of 64 + w
        # samples against the first w samples of block 1 of 128. Each start
        # of a leg is its own column group, bs columns wide
        run, make_cfg = WIDTH_STUDIES[study]
        cfg = make_cfg()
        legs = tuple(study_legs(run, cfg, monkeypatch))
        full = harness._paths_block(dataclasses.replace(cfg, samples=128), 1, legs)
        differs = set()
        for w in (1, 2, 3, 5, 7, 9, 16, 17, 63):
            tail = harness._paths_block(dataclasses.replace(cfg, samples=64 + w), 1, legs)
            for leg, got, want in zip(legs, tail, full):
                for i in range(len(leg.starts)):
                    if not np.array_equal(got[..., i * w:(i + 1) * w],
                                          want[..., i * 64:i * 64 + w]):
                        differs.add(w)
        assert sorted(differs) == []


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
    """Wrap BlockSampler.fill so that on_call(count, out) sees every filled
    chunk; returns the list of their rows."""
    calls = []
    fill = noise.BlockSampler.fill

    def hooked(sampler, out):
        calls.append(out.shape[1])
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
        loads = fill_loads(*args)
        calls.append(threading.current_thread())
        on_call(len(calls), args[-1])
        return loads

    monkeypatch.setattr(harness, "_fill_loads", hooked)
    return calls


def assert_matches_whole_tape_runs(cfg, legs, monkeypatch, threads, budget=2**16):
    """_paths_block on stream 0 against each leg run whole on its coarsening
    of stacked whole tapes: an independent oracle for the load set order.
    The tapes lie as the driver lays them, BLOCK streams stream-major with
    the streams past the block's zero, so each product is read the same
    way. A leg on the finest mesh of its factor steps on the first bs
    columns of the product of its sine load matrix; a coarser one on the
    next finer mesh's loads of that factor restricted whole, which lie
    within 1e-12 of its own product. A recorded leg's oracle is
    tests/stepping.py's recorded_run, one step at a time.

    Chunking happens only in _paths_block, at a budget of 4 or more chunks.
    Returns the rows of every chunk filled.
    """
    model = harness.noise_model_for(cfg)
    m = max(leg.res.m for leg in legs)
    block = harness._block_range(cfg, 0)
    stacked = np.zeros((harness.BLOCK, 2**m, model.K))
    for i in block:
        stacked[i] = noise.sample_tape_coeffs(model, cfg.seed, cfg.T, 2**m,
                                              noise.stream_context(0, i))
    tapes = stacked.transpose(1, 2, 0)
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
    bs = len(block)
    loads = {}
    for h, f in sorted({(leg.res.h_exp, 2**(m - leg.res.m)) for leg in legs},
                       key=lambda key: (key[1], -key[0])):
        mesh = fem1d.build_mesh(cfg.L, 2**h - 1)
        product = np.matmul(fem1d.sine_load_matrix(mesh, model.K),
                            noise.coarsen_coeffs(tapes, f))[..., :bs]
        finer = [g for g, e in loads if e == f]
        if finer:
            restricted = fem1d.restrict(mesh, fem1d.build_mesh(cfg.L, 2**finer[-1] - 1),
                                        np.moveaxis(loads[(finer[-1], f)], 1, 0))
            loads[(h, f)] = np.moveaxis(restricted, 0, 1)
            assert np.abs(loads[(h, f)] - product).max() <= 1e-12 * np.abs(product).max()
        else:
            loads[(h, f)] = product
    for leg, result in zip(legs, got):
        ops = fem1d.assemble_operators(harness._mesh_for(cfg, leg.res))
        leg_loads = loads[(leg.res.h_exp, 2**(m - leg.res.m))]
        # start i of the leg is its column group i, run here on its own
        for i, modes in enumerate(leg.starts):
            cols = slice(i * bs, (i + 1) * bs)
            sc = scheme.make_scheme_config(ops, cfg.drift, cfg.taming,
                                           cfg.T / 2**leg.res.m,
                                           harness._initial_vector(cfg, ops, modes))
            if leg.record is None:
                stepper = scheme.Stepper(sc, bs)
                stepper.step_loads(leg_loads)
                assert np.array_equal(result[:, cols], stepper.finish().x)
            else:
                _, rec = recorded_run(sc, leg_loads, *leg.record)
                assert result.shape[0] == 2**leg.res.m // leg.record[0] + 1
                assert np.array_equal(result[:, :, cols], rec)
    return fills


class TestPrefetchedChunks:
    def test_matches_whole_tape_runs(self, monkeypatch, threads):
        # the strong ladder's shape: one mesh, a load set per coarsening factor
        cfg = strong_cfg(samples=8)
        assert_matches_whole_tape_runs(cfg, strong_legs(cfg), monkeypatch, threads)

    def test_meshes_at_one_m_match_whole_tape_runs(self, monkeypatch, threads):
        # the strong rate in space: a load set per mesh, all at factor 1, and
        # one product, on the finest mesh: the others restrict it in turn
        cfg = dataclasses.replace(
            strong_cfg(samples=8),
            grid=(Resolution(5, 2), Resolution(5, 3), Resolution(5, 4)),
            reference=Resolution(5, 5))
        assert_matches_whole_tape_runs(cfg, strong_legs(cfg), monkeypatch, threads)

    @pytest.mark.parametrize("samples", [8, 16])
    def test_narrow_block_matches_whole_tape_runs(self, monkeypatch, threads, samples):
        # the strong ladder at n = K = 63 in a block of 8 or 16 samples, the
        # tail widths of weak_trace_class_ci and weak_white_noise, in chunks
        # of 16 and 8 rows: the tail block's products are BLOCK wide, as a
        # full block's are
        cfg = dataclasses.replace(
            strong_cfg(samples=samples),
            grid=(Resolution(4, 6), Resolution(5, 6), Resolution(6, 6)),
            reference=Resolution(9, 6))
        budget = {8: 2**18, 16: 3 * 2**16}[samples]
        assert_matches_whole_tape_runs(cfg, strong_legs(cfg), monkeypatch, threads, budget)

    def test_product_mesh_below_k_matches_whole_tape_runs(self, monkeypatch, threads):
        # a full block whose products run on meshes of n = 7 and 31 with
        # K = 63 modes, in chunks of 4 rows
        cfg = dataclasses.replace(
            strong_cfg(samples=64),
            grid=(Resolution(4, 3), Resolution(4, 4), Resolution(4, 5)),
            reference=Resolution(6, 6))
        legs = [harness.Leg(Resolution(m, h), 0, (None,))
                for m, h in ((6, 3), (5, 5), (4, 6))]
        assert_matches_whole_tape_runs(cfg, legs, monkeypatch, threads, 2**16)

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

        def counted(stepper, loads, *work):
            stepped.append((stepper.x.shape[1], len(loads)))
            return step_loads(stepper, loads, *work)

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
        # exceeds chunks of 2: its segments cross chunk ends. budget counts
        # the block's 8 streams; the plan counts BLOCK of them
        cfg = dataclasses.replace(equilibrate_cfg(), samples=8)
        legs = [harness.Leg(cfg.grid[0], 0, cfg.initials, equilibrate_record(3))]
        fills = assert_matches_whole_tape_runs(cfg, legs, monkeypatch, threads,
                                               budget * harness.BLOCK // cfg.samples)
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
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**16)
        harness._paths_block(cfg, 0, legs)
        assert threads.all_ended() and len(threads.started) == 1
        assert len(helper) >= 4 and threading.main_thread() not in helper
        assert seen and all(t is threading.main_thread() for t in seen)

    def test_draw_failure_propagates(self, monkeypatch, threads):
        # the third fill is the third chunk, drawn on the helper while the
        # legs step the second
        cfg, legs = strong_cfg(samples=1), strong_legs(strong_cfg())
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 3 * 2**12)

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
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 3 * 2**12)

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
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**14)

        def nan_third(count, out):
            if count == 3:
                out[:] = np.nan
            return out

        calls = fill_hook(monkeypatch, nan_third)
        with pytest.raises(NumericalBlowupError) as excinfo:
            harness._paths_block(cfg, 0, legs)
        assert threads.all_ended()
        # in chunks of 8 rows, the first two legs (32 and 16 fine rows a
        # step) take no step in chunk 3; the third (8 rows a step) blew up
        # on its third step, chunk 3's one, while chunk 4 was being filled
        assert excinfo.value.step_index == 3
        assert calls == [8] * 4
        assert len(threads.started) == 1

    def test_coarse_recorded_leg_spans_chunks(self, monkeypatch, threads):
        # a fine unrecorded leg and a coarse recorded one on one stream, in
        # chunks of 8 rows: the coarse factor, 16, spans two chunks, so the
        # recorded leg steps on every other chunk and counts its own steps
        # for the stride. The stride shares a factor with the 2 chunks a
        # step: with an odd one, chunk index k = 2 d + 1 would meet the
        # stride's multiples exactly when the true count d does
        cfg = strong_cfg(samples=8)
        legs = [harness.Leg(Resolution(9, 3), 0, (None,)),
                harness.Leg(Resolution(5, 3), 0, (None,), equilibrate_record(2))]
        fills = assert_matches_whole_tape_runs(cfg, legs, monkeypatch, threads, 2**14)
        assert set(fills) == {8}

    def test_restricted_leg_spans_chunks(self, monkeypatch, threads):
        # a restricted load set at a factor above the chunk: in chunks of 8
        # rows, factor 16 has one load every other chunk and none between,
        # and the recorded leg at n = 3 restricts the n = 7 leg's load
        cfg = strong_cfg(samples=8)
        legs = [harness.Leg(Resolution(9, 3), 0, (None,)),
                harness.Leg(Resolution(5, 3), 0, (None,)),
                harness.Leg(Resolution(5, 2), 0, (None,), equilibrate_record(2))]
        fills = assert_matches_whole_tape_runs(cfg, legs, monkeypatch, threads, 2**14)
        assert set(fills) == {8}

    def test_fill_gets_exactly_the_planned_buffers(self, monkeypatch):
        # _fill_loads fills the tape, the running sums and the two load sets
        # of the shapes _stream_plan counted, and no others, all BLOCK wide
        # in a one-sample block; it draws the one stream and leaves the
        # others zero. In chunks of 8 rows, factors 16 and 32 keep running
        # sums
        plans, filled = [], []
        stream_plan, fill_loads = harness._stream_plan, harness._fill_loads

        def planned(*args):
            plans.append(stream_plan(*args))
            return plans[-1]

        def seen(sampler, tape, rows, bs, sums, *rest):
            filled.append((tape, rows, bs, sums, rest[-1]))
            return fill_loads(sampler, tape, rows, bs, sums, *rest)

        monkeypatch.setattr(harness, "_stream_plan", planned)
        monkeypatch.setattr(harness, "_fill_loads", seen)
        cfg = strong_cfg(samples=1)
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**14)
        harness._paths_block(cfg, 0, strong_legs(cfg))
        (rows, tape, sums, sets), = plans
        assert rows == 8 and set(sums) == {16, 32} and len(filled) == 2**9 // rows
        assert tape == (harness.BLOCK, 1 + rows, 7)
        tapes, chunk_rows, widths, running, outs = zip(*filled)
        # one tape buffer and one sum per factor throughout, two load sets
        # in turn
        assert all(t is tapes[0] for t in tapes) and tapes[0].shape == tape
        assert set(chunk_rows) == {rows} and set(widths) == {1}
        assert np.any(tapes[0][0] != 0) and not np.any(tapes[0][1:])
        assert all(r is running[0] for r in running)
        assert {f: a.shape for f, a in running[0].items()} == sums
        assert outs[0] is not outs[1]
        for k, out in enumerate(outs):
            assert out is outs[k % 2]
            assert {key: a.shape for key, a in out.items()} == sets[k % 2]
            assert all(a.shape[-1] == harness.BLOCK for a in out.values())

    def test_zero_noise_starts_no_thread(self, threads):
        cfg = dataclasses.replace(strong_cfg(samples=8), s=None)
        states = harness._paths_block(cfg, 0, strong_legs(cfg))
        assert threads.started == [] and threads.all_ended()
        assert all(np.array_equal(x, np.zeros((7, 8))) for x in states)


class TestRunningSums:
    @pytest.mark.parametrize("f", [2, 8, 128])
    def test_match_coarsen_coeffs(self, f):
        # bit-equal only because numpy adds the rows of a group one at a
        # time, in order, from a copy of the first, both in the reshape-sum
        # of the whole time-major tape and in the one sum along the rows of
        # a stream-major chunk (K innermost): pinned here, as another
        # reduction order would break the coupling silently
        whole = np.random.default_rng(f).standard_normal((1024, 63, 64))
        want = noise.coarsen_coeffs(whole, f)
        tape = np.ascontiguousarray(whole.transpose(2, 0, 1))     # stream-major
        for rows in (1, f // 2):
            # the plan's buffer: a spare leading row, then the chunk's rows
            buf, acc = np.empty((64, 1 + rows, 63)), np.empty((64, 63))
            got = []
            for k, lo in enumerate(range(0, 1024, rows)):
                buf[:, 1:] = tape[:, lo:lo + rows]
                got.append(harness._coarsen_chunk(buf, rows, f, k, acc).copy())
            # a group ends, and gives its one row, every f / rows chunks
            assert [len(c) for c in got] == [int((k + 1) % (f // rows) == 0)
                                             for k in range(1024 // rows)]
            assert np.array_equal(np.concatenate(got), want)

    @pytest.mark.parametrize("n", [15, 63, 511])
    @pytest.mark.parametrize("bs", [1, 64])
    def test_load_product_reads_stream_major_rows_as_they_lie(self, n, bs):
        # the chunk's transposed view (factor 1), its coarsening and a
        # running sum's view are operands BLAS reads transposed, with no
        # copy: for one sample or a full block each product is bit for bit
        # that of a time-major copy
        rows = 8
        loadmat = fem1d.sine_load_matrix(fem1d.build_mesh(1.0, n), n)
        tape = np.random.default_rng([n, bs]).standard_normal((bs, 1 + rows, n))
        chunk = tape[:, 1:].transpose(1, 2, 0)
        for coarse in (chunk, noise.coarsen_coeffs(chunk, 4), tape[:, 0].T[None]):
            want = np.matmul(loadmat, np.ascontiguousarray(coarse))
            assert np.array_equal(np.matmul(loadmat, coarse), want)

    @pytest.mark.parametrize("n,bs", [(31, 3), (63, 8), (511, 3), (63, 64), (511, 64)])
    def test_load_product_ignores_the_chunk_rows(self, n, bs):
        # at some widths BLAS sums a transposed operand in another order
        # than a time-major copy, but never by where the rows lie: a row's
        # product is the same from a running sum's (bs, K) view and from
        # chunks of 1, 2 or 8 rows, with or without the spare row, at tail
        # widths and at BLOCK, the width of every block's products
        loadmat = fem1d.sine_load_matrix(fem1d.build_mesh(1.0, n), n)
        row = np.random.default_rng([n, bs]).standard_normal((bs, n))
        want = np.matmul(loadmat, row.T[None])        # as a running sum
        for rows, spare in ((1, 0), (2, 1), (8, 0), (8, 1)):
            tape = np.zeros((bs, spare + rows, n))
            tape[:, -1] = row
            assert np.array_equal(np.matmul(loadmat, tape[:, spare:].transpose(1, 2, 0))[-1],
                                  want[0])

    def test_legs_of_three_shapes_share_the_work_buffer(self, monkeypatch):
        # n = 7, 31 and 63 step in turn in one buffer, each where the others'
        # pad boundary rows lie, chunk after chunk; each gets bit for bit
        # the result of stepping alone, in a buffer of its own size. Each
        # leg is the finest mesh of its own factor (1, 2 and 4), so it steps
        # on a product, not a restriction, and alone beside a leg at n = 1
        # that keeps the stream's tape at m = 6 it steps on the same one
        cfg = dataclasses.replace(
            strong_cfg(samples=8), initial_modes=((1, 2.0), (3, -0.5)),
            grid=(Resolution(5, 3), Resolution(5, 4), Resolution(5, 5)),
            reference=Resolution(6, 6))
        legs = [harness.Leg(Resolution(m, h), 0, (cfg.initial_modes,))
                for m, h in ((6, 3), (5, 5), (4, 6))]
        buffers = []
        step_loads = scheme.Stepper.step_loads

        def watched(stepper, loads, work=None):
            buffers.append(work.ctypes.data)
            return step_loads(stepper, loads, work)

        monkeypatch.setattr(scheme.Stepper, "step_loads", watched)
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**17)
        together = harness._paths_block(cfg, 0, legs)
        assert len(buffers) > 3 * 4 and len(set(buffers)) == 1
        pin = harness.Leg(Resolution(6, 1), 0, (None,))
        for leg, x in zip(legs, together):
            assert np.array_equal(x, harness._paths_block(cfg, 0, [pin, leg])[1])


ODD_DRIFTS = [(0.0, 1.0, 0.0, -1.0), (0.0, 2.5, 0.0, -0.7)]


@pytest.mark.parametrize("n", [7, 31, 63])
@pytest.mark.parametrize("coeffs", ODD_DRIFTS)
def test_odd_drift_negated_noise_negates_block(monkeypatch, n, coeffs):
    # f odd: negating the start and every noise load negates every path bit
    # for bit, through the running sums (chunks of 4 rows, factors 8 to 32),
    # the restrictions to two legs at n = 7 (a gap of F = 8 at n = 63), one
    # at factor 1 and one at factor 32, and the shared work buffer
    h = (n + 1).bit_length() - 1
    cfg = dataclasses.replace(
        strong_cfg(samples=8), drift=DriftPolynomial(q=2, coeffs=coeffs),
        grid=(Resolution(3, h), Resolution(4, h), Resolution(5, h)),
        reference=Resolution(8, h))
    start = ((1, 2.0), (2, -0.7), (5, 0.3))
    legs = [harness.Leg(r, 0, (start,))
            for r in (*cfg.grid, cfg.reference, Resolution(8, 3), Resolution(3, 3))]
    negated = [leg._replace(starts=(tuple((j, -a) for j, a in start),)) for leg in legs]
    distinct = dict.fromkeys([(h, f) for f in (32, 16, 8, 1)] + [(3, 1), (3, 32)])
    monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 22 * n * 64 + 2 * 5 * 7 * 64)
    assert harness._stream_plan(2**8, n, list(distinct))[0] == 4
    plain = harness._paths_block(cfg, 0, legs)
    fill = noise.BlockSampler.fill
    monkeypatch.setattr(noise.BlockSampler, "fill",
                        lambda sampler, out: np.negative(fill(sampler, out), out=out))
    for x, y in zip(plain, harness._paths_block(cfg, 0, negated)):
        assert np.any(x != 0) and np.array_equal(y, -x)


class TestWeakStudy:
    @pytest.mark.parametrize("crn", [True, False])
    def test_drift_free_errors_match_exact_law(self, crn, monkeypatch):
        # sampler, coupling, product and reduction together, at the level of
        # the law: at n = 15 the mean of phi at tau = 2^-2..2^-4 and 2^-7,
        # and the weak errors of the first three against the last, lie
        # within 4 standard errors of their exact values (seed fixed before
        # any run). In chunks of 8 rows, so with common tapes factors 16
        # and 32 step on running sums; independent tapes draw each
        # resolution on a stream of its own
        cfg = StudyConfig(
            kind="weak_rate", L=1.0, drift=None, taming=None,
            initial_modes=None, s=0.5005, K=None,
            grid=(Resolution(2, 4), Resolution(3, 4), Resolution(4, 4)),
            reference=Resolution(7, 4), T=1.0, samples=16384, seed=31,
            crn_tapes=crn)
        monkeypatch.setattr(noise, "MAX_TAPE_FLOATS", 2**15)
        distinct = [(4, 32), (4, 16), (4, 8), (4, 1)]
        assert harness._stream_plan(2**7, 15, distinct)[0] == 8
        joined = []
        run_legs = harness._run_legs

        def kept(*args):
            joined.append(run_legs(*args))
            return joined[-1]

        monkeypatch.setattr(harness, "_run_legs", kept)
        rep = harness.weak_rate_study(cfg)
        z = (rep.errors - drift_free_weak_errors(cfg)) / rep.stderrs
        assert np.all(np.abs(z) <= 4.0), z
        (vals,) = joined
        exact = [drift_free_weak_value(cfg, r) for r in (*cfg.grid, cfg.reference)]
        mean, se = harness._mean_se(vals)
        z = (mean - exact) / se
        assert np.all(np.abs(z) <= 4.0), z

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


def test_mean_se_is_exact_for_a_constant_quantity():
    a = np.array([[0.1, 0.1, 0.1], [0.1, 0.2, 0.4], [np.nan, np.nan, np.nan]])
    mean, se = harness._mean_se(a)
    assert mean[0] == 0.1 and se[0] == 0.0
    # every other entry keeps the plain mean and standard error
    assert mean[1] == a[1].mean() and se[1] == a[1].std(ddof=1) / math.sqrt(3)
    assert np.isnan(mean[2]) and np.isnan(se[2])


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

    def test_common_start_reports_its_exact_value(self):
        # every path starts from the same state, so the t = 0 row is that
        # state's observable with no standard error, not a rounded mean
        cfg = equilibrate_cfg()
        rep = harness.equilibration_study(cfg)
        ops = fem1d.assemble_operators(harness._mesh_for(cfg, cfg.grid[0]))
        for i, modes in enumerate(cfg.initials):
            x0 = harness._initial_vector(cfg, ops, modes)
            want = np.sin(np.pi / 4.0 - fem1d.l2_norm_sq_mass(ops, x0))
            assert rep.means[i, 0] == want and rep.stderrs[i, 0] == 0.0

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
