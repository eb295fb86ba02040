"""Time stepper: linear algebra, oracle cross-checks, batching, recording."""

import functools
import gc
import weakref

import numpy as np
import pytest

from spdefem import drift, fem1d, harness, noise, scheme
from spdefem.errors import InvalidArgumentError, NumericalBlowupError

from dense_reference import dense_eigenpairs, dense_mass_stiffness, dense_one_step
from stepping import drift_term, one_step, recorded_run

CUBIC = drift.DriftPolynomial(q=2, coeffs=(0.0, 1.0, 0.0, -1.0))
TAMING = drift.TamingParams(alpha=0.25, theta=1.0, rho=2.0, beta1=1.0, beta2=1.0)


def ops_for(h_exp, L=1.0):
    return fem1d.assemble_operators(fem1d.build_mesh(L, 2**h_exp - 1))


def observe_all(ops, x):
    """Every quantity the studies record, then the L^12 norm."""
    return [*harness._observe_moments(ops, x, 0.75),
            *harness._observe_phi(ops, x, harness.OBSERVABLES["sin_pi4_minus_l2sq"]),
            fem1d.lp_norm(ops.mesh, x, 12)]


def loads_of(config, coeffs):
    """The assembled (steps, n, B) noise loads of (steps, K[, B]) path rows."""
    coeffs = np.reshape(coeffs, (*np.shape(coeffs)[:2], -1))
    return np.matmul(fem1d.sine_load_matrix(config.ops.mesh, coeffs.shape[1]), coeffs)


def config_for(h_exp, tau, with_drift=True, initial=None, L=1.0):
    ops = ops_for(h_exp, L)
    if initial is None:
        initial = np.zeros(ops.mesh.n_interior)
    d = CUBIC if with_drift else None
    t = TAMING if with_drift else None
    return scheme.make_scheme_config(ops, d, t, tau, initial)


class TestShiftedOperator:
    def test_frozen_entries(self):
        # h = 1/4, tau = 1/8: main 2h/3 + 2 tau/h, off h/6 - tau/h
        cfg = config_for(2, 0.125, with_drift=False)
        A = scheme.shifted_tridiag(cfg.ops, cfg.tau)
        assert A.main[0] == pytest.approx(1.1666666666666667, rel=1e-15)
        assert A.off[0] == pytest.approx(-0.4583333333333333, rel=1e-15)

    def test_factorization_solves(self):
        cfg = config_for(4, 0.01, with_drift=False)
        A = scheme.shifted_tridiag(cfg.ops, cfg.tau)
        rhs = np.sin(np.arange(A.dim) + 0.3)
        x = scheme.shifted_operator(cfg).solve(rhs)
        assert np.allclose(fem1d.tridiag_matvec(A, x), rhs, atol=1e-13)


class TestConfigValidation:
    def test_tau_must_be_positive(self):
        ops = ops_for(3)
        with pytest.raises(InvalidArgumentError):
            scheme.make_scheme_config(ops, None, None, 0.0, np.zeros(7))

    def test_initial_length_checked(self):
        with pytest.raises(InvalidArgumentError):
            config_for(3, 0.1, initial=np.zeros(5))

    def test_initial_must_be_finite(self):
        bad = np.zeros(7)
        bad[2] = np.inf
        with pytest.raises(InvalidArgumentError):
            config_for(3, 0.1, initial=bad)

    def test_drift_requires_taming(self):
        ops = ops_for(3)
        with pytest.raises(InvalidArgumentError):
            scheme.make_scheme_config(ops, CUBIC, None, 0.1, np.zeros(7))


class TestMassProduct:
    @pytest.mark.parametrize("n", [1, 2, 7, 63])
    def test_heat_step_solves_the_tridiagonal_mass_product(self, n):
        # the step's M x from two scalar diagonals on the padded state is
        # bit for bit fem1d.tridiag_matvec on M's stored diagonals
        rng = np.random.default_rng(n)
        x0 = rng.standard_normal((n, 3))
        ops = fem1d.assemble_operators(fem1d.build_mesh(1.0, n))
        cfg = scheme.make_scheme_config(ops, None, None, 0.01, x0)
        stepper = scheme.Stepper(cfg)
        stepper.step_loads(np.zeros((1, n, 3)))
        want = scheme.shifted_operator(cfg).solve(fem1d.tridiag_matvec(cfg.ops.mass, x0))
        assert np.array_equal(stepper.finish().x, want)

    @pytest.mark.parametrize("diagonal", ["main", "off"])
    def test_non_constant_diagonal_rejected(self, diagonal):
        ops = ops_for(3)
        M = ops.mass
        bent = getattr(M, diagonal).copy()
        bent[-1] *= 1.5
        mass = fem1d.TriDiagSym(M.dim, **{"main": M.main, "off": M.off, diagonal: bent})
        cfg = scheme.make_scheme_config(
            fem1d.FemOperators(mesh=ops.mesh, mass=mass, stiffness=ops.stiffness),
            None, None, 0.01, np.zeros(M.dim))
        with pytest.raises(InvalidArgumentError, match="constant diagonals"):
            scheme.Stepper(cfg)


class TestSingleStepOracle:
    def test_matches_dense_reference(self):
        rng = np.random.default_rng(77)
        for trial in range(25):
            n = int(rng.integers(1, 9))
            L = float(rng.uniform(0.5, 3.0))
            tau = float(rng.uniform(0.01, 0.5))
            K = int(rng.integers(1, n + 1))
            x0 = rng.standard_normal(n)
            inc = rng.standard_normal(K) * 0.1
            ops = fem1d.assemble_operators(fem1d.build_mesh(L, n))
            cfg = scheme.make_scheme_config(ops, CUBIC, TAMING, tau, x0)
            load = fem1d.sine_load_matrix(ops.mesh, K) @ inc
            got = one_step(cfg, load)
            expect = dense_one_step(x0, inc, L, tau, (0.0, 1.0, 0.0, -1.0), 2,
                                    0.25, 1.0, 2.0, 1.0, 1.0)
            assert np.allclose(got, expect, rtol=1e-10, atol=1e-13)

    def test_pure_heat_step_matches_dense(self):
        n, L, tau = 7, 1.0, 0.05
        x0 = np.sin(np.linspace(0.1, 2.0, n))
        ops = fem1d.assemble_operators(fem1d.build_mesh(L, n))
        cfg = scheme.make_scheme_config(ops, None, None, tau, x0)
        got = one_step(cfg, np.zeros(n))
        expect = dense_one_step(x0, np.zeros(1), L, tau, None, 2,
                                0.25, 1.0, 2.0, 0.0, 0.0)
        assert np.allclose(got, expect, rtol=1e-12)


QUINTIC = drift.DriftPolynomial(q=3, coeffs=(0.5, 1.0, -0.3, 0.2, 0.1, -1.0))
SQRT_TAMING = drift.TamingParams(alpha=0.5, theta=1.0, rho=2.0, beta1=1.0, beta2=1.0)
PURE_CUBIC = drift.DriftPolynomial(q=2, coeffs=(0.0, 0.0, 0.0, -1.0))
SHIFTED_CUBIC = drift.DriftPolynomial(q=2, coeffs=(0.5, 0.0, 0.0, -1.0))
SPARSE_QUINTIC = drift.DriftPolynomial(q=3, coeffs=(0.0, 1.0, 0.0, 0.0, 0.0, -1.0))


class TestFusedDriftKernel:
    # (drift, taming, the taming path the stepper must pick)
    CASES = {
        "cubic-quartic-root": (CUBIC, TAMING, "_tame_quartic_root"),
        "quintic-general": (QUINTIC, TAMING, "taming_factor"),
        "cubic-alpha-half-general": (CUBIC, SQRT_TAMING, "taming_factor"),
        # 0.0 coefficients, whose Horner additions the kernel skips; CUBIC
        # above is (0, 1, 0, -1)
        "pure-cubic": (PURE_CUBIC, TAMING, "_tame_quartic_root"),
        "shifted-pure-cubic": (SHIFTED_CUBIC, SQRT_TAMING, "taming_factor"),
        "quintic-zero-middle": (SPARSE_QUINTIC, TAMING, "taming_factor"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("n", [1, 2, 63])
    @pytest.mark.parametrize("batch", [None, 5])
    def test_matches_drift_load(self, case, n, batch):
        poly, taming, path = self.CASES[case]
        ops = fem1d.assemble_operators(fem1d.build_mesh(1.0, n))
        rng = np.random.default_rng([n, batch or 0])
        shape = (n,) if batch is None else (n, batch)
        # magnitudes from 1e-3 to 1e3, so the taming factor ranges from ~1 to huge
        x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-3, 3, shape)
        cfg = scheme.make_scheme_config(ops, poly, taming, 0.01, np.zeros(n))
        stepper = scheme.Stepper(cfg, batch)
        assert stepper._tame.func.__name__ == path
        expect = cfg.tau * scheme.drift_load(cfg, x)
        got = drift_term(stepper, x)
        assert got.shape == shape
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()

    def test_reused_work_arrays_match_fresh_ones(self):
        # step_loads() reuses one set of work arrays for all its steps; one
        # load at a time gets fresh ones. Nothing may carry over from step
        # to step.
        m = noise.make_noise_model(0.5005, 4, 1.0)
        cfg = config_for(4, 1.0 / 8, initial=np.sin(np.arange(15.0)))
        tape = np.stack([noise.sample_tape_coeffs(m, 3, 1.0, 8,
                                                  noise.stream_context(0, i))
                         for i in range(3)], axis=2)
        whole = scheme.Stepper(cfg, 3)
        whole.step_loads(loads_of(cfg, tape))
        single = scheme.Stepper(cfg, 3)
        loadmat = fem1d.sine_load_matrix(cfg.ops.mesh, 4)
        for row in tape:
            single.step_loads([loadmat @ row])
        assert np.array_equal(whole.finish().x, single.finish().x)


@pytest.mark.parametrize("n", [7, 31, 63])
@pytest.mark.parametrize("coeffs", [(0.0, 1.0, 0.0, -1.0), (0.0, 2.5, 0.0, -0.7)])
def test_odd_drift_negated_noise_negates_path(n, coeffs):
    # f odd: negating the start and every noise load negates the path bit
    # for bit, the taming (even in u) included
    ops = fem1d.assemble_operators(fem1d.build_mesh(1.0, n))
    rng = np.random.default_rng([n, len(coeffs)])
    x0 = 3.0 * rng.standard_normal(n)
    loads = 0.2 * rng.standard_normal((200, n, 4))
    poly = drift.DriftPolynomial(q=2, coeffs=coeffs)
    states = []
    for sign in (1.0, -1.0):
        cfg = scheme.make_scheme_config(ops, poly, TAMING, 1.0 / 64, sign * x0)
        stepper = scheme.Stepper(cfg, 4)
        stepper.step_loads(sign * loads)
        states.append(stepper.finish().x)
    assert np.any(states[0] != 0) and np.array_equal(states[1], -states[0])


class TestColumnGroups:
    @pytest.mark.parametrize("n", [31, 63])
    @pytest.mark.parametrize("batch", [1, 64])
    def test_starts_match_separate_steppers(self, n, batch):
        # an (n, 3) initial state steps as three column groups of batch
        # columns on one load set, bit for bit as three batch-wide steppers.
        # The recorded norms of a lone column are the exception: fem1d's
        # reductions (einsum, the seminorm's matrix-vector product) sum
        # one column in another order than several, so they agree to
        # round-off there.
        ops = fem1d.assemble_operators(fem1d.build_mesh(1.0, n))
        rng = np.random.default_rng([n, batch])
        starts = rng.standard_normal((n, 3))
        loads = 0.1 * rng.standard_normal((9, n, batch))

        def stepped(initial):
            cfg = scheme.make_scheme_config(ops, CUBIC, TAMING, 1.0 / 64, initial)
            return recorded_run(cfg, loads, 2, observe_all)

        wide, wrec = stepped(starts)
        assert wide.x.shape == (n, 3 * batch)
        assert wrec.shape == (5, 5, 3 * batch)
        for i in range(3):
            cols = slice(i * batch, (i + 1) * batch)
            state, rec = stepped(starts[:, i])
            assert np.array_equal(wide.x[:, cols], state.x)
            got, want = wrec[:, :, cols], rec
            if batch > 1:
                assert np.array_equal(got, want)
            else:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestRunBehaviour:
    def test_heat_decay_monotone(self):
        ops = ops_for(5)
        v = fem1d.project_sine_coeffs(ops, np.array([1.0]))
        cfg = scheme.make_scheme_config(ops, None, None, 0.01, v)
        _, rec = recorded_run(cfg, np.zeros((50, ops.mesh.n_interior, 1)), 1,
                              lambda ops, x: [fem1d.l2_norm_sq_mass(ops, x)])
        assert rec.shape == (51, 1, 1)
        assert np.all(np.diff(rec[:, 0, 0]) < 0)

    def test_zero_noise_needs_step_count(self):
        cfg = config_for(3, 0.1, with_drift=False)
        with pytest.raises(InvalidArgumentError):
            scheme.run(cfg, None)

    def test_zero_noise_keeps_the_initial_columns(self):
        # one zero load drives every column; no batch replicates a 2-D state
        ops = ops_for(3)
        x0 = np.sin(np.outer(np.arange(1.0, 8.0), [1.0, 2.0, 3.0]))
        state, _ = scheme.run(scheme.make_scheme_config(ops, CUBIC, TAMING, 0.1, x0),
                              None, n_steps=4)
        assert state.x.shape == (7, 3)
        for i in range(3):
            cfg = scheme.make_scheme_config(ops, CUBIC, TAMING, 0.1, x0[:, i])
            assert np.array_equal(state.x[:, i], scheme.run(cfg, None, n_steps=4)[0].x)

    def test_blowup_reported_with_location(self):
        # an absurd initial state overflows the cubic before taming bites
        ops = ops_for(3)
        big = np.full(7, 1e200)
        cfg = scheme.make_scheme_config(ops, CUBIC, TAMING, 0.1, big)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericalBlowupError) as exc:
                scheme.run(cfg, None, n_steps=4)
        assert exc.value.step_index == 1

    def test_soft_cap_warns_once(self):
        ops = ops_for(3)
        cfg = scheme.make_scheme_config(ops, None, None, 0.1, np.full(7, 1e7))
        with pytest.warns(RuntimeWarning):
            scheme.run(cfg, None, n_steps=3)

    def test_final_state_time(self):
        cfg = config_for(3, 0.25, with_drift=False)
        state, _ = scheme.run(cfg, None, n_steps=8)
        assert state.m == 8
        assert state.t == pytest.approx(2.0)

    def test_finished_stepper_freed_without_collector(self):
        # a block builds one stepper per leg; a reference cycle would keep
        # each one (and its factorization) alive until the collector runs
        cfg = config_for(4, 0.01)
        gc.disable()
        try:
            stepper = scheme.Stepper(cfg, 3)
            stepper.step_loads(np.zeros((2, 15, 3)))
            ref = weakref.ref(stepper)
            del stepper
            assert ref() is None
        finally:
            gc.enable()


class TestDrivingPathForms:
    def model(self):
        return noise.make_noise_model(0.5005, 4, 1.0)

    def test_coarsened_chunks_match_coarsened_tape(self):
        # _paths_block's coupling: coarsening a fine tape chunk by chunk
        # drives a run exactly as coarsening it whole does
        m = self.model()
        cfg = config_for(3, 1.0 / 8)
        fine = noise.sample_tape_coeffs(m, 5, 1.0, 64)     # 8x finer than tau
        whole, _ = scheme.run(cfg, noise.coarsen_coeffs(fine, 8))
        stepper = scheme.Stepper(cfg)
        for lo in range(0, 64, 16):
            chunk = noise.coarsen_coeffs(fine[lo:lo + 16], 8)
            stepper.step_loads(loads_of(cfg, chunk))
        chunked = stepper.finish()
        assert chunked.m == 8
        assert np.array_equal(chunked.x, whole.x)

    def test_batched_matches_sample_loop(self):
        m = self.model()
        cfg = config_for(3, 1.0 / 16)
        tapes = [noise.sample_tape_coeffs(m, 9, 1.0, 16, noise.stream_context(0, i))
                 for i in range(3)]
        batched, _ = scheme.run(cfg, np.stack(tapes, axis=2))
        for i, tape in enumerate(tapes):
            single, _ = scheme.run(cfg, tape)
            # matmul takes different BLAS paths for 1-D and 2-D operands,
            # so agreement is to round-off, not bitwise
            assert np.allclose(batched.x[:, i], single.x, rtol=1e-12, atol=1e-15)


def observe_moments(gamma):
    """The moment study's observer, the seminorm last."""
    return functools.partial(harness._observe_moments, gamma=gamma)


class TestRecording:
    def test_stride_subsamples_without_perturbing(self):
        m = noise.make_noise_model(0.5005, 4, 1.0)
        cfg = config_for(3, 1.0 / 16)
        tape = noise.sample_tape_coeffs(m, 5, 1.0, 16)
        loads = loads_of(cfg, tape)
        s1, r1 = recorded_run(cfg, loads, 1, observe_all)
        s4, r4 = recorded_run(cfg, loads, 4, observe_all)
        plain, _ = scheme.run(cfg, tape)
        assert np.array_equal(s1.x, s4.x)
        assert np.array_equal(s1.x[:, 0], plain.x)
        assert r1.shape == (17, 5, 1)
        assert np.array_equal(r4, r1[::4])

    def test_chunked_stepper_matches_one_run(self):
        # the harness's recorded leg, in chunks of 5, 3 and 8 rows that cut
        # across the recording stride of 4
        m = noise.make_noise_model(0.5005, 4, 1.0)
        cfg = config_for(3, 1.0 / 16)
        tape = np.stack([noise.sample_tape_coeffs(m, 8, 1.0, 16,
                                                  noise.stream_context(0, i))
                         for i in range(3)], axis=2)
        loads = loads_of(cfg, tape)
        whole, rec = recorded_run(cfg, loads, 4, observe_all)
        stepper = scheme.Stepper(cfg, 3)
        rows = [observe_all(cfg.ops, stepper.x)]
        work = scheme.work_buffer([stepper])
        for lo, hi in ((0, 5), (5, 8), (8, 16)):
            harness._step_recorded(stepper, loads[lo:hi], work, lo, (4, observe_all),
                                   cfg.ops, rows)
        chunked = stepper.finish()
        assert (chunked.m, chunked.t) == (whole.m, whole.t)
        assert np.array_equal(chunked.x, whole.x)
        assert rec.shape == (5, 5, 3)
        assert np.array_equal(np.array(rows), rec)

    def test_recorded_quantities_match_manual(self):
        m = noise.make_noise_model(0.5005, 4, 1.0)
        cfg = config_for(4, 1.0 / 8)
        tape = noise.sample_tape_coeffs(m, 6, 1.0, 8)
        # the moment study's quantities, then the equilibration's
        phi = harness.OBSERVABLES["sin_pi4_minus_l2sq"]
        state, rec = recorded_run(cfg, loads_of(cfg, tape), 1, lambda ops, x: [
            *harness._observe_moments(ops, x, 1.0), *harness._observe_phi(ops, x, phi)])
        x = state.x[:, 0]
        l2sq = fem1d.l2_norm_sq_mass(cfg.ops, x)
        got_l2sq, l4_4, hgamma_sq, got_phi = rec[-1, :, 0]
        assert got_l2sq == pytest.approx(l2sq, rel=1e-14)
        assert l4_4 == pytest.approx(fem1d.lp_norm(cfg.ops.mesh, x, 4) ** 4, rel=1e-14)
        # gamma = 1 seminorm is the stiffness quadratic form
        assert hgamma_sq == pytest.approx(
            x @ fem1d.tridiag_matvec(cfg.ops.stiffness, x), rel=1e-13)
        assert got_phi == pytest.approx(np.sin(np.pi / 4 - l2sq), rel=1e-14)

    def test_gamma_seminorm_uses_spectrum(self):
        # against sum_j lambda_j^gamma <M v, e_j>^2 over the dense eigenpairs
        cfg = config_for(4, 1.0 / 8, with_drift=False)
        n = cfg.ops.mesh.n_interior
        v = np.cos(np.linspace(0.0, 1.0, n))
        lam, vec = dense_eigenpairs(1.0, n)
        Md, _ = dense_mass_stiffness(1.0, n)
        frac = np.sum(lam**0.75 * (vec.T @ Md @ v) ** 2)
        _, rec = recorded_run(scheme.make_scheme_config(cfg.ops, None, None, 1.0 / 8, v),
                              np.zeros((1, n, 1)), 1, observe_moments(0.75))
        assert rec[0, 2, 0] == pytest.approx(frac, rel=1e-12)

    def test_gamma_seminorm_beyond_spectrum_cap(self):
        # a discrete eigenvector at n = 2047: |v|_{H^gamma}^2 = lambda^gamma |v|_M^2,
        # and one implicit heat step scales it by (1 + tau lambda)^-2
        tau = 1.0 / 8
        ops = ops_for(11)
        assert ops.mesh.n_interior > fem1d.SPECTRUM_DIM_CAP
        v = np.sin(3.0 * np.pi * ops.mesh.nodes)
        lam = fem1d.uniform_mesh_eigenvalue(ops.mesh, 3)
        want = lam**0.75 * fem1d.l2_norm_sq_mass(ops, v)
        _, rec = recorded_run(scheme.make_scheme_config(ops, None, None, tau, v),
                              np.zeros((1, ops.mesh.n_interior, 1)), 1,
                              observe_moments(0.75))
        assert rec[0, 2, 0] == pytest.approx(want, rel=1e-12)
        # M + tau S has condition ~ 1e6 here, so the solve keeps about ten digits
        assert rec[1, 2, 0] == pytest.approx(want / (1.0 + tau * lam) ** 2, rel=1e-9)
