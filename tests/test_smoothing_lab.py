"""Deterministic smoothing bench and the shared log-log rate fitter."""

import numpy as np
import pytest

from spdefem import cli, fem1d, harness, smoothing_lab as sl
from spdefem.errors import InvalidArgumentError
from dense_reference import dense_sine_projection, dense_smoothing_error, loop_propagator


def ops_for(h_exp, L=1.0):
    return fem1d.assemble_operators(fem1d.build_mesh(L, 2**h_exp - 1))


class TestSpectralFunctions:
    def test_semigroup_mode_decay(self):
        v = sl.SpectralFunction(L=1.0, coeffs=np.array([1.0, 0.0, 2.0]))
        out = sl.exact_semigroup(v, 1.0)
        assert out.coeffs[0] == pytest.approx(5.1723186203812306e-05, rel=1e-13)
        assert out.coeffs[1] == 0.0
        assert out.coeffs[2] == pytest.approx(2.0 * np.exp(-9 * np.pi**2), rel=1e-12)

    def test_semigroup_rejects_negative_time(self):
        v = sl.SpectralFunction(L=1.0, coeffs=np.array([1.0]))
        with pytest.raises(InvalidArgumentError):
            sl.exact_semigroup(v, -0.1)

    def test_pointwise_values(self):
        v = sl.SpectralFunction(L=2.0, coeffs=np.array([3.0]))
        # sqrt(2/L) sin(pi x / L) at the midpoint
        assert sl.evaluate_spectral(v, 1.0) == pytest.approx(3.0, rel=1e-14)
        got = sl.evaluate_spectral(v, np.array([[0.5, 1.5]]))
        assert got.shape == (1, 2)
        assert got[0, 0] == pytest.approx(3.0 * np.sin(np.pi / 4), rel=1e-14)

    def test_rough_initial_is_unit_and_deterministic(self):
        a = sl.rough_initial(64, seed=5)
        b = sl.rough_initial(64, seed=5)
        assert np.array_equal(a.coeffs, b.coeffs)
        assert np.sqrt(np.sum(a.coeffs**2)) == pytest.approx(1.0, rel=1e-14)
        assert np.allclose(np.abs(a.coeffs), 1.0 / 8.0, rtol=1e-15)
        assert not np.array_equal(a.coeffs, sl.rough_initial(64, seed=6).coeffs)


class TestDiscretePropagator:
    def test_zero_steps_is_projection(self):
        ops = ops_for(4)
        v = sl.SpectralFunction(L=1.0, coeffs=np.array([1.0, 0.5]))
        got = sl.discrete_propagator(ops, 0.1, 0, v)
        assert np.array_equal(got, fem1d.project_sine_coeffs(ops, v.coeffs))

    def test_single_mode_contracts_by_rational_factor(self):
        # on the discrete eigenvector the step multiplies by 1/(1+tau lambda_h)
        ops = ops_for(4)
        spec = fem1d.discrete_spectrum(ops)
        v = spec.modes[:, 0]
        tau = 0.03
        got = sl.discrete_propagator(ops, tau, 2, v)
        factor = 1.0 / (1.0 + tau * spec.lambdas[0]) ** 2
        assert np.allclose(got, factor * v, rtol=1e-12)

    def test_interval_mismatch_rejected(self):
        ops = ops_for(3, L=2.0)
        v = sl.SpectralFunction(L=1.0, coeffs=np.array([1.0]))
        with pytest.raises(InvalidArgumentError):
            sl.discrete_propagator(ops, 0.1, 1, v)

    def test_negative_steps_rejected(self):
        ops = ops_for(3)
        with pytest.raises(InvalidArgumentError):
            sl.discrete_propagator(ops, 0.1, -1, np.zeros(7))

    @pytest.mark.parametrize("spectral", [False, True], ids=["nodal", "spectral"])
    @pytest.mark.parametrize("steps", [1, 5, 200])
    @pytest.mark.parametrize("n", [1, 2, 7, 63])
    def test_matches_step_by_step_solves(self, n, steps, spectral):
        # K = 256 > n: the projection folds the aliased modes onto the mesh
        ops = fem1d.assemble_operators(fem1d.build_mesh(1.0, n))
        rng = np.random.default_rng([12, n])
        tau = 1e-3
        if spectral:
            v = sl.SpectralFunction(L=1.0, coeffs=rng.normal(size=256))
            x = dense_sine_projection(1.0, n, v.coeffs)
        else:
            v = x = rng.normal(size=n)
        got = sl.discrete_propagator(ops, tau, steps, v)
        want = loop_propagator(1.0, n, tau, steps, x)
        assert got.shape == (n,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(x).max()

    def test_batched_columns(self):
        ops = ops_for(4)
        X = np.random.default_rng(13).normal(size=(15, 3))
        got = sl.discrete_propagator(ops, 0.01, 7, X)
        for b in range(3):
            assert np.array_equal(got[:, b], sl.discrete_propagator(ops, 0.01, 7, X[:, b]))


class TestSmoothingError:
    def test_validation(self):
        ops = ops_for(3)
        v = sl.SpectralFunction(L=1.0, coeffs=np.array([1.0]))
        with pytest.raises(InvalidArgumentError):
            sl.smoothing_error(ops, 0.1, 0, 2.0, v)
        with pytest.raises(InvalidArgumentError):
            sl.smoothing_error(ops, 0.1, 1, 1.5, v)
        with pytest.raises(InvalidArgumentError):
            sl.smoothing_error(ops, 0.1, 1, -np.inf, v)

    def test_single_mode_error_matches_closed_form(self):
        # for v = first continuous mode both solutions stay (nearly) on
        # one sine; compare against a direct fine quadrature of the gap
        ops = ops_for(5)
        v = sl.SpectralFunction(L=1.0, coeffs=np.array([1.0]))
        tau, n = 0.01, 10
        sample = sl.smoothing_error(ops, tau, n, 2.0, v)
        xd = sl.discrete_propagator(ops, tau, n, v)
        xs = np.linspace(0.0, 1.0, 20001)
        exact = sl.evaluate_spectral(sl.exact_semigroup(v, n * tau), xs)
        nodes = np.concatenate([[0.0], ops.mesh.nodes, [1.0]])
        vals = np.concatenate([[0.0], xd, [0.0]])
        diff = exact - np.interp(xs, nodes, vals)
        ref = np.sqrt(np.trapezoid(diff**2, xs))
        assert sample.error == pytest.approx(ref, rel=1e-4)

    @pytest.mark.parametrize("p", [2.0, 4.0, 12.0, np.inf])
    @pytest.mark.parametrize("h_exp,tau,steps", [
        (3, 2.0**-12, 4096), (5, 2.0**-12, 4096), (8, 2.0**-12, 4096),
        (6, 2.0**-4, 16), (6, 2.0**-10, 1), (4, 2.0**-10, 64),
    ])
    def test_matches_dense_table(self, h_exp, tau, steps, p):
        ops = ops_for(h_exp)
        v = sl.rough_initial(256, seed=9)
        got = sl.smoothing_error(ops, tau, steps, p, v).error
        assert got == pytest.approx(dense_smoothing_error(ops, tau, steps, p, v), rel=1e-12)

    def test_study_builds_no_sine_table(self):
        # the exact side comes from the folded FFT, never from the dense table
        cfg, _ = cli.parse_document(cli.load_document("smoothing_spatial"))
        calls = []
        dense = sl.evaluate_spectral

        def counted(v, x):
            calls.append(np.shape(x))
            return dense(v, x)

        sl.evaluate_spectral = counted
        try:
            harness.smoothing_study(cfg)
        finally:
            sl.evaluate_spectral = dense
        assert calls == []

    def test_sup_norm_at_least_l2(self):
        ops = ops_for(4)
        v = sl.rough_initial(15, seed=3)
        e2 = sl.smoothing_error(ops, 0.05, 4, 2.0, v).error
        einf = sl.smoothing_error(ops, 0.05, 4, np.inf, v).error
        assert einf >= e2


class TestRateFit:
    def test_exact_power_law_recovered(self):
        taus = np.array([0.1, 0.05, 0.025, 0.0125])
        fit = sl.rate_fit(zip(taus, 3.7 * taus**2))
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)
        assert np.exp(fit.intercept) == pytest.approx(3.7, rel=1e-12)

    def test_stderr_reflects_scatter(self):
        rng = np.random.default_rng(0)
        taus = np.array([0.1, 0.05, 0.025, 0.0125, 0.00625])
        noisy = taus ** 1.5 * np.exp(rng.normal(0.0, 0.1, taus.size))
        fit = sl.rate_fit(zip(taus, noisy))
        assert fit.stderr > 0.01
        assert abs(fit.slope - 1.5) < 4 * fit.stderr + 0.2

    def test_input_validation(self):
        with pytest.raises(InvalidArgumentError):
            sl.rate_fit([(0.1, 1.0), (0.05, 0.5)])
        with pytest.raises(InvalidArgumentError):
            sl.rate_fit([(0.1, 1.0), (0.05, 0.5), (-0.02, 0.2)])
        with pytest.raises(InvalidArgumentError):
            sl.rate_fit([(0.1, 1.0), (0.05, 0.0), (0.025, 0.2)])


class TestBenchBehaviour:
    def test_temporal_refinement_shrinks_error(self):
        # fixed fine mesh, halving tau: rough data, t = 1
        ops = ops_for(7)
        v = sl.rough_initial(127, seed=11)
        errs = [sl.smoothing_error(ops, 2.0**-m, 2**m, 2.0, v).error
                for m in (2, 3, 4, 5)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        fit = sl.rate_fit(zip([2.0**-m for m in (2, 3, 4, 5)], errs))
        assert fit.slope > 0.85

    def test_error_decays_in_time(self):
        ops = ops_for(6)
        v = sl.rough_initial(63, seed=2)
        tau = 2.0**-6
        e1 = sl.smoothing_error(ops, tau, 2**6, 2.0, v).error
        e4 = sl.smoothing_error(ops, tau, 2**8, 2.0, v).error
        assert e4 < e1
