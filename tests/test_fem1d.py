"""Mesh, matrix assembly, tridiagonal algebra, spectrum, norms."""

import numpy as np
import pytest

from spdefem import fem1d
from spdefem.errors import (CapacityError, InvalidArgumentError,
                            SingularMatrixError)
from spdefem.smoothing_lab import SpectralFunction, evaluate_spectral
from dense_reference import (dense_eigenpairs, dense_mass_stiffness,
                             dense_sine_loads, dense_sine_projection,
                             element_quad_points)


def ops_for(L, n):
    return fem1d.assemble_operators(fem1d.build_mesh(L, n))


def full_matrix(A):
    """The full matrix of a symmetric tridiagonal operator."""
    return np.diag(A.main) + np.diag(A.off, 1) + np.diag(A.off, -1)


class TestMesh:
    def test_spacing_and_nodes(self):
        mesh = fem1d.build_mesh(1.0, 7)
        assert mesh.h == 0.125
        assert np.allclose(mesh.nodes, np.arange(1, 8) * 0.125)

    def test_interior_nodes_exclude_boundary(self):
        mesh = fem1d.build_mesh(2.0, 3)
        assert mesh.nodes[0] > 0 and mesh.nodes[-1] < 2.0

    @pytest.mark.parametrize("L,n", [(0.0, 3), (-1.0, 3), (1.0, 0), (1.0, -2)])
    def test_rejects_degenerate_input(self, L, n):
        with pytest.raises(InvalidArgumentError):
            fem1d.build_mesh(L, n)


class TestAssembly:
    def test_mass_entries_h_quarter(self):
        # rows of hats integrated exactly: diag 2h/3, off h/6
        M = fem1d.assemble_mass(fem1d.build_mesh(1.0, 3))
        assert M.main == pytest.approx([1 / 6] * 3, abs=1e-16)
        assert M.off == pytest.approx([1 / 24] * 2, abs=1e-16)

    def test_stiffness_entries_h_quarter(self):
        S = fem1d.assemble_stiffness(fem1d.build_mesh(1.0, 3))
        assert S.main == pytest.approx([8.0] * 3, abs=1e-16)
        assert S.off == pytest.approx([-4.0] * 2, abs=1e-16)

    @pytest.mark.parametrize("L,n", [(1.0, 5), (2.5, 4), (0.5, 9)])
    def test_matches_dense_quadrature_assembly(self, L, n):
        ops = ops_for(L, n)
        Md, Sd = dense_mass_stiffness(L, n)
        assert np.allclose(full_matrix(ops.mass), Md, rtol=1e-13, atol=1e-15)
        assert np.allclose(full_matrix(ops.stiffness), Sd, rtol=1e-13, atol=1e-13)


class TestTridiagonal:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(5)
        A = fem1d.TriDiagSym(dim=6, main=rng.uniform(2, 3, 6), off=rng.uniform(-1, 1, 5))
        x = rng.normal(size=6)
        assert np.allclose(fem1d.tridiag_matvec(A, x), full_matrix(A) @ x)

    def test_matvec_batched(self):
        rng = np.random.default_rng(6)
        A = fem1d.TriDiagSym(dim=4, main=rng.uniform(2, 3, 4), off=rng.uniform(-1, 1, 3))
        X = rng.normal(size=(4, 5))
        cols = np.stack([fem1d.tridiag_matvec(A, X[:, b]) for b in range(5)], axis=1)
        assert np.array_equal(fem1d.tridiag_matvec(A, X), cols)

    def test_solve_unit_example(self):
        A = fem1d.TriDiagSym(dim=3, main=np.array([2.0, 2, 2]), off=np.array([-1.0, -1]))
        x = fem1d.TriFactor(A).solve(np.array([1.0, 0, 1]))
        assert x == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)

    def test_solve_residual_contract(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 17, 64):
            main = rng.uniform(2.0, 4.0, n)
            off = rng.uniform(-0.9, 0.9, max(n - 1, 0))
            A = fem1d.TriDiagSym(dim=n, main=main, off=off)
            rhs = rng.normal(size=n)
            x = fem1d.TriFactor(A).solve(rhs)
            resid = np.abs(fem1d.tridiag_matvec(A, x) - rhs).max()
            anorm = np.abs(main).max() + 2 * (np.abs(off).max() if n > 1 else 0)
            assert resid <= 1e-12 * (anorm * np.abs(x).max() + np.abs(rhs).max())

    def test_indefinite_matrix_rejected(self):
        # second pivot 0.24 - 0.5^2 / 1 = -0.01
        A = fem1d.TriDiagSym(dim=2, main=np.array([1.0, 0.24]), off=np.array([0.5]))
        with pytest.raises(SingularMatrixError, match=r"pivot -0\.0100.* at row 1"):
            fem1d.TriFactor(A)

    def test_nan_pivot_rejected(self):
        A = fem1d.TriDiagSym(dim=3, main=np.array([2.0, np.nan, 2.0]),
                             off=np.array([-1.0, -1.0]))
        with pytest.raises(SingularMatrixError, match="pivot nan at row 1"):
            fem1d.TriFactor(A)

    def test_factor_matches_direct_solve(self):
        for n in (1, 2, 7, 63):
            ops = ops_for(1.0, n)
            A = fem1d.TriDiagSym(dim=n, main=ops.mass.main + 0.5 * ops.stiffness.main,
                                 off=ops.mass.off + 0.5 * ops.stiffness.off)
            rng = np.random.default_rng([8, n])
            rhs = rng.normal(size=(n, 3))
            fac = fem1d.TriFactor(A)
            dense = np.linalg.solve(full_matrix(A), rhs)
            assert fac.solve(rhs).shape == (n, 3)
            assert np.allclose(fac.solve(rhs), dense, rtol=1e-12, atol=1e-14)
            for b in range(3):
                got = fac.solve(rhs[:, b])
                assert got.shape == (n,)
                assert np.allclose(got, dense[:, b], rtol=1e-12, atol=1e-14)

    def test_nan_rhs_propagates(self):
        # the stepper detects a blow-up from its iterates, so a NaN must
        # come back as NaN rather than as an error
        ops = ops_for(1.0, 7)
        fac = fem1d.TriFactor(ops.mass)
        rhs = np.ones((7, 2))
        rhs[3, 1] = np.nan
        x = fac.solve(rhs)
        assert np.all(np.isfinite(x[:, 0]))
        assert np.isnan(x[:, 1]).any()
        assert np.isnan(fac.solve(rhs[:, 1])).any()


class TestProjection:
    def test_member_of_space_is_fixed_point(self):
        # the 4-point load of a P1 function, solved with the mass matrix,
        # returns its own nodal values
        mesh = fem1d.build_mesh(1.0, 9)
        ops = fem1d.assemble_operators(mesh)
        nodal = np.sin(2.5 * mesh.nodes) + mesh.nodes
        xq = element_quad_points(mesh)
        gq = np.interp(xq, np.concatenate([[0], mesh.nodes, [1.0]]),
                       np.concatenate([[0], nodal, [0.0]]))
        got = fem1d.TriFactor(ops.mass).solve(fem1d.quad_load(mesh, gq))
        assert got == pytest.approx(list(nodal), abs=1e-13)

    def test_sine_projection_against_dense_loads(self):
        # sin(pi x) is 1/sqrt(2) times the first orthonormal sine mode
        L, n = 1.0, 3
        ops = ops_for(L, n)
        got = fem1d.project_sine_coeffs(ops, [1.0 / np.sqrt(2.0)])
        Md, _ = dense_mass_stiffness(L, n)
        b = dense_sine_loads(L, n, 1)[:, 0] / np.sqrt(2.0)
        # middle load entry, 64-pt quadrature reference
        assert b[1] == pytest.approx(0.23741030088794590869, abs=1e-15)
        # closed-form loads: the projection is exact up to round-off
        assert got == pytest.approx(list(np.linalg.solve(Md, b)), rel=1e-13)

    @pytest.mark.parametrize("K_of_n", [
        lambda n: 1, lambda n: n, lambda n: n + 1, lambda n: 2 * (n + 1),
        lambda n: 3 * n + 7, lambda n: 256,
    ], ids=["1", "n", "n+1", "2(n+1)", "3n+7", "256"])
    @pytest.mark.parametrize("n", [1, 2, 7, 63])
    def test_projection_matches_dense(self, n, K_of_n):
        # K > n: modes fold onto the mesh, and j = 0, n+1 mod 2(n+1) vanish there
        K = K_of_n(n)
        c = np.random.default_rng([14, n, K]).normal(size=K)
        ops = ops_for(1.0, n)
        got = fem1d.project_sine_coeffs(ops, c)
        want = dense_sine_projection(1.0, n, c)
        assert got.shape == (n,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_sine_load_matrix_closed_form_entry(self):
        B = fem1d.sine_load_matrix(fem1d.build_mesh(1.0, 3), 2)
        assert B[1, 0] == pytest.approx(0.33574886736281035418, abs=1e-16)
        assert B[1, 1] == pytest.approx(0.0, abs=1e-15)  # sin(2 pi x) odd about 1/2

    def test_sine_load_matrix_vs_dense(self):
        for L, n, K in [(1.0, 7, 7), (2.0, 5, 9)]:
            B = fem1d.sine_load_matrix(fem1d.build_mesh(L, n), K)
            assert np.allclose(B, dense_sine_loads(L, n, K), rtol=1e-12, atol=1e-15)

    def test_quadrature_rule_exact_through_degree_7(self):
        # the per-element rule integrates x^7 on [0,1] exactly
        val = float(np.sum(fem1d.QUAD_W * fem1d.QUAD_R ** 7))
        assert val == pytest.approx(1.0 / 8.0, abs=1e-15)


class TestSpectrum:
    def test_first_eigenvalue_closed_form(self):
        ops = ops_for(1.0, 3)
        spec = fem1d.discrete_spectrum(ops)
        assert spec.lambdas[0] == pytest.approx(10.386642005221232278, rel=1e-13)
        assert fem1d.uniform_mesh_eigenvalue(ops.mesh, 1) == pytest.approx(
            10.386642005221232278, rel=1e-15)

    def test_closed_form_tracks_dense_eigensolver(self):
        ops = ops_for(1.0, 31)
        spec = fem1d.discrete_spectrum(ops)
        lam, vec = dense_eigenpairs(1.0, 31)
        assert np.allclose(spec.lambdas, lam, rtol=1e-11)
        # same modes up to sign: an even mode's two largest entries tie
        Md, _ = dense_mass_stiffness(1.0, 31)
        assert np.allclose(np.abs(spec.modes.T @ Md @ vec), np.eye(31), atol=1e-10)

    def test_mass_orthonormal_modes(self):
        ops = ops_for(1.5, 12)
        spec = fem1d.discrete_spectrum(ops)
        Md, _ = dense_mass_stiffness(1.5, 12)
        G = spec.modes.T @ Md @ spec.modes
        assert np.allclose(G, np.eye(12), atol=1e-12)

    def test_generalized_eigen_residual(self):
        ops = ops_for(1.0, 20)
        spec = fem1d.discrete_spectrum(ops)
        Md, Sd = dense_mass_stiffness(1.0, 20)
        resid = Sd @ spec.modes - Md @ spec.modes * spec.lambdas[None, :]
        assert np.abs(resid).max() <= 1e-8 * np.abs(spec.lambdas).max()

    def test_sign_convention_deterministic(self):
        a = fem1d.discrete_spectrum(ops_for(1.0, 9))
        b = fem1d.discrete_spectrum(ops_for(1.0, 9))
        assert np.array_equal(a.modes, b.modes)
        for col in a.modes.T:
            assert col[np.argmax(np.abs(col))] > 0

    def test_dimension_cap(self):
        with pytest.raises(CapacityError):
            fem1d.discrete_spectrum(ops_for(1.0, fem1d.SPECTRUM_DIM_CAP + 1))


class TestSineTransform:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_matches_sine_sum(self, n):
        i = np.arange(1, n + 1)
        D = 2.0 * np.sin(np.outer(i, i) * np.pi / (n + 1))
        X = np.random.default_rng([9, n]).normal(size=(n, 3))
        assert np.allclose(fem1d.sine_transform(X), D @ X, rtol=0, atol=1e-12)
        assert np.array_equal(fem1d.sine_transform(X[:, 1]),
                              fem1d.sine_transform(X)[:, 1])

    def test_twice_is_scaled_identity(self):
        x = np.random.default_rng(10).normal(size=31)
        twice = fem1d.sine_transform(fem1d.sine_transform(x))
        assert np.allclose(twice, 64.0 * x, rtol=0, atol=1e-12)


def extended_sine_series(L, n, coeffs, offsets):
    """The series at (e + r) h summed term by term in long double.

    j e is reduced mod 2(n+1) in integers, so no argument exceeds
    2 pi + j pi r / (n+1).
    """
    K = len(coeffs)
    j = np.arange(1, K + 1)
    je = (np.outer(np.arange(n + 1), j) % (2 * (n + 1))).astype(np.longdouble)
    theta = np.longdouble("3.14159265358979323846264338327950288") / (n + 1)
    c = np.sqrt(np.longdouble(2) / np.longdouble(L)) * np.asarray(coeffs, np.longdouble)
    cols = [np.sin((je + j * np.longdouble(r)) * theta) @ c for r in offsets]
    return np.stack(cols, axis=1).astype(float)


# K: no fold, exactly one period 2(n+1), several folds
SERIES_CASES = [(n, K) for n in (1, 2, 7, 63, 255)
                for K in sorted({0, 1, 5, 2 * (n + 1), 6 * (n + 1) + 1, 256})]


class TestSineSeriesAt:
    OFFSETS = (*fem1d.QUAD_R, 0.0)

    @pytest.mark.parametrize("n,K", SERIES_CASES)
    def test_matches_termwise_sums(self, n, K):
        L = 1.5
        mesh = fem1d.build_mesh(L, n)
        coeffs = np.random.default_rng([21, n, K]).normal(size=K)
        got = fem1d.sine_series_at(mesh, coeffs, self.OFFSETS)
        assert got.shape == (n + 1, len(self.OFFSETS))
        x = (np.arange(n + 1)[:, None] + np.array(self.OFFSETS)) * mesh.h
        dense = evaluate_spectral(SpectralFunction(L=L, coeffs=coeffs), x)
        ref = extended_sine_series(L, n, coeffs, self.OFFSETS)
        scale = np.abs(ref).max(axis=0)
        # the fold is exact up to round-off at every n and K
        assert np.all(np.abs(got - ref) <= 1e-13 * scale)
        # evaluate_spectral rounds sin arguments up to K pi (4.8e3 at
        # K = 1537), which costs it up to 3e-13 of the column maximum
        assert np.all(np.abs(got - dense) <= 1e-12 * scale)


class TestFractionalPowers:
    def test_seminorm_sq_matches_quadratic_form(self):
        ops = ops_for(1.0, 8)
        v = np.sin(5.0 * ops.mesh.nodes)
        via_stiffness = float(v @ full_matrix(ops.stiffness) @ v)
        assert fem1d.fractional_seminorm_sq(ops, 1.0, v) == pytest.approx(
            via_stiffness, rel=1e-11)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.75, 1.0])
    def test_seminorm_matches_dense_eigenpairs(self, gamma):
        # sum_j lambda_j^gamma <M x, e_j>^2 over the dense generalized eigenpairs
        L, n = 1.5, 20
        ops = ops_for(L, n)
        lam, vec = dense_eigenpairs(L, n)
        Md, _ = dense_mass_stiffness(L, n)
        X = np.random.default_rng(15).normal(size=(n, 4))
        want = np.sum(lam[:, None] ** gamma * (vec.T @ Md @ X) ** 2, axis=0)
        got = fem1d.fractional_seminorm_sq(ops, gamma, X)
        assert got.shape == (4,)
        assert np.allclose(got, want, rtol=1e-11, atol=0)
        assert fem1d.fractional_seminorm_sq(ops, gamma, X[:, 2]) == pytest.approx(
            want[2], rel=1e-11)

    def test_seminorm_weights_cached_read_only(self):
        # cached per (mesh, gamma) and the same bytes as the weights built inline
        ops = ops_for(1.0, 31)
        mesh = ops.mesh
        X = np.random.default_rng(17).normal(size=(31, 16))
        lam = fem1d.uniform_mesh_eigenvalue(mesh, np.arange(1, 32))
        for gamma in (0.0, 0.3, 1.0):
            w = lam**gamma * fem1d._mass_eigenvalues(mesh) / 64.0
            a = fem1d.sine_transform(X)
            assert np.array_equal(fem1d.fractional_seminorm_sq(ops, gamma, X), w @ (a * a))
            cached = fem1d._seminorm_weights(mesh.L, mesh.n_interior, gamma)
            assert cached is fem1d._seminorm_weights(mesh.L, mesh.n_interior, gamma)
            assert not cached.flags.writeable

    def test_seminorm_end_points_beyond_spectrum_cap(self):
        # no dense eigenbasis: gamma = 0 is x^T M x and gamma = 1 is x^T S x
        n = 2047
        assert n > fem1d.SPECTRUM_DIM_CAP
        ops = ops_for(1.0, n)
        X = np.random.default_rng(16).normal(size=(n, 3))
        for gamma, A in ((0.0, ops.mass), (1.0, ops.stiffness)):
            want = np.einsum("ib,ib->b", X, fem1d.tridiag_matvec(A, X))
            assert np.allclose(fem1d.fractional_seminorm_sq(ops, gamma, X), want,
                               rtol=1e-12, atol=0)


class TestNorms:
    def test_all_ones_l2(self):
        mesh = fem1d.build_mesh(1.0, 3)
        assert fem1d.lp_norm(mesh, np.ones(3), 2) == pytest.approx(
            0.81649658092772603, rel=1e-14)

    def test_all_ones_l2_finer(self):
        mesh = fem1d.build_mesh(1.0, 7)
        assert fem1d.lp_norm(mesh, np.ones(7), 2) == pytest.approx(
            0.9128709291752769, rel=1e-14)

    def test_sup_norm_nodal_max(self):
        mesh = fem1d.build_mesh(1.0, 4)
        v = np.array([0.5, -3.0, 1.0, 2.0])
        assert fem1d.lp_norm(mesh, v, np.inf) == 3.0

    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, 1.0 - 1e-9])
    def test_p_below_one_invalid(self, p):
        with pytest.raises(InvalidArgumentError):
            fem1d.lp_norm(fem1d.build_mesh(1.0, 3), np.ones(3), p)

    def test_batched_norms_match_columns(self):
        mesh = fem1d.build_mesh(1.0, 6)
        rng = np.random.default_rng(3)
        V = rng.normal(size=(6, 4))
        got = fem1d.lp_norm(mesh, V, 4)
        assert got.shape == (4,)
        for b in range(4):
            assert got[b] == pytest.approx(fem1d.lp_norm(mesh, V[:, b], 4), rel=1e-14)

    def test_mass_quadratic_form_equals_l2_squared(self):
        ops = ops_for(1.0, 9)
        v = np.linspace(-1, 1, 9)
        assert fem1d.l2_norm_sq_mass(ops, v) == pytest.approx(
            fem1d.lp_norm(ops.mesh, v, 2) ** 2, rel=1e-13)

    def test_p4_against_quadrature(self):
        # |v|^4 of a hat interpolant via 64-pt composite quadrature
        from dense_reference import gauss_on
        mesh = fem1d.build_mesh(1.0, 5)
        rng = np.random.default_rng(11)
        v = rng.normal(size=5)
        pad = np.concatenate([[0.0], v, [0.0]])
        nodes = np.concatenate([[0.0], mesh.nodes, [1.0]])
        tot = 0.0
        for e in range(6):
            x, w = gauss_on(nodes[e], nodes[e + 1], 64)
            u = pad[e] + (pad[e + 1] - pad[e]) * (x - nodes[e]) / mesh.h
            tot += np.sum(w * np.abs(u) ** 4)
        assert fem1d.lp_norm(mesh, v, 4) == pytest.approx(tot ** 0.25, rel=1e-13)


class TestProlong:
    def test_exact_on_p1_functions(self):
        coarse = fem1d.build_mesh(1.0, 7)
        fine = fem1d.build_mesh(1.0, 31)
        v = np.sin(2.0 * coarse.nodes)
        fv = fem1d.prolong(coarse, fine, v)
        pad_nodes = np.concatenate([[0.0], coarse.nodes, [1.0]])
        pad_vals = np.concatenate([[0.0], v, [0.0]])
        expect = np.interp(fine.nodes, pad_nodes, pad_vals)
        assert np.allclose(fv, expect, atol=1e-15)

    def test_shared_nodes_copied_bitwise(self):
        coarse = fem1d.build_mesh(1.0, 3)
        fine = fem1d.build_mesh(1.0, 15)
        v = np.array([0.3, -1.7, 2.9])
        fv = fem1d.prolong(coarse, fine, v)
        assert np.array_equal(fv[3::4], v)

    def test_non_nested_meshes_rejected(self):
        with pytest.raises(InvalidArgumentError):
            fem1d.prolong(fem1d.build_mesh(1.0, 4), fem1d.build_mesh(1.0, 31),
                          np.zeros(4))

    def test_batched(self):
        coarse = fem1d.build_mesh(1.0, 3)
        fine = fem1d.build_mesh(1.0, 7)
        V = np.arange(6.0).reshape(3, 2)
        FV = fem1d.prolong(coarse, fine, V)
        assert FV.shape == (7, 2)
        for b in range(2):
            assert np.array_equal(FV[:, b], fem1d.prolong(coarse, fine, V[:, b]))
