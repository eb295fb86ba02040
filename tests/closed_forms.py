"""Exact errors of the linear (drift-free) scheme, from the discrete spectrum.

Without drift the scheme is linear, so its errors follow from the
generalized eigenpairs S e_j = lambda_j M e_j of the mesh alone (modes
M-orthonormal, E = [e_1 .. e_n]). The acceptance scoreboard uses these
closed forms to show, without Monte Carlo, which order a resolution grid
can exhibit, and to split a fully discrete smoothing error into its
space and time parts. The eigenpairs come from the dense solver in
dense_reference, not from the package's closed-form spectrum, so these
checks compare the package with an independent computation.
"""

import numpy as np

from spdefem import fem1d, harness, noise
from spdefem.smoothing_lab import evaluate_spectral, exact_semigroup

from dense_reference import (dense_eigenpairs, dense_mass_stiffness, dense_sine_loads,
                             element_quad_points, hat)


def _spectral_coeffs(ops, x):
    """Eigenvalues, modes E and coordinates c = E^T M x of nodal data x."""
    lam, modes = dense_eigenpairs(ops.mesh.L, ops.mesh.n_interior)
    return lam, modes, modes.T @ fem1d.tridiag_matvec(ops.mass, x)


def drift_free_weak_value(cfg, res):
    """E sin(pi/4 - |X^N|^2) for the drift-free scheme at one resolution.

    From zero data, (M + tau S) x^m = M x^{m-1} + B dW^m with B the sine
    load matrix and dW^m ~ N(0, tau Q), Q = diag((k pi / L)^{-2s}). In the
    coordinates y = E^T M x each step is y^m = R (y^{m-1} + G dW^m), with
    R = diag(r_j), r_j = 1 / (1 + tau lambda_j) and G = E^T B, so after
    N = 2^m steps

        Cov(y^N) = tau (G Q G^T) o [rho (1 - rho^N) / (1 - rho)],  rho = r_i r_j.

    |X^N|^2 = y^T y = sum_k sigma_k^2 Z_k^2, with sigma_k^2 the eigenvalues
    of Cov(y^N) and Z_k independent standard normals, hence

        E sin(pi/4 - |X^N|^2) = Im( e^{i pi/4} prod_k (1 + 2 i sigma_k^2)^{-1/2} ).
    """
    if cfg.observable != "sin_pi4_minus_l2sq" or cfg.initial_modes is not None:
        raise ValueError("closed form covers sin(pi/4 - |X|^2) from zero data")
    model = harness.noise_model_for(cfg)
    ops = fem1d.assemble_operators(harness._mesh_for(cfg, res))
    tau = harness._tau_for(cfg, res)
    lam, modes = dense_eigenpairs(ops.mesh.L, ops.mesh.n_interior)
    G = modes.T @ dense_sine_loads(ops.mesh.L, ops.mesh.n_interior, model.K)
    q = noise.coefficient_scales(model) ** 2
    r = 1.0 / (1.0 + tau * lam)
    rho = np.outer(r, r)
    steps = 2**res.m
    cov = tau * ((G * q) @ G.T) * (rho * (1.0 - rho**steps) / (1.0 - rho))
    sig2 = np.clip(np.linalg.eigvalsh(cov), 0.0, None)
    return float(np.imag(np.exp(0.25j * np.pi)
                         * np.prod(1.0 / np.sqrt(1.0 + 2.0j * sig2))))


def drift_free_weak_errors(cfg):
    """|E phi(X_g) - E phi(X_ref)| per grid entry, phi = sin(pi/4 - |X|^2).

    The errors a weak study of cfg would converge to with the drift
    switched off; see drift_free_weak_value for the formula.
    """
    ref = drift_free_weak_value(cfg, cfg.reference)
    return np.array([abs(drift_free_weak_value(cfg, r) - ref) for r in cfg.grid])


def drift_free_strong_space_msq(cfg):
    """E ||X_ref - P X_g||_M^2 at the final time per grid entry, for the
    drift-free scheme from zero data on a grid of meshes at the reference's m.

    All meshes step on the same increments dW^k ~ N(0, tau Q), and P is
    the P1 interpolation onto the reference mesh. With the M-orthonormal
    eigenpairs of each mesh (E^T M E = I), (M + tau S)^{-1} = E R E^T with
    R = diag(1 / (1 + tau lambda)), so after N steps

        X^N = sum_{j=1}^N E R^j G dW^{N-j+1},    G = E^T B,

    B the mesh's sine loads, and the error is sum_j A_j dW^{N-j+1} with
    A_j = E_ref R_ref^j G_ref - P E_g R_g^j G_g. Summed step by step:

        E ||X_ref - P X_g||_M^2 = tau sum_j sum_k q_k (A_j^T M_ref A_j)_kk.
    """
    if cfg.drift is not None or cfg.initial_modes is not None:
        raise ValueError("closed form covers the drift-free scheme from zero data")
    ref = cfg.reference
    if any(r.m != ref.m for r in cfg.grid):
        raise ValueError("closed form covers a grid of meshes at one m")
    model = harness.noise_model_for(cfg)
    q = noise.coefficient_scales(model) ** 2
    tau = harness._tau_for(cfg, ref)
    n_ref = 2**ref.h_exp - 1
    x_ref = np.arange(1, n_ref + 1) * cfg.L / (n_ref + 1)
    M_ref, _ = dense_mass_stiffness(cfg.L, n_ref)

    def eigen(n):
        lam, modes = dense_eigenpairs(cfg.L, n)
        return modes, 1.0 / (1.0 + tau * lam), modes.T @ dense_sine_loads(cfg.L, n, model.K)

    E_ref, r_ref, G_ref = eigen(n_ref)
    out = []
    for res in cfg.grid:
        n = 2**res.h_exp - 1
        h = cfg.L / (n + 1)
        P = hat(x_ref[:, None], np.arange(1, n + 1)[None, :] * h, h)
        E, r, G = eigen(n)
        total = 0.0
        for j in range(1, 2**ref.m + 1):
            A = (E_ref * r_ref**j) @ G_ref - P @ ((E * r**j) @ G)
            total += np.sum(q * np.sum(A * (M_ref @ A), axis=0))
        out.append(tau * total)
    return np.array(out)


def drift_free_strong_time_msq(cfg):
    """E ||X_ref - X_g||_M^2 at the final time per grid entry, for the
    drift-free scheme from zero data on a grid of steps at the reference's
    mesh.

    The reference takes N_f steps of tau_f; an entry takes N_c of
    f tau_f, and its step i adds the f fine increments dW^k of its group,
    k in ((i - 1) f, i f]. In the coordinates y = E^T M x each step is
    y <- R (y + G dW), as in drift_free_weak_value, so the difference of
    the final states is sum_k diag(a_k) G dW^k with

        a_jk = r_f,j^(N_f - k + 1) - r_c,j^(N_c - ceil(k / f) + 1),

    and, the modes being M-orthonormal,

        E ||X_ref - X_g||_M^2 = tau_f sum_j (G Q G^T)_jj sum_k a_jk^2.
    """
    if cfg.drift is not None or cfg.initial_modes is not None:
        raise ValueError("closed form covers the drift-free scheme from zero data")
    ref = cfg.reference
    if any(r.h_exp != ref.h_exp for r in cfg.grid):
        raise ValueError("closed form covers a grid of steps on one mesh")
    model = harness.noise_model_for(cfg)
    n = 2**ref.h_exp - 1
    lam, modes = dense_eigenpairs(cfg.L, n)
    G = modes.T @ dense_sine_loads(cfg.L, n, model.K)
    gqg = G**2 @ noise.coefficient_scales(model) ** 2
    tau_f, n_f = harness._tau_for(cfg, ref), 2**ref.m
    k = np.arange(1, n_f + 1)
    r_f = 1.0 / (1.0 + tau_f * lam[:, None])
    out = []
    for res in cfg.grid:
        f, n_c = 2 ** (ref.m - res.m), 2**res.m
        r_c = 1.0 / (1.0 + harness._tau_for(cfg, res) * lam[:, None])
        a = r_f ** (n_f - k + 1) - r_c ** (n_c - -(-k // f) + 1)
        out.append(tau_f * gqg @ np.sum(a**2, axis=1))
    return np.array(out)


def semidiscrete_smoothing_error(ops, t, v):
    """Time-free spatial error ||E_h(t) P_h v - E(t) v||_{L2} at time t.

    E_h(t) P_h v = sum_j exp(-t lambda_j) c_j e_j with c = E^T M P_h v is
    the exact semigroup of the discrete Laplacian. The L2 norm uses the
    module quadrature rule, as smoothing_lab.smoothing_error does, so the
    two errors are measured in the same norm.
    """
    mesh = ops.mesh
    lam, modes, c = _spectral_coeffs(ops, fem1d.project_sine_coeffs(ops, v.coeffs))
    xh = modes @ (np.exp(-t * lam) * c)
    dq = (evaluate_spectral(exact_semigroup(v, t), element_quad_points(mesh))
          - fem1d.interpolant_at_quad(mesh, xh))
    return float(np.sqrt(mesh.h * np.einsum("q,eq->", fem1d.QUAD_W, dq**2)))


def time_only_smoothing_error(ops, tau, n, v):
    """Time error ||E^n_{tau,h} P_h v - E_h(n tau) P_h v||_{L2} on one mesh.

    Implicit Euler multiplies mode j by (1 + tau lambda_j)^{-1} per step,
    so with c = E^T M P_h v and t = n tau

        e_time = || ((1 + tau lambda_j)^{-n} - exp(-t lambda_j)) c_j ||_{l2},

    exact because the modes are M-orthonormal. By the triangle inequality
    the fully discrete error e_full and the time-free error e_space obey
    |e_full - e_space| <= e_time.
    """
    lam, _, c = _spectral_coeffs(ops, fem1d.project_sine_coeffs(ops, v.coeffs))
    return float(np.linalg.norm(
        ((1.0 + tau * lam) ** -float(n) - np.exp(-n * tau * lam)) * c))
