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

from dense_reference import dense_eigenpairs, element_quad_points


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
    G = modes.T @ fem1d.sine_load_matrix(ops.mesh, model.K)
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
