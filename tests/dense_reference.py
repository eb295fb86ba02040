"""Dense reference implementation for cross-checking the solver.

Everything here is assembled from first principles with dense numpy
arrays and high-order Gauss quadrature, sharing no code with the
package: hat functions are integrated symbolically via quadrature that
is exact for the integrands, systems are solved with LAPACK on full
matrices. The nonlinear load is the one deliberate exception: the
4-point per-element rule is part of the method's definition, so the
reference codes that rule independently rather than out-integrating it.
dense_smoothing_error is the other exception: it keeps the package's
former dense evaluation of the exact side, one sin table over every
quadrature point and mode, around the package's own propagator.
"""

import numpy as np
import scipy.linalg
from numpy.polynomial.legendre import leggauss

from spdefem import fem1d
from spdefem.fem1d import QUAD_R
from spdefem.smoothing_lab import discrete_propagator, evaluate_spectral, exact_semigroup


def element_quad_points(mesh):
    """Quadrature abscissae per element, shape (n_elements, 4)."""
    n_el = mesh.n_interior + 1
    left = np.arange(n_el) * mesh.h
    return left[:, None] + mesh.h * QUAD_R[None, :]


def hat(x, center, h):
    return np.maximum(0.0, 1.0 - np.abs(x - center) / h)


def gauss_on(a, b, n):
    x, w = leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def dense_mass_stiffness(L, n):
    """(M, S) on the uniform interior-node mesh, by 32-point quadrature."""
    h = L / (n + 1)
    centers = np.arange(1, n + 1) * h
    M = np.zeros((n, n))
    S = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if abs(i - j) > 1:
                continue
            a = max(centers[i] - h, centers[j] - h, 0.0)
            b = min(centers[i] + h, centers[j] + h, L)
            tot_m = 0.0
            tot_s = 0.0
            # split at every node so the integrands are polynomial per piece
            cuts = np.unique(np.clip(np.concatenate(
                [[a, b], centers, centers - h, centers + h]), a, b))
            for lo, hi in zip(cuts[:-1], cuts[1:]):
                if hi - lo < 1e-15:
                    continue
                x, w = gauss_on(lo, hi, 32)
                tot_m += np.sum(w * hat(x, centers[i], h) * hat(x, centers[j], h))
                di = np.where(x < centers[i], 1.0 / h, -1.0 / h) * (np.abs(x - centers[i]) < h)
                dj = np.where(x < centers[j], 1.0 / h, -1.0 / h) * (np.abs(x - centers[j]) < h)
                tot_s += np.sum(w * di * dj)
            M[i, j] = tot_m
            S[i, j] = tot_s
    return M, S


def dense_eigenpairs(L, n):
    """Generalized eigenpairs S e = lambda M e by a dense solver, ascending.

    Modes are M-orthonormal columns, signed so that the largest-magnitude
    entry of each is positive.
    """
    M, S = dense_mass_stiffness(L, n)
    lam, vec = scipy.linalg.eigh(S, M)
    vec *= np.sign(vec[np.argmax(np.abs(vec), axis=0), np.arange(n)])
    return lam, vec


def loop_propagator(L, n, tau, steps, x):
    """steps solves (M + tau S) x_new = M x_old, one after the other."""
    M, S = dense_mass_stiffness(L, n)
    lu = scipy.linalg.lu_factor(M + tau * S)
    for _ in range(steps):
        x = scipy.linalg.lu_solve(lu, M @ x)
    return x


def dense_sine_projection(L, n, coeffs):
    """Nodal values of the L2 projection of sum_j coeffs[j-1] sqrt(2/L) sin(j pi x / L)."""
    M, _ = dense_mass_stiffness(L, n)
    return np.linalg.solve(M, dense_sine_loads(L, n, len(coeffs)) @ coeffs)


def dense_sine_loads(L, n, K):
    """b[i, j] = integral of hat_i times sqrt(2/L) sin((j+1) pi x / L).

    Every hat is a translate of one profile: with offsets o from the centre
    c, sin(k (c + o)) = sin(kc) cos(ko) + cos(kc) sin(ko) leaves two
    integrals over the profile. Each half of the profile is cut into pieces
    no longer than L / K, so the 64-point rule sees at most half a period
    of the highest mode.
    """
    h = L / (n + 1)
    centers = np.arange(1, n + 1) * h
    k = np.arange(1, K + 1) * np.pi / L
    edges = np.linspace(-h, h, 2 * int(np.ceil(K * h / L)) + 1)
    pieces = [gauss_on(lo, hi, 64) for lo, hi in zip(edges[:-1], edges[1:])]
    o = np.concatenate([x for x, _ in pieces])
    hw = np.concatenate([w for _, w in pieces]) * hat(o, 0.0, h)
    cos_int = hw @ np.cos(np.outer(o, k))
    sin_int = hw @ np.sin(np.outer(o, k))
    kc = np.outer(centers, k)
    return np.sqrt(2.0 / L) * (np.sin(kc) * cos_int + np.cos(kc) * sin_int)


# the method's own quadrature rule, coded from the Legendre roots
_R4 = np.array([-np.sqrt(3.0 / 7.0 + 2.0 / 7.0 * np.sqrt(6.0 / 5.0)),
                -np.sqrt(3.0 / 7.0 - 2.0 / 7.0 * np.sqrt(6.0 / 5.0)),
                np.sqrt(3.0 / 7.0 - 2.0 / 7.0 * np.sqrt(6.0 / 5.0)),
                np.sqrt(3.0 / 7.0 + 2.0 / 7.0 * np.sqrt(6.0 / 5.0))])
_W4 = np.array([(18.0 - np.sqrt(30.0)) / 36.0, (18.0 + np.sqrt(30.0)) / 36.0,
                (18.0 + np.sqrt(30.0)) / 36.0, (18.0 - np.sqrt(30.0)) / 36.0])


def tamed_f(u, coeffs, q, alpha, theta, rho, beta1, beta2, tau, h):
    # plain power sum, no Horner, to stay independent of the implementation
    f = sum(c * u ** k for k, c in enumerate(coeffs))
    pert = beta1 * tau ** theta + beta2 * h ** rho
    expo = (2 * q - 2) / alpha
    return f / (1.0 + pert * np.abs(u) ** expo) ** alpha


def dense_drift_load(x0, L, coeffs, q, alpha, theta, rho, beta1, beta2, tau):
    """Load vector of the tamed drift of the P1 interpolant of x0."""
    n = x0.size
    h = L / (n + 1)
    centers = np.arange(1, n + 1) * h
    padded = np.concatenate([[0.0], x0, [0.0]])
    b = np.zeros(n)
    for e in range(n + 1):
        a = e * h
        xq = a + (0.5 + 0.5 * _R4) * h
        wq = 0.5 * _W4 * h
        uq = padded[e] + (padded[e + 1] - padded[e]) * (xq - a) / h
        fq = tamed_f(uq, coeffs, q, alpha, theta, rho, beta1, beta2, tau, h)
        if e >= 1:
            b[e - 1] += np.sum(wq * fq * (1.0 - (xq - a) / h))
        if e < n:
            b[e] += np.sum(wq * fq * (xq - a) / h)
    return b


def dense_one_step(x0, inc_coeffs, L, tau, coeffs, q,
                   alpha, theta, rho, beta1, beta2):
    """One update of the tamed linearly implicit method, all dense."""
    n = x0.size
    M, S = dense_mass_stiffness(L, n)
    K = inc_coeffs.size
    B = dense_sine_loads(L, n, K)
    rhs = M @ x0 + B @ inc_coeffs
    if coeffs is not None:
        rhs = rhs + tau * dense_drift_load(x0, L, coeffs, q, alpha, theta,
                                           rho, beta1, beta2, tau)
    return np.linalg.solve(M + tau * S, rhs)


def dense_smoothing_error(ops, tau, n, p, v):
    """L^p distance between E(n tau) v and the fully discrete solution,
    with the exact series evaluated as a dense (4(n+1)) x K sin table."""
    mesh = ops.mesh
    ex = exact_semigroup(v, n * tau)
    xd = discrete_propagator(ops, tau, n, v)
    dq = (evaluate_spectral(ex, element_quad_points(mesh))
          - fem1d.interpolant_at_quad(mesh, xd))
    if np.isinf(p):
        node_diff = evaluate_spectral(ex, mesh.nodes) - xd
        return max(np.abs(dq).max(), np.abs(node_diff).max())
    return (mesh.h * np.einsum("q,eq->", fem1d.QUAD_W, np.abs(dq) ** p)) ** (1.0 / p)
