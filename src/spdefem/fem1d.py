"""Uniform P1 finite elements on an interval with homogeneous Dirichlet data.

Only interior nodes are carried; the zero boundary values are structural
and never assembled. Nodal values of a P1 function are its coefficients
(Lagrange basis). Mass and stiffness matrices are symmetric tridiagonal.

On the uniform mesh the DST-I sine vectors sin(i j pi / (n+1)) diagonalize
both matrices, so the L2 projection of a sine series and the discrete
H^gamma seminorm are closed forms around one sine transform, at any n.
The same period-2(n+1) fold evaluates a sine series at the mesh-aligned
points (e + r) h with one inverse FFT per offset r.
Only discrete_spectrum builds the dense eigenbasis, and caps its size.

All non-polynomial integrands in this package are integrated with the
same fixed 4-point Gauss rule per element (exact through degree 7), so
quadrature is a documented part of the discretization, not a tunable.
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import CapacityError, InvalidArgumentError, SingularMatrixError

SPECTRUM_DIM_CAP = 1024

# 4-point Gauss-Legendre on [0,1]: nodes r, weights w (sum to 1).
_GL4_X = np.array([-0.8611363115940526, -0.3399810435848563,
                   0.3399810435848563, 0.8611363115940526])
_GL4_W = np.array([0.3478548451374538, 0.6521451548625461,
                   0.6521451548625461, 0.3478548451374538])
QUAD_R = (_GL4_X + 1.0) / 2.0
QUAD_W = _GL4_W / 2.0


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of [0, L] keeping interior nodes only."""

    L: float
    n_interior: int
    h: float
    nodes: np.ndarray


@dataclass(frozen=True)
class TriDiagSym:
    dim: int
    main: np.ndarray
    off: np.ndarray


@dataclass(frozen=True)
class FemOperators:
    mesh: Mesh1D
    mass: TriDiagSym
    stiffness: TriDiagSym


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Generalized eigenpairs S e = lambda M e, modes M-orthonormal columns."""

    lambdas: np.ndarray
    modes: np.ndarray


def build_mesh(L, n_interior):
    if not np.isfinite(L) or L <= 0:
        raise InvalidArgumentError(f"domain length must be positive, got {L}")
    n = int(n_interior)
    if n != n_interior or n < 1:
        raise InvalidArgumentError(
            f"n_interior must be a positive integer, got {n_interior}"
        )
    h = L / (n + 1)
    nodes = np.arange(1, n + 1, dtype=float) * h
    return Mesh1D(L=float(L), n_interior=n, h=h, nodes=nodes)


def assemble_mass(mesh):
    n = mesh.n_interior
    h = mesh.h
    return TriDiagSym(n, np.full(n, 2.0 * h / 3.0), np.full(n - 1, h / 6.0))


def assemble_stiffness(mesh):
    n = mesh.n_interior
    h = mesh.h
    return TriDiagSym(n, np.full(n, 2.0 / h), np.full(n - 1, -1.0 / h))


def assemble_operators(mesh):
    return FemOperators(mesh=mesh, mass=assemble_mass(mesh),
                        stiffness=assemble_stiffness(mesh))


def tridiag_matvec(A, x):
    """A @ x for symmetric tridiagonal A; x may be (n,) or (n, B)."""
    y = A.main.reshape(-1, *([1] * (x.ndim - 1))) * x
    off = A.off.reshape(-1, *([1] * (x.ndim - 1)))
    y[1:] += off * x[:-1]
    y[:-1] += off * x[1:]
    return y


class TriFactor:
    """LDL^T factorization of an SPD tridiagonal matrix, built once.

    LAPACK's dpttrf factors and dpttrs solves, for any number of
    right-hand sides. Non-finite right-hand sides propagate into the
    solution without an error: the stepper checks its iterates itself.
    """

    def __init__(self, A):
        # the wrapper wants a non-empty off-diagonal even when n = 1
        off = A.off if A.dim > 1 else np.zeros(1)
        self._d, self._e, _ = dpttrf(A.main, off)
        # dpttrf stops at the first pivot <= 0; NaN pivots pass through it
        bad = np.flatnonzero(~(self._d > 0))
        if bad.size:
            i = bad[0]
            raise SingularMatrixError(f"non-positive pivot {self._d[i]} at row {i}")

    def solve(self, rhs):
        """A^{-1} rhs for rhs (n,) or (n, B), as a new array."""
        return dpttrs(self._d, self._e, rhs)[0]


def interpolant_at_quad(mesh, v):
    """P1 interpolant values at the element quadrature points.

    v is (n,) or (n, B); result is (n_elements, 4) or (n_elements, 4, B).
    """
    v = np.asarray(v, dtype=float)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    vext = np.zeros((mesh.n_interior + 2, v.shape[1]))
    vext[1:-1] = v
    vals = (vext[:-1, None, :] * (1.0 - QUAD_R)[None, :, None]
            + vext[1:, None, :] * QUAD_R[None, :, None])
    return vals[:, :, 0] if squeeze else vals


# used only by scheme.drift_load; benchmarks/ looks it up until ROADMAP item 1
def quad_load(mesh, fvals):
    """Assemble the load vector from integrand values at quadrature points.

    fvals has shape (n_elements, 4) or (n_elements, 4, B); returns the
    vector of integrals against the interior hat functions.
    """
    wl = QUAD_W * (1.0 - QUAD_R)
    wr = QUAD_W * QUAD_R
    if fvals.ndim == 2:
        c_left = mesh.h * (fvals @ wl)
        c_right = mesh.h * (fvals @ wr)
    else:
        c_left = mesh.h * np.einsum("q,eqb->eb", wl, fvals)
        c_right = mesh.h * np.einsum("q,eqb->eb", wr, fvals)
    # element e feeds its rising part to node e and its falling part to node e-1
    return c_right[:-1] + c_left[1:]


def _hat_sine_amplitudes(mesh, K):
    """(amp, k) with k_j = j pi / L, j = 1..K, in closed form:
    integral of phi_i(x) sqrt(2/L) sin(k_j x) dx = amp_j sin(k_j x_i)."""
    if K < 1:
        raise InvalidArgumentError(f"K must be >= 1, got {K}")
    k = np.arange(1, K + 1, dtype=float) * np.pi / mesh.L
    h = mesh.h
    return np.sqrt(2.0 / mesh.L) * (2.0 / (k**2 * h)) * _one_minus_cos(k * h), k


def _one_minus_cos(x):
    """1 - cos(x) as 2 sin^2(x / 2), with no cancellation at small x."""
    return 2.0 * np.sin(x / 2.0) ** 2


def sine_load_matrix(mesh, K):
    """Integrals of interior hats against the orthonormal sine basis.

    Entry (i, j-1) = integral of phi_i(x) * sqrt(2/L) sin(j pi x / L) dx,
    in closed form. Shape (n_interior, K).
    """
    amp, k = _hat_sine_amplitudes(mesh, K)
    return amp[None, :] * np.sin(np.outer(mesh.nodes, k))


def project_sine_coeffs(ops, coeffs):
    """Exact L2 projection of a finite sine series given by its K coefficients.

    At node i mode j reads sin(i j pi / (n+1)), which has period 2(n+1) in
    j and is odd about n+1. So with r = j mod 2(n+1), mode j adds to mesh
    mode r when 1 <= r <= n, subtracts from mesh mode 2(n+1) - r when
    r > n+1, and vanishes when r is 0 or n+1. The mesh modes diagonalize
    M, so the mass solve is a division by its eigenvalues, followed by one
    sine transform.
    """
    mesh = ops.mesh
    n = mesh.n_interior
    coeffs = np.asarray(coeffs, dtype=float)
    K = coeffs.shape[0]
    amp, _ = _hat_sine_amplitudes(mesh, K)
    period = 2 * (n + 1)
    # modes 0..K padded to whole periods; summing the periods folds j onto r
    terms = np.zeros(-(-(K + 1) // period) * period)
    terms[1:K + 1] = amp * coeffs
    folded = terms.reshape(-1, period).sum(axis=0)
    d = folded[1:n + 1] - folded[:n + 1:-1]
    return sine_transform(d / _mass_eigenvalues(mesh)) / 2.0


def sine_series_at(mesh, coeffs, offsets):
    """Values of sum_j coeffs[j-1] sqrt(2/L) sin(j pi x / L) at x = (e + r) h.

    Shape (n+1, len(offsets)): row e = 0..n, column one offset r. With
    theta = pi / (n+1) the series at (e + r) h is Im sum_j w_j e^{i j theta e},
    w_j = sqrt(2/L) coeffs[j-1] e^{i j theta r}. Only e^{i j theta e} has
    period 2(n+1) in j, so w folds onto j mod 2(n+1) as in
    project_sine_coeffs, and one inverse FFT per offset evaluates every e.
    """
    n = mesh.n_interior
    coeffs = np.asarray(coeffs, dtype=float)
    K = coeffs.shape[0]
    period = 2 * (n + 1)
    theta = np.pi / (n + 1)
    j = np.arange(1, K + 1, dtype=float)
    terms = np.zeros((-(-(K + 1) // period) * period, len(offsets)), dtype=complex)
    terms[1:K + 1] = (np.sqrt(2.0 / mesh.L) * coeffs)[:, None] * np.exp(
        1j * theta * np.outer(j, offsets))
    folded = terms.reshape(-1, period, len(offsets)).sum(axis=0)
    return period * np.fft.ifft(folded, axis=0)[:n + 1].imag


def sine_transform(x):
    """DST-I along axis 0: y_k = 2 sum_i x_i sin(i k pi / (n+1)), i, k = 1..n.

    Applied twice it multiplies by 2(n+1). Computed as one real FFT of the
    odd extension [0, x, 0, -x reversed] (the same numbers as scipy.fft's
    type-1 DST), so no transform module beyond numpy's is imported.
    """
    x = np.asarray(x, dtype=float)
    zero = np.zeros((1,) + x.shape[1:])
    odd = np.concatenate([zero, x, zero, -x[::-1]])
    return -np.fft.rfft(odd, axis=0)[1:x.shape[0] + 1].imag


def discrete_spectrum(ops):
    """All generalized eigenpairs of (stiffness, mass), ascending, in closed form.

    On the uniform mesh the sine vectors v_j(i) = sin(i theta_j), with
    theta_j = j pi / (n+1), diagonalize both matrices:
    M v_j = (h/3)(2 + cos theta_j) v_j and S v_j = (2/h)(1 - cos theta_j) v_j.
    Each mode is v_j scaled to unit M-norm and signed so that its
    largest-magnitude entry is positive. The modes form a dense n x n
    array, so the dimension cap bounds memory.
    """
    mesh = ops.mesh
    n = mesh.n_interior
    if n > SPECTRUM_DIM_CAP:
        raise CapacityError(
            f"spectrum dimension {n} exceeds cap {SPECTRUM_DIM_CAP}"
        )
    j = np.arange(1, n + 1)
    # i j reduced mod 2(n+1) in integers, so sin never sees a large argument
    modes = np.sin((np.outer(j, j) % (2 * (n + 1))) * (np.pi / (n + 1)))
    modes *= np.sqrt(2.0 / ((n + 1) * _mass_eigenvalues(mesh)))
    modes *= np.sign(modes[np.argmax(np.abs(modes), axis=0), j - 1])
    return DiscreteSpectrum(lambdas=uniform_mesh_eigenvalue(mesh, j), modes=modes)


def _mass_eigenvalues(mesh):
    """mu_j = (h/3)(2 + cos theta_j), j = 1..n: M times sine vector j."""
    n = mesh.n_interior
    return (mesh.h / 3.0) * (2.0 + np.cos(np.arange(1, n + 1) * (np.pi / (n + 1))))


def uniform_mesh_eigenvalue(mesh, j):
    """Closed-form discrete eigenvalue of the uniform P1 mesh, mode j (or an array)."""
    th = j * np.pi * mesh.h / mesh.L
    return (6.0 / mesh.h**2) * _one_minus_cos(th) / (2.0 + np.cos(th))


def fractional_seminorm_sq(ops, gamma, v):
    """Squared H^gamma seminorm |A_h^{gamma/2} v|_{L2}^2 of nodal data, (n,) or (n, B).

    In the sine coordinates a = sine_transform(v) it is
    sum_k lambda_k^gamma mu_k a_k^2 / (2(n+1)), with mu_k the mass
    eigenvalues: gamma = 0 gives v^T M v and gamma = 1 gives v^T S v.
    The sum runs over k in index order (_node_sum), so a column's value
    does not depend on the columns beside it."""
    v = np.asarray(v, dtype=float)
    mesh = ops.mesh
    a = sine_transform(v)
    w = _seminorm_weights(mesh.L, mesh.n_interior, gamma)
    return _node_sum(w.reshape(-1, *[1] * (a.ndim - 1)) * (a * a))


@functools.lru_cache(maxsize=32)
def _seminorm_weights(L, n, gamma):
    """lambda_k^gamma mu_k / (2(n+1)), k = 1..n, read-only: a recorder asks
    for the same mesh and gamma at every recorded step."""
    mesh = build_mesh(L, n)
    lam = uniform_mesh_eigenvalue(mesh, np.arange(1, n + 1))
    w = lam**gamma * _mass_eigenvalues(mesh) / (2.0 * (n + 1))
    w.flags.writeable = False
    return w


def _node_sum(terms):
    """Sum over axis 0 in index order, row after row at every width, where
    reductions and einsum go pairwise on a single column. At two or more
    columns it is einsum's sum bit for bit."""
    return np.cumsum(terms, axis=0)[-1]


def lp_norm(mesh, v, p):
    """L^p(0, L) norm of the P1 interpolant of nodal values v.

    Finite p uses the module quadrature rule, summed over the elements
    and their points in index order (_node_sum); p = inf is the nodal max
    (exact for piecewise linears). v may be (n,) or (n, B); the batched
    form returns one norm per column.
    """
    if not p >= 1:
        raise InvalidArgumentError(f"norm exponent must be >= 1, got {p}")
    v = np.asarray(v, dtype=float)
    if np.isinf(p):
        return np.abs(v).max(axis=0) if v.size else 0.0
    vals = interpolant_at_quad(mesh, v)
    terms = QUAD_W.reshape(-1, *[1] * (v.ndim - 1)) * np.abs(vals) ** p
    return (mesh.h * _node_sum(terms.reshape(-1, *v.shape[1:]))) ** (1.0 / p)


def l2_norm_sq_mass(ops, v):
    """Exact squared L2 norm x^T M x (cheaper than quadrature, identical
    value), summed over the nodes in index order (_node_sum)."""
    v = np.asarray(v, dtype=float)
    return _node_sum(v * tridiag_matvec(ops.mass, v))


def _nesting_factor(mesh_coarse, mesh_fine):
    """F, the integer number of fine cells in each coarse cell."""
    if mesh_coarse.L != mesh_fine.L:
        raise InvalidArgumentError("meshes cover different intervals")
    ratio_num = mesh_fine.n_interior + 1
    ratio_den = mesh_coarse.n_interior + 1
    if ratio_num % ratio_den != 0:
        raise InvalidArgumentError(
            f"fine mesh ({ratio_num} cells) does not nest coarse mesh ({ratio_den} cells)"
        )
    return ratio_num // ratio_den


def prolong(mesh_coarse, mesh_fine, v):
    """Exact P1 interpolation from a coarse dyadic mesh to a nested finer one.

    Requires the fine partition to refine the coarse one by an integer
    factor (same L). Interpolation weights are exact dyadic rationals, so
    the transfer is reproducible bit for bit. Its transpose is restrict.
    """
    F = _nesting_factor(mesh_coarse, mesh_fine)
    v = np.asarray(v, dtype=float)
    squeeze = v.ndim == 1
    if squeeze:
        v = v[:, None]
    vext = np.zeros((mesh_coarse.n_interior + 2, v.shape[1]))
    vext[1:-1] = v
    i = np.arange(1, mesh_fine.n_interior + 1)
    q, rem = np.divmod(i, F)
    w = rem / F
    out = (1.0 - w)[:, None] * vext[q] + w[:, None] * vext[q + 1]
    return out[:, 0] if squeeze else out


def restrict(mesh_coarse, mesh_fine, y, out=None):
    """The transpose of prolong: fine data to a nested coarser mesh, node axis first.

    Coarse hat c is sum_d (1 - |d|/F) times the fine hats at |d| < F fine
    nodes from its own, so restricting the integrals of a function against
    the fine hats gives its integrals against the coarse ones exactly (up
    to round-off). y is (n_fine, ...); the (n_coarse, ...) result is
    written into out when given. The integer weights F - |d| enter one
    binary digit at a time, highest first (Horner's rule in base 2), so
    every operation is an in-place add to out or an exact scaling of it:
    nothing is allocated, and each entry of out depends on the same
    column of y alone.
    """
    F = _nesting_factor(mesh_coarse, mesh_fine)
    y = np.asarray(y, dtype=float)
    n = mesh_coarse.n_interior
    if out is None:
        out = np.empty((n,) + y.shape[1:])
    out[...] = 0.0
    for bit in reversed(range((F - 1).bit_length())):
        out *= 2.0
        for d in range(1, F):
            if (F - d) >> bit & 1:
                # fine index c F + F - 1 is coarse node c
                out += y[F - 1 - d::F][:n]
                out += y[F - 1 + d::F]
    out /= F
    out += y[F - 1::F]
    return out
