"""Deterministic linear bench: exact heat semigroup vs discrete propagator.

Measures L^p errors of (E(t_n) - E^n_{tau,h} P_h) v for truncated sine
series v, including the rough flat-spectrum class where only the L2 norm
of the data is controlled. Both sides are closed forms on the mesh's sine
basis (fem1d): P_h v and the discrete propagator through sine transforms,
and the exact series at the quadrature points and nodes through one
folded FFT per quadrature offset (fem1d.sine_series_at).
evaluate_spectral, the dense sine table at arbitrary points, is kept as
the oracle for that evaluation. Also hosts the log-log rate fitter used
by every convergence study in the package.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fem1d
from .errors import InvalidArgumentError
from .noise import RngStream


@dataclass(frozen=True)
class SpectralFunction:
    """Truncated expansion against sqrt(2/L) sin(j pi x / L), j = 1..K."""

    L: float
    coeffs: np.ndarray


@dataclass(frozen=True)
class SmoothingErrorSample:
    h: float
    tau: float
    t_n: float
    p: float
    error: float


def continuous_eigenvalues(L, K):
    j = np.arange(1, K + 1, dtype=float)
    return (j * np.pi / L) ** 2


def exact_semigroup(v, t):
    """Heat semigroup on the series: mode j decays by exp(-(j pi/L)^2 t)."""
    if t < 0:
        raise InvalidArgumentError(f"time must be nonnegative, got {t}")
    lam = continuous_eigenvalues(v.L, len(v.coeffs))
    return SpectralFunction(L=v.L, coeffs=np.asarray(v.coeffs) * np.exp(-lam * t))


# the tests' oracle; benchmarks/tracing.py wraps it until ROADMAP item 1
def evaluate_spectral(v, x):
    """Pointwise values of the series at locations x (any array shape)."""
    x = np.asarray(x, dtype=float)
    k = np.arange(1, len(v.coeffs) + 1, dtype=float) * np.pi / v.L
    flat = x.reshape(-1)
    vals = np.sin(np.outer(flat, k)) @ (np.sqrt(2.0 / v.L) * np.asarray(v.coeffs))
    return vals.reshape(x.shape)


def rough_initial(K, seed, L=1.0):
    """Flat-spectrum random-sign data with unit L2 norm.

    The adversarial class for smoothing estimates: nothing decays until
    the semigroup acts.
    """
    draws = RngStream(seed, context=0).normals(K)
    signs = np.where(draws >= 0.0, 1.0, -1.0)
    return SpectralFunction(L=L, coeffs=signs / math.sqrt(K))


def discrete_propagator(ops, tau, n, v):
    """n steps of the implicit heat map (M + tau S)^{-1} M applied to P_h v.

    v is a SpectralFunction (projected exactly, modes beyond n folded onto
    the mesh by fem1d.project_sine_coeffs) or a nodal vector, (n,) or
    (n, B), already in the FE space. n = 0 returns the projection itself.
    The DST-I sine vectors diagonalize M and S on the uniform mesh, so the
    n steps are one scaling of mode j by (1 + tau lambda_{j,h})^{-n} between
    two sine transforms (Strang, SIAM Rev. 1999).
    """
    n = int(n)
    if n < 0:
        raise InvalidArgumentError(f"step count must be >= 0, got {n}")
    if isinstance(v, SpectralFunction):
        if v.L != ops.mesh.L:
            raise InvalidArgumentError("function and mesh cover different intervals")
        x = fem1d.project_sine_coeffs(ops, v.coeffs)
    else:
        x = np.asarray(v, dtype=float)
    if n == 0:
        return x
    dim = ops.mesh.n_interior
    lam = fem1d.uniform_mesh_eigenvalue(ops.mesh, np.arange(1, dim + 1))
    gain = (1.0 + tau * lam) ** -float(n)
    gain = gain.reshape(-1, *([1] * (x.ndim - 1)))
    return fem1d.sine_transform(gain * fem1d.sine_transform(x)) / (2.0 * (dim + 1))


def smoothing_error(ops, tau, n, p, v):
    """L^p distance between the exact and the fully discrete solution.

    Evaluated at t_n = n tau > 0 through the module quadrature rule
    (p = inf: max over quadrature and mesh nodes), with every mode of the
    series. The exact side is a closed form on the mesh too: the points
    are (e + r) h, so fem1d.sine_series_at sums all modes with one folded
    FFT per offset r (the quadrature abscissae, and 0 for the nodes).
    """
    n = int(n)
    if n < 1:
        raise InvalidArgumentError("smoothing error needs t_n > 0 (n >= 1)")
    if not p >= 2:
        raise InvalidArgumentError(f"p must lie in [2, inf], got {p}")
    mesh = ops.mesh
    t = n * tau
    ex = exact_semigroup(v, t)
    xd = discrete_propagator(ops, tau, n, v)

    exact = fem1d.sine_series_at(mesh, ex.coeffs, (*fem1d.QUAD_R, 0.0))
    dq = exact[:, :-1] - fem1d.interpolant_at_quad(mesh, xd)
    if np.isinf(p):
        node_diff = exact[1:, -1] - xd
        err = max(np.abs(dq).max(), np.abs(node_diff).max())
    else:
        err = (mesh.h * np.einsum("q,eq->", fem1d.QUAD_W, np.abs(dq) ** p)) ** (1.0 / p)
    return SmoothingErrorSample(h=mesh.h, tau=tau, t_n=t, p=p, error=float(err))


class RateFit(NamedTuple):
    slope: float
    intercept: float
    stderr: float


def rate_fit(samples):
    """Least squares in log-log coordinates over (resolution, error) pairs.

    Needs at least 3 samples with positive resolutions and errors.
    Returns slope, intercept and the standard error of the slope.
    """
    pts = list(samples)
    if len(pts) < 3:
        raise InvalidArgumentError(f"need at least 3 samples, got {len(pts)}")
    res = np.array([r for r, _ in pts], dtype=float)
    err = np.array([e for _, e in pts], dtype=float)
    if np.any(res <= 0):
        raise InvalidArgumentError("resolutions must be positive")
    if np.any(err <= 0):
        raise InvalidArgumentError("errors must be positive for a log-log fit")
    x = np.log(res)
    y = np.log(err)
    n = len(x)
    xb = x - x.mean()
    sxx = float(xb @ xb)
    slope = float(xb @ y / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ssr = float(resid @ resid)
    stderr = math.sqrt(max(ssr, 0.0) / (n - 2) / sxx) if n > 2 else 0.0
    return RateFit(slope=slope, intercept=intercept, stderr=stderr)
