"""Polynomial drift and its step-size dependent taming.

The drift is an odd-degree polynomial f with negative leading
coefficient (degree 2q-1, q >= 2). The tamed variant divides f by

    (1 + (beta1 tau^theta + beta2 h^rho) |u|^{(2q-2)/alpha})^alpha

which bounds the effective nonlinearity per step while converging to f
as tau, h -> 0. The exponents must satisfy a strict smallness constraint
tied to q and the spatial dimension d (d = 1 here: the meshes are
intervals); validate_params enforces the strictest published form.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, InvalidArgumentError


@dataclass(frozen=True)
class DriftPolynomial:
    """f(u) = sum_k coeffs[k] u^k with len(coeffs) == 2q, finite, coeffs[-1] < 0."""

    q: int
    coeffs: tuple

    def __post_init__(self):
        if int(self.q) != self.q or self.q < 2:
            raise InvalidArgumentError(f"q must be an integer >= 2, got {self.q}")
        object.__setattr__(self, "q", int(self.q))
        c = tuple(float(v) for v in self.coeffs)
        if len(c) != 2 * self.q:
            raise InvalidArgumentError(
                f"need {2 * self.q} coefficients for degree {2 * self.q - 1}, got {len(c)}"
            )
        if not np.isfinite(c).all():
            raise InvalidArgumentError(f"coefficients must be finite, got {list(c)}")
        if not c[-1] < 0:
            raise InvalidArgumentError(
                f"leading coefficient must be negative, got {c[-1]}"
            )
        object.__setattr__(self, "coeffs", c)


@dataclass(frozen=True)
class TamingParams:
    alpha: float
    theta: float
    rho: float
    beta1: float
    beta2: float

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise InvalidArgumentError(f"alpha must lie in (0, 1], got {self.alpha}")
        for name in ("theta", "rho", "beta1", "beta2"):
            v = getattr(self, name)
            if not 0 < v < np.inf:
                raise InvalidArgumentError(f"{name} must be finite and positive, got {v}")


def eval_f(poly, u):
    """Horner evaluation; u scalar or ndarray."""
    u = np.asarray(u, dtype=float)
    acc = np.full_like(u, poly.coeffs[-1])
    for c in poly.coeffs[-2::-1]:
        acc = acc * u + c
    return acc if acc.ndim else float(acc)


def taming_factor(poly, params, tau, h, u):
    """The denominator of the tamed drift, always >= 1."""
    c = params.beta1 * tau**params.theta + params.beta2 * h**params.rho
    expo = (2.0 * poly.q - 2.0) / params.alpha
    return (1.0 + c * np.abs(u) ** expo) ** params.alpha


def eval_f_tamed(poly, params, tau, h, u):
    if not (tau > 0 and h > 0):
        raise InvalidArgumentError(f"tau and h must be positive, got tau={tau}, h={h}")
    u = np.asarray(u, dtype=float)
    out = eval_f(poly, u) / taming_factor(poly, params, tau, h, u)
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def validate_params(poly, params):
    """Enforce max{alpha*theta, alpha*rho/2} < 1 + d/(4q(2q-1)) - d/4, d = 1.

    This is the strictest of the published threshold variants; passing it
    is sufficient for all of them. Raises ConstraintError naming the
    offending product, returns the params unchanged on success.
    """
    bound = 0.75 + 1.0 / (4.0 * poly.q * (2 * poly.q - 1))
    prod_theta = params.alpha * params.theta
    prod_rho = params.alpha * params.rho / 2.0
    if not max(prod_theta, prod_rho) < bound:
        if prod_theta >= prod_rho:
            offender = f"alpha*theta = {prod_theta:.6g}"
        else:
            offender = f"alpha*rho/2 = {prod_rho:.6g}"
        raise ConstraintError(
            f"taming exponent constraint violated: {offender} must be "
            f"< 1 + d/(4q(2q-1)) - d/4 = {bound:.10g} (q={poly.q}, d=1)"
        )
    return params


def one_sided_constant(poly):
    """Supremum L_f of f' over the real line.

    For cubic drifts (q=2) the derivative is a concave quadratic and the
    maximum is analytic. For higher degrees f' has even degree and a
    negative leading coefficient, so its supremum is attained at a real
    root of f''. f' is evaluated at the real part of every root of f'':
    the real roots are among them, and no other point exceeds the
    supremum, so the largest value is the supremum to round-off without
    deciding which roots are real.
    """
    dcoef = [k * poly.coeffs[k] for k in range(1, 2 * poly.q)]
    if poly.q == 2:
        a1, a2x2, a3x3 = dcoef  # f' = a1 + 2 a2 u + 3 a3 u^2
        return float(a1 - a2x2**2 / (4.0 * a3x3))
    ddcoef = [k * dcoef[k] for k in range(1, len(dcoef))]
    crit = np.roots(ddcoef[::-1]).real
    vals = np.polyval(dcoef[::-1], crit)
    return float(vals.max())


@dataclass(frozen=True)
class TamingSuiteReport:
    sign_ok: bool
    dominated_margin: float       # max over grid of |f_tamed| - |f|  (<= 0)
    growth_constant: float        # sup |f_tamed| / (1 + |u| + (tau^th + h^rho)^{-alpha} |u|)
    approx_margin: float          # max of |f - f_tamed| - bound      (<= 0)
    monotone_tau_ok: bool
    monotone_h_ok: bool
    penalty_c0: float
    penalty_c1: float
    penalty_margin: float         # max of the penalty expression with (c0, c1) (~ 0)

    @property
    def dominated_ok(self):
        return self.dominated_margin <= 0.0

    @property
    def approx_ok(self):
        return self.approx_margin <= 0.0


def taming_inequality_suite(poly, params, tau, h, us):
    """Empirical margins for the algebraic properties of the tamed drift.

    us is the scan grid for the single-variable inequalities. vs, a coarse
    subsample of us, pairs with every u for the one-sided
    quadratic-penalty scan; its constants are existential in the theory,
    so the suite fits c1 given c0 = 1 and reports the attained margin.
    """
    us = np.asarray(us, dtype=float)
    if us.size == 0:
        raise InvalidArgumentError("empty scan grid")
    vs = us[::max(1, us.size // 201)]

    f = eval_f(poly, us)
    ft = eval_f_tamed(poly, params, tau, h, us)

    sign_ok = bool(np.all(np.sign(ft) == np.sign(f)))
    dominated_margin = float(np.max(np.abs(ft) - np.abs(f)))

    cbare = tau**params.theta + h**params.rho
    growth_den = 1.0 + np.abs(us) + cbare ** (-params.alpha) * np.abs(us)
    growth_constant = float(np.max(np.abs(ft) / growth_den))

    cfac = params.beta1 * tau**params.theta + params.beta2 * h**params.rho
    expo = (2.0 * poly.q - 2.0) / params.alpha
    approx_bound = cfac * np.abs(us) ** expo * np.abs(f)
    approx_margin = float(np.max(np.abs(f - ft) - approx_bound))

    ft_tau = eval_f_tamed(poly, params, 2.0 * tau, h, us)
    ft_h = eval_f_tamed(poly, params, tau, 2.0 * h, us)
    monotone_tau_ok = bool(np.all(np.abs(ft_tau) <= np.abs(ft)))
    monotone_h_ok = bool(np.all(np.abs(ft_h) <= np.abs(ft)))

    c0 = 1.0
    base = 2.0 * (us[None, :] + vs[:, None]) * ft[None, :] \
        + tau * ft[None, :] ** 2 + c0 * us[None, :] ** 2
    pen = 1.0 + np.abs(vs) ** (2 * poly.q)
    c1 = float(np.max(base / pen[:, None]))
    penalty_margin = float(np.max(base - c1 * pen[:, None]))

    return TamingSuiteReport(
        sign_ok=sign_ok,
        dominated_margin=dominated_margin,
        growth_constant=growth_constant,
        approx_margin=approx_margin,
        monotone_tau_ok=monotone_tau_ok,
        monotone_h_ok=monotone_h_ok,
        penalty_c0=c0,
        penalty_c1=c1,
        penalty_margin=penalty_margin,
    )
