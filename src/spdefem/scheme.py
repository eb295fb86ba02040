"""Tamed linearly implicit time stepper for the semilinear SPDE.

One step solves

    (M + tau S) x^m = M x^{m-1} + tau * drift_load(x^{m-1}) + noise_load

so the linear part is implicit (unconditionally stable, no stepsize-ratio
restriction) while the tamed drift is explicit. The shifted matrix is
factorized once per run.

State vectors may be (n,) or (n, B); everything broadcasts over a
trailing batch axis, which is how the Monte Carlo harness runs whole
blocks of samples in lockstep.
"""

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import fem1d
from .drift import eval_f_tamed, one_sided_constant, validate_params
from .errors import InvalidArgumentError, NumericalBlowupError
from .fem1d import TriDiagSym, TriFactor, tridiag_matvec
from .noise import PathTape, coarsen_coeffs

SOFT_SUP_NORM_CAP = 1e6


@dataclass(frozen=True)
class SchemeConfig:
    ops: fem1d.FemOperators
    drift: object            # DriftPolynomial or None for a pure heat step
    taming: object           # TamingParams, required when drift is set
    tau: float
    initial: np.ndarray
    contraction: Optional[bool] = None  # L_f < lambda_{1,h}, None without drift


def make_scheme_config(ops, drift, taming, tau, initial):
    """Validated constructor; prefer this over the raw dataclass."""
    if not tau > 0:
        raise InvalidArgumentError(f"tau must be positive, got {tau}")
    contraction = None
    if drift is not None:
        if taming is None:
            raise InvalidArgumentError("taming parameters required with a drift")
        validate_params(drift, taming)
        lam1 = fem1d.uniform_mesh_eigenvalue(ops.mesh, 1)
        contraction = bool(one_sided_constant(drift).L_f < lam1)
    initial = np.asarray(initial, dtype=float)
    if initial.shape[0] != ops.mesh.n_interior:
        raise InvalidArgumentError(
            f"initial data has {initial.shape[0]} entries for "
            f"{ops.mesh.n_interior} interior nodes"
        )
    if not np.all(np.isfinite(initial)):
        raise InvalidArgumentError("initial data must be finite")
    return SchemeConfig(ops=ops, drift=drift, taming=taming, tau=float(tau),
                        initial=initial, contraction=contraction)


@dataclass(frozen=True)
class SchemeState:
    m: int
    x: np.ndarray
    t: float


def shifted_tridiag(ops, tau):
    M, S = ops.mass, ops.stiffness
    return TriDiagSym(M.dim, M.main + tau * S.main, M.off + tau * S.off)


def shifted_operator(config):
    """Factorization of M + tau S, reused across all steps of a run."""
    return TriFactor(shifted_tridiag(config.ops, config.tau))


def drift_load(config, x):
    """Load vector of the tamed drift at the current state.

    Integrates f_{tau,h}(interpolant of x) against each hat function with
    the module-wide quadrature rule. The taming uses the config's (tau, h)
    frozen at construction.
    """
    mesh = config.ops.mesh
    x = np.asarray(x, dtype=float)
    if config.drift is None:
        return np.zeros(x.shape)
    vq = fem1d.interpolant_at_quad(mesh, x)
    fq = eval_f_tamed(config.drift, config.taming, config.tau, mesh.h, vq)
    return fem1d.quad_load(mesh, fq)


def _advance(config, shifted, x, inc_load, step_index):
    rhs = tridiag_matvec(config.ops.mass, x)
    if config.drift is not None:
        rhs += config.tau * drift_load(config, x)
    rhs = rhs + inc_load
    x1 = shifted.solve(rhs)
    if not np.all(np.isfinite(x1)):
        raise NumericalBlowupError(step_index, np.max(np.abs(x1)))
    return x1


def step(config, state, inc_load, shifted=None):
    """Advance one step. inc_load is the assembled noise load vector."""
    inc_load = np.asarray(inc_load, dtype=float)
    if inc_load.shape[0] != config.ops.mesh.n_interior:
        raise InvalidArgumentError("noise load does not match the mesh")
    if shifted is None:
        shifted = shifted_operator(config)
    x1 = _advance(config, shifted, state.x, inc_load, state.m + 1)
    sup = np.max(np.abs(x1))
    if sup > SOFT_SUP_NORM_CAP:
        warnings.warn(
            f"state sup norm {sup:.3g} at step {state.m + 1}; "
            "taming normally keeps iterates far below this",
            RuntimeWarning, stacklevel=2,
        )
    return SchemeState(m=state.m + 1, x=x1, t=(state.m + 1) * config.tau)


@dataclass
class RecordSpec:
    """What to record along a trajectory and how often."""

    stride: int = 1
    norms: bool = True                 # L2, L4 and L^{2q(2q-1)} norms
    gamma: Optional[float] = None      # fractional seminorm order, None = skip
    spectrum: object = None            # DiscreteSpectrum, computed lazily if needed
    phi: Optional[Callable] = None     # called as phi(x, l2_sq)


@dataclass
class ObservableRecord:
    times: np.ndarray
    l2: np.ndarray
    l4: Optional[np.ndarray] = None
    l_high: Optional[np.ndarray] = None     # L^{2q(2q-1)} norm
    hgamma_sq: Optional[np.ndarray] = None  # squared H^gamma seminorm
    phi: Optional[np.ndarray] = None
    gamma: Optional[float] = None
    stride: int = 1


class _Recorder:
    def __init__(self, config, spec):
        self.spec = spec
        self.config = config
        self.ops = config.ops
        self.high_p = None
        if spec.norms and config.drift is not None:
            q = config.drift.q
            self.high_p = 2 * q * (2 * q - 1)
        self.spectrum = spec.spectrum
        if spec.gamma is not None and self.spectrum is None and spec.gamma != 1.0:
            self.spectrum = fem1d.discrete_spectrum(config.ops)
        self.times, self.l2, self.l4, self.lh, self.hg, self.ph = [], [], [], [], [], []

    def grab(self, t, x):
        l2sq = fem1d.l2_norm_sq_mass(self.ops, x)
        self.times.append(t)
        self.l2.append(np.sqrt(l2sq))
        if self.spec.norms:
            self.l4.append(fem1d.lp_norm(self.ops.mesh, x, 4))
            if self.high_p is not None:
                self.lh.append(fem1d.lp_norm(self.ops.mesh, x, self.high_p))
        if self.spec.gamma is not None:
            if self.spec.gamma == 1.0 and self.spectrum is None:
                hg = np.einsum("i...,i...->...", x,
                               tridiag_matvec(self.ops.stiffness, x))
            else:
                hg = fem1d.fractional_seminorm_sq(self.spectrum, self.ops,
                                                  self.spec.gamma, x)
            self.hg.append(hg)
        if self.spec.phi is not None:
            self.ph.append(self.spec.phi(x, l2sq))

    def finish(self):
        pack = lambda rows: np.array(rows) if rows else None
        return ObservableRecord(
            times=np.array(self.times),
            l2=np.array(self.l2),
            l4=pack(self.l4),
            l_high=pack(self.lh),
            hgamma_sq=pack(self.hg),
            phi=pack(self.ph),
            gamma=self.spec.gamma,
            stride=self.spec.stride,
        )


def _normalize_increments(config, tape_or_increments, n_steps):
    """Return the (steps, K[, B]) coefficient array driving the run."""
    src = tape_or_increments
    if src is None:
        if n_steps is None:
            raise InvalidArgumentError("zero-noise run needs n_steps")
        return np.zeros((int(n_steps), 1))
    if isinstance(src, PathTape):
        ratio = config.tau / src.tau
        factor = int(round(ratio))
        if factor < 1 or abs(ratio - factor) > 1e-9 or factor & (factor - 1):
            raise InvalidArgumentError(
                f"tape step {src.tau} is not a power-of-two refinement of tau={config.tau}"
            )
        return coarsen_coeffs(src.coeffs, factor)
    arr = np.asarray(src, dtype=float)
    if arr.ndim < 2:
        raise InvalidArgumentError("coefficient array must be (steps, K[, B])")
    return arr


class Stepper:
    """A run of the scheme over a driving path handed in consecutive chunks.

    advance() takes the next (steps, K[, B]) rows of the path; advancing
    chunk after chunk gives bit for bit the state and record of advancing
    once over the whole path. batch replicates a 1-D initial state into
    B columns. Recording never affects the dynamics.
    """

    def __init__(self, config, K, batch=None, record_spec=None):
        self.config = config
        self._loadmat = fem1d.sine_load_matrix(config.ops.mesh, K)
        self._shifted = shifted_operator(config)
        self._rec = _Recorder(config, record_spec) if record_spec is not None else None
        x = np.asarray(config.initial, dtype=float)
        if batch is not None and x.ndim == 1:
            x = np.repeat(x[:, None], batch, axis=1)
        self._x = x
        self._m = 0
        self._warned = False
        if self._rec is not None:
            self._rec.grab(0.0, x)

    def advance(self, coeffs):
        config, x, m = self.config, self._x, self._m
        for row in coeffs:
            m += 1
            x = _advance(config, self._shifted, x, self._loadmat @ row, m)
            if not self._warned:
                sup = np.max(np.abs(x))
                if sup > SOFT_SUP_NORM_CAP:
                    warnings.warn(
                        f"state sup norm {sup:.3g} at step {m}",
                        RuntimeWarning, stacklevel=2,
                    )
                    self._warned = True
            if self._rec is not None and m % self._rec.spec.stride == 0:
                self._rec.grab(m * config.tau, x)
        self._x, self._m = x, m

    def finish(self):
        """The final state and the ObservableRecord (None without a record_spec)."""
        state = SchemeState(m=self._m, x=self._x, t=self._m * self.config.tau)
        return state, (self._rec.finish() if self._rec is not None else None)


def run(config, tape_or_increments, record_spec=None, n_steps=None):
    """Iterate the scheme over a whole driving path.

    tape_or_increments: PathTape (auto-coarsened to tau), a raw
    (steps, K[, B]) coefficient array, or None for a zero-noise run of
    n_steps. Returns the final state and the ObservableRecord (None if no
    record_spec given). Recording never affects the dynamics.
    """
    coeffs = _normalize_increments(config, tape_or_increments, n_steps)
    batch = coeffs.shape[2] if coeffs.ndim == 3 else None
    stepper = Stepper(config, coeffs.shape[1], batch, record_spec)
    stepper.advance(coeffs)
    return stepper.finish()
