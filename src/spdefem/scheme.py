"""Tamed linearly implicit time stepper for the semilinear SPDE.

One step solves

    (M + tau S) x^m = M x^{m-1} + tau * drift_load(x^{m-1}) + noise_load

so the linear part is implicit (unconditionally stable, no stepsize-ratio
restriction) while the tamed drift is explicit. The shifted matrix is
factorized once per run.

There is one way to step: Stepper's noise_loads, step_loads and finish.
States are (n,) or (n, B); everything broadcasts over a trailing batch
axis, which is how the harness runs whole blocks of samples in lockstep.
"""

import functools
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fem1d
from .drift import eval_f_tamed, validate_params
from .errors import InvalidArgumentError, NumericalBlowupError
from .fem1d import QUAD_R, QUAD_W, TriDiagSym, TriFactor
# bound here only for benchmarks/tracing.py to wrap, until ROADMAP item 1
from .fem1d import tridiag_matvec  # noqa: F401
from .noise import coarsen_coeffs  # noqa: F401

SOFT_SUP_NORM_CAP = 1e6


@dataclass(frozen=True)
class SchemeConfig:
    ops: fem1d.FemOperators
    drift: object            # DriftPolynomial or None for a pure heat step
    taming: object           # TamingParams, required when drift is set
    tau: float
    initial: np.ndarray


def make_scheme_config(ops, drift, taming, tau, initial):
    """Validated constructor; prefer this over the raw dataclass."""
    if not tau > 0:
        raise InvalidArgumentError(f"tau must be positive, got {tau}")
    if drift is not None:
        if taming is None:
            raise InvalidArgumentError("taming parameters required with a drift")
        validate_params(drift, taming)
    initial = np.asarray(initial, dtype=float)
    if initial.shape[0] != ops.mesh.n_interior:
        raise InvalidArgumentError(
            f"initial data has {initial.shape[0]} entries for "
            f"{ops.mesh.n_interior} interior nodes"
        )
    if not np.all(np.isfinite(initial)):
        raise InvalidArgumentError("initial data must be finite")
    return SchemeConfig(ops=ops, drift=drift, taming=taming, tau=float(tau),
                        initial=initial)


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


# the fused kernel's oracle; benchmarks/tracing.py wraps it until ROADMAP item 1
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


@dataclass
class RecordSpec:
    """Record observe(ops, x) every stride steps, and at the initial state.

    observe returns one row per quantity and one column per path of x.
    """

    stride: int
    observe: Callable


@dataclass
class ObservableRecord:
    times: np.ndarray
    values: np.ndarray       # (times, quantities, paths); no paths axis for a 1-D state


class _Recorder:
    def __init__(self, ops, spec):
        self.spec = spec
        self.ops = ops
        self.times, self.values = [], []

    def grab(self, t, x):
        self.times.append(t)
        self.values.append(self.spec.observe(self.ops, x))

    def finish(self):
        return ObservableRecord(times=np.array(self.times), values=np.array(self.values))


def _tame_quartic_root(u, c):
    """u -> (1 + c u^8)^(1/4) in place, u^8 by repeated squaring (q = 2, alpha = 1/4)."""
    u *= u
    u *= u
    u *= u
    u *= c
    u += 1.0
    np.sqrt(u, out=u)
    np.sqrt(u, out=u)


def _tame_general(u, c, alpha, expo):
    """u -> (1 + c |u|^expo)^alpha in place: drift.taming_factor, operation for operation."""
    np.abs(u, out=u)
    u **= expo
    u *= c
    u += 1.0
    u **= alpha


class _Work:
    """Work arrays for the steps of one step_loads() call, at one batch width.

    They live for one call, not for the whole run: a block holds one
    stepper per leg, but only one of them advances at a time.
    """

    def __init__(self, n, width, drift):
        self.pad = np.zeros((n + 2, width))       # the state with its zero boundary
        self.rhs = np.empty((n, width))
        self.tmp = np.empty((n, width))
        if drift:
            self.vq = np.empty((4, n + 1, width))   # u at the quad points, then the taming factor
            self.fq = np.empty_like(self.vq)        # f(u), then f_tamed(u)


class Stepper:
    """A run of the scheme over a driving path handed in consecutive chunks.

    From the config's initial state, noise_loads() assembles the loads of
    the next (steps, K[, B]) rows of the path and step_loads() steps on
    them; the two may run apart (the block driver assembles the loads on a
    helper thread). Stepping chunk after chunk gives bit for bit the state
    and record of stepping once over the whole path; finish() returns
    them. batch replicates the initial state: a 1-D state into B columns,
    a 2-D (n, S) state of S starts into S column groups of B, start i in
    columns [i B, (i+1) B). Every group steps on the same (n, B) loads, so
    one stepper runs several starts on one driving path. Recording never
    affects the dynamics.

    Each step_loads() allocates its work arrays once and runs every step
    in them: the tamed drift is interpolated, evaluated, tamed and
    assembled in place on quad-major (4, n+1, B) arrays, and the shifted
    system is solved by the cached tridiagonal factorization (whose
    result is the one array a step allocates).
    """

    def __init__(self, config, K, batch=None, record_spec=None):
        self.config = config
        ops = config.ops
        n = ops.mesh.n_interior
        x = np.asarray(config.initial, dtype=float)
        if batch is not None:
            x = np.repeat(x.reshape(n, -1), batch, axis=1)   # start-major
        self._loadmat = fem1d.sine_load_matrix(ops.mesh, K)
        self._shifted = shifted_operator(config)
        self._x = x.reshape(n, -1).copy()     # the state, one column per path
        self._view = self._x[:, 0] if x.ndim == 1 else self._x   # 1-D for run, ROADMAP item 1
        M = ops.mass
        # M x = main x + lo (x shifted down) + hi (x shifted up), on the padded state
        self._mass = (M.main[:, None], np.r_[0.0, M.off][:, None],
                      np.r_[M.off, 0.0][:, None])
        if config.drift is not None:
            # Horner's coefficients below the leading one, highest first; a
            # 0.0 is None, its addition skipped (it can only turn -0.0 to 0.0)
            coeffs = config.drift.coeffs
            self._lead = coeffs[-1]
            self._lower = tuple(None if c == 0.0 else c for c in coeffs[-2::-1])
            # tau h w_k phi(r_k) for the rising (node e) and falling (node e-1) hats
            self._weights = config.tau * ops.mesh.h * np.stack(
                [QUAD_W * QUAD_R, QUAD_W * (1.0 - QUAD_R)])
            tp = config.taming
            c = tp.beta1 * config.tau**tp.theta + tp.beta2 * ops.mesh.h**tp.rho
            # a partial, not a bound method: a reference cycle would keep
            # finished steppers alive until the garbage collector runs
            if config.drift.q == 2 and tp.alpha == 0.25:
                self._tame = functools.partial(_tame_quartic_root, c=c)
            else:
                self._tame = functools.partial(
                    _tame_general, c=c, alpha=tp.alpha,
                    expo=(2.0 * config.drift.q - 2.0) / tp.alpha)
        self._rec = _Recorder(ops, record_spec) if record_spec is not None else None
        self._m = 0
        self._warned = False
        if self._rec is not None:
            self._rec.grab(0.0, self._view)

    def _drift_from_pad(self, w):
        """tau * drift_load at the state held in w.pad, as (n, B) in w.tmp."""
        pad, vq, fq = w.pad, w.vq, w.fq
        r = QUAD_R[:, None, None]
        np.multiply(pad[None, :-1], 1.0 - r, out=vq)
        np.multiply(pad[None, 1:], r, out=fq)
        vq += fq
        np.multiply(vq, self._lead, out=fq)     # Horner, as in drift.eval_f
        for k, c in enumerate(self._lower):
            if k:
                fq *= vq
            if c is not None:
                fq += c
        self._tame(vq)
        fq /= vq
        # the (2, (n+1)B) element loads overwrite the first half of vq
        loads = vq.reshape(4, -1)[:2]
        np.matmul(self._weights, fq.reshape(4, -1), out=loads)
        loads = loads.reshape(2, *vq.shape[1:])
        # element e feeds its rising part to node e and its falling part to node e-1
        return np.add(loads[0, :-1], loads[1, 1:], out=w.tmp)

    def _step(self, w, load):
        # load (n, B) is only read: one load set may drive several legs
        config, x, pad, rhs, tmp = self.config, self._x, w.pad, w.rhs, w.tmp
        pad[1:-1] = x
        main, lo, hi = self._mass
        # M x first and the load added to it: addition commutes bit for bit.
        # Each group of load.shape[1] columns adds the same load.
        np.multiply(x, main, out=rhs)
        groups = rhs.reshape(len(rhs), -1, load.shape[1])
        groups += load[:, None]
        np.multiply(pad[:-2], lo, out=tmp)
        rhs += tmp
        np.multiply(pad[2:], hi, out=tmp)
        rhs += tmp
        if config.drift is not None:
            rhs += self._drift_from_pad(w)
        x[...] = self._shifted.solve(rhs)
        self._m = m = self._m + 1
        sup = max(x.max(), -x.min())
        if not np.isfinite(sup):
            raise NumericalBlowupError(m, sup)
        if sup > SOFT_SUP_NORM_CAP and not self._warned:
            warnings.warn(
                f"state sup norm {sup:.3g} at step {m}; "
                "taming normally keeps iterates far below this",
                RuntimeWarning, stacklevel=3,
            )
            self._warned = True
        if self._rec is not None and m % self._rec.spec.stride == 0:
            self._rec.grab(m * config.tau, self._view)

    def noise_loads(self, coeffs, out=None):
        """The noise loads of (steps, K) or (steps, K, B) path rows, as (steps, n, B).

        One stacked product with the sine load matrix, written into out when
        given. It reads nothing the steps change, so another thread may
        assemble the next chunk's loads while this stepper steps.
        """
        coeffs = np.reshape(coeffs, (*np.shape(coeffs)[:2], -1))
        return np.matmul(self._loadmat, coeffs, out=out)

    def step_loads(self, loads):
        """Step once per assembled (n, B) load of loads, shape (steps, n, B)."""
        w = _Work(*self._x.shape, self.config.drift is not None)
        for load in loads:
            self._step(w, load)

    def finish(self):
        """The final state and the ObservableRecord (None without a record_spec)."""
        state = SchemeState(m=self._m, x=self._view.copy(), t=self._m * self.config.tau)
        return state, (self._rec.finish() if self._rec is not None else None)


# unused by the package: benchmarks/tracing.py wraps it until ROADMAP item 1
def run(config, tape_or_increments, record_spec=None, n_steps=None):
    """Iterate the scheme over a whole driving path with one Stepper.

    tape_or_increments: a (steps, K[, B]) coefficient array at step tau
    (noise.coarsen_coeffs brings a finer tape to tau), or None for a
    zero-noise run of n_steps. Returns the final state and the
    ObservableRecord (None if no record_spec given).
    """
    if tape_or_increments is None:
        if n_steps is None:
            raise InvalidArgumentError("zero-noise run needs n_steps")
        tape_or_increments = np.zeros((int(n_steps), 1))   # one zero load, every column
    coeffs = np.asarray(tape_or_increments, dtype=float)
    if coeffs.ndim < 2:
        raise InvalidArgumentError("coefficient array must be (steps, K[, B])")
    batch = coeffs.shape[2] if coeffs.ndim == 3 else None
    stepper = Stepper(config, coeffs.shape[1], batch, record_spec)
    stepper.step_loads(stepper.noise_loads(coeffs))
    return stepper.finish()
