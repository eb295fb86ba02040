"""Tamed linearly implicit time stepper for the semilinear SPDE.

One step solves

    (M + tau S) x^m = M x^{m-1} + tau * drift_load(x^{m-1}) + noise_load

so the linear part is implicit (unconditionally stable, no stepsize-ratio
restriction) while the tamed drift is explicit. The shifted matrix is
factorized once per run.

There is one way to step: a Stepper's step_loads on assembled noise
loads, then finish. The scheme knows no noise model and records nothing:
the harness assembles the loads and observes the live state. States are
(n,) or (n, B); everything broadcasts over a trailing batch axis, which
is how the harness runs whole blocks of samples in lockstep.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fem1d
from .drift import eval_f_tamed, taming_factor, validate_params
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


def _tame_quartic_root(u, c):
    """u -> (1 + c u^8)^(1/4) in place, u^8 by repeated squaring (q = 2,
    alpha = 1/4); returns u."""
    u *= u
    u *= u
    u *= u
    u *= c
    u += 1.0
    np.sqrt(u, out=u)
    return np.sqrt(u, out=u)


def _work_layout(n, width, drift):
    """_Work's arrays at n interior nodes and a batch width, as (shape,
    offset) pairs in a buffer of the returned floats: pad, rhs and tmp,
    then vq and fq with a drift, each at a 64-byte line of its own."""
    shapes = [(n + 2, width), (n, width), (n, width)] + ([(4, n + 1, width)] * 2 if drift else [])
    layout, at = [], 0
    for shape in shapes:
        layout.append((shape, at))
        at += -(-math.prod(shape) // 8) * 8
    return layout, at


def _aligned_empty(floats):
    """An uninitialised float array of floats entries on a 64-byte boundary."""
    raw = np.empty(floats + 7)
    skip = -raw.ctypes.data % 64 // 8
    return raw[skip:skip + floats]


def work_buffer(steppers):
    """One 64-byte-aligned work buffer that each of steppers can step in.

    It is sized for the largest; steppers that take turns (one
    step_loads() at a time) share it, whatever their shapes.
    """
    return _aligned_empty(max(_work_layout(*s._x.shape, s.config.drift is not None)[1]
                              for s in steppers))


class _Work:
    """Work arrays for the steps of one step_loads() call, at one batch width.

    The arrays are carved from buf, a work_buffer (a fresh one without
    it), each at a 64-byte line of its own, so where they sit in a cache
    line never depends on what the heap did before. Legs of other shapes
    step in the same buffer between calls, so the pad's two boundary rows
    are zeroed on every call; every other entry is written before it is
    read.
    """

    def __init__(self, n, width, drift, buf=None):
        layout, floats = _work_layout(n, width, drift)
        if buf is None:
            buf = _aligned_empty(floats)
        arrays = [buf[at:at + math.prod(shape)].reshape(shape) for shape, at in layout]
        # the state with its zero boundary, and two (n, B) arrays
        self.pad, self.rhs, self.tmp = arrays[:3]
        self.pad[[0, -1]] = 0.0
        if drift:
            # u at the quad points (the quartic root tames it in place); f(u),
            # then f_tamed(u)
            self.vq, self.fq = arrays[3:]


class Stepper:
    """A run of the scheme over a driving path handed in consecutive chunks.

    From the config's initial state, step_loads() steps once per assembled
    noise load it is handed. Stepping chunk after chunk gives bit for bit
    the state of stepping once over the whole path; x is the live state
    between calls, and finish() returns the final SchemeState. batch
    replicates the initial state: a 1-D state into B columns, a 2-D
    (n, S) state of S starts into S column groups of B, start i in
    columns [i B, (i+1) B). Every group steps on the same (n, B) loads, so
    one stepper runs several starts on one driving path.

    Each step_loads() carves its work arrays from the 64-byte-aligned
    buffer it is handed (work_buffer; a block hands every leg the same
    one), or from a fresh one, and runs every step in them: the tamed
    drift is interpolated, evaluated, tamed and assembled in place on
    quad-major (4, n+1, B) arrays, and the shifted system is solved by the
    cached tridiagonal factorization (whose result is the one array a
    step allocates).
    """

    def __init__(self, config, batch=None):
        self.config = config
        ops = config.ops
        n = ops.mesh.n_interior
        x = np.asarray(config.initial, dtype=float)
        if batch is not None:
            x = np.repeat(x.reshape(n, -1), batch, axis=1)   # start-major
        self._shifted = shifted_operator(config)
        self._x = x.reshape(n, -1).copy()     # the state, one column per path
        self.x = self._x[:, 0] if x.ndim == 1 else self._x    # a view, 1-D for a 1-D start
        M = ops.mass
        # a uniform mesh's M has constant diagonals: M x = main x + off (x
        # shifted down) + off (x shifted up) on the padded state, whose
        # zero boundary rows stand in for the missing neighbours
        main, off = M.main[0], (M.off[0] if len(M.off) else 0.0)
        if np.any(M.main != main) or np.any(M.off != off):
            raise InvalidArgumentError("the stepper needs a mass matrix with constant diagonals")
        self._mass = (main, off)
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
            # a partial, not a bound method: a reference cycle would keep
            # finished steppers alive until the garbage collector runs
            if config.drift.q == 2 and tp.alpha == 0.25:
                c = tp.beta1 * config.tau**tp.theta + tp.beta2 * ops.mesh.h**tp.rho
                self._tame = functools.partial(_tame_quartic_root, c=c)
            else:
                self._tame = functools.partial(taming_factor, config.drift, tp,
                                               config.tau, ops.mesh.h)
        self._m = 0
        self._warned = False

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
        fq /= self._tame(vq)
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
        main, off = self._mass
        # M x first and the load added to it: addition commutes bit for bit.
        # Each group of load.shape[1] columns adds the same load.
        np.multiply(x, main, out=rhs)
        groups = rhs.reshape(len(rhs), -1, load.shape[1])
        groups += load[:, None]
        np.multiply(pad[:-2], off, out=tmp)
        rhs += tmp
        np.multiply(pad[2:], off, out=tmp)
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

    def step_loads(self, loads, work=None):
        """Step once per assembled (n, B) load of loads, shape (steps, n, B).

        work is a work_buffer of this stepper's shape or larger; without
        one, a fresh one is allocated.
        """
        w = _Work(*self._x.shape, self.config.drift is not None, work)
        for load in loads:
            self._step(w, load)

    def finish(self):
        """The final SchemeState."""
        return SchemeState(m=self._m, x=self.x.copy(), t=self._m * self.config.tau)


# unused by the package: benchmarks/tracing.py wraps it until ROADMAP item 1
def run(config, tape_or_increments, n_steps=None):
    """Iterate the scheme over a whole driving path with one Stepper.

    tape_or_increments: a (steps, K[, B]) coefficient array at step tau
    (noise.coarsen_coeffs brings a finer tape to tau), or None for a
    zero-noise run of n_steps. Returns the final state and None, the
    (state, record) pair the benchmark's tracer unpacks.
    """
    if tape_or_increments is None:
        if n_steps is None:
            raise InvalidArgumentError("zero-noise run needs n_steps")
        tape_or_increments = np.zeros((int(n_steps), 1))   # one zero load, every column
    coeffs = np.asarray(tape_or_increments, dtype=float)
    if coeffs.ndim < 2:
        raise InvalidArgumentError("coefficient array must be (steps, K[, B])")
    batch = coeffs.shape[2] if coeffs.ndim == 3 else None
    loadmat = fem1d.sine_load_matrix(config.ops.mesh, coeffs.shape[1])
    stepper = Stepper(config, batch)
    stepper.step_loads(np.matmul(loadmat, coeffs.reshape(*coeffs.shape[:2], -1)))
    return stepper.finish(), None
