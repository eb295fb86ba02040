"""Monte Carlo study drivers: strong/weak rates, equilibration, moments.

Reproducibility contract: a study is a pure function of its StudyConfig.
Samples are processed in fixed blocks of 64 (the batch axis of the
vectorized stepper), each block is a deterministic function of (config,
block index), and blocks are reduced in index order. Worker processes
only distribute whole blocks, so results are bit-identical for any
worker count. Per-sample randomness is keyed by (master_seed, stream,
sample_index) through the counter-based generator in the noise module;
nothing depends on scheduling.

Division of labour: the harness draws the noise, assembles its loads and
observes what a study records; scheme.Stepper only steps on the loads.

Validation contract: StudyConfig is the one place that decides whether a
study can run. Building one rejects every config its study could not run
to the end, so a study never fails on its config after its first step,
and the study functions carry no config checks of their own.
"""

import contextlib
import functools
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import get_context
from typing import NamedTuple, Optional

import numpy as np
import scipy

from . import __version__, fem1d, noise, scheme
from .drift import one_sided_constant, taming_inequality_suite, validate_params
from .errors import CapacityError, InvalidArgumentError
from .smoothing_lab import rate_fit, rough_initial, smoothing_error

BLOCK = 64
ROUGH_MODES = 256      # sine modes of the smoothing study's rough data


def _sin_pi4_minus_l2sq(x, l2sq):
    return np.sin(np.pi / 4.0 - l2sq)


def _l2sq(x, l2sq):
    return l2sq


# module-level functions, so a Leg's record holding one (through a partial
# of an observer below) pickles for workers
OBSERVABLES = {
    "sin_pi4_minus_l2sq": _sin_pi4_minus_l2sq,
    "l2sq": _l2sq,
}
DEFAULT_OBSERVABLE = "sin_pi4_minus_l2sq"
MOMENTS = ("l2_sq", "l4_4", "hgamma_sq")


# fem1d's norms are looked up at call time, so benchmarks/tracing.py's
# wrappers attribute their time
def _observe_phi(ops, x, phi):
    """The equilibration's record: phi(x, |x|_M^2)."""
    return [phi(x, fem1d.l2_norm_sq_mass(ops, x))]


def _observe_moments(ops, x, gamma):
    """The moment study's record in MOMENTS order: |x|_L2^2, |x|_L4^4, |x|_H^gamma^2."""
    return [fem1d.l2_norm_sq_mass(ops, x), fem1d.lp_norm(ops.mesh, x, 4) ** 4,
            fem1d.fractional_seminorm_sq(ops, gamma, x)]


# fitted-order acceptance windows by (kind, axis, white-noise?). For additive
# noise the strong temporal order is gamma/2 with gamma < s + 1/2 (gamma = 1/2
# for white noise, gamma = 1 for s = 0.5005), so the strong windows centre
# on gamma/2; the weak order is gamma.
DEFAULT_WINDOWS = {
    ("strong_rate", "tau", True): (0.1, 0.4),
    ("strong_rate", "tau", False): (0.3, 0.7),
    ("weak_rate", "tau", True): (0.3, 0.8),
    ("weak_rate", "tau", False): (0.7, 1.3),
    ("smoothing", "tau", None): (0.85, None),
    ("smoothing", "h", None): (1.7, None),
}


# the kinds that fit a rate over their grid, and the recorded kinds' window
# [frac T, T] with the fewest recorded times it must hold
RATE_KINDS = ("strong_rate", "weak_rate", "smoothing")
RECORD_WINDOWS = {"equilibrate": (0.75, 1), "longtime": (0.5, 2)}


def _require(ok, msg):
    if not ok:
        raise InvalidArgumentError(msg)


def _finite(*vals):
    return all(math.isfinite(v) for v in vals)


@dataclass(frozen=True)
class Resolution:
    """tau = T / 2^m, h = L / 2^h_exp (so n_interior = 2^h_exp - 1)."""

    m: int
    h_exp: int


@dataclass(frozen=True)
class StudyConfig:
    """What a study runs on. Building one, by dataclasses.replace too,
    raises InvalidArgumentError (ConstraintError for the taming exponents)
    naming the document field for any config its study could not run."""

    kind: str
    L: float
    drift: object                      # DriftPolynomial or None
    taming: object                     # TamingParams or None
    initial_modes: Optional[tuple]     # ((j, amp), ...) raw sine amplitudes; None = zero
    s: Optional[float]                 # noise decay; None = no noise
    K: Optional[int]                   # truncation; None = finest-mesh default
    grid: tuple                        # tuple of Resolution
    reference: Optional[Resolution]
    T: float
    samples: int
    seed: int
    stride: int = 1
    observable: str = DEFAULT_OBSERVABLE
    crn_tapes: bool = False            # weak studies: share tapes across resolutions
    workers: int = 1
    initials: Optional[tuple] = None   # equilibration: tuple of initial_modes specs
    times: tuple = (1.0,)              # smoothing: measurement times
    p: float = 2.0                     # smoothing: norm exponent
    window: Optional[tuple] = None     # fitted-order window override

    def __post_init__(self):
        kind, grid, ref, times = self.kind, self.grid, self.reference, self.times
        _require(_finite(self.L) and self.L > 0,
                 f"problem.L must be finite and positive, got {self.L}")
        _require((self.drift is None) == (self.taming is None),
                 "problem.taming and problem.drift_coeffs go together")
        if self.drift is not None:
            validate_params(self.drift, self.taming)
        starts = {"problem.initial": self.initial_modes}
        starts.update((f"study.initials[{i}]", m) for i, m in enumerate(self.initials or ()))
        jmax = noise.MAX_TAPE_FLOATS      # _initial_vector holds jmax coefficients
        for where, modes in starts.items():
            _require(modes is None or modes and all(1 <= j <= jmax and _finite(a)
                                                    for j, a in modes),
                     f"{where}.modes must be [1 <= j <= {jmax}, finite amp] pairs, "
                     f"got {modes}")
        _require(_finite(self.T) and self.T > 0,
                 f"study.T must be finite and positive, got {self.T}")
        _require(grid and all(r.m >= 0 and r.h_exp >= 1 for r in grid),
                 f"study.grid must be a non-empty list of [m >= 0, h_exp >= 1], got {grid}")
        _require(ref is not None or kind not in ("strong_rate", "weak_rate"),
                 f"study.reference is required for {kind}")
        _require(ref is None or all(ref != r and ref.m >= r.m and ref.h_exp >= r.h_exp
                                    for r in grid),
                 "study.reference must be strictly finer than every study.grid entry")
        _require(kind not in RATE_KINDS or len(grid) >= 3 and _fit_axis(self),
                 "study.grid of a rate fit needs >= 3 entries varying exactly one of "
                 f"(m, h_exp), got {[[r.m, r.h_exp] for r in grid]}")
        _require(self.samples >= 1, f"study.samples must be >= 1, got {self.samples}")
        _require(self.stride >= 1, f"study.stride must be >= 1, got {self.stride}")
        _require(self.workers >= 1, f"need workers >= 1, got {self.workers}")
        # the Philox key is an unsigned 64-bit integer
        _require(0 <= self.seed < 2**64, f"study.seed must lie in [0, 2^64), got {self.seed}")
        _require(self.observable in OBSERVABLES,
                 f"study.observable must be one of {sorted(OBSERVABLES)}")
        lo, hi = self.window or (0.0, None)
        _require(_finite(lo) and (hi is None or _finite(hi) and lo <= hi),
                 f"study.window ends must be finite and low <= high, got {self.window}")
        _require(self.p >= 2, f"study.p must lie in [2, inf], got {self.p}")
        try:
            model = noise_model_for(self)
        except InvalidArgumentError as e:
            raise InvalidArgumentError(f"noise.{e}") from e
        if model is not None and model.K * BLOCK > noise.MAX_TAPE_FLOATS:
            # one tape row of a full block alone would exceed the tape budget
            default = "" if self.K else f" (default 2^h_exp - 1, h_exp {_finest_h_exp(self)})"
            raise InvalidArgumentError(
                f"noise.K must be <= MAX_TAPE_FLOATS / {BLOCK} = "
                f"{noise.MAX_TAPE_FLOATS // BLOCK}, got {model.K}{default}")
        if kind == "smoothing":
            _require(times and _finite(*times) and times[0] > 0
                     and all(a < b for a, b in zip(times, times[1:])),
                     "study.times must be finite, positive and strictly increasing, "
                     f"got {list(times)}")
            for r in grid:
                n = np.divide(times, _tau_for(self, r))
                _require(np.all(abs(n - n.round()) <= 1e-9),
                         f"study.times {list(times)} are not all step multiples of "
                         f"tau = {_tau_for(self, r)} (study.grid entry [{r.m}, {r.h_exp}])")
        if kind in RECORD_WINDOWS:
            _require(len(grid) == 1, f"study.grid of {kind} must hold one resolution")
            held = np.count_nonzero(_record_window(self)[1])
            least = RECORD_WINDOWS[kind][1]
            _require(held >= least,
                     f"study.stride {self.stride} records {held} time(s) in "
                     f"[{_window_start(self):g}, {self.T:g}], fewer than the {least} "
                     "the study needs")
        if kind == "equilibrate":
            _require(self.initials, "study.initials is required for equilibrate")
            lam1 = fem1d.uniform_mesh_eigenvalue(_mesh_for(self, grid[0]), 1)
            _require(self.drift is None or one_sided_constant(self.drift) < lam1,
                     "problem.drift_coeffs: equilibrate needs the contraction regime "
                     f"L_f < lambda_1 = {lam1:.6g}")
        _require(kind != "taming_check" or self.drift is not None,
                 "taming_check needs problem.drift_coeffs")


# ---------------------------------------------------------------- runtime

def _mesh_for(cfg, res):
    return fem1d.build_mesh(cfg.L, 2**res.h_exp - 1)


def _tau_for(cfg, res):
    return cfg.T / 2**res.m


def _finest_h_exp(cfg):
    entries = list(cfg.grid) + ([cfg.reference] if cfg.reference else [])
    return max(r.h_exp for r in entries)


def noise_model_for(cfg):
    if cfg.s is None:
        return None
    K = cfg.K if cfg.K is not None else 2 ** _finest_h_exp(cfg) - 1
    return noise.make_noise_model(cfg.s, K, cfg.L)


def _initial_vector(cfg, ops, modes):
    if modes is None:
        return np.zeros(ops.mesh.n_interior)
    jmax = max(int(j) for j, _ in modes)
    c = np.zeros(jmax)
    for j, amp in modes:
        # raw sine amplitude -> coefficient against the orthonormal basis
        c[int(j) - 1] += amp * math.sqrt(cfg.L / 2.0)
    return fem1d.project_sine_coeffs(ops, c)


def _block_range(cfg, b):
    lo = b * BLOCK
    hi = min(lo + BLOCK, cfg.samples)
    return range(lo, hi)


def _n_blocks(cfg):
    return (cfg.samples + BLOCK - 1) // BLOCK


def _fill_loads(sampler, tape, loadmats, check_coupling, k, out):
    """Assemble chunk k's noise loads into out, a load set.

    Draws the chunk into tape, coarsens it once per distinct factor, and
    fills out[(h_exp, factor)] with one stacked product of loadmats[h_exp],
    the sine load matrix of that mesh, and the coarsened chunk.
    """
    sampler.fill(tape)
    coarse = {f: noise.coarsen_coeffs(tape, f)
              for f in dict.fromkeys(f for _, f in out)}
    if check_coupling and k == 0:
        # re-assert the coupling invariant: children sum to parents
        for f, c in coarse.items():
            assert np.array_equal(c[0], tape[:f].sum(axis=0))
    for (h, f), loads in out.items():
        np.matmul(loadmats[h], coarse[f], out=loads)


def _load_chunks(fill, sets, n_chunks):
    """Yield a stream's n_chunks consecutive load sets.

    With fill, the two load sets in sets take turns: while the caller
    steps on one, one helper thread runs fill(k + 1, other) to draw,
    coarsen and assemble the next chunk. The Philox draw, the inverse
    CDF, the sums and the products release the GIL, so the two overlap;
    the helper draws every stream in order, so each number is the one a
    serial run gives. A yielded set stays valid until the next one is
    requested. Without fill (no noise) sets holds one set of zeros,
    yielded every time, and no thread starts. Close the generator
    (contextlib.closing) to join the helper when the caller stops early.
    """
    if fill is None:
        for _ in range(n_chunks):
            yield sets[0]
        return
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(fill, 0, sets[0])
        for k in range(n_chunks):
            pending.result()
            if k + 1 < n_chunks:
                pending = helper.submit(fill, k + 1, sets[(k + 1) % 2])
            yield sets[k % 2]


def _map_blocks(cfg, fn, n_blocks):
    bound = functools.partial(fn, cfg)
    if cfg.workers > 1 and n_blocks > 1:
        ctx = get_context("spawn")
        with ProcessPoolExecutor(max_workers=min(cfg.workers, n_blocks),
                                 mp_context=ctx) as ex:
            return list(ex.map(bound, range(n_blocks)))
    return [bound(b) for b in range(n_blocks)]


class Leg(NamedTuple):
    """One scheme run per sample and start of a block."""

    res: Resolution
    stream: int                        # noise stream id of the driving tape
    starts: tuple                      # initial sine modes per start; None = zero
    # (stride, observe): observe(ops, x), one row per quantity and one column
    # per path, at the start and every stride steps; None = the final state
    record: Optional[tuple] = None


def _step_recorded(stepper, loads, done, record, ops, rows):
    """Step a recorded leg through one chunk of loads, done steps into its run.

    Steps in segments that end at the multiples of the stride counted over
    the whole run, and appends observe(ops, stepper.x) after each.
    """
    stride, observe = record
    lo = 0
    for hi in range(stride - done % stride, len(loads) + 1, stride):
        stepper.step_loads(loads[lo:hi])
        rows.append(observe(ops, stepper.x))
        lo = hi
    if lo < len(loads):
        stepper.step_loads(loads[lo:])


def _paths_block(cfg, b, legs):
    """Run every leg on the samples of block b; one result per leg, in order.

    Each stream's tape is drawn at the finest m among its legs, in chunks
    of noise.chunk_rows fine rows, and every leg on that stream steps
    through each chunk in lockstep on an exact coarsening of it, so all
    resolutions of one sample see the same driving path and no whole tape
    is ever held. A helper thread turns the next chunk into noise loads
    while the legs step the current one (_load_chunks): it draws the
    chunk, coarsens it once per distinct factor and assembles one load
    set per distinct (mesh, factor) with that mesh's sine load matrix,
    one per mesh and block; every leg of that shape steps on the set. The
    helper touches no stepper, and the tape buffer and both load sets
    share the noise.MAX_TAPE_FLOATS budget.

    A leg's starts are the column groups of one stepper: its (n, S)
    initial state, one column per start, steps as an (n, S bs) state on
    the leg's (n, bs) loads, so S starts cost one tridiagonal solve a
    step. A leg yields its final (n, S bs) state, or when it records its
    observations as a (times, quantities, S bs) array; start i holds
    columns [i bs, (i+1) bs).
    """
    model = noise_model_for(cfg)
    K = 1 if model is None else model.K
    idx = list(_block_range(cfg, b))
    bs = len(idx)
    ops, steppers, records = {}, [], {}
    for i, leg in enumerate(legs):
        if leg.res.h_exp not in ops:
            ops[leg.res.h_exp] = fem1d.assemble_operators(_mesh_for(cfg, leg.res))
        o = ops[leg.res.h_exp]
        x0 = np.stack([_initial_vector(cfg, o, modes) for modes in leg.starts], axis=1)
        sc = scheme.make_scheme_config(o, cfg.drift, cfg.taming,
                                       _tau_for(cfg, leg.res), x0)
        steppers.append(scheme.Stepper(sc, bs))
        if leg.record is not None:
            records[i] = [leg.record[1](o, steppers[i].x)]
    loadmats = {} if model is None else {
        h: fem1d.sine_load_matrix(o.mesh, K) for h, o in ops.items()}
    for stream in dict.fromkeys(leg.stream for leg in legs):
        m = max(leg.res.m for leg in legs if leg.stream == stream)
        # leg i steps on the load set of its (mesh, coarsening factor)
        keys = {i: (leg.res.h_exp, 2 ** (m - leg.res.m))
                for i, leg in enumerate(legs) if leg.stream == stream}
        distinct = dict.fromkeys(keys.values())
        # a fine row of the tape buffer and of both load sets together
        row_floats = K * bs + 2 * sum((2**h - 1) * bs / f for h, f in distinct)
        rows = noise.chunk_rows(2**m, row_floats, max(f for _, f in distinct))
        shapes = {(h, f): (rows // f, 2**h - 1, bs) for h, f in distinct}
        if model is None:
            fill = None
            sets = [{key: np.broadcast_to(0.0, shape) for key, shape in shapes.items()}]
        else:
            sampler = noise.BlockSampler(
                model, cfg.seed, cfg.T / 2**m,
                [noise.stream_context(stream, sidx) for sidx in idx])
            fill = functools.partial(_fill_loads, sampler, np.empty((rows, K, bs)),
                                     loadmats, b == 0)
            sets = [{key: np.empty(shape) for key, shape in shapes.items()}
                    for _ in range(2)]
        chunks = _load_chunks(fill, sets, 2**m // rows)
        with contextlib.closing(chunks):
            for k, loads in enumerate(chunks):
                for i, key in keys.items():
                    if i in records:
                        _step_recorded(steppers[i], loads[key], k * len(loads[key]),
                                       legs[i].record, ops[key[0]], records[i])
                    else:
                        steppers[i].step_loads(loads[key])
    return [np.array(records[i]) if i in records else stepper.finish().x
            for i, stepper in enumerate(steppers)]


def _run_legs(cfg, legs, per_sample):
    """per_sample of each block's leg results, an array with one sample per
    entry of its last axis, joined on that axis over blocks in index order."""
    blocks = _map_blocks(cfg, functools.partial(_paths_block, legs=tuple(legs)),
                         _n_blocks(cfg))
    return np.concatenate([per_sample(blk) for blk in blocks], axis=-1)


def _mean_se(a):
    """Mean and standard error over the last (sample) axis; 0 error for one sample."""
    n = a.shape[-1]
    mean = a.mean(axis=-1)
    se = a.std(axis=-1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    return mean, se


def _window_start(cfg):
    return RECORD_WINDOWS[cfg.kind][0] * cfg.T


def _record_window(cfg):
    """A recorded study's recorded times and their mask of its window."""
    times = np.arange(0, 2**cfg.grid[0].m + 1, cfg.stride) * _tau_for(cfg, cfg.grid[0])
    return times, times >= _window_start(cfg) - 1e-12


def _recorded(cfg, leg):
    """Run a recorded study's one leg.

    Returns its recorded times, their mask of the study's window and its
    values as (times, quantities, starts, samples).
    """
    times, sel = _record_window(cfg)

    def per_sample(blk):
        vals = blk[0]
        assert len(vals) == len(times)
        return vals.reshape(*vals.shape[:2], len(leg.starts), -1)

    return times, sel, _run_legs(cfg, [leg], per_sample)


def _versions():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "spdefem": __version__,
    }


def _metadata(cfg, model, wall_time):
    return {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "sampler": noise.SAMPLER_IDENTITY,
        "K": None if model is None else model.K,
        "s": cfg.s,
        "gamma_report": None if model is None else model.gamma_report,
        "samples": cfg.samples,
        "workers": cfg.workers,
        "T": cfg.T,
        "grid": [[r.m, r.h_exp] for r in cfg.grid],
        "reference": None if cfg.reference is None else
                     [cfg.reference.m, cfg.reference.h_exp],
        "observable": cfg.observable,
        "crn_tapes": cfg.crn_tapes,
        "versions": _versions(),
        "wall_time_s": wall_time,
    }


def _fit_axis(cfg):
    """The axis the grid varies along, or None unless it varies exactly one."""
    hs = {r.h_exp for r in cfg.grid}
    ms = {r.m for r in cfg.grid}
    if len(hs) == 1 and len(ms) > 1:
        return "tau"
    if len(ms) == 1 and len(hs) > 1:
        return "h"
    return None


def _window_for(cfg, axis):
    if cfg.window is not None:
        return tuple(cfg.window)
    if cfg.kind == "smoothing":
        white = None
    else:
        white = cfg.s == 0 if cfg.s is not None else None
    return DEFAULT_WINDOWS.get((cfg.kind, axis, white))


# Every report lays itself out: rows() gives the CSV (one dict per row, keys
# in column order), summary() the summary.json document before it is made
# JSON-safe, and outcome() the one line printed after the study kind.

def _fit_outcome(rep):
    w = "" if rep.window is None else f" window={list(rep.window)}"
    return (f"fitted order {rep.fitted_order:.4f} +/- {rep.fit_stderr:.4f}{w} "
            f"passed={rep.passed}")


def _time_rows(times, columns):
    """One row per recorded time: t, then each named series at that time."""
    names = ["t", *columns]
    return [dict(zip(names, vals)) for vals in
            zip(times.tolist(), *(c.tolist() for c in columns.values()))]


@dataclass
class RateReport:
    resolutions: tuple
    taus: np.ndarray
    hs: np.ndarray
    errors: np.ndarray
    stderrs: np.ndarray
    axis: str
    fitted_order: float
    fit_stderr: float
    window: Optional[tuple]
    passed: Optional[bool]
    flags: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def rows(self):
        samples = self.metadata["samples"]
        return [{"resolution_m": res.m, "resolution_h": h, "error": err,
                 "stderr": se, "samples": samples}
                for res, h, err, se in zip(self.resolutions, self.hs,
                                           self.errors, self.stderrs)]

    def summary(self):
        return {
            "kind": self.metadata.get("kind"),
            "fitted_order": self.fitted_order,
            "fit_stderr": self.fit_stderr,
            "window": self.window,
            "passed": self.passed,
            "axis": self.axis,
            "resolutions": [[r.m, r.h_exp] for r in self.resolutions],
            "taus": self.taus,
            "hs": self.hs,
            "errors": self.errors,
            "stderrs": self.stderrs,
            "flags": self.flags,
            "metadata": self.metadata,
        }

    outcome = _fit_outcome


def fit_report(cfg, errors, stderrs, metadata, flags=None):
    """Assemble a RateReport from per-resolution errors; a zero error
    flags it degenerate and zero_error, with a nan order (no log-log fit).

    Also the test hook: feed synthetic errors through the same fitting
    and pass/fail logic the real studies use.
    """
    axis = _fit_axis(cfg)
    taus = np.array([_tau_for(cfg, r) for r in cfg.grid])
    hs = np.array([cfg.L / 2**r.h_exp for r in cfg.grid])
    res_axis = taus if axis == "tau" else hs
    errors = np.asarray(errors, dtype=float)
    stderrs = np.asarray(stderrs, dtype=float)
    flags = dict(flags or {})
    if np.any(errors <= 0) and not flags.get("degenerate"):
        flags["degenerate"] = True
        flags["zero_error"] = True
    window = _window_for(cfg, axis)
    passed = None
    if flags.get("degenerate"):
        order, stderr = float("nan"), float("nan")
    else:
        fit = rate_fit(list(zip(res_axis, errors)))
        order, stderr = fit.slope, fit.stderr
        if window is not None:
            lo, hi = window
            passed = bool(order >= lo and (hi is None or order <= hi))
    return RateReport(
        resolutions=tuple(cfg.grid), taus=taus, hs=hs,
        errors=errors, stderrs=stderrs, axis=axis,
        fitted_order=order, fit_stderr=stderr,
        window=window, passed=passed, flags=flags, metadata=metadata,
    )


# ---------------------------------------------------------------- strong

def strong_rate_study(cfg):
    """Coupled-path RMS error at the final time against a fine reference.

    Every resolution of one sample is driven by coarsenings of the same
    tape (common random numbers); spatial grids are compared after exact
    interpolation onto the reference mesh.
    """
    t0 = time.perf_counter()
    ref = cfg.reference
    ref_ops = fem1d.assemble_operators(_mesh_for(cfg, ref))
    legs = [Leg(r, 0, (cfg.initial_modes,)) for r in (*cfg.grid, ref)]

    def err2_of(states):
        x_ref = states[-1]
        rows = []
        for res, xg in zip(cfg.grid, states):
            if res.h_exp != ref.h_exp:
                xg = fem1d.prolong(_mesh_for(cfg, res), ref_ops.mesh, xg)
            rows.append(fem1d.l2_norm_sq_mass(ref_ops, x_ref - xg))
        return np.array(rows)

    mean2, se_mean2 = _mean_se(_run_legs(cfg, legs, err2_of))
    errors = np.sqrt(mean2)
    stderrs = np.where(errors > 0, se_mean2 / (2.0 * np.maximum(errors, 1e-300)), 0.0)
    meta = _metadata(cfg, noise_model_for(cfg), time.perf_counter() - t0)
    return fit_report(cfg, errors, stderrs, meta)


# ------------------------------------------------------------------ weak

def weak_rate_study(cfg):
    """Difference of observable means against the fine reference.

    Defaults to independent randomness per resolution; cfg.crn_tapes
    shares one tape per sample across resolutions (variance reduction,
    recorded in metadata) and then errors use paired standard errors.
    """
    t0 = time.perf_counter()
    # CRN: every resolution on stream 0; otherwise grid entry g on stream 1 + g
    legs = [Leg(r, 0 if cfg.crn_tapes else 1 + g, (cfg.initial_modes,))
            for g, r in enumerate(cfg.grid)]
    legs.append(Leg(cfg.reference, 0, (cfg.initial_modes,)))
    ops = {leg.res.h_exp: fem1d.assemble_operators(_mesh_for(cfg, leg.res))
           for leg in legs}
    phi = OBSERVABLES[cfg.observable]

    def phi_of(states):
        return np.array([phi(x, fem1d.l2_norm_sq_mass(ops[leg.res.h_exp], x))
                         for leg, x in zip(legs, states)])

    vals = _run_legs(cfg, legs, phi_of)
    flags = {}
    if vals.shape[1] > 1 and float(vals.std()) == 0.0:
        flags["constant_phi"] = True
        flags["degenerate"] = True
    if cfg.crn_tapes:
        mean, stderrs = _mean_se(vals[:-1] - vals[-1])
        errors = np.abs(mean)
    else:
        mean, se = _mean_se(vals)
        errors = np.abs(mean[:-1] - mean[-1])
        stderrs = np.sqrt(se[:-1] ** 2 + se[-1] ** 2)
    meta = _metadata(cfg, noise_model_for(cfg), time.perf_counter() - t0)
    return fit_report(cfg, errors, stderrs, meta, flags)


# --------------------------------------------------------- equilibration

@dataclass
class EquilibrationReport:
    times: np.ndarray
    labels: tuple
    means: np.ndarray        # (n_ic, n_times)
    stderrs: np.ndarray
    window: tuple
    window_means: np.ndarray
    window_stderrs: np.ndarray
    pairwise: list
    agreement: Optional[bool]
    flags: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def rows(self):
        columns = {}
        for i in range(len(self.labels)):
            columns[f"mean_ic{i}"] = self.means[i]
            columns[f"stderr_ic{i}"] = self.stderrs[i]
        return _time_rows(self.times, columns)

    def summary(self):
        return {
            "kind": self.metadata.get("kind"),
            "labels": self.labels,
            "window": self.window,
            "window_means": self.window_means,
            "window_stderrs": self.window_stderrs,
            "pairwise": self.pairwise,
            "passed": self.agreement,
            "flags": self.flags,
            "metadata": self.metadata,
        }

    def outcome(self):
        return f"window means {self.window_means.tolist()} passed={self.agreement}"


def _initial_label(modes):
    if modes is None:
        return "zero"
    return "+".join(f"{amp:g}*sin({int(j)}pi x/L)" for j, amp in modes)


def equilibration_study(cfg):
    """Observable mean over time for several initial conditions.

    All initial conditions ride the same driving paths (shared tapes per
    sample index, as the column groups of one leg), so equal long-time
    means witness contraction rather than averaging luck. Agreement is
    judged on per-sample means over the final window t in [3T/4, T].
    """
    t0 = time.perf_counter()
    record = (cfg.stride, functools.partial(_observe_phi, phi=OBSERVABLES[cfg.observable]))
    times, sel, vals = _recorded(cfg, Leg(cfg.grid[0], 0, tuple(cfg.initials), record))
    vals = vals[:, 0]                          # (times, starts, samples)
    n_ic, n = vals.shape[1:]
    means, ses = (a.T for a in _mean_se(vals))
    # per-sample means over the window, (starts, samples)
    window_means, window_ses = _mean_se(vals[sel].mean(axis=0))
    flags = {}
    pairwise = []
    agreement = None
    if n > 1:
        agreement = True
        for i in range(n_ic):
            for j in range(i + 1, n_ic):
                comb = math.sqrt(window_ses[i] ** 2 + window_ses[j] ** 2)
                diff = abs(window_means[i] - window_means[j])
                ok = bool(diff <= 3.0 * comb)
                pairwise.append({"i": i, "j": j, "diff": diff,
                                 "combined_se": comb, "ok": ok})
                agreement = agreement and ok
    else:
        flags["insufficient_samples"] = True
    meta = _metadata(cfg, noise_model_for(cfg), time.perf_counter() - t0)
    return EquilibrationReport(
        times=times, labels=tuple(_initial_label(m) for m in cfg.initials),
        means=means, stderrs=ses, window=(_window_start(cfg), cfg.T),
        window_means=window_means, window_stderrs=window_ses,
        pairwise=pairwise, agreement=agreement, flags=flags, metadata=meta,
    )


# ----------------------------------------------------------------- moments

@dataclass
class MomentReport:
    times: np.ndarray
    series: dict             # name -> (mean array, stderr array)
    trend_window: tuple
    trends: dict             # name -> {"slope": .., "stderr": .., "ok": bool}
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self):
        oks = [tr["ok"] for tr in self.trends.values()]
        return None if None in oks else all(oks)

    def rows(self):
        columns = {}
        for nm, (mean, se) in self.series.items():
            columns[f"{nm}_mean"] = mean
            columns[f"{nm}_stderr"] = se
        return _time_rows(self.times, columns)

    def summary(self):
        return {
            "kind": self.metadata.get("kind"),
            "trend_window": self.trend_window,
            "trends": self.trends,
            "passed": self.passed,
            "final_values": {nm: mean[-1] for nm, (mean, _) in self.series.items()},
            "metadata": self.metadata,
        }

    def outcome(self):
        slopes = {nm: round(tr["slope"], 6) for nm, tr in self.trends.items()}
        return f"trend slopes {slopes} passed={self.passed}"


def moment_study(cfg):
    """Long-horizon moment tracking with a second-half trend test.

    Records E|X|_{L2}^2, E|X|_{L4}^4 and the squared H^gamma seminorm.
    The trend slope of each series over the second half of the horizon is
    estimated per sample (one OLS slope per path, then mean and standard
    error across paths).
    """
    t0 = time.perf_counter()
    model = noise_model_for(cfg)
    record = (cfg.stride, functools.partial(
        _observe_moments, gamma=1.0 if model is None else model.gamma_report))
    times, sel, vals = _recorded(cfg, Leg(cfg.grid[0], 0, (cfg.initial_modes,), record))
    vals = vals[:, :, 0]                       # (times, MOMENTS, samples)
    n = vals.shape[-1]
    mean, se = _mean_se(vals)
    tb = times[sel] - times[sel].mean()
    # per-sample OLS slopes, (MOMENTS, samples)
    slopes = np.stack([tb @ vals[sel, k] for k in range(len(MOMENTS))]) / float(tb @ tb)
    sl_mean, sl_se = _mean_se(slopes)
    series = {nm: (mean[:, k], se[:, k]) for k, nm in enumerate(MOMENTS)}
    trends = {nm: {"slope": float(sl_mean[k]), "stderr": float(sl_se[k]),
                   "ok": bool(abs(sl_mean[k]) <= 2.0 * sl_se[k]) if n > 1 else None}
              for k, nm in enumerate(MOMENTS)}
    meta = _metadata(cfg, model, time.perf_counter() - t0)
    return MomentReport(times=times, series=series,
                        trend_window=(_window_start(cfg), cfg.T), trends=trends,
                        metadata=meta)


# --------------------------------------------------------------- smoothing

@dataclass
class SmoothingReport:
    samples: list            # SmoothingErrorSample rows in deterministic order
    resolutions: tuple       # the grid entry of each sample
    axis: str
    fitted_order: float
    fit_stderr: float
    window: Optional[tuple]
    decay_ok: Optional[bool]
    passed: Optional[bool]
    metadata: dict = field(default_factory=dict)

    def rows(self):
        return [{"resolution_m": res.m, "resolution_h": smp.h, "t": smp.t_n,
                 "p": smp.p, "error": smp.error}
                for res, smp in zip(self.resolutions, self.samples)]

    def summary(self):
        return {
            "kind": self.metadata.get("kind"),
            "fitted_order": self.fitted_order,
            "fit_stderr": self.fit_stderr,
            "window": self.window,
            "passed": self.passed,
            "axis": self.axis,
            "decay_ok": self.decay_ok,
            "errors": [smp.error for smp in self.samples],
            "metadata": self.metadata,
        }

    outcome = _fit_outcome


def smoothing_study(cfg):
    """Deterministic semigroup-vs-propagator error sweep and rate fit.

    Rough data: ROUGH_MODES flat-spectrum random signs (seeded by the
    config), unit L2 norm. The fit runs at the first configured time;
    later times feed the monotone time-decay check at fixed resolution.
    """
    v = rough_initial(ROUGH_MODES, cfg.seed, cfg.L)
    t0 = time.perf_counter()
    rows = []
    row_res = []
    first = []
    decay_ok = True if len(cfg.times) > 1 else None
    for res in cfg.grid:
        ops = fem1d.assemble_operators(_mesh_for(cfg, res))
        tau = _tau_for(cfg, res)
        per_time = []
        for t in cfg.times:
            smp = smoothing_error(ops, tau, round(t / tau), cfg.p, v)
            rows.append(smp)
            row_res.append(res)
            per_time.append(smp.error)
        first.append(per_time[0])
        if len(cfg.times) > 1 and per_time[-1] > per_time[0]:
            decay_ok = False
    meta = _metadata(cfg, None, time.perf_counter() - t0)
    meta.update(p=cfg.p, times=list(cfg.times), rough_modes=ROUGH_MODES)
    fit = fit_report(cfg, first, np.zeros(len(first)), meta)
    return SmoothingReport(samples=rows, resolutions=tuple(row_res), axis=fit.axis,
                           fitted_order=fit.fitted_order, fit_stderr=fit.fit_stderr,
                           window=fit.window, decay_ok=decay_ok,
                           passed=fit.passed and decay_ok is not False, metadata=meta)


# ------------------------------------------------------------------ checks

@dataclass
class CheckReport:
    """A table of pass/fail checks, one row per grid entry."""

    kind: str
    table: list              # one dict per row, keys in column order
    passed: bool
    params: dict             # the check's own settings, as top-level summary keys
    metadata: dict

    def rows(self):
        return self.table

    def summary(self):
        return {"kind": self.kind, "rows": self.table, "passed": self.passed,
                **self.params, "metadata": self.metadata}

    def outcome(self):
        return f"passed={self.passed}"


# points of the taming check's scan of u (the preset's has 20 001); its
# penalty scan holds about 202 times as many floats, 64 MB at the cap
MAX_SCAN_POINTS = 40_001


def taming_check_study(cfg, u_max, u_step):
    """The taming inequalities of every grid entry's (tau, h) on a scan of u."""
    if u_max <= 0 or u_step <= 0:
        raise InvalidArgumentError(
            f"study.u_max and study.u_step must be positive, got {u_max} and {u_step}")
    ratio = u_max / u_step
    if not ratio < MAX_SCAN_POINTS / 2:     # 2 round(ratio) + 1 <= the cap; not nan
        raise CapacityError(f"taming scan of about {2 * ratio + 1:.3g} points (study.u_max"
                            f" / study.u_step) exceeds MAX_SCAN_POINTS = {MAX_SCAN_POINTS}")
    n = int(round(ratio))
    us = np.arange(-n, n + 1) * u_step
    rows = []
    all_ok = True
    for res in cfg.grid:
        tau = _tau_for(cfg, res)
        h = cfg.L / 2**res.h_exp
        rep = taming_inequality_suite(cfg.drift, cfg.taming, tau, h, us)
        ok = (rep.sign_ok and rep.dominated_ok and rep.approx_ok
              and rep.monotone_tau_ok and rep.monotone_h_ok)
        all_ok = all_ok and ok
        rows.append({
            "resolution_m": res.m, "resolution_h": h, "tau": tau,
            "sign_ok": rep.sign_ok,
            "dominated_margin": rep.dominated_margin,
            "growth_constant": rep.growth_constant,
            "approx_margin": rep.approx_margin,
            "monotone_tau_ok": rep.monotone_tau_ok,
            "monotone_h_ok": rep.monotone_h_ok,
            "penalty_c0": rep.penalty_c0,
            "penalty_c1": rep.penalty_c1,
            "penalty_margin": rep.penalty_margin,
            "ok": ok,
        })
    meta = {"kind": cfg.kind, "grid": [[r.m, r.h_exp] for r in cfg.grid],
            "T": cfg.T, "versions": _versions()}
    return CheckReport(cfg.kind, rows, all_ok, {"u_max": u_max, "u_step": u_step}, meta)


def spectrum_check_study(cfg):
    """Per mesh: the spectrum's residual and M-orthonormality against the
    assembled operators, and the eigenvalue bounds."""
    slack = 1e-9
    rows = []
    all_ok = True
    for res in cfg.grid:
        mesh = _mesh_for(cfg, res)
        ops = fem1d.assemble_operators(mesh)
        spec = fem1d.discrete_spectrum(ops)
        lam = spec.lambdas
        j = np.arange(1, lam.size + 1.0)
        m_modes = fem1d.tridiag_matvec(ops.mass, spec.modes)
        resid = fem1d.tridiag_matvec(ops.stiffness, spec.modes) - lam * m_modes
        rel_resid = float(np.max(np.linalg.norm(resid, axis=0)
                                 / (lam * np.linalg.norm(m_modes, axis=0))))
        ortho = float(np.abs(spec.modes.T @ m_modes - np.eye(lam.size)).max())
        dirichlet_margin = float(np.min(lam - (j * np.pi / cfg.L) ** 2))
        ok = dirichlet_margin >= -slack and rel_resid <= 1e-8 and ortho <= 1e-8
        row = {
            "resolution_h": mesh.h, "n_interior": mesh.n_interior,
            "max_rel_residual": rel_resid,
            "orthonormality_defect": ortho,
            "dirichlet_margin": dirichlet_margin,
        }
        if cfg.L == 1.0:
            lower = float(np.min(lam - 4.0 * j**2))
            upper = float(np.min(3.0 * np.pi**2 * j**2 - lam))
            ok = ok and lower >= -slack and upper >= -slack
            row["lower_margin"] = lower
            row["upper_margin"] = upper
        row["ok"] = ok
        all_ok = all_ok and ok
        rows.append(row)
    meta = {"kind": cfg.kind, "L": cfg.L, "grid": [[r.m, r.h_exp] for r in cfg.grid],
            "versions": _versions()}
    return CheckReport(cfg.kind, rows, all_ok, {"slack": slack}, meta)
