"""Monte Carlo study drivers: strong/weak rates, equilibration, moments.

Reproducibility contract: a study is a pure function of its StudyConfig.
Samples are processed in fixed blocks of 64 (the batch axis of the
vectorized stepper), each block is a deterministic function of (config,
block index), and blocks are reduced in index order. Worker processes
only distribute whole blocks, so results are bit-identical for any
worker count. Per-sample randomness is keyed by (master_seed, stream,
sample_index) through the counter-based generator in the noise module;
nothing depends on scheduling.
"""

import contextlib
import functools
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from typing import NamedTuple, Optional

import numpy as np
import scipy

from . import __version__, fem1d, noise, scheme
from .errors import InvalidArgumentError
from .smoothing_lab import rate_fit, rough_initial, smoothing_error

BLOCK = 64


def _sin_pi4_minus_l2sq(x, l2sq):
    return np.sin(np.pi / 4.0 - l2sq)


def _l2sq(x, l2sq):
    return l2sq


# module-level functions, so a RecordSpec holding one pickles for workers
OBSERVABLES = {
    "sin_pi4_minus_l2sq": _sin_pi4_minus_l2sq,
    "l2sq": _l2sq,
}
DEFAULT_OBSERVABLE = "sin_pi4_minus_l2sq"

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


@dataclass(frozen=True)
class Resolution:
    """tau = T / 2^m, h = L / 2^h_exp (so n_interior = 2^h_exp - 1)."""

    m: int
    h_exp: int


@dataclass(frozen=True)
class StudyConfig:
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
    times: tuple = ()                  # smoothing: measurement times
    p: float = 2.0                     # smoothing: norm exponent
    window: Optional[tuple] = None     # fitted-order window override


def make_study_config(**kw):
    cfg = StudyConfig(**kw)
    if not cfg.grid:
        raise InvalidArgumentError("empty resolution grid")
    if not (cfg.T > 0 and cfg.samples >= 1 and cfg.stride >= 1):
        raise InvalidArgumentError("need T > 0, samples >= 1, stride >= 1")
    for r in cfg.grid:
        if r.m < 0 or r.h_exp < 1:
            raise InvalidArgumentError(f"bad resolution {r}")
    if cfg.reference is not None:
        ref = cfg.reference
        finer_somewhere = any(ref.m > r.m or ref.h_exp > r.h_exp for r in cfg.grid)
        at_least = all(ref.m >= r.m and ref.h_exp >= r.h_exp for r in cfg.grid)
        if not (finer_somewhere and at_least):
            raise InvalidArgumentError(
                "reference resolution must be strictly finer than every grid entry"
            )
    if cfg.observable not in OBSERVABLES:
        raise InvalidArgumentError(
            f"unknown observable {cfg.observable!r}; "
            f"available: {sorted(OBSERVABLES)}"
        )
    if cfg.drift is not None and cfg.taming is None:
        raise InvalidArgumentError("taming parameters required with a drift")
    return cfg


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


def _fill_loads(sampler, tape, loaders, check_coupling, k, out):
    """Assemble chunk k's noise loads into out, a load set.

    Draws the chunk into tape, coarsens it once per distinct factor, and
    fills out[(h_exp, factor)] through loaders[(h_exp, factor)], a stepper
    on that mesh.
    """
    sampler.fill(tape)
    coarse = {f: noise.coarsen_coeffs(tape, f)
              for f in dict.fromkeys(f for _, f in loaders)}
    if check_coupling and k == 0:
        # re-assert the coupling invariant: children sum to parents
        for f, c in coarse.items():
            assert np.array_equal(c[0], tape[:f].sum(axis=0))
    for key, stepper in loaders.items():
        stepper.noise_loads(coarse[key[1]], out=out[key])


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
    record: Optional[scheme.RecordSpec] = None


def _paths_block(cfg, b, legs):
    """Run every leg on the samples of block b; one result per leg, in order.

    Each stream's tape is drawn at the finest m among its legs, in chunks
    of noise.chunk_rows fine rows, and every leg on that stream steps
    through each chunk in lockstep on an exact coarsening of it, so all
    resolutions of one sample see the same driving path and no whole tape
    is ever held. A helper thread turns the next chunk into noise loads
    while the legs step the current one (_load_chunks): it draws the
    chunk, coarsens it once per distinct factor and assembles one load
    set per distinct (mesh, factor), which every leg of that shape steps
    on. The tape buffer and both load sets share the
    noise.MAX_TAPE_FLOATS budget.

    A leg's starts are the column groups of one stepper: its (n, S)
    initial state, one column per start, steps as an (n, S bs) state on
    the leg's (n, bs) loads, so S starts cost one tridiagonal solve a
    step. A leg yields its final (n, S bs) state, or its ObservableRecord
    when it records; start i holds columns [i bs, (i+1) bs).
    """
    model = noise_model_for(cfg)
    K = 1 if model is None else model.K
    idx = list(_block_range(cfg, b))
    bs = len(idx)
    ops, steppers = {}, []
    for leg in legs:
        if leg.res.h_exp not in ops:
            ops[leg.res.h_exp] = fem1d.assemble_operators(_mesh_for(cfg, leg.res))
        o = ops[leg.res.h_exp]
        x0 = np.stack([_initial_vector(cfg, o, modes) for modes in leg.starts], axis=1)
        sc = scheme.make_scheme_config(o, cfg.drift, cfg.taming,
                                       _tau_for(cfg, leg.res), x0)
        steppers.append(scheme.Stepper(sc, K, bs, leg.record))
    for stream in dict.fromkeys(leg.stream for leg in legs):
        m = max(leg.res.m for leg in legs if leg.stream == stream)
        # leg i steps on the load set of its (mesh, coarsening factor)
        keys = {i: (leg.res.h_exp, 2 ** (m - leg.res.m))
                for i, leg in enumerate(legs) if leg.stream == stream}
        loaders = {key: steppers[i] for i, key in keys.items()}
        # a fine row of the tape buffer and of both load sets together
        row_floats = K * bs + 2 * sum((2**h - 1) * bs / f for h, f in loaders)
        rows = noise.chunk_rows(2**m, row_floats, max(f for _, f in loaders))
        shapes = {(h, f): (rows // f, 2**h - 1, bs) for h, f in loaders}
        if model is None:
            fill = None
            sets = [{key: np.broadcast_to(0.0, shape) for key, shape in shapes.items()}]
        else:
            sampler = noise.BlockSampler(
                model, cfg.seed, cfg.T / 2**m,
                [noise.stream_context(stream, sidx) for sidx in idx])
            fill = functools.partial(_fill_loads, sampler, np.empty((rows, K, bs)),
                                     loaders, b == 0)
            sets = [{key: np.empty(shape) for key, shape in shapes.items()}
                    for _ in range(2)]
        chunks = _load_chunks(fill, sets, 2**m // rows)
        with contextlib.closing(chunks):
            for loads in chunks:
                for i, key in keys.items():
                    steppers[i].step_loads(loads[key])
    out = []
    for leg, stepper in zip(legs, steppers):
        state, rec = stepper.finish()
        out.append(state.x if leg.record is None else rec)
    return out


def _run_legs(cfg, legs):
    """Per-block lists of leg results, blocks in index order."""
    return _map_blocks(cfg, functools.partial(_paths_block, legs=tuple(legs)),
                       _n_blocks(cfg))


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
    hs = {r.h_exp for r in cfg.grid}
    ms = {r.m for r in cfg.grid}
    if len(hs) == 1 and len(ms) > 1:
        return "tau"
    if len(ms) == 1 and len(hs) > 1:
        return "h"
    raise InvalidArgumentError(
        "grid must vary exactly one of (m, h_exp) for a rate fit"
    )


def _window_for(cfg, axis):
    if cfg.window is not None:
        return tuple(cfg.window)
    if cfg.kind == "smoothing":
        white = None
    else:
        white = cfg.s == 0 if cfg.s is not None else None
    return DEFAULT_WINDOWS.get((cfg.kind, axis, white))


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


def fit_report(cfg, errors, stderrs, metadata, flags=None):
    """Assemble a RateReport from per-resolution errors.

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
    window = _window_for(cfg, axis)
    if flags.get("degenerate"):
        order, stderr = float("nan"), float("nan")
        passed = None
    else:
        fit = rate_fit(list(zip(res_axis, errors)))
        order, stderr = fit.slope, fit.stderr
        passed = None
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
    if cfg.reference is None:
        raise InvalidArgumentError("strong study needs a reference resolution")
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

    err2 = np.concatenate([err2_of(blk) for blk in _run_legs(cfg, legs)], axis=1)
    n = err2.shape[1]
    mean2 = err2.mean(axis=1)
    errors = np.sqrt(mean2)
    if n > 1:
        se_mean2 = err2.std(axis=1, ddof=1) / math.sqrt(n)
        stderrs = np.where(errors > 0, se_mean2 / (2.0 * np.maximum(errors, 1e-300)), 0.0)
    else:
        stderrs = np.zeros_like(errors)
    meta = _metadata(cfg, noise_model_for(cfg), time.perf_counter() - t0)
    return fit_report(cfg, errors, stderrs, meta)


# ------------------------------------------------------------------ weak

def weak_rate_study(cfg):
    """Difference of observable means against the fine reference.

    Defaults to independent randomness per resolution; cfg.crn_tapes
    shares one tape per sample across resolutions (variance reduction,
    recorded in metadata) and then errors use paired standard errors.
    """
    if cfg.reference is None:
        raise InvalidArgumentError("weak study needs a reference resolution")
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

    vals = np.concatenate([phi_of(blk) for blk in _run_legs(cfg, legs)], axis=1)
    n = vals.shape[1]
    G = len(cfg.grid)
    flags = {}
    if n > 1 and float(vals.std()) == 0.0:
        flags["constant_phi"] = True
        flags["degenerate"] = True
    errors = np.empty(G)
    stderrs = np.empty(G)
    for g in range(G):
        if cfg.crn_tapes:
            d = vals[g] - vals[-1]
            errors[g] = abs(d.mean())
            stderrs[g] = d.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
        else:
            errors[g] = abs(vals[g].mean() - vals[-1].mean())
            if n > 1:
                stderrs[g] = math.sqrt(
                    vals[g].var(ddof=1) / n + vals[-1].var(ddof=1) / n)
            else:
                stderrs[g] = 0.0
    if np.any(errors <= 0) and not flags.get("degenerate"):
        flags["degenerate"] = True
        flags["zero_error"] = True
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
    if not cfg.initials:
        raise InvalidArgumentError("equilibration needs at least one initial condition")
    if len(cfg.grid) != 1:
        raise InvalidArgumentError("equilibration runs a single resolution")
    if cfg.drift is not None:
        sc_probe = scheme.make_scheme_config(
            fem1d.assemble_operators(_mesh_for(cfg, cfg.grid[0])),
            cfg.drift, cfg.taming, _tau_for(cfg, cfg.grid[0]),
            np.zeros(2**cfg.grid[0].h_exp - 1))
        if not sc_probe.contraction:
            raise InvalidArgumentError(
                "equilibration requires the contraction regime L_f < lambda_1"
            )
    t0 = time.perf_counter()
    spec = scheme.RecordSpec(stride=cfg.stride, norms=False,
                             phi=OBSERVABLES[cfg.observable])
    leg = Leg(cfg.grid[0], 0, tuple(cfg.initials), spec)
    recs = [blk[0] for blk in _run_legs(cfg, [leg])]
    times = recs[0].times
    n_ic = len(cfg.initials)
    # start i is the i-th column group of every block's record
    groups = [np.split(rec.phi, n_ic, axis=1) for rec in recs]
    mats = [np.concatenate([g[i] for g in groups], axis=1) for i in range(n_ic)]
    n = mats[0].shape[1]
    means = np.stack([m.mean(axis=1) for m in mats])
    if n > 1:
        ses = np.stack([m.std(axis=1, ddof=1) / math.sqrt(n) for m in mats])
    else:
        ses = np.zeros_like(means)
    w0, w1 = 0.75 * cfg.T, cfg.T
    sel = (times >= w0 - 1e-12) & (times <= w1 + 1e-12)
    wm = np.stack([m[sel].mean(axis=0) for m in mats])   # (n_ic, n) per-sample
    window_means = wm.mean(axis=1)
    flags = {}
    pairwise = []
    agreement = None
    if n > 1:
        window_ses = wm.std(axis=1, ddof=1) / math.sqrt(n)
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
        window_ses = np.zeros(n_ic)
        flags["insufficient_samples"] = True
    meta = _metadata(cfg, noise_model_for(cfg), time.perf_counter() - t0)
    return EquilibrationReport(
        times=times, labels=tuple(_initial_label(m) for m in cfg.initials),
        means=means, stderrs=ses, window=(w0, w1),
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


def moment_study(cfg, horizon_multiplier=1):
    """Long-horizon moment tracking with a second-half trend test.

    Records E|X|_{L2}^2, E|X|_{L4}^4 and the squared H^gamma seminorm.
    The trend slope of each series over the second half of the horizon is
    estimated per sample (one OLS slope per path, then mean and standard
    error across paths).
    """
    if len(cfg.grid) != 1:
        raise InvalidArgumentError("moment study runs a single resolution")
    mult = int(horizon_multiplier)
    if mult < 1 or mult & (mult - 1):
        raise InvalidArgumentError("horizon multiplier must be a power of two")
    if mult > 1:
        res = cfg.grid[0]
        cfg = replace(cfg, T=cfg.T * mult,
                      grid=(Resolution(res.m + mult.bit_length() - 1, res.h_exp),))
    t0 = time.perf_counter()
    model = noise_model_for(cfg)
    spec = scheme.RecordSpec(stride=cfg.stride, norms=True,
                             gamma=1.0 if model is None else model.gamma_report)
    leg = Leg(cfg.grid[0], 0, (cfg.initial_modes,), spec)
    recs = [blk[0] for blk in _run_legs(cfg, [leg])]
    times = recs[0].times
    mats = {"l2_sq": np.concatenate([r.l2 ** 2 for r in recs], axis=1),
            "l4_4": np.concatenate([r.l4 ** 4 for r in recs], axis=1),
            "hgamma_sq": np.concatenate([r.hgamma_sq for r in recs], axis=1)}
    names = tuple(mats)
    n = mats[names[0]].shape[1]
    half = cfg.T / 2.0
    sel = times >= half - 1e-12
    tb = times[sel] - times[sel].mean()
    sxx = float(tb @ tb)
    series = {}
    trends = {}
    for nm in names:
        m = mats[nm]
        mean = m.mean(axis=1)
        se = m.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
        series[nm] = (mean, se)
        slopes = tb @ m[sel] / sxx          # per-sample OLS slope
        sl_mean = float(slopes.mean())
        sl_se = float(slopes.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        trends[nm] = {"slope": sl_mean, "stderr": sl_se,
                      "ok": bool(abs(sl_mean) <= 2.0 * sl_se) if n > 1 else None}
    meta = _metadata(cfg, model, time.perf_counter() - t0)
    return MomentReport(times=times, series=series,
                        trend_window=(half, cfg.T), trends=trends, metadata=meta)


# --------------------------------------------------------------- smoothing

@dataclass
class SmoothingReport:
    samples: list            # SmoothingErrorSample rows in deterministic order
    axis: str
    fitted_order: float
    fit_stderr: float
    window: Optional[tuple]
    decay_ok: Optional[bool]
    passed: Optional[bool]
    metadata: dict = field(default_factory=dict)


def smoothing_study(cfg, rough_modes=256):
    """Deterministic semigroup-vs-propagator error sweep and rate fit.

    Rough data: flat-spectrum random signs (seeded by the config), unit
    L2 norm. The fit runs at the first configured time; later times feed
    the monotone time-decay check at fixed resolution.
    """
    times = cfg.times or (1.0,)
    axis = _fit_axis(cfg)
    v = rough_initial(rough_modes, cfg.seed, cfg.L)
    t0 = time.perf_counter()
    rows = []
    fit_pts = []
    decay_ok = True if len(times) > 1 else None
    for res in cfg.grid:
        ops = fem1d.assemble_operators(_mesh_for(cfg, res))
        tau = _tau_for(cfg, res)
        per_time = []
        for t in times:
            n = t / tau
            if abs(n - round(n)) > 1e-9:
                raise InvalidArgumentError(
                    f"time {t} is not a step multiple of tau={tau}")
            smp = smoothing_error(ops, tau, int(round(n)), cfg.p, v)
            rows.append(smp)
            per_time.append(smp.error)
        fit_pts.append((tau if axis == "tau" else ops.mesh.h, per_time[0]))
        if len(times) > 1 and per_time[-1] > per_time[0]:
            decay_ok = False
    fit = rate_fit(fit_pts)
    window = _window_for(cfg, axis)
    passed = None
    if window is not None:
        lo, hi = window
        passed = bool(fit.slope >= lo and (hi is None or fit.slope <= hi))
        if decay_ok is not None:
            passed = passed and decay_ok
    meta = _metadata(cfg, None, time.perf_counter() - t0)
    meta["p"] = cfg.p
    meta["times"] = list(times)
    meta["rough_modes"] = rough_modes
    return SmoothingReport(samples=rows, axis=axis, fitted_order=fit.slope,
                           fit_stderr=fit.stderr, window=window,
                           decay_ok=decay_ok, passed=passed, metadata=meta)
