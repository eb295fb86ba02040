"""In-memory span tracer around the public calls of each spdefem layer.

Every wrapper is installed under the name its caller looks up: scheme
imported tridiag_matvec, eval_f_tamed and coarsen_coeffs by name, and
harness imported smoothing_error by name, so those bindings are wrapped
in the importing module as well as in the defining one. Nothing under
src/ changes; the originals are restored by uninstall(). The counts
(normals drawn, column steps, largest tape, sample blocks) come from
counting wrappers around RngStream.normals, scheme.run and
harness._map_blocks, so they count what the program did.

A span is (name, start, end, parent). A layer's self time is its span
durations minus the part covered by child spans, so the self times of
all spans inside a pass plus the time outside any span (the residue)
add up to the traced pass exactly.
"""

import functools
import statistics
import time
from array import array

import numpy as np

from spdefem import cli, drift, fem1d, harness, noise, scheme, smoothing_lab

# (namespace, attribute, span name); several bindings may share one span name
WRAPPED = [
    (harness, "strong_rate_study", "harness"),
    (harness, "weak_rate_study", "harness"),
    (harness, "equilibration_study", "harness"),
    (harness, "moment_study", "harness"),
    (harness, "smoothing_study", "harness"),
    (noise, "sample_tape_coeffs", "noise.sample"),
    (noise, "coarsen_coeffs", "noise.coarsen"),
    (scheme, "coarsen_coeffs", "noise.coarsen"),
    (scheme, "drift_load", "scheme.drift_load"),
    (scheme, "eval_f_tamed", "drift.eval_f"),
    (drift, "eval_f", "drift.eval_f"),
    (drift, "taming_factor", "drift.taming"),
    (scheme, "tridiag_matvec", "fem1d.matvec"),
    (fem1d, "tridiag_matvec", "fem1d.matvec"),
    (fem1d, "interpolant_at_quad", "fem1d.interp"),
    (fem1d, "quad_load", "fem1d.quad_load"),
    (fem1d.TriFactor, "solve", "fem1d.solve"),
    (fem1d.TriFactor, "__init__", "fem1d.assemble"),
    (fem1d, "assemble_operators", "fem1d.assemble"),
    (fem1d, "sine_load_matrix", "fem1d.assemble"),
    (fem1d, "project_sine_coeffs", "fem1d.assemble"),
    (fem1d, "l2_norm_sq_mass", "fem1d.norms"),
    (fem1d, "lp_norm", "fem1d.norms"),
    (fem1d, "discrete_spectrum", "fem1d.spectrum"),
    (fem1d, "fractional_seminorm_sq", "fem1d.spectrum"),
    (fem1d, "prolong", "fem1d.prolong"),
    (harness, "smoothing_error", "smoothing_lab.eval"),
    (smoothing_lab, "evaluate_spectral", "smoothing_lab.eval"),
    (smoothing_lab, "discrete_propagator", "smoothing_lab.propagator"),
    (cli, "write_report_csv", "cli.write"),
    (cli, "write_summary", "cli.write"),
    (cli, "load_document", "cli.parse"),
    (cli, "parse_document", "cli.parse"),
]


class Tracer:
    def __init__(self):
        self.names = []               # span name by id
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.normals = 0              # normals drawn through RngStream.normals
        self.column_steps = 0         # steps x batch columns through scheme.run
        self.tape_bytes = 0           # largest driving array handed to scheme.run
        self.blocks = 0               # sample blocks the harness ran
        self._saved = []

    def __len__(self):
        return len(self.start)

    def _open(self, name):
        i = len(self.start)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def span(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[i] = t0
                self.end[i] = t1
        return traced

    def _scheme_run(self, fn):
        spanned = self.span("scheme.run", fn)

        @functools.wraps(fn)
        def run(config, tape_or_increments, *args, **kwargs):
            if isinstance(tape_or_increments, np.ndarray):
                self.tape_bytes = max(self.tape_bytes, tape_or_increments.nbytes)
            state, record = spanned(config, tape_or_increments, *args, **kwargs)
            self.column_steps += state.m * (state.x.shape[1] if state.x.ndim == 2 else 1)
            return state, record
        return run

    def _normals(self, fn):
        @functools.wraps(fn)
        def normals(stream, n):
            self.normals += int(n)
            return fn(stream, n)
        return normals

    def _map_blocks(self, fn):
        @functools.wraps(fn)
        def map_blocks(cfg, block_fn, n_blocks):
            def counted(*args):
                self.blocks += 1
                return block_fn(*args)
            return fn(cfg, counted, n_blocks)
        return map_blocks

    def install(self):
        targets = [(owner, attr, self.span(name, getattr(owner, attr)))
                   for owner, attr, name in WRAPPED]
        targets.append((scheme, "run", self._scheme_run(scheme.run)))
        targets.append((noise.RngStream, "normals",
                        self._normals(noise.RngStream.normals)))
        targets.append((harness, "_map_blocks", self._map_blocks(harness._map_blocks)))
        for owner, attr, wrapper in targets:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def summary(self, lo, hi):
        """Per-name self and inclusive seconds and call counts of spans lo..hi-1.

        Also returns the summed duration of the root spans of that range.
        """
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi] - lo
        dur = (np.frombuffer(self.end, dtype=np.float64)[lo:hi]
               - np.frombuffer(self.start, dtype=np.float64)[lo:hi])
        inner = (par >= 0) & (par < hi - lo)
        child = np.bincount(par[inner], weights=dur[inner], minlength=hi - lo)
        self_t = dur - child
        k = len(self.names)
        by_self = np.bincount(ids, weights=self_t, minlength=k)
        by_dur = np.bincount(ids, weights=dur, minlength=k)
        calls = np.bincount(ids, minlength=k)
        per_name = {nm: {"self_s": float(by_self[i]), "total_s": float(by_dur[i]),
                         "calls": int(calls[i])}
                    for i, nm in enumerate(self.names)}
        return per_name, float(dur[~inner].sum())

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def span_cost(calls=50_000, repeats=5):
    """Seconds one span wrapper adds to a call: median over calibration loops."""
    def noop():
        return None

    traced = Tracer().span("calibration", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)
