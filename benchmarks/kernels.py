"""Per-call timings of the stepper's kernels at n in {63, 511}, B = 64.

Each kernel runs on seeded inputs shaped as one step of a batched run
(K = n noise modes, 4 quadrature points per element) and reports the
median per-call time in microseconds over repeated batches.
"""

import math
import statistics
import time

import numpy as np

from spdefem import drift, fem1d, noise, scheme

SIZES = (63, 511)
BATCH = 64
TAU = 2.0**-9          # the ladder workload's reference step (T = 8, 2^12 steps)
BUDGET_S = 0.12        # measuring time per kernel and size
MIN_BATCH_S = 2e-3     # one timed batch lasts at least this long

KERNELS = ("normals", "load", "interp", "eval_f", "taming", "quad_load",
           "matvec", "solve", "grab")


def _per_call_us(fn):
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        reps *= 2
    samples = []
    stop = time.perf_counter() + BUDGET_S
    while time.perf_counter() < stop or len(samples) < 5:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples) * 1e6


def _calls(n, seed):
    rng = np.random.default_rng([seed, n])
    mesh = fem1d.build_mesh(1.0, n)
    ops = fem1d.assemble_operators(mesh)
    poly = drift.DriftPolynomial(q=2, coeffs=(0.0, 1.0, 0.0, -1.0))
    params = drift.TamingParams(alpha=0.25, theta=1.0, rho=2.0, beta1=1.0, beta2=1.0)
    model = noise.make_noise_model(0.5005, n)
    x = rng.normal(0.0, 0.5, (n, BATCH))
    coeffs = (math.sqrt(TAU) * noise.coefficient_scales(model)[:, None]
              * rng.standard_normal((n, BATCH)))
    loadmat = fem1d.sine_load_matrix(mesh, n)
    vq = fem1d.interpolant_at_quad(mesh, x)
    fq = drift.eval_f_tamed(poly, params, TAU, mesh.h, vq)
    shifted = fem1d.TriFactor(scheme.shifted_tridiag(ops, TAU))
    rhs = fem1d.tridiag_matvec(ops.mass, x)
    stream = noise.RngStream(seed, 0)
    return {
        "normals": lambda: stream.normals(n * BATCH),
        "load": lambda: loadmat @ coeffs,
        "interp": lambda: fem1d.interpolant_at_quad(mesh, x),
        "eval_f": lambda: drift.eval_f(poly, vq),
        "taming": lambda: drift.taming_factor(poly, params, TAU, mesh.h, vq),
        "quad_load": lambda: fem1d.quad_load(mesh, fq),
        "matvec": lambda: fem1d.tridiag_matvec(ops.mass, x),
        "solve": lambda: shifted.solve(rhs),
        "grab": lambda: (fem1d.l2_norm_sq_mass(ops, x), fem1d.lp_norm(mesh, x, 4)),
    }


def measure(seed):
    """Metric name -> (value, unit) for every kernel at every size."""
    out = {}
    for n in SIZES:
        calls = _calls(n, seed)
        for name in KERNELS:
            out[f"kernel.{name}.n{n}_us"] = (_per_call_us(calls[name]), "us")
        # the dense noise load is an (n x K) @ (K x B) product with K = n
        out[f"kernel.load.n{n}_flops"] = (2 * n * n * BATCH, "flop")
        out[f"kernel.load.n{n}_bytes"] = (8 * (n * n + 2 * n * BATCH), "B")
    return out
