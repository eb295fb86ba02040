"""Spectral sampling of Q-Wiener increments on (0, L), Q = Lambda^{-s}.

Increments are expanded in the orthonormal Dirichlet sine basis; the
coefficient of mode j over a step of length tau is Normal with standard
deviation sqrt(tau) * (j pi / L)^{-s}. s = 0 is space-time white noise.

Randomness is counter based: a Philox generator keyed by
(master_seed, context) feeds an inverse-CDF transform, so any draw is a
pure function of the key and its position in the stream. Tapes sampled
at the finest dyadic resolution can be coarsened by exact summation,
which is what couples resolutions in strong-error studies. A tape may be
drawn whole or a chunk of rows at a time (TapeSampler); the rows are the
same bit for bit either way.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import CapacityError, InvalidArgumentError

SAMPLER_IDENTITY = "philox4x64-10/inverse-cdf"

# floats of tape held at once: one whole tape, or one chunk of a block's tapes
MAX_TAPE_FLOATS = 2**20


def stream_context(stream_id, sample_index):
    """Pack a stream id and a sample index into one 64-bit key word."""
    if not (0 <= stream_id < 2**32 and 0 <= sample_index < 2**32):
        raise InvalidArgumentError("stream_id and sample_index must fit in 32 bits")
    return (int(stream_id) << 32) | int(sample_index)


class RngStream:
    """Deterministic normal stream: Philox counter + inverse CDF.

    Draw n at a time or all at once; the sequence is identical either way
    (raw 64-bit words map one-to-one to normals).
    """

    def __init__(self, master_seed, context=0):
        key = np.array([int(master_seed), int(context)], dtype=np.uint64)
        self._bitgen = np.random.Philox(key=key)

    def normals(self, n):
        raw = self._bitgen.random_raw(int(n)) >> np.uint64(11)
        return ndtri((raw.astype(np.float64) + 0.5) * 2.0**-53)


@dataclass(frozen=True)
class NoiseModel:
    s: float
    K: int
    L: float
    gamma_report: float


def reporting_gamma(s):
    """Quarter-grid regularity label: largest multiple of 0.25 <= s + 1/2, capped at 2.

    A label for expected convergence rates, not an assertion about Q."""
    return min(2.0, math.floor((s + 0.5) / 0.25) * 0.25)


def make_noise_model(s, K, L=1.0):
    if s < 0:
        raise InvalidArgumentError(f"spectral decay s must be >= 0, got {s}")
    K = int(K)
    if K < 1:
        raise InvalidArgumentError(f"truncation level K must be >= 1, got {K}")
    if not L > 0:
        raise InvalidArgumentError(f"domain length must be positive, got {L}")
    return NoiseModel(s=float(s), K=K, L=float(L), gamma_report=reporting_gamma(s))


def coefficient_scales(model):
    """Per-mode standard deviation factors (j pi / L)^{-s}, shape (K,)."""
    j = np.arange(1, model.K + 1, dtype=float)
    return (j * np.pi / model.L) ** (-model.s)


@dataclass(frozen=True)
class PathTape:
    """All increments of one driving path at the finest dyadic resolution."""

    master_seed: int
    level: int
    tau: float
    coeffs: np.ndarray = field(repr=False)  # (finest_steps, K)

    @property
    def finest_steps(self):
        return self.coeffs.shape[0]


class TapeSampler:
    """One sample's tape, drawn a chunk of consecutive fine rows at a time.

    The Philox stream is consumed in order and each row is scaled on its
    own, so the chunks concatenate to the whole tape bit for bit.
    """

    def __init__(self, model, master_seed, tau, context=0):
        self._rng = RngStream(master_seed, context)
        self._scales = np.sqrt(tau) * coefficient_scales(model)

    def rows(self, n):
        """The next n rows of the tape, shape (n, K)."""
        K = self._scales.size
        return self._scales * self._rng.normals(n * K).reshape(n, K)


def chunk_rows(steps, row_floats, min_rows):
    """Fine rows per chunk of a tape whose rows hold row_floats floats each.

    The largest power of two that keeps a chunk within MAX_TAPE_FLOATS, but
    never fewer than min_rows (the largest coarsening factor, so every
    coarse step sees whole groups) and never more than the tape's steps.
    """
    fit = MAX_TAPE_FLOATS // row_floats
    rows = 1 << (fit.bit_length() - 1) if fit else 1
    return min(steps, max(min_rows, rows))


def sample_tape_coeffs(model, master_seed, T, finest_steps, context=0):
    """The (finest_steps, K) coefficient array of a tape, no wrapper."""
    steps = int(finest_steps)
    if steps < 1 or steps & (steps - 1):
        raise InvalidArgumentError(
            f"finest_steps must be a power of two, got {finest_steps}"
        )
    if steps * model.K > MAX_TAPE_FLOATS:
        raise CapacityError(
            f"tape of {steps} x {model.K} coefficients exceeds the memory budget"
        )
    return TapeSampler(model, master_seed, T / steps, context).rows(steps)


def make_path(model, master_seed, T, finest_steps, context=0):
    coeffs = sample_tape_coeffs(model, master_seed, T, finest_steps, context)
    steps = coeffs.shape[0]
    return PathTape(master_seed=int(master_seed), level=steps.bit_length() - 1,
                    tau=T / steps, coeffs=coeffs)


def coarsen_coeffs(coeffs, factor):
    """Sum groups of `factor` consecutive fine increments, bit exactly."""
    f = int(factor)
    steps = coeffs.shape[0]
    if f < 1 or f & (f - 1):
        raise InvalidArgumentError(f"factor must be a power of two, got {factor}")
    if steps % f:
        raise InvalidArgumentError(f"factor {factor} does not divide {steps} steps")
    if f == 1:
        return coeffs
    return coeffs.reshape(steps // f, f, *coeffs.shape[1:]).sum(axis=1)
