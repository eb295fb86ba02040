"""Spectral sampling of Q-Wiener increments on (0, L), Q = Lambda^{-s}.

Increments are expanded in the orthonormal Dirichlet sine basis; the
coefficient of mode j over a step of length tau is Normal with standard
deviation sqrt(tau) * (j pi / L)^{-s}. s = 0 is space-time white noise.

Randomness is counter based: a Philox generator keyed by
(master_seed, context) feeds an inverse-CDF transform, so any draw is a
pure function of the key and its position in the stream. Tapes sampled
at the finest dyadic resolution can be coarsened by exact summation,
which is what couples resolutions in strong-error studies. A block's
tapes may be drawn whole or a chunk of rows at a time (BlockSampler); the
rows are the same bit for bit either way.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import CapacityError, InvalidArgumentError

SAMPLER_IDENTITY = "philox4x64-10/inverse-cdf"

# floats held at once for a block's stream: one whole tape, or the chunk
# buffer and both noise load sets (the one being stepped, the one being filled)
MAX_TAPE_FLOATS = 2**20


def stream_context(stream_id, sample_index):
    """Pack a stream id and a sample index into one 64-bit key word."""
    if not (0 <= stream_id < 2**32 and 0 <= sample_index < 2**32):
        raise InvalidArgumentError("stream_id and sample_index must fit in 32 bits")
    return (int(stream_id) << 32) | int(sample_index)


def _philox(master_seed, context):
    return np.random.Philox(key=np.array([int(master_seed), int(context)],
                                         dtype=np.uint64))


def _shift_raw(bitgen, out):
    """Fill out (float64) with the top 53 bits of the next out.size raw words."""
    raw = bitgen.random_raw(out.size).reshape(out.shape)
    return np.right_shift(raw, 11, out=out, casting="unsafe")


def _inverse_cdf(u53):
    """53-bit integers held as floats -> standard normals, in place."""
    u53 += 0.5
    u53 *= 2.0**-53
    return ndtri(u53, out=u53)


class RngStream:
    """Deterministic normal stream: Philox counter + inverse CDF.

    Draw n at a time or all at once; the sequence is identical either way
    (raw 64-bit words map one-to-one to normals).
    """

    def __init__(self, master_seed, context=0):
        self._bitgen = _philox(master_seed, context)

    def normals(self, n):
        return _inverse_cdf(_shift_raw(self._bitgen, np.empty(int(n))))


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


class BlockSampler:
    """The tapes of a block's samples, one Philox stream each, drawn a chunk at a time.

    fill(out) writes the next rows of stream b into column b of a
    (rows, K, B) chunk: one raw draw and one shift per stream, then the
    inverse CDF and the per-mode scale once over the whole chunk. These
    are the elementwise operations of RngStream.normals followed by the
    scale, and each stream is consumed in order, so consecutive chunks
    concatenate to the whole tapes bit for bit.
    """

    def __init__(self, model, master_seed, tau, contexts):
        self._bitgens = [_philox(master_seed, ctx) for ctx in contexts]
        self._scales = (np.sqrt(tau) * coefficient_scales(model))[:, None]

    def fill(self, out):
        """Overwrite out, shape (rows, K, B), with the next rows; returns out."""
        for col, bitgen in enumerate(self._bitgens):
            _shift_raw(bitgen, out[:, :, col])
        _inverse_cdf(out)
        out *= self._scales
        return out


def chunk_rows(steps, row_floats, min_rows):
    """Fine rows per chunk of a tape whose rows hold row_floats floats each.

    The largest power of two that keeps a chunk within MAX_TAPE_FLOATS, but
    never fewer than min_rows (the largest coarsening factor, so every
    coarse step sees whole groups) and never more than the tape's steps.
    row_floats need not be whole.
    """
    fit = int(MAX_TAPE_FLOATS // row_floats)
    rows = 1 << (fit.bit_length() - 1) if fit else 1
    return min(steps, max(min_rows, rows))


# unused by the package: benchmarks/tracing.py wraps it until ROADMAP item 1
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
    tape = np.empty((steps, model.K, 1))
    return BlockSampler(model, master_seed, T / steps, [context]).fill(tape)[:, :, 0]


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
