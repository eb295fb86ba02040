"""Spectral sampling of Q-Wiener increments on (0, L), Q = Lambda^{-s}.

Increments are expanded in the orthonormal Dirichlet sine basis; the
coefficient of mode j over a step of length tau is Normal with standard
deviation sqrt(tau) * (j pi / L)^{-s}. s = 0 is space-time white noise.

Randomness is counter based: a Philox generator keyed by
(master_seed, context) feeds an inverse-CDF transform, so any draw is a
pure function of the key and its position in the stream. Tapes sampled
at the finest dyadic resolution can be coarsened by exact summation,
which is what couples resolutions in strong-error studies. A block's
tapes may be drawn whole or a chunk of rows at a time (BlockSampler), into
a stream-major (B, rows, K) buffer; the rows are the same bit for bit
either way. How many rows a chunk holds is the block driver's choice,
within MAX_TAPE_FLOATS.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import CapacityError, InvalidArgumentError

SAMPLER_IDENTITY = "philox4x64-10/inverse-cdf"

# floats a block's stream may hold at once (8 MiB): the most that
# sample_tape_coeffs draws as one tape, and the budget within which the
# block driver plans its chunked streams
MAX_TAPE_FLOATS = 2**20


def stream_context(stream_id, sample_index):
    """Pack a stream id and a sample index into one 64-bit key word."""
    if not (0 <= stream_id < 2**32 and 0 <= sample_index < 2**32):
        raise InvalidArgumentError("stream_id and sample_index must fit in 32 bits")
    return (int(stream_id) << 32) | int(sample_index)


def _generator(master_seed, context):
    philox = np.random.Philox(key=np.array([int(master_seed), int(context)],
                                           dtype=np.uint64))
    return np.random.Generator(philox)


def _inverse_cdf(u):
    """Uniforms k 2^-53 (Generator.random: the top 53 bits k of one raw
    word each) -> standard normals, in place.

    Each is moved to the middle of its cell, (k + 1/2) 2^-53 rounded, and
    capped below 1: the top word, k = 2^53 - 1, rounds to 1.0, which the
    inverse CDF would turn into +inf, so it maps to 1 - 2^-53 instead.
    """
    u += 2.0**-54
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u, out=u)


class RngStream:
    """Deterministic normal stream: Philox counter + inverse CDF.

    Draw n at a time or all at once; the sequence is identical either way
    (raw 64-bit words map one-to-one to normals).
    """

    def __init__(self, master_seed, context=0):
        self._gen = _generator(master_seed, context)

    def normals(self, n):
        return _inverse_cdf(self._gen.random(int(n)))


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
    if not 0 <= s < math.inf:
        raise InvalidArgumentError(f"s (spectral decay) must be finite and >= 0, got {s}")
    K = int(K)
    if K < 1:
        raise InvalidArgumentError(f"K (truncation level) must be >= 1, got {K}")
    if not L > 0:
        raise InvalidArgumentError(f"domain length must be positive, got {L}")
    return NoiseModel(s=float(s), K=K, L=float(L), gamma_report=reporting_gamma(s))


def coefficient_scales(model):
    """Per-mode standard deviation factors (j pi / L)^{-s}, shape (K,)."""
    j = np.arange(1, model.K + 1, dtype=float)
    return (j * np.pi / model.L) ** (-model.s)


class BlockSampler:
    """The tapes of a block's samples, one Philox stream each, drawn a chunk at a time.

    fill(out) writes the next rows of stream b into out[b] of a
    stream-major (B, rows, K) chunk: one Generator.random call per stream,
    straight into its contiguous rows (it releases the GIL), then the
    inverse CDF and the per-mode scale once over the whole chunk. These
    are the operations of RngStream.normals followed by the scale, and
    each stream is consumed in order, so consecutive chunks concatenate to
    the whole tapes bit for bit.
    """

    def __init__(self, model, master_seed, tau, contexts):
        self._gens = [_generator(master_seed, ctx) for ctx in contexts]
        self._scales = np.sqrt(tau) * coefficient_scales(model)

    def fill(self, out):
        """Overwrite out, shape (B, rows, K), each out[b] C-contiguous, with
        the next rows; returns out."""
        for gen, rows in zip(self._gens, out, strict=True):
            gen.random(out=rows)
        _inverse_cdf(out)
        out *= self._scales
        return out


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
    tape = np.empty((1, steps, model.K))
    return BlockSampler(model, master_seed, T / steps, [context]).fill(tape)[0]


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
