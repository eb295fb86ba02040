"""Spectral noise sampling, path tapes, coarsening, stream book-keeping."""

import json
import math
from importlib import resources

import numpy as np
import pytest
from scipy.special import ndtri

from spdefem import cli, harness, noise
from spdefem.errors import CapacityError, InvalidArgumentError


def model(s=0.5005, K=8, L=1.0):
    return noise.make_noise_model(s, K, L)


class TestStreams:
    def test_context_packing(self):
        assert noise.stream_context(0, 0) == 0
        assert noise.stream_context(0, 7) == 7
        assert noise.stream_context(1, 0) == 2**32
        assert noise.stream_context(3, 5) == (3 << 32) | 5

    def test_context_range_checks(self):
        with pytest.raises(InvalidArgumentError):
            noise.stream_context(-1, 0)
        with pytest.raises(InvalidArgumentError):
            noise.stream_context(0, 2**32)

    def test_same_key_same_draws(self):
        a = noise.RngStream(42, 7).normals(100)
        b = noise.RngStream(42, 7).normals(100)
        assert np.array_equal(a, b)

    def test_different_contexts_differ(self):
        a = noise.RngStream(42, 7).normals(100)
        b = noise.RngStream(42, 8).normals(100)
        assert not np.array_equal(a, b)

    def test_chunked_draws_concatenate(self):
        # consuming a stream in pieces gives the same values as one draw
        s = noise.RngStream(9, 1)
        chunks = np.concatenate([s.normals(13), s.normals(1), s.normals(86)])
        assert np.array_equal(chunks, noise.RngStream(9, 1).normals(100))

    def test_normals_are_standard(self):
        x = noise.RngStream(0, 0).normals(200_000)
        assert abs(x.mean()) < 0.01
        assert abs(x.std() - 1.0) < 0.01
        assert abs((x**3).mean()) < 0.03


class TestModel:
    def test_gamma_labels(self):
        assert noise.reporting_gamma(0.0) == 0.5
        assert noise.reporting_gamma(0.5005) == 1.0
        assert noise.reporting_gamma(0.25) == 0.75
        assert noise.reporting_gamma(10.0) == 2.0    # capped

    def test_coefficient_scale_frozen(self):
        m = model(s=0.5005, K=3)
        scales = noise.coefficient_scales(m)
        assert scales[0] ** 2 == pytest.approx(0.31794571582223057472, rel=1e-14)

    def test_white_noise_flat(self):
        m = model(s=0.0, K=5)
        assert np.array_equal(noise.coefficient_scales(m), np.ones(5))

    def test_invalid_inputs(self):
        with pytest.raises(InvalidArgumentError):
            noise.make_noise_model(-0.5, 8, 1.0)
        with pytest.raises(InvalidArgumentError):
            noise.make_noise_model(0.5, 0, 1.0)
        for s in (np.inf, np.nan):
            with pytest.raises(InvalidArgumentError, match="finite"):
                noise.make_noise_model(s, 8, 1.0)


class TestIncrements:
    def test_variance_scaling(self):
        # each row of a tape is one increment over a step of length tau
        m = model(s=0.5005, K=4)
        tau, steps = 0.125, 2**15
        draws = noise.sample_tape_coeffs(m, 1, tau * steps, steps)
        var = draws.var(axis=0, ddof=1)
        expect = tau * noise.coefficient_scales(m) ** 2
        assert np.allclose(var, expect, rtol=0.05)
        assert np.abs(draws.mean(axis=0)).max() < 4 * np.sqrt(expect[0] / steps) + 1e-4


class TestTapes:
    def test_tape_shape_and_determinism(self):
        m = model(K=5)
        t1 = noise.sample_tape_coeffs(m, 11, 2.0, 16)
        t2 = noise.sample_tape_coeffs(m, 11, 2.0, 16)
        assert t1.shape == (16, 5)
        assert np.array_equal(t1, t2)
        # rows are increments over tau = T / steps = 0.125
        raw = noise.RngStream(11, 0).normals(16 * 5).reshape(16, 5)
        assert np.array_equal(t1, np.sqrt(0.125) * noise.coefficient_scales(m) * raw)

    def test_power_of_two_enforced(self):
        with pytest.raises(InvalidArgumentError):
            noise.sample_tape_coeffs(model(), 0, 1.0, 100)

    def test_capacity_guard(self):
        m = model(K=1024)
        with pytest.raises(CapacityError):
            noise.sample_tape_coeffs(m, 0, 1.0, 2**17)

    def test_coarsen_children_sum_to_parents(self):
        tape = noise.sample_tape_coeffs(model(K=3), 5, 1.0, 32)
        for factor in (1, 2, 4, 8, 32):
            coarse = noise.coarsen_coeffs(tape, factor)
            assert coarse.shape == (32 // factor, 3)
            assert np.array_equal(coarse, tape.reshape(-1, factor, 3).sum(axis=1))

    def test_coarsen_rejects_bad_factors(self):
        tape = noise.sample_tape_coeffs(model(K=2), 5, 1.0, 16)
        with pytest.raises(InvalidArgumentError):
            noise.coarsen_coeffs(tape, 3)
        with pytest.raises(InvalidArgumentError):
            noise.coarsen_coeffs(tape, 32)
        with pytest.raises(InvalidArgumentError):
            noise.coarsen_coeffs(tape, 0)

    def test_tape_layout_row_major_in_time(self):
        # first K draws of the stream fill step 0, the next K fill step 1
        m = model(s=0.0, K=4)
        raw = noise.RngStream(21, 0).normals(8 * 4).reshape(8, 4)
        tape = noise.sample_tape_coeffs(m, 21, 8.0, 8)
        assert np.array_equal(tape, raw)   # scale 1, tau 1 for this setup

    def test_batched_block_layout_matches_singles(self):
        m = model(K=3)
        singles = [noise.sample_tape_coeffs(m, 4, 1.0, 8,
                                            noise.stream_context(0, i))
                   for i in range(5)]
        stacked = np.stack(singles)
        sampler = noise.BlockSampler(m, 4, 1.0 / 8,
                                     [noise.stream_context(0, i) for i in range(5)])
        # one buffer refilled in place, as _paths_block's tape buffer is,
        # so each chunk is copied out before the next fill
        buf = np.zeros((5, 5, 3))
        chunks = []
        for rows in (3, 5):
            sampler.fill(buf[:, :rows])
            chunks.append(buf[:, :rows].copy())
        assert np.array_equal(np.concatenate(chunks, axis=1), stacked)


def philox_tape(m, seed, tau, steps, ctx):
    """One stream's tape from the raw Philox words, written out step by step."""
    raw = np.random.Philox(key=[seed, ctx]).random_raw(steps * m.K)
    u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return (np.sqrt(tau) * noise.coefficient_scales(m)) * ndtri(u).reshape(steps, m.K)


class _Words:
    """A stand-in for noise._generator's Generator whose random() yields
    the uniforms k 2^-53 of the given 53-bit words k, in turn."""

    def __init__(self, words):
        self._u = iter(np.array(words, dtype=float) * 2.0**-53)

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out.flat = [next(self._u) for _ in range(out.size)]
        return out


class TestEdgeWords:
    # the least, the middle and the top 53-bit words; the top one rounds to
    # u = 1.0 without the cap, where the inverse CDF is +inf
    WORDS = [0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1]

    def test_inverse_cdf_is_finite_and_increasing(self):
        k = np.array(self.WORDS, dtype=float)
        z = noise._inverse_cdf(k * 2.0**-53)
        assert np.all(np.isfinite(z)) and np.all(np.diff(z) > 0)
        # every word below the top keeps its cell's middle, (k + 1/2) 2^-53 rounded
        assert np.array_equal(z[:-1], ndtri((k[:-1] + 0.5) * 2.0**-53))
        assert z[-1] == ndtri(1.0 - 2.0**-53)

    def test_stream_and_block_draw_edge_words_alike(self, monkeypatch):
        # RngStream.normals and BlockSampler.fill share the one transform
        monkeypatch.setattr(noise, "_generator",
                            lambda seed, ctx: _Words(self.WORDS))
        normals = noise.RngStream(0, 0).normals(len(self.WORDS))
        assert np.all(np.isfinite(normals))
        sampler = noise.BlockSampler(model(s=0.0, K=len(self.WORDS)), 0, 1.0, [0, 1])
        tape = sampler.fill(np.empty((2, 1, len(self.WORDS))))
        assert np.array_equal(tape[0, 0], normals) and np.array_equal(tape[1, 0], normals)


class TestChunkedTapes:
    @pytest.mark.parametrize("rows", [1, 3, 4, 8])
    def test_chunks_concatenate_to_whole_tape(self, rows):
        # with K = 3, chunks of 1 or 3 rows end inside Philox's 4-word buffer
        m = model(K=3)
        for B in (1, 3):
            ctxs = [noise.stream_context(1, 5 + i) for i in range(B)]
            want = np.stack([philox_tape(m, 17, 2.0 / 32, 32, c) for c in ctxs])
            sampler = noise.BlockSampler(m, 17, 2.0 / 32, ctxs)
            sizes = [rows] * (32 // rows) + ([32 % rows] if 32 % rows else [])
            got = np.concatenate([sampler.fill(np.empty((B, r, 3))) for r in sizes],
                                 axis=1)
            assert np.array_equal(got, want)
        assert np.array_equal(noise.sample_tape_coeffs(m, 17, 2.0, 32, ctxs[0]),
                              want[0])

    def test_chunk_rows_policy(self, monkeypatch):
        # 2**20 floats of a 63-mode, 64-stream block: 256 rows of 4032 floats
        assert harness._stream_plan(4096, 63, [])[0] == 256
        # a factor above the chunk costs one load a set, one running sum and
        # the tape's spare row, 260 x 4032 floats at 256 rows; it never
        # forces a larger chunk
        plan = harness._stream_plan(4096, 63, [(6, 1024)])
        assert (plan[0], plan_floats(plan)) == (256, 260 * 63 * 64)
        # every buffer is BLOCK streams wide, whatever the block's samples
        _, tape, sums, sets = plan
        assert {tape[0], *(s[0] for s in sums.values())} == {harness.BLOCK}
        assert {shape[-1] for st in sets for shape in st.values()} == {harness.BLOCK}
        # never more rows than the tape has (rows of 64 floats, loads of 64)
        assert harness._stream_plan(64, 1, [(1, 1)])[0] == 64
        # a row larger than the budget (2**21 floats) still gets a chunk of one row
        assert harness._stream_plan(8, 2**15, [])[0] == 1
        # _paths_block's budget holds the tape buffer (with its spare row),
        # both load sets and the running sums
        assert block_chunk_rows(monkeypatch, [(8, h) for h in range(5, 10)]) == 4
        assert block_chunk_rows(monkeypatch, [(m, 6) for m in (6, 7, 8, 9, 12)]) == 64
        # the weak ladder: its largest factor, 128, spans two chunks of 64
        # rows, (1 + 65 + 2 (1 + 1 + 2 + 4 + 64)) x 4032 floats
        rows, floats = block_plan(monkeypatch, *ladder([(m, 6) for m in (5, 6, 7, 8, 12)]))
        assert (rows, floats) == (64, 210 * 63 * 64)


class _Sized(Exception):
    pass


def plan_floats(plan):
    """The floats of a harness._stream_plan's buffers: the tape, the running
    sums and both load sets."""
    _, tape, sums, sets = plan
    shapes = [tape, *sums.values()] + [shape for st in sets for shape in st.values()]
    return sum(math.prod(shape) for shape in shapes)


def ladder(resolutions):
    """A 64-sample strong-rate config and its legs on stream 0 over the
    resolutions (m, h_exp), the last one the reference; K is the finest
    mesh's n."""
    grid = tuple(harness.Resolution(m, h) for m, h in resolutions)
    cfg = harness.StudyConfig(
        kind="strong_rate", L=1.0, drift=None, taming=None, initial_modes=None,
        s=0.5005, K=None, grid=grid[:-1], reference=grid[-1], T=1.0,
        samples=64, seed=0)
    return cfg, [harness.Leg(r, 0, (None,)) for r in grid]


def block_plan(monkeypatch, cfg, legs, b=0):
    """The rows per chunk that block b of cfg picks for its first stream,
    and the floats of that stream's planned buffers. The block stops once
    the plan is made."""
    plans = []
    stream_plan = harness._stream_plan

    def spy(*args):
        plans.append(stream_plan(*args))
        raise _Sized

    with monkeypatch.context() as patch, pytest.raises(_Sized):
        patch.setattr(harness, "_stream_plan", spy)
        harness._paths_block(cfg, b, legs)
    return plans[0][0], plan_floats(plans[0])


def block_chunk_rows(monkeypatch, resolutions):
    """Rows per chunk of a 64-sample block whose legs share stream 0."""
    return block_plan(monkeypatch, *ladder(resolutions))[0]


class _Legs(Exception):
    pass


def noisy_presets():
    root = resources.files("spdefem") / "presets"
    return sorted(e.name[:-5] for e in root.iterdir()
                  if e.name.endswith(".json") and json.loads(e.read_text()).get("noise"))


@pytest.mark.parametrize("preset", noisy_presets())
def test_every_preset_stream_fits_the_budget(monkeypatch, preset):
    # every stream of every block shape (the first and the tail block)
    cfg, extras = cli.parse_document(cli.load_document(preset))

    def legs_of(cfg, legs, per_sample):
        raise _Legs(legs)

    with monkeypatch.context() as patch, pytest.raises(_Legs) as caught:
        patch.setattr(harness, "_run_legs", legs_of)
        cli.STUDIES[cfg.kind][0](cfg, **extras)
    legs = caught.value.args[0]
    for b in {0, harness._n_blocks(cfg) - 1}:
        for stream in dict.fromkeys(leg.stream for leg in legs):
            rows, floats = block_plan(monkeypatch, cfg,
                                      [leg for leg in legs if leg.stream == stream], b)
            assert floats <= noise.MAX_TAPE_FLOATS, (b, stream, rows)
