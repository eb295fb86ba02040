"""Spectral noise sampling, path tapes, coarsening, stream book-keeping."""

import numpy as np
import pytest

from spdefem import noise
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
        from spdefem.harness import _draw_chunk
        m = model(K=3)
        singles = [noise.sample_tape_coeffs(m, 4, 1.0, 8,
                                            noise.stream_context(0, i))
                   for i in range(5)]
        stacked = np.stack(singles, axis=2)
        samplers = [noise.TapeSampler(m, 4, 1.0 / 8, noise.stream_context(0, i))
                    for i in range(5)]
        # one buffer refilled in place, as each of _paths_block's two
        # buffers is, so each chunk is copied out before the next fill
        buf = np.zeros((5, 3, 5))
        chunks = []
        for rows in (3, 5):
            _draw_chunk(samplers, buf[:rows])
            chunks.append(buf[:rows].copy())
        assert np.array_equal(np.concatenate(chunks), stacked)


class TestChunkedTapes:
    @pytest.mark.parametrize("rows", [1, 3, 4, 8])
    def test_chunks_concatenate_to_whole_tape(self, rows):
        # with K = 3, chunks of 1 or 3 rows end inside Philox's 4-word buffer
        m = model(K=3)
        ctx = noise.stream_context(1, 5)
        whole = noise.sample_tape_coeffs(m, 17, 2.0, 32, ctx)
        sampler = noise.TapeSampler(m, 17, 2.0 / 32, ctx)
        sizes = [rows] * (32 // rows) + ([32 % rows] if 32 % rows else [])
        chunks = np.concatenate([sampler.rows(r) for r in sizes])
        assert np.array_equal(chunks, whole)

    def test_chunk_rows_policy(self):
        # 2**20 floats of a 63-mode, 64-sample block: 256 rows of 4032 floats
        assert noise.chunk_rows(4096, 63 * 64, 128) == 256
        # _paths_block's two buffers share the budget: at the shape of
        # a 2**12-step tape coarsened to 2**5, each buffer holds 128 rows
        assert noise.chunk_rows(4096, 2 * 63 * 64, 128) == 128
        # never fewer rows than the largest coarsening factor
        assert noise.chunk_rows(4096, 63 * 64, 1024) == 1024
        # never more rows than the tape has
        assert noise.chunk_rows(64, 10, 1) == 64
        # a row larger than the budget still gets a chunk of one row
        assert noise.chunk_rows(8, 2**21, 1) == 1
