import tracemalloc

import numpy as np
import pytest

from sparsekit import ensembles
from sparsekit.ensembles import (
    DCT_CACHE_BYTES,
    EnsembleSpec,
    NoiseSpec,
    SignalSpec,
    dct_matrix,
    gen_matrix,
    gen_noise,
    gen_signal,
    load_csv,
    save_matrix_csv,
    save_vector_csv,
)
from sparsekit.rng import CounterRng, stream_seed


class TestMatrices:
    def test_bernoulli_entries(self):
        A = gen_matrix(EnsembleSpec("bernoulli", 9, 20, seed=1))
        np.testing.assert_allclose(np.abs(A), 1 / 3)

    def test_unnormalized_bernoulli_is_pm_one(self):
        A = gen_matrix(EnsembleSpec("bernoulli", 4, 7, seed=2, normalize=False))
        assert set(np.unique(A)) <= {-1.0, 1.0}

    def test_full_dct_is_orthogonal(self):
        A = gen_matrix(EnsembleSpec("partial_dct", 16, 16, seed=3))
        np.testing.assert_allclose(A @ A.T, np.eye(16), atol=1e-12)
        np.testing.assert_allclose(A.T @ A, np.eye(16), atol=1e-12)

    def test_partial_dct_rows_orthonormal_before_scaling(self):
        A = gen_matrix(EnsembleSpec("partial_dct", 10, 24, seed=4,
                                    normalize=False))
        np.testing.assert_allclose(A @ A.T, np.eye(10), atol=1e-10)

    def test_dct_entries_bounded(self):
        d = 32
        assert np.max(np.abs(dct_matrix(d))) <= np.sqrt(2 / d) + 1e-15

    def test_determinism(self):
        spec = EnsembleSpec("gaussian", 12, 30, seed=5)
        assert np.array_equal(gen_matrix(spec), gen_matrix(spec))

    def test_seeds_differ(self):
        a = gen_matrix(EnsembleSpec("gaussian", 4, 4, seed=6))
        b = gen_matrix(EnsembleSpec("gaussian", 4, 4, seed=7))
        assert not np.array_equal(a, b)

    def test_gaussian_column_norm_concentration(self):
        A = gen_matrix(EnsembleSpec("gaussian", 64, 128, seed=8))
        mean_sq = np.mean(np.sum(A**2, axis=0))
        assert 0.8 <= mean_sq <= 1.2

    def test_partial_dct_needs_wide_shape(self):
        with pytest.raises(ValueError):
            EnsembleSpec("partial_dct", 10, 5)


class TestDctRows:
    """Evaluating only the selected rows gives the bytes of slicing all d."""

    @pytest.mark.parametrize("d", [64, 256, 1024])
    def test_selected_rows_equal_full_slice(self, d):
        full = dct_matrix(d)
        rng = CounterRng(stream_seed("dct-rows", d))
        for case in range(20):
            size = 1 + int(rng.uniform(1)[0] * (d - 1))
            rows = 1 + rng.permutation(d - 1)[:size]       # omits row 0
            if case % 2:
                rows = np.append(rows, 0)
            if case % 4 < 2:
                rows = np.sort(rows)
            got = dct_matrix(d, rows)
            assert got.shape == (rows.size, d)
            assert got.tobytes() == full[rows].tobytes(), (d, case)

    @pytest.mark.parametrize("m, d, normalize", [
        (1, 64, True), (16, 64, True), (64, 64, True), (100, 256, False),
        (256, 1024, True), (512, 1024, True), (64, 2048, True),
        (300, 2048, False)])
    def test_gen_matrix_equals_full_build(self, m, d, normalize):
        # d = 1024 gathers from the cached matrix, d = 2048 builds its rows
        assert 1024 * 1024 * 8 <= DCT_CACHE_BYTES < 2048 * 2048 * 8
        for seed in range(3):
            rng = CounterRng(stream_seed(seed, "matrix", "partial_dct"))
            want = dct_matrix(d)[np.sort(rng.permutation(d)[:m]), :]
            if normalize:
                want *= np.sqrt(d / m)
            A = gen_matrix(EnsembleSpec("partial_dct", m, d, seed=seed,
                                        normalize=normalize))
            assert A.tobytes() == want.tobytes(), (m, d, seed)

    @staticmethod
    def closed_form(d, rows):
        """The DCT-II rows as one expression, without the in-place build."""
        k = np.asarray(rows, dtype=np.intp)[:, None]
        j = np.arange(d)[None, :]
        C = np.sqrt(2.0 / d) * np.cos(np.pi * (2 * j + 1) * k / (2 * d))
        C[k[:, 0] == 0, :] /= np.sqrt(2.0)
        return C

    @pytest.mark.parametrize("d", [7, 64, 1024])
    def test_equals_closed_form(self, d):
        rng = CounterRng(stream_seed("dct-closed-form", d))
        perm = rng.permutation(d)
        cases = [np.arange(d), np.arange(1, d), perm[: max(1, d // 3)],
                 np.append(perm[perm != 0][:5], 0), np.array([0]),
                 np.sort(perm[: d // 2])]
        for rows in cases:
            got = dct_matrix(d, rows)
            assert got.tobytes() == self.closed_form(d, rows).tobytes(), (d, rows)
        assert dct_matrix(d).tobytes() == self.closed_form(d, np.arange(d)).tobytes()

    def test_build_peak_is_one_output(self):
        rows = np.sort(CounterRng(stream_seed("dct-peak")).permutation(1024)[:512])
        tracemalloc.start()
        try:
            C = dct_matrix(1024, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one expression with four m x d temporaries peaks at twice the output
        assert peak <= 1.25 * C.nbytes, peak / C.nbytes

    @pytest.mark.parametrize("rows", [[8], [16], [-1], [0, 3, 8], [2, -3]],
                             ids=["8", "16", "-1", "0,3,8", "2,-3"])
    def test_rows_outside_range_rejected(self, rows):
        with pytest.raises(IndexError, match="out of range for 8 rows"):
            dct_matrix(8, rows)

    @pytest.mark.parametrize("m, d", [(16, 64), (64, 64), (16, 2048)])
    def test_writing_a_result_leaves_the_next_draw_unchanged(self, m, d):
        spec = EnsembleSpec("partial_dct", m, d, seed=5)
        A = gen_matrix(spec)
        want = A.tobytes()
        A[...] = 7.0
        assert gen_matrix(spec).tobytes() == want

    def test_cached_matrix_is_read_only(self):
        gen_matrix(EnsembleSpec("partial_dct", 8, 64))
        C = ensembles._full_dct(64, dct_matrix)
        assert C is ensembles._full_dct(64, dct_matrix)
        assert C.tobytes() == dct_matrix(64).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            C[0, 0] = 1.0

    def test_cache_builds_once_through_the_module_attribute(self, monkeypatch):
        # a wrapper bound after the cache is filled still sees one build
        calls = []

        def counting(*args):
            calls.append(args)
            return dct_matrix(*args)

        gen_matrix(EnsembleSpec("partial_dct", 16, 128))
        monkeypatch.setattr(ensembles, "dct_matrix", counting)
        for seed in range(3):
            gen_matrix(EnsembleSpec("partial_dct", 16, 128, seed=seed))
        assert calls == [(128,)]

    def test_memory_follows_selected_rows(self):
        tracemalloc.start()
        try:
            A = gen_matrix(EnsembleSpec("partial_dct", 16, 4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.shape == (16, 4096)
        assert peak < 8 * 2**20         # all 4096 x 4096 rows take 128 MB


class TestSignals:
    def test_zero_sparsity(self):
        assert np.array_equal(gen_signal(SignalSpec(8, 0, seed=1)), np.zeros(8))

    def test_flat_full_support(self):
        x = gen_signal(SignalSpec(6, 6, seed=2))
        np.testing.assert_array_equal(np.sort(x), np.ones(6))

    def test_flat_values_are_unit(self):
        x = gen_signal(SignalSpec(40, 5, seed=3))
        assert np.count_nonzero(x) == 5
        assert set(x[x != 0]) == {1.0}

    def test_flat_random_signs(self):
        x = gen_signal(SignalSpec(200, 50, seed=4, random_signs=True))
        vals = set(np.unique(x[x != 0]))
        assert vals == {-1.0, 1.0}

    def test_compressible_magnitudes(self):
        x = gen_signal(SignalSpec(30, 3, "compressible", p=0.5, seed=5))
        mags = sorted(np.abs(x[x != 0]), reverse=True)
        np.testing.assert_allclose(mags, [1.0, 1 / 4, 1 / 9])

    def test_compressible_strictly_decreasing(self):
        x = gen_signal(SignalSpec(64, 10, "compressible", p=0.7, seed=6))
        mags = np.abs(x[x != 0])
        assert np.count_nonzero(x) == 10
        assert np.all(np.diff(np.sort(mags)) > 0)

    def test_support_size_exact(self):
        for s in (1, 4, 9):
            x = gen_signal(SignalSpec(20, s, seed=s))
            assert np.count_nonzero(x) == s


class TestNoise:
    def test_zero_norm(self):
        assert np.array_equal(gen_noise(NoiseSpec(5, 0.0, seed=1)), np.zeros(5))

    def test_exact_norm(self):
        e = gen_noise(NoiseSpec(33, 0.5, seed=2))
        assert abs(np.linalg.norm(e) - 0.5) < 1e-12

    def test_determinism(self):
        spec = NoiseSpec(10, 2.0, seed=3)
        assert np.array_equal(gen_noise(spec), gen_noise(spec))

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf, -1.0])
    def test_level_must_be_finite_and_non_negative(self, level):
        with pytest.raises(ValueError, match="noise level"):
            NoiseSpec(4, level)


class TestCsv:
    def test_matrix_roundtrip(self, tmp_path):
        A = gen_matrix(EnsembleSpec("gaussian", 7, 11, seed=1))
        path = tmp_path / "A.csv"
        save_matrix_csv(path, A, seed=1)
        B, meta = load_csv(path)
        assert np.array_equal(A, B)
        assert meta == {"kind": "matrix", "rows": 7, "cols": 11, "seed": 1}

    def test_vector_roundtrip(self, tmp_path):
        x = gen_signal(SignalSpec(9, 3, seed=2))
        path = tmp_path / "x.csv"
        save_vector_csv(path, x, seed=2)
        y, meta = load_csv(path)
        assert y.ndim == 1 and np.array_equal(x, y)
        assert meta["kind"] == "signal" and meta["cols"] == 9

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("just,three,fields\n")
        with pytest.raises(ValueError):
            load_csv(path)
