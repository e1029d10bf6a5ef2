import re
import threading
import time
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
    fast_adjoint,
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

    @pytest.mark.parametrize("rows, cols", [
        (np.nan, 4), (4, np.nan), (2.5, 4), (4, 2.5), (0, 4), (4, -1),
    ])
    def test_shape_must_be_whole_numbers(self, rows, cols):
        with pytest.raises(ValueError, match="must be a whole number >= 1"):
            EnsembleSpec("gaussian", rows, cols)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown ensemble family 'rademacher'"):
            EnsembleSpec("rademacher", 4, 8)

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

    @pytest.mark.parametrize("d", [2.5, -3, 0, np.nan],
                             ids=["2.5", "-3", "0", "nan"])
    def test_size_must_be_a_whole_number(self, d):
        # 2.5 built a 3 x 3 matrix that is not orthogonal, -3 an empty one,
        # and 0 divided by zero
        with pytest.raises(ValueError, match="d must be a whole number >= 1"):
            dct_matrix(d)

    def test_whole_float_size_builds_the_int_size(self):
        assert dct_matrix(8.0).tobytes() == dct_matrix(8).tobytes()
        assert dct_matrix(8.0, [3, 1]).tobytes() == dct_matrix(8, [3, 1]).tobytes()
        assert dct_matrix(8, [3.0, 1.0]).tobytes() == dct_matrix(8, [3, 1]).tobytes()

    @pytest.mark.parametrize("rows", [[0.5], [1, np.nan], [np.inf]],
                             ids=["0.5", "nan", "inf"])
    def test_rows_must_be_whole_numbers(self, rows):
        # truncated, [0.5] built row 0
        with pytest.raises(ValueError, match="rows must hold whole numbers"):
            dct_matrix(4, rows)

    def test_boolean_mask_rejected(self):
        # read as rows 1, 0, 1, 0, where numpy indexing reads rows 0 and 2
        with pytest.raises(ValueError, match="^rows must be indices, not a boolean mask$"):
            dct_matrix(4, [True, False, True, False])

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

    def test_threads_that_miss_together_get_the_serial_bytes(self, monkeypatch):
        # the slow build holds both threads inside the miss at once; each may
        # build the matrix, and both get the bytes of a serial draw
        def slow(*args):
            time.sleep(0.2)
            return dct_matrix(*args)

        monkeypatch.setattr(ensembles, "dct_matrix", slow)
        barrier = threading.Barrier(2)
        out = [None, None]

        def draw(i):
            barrier.wait()
            out[i] = gen_matrix(EnsembleSpec("partial_dct", 8, 64, seed=i))

        threads = [threading.Thread(target=draw, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(2):
            spec = EnsembleSpec("partial_dct", 8, 64, seed=i)
            assert out[i].tobytes() == gen_matrix(spec).tobytes()

    def test_memory_follows_selected_rows(self):
        tracemalloc.start()
        try:
            A = gen_matrix(EnsembleSpec("partial_dct", 16, 4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.shape == (16, 4096)
        assert peak < 8 * 2**20         # all 4096 x 4096 rows take 128 MB


class TestFastAdjoint:
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("d", [64, 1000, 1024, 2048])
    @pytest.mark.parametrize("frac", [0, 4, 1], ids=["m=1", "m=d/4", "m=d"])
    def test_matches_dense_transpose(self, d, frac, normalize):
        # d=1000 is not a power of two; 1024 gathers from the cached
        # matrix, 2048 builds only the drawn rows
        m = 1 if frac == 0 else d // frac
        spec = EnsembleSpec("partial_dct", m, d, seed=7, normalize=normalize)
        r = CounterRng(stream_seed("adjoint", d, m)).normal(m)
        want = gen_matrix(spec).T @ r
        got = fast_adjoint(spec)(r)
        assert got.shape == (d,)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("family", ["gaussian", "bernoulli"])
    def test_dense_families_have_none(self, family):
        assert fast_adjoint(EnsembleSpec(family, 8, 16)) is None


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


    @pytest.mark.parametrize("dim, s, message", [
        (10, 2.5, "sparsity must be a whole number >= 0"),
        (10, -1, "sparsity must be a whole number >= 0"),
        (10, np.nan, "sparsity must be a whole number >= 0"),
        (10, 11, r"sparsity must lie in \[0, dim\]"),
        (0, 0, "dim must be a whole number >= 1"),
        (2.5, 1, "dim must be a whole number >= 1"),
    ], ids=["s-half", "s-negative", "s-nan", "s-past-dim", "dim-zero",
            "dim-half"])
    def test_counts_checked_by_name(self, dim, s, message):
        with pytest.raises(ValueError, match=message):
            SignalSpec(dim, s)

    def test_whole_float_counts_draw_the_int_signal(self):
        spec = SignalSpec(10.0, 2.0, seed=7)
        assert type(spec.dim) is int and type(spec.sparsity) is int
        assert gen_signal(spec).tobytes() == gen_signal(
            SignalSpec(10, 2, seed=7)).tobytes()


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

    @pytest.mark.parametrize("dim", [-3, 0, 2.5, np.nan])
    def test_dim_must_be_a_whole_number(self, dim):
        # -3 raised numpy's "negative dimensions" and 2.5 named rng's n
        with pytest.raises(ValueError, match="^dim must be a whole number >= 1$"):
            NoiseSpec(dim, 1.0)

    def test_whole_float_dim_draws_the_int_noise(self):
        spec = NoiseSpec(6.0, 1.0, seed=4)
        assert type(spec.dim) is int
        assert gen_noise(spec).tobytes() == gen_noise(NoiseSpec(6, 1.0, seed=4)).tobytes()


class TestSeeds:
    """Every spec takes a seed by the ``CounterRng`` rule at construction;
    before, ``seed=2.5`` constructed and the first draw raised ``TypeError``
    inside ``stream_seed``."""

    SPECS = {
        "ensemble": lambda seed: EnsembleSpec("gaussian", 2, 3, seed=seed),
        "signal": lambda seed: SignalSpec(10, 2, seed=seed),
        "noise": lambda seed: NoiseSpec(4, 1.0, seed=seed),
    }
    DRAW = {"ensemble": gen_matrix, "signal": gen_signal, "noise": gen_noise}

    @pytest.mark.parametrize("kind", SPECS)
    @pytest.mark.parametrize("seed", [2.5, "5", np.nan, np.inf, None],
                             ids=["2.5", "str", "nan", "inf", "None"])
    def test_rejected_at_construction(self, kind, seed):
        with pytest.raises(ValueError, match="^seed must be a whole number$"):
            self.SPECS[kind](seed)

    @pytest.mark.parametrize("kind", SPECS)
    @pytest.mark.parametrize("seed, same", [
        (3.0, 3), (np.int64(3), 3), (np.float32(3.0), 3), (-1, -1),
        (2**70 + 3, 2**70 + 3)])
    def test_whole_numbers_draw_the_int_seed(self, kind, seed, same):
        spec = self.SPECS[kind](seed)
        assert type(spec.seed) is int
        draw = self.DRAW[kind]
        assert draw(spec).tobytes() == draw(self.SPECS[kind](same)).tobytes()

    @pytest.mark.parametrize("kind", SPECS)
    def test_seeds_fold_mod_2_64(self, kind):
        draw = self.DRAW[kind]
        assert (draw(self.SPECS[kind](2**64 + 5)).tobytes()
                == draw(self.SPECS[kind](5)).tobytes())


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

    @pytest.mark.parametrize("edit, held", [
        (lambda lines: lines[:-1], "(6, 11)"),
        (lambda lines: lines[:1] + [row + ",0" for row in lines[1:]], "(7, 12)"),
    ], ids=["missing-row", "extra-column"])
    def test_shape_must_match_header(self, tmp_path, edit, held):
        path = tmp_path / "A.csv"
        save_matrix_csv(path, gen_matrix(EnsembleSpec("gaussian", 7, 11, seed=1)))
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        want = f"header promises 7x11, file holds {held}"
        with pytest.raises(ValueError, match=re.escape(want)):
            load_csv(path)
