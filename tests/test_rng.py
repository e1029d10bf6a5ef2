import numpy as np
import pytest

from sparsekit import rng
from sparsekit.rng import CounterRng, stream_seed

from helpers import traced_peak

# frozen first draws of the Gaussian stream for seed stream_seed(12345);
# pins RNG stability across platforms and releases
GOLDEN_NORMALS = [
    0.817608111827072,
    -0.0773591226776824,
    0.12857134166910011,
    1.2291292188669967,
]


def test_gaussian_golden_values():
    rng = CounterRng(stream_seed(12345))
    np.testing.assert_allclose(rng.normal(4), GOLDEN_NORMALS, rtol=0, atol=0)


def test_streams_are_reproducible_and_positional():
    a = CounterRng(42)
    b = CounterRng(42)
    np.testing.assert_array_equal(a.raw(10), b.raw(10))
    # consuming in chunks matches one big draw
    c = CounterRng(42)
    chunks = np.concatenate([c.raw(6), c.raw(9)])
    np.testing.assert_array_equal(chunks, CounterRng(42).raw(15))


def test_stream_seed_distinguishes_tokens():
    assert stream_seed(1, "a") != stream_seed(1, "b")
    assert stream_seed(1, 2) != stream_seed(2, 1)
    assert stream_seed("ab") != stream_seed("a", "b")
    with pytest.raises(TypeError):
        stream_seed(1.5)


def test_uniform_range_and_moments():
    u = CounterRng(7).uniform(200_000)
    assert np.all(u > 0) and np.all(u < 1)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1 / 12) < 0.002


def test_normal_moments():
    z = CounterRng(8).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def normal_reference(gen, n):
    """``CounterRng.normal`` as first written, kept frozen: every Gaussian
    matrix and noise vector is drawn through it, and the benchmark
    references pin their bytes."""
    k = (n + 1) // 2
    u1 = ((gen.raw(k) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u2 = ((gen.raw(k) >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    ang = 2.0 * np.pi * u2
    out = np.empty(2 * k)
    out[0::2] = r * np.cos(ang)
    out[1::2] = r * np.sin(ang)
    return out[:n]


class TestBlockwiseNormal:
    """``normal`` draws BATCH_BYTES // 16 pairs at a time, with the bytes,
    the counter and the raw-draw count of the one-pass draw."""

    EDGE = rng.BATCH_BYTES // 16      # pairs in one block

    @staticmethod
    def counted(monkeypatch):
        draws = []
        raw = CounterRng.raw

        def counted_raw(self, n):
            draws.append(n)
            return raw(self, n)

        monkeypatch.setattr(CounterRng, "raw", counted_raw)
        return draws

    def check(self, monkeypatch, seed, n):
        gen, ref = CounterRng(seed), CounterRng(seed)
        gen.raw(3)
        ref.raw(3)
        want = normal_reference(ref, n)
        draws = self.counted(monkeypatch)
        got = gen.normal(n)
        assert got.tobytes() == want.tobytes()
        assert sum(draws) == 2 * ((n + 1) // 2)
        assert gen.raw(2).tobytes() == ref.raw(2).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 2 * EDGE, 2 * EDGE + 1,
                                   2 * EDGE + 2])
    def test_default_blocks_match_reference(self, monkeypatch, n):
        self.check(monkeypatch, stream_seed("normal", n), n)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 10, 33])
    @pytest.mark.parametrize("pairs", [1, 2, 4])
    def test_small_blocks_match_reference(self, monkeypatch, n, pairs):
        monkeypatch.setattr(rng, "BATCH_BYTES", 16 * pairs)
        self.check(monkeypatch, stream_seed("normal", n, pairs), n)

    def test_large_draw_holds_one_block_of_temporaries(self):
        n = 1024 * 2048
        out, peak = traced_peak(CounterRng(5).normal, n)
        assert peak < out.nbytes + 4 * rng.BATCH_BYTES


def test_signs_balanced():
    s = CounterRng(9).signs(100_000)
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 0.02


def test_permutation_is_a_permutation():
    for n in (1, 2, 17, 100):
        p = CounterRng(10).permutation(n)
        assert sorted(p) == list(range(n))


def test_subset_sorted_and_uniformish():
    counts = np.zeros(6)
    for t in range(3000):
        sub = CounterRng(stream_seed(11, t)).subset(6, 2)
        assert list(sub) == sorted(sub)
        counts[sub] += 1
    # each element appears in a 2-of-6 subset with probability 1/3
    assert np.all(np.abs(counts / 3000 - 1 / 3) < 0.05)


class TestBadCounts:
    """A count that is negative or not a whole number raises ``ValueError``
    and leaves the stream where it was; before, ``raw(-2)`` wound the
    counter back and ``raw(2.5)`` left it between draws."""

    @pytest.mark.parametrize("method, args", [
        ("raw", (-2,)), ("raw", (2.5,)), ("raw", (np.nan,)),
        ("uniform", (-2,)), ("signs", (-1,)), ("permutation", (-1,)),
        ("normal", (-1,)), ("normal", (-3,)), ("normal", (1.5,)),
        ("subset", (5, 7)), ("subset", (5, -1)), ("subset", (5, 2.5)),
        ("subset", (-1, 0))])
    def test_rejected_without_moving_the_counter(self, method, args):
        gen = CounterRng(3)
        gen.raw(3)
        with pytest.raises(ValueError, match="whole number|exceeds"):
            getattr(gen, method)(*args)
        assert gen.raw(2).tobytes() == CounterRng(3).raw(5)[3:].tobytes()

    @pytest.mark.parametrize("method, args, used", [
        ("raw", (0,), 0), ("uniform", (0,), 0), ("normal", (0,), 0),
        ("permutation", (0,), 0), ("subset", (5, 0), 5), ("subset", (0, 0), 0)])
    def test_empty_results(self, method, args, used):
        # subset(n, 0) still draws its n keys
        gen = CounterRng(3)
        assert getattr(gen, method)(*args).size == 0
        assert gen.raw(1).tobytes() == CounterRng(3).raw(used + 1)[used:].tobytes()

    def test_whole_float_counts_draw_as_ints(self):
        assert CounterRng(4).raw(3.0).tobytes() == CounterRng(4).raw(3).tobytes()
        assert (CounterRng(4).normal(5.0).tobytes()
                == CounterRng(4).normal(5).tobytes())
        assert (CounterRng(4).subset(9, 4.0).tobytes()
                == CounterRng(4).subset(9, 4).tobytes())


class TestSeeds:
    """A seed is a whole number: any integer, of any size and sign, or a
    whole float such as 3.0, folded mod 2**64.  Before, ``CounterRng(2.5)``
    drew seed 2's stream and ``CounterRng("5")`` seed 5's."""

    @pytest.mark.parametrize("seed", [2.5, "5", np.nan, np.inf, -np.inf,
                                      None, np.ones(2), 1 + 0j],
                             ids=["2.5", "str", "nan", "inf", "-inf", "None",
                                  "array", "complex"])
    def test_everything_but_whole_numbers_is_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be a whole number$"):
            CounterRng(seed)

    @pytest.mark.parametrize("seed, same", [
        (3.0, 3), (np.float32(3.0), 3), (np.int64(3), 3), (np.uint64(3), 3),
        (-1, 2**64 - 1), (2**200 + 3, 3), (-(2**64) + 3, 3)])
    def test_whole_numbers_fold_mod_2_64(self, seed, same):
        assert CounterRng(seed).raw(4).tobytes() == CounterRng(same).raw(4).tobytes()

    def test_integer_seeds_keep_their_bytes(self):
        # first draws frozen before the rule came in
        assert CounterRng(7).raw(2).tolist() == [7191089600892374487,
                                                 309689372594955804]
        assert CounterRng(-7).raw(2).tolist() == [7790691224305936752,
                                                  8829294814793142954]
