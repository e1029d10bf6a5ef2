"""Counter-based random number generation (SplitMix64).

Every random quantity in the library is derived from a 64-bit stream seed.
The i-th raw draw of a stream is ``mix64(seed + (i+1)*GAMMA)``, a pure
function of (seed, i), so results are bit-identical regardless of platform,
execution order, or thread count.  Seeds for sub-streams (per trial, per
purpose) are derived with :func:`stream_seed`, never with Python's salted
``hash``.
"""

import numpy as np

from .linalg import as_count, is_whole

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_INIT = 0x243F6A8885A308D3
# working bytes of one batch of a large draw (Gaussian pairs here, scanned
# supports in rip): a larger request runs in more batches, never in larger
# ones, and every batch size gives the same values
BATCH_BYTES = 2 << 20

_GAMMA_U = np.uint64(_GAMMA)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    """SplitMix64 finalizer on a uint64 array (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_A
    z = (z ^ (z >> np.uint64(27))) * _MIX_B
    return z ^ (z >> np.uint64(31))


def _mix64_int(z):
    """The same finalizer on one Python int, for the ``stream_seed`` fold."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def stream_seed(*tokens):
    """Fold integer and string tokens into a 64-bit sub-stream seed.

    Deterministic and stable across runs: ints are folded by value, strings
    byte-by-byte (length-prefixed).  Used to split independent streams, e.g.
    ``stream_seed(master, algo, s, m, trial)`` for one benchmark trial.
    """
    acc = _INIT
    for tok in tokens:
        if isinstance(tok, (int, np.integer)):
            words = (int(tok) & _MASK,)
        elif isinstance(tok, str):
            data = tok.encode("utf-8")
            words = (len(data), *data)
        else:
            raise TypeError(f"cannot fold token of type {type(tok).__name__}")
        for w in words:
            acc = _mix64_int((acc ^ w) + _GAMMA)
    return acc


def as_seed(seed):
    """``int(seed)`` for an integer of any size and sign (passed on its type
    alone) or a whole float such as 3.0, else ``ValueError``."""
    if isinstance(seed, (int, np.integer)) or is_whole(seed):
        return int(seed)
    raise ValueError("seed must be a whole number")


class CounterRng:
    """SplitMix64 stream positioned by an internal draw counter.  A bad seed
    (``as_seed``) or count raises ``ValueError`` and draws nothing."""

    def __init__(self, seed):
        self._seed = np.uint64(as_seed(seed) & _MASK)
        self._count = 0

    def raw(self, n):
        """Next ``n`` raw uint64 draws."""
        n = as_count(n, "n", low=0)
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GAMMA_U)

    def uniform(self, n):
        """``n`` doubles in the open interval (0, 1)."""
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64)
        u += 0.5
        u *= 2.0**-53
        return u

    def normal(self, n):
        """``n`` standard normal draws via Box-Muller on the counter stream.

        Pairs (cos, sin) are interleaved: even outputs use the cosine branch,
        odd outputs the sine branch of the same uniform pair.  Pair i takes
        raw draws i+1 and k+i+1 of the k = ceil(n/2) pairs; they are drawn
        BATCH_BYTES // 16 pairs at a time and the counter ends 2k further on.
        """
        n = as_count(n, "n", low=0)
        k = (n + 1) // 2
        c0 = self._count
        out = np.empty(2 * k)
        step = BATCH_BYTES // 16
        for lo in range(0, k, step):
            h = min(step, k - lo)
            self._count = c0 + lo
            r = self.uniform(h)
            self._count = c0 + k + lo
            ang = self.uniform(h)
            np.log(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            ang *= 2.0 * np.pi
            even = out[2 * lo:2 * (lo + h):2]
            odd = out[2 * lo + 1:2 * (lo + h):2]
            np.cos(ang, out=even)
            even *= r
            np.sin(ang, out=odd)
            odd *= r
        self._count = c0 + 2 * k
        return out[:n]

    def signs(self, n):
        """``n`` independent uniform +-1 values (top bit of the raw draw)."""
        return np.where(self.raw(n) >> np.uint64(63), 1.0, -1.0)

    def permutation(self, n):
        """Uniform random permutation of ``range(n)`` (random-key argsort)."""
        return np.argsort(self.raw(n), kind="stable")

    def subset(self, n, k):
        """Sorted uniform random k-subset of ``range(n)``, 0 <= k <= n."""
        n, k = as_count(n, "n", low=0), as_count(k, "k", low=0)
        if k > n:
            raise ValueError(f"k={k} exceeds n={n}")
        return np.sort(self.permutation(n)[:k])


def stream_subsets(prefix, counters, n, k):
    """Row i is ``CounterRng(stream_seed(*tokens, counters[i])).subset(n, k)``
    for ``prefix = stream_seed(*tokens)``, drawn for all rows at once.

    The last fold of ``stream_seed`` and the ``n`` raw draws of each stream
    run in wrapping uint64 arithmetic over the whole batch.  ``subset``
    keeps the positions of the k smallest draws; here a row-wise partition
    finds them.  No ties can reorder them: the draws of one stream are
    distinct, because ``seed + i*GAMMA`` is distinct for i = 1..n (GAMMA is
    odd) and the finalizer is a bijection.  ``counters`` holds
    non-negative integers, and 1 <= k <= n.
    """
    counters = np.asarray(counters, dtype=np.uint64)
    idx = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        seeds = _mix64((np.uint64(prefix) ^ counters) + _GAMMA_U)
        keys = _mix64(seeds[:, None] + idx * _GAMMA_U)
    return np.sort(np.argpartition(keys, k - 1, axis=1)[:, :k], axis=1)
