"""Seeded generation of measurement matrices, test signals, and noise.

Families
--------
gaussian     i.i.d. standard normal entries, optionally scaled by 1/sqrt(m)
bernoulli    i.i.d. uniform +-1 entries, optionally scaled by 1/sqrt(m)
partial_dct  m rows drawn without replacement from the d x d orthogonal
             DCT-II matrix, optionally scaled by sqrt(d/m); the rows are
             gathered from one full matrix cached per process while it fits
             DCT_CACHE_BYTES (d <= 1024), and only the m drawn rows are
             evaluated above that

``fast_adjoint(spec)`` applies A' for a partial-DCT spec without A: the m
samples are zero-filled into a length-2d vector, multiplied by a twiddle and
sent through one length-2d inverse FFT, O(d log d) in place of an m x d
product.  It agrees with ``gen_matrix(spec).T @ r`` to rounding, not bit
for bit: against an extended-precision product the FFT is off by about
5e-16 of max|y|, the dense product by up to about 6e-13 at d = 2048,
because the dense entries round cos at arguments up to about 2 pi d.
Dense families have no fast route and get ``None``.

Signals are flat (unit entries, optionally random signs) or compressible
(the i-th selected entry gets magnitude i**(-1/p) with a random sign).
All generators are pure functions of their spec, including the seed.

CSV interchange layout (for cross-implementation comparison): a header row
``kind,rows,cols,seed`` followed by ``rows`` lines of ``cols`` comma-
separated values printed with full round-trip precision.  Vectors are
stored as a single row with ``rows=1``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_count, as_indices
from .rng import CounterRng, as_seed, stream_seed

FAMILIES = ("gaussian", "bernoulli", "partial_dct")
SIGNAL_KINDS = ("flat", "compressible")
# largest full DCT kept between calls (d <= 1024, 8 MB): one cached matrix
# stays a small share of a run's memory, and a larger d builds only its
# drawn rows
DCT_CACHE_BYTES = 8 * 2**20


@dataclass(frozen=True)
class EnsembleSpec:
    family: str
    rows: int
    cols: int
    seed: int = 0
    normalize: bool = True

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown ensemble family {self.family!r}")
        for name in ("rows", "cols"):
            object.__setattr__(self, name, as_count(getattr(self, name), name))
        object.__setattr__(self, "seed", as_seed(self.seed))
        if self.family == "partial_dct" and self.rows > self.cols:
            raise ValueError("partial_dct requires rows <= cols")


@dataclass(frozen=True)
class SignalSpec:
    dim: int
    sparsity: int
    kind: str = "flat"
    p: float = 0.5
    seed: int = 0
    random_signs: bool = False

    def __post_init__(self):
        if self.kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {self.kind!r}")
        object.__setattr__(self, "dim", as_count(self.dim, "dim"))
        object.__setattr__(self, "sparsity", as_count(self.sparsity, "sparsity", low=0))
        object.__setattr__(self, "seed", as_seed(self.seed))
        if self.sparsity > self.dim:
            raise ValueError("sparsity must lie in [0, dim]")
        if self.kind == "compressible" and not 0.0 < self.p < 1.0:
            raise ValueError("compressible decay exponent p must be in (0, 1)")


@dataclass(frozen=True)
class NoiseSpec:
    dim: int
    target_norm: float
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dim", as_count(self.dim, "dim"))
        object.__setattr__(self, "seed", as_seed(self.seed))
        if not 0 <= self.target_norm < math.inf:
            raise ValueError(f"noise level target_norm must be finite and "
                             f">= 0, got {self.target_norm}")


def dct_matrix(d, rows=None):
    """Rows of the orthogonal d x d DCT-II matrix (rows orthonormal, entries
    <= sqrt(2/d)); all d rows by default, in the order given otherwise.

    Only the selected rows are evaluated, and they hold the same bytes as
    the same rows sliced from the full matrix.  The m x d result is built in
    one buffer: each step of sqrt(2/d) * cos(pi (2j+1) k / 2d) runs in
    place, in the order of that expression, so the peak allocation is about
    one output and every entry gets the same IEEE operations.  A row outside
    [0, d) raises ``IndexError``.  Every call builds afresh; ``gen_matrix``
    is what caches.  d must be a whole number >= 1 and each row a whole
    number (``ValueError``).
    """
    d = as_count(d, "d")
    k = (np.arange(d) if rows is None else as_indices(rows, "rows"))[:, None]
    if k.size and (k.min() < 0 or k.max() >= d):
        raise IndexError(f"row index out of range for {d} rows")
    j = np.arange(d)[None, :]
    C = np.pi * (2 * j + 1) * k
    C /= 2 * d
    np.cos(C, out=C)
    np.multiply(np.sqrt(2.0 / d), C, out=C)
    C[k[:, 0] == 0, :] /= np.sqrt(2.0)
    return C


_dct_cache = None                   # ((d, build), read-only matrix)


def _full_dct(d, build):
    """The read-only d x d DCT-II matrix ``build(d)``, kept until another
    (d, build) asks for one.

    Callers pass ``dct_matrix`` as looked up at call time, so a wrapper
    bound over ``ensembles.dct_matrix`` (as the perfbench tracer does)
    misses the cache once and sees the build it causes.  The entry is set in
    one assignment; threads that miss together each build the same bytes.
    """
    global _dct_cache
    key = (d, build)
    cached = _dct_cache
    if cached is None or cached[0] != key:
        C = build(d)
        C.flags.writeable = False
        _dct_cache = cached = (key, C)
    return cached[1]


def _dct_rows(spec):
    """The sorted DCT rows that a partial-DCT spec draws."""
    rng = CounterRng(stream_seed(spec.seed, "matrix", spec.family))
    return rng.subset(spec.cols, spec.rows)


def gen_matrix(spec):
    """Draw a measurement matrix for the given ensemble spec.

    Partial-DCT rows are gathered from the cached full matrix while d x d
    doubles fit ``DCT_CACHE_BYTES``; the gather copies them, so the result
    is the caller's to write.  A larger d builds only the m drawn rows.
    Both routes give the same bytes.
    """
    m, d = spec.rows, spec.cols
    if spec.family == "partial_dct":
        rows = _dct_rows(spec)
        if d * d * 8 <= DCT_CACHE_BYTES:
            A = _full_dct(d, dct_matrix)[rows]
        else:
            A = dct_matrix(d, rows)
        if spec.normalize:
            A *= np.sqrt(d / m)
        return A
    rng = CounterRng(stream_seed(spec.seed, "matrix", spec.family))
    if spec.family == "gaussian":
        A = rng.normal(m * d).reshape(m, d)
    else:
        A = rng.signs(m * d).reshape(m, d)
    if spec.normalize:
        A /= np.sqrt(m)
    return A


def fast_adjoint(spec):
    """``r -> gen_matrix(spec).T @ r`` through the FFT, or ``None`` for a
    dense family.

    Row k of the DCT-II is a_k sqrt(2/d) cos(pi (2j+1) k / 2d), with a_0 =
    1/sqrt(2) and a_k = 1 otherwise.  With z_k = scale a_k sqrt(2/d) r_i on
    the i-th drawn row k and 0 elsewhere, (A'r)_j = Re sum_k z_k
    exp(i pi k / 2d) exp(2 pi i j k / 2d): one twiddle multiply and one
    unnormalized length-2d inverse FFT, of which the first d entries are
    kept.  The rows come from the same draw as
    ``gen_matrix``.  The result matches the dense product only to rounding
    (see the module docstring), so a greedy selection made through it can
    differ from one made through ``A.T @ r`` only where two proxy entries
    tie to within that rounding.
    """
    if spec.family != "partial_dct":
        return None
    m, d = spec.rows, spec.cols
    rows = _dct_rows(spec)
    scale = np.sqrt(d / m) if spec.normalize else 1.0
    coef = (scale * np.sqrt(2.0 / d)) * np.exp(1j * np.pi * rows / (2 * d))
    coef[rows == 0] /= np.sqrt(2.0)

    def adjoint(r):
        w = np.zeros(2 * d, dtype=complex)
        w[rows] = coef * r
        return np.fft.ifft(w, norm="forward")[:d].real.copy()

    return adjoint


def gen_signal(spec):
    """Draw a sparse test signal.

    The support is a uniform random s-subset.  Flat signals place 1 (or a
    random sign when ``random_signs``) on each selected entry; compressible
    signals place +-i**(-1/p) on the i-th selected entry, so magnitudes
    decrease strictly in selection order.
    """
    x = np.zeros(spec.dim)
    s = spec.sparsity
    if s == 0:
        return x
    rng = CounterRng(stream_seed(spec.seed, "signal", spec.kind))
    chosen = rng.permutation(spec.dim)[:s]
    if spec.kind == "flat":
        values = rng.signs(s) if spec.random_signs else np.ones(s)
    else:
        values = rng.signs(s) * np.arange(1, s + 1) ** (-1.0 / spec.p)
    x[chosen] = values
    return x


def gen_noise(spec):
    """Gaussian vector rescaled to exactly ``target_norm``."""
    if spec.target_norm == 0:
        return np.zeros(spec.dim)
    rng = CounterRng(stream_seed(spec.seed, "noise"))
    e = rng.normal(spec.dim)
    norm = np.linalg.norm(e)
    if norm == 0:
        raise RuntimeError("degenerate zero noise draw")
    return e * (spec.target_norm / norm)


# ---------------------------------------------------------------------------
# CSV interchange

def _write_rows(path, kind, arr2d, seed):
    rows, cols = arr2d.shape
    with open(path, "w") as fh:
        fh.write(f"{kind},{rows},{cols},{seed}\n")
        for row in arr2d:
            fh.write(",".join(repr(float(v)) for v in row))
            fh.write("\n")


def save_matrix_csv(path, A, kind="matrix", seed=0):
    _write_rows(path, kind, np.asarray(A, dtype=float), seed)


def save_vector_csv(path, x, kind="signal", seed=0):
    _write_rows(path, kind, np.asarray(x, dtype=float).reshape(1, -1), seed)


def load_csv(path):
    """Load a matrix or vector CSV; returns (array, meta dict).

    Vectors (rows=1) come back 1-D.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 4:
            raise ValueError(f"malformed header in {path}")
        kind, rows, cols, seed = header[0], int(header[1]), int(header[2]), int(header[3])
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(
            f"{path}: header promises {rows}x{cols}, file holds {data.shape}"
        )
    meta = {"kind": kind, "rows": rows, "cols": cols, "seed": seed}
    if rows == 1 and kind != "matrix":
        return data[0], meta
    return data, meta
