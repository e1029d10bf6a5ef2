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

Signals are flat (unit entries, optionally random signs) or compressible
(the i-th selected entry gets magnitude i**(-1/p) with a random sign).
All generators are pure functions of their spec, including the seed.

CSV interchange layout (for cross-implementation comparison): a header row
``kind,rows,cols,seed`` followed by ``rows`` lines of ``cols`` comma-
separated values printed with full round-trip precision.  Vectors are
stored as a single row with ``rows=1``.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .rng import CounterRng, stream_seed

FAMILIES = ("gaussian", "bernoulli", "partial_dct")
SIGNAL_KINDS = ("flat", "compressible")
# largest full DCT kept between calls (d <= 1024), the same 8 MB that
# rip.DRAW_KEYS allows a batch of draws: one cached matrix stays a small
# share of a run's memory, and a larger d builds only its drawn rows
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
        if self.rows < 1 or self.cols < 1:
            raise ValueError("rows and cols must be >= 1")
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
        if not 0 <= self.sparsity <= self.dim:
            raise ValueError("sparsity must lie in [0, dim]")
        if self.kind == "compressible" and not 0.0 < self.p < 1.0:
            raise ValueError("compressible decay exponent p must be in (0, 1)")


@dataclass(frozen=True)
class NoiseSpec:
    dim: int
    target_norm: float
    seed: int = 0

    def __post_init__(self):
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
    is what caches.
    """
    if rows is None:
        k = np.arange(d)[:, None]
    else:
        k = np.asarray(rows, dtype=np.intp)[:, None]
        if k.size and (k.min() < 0 or k.max() >= d):
            raise IndexError(f"row index out of range for {d} rows")
    j = np.arange(d)[None, :]
    C = np.pi * (2 * j + 1) * k
    C /= 2 * d
    np.cos(C, out=C)
    np.multiply(np.sqrt(2.0 / d), C, out=C)
    C[k[:, 0] == 0, :] /= np.sqrt(2.0)
    return C


@functools.lru_cache(maxsize=1)
def _full_dct(d, build):
    """The read-only d x d DCT-II matrix ``build(d)``, kept until another
    (d, build) asks for one.

    Callers pass ``dct_matrix`` as looked up at call time, so a wrapper
    bound over ``ensembles.dct_matrix`` (as the perfbench tracer does)
    misses the cache once and sees the build it causes.
    """
    C = build(d)
    C.flags.writeable = False
    return C


def gen_matrix(spec):
    """Draw a measurement matrix for the given ensemble spec.

    Partial-DCT rows are gathered from the cached full matrix while d x d
    doubles fit ``DCT_CACHE_BYTES``; the gather copies them, so the result
    is the caller's to write.  A larger d builds only the m drawn rows.
    Both routes give the same bytes.
    """
    m, d = spec.rows, spec.cols
    rng = CounterRng(stream_seed(spec.seed, "matrix", spec.family))
    if spec.family == "gaussian":
        A = rng.normal(m * d).reshape(m, d)
        if spec.normalize:
            A /= np.sqrt(m)
    elif spec.family == "bernoulli":
        A = rng.signs(m * d).reshape(m, d)
        if spec.normalize:
            A /= np.sqrt(m)
    else:
        rows = np.sort(rng.permutation(d)[:m])
        if d * d * 8 <= DCT_CACHE_BYTES:
            A = _full_dct(d, dct_matrix)[rows]
        else:
            A = dct_matrix(d, rows)
        if spec.normalize:
            A *= np.sqrt(d / m)
    return A


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

def _write_rows(fh, kind, arr2d, seed):
    rows, cols = arr2d.shape
    fh.write(f"{kind},{rows},{cols},{seed}\n")
    for row in arr2d:
        fh.write(",".join(repr(float(v)) for v in row))
        fh.write("\n")


def save_matrix_csv(path, A, kind="matrix", seed=0):
    A = np.asarray(A, dtype=float)
    with open(path, "w") as fh:
        _write_rows(fh, kind, A, seed)


def save_vector_csv(path, x, kind="signal", seed=0):
    x = np.asarray(x, dtype=float).reshape(1, -1)
    with open(path, "w") as fh:
        _write_rows(fh, kind, x, seed)


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
