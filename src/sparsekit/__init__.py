"""sparsekit: sparse signal recovery and analysis toolkit.

Greedy pursuits (OMP, StOMP, ROMP, CoSaMP), basis pursuit in equality and
noise-tolerant forms, iteratively reweighted l1, restricted isometry
analysis, a randomized Kaczmarz solver, and a seeded Monte-Carlo benchmark
harness with a CLI (``python -m sparsekit`` or the ``sparsekit`` script).
"""

from .convex import (
    InfeasibleError,
    RwBounds,
    RwConfig,
    SolverError,
    bp_denoise,
    bp_equality,
    reweighted_l1,
    rw_constants,
    rw_error_recursion,
)
from .ensembles import (
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
from .greedy import (
    CosampConfig,
    StompConfig,
    cosamp,
    omp,
    prune,
    regularize,
    romp,
    stomp,
)
from .kaczmarz import KaczmarzRun, rk_solve, rk_theory
from .linalg import (
    DivergenceError,
    LsConfig,
    extreme_singular_values,
    least_squares,
    pseudoinverse_apply,
    support,
    top_k,
)
from .reports import RecoveryReport
from .rip import (
    ConsequenceCheck,
    EnumerationCapError,
    RicReport,
    check_ric_consequences,
    ric_exact,
    ric_monte_carlo,
)
from .rng import CounterRng, stream_seed

__version__ = "0.1.0"
