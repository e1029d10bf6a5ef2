"""Result records shared by the recovery algorithms."""

from dataclasses import dataclass, field

import numpy as np

HALT_RESIDUAL_ZERO = "residual_zero"
HALT_SUPPORT_FULL = "support_full"
HALT_MAX_ITERATIONS = "max_iterations"
HALT_SAMPLE_NORM = "sample_norm_criterion"
HALT_PROXY_INFNORM = "proxy_infnorm_criterion"


@dataclass
class RecoveryReport:
    """Outcome of one recovery run.

    ``residual_history`` holds the residual 2-norm after each completed
    iteration.  ``selection_history`` (ROMP) and ``estimate_history``
    (CoSaMP, reweighted l1) hold one entry per iteration for the solvers
    that fill them and are None otherwise.
    """

    estimate: np.ndarray
    support: np.ndarray
    iterations: int
    residual_history: list = field(default_factory=list)
    halt_reason: str = HALT_MAX_ITERATIONS
    selection_history: list | None = None
    estimate_history: list | None = None
