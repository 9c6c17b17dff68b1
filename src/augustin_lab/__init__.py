"""Fixed-point computation of weighted divergence minimizers and applications.

Core pieces: a linearly convergent fixed-point sweep for the minimizer of a
weighted sum of order-alpha divergences over density matrices (with its
commuting vector specialization), an entropic mirror-descent outer loop that
turns it into a capacity solver, and an asynchronous multiplicative price
dynamic for CES Fisher markets with the same contraction structure.
"""

from .augustin import (
    apply_T_F,
    contraction_factor,
    emd_polyak_run,
    emd_polyak_step,
    initial_state,
    petz_augustin_step,
    solve_petz_augustin,
    IterateState,
    SolveReport,
)
from .capacity import (
    CapacityProblem,
    CapacityState,
    approx_oracle,
    mirror_update,
    solve_capacity,
)
from .divergences import (
    AugustinProblem,
    ClassicalAugustinProblem,
    objective_F,
    objective_f,
    petz_renyi_divergence,
)
from .fisher import (
    FisherMarket,
    PriceState,
    UpdateSchedule,
    buyer_demand,
    epoch_boundaries,
    equilibrium_prices,
    potential,
    run_schedule,
    tatonnement_step,
    total_demand,
)
from .linalg import (
    hermitian_eig,
    hermitize,
    matrix_power,
    random_density_ensemble,
    thompson_metric_psd,
    thompson_metric_vec,
)

__version__ = "0.1.0"
