"""Randomized block-coordinate primal-dual solver for composite convex
problems whose linear coupling constraints may be inconsistent, plus a
distribution-grid pricing application built on it."""

__version__ = "0.1.0"

from .blocks import (
    BlockStructure,
    ProblemSpec,
    ProxBlock,
    SmoothBlock,
    eval_psi,
    kkt_residual,
    make_consensus,
    make_model_fitting,
    make_random_inconsistent_ls,
)
from .oracles import Reference, least_squares_reference, quadratic_reference
from .proxops import (
    dykstra_project,
    project_energy_budget,
    project_energy_budgets,
)
from .sampling import (
    Sampling,
    draw,
    full,
    make_rng,
    nice,
    paired_dso,
    prob_matrix,
    single_coordinate,
    weight_matrix_p,
    xi_matrix,
)
from .solver import (
    PdaEngine,
    RbcdEngine,
    RunResult,
    Trace,
    TraceRecord,
    run,
)
from .stepsize import (
    AcceleratedPolicy,
    ConvexPolicy,
    accel_params,
    convex_default_policy,
    make_accelerated_policy,
    tau_next,
)

__all__ = [name for name in dir() if not name.startswith("_")]
