"""Riemann solvers and entropy admissibility at a single road-network junction.

The package models a node with ``n`` incoming and ``m`` outgoing arcs carrying a
scalar conservation law with a strictly concave flux. It provides several Riemann
solvers at the node, entropy-condition checks, a complete classification of balanced
2x2 trace vectors, the restricted entropy functional on faces of the feasible flux
polytope, and a Godunov scheme that couples the arcs through a solver.
"""

from __future__ import annotations

import types

from .errors import (
    DegeneracyError,
    DomainError,
    FaceMismatchError,
    InadmissibleFluxError,
    InfeasibleFluxError,
    InputError,
    InvalidMatrixError,
    JunctionError,
    PreconditionError,
    StepSizeError,
    TopologyError,
    UnbalancedStateError,
)
from .flux import (
    BOUNDARY_EPS,
    DECREASING,
    INCREASING,
    QUADRATIC,
    RHO_MAX,
    FluxInterval,
    FluxModel,
)
from .junction import (
    BALANCE_TOL,
    KEEP_TOL,
    NodeTopology,
    RiemannState,
    TraceSolution,
    check_consistency,
    check_flux_balance,
    flux_imbalance,
    is_equilibrium,
    trace_in_from_flux,
    trace_out_from_flux,
)
from .sampling import default_rng, random_balanced_state, random_state
from .entropy import (
    EntropyReport,
    EquilibriumClassification,
    FaceSampleReport,
    RestrictedEntropy,
    check_E1,
    check_E2,
    classify_2x2,
    entropy_candidates,
    entropy_flux,
    face_active_set,
    face_entropy_closed_form,
    face_objective_equivalence,
    restricted_entropy_g,
)
from .solvers import (
    SOLVER_NAMES,
    CrossingCapacity,
    DistributionMatrix,
    RS1Solver,
    RS1x1Solver,
    RS2Solver,
    RS3Solver,
    RSE12x2Solver,
    ThetaWeights,
    lp_maximize_box_polytope,
    matrix_in_n,
    project_capped_simplex,
    rs1_solve,
    rs2_solve,
    rs3_solve,
    rs_1x1_solve,
    rs_e1_2x2_solve,
    solver_from_config,
)
from .netsim import (
    ArcGrid,
    SimConfig,
    SimResult,
    StepResult,
    godunov_interface_flux,
    make_grids,
    max_stable_dt,
    run,
    step,
    summary_json,
    topology_of,
    total_mass,
    write_mass_csv,
    write_snapshots_csv,
)

__version__ = "0.1.0"

#: every public name imported above (no module, no ``annotations`` feature), then
#: ``__version__``
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and name != "annotations"
           and not isinstance(value, types.ModuleType)] + ["__version__"]
