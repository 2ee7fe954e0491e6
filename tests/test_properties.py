"""The abstract's (E2) claim as seeded properties on square nodes, for every flux kind.

The paper's abstract calls the through-flow solver rs2 "the only one always
satisfying (E2)", the single-constant entropy condition F(rho, sigma) >= 0. On every
square node from 1x1 to 5x5 rs2 is checked to satisfy it, with random priority weights
on both sides and boundary-biased data; the flux-maximization solver rs1 and the
per-line solver rs3 each get one pinned violating datum (a witness) per square node
from 2x2 to 5x5. F(rho, sigma) is also evaluated in numpy from the flux's parameters
(``oracles.entropy_flux_numpy``), so a fault of ``FluxModel`` cannot hide on both
sides. rs1 is also checked to be idempotent, through one handle whose matrix holds
its optimal bases, on nodes from 3x3 to 5x5. Every stream of data is seeded, so the
witnesses are found again on each run.
"""

from __future__ import annotations

import numpy as np
import pytest

from junction_riemann import (
    CrossingCapacity,
    DistributionMatrix,
    NodeTopology,
    RiemannState,
    RS1Solver,
    RS2Solver,
    RS3Solver,
    ThetaWeights,
    check_E2,
    default_rng,
    matrix_in_n,
)
from junction_riemann.tolerances import ENTROPY_TOL
from oracles import entropy_flux_numpy

#: square node sizes of the rs1 and rs3 witnesses
WITNESS_SIZES = [2, 3, 4, 5]
KINDS = ("quadratic", "triangular", "tabulated")


def _data(rng, model, topo) -> RiemannState:
    """Each density is 0, 1, sigma or sigma -+ 1e-13 with probability 0.4, and
    uniform on [0, 1] otherwise."""
    s = model.sigma
    special = np.array([0.0, 1.0, s, s - 1e-13, s + 1e-13])
    rho = np.where(rng.random(topo.total) < 0.4,
                   special[rng.integers(5, size=topo.total)],
                   rng.uniform(0.0, 1.0, topo.total))
    return RiemannState(topo, tuple(rho.tolist()))


def _theta(rng, n: int) -> ThetaWeights:
    incoming, outgoing = rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, n)
    return ThetaWeights(incoming / incoming.sum(), outgoing / outgoing.sum())


def _value_at_sigma(model, out) -> float:
    """F(traces, sigma) by ``check_E2``, after checking it against numpy."""
    value = check_E2(model, out.state).value_at_sigma
    rho, n = out.state.rho, out.state.topology.n
    assert entropy_flux_numpy(model, rho, n, model.sigma) == pytest.approx(value,
                                                                           abs=1e-12)
    return value


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rs2_satisfies_E2_on_square_nodes(any_model, n):
    rng = default_rng(6100 + 10 * n + KINDS.index(any_model.kind))
    topo = NodeTopology(n, n)
    for _ in range(300):
        solver = RS2Solver(any_model, _theta(rng, n))
        out = solver(_data(rng, any_model, topo))
        assert out.balanced and out.admissible
        assert solver(out.state).state.rho == pytest.approx(out.state.rho, abs=1e-10)
        assert _value_at_sigma(any_model, out) >= -ENTROPY_TOL


def _certified_matrix(rng, topo) -> DistributionMatrix:
    """The first seeded m x n matrix, columns uniform on [0.1, 1] then normalized,
    that is in the uniqueness class."""
    while True:
        columns = rng.uniform(0.1, 1.0, (topo.m, topo.n))
        matrix = DistributionMatrix(columns / columns.sum(axis=0))
        if matrix_in_n(matrix, topo):
            return matrix


@pytest.mark.parametrize("n,m", [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5)])
def test_rs1_is_idempotent_with_a_warm_handle(any_model, n, m):
    # test_criterion_09 covers rs1 on the 2x2 node only
    rng = default_rng(6300 + 10 * n + m + 100 * KINDS.index(any_model.kind))
    topo = NodeTopology(n, m)
    solver = RS1Solver(any_model, _certified_matrix(rng, topo))
    for _ in range(200):
        out = solver(_data(rng, any_model, topo))
        assert out.balanced and out.admissible
        assert solver(out.state).state.rho == pytest.approx(out.state.rho, abs=1e-10)
    assert solver.matrix._basis[0]


def _witness_stream(model, n: int):
    """rs1 on a certified matrix and rs3 with one theta and crossing capacity, both
    seeded by the node size and the flux kind, then their seeded data."""
    rng = default_rng(6200 + 10 * n + KINDS.index(model.kind))
    topo = NodeTopology(n, n)
    matrix = _certified_matrix(rng, topo)
    gamma_j = float(rng.uniform(0.3, 1.0)) * n * model.f_max
    solvers = {"rs1": RS1Solver(model, matrix),
               "rs3": RS3Solver(model, _theta(rng, n), CrossingCapacity(gamma_j))}
    return solvers, [_data(rng, model, topo) for _ in range(10)]


#: (solver, flux kind, n) -> the index of the first datum of the seeded stream whose
#: output violates (E2), found by searching the stream, with F(traces, sigma) there
WITNESSES = {
    ("rs1", "quadratic", 2): 0,  # -1.59
    ("rs1", "quadratic", 3): 0,  # -0.108
    ("rs1", "quadratic", 4): 0,  # -6
    ("rs1", "quadratic", 5): 1,  # -3.61
    ("rs1", "triangular", 2): 0,  # -0.747
    ("rs1", "triangular", 3): 1,  # -2.66
    ("rs1", "triangular", 4): 0,  # -1.85
    ("rs1", "triangular", 5): 0,  # -5.4
    ("rs1", "tabulated", 2): 0,  # -1.15
    ("rs1", "tabulated", 3): 0,  # -1.03
    ("rs1", "tabulated", 4): 2,  # -2.03
    ("rs1", "tabulated", 5): 0,  # -1.62
    ("rs3", "quadratic", 2): 1,  # -0.618
    ("rs3", "quadratic", 3): 0,  # -2.62
    ("rs3", "quadratic", 4): 0,  # -0.681
    ("rs3", "quadratic", 5): 0,  # -2.72
    ("rs3", "triangular", 2): 0,  # -2.39
    ("rs3", "triangular", 3): 0,  # -0.685
    ("rs3", "triangular", 4): 0,  # -1.45
    ("rs3", "triangular", 5): 1,  # -0.284
    ("rs3", "tabulated", 2): 0,  # -0.78
    ("rs3", "tabulated", 3): 0,  # -1.77
    ("rs3", "tabulated", 4): 0,  # -0.885
    ("rs3", "tabulated", 5): 0,  # -3.91
}


@pytest.mark.parametrize("solver", ["rs1", "rs3"])
@pytest.mark.parametrize("n", WITNESS_SIZES)
def test_E2_witnesses_for_rs1_and_rs3(any_model, n, solver):
    solvers, data = _witness_stream(any_model, n)
    values = []
    for datum in data:
        out = solvers[solver](datum)
        assert out.balanced and out.admissible
        values.append(_value_at_sigma(any_model, out))
    first = next(k for k, v in enumerate(values) if v < -ENTROPY_TOL)
    assert first == WITNESSES[solver, any_model.kind, n]
    assert values[first] < -1e-3
