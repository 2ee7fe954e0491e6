"""Acceptance suite: one test per release criterion.

Every numeric claim the package makes is re-checked here at its stated tolerance,
with fixed seeds for the sampling blocks and wall-clock guards where a budget
applies. Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from junction_riemann import (
    CrossingCapacity,
    DistributionMatrix,
    FluxModel,
    NodeTopology,
    RS1Solver,
    RS1x1Solver,
    RS2Solver,
    RS3Solver,
    RSE12x2Solver,
    RiemannState,
    ThetaWeights,
    check_E1,
    check_E2,
    classify_2x2,
    default_rng,
    entropy_flux,
    face_objective_equivalence,
    matrix_in_n,
    project_capped_simplex,
    random_balanced_state,
    random_state,
    restricted_entropy_g,
    rs1_solve,
    rs2_solve,
    rs3_solve,
    rs_e1_2x2_solve,
    run,
    make_grids,
    SimConfig,
    trace_in_from_flux,
    trace_out_from_flux,
)
from oracles import capped_simplex_projection_kkt, entropy_flux_grid

SQ = math.sqrt
QUAD = FluxModel.quadratic()
T11 = NodeTopology(1, 1)
T22 = NodeTopology(2, 2)
MATRIX_2X2 = DistributionMatrix.from_rows([[1 / 3, 1 / 2], [2 / 3, 1 / 2]])

RS1_DATA = RiemannState(T22, (3 / 4, 1 / 8, (8 + SQ(34)) / 16, 1 / 10))
RS2_THETA = ThetaWeights((1 / 2, 1 / 2), (5 / 12, 7 / 12))
RS2_FIXED = (1 / 4, 1 / 4, 1 / 2 - SQ(3) / (4 * SQ(2)), 1 / 2 - 1 / (4 * SQ(2)))
RS3_1_THETA = ThetaWeights((3 / 4, 1 / 4), (3 / 4, 1 / 4))
RS3_1_FIXED = (1 / 5, 1 / 2 + SQ(59 / 3) / 10, 4 / 5, 1 / 2 - SQ(59 / 3) / 10)
RS3_2_FIXED = (1 / 2 + SQ(1 / 2) / 2, 1 / 2 + SQ(1 / 3) / 2,
               1 / 2 + SQ(1 / 2) / 2, 1 / 2 - SQ(1 / 3) / 2)


def test_criterion_01_flux_maximizer_counterexample():
    start = time.perf_counter()
    solution = rs1_solve(QUAD, MATRIX_2X2, RS1_DATA)
    value = check_E2(QUAD, solution.state).value_at_sigma
    elapsed = time.perf_counter() - start
    assert solution.gamma == pytest.approx((1.0, 13 / 48, 15 / 32, 77 / 96),
                                           abs=1e-10)
    assert value == pytest.approx(-19 / 48, abs=1e-10)
    assert elapsed < 0.1


def test_criterion_02_through_flow_counterexample():
    solution = rs2_solve(QUAD, RS2_THETA, RiemannState(T22, RS2_FIXED))
    assert solution.state.rho == pytest.approx(RS2_FIXED, abs=1e-10)
    assert entropy_flux(QUAD, solution.state, 1 / 4) == pytest.approx(-1 / 4,
                                                                      abs=1e-12)


def test_criterion_03_per_line_equilibria():
    sol1 = rs3_solve(QUAD, RS3_1_THETA, CrossingCapacity(64 / 75),
                     RiemannState(T22, RS3_1_FIXED))
    assert sol1.state.rho == pytest.approx(RS3_1_FIXED, abs=1e-10)
    assert check_E2(QUAD, sol1.state).value_at_sigma == pytest.approx(-64 / 75,
                                                                      abs=1e-10)
    sol2 = rs3_solve(QUAD, ThetaWeights.uniform(T22), CrossingCapacity(7 / 6),
                     RiemannState(T22, RS3_2_FIXED))
    assert sol2.state.rho == pytest.approx(RS3_2_FIXED, abs=1e-10)
    assert check_E2(QUAD, sol2.state).value_at_sigma == pytest.approx(-2 / 3,
                                                                      abs=1e-10)


def test_criterion_04_through_flow_E2_positivity():
    start = time.perf_counter()
    rng = default_rng(404)
    for n in (1, 2, 3):
        topo = NodeTopology(n, n)
        solver = RS2Solver(QUAD, ThetaWeights.uniform(topo))
        for _ in range(10_000):
            out = solver(random_state(rng, topo))
            assert check_E2(QUAD, out.state).value_at_sigma >= -1e-10
    assert time.perf_counter() - start < 10.0


def test_criterion_05_equal_weights_satisfy_E1():
    rng = default_rng(505)
    solver = RS2Solver(QUAD, ThetaWeights((1 / 2, 1 / 2), (1 / 2, 1 / 2)))
    for _ in range(10_000):
        out = solver(random_state(rng, T22))
        assert check_E1(QUAD, out.state).satisfied_E1


def test_criterion_06_unequal_arc_counts_never_satisfy_E1():
    rng = default_rng(606)
    merge = RS2Solver(QUAD, ThetaWeights((1 / 2, 1 / 2), (1.0,)))
    for _ in range(1_000):
        rho = (float(rng.uniform(1e-3, 1.0)), float(rng.uniform(1e-3, 1.0)),
               float(rng.uniform(0.0, 1.0)))
        out = merge(RiemannState(NodeTopology(2, 1), rho))
        assert not check_E1(QUAD, out.state).satisfied_E1
    split = RS2Solver(QUAD, ThetaWeights((1.0,), (1 / 2, 1 / 2)))
    for _ in range(1_000):
        rho = (float(rng.uniform(0.0, 1.0)),
               float(rng.uniform(0.0, 1.0 - 1e-3)),
               float(rng.uniform(0.0, 1.0 - 1e-3)))
        out = split(RiemannState(NodeTopology(1, 2), rho))
        assert not check_E1(QUAD, out.state).satisfied_E1


def test_criterion_07_classification_agrees_with_both_oracles():
    rng = default_rng(20260815)
    states = [random_balanced_state(rng, QUAD, T22) for _ in range(10_000)]
    grid_mins, _ = entropy_flux_grid(QUAD, 2, np.array([s.rho for s in states]),
                                     k_points=100_001)
    for state, grid_min in zip(states, grid_mins):
        report = check_E1(QUAD, state)
        verdict = classify_2x2(QUAD, state)
        assert verdict.admissible == report.satisfied_E1
        assert report.satisfied_E1 == (grid_min >= -1e-8)
        # the finite candidate set attains the dense-grid minimum
        assert abs(grid_min - report.min_value) <= 1e-8
        assert grid_min >= report.min_value - 1e-12


def test_criterion_08_constructed_solver_properties():
    got_a = rs_e1_2x2_solve(QUAD, RiemannState(T22, (1 / 4, 3 / 4, 1 / 4, 1 / 4)))
    assert got_a.state.rho == (0.25, 0.5, 0.25, 0.5)
    got_b = rs_e1_2x2_solve(QUAD, RiemannState(T22, (3 / 4, 1 / 4, 1 / 4, 1 / 4)))
    assert got_b.state.rho == (0.5, 0.25, 0.5, 0.25)

    rng = default_rng(808)
    for _ in range(10_000):
        data = random_state(rng, T22)
        out = rs_e1_2x2_solve(QUAD, data)
        assert out.balanced and out.admissible
        assert check_E1(QUAD, out.state).satisfied_E1
        for l, g in enumerate(out.gamma):
            cap = QUAD.demand(data.rho[l]).sup if l < 2 \
                else QUAD.supply(data.rho[l]).sup
            assert -1e-12 <= g <= cap + 1e-12
        again = rs_e1_2x2_solve(QUAD, out.state)
        assert out.state.rho == pytest.approx(again.state.rho, abs=1e-10)


def test_criterion_09_all_solvers_idempotent():
    assert matrix_in_n(MATRIX_2X2, T22)
    cases = [
        (RS1Solver(QUAD, MATRIX_2X2), T22),
        (RS2Solver(QUAD, ThetaWeights.uniform(NodeTopology(2, 3))),
         NodeTopology(2, 3)),
        (RS3Solver(QUAD, ThetaWeights.uniform(T22), CrossingCapacity(0.9)), T22),
        (RS1x1Solver(QUAD), T11),
        (RSE12x2Solver(QUAD), T22),
    ]
    rng = default_rng(909)
    for solver, topo in cases:
        for _ in range(1_000):
            out = solver(random_state(rng, topo))
            again = solver(out.state)
            assert out.state.rho == pytest.approx(again.state.rho, abs=1e-10), \
                type(solver).__name__


def test_criterion_10_projection_matches_qp_oracle():
    rng = default_rng(1010)
    for _ in range(1_000):
        n = int(rng.integers(1, 6))
        caps = rng.uniform(0.0, 1.0, n)
        target = rng.uniform(-0.5, 1.5, n)
        total = float(rng.uniform(0.0, caps.sum()))
        got = np.asarray(project_capped_simplex(tuple(target), tuple(caps), total))
        want = capped_simplex_projection_kkt(target, caps, total)
        assert got == pytest.approx(want, abs=1e-9)


def test_criterion_11_face_machinery():
    checked = 0
    for H in (frozenset(), frozenset({0}), frozenset({1}), frozenset({2})):
        report = face_objective_equivalence(QUAD, RS1_DATA, MATRIX_2X2, H,
                                            samples=250,
                                            rng=default_rng(1100 + len(H)))
        assert report.face_nonempty
        assert report.constant and report.spread <= 1e-9
        for gamma in report.gammas:
            rho = [trace_in_from_flux(QUAD, RS1_DATA.rho[l], float(g)) if l < 2
                   else trace_out_from_flux(QUAD, RS1_DATA.rho[l], float(g))
                   for l, g in enumerate(gamma)]
            traces = RiemannState(T22, tuple(rho))
            value = restricted_entropy_g(QUAD, RS1_DATA, traces, H)
            assert abs(value.closed_form - value.direct) <= 1e-10
            assert value.direct == pytest.approx(
                entropy_flux(QUAD, traces, QUAD.sigma), abs=1e-12)
            checked += 1
    assert checked == 1_000


def test_criterion_12_simulation_round_trip():
    start = time.perf_counter()

    equilibria = [
        (RS1Solver(QUAD, MATRIX_2X2), rs1_solve(QUAD, MATRIX_2X2, RS1_DATA).state.rho),
        (RS2Solver(QUAD, RS2_THETA), RS2_FIXED),
        (RS3Solver(QUAD, RS3_1_THETA, CrossingCapacity(64 / 75)), RS3_1_FIXED),
        (RS3Solver(QUAD, ThetaWeights.uniform(T22), CrossingCapacity(7 / 6)),
         RS3_2_FIXED),
    ]
    for solver, state in equilibria:
        config = SimConfig(QUAD, solver, cfl=0.5)
        result = run(config, make_grids(T22, list(state), cells=50), steps=100)
        assert result.boundary_state().rho == pytest.approx(state, abs=1e-8), \
            type(solver).__name__

    config = SimConfig(QUAD, RS1Solver(QUAD, MATRIX_2X2), cfl=0.5)
    grids = make_grids(T22, [0.3, 0.8, 0.6, 0.1], cells=100)
    long_run = run(config, grids, steps=1_000)
    assert long_run.mass_drift() <= 1e-7

    config = SimConfig(QUAD, RS1x1Solver(QUAD), cfl=0.5, t_end=1.5)
    result = run(config, make_grids(T11, [0.75, 0.25], cells=200))
    exact = RS1x1Solver(QUAD)(RiemannState(T11, (0.75, 0.25))).state.rho
    assert exact == (0.5, 0.5)
    got = result.boundary_state().rho
    assert max(abs(g - e) for g, e in zip(got, exact)) <= 1e-3

    assert time.perf_counter() - start < 30.0
