"""The five Riemann solvers and their supporting optimization routines."""

from __future__ import annotations

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from junction_riemann import (
    CrossingCapacity,
    DegeneracyError,
    DistributionMatrix,
    InadmissibleFluxError,
    InputError,
    InvalidMatrixError,
    NodeTopology,
    RS1Solver,
    RS1x1Solver,
    RS2Solver,
    RS3Solver,
    RSE12x2Solver,
    PreconditionError,
    RiemannState,
    ThetaWeights,
    TopologyError,
    TraceSolution,
    check_E1,
    check_E2,
    classify_2x2,
    default_rng,
    lp_maximize_box_polytope,
    matrix_in_n,
    project_capped_simplex,
    random_state,
    rs1_solve,
    rs2_solve,
    rs3_solve,
    rs_1x1_solve,
    rs_e1_2x2_solve,
    solver_from_config,
)
from junction_riemann import solvers as solvers_module
from junction_riemann.solvers import _caps
from junction_riemann.tolerances import FLUX_SLACK, KEEP_TOL, LP_MATCH_TOL
from oracles import (
    bits,
    capped_simplex_projection_kkt,
    lp_best_grid_value,
    lp_linprog_value,
    lp_vertex_reference,
    ones_in_span,
    solution_reference,
)

SQ = math.sqrt
T11 = NodeTopology(1, 1)
T22 = NodeTopology(2, 2)
MATRIX_2X2 = DistributionMatrix.from_rows([[1 / 3, 1 / 2], [2 / 3, 1 / 2]])
A_DOUBLED = DistributionMatrix.from_rows([[1 / 2, 1 / 2], [1 / 2, 1 / 2]])


# -- parameter validation ---------------------------------------------------------------


def test_distribution_matrix_validation():
    with pytest.raises(InvalidMatrixError):
        DistributionMatrix.from_rows([[1.0, 0.5], [0.0, 0.5]])
    with pytest.raises(InvalidMatrixError):
        DistributionMatrix.from_rows([[0.4, 0.5], [0.4, 0.5]])
    with pytest.raises(InvalidMatrixError):
        DistributionMatrix.from_rows([[0.4, 0.5], [0.6]])
    with pytest.raises(InvalidMatrixError):
        DistributionMatrix.from_rows([])
    with pytest.raises(InputError):
        DistributionMatrix.from_rows([["a", "b"]])


def test_theta_validation():
    with pytest.raises(InputError):
        ThetaWeights((0.5, 0.5), (0.0, 1.0))
    with pytest.raises(InputError):
        ThetaWeights((0.7, 0.7), (0.5, 0.5))
    uniform = ThetaWeights.uniform(NodeTopology(2, 3))
    assert uniform.incoming == (0.5, 0.5)
    assert uniform.outgoing == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_list_built_parameters_equal_tuple_built_ones(any_model):
    listed = DistributionMatrix([[1 / 3, 1 / 2], [2 / 3, 1 / 2]])
    assert listed.rows == MATRIX_2X2.rows and hash(listed) == hash(MATRIX_2X2)
    rng = default_rng(5500)
    for _ in range(40):
        state = random_state(rng, T22)
        assert bits(rs1_solve(any_model, listed, state)) == \
            bits(rs1_solve(any_model, _cold(MATRIX_2X2), state))
    theta = ThetaWeights([0.5, 0.5], np.array([0.25, 0.75]))
    assert (theta.incoming, theta.outgoing) == ((0.5, 0.5), (0.25, 0.75))
    handle = RS2Solver(any_model, ThetaWeights((0.5, 0.5), (0.25, 0.75)))
    assert RS2Solver(any_model, theta) == handle
    assert hash(RS2Solver(any_model, theta)) == hash(handle)


def test_crossing_capacity_validation():
    assert CrossingCapacity(7 / 6).gamma_j == 7 / 6
    assert CrossingCapacity(math.inf).gamma_j == math.inf
    with pytest.raises(InputError):
        CrossingCapacity(0.0)
    with pytest.raises(InputError):
        CrossingCapacity(-1.0)


def test_matrix_membership_examples():
    assert matrix_in_n(MATRIX_2X2, T22)
    assert not matrix_in_n(A_DOUBLED, T22)
    wide = DistributionMatrix.from_rows([[0.4, 0.3, 0.45], [0.6, 0.7, 0.55]])
    assert not matrix_in_n(wide, NodeTopology(3, 2))
    with pytest.raises(InvalidMatrixError):
        matrix_in_n(MATRIX_2X2, NodeTopology(2, 3))


def _in_n_by_enumeration(matrix: DistributionMatrix) -> bool:
    """The uniqueness-class definition, subset by subset, through the span oracle."""
    n, m = matrix.n, matrix.m
    if n > m:
        return False
    vectors = [tuple(float(k == i) for k in range(n)) for i in range(n)]
    vectors += list(matrix.rows)
    return not any(ones_in_span([vectors[i] for i in combo])
                   for size in range(1, n)
                   for combo in itertools.combinations(range(n + m), size))


def test_matrix_in_n_matches_span_oracle():
    rng = default_rng(404)
    wide_doubled = [[0.1, 0.1, 0.2, 0.3], [0.2, 0.2, 0.3, 0.1], [0.3, 0.3, 0.1, 0.2],
                    [0.4, 0.4, 0.4, 0.4]]
    matrices = [MATRIX_2X2, A_DOUBLED,
                DistributionMatrix.from_rows([[0.4, 0.3, 0.45], [0.6, 0.7, 0.55]]),
                DistributionMatrix.from_rows(wide_doubled)]
    for n, m in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6)):
        for k in range(8):
            a = rng.uniform(0.1, 1.0, (m, n))
            if k % 4 == 0:
                a[:, 1] = a[:, 0]  # equal columns: outside the class
            if k % 4 == 1:
                a[1] = a[0] * rng.uniform(0.5, 2.0)  # parallel rows
            matrices.append(DistributionMatrix.from_rows(a / a.sum(axis=0)))
    verdicts = [matrix_in_n(mat) for mat in matrices]
    assert verdicts == [_in_n_by_enumeration(mat) for mat in matrices]
    assert any(verdicts) and not all(verdicts)


def test_rs1_certifies_its_matrix_once(quad, monkeypatch):
    calls = []
    in_n = solvers_module.matrix_in_n
    monkeypatch.setattr(solvers_module, "matrix_in_n",
                        lambda matrix: calls.append(matrix) or in_n(matrix))
    matrix = DistributionMatrix.from_rows([[0.3, 0.45], [0.7, 0.55]])
    handle = RS1Solver(quad, matrix)
    state = RiemannState(T22, (0.3, 0.8, 0.6, 0.1))
    for _ in range(5):
        assert bits(handle(state)) == bits(rs1_solve(quad, matrix, state))
    assert len(calls) == 1
    # the shape is still checked on every call, and a failing verdict raises on
    # every call, not only on the one that computed it
    wide = RiemannState(NodeTopology(2, 3), (0.3, 0.8, 0.6, 0.1, 0.2))
    doubled = DistributionMatrix(A_DOUBLED.rows)
    for _ in range(3):
        with pytest.raises(InvalidMatrixError, match="node is 2x3"):
            rs1_solve(quad, matrix, wide)
        with pytest.raises(InvalidMatrixError, match="uniqueness class"):
            rs1_solve(quad, doubled, state)
    assert len(calls) == 2


# -- the LP engine ----------------------------------------------------------------------


def test_lp_pinned_maximizer():
    got = lp_maximize_box_polytope((1.0, 7 / 16), (15 / 32, 1.0), MATRIX_2X2)
    assert got == pytest.approx((1.0, 13 / 48), abs=1e-12)


def test_lp_zero_caps():
    assert lp_maximize_box_polytope((0.0, 0.0), (1.0, 1.0), MATRIX_2X2) == (0.0, 0.0)


def test_lp_matches_grid_oracle():
    rng = default_rng(13)
    for _ in range(25):
        caps_in = tuple(rng.uniform(0.05, 1.0, 2))
        caps_out = tuple(rng.uniform(0.05, 1.0, 2))
        got = lp_maximize_box_polytope(caps_in, caps_out, MATRIX_2X2)
        best = lp_best_grid_value(caps_in, caps_out, MATRIX_2X2.rows, points=1000)
        # the grid value is a certified lower bound within one cell diagonal
        assert best <= sum(got) + 1e-9
        assert sum(got) - best <= 3e-3
        gout = MATRIX_2X2.as_array() @ np.asarray(got)
        assert all(g <= c + 1e-9 for g, c in zip(got, caps_in))
        assert all(g <= c + 1e-9 for g, c in zip(gout, caps_out))


def test_lp_degenerate_matrix_detected():
    with pytest.raises(DegeneracyError):
        lp_maximize_box_polytope((0.5, 0.5), (0.45, 1.0), A_DOUBLED)


def test_lp_large_n_uses_simplex():
    # 4 incoming arcs; loose caps make the box corner caps_in optimal
    rows = [[0.2, 0.25, 0.3, 0.21], [0.35, 0.3, 0.29, 0.33], [0.45, 0.45, 0.41, 0.46]]
    matrix = DistributionMatrix.from_rows(rows)
    caps_in = (0.3, 0.4, 0.2, 0.5)
    caps_out = (1.0, 1.0, 1.0)
    got = lp_maximize_box_polytope(caps_in, caps_out, matrix)
    assert got == pytest.approx(caps_in, abs=1e-9)


def _certified_matrix(rng, n: int, m: int) -> DistributionMatrix:
    while True:
        a = rng.uniform(0.1, 1.0, (m, n))
        matrix = DistributionMatrix.from_rows(a / a.sum(axis=0))
        if matrix_in_n(matrix, NodeTopology(n, m)):
            return matrix


@pytest.mark.parametrize("n,m", [(4, 4), (4, 5), (5, 6), (6, 6)])
def test_lp_and_rs1_match_linprog_beyond_three_arcs(any_model, n, m):
    # certified matrices have a unique maximizer, so no DegeneracyError may escape
    rng = default_rng(17 * n + m)
    topo = NodeTopology(n, m)
    for _ in range(2):
        matrix = _certified_matrix(rng, n, m)
        A = matrix.as_array()
        for _ in range(8):
            data = random_state(rng, topo)
            caps_in = [any_model.demand(r).sup for r in data.incoming]
            caps_out = [any_model.supply(r).sup for r in data.outgoing]
            best = lp_linprog_value(caps_in, caps_out, A)
            got = np.asarray(lp_maximize_box_polytope(caps_in, caps_out, matrix))
            assert got.sum() == pytest.approx(best, abs=1e-8)
            assert np.all(got >= -1e-9) and np.all(got <= np.asarray(caps_in) + 1e-9)
            assert np.all(A @ got <= np.asarray(caps_out) + 1e-9)
            solution = rs1_solve(any_model, matrix, data)
            assert solution.balanced and solution.admissible
            assert sum(solution.gamma[:n]) == pytest.approx(best, abs=1e-8)


def test_lp_wide_degenerate_matrix_detected():
    # equal first two columns: the split between arcs 0 and 1 on the optimal face is free
    rows = [[0.1, 0.1, 0.2, 0.3], [0.2, 0.2, 0.3, 0.1], [0.3, 0.3, 0.1, 0.2],
            [0.4, 0.4, 0.4, 0.4]]
    matrix = DistributionMatrix.from_rows(rows)
    assert not matrix_in_n(matrix, NodeTopology(4, 4))
    with pytest.raises(DegeneracyError):
        lp_maximize_box_polytope((0.5,) * 4, (1.0, 1.0, 1.0, 0.3), matrix)


def _agrees_with_reference(got, want) -> bool:
    """Coordinate-wise agreement within LP_MATCH_TOL, and no -0.0 (or negative)
    output, whatever the sign of a zero cap."""
    return (len(got) == len(want)
            and all(abs(g - w) <= LP_MATCH_TOL for g, w in zip(got, want))
            and not np.signbit(got).any())


def test_lp_equals_vertex_reference(quad, tri, tab):
    # seeded caps from each flux kind's demand and supply, with zero, -0.0 and
    # slightly negative caps mixed in; a certified matrix per size plus the paper's
    rng = default_rng(29)
    matrices = [MATRIX_2X2] + [_certified_matrix(rng, n, m)
                               for n, m in ((2, 3), (3, 3), (4, 5))]
    calls = 0
    for matrix in matrices:
        topo = NodeTopology(matrix.n, matrix.m)
        for model in (quad, tri, tab):
            for k in range(40):
                data = random_state(rng, topo)
                caps_in = [model.demand(r).sup for r in data.incoming]
                caps_out = [model.supply(r).sup for r in data.outgoing]
                special = (0.0, -0.0, -1e-13)[k % 3]
                if k % 4 == 1:
                    caps_in[k % matrix.n] = special
                if k % 4 == 2:
                    caps_out[k % matrix.m] = special
                want = lp_vertex_reference(caps_in, caps_out, matrix.rows)
                got = lp_maximize_box_polytope(caps_in, caps_out, matrix)
                assert _agrees_with_reference(got, want), (caps_in, caps_out, matrix.rows)
                calls += 1
    assert calls == 4 * 3 * 40


def test_lp_degenerate_vertex_returns_the_point():
    # caps_out = A caps_in: four constraints meet at the optimum caps_in, so several
    # 2-subsets give the same vertex; it is unique, not a tie between optima
    caps_in = (0.5, 0.25)
    caps_out = tuple((MATRIX_2X2.as_array() @ np.array(caps_in)).tolist())
    reference = lp_vertex_reference(caps_in, caps_out, MATRIX_2X2.rows)
    got = lp_maximize_box_polytope(caps_in, caps_out, MATRIX_2X2)
    assert _agrees_with_reference(got, reference)
    assert got == pytest.approx(caps_in, abs=1e-12)
    normals = np.vstack([-np.eye(2), np.eye(2), MATRIX_2X2.as_array()])
    rhs = np.concatenate([np.zeros(2), caps_in, caps_out])
    assert np.sum(np.abs(normals @ np.array(got) - rhs) <= 1e-12) == 4


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lp_degenerate_vertex_panel_returns_the_point(n):
    # caps_out = A caps_in puts up to 2n active constraints at the optimum caps_in,
    # some caps zero; the pivoting must terminate there and prove it unique
    rng = default_rng(3100 + n)
    for m in (n, n + 1):
        matrix = _certified_matrix(rng, n, m)
        A = matrix.as_array()
        for k in range(12):
            caps_in = rng.uniform(0.0, 1.0, n)
            caps_in[rng.random(n) < 0.3] = 0.0
            if k == 0:
                caps_in[:] = 0.0
            caps_out = A @ caps_in
            got = lp_maximize_box_polytope(caps_in.tolist(), caps_out.tolist(), matrix)
            assert got == pytest.approx(caps_in.tolist(), abs=1e-12)
            want = lp_vertex_reference(caps_in, caps_out, matrix.rows)
            assert _agrees_with_reference(got, want)


def _random_matrix(rng, n: int, m: int) -> DistributionMatrix:
    """A generic column-stochastic matrix, not certified: beyond 6x6 the uniqueness
    test alone takes seconds, and a generic matrix has a unique maximizer."""
    a = rng.uniform(0.1, 1.0, (m, n))
    return DistributionMatrix.from_rows(a / a.sum(axis=0))


@pytest.mark.parametrize("n", [7, 8, 10])
def test_lp_matches_linprog_on_large_nodes(quad, n):
    rng = default_rng(3200 + n)
    topo = NodeTopology(n, n)
    for _ in range(3):
        matrix = _random_matrix(rng, n, n)
        A = matrix.as_array()
        for _ in range(6):
            data = random_state(rng, topo)
            caps_in = [quad.demand(r).sup for r in data.incoming]
            caps_out = [quad.supply(r).sup for r in data.outgoing]
            got = np.asarray(lp_maximize_box_polytope(caps_in, caps_out, matrix))
            assert got.sum() == pytest.approx(lp_linprog_value(caps_in, caps_out, A),
                                              abs=1e-8)
            assert np.all(got >= 0.0) and np.all(got <= np.asarray(caps_in) + FLUX_SLACK)
            assert np.all(A @ got <= np.asarray(caps_out) + FLUX_SLACK)


def test_lp_memory_stays_small_at_10x10(quad):
    rng = default_rng(3300)
    matrix = _random_matrix(rng, 10, 10)
    data = random_state(rng, NodeTopology(10, 10))
    caps_in = [quad.demand(r).sup for r in data.incoming]
    caps_out = [quad.supply(r).sup for r in data.outgoing]
    tracemalloc.start()
    try:
        lp_maximize_box_polytope(caps_in, caps_out, matrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rs1_end_to_end_at_7x7(any_model):
    rng = default_rng(3400)
    topo = NodeTopology(7, 7)
    matrix = _certified_matrix(rng, 7, 7)
    A = matrix.as_array()
    for _ in range(4):
        data = random_state(rng, topo)
        caps_in = [any_model.demand(r).sup for r in data.incoming]
        caps_out = [any_model.supply(r).sup for r in data.outgoing]
        solution = rs1_solve(any_model, matrix, data)
        assert solution.balanced and solution.admissible
        assert sum(solution.gamma[:7]) == pytest.approx(
            lp_linprog_value(caps_in, caps_out, A), abs=1e-8)
        again = rs1_solve(any_model, matrix, solution.state)
        assert again.state.rho == pytest.approx(solution.state.rho, abs=1e-10)


def test_lp_input_errors():
    with pytest.raises(InvalidMatrixError):
        lp_maximize_box_polytope((0.5, 0.5, 0.5), (0.5, 0.5), MATRIX_2X2)
    with pytest.raises(InvalidMatrixError):
        lp_maximize_box_polytope((0.5, 0.5), (0.5,), MATRIX_2X2)
    with pytest.raises(InadmissibleFluxError):
        lp_maximize_box_polytope((0.5, -1e-9), (0.5, 0.5), MATRIX_2X2)
    with pytest.raises(InadmissibleFluxError):
        lp_maximize_box_polytope((0.5, 0.5), (-1e-9, 0.5), MATRIX_2X2)
    with pytest.raises(InadmissibleFluxError):
        lp_maximize_box_polytope((math.nan, 0.5), (0.5, 0.5), MATRIX_2X2)
    with pytest.raises(InadmissibleFluxError):
        lp_maximize_box_polytope((0.5, 0.5), (0.5, math.nan), MATRIX_2X2)


# -- projection -------------------------------------------------------------------------


def test_projection_pinned_values():
    assert project_capped_simplex((0.2, 0.3), (0.6, 0.6), 0.5) == \
        pytest.approx((0.2, 0.3), abs=1e-12)
    assert project_capped_simplex((0.5, 0.5), (0.25, 1.0), 1.0) == \
        pytest.approx((0.25, 0.75), abs=1e-12)
    assert project_capped_simplex((0.8, 0.6), (1.0, 1.0), 1.0) == \
        pytest.approx((0.6, 0.4), abs=1e-12)


def test_projection_infeasible_total():
    with pytest.raises(InadmissibleFluxError):
        project_capped_simplex((0.5, 0.5), (0.5, 0.5), 1.5)
    with pytest.raises(InadmissibleFluxError):
        project_capped_simplex((0.5, 0.5), (0.5, 0.5), -0.5)


def test_projection_rejects_nan_and_non_finite_input():
    with pytest.raises(InadmissibleFluxError):
        project_capped_simplex((0.5, 0.5), (math.nan, 0.5), 0.5)
    with pytest.raises(InadmissibleFluxError):
        project_capped_simplex((0.5, 0.5), (0.5, 0.5), math.nan)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            project_capped_simplex((bad, 0.5), (0.5, 0.5), 0.5)


def test_projection_matches_kkt_oracle():
    rng = default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        caps = rng.uniform(0.0, 1.0, n)
        target = rng.uniform(-0.5, 1.5, n)
        total = float(rng.uniform(0.0, caps.sum()))
        got = np.asarray(project_capped_simplex(tuple(target), tuple(caps), total))
        want = capped_simplex_projection_kkt(target, caps, total)
        assert got == pytest.approx(want, abs=1e-9)


@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_projection_is_feasible_and_closest(n, seed):
    rng = np.random.default_rng(seed)
    caps = rng.uniform(0.0, 1.0, n)
    target = rng.uniform(-0.5, 1.5, n)
    total = float(rng.uniform(0.0, caps.sum()))
    got = np.asarray(project_capped_simplex(tuple(target), tuple(caps), total))
    assert np.all(got >= -1e-12) and np.all(got <= caps + 1e-12)
    assert abs(got.sum() - total) <= 1e-9
    # no feasible point is closer to the target
    other = rng.uniform(0.0, 1.0, n) * caps
    other += (total - other.sum()) / n
    if np.all(other >= 0.0) and np.all(other <= caps):
        assert np.linalg.norm(target - got) <= np.linalg.norm(target - other) + 1e-9


def _projection_cases(kind: str, rng) -> list:
    """Seeded (target, caps, total) triples for one edge case of the projection;
    "wide" goes up to n = 8 and "far_targets" lies outside [-1.5, 2.5]."""
    cases = []
    for _ in range(12):
        n = int(rng.integers(1, 9)) if kind == "wide" else int(rng.integers(1, 6))
        caps = rng.uniform(0.0, 1.0, n)
        target = rng.uniform(-0.5, 1.5, n)
        total = float(rng.uniform(0.0, caps.sum()))
        if kind == "n1":
            caps, target = caps[:1], target[:1]
            total = float(rng.uniform(0.0, caps[0]))
        elif kind == "zero_caps":
            caps, total = np.zeros(n), 0.0
        elif kind == "zero_total":
            total = 0.0
        elif kind == "full_total":
            total = float(caps.sum())
        elif kind == "repeated_kinks":
            target = np.full(n, target[0])
            caps = np.full(n, caps[0])
            total = float(rng.uniform(0.0, caps.sum()))
        elif kind == "far_targets":
            target = rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 50.0, n) + 0.5
        cases.append((target, caps, total))
    return cases


PROJECTION_EDGE_CASES = ("n1", "zero_caps", "zero_total", "full_total", "repeated_kinks",
                         "far_targets", "wide")


@pytest.mark.parametrize("kind", PROJECTION_EDGE_CASES)
def test_projection_edge_cases_match_kkt_oracle(kind):
    rng = default_rng(2100 + PROJECTION_EDGE_CASES.index(kind))
    for target, caps, total in _projection_cases(kind, rng):
        got = np.asarray(project_capped_simplex(tuple(target), tuple(caps), total))
        assert np.all(got >= 0.0) and np.all(got <= caps)
        assert abs(got.sum() - total) <= 1e-12
        want = capped_simplex_projection_kkt(target, caps, total)
        assert got == pytest.approx(want, abs=1e-9)


@pytest.mark.parametrize("n", [9, 10])
@pytest.mark.parametrize("total", ["zero", "full", "between"])
def test_projection_matches_kkt_oracle_up_to_ten_arcs(n, total):
    # each case mixes caps of 0 and of -1e-13 (clamped to 0) with groups of equal
    # targets, whose kinks coincide
    rng = default_rng(2300 + 10 * n + ("zero", "full", "between").index(total))
    caps = rng.uniform(0.0, 1.0, n)
    caps[:2] = 0.0
    caps[2:4] = -1e-13
    target = rng.choice(rng.uniform(-0.5, 1.5, 3), n)
    rng.shuffle(caps)
    clamped = np.maximum(caps, 0.0)
    total = {"zero": 0.0, "full": float(clamped.sum()),
             "between": float(rng.uniform(0.0, clamped.sum()))}[total]
    got = np.asarray(project_capped_simplex(tuple(target), tuple(caps), total))
    assert np.all(got >= 0.0) and np.all(got <= clamped)
    assert abs(got.sum() - total) <= 1e-12
    want = capped_simplex_projection_kkt(target, clamped, total)
    assert got == pytest.approx(want, abs=1e-9)


def test_projection_returns_a_feasible_target_unchanged():
    rng = default_rng(2200)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        caps = rng.uniform(0.0, 1.0, n)
        target = caps * rng.uniform(0.0, 1.0, n)
        got = np.asarray(project_capped_simplex(tuple(target), tuple(caps),
                                                float(target.sum())))
        assert np.abs(got - target).max() <= 1e-15


# -- RS1 --------------------------------------------------------------------------------


def test_rs1_flux_maximizer_counterexample(quad):
    data = RiemannState(T22, (3 / 4, 1 / 8, (8 + SQ(34)) / 16, 1 / 10))
    solution = rs1_solve(quad, MATRIX_2X2, data)
    assert solution.gamma == pytest.approx((1.0, 13 / 48, 15 / 32, 77 / 96),
                                           abs=1e-10)
    want = (0.5, (1 + SQ(35 / 48)) / 2, (8 + SQ(34)) / 16, (1 - SQ(19 / 96)) / 2)
    assert solution.state.rho == pytest.approx(want, abs=1e-10)
    assert solution.balanced and solution.admissible
    # this is the solver the entropy condition rejects
    assert check_E2(quad, solution.state).value_at_sigma == pytest.approx(
        -19 / 48, abs=1e-10)


def test_rs1_starved_node(quad):
    data = RiemannState(T22, (0.0, 0.0, 0.7, 0.2))
    solution = rs1_solve(quad, MATRIX_2X2, data)
    assert solution.gamma == (0.0, 0.0, 0.0, 0.0)
    assert solution.state.rho[:2] == (0.0, 0.0)


def test_rs1_rejects_matrices_without_unique_optimum(quad):
    data = RiemannState(T22, (0.5, 0.5, 0.5, 0.5))
    with pytest.raises(InvalidMatrixError):
        rs1_solve(quad, A_DOUBLED, data)


def test_rs1_idempotent_on_samples(quad):
    rng = default_rng(41)
    solver = RS1Solver(quad, MATRIX_2X2)
    for _ in range(300):
        out = solver(random_state(rng, T22))
        again = solver(out.state)
        assert out.state.rho == pytest.approx(again.state.rho, abs=1e-10)
        assert out.balanced and out.admissible


# -- rs1 warm starts: outputs free of history -------------------------------------------


WARM_SIZES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5)]


def _warm_states(rng, model, topo, count: int) -> list[RiemannState]:
    """A slow random walk, so that the held basis usually fits the next datum, then
    boundary-biased data drawn datum by datum: each density is 0, 1, sigma or
    sigma +- 1e-13 with probability 0.6."""
    special = np.array([0.0, 1.0, model.sigma, model.sigma - 1e-13,
                        model.sigma + 1e-13])
    walk = rng.uniform(0.05, 0.95, topo.total)
    states = []
    for k in range(count):
        if k < count // 2:
            walk = np.clip(walk + rng.normal(0.0, 0.01, topo.total), 0.0, 1.0)
            rho = walk
        else:
            rho = np.where(rng.random(topo.total) < 0.6,
                           special[rng.integers(5, size=topo.total)],
                           rng.uniform(0.0, 1.0, topo.total))
        states.append(RiemannState(topo, tuple(rho.tolist())))
    return states


def _cold(matrix: DistributionMatrix) -> DistributionMatrix:
    """A new matrix of the same rows, whose basis cell is still empty, so that rs1
    and the LP start cold on it."""
    fresh = DistributionMatrix(matrix.rows)
    assert fresh._basis == [None]
    return fresh


@pytest.mark.parametrize("n,m", WARM_SIZES)
def test_rs1_handle_is_free_of_history(any_model, n, m, monkeypatch):
    rng = default_rng(5100 + 10 * n + m)
    topo = NodeTopology(n, m)
    matrix = _certified_matrix(rng, n, m)
    states = _warm_states(rng, any_model, topo, 40)
    fresh = [bits(rs1_solve(any_model, _cold(matrix), s)) for s in states]
    pivots = []
    pivot = solvers_module._pivot_to_optimum
    monkeypatch.setattr(solvers_module, "_pivot_to_optimum",
                        lambda *args: pivots.append(1) or pivot(*args))
    forward = RS1Solver(any_model, _cold(matrix))
    backward = RS1Solver(any_model, _cold(matrix))
    assert [bits(forward(s)) for s in states] == fresh
    assert [bits(backward(s)) for s in reversed(states)][::-1] == fresh
    # the held basis answered some of the calls without a pivot
    assert len(pivots) < 2 * len(states)


@pytest.mark.parametrize("n,m", WARM_SIZES)
def test_rs1_warm_and_cold_fluxes_match_the_oracles(any_model, n, m):
    rng = default_rng(5200 + 10 * n + m)
    topo = NodeTopology(n, m)
    matrix = _certified_matrix(rng, n, m)
    A = matrix.as_array()
    handle = RS1Solver(any_model, matrix)
    for state in _warm_states(rng, any_model, topo, 24):
        caps_in = [any_model.demand(r).sup for r in state.incoming]
        caps_out = [any_model.supply(r).sup for r in state.outgoing]
        want = lp_vertex_reference(caps_in, caps_out, matrix.rows)
        best = lp_linprog_value(caps_in, caps_out, A)
        for got in (handle(state).gamma[:n],
                    rs1_solve(any_model, _cold(matrix), state).gamma[:n]):
            assert _agrees_with_reference(got, want)
            assert sum(got) == pytest.approx(best, abs=1e-8)


def _outcome(call, *args):
    try:
        return bits(call(*args))
    except PreconditionError as exc:
        return type(exc)


def test_prewarmed_lp_raises_exactly_where_a_cold_one_does():
    rng = default_rng(5300)
    wide = DistributionMatrix.from_rows(
        [[0.1, 0.1, 0.2, 0.3], [0.2, 0.2, 0.3, 0.1], [0.3, 0.3, 0.1, 0.2],
         [0.4, 0.4, 0.4, 0.4]])
    for matrix in (A_DOUBLED, wide):
        # loose caps have a unique optimum even here, tight ones a tie
        caps = [(rng.uniform(0.0, 1.0, matrix.n).tolist(),
                 rng.uniform(scale, 1.0, matrix.m).tolist())
                for scale in (0.0, 0.9) for _ in range(30)]
        rng.shuffle(caps)
        cold = [_outcome(lp_maximize_box_polytope, b, c, _cold(matrix)) for b, c in caps]
        assert DegeneracyError in cold and any(o is not DegeneracyError for o in cold)
        warm = _cold(matrix)
        lp_maximize_box_polytope((0.1,) * matrix.n, (1.0,) * matrix.m, warm)
        assert warm._basis[0] is not None
        assert [_outcome(lp_maximize_box_polytope, b, c, warm) for b, c in caps] == cold
    # a full cell of records of a 6x6 matrix outside the class (two equal columns)
    columns = rng.uniform(0.1, 1.0, (6, 6))
    columns[:, 1] = columns[:, 0]
    matrix = DistributionMatrix(columns / columns.sum(axis=0))
    caps = [(rng.uniform(0.0, 1.0, 6).tolist(), rng.uniform(scale, 1.0, 6).tolist())
            for scale in (0.0, 0.9) for _ in range(30)]
    cold = [_outcome(lp_maximize_box_polytope, b, c, _cold(matrix)) for b, c in caps]
    assert DegeneracyError in cold and any(o is not DegeneracyError for o in cold)
    full = _cold(matrix)
    for _ in range(500):
        _outcome(lp_maximize_box_polytope, rng.uniform(0.0, 1.0, 6).tolist(),
                 rng.uniform(0.0, 1.0, 6).tolist(), full)
        if len(full._basis[0] or ()) == solvers_module._HELD_BASES:
            break
    assert len(full._basis[0]) == solvers_module._HELD_BASES
    assert [_outcome(lp_maximize_box_polytope, b, c, full) for b, c in caps] == cold


def test_prewarmed_rs1_handle_raises_exactly_where_a_fresh_one_does(quad):
    rng = default_rng(5400)
    warmed = RS1Solver(quad, _cold(MATRIX_2X2))
    warmed(random_state(rng, T22))
    assert warmed.matrix._basis[0] is not None
    doubled = RS1Solver(quad, A_DOUBLED)
    for _ in range(20):
        state = random_state(rng, T22)
        assert _outcome(doubled, state) is InvalidMatrixError
        assert _outcome(warmed, state) == _outcome(rs1_solve, quad, _cold(MATRIX_2X2),
                                                   state)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (4, 5)])
def test_a_held_basis_that_fits_answers_with_no_pivot(any_model, n, m, monkeypatch):
    rng = default_rng(5500 + 10 * n + m)
    topo = NodeTopology(n, m)
    matrix = _certified_matrix(rng, n, m)
    states = _warm_states(rng, any_model, topo, 80)
    handle = RS1Solver(any_model, _cold(matrix))
    first = [bits(handle(s)) for s in states]
    held = handle.matrix._basis
    assert 1 < len(held[0]) <= solvers_module._HELD_BASES
    pivots, answered, pivot = [], 0, solvers_module._pivot_to_optimum
    monkeypatch.setattr(solvers_module, "_pivot_to_optimum",
                        lambda *args: pivots.append(1) or pivot(*args))
    for state, want in zip(states, first):
        caps = [c.sup for c in _caps(any_model, state)]
        b, z = caps[:n], [-x for x in caps[:n]] + caps[n:]
        fits = any(solvers_module._fluxes_at(record, b, z, matrix.rows) is not None
                   for record in held[0])
        before = len(pivots)
        assert bits(handle(state)) == want
        assert len(held[0]) <= solvers_module._HELD_BASES
        if fits:  # any held record, not only the first, answers with no pivot
            assert len(pivots) == before
            # and the one that answered is tried first next time
            assert solvers_module._fluxes_at(held[0][0], b, z, matrix.rows) is not None
            answered += 1
        else:
            assert len(pivots) > before
    # the boundary-biased half puts many data on a bound, where no basis fits
    assert answered >= len(states) // 2


def test_an_overflowing_cell_returns_the_bits_of_cold_solves(any_model):
    rng = default_rng(5600)
    topo = NodeTopology(6, 6)
    matrix = _certified_matrix(rng, 6, 6)
    states = [random_state(rng, topo) for _ in range(150)]
    states += _warm_states(rng, any_model, topo, 60)
    rng.shuffle(states)
    cold = [_outcome(rs1_solve, any_model, _cold(matrix), s) for s in states]
    handle = RS1Solver(any_model, _cold(matrix))
    met = set()
    for state, want in zip(states, cold):
        assert _outcome(handle, state) == want
        held = handle.matrix._basis[0]
        assert len(held) <= solvers_module._HELD_BASES
        met.update(record[0] for record in held)
    # more bases than the cell holds were met, so it dropped some on the way
    assert len(met) > solvers_module._HELD_BASES == len(held)


# -- RS2 --------------------------------------------------------------------------------


def test_rs2_equilibrium_configuration(quad):
    theta = ThetaWeights((1 / 2, 1 / 2), (5 / 12, 7 / 12))
    state = RiemannState(T22, (1 / 4, 1 / 4, 1 / 2 - SQ(3) / (4 * SQ(2)),
                               1 / 2 - 1 / (4 * SQ(2))))
    solution = rs2_solve(quad, theta, state)
    assert solution.state.rho == pytest.approx(state.rho, abs=1e-10)


def test_rs2_all_sigma(quad):
    state = RiemannState(T22, (0.5, 0.5, 0.5, 0.5))
    solution = rs2_solve(quad, ThetaWeights.uniform(T22), state)
    assert solution.state.rho == (0.5, 0.5, 0.5, 0.5)


def test_rs2_single_road(quad):
    state = RiemannState(T11, (0.25, 0.75))
    solution = rs2_solve(quad, ThetaWeights.uniform(T11), state)
    assert solution.state.rho == pytest.approx((0.25, 0.75), abs=1e-12)
    assert rs_1x1_solve(quad, state).state.rho == pytest.approx(
        solution.state.rho, abs=1e-12)


def test_rs2_satisfies_E2_on_square_topologies(quad):
    rng = default_rng(53)
    for n in (1, 2, 3):
        topo = NodeTopology(n, n)
        solver = RS2Solver(quad, ThetaWeights.uniform(topo))
        for _ in range(300):
            out = solver(random_state(rng, topo))
            assert check_E2(quad, out.state).value_at_sigma >= -1e-10


def test_rs2_equal_weights_satisfy_E1(quad):
    rng = default_rng(59)
    solver = RS2Solver(quad, ThetaWeights((0.5, 0.5), (0.5, 0.5)))
    for _ in range(300):
        out = solver(random_state(rng, T22))
        assert check_E1(quad, out.state).satisfied_E1


# -- RS3 --------------------------------------------------------------------------------


def test_rs3_first_equilibrium(quad):
    theta = ThetaWeights((3 / 4, 1 / 4), (3 / 4, 1 / 4))
    state = RiemannState(T22, (1 / 5, 1 / 2 + SQ(59 / 3) / 10, 4 / 5,
                               1 / 2 - SQ(59 / 3) / 10))
    solution = rs3_solve(quad, theta, CrossingCapacity(64 / 75), state)
    assert solution.state.rho == pytest.approx(state.rho, abs=1e-10)
    assert check_E2(quad, solution.state).value_at_sigma == pytest.approx(
        -64 / 75, abs=1e-10)


def test_rs3_second_equilibrium(quad):
    theta = ThetaWeights((1 / 2, 1 / 2), (1 / 2, 1 / 2))
    state = RiemannState(T22, (1 / 2 + SQ(1 / 2) / 2, 1 / 2 + SQ(1 / 3) / 2,
                               1 / 2 + SQ(1 / 2) / 2, 1 / 2 - SQ(1 / 3) / 2))
    solution = rs3_solve(quad, theta, CrossingCapacity(7 / 6), state)
    assert solution.state.rho == pytest.approx(state.rho, abs=1e-10)
    assert solution.gamma == pytest.approx((0.5, 2 / 3, 0.5, 2 / 3), abs=1e-10)
    assert check_E2(quad, solution.state).value_at_sigma == pytest.approx(
        -2 / 3, abs=1e-10)


def test_rs3_slack_capacity_keeps_sigma(quad):
    state = RiemannState(T22, (0.5, 0.5, 0.5, 0.5))
    solution = rs3_solve(quad, ThetaWeights.uniform(T22), CrossingCapacity(3.0),
                         state)
    assert solution.state.rho == (0.5, 0.5, 0.5, 0.5)


def test_rs3_needs_square_topology(quad):
    state = RiemannState(NodeTopology(2, 3), (0.5,) * 5)
    with pytest.raises(TopologyError):
        rs3_solve(quad, ThetaWeights((0.5, 0.5), (0.4, 0.3, 0.3)),
                  CrossingCapacity(1.0), state)


# -- the 1x1 solver ----------------------------------------------------------------------


def test_1x1_keeps_equal_data(quad):
    for rho in (0.0, 0.2, 0.5, 0.8, 1.0):
        solution = rs_1x1_solve(quad, RiemannState(T11, (rho, rho)))
        assert solution.state.rho == (rho, rho)


def test_1x1_case_analysis(quad):
    # falling data across sigma: both traces move to the sonic point
    assert rs_1x1_solve(quad, RiemannState(T11, (0.75, 0.25))).state.rho == \
        pytest.approx((0.5, 0.5), abs=1e-12)
    # matching fluxes: both kept
    assert rs_1x1_solve(quad, RiemannState(T11, (0.25, 0.75))).state.rho == \
        pytest.approx((0.25, 0.75), abs=1e-12)
    # free-flow left, congested right of the same low flux
    assert rs_1x1_solve(quad, RiemannState(T11, (0.25, 1 / 3))).state.rho == \
        pytest.approx((0.25, 0.25), abs=1e-12)
    assert rs_1x1_solve(quad, RiemannState(T11, (0.8, 0.7))).state.rho == \
        pytest.approx((0.7, 0.7), abs=1e-12)


def test_1x1_wrong_topology(quad):
    with pytest.raises(TopologyError):
        rs_1x1_solve(quad, RiemannState(T22, (0.5, 0.5, 0.5, 0.5)))


def test_1x1_alternatives_violate_E1(quad):
    """Any other balanced admissible trace pair fails the entropy condition."""
    from junction_riemann import DECREASING, INCREASING

    rng = default_rng(61)
    for _ in range(200):
        a, b = rng.uniform(0.0, 1.0, 2)
        state = RiemannState(T11, (float(a), float(b)))
        best = rs_1x1_solve(quad, state)
        top = min(best.gamma)
        if top < 1e-6:
            continue
        for gamma in (0.25 * top, 0.5 * top, 0.95 * top):
            alt = RiemannState(T11, (quad.invert(gamma, DECREASING),
                                     quad.invert(gamma, INCREASING)))
            assert quad.contains_trace_in(state.rho[0], alt.rho[0])
            assert quad.contains_trace_out(state.rho[1], alt.rho[1])
            assert not check_E1(quad, alt).satisfied_E1


# -- the constructed 2x2 entropy solver ---------------------------------------------------


def test_2x2_entropy_solver_remark_values(quad):
    got = rs_e1_2x2_solve(quad, RiemannState(T22, (1 / 4, 3 / 4, 1 / 4, 1 / 4)))
    assert got.state.rho == (0.25, 0.5, 0.25, 0.5)
    got = rs_e1_2x2_solve(quad, RiemannState(T22, (3 / 4, 1 / 4, 1 / 4, 1 / 4)))
    assert got.state.rho == (0.5, 0.25, 0.5, 0.25)


def test_2x2_entropy_solver_all_good_data(quad):
    got = rs_e1_2x2_solve(quad, RiemannState(T22, (0.6, 0.7, 0.3, 0.4)))
    assert got.state.rho == (0.5, 0.5, 0.5, 0.5)


def _entropy_draws(model, topology, rng, count):
    """``count`` each of uniform, boundary-biased and mirror-pair data on a 1x1 or
    2x2 node, from a seeded ``rng``.

    A boundary-biased datum is 0, 1, sigma, sigma -+ 1e-13, x or tau(x) for a uniform
    x. A mirror-pair state puts tau(x) of a datum x on the other side of the node, x
    on a 0.01 grid, so an incoming and an outgoing flux tie up to rounding.
    """
    s, tau = model.sigma, model.tau
    grid = np.arange(1, 100) / 100
    free, jam = grid[grid < s], grid[grid > s]
    for _ in range(count):
        yield random_state(rng, topology)
        x = float(rng.uniform())
        pool = (0.0, 1.0, s, s - 1e-13, s + 1e-13, x, tau(x))
        draw = rng.integers(len(pool), size=topology.total)
        yield RiemannState(topology, tuple(pool[i] for i in draw))
        a, b = (float(v) for v in rng.choice(free, 2))
        c, d = (float(v) for v in rng.choice(jam, 2))
        if topology == T11:
            yield RiemannState(T11, (a, tau(a)))
            yield RiemannState(T11, (tau(c), c))
        else:
            yield RiemannState(T22, (a, b, tau(b), c))
            yield RiemannState(T22, (tau(c), a, c, d))


def test_2x2_entropy_solver_properties(any_model):
    rng = default_rng(67)
    for state in _entropy_draws(any_model, T22, rng, 500):
        out = rs_e1_2x2_solve(any_model, state)
        assert out.balanced and out.admissible, state.rho
        assert check_E1(any_model, out.state).satisfied_E1, state.rho
        assert classify_2x2(any_model, out.state).admissible, state.rho
        again = rs_e1_2x2_solve(any_model, out.state)
        assert out.state.rho == pytest.approx(again.state.rho, abs=1e-10)


def test_1x1_solver_properties(any_model):
    rng = default_rng(71)
    for state in _entropy_draws(any_model, T11, rng, 500):
        out = rs_1x1_solve(any_model, state)
        assert out.balanced and out.admissible, state.rho
        assert check_E1(any_model, out.state).satisfied_E1, state.rho
        again = rs_1x1_solve(any_model, out.state)
        assert out.state.rho == pytest.approx(again.state.rho, abs=1e-10)


@pytest.mark.parametrize("rho, traces", [
    ((0.09, 0.08, 0.92, 0.92), (0.92, 0.08, 0.92, 0.92)),
    ((0.01, 0.02, 0.98, 0.98), (0.01, 0.02, 0.01, 0.98)),
], ids=["incoming-tie", "outgoing-tie"])
def test_2x2_entropy_solver_keeps_the_datum_at_a_flux_tie(quad, rho, traces):
    """All four data bad, and the smaller incoming flux equals the larger outgoing
    one up to rounding: the datum whose mirror is on the other side is kept, not
    moved to that mirror, which is the excluded end of its admissible set."""
    out = rs_e1_2x2_solve(quad, RiemannState(T22, rho))
    assert out.balanced and out.admissible
    assert check_E1(quad, out.state).satisfied_E1
    assert out.state.rho == pytest.approx(traces, abs=1e-12)


# -- configuration loading ----------------------------------------------------------------


def test_solver_from_config_dispatch(quad):
    live = solver_from_config(quad, {"solver": "rs1", "A": MATRIX_2X2.rows}, T22)
    assert isinstance(live, RS1Solver)
    live = solver_from_config(quad, {"solver": "rs2", "theta": [0.5, 0.5, 0.5, 0.5]},
                              T22)
    assert isinstance(live, RS2Solver)
    assert live.theta.outgoing == (0.5, 0.5)
    live = solver_from_config(quad, {"solver": "rs3", "gamma_j": 1.5}, T22)
    assert isinstance(live, RS3Solver)
    assert live.cap.gamma_j == 1.5
    live = solver_from_config(quad, {"solver": "rs3"}, T22)
    assert live.cap.gamma_j == math.inf
    assert isinstance(solver_from_config(quad, {"solver": "rs_1x1"}, T11),
                      RS1x1Solver)
    assert isinstance(solver_from_config(quad, {"solver": "rs_e1_2x2"}, T22),
                      RSE12x2Solver)


def test_solver_from_config_errors(quad):
    with pytest.raises(InputError):
        solver_from_config(quad, {"solver": "rs9"}, T22)
    with pytest.raises(InputError):
        solver_from_config(quad, "rs1", T22)
    with pytest.raises(InputError):
        solver_from_config(quad, {"solver": "rs1"}, T22)
    with pytest.raises(InvalidMatrixError):
        solver_from_config(quad, {"solver": "rs1", "A": MATRIX_2X2.rows},
                           NodeTopology(2, 3))
    with pytest.raises(TopologyError):
        solver_from_config(quad, {"solver": "rs3"}, NodeTopology(2, 3))
    with pytest.raises(TopologyError):
        solver_from_config(quad, {"solver": "rs_1x1"}, T22)
    with pytest.raises(InputError):
        solver_from_config(quad, {"solver": "rs2", "theta": [1.0]}, T22)


@pytest.mark.parametrize("solver", ["rs2", "rs3"])
@pytest.mark.parametrize("theta", [[0.5, 0.5, 1.0], [0.5, 0.5, 0.25, 0.25, 0.5]],
                         ids=["short", "long"])
def test_theta_needs_exactly_n_plus_m_weights(quad, solver, theta):
    with pytest.raises(InputError, match="n \\+ m = 4 weights"):
        solver_from_config(quad, {"solver": solver, "theta": theta}, T22)


# -- solver handles ----------------------------------------------------------------------

HANDLE_FIELDS = {RS1Solver: ("model", "matrix"), RS2Solver: ("model", "theta"),
                 RS3Solver: ("model", "theta", "cap"), RS1x1Solver: ("model",),
                 RSE12x2Solver: ("model",)}


def _handle_cases(model):
    """(handle, the solve it must match, topology) per handle class; theta and the
    crossing capacity bind on some data, so swapping them changes the output."""
    theta = ThetaWeights((3 / 4, 1 / 4), (1 / 3, 2 / 3))
    cap = CrossingCapacity(0.7 * model.f_max)
    return [
        (RS1Solver(model, MATRIX_2X2),
         lambda state: rs1_solve(model, MATRIX_2X2, state), T22),
        (RS2Solver(model, theta), lambda state: rs2_solve(model, theta, state), T22),
        (RS3Solver(model, theta, cap),
         lambda state: rs3_solve(model, theta, cap, state), T22),
        (RS1x1Solver(model), lambda state: rs_1x1_solve(model, state), T11),
        (RSE12x2Solver(model), lambda state: rs_e1_2x2_solve(model, state), T22),
    ]


def _solution_bits(solution: TraceSolution):
    return bits([solution.state.rho, solution.gamma, solution.balanced,
                 solution.admissible])


def test_handles_are_frozen_dataclasses_of_their_parameters(quad):
    state = RiemannState(T22, (0.75, 0.125, 0.9, 0.1))
    for handle, _, _ in _handle_cases(quad):
        cls = type(handle)
        assert cls.__name__ == cls.__qualname__
        assert getattr(solvers_module, cls.__name__) is cls
        assert cls.__module__ == "junction_riemann.solvers"
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert names == HANDLE_FIELDS[cls]
        # positional construction from the fields, equality and hashing by field
        params = [getattr(handle, name) for name in names[1:]]
        again = cls(quad, *params)
        assert isinstance(again, cls) and again == handle
        assert hash(again) == hash(handle)
        for name in [f.name for f in dataclasses.fields(cls)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(handle, name, None)
    # the basis its matrix holds takes no part in equality or hashing
    warm, cold = RS1Solver(quad, _cold(MATRIX_2X2)), RS1Solver(quad, _cold(MATRIX_2X2))
    warm(state)
    assert warm.matrix._basis != cold.matrix._basis and warm == cold
    warm, cold = RS1Solver("model", _cold(MATRIX_2X2)), RS1Solver("model", MATRIX_2X2)
    warm.matrix._basis[0] = "held"
    assert warm == cold and hash(warm) == hash(cold)
    theta = ThetaWeights.uniform(T22)
    assert RS2Solver(quad, theta) != RS3Solver(quad, theta, CrossingCapacity(1.0))
    assert RS2Solver(quad, theta) != RS2Solver(quad, ThetaWeights((0.5, 0.5),
                                                                 (0.25, 0.75)))
    assert RS1x1Solver(quad) != RSE12x2Solver(quad)


def test_handles_hash_and_serve_as_dict_keys(any_model):
    state = RiemannState(T22, (0.75, 0.125, 0.9, 0.1))
    cases = _handle_cases(any_model)
    table = {handle: k for k, (handle, _, _) in enumerate(cases)}
    assert len(table) == len(cases)
    for k, (handle, _, _) in enumerate(_handle_cases(any_model)):
        assert hash(handle) == hash(cases[k][0]) and table[handle] == k
    # the basis rs1's matrix holds stays out of the hash, and so does the model's
    # scalar kernel
    warm = RS1Solver(any_model, _cold(MATRIX_2X2))
    before = hash(warm)
    warm(state)
    assert warm.matrix._basis[0] is not None and "_scalar" in vars(warm.model)
    assert hash(warm) == before and table[warm] == 0


def test_each_handle_returns_the_bits_of_its_solve(any_model):
    rng = default_rng(7700)
    special = [0.0, -0.0, 1.0, any_model.sigma]
    differs = 0
    for handle, solve, topo in _handle_cases(any_model):
        for _ in range(50):
            rho = [special[k] if k < len(special) else float(rng.uniform())
                   for k in rng.integers(2 * len(special), size=topo.total)]
            state = RiemannState(topo, tuple(rho))
            got = _solution_bits(handle(state))
            assert got == _solution_bits(solve(state))
            if isinstance(handle, RS3Solver):
                differs += got != _solution_bits(rs2_solve(any_model, handle.theta,
                                                           state))
    # the panel tells rs3 from rs2 with the same weights, so a lost cap would show
    assert differs > 0


# -- the shared tail of the flux-based solvers against the plain reference ------------

TAIL_TOPOLOGIES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4), (4, 5)]


def _tail_outcome(tail, model, initial, caps, gamma):
    """The bits of (traces, fluxes, balanced, admissible), or the error's type and
    message."""
    try:
        out = tail(model, initial, caps, gamma)
    except PreconditionError as exc:
        return type(exc), str(exc)
    if isinstance(out, TraceSolution):
        out = (out.state.rho, out.gamma, out.balanced, out.admissible)
    return bits(out)


def _tail_data(model, topo, rng):
    """Random data with about half of the arcs at 0, -0.0, 1 or sigma."""
    special = (0.0, -0.0, 1.0, model.sigma)
    rho = rng.uniform(0.0, 1.0, topo.total).tolist()
    for l in range(topo.total):
        pick = int(rng.integers(8))
        if pick < len(special):
            rho[l] = special[pick]
    return RiemannState(topo, tuple(rho))


def _tail_fluxes(model, state, caps, rng):
    """One flux per arc: inside its cap, at or near f(datum), at f_max, at 0 or -0.0,
    inside the slack past the cap, or (rarely) beyond the slack on either side."""
    gamma = []
    for r, cap in zip(state.rho, caps):
        f0 = float(model.value(r))
        choices = (float(rng.uniform()) * cap.sup, f0,
                   f0 + float(rng.uniform(-2.0, 2.0)) * KEEP_TOL,
                   min(model.f_max, cap.sup), 0.0, -0.0, cap.sup + 0.5 * FLUX_SLACK,
                   cap.sup + 2.0 * FLUX_SLACK, -2.0 * FLUX_SLACK)
        weights = np.array([6, 4, 3, 3, 1, 1, 1, 0.25, 0.25])
        gamma.append(choices[rng.choice(len(choices), p=weights / weights.sum())])
    return gamma


@pytest.mark.parametrize("n,m", TAIL_TOPOLOGIES)
def test_flux_tail_is_bit_identical_to_the_plain_reference(any_model, n, m,
                                                            monkeypatch):
    topo = NodeTopology(n, m)
    rng = default_rng(8100 + 10 * n + m)
    tail = TraceSolution.from_fluxes
    solved = []

    def compared(model, initial, caps, gamma):
        got = _tail_outcome(tail, model, initial, caps, gamma)
        assert got == _tail_outcome(solution_reference, model, initial, caps, gamma)
        solved.append(got)
        return tail(model, initial, caps, gamma)

    monkeypatch.setattr(TraceSolution, "from_fluxes", staticmethod(compared))
    theta = ThetaWeights(*(tuple((w / w.sum()).tolist())
                           for w in (rng.uniform(0.2, 1.0, k) for k in (n, m))))
    solvers = [RS2Solver(any_model, theta)]
    if n == m:
        solvers.append(RS3Solver(any_model, theta,
                                 CrossingCapacity(float(rng.uniform(0.3, 2.0)))))
    if (n, m) == (1, 1):
        solvers.append(RS1x1Solver(any_model))
    if 1 < m and n <= m:
        while True:
            columns = rng.uniform(0.1, 1.0, (m, n))
            matrix = DistributionMatrix.from_rows(columns / columns.sum(axis=0))
            if matrix_in_n(matrix, topo):
                break
        solvers.append(RS1Solver(any_model, matrix))
    direct = []
    for _ in range(30):
        state = _tail_data(any_model, topo, rng)
        for solver in solvers:
            try:
                solver(state)
            except DegeneracyError:  # rs1's uniqueness probe, before the tail
                pass
        caps = _caps(any_model, state)
        for _ in range(4):
            gamma = _tail_fluxes(any_model, state, caps, rng)
            got = _tail_outcome(tail, any_model, state, caps, gamma)
            assert got == _tail_outcome(solution_reference, any_model, state, caps,
                                        gamma)
            direct.append(got)
    assert len(solved) >= 30 * len(solvers) - 10
    # errors, and each verdict both ways, all occur
    assert any(got[0] is InadmissibleFluxError for got in direct)
    verdicts = [(got[1][2][1], got[1][3][1]) for got in solved + direct
                if got[0] is tuple]
    assert {b for b, _ in verdicts} == {a for _, a in verdicts} == {True, False}
