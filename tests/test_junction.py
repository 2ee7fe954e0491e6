"""Topology, trace reconstruction from fluxes, balance, and solver predicates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from junction_riemann import (
    BOUNDARY_EPS,
    CrossingCapacity,
    DistributionMatrix,
    DomainError,
    InadmissibleFluxError,
    InputError,
    NodeTopology,
    RS1Solver,
    RS1x1Solver,
    RS2Solver,
    RS3Solver,
    RiemannState,
    ThetaWeights,
    TopologyError,
    TraceSolution,
    check_consistency,
    check_flux_balance,
    default_rng,
    entropy_flux,
    flux_imbalance,
    is_equilibrium,
    matrix_in_n,
    random_state,
    trace_in_from_flux,
    trace_out_from_flux,
)
from oracles import bisect_flux_inverse

T22 = NodeTopology(2, 2)


# -- topology and state -------------------------------------------------------------


def test_topology_basics():
    topo = NodeTopology(2, 3)
    assert topo.total == 5
    assert list(topo.incoming) == [0, 1]
    assert list(topo.outgoing) == [2, 3, 4]
    assert topo.is_incoming(1) and not topo.is_incoming(2)


def test_topology_needs_arcs_on_both_sides():
    with pytest.raises(TopologyError):
        NodeTopology(0, 1)
    with pytest.raises(TopologyError):
        NodeTopology(1, -1)


@pytest.mark.parametrize("n", [2.5, 2.0, "2", True, None])
def test_topology_arc_counts_must_be_integers(n):
    with pytest.raises(TopologyError, match="must be an integer"):
        NodeTopology(n, 2)
    with pytest.raises(TopologyError, match="must be an integer"):
        NodeTopology(2, n)


def test_topology_keeps_a_numpy_count_as_an_int():
    topo = NodeTopology(np.int64(2), np.int32(3))
    assert topo == NodeTopology(2, 3)
    assert type(topo.n) is int and type(topo.m) is int


def test_state_validation():
    with pytest.raises(InputError):
        RiemannState(T22, (0.1, 0.2, 0.3))
    with pytest.raises(DomainError):
        RiemannState(T22, (0.1, 0.2, 0.3, 1.2))
    state = RiemannState(T22, (0.0, 1.0 + 1e-13, 0.5, 0.5))
    assert state.rho[1] == 1.0
    assert state.incoming == (0.0, 1.0)
    assert state.outgoing == (0.5, 0.5)


def test_state_json_round_trip():
    state = RiemannState(NodeTopology(1, 2), (0.25, 0.5, 0.75))
    again = RiemannState.from_json(state.to_json())
    assert again.topology == state.topology
    assert again.rho == state.rho
    with pytest.raises(InputError):
        RiemannState.from_json({"n": 1, "m": 2})


@pytest.mark.parametrize("count", [2.7, 2.0, "2", True])
def test_state_json_refuses_a_count_that_is_not_an_integer(count):
    for key in ("n", "m"):
        obj = {"n": 2, "m": 2, "rho": [0.3, 0.8, 0.6, 0.1], key: count}
        with pytest.raises(InputError, match="must be an integer"):
            RiemannState.from_json(obj)


# -- trace reconstruction -----------------------------------------------------------


def test_incoming_trace_pinned(quad):
    assert trace_in_from_flux(quad, 0.75, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert trace_in_from_flux(quad, 0.25, 0.75) == 0.25
    want = (1 + math.sqrt(35 / 48)) / 2
    got = trace_in_from_flux(quad, 0.125, 13 / 48)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(
        bisect_flux_inverse(quad, 13 / 48, "decreasing"), abs=1e-10)


def test_outgoing_trace_pinned(quad):
    rho3 = (8 + math.sqrt(34)) / 16
    assert trace_out_from_flux(quad, rho3, 15 / 32) == rho3
    want = (1 - math.sqrt(19 / 96)) / 2
    got = trace_out_from_flux(quad, 0.1, 77 / 96)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(
        bisect_flux_inverse(quad, 77 / 96, "increasing"), abs=1e-10)
    assert trace_out_from_flux(quad, 0.25, 0.75) == 0.25


def test_matching_flux_keeps_the_datum_exactly(quad):
    assert trace_in_from_flux(quad, 0.3, quad(0.3)) == 0.3
    assert trace_in_from_flux(quad, 0.3, quad(0.3) - 1e-12) == 0.3
    assert trace_out_from_flux(quad, 0.8, quad(0.8) + 1e-12) == 0.8


def test_nonmatching_flux_switches_branch(quad):
    got = trace_in_from_flux(quad, 0.3, quad(0.3) - 1e-6)
    assert got > quad.tau(0.3)
    assert quad.contains_trace_in(0.3, got)
    got = trace_out_from_flux(quad, 0.8, quad(0.8) - 1e-6)
    assert got < quad.tau(0.8)
    assert quad.contains_trace_out(0.8, got)


def test_infeasible_flux_is_rejected(quad):
    with pytest.raises(InadmissibleFluxError):
        trace_in_from_flux(quad, 0.125, 0.5)  # demand tops out at 7/16
    with pytest.raises(InadmissibleFluxError):
        trace_out_from_flux(quad, 0.9, 0.5)  # supply tops out at f(0.9)
    with pytest.raises(InadmissibleFluxError):
        trace_in_from_flux(quad, 0.75, -0.1)


@given(rho0=st.floats(0.0, 1.0, allow_nan=False),
       fraction=st.floats(0.0, 1.0, allow_nan=False))
def test_reconstructed_traces_stay_admissible(rho0, fraction):
    from junction_riemann import QUADRATIC as quad
    gamma_in = fraction * quad.demand(rho0).sup
    assert quad.contains_trace_in(rho0, trace_in_from_flux(quad, rho0, gamma_in))
    gamma_out = fraction * quad.supply(rho0).sup
    assert quad.contains_trace_out(rho0, trace_out_from_flux(quad, rho0, gamma_out))


@pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf, -math.inf])
def test_out_of_domain_densities_raise_at_every_entry_point(any_model, bad):
    state = RiemannState(T22, (0.5, 0.5, 0.5, 0.5))
    calls = [
        lambda: any_model.value(bad),
        lambda: any_model.demand(bad),
        lambda: any_model.supply(bad),
        lambda: any_model.tau(bad),
        lambda: any_model.contains_trace_in(bad, 0.5),
        lambda: any_model.contains_trace_in(0.5, bad),
        lambda: any_model.contains_trace_out(bad, 0.5),
        lambda: any_model.contains_trace_out(0.5, bad),
        lambda: RiemannState(T22, (0.5, bad, 0.5, 0.5)),
        lambda: entropy_flux(any_model, state, bad),
        lambda: trace_in_from_flux(any_model, bad, 0.0),
        lambda: trace_out_from_flux(any_model, bad, 0.0),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("n, m", [(1, 1), (2, 2), (2, 3), (3, 3)])
def test_from_traces_admissibility_is_the_public_membership_rule(any_model, n, m):
    # traces on and just off the half-open boundaries tau(datum) and sigma, the datum
    # itself, and random densities; from_traces skips the public checks only
    rng = np.random.default_rng(1000 * n + m)
    topo = NodeTopology(n, m)
    s = any_model.sigma
    verdicts = set()
    for _ in range(100):
        initial = RiemannState(topo, tuple(rng.uniform(0.0, 1.0, n + m)))
        traces = []
        for r0 in initial.rho:
            offset = float(rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])) \
                * BOUNDARY_EPS
            edge = [r0, any_model.tau(r0), s, float(rng.uniform(0.0, 1.0))][
                int(rng.choice(4, p=[0.7, 0.1, 0.1, 0.1]))]
            traces.append(min(max(edge + offset, 0.0), 1.0))
        expected = all(
            any_model.contains_trace_in(r0, r) if l < n
            else any_model.contains_trace_out(r0, r)
            for l, (r0, r) in enumerate(zip(initial.rho, traces)))
        got = TraceSolution.from_traces(any_model, initial, traces).admissible
        assert got == expected
        verdicts.add(got)
    assert verdicts == {True, False}


# -- trace solutions and balance ------------------------------------------------------


def test_from_traces_on_known_balanced_vector(quad):
    initial = RiemannState(T22, (3 / 4, 1 / 8, (8 + math.sqrt(34)) / 16, 1 / 10))
    traces = RiemannState(T22, (0.5, (1 + math.sqrt(35 / 48)) / 2,
                                (8 + math.sqrt(34)) / 16,
                                (1 - math.sqrt(19 / 96)) / 2))
    solution = TraceSolution.from_traces(quad, initial, traces)
    for got, want in zip(solution.gamma, (1.0, 13 / 48, 15 / 32, 77 / 96)):
        assert got == pytest.approx(want, abs=1e-12)
    assert solution.balanced
    assert solution.admissible
    assert check_flux_balance(solution)


def test_flux_balance_examples(quad):
    sigma = RiemannState(T22, (0.5, 0.5, 0.5, 0.5))
    assert check_flux_balance(TraceSolution.from_traces(quad, sigma, sigma))
    lopsided = RiemannState(T22, (0.5, 0.0, 1.0, 1.0))  # gamma = (1, 0, 0, 0)
    solution = TraceSolution.from_traces(quad, lopsided, lopsided)
    assert not solution.balanced
    assert not check_flux_balance(solution)


def test_flux_imbalance_sign_convention():
    assert flux_imbalance(NodeTopology(2, 1), (0.9, 0.3, 0.4)) == pytest.approx(0.8)
    assert flux_imbalance(T22, (0.2, 0.3, 0.1, 0.4)) == 0.0


def test_trace_solution_serialization(quad):
    sigma = RiemannState(T22, (0.5, 0.5, 0.5, 0.5))
    payload = TraceSolution.from_traces(quad, sigma, sigma).to_json()
    assert payload["n"] == 2 and payload["m"] == 2
    assert payload["gamma"] == [1.0, 1.0, 1.0, 1.0]
    assert payload["balanced"] is True
    assert payload["admissible"] is True


# -- equilibrium and consistency predicates -------------------------------------------


def test_is_equilibrium_examples(quad):
    one = RS1x1Solver(quad)
    assert is_equilibrium(one, RiemannState(NodeTopology(1, 1), (0.25, 0.25)))
    assert not is_equilibrium(one, RiemannState(NodeTopology(1, 1), (0.75, 0.25)))
    rs2 = RS2Solver(quad, ThetaWeights((1 / 2, 1 / 2), (5 / 12, 7 / 12)))
    fixed = RiemannState(T22, (1 / 4, 1 / 4, 1 / 2 - math.sqrt(3) / (4 * math.sqrt(2)),
                               1 / 2 - 1 / (4 * math.sqrt(2))))
    assert is_equilibrium(rs2, fixed)


def test_consistency_on_the_flux_maximizer_data(quad):
    rs1 = RS1Solver(quad, DistributionMatrix.from_rows([[1 / 3, 1 / 2],
                                                        [2 / 3, 1 / 2]]))
    data = RiemannState(T22, (3 / 4, 1 / 8, (8 + math.sqrt(34)) / 16, 1 / 10))
    assert check_consistency(rs1, data)


MATRIX_2X2 = DistributionMatrix.from_rows([[1 / 3, 1 / 2], [2 / 3, 1 / 2]])
MATRIX_2X3 = DistributionMatrix.from_rows(
    [[0.25, 0.2], [0.35, 0.45], [0.4, 0.35]])


def _solvers_for(topology: NodeTopology, quad):
    """Every solver applicable to the topology, with valid parameters."""
    found = [RS2Solver(quad, ThetaWeights.uniform(topology))]
    if topology.n == topology.m:
        found.append(RS3Solver(quad, ThetaWeights.uniform(topology),
                               CrossingCapacity(math.inf)))
    matrix = {(2, 2): MATRIX_2X2, (2, 3): MATRIX_2X3}.get(
        (topology.n, topology.m))
    if matrix is not None:
        assert matrix_in_n(matrix, topology)
        found.append(RS1Solver(quad, matrix))
    return found


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (2, 3), (3, 2)])
def test_quantified_consistency(n, m, quad):
    """Applying any solver to its own output reproduces that output, at scale."""
    topology = NodeTopology(n, m)
    rng = default_rng(20260815)
    states = [random_state(rng, topology) for _ in range(10_000)]
    for solver in _solvers_for(topology, quad):
        for state in states:
            first = solver(state)
            again = solver(first.state)
            assert max(abs(a - b) for a, b in
                       zip(first.state.rho, again.state.rho)) <= 1e-10
