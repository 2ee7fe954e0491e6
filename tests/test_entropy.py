"""Entropy functional, (E1)/(E2) checkers, 2x2 classification, face machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest

from junction_riemann import (
    DECREASING,
    INCREASING,
    DistributionMatrix,
    DomainError,
    FaceMismatchError,
    InputError,
    NodeTopology,
    RS2Solver,
    RiemannState,
    ThetaWeights,
    TopologyError,
    UnbalancedStateError,
    check_E1,
    check_E2,
    classify_2x2,
    default_rng,
    entropy_candidates,
    entropy_flux,
    face_active_set,
    face_entropy_closed_form,
    face_objective_equivalence,
    matrix_in_n,
    random_balanced_state,
    random_state,
    restricted_entropy_g,
    rs1_solve,
    trace_in_from_flux,
    trace_out_from_flux,
)
from junction_riemann.entropy import CLASSIFY_EQ_TOL, ENTROPY_TOL, SIGMA_TIE
from junction_riemann.sampling import random_fluxes_with_sum
from oracles import (bits, check_E1_reference, classify_2x2_reference,
                     entropy_flux_grid, entropy_flux_reference)

SQ = math.sqrt
T22 = NodeTopology(2, 2)

RS1_DATA = RiemannState(T22, (3 / 4, 1 / 8, (8 + SQ(34)) / 16, 1 / 10))
RS1_TRACES = RiemannState(T22, (0.5, (1 + SQ(35 / 48)) / 2, (8 + SQ(34)) / 16,
                                (1 - SQ(19 / 96)) / 2))
RS1_MATRIX = DistributionMatrix.from_rows([[1 / 3, 1 / 2], [2 / 3, 1 / 2]])
RS2_TRACES = RiemannState(T22, (1 / 4, 1 / 4, 1 / 2 - SQ(3) / (4 * SQ(2)),
                                1 / 2 - 1 / (4 * SQ(2))))
RS3_1_TRACES = RiemannState(T22, (1 / 5, 1 / 2 + SQ(59 / 3) / 10, 4 / 5,
                                  1 / 2 - SQ(59 / 3) / 10))
RS3_2_TRACES = RiemannState(T22, (1 / 2 + SQ(1 / 2) / 2, 1 / 2 + SQ(1 / 3) / 2,
                                  1 / 2 + SQ(1 / 2) / 2, 1 / 2 - SQ(1 / 3) / 2))
SIGMA4 = RiemannState(T22, (0.5, 0.5, 0.5, 0.5))
FOUR_BAD = RiemannState(T22, (0.2, 0.3, 0.7, 0.8))


# -- the entropy-flux functional ------------------------------------------------------


def test_entropy_flux_pinned_values(quad):
    assert entropy_flux(quad, RS2_TRACES, 0.25) == pytest.approx(-0.25, abs=1e-12)
    assert entropy_flux(quad, RS3_1_TRACES, 0.5) == pytest.approx(-64 / 75, abs=1e-10)
    assert entropy_flux(quad, SIGMA4, 0.37) == 0.0


def test_entropy_flux_vanishes_at_end_densities(quad):
    for state in (RS1_TRACES, RS2_TRACES, RS3_1_TRACES, FOUR_BAD):
        assert entropy_flux(quad, state, 0.0) == pytest.approx(0.0, abs=1e-10)
        assert entropy_flux(quad, state, 1.0) == pytest.approx(0.0, abs=1e-10)


def test_entropy_flux_checks_k_domain(quad):
    with pytest.raises(DomainError):
        entropy_flux(quad, SIGMA4, 1.5)


def test_candidate_set(quad):
    ks = [k for k, _ in entropy_candidates(quad, FOUR_BAD)]
    assert ks == sorted(set((0.0, 1.0, 0.5) + FOUR_BAD.rho))


# -- (E2) -----------------------------------------------------------------------------


def test_check_E2_pinned(quad):
    report = check_E2(quad, RS1_TRACES)
    assert report.value_at_sigma == pytest.approx(-19 / 48, abs=1e-10)
    assert not report.satisfied_E2

    report = check_E2(quad, SIGMA4)
    assert report.value_at_sigma == 0.0
    assert report.satisfied_E2

    report = check_E2(quad, RS3_2_TRACES)
    assert report.value_at_sigma == pytest.approx(-2 / 3, abs=1e-10)
    assert not report.satisfied_E2


def test_check_E2_requires_balance(quad):
    with pytest.raises(UnbalancedStateError):
        check_E2(quad, RiemannState(T22, (0.5, 0.0, 1.0, 1.0)))


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 3)])
def test_E2_value_is_fixed_on_one_sided_states_when_n_differs_from_m(any_model, n, m):
    """All traces at or below sigma give F(rho, sigma) = (n - m) f_max, all at or
    above give (m - n) f_max, for every balanced state; so for n != m one of the two
    one-sided families violates (E2) whatever the solver, rs2 included."""
    topo = NodeTopology(n, m)
    fm = any_model.f_max
    rng = default_rng(4400 + 10 * n + m)
    for _ in range(40):
        g_in = rng.uniform(0.0, fm, n) * min(1.0, m / n)
        g_out = random_fluxes_with_sum(rng, m, float(g_in.sum()), fm)
        for branch, sign in (("increasing", 1.0), ("decreasing", -1.0)):
            rho = [any_model.invert(float(g), branch) for g in list(g_in) + g_out]
            value = check_E2(any_model, RiemannState(topo, tuple(rho))).value_at_sigma
            assert value == pytest.approx(sign * (n - m) * fm, abs=1e-9)
    solver = RS2Solver(any_model, ThetaWeights.uniform(topo))
    side = 0.5 * any_model.sigma if n < m else 0.5 * (1.0 + any_model.sigma)
    out = solver(RiemannState(topo, (side,) * topo.total))
    report = check_E2(any_model, out.state)
    assert report.value_at_sigma == pytest.approx(-abs(n - m) * fm, abs=1e-9)
    assert not report.satisfied_E2


# -- (E1) -----------------------------------------------------------------------------


def test_check_E1_at_the_all_sigma_state(quad):
    report = check_E1(quad, SIGMA4)
    assert report.min_value == pytest.approx(0.0, abs=1e-12)
    assert report.satisfied_E1
    assert report.satisfied_E2


def test_check_E1_finds_the_quarter_witness(quad):
    report = check_E1(quad, RS2_TRACES)
    assert not report.satisfied_E1
    assert report.min_value == pytest.approx(-0.25, abs=1e-12)
    assert report.argmin_k == pytest.approx(0.25, abs=1e-12)
    # (E2) still holds there: the functional vanishes at k = sigma
    assert report.value_at_sigma == pytest.approx(0.0, abs=1e-12)
    assert report.satisfied_E2


def test_check_E1_on_four_bad_data(quad):
    report = check_E1(quad, FOUR_BAD)
    assert report.satisfied_E1
    mins, _ = entropy_flux_grid(quad, 2, np.array([FOUR_BAD.rho]))
    assert report.min_value == pytest.approx(float(mins[0]), abs=1e-8)


def test_check_E1_requires_balance(quad):
    with pytest.raises(UnbalancedStateError):
        check_E1(quad, RiemannState(T22, (0.5, 0.0, 1.0, 1.0)))


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3)])
def test_check_E1_is_bit_identical_to_entropy_flux(any_model, n, m):
    topo = NodeTopology(n, m)
    solver = RS2Solver(any_model, ThetaWeights.uniform(topo))
    rng = default_rng(5100 + 10 * n + m)
    for _ in range(40):
        state = solver(random_state(rng, topo)).state
        report = check_E1(any_model, state)
        assert [k for k, _ in report.candidates] == \
            sorted({0.0, 1.0, any_model.sigma, *state.rho})
        for k, value in report.candidates:
            assert value == entropy_flux(any_model, state, k)
            assert value == entropy_flux_reference(any_model, state, k)
        assert report.value_at_sigma == entropy_flux(any_model, state, any_model.sigma)
        assert check_E2(any_model, state).value_at_sigma == report.value_at_sigma
        assert (report.argmin_k, report.min_value) == \
            min(report.candidates, key=lambda kv: kv[1])


#: densities whose flux is below 1e-12 (or 0), so any mix of them balances.
NEAR_EMPTY_OR_JAMMED = (0.0, -0.0, 1.0, 1e-13, -1e-13, 1.0 - 1e-13)


def _verdict_panel(model, topo, rng):
    """Balanced states: random ones, ones with one density on each whole side (ties
    within a side), and ones with every arc near empty or jammed, or at sigma in
    (incoming, outgoing) pairs."""
    n, m = topo.n, topo.m
    branch = (INCREASING, DECREASING)
    states = [random_balanced_state(rng, model, topo) for _ in range(25)]
    for _ in range(10):
        g = float(rng.uniform(0.0, model.f_max * min(1.0, m / n)))
        a = model.invert(g, branch[rng.integers(2)])
        b = model.invert(n * g / m, branch[rng.integers(2)])
        states.append(RiemannState(topo, (a,) * n + (b,) * m))
    for _ in range(15):
        rho = [NEAR_EMPTY_OR_JAMMED[i]
               for i in rng.integers(len(NEAR_EMPTY_OR_JAMMED), size=n + m)]
        for i in range(int(rng.integers(min(n, m) + 1))):
            rho[i] = rho[n + i] = model.sigma
        states.append(RiemannState(topo, tuple(rho)))
    return states


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2),
                                 (3, 3), (4, 5)])
def test_verdicts_are_bit_identical_to_the_plain_reference(any_model, n, m):
    topo = NodeTopology(n, m)
    rng = default_rng(7300 + 10 * n + m)
    for state in _verdict_panel(any_model, topo, rng):
        for tol in (ENTROPY_TOL, 0.0, 0.3):
            report = check_E1(any_model, state, tol)
            got = (report.candidates, report.min_value, report.argmin_k,
                   report.satisfied_E1, report.value_at_sigma, report.satisfied_E2)
            assert bits(got) == bits(check_E1_reference(any_model, state, tol))
        assert bits(entropy_candidates(any_model, state)) == bits(report.candidates)
        if (n, m) == (2, 2):
            for eq_tol in (CLASSIFY_EQ_TOL, 0.0, 1e-6, 0.3):
                v = classify_2x2(any_model, state, eq_tol)
                want = classify_2x2_reference(any_model, state, eq_tol, SIGMA_TIE)
                assert bits((v.bad_count, v.permutation, v.row, v.admissible)) == \
                    bits(want)


@pytest.mark.parametrize("tol", [math.nan, -1e-12, -1.0, math.inf, -math.inf])
def test_meaningless_tolerances_are_rejected(quad, tol):
    state = RiemannState(T22, (0.2, 0.2, 0.8, 0.8))
    with pytest.raises(InputError):
        check_E1(quad, state, tol)
    with pytest.raises(InputError):
        classify_2x2(quad, state, tol)
    assert check_E1(quad, state).satisfied_E1
    assert classify_2x2(quad, state, 0.0).permutation == (0, 1, 2, 3)


def test_unbalanced_states_raise_from_every_check(any_model):
    state = RiemannState(T22, (0.2, 0.3, any_model.sigma, any_model.sigma))
    for check in (check_E1, check_E2, classify_2x2):
        with pytest.raises(UnbalancedStateError):
            check(any_model, state)


def test_report_serialization(quad):
    payload = check_E1(quad, RS2_TRACES).to_json()
    assert payload["satisfied_E1"] is False
    assert payload["satisfied_E2"] is True
    assert payload["min_value"] == pytest.approx(-0.25, abs=1e-12)
    assert len(payload["candidates"]) >= 5


def test_candidate_minimum_matches_dense_grid(quad):
    rng = default_rng(321)
    states = [random_balanced_state(rng, quad, T22) for _ in range(300)]
    mins, _ = entropy_flux_grid(quad, 2, np.array([s.rho for s in states]))
    for state, grid_min in zip(states, mins):
        assert check_E1(quad, state).min_value == pytest.approx(
            float(grid_min), abs=1e-8)


def test_E1_implies_E2_on_samples(quad):
    rng = default_rng(7)
    for _ in range(500):
        report = check_E1(quad, random_balanced_state(rng, quad, T22))
        if report.satisfied_E1:
            assert report.satisfied_E2


def test_unequal_arc_counts_never_satisfy_E1(quad):
    rng = default_rng(99)
    two_in = RS2Solver(quad, ThetaWeights((0.5, 0.5), (1.0,)))
    for _ in range(200):
        state = random_state(rng, NodeTopology(2, 1))
        if min(state.incoming) == 0.0:
            continue
        assert not check_E1(quad, two_in(state).state).satisfied_E1
    two_out = RS2Solver(quad, ThetaWeights((1.0,), (0.5, 0.5)))
    for _ in range(200):
        state = random_state(rng, NodeTopology(1, 2))
        if max(state.outgoing) == 1.0:
            continue
        assert not check_E1(quad, two_out(state).state).satisfied_E1


# -- 2x2 classification ----------------------------------------------------------------


def test_classify_pinned_rows(quad):
    verdict = classify_2x2(quad, SIGMA4)
    assert (verdict.bad_count, verdict.row, verdict.admissible) == (0, "0-bad", True)

    verdict = classify_2x2(quad, RiemannState(T22, (0.75, 0.75, 0.25, 0.25)))
    assert verdict.bad_count == 0
    assert not verdict.admissible

    verdict = classify_2x2(quad, FOUR_BAD)
    assert (verdict.bad_count, verdict.row, verdict.admissible) == (4, "4-bad", True)


def test_classify_records_the_sorting_permutation(quad):
    assert classify_2x2(quad, SIGMA4).permutation == (0, 1, 2, 3)
    verdict = classify_2x2(quad, RS3_1_TRACES)
    assert verdict.permutation == (0, 1, 3, 2)
    assert verdict.bad_count == 2
    assert not verdict.admissible


def test_classify_preconditions(quad):
    with pytest.raises(TopologyError):
        classify_2x2(quad, RiemannState(NodeTopology(1, 1), (0.5, 0.5)))
    with pytest.raises(UnbalancedStateError):
        classify_2x2(quad, RiemannState(T22, (0.5, 0.5, 1.0, 1.0)))


def test_classify_agrees_with_check_E1_on_samples(quad):
    rng = default_rng(2024)
    for _ in range(1000):
        state = random_balanced_state(rng, quad, T22)
        verdict = classify_2x2(quad, state)
        report = check_E1(quad, state)
        assert verdict.admissible == report.satisfied_E1


def test_classify_agrees_with_check_E1_on_rs1_outputs(quad):
    # rs1 often puts a trace at the flux peak; it must land on sigma itself, since an
    # inversion one ulp below f_max is off by about 5e-9, beyond the 1e-10 eq window
    rng = default_rng(5)
    mismatches = []
    for _ in range(3000):
        while True:
            a = rng.uniform(0.1, 1.0, (2, 2))
            matrix = DistributionMatrix.from_rows(a / a.sum(axis=0))
            if matrix_in_n(matrix, T22):
                break
        state = rs1_solve(quad, matrix, random_state(rng, T22)).state
        report = check_E1(quad, state)
        if abs(report.min_value + ENTROPY_TOL) <= 1e-11:
            continue  # on the E1 threshold itself either verdict is fair
        if classify_2x2(quad, state).admissible != report.satisfied_E1:
            mismatches.append(state.rho)
    assert mismatches == []


def test_classification_serialization(quad):
    payload = classify_2x2(quad, SIGMA4).to_json()
    assert payload == {"bad_count": 0, "permutation": [0, 1, 2, 3],
                       "row": "0-bad", "admissible": True}


# -- restricted entropy on faces --------------------------------------------------------


def test_closed_form_pinned_values(quad):
    assert face_entropy_closed_form(quad, SIGMA4, frozenset()) == 0.0
    got = face_entropy_closed_form(quad, RS1_TRACES, {0})
    assert got == pytest.approx(-35 / 24, abs=1e-10)


def test_active_set_of_the_flux_maximizer(quad):
    gamma = (1.0, 13 / 48, 15 / 32, 77 / 96)
    assert face_active_set(quad, RS1_DATA, gamma) == frozenset({0, 2})


def test_restricted_entropy_rejects_wrong_faces(quad):
    # arc 2 sits at its supply cap, so the point is not on the face of {0} alone
    with pytest.raises(FaceMismatchError):
        restricted_entropy_g(quad, RS1_DATA, RS1_TRACES, {0})
    # the true active set is too large for a face (at most n-1 = 1 arcs)
    with pytest.raises(FaceMismatchError):
        restricted_entropy_g(quad, RS1_DATA, RS1_TRACES, {0, 2})
    with pytest.raises(FaceMismatchError):
        restricted_entropy_g(quad, RS1_DATA, RS1_TRACES, {9})


def _face_traces(quad, initial, gamma):
    """Trace vector reconstructed from a sampled full flux vector."""
    n = initial.topology.n
    rho = [trace_in_from_flux(quad, initial.rho[l], float(g)) if l < n
           else trace_out_from_flux(quad, initial.rho[l], float(g))
           for l, g in enumerate(gamma)]
    return RiemannState(initial.topology, tuple(rho))


@pytest.mark.parametrize("active", [frozenset(), frozenset({1}), frozenset({2})])
def test_closed_form_agrees_with_direct_on_sampled_faces(quad, active):
    report = face_objective_equivalence(quad, RS1_DATA, RS1_MATRIX, active,
                                        samples=50, rng=default_rng(5))
    assert report.face_nonempty
    for gamma in report.gammas:
        traces = _face_traces(quad, RS1_DATA, gamma)
        value = restricted_entropy_g(quad, RS1_DATA, traces, active)
        assert value.closed_form == pytest.approx(value.direct, abs=1e-10)
        assert value.direct == pytest.approx(
            entropy_flux(quad, traces, quad.sigma), abs=1e-12)


# -- face objective equivalence ----------------------------------------------------------


@pytest.mark.parametrize("active", [frozenset(), frozenset({0}), frozenset({1}),
                                    frozenset({2})])
def test_objective_equivalence_is_constant_per_face(quad, active):
    report = face_objective_equivalence(quad, RS1_DATA, RS1_MATRIX, active,
                                        samples=100, rng=default_rng(11))
    assert report.face_nonempty
    assert len(report.values) == 100
    assert report.constant
    assert report.spread <= 1e-9


@pytest.mark.parametrize("samples", [0, -3, True, 2.0, "5"])
def test_objective_equivalence_refuses_a_sample_count_below_1(quad, samples):
    datum = RiemannState(T22, (0.3, 0.8, 0.6, 0.1))
    with pytest.raises(InputError, match="samples must be an integer"):
        face_objective_equivalence(quad, datum, RS1_MATRIX, [], samples=samples)


def test_objective_equivalence_accepts_a_numpy_sample_count(quad):
    datum = RiemannState(T22, (0.3, 0.8, 0.6, 0.1))
    report = face_objective_equivalence(quad, datum, RS1_MATRIX, [],
                                        samples=np.int64(3), rng=default_rng(7))
    assert report.face_nonempty and len(report.values) == 3


def test_objective_equivalence_rejects_full_cardinality(quad):
    with pytest.raises(FaceMismatchError):
        face_objective_equivalence(quad, RS1_DATA, RS1_MATRIX, {0, 1})


def test_objective_equivalence_reports_empty_face(quad):
    # arc 3 can never reach its supply cap of 1 under these demand caps
    report = face_objective_equivalence(quad, RS1_DATA, RS1_MATRIX, {3},
                                        samples=10, rng=default_rng(3))
    assert not report.face_nonempty
    assert report.values == ()
