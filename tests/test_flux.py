"""Flux models: evaluation, the mirror map, demand/supply, trace sets, inversion."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from junction_riemann import (
    DECREASING,
    INCREASING,
    DomainError,
    FluxInterval,
    FluxModel,
    InfeasibleFluxError,
    InputError,
    NodeTopology,
    RiemannState,
)
from oracles import bisect_flux_inverse, bits, invert_reference, tau_reference

densities = st.floats(0.0, 1.0, allow_nan=False)


# -- evaluation ---------------------------------------------------------------------


def test_quadratic_pinned_values(quad):
    assert quad(0.0) == 0.0
    assert quad(1.0) == 0.0
    assert quad(0.5) == 1.0
    assert quad(0.25) == 0.75


def test_quadratic_shape(quad):
    assert quad.sigma == 0.5
    assert quad.f_max == 1.0
    assert quad.max_wave_speed() == 4.0


def test_triangular_shape(tri):
    assert tri.sigma == 0.4
    assert tri.f_max == 0.9
    assert tri(0.4) == 0.9
    assert tri(0.2) == pytest.approx(0.45, abs=1e-15)
    assert tri(0.7) == pytest.approx(0.45, abs=1e-15)
    assert tri.max_wave_speed() == pytest.approx(0.9 / 0.4)


def test_tabulated_shape(tab):
    assert tab.sigma == 0.5
    assert tab.f_max == 1.0
    # exact at the sample nodes, linear in between
    assert tab(0.25) == pytest.approx(0.75, abs=1e-15)
    assert tab(0.275) == pytest.approx((tab(0.25) + tab(0.3)) / 2, abs=1e-12)


def test_array_evaluation_matches_scalar(any_model):
    rho = np.linspace(0.0, 1.0, 17)
    values = any_model(rho)
    assert values.shape == rho.shape
    for r, v in zip(rho, values):
        assert v == pytest.approx(any_model(float(r)), abs=1e-15)


def _random_unimodal_table(rng):
    """Samples of a strictly unimodal flux on a random grid with a random peak."""
    k = int(rng.integers(3, 30))
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, k - 2)), [1.0]])
    peak = int(rng.integers(1, k - 1))
    up = np.cumsum(rng.uniform(0.01, 1.0, peak))
    down = up[-1] - np.cumsum(rng.uniform(0.01, 1.0, k - 1 - peak))
    down = (down - down[-1]) * up[-1] / (up[-1] - down[-1])
    ys = np.concatenate([[0.0], up, down[:-1], [0.0]])
    return FluxModel.tabulated(xs, ys)


def _with_neighbours(points):
    """Each point and the floats one ulp either side of it."""
    return [q for p in points
            for q in (np.nextafter(p, -np.inf), p, np.nextafter(p, np.inf))]


def test_tabulated_scalar_path_equals_np_interp():
    # the scalar path's one-point interpolation does np.interp's arithmetic exactly
    rng = np.random.default_rng(20260918)
    for _ in range(40):
        model = _random_unimodal_table(rng)
        xs, ys = model.params["rho"], model.params["flux"]
        peak = model.params["peak"]
        densities = _with_neighbours(list(xs) + [0.0, 1.0, model.sigma]) \
            + list(rng.uniform(0.0, 1.0, 20))
        for rho in densities:
            expected = float(np.interp(float(rho), xs, ys))
            assert model._value(float(rho)) == expected
            if 0.0 <= rho <= 1.0:
                assert model.value(float(rho)) == expected
                mirrored = DECREASING if rho <= model.sigma else INCREASING
                assert model.tau(float(rho)) == model.invert(expected, mirrored)
        fluxes = _with_neighbours(list(ys) + [0.0, model.f_max]) \
            + list(rng.uniform(0.0, model.f_max, 20))
        for gamma in fluxes:
            g = min(max(float(gamma), 0.0), model.f_max)
            up = float(np.interp(g, np.array(ys[:peak + 1]), np.array(xs[:peak + 1])))
            down = float(np.interp(g, np.array(ys[peak:][::-1]),
                                   np.array(xs[peak:][::-1])))
            s = model.sigma
            assert model.invert(float(gamma), INCREASING) == min(max(up, 0.0), s)
            assert model.invert(float(gamma), DECREASING) == min(max(down, s), 1.0)


@pytest.mark.parametrize("x", [0, 1, np.float32(0.3), np.float64(0.3), np.int64(0),
                               np.array(0.3)], ids=repr)
def test_scalar_value_keeps_its_type_and_value(any_model, x):
    got = any_model.value(x)
    if isinstance(x, np.ndarray):  # the domain clip turns a 0-d array into a float64
        x = x[()]
    if any_model.kind == "tabulated":
        expected = float(np.interp(float(x), any_model.params["rho"],
                                   any_model.params["flux"]))
    elif any_model.kind == "quadratic":
        expected = any_model.params["coefficient"] * x * (1.0 - x)
    else:
        s, fm = any_model.sigma, any_model.f_max
        expected = fm * x / s if x <= s else fm * (1.0 - x) / (1.0 - s)
    assert type(got) is type(expected)
    assert got == expected


def test_out_of_range_density_rejected(quad):
    with pytest.raises(DomainError):
        quad(-0.1)
    with pytest.raises(DomainError):
        quad(1.1)
    with pytest.raises(DomainError):
        quad(np.array([0.2, 1.2]))
    with pytest.raises(DomainError):
        quad.tau(1.5)
    with pytest.raises(DomainError):
        quad.tau(math.nan)
    with pytest.raises(DomainError):
        quad.contains_trace_in(0.5, math.nan)


def test_tiny_excursions_are_clamped(quad):
    lo, hi = -1e-13, 1.0 + 1e-13
    assert quad(hi) == 0.0
    assert quad(lo) == 0.0
    # past the in-range early return of the density check, every method clamps
    assert quad.tau(lo) == 1.0 and quad.tau(hi) == 0.0
    assert quad.demand(lo).sup == 0.0 and quad.demand(hi).sup == quad.f_max
    assert quad.supply(lo).sup == quad.f_max and quad.supply(hi).sup == 0.0
    for contains in (quad.contains_trace_in, quad.contains_trace_out):
        assert contains(lo, 0.0) and contains(0.0, lo)
        assert contains(hi, 1.0) and contains(1.0, hi)
    assert not quad.contains_trace_in(lo, hi) and quad.contains_trace_in(hi, 0.5)
    assert not quad.contains_trace_out(hi, lo) and quad.contains_trace_out(lo, 0.5)
    state = RiemannState(NodeTopology(1, 1), (lo, hi))
    assert state.rho == (0.0, 1.0)
    assert all(type(r) is float for r in state.rho)


# -- the mirror map tau -------------------------------------------------------------


def test_tau_pinned_values(quad):
    assert quad.tau(0.25) == 0.75
    assert quad.tau(0.5) == 0.5
    assert quad.tau(0.2) == pytest.approx(0.8, abs=1e-15)


def test_tau_triangular(tri):
    assert tri.tau(0.4) == pytest.approx(0.4, abs=1e-15)
    assert tri(tri.tau(0.2)) == pytest.approx(tri(0.2), abs=1e-15)


@pytest.mark.parametrize("kind", ["quad", "tri", "tab"])
def test_tau_round_trips_on_grid(kind, request):
    model = request.getfixturevalue(kind)
    for rho in np.linspace(0.0, 1.0, 101):
        rho = float(rho)
        assert model(model.tau(rho)) == pytest.approx(model(rho), abs=1e-12)
        assert model.tau(model.tau(rho)) == pytest.approx(rho, abs=1e-10)


@given(rho=densities)
def test_tau_involution_quadratic(rho):
    model = FluxModel.quadratic()
    assert model(model.tau(rho)) == pytest.approx(model(rho), abs=1e-12)
    assert model.tau(model.tau(rho)) == pytest.approx(rho, abs=1e-10)


@given(rho=densities)
def test_tau_moves_everything_but_sigma(rho):
    model = FluxModel.quadratic()
    assume(abs(rho - model.sigma) > 1e-9)
    assert model.tau(rho) != pytest.approx(rho, abs=1e-10)


# -- demand and supply --------------------------------------------------------------


def test_demand_pinned_intervals(quad):
    assert quad.demand(0.75).sup == 1.0
    assert quad.demand(0.125).sup == pytest.approx(7 / 16, abs=1e-15)
    assert quad.demand(0.5).sup == 1.0
    assert quad.demand(0.0).sup == 0.0


def test_supply_pinned_intervals(quad):
    rho3 = (8 + math.sqrt(34)) / 16
    assert quad.supply(rho3).sup == pytest.approx(15 / 32, abs=1e-12)
    assert quad.supply(0.1).sup == 1.0
    assert quad.supply(0.5).sup == 1.0
    assert quad.supply(1.0).sup == 0.0


def test_interval_membership():
    box = FluxInterval(7 / 16)
    assert box.contains(0.0)
    assert box.contains(7 / 16)
    assert box.contains(7 / 16 + 1e-10)
    assert not box.contains(7 / 16 + 1e-6)
    assert not box.contains(-1e-6)


def test_demand_monotone_supply_mirrored(any_model):
    grid = np.linspace(0.0, 1.0, 201)
    demands = [any_model.demand(float(r)).sup for r in grid]
    supplies = [any_model.supply(float(r)).sup for r in grid]
    assert all(b >= a - 1e-12 for a, b in zip(demands, demands[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(supplies, supplies[1:]))
    for r, d, s in zip(grid, demands, supplies):
        if r >= any_model.sigma:
            assert d == any_model.f_max
        if r <= any_model.sigma:
            assert s == any_model.f_max


# -- trace sets ---------------------------------------------------------------------


def test_incoming_trace_set_pinned(quad):
    assert quad.contains_trace_in(0.25, 0.25)
    assert not quad.contains_trace_in(0.25, 0.75)
    assert quad.contains_trace_in(0.25, 0.75 + 1e-9)
    assert quad.contains_trace_in(0.75, 0.5)
    assert not quad.contains_trace_in(0.75, 0.49)
    assert quad.contains_trace_in(0.75, 1.0)


def test_outgoing_trace_set_pinned(quad):
    assert quad.contains_trace_out(0.75, 0.75)
    assert not quad.contains_trace_out(0.75, 0.25)
    assert quad.contains_trace_out(0.75, 0.25 - 1e-9)
    assert quad.contains_trace_out(0.25, 0.5)
    assert not quad.contains_trace_out(0.25, 0.51)
    assert quad.contains_trace_out(0.25, 0.0)


def test_trace_set_boundary_epsilon(quad):
    # the half-open boundary tau(rho0) stays excluded within eps ...
    assert not quad.contains_trace_in(0.25, 0.75 + 5e-13)
    # ... while the kept-datum atom is robust to the same wiggle
    assert quad.contains_trace_in(0.25, 0.25 + 5e-13)
    assert quad.contains_trace_out(0.75, 0.75 - 5e-13)


@given(rho0=densities, rho=densities)
def test_datum_always_in_its_own_trace_set(rho0, rho):
    model = FluxModel.quadratic()
    assert model.contains_trace_in(rho0, rho0)
    assert model.contains_trace_out(rho0, rho0)
    # membership is decidable for every pair without error
    model.contains_trace_in(rho0, rho)
    model.contains_trace_out(rho0, rho)


# -- branch inversion ---------------------------------------------------------------


def test_invert_pinned_values(quad):
    assert quad.invert(1.0, INCREASING) == 0.5
    assert quad.invert(1.0, DECREASING) == 0.5
    assert quad.invert(0.75, INCREASING) == pytest.approx(0.25, abs=1e-12)
    assert quad.invert(13 / 48, DECREASING) == pytest.approx(
        (1 + math.sqrt(35 / 48)) / 2, abs=1e-12)
    assert quad.invert(77 / 96, INCREASING) == pytest.approx(
        (1 - math.sqrt(19 / 96)) / 2, abs=1e-12)


def test_invert_rejects_infeasible_flux(quad):
    with pytest.raises(InfeasibleFluxError):
        quad.invert(1.0 + 1e-6, INCREASING)
    with pytest.raises(InfeasibleFluxError):
        quad.invert(-0.5, DECREASING)
    with pytest.raises(InputError):
        quad.invert(0.5, "sideways")


def test_invert_matches_bisection_oracle(any_model):
    for gamma in np.linspace(0.0, any_model.f_max, 23):
        gamma = float(gamma)
        for branch in (INCREASING, DECREASING):
            got = any_model.invert(gamma, branch)
            want = bisect_flux_inverse(any_model, gamma, branch)
            # near the peak the flux is flat to machine precision, so two exact
            # roots can sit a few 1e-9 apart in density; accept either agreement
            same_density = abs(got - want) <= 1e-10
            both_roots = (abs(any_model(got) - gamma) <= 1e-12
                          and abs(any_model(want) - gamma) <= 1e-12)
            assert same_density or both_roots
            assert any_model(got) == pytest.approx(gamma, abs=1e-9)


@given(rho=densities)
def test_invert_after_eval_is_identity(rho):
    model = FluxModel.quadratic()
    assume(abs(rho - model.sigma) > 1e-6)
    branch = INCREASING if rho < model.sigma else DECREASING
    assert model.invert(model(rho), branch) == pytest.approx(rho, abs=1e-10)


def test_invert_lands_on_requested_branch(any_model):
    for gamma in np.linspace(0.0, any_model.f_max, 23):
        assert any_model.invert(float(gamma), INCREASING) <= any_model.sigma
        assert any_model.invert(float(gamma), DECREASING) >= any_model.sigma


#: a tabulated flux whose peak is off centre and whose branches differ in length.
SKEWED_TAB = FluxModel.tabulated([0.0, 0.1, 0.3, 0.35, 0.6, 0.8, 1.0],
                                 [0.0, 0.2, 0.5, 0.7, 0.4, 0.3, 0.0])


def test_invert_and_tau_are_bit_identical_to_the_plain_reference(any_model):
    for model in (any_model, SKEWED_TAB):
        fm, s = model.f_max, model.sigma
        gammas = np.linspace(-1e-10, fm + 1e-10, 401).tolist() + [
            -0.0, 0.0, fm, math.nextafter(fm, 0.0), -1e-9, fm + 1e-9,
            *model.params.get("flux", ())]
        for gamma in gammas:
            for branch in (INCREASING, DECREASING):
                assert bits(model.invert(gamma, branch)) == \
                    bits(invert_reference(model, gamma, branch))
                assert bits(model.invert(np.float64(gamma), branch)) == \
                    bits(invert_reference(model, np.float64(gamma), branch))
        rhos = np.linspace(0.0, 1.0, 401).tolist() + [
            -0.0, 1e-13, -1e-13, 1.0 - 1e-13, 1.0 + 1e-13, s,
            *model.params.get("rho", ())]
        for rho in rhos:
            assert bits(model.tau(rho)) == bits(tau_reference(model, rho))


def test_tabulated_branch_tables_stay_out_of_json(tab):
    assert FluxModel.from_json(tab.to_json()) == tab
    assert set(tab.to_json()["params"]) == {"rho", "flux"}


# -- construction and serialization ---------------------------------------------------


def test_tabulated_validation():
    with pytest.raises(InputError):
        FluxModel.tabulated([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(InputError):
        FluxModel.tabulated([0.0, 0.5, 0.9], [0.0, 1.0, 0.0])
    with pytest.raises(InputError):
        FluxModel.tabulated([0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 1.0, 0.0])
    with pytest.raises(InputError):
        FluxModel.tabulated([0.0, 0.5, 1.0], [0.1, 1.0, 0.0])
    with pytest.raises(InputError):
        # dips below the running maximum on the way up: not unimodal
        FluxModel.tabulated([0.0, 0.2, 0.4, 0.6, 1.0], [0.0, 0.5, 0.3, 0.8, 0.0])


def test_quadratic_validation():
    with pytest.raises(InputError):
        FluxModel.quadratic(0.0)
    with pytest.raises(InputError):
        FluxModel.triangular(sigma=1.0)
    with pytest.raises(InputError):
        FluxModel.triangular(f_max=-1.0)


def test_csv_round_trip(tmp_path, tab):
    path = tmp_path / "flux.csv"
    rows = ["rho,flux"] + [
        f"{r},{f}" for r, f in zip(tab.params["rho"], tab.params["flux"])]
    path.write_text("\n".join(rows) + "\n")
    again = FluxModel.tabulated_from_csv(path)
    for rho in np.linspace(0.0, 1.0, 31):
        assert again(float(rho)) == tab(float(rho))


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "flux.csv"
    path.write_text("density,flow\n0,0\n0.5,1\n1,0\n")
    with pytest.raises(InputError):
        FluxModel.tabulated_from_csv(path)


def test_json_round_trip(any_model):
    again = FluxModel.from_json(any_model.to_json())
    assert again.sigma == any_model.sigma
    assert again.f_max == any_model.f_max
    for rho in np.linspace(0.0, 1.0, 31):
        assert again(float(rho)) == any_model(float(rho))


def test_json_defaults_and_errors():
    assert FluxModel.from_json(None).f_max == 1.0
    assert FluxModel.from_json({"kind": "quadratic"}).sigma == 0.5
    with pytest.raises(InputError):
        FluxModel.from_json({"kind": "cubic"})
    with pytest.raises(InputError):
        FluxModel.from_json({"kind": "quadratic", "params": 3})
    with pytest.raises(InputError):
        FluxModel.from_json({"kind": "tabulated", "params": {}})
    with pytest.raises(InputError):
        FluxModel.from_json("quadratic")
