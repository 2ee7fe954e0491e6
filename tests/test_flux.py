"""Flux models: evaluation, the mirror map, demand/supply, trace sets, inversion."""

from __future__ import annotations

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from junction_riemann import (
    DECREASING,
    INCREASING,
    CrossingCapacity,
    DomainError,
    FluxInterval,
    FluxModel,
    InadmissibleFluxError,
    InfeasibleFluxError,
    DistributionMatrix,
    InputError,
    NodeTopology,
    RiemannState,
    ThetaWeights,
    TopologyError,
    entropy_flux,
    face_objective_equivalence,
    make_grids,
    solver_from_config,
)
from junction_riemann.cli import eval_expr
from oracles import (bisect_flux_inverse, bits, invert_reference, tau_reference,
                     value_reference)

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


def test_scalar_kernel_is_bit_identical_to_the_plain_reference(any_model):
    for model in (any_model, SKEWED_TAB):
        rng = np.random.default_rng(2111)
        rhos = [0.0, -0.0, 1.0, model.sigma, *model.params.get("rho", ()),
                *rng.uniform(0.0, 1.0, 200).tolist()]
        for rho in rhos:
            want = bits(value_reference(model, rho))
            assert bits(model._scalar(rho)) == want
            assert bits(model._value(rho)) == want
            assert bits(model.value(rho)) == want


def test_scalar_kernel_is_built_once_and_stays_out_of_equality_and_hash():
    first, second = FluxModel.triangular(0.3, 0.8), FluxModel.triangular(0.3, 0.8)
    before = hash(first)
    kernel = first._scalar
    assert first._scalar is kernel and "_scalar" not in vars(second)
    assert first == second and hash(first) == hash(second) == before


def test_models_pickle_and_copy_after_building_their_scalar_kernel(any_model):
    any_model._scalar(0.25)
    for twin in (pickle.loads(pickle.dumps(any_model)), copy.deepcopy(any_model)):
        assert twin == any_model and "_scalar" not in vars(twin)
        assert bits(twin._scalar(0.3)) == bits(any_model._scalar(0.3))


def test_models_hash_and_serve_as_dict_keys(quad, tri, tab):
    table = {quad: "quad", tri: "tri", tab: "tab"}
    for model, name in table.items():
        twin = FluxModel.from_json(model.to_json())
        assert twin == model and hash(twin) == hash(model) and table[twin] == name
    assert len(table) == 3 and FluxModel.quadratic(2.0) not in table


@pytest.mark.parametrize("bad", [math.nan, -0.1, 1.1])
def test_checked_methods_still_reject_bad_input(any_model, bad):
    with pytest.raises(InfeasibleFluxError):
        any_model.invert(any_model.f_max * bad, INCREASING)
    with pytest.raises(DomainError):
        any_model.tau(bad)
    for contains in (any_model.contains_trace_in, any_model.contains_trace_out):
        with pytest.raises(DomainError):
            contains(bad, 0.5)
        with pytest.raises(DomainError):
            contains(0.5, bad)
    with pytest.raises(InputError):
        any_model.invert(0.5 * any_model.f_max, "flat")


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


@pytest.mark.parametrize("sup", [-1.0, -1e-300, math.nan, -math.inf])
def test_interval_refuses_a_negative_or_nan_bound(sup):
    with pytest.raises(InadmissibleFluxError, match="caps must be nonnegative"):
        FluxInterval(sup)


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


NAN, INF = math.nan, math.inf
#: constructor calls with a non-numeric, boolean or non-finite parameter or sample.
HOSTILE_FLUXES = {
    "quadratic-nan": ("quadratic", (NAN,)),
    "quadratic-inf": ("quadratic", (INF,)),
    "quadratic-bool": ("quadratic", (True,)),
    "quadratic-string": ("quadratic", ("4",)),
    "quadratic-none": ("quadratic", (None,)),
    "triangular-inf-peak": ("triangular", (0.5, INF)),
    "triangular-nan-sigma": ("triangular", (NAN, 1.0)),
    "triangular-string-sigma": ("triangular", ("0.5", 1.0)),
    "triangular-bool-peak": ("triangular", (0.5, True)),
    "tabulated-nan-rho": ("tabulated", ((0.0, NAN, 1.0), (0.0, 0.5, 0.0))),
    "tabulated-inf-flux": ("tabulated", ((0.0, 0.5, 1.0), (0.0, INF, 0.0))),
    "tabulated-string-rho": ("tabulated", ((0.0, "0.5", 1.0), (0.0, 0.5, 0.0))),
    "tabulated-bool-flux": ("tabulated", ((0.0, 0.5, 1.0), (False, 0.5, False))),
    "tabulated-number-for-samples": ("tabulated", (5, (0.0, 0.5, 0.0))),
}


@pytest.mark.parametrize("kind, args", HOSTILE_FLUXES.values(), ids=HOSTILE_FLUXES)
def test_hostile_flux_parameters_raise_input_error(kind, args):
    with pytest.raises(InputError):
        getattr(FluxModel, kind)(*args)


T11, T22 = NodeTopology(1, 1), NodeTopology(2, 2)
QUAD = FluxModel.quadratic()
#: every reader of document numbers, each with a value it must refuse, the error it
#: raises, and that value, which the message must name.
GATED_READERS = {
    "tabulated-samples-not-a-list": (
        lambda: FluxModel.tabulated(5, (0.0, 0.5, 0.0)), InputError, 5),
    "state-string-density": (
        lambda: RiemannState.from_json({"n": 1, "m": 1, "rho": ["0.5", 0.5]}),
        InputError, "0.5"),
    "state-bool-density": (
        lambda: RiemannState.from_json({"n": 1, "m": 1, "rho": [0.5, True]}),
        InputError, True),
    "state-densities-not-a-list": (
        lambda: RiemannState.from_json({"n": 1, "m": 1, "rho": "0.5"}),
        InputError, "0.5"),
    "matrix-string-entry": (
        lambda: DistributionMatrix.from_rows([["0.5", 0.5], [0.5, 0.5]]),
        InputError, "0.5"),
    "matrix-not-iterable": (lambda: DistributionMatrix.from_rows(5), InputError, 5),
    "theta-string-weight": (
        lambda: ThetaWeights.from_flat(["0.5", 0.5, 0.5, 0.5], T22), InputError, "0.5"),
    "gamma_j-string": (
        lambda: solver_from_config(QUAD, {"solver": "rs3", "gamma_j": "0.7"}, T22),
        InputError, "0.7"),
    "gamma_j-bool": (
        lambda: solver_from_config(QUAD, {"solver": "rs3", "gamma_j": True}, T22),
        InputError, True),
    "grid-string-profile": (lambda: make_grids(T11, ["0.5", 0.5], cells=4),
                            InputError, "0.5"),
    "grid-bool-profile": (lambda: make_grids(T11, [True, 0.5], cells=4),
                          InputError, True),
    "expression-bool-constant": (lambda: eval_expr("True"), InputError, True),
    "huge-integer-parameter": (lambda: FluxModel.quadratic(10 ** 400), InputError,
                               10 ** 400),
    "fractional-active-set-index": (
        lambda: face_objective_equivalence(
            QUAD, RiemannState(T22, (0.75, 0.125, 0.9, 0.1)),
            [[1 / 3, 1 / 2], [2 / 3, 1 / 2]], [1.5], samples=2),
        InputError, 1.5),
    "fractional-arc-index": (lambda: T22.is_incoming(1.5), TopologyError, 1.5),
    "bool-arc-index": (lambda: T22.is_incoming(True), TopologyError, True),
    # the public constructors and the density checks of the flux methods
    "state-constructor-bool-density": (lambda: RiemannState(T11, (True, 0.5)),
                                       InputError, True),
    "state-constructor-numpy-bool-density": (
        lambda: RiemannState(T11, (0.5, np.bool_(False))), InputError, np.bool_(False)),
    "state-constructor-string-density": (lambda: RiemannState(T11, ("0.5", 0.5)),
                                         InputError, "0.5"),
    "value-bool": (lambda: QUAD.value(True), InputError, True),
    "value-string": (lambda: QUAD.value("0.5"), InputError, "0.5"),
    "tau-bool": (lambda: QUAD.tau(False), InputError, False),
    "tau-none": (lambda: QUAD.tau(None), InputError, None),
    "entropy-constant-bool": (
        lambda: entropy_flux(QUAD, RiemannState(T11, (0.5, 0.5)), True), InputError, True),
    "entropy-constant-string": (
        lambda: entropy_flux(QUAD, RiemannState(T11, (0.5, 0.5)), "0.5"), InputError,
        "0.5"),
    "matrix-constructor-string-entry": (
        lambda: DistributionMatrix((("0.5", 0.5), (0.5, 0.5))), InputError, "0.5"),
    "matrix-constructor-nan-entry": (
        lambda: DistributionMatrix(((math.nan, 0.5), (0.5, 0.5))), InputError, math.nan),
    "theta-constructor-bool-weights": (lambda: ThetaWeights((True,), (True,)),
                                       InputError, True),
    "theta-constructor-string-weight": (lambda: ThetaWeights((1.0,), ("1.0",)),
                                        InputError, "1.0"),
    "crossing-capacity-bool": (lambda: CrossingCapacity(True), InputError, True),
    "crossing-capacity-string": (lambda: CrossingCapacity("0.7"), InputError, "0.7"),
    # numpy reads a bool or a numeric string in a list as a number
    "value-list-bool": (lambda: QUAD.value([True, 0.5]), InputError, True),
    "value-list-int-and-bool": (lambda: QUAD.value((1, np.bool_(True))), InputError,
                                np.bool_(True)),
    "value-list-string": (lambda: QUAD.value(["0.5"]), InputError, "0.5"),
    "value-string-array": (lambda: QUAD.value(np.array(["0.5"])), InputError, "0.5"),
    "invert-bool": (lambda: QUAD.invert(True, "increasing"), InputError, True),
    "invert-string": (lambda: QUAD.invert("0.5", "decreasing"), InputError, "0.5"),
    "matrix-constructor-not-iterable": (lambda: DistributionMatrix(5), InputError, 5),
    "state-constructor-not-a-sequence": (lambda: RiemannState(T11, 5), InputError, 5),
}


@pytest.mark.parametrize("read, error, value", GATED_READERS.values(),
                         ids=GATED_READERS)
def test_readers_refuse_a_value_that_is_not_a_number(read, error, value):
    with pytest.raises(error) as caught:
        read()
    assert repr(value) in str(caught.value)


def test_density_checks_keep_domain_error_for_numbers():
    for rho in (math.nan, math.inf, -0.5, 1.5, 10 ** 400, np.float64(2.0)):
        with pytest.raises(DomainError):
            RiemannState(T11, (rho, 0.5))
        with pytest.raises(DomainError):
            QUAD.value(rho)
    # within the density slack a number is clamped, an in-range one kept
    assert QUAD.tau(np.float64(0.25)) == 0.75 and QUAD.tau(1) == 0.0
    assert RiemannState(T11, (np.int64(1), 0)).rho == (1.0, 0.0)
    assert CrossingCapacity(math.inf).gamma_j == math.inf


def test_readers_accept_numpy_numbers():
    columns = np.array([[1.0, 2.0], [3.0, 2.0]])
    matrix = DistributionMatrix.from_rows(columns / columns.sum(axis=0))
    assert matrix.rows == ((0.25, 0.5), (0.75, 0.5))
    rho = np.linspace(0.0, 1.0, 5)
    model = FluxModel.tabulated(rho, rho * (1.0 - rho))
    assert model.params["rho"] == (0.0, 0.25, 0.5, 0.75, 1.0)
    theta = ThetaWeights.from_flat(np.array([0.5, 0.5, 0.25, 0.75]), T22)
    assert theta.outgoing == (0.25, 0.75)
    assert T22.is_incoming(np.int64(1)) and not T22.is_incoming(np.int32(2))
    state = RiemannState.from_json({"n": np.int64(1), "m": 1, "rho": rho[1:3]})
    assert state.rho == (0.25, 0.5)


def test_numpy_parameters_are_accepted():
    model = FluxModel.triangular(np.float32(0.25), np.int64(2))
    assert (model.sigma, model.f_max) == (0.25, 2.0)
    assert FluxModel.quadratic(np.float64(4.0)).f_max == 1.0


def test_csv_unreadable_file_raises_input_error(tmp_path):
    with pytest.raises(InputError, match="missing.csv"):
        FluxModel.tabulated_from_csv(tmp_path / "missing.csv")
    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"rho,flux\n\xff\xfe\x00\n")
    with pytest.raises(InputError):
        FluxModel.tabulated_from_csv(binary)
    nan_row = tmp_path / "nan.csv"
    nan_row.write_text("rho,flux\n0,0\nnan,0.5\n1,0\n")
    with pytest.raises(InputError):
        FluxModel.tabulated_from_csv(nan_row)


def test_json_csv_path_must_be_a_string():
    with pytest.raises(InputError):
        FluxModel.from_json({"kind": "tabulated", "params": {"csv": 0}})
