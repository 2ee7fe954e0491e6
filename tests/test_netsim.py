"""Godunov evolution of one node: coupling, conservation, and convergence."""

from __future__ import annotations

import csv
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from junction_riemann import (
    ArcGrid,
    CrossingCapacity,
    DistributionMatrix,
    DomainError,
    InputError,
    NodeTopology,
    RS1Solver,
    RS1x1Solver,
    RS2Solver,
    RS3Solver,
    RiemannState,
    SimConfig,
    SimResult,
    StepSizeError,
    ThetaWeights,
    TopologyError,
    default_rng,
    godunov_interface_flux,
    make_grids,
    matrix_in_n,
    max_stable_dt,
    rs1_solve,
    run,
    step,
    summary_json,
    topology_of,
    total_mass,
    write_mass_csv,
    write_snapshots_csv,
)
from junction_riemann import netsim
from junction_riemann.netsim import _FlatArcs
from junction_riemann.tolerances import DENSITY_SLACK
from oracles import (
    bits,
    godunov_reference,
    write_mass_csv_reference,
    write_snapshots_csv_reference,
)

SQ = math.sqrt
T11 = NodeTopology(1, 1)
T22 = NodeTopology(2, 2)
MATRIX_2X2 = DistributionMatrix.from_rows([[1 / 3, 1 / 2], [2 / 3, 1 / 2]])

RS1_DATA = (3 / 4, 1 / 8, (8 + SQ(34)) / 16, 1 / 10)


def _equilibria(quad):
    """(solver, fixed state) pairs used by the persistence checks."""
    rs1_state = rs1_solve(quad, MATRIX_2X2, RiemannState(T22, RS1_DATA)).state.rho
    return [
        (RS1Solver(quad, MATRIX_2X2), rs1_state),
        (RS2Solver(quad, ThetaWeights((1 / 2, 1 / 2), (5 / 12, 7 / 12))),
         (1 / 4, 1 / 4, 1 / 2 - SQ(3) / (4 * SQ(2)), 1 / 2 - 1 / (4 * SQ(2)))),
        (RS3Solver(quad, ThetaWeights((3 / 4, 1 / 4), (3 / 4, 1 / 4)),
                   CrossingCapacity(64 / 75)),
         (1 / 5, 1 / 2 + SQ(59 / 3) / 10, 4 / 5, 1 / 2 - SQ(59 / 3) / 10)),
        (RS3Solver(quad, ThetaWeights.uniform(T22), CrossingCapacity(7 / 6)),
         (1 / 2 + SQ(1 / 2) / 2, 1 / 2 + SQ(1 / 3) / 2,
          1 / 2 + SQ(1 / 2) / 2, 1 / 2 - SQ(1 / 3) / 2)),
    ]


# -- numerical flux ----------------------------------------------------------------------


def test_interface_flux_examples(quad):
    assert godunov_interface_flux(quad, 0.5, 0.5) == 1.0
    assert godunov_interface_flux(quad, 0.25, 0.75) == pytest.approx(0.75, abs=1e-15)
    assert godunov_interface_flux(quad, 1.0, 1.0) == 0.0
    assert godunov_interface_flux(quad, 0.0, 0.0) == 0.0
    # congested left, free right: both sides unconstrained at f_max
    assert godunov_interface_flux(quad, 0.75, 0.25) == 1.0


def test_interface_flux_array_matches_scalar(any_model):
    rng = default_rng(3)
    left = rng.uniform(0.0, 1.0, 64)
    right = rng.uniform(0.0, 1.0, 64)
    batch = godunov_interface_flux(any_model, left, right)
    one_at_a_time = [godunov_interface_flux(any_model, float(a), float(b))
                     for a, b in zip(left, right)]
    assert batch == pytest.approx(one_at_a_time, abs=1e-14)


# -- grid and config validation ----------------------------------------------------------


def test_arc_grid_validation():
    grid = ArcGrid("incoming", 0.01, np.array([0.1, 0.2, 0.3]))
    assert grid.cells == 3
    assert grid.boundary_value == 0.3
    assert ArcGrid("outgoing", 0.01, np.array([0.4, 0.5])).boundary_value == 0.4
    with pytest.raises(InputError):
        ArcGrid("sideways", 0.01, np.array([0.1, 0.2]))
    with pytest.raises(InputError):
        ArcGrid("incoming", 0.0, np.array([0.1, 0.2]))
    with pytest.raises(InputError):
        ArcGrid("incoming", 0.01, np.array([0.1]))
    with pytest.raises(DomainError):
        ArcGrid("incoming", 0.01, np.array([0.1, 1.2]))
    clamped = ArcGrid("incoming", 0.01, np.array([0.0, 1.0 + 1e-13]))
    assert clamped.rho[1] == 1.0


def test_arc_grid_geometry():
    inc = ArcGrid("incoming", 0.25, np.zeros(4))
    out = ArcGrid("outgoing", 0.25, np.zeros(4))
    assert inc.x_centers() == pytest.approx([-0.875, -0.625, -0.375, -0.125])
    assert out.x_centers() == pytest.approx([0.125, 0.375, 0.625, 0.875])


def test_sim_config_validation(quad):
    solver = RS1x1Solver(quad)
    with pytest.raises(InputError):
        SimConfig(quad, solver, cfl=0.0)
    with pytest.raises(InputError):
        SimConfig(quad, solver, cfl=1.2)
    with pytest.raises(InputError):
        SimConfig(quad, solver, t_end=0.0)
    for t_end in (math.inf, math.nan):
        with pytest.raises(InputError, match="t_end"):
            SimConfig(quad, solver, t_end=t_end)
    # the outer boundary is always zero-order extrapolation: there is no option
    with pytest.raises(TypeError):
        SimConfig(quad, solver, boundary="periodic")


def test_topology_of_requires_incoming_first():
    inc = ArcGrid("incoming", 0.1, np.zeros(2))
    out = ArcGrid("outgoing", 0.1, np.zeros(2))
    assert topology_of([inc, out]) == T11
    assert topology_of([inc, inc, out, out]) == T22
    with pytest.raises(TopologyError):
        topology_of([out, inc])


def test_max_stable_dt(quad):
    grids = make_grids(T11, [0.5, 0.5], cells=200, length=1.0)
    # |f'| peaks at 4 for the quadratic flux, dx = 1/200
    assert max_stable_dt(quad, grids) == pytest.approx(0.00125, abs=1e-15)


def test_make_grids_validation():
    with pytest.raises(TopologyError):
        make_grids(T22, [0.5, 0.5], cells=10)
    with pytest.raises(InputError):
        make_grids(T11, [0.5, 0.5], cells=1)
    grids = make_grids(T11, [0.3, np.linspace(0.0, 1.0, 50)], cells=200)
    assert grids[0].cells == 200 and grids[1].cells == 50
    assert grids[1].dx == pytest.approx(1.0 / 50)
    with pytest.raises(InputError, match="arc 0"):  # past numpy's largest dimension
        make_grids(T11, [0.5, 0.5], cells=10**20)


@pytest.mark.parametrize("cells", [2.5, 20.0, "20", True])
def test_make_grids_refuses_a_cell_count_that_is_not_an_integer(cells):
    with pytest.raises(InputError, match="cells must be an integer"):
        make_grids(T11, [0.5, 0.5], cells=cells)
    assert make_grids(T11, [0.5, 0.5], cells=np.int64(20))[0].cells == 20


# -- single steps ------------------------------------------------------------------------


def test_sigma_constant_state_is_stationary(quad):
    config = SimConfig(quad, RS2Solver(quad, ThetaWeights.uniform(T22)))
    grids = make_grids(T22, [0.5, 0.5, 0.5, 0.5], cells=20)
    result = step(grids, config)
    for before, after in zip(grids, result.grids):
        assert np.array_equal(before.rho, after.rho)


def test_zero_data_stays_zero(quad):
    config = SimConfig(quad, RS1x1Solver(quad))
    grids = make_grids(T11, [0.0, 0.0], cells=20)
    for _ in range(50):
        grids = step(grids, config).grids
    assert all(np.all(g.rho == 0.0) for g in grids)


def test_step_rejects_oversized_dt(quad):
    config = SimConfig(quad, RS1x1Solver(quad))
    grids = make_grids(T11, [0.6, 0.2], cells=20)
    bound = max_stable_dt(quad, grids)
    with pytest.raises(StepSizeError):
        step(grids, config, dt=bound * 1.5)
    step(grids, config, dt=bound)


@pytest.mark.parametrize("dt", [-0.01, 0.0, -0.0, math.nan])
def test_step_rejects_a_dt_that_is_not_positive(quad, dt):
    config = SimConfig(quad, RS1x1Solver(quad))
    grids = make_grids(T11, [0.6, 0.2], cells=20)
    with pytest.raises(StepSizeError, match="positive"):
        step(grids, config, dt=dt)


@pytest.mark.parametrize("steps", [2.5, -3, True, "3"])
def test_run_rejects_a_step_count_that_is_not_a_non_negative_int(quad, steps):
    config = SimConfig(quad, RS1x1Solver(quad))
    grids = make_grids(T11, [0.6, 0.2], cells=20)
    with pytest.raises(InputError, match="steps"):
        run(config, grids, steps=steps)
    assert len(run(config, grids, steps=np.int64(3)).ledger) == 4
    assert len(run(config, grids, steps=0).ledger) == 1


HUGE_T_END = """
from junction_riemann import (FluxModel, InputError, NodeTopology, RS1x1Solver,
                              SimConfig, make_grids, run)
q = FluxModel.quadratic()
try:
    run(SimConfig(q, RS1x1Solver(q), t_end=1e300),
        make_grids(NodeTopology(1, 1), [0.6, 0.2], cells=20))
except InputError as exc:
    print(exc)
"""


def test_run_refuses_a_t_end_past_the_step_limit():
    # 1e300 / dt steps: without the step limit the run would not end, so it runs in
    # a child process with a timeout
    src = os.path.dirname(os.path.dirname(os.path.abspath(netsim.__file__)))
    done = subprocess.run([sys.executable, "-c", HUGE_T_END], capture_output=True,
                          text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout == "'t_end' 1e+300 needs more than 1000000 time steps\n"


def test_run_step_limit(quad, monkeypatch):
    # 20 cells per arc take dt = 0.5 * (1 / 20) / 4 = 1/160, so t_end = 0.05 is 8 steps
    monkeypatch.setattr(netsim, "MAX_STEPS", 10)
    grids = make_grids(T11, [0.6, 0.2], cells=20)
    assert len(run(SimConfig(quad, RS1x1Solver(quad), t_end=0.05), grids).ledger) == 9
    long = SimConfig(quad, RS1x1Solver(quad), t_end=0.1)
    with pytest.raises(InputError, match="needs more than 10 time steps"):
        run(long, grids)
    # a fixed step count ignores t_end and the limit
    assert len(run(long, grids, steps=16).ledger) == 17


def test_step_mass_identity_per_step(quad):
    config = SimConfig(quad, RS1Solver(quad, MATRIX_2X2), cfl=0.5)
    grids = make_grids(T22, [0.3, 0.8, 0.6, 0.1], cells=50)
    for _ in range(100):
        before = total_mass(grids)
        result = step(grids, config)
        grids = result.grids
        flux_in = (result.inflow - result.outflow) * result.dt
        assert total_mass(grids) - before == pytest.approx(flux_in, abs=1e-9)
        gamma = result.node.gamma
        assert sum(gamma[:2]) == pytest.approx(sum(gamma[2:]), abs=1e-10)


def test_discrete_maximum_principle(quad):
    rng = default_rng(23)
    config = SimConfig(quad, RS2Solver(quad, ThetaWeights.uniform(T22)), cfl=1.0)
    profiles = [rng.uniform(0.0, 1.0, 30) for _ in range(4)]
    grids = make_grids(T22, profiles, cells=30)
    for _ in range(100):
        grids = step(grids, config).grids
        for g in grids:
            assert float(g.rho.min()) >= 0.0 and float(g.rho.max()) <= 1.0


# -- whole runs --------------------------------------------------------------------------


def test_equilibrium_persistence(quad):
    for solver, state in _equilibria(quad):
        config = SimConfig(quad, solver, cfl=0.5)
        grids = make_grids(T22, list(state), cells=50)
        result = run(config, grids, steps=100)
        final = result.boundary_state().rho
        assert final == pytest.approx(state, abs=1e-8), type(solver).__name__


def test_mass_drift_over_long_run(quad):
    config = SimConfig(quad, RS1Solver(quad, MATRIX_2X2), cfl=0.5)
    grids = make_grids(T22, [0.3, 0.8, 0.6, 0.1], cells=100)
    result = run(config, grids, steps=1000)
    assert len(result.ledger) == 1001
    assert result.mass_drift() <= 1e-7


def test_ledger_is_cumulative(quad):
    config = SimConfig(quad, RS1x1Solver(quad), cfl=0.5)
    result = run(config, make_grids(T11, [0.75, 0.25], cells=40), steps=20)
    times = [row[0] for row in result.ledger]
    assert times == sorted(times) and times[0] == 0.0
    ins = [row[2] for row in result.ledger]
    outs = [row[3] for row in result.ledger]
    assert all(b >= a for a, b in zip(ins, ins[1:]))
    assert all(b >= a for a, b in zip(outs, outs[1:]))
    for (t0, m0, i0, o0), (t1, m1, i1, o1) in zip(result.ledger, result.ledger[1:]):
        assert m1 - m0 == pytest.approx((i1 - i0) - (o1 - o0), abs=1e-9)


def test_run_snapshots_and_summary(quad):
    config = SimConfig(quad, RS1x1Solver(quad), cfl=0.5, t_end=0.2)
    result = run(config, make_grids(T11, [0.75, 0.25], cells=50),
                 snapshot_times=[0.05, 0.1])
    times = [t for t, _ in result.snapshots]
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(0.2, abs=1e-12)
    dt = 0.5 * (1.0 / 50) / 4.0
    for want in (0.05, 0.1):
        assert any(want - 1e-12 <= t <= want + dt + 1e-12 for t in times)
    summary = summary_json(result)
    assert summary["n"] == 1 and summary["m"] == 1
    assert summary["steps"] == len(result.ledger) - 1
    assert summary["t_final"] == pytest.approx(0.2, abs=1e-12)
    assert summary["mass_drift"] <= 1e-9
    assert len(summary["boundary_state"]) == 2
    assert len(summary["node_gamma"]) == 2


def test_boundary_traces_converge_1x1(quad):
    """Falling transonic data opens a fan; boundary cells settle at the crest."""
    config = SimConfig(quad, RS1x1Solver(quad), cfl=0.5, t_end=1.5)
    result = run(config, make_grids(T11, [0.75, 0.25], cells=200))
    exact = (0.5, 0.5)
    got = result.boundary_state().rho
    assert max(abs(g - e) for g, e in zip(got, exact)) <= 1e-3


def test_boundary_traces_converge_rs1(quad):
    want = rs1_solve(quad, MATRIX_2X2, RiemannState(T22, RS1_DATA)).state.rho
    config = SimConfig(quad, RS1Solver(quad, MATRIX_2X2), cfl=0.5, t_end=1.5)
    result = run(config, make_grids(T22, list(RS1_DATA), cells=200))
    got = result.boundary_state().rho
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-3


# -- the flat kernel against the per-arc reference -----------------------------------------

KERNEL_TOPOLOGIES = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]
KERNEL_STEPS = 40


def _kernel_solvers(model, topo, rng):
    """rs2 always, rs3 on square nodes, rs1 when a seeded matrix is certified."""
    def weights(k):
        w = rng.uniform(0.2, 1.0, k)
        return tuple(w / w.sum())

    theta = ThetaWeights(weights(topo.n), weights(topo.m))
    solvers = {"rs2": RS2Solver(model, theta)}
    if topo.n == topo.m:
        cap = CrossingCapacity(float(rng.uniform(0.5, 2.0)) * model.f_max)
        solvers["rs3"] = RS3Solver(model, theta, cap)
    if topo.m > 1:
        columns = rng.uniform(0.1, 1.0, (topo.m, topo.n))
        matrix = DistributionMatrix.from_rows(columns / columns.sum(axis=0))
        if matrix_in_n(matrix, topo):
            solvers["rs1"] = RS1Solver(model, matrix)
    return solvers


def _kernel_grids(topo, rng, cells=None):
    """Arcs of different cell counts, or all of ``cells`` cells, each a few constant
    blocks plus noise."""
    profiles = []
    for _ in range(topo.total):
        count = int(rng.integers(6, 40)) if cells is None else cells
        blocks = np.repeat(rng.uniform(0.05, 0.95, 3), -(-count // 3))[:count]
        profiles.append(np.clip(blocks + rng.uniform(-0.05, 0.05, count), 0.0, 1.0))
    return make_grids(topo, profiles, length=1.0)


def _uniform_layouts(topo, rng):
    """Grids whose arcs all have the same cell count (25, and the smallest, 2), with
    -0.0 in every third cell, and the last arc -0.0 throughout on the 2-cell grid."""
    layouts = []
    for cells in (25, 2):
        profiles = [g.rho.copy() for g in _kernel_grids(topo, rng, cells)]
        for profile in profiles:
            profile[::3] = -0.0
        if cells == 2:
            profiles[-1][:] = -0.0
        layouts.append(make_grids(topo, profiles, length=1.0))
    return layouts


@pytest.mark.parametrize("n,m", KERNEL_TOPOLOGIES)
def test_run_matches_per_arc_reference(any_model, n, m):
    topo = NodeTopology(n, m)
    rng = default_rng(700 + 10 * n + m)
    grids = _kernel_grids(topo, rng)
    assert len({g.cells for g in grids}) > 1
    solvers = _kernel_solvers(any_model, topo, rng)
    assert sorted(solvers) == sorted(["rs2"] + ["rs3"] * (n == m)
                                     + ["rs1"] * (1 < m and n <= m))
    for name, solver in solvers.items():
        config = SimConfig(any_model, solver, cfl=0.9)
        result = run(config, grids, steps=KERNEL_STEPS)
        dt = 0.9 * min(g.dx for g in grids) / any_model.max_wave_speed()
        rhos, gammas, ledger = godunov_reference(
            any_model, lambda rho: solver(RiemannState(topo, rho)).gamma,
            [g.rho for g in grids], [g.dx for g in grids], n, dt, KERNEL_STEPS)
        for got, want in zip(result.grids, rhos):
            assert np.max(np.abs(got.rho - want)) <= 1e-12, name
        got_gamma = np.array([node.gamma for _, node in result.node_history])
        assert np.max(np.abs(got_gamma - np.array(gammas))) <= 1e-12, name
        assert np.max(np.abs(np.array(result.ledger) - np.array(ledger))) <= 1e-12, name


@pytest.mark.parametrize("n,m", KERNEL_TOPOLOGIES)
def test_run_is_bit_identical_to_the_per_arc_reference(any_model, n, m):
    # dt as the kernel takes it: 0.9 * min(dx) / speed rounds differently from
    # 0.9 * (min(dx) / speed) for the tabulated speed 3.8000000000000003
    # the ragged layout sums the arcs one by one, the uniform ones by rows
    topo = NodeTopology(n, m)
    rng = default_rng(700 + 10 * n + m)
    ragged = _kernel_grids(topo, rng)
    solvers = _kernel_solvers(any_model, topo, rng)
    for grids in [ragged, *_uniform_layouts(topo, rng)]:
        uniform = len({g.cells for g in grids}) == 1
        assert (_FlatArcs(any_model, grids).rows is not None) == uniform
        for name, solver in solvers.items():
            config = SimConfig(any_model, solver, cfl=0.9)
            result = run(config, grids, steps=KERNEL_STEPS)
            dt = 0.9 * max_stable_dt(any_model, grids)
            rhos, gammas, ledger = godunov_reference(
                any_model, lambda rho: solver(RiemannState(topo, rho)).gamma,
                [g.rho for g in grids], [g.dx for g in grids], n, dt, KERNEL_STEPS)
            assert bits([g.rho.tolist() for g in result.grids]) == \
                bits([r.tolist() for r in rhos]), name
            assert bits([node.gamma for _, node in result.node_history]) \
                == bits(gammas), name
            assert bits(result.ledger) == bits(ledger), name


@pytest.mark.parametrize("n,m", KERNEL_TOPOLOGIES)
def test_repeated_step_equals_run(any_model, n, m):
    topo = NodeTopology(n, m)
    rng = default_rng(900 + 10 * n + m)
    grids = _kernel_grids(topo, rng)
    for name, solver in _kernel_solvers(any_model, topo, rng).items():
        config = SimConfig(any_model, solver, cfl=0.9)
        result = run(config, grids, steps=KERNEL_STEPS)
        stepped = grids
        for _, node in result.node_history:
            outcome = step(stepped, config)
            stepped = outcome.grids
            assert outcome.node.gamma == node.gamma, name
        for got, want in zip(stepped, result.grids):
            assert np.array_equal(got.rho, want.rho), name


def test_result_and_snapshot_grids_are_independent_copies(quad):
    config = SimConfig(quad, RS1Solver(quad, MATRIX_2X2), cfl=0.5, t_end=0.05)
    grids = make_grids(T22, [0.3, 0.8, 0.6, 0.1], cells=20)
    inputs = [g.rho.copy() for g in grids]
    result = run(config, grids, snapshot_times=[0.02])
    want = _run_bits(result)
    every = result.grids + [g for _, snapshot in result.snapshots for g in snapshot]
    assert len(every) == 4 + 4 * 3
    for k, grid in enumerate(every):
        others = [g.rho.copy() for g in every]
        grid.rho[:] = 0.125
        assert all(np.array_equal(g.rho, r)
                   for j, (g, r) in enumerate(zip(every, others)) if j != k)
    assert all(np.array_equal(g.rho, r) for g, r in zip(grids, inputs))
    assert _run_bits(run(config, grids, snapshot_times=[0.02])) == want


def test_a_2x2_rs1_step_checks_no_density(quad, monkeypatch):
    """Each density is checked once where it enters. The run's copy into the flat
    array checks the initial grids, and each step's range check the densities it
    produces; a 2x2 rs1 step then hands its node cells, the caps, the traces and
    their verdicts to the flux's unchecked kernels, and checks no density again."""
    from junction_riemann import flux, junction, netsim, solvers
    calls = []
    check = flux._check_density

    def counted_check(*args):
        calls.append(args)
        return check(*args)

    for module in (flux, junction, netsim, solvers):
        if hasattr(module, "_check_density"):
            monkeypatch.setattr(module, "_check_density", counted_check)
    config = SimConfig(quad, RS1Solver(quad, MATRIX_2X2), cfl=0.5)
    result = run(config, make_grids(T22, [0.3, 0.8, 0.6, 0.1], cells=50), steps=200)
    assert len(result.node_history) == 200
    assert calls == []


def _run_bits(result: SimResult):
    return bits(([g.rho.tolist() for g in result.grids],
                 [(t, node.state.rho, node.gamma) for t, node in result.node_history],
                 result.ledger))


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 3)])
def test_run_with_a_prewarmed_rs1_handle_is_bit_identical(any_model, n, m):
    topo = NodeTopology(n, m)
    rng = default_rng(950 + 10 * n + m)
    while True:
        columns = rng.uniform(0.1, 1.0, (m, n))
        matrix = DistributionMatrix.from_rows(columns / columns.sum(axis=0))
        if matrix_in_n(matrix, topo):
            break
    grids, unrelated = _kernel_grids(topo, rng), _kernel_grids(topo, rng)

    def cold_rs1(state):
        fresh = DistributionMatrix(matrix.rows)  # its basis cell starts empty
        assert fresh._basis == [None]
        return rs1_solve(any_model, fresh, state)

    cold = run(SimConfig(any_model, cold_rs1, cfl=0.9), grids, steps=KERNEL_STEPS)
    handle = RS1Solver(any_model, matrix)
    run(SimConfig(any_model, handle, cfl=0.9), unrelated, steps=KERNEL_STEPS)
    assert matrix._basis[0] is not None
    warmed = run(SimConfig(any_model, handle, cfl=0.9), grids, steps=KERNEL_STEPS)
    assert _run_bits(warmed) == _run_bits(cold)


@pytest.mark.parametrize("gamma", [10.0, math.nan])
def test_node_flux_out_of_range_raises(quad, gamma):
    solver = RS1Solver(quad, MATRIX_2X2)

    def broken(state):
        out = solver(state)
        return dataclasses.replace(out, gamma=(gamma,) + out.gamma[1:])

    config = SimConfig(quad, broken, cfl=0.5)
    grids = make_grids(T22, [0.3, 0.8, 0.6, 0.1], cells=20)
    with pytest.raises(DomainError):
        step(grids, config)
    with pytest.raises(DomainError):
        run(config, grids, steps=3)


def _jammed_node(quad, excess):
    """A 1x1 run whose incoming arc is jammed (every flux on it is 0) and whose
    node passes the flux that lifts the incoming node cell to 1 + ``excess``."""
    solver = RS1x1Solver(quad)
    grids = make_grids(T11, [1.0, 0.2], cells=10)
    dt = 0.5 * max_stable_dt(quad, grids)

    def lifting(state):
        out = solver(state)
        return dataclasses.replace(out, gamma=(-excess * grids[0].dx / dt,)
                                   + out.gamma[1:])

    return SimConfig(quad, lifting, cfl=0.5), grids


def test_step_clips_a_density_within_the_slack(quad):
    config, grids = _jammed_node(quad, 0.5 * DENSITY_SLACK)
    assert step(grids, config).grids[0].rho[-1] == 1.0
    result = run(config, grids, steps=1)
    assert result.grids[0].rho[-1] == 1.0
    # the ledger sums the kernel's own array, so it sees a missing clip
    assert result.ledger[-1][1] == total_mass(result.grids)


@pytest.mark.parametrize("excess", [2.0 * DENSITY_SLACK, math.nan])
def test_step_rejects_a_density_beyond_the_slack(quad, excess):
    config, grids = _jammed_node(quad, excess)
    with pytest.raises(DomainError):
        step(grids, config)
    with pytest.raises(DomainError):
        run(config, grids, steps=1)


def test_ghost_cells_stay_positive_zero(any_model):
    topo = NodeTopology(2, 2)
    rng = default_rng(4400)
    grids = _kernel_grids(topo, rng)
    arcs = _FlatArcs(any_model, grids)
    ghosts = [a - 1 for a in arcs.first] + [arcs.u.size - 1]
    solver = _kernel_solvers(any_model, topo, rng)["rs2"]
    dt = max_stable_dt(any_model, grids)
    for _ in range(40):
        arcs.advance(solver, dt)
        assert bits(arcs.u[ghosts].tolist()) == bits([0.0] * len(ghosts))


# -- emission ----------------------------------------------------------------------------


def test_csv_writers_round_trip(quad, tmp_path):
    config = SimConfig(quad, RS1x1Solver(quad), cfl=0.5, t_end=0.05)
    result = run(config, make_grids(T11, [0.75, 0.25], cells=10),
                 snapshot_times=[0.02])
    snap_path = tmp_path / "snap.csv"
    mass_path = tmp_path / "mass.csv"
    write_snapshots_csv(result, snap_path)
    write_mass_csv(result, mass_path)

    with open(snap_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "arc", "x", "rho"]
    assert len(rows) - 1 == sum(sum(g.cells for g in grids)
                                for _, grids in result.snapshots)
    first = rows[1]
    assert float(first[0]) == result.snapshots[0][0]
    assert int(first[1]) == 0
    assert float(first[3]) == float(result.snapshots[0][1][0].rho[0])

    with open(mass_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "total_mass", "boundary_in", "boundary_out"]
    assert len(rows) - 1 == len(result.ledger)
    # 17-digit formatting makes the text exactly recover the binary value
    for text, row in zip(rows[1:], result.ledger):
        assert tuple(float(v) for v in text) == row


def _csv_bytes_as_csv_writer_writes_them(result, tmp_path):
    """The snapshot and mass files, after checking each against the reference
    writer byte for byte and checking that every line ends in \\r\\n."""
    out = []
    for write, reference in ((write_snapshots_csv, write_snapshots_csv_reference),
                             (write_mass_csv, write_mass_csv_reference)):
        got = tmp_path / f"{write.__name__}.csv"
        want = tmp_path / f"{write.__name__}_reference.csv"
        write(result, got)
        reference(result, want)
        data = got.read_bytes()
        assert data == want.read_bytes(), write.__name__
        lines = data.split(b"\r\n")
        assert lines[-1] == b"" and all(b"\r" not in l and b"\n" not in l
                                        for l in lines), write.__name__
        out.append(data)
    return out


@pytest.mark.parametrize("n,m", [(1, 2), (2, 1), (2, 2), (3, 2)])
def test_csv_writers_match_csv_writer_bytes(any_model, n, m, tmp_path):
    topo = NodeTopology(n, m)
    rng = default_rng(900 + 10 * n + m)
    grids = _kernel_grids(topo, rng)
    assert len({g.cells for g in grids}) > 1
    solver = _kernel_solvers(any_model, topo, rng)["rs2"]
    config = SimConfig(any_model, solver, cfl=0.9, t_end=0.05)
    # awkward times: repeating decimals, a rounding sum, a tiny one, duplicates,
    # one between steps and one past t_end (only the final snapshot is taken)
    times = [1 / 3 * 0.1, 0.1 + 0.2 - 0.29, 1e-7, 0.02, 0.02, 0.0491, 0.7]
    result = run(config, grids, snapshot_times=times)
    assert len(result.snapshots) >= 5
    snap, mass = _csv_bytes_as_csv_writer_writes_them(result, tmp_path)
    assert snap.startswith(b"t,arc,x,rho\r\n0,0,")
    assert mass.startswith(b"t,total_mass,boundary_in,boundary_out\r\n0,")


def test_csv_writers_match_csv_writer_bytes_on_a_hand_built_result(tmp_path):
    # the snapshots change grids: another dx at the same cell count, another cell
    # count, and an arc whose orientation differs from the same index earlier
    rng = default_rng(41)

    def grid(orientation, dx, cells):
        return ArcGrid(orientation, dx, rng.uniform(0.0, 1.0, cells))

    snapshots = [
        (0.0, [grid("incoming", 0.1, 10), grid("outgoing", 0.1, 10)]),
        (1 / 3, [grid("incoming", 0.05, 10), grid("outgoing", 0.1, 20)]),
        (0.1 + 0.2, [grid("incoming", 0.1, 10), grid("incoming", 1 / 7, 7),
                     grid("outgoing", 0.1, 10)]),
        (2.0, [ArcGrid("incoming", 0.25, [-0.0, 0.0, 1.0, 5e-324]),
               grid("outgoing", 0.1, 10)]),
    ]
    ledger = [(0.0, 1.0, 0.0, 0.0), (1 / 3, 1 / 3, -0.0, 5e-324),
              (0.1 + 0.2, 1e22, 1e-300, 2.0)]
    result = SimResult(T11, snapshots[-1][1], ledger, snapshots)
    snap, mass = _csv_bytes_as_csv_writer_writes_them(result, tmp_path)
    assert mass == b"t,total_mass,boundary_in,boundary_out\r\n" \
        b"0,1,0,0\r\n" \
        b"0.33333333333333331,0.33333333333333331,-0,4.9406564584124654e-324\r\n" \
        b"0.30000000000000004,1e+22,1e-300,2\r\n"
    assert snap.startswith(b"t,arc,x,rho\r\n0,0,-0.95000000000000007,")
    assert snap.count(b"\r\n") == 1 + sum(sum(g.cells for g in grids)
                                            for _, grids in snapshots)


def test_run_works_with_triangular_flux(tri):
    solver = RS1x1Solver(tri)
    config = SimConfig(tri, solver, cfl=0.5, t_end=0.5)
    result = run(config, make_grids(T11, [0.9, 0.1], cells=100))
    assert result.mass_drift() <= 1e-9
    fixed = solver(result.boundary_state())
    assert fixed.state.rho == pytest.approx(result.boundary_state().rho, abs=5e-3)
