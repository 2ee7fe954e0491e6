"""Godunov finite-volume evolution of one node's arcs.

Each arc is a half-line grid (incoming arcs end at the node, outgoing arcs start
there). Interior interfaces use the classical Godunov flux, written as
min(demand(left), supply(right)). At the node, the configured Riemann solver is
re-applied every step to the current boundary-cell averages and its fluxes are imposed
as the node-side numerical fluxes. Outer ends use zero-order extrapolation (free
inflow/outflow).

A run copies the validated grids once into one flat array, with one ghost cell
before the first arc, one between each pair of arcs and one after the last, and
works on it in place with buffers allocated once per run. Each step evaluates f
once per cell, forms demand and supply, takes every interface flux with one
minimum over neighbouring cells, overwrites the two end interfaces of each arc
with the node and outer fluxes, and updates the whole array with one multiply and
one subtract: the flux differences times a per-cell dt / dx array, which holds
each arc's ``dt / dx`` on its cells and exactly 0 on the ghost cells (so they stay
+0.0) and is rebuilt only when dt changes. A range check follows; only when it
finds a density outside [0, 1] does the domain check run (NaN, or a density beyond
the slack, raises DomainError) and the array get clipped, since the clip is the
identity, -0.0 included, on densities inside [0, 1]. :func:`step` and :func:`run`
share this kernel; :class:`ArcGrid` objects are built only for snapshots and
results, each with one copy of its densities.

Each density is checked once: by :class:`ArcGrid` and the run's copy into the flat
array, then by the range check of the step that produced it. So the node cells go
to the solver as an unchecked ``RiemannState``, and the snapshot and result grids
are copies that skip ArcGrid's min, max and clip, which could only return the bits
they were given (numpy's clip keeps -0.0). The inputs from outside stay checked:
``dt`` against the CFL bound, ``steps``, and a finite ``t_end`` that needs at most
:data:`MAX_STEPS` steps.

Mass bookkeeping: every step appends (t, total_mass, boundary_in, boundary_out) to a
ledger, where the boundary columns are cumulative time-integrated outer-boundary
fluxes, so total_mass(t) - total_mass(0) - (in - out) is the conservation drift.

Output: :func:`write_snapshots_csv` and :func:`write_mass_csv` write the bytes of
``csv.writer`` (``%.17g`` numbers, ``\\r\\n`` line ends) in one pass: one ``%``
format per snapshot arc, so that the text held at once is one arc of one snapshot,
and one for the whole ledger, which the result already holds in memory.
``'%.17g' % x`` is the same conversion as ``f"{x:.17g}"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InputError, StepSizeError, TopologyError
from .flux import RHO_MAX, FluxModel, _check_densities, _integer, _parameter
from .junction import NodeTopology, RiemannState, SolverFn, TraceSolution
from .tolerances import CFL_SLACK, TIME_TOL

INCOMING = "incoming"
OUTGOING = "outgoing"
#: the most time steps :func:`run` takes to reach ``t_end``: the ledger and the node
#: history keep one row per step, about 700 B at a 2x2 node, so 10^6 steps hold
#: about 0.7 GB.
MAX_STEPS = 1_000_000


@dataclass
class ArcGrid:
    """Cell-average densities on one arc; ``dx`` is the (uniform) cell width."""

    orientation: str
    dx: float
    rho: np.ndarray

    def __post_init__(self):
        if self.orientation not in (INCOMING, OUTGOING):
            raise InputError(
                f"orientation must be {INCOMING!r} or {OUTGOING!r}, "
                f"got {self.orientation!r}")
        if not self.dx > 0.0:
            raise InputError(f"dx must be positive, got {self.dx!r}")
        arr = np.array(self.rho, dtype=float)
        if arr.ndim != 1 or arr.size < 2:
            raise InputError("an arc needs a 1-D grid with at least 2 cells")
        _check_densities(arr)
        self.rho = np.clip(arr, 0.0, 1.0, out=arr)

    @staticmethod
    def _proved(orientation: str, dx: float, rho: np.ndarray) -> "ArcGrid":
        """The grid of ``rho``, an array the caller owns whose densities are proved
        to lie in [0, 1], without the public constructor's checks and clip."""
        grid = object.__new__(ArcGrid)
        fields = grid.__dict__
        fields["orientation"] = orientation
        fields["dx"] = dx
        fields["rho"] = rho
        return grid

    @property
    def cells(self) -> int:
        return int(self.rho.size)

    @property
    def boundary_value(self) -> float:
        """Cell average adjacent to the node."""
        return float(self.rho[-1] if self.orientation == INCOMING else self.rho[0])

    def x_centers(self) -> np.ndarray:
        """Cell centers; incoming arcs occupy [-cells*dx, 0], outgoing [0, cells*dx]."""
        idx = np.arange(self.cells) + 0.5
        if self.orientation == INCOMING:
            return (idx - self.cells) * self.dx
        return idx * self.dx


@dataclass(frozen=True)
class SimConfig:
    """Run parameters: flux model, node solver handle, CFL number, end time."""

    flux: FluxModel
    solver: SolverFn
    cfl: float = 0.5
    t_end: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise InputError(f"cfl must lie in (0, 1], got {self.cfl!r}")
        if not 0.0 < self.t_end < math.inf:
            raise InputError(f"t_end must be positive and finite, got {self.t_end!r}")


def _demand_supply(model: FluxModel, rho: np.ndarray, dem: np.ndarray,
                   sup: np.ndarray) -> None:
    """Demand and supply of every density: ``sup`` holds f(rho) on entry and the
    supply on return, ``dem`` receives the demand. Each is f on one side of sigma
    and f_max on the other."""
    congested = rho > model.sigma
    np.copyto(dem, sup)
    np.copyto(dem, model.f_max, where=congested)
    np.copyto(sup, model.f_max, where=np.logical_not(congested, out=congested))


def godunov_interface_flux(model: FluxModel, rho_left, rho_right):
    """Godunov numerical flux min(sup demand(left), sup supply(right)).

    Accepts scalars or equal-length numpy arrays.
    """
    rho = np.array((rho_left, rho_right), dtype=float)
    sup = model.value(rho)
    dem = np.empty_like(sup)
    _demand_supply(model, rho, dem, sup)
    flux = np.minimum(dem[0], sup[1])
    return float(flux) if np.isscalar(rho_left) and np.isscalar(rho_right) else flux


def topology_of(grids: Sequence[ArcGrid]) -> NodeTopology:
    """Topology implied by the grid list; incoming arcs must come first."""
    orientations = [g.orientation for g in grids]
    n = sum(1 for o in orientations if o == INCOMING)
    if orientations != [INCOMING] * n + [OUTGOING] * (len(grids) - n):
        raise TopologyError("grids must list every incoming arc before the outgoing")
    return NodeTopology(n, len(grids) - n)


def max_stable_dt(model: FluxModel, grids: Sequence[ArcGrid]) -> float:
    """Largest dt satisfying the CFL condition dt * max|f'| <= dx on every arc."""
    return min(g.dx for g in grids) / model.max_wave_speed()


class _FlatArcs:
    """Every arc of one node in one flat array, stepped in place.

    Arc l occupies ``u[first[l]:first[l] + cells[l]]``; one ghost cell (always
    +0.0) sits before the first arc, between each pair of arcs and after the last.
    Interface i lies between flat cells i and i + 1, so one minimum over the
    whole array gives every interior Godunov flux, and the two interfaces next to
    each ghost take the node fluxes and the outer extrapolation fluxes instead.
    Cell i changes by ``ratio[i] * (flux[i] - flux[i - 1])``, where ``ratio`` is
    dt / dx on the arcs' cells and 0 on the ghosts, in one pass over the array;
    the product and the difference are those of a per-arc update, bit for bit.
    """

    def __init__(self, model: FluxModel, grids: Sequence[ArcGrid]):
        self.model = model
        self.topology = topology_of(grids)
        n = self.topology.n
        self.orientations = [g.orientation for g in grids]
        self.dx = [g.dx for g in grids]
        cells = np.array([g.cells for g in grids])
        first = np.cumsum(cells + 1) - cells
        last = first + cells - 1
        size = int(cells.sum()) + len(grids) + 1
        self.u = np.zeros(size)
        self.arcs = [self.u[a:a + c] for a, c in zip(first, cells)]
        for view, g in zip(self.arcs, grids):
            view[:] = g.rho
        _check_densities(self.u)
        np.clip(self.u, 0.0, 1.0, out=self.u)
        self.first = first.tolist()
        # when the arcs are all the same length: one row per arc, ghosts skipped
        self.rows = self.u[:-1].reshape(len(grids), -1)[:, 1:] \
            if (cells == cells[0]).all() else None
        self.ratio_dt = None
        self.ratio = np.zeros(size)
        self.node_cells = np.concatenate((last[:n], first[n:]))
        self.outer_cells = np.concatenate((first[:n], last[n:]))
        self.node_slots = np.concatenate((last[:n], first[n:] - 1))
        self.outer_slots = np.concatenate((first[:n] - 1, last[n:]))
        self.dem = np.empty(size)
        self.sup = np.empty(size)
        # the views each step works on: the interface fluxes overwrite the demands
        # (flux[i] in dem[i]), their differences the supplies of cells 1..size-2
        flux = self.dem[:-1]
        self.views = (flux, self.sup[1:], flux[1:], flux[:-1], self.sup[1:-1],
                      self.ratio[1:-1], self.u[1:-1])

    def advance(self, solver: SolverFn, dt: float) -> tuple[TraceSolution, float, float]:
        """One Godunov step; returns the node solution and the outer in/outflow."""
        u, n = self.u, self.topology.n
        flux, sup_right, flux_right, flux_left, change, ratio, inner = self.views
        node = solver(RiemannState._proved(self.topology,
                                           tuple(u[self.node_cells].tolist())))
        sup = self.model._value(u, out=self.sup, work=self.dem)
        outer = sup[self.outer_cells]
        outer_flux = outer.tolist()
        _demand_supply(self.model, u, self.dem, sup)
        np.minimum(flux, sup_right, out=flux)
        flux[self.node_slots] = node.gamma
        flux[self.outer_slots] = outer
        np.subtract(flux_right, flux_left, out=change)
        if dt != self.ratio_dt:  # dt / dx on each arc's cells; a run uses two dt at most
            self.ratio_dt = dt
            for view, a, dx in zip(self.arcs, self.first, self.dx):
                self.ratio[a:a + view.size] = dt / dx
        change *= ratio
        inner -= change
        if not (float(u.min()) >= 0.0 and float(u.max()) <= RHO_MAX):  # NaN too
            _check_densities(u)
            np.clip(u, 0.0, RHO_MAX, out=u)
        inflow = outflow = 0.0
        for value in outer_flux[:n]:
            inflow += value
        for value in outer_flux[n:]:
            outflow += value
        return node, inflow, outflow

    def mass(self) -> float:
        """Sum over the arcs of (cell sum) * dx. Each cell sum is the bits of
        ``v.sum()``: equal arcs take one reduction along the rows of ``rows``,
        ragged ones one reduction each."""
        if self.rows is not None:
            sums = np.add.reduce(self.rows, axis=1).tolist()
        else:
            sums = [float(np.add.reduce(v)) for v in self.arcs]
        return sum([s * dx for s, dx in zip(sums, self.dx)])

    def close(self) -> None:
        """Free the work buffers before the final copies are made, so that a run
        never holds both; the densities stay readable."""
        self.dem = self.sup = self.ratio = self.views = None

    def grids(self) -> list[ArcGrid]:
        """A copy of every arc's densities, each in its own grid."""
        return [ArcGrid._proved(o, dx, v.copy())
                for o, dx, v in zip(self.orientations, self.dx, self.arcs)]


@dataclass
class StepResult:
    grids: list[ArcGrid]
    dt: float
    node: TraceSolution
    inflow: float
    outflow: float


def _checked_dt(config: SimConfig, grids: Sequence[ArcGrid],
                dt: float | None) -> float:
    dt_max = max_stable_dt(config.flux, grids)
    if dt is None:
        return config.cfl * dt_max
    if not dt > 0.0:  # NaN too
        raise StepSizeError(f"dt must be positive, got {dt!r}")
    if dt > dt_max * (1.0 + CFL_SLACK):
        raise StepSizeError(
            f"dt {dt!r} violates the CFL bound {dt_max!r} "
            f"(max wave speed {config.flux.max_wave_speed()!r})")
    return dt


def step(grids: Sequence[ArcGrid], config: SimConfig,
         dt: float | None = None) -> StepResult:
    """Advance every arc by one Godunov step, coupling them through the node solver."""
    arcs = _FlatArcs(config.flux, grids)
    dt = _checked_dt(config, grids, dt)
    node, inflow, outflow = arcs.advance(config.solver, dt)
    arcs.close()
    return StepResult(arcs.grids(), dt, node, inflow, outflow)


def total_mass(grids: Sequence[ArcGrid]) -> float:
    return sum(float(g.rho.sum()) * g.dx for g in grids)


@dataclass
class SimResult:
    """Everything a run produces: final grids, ledger, snapshots, node history."""

    topology: NodeTopology
    grids: list[ArcGrid]
    ledger: list[tuple[float, float, float, float]]
    snapshots: list[tuple[float, list[ArcGrid]]]
    node_history: list[tuple[float, TraceSolution]] = field(default_factory=list)

    def boundary_state(self) -> RiemannState:
        return RiemannState(self.topology,
                            tuple(g.boundary_value for g in self.grids))

    def mass_drift(self) -> float:
        """Worst absolute violation of mass(t) - mass(0) = in - out over the run."""
        _, m0, _, _ = self.ledger[0]
        return max(abs(m - m0 - (bi - bo)) for _, m, bi, bo in self.ledger)


def make_grids(topology: NodeTopology, initial: Sequence, cells: int = 200,
               length: float = 1.0) -> list[ArcGrid]:
    """Build one grid per arc from scalars (uniform) or per-cell arrays; ``cells``
    must be an integer."""
    if len(initial) != topology.total:
        raise TopologyError(
            f"need {topology.total} initial profiles, got {len(initial)}")
    cells = _integer(cells, "cells")
    if cells < 2 or not length > 0.0:
        raise InputError("need at least 2 cells and a positive arc length")
    grids = []
    for l, profile in enumerate(initial):
        orientation = INCOMING if l < topology.n else OUTGOING
        try:
            rho = np.full(cells, _parameter(profile, "initial value")) \
                if np.isscalar(profile) else np.asarray(profile, dtype=float)
        except (ValueError, MemoryError) as exc:  # more cells than numpy or memory holds
            raise InputError(f"cannot build the grid of arc {l}: {exc}") from exc
        grids.append(ArcGrid(orientation, length / rho.size, rho))
    return grids


def run(config: SimConfig, grids: Sequence[ArcGrid],
        snapshot_times: Sequence[float] = (), steps: int | None = None) -> SimResult:
    """Iterate the Godunov step until ``t_end`` (or a fixed step count).

    Snapshots are recorded at t=0, at the first step crossing each requested time,
    and at the end. The ledger gains one row per step. ``steps``, when given, is
    a non-negative int; without it, a ``t_end`` that needs more than
    :data:`MAX_STEPS` steps raises InputError.
    """
    if steps is not None and _integer(steps, "steps") < 0:
        raise InputError(f"steps must be a non-negative integer, got {steps!r}")
    arcs = _FlatArcs(config.flux, grids)
    dt_step = _checked_dt(config, grids, None)
    # ceil(t_end / dt) > MAX_STEPS exactly when t_end / dt > MAX_STEPS, which an
    # overflow to inf cannot turn into an error of its own
    if steps is None and config.t_end / dt_step > MAX_STEPS:
        raise InputError(f"'t_end' {config.t_end!r} needs more than {MAX_STEPS} "
                         f"time steps")
    t = 0.0
    ledger = [(0.0, arcs.mass(), 0.0, 0.0)]
    snapshots = [(0.0, arcs.grids())]
    pending = sorted(set(float(s) for s in snapshot_times if s > 0.0))
    node_history: list[tuple[float, TraceSolution]] = []
    in_cum = 0.0
    out_cum = 0.0
    count = 0
    while (count < steps) if steps is not None else (t < config.t_end - TIME_TOL):
        dt = dt_step if steps is not None else min(dt_step, config.t_end - t)
        node, inflow, outflow = arcs.advance(config.solver, dt)
        t += dt
        count += 1
        in_cum += inflow * dt
        out_cum += outflow * dt
        ledger.append((t, arcs.mass(), in_cum, out_cum))
        node_history.append((t, node))
        while pending and t >= pending[0] - TIME_TOL:
            snapshots.append((t, arcs.grids()))
            pending.pop(0)
    arcs.close()
    if snapshots[-1][0] != t:
        snapshots.append((t, arcs.grids()))
    return SimResult(arcs.topology, arcs.grids(), ledger, snapshots, node_history)


def write_snapshots_csv(result: SimResult, path) -> None:
    """Emit snapshots as rows (t, arc, x, rho), one ``%`` format per snapshot arc,
    with each arc geometry's x column formatted once."""
    x_tails: dict[tuple, list[str]] = {}
    with open(path, "w", newline="") as fh:
        fh.write("t,arc,x,rho\r\n")
        for t, grids in result.snapshots:
            for arc, g in enumerate(grids):
                key = (g.orientation, g.dx, g.cells)
                tails = x_tails.get(key)
                if tails is None:
                    tails = x_tails[key] = ["%.17g,%%.17g\r\n" % x
                                            for x in g.x_centers().tolist()]
                head = ("%.17g,%d," % (t, arc)).replace("%", "%%")
                fh.write((head + head.join(tails)) % tuple(g.rho.tolist()))


def write_mass_csv(result: SimResult, path) -> None:
    """Emit the ledger as rows (t, total_mass, boundary_in, boundary_out), all
    through one ``%`` format."""
    with open(path, "w", newline="") as fh:
        fh.write("t,total_mass,boundary_in,boundary_out\r\n")
        fh.write("%.17g,%.17g,%.17g,%.17g\r\n" * len(result.ledger)
                 % tuple([v for t, m, bi, bo in result.ledger for v in (t, m, bi, bo)]))


def summary_json(result: SimResult) -> dict:
    """Compact JSON summary of a finished run."""
    t_final, mass_final, in_cum, out_cum = result.ledger[-1]
    return {
        "n": result.topology.n,
        "m": result.topology.m,
        "t_final": t_final,
        "steps": len(result.ledger) - 1,
        "total_mass": mass_final,
        "boundary_in": in_cum,
        "boundary_out": out_cum,
        "mass_drift": result.mass_drift(),
        "boundary_state": list(result.boundary_state().rho),
        "node_gamma": list(result.node_history[-1][1].gamma)
        if result.node_history else None,
    }
