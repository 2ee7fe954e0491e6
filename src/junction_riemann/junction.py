"""Node topology, Riemann data, and boundary-trace solutions.

A node joins ``n`` incoming arcs (modelled on ]-inf, 0]) and ``m`` outgoing arcs
(modelled on [0, +inf[). States are vectors of n+m densities, incoming arcs first.
A solver maps an initial state to a :class:`TraceSolution`: the node-side boundary
traces, their fluxes, and the balance/admissibility verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InadmissibleFluxError, InputError, TopologyError
from .flux import DECREASING, INCREASING, FluxInterval, FluxModel, _check_density
from .tolerances import BALANCE_TOL, FIXED_POINT_TOL, KEEP_TOL


@dataclass(frozen=True)
class NodeTopology:
    """Arc counts at the node: ``n`` incoming, ``m`` outgoing."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise TopologyError(f"need at least one arc per side, got {self.n}x{self.m}")

    @property
    def total(self) -> int:
        return self.n + self.m

    @property
    def incoming(self) -> range:
        return range(self.n)

    @property
    def outgoing(self) -> range:
        return range(self.n, self.n + self.m)

    def is_incoming(self, arc: int) -> bool:
        if not 0 <= arc < self.total:
            raise TopologyError(f"arc index {arc} out of range for {self.n}x{self.m}")
        return arc < self.n


@dataclass(frozen=True)
class RiemannState:
    """Constant initial data (or traces) on every arc at the node."""

    topology: NodeTopology
    rho: tuple[float, ...]

    def __post_init__(self):
        if len(self.rho) != self.topology.total:
            raise InputError(
                f"expected {self.topology.total} densities, got {len(self.rho)}")
        clean = tuple([float(_check_density(r)) for r in self.rho])
        object.__setattr__(self, "rho", clean)

    @property
    def incoming(self) -> tuple[float, ...]:
        return self.rho[:self.topology.n]

    @property
    def outgoing(self) -> tuple[float, ...]:
        return self.rho[self.topology.n:]

    @staticmethod
    def from_json(obj) -> "RiemannState":
        try:
            topo = NodeTopology(int(obj["n"]), int(obj["m"]))
            rho = tuple(float(r) for r in obj["rho"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad state object: {exc}") from exc
        return RiemannState(topo, rho)

    def to_json(self) -> dict:
        return {"n": self.topology.n, "m": self.topology.m, "rho": list(self.rho)}


def flux_imbalance(topology: NodeTopology, gamma: Sequence[float]) -> float:
    """Signed mismatch sum(incoming fluxes) - sum(outgoing fluxes)."""
    if len(gamma) != topology.total:
        raise TopologyError("flux vector length does not match the topology")
    return sum(gamma[:topology.n]) - sum(gamma[topology.n:])


@dataclass(frozen=True)
class TraceSolution:
    """Boundary traces produced by a solver, with their fluxes and verdicts."""

    state: RiemannState
    gamma: tuple[float, ...]
    balanced: bool
    admissible: bool

    @staticmethod
    def from_traces(model: FluxModel, initial: RiemannState,
                    traces: "RiemannState | Sequence[float]") -> "TraceSolution":
        topo = initial.topology
        values = traces.rho if isinstance(traces, RiemannState) else tuple(traces)
        state = RiemannState(topo, values)
        value = model._value
        gamma = tuple([float(value(r)) for r in state.rho])
        n = topo.n
        balanced = abs(sum(gamma[:n]) - sum(gamma[n:])) <= BALANCE_TOL
        rho0, rho = initial.rho, state.rho
        ok = all(map(model.contains_trace_in, rho0[:n], rho[:n])) \
            and all(map(model.contains_trace_out, rho0[n:], rho[n:]))
        return TraceSolution(state, gamma, balanced, ok)

    def to_json(self) -> dict:
        out = self.state.to_json()
        out.update(gamma=list(self.gamma), balanced=self.balanced,
                   admissible=self.admissible)
        return out


#: anything that maps a node state to a trace solution, such as a solver handle.
SolverFn = Callable[[RiemannState], TraceSolution]


def check_flux_balance(solution: TraceSolution) -> bool:
    """Whether incoming and outgoing total flux agree within ``BALANCE_TOL``."""
    return abs(flux_imbalance(solution.state.topology, solution.gamma)) <= BALANCE_TOL


def trace_in_from_flux(model: FluxModel, rho0: float, gamma: float) -> float:
    """Node-side trace of an incoming arc passing flux ``gamma``.

    Keeps the initial datum when it already carries the flux, and snaps a flux within
    ``KEEP_TOL`` of f_max to sigma (inverting at the peak is ill-conditioned); otherwise
    the trace is the unique admissible density on the decreasing branch. ``gamma`` must
    lie in the demand interval of ``rho0``.
    """
    rho0 = _check_density(rho0, "datum")
    return _trace_from_flux(model, rho0, model.demand(rho0), gamma, True)


def trace_out_from_flux(model: FluxModel, rho0: float, gamma: float) -> float:
    """Node-side trace of an outgoing arc receiving flux ``gamma``.

    Mirror of :func:`trace_in_from_flux`: off-datum traces live on the increasing
    branch, and ``gamma`` must lie in the supply interval of ``rho0``.
    """
    rho0 = _check_density(rho0, "datum")
    return _trace_from_flux(model, rho0, model.supply(rho0), gamma, False)


def _trace_from_flux(model: FluxModel, rho0: float, cap: FluxInterval, gamma: float,
                     incoming: bool) -> float:
    """:func:`trace_in_from_flux` (``incoming``) or :func:`trace_out_from_flux` for a
    checked datum ``rho0`` whose demand or supply ``cap`` is known."""
    if not cap.contains(gamma):
        side = "demand of incoming" if incoming else "supply of outgoing"
        raise InadmissibleFluxError(f"flux {gamma!r} outside {side} datum {rho0!r}")
    if abs(model._value(rho0) - gamma) <= KEEP_TOL:
        return rho0
    if model.f_max - gamma <= KEEP_TOL:
        return model.sigma
    return model.invert(gamma, DECREASING if incoming else INCREASING)


def is_equilibrium(solver: SolverFn, state: RiemannState) -> bool:
    """Whether ``state`` is a fixed point of the solver (traces reproduce the data)."""
    out = solver(state)
    return max(abs(a - b) for a, b in zip(out.state.rho, state.rho)) <= FIXED_POINT_TOL


def check_consistency(solver: SolverFn, state: RiemannState) -> bool:
    """Whether re-solving from the solver's own output reproduces that output."""
    once = solver(state)
    twice = solver(once.state)
    return max(abs(a - b)
               for a, b in zip(twice.state.rho, once.state.rho)) <= FIXED_POINT_TOL
