"""Node topology, Riemann data, and boundary-trace solutions.

A node joins ``n`` incoming arcs (modelled on ]-inf, 0]) and ``m`` outgoing arcs
(modelled on [0, +inf[). States are vectors of n+m densities, incoming arcs first.
A solver maps an initial state to a :class:`TraceSolution`: the node-side boundary
traces, their fluxes, and the balance/admissibility verdicts.

Each density is checked once, where it enters: the public :class:`RiemannState`
constructor and :meth:`TraceSolution.from_traces` check every density they get.
Densities already proved to be floats in [0, 1], where a repeat check could only
return what it was given, build their state with the unchecked
``RiemannState._proved``: the Godunov step's node cells, and the traces of
:meth:`TraceSolution.from_fluxes` (the checked datum, sigma or the clamped output of
the flux's ``_invert``). Checked densities go to the flux's unchecked kernels
(``_scalar``, ``_invert``, ``_contains_in``/``_contains_out``), never back through
its public checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InadmissibleFluxError, InputError, TopologyError
from .flux import FluxInterval, FluxModel, _check_density, _floats, _integer
from .tolerances import BALANCE_TOL, FIXED_POINT_TOL, FLUX_SLACK, KEEP_TOL


@dataclass(frozen=True)
class NodeTopology:
    """Arc counts at the node: ``n`` incoming, ``m`` outgoing, each an integer >= 1
    (a numpy integer is stored as an int; a bool is refused)."""

    n: int
    m: int

    def __post_init__(self):
        n = _integer(self.n, "arc count n", TopologyError)
        m = _integer(self.m, "arc count m", TopologyError)
        if n < 1 or m < 1:
            raise TopologyError(f"need at least one arc per side, got {n}x{m}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)

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
        arc = _integer(arc, "arc index", TopologyError)
        if not 0 <= arc < self.total:
            raise TopologyError(f"arc index {arc} out of range for {self.n}x{self.m}")
        return arc < self.n


@dataclass(frozen=True)
class RiemannState:
    """Constant initial data (or traces) on every arc at the node."""

    topology: NodeTopology
    rho: tuple[float, ...]

    def __post_init__(self):
        try:
            count = len(self.rho)
        except TypeError as exc:  # not a sequence
            raise InputError(f"need a sequence of densities, got {self.rho!r}") from exc
        if count != self.topology.total:
            raise InputError(f"expected {self.topology.total} densities, got {count}")
        clean = tuple([float(_check_density(r)) for r in self.rho])
        object.__setattr__(self, "rho", clean)

    @staticmethod
    def _proved(topology: NodeTopology, rho: tuple[float, ...]) -> "RiemannState":
        """The state of ``rho``, a tuple of ``topology.total`` floats proved to lie
        in [0, 1], without the public constructor's checks."""
        state = object.__new__(RiemannState)
        fields = state.__dict__
        fields["topology"] = topology
        fields["rho"] = rho
        return state

    @property
    def incoming(self) -> tuple[float, ...]:
        return self.rho[:self.topology.n]

    @property
    def outgoing(self) -> tuple[float, ...]:
        return self.rho[self.topology.n:]

    @staticmethod
    def from_json(obj) -> "RiemannState":
        try:  # a TopologyError is a ValueError: a bad count is malformed input here
            topo = NodeTopology(obj["n"], obj["m"])
            rho = _floats(obj["rho"], "density")
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
        value = model._scalar
        gamma = tuple([value(r) for r in state.rho])
        n = topo.n
        rho0, rho = initial.rho, state.rho
        ok = all(map(model._contains_in, rho0[:n], rho[:n])) \
            and all(map(model._contains_out, rho0[n:], rho[n:]))
        return TraceSolution(state, gamma,
                             abs(flux_imbalance(topo, gamma)) <= BALANCE_TOL, ok)

    @staticmethod
    def from_fluxes(model: FluxModel, initial: RiemannState,
                    caps: Sequence[FluxInterval],
                    gamma: Sequence[float]) -> "TraceSolution":
        """The solution whose arc fluxes are ``gamma``, each inside its arc's demand
        (incoming) or supply (outgoing) interval ``caps``.

        One pass over the arcs finds each trace as :func:`trace_in_from_flux` or
        :func:`trace_out_from_flux` does, its flux, and its admissibility. f(datum)
        is evaluated once per arc and is the flux of a kept trace; the verdicts are
        those of :meth:`from_traces` on the same traces, bit for bit. Every trace is
        the checked datum, sigma or ``_invert``'s clamped output, so the flux's
        kernels take it unchecked and the traces' state is built unchecked.
        """
        topo = initial.topology
        n = topo.n
        value, contains_in, contains_out = \
            model._scalar, model._contains_in, model._contains_out
        traces, fluxes = [], []
        ok = True
        for l, (r, cap, g) in enumerate(zip(initial.rho, caps, gamma)):
            f0 = value(r)
            incoming = l < n
            trace = _trace_from_flux(model, r, f0, cap.sup, g, incoming)
            traces.append(trace)
            fluxes.append(f0 if trace is r else value(trace))
            if ok:
                ok = contains_in(r, trace) if incoming else contains_out(r, trace)
        fluxes = tuple(fluxes)
        return TraceSolution(RiemannState._proved(topo, tuple(traces)), fluxes,
                             abs(flux_imbalance(topo, fluxes)) <= BALANCE_TOL, ok)

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
    return _trace_from_flux(model, rho0, model._scalar(rho0), model.demand(rho0).sup,
                            gamma, True)


def trace_out_from_flux(model: FluxModel, rho0: float, gamma: float) -> float:
    """Node-side trace of an outgoing arc receiving flux ``gamma``.

    Mirror of :func:`trace_in_from_flux`: off-datum traces live on the increasing
    branch, and ``gamma`` must lie in the supply interval of ``rho0``.
    """
    rho0 = _check_density(rho0, "datum")
    return _trace_from_flux(model, rho0, model._scalar(rho0), model.supply(rho0).sup,
                            gamma, False)


def _trace_from_flux(model: FluxModel, rho0: float, f0: float, cap: float,
                     gamma: float, incoming: bool) -> float:
    """:func:`trace_in_from_flux` (``incoming``) or :func:`trace_out_from_flux` for a
    checked datum ``rho0`` whose flux ``f0`` and demand or supply ``cap`` (the sup
    of its interval) are known; a kept datum is returned as the very object
    ``rho0``. A flux inside the cap's slack is a finite number the inverse takes
    unchecked."""
    if not -FLUX_SLACK <= gamma <= cap + FLUX_SLACK:  # NaN fails too
        side = "demand of incoming" if incoming else "supply of outgoing"
        raise InadmissibleFluxError(f"flux {gamma!r} outside {side} datum {rho0!r}")
    if abs(f0 - gamma) <= KEEP_TOL:
        return rho0
    if model.f_max - gamma <= KEEP_TOL:
        return model.sigma
    return model._invert(gamma, not incoming)


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
