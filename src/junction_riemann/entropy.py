"""Entropy functional at the node, admissibility checks, and face geometry.

For a trace vector rho at an n x m node and a constant k in [0, 1], the node entropy
functional is

    F(rho, k) = sum over incoming arcs of sgn(rho_l - k) (f(rho_l) - f(k))
              - sum over outgoing arcs of sgn(rho_l - k) (f(rho_l) - f(k)),

with sgn(0) = 0. Two admissibility notions are built on it: the global condition (E1),
F(rho, k) >= 0 for every k, and the weaker single-constant condition (E2) at k = sigma.

Because each term is piecewise (constant + integer multiple of f(k)) in k, the minimum
over k is attained on the finite candidate set {0, 1, sigma} union {rho_l}, which is
what check_E1 evaluates; a dense-grid cross-check lives in the test suite.

For 2 x 2 nodes, balanced trace vectors are classified into the admissible rows of a
finite table (sorted by density on each side); the classification is equivalent to (E1).

The face machinery evaluates F(., sigma) restricted to a face of the flux polytope
(a set of arcs pinned at their demand/supply maxima) in closed form and verifies that,
composed with trace reconstruction, the objective differs from twice the free incoming
flux by a constant on each face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import (FaceMismatchError, InputError, InvalidMatrixError,
                     TopologyError, UnbalancedStateError)
from .flux import FluxModel, _check_density, _integer
from .junction import NodeTopology, RiemannState, TraceSolution, flux_imbalance
from .sampling import default_rng
from .solvers import DistributionMatrix, _caps, _check_matrix_shape, matrix_in_n
from .tolerances import (BALANCE_TOL, CLASSIFY_EQ_TOL, ENTROPY_TOL, FACE_MARGIN,
                         FACE_SPREAD_TOL, FACE_TOL, SIGMA_TIE, SINGULAR_TOL)


def entropy_flux(model: FluxModel, state: RiemannState, k: float) -> float:
    """The node entropy functional F(rho, k); no balance requirement."""
    k = _check_density(k, "entropy constant")
    _, ins, outs = _sides(state, _trace_fluxes(model, state))
    return _entropy_sum(ins, outs, k, float(model._value(k)))


def _trace_fluxes(model: FluxModel, state: RiemannState) -> list[float]:
    """f(rho_l) on every arc; the densities were checked by RiemannState."""
    value = model._value
    return [float(value(r)) for r in state.rho]


def _sides(state: RiemannState, fr: Sequence[float]):
    """Every arc's (density, flux) pair, then those of the incoming and of the
    outgoing arcs."""
    pairs = list(zip(state.rho, fr))
    n = state.topology.n
    return pairs, pairs[:n], pairs[n:]


def _entropy_sum(ins, outs, k: float, fk: float) -> float:
    """F(rho, k) in arc order from each side's (density, flux) pairs and fk = f(k);
    fk - f is -(f - fk) exactly, and an arc at k would add a zero."""
    total = 0.0
    for r, f in ins:
        if r != k:
            total += f - fk if r > k else fk - f
    for r, f in outs:
        if r != k:
            total += fk - f if r > k else f - fk
    return total


def entropy_candidates(model: FluxModel,
                       state: RiemannState) -> tuple[tuple[float, float], ...]:
    """(k, F(rho, k)) over the finite candidate set {0, 1, sigma} union {rho_l}."""
    return _candidates(model, state, _trace_fluxes(model, state))


def _candidates(model: FluxModel, state: RiemannState,
                fr: Sequence[float]) -> tuple[tuple[float, float], ...]:
    pairs, ins, outs = _sides(state, fr)
    # f(k) at a trace density is that trace's flux; -0.0 may stand for 0.0 there,
    # which changes only the sign of zero terms, never the sum
    known = dict(pairs)
    value = model._value
    return tuple([(k, _entropy_sum(ins, outs, k,
                                   known[k] if k in known else float(value(k))))
                  for k in sorted({0.0, 1.0, model.sigma, *state.rho})])


def _check_tolerance(tol: float, what: str) -> None:
    """A verdict threshold must be a finite number >= 0: NaN or a negative one fails
    every state, an infinite one passes every state."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise InputError(f"{what} {tol!r} must be a finite number >= 0")


@dataclass(frozen=True)
class EntropyReport:
    """Outcome of the entropy checks; E1 fields are None for an E2-only check."""

    min_value: float | None
    argmin_k: float | None
    candidates: tuple[tuple[float, float], ...]
    satisfied_E1: bool | None
    value_at_sigma: float
    satisfied_E2: bool

    def to_json(self) -> dict:
        return {
            "min_value": self.min_value,
            "argmin_k": self.argmin_k,
            "candidates": [[k, v] for k, v in self.candidates],
            "satisfied_E1": self.satisfied_E1,
            "value_at_sigma": self.value_at_sigma,
            "satisfied_E2": self.satisfied_E2,
        }


def _require_balanced(model: FluxModel, state: RiemannState) -> list[float]:
    """The trace fluxes f(rho_l), after checking that they balance."""
    gamma = _trace_fluxes(model, state)
    gap = flux_imbalance(state.topology, gamma)
    if abs(gap) > BALANCE_TOL:
        raise UnbalancedStateError(f"trace fluxes do not balance (gap {gap!r})")
    return gamma


def check_E1(model: FluxModel, state: RiemannState,
             tol: float = ENTROPY_TOL) -> EntropyReport:
    """Evaluate the global entropy condition via the finite candidate set.

    ``tol`` must be finite and >= 0 (InputError otherwise).
    """
    _check_tolerance(tol, "entropy tolerance")
    candidates = _candidates(model, state, _require_balanced(model, state))
    argmin_k, min_value = min(candidates, key=itemgetter(1))
    at_sigma = dict(candidates)[model.sigma]
    return EntropyReport(min_value=min_value, argmin_k=argmin_k,
                         candidates=candidates, satisfied_E1=min_value >= -tol,
                         value_at_sigma=at_sigma, satisfied_E2=at_sigma >= -tol)


def check_E2(model: FluxModel, state: RiemannState) -> EntropyReport:
    """Evaluate only the single-constant condition at k = sigma.

    The condition separates solvers only on square nodes. For n != m every
    balanced state whose traces all lie at or below sigma has
    F(rho, sigma) = (n - m) f_max, and one whose traces all lie at or above sigma
    has (m - n) f_max, whatever solver produced it; one of the two is negative.
    """
    _, ins, outs = _sides(state, _require_balanced(model, state))
    at_sigma = _entropy_sum(ins, outs, model.sigma, float(model._value(model.sigma)))
    return EntropyReport(min_value=None, argmin_k=None, candidates=(),
                         satisfied_E1=None, value_at_sigma=at_sigma,
                         satisfied_E2=at_sigma >= -ENTROPY_TOL)


# -- 2 x 2 classification -----------------------------------------------------------

#: row identifiers of the admissible 2x2 table; "none" marks an unmatched state.
ROWS_2X2 = ("0-bad", "1-bad-incoming", "1-bad-outgoing", "2-bad-incoming",
            "2-bad-outgoing", "2-bad-mixed", "3-bad-good-incoming",
            "3-bad-good-outgoing", "4-bad")


@dataclass(frozen=True)
class EquilibriumClassification:
    """Verdict of the 2x2 table: bad-arc count, sort permutation, row, and result."""

    bad_count: int
    permutation: tuple[int, int, int, int]
    row: str
    admissible: bool

    def to_json(self) -> dict:
        return {"bad_count": self.bad_count, "permutation": list(self.permutation),
                "row": self.row, "admissible": self.admissible}


def classify_2x2(model: FluxModel, state: RiemannState,
                 eq_tol: float = CLASSIFY_EQ_TOL) -> EquilibriumClassification:
    """Classify a balanced 2x2 trace vector against the admissible-row table.

    An incoming trace is *bad* when it is strictly below sigma, an outgoing one when
    strictly above (a trace at sigma is good in both directions). Each side is sorted
    ascending before matching (equal traces keep arc order), and the applied permutation
    is reported. ``eq_tol`` must be finite and >= 0 (InputError otherwise).
    """
    topo = state.topology
    if (topo.n, topo.m) != (2, 2):
        raise TopologyError(f"classification needs a 2x2 node, got {topo.n}x{topo.m}")
    _check_tolerance(eq_tol, "classification tolerance")
    fr = _require_balanced(model, state)
    s = model.sigma
    rho = state.rho
    # a stable sort of two: the pair keeps its order unless the second is smaller
    perm = ((0, 1) if rho[0] <= rho[1] else (1, 0)) + \
        ((2, 3) if rho[2] <= rho[3] else (3, 2))
    r1, r2, r3, r4 = [rho[i] for i in perm]
    bad = [r1 < s - SIGMA_TIE, r2 < s - SIGMA_TIE,
           r3 > s + SIGMA_TIE, r4 > s + SIGMA_TIE]
    count = sum(bad)

    # the table's comparisons: a <= b is a <= b + eq_tol, a == b is |a - b| <= eq_tol
    row, ok = "none", False
    if count == 0:
        if all(abs(r - s) <= eq_tol for r in (r1, r2, r3, r4)):
            row, ok = "0-bad", True
    elif count == 1:
        if bad[0] and abs(r2 - s) <= eq_tol and r1 <= r3 + eq_tol:
            row, ok = "1-bad-incoming", True
        elif bad[3] and abs(r3 - s) <= eq_tol and r2 <= r4 + eq_tol:
            row, ok = "1-bad-outgoing", True
    elif count == 2:
        if bad[0] and bad[1] and r1 <= r3 + eq_tol and r4 <= r2 + eq_tol:
            row, ok = "2-bad-incoming", True
        elif bad[2] and bad[3] and r3 <= r1 + eq_tol and r2 <= r4 + eq_tol:
            row, ok = "2-bad-outgoing", True
        elif bad[0] and bad[3] and r1 <= r3 + eq_tol and r2 <= r4 + eq_tol:
            row, ok = "2-bad-mixed", True
    elif count == 3:
        fv = [fr[i] for i in perm]
        if not bad[1] and r2 <= r4 + eq_tol and fv[0] <= max(fv[1], fv[2]) + eq_tol:
            row, ok = "3-bad-good-incoming", True
        elif not bad[2] and r1 <= r3 + eq_tol and fv[3] <= max(fv[1], fv[2]) + eq_tol:
            row, ok = "3-bad-good-outgoing", True
    else:
        row, ok = "4-bad", True
    return EquilibriumClassification(bad_count=count, permutation=perm, row=row,
                                     admissible=ok)


# -- faces of the flux polytope -------------------------------------------------------

@dataclass(frozen=True)
class RestrictedEntropy:
    """F(., sigma) on a face: direct evaluation and the closed form."""

    direct: float
    closed_form: float


def face_entropy_closed_form(model: FluxModel, traces: RiemannState,
                             active: Iterable[int]) -> float:
    """Closed form of F(rho, sigma) on the face with active-arc set ``active``.

    Arcs in the active set contribute f(sigma) - f(rho_l); the others contribute
    f(rho_l) - f(sigma). Performs no face validation (see restricted_entropy_g).
    """
    H = _active_set(active, traces.topology, face=False)
    fs = model.f_max
    total = 0.0
    for l, r in enumerate(traces.rho):
        fr = float(model.value(r))
        total += (fs - fr) if l in H else (fr - fs)
    return total


def _active_set(active: Iterable[int], topology: NodeTopology,
                face: bool = True) -> frozenset[int]:
    """``active`` as a set of arc indices, checked to be integers in range and, for a
    face of the flux polytope (``face``), to hold at most n - 1 arcs."""
    H = frozenset([_integer(l, "active-set index") for l in active])
    bad = [l for l in H if not 0 <= l < topology.total]
    if bad:
        raise FaceMismatchError(f"active-set indices {sorted(bad)} out of range")
    if face and len(H) > topology.n - 1:
        raise FaceMismatchError(
            f"active set has {len(H)} arcs; at most n-1 = {topology.n - 1} allowed")
    return H


def face_active_set(model: FluxModel, initial: RiemannState,
                    gamma: Sequence[float]) -> frozenset[int]:
    """Arcs whose flux sits at its demand/supply maximum (within ``FACE_TOL``)."""
    topo = initial.topology
    if len(gamma) != topo.total:
        raise TopologyError("flux vector length does not match the topology")
    caps = _caps(model, initial)
    return frozenset(l for l, (g, cap) in enumerate(zip(gamma, caps))
                     if abs(g - cap.sup) <= FACE_TOL)


def restricted_entropy_g(model: FluxModel, initial: RiemannState,
                         traces: RiemannState,
                         active: Iterable[int]) -> RestrictedEntropy:
    """Evaluate F(., sigma) on a face both directly and in closed form.

    ``initial`` is the Riemann datum defining the demand/supply caps, ``traces`` the
    candidate point, ``active`` the face's saturated-arc set (at most n-1 arcs).
    Raises FaceMismatchError when the point does not lie on that face.
    """
    topo = initial.topology
    if traces.topology != topo:
        raise TopologyError("trace vector topology does not match the datum")
    H = _active_set(active, topo)
    for l in range(topo.total):
        member = (model.contains_trace_in(initial.rho[l], traces.rho[l]) if l < topo.n
                  else model.contains_trace_out(initial.rho[l], traces.rho[l]))
        if not member:
            raise FaceMismatchError(f"trace on arc {l} is not admissible for the datum")
    gamma = [float(model.value(r)) for r in traces.rho]
    actual = face_active_set(model, initial, gamma)
    if actual != H:
        raise FaceMismatchError(
            f"trace vector lies on face {sorted(actual)}, not {sorted(H)}")
    direct = entropy_flux(model, traces, model.sigma)
    closed = face_entropy_closed_form(model, traces, H)
    return RestrictedEntropy(direct=direct, closed_form=closed)


@dataclass(frozen=True)
class FaceSampleReport:
    """Sampled test of objective/entropy equivalence on one face."""

    active: frozenset[int]
    face_nonempty: bool
    gammas: tuple[tuple[float, ...], ...]
    values: tuple[float, ...]
    spread: float
    constant: bool


def face_objective_equivalence(model: FluxModel, initial: RiemannState, matrix,
                               active: Iterable[int], samples: int = 100,
                               rng: np.random.Generator | None = None
                               ) -> FaceSampleReport:
    """Sample a face of the flux polytope and test G(traces) - 2 E_free == const.

    ``matrix`` routes incoming flux to outgoing arcs (a DistributionMatrix or array).
    E_free is the total incoming flux over the arcs not pinned by the face. On every
    face the difference is constant; the report carries the sampled values and spread.
    ``samples`` must be an integer >= 1 (InputError otherwise).
    """
    if _integer(samples, "samples") < 1:
        raise InputError(f"samples must be an integer >= 1, got {samples!r}")
    topo = initial.topology
    if not isinstance(matrix, DistributionMatrix):
        matrix = DistributionMatrix.from_rows(matrix)
    _check_matrix_shape(matrix, topo, TopologyError)
    if not matrix_in_n(matrix):
        raise InvalidMatrixError("matrix outside the uniqueness class")
    H = _active_set(active, topo)
    rng = rng if rng is not None else default_rng()

    n = topo.n
    A = matrix.as_array()
    intervals = _caps(model, initial)
    caps = np.array([c.sup for c in intervals])

    # the face pins each arc in H at its cap: row l of [I; A] times gamma = caps[l]
    pinned = sorted(H)
    if pinned:
        E = np.vstack((np.eye(n), A))[pinned]
        d = caps[pinned]
        z0, *_ = np.linalg.lstsq(E, d, rcond=None)
        if np.linalg.norm(E @ z0 - d) > FACE_TOL:
            return FaceSampleReport(H, False, (), (), 0.0, True)
        _, sv, vt = np.linalg.svd(E)
        rank = int(np.sum(sv > SINGULAR_TOL))
        null = vt[rank:].T
    else:
        z0 = np.zeros(n)
        null = np.eye(n)

    span = 2.0 * max(1.0, float(caps[:n].max()))
    found: list[np.ndarray] = []
    max_tries = max(2000, samples * 500)
    for _ in range(max_tries):
        if len(found) >= samples:
            break
        g = z0 if null.shape[1] == 0 else \
            z0 + null @ rng.uniform(-span, span, null.shape[1])
        if np.any(g < 0.0):
            continue
        # pinned arcs at their caps, free arcs clearly below them
        if all(abs(f - c) <= FACE_TOL if l in H else f <= c - FACE_MARGIN * max(1.0, c)
               for l, (f, c) in enumerate(zip(np.concatenate((g, A @ g)), caps))):
            found.append(g)
            if null.shape[1] == 0:
                break

    if not found:
        return FaceSampleReport(H, False, (), (), 0.0, True)

    gammas, values = [], []
    for g in found:
        gamma = (*g.tolist(), *(A @ g).tolist())
        traces = TraceSolution.from_fluxes(model, initial, intervals, gamma).state
        g_val = entropy_flux(model, traces, model.sigma)
        e_free = sum(gamma[i] for i in range(n) if i not in H)
        gammas.append(gamma)
        values.append(g_val - 2.0 * e_free)
    spread = max(values) - min(values)
    return FaceSampleReport(H, True, tuple(gammas), tuple(values), spread,
                            spread <= FACE_SPREAD_TOL)
