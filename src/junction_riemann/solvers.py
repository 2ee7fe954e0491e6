"""Riemann solvers at the node and their supporting optimization routines.

Five solvers are provided, all mapping a :class:`RiemannState` to a
:class:`TraceSolution`:

* ``rs1_solve``      -- maximizes total incoming flux subject to a distribution matrix
                        routing it to the outgoing arcs (unique for matrices in the
                        uniqueness class checked by :func:`matrix_in_n`).
* ``rs2_solve``      -- maximizes the through-flow, then splits it by projecting
                        priority targets onto capped simplexes on each side.
* ``rs3_solve``      -- like rs2 but with per-line caps (incoming arc i feeds outgoing
                        arc n+i) and an overall crossing capacity; needs n == m.
* ``rs_1x1_solve``   -- the classical single-road solver, min(demand, supply).
* ``rs_e1_2x2_solve``-- the constructed 2x2 solver whose outputs always satisfy the
                        global entropy condition; a finite case split on the number of
                        bad data.

The optimization helpers (exact vertex enumeration for the flux maximization, one
numpy path for every arc count, and exact capped-simplex projection by a breakpoint
search for the KKT shift, after Kiwiel 2008) are deliberately simple and are
cross-checked against independent oracles in the test suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import (DegeneracyError, InadmissibleFluxError, InputError,
                     InvalidMatrixError, TopologyError)
from .flux import DECREASING, INCREASING, FluxInterval, FluxModel
from .junction import NodeTopology, RiemannState, TraceSolution, _trace_from_flux
from .tolerances import (CAP_SLACK, FLUX_SLACK, FLUX_TIE, LP_MATCH_TOL, RANK_TOL,
                         SIGMA_TIE, SINGULAR_TOL, SUM_TO_ONE_SLACK)

#: multiply-adds per feasibility product in the LP, below OpenBLAS's multithreading
#: threshold. Handed to the thread pool, a 6x6 call took 16 ms instead of 1 ms in about
#: a third of runs on a 2-core machine. Products of 4x5 and smaller stay one call.
_GEMM_BLOCK = 1 << 16


# -- parameter types ------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionMatrix:
    """Column-stochastic routing of incoming flux: m rows (outgoing) by n columns."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise InvalidMatrixError("distribution matrix cannot be empty")
        n = len(self.rows[0])
        if any(len(r) != n for r in self.rows):
            raise InvalidMatrixError("distribution matrix rows have unequal lengths")
        for r in self.rows:
            for a in r:
                if not 0.0 < a < 1.0:
                    raise InvalidMatrixError(
                        f"entry {a!r} outside the open interval (0, 1)")
        for i in range(n):
            col = sum(r[i] for r in self.rows)
            if abs(col - 1.0) > SUM_TO_ONE_SLACK:
                raise InvalidMatrixError(f"column {i} sums to {col!r}, expected 1")

    @staticmethod
    def from_rows(values) -> "DistributionMatrix":
        try:
            rows = tuple(tuple(float(a) for a in row) for row in values)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad distribution matrix: {exc}") from exc
        return DistributionMatrix(rows)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=float)


@dataclass(frozen=True)
class ThetaWeights:
    """Strictly positive priority weights, normalized on each side of the node."""

    incoming: tuple[float, ...]
    outgoing: tuple[float, ...]

    def __post_init__(self):
        for side, values in (("incoming", self.incoming), ("outgoing", self.outgoing)):
            if not values:
                raise InputError(f"{side} weights cannot be empty")
            if any(not w > 0.0 for w in values):
                raise InputError(f"{side} weights must be strictly positive")
            if abs(sum(values) - 1.0) > SUM_TO_ONE_SLACK:
                raise InputError(f"{side} weights must sum to 1, got {sum(values)!r}")

    @staticmethod
    def uniform(topology: NodeTopology) -> "ThetaWeights":
        return ThetaWeights((1.0 / topology.n,) * topology.n,
                            (1.0 / topology.m,) * topology.m)

    @staticmethod
    def from_flat(values, n: int) -> "ThetaWeights":
        try:
            flat = tuple(float(w) for w in values)
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad weight vector: {exc}") from exc
        if len(flat) <= n:
            raise InputError(f"weight vector needs more than {n} entries")
        return ThetaWeights(flat[:n], flat[n:])


@dataclass(frozen=True)
class CrossingCapacity:
    """Upper bound on the total flux through the node (may be infinite)."""

    gamma_j: float

    def __post_init__(self):
        if not self.gamma_j > 0.0:
            raise InputError(f"crossing capacity must be positive, got {self.gamma_j!r}")


def _check_matrix_shape(matrix: DistributionMatrix, topology: NodeTopology,
                        error: type[Exception] = InvalidMatrixError) -> None:
    """Raise ``error`` unless the matrix is m x n for the n x m node."""
    if (matrix.m, matrix.n) != (topology.m, topology.n):
        raise error(f"matrix is {matrix.m}x{matrix.n}, node is {topology.n}x{topology.m}")


# -- the uniqueness class of distribution matrices -------------------------------------

def matrix_in_n(matrix: DistributionMatrix, topology: NodeTopology | None = None) -> bool:
    """Whether the matrix admits a unique flux maximizer for every cap choice.

    The test: for every nonempty tuple of at most n-1 vectors drawn from the n
    coordinate directions and the m matrix rows, the all-ones vector must stay
    outside their span. Always false when n > m (the m rows alone sum to 1).
    """
    if topology is not None:
        _check_matrix_shape(matrix, topology)
    return _in_n_cached(matrix.rows)


@lru_cache(maxsize=512)
def _in_n_cached(rows: tuple[tuple[float, ...], ...]) -> bool:
    m, n = len(rows), len(rows[0])
    if n > m:
        return False
    normals = np.vstack([np.eye(n), np.asarray(rows, dtype=float)])
    for size in range(1, n):
        # every size-subset at once: one stacked rank test, without and with ones
        V = normals[np.array(list(itertools.combinations(range(n + m), size)))]
        with_ones = np.concatenate([V, np.ones((len(V), 1, n))], axis=1)
        if (np.linalg.matrix_rank(V, tol=RANK_TOL)
                == np.linalg.matrix_rank(with_ones, tol=RANK_TOL)).any():
            return False
    return True


# -- linear programming over the demand box / supply polytope --------------------------

def lp_maximize_box_polytope(caps_in: Sequence[float], caps_out: Sequence[float],
                             matrix) -> tuple[float, ...]:
    """Maximize sum(gamma) over {0 <= gamma <= caps_in, 0 <= A gamma <= caps_out}.

    Exact vertex enumeration for every n: each vertex solves n of the constraints
    {-gamma_i <= 0, gamma_i <= caps_in_i, (A gamma)_j <= caps_out_j} with equality,
    and the inverses of those n x n systems are cached per matrix. Feasible vertices
    within ``LP_MATCH_TOL`` of the best sum must coincide within it; a tie
    between geometrically distinct optima raises DegeneracyError (the numerical
    signature of a matrix outside the uniqueness class).
    """
    rows = matrix.rows if isinstance(matrix, DistributionMatrix) else \
        tuple(tuple(float(a) for a in row) for row in matrix)
    b = [float(x) for x in caps_in]
    c = [float(x) for x in caps_out]
    n, m = len(b), len(c)
    if len(rows) != m or any(len(row) != n for row in rows):
        raise InvalidMatrixError("matrix shape does not match the cap vectors")
    if any(x < -CAP_SLACK for x in b) or any(x < -CAP_SLACK for x in c):
        raise InadmissibleFluxError("caps must be nonnegative")
    normals, subsets, inverses = _vertex_systems(rows)
    # caps clamped at 0; the sign of a zero cap never reaches the vertices
    rhs = np.array([0.0] * n + [0.0 if x <= 0.0 else x for x in b]
                   + [0.0 if x <= 0.0 else x for x in c])
    vertices = np.einsum("kij,kj->ki", inverses, rhs[subsets])
    bound = rhs[:, None] + FLUX_SLACK
    step = max(1, _GEMM_BLOCK // normals.size)
    mask = np.empty(len(vertices), dtype=bool)
    for i in range(0, len(vertices), step):
        mask[i:i + step] = (normals @ vertices[i:i + step].T <= bound).all(axis=0)
    feasible = vertices[mask]
    if not len(feasible):
        raise InadmissibleFluxError("empty feasible set (should not happen: 0 is in it)")
    sums = feasible.sum(axis=1)
    best = sums.argmax()
    top = feasible[sums >= sums[best] - LP_MATCH_TOL]
    if len(top) > 1 and float((top.max(axis=0) - top.min(axis=0)).max()) > LP_MATCH_TOL:
        raise DegeneracyError(
            "flux maximizer is not unique; matrix outside the uniqueness class")
    return tuple(feasible[best].tolist())


@lru_cache(maxsize=64)
def _vertex_systems(rows: tuple[tuple[float, ...], ...]):
    """Constraint normals of the LP, the nonsingular n-subsets and their inverses.

    At most C(2n+m, n) subsets: up to about 0.1 MB for 4x5, 5 MB for 6x6 and 45 MB
    for 7x7 per matrix, hence the small cache. The arrays are shared by every call,
    so they are read-only.
    """
    A = np.asarray(rows, dtype=float)
    n = A.shape[1]
    normals = np.vstack([-np.eye(n), np.eye(n), A])
    subsets = np.array(list(itertools.combinations(range(len(normals)), n)))
    systems = normals[subsets]
    regular = np.abs(np.linalg.det(systems)) >= SINGULAR_TOL
    out = (normals, subsets[regular], np.linalg.inv(systems[regular]))
    for array in out:
        array.flags.writeable = False
    return out


# -- projection onto a capped simplex --------------------------------------------------

def project_capped_simplex(target: Sequence[float], caps: Sequence[float],
                           total: float) -> tuple[float, ...]:
    """Euclidean projection of ``target`` onto {0 <= x <= caps, sum x = total}.

    By the KKT conditions it is clip(target + lam, 0, caps) for the lam whose sum is
    ``total``. That sum is piecewise linear and nondecreasing in lam, with kinks at
    -target_i and caps_i - target_i; the exact breakpoint search of Kiwiel 2008
    ("Breakpoint searching algorithms for the continuous quadratic knapsack problem")
    walks the sorted kinks to the first whose sum reaches ``total`` and interpolates
    once on the segment before it, taking the left end of a flat segment.
    """
    t = [float(x) for x in target]
    c = [float(x) for x in caps]
    if len(t) != len(c) or not t:
        raise InputError("target and caps must be equal-length, nonempty vectors")
    if any(x < -CAP_SLACK for x in c):
        raise InadmissibleFluxError("caps must be nonnegative")
    c = [max(0.0, x) for x in c]
    cap_sum = sum(c)
    if total < -FLUX_SLACK or total > cap_sum + FLUX_SLACK:
        raise InadmissibleFluxError(
            f"total {total!r} outside the feasible range [0, {cap_sum!r}]")
    total = min(max(total, 0.0), cap_sum)
    pairs = list(zip(t, c))
    lo = lo_sum = None
    for kink in sorted({-ti for ti in t}.union([ci - ti for ti, ci in pairs])):
        s = sum(min(max(ti + kink, 0.0), ci) for ti, ci in pairs)
        if s >= total:
            lam = kink if lo is None else \
                lo + (total - lo_sum) * (kink - lo) / (s - lo_sum)
            break
        lo, lo_sum = kink, s
    else:  # rounding left the last kink's sum a hair below total = cap_sum
        lam = lo
    return tuple(min(max(ti + lam, 0.0), ci) for ti, ci in pairs)


# -- solvers ---------------------------------------------------------------------------

def _caps(model: FluxModel,
          initial: RiemannState) -> tuple[list[FluxInterval], list[float]]:
    """Each arc's demand (incoming) or supply (outgoing) interval, in arc order, and
    the flux of each datum, computed once; the state's densities are checked."""
    n = initial.topology.n
    flows = [model._value(r) for r in initial.rho]
    caps = [model._demand(r, f) if l < n else model._supply(r, f)
            for l, (r, f) in enumerate(zip(initial.rho, flows))]
    return caps, flows


def _solution(model: FluxModel, initial: RiemannState, caps: Sequence[FluxInterval],
              flows: Sequence[float], gamma: Sequence[float]) -> TraceSolution:
    """The solution whose arc fluxes are ``gamma``, each inside its arc's ``caps``;
    ``flows`` are the data's fluxes."""
    n = initial.topology.n
    traces = [_trace_from_flux(model, r, f, c, g, l < n)
              for l, (r, f, c, g) in enumerate(zip(initial.rho, flows, caps, gamma))]
    return TraceSolution.from_traces(model, initial, traces)


def _check_arcs(solver: str, topology: NodeTopology, n: int | None = None,
                m: int | None = None) -> None:
    """Raise TopologyError unless the node is n x m, or square when n is not given."""
    if (topology.n != topology.m) if n is None else ((topology.n, topology.m) != (n, m)):
        want = "matching arc counts" if n is None else f"a {n}x{m} node"
        raise TopologyError(
            f"{solver} needs {want} (topology is {topology.n}x{topology.m})")


def rs1_solve(model: FluxModel, matrix: DistributionMatrix,
              initial: RiemannState) -> TraceSolution:
    """Maximize total incoming flux routed through the distribution matrix."""
    topo = initial.topology
    if not matrix_in_n(matrix, topo):
        raise InvalidMatrixError(
            "matrix outside the uniqueness class (no unique flux maximizer)")
    caps, flows = _caps(model, initial)
    g_in = lp_maximize_box_polytope([c.sup for c in caps[:topo.n]],
                                    [c.sup for c in caps[topo.n:]], matrix)
    g_out = [min(sum(matrix.rows[j][i] * g_in[i] for i in range(topo.n)),
                 caps[topo.n + j].sup) for j in range(topo.m)]
    return _solution(model, initial, caps, flows, [*g_in, *g_out])


def rs2_solve(model: FluxModel, theta: ThetaWeights,
              initial: RiemannState) -> TraceSolution:
    """Maximal through-flow split by projecting priority targets on both sides.

    Its (E2) guarantee holds for n = m only. For n != m, an output whose traces
    all lie at or below sigma has F(rho, sigma) = (n - m) f_max, and one whose
    traces all lie at or above sigma has (m - n) f_max (see :func:`check_E2`), so
    free data on an n < m node, or congested data on an n > m node, violates (E2).
    """
    topo = initial.topology
    if (len(theta.incoming), len(theta.outgoing)) != (topo.n, topo.m):
        raise TopologyError(
            f"weights are {len(theta.incoming)}+{len(theta.outgoing)}, "
            f"node is {topo.n}x{topo.m}")
    caps, flows = _caps(model, initial)
    caps_in = [c.sup for c in caps[:topo.n]]
    caps_out = [c.sup for c in caps[topo.n:]]
    through = min(sum(caps_in), sum(caps_out))
    g_in = project_capped_simplex([through * w for w in theta.incoming],
                                  caps_in, through)
    g_out = project_capped_simplex([through * w for w in theta.outgoing],
                                   caps_out, through)
    return _solution(model, initial, caps, flows, [*g_in, *g_out])


def rs3_solve(model: FluxModel, theta: ThetaWeights, cap: CrossingCapacity,
              initial: RiemannState) -> TraceSolution:
    """Per-line capped through-flow: incoming arc i feeds outgoing arc n+i."""
    topo = initial.topology
    _check_arcs("rs3", topo)
    if len(theta.incoming) != topo.n:
        raise TopologyError("incoming weight count does not match the topology")
    caps, flows = _caps(model, initial)
    line_caps = [min(caps[i].sup, caps[topo.n + i].sup) for i in range(topo.n)]
    total = min(sum(line_caps), cap.gamma_j)
    g = project_capped_simplex([total * w for w in theta.incoming], line_caps, total)
    return _solution(model, initial, caps, flows, [*g, *g])


def rs_1x1_solve(model: FluxModel, initial: RiemannState) -> TraceSolution:
    """The unique entropy solver for one incoming and one outgoing arc."""
    topo = initial.topology
    _check_arcs("rs_1x1", topo, 1, 1)
    caps, flows = _caps(model, initial)
    g = min(caps[0].sup, caps[1].sup)
    return _solution(model, initial, caps, flows, [g, g])


def rs_e1_2x2_solve(model: FluxModel, initial: RiemannState) -> TraceSolution:
    """The constructed 2x2 solver whose outputs satisfy the global entropy condition.

    Finite case split on the number h of bad data (incoming below sigma, outgoing
    above). Each branch pins traces so that the result lands in an admissible row of
    the 2x2 table, balances exactly, and is a fixed point of the map.
    """
    _check_arcs("rs_e1_2x2", initial.topology, 2, 2)
    rho = list(initial.rho)
    s = model.sigma
    fm = model.f_max
    f = [model._value(r) for r in rho]
    bad = [rho[0] < s - SIGMA_TIE, rho[1] < s - SIGMA_TIE,
           rho[2] > s + SIGMA_TIE, rho[3] > s + SIGMA_TIE]
    h = sum(bad)
    tr: list[float] = [0.0] * 4

    if h == 0:
        tr = [s, s, s, s]

    elif h == 1:
        l = bad.index(True)
        if l <= 1:
            tr[l] = rho[l]
            tr[1 - l] = s
            tr[2], tr[3] = tr[0], tr[1]
        else:
            tr[l] = rho[l]
            tr[5 - l] = s
            tr[0], tr[1] = tr[2], tr[3]

    elif h == 2:
        if bad[0] and bad[1]:
            tr = [rho[0], rho[1], rho[0], rho[1]]
        elif bad[2] and bad[3]:
            tr = [rho[2], rho[3], rho[2], rho[3]]
        else:
            bi = 0 if bad[0] else 1
            bo = 2 if bad[2] else 3
            tr[bi] = rho[bi]
            tr[bo] = rho[bo]
            tr[1 - bi] = rho[bo]
            tr[5 - bo] = rho[bi]

    elif h == 3:
        # g_arc: the one good datum; b_arc: the bad one beside it; p, q: the far side
        g_arc = bad.index(False)
        good_in = g_arc < 2
        b_arc = (1 if good_in else 5) - g_arc
        p, q = (2, 3) if good_in else (0, 1)
        shifted = f[p] + f[q] - f[b_arc]
        if min(f[p], f[q]) - FLUX_TIE <= shifted <= fm + FLUX_TIE:
            tr = rho.copy()
            tr[g_arc] = model.invert(min(shifted, fm),
                                     DECREASING if good_in else INCREASING)
        elif shifted > fm:
            hi, lo = (p, q) if f[p] >= f[q] else (q, p)
            tr[b_arc] = tr[hi] = rho[b_arc]
            tr[g_arc] = tr[lo] = rho[lo]
        else:
            tr = [rho[p], rho[q], rho[p], rho[q]]

    else:
        delta = (f[0] + f[1]) - (f[2] + f[3])
        if abs(delta) <= FLUX_TIE:
            tr = rho.copy()
        elif delta < 0.0:
            ihi = 0 if f[0] > f[1] else 1
            jhi, jlo = (2, 3) if f[2] >= f[3] else (3, 2)
            if f[jlo] > f[ihi]:
                tr = [rho[0], rho[1], rho[0], rho[1]]
            else:
                tr = rho.copy()
                tr[jhi] = model.invert(min(f[0] + f[1] - f[jlo], fm), INCREASING)
        else:
            ilo, ihi = (0, 1) if f[0] <= f[1] else (1, 0)
            jhi = 2 if f[2] >= f[3] else 3
            if f[ilo] > f[jhi]:
                tr = [rho[2], rho[3], rho[2], rho[3]]
            else:
                tr = rho.copy()
                tr[ihi] = model.invert(min(f[2] + f[3] - f[ilo], fm), DECREASING)

    return TraceSolution.from_traces(model, initial, tr)


# -- immutable solver handles and config loading ----------------------------------------

@dataclass(frozen=True)
class RS1Solver:
    model: FluxModel
    matrix: DistributionMatrix

    def __call__(self, state: RiemannState) -> TraceSolution:
        return rs1_solve(self.model, self.matrix, state)


@dataclass(frozen=True)
class RS2Solver:
    model: FluxModel
    theta: ThetaWeights

    def __call__(self, state: RiemannState) -> TraceSolution:
        return rs2_solve(self.model, self.theta, state)


@dataclass(frozen=True)
class RS3Solver:
    model: FluxModel
    theta: ThetaWeights
    cap: CrossingCapacity

    def __call__(self, state: RiemannState) -> TraceSolution:
        return rs3_solve(self.model, self.theta, self.cap, state)


@dataclass(frozen=True)
class RS1x1Solver:
    model: FluxModel

    def __call__(self, state: RiemannState) -> TraceSolution:
        return rs_1x1_solve(self.model, state)


@dataclass(frozen=True)
class RSE12x2Solver:
    model: FluxModel

    def __call__(self, state: RiemannState) -> TraceSolution:
        return rs_e1_2x2_solve(self.model, state)


SOLVER_NAMES = ("rs1", "rs2", "rs3", "rs_1x1", "rs_e1_2x2")


def solver_from_config(model: FluxModel, config, topology: NodeTopology):
    """Build a solver handle from a configuration mapping, validating dimensions."""
    if not isinstance(config, Mapping):
        raise InputError("solver config must be an object")
    name = config.get("solver")
    if name == "rs1":
        if "A" not in config:
            raise InputError("rs1 needs a distribution matrix under key 'A'")
        matrix = DistributionMatrix.from_rows(config["A"])
        _check_matrix_shape(matrix, topology)
        return RS1Solver(model, matrix)
    if name == "rs2":
        return RS2Solver(model, _theta_from(config, topology))
    if name == "rs3":
        _check_arcs(name, topology)
        try:
            gamma_j = float(config.get("gamma_j", math.inf))
        except (TypeError, ValueError) as exc:
            raise InputError(f"bad crossing capacity: {exc}") from exc
        return RS3Solver(model, _theta_from(config, topology),
                         CrossingCapacity(gamma_j))
    if name == "rs_1x1":
        _check_arcs(name, topology, 1, 1)
        return RS1x1Solver(model)
    if name == "rs_e1_2x2":
        _check_arcs(name, topology, 2, 2)
        return RSE12x2Solver(model)
    raise InputError(f"unknown solver {name!r}; expected one of {SOLVER_NAMES}")


def _theta_from(config, topology: NodeTopology) -> ThetaWeights:
    if "theta" in config:
        return ThetaWeights.from_flat(config["theta"], topology.n)
    return ThetaWeights.uniform(topology)
