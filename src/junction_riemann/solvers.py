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

The optimization helpers are deliberately simple, use plain floats rather than numpy,
and are cross-checked against independent oracles in the test suite: the flux
maximization is one bounded-variable primal simplex with Bland's rule, whose cost
grows polynomially with the arc count in practice, and the capped-simplex projection
is one sorted breakpoint walk for the KKT shift, after Kiwiel 2008. Only the
uniqueness-class test :func:`matrix_in_n` enumerates subsets, in chunks of bounded size.
Each :class:`DistributionMatrix` keeps the last ``_HELD_BASES`` optimal bases the
simplex found on it, and rs1 skips the pivots when one of them fits; no output depends
on what was solved before.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, make_dataclass
from functools import cached_property, lru_cache
from operator import attrgetter, mul
from typing import Mapping, Sequence

import numpy as np

from .errors import (DegeneracyError, InadmissibleFluxError, InputError,
                     InvalidMatrixError, TopologyError)
from .flux import (DECREASING, INCREASING, FluxInterval, FluxModel, _floats, _parameter,
                   _real)
from .junction import NodeTopology, RiemannState, TraceSolution
from .tolerances import (CAP_SLACK, FLUX_SLACK, FLUX_TIE, LP_COST_TOL, LP_MATCH_TOL,
                         LP_PIVOT_TOL, RANK_TOL, SIGMA_TIE, SUM_TO_ONE_SLACK)

#: subsets per stacked rank test in :func:`matrix_in_n`. A 10x10 node has
#: C(20, 9) = 167 960 subsets to test; in chunks, each test holds about 4 MB.
_RANK_CHUNK = 4096

#: optimal LP bases a :class:`DistributionMatrix` holds, most recently used first.
#: A small node has a handful; a 6x6 one hundreds, so the bound caps a miss's cost.
_HELD_BASES = 32


# -- parameter types ------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionMatrix:
    """Column-stochastic routing of incoming flux: m rows (outgoing) by n columns."""

    rows: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        try:
            rows = tuple([_floats(row, "distribution matrix entry") for row in self.rows])
        except TypeError as exc:  # not iterable; _floats raises no TypeError
            raise InputError(f"bad distribution matrix {self.rows!r}: {exc}") from exc
        object.__setattr__(self, "rows", rows)
        if not rows or not rows[0]:
            raise InvalidMatrixError("distribution matrix cannot be empty")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise InvalidMatrixError("distribution matrix rows have unequal lengths")
        bad = [a for r in rows for a in r if not 0.0 < a < 1.0]
        if bad:
            raise InvalidMatrixError(f"entry {bad[0]!r} outside the open interval (0, 1)")
        for i in range(n):
            col = sum(r[i] for r in rows)
            if abs(col - 1.0) > SUM_TO_ONE_SLACK:
                raise InvalidMatrixError(f"column {i} sums to {col!r}, expected 1")

    @staticmethod
    def from_rows(values) -> "DistributionMatrix":
        return DistributionMatrix(values)

    @property
    def m(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.rows, dtype=float)

    @cached_property
    def _in_n(self) -> bool:
        """:func:`matrix_in_n` of the matrix, kept on the (immutable) matrix after
        its first use, so rs1 certifies a matrix once, not on every solve."""
        return matrix_in_n(self)

    @cached_property
    def _basis(self) -> list:
        """A one-item cell for the LP's optimal bases of this matrix (see
        :func:`lp_maximize_box_polytope`): None, then a tuple of at most
        ``_HELD_BASES`` records, most recently used first, replaced whole on each
        change, so a thread never sees half of one. It takes no part in equality or
        hashing."""
        return [None]


@dataclass(frozen=True)
class ThetaWeights:
    """Strictly positive priority weights, normalized on each side of the node."""

    incoming: tuple[float, ...]
    outgoing: tuple[float, ...]

    def __post_init__(self):
        for side in ("incoming", "outgoing"):
            values = _floats(getattr(self, side), "theta weight")
            object.__setattr__(self, side, values)
            if any(not w > 0.0 for w in values):
                raise InputError(f"{side} weights must be strictly positive")
            if abs(sum(values) - 1.0) > SUM_TO_ONE_SLACK:
                raise InputError(f"{side} weights must sum to 1, got {sum(values)!r}")

    @staticmethod
    def uniform(topology: NodeTopology) -> "ThetaWeights":
        return ThetaWeights((1.0 / topology.n,) * topology.n,
                            (1.0 / topology.m,) * topology.m)

    @staticmethod
    def from_flat(values, topology: NodeTopology) -> "ThetaWeights":
        flat = _floats(values, "theta weight")
        if len(flat) != topology.total:
            raise InputError(f"theta needs n + m = {topology.total} weights, got {flat}")
        return ThetaWeights(flat[:topology.n], flat[topology.n:])


@dataclass(frozen=True)
class CrossingCapacity:
    """Upper bound on the total flux through the node (may be infinite)."""

    gamma_j: float

    def __post_init__(self):
        if not (_real(self.gamma_j) and self.gamma_j > 0.0):
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
    outside their span. A smaller tuple spans a subspace of any (n-1)-tuple that
    contains it, so only the (n-1)-tuples are tested. Always false when n > m (the
    m rows alone sum to 1), always true when n == 1.
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
    # the (n-1)-subsets in chunks: one stacked rank test each, without and with ones
    subsets = itertools.combinations(range(n + m), n - 1) if n > 1 else ()
    while chunk := list(itertools.islice(subsets, _RANK_CHUNK)):
        V = normals[np.array(chunk)]
        with_ones = np.concatenate([V, np.ones((len(V), 1, n))], axis=1)
        if (np.linalg.matrix_rank(V, tol=RANK_TOL)
                == np.linalg.matrix_rank(with_ones, tol=RANK_TOL)).any():
            return False
    return True


# -- linear programming over the demand box / supply polytope --------------------------

def lp_maximize_box_polytope(caps_in: Sequence[float], caps_out: Sequence[float],
                             matrix) -> tuple[float, ...]:
    """Maximize sum(gamma) over {0 <= gamma <= caps_in, 0 <= A gamma <= caps_out}.

    One bounded-variable primal simplex (Dantzig's upper-bounding technique) in
    plain floats: the tableau has a row per outgoing constraint and a column per
    nonbasic variable, the incoming fluxes keep their box [0, caps_in] as bounds,
    and the start at gamma = 0 is feasible because every cap is >= 0. Bland's rule
    (Bland 1977) picks the entering and the leaving variable, so degenerate
    vertices terminate. The optimum is unique unless a second run of the same loop
    over the optimal face, which keeps fixed every nonbasic variable of nonzero
    reduced cost and moves the others as far from their bounds as it can, finds a
    point further than ``LP_MATCH_TOL`` away; then DegeneracyError is raised (the
    numerical signature of a matrix outside the uniqueness class).

    A final basis whose nonbasic reduced costs all lie beyond ``LP_COST_TOL`` is an
    optimum with no tie, needs no face run, and gives its fluxes by one formula of
    the matrix, the basis and the caps (:func:`_basis_record`), so they are the
    same bits whichever pivot path found it; any other basis keeps the simplex's
    values. A :class:`DistributionMatrix` holds up to ``_HELD_BASES`` such bases
    between calls, most recently used first (warm-starting, Bixby 2002); a matrix
    given as rows of numbers starts cold. At the new caps each held basis in turn
    is evaluated with no pivot; the first whose basic fluxes and slacks all lie
    more than ``LP_MATCH_TOL`` inside their bounds is the one optimal basis, where
    every pivot path ends, and its fluxes are returned. Otherwise the call starts
    cold and holds its own final basis first if that has the formula, dropping the
    least recently used one past the bound. The result never depends on what the
    matrix held.
    """
    warm = matrix._basis if isinstance(matrix, DistributionMatrix) else None
    rows = matrix.rows if warm is not None else \
        tuple(tuple(float(a) for a in row) for row in matrix)
    b = [float(x) for x in caps_in]
    c = [float(x) for x in caps_out]
    if len(rows) != len(c) or any([len(row) != len(b) for row in rows]):
        raise InvalidMatrixError("matrix shape does not match the cap vectors")
    if not all([x >= -CAP_SLACK for x in b + c]):  # NaN fails too
        raise InadmissibleFluxError("caps must be nonnegative")
    return _lp_solve(rows, b, c, warm)


def _lp_solve(rows: tuple[tuple[float, ...], ...], b: list[float], c: list[float],
              warm: list | None) -> tuple[float, ...]:
    """:func:`lp_maximize_box_polytope` for m x n ``rows`` and float caps b (n of
    them) and c (m), each at least ``-CAP_SLACK``; ``warm`` is the basis cell of
    the matrix of ``rows`` (:attr:`DistributionMatrix._basis`), or None."""
    n, m = len(b), len(c)
    # variables 0..n-1 are gamma, n..n+m-1 the slacks c - A gamma; caps clamped at 0
    b = [x if x > 0.0 else 0.0 for x in b]
    c = [x if x > 0.0 else 0.0 for x in c]
    z = [-x for x in b] + c
    held = (warm[0] or ()) if warm is not None else ()
    for k, record in enumerate(held):
        gamma = _fluxes_at(record, b, z, rows)
        if gamma is not None:
            if k:
                warm[0] = (record, *held[:k], *held[k + 1:])
            return tuple(gamma)
    upper = b + [math.inf] * m
    x = [0.0] * n + c
    T = [list(row) for row in rows]
    basis, cols, cost = list(range(n, n + m)), list(range(n)), [1.0] * n
    _pivot_to_optimum(T, basis, cols, cost, x, upper, ())
    key = tuple(sorted(basis))
    known = [r for r in held if r[0] == key]
    record = known[0] if known else _basis_record(rows, key)
    if record is not None:
        if warm is not None:  # first, and the least recently used past the bound out
            warm[0] = (record, *[r for r in held if r is not record][:_HELD_BASES - 1])
        return tuple([(v if v < u else u) if v > 0.0 else 0.0
                      for v, u in zip(_fluxes_at(record, b, z), b)])
    free = [k for k, d in enumerate(cost) if -LP_COST_TOL <= d <= LP_COST_TOL
            and upper[cols[k]] > 0.0]
    best = x[:n]
    if free:
        # over the optimal face, push each zero-cost variable away from its bound
        face = [0.0] * n
        for k in free:
            face[k] = -1.0 if x[cols[k]] > 0.0 else 1.0
        _pivot_to_optimum(T, basis, cols, face, x, upper,
                          {v for k, v in enumerate(cols) if k not in free})
        if max(abs(u - v) for u, v in zip(x, best)) > LP_MATCH_TOL:
            raise DegeneracyError(
                "flux maximizer is not unique; matrix outside the uniqueness class")
    # rounding can leave a basic flux an ulp outside its box
    return tuple([(v if v < u else u) if v > 0.0 else 0.0 for v, u in zip(best, upper)])


def _basis_record(rows: tuple[tuple[float, ...], ...],
                  basis: tuple[int, ...]) -> tuple | None:
    """The basis ``basis`` (its basic variables in ascending order: fluxes 0..n-1,
    then the slack n + j of each loose row j) as one immutable record, or None
    unless every nonbasic reduced cost lies beyond ``LP_COST_TOL``. The record is
    (basis, the fluxes at their cap, the columns that :func:`_fluxes_at` reads, the
    elimination's row of each basic flux on those columns).

    Gauss-Jordan elimination of [A[tight] | I] on the basic flux columns, in order
    and with partial pivoting, leaves the inverse of A[tight, basic] in place of I
    and inverse A[tight, i] in each nonbasic column i. Column sums give the reduced
    costs: -(sum of the inverse's column r) for the slack of tight row r, and 1 -
    (column sum) for a nonbasic flux, which sits at its cap when that is positive.
    The record depends on nothing but the matrix and the basis.
    """
    m, n = len(rows), len(rows[0])
    p = 0
    while p < m and basis[p] < n:
        p += 1
    if not p:  # every flux at its upper bound, every row loose
        return basis, tuple(range(n)), (), ()
    tight = tuple([j for j in range(m) if n + j not in basis])
    aug = [[*rows[j], *[0.0] * p] for j in tight]
    for k in range(p):
        aug[k][n + k] = 1.0
    for k in range(p):
        col, pivot = basis[k], k
        for r in range(k + 1, p):
            if abs(aug[r][col]) > abs(aug[pivot][col]):
                pivot = r
        prow = aug[pivot]
        f = prow[col]
        if abs(f) <= LP_PIVOT_TOL:
            return None
        aug[pivot] = aug[k]
        aug[k] = prow = [a / f for a in prow]
        for r in range(p):
            f = aug[r][col]
            if r != k and f != 0.0:
                aug[r] = [a - f * q for a, q in zip(aug[r], prow)]
    sums = list(map(sum, zip(*aug)))
    if min(sums[n:]) <= LP_COST_TOL:
        return None
    up = []
    for i in range(n):
        if i not in basis:
            d = 1.0 - sums[i]
            if -LP_COST_TOL <= d <= LP_COST_TOL:
                return None
            if d > 0.0:
                up.append(i)
    # a basic row reads the fluxes at their cap, then the tight rows (n + j in z)
    pick = (*up, *[n + j for j in tight])
    return basis, tuple(up), pick, tuple([(*[row[i] for i in up], *row[n:])
                                          for row in aug])


def _fluxes_at(record: tuple, b: list[float], z: list[float],
               rows: tuple[tuple[float, ...], ...] | None = None) -> list[float] | None:
    """gamma at the basis of ``record`` for the caps b, c (clamped at 0), given as
    ``z`` = -b then c.

    A nonbasic flux sits at 0 or at its cap b. The basic flux of row k of the
    record's elimination is that row times (-b on the fluxes at their cap, then
    c[tight]), that is inverse (c[tight] - A[tight, up] b[up]), summed in one fixed
    order. Given ``rows``, the matrix of the record, it is None unless every basic
    flux and slack lies more than ``LP_MATCH_TOL`` inside its bounds, and it stops
    at the first that does not.
    """
    basis, up, pick, coef = record
    n, tol = len(b), LP_MATCH_TOL
    gamma = [0.0] * n
    for i, row in zip(basis, coef):
        v = 0.0
        for a, k in zip(row, pick):
            v += a * z[k]
        if rows is not None and not tol < v < b[i] - tol:
            return None
        gamma[i] = v
    for i in up:
        gamma[i] = b[i]
    for k in basis[len(coef):] if rows is not None else ():
        slack = z[k]
        for a, g in zip(rows[k - n], gamma):
            slack -= a * g
        if not slack > tol:
            return None
    return gamma


def _pivot_to_optimum(T: list[list[float]], basis: list[int], cols: list[int],
                      cost: list[float], x: list[float], upper: list[float],
                      fixed) -> None:
    """Run the bounded simplex on a condensed tableau until no variable improves.

    Row r reads ``x[basis[r]] = beta_r - sum_k T[r][k] x[cols[k]]`` and ``cost[k]``
    is the reduced cost of column k; nonbasic variables sit at 0 or at ``upper``,
    ``x`` holds every variable's value, and the variables in ``fixed`` never enter.
    All arguments except ``upper`` and ``fixed`` are updated in place.
    """
    inf, cost_tol, pivot_tol = math.inf, LP_COST_TOL, LP_PIVOT_TOL
    while True:
        # Bland: of the variables that improve the objective, the smallest enters
        enter, var = -1, len(x)
        for k, d in enumerate(cost):
            if d > cost_tol or d < -cost_tol:
                v = cols[k]
                # at 0 it may rise when d > 0, at its upper bound fall when d < 0
                if v < var and (d > 0.0) != (x[v] > 0.0) and upper[v] > 0.0 \
                        and v not in fixed:
                    enter, var = k, v
        if enter < 0:
            return
        k = enter
        rising = x[var] <= 0.0
        col = [row[k] for row in T] if rising else [-row[k] for row in T]
        # ratio test: the entering variable's bound flip, or a basic variable
        # reaching a bound first; ties go to the smallest variable
        step, leave, bound = upper[var], -1, 0.0
        for r, a in enumerate(col):
            if a > pivot_tol:
                w = basis[r]
                limit, at = (x[w] if x[w] > 0.0 else 0.0) / a, 0.0
            elif a < -pivot_tol and upper[basis[r]] < inf:
                w = basis[r]
                at = upper[w]
                limit = (at - x[w] if x[w] < at else 0.0) / -a
            else:
                continue
            if limit < step or (limit == step and leave >= 0 and w < basis[leave]):
                step, leave, bound = limit, r, at
        if step == inf:
            raise InadmissibleFluxError(
                "unbounded LP (should not happen: gamma is boxed)")
        if step > 0.0:
            for w, a in zip(basis, col):
                x[w] -= a * step
        if leave < 0:
            x[var] = upper[var] if rising else 0.0
            continue
        x[var] += step if rising else -step
        out = basis[leave]
        x[out] = bound
        basis[leave], cols[k] = var, out
        p = T[leave][k]
        prow = [a / p for a in T[leave]]
        prow[k] = 1.0 / p
        T[leave] = prow
        for r, row in enumerate(T):
            f = row[k]
            if f != 0.0 and r != leave:
                new = [a - f * q for a, q in zip(row, prow)]
                new[k] = -f / p
                T[r] = new
        f = cost[k]
        if f != 0.0:
            cost[:] = [a - f * q for a, q in zip(cost, prow)]
        cost[k] = -f / p


# -- projection onto a capped simplex --------------------------------------------------

def project_capped_simplex(target: Sequence[float], caps: Sequence[float],
                           total: float) -> tuple[float, ...]:
    """Euclidean projection of ``target`` onto {0 <= x <= caps, sum x = total}.

    By the KKT conditions it is clip(target + lam, 0, caps) for the lam whose sum is
    ``total``. That sum is piecewise linear and nondecreasing in lam: its slope rises
    by one at each -target_i and falls by one at each caps_i - target_i. The
    breakpoint walk of Kiwiel 2008 ("Breakpoint searching algorithms for the
    continuous quadratic knapsack problem") sorts these 2n kinks once and carries the
    sum and the slope from kink to kink, up to the first kink whose sum reaches
    ``total``; it interpolates once on the segment before it, taking the left end of
    a flat segment.
    """
    t = [float(x) for x in target]
    c = [float(x) for x in caps]
    if len(t) != len(c) or not t:
        raise InputError("target and caps must be equal-length, nonempty vectors")
    if not all(math.isfinite(x) for x in t):
        raise InputError("target must be finite")
    if not all(x >= -CAP_SLACK for x in c):  # NaN fails too
        raise InadmissibleFluxError("caps must be nonnegative")
    c = [x if x > 0.0 else 0.0 for x in c]
    cap_sum = sum(c)
    if not -FLUX_SLACK <= total <= cap_sum + FLUX_SLACK:  # NaN fails too
        raise InadmissibleFluxError(
            f"total {total!r} outside the feasible range [0, {cap_sum!r}]")
    total = min(max(total, 0.0), cap_sum)
    kinks = sorted([(-ti, 1) for ti in t] + [(ci - ti, -1) for ti, ci in zip(t, c)])
    # left of every kink each term is clipped to 0, so the sum is 0
    lam, s, slope = kinks[0][0], 0.0, 0
    for kink, rise in kinks:
        if kink > lam:
            at_kink = s + slope * (kink - lam)
            if at_kink >= total:
                if s < total:
                    lam += (total - s) / slope
                break
            lam, s = kink, at_kink
        slope += rise
    return tuple([0.0 if v < 0.0 else ci if ci < v else v
                  for v, ci in zip([ti + lam for ti in t], c)])


# -- solvers ---------------------------------------------------------------------------

def _caps(model: FluxModel, initial: RiemannState) -> list[FluxInterval]:
    """Each arc's demand (incoming) or supply (outgoing) interval, in arc order.

    The cap is f(r) when ``(r <= sigma) == incoming`` and f_max otherwise, the
    float that ``demand``/``supply`` return, without their second check of the
    state's densities; it is >= 0, so its interval is built unchecked.
    """
    n, sigma, f_max, value = initial.topology.n, model.sigma, model.f_max, model._scalar
    interval = FluxInterval._proved
    return [interval(value(r) if (r <= sigma) == (l < n) else f_max)
            for l, r in enumerate(initial.rho)]


def _check_arcs(solver: str, topology: NodeTopology, n: int | None = None,
                m: int | None = None) -> None:
    """Raise TopologyError unless the node is n x m, or square when n is not given."""
    if (topology.n != topology.m) if n is None else ((topology.n, topology.m) != (n, m)):
        want = "matching arc counts" if n is None else f"a {n}x{m} node"
        raise TopologyError(
            f"{solver} needs {want} (topology is {topology.n}x{topology.m})")


def rs1_solve(model: FluxModel, matrix: DistributionMatrix,
              initial: RiemannState) -> TraceSolution:
    """Maximize total incoming flux routed through the distribution matrix.

    The matrix holds the LP's recent optimal bases between calls (see
    :func:`lp_maximize_box_polytope`); they change no output bit. The matrix's
    shape is checked on every call, its class verdict once per matrix.
    """
    topo = initial.topology
    _check_matrix_shape(matrix, topo)
    if not matrix._in_n:
        raise InvalidMatrixError(
            "matrix outside the uniqueness class (no unique flux maximizer)")
    n = topo.n
    caps = _caps(model, initial)
    sups = [c.sup for c in caps]
    caps_out = sups[n:]
    # the caps are floats >= 0 and the shape is checked: the LP needs no checks
    g_in = _lp_solve(matrix.rows, sups[:n], caps_out, matrix._basis)
    gamma = list(g_in)
    for row, cap in zip(matrix.rows, caps_out):
        v = sum(map(mul, row, g_in))
        gamma.append(cap if cap < v else v)  # min(v, cap): v on a tie, 0.0 vs -0.0 too
    return TraceSolution.from_fluxes(model, initial, caps, gamma)


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
    caps = _caps(model, initial)
    caps_in = [c.sup for c in caps[:topo.n]]
    caps_out = [c.sup for c in caps[topo.n:]]
    through = min(sum(caps_in), sum(caps_out))
    g_in = project_capped_simplex([through * w for w in theta.incoming],
                                  caps_in, through)
    g_out = project_capped_simplex([through * w for w in theta.outgoing],
                                   caps_out, through)
    return TraceSolution.from_fluxes(model, initial, caps, [*g_in, *g_out])


def rs3_solve(model: FluxModel, theta: ThetaWeights, cap: CrossingCapacity,
              initial: RiemannState) -> TraceSolution:
    """Per-line capped through-flow: incoming arc i feeds outgoing arc n+i."""
    topo = initial.topology
    _check_arcs("rs3", topo)
    if len(theta.incoming) != topo.n:
        raise TopologyError("incoming weight count does not match the topology")
    caps = _caps(model, initial)
    line_caps = [min(caps[i].sup, caps[topo.n + i].sup) for i in range(topo.n)]
    total = min(sum(line_caps), cap.gamma_j)
    g = project_capped_simplex([total * w for w in theta.incoming], line_caps, total)
    return TraceSolution.from_fluxes(model, initial, caps, [*g, *g])


def rs_1x1_solve(model: FluxModel, initial: RiemannState) -> TraceSolution:
    """The unique entropy solver for one incoming and one outgoing arc."""
    topo = initial.topology
    _check_arcs("rs_1x1", topo, 1, 1)
    caps = _caps(model, initial)
    g = min(caps[0].sup, caps[1].sup)
    return TraceSolution.from_fluxes(model, initial, caps, [g, g])


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
    f = [model._scalar(r) for r in rho]
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
            if f[jlo] > f[ihi] + FLUX_TIE:
                tr = [rho[0], rho[1], rho[0], rho[1]]
            else:
                tr = rho.copy()
                tr[jhi] = model.invert(min(f[0] + f[1] - f[jlo], fm), INCREASING)
        else:
            ilo, ihi = (0, 1) if f[0] <= f[1] else (1, 0)
            jhi = 2 if f[2] >= f[3] else 3
            if f[ilo] > f[jhi] + FLUX_TIE:
                tr = [rho[2], rho[3], rho[2], rho[3]]
            else:
                tr = rho.copy()
                tr[ihi] = model.invert(min(f[2] + f[3] - f[ilo], fm), DECREASING)

    return TraceSolution.from_traces(model, initial, tr)


# -- immutable solver handles and config loading ----------------------------------------

@dataclass(frozen=True)
class RS1Solver:
    """rs1 with a fixed model and matrix; written out rather than made by
    :func:`_handle`, whose generic call costs more on this hot path."""

    model: FluxModel
    matrix: DistributionMatrix

    def __call__(self, state: RiemannState) -> TraceSolution:
        return rs1_solve(self.model, self.matrix, state)


def _handle(name: str, solve: str, *params: str) -> type:
    """A frozen dataclass ``name`` of ``model`` and ``params`` whose call on a state
    is ``solve(model, *params, state)``. Like :class:`RS1Solver`, it looks the
    module function ``solve`` up by name on every call."""
    fields = attrgetter("model", *params) if params else lambda h: (h.model,)
    scope = globals()

    def __call__(self, state: RiemannState) -> TraceSolution:
        return scope[solve](*fields(self), state)

    return make_dataclass(name, ["model", *params], frozen=True,
                          namespace={"__module__": __name__, "__call__": __call__})


RS2Solver = _handle("RS2Solver", "rs2_solve", "theta")
RS3Solver = _handle("RS3Solver", "rs3_solve", "theta", "cap")
RS1x1Solver = _handle("RS1x1Solver", "rs_1x1_solve")
RSE12x2Solver = _handle("RSE12x2Solver", "rs_e1_2x2_solve")


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
        gamma_j = _parameter(config["gamma_j"], "crossing capacity gamma_j") \
            if "gamma_j" in config else math.inf
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
    if "theta" in config:  # n + m weights; rs3 reads the first n
        return ThetaWeights.from_flat(config["theta"], topology)
    return ThetaWeights.uniform(topology)
