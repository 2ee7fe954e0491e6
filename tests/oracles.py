"""Independent oracles used to cross-check the production routes.

Everything in here is deliberately written against the *definitions* (dense grids,
exhaustive KKT pattern enumeration, continuous bisection) rather than reusing any of the
package's own algorithms, so a test comparing the two routes is a real check and not a
tautology.
"""

from __future__ import annotations

import csv
import itertools
import math
import struct

import numpy as np


def bisect_flux_inverse(model, gamma: float, branch: str) -> float:
    """Invert a unimodal flux on one monotone branch by plain interval bisection.

    Bisects in density down to machine precision (the residual-based stop is
    ill-conditioned near the flux peak). Works for any flux kind; only evaluates
    ``model.value``.
    """
    s = model.sigma
    if branch == "increasing":
        lo, hi = 0.0, s
    elif branch == "decreasing":
        lo, hi = s, 1.0
    else:
        raise ValueError(branch)
    gamma = min(max(gamma, 0.0), model.f_max)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = float(model.value(mid)) < gamma
        if branch == "decreasing":
            below = not below
        if below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def entropy_flux_grid(model, n: int, rho: np.ndarray, k_points: int = 100_001):
    """Minimum of the node entropy functional over a dense k-grid.

    ``rho`` has shape (S, n+m); returns (min_values, argmin_k) arrays of length S.
    One state at a time, each arc adds sign(r - k) (f(r) - f(k)) to one grid row,
    negated for outgoing arcs. The grid is sorted, so that is f(r) - f(k) below
    ``searchsorted(k, r)`` and f(k) - f(r) from there on (at k = r both are 0):
    two in-place passes per arc over a row small enough to stay in cache.
    """
    rho = np.atleast_2d(np.asarray(rho, dtype=float))
    k = np.linspace(0.0, 1.0, k_points)
    fk = np.asarray(model.value(k), dtype=float)
    fr = np.asarray(model.value(rho), dtype=float)
    split = np.searchsorted(k, rho)
    mins = np.empty(rho.shape[0])
    args = np.empty(rho.shape[0])
    acc = np.empty(k_points)
    for i in range(rho.shape[0]):
        acc.fill(0.0)
        for l, (j, f) in enumerate(zip(split[i], fr[i])):
            left, right = acc[:j], acc[j:]
            if l < n:
                left += f
                left -= fk[:j]
                right -= f
                right += fk[j:]
            else:
                left -= f
                left += fk[:j]
                right += f
                right -= fk[j:]
        idx = int(np.argmin(acc))
        mins[i] = acc[idx]
        args[i] = k[idx]
    return mins, args


def bits(value):
    """``value`` with every float replaced by (its type, its IEEE-754 bytes) and every
    other leaf by (its type, itself), so that == tells -0.0 from 0.0 and True from 1."""
    if isinstance(value, float):
        return type(value), struct.pack("<d", value)
    if isinstance(value, (tuple, list)):
        return type(value), [bits(v) for v in value]
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    return type(value), value


def invert_reference(model, gamma: float, branch: str) -> float:
    """Branch inverse of a flux in plain arithmetic: the flux clamped into
    [0, f_max] and the density into its branch with ``min``/``max``, a tabulated
    flux inverted by ``np.interp`` on tables sliced at the peak sample."""
    gamma = min(max(gamma, 0.0), model.f_max)
    inc = branch == "increasing"
    p = model.params
    if model.kind == "quadratic":
        d = math.sqrt(max(0.0, 1.0 - gamma / model.f_max))
        rho = 0.5 * (1.0 - d) if inc else 0.5 * (1.0 + d)
    elif model.kind == "triangular":
        s, fm = p["sigma"], p["f_max"]
        rho = gamma * s / fm if inc else 1.0 - gamma * (1.0 - s) / fm
    else:
        xs, ys = list(p["rho"]), list(p["flux"])
        peak = ys.index(max(ys))
        if inc:
            rho = float(np.interp(float(gamma), ys[:peak + 1], xs[:peak + 1]))
        else:
            rho = float(np.interp(float(gamma), ys[peak:][::-1], xs[peak:][::-1]))
    lo, hi = (0.0, model.sigma) if inc else (model.sigma, 1.0)
    return min(max(rho, lo), hi)


def tau_reference(model, rho: float) -> float:
    """The mirror density: closed forms for quadratic and triangular fluxes, else the
    inverse of f(rho) on the other branch. ``rho`` is clamped into [0, 1] first."""
    rho = min(max(rho, 0.0), 1.0)
    if model.kind == "quadratic":
        return 1.0 - rho
    if model.kind == "triangular":
        s = model.sigma
        return 1.0 - (1.0 - s) * rho / s if rho <= s else s * (1.0 - rho) / (1.0 - s)
    branch = "decreasing" if rho <= model.sigma else "increasing"
    return invert_reference(model, float(model.value(rho)), branch)


def entropy_flux_reference(model, state, k: float) -> float:
    """F(rho, k) term by term through the public flux, in the summation order of
    the definition: sgn(rho_l - k) (f(rho_l) - f(k)), outgoing terms negated."""
    fk = float(model.value(k))
    total = 0.0
    for l, r in enumerate(state.rho):
        term = ((r > k) - (r < k)) * (float(model.value(r)) - fk)
        total += term if l < state.topology.n else -term
    return total


def check_E1_reference(model, state, tol: float) -> tuple:
    """(candidates, min_value, argmin_k, value_at_sigma) of (E1) on the candidate set
    {0, 1, sigma} union {rho_l}, with F and f(k) recomputed for every candidate; the
    first candidate of least value is the minimum. No balance check."""
    candidates = tuple((k, entropy_flux_reference(model, state, k))
                       for k in sorted({0.0, 1.0, model.sigma, *state.rho}))
    argmin_k, min_value = min(candidates, key=lambda kv: kv[1])
    at_sigma = dict(candidates)[model.sigma]
    return (candidates, min_value, argmin_k, min_value >= -tol, at_sigma,
            at_sigma >= -tol)


def classify_2x2_reference(model, state, eq_tol: float, sigma_tie: float) -> tuple:
    """(bad_count, permutation, row, admissible) of the 2x2 table, each side sorted by
    ``sorted(..., key=density)`` (stable, so ties keep arc order). No balance check."""
    rho = state.rho
    s = model.sigma
    perm = (*sorted((0, 1), key=lambda i: rho[i]), *sorted((2, 3), key=lambda j: rho[j]))
    r1, r2, r3, r4 = (rho[i] for i in perm)
    f1, f2, f3, f4 = (float(model.value(rho[i])) for i in perm)
    bad = [r1 < s - sigma_tie, r2 < s - sigma_tie, r3 > s + sigma_tie, r4 > s + sigma_tie]

    def le(a, b):
        return a <= b + eq_tol

    def eq(a, b):
        return abs(a - b) <= eq_tol

    count = sum(bad)
    table = {
        0: [("0-bad", all(eq(r, s) for r in (r1, r2, r3, r4)))],
        1: [("1-bad-incoming", bad[0] and eq(r2, s) and le(r1, r3)),
            ("1-bad-outgoing", bad[3] and eq(r3, s) and le(r2, r4))],
        2: [("2-bad-incoming", bad[0] and bad[1] and le(r1, r3) and le(r4, r2)),
            ("2-bad-outgoing", bad[2] and bad[3] and le(r3, r1) and le(r2, r4)),
            ("2-bad-mixed", bad[0] and bad[3] and le(r1, r3) and le(r2, r4))],
        3: [("3-bad-good-incoming",
             not bad[1] and le(r2, r4) and f1 <= max(f2, f3) + eq_tol),
            ("3-bad-good-outgoing",
             not bad[2] and le(r1, r3) and f4 <= max(f2, f3) + eq_tol)],
        4: [("4-bad", True)],
    }
    row = next((name for name, holds in table[count] if holds), "none")
    return count, perm, row, row != "none"


def capped_simplex_projection_kkt(target, caps, total, tol: float = 1e-10):
    """Euclidean projection onto {0 <= x <= caps, sum x = total} by KKT enumeration.

    Tries every active-set pattern (each coordinate at its lower bound, free, or at its
    cap), solves for the multiplier, and returns the first pattern whose KKT conditions
    hold. The projection is unique, so any valid pattern yields the answer. Exponential
    in n; fine as an oracle for n <= 8.
    """
    t = np.asarray(target, dtype=float)
    c = np.asarray(caps, dtype=float)
    n = t.size
    for pattern in itertools.product((0, 1, 2), repeat=n):
        pat = np.asarray(pattern)
        free = pat == 1
        at_cap = pat == 2
        fixed = float(c[at_cap].sum())
        if free.any():
            lam = (total - fixed - float(t[free].sum())) / int(free.sum())
        else:
            # need one multiplier compatible with every bound constraint
            if abs(fixed - total) > max(tol, 1e-9):
                continue
            lo = float((c[at_cap] - t[at_cap]).max()) if at_cap.any() else -np.inf
            hi = float((-t[~at_cap]).min()) if (~at_cap).any() else np.inf
            if lo > hi + tol:
                continue
            lam = min(max(0.0, lo), hi)
        x = t + lam
        ok = True
        if free.any():
            ok &= bool((x[free] >= -tol).all() and (x[free] <= c[free] + tol).all())
        if (pat == 0).any():
            ok &= bool((x[pat == 0] <= tol).all())
        if at_cap.any():
            ok &= bool((x[at_cap] >= c[at_cap] - tol).all())
        if not ok:
            continue
        out = np.where(free, x, np.where(at_cap, c, 0.0))
        return np.clip(out, 0.0, c)
    raise AssertionError("no KKT pattern matched; oracle inputs out of range")


def lp_best_grid_value(caps_in, caps_out, matrix, points: int = 1000) -> float:
    """Best value of sum(gamma) over feasible points of a dense rectangular grid.

    Only for n == 2. Every grid point is checked against the polytope constraints, so
    the returned value is a certified lower bound on the true LP optimum.
    """
    b = np.asarray(caps_in, dtype=float)
    if b.size != 2:
        raise ValueError("grid oracle is 2-D only")
    c = np.asarray(caps_out, dtype=float)
    A = np.asarray(matrix, dtype=float)
    g1 = np.linspace(0.0, b[0], points)
    g2 = np.linspace(0.0, b[1], points)
    G1, G2 = np.meshgrid(g1, g2, indexing="ij")
    feas = np.ones_like(G1, dtype=bool)
    for j in range(A.shape[0]):
        feas &= A[j, 0] * G1 + A[j, 1] * G2 <= c[j] + 1e-12
    vals = np.where(feas, G1 + G2, -np.inf)
    return float(vals.max())


def lp_linprog_value(caps_in, caps_out, matrix) -> float:
    """Optimal sum(gamma) over {0 <= gamma <= caps_in, A gamma <= caps_out}.

    Solved by scipy's HiGHS ``linprog``, a simplex code independent of the package's
    own; any n.
    """
    from scipy.optimize import linprog

    b = np.asarray(caps_in, dtype=float)
    res = linprog(-np.ones(b.size), A_ub=np.asarray(matrix, dtype=float),
                  b_ub=np.asarray(caps_out, dtype=float),
                  bounds=[(0.0, x) for x in b], method="highs")
    if not res.success:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(-res.fun)


def ones_in_span(vectors, tol: float = 1e-10) -> bool:
    """Literal check that the all-ones vector lies in the span of ``vectors``."""
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    ones = np.ones((1, V.shape[1]))
    return np.linalg.matrix_rank(V, tol=tol) == np.linalg.matrix_rank(
        np.vstack([V, ones]), tol=tol)


def godunov_reference(model, node, profiles, dxs, n: int, dt: float, steps: int):
    """The Godunov node simulation written arc by arc, as a plain loop.

    ``profiles`` are the initial cell densities of each arc (incoming arcs first,
    ``n`` of them), ``dxs`` their cell widths, and ``node`` maps the tuple of the
    node-side cell densities to the node flux vector. Each step computes every arc's
    interior fluxes min(demand(left), supply(right)) on its own, pads them with the
    outer extrapolation flux and the node flux, updates the arc and clips it to
    [0, 1]. Only ``model.value`` and ``model.sigma``/``f_max`` are used. Returns the
    final densities, the node flux vector of every step and the ledger rows
    (t, mass, cumulative inflow, cumulative outflow).
    """
    rhos = [np.clip(np.asarray(p, dtype=float), 0.0, 1.0) for p in profiles]

    def mass():
        return sum(float(r.sum()) * dx for r, dx in zip(rhos, dxs))

    t = in_cum = out_cum = 0.0
    ledger = [(0.0, mass(), 0.0, 0.0)]
    gammas = []
    for _ in range(steps):
        gamma = node(tuple(float(r[-1] if l < n else r[0]) for l, r in enumerate(rhos)))
        inflow = outflow = 0.0
        new = []
        for l, (r, dx) in enumerate(zip(rhos, dxs)):
            left, right = r[:-1], r[1:]
            dem = np.where(left <= model.sigma, model.value(left), model.f_max)
            sup = np.where(right <= model.sigma, model.f_max, model.value(right))
            interior = np.minimum(dem, sup)
            if l < n:
                outer = float(model.value(r[0]))
                fluxes = np.concatenate(([outer], interior, [gamma[l]]))
                inflow += outer
            else:
                outer = float(model.value(r[-1]))
                fluxes = np.concatenate(([gamma[l]], interior, [outer]))
                outflow += outer
            updated = r - (dt / dx) * (fluxes[1:] - fluxes[:-1])
            if not (updated.min() >= -1e-12 and updated.max() <= 1.0 + 1e-12):
                raise ValueError("a cell density left [0, 1]")
            new.append(np.clip(updated, 0.0, 1.0))
        rhos = new
        t += dt
        in_cum += inflow * dt
        out_cum += outflow * dt
        ledger.append((t, mass(), in_cum, out_cum))
        gammas.append(tuple(gamma))
    return rhos, gammas, ledger


class NotUniqueError(Exception):
    """Raised by :func:`lp_vertex_reference` where the package raises
    ``DegeneracyError``."""


def lp_vertex_reference(caps_in, caps_out, rows, feas_tol: float = 1e-9,
                        match_tol: float = 1e-9) -> tuple[float, ...]:
    """The flux-maximization LP by vertex enumeration, independent of the
    package's simplex: one inverse per nonsingular n-subset of the constraints,
    one batched ``einsum`` for the vertices, a feasibility product in blocks of
    2**16 multiply-adds, the first vertex of largest sum, and ``NotUniqueError``
    when the vertices within ``match_tol`` of that sum spread by more than
    ``match_tol``. Nothing is cached; C(2n+m, n) subsets, so n <= 6 only.
    ``lp_maximize_box_polytope`` agrees with it within ``LP_MATCH_TOL``, not bit
    for bit."""
    A = np.asarray(rows, dtype=float)
    b = [float(x) for x in caps_in]
    c = [float(x) for x in caps_out]
    n = len(b)
    normals = np.vstack([-np.eye(n), np.eye(n), A])
    subsets = np.array(list(itertools.combinations(range(len(normals)), n)))
    systems = normals[subsets]
    regular = np.abs(np.linalg.det(systems)) >= 1e-12
    subsets, inverses = subsets[regular], np.linalg.inv(systems[regular])
    rhs = np.concatenate([np.zeros(n), np.maximum(b, 0.0), np.maximum(c, 0.0)])
    vertices = np.einsum("kij,kj->ki", inverses, rhs[subsets])
    bound = rhs[:, None] + feas_tol
    step = max(1, (1 << 16) // normals.size)
    feasible = vertices[np.concatenate([
        (normals @ vertices[i:i + step].T <= bound).all(axis=0)
        for i in range(0, len(vertices), step)])]
    sums = feasible.sum(axis=1)
    best = int(np.argmax(sums))
    top = feasible[sums >= sums[best] - match_tol]
    if float((top.max(axis=0) - top.min(axis=0)).max()) > match_tol:
        raise NotUniqueError("flux maximizer is not unique")
    return tuple(feasible[best].tolist())


def write_snapshots_csv_reference(result, path) -> None:
    """Snapshot rows (t, arc, x, rho) through ``csv.writer``, one row at a time."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "arc", "x", "rho"])
        for t, grids in result.snapshots:
            for arc, g in enumerate(grids):
                for x, r in zip(g.x_centers(), g.rho):
                    writer.writerow([f"{t:.17g}", arc, f"{x:.17g}", f"{r:.17g}"])


def write_mass_csv_reference(result, path) -> None:
    """Ledger rows (t, total_mass, boundary_in, boundary_out) through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "total_mass", "boundary_in", "boundary_out"])
        for row in result.ledger:
            writer.writerow([f"{v:.17g}" for v in row])
