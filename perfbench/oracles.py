"""Reference computations for the benchmark, written from the paper's definitions.

Nothing here imports ``junction_riemann``: every check recomputes its answer from the
flux formula and the definitions (trace sets, the entropy functional, the flux
maximization LP, the capped-simplex projection, the Godunov scheme), so comparing
the package against these functions is a real check and not a tautology.

All functions are vectorized over a batch of states sharing one flux and one
topology. Arrays of states have shape (N, n+m), incoming arcs first.
"""

from __future__ import annotations

import itertools

import numpy as np

#: trace fluxes must balance to this (the definition's tolerance for "balanced").
BALANCE_TOL = 1e-10
#: entropy minima at or above -ENTROPY_TOL satisfy (E1) / (E2).
ENTROPY_TOL = 1e-10
#: slack on the boundaries of the admissible trace sets.
SET_TOL = 1e-9
#: LP feasibility slack and the distance below which two vertices are one point.
FEAS_TOL = 1e-9
SAME_POINT = 1e-7
#: a node flux this close to the flux of the adjacent datum keeps that datum as its
#: trace, so the flux the arc sees is the datum's own (the solvers' documented rule).
KEEP_TOL = 1e-11


class Flux:
    """A concave unimodal flux on [0, 1] built from a benchmark flux description.

    The description is the same dict the benchmark hands to
    ``FluxModel.from_json``: ``{"kind": ..., "params": {...}}``.
    """

    def __init__(self, desc: dict):
        kind, p = desc["kind"], desc["params"]
        self.kind = kind
        if kind == "quadratic":
            self.c = float(p["coefficient"])
            self.sigma, self.f_max = 0.5, self.c / 4.0
            self.max_speed = self.c
        elif kind == "triangular":
            self.sigma, self.f_max = float(p["sigma"]), float(p["f_max"])
            self.max_speed = max(self.f_max / self.sigma,
                                 self.f_max / (1.0 - self.sigma))
        elif kind == "tabulated":
            self.xs = np.asarray(p["rho"], dtype=float)
            self.ys = np.asarray(p["flux"], dtype=float)
            peak = int(np.argmax(self.ys))
            self.sigma, self.f_max = float(self.xs[peak]), float(self.ys[peak])
            self.max_speed = float(np.max(np.abs(np.diff(self.ys) / np.diff(self.xs))))
        else:
            raise ValueError(f"unknown flux kind {kind!r}")

    def value(self, rho):
        r = np.asarray(rho, dtype=float)
        if self.kind == "quadratic":
            return self.c * r * (1.0 - r)
        if self.kind == "triangular":
            s, fm = self.sigma, self.f_max
            return np.where(r <= s, fm * r / s, fm * (1.0 - r) / (1.0 - s))
        return np.interp(r, self.xs, self.ys)

    def demand(self, rho):
        r = np.asarray(rho, dtype=float)
        return np.where(r <= self.sigma, self.value(r), self.f_max)

    def supply(self, rho):
        r = np.asarray(rho, dtype=float)
        return np.where(r <= self.sigma, self.f_max, self.value(r))

    def invert(self, gamma, increasing: bool):
        """Density with flux ``gamma`` on one monotone branch, by plain bisection."""
        g = np.minimum(np.maximum(np.asarray(gamma, dtype=float), 0.0), self.f_max)
        lo = np.full(g.shape, 0.0 if increasing else self.sigma)
        hi = np.full(g.shape, self.sigma if increasing else 1.0)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = self.value(mid) < g
            go_right = below if increasing else ~below
            lo = np.where(go_right, mid, lo)
            hi = np.where(go_right, hi, mid)
        return 0.5 * (lo + hi)

    def tau(self, rho):
        """The density on the other branch carrying the same flux."""
        r = np.asarray(rho, dtype=float)
        return np.where(r <= self.sigma,
                        self.invert(self.value(r), increasing=False),
                        self.invert(self.value(r), increasing=True))


# -- node-level checks ------------------------------------------------------------------

def balance_gap(flux: Flux, n: int, traces) -> np.ndarray:
    """|sum of incoming - sum of outgoing trace fluxes|, from the flux formula."""
    f = flux.value(traces)
    return np.abs(f[:, :n].sum(axis=1) - f[:, n:].sum(axis=1))


def admissible(flux: Flux, n: int, data, traces, tol: float = SET_TOL) -> np.ndarray:
    """Whether every trace lies in its arc's admissible trace set.

    Incoming datum d: {d} u ]tau(d), 1] when d <= sigma, [sigma, 1] otherwise.
    Outgoing datum d: {d} u [0, tau(d)[ when d >= sigma, [0, sigma] otherwise.
    Boundaries are widened by ``tol``.
    """
    d = np.asarray(data, dtype=float)
    r = np.asarray(traces, dtype=float)
    s = flux.sigma
    t = flux.tau(d)
    same = np.abs(r - d) <= tol
    inc = np.where(d[:, :n] <= s, r[:, :n] > t[:, :n] - tol, r[:, :n] >= s - tol)
    out = np.where(d[:, n:] >= s, r[:, n:] < t[:, n:] + tol, r[:, n:] <= s + tol)
    ok = same | np.concatenate([inc, out], axis=1)
    return ok.all(axis=1) & (r >= 0.0).all(axis=1) & (r <= 1.0).all(axis=1)


def entropy_values(flux: Flux, n: int, traces, ks) -> np.ndarray:
    """F(rho, k) = sum_in sgn(rho-k)(f(rho)-f(k)) - sum_out (same), for each row of ks."""
    r = np.asarray(traces, dtype=float)[:, :, None]
    k = np.asarray(ks, dtype=float)
    k = k[:, None, :] if k.ndim == 2 else k[None, None, :]
    term = np.sign(r - k) * (flux.value(r) - flux.value(k))
    return term[:, :n].sum(axis=1) - term[:, n:].sum(axis=1)


def entropy_minima(flux: Flux, n: int, traces, grid_points: int = 1025,
                   chunk: int = 512):
    """Minimum of F over the candidate set {0, 1, sigma, rho_l}, over a dense k-grid,
    and the value at k = sigma (condition (E2))."""
    r = np.asarray(traces, dtype=float)
    fixed = np.broadcast_to([0.0, 1.0, flux.sigma], (r.shape[0], 3))
    cand = entropy_values(flux, n, r, np.concatenate([fixed, r], axis=1)).min(axis=1)
    grid = np.linspace(0.0, 1.0, grid_points)
    grid_min = np.concatenate([entropy_values(flux, n, r[i:i + chunk], grid).min(axis=1)
                               for i in range(0, r.shape[0], chunk)] or [np.empty(0)])
    at_sigma = entropy_values(flux, n, r, np.array([flux.sigma]))[:, 0]
    return cand, grid_min, at_sigma


# -- the flux-maximization LP by brute-force vertex enumeration ---------------------

class VertexLP:
    """Maximize sum(g) over {0 <= g <= caps_in, A g <= caps_out} by enumerating vertices.

    Works for any n: every n-subset of the 2n+m constraint rows is solved as an
    equality system. The systems depend only on A, so they are inverted once.
    """

    def __init__(self, matrix):
        A = np.asarray(matrix, dtype=float)
        n = A.shape[1]
        self.n = n
        self.G = np.vstack([-np.eye(n), np.eye(n), A])
        combos = np.array(list(itertools.combinations(range(self.G.shape[0]), n)))
        M = self.G[combos]
        keep = np.abs(np.linalg.det(M)) > 1e-12
        self.combos = combos[keep]
        self.inv = np.linalg.inv(M[keep])

    def maximize(self, caps_in, caps_out):
        """Returns (argmax (N, n), max (N,), gap (N,)), where ``gap`` is the objective
        drop to the best vertex that is a different point; the maximizer is unique
        exactly when gap > 0."""
        b = np.atleast_2d(np.asarray(caps_in, dtype=float))
        c = np.atleast_2d(np.asarray(caps_out, dtype=float))
        N = b.shape[0]
        h = np.concatenate([np.zeros((N, self.n)), b, c], axis=1)
        x = np.einsum("cij,ncj->nci", self.inv, h[:, self.combos])
        feasible = (np.einsum("kj,ncj->nck", self.G, x)
                    <= h[:, None, :] + FEAS_TOL).all(axis=2)
        obj = np.where(feasible, x.sum(axis=2), -np.inf)
        best_i = np.argmax(obj, axis=1)
        rows = np.arange(N)
        star = x[rows, best_i]
        best = obj[rows, best_i]
        far = np.abs(x - star[:, None, :]).max(axis=2) > SAME_POINT
        runner_up = np.where(far & feasible, obj, -np.inf).max(axis=1)
        return star, best, best - runner_up


def lp_vertex_max(caps_in, caps_out, matrix):
    """:meth:`VertexLP.maximize` for one batch of caps."""
    return VertexLP(matrix).maximize(caps_in, caps_out)


def project_capped_simplex(target, caps, total):
    """Projection of each row onto {0 <= x <= caps, sum x = total}, by breakpoints.

    x(lam) = clip(target + lam, 0, caps) has a piecewise-linear, nondecreasing sum with
    kinks at -target and caps - target; the sum is evaluated at every kink and
    interpolated linearly on the segment that reaches ``total``.
    """
    t = np.atleast_2d(np.asarray(target, dtype=float))
    c = np.atleast_2d(np.asarray(caps, dtype=float))
    total = np.asarray(total, dtype=float).reshape(-1)
    lam = np.sort(np.concatenate([-t, c - t], axis=1), axis=1)
    s = np.clip(t[:, None, :] + lam[:, :, None], 0.0, c[:, None, :]).sum(axis=2)
    j = np.clip((s < total[:, None]).sum(axis=1), 1, lam.shape[1] - 1)
    rows = np.arange(t.shape[0])
    s0, s1 = s[rows, j - 1], s[rows, j]
    l0, l1 = lam[rows, j - 1], lam[rows, j]
    w = np.where(s1 > s0, (total - s0) / np.where(s1 > s0, s1 - s0, 1.0), 0.0)
    best = l0 + np.clip(w, 0.0, 1.0) * (l1 - l0)
    return np.clip(t + best[:, None], 0.0, c)


# -- Godunov evolution -------------------------------------------------------------------

class GodunovReference:
    """Plain Godunov scheme on n incoming and m outgoing arcs joined by rs1.

    Interior interfaces use min(demand(left), supply(right)); outer ends extrapolate;
    node-side fluxes come from :meth:`node_flux`. Keeps the per-step node fluxes
    and the cumulative outer-boundary integrals.
    """

    def __init__(self, flux: Flux, matrix, grids, dx: float):
        self.flux, self.A = flux, np.asarray(matrix, dtype=float)
        self.n = self.A.shape[1]
        self.lp = VertexLP(self.A)
        self.rho = [np.array(g, dtype=float) for g in grids]
        self.dx = dx
        self.t = 0.0
        self.inflow = 0.0
        self.outflow = 0.0
        self.node_fluxes: list[np.ndarray] = []

    def dt_max(self) -> float:
        return self.dx / self.flux.max_speed

    def node_flux(self, boundary) -> np.ndarray:
        """rs1 node fluxes for one boundary state: the LP maximizer, routed by A."""
        f, n = self.flux, self.n
        b = np.asarray(boundary, dtype=float)
        caps_out = f.supply(b[n:])
        g_in = self.lp.maximize(f.demand(b[:n]), caps_out)[0][0]
        gamma = np.concatenate([g_in, np.minimum(self.A @ g_in, caps_out)])
        own = f.value(b)
        return np.where(np.abs(own - gamma) <= KEEP_TOL, own, gamma)

    def step(self, dt: float) -> None:
        f, n, s = self.flux, self.n, self.flux.sigma
        boundary = [r[-1] for r in self.rho[:n]] + [r[0] for r in self.rho[n:]]
        gamma = self.node_flux(boundary)
        self.node_fluxes.append(gamma)
        new = []
        for l, r in enumerate(self.rho):
            fr = f.value(r)
            below = r <= s
            interior = np.minimum(np.where(below, fr, f.f_max)[:-1],
                                  np.where(below, f.f_max, fr)[1:])
            if l < n:
                outer = float(fr[0])
                fl = np.concatenate(([outer], interior, [gamma[l]]))
                self.inflow += outer * dt
            else:
                outer = float(fr[-1])
                fl = np.concatenate(([gamma[l]], interior, [outer]))
                self.outflow += outer * dt
            new.append(r - (dt / self.dx) * (fl[1:] - fl[:-1]))
        self.rho = [np.clip(r, 0.0, 1.0) for r in new]
        self.t += dt

    def mass(self) -> float:
        return sum(float(r.sum()) * self.dx for r in self.rho)


def simulate_reference(flux: Flux, matrix, grids, dx: float, cfl: float,
                       t_end: float, snapshot_times=()):
    """Run :class:`GodunovReference` to ``t_end`` with the simulate command's rules.

    Snapshots are taken at t = 0, at the first step reaching each requested time and
    at the end. Returns (reference, snapshots, ledger) where the ledger rows are
    (t, total mass, cumulative inflow, cumulative outflow).
    """
    ref = GodunovReference(flux, matrix, grids, dx)
    snaps = [(0.0, [r.copy() for r in ref.rho])]
    ledger = [(0.0, ref.mass(), 0.0, 0.0)]
    pending = sorted(float(s) for s in set(snapshot_times) if s > 0.0)
    while ref.t < t_end - 1e-12:
        dt = min(cfl * ref.dt_max(), t_end - ref.t)
        ref.step(dt)
        ledger.append((ref.t, ref.mass(), ref.inflow, ref.outflow))
        while pending and ref.t >= pending[0] - 1e-12:
            snaps.append((ref.t, [r.copy() for r in ref.rho]))
            pending.pop(0)
    if snaps[-1][0] != ref.t:
        snaps.append((ref.t, [r.copy() for r in ref.rho]))
    return ref, snaps, ledger


def cell_centers(cells: int, dx: float, incoming: bool) -> np.ndarray:
    idx = np.arange(cells) + 0.5
    return (idx - cells) * dx if incoming else idx * dx
