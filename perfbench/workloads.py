"""The four benchmark workloads.

Each workload builds its inputs from the run's seed in :meth:`setup`, runs one round
of items per :meth:`round` (every round is the same list of operations, so the share
of failed items is the same in every run), and afterwards checks every recorded
output against the package-independent computations in :mod:`oracles` in
:meth:`check`. :meth:`selfcheck` feeds those same checks deliberately corrupted
outputs and reports any check that fails to reject one.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
import time
from array import array

import numpy as np

import oracles as O

_TAB_RHO = np.linspace(0.0, 1.0, 21)

#: the three flux kinds, as descriptions both the package and the oracles read.
FLUXES = {
    "quadratic": {"kind": "quadratic", "params": {"coefficient": 4.0}},
    "triangular": {"kind": "triangular", "params": {"sigma": 0.4, "f_max": 0.9}},
    "tabulated": {"kind": "tabulated",
                  "params": {"rho": _TAB_RHO.tolist(),
                             "flux": (4.0 * _TAB_RHO * (1.0 - _TAB_RHO)).tolist()}},
}

#: the distribution matrix of the paper's flux-maximization counterexample.
PAPER_A = ((1 / 3, 1 / 2), (2 / 3, 1 / 2))

#: fixed seed of the 4x4 / 4x5 data; see SweepWide for why it is not the run's seed.
PANEL_SEED = 11

CLOCK = time.perf_counter_ns


class Checker:
    """Collects check failures as readable lines."""

    def __init__(self):
        self.problems: list[str] = []

    def count(self, what: str, bad) -> None:
        bad = np.asarray(bad, dtype=bool)
        if bad.any():
            self.problems.append(f"{what}: {int(bad.sum())} of {bad.size}")

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self.problems.append(what)


def _rejects(check, problem: str, *args) -> bool:
    """Whether ``check`` reports ``problem`` on the given (corrupted) outputs."""
    ck = Checker()
    check(ck, "x", *args)
    return any(problem in line for line in ck.problems)


def _unpack(sols):
    traces = np.array([s.state.rho for s in sols])
    gamma = np.array([s.gamma for s in sols])
    flags = np.array([s.balanced and s.admissible for s in sols])
    return traces, gamma, flags


# -- checks shared by the solver sweeps --------------------------------------------

def check_traces(ck, label, flux, n, data, traces, gamma, flags):
    """Flux balance, reported fluxes, admissible trace sets and the solver's own flags."""
    ck.count(f"{label}: trace fluxes do not balance",
             O.balance_gap(flux, n, traces) > O.BALANCE_TOL)
    ck.count(f"{label}: reported flux differs from f(trace)",
             np.abs(gamma - flux.value(traces)).max(axis=1) > 1e-12)
    ck.count(f"{label}: trace outside its admissible set",
             ~O.admissible(flux, n, data, traces))
    ck.count(f"{label}: solution flagged unbalanced or inadmissible", ~flags)


def check_entropy(ck, label, flux, n, traces, reports):
    """check_E1 reports against the candidate-set minimum and a dense k-grid."""
    cand, grid, at_sigma = O.entropy_minima(flux, n, traces)
    tol = O.ENTROPY_TOL
    got_min = np.array([r.min_value for r in reports], dtype=float)
    got_e1 = np.array([r.satisfied_E1 for r in reports], dtype=bool)
    got_sigma = np.array([r.value_at_sigma for r in reports], dtype=float)
    got_e2 = np.array([r.satisfied_E2 for r in reports], dtype=bool)
    ck.count(f"{label}: E1 minimum differs from the candidate-set oracle",
             np.abs(got_min - cand) > 1e-11)
    ck.count(f"{label}: dense k-grid finds F below the candidate minimum",
             grid < cand - 1e-12)
    ck.count(f"{label}: E1 verdict differs from the oracle",
             (np.abs(cand + tol) > 1e-11) & (got_e1 != (cand >= -tol)))
    ck.count(f"{label}: F(rho, sigma) differs from the oracle",
             np.abs(got_sigma - at_sigma) > 1e-11)
    ck.count(f"{label}: E2 verdict differs from the oracle",
             (np.abs(at_sigma + tol) > 1e-11) & (got_e2 != (at_sigma >= -tol)))
    return cand, grid, at_sigma


def check_rs1(ck, label, flux, A, data, gamma):
    """rs1 fluxes against the vertex-enumeration maximizer, which must be unique."""
    n = A.shape[1]
    caps_out = flux.supply(data[:, n:])
    star, _, gap = O.lp_vertex_max(flux.demand(data[:, :n]), caps_out, A)
    ck.count(f"{label}: incoming fluxes are not the LP maximizer",
             np.abs(gamma[:, :n] - star).max(axis=1) > 1e-9)
    ck.count(f"{label}: outgoing fluxes are not A times the maximizer",
             np.abs(gamma[:, n:] - np.minimum(star @ A.T, caps_out)).max(axis=1) > 1e-9)
    ck.count(f"{label}: LP maximizer is not unique", ~(gap > 1e-12))
    return gap


def check_rs2(ck, label, flux, n, theta_in, theta_out, data, gamma):
    """rs2 fluxes: maximal through-flow split by exact capped-simplex projections."""
    cin, cout = flux.demand(data[:, :n]), flux.supply(data[:, n:])
    through = np.minimum(cin.sum(axis=1), cout.sum(axis=1))
    want = np.concatenate(
        [O.project_capped_simplex(through[:, None] * theta_in, cin, through),
         O.project_capped_simplex(through[:, None] * theta_out, cout, through)], axis=1)
    ck.count(f"{label}: fluxes differ from the through-flow projection",
             np.abs(gamma - want).max(axis=1) > 1e-9)


def check_rs3(ck, label, flux, n, theta_in, gamma_j, data, gamma):
    """rs3 fluxes: per-line caps, total capped by gamma_J, projected split."""
    line = np.minimum(flux.demand(data[:, :n]), flux.supply(data[:, n:]))
    total = np.minimum(line.sum(axis=1), gamma_j)
    want = O.project_capped_simplex(total[:, None] * theta_in, line, total)
    ck.count(f"{label}: fluxes differ from the per-line projection",
             np.abs(gamma - np.concatenate([want, want], axis=1)).max(axis=1) > 1e-9)


def check_classify(ck, label, cand, admissible):
    """classify_2x2 must call a state admissible exactly when (E1) holds."""
    clear = np.abs(cand + O.ENTROPY_TOL) > 1e-11
    ck.count(f"{label}: classify_2x2 admissible differs from (E1)",
             clear & (admissible != (cand >= -O.ENTROPY_TOL)))


def check_property(ck, what, holds):
    ck.count(what, ~np.asarray(holds, dtype=bool))


def check_same(ck, what, got, want, tol=1e-10):
    ck.count(what, np.abs(np.asarray(got) - np.asarray(want)).reshape(
        len(got), -1).max(axis=1) > tol)


def paper_rs1_traces(flux):
    """Traces of the paper's rs1 counterexample on the quadratic flux: fluxes
    (1, 13/48, 15/32, 77/96), where F(rho, sigma) = -19/48 and so (E1) fails."""
    return np.array([[0.5, float(flux.invert(13 / 48, increasing=False)),
                      (8 + np.sqrt(34)) / 16,
                      float(flux.invert(77 / 96, increasing=True))]])


def selfcheck_solver_checks(ck, flux, n, data, traces, gamma, flags, reports, A):
    """Corrupt one rs1 output per check and require every check to reject it.

    The output used is the one with a trace farthest from sigma, where a nudge
    changes the flux most.
    """
    i = int(np.argmax(np.abs(traces - flux.sigma).max(axis=1)))
    row = slice(i, i + 1)
    d, tr, g, fl = data[row], traces[row].copy(), gamma[row].copy(), flags[row]
    far = int(np.argmax(np.abs(tr[0] - flux.sigma)))
    bent = tr.copy()
    bent[0, far] += 1e-6 if tr[0, far] < 0.5 else -1e-6
    ck.require("balance check accepts a trace nudged by 1e-6",
               _rejects(check_traces, "do not balance", flux, n, d, bent,
                        flux.value(bent), fl))
    outside = tr.copy()
    outside[0, 0] = flux.sigma - 1e-6 if abs(d[0, 0] - (flux.sigma - 1e-6)) > 1e-8 \
        else flux.sigma - 2e-6
    ck.require("admissibility check accepts a trace outside the trace set",
               _rejects(check_traces, "admissible set", flux, n, d, outside,
                        flux.value(outside), fl))

    class Nudged:
        def __init__(self, r):
            self.min_value = r.min_value + 1e-6
            self.satisfied_E1 = r.satisfied_E1
            self.value_at_sigma = r.value_at_sigma
            self.satisfied_E2 = r.satisfied_E2
    ck.require("entropy check accepts an E1 minimum nudged by 1e-6",
               _rejects(check_entropy, "E1 minimum", flux, n, tr, [Nudged(reports[i])]))
    low = g.copy()
    low[0, 0] -= 1e-6
    ck.require("rs1 oracle accepts a maximizer nudged by 1e-6",
               _rejects(check_rs1, "LP maximizer", flux, A, d, low))


# -- workloads ---------------------------------------------------------------------------

class Workload:
    """Common state: the package, the oracle fluxes and the phase's records."""

    def __init__(self, jr, out_dir):
        self.jr = jr
        self.out_dir = out_dir
        self.fluxes = {k: O.Flux(d) for k, d in FLUXES.items()}

    def counters(self) -> dict[str, float]:
        """Extra per-layer counts of the current phase (totals)."""
        return {}

    def close(self) -> None:
        pass


class Cycled(Workload):
    """A workload whose items walk a fixed cycle of inputs built by set-up.

    Memory must not grow with the number of items a run completes, or a faster
    program would read as a bigger one. So each cycle position keeps only its latest
    outputs (``slots``), and every attempt leaves an 8-byte digest of its outputs;
    the check verifies the latest outputs and that every attempt's digest matches.
    """

    def begin_phase(self) -> None:
        self.attempts = 0
        self.slots = [None] * self.cycle
        self.digests = array("q")

    def keep(self, outputs) -> None:
        self.slots[self.attempts % self.cycle] = outputs
        self.digests.append(hash(self.digest(outputs)))
        self.attempts += 1

    def filled(self):
        return [(i, s) for i, s in enumerate(self.slots) if s is not None]

    def check_repeats(self, ck) -> None:
        want = [hash(self.digest(s)) if s is not None else None for s in self.slots]
        ck.count("an item's outputs differ between repeats of the same input",
                 [d != want[k % self.cycle] for k, d in enumerate(self.digests)])


class Sweep2x2(Cycled):
    """Random 2x2 data; each item solves one datum with rs1, rs2, rs3 and rs_e1_2x2,
    then runs check_E1 and classify_2x2 on every output."""

    POOL = 300           # data per flux kind; a round takes one of each kind

    def setup(self, seed: int) -> None:
        jr = self.jr
        rng = np.random.default_rng(seed)
        topo = jr.NodeTopology(2, 2)
        matrix = jr.DistributionMatrix.from_rows(PAPER_A)
        if not jr.matrix_in_n(matrix, topo):
            raise RuntimeError("the paper's matrix failed its uniqueness certificate")
        self.kinds = list(FLUXES)
        self.cycle = self.POOL * len(self.kinds)
        self.models, self.handles, self.params = {}, {}, {}
        for kind in self.kinds:
            model = jr.FluxModel.from_json(FLUXES[kind])
            a, b = rng.uniform(0.2, 0.8, 2)
            c, e = rng.uniform(0.2, 0.8, 2)
            gamma_j = float(rng.uniform(0.5, 2.0)) * model.f_max
            theta2 = jr.ThetaWeights((a, 1.0 - a), (b, 1.0 - b))
            theta3 = jr.ThetaWeights((c, 1.0 - c), (e, 1.0 - e))
            self.models[kind] = model
            self.params[kind] = (theta2, theta3, gamma_j)
            self.handles[kind] = (
                ("rs1", jr.RS1Solver(model, matrix)),
                ("rs2", jr.RS2Solver(model, theta2)),
                ("rs3", jr.RS3Solver(model, theta3, jr.CrossingCapacity(gamma_j))),
                ("rs_e1_2x2", jr.RSE12x2Solver(model)))
        self.A = np.array(PAPER_A)
        self.data = [jr.random_state(rng, topo) for _ in range(self.cycle)]
        self.begin_phase()
        for _ in range(10):
            self.round()

    @staticmethod
    def digest(outs):
        return tuple((sol.state.rho, rep.min_value, cls.admissible)
                     for sol, rep, cls in outs)

    def round(self):
        jr = self.jr
        check_E1, classify = jr.check_E1, jr.classify_2x2
        times = []
        for kind in self.kinds:
            model = self.models[kind]
            datum = self.data[self.attempts % self.cycle]
            t0 = CLOCK()
            outs = []
            for _, handle in self.handles[kind]:
                sol = handle(datum)
                outs.append((sol, check_E1(model, sol.state),
                             classify(model, sol.state)))
            times.append(CLOCK() - t0)
            self.keep(outs)
        return times, 0

    def _arrays(self, kind):
        k = self.kinds.index(kind)
        recs = [(i, outs) for i, outs in self.filled() if i % len(self.kinds) == k]
        data = np.array([self.data[i].rho for i, _ in recs])
        per_solver = []
        for s in range(4):
            sols = [outs[s][0] for _, outs in recs]
            per_solver.append((sols, _unpack(sols), [o[s][1] for _, o in recs],
                               np.array([o[s][2].admissible for _, o in recs])))
        return recs, data, per_solver

    def check(self) -> list[str]:
        ck = Checker()
        self.check_repeats(ck)
        for kind in self.kinds:
            flux = self.fluxes[kind]
            theta2, theta3, gamma_j = self.params[kind]
            recs, data, per_solver = self._arrays(kind)
            if not recs:
                continue
            for (name, handle), (sols, (traces, gamma, flags), reports, cls) in zip(
                    self.handles[kind], per_solver):
                label = f"{kind} {name}"
                check_traces(ck, label, flux, 2, data, traces, gamma, flags)
                cand, _, at_sigma = check_entropy(ck, label, flux, 2, traces, reports)
                check_classify(ck, label, cand, cls)
                if name == "rs1":
                    check_rs1(ck, label, flux, self.A, data, gamma)
                elif name == "rs2":
                    check_rs2(ck, label, flux, 2, theta2.incoming, theta2.outgoing,
                              data, gamma)
                    check_property(ck, f"{label}: (E2) fails on an n = m node",
                                   at_sigma >= -O.ENTROPY_TOL)
                elif name == "rs3":
                    check_rs3(ck, label, flux, 2, theta3.incoming, gamma_j, data, gamma)
                else:
                    check_property(ck, f"{label}: (E1) fails", cand >= -O.ENTROPY_TOL)
                again = [handle(s.state).state.rho for s in sols]
                check_same(ck, f"{label}: not idempotent", again, traces)
        return ck.problems

    def selfcheck(self) -> list[str]:
        ck = Checker()
        for kind in self.kinds:
            recs, data, per_solver = self._arrays(kind)
            if not recs:
                continue
            sols, (traces, gamma, flags), reports, cls = per_solver[0]
            flux = self.fluxes[kind]
            selfcheck_solver_checks(ck, flux, 2, data, traces, gamma, flags, reports,
                                    A=self.A)
            cand, _, _ = O.entropy_minima(flux, 2, traces)
            ck.require("classify check accepts a flipped verdict",
                       _rejects(check_classify, "classify", cand, ~cls))
            theta2, theta3, gamma_j = self.params[kind]
            g2, g3 = per_solver[1][1][1], per_solver[2][1][1]
            ck.require("rs2 oracle accepts fluxes nudged by 1e-6",
                       _rejects(check_rs2, "projection", flux, 2, theta2.incoming,
                                theta2.outgoing, data[:1], g2[:1] + 1e-6))
            ck.require("rs3 oracle accepts fluxes nudged by 1e-6",
                       _rejects(check_rs3, "projection", flux, 2, theta3.incoming,
                                gamma_j, data[:1], g3[:1] + 1e-6))
            ck.require("idempotence check accepts a trace nudged by 1e-6",
                       _rejects(check_same, "x", traces[:1] + 1e-6, traces[:1]))
        quadratic = O.Flux(FLUXES["quadratic"])
        cand, _, _ = O.entropy_minima(quadratic, 2, paper_rs1_traces(quadratic))
        ck.require("(E1) property accepts the paper's rs1 counterexample",
                   _rejects(check_property, "x", cand >= -O.ENTROPY_TOL))
        saved = self.digests[0]
        self.digests[0] ^= 1
        ck.require("repeat check accepts an output that changed between repeats",
                   _rejects(lambda c, what: self.check_repeats(c), "differ"))
        self.digests[0] = saved
        return ck.problems


class SweepWide(Cycled):
    """Random data on 2x3, 3x2, 3x3, 4x4 and 4x5 nodes; each item is one datum solved
    by rs1 (n <= m) and rs2, with check_E1 on each output.

    The 4x4 and 4x5 data come from the fixed PANEL_SEED, not from the run's seed:
    rs1 raises a spurious DegeneracyError on a fixed subset of them, and a fixed
    panel keeps those failures the same share of every round for every seed.
    """

    SEEDED = ((2, 3), (3, 2), (3, 3))
    PANEL = ((4, 4), (4, 5))
    PER_ROUND = 4        # data per (flux kind, topology) in one round
    POOL_ROUNDS = 10     # rounds of seeded data; the panel is the same every round

    def _matrix(self, rng, n, m):
        jr = self.jr
        while True:
            a = rng.uniform(0.1, 1.0, (m, n))
            matrix = jr.DistributionMatrix.from_rows(a / a.sum(axis=0))
            if jr.matrix_in_n(matrix, jr.NodeTopology(n, m)):
                return matrix

    def setup(self, seed: int) -> None:
        jr = self.jr
        rng = np.random.default_rng(seed)
        panel_rng = np.random.default_rng(PANEL_SEED)
        self.kinds = list(FLUXES)
        self.topos = self.SEEDED + self.PANEL
        self.models = {k: jr.FluxModel.from_json(FLUXES[k]) for k in self.kinds}
        self.matrices, self.handles, self.thetas, self.data = {}, {}, {}, {}
        for n, m in self.topos:
            topo = jr.NodeTopology(n, m)
            src = rng if (n, m) in self.SEEDED else panel_rng
            matrix = self._matrix(src, n, m) if n <= m else None
            self.matrices[(n, m)] = matrix
            for kind in self.kinds:
                model = self.models[kind]
                w_in, w_out = rng.uniform(0.2, 1.0, n), rng.uniform(0.2, 1.0, m)
                theta = jr.ThetaWeights(tuple(w_in / w_in.sum()),
                                        tuple(w_out / w_out.sum()))
                self.thetas[(kind, n, m)] = theta
                self.handles[(kind, n, m)] = (
                    jr.RS1Solver(model, matrix) if matrix is not None else None,
                    jr.RS2Solver(model, theta))
                count = self.PER_ROUND * (self.POOL_ROUNDS if src is rng else 1)
                self.data[(kind, n, m)] = [jr.random_state(src, topo)
                                           for _ in range(count)]
        self.plan = [(k, n, m, j) for k in self.kinds for n, m in self.topos
                     for j in range(self.PER_ROUND)]
        self.cycle = self.POOL_ROUNDS * len(self.plan)
        self.begin_phase()
        self.round()

    def datum_index(self, slot: int) -> tuple:
        kind, n, m, j = self.plan[slot % len(self.plan)]
        offset = 0 if (n, m) in self.PANEL else (slot // len(self.plan)) * self.PER_ROUND
        return kind, n, m, offset + j

    @staticmethod
    def digest(rec):
        first, rep1, second, rep2 = rec
        one = type(first).__name__ if isinstance(first, Exception) else \
            (first.state.rho, rep1.min_value) if first is not None else None
        return one, second.state.rho, rep2.min_value

    def round(self):
        jr = self.jr
        check_E1 = jr.check_E1
        times, failed = [], 0
        for _ in self.plan:
            kind, n, m, i = self.datum_index(self.attempts % self.cycle)
            model = self.models[kind]
            rs1, rs2 = self.handles[(kind, n, m)]
            datum = self.data[(kind, n, m)][i]
            t0 = CLOCK()
            first = rep1 = None
            if rs1 is not None:
                try:
                    first = rs1(datum)
                    rep1 = check_E1(model, first.state)
                except jr.JunctionError as exc:
                    first = exc
            second = rs2(datum)
            rep2 = check_E1(model, second.state)
            times.append(CLOCK() - t0)
            failed += isinstance(first, Exception)
            self.degenerate += isinstance(first, jr.DegeneracyError)
            self.keep((first, rep1, second, rep2))
        return times, failed

    def begin_phase(self) -> None:
        super().begin_phase()
        self.degenerate = 0

    def counters(self):
        return {"solvers.degeneracy_errors": self.degenerate}

    def _group(self, kind, n, m):
        recs = [(self.datum_index(slot)[3], rec) for slot, rec in self.filled()
                if self.datum_index(slot)[:3] == (kind, n, m)]
        data = np.array([self.data[(kind, n, m)][i].rho for i, _ in recs])
        return recs, data

    def check(self) -> list[str]:
        ck = Checker()
        self.check_repeats(ck)
        for kind in self.kinds:
            flux = self.fluxes[kind]
            for n, m in self.topos:
                recs, data = self._group(kind, n, m)
                if not recs:
                    continue
                label = f"{kind} {n}x{m}"
                rs1, rs2 = self.handles[(kind, n, m)]
                if rs1 is not None:
                    self._check_rs1(ck, label, flux, n, m, recs, data, rs1)
                sols = [rec[2] for _, rec in recs]
                traces, gamma, flags = _unpack(sols)
                check_traces(ck, f"{label} rs2", flux, n, data, traces, gamma, flags)
                _, _, at_sigma = check_entropy(ck, f"{label} rs2", flux, n, traces,
                                               [rec[3] for _, rec in recs])
                theta = self.thetas[(kind, n, m)]
                check_rs2(ck, f"{label} rs2", flux, n, theta.incoming,
                          theta.outgoing, data, gamma)
                if n == m:
                    check_property(ck, f"{label} rs2: (E2) fails on an n = m node",
                                   at_sigma >= -O.ENTROPY_TOL)
                again = [rs2(s.state).state.rho for s in sols]
                check_same(ck, f"{label} rs2: not idempotent", again, traces)
        return ck.problems

    def _check_rs1(self, ck, label, flux, n, m, recs, data, rs1):
        jr = self.jr
        A = self.matrices[(n, m)].as_array()
        failed = np.array([isinstance(rec[0], Exception) for _, rec in recs])
        ck.count(f"{label} rs1: failure other than DegeneracyError",
                 [isinstance(rec[0], Exception)
                  and not isinstance(rec[0], jr.DegeneracyError) for _, rec in recs])
        if failed.any():
            ck.require(f"{label} rs1: DegeneracyError outside the 4x4 / 4x5 panel",
                       (n, m) in self.PANEL)
            caps_in = flux.demand(data[failed, :n])
            caps_out = flux.supply(data[failed, n:])
            _, _, gap = O.lp_vertex_max(caps_in, caps_out, A)
            ck.count(f"{label} rs1: DegeneracyError where the maximizer is not unique",
                     ~(gap > 1e-12))
        ok = [rec for (_, rec), f in zip(recs, failed) if not f]
        if not ok:
            return
        d_ok = data[~failed]
        traces, gamma, flags = _unpack([rec[0] for rec in ok])
        check_traces(ck, f"{label} rs1", flux, n, d_ok, traces, gamma, flags)
        check_entropy(ck, f"{label} rs1", flux, n, traces, [rec[1] for rec in ok])
        check_rs1(ck, f"{label} rs1", flux, A, d_ok, gamma)
        if n <= 3:
            topo = jr.NodeTopology(n, m)
            again = [rs1(jr.RiemannState(topo, tuple(t))).state.rho for t in traces]
            check_same(ck, f"{label} rs1: not idempotent", again, traces)
        else:
            # re-solving can hit the same spurious DegeneracyError, so the fixed point
            # is checked on the oracle: the LP at the output state returns its fluxes
            star, _, _ = O.lp_vertex_max(flux.demand(traces[:, :n]),
                                         flux.supply(traces[:, n:]), A)
            check_same(ck, f"{label} rs1: output is not a fixed point", star,
                       gamma[:, :n], tol=1e-9)

    def selfcheck(self) -> list[str]:
        ck = Checker()
        for kind in self.kinds:
            flux = self.fluxes[kind]
            for n, m in ((3, 3), (4, 4)):
                recs, data = self._group(kind, n, m)
                ok = [i for i, (_, rec) in enumerate(recs)
                      if not isinstance(rec[0], Exception)]
                if not ok:
                    continue
                traces, gamma, flags = _unpack([recs[i][1][0] for i in ok])
                selfcheck_solver_checks(ck, flux, n, data[ok], traces, gamma, flags,
                                        [recs[i][1][1] for i in ok],
                                        A=self.matrices[(n, m)].as_array())
        return ck.problems


class GodunovFine(Workload):
    """netsim.run on a 2x2 rs1 node with 10 000 cells per arc, in chunks of
    CHUNK steps; each item is one time step."""

    CELLS = 10_000
    CHUNK = 20
    CFL = 0.5

    def setup(self, seed: int) -> None:
        jr = self.jr
        rng = np.random.default_rng(seed)
        topo = jr.NodeTopology(2, 2)
        self.model = jr.FluxModel.from_json(FLUXES["quadratic"])
        matrix = jr.DistributionMatrix.from_rows(PAPER_A)
        if not jr.matrix_in_n(matrix, topo):
            raise RuntimeError("the paper's matrix failed its uniqueness certificate")
        self.handle = jr.RS1Solver(self.model, matrix)
        self.initial = [np.repeat(rng.uniform(0.05, 0.95, 4), self.CELLS // 4)
                        for _ in range(topo.total)]
        self.grids = jr.make_grids(topo, self.initial, cells=self.CELLS)
        self.start = self.grids
        self.config = jr.SimConfig(self.model, self.handle, cfl=self.CFL)
        jr.run(self.config, self.grids, steps=2)

    def use_solver(self, handle) -> None:
        self.config = self.jr.SimConfig(self.model, handle, cfl=self.CFL)

    def begin_phase(self) -> None:
        # flat float arrays, so memory grows by a few dozen bytes per step only
        self.grids = self.start
        self.gamma = array("d")
        self.traces = array("d")
        self.ledger = array("d")
        self.extremes = array("d")

    def round(self):
        t0 = CLOCK()
        res = self.jr.run(self.config, self.grids, steps=self.CHUNK)
        elapsed = CLOCK() - t0
        self.grids = res.grids
        for _, node in res.node_history:
            self.gamma.extend(node.gamma)
            self.traces.extend(node.state.rho)
        for row in res.ledger:
            self.ledger.extend(row)
        self.extremes.append(min(float(g.rho.min()) for g in res.grids))
        self.extremes.append(max(float(g.rho.max()) for g in res.grids))
        return [elapsed / self.CHUNK] * self.CHUNK, 0

    def check(self, corrupt: str | None = None) -> list[str]:
        ck = Checker()
        flux = O.Flux(FLUXES["quadratic"])
        final = np.array([g.rho for g in self.grids])
        traces = np.array(self.traces).reshape(-1, 4)
        gamma = np.array(self.gamma).reshape(-1, 4)
        ledger = np.array(self.ledger).reshape(-1, self.CHUNK + 1, 4)
        drift = np.abs(ledger[:, :, 1] - ledger[:, :1, 1]
                       - (ledger[:, :, 2] - ledger[:, :, 3])).max(axis=1)
        low, high = min(self.extremes[0::2]), max(self.extremes[1::2])
        ref = self._reference(len(gamma))
        if corrupt == "grid":
            final[1, 17] += 1e-6
        elif corrupt == "node":
            gamma[len(gamma) // 2, 0] += 1e-6
        elif corrupt == "range":
            high = 1.0 + 1e-6
        elif corrupt == "mass":
            drift[0] += 1e-6
        want = np.array(ref.node_fluxes)
        ck.count("node fluxes differ from the vertex-oracle reference",
                 np.abs(gamma - want).max(axis=1) > 1e-9)
        ck.count("node traces do not balance",
                 O.balance_gap(flux, 2, traces) > O.BALANCE_TOL)
        ck.count("final densities differ from the numpy reference",
                 np.abs(final - np.array(ref.rho)).max(axis=1) > 1e-9)
        ck.count("mass drift of a chunk above 1e-9", drift > 1e-9)
        mass = float(final.sum()) / self.CELLS
        ck.require("mass balance against the reference's boundary integrals",
                   abs(mass - float(np.array(self.initial).sum()) / self.CELLS
                       - (ref.inflow - ref.outflow)) <= 1e-8)
        ck.require("densities left [0, 1]", 0.0 <= low and high <= 1.0)
        return ck.problems

    def _reference(self, steps: int):
        """The numpy reference run over the same number of steps, computed once."""
        if getattr(self, "_ref", None) is None or self._ref.steps != steps:
            flux = O.Flux(FLUXES["quadratic"])
            ref = O.GodunovReference(flux, PAPER_A, self.initial, 1.0 / self.CELLS)
            dt = self.CFL * ref.dt_max()
            for _ in range(steps):
                ref.step(dt)
            ref.steps = steps
            self._ref = ref
        return self._ref

    def selfcheck(self) -> list[str]:
        return [f"Godunov check accepts a corrupted {what}"
                for what in ("grid", "node", "range", "mass") if not self.check(what)]


class SimulateCli(Cycled):
    """In-process ``cli.main(["simulate", ...])`` on 2x2 rs1 documents with 100 cells
    per arc; each item is one whole command, writing CSV and JSON output."""

    DOCS = 4
    CELLS = 100
    T_END = 0.125
    SNAPSHOTS = (0.04, 0.08)
    CFL = 0.5

    def __init__(self, jr, out_dir):
        super().__init__(jr, out_dir)
        os.makedirs(out_dir, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="simulate_cli_", dir=out_dir)
        self.bytes = 0

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        expr = [[{"expr": "1/3"}, {"expr": "1/2"}], [{"expr": "2/3"}, {"expr": "1/2"}]]
        self.docs = []
        for d in range(self.DOCS):
            levels = rng.uniform(0.05, 0.95, (4, 2))
            initial = np.repeat(levels, self.CELLS // 2, axis=1)
            doc = {"state": {"n": 2, "m": 2, "rho": levels[:, 0].tolist()},
                   "solver": {"solver": "rs1", "A": expr},
                   "cells": self.CELLS, "length": 1.0, "cfl": self.CFL,
                   "t_end": self.T_END, "snapshots": list(self.SNAPSHOTS),
                   "initial": initial.tolist()}
            path = os.path.join(self.tmp, f"doc{d}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.docs.append((path, os.path.join(self.tmp, f"out{d}"), initial))
        self.cycle = self.DOCS
        self.begin_phase()
        self.round()

    @staticmethod
    def digest(outputs):
        return outputs

    def round(self):
        main = self.jr.cli.main
        times, failed = [], 0
        for path, prefix, _ in self.docs:
            buf = io.StringIO()
            t0 = CLOCK()
            with contextlib.redirect_stdout(buf):
                code = main(["simulate", "--input", path, "--output", prefix])
            times.append(CLOCK() - t0)
            failed += code != 0
            self.keep((code, buf.getvalue()))
            self.bytes += sum(os.path.getsize(prefix + s) for s in
                              ("_snapshots.csv", "_mass.csv", "_summary.json"))
        return times, failed

    def counters(self):
        return {"cli.bytes_written": self.bytes}

    def begin_phase(self) -> None:
        super().begin_phase()
        self.bytes = 0

    def check(self, corrupt: str | None = None) -> list[str]:
        ck = Checker()
        self.check_repeats(ck)
        flux = O.Flux(FLUXES["quadratic"])
        dx = 1.0 / self.CELLS
        for d, (path, prefix, initial) in enumerate(self.docs):
            code, printed = self.slots[d]
            ck.require(f"doc {d}: exit code {code}", code == 0)
            ref, snaps, ledger = O.simulate_reference(
                flux, PAPER_A, initial, dx, self.CFL, self.T_END, self.SNAPSHOTS)
            rows = np.loadtxt(prefix + "_snapshots.csv", delimiter=",", skiprows=1,
                              ndmin=2)
            mass = np.loadtxt(prefix + "_mass.csv", delimiter=",", skiprows=1, ndmin=2)
            with open(prefix + "_summary.json") as fh:
                summary = json.load(fh)
            if corrupt == "snapshot" and d == 0:
                rows[len(rows) // 2, 3] += 1e-6
            if corrupt == "mass" and d == 0:
                mass[-1, 1] += 1e-6
            want = np.array([(t, arc, x, r) for t, grids in snaps
                             for arc, g in enumerate(grids)
                             for x, r in zip(O.cell_centers(self.CELLS, dx, arc < 2), g)])
            ck.require(f"doc {d}: snapshot table has {len(rows)} rows, want {len(want)}",
                       rows.shape == want.shape)
            if rows.shape == want.shape:
                ck.count(f"doc {d}: snapshot densities differ from the reference",
                         np.abs(rows - want).max(axis=1) > 1e-9)
                ck.count(f"doc {d}: snapshot density outside [0, 1]",
                         (rows[:, 3] < 0.0) | (rows[:, 3] > 1.0))
            ledger = np.array(ledger)
            ck.require(f"doc {d}: mass ledger has {len(mass)} rows, want {len(ledger)}",
                       mass.shape == ledger.shape)
            if mass.shape == ledger.shape:
                ck.count(f"doc {d}: mass ledger differs from the reference",
                         np.abs(mass - ledger).max(axis=1) > 1e-9)
                drift = np.abs(mass[:, 1] - mass[0, 1] - (mass[:, 2] - mass[:, 3]))
                ck.count(f"doc {d}: mass drift above 1e-9", drift > 1e-9)
            ck.require(f"doc {d}: summary differs from the reference",
                       summary["steps"] == len(ledger) - 1
                       and abs(summary["t_final"] - ref.t) <= 1e-12
                       and abs(summary["total_mass"] - ref.mass()) <= 1e-9
                       and summary["mass_drift"] <= 1e-9
                       and np.abs(np.array(summary["node_gamma"])
                                  - ref.node_fluxes[-1]).max() <= 1e-9)
            gamma = np.array(summary["node_gamma"])
            ck.require(f"doc {d}: last node fluxes do not balance",
                       abs(gamma[:2].sum() - gamma[2:].sum()) <= O.BALANCE_TOL)
            ck.require(f"doc {d}: printed summary differs from the summary file",
                       json.loads(printed) == summary)
        return ck.problems

    def selfcheck(self) -> list[str]:
        return [f"simulate check accepts a corrupted {what}"
                for what in ("snapshot", "mass") if not self.check(what)]


WORKLOADS = {
    "sweep_2x2": Sweep2x2,
    "sweep_wide": SweepWide,
    "godunov_fine": GodunovFine,
    "simulate_cli": SimulateCli,
}
