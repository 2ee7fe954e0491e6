"""Spans around the package's public functions, recorded from outside the package.

A :class:`Tracer` replaces each traced function at every name its callers look up
(module globals of every ``junction_riemann`` module, class attributes, and scipy's
``linprog``, which the package imports at call time) by a wrapper that records one
span: name, parent span, start and end in nanoseconds. Spans stay in memory until
:meth:`Tracer.write`; :meth:`Tracer.remove` puts every original back.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

#: every per-layer span the benchmark reports, in report order.
SPANS = (
    "solvers.linprog", "solvers.lp_maximize_box_polytope",
    "solvers.project_capped_simplex", "solvers.rs1_solve", "solvers.rs2_solve",
    "solvers.rs3_solve", "solvers.rs_e1_2x2_solve", "solvers.matrix_in_n",
    "entropy.check_E1", "entropy.entropy_flux", "entropy.classify_2x2",
    "flux.value_scalar", "flux.value_array", "flux.invert", "flux.demand_supply",
    "flux.contains_trace",
    "junction.RiemannState", "junction.from_traces", "junction.trace_from_flux",
    "netsim.step", "netsim.node_solve", "netsim.godunov_interface_flux",
    "netsim.ArcGrid", "netsim.total_mass", "netsim.max_stable_dt",
    "cli.load_document", "cli.write_snapshots_csv", "cli.write_mass_csv",
    "sampling.random_state",
)

#: package functions traced by identity: span name -> (module, attribute names).
_FUNCTIONS = {
    "solvers.lp_maximize_box_polytope": ("solvers", ("lp_maximize_box_polytope",)),
    "solvers.project_capped_simplex": ("solvers", ("project_capped_simplex",)),
    "solvers.rs1_solve": ("solvers", ("rs1_solve",)),
    "solvers.rs2_solve": ("solvers", ("rs2_solve",)),
    "solvers.rs3_solve": ("solvers", ("rs3_solve",)),
    "solvers.rs_e1_2x2_solve": ("solvers", ("rs_e1_2x2_solve",)),
    "solvers.matrix_in_n": ("solvers", ("matrix_in_n",)),
    "entropy.check_E1": ("entropy", ("check_E1",)),
    "entropy.entropy_flux": ("entropy", ("entropy_flux",)),
    "entropy.classify_2x2": ("entropy", ("classify_2x2",)),
    "junction.trace_from_flux": ("junction", ("trace_in_from_flux",
                                              "trace_out_from_flux")),
    "netsim.step": ("netsim", ("step",)),
    "netsim.godunov_interface_flux": ("netsim", ("godunov_interface_flux",)),
    "netsim.total_mass": ("netsim", ("total_mass",)),
    "netsim.max_stable_dt": ("netsim", ("max_stable_dt",)),
    "cli.load_document": ("cli", ("load_document",)),
    "cli.write_snapshots_csv": ("netsim", ("write_snapshots_csv",)),
    "cli.write_mass_csv": ("netsim", ("write_mass_csv",)),
    "sampling.random_state": ("sampling", ("random_state",)),
}

#: methods traced on their class: span name -> (module, class, method names).
_METHODS = {
    "flux.invert": ("flux", "FluxModel", ("invert",)),
    "flux.demand_supply": ("flux", "FluxModel", ("demand", "supply")),
    "flux.contains_trace": ("flux", "FluxModel", ("contains_trace_in",
                                                   "contains_trace_out")),
    "junction.RiemannState": ("junction", "RiemannState", ("__init__",)),
    "netsim.ArcGrid": ("netsim", "ArcGrid", ("__init__",)),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names = list(SPANS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def wrap(self, span: str, fn):
        nid = self._ids[span]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = self._open(nid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    def _wrap_value(self, fn):
        scalar, vector = self._ids["flux.value_scalar"], self._ids["flux.value_array"]
        clock = time.perf_counter_ns

        def traced(model, rho):
            idx = self._open(scalar if np.isscalar(rho) else vector)
            t0 = clock()
            try:
                return fn(model, rho)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return traced

    # -- installing and removing ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced function at every name the package looks it up by."""
        if self._undo:
            return
        import scipy.optimize

        import junction_riemann as jr
        import junction_riemann.cli  # noqa: F401  (not imported by the package itself)
        modules = [m for name, m in list(sys.modules.items())
                   if name == "junction_riemann" or name.startswith("junction_riemann.")]
        for span, (module, attrs) in _FUNCTIONS.items():
            for attr in attrs:
                original = getattr(getattr(jr, module), attr)
                wrapped = self.wrap(span, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapped)
        for span, (module, cls_name, attrs) in _METHODS.items():
            cls = getattr(getattr(jr, module), cls_name)
            for attr in attrs:
                self._set(cls, attr, self.wrap(span, vars(cls)[attr]))
        model_cls = jr.flux.FluxModel
        value = self._wrap_value(vars(model_cls)["value"])
        self._set(model_cls, "value", value)
        self._set(model_cls, "__call__", value)
        from_traces = vars(jr.junction.TraceSolution)["from_traces"].__func__
        self._set(jr.junction.TraceSolution, "from_traces",
                  staticmethod(self.wrap("junction.from_traces", from_traces)))
        self._set(scipy.optimize, "linprog",
                  self.wrap("solvers.linprog", scipy.optimize.linprog))
        # the Godunov loop reaches its solver through the handle the CLI builds
        build = jr.cli.solver_from_config
        self._set(jr.cli, "solver_from_config",
                  lambda *a, **k: self.wrap("netsim.node_solve", build(*a, **k)))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, to split the record into phases."""
        return len(self.name)

    def totals(self, first: int, last: int) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time in microseconds) over spans [first, last)."""
        name = np.frombuffer(self.name, dtype=np.int32)[:last]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:last]
        dur = (np.frombuffer(self.end, dtype=np.int64)[:last]
               - np.frombuffer(self.start, dtype=np.int64)[:last]).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=last)
        own = (dur - child)[first:]
        ids = name[first:]
        calls = np.bincount(ids, minlength=len(self.names))
        self_ns = np.bincount(ids, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_ns[i]) / 1e3)
                for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span to an ``.npz`` file: arrays ``name`` (index into
        ``names``), ``parent`` (span index, -1 at top level), ``start`` and ``end``
        (``perf_counter_ns``)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.int64),
                 end=np.frombuffer(self.end, dtype=np.int64))
