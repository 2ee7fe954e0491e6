"""Command-line front end.

Subcommands, each with the options it reads: ``solve`` (run a Riemann solver on node
data; --input, --output, --format, --solver), ``entropy`` (entropy-condition report
for a trace vector or a solver output; those four and --tolerance), ``classify`` (2x2
table classification; --input, --output, --format, --tolerance), ``simulate`` (Godunov
evolution of the node; --input, --output as the prefix of its three files, --solver)
and ``reproduce`` (re-derive every pinned numeric result and compare; no options).

Exit codes: 0 success, 1 malformed input or a usage error, 2 failed precondition.

Documents are JSON; any number may be written as {"expr": "(8+sqrt(34))/16"}, and one
walk over the document evaluates each as it is read (only +, -, *, /, sqrt, parentheses).
Every number is finite, not a string or a bool; n, m and the face's H and samples are
integers; "theta" holds n + m weights (rs3 reads the first n); no "gamma_j" is no cap.
The environment variable JUNCTION_RIEMANN_SEED seeds the sampling-based blocks (the
optional "face" section of ``entropy``).
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import sys

from .entropy import check_E1, check_E2, classify_2x2, entropy_flux, \
    face_objective_equivalence
from .errors import InputError, PreconditionError
from .flux import FluxModel, _floats, _integer, _parameter
from .junction import NodeTopology, RiemannState
from .netsim import SimConfig, make_grids, run, summary_json, write_mass_csv, \
    write_snapshots_csv
from .sampling import default_rng
from .solvers import rs1_solve, rs2_solve, rs3_solve, rs_e1_2x2_solve, \
    solver_from_config, CrossingCapacity, DistributionMatrix, ThetaWeights
from .tolerances import REPRODUCE_TIGHT_TOL, REPRODUCE_TOL

#: the most cells ``simulate`` builds from uniform (scalar) profiles, summed over the
#: arcs: a step keeps a few float arrays of this length, about 80 MB each.
MAX_CELLS = 10_000_000
#: the most face points ``entropy`` samples; the sampler makes up to 500 tries for each.
MAX_FACE_SAMPLES = 10_000


def format_float(x: float) -> str:
    return f"{x:.17g}"


# -- expression evaluation --------------------------------------------------------------

_NESTED = (dict, list)
_BINOPS = {ast.Add: lambda a, b: a + b, ast.Sub: lambda a, b: a - b,
           ast.Mult: lambda a, b: a * b, ast.Div: lambda a, b: a / b}


def eval_expr(text: str) -> float:
    """Safely evaluate an arithmetic expression with sqrt (no names, no calls)."""
    if not isinstance(text, str):
        raise InputError(f"expression must be a string, got {text!r}")
    try:
        return _eval_node(ast.parse(text, mode="eval").body, text)
    except SyntaxError as exc:
        raise InputError(f"bad expression {text!r}: {exc}") from exc
    except (RecursionError, MemoryError) as exc:
        # deep nesting, such as thousands of unary minus signs, exhausts the parser
        # or the evaluator's recursion
        raise InputError(
            f"expression nested too deeply ({len(text)} characters)") from exc
    except ArithmeticError as exc:  # division by zero, integer literal too large
        raise InputError(f"cannot evaluate expression {text!r}: {exc}") from exc


def _eval_node(node: ast.AST, text: str) -> float:
    if isinstance(node, ast.Constant):
        return _parameter(node.value, f"constant in expression {text!r}")
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_eval_node(node.left, text),
                                      _eval_node(node.right, text))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        value = _eval_node(node.operand, text)
        return value if isinstance(node.op, ast.UAdd) else -value
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "sqrt" and len(node.args) == 1 and not node.keywords:
        arg = _eval_node(node.args[0], text)
        if arg < 0:
            raise InputError(f"sqrt of a negative number in {text!r}")
        return math.sqrt(arg)
    raise InputError(f"unsupported element {ast.dump(node)} in expression {text!r}")


def resolve_numbers(obj):
    """Recursively replace {"expr": "..."} objects by their evaluated values."""
    try:
        return _resolve(obj)
    except RecursionError as exc:
        raise InputError("document nested too deeply") from exc


def _resolve(obj):
    if isinstance(obj, dict):
        if set(obj.keys()) == {"expr"}:
            return eval_expr(obj["expr"])
        return {k: _resolve(v) for k, v in obj.items()}
    if isinstance(obj, list):  # no call for a number, so long profiles stay cheap
        return [_resolve(v) if isinstance(v, _NESTED) else v for v in obj]
    return obj


# -- document plumbing -------------------------------------------------------------------

def _read_json(path: str, what: str):
    """The JSON document in ``path`` with its {"expr"} numbers evaluated; any
    unreadable, malformed or too deeply nested file raises InputError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer of too many digits
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputError(f"{path} is nested too deeply") from exc
    return resolve_numbers(doc)


def load_document(path: str | None) -> dict:
    if not path:
        raise InputError("this command needs --input FILE")
    doc = _read_json(path, "input file")
    if not isinstance(doc, dict):
        raise InputError("input document must be a JSON object")
    return doc


def parse_state(doc: dict) -> RiemannState:
    obj = doc.get("state", doc)
    if not isinstance(obj, dict) or "rho" not in obj:
        raise InputError("document needs a 'state' object with n, m, rho")
    return RiemannState.from_json(obj)


def _load_node(args) -> tuple[dict, FluxModel, RiemannState]:
    """The ``--input`` document (its {"expr"} numbers evaluated), its flux model and
    its node state."""
    doc = load_document(args.input)
    return doc, FluxModel.from_json(doc.get("flux")), parse_state(doc)


def build_solver(doc: dict, args, model: FluxModel, topology):
    config = _read_json(args.solver, "solver file") if args.solver else doc.get("solver")
    if config is None:
        raise InputError("no solver configured (add a 'solver' key or use --solver)")
    return solver_from_config(model, config, topology)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write output file: {exc}") from exc


def emit(args, payload: dict, csv_header: list[str], csv_rows: list[list]) -> None:
    if args.format == "csv":
        text = "".join(",".join(format_float(v) if isinstance(v, float) else str(v)
                                for v in row) + "\n" for row in [csv_header, *csv_rows])
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        _write(args.output, text)
    else:
        sys.stdout.write(text)


# -- subcommands -------------------------------------------------------------------------

def cmd_solve(args) -> int:
    doc, model, state = _load_node(args)
    solution = build_solver(doc, args, model, state.topology)(state)
    rows = [[l, "in" if l < state.topology.n else "out",
             solution.state.rho[l], solution.gamma[l]]
            for l in range(state.topology.total)]
    payload = solution.to_json()
    payload["flux"] = model.to_json()
    emit(args, payload, ["arc", "orientation", "rho", "gamma"], rows)
    return 0


def cmd_entropy(args) -> int:
    doc, model, state = _load_node(args)
    options = {} if args.tolerance is None else {"tol": args.tolerance}
    traces = state
    if args.solver or "solver" in doc:
        traces = build_solver(doc, args, model, state.topology)(state).state
    report = check_E1(model, traces, **options)
    payload = report.to_json()
    payload["rho"] = list(traces.rho)
    if "face" in doc:
        face = doc["face"]
        if not isinstance(face, dict) or "A" not in face or "H" not in face:
            raise InputError("the 'face' block needs 'A' and 'H'")
        H = face["H"]
        if not isinstance(H, list):
            raise InputError(f"face 'H' must be a list of arc indices, got {H!r}")
        samples = _integer(face.get("samples", 100), "face 'samples'")
        if not 1 <= samples <= MAX_FACE_SAMPLES:
            raise InputError(f"face 'samples' must be an integer in "
                             f"[1, {MAX_FACE_SAMPLES}], got {samples!r}")
        sample = face_objective_equivalence(
            model, state, DistributionMatrix.from_rows(face["A"]), H,
            samples=samples, rng=default_rng())
        payload["face"] = {
            "active": sorted(sample.active),
            "face_nonempty": sample.face_nonempty,
            "samples": len(sample.values),
            "spread": sample.spread,
            "constant": sample.constant,
        }
    emit(args, payload, ["k", "F"], [[k, v] for k, v in report.candidates])
    return 0


def cmd_classify(args) -> int:
    doc, model, state = _load_node(args)
    options = {} if args.tolerance is None else {"eq_tol": args.tolerance}
    verdict = classify_2x2(model, state, **options)
    emit(args, verdict.to_json(), ["bad_count", "row", "admissible", "permutation"],
         [[verdict.bad_count, verdict.row, verdict.admissible,
           " ".join(str(p) for p in verdict.permutation)]])
    return 0


def parse_simulation(doc: dict, state: RiemannState) -> dict:
    """The simulate fields of a document, as keyword arguments of ``SimConfig``
    (``cfl``, ``t_end``) and of ``make_grids`` (``initial``, ``cells``,
    ``length``), plus ``snapshots``. The initial profiles default to the state's
    densities. Any malformed field raises InputError."""
    cells = _parameter(doc.get("cells", 200), "'cells'")
    if cells != int(cells):
        raise InputError(f"'cells' must be an integer, got {doc['cells']!r}")
    initial = doc.get("initial", list(state.rho))
    if not isinstance(initial, list):
        raise InputError(f"'initial' must be a list, got {initial!r}")
    uniform = sum(not isinstance(p, list) for p in initial)
    if int(cells) * uniform > MAX_CELLS:
        raise InputError(f"'cells' {int(cells)} on {uniform} uniform arcs exceeds "
                         f"{MAX_CELLS} cells in all")
    return {
        "cfl": _parameter(doc.get("cfl", 0.5), "'cfl'"),
        "t_end": _parameter(doc.get("t_end", 1.0), "'t_end'"),
        "initial": [_floats(p, "'initial' profile") if isinstance(p, list)
                    else _parameter(p, "'initial' value") for p in initial],
        "cells": int(cells),
        "length": _parameter(doc.get("length", 1.0), "'length'"),
        "snapshots": _floats(doc.get("snapshots", []), "'snapshots'"),
    }


def cmd_simulate(args) -> int:
    doc, model, state = _load_node(args)
    solver = build_solver(doc, args, model, state.topology)
    sim = parse_simulation(doc, state)
    config = SimConfig(flux=model, solver=solver, cfl=sim["cfl"], t_end=sim["t_end"])
    grids = make_grids(state.topology, sim["initial"], cells=sim["cells"],
                       length=sim["length"])
    result = run(config, grids, snapshot_times=sim["snapshots"])
    text = json.dumps(summary_json(result), indent=2) + "\n"
    if args.output:
        try:
            write_snapshots_csv(result, args.output + "_snapshots.csv")
            write_mass_csv(result, args.output + "_mass.csv")
        except OSError as exc:
            raise InputError(f"cannot write output file: {exc}") from exc
        _write(args.output + "_summary.json", text)
    sys.stdout.write(text)
    return 0


def _reproduce_rows(model: FluxModel):
    """Recompute the six pinned results.

    Yields (name, comparisons) where each comparison is a tuple
    (label, expected, computed, tolerance); expected/computed are floats or
    equal-length tuples.
    """
    topo22 = NodeTopology(2, 2)
    sq = math.sqrt

    # flux-maximization counterexample: traces and the entropy value at sigma
    matrix = DistributionMatrix.from_rows([[1 / 3, 1 / 2], [2 / 3, 1 / 2]])
    data1 = RiemannState(topo22, (3 / 4, 1 / 8, (8 + sq(34)) / 16, 1 / 10))
    sol1 = rs1_solve(model, matrix, data1)
    yield ("flux-maximization counterexample", [
        ("fluxes", (1.0, 13 / 48, 15 / 32, 77 / 96), sol1.gamma, REPRODUCE_TOL),
        ("E2 value", -19 / 48, check_E2(model, sol1.state).value_at_sigma, REPRODUCE_TOL),
    ])

    # through-flow solver counterexample: fixed point and F at k = 1/4
    theta2 = ThetaWeights((1 / 2, 1 / 2), (5 / 12, 7 / 12))
    data2 = RiemannState(topo22, (1 / 4, 1 / 4, 1 / 2 - sq(3) / (4 * sq(2)),
                                  1 / 2 - 1 / (4 * sq(2))))
    sol2 = rs2_solve(model, theta2, data2)
    yield ("through-flow counterexample", [
        ("fixed point", data2.rho, sol2.state.rho, REPRODUCE_TOL),
        ("F(k=1/4)", -1 / 4, entropy_flux(model, sol2.state, 1 / 4), REPRODUCE_TIGHT_TOL),
    ])

    # per-line solver: both equilibria and their E2 values
    theta3 = ThetaWeights((3 / 4, 1 / 4), (3 / 4, 1 / 4))
    data3 = RiemannState(topo22, (1 / 5, 1 / 2 + sq(59 / 3) / 10, 4 / 5,
                                  1 / 2 - sq(59 / 3) / 10))
    sol3 = rs3_solve(model, theta3, CrossingCapacity(64 / 75), data3)
    yield ("per-line solver example 1", [
        ("fixed point", data3.rho, sol3.state.rho, REPRODUCE_TOL),
        ("E2 value", -64 / 75, check_E2(model, sol3.state).value_at_sigma, REPRODUCE_TOL),
    ])

    theta4 = ThetaWeights((1 / 2, 1 / 2), (1 / 2, 1 / 2))
    data4 = RiemannState(topo22, (1 / 2 + sq(1 / 2) / 2, 1 / 2 + sq(1 / 3) / 2,
                                  1 / 2 + sq(1 / 2) / 2, 1 / 2 - sq(1 / 3) / 2))
    sol4 = rs3_solve(model, theta4, CrossingCapacity(7 / 6), data4)
    yield ("per-line solver example 2", [
        ("fixed point", data4.rho, sol4.state.rho, REPRODUCE_TOL),
        ("E2 value", -2 / 3, check_E2(model, sol4.state).value_at_sigma, REPRODUCE_TOL),
    ])

    # constructed 2x2 entropy solver: the two worked samples, exact
    out_a = rs_e1_2x2_solve(model, RiemannState(topo22, (1 / 4, 3 / 4, 1 / 4, 1 / 4)))
    yield ("2x2 entropy solver sample a", [
        ("traces", (1 / 4, 1 / 2, 1 / 4, 1 / 2), out_a.state.rho, 0.0),
    ])
    out_b = rs_e1_2x2_solve(model, RiemannState(topo22, (3 / 4, 1 / 4, 1 / 4, 1 / 4)))
    yield ("2x2 entropy solver sample b", [
        ("traces", (1 / 2, 1 / 4, 1 / 2, 1 / 4), out_b.state.rho, 0.0),
    ])


def _comparison_text(expected, computed, tol):
    if isinstance(expected, tuple):
        diff = max(abs(e - c) for e, c in zip(expected, computed))
        exp_text = "(" + ", ".join(format_float(e) for e in expected) + ")"
        got_text = "(" + ", ".join(format_float(c) for c in computed) + ")"
    else:
        diff = abs(expected - computed)
        exp_text = format_float(expected)
        got_text = format_float(computed)
    return diff <= tol, exp_text, got_text, diff


def cmd_reproduce(args) -> int:
    model = FluxModel.quadratic()
    failures = 0
    for name, comparisons in _reproduce_rows(model):
        lines = []
        row_ok = True
        for label, expected, computed, tol in comparisons:
            ok, exp_text, got_text, diff = _comparison_text(expected, computed, tol)
            row_ok = row_ok and ok
            lines.append(f"      {label}: expected {exp_text}\n"
                         f"      {' ' * len(label)}  computed {got_text}"
                         f"  |diff| = {format_float(diff)}")
        failures += 0 if row_ok else 1
        print(f"{'PASS' if row_ok else 'FAIL'}  {name}")
        print("\n".join(lines))
    print(f"{'all rows pass' if failures == 0 else f'{failures} row(s) FAILED'}")
    return 0 if failures == 0 else 1


# -- parser ------------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises InputError (exit 1) on a usage error; subcommand parsers inherit it."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    options = {
        "input": {"help": "input JSON document"},
        "output": {"help": "output file (default: stdout)"},
        "format": {"choices": ("json", "csv"), "default": "json",
                   "help": "output format (default json)"},
        "solver": {"help": "solver configuration JSON file "
                           "(overrides the document's 'solver' key)"},
        "tolerance": {"type": float,
                      "help": "tolerance for entropy/classification checks"},
    }
    # each subcommand: its handler, its help and exactly the options it reads
    commands = {
        "solve": (cmd_solve, "apply a Riemann solver to node data",
                  "input output format solver"),
        "entropy": (cmd_entropy, "entropy-condition report for traces or a solver "
                                 "output", "input output format solver tolerance"),
        "classify": (cmd_classify, "classify a balanced 2x2 trace vector",
                     "input output format tolerance"),
        "simulate": (cmd_simulate, "Godunov evolution of the node",
                     "input output solver"),
        "reproduce": (cmd_reproduce, "recompute every pinned numeric result", ""),
    }
    parser = _Parser(prog="junction-riemann",
                     description="Riemann solvers, entropy checks, and Godunov "
                                 "simulation at a single road-network node.",
                     epilog="Set JUNCTION_RIEMANN_SEED to seed sampling-based blocks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in commands.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=func)
        for flag in flags.split():
            command.add_argument("--" + flag, **options[flag])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
