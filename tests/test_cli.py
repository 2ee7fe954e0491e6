"""Command-line interface: documents, exit codes, and output formats."""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys

import pytest

from junction_riemann import (
    DistributionMatrix,
    FluxModel,
    InputError,
    NodeTopology,
    RiemannState,
    check_E1,
    classify_2x2,
    rs1_solve,
)
from junction_riemann import cli
from junction_riemann.cli import eval_expr, format_float, main, resolve_numbers

SQ = math.sqrt

RS1_DOC = {
    "state": {"n": 2, "m": 2,
              "rho": [{"expr": "3/4"}, {"expr": "1/8"},
                      {"expr": "(8+sqrt(34))/16"}, {"expr": "1/10"}]},
    "solver": {"solver": "rs1",
               "A": [[{"expr": "1/3"}, {"expr": "1/2"}],
                     [{"expr": "2/3"}, {"expr": "1/2"}]]},
}
RS2_TRACE_DOC = {
    "state": {"n": 2, "m": 2,
              "rho": [{"expr": "1/4"}, {"expr": "1/4"},
                      {"expr": "1/2 - sqrt(3)/(4*sqrt(2))"},
                      {"expr": "1/2 - 1/(4*sqrt(2))"}]},
}


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- expression evaluation ----------------------------------------------------------------


def test_eval_expr_values():
    assert eval_expr("(8+sqrt(34))/16") == (8 + SQ(34)) / 16
    assert eval_expr("1/3") == 1 / 3
    assert eval_expr("-(1/4)") == -0.25
    assert eval_expr("+2*3 - 1/2") == 5.5
    assert eval_expr("sqrt(2)/2") == SQ(2) / 2
    assert eval_expr("1/2 - sqrt(3)/(4*sqrt(2))") == 0.5 - SQ(3) / (4 * SQ(2))


@pytest.mark.parametrize("bad", [
    "__import__('os')",
    "os.system('true')",
    "x + 1",
    "2 ** 3",
    "sqrt(-1)",
    "sqrt(1, 2)",
    "sin(1)",
    "[1, 2]",
    "lambda: 1",
    "'a' + 'b'",
    "1; 2",
    "",
    "1/0",
    "sqrt(1/0)",
    pytest.param("-" * 5000 + "0.5", id="5000-unary-minus"),
    pytest.param("1+" * 2000 + "1", id="2000-additions"),
    pytest.param("1" * 400, id="400-digit-integer"),
])
def test_eval_expr_rejects(bad):
    with pytest.raises(InputError):
        eval_expr(bad)


@pytest.mark.parametrize("expr", ["1/0", "-" * 5000 + "0.5"], ids=["1/0", "unary-minus"])
def test_unevaluable_expression_exits_1_without_traceback(tmp_path, capsys, expr):
    doc = {"state": {"n": 1, "m": 1, "rho": [{"expr": expr}, 0.5]},
           "solver": {"solver": "rs_1x1"}}
    assert main(["solve", "--input", write_doc(tmp_path, "d.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_eval_expr_rejects_non_string():
    with pytest.raises(InputError):
        eval_expr(5)


def test_resolve_numbers_recurses():
    doc = {"a": [{"expr": "1/2"}, 3, {"b": {"expr": "sqrt(4)"}}],
           "expr": "kept because the object has siblings", "c": 1.5}
    got = resolve_numbers(doc)
    assert got["a"][0] == 0.5
    assert got["a"][2]["b"] == 2.0
    assert got["expr"] == "kept because the object has siblings"
    assert got["c"] == 1.5


def test_resolve_numbers_rejects_deep_nesting():
    deep = [{"expr": "1/2"}]
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(InputError, match="nested too deeply"):
        resolve_numbers(deep)


def test_format_float_round_trips():
    for x in (1 / 3, (8 + SQ(34)) / 16, -19 / 48, 1e-300, 0.1 + 0.2):
        assert float(format_float(x)) == x


# -- exit codes ---------------------------------------------------------------------------


def test_missing_input_exits_1(capsys):
    assert main(["solve"]) == 1
    assert "input" in capsys.readouterr().err


def test_nonexistent_file_exits_1(tmp_path, capsys):
    assert main(["solve", "--input", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_invalid_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--input", str(path)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_non_object_document_exits_1(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]")
    assert main(["solve", "--input", str(path)]) == 1
    capsys.readouterr()


def test_solver_topology_mismatch_exits_2(tmp_path, capsys):
    doc = {"state": {"n": 2, "m": 3, "rho": [0.5, 0.5, 0.5, 0.5, 0.5]},
           "solver": {"solver": "rs3"}}
    assert main(["solve", "--input", write_doc(tmp_path, "d.json", doc)]) == 2
    assert "topology" in capsys.readouterr().err.lower()


def test_unbalanced_entropy_exits_2(tmp_path, capsys):
    doc = {"state": {"n": 1, "m": 1, "rho": [0.9, 0.2]}}
    assert main(["entropy", "--input", write_doc(tmp_path, "d.json", doc)]) == 2
    assert "precondition" in capsys.readouterr().err


# -- solve --------------------------------------------------------------------------------


def test_solve_counterexample_json(tmp_path, capsys):
    assert main(["solve", "--input", write_doc(tmp_path, "d.json", RS1_DOC)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["gamma"] == pytest.approx([1.0, 13 / 48, 15 / 32, 77 / 96],
                                             abs=1e-10)
    assert payload["balanced"] and payload["admissible"]
    assert payload["flux"]["kind"] == "quadratic"
    assert len(payload["rho"]) == 4


def test_solve_counterexample_csv(tmp_path):
    out = tmp_path / "traces.csv"
    code = main(["solve", "--input", write_doc(tmp_path, "d.json", RS1_DOC),
                 "--format", "csv", "--output", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["arc", "orientation", "rho", "gamma"]
    assert [r[1] for r in rows[1:]] == ["in", "in", "out", "out"]
    assert float(rows[1][3]) == pytest.approx(1.0, abs=1e-10)
    assert float(rows[2][3]) == pytest.approx(13 / 48, abs=1e-10)


def test_solve_identity_1x1(tmp_path, capsys):
    doc = {"state": {"n": 1, "m": 1, "rho": [0.3, 0.3]},
           "solver": {"solver": "rs_1x1"}}
    assert main(["solve", "--input", write_doc(tmp_path, "d.json", doc)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho"] == [0.3, 0.3]
    assert payload["gamma"] == pytest.approx([0.84, 0.84], abs=1e-12)


def test_solver_flag_overrides_document(tmp_path, capsys):
    doc = {"state": {"n": 1, "m": 1, "rho": [0.3, 0.3]}}
    doc_path = write_doc(tmp_path, "d.json", doc)
    assert main(["solve", "--input", doc_path]) == 1
    capsys.readouterr()
    solver_path = write_doc(tmp_path, "s.json", {"solver": "rs_1x1"})
    assert main(["solve", "--input", doc_path, "--solver", solver_path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rho"] == [0.3, 0.3]


# -- entropy ------------------------------------------------------------------------------


def test_entropy_direct_traces(tmp_path, capsys):
    path = write_doc(tmp_path, "d.json", RS2_TRACE_DOC)
    assert main(["entropy", "--input", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert not payload["satisfied_E1"]
    assert payload["satisfied_E2"]
    assert payload["min_value"] == pytest.approx(-0.25, abs=1e-12)
    assert payload["argmin_k"] == pytest.approx(0.25, abs=1e-12)
    assert len(payload["rho"]) == 4
    kVals = [k for k, _ in payload["candidates"]]
    assert kVals == sorted(kVals)


def test_entropy_of_solver_output(tmp_path, capsys):
    path = write_doc(tmp_path, "d.json", RS1_DOC)
    assert main(["entropy", "--input", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value_at_sigma"] == pytest.approx(-19 / 48, abs=1e-10)
    assert not payload["satisfied_E2"]


def test_entropy_round_trip_matches_in_process(tmp_path, capsys):
    solved = tmp_path / "solved.json"
    assert main(["solve", "--input", write_doc(tmp_path, "d.json", RS1_DOC),
                 "--output", str(solved)]) == 0
    assert main(["entropy", "--input", str(solved)]) == 0
    payload = json.loads(capsys.readouterr().out)

    model = FluxModel.quadratic()
    matrix = DistributionMatrix.from_rows([[1 / 3, 1 / 2], [2 / 3, 1 / 2]])
    data = RiemannState(NodeTopology(2, 2),
                        (3 / 4, 1 / 8, (8 + SQ(34)) / 16, 1 / 10))
    want = check_E1(model, rs1_solve(model, matrix, data).state)
    assert payload["candidates"] == [[k, v] for k, v in want.candidates]
    assert payload["min_value"] == want.min_value


def test_entropy_tolerance_flag_passed_only_when_given(tmp_path, capsys, monkeypatch):
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return check_E1(*args, **kwargs)

    monkeypatch.setattr("junction_riemann.cli.check_E1", recording)
    path = write_doc(tmp_path, "d.json", RS2_TRACE_DOC)
    assert main(["entropy", "--input", path, "--tolerance", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["satisfied_E1"]
    assert calls == [{"tol": 0.3}]
    assert main(["entropy", "--input", path]) == 0
    assert not json.loads(capsys.readouterr().out)["satisfied_E1"]
    assert calls == [{"tol": 0.3}, {}]


TIE_DOC = {"state": {"n": 2, "m": 2, "rho": [0.2, 0.2, 0.8, 0.8]}}


@pytest.mark.parametrize("command", ["entropy", "classify"])
@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "-inf"])
def test_meaningless_tolerance_exits_1(tmp_path, capsys, command, tolerance):
    path = write_doc(tmp_path, "d.json", TIE_DOC)
    assert main([command, "--input", path, f"--tolerance={tolerance}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


def test_entropy_csv_lists_candidates(tmp_path):
    out = tmp_path / "cands.csv"
    assert main(["entropy", "--input", write_doc(tmp_path, "d.json", RS2_TRACE_DOC),
                 "--format", "csv", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "F"]
    values = {float(k): float(v) for k, v in rows[1:]}
    assert values[0.25] == pytest.approx(-0.25, abs=1e-12)


def test_entropy_face_block(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("JUNCTION_RIEMANN_SEED", "7")
    doc = {"state": RS1_DOC["state"], "solver": RS1_DOC["solver"],
           "face": {"A": [[{"expr": "1/3"}, {"expr": "1/2"}],
                          [{"expr": "2/3"}, {"expr": "1/2"}]],
                    "H": [1], "samples": 40}}
    path = write_doc(tmp_path, "d.json", doc)
    assert main(["entropy", "--input", path]) == 0
    first = capsys.readouterr().out
    face = json.loads(first)["face"]
    assert face["active"] == [1]
    assert face["face_nonempty"]
    assert face["samples"] == 40
    assert face["constant"] and face["spread"] <= 1e-9
    # the environment seed makes the sampling deterministic
    assert main(["entropy", "--input", path]) == 0
    assert capsys.readouterr().out == first


def test_entropy_face_block_needs_keys(tmp_path, capsys):
    doc = {"state": RS2_TRACE_DOC["state"], "face": {"H": [0]}}
    assert main(["entropy", "--input", write_doc(tmp_path, "d.json", doc)]) == 1
    capsys.readouterr()


FACE_A = [[{"expr": "1/3"}, {"expr": "1/2"}], [{"expr": "2/3"}, {"expr": "1/2"}]]


@pytest.mark.parametrize("change", [
    {"samples": "abc"}, {"samples": 0}, {"samples": -3}, {"samples": True},
    {"samples": 2.0}, {"samples": 10_001}, {"H": ["x"]}, {"H": [1.7]}, {"H": [True]},
    {"H": 1}, {"H": "1"},
], ids=["samples_text", "samples_zero", "samples_negative", "samples_bool",
        "samples_float", "samples_too_many", "H_text", "H_float", "H_bool",
        "H_not_list", "H_string"])
def test_entropy_malformed_face_block_exits_1(tmp_path, capsys, change):
    face = dict({"A": FACE_A, "H": [1], "samples": 5}, **change)
    doc = {"state": RS1_DOC["state"], "solver": RS1_DOC["solver"], "face": face}
    assert main(["entropy", "--input", write_doc(tmp_path, "d.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


def test_entropy_face_block_sample_bounds(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("JUNCTION_RIEMANN_SEED", "7")
    for samples in (1, 5):
        doc = {"state": RS1_DOC["state"], "solver": RS1_DOC["solver"],
               "face": {"A": FACE_A, "H": [1], "samples": samples}}
        assert main(["entropy", "--input", write_doc(tmp_path, "d.json", doc)]) == 0
        face = json.loads(capsys.readouterr().out)["face"]
        assert face["face_nonempty"] and face["samples"] == samples
    assert cli.MAX_FACE_SAMPLES == 10_000


# -- classify -----------------------------------------------------------------------------


def test_classify_all_sigma(tmp_path, capsys):
    doc = {"state": {"n": 2, "m": 2, "rho": [0.5, 0.5, 0.5, 0.5]}}
    assert main(["classify", "--input", write_doc(tmp_path, "d.json", doc)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"bad_count": 0, "permutation": [0, 1, 2, 3],
                       "row": "0-bad", "admissible": True}


def test_classify_four_bad_csv(tmp_path):
    doc = {"state": {"n": 2, "m": 2, "rho": [0.2, 0.3, 0.7, 0.8]}}
    out = tmp_path / "verdict.csv"
    assert main(["classify", "--input", write_doc(tmp_path, "d.json", doc),
                 "--format", "csv", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["bad_count", "row", "admissible", "permutation"]
    assert rows[1][0] == "4" and rows[1][1] == "4-bad" and rows[1][2] == "True"


def test_classify_tolerance_flag(tmp_path, capsys):
    doc = {"state": {"n": 2, "m": 2, "rho": [0.5 + 2e-7, 0.5, 0.5, 0.5]}}
    path = write_doc(tmp_path, "d.json", doc)
    assert main(["classify", "--input", path]) == 0
    strict = json.loads(capsys.readouterr().out)
    assert strict["row"] == "none" and not strict["admissible"]
    assert main(["classify", "--input", path, "--tolerance", "1e-6"]) == 0
    loose = json.loads(capsys.readouterr().out)
    assert loose["row"] == "0-bad" and loose["admissible"]


def test_classify_tolerance_flag_classifies_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return classify_2x2(*args, **kwargs)

    monkeypatch.setattr("junction_riemann.cli.classify_2x2", counting)
    doc = {"state": {"n": 2, "m": 2, "rho": [0.5 + 2e-7, 0.5, 0.5, 0.5]}}
    path = write_doc(tmp_path, "d.json", doc)
    assert main(["classify", "--input", path, "--tolerance", "1e-6"]) == 0
    assert calls == [{"eq_tol": 1e-6}]
    assert main(["classify", "--input", path]) == 0
    assert calls == [{"eq_tol": 1e-6}, {}]
    capsys.readouterr()


# -- simulate -----------------------------------------------------------------------------


def test_simulate_writes_summary_and_files(tmp_path, capsys):
    doc = {"state": {"n": 1, "m": 1, "rho": [0.75, 0.25]},
           "solver": {"solver": "rs_1x1"},
           "cells": 20, "t_end": 0.05, "cfl": 0.5, "snapshots": [0.02]}
    prefix = str(tmp_path / "sim")
    assert main(["simulate", "--input", write_doc(tmp_path, "d.json", doc),
                 "--output", prefix]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n"] == 1 and summary["m"] == 1
    assert summary["steps"] > 0
    assert summary["mass_drift"] <= 1e-9
    assert (tmp_path / "sim_snapshots.csv").exists()
    assert (tmp_path / "sim_mass.csv").exists()
    with open(prefix + "_summary.json") as fh:
        assert json.load(fh) == summary


SIM_DOC = {"state": {"n": 1, "m": 1, "rho": [0.75, 0.25]},
           "solver": {"solver": "rs_1x1"},
           "cells": 20, "t_end": 0.05, "cfl": 0.5, "snapshots": [0.02]}


@pytest.mark.parametrize("change", [
    {"cells": "abc"}, {"cells": 1e20}, {"length": "x"}, {"initial": ["a", "b"]},
    {"cfl": [1]}, {"snapshots": 5}, "missing output directory",
], ids=["cells", "cells_past_numpy_limit", "length", "initial", "cfl", "snapshots",
        "output"])
def test_simulate_malformed_document_exits_1(tmp_path, capsys, change):
    doc = dict(SIM_DOC)
    prefix = str(tmp_path / "sim")
    if change == "missing output directory":
        prefix = str(tmp_path / "no" / "such" / "dir" / "sim")
    else:
        doc.update(change)
    code = main(["simulate", "--input", write_doc(tmp_path, "d.json", doc),
                 "--output", prefix])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("input error:") and "Traceback" not in err


def test_simulate_grid_memory_error_exits_1(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("no room for the grid")

    monkeypatch.setattr("junction_riemann.netsim.np.full", exhausted)
    assert main(["simulate", "--input", write_doc(tmp_path, "d.json", SIM_DOC)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "no room for the grid" in err


def test_simulate_too_many_cells_exits_1_before_allocating(tmp_path, capsys,
                                                           monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("grids were built")

    monkeypatch.setattr("junction_riemann.cli.make_grids", refuse)
    monkeypatch.setattr("junction_riemann.netsim.np.full", refuse)
    doc = dict(SIM_DOC, cells=10**9)
    assert main(["simulate", "--input", write_doc(tmp_path, "d.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "'cells'" in err


def _deep_json(shape: str, depth: int) -> str:
    if shape == "arrays":
        return "[" * depth + "0.5" + "]" * depth
    return '{"a": ' * depth + "0.5" + "}" * depth


# 100 000 levels stop json.load; 0.6 of the recursion limit passes json.load and
# stops the {"expr"} resolution, which recurses about twice per level
@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("shape", ["arrays", "objects"])
@pytest.mark.parametrize("depth", ["limit", 100_000])
@pytest.mark.parametrize("where", ["input", "solver"])
def test_deeply_nested_document_exits_1(tmp_path, capsys, command, shape, depth,
                                        where):
    depth = int(sys.getrecursionlimit() * 0.6) if depth == "limit" else depth
    deep = _deep_json(shape, depth)
    argv = [command, "--output", str(tmp_path / "out")]
    if where == "input":
        path = tmp_path / "d.json"
        path.write_text('{"state": ' + deep + ', "solver": {"solver": "rs_1x1"}}')
    else:
        path = tmp_path / "d.json"
        path.write_text(json.dumps(SIM_DOC))
        solver = tmp_path / "s.json"
        solver.write_text('{"solver": "rs_1x1", "extra": ' + deep + "}")
        argv += ["--solver", str(solver)]
    assert main(argv + ["--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1
    assert "Traceback" not in err


# -- reproduce ----------------------------------------------------------------------------


def test_reproduce_all_rows_pass(capsys):
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 6
    assert "FAIL" not in out
    assert "all rows pass" in out
    assert format_float(-19 / 48) in out
    assert "-0.25" in out
    assert format_float(-2 / 3) in out
    assert format_float(-64 / 75) in out


# -- installed entry point ----------------------------------------------------------------


def test_console_script_runs(tmp_path):
    exe = shutil.which("junction-riemann")
    assert exe is not None
    done = subprocess.run([exe, "solve", "--input",
                           write_doc(tmp_path, "d.json", RS1_DOC)],
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert json.loads(done.stdout)["balanced"]
