"""Command-line interface: documents, exit codes, and output formats."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
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
from junction_riemann import cli, netsim
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


# -- options and usage errors ---------------------------------------------------------------

#: the options each subcommand reads; every other (subcommand, option) pair is refused
OPTIONS = {
    "solve": {"--input", "--output", "--format", "--solver"},
    "entropy": {"--input", "--output", "--format", "--solver", "--tolerance"},
    "classify": {"--input", "--output", "--format", "--tolerance"},
    "simulate": {"--input", "--output", "--solver"},
    "reproduce": set(),
}
#: a valid value of each option, and the value it parses to
VALUES = {"--input": ("d.json", "d.json"), "--output": ("o.txt", "o.txt"),
          "--format": ("csv", "csv"), "--solver": ("s.json", "s.json"),
          "--tolerance": ("0.5", 0.5)}


def assert_usage_error(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1
    assert message in captured.err


def test_sixteen_values_are_settable():
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    settable = {name: {flag for action in parser._actions
                       for flag in action.option_strings if flag not in ("-h", "--help")}
                for name, parser in sub.choices.items()}
    assert settable == OPTIONS
    assert sum(len(flags) for flags in settable.values()) == 16


@pytest.mark.parametrize("command", sorted(OPTIONS))
@pytest.mark.parametrize("flag", sorted(VALUES))
def test_each_subcommand_parses_only_the_options_it_reads(capsys, command, flag):
    text, value = VALUES[flag]
    if flag in OPTIONS[command]:
        args = cli.build_parser().parse_args([command, flag, text])
        assert getattr(args, flag[2:]) == value
        assert args.func is getattr(cli, f"cmd_{command}")
    else:
        assert_usage_error(capsys, [command, flag, text],
                           f"unrecognized arguments: {flag} {text}")


@pytest.mark.parametrize("argv, message", [
    (["entropy", "--tolerance", "abc"], "invalid float value: 'abc'"),
    (["classify", "--tolerance", "abc"], "invalid float value: 'abc'"),
    (["solve", "--tolerance", "abc"], "unrecognized arguments: --tolerance abc"),
    (["solve", "--format", "xml"], "invalid choice: 'xml'"),
    (["solve", "--input", "d.json", "--bogus"], "unrecognized arguments: --bogus"),
    (["solve", "--input"], "expected one argument"),
    (["frobnicate"], "invalid choice: 'frobnicate'"),
    ([], "required: command"),
])
def test_usage_errors_exit_1(capsys, argv, message):
    assert_usage_error(capsys, argv, message)


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: junction-riemann")


def test_usage_error_exits_1_from_the_module_entry_point():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-m", "junction_riemann", "solve",
                           "--tolerance", "abc"], capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 1, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("input error:") and done.stderr.count("\n") == 1


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


def test_simulate_writes_one_summary_text_to_file_and_stdout(tmp_path, capsys,
                                                              monkeypatch):
    path, prefix = write_doc(tmp_path, "d.json", SIM_DOC), str(tmp_path / "sim")
    calls = []
    for name in ("dump", "dumps"):
        encode = getattr(json, name)
        monkeypatch.setattr(cli.json, name, lambda *a, encode=encode, **k:
                            calls.append(1) or encode(*a, **k))
    assert main(["simulate", "--input", path, "--output", prefix]) == 0
    assert len(calls) == 1
    with open(prefix + "_summary.json", newline="") as fh:
        assert fh.read() == capsys.readouterr().out


def test_simulate_with_a_huge_t_end_exits_1(tmp_path):
    # 1e300 / dt steps: without the step limit the command would not end
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = write_doc(tmp_path, "d.json", dict(SIM_DOC, t_end=1e300))
    done = subprocess.run([sys.executable, "-m", "junction_riemann", "simulate",
                           "--input", path], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("input error: 't_end' 1e+300 needs more than")
    assert done.stdout == ""


def test_simulate_step_limit(tmp_path, capsys, monkeypatch):
    # SIM_DOC takes dt = 0.5 * (1 / 20) / 4 = 1/160, so t_end = 0.05 is 8 steps
    monkeypatch.setattr(netsim, "MAX_STEPS", 10)
    assert main(["simulate", "--input", write_doc(tmp_path, "d.json", SIM_DOC)]) == 0
    assert json.loads(capsys.readouterr().out)["steps"] == 8
    doc = dict(SIM_DOC, t_end=0.1)
    assert main(["simulate", "--input", write_doc(tmp_path, "d.json", doc)]) == 1
    assert capsys.readouterr().err == \
        "input error: 't_end' 0.1 needs more than 10 time steps\n"


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


#: malformed 'initial' lists and the message each gets, as text spliced into SIM_DOC.
INITIAL_ERRORS = {
    "bad-expr": ('[{"expr": "1/0"}, 0.25]',
                 "cannot evaluate expression '1/0': float division by zero"),
    "string": ('["a", 0.25]', "'initial' value must be a finite number, got 'a'"),
    "object": ('[[0.5, {"a": {"expr": "1/2"}}, 0.5], 0.25]',
               "'initial' profile must be a finite number, got {'a': 0.5}"),
    "expr-for-list": ('{"expr": "2"}', "'initial' must be a list, got 2.0"),
    "deep": ("[" + "[" * 600 + "0.5" + "]" * 600 + ", 0.25]",
             "document nested too deeply"),
    "nan": ("[NaN, 0.25]", "'initial' value must be a finite number, got nan"),
    "bool": ("[[0.5, true, 0.5], 0.25]",
             "'initial' profile must be a finite number, got True"),
}


@pytest.mark.parametrize("initial, message", INITIAL_ERRORS.values(), ids=INITIAL_ERRORS)
def test_simulate_initial_errors_keep_their_messages(tmp_path, capsys, initial, message):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(SIM_DOC)[:-1] + ', "initial": ' + initial + "}")
    assert main(["simulate", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_simulate_walks_the_initial_numbers_once(tmp_path, capsys, monkeypatch):
    calls = []
    resolve = cli._resolve
    monkeypatch.setattr(cli, "_resolve", lambda obj: calls.append(1) or resolve(obj))
    counts = []
    for cells in (10, 1000):
        doc = dict(SIM_DOC, cells=cells, t_end=0.01,
                   initial=[[0.75] * cells, [{"expr": "1/4"}] + [0.25] * (cells - 1)])
        calls.clear()
        assert main(["simulate", "--input", write_doc(tmp_path, "d.json", doc)]) == 0
        counts.append(len(calls))
    # the {"expr"} number and the rest of the document, whatever the cell count
    assert 0 < counts[0] == counts[1]


#: flux blocks with a non-numeric, boolean or non-finite parameter or sample, or a
#: table that cannot be read; "MISSING" stands for a path that does not exist.
HOSTILE_FLUX_BLOCKS = {
    "quadratic-nan": {"kind": "quadratic", "params": {"coefficient": math.nan}},
    "quadratic-inf": {"kind": "quadratic", "params": {"coefficient": math.inf}},
    "quadratic-bool": {"kind": "quadratic", "params": {"coefficient": True}},
    "quadratic-string": {"kind": "quadratic", "params": {"coefficient": "4"}},
    "triangular-inf-peak": {"kind": "triangular", "params": {"f_max": math.inf}},
    "triangular-string-sigma": {"kind": "triangular", "params": {"sigma": "0.5"}},
    "tabulated-nan-rho": {"kind": "tabulated",
                          "params": {"rho": [0, math.nan, 1], "flux": [0, 0.5, 0]}},
    "tabulated-inf-flux": {"kind": "tabulated",
                           "params": {"rho": [0, 0.5, 1], "flux": [0, math.inf, 0]}},
    "tabulated-number-for-samples": {"kind": "tabulated",
                                     "params": {"rho": 5, "flux": [0, 0.5, 0]}},
    "tabulated-missing-csv": {"kind": "tabulated", "params": {"csv": "MISSING"}},
    "tabulated-csv-not-a-path": {"kind": "tabulated", "params": {"csv": 0}},
}


@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("flux", HOSTILE_FLUX_BLOCKS.values(), ids=HOSTILE_FLUX_BLOCKS)
def test_hostile_flux_parameters_exit_1(tmp_path, capsys, command, flux):
    if flux["params"].get("csv") == "MISSING":
        flux = {"kind": "tabulated", "params": {"csv": str(tmp_path / "missing.csv")}}
    doc = {"state": {"n": 2, "m": 2, "rho": [0.25, 0.75, 0.25, 0.75]},
           "solver": {"solver": "rs2"}, "flux": flux, "cells": 10, "t_end": 0.01}
    assert main([command, "--input", write_doc(tmp_path, "d.json", doc)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


#: documents with a string, a bool or an out-of-range number where a number belongs,
#: or a theta vector of the wrong length, each with the command that reads it.
NON_NUMBER_DOCUMENTS = {
    "rs3-strings": ("solve", {
        "state": {"n": 2, "m": 2, "rho": ["0.3", "0.8", 0.6, 0.1]},
        "solver": {"solver": "rs3", "theta": ["0.5", 0.5, 1.0], "gamma_j": "0.7"}}),
    "rs1-string-matrix": ("solve", {
        "state": {"n": 2, "m": 2, "rho": [0.75, 0.125, 0.9, 0.1]},
        "solver": {"solver": "rs1", "A": [["0.3333", 0.5], [0.6667, "0.5"]]}}),
    "entropy-string-and-bool": ("entropy", {
        "state": {"n": 1, "m": 1, "rho": ["0.5", True]}}),
    "expression-bool": ("solve", {
        "state": {"n": 1, "m": 1, "rho": [0.5, {"expr": "True"}]},
        "solver": {"solver": "rs_1x1"}}),
    "rs2-short-theta": ("solve", {
        "state": {"n": 2, "m": 2, "rho": [0.3, 0.8, 0.6, 0.1]},
        "solver": {"solver": "rs2", "theta": [0.5, 0.5, 1.0]}}),
    "rs3-short-theta": ("solve", {
        "state": {"n": 2, "m": 2, "rho": [0.3, 0.8, 0.6, 0.1]},
        "solver": {"solver": "rs3", "theta": [0.5, 0.5, 1.0]}}),
    "rs2-long-theta": ("simulate", {
        "state": {"n": 2, "m": 2, "rho": [0.3, 0.8, 0.6, 0.1]},
        "solver": {"solver": "rs2", "theta": [0.5, 0.5, 0.25, 0.25, 0.5]}}),
}


@pytest.mark.parametrize("command, doc", NON_NUMBER_DOCUMENTS.values(),
                         ids=NON_NUMBER_DOCUMENTS)
def test_non_numbers_in_documents_exit_1(tmp_path, capsys, command, doc):
    assert main([command, "--input", write_doc(tmp_path, "d.json", doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("digits", [400, 5000])
def test_integer_beyond_the_float_range_exits_1(tmp_path, capsys, digits):
    path = tmp_path / "d.json"
    path.write_text('{"state": {"n": 1, "m": 1, "rho": [0.5, 0.5]}, '
                    '"flux": {"kind": "quadratic", "params": {"coefficient": 1'
                    + "0" * digits + '}}, "solver": {"solver": "rs_1x1"}}')
    assert main(["solve", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and captured.err.count("\n") == 1


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


def test_module_entry_point_runs():
    # ``python -m junction_riemann`` from a checkout, with the package on PYTHONPATH
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-m", "junction_riemann", "reproduce"],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=src))
    assert done.returncode == 0, done.stderr
    assert done.stdout.endswith("all rows pass\n")
