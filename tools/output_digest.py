"""Print one SHA-256 per command of a fixed CLI panel, and a total over them all.

Each command runs in process through ``junction_riemann.cli.main``, imported from the
``src/`` next to this script, in a temporary working directory, with
``JUNCTION_RIEMANN_SEED`` set. A command's digest covers its exit code, its stdout,
its stderr and every file it writes. Two trees that print the same total give the
same bytes on the panel.

The panel: ``reproduce``; ``solve``, ``entropy`` (with a ``face`` block) and
``classify`` in JSON and CSV; ``simulate``'s three files for rs1, rs2, rs3,
rs_e1_2x2 (2x2) and rs_1x1 (1x1). It covers the three flux kinds, and writes
``{"expr"}`` numbers in ``A``, ``rho`` and ``initial``.

Run from anywhere: ``python tools/output_digest.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from junction_riemann import cli  # noqa: E402

SEED = "2024"

_RHO = [i / 10 for i in range(11)]
FLUXES = {
    "quadratic": {"kind": "quadratic", "params": {"coefficient": 4.0}},
    "triangular": {"kind": "triangular", "params": {"sigma": 0.4, "f_max": 0.9}},
    "tabulated": {"kind": "tabulated",
                  "params": {"rho": _RHO, "flux": [4 * r * (1 - r) for r in _RHO]}},
}


def E(text: str) -> dict:
    """An exact number, as a document writes it."""
    return {"expr": text}


A = [[E("1/3"), E("1/2")], [E("2/3"), E("1/2")]]
RHO = [E("3/4"), E("1/8"), E("(8+sqrt(34))/16"), E("1/10")]
SOLVERS = {
    "rs1": {"solver": "rs1", "A": A},
    "rs2": {"solver": "rs2", "theta": [0.5, 0.5, E("5/12"), E("7/12")]},
    "rs3": {"solver": "rs3", "theta": [0.75, 0.25, 0.5, 0.5], "gamma_j": E("64/75")},
    "rs_e1_2x2": {"solver": "rs_e1_2x2"},
}


def _documents() -> dict[str, dict]:
    """The panel's input documents by file name."""
    docs = {}
    for kind, flux in FLUXES.items():
        state = {"n": 2, "m": 2, "rho": RHO}
        for name, solver in SOLVERS.items():
            docs[f"solve-{name}-{kind}.json"] = {"flux": flux, "state": state,
                                                "solver": solver}
            profile = [E("1/5")] + [0.3 + 0.01 * i for i in range(29)]
            docs[f"simulate-{name}-{kind}.json"] = {
                "flux": flux, "state": state, "solver": solver, "cells": 30,
                "t_end": 0.3, "cfl": 0.5, "snapshots": [0.1, E("1/5")],
                "initial": [profile, E("1/8"), 0.6, [E("1/10")] * 30]}
        docs[f"simulate-rs_1x1-{kind}.json"] = {
            "flux": flux, "state": {"n": 1, "m": 1, "rho": [E("3/4"), 0.25]},
            "solver": {"solver": "rs_1x1"}, "cells": 40, "t_end": 0.25,
            "initial": [[0.75] * 20 + [E("1/3")] * 20, E("1/4")]}
        docs[f"entropy-{kind}.json"] = {
            "flux": flux, "state": state, "solver": SOLVERS["rs1"],
            "face": {"A": A, "H": [1], "samples": 20}}
        docs[f"classify-{kind}.json"] = {
            "flux": flux,
            "state": {"n": 2, "m": 2, "rho": [E("3/4"), 0.1, E("1/10"), 0.75]}}
    return docs


def _commands(docs) -> list[list[str]]:
    commands = [["reproduce"]]
    for name in docs:
        command = name.split("-", 1)[0]
        if command == "simulate":
            commands.append([command, "--input", name, "--output", name[:-5]])
            continue
        for fmt in ("json", "csv"):
            commands.append([command, "--input", name, "--format", fmt])
    return commands


def _run(argv: list[str]) -> str:
    """The digest of one command, run in the current directory."""
    before = set(os.listdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    digest = hashlib.sha256(f"{code}\n{out.getvalue()}\0{err.getvalue()}".encode())
    for name in sorted(set(os.listdir()) - before):
        digest.update(b"\0" + name.encode() + b"\0" + Path(name).read_bytes())
    return digest.hexdigest()


def main() -> int:
    os.environ["JUNCTION_RIEMANN_SEED"] = SEED
    docs = _documents()
    total = hashlib.sha256()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, doc in docs.items():
                Path(name).write_text(json.dumps(doc))
            for argv in _commands(docs):
                digest = _run(argv)
                total.update(digest.encode())
                print(f"{digest}  {' '.join(argv)}")
        finally:
            os.chdir(home)
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
