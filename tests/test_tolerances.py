"""Guards for the tolerance table: every threshold lives in ``tolerances.py``, the
public names keep their modules and values, and only the two thresholds the CLI's
``--tolerance`` sets are keyword parameters."""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

import pytest

import junction_riemann
from junction_riemann import tolerances

PACKAGE_DIR = Path(junction_riemann.__file__).parent

#: (module, name, value) of every tolerance importable outside the table.
PUBLIC_TOLERANCES = [
    ("junction_riemann.flux", "BOUNDARY_EPS", 1e-12),
    ("junction_riemann.junction", "BALANCE_TOL", 1e-10),
    ("junction_riemann.junction", "KEEP_TOL", 1e-11),
    ("junction_riemann.entropy", "ENTROPY_TOL", 1e-10),
    ("junction_riemann.entropy", "CLASSIFY_EQ_TOL", 1e-10),
    ("junction_riemann.entropy", "SIGMA_TIE", 1e-12),
    ("junction_riemann.solvers", "FLUX_TIE", 1e-11),
    ("junction_riemann", "BALANCE_TOL", 1e-10),
    ("junction_riemann", "BOUNDARY_EPS", 1e-12),
    ("junction_riemann", "KEEP_TOL", 1e-11),
]


def test_no_threshold_literal_outside_the_table():
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(PACKAGE_DIR.glob("*.py")) if path.name != "tolerances.py"
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(r"1e-[0-9]", line)]
    assert found == []


@pytest.mark.parametrize("module, name, value", PUBLIC_TOLERANCES,
                         ids=[f"{m}.{n}" for m, n, _ in PUBLIC_TOLERANCES])
def test_public_tolerance_keeps_its_module_and_value(module, name, value):
    got = getattr(importlib.import_module(module), name)
    assert got == value
    assert got == getattr(tolerances, name)


def _public_functions():
    """(label, function) for every exported function and every method of an
    exported class, static ones included."""
    for name in junction_riemann.__all__:
        obj = getattr(junction_riemann, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_only_the_cli_thresholds_are_keyword_parameters():
    tolerance_like = re.compile(r"(^|_)(tol|eps|margin|slack)($|_)")
    found = {(label, p) for label, fn in _public_functions()
             for p in inspect.signature(fn).parameters if tolerance_like.search(p)}
    assert found == {("check_E1", "tol"), ("classify_2x2", "eq_tol")}
    check_E1 = inspect.signature(junction_riemann.check_E1).parameters
    classify = inspect.signature(junction_riemann.classify_2x2).parameters
    assert check_E1["tol"].default == tolerances.ENTROPY_TOL
    assert classify["eq_tol"].default == tolerances.CLASSIFY_EQ_TOL
