"""The package surface: importing the package and its CLI loads numpy and nothing
else from outside the standard library (scipy, in particular, only the tests use),
and ``__all__`` names each public name once."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import junction_riemann

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
before = set(sys.modules)
import junction_riemann, junction_riemann.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(loaded - set(sys.stdlib_module_names) - {"junction_riemann"}))
"""


def test_numpy_is_the_only_third_party_package_imported():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert ast.literal_eval(done.stdout.strip()) == ["numpy"]


def test_all_names_each_public_name_once():
    names = junction_riemann.__all__
    assert len(names) == len(set(names)) == 79
    assert "__version__" in names and "annotations" not in names
    for name in names:
        assert not isinstance(getattr(junction_riemann, name), types.ModuleType)
    star: dict = {}
    exec("from junction_riemann import *", star)
    assert set(star) - {"__builtins__"} == set(names)
