"""The exact commands start without numpy or scipy, the float commands without
scipy.optimize, numpy.random, numpy.fft or OpenSSL; the solver names load on
first use."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convmax

# the names ``convmax`` exports from the solver modules, by module
LAZY = {
    "BoundTable": "continuous",
    "step_function_export": "continuous",
    "upper_bound_sequence": "continuous",
    "GridOracleResult": "minimax",
    "MinimaxResult": "minimax",
    "SolverConfig": "minimax",
    "diagonal_constant": "minimax",
    "general_constant": "minimax",
    "grid_oracle": "minimax",
    "intersection_restricted_solve": "minimax",
}

COLD_START = """
import json, os, sys
import convmax, convmax.cli as cli

exact = [["sidon", "verify", "--d", "3", "--k", "2"],
         ["sidon", "verify", "--d", "4", "--k", "2"],
         ["sidon", "verify", "--d", "5", "--k", "3", "--samples", "20"],
         ["sidon", "search", "--d", "3", "--k", "2", "--g", "2"],
         ["pb", "--p", "1/3,1/2"],
         ["constant", "--k", "3", "--profile", "--sharpness"]]
codes = [cli.run(argv + ["--out", os.devnull]) for argv in exact]
before = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
solve = cli.run(["solve", "--k", "2", "--m", "2", "--multistarts", "2", "--out", os.devnull])
after = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
floats = [cli.run(argv + ["--out", os.devnull])
          for argv in (["solve", "--k", "2", "--m", "2", "--mode", "general", "--grid", "4",
                        "--multistarts", "4"],
                       ["continuous", "--k", "2", "--m-max", "3", "--multistarts", "4"],
                       ["selftest"])]
loaded = {m: m in sys.modules for m in ("scipy.optimize", "scipy.optimize._slsqplib", "numpy.random",
                                        "secrets", "hmac", "hashlib", "_hashlib", "numpy.fft")}
print(json.dumps({"codes": codes, "before": before, "solve": solve, "after": after,
                  "floats": floats, "loaded": loaded}))
"""


def test_exact_commands_start_without_float_stack():
    # a fresh interpreter, so no module imported by another test can hide an eager import
    src = str(Path(convmax.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=300)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert all(code in (0, 1) for code in res["codes"]), res
    assert res["before"] == []
    assert res["solve"] == 0
    assert res["after"] == ["numpy", "scipy"]
    # the float commands load scipy's compiled SLSQP core, never scipy.optimize itself
    assert res["floats"] == [0, 0, 0]
    assert not res["loaded"]["scipy.optimize"]
    assert res["loaded"]["scipy.optimize._slsqplib"]
    # the seeded starts come from the stdlib generator: numpy.random would pull in
    # secrets, hmac, hashlib and OpenSSL's _hashlib for a few exponential draws
    openssl = ("numpy.random", "secrets", "hmac", "hashlib", "_hashlib")
    assert not [m for m in openssl if res["loaded"][m]]
    # every fold is a direct one (minimax._convolve_rows); no solver start is scored by FFT
    assert not res["loaded"]["numpy.fft"]


@pytest.mark.parametrize("name, module", LAZY.items())
def test_lazy_name_is_its_module_attribute(name, module):
    assert getattr(convmax, name) is getattr(importlib.import_module(f"convmax.{module}"), name)
    assert name in dir(convmax)


def test_star_import_brings_every_name():
    namespace = {}
    exec("from convmax import *", namespace)
    assert set(LAZY) <= set(namespace)
    assert {"GridFn", "optimal_constant", "pb_pmf", "verify_bound", "sidon"} <= set(namespace)


def test_lazy_name_follows_a_patch_on_its_module(monkeypatch):
    import convmax.minimax

    def patched(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(convmax.minimax, "grid_oracle", patched)
    assert convmax.grid_oracle is patched
    assert "grid_oracle" not in vars(convmax)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        convmax.no_such_name
    assert not hasattr(convmax, "no_such_name")
