"""What a process that imports polystress loads.

sympy is imported only by ``manufacture``, and scipy.io only by
``export_matrices``.  Each test runs a fresh interpreter on the tree under
test, since this process has loaded both for other tests.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import sympy as sp

import polystress
from polystress import manufacture

X, Y, T = sp.symbols("x y t")
# the user field of test_div_sigma_matches_symbolic_derivative
USER_FIELD = sp.Matrix([[X ** 2 * Y, sp.sin(X) * T], [X + Y ** 3, sp.cos(Y)]])

CLI_RUNS = """
import json, sys
from pathlib import Path

import polystress
import polystress.cli
from polystress import linear_in_space_solution, trig_solution, zero_data

trig_solution(), linear_in_space_solution(), zero_data()
out = Path(sys.argv[1])
(out / "convergence.ini").write_text(
    "[convergence]\\ndegree = 1\\nlevels = 2,4\\nnx = 2\\ndts = 0.2,0.1\\n")
mesh = ["--nx", "2", "--ny", "2", "--degree", "1", "--output", str(out)]
runs = [
    ["iter-table", *mesh, "--dts", "1e-4", "--solvers", "cg,pcg-cbj", "--repetitions", "1"],
    ["cond-table", *mesh, "--cond-dts", "1e-6", "--cond-tol", "1e-3"],
    ["convergence", "-c", str(out / "convergence.ini"), "--mode", "spatial",
     "--output", str(out)],
    ["convergence", "-c", str(out / "convergence.ini"), "--mode", "temporal",
     "--output", str(out)],
    ["solve", *mesh, "--mms", "trig", "--dt", "0.05", "--t-final", "0.1"],
    ["solve", *mesh, "--mms", "zero", "--dt", "0.05", "--t-final", "0.1"],
]
codes = [polystress.cli.main(args) for args in runs]
print(json.dumps({"codes": codes, "loaded": sorted(
    name for name in ("sympy", "scipy.io") if name in sys.modules)}))
"""

MANUFACTURE = """
import json, sys

import numpy as np
import sympy as sp

from polystress import manufacture

X, Y, T = sp.symbols("x y t")
mms = manufacture(sp.Matrix([[X ** 2 * Y, sp.sin(X) * T], [X + Y ** 3, sp.cos(Y)]]))
x, y = np.linspace(0.1, 0.9, 7), np.linspace(0.8, 0.2, 7)
print(json.dumps({"div_sigma": mms.div_sigma(x, y, 0.8).tolist(),
                  "sigma": mms.sigma(x, y, 0.8).tolist(),
                  "source": mms.data.terms.source(x, y).tolist()}))
"""


def _run(script, *args) -> dict:
    """The JSON that ``script`` prints last, run by a fresh interpreter that
    imports the polystress under test."""
    env = {**os.environ, "PYTHONPATH": str(Path(polystress.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cli_and_named_solutions_load_neither_sympy_nor_scipy_io(tmp_path):
    got = _run(CLI_RUNS, tmp_path)
    assert got["codes"] == [0] * 6
    assert got["loaded"] == []


def test_manufacture_in_a_fresh_process():
    got = _run(MANUFACTURE)
    mms = manufacture(USER_FIELD)
    x, y = np.linspace(0.1, 0.9, 7), np.linspace(0.8, 0.2, 7)
    assert np.array(got["div_sigma"]).tobytes() == mms.div_sigma(x, y, 0.8).tobytes()
    assert np.array(got["sigma"]).tobytes() == mms.sigma(x, y, 0.8).tobytes()
    assert np.array(got["source"]).tobytes() == mms.data.terms.source(x, y).tobytes()
    # row-wise divergence: (d/dx s11 + d/dy s12, d/dx s21 + d/dy s22)
    assert np.allclose(got["div_sigma"], np.stack([2 * x * y, 1 - np.sin(y)], axis=1))
