"""Importing hermlab loads scipy.fft and scipy.special only; the heavier scipy
subpackages load on the first call that needs them, and scipy.integrate on
none."""
import json
import os
import subprocess
import sys
from pathlib import Path

from hermlab.quadrature import fbm_time_kernel_integral

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("scipy.interpolate", "scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse")

PROBE = f"""
import importlib, json, pkgutil, sys
import numpy as np
import hermlab, hermlab.cli
for m in pkgutil.iter_modules(hermlab.__path__):
    importlib.import_module("hermlab." + m.name)
out = {{"at_import": [m for m in {LAZY!r} if m in sys.modules]}}
from hermlab.core import GridSpec, Tabulated
from hermlab.quadrature import fbm_time_kernel_integral
f = Tabulated(GridSpec(0, 1, 2), np.array([0.0, 1.0, 0.0]))
out["tabulated"] = [float(f.eval(np.array([x]))) for x in (0.25, 2.0)]
out["interpolate_loaded"] = "scipy.interpolate" in sys.modules
out["kernel"] = [fbm_time_kernel_integral(1.0, 0.6, 0.7, -0.3), fbm_time_kernel_integral(0.6, 1.0, 0.7, -0.3)]
out["integrate_loaded"] = "scipy.integrate" in sys.modules
print(json.dumps(out))
"""


def test_heavy_scipy_subpackages_load_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["at_import"] == []
    assert out["tabulated"] == [0.5, 0.0] and out["interpolate_loaded"]
    assert not out["integrate_loaded"]  # the t != s time kernel is closed-form
    a, b = out["kernel"]  # JSON round-trips floats exactly
    assert a == fbm_time_kernel_integral(1.0, 0.6, 0.7, -0.3)
    assert abs(a - b) <= 1e-12 * abs(a)
