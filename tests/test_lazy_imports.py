"""Importing hermlab loads scipy.fft and scipy.special only; the heavier scipy
subpackages load on the first call that needs them, and scipy.integrate and
scipy.interpolate on none."""
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
import hermlab, hermlab.cli
for m in pkgutil.iter_modules(hermlab.__path__):
    importlib.import_module("hermlab." + m.name)
out = {{"at_import": [m for m in {LAZY!r} if m in sys.modules]}}
from hermlab.quadrature import fbm_time_kernel_integral
out["kernel"] = [fbm_time_kernel_integral(1.0, 0.6, 0.7, -0.3), fbm_time_kernel_integral(0.6, 1.0, 0.7, -0.3)]
for argv in ("sweep --target half --hurst-grid 0.7,0.55 --reps 0 --panels 64",
             "integral --hurst 0.7 --reps 2 --grid 64 --n-internal 256 --panels 64 --threads 1"):
    assert hermlab.cli.main(argv.split()) == 0
out["integrate_loaded"] = "scipy.integrate" in sys.modules
out["interpolate_loaded"] = "scipy.interpolate" in sys.modules
print(json.dumps(out))
"""


def test_heavy_scipy_subpackages_load_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["at_import"] == []
    assert not out["integrate_loaded"]  # the t != s time kernel is closed-form
    assert not out["interpolate_loaded"]  # no src integrand interpolates a table
    a, b = out["kernel"]  # JSON round-trips floats exactly
    assert a == fbm_time_kernel_integral(1.0, 0.6, 0.7, -0.3)
    assert abs(a - b) <= 1e-12 * abs(a)
