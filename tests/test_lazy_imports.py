"""Importing hermlab loads numpy and no scipy subpackage: numpy.fft is the one
FFT, and scipy.special loads on the first call that needs it.  A sampler run
and the lag-path quadrature (an `integral` through the CLI) load neither
scipy.fft nor scipy.special, and no hermlab call loads scipy.integrate or
scipy.interpolate."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hermlab.quadrature import fbm_time_kernel_integral

SRC = Path(__file__).resolve().parents[1] / "src"
LAZY = ("scipy.fft", "scipy.special", "scipy.interpolate", "scipy.integrate", "scipy.linalg",
        "scipy.optimize", "scipy.sparse")

PROBE = f"""
import importlib, json, pkgutil, sys
import hermlab, hermlab.cli
for m in pkgutil.iter_modules(hermlab.__path__):
    importlib.import_module("hermlab." + m.name)
out = {{"at_import": [m for m in {LAZY!r} if m in sys.modules]}}
argv = "integral --hurst 0.7 --reps 2 --grid 64 --n-internal 256 --panels 64 --threads 1"
assert hermlab.cli.main(argv.split()) == 0
out["after_integral"] = [m for m in {LAZY!r} if m in sys.modules]
from hermlab.quadrature import fbm_time_kernel_integral
out["kernel"] = [fbm_time_kernel_integral(1.0, 0.6, 0.7, -0.3), fbm_time_kernel_integral(0.6, 1.0, 0.7, -0.3)]
out["after_kernel"] = [m for m in {LAZY!r} if m in sys.modules]
argv = "sweep --target half --hurst-grid 0.7,0.55 --reps 0 --panels 64"
assert hermlab.cli.main(argv.split()) == 0
out["after_sweep"] = [m for m in {LAZY!r} if m in sys.modules]
print(json.dumps(out))
"""


def test_heavy_scipy_subpackages_load_on_first_use():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["at_import"] == []
    assert out["after_integral"] == []  # the sampler and inner_product_HH on numpy.fft alone
    assert "scipy.special" in out["after_kernel"]  # beta, betainc and hyp2f1, loaded on call
    assert "scipy.fft" not in out["after_sweep"]
    # the t != s time kernel is closed-form, and no src integrand interpolates a table
    assert "scipy.integrate" not in out["after_sweep"]
    assert "scipy.interpolate" not in out["after_sweep"]
    a, b = out["kernel"]  # JSON round-trips floats exactly
    assert a == fbm_time_kernel_integral(1.0, 0.6, 0.7, -0.3)
    assert a == pytest.approx(2.328788942767812, rel=1e-14)  # with the module-level import
    assert abs(a - b) <= 1e-12 * abs(a)
