"""The engine runs on numpy alone: SciPy is needed only by the tests."""

import os
import subprocess
import sys
from pathlib import Path

import levyxva

# Run in a fresh interpreter in which any import of scipy fails.
_SCRIPT = r"""
import importlib
import pkgutil
import sys

sys.modules["scipy"] = None

import levyxva
from levyxva import bermudan, bsde, cva, model

for info in pkgutil.iter_modules(levyxva.__path__):
    importlib.import_module(f"levyxva.{info.name}")

mdl = model.ModelSpec(
    vol=model.CoeffFamily.exponential(0.15, -2.0),
    jump_intensity=model.CoeffFamily.exponential(0.2, -2.0),
    jump_law=model.JumpLaw(-0.2, 0.2),
    default_intensity=model.CoeffFamily.zero(),
    rate_r=0.05,
)
put = bermudan.PayoffSpec(kind="put", strike=1.0)
xva = bermudan.price_bermudan_xva(
    mdl, put, bermudan.ExerciseSchedule(0.5, 3, 2),
    bsde.DriverSpec(mode="simplified", rate_r=0.05), J=32,
)
spec = cva.DefaultSpec(intensity=model.CoeffFamily.exponential(0.1, -2.0))
value, _, _ = cva.cva_report(mdl, spec, put, bermudan.ExerciseSchedule(0.5, 3, 1), J=32)
assert 0.0 < xva.value < 1.0 and 0.0 < value < 1.0, (xva.value, value)

assert sys.modules["scipy"] is None
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and m != "scipy")
print("scipy modules:", loaded)
assert not loaded
"""


def test_engine_imports_and_prices_without_scipy():
    src = str(Path(levyxva.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "scipy modules: []" in proc.stdout
