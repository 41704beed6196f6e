"""The benchmark's workloads still run against the engine.

``perfbench/workloads.py`` calls the engine with its own arguments
(``greeks(..., J=, legs=)``, ``price_bermudan_xva(..., J=)``, ...).  Loading
it here (read-only, from its file) and running every request at the tiny
sizes catches a changed call surface in this suite, before it shows as
failed benchmark requests.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_request_matches_the_tiny_reference(name):
    workload = workloads.WORKLOADS[name]
    sizes = workloads.SIZES["tiny"][name]
    refs = workloads.load_reference("tiny", name)
    for key in workload.space():
        out = workload.run(key, sizes)
        assert workloads.check_request(workload, key, out, refs) == [], key
