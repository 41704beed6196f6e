"""The benchmark's tracer resolves every engine function it traces.

``perfbench/tracing.py`` wraps engine functions by name.  Loading it here
(read-only, from its file) and installing it catches a renamed or removed
traced function in this suite, before it shows as failed benchmark
requests.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(tracing, name):
    layer, path = name.split(".", 1)
    owner = tracing.LAYERS[layer]
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


def test_tracer_plans_installs_and_uninstalls():
    tracing = _load_tracing()
    names = tracing.span_names()
    before = {name: _resolve(tracing, name) for name in names}
    tracer = tracing.Tracer([])
    tracer.install()
    try:
        for name in names:
            assert _resolve(tracing, name).__wrapped__ is before[name], name
    finally:
        tracer.uninstall()
    assert {name: _resolve(tracing, name) for name in names} == before


def test_crn_cap_counter_uses_the_engine_cap():
    # The tracer's mc.cap_frac counter keeps its own copy of the cap.
    from levyxva import mc

    assert _load_tracing().CRN_POISSON_CAP == mc._POISSON_CAP
