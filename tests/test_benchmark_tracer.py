"""The benchmark's tracer resolves every engine function it traces.

``perfbench/tracing.py`` wraps engine functions by name, and its derived
counters read some of their arguments by name (``build_order_n``'s ``t``
and ``T``) or call engine methods themselves (``intensity_a(0.0, x)``).
Loading it here (read-only, from its file), installing it and running a
traced request of each workload catches a renamed or removed traced
function, or a changed signature the counters read, in this suite, before
it shows as failed benchmark requests.
"""

import importlib.util
import math
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Added by perfbench/run.py from its own traced and untraced timings.
RUN_METRICS = {
    "bench.req_per_s_untraced", "bench.req_per_s_traced", "bench.trace_overhead_frac",
}


def _load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
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
    tracing = _load("tracing")
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

    assert _load("tracing").CRN_POISSON_CAP == mc._POISSON_CAP


def test_traced_requests_report_every_layer_metric():
    tracing, workloads = _load("tracing"), _load("workloads")
    tracer = tracing.Tracer([])
    for index, (name, workload) in enumerate(sorted(workloads.WORKLOADS.items())):
        tracer.install()
        tracer.begin_request(index)
        try:
            workload.run(workload.space()[0], workloads.SIZES["tiny"][name])
        finally:
            tracer.end_request()
            tracer.uninstall()
    report = tracer.report()
    for name in tracing.per_layer_units().keys() - RUN_METRICS:
        assert math.isfinite(report[name]), name
    # The fallback and Poisson-cap counters ran on their traced calls.
    assert tracer.counters["corrected_entries"] > 0
    assert tracer.counters["jump_draws"] > 0
