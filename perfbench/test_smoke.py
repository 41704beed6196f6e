"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""
import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import levyxva  # noqa: E402
import tracing  # noqa: E402
from levyxva import bermudan, bsde, cos, cva, mc  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for name in want:
        assert f"# {name} " in proc.stdout
    if trace == 0:
        assert all(result["metrics"][name]["value"] > 0 for name in want)


def test_same_seed_gives_same_requests():
    from workloads import make_requests

    for workload in WORKLOADS.values():
        assert make_requests(workload, 11, 64) == make_requests(workload, 11, 64)
        assert set(make_requests(workload, 11, 64)) <= set(workload.space())


def _traced(workload, key, sizes):
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        tracer = tracing.Tracer(log)
        tracer.install()
        try:
            tracer.begin_request(0)
            workload.run(key, sizes)
            tracer.end_request()
        finally:
            tracer.uninstall()
    return tracer.report()


@pytest.mark.parametrize("kind, passes", [("linear", 1), ("put-risky", 1), ("put-risk-free", 2)])
def test_xva_builds_one_step_kernel_per_step_and_pass(kind, passes):
    sizes = SIZES["tiny"]["xva_bermudan"]
    layers = _traced(WORKLOADS["xva_bermudan"], (kind, 1.0, 0.0), sizes)
    assert layers["cos.step_kernel.calls"] == passes * sizes["M"] * sizes["N"]
    assert layers["cos.point_kernel.calls"] == passes


def test_cva_request_runs_54_restricted_products():
    sizes = SIZES["tiny"]["cva_fast"]
    assert sizes["M"] == 10
    layers = _traced(WORKLOADS["cva_fast"], (1.0, 1.0, 0.1), sizes)
    # two legs x 9 interior dates x 3 expansion orders
    assert layers["cos.m_matrix_product.calls"] == 54
    assert layers["cva.newton_exercise_point.calls"] == 18
    assert layers["cva.newton_evals_per_root"] > 2


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_self_times_add_up_to_the_request(workload):
    w = WORKLOADS[workload]
    layers = _traced(w, w.space()[0], SIZES["tiny"][workload])
    total = layers["bench.self_s"] + sum(layers[f"{m}.self_s"] for m in tracing.TRACED)
    assert total == pytest.approx(layers["bench.request_s"], rel=1e-9)


def test_constant_coefficients_count_as_order_zero():
    """With constant coefficients every correction vanishes, so the derived
    fallback criterion must claim every entry."""
    from levyxva import charfunc, model

    mdl = model.ModelSpec(
        vol=model.CoeffFamily.const(0.2), jump_intensity=model.CoeffFamily.zero(),
        jump_law=model.JumpLaw(), default_intensity=model.CoeffFamily.zero(), rate_r=0.05,
    )
    grid = bsde.make_cos_grid(mdl, 1.0, 32)
    with warnings.catch_warnings(record=True) as log:
        tracer = tracing.Tracer(log)
        tracer.install()
        try:
            tracer.begin_request(0)
            tay = model.taylor_expand(mdl, 0.0, grid.nodes, 2)
            charfunc.build_order_n(tay, 0.0, 0.1, grid.freqs, 2)
            tay0 = model.taylor_expand(mdl, 0.0, 0.0, 2)
            charfunc.build_order_n(tay0, 0.0, 0.1, grid.freqs, 2)
            tracer.end_request()
        finally:
            tracer.uninstall()
    assert tracer.report()["charfunc.fallback_frac"] == 1.0


def test_uninstall_restores_every_binding():
    before = {
        "bermudan.scheme_driver": bermudan.scheme_driver,
        "mc.scheme_driver": mc.scheme_driver,
        "mc.payoff_eval": mc.payoff_eval,
        "cva.make_cos_grid": cva.make_cos_grid,
        "cos.step_kernel": cos.step_kernel,
    }
    cached = "cva_report" in vars(levyxva)
    tracer = tracing.Tracer([])
    tracer.install()
    try:
        assert bermudan.scheme_driver is bsde.scheme_driver is mc.scheme_driver
        assert mc.payoff_eval is bermudan.payoff_eval
        assert cva.make_cos_grid is bsde.make_cos_grid is bermudan.make_cos_grid
        assert levyxva.cva_report is cva.cva_report
        assert bsde.scheme_driver is not before["bermudan.scheme_driver"]
    finally:
        tracer.uninstall()
    after = {
        "bermudan.scheme_driver": bermudan.scheme_driver,
        "mc.scheme_driver": mc.scheme_driver,
        "mc.payoff_eval": mc.payoff_eval,
        "cva.make_cos_grid": cva.make_cos_grid,
        "cos.step_kernel": cos.step_kernel,
    }
    assert after == before
    assert ("cva_report" in vars(levyxva)) == cached


def test_fails_without_the_engine(tmp_path):
    """With only BENCHMARK.json and the benchmark's files it exits non-zero
    and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "cva_fast", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
