"""levyxva benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The client sends each pricing request only after the previous one returned.
Requests are generated from ``--seed``; one warm-up request runs before
timing starts.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it alternates untraced and traced requests and reports
the per-layer metrics.  Every request's outputs are checked against the
recorded reference values.  The last stdout line is the JSON result;
``--workload all`` runs every workload in both modes, one process each.
"""
import time

_PROCESS_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# BLAS and FFT threads are pinned before numpy is first imported.
PINNED_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("xva_bermudan", "cva_fast", "bsde_european", "mc_oracle")

END_TO_END_UNITS = {
    "setup_s": "s",
    "req_ms_p50": "ms",
    "req_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}
# setup_s is the median over this many fresh processes (this one included).
SETUPS = 3
# The timed phase times the calibration kernel at least this often.
CALIBRATION_INTERVAL_S = 0.25
REQUEST_LIST = 4096
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="request sizes; 'tiny' is for the smoke test")
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up in this fresh process, print it and exit")
    return ap.parse_args(argv)


def environment(args, sizes):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pinned_threads": PINNED_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "sizes": sizes,
        "loop": "closed, 1 client",
    }


def child_command(args, workload, trace, extra=()):
    return [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scale", args.scale, *extra,
    ]


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def child_setups(args, count):
    """Set-up times of ``count`` fresh processes, each timed from its start."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            child_command(args, args.workload, 0, ("--setup-only",)),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        result = last_json(proc.stdout) if proc.returncode == 0 else None
        if result is None:
            sys.stderr.write(f"set-up process failed:\n{proc.stderr}")
            return None
        times.append((result["setup_s"], result["setup_raw_s"]))
    return times


def tail_percentile(latencies):
    """Highest listed percentile with at least ten samples beyond it."""
    import numpy as np

    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if len(latencies) * (1.0 - p / 100.0) >= 10.0:
            return p, float(np.percentile(latencies, p))
    return None


def run_one(args):
    import calibration
    from workloads import SIZES, WORKLOADS, check_request, load_reference, make_requests

    workload = WORKLOADS[args.workload]
    reference = calibration.KERNELS[workload.calibration][1]
    sizes = SIZES[args.scale][args.workload]
    refs = load_reference(args.scale, args.workload)
    requests = make_requests(workload, args.seed, REQUEST_LIST)

    def execute(i):
        """Run request i; returns (latency in s, problems)."""
        key = requests[i % REQUEST_LIST]
        t0 = time.perf_counter()
        try:
            out = workload.run(key, sizes)
        except Exception as exc:  # a failed request is counted, never fatal
            return time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - t0
        return latency, check_request(workload, key, out, refs)

    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        _, warm_problems = execute(0)
        setup_raw = time.perf_counter() - _PROCESS_START
        setup_s = setup_raw * reference / calibration.kernel_seconds(workload.calibration, 9)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw,
                              "ok": not warm_problems}))
            return 0 if not warm_problems else 1

        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer(log)
        report = timed_phase(args, workload, requests, execute, tracer, log)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = warm_problems + report["problems"]
    for p in problems[:5]:
        sys.stderr.write(f"check failed: {p}\n")
    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0 and not warm_problems

    if args.trace:
        metrics = report["layers"]
        from tracing import per_layer_units

        units = per_layer_units()
    else:
        setups = [(setup_s, setup_raw)]
        others = child_setups(args, SETUPS - 1)
        if others is None:
            correct = False
        else:
            setups += others
        # speed < 1 while the machine runs slower than the reference
        speed = reference / statistics.median(report["calibrations"])
        lat_ms = [1000.0 * x for x in report["latencies"]]
        scale = report["scale"]
        raw_per_s = (attempted - failed) / report["elapsed"]
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "req_ms_p50": statistics.median(x * f for x, f in zip(lat_ms, scale)),
            "req_per_s": (attempted - failed) / sum(
                x * f for x, f in zip(report["iterations"], scale)),
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS
        tail = tail_percentile(lat_ms)
        tail_text = (f"p{tail[0]:g} = {tail[1]:.4f} ms" if tail
                     else "none (under 40 samples)")
        print(f"# requests {attempted}, failed {failed}, warnings {report['warnings']}, "
              f"machine speed {speed:.4f} of reference "
              f"({len(report['calibrations'])} calibrations)")
        print(f"# raw wall clock: setup_s {statistics.median(r for _, r in setups):.4f} s "
              f"(runs {[round(r, 4) for _, r in setups]}), "
              f"req_ms_p50 {statistics.median(lat_ms):.4f} ms, req_ms_tail {tail_text}, "
              f"req_per_s {raw_per_s:.4f} 1/s")

    print("# env " + json.dumps(environment(args, sizes), sort_keys=True))
    for name, unit in units.items():
        print(f"# {name:42s} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def timed_phase(args, workload, requests, execute, tracer, log):
    """Closed loop for ``args.seconds``; requests 1.. (0 was the warm-up).

    An untraced run times the calibration kernel between requests, at least
    every ``CALIBRATION_INTERVAL_S`` and once more at the end; that time is
    not part of the phase.  Each request's times are scaled by the kernel's
    reference time over the mean of the two calibrations around it.
    A traced run alternates whole request-kind patterns between untraced
    and traced, so both see the same mix, and runs at least one of each.
    """
    import calibration

    reference = calibration.KERNELS[workload.calibration][1]
    latencies, problems, calibrations, iterations, before = [], [], [], [], []
    by_class = {False: {}, True: {}}
    attempted = failed = n_warnings = 0
    i = 1
    calibrating = 0.0
    start = last_calibration = time.perf_counter()

    def calibrate():
        nonlocal calibrating, last_calibration
        t0 = time.perf_counter()
        calibrations.append(calibration.kernel_seconds(workload.calibration))
        last_calibration = time.perf_counter()
        calibrating += last_calibration - t0

    while True:
        if tracer is None and (not calibrations or time.perf_counter() - last_calibration
                               >= CALIBRATION_INTERVAL_S):
            calibrate()
        t_iter = time.perf_counter()
        traced = tracer is not None and (i // workload.cycle) % 2 == 1
        elapsed = time.perf_counter() - start
        done = elapsed >= args.seconds and attempted > 0
        if tracer is not None:
            done = done and all(by_class.values())
        if done:
            break
        if traced:
            tracer.install()
            tracer.begin_request(i)
        try:
            latency, bad = execute(i)
        finally:
            if traced:
                latency = tracer.end_request()
                tracer.uninstall()
        key = requests[i % REQUEST_LIST]
        by_class[traced].setdefault(workload.kind(key), []).append(latency)
        latencies.append(latency)
        attempted += 1
        if bad:
            failed += 1
            problems += [f"request {i} {key!r}: {p}" for p in bad]
        n_warnings += len(log)
        del log[:]
        iterations.append(time.perf_counter() - t_iter)
        before.append(len(calibrations) - 1)
        i += 1
    elapsed = time.perf_counter() - start - calibrating
    if tracer is None:
        calibrate()
    report = {
        "elapsed": elapsed,
        "calibrations": calibrations,
        "iterations": iterations,
        "scale": [2.0 * reference / (calibrations[b] + calibrations[b + 1])
                  for b in before] if tracer is None else [],
        "latencies": latencies,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "warnings": n_warnings,
    }
    if tracer is not None:
        layers = tracer.report()
        rates = {c: sum(len(v) for v in by_class[c].values())
                 / sum(sum(v) for v in by_class[c].values()) for c in by_class}
        kinds = by_class[False].keys() & by_class[True].keys()
        slowdown = [statistics.mean(by_class[True][k]) / statistics.mean(by_class[False][k])
                    for k in kinds]
        layers["bench.req_per_s_untraced"] = rates[False]
        layers["bench.req_per_s_traced"] = rates[True]
        layers["bench.trace_overhead_frac"] = statistics.mean(slowdown) - 1.0
        report["layers"] = layers
    return report


def run_all(args):
    """Every workload, untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(child_command(args, name, trace), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S + 10)
            sys.stderr.write(proc.stderr)
            result = last_json(proc.stdout) if proc.returncode == 0 else None
            if result is None:
                sys.stderr.write(f"{name} --trace {trace} failed\n")
                return 1
            print(f"## {name} --trace {trace}")
            print("\n".join(proc.stdout.strip().splitlines()[:-1]))
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "levyxva" / "__init__.py").is_file():
        sys.stderr.write(f"error: engine sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
