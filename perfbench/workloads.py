"""The four benchmark workloads: seeded request generation, engine calls and
output checks.

Every request is drawn from a finite parameter space so that each one has a
reference output recorded in ``reference.json`` (see ``record_reference.py``).
The engine is always reached through module attributes looked up at call
time (``bermudan.price_bermudan_xva(...)``), so the traced run sees every
call through its wrappers.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from levyxva import bermudan, bsde, cva, mc, model

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Relative and absolute tolerance of a COS output against its reference.
# Recorded with one BLAS thread, the outputs reproduce bit for bit with two;
# a refactor that keeps values to 1e-12 passes, while a change of
# truncation, expansion order or time steps moves them far more.
COS_RTOL = 1e-9
COS_ATOL = 1e-12
# A Monte Carlo estimate may move within this many reference 95% half-widths
# (a different random stream moves it by about one).
MC_HALFWIDTHS = 3.0

# Sizes per scale: "full" is the benchmark, "tiny" the smoke test.
SIZES = {
    "full": {
        "xva_bermudan": {"J": 256, "N": 10, "M": 10},
        "cva_fast": {"J": 100, "M": 10},
        "bsde_european": {"J": 512, "N": 256},
        "mc_oracle": {"paths": 20_000, "steps": 100, "M": 10},
    },
    "tiny": {
        "xva_bermudan": {"J": 32, "N": 2, "M": 3},
        "cva_fast": {"J": 100, "M": 10},
        "bsde_european": {"J": 32, "N": 8},
        "mc_oracle": {"paths": 500, "steps": 20, "M": 10},
    },
}

MATURITIES = (0.5, 1.0)


def benchmark_model(rate_r: float, c_default: float, x0: float = 0.0) -> model.ModelSpec:
    """The paper's local Levy coefficients: sigma = 0.15 e^{-2x},
    a = 0.2 e^{-2x}, N(-0.2, 0.2^2) jumps, default intensity c e^{-2x}."""
    return model.ModelSpec(
        vol=model.CoeffFamily.exponential(0.15, -2.0),
        jump_intensity=model.CoeffFamily.exponential(0.2, -2.0),
        jump_law=model.JumpLaw(-0.2, 0.2),
        default_intensity=(
            model.CoeffFamily.exponential(c_default, -2.0)
            if c_default > 0.0
            else model.CoeffFamily.zero()
        ),
        rate_r=rate_r,
        spot_x0=x0,
    )


def full_driver(closeout: str) -> bsde.DriverSpec:
    """Bilateral XVA driver: funding, counterparty and own spreads, capital."""
    return bsde.DriverSpec(
        mode="full",
        rate_r=0.05,
        rate_b=0.07,
        rate_c=0.06,
        rate_f=0.06,
        rate_k=0.08,
        capital_c1=0.1,
        recovery_b=0.4,
        recovery_c=0.4,
        closeout=closeout,
    )


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= COS_ATOL + COS_RTOL * abs(want)


def _finite(out: dict) -> list:
    return [f"{k} = {v!r} is not finite" for k, v in out.items() if not math.isfinite(v)]


def _compare(out: dict, ref: dict, names) -> list:
    return [
        f"{k} = {out[k]!r}, reference {ref[k]!r}"
        for k in names
        if not _close(out[k], ref[k])
    ]


class Workload:
    """One workload: its request space, how a request runs and is checked."""

    name = ""
    why = ""
    # Request kinds in the fixed order they are sent; the traced run
    # alternates whole patterns so traced and untraced requests see the
    # same mix.
    pattern = ("",)
    # The calibration kernel (see calibration.py) doing this workload's kind
    # of work.
    calibration = ""

    def space(self) -> list:
        raise NotImplementedError

    @property
    def cycle(self) -> int:
        return len(self.pattern)

    def kind(self, key: tuple) -> str:
        return ""

    def run(self, key: tuple, sizes: dict) -> dict:
        raise NotImplementedError

    def check(self, key: tuple, out: dict, ref: dict) -> list:
        raise NotImplementedError


class XvaBermudan(Workload):
    """price_bermudan_xva at J=256, N=M=10: the kernel is rebuilt every step."""

    name = "xva_bermudan"
    calibration = "dense_complex"
    why = ("full theta-scheme XVA solve; over 90% of a request rebuilds the "
           "node kernel (build_order_n + step_kernel) on every step")
    # Fixed mix: the paper's XVA table (linear portfolio, simplified
    # driver) twice, then a put under the full driver with risky and with
    # risk-free close-out.  Risk-free requests run a second (MTM) pass, so
    # they stay under half the mix and the median stays in one cluster.
    pattern = ("linear", "put-risky", "linear", "put-risk-free")
    linear_spots = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    put_spots = (-0.2, -0.1, 0.0, 0.1, 0.2)

    def space(self):
        keys = [("linear", T, x0) for T in MATURITIES for x0 in self.linear_spots]
        for kind in ("put-risky", "put-risk-free"):
            keys += [(kind, T, x0) for T in MATURITIES for x0 in self.put_spots]
        return keys

    def kind(self, key):
        return key[0]

    def run(self, key, sizes):
        kind, T, x0 = key
        sched = bermudan.ExerciseSchedule(T, sizes["M"], sizes["N"])
        if kind == "linear":
            mdl = benchmark_model(0.1, 0.0, x0)
            pay = bermudan.PayoffSpec(kind="portfolio-linear")
            drv = bsde.DriverSpec(mode="simplified", rate_r=0.1)
        else:
            mdl = benchmark_model(0.05, 0.1, x0)
            pay = bermudan.PayoffSpec(kind="put", strike=1.0)
            drv = full_driver("risky" if kind == "put-risky" else "risk-free")
        res = bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=sizes["J"])
        return {"value": res.value}

    def check(self, key, out, ref):
        return _finite(out) or _compare(out, ref, ("value",))


class CvaFast(Workload):
    """cva_report + greeks at J=100, M=10: Python overhead per request."""

    name = "cva_fast"
    calibration = "small_ops"
    why = ("fast CVA path: Newton exercise search and Hankel+Toeplitz "
           "products, no per-step kernel; bypasses any kernel cache")
    strikes = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6)
    # A quarter of the requests have zero default intensity, where CVA
    # must come out exactly 0.0.
    default_levels = (0.0, 0.05, 0.1, 0.2)

    def space(self):
        return [
            (K, T, c)
            for K in self.strikes
            for T in MATURITIES
            for c in self.default_levels
        ]

    def run(self, key, sizes):
        K, T, c = key
        mdl = benchmark_model(0.05, 0.0)
        spec = cva.DefaultSpec(
            intensity=(
                model.CoeffFamily.exponential(c, -2.0) if c > 0.0 else model.CoeffFamily.zero()
            )
        )
        pay = bermudan.PayoffSpec(kind="put", strike=K)
        sched = bermudan.ExerciseSchedule(T, sizes["M"], 1)
        value, leg_d, leg_r = cva.cva_report(mdl, spec, pay, sched, J=sizes["J"])
        delta, gamma = cva.greeks(mdl, spec, pay, sched, J=sizes["J"], legs=(leg_d, leg_r))
        return {"cva": value, "delta": delta, "gamma": gamma}

    def check(self, key, out, ref):
        problems = _finite(out)
        if problems:
            return problems
        if key[2] == 0.0 and out["cva"] != 0.0:
            problems.append(f"zero intensity gives CVA {out['cva']!r}, not exactly 0.0")
        if out["cva"] < 0.0:
            problems.append(f"negative CVA {out['cva']!r}")
        return problems + _compare(out, ref, ("cva", "delta", "gamma"))


class BsdeEuropean(Workload):
    """solve_bsde for a European put/call at J=512, N=256."""

    name = "bsde_european"
    calibration = "matvec"
    why = ("European theta-scheme solve: kernel built once, time goes to "
           "DCTs, J x J matvecs and Picard steps; the only theta_step user")
    strikes = (0.9, 1.0, 1.1)

    def space(self):
        return [
            (kind, drv, K, T)
            for kind in ("put", "call")
            for drv in ("simplified", "full-risky")
            for K in self.strikes
            for T in MATURITIES
        ]

    def run(self, key, sizes):
        kind, drv, K, T = key
        mdl = benchmark_model(0.05, 0.1)
        pay = bermudan.PayoffSpec(kind=kind, strike=K)
        spec = (
            bsde.DriverSpec(mode="simplified", rate_r=0.05)
            if drv == "simplified"
            else full_driver("risky")
        )
        N = sizes["N"]
        sol = bsde.solve_bsde(
            mdl,
            lambda x: bermudan.payoff_eval(pay, T, x),
            lambda x: bermudan.payoff_dx(pay, T, x),
            T,
            bsde.BsdeGrid(N, T / N),
            spec,
            J=sizes["J"],
        )
        return {"value": sol.value}

    def check(self, key, out, ref):
        return _finite(out) or _compare(out, ref, ("value",))


class McOracle(Workload):
    """simulate + lsm_price, then simulate_crn_pair + lsm_cva."""

    name = "mc_oracle"
    calibration = "path_step"
    why = ("Monte Carlo oracle: Euler paths, capped Poisson inverse CDF in "
           "the CRN pair, regressions; path arrays far larger than L2")
    # The CRN pair's cost depends on how many paths reach the Poisson cap,
    # which varies with the MC seed and grows with T.  One maturity (the
    # CVA table's T=1) and four cycled seeds keep the latencies in one
    # cluster and give every run nearly the same set of requests.
    mc_seeds = tuple(range(4))

    def space(self):
        return [(s, 1.0) for s in self.mc_seeds]

    def run(self, key, sizes):
        mc_seed, T = key
        steps, paths, M = sizes["steps"], sizes["paths"], sizes["M"]
        sched = bermudan.ExerciseSchedule(T, M, steps // M)
        batch = mc.simulate(benchmark_model(0.1, 0.0, 0.4), T, steps, paths, seed=mc_seed)
        price, price_ci = mc.lsm_price(
            batch,
            bermudan.PayoffSpec(kind="portfolio-linear"),
            sched,
            bsde.DriverSpec(mode="simplified", rate_r=0.1),
        )
        m_d = benchmark_model(0.05, 0.1)
        batch_d, batch_r = mc.simulate_crn_pair(
            m_d, m_d.without_default(), T, steps, paths, seed=mc_seed
        )
        value, value_ci = mc.lsm_cva(
            batch_d, batch_r, bermudan.PayoffSpec(kind="put", strike=1.0), sched
        )
        return {
            "price": price,
            "price_half": 0.5 * (price_ci[1] - price_ci[0]),
            "cva": value,
            "cva_half": 0.5 * (value_ci[1] - value_ci[0]),
        }

    def check(self, key, out, ref):
        problems = _finite(out)
        if problems:
            return problems
        if out["cva"] < 0.0:
            problems.append(f"negative CVA {out['cva']!r}")
        for k in ("price", "cva"):
            if abs(out[k] - ref[k]) > MC_HALFWIDTHS * ref[k + "_half"]:
                problems.append(
                    f"{k} = {out[k]!r}, reference {ref[k]!r} "
                    f"+- {MC_HALFWIDTHS} x {ref[k + '_half']!r}"
                )
        return problems


WORKLOADS = {w.name: w for w in (XvaBermudan(), CvaFast(), BsdeEuropean(), McOracle())}


def ref_key(key: tuple) -> str:
    return json.dumps(list(key))


def load_reference(scale: str, workload: str) -> dict:
    with REFERENCE_FILE.open() as fh:
        return json.load(fh)[scale][workload]


def make_requests(workload: Workload, seed: int, count: int) -> list:
    """The seeded request list; the engine only ever sees these inputs.

    Kinds follow the workload's fixed pattern.  Within a kind, requests run
    through seeded permutations of that kind's part of the space, so every
    run sees a balanced mix whatever the seed.
    """
    rng = np.random.default_rng(seed)
    by_kind = {}
    for key in workload.space():
        by_kind.setdefault(workload.kind(key), []).append(key)
    queues = {kind: [] for kind in by_kind}
    requests = []
    for i in range(count):
        kind = workload.pattern[i % workload.cycle]
        if not queues[kind]:
            keys = by_kind[kind]
            queues[kind] = [keys[j] for j in rng.permutation(len(keys))]
        requests.append(queues[kind].pop())
    return requests


def check_request(workload: Workload, key: tuple, out: dict, refs: dict) -> list:
    ref = refs.get(ref_key(key))
    if ref is None:
        return [f"no reference output for request {key!r}"]
    return workload.check(key, out, ref)
