"""End-to-end acceptance suite.

One test per acceptance criterion, in order.  Each test prints a single
``ACCEPTANCE n: PASS/FAIL`` line with the measured figures (visible under
``pytest -s`` and in any failure report) and then asserts the criterion at
its stated tolerance.  Monte Carlo reference intervals are recomputed
in-process from the packaged simulator under fixed seeds; the frozen
reference tables for the two benchmark configurations live at the top of
the file.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import levyxva as lx
from levyxva import bermudan, bsde, charfunc, cos, cva, mc, model

from conftest import dense_m_product, make_benchmark_model, make_constant_model


def _report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


# --- frozen references for the linear-portfolio XVA benchmark ----------
# (b=0.15, beta=-2, lam=0.2, m=-0.2, delta=0.2, r=0.1, f = -r max(u,0),
#  J=256, N=M=10, L=10)

X0_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

XVA_REF_COS = {
    0.5: (0.03809, 0.2320, 0.4243, 0.6158, 0.8069, 1.0000),
    1.0: (0.07228, 0.2606, 0.4454, 0.6288, 0.8113, 1.000),
}

XVA_REF_MC = {
    0.5: (
        (0.03770, 0.03838),
        (0.2326, 0.2330),
        (0.4251, 0.4254),
        (0.6169, 0.6171),
        (0.8077, 0.8079),
        (1.000, 1.000),
    ),
    1.0: (
        (0.07374, 0.07453),
        (0.2611, 0.2617),
        (0.4461, 0.4465),
        (0.6288, 0.6291),
        (0.8126, 0.8129),
        (1.001, 1.001),
    ),
}

# --- frozen references for the Bermudan-put CVA benchmark --------------
# (same local Levy coefficients, r=0.05, default intensity 0.1 e^{-2x},
#  J=100, M=10, L=10)

STRIKES = (0.6, 0.8, 1.0, 1.2, 1.4, 1.6)

CVA_REF = {
    0.5: (1.113e-4, 9.869e-4, 0.01138, 0.005937, 0.006898, 0.007883),
    1.0: (4.463e-4, 3.535e-3, 0.01882, 0.01272, 0.01360, 0.01554),
}

CVA_PINNED_ATM = {0.5: 0.01138, 1.0: 0.01882}

NEAR_MONEY = (1.0, 1.2, 1.4, 1.6)


def _xva_model(x0):
    return make_benchmark_model(0.1, 0.0, x0=x0)


def _xva_driver():
    return bsde.DriverSpec(mode="simplified", rate_r=0.1)


def _linear():
    return bermudan.PayoffSpec(kind="portfolio-linear")


def _put(strike):
    return bermudan.PayoffSpec(kind="put", strike=strike)


def _cva_model():
    return make_benchmark_model(0.05, 0.1)


def _cva_spec():
    return cva.DefaultSpec(intensity=lx.CoeffFamily.exponential(0.1, -2.0))


@pytest.fixture(scope="module")
def lsm_linear_reference():
    """Exercise-policy Monte Carlo price for the XVA benchmark at X0=0.4."""
    mdl = _xva_model(0.4)
    batch = mc.simulate(mdl, 0.5, 100, 100_000, seed=42)
    est, ci = mc.lsm_price(
        batch, _linear(), bermudan.ExerciseSchedule(0.5, 10, 10), _xva_driver(),
        degree=3,
    )
    return est, ci


@pytest.fixture(scope="module")
def lsm_cva_pairs():
    """Common-random-number path pairs for the CVA benchmark, per maturity."""
    spec = _cva_spec()
    base = _cva_model()
    m_d = base.with_default(spec.intensity)
    m_r = base.without_default()
    return {
        T: mc.simulate_crn_pair(m_d, m_r, T, 100, 100_000, seed=42)
        for T in (0.5, 1.0)
    }


def test_criterion_01_constant_coefficient_factor_is_exact():
    """Approximated characteristic function collapses to the closed-form
    jump-diffusion factor when the coefficients are constant, at every
    expansion order, across the whole working frequency grid."""
    from test_charfunc import exact_const_cf

    params = dict(sig=0.15, lam=0.2, m=-0.2, delta=0.2, rate_r=0.1)
    tau = 1.0
    t0 = time.perf_counter()
    mdl = make_constant_model(gamma0=0.0, **params)
    tay0 = model.taylor_expand(mdl, 0.0, 0.0, 0)
    c1, c2, c4 = charfunc.cumulants(tay0, tau)
    a, b = cos.truncation_range(c1, c2, c4, L=10.0)
    xi = np.arange(256) * math.pi / (b - a)
    exact = exact_const_cf(gamma0=0.0, tau=tau, xi=xi, **params)
    worst = 0.0
    for order in (0, 1, 2):
        tay = model.taylor_expand(mdl, 0.0, 0.0, order)
        cf = charfunc.build_order_n(tay, 0.0, tau, xi, order)
        worst = max(worst, float(np.max(np.abs(cf.eval(0.0) - exact))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    _report(1, ok, f"max |approx - exact| = {worst:.2e} over orders 0-2, "
                   f"256 frequencies, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_02_xva_benchmark_value_table():
    """Linear-portfolio XVA values against the frozen reference table:
    each cell within 5e-4 of the reference COS value and inside the
    reference MC interval widened by 1e-3, under 10s per row."""
    drv, pay = _xva_driver(), _linear()
    lines, failures = [], []
    for T in (0.5, 1.0):
        sched = bermudan.ExerciseSchedule(T, 10, 10)
        for i, x0 in enumerate(X0_GRID):
            t0 = time.perf_counter()
            res = bermudan.price_bermudan_xva(
                _xva_model(x0), pay, sched, drv, J=256, L=10.0
            )
            elapsed = time.perf_counter() - t0
            ref = XVA_REF_COS[T][i]
            lo, hi = XVA_REF_MC[T][i]
            near = abs(res.value - ref) <= 5e-4
            inside = (lo - 1e-3) <= res.value <= (hi + 1e-3)
            fast = elapsed < 10.0
            verdict = "ok" if (near and inside and fast) else "MISS"
            lines.append(
                f"  T={T} X0={x0}: value={res.value:.6f} ref={ref} "
                f"diff={res.value - ref:+.2e} MC=[{lo},{hi}] {elapsed:.1f}s "
                f"{verdict}"
            )
            if verdict == "MISS":
                failures.append((T, x0, res.value, ref))
    print("\n".join(lines))
    ok = not failures
    _report(2, ok, f"{12 - len(failures)}/12 cells within 5e-4 of the "
                   f"reference and inside the widened MC interval")
    assert ok, "cells outside tolerance:\n" + "\n".join(lines)


def test_criterion_03_convergence_to_the_path_oracle(lsm_linear_reference):
    """Value-table convergence in (J, N) against the in-repo exercise-policy
    Monte Carlo estimate (1e5 paths, 100 steps) at X0=0.4, T=0.5: coarse
    grids land within 1e-2, resolved grids within 1e-3, and the error
    plateaus at the Monte Carlo noise floor beyond J=128."""
    ref, (ci_lo, ci_hi) = lsm_linear_reference
    drv, pay, mdl = _xva_driver(), _linear(), _xva_model(0.4)
    t_start = time.perf_counter()
    errs = {}
    for J, N in ((8, 10), (32, 10), (64, 10), (128, 10), (256, 10), (32, 20)):
        res = bermudan.price_bermudan_xva(
            mdl, pay, bermudan.ExerciseSchedule(0.5, 10, N), drv, J=J, L=10.0
        )
        errs[(J, N)] = abs(res.value - ref)
    elapsed = time.perf_counter() - t_start
    coarse_ok = errs[(8, 10)] < 1e-2
    resolved = {k: e for k, e in errs.items() if k[0] >= 32}
    resolved_ok = all(e < 1e-3 for e in resolved.values())
    plateau_ok = errs[(256, 10)] >= 0.33 * errs[(128, 10)]
    time_ok = elapsed < 300.0
    ok = coarse_ok and resolved_ok and plateau_ok and time_ok
    _report(3, ok,
            f"LSM ref {ref:.6f} CI [{ci_lo:.6f},{ci_hi:.6f}]; "
            f"err(J=8)={errs[(8, 10)]:.1e}, "
            f"max err(J>=32,N>=10)={max(resolved.values()):.1e}, "
            f"err(256)/err(128)={errs[(256, 10)] / errs[(128, 10)]:.2f}, "
            f"{elapsed:.0f}s")
    assert coarse_ok, errs
    assert resolved_ok, errs
    assert plateau_ok, errs
    assert time_ok, elapsed


def test_criterion_04_cva_benchmark_value_table(lsm_cva_pairs):
    """Fast-path CVA against the frozen at-the-money values (5e-4) and, for
    the near-money strikes, against in-repo common-random-number LSM
    intervals widened by 10% of the point estimate; deep out-of-the-money
    strikes are report-only.  Under 5s per row."""
    spec, base = _cva_spec(), _cva_model()
    lines, failures = [], []
    for T in (0.5, 1.0):
        sched = bermudan.ExerciseSchedule(T, 10, 10)
        batch_d, batch_r = lsm_cva_pairs[T]
        for i, K in enumerate(STRIKES):
            t0 = time.perf_counter()
            val = cva.cva(base, spec, _put(K), sched, J=100, L=10.0)
            elapsed = time.perf_counter() - t0
            ref = CVA_REF[T][i]
            checks = [elapsed < 5.0]
            notes = []
            if K == 1.0:
                checks.append(abs(val - CVA_PINNED_ATM[T]) <= 5e-4)
                notes.append(f"pinned {CVA_PINNED_ATM[T]}")
            if K in NEAR_MONEY:
                est, (lo, hi) = mc.lsm_cva(
                    batch_d, batch_r, _put(K), sched, degree=5
                )
                wide = 0.1 * abs(est)
                checks.append((lo - wide) <= val <= (hi + wide))
                # Distance to the nearer widened edge; negative outside.
                margin = min(val - (lo - wide), (hi + wide) - val)
                notes.append(f"LSM [{lo:.6f},{hi:.6f}]+/-{wide:.1e} margin {margin:+.1e}")
            else:
                notes.append("report-only")
            verdict = "ok" if all(checks) else "MISS"
            lines.append(
                f"  T={T} K={K}: CVA={val:.6f} ref={ref} "
                f"({'; '.join(notes)}) {elapsed * 1e3:.0f}ms {verdict}"
            )
            if verdict == "MISS":
                failures.append((T, K))
    print("\n".join(lines))
    ok = not failures
    _report(4, ok, "ATM cells within 5e-4 of the pinned values and all "
                   "near-money cells inside the widened LSM intervals"
            if ok else f"failing cells: {failures}")
    assert ok, "\n".join(lines)


def test_criterion_05_fft_product_matches_dense_and_is_faster():
    """The Hankel+Toeplitz FFT realization of the restricted-interval
    product agrees with the dense matrix to 1e-10 at J=128 and beats it by
    at least 4x at J=1024."""
    rng = np.random.default_rng(0)

    def setup(J):
        grid = cos.CosGrid(-1.0, 1.4, J)
        V = rng.standard_normal(J)
        lam = rng.standard_normal(J) + 1j * rng.standard_normal(J)
        lam *= np.exp(-0.5 * (np.arange(J) / (J / 4.0)) ** 2)
        return grid, V, lam

    grid, V, lam = setup(128)
    worst = 0.0
    for h in (0, 1, 2):
        args = (V, grid, -0.8, 0.9, h, lam, 0.1)
        dense = dense_m_product(*args)
        fast = cos.m_matrix_product(*args)
        worst = max(worst, float(np.max(np.abs(fast - dense))))

    grid, V, lam = setup(1024)

    def best_of(product, reps=5):
        # Both products read the grid's integral tables: every call gets a
        # fresh, equal grid, so neither side times a warm table.
        times = []
        for _ in range(reps):
            args = (V, cos.CosGrid(grid.a, grid.b, grid.J), -0.8, 0.9, 1, lam, 0.1)
            t0 = time.perf_counter()
            product(*args)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_dense = best_of(dense_m_product)
    t_fft = best_of(cos.m_matrix_product)
    speedup = t_dense / t_fft
    ok = worst < 1e-10 and speedup >= 4.0
    _report(5, ok, f"max |fft - dense| = {worst:.2e} at J=128; "
                   f"speedup {speedup:.1f}x at J=1024")
    assert worst < 1e-10
    assert speedup >= 4.0


def test_criterion_06_cva_greeks_match_bump_and_revalue():
    """Analytic CVA delta and gamma agree with central finite differences
    of the reconstructed leg values at the spot (relative 1e-4 and 1e-3)."""
    t0 = time.perf_counter()
    spec, base = _cva_spec(), _cva_model()
    sched = bermudan.ExerciseSchedule(1.0, 10, 10)
    _, res_d, res_r = cva.cva_report(base, spec, _put(1.0), sched, J=100)
    delta, gamma = cva.greeks(
        base, spec, _put(1.0), sched, J=100, legs=(res_d, res_r)
    )
    h, x0 = 1e-4, base.spot_x0

    def adj(x):
        return cva.leg_value_at(res_r, x) - cva.leg_value_at(res_d, x)

    fd_delta = (adj(x0 + h) - adj(x0 - h)) / (2.0 * h)
    fd_gamma = (adj(x0 + h) - 2.0 * adj(x0) + adj(x0 - h)) / h**2
    rel_d = abs(delta - fd_delta) / abs(fd_delta)
    rel_g = abs(gamma - fd_gamma) / abs(fd_gamma)
    elapsed = time.perf_counter() - t0
    ok = rel_d < 1e-4 and rel_g < 1e-3 and elapsed < 10.0
    _report(6, ok, f"delta rel err {rel_d:.1e} (tol 1e-4), "
                   f"gamma rel err {rel_g:.1e} (tol 1e-3), {elapsed:.1f}s")
    assert rel_d < 1e-4
    assert rel_g < 1e-3
    assert elapsed < 10.0


def test_criterion_07_zero_intensity_gives_exactly_zero_cva():
    """With the default intensity identically zero the two legs run the
    byte-identical computation: CVA == 0.0 and the leg surfaces coincide
    bitwise."""
    base = _cva_model().without_default()
    spec = cva.DefaultSpec(intensity=lx.CoeffFamily.zero())
    sched = bermudan.ExerciseSchedule(1.0, 10, 10)
    val, res_d, res_r = cva.cva_report(base, spec, _put(1.0), sched, J=100)
    identical = (
        val == 0.0
        and res_d.value == res_r.value
        and np.array_equal(res_d.y0, res_r.y0)
    )
    _report(7, identical,
            f"CVA = {val!r}, legs bitwise equal: {identical}")
    assert val == 0.0
    assert res_d.value == res_r.value
    assert np.array_equal(res_d.y0, res_r.y0)


def test_criterion_08_bsde_reproduces_black_scholes():
    """Theta-scheme solve with the pure-discounting driver on a lognormal
    model prices a European call to 1e-4 at N=64."""
    sig, r, spot, T, K = 0.25, 0.06, 0.05, 1.0, 1.0
    mdl = make_constant_model(sig, 0.0, 0.0, 0.0, r, 0.0, x0=spot)
    term = lambda x: np.maximum(np.exp(x) - K, 0.0)
    term_dx = lambda x: np.where(x >= math.log(K), np.exp(x), 0.0)
    bg = bsde.BsdeGrid(64, T / 64, 0.5, 0.5, picard=5)
    spec = bsde.DriverSpec(mode="simplified", rate_r=r)
    sol = bsde.solve_bsde(mdl, term, term_dx, T, bg, spec, J=256)
    d1 = (spot - math.log(K) + (r + 0.5 * sig**2) * T) / (sig * math.sqrt(T))
    d2 = d1 - sig * math.sqrt(T)
    want = math.exp(spot) * stats.norm.cdf(d1) - K * math.exp(-r * T) * stats.norm.cdf(d2)
    diff = abs(sol.value - want)
    ok = diff < 1e-4
    _report(8, ok, f"|BSDE - lognormal closed form| = {diff:.2e} "
                   f"(tol 1e-4, N=64, theta=1/2)")
    assert diff < 1e-4


def test_criterion_09_exercise_region_grows_with_default_intensity():
    """The Bermudan-put exercise frontier moves up monotonically with the
    default intensity level at every inner exercise date: the c=0.2 region
    encloses c=0.1, which encloses c=0."""
    sched = bermudan.ExerciseSchedule(1.0, 10, 10)
    traces = {}
    for c in (0.0, 0.1, 0.2):
        mdl = make_benchmark_model(0.05, c)
        res = cva.price_bermudan_cos(mdl, _put(1.0), sched, J=100, L=10.0)
        traces[c] = np.array([x for _, x in res.boundary])
    gap10 = np.min(traces[0.1] - traces[0.0])
    gap21 = np.min(traces[0.2] - traces[0.1])
    ok = gap10 > 0.0 and gap21 > 0.0
    _report(9, ok, f"min frontier gap c=0.1 over c=0: {gap10:.4f}, "
                   f"c=0.2 over c=0.1: {gap21:.4f} across 9 inner dates")
    assert gap10 > 0.0, traces
    assert gap21 > 0.0, traces


def test_criterion_10_complexity_scaling_and_fast_path_speedup():
    """XVA wall time grows linearly in the number of time steps (doubling
    N roughly doubles the time) and the CVA fast path at J=100, M=10 beats
    the full backward XVA solve at J=256, N=10, M=10 by at least 5x."""
    drv, pay, mdl = _xva_driver(), _linear(), _xva_model(0.4)
    probes = bermudan.complexity_probe(
        mdl, pay, drv, 1.0, [(256, 2, 10), (256, 4, 10), (256, 8, 10)],
        L=10.0, repeats=2,
    )
    t2, t4, t8 = (p["seconds"] for p in probes)
    ratio42, ratio84 = t4 / t2, t8 / t4
    (xva_probe,) = bermudan.complexity_probe(
        mdl, pay, drv, 1.0, [(256, 10, 10)], L=10.0, repeats=2
    )
    t_xva = xva_probe["seconds"]
    cmdl, spec = _cva_model(), _cva_spec()
    sched = bermudan.ExerciseSchedule(1.0, 10, 10)
    t_cva = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        cva.price_bermudan_cos(cmdl, _put(1.0), sched, J=100, L=10.0)
        t_cva = min(t_cva, time.perf_counter() - t0)
    speedup = t_xva / t_cva
    linear = 1.3 <= ratio42 <= 3.2 and 1.3 <= ratio84 <= 3.2
    ok = linear and speedup >= 5.0
    _report(10, ok,
            f"time ratios N 2->4: {ratio42:.2f}, N 4->8: {ratio84:.2f} "
            f"(linear band [1.3, 3.2]); fast-path speedup {speedup:.0f}x "
            f"(>= 5 required)")
    assert linear, (t2, t4, t8)
    assert speedup >= 5.0, (t_xva, t_cva)
