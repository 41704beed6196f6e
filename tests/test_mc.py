"""Tests for the path simulator and least-squares Monte Carlo pricers.

Constant-coefficient dynamics make the Euler step exact in distribution,
so terminal moments, martingale identities and survival weights all have
closed-form targets; statistical assertions use z-scores against exact
standard errors with generous multipliers, under fixed seeds.
"""

import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import levyxva as lx
from levyxva import bermudan, bsde, charfunc, mc, model

from conftest import make_benchmark_model, make_constant_model

from test_charfunc import exact_const_cf
from test_cos import put_expectation_lognormal


def _discounting_driver(r):
    return bsde.DriverSpec(mode="simplified", rate_r=r)


class TestSimulate:
    def test_batch_layout(self):
        mdl = make_constant_model(0.2, 0.0, 0.0, 0.0, 0.05, 0.0, x0=0.1)
        b = mc.simulate(mdl, 0.5, 4, 60, seed=9)
        assert b.x.shape == (60, 5)
        assert_allclose(np.arange(b.steps + 1) * b.dt, [0.0, 0.125, 0.25, 0.375, 0.5])
        assert b.dt == pytest.approx(0.125)
        assert b.seed == 9 and b.rate_r == pytest.approx(0.05)
        assert_allclose(b.x[:, 0], 0.1)
        assert_allclose(b.survival, 1.0)
        assert b.default_time is None

    def test_seed_reproducibility(self):
        mdl = make_constant_model(0.2, 0.3, -0.1, 0.2, 0.05, 0.0)
        a = mc.simulate(mdl, 0.5, 8, 500, seed=11)
        b = mc.simulate(mdl, 0.5, 8, 500, seed=11)
        c = mc.simulate(mdl, 0.5, 8, 500, seed=12)
        assert np.array_equal(a.x, b.x)
        assert not np.array_equal(a.x, c.x)

    def test_terminal_moments_match_cumulants(self):
        # Constant coefficients: the step is exact, so terminal mean and
        # variance equal the analytic cumulants of the increment.
        mdl = make_constant_model(0.2, 0.3, -0.1, 0.2, 0.05, 0.0, x0=-0.2)
        T, n = 0.75, 400_000
        b = mc.simulate(mdl, T, 3, n, seed=21)
        tay = model.taylor_expand(mdl, 0.0, 0.0, 0)
        c1, c2, c4 = charfunc.cumulants(tay, T)
        xt = b.x[:, -1]
        se_mean = math.sqrt(c2 / n)
        assert abs(xt.mean() - (-0.2 + c1)) < 4.0 * se_mean
        se_var = math.sqrt((c4 + 2.0 * c2**2) / n)
        assert abs(xt.var() - c2) < 4.0 * se_var

    def test_exponential_martingale(self):
        mdl = make_constant_model(0.2, 0.3, -0.1, 0.2, 0.05, 0.0, x0=-0.2)
        T, n = 0.75, 400_000
        b = mc.simulate(mdl, T, 3, n, seed=22)
        disc = math.exp(-0.05 * T) * np.exp(b.x[:, -1])
        se = disc.std() / math.sqrt(n)
        assert abs(disc.mean() - math.exp(-0.2)) < 4.0 * se

    def test_survival_weights_exact_for_constant_intensity(self):
        g0 = 0.08
        mdl = make_constant_model(0.2, 0.0, 0.0, 0.0, 0.05, g0)
        b = mc.simulate(mdl, 0.5, 4, 200, seed=5)
        want = np.exp(-g0 * np.arange(b.steps + 1) * b.dt)
        assert_allclose(b.survival, np.broadcast_to(want, b.survival.shape),
                        rtol=1e-12)

    def test_killed_martingale_keeps_the_short_rate(self):
        # survival * e^{X} discounted at r is a martingale even with
        # default switched on, because the intensity feeds the drift.
        g0 = 0.08
        mdl = make_constant_model(0.2, 0.0, 0.0, 0.0, 0.05, g0, x0=-0.2)
        T, n = 0.75, 400_000
        b = mc.simulate(mdl, T, 3, n, seed=23)
        disc = math.exp(-0.05 * T) * b.survival[:, -1] * np.exp(b.x[:, -1])
        se = disc.std() / math.sqrt(n)
        assert abs(disc.mean() - math.exp(-0.2)) < 4.0 * se

    def test_clamped_poisson_means_are_counted(self):
        # a dt = 8e6 x 0.25 = 2e6 is clamped to 1e6 on every draw, while
        # 4e6 x 0.25 = 1e6 sits on the clamp and is drawn as it is.
        steps, n = 2, 50
        over = make_constant_model(0.2, 8e6, 0.0, 0.0, 0.05, 0.0)
        assert mc._POISSON_CLAMP == 1e6
        assert mc.simulate(over, 0.5, steps, n, seed=4).poisson_truncated == steps * n
        at = make_constant_model(0.2, 4e6, 0.0, 0.0, 0.05, 0.0)
        assert mc.simulate(at, 0.5, steps, n, seed=4).poisson_truncated == 0

    def test_thinning_mode_samples_default_times(self):
        g0 = 0.1
        mdl = make_constant_model(0.2, 0.0, 0.0, 0.0, 0.05, g0)
        T, n = 1.0, 200_000
        b = mc.simulate(mdl, T, 8, n, seed=31, default_mode="thin")
        assert b.default_time is not None
        frac = np.mean(b.default_time <= T)
        p = 1.0 - math.exp(-g0 * T)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(frac - p) < 4.0 * se
        # Undefaulted paths are flagged with an infinite time.
        assert np.all(np.isinf(b.default_time[b.default_time > T]))


def _reference_batches(models, T, steps, n_paths, rng, shared_uniform, clock=None):
    """Written-out Euler loop with the engine's stream order: per step the
    jump counts (exact Poisson draws, or one uniform shared by every model
    through the capped inverse CDF), then z, then z2.  With an exponential
    clock, default times are thinned inside the loop.  Returns one tuple
    (x, survival, default_time, truncated draws) per model."""
    dt = T / steps
    bands = [mc._guard_band(mdl, T) for mdl in models]
    lo, hi = min(b[0] for b in bands), max(b[1] for b in bands)
    xs = [np.empty((n_paths, steps + 1)) for _ in models]
    survs = [np.empty((n_paths, steps + 1)) for _ in models]
    truncated = [0 for _ in models]
    cumhaz = np.zeros(n_paths)
    default_time = np.full(n_paths, np.inf)
    for x, surv, mdl in zip(xs, survs, models):
        x[:, 0] = mdl.spot_x0
        surv[:, 0] = 1.0
    for k in range(steps):
        t_k = k * dt
        lams = [mdl.intensity_a(t_k, x[:, k]) for mdl, x in zip(models, xs)]
        if shared_uniform:
            u = rng.random(n_paths)
            draws = [mc._poisson_icdf(u, np.minimum(lam * dt, 200.0)) for lam in lams]
        else:
            draws = [(rng.poisson(np.minimum(lam * dt, 1e6)), 0) for lam in lams]
        z = rng.standard_normal(n_paths)
        z2 = rng.standard_normal(n_paths)
        for leg, mdl in enumerate(models):
            x, surv, lam = xs[leg], survs[leg], lams[leg]
            counts, cut = draws[leg]
            truncated[leg] += cut
            xk = x[:, k]
            m, d = mdl.jump_law.mean, mdl.jump_law.std
            jumps = m * counts + d * np.sqrt(counts) * z2
            x[:, k + 1] = np.clip(
                xk
                + model.martingale_drift(mdl, xk) * dt
                + mdl.vol(xk) * math.sqrt(dt) * z
                + jumps
                - lam * m * dt,
                lo,
                hi,
            )
            haz = mdl.default_intensity(xk) * dt
            surv[:, k + 1] = surv[:, k] * np.exp(-haz)
            if clock is not None:
                new_haz = cumhaz + haz
                default_time[(clock > cumhaz) & (clock <= new_haz)] = (k + 1) * dt
                cumhaz = new_haz
    thinned = None if clock is None else default_time
    return [(x, surv, thinned, cut) for x, surv, cut in zip(xs, survs, truncated)]


def _assert_same_batch(batch, want):
    x, surv, default_time, truncated = want
    # The simulators fill time-major stores and hand out transposed views;
    # a default-free survival is a read-only broadcast 1.0, not a store.
    assert batch.x.T.flags.c_contiguous and batch.x.flags.writeable
    if np.all(surv == 1.0):
        assert not batch.survival.flags.writeable and batch.survival.strides == (0, 0)
    else:
        assert batch.survival.T.flags.c_contiguous and batch.survival.flags.writeable
    assert np.array_equal(batch.x, x)
    assert np.array_equal(batch.survival, surv)
    if default_time is None:
        assert batch.default_time is None
    else:
        assert np.array_equal(batch.default_time, default_time)
    assert batch.poisson_truncated == truncated


def _distinct_slope_model(default_intensity):
    """sigma, a and gamma on three different slopes, or gamma constant."""
    return lx.ModelSpec(
        vol=lx.CoeffFamily.exponential(0.15, -1.0),
        jump_intensity=lx.CoeffFamily.exponential(0.2, -2.0),
        jump_law=lx.JumpLaw(-0.2, 0.2),
        default_intensity=default_intensity,
        rate_r=0.05,
        spot_x0=0.1,
    )


DISTINCT_SLOPES = _distinct_slope_model(lx.CoeffFamily.exponential(0.1, 0.5))
CONSTANT_GAMMA = _distinct_slope_model(lx.CoeffFamily.const(0.05))
# No jump intensity, so no path draws a jump, though the jump law is not trivial.
PURE_DIFFUSION = lx.ModelSpec(
    vol=lx.CoeffFamily.exponential(0.15, -2.0),
    jump_intensity=lx.CoeffFamily.zero(),
    jump_law=lx.JumpLaw(-0.2, 0.2),
    default_intensity=lx.CoeffFamily.exponential(0.1, -2.0),
    rate_r=0.05,
    spot_x0=0.1,
)


class TestStreamOrder:
    """The simulators reproduce a written-out Euler loop bit for bit, which
    pins the order in which they consume the random stream."""

    T, steps, n_paths, seed = 1.0, 40, 3_000, 17

    @pytest.mark.parametrize(
        "mode, mdl",
        [
            ("weight", make_benchmark_model(0.05, 0.1, x0=0.2)),
            ("thin", make_benchmark_model(0.05, 0.1, x0=0.2)),
            ("weight", DISTINCT_SLOPES),
            ("weight", make_benchmark_model(0.1, 0.0, x0=0.4)),
            ("weight", PURE_DIFFUSION),
        ],
        ids=["weight", "thin", "distinct-slopes", "zero-default", "no-jumps"],
    )
    def test_simulate_matches_reference_loop(self, mode, mdl):
        batch = mc.simulate(mdl, self.T, self.steps, self.n_paths, self.seed, default_mode=mode)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(1)[0])
        clock = rng.exponential(1.0, self.n_paths) if mode == "thin" else None
        [want] = _reference_batches(
            [mdl], self.T, self.steps, self.n_paths, rng, shared_uniform=False, clock=clock
        )
        _assert_same_batch(batch, want)
        if mode == "thin":
            assert 0 < np.count_nonzero(np.isfinite(batch.default_time)) < self.n_paths

    @pytest.mark.parametrize("steps", [1, 2, 7, 40])
    def test_terminal_only_store_keeps_the_full_terminal_column(self, steps):
        mdl = make_benchmark_model(0.05, 0.1, x0=0.2)
        full = mc.simulate(mdl, self.T, steps, self.n_paths, self.seed)
        # the stream simulate draws from, run through the two-row store
        rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(1)[0])
        [ends] = mc._paths(
            [mdl], self.T, steps, self.n_paths, self.seed, rng, mc._poisson_counts,
            terminal_only=True,
        )
        assert ends.x.shape == ends.survival.shape == (self.n_paths, 2)
        assert ends.steps == 1 and ends.dt == self.T
        assert ends.poisson_truncated == full.poisson_truncated
        for got, want in ((ends.x, full.x), (ends.survival, full.survival)):
            assert np.array_equal(got[:, 0], want[:, 0])
            assert np.array_equal(got[:, 1], want[:, -1])

    def test_crn_pair_matches_reference_loop(self):
        m_d = make_benchmark_model(0.05, 0.1)
        m_r = make_benchmark_model(0.02, 0.0, x0=0.1)
        pair = mc.simulate_crn_pair(m_d, m_r, self.T, self.steps, self.n_paths, self.seed)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        want = _reference_batches(
            [m_d, m_r], self.T, self.steps, self.n_paths, rng, shared_uniform=True
        )
        for batch, leg in zip(pair, want):
            _assert_same_batch(batch, leg)
        assert pair[0].poisson_truncated + pair[1].poisson_truncated > 0

    def test_crn_pair_with_distinct_slopes_matches_reference_loop(self):
        models = [DISTINCT_SLOPES, CONSTANT_GAMMA]
        pair = mc.simulate_crn_pair(*models, self.T, self.steps, self.n_paths, self.seed)
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        want = _reference_batches(
            models, self.T, self.steps, self.n_paths, rng, shared_uniform=True
        )
        for batch, leg in zip(pair, want):
            _assert_same_batch(batch, leg)


class TestPathMemory:
    """A default-free leg's survival is a broadcast 1.0, so each simulator
    holds one (steps+1, paths) float64 store per defaultable leg and one x
    store per leg, plus a few scratch rows."""

    T, steps, n_paths = 1.0, 100, 20_000

    def _stores(self, run):
        """(held, peak) of run() in units of one path store, after warm-up."""
        run()
        tracemalloc.start()
        try:
            out = run()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        del out
        unit = (self.steps + 1) * self.n_paths * 8
        return held / unit, peak / unit

    def test_simulate_of_a_default_free_model_holds_one_store(self):
        mdl = make_benchmark_model(0.1, 0.0, x0=0.4)
        held, peak = self._stores(
            lambda: mc.simulate(mdl, self.T, self.steps, self.n_paths, seed=0)
        )
        assert held <= 1.1 and peak <= 1.25

    def test_crn_pair_with_a_default_free_leg_holds_three_stores(self):
        m_d = make_benchmark_model(0.05, 0.1)
        held, peak = self._stores(
            lambda: mc.simulate_crn_pair(
                m_d, m_d.without_default(), self.T, self.steps, self.n_paths, seed=0
            )
        )
        assert held <= 3.1 and peak <= 3.25


class TestEstimateCharfunc:
    params = dict(sig=0.2, lam=0.3, m=-0.1, delta=0.15, rate_r=0.05)

    def test_unweighted_unit_mass_at_zero(self):
        mdl = make_constant_model(gamma0=0.07, **self.params)
        b = mc.simulate(mdl, 0.5, 2, 10_000, seed=41)
        est, se = mc.estimate_charfunc(b, np.array([0.0]), weighted=False)
        assert est[0] == pytest.approx(1.0, abs=1e-14)

    def test_default_free_weighting_changes_nothing(self):
        # The broadcast survival 1.0 scales each term by exactly one.
        b = mc.simulate(make_constant_model(gamma0=0.0, **self.params), 0.5, 2, 1_000, seed=44)
        xi = np.linspace(0.0, 6.0, 4)
        for got, want in zip(mc.estimate_charfunc(b, xi), mc.estimate_charfunc(b, xi, False)):
            assert np.array_equal(got, want)

    def test_matches_exact_factor(self):
        mdl = make_constant_model(gamma0=0.0, x0=0.15, **self.params)
        T, n = 0.5, 300_000
        b = mc.simulate(mdl, T, 2, n, seed=42)
        xi = np.linspace(0.0, 10.0, 9)
        est, se = mc.estimate_charfunc(b, xi)
        want = exact_const_cf(gamma0=0.0, tau=T, xi=xi, **self.params)
        want = want * np.exp(1j * xi * 0.15)
        assert np.all(np.abs(est - want) < 5.0 * np.maximum(se, 1e-12))

    def test_survival_weighting_discounts_the_factor(self):
        g0 = 0.08
        kw = dict(x0=0.15, **self.params)
        risky = make_constant_model(gamma0=g0, **kw)
        T, n = 0.5, 300_000
        b = mc.simulate(risky, T, 2, n, seed=43)
        xi = np.linspace(0.0, 6.0, 5)
        est, se = mc.estimate_charfunc(b, xi, weighted=True)
        # Constant intensity: weighting = e^{-gamma T} x default-free
        # factor of the *intensity-shifted* drift.
        tay = model.taylor_expand(risky, 0.0, 0.15, 0)
        want = np.exp(T * charfunc.levy_symbol_psi(tay, xi)) * np.exp(1j * xi * 0.15)
        assert np.all(np.abs(est - want) < 5.0 * np.maximum(se, 1e-12))


def _full_array_poisson_icdf(u, mu):
    """Reference inverse CDF that iterates over every entry until the last
    one settles, truncating at 201 like the engine."""
    pmf = np.exp(-mu)
    cdf = pmf.copy()
    counts = np.zeros(u.shape, dtype=np.int64)
    k = 0
    pending = u > cdf
    while np.any(pending):
        k += 1
        if k > 200:
            counts[pending] = k
            break
        pmf = pmf * mu / k
        cdf = cdf + pmf
        counts[pending] = k
        pending = u > cdf
    return counts


class TestPoissonIcdf:
    def test_matches_full_array_loop_exactly(self):
        rng = np.random.default_rng(2024)
        n = 100_000
        u = rng.random(n)
        mu = np.minimum(rng.uniform(0.0, 300.0, n), 200.0)
        mu[:500] = 0.0
        # Uniforms sitting exactly on the CDF at k = 3 pin the strict
        # comparison: the count is the smallest k with CDF >= u.
        edge = slice(500, 600)
        pmf = np.exp(-mu[edge])
        cdf = pmf.copy()
        for k in range(1, 4):
            pmf = pmf * mu[edge] / k
            cdf = cdf + pmf
        u[edge] = cdf
        # At the cap, uniforms on the CDF at k = 0, 150 and 200 and one just
        # above CDF(200) pin the tie rule and the truncation of capped draws.
        cap = slice(600, 604)
        mu[cap] = 200.0
        pmf = np.exp(-200.0)
        cdf_at = [pmf]
        for k in range(1, 201):
            pmf = pmf * 200.0 / k
            cdf_at.append(cdf_at[-1] + pmf)
        u[cap] = [cdf_at[0], cdf_at[150], cdf_at[200], np.nextafter(cdf_at[200], 1.0)]
        counts, truncated = mc._poisson_icdf(u, mu)
        want = _full_array_poisson_icdf(u, mu)
        assert counts.dtype == want.dtype
        assert np.array_equal(counts, want)
        assert truncated == np.count_nonzero(want == 201) > 0
        assert np.all(counts[:500] == 0)
        assert np.all(counts[edge] == 3)
        assert list(counts[cap]) == [0, 150, 200, 201]
        counts, truncated = mc._poisson_icdf(np.empty(0), np.empty(0))
        assert counts.shape == (0,) and counts.dtype == np.int64
        assert truncated == 0

    def test_matches_scipy_ppf_for_moderate_means(self):
        rng = np.random.default_rng(2025)
        n = 100_000
        u = rng.random(n)
        mu = rng.uniform(0.0, 30.0, n)
        counts, truncated = mc._poisson_icdf(u, mu)
        want = stats.poisson.ppf(u, mu).astype(np.int64)
        assert truncated == 0
        off = np.flatnonzero(counts != want)
        # The recursive pmf sum may only disagree with the exact CDF when
        # u sits within rounding of a CDF step.
        edge = stats.poisson.cdf(np.minimum(counts, want)[off], mu[off])
        assert np.all(np.abs(u[off] - edge) < 1e-12)


class TestRunChecks:
    mdl = make_constant_model(0.2, 0.3, -0.1, 0.2, 0.05, 0.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf, 0.0, -1.0])
    def test_horizon_must_be_finite_and_positive(self, T):
        with pytest.raises(ValueError, match="finite horizon"):
            mc.simulate(self.mdl, T, 4, 50, seed=0)
        with pytest.raises(ValueError, match="finite horizon"):
            mc.simulate_crn_pair(self.mdl, self.mdl, T, 4, 50, seed=0)

    @pytest.mark.parametrize("steps, n_paths", [(0, 50), (4, 0), (-1, 50)])
    def test_sizes_must_be_positive(self, steps, n_paths):
        with pytest.raises(ValueError, match="n_paths >= 1"):
            mc.simulate(self.mdl, 0.5, steps, n_paths, seed=0)
        with pytest.raises(ValueError, match="n_paths >= 1"):
            mc.simulate_crn_pair(self.mdl, self.mdl, 0.5, steps, n_paths, seed=0)

    @pytest.mark.parametrize("estimator", ["lsm_price", "lsm_cva", "estimate_charfunc"])
    def test_estimators_need_two_paths(self, estimator):
        # simulate accepts one path; a sample standard deviation needs two.
        batch = mc.simulate(self.mdl, 0.5, 4, 1, seed=0)
        pay = bermudan.PayoffSpec(kind="put", strike=1.0)
        sched = bermudan.ExerciseSchedule(0.5, 2, 2)
        run = {
            "lsm_price": lambda: mc.lsm_price(batch, pay, sched, _discounting_driver(0.05)),
            "lsm_cva": lambda: mc.lsm_cva(batch, batch, pay, sched),
            "estimate_charfunc": lambda: mc.estimate_charfunc(batch, [0.0, 1.0]),
        }[estimator]
        with pytest.raises(ValueError, match="at least 2 paths"):
            run()

    @pytest.mark.parametrize("degree", [-3, 0, 2.5])
    def test_regression_degree_must_be_a_positive_integer(self, degree):
        batch = mc.simulate(self.mdl, 0.5, 4, 50, seed=0)
        pay = bermudan.PayoffSpec(kind="put", strike=1.0)
        sched = bermudan.ExerciseSchedule(0.5, 2, 2)
        drv = _discounting_driver(0.05)
        with pytest.raises(ValueError, match="degree must be an integer >= 1"):
            mc.lsm_price(batch, pay, sched, drv, degree=degree)
        with pytest.raises(ValueError, match="degree must be an integer >= 1"):
            mc.lsm_cva(batch, batch, pay, sched, degree=degree)

    def test_lsm_price_rejects_risk_free_closeout_before_any_regression(self, monkeypatch):
        # The full driver's risk-free close-out reads a mark-to-market that
        # the LSM backward step does not supply.
        batch = mc.simulate(self.mdl, 0.5, 4, 50, seed=0)
        fits = []
        monkeypatch.setattr(mc, "_fit_predict", lambda *a, **k: fits.append(a))
        drv = bsde.DriverSpec(mode="full", rate_r=0.05, rate_c=0.08, closeout="risk-free")
        with pytest.raises(ValueError, match="no mark-to-market input"):
            mc.lsm_price(
                batch, bermudan.PayoffSpec(kind="put", strike=1.0),
                bermudan.ExerciseSchedule(0.5, 2, 2), drv,
            )
        assert fits == []


class TestCrnPair:
    def test_same_model_gives_identical_paths(self):
        mdl = make_constant_model(0.2, 0.3, -0.1, 0.2, 0.05, 0.0)
        a, b = mc.simulate_crn_pair(mdl, mdl, 0.5, 4, 200, seed=3)
        assert np.array_equal(a.x, b.x)
        assert np.array_equal(a.survival, b.survival)

    def test_truncated_draws_are_counted(self):
        # a dt = 1000 x 0.25 = 250 is capped at 200, so a draw is cut off at
        # 201 jumps with probability P(Poisson(200) > 200).
        mdl = make_constant_model(0.2, 1000.0, 0.0, 0.0, 0.05, 0.0)
        steps, n = 2, 2_000
        a, b = mc.simulate_crn_pair(mdl, mdl, 0.5, steps, n, seed=4)
        assert a.poisson_truncated == b.poisson_truncated
        p = stats.poisson.sf(200, 200.0)
        draws = steps * n
        se = math.sqrt(p * (1.0 - p) / draws)
        assert abs(a.poisson_truncated / draws - p) < 5.0 * se
        assert mc.simulate(mdl, 0.5, steps, n, seed=4).poisson_truncated == 0

    def test_common_noise_couples_the_legs(self, model_put_riskfree):
        risky = model_put_riskfree.with_default(
            lx.CoeffFamily.exponential(0.1, -2.0)
        )
        d, r = mc.simulate_crn_pair(risky, model_put_riskfree, 1.0, 50, 20_000, seed=8)
        xd, xr = d.x[:, -1], r.x[:, -1]
        # The intensity shifts the drift and the state feeds back into the
        # coefficients, so the legs decorrelate somewhat over a year; an
        # independent pair would sit near zero.
        corr = np.corrcoef(xd, xr)[0, 1]
        assert corr > 0.5
        indep = mc.simulate(risky, 1.0, 50, 20_000, seed=9)
        corr_indep = np.corrcoef(indep.x[:, -1], xr)[0, 1]
        assert abs(corr_indep) < 0.05
        assert np.var(xd - xr) < 2.0 * (1.0 - corr) * 1.1 * np.var(xr)


class TestLsm:
    params = dict(sig=0.25, rate_r=0.04)

    def _european_setup(self, n=200_000):
        mdl = make_constant_model(
            self.params["sig"], 0.0, 0.0, 0.0, self.params["rate_r"], 0.0
        )
        T = 0.75
        batch = mc.simulate(mdl, T, 3, n, seed=77)
        return mdl, batch, T

    def test_single_date_put_hits_closed_form(self):
        mdl, batch, T = self._european_setup()
        K = 1.05
        pay = bermudan.PayoffSpec(kind="put", strike=K)
        sched = bermudan.ExerciseSchedule(T, 1, 3)
        est, (lo, hi) = mc.lsm_price(
            batch, pay, sched, _discounting_driver(self.params["rate_r"])
        )
        sig, r = self.params["sig"], self.params["rate_r"]
        want = math.exp(-r * T) * put_expectation_lognormal(
            K, (r - 0.5 * sig**2) * T, sig * math.sqrt(T)
        )
        assert lo < want < hi
        assert abs(est - want) < 1.2 * (hi - lo)

    def test_exercise_opportunities_add_value(self):
        mdl = make_constant_model(
            self.params["sig"], 0.0, 0.0, 0.0, self.params["rate_r"], 0.0
        )
        T, K = 1.0, 1.1
        batch = mc.simulate(mdl, T, 8, 100_000, seed=78)
        pay = bermudan.PayoffSpec(kind="put", strike=K)
        drv = _discounting_driver(self.params["rate_r"])
        eur, (lo1, hi1) = mc.lsm_price(
            batch, pay, bermudan.ExerciseSchedule(T, 1, 8), drv
        )
        berm, (lo4, hi4) = mc.lsm_price(
            batch, pay, bermudan.ExerciseSchedule(T, 4, 2), drv
        )
        width = hi1 - lo1
        assert berm > eur - 0.5 * width

    def test_cva_legs_cancel_without_default(self):
        mdl = make_constant_model(0.2, 0.0, 0.0, 0.0, 0.05, 0.0)
        a, b = mc.simulate_crn_pair(mdl, mdl, 0.5, 4, 5_000, seed=3)
        pay = bermudan.PayoffSpec(kind="put", strike=1.1)
        sched = bermudan.ExerciseSchedule(0.5, 2, 2)
        est, (lo, hi) = mc.lsm_cva(a, b, pay, sched)
        assert est == 0.0 and lo == 0.0 and hi == 0.0
        assert a.poisson_truncated == b.poisson_truncated == 0

    def test_cva_estimate_brackets_fast_path(self, model_put_riskfree):
        from levyxva import cva as cvamod

        spec = cvamod.DefaultSpec(intensity=lx.CoeffFamily.exponential(0.1, -2.0))
        risky = model_put_riskfree.with_default(spec.intensity)
        pay = bermudan.PayoffSpec(kind="put", strike=1.0)
        sched = bermudan.ExerciseSchedule(1.0, 10, 10)
        d, r = mc.simulate_crn_pair(
            risky, model_put_riskfree, 1.0, 100, 40_000, seed=42
        )
        est, (lo, hi) = mc.lsm_cva(d, r, pay, sched)
        assert 0.0 < lo < est < hi
        fast = cvamod.cva(model_put_riskfree, spec, pay, sched, J=100)
        # Loose two-width bracket: the estimator is biased low by the
        # regression exercise rule, but must sit in the same ballpark.
        width = hi - lo
        assert abs(est - fast) < max(4.0 * width, 0.2 * fast)


def _svd_fit_predict(xk, target, degree, mask=None):
    """Reference regression: power basis of the standardized state solved
    by SVD least squares, with the same degenerate and rank branches."""
    fit_x = xk if mask is None else xk[mask]
    fit_y = target if mask is None else target[mask]
    mean, std = fit_x.mean(), fit_x.std()
    if std < 1e-12 or fit_x.size <= degree + 1:
        return np.full(xk.shape, fit_y.mean())
    zs_all = (xk - mean) / std
    zs_fit = zs_all if mask is None else zs_all[mask]
    deg = degree
    while deg > 0:
        van = np.polynomial.polynomial.polyvander(zs_fit, deg)
        coef, _, rank, _ = np.linalg.lstsq(van, fit_y, rcond=None)
        if rank == deg + 1:
            return np.polynomial.polynomial.polyvander(zs_all, deg) @ coef
        warnings.warn(f"rank-deficient LSM regression, reducing degree to {deg - 1}")
        deg -= 1
    return np.full(xk.shape, fit_y.mean())


class TestFitPredict:
    @staticmethod
    def _sample():
        # A put-like target on a Gaussian state, plus ~80 paths at +-25-30
        # standard deviations, where absorbed paths sit at the guard band.
        rng = np.random.default_rng(606)
        n, sd = 20_000, 0.3
        x = sd * rng.standard_normal(n)
        far = rng.choice(n, 80, replace=False)
        x[far] = sd * rng.choice([-1.0, 1.0], 80) * rng.uniform(25.0, 30.0, 80)
        target = np.maximum(1.0 - np.exp(x), 0.0) + 0.05 * rng.standard_normal(n)
        return x, target, target > 0.02

    @pytest.mark.parametrize("masked", [False, True], ids=["all", "masked"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    def test_matches_svd_least_squares(self, degree, masked):
        x, target, itm = self._sample()
        mask = itm if masked else None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mc._fit_predict(x, target, degree, mask=mask)
            want = _svd_fit_predict(x, target, degree, mask=mask)
        assert got.shape == x.shape
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_rank_deficient_design_drops_to_group_means(self):
        rng = np.random.default_rng(607)
        levels = np.array([-0.3, 0.1, 0.5])
        x = levels[rng.integers(0, 3, 5_000)]
        target = np.exp(x) + rng.standard_normal(x.size)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = mc._fit_predict(x, target, 3)
        assert [str(w.message) for w in caught] == [
            "rank-deficient LSM regression, reducing degree to 2"
        ]
        for level in levels:
            at = x == level
            assert_allclose(got[at], target[at].mean(), rtol=1e-10)


class TestDumpLoad:
    def test_roundtrip_and_binary_layout(self, tmp_path):
        mdl = make_constant_model(0.2, 0.0, 0.0, 0.0, 0.05, 0.0, x0=0.1)
        b = mc.simulate(mdl, 0.5, 4, 50, seed=9)
        path = tmp_path / "paths.bin"
        mc.dump_paths(b, path)
        out = mc.load_paths(path)
        assert out["seed"] == 9
        assert out["steps"] == 4
        assert out["n_paths"] == 50
        assert_allclose(out["x"], b.x, rtol=0.0, atol=0.0)
        # Independent parse: three little-endian uint64, then row-major
        # little-endian float64 paths.
        raw = path.read_bytes()
        seed, steps, n_paths = struct.unpack("<3Q", raw[:24])
        assert (seed, steps, n_paths) == (9, 4, 50)
        body = np.frombuffer(raw[24:], dtype="<f8").reshape(50, 5)
        assert_allclose(body, b.x, rtol=0.0, atol=0.0)
        assert len(raw) == 24 + 50 * 5 * 8
