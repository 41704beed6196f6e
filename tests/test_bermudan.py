"""Tests for the exercise schedule, payoff catalogue and Bermudan pricer.

With one exercise date the Bermudan collapses to a European contract,
for which the constant-coefficient closed forms of test_cos are exact
oracles.  Structural Bermudan facts (monotonicity in nested exercise
sets, boundary location below the strike) cover the multi-date path.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import levyxva as lx
from levyxva import bermudan, bsde

from conftest import make_benchmark_model, make_constant_model

from test_cos import put_expectation_jumpdiff


def flat_short_rate_curve(t, t_pay, x):
    """Toy zero-coupon curve P(t, T, x) = exp(-e^x (T - t))."""
    return np.exp(-np.exp(np.asarray(x, dtype=float)) * (t_pay - t))


def swaption_hand_value(kind, notional, strike, schedule, t, x):
    """Exercise value of the swaption, recomputed with plain loops."""
    m = int(round(t / schedule.spacing))
    bonds = [
        flat_short_rate_curve(t, (k + 1) * schedule.spacing, x)
        for k in range(m, schedule.M + 1)
    ]
    annuity = schedule.spacing * sum(bonds)
    swap_rate = (1.0 - bonds[-1]) / annuity
    numeraire = flat_short_rate_curve(t, schedule.T, x)
    cp = 1.0 if kind == "swaption-payer" else -1.0
    return notional * (annuity / numeraire) * max(cp * (swap_rate - strike), 0.0)


class TestExerciseSchedule:
    def test_dates_and_steps(self):
        sched = bermudan.ExerciseSchedule(2.0, 4, 8)
        assert_allclose(sched.dates, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert sched.spacing == pytest.approx(0.5)
        assert sched.dt == pytest.approx(2.0 / 32)
        assert sched.n_steps == 32

    def test_rejects_nonsense(self):
        with pytest.raises(ValueError):
            bermudan.ExerciseSchedule(-1.0, 4, 8)
        with pytest.raises(ValueError):
            bermudan.ExerciseSchedule(1.0, 0, 8)
        with pytest.raises(ValueError):
            bermudan.ExerciseSchedule(1.0, 4, 0)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_rejects_non_finite_maturity(self, T):
        with pytest.raises(ValueError, match="T must be finite"):
            bermudan.ExerciseSchedule(T, 4, 8)


class TestPayoffSpec:
    def test_option_kinds_need_positive_strike(self):
        with pytest.raises(ValueError):
            bermudan.PayoffSpec(kind="put", strike=0.0)
        with pytest.raises(ValueError):
            bermudan.PayoffSpec(kind="call", strike=-1.0)

    @pytest.mark.parametrize("kind", ["portfolio-linear", "portfolio-exp"])
    def test_portfolio_kinds_take_no_strike(self, kind):
        assert bermudan.PayoffSpec(kind=kind).strike == 0.0
        with pytest.raises(ValueError, match="take no strike"):
            bermudan.PayoffSpec(kind=kind, strike=1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            bermudan.PayoffSpec(kind="straddle", strike=1.0)

    def test_swaption_needs_curve_and_schedule(self):
        with pytest.raises(ValueError):
            bermudan.PayoffSpec(kind="swaption-payer", strike=0.02)

    @pytest.mark.parametrize(
        "kind, name, value",
        [
            ("put", "strike", math.nan),
            ("put", "strike", math.inf),
            ("call", "strike", math.inf),
            ("portfolio-linear", "notional", math.nan),
            ("portfolio-exp", "notional", -math.inf),
        ],
    )
    def test_rejects_non_finite_numbers(self, kind, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            bermudan.PayoffSpec(kind=kind, **{name: value})


class TestPayoffEval:
    x = np.array([-0.5, 0.0, 0.7])

    def test_portfolio_linear(self):
        p = bermudan.PayoffSpec(kind="portfolio-linear", notional=2.0)
        assert_allclose(bermudan.payoff_eval(p, 0.0, self.x), 2.0 * self.x)
        assert_allclose(bermudan.payoff_dx(p, 0.0, self.x), 2.0)

    def test_portfolio_exp(self):
        p = bermudan.PayoffSpec(kind="portfolio-exp", notional=2.0)
        assert_allclose(bermudan.payoff_eval(p, 0.0, self.x), 2.0 * np.exp(self.x))
        assert_allclose(bermudan.payoff_dx(p, 0.0, self.x), 2.0 * np.exp(self.x))

    def test_put_and_left_derivative_at_kink(self):
        p = bermudan.PayoffSpec(kind="put", strike=1.2, notional=3.0)
        pts = np.array([0.0, math.log(1.2), 1.0])
        assert_allclose(
            bermudan.payoff_eval(p, 0.0, pts),
            3.0 * np.maximum(1.2 - np.exp(pts), 0.0),
        )
        # Exactly at the kink the put keeps its in-the-money slope.
        assert_allclose(bermudan.payoff_dx(p, 0.0, pts), [-3.0, -3.6, 0.0])

    def test_call_and_right_derivative_at_kink(self):
        p = bermudan.PayoffSpec(kind="call", strike=1.2, notional=3.0)
        pts = np.array([0.0, math.log(1.2), 1.0])
        assert_allclose(
            bermudan.payoff_eval(p, 0.0, pts),
            3.0 * np.maximum(np.exp(pts) - 1.2, 0.0),
        )
        assert_allclose(
            bermudan.payoff_dx(p, 0.0, pts), [0.0, 3.6, 3.0 * math.e]
        )

    @pytest.mark.parametrize("kind", ["swaption-payer", "swaption-receiver"])
    def test_swaption_matches_hand_computation(self, kind):
        sched = bermudan.ExerciseSchedule(1.0, 2, 4)
        p = bermudan.PayoffSpec(
            kind=kind,
            strike=1.0,
            notional=1.5,
            bond_curve=flat_short_rate_curve,
            schedule=sched,
        )
        for t in [0.0, 0.5]:
            for x in [-0.4, 0.0, 0.3]:
                want = swaption_hand_value(kind, 1.5, 1.0, sched, t, x)
                assert_allclose(
                    bermudan.payoff_eval(p, t, np.array([x]))[0],
                    want,
                    rtol=1e-12,
                )

    def test_swaption_derivative_consistent_with_bumping(self):
        sched = bermudan.ExerciseSchedule(1.0, 2, 4)
        p = bermudan.PayoffSpec(
            kind="swaption-payer",
            strike=1.0,
            notional=1.0,
            bond_curve=flat_short_rate_curve,
            schedule=sched,
        )
        x, h = np.array([0.1]), 1e-5
        fd = (
            swaption_hand_value("swaption-payer", 1.0, 1.0, sched, 0.5, 0.1 + h)
            - swaption_hand_value("swaption-payer", 1.0, 1.0, sched, 0.5, 0.1 - h)
        ) / (2.0 * h)
        assert_allclose(bermudan.payoff_dx(p, 0.5, x)[0], fd, rtol=1e-4)


class TestEuropeanLimit:
    """One exercise date: the pricer must hit the closed-form European."""

    params = dict(sig=0.2, lam=0.4, m=-0.15, delta=0.25, rate_r=0.03)

    def test_single_date_put_matches_series_oracle(self):
        mdl = make_constant_model(gamma0=0.0, x0=-0.1, **self.params)
        T, strike = 0.75, 1.1
        sched = bermudan.ExerciseSchedule(T, 1, 64)
        pay = bermudan.PayoffSpec(kind="put", strike=strike)
        drv = bsde.DriverSpec(mode="simplified", rate_r=0.03)
        res = bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=256)
        want = math.exp(-0.03 * T) * put_expectation_jumpdiff(
            strike, -0.1, T, **self.params
        )
        assert abs(res.value - want) < 1e-4

    @pytest.mark.parametrize(
        "driver",
        [
            bsde.DriverSpec(mode="simplified", rate_r=0.05),
            bsde.DriverSpec(
                mode="full",
                rate_r=0.05,
                rate_b=0.07,
                rate_c=0.09,
                rate_f=0.06,
                recovery_b=0.4,
                recovery_c=0.6,
                margin_c2=0.3,
            ),
        ],
        ids=["simplified", "full-risky"],
    )
    def test_single_date_is_the_european_bsde_solve(self, driver):
        def both(T, N, J=128):
            mdl = make_benchmark_model(rate_r=0.05, c_default=0.1)
            pay = bermudan.PayoffSpec(kind="put", strike=1.1)
            res = bermudan.price_bermudan_xva(
                mdl, pay, bermudan.ExerciseSchedule(T, 1, N), driver, J=J
            )
            sol = bsde.solve_bsde(
                mdl,
                lambda x: bermudan.payoff_eval(pay, T, x),
                lambda x: bermudan.payoff_dx(pay, T, x),
                T,
                bsde.BsdeGrid(N, T / N),
                driver,
                J=J,
            )
            return res, sol

        res, sol = both(0.5, 8)
        assert res.value == pytest.approx(sol.value, rel=1e-12)
        assert_allclose(res.y0, sol.y0, rtol=1e-12, atol=1e-14)
        # A step that is not dyadic: (t + dt) - t rounds differently from
        # step to step, so the solves agree bit for bit only because every
        # kernel is built from dt alone.
        res, sol = both(0.7, 10)
        assert res.value == sol.value
        assert np.array_equal(res.y0, sol.y0)


class TestBermudanStructure:
    strike = 1.1

    def _price(self, M, N=16, J=128, T=1.0):
        mdl = make_constant_model(0.25, 0.0, 0.0, 0.0, 0.06, 0.0)
        sched = bermudan.ExerciseSchedule(T, M, N)
        pay = bermudan.PayoffSpec(kind="put", strike=self.strike)
        drv = bsde.DriverSpec(mode="simplified", rate_r=0.06)
        return bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=J)

    def test_more_exercise_dates_cannot_hurt(self):
        # The M = 1, 2, 4 date sets are nested, so prices must increase.
        v1 = self._price(1, N=32).value
        v2 = self._price(2, N=16).value
        v4 = self._price(4, N=8).value
        assert v1 <= v2 + 1e-9
        assert v2 <= v4 + 1e-9

    def test_price_below_strike(self):
        res = self._price(4)
        assert 0.0 < res.value < self.strike

    def test_boundary_sits_below_strike_and_rises_to_it(self):
        res = self._price(4, N=8)
        assert len(res.boundary) == 3  # inner dates only
        times = [t for t, _ in res.boundary]
        points = [x for _, x in res.boundary]
        assert_allclose(times, [0.25, 0.5, 0.75])
        assert all(x < math.log(self.strike) for x in points)
        # Early-exercise region of a put expands toward maturity.
        assert all(a <= b + 1e-9 for a, b in zip(points, points[1:]))

    def test_result_metadata(self):
        res = self._price(2, N=4, J=64)
        assert res.spot == pytest.approx(0.0)
        assert res.grid.J == 64
        assert res.delta is None and res.gamma is None
        assert res.timings["total"] >= res.timings["backward"] > 0.0
        assert 0.0 < res.timings["kernel"] <= res.timings["total"]
        assert res.config["M"] == 2 and res.config["N"] == 4
        assert res.y0.shape == (64,)

    def test_full_xva_driver_shifts_the_value(self):
        mdl = make_constant_model(0.25, 0.0, 0.0, 0.0, 0.06, 0.0)
        sched = bermudan.ExerciseSchedule(1.0, 2, 8)
        pay = bermudan.PayoffSpec(kind="put", strike=self.strike)
        plain = bsde.DriverSpec(mode="simplified", rate_r=0.06)
        # A positive-value put only feels counterparty-side terms, so the
        # shift must come from a counterparty spread with partial recovery.
        loaded = bsde.DriverSpec(
            mode="full",
            rate_r=0.06,
            rate_b=0.06,
            rate_c=0.08,
            rate_f=0.06,
            recovery_c=0.6,
        )
        v0 = bermudan.price_bermudan_xva(mdl, pay, sched, plain, J=128).value
        v1 = bermudan.price_bermudan_xva(mdl, pay, sched, loaded, J=128).value
        assert np.isfinite(v1)
        assert v1 != pytest.approx(v0, abs=1e-8)

    @pytest.mark.parametrize("closeout, passes", [("risky", 1), ("risk-free", 2)])
    def test_one_dct_per_time_level(self, dct_calls, closeout, passes):
        # (y, f) of a level are transformed in one call; the last level's
        # coefficients serve both the node step and the spot step.  The
        # risk-free close-out adds the zero-driver mark-to-market pass.
        mdl = make_constant_model(0.25, 0.0, 0.0, 0.0, 0.06, 0.0)
        sched = bermudan.ExerciseSchedule(1.0, 3, 2)
        pay = bermudan.PayoffSpec(kind="put", strike=self.strike)
        drv = bsde.DriverSpec(mode="full", rate_r=0.06, rate_c=0.08, closeout=closeout)
        bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=32)
        assert dct_calls == [(2, 32)] * (passes * sched.M * sched.N)

    def test_grid_reuse_is_deterministic(self):
        mdl = make_constant_model(0.25, 0.0, 0.0, 0.0, 0.06, 0.0)
        sched = bermudan.ExerciseSchedule(1.0, 2, 4)
        pay = bermudan.PayoffSpec(kind="put", strike=self.strike)
        drv = bsde.DriverSpec(mode="simplified", rate_r=0.06)
        grid = bsde.make_cos_grid(mdl, 1.0, 64)
        a = bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=64)
        b = bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=64, grid=grid)
        assert a.value == b.value


class TestComplexityProbe:
    def test_reports_one_timing_per_combo(self):
        mdl = make_constant_model(0.25, 0.0, 0.0, 0.0, 0.06, 0.0)
        pay = bermudan.PayoffSpec(kind="put", strike=1.1)
        drv = bsde.DriverSpec(mode="simplified", rate_r=0.06)
        combos = [(32, 2, 2), (64, 2, 2)]
        out = bermudan.complexity_probe(mdl, pay, drv, 1.0, combos)
        assert len(out) == 2
        for row, (J, N, M) in zip(out, combos):
            assert (row["J"], row["N"], row["M"]) == (J, N, M)
            assert row["seconds"] > 0.0
            assert np.isfinite(row["value"])
