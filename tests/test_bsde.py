"""Tests for the theta-scheme backward solver and its driver registry.

The linear-driver cases have exact discounting oracles (Black-Scholes
closed forms); the single-step building block is checked against hand
evaluations of the scheme formulas and against the Brownian-increment
derivative identity E[h dW] = dt sigma d/dx E[h] + O(dt^2).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

import levyxva as lx
from levyxva import bsde, charfunc, cos, model
from levyxva.errors import NumericalError

from conftest import make_constant_model

from test_cos import put_expectation_lognormal


def full_driver_display(spec, y, mtm=None):
    """The documented full-XVA driver, restated independently.

    Close-out value Q is y (risky) or the external mark (risk-free);
    variation margin and capital are proportional to the live value.
    """
    q = y if spec.closeout == "risky" else mtm
    iv = spec.margin_c2 * y
    wb = q - iv + spec.margin_tc
    wc = q - iv - spec.margin_fc
    theta_b = iv - spec.margin_tc + max(wb, 0.0) + spec.recovery_b * min(wb, 0.0)
    theta_c = iv + spec.margin_fc + spec.recovery_c * max(wc, 0.0) + min(wc, 0.0)
    return (
        -(spec.rate_b - spec.rate_r) * (theta_b - y)
        - (spec.rate_c - spec.rate_r) * (theta_c - y)
        + (spec.rate_tc + spec.rate_r) * spec.margin_tc
        - spec.rate_fc * spec.margin_fc
        - (spec.rate_i + spec.rate_r) * iv
        - spec.rate_k * spec.capital_c1 * y
        + spec.rate_r * y
        + (spec.rate_f - spec.rate_r) * min(theta_b - iv + spec.margin_tc, 0.0)
    )


class TestDriverSpec:
    def test_zero_mode(self):
        spec = bsde.DriverSpec(mode="zero", rate_r=0.3)
        y = np.array([-2.0, 0.0, 5.0])
        assert_allclose(bsde.scheme_driver(spec, y), 0.0)

    def test_simplified_mode_discounts_positive_part(self):
        spec = bsde.DriverSpec(mode="simplified", rate_r=0.04)
        y = np.array([-2.0, 0.0, 5.0])
        assert_allclose(bsde.scheme_driver(spec, y), [0.0, 0.0, -0.2])

    def test_spreads_are_differences(self):
        spec = bsde.DriverSpec(
            mode="full", rate_r=0.02, rate_b=0.05, rate_c=0.01, rate_f=0.03
        )
        assert spec.lambda_b == pytest.approx(0.03)
        assert spec.lambda_c == pytest.approx(-0.01)
        assert spec.lambda_f == pytest.approx(0.01)

    @pytest.mark.parametrize("closeout", ["risky", "risk-free"])
    def test_full_display_matches_hand_formula(self, closeout):
        spec = bsde.DriverSpec(
            mode="full",
            rate_r=0.02,
            rate_b=0.035,
            rate_c=0.012,
            rate_f=0.027,
            rate_i=0.015,
            rate_k=0.05,
            rate_tc=0.02,
            rate_fc=0.03,
            recovery_b=0.4,
            recovery_c=0.6,
            margin_tc=1.0,
            margin_fc=-0.5,
            capital_c1=0.1,
            margin_c2=0.8,
            closeout=closeout,
        )
        for y in [-1.5, -0.1, 0.0, 0.4, 2.0]:
            mtm = 0.7 * y + 0.1
            want = full_driver_display(spec, y, mtm)
            # Scheme convention is the PDE display negated.
            got = bsde.scheme_driver(spec, y, mtm=mtm)
            assert_allclose(-got, want, rtol=1e-13)

    def test_full_adjustment_free_limit(self):
        # All financing at the risk-free rate, no margins, no capital:
        # the scheme-convention driver collapses to -r*y.
        r = 0.04
        spec = bsde.DriverSpec(
            mode="full", rate_r=r, rate_b=r, rate_c=r, rate_f=r
        )
        y = np.array([-1.0, 0.5, 2.0])
        assert_allclose(bsde.scheme_driver(spec, y), -r * y, rtol=1e-14)

    def test_risk_free_closeout_requires_mtm(self):
        spec = bsde.DriverSpec(mode="full", rate_r=0.02, closeout="risk-free")
        assert spec.needs_mtm
        with pytest.raises(ValueError):
            bsde.scheme_driver(spec, 1.0)
        assert not bsde.DriverSpec(mode="full", rate_r=0.02).needs_mtm

    def test_validation(self):
        with pytest.raises(ValueError):
            bsde.DriverSpec(mode="bogus")
        with pytest.raises(ValueError):
            bsde.DriverSpec(closeout="bogus")
        with pytest.raises(ValueError):
            bsde.DriverSpec(recovery_b=1.5)

    @pytest.mark.parametrize(
        "name",
        [
            "rate_r", "rate_b", "rate_c", "rate_f", "rate_i", "rate_k", "rate_tc", "rate_fc",
            "margin_tc", "margin_fc", "capital_c1", "margin_c2",
        ],
    )
    def test_rejects_non_finite_numbers(self, name):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                bsde.DriverSpec(mode="full", **{name: value})

    @settings(max_examples=60, deadline=None)
    @given(
        rate_r=st.floats(-0.05, 0.08),
        rate_b=st.floats(-0.05, 0.1),
        rate_c=st.floats(-0.05, 0.1),
        rate_f=st.floats(-0.05, 0.1),
        rate_i=st.floats(-0.05, 0.1),
        rate_k=st.floats(0.0, 0.1),
        recovery_b=st.floats(0.0, 1.0),
        recovery_c=st.floats(0.0, 1.0),
        capital_c1=st.floats(0.0, 0.5),
        margin_c2=st.floats(0.0, 1.0),
        y1=st.floats(-3.0, 3.0),
        y2=st.floats(-3.0, 3.0),
    )
    def test_lipschitz_bound_is_sound(
        self,
        rate_r,
        rate_b,
        rate_c,
        rate_f,
        rate_i,
        rate_k,
        recovery_b,
        recovery_c,
        capital_c1,
        margin_c2,
        y1,
        y2,
    ):
        spec = bsde.DriverSpec(
            mode="full",
            rate_r=rate_r,
            rate_b=rate_b,
            rate_c=rate_c,
            rate_f=rate_f,
            rate_i=rate_i,
            rate_k=rate_k,
            recovery_b=recovery_b,
            recovery_c=recovery_c,
            margin_tc=0.4,
            margin_fc=-0.2,
            capital_c1=capital_c1,
            margin_c2=margin_c2,
        )
        f1 = bsde.scheme_driver(spec, y1)
        f2 = bsde.scheme_driver(spec, y2)
        bound = spec.lipschitz_bound()
        assert abs(f1 - f2) <= bound * abs(y1 - y2) + 1e-12


class TestBsdeGrid:
    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_rejects_non_finite_step(self, dt):
        with pytest.raises(ValueError, match="dt must be finite"):
            bsde.BsdeGrid(2, dt)


class TestMakeCosGrid:
    @pytest.mark.parametrize("L", [0.0, -10.0, math.inf, math.nan])
    def test_rejects_a_bad_truncation_width_by_name(self, L):
        mdl = make_constant_model(0.25, 0.0, 0.0, 0.0, 0.05, 0.0)
        with pytest.raises(ValueError, match="truncation width L"):
            bsde.make_cos_grid(mdl, 1.0, 64, L)


class TestContraction:
    def test_passes_when_fixed_point_contracts(self):
        spec = bsde.DriverSpec(mode="simplified", rate_r=0.1)
        bsde.check_contraction(bsde.BsdeGrid(10, 0.1), spec)

    def test_raises_when_implicit_weight_too_large(self):
        spec = bsde.DriverSpec(mode="simplified", rate_r=0.1)
        with pytest.raises(NumericalError):
            bsde.check_contraction(bsde.BsdeGrid(1, 25.0, theta1=0.5), spec)

    def test_zero_mode_always_contracts(self):
        assert bsde.DriverSpec(mode="zero").lipschitz_bound() == 0.0
        bsde.check_contraction(
            bsde.BsdeGrid(1, 1e9), bsde.DriverSpec(mode="zero")
        )


def _coeffs(g, *rows):
    """Cosine coefficients of each node-value row, in one stacked DCT."""
    return cos.dct_coeffs(np.stack(rows), g)


class TestThetaStep:
    sig = 0.25

    def _setup(self, dt, theta2=0.5, J=128):
        mdl = make_constant_model(self.sig, 0.0, 0.0, 0.0, 0.06, 0.0)
        g = cos.CosGrid(-4.0, 4.0, J)
        tay = model.taylor_expand(mdl, 0.0, 0.0, 0)
        cf = charfunc.build_order_n(tay, 0.0, dt, g.freqs, 0)
        kern = cos.point_kernel(cf, g, g.nodes)
        bg = bsde.BsdeGrid(1, dt, theta1=0.5, theta2=theta2)
        return g, cf, kern, bg

    def test_zero_driver_reduces_to_expectation(self):
        dt = 0.01
        g, cf, kern, bg = self._setup(dt)
        spec = bsde.DriverSpec(mode="zero")
        y1 = np.exp(-g.nodes**2)
        y0, f0 = bsde.theta_step(*_coeffs(g, y1, np.zeros(g.J)), kern, bg, spec)
        want = kern.psi @ cos.dct_coeffs(y1, g)
        assert_allclose(y0, want, rtol=1e-13)
        assert_allclose(f0, 0.0)

    def test_brownian_weighting_extracts_derivative(self):
        # theta2 = 1 makes z_now = E[y dW]/dt = sigma d/dx E[y] + O(dt).
        dt = 1e-4
        g, cf, kern, bg = self._setup(dt, theta2=1.0)
        y1 = np.exp(-g.nodes**2)
        zeros = np.zeros(g.J)
        z0 = bsde.z_step(*_coeffs(g, y1, zeros, zeros), kern, bg, np.full(g.J, self.sig))
        want = self.sig * (-2.0 * g.nodes) * np.exp(-g.nodes**2)
        assert_allclose(z0, want, atol=1e-5)

    def test_returned_driver_keeps_scheme_convention(self):
        dt = 0.01
        g, cf, kern, bg = self._setup(dt)
        spec = bsde.DriverSpec(mode="simplified", rate_r=0.06)
        y1 = np.exp(-g.nodes**2)
        y0, f0 = bsde.theta_step(*_coeffs(g, y1, np.zeros(g.J)), kern, bg, spec)
        assert_allclose(f0, bsde.scheme_driver(spec, y0), rtol=1e-14)

    def test_explicit_scheme_ignores_picard_count(self):
        dt = 0.01
        g, cf, kern, _ = self._setup(dt)
        spec = bsde.DriverSpec(mode="simplified", rate_r=0.06)
        y1 = np.exp(-g.nodes**2)
        f1 = bsde.scheme_driver(spec, y1)
        outs = []
        for picard in (1, 7):
            bg = bsde.BsdeGrid(1, dt, theta1=0.0, theta2=0.5, picard=picard)
            outs.append(bsde.theta_step(*_coeffs(g, y1, f1), kern, bg, spec))
        for a, b in zip(outs[0], outs[1]):
            assert_allclose(a, b, rtol=0.0, atol=0.0)
        # And the explicit update is exactly E[y] + dt E[f].
        ey = kern.psi @ cos.dct_coeffs(y1, g)
        ef = kern.psi @ cos.dct_coeffs(f1, g)
        assert_allclose(outs[0][0], ey + dt * ef, rtol=1e-13)


class TestSolveBsde:
    """End-to-end backward solves against lognormal closed forms."""

    sig, rate_r, spot = 0.25, 0.06, 0.05

    def _model(self):
        return make_constant_model(
            self.sig, 0.0, 0.0, 0.0, self.rate_r, 0.0, x0=self.spot
        )

    @staticmethod
    def _call_terminal(strike):
        term = lambda x: np.maximum(np.exp(x) - strike, 0.0)
        term_dx = lambda x: np.where(x >= math.log(strike), np.exp(x), 0.0)
        return term, term_dx

    def _bs_call(self, strike, T):
        d1 = (
            self.spot - math.log(strike) + (self.rate_r + 0.5 * self.sig**2) * T
        ) / (self.sig * math.sqrt(T))
        d2 = d1 - self.sig * math.sqrt(T)
        return math.exp(self.spot) * stats.norm.cdf(d1) - strike * math.exp(
            -self.rate_r * T
        ) * stats.norm.cdf(d2)

    def test_discounting_driver_prices_european_call(self):
        mdl = self._model()
        term, term_dx = self._call_terminal(1.0)
        bg = bsde.BsdeGrid(64, 1.0 / 64, 0.5, 0.5, picard=5)
        spec = bsde.DriverSpec(mode="simplified", rate_r=self.rate_r)
        sol = bsde.solve_bsde(mdl, term, term_dx, 1.0, bg, spec, J=256)
        assert abs(sol.value - self._bs_call(1.0, 1.0)) < 1e-4

    def test_martingale_representation_at_spot(self):
        # Z_0 = sigma * S * Delta for the lognormal call.
        mdl = self._model()
        term, term_dx = self._call_terminal(1.0)
        bg = bsde.BsdeGrid(64, 1.0 / 64, 0.5, 0.5, picard=5)
        spec = bsde.DriverSpec(mode="simplified", rate_r=self.rate_r)
        grid = bsde.make_cos_grid(mdl, 1.0, 256)
        sol = bsde.solve_bsde(mdl, term, term_dx, 1.0, bg, spec, J=256, grid=grid)
        d1 = (
            self.spot - math.log(1.0) + (self.rate_r + 0.5 * self.sig**2)
        ) / self.sig
        want = self.sig * math.exp(self.spot) * stats.norm.cdf(d1)
        got = np.interp(self.spot, grid.nodes, sol.z0)
        assert_allclose(got, want, rtol=5e-3)

    def test_zero_driver_telescopes_to_single_expectation(self):
        # With f = 0 the N-step backward solve is the iterated conditional
        # expectation, which for constant coefficients must agree with one
        # cosine expectation over the full horizon.
        mdl = make_constant_model(0.2, 0.3, -0.1, 0.2, 0.03, 0.0, x0=-0.1)
        T, strike = 0.75, 1.1
        grid = bsde.make_cos_grid(mdl, T, 256)
        term = lambda x: np.maximum(strike - np.exp(x), 0.0)
        term_dx = lambda x: np.where(x <= math.log(strike), -np.exp(x), 0.0)
        bg = bsde.BsdeGrid(8, T / 8, 0.5, 0.5)
        sol = bsde.solve_bsde(
            mdl, term, term_dx, T, bg, bsde.DriverSpec(mode="zero"), grid=grid
        )
        tay = model.taylor_expand(mdl, 0.0, -0.1, 0)
        cf = charfunc.build_order_n(tay, 0.0, T, grid.freqs, 0)
        # Same node-sampled projection of the terminal condition the
        # solver starts from, so only the step composition is under test.
        coeffs = cos.dct_coeffs(term(grid.nodes), grid)
        (want,) = cos.point_kernel(cf, grid, -0.1).psi @ coeffs
        assert_allclose(sol.value, want, rtol=1e-9)

    def test_jump_diffusion_discounted_put(self):
        from test_cos import put_expectation_jumpdiff

        params = dict(sig=0.2, lam=0.4, m=-0.15, delta=0.25, rate_r=0.03)
        mdl = make_constant_model(gamma0=0.0, x0=-0.1, **params)
        T, strike = 0.75, 1.1
        term = lambda x: np.maximum(strike - np.exp(x), 0.0)
        term_dx = lambda x: np.where(x <= math.log(strike), -np.exp(x), 0.0)
        bg = bsde.BsdeGrid(64, T / 64, 0.5, 0.5)
        spec = bsde.DriverSpec(mode="simplified", rate_r=0.03)
        sol = bsde.solve_bsde(mdl, term, term_dx, T, bg, spec, J=256)
        want = math.exp(-0.03 * T) * put_expectation_jumpdiff(
            strike, -0.1, T, **params
        )
        assert abs(sol.value - want) < 1e-4

    def test_reusing_the_grid_is_deterministic(self):
        mdl = self._model()
        term, term_dx = self._call_terminal(1.0)
        bg = bsde.BsdeGrid(16, 1.0 / 16, 0.5, 0.5)
        spec = bsde.DriverSpec(mode="simplified", rate_r=self.rate_r)
        grid = bsde.make_cos_grid(mdl, 1.0, 128)
        a = bsde.solve_bsde(mdl, term, term_dx, 1.0, bg, spec, J=128)
        b = bsde.solve_bsde(mdl, term, term_dx, 1.0, bg, spec, J=128, grid=grid)
        assert a.value == b.value
        assert_allclose(a.y0, b.y0, rtol=0.0, atol=0.0)

    def test_rejects_J_other_than_the_grids(self):
        mdl = self._model()
        term, term_dx = self._call_terminal(1.0)
        bg = bsde.BsdeGrid(16, 1.0 / 16, 0.5, 0.5)
        spec = bsde.DriverSpec(mode="simplified", rate_r=self.rate_r)
        grid = bsde.make_cos_grid(mdl, 1.0, 64)
        with pytest.raises(ValueError, match="J=256 does not match the grid's J=64"):
            bsde.solve_bsde(mdl, term, term_dx, 1.0, bg, spec, J=256, grid=grid)

    @pytest.mark.parametrize(
        "spec, per_level",
        [
            (bsde.DriverSpec(mode="simplified", rate_r=rate_r), [(3, 32)]),
            (
                bsde.DriverSpec(mode="full", rate_r=0.06, rate_c=0.08, closeout="risk-free"),
                [(2, 32), (3, 32)],
            ),
        ],
        ids=["simplified", "full-risk-free"],
    )
    def test_one_dct_per_time_level(self, dct_calls, z_step_calls, spec, per_level):
        # y, z and f of a level are transformed in one call that every
        # step reading the level shares, the spot step included; the
        # European solve carries z in its main pass, one z step per time
        # step.  A risk-free close-out adds the zero-driver pass's (y, f)
        # ahead of it.
        term, term_dx = self._call_terminal(1.0)
        bsde.solve_bsde(self._model(), term, term_dx, 1.0, bsde.BsdeGrid(8, 0.125), spec, J=32)
        assert dct_calls == per_level * 8
        assert z_step_calls == [(32,)] * 8

    def test_adjustment_free_risk_free_closeout_is_the_risky_solve(self):
        # With r_b = r_c = r_f = r every close-out term has a zero weight,
        # so the mark-to-market pass cannot reach the main pass.
        mdl = self._model()
        term, term_dx = self._call_terminal(1.0)
        bg = bsde.BsdeGrid(8, 0.125)
        rates = dict(rate_r=self.rate_r, rate_b=self.rate_r, rate_c=self.rate_r, rate_f=self.rate_r)
        risky, risk_free = (
            bsde.solve_bsde(
                mdl, term, term_dx, 1.0, bg,
                bsde.DriverSpec(mode="full", recovery_c=0.4, closeout=closeout, **rates),
                J=64,
            )
            for closeout in ("risky", "risk-free")
        )
        assert risk_free.value == risky.value
        assert np.array_equal(risk_free.y0, risky.y0)
        assert np.array_equal(risk_free.z0, risky.z0)

    def test_every_pricer_returns_one_result_type(self, model_put):
        from levyxva import bermudan, cva

        term, term_dx = self._call_terminal(1.0)
        spec = bsde.DriverSpec(mode="simplified", rate_r=self.rate_r)
        sched = bermudan.ExerciseSchedule(0.5, 2, 2)
        put = bermudan.PayoffSpec(kind="put", strike=1.0)
        results = (
            bsde.solve_bsde(self._model(), term, term_dx, 1.0, bsde.BsdeGrid(2, 0.5), spec, J=32),
            bermudan.price_bermudan_xva(model_put, put, sched, spec, J=32),
            cva.price_bermudan_cos(model_put, put, sched, J=32),
        )
        assert all(type(res) is bsde.PricingResult for res in results)
        assert lx.PricingResult is bsde.PricingResult

    def test_solution_records_spot_and_grid(self):
        mdl = self._model()
        term, term_dx = self._call_terminal(1.0)
        bg = bsde.BsdeGrid(4, 0.25)
        spec = bsde.DriverSpec(mode="zero")
        sol = bsde.solve_bsde(mdl, term, term_dx, 1.0, bg, spec, J=64)
        assert sol.spot == pytest.approx(self.spot)
        assert sol.grid.J == 64
        assert sol.y0.shape == (64,) and sol.z0.shape == (64,)
