"""Coefficient families, jump compensator, drift restriction, Taylor data."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, stats

import levyxva as lx
from levyxva import model as modelmod

from conftest import make_benchmark_model, make_constant_model


class TestCoeffFamily:
    def test_zero_family_is_zero(self):
        fam = lx.CoeffFamily.zero()
        x = np.linspace(-3, 3, 7)
        assert_allclose(fam(x), 0.0)
        assert fam.is_zero

    def test_const_family_ignores_x(self):
        fam = lx.CoeffFamily.const(0.7)
        assert_allclose(fam(np.array([-1.0, 0.0, 2.5])), 0.7)

    def test_exponential_family_values(self):
        fam = lx.CoeffFamily.exponential(0.15, -2.0)
        x = np.array([-0.5, 0.0, 1.0])
        assert_allclose(fam(x), 0.15 * np.exp(-2.0 * x), rtol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["level", "slope"])
    def test_non_finite_rejected(self, field, bad):
        args = {"level": 0.15, "slope": -2.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            lx.CoeffFamily.exponential(**args)

    @given(
        level=st.floats(1e-3, 10.0),
        slope=st.floats(-3.0, 3.0),
        xbar=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_taylor_coeffs_match_derivatives(self, level, slope, xbar):
        """k-th Taylor coefficient of level*e^{slope x} is f(xbar)*slope^k/k!."""
        fam = lx.CoeffFamily.exponential(level, slope)
        coeffs = fam.taylor_coeffs(np.float64(xbar), 3)
        base = level * math.exp(slope * xbar)
        expect = [base * slope**k / math.factorial(k) for k in range(4)]
        assert_allclose(coeffs, expect, rtol=1e-12)


class TestJumpLaw:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["mean", "std"])
    def test_non_finite_rejected(self, field, bad):
        args = {"mean": -0.2, "std": 0.2, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            lx.JumpLaw(**args)

    @pytest.mark.parametrize(
        "mean, std, field", [(1e6, 0.0, "mean"), (710.0, 0.0, "mean"), (0.0, 1e3, "std"),
                             (0.0, 1e200, "std"), (-0.2, 38.0, "std")],
    )
    def test_non_finite_compensator_rejected(self, mean, std, field):
        # kappa = exp(mean + std^2/2) - 1 - mean overflows: name the dominant field.
        with pytest.raises(ValueError, match=f"{field} overflows kappa"):
            lx.JumpLaw(mean, std)

    def test_large_finite_compensator_accepted(self):
        assert math.isfinite(lx.jump_compensator_kappa(lx.JumpLaw(700.0, 0.0)))

    @pytest.mark.parametrize("mean, std", [(-1e300, 0.0), (-1e300, 0.2), (-1e300, 1e100)])
    def test_overflowing_jump_moments_rejected(self, mean, std):
        # kappa is finite (e^mean rounds to 0), but m^4 overflows a float in
        # the cumulants that centre the truncation interval.
        assert math.isfinite(math.exp(mean + 0.5 * std**2) - 1.0 - mean)
        with pytest.raises(ValueError, match="mean overflows the jump moments"):
            lx.JumpLaw(mean, std)

    def test_large_finite_jump_moments_accepted(self):
        mdl = dataclasses.replace(make_benchmark_model(0.05, 0.1), jump_law=lx.JumpLaw(-1e70, 0.2))
        cums = lx.cumulants(lx.taylor_expand(mdl, 0.0, 0.0, 0), 0.5)
        assert all(map(math.isfinite, cums))


class TestJumpCompensator:
    def test_kappa_closed_form_vs_quadrature(self):
        """kappa = E[e^Z - 1 - Z] for Z ~ N(m, delta^2), both ways."""
        law = lx.JumpLaw(-0.2, 0.2)
        kap = lx.jump_compensator_kappa(law)
        val, err = integrate.quad(
            lambda z: (math.exp(z) - 1.0 - z) * stats.norm.pdf(z, -0.2, 0.2),
            -3.0,
            3.0,
        )
        assert err < 1e-10
        assert_allclose(kap, val, atol=1e-10)

    def test_kappa_zero_mean_small_vol_limit(self):
        """kappa -> delta^2/2 as delta -> 0 with m = 0."""
        law = lx.JumpLaw(0.0, 1e-4)
        assert_allclose(lx.jump_compensator_kappa(law), 0.5e-8, rtol=1e-3)


class TestMartingaleDrift:
    def test_drift_restriction_constant_model(self):
        """mu = gamma + r - sigma^2/2 - a*kappa pointwise."""
        mdl = make_constant_model(0.3, 0.5, -0.1, 0.2, 0.07, 0.04)
        kap = lx.jump_compensator_kappa(mdl.jump_law)
        got = lx.martingale_drift(mdl, np.array([0.0, 1.0]))
        want = 0.04 + 0.07 - 0.5 * 0.09 - 0.5 * kap
        assert_allclose(got, want, rtol=1e-14)

    def test_drift_restriction_state_dependent(self):
        mdl = make_benchmark_model(rate_r=0.05, c_default=0.1)
        x = np.linspace(-1.0, 1.0, 9)
        kap = lx.jump_compensator_kappa(mdl.jump_law)
        want = (
            0.1 * np.exp(-2 * x)
            + 0.05
            - 0.5 * (0.15 * np.exp(-2 * x)) ** 2
            - 0.2 * np.exp(-2 * x) * kap
        )
        assert_allclose(lx.martingale_drift(mdl, x), want, rtol=1e-13)


class TestTaylorExpand:
    def test_constant_model_higher_rows_vanish(self):
        mdl = make_constant_model(0.3, 0.5, -0.1, 0.2, 0.07, 0.04)
        tay = lx.taylor_expand(mdl, 0.0, 0.3, 2)
        for name in ("s", "a", "gamma", "mu"):
            rows = getattr(tay, name)
            assert_allclose(rows[1:], 0.0, atol=0.0)

    def test_benchmark_rows_at_origin(self):
        """s expands sigma^2/2 = 0.01125 e^{-4x}; hand-checked rows."""
        mdl = make_benchmark_model(rate_r=0.1, c_default=0.0)
        tay = lx.taylor_expand(mdl, 0.0, 0.0, 2)
        assert_allclose(tay.s, [0.01125, -0.045, 0.09], rtol=1e-13)
        assert_allclose(tay.a, [0.2, -0.4, 0.4], rtol=1e-13)
        kap = lx.jump_compensator_kappa(mdl.jump_law)
        mu0 = 0.1 - 0.01125 - 0.2 * kap
        assert_allclose(tay.mu[0], mu0, rtol=1e-13)

    def test_reconstruction_within_remainder_bound(self):
        """Sum_k s_k (x-xbar)^k reproduces s(x) within the next-order term."""
        mdl = make_benchmark_model(rate_r=0.05, c_default=0.1)
        xbar = 0.2
        tay = lx.taylor_expand(mdl, 0.0, xbar, 2)
        for dx in (-0.05, 0.05):
            x = xbar + dx
            truth = 0.5 * (0.15 * math.exp(-2 * x)) ** 2
            approx = tay.s[0] + tay.s[1] * dx + tay.s[2] * dx**2
            s0 = tay.s[0]
            bound = abs(s0) * (4.0 * abs(dx)) ** 3 / 6.0 * math.exp(4 * abs(dx))
            assert abs(truth - approx) <= bound

    def test_vector_basepoint_shapes(self):
        mdl = make_benchmark_model(rate_r=0.05, c_default=0.1)
        xb = np.linspace(-1, 1, 5)
        tay = lx.taylor_expand(mdl, 0.0, xb, 2)
        assert tay.s.shape == (3, 5)
        assert tay.mu.shape == (3, 5)

    def test_negative_order_rejected(self):
        mdl = make_benchmark_model(rate_r=0.05, c_default=0.1)
        with pytest.raises(ValueError):
            lx.taylor_expand(mdl, 0.0, 0.0, -1)


class TestModelSpecValidation:
    def test_negative_vol_level_rejected(self):
        mdl = make_benchmark_model(0.05, 0.1)
        with pytest.raises(ValueError, match="vol must be nonnegative"):
            dataclasses.replace(mdl, vol=lx.CoeffFamily.exponential(-0.15, -2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["rate_r", "spot_x0"])
    def test_non_finite_rejected(self, field, bad):
        mdl = make_benchmark_model(0.05, 0.1)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            dataclasses.replace(mdl, **{field: bad})

    def test_vol_level_with_overflowing_half_variance_rejected(self):
        # taylor_expand expands s = sigma^2/2, which 1e200 overflows.
        mdl = make_benchmark_model(0.05, 0.1)
        with pytest.raises(ValueError, match="vol overflows sigma\\^2/2 at level 1e\\+200"):
            dataclasses.replace(mdl, vol=lx.CoeffFamily.exponential(1e200, -2.0))
        big = dataclasses.replace(mdl, vol=lx.CoeffFamily.exponential(1e150, -2.0))
        assert np.isfinite(lx.taylor_expand(big, 0.0, 0.0, 2).s).all()


class TestModelSpecHelpers:
    def test_with_without_default_roundtrip(self):
        mdl = make_benchmark_model(rate_r=0.05, c_default=0.0)
        fam = lx.CoeffFamily.exponential(0.1, -2.0)
        m_d = mdl.with_default(fam)
        assert m_d.default_intensity == fam
        m_r = m_d.without_default()
        assert m_r.default_intensity.is_zero
        assert m_r.vol == m_d.vol

    def test_exp_martingale_identity(self):
        """With gamma = 0, psi(-i) = r: e^{X_t - r t} is a martingale."""
        mdl = make_constant_model(0.25, 0.4, -0.15, 0.3, 0.06, 0.0)
        tay = lx.taylor_expand(mdl, 0.0, 0.0, 0)
        psi = lx.levy_symbol_psi(tay, np.array(-1.0j))
        assert_allclose(complex(psi), 0.06, atol=1e-14)

    @pytest.mark.parametrize(
        "gamma, n_exp",
        [
            (lx.CoeffFamily.exponential(0.1, -2.0), 1),
            (lx.CoeffFamily.zero(), 1),
            (lx.CoeffFamily.exponential(0.1, 0.5), 2),
            (lx.CoeffFamily.const(0.05), 1),
        ],
    )
    def test_coeff_values_share_one_exponential_per_slope(self, monkeypatch, gamma, n_exp):
        mdl = make_benchmark_model(0.05, 0.0).with_default(gamma)
        x = np.linspace(-1.0, 1.0, 9)
        want = (mdl.vol(x), mdl.jump_intensity(x), mdl.default_intensity(x))
        exp, calls = np.exp, []

        def counted(arg):
            calls.append(arg)
            return exp(arg)

        monkeypatch.setattr(np, "exp", counted)
        got = mdl.coeff_values(x)
        assert len(calls) == n_exp
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_coeff_values_without_hazard_leave_gamma_out(self):
        mdl = make_benchmark_model(0.05, 0.1)
        x = np.linspace(-1.0, 1.0, 9)
        sig, a, gamma = mdl.coeff_values(x, hazard=False)
        assert gamma is None
        assert np.array_equal(sig, mdl.vol(x)) and np.array_equal(a, mdl.jump_intensity(x))
