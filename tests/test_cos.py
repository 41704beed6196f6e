"""Tests for the Fourier-cosine expansion toolkit.

Oracles used here, in decreasing order of strength:

* lognormal closed forms (pure-diffusion expectations of put payoffs),
* a jump-diffusion series oracle (Poisson mixture of lognormals),
* adaptive quadrature of the defining projection integrals,
* exact orthogonality identities of the cosine basis.
"""

import math

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, stats

import levyxva as lx
from levyxva import bsde, charfunc, cos, model

from conftest import dense_m_product, make_constant_model


def put_expectation_lognormal(strike, mean, std):
    """E[(K - e^Y)^+] for Y ~ N(mean, std^2), written out directly."""
    d = (math.log(strike) - mean) / std
    return strike * stats.norm.cdf(d) - math.exp(
        mean + 0.5 * std**2
    ) * stats.norm.cdf(d - std)


def put_expectation_jumpdiff(strike, x, tau, sig, lam, m, delta, rate_r):
    """E[(K - e^{X_tau})^+ | X_0 = x] under compensated lognormal jumps.

    Conditioning on the Poisson jump count reduces each term to the
    lognormal closed form; the series is truncated far in the tail.
    """
    kappa = math.exp(m + 0.5 * delta**2) - 1.0 - m
    # The generator compensates jumps by their mean, so the effective
    # continuous drift is mu - lam * m.
    mu = rate_r - 0.5 * sig**2 - lam * kappa - lam * m
    total = 0.0
    for n in range(80):
        weight = stats.poisson.pmf(n, lam * tau)
        mean = x + mu * tau + n * m
        std = math.sqrt(sig**2 * tau + n * delta**2)
        total += weight * put_expectation_lognormal(strike, mean, std)
    return total


class TestCosGrid:
    def test_geometry(self):
        g = cos.CosGrid(-1.0, 3.0, 8)
        assert g.width == pytest.approx(4.0)
        assert g.dx == pytest.approx(0.5)
        assert_allclose(g.freqs, np.arange(8) * math.pi / 4.0)
        assert g.freqs is g.freqs and not g.freqs.flags.writeable
        assert_allclose(g.nodes, -1.0 + (np.arange(8) + 0.5) * 0.5)
        assert g.nodes is g.nodes and not g.nodes.flags.writeable

    def test_truncation_range_formula(self):
        lo, hi = cos.truncation_range(0.1, 0.04, 1e-4, L=10.0)
        half = 10.0 * math.sqrt(0.04 + math.sqrt(1e-4))
        assert lo == pytest.approx(0.1 - half)
        assert hi == pytest.approx(0.1 + half)

    def test_truncation_range_rejects_degenerate(self):
        with pytest.raises(ValueError):
            cos.truncation_range(0.0, 0.0, 0.0)

    @settings(max_examples=40, deadline=None)
    @given(
        c1=st.floats(-2.0, 2.0),
        c2=st.floats(1e-8, 4.0),
        c4=st.floats(0.0, 1.0),
        L=st.floats(1.0, 20.0),
    )
    def test_truncation_range_brackets_center(self, c1, c2, c4, L):
        lo, hi = cos.truncation_range(c1, c2, c4, L)
        assert lo < c1 < hi
        assert hi - lo == pytest.approx(2.0 * L * math.sqrt(c2 + math.sqrt(c4)))


class TestDctCoeffs:
    def test_constant_function(self):
        g = cos.CosGrid(-1.5, 2.0, 32)
        v = cos.dct_coeffs(np.full(32, 3.0), g)
        want = np.zeros(32)
        want[0] = 6.0
        assert_allclose(v, want, atol=1e-13)

    def test_pure_mode_is_recovered_exactly(self):
        # Midpoint DCT-II orthogonality: a single cosine mode maps to a
        # single unit coefficient, with no leakage.
        g = cos.CosGrid(0.0, 1.0, 16)
        vals = np.cos(3.0 * np.pi * (g.nodes - g.a) / g.width)
        v = cos.dct_coeffs(vals, g)
        want = np.zeros(16)
        want[3] = 1.0
        assert_allclose(v, want, atol=1e-13)

    def test_smooth_function_vs_projection_integral(self):
        g = cos.CosGrid(-1.0, 1.0, 512)
        v = cos.dct_coeffs(np.exp(g.nodes), g)
        for j in [0, 1, 2, 5, 11]:
            want, _ = integrate.quad(
                lambda x: np.exp(x) * np.cos(j * np.pi * (x - g.a) / g.width),
                g.a,
                g.b,
            )
            assert_allclose(v[j], 2.0 * want / g.width, atol=2e-6)

    def test_rejects_wrong_length(self):
        g = cos.CosGrid(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            cos.dct_coeffs(np.ones(7), g)

    @pytest.mark.parametrize("J", [31, 32, 100, 256, 300, 512])
    @pytest.mark.parametrize("rows", [None, 3], ids=["1d", "stacked"])
    def test_matches_the_library_dct(self, J, rows):
        vals = np.random.default_rng(J).normal(size=J if rows is None else (rows, J))
        want = scipy.fft.dct(vals, type=2, axis=-1) / J
        got = cos.dct_coeffs(vals, cos.CosGrid(-1.0, 2.0, J))
        assert got.shape == want.shape and got.flags.c_contiguous
        err = np.max(np.abs(got - want), axis=-1)
        assert np.all(err <= 1e-15 * np.max(np.abs(want), axis=-1))


def test_next_fast_len_matches_the_library():
    lengths = range(1, 4097)
    assert [cos._next_fast_len(n) for n in lengths] == [scipy.fft.next_fast_len(n) for n in lengths]


class TestPutPayoffCoeffs:
    def _quad_coeff(self, strike, g, j, upper=None):
        hi = g.b if upper is None else min(upper, g.b)
        val, _ = integrate.quad(
            lambda x: max(strike - math.exp(x), 0.0)
            * math.cos(j * math.pi * (x - g.a) / g.width),
            g.a,
            hi,
            points=[math.log(strike)] if g.a < math.log(strike) < hi else None,
            limit=200,
        )
        return 2.0 * val / g.width

    @pytest.mark.parametrize("strike", [0.8, 1.0, 1.3])
    def test_matches_quadrature(self, strike):
        g = cos.CosGrid(-1.8, 1.6, 64)
        v = cos.put_payoff_coeffs(strike, g)
        for j in [0, 1, 2, 5, 10, 33]:
            assert_allclose(
                v[j], self._quad_coeff(strike, g, j), atol=1e-12
            )

    def test_truncated_upper_limit(self):
        # Restricting the integral to [a, x*] is how exercise regions
        # enter; the closed form must track the moving upper limit.
        g = cos.CosGrid(-1.8, 1.6, 64)
        for upper in [-0.5, 0.0, math.log(1.1)]:
            v = cos.put_payoff_coeffs(1.1, g, upper=upper)
            for j in [0, 1, 7]:
                assert_allclose(
                    v[j],
                    self._quad_coeff(1.1, g, j, upper=upper),
                    atol=1e-12,
                )

    @pytest.mark.parametrize("a, b, J", [(-1.8, 1.6, 64), (-0.45, 0.3, 17), (-7.3, 5.9, 100)])
    def test_single_limit_integrals_equal_the_two_limit_formula(self, a, b, J):
        # The payoff integrals start at a, where sin(0) = 0 and cos(0) = 1
        # drop out exactly: every byte equals the two-limit formula with
        # lower limit a, written out here, over a sweep of caps in (a, b].
        g = cos.CosGrid(a, b, J)
        om, lo = g.freqs, g.a
        caps = np.concatenate((a + np.logspace(-12, 0, 7) * g.width, np.linspace(a, b, 40)[1:]))
        for upper in caps:
            for strike in (math.exp(upper), 1.5 * math.exp(b)):
                hi = min(math.log(strike), b, upper)
                cos_int = np.empty(J)
                cos_int[0] = hi - lo
                cos_int[1:] = (np.sin(om[1:] * (hi - a)) - np.sin(om[1:] * (lo - a))) / om[1:]
                th_hi, th_lo = om * (hi - a), om * (lo - a)
                num = (
                    np.cos(th_hi) * math.exp(hi)
                    - np.cos(th_lo) * math.exp(lo)
                    + om * np.sin(th_hi) * math.exp(hi)
                    - om * np.sin(th_lo) * math.exp(lo)
                )
                want = (2.0 / g.width) * (strike * cos_int - num / (1.0 + om**2))
                got = cos.put_payoff_coeffs(strike, g, upper=upper)
                assert got.tobytes() == want.tobytes()

    def test_strike_above_interval_means_full_support(self):
        # e^b < K: the option is in the money on the whole interval.
        g = cos.CosGrid(-2.0, 0.5, 32)
        v = cos.put_payoff_coeffs(2.0, g)
        for j in [0, 3]:
            assert_allclose(v[j], self._quad_coeff(2.0, g, j), atol=1e-12)


class TestCosExpectation:
    """Conditional expectations against lognormal closed forms."""

    @staticmethod
    def _expect(coeffs, cf, g, x):
        """E[h(X_T) | x] as point-kernel weights @ coefficients."""
        return cos.point_kernel(cf, g, x).psi @ coeffs

    def _setup(self, sig, lam, m, delta, rate_r, tau, J=256, L=10.0):
        mdl = make_constant_model(sig, lam, m, delta, rate_r, 0.0)
        tay = model.taylor_expand(mdl, 0.0, 0.0, 0)
        c1, c2, c4 = charfunc.cumulants(tay, tau)
        a, b = cos.truncation_range(c1, c2, c4, L)
        g = cos.CosGrid(a, b, J)
        cf = charfunc.build_order_n(tay, 0.0, tau, g.freqs, 0)
        return g, cf

    def test_diffusion_put_matches_closed_form(self):
        sig, rate_r, tau, strike = 0.25, 0.04, 0.8, 1.05
        g, cf = self._setup(sig, 0.0, 0.0, 0.0, rate_r, tau)
        coeffs = cos.put_payoff_coeffs(strike, g)
        for x in [-0.3, 0.0, 0.25]:
            (got,) = self._expect(coeffs, cf, g, x)
            want = put_expectation_lognormal(
                strike,
                x + (rate_r - 0.5 * sig**2) * tau,
                sig * math.sqrt(tau),
            )
            assert_allclose(got, want, rtol=1e-10)

    def test_jump_diffusion_put_matches_series(self):
        params = dict(sig=0.2, lam=0.4, m=-0.15, delta=0.25, rate_r=0.03)
        tau, strike = 0.6, 1.0
        g, cf = self._setup(tau=tau, **params)
        coeffs = cos.put_payoff_coeffs(strike, g)
        for x in [-0.2, 0.1]:
            (got,) = self._expect(coeffs, cf, g, x)
            want = put_expectation_jumpdiff(strike, x, tau, **params)
            assert_allclose(got, want, rtol=1e-9)

    def test_vector_evaluation_points(self):
        g, cf = self._setup(0.25, 0.0, 0.0, 0.0, 0.04, 0.8)
        coeffs = cos.put_payoff_coeffs(1.0, g)
        xs = np.array([-0.3, 0.0, 0.25])
        batch = self._expect(coeffs, cf, g, xs)
        singles = [self._expect(coeffs, cf, g, x)[0] for x in xs]
        assert batch.shape == (3,)
        assert_allclose(batch, singles, rtol=1e-14)

    def test_brownian_increment_weighting(self):
        # E[h(X_{t+dt}) dW | x] = dt sigma d/dx E[h(X_{t+dt}) | x] to
        # leading order; for the put that derivative is known in closed
        # form, so the weighted expectation has its own oracle.  The
        # weights are the point kernel's psi_dw, as in bsde.z_step.
        sig, rate_r, tau, strike = 0.25, 0.04, 0.5, 1.05
        g, cf = self._setup(sig, 0.0, 0.0, 0.0, rate_r, tau)
        hv = cos.put_payoff_coeffs(strike, g)
        dt = 1e-3
        for x in [-0.2, 0.1]:
            got = dt * sig * (cos.point_kernel(cf, g, [x]).psi_dw @ hv)
            d1 = (
                x
                - math.log(strike)
                + (rate_r + 0.5 * sig**2) * tau
            ) / (sig * math.sqrt(tau))
            deriv = -math.exp(x + rate_r * tau) * stats.norm.cdf(-d1)
            assert_allclose(got, dt * sig * deriv, rtol=1e-9)


class TestMonomialExpIntegrals:
    def _quad(self, g, x_lo, x_hi, h, xbar, p):
        re, _ = integrate.quad(
            lambda x: (x - xbar) ** h
            * math.cos(p * math.pi * (x - g.a) / g.width),
            x_lo,
            x_hi,
            limit=200,
        )
        im, _ = integrate.quad(
            lambda x: (x - xbar) ** h
            * math.sin(p * math.pi * (x - g.a) / g.width),
            x_lo,
            x_hi,
            limit=200,
        )
        return (re + 1j * im) / g.width

    @pytest.mark.parametrize("h", [0, 1, 2])
    def test_matches_quadrature(self, h):
        g = cos.CosGrid(-1.2, 1.5, 16)
        x_lo, x_hi, xbar = -0.4, 1.1, 0.2
        got = cos.monomial_exp_integrals(g, x_lo, x_hi, h, xbar, 2 * g.J)
        assert got.shape == (2 * g.J + 1,)
        for p in [0, 1, 2, 7, 16, 31]:
            assert_allclose(
                got[p], self._quad(g, x_lo, x_hi, h, xbar, p), atol=1e-13
            )

    def test_full_interval_closed_form(self):
        # h = 0 over [a, b]: (1/w) int e^{i p pi (x-a)/w} dx equals
        # (e^{i p pi} - 1) / (i p pi) -- zero for even p >= 2, 2i/(p pi)
        # for odd p, and 1 at p = 0.
        g = cos.CosGrid(-0.7, 0.9, 8)
        got = cos.monomial_exp_integrals(g, g.a, g.b, 0, 0.0, 2 * g.J)
        p = np.arange(1, 2 * g.J + 1)
        want = np.empty(2 * g.J + 1, dtype=complex)
        want[0] = 1.0
        want[1:] = (np.exp(1j * np.pi * p) - 1.0) / (1j * np.pi * p)
        assert_allclose(got, want, atol=1e-14)

    def test_shared_tables_match_inline_arithmetic(self):
        # A leg's pattern: every order at each exercise point, the upper
        # limit b at every date, a repeated point, and two grids with the
        # same J on different intervals.  Bit for bit against the powers
        # and exponentials written out inline.
        cos._integral_table.cache_clear()
        cos._wave.cache_clear()
        cos._anti.cache_clear()
        for g in (cos.CosGrid(-1.2, 1.5, 16), cos.CosGrid(-0.9, 2.1, 16)):
            for x_star in (-0.4, 0.3, -0.4):
                for h in (0, 1, 2):
                    got = cos.monomial_exp_integrals(g, x_star, g.b, h, 0.2, 2 * g.J - 2)
                    want = _inline_integrals(g, x_star, g.b, h, 0.2, 2 * g.J - 2)
                    assert got.tobytes() == want.tobytes()
        # One row per order at each of -0.4, 0.3 and b on each grid, and
        # one wave per point: the orders at a point share its wave.
        info = cos._anti.cache_info()
        assert (info.misses, info.hits) == (18, 18)
        info = cos._wave.cache_info()
        assert (info.misses, info.hits) == (6, 12)

    def test_products_match_with_the_sums_cold_and_warm(self):
        # The rows at b are read by every date: a product against a warm
        # table is the product against a cleared one, bit for bit.
        g = cos.CosGrid(-1.2, 1.5, 32)
        rng = np.random.default_rng(7)
        V = rng.standard_normal(g.J)
        lam = rng.standard_normal(g.J) + 1j * rng.standard_normal(g.J)
        cases = [(x_star, h) for x_star in (-0.4, 0.3, -0.4) for h in (0, 1, 2)]

        def products():
            return [cos.m_matrix_product(V, g, x, g.b, h, lam, 0.2).tobytes() for x, h in cases]

        cos._anti.cache_clear()
        cold = products()
        # One row per order at each of -0.4, 0.3 and b.
        assert cos._anti.cache_info().misses == 9
        assert products() == cold
        assert cos._anti.cache_info().misses == 9
        for h in (0, 1, 2):
            assert not cos._anti(g, g.b, h, 0.2, 2 * g.J - 2).flags.writeable

    def test_tables_are_shared_per_grid_and_read_only(self):
        g = cos.CosGrid(-1.0, 1.0, 8)
        iom, powers = cos._integral_table(g, 14)
        assert cos._integral_table(cos.CosGrid(-1.0, 1.0, 8), 14)[1] is powers
        assert cos._integral_table(cos.CosGrid(-1.0, 2.0, 8), 14)[1] is not powers
        assert powers.shape == (charfunc.MAX_ORDER + 1, 14)
        wave = cos._wave(g, 0.5, 14)
        assert cos._wave(g, 0.5, 14) is wave
        for table in (iom, powers, wave):
            assert not table.flags.writeable


def _inline_integrals(g, x_lo, x_hi, h, xbar, p_max):
    """``cos.monomial_exp_integrals`` with every power of i om_p and every
    exponential computed inline at each call."""
    om = np.arange(1, p_max + 1) * math.pi / g.width
    out = np.empty(p_max + 1, dtype=complex)
    out[0] = ((x_hi - xbar) ** (h + 1) - (x_lo - xbar) ** (h + 1)) / ((h + 1) * g.width)

    def anti(x):
        acc = np.zeros_like(om, dtype=complex)
        coef = 1.0
        for l in range(h + 1):
            if l > 0:
                coef *= -(h - l + 1)
            acc += coef * (x - xbar) ** (h - l) / (1j * om) ** (l + 1)
        return np.exp(1j * om * (x - g.a)) * acc

    out[1:] = (anti(x_hi) - anti(x_lo)) / g.width
    return out


class TestMMatrixProduct:
    """Restricted-interval re-projection against direct quadrature."""

    def _oracle(self, V, g, x_lo, x_hi, h, lam, xbar):
        lv = lam * V
        lv[0] *= 0.5  # primed sum

        def f(x):
            osc = np.real(np.sum(lv * np.exp(1j * g.freqs * (x - g.a))))
            return osc * (x - xbar) ** h

        out = np.empty(g.J)
        for k in range(g.J):
            val, _ = integrate.quad(
                lambda x: f(x) * math.cos(k * math.pi * (x - g.a) / g.width),
                x_lo,
                x_hi,
                limit=400,
            )
            out[k] = 2.0 * val / g.width
        return out

    @pytest.mark.parametrize("h", [0, 1, 2])
    def test_dense_matches_quadrature(self, h):
        rng = np.random.default_rng(7)
        g = cos.CosGrid(-1.2, 1.5, 8)
        V = rng.normal(size=g.J)
        lam = rng.normal(size=g.J) + 1j * rng.normal(size=g.J)
        got = dense_m_product(V, g, -0.4, 1.1, h, lam, 0.2)
        assert_allclose(got, self._oracle(V, g, -0.4, 1.1, h, lam, 0.2), atol=1e-12)

    # Transform lengths at exactly 2J - 1 (J = 8 pads to 15) and above it (75,
    # 200, 256), with limits inside, from a, and empty; the J = 128 inner
    # cases keep ids 0-2.
    @pytest.mark.parametrize(
        "J, h, limits",
        [pytest.param(128, h, "inner", id=str(h)) for h in range(3)]
        + [
            pytest.param(J, h, limits, id=f"J{J}-h{h}-{limits}")
            for J in (8, 37, 100, 128)
            for h in range(3)
            for limits in ("inner", "from-a", "empty")
            if (J, limits) != (128, "inner")
        ],
    )
    def test_fft_matches_dense(self, J, h, limits):
        rng = np.random.default_rng(11)
        g = cos.CosGrid(-2.0, 2.4, J)
        x_lo, x_hi = {"inner": (-1.1, 0.7), "from-a": (g.a, 0.3), "empty": (0.3, 0.3)}[limits]
        V = rng.normal(size=J)
        lam = np.exp(-0.05 * g.freqs**2) * np.exp(0.3j * g.freqs)
        args = (V, g, x_lo, x_hi, h, lam, -0.2)
        assert_allclose(cos.m_matrix_product(*args), dense_m_product(*args), atol=1e-10, rtol=0.0)

    @pytest.mark.parametrize("J", [8, 37, 100, 256])
    @pytest.mark.parametrize("h", range(3))
    def test_matches_the_library_transform_formula(self, J, h):
        # The same zero-padded rows through scipy's transforms.
        rng = np.random.default_rng(J + h)
        g = cos.CosGrid(-2.0, 2.4, J)
        V = rng.normal(size=J)
        lam = np.exp(-0.05 * g.freqs**2) * np.exp(0.3j * g.freqs)
        u = lam * V
        u[0] *= 0.5
        I = cos.monomial_exp_integrals(g, -1.1, 0.7, h, -0.2, 2 * J - 2)
        rows = np.zeros((4, scipy.fft.next_fast_len(2 * J - 1)), dtype=complex)
        rows[0, : 2 * J - 1] = I
        rows[1, :J] = I[J - 1 :: -1]
        rows[1, J : 2 * J - 1] = np.conj(I[1:J])
        rows[2, :J] = u[::-1]
        rows[3, :J] = u
        spec = scipy.fft.fft(rows, axis=-1)
        want = scipy.fft.ifft(spec[0] * spec[2] + spec[1] * spec[3])[J - 1 : 2 * J - 1].real
        got = cos.m_matrix_product(V, g, -1.1, 0.7, h, lam, -0.2)
        assert_allclose(got, want, rtol=1e-14, atol=1e-14 * np.max(np.abs(want)))

    def test_zero_weight_row_gives_exact_zeros_without_integrals(self, monkeypatch):
        g = cos.CosGrid(-1.0, 1.0, 8)
        calls = []
        monkeypatch.setattr(cos, "_integrals", lambda *a: calls.append(a))
        for h in (0, 1, 2):
            out = cos.m_matrix_product(np.ones(8), g, -0.5, 1.0, h, np.zeros(8, complex), 0.1)
            assert out.dtype == np.float64 and np.array_equal(out, np.zeros(8))
        assert calls == []

    @pytest.mark.parametrize(
        "x_lo, x_hi, h",
        [(-1.5, 0.5, 0), (-0.5, 1.5, 1), (0.5, -0.5, 2), (-0.5, 0.5, 3), (-0.5, 0.5, -1)],
        ids=["below-a", "above-b", "reversed", "order-3", "order-minus-1"],
    )
    @pytest.mark.parametrize("zero", [True, False], ids=["zero-row", "live-row"])
    def test_rejects_bad_limits_and_orders(self, x_lo, x_hi, h, zero):
        g = cos.CosGrid(-1.0, 1.0, 8)
        lam = np.zeros(8, complex) if zero else np.ones(8, complex)
        with pytest.raises(ValueError):
            cos.m_matrix_product(np.ones(8), g, x_lo, x_hi, h, lam, 0.0)

    def test_empty_interval_gives_zero(self):
        g = cos.CosGrid(-1.0, 1.0, 8)
        out = cos.m_matrix_product(
            np.ones(8), g, 0.3, 0.3, 0, np.ones(8, dtype=complex), 0.0
        )
        assert_allclose(out, 0.0, atol=1e-15)


class TestKernels:
    def _cf(self, tau, g):
        mdl = make_constant_model(0.2, 0.3, -0.1, 0.2, 0.05, 0.0)
        tay = model.taylor_expand(mdl, 0.0, 0.0, 0)
        return charfunc.build_order_n(tay, 0.0, tau, g.freqs, 0)

    def test_step_kernel_reproduces_expectation_at_nodes(self):
        # A node expansion of constant coefficients against the primed sum
        # Re sum'_j Gamma(x_i; xi_j) e^{-i xi_j a} H_j written out.
        g = cos.CosGrid(-2.0, 2.0, 32)
        mdl = make_constant_model(0.2, 0.3, -0.1, 0.2, 0.05, 0.0)
        tay = model.taylor_expand(mdl, 0.0, g.nodes, 0)
        kern = cos.step_kernel(charfunc.build_order_n(tay, 0.0, 0.25, g.freqs, 0), g)
        coeffs = cos.dct_coeffs(np.sin(g.nodes) + 0.3 * g.nodes**2, g)
        gam = self._cf(0.25, g).eval(g.nodes) * np.exp(-1j * g.freqs * g.a)
        primed = np.r_[0.5, np.ones(g.J - 1)]
        direct = np.real(gam) @ (primed * coeffs)
        via = kern.psi @ coeffs
        assert_allclose(via, direct, rtol=1e-12)

    def test_step_kernel_rejects_scalar_basepoint(self):
        g = cos.CosGrid(-2.0, 2.0, 32)
        with pytest.raises(ValueError):
            cos.step_kernel(self._cf(0.25, g), g)

    def test_step_kernel_checks_nodes_exactly(self):
        # Nodes shifted by 1e-9 pass np.allclose; the kernel must not treat
        # them as the grid's.  An equal grid's nodes are equal, not the same.
        g = cos.CosGrid(-2.0, 2.0, 32)
        mdl = make_constant_model(0.2, 0.3, -0.1, 0.2, 0.05, 0.0)
        for x in (g.nodes + 1e-9, g.nodes[:-1]):
            cf = charfunc.build_order_n(model.taylor_expand(mdl, 0.0, x, 0), 0.0, 0.25, g.freqs, 0)
            with pytest.raises(ValueError, match="expansion at the grid nodes"):
                cos.step_kernel(cf, g)
        same = cos.CosGrid(-2.0, 2.0, 32)
        tay = model.taylor_expand(mdl, 0.0, same.nodes, 0)
        kern = cos.step_kernel(charfunc.build_order_n(tay, 0.0, 0.25, g.freqs, 0), g)
        tay = model.taylor_expand(mdl, 0.0, g.nodes, 0)
        assert tay.basepoint is g.nodes
        want = cos.step_kernel(charfunc.build_order_n(tay, 0.0, 0.25, g.freqs, 0), g)
        assert np.array_equal(kern.psi, want.psi)

    def test_node_expansion_kernel_matches_direct_phase(self, model_put):
        """psi = Re(w g0 e^{i xi (x - a)}) and psi_dw = Re(i xi w g0 e^{i xi (x - a)})
        with the phase evaluated by exp and w the primed-sum weight, at the
        benchmark size."""
        g = bsde.make_cos_grid(model_put, 1.0, 256)
        tay = model.taylor_expand(model_put, 0.0, g.nodes, 2)
        cf = charfunc.build_order_n(tay, 0.0, 0.1, g.freqs, 2)
        kern = cos.step_kernel(cf, g)
        w = cf.g[0] * np.exp(1j * np.multiply.outer(g.nodes - g.a, g.freqs))
        w[:, 0] *= 0.5  # primed sum
        assert_allclose(kern.psi, w.real, rtol=0.0, atol=1e-12 * np.abs(kern.psi).max())
        dw = np.real(1j * g.freqs * w)
        assert_allclose(kern.psi_dw, dw, rtol=0.0, atol=1e-12 * np.abs(kern.psi_dw).max())

    def test_node_kernel_arrays_are_contiguous_float64(self, model_put):
        g = bsde.make_cos_grid(model_put, 1.0, 64)
        tay = model.taylor_expand(model_put, 0.0, g.nodes, 2)
        kern = cos.step_kernel(charfunc.build_order_n(tay, 0.0, 0.1, g.freqs, 2), g)
        for arr in (kern.psi, kern.psi_dw):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous

    def test_phase_table_is_shared_and_read_only(self):
        table = cos._node_phase(48)
        assert cos._node_phase(48) is table
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        g = cos.CosGrid(-2.0, 2.0, 48)
        phase = cos._phase(g)
        assert cos._phase(cos.CosGrid(-2.0, 2.0, 48)) is phase
        with pytest.raises(ValueError):
            phase[0] = 0.0
