"""Tests for the approximate characteristic-function builder.

The expansion is exact when every model coefficient is constant in the
state (the frozen-coefficient limit), so a closed-form jump-diffusion
characteristic function written out independently here serves as the
primary oracle.  State-dependent behaviour is checked against a seeded
Monte Carlo estimate of the true conditional characteristic function:
the order-0/1/2 approximations must improve in that order.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import levyxva as lx
from levyxva import bsde, charfunc, mc, model

from conftest import make_benchmark_model, make_constant_model, replace_spot


def exact_const_cf(sig, lam, m, delta, rate_r, gamma0, tau, xi):
    """Closed-form E[e^{i xi X_tau}] factor for constant coefficients.

    Written out from scratch (drift restriction included) so that it is
    independent of the implementation under test.
    """
    xi = np.asarray(xi, dtype=complex)
    kappa = math.exp(m + 0.5 * delta**2) - 1.0 - m
    mu = gamma0 + rate_r - 0.5 * sig**2 - lam * kappa
    nuhat = np.exp(1j * m * xi - 0.5 * delta**2 * xi**2)
    psi = (
        1j * xi * mu
        - 0.5 * sig**2 * xi**2
        - gamma0
        + lam * (nuhat - 1.0 - 1j * m * xi)
    )
    return np.exp(tau * psi)


class TestFrozenCoefficientLimit:
    """Constant coefficients: every order reproduces the exact factor."""

    params = dict(sig=0.2, lam=0.3, m=-0.1, delta=0.15, rate_r=0.05)

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("gamma0", [0.0, 0.07])
    def test_matches_closed_form(self, order, gamma0):
        mdl = make_constant_model(gamma0=gamma0, **self.params)
        tay = model.taylor_expand(mdl, 0.0, 0.0, order)
        tau = 0.75
        xi = np.linspace(0.0, 40.0, 101)
        cf = charfunc.build_order_n(tay, 0.0, tau, xi, order)
        want = exact_const_cf(gamma0=gamma0, tau=tau, xi=xi, **self.params)
        assert_allclose(cf.g[0], want, atol=1e-12, rtol=0.0)
        # The state-correction rows vanish identically: the factor cannot
        # depend on the evaluation point when nothing varies with x.
        for k in range(1, order + 1):
            assert_allclose(cf.g[k], 0.0, atol=1e-14)
        # eval(x) is the full conditional factor, translation included.
        assert_allclose(
            cf.eval(1.3), want * np.exp(1.3j * xi), atol=1e-12, rtol=0.0
        )

    def test_order0_and_ordern_agree(self):
        mdl = make_constant_model(gamma0=0.0, **self.params)
        tay = model.taylor_expand(mdl, 0.0, 0.0, 2)
        xi = np.linspace(0.0, 25.0, 50)
        lo = charfunc.build_order_n(tay, 0.0, 0.5, xi, 0)
        hi = charfunc.build_order_n(tay, 0.0, 0.5, xi, 2)
        assert lo.order == 0 and hi.order == 2
        assert_allclose(hi.g[0], lo.g[0], atol=1e-15)

    def test_metadata_carried(self):
        mdl = make_constant_model(gamma0=0.0, **self.params)
        tay = model.taylor_expand(mdl, 0.2, 0.4, 1)
        xi = np.array([0.0, 2.0])
        cf = charfunc.build_order_n(tay, 0.2, 1.0, xi, 1)
        assert cf.order == 1
        assert cf.basepoint == pytest.approx(0.4)
        assert_allclose(cf.freqs, xi)


class TestSymbolProperties:
    """Structural identities of the frozen symbol and its exponential."""

    @settings(max_examples=60, deadline=None)
    @given(
        sig=st.floats(0.05, 0.6),
        lam=st.floats(0.0, 1.0),
        m=st.floats(-0.5, 0.3),
        delta=st.floats(0.01, 0.5),
        gamma0=st.floats(0.0, 0.3),
        tau=st.floats(0.05, 2.0),
    )
    def test_hermitian_symmetry_and_modulus_bound(
        self, sig, lam, m, delta, gamma0, tau
    ):
        mdl = make_constant_model(sig, lam, m, delta, 0.04, gamma0)
        tay = model.taylor_expand(mdl, 0.0, 0.0, 0)
        xi = np.linspace(0.25, 30.0, 17)
        pos = charfunc.build_order_n(tay, 0.0, tau, xi, 0).g[0]
        neg = charfunc.build_order_n(tay, 0.0, tau, -xi, 0).g[0]
        # Real-valued increments force a Hermitian factor ...
        assert_allclose(neg, np.conj(pos), rtol=0.0, atol=1e-12)
        # ... whose modulus is capped by pure killing at rate gamma0.
        assert np.all(np.abs(pos) <= math.exp(-tau * gamma0) + 1e-12)

    def test_martingale_value_at_minus_i(self, model_linear):
        # gamma == 0: the symbol at xi = -i must equal the short rate, so
        # that e^{-r tau} E[e^{X_tau}] = e^{x}.
        tay = model.taylor_expand(model_linear, 0.0, 0.4, 0)
        val = charfunc.levy_symbol_psi(tay, np.array(-1.0j))
        assert_allclose(complex(val), 0.1 + 0.0j, atol=1e-14)


class TestCumulants:
    """Truncation cumulants against finite differences of the symbol."""

    def _fd_cumulants(self, tay, tau):
        # Small step for the low derivatives; a wider one for the 4th,
        # where h**4 in the denominator would otherwise amplify rounding
        # noise past the size of the cumulant itself.
        h = 1e-3
        vals = tau * charfunc.levy_symbol_psi(tay, np.arange(-1, 2) * h)
        d1 = (vals[2] - vals[0]) / (2 * h)
        d2 = (vals[2] - 2 * vals[1] + vals[0]) / h**2
        h = 2e-2
        vals = tau * charfunc.levy_symbol_psi(tay, np.arange(-3, 4) * h)
        d4 = (
            -vals[0] / 6
            + 2 * vals[1]
            - 6.5 * vals[2]
            + 28 / 3 * vals[3]
            - 6.5 * vals[4]
            + 2 * vals[5]
            - vals[6] / 6
        ) / h**4
        # cumulant_n = i^{-n} d^n/dxi^n of the exponent at xi = 0.
        return (d1 / 1j).real, (d2 / 1j**2).real, (d4 / 1j**4).real

    @pytest.mark.parametrize("tau", [0.25, 1.0])
    def test_matches_derivatives(self, model_put, tau):
        tay = model.taylor_expand(model_put, 0.0, 0.0, 2)
        c1, c2, c4 = charfunc.cumulants(tay, tau)
        f1, f2, f4 = self._fd_cumulants(tay, tau)
        assert_allclose(c1, f1, rtol=1e-6)
        assert_allclose(c2, f2, rtol=1e-6)
        assert_allclose(c4, f4, rtol=1e-3)
        assert c2 > 0.0 and c4 > 0.0

    def test_linear_in_horizon(self, model_put):
        tay = model.taylor_expand(model_put, 0.0, 0.0, 0)
        one = np.array(charfunc.cumulants(tay, 0.5))
        two = np.array(charfunc.cumulants(tay, 1.0))
        assert_allclose(two, 2.0 * one, rtol=1e-13)


class TestMassAtZeroFrequency:
    """xi = 0 carries total mass: 1 without killing, e^{-tau gamma} with."""

    def test_no_default_rows(self, model_linear):
        tay = model.taylor_expand(model_linear, 0.0, 0.4, 2)
        xi = np.array([0.0, 1.0])
        cf = charfunc.build_order_n(tay, 0.0, 0.8, xi, 2)
        assert_allclose(cf.g[0][0], 1.0, atol=1e-14)
        assert_allclose(cf.g[1][0], 0.0, atol=1e-14)
        assert_allclose(cf.g[2][0], 0.0, atol=1e-14)

    def test_killed_leading_row(self, model_put):
        tay = model.taylor_expand(model_put, 0.0, 0.0, 0)
        tau = 0.6
        cf = charfunc.build_order_n(tay, 0.0, tau, np.array([0.0]), 0)
        # gamma(0) = 0.1 for the defaultable benchmark model.
        assert_allclose(cf.g[0][0], math.exp(-tau * 0.1), rtol=1e-14)


class TestTrustRegion:
    """Out-of-regime correction factors fall back to the order-0 value."""

    def _texas_grid(self, model_linear):
        tay = model.taylor_expand(model_linear, 0.0, 0.4, 2)
        xi = np.linspace(0.0, 120.0, 241)
        return tay, xi

    def test_span_reverts_everything(self, model_linear):
        tay, xi = self._texas_grid(model_linear)
        base = charfunc.build_order_n(tay, 0.0, 0.5, xi, 0)
        capped = charfunc.build_order_n(tay, 0.0, 0.5, xi, 2, span=1e9)
        assert_allclose(capped.g[0], base.g[0], atol=0.0, rtol=0.0)
        assert_allclose(capped.g[1], 0.0, atol=0.0)
        assert_allclose(capped.g[2], 0.0, atol=0.0)

    def test_default_span_keeps_low_frequency_corrections(self, model_linear):
        tay, xi = self._texas_grid(model_linear)
        cf = charfunc.build_order_n(tay, 0.0, 0.5, xi, 2)
        low = xi <= 5.0
        assert np.any(np.abs(cf.g[1][low]) > 1e-3)
        assert np.any(np.abs(cf.g[2][low]) > 1e-4)

    def test_high_frequency_tail_is_order0(self, model_linear):
        # At tau = 2 the quadratic-in-tau correction factors leave the
        # trust region well before the top of this frequency grid.
        tay, xi = self._texas_grid(model_linear)
        base = charfunc.build_order_n(tay, 0.0, 2.0, xi, 0)
        cf = charfunc.build_order_n(tay, 0.0, 2.0, xi, 2)
        tail = xi >= 100.0
        assert np.all(cf.g[1][tail] == 0.0)
        assert np.all(cf.g[2][tail] == 0.0)
        assert_allclose(cf.g[0][tail], base.g[0][tail], rtol=0.0, atol=0.0)


def written_out_coefficients(taylor, tau, xi, order, span):
    """g_{n,k} straight from the build_order_n docstring, one broadcast
    expression per symbol and derivative, trust region included: the
    reference for the blocked rank-4 build."""
    m, d = taylor.jump_mean, taylor.jump_std
    nu = np.exp(1j * m * xi - 0.5 * d**2 * xi**2)
    slope = 1j * m - d**2 * xi
    dnu, d2nu = slope * nu, (slope**2 - d**2) * nu

    def row(name, h):
        return getattr(taylor, name)[h][:, None]

    def psi(h):
        return (1j * xi * row("mu", h) - row("s", h) * xi**2 - row("gamma", h)
                + row("a", h) * (nu - 1.0 - 1j * m * xi))

    def dpsi(h):
        return 1j * row("mu", h) - 2.0 * row("s", h) * xi + row("a", h) * (dnu - 1j * m)

    p0, dp0, p1 = psi(0), dpsi(0), psi(1)
    if order == 1:
        f = [1.0 - 0.5j * tau**2 * p1 * dp0, tau * p1]
    else:
        d2p0 = -2.0 * row("s", 0) + row("a", 0) * d2nu
        dp1, p2 = dpsi(1), psi(2)
        f = [
            1.0 - 0.5j * tau**2 * p1 * dp0 - tau**4 / 8.0 * dp0**2 * p1**2
            - tau**3 / 6.0 * dp0 * p1 * dp1 - tau**3 / 6.0 * p1**2 * d2p0
            - tau**3 / 3.0 * p2 * dp0**2 - 0.5 * tau**2 * p2 * d2p0,
            tau * p1 - 0.5j * tau**3 * dp0 * p1**2 - 0.5j * tau**2 * p1 * dp1
            - 1j * tau**2 * p2 * dp0,
            0.5 * tau**2 * p1**2 + tau * p2,
        ]
    bad = np.abs(f[0] - 1.0) > 0.5
    if span > 0.0:
        for h in range(1, order + 1):
            bad |= span**h * np.abs(f[h]) > 0.05
    base = np.exp(tau * p0)
    return [np.where(bad, float(h == 0), fh) * base for h, fh in enumerate(f)]


class TestBlockedBuild:
    """A vector-basepoint build runs over blocks of node rows with rank-4
    symbols and keeps only g[0], the row an expansion reads at its own
    basepoint.  That row must reproduce the written-out formula, and each
    of its rows must equal g[0] of the scalar-basepoint build at that node,
    trust-region fallbacks included: at span 0 an entry falls back when
    |g_{n,0}/E - 1| > 0.5, so a mismatched mask moves it by more than a
    third.  Both run at tau = 0.1 and at the XVA benchmark's step 0.01,
    where about a third of the node-kernel entries fall back.  At J = 300
    the last block is partial (54-row blocks); the left-tail rows of the
    benchmark model fall back at every J."""

    @pytest.mark.parametrize("span", [0.0, 0.7])
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_written_out_coefficients(self, model_put, order, span):
        self._check_written_out(model_put, order, span, 0.1)

    @pytest.mark.parametrize("span", [0.0, 0.7])
    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_written_out_coefficients_at_xva_step(self, model_put, order, span):
        self._check_written_out(model_put, order, span, 0.01)

    def _check_written_out(self, model_put, order, span, tau):
        grid = bsde.make_cos_grid(model_put, 1.0, 256)
        tay = model.taylor_expand(model_put, 0.0, grid.nodes, order)
        want = written_out_coefficients(tay, tau, grid.freqs, order, span)
        if span == 0.0:
            cf = charfunc.build_order_n(tay, 0.0, tau, grid.freqs, order)
            assert len(cf.g) == 1
            assert_allclose(cf.g[0], want[0], rtol=1e-12, atol=0.0)
        else:
            # Only a scalar basepoint takes a span, and it keeps every row.
            for i, x in enumerate(grid.nodes):
                one = charfunc.build_order_n(
                    model.taylor_expand(model_put, 0.0, x, order), 0.0, tau, grid.freqs, order,
                    span=span,
                )
                for got, ref in zip(one.g, want):
                    assert_allclose(got, ref[i], rtol=1e-12, atol=0.0)

    # A vector basepoint takes span 0 only (see test_vector_build_rejects_span).
    @pytest.mark.parametrize("span", [0.0])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("J", [33, 100, 256, 300])
    def test_rows_equal_scalar_builds(self, model_put, J, order, span):
        self._check_rows(model_put, J, order, span, 0.1)

    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("J", [33, 100, 256, 300])
    def test_rows_equal_scalar_builds_at_xva_step(self, model_put, J, order):
        self._check_rows(model_put, J, order, 0.0, 0.01)

    def _check_rows(self, model_put, J, order, span, tau):
        grid = bsde.make_cos_grid(model_put, 1.0, J)
        tay = model.taylor_expand(model_put, 0.0, grid.nodes, order)
        cf = charfunc.build_order_n(tay, 0.0, tau, grid.freqs, order, span=span)
        assert len(cf.g) == 1 and cf.order == order
        fallback = np.empty((J, J), dtype=bool)
        for i, x in enumerate(grid.nodes):
            one = charfunc.build_order_n(
                model.taylor_expand(model_put, 0.0, x, order), 0.0, tau, grid.freqs, order, span=span
            )
            # Only a live entry (g[0] != 0) shows the mask: where e^{tau psi0}
            # underflows, g[1] is zero whatever the mask does.
            fallback[i] = (one.g[1] == 0.0) & (one.g[0] != 0.0)
            assert_allclose(cf.g[0][i], one.g[0], rtol=1e-14, atol=0.0)
        assert fallback.any() and not fallback.all()

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_vector_build_rejects_span(self, model_put, order):
        grid = bsde.make_cos_grid(model_put, 1.0, 33)
        tay = model.taylor_expand(model_put, 0.0, grid.nodes, order)
        with pytest.raises(ValueError, match="scalar basepoints"):
            charfunc.build_order_n(tay, 0.0, 0.1, grid.freqs, order, span=0.7)


class TestFallbackEntries:
    """A trust-region fallback entry of g[0] is exp(tau * levy_symbol_psi)
    bit for bit: the benchmark's ``charfunc.fallback_frac`` counts fallbacks
    by that equality.  With constant coefficients every correction
    vanishes, so every entry must match; on the benchmark model the
    left-tail nodes fall back at the benchmark's step."""

    @pytest.mark.parametrize("node", [True, False])
    def test_constant_coefficients_match_everywhere(self, node):
        mdl = make_constant_model(0.2, 0.3, -0.1, 0.2, 0.05, 0.02)
        grid = bsde.make_cos_grid(mdl, 1.0, 32)
        tay = model.taylor_expand(mdl, 0.0, grid.nodes if node else 0.0, 2)
        cf = charfunc.build_order_n(tay, 0.0, 0.1, grid.freqs, 2)
        order0 = np.exp(0.1 * charfunc.levy_symbol_psi(tay, grid.freqs))
        assert np.array_equal(cf.g[0], order0)
        for gk in cf.g[1:]:
            assert not gk.any()

    def test_benchmark_model_falls_back_somewhere(self, model_put):
        grid = bsde.make_cos_grid(model_put, 1.0, 256)
        tay = model.taylor_expand(model_put, 0.0, grid.nodes, 2)
        cf = charfunc.build_order_n(tay, 0.0, 0.01, grid.freqs, 2)
        same = cf.g[0] == np.exp(0.01 * charfunc.levy_symbol_psi(tay, grid.freqs))
        assert same.any() and not same.all()


class TestEvalDerivatives:
    """eval(x, d) stacks Gamma_n and its x-derivatives up to order d.

    The derivative rows are checked against central differences of
    eval(x), at the basepoint and off it; span 0.2 keeps 9 of the 25
    correction entries and reverts the rest, so both kinds of entry are
    differentiated.
    """

    xi = np.linspace(0.0, 6.0, 25)

    def _cf(self, model_put, order, span):
        tay = model.taylor_expand(model_put, 0.0, 0.0, order)
        return charfunc.build_order_n(tay, 0.0, 0.5, self.xi, order, span=span)

    @pytest.mark.parametrize("x", [0.0, 0.3, -0.25])
    @pytest.mark.parametrize("span", [0.0, 0.2])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_match_central_differences(self, model_put, order, span, x):
        cf = self._cf(model_put, order, span)
        got = cf.eval(x, 2)
        assert got.shape == (3, self.xi.size)
        h1, h2 = 1e-5, 1e-4
        d1 = (cf.eval(x + h1) - cf.eval(x - h1)) / (2.0 * h1)
        d2 = (cf.eval(x + h2) - 2.0 * cf.eval(x) + cf.eval(x - h2)) / h2**2
        assert_allclose(got[1], d1, rtol=0.0, atol=1e-8 * np.abs(d1).max())
        assert_allclose(got[2], d2, rtol=0.0, atol=1e-6 * np.abs(d2).max())
        assert np.array_equal(cf.eval(x, 1), got[:2])

    @pytest.mark.parametrize("span", [0.0, 0.2])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_value_row_is_the_written_out_formula(self, model_put, order, span):
        cf = self._cf(model_put, order, span)
        x = np.array([-0.4, 0.0, 0.15, 0.3])
        # Gamma_n = e^{i xi x} sum_k (x - xbar)^k g_{n,k}, summed in k order.
        dx = (x - cf.basepoint)[..., None]
        acc = cf.g[0] * np.ones_like(dx, dtype=complex)
        for k in range(1, order + 1):
            acc = acc + dx**k * cf.g[k]
        want = (np.exp(1j * cf.freqs * x[..., None]) * acc).reshape(x.shape + cf.freqs.shape)
        assert np.array_equal(cf.eval(x), want)
        assert np.array_equal(cf.eval(x, 2)[0], want)
        assert np.array_equal(cf.eval(x[1]), want[1])

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_fully_rejected_expansion_is_the_order0_formula(self, model_put, d):
        # A span this wide rejects every correction, so g[1] and g[2] are
        # zero and eval skips them: Gamma = e^{i xi x} g0 and each
        # x-derivative multiplies by i xi.
        tay = model.taylor_expand(model_put, 0.0, 0.0, 2)
        cf = charfunc.build_order_n(tay, 0.0, 0.5, self.xi, 2, span=1e9)
        assert not cf.g[1].any() and not cf.g[2].any()
        x = np.array([-0.4, 0.0, 0.15, 0.3])
        wave = np.exp(1j * cf.freqs * x[:, None])
        acc = cf.g[0] * np.ones((x.size, 1), dtype=complex)
        first = 1j * cf.freqs * acc
        rows = [wave * acc, wave * first, wave * (1j * cf.freqs * first)]
        want = rows[0] if d == 0 else np.stack(rows[: d + 1])
        assert np.array_equal(cf.eval(x, d), want)

    @pytest.mark.parametrize("d", [-1, 3, 0.5])
    def test_rejects_unsupported_derivative_order(self, model_put, d):
        with pytest.raises(ValueError, match="order 0, 1 or 2"):
            self._cf(model_put, 2, 0.0).eval(0.0, d)

    def test_rejects_vector_basepoint(self, model_put):
        tay = model.taylor_expand(model_put, 0.0, np.array([0.0, 0.1]), 2)
        cf = charfunc.build_order_n(tay, 0.0, 0.5, self.xi, 2)
        with pytest.raises(ValueError, match="scalar-basepoint"):
            cf.eval(0.0)
        with pytest.raises(ValueError, match="scalar-basepoint"):
            cf.fold(np.ones(self.xi.shape, complex))


@pytest.fixture(scope="module")
def mc_estimate():
    # Only the terminal column is read, so simulate's stream (seed 1234) runs
    # on a two-row store; the estimate is that of the full batch bit for bit.
    mdl = replace_spot(make_benchmark_model(0.1, 0.0), 0.3)
    tracemalloc.start()
    try:
        rng = np.random.default_rng(np.random.SeedSequence(1234).spawn(1)[0])
        [batch] = mc._paths(
            [mdl], 0.5, 300, 300_000, 1234, rng, mc._poisson_counts, terminal_only=True
        )
        xi = np.linspace(0.5, 8.0, 12)
        est, _ = mc.estimate_charfunc(batch, xi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return mdl, xi, est, peak


class TestStateCorrectionsImprove:
    """Seeded Monte Carlo oracle for the conditional factor.

    Simulating the state-dependent dynamics from a spot displaced from
    the expansion basepoint gives an unbiased estimate (up to the Euler
    step) of the true conditional characteristic function.  Successive
    expansion orders must move the approximation toward it.
    """

    def test_error_drops_with_order(self, mc_estimate):
        mdl, xi, est, _ = mc_estimate
        errs = []
        for order in range(3):
            tay = model.taylor_expand(mdl, 0.0, 0.0, order)
            cf = charfunc.build_order_n(tay, 0.0, 0.5, xi, order)
            errs.append(np.max(np.abs(cf.eval(0.3) - est)))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.4 * errs[0]

    def test_oracle_keeps_two_rows_of_paths(self, mc_estimate):
        # A full (301, 3e5) store takes 722 MB per array.
        assert mc_estimate[3] < 200e6


class TestWorkspaceSetup:
    @pytest.mark.parametrize("x", [0.0, np.linspace(-1.0, 1.0, 5)])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_rows_of_all_orders_stacked_at_once(self, model_put, x, order):
        # One stack for every order: each row block is the order's own
        # stack, one row per basepoint, C-contiguous for the symbol products.
        tay = model.taylor_expand(model_put, 0.0, x, 2)
        work = charfunc.NodeWorkspace(tay, np.linspace(0.0, 3.0, 8), 0.5, order)
        assert len(work.rows) == order + 1
        for h, got in enumerate(work.rows):
            want = np.stack((tay.mu[h], tay.s[h], tay.gamma[h], tay.a[h]), axis=-1)
            assert got.flags.c_contiguous
            assert got.tobytes() == want.reshape(-1, 4).tobytes()


class TestValidation:
    def test_rejects_unsupported_order(self, model_linear):
        tay = model.taylor_expand(model_linear, 0.0, 0.0, 2)
        with pytest.raises(ValueError):
            charfunc.build_order_n(tay, 0.0, 0.5, np.array([1.0]), 3)

    def test_rejects_workspace_of_another_shape(self, model_put):
        # A workspace belongs to one expansion: its TaylorData and freqs (by
        # identity), tau and order.
        xi = np.linspace(0.0, 3.0, 8)
        tay = model.taylor_expand(model_put, 0.0, np.linspace(-1.0, 1.0, 8), 2)
        work = charfunc.NodeWorkspace(tay, xi, 0.5, 2)
        assert charfunc.build_order_n(tay, 0.0, 0.5, xi, 2, out=work).work is work
        for x in (0.0, np.linspace(-1.0, 1.0, 9), np.linspace(-1.0, 1.0, 8)):
            other = model.taylor_expand(model_put, 0.0, x, 2)
            with pytest.raises(ValueError, match="made for another expansion"):
                charfunc.build_order_n(other, 0.0, 0.5, xi, 2, out=work)
        for freqs, order, T in ((xi.copy(), 2, 0.5), (xi, 1, 0.5), (xi, 2, 0.25)):
            with pytest.raises(ValueError, match="made for another expansion"):
                charfunc.build_order_n(tay, 0.0, T, freqs, order, out=work)

    def test_rejects_underresolved_taylor_rows(self, model_linear):
        tay = model.taylor_expand(model_linear, 0.0, 0.0, 0)
        with pytest.raises(ValueError):
            charfunc.build_order_n(tay, 0.0, 0.5, np.array([1.0]), 2)
