"""Tests for the fast credit-valuation-adjustment path.

The strongest oracle is the constant-intensity European case, where
killing at rate gamma plus the compensating drift reduce the defaultable
price to a lognormal closed form evaluated at the bumped rate r + gamma.
Cross-path agreement with the backward-scheme pricer covers the
state-dependent Bermudan case, and exact structural identities (zero
intensity, leg sharing, monotonicity in the intensity level) pin the
adjustment itself.
"""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

import levyxva as lx
from levyxva import bermudan, bsde, charfunc, cos, cva
from levyxva.errors import NumericalError

from conftest import dense_m_product, make_benchmark_model, make_constant_model, replace_spot

from test_cos import _inline_integrals, put_expectation_jumpdiff, put_expectation_lognormal


def _put(strike=1.05):
    return bermudan.PayoffSpec(kind="put", strike=strike)


def _discounting_driver(r):
    return bsde.DriverSpec(mode="simplified", rate_r=r)


class TestNewtonExercisePoint:
    """c_fn and phi_fn return (value, slope) at x."""

    def test_linear_crossing(self):
        got = cva.newton_exercise_point(lambda x: (x, 1.0), lambda x: (0.5, 0.0), (0.0, 1.0))
        assert_allclose(got, 0.5, atol=1e-10)

    def test_smooth_crossing(self):
        got = cva.newton_exercise_point(
            lambda x: (math.exp(x), math.exp(x)), lambda x: (2.0, 0.0), (0.0, 2.0)
        )
        assert_allclose(got, math.log(2.0), atol=1e-10)

    def test_kinked_payoff_crossing(self):
        def payoff(x):
            ex = math.exp(x)
            return max(1.0 - ex, 0.0), (-ex if ex < 1.0 else 0.0)

        got = cva.newton_exercise_point(
            lambda x: (0.3, 0.0), payoff, (-1.0, 0.5), x0=-0.9
        )
        assert_allclose(got, math.log(0.7), atol=1e-10)

    def test_zero_slope_start_falls_back_to_bisection(self):
        # f = x^3 - 1e-3 has f'(0) = 0: the Newton step is undefined there,
        # so the first move is a bisection of the live bracket.
        got = cva.newton_exercise_point(
            lambda x: (x**3, 3.0 * x**2), lambda x: (1e-3, 0.0), (-1.0, 1.0), x0=0.0
        )
        assert_allclose(got, 0.1, atol=1e-10)

    def test_continuation_dominating_means_never_exercise(self):
        got = cva.newton_exercise_point(
            lambda x: (x + 2.0, 1.0), lambda x: (x, 1.0), (-1.0, 1.0)
        )
        assert got == -1.0

    def test_payoff_dominating_means_always_exercise(self):
        got = cva.newton_exercise_point(
            lambda x: (x - 2.0, 1.0), lambda x: (x, 1.0), (-1.0, 1.0)
        )
        assert got == 1.0

    def test_degenerate_bracket(self):
        assert cva.newton_exercise_point(
            lambda x: (x, 1.0), lambda x: (x, 1.0), (1.0, 1.0)
        ) == 1.0


class TestDefaultableEuropean:
    """Constant intensity: killing + drift compensation = rate bump."""

    def test_diffusion_closed_form(self):
        sig, r, g0, T, K = 0.25, 0.04, 0.08, 0.75, 1.05
        mdl = make_constant_model(sig, 0.0, 0.0, 0.0, r, g0)
        res = cva.price_bermudan_cos(
            mdl, _put(K), bermudan.ExerciseSchedule(T, 1, 10), J=256
        )
        rr = r + g0
        want = math.exp(-rr * T) * put_expectation_lognormal(
            K, (rr - 0.5 * sig**2) * T, sig * math.sqrt(T)
        )
        assert_allclose(res.value, want, rtol=1e-12)

    def test_jump_diffusion_series(self):
        params = dict(sig=0.2, lam=0.4, m=-0.15, delta=0.25)
        r, g0, T, K = 0.03, 0.06, 0.6, 1.0
        mdl = make_constant_model(gamma0=g0, rate_r=r, **params)
        res = cva.price_bermudan_cos(
            mdl, _put(K), bermudan.ExerciseSchedule(T, 1, 10), J=256
        )
        want = math.exp(-(r + g0) * T) * put_expectation_jumpdiff(
            K, 0.0, T, rate_r=r + g0, **params
        )
        assert_allclose(res.value, want, rtol=1e-9)


class TestCrossPathAgreement:
    """Fast recursion vs backward scheme on the same contract.

    With constant coefficients the expansion is exact and the two leg
    values differ only by how the exercise decision is resolved (Newton
    split vs node projection).  With state-dependent coefficients the
    global-basepoint fast path carries a systematic per-leg error of a
    few 1e-3 that is common to both legs, so the *adjustment* agrees an
    order of magnitude tighter than the legs do.
    """

    def test_constant_coefficients(self):
        mdl = make_constant_model(0.25, 0.3, -0.1, 0.2, 0.05, 0.1)
        sched = bermudan.ExerciseSchedule(1.0, 4, 10)
        fast = cva.price_bermudan_cos(mdl, _put(), sched, J=128)
        slow = bermudan.price_bermudan_xva(
            mdl, _put(), sched, _discounting_driver(0.05), J=128
        )
        assert abs(fast.value - slow.value) < 5e-4

    @pytest.mark.parametrize("fixture", ["model_put_riskfree", "model_put"])
    def test_state_dependent_legs(self, fixture, request):
        mdl = request.getfixturevalue(fixture)
        sched = bermudan.ExerciseSchedule(1.0, 10, 10)
        pay = _put(1.0)
        fast = cva.price_bermudan_cos(mdl, pay, sched, J=100)
        slow = bermudan.price_bermudan_xva(
            mdl, pay, sched, _discounting_driver(0.05), J=100
        )
        assert abs(fast.value - slow.value) < 5e-3

    def test_state_dependent_adjustment(self, model_put_riskfree):
        sched = bermudan.ExerciseSchedule(1.0, 10, 10)
        pay = _put(1.0)
        spec = cva.DefaultSpec(intensity=lx.CoeffFamily.exponential(0.1, -2.0))
        fast = cva.cva(model_put_riskfree, spec, pay, sched, J=100)
        drv = _discounting_driver(0.05)
        slow_r = bermudan.price_bermudan_xva(
            model_put_riskfree, pay, sched, drv, J=100
        )
        slow_d = bermudan.price_bermudan_xva(
            model_put_riskfree.with_default(spec.intensity), pay, sched, drv, J=100
        )
        assert abs(fast - (slow_r.value - slow_d.value)) < 2e-4


class TestCvaAdjustment:
    sched = bermudan.ExerciseSchedule(1.0, 4, 10)

    def _default_spec(self, level):
        if level == 0.0:
            return cva.DefaultSpec(intensity=lx.CoeffFamily.zero())
        return cva.DefaultSpec(intensity=lx.CoeffFamily.exponential(level, -2.0))

    def test_zero_intensity_gives_exactly_zero(self, model_put_riskfree, monkeypatch):
        # Both legs are one model, so the report prices it once and returns
        # that one result as both legs.
        priced = []
        price = cva.price_bermudan_cos

        def counted(*args, **kwargs):
            priced.append(args[0])
            return price(*args, **kwargs)

        monkeypatch.setattr(cva, "price_bermudan_cos", counted)
        spec = self._default_spec(0.0)
        val, res_d, res_r = cva.cva_report(
            model_put_riskfree, spec, _put(1.0), self.sched, J=64
        )
        assert priced == [model_put_riskfree]
        assert res_r is res_d
        delta, gamma = cva.greeks(
            model_put_riskfree, spec, _put(1.0), self.sched, J=64, legs=(res_d, res_r)
        )
        assert (val, delta, gamma) == (0.0, 0.0, 0.0)

    def test_positive_and_monotone_in_intensity(self, model_put_riskfree):
        vals = [
            cva.cva(
                model_put_riskfree,
                self._default_spec(c),
                _put(1.0),
                self.sched,
                J=64,
            )
            for c in (0.0, 0.1, 0.2)
        ]
        assert vals[0] == 0.0
        assert 0.0 < vals[1] < vals[2]

    def test_report_decomposes_the_adjustment(self, model_put_riskfree):
        val, res_d, res_r = cva.cva_report(
            model_put_riskfree,
            self._default_spec(0.1),
            _put(1.0),
            self.sched,
            J=64,
        )
        assert val == res_r.value - res_d.value
        assert res_r.value > res_d.value
        # One shared truncation interval for both legs.
        assert res_d.grid.a == res_r.grid.a
        assert res_d.grid.b == res_r.grid.b

    # At every spot the leg value and leg_value_at are one computation.
    @pytest.mark.parametrize("x0", [0.0, -0.3, 0.2, 0.4])
    def test_leg_value_reconstruction(self, model_put_riskfree, x0):
        _, res_d, _ = cva.cva_report(
            replace_spot(model_put_riskfree, x0),
            self._default_spec(0.1),
            _put(1.0),
            self.sched,
            J=64,
        )
        assert_allclose(
            cva.leg_value_at(res_d, res_d.spot), res_d.value, rtol=0.0
        )
        inner = res_d.grid.nodes[10:-10]
        assert_allclose(cva.leg_value_at(res_d, inner), res_d.y0[10:-10], rtol=1e-10)

    def test_y0_is_the_series_at_the_nodes_bit_for_bit(self, model_put_riskfree):
        # At T = 0.5 the leg keeps both correction orders, so y0 reads the
        # corrections as well as the node wave.
        sched = bermudan.ExerciseSchedule(0.5, 10, 1)
        res = cva.price_bermudan_cos(model_put_riskfree, _put(1.0), sched, J=100)
        assert res.extras["series"].args[0]._live_orders == (1, 2)
        nodes = res.grid.nodes.copy()
        assert nodes is not res.grid.nodes
        assert np.array_equal(cva.leg_value_at(res, nodes), res.y0)

    def test_greeks_match_bumped_reconstruction(self, model_put_riskfree):
        spec = self._default_spec(0.1)
        val, res_d, res_r = cva.cva_report(
            model_put_riskfree, spec, _put(1.0), self.sched, J=64
        )
        delta, gamma = cva.greeks(
            model_put_riskfree, spec, _put(1.0), self.sched, J=64,
            legs=(res_d, res_r),
        )
        h, x0 = 1e-4, model_put_riskfree.spot_x0

        def adj(x):
            return cva.leg_value_at(res_r, x) - cva.leg_value_at(res_d, x)

        fd_delta = (adj(x0 + h) - adj(x0 - h)) / (2.0 * h)
        fd_gamma = (adj(x0 + h) - 2.0 * adj(x0) + adj(x0 - h)) / h**2
        assert_allclose(delta, fd_delta, rtol=1e-6)
        assert_allclose(gamma, fd_gamma, rtol=1e-4)

    def test_greeks_leg_reuse_changes_nothing(self, model_put_riskfree):
        spec = self._default_spec(0.1)
        fresh = cva.greeks(model_put_riskfree, spec, _put(1.0), self.sched, J=64)
        legs = cva.cva_report(
            model_put_riskfree, spec, _put(1.0), self.sched, J=64
        )[1:]
        reused = cva.greeks(
            model_put_riskfree, spec, _put(1.0), self.sched, J=64, legs=legs
        )
        assert fresh == reused

    @pytest.mark.parametrize("field", ["T", "M", "strike", "J", "L", "spot"])
    def test_greeks_refuses_legs_priced_with_other_arguments(self, model_put_riskfree, field):
        # The CLI job and the benchmark pass the arguments the legs were
        # priced with (the reuse test above, ``test_cli`` and the workload
        # test); legs priced with any other one are refused.
        spec = self._default_spec(0.1)
        legs = cva.cva_report(model_put_riskfree, spec, _put(1.0), self.sched, J=64)[1:]
        args = dict(
            mdl=model_put_riskfree, default_spec=spec, payoff=_put(1.0),
            schedule=self.sched, J=64, L=10.0,
        )
        args.update({
            "T": {"schedule": bermudan.ExerciseSchedule(0.5, 4, 10)},
            "M": {"schedule": bermudan.ExerciseSchedule(1.0, 5, 10)},
            "strike": {"payoff": _put(1.1)},
            "J": {"J": 128},
            "L": {"L": 12.0},
            "spot": {"mdl": replace_spot(model_put_riskfree, 0.1)},
        }[field])
        with pytest.raises(ValueError, match="does not match"):
            cva.greeks(**args, legs=legs)


def _theta_cva(mdl, spec, T, J, K=1.0, N=10, grids=(None, None)):
    """Theta-scheme CVA of a Bermudan put (M = 10, N steps per interval):
    both legs by ``price_bermudan_xva`` with the simplified driver at r,
    which for a put (y >= 0) is the fast leg's discounting; each leg on its
    own grid, or on the given (defaultable, default-free) grids."""
    sched = bermudan.ExerciseSchedule(T, 10, N)
    drv = _discounting_driver(mdl.rate_r)
    (m_d, m_r), (g_d, g_r) = cva.leg_models(mdl, spec), grids
    return (
        bermudan.price_bermudan_xva(m_r, _put(K), sched, drv, J=J, grid=g_r).value
        - bermudan.price_bermudan_xva(m_d, _put(K), sched, drv, J=J, grid=g_d).value
    )


_CVA_SPEC = cva.DefaultSpec(intensity=lx.CoeffFamily.exponential(0.1, -2.0))

# Fast CVA (J = 100) minus theta-scheme CVA (J = 256, N = 1), measured, at
# the criterion-4 cells (c = 0.1, M = 10) that miss by more than 1e-4.
_CELL_MISSES = {
    (0.5, 0.6): -3.9e-4, (0.5, 0.8): -1.01e-3, (0.5, 1.0): -7.4e-4,
    (1.0, 0.6): -1.97e-3, (1.0, 0.8): -3.04e-3, (1.0, 1.0): -7.5e-4,
    (1.0, 1.2): 1.28e-3, (1.0, 1.4): 1.41e-4, (1.0, 1.6): 1.67e-4,
}


def _cell(T, K):
    miss = _CELL_MISSES.get((T, K))
    marks = () if miss is None else pytest.mark.xfail(
        strict=True,
        reason=f"the fast leg, its coefficients frozen at X0, misses the "
        f"theta-scheme CVA by {miss:+.3g} (ROADMAP items 4 and 23)",
    )
    return pytest.param(T, K, marks=marks, id=f"T{T}-K{K}")


def _delta_cell(K, T, c, fast, bump, miss):
    return pytest.param(K, T, c, id=f"K{K}-T{T}-c{c}", marks=pytest.mark.xfail(
        strict=True,
        reason=f"the fast delta {fast:+.5f} reads the expansion frozen at X0 and "
        f"misses the theta-scheme bump {bump:+.5f} by {miss} "
        "(ROADMAP item 20)",
    ))


@pytest.fixture(scope="module")
def theta_cva(model_put_riskfree):
    """Theta-scheme CVA at c = 0.1, J = 256, by maturity."""
    return {T: _theta_cva(model_put_riskfree, _CVA_SPEC, T, 256) for T in (0.5, 1.0)}


class TestThetaSchemeCva:
    """The theta-scheme prices both CVA legs as well: a second engine on the
    fast CVA, at the fast path's benchmark setting (J = 100)."""

    @pytest.mark.xfail(
        strict=True,
        reason="the fast leg expands about X0 alone, and the span-scaled trust "
        "test rejects nearly all of its corrections, so sigma, a and gamma are "
        "in effect frozen at X0; it misses the theta-scheme CVA by 7.5e-4 at "
        "T = 0.5 and 7.8e-4 at T = 1",
    )
    @pytest.mark.parametrize("T", [0.5, 1.0])
    def test_fast_cva_matches_the_theta_scheme(self, model_put_riskfree, theta_cva, T):
        sched = bermudan.ExerciseSchedule(T, 10, 1)
        fast = cva.cva(model_put_riskfree, _CVA_SPEC, _put(1.0), sched, J=100)
        assert abs(fast - theta_cva[T]) <= 1e-4

    @pytest.mark.parametrize(
        "T, K", [_cell(T, K) for T in (0.5, 1.0) for K in (0.6, 0.8, 1.0, 1.2, 1.4, 1.6)]
    )
    def test_fast_cva_matches_the_theta_scheme_at_every_strike(self, model_put_riskfree, T, K):
        # The cells of criterion 4; the theta-scheme at N = 1 keeps this cheap.
        sched = bermudan.ExerciseSchedule(T, 10, 1)
        fast = cva.cva(model_put_riskfree, _CVA_SPEC, _put(K), sched, J=100)
        theta = _theta_cva(model_put_riskfree, _CVA_SPEC, T, 256, K=K, N=1)
        assert abs(fast - theta) <= 1e-4

    @pytest.mark.parametrize("K, T, c", [
        _delta_cell(1.6, 1.0, 0.2, fast=-0.00007, bump=-0.06031, miss=0.0602),
        _delta_cell(1.4, 0.5, 0.1, fast=-0.00166, bump=-0.01381, miss=0.0122),
    ])
    def test_fast_cva_delta_matches_a_theta_scheme_bump(self, model_put_riskfree, K, T, c):
        mdl, h = model_put_riskfree, 0.01
        spec = cva.DefaultSpec(intensity=lx.CoeffFamily.exponential(c, -2.0))
        sched = bermudan.ExerciseSchedule(T, 10, 1)
        _, res_d, res_r = cva.cva_report(mdl, spec, _put(K), sched, J=100)
        fast = cva.greeks(mdl, spec, _put(K), sched, J=100, legs=(res_d, res_r))[0]
        # Each leg's grid stays fixed under the bump, so only the spot moves.
        grids = tuple(bsde.make_cos_grid(m, T, 256) for m in cva.leg_models(mdl, spec))
        up, down = (
            _theta_cva(replace_spot(mdl, mdl.spot_x0 + dx), spec, T, 256, K=K, N=1, grids=grids)
            for dx in (h, -h)
        )
        assert abs(fast - (up - down) / (2.0 * h)) <= 1e-3

    @pytest.mark.parametrize("T", [0.5, 1.0])
    def test_theta_scheme_cva_is_nonnegative(self, theta_cva, T):
        assert theta_cva[T] >= 0.0

    @pytest.mark.parametrize("T", [0.5, 1.0])
    def test_theta_scheme_cva_is_zero_at_zero_intensity(self, model_put_riskfree, T):
        spec = cva.DefaultSpec(intensity=lx.CoeffFamily.zero())
        assert _theta_cva(model_put_riskfree, spec, T, 64) == 0.0


def test_a_report_reads_each_leg_at_the_spot_alone(model_put_riskfree, monkeypatch):
    # cva_report + greeks evaluate no expansion at the nodes: y0 is formed
    # on its first read, once, and kept.
    shapes = []
    evaluate = charfunc.CharFuncApprox.eval

    def recorded(self, x, d=0):
        shapes.append(np.shape(x))
        return evaluate(self, x, d)

    monkeypatch.setattr(charfunc.CharFuncApprox, "eval", recorded)
    spec = cva.DefaultSpec(intensity=lx.CoeffFamily.exponential(0.1, -2.0))
    sched = bermudan.ExerciseSchedule(1.0, 10, 1)
    _, res_d, res_r = cva.cva_report(model_put_riskfree, spec, _put(1.0), sched, J=64)
    cva.greeks(model_put_riskfree, spec, _put(1.0), sched, J=64, legs=(res_d, res_r))
    assert shapes == [()] * 2
    y0 = res_d.y0
    assert res_d.y0 is y0 and y0.shape == (64,)
    assert shapes == [()] * 2 + [(64,)]


def test_repr_leaves_a_fast_leg_y0_unformed(model_put_riskfree, monkeypatch):
    shapes = []
    evaluate = charfunc.CharFuncApprox.eval

    def recorded(self, x, d=0):
        shapes.append(np.shape(x))
        return evaluate(self, x, d)

    monkeypatch.setattr(charfunc.CharFuncApprox, "eval", recorded)
    sched = bermudan.ExerciseSchedule(1.0, 10, 1)
    res = cva.price_bermudan_cos(model_put_riskfree, _put(1.0), sched, J=64)
    assert "y0=<function" in repr(res)
    assert shapes == [()]
    y0 = res.y0
    assert shapes == [(), (64,)]
    assert repr(res) == repr(res) and f"y0={y0!r}" in repr(res)
    assert shapes == [(), (64,)]
    # y0 still defaults to None for every pricer that does not set it.
    bare = bsde.PricingResult(value=0.0, spot=0.0, grid=res.grid)
    assert bare.y0 is None and "y0=None" in repr(bare)


def test_non_finite_leg_value_raises():
    # e^{-r dt} = e^{300} per date overflows the coefficients within ten
    # dates (overflow warnings, and degenerate splits on the way).
    mdl = make_constant_model(0.2, 0.0, 0.0, 0.0, -3000.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(NumericalError, match="non-finite value"):
            cva.price_bermudan_cos(
                mdl, bermudan.PayoffSpec(kind="put", strike=1.0),
                bermudan.ExerciseSchedule(1.0, 10, 1), J=32,
            )


def test_a_leg_times_its_layers(model_put):
    res = cva.price_bermudan_cos(model_put, _put(1.0), bermudan.ExerciseSchedule(1.0, 10, 1), J=100)
    parts = ("expand", "newton", "products", "payoff")
    assert set(res.timings) == {*parts, "total"}
    assert all(res.timings[key] >= 0.0 for key in res.timings)
    assert sum(res.timings[key] for key in parts) <= res.timings["total"]


class TestExerciseBoundary:
    def test_trace_is_recorded_per_inner_date(self, model_put):
        res = cva.price_bermudan_cos(
            model_put, _put(1.0), bermudan.ExerciseSchedule(1.0, 4, 10), J=64
        )
        times, points = np.array(res.boundary).T
        assert_allclose(times, [0.25, 0.5, 0.75])
        assert np.all(points < math.log(1.0))

    def test_put_boundary_rises_toward_maturity(self, model_put):
        res = cva.price_bermudan_cos(
            model_put, _put(1.0), bermudan.ExerciseSchedule(1.0, 8, 10), J=100
        )
        pts = np.array([x for _, x in res.boundary])
        assert np.all(np.diff(pts) > -1e-9)

    def test_higher_intensity_expands_the_exercise_region(self):
        # Killing makes waiting costlier: the continuation value drops,
        # so exercise happens earlier and the frontier moves up.  The
        # region below the c = 0.2 frontier encloses the c = 0.1 region,
        # which encloses the c = 0 one, at every date.
        traces = {}
        for c in (0.0, 0.1, 0.2):
            fam = (
                lx.CoeffFamily.exponential(c, -2.0)
                if c
                else lx.CoeffFamily.zero()
            )
            mdl = make_benchmark_model(0.05, 0.0)
            mdl_c = mdl.with_default(fam)
            res = cva.price_bermudan_cos(
                mdl_c, _put(1.0), bermudan.ExerciseSchedule(1.0, 4, 10), J=100
            )
            traces[c] = np.array([x for _, x in res.boundary])
        assert np.all(traces[0.2] > traces[0.1])
        assert np.all(traces[0.1] > traces[0.0])


class TestFoldedNewtonSeries:
    """The Newton search reads the leg series from V folded into the live
    expansion rows; it must be the unfolded series to rounding.  On the
    default-free benchmark model the leg expansion keeps both correction
    orders at T = 0.5 and none at T = 1 (M = 10, J = 100)."""

    @pytest.mark.parametrize("T, live", [(0.5, (1, 2)), (1.0, ())])
    def test_value_and_slope_match_the_leg_series(self, model_put_riskfree, T, live):
        mdl, dt = model_put_riskfree, T / 10
        grid = bsde.make_cos_grid(mdl, T, 100)
        cf = bsde._expansion(mdl, grid, mdl.spot_x0, dt, span=max(grid.b, -grid.a))
        assert cf._live_orders == live
        disc = math.exp(-mdl.rate_r * dt)
        payoff = cos.put_payoff_coeffs(1.0, grid)
        # the payoff, and a continuation value restricted to x > -0.3
        cont = sum(cos.m_matrix_product(payoff, grid, -0.3, grid.b, h, cf.g[h], 0.0)
                   for h in range(cf.order + 1))
        for V in (payoff, payoff + disc * cont):
            folded = cf.fold(disc * grid.phase * V)
            for x in np.linspace(grid.a, grid.b, 13):
                got = folded(np.exp(1j * grid.freqs * x), x)
                want = cva._leg_series(cf, grid, disc, V, x, 1)
                assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("T", [0.5, 1.0])
    def test_roots_match_the_leg_series_roots(self, model_put_riskfree, T, monkeypatch):
        sched = bermudan.ExerciseSchedule(T, 10, 1)
        folded = cva.price_bermudan_cos(model_put_riskfree, _put(1.0), sched, J=100)

        def unfolded(cf, weights):
            # the series from CharFuncApprox.eval at every iterate
            return lambda wave, x: tuple(np.real(cf.eval(x, 1) @ weights))

        monkeypatch.setattr(charfunc.CharFuncApprox, "fold", unfolded)
        plain = cva.price_bermudan_cos(model_put_riskfree, _put(1.0), sched, J=100)
        assert_allclose(
            np.array(folded.boundary), np.array(plain.boundary), rtol=0.0, atol=1e-12
        )

    def test_rejects_J_other_than_the_grids(self, model_put):
        sched = bermudan.ExerciseSchedule(1.0, 4, 1)
        grid = bsde.make_cos_grid(model_put, 1.0, 64)
        with pytest.raises(ValueError, match="J=100"):
            cva.price_bermudan_cos(model_put, _put(1.0), sched, J=100, grid=grid)
        got = cva.price_bermudan_cos(model_put, _put(1.0), sched, J=64, grid=grid)
        assert got.value == cva.price_bermudan_cos(model_put, _put(1.0), sched, J=64).value


class TestDateInvariantRows:
    """A leg forms its date-invariant rows once: the stacked g_{n,k} and
    i xi that ``fold`` reads, e^{-r dt} w e^{-i xi a}, and the
    antiderivative rows at b.  Each date's fold, products and payoff
    coefficients must equal the per-date arithmetic written out here, bit
    for bit, over the leg's own exercise points and every order.  At
    T = 0.5 the leg keeps both correction orders, at T = 1 none."""

    @staticmethod
    def _fold(cf, weights, wave, x):
        orders = (0, *(k for k in range(1, cf.order + 1) if cf.g[k].any()))
        q = np.stack([cf.g[k] for k in orders]) * weights
        dots = (np.concatenate((q, 1j * cf.freqs * q)) @ wave).tolist()
        dx, K = x - float(cf.basepoint), len(orders)
        value = slope = 0j
        for k, qk, rk in zip(orders, dots[:K], dots[K:]):
            value += dx**k * qk
            slope += dx**k * rk + (k * dx ** (k - 1) * qk if k else 0.0)
        return value.real, slope.real

    @staticmethod
    def _product(V, grid, x_lo, h, lam, xbar):
        J = grid.J
        live = np.flatnonzero(lam)
        if live.size <= cos._DIRECT_MAX:
            # the live columns I_{j+k} + I_{j-k}, I_{-p} = conj(I_p), summed
            # in ascending j
            c = np.zeros(J, dtype=complex)
            if live.size:
                I = _inline_integrals(grid, x_lo, grid.b, h, xbar, live[-1] + J - 1)
                u = lam[live] * V[live]
                u[live == 0] *= 0.5
                for j, uj in zip(live, u):
                    lag = j - np.arange(J)
                    toeplitz = np.where(lag >= 0, I[np.abs(lag)], np.conjugate(I[np.abs(lag)]))
                    c += uj * (I[j : j + J] + toeplitz)
            return c.real
        u = lam * np.asarray(V, dtype=complex)
        u[0] *= 0.5
        I = _inline_integrals(grid, x_lo, grid.b, h, xbar, 2 * J - 2)
        rows = np.zeros((4, cos._next_fast_len(2 * J - 1)), dtype=complex)
        rows[0, : 2 * J - 1] = I
        rows[1, :J] = I[J - 1 :: -1]
        rows[1, J : 2 * J - 1] = np.conjugate(I[1:J])
        rows[2, :J] = u[::-1]
        rows[3, :J] = u
        spec = np.fft.fft(rows, axis=-1)
        return np.fft.ifft(spec[0] * spec[2] + spec[1] * spec[3])[J - 1 : 2 * J - 1].real

    @staticmethod
    def _payoff(strike, grid, upper):
        cap = min(math.log(strike), grid.b, upper)
        if cap <= grid.a:
            return np.zeros(grid.J)
        om, e_a = grid.freqs, math.exp(grid.a)
        cos_int = np.empty(grid.J)
        cos_int[0] = cap - grid.a
        cos_int[1:] = np.sin(om[1:] * (cap - grid.a)) / om[1:]
        th = om * (cap - grid.a)
        num = np.cos(th) * math.exp(cap) - e_a + om * np.sin(th) * math.exp(cap)
        return (2.0 / grid.width) * (strike * cos_int - num / (1.0 + om**2))

    @pytest.mark.parametrize("T, live", [(0.5, (1, 2)), (1.0, ())])
    def test_every_date_is_the_per_date_arithmetic(self, model_put_riskfree, T, live):
        mdl, dt = model_put_riskfree, T / 10
        grid = bsde.make_cos_grid(mdl, T, 100)
        res = cva.price_bermudan_cos(
            mdl, _put(1.0), bermudan.ExerciseSchedule(T, 10, 1), J=100, grid=grid
        )
        cf, disc = res.extras["series"].args[0], math.exp(-mdl.rate_r * dt)
        assert cf._live_orders == live
        V = self._payoff(1.0, grid, grid.b)
        assert cos.put_payoff_coeffs(1.0, grid, upper=grid.b).tobytes() == V.tobytes()

        def exercise(x):
            ex = math.exp(x)
            return max(1.0 - ex, 0.0), (-ex if ex < 1.0 else 0.0)

        x_prev = 0.0
        for _, x_star in reversed(res.boundary):
            weights = disc * grid.phase * V
            folded = cf.fold(weights)
            for x in (grid.a, x_star, 0.5 * (x_star + grid.b)):
                wave = np.exp(1j * grid.freqs * x)
                assert folded(wave, x) == self._fold(cf, weights, wave, x)
            # the leg's x* is the root of the written-out series
            def series(x, weights=weights):
                return self._fold(cf, weights, np.exp(1j * grid.freqs * x), x)

            bracket = (grid.a, min(max(0.0, grid.a), grid.b))
            assert cva.newton_exercise_point(series, exercise, bracket, x0=x_prev) == x_star
            x_prev = x_star
            cont = np.zeros(grid.J)
            for h in range(cf.order + 1):
                got = cos.m_matrix_product(V, grid, x_star, grid.b, h, cf.g[h], 0.0)
                want = self._product(V, grid, x_star, h, cf.g[h], 0.0)
                assert got.tobytes() == want.tobytes()
                cont += want
            payoff = self._payoff(1.0, grid, x_star)
            assert cos.put_payoff_coeffs(1.0, grid, upper=x_star).tobytes() == payoff.tobytes()
            V = payoff + disc * cont
        # the leg's own t_1 coefficients, which its value and Greeks read
        assert res.extras["series"].args[-1].tobytes() == V.tobytes()

    def test_the_rows_are_read_only(self, model_put_riskfree):
        grid = bsde.make_cos_grid(model_put_riskfree, 0.5, 100)
        sched = bermudan.ExerciseSchedule(0.5, 10, 1)
        res = cva.price_bermudan_cos(model_put_riskfree, _put(1.0), sched, J=100, grid=grid)
        cf = res.extras["series"].args[0]
        orders, g = cf._fold_rows
        assert orders == (0, 1, 2)
        upper = [grid.upper_row(h, 0.0) for h in range(3)]
        for row in (g, cf._ixi, *upper):
            assert not row.flags.writeable


class TestMethodEquivalence:
    def test_fft_and_dense_agree_end_to_end(self, model_put, monkeypatch):
        sched = bermudan.ExerciseSchedule(1.0, 4, 10)
        fast = cva.price_bermudan_cos(model_put, _put(1.0), sched, J=128)
        monkeypatch.setattr(cos, "m_matrix_product", dense_m_product)
        dense = cva.price_bermudan_cos(model_put, _put(1.0), sched, J=128)
        assert_allclose(fast.value, dense.value, atol=1e-11)
        assert_allclose(fast.y0, dense.y0, atol=1e-10)
