"""Tests for the exercise schedule, payoff catalogue and Bermudan pricer.

With one exercise date the Bermudan collapses to a European contract,
for which the constant-coefficient closed forms of test_cos are exact
oracles.  Structural Bermudan facts (monotonicity in nested exercise
sets, boundary location below the strike) cover the multi-date path.
"""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import levyxva as lx
from levyxva import bermudan, bsde, charfunc, cos, model

from conftest import make_benchmark_model, make_constant_model

from test_cos import put_expectation_jumpdiff


class TestExerciseSchedule:
    def test_dates_and_steps(self):
        sched = bermudan.ExerciseSchedule(2.0, 4, 8)
        assert_allclose(np.arange(sched.M + 1) * sched.spacing, [0.0, 0.5, 1.0, 1.5, 2.0])
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

    @pytest.mark.parametrize(
        "M, N", [(2.5, 3), (3, 2.5), (2.0, 3), (3, 2.0), (True, 3), (3, True)]
    )
    def test_rejects_non_integer_counts(self, M, N):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            bermudan.ExerciseSchedule(1.0, M, N)

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
        with pytest.raises(ValueError, match="unknown payoff kind"):
            bermudan.PayoffSpec(kind="straddle", strike=1.0)

    def test_swaption_needs_curve_and_schedule(self):
        # Swaptions need a bond curve and a payment schedule that the
        # log-price state cannot supply, so the kinds are not offered.
        for kind in ("swaption-payer", "swaption-receiver"):
            with pytest.raises(ValueError, match="unknown payoff kind"):
                bermudan.PayoffSpec(kind=kind, strike=0.02)

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
            bsde.DriverSpec(
                mode="full",
                rate_r=0.05,
                rate_b=0.07,
                rate_c=0.09,
                rate_f=0.06,
                recovery_b=0.4,
                recovery_c=0.6,
                margin_c2=0.3,
                closeout="risk-free",
            ),
        ],
        ids=["simplified", "full-risky", "full-risk-free"],
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

        # At 0.7 the step is not dyadic: (t + dt) - t rounds differently
        # from step to step, so the solves agree bit for bit only because
        # every kernel is built from dt alone.
        for T, N in ((0.5, 8), (0.7, 10), (1.0, 8)):
            res, sol = both(T, N)
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
    def test_one_dct_per_time_level(self, dct_calls, z_step_calls, closeout, passes):
        # (y, f) of a level are transformed in one call; the last level's
        # coefficients serve both the node step and the spot step.  The
        # risk-free close-out adds the zero-driver mark-to-market pass.
        # No driver reads z, so the XVA solve carries none.
        mdl = make_constant_model(0.25, 0.0, 0.0, 0.0, 0.06, 0.0)
        sched = bermudan.ExerciseSchedule(1.0, 3, 2)
        pay = bermudan.PayoffSpec(kind="put", strike=self.strike)
        drv = bsde.DriverSpec(mode="full", rate_r=0.06, rate_c=0.08, closeout=closeout)
        bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=32)
        assert dct_calls == [(2, 32)] * (passes * sched.M * sched.N)
        assert z_step_calls == []

    @pytest.mark.parametrize(
        "kind, strike, closeout",
        [("portfolio-linear", 0.0, "risky"), ("put", 1.1, "risk-free")],
    )
    def test_one_payoff_evaluation_per_solve(self, monkeypatch, kind, strike, closeout):
        # The payoff reads the state alone and the nodes are fixed, so the
        # terminal node payoff is also every exercise date's.
        calls = []
        payoff_eval = bermudan.payoff_eval

        def counted(*args):
            calls.append(args)
            return payoff_eval(*args)

        monkeypatch.setattr(bermudan, "payoff_eval", counted)
        mdl = make_constant_model(0.25, 0.0, 0.0, 0.0, 0.06, 0.0)
        sched = bermudan.ExerciseSchedule(1.0, 3, 2)
        pay = bermudan.PayoffSpec(kind=kind, strike=strike)
        drv = bsde.DriverSpec(mode="full", rate_r=0.06, rate_c=0.08, closeout=closeout)
        res = bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=32)
        assert len(calls) == 1
        assert np.isfinite(res.value) and len(res.boundary) == sched.M - 1

    def test_boundary_at_the_truncation_bounds_warns(self):
        # A call's exercise boundary at t = 0.25 lies within one node
        # spacing of the upper bound of a deliberately narrow interval.
        mdl = make_benchmark_model(rate_r=0.05, c_default=0.0)
        pay = bermudan.PayoffSpec(kind="call", strike=1.0)
        drv = bsde.DriverSpec(mode="simplified", rate_r=0.05)
        grid = cos.CosGrid(-1.0, 0.34, 16)
        sched = bermudan.ExerciseSchedule(1.0, 4, 2)
        with pytest.warns(UserWarning) as record:
            res = bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=16, grid=grid)
        assert [str(w.message) for w in record] == [
            "exercise boundary 0.277 at t=0.25 touches the truncation bounds [-1, 0.34]"
        ]
        assert record[0].filename == __file__
        assert res.boundary[0] == pytest.approx((0.25, 0.27700508099), abs=1e-10)

    def test_grid_reuse_is_deterministic(self):
        mdl = make_constant_model(0.25, 0.0, 0.0, 0.0, 0.06, 0.0)
        sched = bermudan.ExerciseSchedule(1.0, 2, 4)
        pay = bermudan.PayoffSpec(kind="put", strike=self.strike)
        drv = bsde.DriverSpec(mode="simplified", rate_r=0.06)
        grid = bsde.make_cos_grid(mdl, 1.0, 64)
        a = bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=64)
        b = bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=64, grid=grid)
        assert a.value == b.value

    def test_rejects_J_other_than_the_grids(self):
        mdl = make_constant_model(0.25, 0.0, 0.0, 0.0, 0.06, 0.0)
        sched = bermudan.ExerciseSchedule(1.0, 2, 4)
        pay = bermudan.PayoffSpec(kind="put", strike=self.strike)
        drv = bsde.DriverSpec(mode="simplified", rate_r=0.06)
        grid = bsde.make_cos_grid(mdl, 1.0, 64)
        with pytest.raises(ValueError, match="J=256 does not match the grid's J=64"):
            bermudan.price_bermudan_xva(mdl, pay, sched, drv, J=256, grid=grid)


class TestNodeWorkspace:
    """Every node kernel is built into the workspace of its expansion.

    A build into a workspace that already holds another build must give
    the same g[0], psi and psi_dw bit for bit as a build into a new one, at
    the benchmark's model, step (N = M = 10) and sizes; at J = 100 the
    step kernel's last row block is partial (54-row blocks at J = 300 in
    the charfunc tests cover the build's)."""

    @pytest.mark.parametrize("J", [32, 100, 256])
    @pytest.mark.parametrize("T", [0.5, 1.0])
    def test_in_place_rebuild_equals_fresh_build(self, model_put, T, J):
        grid = bsde.make_cos_grid(model_put, T, J)
        dt = T / 100
        tay = model.taylor_expand(model_put, 0.0, grid.nodes, charfunc.MAX_ORDER)
        work = charfunc.NodeWorkspace(tay, grid.freqs, dt, charfunc.MAX_ORDER)
        # Everything but the step-invariant inputs, which the workspace
        # forms once and no build writes.
        for arr in (work.g, work.psi, work.psi_dw, *work.cplx, work.mag):
            arr.fill(np.nan)
        for arr in (work.mask, work.dead):
            arr.fill(True)
        fresh_cf = bsde._expansion(model_put, grid, grid.nodes, dt)
        fresh = cos.step_kernel(fresh_cf, grid)
        assert fresh_cf.work is not work
        for _ in range(2):
            cf = charfunc.build_order_n(
                tay, 0.0, dt, grid.freqs, charfunc.MAX_ORDER, out=work
            )
            kern = cos.step_kernel(cf, grid)
            assert np.array_equal(cf.g[0], fresh_cf.g[0])
            assert np.array_equal(kern.psi, fresh.psi)
            assert np.array_equal(kern.psi_dw, fresh.psi_dw)
        assert np.shares_memory(cf.g[0], work.g) and kern.psi is work.psi
        # A strided psi would move the step's matvec off BLAS, and with it
        # the bit-identity of in-place and fresh kernels.
        for arr in (kern.psi, kern.psi_dw):
            assert arr.dtype == np.float64 and arr.flags.c_contiguous

    def test_build_allocates_less_than_one_block(self, model_put):
        # Every (rows, J) temporary of a build lives in the workspace, and no
        # ufunc of the build broadcasts or casts an operand (numpy buffers
        # those), so a warm J = 256 node kernel at the benchmark's step
        # allocates less than one (64, 256) complex block.
        grid = bsde.make_cos_grid(model_put, 1.0, 256)
        build = bsde._node_kernels(model_put, grid, 0.01)
        build()
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 256 * 16

    def test_step_kernel_allocates_no_iteration_buffer(self, model_put):
        # A warm step_kernel writes psi and its row blocks into the
        # workspace the expansion was built into, and forms no psi_dw.
        grid = bsde.make_cos_grid(model_put, 1.0, 256)
        cf = bsde._expansion(model_put, grid, grid.nodes, 0.01)
        cos.step_kernel(cf, grid)
        tracemalloc.start()
        try:
            cos.step_kernel(cf, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024

    def test_steps_of_one_solve_share_storage(self, model_put, monkeypatch):
        kernels = []
        step_kernel = cos.step_kernel

        def recorded(*args, **kwargs):
            kernels.append(step_kernel(*args, **kwargs))
            return kernels[-1]

        monkeypatch.setattr(cos, "step_kernel", recorded)
        sched = bermudan.ExerciseSchedule(1.0, 2, 2)
        pay = bermudan.PayoffSpec(kind="put", strike=1.0)
        drv = bsde.DriverSpec(mode="simplified", rate_r=0.05)
        for _ in range(2):
            bermudan.price_bermudan_xva(model_put, pay, sched, drv, J=32)
        assert len(kernels) == 2 * sched.n_steps
        solves = kernels[: sched.n_steps], kernels[sched.n_steps :]
        for steps in solves:
            first = steps[0]
            for kern in steps[1:]:
                assert np.shares_memory(kern.psi, first.psi)
                assert np.shares_memory(kern.psi_dw, first.psi_dw)
        one, two = solves[0][0], solves[1][0]
        assert not np.shares_memory(one.psi, two.psi)
        assert not np.shares_memory(one.psi_dw, two.psi_dw)

    def test_risk_free_pass_shares_each_step_kernel(self, model_put, monkeypatch):
        # The mark-to-market pass and the main pass read one kernel per step.
        builds = []
        step_kernel = cos.step_kernel

        def counted(*args, **kwargs):
            builds.append(args[1].J)
            return step_kernel(*args, **kwargs)

        monkeypatch.setattr(cos, "step_kernel", counted)
        sched = bermudan.ExerciseSchedule(1.0, 2, 2)
        pay = bermudan.PayoffSpec(kind="put", strike=1.0)
        drv = bsde.DriverSpec(mode="full", rate_r=0.05, rate_c=0.06, closeout="risk-free")
        res = bermudan.price_bermudan_xva(model_put, pay, sched, drv, J=32)
        assert builds == [32] * sched.n_steps
        assert np.isfinite(res.value) and len(res.boundary) == sched.M - 1

    def test_solve_expands_the_nodes_once_and_forms_no_psi_dw(self, model_put, monkeypatch):
        # Every step builds its kernel anew from one node expansion per
        # solve; the y recursion never reads psi_dw, so none is formed.
        calls = {}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        for owner, name in ((model, "taylor_expand"), (charfunc, "build_order_n"),
                            (cos, "step_kernel"), (cos, "_node_psi_dw")):
            count(owner, name)
        sched = bermudan.ExerciseSchedule(1.0, 2, 2)
        pay = bermudan.PayoffSpec(kind="put", strike=1.0)
        drv = bsde.DriverSpec(mode="full", rate_r=0.05, rate_c=0.06, closeout="risk-free")
        bermudan.price_bermudan_xva(model_put, pay, sched, drv, J=32)
        # the grid, the nodes and the spot
        assert calls == {
            "taylor_expand": 3,
            "build_order_n": sched.n_steps + 1,
            "step_kernel": sched.n_steps,
        }

    def test_european_solve_forms_psi_dw_once(self, model_put, monkeypatch):
        formed = []
        node_psi_dw = cos._node_psi_dw

        def recorded(*args):
            formed.append(args)
            return node_psi_dw(*args)

        monkeypatch.setattr(cos, "_node_psi_dw", recorded)
        pay = bermudan.PayoffSpec(kind="put", strike=1.0)
        bsde.solve_bsde(
            model_put,
            lambda x: bermudan.payoff_eval(pay, 0.5, x),
            lambda x: bermudan.payoff_dx(pay, 0.5, x),
            0.5,
            bsde.BsdeGrid(4, 0.125),
            bsde.DriverSpec(mode="simplified", rate_r=0.05),
            J=32,
        )
        assert len(formed) == 1

    def test_psi_dw_read_allocates_no_iteration_buffer(self, model_put):
        # psi_dw is scaled on contiguous operands of one shape; a broadcast
        # (J,) operand times a strided .imag view made numpy allocate
        # ~68 KB of iteration buffers per warm J = 256 read.
        grid = bsde.make_cos_grid(model_put, 1.0, 256)
        build = bsde._node_kernels(model_put, grid, 0.01)
        build().psi_dw
        kern = build()
        tracemalloc.start()
        try:
            kern.psi_dw
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024

    @pytest.mark.parametrize(
        "kind, strike, drv",
        [
            ("portfolio-linear", 0.0, bsde.DriverSpec(mode="simplified", rate_r=0.05)),
            ("put", 1.0, bsde.DriverSpec(
                mode="full", rate_r=0.05, rate_c=0.06, closeout="risk-free"
            )),
        ],
    )
    def test_solve_equals_fresh_kernel_every_step(self, model_put, kind, strike, drv):
        # The solve forms its node expansion and the build's step-invariant
        # inputs once; a loop that builds each step's kernel from scratch,
        # with a new expansion and workspace, must give the same bits.
        sched = bermudan.ExerciseSchedule(1.0, 4, 4)
        pay = bermudan.PayoffSpec(kind=kind, strike=strike)
        res = bermudan.price_bermudan_xva(model_put, pay, sched, drv, J=64)
        grid, bgrid = res.grid, bsde.BsdeGrid(sched.n_steps, sched.dt)
        phi = bermudan.payoff_eval(pay, sched.T, grid.nodes)
        value, y0, _, boundary = bsde._backward(
            model_put, phi, lambda: bsde._node_kernels(model_put, grid, sched.dt)(),
            grid, bgrid, drv, sched.N,
        )
        assert value == res.value
        assert np.array_equal(y0, res.y0)
        assert np.array_equal(boundary, res.boundary, equal_nan=True)
        assert len(boundary) == sched.M - 1


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
