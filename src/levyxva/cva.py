"""Fast unilateral CVA: two COS Bermudan legs and closed-form Greeks.

The Bermudan put is priced twice under zero-recovery counterparty default:
once with the default intensity gamma inside the characteristic-function
approximation (defaultable leg) and once with gamma stripped everywhere,
including from the drift restriction (default-free leg).  CVA is the
difference default-free minus defaultable, a nonnegative adjustment.  At
zero intensity the two legs are one model, priced once, and the CVA is
exactly 0.0.

Each leg runs the backward coefficient recursion: at every exercise date
the early-exercise point x* splits [a, b] into the exercise region, whose
payoff coefficients are closed form, and the continuation region, whose
coefficients come from Hankel-plus-Toeplitz products in O(J log J),

    V_j(t_m) = F_j(t_m, x*) + Chat_j(t_m, x*),
    Chat_k   = e^{-r dt} Re sum_{h<=n} sum'_j M^h_{k,j} g_{n,h}(xi_j) V_j(t_{m+1}),

with n = ``charfunc.MAX_ORDER`` and the expansion based at X0 throughout,
built once per leg over one exercise interval.  Every other leg quantity is
one series e^{-r dt} Re sum'_j d^d/dx^d Gamma_n(x; xi_j) e^{-i xi_j a} V_j.

The Newton search for x* reads it through ``CharFuncApprox.fold``: each
date folds e^{-r dt} w_j e^{-i xi_j a} V_j into the live expansion rows
once, Q_k = e^{-r dt} w e^{-i xi a} V g_{n,k}, so an iterate costs one
J-vector e^{i xi x} and one (2K x J) complex product for K live rows, and
the bracket ends reuse two waves built once per leg.  A date forms only
what depends on V or x*: the fold, the Newton iterates, one restricted
product per order and the exercise-region payoff coefficients.  The rows
that do not are formed once per leg: e^{-r dt} w e^{-i xi a}, and with the
expansion the stacked g_{n,k} and i xi that ``fold`` reads; the
antiderivative rows at b, which every date's products share, are kept on
the grid (``CosGrid.upper_row``).  Against V(t_1) the value, delta and
gamma at X0 (d = 2), y0 and ``leg_value_at`` read
``cos.expectation_weights`` (``_leg_series``).  y0 is the series at
``grid.nodes``, a J x J evaluation that no CVA or Greek reads: it is
formed on the first read of ``PricingResult.y0`` and kept.
"""
from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import cos as cosmod, model as modelmod
from .bermudan import ExerciseSchedule, PayoffSpec
from .bsde import PricingResult, _expansion, _grid, make_cos_grid
from .errors import NumericalError


@dataclass(frozen=True)
class DefaultSpec:
    """Counterparty default intensity, zero-recovery convention."""

    intensity: modelmod.CoeffFamily


_NEWTON_TOL = 1e-10
_NEWTON_MAX_ITER = 100


def newton_exercise_point(c_fn, phi_fn, bracket, x0: float | None = None) -> float:
    """Root of c - phi on the bracket by safeguarded Newton.

    ``c_fn`` and ``phi_fn`` each return (value, slope) at x, so one call per
    point gives both f and f'; the sign test at the two bracket ends reads
    the value of the same call.  An iterate that leaves the live bracket,
    or a zero slope, falls back to bisection.  Without a sign change the
    split is degenerate: c > phi everywhere means never exercise (returns
    the lower end), c < phi everywhere means always exercise (returns the
    upper end).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if hi <= lo:
        return lo

    def f(x):
        (c, dc), (p, dp) = c_fn(x), phi_fn(x)
        return float(c) - float(p), float(dc) - float(dp)

    flo, fhi = (f(x)[0] for x in (lo, hi))
    if abs(flo) < _NEWTON_TOL:
        return lo
    if abs(fhi) < _NEWTON_TOL:
        return hi
    if flo * fhi > 0.0:
        return lo if flo > 0.0 else hi

    x = float(x0) if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    fx, slope = f(x)
    for _ in range(_NEWTON_MAX_ITER):
        if abs(fx) < _NEWTON_TOL or hi - lo < 1e-14:
            break
        # keep the bracket live
        if flo * fx <= 0.0:
            hi = x
        else:
            lo, flo = x, fx
        x = x - fx / slope if slope != 0.0 else math.nan
        if not (lo < x < hi):
            x = 0.5 * (lo + hi)
        fx, slope = f(x)
    return x


def _leg_series(cf, grid, disc, V, x, d: int = 0) -> tuple:
    """disc * Re(cos.expectation_weights) @ V for k = 0..d, one product per
    row, so the k = 0 entry is the same computation at every d."""
    w = np.real(cosmod.expectation_weights(cf, grid, x, d))
    return tuple(disc * (row @ V) for row in (w if d else (w,)))


def price_bermudan_cos(
    mdl: modelmod.ModelSpec,
    payoff: PayoffSpec,
    schedule: ExerciseSchedule,
    J: int = 128,
    L: float = 10.0,
    grid: cosmod.CosGrid | None = None,
) -> PricingResult:
    """One Bermudan-put leg by the coefficient recursion, basepoint X0.

    The model's own default intensity decides whether this is the
    defaultable or the default-free leg; both run the identical code path.
    Discounting is explicit (e^{-r dt} per interval); default killing lives
    inside the characteristic-function coefficients.  A non-finite value
    raises ``NumericalError``.

    ``timings`` gives the seconds of the grid and expansion (``expand``),
    the folds and Newton searches (``newton``), the restricted products
    (``products``) and the payoff coefficients with each date's update of
    V (``payoff``), each charged at a date-loop boundary, and ``total``.
    """
    if payoff.kind != "put":
        raise ValueError("the fast CVA path prices Bermudan puts")
    t_begin = mark = time.perf_counter()
    timings = dict.fromkeys(("expand", "newton", "products", "payoff"), 0.0)

    def lap(layer):
        """Charge the seconds since the last lap to ``layer``."""
        nonlocal mark
        now = time.perf_counter()
        timings[layer] += now - mark
        mark = now

    M, T = schedule.M, schedule.T
    delta_t = schedule.spacing
    x0 = mdl.spot_x0
    grid = _grid(mdl, T, J, L, grid)
    strike = payoff.strike
    notion = payoff.notional

    cf = _expansion(mdl, grid, x0, delta_t, span=max(grid.b - x0, x0 - grid.a))
    disc = math.exp(-mdl.rate_r * delta_t)
    lap("expand")

    def exercise_value(x):
        ex = math.exp(x)
        return notion * max(strike - ex, 0.0), (-notion * ex if ex < strike else 0.0)

    V = notion * cosmod.put_payoff_coeffs(strike, grid, upper=grid.b)
    lap("payoff")
    log_k = math.log(strike)
    x_up = min(max(log_k, grid.a), grid.b)
    x_star = log_k  # warm start; then each date starts from the later one's x*
    # The bracket ends are the same at every date, so their waves are built
    # once per leg; an iterate builds its own.
    ixi, disc_phase = cf._ixi, disc * grid.phase
    end_waves = {x: np.exp(ixi * x) for x in (grid.a, x_up)}
    boundary = []
    for m in range(M - 1, 0, -1):
        t_m = m * delta_t
        folded = cf.fold(disc_phase * V)
        x_star = newton_exercise_point(
            lambda x: folded(end_waves[x] if x in end_waves else np.exp(ixi * x), x),
            exercise_value, (grid.a, x_up), x0=x_star,
        )
        lap("newton")
        if x_star <= grid.a or x_star >= grid.b:
            warnings.warn(
                f"degenerate exercise split x*={x_star:.4g} at t={t_m:.4g}",
                stacklevel=2,
            )
        cont = np.zeros(grid.J)
        for h in range(cf.order + 1):
            cont += cosmod.m_matrix_product(V, grid, x_star, grid.b, h, cf.g[h], x0)
        lap("products")
        V = notion * cosmod.put_payoff_coeffs(strike, grid, upper=x_star) + disc * cont
        lap("payoff")
        boundary.append((t_m, x_star))

    series = functools.partial(_leg_series, cf, grid, disc, V)
    value, delta, gamma = series(x0, 2)
    if not math.isfinite(value):
        raise NumericalError(f"the coefficient recursion reached a non-finite value {value}")
    timings["total"] = time.perf_counter() - t_begin
    return PricingResult(
        value=float(value),
        spot=x0,
        grid=grid,
        y0=lambda: series(grid.nodes)[0],
        boundary=boundary[::-1],
        delta=float(delta),
        gamma=float(gamma),
        timings=timings,
        config={
            "J": grid.J,
            "L": L,
            "M": M,
            "T": T,
            "strike": strike,
        },
        extras={"series": series},
    )


def leg_value_at(result: PricingResult, x):
    """Continuation value at t_0 as a function of the evaluation point.

    Reads the leg's own cosine series (stored t_1 coefficients, frozen
    expansion, truncation interval and boundary), so at the spot it is the
    leg value bit for bit, and its finite differences are the like-for-like
    check of the closed-form Greeks.
    """
    return result.extras["series"](x)[0]


def leg_models(mdl: modelmod.ModelSpec, default_spec: DefaultSpec):
    """The (defaultable, default-free) models of the two CVA legs: one
    object for both when the intensity is zero."""
    m_d = mdl.with_default(default_spec.intensity)
    return m_d, m_d.without_default()


def cva(
    mdl: modelmod.ModelSpec,
    default_spec: DefaultSpec,
    payoff: PayoffSpec,
    schedule: ExerciseSchedule,
    J: int = 128,
    L: float = 10.0,
) -> float:
    """CVA = default-free leg minus defaultable leg at (t_0, X_0)."""
    return cva_report(mdl, default_spec, payoff, schedule, J, L)[0]


def cva_report(
    mdl: modelmod.ModelSpec,
    default_spec: DefaultSpec,
    payoff: PayoffSpec,
    schedule: ExerciseSchedule,
    J: int = 128,
    L: float = 10.0,
):
    """CVA plus the (defaultable, default-free) leg results, priced on one
    shared grid (for Greeks, boundaries and diagnostics).

    At zero intensity the two legs are one model (``leg_models``), so that
    leg is priced once and its ``PricingResult`` is returned as both: the
    CVA and its Greeks are then exactly 0.0 by construction.
    """
    m_d, m_r = leg_models(mdl, default_spec)
    grid = make_cos_grid(m_d, schedule.T, J, L)
    res_d = price_bermudan_cos(m_d, payoff, schedule, J, L, grid=grid)
    res_r = res_d if m_r is m_d else price_bermudan_cos(m_r, payoff, schedule, J, L, grid=grid)
    return res_r.value - res_d.value, res_d, res_r


def greeks(
    mdl: modelmod.ModelSpec,
    default_spec: DefaultSpec,
    payoff: PayoffSpec,
    schedule: ExerciseSchedule,
    J: int = 128,
    L: float = 10.0,
    legs=None,
):
    """(Delta, Gamma) of the CVA: difference of the per-leg cosine series.

    ``legs`` takes the (defaultable, default-free) results of ``cva_report``,
    which are then read instead of priced; each must have been priced with
    the schedule's T and M, the strike, J, L and the model's spot, or
    ``ValueError`` is raised.  Otherwise both legs are priced from the
    arguments.
    """
    if legs is None:
        legs = cva_report(mdl, default_spec, payoff, schedule, J, L)[1:]
    else:
        asked = {"J": J, "L": L, "M": schedule.M, "T": schedule.T, "strike": payoff.strike}
        for leg in legs:
            priced = {key: leg.config[key] for key in asked}
            if priced != asked or leg.spot != mdl.spot_x0:
                raise ValueError(
                    f"a leg priced with {priced} at spot {leg.spot} does not match "
                    f"{asked} at spot {mdl.spot_x0}"
                )
    res_d, res_r = legs
    return res_r.delta - res_d.delta, res_r.gamma - res_d.gamma
