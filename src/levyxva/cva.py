"""Fast unilateral CVA: two COS Bermudan legs and closed-form Greeks.

The Bermudan put is priced twice under zero-recovery counterparty default:
once with the default intensity gamma inside the characteristic-function
approximation (defaultable leg) and once with gamma stripped everywhere,
including from the drift restriction (default-free leg).  CVA is the
difference default-free minus defaultable, a nonnegative adjustment.

Each leg runs the backward coefficient recursion: at every exercise date
the early-exercise point x* splits [a, b] into the exercise region, whose
payoff coefficients are closed form, and the continuation region, whose
coefficients come from Hankel-plus-Toeplitz products in O(J log J),

    V_j(t_m) = F_j(t_m, x*) + Chat_j(t_m, x*),
    Chat_k   = e^{-r dt} Re sum_{h<=n} sum'_j M^h_{k,j} g_{n,h}(xi_j) V_j(t_{m+1}),

with the expansion based at X0 throughout.  The final value, delta and
gamma are single cosine sums against V(t_1).
"""
from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import charfunc, cos as cosmod, model as modelmod
from .bermudan import ExerciseSchedule, PayoffSpec, PricingResult
from .bsde import make_cos_grid


@dataclass(frozen=True)
class DefaultSpec:
    """Counterparty default intensity, zero-recovery convention."""

    intensity: modelmod.CoeffFamily

    def __post_init__(self) -> None:
        if self.intensity.level < 0.0:
            raise ValueError("default intensity must be nonnegative")


@dataclass(frozen=True)
class BoundaryTrace:
    """Early-exercise points x*_m per exercise date."""

    times: np.ndarray
    points: np.ndarray

    def __post_init__(self) -> None:
        if self.times.shape != self.points.shape:
            raise ValueError("times and points must align")


def newton_exercise_point(
    c_fn,
    phi_fn,
    bracket,
    x0: float | None = None,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> float:
    """Root of c - phi on the bracket by safeguarded Newton.

    The derivative is numerical; iterates leaving the live bracket fall back
    to bisection.  Without a sign change the split is degenerate: c > phi
    everywhere means never exercise (returns the lower end), c < phi
    everywhere means always exercise (returns the upper end).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if hi <= lo:
        return lo

    def f(x):
        return float(c_fn(x)) - float(phi_fn(x))

    flo, fhi = f(lo), f(hi)
    if abs(flo) < tol:
        return lo
    if abs(fhi) < tol:
        return hi
    if flo * fhi > 0.0:
        return lo if flo > 0.0 else hi

    x = float(x0) if x0 is not None and lo < x0 < hi else 0.5 * (lo + hi)
    fx = f(x)
    for _ in range(max_iter):
        if abs(fx) < tol or hi - lo < 1e-14:
            break
        # keep the bracket live
        if flo * fx <= 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        h = 1e-7 * max(1.0, abs(x))
        slope = (f(x + h) - f(x - h)) / (2.0 * h)
        x_new = x - fx / slope if slope != 0.0 else math.nan
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)
        x, fx = x_new, f(x_new)
    return x


def price_bermudan_cos(
    mdl: modelmod.ModelSpec,
    payoff: PayoffSpec,
    schedule: ExerciseSchedule,
    J: int = 128,
    L: float = 10.0,
    order: int = 2,
    method: str = "fft",
    grid: cosmod.CosGrid | None = None,
) -> PricingResult:
    """One Bermudan-put leg by the coefficient recursion, basepoint X0.

    The model's own default intensity decides whether this is the
    defaultable or the default-free leg; both run the identical code path.
    Discounting is explicit (e^{-r dt} per interval); default killing lives
    inside the characteristic-function coefficients.
    """
    if payoff.kind != "put":
        raise ValueError("the fast CVA path prices Bermudan puts")
    if method not in ("fft", "dense"):
        raise ValueError("method must be 'fft' or 'dense'")
    t_begin = time.perf_counter()
    M, T = schedule.M, schedule.T
    delta_t = schedule.spacing
    x0 = mdl.spot_x0
    if grid is None:
        grid = make_cos_grid(mdl, T, J, L)
    xi = grid.freqs
    strike = payoff.strike
    notion = payoff.notional

    tay = modelmod.taylor_expand(mdl, 0.0, x0, order)
    span = max(grid.b - x0, x0 - grid.a)
    cf = charfunc.build_order_n(tay, 0.0, delta_t, xi, order, span=span)
    g = [cf.g[h] if h <= order else np.zeros_like(xi, dtype=complex) for h in range(3)]
    disc = math.exp(-mdl.rate_r * delta_t)
    phase = np.exp(-1j * xi * grid.a)

    def continuation(x):
        w = np.real(cf.eval(x) * phase)
        return disc * (w @ cosmod.halve_first(V))

    V = notion * cosmod.put_payoff_coeffs(strike, grid, upper=grid.b).values
    log_k = math.log(strike)
    x_up = min(max(log_k, grid.a), grid.b)
    warm = log_k
    times, points = [], []
    for m in range(M - 1, 0, -1):
        t_m = m * delta_t
        x_star = newton_exercise_point(
            continuation, lambda x: notion * max(strike - math.exp(x), 0.0),
            (grid.a, x_up), x0=warm,
        )
        if x_star <= grid.a or x_star >= grid.b:
            warnings.warn(
                f"degenerate exercise split x*={x_star:.4g} at t={t_m:.4g}",
                stacklevel=2,
            )
        cont = np.zeros(grid.J)
        for h in range(order + 1):
            cont += cosmod.m_matrix_product(
                V, grid, x_star, grid.b, h, g[h], x0, method=method
            )
        V = notion * cosmod.put_payoff_coeffs(strike, grid, upper=x_star).values + disc * cont
        times.append(t_m)
        points.append(x_star)
        warm = x_star

    weights = np.real(np.exp(1j * xi * (x0 - grid.a)) * g[0])
    hv = cosmod.halve_first(V)
    value = disc * (weights @ hv)
    w_d1 = np.real(np.exp(1j * xi * (x0 - grid.a)) * (1j * xi * g[0] + g[1]))
    w_d2 = np.real(
        np.exp(1j * xi * (x0 - grid.a)) * (-(xi**2) * g[0] + 2j * xi * g[1] + 2.0 * g[2])
    )
    delta = disc * (w_d1 @ hv)
    gamma = disc * (w_d2 @ hv)
    times.reverse()
    points.reverse()
    trace = BoundaryTrace(np.array(times), np.array(points))

    y0 = disc * (np.real(cf.eval(grid.nodes) * phase) @ hv)
    done = time.perf_counter()
    return PricingResult(
        value=float(value),
        spot=x0,
        grid=grid,
        y0=y0,
        boundary=list(zip(trace.times.tolist(), trace.points.tolist())),
        delta=float(delta),
        gamma=float(gamma),
        timings={"total": done - t_begin},
        config={
            "J": grid.J,
            "L": L,
            "order": order,
            "M": M,
            "T": T,
            "method": method,
            "strike": strike,
        },
        extras={"V1": V, "cf": cf, "trace": trace, "disc": disc},
    )


def leg_value_at(result: PricingResult, x):
    """Continuation value at t_0 as a function of the evaluation point.

    Uses the stored t_1 coefficients and the frozen expansion (basepoint,
    truncation interval, boundary), so finite differences of this function
    are the like-for-like check of the closed-form Greeks.
    """
    cf = result.extras["cf"]
    V = result.extras["V1"]
    disc = result.extras["disc"]
    grid = result.grid
    w = np.real(cf.eval(x) * np.exp(-1j * grid.freqs * grid.a))
    return disc * (w @ cosmod.halve_first(V))


def _legs(
    mdl: modelmod.ModelSpec,
    default_spec: DefaultSpec,
    payoff: PayoffSpec,
    schedule: ExerciseSchedule,
    J: int = 128,
    L: float = 10.0,
    order: int = 2,
    method: str = "fft",
):
    """Price the defaultable and default-free legs on one shared grid."""
    m_d = mdl.with_default(default_spec.intensity)
    m_r = m_d.without_default()
    grid = make_cos_grid(m_d, schedule.T, J, L)
    res_d = price_bermudan_cos(m_d, payoff, schedule, J, L, order, method, grid=grid)
    res_r = price_bermudan_cos(m_r, payoff, schedule, J, L, order, method, grid=grid)
    return res_d, res_r


def cva(
    mdl: modelmod.ModelSpec,
    default_spec: DefaultSpec,
    payoff: PayoffSpec,
    schedule: ExerciseSchedule,
    J: int = 128,
    L: float = 10.0,
    order: int = 2,
    method: str = "fft",
) -> float:
    """CVA = default-free leg minus defaultable leg at (t_0, X_0)."""
    res_d, res_r = _legs(mdl, default_spec, payoff, schedule, J, L, order, method)
    return res_r.value - res_d.value


def cva_report(
    mdl: modelmod.ModelSpec,
    default_spec: DefaultSpec,
    payoff: PayoffSpec,
    schedule: ExerciseSchedule,
    J: int = 128,
    L: float = 10.0,
    order: int = 2,
    method: str = "fft",
):
    """CVA plus both leg results (for Greeks, boundaries and diagnostics)."""
    res_d, res_r = _legs(mdl, default_spec, payoff, schedule, J, L, order, method)
    return res_r.value - res_d.value, res_d, res_r


def greeks(
    mdl: modelmod.ModelSpec,
    default_spec: DefaultSpec,
    payoff: PayoffSpec,
    schedule: ExerciseSchedule,
    J: int = 128,
    L: float = 10.0,
    order: int = 2,
    method: str = "fft",
    legs=None,
):
    """(Delta, Gamma) of the CVA: difference of the per-leg cosine series."""
    if legs is None:
        res_d, res_r = _legs(mdl, default_spec, payoff, schedule, J, L, order, method)
    else:
        res_d, res_r = legs
    return res_r.delta - res_d.delta, res_r.gamma - res_d.gamma
