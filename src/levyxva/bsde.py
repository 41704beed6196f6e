"""Theta-scheme discretization of the pricing BSDE with Picard iterations.

One backward step on the cosine grid reads

    y_n = E_n[y_{n+1}] + dt t1 f(y_n, mtm_n) + dt (1-t1) E_n[f_{n+1}],
    z_n = -((1-t2)/t2) E_n[z_{n+1}] + (1/(dt t2)) E_n[y_{n+1} dW]
          + ((1-t2)/t2) E_n[f_{n+1} dW],

with the implicit y_n resolved by P Picard iterations started at
E_n[y_{n+1}].  All conditional expectations are kernel weights applied to
the cosine coefficients of the later time level.

``solve_bsde`` is ``bermudan.price_bermudan_xva`` with one exercise date:
for every driver both run one backward loop, ``_backward``, take their grid
from ``_grid`` and return a ``PricingResult``, differing only in how a
step's kernel is supplied and in whether z is carried.  Each level is
transformed once, in one stacked DCT of (y, f), or of (y, z, f) in the
main pass when the caller asks for z.  ``theta_step`` runs the y recursion
and ``z_step`` the z recursion; no driver reads z.  A risk-free close-out
runs a zero-driver mark-to-market pass through the same steps and kernels,
each step ahead of the main pass.  At exercise dates y becomes
max(phi, y); none is applied at t_0.  The last level's coefficients feed
the node step and ``spot_step``.

``scheme_driver`` gives every mode's driver in the BSDE convention that the
scheme consumes (Ruijter & Oosterlee 2015), in which the full driver's
adjustment-free limit is -r*y.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from . import cos as cosmod
from . import charfunc, model as modelmod
from .errors import NumericalError

_MODES = ("zero", "simplified", "full")
_CLOSEOUTS = ("risky", "risk-free")


@dataclass(frozen=True)
class DriverSpec:
    """XVA rate set, margin/capital proportions and close-out rule.

    Spreads are always recomputed from their defining differences
    (lambda_B = r_B - r etc.), never stored.  ``margin_tc`` and
    ``margin_fc`` are the constant initial margins; the variation margin
    and capital are proportional to the live value, I_V = c2*y, K = c1*y.
    The simplified driver -r*max(y, 0) discounts at ``rate_r``.
    """

    mode: str = "simplified"
    rate_r: float = 0.0
    rate_b: float = 0.0
    rate_c: float = 0.0
    rate_f: float = 0.0
    rate_i: float = 0.0
    rate_k: float = 0.0
    rate_tc: float = 0.0
    rate_fc: float = 0.0
    recovery_b: float = 1.0
    recovery_c: float = 1.0
    margin_tc: float = 0.0
    margin_fc: float = 0.0
    capital_c1: float = 0.0
    margin_c2: float = 0.0
    closeout: str = "risky"

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"mode must be {'/'.join(_MODES)}, got {self.mode!r}")
        if self.closeout not in _CLOSEOUTS:
            raise ValueError(f"closeout must be {'/'.join(_CLOSEOUTS)}, got {self.closeout!r}")
        numbers = (f.name for f in fields(self) if isinstance(f.default, float))
        modelmod._require_finite(self, *numbers)
        for name in ("recovery_b", "recovery_c"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)!r}")

    @property
    def lambda_b(self) -> float:
        return self.rate_b - self.rate_r

    @property
    def lambda_c(self) -> float:
        return self.rate_c - self.rate_r

    @property
    def lambda_f(self) -> float:
        return self.rate_f - self.rate_r

    @property
    def needs_mtm(self) -> bool:
        return self.mode == "full" and self.closeout == "risk-free"

    def lipschitz_bound(self) -> float:
        """Upper bound on |df/dy|, used by the contraction check."""
        if self.mode == "zero":
            return 0.0
        if self.mode == "simplified":
            return abs(self.rate_r)
        c1, c2 = self.capital_c1, self.margin_c2
        if self.closeout == "risky":
            slope_b = max(1.0, abs(c2 + (1.0 - c2) * self.recovery_b))
            slope_c = max(1.0, abs(c2 + (1.0 - c2) * self.recovery_c))
        else:
            slope_b = abs(c2) * abs(1.0 - self.recovery_b)
            slope_c = abs(c2) * abs(1.0 - self.recovery_c)
        return (
            abs(self.lambda_b) * (slope_b + 1.0)
            + abs(self.lambda_c) * (slope_c + 1.0)
            + abs(self.rate_r)
            + abs(self.rate_k) * abs(c1)
            + abs(self.rate_i + self.rate_r) * abs(c2)
            + abs(self.lambda_f) * (slope_b + abs(c2))
        )


def scheme_driver(spec: DriverSpec, y, mtm=None):
    """BSDE-convention driver consumed by the theta-scheme.

    ``mtm`` supplies the external mark-to-market for the risk-free
    close-out; risky close-out uses y itself.
    """
    y = np.asarray(y, dtype=float)
    if spec.mode == "zero":
        return np.zeros_like(y)
    if spec.mode == "simplified":
        return -spec.rate_r * np.maximum(y, 0.0)
    if spec.closeout == "risky":
        m_val = y
    else:
        if mtm is None:
            raise ValueError("risk-free close-out needs a mark-to-market input")
        m_val = np.asarray(mtm, dtype=float)
    iv = spec.margin_c2 * y
    cap = spec.capital_c1 * y
    wb = m_val - iv + spec.margin_tc
    wc = m_val - iv - spec.margin_fc
    theta_b = iv - spec.margin_tc + np.maximum(wb, 0.0) + spec.recovery_b * np.minimum(wb, 0.0)
    theta_c = iv + spec.margin_fc + spec.recovery_c * np.maximum(wc, 0.0) + np.minimum(wc, 0.0)
    # Minus the PDE-convention display, summed in the display's order.
    return -(
        -(theta_b - y) * spec.lambda_b
        - (theta_c - y) * spec.lambda_c
        + (spec.rate_tc + spec.rate_r) * spec.margin_tc
        - spec.rate_fc * spec.margin_fc
        - (spec.rate_i + spec.rate_r) * iv
        - spec.rate_k * cap
        + spec.rate_r * y
        + spec.lambda_f * np.minimum(theta_b - iv + spec.margin_tc, 0.0)
    )


@dataclass(frozen=True)
class BsdeGrid:
    """Time discretization: N steps of width dt, theta weights, Picard count."""

    n_steps: int
    dt: float
    theta1: float = 0.5
    theta2: float = 0.5
    picard: int = 5

    def __post_init__(self) -> None:
        modelmod._require_count("n_steps", self.n_steps)
        modelmod._require_finite(self, "dt")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not 0.0 <= self.theta1 <= 1.0:
            raise ValueError(f"theta1 must lie in [0, 1], got {self.theta1!r}")
        if not 0.0 < self.theta2 <= 1.0:
            raise ValueError(f"theta2 must lie in (0, 1], got {self.theta2!r}")
        modelmod._require_count("picard", self.picard)


def check_contraction(grid: BsdeGrid, spec: DriverSpec) -> None:
    """The implicit part is a contraction iff dt * theta1 * L_Lipschitz < 1."""
    lip = spec.lipschitz_bound()
    if grid.dt * grid.theta1 * lip >= 1.0:
        raise NumericalError(
            f"Picard contraction violated: dt*theta1*L = "
            f"{grid.dt * grid.theta1 * lip:.3g} >= 1"
        )


def theta_step(
    hy: np.ndarray,
    hf: np.ndarray,
    kernel: cosmod.StepKernel,
    bgrid: BsdeGrid,
    spec: DriverSpec,
    mtm_now=None,
):
    """One backward theta step of y.

    hy and hf are the cosine coefficients of y and of the scheme-convention
    driver f at the later time level; the kernel rows decide where the step
    is evaluated (the grid nodes, or the points of a ``point_kernel``), and
    ``mtm_now`` is given there.  The returned pair (y_now, f_now) holds
    values, with f_now = f(y_now), so steps chain without re-evaluating the
    driver.
    """
    dt, t1 = bgrid.dt, bgrid.theta1
    ey, ef = kernel.psi @ hy, kernel.psi @ hf
    explicit = ey + dt * (1.0 - t1) * ef
    y_now = ey
    if t1 > 0.0:
        for _ in range(bgrid.picard):
            y_now = explicit + dt * t1 * scheme_driver(spec, y_now, mtm_now)
    else:
        y_now = explicit
    return y_now, scheme_driver(spec, y_now, mtm_now)


def z_step(
    hy: np.ndarray,
    hz: np.ndarray,
    hf: np.ndarray,
    kernel: cosmod.StepKernel,
    bgrid: BsdeGrid,
    sigma_now: np.ndarray,
) -> np.ndarray:
    """One backward theta step of z from the later level's coefficients of
    y, z and f, with ``sigma_now`` at the kernel rows."""
    dt, t2 = bgrid.dt, bgrid.theta2
    ez = kernel.psi @ hz
    ey_dw = dt * sigma_now * (kernel.psi_dw @ hy)
    ef_dw = dt * sigma_now * (kernel.psi_dw @ hf)
    return -((1.0 - t2) / t2) * ez + ey_dw / (dt * t2) + ((1.0 - t2) / t2) * ef_dw


@dataclass
class PricingResult:
    """Output of every pricer: ``solve_bsde``, ``price_bermudan_xva`` and
    ``cva.price_bermudan_cos``.  ``z0`` is set by ``solve_bsde`` alone."""

    value: float
    spot: float
    grid: cosmod.CosGrid
    y0: np.ndarray | None = None
    z0: np.ndarray | None = None
    boundary: list = field(default_factory=list)
    delta: float | None = None
    gamma: float | None = None
    timings: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def make_cos_grid(mdl: modelmod.ModelSpec, T: float, J: int, L: float = 10.0) -> cosmod.CosGrid:
    """Truncation interval from the order-0 increment cumulants at the spot,
    L standard widths on each side; L must be finite and positive."""
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"L must be positive and finite, got {L!r}")
    x0 = mdl.spot_x0
    tay = modelmod.taylor_expand(mdl, 0.0, x0, 0)
    c1, c2, c4 = charfunc.cumulants(tay, T)
    try:
        a, b = cosmod.truncation_range(x0 + c1, c2, c4, L)
    except ValueError:  # only sigma and the jumps spread the increment
        raise ValueError("vol must be positive at the spot when no jump moves it") from None
    return cosmod.CosGrid(a, b, J)


def _expansion(
    mdl: modelmod.ModelSpec,
    grid: cosmod.CosGrid,
    x,
    dt: float,
    span: float = 0.0,
    out: charfunc.NodeWorkspace | None = None,
) -> charfunc.CharFuncApprox:
    """Order-``charfunc.MAX_ORDER`` expansion about the basepoint(s) x over
    one step of length dt, the only time input of the time-homogeneous model."""
    tay = modelmod.taylor_expand(mdl, 0.0, x, charfunc.MAX_ORDER)
    return charfunc.build_order_n(
        tay, 0.0, dt, grid.freqs, charfunc.MAX_ORDER, span=span, out=out
    )


def _node_kernel(
    mdl: modelmod.ModelSpec,
    grid: cosmod.CosGrid,
    dt: float,
    out: charfunc.NodeWorkspace | None = None,
) -> cosmod.StepKernel:
    """The step kernel on the grid nodes, built into ``out`` when given."""
    return cosmod.step_kernel(_expansion(mdl, grid, grid.nodes, dt, out=out), grid, out=out)


def _grid(mdl, T, J, L, grid):
    """The given cosine grid, checked against J, or the default one."""
    if grid is None:
        return make_cos_grid(mdl, T, J, L)
    if J != grid.J:
        raise ValueError(f"J={J} does not match the grid's J={grid.J}")
    return grid


def _solve_grid(mdl, T, bgrid, spec, J, L, grid):
    """The checks both backward solves make; returns the cosine grid."""
    if not math.isclose(bgrid.n_steps * bgrid.dt, T, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError("bgrid must tile [0, T]")
    check_contraction(bgrid, spec)
    return _grid(mdl, T, J, L, grid)


def _leftmost_crossing(x: np.ndarray, d: np.ndarray) -> float:
    """Linear-interpolated first sign change of d along x, nan if none."""
    flips = np.nonzero(np.signbit(d[:-1]) != np.signbit(d[1:]))[0]
    if flips.size == 0:
        return math.nan
    i = flips[0]
    d0, d1 = d[i], d[i + 1]
    if d0 == d1:
        return float(x[i])
    return float(x[i] + (x[i + 1] - x[i]) * d0 / (d0 - d1))


def _backward(mdl, phi, kernel, grid, bgrid, driver, every, phi_dx=None):
    """The backward loop of both pricers (module docstring).

    ``phi``: node values at T, the terminal and the exercise value;
    ``kernel()``: each step's node kernel; an exercise date every ``every``
    steps; ``phi_dx``: node values of dphi/dx at T which, when given, start
    z = sigma * phi_dx, carried by the main pass.  Returns the spot value
    (``NumericalError`` if not finite), y and z (or None) at t_0, the boundary.
    """
    x = grid.nodes
    passes = (DriverSpec(mode="zero"), driver) if driver.needs_mtm else (driver,)
    # (y, f) per pass; each pass's y at a step is the next pass's mtm there.
    state = [(phi, scheme_driver(drv, phi, mtm)) for drv, mtm in zip(passes, (None, phi))]
    z = None
    if phi_dx is not None:
        sigma = mdl.vol(x)
        z = phi_dx * sigma
    boundary = []
    for s in reversed(range(bgrid.n_steps)):
        kern = kernel()
        for i, drv in enumerate(passes):
            y, f = state[i]
            mtm = state[i - 1][0] if i else None
            if z is None or drv is not driver:
                hy, hf = cosmod.dct_coeffs(np.stack((y, f)), grid)
            else:
                hy, hz, hf = cosmod.dct_coeffs(np.stack((y, z, f)), grid)
                z = z_step(hy, hz, hf, kern, bgrid, sigma)
            y, f = theta_step(hy, hf, kern, bgrid, drv, mtm)
            if s > 0 and s % every == 0:
                t_now = s * bgrid.dt
                x_star = _leftmost_crossing(x, phi - y)
                if min(x_star - grid.a, grid.b - x_star) < grid.dx:  # false for nan
                    warnings.warn(
                        f"exercise boundary {x_star:.4g} at t={t_now:.4g} touches the "
                        f"truncation bounds [{grid.a:.4g}, {grid.b:.4g}]",
                        stacklevel=3,
                    )
                if drv is driver:
                    boundary.append((t_now, x_star))
                y = np.where(phi > y, phi, y)
                f = scheme_driver(drv, y, mtm)
            state[i] = (y, f)
    # The t_1 coefficients of the last step also feed the step at the spot,
    # with the expansion re-based at X0.
    value = spot_step(mdl, hy, hf, grid, bgrid, driver, mtm)
    if not math.isfinite(value):
        raise NumericalError(f"the backward solve reached a non-finite value {value}")
    boundary.reverse()
    return value, y, z, boundary


def solve_bsde(
    mdl: modelmod.ModelSpec,
    terminal: Callable[[np.ndarray], np.ndarray],
    terminal_dx: Callable[[np.ndarray], np.ndarray],
    T: float,
    bgrid: BsdeGrid,
    spec: DriverSpec,
    J: int = 256,
    L: float = 10.0,
    grid: cosmod.CosGrid | None = None,
) -> PricingResult:
    """Solve the BSDE on [0, T] with terminal condition y_T = terminal(X_T).

    The expectation kernel is built once, from dt alone: the model
    coefficients are time-homogeneous, so the step length is the only time
    input of the order-``charfunc.MAX_ORDER`` expansion.  z at the terminal
    time is terminal_dx * sigma.
    """
    grid = _solve_grid(mdl, T, bgrid, spec, J, L, grid)
    x = grid.nodes
    kernel = _node_kernel(mdl, grid, bgrid.dt)
    phi = np.asarray(terminal(x), dtype=float)
    phi_dx = np.asarray(terminal_dx(x), dtype=float)
    value, y0, z0, _ = _backward(
        mdl, phi, lambda: kernel, grid, bgrid, spec, bgrid.n_steps, phi_dx
    )
    return PricingResult(value=value, spot=mdl.spot_x0, grid=grid, y0=y0, z0=z0)


def spot_step(
    mdl: modelmod.ModelSpec,
    hy: np.ndarray,
    hf: np.ndarray,
    grid: cosmod.CosGrid,
    bgrid: BsdeGrid,
    spec: DriverSpec,
    mtm_now=None,
) -> float:
    """The first backward step (from t_0 + dt to t_0 = 0) at the spot only,
    basepoint X0, from the coefficients hy, hf of the later level.
    ``mtm_now`` holds node values, interpolated onto the spot."""
    x0 = mdl.spot_x0
    kern = cosmod.point_kernel(_expansion(mdl, grid, x0, bgrid.dt), grid, [x0])
    if mtm_now is not None:
        mtm_now = np.atleast_1d(np.interp(x0, grid.nodes, mtm_now))
    y_spot, _ = theta_step(hy, hf, kern, bgrid, spec, mtm_now)
    return float(y_spot[0])
