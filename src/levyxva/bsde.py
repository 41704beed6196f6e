"""Theta-scheme discretization of the pricing BSDE with Picard iterations.

One backward step on the cosine grid reads

    y_n = E_n[y_{n+1}] + dt t1 f(y_n, mtm_n) + dt (1-t1) E_n[f_{n+1}],
    z_n = -((1-t2)/t2) E_n[z_{n+1}] + (1/(dt t2)) E_n[y_{n+1} dW]
          + ((1-t2)/t2) E_n[f_{n+1} dW],

with the implicit y_n resolved by P Picard iterations started at
E_n[y_{n+1}].  All conditional expectations are kernel weights applied to
the cosine coefficients of the later time level, which the caller obtains
by one stacked DCT per level and shares between every step that reads that
level.  The XVA drivers read only y and, for the risk-free close-out, a
mark-to-market, so ``theta_step`` runs the y recursion alone; ``z_step``
runs the z recursion for the z0 that ``solve_bsde`` returns.

``scheme_driver`` gives every mode's driver in the BSDE convention that the
scheme consumes (Ruijter & Oosterlee 2015), in which the full driver's
adjustment-free limit is -r*y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cos as cosmod
from . import charfunc, model as modelmod
from .errors import NumericalError

_MODES = ("zero", "simplified", "full")
_CLOSEOUTS = ("risky", "risk-free")
_FINITE_FIELDS = (
    "rate_r", "rate_b", "rate_c", "rate_f", "rate_i", "rate_k", "rate_tc", "rate_fc",
    "margin_tc", "margin_fc", "capital_c1", "margin_c2",
)


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
            raise ValueError(f"unknown driver mode {self.mode!r}")
        if self.closeout not in _CLOSEOUTS:
            raise ValueError(f"unknown close-out rule {self.closeout!r}")
        modelmod._require_finite(self, *_FINITE_FIELDS)
        for name in ("recovery_b", "recovery_c"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

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
            slope_b = abs(c2) * max(abs(1.0 - self.recovery_b), 0.0)
            slope_c = abs(c2) * max(abs(1.0 - self.recovery_c), 0.0)
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
        modelmod._require_finite(self, "dt")
        if self.n_steps < 1 or self.dt <= 0.0:
            raise ValueError("need n_steps >= 1 and dt > 0")
        if not 0.0 <= self.theta1 <= 1.0:
            raise ValueError("theta1 must lie in [0, 1]")
        if not 0.0 < self.theta2 <= 1.0:
            raise ValueError("theta2 must lie in (0, 1]")
        if self.picard < 1:
            raise ValueError("need at least one Picard iteration")


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


@dataclass(frozen=True)
class BsdeSolution:
    """Backward solve output: value at the spot plus t_0 grids."""

    value: float
    y0: np.ndarray
    z0: np.ndarray
    grid: cosmod.CosGrid
    spot: float


def make_cos_grid(mdl: modelmod.ModelSpec, T: float, J: int, L: float = 10.0) -> cosmod.CosGrid:
    """Truncation interval from the order-0 increment cumulants at the spot."""
    x0 = mdl.spot_x0
    tay = modelmod.taylor_expand(mdl, 0.0, x0, 0)
    c1, c2, c4 = charfunc.cumulants(tay, T)
    a, b = cosmod.truncation_range(x0 + c1, c2, c4, L)
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
) -> BsdeSolution:
    """Solve the BSDE on [0, T] with terminal condition y_T = terminal(X_T).

    The expectation kernel is built once, from dt alone: the model
    coefficients are time-homogeneous, so the step length is the only time
    input of the order-``charfunc.MAX_ORDER`` expansion, and sigma is
    evaluated at the nodes once.  z at the terminal time is terminal_dx *
    sigma.  Each time level is transformed once, in one stacked DCT of
    (y, z, f).  A risk-free close-out needs a mark-to-market, which
    ``price_bermudan_xva`` supplies by its zero-driver pass (M = 1 is this
    European solve).
    """
    if not math.isclose(bgrid.n_steps * bgrid.dt, T, rel_tol=1e-9, abs_tol=1e-12):
        raise ValueError("bgrid must tile [0, T]")
    check_contraction(bgrid, spec)
    if spec.needs_mtm:
        raise ValueError(
            "risk-free close-out needs a mark-to-market; use price_bermudan_xva "
            "with M=1, which runs the zero-driver mark-to-market pass"
        )
    if grid is None:
        grid = make_cos_grid(mdl, T, J, L)
    x = grid.nodes
    kernel = _node_kernel(mdl, grid, bgrid.dt)

    sigma = mdl.vol(x)
    y = np.asarray(terminal(x), dtype=float)
    z = np.asarray(terminal_dx(x), dtype=float) * sigma
    f = scheme_driver(spec, y)
    for _ in range(bgrid.n_steps):
        hy, hz, hf = cosmod.dct_coeffs(np.stack((y, z, f)), grid)
        z = z_step(hy, hz, hf, kernel, bgrid, sigma)
        y, f = theta_step(hy, hf, kernel, bgrid, spec)
    # The t_1 coefficients of the last step also feed the step at the spot,
    # with the expansion re-based at X0.
    value = spot_step(mdl, hy, hf, grid, bgrid, spec)
    return BsdeSolution(value=value, y0=y, z0=z, grid=grid, spot=mdl.spot_x0)


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
    basepoint X0, from the coefficients hy, hf of the later level."""
    x0 = mdl.spot_x0
    kern = cosmod.point_kernel(_expansion(mdl, grid, x0, bgrid.dt), grid, [x0])
    if mtm_now is not None:
        mtm_now = np.atleast_1d(np.asarray(mtm_now, dtype=float))
        if mtm_now.shape[0] != 1:
            # interpolate a node-grid mtm onto the spot
            mtm_now = np.atleast_1d(np.interp(x0, grid.nodes, mtm_now))
    y_spot, _ = theta_step(hy, hf, kern, bgrid, spec, mtm_now)
    return float(y_spot[0])
