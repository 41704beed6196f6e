"""Fourier-cosine machinery on a truncated interval [a, b].

Everything downstream prices through cosine expansions

    h(x) ~ sum'_{j<J} H_j cos(j pi (x - a)/(b - a)),

where the primed sum halves the first term.  This module owns the grid and
frequency bookkeeping, the midpoint-rule DCT recovering H from node values,
conditional expectations against an approximated characteristic function,
closed-form payoff coefficients for the put, and the Hankel-plus-Toeplitz
matrix products that restrict a coefficient vector to a subinterval
[x_lo, x_hi] (the continuation region) with monomial weights (x - xbar)^h.

Convention used throughout: the first-term halving of the primed sum is
applied to the *summed frequency* index by ``halve_first`` at the summation
site; node values from the midpoint rule carry uniform weights.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .charfunc import CharFuncApprox


@dataclass(frozen=True)
class CosGrid:
    """Truncated interval with J cosine modes and J midpoint nodes."""

    a: float
    b: float
    J: int

    def __post_init__(self) -> None:
        if not self.b > self.a:
            raise ValueError("need b > a")
        if self.J < 2:
            raise ValueError("need at least two modes")

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def dx(self) -> float:
        return self.width / self.J

    @property
    def nodes(self) -> np.ndarray:
        return self.a + (np.arange(self.J) + 0.5) * self.dx

    @property
    def freqs(self) -> np.ndarray:
        """xi_j = j pi / (b - a), j = 0..J-1."""
        return np.arange(self.J) * math.pi / self.width


def truncation_range(c1: float, c2: float, c4: float, L: float = 10.0):
    """[a, b] = c1 -/+ L * sqrt(c2 + sqrt(c4)).

    c1 must already include the conditioning point (interval center).  The
    spread must be positive: a deterministic process has no usable range.
    """
    spread = c2 + math.sqrt(max(c4, 0.0))
    if spread <= 0.0:
        raise ValueError("degenerate dynamics: c2 + sqrt(c4) must be > 0")
    half = L * math.sqrt(spread)
    return c1 - half, c1 + half


def halve_first(values: np.ndarray) -> np.ndarray:
    """Copy with the leading frequency entry halved (primed-sum weight)."""
    out = np.array(values, copy=True)
    out[..., 0] = 0.5 * out[..., 0]
    return out


@dataclass(frozen=True)
class CoeffVector:
    """Cosine coefficients H_j on a grid, tagged with their time level."""

    values: np.ndarray
    grid: CosGrid
    time: float = math.nan

    def __post_init__(self) -> None:
        if self.values.shape[-1] != self.grid.J:
            raise ValueError("coefficient count must equal grid.J")


def dct_coeffs(node_values, grid: CosGrid, time: float = math.nan) -> CoeffVector:
    """Recover H_j from values on the midpoint nodes x_i = a + (i+1/2) dx.

    Midpoint quadrature of the projection integral gives
    H_j ~ (2/J) sum_i h(x_i) cos(j pi (2i+1) / (2J)), a type-II DCT with
    uniform node weights.  Exact for h constant (H_0 = 2h, H_j = 0).
    """
    vals = np.asarray(node_values, dtype=float)
    if vals.shape[-1] != grid.J:
        raise ValueError("need one value per grid node")
    return CoeffVector(scipy.fft.dct(vals, type=2, axis=-1) / grid.J, grid, time)


def _check_shared(grid: CosGrid, cf: CharFuncApprox) -> None:
    if cf.freqs.shape[0] != grid.J or not np.array_equal(cf.freqs, grid.freqs):
        raise ValueError("coefficients and characteristic function use different grids")


@dataclass(frozen=True)
class StepKernel:
    """Real expectation weights of one backward step on the grid nodes.

    psi[i, j]    = Re( Gamma(t, x_i; T, xi_j) e^{-i xi_j a} )
    psi_dw[i, j] = Re( i xi_j Gamma(t, x_i; T, xi_j) e^{-i xi_j a} )

    E_n[h](x_i)          ~ psi    @ halve_first(H)
    E_n[h dW](x_i) / (dt sigma(x_i)) ~ psi_dw @ halve_first(H)

    On the midpoint nodes the phase of a node expansion is
    e^{i xi_j (x_i - a)} with xi_j (x_i - a) = pi j (2i + 1) / (2J), the
    same table for every interval [a, b] with J modes (``_node_phase``).
    """

    psi: np.ndarray
    psi_dw: np.ndarray


@functools.lru_cache(maxsize=8)
def _node_phase(J: int) -> np.ndarray:
    """Read-only table e^{i xi_j (x_i - a)} = e^{i pi j (2i + 1) / (2J)}.

    Rows are the midpoint nodes x_i, columns the frequencies xi_j.  The
    entries are the 4J-th roots of unity at index j (2i + 1) mod 4J, so
    the table is exact to rounding of the roots and depends on J alone.
    """
    roots = np.exp(1j * (0.5 * math.pi / J) * np.arange(4 * J))
    table = roots[np.multiply.outer(2 * np.arange(J) + 1, np.arange(J)) % (4 * J)]
    table.setflags(write=False)
    return table


def step_kernel(cf: CharFuncApprox, grid: CosGrid) -> StepKernel:
    """Expectation weights from a characteristic function expanded at the
    grid nodes (vector basepoint) or evaluated there (scalar basepoint).

    A node expansion reduces to g[0] at its own node, so its weights are
    Re(g[0] * _node_phase(J)) with no exponential to evaluate, and both
    arrays come back C-contiguous for the step's matrix-vector products.
    A scalar basepoint is the point kernel at the nodes.
    """
    _check_shared(grid, cf)
    if not cf.basepoint.ndim:
        return point_kernel(cf, grid, grid.nodes)
    if cf.basepoint.shape != (grid.J,) or not np.allclose(cf.basepoint, grid.nodes):
        raise ValueError("vector-basepoint kernel must expand at the grid nodes")
    weighted = cf.g[0] * _node_phase(grid.J)
    return StepKernel(psi=weighted.real.copy(), psi_dw=-grid.freqs * weighted.imag)


def point_kernel(cf: CharFuncApprox, grid: CosGrid, x_points) -> StepKernel:
    """Expectation weights at arbitrary points for a scalar-basepoint
    approximation (used for the final evaluation at the spot)."""
    _check_shared(grid, cf)
    gam = cf.eval(np.atleast_1d(np.asarray(x_points, dtype=float)))
    weighted = gam * np.exp(-1j * grid.freqs * grid.a)
    return StepKernel(psi=np.real(weighted), psi_dw=np.real(1j * grid.freqs * weighted))


def cos_expectation(coeffs: CoeffVector, cf: CharFuncApprox, x):
    """E[h(X_T) | X_t = x] ~ sum'_j H_j Re(Gamma(t,x;T,xi_j) e^{-i xi_j a})."""
    _check_shared(coeffs.grid, cf)
    vals = halve_first(coeffs.values)
    weighted = cf.eval(x) * np.exp(-1j * coeffs.grid.freqs * coeffs.grid.a)
    return np.real(weighted) @ vals if vals.ndim == 1 else np.sum(np.real(weighted) * vals, axis=-1)


def _cos_integral(grid: CosGrid, lo: float, hi: float) -> np.ndarray:
    """int_lo^hi cos(omega_j (x - a)) dx for j = 0..J-1."""
    om = grid.freqs
    out = np.empty(grid.J)
    out[0] = hi - lo
    out[1:] = (np.sin(om[1:] * (hi - grid.a)) - np.sin(om[1:] * (lo - grid.a))) / om[1:]
    return out


def _expcos_integral(grid: CosGrid, lo: float, hi: float) -> np.ndarray:
    """int_lo^hi e^x cos(omega_j (x - a)) dx for j = 0..J-1."""
    om = grid.freqs
    th_hi, th_lo = om * (hi - grid.a), om * (lo - grid.a)
    num = (
        np.cos(th_hi) * math.exp(hi)
        - np.cos(th_lo) * math.exp(lo)
        + om * np.sin(th_hi) * math.exp(hi)
        - om * np.sin(th_lo) * math.exp(lo)
    )
    return num / (1.0 + om**2)


def put_payoff_coeffs(
    strike: float, grid: CosGrid, time: float = math.nan, upper: float | None = None
) -> CoeffVector:
    """Closed-form cosine coefficients of (K - e^x)^+ on [a, min(upper, b)].

    The payoff is supported on x <= log K; the integration cap is clipped
    into the interval, and a strike below e^a yields all-zero coefficients.
    ``upper`` restricts the integral further (exercise-region coefficients).
    """
    if strike <= 0.0:
        raise ValueError("strike must be positive")
    cap = min(math.log(strike), grid.b)
    if upper is not None:
        cap = min(cap, upper)
    if cap <= grid.a:
        return CoeffVector(np.zeros(grid.J), grid, time)
    vals = (2.0 / grid.width) * (
        strike * _cos_integral(grid, grid.a, cap) - _expcos_integral(grid, grid.a, cap)
    )
    return CoeffVector(vals, grid, time)


def monomial_exp_integrals(
    grid: CosGrid, x_lo: float, x_hi: float, h: int, basepoint: float, p_max: int
) -> np.ndarray:
    """I_p = (1/(b-a)) int_{x_lo}^{x_hi} (x - xbar)^h e^{i p pi (x-a)/(b-a)} dx
    for p = 0..p_max; negative orders follow by conjugation.

    For p != 0 the antiderivative is
        F_p(x) = e^{i om_p (x-a)} sum_{l=0..h} (-1)^l h!/(h-l)!
                 (x - xbar)^{h-l} / (i om_p)^{l+1},
    om_p = p pi / (b - a), obtained by repeated integration by parts.
    """
    if not (grid.a <= x_lo <= x_hi <= grid.b + 1e-12):
        raise ValueError("integration limits must lie inside [a, b]")
    p = np.arange(1, p_max + 1)
    om = p * math.pi / grid.width
    out = np.empty(p_max + 1, dtype=complex)
    out[0] = ((x_hi - basepoint) ** (h + 1) - (x_lo - basepoint) ** (h + 1)) / (
        (h + 1) * grid.width
    )
    if p_max == 0:
        return out

    def anti(x: float) -> np.ndarray:
        acc = np.zeros_like(om, dtype=complex)
        coef = 1.0
        for l in range(h + 1):
            if l > 0:
                coef *= -(h - l + 1)
            acc += coef * (x - basepoint) ** (h - l) / (1j * om) ** (l + 1)
        return np.exp(1j * om * (x - grid.a)) * acc

    out[1:] = (anti(x_hi) - anti(x_lo)) / grid.width
    return out


def _linear_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    n = x.shape[0] + y.shape[0] - 1
    nf = scipy.fft.next_fast_len(n)
    return scipy.fft.ifft(scipy.fft.fft(x, nf) * scipy.fft.fft(y, nf))[:n]


def m_matrix_product(
    V: np.ndarray,
    grid: CosGrid,
    x_lo: float,
    x_hi: float,
    h: int,
    lam: np.ndarray,
    basepoint: float,
    method: str = "fft",
) -> np.ndarray:
    """Restricted-interval product c_k = Re sum'_j M^h_{k,j} lam_j V_j.

    M^h_{k,j} = I_{j+k} + I_{j-k} with I_p from ``monomial_exp_integrals``;
    the primed sum halves j = 0.  The Hankel part I_{j+k} is a linear
    convolution against the reversed input, the Toeplitz part I_{j-k} a
    length-2J circular convolution; both run in O(J log J).  The dense
    O(J^2) path materializes M and is kept as the validation reference.
    """
    J = grid.J
    u = lam * np.asarray(V, dtype=complex)
    u[0] *= 0.5
    I = monomial_exp_integrals(grid, x_lo, x_hi, h, basepoint, 2 * J - 2)
    if method == "dense":
        k = np.arange(J)
        hank = I[np.add.outer(k, k)]
        toep_full = np.concatenate((np.conj(I[J - 1:0:-1]), I[:J]))
        toep = toep_full[np.add.outer(-k, np.arange(J)) + J - 1]
        return np.real((hank + toep) @ u)
    if method != "fft":
        raise ValueError("method must be 'fft' or 'dense'")
    conv = _linear_convolve(I, u[::-1])
    hankel_part = conv[J - 1 : 2 * J - 1]
    t_circ = np.concatenate((I[:1], np.conj(I[1:J]), np.zeros(1, complex), I[J - 1 : 0 : -1]))
    toeplitz_part = scipy.fft.ifft(
        scipy.fft.fft(t_circ) * scipy.fft.fft(u, 2 * J)
    )[:J]
    return np.real(hankel_part + toeplitz_part)
