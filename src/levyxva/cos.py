"""Fourier-cosine machinery on a truncated interval [a, b].

Everything downstream prices through cosine expansions

    h(x) ~ sum'_{j<J} H_j cos(j pi (x - a)/(b - a)),

where the primed sum halves the first term.  This module owns the grid and
frequency bookkeeping, the midpoint-rule DCT recovering H from node values,
the expectation weights of an approximated characteristic function,
closed-form payoff coefficients for the put, and the Hankel-plus-Toeplitz
matrix products that restrict a coefficient vector to a subinterval
[x_lo, x_hi] (the continuation region) with monomial weights (x - xbar)^h.

Convention used throughout: coefficients are plain arrays H and every
conditional expectation is ``weights @ H``; the first-term half of the
primed sum is carried by the weights (``expectation_weights``, the
kernels' ``psi[:, 0]``), never by H.  Node values from the midpoint rule
carry uniform weights.

Both transforms are plain discrete Fourier transforms from ``numpy.fft``:
the DCT is one real FFT of the reordered node values, and each restricted
product is one forward and one inverse complex FFT, so the engine needs
no library beyond numpy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .charfunc import MAX_ORDER, CharFuncApprox, NodeWorkspace
from .model import _require_count


@dataclass(frozen=True)
class CosGrid:
    """Truncated interval with J cosine modes and J midpoint nodes.  Every
    table that depends on the grid is read-only, formed on first use and
    kept on the grid, so nothing outlives it."""

    a: float
    b: float
    J: int

    def __post_init__(self) -> None:
        if not self.b > self.a:
            raise ValueError("need b > a")
        _require_count("J", self.J, 2)

    @property
    def width(self) -> float:
        return self.b - self.a

    @property
    def dx(self) -> float:
        return self.width / self.J

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """x_i = a + (i + 1/2) dx, i = 0..J-1: one read-only array per grid,
        so an expansion at the nodes is checked by identity."""
        x = self.a + (np.arange(self.J) + 0.5) * self.dx
        x.setflags(write=False)
        return x

    @functools.cached_property
    def freqs(self) -> np.ndarray:
        """xi_j = j pi / (b - a), j = 0..J-1: one read-only array per grid,
        so a characteristic function built on it is checked by identity."""
        xi = np.arange(self.J) * math.pi / self.width
        xi.setflags(write=False)
        return xi

    @functools.cached_property
    def phase(self) -> np.ndarray:
        """w_j e^{-i xi_j a}, with the primed-sum weight w_0 = 1/2."""
        phase = np.exp(-1j * self.freqs * self.a)
        phase[0] *= 0.5
        phase.setflags(write=False)
        return phase

    @functools.cached_property
    def payoff_constants(self) -> tuple:
        """1 + xi_j^2, e^a and 2/(b - a) of ``put_payoff_coeffs``."""
        om2p1 = 1.0 + self.freqs**2
        om2p1.setflags(write=False)
        return om2p1, math.exp(self.a), 2.0 / self.width

    @functools.cached_property
    def powers(self) -> np.ndarray:
        """(i om_p)^{l+1} in row l = 0..MAX_ORDER, om_p = p pi / (b - a) for
        p = 1..2J: the divisors of every restricted integral; row 0 is i om_p."""
        iom = 1j * (np.arange(1, 2 * self.J + 1) * math.pi / self.width)
        powers = np.stack([iom ** (l + 1) for l in range(MAX_ORDER + 1)])
        powers.setflags(write=False)
        return powers

    def upper_row(self, h: int, basepoint: float) -> np.ndarray:
        """F_p(b), p = 1..2J, of ``monomial_exp_integrals`` for order h about
        ``basepoint``: every date's restricted products end at b and read it."""
        rows = self.__dict__.setdefault("_upper_rows", {})
        if (h, basepoint) not in rows:
            rows[h, basepoint] = _anti(self, self.b, h, basepoint, 2 * self.J)
            rows[h, basepoint].setflags(write=False)
        return rows[h, basepoint]


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


def dct_coeffs(node_values, grid: CosGrid) -> np.ndarray:
    """Recover H_j from values on the midpoint nodes x_i = a + (i+1/2) dx.

    Midpoint quadrature of the projection integral gives
    H_j ~ (2/J) sum_i h(x_i) cos(j pi (2i+1) / (2J)), a type-II DCT with
    uniform node weights, along the last axis, so stacked rows transform
    in one call.  Exact for h constant (H_0 = 2h, H_j = 0) up to rounding.

    The DCT is one real FFT (Makhoul 1980): with v the even-indexed
    values followed by the odd-indexed ones reversed, V = rfft(v) and
    P_j = (2/J) e^{-i pi j/(2J)} V_j, j = 0..J/2, give H_j = Re P_j and
    H_{J-j} = -Im P_j.
    """
    vals = np.asarray(node_values, dtype=float)
    J = grid.J
    if vals.shape[-1] != J:
        raise ValueError("need one value per grid node")
    order, twiddle = _dct_plan(J)
    spec = np.fft.rfft(np.take(vals, order, axis=-1), axis=-1)
    spec *= twiddle
    out = np.empty(vals.shape)
    out[..., : J // 2 + 1] = spec.real
    np.negative(spec.imag[..., (J - 1) // 2 : 0 : -1], out=out[..., J // 2 + 1 :])
    return out


@functools.lru_cache(maxsize=8)
def _dct_plan(J: int) -> tuple:
    """Read-only node order (even indices, then odd ones reversed) and
    twiddle (2/J) e^{-i pi j/(2J)}, j = 0..J/2, of ``dct_coeffs``."""
    order = np.concatenate((np.arange(0, J, 2), np.arange(J - 1 - J % 2, 0, -2)))
    twiddle = (2.0 / J) * np.exp((-0.5j * math.pi / J) * np.arange(J // 2 + 1))
    order.setflags(write=False)
    twiddle.setflags(write=False)
    return order, twiddle


def _check_shared(grid: CosGrid, cf: CharFuncApprox) -> None:
    xi = cf.freqs
    if xi is not grid.freqs and (xi.shape[0] != grid.J or not np.array_equal(xi, grid.freqs)):
        raise ValueError("coefficients and characteristic function use different grids")


@dataclass(frozen=True)
class StepKernel:
    """Real expectation weights of one backward step at its evaluation points.

    psi[i, j]    = w_j Re( Gamma(t, x_i; T, xi_j) e^{-i xi_j a} )
    psi_dw[i, j] = w_j Re( i xi_j Gamma(t, x_i; T, xi_j) e^{-i xi_j a} )

    with the primed-sum weight w_0 = 1/2 (w_j = 1 otherwise), so for plain
    coefficients H of h at the later time level

    E_n[h](x_i)                      ~ psi    @ H
    E_n[h dW](x_i) / (dt sigma(x_i)) ~ psi_dw @ H

    Only the (Y, Z) solve reads ``psi_dw``, so it is formed by ``form_dw``
    on its first read and kept.
    """

    psi: np.ndarray
    form_dw: Callable[[], np.ndarray] = field(repr=False)

    @functools.cached_property
    def psi_dw(self) -> np.ndarray:
        return self.form_dw()


@functools.lru_cache(maxsize=8)
def _node_phase(J: int) -> np.ndarray:
    """Read-only table w_j e^{i xi_j (x_i - a)} = w_j e^{i pi j (2i + 1) / (2J)}.

    Rows are the midpoint nodes x_i, columns the frequencies xi_j, and w_j
    the primed-sum weight (column 0 holds 1/2).  The entries are the 4J-th
    roots of unity at index j (2i + 1) mod 4J, so the table is exact to
    rounding of the roots and depends on J alone.
    """
    roots = np.exp(1j * (0.5 * math.pi / J) * np.arange(4 * J))
    table = roots[np.multiply.outer(2 * np.arange(J) + 1, np.arange(J)) % (4 * J)]
    table[:, 0] *= 0.5
    table.setflags(write=False)
    return table


def expectation_weights(cf: CharFuncApprox, grid: CosGrid, x, d: int = 0) -> np.ndarray:
    """w_j d^k/dx^k Gamma_n(x; xi_j) e^{-i xi_j a} for k = 0..d (on a leading
    axis when d > 0) from a scalar-basepoint approximation, with the
    primed-sum weight w_0 = 1/2: for plain coefficients H of h,
    Re(weights) @ H is E[h(X_T) | X_t = x] and its first d x-derivatives."""
    _check_shared(grid, cf)
    return cf.eval(x, d) * grid.phase


def step_kernel(cf: CharFuncApprox, grid: CosGrid) -> StepKernel:
    """Expectation weights on the grid nodes from a characteristic function
    expanded there (vector basepoint at ``grid.nodes``).

    A node expansion reduces to g[0] at its own node, so its weights are
    Re(g[0] * _node_phase(J)) with no exponential to evaluate.  ``psi`` is
    formed here and ``psi_dw`` on its first read (``_node_psi_dw``), both
    from g[0], into the ``psi`` and ``psi_dw`` of the workspace that
    ``cf`` was built into (``cf.work``), C-contiguous for the step's
    matrix-vector products, with the products run over its row blocks.
    Both are valid until the next build into that workspace, which
    overwrites g[0] and ``psi``, so ``psi_dw`` must be read before it.
    """
    _check_shared(grid, cf)
    x = cf.basepoint
    if x is not grid.nodes and not np.array_equal(x, grid.nodes):
        raise ValueError("step_kernel needs an expansion at the grid nodes")
    work = cf.work
    for blk, weighted in _weighted_blocks(work):
        np.copyto(work.psi[blk], weighted.real)
    return StepKernel(psi=work.psi, form_dw=lambda: _node_psi_dw(work, grid))


def _weighted_blocks(work: NodeWorkspace):
    """(rows, g0[rows] * _node_phase(J)[rows]) for each row block of
    ``work.cplx[0]``, with g0 = ``work.g[0]``."""
    g0, block = work.g[0], work.cplx[0]
    J = g0.shape[-1]
    phase = _node_phase(J)
    rows = block.shape[0]
    for lo in range(0, J, rows):
        blk, k = slice(lo, lo + rows), min(rows, J - lo)
        yield blk, np.multiply(g0[blk], phase[blk], out=block[:k])


def _node_psi_dw(work: NodeWorkspace, grid: CosGrid) -> np.ndarray:
    """``psi_dw`` of the node kernel in ``work``: Im(g0 * _node_phase(J))
    times -xi_j, into ``work.psi_dw`` with -xi_j repeated over the rows of
    its real temporary ``mag``.  The imaginary parts are copied out first,
    so the scaling runs on contiguous operands of one shape and numpy
    allocates no iteration buffer."""
    psi_dw, neg_xi = work.psi_dw, work.mag
    np.copyto(neg_xi, grid.freqs)
    np.negative(neg_xi, out=neg_xi)
    for blk, weighted in _weighted_blocks(work):
        k = weighted.shape[0]
        np.copyto(psi_dw[blk], weighted.imag)
        np.multiply(psi_dw[blk], neg_xi[:k], out=psi_dw[blk])
    return psi_dw


def point_kernel(cf: CharFuncApprox, grid: CosGrid, x_points) -> StepKernel:
    """Expectation weights at arbitrary points for a scalar-basepoint
    approximation (used for the final evaluation at the spot)."""
    weighted = expectation_weights(cf, grid, np.atleast_1d(np.asarray(x_points, dtype=float)))
    return StepKernel(psi=np.real(weighted), form_dw=lambda: np.real(1j * grid.freqs * weighted))


def put_payoff_coeffs(strike: float, grid: CosGrid, upper: float | None = None) -> np.ndarray:
    """Closed-form cosine coefficients of (K - e^x)^+ on [a, min(upper, b)].

    The payoff is supported on x <= log K; the integration cap is clipped
    into the interval, and a strike below e^a yields all-zero coefficients.
    ``upper`` restricts the integral further (exercise-region coefficients).
    Both integrals run from a, where sin 0 = 0 and cos 0 = 1 drop out, to
    the cap c, with th_j = om_j (c - a) and one sine for both:

        int_a^c cos(om_j (x - a)) dx     = sin th_j / om_j   (c - a at j = 0),
        int_a^c e^x cos(om_j (x - a)) dx = (e^c cos th_j - e^a + om_j e^c sin th_j)
                                           / (1 + om_j^2).
    """
    cap = min(math.log(strike), grid.b)
    if upper is not None:
        cap = min(cap, upper)
    if cap <= grid.a:
        return np.zeros(grid.J)
    om = grid.freqs
    om2p1, e_a, scale = grid.payoff_constants
    th = om * (cap - grid.a)
    sin = np.sin(th)
    cos_int = np.empty(grid.J)
    cos_int[0] = cap - grid.a
    np.divide(sin[1:], om[1:], out=cos_int[1:])
    e_cap = math.exp(cap)
    expcos = (np.cos(th) * e_cap - e_a + om * sin * e_cap) / om2p1
    return scale * (strike * cos_int - expcos)


def _check_limits_and_order(grid: CosGrid, x_lo: float, x_hi: float, h: int) -> None:
    if not (grid.a <= x_lo <= x_hi <= grid.b + 1e-12):
        raise ValueError("integration limits must lie inside [a, b]")
    if not 0 <= h <= MAX_ORDER:
        raise ValueError(f"monomial order must be in 0..{MAX_ORDER}")


def _anti(grid: CosGrid, x: float, h: int, basepoint: float, p_max: int) -> np.ndarray:
    """F_p(x), p = 1..p_max (``monomial_exp_integrals``), from the grid's
    powers of i om_p."""
    powers = grid.powers[:, :p_max]
    acc = np.zeros(p_max, dtype=complex)
    coef = 1.0
    for l in range(h + 1):
        if l > 0:
            coef *= -(h - l + 1)
        acc += coef * (x - basepoint) ** (h - l) / powers[l]
    np.multiply(np.exp(powers[0] * (x - grid.a)), acc, out=acc)
    return acc


def monomial_exp_integrals(
    grid: CosGrid, x_lo: float, x_hi: float, h: int, basepoint: float, p_max: int
) -> np.ndarray:
    """I_p = (1/(b-a)) int_{x_lo}^{x_hi} (x - xbar)^h e^{i p pi (x-a)/(b-a)} dx
    for p = 0..p_max and h = 0..MAX_ORDER; negative orders follow by
    conjugation.

    For p != 0 the antiderivative is
        F_p(x) = e^{i om_p (x-a)} sum_{l=0..h} (-1)^l h!/(h-l)!
                 (x - xbar)^{h-l} / (i om_p)^{l+1},
    om_p = p pi / (b - a), obtained by repeated integration by parts.  The
    powers of i om_p and the row at b are the grid's, p_max <= 2J long
    (``CosGrid.powers``, ``upper_row``); a row at any other limit is formed
    per call, each entry by the same operations as inline.
    """
    _check_limits_and_order(grid, x_lo, x_hi, h)
    if not 0 <= p_max <= 2 * grid.J:
        raise ValueError(f"p_max must be in 0..2J = {2 * grid.J}")
    return _integrals(grid, x_lo, x_hi, h, basepoint, np.empty(p_max + 1, dtype=complex))


def _integrals(grid: CosGrid, x_lo: float, x_hi: float, h: int, basepoint: float, out):
    """``monomial_exp_integrals`` into ``out`` (p_max = len(out) - 1) for
    limits and an order already checked."""
    out[0] = ((x_hi - basepoint) ** (h + 1) - (x_lo - basepoint) ** (h + 1)) / (
        (h + 1) * grid.width
    )
    p_max = out.shape[0] - 1
    if p_max:
        hi, lo = (
            grid.upper_row(h, basepoint)[:p_max] if x == grid.b
            else _anti(grid, x, h, basepoint, p_max)
            for x in (x_hi, x_lo)
        )
        tail = np.subtract(hi, lo, out=out[1:])
        tail /= grid.width
    return out


def m_matrix_product(
    V: np.ndarray,
    grid: CosGrid,
    x_lo: float,
    x_hi: float,
    h: int,
    lam: np.ndarray,
    basepoint: float,
) -> np.ndarray:
    """Restricted-interval product c_k = Re sum'_j M^h_{k,j} lam_j V_j.

    M^h_{k,j} = I_{j+k} + I_{j-k} with I_p from ``monomial_exp_integrals``
    and I_{-p} = conj(I_p); the primed sum halves j = 0.  Both parts are
    linear convolutions read at J - 1 + k, k = 0..J-1:

        Hankel    sum_j I_{j+k} u_j   = (I * reversed u)[J - 1 + k],
        Toeplitz  sum_j I_{j-k} u_j   = (T * u)[J - 1 + k],
                  T = (I_{J-1}, ..., I_1, I_0, conj I_1, ..., conj I_{J-1}),

    so at one length n the two kernels and the two inputs are the rows of
    one forward FFT, and the sum of the two spectral products takes one
    inverse: O(J log J) in two ``numpy.fft`` calls, both in place.  The
    transforms are circular: the output read at J - 1 + k, k = 0..J-1, also
    collects the linear terms at J - 1 + k +/- n.  Both kernels span
    indices 0..2J-2 and u spans 0..J-1, so each output read sums lags in
    [0, 2J - 2] and the linear convolutions span 0..3J-3; once n >= 2J - 1
    the terms at J - 1 + k +/- n fall outside that span, and no wrap
    reaches an output read.  n is the smallest 2-3-5-7-11-smooth length
    >= 2J - 1 (``_next_fast_len``, cached per J).

    The limits and the order are checked once here; the integrals I_p (as
    ``monomial_exp_integrals`` forms them, from the same grid rows) and
    the weighted input lam V are written straight into their rows.  After
    the check, an all-zero weight row ``lam`` (an expansion order whose
    corrections the trust region rejected) returns zeros at once.
    """
    J = grid.J
    _check_limits_and_order(grid, x_lo, x_hi, h)
    if not np.count_nonzero(lam):
        return np.zeros(J)
    # rows: Hankel kernel, Toeplitz kernel, reversed u, u
    rows = np.zeros((4, _next_fast_len(2 * J - 1)), dtype=complex)
    I = _integrals(grid, x_lo, x_hi, h, basepoint, rows[0, : 2 * J - 1])
    rows[1, :J] = I[J - 1 :: -1]
    np.conjugate(I[1:J], out=rows[1, J : 2 * J - 1])
    u = np.multiply(lam, V, out=rows[3, :J])
    u[0] *= 0.5
    rows[2, :J] = u[::-1]
    spec = np.fft.fft(rows, axis=-1, out=rows)
    spec[0] *= spec[2]
    spec[1] *= spec[3]
    spec[0] += spec[1]
    return np.fft.ifft(spec[0], out=spec[0])[J - 1 : 2 * J - 1].real


@functools.lru_cache(maxsize=8)
def _next_fast_len(n: int) -> int:
    """Smallest m >= max(n, 1) with no prime factor above 11: a length the
    FFT factors into its fast radices (as ``scipy.fft.next_fast_len``)."""
    m = max(n, 1)
    while True:
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m
        m += 1
