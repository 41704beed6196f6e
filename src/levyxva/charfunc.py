"""Approximated characteristic function of the killed local Levy process.

The conditional (defaultable) characteristic function

    Gamma(t, x; T, xi) = E[ exp(-int_t^T gamma(X_s) ds) * e^{i xi X_T} | X_t = x ]

is approximated by expanding the state-dependent coefficients about a
basepoint xbar and propagating the correction terms through the adjoint of
the generator.  The result is a polynomial-in-(x - xbar) structure

    Gamma_n(t, x; T, xi) = e^{i xi x} * sum_{k=0..n} (x - xbar)^k g_{n,k}(xi)

whose coefficient functions g_{n,k} are closed-form in the frozen Levy
symbols

    psi_h(xi) = i xi mu_h - s_h xi^2 - gamma_h + a_h (nuhat(xi) - 1 - i m xi),
    nuhat(xi) = exp(i m xi - d^2 xi^2 / 2),

with h-th order Taylor rows (s_h, mu_h, a_h, gamma_h) and jump law
N(m, d^2).  Orders n <= 2 are supported; with constant coefficients every
correction vanishes and g_{n,0} reduces to the exact (Merton-type) factor
e^{tau psi_0}.  All time integrals in the correction hierarchy are closed
form because the coefficients are time-homogeneous.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import TaylorData

MAX_ORDER = 2

# Trust region for the asymptotic correction factors: beyond this the
# expansion entries revert to the (always valid) order-0 value.
_TRUST = 0.5
# Tighter trust region for the span-scaled correction terms (see
# build_order_n): those feed backward recursions, where any admitted error
# compounds multiplicatively over the time steps instead of averaging out.
# Capping the per-step relative perturbation at 5% keeps an M-step
# recursion within ~(1.05)^M of the order-0 baseline in the worst case
# while still letting the low-frequency corrections through.
_TRUST_SPAN = 0.05
# Bytes of one (rows, J) complex temporary in a vector-basepoint build: 64
# node rows at J = 256.  A block's temporaries stay in cache, and the
# allocator recycles them instead of faulting in fresh pages.
_BLOCK_BYTES = 1 << 18


def _lift(row: np.ndarray) -> np.ndarray:
    """Lift a coefficient row for broadcasting against a frequency axis."""
    row = np.asarray(row, dtype=float)
    return row[..., None] if row.ndim else row


def _jump_transform(xi: np.ndarray, m: float, d: float):
    """nuhat and its first two xi-derivatives for q ~ N(m, d^2)."""
    nu = np.exp(1j * m * xi - 0.5 * d**2 * xi**2)
    slope = 1j * m - d**2 * xi
    return nu, slope * nu, (slope**2 - d**2) * nu


def levy_symbol_psi(taylor: TaylorData, xi) -> np.ndarray:
    """Frozen Levy symbol psi_0 built from the order-0 coefficient row.

    The symbol is entire in xi, so complex arguments are accepted; the
    value at ``xi = -1j`` is ``exp(rT)``-drift check territory (it equals
    the short rate for a risk-neutral, default-free parameterisation).
    """
    xi = np.asarray(xi)
    if not np.iscomplexobj(xi):
        xi = xi.astype(float)
    return _symbol(taylor, 0, xi)


def _symbol(taylor: TaylorData, h: int, xi: np.ndarray) -> np.ndarray:
    nu, _, _ = _jump_transform(xi, taylor.jump_mean, taylor.jump_std)
    s, mu = _lift(taylor.s[h]), _lift(taylor.mu[h])
    a, gam = _lift(taylor.a[h]), _lift(taylor.gamma[h])
    return (
        1j * xi * mu
        - s * xi**2
        - gam
        + a * (nu - 1.0 - 1j * taylor.jump_mean * xi)
    )


def _frequency_factors(xi: np.ndarray, m: float, d: float) -> np.ndarray:
    """F[k] such that psi_h^(k)(xi) = (mu_h, s_h, gamma_h, a_h) @ F[k].

    Each symbol is linear in its coefficient row, so it and its first two
    xi-derivatives are rank-4 products with these frequency vectors.
    """
    nu, dnu, d2nu = _jump_transform(xi, m, d)
    F = np.zeros((3, 4, xi.size), dtype=complex)
    F[0, 0], F[0, 1], F[0, 2], F[0, 3] = 1j * xi, -(xi**2), -1.0, nu - 1.0 - 1j * m * xi
    F[1, 0], F[1, 1], F[1, 3] = 1j, -2.0 * xi, dnu - 1j * m
    F[2, 1], F[2, 3] = -2.0, d2nu
    return F


def _coeff_rows(taylor: TaylorData, h: int) -> np.ndarray:
    """Order-h rows (mu_h, s_h, gamma_h, a_h), one per basepoint: (points, 4)."""
    rows = (taylor.mu[h], taylor.s[h], taylor.gamma[h], taylor.a[h])
    return np.stack(rows, axis=-1).reshape(-1, 4)


def _row_block(taylor: TaylorData, rows: slice) -> TaylorData:
    """The Taylor data of a block of vector basepoints; a scalar basepoint is
    its own single block."""
    if not taylor.basepoint.ndim:
        return taylor
    return replace(
        taylor,
        basepoint=taylor.basepoint[rows],
        s=taylor.s[:, rows],
        mu=taylor.mu[:, rows],
        a=taylor.a[:, rows],
        gamma=taylor.gamma[:, rows],
    )


def cumulants(taylor: TaylorData, tau: float):
    """Increment cumulants (c1, c2, c4) of the frozen order-0 dynamics over
    a horizon of length tau.

    c1 = tau*mu_0 (jumps are compensated, so they do not shift the mean),
    c2 = tau*(2 s_0 + a_0 (m^2 + d^2)),
    c4 = tau*a_0*(m^4 + 6 m^2 d^2 + 3 d^4).

    The killing coefficient gamma_0 scales mass without moving the
    surviving density at frozen coefficients, so it does not enter.
    Callers add the conditioning point x to c1 to center a truncation
    interval.
    """
    m, d = taylor.jump_mean, taylor.jump_std
    s0, mu0, a0 = taylor.s[0], taylor.mu[0], taylor.a[0]
    c1 = tau * mu0
    c2 = tau * (2.0 * s0 + a0 * (m**2 + d**2))
    c4 = tau * a0 * (m**4 + 6.0 * m**2 * d**2 + 3.0 * d**4)
    return c1, c2, c4


@dataclass(frozen=True)
class CharFuncApprox:
    """Coefficient functions g_{n,k}(xi_j) of the order-n approximation.

    A scalar basepoint keeps ``g[k]`` of shape (J,) for k = 0..order, from
    which ``eval`` reconstructs Gamma_n(t, x; T, xi).  A vector basepoint
    keeps only ``g[0]``, shape (n_points, J): each of its expansions is read
    at its own point, where x - xbar = 0.  The coefficients are
    time-homogeneous, so the g_{n,k} depend on time only through the step
    length tau = T - t they were built for, and no time is stored.
    """

    order: int
    basepoint: np.ndarray
    freqs: np.ndarray
    g: tuple

    def eval(self, x, d: int = 0) -> np.ndarray:
        """Gamma_n(t, x; T, xi_j), or for d in {1, 2} it and its first d
        x-derivatives stacked on a new leading axis; scalar basepoint only.

        x may be scalar or an array; the frequency axis is appended last.
        With P = sum_k (x - xbar)^k g_{n,k}, Gamma_n = e^{i xi x} P and

            d/dx   Gamma_n = e^{i xi x} (i xi P + P'),
            d2/dx2 Gamma_n = e^{i xi x} (i xi (i xi P + 2 P') + P''),

        all from one e^{i xi x}; row 0 is the d = 0 value bit for bit.
        """
        if self.basepoint.ndim:
            raise ValueError("eval needs a scalar-basepoint approximation")
        if d not in (0, 1, 2):
            raise ValueError("eval gives x-derivatives of order 0, 1 or 2")
        x = np.asarray(x, dtype=float)
        dx = (x - self.basepoint)[..., None]
        acc = self.g[0] * np.ones_like(dx, dtype=complex)
        for k in range(1, self.order + 1):
            acc = acc + dx**k * self.g[k]
        wave = np.exp(1j * self.freqs * x[..., None])
        out = (wave * acc).reshape(x.shape + self.freqs.shape)
        if not d:
            return out
        # P' = g_1 + 2 dx g_2 and P'' = 2 g_2, rows above the order read 0.
        g1, g2 = (*self.g[1:], 0.0, 0.0)[:2]
        dp = g1 + 2.0 * dx * g2
        first = 1j * self.freqs * acc + dp
        rows = [out, wave * first]
        if d == 2:
            rows.append(wave * (1j * self.freqs * (first + dp) + 2.0 * g2))
        return np.stack(rows)


# Only tau = T - t is read; perfbench/tracing.py reads ``t`` and ``T`` by name.
def build_order_n(
    taylor: TaylorData, t: float, T: float, freqs, order: int, span: float = 0.0
) -> CharFuncApprox:
    """Order-n coefficient functions, n <= 2, by closed-form time integrals.

    With tau = T - t, order 0 returns g_{0,0} = E = e^{tau psi_0} itself,
    exact for constant coefficients.  Orders 1 and 2, with primes denoting
    d/dxi:

        g_{1,1} = tau psi_1 * E
        g_{1,0} = (1 - (i tau^2/2) psi_1 psi_0') * E
        g_{2,2} = ((tau^2/2) psi_1^2 + tau psi_2) * E
        g_{2,1} = (tau psi_1 - (i tau^3/2) psi_0' psi_1^2
                   - (i tau^2/2) psi_1 psi_1' - i tau^2 psi_2 psi_0') * E
        g_{2,0} = (1 - (i tau^2/2) psi_1 psi_0' - (tau^4/8) psi_0'^2 psi_1^2
                   - (tau^3/6) psi_0' psi_1 psi_1' - (tau^3/6) psi_1^2 psi_0''
                   - (tau^3/3) psi_2 psi_0'^2 - (tau^2/2) psi_2 psi_0'') * E

    where E = e^{tau psi_0}.  Every coefficient with index >= 1 vanishes for
    constant model coefficients since psi_1 = psi_2 = 0 then.

    The corrections form an asymptotic series: they are only meaningful
    while the zeroth correction factor stays near 1.  With exponentially
    state-dependent coefficients the factors diverge at basepoints deep in
    the tail of the grid (psi_1, psi_0' grow like the squared volatility),
    which would otherwise feed unbounded garbage into the expectation
    kernels.  Entries whose correction factor leaves the trust region
    |factor - 1| <= _TRUST fall back to the order-0 value, which is a
    genuine (sub-stochastic) characteristic function and always bounded.

    ``span`` is the half-width of the state interval over which the
    (x - basepoint)^h reconstruction will be applied.  When positive, the
    trust test also rejects entries whose scaled higher corrections
    span**h * |g_{n,h}/g_{n,0}| leave the trust region: those terms are
    the tail of the same asymptotic series and feeding them into an
    expectation kernel over a wide interval makes the backward recursion
    expansive (coefficient norms otherwise grow by an order of magnitude
    per step).  The default span of 0 applies the test only to the zeroth
    factor, appropriate when the kernel is evaluated at the basepoint
    itself.  A vector basepoint (one expansion per point, read at that
    point only) returns g_{n,0} alone and takes no span.

    Each symbol is linear in its Taylor row, psi_h = (mu_h, s_h, gamma_h,
    a_h) . (i xi, -xi^2, -1, nuhat - 1 - i m xi), and so are its
    xi-derivatives; all of them come from one small real matrix product
    per order h.  A vector basepoint is built in blocks of node rows sized
    so that each (rows, J) temporary stays near _BLOCK_BYTES (64 rows at
    J = 256) and the block's working set stays in cache; a scalar
    basepoint is a single block.  psi_0 and E are evaluated exactly as in
    ``levy_symbol_psi``, so fallback entries equal
    exp(tau * levy_symbol_psi) bit for bit.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"approximation order must be in 0..{MAX_ORDER}")
    if taylor.order < order:
        raise ValueError("TaylorData order is lower than requested")
    vector = bool(taylor.basepoint.ndim)
    if vector and span > 0.0:
        raise ValueError("span applies to scalar basepoints only")
    xi = np.asarray(freqs, dtype=float)
    tau = T - t
    if order == 0:
        g0 = np.exp(tau * _symbol(taylor, 0, xi))
        return CharFuncApprox(0, taylor.basepoint, xi, (g0,))

    F = _frequency_factors(xi, taylor.jump_mean, taylor.jump_std)
    # The xi-derivatives of psi_h that the coefficients read, per order h.
    derivs = ((1,), (0,)) if order == 1 else ((1, 2), (0, 1), (0,))
    panels = [np.concatenate(F[list(ks)], axis=-1).view(float) for ks in derivs]
    rows = [_coeff_rows(taylor, h) for h in range(order + 1)]
    n, J = rows[0].shape[0], xi.size
    g = np.empty((1 if vector else order + 1, n, J), dtype=complex)
    step = max(1, _BLOCK_BYTES // g[0, 0].nbytes)
    for lo in range(0, n, step):
        blk = slice(lo, lo + step)
        p0 = _symbol(_row_block(taylor, blk), 0, xi)
        base = np.exp(tau * p0)
        # Real coefficient rows times the real view of the complex panels.
        sym = [
            np.split((r[blk] @ w).view(complex), len(ks), axis=-1)
            for r, w, ks in zip(rows, panels, derivs)
        ]
        # corr[0] = g_{n,0}/E - 1 and corr[h] = g_{n,h}/E for h >= 1.
        if order == 1:
            (dp0,), (p1,) = sym
            corr = [-0.5j * tau**2 * p1 * dp0]
            if not vector:
                corr.append(tau * p1)
        else:
            (dp0, d2p0), (p1, dp1), (p2,) = sym
            # psi_1^2, psi_1 psi_0' and psi_2 psi_0' serve all three rows;
            # psi_0'^2 psi_1^2 = (psi_1 psi_0')^2.
            q, u, w = p1 * p1, p1 * dp0, p2 * dp0
            corr = [
                (-0.5j * tau**2 - tau**3 / 6.0 * dp1 - tau**4 / 8.0 * u) * u
                - (tau**3 / 6.0 * q + 0.5 * tau**2 * p2) * d2p0
                - tau**3 / 3.0 * w * dp0
            ]
            if not vector:
                corr.append(tau * p1 - 1j * tau**2 * (0.5 * p1 * (tau * u + dp1) + w))
                corr.append(0.5 * tau**2 * q + tau * p2)
        bad = np.abs(corr[0]) > _TRUST
        if span > 0.0:
            for h in range(1, order + 1):
                bad |= span**h * np.abs(corr[h]) > _TRUST_SPAN
        for c in corr:
            c[bad] = 0.0
        corr[0] += 1.0
        for h, c in enumerate(corr):
            np.multiply(c, base, out=g[h, blk])
    if not vector:
        g = g[:, 0]
    return CharFuncApprox(order, taylor.basepoint, xi, tuple(g))
