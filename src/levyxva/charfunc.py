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

import functools
from dataclasses import dataclass

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
# node rows at J = 256, so a block's working set stays in cache.  Above
# glibc's 128 KB mmap threshold such a temporary is not recycled: built
# into fresh arrays, a J = 256 XVA solve took ~624 minor page faults per
# step (62 400 per request), which is why a solve builds every step into
# one ``NodeWorkspace``.
_BLOCK_BYTES = 1 << 18
# exp(z) rounds to +-0 for Re z below this (exp(-745.14) is under half the
# smallest subnormal).
_EXP_UNDERFLOW = -745.2
# The symbols of an order-n build as (h, k) for tau psi_h^(k), k the
# xi-derivative: a = tau psi_1, b = tau psi_0', c = tau psi_0'',
# e = tau psi_1', f = tau psi_2 (see build_order_n).
_SYMBOLS = ((), ((1, 0), (0, 1)), ((1, 0), (0, 1), (0, 2), (1, 1), (2, 0)))
# Complex block temporaries: E, one per symbol, then U = a b and two for
# the correction polynomial.
_TEMPS = 1 + len(_SYMBOLS[MAX_ORDER]) + 3


def _block_rows(J: int) -> int:
    """Node rows per block of a vector-basepoint build."""
    return max(1, _BLOCK_BYTES // (16 * J))


class NodeWorkspace:
    """Everything a build of one expansion reads or writes besides its
    ``TaylorData``: ``taylor`` at ``freqs`` over tau at ``order``.
    ``build_order_n`` builds into a new one, or into the one it is given if
    that was made for the same expansion, so a solve that builds its node
    kernel at every step allocates no J x J array after its first.

    Formed here, once, and read by every build: ``panels``, tau times the
    real view of the ``_frequency_factors`` (a real coefficient row times
    panels[k] is the real view of tau psi_h^(k)); ``cols``, the order-0
    coefficient columns, and ``rows``, the coefficient rows of orders
    0..order, one stack for all; ``terms``, the ``_symbol_terms`` repeated
    over the block rows (so that no ufunc of a block broadcasts an
    operand); and ``deep``, the basepoints whose tau psi_0 can reach
    _EXP_UNDERFLOW: |nuhat| <= 1, so Re(tau psi_0) >= -tau (|s_0| xi^2 +
    |gamma_0| + 2 |a_0|), and only their blocks are tested entry by entry.

    Written by every build, which overwrites what the previous one
    returned: ``g`` (rows, n, J) complex receives g_{n,0} (and every
    g_{n,k} at a scalar basepoint); ``psi`` (n, J) float64, C-contiguous,
    the weights of ``cos.step_kernel``, and ``psi_dw`` of the same layout
    the kernel's ``psi_dw`` when that is first read.  Row blocks are formed
    in (rows, J) temporaries: nine complex ones in ``cplx`` (tau psi_0 and
    then E in place, the symbols a, b, c, e, f, U = a b and two for the
    correction polynomial), the trust ``mask`` with its real magnitudes
    ``mag``, and the ``dead`` mask of entries whose exponential underflows;
    3 MB at J = 256 with ``terms``.  Each is its own allocation of at most
    2 * _BLOCK_BYTES.  A single larger block, freed at the end of a solve,
    raises glibc's dynamic mmap threshold past 1 MB and changes how the
    whole process reuses memory: the benchmark's ``dense_complex``
    calibration kernel then took 184 minor faults per call instead of
    1024, which skews the benchmark's machine-speed calibration.
    """

    def __init__(self, taylor: TaylorData, freqs, tau: float, order: int):
        if not 0 <= order <= MAX_ORDER:
            raise ValueError(f"approximation order must be in 0..{MAX_ORDER}")
        if taylor.order < order:
            raise ValueError("TaylorData order is lower than requested")
        self.taylor, self.freqs, self.tau, self.order = taylor, freqs, tau, order
        xi = np.asarray(freqs, dtype=float)
        n, J = taylor.basepoint.size, xi.size
        block = min(n, _block_rows(J))
        F, terms = _frequency_factors(xi, taylor.jump_mean, taylor.jump_std)
        F *= tau
        self.panels = F.view(float)
        self.cols = _coeff_columns(taylor, 0)
        rows = np.stack((taylor.mu, taylor.s, taylor.gamma, taylor.a), axis=-1)
        self.rows = rows.reshape(taylor.order + 1, -1, 4)[: order + 1]
        self.terms = [np.full((block, J), term, dtype=complex) for term in terms]
        reach = np.abs(taylor.s[0]) * np.max(xi**2, initial=0.0)
        reach = tau * (reach + np.abs(taylor.gamma[0]) + 2.0 * np.abs(taylor.a[0]))
        self.deep = np.atleast_1d(reach > -_EXP_UNDERFLOW)
        self.g = np.empty((1 if taylor.basepoint.ndim else order + 1, n, J), dtype=complex)
        self.psi = np.empty((n, J))
        self.psi_dw = np.empty((n, J))
        self.cplx = [np.empty((block, J), dtype=complex) for _ in range(_TEMPS)]
        self.mag = np.empty((block, J))
        self.mask = np.empty((block, J), dtype=bool)
        self.dead = np.empty((block, J), dtype=bool)


def _coeff_columns(taylor: TaylorData, h: int) -> np.ndarray:
    """Order-h rows (mu_h, s_h, gamma_h, a_h) as complex, stacked on a
    leading axis of 4 and lifted for broadcasting against a frequency axis."""
    rows = (taylor.mu[h], taylor.s[h], taylor.gamma[h], taylor.a[h])
    cols = np.array(rows, dtype=complex)
    return cols[..., None] if cols.ndim > 1 else cols


def _jump_transform(xi: np.ndarray, m: float, d: float):
    """nuhat and its first two xi-derivatives for q ~ N(m, d^2)."""
    nu = np.exp(1j * m * xi - 0.5 * d**2 * xi**2)
    slope = 1j * m - d**2 * xi
    return nu, slope * nu, (slope**2 - d**2) * nu


def _symbol_terms(xi: np.ndarray, m: float, nu: np.ndarray):
    """The complex frequency terms (i xi, xi^2, nuhat - 1 - i m xi) that
    psi_h pairs with (mu_h, s_h, gamma_h, a_h)."""
    return 1j * xi, np.asarray(xi**2, dtype=complex), nu - 1.0 - 1j * m * xi


def levy_symbol_psi(taylor: TaylorData, xi) -> np.ndarray:
    """Frozen Levy symbol psi_0 built from the order-0 coefficient row.

    The symbol is entire in xi, so complex arguments are accepted; the
    value at ``xi = -1j`` is ``exp(rT)``-drift check territory (it equals
    the short rate for a risk-neutral, default-free parameterisation).
    """
    xi = np.asarray(xi)
    if not np.iscomplexobj(xi):
        xi = xi.astype(float)
    m = taylor.jump_mean
    nu, _, _ = _jump_transform(xi, m, taylor.jump_std)
    cols = _coeff_columns(taylor, 0)
    out = np.empty(np.broadcast_shapes(xi.shape, cols[0].shape), dtype=complex)
    return _symbol(cols, _symbol_terms(xi, m, nu), out, np.empty_like(out))


def _symbol(coef, terms, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """psi_h(xi) = i xi mu_h - s_h xi^2 - gamma_h + a_h (nuhat - 1 - i m xi)
    from the complex coefficients ``coef`` = (mu_h, s_h, gamma_h, a_h) and
    frequency terms of ``_symbol_terms``, evaluated term by term into the
    complex array ``out`` with ``tmp`` of the same shape as scratch.

    Every operand is complex, so no ufunc casts; (x + 0i)(y + 0i) rounds
    as the real product x y does, so a real operand lifted to complex
    gives the bytes of the real one.  Each coefficient is first copied
    into ``out`` or ``tmp`` across the frequency axis: with terms of the
    full shape no operand of an arithmetic ufunc broadcasts, and numpy
    allocates no iteration buffer (one of up to 128 KB per broadcast
    complex operand)."""
    mu, s, gam, a = coef
    ixi, xi2, jump = terms
    np.multiply(ixi, _fill(out, mu), out=out)
    np.subtract(out, np.multiply(_fill(tmp, s), xi2, out=tmp), out=out)
    np.subtract(out, _fill(tmp, gam), out=out)
    np.multiply(_fill(tmp, a), jump, out=tmp)
    return np.add(out, tmp, out=out)


def _fill(dst: np.ndarray, value) -> np.ndarray:
    """``dst`` with ``value`` broadcast into it."""
    np.copyto(dst, value)
    return dst


def _frequency_factors(xi: np.ndarray, m: float, d: float):
    """F[k] such that psi_h^(k)(xi) = (mu_h, s_h, gamma_h, a_h) @ F[k],
    and the ``_symbol_terms`` of xi, from one jump transform.

    Each symbol is linear in its coefficient row, so it and its first two
    xi-derivatives are rank-4 products with these frequency vectors.
    """
    nu, dnu, d2nu = _jump_transform(xi, m, d)
    terms = _symbol_terms(xi, m, nu)
    F = np.zeros((3, 4, xi.size), dtype=complex)
    F[0, 0], F[0, 1], F[0, 2], F[0, 3] = terms[0], -(xi**2), -1.0, terms[2]
    F[1, 0], F[1, 1], F[1, 3] = 1j, -2.0 * xi, dnu - 1j * m
    F[2, 1], F[2, 3] = -2.0, d2nu
    return F, terms


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
    length tau = T - t they were built for, and no time is stored.  The
    rows live in ``work``, the ``NodeWorkspace`` they were built into, and
    a later build into it overwrites them.
    """

    order: int
    basepoint: np.ndarray
    freqs: np.ndarray
    g: tuple
    work: NodeWorkspace

    def eval(self, x, d: int = 0) -> np.ndarray:
        """Gamma_n(t, x; T, xi_j), or for d in {1, 2} it and its first d
        x-derivatives stacked on a new leading axis; scalar basepoint only.

        x may be scalar or an array; the frequency axis is appended last.
        With P = sum_k (x - xbar)^k g_{n,k}, Gamma_n = e^{i xi x} P and

            d/dx   Gamma_n = e^{i xi x} (i xi P + P'),
            d2/dx2 Gamma_n = e^{i xi x} (i xi (i xi P + 2 P') + P''),

        all from one e^{i xi x}; row 0 is the d = 0 value bit for bit.
        Correction rows that the trust region zeroed entirely are skipped:
        they would only add zeros.
        """
        if self.basepoint.ndim:
            raise ValueError("eval needs a scalar-basepoint approximation")
        if d not in (0, 1, 2):
            raise ValueError("eval gives x-derivatives of order 0, 1 or 2")
        x = np.asarray(x, dtype=float)
        dx = (x - self.basepoint)[..., None]
        acc = self.g[0] * np.ones_like(dx, dtype=complex)
        for k in self._live_orders:
            acc = acc + dx**k * self.g[k]
        wave = np.exp(self._ixi * x[..., None])
        out = (wave * acc).reshape(x.shape + self.freqs.shape)
        if not d:
            return out
        first = self._ixi * acc
        if self._live_orders:
            # P' = g_1 + 2 dx g_2 and P'' = 2 g_2, rows above the order read 0.
            g1, g2 = (*self.g[1:], 0.0, 0.0)[:2]
            dp = g1 + 2.0 * dx * g2
            first = first + dp
        rows = [out, wave * first]
        if d == 2:
            if self._live_orders:
                rows.append(wave * (self._ixi * (first + dp) + 2.0 * g2))
            else:
                rows.append(wave * (self._ixi * first))
        return np.stack(rows)

    def fold(self, weights):
        """Value and x-slope of Re sum_j weights_j Gamma_n(x; xi_j) as a
        function ``series(wave, x)`` of x and wave = e^{i xi x}; scalar
        basepoint only.

        With Q_k = weights g_{n,k} for k = 0 and each live order, the value
        is Re(wave . sum_k dx^k Q_k) and the slope is
        Re(wave . (i xi sum_k dx^k Q_k + sum_k k dx^{k-1} Q_k)), the rule of
        ``eval`` with dx = x - xbar: Q_k and i xi Q_k are formed once per
        fold into one (2K x J) array, from the stacked rows g_{n,k} and i xi
        that the expansion forms on its first fold, and a call takes their
        product with the wave and a few scalar operations.
        """
        if self.basepoint.ndim:
            raise ValueError("fold needs a scalar-basepoint approximation")
        orders, g = self._fold_rows
        K = len(orders)
        rows = np.empty((2 * K, g.shape[-1]), dtype=complex)
        q = np.multiply(g, weights, out=rows[:K])
        np.multiply(self._ixi, q, out=rows[K:])
        xbar = float(self.basepoint)

        def series(wave, x):
            dots = (rows @ wave).tolist()
            dx = x - xbar
            value = slope = 0j
            for k, qk, rk in zip(orders, dots[:K], dots[K:]):
                value += dx**k * qk
                slope += dx**k * rk + (k * dx ** (k - 1) * qk if k else 0.0)
            return value.real, slope.real

        return series

    @functools.cached_property
    def _ixi(self) -> np.ndarray:
        """Read-only i xi_j, formed once per expansion."""
        ixi = 1j * self.freqs
        ixi.setflags(write=False)
        return ixi

    @functools.cached_property
    def _fold_rows(self) -> tuple:
        """The orders that ``fold`` reads, k = 0 and each live order, and
        their rows g_{n,k} stacked read-only, formed once per expansion."""
        orders = (0, *self._live_orders)
        g = np.stack([self.g[k] for k in orders])
        g.setflags(write=False)
        return orders, g

    @functools.cached_property
    def _live_orders(self) -> tuple:
        """Orders k >= 1 whose row g[k] has a nonzero entry."""
        return tuple(k for k in range(1, self.order + 1) if self.g[k].any())


# Only tau = T - t is read; perfbench/tracing.py reads ``t`` and ``T`` by name.
def build_order_n(
    taylor: TaylorData,
    t: float,
    T: float,
    freqs,
    order: int,
    span: float = 0.0,
    out: NodeWorkspace | None = None,
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
    xi-derivatives.  With the frequency vectors scaled by tau once per
    build, one small real matrix product per symbol writes the real view
    of its own contiguous (rows, J) complex array:

        a = tau psi_1, b = tau psi_0', c = tau psi_0'', e = tau psi_1',
        f = tau psi_2,

    so that, with U = a b, the correction factors carry no tau:

        g_{2,0}/E - 1 = U (-i/2 - e/6 - U/8) - c (a^2/6 + f/2) - f b^2/3
        g_{2,1}/E     = a - i (a (U + e)/2 + f b)
        g_{2,2}/E     = a^2/2 + f
        g_{1,0}/E - 1 = -(i/2) U,   g_{1,1}/E = a.

    Every product of the first row runs on contiguous arrays of one
    shape, in the order written, and scalar and vector basepoints share
    it, so the two agree on every trust-region entry.  A vector basepoint
    is built in blocks of node rows sized so that each (rows, J) temporary
    stays near _BLOCK_BYTES (64 rows at J = 256) and the block's working
    set stays in cache; a scalar basepoint is a single block.  Every block
    operation writes into one set of block temporaries.  psi_0 and E are
    evaluated by the same ``_symbol`` as ``levy_symbol_psi``, with E =
    exp(tau psi_0) taken in place, so fallback entries equal
    exp(tau * levy_symbol_psi) bit for bit; where Re(tau psi_0) <
    _EXP_UNDERFLOW that exponential is exactly +-0, and E is written as 0
    there without evaluating it.  Rejected corrections are zeroed by a
    masked copy, and (1 + 0) E rounds to E.

    Every build writes into a ``NodeWorkspace``: a new one, or ``out``,
    which must have been made for this ``taylor`` and ``freqs`` (compared
    by identity) at this tau and order.  The workspace holds the inputs
    that do not depend on the block, so a solve that builds every step
    into one forms them once; every build still forms all n x J symbols,
    exponentials, corrections and weights.  The returned rows are views of
    the workspace, which it carries as ``work``, and the next build into
    it overwrites them; the values do not depend on what the workspace
    held.  The allocator does not recycle temporaries of this size (see
    _BLOCK_BYTES): a J = 256, N = M = 10 XVA request took 62 400 minor
    page faults building into a new workspace at every step, and
    1 280-1 345, the workspace's first touch, building into one.
    """
    vector = bool(taylor.basepoint.ndim)
    if vector and span > 0.0:
        raise ValueError("span applies to scalar basepoints only")
    tau = T - t
    if out is None:
        out = NodeWorkspace(taylor, freqs, tau, order)
    elif out.taylor is not taylor or out.freqs is not freqs or (out.tau, out.order) != (tau, order):
        raise ValueError("out was made for another expansion")
    xi = np.asarray(freqs, dtype=float)
    n, J = taylor.basepoint.size, xi.size
    step = _block_rows(J)
    g, buf = out.g, out.cplx
    for lo in range(0, n, step):
        blk = slice(lo, lo + step)
        k = min(step, n - lo)
        coef = out.cols[:, blk] if vector else out.cols
        base = _symbol(coef, [full[:k] for full in out.terms], buf[0][:k], buf[1][:k])
        np.multiply(tau, base, out=base)
        E = base if order else g[0, blk]
        # Below _EXP_UNDERFLOW, e^{tau psi_0} is exactly +-0 and costs more
        # to evaluate than a live entry, so it is written instead.
        dead = out.dead[:k]
        if out.deep[blk].any() and np.less(base.real, _EXP_UNDERFLOW, out=dead).any():
            np.exp(base, out=E, where=np.logical_not(dead, out=out.mask[:k]))
            np.copyto(E, 0.0, where=dead)
        else:
            np.exp(base, out=E)
        if not order:
            continue
        # a = tau psi_1, b = tau psi_0', then c = tau psi_0'', e = tau psi_1'
        # and f = tau psi_2 at order 2; U = a b.
        a, b, *rest = (
            np.matmul(out.rows[h][blk], out.panels[d], out=sym[:k].view(float)).view(complex)
            for (h, d), sym in zip(_SYMBOLS[order], buf[1:])
        )
        u, x, y = buf[6][:k], buf[7][:k], buf[8][:k]
        np.multiply(a, b, out=u)
        # corr[0] = g_{n,0}/E - 1 and corr[h] = g_{n,h}/E for h >= 1.
        if order == 1:
            np.multiply(u, -0.5j, out=x)
            corr = [x] if vector else [x, a]
        else:
            c, e, f = rest
            corr = [x]
            if not vector:
                corr.append(a - 1j * (0.5 * a * (u + e) + f * b))
                corr.append(0.5 * a * a + f)
            # U (-i/2 - e/6 - U/8) - c (a^2/6 + f/2) - f b^2/3
            np.multiply(e, -1.0 / 6.0, out=x)
            np.subtract(x, 0.5j, out=x)
            np.subtract(x, np.multiply(u, 0.125, out=y), out=x)
            np.multiply(x, u, out=x)
            np.multiply(a, a, out=y)
            np.multiply(y, 1.0 / 6.0, out=y)
            np.add(y, np.multiply(f, 0.5, out=u), out=y)
            np.subtract(x, np.multiply(y, c, out=y), out=x)
            np.multiply(b, b, out=y)
            np.multiply(y, f, out=y)
            np.subtract(x, np.multiply(y, 1.0 / 3.0, out=y), out=x)
        bad = np.greater(np.abs(x, out=out.mag[:k]), _TRUST, out=out.mask[:k])
        if span > 0.0:
            for h in range(1, order + 1):
                bad |= span**h * np.abs(corr[h]) > _TRUST_SPAN
        for cr in corr:
            np.copyto(cr, 0.0, where=bad)
        x += 1.0
        for h, cr in enumerate(corr):
            np.multiply(cr, base, out=g[h, blk])
    if not vector:
        g = g[:, 0]
    return CharFuncApprox(order, taylor.basepoint, xi, tuple(g), out)
