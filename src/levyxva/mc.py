"""Monte Carlo oracle: Euler paths with state-dependent jumps and default,
least-squares Monte Carlo for Bermudan XVA and CVA.

The Euler step freezes the coefficients over [t_k, t_k + dt]:

    X_{k+1} = X_k + mu(X_k) dt + sigma(X_k) sqrt(dt) Z
              + m N_k + delta sqrt(N_k) Z' - a(X_k) m dt,

with N_k ~ Poisson(a(X_k) dt); the Gaussian jump sizes are aggregated
exactly conditional on the count.  Default is carried either as the
survival weight e^{-int gamma dt} (variance-reduced, the default) or by
thinning against an exponential clock (validates the default-probability
law).

``simulate`` and the CVA pair step through one path loop, which draws
per step the jump counts, then the normals Z and Z', on one random stream
and evaluates sigma, a and (for a defaultable model) gamma once per
model, with one exponential per distinct slope
(``ModelSpec.coeff_values``).  The two differ only in the counts:
``simulate`` draws them from the generator's Poisson law (mean clamped
at ``_POISSON_CLAMP``), while the pair shares one uniform across its two
legs and inverts each leg's Poisson CDF, so the legs stay
coupled even though their intensities drift apart.  The inverse CDF caps
the mean a(x) dt at ``_POISSON_CAP``; every draw at the cap shares one
Poisson CDF, a table built once and searched, and only draws below the
cap sum the pmf term by term.

One fused Euler step serves both simulators: it writes X_{k+1} in place
into the next row of a time-major (steps+1, paths) store, through two
scratch rows, in the operation order of the update written out term by
term, so each path is that update bit for bit.  Jumps are added only
where the count is nonzero (elsewhere the term is +-0).  A default-free
leg evaluates no hazard and has no survival store: its weight is a
read-only broadcast 1.0 of the store's shape, eight bytes where a store
of (steps+1, paths) float64 would hold the same ones.

Every LSM regression is a least-squares projection onto polynomials of
the standardized state, expanded in the polynomials orthogonal on the fit
sample (three-term recurrence), so each coefficient is one dot product
and no power basis or matrix factorization is formed.
"""
from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import model as modelmod
from .bermudan import ExerciseSchedule, PayoffSpec, payoff_eval
from .bsde import DriverSpec, scheme_driver

_HEADER = struct.Struct("<QQQ")
_POISSON_CAP = 200.0
# Largest mean ``simulate`` passes to the generator's Poisson draw.
_POISSON_CLAMP = 1e6


@dataclass(frozen=True)
class PathBatch:
    """Simulated log-asset paths plus default information.

    ``x`` and ``survival`` have shape (paths, steps+1) and are transposed
    views of time-major stores, so ``x[:, k]`` is contiguous; copy with
    ``np.ascontiguousarray`` where path-major bytes are needed.  A
    default-free model's ``survival`` is a read-only broadcast 1.0 with
    zero strides, not a store; copy it before writing.  Column k
    is time k ``dt``.  ``poisson_truncated`` counts the jump draws the CRN
    pair's inverse CDF cut off at ``_POISSON_CAP + 1``, or, from
    ``simulate``, the draws whose mean a(x) dt exceeded ``_POISSON_CLAMP``
    and was clamped to it; it is 0 when every draw is exact.
    """

    x: np.ndarray
    survival: np.ndarray
    default_time: np.ndarray | None
    seed: int
    dt: float
    rate_r: float
    poisson_truncated: int = 0

    @property
    def n_paths(self) -> int:
        return self.x.shape[0]

    @property
    def steps(self) -> int:
        return self.x.shape[1] - 1


def _cap_cdf() -> np.ndarray:
    """Poisson(_POISSON_CAP) CDF at k = 0 .. _POISSON_CAP, summed by the
    same recurrence as ``_poisson_icdf``'s loop, so a draw at the cap reads
    the exact values the loop would have compared against."""
    pmf = cdf = np.exp(-_POISSON_CAP)
    table = [cdf]
    for k in range(1, int(_POISSON_CAP) + 1):
        pmf = pmf * _POISSON_CAP / k
        cdf = cdf + pmf
        table.append(cdf)
    table = np.array(table)
    table.flags.writeable = False
    return table


_CAP_CDF = _cap_cdf()


def _poisson_icdf(u: np.ndarray, mu: np.ndarray) -> tuple:
    """Smallest k with Poisson(min(mu, _POISSON_CAP)) CDF >= u for 1-D u and
    mu, by summing the pmf recursively; returns (counts, number of
    truncated draws).

    A draw still pending after k = _POISSON_CAP is truncated to
    _POISSON_CAP + 1.  Only the draws with u above the k = 0 pmf go on
    past k = 0.  Those at the cap share one CDF and are resolved by a
    search of ``_CAP_CDF``: the left insertion point is the smallest k
    with CDF >= u, and one past the table when u exceeds its last entry.
    The loop updates only the still-pending entries, each by the same
    operations as a full-array loop, so the counts are identical to it.
    """
    mu = np.minimum(mu, _POISSON_CAP)
    pmf = np.exp(-mu)
    counts = np.zeros(u.shape, dtype=np.int64)
    idx = np.flatnonzero(u > pmf)
    at_cap = mu[idx] == _POISSON_CAP
    cap_idx, idx = idx[at_cap], idx[~at_cap]
    cap_counts = np.searchsorted(_CAP_CDF, u[cap_idx], side="left")
    counts[cap_idx] = cap_counts
    truncated = int(np.count_nonzero(cap_counts == _CAP_CDF.size))
    u, mu, pmf = u[idx], mu[idx], pmf[idx]
    cdf = pmf
    k = 0
    while idx.size and k < _POISSON_CAP:
        k += 1
        pmf = pmf * mu / k
        cdf = cdf + pmf
        counts[idx] = k
        keep = u > cdf
        idx, u, mu, pmf, cdf = idx[keep], u[keep], mu[keep], pmf[keep], cdf[keep]
    counts[idx] = k + 1
    return counts, truncated + idx.size


def _guard_band(mdl, T):
    """Absorbing band far outside any Fourier truncation range.

    Exponentially state-dependent coefficients explode along rare jump
    cascades (the discretized model is numerically explosive deep in the
    tail); paths are absorbed once they leave a 25-standard-deviation
    band, a <=1e-5 tail event far below Monte Carlo resolution.
    """
    from . import charfunc

    tay = modelmod.taylor_expand(mdl, 0.0, mdl.spot_x0, 0)
    c1, c2, c4 = charfunc.cumulants(tay, T)
    spread = max(25.0 * math.sqrt(c2 + math.sqrt(c4)) + abs(c1), 1.0)
    return mdl.spot_x0 - spread, mdl.spot_x0 + spread


def _check_run(T, steps: int, n_paths: int, seed: int) -> None:
    """Reject a horizon, size or seed (uint64 in ``dump_paths``) that a run cannot take."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"T must be a finite horizon > 0, got {T!r}")
    modelmod._require_count("steps", steps)
    modelmod._require_count("n_paths", n_paths)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer, got {seed!r}")


def _paths(models, T, steps, n_paths, seed, rng, draw_counts, terminal_only=False) -> list:
    """Euler paths of every model on one random stream, one batch each.

    Each step evaluates sigma and a of every model (gamma only where the
    default intensity is nonzero), draws the jump counts with
    ``draw_counts(rng, means)`` (one (counts, truncated draws) pair per
    model, from its a(x) dt), then the normals z and z2 that all models
    share, and absorbs every model on the union of their guard bands.
    Step k reads store row k and writes row k + 1, in the order
    (((x + mu dt) + (sigma sqrt(dt)) z) + jumps) - (a m) dt with
    mu = ((gamma + r) - (0.5 sigma) sigma) - a kappa.  With
    ``terminal_only`` the stores keep two rows, time k in row k % 2, and
    each batch holds times 0 and T alone (dt = T), for readers of the
    terminal column such as ``estimate_charfunc``; its terminal rows are
    those of the full stores bit for bit.
    """
    dt = T / steps
    sqrt_dt = math.sqrt(dt)
    los, his = zip(*(_guard_band(mdl, T) for mdl in models))
    lo, hi = min(los), max(his)
    rows = 2 if terminal_only else steps + 1
    xs = [np.empty((rows, n_paths)) for _ in models]
    survs = [
        np.broadcast_to(np.float64(1.0), (rows, n_paths))
        if mdl.default_intensity.is_zero
        else np.empty((rows, n_paths))
        for mdl in models
    ]
    drift, tmp, z, z2 = np.empty((4, n_paths))
    truncated = [0] * len(models)
    for x, surv, mdl in zip(xs, survs, models):
        x[0] = mdl.spot_x0
        if not mdl.default_intensity.is_zero:
            surv[0] = 1.0
    for k in range(steps):
        now, nxt = k % rows, (k + 1) % rows
        coeffs = [
            mdl.coeff_values(x[now], hazard=not mdl.default_intensity.is_zero)
            for mdl, x in zip(models, xs)
        ]
        draws = draw_counts(rng, [lam * dt for _, lam, _ in coeffs])
        rng.standard_normal(out=z)
        rng.standard_normal(out=z2)
        for leg, (mdl, x, surv, (sig, lam, gam)) in enumerate(zip(models, xs, survs, coeffs)):
            counts, cut = draws[leg]
            truncated[leg] += cut
            m, d = mdl.jump_law.mean, mdl.jump_law.std
            half_var = np.multiply(np.multiply(sig, 0.5, out=tmp), sig, out=tmp)
            if mdl.default_intensity.is_zero:
                np.subtract(mdl.default_intensity.level + mdl.rate_r, half_var, out=drift)
            else:
                np.subtract(np.add(gam, mdl.rate_r, out=drift), half_var, out=drift)
                np.exp(np.multiply(gam, -dt, out=tmp), out=tmp)
                np.multiply(surv[now], tmp, out=surv[nxt])
            drift -= np.multiply(lam, mdl.kappa, out=tmp)
            drift *= dt
            x_next = np.add(x[now], drift, out=x[nxt])
            x_next += np.multiply(np.multiply(sig, sqrt_dt, out=tmp), z, out=tmp)
            hit = np.flatnonzero(counts > 0)
            n_hit = counts[hit]
            x_next[hit] += m * n_hit + d * np.sqrt(n_hit) * z2[hit]
            x_next -= np.multiply(np.multiply(lam, m, out=tmp), dt, out=tmp)
            np.clip(x_next, lo, hi, out=x_next)
    if terminal_only:
        for x, surv, mdl in zip(xs, survs, models):
            x[1], x[0] = x[steps % 2], mdl.spot_x0
            if not mdl.default_intensity.is_zero:
                surv[1], surv[0] = surv[steps % 2], 1.0
    spacing = T if terminal_only else dt
    return [
        PathBatch(x.T, surv.T, None, seed, spacing, mdl.rate_r, poisson_truncated=cut)
        for mdl, x, surv, cut in zip(models, xs, survs, truncated)
    ]


def _poisson_counts(rng, means) -> list:
    """Poisson counts, one independent draw per model, each with the number
    of its draws whose mean was clamped to ``_POISSON_CLAMP``."""
    clamp = _POISSON_CLAMP
    return [(rng.poisson(np.minimum(m, clamp)), int(np.count_nonzero(m > clamp))) for m in means]


def _shared_uniform_counts(rng, means) -> list:
    """Counts from one shared uniform by each model's capped inverse CDF."""
    u = rng.random(len(means[0]))
    return [_poisson_icdf(u, mean) for mean in means]


def _default_times(mdl, x, dt, clock) -> np.ndarray:
    """End of the step in which the cumulative hazard of each stored path
    passes its exponential clock; inf where it never does."""
    default_time = np.full(clock.shape, np.inf)
    cumhaz = np.zeros(clock.shape)
    for k in range(x.shape[1] - 1):
        new_haz = cumhaz + mdl.default_intensity(x[:, k]) * dt
        hit = (clock > cumhaz) & (clock <= new_haz)
        default_time[hit] = (k + 1) * dt
        cumhaz = new_haz
    return default_time


def simulate(
    mdl: modelmod.ModelSpec,
    T: float,
    steps: int,
    n_paths: int,
    seed: int,
    default_mode: str = "weight",
) -> PathBatch:
    """Euler simulation of the model on [0, T]; reproducible under the seed.

    ``default_mode`` "weight" carries only the survival weights; "thin"
    additionally samples default times against an exponential clock, drawn
    before the paths.  Jump counts are Poisson draws, with the mean clamped
    at ``_POISSON_CLAMP``; ``poisson_truncated`` counts the clamped draws.
    """
    _check_run(T, steps, n_paths, seed)
    if default_mode not in ("weight", "thin"):
        raise ValueError("default_mode must be 'weight' or 'thin'")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    clock = rng.exponential(1.0, n_paths) if default_mode == "thin" else None
    [batch] = _paths([mdl], T, steps, n_paths, seed, rng, _poisson_counts)
    if clock is None:
        return batch
    return replace(batch, default_time=_default_times(mdl, batch.x, batch.dt, clock))


def simulate_crn_pair(
    mdl_a: modelmod.ModelSpec,
    mdl_b: modelmod.ModelSpec,
    T: float,
    steps: int,
    n_paths: int,
    seed: int,
) -> tuple:
    """Two batches driven by common uniforms/normals (for CVA differencing).

    Jump counts come from the shared uniforms by inverse transform under
    each leg's own intensity, so identical models give bitwise-identical
    batches and nearby models stay tightly coupled.  Each batch's
    ``poisson_truncated`` counts its draws cut off at ``_POISSON_CAP + 1``
    jumps.
    """
    _check_run(T, steps, n_paths, seed)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return tuple(_paths((mdl_a, mdl_b), T, steps, n_paths, seed, rng, _shared_uniform_counts))


def _fit_predict(xk: np.ndarray, target: np.ndarray, degree: int, mask=None) -> np.ndarray:
    """Least-squares polynomial prediction of target from standardized xk.

    The basis is the polynomials orthogonal on the fit sample z, built by
    the three-term (Stieltjes) recurrence

        p_0 = 1,  p_{k+1} = z p_k - alpha_k p_k - beta_k p_{k-1},
        alpha_k = <z p_k, p_k> / <p_k, p_k>,
        beta_k = <p_k, p_k> / <p_{k-1}, p_{k-1}>,

    so each coefficient c_k = <target, p_k> / <p_k, p_k> is one dot
    product and sum_k c_k p_k is the least-squares projection onto
    polynomials of the degree, without forming a power basis (outliers at
    the guard band make that one ill-conditioned).  The recurrence runs on
    every point, in place, with its inner products over the fit sample, so
    the prediction sums the basis.

    Degenerate spreads collapse to the plain mean.  A new p_k whose norm
    falls to max(n, degree + 1) * eps (``lstsq``'s default cut-off) of the
    norm of z p_{k-1} marks a rank-deficient design: the fit stops at
    degree k - 1, with one warning per degree dropped.
    """
    rows = slice(None) if mask is None else np.flatnonzero(mask)
    fit_x, fit_y = xk[rows], target[rows]
    mean = fit_x.mean()
    zs = xk - mean
    # fit_x.std() without recomputing the mean, in numpy's own order:
    # the pairwise sum of the squared deviations, over n, then the root.
    dev = zs if mask is None else fit_x - mean
    tmp = np.empty_like(zs)
    sq = np.multiply(dev, dev, out=tmp[: dev.size])
    std = np.sqrt(np.add.reduce(sq) / fit_x.size)
    if std < 1e-12 or fit_x.size <= degree + 1:
        return np.full(xk.shape, fit_y.mean())
    zs /= std
    tol = max(fit_x.size, degree + 1) * np.finfo(float).eps
    p_prev, p, norm_prev, norm = None, np.ones_like(zs), 1.0, float(fit_x.size)
    p_fit = p[rows]
    basis, coef = [], [fit_y.mean()]
    for k in range(1, degree + 1):
        zp = zs if p_prev is None else zs * p
        zp_fit = zp[rows]
        alpha, beta = (zp_fit @ p_fit) / norm, norm / norm_prev
        zp_norm = zp_fit @ zp_fit
        if p_prev is None:  # z p_0, alpha p_0 and beta p_{-1} are exact
            p_next = zp - alpha
        else:
            zp -= np.multiply(p, alpha, out=tmp)
            p_next = np.subtract(zp, np.multiply(p_prev, beta, out=tmp), out=zp)
        p_next_fit = p_next[rows]
        norm_next = p_next_fit @ p_next_fit
        if norm_next <= tol * tol * zp_norm:
            for deg in range(degree, k - 1, -1):
                warnings.warn(f"rank-deficient LSM regression, reducing degree to {deg - 1}")
            break
        coef.append((fit_y @ p_next_fit) / norm_next)
        basis.append(p_next)
        p_prev, p, p_fit, norm_prev, norm = p, p_next, p_next_fit, norm, norm_next
    pred = np.full(xk.shape, coef[0])
    for c, b in zip(coef[1:], basis):
        pred += np.multiply(b, c, out=tmp)
    return pred


def _check_paths(n_paths: int) -> None:
    """A sample standard deviation, and so an interval, needs two paths."""
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2 paths for an estimator, got {n_paths}")


def _exercise_stride(batch: PathBatch, schedule: ExerciseSchedule) -> int:
    _check_paths(batch.n_paths)
    if batch.steps % schedule.M:
        raise ValueError("steps must be divisible by the number of exercise dates")
    if not math.isclose(batch.steps * batch.dt, schedule.T, rel_tol=1e-9):
        raise ValueError("batch horizon must match the schedule")
    return batch.steps // schedule.M


def lsm_price(
    batch: PathBatch,
    payoff: PayoffSpec,
    schedule: ExerciseSchedule,
    driver: DriverSpec,
    degree: int = 3,
) -> tuple:
    """Bermudan value with driver by backward regression (value at t_0).

    Every step regresses the pathwise rollback on the state to supply the
    driver's y argument; exercise decisions at interior dates compare the
    payoff against the regressed continuation.  Returns (estimate,
    (lo, hi)) with a 95% interval from the final cross-path average.
    A full driver with risk-free close-out is rejected: its driver reads
    a mark-to-market that no regression here supplies.
    """
    modelmod._require_count("degree", degree)
    if driver.needs_mtm:
        raise ValueError(
            "lsm_price has no mark-to-market input for a risk-free close-out yet; "
            "use the risky close-out or the cosine engine"
        )
    stride = _exercise_stride(batch, schedule)
    x, dt = batch.x, batch.dt
    v = np.asarray(payoff_eval(payoff, schedule.T, x[:, -1]), dtype=float)
    for k in range(batch.steps - 1, -1, -1):
        xk = x[:, k]
        cont = _fit_predict(xk, v, degree)
        step = dt * scheme_driver(driver, cont)
        v = v + step
        if k > 0 and k % stride == 0:
            phi = np.asarray(payoff_eval(payoff, k * dt, xk), dtype=float)
            ex = phi >= cont + step
            np.copyto(v, phi, where=ex)
    est = float(v.mean())
    half = 1.96 * float(v.std(ddof=1)) / math.sqrt(batch.n_paths)
    return est, (est - half, est + half)


def _bermudan_leg_paths(
    batch: PathBatch, payoff: PayoffSpec, schedule: ExerciseSchedule, degree: int
) -> np.ndarray:
    """Per-path time-0 value of a Bermudan put leg with survival weighting.

    Classic exercise-decision regression on in-the-money paths; cashflows
    are kept in time-0 units (discount times survival weight), so the
    regression target is directly comparable across dates.
    """
    stride = _exercise_stride(batch, schedule)
    x, surv, r, T = batch.x, batch.survival, batch.rate_r, schedule.T
    v = np.asarray(payoff_eval(payoff, T, x[:, -1]), dtype=float) * math.exp(-r * T)
    v *= surv[:, -1]
    for m in range(schedule.M - 1, 0, -1):
        k = m * stride
        t_m = k * batch.dt
        xk = x[:, k]
        phi = np.asarray(payoff_eval(payoff, t_m, xk), dtype=float)
        itm = phi > 0.0
        if not np.any(itm):
            continue
        cont0 = _fit_predict(xk, v, degree, mask=itm)
        phi0 = phi * math.exp(-r * t_m) * surv[:, k]
        ex = itm & (phi0 >= cont0)
        np.copyto(v, phi0, where=ex)
    return v


def lsm_cva(
    batch_d: PathBatch,
    batch_r: PathBatch,
    payoff: PayoffSpec,
    schedule: ExerciseSchedule,
    degree: int = 3,
) -> tuple:
    """CVA estimate by common-random-number leg differencing.

    batch_d carries the defaultable dynamics (survival < 1), batch_r the
    default-free companion; both must come from one CRN pair.  Returns
    (estimate, (lo, hi)).
    """
    modelmod._require_count("degree", degree)
    v_d = _bermudan_leg_paths(batch_d, payoff, schedule, degree)
    v_r = _bermudan_leg_paths(batch_r, payoff, schedule, degree)
    diff = v_r - v_d
    est = float(diff.mean())
    half = 1.96 * float(diff.std(ddof=1)) / math.sqrt(diff.shape[0])
    return est, (est - half, est + half)


def estimate_charfunc(batch: PathBatch, xis, weighted: bool = True) -> tuple:
    """Sample estimate of E[w e^{i xi X_T}] with per-xi standard errors.

    ``weighted`` multiplies by the terminal survival weight, matching the
    defaultable characteristic function; at xi = 0 an unweighted estimate
    is exactly 1.
    """
    _check_paths(batch.n_paths)
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    xt = batch.x[:, -1]
    w = batch.survival[:, -1] if weighted else None
    n = xt.shape[0]
    vals = np.empty(xis.shape, dtype=complex)
    ses = np.empty(xis.shape)
    for idx, xi in enumerate(xis):
        re, im = np.cos(xi * xt), np.sin(xi * xt)
        if w is not None:
            re, im = w * re, w * im
        vals[idx] = re.mean() + 1j * im.mean()
        ses[idx] = math.hypot(re.std(ddof=1), im.std(ddof=1)) / math.sqrt(n)
    return vals, ses


def dump_paths(batch: PathBatch, path: str) -> None:
    """Binary dump: header of three little-endian uint64 (seed, steps,
    n_paths) followed by the path array as little-endian float64,
    row-major."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(batch.seed, batch.steps, batch.n_paths))
        fh.write(np.ascontiguousarray(batch.x, dtype="<f8").tobytes())


def load_paths(path: str) -> dict:
    """Read a ``dump_paths`` file back into {seed, steps, n_paths, x}."""
    with open(path, "rb") as fh:
        seed, steps, n_paths = _HEADER.unpack(fh.read(_HEADER.size))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(n_paths, steps + 1)
    return {"seed": seed, "steps": steps, "n_paths": n_paths, "x": data.copy()}
