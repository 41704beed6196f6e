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
and evaluates sigma, a and gamma once per model, with one exponential
per distinct slope (``ModelSpec.coeff_values``).  The two differ only in
the counts: ``simulate`` draws them exactly, while the pair shares one
uniform across its two legs and inverts each leg's Poisson CDF, so the
legs stay coupled even though their intensities drift apart.  The inverse
CDF caps the mean a(x) dt at ``_POISSON_CAP``; every draw at the cap
shares one Poisson CDF, a table built once and searched, and only draws
below the cap sum the pmf term by term.

The loop stores time-major (steps+1, paths) arrays, so each step reads
and writes whole rows; a ``PathBatch`` holds their transposed views, which
keep the (paths, steps+1) shape, and a column ``x[:, k]`` of such a view
is contiguous.

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


@dataclass(frozen=True)
class PathBatch:
    """Simulated log-asset paths plus default information.

    ``x`` and ``survival`` have shape (paths, steps+1) and are transposed
    views of time-major stores, so ``x[:, k]`` is contiguous; copy with
    ``np.ascontiguousarray`` where path-major bytes are needed.  Column k
    is time k ``dt``.  ``poisson_truncated`` counts the jump draws the CRN
    pair's inverse CDF cut off at ``_POISSON_CAP + 1``; ``simulate`` draws
    its counts exactly and leaves it 0.
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
    _POISSON_CAP + 1.  Draws at the cap share one CDF and are resolved by a
    search of ``_CAP_CDF``: the left insertion point is the smallest k
    with CDF >= u, and one past the table when u exceeds its last entry.
    Each pass of the loop over the remaining draws updates only the
    still-pending entries, so the cost follows the count distribution
    rather than its largest draw; every entry goes through the same
    operations as a full-array loop, so the counts are identical to it.
    """
    mu = np.minimum(mu, _POISSON_CAP)
    at_cap = mu == _POISSON_CAP
    cap_counts = np.searchsorted(_CAP_CDF, u[at_cap], side="left")
    counts = np.zeros(u.shape, dtype=np.int64)
    counts[at_cap] = cap_counts
    truncated = int(np.count_nonzero(cap_counts == _CAP_CDF.size))
    pmf = np.exp(-mu)
    idx = np.flatnonzero((u > pmf) & ~at_cap)
    u, mu, pmf = u[idx], mu[idx], pmf[idx]
    cdf = pmf
    k = 0
    while idx.size:
        k += 1
        if k > _POISSON_CAP:
            counts[idx] = k
            return counts, truncated + idx.size
        pmf = pmf * mu / k
        cdf = cdf + pmf
        counts[idx] = k
        keep = u > cdf
        idx, u, mu, pmf, cdf = idx[keep], u[keep], mu[keep], pmf[keep], cdf[keep]
    return counts, truncated


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


def _check_run(T, steps: int, n_paths: int) -> None:
    """Reject a horizon or size that the simulators cannot step over."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"need a finite horizon T > 0, got {T!r}")
    if steps < 1 or n_paths < 1:
        raise ValueError("need steps >= 1 and n_paths >= 1")


def _euler_step(mdl, dt, xk, coeffs, counts, z, z2, band):
    """One Euler update from xk, given (sigma, a, gamma) at xk, the jump
    counts and the two normal draws; returns (x_{k+1}, hazard over dt).
    The drift is formed from the same coefficient values."""
    sig, lam, gam = coeffs
    m, d = mdl.jump_law.mean, mdl.jump_law.std
    jumps = m * counts + d * np.sqrt(counts) * z2
    x_next = np.clip(
        xk
        + modelmod.drift_from_coeffs(mdl, sig, lam, gam) * dt
        + sig * math.sqrt(dt) * z
        + jumps
        - lam * m * dt,
        band[0],
        band[1],
    )
    return x_next, gam * dt


def _paths(models, T, steps, n_paths, seed, rng, draw_counts) -> list:
    """Euler paths of every model on one random stream, one batch each.

    Each step evaluates sigma, a and gamma of every model in one
    ``coeff_values`` call, then draws the jump counts with
    ``draw_counts(rng, means)`` (one (counts, truncated draws) pair per
    model, from its a(x) dt), then the normals z and z2 that all models
    share.  Every model is absorbed on one band, the union of their guard
    bands.  The stores are time-major, so step k reads row k and writes
    row k + 1; each batch gets their transposed (paths, steps+1) views,
    without a copy.
    """
    dt = T / steps
    los, his = zip(*(_guard_band(mdl, T) for mdl in models))
    band = (min(los), max(his))
    xs = [np.empty((steps + 1, n_paths)) for _ in models]
    survs = [np.empty((steps + 1, n_paths)) for _ in models]
    truncated = [0] * len(models)
    for x, surv, mdl in zip(xs, survs, models):
        x[0] = mdl.spot_x0
        surv[0] = 1.0
    for k in range(steps):
        coeffs = [mdl.coeff_values(x[k]) for mdl, x in zip(models, xs)]
        draws = draw_counts(rng, [lam * dt for _, lam, _ in coeffs])
        z = rng.standard_normal(n_paths)
        z2 = rng.standard_normal(n_paths)
        for leg, (mdl, x, surv, vals) in enumerate(zip(models, xs, survs, coeffs)):
            counts, cut = draws[leg]
            truncated[leg] += cut
            x[k + 1], haz = _euler_step(mdl, dt, x[k], vals, counts, z, z2, band)
            surv[k + 1] = surv[k] * np.exp(-haz)
    return [
        PathBatch(x.T, surv.T, None, seed, dt, mdl.rate_r, poisson_truncated=cut)
        for mdl, x, surv, cut in zip(models, xs, survs, truncated)
    ]


def _poisson_counts(rng, means) -> list:
    """Exact Poisson counts, one independent draw per model."""
    return [(rng.poisson(np.minimum(mean, 1e6)), 0) for mean in means]


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
    before the paths.  Jump counts are exact Poisson draws.
    """
    _check_run(T, steps, n_paths)
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
    _check_run(T, steps, n_paths)
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
    the guard band make that one ill-conditioned).  Without a mask the
    prediction sums the fitted basis; with one, the same recurrence runs
    on every point.

    Degenerate spreads collapse to the plain mean.  A new p_k whose norm
    falls to max(n, degree + 1) * eps (``lstsq``'s default cut-off) of the
    norm of z p_{k-1} marks a rank-deficient design: the fit stops at
    degree k - 1, with one warning per degree dropped.
    """
    fit_x = xk if mask is None else xk[mask]
    fit_y = target if mask is None else target[mask]
    mean, std = fit_x.mean(), fit_x.std()
    if std < 1e-12 or fit_x.size <= degree + 1:
        return np.full(xk.shape, fit_y.mean())
    zs_all = (xk - mean) / std
    z = zs_all if mask is None else zs_all[mask]
    tol = max(z.size, degree + 1) * np.finfo(float).eps
    p_prev, p, norm_prev, norm = 0.0, np.ones_like(z), 1.0, float(z.size)
    basis, recurrence, coef = [p], [], [fit_y.mean()]
    for k in range(1, degree + 1):
        zp = z * p
        alpha, beta = (zp @ p) / norm, norm / norm_prev
        p_next = zp - alpha * p - beta * p_prev
        norm_next = p_next @ p_next
        if norm_next <= tol * tol * (zp @ zp):
            for deg in range(degree, k - 1, -1):
                warnings.warn(f"rank-deficient LSM regression, reducing degree to {deg - 1}")
            break
        recurrence.append((alpha, beta))
        coef.append((fit_y @ p_next) / norm_next)
        basis.append(p_next)
        p_prev, p, norm_prev, norm = p, p_next, norm, norm_next
    if mask is not None:
        basis, q_prev = [np.ones_like(zs_all)], 0.0
        for alpha, beta in recurrence:
            q = basis[-1]
            basis.append(zs_all * q - alpha * q - beta * q_prev)
            q_prev = q
    pred = coef[0] * basis[0]
    for c, b in zip(coef[1:], basis[1:]):
        pred += c * b
    return pred


def _check_paths(batch: PathBatch) -> None:
    """A sample standard deviation, and so an interval, needs two paths."""
    if batch.n_paths < 2:
        raise ValueError(f"estimators need at least 2 paths, got {batch.n_paths}")


def _exercise_stride(batch: PathBatch, schedule: ExerciseSchedule) -> int:
    _check_paths(batch)
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
    """
    modelmod._require_count("degree", degree)
    stride = _exercise_stride(batch, schedule)
    x, dt = batch.x, batch.dt
    v = np.asarray(payoff_eval(payoff, schedule.T, x[:, -1]), dtype=float)
    for k in range(batch.steps - 1, -1, -1):
        t_k = k * dt
        xk = x[:, k]
        cont = _fit_predict(xk, v, degree)
        step = dt * scheme_driver(driver, cont)
        v = v + step
        if k > 0 and k % stride == 0:
            phi = np.asarray(payoff_eval(payoff, t_k, xk), dtype=float)
            ex = phi >= cont + step
            v[ex] = phi[ex]
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
    r = batch.rate_r
    x, surv = batch.x, batch.survival
    T = schedule.T
    v = (
        np.asarray(payoff_eval(payoff, T, x[:, -1]), dtype=float)
        * math.exp(-r * T)
        * surv[:, -1]
    )
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
        v[ex] = phi0[ex]
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
    _check_paths(batch)
    xis = np.atleast_1d(np.asarray(xis, dtype=float))
    xt = batch.x[:, -1]
    w = batch.survival[:, -1] if weighted else np.ones_like(xt)
    n = xt.shape[0]
    vals = np.empty(xis.shape, dtype=complex)
    ses = np.empty(xis.shape)
    for idx, xi in enumerate(xis):
        re = w * np.cos(xi * xt)
        im = w * np.sin(xi * xt)
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
