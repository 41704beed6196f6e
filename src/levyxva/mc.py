"""Monte Carlo oracle: Euler paths with state-dependent jumps and default,
least-squares Monte Carlo for Bermudan XVA and CVA.

The Euler step freezes the coefficients over [t_k, t_k + dt]:

    X_{k+1} = X_k + mu(X_k) dt + sigma(X_k) sqrt(dt) Z
              + m N_k + delta sqrt(N_k) Z' - a(X_k) m dt,

with N_k ~ Poisson(a(X_k) dt); the Gaussian jump sizes are aggregated
exactly conditional on the count.  Default is carried either as the
survival weight e^{-int gamma dt} (variance-reduced, the default) or by
thinning against an exponential clock (validates the default-probability
law).  The CVA pair shares uniforms and normals across its two legs, with
Poisson counts drawn by inverse transform from the shared uniforms so the
legs stay coupled even though their intensities drift apart.
"""
from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import model as modelmod
from .bermudan import ExerciseSchedule, PayoffSpec, payoff_eval
from .bsde import DriverSpec, scheme_driver

_HEADER = struct.Struct("<QQQ")


@dataclass(frozen=True)
class PathBatch:
    """Simulated log-asset paths plus default information.

    ``poisson_truncated`` counts the jump draws the CRN pair's inverse CDF
    cut off at 201; ``simulate`` draws its counts exactly and leaves it 0.
    """

    x: np.ndarray
    times: np.ndarray
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


def _poisson_icdf(u: np.ndarray, mu: np.ndarray) -> tuple:
    """Smallest k with Poisson(mu) CDF >= u for 1-D u and mu, by summing the
    pmf recursively; returns (counts, number of truncated draws).

    The caller caps mu at 200.  A draw still pending after k = 200 is
    truncated to 201.  Each pass updates only the still-pending entries, so
    the cost follows the count distribution rather than its largest draw;
    every entry goes through the same operations as a full-array loop, so
    the counts are identical to it.
    """
    pmf = np.exp(-mu)
    counts = np.zeros(u.shape, dtype=np.int64)
    idx = np.flatnonzero(u > pmf)
    u, mu, pmf = u[idx], mu[idx], pmf[idx]
    cdf = pmf
    k = 0
    while idx.size:
        k += 1
        if k > 200:
            counts[idx] = k
            return counts, idx.size
        pmf = pmf * mu / k
        cdf = cdf + pmf
        counts[idx] = k
        keep = u > cdf
        idx, u, mu, pmf, cdf = idx[keep], u[keep], mu[keep], pmf[keep], cdf[keep]
    return counts, 0


def _guard_band(mdl, T):
    """Absorbing band far outside any Fourier truncation range.

    Exponentially state-dependent coefficients explode along rare jump
    cascades (the discretized model is numerically explosive deep in the
    tail); paths are absorbed once they leave a 25-standard-deviation
    band, a <=1e-5 tail event far below Monte Carlo resolution.
    """
    from . import charfunc

    tay = modelmod.taylor_expand(mdl, 0.0, mdl.spot_x0, 0)
    c1, c2, c4 = charfunc.cumulants(tay, 0.0, T)
    spread = max(25.0 * math.sqrt(c2 + math.sqrt(c4)) + abs(c1), 1.0)
    return mdl.spot_x0 - spread, mdl.spot_x0 + spread


def _check_run(T, steps: int, n_paths: int, n_blocks: int = 1) -> None:
    """Reject a horizon or size that the simulators cannot step over."""
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError(f"need a finite horizon T > 0, got {T!r}")
    if steps < 1 or n_paths < 1 or n_blocks < 1:
        raise ValueError("need steps >= 1, n_paths >= 1 and n_blocks >= 1")


def _euler_step(mdl, t_k, dt, xk, lam, counts, z, z2, band):
    """One Euler update from xk, given the jump intensity at xk, the jump
    counts and the two normal draws; returns (x_{k+1}, hazard over dt)."""
    m, d = mdl.jump_law.mean, mdl.jump_law.std
    jumps = m * counts + d * np.sqrt(counts) * z2
    x_next = np.clip(
        xk
        + modelmod.martingale_drift(mdl, t_k, xk) * dt
        + mdl.sigma(t_k, xk) * math.sqrt(dt) * z
        + jumps
        - lam * m * dt,
        band[0],
        band[1],
    )
    return x_next, mdl.gamma(t_k, xk) * dt


def _euler_block(mdl, T, steps, rng, n_paths, thinning):
    dt = T / steps
    band = _guard_band(mdl, T)
    x = np.empty((n_paths, steps + 1))
    surv = np.empty((n_paths, steps + 1))
    x[:, 0] = mdl.spot_x0
    surv[:, 0] = 1.0
    cumhaz = np.zeros(n_paths)
    clock = rng.exponential(1.0, n_paths) if thinning else None
    default_time = np.full(n_paths, np.inf) if thinning else None
    for k in range(steps):
        t_k = k * dt
        xk = x[:, k]
        lam = mdl.intensity_a(t_k, xk)
        counts = rng.poisson(np.minimum(lam * dt, 1e6))
        z = rng.standard_normal(n_paths)
        z2 = rng.standard_normal(n_paths)
        x[:, k + 1], haz = _euler_step(mdl, t_k, dt, xk, lam, counts, z, z2, band)
        surv[:, k + 1] = surv[:, k] * np.exp(-haz)
        if thinning:
            new_haz = cumhaz + haz
            hit = (clock > cumhaz) & (clock <= new_haz)
            default_time[hit] = (k + 1) * dt
            cumhaz = new_haz
    return x, surv, default_time


def simulate(
    mdl: modelmod.ModelSpec,
    T: float,
    steps: int,
    n_paths: int,
    seed: int,
    default_mode: str = "weight",
    n_blocks: int = 1,
) -> PathBatch:
    """Euler simulation of the model on [0, T]; reproducible under the seed.

    ``default_mode`` "weight" carries only the survival weights; "thin"
    additionally samples default times against an exponential clock.
    Paths are generated in ``n_blocks`` blocks with independent spawned RNG
    streams (the block loop is the natural parallel axis).
    """
    _check_run(T, steps, n_paths, n_blocks)
    if default_mode not in ("weight", "thin"):
        raise ValueError("default_mode must be 'weight' or 'thin'")
    sizes = [n_paths // n_blocks] * n_blocks
    sizes[-1] += n_paths - sum(sizes)
    streams = np.random.SeedSequence(seed).spawn(n_blocks)
    xs, survs, dts = [], [], []
    thinning = default_mode == "thin"
    for size, stream in zip(sizes, streams):
        x, surv, dtime = _euler_block(mdl, T, steps, np.random.default_rng(stream), size, thinning)
        xs.append(x)
        survs.append(surv)
        if thinning:
            dts.append(dtime)
    dt = T / steps
    return PathBatch(
        x=np.concatenate(xs),
        times=np.arange(steps + 1) * dt,
        survival=np.concatenate(survs),
        default_time=np.concatenate(dts) if thinning else None,
        seed=seed,
        dt=dt,
        rate_r=mdl.rate_r,
    )


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
    ``poisson_truncated`` counts its draws cut off at 201 jumps.
    """
    _check_run(T, steps, n_paths)
    dt = T / steps
    lo_a, hi_a = _guard_band(mdl_a, T)
    lo_b, hi_b = _guard_band(mdl_b, T)
    band = (min(lo_a, lo_b), max(hi_a, hi_b))
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = []
    xs = [np.empty((n_paths, steps + 1)) for _ in range(2)]
    survs = [np.empty((n_paths, steps + 1)) for _ in range(2)]
    truncated = [0, 0]
    for arr, sv, mdl in zip(xs, survs, (mdl_a, mdl_b)):
        arr[:, 0] = mdl.spot_x0
        sv[:, 0] = 1.0
    for k in range(steps):
        t_k = k * dt
        u = rng.random(n_paths)
        z = rng.standard_normal(n_paths)
        z2 = rng.standard_normal(n_paths)
        for leg, (arr, sv, mdl) in enumerate(zip(xs, survs, (mdl_a, mdl_b))):
            xk = arr[:, k]
            lam = mdl.intensity_a(t_k, xk)
            counts, cut = _poisson_icdf(u, np.minimum(lam * dt, 200.0))
            truncated[leg] += cut
            arr[:, k + 1], haz = _euler_step(mdl, t_k, dt, xk, lam, counts, z, z2, band)
            sv[:, k + 1] = sv[:, k] * np.exp(-haz)
    times = np.arange(steps + 1) * dt
    for arr, sv, mdl, cut in zip(xs, survs, (mdl_a, mdl_b), truncated):
        out.append(
            PathBatch(
                x=arr,
                times=times,
                survival=sv,
                default_time=None,
                seed=seed,
                dt=dt,
                rate_r=mdl.rate_r,
                poisson_truncated=cut,
            )
        )
    return out[0], out[1]


def _fit_predict(xk: np.ndarray, target: np.ndarray, degree: int, mask=None) -> np.ndarray:
    """Polynomial regression prediction on standardized xk.

    Degenerate spreads collapse to the plain mean; rank-deficient designs
    retry at a lower degree with a warning.
    """
    fit_x = xk if mask is None else xk[mask]
    fit_y = target if mask is None else target[mask]
    mean, std = fit_x.mean(), fit_x.std()
    if std < 1e-12 or fit_x.size <= degree + 1:
        return np.full(xk.shape, fit_y.mean())
    zs_all = (xk - mean) / std
    zs_fit = zs_all if mask is None else zs_all[mask]
    deg = degree
    while deg > 0:
        van = np.polynomial.polynomial.polyvander(zs_fit, deg)
        coef, _, rank, _ = np.linalg.lstsq(van, fit_y, rcond=None)
        if rank == deg + 1:
            return np.polynomial.polynomial.polyvander(zs_all, deg) @ coef
        warnings.warn(f"rank-deficient LSM regression, reducing degree to {deg - 1}")
        deg -= 1
    return np.full(xk.shape, fit_y.mean())


def _exercise_stride(batch: PathBatch, schedule: ExerciseSchedule) -> int:
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
    stride = _exercise_stride(batch, schedule)
    x, dt = batch.x, batch.dt
    v = np.asarray(payoff_eval(payoff, schedule.T, x[:, -1]), dtype=float)
    for k in range(batch.steps - 1, -1, -1):
        t_k = k * dt
        xk = x[:, k]
        cont = _fit_predict(xk, v, degree)
        v = v + dt * scheme_driver(driver, cont)
        if k > 0 and k % stride == 0:
            phi = np.asarray(payoff_eval(payoff, t_k, xk), dtype=float)
            cont_adj = cont + dt * scheme_driver(driver, cont)
            ex = phi >= cont_adj
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
