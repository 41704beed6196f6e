"""Defaultable local Levy model: coefficients, drift restriction, Taylor data.

The state is the log-asset X with dynamics

    dX_t = mu(X_t) dt + sigma(X_t) dW_t + integral q dN~(dt, dq),

where N~ is the compensated jump measure of a compound Poisson process with
state-dependent intensity a(x) and Gaussian jump sizes N(jump_mean,
jump_std^2), and gamma(x) >= 0 is the default (killing) intensity.  The
drift mu is not free: it is pinned by the martingale restriction so that the
defaultable asset grows at rate r + gamma(x) under the pricing measure,

    mu(x) = gamma(x) + r - sigma(x)^2 / 2 - a(x) * kappa,
    kappa = E[e^q - 1 - q] = exp(m + d^2/2) - 1 - m.

All state-dependent coefficients live in a small closed family (zero,
constant, exponential level*exp(slope*x)) so that Taylor coefficients about
a basepoint, and hence the frozen-coefficient cumulants, stay in closed
form.  ``taylor_expand`` packages the per-order coefficients; callers that
need a coefficient set outside the family can build a ``TaylorData``
directly.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np


def _require_finite(obj, *names: str) -> None:
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ValueError(f"{name} must be finite, got {getattr(obj, name)!r}")


def _require_count(name: str, value, least: int = 1) -> None:
    """Reject anything but an integer >= ``least``; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")


@dataclass(frozen=True)
class CoeffFamily:
    """State-dependent coefficient g(x) = level * exp(slope * x).

    A member with slope 0 or level 0 is the constant ``level``, evaluated
    without an exponential; its higher Taylor coefficients are exactly
    zero, which downstream code relies on for the constant coefficient
    (Merton) collapse.
    """

    level: float = 0.0
    slope: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, "level", "slope")

    @staticmethod
    def zero() -> "CoeffFamily":
        return CoeffFamily()

    @staticmethod
    def const(level: float) -> "CoeffFamily":
        return CoeffFamily(float(level))

    @staticmethod
    def exponential(level: float, slope: float) -> "CoeffFamily":
        return CoeffFamily(float(level), float(slope))

    @property
    def is_zero(self) -> bool:
        return self.level == 0.0

    def __call__(self, x):
        return self.eval_shared(np.asarray(x, dtype=float), {})

    def eval_shared(self, x: np.ndarray, exps: dict) -> np.ndarray:
        """g(x) for a float array x, taking exp(slope * x) from ``exps``
        (keyed by slope) and storing it there when absent, so families
        with one slope share one exponential."""
        if self.slope == 0.0 or self.is_zero:
            return np.full_like(x, self.level)
        if self.slope not in exps:
            exps[self.slope] = np.exp(self.slope * x)
        return self.level * exps[self.slope]

    def taylor_coeffs(self, xbar, order: int) -> np.ndarray:
        """Coefficients g_k = g^(k)(xbar) / k! for k = 0..order.

        Shape (order+1,) for scalar xbar, (order+1, len(xbar)) for arrays.
        """
        xbar = np.asarray(xbar, dtype=float)
        out = np.zeros((order + 1,) + xbar.shape)
        base = self(xbar)
        fact = 1.0
        for k in range(order + 1):
            if k > 0:
                fact *= k
            out[k] = base * self.slope**k / fact
        return out


@dataclass(frozen=True)
class JumpLaw:
    """Gaussian jump-size law N(mean, std^2): std >= 0, finite kappa, and
    finite jump moments m^2, m^4, 6 m^2 d^2 and 3 d^4, the terms of the
    increment cumulants (``charfunc.cumulants``)."""

    mean: float = 0.0
    std: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, "mean", "std")
        if self.std < 0.0:
            raise ValueError(f"std must be nonnegative, got {self.std!r}")
        try:
            kappa = jump_compensator_kappa(self)
        except OverflowError:
            kappa = math.inf
        if not math.isfinite(kappa):
            raise ValueError(
                f"{self.kappa_field} overflows kappa = exp(mean + std^2/2) - 1 - mean: {self!r}"
            )
        # A finite kappa needs mean + std^2/2 < 710, so wherever the moments
        # overflow, |mean| exceeds std^2/2 and drives them.
        m, d = self.mean, self.std
        try:
            moments = m**4 + 6.0 * m**2 * d**2 + 3.0 * d**4  # each term >= 0, m^2 <= 1 + m^4
        except OverflowError:
            moments = math.inf
        if not math.isfinite(moments):
            raise ValueError(f"mean overflows the jump moments m^2, m^4, 6m^2d^2, 3d^4: {self!r}")

    @property
    def kappa_field(self) -> str:
        """The field that drives kappa = exp(mean + std^2/2) - 1 - mean:
        ``mean`` when |mean| >= std^2/2, else ``std``."""
        return "mean" if abs(self.mean) >= 0.5 * self.std * self.std else "std"


def jump_compensator_kappa(law: JumpLaw) -> float:
    """kappa = E[e^q - 1 - q] for q ~ N(mean, std^2)."""
    return math.exp(law.mean + 0.5 * law.std**2) - 1.0 - law.mean


@dataclass(frozen=True)
class ModelSpec:
    """Full model: vol/jump/default coefficient families plus rate and spot."""

    vol: CoeffFamily
    jump_intensity: CoeffFamily
    jump_law: JumpLaw
    default_intensity: CoeffFamily
    rate_r: float
    spot_x0: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self, "rate_r", "spot_x0")
        # A negative vol level would silently price as its absolute value:
        # the expansion only sees sigma^2.
        for name in ("vol", "jump_intensity", "default_intensity"):
            level = getattr(self, name).level
            if level < 0.0:
                raise ValueError(f"{name} must be nonnegative, got level {level!r}")
        try:  # the s = sigma^2/2 of taylor_expand; a float ** raises, never gives inf
            0.5 * self.vol.level**2
        except OverflowError:
            raise ValueError(f"vol overflows sigma^2/2 at level {self.vol.level!r}") from None
        if not math.isfinite(2.0 * self.vol.slope):  # the slope of sigma^2/2
            raise ValueError(f"slope of vol overflows sigma^2/2 as 2 * slope: {self.vol.slope!r}")

    # ``t`` is never read; perfbench/tracing.py calls intensity_a(0.0, x).
    def intensity_a(self, t, x):
        return self.jump_intensity(x)

    def coeff_values(self, x, hazard: bool = True) -> tuple:
        """(sigma(x), a(x), gamma(x)) with one exponential per distinct
        nonzero slope; each value is bit-identical to its family's call.
        With ``hazard=False`` gamma is not evaluated and comes back None."""
        x, exps = np.asarray(x, dtype=float), {}
        sig = self.vol.eval_shared(x, exps)
        a = self.jump_intensity.eval_shared(x, exps)
        return sig, a, self.default_intensity.eval_shared(x, exps) if hazard else None

    @property
    def kappa(self) -> float:
        return jump_compensator_kappa(self.jump_law)

    def without_default(self) -> "ModelSpec":
        """Default-free companion: gamma removed everywhere, including from
        the drift restriction."""
        if self.default_intensity.is_zero:
            return self
        return self.with_default(CoeffFamily.zero())

    def with_default(self, intensity: CoeffFamily) -> "ModelSpec":
        return replace(self, default_intensity=intensity)


def martingale_drift(model: ModelSpec, x):
    """mu(x) = gamma + r - sigma^2/2 - a*kappa (martingale restriction); the
    coefficients are time-homogeneous, so the drift takes no time."""
    sig, a, gamma = model.coeff_values(x)
    return gamma + model.rate_r - 0.5 * sig * sig - a * model.kappa


@dataclass(frozen=True)
class TaylorData:
    """Taylor coefficients of the model coefficients about a basepoint.

    Row k of each array holds the k-th derivative over k!, evaluated at the
    basepoint (scalar basepoint: shape (order+1,); vector basepoint: shape
    (order+1, n)).  ``s`` expands sigma^2/2, not sigma.  ``mu`` already
    contains the drift restriction, so mu_0 = gamma_0 + r - s_0 - a_0*kappa
    and mu_k = gamma_k - s_k - a_k*kappa for k >= 1.

    Instances are normally produced by ``taylor_expand`` but can be built by
    hand for coefficient sets outside the closed families.
    """

    basepoint: np.ndarray
    order: int
    s: np.ndarray
    mu: np.ndarray
    a: np.ndarray
    gamma: np.ndarray
    jump_mean: float
    jump_std: float

    def __post_init__(self) -> None:
        for name in ("s", "mu", "a", "gamma"):
            arr = getattr(self, name)
            if arr.shape[0] != self.order + 1:
                raise ValueError(f"{name} must have order+1 coefficient rows")


# ``t`` is never read; perfbench/test_smoke.py passes it positionally.
def taylor_expand(model: ModelSpec, t, xbar, order: int) -> TaylorData:
    """Expand s = sigma^2/2, mu, a, gamma about xbar to the given order.

    The squared-vol family of sigma(x) = level*exp(slope*x) is
    (level^2/2)*exp(2*slope*x), still inside the family, so every
    coefficient is closed-form.  Constant families yield exactly zero
    higher-order rows.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    xbar = np.asarray(xbar, dtype=float)
    s_fam = CoeffFamily(0.5 * model.vol.level**2, 2.0 * model.vol.slope)
    s = s_fam.taylor_coeffs(xbar, order)
    a = model.jump_intensity.taylor_coeffs(xbar, order)
    gamma = model.default_intensity.taylor_coeffs(xbar, order)
    mu = gamma - s - a * model.kappa
    mu[0] = mu[0] + model.rate_r
    return TaylorData(
        basepoint=xbar,
        order=order,
        s=s,
        mu=mu,
        a=a,
        gamma=gamma,
        jump_mean=model.jump_law.mean,
        jump_std=model.jump_law.std,
    )
