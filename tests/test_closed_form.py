"""Randomised closed-form checks over constant-coefficient Merton models.

With constant coefficients every Taylor correction vanishes and both COS
engines read the exact characteristic function, so what separates a price
from the Merton (1976) series is the engine's own projection or time
stepping.  A constant default intensity gamma kills at rate gamma and,
through the drift restriction, raises the asset's growth to r + gamma, so
the defaultable European put is the Merton put at the rate r + gamma.

The draws are seeded, so every run of the suite checks the same 20 models
per check.  Hypothesis also draws float literals of the engine's modules,
so a new literal in ``levyxva`` can change them, and so can running this
module alone (the reasons below are measured in a run of the whole suite).
Each check that misses on some draw is a strict xfail whose reason gives
the measured miss; the ranges stay as given.
"""

import math

import pytest
from hypothesis import Phase, given, seed, settings
from hypothesis import strategies as st

from levyxva import bermudan, bsde, cva

from conftest import make_constant_model
from test_cos import put_expectation_jumpdiff

MERTON = st.fixed_dictionaries(
    {
        "sig": st.floats(0.1, 0.4),
        "lam": st.floats(0.0, 1.0),
        "m": st.floats(-0.3, 0.1),
        "delta": st.floats(0.05, 0.3),
        "r": st.floats(0.0, 0.08),
        "gamma": st.floats(0.0, 0.2),
        "K": st.floats(0.8, 1.2),
        "T": st.floats(0.25, 2.0),
    }
)


def merton_put(case) -> float:
    """The European put at X0 = 0 by the Merton series: a Poisson mixture of
    lognormal puts (``put_expectation_jumpdiff``), at the rate r + gamma."""
    rate = case["r"] + case["gamma"]
    jumps = {k: case[k] for k in ("sig", "lam", "m", "delta")}
    return math.exp(-rate * case["T"]) * put_expectation_jumpdiff(
        case["K"], 0.0, case["T"], rate_r=rate, **jumps
    )


def _inputs(case):
    mdl = make_constant_model(
        case["sig"], case["lam"], case["m"], case["delta"], case["r"], case["gamma"]
    )
    return mdl, bermudan.PayoffSpec(kind="put", strike=case["K"])


# Each check records its miss on every draw and asserts the worst one once,
# outside Hypothesis: a miss is then no failing example, so Hypothesis
# neither shrinks it (each shrink step would be a full solve) nor saves a
# patch for it.
DRAWS = settings(
    max_examples=20, derandomize=True, database=None, deadline=None, phases=[Phase.generate]
)
# A derandomized test is seeded from a digest of its own source.  These are
# the seeds that each check's earlier, asserting form derived, so the
# restructured checks keep its 20 models.
FAST_LEG_DRAWS = seed(int(
    "2eedab7e6fc834d9fcc37f6a854fd75d17c8ea8508a3e164"
    "2420125486acf886b2d841b78a5a796413b65c23a607f70b", 16
))
THETA_DRAWS = seed(int(
    "ee989a771f79b9221c7468da82354e98f3aa854479f78d06"
    "631b7f75983566ed5652a8914550be1689b1f0e7281acacb", 16
))


def _misses(miss, draws) -> list:
    """``miss(case)`` on each of the 20 draws of ``draws``."""
    out = []

    @draws
    @DRAWS
    @given(MERTON)
    def draw(case):
        out.append(miss(case))

    draw()
    return out


def _fast_leg(case, M: int) -> float:
    mdl, put = _inputs(case)
    sched = bermudan.ExerciseSchedule(case["T"], M, 1)
    return cva.price_bermudan_cos(mdl, put, sched, J=256).value


def _theta_scheme(case, M: int, N: int) -> float:
    mdl, put = _inputs(case)
    sched = bermudan.ExerciseSchedule(case["T"], M, N)
    driver = bsde.DriverSpec(mode="simplified", rate_r=case["r"])
    return bermudan.price_bermudan_xva(mdl, put, sched, driver, J=256).value


@pytest.mark.xfail(
    strict=True,
    reason="the L = 10 truncation interval cuts the jump tail: 2 of the 20 draws "
    "miss the series, (sigma 0.125, lam 0.31, delta 0.23, T 0.54) by 2.9e-12 and "
    "(sigma 0.1, lam 0.1, delta 0.25, T 0.25) by 5.2e-12, at J = 256 and at "
    "J = 512 alike; at L = 12 they read 1.4e-14 and 4.5e-14",
)
def test_fast_leg_matches_the_merton_series():
    misses = _misses(lambda case: abs(_fast_leg(case, 1) - merton_put(case)), FAST_LEG_DRAWS)
    assert max(misses) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="the theta-scheme at J = 256, N = 10 misses the series by up to 8.0e-5 "
    "over the 20 draws, 16 of them above 1e-6, with either sign",
)
def test_theta_scheme_matches_the_merton_series():
    misses = _misses(lambda case: abs(_theta_scheme(case, 1, 10) - merton_put(case)), THETA_DRAWS)
    assert max(misses) <= 1e-6


# With constant coefficients the fast leg's recursion is exact up to its
# truncation, so at M = 10 the miss is the theta-scheme's.  It is the same
# at N = 1 and at N = 10, within 0.4% on every draw above 1e-6: the
# projection error of the DCT (ROADMAP item 7), not time stepping.  So N = 1,
# which takes ~0.8 s over the draws where N = 10 takes ~7 s.
@pytest.mark.xfail(
    strict=True,
    reason="the theta-scheme at M = 10, N = 1, J = 256 misses the fast leg by up "
    "to 9.0e-5 over the 20 draws, 16 of them above 1e-6, with either sign",
)
def test_theta_scheme_matches_the_fast_leg_at_ten_dates():
    misses = _misses(lambda case: abs(_theta_scheme(case, 10, 1) - _fast_leg(case, 10)), THETA_DRAWS)
    assert max(misses) <= 1e-6
