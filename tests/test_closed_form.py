"""Randomised closed-form checks over constant-coefficient Merton models.

With constant coefficients every Taylor correction vanishes and both COS
engines read the exact characteristic function, so what separates a price
from the Merton (1976) series is the engine's own projection or time
stepping.  A constant default intensity gamma kills at rate gamma and,
through the drift restriction, raises the asset's growth to r + gamma, so
the defaultable European put is the Merton put at the rate r + gamma.

The draws are derandomized, so every run checks the same 20 models.  Each
check that misses on some draw is a strict xfail whose reason gives the
measured miss; the ranges stay as given.
"""

import math

import pytest
from hypothesis import Phase, given, settings
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


# A failing draw is not shrunk: each shrink step is a full solve.
DRAWS = settings(
    max_examples=20, derandomize=True, database=None, deadline=None, phases=[Phase.generate]
)


@pytest.mark.xfail(
    strict=True,
    reason="the L = 10 truncation interval cuts the jump tail: 1 of the 20 draws "
    "(sigma 0.125, lam 0.31, delta 0.23, T 0.54) misses the series by 2.9e-12 "
    "at J = 256 and at J = 512; at L = 12 it reads 1.4e-14",
)
@DRAWS
@given(MERTON)
def test_fast_leg_matches_the_merton_series(case):
    mdl, put = _inputs(case)
    res = cva.price_bermudan_cos(mdl, put, bermudan.ExerciseSchedule(case["T"], 1, 1), J=256)
    assert abs(res.value - merton_put(case)) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="the theta-scheme at J = 256, N = 10 misses the series by up to 8.0e-5 "
    "over the 20 draws, 16 of them above 1e-6, with either sign",
)
@DRAWS
@given(MERTON)
def test_theta_scheme_matches_the_merton_series(case):
    mdl, put = _inputs(case)
    sched = bermudan.ExerciseSchedule(case["T"], 1, 10)
    driver = bsde.DriverSpec(mode="simplified", rate_r=case["r"])
    res = bermudan.price_bermudan_xva(mdl, put, sched, driver, J=256)
    assert abs(res.value - merton_put(case)) <= 1e-6
