"""Convergence gates for the numerical knobs: a value must not move with a
knob that ought to have converged.

Each gate prices one case over a sweep of one knob and asserts the spread
of the values.  A gate that the engine misses today is a strict xfail whose
reason gives the measured spread and names the ROADMAP item that should
mend it.
"""

import pytest

from levyxva import bermudan, bsde, cva, model

from conftest import make_benchmark_model

# The truncation widths of every L gate.  The fast leg runs at J = 40 L:
# every L then has the same cell width (b - a) / J, so the sweep moves the
# interval and not the cell.
L_SWEEP = (8, 10, 12, 14)

ATM_DEFAULT = cva.DefaultSpec(intensity=model.CoeffFamily.exponential(0.1, -2.0))
ATM_PUT = bermudan.PayoffSpec(kind="put", strike=1.0)


def atm_benchmark_cva(T: float, L: float) -> float:
    """The CVA of the benchmark's at-the-money Bermudan put (K = 1, M = 10,
    default intensity 0.1 e^{-2x}) on the fast path at J = 40 L."""
    sched = bermudan.ExerciseSchedule(T, 10, 1)
    return cva.cva(make_benchmark_model(0.05, 0.0), ATM_DEFAULT, ATM_PUT, sched, J=int(40 * L), L=L)


def _spread(values) -> float:
    return max(values) - min(values)


def test_fast_cva_converges_in_L_at_T1():
    # 0.0191213 at every L: a spread of 4.71e-14.
    assert _spread([atm_benchmark_cva(1.0, L) for L in L_SWEEP]) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="the span-scaled trust test (ROADMAP item 17) keeps corrections that "
    "depend on L: the CVA reads 0.0103048 at L = 8 and 0.0113515 at L = 14, a "
    "spread of 1.05e-3",
)
def test_fast_cva_converges_in_L_at_T05():
    assert _spread([atm_benchmark_cva(0.5, L) for L in L_SWEEP]) <= 1e-6


# The theta-scheme in L at J = 256, N = M = 10, T = 1, with the simplified
# driver at the model's rate: the linear XVA of the XVA benchmark at two
# spots, and the default-free put leg of the theta-scheme CVA
# (tests/test_cva.py::_theta_cva).
LINEAR = bermudan.PayoffSpec(kind="portfolio-linear")
THETA_CASES = {
    "linear-X0-0": (make_benchmark_model(0.1, 0.0, x0=0.0), LINEAR),
    "linear-X0-0.4": (make_benchmark_model(0.1, 0.0, x0=0.4), LINEAR),
    "put-default-free": (cva.leg_models(make_benchmark_model(0.05, 0.0), ATM_DEFAULT)[1], ATM_PUT),
}


def theta_scheme_value(case: str, L: float) -> float:
    mdl, payoff = THETA_CASES[case]
    driver = bsde.DriverSpec(mode="simplified", rate_r=mdl.rate_r)
    sched = bermudan.ExerciseSchedule(1.0, 10, 10)
    return bermudan.price_bermudan_xva(mdl, payoff, sched, driver, J=256, L=L).value


def _item3(spread: str, values: str):
    return pytest.mark.xfail(
        strict=True,
        reason="the left-tail localisation (ROADMAP item 3) moves the value with the "
        f"truncation width: {values}, a spread of {spread}",
    )


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(
            "linear-X0-0",
            marks=_item3("3.52e-3", "0.0748780 at L = 8 to 0.0783951 at L = 14"),
        ),
        pytest.param(
            "linear-X0-0.4",
            marks=_item3("1.52e-4", "0.4479034-0.4479143 over L = 8-12, 0.4480557 at L = 14"),
        ),
        pytest.param(
            "put-default-free",
            marks=_item3("1.22e-4", "0.0530229 at L = 8 to 0.0531452 at L = 14"),
        ),
    ],
)
def test_theta_scheme_converges_in_L_at_T1(case):
    assert _spread([theta_scheme_value(case, L) for L in L_SWEEP]) <= 1e-4
