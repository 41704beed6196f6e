"""Convergence gates for the numerical knobs: a value must not move with a
knob that ought to have converged.

Each gate prices one case over a sweep of one knob and asserts the spread
of the values.  A gate that the engine misses today is a strict xfail whose
reason gives the measured spread and names the ROADMAP item that should
mend it.
"""

import pytest

from levyxva import bermudan, cva, model

from conftest import make_benchmark_model

# The fast leg's truncation width L, at J = 40 L: every L then has the same
# cell width (b - a) / J, so the sweep moves the interval and not the cell.
L_SWEEP = (8, 10, 12, 14)


def atm_benchmark_cva(T: float, L: float) -> float:
    """The CVA of the benchmark's at-the-money Bermudan put (K = 1, M = 10,
    default intensity 0.1 e^{-2x}) on the fast path at J = 40 L."""
    default = cva.DefaultSpec(intensity=model.CoeffFamily.exponential(0.1, -2.0))
    put = bermudan.PayoffSpec(kind="put", strike=1.0)
    sched = bermudan.ExerciseSchedule(T, 10, 1)
    return cva.cva(make_benchmark_model(0.05, 0.0), default, put, sched, J=int(40 * L), L=L)


def _spread(values) -> float:
    return max(values) - min(values)


def test_fast_cva_converges_in_L_at_T1():
    # 0.0191213 at every L: a spread of 4.7e-14.
    assert _spread([atm_benchmark_cva(1.0, L) for L in L_SWEEP]) <= 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="the span-scaled trust test (ROADMAP item 17) keeps corrections that "
    "depend on L: the CVA reads 0.0103048 at L = 8 and 0.0113515 at L = 14, a "
    "spread of 1.05e-3",
)
def test_fast_cva_converges_in_L_at_T05():
    assert _spread([atm_benchmark_cva(0.5, L) for L in L_SWEEP]) <= 1e-6
