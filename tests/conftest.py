"""Shared fixtures: the two benchmark model configurations.

``model_linear`` is the XVA benchmark (linear portfolio payoff, r = 0.1,
no default intensity); ``model_put`` is the CVA benchmark (Bermudan put,
r = 0.05, exponential default intensity c = 0.1).  Both use the same
exponential coefficient families sigma(x) = 0.15 e^{-2x},
a(x) = 0.2 e^{-2x} with N(-0.2, 0.2^2) jumps.  ``dct_calls`` records the
shape of every ``cos.dct_coeffs`` call a test makes, and ``z_step_calls``
the shape of the y coefficients of every ``bsde.z_step`` call.
``dense_m_product`` materializes the restricted-interval matrix: the
O(J^2) oracle of the engine's FFT product ``cos.m_matrix_product``.
"""

import dataclasses

import numpy as np
import pytest

import levyxva as lx
from levyxva import bsde, cos


def make_benchmark_model(rate_r, c_default, x0=0.0):
    fam = (
        lx.CoeffFamily.exponential(c_default, -2.0)
        if c_default > 0.0
        else lx.CoeffFamily.zero()
    )
    return lx.ModelSpec(
        vol=lx.CoeffFamily.exponential(0.15, -2.0),
        jump_intensity=lx.CoeffFamily.exponential(0.2, -2.0),
        jump_law=lx.JumpLaw(-0.2, 0.2),
        rate_r=rate_r,
        default_intensity=fam,
        spot_x0=x0,
    )


def make_constant_model(sig, lam, m, delta, rate_r, gamma0, x0=0.0):
    return lx.ModelSpec(
        vol=lx.CoeffFamily.const(sig),
        jump_intensity=lx.CoeffFamily.const(lam) if lam > 0 else lx.CoeffFamily.zero(),
        jump_law=lx.JumpLaw(m, delta),
        rate_r=rate_r,
        default_intensity=(
            lx.CoeffFamily.const(gamma0) if gamma0 > 0 else lx.CoeffFamily.zero()
        ),
        spot_x0=x0,
    )


@pytest.fixture(scope="session")
def model_linear():
    return make_benchmark_model(rate_r=0.1, c_default=0.0, x0=0.4)


@pytest.fixture(scope="session")
def model_put():
    return make_benchmark_model(rate_r=0.05, c_default=0.1, x0=0.0)


@pytest.fixture(scope="session")
def model_put_riskfree():
    return make_benchmark_model(rate_r=0.05, c_default=0.0, x0=0.0)


def dense_m_product(V, grid, x_lo, x_hi, h, lam, basepoint):
    """Re sum'_j M^h_{k,j} lam_j V_j with M^h_{k,j} = I_{j+k} + I_{j-k}
    built as a dense J x J matrix from ``cos.monomial_exp_integrals``."""
    J = grid.J
    u = lam * np.asarray(V, dtype=complex)
    u[0] *= 0.5
    I = cos.monomial_exp_integrals(grid, x_lo, x_hi, h, basepoint, 2 * J - 2)
    k = np.arange(J)
    hank = I[np.add.outer(k, k)]
    toep_full = np.concatenate((np.conj(I[J - 1:0:-1]), I[:J]))
    toep = toep_full[np.add.outer(-k, np.arange(J)) + J - 1]
    return np.real((hank + toep) @ u)


def replace_spot(mdl, x0):
    return dataclasses.replace(mdl, spot_x0=x0)


@pytest.fixture
def dct_calls(monkeypatch):
    calls = []
    dct = cos.dct_coeffs

    def counted(values, grid):
        calls.append(np.shape(values))
        return dct(values, grid)

    monkeypatch.setattr(cos, "dct_coeffs", counted)
    return calls


@pytest.fixture
def z_step_calls(monkeypatch):
    calls = []
    z_step = bsde.z_step

    def counted(hy, *args):
        calls.append(np.shape(hy))
        return z_step(hy, *args)

    monkeypatch.setattr(bsde, "z_step", counted)
    return calls
