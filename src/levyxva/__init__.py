"""Pricing engine for Bermudan derivatives with valuation adjustments under
local Levy dynamics.

The engine combines an approximated characteristic function (Taylor
expansion of the state-dependent coefficients, closed-form frequency-space
correction terms up to second order), Fourier-cosine expansions of
conditional expectations, a theta-scheme BSDE solver with Picard iteration
for general valuation adjustments, and a fast CVA-only path whose
continuation-value products run through FFT Hankel+Toeplitz
multiplications.  A Monte Carlo module (Euler scheme with state-dependent
jumps and default, least-squares regression pricers) provides the
independent cross-check.

Attribute access is lazy so the command-line front end can configure
threading environment variables before numpy is first imported.
"""
from __future__ import annotations

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "CoeffFamily": "model",
    "JumpLaw": "model",
    "ModelSpec": "model",
    "TaylorData": "model",
    "taylor_expand": "model",
    "martingale_drift": "model",
    "jump_compensator_kappa": "model",
    "CharFuncApprox": "charfunc",
    "build_order_n": "charfunc",
    "levy_symbol_psi": "charfunc",
    "cumulants": "charfunc",
    "CosGrid": "cos",
    "truncation_range": "cos",
    "dct_coeffs": "cos",
    "put_payoff_coeffs": "cos",
    "m_matrix_product": "cos",
    "DriverSpec": "bsde",
    "BsdeGrid": "bsde",
    "PricingResult": "bsde",
    "scheme_driver": "bsde",
    "solve_bsde": "bsde",
    "make_cos_grid": "bsde",
    "ExerciseSchedule": "bermudan",
    "PayoffSpec": "bermudan",
    "payoff_eval": "bermudan",
    "payoff_dx": "bermudan",
    "price_bermudan_xva": "bermudan",
    "complexity_probe": "bermudan",
    "DefaultSpec": "cva",
    "price_bermudan_cos": "cva",
    "cva_report": "cva",
    "greeks": "cva",
    "leg_value_at": "cva",
    "newton_exercise_point": "cva",
    "PathBatch": "mc",
    "simulate": "mc",
    "simulate_crn_pair": "mc",
    "lsm_price": "mc",
    "lsm_cva": "mc",
    "estimate_charfunc": "mc",
    "dump_paths": "mc",
    "load_paths": "mc",
    "EngineError": "errors",
    "ConfigError": "errors",
    "NumericalError": "errors",
    "ValidationFailure": "errors",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
