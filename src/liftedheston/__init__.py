"""Monte Carlo engine for the lifted Heston model.

Two simulation schemes over a shared parameter and state layer: a
large-step scheme that samples integrated variance from a constrained
linear projection onto its driver, and an Euler-Maruyama baseline.
Deterministic moment curves, VIX extraction and Black-76 utilities
round out the toolkit; the ``lifted-heston`` entry point drives the
experiment harness.
"""

from .clp import ProjectionCoeffs, clp_step, simulate_clp, step_coefficients
from .euler import VarianceFix, euler_step, simulate_euler
from .numerics import StepPrecompute, build_drift_matrix, e_matrix_integral, phi1, precompute_step
from .params import (
    InitialCurve,
    ModelParams,
    expected_integrated_variance,
    g0,
    g0_derivative,
    g0_integral,
    hurst_parametrization,
)
from .pricing import (
    PriceQuote,
    black76_price,
    implied_vol_black,
    price_european,
    vix_from_state,
)
from .sampling import RngStream, sample_inverse_gaussian
from .state import PathState, SimDiagnostics, SimOutput, mean_se, variance_se

__version__ = "0.1.0"

__all__ = [
    "InitialCurve",
    "ModelParams",
    "PathState",
    "PriceQuote",
    "ProjectionCoeffs",
    "RngStream",
    "SimDiagnostics",
    "SimOutput",
    "StepPrecompute",
    "VarianceFix",
    "black76_price",
    "build_drift_matrix",
    "clp_step",
    "e_matrix_integral",
    "euler_step",
    "expected_integrated_variance",
    "g0",
    "g0_derivative",
    "g0_integral",
    "hurst_parametrization",
    "implied_vol_black",
    "mean_se",
    "phi1",
    "precompute_step",
    "price_european",
    "sample_inverse_gaussian",
    "simulate_clp",
    "simulate_euler",
    "step_coefficients",
    "variance_se",
    "vix_from_state",
]
