"""Weighted Savitzky-Golay smoothing filters.

Design FIR smoothing filters by weighted least-squares polynomial
fitting, measure their noise reduction and smoothness, and numerically
certify that the quadratic residual weighting minimizes the smoothing
parameter.
"""

from .design import (
    FilterCoefficients,
    FilterSpec,
    design,
    design_coefficients,
    make_spec,
    quadratic_weight_constant_fit,
)
from .metrics import (
    ClosedForms,
    EmpiricalRatios,
    ExactRatios,
    MetricsReport,
    closed_forms,
    empirical_ratios,
    error_reduction_ratio,
    exact_ratio_table,
    exact_ratios,
    frequency_response,
    metrics_report,
    moving_average_ratio_approximations,
    ratio_approximations,
    smoothing_parameter,
    stopband_peak,
)
from .smoothing import SignalSeries, smooth, stream_smooth
from .verify import (
    VerificationReport,
    certify,
    certify_window,
    eigenvalues_of_tw,
    expected_tw_eigenvalues,
    hessian,
    lambda_min_formula,
    lambda_min_monotonicity,
    lambda_min_observed,
    perturbation_minimality,
    projected_operator_spectrum,
    smoothness_gradient,
)
from .weights import (
    SecondDifferenceMatrix,
    WeightVector,
    constant_weights,
    custom_weights,
    quadratic_weights,
    second_difference_matrix,
    solve_tridiagonal,
    triangular_weights,
    weights_by_tridiagonal_solve,
)

__version__ = "0.1.0"

__all__ = [
    "ClosedForms",
    "EmpiricalRatios",
    "ExactRatios",
    "FilterCoefficients",
    "FilterSpec",
    "MetricsReport",
    "SecondDifferenceMatrix",
    "SignalSeries",
    "VerificationReport",
    "WeightVector",
    "certify",
    "certify_window",
    "closed_forms",
    "constant_weights",
    "custom_weights",
    "design",
    "design_coefficients",
    "eigenvalues_of_tw",
    "empirical_ratios",
    "error_reduction_ratio",
    "exact_ratio_table",
    "exact_ratios",
    "expected_tw_eigenvalues",
    "frequency_response",
    "hessian",
    "lambda_min_formula",
    "lambda_min_monotonicity",
    "lambda_min_observed",
    "make_spec",
    "metrics_report",
    "moving_average_ratio_approximations",
    "perturbation_minimality",
    "projected_operator_spectrum",
    "quadratic_weight_constant_fit",
    "quadratic_weights",
    "ratio_approximations",
    "second_difference_matrix",
    "smooth",
    "smoothing_parameter",
    "smoothness_gradient",
    "solve_tridiagonal",
    "stopband_peak",
    "stream_smooth",
    "triangular_weights",
    "weights_by_tridiagonal_solve",
]
