"""Analysis toolkit for learning dynamics under decision-dependent data.

The package simulates two flows of a decision-dependent risk model -- the
full descent flow of the diagonal risk and the shift-blind flow followed by
repeated gradient descent -- locates and classifies their equilibria, maps
basins of attraction, and numerically certifies local curvature brackets and
the transient/ultimate convergence bounds they imply.

``import perflow`` loads none of the numeric modules: each exported name
imports its module on first use (PEP 562), so a caller pays only for the
modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it exports from the package
_EXPORTS = {
    "certify": (
        "AlignmentReport", "CurvatureCertificate", "PerturbationEnvelope", "UltimateBoundReport",
        "alignment_check", "estimate_curvature_constants", "estimate_perturbation_envelope",
        "feasible_radius", "gradient_norm_bracket", "risk_curvature_bracket",
        "sweep_curvature_constants", "theta_tradeoff", "ultimate_bounds",
    ),
    "config": ("DISCRETE_RGD", "PRM_FLOW", "RGD_FLOW", "NoiseSpec", "StepSchedule"),
    "equilibria": (
        "BasinMap", "EquilibriumReport", "basin_boundaries", "basin_scan",
        "classify_equilibrium", "find_equilibria",
    ),
    "errors": (
        "ConfigError", "InvalidCertificateError", "MissingConstantsError", "NotAMinimizerError",
        "NotAnEquilibriumError", "NumericIntegrationError", "OutOfDomainError", "PerflowError",
    ),
    "flows": (
        "Trajectory", "discrete_rgd", "integrate_ensemble", "integrate_flow", "lyapunov_derivative",
    ),
    "model": (
        "BernoulliSquaredModel", "Box", "CallableModel", "DecisionDependentModel",
        "SmoothnessConstants", "interval", "performative_perturbation", "performative_risk",
        "prm_vector_field", "rgd_vector_field", "sensitivity_estimate", "wasserstein1_bernoulli",
    ),
    "numerics": ("finite_diff_gradient", "finite_diff_jacobian"),
    "shifts": (
        "ShiftFunction", "bump_phi", "bump_phi_prime", "bump_shift", "clamped_polynomial_shift",
        "constant_shift", "logistic_shift", "tabulated_shift",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
