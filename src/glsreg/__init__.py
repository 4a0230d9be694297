"""Grand Lebesgue space norms and regulator-of-convergence bounds.

The package has three layers:

- weights and norms: generating functions psi(p), moment curves ||f||_p,
  the sup-norm sup_p ||f||_p / psi(p), and the conjugate tail bound;
- bounds: the moment bound for the a.e.-convergence regulator from a
  moment envelope, and weighted decay-sequence sums cut once their
  remainder is at most rel_tol x the partial sum;
- simulation: counter-based Monte Carlo for the regulator with exact
  oracles (product tails, inclusion-exclusion sandwich, exact moments)
  and a verification suite that compares the two routes.
"""

import importlib

__version__ = "0.1.0"

# Each module with the public names it exports.  Names load on first use
# (PEP 562), so a command pays only for the modules it runs: ``glsreg --help``
# loads neither numpy nor scipy.
_EXPORTS = {
    "bounds": ("MomentEnvelope", "regulator_lp_bound", "sigma_function"),
    "criteria": ("TrajectoryBatch", "criterion_functional", "extract_regulator", "regulator_ratio_matrix"),
    "errors": (
        "ConfigError",
        "Divergent",
        "DomainError",
        "EmptyDomain",
        "EmptySample",
        "GLSError",
        "InvalidEpsilon",
        "InvalidExponent",
        "MomentInfinite",
        "NoFiniteMoment",
        "ToleranceUnreachable",
        "TruncationInfeasible",
    ),
    "generating": (
        "ExponentInterval",
        "Extremal",
        "GeneratingFunction",
        "NaturalFunction",
        "PointDomain",
        "PowerRoot",
        "Product",
        "Tabulated",
        "TwoSidedSingular",
        "evaluate",
        "natural_function",
    ),
    "moments": (
        "MomentFunction",
        "classical_grand_norm",
        "constant_moments",
        "discrete_moments",
        "empirical_tail",
        "exponential_tail_bound",
        "gls_norm",
        "gls_norm_scan",
        "half_normal_moments",
        "scaled_moments",
        "std_exponential_moments",
        "sup_moment_function",
        "table_moments",
        "young_fenchel",
        "young_fenchel_scan",
    ),
    "reports": ("CheckRecord", "VerificationReport"),
    "sequences": ("DecaySequencePair", "GeometricSequence", "PowerLogSequence", "SlowlyVaryingSequence"),
    "simulate": (
        "ExponentialPower",
        "FixedTruncation",
        "GaussianPower",
        "SimulationPlan",
        "TailTargetTruncation",
        "asymptotic_tail_constant",
        "bonferroni_sums",
        "exact_eta_moment",
        "exact_eta_tail",
        "exp_power_sum",
        "exp_power_threshold",
        "simulate_eta",
        "simulate_trajectories",
        "truncation_bound",
    ),
    "verify": ("run_suite",),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [
    "__version__",
    # errors
    "GLSError",
    "DomainError",
    "EmptyDomain",
    "EmptySample",
    "ConfigError",
    "Divergent",
    "InvalidEpsilon",
    "InvalidExponent",
    "MomentInfinite",
    "NoFiniteMoment",
    "ToleranceUnreachable",
    "TruncationInfeasible",
    # generating functions
    "GeneratingFunction",
    "ExponentInterval",
    "PointDomain",
    "PowerRoot",
    "TwoSidedSingular",
    "Extremal",
    "Tabulated",
    "NaturalFunction",
    "Product",
    "evaluate",
    "natural_function",
    # moments and norms
    "MomentFunction",
    "constant_moments",
    "std_exponential_moments",
    "half_normal_moments",
    "discrete_moments",
    "table_moments",
    "scaled_moments",
    "sup_moment_function",
    "empirical_tail",
    "gls_norm",
    "gls_norm_scan",
    "classical_grand_norm",
    "young_fenchel",
    "young_fenchel_scan",
    "exponential_tail_bound",
    # bounds
    "MomentEnvelope",
    "regulator_lp_bound",
    "sigma_function",
    # sequences
    "GeometricSequence",
    "PowerLogSequence",
    "SlowlyVaryingSequence",
    "DecaySequencePair",
    # simulation and oracles
    "ExponentialPower",
    "GaussianPower",
    "SimulationPlan",
    "FixedTruncation",
    "TailTargetTruncation",
    "simulate_eta",
    "simulate_trajectories",
    "truncation_bound",
    "exact_eta_tail",
    "exact_eta_moment",
    "bonferroni_sums",
    "asymptotic_tail_constant",
    "exp_power_sum",
    "exp_power_threshold",
    # criteria and reports
    "TrajectoryBatch",
    "criterion_functional",
    "extract_regulator",
    "regulator_ratio_matrix",
    "CheckRecord",
    "VerificationReport",
    "run_suite",
]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
