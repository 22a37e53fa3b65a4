"""Softmax (Boltzmann) Q-learning dynamics in two-player two-action games.

The package models two learners whose action values drive softmax policies
with exploration rates (temperatures) tx, ty.  In the continuous-time
limit their joint strategy follows an exploration-augmented replicator
flow that is volume contracting for any positive temperatures, so play
always settles at an interior rest point.  The library finds those rest
points, classifies their stability, integrates trajectories, traces how
the rest-point structure bifurcates as the temperatures vary, and checks
everything against a discrete stochastic simulator.

Every public name except the exceptions of :mod:`boltzq.errors` is loaded
on first use (PEP 562), with its submodule, so ``import boltzq`` loads
only :mod:`boltzq.errors` and each call loads the modules it reaches: a
region and its rest points load ``fixtures``, ``games``, ``numerics`` and
``restpoints``; :mod:`boltzq.bifurcation` loads with the bifurcation
drivers or a corner-quadrant region; the trajectory
(:mod:`boltzq.dynamics`) and simulator (:mod:`boltzq.simulate`) names
load numpy with them.
"""

from importlib import import_module

from .errors import (BoltzqError, DegenerateGameError, DomainError,
                     GameFormatError, NotApplicableError, NumericFailureError,
                     UnsupportedDimensionError)

#: the names resolved lazily by :func:`__getattr__`, by submodule
_LAZY = {
    **dict.fromkeys(
        ("BifurcationDiagram", "CriticalCurve", "InterceptProfile",
         "classify_pitchfork", "corner_boundary", "critical_curve",
         "equal_temperature_criticals", "intercept_extrema", "locate_cusp",
         "sweep_equal_temperature", "tangent_intercept",
         "zero_exploration_window"),
        "bifurcation"),
    **dict.fromkeys(("FIXTURES", "fixture"), "fixtures"),
    **dict.fromkeys(
        ("Game", "GameRegion", "GameRegionLabel", "NashEquilibrium",
         "PayoffMatrix", "ReducedCoefficients", "Temperatures",
         "classify_region", "load_game", "nash_equilibria", "reduce_payoffs",
         "risk_dominant_profile"),
        "games"),
    **dict.fromkeys(
        ("GFunction", "RestPoint", "count_rest_points", "find_rest_points",
         "solve_symmetric", "stability_eigenvalues",
         "symmetric_critical_offsets", "tangency_conditions"),
        "restpoints"),
    **dict.fromkeys(
        ("IntegratorConfig", "LogitPoint", "StrategyPoint", "Trajectory",
         "dissipation_rate", "free_energy", "gibbs_distribution",
         "integrate", "integrate_batch", "integrate_single_agent",
         "log_ratio_field", "logit_velocity", "numerical_divergence",
         "q_velocity", "replicator_velocity", "strategy_velocity"),
        "dynamics"),
    **dict.fromkeys(
        ("GENERATOR_ID", "AgentState", "EmpiricalTrace", "SimConfig",
         "boltzmann_policy", "q_update", "run_two_agents"),
        "simulate"),
}

__version__ = "0.1.0"

__all__ = sorted(["BoltzqError", "DegenerateGameError", "DomainError",
                  "GameFormatError", "NotApplicableError",
                  "NumericFailureError", "UnsupportedDimensionError", *_LAZY])


def __getattr__(name: str):
    """Import the submodule behind a lazy name (PEP 562) and cache the name
    in the package namespace, so later lookups do not come here; a
    submodule named in ``_LAZY`` is returned itself."""
    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
