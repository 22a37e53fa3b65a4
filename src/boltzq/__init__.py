"""Softmax (Boltzmann) Q-learning dynamics in two-player two-action games.

The package models two learners whose action values drive softmax policies
with exploration rates (temperatures) tx, ty.  In the continuous-time
limit their joint strategy follows an exploration-augmented replicator
flow that is volume contracting for any positive temperatures, so play
always settles at an interior rest point.  The library finds those rest
points, classifies their stability, integrates trajectories, traces how
the rest-point structure bifurcates as the temperatures vary, and checks
everything against a discrete stochastic simulator.
"""

from .dynamics import (IntegratorConfig, LogitPoint, StrategyPoint,
                       Trajectory, dissipation_rate, free_energy,
                       gibbs_distribution, integrate, integrate_batch,
                       integrate_single_agent, log_ratio_field,
                       logit_velocity, numerical_divergence, q_velocity,
                       replicator_velocity, strategy_velocity)
from .errors import (BoltzqError, DegenerateGameError, DomainError,
                     GameFormatError, NotApplicableError, NumericFailureError,
                     UnsupportedDimensionError)
from .bifurcation import (BifurcationDiagram, CriticalCurve, InterceptProfile,
                          classify_pitchfork, corner_boundary, critical_curve,
                          equal_temperature_criticals, intercept_extrema,
                          locate_cusp, sweep_equal_temperature,
                          tangent_intercept, zero_exploration_window)
from .fixtures import FIXTURES, fixture
from .games import (Game, GameRegion, GameRegionLabel, NashEquilibrium,
                    PayoffMatrix, ReducedCoefficients, Temperatures,
                    classify_region, load_game, nash_equilibria,
                    reduce_payoffs, risk_dominant_profile)
from .restpoints import (GFunction, RestPoint, count_rest_points,
                         find_rest_points, solve_symmetric,
                         stability_eigenvalues, symmetric_critical_offsets,
                         tangency_conditions)
from .simulate import (GENERATOR_ID, AgentState, EmpiricalTrace, SimConfig,
                       boltzmann_policy, q_update, run_two_agents)

__version__ = "0.1.0"

__all__ = [
    "AgentState", "BifurcationDiagram", "BoltzqError", "CriticalCurve",
    "DegenerateGameError", "DomainError", "EmpiricalTrace", "FIXTURES",
    "GENERATOR_ID", "GFunction", "Game", "GameFormatError", "GameRegion",
    "GameRegionLabel", "IntegratorConfig", "InterceptProfile", "LogitPoint",
    "NashEquilibrium", "NotApplicableError", "NumericFailureError",
    "PayoffMatrix", "ReducedCoefficients", "RestPoint", "SimConfig",
    "StrategyPoint", "Temperatures", "Trajectory",
    "UnsupportedDimensionError", "boltzmann_policy", "classify_pitchfork",
    "classify_region", "corner_boundary", "count_rest_points",
    "critical_curve", "dissipation_rate", "equal_temperature_criticals",
    "find_rest_points", "fixture", "free_energy", "gibbs_distribution",
    "integrate", "integrate_batch", "integrate_single_agent",
    "intercept_extrema", "load_game", "locate_cusp", "log_ratio_field",
    "logit_velocity", "nash_equilibria", "numerical_divergence",
    "q_update", "q_velocity", "reduce_payoffs", "replicator_velocity",
    "risk_dominant_profile", "run_two_agents", "solve_symmetric",
    "stability_eigenvalues", "strategy_velocity",
    "sweep_equal_temperature", "symmetric_critical_offsets",
    "tangency_conditions", "tangent_intercept", "zero_exploration_window",
]
