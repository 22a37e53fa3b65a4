"""Discrete stochastic two-agent Q-learning with softmax action selection.

This simulator is the independent cross-check for the continuous flow: two
agents repeatedly play a matrix game, estimate per-action values from
sampled rewards, and follow softmax policies over those values.  Updates
are windowed and off-policy: within one round both policies are frozen,
``batch`` joint actions are sampled, each agent averages the rewards it
actually received per own-action, and then both apply one value update

    Q_i <- Q_i + alpha * (r_bar_i - Q_i)

to the actions they visited (unvisited actions are left untouched).  With
small alpha and large batches the recorded policy trace follows the ODE of
:mod:`boltzq.dynamics` on the rescaled clock t = alpha * round (at unit
temperatures).

All randomness flows through one seeded PCG64 generator; a run is a pure
function of its configuration, and equal seeds give bitwise-equal traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dynamics import _as_array, softmax
from .errors import DomainError
from .games import Game, Temperatures
from .numerics import (_as_count, _as_finite, _as_float,
                       _require_learning_rate, _require_temperature)

GENERATOR_ID = "numpy.random.PCG64"


@dataclass(frozen=True)
class AgentState:
    """Per-action value estimates plus the agent's fixed hyperparameters."""

    qvals: tuple[float, ...]
    temp: float
    alpha: float

    def __post_init__(self):
        qvals = _as_array(self.qvals, "q-values")
        if qvals.ndim != 1:
            raise DomainError(f"q-values must be 1-d, got {self.qvals!r}")
        object.__setattr__(self, "qvals", tuple(_as_finite(q, "q-value")
                                                for q in qvals.tolist()))
        _require_learning_rate(self.alpha)
        _require_temperature(self.temp)


def boltzmann_policy(state: AgentState) -> tuple[float, ...]:
    """Softmax of Q/T with a max shift so large values never overflow."""
    return tuple(softmax(np.asarray(state.qvals, dtype=float) / state.temp))


def q_update(state: AgentState, action: int, mean_reward: float) -> AgentState:
    """One value update for a single action; all other entries unchanged."""
    if _as_count(action, "action index", 0) >= len(state.qvals):
        raise DomainError(f"action index {action} out of range")
    q = list(state.qvals)
    q[action] += state.alpha * (_as_float(mean_reward, "mean reward")
                                - q[action])
    return AgentState(tuple(q), state.temp, state.alpha)


@dataclass(frozen=True)
class SimConfig:
    batch: int = 100
    rounds: int = 10_000
    seed: int = 0
    record_every: int = 100

    def __post_init__(self):
        for name in ("batch", "rounds", "record_every"):
            _as_count(getattr(self, name), name)
        if _as_count(self.seed, "seed", 0) >= 2 ** 64:
            raise DomainError("seed must fit in 64 unsigned bits")


@dataclass
class EmpiricalTrace:
    """Recorded policy of one agent: (round, action probabilities) pairs."""

    samples: list[tuple[int, tuple[float, ...]]] = field(default_factory=list)
    q_samples: list[tuple[float, ...]] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def final_probs(self) -> tuple[float, ...]:
        return self.samples[-1][1]


def run_two_agents(game: Game, temps: Temperatures, cfg: SimConfig,
                   init: Optional[tuple[AgentState, AgentState]] = None,
                   alpha: float = 0.01, record_q: bool = False
                   ) -> tuple[EmpiricalTrace, EmpiricalTrace]:
    """Simulate both learners against each other; returns their traces.

    ``init`` overrides the default zero-initialized value vectors; its
    temperatures must agree with ``temps``.  Policies are recorded (from
    the current values) every ``record_every`` rounds and once more after
    the final update.
    """
    n = game.n
    if init is None:
        state_x = AgentState((0.0,) * n, temps.tx, alpha)
        state_y = AgentState((0.0,) * n, temps.ty, alpha)
    else:
        state_x, state_y = init
        if state_x.temp != temps.tx or state_y.temp != temps.ty:
            raise DomainError("init states disagree with temps")
        if len(state_x.qvals) != n or len(state_y.qvals) != n:
            raise DomainError("init q-vectors do not match the game size")

    A = np.asarray(game.payoff_x.entries, dtype=float)
    B = np.asarray(game.payoff_y.entries, dtype=float)
    qx = np.asarray(state_x.qvals, dtype=float)
    qy = np.asarray(state_y.qvals, dtype=float)
    ax, ay_ = state_x.alpha, state_y.alpha
    rng = np.random.default_rng(int(cfg.seed))

    meta = {"seed": int(cfg.seed), "alpha": (ax, ay_), "batch": cfg.batch,
            "rounds": cfg.rounds, "temps": (temps.tx, temps.ty),
            "generator": GENERATOR_ID}
    trace_x = EmpiricalTrace(metadata=dict(meta))
    trace_y = EmpiricalTrace(metadata=dict(meta))

    def record(rnd, px, py):
        trace_x.samples.append((rnd, tuple(px)))
        trace_y.samples.append((rnd, tuple(py)))
        if record_q:
            trace_x.q_samples.append(tuple(qx))
            trace_y.q_samples.append(tuple(qy))

    for rnd in range(cfg.rounds):
        px = softmax(qx / temps.tx)
        py = softmax(qy / temps.ty)
        if rnd % cfg.record_every == 0:
            record(rnd, px, py)
        # One multinomial draw over joint actions == `batch` paired samples.
        joint = rng.multinomial(cfg.batch, np.outer(px, py).ravel()
                                ).reshape(n, n)
        count_x = joint.sum(axis=1)          # X's own-action visit counts
        count_y = joint.sum(axis=0)          # Y's own-action visit counts
        visited_x = count_x > 0
        visited_y = count_y > 0
        mean_rx = (A * joint).sum(axis=1) / np.maximum(count_x, 1)
        mean_ry = (B * joint.T).sum(axis=1) / np.maximum(count_y, 1)
        qx = np.where(visited_x, qx + ax * (mean_rx - qx), qx)
        qy = np.where(visited_y, qy + ay_ * (mean_ry - qy), qy)

    record(cfg.rounds, softmax(qx / temps.tx), softmax(qy / temps.ty))
    return trace_x, trace_y
