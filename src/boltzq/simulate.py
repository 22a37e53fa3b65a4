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

The two learners are the two rows of one set of arrays (values, own-action
payoffs, rates and temperatures), so one round updates both rows: one
softmax, one count of visits, one mean reward and one value update.  Y's
own-action counts are X's joint counts transposed.

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
from .numerics import (_as_count, _as_finite, _as_float, _as_pair,
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
        if qvals.ndim != 1 or qvals.size == 0:
            raise DomainError("q-values must be a non-empty 1-d vector, got "
                              f"{self.qvals!r}")
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

    ``init``, a pair of :class:`AgentState` (X's, then Y's), overrides the
    default zero-initialized value vectors; its temperatures must agree
    with ``temps``.  Policies are recorded (from the current values) every
    ``record_every`` rounds and once more after the final update.
    """
    n, pair = game.n, (temps.tx, temps.ty)
    if init is None:
        init = tuple(AgentState((0.0,) * n, temp, alpha) for temp in pair)
    init = _as_pair(init, "init")
    if not all(isinstance(state, AgentState) for state in init):
        raise DomainError(f"init must be a pair of AgentState, got {init!r}")
    if tuple(state.temp for state in init) != pair:
        raise DomainError("init states disagree with temps")
    if any(len(state.qvals) != n for state in init):
        raise DomainError("init q-vectors do not match the game size")

    # row 0 is X and row 1 is Y; a payoff row is own action by opponent's
    q = np.array([state.qvals for state in init], dtype=float)
    pay = np.array([game.payoff_x.entries, game.payoff_y.entries], float)
    rates = np.array([[state.alpha] for state in init], dtype=float)
    temp = np.array(pair)[:, None]
    rng = np.random.default_rng(int(cfg.seed))

    meta = {"seed": int(cfg.seed),
            "alpha": tuple(state.alpha for state in init), "batch": cfg.batch,
            "rounds": cfg.rounds, "temps": pair, "generator": GENERATOR_ID}
    traces = tuple(EmpiricalTrace(metadata=dict(meta)) for _ in init)

    def record(rnd, p):
        for trace, probs, qs in zip(traces, p, q):
            trace.samples.append((rnd, tuple(probs)))
            if record_q:
                trace.q_samples.append(tuple(qs))

    for rnd in range(cfg.rounds):
        p = softmax(q / temp)
        if rnd % cfg.record_every == 0:
            record(rnd, p)
        # One multinomial draw over joint actions == `batch` paired samples.
        joint = rng.multinomial(cfg.batch, np.outer(*p).ravel()).reshape(n, n)
        own = np.stack((joint, joint.T))   # counts by own, opponent action
        visits = own.sum(axis=2)
        mean = (pay * own).sum(axis=2) / np.maximum(visits, 1)
        q = np.where(visits > 0, q + rates * (mean - q), q)

    record(cfg.rounds, softmax(q / temp))
    return traces
