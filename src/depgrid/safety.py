"""Safety function: a goal-clipping observation governor.

The wrapper sits between the sensors and the policy and clips the perceived
goal into [0, goal_clip_max]. It changes only what the policy sees; episode
success is still judged against the true goal. For the scripted policy a
clip built by ``SafetyFunction.from_threshold`` from its risk threshold
keeps the perceived goal below that threshold, so the impatient branch is
never latched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_finite
from .policies import BatchPolicy, Policy
from .simulator import Action, EnvConfig, Observation, batch_form

DEFAULT_DELTA = 0.5


@dataclass(frozen=True)
class SafetyFunction:
    """Clip bound for the goal input, ``delta`` below a risk threshold."""

    goal_clip_max: float
    delta: float

    def __post_init__(self):
        check_finite(self)
        if not self.goal_clip_max >= 0.0:
            raise ConfigError(f"goal_clip_max {self.goal_clip_max} must be "
                              f">= 0")

    def check_env(self, env: EnvConfig) -> None:
        """Raise ConfigError unless the clip bound is at most the top of
        env's robot bounds; it must be >= 0 in any env."""
        lo, hi = env.robot_bounds
        if not self.goal_clip_max <= hi:
            raise ConfigError(f"goal_clip_max {self.goal_clip_max} above the "
                              f"robot bounds [{lo}, {hi}]")

    @classmethod
    def from_threshold(cls, threshold: float,
                       delta: float = DEFAULT_DELTA) -> "SafetyFunction":
        return cls(goal_clip_max=threshold - delta, delta=delta)


class GoalClippedPolicy:
    """A policy whose perceived goal is clipped into [0, goal_clip_max]."""

    def __init__(self, inner: Policy, sf: SafetyFunction):
        self.inner = inner
        self.sf = sf

    def reset(self) -> None:
        self.inner.reset()

    def act(self, obs: Observation) -> Action:
        clipped = min(max(obs.goal_noisy, 0.0), self.sf.goal_clip_max)
        return self.inner.act(Observation(
            obstacle_pos_noisy=obs.obstacle_pos_noisy,
            robot_pos=obs.robot_pos,
            obstacle_speed_noisy=obs.obstacle_speed_noisy,
            goal_noisy=clipped,
        ))

    def batch(self, n: int) -> "GoalClippedBatch":
        return GoalClippedBatch(batch_form(self.inner)(n), self.sf.goal_clip_max)


class GoalClippedBatch:
    """Batch form of GoalClippedPolicy: clips the goal column of a batch
    observation and hands it to the inner policy's batch controller. It
    offers the inner controller's ``settled()`` (see BatchPolicy) when the
    inner controller has one: an episode that the inner controller moves
    forward whatever it observes goes forward whatever its clipped goal."""

    def __init__(self, inner: BatchPolicy, goal_clip_max: float):
        self.inner = inner
        self.goal_clip_max = goal_clip_max
        if hasattr(inner, "settled"):
            self.settled = inner.settled

    def act(self, obs: Observation) -> np.ndarray:
        clipped = np.minimum(np.maximum(obs.goal_noisy, 0.0), self.goal_clip_max)
        return self.inner.act(Observation(
            obstacle_pos_noisy=obs.obstacle_pos_noisy,
            robot_pos=obs.robot_pos,
            obstacle_speed_noisy=obs.obstacle_speed_noisy,
            goal_noisy=clipped,
        ))


def wrap(policy: Policy, sf: SafetyFunction) -> GoalClippedPolicy:
    """Wrap a policy with the goal governor. Idempotent in behavior: wrapping
    twice with the same bound clips to the same value."""
    return GoalClippedPolicy(policy, sf)
