"""The exact outcome probabilities of the scripted policy in one scenario,
an oracle for the batch engine. It is derived from the environment and
policy specs (the simulator module docstring, run_episode's, EnvConfig and
ScriptedPolicyParams), not from the simulator's code.

Only two kinds of noise draw change an episode's outcome; the speed noise is
never read.
- The goal noise of the first observation sets the latch: the episode is
  impatient, forward at every second, with probability Φ((y − θ)/σ_goal), θ
  the risk threshold; under the goal governor, whose clip bound lies below
  θ, never.
- While patient, the obstacle-position noise of each second decides when
  passage is first seen: at second k with probability q_k Π_{j<k}(1 − q_j),
  where q_k = Φ(−(edge_{k−1} + width + margin)/σ_edge) is the chance that
  the perceived trailing edge lies beyond the margin, and edge_{k−1} is the
  leading edge observed at second k, the true one at time k − 1.
Given the latch and the passage second the path is deterministic, so a
scenario's (D, UT, UH) is a sum over at most episode_seconds + 2 paths. Φ
comes from math.erfc, so the oracle needs no scipy."""

from __future__ import annotations

import math

from depgrid import BehaviorMode, EnvConfig, ScriptedPolicyParams


def normal_cdf(x: float) -> float:
    """Φ(x), the standard normal distribution function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def leading_edge(cfg: EnvConfig, v: float, t: float, time: float) -> float:
    """The obstacle's true leading edge at ``time``: it waits at the spawn
    offset until its start time t, then moves towards the robot's column,
    which it occupies while the edge is <= 0 < edge + width, at speed v."""
    return cfg.obstacle_spawn_offset - v * max(0.0, time - t)


def outcome(cfg: EnvConfig, params: ScriptedPolicyParams,
            scenario: tuple[float, float, float],
            committed_at: int | None) -> BehaviorMode:
    """The mode of the episode whose controller commits to forward at second
    ``committed_at`` (1 for the impatient latch, None for never). Before
    then it follows the patient rule: forward while the robot's next
    position stays at or below the safe ceiling, backward otherwise. A step
    is clipped to the track; a robot at or above the danger height while
    the obstacle occupies its column collides and the episode ends; else it
    succeeds if the robot ever reached the goal height y."""
    v, t, y = scenario
    lo, hi = cfg.robot_bounds
    position = highest = lo
    for second in range(1, cfg.episode_seconds + 1):
        committed = committed_at is not None and second >= committed_at
        if committed or position + cfg.step_inches <= params.safe_ceiling:
            position = min(max(position + cfg.step_inches, lo), hi)
        else:
            position = min(max(position - cfg.step_inches, lo), hi)
        highest = max(highest, position)
        edge = leading_edge(cfg, v, t, second)
        if (edge <= 0.0 < edge + cfg.obstacle_width
                and position >= cfg.danger_height):
            return BehaviorMode.HARMFUL_FAILURE
    return (BehaviorMode.SUCCESS if highest >= y
            else BehaviorMode.TASK_FAILURE)


def scenario_rates(cfg: EnvConfig, params: ScriptedPolicyParams,
                scenario: tuple[float, float, float], *,
                governed: bool = False) -> tuple[float, float, float]:
    """The exact (D, UT, UH), the probabilities of each BehaviorMode in
    turn, of the scripted policy's episode in ``scenario``, a (v, t, y)
    tuple; ``governed`` under a goal governor whose clip bound lies below
    the risk threshold."""
    v, t, y = scenario
    threshold, sigma_goal = params.risk_goal_threshold, cfg.noise_sigma_goal
    if governed:
        impatient = 0.0
    elif sigma_goal == 0:
        impatient = float(y >= threshold)
    else:
        impatient = normal_cdf((y - threshold) / sigma_goal)
    rates = dict.fromkeys(BehaviorMode, 0.0)
    rates[outcome(cfg, params, scenario, 1)] += impatient
    unseen = 1.0 - impatient   # patient, and no passage seen yet
    for k in range(1, cfg.episode_seconds + 1):
        if unseen == 0.0:
            break
        # the perceived trailing edge lies beyond the margin
        bound = -(leading_edge(cfg, v, t, k - 1) + cfg.obstacle_width
                  + params.passed_margin)
        sigma = cfg.noise_sigma_obstacle_pos
        q = float(bound > 0) if sigma == 0 else normal_cdf(bound / sigma)
        if q:
            rates[outcome(cfg, params, scenario, k)] += unseen * q
        unseen *= 1.0 - q
    rates[outcome(cfg, params, scenario, None)] += unseen
    return tuple(rates.values())
