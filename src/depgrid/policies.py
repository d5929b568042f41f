"""Decision policies and campaign evaluation.

The scripted policy is a deterministic rule-based controller whose failure
topology mirrors a trained controller for the same task: it fails the task on
slow obstacles (it waits for them to pass, which slow ones never do in time)
and fails harmfully on high perceived goals (it stops waiting and drives
straight into the obstacle's path).

Each policy has two forms. The scalar form (``reset``/``act``) drives one
episode through ``simulator.run_episode``, the reference, which resets it
once and then asks one action a second until a collision or the horizon.
The batch form (``batch(n)``) returns a controller that keeps the
per-episode state of n episodes as arrays and maps a batch observation to
a forward mask. ``evaluate_policies`` runs several policies on the same
scenarios and episode seeds, such as a policy with and without the safety
governor, through their batch forms with one ``simulator.run_batch`` call,
so they share each block's noise. It returns one campaign per policy, as
columns (estimator.TestCampaign), one entry per scenario, that is per row
of the (n, 3) scenario array. ``evaluate_policy`` is its one-policy case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Protocol, Sequence

import numpy as np

from .domain import substream_seeds
from .errors import ConfigError, check_finite
from .estimator import TestCampaign
from .simulator import Action, EnvConfig, Observation, run_batch


class Policy(Protocol):
    """Per-episode controller: reset once, then one action per observation."""

    def reset(self) -> None: ...

    def act(self, obs: Observation) -> Action: ...


class BatchPolicy(Protocol):
    """Controller for n episodes stepped in lockstep, fresh from
    ``policy.batch(n)``. Each call gets a batch observation (one array entry
    per episode) and returns a bool array: True for forward, False for
    backward. Entries of episodes that have ended are ignored.

    A controller may also offer ``settled()``, asked only after its first
    ``act``: a bool array, True for each episode whose every later action
    is forward whatever it observes, even NaN or infinite readings. Once an
    entry is True it stays True. ``simulator.run_batch`` asks it at every
    chunk boundary, draws no more noise for an episode settled in every
    controller of its call, and hands such an episode zero noise from then
    on; a controller without ``settled()`` has every second of every
    episode drawn."""

    def act(self, obs: Observation) -> np.ndarray: ...


PolicyFactory = Callable[[], Policy]


@dataclass(frozen=True)
class ScriptedPolicyParams:
    """Tuning knobs for the scripted policy.

    risk_goal_threshold splits episodes into a patient mode (wait below the
    danger zone until the obstacle passes) and an impatient mode (drive
    forward unconditionally). safe_ceiling is the highest position the
    patient mode will occupy before passage; with 5-inch steps and the
    danger zone starting at 25, that is 20. passed_margin widens the
    passage test: the obstacle counts as passed only once its perceived
    trailing edge is that many inches beyond the robot column.
    """

    risk_goal_threshold: float = 38.47
    safe_ceiling: float = 20.0
    passed_margin: float = 0.0

    def __post_init__(self):
        check_finite(self)
        if not 0.0 < self.safe_ceiling:
            raise ConfigError(f"safe_ceiling {self.safe_ceiling} must be > 0")
        if not self.passed_margin >= 0:   # false for NaN too
            raise ConfigError("passed_margin must be non-negative")

    def check_env(self, env: EnvConfig) -> None:
        """Raise ConfigError unless the risk threshold lies within env's
        robot bounds and the safe ceiling below its danger height."""
        lo, hi = env.robot_bounds
        if not lo <= self.risk_goal_threshold <= hi:
            raise ConfigError(f"risk_goal_threshold {self.risk_goal_threshold} "
                              f"outside the robot bounds [{lo}, {hi}]")
        if not self.safe_ceiling < env.danger_height:
            raise ConfigError(f"safe_ceiling {self.safe_ceiling} must stay "
                              f"below the danger height {env.danger_height}")


class ScriptedPolicy:
    """Goal-latching wait-then-go controller.

    The perceived goal is latched from the first observation, so the
    patient/impatient decision is a single noise draw per episode. Patient
    mode shuttles between safe_ceiling and one step below it until the
    perceived obstacle trailing edge clears the robot column, then drives
    forward to the top of the track. Impatient mode always drives forward.
    """

    def __init__(self, params: ScriptedPolicyParams, env: EnvConfig):
        params.check_env(env)
        self.params = params
        self.env = env
        self.reset()

    def reset(self) -> None:
        self._goal: float | None = None
        self._passed = False

    @property
    def latched_goal(self) -> float | None:
        return self._goal

    def act(self, obs: Observation) -> Action:
        p = self.params
        if self._goal is None:
            self._goal = obs.goal_noisy
        if self._goal >= p.risk_goal_threshold:
            return Action.FORWARD
        if not self._passed:
            trailing = obs.obstacle_pos_noisy + self.env.obstacle_width
            if trailing < -p.passed_margin:
                self._passed = True
        if self._passed:
            return Action.FORWARD
        if obs.robot_pos + self.env.step_inches <= p.safe_ceiling:
            return Action.FORWARD
        return Action.BACKWARD

    def batch(self, n: int) -> "ScriptedBatch":
        return ScriptedBatch(self.params, self.env, n)


class ScriptedBatch:
    """Batch form of ScriptedPolicy: the same rules over arrays. One mask
    holds the episodes committed to forward, which the scalar form's
    latched goal and passage flag decide: those that latched the impatient
    branch at their first observation, and those that have seen the
    obstacle pass."""

    def __init__(self, params: ScriptedPolicyParams, env: EnvConfig, n: int):
        self.params = params
        self.env = env
        self._committed = np.zeros(n, dtype=bool)
        self._latched = False

    def act(self, obs: Observation) -> np.ndarray:
        p = self.params
        if not self._latched:
            self._committed |= obs.goal_noisy >= p.risk_goal_threshold
            self._latched = True
        # the scalar form skips this test for impatient episodes, which go
        # forward whatever the flag says
        trailing = obs.obstacle_pos_noisy + self.env.obstacle_width
        self._committed |= trailing < -p.passed_margin
        return self._committed | (obs.robot_pos + self.env.step_inches
                                  <= p.safe_ceiling)

    def settled(self) -> np.ndarray:
        """The committed episodes (see BatchPolicy), as a copy."""
        return self._committed.copy()


def evaluate_policies(cfg: EnvConfig, factories: Sequence[PolicyFactory],
                      scenarios: np.ndarray, master_seed: int, *,
                      condition_name: str = "") -> tuple[TestCampaign, ...]:
    """One campaign per factory, each of one episode per row of
    ``scenarios``, an (n, 3) float array such as ``sample`` returns, all in
    lockstep through the batch form of ``factory()``; a policy without one
    raises ConfigError. The campaigns share each block's noise draw (see
    simulator.run_batch).

    Episode i's seed is ``substream_seed(master_seed, i)`` in every campaign,
    and its record in the campaign of factory f equals ``run_episode(cfg,
    f(), scenarios[i], seed)``, so each campaign is a pure function of its
    inputs and equals ``evaluate_policy(cfg, f, scenarios, master_seed)``.
    The seeds are derived for all episodes at once by substream_seeds, as a
    uint64 array whose low and high word columns seed the episode noise:
    each block's PCG64 states are computed at once and written, row by row,
    into one generator's state memory (see domain.SeededStreams). A
    negative master seed raises ConfigError.
    """
    seeds = substream_seeds(master_seed, len(scenarios))
    return tuple(
        replace(c, condition_name=condition_name, master_seed=master_seed)
        for c in run_batch(cfg, [f() for f in factories], scenarios, seeds))


def evaluate_policy(cfg: EnvConfig, policy_factory: PolicyFactory,
                    scenarios: np.ndarray, master_seed: int, *,
                    condition_name: str = "") -> TestCampaign:
    """The campaign of one policy: ``evaluate_policies`` for the one
    factory."""
    (campaign,) = evaluate_policies(cfg, (policy_factory,), scenarios,
                                    master_seed, condition_name=condition_name)
    return campaign
