from __future__ import annotations

import pytest

from depgrid import (
    BehaviorMode,
    ConfigError,
    EnvConfig,
    Observation,
    SafetyFunction,
    ScriptedPolicy,
    evaluate_policy,
    observed_rates,
    run_episode,
    sample,
    substream_seed,
    wrap,
)
from depgrid import presets


class Probe:
    """Records the goal values the inner policy actually sees."""

    def __init__(self):
        self.goals = []

    def reset(self):
        self.goals.clear()

    def act(self, obs: Observation) -> bool:
        self.goals.append(obs.goal_noisy)
        return True


DEFAULT_SF = SafetyFunction.from_threshold(
    presets.default_policy_params().risk_goal_threshold)


def obs(goal: float) -> Observation:
    return Observation(obstacle_pos_noisy=80.0, robot_pos=0.0,
                       obstacle_speed_noisy=5.0, goal_noisy=goal)


class TestWrap:
    def test_clips_high_goal(self):
        probe = Probe()
        wrapped = wrap(probe, DEFAULT_SF)
        wrapped.reset()
        wrapped.act(obs(45.0))
        assert probe.goals == [pytest.approx(38.47 - 0.5)]

    def test_low_goal_passes_through(self):
        probe = Probe()
        wrapped = wrap(probe, DEFAULT_SF)
        wrapped.reset()
        wrapped.act(obs(10.0))
        assert probe.goals == [10.0]

    def test_negative_noise_clipped_to_zero(self):
        probe = Probe()
        wrapped = wrap(probe, DEFAULT_SF)
        wrapped.reset()
        wrapped.act(obs(-0.7))
        assert probe.goals == [0.0]

    def test_from_threshold(self):
        sf = SafetyFunction.from_threshold(38.47, delta=0.5)
        assert sf.goal_clip_max == pytest.approx(37.97)

    def test_bounds_validation(self):
        """The clip bound must be >= 0, and at most the top of the robot
        bounds of the env it runs in, not a fixed 50."""
        with pytest.raises(ConfigError):
            SafetyFunction(goal_clip_max=-1.0, delta=0.5)
        with pytest.raises(ConfigError, match="robot bounds"):
            SafetyFunction(goal_clip_max=51.0, delta=0.5).check_env(EnvConfig())
        SafetyFunction(goal_clip_max=50.0, delta=0.5).check_env(EnvConfig())
        SafetyFunction(goal_clip_max=51.0, delta=0.5).check_env(
            EnvConfig(robot_bounds=(0.0, 100.0)))


class TestWrappedCampaigns:
    def test_double_wrap_is_behaviorally_identical(self, env, params):
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        xs = sample(presets.condition("testing"), 300, 91)
        once = evaluate_policy(
            env, lambda: wrap(ScriptedPolicy(params, env), sf), xs, 17)
        twice = evaluate_policy(
            env, lambda: wrap(wrap(ScriptedPolicy(params, env), sf), sf),
            xs, 17)
        assert once.records == twice.records

    def test_wrapped_policy_never_latches_impatient(self, env, params):
        # clip below the risk threshold: zero harmful failures remain
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        xs = sample(presets.condition("testing"), 2500, 92)
        campaign = evaluate_policy(
            env, lambda: wrap(ScriptedPolicy(params, env), sf), xs, 18)
        assert all(r.mode is not BehaviorMode.HARMFUL_FAILURE
                   for r in campaign.records)

    @pytest.mark.parametrize("cond_name", ["testing", "oc2"])
    def test_harmful_rate_dominance_at_fixed_seeds(self, env, params,
                                                   cond_name):
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        xs = sample(presets.condition(cond_name), 1200, 93)
        plain = evaluate_policy(
            env, lambda: ScriptedPolicy(params, env), xs, 19)
        shielded = evaluate_policy(
            env, lambda: wrap(ScriptedPolicy(params, env), sf), xs, 19)
        n_plain = sum(1 for r in plain.records
                      if r.mode is BehaviorMode.HARMFUL_FAILURE)
        n_shielded = sum(1 for r in shielded.records
                         if r.mode is BehaviorMode.HARMFUL_FAILURE)
        assert n_shielded <= n_plain
        assert n_plain > 0  # the comparison is not vacuous

    def test_safe_episodes_are_bitwise_unaffected(self, env, params):
        # if the unwrapped latched goal is already below the clip bound, the
        # wrapper changes nothing about the episode
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        xs = sample(presets.condition("testing"), 600, 94)
        plain = evaluate_policy(
            env, lambda: ScriptedPolicy(params, env), xs, 21)
        shielded = evaluate_policy(
            env, lambda: wrap(ScriptedPolicy(params, env), sf), xs, 21)
        n_safe = 0
        for i, (a, b) in enumerate(zip(plain.records, shielded.records)):
            p = ScriptedPolicy(params, env)
            assert run_episode(env, p, a.scenario, substream_seed(21, i)) == a
            if p.latched_goal < sf.goal_clip_max:
                n_safe += 1
                assert a == b
        assert n_safe > 300

    def test_success_criterion_still_uses_true_goal(self, env, params):
        # true goal above the clip: the wrapped patient policy still reaches
        # the top after passage, so a fast obstacle lets it succeed against
        # the true goal even though it never "sees" it
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        r = run_episode(env, wrap(ScriptedPolicy(params, env), sf),
                        (9.0, 0.0, 48.0), 5)
        assert r.mode is BehaviorMode.SUCCESS
        # and a slow obstacle leaves the true goal unmet: task failure, so
        # clipping did not relax the success criterion
        r2 = run_episode(env, wrap(ScriptedPolicy(params, env), sf),
                         (0.2, 0.0, 48.0), 6)
        assert r2.mode is BehaviorMode.TASK_FAILURE

    def test_dependability_not_reduced_much(self, env, params):
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        xs = sample(presets.condition("testing"), 2000, 95)
        plain = observed_rates(evaluate_policy(
            env, lambda: ScriptedPolicy(params, env), xs, 23))
        shielded = observed_rates(evaluate_policy(
            env, lambda: wrap(ScriptedPolicy(params, env), sf), xs, 23))
        assert shielded.dependability >= plain.dependability - 0.01
