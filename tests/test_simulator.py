from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from depgrid import (
    Action,
    BehaviorMode,
    ConfigError,
    EnvConfig,
    EpisodeNotFinished,
    OutOfDomain,
    ScriptedPolicy,
    ScriptedPolicyParams,
    SteppingTerminatedEpisode,
    classify,
    init,
    run_episode,
    scenario_domain,
    step,
)
from depgrid.simulator import MAX_EPISODE_SECONDS, _observation


def noiseless(env: EnvConfig) -> EnvConfig:
    return dataclasses.replace(env, noise_sigma_speed=0.0,
                               noise_sigma_obstacle_pos=0.0,
                               noise_sigma_goal=0.0)


class TestInit:
    def test_start_state(self, env):
        s = init(env, (5.0, 0.0, 25.0))
        assert s.time == 0
        assert s.robot_pos == 0.0
        assert s.obstacle_leading_edge == 80.0
        assert not s.collided

    def test_boundary_scenario_is_valid(self, env):
        s = init(env, (0.0, 10.0, 50.0))
        assert s.obstacle_leading_edge == 80.0

    def test_out_of_domain(self, env):
        with pytest.raises(OutOfDomain):
            init(env, (11.0, 0.0, 0.0))

    def test_scenario_domain_bounds(self, env):
        space = scenario_domain(env)
        assert space.names == ("v", "t", "y")
        assert space.dims[2].max == env.robot_bounds[1]


class TestObserve:
    def test_zero_noise_equals_truth(self, env):
        cfg = noiseless(env)
        s = init(cfg, (4.0, 2.0, 33.0))
        obs = _observation(cfg, s, np.random.default_rng(0).standard_normal(3))
        assert obs.obstacle_pos_noisy == 80.0
        assert obs.robot_pos == 0.0
        assert obs.obstacle_speed_noisy == 4.0
        assert obs.goal_noisy == 33.0

    def test_goal_noise_spread(self, env):
        s = init(env, (4.0, 2.0, 33.0))
        eps = np.random.default_rng(11).standard_normal((3, 100_000))
        goals = _observation(env, s, eps).goal_noisy
        assert float(goals.std(ddof=1)) == pytest.approx(
            env.noise_sigma_goal, rel=0.02)
        assert float(goals.mean()) == pytest.approx(33.0, abs=0.02)


class TestStep:
    def test_forward_clips_at_top(self, env):
        s = init(env, (1.0, 10.0, 10.0))
        for _ in range(12):
            s = step(env, s, Action.FORWARD)
        assert s.robot_pos == 50.0
        s = step(env, s, Action.FORWARD)
        assert s.robot_pos == 50.0  # no error, no overshoot

    def test_backward_clips_at_bottom(self, env):
        s = init(env, (1.0, 10.0, 10.0))
        s = step(env, s, Action.BACKWARD)
        assert s.robot_pos == 0.0

    def test_fast_obstacle_kinematics_trace(self, env):
        # v=10, t=0: leading edge hits the column at time 8, clears at 9.
        # a robot holding at >= 25 then must collide at time 8
        s = init(env, (10.0, 0.0, 50.0))
        for _ in range(6):
            s = step(env, s, Action.FORWARD)   # at 30 after 6 steps
        assert s.robot_pos == 30.0
        s = step(env, s, Action.BACKWARD)      # 25, time 7, edge 10
        assert s.obstacle_leading_edge == pytest.approx(10.0)
        assert not s.collided
        s = step(env, s, Action.FORWARD)       # 30, time 8, edge 0: occupied
        assert s.collided and s.time == 8

    def test_obstacle_waits_for_start_time(self, env):
        s = init(env, (10.0, 3.0, 10.0))
        for expect_edge in (80.0, 80.0, 80.0, 70.0, 60.0):
            s = step(env, s, Action.BACKWARD)
            assert s.obstacle_leading_edge == pytest.approx(expect_edge)

    def test_step_after_collision_rejected(self, env):
        s = init(env, (10.0, 0.0, 50.0))
        for _ in range(8):
            s = step(env, s, Action.FORWARD)
        assert s.collided
        with pytest.raises(SteppingTerminatedEpisode):
            step(env, s, Action.FORWARD)

    def test_step_after_time_limit_rejected(self, env):
        s = init(env, (0.0, 0.0, 0.0))
        for _ in range(env.episode_seconds):
            s = step(env, s, Action.BACKWARD)
        with pytest.raises(SteppingTerminatedEpisode):
            step(env, s, Action.BACKWARD)

    def test_position_stays_in_bounds_and_edge_non_increasing(self, env):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = float(rng.uniform(0, 10))
            t = float(rng.uniform(0, 10))
            s = init(env, (v, t, 25.0))
            prev_edge = s.obstacle_leading_edge
            while not s.collided and s.time < env.episode_seconds:
                a = Action.FORWARD if rng.random() < 0.5 else Action.BACKWARD
                s = step(env, s, a)
                assert 0.0 <= s.robot_pos <= 50.0
                assert s.obstacle_leading_edge <= prev_edge + 1e-12
                prev_edge = s.obstacle_leading_edge
            if s.collided:
                assert s.robot_pos >= env.danger_height
                edge = s.obstacle_leading_edge
                assert edge <= 0.0 < edge + env.obstacle_width


class TestClassify:
    def test_collision_dominates_goal(self, env):
        # reach the goal early, then collide: still a harmful failure
        s = init(env, (10.0, 0.0, 20.0))
        for _ in range(8):
            s = step(env, s, Action.FORWARD)
        assert s.max_robot_pos >= 20.0 and s.collided
        assert classify(env, s) is BehaviorMode.HARMFUL_FAILURE

    def test_success_by_running_maximum(self, env):
        # visit 30 >= goal 25 mid-episode, retreat afterwards
        s = init(env, (0.0, 0.0, 25.0))
        for _ in range(6):
            s = step(env, s, Action.FORWARD)
        while s.time < env.episode_seconds:
            s = step(env, s, Action.BACKWARD)
        assert s.robot_pos < 25.0 <= s.max_robot_pos
        assert classify(env, s) is BehaviorMode.SUCCESS

    def test_task_failure(self, env):
        s = init(env, (0.0, 0.0, 40.0))
        for _ in range(4):
            s = step(env, s, Action.FORWARD)   # hold at 20 < 40
        while s.time < env.episode_seconds:
            s = step(env, s, Action.BACKWARD)
        assert classify(env, s) is BehaviorMode.TASK_FAILURE

    def test_unfinished_episode_rejected(self, env):
        s = init(env, (1.0, 1.0, 10.0))
        s = step(env, s, Action.FORWARD)
        with pytest.raises(EpisodeNotFinished):
            classify(env, s)

    def test_modes_exclusive_and_exhaustive(self, env, scripted_factory):
        rng = np.random.default_rng(6)
        for i in range(60):
            x = (rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 50))
            r = run_episode(env, scripted_factory(), x, seed=i)
            assert r.mode in (BehaviorMode.SUCCESS, BehaviorMode.TASK_FAILURE,
                              BehaviorMode.HARMFUL_FAILURE)
            assert (r.collision_time is not None) == (
                r.mode is BehaviorMode.HARMFUL_FAILURE)


class TestRunEpisode:
    def test_goal_zero_is_immediate_success(self, env, scripted_factory):
        r = run_episode(env, scripted_factory(), (5.0, 5.0, 0.0), 3)
        assert r.mode is BehaviorMode.SUCCESS

    def test_stationary_obstacle_never_passes_patient_policy(
            self, env, patient_factory):
        r = run_episode(env, patient_factory(), (0.0, 5.0, 40.0), 4)
        assert r.mode is BehaviorMode.TASK_FAILURE
        assert r.final_position <= 20.0
        assert r.steps == env.episode_seconds

    def test_byte_identical_reruns(self, env, scripted_factory):
        x = (3.3, 4.4, 41.0)
        a = run_episode(env, scripted_factory(), x, 12345)
        b = run_episode(env, scripted_factory(), x, 12345)
        assert a == b

    def test_noiseless_outcome_is_seed_independent(self, env, params):
        cfg = noiseless(env)
        x = (2.0, 1.0, 30.0)
        outcomes = {
            run_episode(cfg, ScriptedPolicy(params, cfg), x, seed).mode
            for seed in (1, 2, 3, 99)
        }
        assert len(outcomes) == 1

    def test_any_coordinate_sequence_gives_the_same_record(
            self, env, scripted_factory):
        """A tuple, a list and an ndarray row of the same coordinates give the
        same record, whose scenario is a tuple of Python floats."""
        xs = np.array([[4.0, 2.0, 35.0], [10.0, 0.0, 50.0], [0.3, 7.1, 12.5]])
        for row in xs:
            want = tuple(row.tolist())
            forms = (want, list(want), row, tuple(row))
            records = [run_episode(env, scripted_factory(), x, 21) for x in forms]
            assert all(r == records[0] for r in records)
            for r in records:
                assert type(r.scenario) is tuple and r.scenario == want
                assert all(type(v) is float for v in r.scenario)
            assert init(env, row).scenario == want
        ints = run_episode(env, scripted_factory(), [4, 2, 35], 21)
        assert ints == run_episode(env, scripted_factory(), xs[0], 21)
        assert all(type(v) is float for v in ints.scenario)

    def test_collision_freezes_episode(self, env, scripted_factory):
        r = run_episode(env, scripted_factory(), (10.0, 0.0, 50.0), 8)
        assert r.mode is BehaviorMode.HARMFUL_FAILURE
        assert r.steps == r.collision_time < env.episode_seconds


class TestEnvConfigValidation:
    def test_danger_height_inside_bounds(self):
        with pytest.raises(ConfigError):
            EnvConfig(danger_height=60.0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            EnvConfig(noise_sigma_goal=-0.1)

    @pytest.mark.parametrize("seconds", [MAX_EPISODE_SECONDS + 1, 10**12])
    def test_episode_longer_than_the_cap_rejected(self, seconds):
        """Only construction is tried: a block of 10**12-second episodes
        that passed it would ask for more memory for its noise than any
        machine has."""
        with pytest.raises(ConfigError, match=f"episode_seconds must be at "
                                              f"most {MAX_EPISODE_SECONDS}, "
                                              f"got {seconds}"):
            EnvConfig(episode_seconds=seconds)
        assert EnvConfig(episode_seconds=MAX_EPISODE_SECONDS).episode_seconds \
            == MAX_EPISODE_SECONDS

    @pytest.mark.parametrize("field, value", [
        *((f, math.nan) for f in (
            "step_inches", "danger_height", "obstacle_spawn_offset",
            "obstacle_width", "noise_sigma_speed", "noise_sigma_obstacle_pos",
            "noise_sigma_goal")),
        ("robot_bounds", (math.nan, 50.0)), ("robot_bounds", (0.0, math.nan)),
    ])
    def test_nan_field_rejected(self, field, value):
        """NaN fails every comparison, so each bound is tested as the
        negation of the comparison that holds for a valid value."""
        with pytest.raises(ConfigError):
            EnvConfig(**{field: value})
