from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from hypothesis import given, strategies as st

from depgrid import (
    Action,
    BehaviorMode,
    ConfigError,
    EnvConfig,
    Observation,
    OutOfDomain,
    ScriptedPolicy,
    ScriptedPolicyParams,
    run_episode,
    scenario_domain,
)
from depgrid.simulator import MAX_EPISODE_SECONDS

F, B = Action.FORWARD, Action.BACKWARD


def noiseless(env: EnvConfig) -> EnvConfig:
    return dataclasses.replace(env, noise_sigma_speed=0.0,
                               noise_sigma_obstacle_pos=0.0,
                               noise_sigma_goal=0.0)


class Probe:
    """A scalar policy that plays ``actions``, then ``then`` for good, and
    keeps every observation it is handed: seen[k] is the episode at second
    k. In a noiseless env its obstacle_pos_noisy is the true leading
    edge."""

    def __init__(self, actions=(), then=B):
        self.actions, self.then = list(actions), then
        self.seen = []

    def reset(self):
        self.seen = []

    def act(self, obs):
        self.seen.append(obs)
        k = len(self.seen) - 1
        return self.actions[k] if k < len(self.actions) else self.then


def probe(cfg, x, actions=(), then=B, seed=0):
    """The record of one episode of a Probe, and what the probe saw."""
    policy = Probe(actions, then)
    return run_episode(cfg, policy, x, seed), policy.seen


def edges(seen) -> list:
    return [obs.obstacle_pos_noisy for obs in seen]


def positions(seen) -> list:
    return [obs.robot_pos for obs in seen]


class TestInit:
    def test_start_state(self, env):
        record, seen = probe(noiseless(env), (5.0, 0.0, 25.0))
        assert seen[0].robot_pos == 0.0
        assert seen[0].obstacle_pos_noisy == 80.0
        # never above the danger height: no collision, every second run
        assert record.mode is BehaviorMode.TASK_FAILURE
        assert len(seen) == record.steps == env.episode_seconds

    def test_boundary_scenario_is_valid(self, env):
        _, seen = probe(noiseless(env), (0.0, 10.0, 50.0))
        assert seen[0].obstacle_pos_noisy == 80.0

    def test_out_of_domain(self, env):
        policy = Probe()
        with pytest.raises(OutOfDomain):
            run_episode(env, policy, (11.0, 0.0, 0.0), 0)
        assert policy.seen == []

    def test_scenario_domain_bounds(self, env):
        space = scenario_domain(env)
        assert space.names == ("v", "t", "y")
        assert space.dims[2].max == env.robot_bounds[1]


class TestObserve:
    def test_zero_noise_equals_truth(self, env):
        cfg = noiseless(env)
        _, seen = probe(cfg, (4.0, 2.0, 33.0), seed=5)
        assert seen[0] == Observation(80.0, 0.0, 4.0, 33.0)
        assert edges(seen) == [80.0 - 4.0 * max(0, k - 2)
                               for k in range(len(seen))]
        assert {(o.obstacle_speed_noisy, o.goal_noisy) for o in seen} \
            == {(4.0, 33.0)}

    @pytest.fixture(scope="class")
    def readings(self, env) -> np.ndarray:
        """The (edge, speed, goal) readings of 28 episodes of 3,600 s, in
        each of which the robot stays at the track bottom and the obstacle
        at spawn: 100,800 rows."""
        cfg = dataclasses.replace(env, episode_seconds=MAX_EPISODE_SECONDS)
        rows = np.array([
            (o.obstacle_pos_noisy, o.obstacle_speed_noisy, o.goal_noisy)
            for seed in range(28)
            for o in probe(cfg, (0.0, 2.0, 33.0), seed=seed)[1]])
        assert rows.shape == (28 * MAX_EPISODE_SECONDS, 3)
        return rows

    def test_goal_noise_spread(self, env, readings):
        goals = readings[:, 2]
        assert float(goals.std(ddof=1)) == pytest.approx(
            env.noise_sigma_goal, rel=0.02)
        assert float(goals.mean()) == pytest.approx(33.0, abs=0.02)

    def test_obstacle_noise_spread(self, env, readings):
        edge, speed, _ = readings.T
        for values, sigma, mean in (
                (edge, env.noise_sigma_obstacle_pos, 80.0),
                (speed, env.noise_sigma_speed, 0.0)):
            assert float(values.std(ddof=1)) == pytest.approx(sigma, rel=0.02)
            assert float(values.mean()) == pytest.approx(mean, abs=0.004)


class TestStep:
    def test_forward_clips_at_top(self, env):
        record, seen = probe(noiseless(env), (1.0, 10.0, 10.0), then=F)
        assert positions(seen)[10:14] == [50.0, 50.0, 50.0, 50.0]
        assert max(positions(seen)) == record.final_position == 50.0

    def test_backward_clips_at_bottom(self, env):
        record, seen = probe(noiseless(env), (1.0, 10.0, 10.0), [F, B, B])
        assert positions(seen)[:4] == [0.0, 5.0, 0.0, 0.0]
        assert min(positions(seen)) == record.final_position == 0.0

    def test_fast_obstacle_kinematics_trace(self, env):
        # v=10, t=0: leading edge hits the column at time 8, clears at 9.
        # a robot holding at >= 25 then must collide at time 8
        record, seen = probe(noiseless(env), (10.0, 0.0, 50.0),
                             [F] * 6 + [B, F])
        assert seen[6].robot_pos == 30.0
        assert seen[7].robot_pos == 25.0        # time 7, edge 10: no collision
        assert seen[7].obstacle_pos_noisy == pytest.approx(10.0)
        assert len(seen) == 8                   # 30, time 8, edge 0: occupied
        assert record.mode is BehaviorMode.HARMFUL_FAILURE
        assert record.steps == 8 and record.final_position == 30.0

    def test_collision_at_the_danger_height(self, env):
        # clipped at the bottom first, then at exactly 25 when the obstacle
        # (v=10, t=0) occupies the column at time 8
        record, seen = probe(noiseless(env), (10.0, 0.0, 50.0),
                             [B] + [F] * 6 + [B])
        assert positions(seen) == [0.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0,
                                   30.0]
        assert record.mode is BehaviorMode.HARMFUL_FAILURE
        assert record.steps == 8 and record.final_position == 25.0

    def test_obstacle_clears_the_column_at_its_width(self, env):
        # v=10, t=0: at time 9 the trailing edge, 10 behind the leading
        # one, is at 0, and the column is clear as the robot reaches 25
        record, seen = probe(noiseless(env), (10.0, 0.0, 50.0),
                             [B] * 4 + [F] * 5, then=F)
        assert positions(seen)[8:10] == [20.0, 25.0]
        assert record.mode is BehaviorMode.SUCCESS

    def test_obstacle_waits_for_start_time(self, env):
        _, seen = probe(noiseless(env), (10.0, 3.0, 10.0))
        assert edges(seen)[1:6] == pytest.approx([80.0, 80.0, 80.0, 70.0,
                                                  60.0])

    @given(v=st.floats(0.0, 10.0), t=st.floats(0.0, 10.0),
           actions=st.lists(st.sampled_from([F, B]), max_size=100))
    def test_position_stays_in_bounds_and_edge_non_increasing(
            self, env, v, t, actions):
        cfg = noiseless(env)
        record, seen = probe(cfg, (v, t, 25.0), actions)
        assert all(0.0 <= p <= 50.0 for p in positions(seen))
        assert 0.0 <= record.final_position <= 50.0
        assert all(b <= a for a, b in zip(edges(seen), edges(seen)[1:]))
        if record.mode is BehaviorMode.HARMFUL_FAILURE:
            assert record.final_position >= cfg.danger_height
            edge = cfg.obstacle_spawn_offset - v * max(0.0, record.steps - t)
            assert edges(seen)[-1] >= edge
            assert edge <= 0.0 < edge + cfg.obstacle_width


class TestClassify:
    def test_collision_dominates_goal(self, env):
        # reach the goal early, then collide: still a harmful failure
        record, seen = probe(noiseless(env), (10.0, 0.0, 20.0), then=F)
        assert max(positions(seen)) >= 20.0
        assert record.mode is BehaviorMode.HARMFUL_FAILURE
        assert record.steps == 8

    def test_success_by_running_maximum(self, env):
        # visit 30 >= goal 25 mid-episode, retreat afterwards
        record, seen = probe(noiseless(env), (0.0, 0.0, 25.0), [F] * 6)
        assert seen[6].robot_pos == 30.0
        assert record.final_position < 25.0
        assert record.steps == env.episode_seconds
        assert record.mode is BehaviorMode.SUCCESS

    def test_task_failure(self, env):
        record, seen = probe(noiseless(env), (0.0, 0.0, 40.0), [F] * 4)
        assert max(positions(seen)) == 20.0     # hold at 20 < 40
        assert record.mode is BehaviorMode.TASK_FAILURE

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
