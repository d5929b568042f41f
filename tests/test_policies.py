from __future__ import annotations

import json
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depgrid import (
    BehaviorMode,
    ConfigError,
    EnvConfig,
    Observation,
    SafetyFunction,
    ScriptedPolicy,
    ScriptedPolicyParams,
    evaluate_policies,
    evaluate_policy,
    run_batch,
    run_episode,
    sample,
    substream_seed,
    wrap,
)
from depgrid import presets, simulator
from depgrid.records import record_to_dict
from depgrid.simulator import MAX_EPISODE_SECONDS


def obs(goal=10.0, robot=0.0, edge=80.0, speed=5.0) -> Observation:
    return Observation(obstacle_pos_noisy=edge, robot_pos=robot,
                       obstacle_speed_noisy=speed, goal_noisy=goal)


class TestScriptedRules:
    def test_patient_at_ceiling_backs_off(self, env, params):
        p = ScriptedPolicy(params, env)
        p.reset()
        # latch goal 10 (patient); obstacle far away, robot at the ceiling:
        # the next forward step would enter the danger height, so back off
        assert p.act(obs(goal=10.0, robot=20.0, edge=40.0)) is False

    def test_impatient_always_forward(self, env, params):
        p = ScriptedPolicy(params, env)
        p.reset()
        assert p.act(obs(goal=45.0, robot=0.0)) is True
        assert p.act(obs(goal=45.0, robot=20.0, edge=5.0)) is True
        assert p.act(obs(goal=45.0, robot=45.0, edge=-3.0)) is True

    def test_patient_advances_after_passage(self, env, params):
        p = ScriptedPolicy(params, env)
        p.reset()
        p.act(obs(goal=30.0, robot=0.0, edge=80.0))
        # trailing edge perceived below the column: passed
        assert p.act(obs(goal=30.0, robot=20.0, edge=-10.5)) is True
        # passage latches: even a later noisy reading does not un-pass
        assert p.act(obs(goal=30.0, robot=25.0, edge=80.0)) is True

    def test_patient_climbs_below_ceiling(self, env, params):
        p = ScriptedPolicy(params, env)
        p.reset()
        assert p.act(obs(goal=30.0, robot=0.0)) is True
        assert p.act(obs(goal=30.0, robot=15.0)) is True

    def test_goal_latched_from_first_observation(self, env, params):
        p = ScriptedPolicy(params, env)
        p.reset()
        p.act(obs(goal=45.0))
        # later low readings cannot switch the episode back to patient
        assert p.act(obs(goal=5.0, robot=20.0, edge=40.0)) is True
        assert p.latched_goal == 45.0

    def test_params_validation(self):
        """The threshold and ceiling bounds come from the env the params
        meet; the default env refuses a threshold of 60 and a ceiling of
        25."""
        with pytest.raises(ConfigError):
            ScriptedPolicy(ScriptedPolicyParams(risk_goal_threshold=60.0),
                           EnvConfig())
        with pytest.raises(ConfigError):
            ScriptedPolicy(ScriptedPolicyParams(safe_ceiling=25.0), EnvConfig())
        with pytest.raises(ConfigError):
            ScriptedPolicyParams(passed_margin=-1.0)

    @pytest.mark.parametrize("field", ["risk_goal_threshold", "safe_ceiling",
                                       "passed_margin"])
    def test_nan_params_refused(self, field):
        """NaN fails every comparison, so each bound is tested as the
        negation of the comparison that holds for a valid value."""
        with pytest.raises(ConfigError, match=field):
            ScriptedPolicy(ScriptedPolicyParams(**{field: math.nan}),
                           EnvConfig())


def impatient_collides(env, v: float, t: float) -> bool:
    """Closed-form collision predicate for the always-forward trajectory.

    Position at integer time k is min(5k, 50), which is at or above the
    danger height from k = 5 onward. The obstacle occupies the column at
    integer times k with 80/v <= k - t < 90/v once started.
    """
    if v <= 0:
        return False
    lo = t + env.obstacle_spawn_offset / v
    hi = t + (env.obstacle_spawn_offset + env.obstacle_width) / v
    k = max(5, math.ceil(lo))
    if k == lo and k < hi:  # boundary: leading edge exactly at the column
        return k <= env.episode_seconds
    while k < hi:
        if k >= lo:
            return k <= env.episode_seconds
        k += 1
    return False


class TestFailureStructure:
    def test_impatient_outcomes_match_closed_form(self, env, params):
        # y = 50 guarantees the impatient latch (sigma_goal = 0.5)
        rng = np.random.default_rng(14)
        cases = [(float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
                 for _ in range(250)]
        cases += [(10.0, 0.0), (0.0, 5.0), (0.9, 0.0), (0.79, 0.0),
                  (8.0, 9.9), (0.8, 0.0)]
        for i, (v, t) in enumerate(cases):
            r = run_episode(env, ScriptedPolicy(params, env),
                            (v, t, 50.0), seed=7000 + i)
            expect = impatient_collides(env, v, t)
            got = r.mode is BehaviorMode.HARMFUL_FAILURE
            assert got == expect, (v, t, r.mode)
            if not expect:
                assert r.mode is BehaviorMode.SUCCESS  # forward reaches 50

    def test_patient_mode_never_collides(self, env, params, scripted_factory):
        # the invariant conditions on the latched perceived goal, so replay
        # every episode to read it back; any episode latched below the risk
        # threshold must not end in a collision
        rng = np.random.default_rng(15)
        scenarios = [
            (rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 50))
            for _ in range(1200)
        ]
        # stress band: obstacle mid-column near the episode end, where a
        # false passage reading is most likely (and kinematically harmless)
        scenarios += [
            (v, t, 30.0)
            for v in (0.8, 0.85, 0.9, 0.95, 1.0, 1.05)
            for t in (0.0, 2.5, 5.0, 9.9)
        ]
        campaign = evaluate_policy(env, scripted_factory, np.array(scenarios),
                                   313, condition_name="patient-stress")
        n_patient = 0
        for i, r in enumerate(campaign.records):
            p = ScriptedPolicy(params, env)
            assert run_episode(env, p, r.scenario, substream_seed(313, i)) == r
            if p.latched_goal < params.risk_goal_threshold:
                n_patient += 1
                assert r.mode is not BehaviorMode.HARMFUL_FAILURE
        assert n_patient > 800  # the check exercised a real population

    def test_default_policy_failure_topology(self, env, params, space, grid,
                                             scripted_factory):
        campaign = evaluate_policy(
            env, scripted_factory,
            sample(presets.condition("testing"), 4000, 51), 351,
            condition_name="testing")
        harmful = [(i, r) for i, r in enumerate(campaign.records)
                   if r.mode is BehaviorMode.HARMFUL_FAILURE]
        task = [r for r in campaign.records
                if r.mode is BehaviorMode.TASK_FAILURE]
        assert harmful and task
        # harmful failures require an impatient latch: re-run each episode
        # and read back the latched perceived goal
        for i, r in harmful:
            p = ScriptedPolicy(params, env)
            replay = run_episode(env, p, r.scenario, substream_seed(351, i))
            assert replay == r
            assert p.latched_goal is not None
            assert p.latched_goal >= params.risk_goal_threshold
        # task failures concentrate at slow obstacle speeds
        assert all(r.scenario[0] <= 1.5 for r in task)


class TestEvaluatePolicy:
    def test_empty_scenarios(self, env, scripted_factory):
        campaign = evaluate_policy(env, scripted_factory, [], 1)
        assert campaign.records == ()

    def test_deterministic(self, env, scripted_factory):
        xs = sample(presets.condition("testing"), 100, 61)
        a = evaluate_policy(env, scripted_factory, xs, 5)
        b = evaluate_policy(env, scripted_factory, xs, 5)
        assert a == b

    def test_per_index_seeds_are_stable_under_extension(self, env,
                                                        scripted_factory):
        xs = sample(presets.condition("testing"), 30, 62)
        small = evaluate_policy(env, scripted_factory, xs[:12], 9)
        big = evaluate_policy(env, scripted_factory, xs, 9)
        assert big.records[:12] == small.records

    def test_record_seed_reproduces_episode(self, env, params,
                                            scripted_factory):
        xs = sample(presets.condition("testing"), 20, 64)
        campaign = evaluate_policy(env, scripted_factory, xs, 13)
        for i, r in enumerate(campaign.records):
            assert run_episode(env, ScriptedPolicy(params, env),
                               r.scenario, substream_seed(13, i)) == r


def assert_batch_matches_scalar(cfg, factory, scenarios, seeds, *paired):
    """Run the policy of factory, and those of any paired factories, in one
    run_batch call; each campaign's records equal run_episode's. Returns the
    records of factory's campaign."""
    factories = (factory, *paired)
    campaigns = run_batch(cfg, [f() for f in factories], scenarios,
                          np.array(seeds, dtype=np.uint64))
    assert len(campaigns) == len(factories)
    for f, campaign in zip(factories, campaigns):
        batch = list(campaign.records)
        scalar = [run_episode(cfg, f(), x, s)
                  for x, s in zip(scenarios, seeds)]
        assert batch == scalar
        # equal JSON too: field types (int steps, float positions) match
        assert ([json.dumps(record_to_dict(r)) for r in batch]
                == [json.dumps(record_to_dict(r)) for r in scalar])
    return list(campaigns[0].records)


@st.composite
def batch_cases(draw):
    """A random environment, policies (the scripted one, and with a drawn
    clip the governed one too, in either order), scenarios inside its
    domain, seeds, and run_batch block size."""
    ceiling = draw(st.floats(0.5, 24.5))
    danger = draw(st.floats(ceiling + 0.1, ceiling + 30.0))
    # a -0.0 bound, which a step can tie with a +0.0 position
    lo = draw(st.one_of(st.just(-0.0), st.floats(danger - 30.0, danger - 0.1)))
    hi = draw(st.floats(danger + 0.1, danger + 40.0))
    sigma = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    chunk = simulator._CHUNK
    cfg = EnvConfig(
        # about the ends of the first and second chunks of noise, at the
        # end of the third, and the default
        episode_seconds=draw(st.one_of(st.sampled_from(
            [0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk + 1,
             3 * chunk, 100]), st.integers(0, 60))),
        step_inches=draw(st.one_of(st.sampled_from([0.0, 5.0, 30.0]),
                                   st.floats(0.0, 30.0))),
        robot_bounds=(lo, hi),
        danger_height=danger,
        obstacle_spawn_offset=draw(st.one_of(st.sampled_from([0.0, 80.0]),
                                             st.floats(0.0, 100.0))),
        obstacle_width=draw(st.floats(0.0, 20.0)),
        noise_sigma_speed=draw(sigma),
        noise_sigma_obstacle_pos=draw(sigma),
        noise_sigma_goal=draw(sigma),
    )
    # the threshold lies within the robot bounds (check_env)
    params = ScriptedPolicyParams(
        risk_goal_threshold=draw(st.one_of(st.sampled_from([lo, hi]),
                                           st.floats(lo, hi))),
        safe_ceiling=ceiling,
        passed_margin=draw(st.one_of(st.just(0.0), st.floats(0.0, 15.0))),
    )
    clip = draw(st.one_of(st.none(), st.floats(0.0, 50.0)))
    factories = [lambda: ScriptedPolicy(params, cfg)]
    if clip is not None:
        sf = SafetyFunction(goal_clip_max=clip, delta=0.5)
        factories.append(lambda: wrap(ScriptedPolicy(params, cfg), sf))
        if draw(st.booleans()):
            factories.reverse()
    n = draw(st.integers(0, 12))
    scenarios = np.array([(draw(st.floats(0.0, 10.0)),
                           draw(st.floats(0.0, 10.0)),
                           draw(st.floats(lo, hi)))
                          for _ in range(n)]).reshape(n, 3)
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    block = draw(st.sampled_from([1, 3, 5, simulator._BLOCK]))
    return cfg, factories, scenarios, seeds, block


class TestBatch:
    @settings(max_examples=200)
    @given(batch_cases())
    def test_batch_equals_run_episode(self, case):
        cfg, factories, scenarios, seeds, block = case
        with mock.patch.object(simulator, "_BLOCK", block):
            assert_batch_matches_scalar(cfg, factories[0], scenarios, seeds,
                                        *factories[1:])

    @pytest.mark.parametrize("seconds", [0, 1])
    def test_zero_and_one_second_episodes(self, env, params, seconds):
        cfg = EnvConfig(episode_seconds=seconds)
        xs = sample(presets.condition("testing"), 50, 65)
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        records = assert_batch_matches_scalar(
            cfg, lambda: ScriptedPolicy(params, cfg), xs, range(50),
            lambda: wrap(ScriptedPolicy(params, cfg), sf))
        assert all(r.steps == seconds for r in records)

    @pytest.mark.parametrize("seconds", [100, 5, 4])
    def test_collisions_up_to_the_last_second(self, seconds):
        """Every episode collides in second 5, where an always-forward robot
        reaches the danger height under an obstacle wide enough to cover
        the column then: before the horizon, in its last second, or not at
        all."""
        cfg = EnvConfig(episode_seconds=seconds, obstacle_spawn_offset=0.0,
                        obstacle_width=200.0)
        impatient = ScriptedPolicyParams(risk_goal_threshold=0.0)
        xs = sample(presets.condition("testing"), 50, 75)
        records = assert_batch_matches_scalar(
            cfg, lambda: ScriptedPolicy(impatient, cfg), xs, range(50))
        harmful = seconds >= 5
        assert all((r.mode is BehaviorMode.HARMFUL_FAILURE) == harmful
                   and r.steps == min(seconds, 5) for r in records)

    @pytest.mark.parametrize("step, seconds, final", [
        (5.0, 0, "-0.0"), (5.0, 1, "5.0"), (5.0, 2, "0.0"), (5.0, 3, "5.0"),
        (10.0, 2, "-0.0"),
    ])
    def test_steps_onto_a_negative_zero_bound(self, step, seconds, final):
        """A robot starts at the -0.0 bound. The patient one shuttles below
        its ceiling of 5: with 5-inch steps its way down, 5.0 - 5.0, lands
        on +0.0, which ties the bound and is kept; with 10-inch steps it
        only backs into the bound, so it stays at -0.0."""
        cfg = EnvConfig(episode_seconds=seconds, step_inches=step,
                        robot_bounds=(-0.0, 50.0))
        patient = ScriptedPolicyParams(safe_ceiling=5.0)
        # a standing obstacle never passes; goals far below the threshold
        xs = np.array([(0.0, 0.0, 10.0), (0.0, 3.0, 0.0)])
        records = assert_batch_matches_scalar(
            cfg, lambda: ScriptedPolicy(patient, cfg), xs, [1, 2])
        assert [repr(r.final_position) for r in records] == [final, final]

    def test_collision_at_step_one(self, params):
        # obstacle spawned on the column; one step lands exactly on the
        # danger height, which counts as in the obstacle's path
        cfg = EnvConfig(step_inches=25.0, obstacle_spawn_offset=0.0,
                        noise_sigma_speed=0.0, noise_sigma_obstacle_pos=0.0,
                        noise_sigma_goal=0.0)
        xs = np.array([(0.0, 5.0, 50.0), (0.0, 5.0, 10.0)])
        records = assert_batch_matches_scalar(
            cfg, lambda: ScriptedPolicy(params, cfg), xs, [1, 2])
        assert records[0].mode is BehaviorMode.HARMFUL_FAILURE
        assert records[0].steps == 1
        assert records[1].mode is not BehaviorMode.HARMFUL_FAILURE

    def test_governor_lifts_negative_goals_to_zero(self):
        # threshold 0: a goal clipped up to 0 latches the impatient branch,
        # an unclipped negative one would not
        cfg = EnvConfig(robot_bounds=(-20.0, 50.0))
        params = ScriptedPolicyParams(risk_goal_threshold=0.0)
        sf = SafetyFunction(goal_clip_max=10.0, delta=0.5)
        xs = np.array([(v, 0.0, -15.0) for v in (2.0, 5.0, 8.0, 10.0)])
        records = assert_batch_matches_scalar(
            cfg, lambda: wrap(ScriptedPolicy(params, cfg), sf), xs, range(4))
        assert any(r.mode is BehaviorMode.HARMFUL_FAILURE for r in records)

    @pytest.mark.parametrize("seconds", [100, MAX_EPISODE_SECONDS])
    def test_block_memory_is_its_noise_and_paths(self, params, seconds):
        """A block holds one chunk's noise at a time, turned into its
        readings in place, and that chunk's path of robot positions per
        policy; each chunk's buffers are dropped before the next chunk's
        noise is drawn. So the bound is the same at every horizon."""
        env = EnvConfig(episode_seconds=seconds)
        n = simulator._BLOCK
        xs = sample(presets.condition("testing"), n, 76)
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        pair = [ScriptedPolicy(params, env),
                wrap(ScriptedPolicy(params, env), sf)]
        # imports, outside the count
        run_batch(env, pair, xs[:2], np.arange(2, dtype=np.uint64))
        seeds = np.arange(n, dtype=np.uint64)
        tracemalloc.start()
        try:
            run_batch(env, pair, xs, seeds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk = simulator._CHUNK
        noise = n * chunk * 3 * 8
        paths = len(pair) * n * (chunk + 1) * 8
        # a byte a second: the chunk's collision mask, and per policy the
        # two masks its collisions are read through
        masks = (1 + 2 * len(pair)) * n * (chunk + 1)
        # and per episode: the campaign's columns, the streams' states and
        # the controllers' state
        assert peak <= noise + paths + masks + 256 * n

    def test_empty_campaign(self, env, scripted_factory):
        (campaign,) = run_batch(env, [scripted_factory()], [],
                                np.array([], dtype=np.uint64))
        assert len(campaign) == 0

    def test_campaign_larger_than_one_block(self, env, params, monkeypatch):
        # not a multiple of the block size: a full block and a partial one,
        # of a block small enough to replay through run_episode
        monkeypatch.setattr(simulator, "_BLOCK", 256)
        n = simulator._BLOCK + 37
        xs = sample(presets.condition("testing"), n, 66)
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        for factory in (lambda: ScriptedPolicy(params, env),
                        lambda: wrap(ScriptedPolicy(params, env), sf)):
            campaign = evaluate_policy(env, factory, xs, 67)
            seeds = [substream_seed(67, i) for i in range(n)]
            assert list(campaign.records) == assert_batch_matches_scalar(
                env, factory, xs, seeds)

    def test_seed_count_must_match(self, env, scripted_factory):
        xs = sample(presets.condition("testing"), 3, 68)
        with pytest.raises(ConfigError):
            run_batch(env, [scripted_factory()], xs,
                      np.array([1, 2], dtype=np.uint64))

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_seeds_must_be_uint64(self, env, scripted_factory, dtype):
        # a ConfigError naming the dtype, not numpy's TypeError from the
        # seeding's shifts
        xs = sample(presets.condition("testing"), 3, 68)
        with pytest.raises(ConfigError,
                           match=f"uint64 array, got {np.dtype(dtype)}$"):
            run_batch(env, [scripted_factory()], xs,
                      np.arange(3, dtype=dtype))


class Unsettled(ScriptedPolicy):
    """The scripted policy, with a batch controller whose settled() names
    no episode, as a controller that never commits to forward would."""

    def batch(self, n: int) -> SimpleNamespace:
        return SimpleNamespace(act=super().batch(n).act,
                               settled=lambda: np.zeros(n, dtype=bool))


class AskedAfterActs(ScriptedPolicy):
    """The scripted policy, with a batch controller whose settled() fails
    the test if it is asked before the controller's first act."""

    def batch(self, n: int) -> SimpleNamespace:
        inner, acts = super().batch(n), []

        def act(obs: Observation) -> np.ndarray:
            acts.append(obs)
            return inner.act(obs)

        def settled() -> np.ndarray:
            assert acts, "settled() asked before the first act"
            return inner.settled()
        return SimpleNamespace(act=act, settled=settled)


def drawn_per_chunk(cfg, factories, scenarios, seeds) -> list[int]:
    """Run the factories' policies in one run_batch call, check each
    campaign against run_episode, and return how many episodes each chunk
    of noise drew."""
    with mock.patch.object(simulator, "_noise",
                           wraps=simulator._noise) as noise:
        assert_batch_matches_scalar(cfg, *factories[:1], scenarios, seeds,
                                    *factories[1:])
    # run_batch's own call comes first; the scalar runs draw no chunks
    return [len(call.args[1]) for call in noise.call_args_list]


def chunks(seconds: int) -> int:
    """How many chunks of noise a block of seconds-long episodes draws."""
    return -(-seconds // simulator._CHUNK)


class TestChunkedNoise:
    """A block draws the noise of its first chunk of seconds for every
    episode, and of each later chunk only for the episodes a controller may
    still read."""

    def test_always_impatient_pair_draws_only_the_first_chunk(self, env):
        # a threshold at the bottom of the track: each goal, exact or
        # clipped into [0, clip], latches the impatient branch at once
        cfg = EnvConfig(noise_sigma_goal=0.0)
        impatient = ScriptedPolicyParams(
            risk_goal_threshold=cfg.robot_bounds[0])
        sf = SafetyFunction.from_threshold(38.47)
        xs = sample(presets.condition("testing"), 300, 81)
        drawn = drawn_per_chunk(
            cfg, [lambda: ScriptedPolicy(impatient, cfg),
                  lambda: wrap(ScriptedPolicy(impatient, cfg), sf)],
            xs, range(300))
        assert drawn == [300] + [0] * (chunks(cfg.episode_seconds) - 1)

    def test_the_testing_pair_draws_the_rest_for_some_episodes(self, env,
                                                               params):
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        xs = sample(presets.condition("testing"), 300, 82)
        drawn = drawn_per_chunk(
            env, [lambda: ScriptedPolicy(params, env),
                  lambda: wrap(ScriptedPolicy(params, env), sf)],
            xs, range(300))
        assert len(drawn) == chunks(env.episode_seconds) > 2
        # fewer episodes are read at each boundary, and some to the end
        assert drawn[0] == 300 and 0 < drawn[1] < 300
        assert drawn == sorted(drawn, reverse=True) and drawn[-1] > 0

    @pytest.mark.parametrize("governed", [False, True],
                             ids=["bare", "wrapped"])
    def test_a_controller_settling_none_draws_every_second(
            self, env, params, governed):
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        make = ((lambda: wrap(Unsettled(params, env), sf)) if governed
                else (lambda: Unsettled(params, env)))
        xs = sample(presets.condition("testing"), 200, 83)
        every = [200] * chunks(env.episode_seconds)
        assert drawn_per_chunk(env, [make], xs, range(200)) == every
        # beside a controller that settles episodes, too
        assert drawn_per_chunk(env, [lambda: ScriptedPolicy(params, env),
                                     make], xs, range(200)) == every

    @pytest.mark.parametrize("seconds", [0, 1, 31, 32, 33, 64, 65])
    def test_settled_is_asked_only_after_the_first_act(self, params,
                                                       seconds):
        cfg = EnvConfig(episode_seconds=seconds)
        xs = sample(presets.condition("testing"), 50, 84)
        drawn = drawn_per_chunk(cfg, [lambda: AskedAfterActs(params, cfg)],
                                xs, range(50))
        # a horizon within the first chunk needs no second one
        assert len(drawn) == chunks(seconds)
        assert drawn[:1] == ([50] if seconds else [])


finite = st.floats(-100.0, 100.0)
anything = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, -1e308, -0.0]))


@st.composite
def batch_observations(draw, values, n: int) -> Observation:
    def column() -> np.ndarray:
        return np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return Observation(obstacle_pos_noisy=column(), robot_pos=column(),
                       obstacle_speed_noisy=column(), goal_noisy=column())


@settings(max_examples=200)
@given(data=st.data(), governed=st.booleans(),
       threshold=st.floats(0.0, 50.0), margin=st.floats(0.0, 15.0))
def test_settled_episodes_go_forward_whatever_they_read(data, governed,
                                                        threshold, margin):
    """After any finite readings, every episode settled() names goes
    forward on every later act, for any readings at all, NaN and infinite
    ones too, and stays settled."""
    env = EnvConfig()
    policy = ScriptedPolicy(ScriptedPolicyParams(
        risk_goal_threshold=threshold, passed_margin=margin), env)
    if governed:
        policy = wrap(policy, SafetyFunction(
            goal_clip_max=data.draw(st.floats(0.0, 50.0)), delta=0.5))
    n = 6
    controller = policy.batch(n)
    for _ in range(data.draw(st.integers(1, 4))):
        controller.act(data.draw(batch_observations(finite, n)))
    settled = controller.settled()
    for _ in range(data.draw(st.integers(1, 4))):
        forward = controller.act(data.draw(batch_observations(anything, n)))
        assert forward[settled].all()
        assert controller.settled()[settled].all()


class TestEvaluatePolicies:
    # 2,500 episodes span two full blocks of 1,024 and a partial one
    @pytest.mark.parametrize("n", [0, 2500])
    def test_each_campaign_equals_its_own_evaluation(self, env, params, n):
        xs = sample(presets.condition("testing"), n, 71)
        sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
        plain = lambda: ScriptedPolicy(params, env)
        governed = lambda: wrap(ScriptedPolicy(params, env), sf)
        with mock.patch.object(simulator, "_BLOCK", 1024), \
                mock.patch.object(simulator, "seeded_streams",
                                  wraps=simulator.seeded_streams) as streams, \
                mock.patch.object(simulator, "_noise",
                                  wraps=simulator._noise) as noise:
            pair = evaluate_policies(env, (plain, governed), xs, 72,
                                     condition_name="testing")
        # one noise draw per block, shared by the pair, in its chunks
        blocks = -(-n // 1024)
        assert streams.call_count == blocks
        assert noise.call_count == chunks(env.episode_seconds) * blocks
        assert pair == (
            evaluate_policy(env, plain, xs, 72, condition_name="testing"),
            evaluate_policy(env, governed, xs, 72, condition_name="testing"))
        if n:
            harmful = BehaviorMode.HARMFUL_FAILURE.code
            assert (pair[1].modes == harmful).sum() < (
                pair[0].modes == harmful).sum()
