"""Array seeding against numpy's own SeedSequence and PCG64.

``domain.substream_seeds``, ``sample`` and the episode noise of
``run_batch`` compute numpy's SeedSequence mixing and PCG64 seeding for many
seeds at once instead of building one SeedSequence and one PCG64 per unit.
Record and scenario bytes depend on every bit of it, so each property here
uses numpy's classes as the oracle: a numpy release that changes either
algorithm fails these tests instead of silently changing output files.

Integers split into a different number of 32-bit entropy words take
different paths through the mixing, so the strategies draw from each word
count: master seeds below 2**32, below 2**64, below 2**128 (the pool size)
and above it; spawn indices on both sides of 2**32; raw episode seeds up to
2**70.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from depgrid import ConfigError, presets, run_batch, run_episode
from depgrid.domain import (
    _generate_state,
    _pcg64_states,
    _seeded_streams,
    _spawn_entropy,
    sample,
    substream_seed,
    substream_seeds,
)
from depgrid.policies import ScriptedPolicy
from depgrid.simulator import _episode_noise

EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)

masters = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**140 - 1),
)
# index sets that cross 2**32, where a spawn key takes a second word
index_sets = st.lists(
    st.one_of(st.integers(0, 2**32 - 1),
              st.integers(2**32 - 3, 2**32 + 3),
              st.integers(2**32, 2**64 - 1)),
    min_size=1, max_size=12)
raw_seeds = st.one_of(
    st.sampled_from(EDGES),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**70 - 1),
)


def spawned(master: int, index: int) -> np.random.PCG64:
    return np.random.PCG64(np.random.SeedSequence(master, spawn_key=(index,)))


@settings(max_examples=200)
@given(master=masters, n=st.integers(0, 40))
@example(master=0, n=3)
@example(master=2**32 - 1, n=3)
@example(master=2**32, n=3)
@example(master=2**64 - 1, n=3)
@example(master=2**128, n=3)
@example(master=12345678901234567890, n=3)
def test_substream_seeds_equal_the_scalar_reference(master, n):
    seeds = substream_seeds(master, n)
    assert seeds.dtype == np.uint64 and seeds.shape == (n,)
    assert seeds.tolist() == [substream_seed(master, i) for i in range(n)]


@settings(max_examples=200)
@given(master=masters, indices=index_sets)
@example(master=7, indices=[2**32 - 1, 2**32, 2**32 + 1])
def test_spawned_seeds_across_two_word_indices(master, indices):
    # the computation substream_seeds runs on range(n), on any index set
    w = _generate_state(_spawn_entropy(master, indices), 2)
    got = (w[:, 0] | (w[:, 1] << np.uint64(32))).tolist()
    assert got == [substream_seed(master, i) for i in indices]


@settings(max_examples=200)
@given(master=masters, indices=index_sets)
@example(master=0, indices=[0, 1, 2])
@example(master=2**64 - 1, indices=[2**32 - 1, 2**32])
def test_spawned_generator_state_equals_numpy(master, indices):
    states = _pcg64_states(_spawn_entropy(master, indices))
    for i, (state, inc) in zip(indices, states):
        want = spawned(master, i).state["state"]
        assert (state, inc) == (want["state"], want["inc"])
    streams = _seeded_streams(_spawn_entropy(master, indices))
    for i, rng in zip(indices, streams):
        assert rng.bit_generator.state == spawned(master, i).state


@given(master=masters, n=st.integers(0, 12),
       name=st.sampled_from(("testing",) + presets.OPERATING_CONDITION_NAMES))
@example(master=2**32, n=4, name="oc4")
def test_sample_equals_one_generator_per_scenario(master, n, name):
    cond = presets.condition(name)
    want = []
    for i in range(n):
        rng = np.random.Generator(spawned(master, i))
        want.append(tuple(m.draw(rng, d)
                          for m, d in zip(cond.marginals, cond.space.dims)))
    xs = sample(cond, n, master)
    assert xs.shape == (n, 3) and xs.dtype == np.float64
    assert xs.tobytes() == np.array(want, dtype=float).reshape(n, 3).tobytes()


@settings(max_examples=200)
@given(seeds=st.lists(raw_seeds, max_size=10), horizon=st.integers(0, 6))
@example(seeds=list(EDGES), horizon=100)
def test_episode_noise_equals_pcg64_of_the_seed(seeds, horizon):
    noise = _episode_noise(seeds, horizon)
    assert noise.shape == (len(seeds), horizon, 3)
    for seed, row in zip(seeds, noise):
        want = np.random.Generator(np.random.PCG64(seed)).standard_normal(
            (horizon, 3))
        assert np.array_equal(row, want)


def test_episode_noise_takes_a_uint64_array():
    seeds = substream_seeds(5, 8)
    assert np.array_equal(_episode_noise(seeds, 4),
                          _episode_noise(seeds.tolist(), 4))


def test_run_batch_equals_run_episode_for_edge_seeds(env, params):
    seeds = [0, 1, 2, 2**64, 2**64 + 1, 2**70 - 1]
    scenarios = sample(presets.condition("testing"), len(seeds), 3)
    policy = ScriptedPolicy(params, env)
    records = list(run_batch(env, policy, scenarios, seeds).records)
    assert records == [run_episode(env, ScriptedPolicy(params, env), x, s)
                       for x, s in zip(scenarios, seeds)]


@pytest.mark.parametrize("call", [
    lambda: substream_seeds(-1, 3),
    lambda: sample(presets.condition("testing"), 3, -1),
    lambda: sample(presets.condition("testing"), 0, -5),
    lambda: _episode_noise([3, -1], 4),
], ids=["substream_seeds", "sample", "sample_empty", "episode_noise"])
def test_negative_seed_is_a_config_error(call):
    with pytest.raises(ConfigError, match="non-negative"):
        call()


def test_negative_episode_seed_in_run_batch(env, params):
    scenarios = sample(presets.condition("testing"), 2, 3)
    with pytest.raises(ConfigError, match="non-negative"):
        run_batch(env, ScriptedPolicy(params, env), scenarios, [4, -2])
