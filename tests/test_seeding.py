"""Array seeding against numpy's own SeedSequence and PCG64.

``domain.substream_seeds``, ``sample`` and the episode noise of
``run_batch`` compute numpy's SeedSequence mixing and PCG64 seeding for many
seeds at once instead of building one SeedSequence and one PCG64 per unit;
``sample`` also steps PCG64 and computes its output as array arithmetic on
32-bit limbs for its leading uniform coordinates. Record and scenario bytes
depend on every bit of it, so each property here uses numpy's classes as the
oracle: a numpy release that changes either algorithm fails these tests
instead of silently changing output files.

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

from depgrid import (
    ClippedGaussian,
    ConditionSet,
    ConfigError,
    Dimension,
    DomainSpace,
    Uniform,
    presets,
    run_batch,
    run_episode,
)
from depgrid.domain import (
    _PCG_MULT,
    _entropy_words,
    _generate_state,
    _mul_add,
    _pcg64_limbs,
    _pcg64_states,
    _seeded_streams,
    _spawn_entropy,
    _xsl_rr,
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
    # the computation substream_seeds runs on np.arange(n), on any index
    # set, given as a uint64 array or as Python ints
    want = [substream_seed(master, i) for i in indices]
    for given_indices in (np.array(indices, dtype=np.uint64), indices):
        w = _generate_state(_spawn_entropy(master, given_indices), 2)
        assert (w[:, 0] | (w[:, 1] << np.uint64(32))).tolist() == want


@settings(max_examples=200)
@given(master=masters, indices=index_sets)
@example(master=0, indices=[0, 1, 2])
@example(master=2**64 - 1, indices=[2**32 - 1, 2**32])
def test_spawned_generator_state_equals_numpy(master, indices):
    states = _pcg64_states(*_pcg64_limbs(_spawn_entropy(master, indices)))
    for i, (state, inc) in zip(indices, states):
        want = spawned(master, i).state["state"]
        assert (state, inc) == (want["state"], want["inc"])
    for i, rng in zip(indices, _seeded_streams(states)):
        assert rng.bit_generator.state == spawned(master, i).state


@settings(max_examples=200)
@given(master=masters, indices=index_sets, k=st.integers(1, 4))
@example(master=0, indices=[0, 1, 2], k=4)
@example(master=2**128, indices=[2**32 - 1, 2**32], k=3)
def test_stepped_limb_outputs_equal_random_raw(master, indices, k):
    state, inc = _pcg64_limbs(_spawn_entropy(master, indices))
    raws = []
    for _ in range(k):
        state = _mul_add(state, _PCG_MULT, inc)
        raws.append(_xsl_rr(state))
    got = np.stack(raws, axis=1)
    assert got.dtype == np.uint64
    assert got.tolist() == [spawned(master, i).random_raw(k).tolist()
                            for i in indices]


def per_row_oracle(cond: ConditionSet, n: int, master: int) -> np.ndarray:
    """sample's specification: one fresh generator per row, drawn through
    the scalar Marginal.draw."""
    pairs = tuple(zip(cond.marginals, cond.space.dims))
    want = []
    for i in range(n):
        rng = np.random.Generator(spawned(master, i))
        want.append([m.draw(rng, d) for m, d in pairs])
    return np.array(want, dtype=float).reshape(n, len(pairs))


@given(master=masters, n=st.integers(0, 12),
       name=st.sampled_from(("testing",) + presets.OPERATING_CONDITION_NAMES))
@example(master=2**32, n=4, name="oc4")
def test_sample_equals_one_generator_per_scenario(master, n, name):
    cond = presets.condition(name)
    xs = sample(cond, n, master)
    assert xs.shape == (n, 3) and xs.dtype == np.float64
    assert xs.tobytes() == per_row_oracle(cond, n, master).tobytes()


@st.composite
def condition_sets(draw) -> ConditionSet:
    """1 to 6 dimensions with random finite bounds, each Uniform or
    ClippedGaussian, so the leading uniform run has every length 0..d and
    the rest alternates in runs of either kind, such as (G, U, G, G, U)."""
    dims, marginals = [], []
    for j in range(draw(st.integers(1, 6))):
        lo = draw(st.floats(-1e300, 1e300))
        width = draw(st.floats(abs(lo) * 1e-9 + 1e-300, 1e300))
        dims.append(Dimension(f"x{j}", lo, lo + width))
        if draw(st.booleans()):
            a, b = sorted(draw(st.lists(st.floats(lo, lo + width), min_size=2,
                                        max_size=2, unique=True)))
            marginals.append(Uniform(a, b))
        else:
            marginals.append(ClippedGaussian(
                draw(st.floats(lo - width, lo + 2 * width)),
                draw(st.floats(width * 1e-3, width * 3))))
    return ConditionSet("custom", DomainSpace(tuple(dims)), tuple(marginals))


@settings(max_examples=200)
@given(cond=condition_sets(), master=masters, n=st.integers(0, 12))
def test_sample_of_any_condition_equals_the_per_row_draws(cond, master, n):
    xs = sample(cond, n, master)
    assert xs.shape == (n, cond.space.ndim) and xs.dtype == np.float64
    assert xs.tobytes() == per_row_oracle(cond, n, master).tobytes()


def test_sample_clips_at_either_bound_as_the_per_row_draws_do():
    # runs (G, U, G, G, U); the Gaussians sit at a bound, past one, and
    # wide over both, and the lower bound is -0.0, which a clip keeps
    space = DomainSpace(tuple(Dimension(f"x{j}", -0.0, 1.0) for j in range(5)))
    cond = ConditionSet("clipped", space, (
        ClippedGaussian(0.0, 0.5), Uniform(0.25, 0.5),
        ClippedGaussian(1.2, 0.3), ClippedGaussian(0.5, 2.0),
        Uniform(0.0, 1.0)))
    xs = sample(cond, 2000, 91)
    assert xs.tobytes() == per_row_oracle(cond, 2000, 91).tobytes()
    gaussian = xs[:, [0, 2, 3]]
    assert (gaussian == 1.0).any(axis=0).all()
    lower = gaussian[:, [0, 2]] == 0.0
    assert lower.any(axis=0).all()
    assert np.signbit(gaussian[:, [0, 2]][lower]).all()


def test_sample_of_a_mixed_condition_at_scale():
    # a leading uniform run of two, then a Gaussian and a uniform drawn
    # from the state the leading draws left
    space = DomainSpace((Dimension("a", -3.0, 7.5), Dimension("b", 0.0, 1.0),
                         Dimension("c", 0.0, 50.0), Dimension("d", 1e-3, 2e3)))
    cond = ConditionSet("mixed", space, (
        Uniform(-3.0, 7.5), Uniform(0.25, 0.75), ClippedGaussian(35.0, 10.0),
        Uniform(1e-3, 2e3)))
    xs = sample(cond, 5000, 2**64 + 3)
    assert xs.tobytes() == per_row_oracle(cond, 5000, 2**64 + 3).tobytes()


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


def listed(groups) -> list:
    """Entropy groups as lists: (positions, word columns) per group."""
    return [(pos.tolist(), [w.tolist() for w in words])
            for pos, words in groups]


def test_a_uint64_array_splits_into_the_words_of_its_ints():
    """Array seeds mixing one- and two-word values are split with array
    operations into the words the per-int path gives, and seed numpy's
    PCG64(seed) exactly; 0 and 2**32 - 1 are one word, 2**32 two."""
    rng = np.random.default_rng(17)
    seeds = np.concatenate([
        np.array(EDGES + (2**63, 2**33 + 5), dtype=np.uint64),
        rng.integers(0, 2**32, 20, dtype=np.uint64),
        rng.integers(0, 2**64 - 1, 20, dtype=np.uint64, endpoint=True)])
    rng.shuffle(seeds)
    ints = seeds.tolist()
    by_array, by_int = _entropy_words(seeds), _entropy_words(ints)
    assert listed(by_array) == listed(by_int)
    assert all(w.dtype == np.uint64 for _, words in by_array for w in words)
    assert [len(words) for _, words in by_array] == [1, 2]
    states = _pcg64_states(*_pcg64_limbs(by_array))
    for seed, (state, inc) in zip(ints, states):
        want = np.random.PCG64(seed).state["state"]
        assert (state, inc) == (want["state"], want["inc"])
    noise = _episode_noise(seeds, 3)
    for seed, row in zip(ints, noise):
        assert np.array_equal(row, np.random.Generator(
            np.random.PCG64(seed)).standard_normal((3, 3)))


@pytest.mark.parametrize("seeds", [[], [0], [5, 9], [2**40, 2**64 - 1]],
                         ids=["empty", "zero", "one_word", "two_words"])
def test_uint64_arrays_of_one_word_count(seeds):
    array = np.array(seeds, dtype=np.uint64)
    assert listed(_entropy_words(array)) == listed(_entropy_words(seeds))


def test_run_batch_equals_run_episode_for_edge_seeds(env, params):
    seeds = [0, 1, 2, 2**64, 2**64 + 1, 2**70 - 1]
    scenarios = sample(presets.condition("testing"), len(seeds), 3)
    policy = ScriptedPolicy(params, env)
    (campaign,) = run_batch(env, [policy], scenarios, seeds)
    records = list(campaign.records)
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
        run_batch(env, [ScriptedPolicy(params, env)], scenarios, [4, -2])
