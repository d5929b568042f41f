"""Array seeding against numpy's own SeedSequence and PCG64.

``domain.substream_seeds``, ``sample`` and the episode noise of
``run_batch`` compute numpy's SeedSequence mixing and PCG64 seeding for many
seeds at once instead of building one SeedSequence and one PCG64 per unit;
``sample`` also steps PCG64 and computes its output as array arithmetic on
(high, low) uint64 halves for its leading uniform coordinates. Record and
scenario bytes depend on every bit of it, so each property here uses numpy's
classes as the oracle: a numpy release that changes either algorithm fails
these tests instead of silently changing output files; the 128-bit step is
also checked against Python's own integers. Each row's state is written as
four 64-bit words straight into one PCG64's state memory, in the order a
probe through numpy's ``state`` setter finds, so a release that moves those
words must make the probe raise before any row is drawn. The episode noise
is drawn in chunks of seconds, each row's state read back after a chunk
and written again for the next, so a row drawn in chunks reads the same
prefix of its stream as one drawn whole.

Every entropy row has a fixed word count, at least the pool's four, each
word a Python int shared by every row or a uint32 array of one word per
row: an episode seed in [0, 2**64) is its low and high word as arrays, then
two zeros, which numpy's own padding makes equal to its one- or two-word
entropy; a spawned substream is its master's words, zero-padded to the
pool, as ints, then its index as an array. So the strategies draw from each
word count: master seeds below 2**32, below 2**64, below 2**128 (the pool
size) and above it; episode seeds below 2**32 and up to 2**64 - 1, the
largest a uint64 array holds.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from depgrid import (
    ClippedGaussian,
    ConditionSet,
    ConfigError,
    DepgridError,
    Dimension,
    DomainSpace,
    EnvConfig,
    Uniform,
    presets,
    run_batch,
    run_episode,
)
from depgrid import domain, simulator
from depgrid.domain import (
    _INIT_A,
    _MULT_A,
    SeededStreams,
    _generate_state,
    _hashmix,
    _mix,
    _pcg64_states,
    _pcg64_step,
    _spawn_entropy,
    _xsl_rr,
    sample,
    seeded_streams,
    substream_seed,
    substream_seeds,
)
from depgrid.policies import ScriptedPolicy
from depgrid.simulator import _noise
from reference import sample_rows, spawned

EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)

masters = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**128 - 1),
    st.integers(2**128, 2**140 - 1),
)
raw_seeds = st.one_of(
    st.sampled_from(EDGES),
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
)


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
@given(master=masters, n=st.integers(0, 12))
@example(master=0, n=3)
@example(master=2**64 - 1, n=3)
@example(master=2**128, n=3)
def test_spawned_generator_state_equals_numpy(master, n):
    state, inc = _pcg64_states(_spawn_entropy(master, n))
    assert len(state[0]) == len(inc[0]) == n
    states = [rng.bit_generator.state
              for _, rng in SeededStreams(state, inc).each(range(n))]
    assert states == [spawned(master, i).state for i in range(n)]


@settings(max_examples=200)
@given(master=masters, n=st.integers(0, 12), k=st.integers(1, 4))
@example(master=0, n=3, k=4)
@example(master=2**128, n=3, k=3)
def test_stepped_state_outputs_equal_random_raw(master, n, k):
    state, inc = _pcg64_states(_spawn_entropy(master, n))
    raws = []
    for _ in range(k):
        state = _pcg64_step(state, inc)
        raws.append(_xsl_rr(state))
    got = np.stack(raws, axis=1)
    assert got.dtype == np.uint64
    assert got.tolist() == [spawned(master, i).random_raw(k).tolist()
                            for i in range(n)]


PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645   # pcg64.h
HALF_EDGES = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
halves = st.one_of(st.sampled_from(HALF_EDGES), st.integers(0, 2**64 - 1))
values128 = st.builds(lambda high, low: high << 64 | low, halves, halves)


def as_halves(values) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & 2**64 - 1 for v in values], dtype=np.uint64))


EDGES128 = [high << 64 | low for high in HALF_EDGES for low in HALF_EDGES]


@settings(max_examples=300)
@given(pairs=st.lists(st.tuples(values128, values128), max_size=8))
@example(pairs=list(zip(EDGES128, EDGES128[::-1])))
@example(pairs=[(2**128 - 1, 2**128 - 1), (2**128 - 1, 1), (2**64 - 1, 1),
                (2**32 - 1, 2**32 - 1), (0, 0)])
def test_step_on_halves_equals_python_integers(pairs):
    """state·MULT + inc mod 2**128 and its xsl-rr output, on (high, low)
    halves, equal Python's own integers; the edge halves make carries
    cross the 32- and the 64-bit boundaries."""
    states, incs = [s for s, _ in pairs], [i for _, i in pairs]
    high, low = _pcg64_step(as_halves(states), as_halves(incs))
    assert high.dtype == low.dtype == np.uint64
    want = [(s * PCG_MULT + i) % 2**128 for s, i in pairs]
    assert [h << 64 | w for h, w in zip(high.tolist(), low.tolist())] == want
    rotated = []
    for v in want:
        x, r = (v >> 64 ^ v) & 2**64 - 1, v >> 122
        rotated.append((x >> r | x << (64 - r)) & 2**64 - 1)
    assert _xsl_rr((high, low)).tolist() == rotated


@settings(max_examples=100)
@given(master=masters, n=st.integers(0, 12), n_words=st.integers(1, 4))
def test_generate_state_of_int_words_equals_full_columns(master, n,
                                                         n_words):
    """The master's words mixed once as Python ints give the words that
    the same words give as full uint32 columns, one entry per row."""
    entropy = _spawn_entropy(master, n)
    columns = [np.full(n, w, dtype=np.uint32) if isinstance(w, int) else w
               for w in entropy]
    assert all(isinstance(w, int) for w in entropy[:-1])
    got = _generate_state(entropy, n_words)
    assert got.dtype == np.uint64 and got.shape == (n, n_words)
    assert np.array_equal(got, _generate_state(columns, n_words))


def test_word_helpers_keep_their_dtypes():
    """hashmix and mix give Python ints of ints and uint32 arrays of
    arrays; mix of an int and an array, either way round, equals the ints'
    mix; PCG64's states and outputs are uint64."""
    hashmix = _hashmix(_INIT_A, _MULT_A)
    assert type(hashmix(7)) is int
    word = np.arange(3, dtype=np.uint32)
    assert hashmix(word).dtype == np.uint32 and word.tolist() == [0, 1, 2]
    x, y = 5, 2**32 - 1
    want = _mix(x, y)
    assert type(want) is int

    def column(w):
        return np.full(3, w, dtype=np.uint32)

    for got in (_mix(column(x), y), _mix(x, column(y)),
                _mix(column(x), column(y))):
        assert got.dtype == np.uint32 and got.tolist() == [want] * 3
    state, inc = _pcg64_states(_spawn_entropy(3, 4))
    assert all(h.dtype == np.uint64 for h in (*state, *inc))
    assert _xsl_rr(_pcg64_step(state, inc)).dtype == np.uint64


@pytest.mark.parametrize("call", [
    lambda n: substream_seeds(7, n),
    lambda n: sample(presets.condition("testing"), n, 7),
], ids=["substream_seeds", "sample"])
@pytest.mark.parametrize("n", [-1, 2**32 + 1])
def test_substream_count_outside_its_range_is_refused_unallocated(call, n):
    # the count is checked before any array is made: with numpy's
    # allocations traced, the refusal takes less than a megabyte, where the
    # indices of 2**32 + 1 substreams would take 32 GiB
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=r"\[0, 2\*\*32\], got"):
            call(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@given(master=masters, n=st.integers(0, 12),
       name=st.sampled_from(("testing",) + presets.OPERATING_CONDITION_NAMES))
@example(master=2**32, n=4, name="oc4")
def test_sample_equals_one_generator_per_scenario(master, n, name):
    cond = presets.condition(name)
    xs = sample(cond, n, master)
    assert xs.shape == (n, 3) and xs.dtype == np.float64
    assert xs.tobytes() == sample_rows(cond, n, master).tobytes()


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
    assert xs.tobytes() == sample_rows(cond, n, master).tobytes()


def test_sample_clips_at_either_bound_as_the_per_row_draws_do():
    # runs (G, U, G, G, U); the Gaussians sit at a bound, past one, and
    # wide over both, and the lower bound is -0.0, which a clip keeps
    space = DomainSpace(tuple(Dimension(f"x{j}", -0.0, 1.0) for j in range(5)))
    cond = ConditionSet("clipped", space, (
        ClippedGaussian(0.0, 0.5), Uniform(0.25, 0.5),
        ClippedGaussian(1.2, 0.3), ClippedGaussian(0.5, 2.0),
        Uniform(0.0, 1.0)))
    xs = sample(cond, 2000, 91)
    assert xs.tobytes() == sample_rows(cond, 2000, 91).tobytes()
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
    assert xs.tobytes() == sample_rows(cond, 5000, 2**64 + 3).tobytes()


def noise_oracle(seeds, horizon: int) -> list[np.ndarray]:
    """run_episode's noise: one fresh PCG64(seed) generator per seed."""
    return [np.random.Generator(np.random.PCG64(seed)).standard_normal(
        (horizon, 3)) for seed in seeds]


def episode_noise(seeds, horizon: int, split: int = 0) -> np.ndarray:
    """The noise of each seed's episode, drawn as _run_block draws it: the
    first ``split`` seconds of every row, then the rest, each row resumed
    where its first draw left it."""
    streams = seeded_streams(np.array(seeds, dtype=np.uint64))
    rows = range(len(seeds))
    return np.concatenate([_noise(streams, rows, split),
                           _noise(streams, rows, horizon - split)], axis=1)


@settings(max_examples=200)
@given(seeds=st.lists(raw_seeds, max_size=10), horizon=st.integers(0, 6),
       split=st.integers(0, 6))
@example(seeds=list(EDGES), horizon=100, split=32)
def test_episode_noise_equals_pcg64_of_the_seed(seeds, horizon, split):
    split = min(split, horizon)
    noise = episode_noise(seeds, horizon, split)
    assert noise.shape == (len(seeds), horizon, 3)
    for row, want in zip(noise, noise_oracle(seeds, horizon)):
        assert np.array_equal(row, want)


@pytest.mark.parametrize("horizon", [31, 32, 33, 64, 65, 97, 100, 3600])
def test_run_batch_chunks_read_a_prefix_of_each_seeds_stream(params,
                                                             horizon):
    """Each chunk run_batch draws holds, for each episode it draws, the next
    seconds of PCG64(seed)'s standard normals, and zeros for the others;
    the first chunk draws every episode, and each later one some of the
    episodes its predecessor drew, since a settled episode stays
    settled."""
    cfg = EnvConfig(episode_seconds=horizon)
    seeds = list(EDGES) + list(range(10, 45))
    xs = sample(presets.condition("testing"), len(seeds), 4)
    chunks = []

    def keep(streams, rows, seconds):
        noise = _noise(streams, rows, seconds)
        chunks.append((list(rows), noise.copy()))   # before its readings
        return noise

    with mock.patch.object(simulator, "_noise", keep):
        run_batch(cfg, [ScriptedPolicy(params, cfg)], xs,
                  np.array(seeds, dtype=np.uint64))
    want = np.array(noise_oracle(seeds, horizon))
    step = simulator._CHUNK
    assert [noise.shape[1] for _, noise in chunks] == [
        min(step, horizon - at) for at in range(0, horizon, step)]
    assert chunks[0][0] == list(range(len(seeds)))
    at, before = 0, chunks[0][0]
    for rows, noise in chunks:
        stop = at + noise.shape[1]
        assert np.array_equal(noise[rows], want[rows, at:stop])
        assert not np.delete(noise, rows, axis=0).any()
        assert set(rows) <= set(before)
        at, before = stop, rows
    if len(chunks) > 1:   # some episodes settle in the first chunk
        assert len(chunks[1][0]) < len(seeds)


def test_a_uint64_array_splits_into_the_words_of_its_ints():
    """A uint64 array mixing one- and two-word seeds, as numpy splits them
    (0 and 2**32 - 1 are one word, 2**32 two), seeds numpy's PCG64(seed)
    exactly from its fixed low and high word columns."""
    rng = np.random.default_rng(17)
    seeds = np.concatenate([
        np.array(EDGES + (2**63, 2**33 + 5), dtype=np.uint64),
        rng.integers(0, 2**32, 20, dtype=np.uint64),
        rng.integers(0, 2**64 - 1, 20, dtype=np.uint64, endpoint=True)])
    rng.shuffle(seeds)
    ints = seeds.tolist()
    states = [g.bit_generator.state
              for _, g in seeded_streams(seeds).each(range(len(seeds)))]
    assert states == [np.random.PCG64(seed).state for seed in ints]
    for row, want in zip(episode_noise(seeds, 3), noise_oracle(ints, 3)):
        assert np.array_equal(row, want)


def test_two_iterators_drawn_in_alternation_keep_their_own_streams():
    """Each SeededStreams writes the words into its own PCG64, so one's rows
    do not move the other's, within a pass over the rows or across two."""
    a_seeds, b_seeds = [0, 2**32, 7, 2**64 - 1], [5, 2**63, 1, 2**40 + 3]
    a = seeded_streams(np.array(a_seeds, dtype=np.uint64))
    b = seeded_streams(np.array(b_seeds, dtype=np.uint64))
    got_a, got_b = [[] for _ in a_seeds], [[] for _ in b_seeds]
    for _ in range(2):
        for (i, ra), (j, rb) in zip(a.each(range(4)), b.each(range(4))):
            got_a[i].append(ra.standard_normal((5, 3)))
            got_b[j].append(rb.standard_normal((5, 3)))
    for got, seeds in ((got_a, a_seeds), (got_b, b_seeds)):
        for rows, want in zip(got, noise_oracle(seeds, 10)):
            assert np.array_equal(np.concatenate(rows), want)


NUMPY_PCG64 = np.random.PCG64   # kept while the name is patched


class PCG64(NUMPY_PCG64):
    """numpy's PCG64, counting the sets of its ``state``. It keeps numpy's
    class name, which the setter checks a state's ``bit_generator`` by."""

    sets = 0

    @property
    def state(self):
        return NUMPY_PCG64.state.__get__(self)

    @state.setter
    def state(self, value):
        PCG64.sets += 1
        NUMPY_PCG64.state.__set__(self, value)


@pytest.mark.parametrize("rows", [1, 2, 50])
def test_the_state_setter_runs_once_per_call_not_once_per_row(rows):
    """Only the probe of the word order sets the state through numpy's
    setter; every row's words are written into the state memory, and read
    back from it between chunks."""
    seeds = np.arange(rows, dtype=np.uint64) * np.uint64(2**33 + 1)
    PCG64.sets = 0
    with mock.patch.object(domain.np.random, "PCG64", PCG64):
        noise = episode_noise(seeds, 4, 1)
    assert PCG64.sets == 1
    for row, want in zip(noise, noise_oracle(seeds.tolist(), 4)):
        assert np.array_equal(row, want)


def test_state_words_that_are_not_found_raise_before_any_draw():
    """A view that does not show the state the setter wrote (here a detached
    array of zeros) fails the probe; the iterator raises before it yields,
    so no row is drawn."""
    def hidden(bitgen):
        return np.zeros(4, dtype=np.uint64)

    drawn = []
    with mock.patch.object(domain, "_state_words", hidden):
        with pytest.raises(DepgridError, match=f"numpy {np.__version__}: "
                                               f"PCG64's state words"):
            streams = seeded_streams(np.arange(3, dtype=np.uint64))
            for _, rng in streams.each(range(3)):
                drawn.append(rng.standard_normal())
        with pytest.raises(DepgridError, match="state words"):
            sample(presets.condition("oc3"), 3, 1)
    assert drawn == []


@pytest.mark.parametrize("seeds", [[], [0], [5, 9], [2**40, 2**64 - 1]],
                         ids=["empty", "zero", "one_word", "two_words"])
def test_uint64_arrays_of_one_word_count(seeds):
    noise = episode_noise(seeds, 4, 2)
    assert noise.shape == (len(seeds), 4, 3)
    for row, want in zip(noise, noise_oracle(seeds, 4)):
        assert np.array_equal(row, want)


def test_run_batch_equals_run_episode_for_edge_seeds(env, params):
    seeds = [0, 1, 2, 2**32 - 1, 2**32, 2**64 - 1]
    scenarios = sample(presets.condition("testing"), len(seeds), 3)
    policy = ScriptedPolicy(params, env)
    (campaign,) = run_batch(env, [policy], scenarios,
                            np.array(seeds, dtype=np.uint64))
    records = list(campaign.records)
    assert records == [run_episode(env, ScriptedPolicy(params, env), x, s)
                       for x, s in zip(scenarios, seeds)]


@pytest.mark.parametrize("call", [
    lambda: substream_seeds(-1, 3),
    lambda: sample(presets.condition("testing"), 3, -1),
    lambda: sample(presets.condition("testing"), 0, -5),
], ids=["substream_seeds", "sample", "sample_empty"])
def test_negative_seed_is_a_config_error(call):
    with pytest.raises(ConfigError, match="non-negative"):
        call()
