from __future__ import annotations

import dataclasses
import json
import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from depgrid import (
    BehaviorMode,
    ConditionSet,
    DataError,
    Dimension,
    DiscreteCondition,
    DomainSpace,
    EmptyCampaign,
    EmptyPartition,
    InvalidGrid,
    OutOfDomain,
    PartitionGrid,
    ScriptedPolicy,
    TestCampaign,
    TrialRecord,
    Uniform,
    compare,
    evaluate_policy,
    observed_rates,
    predict,
    sample,
    tally,
)
from depgrid import presets
from depgrid.domain import partition_indices
from depgrid.records import read_records, read_report, write_report
from conftest import campaign_of
from reference import exact_rates, in_region, random_lattice, region_mass


def make_record(values, mode) -> TrialRecord:
    return TrialRecord(tuple(map(float, values)), mode, 100, 0.0)


make_campaign = campaign_of


def synthetic_campaign(n, fractions, space, rng_seed=0) -> TestCampaign:
    """n records uniform over the space with given mode fractions."""
    rng = np.random.default_rng(rng_seed)
    n_s = round(n * fractions[0])
    n_t = round(n * fractions[1])
    modes = ([BehaviorMode.SUCCESS] * n_s + [BehaviorMode.TASK_FAILURE] * n_t
             + [BehaviorMode.HARMFUL_FAILURE] * (n - n_s - n_t))
    records = [
        make_record([rng.uniform(d.min, d.max) for d in space.dims], m)
        for m in modes
    ]
    return make_campaign(records)


class TestTally:
    def test_single_record_single_region(self):
        space = DomainSpace((Dimension("x", 0, 1),))
        grid = PartitionGrid((1,))
        campaign = make_campaign([make_record([0.5], BehaviorMode.SUCCESS)])
        t = tally(campaign, grid, space)
        assert t.counts.dtype == np.int64
        assert np.array_equal(t.counts, [[1, 0, 0]])

    def test_conservation_100k_uniform(self, space, grid):
        n = 100_000
        xs = sample(presets.condition("testing"), n, 21)
        records = [make_record(x, BehaviorMode.SUCCESS) for x in xs]
        t = tally(make_campaign(records), grid, space)
        assert t.counts.shape == (grid.n_regions, 3)
        assert t.counts.sum() == n and t.counts[:, 0].sum() == n

    def test_one_octant_leaves_seven_empty(self):
        space = DomainSpace((Dimension("a", 0, 2), Dimension("b", 0, 2),
                             Dimension("c", 0, 2)))
        grid = PartitionGrid((2, 2, 2))
        rng = np.random.default_rng(5)
        records = [
            make_record(rng.uniform(0, 1, size=3), BehaviorMode.SUCCESS)
            for _ in range(50)
        ]
        n = tally(make_campaign(records), grid, space).counts.sum(axis=1)
        assert np.count_nonzero(n == 0) == 7
        # row 0 is region (0, 0, 0) in C order
        assert np.flatnonzero(n).tolist() == [0] and n[0] == 50

    def test_empty_campaign_tallies_to_zero(self, space, grid):
        t = tally(make_campaign([]), grid, space)
        assert t.counts.shape == (grid.n_regions, 3) and not t.counts.any()

    def test_nan_coordinate_is_out_of_domain(self, space, grid):
        records = [make_record([5.0, 5.0, 5.0], BehaviorMode.SUCCESS),
                   make_record([math.nan, 5.0, 5.0], BehaviorMode.SUCCESS)]
        with pytest.raises(OutOfDomain):
            tally(make_campaign(records), grid, space)

    def test_merge_equals_sequential(self, space, grid):
        xs = sample(presets.condition("testing"), 900, 31)
        rng = np.random.default_rng(8)
        modes = list(BehaviorMode)
        records = [
            make_record(x, modes[rng.integers(0, 3)]) for x in xs
        ]
        whole = tally(make_campaign(records), grid, space)
        chunks = [records[i::4] for i in range(4)]
        merged = reduce(operator.add,
                        (tally(make_campaign(c), grid, space) for c in chunks))
        assert np.array_equal(merged.counts, whole.counts)

    def test_adding_different_grids_raises(self, space):
        records = [make_record([5.0, 5.0, 5.0], BehaviorMode.SUCCESS)]
        # (1, 5, 5) counts would broadcast into (5, 5, 5) as bare arrays
        a = tally(make_campaign(records), PartitionGrid((5, 5, 5)), space)
        b = tally(make_campaign(records), PartitionGrid((1, 5, 5)), space)
        with pytest.raises(DataError):
            a + b
        other_space = DomainSpace(space.dims[:2] + (Dimension("z", 0, 50),))
        c = tally(make_campaign(records), PartitionGrid((5, 5, 5)), other_space)
        with pytest.raises(DataError):
            a + c


@given(st.lists(st.integers(0, 2), min_size=1, max_size=60),
       st.integers(1, 5))
def test_merge_is_order_insensitive(mode_ids, n_chunks):
    space = DomainSpace((Dimension("x", 0.0, 1.0),))
    grid = PartitionGrid((3,))
    modes = list(BehaviorMode)
    rng = np.random.default_rng(len(mode_ids))
    records = [make_record([rng.uniform(0, 1)], modes[m]) for m in mode_ids]
    whole = tally(make_campaign(records), grid, space)
    parts = [tally(make_campaign(records[i::n_chunks]), grid, space)
             for i in range(n_chunks)]
    for ordered in (parts, parts[::-1]):
        merged = reduce(operator.add, ordered)
        assert np.array_equal(merged.counts, whole.counts)


@given(bins=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       n=st.integers(0, 300), seed=st.integers(0, 2**16))
def test_tally_equals_an_add_at_reference(bins, n, seed):
    """Counting (region, mode) pairs with one bincount gives the counts that
    adding 1 per record at (region, mode) gives, over 1-, 2- and 3-D grids;
    half the points lie on bin edges, the domain maximum among them."""
    rng = np.random.default_rng(seed)
    space = DomainSpace(tuple(Dimension(f"d{k}", -1.0, 2.0 * k + 1.0)
                              for k in range(len(bins))))
    grid = PartitionGrid(tuple(bins))
    xs = np.array([d.min for d in space.dims]) + rng.random(
        (n, len(bins))) * [d.width for d in space.dims]
    on_edge = rng.random(n) < 0.5
    for d, b in enumerate(bins):
        xs[on_edge, d] = grid.edges(space, d)[rng.integers(0, b + 1,
                                                          on_edge.sum())]
    modes = rng.integers(0, 3, n).astype(np.int8)
    campaign = TestCampaign("random", xs, modes, np.full(n, 50), np.zeros(n))
    want = np.zeros((grid.n_regions, 3), dtype=np.int64)
    np.add.at(want, (np.ravel_multi_index(
        partition_indices(grid, space, xs).T, grid.bins), modes), 1)
    got = tally(campaign, grid, space).counts
    assert got.dtype == np.int64 and np.array_equal(got, want)


class TestObservedRates:
    def test_fractions(self, space):
        campaign = synthetic_campaign(100, (0.90, 0.04), space)
        r = observed_rates(campaign)
        assert (r.dependability, r.task_undependability,
                r.harmful_undependability) == (0.90, 0.04, 0.06)

    def test_all_success(self, space):
        campaign = synthetic_campaign(40, (1.0, 0.0), space)
        r = observed_rates(campaign)
        assert (r.dependability, r.task_undependability,
                r.harmful_undependability) == (1.0, 0.0, 0.0)

    def test_empty_campaign(self):
        with pytest.raises(EmptyCampaign):
            observed_rates(make_campaign([]))


class TestPredict:
    def test_single_region_degenerate(self, space):
        grid = PartitionGrid((1, 1, 1))
        records = (
            [make_record([1, 1, 1], BehaviorMode.SUCCESS)] * 9
            + [make_record([1, 1, 1], BehaviorMode.TASK_FAILURE)]
        )
        tallies = tally(make_campaign(records), grid, space)
        r = predict(tallies, presets.condition("oc4"))
        assert r.dependability == pytest.approx(0.9, abs=1e-15)
        assert r.task_undependability == pytest.approx(0.1, abs=1e-15)
        assert r.harmful_undependability == 0.0

    def test_two_region_weighted_sum(self):
        # regions with success rates (1.0, 0.5) and target masses (0.25, 0.75)
        space = DomainSpace((Dimension("x", 0.0, 1.0),))
        grid = PartitionGrid((2,))
        records = (
            [make_record([0.1], BehaviorMode.SUCCESS)] * 2
            + [make_record([0.9], BehaviorMode.SUCCESS),
               make_record([0.9], BehaviorMode.TASK_FAILURE)]
        )
        tallies = tally(make_campaign(records), grid, space)
        target = DiscreteCondition(
            "shift", space,
            scenarios=((0.25,), (0.75,)),
            probabilities=(0.25, 0.75),
        )
        r = predict(tallies, target)
        assert r.dependability == pytest.approx(0.625, abs=1e-15)

    def test_empty_partition_lists_uncovered_regions(self, space, grid):
        # records only below y = 25, target mass only above y = 30
        low_y = ConditionSet("low_y", space, (
            Uniform(0, 10), Uniform(0, 10), Uniform(0, 25)))
        xs = sample(low_y, 600, 17)
        records = [make_record(x, BehaviorMode.SUCCESS) for x in xs]
        tallies = tally(make_campaign(records), grid, space)
        with pytest.raises(EmptyPartition) as exc:
            predict(tallies, presets.condition("oc2"))
        uncovered = exc.value.regions
        assert all(idx[2] >= 6 for idx in uncovered)
        assert all(type(i) is int for idx in uncovered for i in idx)

    def test_target_over_another_domain_raises(self, space, grid):
        tallies = tally(synthetic_campaign(2000, (0.8, 0.1), space), grid,
                        space)
        # the default domain with y in [0, 100] instead of [0, 50]
        tall = DomainSpace(space.dims[:2]
                           + (dataclasses.replace(space.dims[2], max=100.0),))
        for target in (
                ConditionSet("tall", tall,
                             presets.condition("testing").marginals),
                DiscreteCondition("tall", tall, ((5.0, 5.0, 20.0),), (1.0,))):
            with pytest.raises(InvalidGrid, match="another domain"):
                predict(tallies, target, renormalize_empty=True)

    def test_renormalize_flagging(self, space, grid):
        # cover y bins 0..7 only; oc2 has mass on bins 6..9
        partial = ConditionSet("partial", space, (
            Uniform(0, 10), Uniform(0, 10), Uniform(0, 40)))
        xs = sample(partial, 4000, 19)
        records = [make_record(x, BehaviorMode.SUCCESS) for x in xs]
        tallies = tally(make_campaign(records), grid, space)
        target = presets.condition("oc2")
        with pytest.raises(EmptyPartition):
            predict(tallies, target)
        r = predict(tallies, target, renormalize_empty=True)
        assert r.renormalized
        assert r.dropped_mass == pytest.approx(0.5, abs=0.05)
        assert r.dependability + r.task_undependability \
            + r.harmful_undependability == pytest.approx(1.0, abs=1e-12)

    def test_renormalize_degenerate_zero_coverage(self, space, grid):
        low_y = ConditionSet("low_y", space, (
            Uniform(0, 10), Uniform(0, 10), Uniform(0, 25)))
        xs = sample(low_y, 500, 23)
        records = [make_record(x, BehaviorMode.SUCCESS) for x in xs]
        tallies = tally(make_campaign(records), grid, space)
        r = predict(tallies, presets.condition("oc2"), renormalize_empty=True)
        assert r.renormalized and r.dropped_mass == 1.0
        assert (r.dependability, r.task_undependability,
                r.harmful_undependability) == (0.0, 0.0, 0.0)

    def test_sum_rule_to_1e12(self, space):
        grid = PartitionGrid((5, 5, 5))
        xs = sample(presets.condition("testing"), 5000, 29)
        rng = np.random.default_rng(4)
        modes = list(BehaviorMode)
        records = [make_record(x, modes[rng.integers(0, 3)])
                   for x in xs]
        tallies = tally(make_campaign(records), grid, space)
        for name in ("testing", "oc1", "oc2", "oc3", "oc4"):
            r = predict(tallies, presets.condition(name))
            total = (r.dependability + r.task_undependability
                     + r.harmful_undependability)
            assert abs(total - 1.0) <= 1e-12

    def test_moving_mass_toward_success_never_lowers_dependability(self):
        space = DomainSpace((Dimension("x", 0.0, 1.0),))
        grid = PartitionGrid((2,))
        # region 0: all failures; region 1: all successes
        records = ([make_record([0.2], BehaviorMode.TASK_FAILURE)] * 5
                   + [make_record([0.8], BehaviorMode.SUCCESS)] * 5)
        tallies = tally(make_campaign(records), grid, space)
        last_d = -1.0
        for p1 in np.linspace(0.0, 1.0, 21):
            target = DiscreteCondition(
                "m", space,
                scenarios=((0.25,), (0.75,)),
                probabilities=(float(1.0 - p1), float(p1)),
            )
            d = predict(tallies, target).dependability
            assert d >= last_d - 1e-15
            last_d = d

    def test_reweighting_identity_small_campaign(self, env, space,
                                                 scripted_factory):
        cond = presets.condition("testing")
        grid = PartitionGrid((5, 5, 5))
        n = 3000
        camp = evaluate_policy(env, scripted_factory, sample(cond, n, 41),
                               8841, condition_name="testing")
        fresh = evaluate_policy(env, scripted_factory, sample(cond, n, 43),
                                8843, condition_name="testing")
        predicted = predict(tally(camp, grid, space), cond)
        observed = observed_rates(fresh)
        # 5 standard errors of the Monte Carlo rates, both sides contributing
        for metric in ("dependability", "task_undependability",
                       "harmful_undependability"):
            p = observed.metrics()[metric]
            se = math.sqrt(2.0) * math.sqrt(max(p * (1 - p), 1e-6) / n)
            assert abs(predicted.metrics()[metric] - p) < 5 * se


def scalar_predict(space, grid, records, target):
    """Oracle: a per-region loop over the reference's scalar region_mass
    and record counts, giving the uncovered positive-mass regions' indices,
    the weights after dropping them, and the three renormalized rates."""
    regions = list(np.ndindex(*grid.bins))
    counts = {i: [0, 0, 0] for i in regions}
    modes = list(BehaviorMode)
    for rec in records:
        idx = next(i for i in regions if in_region(grid, space, i, rec.scenario))
        counts[idx][modes.index(rec.mode)] += 1
    masses = {i: region_mass(target, grid, i) for i in regions}
    uncovered = [i for i, m in masses.items() if m > 0 and sum(counts[i]) == 0]
    for i in uncovered:
        masses[i] = 0.0
    total = math.fsum(masses.values())
    weights = {i: m / total for i, m in masses.items()}
    rates = [math.fsum(w * counts[i][j] / sum(counts[i])
                       for i, w in weights.items() if w > 0)
             for j in range(3)]
    return uncovered, weights, rates


@pytest.mark.parametrize("name", ["testing", "oc1", "oc3", "oc4"])
@pytest.mark.parametrize("renormalize_empty", [False, True])
def test_predict_matches_scalar_region_mass_oracle(space, name,
                                                   renormalize_empty):
    grid = PartitionGrid((3, 2, 4))
    xs = sample(presets.condition("testing"), 200, 47)
    rng = np.random.default_rng(9)
    modes = list(BehaviorMode)
    # no records above y = 30: the top y bin is empty, the one below partly
    records = [make_record(x, modes[rng.integers(0, 3)])
               for x in xs if x[2] < 30.0]
    target = presets.condition(name)
    uncovered, weights, rates = scalar_predict(space, grid, records, target)
    t = tally(make_campaign(records), grid, space)
    if uncovered and not renormalize_empty:
        with pytest.raises(EmptyPartition) as exc:
            predict(t, target)
        assert list(exc.value.regions) == uncovered
        return
    r = predict(t, target, renormalize_empty=renormalize_empty)
    assert r.renormalized == bool(uncovered)
    assert r.dropped_regions.tolist() == [
        np.ravel_multi_index(i, grid.bins) for i in uncovered]
    assert (r.dependability, r.task_undependability,
            r.harmful_undependability) == pytest.approx(rates, abs=1e-12)
    assert r.weights.tolist() == pytest.approx(
        [weights[idx] for idx in np.ndindex(*grid.bins)], abs=1e-12)


def test_predict_report_table_is_the_tally_and_the_weights(space):
    """The report's table is the tally's counts, the grid's edges and the
    renormalized weights."""
    grid = PartitionGrid((3, 2, 4))
    xs = [x for x in sample(presets.condition("testing"), 200, 47)
          if x[2] < 30.0]
    t = tally(make_campaign(make_record(x, BehaviorMode.SUCCESS)
                            for x in xs), grid, space)
    target = presets.condition("oc3")
    r = predict(t, target, renormalize_empty=True)
    assert r.renormalized and r.dropped_regions.size
    assert r.edges == tuple(tuple(grid.edges(space, d).tolist())
                            for d in range(3))
    assert np.array_equal(r.counts, t.counts)
    masses = target.region_mass_vector(grid)
    masses[r.dropped_regions] = 0.0
    assert np.allclose(r.weights, masses / masses.sum(), rtol=0, atol=1e-15)


def random_campaign(n: int, seed: int) -> TestCampaign:
    """n testing scenarios with random modes; no episode is run."""
    modes = np.random.default_rng(seed).integers(0, 3, n).astype(np.int8)
    return TestCampaign("random", sample(presets.condition("testing"), n, seed),
                        modes, np.full(n, 50), np.zeros(n))


@pytest.mark.parametrize("bins, target", [
    ((5, 5, 5), "oc4"), ((22, 22, 22), "oc3"), ((40, 40, 40), "oc3")])
def test_predicted_metrics_are_correctly_rounded_sums(space, bins, target):
    """Each metric is the fsum of w_r·p_r over the regions, so it does not
    depend on the order a BLAS kernel or its threads would add them in."""
    t = tally(random_campaign(20000, 48), PartitionGrid(bins), space)
    r = predict(t, presets.condition(target), renormalize_empty=True)
    n = t.counts.sum(axis=1).tolist()
    for metric, column in zip((r.dependability, r.task_undependability,
                               r.harmful_undependability), t.counts.T.tolist()):
        assert metric == math.fsum(w * (c / m) for w, c, m in zip(
            r.weights.tolist(), column, n) if m)


@pytest.mark.parametrize("target", ["oc3", "testing"])
def test_fine_grid_report_is_json_dumps_of_each_column(space, tmp_path,
                                                       target):
    """A 40^3 report (64,000 regions, most of them of zero weight) is written
    as the header and json.dumps of each column's list, although the writer
    formats each distinct value once."""
    t = tally(random_campaign(20000, 48), PartitionGrid((40, 40, 40)), space)
    r = predict(t, presets.condition(target), renormalize_empty=True)
    path = tmp_path / "report.json"
    write_report(path, r)
    header = json.dumps({
        "format_version": 2,
        "condition": r.condition_name,
        "dependability": r.dependability,
        "task_undependability": r.task_undependability,
        "harmful_undependability": r.harmful_undependability,
        "renormalized": r.renormalized,
        "dropped_mass": r.dropped_mass,
    }, indent=2)
    columns = {"dropped_regions": r.dropped_regions.tolist(),
               "edges": r.edges, "mass": r.weights.tolist(),
               "n_success": r.counts[:, 0].tolist(),
               "n_task_fail": r.counts[:, 1].tolist(),
               "n_harmful": r.counts[:, 2].tolist()}
    assert path.read_text() == header[:-2] + "".join(
        f',\n  "{key}": {json.dumps(column)}'
        for key, column in columns.items()) + "\n}\n"
    assert read_report(path) == r


class TestBruteForce:
    """predict against the exact expectation over a discrete table."""

    def line(self):
        return DomainSpace((Dimension("x", 0.0, 1.0),))

    def both(self, outcomes, cond) -> tuple:
        """The exact rates, and predict's over two bins, one record each."""
        t = tally(make_campaign(make_record(x, mode)
                                for x, mode in outcomes.items()),
                  PartitionGrid((2,)), cond.space)
        return (exact_rates(outcomes, cond),
                tuple(predict(t, cond).metrics().values()))

    def test_two_scenarios(self):
        space = self.line()
        a, b = (0.25,), (0.75,)
        cond = DiscreteCondition("d", space, (a, b), (0.5, 0.5))
        assert self.both({a: BehaviorMode.SUCCESS,
                          b: BehaviorMode.HARMFUL_FAILURE},
                         cond) == ((0.5, 0.0, 0.5),) * 2

    def test_point_mass_dominates(self):
        space = self.line()
        a, b = (0.25,), (0.75,)
        cond = DiscreteCondition("d", space, (a, b), (1.0, 0.0))
        assert self.both({a: BehaviorMode.TASK_FAILURE,
                          b: BehaviorMode.SUCCESS},
                         cond) == ((0.0, 1.0, 0.0),) * 2

    def test_table_scenarios_are_tuples_of_floats(self):
        cond = DiscreteCondition("d", self.line(), [[0], np.array([0.75])],
                                 (0.5, 0.5))
        assert cond.scenarios == ((0.0,), (0.75,))
        assert all(type(v) is float for x in cond.scenarios for v in x)
        assert exact_rates({(0.0,): BehaviorMode.SUCCESS,
                            (0.75,): BehaviorMode.SUCCESS}, cond)[0] == 1.0
        with pytest.raises(OutOfDomain):
            DiscreteCondition("d", self.line(), ((0.5,), (1.5,)), (0.5, 0.5))

    def test_lattice_equivalence_with_predict(self, space):
        # one lattice cell per region: the partition estimator must agree
        # with the exact expectation to floating precision
        grid = PartitionGrid((5, 5, 5))
        for trial in range(10):
            campaign, cond, outcomes = random_lattice(grid, space, 1000 + trial)
            # each region's scalar mass is its one lattice point's probability
            assert [region_mass(cond, grid, i)
                    for i in np.ndindex(*grid.bins)] == list(cond.probabilities)
            exact = exact_rates(outcomes, cond)
            estimated = predict(tally(campaign, grid, space), cond)
            for got, want in zip(estimated.metrics().values(), exact):
                assert abs(got - want) <= 1e-12


class TestCompare:
    def test_identical_reports(self, space):
        r = observed_rates(synthetic_campaign(50, (0.8, 0.1), space))
        assert compare(r, r) == {
            "deltas_pts": {"dependability_pts": 0.0,
                           "task_undependability_pts": 0.0,
                           "harmful_undependability_pts": 0.0},
            "max_abs_pts": 0.0}

    def test_two_point_delta(self, space):
        predicted = observed_rates(synthetic_campaign(100, (0.95, 0.05), space))
        observed = observed_rates(synthetic_campaign(100, (0.93, 0.07), space))
        d = compare(predicted, observed)
        assert d["deltas_pts"]["dependability_pts"] == pytest.approx(2.0,
                                                                     abs=1e-9)
        assert d["max_abs_pts"] == pytest.approx(2.0, abs=1e-9)


def write_record(path, mode, steps):
    path.write_text(json.dumps({
        "scenario": [1.0, 1.0, 1.0], "mode": mode.value, "seed": 0,
        "steps": steps, "final_position": 0.0}) + "\n")
    return path


class TestRecordInvariants:
    """A campaign's columns hold the record invariants: steps >= 0, and >= 1
    for a harmful failure, whose collision time is its steps."""

    @pytest.mark.parametrize("mode, steps", [
        (BehaviorMode.SUCCESS, -1),
        (BehaviorMode.HARMFUL_FAILURE, 0),
        (BehaviorMode.HARMFUL_FAILURE, -2),
    ])
    def test_steps_must_fit_the_mode(self, tmp_path, mode, steps):
        path = write_record(tmp_path / "r.jsonl", mode, steps)
        with pytest.raises(DataError, match="line 1"):
            read_records(path)
        with pytest.raises(DataError) as e:
            campaign_of([make_record([1, 1, 1], BehaviorMode.SUCCESS),
                         TrialRecord((1.0, 1.0, 1.0), mode, steps=steps,
                                     final_position=0.0)])
        assert e.value.row == 1

    def test_collision_on_the_last_counted_step_is_valid(self, tmp_path):
        path = write_record(tmp_path / "r.jsonl",
                            BehaviorMode.HARMFUL_FAILURE, 1)
        (r,) = read_records(path).records
        assert r.mode is BehaviorMode.HARMFUL_FAILURE
        assert r.collision_time == r.steps == 1

    def test_only_a_harmful_record_has_a_collision_time(self):
        times = {mode: TrialRecord((1.0,), mode, 7, 0.0).collision_time
                 for mode in BehaviorMode}
        assert times == {BehaviorMode.SUCCESS: None,
                         BehaviorMode.TASK_FAILURE: None,
                         BehaviorMode.HARMFUL_FAILURE: 7.0}
        assert type(times[BehaviorMode.HARMFUL_FAILURE]) is float
