"""Gates on the scripted policy's exact condition truth (tests/exact.py):
its vectorized rates against the per-scenario oracle, the (v, t) lattice
against a finer one, and the estimator's exact expectation against the
truth and against a seeded testing campaign."""

from __future__ import annotations

import math

import numpy as np
import pytest

from depgrid import (PartitionGrid, ScriptedPolicy, evaluate_policy, predict,
                     presets, sample, tally)

from exact import (EXACT_SCENARIOS, cell_means, condition_rates, node_rates,
                   node_table, scenario_rates)

pytest.importorskip("scipy")

# (v, t) lattice cells a side of the truth; 400 checks it
LATTICE = 200


def expected_prediction(env, params, target, bins) -> np.ndarray:
    """E[pred], the exact expectation of the prediction under target of a
    testing campaign that covers every region: Σ_r w_r · avg_r(p)."""
    grid = PartitionGrid(bins)
    return target.region_mass_vector(grid) @ cell_means(
        env, params, target.space, bins, LATTICE)


@pytest.mark.parametrize("governed", [False, True])
def test_vectorized_rates_equal_scenario_rates(env, params, governed):
    """node_rates at one y, of weight 1, gives scenario_rates at the fixed
    scenarios and at random ones, plain and governed."""
    space = presets.domain_space()
    lo, hi = (np.array([(d.min, d.max) for d in space.dims]).T)
    points = np.concatenate([list(EXACT_SCENARIOS.values()),
                             np.random.default_rng(5).uniform(lo, hi,
                                                              (24, 3))])
    table = node_table(env, params, points[:, 0], points[:, 1])
    for i, (v, t, y) in enumerate(points):
        # the table's node arrays at node i, after heights and imp
        one = table[:2] + tuple(x[i:i + 1] for x in table[2:])
        got = node_rates(env, params, one, np.array([y]), np.ones(1),
                         governed=governed)[0]
        want = scenario_rates(env, params, (v, t, y), governed=governed)
        assert np.allclose(got, want, rtol=0, atol=1e-12), (v, t, y)


@pytest.mark.parametrize("name", presets.CONDITION_NAMES)
def test_the_lattice_truth_agrees_with_a_finer_lattice(env, params, name):
    """The 200² (v, t) truth is within 1e-4 of the 400² truth, and each sums
    to 1."""
    cond = presets.condition(name)
    coarse = condition_rates(env, params, cond, LATTICE)
    fine = condition_rates(env, params, cond, 2 * LATTICE)
    for rates in (coarse, fine):
        assert math.isclose(rates.sum(), 1.0, abs_tol=1e-9)
    assert np.abs(coarse - fine).max() <= 1e-4, (coarse, fine)


@pytest.mark.parametrize("bins", [(5, 5, 5), (10, 10, 10)])
@pytest.mark.parametrize("name", ["testing", "oc1", "oc2"])
def test_constant_density_per_cell_has_no_exact_bias(env, params, name, bins):
    """A condition whose density is constant on each region is predicted
    without bias: E[pred] equals the truth on the same lattice."""
    cond = presets.condition(name)
    bias = (expected_prediction(env, params, cond, bins)
            - condition_rates(env, params, cond, LATTICE))
    assert np.abs(bias).max() <= 1e-9, bias


def test_a_testing_campaign_lies_within_4_se_of_the_exact_expectation(
        env, params):
    """One seeded testing campaign of 50,000 episodes predicts oc3 and oc4
    at 10³ within 4 SE of E[pred], the SE from the exact cell means and the
    campaign's own region counts: sqrt(Σ_r w_r² a_r(1 − a_r)/n_r)."""
    bins = (10, 10, 10)
    grid, space = PartitionGrid(bins), presets.domain_space()
    xs = sample(presets.condition("testing"), 50_000, 41)
    campaign = evaluate_policy(env, lambda: ScriptedPolicy(params, env), xs,
                               42)
    counts = tally(campaign, grid, space).counts.sum(axis=1)
    means = cell_means(env, params, space, bins, LATTICE)
    for name in ("oc3", "oc4"):
        target = presets.condition(name)
        report = predict(tally(campaign, grid, space), target)
        got = np.array(list(report.metrics().values()))
        w = target.region_mass_vector(grid)
        se = np.sqrt((w[:, None] ** 2 * means * (1 - means)
                      / counts[:, None]).sum(axis=0))
        want = expected_prediction(env, params, target, bins)
        assert (np.abs(got - want) <= 4 * se).all(), (name, got, want, se)
