"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Campaign sizes, grids, seeds, and tolerances are fixed here; nothing is
calibrated at run time. The shared bundle builds every campaign once
(7 x 20000 episodes) and records wall-clock timings for the runtime gates.
"""

from __future__ import annotations

import filecmp
import math
import operator
import time
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from depgrid import (
    BehaviorMode,
    ConditionSet,
    EmptyPartition,
    PartitionGrid,
    ScriptedPolicy,
    Uniform,
    compare,
    evaluate_policy,
    observed_rates,
    predict,
    run_episode,
    sample,
    substream_seed,
    tally,
    wrap,
)
from depgrid import presets
from depgrid.cli import reproduce
from depgrid.safety import SafetyFunction
from conftest import campaign_of
from reference import exact_rates, random_lattice

N = 20_000
SCENARIO_SEEDS = {"testing": 1001, "heldout": 1101, "oc1": 1201,
                  "oc2": 1202, "oc3": 1203, "oc4": 1204}
CAMPAIGN_SEEDS = {"testing": 5001, "heldout": 5101, "oc1": 5201,
                  "oc2": 5202, "oc3": 5203, "oc4": 5204}

OC_NAMES = ("oc1", "oc2", "oc3", "oc4")
METRICS = ("dependability", "task_undependability", "harmful_undependability")


def criterion(num: int, desc: str, ok: bool, detail: str = "") -> None:
    note = f" | {detail}" if detail else ""
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {desc}{note}")
    assert ok, f"criterion {num}: {desc}{note}"


@pytest.fixture(scope="module")
def bundle(env, params, space, grid):
    factory = lambda: ScriptedPolicy(params, env)
    sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
    wrapped_factory = lambda: wrap(ScriptedPolicy(params, env), sf)
    timings: dict[str, float] = {}

    def timed(key, fn):
        t0 = time.perf_counter()
        out = fn()
        timings[key] = time.perf_counter() - t0
        return out

    testing_cond = presets.condition("testing")
    test_scen = timed("sample_testing",
                      lambda: sample(testing_cond, N, SCENARIO_SEEDS["testing"]))
    test_campaign = timed("campaign_testing", lambda: evaluate_policy(
        env, factory, test_scen, CAMPAIGN_SEEDS["testing"],
        condition_name="testing"))
    tallies = timed("tally_testing",
                    lambda: tally(test_campaign, grid, space))

    heldout_campaign = timed("campaign_heldout", lambda: evaluate_policy(
        env, factory, sample(testing_cond, N, SCENARIO_SEEDS["heldout"]),
        CAMPAIGN_SEEDS["heldout"], condition_name="testing"))

    oc_campaigns = {}
    for oc in OC_NAMES:
        cond = presets.condition(oc)
        oc_campaigns[oc] = timed(f"campaign_{oc}", lambda c=cond, o=oc:
                                 evaluate_policy(
                                     env, factory,
                                     sample(c, N, SCENARIO_SEEDS[o]),
                                     CAMPAIGN_SEEDS[o], condition_name=o))

    # paired: same scenarios and episode seeds, goal governor added
    safety_campaign = timed("campaign_safety", lambda: evaluate_policy(
        env, wrapped_factory, test_scen, CAMPAIGN_SEEDS["testing"],
        condition_name="testing"))

    reports = {"observed_testing": observed_rates(test_campaign),
               "observed_heldout": observed_rates(heldout_campaign),
               "predicted_testing": predict(tallies, testing_cond),
               "observed_safety": observed_rates(safety_campaign)}
    for oc in OC_NAMES:
        reports[f"predicted_{oc}"] = predict(tallies, presets.condition(oc))
        reports[f"observed_{oc}"] = observed_rates(oc_campaigns[oc])

    return {
        "factory": factory,
        "sf": sf,
        "test_campaign": test_campaign,
        "heldout_campaign": heldout_campaign,
        "oc_campaigns": oc_campaigns,
        "safety_campaign": safety_campaign,
        "tallies": tallies,
        "reports": reports,
        "timings": timings,
    }


def test_criterion_1_mass_normalization(grid):
    t0 = time.perf_counter()
    errors = {}
    for name in ("testing",) + OC_NAMES:
        masses = presets.condition(name).region_mass_vector(grid)
        errors[name] = abs(float(masses.sum()) - 1.0)
    elapsed = time.perf_counter() - t0
    worst = max(errors.values())
    criterion(1, "region masses of the five condition sets sum to 1",
              worst <= 1e-9 and elapsed < 1.0,
              f"worst |sum-1| = {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_oracle_equivalence(space):
    grid = PartitionGrid((5, 5, 5))
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(100):
        campaign, cond, outcomes = random_lattice(grid, space, 42_000 + trial)
        exact = exact_rates(outcomes, cond)
        estimated = predict(tally(campaign, grid, space), cond)
        for m, want in zip(METRICS, exact):
            worst = max(worst, abs(estimated.metrics()[m] - want))
    elapsed = time.perf_counter() - t0
    criterion(2, "partition estimator equals brute-force expectation on "
                 "100 discrete 5x5x5 lattices",
              worst <= 1e-12 and elapsed < 10.0,
              f"worst |diff| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_reweighting_identity(bundle):
    predicted = bundle["reports"]["predicted_testing"]
    observed = bundle["reports"]["observed_heldout"]
    max_abs = compare(predicted, observed)["max_abs_pts"]
    t = bundle["timings"]
    elapsed = (t["sample_testing"] + t["campaign_testing"]
               + t["tally_testing"] + t["campaign_heldout"])
    criterion(3, "prediction under the testing conditions matches an "
                 "independent 20k testing campaign within 1 point",
              max_abs <= 1.0 and elapsed < 120.0,
              f"max |delta| = {max_abs:.3f} pts, "
              f"pipeline {elapsed:.1f} s")


def test_criterion_4_novel_condition_predictions(bundle):
    worst = 0.0
    details = []
    for oc in OC_NAMES:
        max_abs = compare(bundle["reports"][f"predicted_{oc}"],
                          bundle["reports"][f"observed_{oc}"])["max_abs_pts"]
        details.append(f"{oc}={max_abs:.2f}")
        worst = max(worst, max_abs)
    criterion(4, "predictions for oc1..oc4 within 2 points of 20k held-out "
                 "observations on every metric",
              worst <= 2.0, f"max |delta| pts: {', '.join(details)}")


def test_criterion_5_sum_rule(bundle):
    worst = 0.0
    for name, report in bundle["reports"].items():
        total = (report.dependability + report.task_undependability
                 + report.harmful_undependability)
        worst = max(worst, abs(total - 1.0))
    criterion(5, "all emitted reports satisfy D + UT + UH = 1 within 1e-12",
              worst <= 1e-12, f"worst |sum-1| = {worst:.2e} over "
                              f"{len(bundle['reports'])} reports")


def test_criterion_6_safety_function_effect(bundle):
    base = bundle["reports"]["observed_testing"]
    safe = bundle["reports"]["observed_safety"]
    n_base = sum(1 for r in bundle["test_campaign"].records
                 if r.mode is BehaviorMode.HARMFUL_FAILURE)
    n_safe = sum(1 for r in bundle["safety_campaign"].records
                 if r.mode is BehaviorMode.HARMFUL_FAILURE)
    rate_ok = safe.harmful_undependability <= base.harmful_undependability / 100
    dep_ok = safe.dependability >= base.dependability - 0.01
    criterion(6, "goal governor cuts the harmful rate 100-fold without "
                 "losing more than 1 point of dependability",
              rate_ok and dep_ok,
              f"harmful {n_base} -> {n_safe} of {N}, "
              f"D {base.dependability:.4f} -> {safe.dependability:.4f}")


def test_criterion_7_failure_topology(bundle, env, params):
    harmful = [(i, r) for i, r in enumerate(bundle["test_campaign"].records)
               if r.mode is BehaviorMode.HARMFUL_FAILURE]
    task = [r for r in bundle["test_campaign"].records
            if r.mode is BehaviorMode.TASK_FAILURE]
    assert harmful and task
    latched_ok = True
    for i, r in harmful:
        p = ScriptedPolicy(params, env)
        replay = run_episode(env, p, r.scenario,
                             substream_seed(CAMPAIGN_SEEDS["testing"], i))
        if replay != r or p.latched_goal < params.risk_goal_threshold:
            latched_ok = False
            break
    slow = sum(1 for r in task if r.scenario[0] <= 1.5)
    slow_frac = slow / len(task)
    criterion(7, "harmful failures all latch perceived goals at or above "
                 "the risk threshold; >= 95% of task failures have v <= 1.5",
              latched_ok and slow_frac >= 0.95,
              f"{len(harmful)} harmful replayed, "
              f"slow-task fraction {slow_frac:.4f} of {len(task)}")


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_8_determinism(bundle, tmp_path, space, grid):
    # full pipeline twice at a scaled size
    kwargs = dict(n=3000, seed=7, grid=PartitionGrid((5, 5, 5)))
    reproduce(tmp_path / "a", **kwargs)
    reproduce(tmp_path / "b", **kwargs)
    a, b = _tree_bytes(tmp_path / "a"), _tree_bytes(tmp_path / "b")
    files_ok = a == b and len(a) > 20
    # tallying is a commutative fold: chunked merge equals sequential
    records = bundle["test_campaign"].records
    whole = tally(bundle["test_campaign"], grid, space)
    chunks = [
        campaign_of(records[i::5], "testing") for i in range(5)
    ]
    merged = reduce(operator.add, (tally(c, grid, space) for c in chunks))
    criterion(8, "identical seeds give byte-identical pipeline outputs; "
                 "chunked and whole tallying agree exactly",
              files_ok and np.array_equal(merged.counts, whole.counts),
              f"{len(a)} files compared byte-for-byte")


def test_batch_campaigns_equal_scalar_replay(bundle, env, params):
    # evaluate_policy steps campaigns in lockstep; run_episode is the
    # reference: all of the testing campaign, every 10th record elsewhere
    governed = lambda: wrap(ScriptedPolicy(params, env), bundle["sf"])
    campaigns = [(bundle["test_campaign"], "testing", 1, bundle["factory"]),
                 (bundle["safety_campaign"], "testing", 10, governed)]
    campaigns += [(bundle["oc_campaigns"][oc], oc, 10, bundle["factory"])
                  for oc in OC_NAMES]
    replayed = 0
    for campaign, seed_key, stride, factory in campaigns:
        assert len(campaign.records) == N
        for i in range(0, N, stride):
            r = campaign.records[i]
            seed = substream_seed(CAMPAIGN_SEEDS[seed_key], i)
            assert run_episode(env, factory(), r.scenario, seed) == r
            replayed += 1
    assert replayed == N + 5 * N // 10


def test_criterion_9_empty_partition_enforcement(env, params, space, grid):
    low_y = ConditionSet("low_y", space, (
        Uniform(0.0, 10.0), Uniform(0.0, 10.0), Uniform(0.0, 25.0)))
    campaign = evaluate_policy(
        env, lambda: ScriptedPolicy(params, env),
        sample(low_y, 2500, 1301), 5301, condition_name="low_y")
    tallies = tally(campaign, grid, space)
    target = presets.condition("oc2")
    raised = None
    try:
        predict(tallies, target)
    except EmptyPartition as e:
        raised = e
    names_ok = raised is not None and (
        set(raised.regions)
        == {idx for idx in np.ndindex(*grid.bins) if idx[2] >= 6}
    )
    # oc2 has no mass on a covered region: the flag leaves nothing to
    # renormalize, and raises too
    try:
        predict(tallies, target, renormalize_empty=True)
        flag_raises = False
    except EmptyPartition as e:
        flag_raises = raised is not None and e.regions == raised.regions
    # the uniform testing condition keeps the covered half of its mass
    renorm = predict(tallies, presets.condition("testing"),
                     renormalize_empty=True)
    uncovered = (tallies.counts.sum(axis=1) == 0).nonzero()[0]
    renorm_ok = (renorm.renormalized and 0.5 <= renorm.dropped_mass < 1.0
                 and np.array_equal(renorm.dropped_regions, uncovered)
                 and {np.ravel_multi_index(idx, grid.bins)
                      for idx in np.ndindex(*grid.bins) if idx[2] >= 5}
                 <= set(uncovered.tolist()))
    criterion(9, "uncovered positive-mass regions fail loudly and are "
                 "only dropped under the explicit renormalize flag, which "
                 "raises too when no covered region has mass",
              names_ok and flag_raises and renorm_ok,
              f"{len(raised.regions) if raised else 0} regions named, "
              f"dropped mass {renorm.dropped_mass:.2f} flagged")
