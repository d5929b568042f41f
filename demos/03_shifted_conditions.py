"""Predicting performance under conditions that were never tested.

One uniform test campaign is tallied per voxel; predictions for four shifted
operating conditions are pure re-weightings of those tallies with analytic
region masses. Held-out campaigns under the actual shifted conditions then
confirm the predictions. Scaled to n=6000 so the demo runs in seconds; the
full-scale pipeline is `depgrid reproduce`.
"""

from pathlib import Path

from depgrid import (
    PartitionGrid,
    ScriptedPolicy,
    compare,
    evaluate_policy,
    observed_rates,
    predict,
    presets,
    sample,
    tally,
)
from depgrid.records import atomic_write_text
from depgrid.svgplots import comparison_bar_svg, failure_scatter_svg

OUT = Path(__file__).parent / "out"
N = 6000
# a 6x6x6 grid keeps every voxel populated at this scale; the full
# pipeline uses 10x10x10 with n=20000
GRID = PartitionGrid((6, 6, 6))

env = presets.default_env()
params = presets.default_policy_params()
space = presets.domain_space()
factory = lambda: ScriptedPolicy(params, env)

print(f"=== test once under uniform conditions (n={N}) ===")
scenarios = sample(presets.condition("testing"), N, seed=100)
campaign = evaluate_policy(env, factory, scenarios, 200,
                           condition_name="testing")
tallies = tally(campaign, GRID, space)
observed = observed_rates(campaign)
print(f"observed: D={observed.dependability:.4f} "
      f"UT={observed.task_undependability:.4f} "
      f"UH={observed.harmful_undependability:.4f}")

print()
print("=== predict and confirm the four shifted conditions ===")
pairs = []
for k, oc in enumerate(presets.OPERATING_CONDITION_NAMES):
    cond = presets.condition(oc)
    predicted = predict(tallies, cond)
    # distinct, fixed seeds per condition, so every run prints the same deltas
    heldout = evaluate_policy(env, factory, sample(cond, N, 300 + k),
                              400 + k, condition_name=oc)
    confirmed = observed_rates(heldout)
    deltas = compare(predicted, confirmed)
    pairs.append((oc, predicted, confirmed))
    print(f"{oc}: predicted D={predicted.dependability:.4f} "
          f"UH={predicted.harmful_undependability:.4f} | "
          f"observed D={confirmed.dependability:.4f} "
          f"UH={confirmed.harmful_undependability:.4f} | "
          f"max |delta| = {deltas['max_abs_pts']:.2f} pts")

OUT.mkdir(exist_ok=True)
atomic_write_text(OUT / "comparison.svg", comparison_bar_svg(pairs))
atomic_write_text(OUT / "failures.svg",
                  failure_scatter_svg(campaign, space, ("v", "t", "y")))
print()
print(f"charts written to {OUT}/comparison.svg and {OUT}/failures.svg")
print("note how oc1 (low goals) is predicted nearly harmless while oc2/oc3 "
      "(high goals) concentrate collisions, all from one test campaign.")
