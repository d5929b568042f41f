"""A goal-clipping governor between the sensors and the policy.

Testing shows every collision comes from episodes whose perceived goal is at
or above the risk threshold. Clipping that one input just below the
threshold removes the harmful branch entirely; the success criterion still
uses the true goal, so nothing is relabelled. The paired runs below use the
same scenarios and episode seeds with and without the governor: one
evaluate_policies call steps both policies through each block's noise.
"""

from pathlib import Path

from depgrid import (
    BehaviorMode,
    SafetyFunction,
    ScriptedPolicy,
    evaluate_policies,
    observed_rates,
    presets,
    sample,
    wrap,
)
from depgrid.records import atomic_write_text
from depgrid.svgplots import failure_scatter_svg

OUT = Path(__file__).parent / "out"
N = 6000

env = presets.default_env()
params = presets.default_policy_params()
space = presets.domain_space()
governor = SafetyFunction.from_threshold(params.risk_goal_threshold)
print(f"governor: perceived goal clipped into [0, {governor.goal_clip_max}]")

scenarios = sample(presets.condition("testing"), N, seed=500)
plain, shielded = evaluate_policies(
    env, (lambda: ScriptedPolicy(params, env),
          lambda: wrap(ScriptedPolicy(params, env), governor)),
    scenarios, 600, condition_name="testing")


def count(campaign, mode):
    return int((campaign.modes == mode.code).sum())


for label, campaign in (("without governor", plain),
                        ("with governor   ", shielded)):
    rep = observed_rates(campaign)
    print(f"{label}: D={rep.dependability:.4f} "
          f"UT={rep.task_undependability:.4f} "
          f"UH={rep.harmful_undependability:.4f} "
          f"({count(campaign, BehaviorMode.HARMFUL_FAILURE)} collisions)")

# many collisions become successes: the governed policy waits the obstacle
# out and then climbs high enough to satisfy the true goal anyway
converted = int(((plain.modes == BehaviorMode.HARMFUL_FAILURE.code)
                 & (shielded.modes == BehaviorMode.SUCCESS.code)).sum())
print(f"collisions converted to successes on the same seeds: {converted}")

OUT.mkdir(exist_ok=True)
atomic_write_text(OUT / "failures_without_governor.svg",
                  failure_scatter_svg(plain, space, ("v", "y")))
atomic_write_text(OUT / "failures_with_governor.svg",
                  failure_scatter_svg(shielded, space, ("v", "y")))
print(f"failure maps written to {OUT}/failures_*.svg "
      "(the pink ceiling disappears)")
