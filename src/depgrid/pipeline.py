"""The paper's experiment end to end: reproduce.

A uniform testing campaign predicts the scripted policy's dependability and
its task and harmful undependability under four operating conditions, and a
held-out campaign under each checks its prediction. Condition k of
("testing",) + OPERATING_CONDITION_NAMES draws its n scenarios with seed +
11 + k and runs them with master seed seed + 21 + k. The testing scenarios
run twice on one noise draw, with the plain policy and behind the safety
function. So the output bytes are a pure function of (n, seed, grid).

The tree under out_dir, for each condition <name>:

    conditions/<name>.json              condition document with its seed
    records/<name>.jsonl, <name>.manifest.json (with the env, params,
            safety function and master seed it ran), and testing_safety.*;
            the record files are the only copy of the scenarios, whose
            texts are formatted once for both testing campaigns
    reports/predicted_<name>.json, observed_<name>.json, and
            observed_testing_safety.json
    plots/comparison.svg, failures_testing.svg, failures_testing_safety.svg
    summary.json, summary.txt
"""

from __future__ import annotations

from pathlib import Path

from . import presets
from .domain import PartitionGrid, sample, validate_grid
from .errors import ConfigError
from .estimator import METRICS, compare, observed_rates, predict, tally
from .policies import ScriptedPolicy, ScriptedPolicyParams, evaluate_policies
from .records import (_as_json, atomic_write_text, condition_document,
                      dump_json, scenario_texts, write_campaign, write_report,
                      writing)
from .safety import SafetyFunction, wrap
from .simulator import EnvConfig
from .svgplots import comparison_bar_svg, failure_scatter_svg

# the largest |predicted - observed| in pts that confirms a prediction
TOLERANCE_PTS = 2.0


def policy_factory(params: ScriptedPolicyParams, env: EnvConfig,
                   safety: SafetyFunction | None):
    """A factory of the scripted policy, behind the safety function when one
    is given."""
    if safety is None:
        return lambda: ScriptedPolicy(params, env)
    return lambda: wrap(ScriptedPolicy(params, env), safety)


def reproduce(out_dir: str | Path, *, n: int, seed: int,
              grid: PartitionGrid | None = None) -> dict:
    """Run the experiment into out_dir and return the summary dict.

    out_dir is made before any scenario is drawn, so a path that cannot be
    a directory raises ConfigError at once. Every prediction is made before
    any file is written, so an EmptyPartition leaves out_dir empty. The
    default grid, presets.default_grid(), needs n around 20000 to cover
    every voxel; a smaller n needs a coarser grid.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if n < 1:
        raise ConfigError(f"n must be at least 1, got {n}")
    out = Path(out_dir)
    env = presets.default_env()
    params = presets.default_policy_params()
    space = presets.domain_space()
    grid = grid or presets.default_grid()
    validate_grid(grid, space)
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
    names = ("testing",) + presets.OPERATING_CONDITION_NAMES
    conditions = [presets.condition(name) for name in names]
    sf = SafetyFunction.from_threshold(params.risk_goal_threshold)

    observed = {}
    oc_rows = []
    pairs = []
    for k, (name, cond) in enumerate(zip(names, conditions)):
        sample_seed = seed + 11 + k
        scenarios = sample(cond, n, sample_seed)
        # the testing scenarios also run behind the safety function, on the
        # same episode seeds and noise draw
        safeties = (None, sf) if k == 0 else (None,)
        campaigns = evaluate_policies(
            env, [policy_factory(params, env, s) for s in safeties],
            scenarios, seed + 21 + k, condition_name=name)
        if k == 0:
            testing = campaigns
            tallies = tally(campaigns[0], grid, space)
            predictions = [predict(tallies, c) for c in conditions]

        doc = condition_document(cond, grid, sample_seed, env=env,
                                 params=params)
        atomic_write_text(out / "conditions" / f"{name}.json", dump_json(doc))
        texts = scenario_texts(scenarios)
        for campaign, safety, stem in zip(campaigns, safeties,
                                          (name, f"{name}_safety")):
            write_campaign(out / "records" / f"{stem}.jsonl", campaign, env,
                           params, safety, texts=texts)
            observed[stem] = observed_rates(campaign)
            write_report(out / "reports" / f"observed_{stem}.json",
                         observed[stem])
        predicted = predictions[k]
        write_report(out / "reports" / f"predicted_{name}.json", predicted)

        deltas = compare(predicted, observed[name])
        if k == 0:
            # the re-weighting identity under the testing condition itself
            identity = deltas
            continue
        oc_rows.append({
            "condition": name,
            "predicted": predicted.metrics(),
            "observed": observed[name].metrics(),
            **deltas,
            "within_tolerance": deltas["max_abs_pts"] <= TOLERANCE_PTS,
        })
        pairs.append((name, predicted, observed[name]))

    atomic_write_text(out / "plots" / "comparison.svg",
                      comparison_bar_svg(pairs))
    for campaign, stem in zip(testing, ("testing", "testing_safety")):
        atomic_write_text(out / "plots" / f"failures_{stem}.svg",
                          failure_scatter_svg(campaign, space, ("v", "t", "y")))

    observed_test = observed["testing"]
    observed_safety = observed["testing_safety"]
    harmful_base = observed_test.harmful_undependability
    harmful_safe = observed_safety.harmful_undependability
    summary = {
        "n": n,
        "seed": seed,
        "grid_bins": list(grid.bins),
        "tolerance_pts": TOLERANCE_PTS,
        "identity_check": identity,
        "observed_testing": observed_test.metrics(),
        "operating_conditions": oc_rows,
        "all_within_tolerance": all(r["within_tolerance"] for r in oc_rows),
        "safety": {
            **_as_json(sf),
            "harmful_without": harmful_base,
            "harmful_with": harmful_safe,
            "harmful_ratio": (harmful_safe / harmful_base
                              if harmful_base > 0 else 0.0),
            "dependability_without": observed_test.dependability,
            "dependability_with": observed_safety.dependability,
        },
    }
    atomic_write_text(out / "summary.json", dump_json(summary))
    atomic_write_text(out / "summary.txt", _summary_text(summary))
    return summary


def _summary_text(s: dict) -> str:
    lines = []
    lines.append(f"pipeline summary  (n={s['n']}, seed={s['seed']}, "
                 f"grid={'x'.join(str(b) for b in s['grid_bins'])})")
    lines.append("")
    obs = s["observed_testing"]
    lines.append("testing conditions (observed): " + "  ".join(
        f"{short}={obs[metric]:.4f}"
        for short, metric in zip(("D", "UT", "UH"), METRICS)))
    ident = s["identity_check"]
    lines.append(f"re-weighting identity check: max |delta| = "
                 f"{ident['max_abs_pts']:.3f} pts")
    lines.append("")
    header = (f"{'condition':<10} {'metric':<24} {'predicted':>10} "
              f"{'observed':>10} {'delta pts':>10}  check")
    lines.append(header)
    lines.append("-" * len(header))
    tol = s["tolerance_pts"]
    for row in s["operating_conditions"]:
        for metric in METRICS:
            p = row["predicted"][metric]
            o = row["observed"][metric]
            d = row["deltas_pts"][f"{metric}_pts"]
            check = "ok" if abs(d) <= tol else "EXCEEDED"
            lines.append(f"{row['condition']:<10} {metric:<24} {p:>10.4f} "
                         f"{o:>10.4f} {d:>+10.2f}  {check}")
    lines.append("")
    verdict = "yes" if s["all_within_tolerance"] else "NO"
    lines.append(f"all predictions within {tol:.1f} pts of held-out "
                 f"observation: {verdict}")
    sf = s["safety"]
    lines.append("")
    lines.append(f"safety function (goal clipped to "
                 f"[0, {sf['goal_clip_max']}]):")
    lines.append(f"  harmful undependability: {sf['harmful_without']:.5f} -> "
                 f"{sf['harmful_with']:.5f} (ratio {sf['harmful_ratio']:.5f})")
    lines.append(f"  dependability:           {sf['dependability_without']:.4f} -> "
                 f"{sf['dependability_with']:.4f}")
    return "".join(line + "\n" for line in lines)
