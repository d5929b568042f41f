"""Command-line front end.

Subcommands: sample, run, predict, observe, compare, plot, reproduce.
Exit codes: 0 success, 2 configuration errors, 3 data errors, 4 uncovered
positive-mass regions (EmptyPartition).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import presets
from .domain import (ConditionSet, DomainSpace, PartitionGrid, sample,
                     validate_grid)
from .errors import ConfigError, DataError, DepgridError
from .estimator import (BehaviorMode, TestCampaign, compare, observed_rates,
                        predict, tally)
from .policies import (ScriptedPolicy, ScriptedPolicyParams, evaluate_policies,
                       evaluate_policy)
from .records import (
    atomic_write_text,
    condition_document,
    dump_json,
    file_sha256,
    load_condition_file,
    naming_line,
    read_manifest,
    read_records,
    read_report,
    read_scenarios,
    write_campaign,
    write_report,
    write_scenarios,
)
from .safety import DEFAULT_DELTA, SafetyFunction, wrap
from .simulator import EnvConfig
from .svgplots import comparison_bar_svg, failure_scatter_svg


def _resolve_condition(args) -> tuple[ConditionSet, PartitionGrid, int]:
    """Target condition, grid and sampling seed from --config (a condition
    document) or --condition (a built-in preset name, sampled with seed 0)."""
    if getattr(args, "config", None):
        return load_condition_file(args.config)[:3]
    if getattr(args, "condition", None):
        return presets.condition(args.condition), presets.default_grid(), 0
    raise ConfigError("give either --config FILE or --condition NAME")


def _parse_grid(spec: str) -> PartitionGrid:
    try:
        bins = tuple(int(b) for b in spec.split(","))
    except ValueError:
        raise ConfigError(f"bad grid spec {spec!r}; expected e.g. 10,10,10") from None
    return PartitionGrid(bins)


def _domain(args) -> DomainSpace:
    """The domain of --config's condition document, or the built-in one."""
    if args.config:
        return load_condition_file(args.config)[0].space
    return presets.domain_space()


def _records_in(path, space: DomainSpace) -> TestCampaign:
    """The campaign of a record file, checked against the domain; a record
    outside it raises OutOfDomain naming the file and the record's line."""
    campaign = read_records(path)
    with naming_line(path):
        space.check_points(campaign.scenarios)
    return campaign


def _policy_factory(params: ScriptedPolicyParams, env: EnvConfig,
                    safety: SafetyFunction | None):
    if safety is None:
        return lambda: ScriptedPolicy(params, env)
    return lambda: wrap(ScriptedPolicy(params, env), safety)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_sample(args) -> int:
    cond, _, seed = _resolve_condition(args)
    scenarios = sample(cond, args.n, seed if args.seed is None else args.seed)
    write_scenarios(args.out, scenarios)
    print(f"wrote {len(scenarios)} scenarios from {cond.name!r} to {args.out}")
    return 0


# the flags that choose the campaign `run` runs, each None when not given; a
# manifest fixes them all
_CAMPAIGN_FLAGS = ("scenarios", "config", "condition", "seed", "safety",
                   "clip_max", "delta")


def cmd_run(args) -> int:
    if args.manifest:
        given = [f"--{f.replace('_', '-')}" for f in _CAMPAIGN_FLAGS
                 if getattr(args, f) is not None]
        if given:
            raise ConfigError(f"--manifest fixes the campaign; it takes no "
                              f"{', '.join(given)}")
        manifest = read_manifest(args.manifest)
        base = Path(args.manifest).parent
        scenarios_path = base / manifest.scenarios_path
        seed = manifest.master_seed
        try:
            params = ScriptedPolicyParams(**manifest.policy_params)
            safety = (SafetyFunction(**manifest.safety)
                      if manifest.safety is not None else None)
        except (TypeError, ValueError) as e:
            raise DataError(f"{args.manifest}: {e}") from None
        env = EnvConfig()
        config_path = manifest.config_path and base / manifest.config_path
        if config_path:
            env = load_condition_file(config_path)[3]
            if file_sha256(config_path) != manifest.config_sha256:
                raise DataError(f"{config_path}: its sha256 is not the "
                                f"config_sha256 {args.manifest} recorded")
        condition_name = manifest.condition
        out = Path(args.out) if args.out else base / manifest.records_path
    else:
        if not args.scenarios:
            raise ConfigError("give --scenarios FILE (or --manifest FILE)")
        scenarios_path = Path(args.scenarios)
        seed = args.seed or 0
        config_path = args.config or None
        env, params = EnvConfig(), presets.default_policy_params()
        if config_path:
            env, params = load_condition_file(config_path)[3:]
        if not args.safety and (args.clip_max, args.delta) != (None, None):
            raise ConfigError("--clip-max and --delta set the safety "
                              "function; give --safety too")
        delta = DEFAULT_DELTA if args.delta is None else args.delta
        safety = args.safety and SafetyFunction(
            goal_clip_max=(params.risk_goal_threshold - delta
                           if args.clip_max is None else args.clip_max),
            delta=delta)
        condition_name = args.condition or ""
        if not args.out:
            raise ConfigError("give --out FILE for the records")
        out = Path(args.out)

    scenarios = read_scenarios(scenarios_path)
    if args.manifest:
        if len(scenarios) != manifest.n_records:
            raise DataError(f"{scenarios_path}: {len(scenarios)} scenarios, "
                            f"{args.manifest} recorded {manifest.n_records}")
        # a manifest written without the hash replays unchecked
        if manifest.scenarios_sha256 not in (None,
                                             file_sha256(scenarios_path)):
            raise DataError(f"{scenarios_path}: its sha256 is not the "
                            f"scenarios_sha256 {args.manifest} recorded")
    with naming_line(scenarios_path):
        campaign = evaluate_policy(env, _policy_factory(params, env, safety),
                                   scenarios, seed,
                                   condition_name=condition_name)
    manifest_path = write_campaign(out, campaign, params, safety,
                                   scenarios_path, config_path)
    print(f"wrote {len(campaign)} records to {out} "
          f"(manifest: {manifest_path})")
    return 0


def cmd_predict(args) -> int:
    target, grid, _ = _resolve_condition(args)
    if args.grid:
        grid = _parse_grid(args.grid)
    campaign = _records_in(args.records, target.space)
    tallies = tally(campaign, grid, target.space)
    report = predict(tallies, target, renormalize_empty=args.renormalize_empty)
    write_report(args.out, report)
    flag = " (renormalized)" if report.renormalized else ""
    print(f"predicted under {target.name!r}{flag}: "
          f"D={report.dependability:.4f} "
          f"UT={report.task_undependability:.4f} "
          f"UH={report.harmful_undependability:.4f} -> {args.out}")
    return 0


def cmd_observe(args) -> int:
    campaign = _records_in(args.records, _domain(args))
    report = observed_rates(campaign)
    write_report(args.out, report)
    print(f"observed over {len(campaign)} records: "
          f"D={report.dependability:.4f} "
          f"UT={report.task_undependability:.4f} "
          f"UH={report.harmful_undependability:.4f} -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    predicted = read_report(args.predicted)
    observed = read_report(args.observed)
    deltas = compare(predicted, observed)
    atomic_write_text(args.out, dump_json({
        "predicted": args.predicted,
        "observed": args.observed,
        "deltas_pts": deltas.as_dict(),
        "max_abs_pts": deltas.max_abs,
    }))
    svg_path = args.svg or str(Path(args.out).with_suffix(".svg"))
    label = predicted.condition_name or "condition"
    atomic_write_text(svg_path, comparison_bar_svg([(label, predicted, observed)]))
    print(f"deltas (pts): D={deltas.dependability_pts:+.2f} "
          f"UT={deltas.task_undependability_pts:+.2f} "
          f"UH={deltas.harmful_undependability_pts:+.2f} "
          f"-> {args.out}, {svg_path}")
    return 0


def cmd_plot(args) -> int:
    dims = [d.strip() for d in args.dims.split(",") if d.strip()]
    space = _domain(args)
    campaign = _records_in(args.records, space)
    atomic_write_text(args.out, failure_scatter_svg(campaign, space, dims))
    n_fail = int((campaign.modes != BehaviorMode.SUCCESS.code).sum())
    print(f"plotted {n_fail} failures over dims {dims} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Full pipeline
# ---------------------------------------------------------------------------

def reproduce(out_dir: str | Path, *, n: int = 20000, seed: int = 0,
              tolerance_pts: float = 2.0,
              grid: PartitionGrid | None = None) -> dict:
    """Run the whole pipeline into out_dir and return the summary dict.

    Steps: the uniform testing campaign, run as a pair with the
    safety-function campaign on the same scenarios and episode seeds;
    per-region tallies; predictions for the testing and the four operating
    conditions, before any file is written; held-out observation campaigns
    for each operating condition; predicted-vs-observed comparison; summary
    table, reports, and charts. Output bytes are a pure function of (n,
    seed, grid, tolerance): condition k of ("testing",) +
    OPERATING_CONDITION_NAMES draws its scenarios with seed + 11 + k and
    runs its campaign with master seed seed + 21 + k. Each scenario set is
    formatted once, for its scenario file and every record file of it.

    The default 10x10x10 grid needs n large enough to populate every voxel
    (the uniform testing campaign covers all 1000 with n around 20000);
    scaled-down runs should pass a proportionally coarser grid.
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
    names = ("testing",) + presets.OPERATING_CONDITION_NAMES
    sample_seeds = [seed + 11 + k for k in range(len(names))]

    def sample_for(k: int):
        return sample(presets.condition(names[k]), n, sample_seeds[k])

    def campaign_for(k: int, scenarios) -> TestCampaign:
        return evaluate_policy(env, _policy_factory(params, env, None),
                               scenarios, seed + 21 + k,
                               condition_name=names[k])

    # the testing campaign and, on the very same scenarios and episode
    # seeds, the safety function's campaign, run as one pair
    sf = SafetyFunction.from_threshold(params.risk_goal_threshold)
    test_scenarios = sample_for(0)
    test_campaign, safety_campaign = evaluate_policies(
        env, [_policy_factory(params, env, safety) for safety in (None, sf)],
        test_scenarios, seed + 21, condition_name=names[0])

    # per-region tallies and every prediction
    tallies = tally(test_campaign, grid, space)
    predictions = [predict(tallies, presets.condition(name)) for name in names]
    observed_test = observed_rates(test_campaign)

    # condition documents, each with the seed its scenarios were drawn with
    for name, sample_seed in zip(names, sample_seeds):
        doc = condition_document(presets.condition(name), grid, sample_seed,
                                 env=env, params=params)
        atomic_write_text(out / "conditions" / f"{name}.json", dump_json(doc))

    test_path = out / "scenarios" / "testing.jsonl"
    test_texts = write_scenarios(test_path, test_scenarios)
    write_campaign(out / "records" / "testing.jsonl", test_campaign, params,
                   None, test_path, texts=test_texts)
    # the safety campaign ran the testing scenarios
    write_campaign(out / "records" / "testing_safety.jsonl", safety_campaign,
                   params, sf, test_path, texts=test_texts)
    write_report(out / "reports" / "observed_testing.json", observed_test)
    for name, predicted in zip(names, predictions):
        write_report(out / "reports" / f"predicted_{name}.json", predicted)

    # re-weighting identity under the testing conditions themselves
    identity = compare(predictions[0], observed_test)

    # novel operating conditions: confirm each prediction with held-out runs
    oc_rows = []
    pairs = []
    for k, oc in enumerate(presets.OPERATING_CONDITION_NAMES, start=1):
        predicted = predictions[k]
        scenarios = sample_for(k)
        heldout = campaign_for(k, scenarios)
        scenarios_path = out / "scenarios" / f"{oc}.jsonl"
        write_campaign(out / "records" / f"{oc}.jsonl", heldout, params, None,
                       scenarios_path,
                       texts=write_scenarios(scenarios_path, scenarios))
        observed = observed_rates(heldout)
        write_report(out / "reports" / f"observed_{oc}.json", observed)
        deltas = compare(predicted, observed)
        oc_rows.append({
            "condition": oc,
            "predicted": predicted.metrics(),
            "observed": observed.metrics(),
            "deltas_pts": deltas.as_dict(),
            "max_abs_pts": deltas.max_abs,
            "within_tolerance": deltas.max_abs <= tolerance_pts,
        })
        pairs.append((oc, predicted, observed))

    observed_safety = observed_rates(safety_campaign)
    write_report(out / "reports" / "observed_testing_safety.json",
                 observed_safety)

    atomic_write_text(out / "plots" / "comparison.svg",
                      comparison_bar_svg(pairs))
    atomic_write_text(out / "plots" / "failures_testing.svg",
                      failure_scatter_svg(test_campaign, space, ("v", "t", "y")))
    atomic_write_text(out / "plots" / "failures_testing_safety.svg",
                      failure_scatter_svg(safety_campaign, space, ("v", "t", "y")))

    harmful_base = observed_test.harmful_undependability
    harmful_safe = observed_safety.harmful_undependability
    summary = {
        "n": n,
        "seed": seed,
        "grid_bins": list(grid.bins),
        "tolerance_pts": tolerance_pts,
        "identity_check": {
            "deltas_pts": identity.as_dict(),
            "max_abs_pts": identity.max_abs,
        },
        "observed_testing": observed_test.metrics(),
        "operating_conditions": oc_rows,
        "all_within_tolerance": all(r["within_tolerance"] for r in oc_rows),
        "safety": {
            "goal_clip_max": sf.goal_clip_max,
            "delta": sf.delta,
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
    lines.append("testing conditions (observed): "
                 f"D={obs['dependability']:.4f}  "
                 f"UT={obs['task_undependability']:.4f}  "
                 f"UH={obs['harmful_undependability']:.4f}")
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
        for metric in ("dependability", "task_undependability",
                       "harmful_undependability"):
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


def cmd_reproduce(args) -> int:
    grid = _parse_grid(args.grid) if args.grid else None
    reproduce(args.out_dir, n=args.n, seed=args.seed, grid=grid)
    print((Path(args.out_dir) / "summary.txt").read_text(), end="")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="depgrid",
        description=("Predict a fixed policy's success and failure-mode "
                     "probabilities under shifted operating conditions."),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_target(sp):
        sp.add_argument("--config", help="condition document (JSON)")
        sp.add_argument("--condition",
                        help="built-in condition name "
                             "(testing, oc1, oc2, oc3, oc4)")

    sp = sub.add_parser("sample", help="draw scenarios from a condition")
    add_target(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int,
                    help="sampling seed (default: the --config document's "
                         "seed, or 0 with --condition)")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("run", help="run one episode per scenario, all "
                                    "stepped in lockstep")
    sp.add_argument("--scenarios", help="scenario JSONL file")
    sp.add_argument("--config", help="condition document with env/policy")
    sp.add_argument("--condition", help="condition name for the manifest")
    sp.add_argument("--safety", action="store_true", default=None,
                    help="wrap the policy with the goal-clipping governor")
    sp.add_argument("--clip-max", type=float, default=None,
                    help="override the goal clip bound (with --safety)")
    sp.add_argument("--delta", type=float,
                    help=f"clip margin below the risk threshold, with "
                         f"--safety (default {DEFAULT_DELTA})")
    sp.add_argument("--seed", type=int, help="master seed (default 0)")
    sp.add_argument("--manifest", help="rerun a campaign from its manifest, "
                                       "with none of the flags above")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("predict", help="re-weight tallies to a new condition")
    add_target(sp)
    sp.add_argument("--records", required=True)
    sp.add_argument("--grid", help="bins per dimension, e.g. 10,10,10")
    sp.add_argument("--renormalize-empty", action="store_true",
                    help="drop uncovered positive-mass regions and renormalize")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("observe", help="raw outcome rates of a record file")
    sp.add_argument("--records", required=True)
    sp.add_argument("--config", help="condition document for the domain")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_observe)

    sp = sub.add_parser("compare", help="predicted vs observed deltas + chart")
    sp.add_argument("--predicted", required=True)
    sp.add_argument("--observed", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--svg", help="chart path (default: --out with .svg)")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("plot", help="scatter failures over two or three dims")
    sp.add_argument("--records", required=True)
    sp.add_argument("--dims", required=True, help="e.g. v,y or v,t,y")
    sp.add_argument("--config", help="condition document for the domain")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_plot)

    sp = sub.add_parser("reproduce", help="run the full pipeline end to end "
                                          "(six campaigns of --n episodes)")
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--n", type=int, default=20000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--grid", help="bins per dimension (default 10,10,10); "
                                   "scale down with --n")
    sp.set_defaults(func=cmd_reproduce)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DepgridError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    sys.exit(main())
