"""Command-line front end: argument parsing, one function per subcommand
(sample, run, predict, observe, compare, plot, and reproduce, which runs
pipeline.reproduce), and the mapping of a DepgridError to its exit code.
Exit codes: 0 success, 2 configuration errors and sizes beyond memory, 3
data errors, 4 uncovered positive-mass regions (EmptyPartition).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import presets
from .domain import ConditionSet, DomainSpace, PartitionGrid, sample
from .errors import ConfigError, DataError, DepgridError
from .estimator import (BehaviorMode, TestCampaign, compare, observed_rates,
                        predict, tally)
from .pipeline import policy_factory, reproduce
from .policies import evaluate_policy
from .records import (atomic_write_text, atomic_write_texts, dump_json,
                      load_condition_file, naming_line, read_manifest,
                      read_records, read_report, read_scenarios,
                      write_campaign, write_report, write_scenarios)
from .safety import DEFAULT_DELTA, SafetyFunction
from .svgplots import comparison_bar_svg, failure_scatter_svg


def _resolve_condition(args) -> tuple[ConditionSet, PartitionGrid, int]:
    """Target condition, grid and sampling seed from --config (a condition
    document) or --condition (a built-in preset name, sampled with seed 0)."""
    if getattr(args, "config", None):
        return load_condition_file(args.config)[:3]
    if getattr(args, "condition", None):
        return presets.condition(args.condition), presets.default_grid(), 0
    raise ConfigError("give either --config FILE or --condition NAME")


def _integer(text: str) -> int:
    """The int of an integer flag, an optional "-" and the ASCII digits 0-9;
    int() would also take spaces, "+", "_" and other scripts' digits."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"{text!r} is not the digits 0-9")
    return int(text)  # refuses more than 4300 digits


def _parse_grid(spec: str) -> PartitionGrid:
    """The grid of a --grid spec: comma-separated bin counts, each only the
    ASCII digits 0-9. int() would also take a sign, spaces, underscores and
    other scripts' digits."""
    bins = []
    for field in spec.split(","):
        try:
            if not (field.isascii() and field.isdigit()):
                raise ValueError
            bins.append(int(field))  # refuses more than 4300 digits
        except ValueError:
            raise ConfigError(f"bad grid spec {spec!r}: bin count {field!r} is "
                              f"not the digits 0-9; expected e.g. 10,10,10"
                              ) from None
    return PartitionGrid(tuple(bins))


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
        # the record file is the only copy of the campaign's scenarios
        source = Path(args.manifest).parent / manifest["records_path"]
        scenarios = read_records(source).scenarios
        if len(scenarios) != manifest["n_records"]:
            raise DataError(f"{source}: {len(scenarios)} records, "
                            f"{args.manifest} recorded {manifest['n_records']}")
        seed = manifest["master_seed"]
        env, params = manifest["env"], manifest["policy"]
        safety = manifest["safety"]
        condition_name = manifest["condition"]
        out = Path(args.out) if args.out else source
    else:
        if not args.scenarios:
            raise ConfigError("give --scenarios FILE (or --manifest FILE)")
        seed = args.seed or 0
        env, params = presets.default_env(), presets.default_policy_params()
        if args.config:
            env, params = load_condition_file(args.config)[3:]
        if not args.safety and (args.clip_max, args.delta) != (None, None):
            raise ConfigError("--clip-max and --delta set the safety "
                              "function; give --safety too")
        delta = (args.delta if args.delta is not None
                 else DEFAULT_DELTA if args.clip_max is None
                 # the margin a clip given itself has below the threshold
                 else params.risk_goal_threshold - args.clip_max)
        safety = args.safety and (
            SafetyFunction.from_threshold(params.risk_goal_threshold, delta)
            if args.clip_max is None
            else SafetyFunction(goal_clip_max=args.clip_max, delta=delta))
        if args.clip_max is not None and args.delta is not None:
            raise ConfigError("--clip-max sets the clip itself, not --delta "
                              "below the risk threshold; give one of them")
        if safety:
            safety.check_env(env)
        condition_name = args.condition or ""
        if not args.out:
            raise ConfigError("give --out FILE for the records")
        out = Path(args.out)
        source = Path(args.scenarios)
        scenarios = read_scenarios(source)

    # the domain check of the scenarios names the line of the first outside
    with naming_line(source):
        campaign = evaluate_policy(env, policy_factory(params, env, safety),
                                   scenarios, seed,
                                   condition_name=condition_name)
    manifest_path = write_campaign(out, campaign, env, params, safety)
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
    svg_path = args.svg or str(Path(args.out).with_suffix(".svg"))
    label = predicted.condition_name or "condition"
    atomic_write_texts([
        (args.out, dump_json({"predicted": args.predicted,
                              "observed": args.observed, **deltas})),
        (svg_path, comparison_bar_svg([(label, predicted, observed)]))])
    d, ut, uh = deltas["deltas_pts"].values()
    print(f"deltas (pts): D={d:+.2f} UT={ut:+.2f} UH={uh:+.2f} "
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
                        help=f"built-in condition name "
                             f"({', '.join(presets.CONDITION_NAMES)})")

    sp = sub.add_parser("sample", help="draw scenarios from a condition")
    add_target(sp)
    sp.add_argument("--n", type=_integer, required=True)
    sp.add_argument("--seed", type=_integer,
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
                    help="override the goal clip bound (with --safety); "
                         "the manifest records its margin below the risk "
                         "threshold as the delta")
    sp.add_argument("--delta", type=float,
                    help=f"clip margin below the risk threshold, with "
                         f"--safety and without --clip-max (default "
                         f"{DEFAULT_DELTA})")
    sp.add_argument("--seed", type=_integer, help="master seed (default 0)")
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
    sp.add_argument("--n", type=_integer, default=20000)
    sp.add_argument("--seed", type=_integer, default=0)
    sp.add_argument("--grid", help=f"bins per dimension (default "
                    f"{','.join(map(str, presets.default_grid().bins))}); "
                    f"scale down with --n")
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
    except MemoryError as e:   # a size too large for this machine
        print(f"MemoryError: {str(e) or 'out of memory'}", file=sys.stderr)
        return ConfigError.exit_code


if __name__ == "__main__":
    sys.exit(main())
