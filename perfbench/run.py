#!/usr/bin/env python3
"""Benchmark of depgrid: three workloads run against its public API.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 15 --trace 0

Run from the repository root. Workloads (see perfbench/README.md):

  campaign   sample uniform testing scenarios, run them with the scripted
             policy and again with the goal governor, write both record files
  sweep      the `predict` request path over a 20k-record campaign, for two
             conditions on a 10^3 and a 40^3 grid
  reproduce  `depgrid.cli.reproduce` at n=3000 on a 5^3 grid, at least three
             times per run; every output tree must equal the first

One caller issues one call at a time in this process (a closed loop with no
threads). Each workload's outputs are checked; a raised error or a failed
check counts the operation as failed. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` iterations alternate untraced and traced, and the JSON holds
the per-layer metrics of the traced ones. ``--workload all`` runs every
workload in its own process, prints their lines and one combined JSON line.

Times are reported at a reference machine speed. The machine's speed is
sampled all through a run (see SpeedProbe), and each timed interval's
seconds are scaled by the mean speed factor sampled around it. The raw
seconds are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("campaign", "sweep", "reproduce")

CAMPAIGN_N = 250          # scenarios per campaign operation
CAMPAIGN_CHECKED = 6      # records per pass re-run by the check
SWEEP_RECORDS = 20000
SWEEP_CELLS = (("testing", 10), ("oc3", 10), ("testing", 40), ("oc3", 40))
REPRODUCE_N = 3000
REPRODUCE_BINS = (5, 5, 5)
WARMUP_REPEATS = 3

# Seconds one run of the reference work takes at the reference speed: about
# its fastest on a 2-vCPU Intel Xeon VM with Python 3.11, where the speed of
# the same single-threaded code drifted by up to 2x within minutes.
CAL_REF_S = 0.0012
TICK_S = 0.1     # the probe samples the speed this often
WINDOW_S = 0.5   # samples this close to an interval set its speed


def _reference_work() -> float:
    """Interpreter-bound work like depgrid's own: float arithmetic, dict stores."""
    x = 0.0
    d = {}
    for i in range(10000):
        x += (i * 0.5) % 7.0
        d[i & 255] = x
    return x


class SpeedProbe:
    """Samples the machine's speed all through a run.

    Every TICK_S seconds a SIGALRM handler runs the reference work once and
    logs when it ran and how long it took. An interval's seconds exclude the
    handler time inside it; its speed scale is the mean of CAL_REF_S / sample
    over the samples within WINDOW_S of it (a time average of the speed), so
    seconds * scale are seconds at the reference speed.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_work()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, t0: float, t1: float) -> float:
        return t1 - t0 - sum(d for a, d in zip(self.at, self.took) if t0 <= a < t1)

    def scale(self, t0: float, t1: float) -> float:
        near = [d for a, d in zip(self.at, self.took)
                if t0 - WINDOW_S <= a <= t1 + WINDOW_S]
        if len(near) < 5:
            mid = (t0 + t1) / 2
            near = [d for _, d in sorted(zip(self.at, self.took),
                                         key=lambda s: abs(s[0] - mid))[:5]]
        return statistics.fmean(CAL_REF_S / d for d in near)


def timed(tracing, call):
    """Run call() inside tracing(): its result and its (start, end) times."""
    with tracing():
        t0 = time.perf_counter()
        out = call()
        t1 = time.perf_counter()
    return out, (t0, t1)


def load_depgrid():
    """Import depgrid from this checkout's src/, or exit with code 1."""
    src = ROOT / "src"
    if not (src / "depgrid" / "__init__.py").is_file():
        sys.exit(f"perfbench: no depgrid sources under {src}")
    sys.path.insert(0, str(src))
    import depgrid
    import depgrid.cli
    import depgrid.presets
    import depgrid.records
    import depgrid.svgplots

    if Path(depgrid.__file__).resolve().parent != (src / "depgrid").resolve():
        sys.exit(f"perfbench: imported depgrid from {depgrid.__file__}, not {src}")
    return depgrid


def machine() -> dict:
    """The box a result was measured on."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "note": ("shared machine, no CPU pinning; only this benchmark's own "
                 "process is measured"),
    }


def sub_seed(seed: int, *key: int) -> int:
    """A 32-bit seed derived from the workload seed and a key."""
    import numpy as np

    return int(np.random.SeedSequence(seed, spawn_key=key).generate_state(1)[0])


class Op:
    """One timed operation: a campaign, a prediction request or a reproduce call.

    ``seconds`` and ``scale`` are filled in from the speed probe after the run.
    """

    def __init__(self, label: str, span: tuple[float, float] | None,
                 problem: str | None = None, **extra):
        self.label, self.span, self.problem, self.extra = label, span, problem, extra
        self.seconds = self.scale = float("nan")

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def failed_op(label: str) -> Op:
    traceback.print_exc(file=sys.stderr)
    return Op(label, None, f"raised {sys.exc_info()[0].__name__}")


def good_ops(iterations) -> list[Op]:
    return [op for it in iterations for op in it if op.problem is None]


# ---------------------------------------------------------------------------
# Workloads. __init__ is the set-up. iteration(k, tracing) runs the k-th
# iteration, its program calls inside `with tracing():`, checks the outputs
# with tracing off and returns its operations.
# ---------------------------------------------------------------------------

class Campaign:
    min_iterations = 1
    warm_ups = WARMUP_REPEATS

    def __init__(self, dg, seed: int, work: Path):
        self.dg, self.seed, self.work = dg, seed, work
        self.env = dg.presets.default_env()
        params = dg.presets.default_policy_params()
        self.cond = dg.presets.condition("testing")
        sf = dg.safety.SafetyFunction.from_threshold(params.risk_goal_threshold)
        self.plain = lambda: dg.policies.ScriptedPolicy(params, self.env)
        self.governed = lambda: dg.safety.wrap(
            dg.policies.ScriptedPolicy(params, self.env), sf)

    def warm_up(self, k: int) -> None:
        self._run((10**6 + k,), CAMPAIGN_N)  # keys no iteration uses

    def _run(self, key: tuple, n: int):
        dg = self.dg
        scenarios = dg.domain.sample(self.cond, n, sub_seed(self.seed, 1, *key))
        master = sub_seed(self.seed, 2, *key)
        t0 = time.perf_counter()
        plain = dg.policies.evaluate_policy(self.env, self.plain, scenarios, master,
                                            condition_name="testing")
        governed = dg.policies.evaluate_policy(self.env, self.governed, scenarios,
                                               master, condition_name="testing")
        sim = (t0, time.perf_counter())
        dg.records.write_records(self.work / "plain.jsonl", plain)
        dg.records.write_records(self.work / "governed.jsonl", governed)
        return scenarios, master, plain, governed, sim

    def iteration(self, k: int, tracing) -> list[Op]:
        import numpy as np

        from bench_checks import check_campaign, check_governed, check_record_file

        try:
            out, span = timed(tracing, lambda: self._run((k,), CAMPAIGN_N))
        except Exception:
            return [failed_op("campaign")]
        scenarios, master, plain, governed, sim = out
        rng = np.random.default_rng((self.seed, k))
        idx = sorted(rng.choice(CAMPAIGN_N, CAMPAIGN_CHECKED, replace=False).tolist())
        problem = (
            check_campaign(self.dg, self.env, self.plain, scenarios, master, plain, idx)
            or check_campaign(self.dg, self.env, self.governed, scenarios, master,
                              governed, idx)
            or check_governed(self.dg, plain, governed)
            or check_record_file(self.work / "plain.jsonl", CAMPAIGN_N)
            or check_record_file(self.work / "governed.jsonl", CAMPAIGN_N))
        return [Op("campaign", span, problem, episodes=2 * CAMPAIGN_N, sim=sim)]

    def end_to_end(self, iterations, probe: SpeedProbe) -> dict:
        ops = good_ops(iterations)
        return {
            "wall_s": statistics.median(op.ref_seconds for op in ops),
            "episodes_per_s": statistics.median(
                op.extra["episodes"] / (probe.seconds(*op.extra["sim"]) * op.scale)
                for op in ops),
        }

    def extras(self, iterations) -> dict:
        return {}


class Sweep:
    min_iterations = 1
    warm_ups = 0  # set-up already runs the program for 10-15 s

    def __init__(self, dg, seed: int, work: Path):
        self.dg, self.seed, self.work = dg, seed, work
        env = dg.presets.default_env()
        params = dg.presets.default_policy_params()
        scenarios = dg.domain.sample(dg.presets.condition("testing"), SWEEP_RECORDS,
                                     sub_seed(seed, 1))
        campaign, self.setup_sim = timed(contextlib.nullcontext, lambda: (
            dg.policies.evaluate_policy(
                env, lambda: dg.policies.ScriptedPolicy(params, env), scenarios,
                sub_seed(seed, 2), condition_name="testing")))
        self.records_path = work / "testing.jsonl"
        dg.records.write_records(self.records_path, campaign)
        self._points = None
        self._oracle: dict = {}

    def _request(self, cond_name: str, bins: int, out: Path) -> None:
        """The `depgrid predict --renormalize-empty` request path."""
        dg = self.dg
        target = dg.presets.condition(cond_name)
        grid = dg.domain.PartitionGrid((bins,) * 3)
        campaign = dg.records.read_records(self.records_path)
        tallies = dg.estimator.tally(campaign, grid, target.space)
        report = dg.estimator.predict(tallies, target, renormalize_empty=True)
        dg.records.write_report(out, report)

    def _expected(self, cond_name: str, bins: int):
        from bench_checks import load_points, oracle_metrics

        if self._points is None:
            self._points = load_points(self.records_path)
        key = (cond_name, bins)
        if key not in self._oracle:
            self._oracle[key] = oracle_metrics(
                self.dg, *self._points, self.dg.domain.PartitionGrid((bins,) * 3),
                self.dg.presets.condition(cond_name))
        return self._oracle[key]

    def iteration(self, k: int, tracing) -> list[Op]:
        from bench_checks import check_report

        ops = []
        for cond_name, bins in SWEEP_CELLS:
            label = f"predict_{bins}"
            out = self.work / f"predicted_{cond_name}_{bins}.json"
            try:
                _, span = timed(tracing, lambda: self._request(cond_name, bins, out))
            except Exception:
                ops.append(failed_op(label))
                continue
            ops.append(Op(label, span,
                          check_report(out, self._expected(cond_name, bins)),
                          cell=(cond_name, bins)))
        return ops

    def _cell_medians(self, iterations) -> dict[tuple, float]:
        by_cell: dict[tuple, list[float]] = {}
        for op in good_ops(iterations):
            by_cell.setdefault(op.extra["cell"], []).append(op.ref_seconds)
        if len(by_cell) != len(SWEEP_CELLS):
            raise ValueError("a sweep cell has no successful request")
        return {cell: statistics.median(v) for cell, v in by_cell.items()}

    def end_to_end(self, iterations, probe: SpeedProbe) -> dict:
        return {
            # one round of the four requests, each at its median
            "wall_s": sum(self._cell_medians(iterations).values()),
            # the set-up campaign's simulation
            "episodes_per_s": SWEEP_RECORDS / (probe.seconds(*self.setup_sim)
                                               * probe.scale(*self.setup_sim)),
        }

    def extras(self, iterations) -> dict:
        cells = self._cell_medians(iterations)
        return {
            f"predict_{bins}_ms": {
                "value": 1e3 * statistics.median(
                    v for (_, b), v in cells.items() if b == bins),
                "unit": "ms"}
            for bins in sorted({b for _, b in SWEEP_CELLS})
        }


class Reproduce:
    min_iterations = 3
    warm_ups = WARMUP_REPEATS

    def __init__(self, dg, seed: int, work: Path):
        self.dg, self.seed, self.work = dg, seed, work
        self.reference: dict | None = None
        self.max_delta_pts = float("nan")

    def warm_up(self, k: int) -> None:
        out = self.work / f"warmup-{k}"
        self.dg.cli.reproduce(out, n=100, seed=sub_seed(self.seed, 9, k),
                              grid=self.dg.domain.PartitionGrid((2, 2, 2)))
        shutil.rmtree(out)

    def iteration(self, k: int, tracing) -> list[Op]:
        from bench_checks import check_summary, check_tree, tree_digest

        out = self.work / f"reproduce-{k}"
        try:
            _, span = timed(tracing, lambda: self.dg.cli.reproduce(
                out, n=REPRODUCE_N, seed=self.seed,
                grid=self.dg.domain.PartitionGrid(REPRODUCE_BINS)))
        except Exception:
            shutil.rmtree(out, ignore_errors=True)
            return [failed_op("reproduce")]
        try:
            digest = tree_digest(out)
            summary = json.loads((out / "summary.json").read_text())
            episodes = sum(p.read_bytes().count(b"\n")
                           for p in (out / "records").glob("*.jsonl"))
            if self.reference is None:
                self.reference = digest
            problem = check_tree(self.reference, digest) or check_summary(summary)
            self.max_delta_pts = max(row["max_abs_pts"]
                                     for row in summary["operating_conditions"])
        except (OSError, KeyError, ValueError) as e:
            problem, episodes = f"unreadable output: {e!r}", 0
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return [Op("reproduce", span, problem, episodes=episodes)]

    def end_to_end(self, iterations, probe: SpeedProbe) -> dict:
        ops = good_ops(iterations)
        return {
            "wall_s": statistics.median(op.ref_seconds for op in ops),
            "episodes_per_s": statistics.median(
                op.extra["episodes"] / op.ref_seconds for op in ops),
        }

    def extras(self, iterations) -> dict:
        return {"max_delta_pts": {"value": self.max_delta_pts, "unit": "pts"}}


# ---------------------------------------------------------------------------
# Measurement loop
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    probe = SpeedProbe()
    probe.start()
    work = OUT / f"work-{name}-{os.getpid()}"
    try:
        dg, import_span = timed(contextlib.nullcontext, load_depgrid)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        return _measure(dg, name, seed, seconds, trace, work, probe, import_span)
    finally:
        probe.stop()
        shutil.rmtree(work, ignore_errors=True)


def _measure(dg, name, seed, seconds, trace, work, probe, import_span) -> dict:
    import bench_trace

    info = machine()
    cls = {"campaign": Campaign, "sweep": Sweep, "reproduce": Reproduce}[name]
    wl, prepare_span = timed(contextlib.nullcontext, lambda: cls(dg, seed, work))
    warm = [timed(contextlib.nullcontext, lambda: wl.warm_up(k))[1]
            for k in range(wl.warm_ups)]
    setup_span = (import_span[0], time.perf_counter())

    tracer = bench_trace.Tracer()
    restore = bench_trace.install(tracer, bench_trace.TARGETS) if trace else []
    iterations = []
    deadline = time.perf_counter() + seconds
    try:
        while len(iterations) < max(wl.min_iterations, 2 if trace else 1) \
                or time.perf_counter() < deadline:
            traced = trace and len(iterations) % 2 == 1
            iterations.append(wl.iteration(
                len(iterations), tracer.active if traced else contextlib.nullcontext))
    finally:
        bench_trace.uninstall(restore)

    ops = [op for it in iterations for op in it]
    for op in ops:
        if op.span is not None:
            op.seconds, op.scale = probe.seconds(*op.span), probe.scale(*op.span)
    # Import and preparation happen once; the warm-up is repeated and its
    # median counted, so that work moved into set-up shows.
    setup_raw_s = (probe.seconds(*import_span) + probe.seconds(*prepare_span)
                   + (statistics.median(probe.seconds(*w) for w in warm) if warm else 0.0))
    setup_s = setup_raw_s * probe.scale(*setup_span)
    failed = [op for op in ops if op.problem is not None]
    for op in failed:
        print(f"FAILED {op.label}: {op.problem}", file=sys.stderr)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": info, "cal_ref_s": CAL_REF_S, "speed_samples": len(probe.at),
        "iterations": len(iterations),
        "attempted": len(ops), "failed": len(failed),
        "ops": [[op.label, op.seconds, op.scale] for op in ops],
        "op_spans": [op.span for op in ops],
        "speed_log": [[round(a, 4), round(d, 6)] for a, d in zip(probe.at, probe.took)],
    }
    untraced = iterations[::2] if trace else iterations
    if not trace:
        e2e = wl.end_to_end(untraced, probe)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": e2e["wall_s"], "unit": "s"},
            "episodes_per_s": {"value": e2e["episodes_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        good = good_ops(untraced)
        extras = {
            "error_rate": {"value": len(failed) / len(ops), "unit": "frac"},
            "raw_setup_s": {"value": setup_raw_s, "unit": "s"},
            "raw_op_median_s": {"value": statistics.median(op.seconds for op in good),
                                "unit": "s"},
            "speed_scale": {"value": statistics.median(op.scale for op in good),
                            "unit": "frac"},
            **wl.extras(untraced),
        }
    else:
        traced = iterations[1::2]
        timed_ops = sorted((op for it in traced for op in it if op.span is not None),
                           key=lambda op: op.span[0])
        metrics = bench_trace.layer_metrics(
            tracer, len(traced), [op.span[0] for op in timed_ops],
            [op.scale for op in timed_ops])
        t_traced, t_plain = (statistics.median(sum(op.ref_seconds for op in it)
                                               for it in its)
                             for its in (traced, untraced))
        metrics["trace.overhead_frac"] = {
            "value": (t_traced - t_plain) / t_plain, "unit": "frac"}
        extras = {"spans": {"value": len(tracer), "unit": "count"}}
        tracer.dump(OUT / f"trace-{name}-seed{seed}.json",
                    {k: result[k] for k in ("workload", "seed", "seconds", "machine")})
    result["metrics"] = metrics
    result["extras"] = extras
    return result


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_result(result: dict) -> None:
    m = result["machine"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"iterations={result['iterations']} ops={result['attempted']} "
          f"failed={result['failed']}")
    print(f"# machine: nproc={m['nproc']} cpu={m['cpu_model']!r} "
          f"python={m['python']} numpy={m['numpy']} "
          f"loadavg={m['loadavg_at_start']} ({m['note']})")
    print(f"# times in seconds at the reference speed (reference work "
          f"{CAL_REF_S} s); raw_* are as measured")
    for key in ("metrics", "extras"):
        for name, v in result[key].items():
            print(f"{name:<28} {v['value']:>16.6g} {v['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak RSS are its own."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(result, indent=1) + "\n")
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
