#!/usr/bin/env python3
"""Self-test of the benchmark: every output check accepts a right result
and rejects a deliberately wrong one, and span self times add up.

    python3 perfbench/selftest.py

Run from the repository root; exits 0 when every case behaves as expected.
The wrong results are a flipped record mode, a governed campaign that is
no safer than the plain one, a record file missing a line, a report metric
perturbed by 1e-6, one changed byte in a reproduce output tree and a
harmful ratio of 0.5.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import types
from array import array

import bench_checks as C
import run
from bench_trace import Tracer


def main() -> int:
    dg = run.load_depgrid()
    work = run.OUT / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    failures: list[str] = []

    def expect(case: str, right: str | None, wrong: str | None) -> None:
        print(f"{case:<34} right -> {right!r}\n{'':<34} wrong -> {wrong!r}")
        if right is not None:
            failures.append(f"{case}: right result rejected")
        if wrong is None:
            failures.append(f"{case}: wrong result accepted")

    try:
        # campaign: records equal their scalar re-run; the governor is safer
        n = 200
        wl = run.Campaign(dg, 5, work)
        scenarios, master, plain, governed, _ = wl._run((0,), n)
        idx = list(range(0, n, 9))
        flip = next(i for i in idx if plain.records[i].mode.value != "harmful_failure")
        other = ("task_failure" if plain.records[flip].mode.value == "success"
                 else "success")
        records = list(plain.records)
        records[flip] = dataclasses.replace(records[flip], mode=other)
        expect("campaign: flipped record mode",
               C.check_campaign(dg, wl.env, wl.plain, scenarios, master, plain, idx),
               C.check_campaign(dg, wl.env, wl.plain, scenarios, master,
                                types.SimpleNamespace(records=tuple(records)), idx))
        if C.harmful_rate(dg, plain) == 0:
            failures.append("campaign: no harmful failure to cut; pick another seed")
        expect("campaign: governor no safer",
               C.check_governed(dg, plain, governed),
               C.check_governed(dg, plain, plain))
        path = work / "plain.jsonl"
        short = work / "short.jsonl"
        short.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        expect("campaign: record file short a line",
               C.check_record_file(path, n), C.check_record_file(short, n))

        # sweep: report metrics equal the numpy oracle
        grid = dg.domain.PartitionGrid((4, 4, 4))
        target = dg.presets.condition("oc3")
        report = dg.estimator.predict(
            dg.estimator.tally(dg.records.read_records(path), grid, target.space),
            target, renormalize_empty=True)
        good, bad = work / "good.json", work / "bad.json"
        dg.records.write_report(good, report)
        doc = json.loads(good.read_text())
        doc["dependability"] += 1e-6
        bad.write_text(json.dumps(doc))
        expected = C.oracle_metrics(dg, *C.load_points(path), grid, target)
        expect("sweep: perturbed report metric",
               C.check_report(good, expected), C.check_report(bad, expected))

        # reproduce: same seed, byte-identical tree; harmful ratio <= 0.01
        trees = []
        for k in range(2):
            out = work / f"reproduce-{k}"
            dg.cli.reproduce(out, n=150, seed=3, grid=dg.domain.PartitionGrid((2, 2, 2)))
            trees.append(out)
        reference = C.tree_digest(trees[0])
        right = C.check_tree(reference, C.tree_digest(trees[1]))
        summary_path = trees[1] / "summary.json"
        data = bytearray(summary_path.read_bytes())
        data[len(data) // 2] ^= 1
        summary_path.write_bytes(bytes(data))
        expect("reproduce: one changed byte",
               right, C.check_tree(reference, C.tree_digest(trees[1])))
        summary = json.loads((trees[0] / "summary.json").read_text())
        unsafe = json.loads(json.dumps(summary))
        unsafe["safety"]["harmful_ratio"] = 0.5
        expect("reproduce: harmful ratio 0.5",
               C.check_summary(summary), C.check_summary(unsafe))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # self time: a parent's duration minus its children's
    tracer = Tracer()
    for name in ("a", "b", "c"):
        tracer.open(name)
    tracer.close(2)
    tracer.close(1)
    tracer.close(0)
    tracer._start = array("d", [0.0, 1.0, 2.0])
    tracer._end = array("d", [10.0, 4.0, 3.0])
    own = tracer.self_times()
    scaled = tracer.self_times(starts=(0.0, 1.5), scales=(1.0, 2.0))
    print(f"{'trace: self times':<34} {own}; c's operation at 2x: {scaled}")
    if own != {"a": 7.0, "b": 2.0, "c": 1.0}:
        failures.append(f"trace: self times {own} != a 7, b 2, c 1")
    if scaled != {"a": 7.0, "b": 2.0, "c": 2.0}:
        failures.append(f"trace: scaled self times {scaled} != a 7, b 2, c 2")

    for f in failures:
        print(f"SELFTEST FAILED: {f}", file=sys.stderr)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
