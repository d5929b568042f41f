"""Output checks of the three workloads.

Each check returns None when the output is right and a one-line reason when
it is wrong; a wrong output counts as a failed operation. The checks use only
public depgrid calls that the planned refactors keep (no ``workers=``
argument, no access to tally internals), and they run with tracing off.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

MODES = ("success", "task_failure", "harmful_failure")
METRICS = ("dependability", "task_undependability", "harmful_undependability")
REPORT_TOL = 1e-9
HARMFUL_CUT = 100  # the governor must cut the harmful rate at least 100-fold


def harmful_rate(dg, campaign) -> float:
    modes = [dg.records.record_to_dict(r)["mode"] for r in campaign.records]
    return modes.count("harmful_failure") / len(modes)


def check_campaign(dg, env, factory, scenarios, master_seed, campaign,
                   indices) -> str | None:
    """Records at ``indices`` equal a scalar re-run of their episode."""
    if len(campaign.records) != len(scenarios):
        return f"{len(campaign.records)} records for {len(scenarios)} scenarios"
    for i in indices:
        want = dg.records.record_to_dict(dg.simulator.run_episode(
            env, factory(), scenarios[i], dg.domain.substream_seed(master_seed, i)))
        got = dg.records.record_to_dict(campaign.records[i])
        if got != want:
            diff = {k: (got[k], want[k]) for k in want if got.get(k) != want[k]}
            return f"record {i} differs from its re-run in (got, want) {diff}"
    return None


def check_governed(dg, plain, governed) -> str | None:
    base, safe = harmful_rate(dg, plain), harmful_rate(dg, governed)
    if safe > base / HARMFUL_CUT:
        return f"governed harmful rate {safe} > {base} / {HARMFUL_CUT}"
    return None


def check_record_file(path: Path, n: int) -> str | None:
    lines = path.read_bytes().count(b"\n")
    if lines != n:
        return f"{path.name} has {lines} lines, want {n}"
    return None


def load_points(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Scenario coordinates and mode codes of a record file, parsed here."""
    xs, modes = [], []
    for line in path.read_text().splitlines():
        if line.strip():
            d = json.loads(line)
            xs.append(d["scenario"])
            modes.append(MODES.index(d["mode"]))
    return np.array(xs, dtype=float), np.array(modes)


def oracle_metrics(dg, xs, modes, grid, cond) -> np.ndarray:
    """Post-stratified metrics sum_r w_r p_r, with uncovered regions dropped.

    w comes from ``ConditionSet.region_mass_vector``; p from ``np.bincount``
    over ``partition_indices``.
    """
    idx = dg.domain.partition_indices(grid, cond.space, xs)
    keys = np.ravel_multi_index(idx.T, grid.bins)
    n_regions = int(np.prod(grid.bins))
    counts = np.stack([np.bincount(keys[modes == j], minlength=n_regions)
                       for j in range(len(MODES))], axis=1)
    n = counts.sum(axis=1)
    w = cond.region_mass_vector(grid)
    w = np.where((w > 0) & (n == 0), 0.0, w)
    w = w / w.sum()
    return w @ (counts / np.maximum(n, 1)[:, None])


def check_report(path: Path, expected: np.ndarray) -> str | None:
    doc = json.loads(path.read_text())
    got = np.array([doc[m] for m in METRICS], dtype=float)
    if not np.all(np.abs(got - expected) <= REPORT_TOL):
        return f"{path.name}: metrics {got.tolist()} != oracle {expected.tolist()}"
    return None


def tree_digest(root: Path) -> dict[str, str]:
    """sha256 of every file under root, keyed by its relative path."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_tree(reference: dict[str, str], digest: dict[str, str]) -> str | None:
    if digest == reference:
        return None
    changed = sorted(k for k in reference.keys() | digest.keys()
                     if reference.get(k) != digest.get(k))
    return f"output tree differs from the first run in {changed[:3]}"


def check_summary(summary: dict) -> str | None:
    ratio = summary["safety"]["harmful_ratio"]
    if ratio > 1 / HARMFUL_CUT:
        return f"harmful_ratio {ratio} > {1 / HARMFUL_CUT}"
    return None
