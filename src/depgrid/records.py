"""File formats: condition documents, scenario/record JSON Lines, reports,
and campaign manifests.

All writes are atomic (temp file then rename). Floats are serialized with
repr-level precision, so every format round-trips losslessly.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from .domain import (
    ClippedGaussian,
    ConditionSet,
    Dimension,
    DomainSpace,
    PartitionGrid,
    Region,
    Scenario,
    Uniform,
)
from .errors import ConfigError, DataError, OutOfDomain
from .estimator import (
    BehaviorMode,
    DependabilityReport,
    MetricDeltas,
    RegionBreakdown,
    TestCampaign,
    TrialRecord,
)
from .simulator import EnvConfig


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def file_sha256(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_text(path: str | Path) -> str:
    """A data file's text; a missing or unreadable file raises DataError."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Condition documents
# ---------------------------------------------------------------------------

def _marginal_to_dict(m) -> dict:
    return {"kind": m.kind, **m.params()}


def _marginal_from_dict(d: dict):
    kind = d.get("kind")
    if kind == "uniform":
        return Uniform(float(d["a"]), float(d["b"]))
    if kind == "clipped_gaussian":
        return ClippedGaussian(float(d["mu"]), float(d["sigma"]))
    raise ConfigError(f"unknown marginal kind {kind!r}")


def env_to_dict(env: EnvConfig) -> dict:
    return {
        "episode_seconds": env.episode_seconds,
        "step_inches": env.step_inches,
        "robot_bounds": list(env.robot_bounds),
        "danger_height": env.danger_height,
        "obstacle_spawn_offset": env.obstacle_spawn_offset,
        "obstacle_width": env.obstacle_width,
        "noise_sigma_speed": env.noise_sigma_speed,
        "noise_sigma_obstacle_pos": env.noise_sigma_obstacle_pos,
        "noise_sigma_goal": env.noise_sigma_goal,
    }


def env_from_dict(d: dict) -> EnvConfig:
    return EnvConfig(
        episode_seconds=int(d["episode_seconds"]),
        step_inches=float(d["step_inches"]),
        robot_bounds=tuple(float(b) for b in d["robot_bounds"]),
        danger_height=float(d["danger_height"]),
        obstacle_spawn_offset=float(d["obstacle_spawn_offset"]),
        obstacle_width=float(d["obstacle_width"]),
        noise_sigma_speed=float(d["noise_sigma_speed"]),
        noise_sigma_obstacle_pos=float(d["noise_sigma_obstacle_pos"]),
        noise_sigma_goal=float(d["noise_sigma_goal"]),
    )


def condition_document(cond: ConditionSet, grid: PartitionGrid, seed: int, *,
                       env: EnvConfig | None = None,
                       policy: dict | None = None) -> dict:
    """Self-contained JSON document for one condition set.

    Carries the domain, the per-dimension marginals, the grid bin counts, and
    the sampling seed; optionally the environment and policy sections.
    """
    doc: dict[str, Any] = {
        "name": cond.name,
        "domain": [
            {"name": d.name, "min": d.min, "max": d.max, "unit": d.unit}
            for d in cond.space.dims
        ],
        "marginals": {
            d.name: _marginal_to_dict(m)
            for d, m in zip(cond.space.dims, cond.marginals)
        },
        "grid": {"bins": list(grid.bins)},
        "seed": seed,
    }
    if env is not None:
        doc["env"] = env_to_dict(env)
    if policy is not None:
        doc["policy"] = policy
    return doc


def parse_condition_document(doc: dict) -> tuple[ConditionSet, PartitionGrid, int]:
    try:
        dims = tuple(
            Dimension(d["name"], float(d["min"]), float(d["max"]),
                      str(d.get("unit", "")))
            for d in doc["domain"]
        )
        space = DomainSpace(dims)
        marginals = tuple(
            _marginal_from_dict(doc["marginals"][d.name]) for d in dims
        )
        cond = ConditionSet(str(doc["name"]), space, marginals)
        grid = PartitionGrid(tuple(int(b) for b in doc["grid"]["bins"]))
        seed = int(doc["seed"])
    except KeyError as e:
        raise ConfigError(f"condition document missing key {e}") from None
    except (ValueError, TypeError, AttributeError) as e:
        raise ConfigError(f"malformed condition document: {e}") from None
    return cond, grid, seed


def load_condition_file(path: str | Path) -> tuple[ConditionSet, PartitionGrid, int, dict]:
    """Parse a condition document file; returns (condition, grid, seed, doc)."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}, col {e.colno}: {e.msg}") from None
    except OSError as e:
        raise ConfigError(f"{path}: {e}") from None
    cond, grid, seed = parse_condition_document(doc)
    return cond, grid, seed, doc


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Scenario and trial-record JSON Lines
# ---------------------------------------------------------------------------

def write_scenarios(path: str | Path, scenarios: Iterable[Scenario]) -> None:
    lines = [json.dumps(list(s.values)) for s in scenarios]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def _finite_scenario(values) -> Scenario:
    """A Scenario from JSON values; NaN or infinity raises OutOfDomain."""
    x = Scenario(tuple(float(v) for v in values))
    if not all(math.isfinite(v) for v in x.values):
        raise OutOfDomain(f"non-finite scenario coordinate in {list(x.values)}")
    return x


def read_scenarios(path: str | Path) -> list[Scenario]:
    out = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(_finite_scenario(json.loads(line)))
        except (ValueError, TypeError) as e:
            raise DataError(f"{path}: line {lineno}: {e}") from None
        except DataError as e:
            raise type(e)(f"{path}: line {lineno}: {e}") from None
    return out


def record_to_dict(r: TrialRecord) -> dict:
    return {
        "scenario": list(r.scenario.values),
        "mode": r.mode.value,
        "seed": r.seed,
        "steps": r.steps,
        "final_position": r.final_position,
        "collision_time": r.collision_time,
    }


def record_from_dict(d: dict) -> TrialRecord:
    final_position = float(d["final_position"])
    if not math.isfinite(final_position):
        raise DataError(f"non-finite final_position {final_position}")
    return TrialRecord(
        scenario=_finite_scenario(d["scenario"]),
        mode=BehaviorMode(d["mode"]),
        seed=int(d["seed"]),
        steps=int(d["steps"]),
        final_position=final_position,
        collision_time=None if d.get("collision_time") is None
        else float(d["collision_time"]),
    )


def write_records(path: str | Path, campaign: TestCampaign) -> None:
    lines = [json.dumps(record_to_dict(r)) for r in campaign.records]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


def read_records(path: str | Path, *, condition_name: str = "",
                 master_seed: int = 0) -> TestCampaign:
    records = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(record_from_dict(json.loads(line)))
        except (ValueError, TypeError, KeyError) as e:
            raise DataError(f"{path}: line {lineno}: {e}") from None
        except DataError as e:
            raise type(e)(f"{path}: line {lineno}: {e}") from None
    return TestCampaign(condition_name=condition_name, records=tuple(records),
                        master_seed=master_seed)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def report_to_dict(report: DependabilityReport) -> dict:
    doc: dict[str, Any] = {
        "condition": report.condition_name,
        "dependability": report.dependability,
        "task_undependability": report.task_undependability,
        "harmful_undependability": report.harmful_undependability,
        "renormalized": report.renormalized,
        "dropped_mass": report.dropped_mass,
        "dropped_regions": [list(r.index) for r in report.dropped_regions],
        "per_region": [
            {
                "index": list(b.region.index),
                "bounds": [list(bb) for bb in b.region.bounds],
                "mass": b.mass,
                "n_total": b.n_total,
                "n_success": b.n_success,
                "n_task_fail": b.n_task_fail,
                "n_harmful": b.n_harmful,
            }
            for b in report.per_region
        ],
    }
    return doc


def report_from_dict(doc: dict) -> DependabilityReport:
    rows = doc.get("per_region", [])
    # per_region always covers the full grid, so bin counts per dimension are
    # one past the largest index seen; that restores the closed-last-bin flag.
    bins: tuple[int, ...] = ()
    if rows:
        ndim = len(rows[0]["index"])
        bins = tuple(1 + max(int(r["index"][d]) for r in rows)
                     for d in range(ndim))

    def region_from(index: list[int], bounds: list[list[float]]) -> Region:
        idx = tuple(int(i) for i in index)
        return Region(
            index=idx,
            bounds=tuple((float(lo), float(hi)) for lo, hi in bounds),
            is_first=tuple(i == 0 for i in idx),
            is_last=tuple(i == bins[d] - 1 for d, i in enumerate(idx)),
        )

    regions_by_index: dict[tuple[int, ...], Region] = {}
    per_region = []
    for b in rows:
        region = region_from(b["index"], b["bounds"])
        regions_by_index[region.index] = region
        per_region.append(RegionBreakdown(
            region=region,
            mass=float(b["mass"]),
            n_total=int(b["n_total"]),
            n_success=int(b["n_success"]),
            n_task_fail=int(b["n_task_fail"]),
            n_harmful=int(b["n_harmful"]),
        ))
    dropped = tuple(
        regions_by_index[tuple(int(i) for i in idx)]
        for idx in doc.get("dropped_regions", [])
    )
    return DependabilityReport(
        condition_name=str(doc.get("condition", "")),
        dependability=float(doc["dependability"]),
        task_undependability=float(doc["task_undependability"]),
        harmful_undependability=float(doc["harmful_undependability"]),
        per_region=tuple(per_region),
        renormalized=bool(doc.get("renormalized", False)),
        dropped_mass=float(doc.get("dropped_mass", 0.0)),
        dropped_regions=dropped,
    )


def write_report(path: str | Path, report: DependabilityReport) -> None:
    atomic_write_text(path, dump_json(report_to_dict(report)))


def read_report(path: str | Path) -> DependabilityReport:
    try:
        doc = json.loads(_read_text(path))
        return report_from_dict(doc)
    except (ValueError, KeyError) as e:
        raise DataError(f"{path}: {e}") from None


def deltas_to_dict(deltas: MetricDeltas) -> dict:
    return deltas.as_dict()


# ---------------------------------------------------------------------------
# Campaign manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignManifest:
    """Everything needed to reproduce a campaign bit for bit.

    Paths are stored relative to the manifest location so identical runs in
    different directories produce identical manifest bytes.
    """

    condition: str
    policy_name: str
    policy_params: dict
    safety: dict | None
    master_seed: int
    n_records: int
    scenarios_path: str
    records_path: str
    config_path: str | None = None
    config_sha256: str | None = None

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "policy": {"name": self.policy_name, "params": self.policy_params},
            "safety": self.safety,
            "master_seed": self.master_seed,
            "n_records": self.n_records,
            "scenarios_path": self.scenarios_path,
            "records_path": self.records_path,
            "config_path": self.config_path,
            "config_sha256": self.config_sha256,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignManifest":
        policy = d.get("policy", {})
        return cls(
            condition=str(d["condition"]),
            policy_name=str(policy.get("name", "scripted")),
            policy_params=dict(policy.get("params", {})),
            safety=d.get("safety"),
            master_seed=int(d["master_seed"]),
            n_records=int(d["n_records"]),
            scenarios_path=str(d["scenarios_path"]),
            records_path=str(d["records_path"]),
            config_path=d.get("config_path"),
            config_sha256=d.get("config_sha256"),
        )


def write_manifest(path: str | Path, manifest: CampaignManifest) -> None:
    atomic_write_text(path, dump_json(manifest.to_dict()))


def read_manifest(path: str | Path) -> CampaignManifest:
    try:
        return CampaignManifest.from_dict(json.loads(_read_text(path)))
    except (ValueError, KeyError) as e:
        raise DataError(f"{path}: {e}") from None
