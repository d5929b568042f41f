"""File formats: condition documents, scenario/record JSON Lines, reports,
and campaign manifests.

All writes are atomic (temp file then rename). Floats are serialized with
repr-level precision, so every format round-trips losslessly.

A record file has one JSON line per record. write_records fills a campaign's
columns into one line template; read_records parses each line on its own,
then builds and checks the columns, naming the line of the first bad record.

A report file holds one row per grid region (64,000 at 40^3). write_report
fills the rows into one fixed template, with per-dimension index and bounds
fragments and the repr of each weight and count, so that only the small
header goes through json.dumps; the bytes equal json.dumps(doc, indent=2) of
the row-per-region document. read_report rebuilds the report's columns from
the rows and refuses rows that do not tile one grid in C order.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .domain import (
    ClippedGaussian,
    ConditionSet,
    Dimension,
    DomainSpace,
    PartitionGrid,
    Scenario,
    Uniform,
    validate_grid,
)
from .errors import ConfigError, DataError, OutOfDomain, check_rows
from .estimator import (
    _MODE_ORDER,
    BehaviorMode,
    DependabilityReport,
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
    return {**asdict(env), "robot_bounds": list(env.robot_bounds)}


def env_from_dict(d: dict) -> EnvConfig:
    """The EnvConfig of an env section, each value cast to its field's type."""
    return EnvConfig(**{
        f.name: tuple(map(float, d[f.name])) if f.name == "robot_bounds"
        else type(f.default)(d[f.name]) for f in fields(EnvConfig)})


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
        validate_grid(grid, space)
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


def _read_json_lines(path: str | Path, build):
    """build(values) for the JSON values of the file's non-blank lines, each
    parsed on its own. Errors name the file and the line of their row."""
    lines, values = [], []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        if line.strip():
            try:
                values.append(json.loads(line))
            except ValueError as e:
                raise DataError(f"{path}: line {lineno}: {e}") from None
            lines.append(lineno)
    try:
        return build(values)
    except DataError as e:
        where = "" if e.row is None else f"line {lines[e.row]}: "
        raise type(e)(f"{path}: {where}{e}") from None
    except OverflowError as e:
        raise DataError(f"{path}: {e}") from None


_NUMBER = (int, float)


def _scenario_array(xs: list) -> np.ndarray:
    """JSON scenarios as an (n, d) float array. Each must be a list of finite
    numbers, as many as the first has; otherwise OutOfDomain."""
    check_rows([type(x) is list and all(type(v) in _NUMBER for v in x)
                for x in xs],
               lambda i: f"a scenario is a list of numbers, got {xs[i]!r}")
    for i, x in enumerate(xs):
        if len(x) != len(xs[0]):
            raise OutOfDomain(f"record {i + 1}: scenario has {len(x)} values, "
                              f"record 1 has {len(xs[0])}")
    a = np.array(xs, dtype=float) if xs else np.empty((0, 0))
    check_rows(np.isfinite(a).all(axis=1),
               lambda i: f"non-finite scenario coordinate in {xs[i]}",
               OutOfDomain)
    return a


def read_scenarios(path: str | Path) -> list[Scenario]:
    return [Scenario(tuple(x))
            for x in _read_json_lines(path, _scenario_array).tolist()]


def record_to_dict(r: TrialRecord) -> dict:
    return {
        "scenario": list(r.scenario.values),
        "mode": r.mode.value,
        "seed": r.seed,
        "steps": r.steps,
        "final_position": r.final_position,
        "collision_time": r.collision_time,
    }


# A record line is json.dumps(record_to_dict(row)) of its row, filled into
# one template from the campaign's columns: the repr of each float and int.
_RECORD_LINE = ('{"scenario": [%s], "mode": "%s", "seed": %d, "steps": %d, '
                '"final_position": %r, "collision_time": %s}\n')
_MODE_CODES = {m.value: m.code for m in _MODE_ORDER}


def write_records(path: str | Path, campaign: TestCampaign) -> None:
    harmful = BehaviorMode.HARMFUL_FAILURE.code
    atomic_write_text(path, "".join(
        _RECORD_LINE % (", ".join(map(repr, x)), _MODE_ORDER[m].value, seed,
                        steps, position,
                        repr(float(steps)) if m == harmful else "null")
        for x, m, seed, steps, position in zip(
            campaign.scenarios.tolist(), campaign.modes.tolist(),
            campaign.seeds, campaign.steps.tolist(),
            campaign.final_position.tolist())))


def _is_record(d) -> bool:
    """Whether a parsed line has a record's fields with their JSON types, a
    finite final_position, and a collision_time equal to steps for a
    harmful failure and null otherwise."""
    if not (type(d) is dict and type(d.get("mode")) is str
            and d["mode"] in _MODE_CODES and "scenario" in d
            and type(d.get("seed")) is int and type(d.get("steps")) is int
            and type(d.get("final_position")) in _NUMBER
            and math.isfinite(d["final_position"])):
        return False
    collision = d.get("collision_time")
    if d["mode"] == BehaviorMode.HARMFUL_FAILURE.value:
        return type(collision) in _NUMBER and collision == d["steps"]
    return collision is None


def _campaign_from_dicts(docs: list, condition_name: str,
                         master_seed: int) -> TestCampaign:
    check_rows([_is_record(d) for d in docs],
               lambda i: f"a record needs a known mode, integer seed and "
                         f"steps, a finite number final_position, a "
                         f"scenario, and collision_time equal to steps for a "
                         f"harmful failure and null otherwise; got {docs[i]!r}")
    return TestCampaign(
        condition_name, _scenario_array([d["scenario"] for d in docs]),
        np.array([_MODE_CODES[d["mode"]] for d in docs], dtype=np.int8),
        tuple(d["seed"] for d in docs),
        np.array([d["steps"] for d in docs], dtype=np.int64),
        np.array([d["final_position"] for d in docs], dtype=float),
        master_seed)


def read_records(path: str | Path, *, condition_name: str = "",
                 master_seed: int = 0) -> TestCampaign:
    """The campaign in a record file. Each line is parsed on its own, then
    the columns are built and checked together; an error names the file and
    the line of the first bad record."""
    return _read_json_lines(path, lambda docs: _campaign_from_dicts(
        docs, condition_name, master_seed))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

# A report file is the text of json.dumps(doc, indent=2) + "\n" for
#   {"condition", the three metrics, "renormalized", "dropped_mass",
#    "dropped_regions": [index, ...],
#    "per_region": [{"index", "bounds", "mass", "n_total", "n_success",
#                    "n_task_fail", "n_harmful"}, ...]}
# with per_region in C order over the whole grid. Only the scalar header goes
# through json.dumps; the two lists, up to one entry per region, are filled
# into fixed templates of that exact layout from per-dimension fragments and
# the repr of each weight and count.

_PER_REGION_ROW = (
    '    {\n      "index": [\n%s\n      ],\n      "bounds": [\n%s\n      ],\n'
    '      "mass": %r,\n      "n_total": %d,\n      "n_success": %d,\n'
    '      "n_task_fail": %d,\n      "n_harmful": %d\n    }'
)

_BOUNDS_ITEM = "        [\n          %r,\n          %r\n        ]"


def _json_list(items: list[str]) -> str:
    """A top-level key's list, its items already laid out at depth 2."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _c_order(fragments: list[list[str]]) -> list[str]:
    """Per-dimension fragments joined for every index in C order."""
    out = fragments[-1]
    for col in reversed(fragments[:-1]):
        out = [a + ",\n" + b for a in col for b in out]
    return out


def write_report(path: str | Path, report: DependabilityReport) -> None:
    """Write the report file (see the layout above)."""
    header = json.dumps({
        "condition": report.condition_name,
        "dependability": report.dependability,
        "task_undependability": report.task_undependability,
        "harmful_undependability": report.harmful_undependability,
        "renormalized": report.renormalized,
        "dropped_mass": report.dropped_mass,
    }, indent=2)
    index_item = "    [\n" + ",\n".join(["      %d"] * len(report.bins)) + "\n    ]"
    dropped = [index_item % idx for idx in report.dropped_regions]
    rows = []
    if report.edges:
        index = _c_order([[f"        {i}" for i in range(len(e) - 1)]
                          for e in report.edges])
        bounds = _c_order([[_BOUNDS_ITEM % (lo, hi) for lo, hi in zip(e, e[1:])]
                           for e in report.edges])
        rows = [_PER_REGION_ROW % (i, b, w, ns + nt + nh, ns, nt, nh)
                for i, b, w, (ns, nt, nh) in zip(index, bounds,
                                                 report.weights.tolist(),
                                                 report.counts.tolist())]
    atomic_write_text(path, header[:-2]
                      + ',\n  "dropped_regions": ' + _json_list(dropped)
                      + ',\n  "per_region": ' + _json_list(rows) + "\n}\n")


def _table_from_rows(rows: list) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(edges, weights, counts) from per_region rows that tile one grid in
    C order with consistent bounds; anything else raises DataError."""
    if not rows:
        return (), np.zeros(0), np.zeros((0, 3), dtype=np.int64)
    index = np.array([r["index"] for r in rows])
    if (index.ndim != 2 or not index.shape[1]
            or not np.issubdtype(index.dtype, np.integer)):
        raise DataError("per_region indices must be lists of integers")
    bins = tuple(int(b) for b in index.max(axis=0) + 1)
    if (len(rows) != math.prod(bins) or not np.array_equal(
            index, np.indices(bins).reshape(len(bins), -1).T)):
        raise DataError(f"per_region rows do not tile a {bins} grid in C order")
    bounds = np.array([r["bounds"] for r in rows], dtype=float)
    if (bounds.shape != (len(rows), len(bins), 2)
            or not np.isfinite(bounds).all()):
        raise DataError("per_region bounds must be one finite [lo, hi] per "
                        "dimension")
    edges = []
    for d, b in enumerate(bins):
        first = np.arange(b) * (len(rows) // math.prod(bins[:d + 1]))
        e = np.append(bounds[first, d, 0], bounds[first[-1], d, 1])
        if not (np.array_equal(bounds[:, d, 0], e[index[:, d]])
                and np.array_equal(bounds[:, d, 1], e[index[:, d] + 1])):
            raise DataError(f"per_region bounds of dimension {d} disagree "
                            f"between rows")
        edges.append(tuple(e.tolist()))
    weights = np.array([r["mass"] for r in rows], dtype=float)
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise DataError("per_region masses must be finite and >= 0")
    counts = np.array([[r["n_success"], r["n_task_fail"], r["n_harmful"]]
                       for r in rows], dtype=np.int64)
    n_total = np.array([r["n_total"] for r in rows], dtype=np.int64)
    if (counts < 0).any() or not np.array_equal(counts.sum(axis=1), n_total):
        raise DataError("per_region counts must be >= 0 and n_total their sum")
    return tuple(edges), weights, counts


def report_from_dict(doc: dict) -> DependabilityReport:
    edges, weights, counts = _table_from_rows(doc.get("per_region", []))
    dropped = tuple(tuple(int(i) for i in idx)
                    for idx in doc.get("dropped_regions", []))
    bins = tuple(len(e) - 1 for e in edges)
    for idx in dropped:
        if len(idx) != len(bins) or not all(0 <= i < b for i, b in zip(idx, bins)):
            raise DataError(f"dropped region {list(idx)} is not in the "
                            f"per_region grid {bins}")
    return DependabilityReport(
        condition_name=str(doc.get("condition", "")),
        dependability=float(doc["dependability"]),
        task_undependability=float(doc["task_undependability"]),
        harmful_undependability=float(doc["harmful_undependability"]),
        edges=edges,
        weights=weights,
        counts=counts,
        renormalized=bool(doc.get("renormalized", False)),
        dropped_mass=float(doc.get("dropped_mass", 0.0)),
        dropped_regions=dropped,
    )


def read_report(path: str | Path) -> DependabilityReport:
    try:
        return report_from_dict(json.loads(_read_text(path)))
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise DataError(f"{path}: {e}") from None
    except DataError as e:
        raise type(e)(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Campaign manifests
# ---------------------------------------------------------------------------

def _optional_str(value) -> str | None:
    return None if value is None else str(value)


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
        master_seed, n_records = d["master_seed"], d["n_records"]
        for key, v in (("master_seed", master_seed), ("n_records", n_records)):
            if type(v) is not int or v < 0:
                raise ValueError(f"{key} must be a non-negative JSON integer, "
                                 f"got {v!r}")
        return cls(
            condition=str(d["condition"]),
            policy_name=str(policy.get("name", "scripted")),
            policy_params=dict(policy.get("params", {})),
            safety=d.get("safety"),
            master_seed=master_seed,
            n_records=n_records,
            scenarios_path=str(d["scenarios_path"]),
            records_path=str(d["records_path"]),
            config_path=_optional_str(d.get("config_path")),
            config_sha256=_optional_str(d.get("config_sha256")),
        )


def write_manifest(path: str | Path, manifest: CampaignManifest) -> None:
    atomic_write_text(path, dump_json(manifest.to_dict()))


def read_manifest(path: str | Path) -> CampaignManifest:
    try:
        return CampaignManifest.from_dict(json.loads(_read_text(path)))
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise DataError(f"{path}: {e}") from None
