"""File formats: condition documents, scenario/record JSON Lines, reports,
and campaign files.

All writes are atomic (temp file then rename). Floats are serialized with
repr-level precision, so every format round-trips losslessly.

A condition document holds a condition's domain, marginals, grid and
sampling seed, and its env and policy sections; parse_condition_document
reads all of it, and any malformed part raises ConfigError. Each config
dataclass has one JSON form: _as_json writes its fields, and _from_json
reads an object of exactly those fields, each checked by its type.

A scenario file has one JSON list of coordinates per line, one line per row
of an (n, d) scenario array. scenario_texts formats the coordinates of all
rows with one repr call; write_scenarios writes each row's text as one line,
and read_scenarios returns the checked array.

A record file has one JSON line per record: its scenario, mode, steps and
final position. The episode's seed is not written: it is derived from the
master seed in the campaign's manifest. write_records fills a campaign's
columns into one line template, _RECORD_LINE: the scenario texts, given by
the caller or formatted as above, the mode names looked up by code, and the
other columns whole. So a scenario set that several campaigns ran is
formatted once. read_records has two readers that give the same campaign. A
file as write_records writes it, lines of the template's grammar and nothing
else, with the first line's coordinate count d on every line and d at most
_MAX_COORDINATES, is split by one compiled regular expression,
_record_grammar(d), into its tokens, one per coordinate and per other field;
the columns are converted from them and checked whole. Any other file (blank
lines, CRLF endings, lines of another coordinate count and more coordinates
than the cap included), or one whose columns fail a check, goes to the
reference reader: it parses each line on its own with json.loads, then
builds and checks the columns. Every error comes from the reference reader,
and names the line of the first bad record. A file's rows are its non-blank
lines, and naming_line turns a row into its line for every error, the
command line's domain checks included.

A report file (format_version 2) holds the same columns as the in-memory
report: a small scalar header, then the bin edges once, and the masses, the
three outcome counts and the dropped region numbers as one C-order list
each, every list the text json.dumps writes for it. The mass and count
lists are written with each distinct value formatted once. read_report
checks the JSON type, length and range of each column before numpy
converts it, and refuses any file of another format_version, so there is
one reader.

A campaign's files, written by write_campaign, are its record file and a
manifest beside it, a JSON object that holds the env, policy params, safety
function and master seed the campaign ran and names its record file. The
record file is the only copy of the campaign's scenarios: read_manifest
reads the three sections as objects and checks them against each other, and
run --manifest runs the record file's scenario column again, from anywhere
and with no other file.
"""

from __future__ import annotations

import errno
import json
import math
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any

import numpy as np

from .domain import (
    ClippedGaussian,
    ConditionSet,
    Dimension,
    DomainSpace,
    PartitionGrid,
    Uniform,
    validate_grid,
)
from .errors import ConfigError, DataError, OutOfDomain, check_rows
from .estimator import (
    _MODE_ORDER,
    DependabilityReport,
    TestCampaign,
    TrialRecord,
)
from .policies import ScriptedPolicyParams
from .safety import SafetyFunction
from .simulator import EnvConfig


@contextmanager
def writing(path: str | Path):
    """An OSError raised inside is raised again as a ConfigError naming
    path."""
    try:
        yield
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from None


def atomic_write_text(path: str | Path, text: str) -> None:
    """atomic_write_texts of the one file."""
    atomic_write_texts([(path, text)])


def atomic_write_texts(texts: list) -> None:
    """Write each text of a list of (path, text) pairs to a temp file beside
    its path, then rename each to its path. Two paths that name one file
    raise ConfigError before anything is written. An OSError raises
    ConfigError naming the path and leaves no temp file; before the renames,
    as a path that is a directory or under a regular file fails, it leaves
    no file written. Each file gets mode 0o666 less the umask, as open()
    would give it, not mkstemp's 0o600."""
    umask = os.umask(0)
    os.umask(umask)
    real = [os.path.realpath(path) for path, _ in texts]
    for i, r in enumerate(real):
        if r in real[:i]:
            raise ConfigError(f"cannot write {texts[real.index(r)][0]} and "
                              f"{texts[i][0]}: they name one file")
    staged = []
    try:
        for path, text in texts:
            path = Path(path)
            with writing(path):
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR,
                                            os.strerror(errno.EISDIR))
                path.parent.mkdir(parents=True, exist_ok=True)
                fd, tmp = tempfile.mkstemp(dir=path.parent,
                                           prefix=f".{path.name}.")
                staged.append((tmp, path))
                os.fchmod(fd, 0o666 & ~umask)
                with os.fdopen(fd, "w") as f:
                    f.write(text)
        for tmp, path in staged:
            with writing(path):
                os.replace(tmp, path)
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def _read_text(path: str | Path) -> str:
    """A data file's text; a missing or unreadable file raises DataError."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Condition documents
# ---------------------------------------------------------------------------

_NUMBER = (int, float)


def _json_int(value, name: str) -> int:
    """value, checked to be a JSON integer, which int() would not check."""
    if type(value) is not int:
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _json_str(value, name: str) -> str:
    """value, checked to be a JSON string, which str() would not check."""
    if type(value) is not str:
        raise ValueError(f"{name} must be a JSON string, got {value!r}")
    return value


def _json_number(value, name: str) -> float:
    """value as a finite float, checked to be a JSON number: float() would
    also take a bool or a numeric string, and json reads the NaN and
    Infinity tokens, and 1e400, as floats."""
    if type(value) not in _NUMBER:
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{name} {value} is too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite JSON number, got {value!r}")
    return number


def _json_pair(value, name: str) -> tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"{name} must be a list of two JSON numbers")
    return (_json_number(value[0], name), _json_number(value[1], name))


_FIELD_READERS = {"int": _json_int, "float": _json_number,
                  "tuple[float, float]": _json_pair}
_MARGINALS = {m.kind: m for m in (Uniform, ClippedGaussian)}


def _as_json(config) -> dict:
    """A config dataclass's JSON form: its fields in order, tuples as lists."""
    return {k: list(v) if type(v) is tuple else v
            for k, v in asdict(config).items()}


def _from_json(cls, value):
    """The cls of a JSON object of exactly its fields, each read by the
    _FIELD_READERS entry of its annotation, a string under PEP 563."""
    types = {f.name: f.type for f in fields(cls)}
    if type(value) is not dict or value.keys() != types.keys():
        raise ValueError(f"{cls.__name__} must be a JSON object of exactly "
                         f"the keys {', '.join(types)}, got {value!r}")
    return cls(**{k: _FIELD_READERS[t](value[k], k) for k, t in types.items()})


def _marginal_from_dict(d: dict):
    kind = d.get("kind")
    if kind not in _MARGINALS:
        raise ConfigError(f"unknown marginal kind {kind!r}")
    return _from_json(_MARGINALS[kind],
                      {k: v for k, v in d.items() if k != "kind"})


def condition_document(cond: ConditionSet, grid: PartitionGrid, seed: int, *,
                       env: EnvConfig | None = None,
                       params: ScriptedPolicyParams | None = None) -> dict:
    """The JSON document of a condition set, its grid and sampling seed, and
    optionally its env and policy params, each config object as _as_json."""
    doc: dict[str, Any] = {
        "name": cond.name,
        "domain": [_as_json(d) for d in cond.space.dims],
        "marginals": {
            d.name: {"kind": m.kind, **_as_json(m)}
            for d, m in zip(cond.space.dims, cond.marginals)
        },
        "grid": {"bins": list(grid.bins)},
        "seed": seed,
    }
    if env is not None:
        doc["env"] = _as_json(env)
    if params is not None:
        doc["policy"] = {"name": "scripted", "params": _as_json(params)}
    return doc


def _policy_params(section: dict) -> ScriptedPolicyParams:
    """A policy section's params, the default ones when it has none."""
    if section.get("name", "scripted") != "scripted":
        raise ValueError(f"unknown policy {section['name']!r}; "
                         f"available: scripted")
    return (_from_json(ScriptedPolicyParams, section["params"])
            if "params" in section else ScriptedPolicyParams())


def parse_condition_document(doc: dict) -> tuple[
        ConditionSet, PartitionGrid, int, EnvConfig, ScriptedPolicyParams]:
    """(condition, grid, seed, env, params) of a condition document. The
    condition's name and each dimension's name and unit (optional) must be
    JSON strings. Each config section is read by _from_json; a missing env,
    policy or params section gives the default one, and the params must fit
    the env."""
    try:
        dims = tuple(Dimension(_json_str(d["name"], "a dimension name"),
                               _json_number(d["min"], "min"),
                               _json_number(d["max"], "max"),
                               _json_str(d.get("unit", ""), "unit"))
                     for d in doc["domain"])
        space = DomainSpace(dims)
        marginals = tuple(_marginal_from_dict(doc["marginals"][d.name])
                          for d in dims)
        cond = ConditionSet(_json_str(doc["name"], "name"), space, marginals)
        grid = PartitionGrid(tuple(_json_int(b, "a bin count")
                                   for b in doc["grid"]["bins"]))
        validate_grid(grid, space)
        seed = _json_int(doc["seed"], "seed")
        env = _from_json(EnvConfig, doc["env"]) if "env" in doc else EnvConfig()
        params = _policy_params(doc.get("policy", {}))
        params.check_env(env)
    except KeyError as e:
        raise ConfigError(f"condition document missing key {e}") from None
    except (ValueError, TypeError, AttributeError) as e:
        raise ConfigError(f"malformed condition document: {e}") from None
    return cond, grid, seed, env, params


def load_condition_file(path: str | Path) -> tuple[
        ConditionSet, PartitionGrid, int, EnvConfig, ScriptedPolicyParams]:
    """Parse a condition document file (see parse_condition_document)."""
    try:
        return parse_condition_document(json.loads(Path(path).read_text()))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}, col {e.colno}: {e.msg}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from None
    except ConfigError as e:
        raise type(e)(f"{path}: {e}") from None


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Scenario and trial-record JSON Lines
# ---------------------------------------------------------------------------

def scenario_texts(scenarios: np.ndarray) -> list[str]:
    """The JSON text of each row of an (n, d) scenario array without its
    brackets: the reprs of its coordinates joined by ", ", as json.dumps
    writes them. The whole array is formatted by one repr call."""
    xs = np.asarray(scenarios, dtype=float)
    if not len(xs):
        return []
    # no float's repr holds "], [", so it splits the rows apart
    return repr(xs.tolist())[2:-2].split("], [")


def write_scenarios(path: str | Path, scenarios: np.ndarray) -> None:
    """Write each row of an (n, d) scenario array as one JSON list line."""
    atomic_write_text(path, "".join(f"[{x}]\n"
                                    for x in scenario_texts(scenarios)))


def _rows(text: str) -> list[tuple[int, str]]:
    """The rows of a JSON Lines file's text: its non-blank lines, each with
    its line number counted from 1. Row i is the (i + 1)-th of them."""
    return [(lineno, line)
            for lineno, line in enumerate(text.splitlines(), start=1)
            if line.strip()]


@contextmanager
def naming_line(path: str | Path):
    """A DataError raised inside is raised again naming the JSON Lines file,
    and the line of its ``row`` when it carries one: ``path: line N: ...``.
    The file is read again to find the line, only then."""
    try:
        yield
    except DataError as e:
        where = ""
        if e.row is not None:
            lineno, _ = _rows(_read_text(path))[e.row]
            where = f"line {lineno}: "
        raise type(e)(f"{path}: {where}{e}") from None


def _read_json_lines(path: str | Path, text: str, build):
    """build(values) for the JSON values of the rows of a file's text, each
    parsed on its own. Errors name the file and the line of their row."""
    values = []
    for lineno, line in _rows(text):
        try:
            values.append(json.loads(line))
        except ValueError as e:
            raise DataError(f"{path}: line {lineno}: {e}") from None
    with naming_line(path):
        try:
            return build(values)
        except OverflowError as e:
            raise DataError(str(e)) from None


def _scenario_array(xs: list) -> np.ndarray:
    """JSON scenarios as an (n, d) float array. Each must be a list of finite
    numbers, as many as the first has; otherwise OutOfDomain."""
    check_rows([type(x) is list and all(type(v) in _NUMBER for v in x)
                for x in xs],
               lambda i: f"a scenario is a list of numbers, got {xs[i]!r}")
    check_rows([len(x) == len(xs[0]) for x in xs],
               lambda i: f"scenario has {len(xs[i])} values, the first "
                         f"scenario has {len(xs[0])}", OutOfDomain)
    a = np.array(xs, dtype=float) if xs else np.empty((0, 0))
    check_rows(np.isfinite(a).all(axis=1),
               lambda i: f"non-finite scenario coordinate in {xs[i]}",
               OutOfDomain)
    return a


def read_scenarios(path: str | Path) -> np.ndarray:
    """The (n, d) scenario array of a scenario file (see _scenario_array)."""
    return _read_json_lines(path, _read_text(path), _scenario_array)


def record_to_dict(r: TrialRecord) -> dict:
    return {
        "scenario": list(r.scenario),
        "mode": r.mode.value,
        "steps": r.steps,
        "final_position": r.final_position,
    }


# A record line is json.dumps(record_to_dict(row)) of its row, filled into
# one template from the campaign's columns: the repr of each float and int.
_RECORD_LINE = ('{"scenario": [%s], "mode": "%s", "steps": %d, '
                '"final_position": %r}\n')
_MODE_CODES = {m.value: m.code for m in _MODE_ORDER}
_MODE_NAMES = np.array([m.value for m in _MODE_ORDER], dtype=object)


def write_records(path: str | Path, campaign: TestCampaign,
                  texts: list[str] | None = None) -> None:
    """Write the record file of a campaign, one _RECORD_LINE per row.

    ``texts`` are the scenario_texts of the campaign's scenarios, formatted
    once by a caller that writes several campaigns of one scenario set;
    they are computed when not given. Texts of another length than the
    campaign raise ConfigError, and no file is written."""
    if texts is None:
        texts = scenario_texts(campaign.scenarios)
    if len(texts) != len(campaign):
        raise ConfigError(f"{len(texts)} scenario texts for a campaign of "
                          f"{len(campaign)} records")
    atomic_write_text(path, "".join(map(_RECORD_LINE.__mod__, zip(
        texts, _MODE_NAMES[campaign.modes].tolist(),
        campaign.steps.tolist(), campaign.final_position.tolist()))))


def _is_record(d) -> bool:
    """Whether a parsed line has a record's fields with their JSON types and
    a finite final_position; other keys, such as the seed and
    collision_time of older files, are ignored."""
    return (type(d) is dict and type(d.get("mode")) is str
            and d["mode"] in _MODE_CODES and "scenario" in d
            and type(d.get("steps")) is int
            and type(d.get("final_position")) in _NUMBER
            and math.isfinite(d["final_position"]))


def _campaign_from_dicts(docs: list) -> TestCampaign:
    check_rows([_is_record(d) for d in docs],
               lambda i: f"a record needs a known mode, integer steps, a "
                         f"finite number final_position and a scenario; "
                         f"got {docs[i]!r}")
    return TestCampaign(
        "", _scenario_array([d["scenario"] for d in docs]),
        np.array([_MODE_CODES[d["mode"]] for d in docs], dtype=np.int8),
        np.array([d["steps"] for d in docs], dtype=np.int64),
        np.array([d["final_position"] for d in docs], dtype=float))


# The grammar of a _RECORD_LINE line of d coordinates, with every token as
# json.dumps writes it, so that each line it matches holds the record
# json.loads would read:
# - a scenario has d coordinates, each its own group, 1 <= d <=
#   _MAX_COORDINATES: compiling the grammar takes time linear in d;
# - a float token is a JSON number with a fraction or an exponent, as repr
#   writes it; [0-9] rather than \d, which also matches digits that float()
#   takes and JSON refuses;
# - steps has at most 15 digits, so np.fromiter puts it in the int64 column
#   without an OverflowError, which the fast path must never raise; a
#   longer one goes to the reference reader, which names its line;
# - every repeat is possessive (Python 3.11): what follows a token never
#   starts with a character the token could have taken, so a match never
#   needs one given back, and a line that cannot match fails without
#   trying shorter tokens.
# _record_grammar(d).split(text) gives one flat list, [separator, d
# coordinates, mode, steps, final_position] per match,
# then the text after the last match. A match holds no newline and ends at
# its line's only "}", so when the first separator is empty, every other one
# is "\n" and the text after the last is "" or "\n", every line of the text
# is one whole match: the text is a file write_records writes, with or
# without its final newline. Blank lines, CRLF endings, two records on one
# line, another coordinate count or any other text leave some other
# separator.
_FLOAT = (r"-?+(?:0|[1-9][0-9]*+)"
          r"(?:\.[0-9]++(?:[eE][-+]?+[0-9]++)?+|[eE][-+]?+[0-9]++)")
_RECORD_GRAMMAR = (
    r'\{"scenario": \[%%s\], "mode": "(%(mode)s)", '
    r'"steps": (0|[1-9][0-9]{0,14}+), "final_position": (%(f)s)\}'
    % {"f": _FLOAT, "mode": "|".join(map(re.escape, _MODE_CODES))})
_MAX_COORDINATES = 16


def _record_grammar(d: int) -> re.Pattern:
    """The compiled grammar of a record line of d coordinates, from re's
    own cache after its first use."""
    return re.compile(_RECORD_GRAMMAR % ", ".join([f"({_FLOAT})"] * d))


def _campaign_from_template(text: str) -> TestCampaign | None:
    """The campaign of a record file's text when it is lines of one
    _record_grammar(d) and nothing else, each ended by "\n" but perhaps the
    last, and the columns pass the checks of _campaign_from_dicts and
    TestCampaign; otherwise None. Never raises. d is the number of commas
    before the text's first "]", plus one: the coordinate count of the first
    line's scenario, if that line is a record. A text with no "]", or with
    more than _MAX_COORDINATES coordinates, is refused before any grammar is
    compiled. One split of the whole text gives the tokens, converted with
    float() and int(), as json does; the columns are checked whole rather
    than line by line."""
    close = text.find("]")
    d = text.count(",", 0, close) + 1 if close >= 0 else 0
    if not 1 <= d <= _MAX_COORDINATES:
        return None
    parts = _record_grammar(d).split(text)
    stride = d + 4
    if not (len(parts) % stride == 1 and len(parts) > 1 and parts[0] == ""
            and set(parts[stride:-1:stride]) <= {"\n"}
            and parts[-1] in ("", "\n")):
        return None
    n = len(parts) // stride
    scenarios = np.empty((n, d))
    for j in range(d):
        scenarios[:, j] = np.fromiter(map(float, parts[1 + j::stride]), float, n)
    mode, steps, position = (parts[k::stride] for k in range(d + 1, stride))
    modes = np.fromiter(map(_MODE_CODES.__getitem__, mode), np.int8, n)
    steps = np.fromiter(map(int, steps), np.int64, n)
    position = np.fromiter(map(float, position), float, n)
    if not (np.isfinite(scenarios).all() and np.isfinite(position).all()):
        return None
    try:
        return TestCampaign("", scenarios, modes, steps, position)
    except DataError:
        return None


def read_records(path: str | Path) -> TestCampaign:
    """The campaign in a record file. A record file holds neither the
    campaign's condition name nor its master seed, so they are "" and 0.

    A file as write_records writes it, with or without its final newline,
    whose lines all have the first line's coordinate count d, 1 <= d <=
    _MAX_COORDINATES, is split by one regular expression, _record_grammar(d),
    and its columns come straight from the tokens (unless its steps have 16
    digits or more). Any other file (blank lines, CRLF endings, other
    spacing, key order or keys, such as the seed and collision_time of older
    files, which are ignored, integer coordinates, escaped strings,
    scenarios of no coordinates, of more than the cap or of another count
    than the first line's, or a bad record) goes to the reference reader:
    each line is parsed on its own with json.loads, then the columns are
    built and checked together. So every error comes from the reference
    reader, and names the file and the line of the first bad record."""
    text = _read_text(path)
    campaign = _campaign_from_template(text)
    if campaign is None:
        campaign = _read_json_lines(path, text, _campaign_from_dicts)
    return campaign


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

# A report file (format_version 2) is the scalar header as json.dumps(...,
# indent=2) lays it out,
#   {"format_version": 2, "condition", the three metrics, "renormalized",
#    "dropped_mass",
# followed by one line per column, each the json.dumps of one list:
#    "dropped_regions": [C-order region number, ...],
#    "edges": [[bin edges of dimension 0], ...],
#    "mass": [...], "n_success": [...], "n_task_fail": [...], "n_harmful": [...]}
# The last four have one entry per region in C order; an observed report has
# no edges and empty columns. A region's total count is not stored: it is
# the sum of its three counts. Each of those four lines is the text
# json.dumps(column.tolist()) would write, but each distinct value of the
# column is formatted once and its text gathered into every entry that holds
# it (see _json_list): a fine grid has tens of thousands of regions and
# only a few dozen distinct masses and counts.

FORMAT_VERSION = 2
_COUNT_KEYS = ("n_success", "n_task_fail", "n_harmful")


def _json_list(column: np.ndarray) -> str:
    """json.dumps(column.tolist()) of a 1-D numeric column, with each
    distinct value formatted once. A float column's values are told apart by
    their bits, so 0.0 and -0.0 keep their own texts. An integer column whose
    values lie in [0, len) looks each up in a table of str(k); any other
    column is formatted whole."""
    if column.dtype.kind == "f":
        bits, inverse = np.unique(
            np.ascontiguousarray(column, dtype=float).view(np.uint64),
            return_inverse=True)
        table = list(map(json.dumps, bits.view(float).tolist()))
    elif (column.dtype.kind in "iu" and column.size
          and column.min() >= 0 and column.max() < column.size):
        inverse = column
        table = list(map(str, range(column.max() + 1)))
    else:
        return json.dumps(column.tolist())
    return "[" + ", ".join(np.array(table, dtype=object)[inverse].tolist()) + "]"


def write_report(path: str | Path, report: DependabilityReport) -> None:
    """Write the report file (see the layout above)."""
    header = json.dumps({
        "format_version": FORMAT_VERSION,
        "condition": report.condition_name,
        "dependability": report.dependability,
        "task_undependability": report.task_undependability,
        "harmful_undependability": report.harmful_undependability,
        "renormalized": report.renormalized,
        "dropped_mass": report.dropped_mass,
    }, indent=2)
    columns = {"dropped_regions": json.dumps(report.dropped_regions.tolist()),
               "edges": json.dumps(report.edges),
               "mass": _json_list(report.weights),
               **{key: _json_list(column)
                  for key, column in zip(_COUNT_KEYS, report.counts.T)}}
    atomic_write_text(path, header[:-2] + "".join(
        f',\n  "{key}": {text}' for key, text in columns.items()) + "\n}\n")


_JSON_TYPES = {"integers": {int}, "numbers": set(_NUMBER), "lists": {list}}
# float() and bool() would take "0.5" or "false" without a word
_HEADER_TYPES = {"condition": (str,), "dependability": _NUMBER,
                 "task_undependability": _NUMBER,
                 "harmful_undependability": _NUMBER, "renormalized": (bool,),
                 "dropped_mass": _NUMBER}


def _typed_list(value, name: str, kind: str, n: int | None = None) -> list:
    """value, checked to be a list of JSON integers, numbers or lists (kind),
    n of them if n is given. The type check comes first, because numpy turns
    a bool, a string or a float into a number of the column's dtype silently."""
    if (type(value) is not list or not set(map(type, value)) <= _JSON_TYPES[kind]
            or n is not None and len(value) != n):
        size = "" if n is None else f"{n} "
        raise DataError(f"{name} must be a list of {size}JSON {kind}")
    return value


def report_from_dict(doc) -> DependabilityReport:
    version = doc.get("format_version") if type(doc) is dict else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError(f"not a report file of format_version {FORMAT_VERSION} "
                        f"(got {version!r}); re-run depgrid predict or depgrid "
                        f"observe to write it")
    for key, types in _HEADER_TYPES.items():
        if type(doc[key]) not in types:
            raise DataError(f"{key} has the wrong JSON type: {doc[key]!r}")
    edges = tuple(tuple(map(float, _typed_list(e, f"edges[{d}]", "numbers")))
                  for d, e in enumerate(_typed_list(doc["edges"], "edges",
                                                    "lists")))
    for d, e in enumerate(edges):
        if len(e) < 2 or not (np.isfinite(e).all() and (np.diff(e) > 0).all()):
            raise DataError(f"edges[{d}] must be two or more finite numbers, "
                            f"strictly increasing")
    n = math.prod(len(e) - 1 for e in edges) if edges else 0
    weights = np.array(_typed_list(doc["mass"], "mass", "numbers", n), dtype=float)
    if not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise DataError("masses must be finite and >= 0")
    counts = np.array([_typed_list(doc[key], key, "integers", n)
                       for key in _COUNT_KEYS], dtype=np.int64).T
    if (counts < 0).any():
        raise DataError("counts must be >= 0")
    dropped = np.array(_typed_list(doc["dropped_regions"], "dropped_regions",
                                   "integers"), dtype=np.int64)
    if dropped.size and not (dropped[0] >= 0 and dropped[-1] < n
                             and (np.diff(dropped) > 0).all()):
        raise DataError(f"dropped_regions must be distinct region numbers in "
                        f"[0, {n}), in increasing order")
    return DependabilityReport(
        condition_name=doc["condition"],
        dependability=float(doc["dependability"]),
        task_undependability=float(doc["task_undependability"]),
        harmful_undependability=float(doc["harmful_undependability"]),
        edges=edges,
        weights=weights,
        counts=counts,
        renormalized=doc["renormalized"],
        dropped_mass=float(doc["dropped_mass"]),
        dropped_regions=dropped,
    )


def read_report(path: str | Path) -> DependabilityReport:
    try:
        return report_from_dict(json.loads(_read_text(path)))
    except KeyError as e:
        raise DataError(f"{path}: missing key {e}") from None
    except (ValueError, TypeError, OverflowError) as e:
        raise DataError(f"{path}: {e}") from None
    except DataError as e:
        raise type(e)(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Campaign manifests
# ---------------------------------------------------------------------------

def write_campaign(path: str | Path, campaign: TestCampaign, env: EnvConfig,
                   params: ScriptedPolicyParams, safety: SafetyFunction | None,
                   texts: list[str] | None = None) -> Path:
    """Write a campaign's records to path, then its manifest beside them, at
    path with the suffix .manifest.json; returns the manifest's path. The
    manifest replays the campaign bit for bit from the record file's
    scenarios. It holds the env, params, safety function and master seed
    the campaign ran, and names the record file by its bare file name, so
    runs in different directories write the same bytes. ``texts`` are
    passed on to write_records."""
    path = Path(path)
    manifest = {
        "condition": campaign.condition_name,
        "env": _as_json(env),
        "policy": {"name": "scripted", "params": _as_json(params)},
        "safety": _as_json(safety) if safety else None,
        "master_seed": campaign.master_seed,
        "n_records": len(campaign),
        "records_path": path.name,
    }
    write_records(path, campaign, texts)
    manifest_path = path.with_suffix(".manifest.json")
    atomic_write_text(manifest_path, dump_json(manifest))
    return manifest_path


def read_manifest(path: str | Path) -> dict:
    """The checked JSON object of a manifest file, its env, policy and
    safety sections read by _from_json as EnvConfig, ScriptedPolicyParams
    and SafetyFunction (None when null or absent). master_seed and n_records
    must be non-negative JSON integers, condition a JSON string, and
    records_path the bare name of a file beside the manifest, as
    write_campaign writes it, so a replay reads and writes nowhere else.
    The params and safety function must fit the env. Other keys, such as the
    scenarios_path and scenarios_sha256 of older manifests, are ignored. Any
    other manifest raises DataError naming it."""
    try:
        manifest = json.loads(_read_text(path))
        for key in ("master_seed", "n_records"):
            if type(manifest[key]) is not int or manifest[key] < 0:
                raise ValueError(f"{key} must be a non-negative JSON integer, "
                                 f"got {manifest[key]!r}")
        _json_str(manifest["condition"], "condition")
        name = _json_str(manifest["records_path"], "records_path")
        if name in ("", "..") or name != Path(name).name or "\0" in name:
            raise ValueError(f"records_path must be a bare file name, "
                             f"got {name!r}")
        env = _from_json(EnvConfig, manifest["env"])
        params = _policy_params(manifest.get("policy", {}))
        params.check_env(env)
        safety = manifest.get("safety")
        if safety is not None:
            safety = _from_json(SafetyFunction, safety)
            safety.check_env(env)
        return {**manifest, "env": env, "policy": params, "safety": safety}
    except KeyError as e:
        raise DataError(f"{path}: missing key {e}") from None
    except (ValueError, TypeError, AttributeError, ConfigError) as e:
        raise DataError(f"{path}: {e}") from None
