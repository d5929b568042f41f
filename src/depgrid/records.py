"""File formats: condition documents, scenario/record JSON Lines, reports,
and campaign files.

All writes are atomic (temp file then rename). Floats are serialized with
repr-level precision, so every format round-trips losslessly. Each file
reader raises every failure, naming the file, as one error class (_reading).
A reader checks only JSON types, and what exists only in its file (a
format_version, a renormalized flag, a manifest's records_path, seeds and
counts); every range, such as a finite float, a record's steps or a
report's sum rule, is checked by the type that holds the value: a config
dataclass, a TestCampaign or a DependabilityReport.

A condition document holds a condition's domain, marginals, grid and
sampling seed, and its env and policy sections; parse_condition_document
reads all of it, and any malformed part raises ConfigError. Each config
dataclass has one JSON form: _as_json writes its fields, and _from_json
reads an object of exactly those fields, each checked by its type.

A scenario file has one JSON list of coordinates per line, one line per row
of an (n, d) scenario array. scenario_texts formats the coordinates with
repr, a column at a time; write_scenarios writes each row's text as one
line, and read_scenarios returns the checked array.

A record file has one JSON line per record: its scenario, mode, steps and
final position. The episode's seed is not written: it is derived from the
master seed in the campaign's manifest. write_records and write_campaign
fill a campaign's columns into one line template, _RECORD_LINE, and
read_records reads a file with one of two readers that give the same
campaign, as the comment on the record grammar (above _FLOAT) says.

A report file (format_version 2) holds the same columns as the in-memory
report: a small scalar header, then the bin edges once, and the masses, the
three outcome counts and the dropped region numbers as one C-order list
each, every list the text json.dumps writes for it. The mass and count
lists are written with each distinct value formatted once. read_report
checks the JSON type of each header value and column before numpy converts
it, and refuses any file of another format_version, so there is one reader,
and any whose renormalized flag disagrees with its dropped regions.

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
from .errors import (ConfigError, DataError, DepgridError, OutOfDomain,
                     check_rows)
from .estimator import (
    _MODE_ORDER,
    METRICS,
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


@contextmanager
def _reading(path: str | Path, error: type[DepgridError]):
    """A missing key, an unreadable file, a JSON value of the wrong type or
    range, or any DepgridError raised inside is raised again as error
    naming path, a file's path or a label such as "condition document"; an
    error of that class keeps its own subclass."""
    try:
        yield
    except KeyError as e:
        raise error(f"{path}: missing key {e}") from None
    except (OSError, ValueError, TypeError, AttributeError, OverflowError,
            DepgridError) as e:
        raise (type(e) if isinstance(e, error) else error)(
            f"{path}: {e}") from None


def _read_text(path: str | Path) -> str:
    """A data file's text; a missing or unreadable file raises DataError."""
    with _reading(path, DataError):
        return Path(path).read_text()


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
    """value as a float, checked to be a JSON number: float() would also
    take a bool or a numeric string. json reads the NaN and Infinity tokens,
    and 1e400, as floats: the type that holds the value refuses them."""
    if type(value) not in _NUMBER:
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} {value} is too large for a float") from None


def _json_pair(value, name: str) -> tuple[float, float]:
    if type(value) is not list or len(value) != 2:
        raise ValueError(f"{name} must be a list of two JSON numbers")
    return (_json_number(value[0], name), _json_number(value[1], name))


_FIELD_READERS = {"int": _json_int, "float": _json_number, "str": _json_str,
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
        doc["policy"] = _policy_json(params)
    return doc


def _policy_json(params: ScriptedPolicyParams) -> dict:
    """The policy section of a condition document or manifest."""
    return {"name": "scripted", "params": _as_json(params)}


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
    condition's name must be a JSON string. Each dimension, whose unit is
    optional, and each config section is read by _from_json; a missing env,
    policy or params section gives the default one, and the params must fit
    the env. Any malformed part raises ConfigError (see _reading)."""
    with _reading("condition document", ConfigError):
        dims = tuple(_from_json(Dimension, {"unit": "", **d})
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
        return cond, grid, seed, env, params


def load_condition_file(path: str | Path) -> tuple[
        ConditionSet, PartitionGrid, int, EnvConfig, ScriptedPolicyParams]:
    """Parse a condition document file (see parse_condition_document)."""
    with _reading(path, ConfigError):
        return parse_condition_document(json.loads(Path(path).read_text()))


def dump_json(obj: Any) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Scenario and trial-record JSON Lines
# ---------------------------------------------------------------------------

def scenario_texts(scenarios: np.ndarray) -> list[str]:
    """The JSON text of each row of an (n, d) scenario array without its
    brackets: the reprs of its coordinates joined by ", ", as json.dumps
    writes them, formatted a column at a time."""
    xs = np.asarray(scenarios, dtype=float)
    if not xs.size:   # no rows, or rows of no coordinates
        return [""] * len(xs)
    columns = [list(map(repr, column)) for column in xs.T.tolist()]
    return list(map(", ".join, zip(*columns)))


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
    """JSON scenarios as an (n, d) float array. Each must be a list of
    numbers, as many as the first has; otherwise OutOfDomain. A non-finite
    coordinate is refused by the array's holder: a TestCampaign, or the
    domain's check_points when the scenarios are run."""
    check_rows([type(x) is list and all(type(v) in _NUMBER for v in x)
                for x in xs],
               lambda i: f"a scenario is a list of numbers, got {xs[i]!r}")
    check_rows([len(x) == len(xs[0]) for x in xs],
               lambda i: f"scenario has {len(xs[i])} values, the first "
                         f"scenario has {len(xs[0])}", OutOfDomain)
    return np.array(xs, dtype=float) if xs else np.empty((0, 0))


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


def write_records(path: str | Path, campaign: TestCampaign) -> None:
    """Write the record file of a campaign, one _RECORD_LINE per row."""
    atomic_write_text(path, _record_text(campaign, None))


def _record_text(campaign: TestCampaign, texts: list[str] | None) -> str:
    """The text of a campaign's record file, one _RECORD_LINE per row.

    ``texts`` are the scenario_texts of the campaign's scenarios, formatted
    once by a caller that writes several campaigns of one scenario set;
    they are computed when None. Texts of another length than the campaign
    raise ConfigError."""
    if texts is None:
        texts = scenario_texts(campaign.scenarios)
    if len(texts) != len(campaign):
        raise ConfigError(f"{len(texts)} scenario texts for a campaign of "
                          f"{len(campaign)} records")
    return "".join(map(_RECORD_LINE.__mod__, zip(
        texts, _MODE_NAMES[campaign.modes].tolist(),
        campaign.steps.tolist(), campaign.final_position.tolist())))


def _is_record(d) -> bool:
    """Whether a parsed line has a record's fields with their JSON types;
    other keys, such as the seed and collision time that older files held,
    are ignored."""
    return (type(d) is dict and type(d.get("mode")) is str
            and d["mode"] in _MODE_CODES and "scenario" in d
            and type(d.get("steps")) is int
            and type(d.get("final_position")) in _NUMBER)


def _campaign_from_dicts(docs: list) -> TestCampaign:
    check_rows([_is_record(d) for d in docs],
               lambda i: f"a record needs a known mode, integer steps, a "
                         f"number final_position and a scenario; got "
                         f"{docs[i]!r}")
    return TestCampaign(
        "", _scenario_array([d["scenario"] for d in docs]),
        np.array([_MODE_CODES[d["mode"]] for d in docs], dtype=np.int8),
        np.array([d["steps"] for d in docs], dtype=np.int64),
        np.array([d["final_position"] for d in docs], dtype=float))


# read_records has two readers that give the same campaign. The fast one,
# _campaign_from_template, reads a file as write_records writes it, with or
# without its final newline, whose lines all have the first line's
# coordinate count d, 1 <= d <= _MAX_COORDINATES: one split of the whole
# text gives each line's coordinate tokens and its tail; each distinct tail
# is numbered once, in the order of its first line, and one _TAIL.split of
# the distinct tails gives their mode, steps and final_position tokens,
# gathered back to one row per line by each line's tail number. Every token
# is converted with float() and int(), as json does, so tails that differ
# in text, such as a final_position of 0.0 and of -0.0, keep their own
# values, and TestCampaign checks the columns whole. Any other file (blank
# lines, CRLF endings, other spacing, key order or keys, such as the seed
# and collision time that older files held, which are ignored, integer
# coordinates, escaped strings, scenarios of no coordinates, of more than
# the cap or of another count than the first line's), or one whose columns
# TestCampaign refuses, goes to the reference reader, _campaign_from_dicts:
# each line is parsed on its own with json.loads, then the columns are
# built and checked together. So every error comes from the reference
# reader, and names the file and the line of the first bad record.
#
# The grammar of a _RECORD_LINE line of d coordinates, with every token as
# json.dumps writes it, so that each line it matches holds the record
# json.loads would read. It has two parts:
# - the head, _record_grammar(d), from "{" to the ", " after the scenario,
#   whose d coordinates, 1 <= d <= _MAX_COORDINATES, are each its own
#   group: compiling it takes time linear in d;
# - the tail, _TAIL, the rest of the line from "mode" on, its newline
#   included: '"mode": "success", "steps": 100, "final_position": 50.0}\n',
#   whose mode, steps and final_position are its three groups. Final
#   positions lie on the step lattice, so a campaign's lines repeat a few
#   dozen tails (98 in a 20k-record testing campaign), and each distinct
#   tail is matched and split into its fields once;
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
# _record_grammar(d).split(text) gives one flat list: the text before the
# first head, then [d coordinates, the text up to the next head] per head.
# The text is a file write_records writes, with or without its final
# newline, when the text before the first head is empty and every text
# after a head is a tail, the last given a newline if it has none. Each
# distinct one is checked once: no _TAIL match holds a "{", so each of m
# texts joined by "{" is one whole match when _TAIL.split of the join gives
# [separator, mode, steps, final_position] per match with the separators
# "", then m - 1 "{", then "". Blank lines, CRLF endings, two records on
# one line, another coordinate count or any other text leave some text
# after a head that is not a tail.
_FLOAT = (r"-?+(?:0|[1-9][0-9]*+)"
          r"(?:\.[0-9]++(?:[eE][-+]?+[0-9]++)?+|[eE][-+]?+[0-9]++)")
_TAIL = re.compile(r'"mode": "(%s)", "steps": (0|[1-9][0-9]{0,14}+), '
                   r'"final_position": (%s)\}\n'
                   % ("|".join(map(re.escape, _MODE_CODES)), _FLOAT))
_MAX_COORDINATES = 16


def _record_grammar(d: int) -> re.Pattern:
    """The compiled head of a record line of d coordinates, from re's own
    cache after its first use."""
    return re.compile(r'\{"scenario": \[%s\], '
                      % ", ".join([f"({_FLOAT})"] * d))


def _campaign_from_template(text: str) -> TestCampaign | None:
    """The fast reader's campaign of a record file's text, or None for a
    text it leaves to the reference reader; never raises (see the comment
    above _FLOAT)."""
    # d is the coordinate count of the first line's scenario, if that line
    # is a record; a text with no "]", or more than _MAX_COORDINATES
    # coordinates, is refused before any grammar is compiled
    close = text.find("]")
    d = text.count(",", 0, close) + 1 if close >= 0 else 0
    if not 1 <= d <= _MAX_COORDINATES:
        return None
    parts = _record_grammar(d).split(text)
    stride = d + 1
    if not (len(parts) > 1 and parts[0] == ""):
        return None
    n = len(parts) // stride
    tails = parts[stride::stride]
    if not text.endswith("\n"):
        tails[-1] += "\n"
    # each distinct tail, numbered in the order of its first line
    index = dict(zip(dict.fromkeys(tails), range(n)))
    fields = _TAIL.split("{".join(index))
    m = len(index)
    if fields[::4] != ["", *["{"] * (m - 1), ""]:
        return None
    row = np.fromiter(map(index.__getitem__, tails), np.intp, n)
    scenarios = np.empty((n, d))
    for j in range(d):
        scenarios[:, j] = np.fromiter(map(float, parts[1 + j::stride]), float, n)
    modes = np.fromiter(map(_MODE_CODES.__getitem__, fields[1::4]), np.int8,
                        m)[row]
    steps = np.fromiter(map(int, fields[2::4]), np.int64, m)[row]
    position = np.fromiter(map(float, fields[3::4]), float, m)[row]
    try:
        return TestCampaign("", scenarios, modes, steps, position)
    except DataError:
        return None


def read_records(path: str | Path) -> TestCampaign:
    """The campaign in a record file, read by one of two readers (see the
    comment above _FLOAT). A record file holds neither the campaign's
    condition name nor its master seed, so they are "" and 0."""
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
# only a few dozen distinct masses and counts. "renormalized" is written
# for the file's readers; the report derives it from dropped_regions.

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
        **report.metrics(),
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


def _typed_list(value, name: str, kind: str) -> list:
    """value, checked to be a list of JSON integers, numbers or lists (kind).
    The type check comes before numpy's conversion, because numpy turns a
    bool, a string or a float into a number of the column's dtype silently."""
    if type(value) is not list or not set(map(type, value)) <= _JSON_TYPES[kind]:
        raise DataError(f"{name} must be a list of JSON {kind}")
    return value


def report_from_dict(doc) -> DependabilityReport:
    version = doc.get("format_version") if type(doc) is dict else None
    if type(version) is not int or version != FORMAT_VERSION:
        raise DataError(f"not a report file of format_version {FORMAT_VERSION} "
                        f"(got {version!r}); re-run depgrid predict or depgrid "
                        f"observe to write it")
    condition = _json_str(doc["condition"], "condition")
    rates = [_json_number(doc[key], key) for key in METRICS]
    dropped_mass = _json_number(doc["dropped_mass"], "dropped_mass")
    edges = tuple(tuple(map(float, _typed_list(e, f"edges[{d}]", "numbers")))
                  for d, e in enumerate(_typed_list(doc["edges"], "edges",
                                                    "lists")))
    weights = np.array(_typed_list(doc["mass"], "mass", "numbers"), dtype=float)
    lists = [_typed_list(doc[key], key, "integers") for key in _COUNT_KEYS]
    if len(set(map(len, lists))) > 1:
        raise DataError("the count lists must be of one length, got "
                        + ", ".join(f"{key} of {len(v)}"
                                    for key, v in zip(_COUNT_KEYS, lists)))
    counts = np.column_stack([np.array(v, dtype=np.int64) for v in lists])
    dropped = np.array(_typed_list(doc["dropped_regions"], "dropped_regions",
                                   "integers"), dtype=np.int64)
    # is, not ==, so that a renormalized of 0 or 1 is refused too
    if doc["renormalized"] is not bool(dropped.size):
        raise DataError(f"renormalized is {doc['renormalized']!r}, but "
                        f"{dropped.size} regions were dropped")
    return DependabilityReport(condition, *rates, edges=edges,
                               weights=weights, counts=counts,
                               dropped_mass=dropped_mass,
                               dropped_regions=dropped)


def read_report(path: str | Path) -> DependabilityReport:
    with _reading(path, DataError):
        return report_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Campaign manifests
# ---------------------------------------------------------------------------

def write_campaign(path: str | Path, campaign: TestCampaign, env: EnvConfig,
                   params: ScriptedPolicyParams, safety: SafetyFunction | None,
                   texts: list[str] | None = None) -> Path:
    """Write a campaign's records to path, as write_records does, and its
    manifest beside them, at path with the suffix .manifest.json, in one
    atomic_write_texts call, so a file that cannot be written leaves
    neither; returns the manifest's path. The manifest replays the campaign
    bit for bit from the record file's scenarios. It holds the env, params,
    safety function and master seed the campaign ran, and names the record
    file by its bare file name, so runs in different directories write the
    same bytes. ``texts`` are the campaign's scenario_texts or None, as
    _record_text takes them; texts of the wrong length write no file."""
    path = Path(path)
    manifest = {
        "condition": campaign.condition_name,
        "env": _as_json(env),
        "policy": _policy_json(params),
        "safety": _as_json(safety) if safety else None,
        "master_seed": campaign.master_seed,
        "n_records": len(campaign),
        "records_path": path.name,
    }
    manifest_path = path.with_suffix(".manifest.json")
    atomic_write_texts([(path, _record_text(campaign, texts)),
                        (manifest_path, dump_json(manifest))])
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
    with _reading(path, DataError):
        manifest = json.loads(Path(path).read_text())
        for key in ("master_seed", "n_records"):
            if _json_int(manifest[key], key) < 0:
                raise ValueError(f"{key} must be non-negative, got "
                                 f"{manifest[key]}")
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
