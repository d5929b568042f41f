from __future__ import annotations

import contextlib
import json
import re
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp

from depgrid import (
    BehaviorMode,
    ClippedGaussian,
    ConditionSet,
    ConfigError,
    DataError,
    DependabilityReport,
    Dimension,
    DomainSpace,
    EmptyPartition,
    EnvConfig,
    OutOfDomain,
    PartitionGrid,
    SafetyFunction,
    ScriptedPolicyParams,
    TestCampaign,
    TrialRecord,
    Uniform,
    evaluate_policy,
    observed_rates,
    predict,
    sample,
    tally,
)
from depgrid import presets
from depgrid.estimator import METRICS
from depgrid.svgplots import failure_scatter_svg
from conftest import campaign_of, old_format, old_format_text, seeded_format
from reference import Table, region_centers
from depgrid.records import (
    _MAX_COORDINATES,
    _as_json,
    _from_json,
    _json_lists,
    atomic_write_texts,
    _campaign_from_dicts,
    _campaign_from_template,
    _read_json_lines,
    condition_document,
    load_condition_file,
    parse_condition_document,
    read_manifest,
    read_records,
    read_report,
    read_scenarios,
    record_to_dict,
    scenario_texts,
    write_campaign,
    write_records,
    write_report,
    write_scenarios,
)


NAN, INF = float("nan"), float("inf")


def awkward_floats() -> np.ndarray:
    return np.array([
        (0.1 + 0.2, 9.999999999999998, 38.470000000000006),
        (1e-15, 10.0, 0.0),
        (5.0, 2.0 / 3.0, 50.0),
        (-0.0, 5e-324, 0.0),
        (5e-324, 10.0, -0.0),
    ])


class TestScenarioFiles:
    def test_round_trip_lossless(self, tmp_path):
        path = tmp_path / "scenarios.jsonl"
        scenarios = np.concatenate([awkward_floats(), sample(
            presets.condition("testing"), 50, 3)])
        write_scenarios(path, scenarios)
        assert path.read_text() == "".join(json.dumps(list(row)) + "\n"
                                           for row in scenarios)
        loaded = read_scenarios(path)
        assert loaded.dtype == np.float64 and loaded.shape == (55, 3)
        assert loaded.tobytes() == scenarios.tobytes()  # -0.0 keeps its sign

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        for empty in ([], np.empty((0, 3))):
            write_scenarios(path, empty)
            assert path.read_text() == ""
            assert len(read_scenarios(path)) == 0

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('[1.0, 2.0, 3.0]\n{"not": "an array"\n')
        with pytest.raises(DataError, match="line 2"):
            read_scenarios(path)

    def test_ragged_scenario_names_its_line(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        path.write_text("[5.0, 5.0, 30.0]\n\n[5.0, 5.0]\n")
        with pytest.raises(OutOfDomain, match=r"ragged\.jsonl: line 3: "
                                              r"scenario has 2 values"):
            read_scenarios(path)


class TestRecordFiles:
    def test_round_trip_identical_campaign(self, env, scripted_factory,
                                           tmp_path):
        xs = sample(presets.condition("testing"), 120, 7)
        campaign = evaluate_policy(env, scripted_factory, xs, 71,
                                   condition_name="testing")
        path = tmp_path / "records.jsonl"
        write_records(path, campaign)
        loaded = read_records(path)
        assert (loaded.condition_name, loaded.master_seed) == ("", 0)
        assert replace(loaded, condition_name="testing",
                       master_seed=71) == campaign

    def test_malformed_record_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({
            "scenario": [1, 1, 1], "mode": "success",
            "steps": 100, "final_position": 0.0})
        path.write_text(good + "\n" + '{"mode": "success"}\n')
        with pytest.raises(DataError, match="line 2"):
            read_records(path)

    def test_ragged_scenario_names_its_line(self, tmp_path):
        good = {"scenario": [5.0, 5.0, 30.0], "mode": "success",
                "steps": 100, "final_position": 50.0}
        path = tmp_path / "ragged.jsonl"
        path.write_text(json.dumps(good) + "\n\n"
                        + json.dumps({**good, "scenario": [5.0, 5.0]}) + "\n")
        with pytest.raises(OutOfDomain, match=r"ragged\.jsonl: line 3: "
                                              r"scenario has 2 values"):
            read_records(path)

    def test_unknown_mode_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "scenario": [1, 1, 1], "mode": "exploded",
            "steps": 100, "final_position": 0.0}) + "\n")
        with pytest.raises(DataError, match="line 1"):
            read_records(path)


FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e16, -1e16, 0.1 + 0.2]),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def campaigns(draw) -> TestCampaign:
    """Campaigns of up to 12 rows of d coordinates, harmful rows included."""
    d = draw(st.integers(0, 4))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        mode = draw(st.sampled_from(list(BehaviorMode)))
        harmful = mode is BehaviorMode.HARMFUL_FAILURE
        rows.append(TrialRecord(
            tuple(draw(FLOATS) for _ in range(d)), mode,
            draw(st.integers(int(harmful), 10**6)), draw(FLOATS)))
    return campaign_of(rows)


@settings(max_examples=200)
@given(xs=hnp.arrays(float, st.tuples(st.integers(0, 6), st.integers(0, 4)),
                     elements=st.one_of(st.sampled_from(
                         [-0.0, 5e-324, 1e16, 1e-5]), FLOATS)))
@example(xs=np.empty((0, 3)))
@example(xs=np.array([[-0.0], [5e-324], [1e16], [1e-5]]))
def test_scenario_texts_are_the_reprs_of_each_row(xs):
    assert scenario_texts(xs) == [", ".join(map(repr, row))
                                  for row in xs.tolist()]


def test_writers_share_the_scenario_texts(env, params, scripted_factory,
                                          tmp_path):
    """write_scenarios writes one line of each row's scenario_texts, and
    write_campaign given the texts writes the record bytes that it, and
    write_records, write without them."""
    xs = np.concatenate([awkward_floats()[[0, 2]], sample(
        presets.condition("testing"), 40, 4)])
    texts = scenario_texts(xs)
    write_scenarios(tmp_path / "s.jsonl", xs)
    assert (tmp_path / "s.jsonl").read_text().splitlines() == [
        f"[{x}]" for x in texts]
    campaign = evaluate_policy(env, scripted_factory, xs, 5)
    write_records(tmp_path / "a.jsonl", campaign)
    write_campaign(tmp_path / "b.jsonl", campaign, env, params, None,
                   texts=texts)
    write_campaign(tmp_path / "c.jsonl", campaign, env, params, None)
    assert ((tmp_path / "a.jsonl").read_bytes()
            == (tmp_path / "b.jsonl").read_bytes()
            == (tmp_path / "c.jsonl").read_bytes())


def refuse(*args, **kwargs):
    raise AssertionError("a row object was built")


@settings(max_examples=200)
@given(campaign=campaigns())
def test_record_lines_are_json_dumps_of_each_row(tmp_path_factory, campaign):
    """write_records writes each row's json.dumps, and read_records reads it
    back through the line grammar alone, without json.loads (a campaign of
    0-D scenarios is left to the reference reader)."""
    path = tmp_path_factory.mktemp("records") / "r.jsonl"
    write_records(path, campaign)
    assert path.read_text() == "".join(json.dumps(record_to_dict(r)) + "\n"
                                       for r in campaign.records)
    with (mock.patch.object(json, "loads", refuse)
          if campaign.scenarios.shape[1] else contextlib.nullcontext()):
        loaded = read_records(path)
    assert replace(loaded, condition_name="synthetic") == campaign
    write_records(path.with_name("again.jsonl"), loaded)
    assert path.with_name("again.jsonl").read_bytes() == path.read_bytes()


def read_outcome(read, path) -> tuple:
    """What a record reader makes of a file: the campaign's fields, each
    array as its dtype, shape and bytes, or the error's type and message."""
    try:
        c = read(path)
    except DataError as e:
        return type(e), str(e)
    return (c.condition_name, c.master_seed,
            [(a.dtype, a.shape, a.tobytes())
             for a in (c.scenarios, c.modes, c.steps, c.final_position)])


def reference_read(path):
    """read_records by the reference reader alone: json.loads per line."""
    return _read_json_lines(path, Path(path).read_text(), _campaign_from_dicts)


# Raw tokens put in place of one value of a written record line: JSON that
# the line grammar must refuse or must read as json.loads does, and text
# that float() or int() would take but JSON does not.
TOKENS = [
    "5", "-0", "1.", ".5", "01.0", "+1.0", "1.0e", "1e", "NaN", "Infinity",
    "-Infinity", "1e400", "-1e400", "1e-400", "5e-324", "-0.0", "1E+2",
    "100.0", "1e2", "1.\u0663", "\u0661.0", "\uff11.0", "1_0.0", "1" * 5000,
    "9" * 700, str(2**70), "-1", "1234567890123456", str(2**53 + 1),
    "9007199254740992.0", "null", "true", '"1.0"', "[]",
    '"succ\\u0065ss"', '"success"', '"task_failure"', '"harmful_failure"',
    '"exploded"',
]
FIELDS = ["scenario", "mode", "steps", "final_position"]


def token_edit(field: str, token: str):
    """A line edit that writes token in place of field's value (of the first
    coordinate, for the scenario)."""
    def edit(d: dict) -> str:
        value = ["@"] + d["scenario"][1:] if field == "scenario" else "@"
        return json.dumps({**d, field: value}).replace('"@"', token)
    return edit


LINE_EDITS = [
    lambda d: json.dumps({**d, "extra": 1}),
    lambda d: json.dumps(d)[:-1] + f', "steps": {d["steps"]}}}',
    lambda d: json.dumps(dict(reversed(d.items()))),
    lambda d: json.dumps(d, separators=(",", ":")),
    lambda d: " " + json.dumps(d),
    lambda d: json.dumps(d).replace('"mode"', '"mod\\u0065"'),
    lambda d: json.dumps(old_format(d, 2**64 - 1)),
    lambda d: json.dumps(seeded_format(d, 7)),
    lambda d: json.dumps({**d, "scenario": d["scenario"] + [1.0]}),
    lambda d: json.dumps({**d, "scenario": [int(x) for x in d["scenario"]]}),
]
EDITS = [token_edit(f, t) for f in FIELDS for t in TOKENS] + LINE_EDITS


def assert_reads_as_reference(path: Path) -> None:
    got = read_outcome(read_records, path)
    assert got == read_outcome(reference_read, path), path.read_text()[:300]


def mutated_file(path: Path, campaign: TestCampaign, edits, blanks,
                 newline: str) -> None:
    """The record file of campaign, with edit applied to written line k for
    each (k, edit) of edits, blank lines inserted before the lines in blanks, and
    newline ending every line."""
    write_records(path, campaign)
    written = path.read_text().splitlines()
    lines = list(written)
    for k, edit in edits:
        if lines:
            k %= len(lines)
            lines[k] = edit(json.loads(written[k]))
    for k in sorted(blanks, reverse=True):
        lines.insert(min(k, len(lines)), "  " if k % 2 else "")
    path.write_text("".join(line + newline for line in lines))


def test_every_edit_reads_as_the_reference_reader(tmp_path):
    """Each edit, on a harmful and on a task-failure line of a written file,
    gives the reference reader's campaign or its error, byte for byte."""
    campaign = campaign_of([
        TrialRecord((5.0, 0.1 + 0.2, 30.0), BehaviorMode.SUCCESS, 100, 50.0),
        TrialRecord((1.5, -0.0, 5e-324), BehaviorMode.HARMFUL_FAILURE, 12,
                    21.25),
        TrialRecord((9.0, 2.0, 45.5), BehaviorMode.TASK_FAILURE, 100, -3.5),
    ])
    path = tmp_path / "r.jsonl"
    for edit in EDITS:
        for k in (1, 2):
            mutated_file(path, campaign, [(k, edit)], [], "\n")
            assert_reads_as_reference(path)


@settings(max_examples=300)
@given(campaign=campaigns(),
       edits=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(EDITS)),
                      max_size=2),
       blanks=st.lists(st.integers(0, 12), max_size=2),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_read_records_reads_as_the_reference_reader(
        tmp_path_factory, campaign, edits, blanks, newline):
    """Any written campaign, with up to two edited lines, blank lines and
    either line ending: read_records gives the reference reader's campaign
    or its error, byte for byte."""
    path = tmp_path_factory.mktemp("mutated") / "r.jsonl"
    mutated_file(path, campaign, edits, blanks, newline)
    assert_reads_as_reference(path)


def written_campaign(n: int, d: int) -> TestCampaign:
    """n rows of d coordinates cycling through every mode, harmful rows
    included."""
    modes = list(BehaviorMode)
    rows = []
    for i in range(n):
        rows.append(TrialRecord(
            tuple(0.1 * (i + 1) + j for j in range(d)), modes[i % 3],
            12 + i, 20.25 - i))
    return campaign_of(rows)


@pytest.mark.parametrize("n, d, final_newline", [
    (5, 1, True), (5, 2, True), (5, 3, True), (1, 3, True), (5, 3, False),
    (1, 2, False),
])
def test_written_files_need_no_reference_reader(tmp_path, n, d, final_newline):
    """A file as write_records writes it, with or without its final newline,
    is read by the one split alone."""
    campaign = written_campaign(n, d)
    path = tmp_path / "r.jsonl"
    write_records(path, campaign)
    if not final_newline:
        path.write_text(path.read_text()[:-1])
    with mock.patch("depgrid.records._read_json_lines", refuse):
        assert replace(read_records(path), condition_name="synthetic") == campaign


# Outcomes whose tails repeat or nearly repeat: every mode, 0.0 and -0.0,
# a float and its neighbour, and steps of one to 15 digits
TAIL_STEPS = [1, 12, 100, 101, 10**14, 10**15 - 1]
TAIL_POSITIONS = [0.0, -0.0, 50.0, 45.0, 45.00000000000001, 5e-324, -5e-324]


@settings(max_examples=150)
@given(outcomes=st.lists(st.tuples(st.sampled_from(list(BehaviorMode)),
                                   st.sampled_from(TAIL_STEPS),
                                   st.sampled_from(TAIL_POSITIONS)),
                         min_size=1, max_size=40))
@example(outcomes=[(mode, steps, position)
                   for mode in BehaviorMode for steps in (100, 10**15 - 1)
                   for position in (0.0, -0.0)] * 2)
def test_repeated_tails_read_as_the_reference_reader(tmp_path_factory,
                                                     outcomes):
    """Lines whose tails repeat, or differ only in a mode, a sign, a last
    digit or a step count, are read by the fast path alone, without
    json.loads, into the reference reader's campaign, bit for bit."""
    path = tmp_path_factory.mktemp("tails") / "r.jsonl"
    write_records(path, campaign_of(
        TrialRecord((0.5 * i, 1.0, 30.0), mode, steps, position)
        for i, (mode, steps, position) in enumerate(outcomes)))
    with mock.patch.object(json, "loads", refuse):
        got = read_outcome(read_records, path)
    assert got == read_outcome(reference_read, path)


def test_distinct_tails_read_as_the_reference_reader(tmp_path):
    """A file whose every tail is distinct, which no depgrid command writes
    (final positions lie on the step lattice), is read by the fast path
    too, into the reference reader's campaign, bit for bit."""
    n = 3000
    rng = np.random.default_rng(6)
    campaign = TestCampaign(
        "", rng.uniform(0.0, 10.0, (n, 3)),
        (np.arange(n) % 3).astype(np.int8),
        10**14 + rng.permutation(n), rng.uniform(-5.0, 60.0, n))
    path = tmp_path / "r.jsonl"
    write_records(path, campaign)
    tails = {line[line.index('"mode"'):]
             for line in path.read_text().splitlines()}
    assert len(tails) == n
    with mock.patch.object(json, "loads", refuse):
        got = read_outcome(read_records, path)
    assert got == read_outcome(reference_read, path)


@pytest.mark.parametrize("steps, error", [
    ("1234567890123456", None),
    ("-1234567890123456", "a record needs a known mode and steps >= 0"),
    ("0123456789012345", "Expecting"),
])
def test_sixteen_digit_steps_go_to_the_reference_reader(tmp_path, steps,
                                                        error):
    """Steps of 16 digits or more are left to the reference reader, which
    reads them, or names the line of the bad ones."""
    path = tmp_path / "r.jsonl"
    write_records(path, written_campaign(3, 3))
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = re.sub(r'"steps": [0-9]+', f'"steps": {steps}', lines[1])
    text = "".join(lines)
    path.write_text(text)
    assert _campaign_from_template(text) is None
    assert_reads_as_reference(path)
    if error is not None:
        with pytest.raises(DataError, match=rf"r\.jsonl: line 2: {error}"):
            read_records(path)


@pytest.mark.parametrize("edit, error, error_class", [
    (lambda line: re.sub(r'"mode": "[a-z_]+", "steps": [0-9]+',
                         '"mode": "harmful_failure", "steps": 0', line),
     "a record needs a known mode and steps >= 0", DataError),
    (lambda line: re.sub(r'"final_position": [^}]+',
                         '"final_position": 1e400', line),
     "a record needs .* a finite final_position", DataError),
    (lambda line: re.sub(r'\[[^,]+,', '[1e400,', line),
     r"non-finite scenario coordinate in \[inf, ", OutOfDomain),
], ids=["harmful_at_steps_0", "infinite_final_position",
        "infinite_coordinate"])
def test_template_lines_the_campaign_refuses_go_to_the_reference_reader(
        tmp_path, edit, error, error_class):
    """A file of the template's grammar whose columns TestCampaign refuses
    is left to the reference reader, whose error names the line: json reads
    1e400 as inf, as float() does."""
    path = tmp_path / "r.jsonl"
    write_records(path, written_campaign(3, 3))
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = edit(lines[1])
    text = "".join(lines)
    path.write_text(text)
    assert _campaign_from_template(text) is None
    with pytest.raises(error_class, match=rf"r\.jsonl: line 2: {error}"):
        read_records(path)


def test_old_format_files_read_as_the_new_ones(tmp_path):
    """A file whose lines also hold the seed, or the seed and the
    collision_time, that record files held before they were dropped is left
    to the reference reader, which ignores those keys: it reads as the
    campaign of the file written now."""
    campaign = written_campaign(30, 3)
    new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
    write_records(new, campaign)
    for form, key, count in ((old_format, '"collision_time": 14.0}', 1),
                             (seeded_format, '"seed": ', 30)):
        old.write_text(old_format_text(new.read_text(), 2**70, form))
        assert old.read_text().count(key) == count
        assert _campaign_from_template(old.read_text()) is None
        assert read_records(old) == read_records(new)
        assert replace(read_records(old),
                       condition_name="synthetic") == campaign


NOT_WRITTEN_BY_WRITE_RECORDS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "blank_line": lambda text: text.replace("\n", "\n\n", 1),
    "leading_space": lambda text: " " + text,
    "two_records_on_one_line": lambda text: text.replace("\n", "", 1),
    # the first line's tail lacks its newline and the second's starts with
    # it: joined with nothing between them, they would read as two tails
    "two_records_on_one_line_then_one_on_two": lambda text: text.replace(
        "\n", "", 1).replace('], "mode"', '], \n"mode"', 2).replace(
        '], \n"mode"', '], "mode"', 1),
    "text_before_the_first_record": lambda text: "# records\n" + text,
    "text_after_the_last_record": lambda text: text + "# end\n",
}


@pytest.mark.parametrize("edit", NOT_WRITTEN_BY_WRITE_RECORDS.values(),
                         ids=NOT_WRITTEN_BY_WRITE_RECORDS)
def test_other_layouts_go_to_the_reference_reader(tmp_path, edit):
    """A layout write_records does not write is left to the reference
    reader, which reads it to the same campaign or error as before."""
    path = tmp_path / "r.jsonl"
    write_records(path, written_campaign(4, 3))
    text = edit(path.read_text())
    path.write_bytes(text.encode())
    assert _campaign_from_template(text) is None
    assert_reads_as_reference(path)


@pytest.mark.parametrize("d", [1, 2, 3, 4, _MAX_COORDINATES])
def test_coordinate_counts_up_to_the_cap_need_no_reference_reader(tmp_path, d):
    campaign = written_campaign(5, d)
    path = tmp_path / "r.jsonl"
    write_records(path, campaign)
    with mock.patch("depgrid.records._read_json_lines", refuse):
        assert replace(read_records(path), condition_name="synthetic") == campaign


def edited_scenario(line: str, scenario: list) -> str:
    return json.dumps({**json.loads(line), "scenario": scenario})


@pytest.mark.parametrize("count", [2, 4])
def test_a_later_line_of_another_coordinate_count_names_its_line(
        tmp_path, count):
    """The fast path reads one coordinate count, the first line's; a line of
    another count leaves it to the reference reader, whose error names it."""
    path = tmp_path / "r.jsonl"
    write_records(path, written_campaign(3, 3))
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = edited_scenario(lines[1], [1.5] * count) + "\n"
    text = "".join(lines)
    path.write_text(text)
    assert _campaign_from_template(text) is None
    with pytest.raises(OutOfDomain, match=rf"r\.jsonl: line 2: scenario has "
                                          rf"{count} values, the first "
                                          rf"scenario has 3$"):
        read_records(path)


FIRST_SCENARIOS = {
    "no_coordinates": [],
    "one_over_the_cap": [1.5] * (_MAX_COORDINATES + 1),
    "five_thousand": [1.5] * 5000,
}


@pytest.mark.parametrize("first", [*FIRST_SCENARIOS, "no_closing_bracket"])
def test_first_lines_the_fast_path_refuses_go_to_the_reference_reader(
        tmp_path, first):
    """A first line whose scenario has no coordinates, more than the cap or
    no "]" goes to the reference reader, having compiled no grammar of more
    than the cap's coordinates: compiling takes time linear in the count."""
    path = tmp_path / "r.jsonl"
    write_records(path, written_campaign(4, 3))
    lines = path.read_text().splitlines(keepends=True)
    lines[0] = (lines[0].replace("]", "") if first == "no_closing_bracket"
                else edited_scenario(lines[0], FIRST_SCENARIOS[first]) + "\n")
    text = "".join(lines)
    path.write_text(text)
    with mock.patch.object(re, "compile", wraps=re.compile) as compiled:
        assert _campaign_from_template(text) is None
    groups = [re.compile(*call.args).groups for call in compiled.call_args_list]
    assert max(groups, default=0) <= _MAX_COORDINATES + 5
    assert_reads_as_reference(path)


def test_files_over_the_cap_read_by_the_reference_reader(tmp_path):
    campaign = written_campaign(3, _MAX_COORDINATES + 1)
    path = tmp_path / "r.jsonl"
    write_records(path, campaign)
    assert _campaign_from_template(path.read_text()) is None
    assert replace(read_records(path), condition_name="synthetic") == campaign


def test_template_read_memory_is_its_text_and_tokens(env, scripted_factory,
                                                     tmp_path):
    """Reading a written file holds its text and, while the columns are
    built, the d + 1 tokens of each record that one split gives: its d
    coordinates and its tail, a str of about 60 characters. The bound is 80
    bytes for each of d + 4 tokens a record, what the reader that split the
    mode, steps and final position apart held: a token's str has a 49-byte
    header, its characters (a coordinate's repr here has at most 21) and
    its list slot, with room left for the columns. The reader that split
    the scenarios into one more list of tokens took 87 bytes a token."""
    n = 5000
    xs = sample(presets.condition("testing"), n, 78)
    path = tmp_path / "r.jsonl"
    write_records(path, evaluate_policy(env, scripted_factory, xs, 79))
    read_records(path)   # the grammar's compilation, outside the count
    tracemalloc.start()
    try:
        read_records(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= path.stat().st_size + n * (xs.shape[1] + 4) * 80


@pytest.mark.parametrize("keep", [slice(3), slice(None, None, -1)],
                         ids=["fewer", "more"])
def test_write_campaign_refuses_texts_of_another_length(
        env, params, scripted_factory, tmp_path, keep):
    xs = sample(presets.condition("testing"), 5, 4)
    texts = (scenario_texts(xs) * 2)[keep]
    campaign = evaluate_policy(env, scripted_factory, xs, 5)
    with pytest.raises(ConfigError, match=f"{len(texts)} scenario texts for "
                                          f"a campaign of 5 records"):
        write_campaign(tmp_path / "r.jsonl", campaign, env, params, None,
                       texts=texts)
    assert list(tmp_path.iterdir()) == []


def test_library_paths_build_no_rows(env, scripted_factory, space, tmp_path):
    """Scenarios go from sample to the simulator and the scenario file, and
    campaigns from the simulator to the record file, and from the file to
    tallies, rates, predictions and plots, as arrays and columns only."""
    path, scenarios_path = tmp_path / "r.jsonl", tmp_path / "s.jsonl"
    with mock.patch.object(TrialRecord, "__init__", refuse):
        xs = sample(presets.condition("testing"), 300, 21)
        campaign = evaluate_policy(env, scripted_factory, xs, 22)
        write_records(path, campaign)
        write_scenarios(scenarios_path, xs)
        assert read_scenarios(scenarios_path).tobytes() == xs.tobytes()
        loaded = replace(read_records(path), master_seed=22)
        counts = tally(loaded, PartitionGrid((2, 2, 2)), space)
        rates = observed_rates(loaded)
        predicted = predict(counts, presets.condition("oc3"))
        svg = failure_scatter_svg(loaded, space, ("v", "t", "y"))
    assert loaded == campaign and counts.counts.sum() == 300
    assert len(predicted.weights) == 8 and 0 < rates.dependability < 1
    assert svg.count("<circle") == 3 * (300 - round(300 * rates.dependability))


@pytest.mark.parametrize("field, value", [
    ("steps", -1), ("steps", 1.5), ("mode", "x"), ("final_position", "x"),
    ("scenario", [5.0, float("nan"), 30.0]), ("final_position", None),
])
def test_error_names_the_first_bad_line(tmp_path, field, value):
    good = {"scenario": [5.0, 5.0, 30.0], "mode": "task_failure",
            "steps": 100, "final_position": 20.0}
    bad = {**good, field: value}
    path = tmp_path / "r.jsonl"
    path.write_text("\n\n".join(json.dumps(r) for r in (good, bad, good, bad))
                    + "\n")
    with pytest.raises(DataError, match=r"r\.jsonl: line 3: "):
        read_records(path)


class TestReportFiles:
    def test_predict_report_round_trip(self, env, space, grid,
                                       scripted_factory, tmp_path):
        xs = sample(presets.condition("testing"), 4000, 9)
        campaign = evaluate_policy(env, scripted_factory, xs, 73)
        report = predict(tally(campaign, PartitionGrid((4, 4, 4)), space),
                         presets.condition("oc2"))
        path = tmp_path / "report.json"
        write_report(path, report)
        assert read_report(path) == report

    def test_renormalized_report_round_trip(self, space, tmp_path):
        low_y = ConditionSet("low", space, (
            Uniform(0, 10), Uniform(0, 10), Uniform(0, 40)))
        records = tuple(
            TrialRecord(tuple(s), BehaviorMode.SUCCESS, steps=100,
                        final_position=50.0)
            for s in sample(low_y, 2500, 11).tolist()
        )
        campaign = campaign_of(records, "low")
        tallies = tally(campaign, PartitionGrid((5, 5, 5)), space)
        report = predict(tallies, presets.condition("oc2"),
                         renormalize_empty=True)
        assert report.renormalized
        path = tmp_path / "renorm.json"
        write_report(path, report)
        assert read_report(path) == report

    def test_observed_report_round_trip(self, env, scripted_factory, tmp_path):
        xs = sample(presets.condition("testing"), 60, 13)
        report = observed_rates(evaluate_policy(env, scripted_factory, xs, 75))
        path = tmp_path / "observed.json"
        write_report(path, report)
        assert read_report(path) == report


def record(values, mode: BehaviorMode) -> TrialRecord:
    return TrialRecord(tuple(float(v) for v in values), mode,
                       steps=100, final_position=0.0)


def random_campaign(space: DomainSpace, n: int, seed: int, *,
                    centers_of: PartitionGrid | None = None) -> TestCampaign:
    """n uniform records with random modes, plus one at every centre of
    ``centers_of`` so that each of its regions is covered."""
    rng = np.random.default_rng(seed)
    lo = np.array([d.min for d in space.dims])
    hi = np.array([d.max for d in space.dims])
    points = list(lo + rng.random((n, space.ndim)) * (hi - lo))
    if centers_of is not None:
        points += region_centers(centers_of, space)
    modes = list(BehaviorMode)
    return campaign_of(record(x, modes[rng.integers(0, 3)]) for x in points)


def column_form(report) -> dict:
    """The report file's document, built here from the report's fields: the
    scalar header, then the dropped region numbers, the edges and one list
    per column."""
    return {
        "format_version": 2,
        "condition": report.condition_name,
        "dependability": report.dependability,
        "task_undependability": report.task_undependability,
        "harmful_undependability": report.harmful_undependability,
        "renormalized": report.renormalized,
        "dropped_mass": report.dropped_mass,
        "dropped_regions": [int(k) for k in report.dropped_regions],
        "edges": [list(e) for e in report.edges],
        "mass": [float(w) for w in report.weights],
        "n_success": [int(c[0]) for c in report.counts],
        "n_task_fail": [int(c[1]) for c in report.counts],
        "n_harmful": [int(c[2]) for c in report.counts],
    }


def assert_golden(tmp_path, report) -> None:
    """write_report writes the column form, one line per key, and reads
    back."""
    path = tmp_path / "report.json"
    write_report(path, report)
    text = path.read_text()
    doc, want = json.loads(text), column_form(report)
    assert doc == want and list(doc) == list(want)
    assert len(text.splitlines()) == len(want) + 2
    assert read_report(path) == report


def line_space() -> DomainSpace:
    return DomainSpace((Dimension("x", -1.5, 2.7, "m"),))


def plane_space() -> DomainSpace:
    return DomainSpace((Dimension("p", 0.0, 1.0 / 3.0),
                        Dimension("q", -2.0, 5.0, "s")))


class TestReportFormat:
    def test_prediction_on_10_cubed(self, space, grid, tmp_path):
        report = predict(tally(random_campaign(space, 500, 1, centers_of=grid),
                               grid, space), presets.condition("oc3"))
        assert not report.renormalized and len(report.weights) == 1000
        assert_golden(tmp_path, report)

    def test_renormalized_with_dropped_regions(self, space, tmp_path):
        grid = PartitionGrid((5, 5, 5))
        low = ConditionSet("low", space, (
            Uniform(0, 10), Uniform(0, 10), Uniform(0, 40)))
        campaign = campaign_of((record(x, BehaviorMode.TASK_FAILURE)
                                for x in sample(low, 2500, 11)), "low")
        report = predict(tally(campaign, grid, space), presets.condition("oc2"),
                         renormalize_empty=True)
        assert report.dropped_regions.size and 0 < report.dropped_mass < 1
        assert_golden(tmp_path, report)

    def test_vacuous_report(self, space, tmp_path):
        """A target with no mass on a covered region has no prediction, even
        under renormalize_empty, and the all-zero report file of dropped
        mass 1 that such a prediction once wrote is refused: it breaks the
        sum rule."""
        grid = PartitionGrid((5, 5, 5))
        high = ConditionSet("high", space, (
            Uniform(0, 10), Uniform(0, 10), Uniform(30, 50)))
        campaign = campaign_of((record((5.0, 5.0, y), BehaviorMode.SUCCESS)
                                for y in (1.0, 11.0, 19.0)), "low")
        tallies = tally(campaign, grid, space)
        with pytest.raises(EmptyPartition) as e:
            predict(tallies, high, renormalize_empty=True)
        dropped = np.ravel_multi_index(np.array(e.value.regions).T, grid.bins)
        assert len(dropped) == 50
        path = tmp_path / "vacuous.json"
        path.write_text(json.dumps({
            "format_version": 2, "condition": "high",
            **metrics_of(0.0, 0.0, 0.0), "renormalized": True,
            "dropped_mass": 1.0, "dropped_regions": dropped.tolist(),
            "edges": [grid.edges(space, k).tolist() for k in range(3)],
            "mass": [0.0] * grid.n_regions,
            **dict(zip(("n_success", "n_task_fail", "n_harmful"),
                       tallies.counts.T.tolist()))}, indent=2))
        with pytest.raises(DataError, match="vacuous.json: metrics sum to "
                                            "0.0, violating the sum rule"):
            read_report(path)

    def test_observed_report_has_no_rows(self, tmp_path):
        report = observed_rates(random_campaign(line_space(), 30, 2))
        assert report.edges == () and len(report.weights) == 0
        assert_golden(tmp_path, report)
        assert '"mass": []' in (tmp_path / "report.json").read_text()

    def test_one_dimensional_grid(self, tmp_path):
        space, grid = line_space(), PartitionGrid((7,))
        target = ConditionSet("line", space, (ClippedGaussian(0.3, 0.8),))
        report = predict(tally(random_campaign(space, 40, 3, centers_of=grid),
                               grid, space), target)
        assert_golden(tmp_path, report)

    def test_two_dimensional_grid(self, tmp_path):
        space, grid = plane_space(), PartitionGrid((3, 4))
        target = ConditionSet("plane", space, (
            Uniform(0.0, 0.2), ClippedGaussian(1.0, 2.0)))
        report = predict(tally(random_campaign(space, 25, 4), grid, space),
                         target, renormalize_empty=True)
        assert_golden(tmp_path, report)

    def test_discrete_condition_target(self, tmp_path):
        space, grid = plane_space(), PartitionGrid((3, 4))
        target = Table("table", space, (
            (0.01, -1.5), (0.2, 4.9), (1.0 / 3.0, 5.0)), (0.25, 0.5, 0.25))
        report = predict(tally(random_campaign(space, 10, 5, centers_of=grid),
                               grid, space), target)
        assert_golden(tmp_path, report)

    def test_condition_name_with_quotes_and_non_ascii(self, tmp_path):
        space, grid = line_space(), PartitionGrid((2,))
        name = 'oc "\u00fcber" \u2713 back\\slash\ttab'
        target = ConditionSet(name, space, (Uniform(-1.5, 2.7),))
        report = predict(tally(random_campaign(space, 5, 6, centers_of=grid),
                               grid, space), target)
        assert report.condition_name == name
        assert_golden(tmp_path, report)

    @given(bins=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           n=st.integers(0, 30), seed=st.integers(0, 2**16))
    def test_random_grids(self, tmp_path_factory, bins, n, seed):
        rng = np.random.default_rng(seed)
        lo = rng.normal(0.0, 10.0, len(bins))
        space = DomainSpace(tuple(
            Dimension(f"d{k}", float(a), float(a + rng.exponential(5.0) + 1e-3))
            for k, a in enumerate(lo)))
        grid = PartitionGrid(tuple(bins))
        target = ConditionSet("random", space, tuple(
            ClippedGaussian(float(rng.uniform(d.min, d.max)), d.width / 3)
            for d in space.dims))
        tallies = tally(random_campaign(space, n, seed), grid, space)
        covered = tallies.counts.sum(axis=1) > 0
        if not target.region_mass_vector(grid)[covered].any():
            # no record where the target has mass (n = 0): nothing is
            # left to renormalize
            with pytest.raises(EmptyPartition):
                predict(tallies, target, renormalize_empty=True)
            return
        report = predict(tallies, target, renormalize_empty=True)
        assert_golden(tmp_path_factory.mktemp("golden"), report)


GOLDEN_PLANE_REPORT = """\
{
  "format_version": 2,
  "condition": "plane",
  "dependability": 0.625,
  "task_undependability": 0.25,
  "harmful_undependability": 0.125,
  "renormalized": true,
  "dropped_mass": 0.2,
  "dropped_regions": [1],
  "edges": [[0.0, 0.5, 1.0], [-2.0, 1.5, 5.0]],
  "mass": [0.5, 0.0, 0.25, 0.25],
  "n_success": [3, 0, 0, 2],
  "n_task_fail": [1, 0, 1, 0],
  "n_harmful": [0, 0, 1, 0]
}
"""


def test_golden_bytes_of_a_renormalized_plane_report(tmp_path):
    """The exact bytes of a small 2-D report whose region 1 was dropped."""
    report = DependabilityReport(
        condition_name="plane", dependability=0.625,
        task_undependability=0.25, harmful_undependability=0.125,
        edges=((0.0, 0.5, 1.0), (-2.0, 1.5, 5.0)),
        weights=np.array([0.5, 0.0, 0.25, 0.25]),
        counts=np.array([[3, 1, 0], [0, 0, 0], [0, 1, 1], [2, 0, 0]]),
        dropped_mass=0.2, dropped_regions=np.array([1]))
    path = tmp_path / "report.json"
    write_report(path, report)
    assert path.read_text() == GOLDEN_PLANE_REPORT
    assert read_report(path) == report


def _unit_metrics(a: float, b: float) -> tuple[float, float, float]:
    """Three non-negative metrics that sum to 1, from a, b in [0, 1]."""
    ut = b * (1.0 - a)
    return a, ut, max(1.0 - a - ut, 0.0)


@st.composite
def reports(draw) -> DependabilityReport:
    """Predicted, renormalized and observed (no-table) reports over 1-4-D
    grids of 1-6 bins, with masses that include 0.0 and 5e-324."""
    kind = draw(st.sampled_from(["predicted", "renormalized", "observed"]))
    name = draw(st.text(max_size=6))
    metrics = _unit_metrics(draw(st.floats(0, 1)), draw(st.floats(0, 1)))
    if kind == "observed":
        return DependabilityReport(name, *metrics)
    bins = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    edges = tuple(tuple(draw(st.lists(
        st.floats(-1e9, 1e9, allow_subnormal=True), min_size=b + 1,
        max_size=b + 1, unique=True).map(sorted))) for b in bins)
    n = int(np.prod(bins))
    weights = draw(hnp.arrays(float, n, elements=st.one_of(
        st.sampled_from([0.0, 5e-324]), st.floats(0, 1e300))))
    counts = draw(hnp.arrays(np.int64, (n, 3),
                             elements=st.integers(0, 2**63 - 1)))
    dropped, dropped_mass = np.zeros(0, dtype=np.int64), 0.0
    if kind != "predicted":
        dropped = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                         unique=True).map(sorted)),
                           dtype=np.int64)
        dropped_mass = draw(st.floats(0, 1, exclude_min=True,
                                      exclude_max=True))
    return DependabilityReport(name, *metrics, edges=edges, weights=weights,
                               counts=counts, dropped_mass=dropped_mass,
                               dropped_regions=dropped)


def pooled(values: st.SearchStrategy) -> st.SearchStrategy[list]:
    """Lists of up to 60 values drawn from a pool of at most six, so most
    values repeat."""
    return st.lists(values, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=60))


FLOAT_COLUMNS = st.one_of(
    pooled(st.floats()),
    pooled(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308 / 3,
                            1.7e308, -1.7e308]))).map(np.array)
INT_COLUMNS = st.one_of(
    # every value below the column's length: the table of str(k)
    st.integers(1, 60).flatmap(lambda n: st.lists(st.integers(0, n - 1),
                                                  min_size=n, max_size=n)),
    # values at or above the length, or negative: the whole column
    st.lists(st.integers(-2**63, 2**63 - 1), max_size=60),
    st.integers(0, 60).map(lambda n: [0] * n),
).map(lambda v: np.array(v, dtype=np.int64))


@settings(max_examples=200)
@given(column=st.one_of(FLOAT_COLUMNS, INT_COLUMNS))
@example(column=np.array([], dtype=float))
@example(column=np.array([0.0, -0.0, 0.0, -0.0]))
@example(column=np.array([5e-324, 1.7e308, -1.7e308, 5e-324]))
@example(column=np.array([0.25]))
@example(column=np.full(7, 0.1))
@example(column=np.linspace(-1.0, 1.0, 33))
@example(column=np.array([3, 0, 3, 1], dtype=np.int64))
@example(column=np.array([4, 0, 4, 1], dtype=np.int64))
@example(column=np.array([5, 0, 5, 1], dtype=np.int64))
@example(column=np.zeros(5, dtype=np.int64))
@example(column=np.zeros(0, dtype=np.int64))
def test_column_text_is_json_dumps_of_its_list(column):
    """The report writer formats each distinct value once, yet writes the
    text json.dumps writes for the column's list, for one row or several
    (the count columns, looked up in one table when every value is below
    their total size)."""
    assert _json_lists(column[None]) == [json.dumps(column.tolist())]
    assert (_json_lists(column[None, ::-2])
            == [json.dumps(column[::-2].tolist())])
    rows = np.stack([column, column[::-1]])
    assert _json_lists(rows) == list(map(json.dumps, rows.tolist()))


def report_text(report) -> str:
    """The report file's text, built here from column_form: the header as
    json.dumps(..., indent=2) lays it out, then each column's json.dumps on
    a line of its own."""
    doc = column_form(report)
    keys = list(doc)
    header = json.dumps({key: doc[key] for key in keys[:7]}, indent=2)
    return header[:-2] + "".join(f',\n  "{key}": {json.dumps(doc[key])}'
                                 for key in keys[7:]) + "\n}\n"


@settings(max_examples=200)
@given(report=reports())
def test_read_report_of_write_report_is_the_report(tmp_path_factory, report):
    path = tmp_path_factory.mktemp("round") / "report.json"
    write_report(path, report)
    assert path.read_text() == report_text(report)
    assert read_report(path) == report


@pytest.mark.parametrize("dropped", [[], [0, 2, 3]], ids=["none", "three"])
def test_dropped_regions_line_is_json_dumps_of_the_list(tmp_path, dropped):
    report = DependabilityReport(
        "d", 0.5, 0.25, 0.25, edges=((0.0, 1.0, 2.0), (0.0, 1.0, 2.0)),
        weights=np.array([0.0, 1.0, 0.0, 0.0]),
        counts=np.ones((4, 3), dtype=np.int64),
        dropped_mass=0.5 if dropped else 0.0,
        dropped_regions=np.array(dropped, dtype=np.int64))
    path = tmp_path / "report.json"
    write_report(path, report)
    text = path.read_text()
    assert f'\n  "dropped_regions": {json.dumps(dropped)},\n' in text
    assert text == report_text(report)


def metrics_of(*values: float) -> dict:
    """A report header's three metrics, in order."""
    return dict(zip(METRICS, values))


class TestReadReportRejects:
    """A report file that is not one written by write_report: DataError."""

    @pytest.fixture
    def doc(self, tmp_path):
        space = plane_space()
        grid = PartitionGrid((2, 3))
        report = predict(tally(random_campaign(space, 20, 7, centers_of=grid),
                               grid, space),
                         ConditionSet("c", space, (Uniform(0.0, 0.1),
                                                   Uniform(-2.0, 5.0))))
        path = tmp_path / "good.json"
        write_report(path, report)
        return json.loads(path.read_text())

    @pytest.mark.parametrize("edit", [
        # a column of the wrong length
        lambda d: d["mass"].pop(),
        lambda d: d["n_task_fail"].append(0),
        lambda d: d.__setitem__("n_harmful", []),
        # counts that are not non-negative JSON integers
        lambda d: d["n_success"].__setitem__(1, True),
        lambda d: d["n_success"].__setitem__(1, 1.0),
        lambda d: d["n_task_fail"].__setitem__(1, 2.5),
        lambda d: d["n_harmful"].__setitem__(1, -1),
        lambda d: d["n_success"].__setitem__(1, "1"),
        lambda d: d["n_success"].__setitem__(1, None),
        lambda d: d["n_harmful"].__setitem__(1, 2**63),
        # masses that are not finite non-negative JSON numbers
        lambda d: d["mass"].__setitem__(1, None),
        lambda d: d["mass"].__setitem__(1, -1.0),
        lambda d: d["mass"].__setitem__(1, INF),
        lambda d: d["mass"].__setitem__(1, NAN),
        lambda d: d["mass"].__setitem__(1, "0.5"),
        lambda d: d["mass"].__setitem__(1, True),
        lambda d: d["mass"].__setitem__(1, 10**400),
        # edges: non-finite, not strictly increasing, the wrong number
        lambda d: d["edges"][0].__setitem__(0, -INF),
        lambda d: d["edges"][1].__setitem__(2, d["edges"][1][1]),
        lambda d: d["edges"][1].reverse(),
        lambda d: d["edges"][1].pop(),
        lambda d: d["edges"].pop(),
        lambda d: d["edges"].__setitem__(0, [0.0]),
        lambda d: d["edges"][0].__setitem__(1, True),
        lambda d: d["edges"][0].__setitem__(1, "0.1"),
        lambda d: d.__setitem__("edges", 5),
        lambda d: d["edges"].__setitem__(0, None),
        # dropped region numbers: out of range, repeated, not integers
        lambda d: d.__setitem__("dropped_regions", [6]),
        lambda d: d.__setitem__("dropped_regions", [-1]),
        lambda d: d.__setitem__("dropped_regions", [2, 2]),
        lambda d: d.__setitem__("dropped_regions", [3, 1]),
        lambda d: d.__setitem__("dropped_regions", [1.0]),
        lambda d: d.__setitem__("dropped_regions", [True]),
        lambda d: d.__setitem__("dropped_regions", ["1"]),
        lambda d: d.__setitem__("dropped_regions", [[0, 1]]),
        lambda d: d.__setitem__("dropped_regions", 7),
        # a missing or different format_version
        lambda d: d.pop("format_version"),
        lambda d: d.__setitem__("format_version", 1),
        lambda d: d.__setitem__("format_version", 3),
        lambda d: d.__setitem__("format_version", "2"),
        lambda d: d.__setitem__("format_version", 2.0),
        lambda d: d.__setitem__("format_version", True),
        # the header and missing columns
        lambda d: d.__setitem__("dependability", None),
        lambda d: d.__setitem__("dependability", 2.0),
        lambda d: d.__setitem__("dependability", "0.5"),
        lambda d: d.__setitem__("task_undependability", True),
        lambda d: d.__setitem__("renormalized", "false"),
        lambda d: d.__setitem__("renormalized", 0),
        lambda d: d.__setitem__("dropped_mass", True),
        lambda d: d.__setitem__("condition", 5),
        lambda d: d.pop("condition"),
        lambda d: d.pop("harmful_undependability"),
        lambda d: d.pop("mass"),
        lambda d: d.pop("n_success"),
        lambda d: d.pop("edges"),
        lambda d: d.pop("dropped_regions"),
        # a dropped_mass outside [0, 1], or of a report not renormalized;
        # a dropped_mass of 1 once waived the sum rule
        *(lambda d, v=v: d.__setitem__("dropped_mass", v)
          for v in (NAN, 5.0, -0.5, INF, 0.5)),
        lambda d: d.update(dropped_mass=1.0, **metrics_of(0.9, 0.9, 0.9)),
        # renormalized exactly when regions were dropped
        lambda d: d.__setitem__("renormalized", True),
        lambda d: d.update(dropped_regions=[1], dropped_mass=0.5),
        # no report is waived the sum rule, not even one of dropped mass 1
        # and all metrics 0, which predict once wrote when no covered region
        # had target mass
        *(lambda d, m=m: d.update(renormalized=True, dropped_regions=[1],
                                  dropped_mass=1.0, **metrics_of(*m))
          for m in ((0.9, 0.9, 0.9), (0.0, 0.0, 0.5), (0.0, 0.0, 0.0))),
    ])
    def test_malformed_report(self, tmp_path, doc, edit):
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc, indent=2))
        with pytest.raises(DataError, match="bad.json"):
            read_report(path)

    @pytest.mark.parametrize("edit, lengths", [
        (lambda d: d["n_task_fail"].append(0), (6, 7, 6)),
        (lambda d: d["n_harmful"].pop(), (6, 6, 5)),
    ], ids=["long_task_fail", "short_harmful"])
    def test_count_lists_of_different_lengths_are_named(self, tmp_path, doc,
                                                        edit, lengths):
        """The three count lists are one table split by column, so lists of
        different lengths are refused by name before numpy stacks them."""
        edit(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc, indent=2))
        got = ", ".join(f"{key} of {n}" for key, n in zip(
            ("n_success", "n_task_fail", "n_harmful"), lengths))
        with pytest.raises(DataError, match=rf"bad\.json: the count lists "
                                            rf"must be of one length, got "
                                            rf"{got}$"):
            read_report(path)

    def test_row_per_region_file_asks_for_a_new_one(self, tmp_path):
        """A report of the earlier layout, one object per region and no
        format_version, is refused with a message that says what to do."""
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "condition": "line", "dependability": 1.0,
            "task_undependability": 0.0, "harmful_undependability": 0.0,
            "renormalized": False, "dropped_mass": 0.0, "dropped_regions": [],
            "per_region": [{"index": [0], "bounds": [[0.0, 1.0]], "mass": 1.0,
                            "n_total": 2, "n_success": 2, "n_task_fail": 0,
                            "n_harmful": 0}]}, indent=2) + "\n")
        with pytest.raises(DataError, match=r"v1\.json: not a report file of "
                                            r"format_version 2 .*re-run"):
            read_report(path)

    @pytest.mark.parametrize("text", ["[]", "null", "5", '"report"', "{"])
    def test_not_a_report_object(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(DataError, match="bad.json"):
            read_report(path)


CONFIGS = {
    EnvConfig: EnvConfig(episode_seconds=7, robot_bounds=(-5.0, 60.5),
                         danger_height=30.0, noise_sigma_goal=0.0),
    ScriptedPolicyParams: ScriptedPolicyParams(12.5, 7.0, 0.25),
    SafetyFunction: SafetyFunction(goal_clip_max=30.0, delta=1.5),
    Uniform: Uniform(-1.0, 2.5),
    ClippedGaussian: ClippedGaussian(3.0, 0.5),
}
# a float field of each config class
FLOAT_FIELDS = [(EnvConfig, "danger_height"),
                (ScriptedPolicyParams, "risk_goal_threshold"),
                (SafetyFunction, "goal_clip_max"), (Uniform, "a"),
                (ClippedGaussian, "sigma")]


class TestConfigJson:
    """Each config dataclass has one JSON form, written by _as_json and read
    by _from_json."""

    @pytest.mark.parametrize("cls", list(CONFIGS), ids=lambda c: c.__name__)
    def test_round_trip(self, cls):
        config = CONFIGS[cls]
        written = _as_json(config)
        assert list(written) == [f.name for f in fields(cls)]
        assert _from_json(cls, json.loads(json.dumps(written))) == config

    @pytest.mark.parametrize("cls, field", FLOAT_FIELDS,
                             ids=[f"{c.__name__}.{f}" for c, f in FLOAT_FIELDS])
    @pytest.mark.parametrize("value", [True, "1.5", None, [1.5]],
                             ids=["bool", "numeric_string", "null", "list"])
    def test_float_field_takes_only_a_json_number(self, cls, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a JSON number"):
            _from_json(cls, {**_as_json(CONFIGS[cls]), field: value})

    @pytest.mark.parametrize("cls, field", FLOAT_FIELDS,
                             ids=[f"{c.__name__}.{f}" for c, f in FLOAT_FIELDS])
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_float_field_takes_only_a_finite_number(self, cls, field, token):
        """json reads these tokens as the floats nan, inf and -inf, which
        the config class refuses, naming the field."""
        text = json.dumps({**_as_json(CONFIGS[cls]), field: 0.0}).replace(
            f'"{field}": 0.0', f'"{field}": {token}')
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            _from_json(cls, json.loads(text))

    @pytest.mark.parametrize("value", [100.0, True, "100"])
    def test_int_field_takes_only_a_json_integer(self, value):
        with pytest.raises(ValueError, match="episode_seconds must be a JSON "
                                             "integer"):
            _from_json(EnvConfig, {**_as_json(EnvConfig()),
                                   "episode_seconds": value})

    @pytest.mark.parametrize("value", [[0.0], [0.0, 25.0, 50.0], (0.0, 50.0)])
    def test_pair_field_takes_only_a_list_of_two(self, value):
        with pytest.raises(ValueError, match="robot_bounds must be a list of "
                                             "two JSON numbers"):
            _from_json(EnvConfig, {**_as_json(EnvConfig()),
                                   "robot_bounds": value})

    @pytest.mark.parametrize("cls", list(CONFIGS), ids=lambda c: c.__name__)
    def test_keys_must_be_exactly_the_fields(self, cls):
        written = _as_json(CONFIGS[cls])
        first = next(iter(written))
        missing = {k: v for k, v in written.items() if k != first}
        for value in (missing, {**written, "extra": 1.0}, [written], None):
            with pytest.raises(ValueError, match="exactly the keys"):
                _from_json(cls, value)


# every float of the three classes that file formats write, with the index
# of a tuple field's entry
CONFIG_FLOATS = [
    *((EnvConfig, f, None) for f in (
        "step_inches", "danger_height", "obstacle_spawn_offset",
        "obstacle_width", "noise_sigma_speed", "noise_sigma_obstacle_pos",
        "noise_sigma_goal")),
    (EnvConfig, "robot_bounds", 0), (EnvConfig, "robot_bounds", 1),
    *((ScriptedPolicyParams, f, None) for f in (
        "risk_goal_threshold", "safe_ceiling", "passed_margin")),
    (SafetyFunction, "goal_clip_max", None), (SafetyFunction, "delta", None),
]


def test_config_floats_are_every_field_but_the_seconds():
    assert ({(cls, f) for cls, f, _ in CONFIG_FLOATS}
            == {(cls, f.name) for cls in (EnvConfig, ScriptedPolicyParams,
                                          SafetyFunction)
                for f in fields(cls) if f.name != "episode_seconds"})


@pytest.mark.parametrize("cls, field, index", CONFIG_FLOATS,
                         ids=[f"{c.__name__}.{f}" + ("" if i is None else
                                                     f"[{i}]")
                              for c, f, i in CONFIG_FLOATS])
@pytest.mark.parametrize("value", [INF, -INF, NAN], ids=["inf", "-inf", "nan"])
def test_non_finite_config_value_refused(cls, field, index, value):
    """json.dumps would write it as a token no reader here takes."""
    if index is not None:
        pair = list(getattr(CONFIGS[cls], field))
        pair[index] = value
        value = tuple(pair)
    with pytest.raises(ConfigError, match=f"^{field} must be finite"):
        replace(CONFIGS[cls], **{field: value})


@st.composite
def envs_and_params(draw) -> tuple[EnvConfig, ScriptedPolicyParams]:
    """An env and params the classes accept together, their floats drawn
    from every float, the infinities included, and the threshold NaN at
    times; a draw the classes refuse is rejected."""
    ceiling, danger = sorted(draw(st.lists(
        st.floats(min_value=0.0, exclude_min=True), min_size=2, max_size=2,
        unique=True)))
    if danger == INF:
        reject()
    lo = draw(st.floats(max_value=danger, exclude_max=True))
    hi = draw(st.floats(min_value=danger, exclude_min=True))
    draw_float = st.floats(min_value=0.0)
    try:
        env = EnvConfig(draw(st.integers(0, 10**6)), draw(draw_float),
                        (lo, hi), danger,
                        *(draw(draw_float) for _ in range(5)))
        params = ScriptedPolicyParams(
            draw(st.sampled_from([lo, danger, hi, NAN])), ceiling,
            draw(draw_float))
        params.check_env(env)
    except ConfigError:
        reject()
    return env, params


@settings(max_examples=200)
@given(config=envs_and_params())
@example(config=(EnvConfig(robot_bounds=(-0.0, 2e-323), danger_height=1e-323,
                           step_inches=1e308, noise_sigma_goal=-0.0),
                 ScriptedPolicyParams(5e-324, 5e-324, 1.7976931348623157e308)))
def test_condition_document_round_trips_every_accepted_config(config):
    env, params = config
    doc = condition_document(presets.condition("testing"),
                             presets.default_grid(), 0, env=env, params=params)
    got = parse_condition_document(json.loads(json.dumps(doc)))[3:]
    assert repr(got) == repr((env, params))   # -0.0 keeps its sign


class TestConditionDocuments:
    @pytest.mark.parametrize("name", ["testing", "oc1", "oc2", "oc3", "oc4"])
    def test_round_trip_lossless(self, name, grid):
        doc = condition_document(presets.condition(name), grid, seed=42)
        cond, grid2, seed, _, _ = parse_condition_document(doc)
        assert cond == presets.condition(name)
        assert grid2 == grid
        assert seed == 42
        # and the rebuilt document is byte-identical
        assert condition_document(cond, grid2, seed) == doc

    def test_env_and_policy_sections(self, env, grid, tmp_path):
        params = ScriptedPolicyParams(safe_ceiling=15.0)
        doc = condition_document(presets.condition("testing"), grid, seed=1,
                                 env=env, params=params)
        path = tmp_path / "cond.json"
        path.write_text(json.dumps(doc))
        cond, _, _, loaded_env, loaded_params = load_condition_file(path)
        assert cond == presets.condition("testing")
        assert (loaded_env, loaded_params) == (env, params)

    def test_env_round_trip(self, env):
        assert _from_json(EnvConfig, _as_json(env)) == env

    def test_absent_sections_are_the_defaults(self, grid):
        """A missing env, policy or params section is the default one; a
        params section must hold every field."""
        doc = condition_document(presets.condition("testing"), grid, seed=1)
        defaults = (EnvConfig(), ScriptedPolicyParams())
        assert parse_condition_document(doc)[3:] == defaults
        assert parse_condition_document(
            {**doc, "policy": {"name": "scripted"}})[3:] == defaults
        with pytest.raises(ConfigError, match="exactly the keys"):
            parse_condition_document(
                {**doc, "policy": {"params": {"safe_ceiling": 15.0}}})

    def test_policy_bounds_come_from_the_env(self, grid):
        """The threshold may lie anywhere within the env's robot bounds and
        the ceiling anywhere below its danger height. The document parses
        as condition_document returns it, not only through a file."""
        env = EnvConfig(robot_bounds=(0.0, 100.0), danger_height=60.0)
        params = ScriptedPolicyParams(risk_goal_threshold=80.0,
                                      safe_ceiling=50.0)
        doc = condition_document(presets.condition("testing"), grid, seed=1,
                                 env=env, params=params)
        assert parse_condition_document(doc)[3:] == (env, params)

    @pytest.mark.parametrize("env, edit", [
        (EnvConfig(), {"risk_goal_threshold": 60.0}),
        (EnvConfig(), {"safe_ceiling": 25.0}),
        (EnvConfig(danger_height=20.0), {"safe_ceiling": 22.0}),
        (EnvConfig(robot_bounds=(10.0, 50.0)), {"risk_goal_threshold": 5.0}),
    ], ids=["threshold_above", "ceiling_at_danger", "ceiling_above_custom",
            "threshold_below_custom"])
    def test_params_must_fit_the_env(self, grid, env, edit):
        doc = condition_document(presets.condition("testing"), grid, seed=1,
                                 env=env, params=ScriptedPolicyParams())
        doc["policy"]["params"].update(edit)
        with pytest.raises(ConfigError, match="robot bounds|danger height"):
            parse_condition_document(doc)

    def test_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  broken\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_condition_file(path)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "incomplete.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(ConfigError, match="missing key"):
            load_condition_file(path)

    def test_unknown_marginal_kind(self):
        doc = condition_document(presets.condition("testing"),
                                 presets.default_grid(), seed=0)
        doc["marginals"]["v"] = {"kind": "cauchy", "x0": 0, "gamma": 1}
        with pytest.raises(ConfigError, match="cauchy"):
            parse_condition_document(doc)

    @pytest.mark.parametrize("edit", [
        {"grid": {"bins": [10.9, 10, 10]}}, {"grid": {"bins": [10.0, 10, 10]}},
        {"grid": {"bins": [True, 2, 2]}}, {"grid": {"bins": ["2", 2, 2]}},
        {"seed": 7.9}, {"seed": 7.0}, {"seed": "7"}, {"seed": True},
        {"env": {**_as_json(EnvConfig()), "episode_seconds": 99.9}},
        {"env": {**_as_json(EnvConfig()), "episode_seconds": "100"}},
        {"env": {**_as_json(EnvConfig()), "episode_seconds": True}},
    ], ids=["fractional_bin", "float_bin", "bool_bin", "string_bin",
            "fractional_seed", "float_seed", "string_seed", "bool_seed",
            "fractional_env_int", "string_env_int", "bool_env_int"])
    def test_integer_fields_take_only_json_integers(self, edit):
        """A bin count, the seed or an integer env field that is not a JSON
        integer is refused, not truncated or coerced by int()."""
        doc = condition_document(presets.condition("testing"),
                                 presets.default_grid(), seed=0)
        with pytest.raises(ConfigError, match="integer"):
            parse_condition_document({**doc, **edit})


    @pytest.mark.parametrize("path, value", [
        (["env", "danger_height"], True),
        (["env", "noise_sigma_goal"], "0.25"),
        (["env", "step_inches"], None),
        (["env", "robot_bounds"], [0.0, "50"]),
        (["env", "robot_bounds"], [False, 50.0]),
        (["marginals", "v"], {"kind": "uniform", "a": "0", "b": True}),
        (["marginals", "v"], {"kind": "uniform", "a": 0, "b": True}),
        (["marginals", "y"], {"kind": "clipped_gaussian", "mu": "30",
                              "sigma": 1}),
        (["marginals", "y"], {"kind": "clipped_gaussian", "mu": 30,
                              "sigma": [1]}),
        (["domain", 0, "min"], "0"),
        (["domain", 0, "max"], True),
        (["domain", 2, "max"], 10**400),
        (["env", "noise_sigma_goal"], NAN),
        (["env", "robot_bounds"], [0.0, INF]),
        (["marginals", "v"], {"kind": "uniform", "a": -INF, "b": 10.0}),
        (["domain", 0, "max"], INF),
    ], ids=["bool_env", "string_env", "null_env", "string_bound",
            "bool_bound", "string_and_bool_marginal", "bool_marginal",
            "string_mu", "list_sigma", "string_min", "bool_max",
            "overflowing_max", "nan_env", "infinite_bound",
            "infinite_marginal", "infinite_max"])
    def test_float_fields_take_only_json_numbers(self, path, value):
        """An env float, a robot bound, a marginal parameter or a domain
        bound that is not a JSON number is refused, not coerced by float();
        an integer too large for a float is refused too, and a NaN or
        infinite number by the class that holds it."""
        doc = condition_document(presets.condition("testing"),
                                 presets.default_grid(), seed=0,
                                 env=EnvConfig())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ConfigError, match="JSON number|too large|"
                                              "must be finite"):
            parse_condition_document(doc)

    @pytest.mark.parametrize("path, value", [
        (["name"], 5), (["name"], None), (["domain", 0, "name"], 5),
        (["domain", 0, "name"], ["v"]), (["domain", 2, "unit"], None),
        (["domain", 2, "unit"], 1.0),
    ], ids=["int_name", "null_name", "int_dimension", "list_dimension",
            "null_unit", "number_unit"])
    def test_names_and_units_take_only_json_strings(self, path, value):
        """A condition name, dimension name or unit that is not a JSON string
        is refused, not turned into one by str(); a unit may be absent."""
        doc = condition_document(presets.condition("testing"),
                                 presets.default_grid(), seed=0)
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        with pytest.raises(ConfigError, match="must be a JSON string"):
            parse_condition_document(doc)
        del target[last]
        if last == "unit":
            cond = parse_condition_document(doc)[0]
            assert cond.space.dims[2].unit == ""

    def test_integer_numbers_read_as_floats(self):
        doc = condition_document(presets.condition("testing"),
                                 presets.default_grid(), seed=0,
                                 env=EnvConfig())
        doc["env"].update(danger_height=25, robot_bounds=[0, 50])
        doc["domain"][0].update(min=0, max=10)
        doc["marginals"]["v"] = {"kind": "uniform", "a": 0, "b": 10}
        cond, _, _, env, _ = parse_condition_document(doc)
        assert env == EnvConfig() and cond == presets.condition("testing")
        assert type(env.danger_height) is float
        assert all(type(b) is float for b in env.robot_bounds)
        assert type(cond.space.dims[0].min) is float


class TestManifests:
    @pytest.fixture
    def written(self, env, params, scripted_factory, tmp_path):
        """A campaign of 5 scenarios run behind a safety function, and the
        path of the manifest write_campaign wrote for it."""
        xs = sample(presets.condition("testing"), 5, 4)
        campaign = evaluate_policy(env, scripted_factory, xs, 99,
                                   condition_name="testing")
        safety = SafetyFunction(goal_clip_max=37.97, delta=0.5)
        return write_campaign(tmp_path / "runs" / "r.jsonl", campaign, env,
                              params, safety)

    def test_round_trip(self, written, env, params):
        """write_campaign writes the manifest's keys in their order, and
        read_manifest gives the object back with the env, the policy's
        params and the safety function as objects."""
        doc = json.loads(written.read_text())
        assert list(doc) == [
            "condition", "env", "policy", "safety", "master_seed",
            "n_records", "records_path"]
        assert doc == {
            "condition": "testing",
            "env": _as_json(env),
            "policy": {"name": "scripted", "params": {
                "risk_goal_threshold": params.risk_goal_threshold,
                "safe_ceiling": params.safe_ceiling,
                "passed_margin": params.passed_margin}},
            "safety": {"goal_clip_max": 37.97, "delta": 0.5},
            "master_seed": 99, "n_records": 5, "records_path": "r.jsonl"}
        assert read_manifest(written) == {
            **doc, "env": env, "policy": params,
            "safety": SafetyFunction(goal_clip_max=37.97, delta=0.5)}

    def test_scenario_hash_is_optional(self, written):
        """A manifest written before the record file became the only copy
        of the scenarios also names a scenario file and its sha256: they
        are ignored, so it reads as the manifest written now."""
        new = read_manifest(written)
        doc = json.loads(written.read_text())
        written.write_text(json.dumps({
            **doc, "scenarios_path": "../s.jsonl",
            "scenarios_sha256": "0" * 64}))
        old = read_manifest(written)
        assert (old.pop("scenarios_path"), old.pop("scenarios_sha256")) == (
            "../s.jsonl", "0" * 64)
        assert old == new

    @pytest.mark.parametrize("key, value", [
        ("condition", None), ("condition", 5), ("records_path", 5),
        ("records_path", ["r.jsonl"]),
    ])
    def test_string_fields_take_only_json_strings(self, written, key, value):
        """A path or condition name that is not a JSON string is refused as
        read, not turned into one by str()."""
        doc = json.loads(written.read_text())
        written.write_text(json.dumps({**doc, key: value}))
        with pytest.raises(DataError, match=f"{key} must be a JSON string"):
            read_manifest(written)

    @pytest.mark.parametrize("name", [
        "/abs/r.jsonl", "..", "../r.jsonl", "sub/r.jsonl", "r.jsonl/", "",
        ".", "r\0.jsonl"])
    def test_records_path_must_be_a_bare_file_name(self, written, name):
        """A replay reads the records_path beside the manifest and may write
        it, so any name of a file elsewhere is refused as read."""
        doc = json.loads(written.read_text())
        written.write_text(json.dumps({**doc, "records_path": name}))
        with pytest.raises(DataError, match=f"^{re.escape(str(written))}: "
                                            f"records_path must be a bare "
                                            f"file name"):
            read_manifest(written)

    @pytest.mark.parametrize("section, key, value", [
        ("safety", "goal_clip_max", 99.0), ("safety", "goal_clip_max", NAN),
        ("params", "safe_ceiling", -1.0), ("params", "passed_margin", NAN),
        ("params", "passed_margin", -INF), ("env", "step_inches", -5.0),
        ("env", "danger_height", 15.0), ("env", "robot_bounds", [0.0, 30.0]),
    ])
    def test_values_out_of_range_raise_data_error(self, written, section,
                                                  key, value):
        """A well-typed section whose class refuses its values, or whose
        params or safety function do not fit its env, is a bad manifest,
        named like any other."""
        doc = json.loads(written.read_text())
        (doc["policy"] if section == "params" else doc)[section][key] = value
        written.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"^{re.escape(str(written))}: "):
            read_manifest(written)

    @pytest.mark.parametrize("section", [None, 5, {}, [50.0]],
                             ids=["null", "number", "empty", "list"])
    def test_env_must_be_an_env_section(self, written, section):
        doc = json.loads(written.read_text())
        written.write_text(json.dumps({**doc, "env": section}))
        with pytest.raises(DataError, match=f"^{re.escape(str(written))}: "
                                            f"EnvConfig must be a JSON object"):
            read_manifest(written)
        del doc["env"]
        written.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"^{re.escape(str(written))}: "
                                            f"missing key 'env'$"):
            read_manifest(written)


class TestAtomicWrites:
    @pytest.mark.parametrize("second", ["d.json", "./d.json", "sub/../d.json"])
    def test_two_paths_of_one_file_are_refused_unwritten(
            self, tmp_path, monkeypatch, second):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        with pytest.raises(ConfigError, match="they name one file"):
            atomic_write_texts([("d.json", "a\n"), (second, "b\n")])
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_scenarios(path, awkward_floats())
        leftovers = [p for p in tmp_path.iterdir() if p != path]
        assert leftovers == []
