"""Hypothesis fuzz of the command line over malformed files and flags.

Every generated input is wrong in a way the program must refuse: a broken
record, report, manifest or condition file next to otherwise good inputs, or
a bad flag. The property: the exit code is 2, 3 or 4, and no exception
escapes ``main`` (argparse's own usage errors are a SystemExit with code 2),
so the console never shows a traceback. Each example runs in-process and
takes milliseconds, so every test draws 200.
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from depgrid import PartitionGrid, presets
from depgrid.cli import main
from depgrid.records import condition_document
from reference import region_centers

NAN, INF = float("nan"), float("inf")
GOOD_RECORD = {"scenario": [5.0, 5.0, 30.0], "mode": "task_failure",
               "steps": 100, "final_position": 20.0}


def run(*argv: str) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


def assert_refused(*argv: str) -> None:
    code, err = run(*argv)
    assert code in (2, 3, 4), (code, err)
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Good inputs: scenarios, records covering a 2x2x2 grid, a report, a
    manifest and a condition document with a 2x2x2 grid."""
    d = tmp_path_factory.mktemp("fuzz")
    grid = PartitionGrid((2, 2, 2))
    records = [dict(GOOD_RECORD, scenario=list(x))
               for x in region_centers(grid, presets.domain_space())]
    (d / "rec.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    doc = condition_document(presets.condition("oc3"), grid, seed=0,
                             env=presets.default_env(),
                             params=presets.default_policy_params())
    (d / "cond.json").write_text(json.dumps(doc))
    assert run("sample", "--condition", "testing", "--n", "5",
               "--out", str(d / "scen.jsonl"))[0] == 0
    assert run("run", "--scenarios", str(d / "scen.jsonl"), "--safety",
               "--out", str(d / "run.jsonl"))[0] == 0
    assert run("predict", "--records", str(d / "rec.jsonl"), "--config",
               str(d / "cond.json"), "--out", str(d / "pred.json"))[0] == 0
    return d


DELETE = object()


def edit(path, value):
    """A function that sets the item at ``path`` (keys and indices) of a
    document to ``value``; the value ``DELETE`` removes the item."""
    def apply(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if value is DELETE:
            del doc[last]
        else:
            doc[last] = copy.deepcopy(value)
    return apply


def edits(paths_values) -> list:
    return [edit(path, v) for path, values in paths_values for v in values]


def broken_text(text: str, doc_edits: list) -> st.SearchStrategy[str]:
    """The JSON text of the document with one edit, a strict prefix that
    stops before the closing brace, or a JSON value that is no object."""
    def edited(f):
        doc = json.loads(text)
        f(doc)
        return json.dumps(doc, indent=2)

    return st.one_of(
        st.sampled_from(doc_edits).map(edited),
        st.integers(0, text.rindex("}") - 1).map(lambda k: text[:k]),
        st.sampled_from(["[]", "null", "5", '"text"', ""]),
    )


# record fields set to values that no reader accepts
RECORD_EDITS = edits([
    (["scenario"], [None, "x", 5, [None, 1, 2], ["a", 1, 2], [[1], 2, 3],
                    [NAN, 5, 30], [5, INF, 30]]),
    (["mode"], [None, 5, "", "win", []]),
    (["steps"], [-1, None, "x", [], 99.5, 100.0, "100", True]),
    (["final_position"], [None, "x", NAN, INF, []]),
] + [([key], [DELETE]) for key in ("scenario", "mode", "steps",
                                   "final_position")])
# scenarios outside the 3-D domain: refused by the commands that read it
DOMAIN_EDITS = edits([(["scenario"], [[], [5, 5], [5, 5, 30, 1], [1e9, 5],
                                      [-1, 5, 30], [5, 5, 51]])])
GARBAGE_LINES = ["not json", "[1, 2]", "5", "null", '"s"', "{}", "{"]


def record_line(doc_edits):
    def line(f):
        r = copy.deepcopy(GOOD_RECORD)
        f(r)
        return json.dumps(r)
    return st.one_of(st.sampled_from(doc_edits).map(line),
                     st.sampled_from(GARBAGE_LINES))


@settings(max_examples=200)
@given(line=record_line(RECORD_EDITS), position=st.integers(0, 8),
       command=st.sampled_from(["observe", "plot", "predict"]))
def test_malformed_record_file(files, line, position, command):
    lines = (files / "rec.jsonl").read_text().splitlines()
    lines.insert(position, line)
    bad = files / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    extra = {"observe": (), "plot": ("--dims", "v,y"),
             "predict": ("--condition", "testing", "--grid", "2,2,2",
                         "--renormalize-empty")}[command]
    assert_refused(command, "--records", str(bad), *extra,
                   "--out", str(files / "out"))


@settings(max_examples=200)
@given(line=record_line(DOMAIN_EDITS), position=st.integers(0, 8),
       command=st.sampled_from(["observe", "plot", "predict"]))
def test_record_outside_the_domain(files, line, position, command):
    lines = (files / "rec.jsonl").read_text().splitlines()
    lines.insert(position, line)
    bad = files / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    extra = {"observe": (), "plot": ("--dims", "v,y"),
             "predict": ("--condition", "testing", "--grid", "2,2,2",
                         "--renormalize-empty")}[command]
    assert_refused(command, "--records", str(bad), *extra,
                   "--out", str(files / "out"))


def row_per_region(doc):
    """Turn the document into the earlier layout: one object per region and
    no format_version."""
    rows = [{"index": [0, 0, i], "bounds": [[0.0, 5.0]] * 3, "mass": m,
             "n_total": 1, "n_success": 1, "n_task_fail": 0, "n_harmful": 0}
            for i, m in enumerate(doc["mass"])]
    for key in ("format_version", "edges", "mass", "n_success", "n_task_fail",
                "n_harmful"):
        del doc[key]
    doc["per_region"] = rows


REPORT_EDITS = edits([
    (["format_version"], [DELETE, None, 1, 3, "2", 2.0, True]),
    (["dependability"], [None, "x", [], 2.0, -1.0, NAN, "0.5", True]),
    (["harmful_undependability"], [DELETE]),
    (["dropped_mass"], [None, "x", [], True]),
    (["renormalized"], [None, "false", 0, DELETE]),
    (["condition"], [None, 5, [], DELETE]),
    (["dropped_regions"], [7, None, [8], [-1], [3, 3], [5, 2], [0.0], [True],
                           ["a"], [None], [[0, 0, 1]], [2**64]]),
    (["edges"], [None, 5, "x", [], [[0.0, 10.0]], [[0.0, 5.0, 10.0]] * 4]),
    (["edges", 0], [None, 5, [], [0.0], [0.0, 10.0], [0.0, 10.0, 5.0],
                    [0.0, 5.0, 5.0], [NAN, 5.0, 10.0], [0.0, 5.0, INF],
                    [0.0, True, 10.0], [0.0, "5", 10.0], [0.0, None, 10.0],
                    [0.0, 5.0, 10.0, 11.0], [0.0, 5.0, 10**400]]),
    (["mass"], [None, 5, "x", [], [0.125] * 7, [0.125] * 9]),
    (["mass", 3], [None, "x", [], -1.0, NAN, INF, -INF, True, "0.5",
                   10**400]),
    (["n_success"], [None, 5, [], [1] * 7, [1] * 9]),
    (["n_success", 3], [None, "x", -1, [], 1.5, 1.0, True, "1", 2**63,
                        -2**63 - 1]),
    (["n_task_fail", 0], [-1, 0.0, False]),
    (["n_harmful"], [DELETE]),
] + [([key], [DELETE]) for key in ("edges", "mass", "n_success",
                                   "dropped_regions")]) + [row_per_region]


@settings(max_examples=200)
@given(data=st.data(), side=st.sampled_from(["--predicted", "--observed"]))
def test_malformed_report_file(files, data, side):
    text = data.draw(broken_text((files / "pred.json").read_text(),
                                 REPORT_EDITS))
    bad = files / "bad.json"
    bad.write_text(text)
    good = str(files / "pred.json")
    reports = {"--predicted": good, "--observed": good, side: str(bad)}
    assert_refused("compare", *(a for kv in reports.items() for a in kv),
                   "--out", str(files / "cmp.json"))


MANIFEST_EDITS = edits([
    (["master_seed"], [None, "x", [], -1, -5, -2**64, 5.9, 5.0, "7", True]),
    (["n_records"], [None, "x", [], 5.0, "5", True, -1]),
    (["policy"], [5, "x", [], None]),
    (["policy", "name"], ["other"]),
    (["policy", "params"], [5, "x", [1], {"bogus": 1},
                            {"risk_goal_threshold": "x"},
                            {"risk_goal_threshold": 99},
                            {"safe_ceiling": None}]),
    (["safety"], [5, "x", [1], {"bogus": 1}, {"goal_clip_max": "x"},
                  {"goal_clip_max": 99}]),
    # a section holds exactly its class's fields, each of its JSON type
    (["safety"], [{}, False]),
    (["safety", "delta"], ["x"]),
    (["safety", "goal_clip_max"], [True]),
    (["policy", "params", "risk_goal_threshold"], [True]),
    (["condition"], [None, 5, ["testing"]]),
    # the record file a replay reads and writes: a bare name beside the
    # manifest, of a file that exists
    (["records_path"], [None, 5, "nope.jsonl", "", ".", "..", "../run.jsonl",
                        "/run.jsonl", "sub/run.jsonl", "run\0.jsonl"]),
    (["env"], [None, 5, "x", [], {}, {"episode_seconds": 100}]),
    (["env", "robot_bounds"], [[0.0, 30.0], [0.0, "50"], [50.0, 0.0]]),
    (["env", "danger_height"], [True, NAN, 15.0]),
    (["env", "noise_sigma_gaol"], [0.5]),
    (["env", "episode_seconds"], [10**12]),
    (["n_records"], [0, 4, 6]),
] + [([key], [DELETE]) for key in ("condition", "env", "master_seed",
                                   "n_records", "records_path")])


@settings(max_examples=200)
@given(data=st.data())
def test_malformed_manifest(files, data):
    text = data.draw(broken_text(
        (files / "run.manifest.json").read_text(), MANIFEST_EDITS))
    bad = files / "bad.manifest.json"
    bad.write_text(text)
    assert_refused("run", "--manifest", str(bad),
                   "--out", str(files / "again.jsonl"))


DIM = ["domain", 0]
CONDITION_EDITS = edits([
    (["domain"], [None, 5, "x", [], [{"name": "v"}]]),
    (DIM + ["min"], ["x", None, NAN, 10.0]),
    # finite bounds whose width max - min overflows
    (DIM, [{"name": "v", "min": -1e308, "max": 1e308}]),
    (DIM + ["name"], ["", "t"]),
    # names and units are JSON strings, not turned into one by str()
    (["name"], [None, 5, ["oc3"]]),
    (DIM + ["name"], [None, 5]),
    (DIM + ["unit"], [None, 1.0, []]),
    (["marginals"], [None, 5, {}]),
    (["marginals", "v"], [5, {"kind": "cauchy"},
                          {"kind": "uniform", "a": "x", "b": 1},
                          {"kind": "uniform", "a": -5, "b": 1},
                          {"kind": "uniform", "a": 5, "b": 1},
                          {"kind": "clipped_gaussian", "mu": 1, "sigma": 0},
                          {"kind": "clipped_gaussian", "mu": NAN, "sigma": 1},
                          {"kind": "clipped_gaussian", "mu": 1, "sigma": INF}]),
    (["grid"], [None, 5, {}]),
    (["grid", "bins"], [None, ["x"], [0, 1, 1], [2, 2], [], [-1, 2, 2],
                        [2.9, 2, 2], [2.0, 2, 2], [True, 2, 2], ["2", 2, 2]]),
    (["seed"], [None, "x", [], 7.9, "7", True]),
    # the env and policy sections, parsed with the rest of the document
    (["env"], [5, {"episode_seconds": 100}]),
    # an episode longer than the cap, whose noise would not fit in memory
    (["env", "episode_seconds"], [99.9, "100", True, 10**12]),
    (["env", "step_inches"], ["x", None]),
    # float fields take only JSON numbers, not bools or numeric strings
    (["env", "danger_height"], [True]),
    (["env", "noise_sigma_goal"], ["0.25"]),
    (["env", "robot_bounds"], [[0.0, "50"], [False, 50.0]]),
    (["marginals", "v"], [{"kind": "uniform", "a": "0", "b": True},
                          {"kind": "uniform", "a": 0, "b": True},
                          {"kind": "clipped_gaussian", "mu": "1", "sigma": 1}]),
    (DIM + ["min"], ["0", False]),
    (DIM + ["max"], [True, "10", 10**400]),
    (["policy"], [5, "x"]),
    (["policy", "name"], ["other", 5]),
    (["policy", "params"], [5, {"bogus": 1}, {"safe_ceiling": 30}]),
    (["policy", "params", "risk_goal_threshold"], [True]),
    (["policy", "params", "passed_margin"], [False]),
    (["env", "noise_sigma_gaol"], [9.0]),
])


@settings(max_examples=200)
@given(data=st.data(), command=st.sampled_from(["sample", "predict", "run"]))
def test_malformed_condition_document(files, data, command):
    text = data.draw(broken_text((files / "cond.json").read_text(),
                                 CONDITION_EDITS))
    bad = files / "bad_cond.json"
    bad.write_text(text)
    extra = {"sample": ("--n", "3"),
             "predict": ("--records", str(files / "rec.jsonl"),
                         "--renormalize-empty"),
             "run": ("--scenarios", str(files / "scen.jsonl"))}[command]
    assert_refused(command, "--config", str(bad), *extra,
                   "--out", str(files / "out.jsonl"))


def bad_flags(files) -> list[tuple[str, ...]]:
    rec, scen = str(files / "rec.jsonl"), str(files / "scen.jsonl")
    out = ("--out", str(files / "out.json"))
    predict = ("predict", "--records", rec, *out)
    replay = ("run", "--manifest", str(files / "run.manifest.json"), *out)
    return [
        ("sample", "--condition", "testing", "--n", "-1", *out),
        ("sample", "--condition", "testing", "--n", "x", *out),
        ("sample", "--condition", "oc9", "--n", "1", *out),
        ("sample", "--condition", "", "--n", "1", *out),
        ("sample", "--condition", "testing", "--n", "1"),
        ("sample", "--condition", "testing", "--seed", "1.5", "--n", "1", *out),
        ("sample", "--condition", "testing", "--seed", "-1", "--n", "1", *out),
        ("sample", "--condition", "testing", "--seed", str(-2**64), "--n", "0",
         *out),
        (*predict, "--condition", "testing", "--grid", "x"),
        (*predict, "--condition", "testing", "--grid", "0,1,1"),
        (*predict, "--condition", "testing", "--grid", "2,2"),
        (*predict, "--condition", "testing", "--grid", "-1,2,2"),
        (*predict, "--condition", "testing", "--grid", "2,,2"),
        # int() takes these; a bin count is only the ASCII digits 0-9
        (*predict, "--condition", "testing", "--grid", "1_0,2,2"),
        (*predict, "--condition", "testing", "--grid", "1_0, \u0663,+2"),
        (*predict, "--condition", "testing", "--grid", " 2,2,2"),
        (*predict, "--condition", "testing", "--grid", "+2,2,2"),
        (*predict, "--condition", "testing", "--grid", "2,\u0663,2"),
        # (region, mode) numbers past int64
        (*predict, "--condition", "testing", "--grid",
         "9999999999999999999999,2,2"),
        (*predict, "--condition", "oc9"),
        predict,
        ("predict", "--condition", "testing", *out),
        ("predict", "--records", str(files / "nope.jsonl"), "--condition",
         "testing", *out),
        ("run", "--scenarios", scen, "--policy", "other", *out),
        ("run", "--scenarios", scen, "--safety", "--clip-max", "99", *out),
        ("run", "--scenarios", scen, "--safety", "--clip-max", "nan", *out),
        ("run", "--scenarios", scen, "--safety", "--delta", "60", *out),
        # the clip flags set the safety function, so they need --safety
        ("run", "--scenarios", scen, "--clip-max", "10", *out),
        ("run", "--scenarios", scen, "--delta", "3", *out),
        ("run", "--scenarios", scen, "--clip-max", "10", "--delta", "0.5",
         *out),
        # a clip of its own is no margin below the risk threshold
        ("run", "--scenarios", scen, "--safety", "--clip-max", "30",
         "--delta", "7", *out),
        ("run", "--scenarios", scen),
        ("run", *out),
        ("run", "--scenarios", scen, "--seed", "x", *out),
        ("run", "--scenarios", scen, "--seed", "-1", *out),
        ("run", "--scenarios", scen, "--safety", "--seed", str(-2**70), *out),
        ("run", "--scenarios", rec, *out),
        # a manifest fixes every flag that chooses the campaign
        (*replay, "--scenarios", scen),
        (*replay, "--config", str(files / "cond.json")),
        (*replay, "--condition", "testing"),
        (*replay, "--seed", "9"),
        (*replay, "--seed", "0"),
        (*replay, "--safety"),
        (*replay, "--clip-max", "3"),
        (*replay, "--delta", "0.5"),
        ("observe", *out),
        ("observe", "--records", scen, *out),
        ("compare", "--predicted", rec, "--observed", rec, *out),
        ("compare", "--predicted", rec, *out),
        ("plot", "--records", rec, "--dims", "v,z", *out),
        ("plot", "--records", rec, "--dims", "v", *out),
        ("plot", "--records", rec, "--dims", "", *out),
        ("plot", "--records", rec, "--dims", "v,t,y,v", *out),
        ("plot", "--records", rec, "--dims", "v,v", *out),
        ("plot", "--records", rec, "--dims", "t,y,t", *out),
        ("reproduce", "--out-dir", str(files / "repro"), "--grid", "x"),
        ("reproduce", "--out-dir", str(files / "repro"), "--n", "5",
         "--grid", "1_0,2,2"),
        ("reproduce", "--out-dir", str(files / "repro"), "--n", "5",
         "--grid", "1, 1,+1"),
        ("reproduce", "--out-dir", str(files / "repro"), "--n", "5",
         "--grid", "1,\u0661,1"),
        ("reproduce", "--out-dir", str(files / "repro"), "--n", "-1"),
        ("reproduce", "--out-dir", str(files / "repro"), "--n", "x"),
        ("reproduce", "--out-dir", str(files / "repro"), "--n", "5",
         "--grid", "1,1,1", "--seed", "-12"),
        # int() takes these; an integer flag is only an optional "-" and
        # the ASCII digits 0-9
        *(("sample", "--condition", "testing", "--n", n, *out)
          for n in ("1_0", " 5", "+3", "\u0663")),
        *(("sample", "--condition", "testing", "--n", "3", "--seed", seed,
           *out) for seed in ("1_0", " 5", "+3", "\u0663", " +\u0663")),
        *(("run", "--scenarios", scen, "--seed", seed, *out)
          for seed in ("1_0", " 5", "+3", "\u0663")),
        *(("reproduce", "--out-dir", str(files / "repro"), "--grid", "1,1,1",
           flag, value) for flag in ("--n", "--seed")
          for value in ("1_0", " 5", "+3", "\u0663")),
        ("launch",),
        (),
    ]


@settings(max_examples=200)
@given(data=st.data())
def test_bad_flags(files, data):
    assert_refused(*data.draw(st.sampled_from(bad_flags(files))))


@settings(max_examples=50)
@given(seed=st.integers(2**64, 2**80),
       command=st.sampled_from(["sample", "run", "manifest"]))
def test_seeds_beyond_64_bits_succeed(files, seed, command):
    """Master seeds of any size are valid: numpy's SeedSequence takes them
    as several 32-bit words, and so does the array seeding."""
    out = files / "big.jsonl"
    if command == "sample":
        argv = ("sample", "--condition", "testing", "--n", "3")
    elif command == "run":
        argv = ("run", "--scenarios", str(files / "scen.jsonl"))
    else:
        manifest = json.loads((files / "run.manifest.json").read_text())
        manifest["master_seed"] = seed
        (files / "big.manifest.json").write_text(json.dumps(manifest))
        argv = ("run", "--manifest", str(files / "big.manifest.json"))
    if command != "manifest":
        argv += ("--seed", str(seed))
    code, err = run(*argv, "--out", str(out))
    assert code == 0, err
    lines = out.read_text().splitlines()
    assert len(lines) == (3 if command == "sample" else 5)
