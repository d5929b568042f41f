from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from depgrid import (ConditionSet, EnvConfig, PartitionGrid,
                     ScriptedPolicyParams, TestCampaign, Uniform, sample)
from depgrid import ConfigError, pipeline, presets
from depgrid.cli import main, reproduce
from depgrid.records import (
    condition_document,
    read_report,
    read_scenarios,
    write_records,
    write_scenarios,
)
from conftest import file_sha256, old_format_text, seeded_format


def run_cli(*argv: str) -> int:
    return main(list(argv))


def blank_outcomes(text: str) -> str:
    """A record file's text with every line's outcome overwritten: mode
    success, steps 0 and final_position 0.0."""
    return "".join(json.dumps({**json.loads(line), "mode": "success",
                               "steps": 0, "final_position": 0.0}) + "\n"
                   for line in text.splitlines())


def scenario_column(records: Path) -> str:
    """The scenario column of a record file as the scenario file sample
    writes: each line's scenario as json.dumps writes it."""
    return "".join(json.dumps(json.loads(line)["scenario"]) + "\n"
                   for line in records.read_text().splitlines())


@pytest.fixture
def small_pipeline(tmp_path):
    """sample -> run at a size small enough for every CLI test."""
    scen = tmp_path / "scen.jsonl"
    rec = tmp_path / "rec.jsonl"
    assert run_cli("sample", "--condition", "testing", "--n", "400",
                   "--seed", "3", "--out", str(scen)) == 0
    assert run_cli("run", "--scenarios", str(scen), "--condition", "testing",
                   "--seed", "5", "--out", str(rec)) == 0
    return {"scen": scen, "rec": rec, "dir": tmp_path}


class TestSample:
    def test_zero_scenarios_ok(self, tmp_path):
        out = tmp_path / "none.jsonl"
        assert run_cli("sample", "--condition", "testing", "--n", "0",
                       "--out", str(out)) == 0
        assert out.read_text() == ""

    def test_requested_count(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert run_cli("sample", "--condition", "oc3", "--n", "1000",
                       "--seed", "1", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 1000

    def test_unknown_condition_exits_2(self, tmp_path, capsys):
        code = run_cli("sample", "--condition", "oc9", "--n", "5",
                       "--out", str(tmp_path / "x.jsonl"))
        assert code == 2
        assert "oc9" in capsys.readouterr().err

    def test_grid_of_wrong_rank_exits_2(self, tmp_path, capsys):
        doc = condition_document(presets.condition("oc1"),
                                 PartitionGrid((4, 4)), seed=0)
        cfg = tmp_path / "cond.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("sample", "--config", str(cfg), "--n", "5",
                       "--out", str(tmp_path / "s.jsonl")) == 2
        assert "InvalidGrid" in capsys.readouterr().err

    def test_custom_config_document(self, tmp_path):
        doc = condition_document(presets.condition("oc1"),
                                 presets.default_grid(), seed=0)
        cfg = tmp_path / "cond.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "s.jsonl"
        assert run_cli("sample", "--config", str(cfg), "--n", "50",
                       "--out", str(out)) == 0
        ys = [json.loads(line)[2] for line in out.read_text().splitlines()]
        assert max(ys) <= 30.0

    @pytest.mark.parametrize("edit", [
        lambda doc: {**doc, "grid": {"bins": ["x"]}},
        lambda doc: [doc],
        lambda doc: {**doc, "marginals": {**doc["marginals"], "v": [1, 2]}},
        # finite bounds whose width overflows: the domain and its uniform
        lambda doc: {**doc, "domain": [
            {**doc["domain"][0], "min": -1e308, "max": 1e308},
            *doc["domain"][1:]], "marginals": {**doc["marginals"], "v": {
                "kind": "uniform", "a": -1e308, "b": 1e308}}},
        # json writes and reads the NaN literal
        lambda doc: {**doc, "marginals": {**doc["marginals"], "v": {
            "kind": "clipped_gaussian", "mu": float("nan"), "sigma": 1}}},
    ], ids=["bad_bin_count", "list_document", "list_marginal",
            "overflowing_width", "nan_mu"])
    def test_malformed_config_document_exits_2(self, tmp_path, capsys, edit):
        doc = condition_document(presets.condition("oc1"),
                                 presets.default_grid(), seed=0)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(edit(doc)))
        assert run_cli("sample", "--config", str(cfg), "--n", "5",
                       "--out", str(tmp_path / "s.jsonl")) == 2
        assert "ConfigError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample", "predict", "run"])
    def test_non_utf8_config_exits_2_naming_the_file(self, small_pipeline,
                                                     tmp_path, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{\x00}\x00")
        inputs = {"sample": ("--n", "5"),
                  "predict": ("--records", str(small_pipeline["rec"])),
                  "run": ("--scenarios", str(small_pipeline["scen"]))}[command]
        out = tmp_path / "out.json"
        proc = subprocess.run(
            [sys.executable, "-m", "depgrid.cli", command, *inputs,
             "--config", str(bad), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"ConfigError: {bad}: ")
        assert "Traceback" not in proc.stderr and not out.exists()


class TestRunObservePredict:
    def test_observe_report(self, small_pipeline, tmp_path):
        out = tmp_path / "obs.json"
        assert run_cli("observe", "--records",
                       str(small_pipeline["rec"]), "--out", str(out)) == 0
        report = read_report(out)
        total = (report.dependability + report.task_undependability
                 + report.harmful_undependability)
        assert abs(total - 1.0) <= 1e-12

    def test_predict_identity_close_to_observed(self, small_pipeline, tmp_path):
        pred = tmp_path / "pred.json"
        obs = tmp_path / "obs.json"
        # 400 samples cannot cover 1000 voxels; use a coarse grid
        assert run_cli("predict", "--records", str(small_pipeline["rec"]),
                       "--condition", "testing", "--grid", "3,3,3",
                       "--out", str(pred)) == 0
        assert run_cli("observe", "--records", str(small_pipeline["rec"]),
                       "--out", str(obs)) == 0
        p, o = read_report(pred), read_report(obs)
        assert p.dependability == pytest.approx(o.dependability, abs=0.08)

    def test_empty_partition_exits_4_and_renormalize_recovers(
            self, tmp_path, capsys):
        space = presets.domain_space()
        low_y = ConditionSet("low_y", space, (
            Uniform(0, 10), Uniform(0, 10), Uniform(0, 25)))
        scen = tmp_path / "low.jsonl"
        write_scenarios(scen, sample(low_y, 300, 9))
        rec = tmp_path / "low_rec.jsonl"
        assert run_cli("run", "--scenarios", str(scen), "--seed", "7",
                       "--out", str(rec)) == 0
        out = tmp_path / "pred.json"
        code = run_cli("predict", "--records", str(rec), "--condition", "oc2",
                       "--grid", "10,10,10", "--out", str(out))
        assert code == 4
        assert "no test samples" in capsys.readouterr().err
        assert run_cli("predict", "--records", str(rec), "--condition", "oc2",
                       "--grid", "10,10,10", "--renormalize-empty",
                       "--out", str(out)) == 0
        report = read_report(out)
        assert report.renormalized and report.dropped_mass == 1.0

    def test_predict_report_bytes_do_not_depend_on_blas_threads(
            self, tmp_path):
        """A 22^3 grid has more regions than the length at which OpenBLAS
        splits a dot product over threads; the report is the same with one
        thread as with the default number."""
        rng = np.random.default_rng(49)
        xs = sample(presets.condition("testing"), 20000, 49)
        records = tmp_path / "rec.jsonl"
        write_records(records, TestCampaign(
            "random", xs, rng.integers(0, 3, len(xs)).astype(np.int8),
            np.full(len(xs), 50), np.zeros(len(xs))))
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        reports = []
        for threads in (None, "1"):
            out = tmp_path / f"pred-{threads}.json"
            run_env = env if threads is None else {
                **env, "OPENBLAS_NUM_THREADS": threads}
            subprocess.run(
                [sys.executable, "-m", "depgrid.cli", "predict", "--records",
                 str(records), "--condition", "oc3", "--grid", "22,22,22",
                 "--renormalize-empty", "--out", str(out)],
                env=run_env, check=True, capture_output=True)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_malformed_records_exit_3(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert run_cli("observe", "--records", str(bad),
                       "--out", str(tmp_path / "r.json")) == 3

    def test_empty_records_exit_3(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert run_cli("observe", "--records", str(empty),
                       "--out", str(tmp_path / "r.json")) == 3

    def test_rerun_from_manifest_is_byte_identical(self, small_pipeline,
                                                   tmp_path):
        manifest = small_pipeline["rec"].with_suffix(".manifest.json")
        assert manifest.exists()
        out2 = tmp_path / "rec2.jsonl"
        assert run_cli("run", "--manifest", str(manifest),
                       "--out", str(out2)) == 0
        assert out2.read_bytes() == small_pipeline["rec"].read_bytes()

    def test_manifest_refuses_the_flags_it_fixes(self, small_pipeline,
                                                 tmp_path, capsys):
        """A replay takes its seed, safety function and inputs from the
        manifest, so a flag that would choose them is refused, not ignored."""
        manifest = small_pipeline["rec"].with_suffix(".manifest.json")
        out = tmp_path / "again.jsonl"
        assert run_cli("run", "--manifest", str(manifest), "--out", str(out),
                       "--seed", "9", "--safety", "--clip-max", "3") == 2
        assert capsys.readouterr().err == (
            "ConfigError: --manifest fixes the campaign; it takes no "
            "--seed, --safety, --clip-max\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--clip-max", "10"), ("--delta", "3"),
        ("--clip-max", "10", "--delta", "0.5")],
        ids=["clip-max", "delta", "both"])
    def test_clip_flags_without_safety_exit_2(self, small_pipeline, tmp_path,
                                              capsys, flags):
        """--clip-max and --delta set the safety function; without --safety
        they would do nothing, so they are refused."""
        out = tmp_path / "r.jsonl"
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "ConfigError: --clip-max and --delta set the safety function; "
            "give --safety too\n")
        assert not out.exists()

    @pytest.mark.parametrize("delta", ["7", "0.5"])
    def test_clip_max_with_delta_exits_2(self, small_pipeline, tmp_path,
                                         capsys, delta):
        """A --clip-max clip is no --delta below the risk threshold, so a
        manifest of the pair would record a false delta; none is written."""
        out = tmp_path / "r.jsonl"
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       "--safety", "--clip-max", "30", "--delta", delta,
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(
            "ConfigError: --clip-max sets the clip itself, not --delta")
        assert not out.exists()
        assert not out.with_suffix(".manifest.json").exists()

    @pytest.mark.parametrize("flags, field", [
        (("--clip-max", "10", "--delta", "nan"), "delta"),
        (("--clip-max", "10", "--delta=-inf"), "delta"),
        (("--clip-max", "inf"), "goal_clip_max"),
        (("--delta", "inf"), "goal_clip_max")],
        ids=["nan-delta", "-inf-delta", "inf-clip-max", "inf-delta"])
    def test_non_finite_safety_flags_exit_2(self, small_pipeline, tmp_path,
                                           capsys, flags, field):
        out = tmp_path / "r.jsonl"
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       "--safety", *flags, "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(
            f"ConfigError: {field} must be finite, got ")
        assert not out.exists()

    def test_manifest_replays_from_another_working_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("sample", "--condition", "testing", "--n", "40",
                       "--seed", "3", "--out", "s.jsonl") == 0
        assert run_cli("run", "--scenarios", "s.jsonl", "--seed", "5",
                       "--out", "out/r.jsonl") == 0
        manifest = json.loads(Path("out/r.manifest.json").read_text())
        assert manifest["records_path"] == "r.jsonl"
        # the record file is the only copy of the scenarios a replay needs
        Path("s.jsonl").unlink()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run_cli("run", "--manifest", "../out/r.manifest.json",
                       "--out", "again.jsonl") == 0
        assert (Path("again.jsonl").read_bytes()
                == (tmp_path / "out" / "r.jsonl").read_bytes())

    def test_replay_needs_no_condition_document(self, small_pipeline,
                                                tmp_path):
        """The manifest of a run --config holds the env it ran, so the
        campaign replays byte for byte after its condition document has been
        edited and then deleted."""
        cfg = tmp_path / "c.json"
        doc = condition_document(
            presets.condition("testing"), presets.default_grid(), seed=0,
            env=EnvConfig(danger_height=30.0, noise_sigma_goal=2.0))
        cfg.write_text(json.dumps(doc))
        rec = tmp_path / "configured.jsonl"
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       "--config", str(cfg), "--seed", "5",
                       "--out", str(rec)) == 0
        manifest = rec.with_suffix(".manifest.json")
        assert json.loads(manifest.read_text())["env"] == doc["env"]
        doc["env"].update(danger_height=22.0)
        cfg.write_text(json.dumps(doc))
        for again in (tmp_path / "edited.jsonl", tmp_path / "deleted.jsonl"):
            assert run_cli("run", "--manifest", str(manifest),
                           "--out", str(again)) == 0
            assert again.read_bytes() == rec.read_bytes()
            cfg.unlink(missing_ok=True)

    def test_replay_refuses_a_changed_scenario_count(self, small_pipeline,
                                                     tmp_path, capsys):
        """A record file of another row count than the manifest's n_records
        exits 3 naming it, and nothing is written, in place or to --out."""
        rec = small_pipeline["rec"]
        manifest = rec.with_suffix(".manifest.json")
        lines = rec.read_text().splitlines(keepends=True)
        for edited, count in ((lines + lines[:1], 401), (lines[1:], 399)):
            rec.write_text("".join(edited))
            files = {p: p.read_bytes() for p in tmp_path.iterdir()}
            again = tmp_path / "again.jsonl"
            for out in (("--out", str(again)), ()):
                assert run_cli("run", "--manifest", str(manifest), *out) == 3
                assert capsys.readouterr().err == (
                    f"DataError: {rec}: {count} records, {manifest} recorded "
                    f"400\n")
                assert {p: p.read_bytes() for p in tmp_path.iterdir()} == files

    def test_replay_names_the_record_line_outside_the_domain(
            self, small_pipeline, tmp_path, capsys):
        rec = small_pipeline["rec"]
        lines = rec.read_text().splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]),
                               "scenario": [11.0, 5.0, 30.0]}) + "\n"
        rec.write_text("".join(lines))
        again = tmp_path / "again.jsonl"
        assert run_cli("run", "--manifest", str(rec.with_suffix(
            ".manifest.json")), "--out", str(again)) == 3
        assert capsys.readouterr().err.startswith(
            f"OutOfDomain: {rec}: line 2: v = 11.0 outside")
        assert not again.exists()

    def test_manifest_without_scenario_hash_replays_unchecked(
            self, small_pipeline, tmp_path):
        """A manifest holds no scenario hash; one written before the record
        file became the only copy of the scenarios also names a scenario
        file and its sha256, which are ignored: it replays from its record
        file, whose copy of the scenarios is the one the campaign ran."""
        path = small_pipeline["rec"].with_suffix(".manifest.json")
        manifest = json.loads(path.read_text())
        assert not {"scenarios_path", "scenarios_sha256"} & manifest.keys()
        small_pipeline["scen"].unlink()
        for extra in ({}, {"scenarios_path": "scen.jsonl",
                           "scenarios_sha256": "0" * 64}):
            old = small_pipeline["dir"] / "old.manifest.json"
            old.write_text(json.dumps({**manifest, **extra}))
            again = tmp_path / "again.jsonl"
            assert run_cli("run", "--manifest", str(old),
                           "--out", str(again)) == 0
            assert again.read_bytes() == small_pipeline["rec"].read_bytes()
            assert json.loads(again.with_suffix(
                ".manifest.json").read_text()) == {
                    **manifest, "records_path": "again.jsonl"}

    @pytest.mark.parametrize("where", ["absolute", "parent"])
    def test_records_path_outside_the_manifest_directory_exits_3(
            self, small_pipeline, tmp_path, capsys, where):
        """A manifest whose records_path names a file outside its directory,
        by an absolute path or through "..", is refused before anything is
        read or written, though that file is a good record file."""
        rec = small_pipeline["rec"]
        manifest = json.loads(rec.with_suffix(".manifest.json").read_text())
        sub = tmp_path / "sub"
        sub.mkdir()
        bad = sub / "bad.manifest.json"
        name = str(rec) if where == "absolute" else f"../{rec.name}"
        bad.write_text(json.dumps({**manifest, "records_path": name}))
        files = {p: p.read_bytes() for p in tmp_path.rglob("*")
                 if p.is_file()}
        assert run_cli("run", "--manifest", str(bad)) == 3
        assert capsys.readouterr().err == (
            f"DataError: {bad}: records_path must be a bare file name, "
            f"got {name!r}\n")
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == files

    @pytest.mark.parametrize("argv", [
        ("predict", "--records", "nope.jsonl", "--condition", "testing"),
        ("observe", "--records", "nope.jsonl"),
        ("compare", "--predicted", "nope.json", "--observed", "nope.json"),
        ("run", "--scenarios", "nope.jsonl"),
        ("run", "--manifest", "nope.manifest.json"),
    ])
    def test_missing_input_file_exits_3(self, tmp_path, monkeypatch, capsys,
                                        argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--out", "x.json") == 3
        assert "nope" in capsys.readouterr().err

    def test_nan_record_exits_3_without_traceback(self, small_pipeline,
                                                  tmp_path):
        lines = small_pipeline["rec"].read_text().splitlines(keepends=True)
        record = json.loads(lines[0])
        record["scenario"][0] = float("nan")
        bad = tmp_path / "nan.jsonl"
        bad.write_text("".join(lines[1:]) + json.dumps(record) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "depgrid.cli", "predict", "--records",
             str(bad), "--condition", "testing", "--grid", "2,2,2",
             "--out", str(tmp_path / "p.json")],
            capture_output=True, text=True)
        assert proc.returncode == 3
        assert "OutOfDomain" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["plot", "observe"])
    @pytest.mark.parametrize("field, value", [
        ("scenario", [float("nan"), 5.0, 30.0]),
        ("scenario", [5.0, float("inf"), 30.0]),
        ("final_position", float("nan")),
        ("steps", -1),
    ])
    def test_invalid_record_exits_3(self, tmp_path, capsys, command, field,
                                    value):
        record = {"scenario": [5.0, 5.0, 30.0], "mode": "task_failure",
                  "steps": 100, "final_position": 20.0, field: value}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(record) + "\n")
        extra = ("--dims", "v,y") if command == "plot" else ()
        assert run_cli(command, "--records", str(bad), *extra,
                       "--out", str(tmp_path / "out")) == 3
        assert "bad.jsonl: line 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value", [
        ("steps", 99.5), ("steps", "100"), ("steps", True),
    ])
    def test_record_integers_must_be_json_integers(self, tmp_path, capsys,
                                                   field, value):
        good = {"scenario": [5.0, 5.0, 30.0], "mode": "task_failure",
                "steps": 100, "final_position": 20.0}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(good) + "\n"
                       + json.dumps({**good, field: value}) + "\n")
        assert run_cli("observe", "--records", str(bad),
                       "--out", str(tmp_path / "r.json")) == 3
        assert "bad.jsonl: line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("master_seed", 5.9), ("master_seed", "7"), ("master_seed", True),
        ("n_records", 400.0), ("n_records", "400"), ("n_records", -1),
    ])
    def test_manifest_integers_must_be_json_integers(self, small_pipeline,
                                                     tmp_path, capsys, field,
                                                     value):
        manifest = json.loads(
            small_pipeline["rec"].with_suffix(".manifest.json").read_text())
        bad = small_pipeline["dir"] / "bad.manifest.json"
        bad.write_text(json.dumps({**manifest, field: value}))
        out = tmp_path / "again.jsonl"
        assert run_cli("run", "--manifest", str(bad), "--out", str(out)) == 3
        assert "bad.manifest.json" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section", [
        {"policy": {"name": "scripted", "params": {"bogus": 1}}},
        {"env": {"episode_seconds": 100}},
    ], ids=["unknown_policy_param", "incomplete_env"])
    def test_malformed_run_config_exits_2(self, small_pipeline, tmp_path,
                                          section):
        doc = condition_document(presets.condition("testing"),
                                 presets.default_grid(), seed=0)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**doc, **section}))
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       "--config", str(cfg),
                       "--out", str(tmp_path / "r.jsonl")) == 2

    @pytest.mark.parametrize("edit", [
        lambda m: m["policy"]["params"].__setitem__("bogus", 1),
        lambda m: m["policy"]["params"].__setitem__("safe_ceiling", "x"),
        lambda m: m["policy"].__setitem__("params", 5),
        lambda m: m["policy"].__setitem__("params", [1, 2]),
        lambda m: m.__setitem__("policy", 5),
        lambda m: m["policy"].__setitem__("name", "other"),
        lambda m: m.__setitem__("safety", {"goal_clip_max": 30.0,
                                           "bogus": 1}),
        lambda m: m.__setitem__("safety", {"goal_clip_max": None}),
        lambda m: m.__setitem__("safety", [30.0]),
        lambda m: m.__setitem__("safety", {"goal_clip_max": 99.0,
                                           "delta": 0.5}),
        lambda m: m["policy"]["params"].__setitem__("safe_ceiling", -1.0),
        lambda m: m["policy"]["params"].__setitem__("passed_margin",
                                                    float("nan")),
        lambda m: m["policy"]["params"].__setitem__("risk_goal_threshold",
                                                    80.0),
        lambda m: m.pop("env"),
        lambda m: m["env"].__setitem__("robot_bounds", [0.0, 30.0]),
        lambda m: m.__setitem__("safety", {"goal_clip_max": 50.5,
                                           "delta": 0.5}),
        lambda m: m["env"].__setitem__("episode_seconds", 10**12),
    ], ids=["unknown_param", "string_param", "int_params", "list_params",
            "int_policy", "unknown_policy", "unknown_safety_key", "null_clip",
            "list_safety", "clip_out_of_range", "negative_ceiling",
            "nan_margin", "threshold_outside_env", "no_env",
            "env_below_threshold", "clip_above_env", "episode_over_cap"])
    def test_malformed_manifest_exits_3(self, small_pipeline, tmp_path,
                                        capsys, edit):
        """Wrong types, and well-typed values out of range, whether of their
        own class or of the env the manifest replays, are refused naming
        the manifest, and nothing is written."""
        manifest = json.loads(
            small_pipeline["rec"].with_suffix(".manifest.json").read_text())
        edit(manifest)
        bad = small_pipeline["dir"] / "bad.manifest.json"
        bad.write_text(json.dumps(manifest))
        out = tmp_path / "again.jsonl"
        assert run_cli("run", "--manifest", str(bad), "--out", str(out)) == 3
        assert capsys.readouterr().err.startswith(f"DataError: {bad}: ")
        assert not out.exists()
        assert not out.with_suffix(".manifest.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["policy"]["params"].update(risk_goal_threshold=True),
        lambda doc: doc["env"].update(noise_sigma_gaol=9.0),
        lambda doc: doc["env"].update(noise_sigma_goal=float("nan")),
        lambda doc: doc["policy"]["params"].update(passed_margin=float("inf")),
        lambda doc: doc["env"].update(episode_seconds=10**12),
    ], ids=["bool_threshold", "misspelled_env_key", "nan_sigma",
            "infinite_margin", "episode_over_cap"])
    def test_malformed_config_section_exits_2_writing_nothing(
            self, small_pipeline, tmp_path, capsys, edit):
        """A bool policy field, read as 1.0, a misspelled env key, left
        unread, a NaN or infinite number, which json reads from its NaN
        and Infinity tokens, or an episode longer than the cap, whose noise
        would not fit in memory, is refused with the document's name."""
        doc = condition_document(presets.condition("testing"),
                                 presets.default_grid(), seed=0,
                                 env=presets.default_env(),
                                 params=presets.default_policy_params())
        edit(doc)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "r.jsonl"
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(f"ConfigError: {cfg}: ")
        assert not out.exists()
        assert not out.with_suffix(".manifest.json").exists()

    def test_manifest_safety_of_wrong_types_exits_3_writing_nothing(
            self, small_pipeline, tmp_path, capsys):
        """A bool clip bound, read as 1.0, and a string delta are refused
        with the manifest's name."""
        rec = tmp_path / "safe.jsonl"
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       "--safety", "--out", str(rec)) == 0
        manifest = json.loads(rec.with_suffix(".manifest.json").read_text())
        manifest["safety"] = {"goal_clip_max": True, "delta": "x"}
        bad = tmp_path / "bad.manifest.json"
        bad.write_text(json.dumps(manifest))
        out = tmp_path / "again.jsonl"
        assert run_cli("run", "--manifest", str(bad), "--out", str(out)) == 3
        assert capsys.readouterr().err.startswith(f"DataError: {bad}: ")
        assert not out.exists()
        assert not out.with_suffix(".manifest.json").exists()

    def test_policy_bounds_follow_a_custom_env(self, small_pipeline, tmp_path):
        """A ceiling of 50 and a threshold of 80 fit a 100-inch track whose
        danger height is 60."""
        cfg = tmp_path / "tall.json"
        cfg.write_text(json.dumps(condition_document(
            presets.condition("testing"), presets.default_grid(), seed=0,
            env=EnvConfig(robot_bounds=(0.0, 100.0), danger_height=60.0),
            params=ScriptedPolicyParams(risk_goal_threshold=80.0,
                                        safe_ceiling=50.0))))
        rec = tmp_path / "tall.jsonl"
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       "--config", str(cfg), "--out", str(rec)) == 0
        manifest = json.loads(rec.with_suffix(".manifest.json").read_text())
        assert manifest["policy"]["params"] == {
            "risk_goal_threshold": 80.0, "safe_ceiling": 50.0,
            "passed_margin": 0.0}
        # the replay checks the params against the env it replays
        before = rec.read_bytes()
        assert run_cli("run", "--manifest",
                       str(rec.with_suffix(".manifest.json"))) == 0
        assert rec.read_bytes() == before

    @pytest.fixture
    def big_config(self, tmp_path):
        """A condition document of a 100-inch track whose danger height is
        50, with a risk threshold of 80 and a safe ceiling of 40."""
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(condition_document(
            presets.condition("testing"), presets.default_grid(), seed=0,
            env=EnvConfig(robot_bounds=(0.0, 100.0), danger_height=50.0),
            params=ScriptedPolicyParams(risk_goal_threshold=80.0,
                                        safe_ceiling=40.0))))
        return cfg

    def test_safety_clip_follows_a_custom_env(self, small_pipeline,
                                              big_config, tmp_path):
        """The governor's clip, the threshold less delta, may lie above 50
        on a taller track; the replay checks it against the env it
        replays."""
        rec = tmp_path / "big.jsonl"
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       "--config", str(big_config), "--safety",
                       "--out", str(rec)) == 0
        manifest = rec.with_suffix(".manifest.json")
        assert json.loads(manifest.read_text())["safety"] == {
            "goal_clip_max": 79.5, "delta": 0.5}
        before = rec.read_bytes()
        assert run_cli("run", "--manifest", str(manifest)) == 0
        assert rec.read_bytes() == before

    @pytest.mark.parametrize("clip_max, config", [
        ("100.5", True), ("50.5", False)], ids=["big_env", "default_env"])
    def test_clip_above_the_env_exits_2(self, small_pipeline, big_config,
                                        tmp_path, capsys, clip_max, config):
        out = tmp_path / "r.jsonl"
        flags = ("--config", str(big_config)) if config else ()
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       *flags, "--safety", "--clip-max", clip_max,
                       "--out", str(out)) == 2
        assert capsys.readouterr().err.startswith(
            f"ConfigError: goal_clip_max {clip_max} above the robot bounds ")
        assert not out.exists()

    @pytest.mark.parametrize("scenario", [[5.0, 5.0], [5.0, 5.0, 30.0, 1.0]])
    def test_record_of_wrong_dimension_exits_3(self, small_pipeline, tmp_path,
                                               capsys, scenario):
        record = {"scenario": scenario, "mode": "success", "seed": 1,
                  "steps": 100, "final_position": 50.0}
        bad = tmp_path / "bad.jsonl"
        bad.write_text(small_pipeline["rec"].read_text()
                       + json.dumps(record) + "\n")
        assert run_cli("predict", "--records", str(bad), "--condition",
                       "testing", "--grid", "2,2,2",
                       "--out", str(tmp_path / "p.json")) == 3
        assert "OutOfDomain" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["observe", "plot"])
    @pytest.mark.parametrize("scenario", [
        [1e9, 5.0], [5.0, 5.0, 60.0], [-1.0, 5.0, 30.0], [5.0, 5.0, 30.0, 1.0],
    ])
    def test_record_outside_the_domain_exits_3(self, tmp_path, capsys,
                                               command, scenario):
        good = {"scenario": [5.0, 5.0, 30.0], "mode": "task_failure",
                "seed": 1, "steps": 100, "final_position": 20.0}
        odd = tmp_path / "odd.jsonl"
        odd.write_text(json.dumps(good) + "\n"
                       + json.dumps({**good, "scenario": scenario}) + "\n")
        extra = ("--dims", "v,y") if command == "plot" else ()
        out = tmp_path / "out"
        assert run_cli(command, "--records", str(odd), *extra,
                       "--out", str(out)) == 3
        err = capsys.readouterr().err
        # the reader refuses a scenario of the wrong length, the domain check
        # one outside the bounds; both name the line
        assert "OutOfDomain" in err and "odd.jsonl: line 2: " in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["observe", "predict", "plot", "run"])
    def test_row_after_a_blank_line_is_named_by_its_line(self, tmp_path,
                                                         capsys, command):
        good = {"scenario": [5.0, 5.0, 30.0], "mode": "task_failure",
                "seed": 1, "steps": 100, "final_position": 20.0}
        rows = ((good["scenario"], [11.0, 5.0, 30.0]) if command == "run"
                else (good, {**good, "scenario": [11.0, 5.0, 30.0]}))
        odd = tmp_path / "odd.jsonl"
        odd.write_text(json.dumps(rows[0]) + "\n\n" + json.dumps(rows[1]) + "\n")
        flags = {"observe": ("--records", str(odd)),
                 "predict": ("--records", str(odd), "--condition", "testing"),
                 "plot": ("--records", str(odd), "--dims", "v,y"),
                 "run": ("--scenarios", str(odd))}[command]
        out = tmp_path / "out"
        assert run_cli(command, *flags, "--out", str(out)) == 3
        assert (f"OutOfDomain: {odd}: line 3: v = 11.0 outside"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_scenario_outside_the_domain_names_file_and_scenario(
            self, tmp_path, capsys):
        scen = tmp_path / "sc.jsonl"
        scen.write_text("[5.0, 5.0, 30.0]\n[11.0, 5.0, 30.0]\n")
        out = tmp_path / "rec.jsonl"
        assert run_cli("run", "--scenarios", str(scen),
                       "--out", str(out)) == 3
        assert (f"OutOfDomain: {scen}: line 2: v = 11.0 outside"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_old_format_records_write_the_same_reports(self, small_pipeline,
                                                       tmp_path):
        """A record file whose lines also hold the seed, or the seed and the
        collision_time, they held before those were dropped gives the
        reports of the file written now."""
        new = small_pipeline["rec"]
        old = tmp_path / "old.jsonl"
        old.write_text(old_format_text(new.read_text(), 5))
        assert '"collision_time": null}' in old.read_text()
        assert re.search(r'"collision_time": [0-9]+\.0}', old.read_text())
        seeded = tmp_path / "seeded.jsonl"
        seeded.write_text(old_format_text(new.read_text(), 5, seeded_format))
        assert seeded.read_text().count('"seed": ') == 400
        for records in (new, old, seeded):
            out = tmp_path / records.stem
            assert run_cli("predict", "--records", str(records), "--condition",
                           "oc3", "--grid", "2,2,2",
                           "--out", str(out / "predicted.json")) == 0
            assert run_cli("observe", "--records", str(records),
                           "--out", str(out / "observed.json")) == 0
        for report in ("predicted.json", "observed.json"):
            for stem in ("old", "seeded"):
                assert ((tmp_path / stem / report).read_bytes()
                        == (tmp_path / new.stem / report).read_bytes())

    def test_observe_checks_records_against_the_config_domain(self, tmp_path):
        doc = condition_document(presets.condition("testing"),
                                 presets.default_grid(), seed=0)
        doc["domain"][2]["max"] = 100.0
        cfg = tmp_path / "tall.json"
        cfg.write_text(json.dumps(doc))
        record = {"scenario": [5.0, 5.0, 60.0], "mode": "task_failure",
                  "seed": 1, "steps": 100, "final_position": 50.0}
        rec = tmp_path / "tall.jsonl"
        rec.write_text(json.dumps(record) + "\n")
        out = tmp_path / "obs.json"
        assert run_cli("observe", "--records", str(rec),
                       "--out", str(out)) == 3
        assert run_cli("observe", "--records", str(rec), "--config", str(cfg),
                       "--out", str(out)) == 0
        assert read_report(out).task_undependability == 1.0

    def test_run_with_safety_records_settings(self, small_pipeline, tmp_path):
        rec = tmp_path / "safe.jsonl"
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       "--safety", "--seed", "5", "--out", str(rec)) == 0
        manifest = json.loads(rec.with_suffix(".manifest.json").read_text())
        assert manifest["safety"] == {
            "goal_clip_max": pytest.approx(38.47 - 0.5), "delta": 0.5}

    def test_clip_max_records_its_margin_as_delta(self, small_pipeline,
                                                  tmp_path):
        """A clip given itself lies 38.47 - 30.0 below the default risk
        threshold, not the default delta below it; the governor reads only
        the clip, so the manifest replays the records byte for byte."""
        rec = tmp_path / "clip.jsonl"
        assert run_cli("run", "--scenarios", str(small_pipeline["scen"]),
                       "--safety", "--clip-max", "30", "--seed", "5",
                       "--out", str(rec)) == 0
        manifest = rec.with_suffix(".manifest.json")
        assert json.loads(manifest.read_text())["safety"] == {
            "goal_clip_max": 30.0, "delta": 38.47 - 30.0}
        before = rec.read_bytes()
        assert run_cli("run", "--manifest", str(manifest)) == 0
        assert rec.read_bytes() == before


class TestCompareAndPlot:
    def test_compare_outputs_json_and_valid_svg(self, small_pipeline,
                                                tmp_path):
        obs = tmp_path / "obs.json"
        run_cli("observe", "--records", str(small_pipeline["rec"]),
                "--out", str(obs))
        out = tmp_path / "cmp.json"
        svg = tmp_path / "cmp.svg"
        assert run_cli("compare", "--predicted", str(obs), "--observed",
                       str(obs), "--out", str(out), "--svg", str(svg)) == 0
        deltas = json.loads(out.read_text())["deltas_pts"]
        assert all(v == 0.0 for v in deltas.values())
        root = ET.parse(svg).getroot()  # must be valid XML
        assert root.tag.endswith("svg")

    @pytest.mark.parametrize("paths", [("--out", "cmp.svg"),
                                       ("--out", "d.json", "--svg", "./d.json")],
                             ids=["default_chart_path", "two_spellings"])
    def test_chart_path_naming_the_deltas_file_exits_2(
            self, small_pipeline, tmp_path, monkeypatch, capsys, paths):
        """A chart path that names the deltas file, as --out's default .svg
        path or by another spelling, is refused, and neither is written."""
        obs = tmp_path / "obs.json"
        assert run_cli("observe", "--records", str(small_pipeline["rec"]),
                       "--out", str(obs)) == 0
        monkeypatch.chdir(tmp_path)
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run_cli("compare", "--predicted", str(obs), "--observed",
                       str(obs), *paths) == 2
        assert capsys.readouterr().err.startswith("ConfigError: cannot write ")
        assert set(tmp_path.iterdir()) == before

    def test_malformed_report_exits_3_without_traceback(self, small_pipeline,
                                                        tmp_path):
        pred = tmp_path / "pred.json"
        assert run_cli("predict", "--records", str(small_pipeline["rec"]),
                       "--condition", "testing", "--grid", "2,2,2",
                       "--out", str(pred)) == 0
        doc = json.loads(pred.read_text())
        doc["n_success"][3] = 1.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        doc["edges"][0] = None
        null_edges = tmp_path / "null_edges.json"
        null_edges.write_text(json.dumps(doc))
        row_per_region = tmp_path / "row_per_region.json"
        row_per_region.write_text(json.dumps({
            **{k: doc[k] for k in ("condition", "dependability",
                                   "task_undependability",
                                   "harmful_undependability")},
            "per_region": [{"index": [0, 0, 0], "mass": 1.0}]}))
        for report in (bad, null_edges, row_per_region):
            proc = subprocess.run(
                [sys.executable, "-m", "depgrid.cli", "compare",
                 "--predicted", str(report), "--observed", str(pred),
                 "--out", str(tmp_path / "cmp.json")],
                capture_output=True, text=True)
            assert proc.returncode == 3
            assert f"DataError: {report}" in proc.stderr
            assert "Traceback" not in proc.stderr
        # the last file has the earlier layout
        assert "re-run depgrid predict" in proc.stderr

    def test_plot_failures_svg(self, small_pipeline, tmp_path):
        svg = tmp_path / "fail.svg"
        assert run_cli("plot", "--records", str(small_pipeline["rec"]),
                       "--dims", "v,y", "--out", str(svg)) == 0
        root = ET.parse(svg).getroot()
        labels = [el.text for el in root.iter()
                  if el.tag.endswith("text") and el.text]
        assert any("v [in/s]" in t for t in labels)
        assert any("y [in]" in t for t in labels)

    def test_plot_three_dims(self, small_pipeline, tmp_path):
        svg = tmp_path / "fail3.svg"
        assert run_cli("plot", "--records", str(small_pipeline["rec"]),
                       "--dims", "v,t,y", "--out", str(svg)) == 0
        ET.parse(svg)

    def test_plot_zero_failure_campaign(self, tmp_path):
        space = presets.domain_space()
        easy = ConditionSet("easy", space, (
            Uniform(2, 10), Uniform(0, 10), Uniform(0, 10)))
        scen = tmp_path / "easy.jsonl"
        write_scenarios(scen, sample(easy, 40, 30))
        rec = tmp_path / "easy_rec.jsonl"
        run_cli("run", "--scenarios", str(scen), "--seed", "31",
                "--out", str(rec))
        svg = tmp_path / "none.svg"
        assert run_cli("plot", "--records", str(rec), "--dims", "v,y",
                       "--out", str(svg)) == 0
        ET.parse(svg)

    @pytest.mark.parametrize("dims", ["v,v", "v,t,v", "y,y,y"])
    def test_repeated_dimension_exits_2(self, small_pipeline, tmp_path, capsys,
                                        dims):
        svg = tmp_path / "x.svg"
        assert run_cli("plot", "--records", str(small_pipeline["rec"]),
                       "--dims", dims, "--out", str(svg)) == 2
        assert "must differ" in capsys.readouterr().err
        assert not svg.exists()

    def test_unknown_dimension_exits_2(self, small_pipeline, tmp_path):
        assert run_cli("plot", "--records", str(small_pipeline["rec"]),
                       "--dims", "v,z", "--out",
                       str(tmp_path / "x.svg")) == 2


# each subcommand that writes a file, with that file's path as "{out}"
WRITING_ARGVS = {
    "sample": ("sample", "--condition", "testing", "--n", "5",
               "--out", "{out}"),
    "run": ("run", "--scenarios", "{scen}", "--out", "{out}"),
    "predict": ("predict", "--records", "{rec}", "--condition", "testing",
                "--grid", "2,2,2", "--out", "{out}"),
    "observe": ("observe", "--records", "{rec}", "--out", "{out}"),
    "compare-out": ("compare", "--predicted", "{report}", "--observed",
                    "{report}", "--out", "{out}"),
    "compare-svg": ("compare", "--predicted", "{report}", "--observed",
                    "{report}", "--out", "{dir}/cmp.json", "--svg", "{out}"),
    "plot": ("plot", "--records", "{rec}", "--dims", "v,y", "--out", "{out}"),
    "reproduce": ("reproduce", "--out-dir", "{out}", "--n", "20",
                  "--grid", "1,1,1"),
}


class TestOutputPaths:
    # reproduce writes into a directory, so only a path under a file fails
    @pytest.mark.parametrize("argv, kind", [
        pytest.param(argv, kind, id=f"{name}-{kind}")
        for name, argv in WRITING_ARGVS.items()
        for kind in ("under-a-file", "a-directory")
        if (name, kind) != ("reproduce", "a-directory")])
    def test_unwritable_output_exits_2(self, small_pipeline, tmp_path,
                                       capsys, argv, kind):
        """An output path under a regular file, or one that is a directory,
        exits 2 with one stderr line naming it, and leaves no temp file."""
        report = tmp_path / "obs.json"
        assert run_cli("observe", "--records", str(small_pipeline["rec"]),
                       "--out", str(report)) == 0
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "out"
        if kind == "a-directory":
            out = tmp_path / "adir"
            out.mkdir()
        paths = {**small_pipeline, "report": report, "out": out}
        before = set(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run_cli(*(a.format(**paths) for a in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigError: cannot write {out}")
        assert err.count("\n") == 1
        assert afile.read_text() == "kept\n"
        # nothing is left behind: compare writes its deltas file only
        # with its chart, and neither when one path cannot be written
        assert not (tmp_path / "cmp.json").exists()
        assert set(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_written_files_get_the_umask_mode(self, small_pipeline, tmp_path,
                                             umask):
        """A written file has mode 0o666 less the umask, as open() would
        give it: sample's one file and compare's deltas file and chart."""
        report = tmp_path / "obs.json"
        assert run_cli("observe", "--records", str(small_pipeline["rec"]),
                       "--out", str(report)) == 0
        old = os.umask(umask)
        try:
            assert run_cli("sample", "--condition", "testing", "--n", "5",
                           "--out", str(tmp_path / "s.jsonl")) == 0
            assert run_cli("compare", "--predicted", str(report),
                           "--observed", str(report),
                           "--out", str(tmp_path / "cmp.json")) == 0
        finally:
            os.umask(old)
        for name in ("s.jsonl", "cmp.json", "cmp.svg"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask


# every file of a reproduce tree
REPRODUCE_TREE = [
    "conditions/oc1.json", "conditions/oc2.json", "conditions/oc3.json",
    "conditions/oc4.json", "conditions/testing.json",
    "plots/comparison.svg", "plots/failures_testing.svg",
    "plots/failures_testing_safety.svg",
    "records/oc1.jsonl", "records/oc1.manifest.json",
    "records/oc2.jsonl", "records/oc2.manifest.json",
    "records/oc3.jsonl", "records/oc3.manifest.json",
    "records/oc4.jsonl", "records/oc4.manifest.json",
    "records/testing.jsonl", "records/testing.manifest.json",
    "records/testing_safety.jsonl", "records/testing_safety.manifest.json",
    "reports/observed_oc1.json", "reports/observed_oc2.json",
    "reports/observed_oc3.json", "reports/observed_oc4.json",
    "reports/observed_testing.json", "reports/observed_testing_safety.json",
    "reports/predicted_oc1.json", "reports/predicted_oc2.json",
    "reports/predicted_oc3.json", "reports/predicted_oc4.json",
    "reports/predicted_testing.json",
    "summary.json", "summary.txt",
]


class TestReproduce:
    def test_smoke(self, tmp_path):
        out = tmp_path / "repro"
        assert run_cli("reproduce", "--out-dir", str(out), "--n", "150",
                       "--seed", "2", "--grid", "2,2,2") == 0
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")
                      if p.is_file()) == REPRODUCE_TREE
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {
            "n", "seed", "grid_bins", "tolerance_pts", "identity_check",
            "observed_testing", "operating_conditions",
            "all_within_tolerance", "safety"}
        assert (summary["n"], summary["tolerance_pts"]) == (150, 2.0)
        for svg in (out / "plots").iterdir():
            ET.parse(svg)


    @pytest.mark.parametrize("edits, code, message", [
        pytest.param({"--seed": "-12"}, 2,
                     "ConfigError: seed must be non-negative, got -12", id="-12"),
        pytest.param({"--seed": "-1"}, 2,
                     "ConfigError: seed must be non-negative, got -1", id="-1"),
        pytest.param({"--grid": "1,1"}, 2,
                     "InvalidGrid: grid has 2 dimensions, domain has 3",
                     id="grid-1,1"),
        pytest.param({"--n": "0"}, 2, "ConfigError: n must be at least 1, got 0",
                     id="n-0"),
        pytest.param({"--n": "-4"}, 2,
                     "ConfigError: n must be at least 1, got -4", id="n--4"),
        # 50 testing scenarios leave most of the default 10^3 grid uncovered;
        # the regions are named as tuples of Python ints on every numpy
        pytest.param({"--n": "50", "--grid": None}, 4,
                     "EmptyPartition: 951 region(s) with positive target mass "
                     "have no test samples: (0, 0, 0), (0, 0, 1), (0, 0, 2), "
                     "(0, 0, 3), (0, 0, 4), (0, 0, 5), (0, 0, 6), (0, 0, 7) "
                     "(+943 more)", id="n-50-default-grid"),
    ])
    def test_negative_seed_exits_2_before_writing(self, tmp_path, capsys,
                                                  edits, code, message):
        """A negative seed, a non-positive n or a grid of the wrong rank
        exits 2, and an n too small for the grid exits 4 (EmptyPartition),
        before anything is written."""
        out = tmp_path / "repro"
        flags = {"--n": "5", "--grid": "1,1,1", "--seed": "0", **edits}
        argv = [a for kv in flags.items() if kv[1] is not None for a in kv]
        assert run_cli("reproduce", "--out-dir", str(out), *argv) == code
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists() or not any(out.rglob("*"))

    def test_unwritable_out_dir_is_refused_before_sampling(self, tmp_path):
        """An out_dir that is a regular file, or lies under one, raises
        ConfigError naming it before a scenario is drawn or a campaign
        runs."""
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        ran = AssertionError("ran before out_dir was made")
        with mock.patch.object(pipeline, "sample", side_effect=ran), \
                mock.patch.object(pipeline, "evaluate_policies",
                                  side_effect=ran):
            for out in (afile, afile / "out"):
                with pytest.raises(ConfigError,
                                   match=f"^cannot write {re.escape(str(out))}:"):
                    reproduce(out, n=300, seed=0,
                              grid=PartitionGrid((2, 2, 2)))
        assert afile.read_text() == "kept\n"

    def test_every_manifest_replays_into_identical_records(
            self, tmp_path, monkeypatch):
        """Each manifest of a reproduce tree, named by a relative path from
        another working directory, replays its campaign from its record
        file's scenarios into the same bytes."""
        out = tmp_path / "repro"
        assert run_cli("reproduce", "--out-dir", str(out), "--n", "60",
                       "--seed", "3", "--grid", "1,1,1") == 0
        manifests = sorted((out / "records").glob("*.manifest.json"))
        assert len(manifests) == 6
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        for manifest in manifests:
            records = out / "records" / manifest.name.replace(
                ".manifest.json", ".jsonl")
            assert run_cli("run", "--manifest",
                           f"../repro/records/{manifest.name}",
                           "--out", records.name) == 0
            assert (Path(records.name).read_bytes()
                    == records.read_bytes()), manifest.name
            assert json.loads(manifest.read_text())["records_path"] == (
                records.name)

    def test_replays_in_place_rewrite_identical_campaign_files(self, tmp_path):
        """run --manifest with no --out writes the records reproduce wrote,
        and the manifest beside them, byte for byte: both commands write
        campaign files the same way. Every line's outcome is blanked first,
        so only the scenarios are left for the replay to read."""
        out = tmp_path / "repro"
        assert run_cli("reproduce", "--out-dir", str(out), "--n", "60",
                       "--seed", "3", "--grid", "1,1,1") == 0
        before = {p.name: p.read_bytes() for p in (out / "records").iterdir()}
        for records in (out / "records").glob("*.jsonl"):
            records.write_text(blank_outcomes(records.read_text()))
            assert records.read_bytes() != before[records.name]
        for manifest in sorted((out / "records").glob("*.manifest.json")):
            assert run_cli("run", "--manifest", str(manifest)) == 0
        assert {p.name: p.read_bytes()
                for p in (out / "records").iterdir()} == before

    def test_condition_documents_record_their_sampling_seed(self, tmp_path):
        """sample with a condition document and the seed it records redraws
        the scenarios of the record files reproduce wrote for that
        condition."""
        out = tmp_path / "repro"
        assert run_cli("reproduce", "--out-dir", str(out), "--n", "40",
                       "--seed", "5", "--grid", "1,1,1") == 0
        for name in ("testing", *presets.OPERATING_CONDITION_NAMES):
            doc = out / "conditions" / f"{name}.json"
            again = tmp_path / f"{name}.jsonl"
            assert run_cli("sample", "--config", str(doc), "--n", "40",
                           "--seed", str(json.loads(doc.read_text())["seed"]),
                           "--out", str(again)) == 0
            assert again.read_text() == scenario_column(
                out / "records" / f"{name}.jsonl"), name

    def test_condition_documents_sample_with_their_own_seed(self, tmp_path):
        """sample --config without --seed draws with the seed the document
        records, so it redraws the scenarios of the record files reproduce
        wrote; with --condition the seed is 0."""
        out = tmp_path / "repro"
        assert run_cli("reproduce", "--out-dir", str(out), "--n", "40",
                       "--seed", "5", "--grid", "1,1,1") == 0
        for name in ("testing", *presets.OPERATING_CONDITION_NAMES):
            again = tmp_path / f"{name}.jsonl"
            assert run_cli("sample", "--config",
                           str(out / "conditions" / f"{name}.json"),
                           "--n", "40", "--out", str(again)) == 0
            assert again.read_text() == scenario_column(
                out / "records" / f"{name}.jsonl"), name
        preset = tmp_path / "preset.jsonl"
        assert run_cli("sample", "--condition", "oc3", "--n", "40",
                       "--out", str(preset)) == 0
        assert read_scenarios(preset).tobytes() == sample(
            presets.condition("oc3"), 40, 0).tobytes()

    def test_scenario_record_and_manifest_files_are_pinned(self, tmp_path):
        # sha256 of reproduce(n=3000, seed=7, 5^3): the record files, re-pinned
        # when their lines dropped collision_time and then the seed, and the
        # manifests, re-pinned when they gained the env in place of
        # config_path and config_sha256 and when they dropped scenarios_path
        # and scenarios_sha256; and the scenario file that sample writes of
        # each condition's draw, sample(cond, 3000, 7 + 11 + k), as
        # reproduce wrote it before its record files became the only copy.
        # Reports and SVGs are left out, since their erfc masses may differ
        # by one ulp between libm builds
        reproduce(tmp_path / "tree", n=3000, seed=7,
                  grid=PartitionGrid((5, 5, 5)))
        got = {f"records/{p.name}": file_sha256(p)
               for p in (tmp_path / "tree" / "records").iterdir()}
        for k, name in enumerate(("testing",
                                  *presets.OPERATING_CONDITION_NAMES)):
            path = tmp_path / f"{name}.jsonl"
            write_scenarios(path, sample(presets.condition(name), 3000,
                                         7 + 11 + k))
            got[f"scenarios/{name}.jsonl"] = file_sha256(path)
            assert path.read_text() == scenario_column(
                tmp_path / "tree" / "records" / f"{name}.jsonl")
        assert got == PINNED_SHA256


PINNED_SHA256 = {
    "records/oc1.jsonl":
        "79442ea0a25c98594f0a89fd0d38502eda0f5229592338c63ce8c5cead58990a",
    "records/oc1.manifest.json":
        "f0a48645dc4ef1e8818e92fb084543fabbfcf443e573e53afa7879b0dd874357",
    "records/oc2.jsonl":
        "21594d174761a354df5817f17ef622005a2e55042065cf8f8a28878d07f766d7",
    "records/oc2.manifest.json":
        "2cd9110a22885cb4338d55beb00488d439da5dd198e2a85b83fc2ce9d616b3f9",
    "records/oc3.jsonl":
        "9cf0b96d37a902eb98e40c2b799e889435fab96490a503a9b6b17766c0390612",
    "records/oc3.manifest.json":
        "2de73da1e25d21f174a74c185d7d1383f0d0cbcf014f00e4f060fe04d0f399ec",
    "records/oc4.jsonl":
        "d2edb9575c20f73a2a37da7e87b9791a7c398d2e69b03b138828e72971694567",
    "records/oc4.manifest.json":
        "23c572e662246a4390d48f2b9f986a190c44b8722235c3cbb052fe850edc4681",
    "records/testing.jsonl":
        "9cfd693d75d8e04ec561930445101aeb51befefe0ed270f015c4e478c42b664f",
    "records/testing.manifest.json":
        "938f2ee8be744fb0d1fd71388dfcf4092b602aabd34f3fe349911795646d71f8",
    "records/testing_safety.jsonl":
        "c6a7df2e2e666a5fdbff5718911043536c8c8c0829405673812aa0148ee3cda4",
    "records/testing_safety.manifest.json":
        "2ffbfd89309a05266816f0abe02a6d7fb9e9d7642f7c72ce3f94cfb39b830fd8",
    "scenarios/oc1.jsonl":
        "80b60c919942c752593e62b37ef2eacf6b44d110fa0f8295ad7cf58cd1d3a48d",
    "scenarios/oc2.jsonl":
        "56eddf0102cd0de5488029d2f49a98e6758340bc27cd627e1088bcc214e0137b",
    "scenarios/oc3.jsonl":
        "ced316bd47660e6640ad6c37a7e2cbc0b3f8c89faf7cd1c6a6deee47e26ff867",
    "scenarios/oc4.jsonl":
        "bc1b14c0f7d69ee1721e72b1727e6f7336ccd191035d8a815f5ca754f0fc3a35",
    "scenarios/testing.jsonl":
        "0671b41122a6421073385434bdfccfd57ddaaf5aaec9eef4c3173a12682937de",
}


@pytest.mark.parametrize("command", ["predict", "reproduce"])
@pytest.mark.parametrize("spec", ["1_0,2,2", "2, 2,2", "+2,2,2", "2,\u0663,2",
                                  "2,2,\u00b2"])
def test_grid_takes_only_ascii_digits(small_pipeline, tmp_path, capsys,
                                      command, spec):
    """--grid refuses a bin count that int() reads but that is not the ASCII
    digits 0-9: underscores, spaces, signs, other scripts' digits, a
    superscript. It names the field and writes nothing."""
    out = tmp_path / "out"
    argv = {"predict": ("predict", "--records", str(small_pipeline["rec"]),
                        "--condition", "testing", "--out", str(out)),
            "reproduce": ("reproduce", "--out-dir", str(out), "--n", "5")}
    assert run_cli(*argv[command], "--grid", spec) == 2
    field = next(f for f in spec.split(",") if f != "2")
    assert f"bin count {field!r}" in capsys.readouterr().err
    assert not out.exists()


def test_grid_too_large_for_the_tally_exits_2(small_pipeline, tmp_path,
                                              capsys):
    out = tmp_path / "out.json"
    assert run_cli("predict", "--records", str(small_pipeline["rec"]),
                   "--condition", "testing", "--grid",
                   "9999999999999999999999,2,2", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("InvalidGrid: ") and "too large" in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("sample", "--n"), ("sample", "--seed"), ("run", "--seed"),
    ("reproduce", "--n"), ("reproduce", "--seed")])
@pytest.mark.parametrize("value", ["1_0", " 5", "+3", "\u0663", " +\u0663"])
def test_integer_flags_take_only_ascii_digits(small_pipeline, tmp_path,
                                              capsys, command, flag, value):
    """--n and --seed refuse what int() reads but is not an optional "-"
    and the ASCII digits 0-9, as argparse refuses a bad flag: exit 2, no
    traceback, nothing written."""
    out = str(tmp_path / "out")
    argv = {"sample": ("sample", "--condition", "testing", "--n", "3",
                       "--out", out),
            "run": ("run", "--scenarios", str(small_pipeline["scen"]),
                    "--out", out),
            "reproduce": ("reproduce", "--out-dir", out, "--n", "5",
                          "--grid", "1,1,1")}[command]
    # the flag given last wins
    with pytest.raises(SystemExit) as e:
        run_cli(*argv, flag, value)
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err and "Traceback" not in err
    assert not Path(out).exists()


def test_importing_the_cli_loads_no_network_or_email_module():
    """Escaping chart text needs no xml.sax, which would import urllib,
    http, email and ssl into every process."""
    code = ("import sys, numpy; before = set(sys.modules); import depgrid.cli; "
            "print(sorted({'xml.sax.saxutils', 'urllib.request', 'http.client',"
            " 'email.parser', 'ssl'} & (set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"),
         os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "depgrid.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "depgrid" in proc.stdout
