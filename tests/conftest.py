from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from depgrid import (EnvConfig, ScriptedPolicy, ScriptedPolicyParams,
                     TestCampaign, substream_seed)
from depgrid import presets

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def env() -> EnvConfig:
    return presets.default_env()


@pytest.fixture(scope="session")
def params() -> ScriptedPolicyParams:
    return presets.default_policy_params()


@pytest.fixture(scope="session")
def space():
    return presets.domain_space()


@pytest.fixture(scope="session")
def grid():
    return presets.default_grid()


@pytest.fixture
def scripted_factory(env, params):
    return lambda: ScriptedPolicy(params, env)


# Forces patient mode for goals comfortably below 50: with sigma_goal = 0.5
# a perceived goal of 50 is dozens of sigmas away for y <= 45 or so. Not a
# guarantee for y near the top of the track.
@pytest.fixture
def patient_factory(env):
    p = ScriptedPolicyParams(risk_goal_threshold=50.0)
    return lambda: ScriptedPolicy(p, env)


def campaign_of(records, name: str = "synthetic",
                master_seed: int = 0) -> TestCampaign:
    """The campaign whose rows are the TrialRecords ``records``."""
    records = list(records)
    xs = [r.scenario for r in records]
    return TestCampaign(
        name, np.array(xs, dtype=float) if xs else np.empty((0, 0)),
        np.array([r.mode.code for r in records], dtype=np.int8),
        np.array([r.steps for r in records], dtype=np.int64),
        np.array([r.final_position for r in records], dtype=float),
        master_seed)


def seeded_format(record: dict, seed: int) -> dict:
    """A record line's dict as record files held it before the episode seed
    was dropped from them: the seed between the mode and the steps."""
    return {"scenario": record["scenario"], "mode": record["mode"],
            "seed": seed, "steps": record["steps"],
            "final_position": record["final_position"]}


def old_format(record: dict, seed: int) -> dict:
    """A record line's dict as record files held it before collision_time
    was dropped from them: the seeded_format, then the steps as a float for
    a harmful failure, null for the other modes, as the last key."""
    harmful = record["mode"] == "harmful_failure"
    return {**seeded_format(record, seed),
            "collision_time": float(record["steps"]) if harmful else None}


def old_format_text(text: str, master_seed: int = 0, form=old_format) -> str:
    """A record file's text with every line in an older form, old_format or
    seeded_format, line i holding the seed substream_seed(master_seed, i)
    that its episode ran with in a campaign of that master seed."""
    return "".join(
        json.dumps(form(json.loads(line), substream_seed(master_seed, i)))
        + "\n" for i, line in enumerate(text.splitlines()))


def file_sha256(path) -> str:
    """The sha256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()

