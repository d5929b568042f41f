"""Built-in domain, grid, and condition presets for the robot task.

Five condition sets over the (v, t, y) box: the uniform testing conditions
and four shifted operating conditions. The obstacle start time is uniform on
[0, 10] in all of them; the shifts act on obstacle speed and goal height.
"""

from __future__ import annotations

from .domain import (
    ClippedGaussian,
    ConditionSet,
    DomainSpace,
    PartitionGrid,
    Uniform,
)
from .errors import ConfigError
from .policies import ScriptedPolicyParams
from .simulator import EnvConfig, scenario_domain


def default_env() -> EnvConfig:
    return EnvConfig()


def domain_space() -> DomainSpace:
    return scenario_domain(default_env())


def default_grid() -> PartitionGrid:
    """10 equal bins per dimension: 1000 voxels over the (v, t, y) box."""
    return PartitionGrid((10, 10, 10))


def default_policy_params() -> ScriptedPolicyParams:
    return ScriptedPolicyParams()


# The (v, t, y) marginals of each built-in condition.
_MARGINALS = {
    "testing": (Uniform(0.0, 10.0), Uniform(0.0, 10.0), Uniform(0.0, 50.0)),
    # low goals: the safe end of the goal range
    "oc1": (Uniform(0.0, 10.0), Uniform(0.0, 10.0), Uniform(0.0, 30.0)),
    # high goals: the dangerous end of the goal range
    "oc2": (Uniform(0.0, 10.0), Uniform(0.0, 10.0), Uniform(30.0, 50.0)),
    # slow-leaning Gaussian speeds with high goals
    "oc3": (ClippedGaussian(3.0, 2.0), Uniform(0.0, 10.0), Uniform(30.0, 50.0)),
    # Gaussian speeds and goals, both aimed at the observed failure zones
    "oc4": (ClippedGaussian(3.0, 2.0), Uniform(0.0, 10.0), ClippedGaussian(35.0, 10.0)),
}

OPERATING_CONDITION_NAMES = ("oc1", "oc2", "oc3", "oc4")


def condition(name: str) -> ConditionSet:
    if name not in _MARGINALS:
        raise ConfigError(f"unknown condition {name!r}; built-ins are "
                          f"{sorted(_MARGINALS)}")
    return ConditionSet(name, domain_space(), _MARGINALS[name])


def testing_conditions() -> ConditionSet:
    return condition("testing")
