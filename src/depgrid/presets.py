"""Built-in domain, grid, and condition presets for the robot task.

Five condition sets over the (v, t, y) box: the uniform testing conditions
and four shifted operating conditions. The obstacle start time keeps its
testing marginal, uniform over its whole range, in all of them; the shifts
act on obstacle speed and goal height.
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


# testing draws each dimension uniformly over its whole range
_V, _T, _Y = (Uniform(d.min, d.max) for d in domain_space().dims)

# The (v, t, y) marginals of each built-in condition.
_MARGINALS = {
    "testing": (_V, _T, _Y),
    # low goals: the safe end of the goal range
    "oc1": (_V, _T, Uniform(0.0, 30.0)),
    # high goals: the dangerous end of the goal range
    "oc2": (_V, _T, Uniform(30.0, 50.0)),
    # slow-leaning Gaussian speeds with high goals
    "oc3": (ClippedGaussian(3.0, 2.0), _T, Uniform(30.0, 50.0)),
    # Gaussian speeds and goals, both aimed at the observed failure zones
    "oc4": (ClippedGaussian(3.0, 2.0), _T, ClippedGaussian(35.0, 10.0)),
}

CONDITION_NAMES = tuple(_MARGINALS)
OPERATING_CONDITION_NAMES = CONDITION_NAMES[1:]


def condition(name: str) -> ConditionSet:
    if name not in _MARGINALS:
        raise ConfigError(f"unknown condition {name!r}; built-ins are "
                          f"{sorted(_MARGINALS)}")
    return ConditionSet(name, domain_space(), _MARGINALS[name])
