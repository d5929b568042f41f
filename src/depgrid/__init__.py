"""depgrid: grid-partitioned dependability prediction under condition shift.

Tally a fixed policy's test outcomes per region of a partitioned domain,
then predict its success / task-failure / harmful-failure probabilities
under different operating conditions by re-weighting the per-region rates
with analytically computed region masses. Includes a deterministic
robot/obstacle simulator, a scripted reference policy, and a goal-clipping
safety governor to exercise the pipeline end to end.
"""

from .domain import (
    ClippedGaussian,
    ConditionSet,
    Dimension,
    DomainSpace,
    PartitionGrid,
    Uniform,
    norm_cdf,
    partition_indices,
    sample,
    substream_seed,
    substream_seeds,
    validate_grid,
)
from .errors import (
    ConfigError,
    DataError,
    DepgridError,
    EmptyCampaign,
    EmptyPartition,
    InvalidGrid,
    OutOfDomain,
)
from .estimator import (
    BehaviorMode,
    DependabilityReport,
    Tally,
    TestCampaign,
    TrialRecord,
    compare,
    observed_rates,
    predict,
    tally,
)
from .policies import (
    BatchPolicy,
    Policy,
    ScriptedPolicy,
    ScriptedPolicyParams,
    evaluate_policies,
    evaluate_policy,
)
from .safety import GoalClippedPolicy, SafetyFunction, wrap
from .simulator import (
    EnvConfig,
    Observation,
    run_batch,
    run_episode,
    scenario_domain,
)

__version__ = "0.1.0"
