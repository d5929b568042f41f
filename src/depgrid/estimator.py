"""Outcome tallies and dependability metrics.

Three mutually exclusive behavior modes partition every trial: success,
task failure (task incomplete, no harm), harmful failure (harm caused,
task completion irrelevant). Dependability under a condition is the
probability of success when scenarios are drawn from that condition; the
two undependabilities are the probabilities of the failure modes.

A TestCampaign holds its records as columns: the (n, d) scenario array, the
mode codes, steps and final positions. An episode's seed is an input, not an
outcome: it is derived from the campaign's master seed and the row (see
policies.evaluate_policies), so no column holds it. Tallying reads only the
first two columns. A Tally holds the integer outcome counts of one campaign
as one array, one row per grid region in C order and one column per behavior
mode. Prediction re-weights the per-region rates with the target condition's
region mass vector: the predicted rates are sum_r w_r * p_r. A target is
anything with a ``name``, a ``space`` and a ``region_mass_vector(grid)``, such
as a ConditionSet. Counts stay exact integers; division happens only at
report time.

A prediction's report keeps its per-region table as columns, not as one
object per region: the per-dimension bin edges, the weight vector and the
tally's (n_regions, 3) count array, rows in the same C order. A region is
its grid index: dropped regions are their C-order numbers, and only an
EmptyPartition turns them into index tuples, to name the uncovered regions.

Each invariant of a campaign or a report is checked once, by the type that
holds it (TestCampaign.__post_init__ and DependabilityReport.__post_init__),
whoever builds it: the simulator, the estimator or a file reader. The file
readers check only what a file alone can get wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from functools import cached_property
from enum import Enum

import numpy as np

from .domain import (ConditionSet, DomainSpace, PartitionGrid,
                     partition_indices)
from .errors import (
    DataError,
    EmptyCampaign,
    EmptyPartition,
    InvalidGrid,
    OutOfDomain,
    check_rows,
)

SUM_RULE_TOL = 1e-12
# the three metrics, in the order of the modes, of every report and table
METRICS = ("dependability", "task_undependability", "harmful_undependability")


class BehaviorMode(str, Enum):
    SUCCESS = "success"
    TASK_FAILURE = "task_failure"
    HARMFUL_FAILURE = "harmful_failure"

    @property
    def code(self) -> int:
        """The mode's code in a campaign's ``modes`` column."""
        return _MODE_ORDER.index(self)


_MODE_ORDER = (BehaviorMode.SUCCESS, BehaviorMode.TASK_FAILURE,
               BehaviorMode.HARMFUL_FAILURE)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of running a policy in one scenario: one row of a campaign.

    scenario is the scenario's coordinates as a tuple of floats. steps
    counts the seconds stepped, so a harmful failure collides at its last
    step. The episode's seed is not kept: it is run_episode's input. A mode
    name is converted to its BehaviorMode; the record invariants are checked
    on campaign columns.
    """

    scenario: tuple[float, ...]
    mode: BehaviorMode
    steps: int
    final_position: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "mode", BehaviorMode(self.mode))
        except ValueError:
            raise DataError(f"unknown behavior mode {self.mode!r}") from None


def _fields_equal(a, b) -> bool:
    """Equality of two dataclasses of one type, array fields by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in ((getattr(a, f.name), getattr(b, f.name)) for f in fields(a)))


@dataclass(frozen=True, eq=False)
class TestCampaign:
    """All trial records gathered under one condition and master seed, as
    columns: ``scenarios`` (n, d) floats, ``modes`` int8 codes (see
    BehaviorMode.code), ``steps`` ints and ``final_position`` floats; a
    harmful record's collision time is its steps. No column holds the
    episode seeds: evaluate_policies runs row i with
    ``substream_seed(master_seed, i)``. A row with a non-finite coordinate
    raises OutOfDomain; one without a known mode, steps >= 0 (>= 1 if
    harmful) and a finite final position raises DataError.

    ``records`` are the rows as TrialRecords, built on first use for the
    tests and the benchmark's checks; the library reads only the columns.
    """

    __test__ = False  # not a pytest class, despite the name

    condition_name: str
    scenarios: np.ndarray
    modes: np.ndarray
    steps: np.ndarray
    final_position: np.ndarray
    master_seed: int = 0

    def __post_init__(self):
        lengths = {len(c) for c in (self.scenarios, self.modes, self.steps,
                                    self.final_position)}
        if self.scenarios.ndim != 2 or len(lengths) != 1:
            raise DataError(f"campaign columns differ in length: {lengths}")
        finite = np.isfinite(self.scenarios)
        # all(axis=1) over short rows takes some 25 times the whole all():
        # reduce row by row only to find a bad row
        check_rows(finite.all() or finite.all(axis=1),
                   lambda i: f"non-finite scenario coordinate in "
                             f"{self.scenarios[i].tolist()}", OutOfDomain)
        harmful = self.modes == BehaviorMode.HARMFUL_FAILURE.code
        check_rows((self.modes >= 0) & (self.modes < len(_MODE_ORDER))
                   & (self.steps >= harmful) & np.isfinite(self.final_position),
                   lambda i: f"a record needs a known mode and steps >= 0 "
                             f"(>= 1 for a harmful failure), and a finite "
                             f"final_position, got mode code {self.modes[i]}, "
                             f"steps {self.steps[i]}, final_position "
                             f"{self.final_position[i]}")

    def __len__(self) -> int:
        return len(self.modes)

    @cached_property
    def records(self) -> tuple[TrialRecord, ...]:
        return tuple(
            TrialRecord(tuple(x), _MODE_ORDER[m], steps, position)
            for x, m, steps, position in zip(
                self.scenarios.tolist(), self.modes.tolist(),
                self.steps.tolist(), self.final_position.tolist()))

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class DependabilityReport:
    """Dependability plus the two undependabilities under one condition.

    The three metrics sum to 1 (the modes are exhaustive and mutually
    exclusive), with no exception. A report is ``renormalized`` exactly when
    it dropped regions; only then may its dropped_mass, in [0, 1], be other
    than 0.

    A prediction also carries its per-region table as columns: ``edges``
    holds each dimension's bin edges, ``weights`` the target weight of every
    region and ``counts`` its (n_regions, 3) outcome counts, rows in the
    Tally's C order. An observed report has no table (no edges, zero rows).
    ``dropped_regions`` holds the C-order numbers of the regions dropped by
    renormalization, as an int64 array. Each dimension's edges must be two
    or more finite numbers, strictly increasing; the weights finite and
    >= 0, the counts >= 0, and the dropped regions distinct region numbers
    in increasing order. Any other report raises DataError.
    """

    condition_name: str
    dependability: float
    task_undependability: float
    harmful_undependability: float
    edges: tuple[tuple[float, ...], ...] = ()
    weights: np.ndarray = field(default_factory=lambda: np.zeros(0))
    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((0, len(_MODE_ORDER)), dtype=np.int64))
    dropped_mass: float = 0.0
    dropped_regions: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        for d, e in enumerate(self.edges):
            if len(e) < 2 or not (np.isfinite(e).all() and (np.diff(e) > 0).all()):
                raise DataError(f"edges[{d}] must be two or more finite "
                                f"numbers, strictly increasing")
        n_regions = math.prod(len(e) - 1 for e in self.edges) if self.edges else 0
        if (self.weights.shape != (n_regions,)
                or self.counts.shape != (n_regions, len(_MODE_ORDER))):
            raise DataError(
                f"report table has {self.weights.shape} weights and "
                f"{self.counts.shape} counts; its edges need {n_regions} rows")
        if not (np.isfinite(self.weights).all() and (self.weights >= 0).all()):
            raise DataError("masses must be finite and >= 0")
        if (self.counts < 0).any():
            raise DataError("counts must be >= 0")
        dropped = self.dropped_regions
        if dropped.size and not (dropped[0] >= 0 and dropped[-1] < n_regions
                                 and (np.diff(dropped) > 0).all()):
            raise DataError(f"dropped_regions must be distinct region numbers "
                            f"in [0, {n_regions}), in increasing order")
        for name, v in self.metrics().items():
            if not (-SUM_RULE_TOL <= v <= 1.0 + SUM_RULE_TOL):
                raise DataError(f"{name} = {v} outside [0, 1]")
        if not self.renormalized:
            if self.dropped_mass != 0.0:  # true for NaN too
                raise DataError(f"dropped_mass = {self.dropped_mass}, but no "
                                f"region is dropped, so it must be 0")
        elif not 0.0 <= self.dropped_mass <= 1.0:  # false for NaN too
            raise DataError(f"dropped_mass = {self.dropped_mass} outside [0, 1]")
        total = sum(self.metrics().values())
        if abs(total - 1.0) > SUM_RULE_TOL:
            raise DataError(f"metrics sum to {total!r}, violating the sum rule")

    @property
    def renormalized(self) -> bool:
        return bool(self.dropped_regions.size)

    def metrics(self) -> dict[str, float]:
        """The three metrics, keyed by their METRICS names in that order."""
        return dict(zip(METRICS, (self.dependability, self.task_undependability,
                                  self.harmful_undependability)))

    __eq__ = _fields_equal


# ---------------------------------------------------------------------------
# Tallying
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Tally:
    """Integer outcome counts per region of one grid over one space.

    ``counts`` has shape (n_regions, 3): rows are regions in C order (last
    dimension fastest), columns are success, task-failure and harmful
    counts. Tallies of the same grid and space add exactly, so tallying
    record chunks and adding the results equals tallying them all at once.
    """

    grid: PartitionGrid
    space: DomainSpace
    counts: np.ndarray

    def __post_init__(self):
        if self.counts.shape != (self.grid.n_regions, len(_MODE_ORDER)):
            raise DataError(f"tally counts have shape {self.counts.shape}, "
                            f"grid needs ({self.grid.n_regions}, {len(_MODE_ORDER)})")

    def __add__(self, other: "Tally") -> "Tally":
        if (self.grid, self.space) != (other.grid, other.space):
            raise DataError("tallies cover different grids")
        return Tally(self.grid, self.space, self.counts + other.counts)


def tally(campaign: TestCampaign, grid: PartitionGrid,
          space: DomainSpace) -> Tally:
    """Count outcomes per region. Every region has a row, empty ones included.

    A record's scenario outside the domain raises OutOfDomain; mode counts
    partition the record set exactly.
    """
    keys = np.ravel_multi_index(
        partition_indices(grid, space, campaign.scenarios).T, grid.bins)
    # one count per (region, mode) pair, numbered region * 3 + mode
    counts = np.bincount(keys * len(_MODE_ORDER) + campaign.modes,
                         minlength=grid.n_regions * len(_MODE_ORDER))
    return Tally(grid, space, counts.astype(np.int64, copy=False).reshape(
        grid.n_regions, len(_MODE_ORDER)))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def observed_rates(campaign: TestCampaign) -> DependabilityReport:
    """Raw outcome fractions of a campaign (dependability under its own
    condition equals the fraction of successful tests)."""
    n = len(campaign)
    if n == 0:
        raise EmptyCampaign(f"campaign {campaign.condition_name!r} has no records")
    ns, nt, nh = np.bincount(campaign.modes, minlength=len(_MODE_ORDER)).tolist()
    return DependabilityReport(
        condition_name=campaign.condition_name,
        dependability=ns / n,
        task_undependability=nt / n,
        harmful_undependability=nh / n,
    )


def predict(tally: Tally, target: ConditionSet, *,
            renormalize_empty: bool = False) -> DependabilityReport:
    """Predicted metrics under ``target``: sum of mass-weighted region rates.
    The target is a ConditionSet, or anything else with a ``name``, a
    ``space`` and a ``region_mass_vector(grid)``.

    Every region with positive target mass must contain test samples;
    otherwise EmptyPartition lists the uncovered regions. With
    ``renormalize_empty`` those regions are dropped instead, the remaining
    masses are renormalized, and the report records the deviation; if no
    covered region has positive mass, EmptyPartition is raised all the
    same, as there is nothing left to renormalize. Masses are
    normalized by their computed sum (analytically 1) so the three metrics
    obey the sum rule to floating precision. A target over another domain
    space than the tally's raises InvalidGrid.
    """
    if target.space != tally.space:
        raise InvalidGrid(f"target {target.name!r} is over another domain than "
                          f"the tally: {target.space.dims} vs {tally.space.dims}")
    grid = tally.grid
    masses = target.region_mass_vector(grid)
    if np.any(masses < 0) or not masses.any():
        raise DataError("region masses must be >= 0 and not all zero")
    n = tally.counts.sum(axis=1)
    uncovered = (masses > 0) & (n == 0)

    dropped_mass = 0.0
    dropped = np.flatnonzero(uncovered)
    if dropped.size:
        if not (renormalize_empty and masses[~uncovered].any()):
            raise EmptyPartition(
                zip(*np.array(np.unravel_index(dropped, grid.bins)).tolist()))
        dropped_mass = float(masses[uncovered].sum()) / float(masses.sum())
        masses = np.where(uncovered, 0.0, masses)

    weights = masses / float(masses.sum())
    # Only regions of non-zero weight are summed: every such region holds
    # records, and an exact zero term never changes an exact sum. The sums
    # are correctly rounded, so the metrics do not depend on how many
    # threads or which kernel a BLAS dot product would use.
    held = np.flatnonzero(weights)
    terms = weights[held, None] * (tally.counts[held] / n[held, None])
    d, ut, uh = (math.fsum(terms[:, j].tolist()) for j in range(3))

    return DependabilityReport(
        condition_name=target.name,
        dependability=d,
        task_undependability=ut,
        harmful_undependability=uh,
        edges=tuple(tuple(grid.edges(tally.space, k).tolist())
                    for k in range(len(grid.bins))),
        weights=weights,
        counts=tally.counts,
        dropped_mass=dropped_mass,
        dropped_regions=dropped,
    )


def compare(predicted: DependabilityReport,
            observed: DependabilityReport) -> dict:
    """The comparison's JSON object: {"deltas_pts": each metric's signed
    predicted-minus-observed difference in percentage points, keyed
    "<metric>_pts", "max_abs_pts": the largest of their absolute values}."""
    o = observed.metrics()
    deltas = {f"{metric}_pts": 100.0 * (p - o[metric])
              for metric, p in predicted.metrics().items()}
    return {"deltas_pts": deltas,
            "max_abs_pts": max(abs(v) for v in deltas.values())}
