"""Exception hierarchy. Each class carries the CLI exit code it maps to."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np


class DepgridError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 1


class ConfigError(DepgridError):
    """Malformed or inconsistent configuration (documents, grids, flags)."""

    exit_code = 2


class DataError(DepgridError):
    """Malformed or inconsistent data (scenario files, records, campaigns).
    ``row`` is the first bad row of a checked column, for a reader to name."""

    exit_code = 3
    row: int | None = None


def check_rows(ok, message, error: type[DataError] = DataError) -> None:
    """Raise ``error(message(i))`` with ``row`` i for the first row i whose
    entry of the bool sequence ``ok`` is false."""
    if not np.all(ok):
        i = int(np.argmin(ok))
        e = error(message(i))
        e.row = i
        raise e


def check_finite(config) -> None:
    """Raise ConfigError naming the first float field of a config dataclass
    (annotated float, or a tuple of floats, under PEP 563) that holds NaN or
    an infinity: json.dumps writes them as tokens that no JSON reader of
    ours takes, and NaN fails every range check."""
    for f in fields(config):
        if f.type in ("float", "tuple[float, float]"):
            value = getattr(config, f.name)
            if not all(map(math.isfinite,
                           value if type(value) is tuple else (value,))):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")


class OutOfDomain(DataError):
    """A scenario coordinate lies outside its dimension bounds."""


class InvalidGrid(ConfigError):
    """A partition grid is unusable for the given domain space."""


class EmptyCampaign(DataError):
    """An operation that needs test records received none."""


class IncompleteOutcomes(DataError):
    """A brute-force condition table contains scenarios without outcomes."""


class SteppingTerminatedEpisode(DepgridError):
    """step() was called on a collided or time-expired episode state."""


class EpisodeNotFinished(DepgridError):
    """classify() was called before the episode ended."""


class EmptyPartition(DepgridError):
    """Regions with positive target mass received no test samples.

    The offending regions are kept on the exception, as grid index tuples of
    ints, so callers (and the CLI) can list exactly which parts of the domain
    are uncovered.
    """

    exit_code = 4

    def __init__(self, regions):
        self.regions = tuple(regions)
        indices = ", ".join(map(str, self.regions[:8]))
        more = "" if len(self.regions) <= 8 else f" (+{len(self.regions) - 8} more)"
        super().__init__(
            f"{len(self.regions)} region(s) with positive target mass have no "
            f"test samples: {indices}{more}"
        )
