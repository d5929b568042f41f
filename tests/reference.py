"""Oracles for the tests, independent of the library code they check: the
bin-edge convention, each point's bin by a binary search, region masses, a
discrete table as a prediction target, the exact expectation over such a
table and sample's per-row specification.
Only region_mass of a ConditionSet imports scipy, so the seeding and
record-format tests run where scipy is not installed."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from depgrid import BehaviorMode, DomainSpace, TestCampaign, Uniform


def bin_bounds(dim, bins: int, i: int) -> tuple[float, float]:
    """The edges of bin i of ``bins`` equal-width bins over the dimension."""
    def edge(k):
        return dim.max if k == bins else dim.min + dim.width * k / bins
    return edge(i), edge(i + 1)


def in_bin(dim, bins: int, i: int, v: float) -> bool:
    """Whether the value v lies in bin i of ``bins`` equal-width bins over
    the dimension: every bin is half-open [lo, hi) except the last, which
    is closed."""
    lo, hi = bin_bounds(dim, bins, i)
    return lo <= v <= hi if i == bins - 1 else lo <= v < hi


def in_region(grid, space, index, x) -> bool:
    """Whether the point x lies in the grid region at ``index``: in each
    dimension, its coordinate lies in the region's bin."""
    return all(in_bin(dim, nb, i, v)
               for dim, nb, i, v in zip(space.dims, grid.bins, index, x))


def searched_bins(grid, space, xs: np.ndarray) -> np.ndarray:
    """The (n, ndim) bin indices of the points xs, each coordinate's found by
    a binary search of its dimension's edges: the last edge at or below it,
    searchsorted(e, x, "right") - 1, capped at the last bin, which is
    closed."""
    out = np.empty(xs.shape, dtype=np.int64)
    for d in range(space.ndim):
        e = grid.edges(space, d)
        out[:, d] = np.minimum(np.searchsorted(e, xs[:, d], side="right") - 1,
                               grid.bins[d] - 1)
    return out


@dataclass(frozen=True)
class Table:
    """A finite scenario -> probability table over a domain space, as a
    prediction target: predict reads its name, space and mass vector. Each
    scenario is a tuple of floats inside the space; a region's mass is the
    sum of the probabilities of the scenarios in it."""

    name: str
    space: DomainSpace
    scenarios: tuple[tuple[float, ...], ...]
    probabilities: tuple[float, ...]

    def region_mass_vector(self, grid) -> np.ndarray:
        """region_mass of every region of the grid, in C order: each
        scenario's region is found one dimension at a time, as the bin
        in_bin puts its coordinate in."""
        held = [[] for _ in range(grid.n_regions)]
        for x, p in zip(self.scenarios, self.probabilities):
            index = [next(i for i in range(nb) if in_bin(dim, nb, i, v))
                     for dim, nb, v in zip(self.space.dims, grid.bins, x)]
            held[np.ravel_multi_index(index, grid.bins)].append(p)
        return np.array([math.fsum(ps) for ps in held])


def region_mass(cond, grid, index: tuple[int, ...]) -> float:
    """The mass under ``cond`` of the grid region at ``index``: a Table's
    sum of the probabilities of its scenarios in the region, or the product
    of the marginals' bin masses: a Uniform's overlap with the bin over its
    width, a ClippedGaussian's difference of scipy.special.ndtr values, its
    first and last bins taking the whole lower and upper tails."""
    if isinstance(cond, Table):
        return math.fsum(p for x, p in zip(cond.scenarios, cond.probabilities)
                         if in_region(grid, cond.space, index, x))
    from scipy.special import ndtr

    mass = 1.0
    for dim, m, nb, i in zip(cond.space.dims, cond.marginals, grid.bins, index):
        lo, hi = bin_bounds(dim, nb, i)
        if isinstance(m, Uniform):
            mass *= max(0.0, min(hi, m.b) - max(lo, m.a)) / (m.b - m.a)
        else:
            upper = 1.0 if i == nb - 1 else float(ndtr((hi - m.mu) / m.sigma))
            lower = 0.0 if i == 0 else float(ndtr((lo - m.mu) / m.sigma))
            mass *= upper - lower
    return mass


def region_centers(grid, space) -> list[tuple[float, ...]]:
    """The centre of every region of the grid over the space, as tuples of
    floats in C order, computed from the grid's edges."""
    mids = [((e[:-1] + e[1:]) / 2).tolist()
            for e in (grid.edges(space, d) for d in range(space.ndim))]
    return list(itertools.product(*mids))


def random_lattice(grid, space, seed: int):
    """A campaign of one record of a random mode at each region centre, a
    table of random probabilities over the centres, and each centre's mode."""
    rng = np.random.default_rng(seed)
    centers = region_centers(grid, space)
    modes = rng.integers(0, 3, len(centers)).astype(np.int8)
    probs = rng.random(len(centers))
    probs /= probs.sum()
    campaign = TestCampaign("lattice", np.array(centers), modes,
                            np.full(len(centers), 100), np.zeros(len(centers)))
    cond = Table("lattice", space, tuple(centers), tuple(probs.tolist()))
    return campaign, cond, {x: list(BehaviorMode)[m]
                            for x, m in zip(centers, modes)}


def exact_rates(outcomes, cond: Table) -> tuple[float, ...]:
    """The exact (dependability, task undependability, harmful
    undependability) over a discrete table, given the mode of each of its
    scenarios in ``outcomes``: one fsum of probabilities per mode."""
    return tuple(math.fsum(p for x, p in zip(cond.scenarios,
                                             cond.probabilities)
                           if outcomes[x] is mode)
                 for mode in BehaviorMode)


def spawned(master: int, index: int) -> np.random.PCG64:
    """PCG64 of SeedSequence(master, spawn_key=(index,))."""
    return np.random.PCG64(np.random.SeedSequence(master, spawn_key=(index,)))


def sample_rows(cond, n: int, master: int) -> np.ndarray:
    """sample's specification: row i draws its values in dimension order
    from spawned(master, i), a Uniform's as
    rng.uniform(a, b) and a ClippedGaussian's as rng.normal(mu, sigma)
    clipped to the dimension bounds."""
    rows = []
    for i in range(n):
        rng = np.random.Generator(spawned(master, i))
        rows.append([
            rng.uniform(m.a, m.b) if isinstance(m, Uniform)
            else min(max(rng.normal(m.mu, m.sigma), d.min), d.max)
            for m, d in zip(cond.marginals, cond.space.dims)])
    return np.array(rows, dtype=float).reshape(n, cond.space.ndim)
