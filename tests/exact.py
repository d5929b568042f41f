"""The exact outcome probabilities of the scripted policy in one scenario,
an oracle for the batch engine. It is derived from the environment and
policy specs (the simulator module docstring, run_episode's, EnvConfig and
ScriptedPolicyParams), not from the simulator's code.

Only two kinds of noise draw change an episode's outcome; the speed noise is
never read.
- The goal noise of the first observation sets the latch: the episode is
  impatient, forward at every second, with probability Φ((y − θ)/σ_goal), θ
  the risk threshold; under the goal governor, whose clip bound lies below
  θ, never.
- While patient, the obstacle-position noise of each second decides when
  passage is first seen: at second k with probability q_k Π_{j<k}(1 − q_j),
  where q_k = Φ(−(edge_{k−1} + width + margin)/σ_edge) is the chance that
  the perceived trailing edge lies beyond the margin, and edge_{k−1} is the
  leading edge observed at second k, the true one at time k − 1.
Given the latch and the passage second the path is deterministic, so a
scenario's (D, UT, UH) is a sum over at most episode_seconds + 2 paths. Φ
comes from math.erfc, so scenario_rates needs no scipy.

A condition's exact (D, UT, UH), condition_rates, integrates them: over
(v, t) on a midpoint lattice, and exactly over y (see node_rates); the
clipped tails of a ClippedGaussian are atoms, each its own node. It takes
Φ over arrays from scipy.special.ndtr, imported only when called."""

from __future__ import annotations

import functools
import math

import numpy as np

from depgrid import (BehaviorMode, ConditionSet, EnvConfig, PartitionGrid,
                     ScriptedPolicyParams, Uniform)


# Fixed (v, t, y) scenarios whose outcomes, under the default env and
# policy, turn on the edge cases of the spec: the oracle's check points
# against the simulator, and against its own vectorized form.
EXACT_SCENARIOS = {
    # the obstacle never moves: impatient succeeds, patient fails the task
    "still obstacle": (0.0, 5.0, 38.0),
    # the goal on the risk threshold latches impatient half the time
    "goal on threshold": (5.0, 5.0, 38.47),
    # the leading edge reaches the column, edge 0, at the last second, and
    # the impatient robot collides there
    "hit at the horizon": (0.8, 0.0, 38.6),
    # a hundredth of a second later it is 0.008 short: a near miss
    "near miss": (0.8, 0.01, 38.6),
    # a fast obstacle; the patient robot sees passage at second 10 half the
    # time, at 11 otherwise
    "fast obstacle": (10.0, 0.0, 38.9),
    # a slow one whose trailing edge is 0.05 short of passage at second 95;
    # passage seen then climbs to the top at the horizon, and passage seen
    # at 96 ends one step short, the climbs ending in the last 4-s chunk
    "slow obstacle": (1.0, 4.05, 49.0),
    # the goal at the patient ceiling, which reaching counts as success
    "goal at the ceiling": (0.9, 10.0, 20.0),
    "moderate obstacle": (3.0, 2.0, 38.0),
}


def normal_cdf(x: float) -> float:
    """Φ(x), the standard normal distribution function."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def leading_edge(cfg: EnvConfig, v: float, t: float, time: float) -> float:
    """The obstacle's true leading edge at ``time``: it waits at the spawn
    offset until its start time t, then moves towards the robot's column,
    which it occupies while the edge is <= 0 < edge + width, at speed v."""
    return cfg.obstacle_spawn_offset - v * max(0.0, time - t)


def path(cfg: EnvConfig, params: ScriptedPolicyParams,
         committed_at: int | None) -> list[float]:
    """The robot's position after each second 1..episode_seconds of the
    episode whose controller commits to forward at second ``committed_at``
    (1 for the impatient latch, None for never). Before then it follows the
    patient rule: forward while the robot's next position stays at or below
    the safe ceiling, backward otherwise. A step is clipped to the track."""
    lo, hi = cfg.robot_bounds
    position, positions = lo, []
    for second in range(1, cfg.episode_seconds + 1):
        committed = committed_at is not None and second >= committed_at
        if committed or position + cfg.step_inches <= params.safe_ceiling:
            position = min(max(position + cfg.step_inches, lo), hi)
        else:
            position = min(max(position - cfg.step_inches, lo), hi)
        positions.append(position)
    return positions


def outcome(cfg: EnvConfig, params: ScriptedPolicyParams,
            scenario: tuple[float, float, float],
            committed_at: int | None) -> BehaviorMode:
    """The mode of the episode whose robot follows ``path(cfg, params,
    committed_at)``: a robot at or above the danger height while the
    obstacle occupies its column collides and the episode ends; else it
    succeeds if the robot ever reached the goal height y."""
    v, t, y = scenario
    positions = path(cfg, params, committed_at)
    for second, position in enumerate(positions, 1):
        edge = leading_edge(cfg, v, t, second)
        if (edge <= 0.0 < edge + cfg.obstacle_width
                and position >= cfg.danger_height):
            return BehaviorMode.HARMFUL_FAILURE
    return (BehaviorMode.SUCCESS if max(cfg.robot_bounds[0], *positions) >= y
            else BehaviorMode.TASK_FAILURE)


def scenario_rates(cfg: EnvConfig, params: ScriptedPolicyParams,
                scenario: tuple[float, float, float], *,
                governed: bool = False) -> tuple[float, float, float]:
    """The exact (D, UT, UH), the probabilities of each BehaviorMode in
    turn, of the scripted policy's episode in ``scenario``, a (v, t, y)
    tuple; ``governed`` under a goal governor whose clip bound lies below
    the risk threshold."""
    v, t, y = scenario
    threshold, sigma_goal = params.risk_goal_threshold, cfg.noise_sigma_goal
    if governed:
        impatient = 0.0
    elif sigma_goal == 0:
        impatient = float(y >= threshold)
    else:
        impatient = normal_cdf((y - threshold) / sigma_goal)
    rates = dict.fromkeys(BehaviorMode, 0.0)
    rates[outcome(cfg, params, scenario, 1)] += impatient
    unseen = 1.0 - impatient   # patient, and no passage seen yet
    for k in range(1, cfg.episode_seconds + 1):
        if unseen == 0.0:
            break
        # the perceived trailing edge lies beyond the margin
        bound = -(leading_edge(cfg, v, t, k - 1) + cfg.obstacle_width
                  + params.passed_margin)
        sigma = cfg.noise_sigma_obstacle_pos
        q = float(bound > 0) if sigma == 0 else normal_cdf(bound / sigma)
        if q:
            rates[outcome(cfg, params, scenario, k)] += unseen * q
        unseen *= 1.0 - q
    rates[outcome(cfg, params, scenario, None)] += unseen
    return tuple(rates.values())


# ---------------------------------------------------------------------------
# A condition's exact (D, UT, UH)
# ---------------------------------------------------------------------------
# Given (v, t), each path's outcome is fixed but for success, which asks
# whether its highest position reaches y; and the chance of the impatient
# latch, π(y) = Φ((y − θ)/σ_goal), depends on y alone. So a (v, t) node's
# rates under a measure over y need, at each highest position h a path can
# reach, only F(h) = P(y <= h) and G(h) = E[π(y); y <= h], and A = E[π(y)]:
#   D  = [impatient path safe] G(h_imp) + Σ_c w_c [path c safe] (F − G)(h_c)
#   UH = A [impatient path collides] + (1 − A) Σ_c w_c [path c collides]
# where c runs over the patient branch's paths, each commit second and
# never, with its probability w_c at the node, and h_c is path c's highest
# position; UT takes the rest of each branch.

_NODES = 8192   # (v, t) nodes per vectorized chunk of node_table


def ndtr(x):
    """Φ over an array."""
    from scipy.special import ndtr
    return ndtr(x)


def node_table(cfg: EnvConfig, params: ScriptedPolicyParams,
               v: np.ndarray, t: np.ndarray) -> tuple:
    """The y-free part of the rates at each (v, t) node of two 1-D arrays:
    (heights, the index in heights of the impatient path's highest
    position, whether the impatient path collides, the patient branch's
    chance of a collision, and its chance of each highest position among
    the paths that do not collide, a (nodes, heights) array). Path c
    commits at second c + 1, and the last path never commits; the impatient
    path is path 0. It follows scenario_rates, vectorized."""
    horizon = cfg.episode_seconds
    positions = np.array([path(cfg, params, c)
                          for c in [*range(1, horizon + 1), None]])
    above = positions >= cfg.danger_height
    # a committed path only climbs and a patient one stays below the danger
    # height, so each path is in danger from its first such second on: it
    # collides if the obstacle's last second in the column is no earlier
    assert (above[:, 1:] >= above[:, :-1]).all()
    danger_from = np.where(above.any(axis=1), above.argmax(axis=1) + 1,
                           horizon + 1)
    heights, level = np.unique(
        np.maximum(cfg.robot_bounds[0], positions.max(axis=1)),
        return_inverse=True)
    sigma = cfg.noise_sigma_obstacle_pos
    harmful_imp, harm, safe = [], [], []
    for at in range(0, len(v), _NODES):
        vs, ts = v[at:at + _NODES, None], t[at:at + _NODES, None]
        # the true leading edge at seconds 0..horizon, as leading_edge
        edge = (cfg.obstacle_spawn_offset
                - vs * np.maximum(0.0, np.arange(horizon + 1.0) - ts))
        occupied = (edge[:, 1:] <= 0.0) & (0.0 < edge[:, 1:]
                                           + cfg.obstacle_width)
        last = np.where(occupied.any(axis=1),
                        horizon - occupied[:, ::-1].argmax(axis=1), 0)
        collides = last[:, None] >= danger_from
        # passage first seen at second k = 1..horizon reads the edge at k − 1
        bound = -(edge[:, :-1] + cfg.obstacle_width + params.passed_margin)
        q = ndtr(bound / sigma) if sigma else (bound > 0).astype(float)
        unseen = np.cumprod(1.0 - q, axis=1)
        w = np.concatenate([q[:, :1], q[:, 1:] * unseen[:, :-1],
                            unseen[:, -1:]], axis=1)
        harmful_imp.append(collides[:, 0])
        harm.append((w * collides).sum(axis=1))
        safe.append(np.where(collides, 0.0, w) @ np.eye(len(heights))[level])
    return (heights, level[0], np.concatenate(harmful_imp),
            np.concatenate(harm), np.concatenate(safe))


def node_rates(cfg: EnvConfig, params: ScriptedPolicyParams, table: tuple,
               y: np.ndarray, weights: np.ndarray, *,
               governed: bool = False) -> np.ndarray:
    """The (D, UT, UH) of each node of a node_table, a (nodes, 3) array,
    with y drawn from the measure of the nodes y and their weights, which
    sum to 1; one node of weight 1 gives the rates at that y, as
    scenario_rates does. ``governed`` as scenario_rates takes it."""
    heights, imp, harmful_imp, harm, safe = table
    threshold, sigma_goal = params.risk_goal_threshold, cfg.noise_sigma_goal
    if governed:
        impatient = np.zeros_like(y)
    elif sigma_goal == 0:
        impatient = (y >= threshold).astype(float)
    else:
        impatient = ndtr((y - threshold) / sigma_goal)
    below = y <= heights[:, None]
    f, g, a = below @ weights, below @ (weights * impatient), weights @ impatient
    ok = ~harmful_imp
    return np.stack([ok * g[imp] + safe @ (f - g),
                     ok * (a - g[imp]) + safe @ (1.0 - a - f + g),
                     a * harmful_imp + (1.0 - a) * harm], axis=1)


def lattice(marginal, lo: float, hi: float, n: int) -> tuple:
    """(nodes, weights) of a marginal over the dimension [lo, hi]: the
    midpoints of n equal cells of its continuous part, each weighted by its
    cell's exact mass; and a ClippedGaussian's two clipped tails, each an
    atom at its bound."""
    if type(marginal) is Uniform:
        edges = np.linspace(marginal.a, marginal.b, n + 1)
        return (edges[:-1] + edges[1:]) / 2, np.full(n, 1.0 / n)
    edges = np.linspace(lo, hi, n + 1)
    cdf = ndtr((edges - marginal.mu) / marginal.sigma)
    return (np.concatenate([[lo], (edges[:-1] + edges[1:]) / 2, [hi]]),
            np.concatenate([cdf[:1], np.diff(cdf), 1.0 - cdf[-1:]]))


def exact_measure(marginal, lo: float, hi: float,
                  breaks: np.ndarray) -> tuple:
    """(nodes, weights) of a marginal over [lo, hi] that integrate node_rates'
    integrands exactly up to rounding: 16-node Gauss-Legendre panels at most
    0.5 wide over its continuous part, split at each of ``breaks``, where an
    integrand steps, so no panel holds a step; and a ClippedGaussian's
    clipped tails, each an atom at its bound."""
    a, b = ((marginal.a, marginal.b) if type(marginal) is Uniform
            else (lo, hi))
    cuts = np.unique(np.concatenate([[a, b],
                                     breaks[(a < breaks) & (breaks < b)]]))
    edges = np.concatenate([
        np.linspace(c0, c1, math.ceil((c1 - c0) / 0.5) + 1)[:-1]
        for c0, c1 in zip(cuts[:-1], cuts[1:])] + [[b]])
    x, w = np.polynomial.legendre.leggauss(16)
    half = np.diff(edges)[:, None] / 2
    nodes = (edges[:-1, None] + half * (x + 1)).ravel()
    weights = (half * w).ravel()
    if type(marginal) is Uniform:
        return nodes, weights / (b - a)
    mu, sigma = marginal.mu, marginal.sigma
    density = np.exp(-0.5 * ((nodes - mu) / sigma) ** 2) / (
        sigma * math.sqrt(2 * math.pi))
    below, above = ndtr((np.array([lo, hi]) - mu) / sigma)
    return (np.concatenate([[lo], nodes, [hi]]),
            np.concatenate([[below], weights * density, [1.0 - above]]))


@functools.lru_cache(maxsize=None)
def _vt_table(cfg: EnvConfig, params: ScriptedPolicyParams, v_marginal,
              t_marginal, bounds: tuple, n: int) -> tuple:
    """The (v, t) lattice of two marginals, n cells a side: its node
    weights, and the node_table of its nodes; cached, so that the truths
    and cell means of one lattice share one table."""
    (vs, wv), (ts, wt) = (lattice(m, *b, n) for m, b in
                          zip((v_marginal, t_marginal), bounds))
    v, t = (a.ravel() for a in np.meshgrid(vs, ts, indexing="ij"))
    return np.outer(wv, wt).ravel(), node_table(cfg, params, v, t)


def condition_rates(cfg: EnvConfig, params: ScriptedPolicyParams,
                    cond: ConditionSet, n: int, *,
                    governed: bool = False) -> np.ndarray:
    """The exact (D, UT, UH) of the scripted policy under a condition over
    (v, t, y): node_rates over y from exact_measure, averaged over the (v, t)
    lattice of n cells a side. The lattice is the only approximation."""
    bounds = tuple((d.min, d.max) for d in cond.space.dims)
    weights, table = _vt_table(cfg, params, *cond.marginals[:2], bounds[:2], n)
    y, u = exact_measure(cond.marginals[2], *bounds[2], table[0])
    return weights @ node_rates(cfg, params, table, y, u, governed=governed)


def cell_means(cfg: EnvConfig, params: ScriptedPolicyParams,
               space, bins: tuple[int, int, int], n: int) -> np.ndarray:
    """The mean (D, UT, UH) over each region of the grid of ``bins`` under
    the uniform law on the region, the testing campaign's, as an
    (n_regions, 3) array in C order: a testing cell's observed rates are
    unbiased for it. n, the lattice's cells a side, is a multiple of the
    (v, t) bin counts."""
    bounds = tuple((d.min, d.max) for d in space.dims)
    _, table = _vt_table(cfg, params, *(Uniform(*b) for b in bounds[:2]),
                         bounds[:2], n)
    bv, bt, _ = bins
    y_edges = PartitionGrid(bins).edges(space, 2)
    means = []
    for y0, y1 in zip(y_edges[:-1], y_edges[1:]):
        rates = node_rates(cfg, params, table, *exact_measure(
            Uniform(y0, y1), *bounds[2], table[0]))
        # the nodes in v-major order, n // bv by n // bt of them per cell
        means.append(rates.reshape(bv, n // bv, bt, n // bt, 3)
                     .mean(axis=(1, 3)))
    return np.stack(means, axis=2).reshape(-1, 3)
