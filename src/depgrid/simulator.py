"""Deterministic robot/obstacle episode simulator.

A robot moves vertically on a 1-D track in fixed 5-inch steps, one step per
second. An obstacle crosses the robot's column horizontally at constant speed
v starting at time t; its bottom edge sits at the danger height, so any robot
position at or above that height is in its path while it occupies the column.
The robot's task is to reach or exceed the goal height y at some point during
the episode; colliding with the obstacle at any time is a harmful failure.

Episodes are pure functions of (config, policy, scenario, seed); a scenario
is its (v, t, y) coordinates, and a seed an integer in [0, 2**64). Sensor
noise is redrawn at every observation from the episode's own generator,
PCG64(seed).

Two functions run episodes. ``run_episode`` steps one scenario (any (v, t, y)
sequence) second by second, one policy act a second, into its TrialRecord;
it is the reference. ``run_batch`` steps the rows of an (n, 3) scenario
array in lockstep, in blocks of at most 4,096 episodes, once for each of
its policies, and returns each policy's campaign as columns (see
estimator.TestCampaign), whose rows equal ``run_episode``'s records: the
same noise stream per seed, leading-edge formula, clip and collision test.
A block runs in chunks of at most _CHUNK seconds, so its memory does not
grow with the horizon. A chunk's sensor readings, made before its first
second, are shared by the policies of the call; each second only moves the
robots, and collisions and outcomes are read from the robots' path after
the chunk's last second. The first chunk's noise is drawn for every
episode, and each later chunk's only for the episodes that some controller
may still read: a controller's ``settled()`` (see policies.BatchPolicy),
asked at every chunk boundary, names the episodes whose every later action
is forward whatever they observe, and each other episode's stream resumes
where the last chunk left it. So every episode still reads a prefix of
PCG64(seed)'s stream.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .domain import Dimension, DomainSpace, SeededStreams, seeded_streams
from .errors import ConfigError, check_finite
from .estimator import BehaviorMode, TestCampaign, TrialRecord

if TYPE_CHECKING:
    from .policies import BatchPolicy

# Episodes stepped together by run_batch. A block holds one chunk's noise at
# a time, turned into its readings in place, (block, _CHUNK, 3) float64:
# 3.1 MB; and that chunk's path, 1.1 MB per policy; at every horizon. A
# 20k-episode campaign took 8-14% less time in blocks of 4,096 than of
# 1,024 (the testing pair, oc1 and oc3; least of 8 alternating runs): the
# per-second cost of _run_chunk is call overhead, not element work.
_BLOCK = 4096

# Seconds of a block's chunks (see _run_block). The first chunk's noise is
# drawn for every episode; at each chunk boundary the controllers are asked
# which episodes they still read, and only those draw the next chunk's. In
# µs per row, the least of 25 4,096-episode blocks, for the testing pair
# and for the plain policy under oc1-oc4 (2-vCPU VM, Python 3.11, numpy
# 2.4); the traced peak is the testing pair's at 100 s:
#           noise alone, seeding included     whole block          peak
#   chunk   pair   oc1   oc2   oc3   oc4   pair   oc1   oc2   oc3   oc4   MB
#   16      4.81  4.65  3.11  3.67  4.47   8.91  7.12  5.59  6.29  7.16   3.9
#   32      3.68  3.70  3.04  3.45  3.82   7.81  6.27  5.56  6.12  6.58   6.8
#   50      3.79  3.77  3.46  3.63  3.82   7.66  6.22  5.90  6.20  6.40  10.1
#   64      4.09  4.07  3.84  3.94  4.10   8.49  6.80  6.49  6.75  7.00  12.6
# Shorter chunks stop drawing for settled episodes sooner but pay each
# chunk's fixed cost more often, and longer ones draw noise that no
# controller reads; 50 s ties 32 s on whole blocks and holds 3.3 MB more.
_CHUNK = 32

# The longest episode EnvConfig takes, in seconds. A block's memory does
# not grow with the horizon (see _CHUNK), so the cap bounds only run time:
# a 4,096-episode block of the testing pair takes 0.7-0.8 s at the cap,
# and would take over half an hour at a horizon of 10**7 seconds.
MAX_EPISODE_SECONDS = 3600

# Scenario bounds for the obstacle dimensions; the goal dimension follows the
# robot track bounds in EnvConfig.
OBSTACLE_SPEED_RANGE = (0.0, 10.0)   # inches/second
START_TIME_RANGE = (0.0, 10.0)       # seconds


class Action(Enum):
    FORWARD = "forward"
    BACKWARD = "backward"


@dataclass(frozen=True)
class EnvConfig:
    """Episode geometry, dynamics, and sensor-noise levels."""

    episode_seconds: int = 100
    step_inches: float = 5.0
    robot_bounds: tuple[float, float] = (0.0, 50.0)
    danger_height: float = 25.0
    obstacle_spawn_offset: float = 80.0
    obstacle_width: float = 10.0
    noise_sigma_speed: float = 0.1
    noise_sigma_obstacle_pos: float = 0.1
    noise_sigma_goal: float = 0.5

    def __post_init__(self):
        check_finite(self)
        lo, hi = self.robot_bounds
        if not lo < self.danger_height < hi:
            raise ConfigError(
                f"danger height {self.danger_height} must lie strictly inside "
                f"robot bounds [{lo}, {hi}]"
            )
        for name in ("episode_seconds", "step_inches", "obstacle_spawn_offset",
                     "obstacle_width", "noise_sigma_speed",
                     "noise_sigma_obstacle_pos", "noise_sigma_goal"):
            if not getattr(self, name) >= 0:   # false for NaN too
                raise ConfigError(f"{name} must be non-negative")
        if self.episode_seconds > MAX_EPISODE_SECONDS:
            raise ConfigError(f"episode_seconds must be at most "
                              f"{MAX_EPISODE_SECONDS}, got "
                              f"{self.episode_seconds}")


def scenario_domain(cfg: EnvConfig) -> DomainSpace:
    """The (v, t, y) box this environment accepts."""
    return DomainSpace((
        Dimension("v", *OBSTACLE_SPEED_RANGE, unit="in/s"),
        Dimension("t", *START_TIME_RANGE, unit="s"),
        Dimension("y", cfg.robot_bounds[0], cfg.robot_bounds[1], unit="in"),
    ))


@dataclass(frozen=True, slots=True)
class Observation:
    """What a policy sees each second. Robot position is exact; the obstacle
    position, obstacle speed, and goal carry fresh zero-mean Gaussian noise.

    A batch observation (``run_batch``) holds one float array per field, one
    entry per episode of the block."""

    obstacle_pos_noisy: float
    robot_pos: float
    obstacle_speed_noisy: float
    goal_noisy: float


def run_episode(cfg: EnvConfig, policy, x: Sequence[float],
                seed: int) -> TrialRecord:
    """Run one episode of scenario x, any (v, t, y) sequence, into its
    TrialRecord, whose scenario is x as a tuple of floats; a scenario
    outside the domain raises OutOfDomain.

    The robot starts at the track bottom. At second k the policy observes
    the robot's position, the obstacle's leading edge, speed and the goal,
    the last three with noise from row k of PCG64(seed)'s standard normals,
    drawn up front as an (episode_seconds, 3) block. The robot then moves
    one step, clipped to the track, and the obstacle moves on. A robot at
    or above the danger height while the obstacle occupies its column
    collides, which ends the episode as a harmful failure whatever its goal
    progress; otherwise the episode succeeds if the robot ever reached or
    exceeded the goal height.
    """
    x = tuple(scenario_domain(cfg).check_points([x])[0].tolist())
    v, t, y = x
    lo, hi = cfg.robot_bounds
    offset, width = cfg.obstacle_spawn_offset, cfg.obstacle_width
    stride, danger = cfg.step_inches, cfg.danger_height
    sigma_edge, sigma_speed, sigma_goal = (cfg.noise_sigma_obstacle_pos,
                                           cfg.noise_sigma_speed,
                                           cfg.noise_sigma_goal)
    noise = np.random.Generator(np.random.PCG64(seed)).standard_normal(
        (cfg.episode_seconds, 3)).tolist()
    policy.reset()
    position = highest = lo
    edge = offset   # the obstacle waits at spawn until its start time t >= 0
    for second, (e_edge, e_speed, e_goal) in enumerate(noise, 1):
        # positional: a frozen dataclass takes keywords at twice the cost
        obs = Observation(edge + sigma_edge * e_edge, position,
                          v + sigma_speed * e_speed, y + sigma_goal * e_goal)
        if policy.act(obs) is Action.FORWARD:
            position += stride
        else:
            position -= stride
        # min(max(position, lo), hi) and the running maximum, without the
        # builtin calls, which cost a fifth of the loop
        if lo > position:
            position = lo
        if hi < position:
            position = hi
        if position > highest:
            highest = position
        edge = offset - v * max(0.0, second - t)
        if edge <= 0.0 < edge + width and position >= danger:
            return TrialRecord(x, BehaviorMode.HARMFUL_FAILURE, second,
                               position)
    mode = (BehaviorMode.SUCCESS if highest >= y
            else BehaviorMode.TASK_FAILURE)
    return TrialRecord(x, mode, len(noise), position)


def batch_form(policy) -> Callable[[int], "BatchPolicy"]:
    """The policy's ``batch`` method, which builds a controller for n
    episodes stepped in lockstep (see policies.BatchPolicy).

    Raises ConfigError for a policy that has none.
    """
    batch = getattr(policy, "batch", None)
    if not callable(batch):
        raise ConfigError(f"{type(policy).__name__} has no batch form; "
                          f"campaigns need a policy with a batch(n) method")
    return batch


def run_batch(cfg: EnvConfig, policies: Sequence, scenarios: np.ndarray,
              seeds: Sequence[int]) -> tuple[TestCampaign, ...]:
    """One campaign per policy, each of one episode per (scenario, seed)
    pair, stepping each block of episodes in lockstep. ``scenarios`` is an
    (n, 3) float array of (v, t, y) rows, such as ``sample`` returns;
    ``seeds`` are integers in [0, 2**64), such as the uint64 array
    ``substream_seeds`` returns, and any other seed raises ConfigError
    before an episode runs. The campaigns hold no seeds: they are inputs.

    Row i of the campaign of policy p equals ``run_episode(cfg, q,
    scenarios[i], seeds[i])`` bit for bit, where q is a fresh policy
    configured like p. Each block's noise is drawn once, and every policy's
    controller, fresh from ``p.batch(n)`` for each block, is stepped through
    the same sensor readings; so a paired campaign costs one draw of the
    noise. The draw comes in chunks of at most _CHUNK seconds: the first
    chunk for every episode, each later one only for the episodes not yet
    settled in every controller (see policies.BatchPolicy), each stream
    resumed where its last draw left it; the other episodes read zero
    noise, on which no controller acts. A controller without ``settled()``
    has every second drawn. A block's memory is one chunk's noise and one
    chunk's path per policy, whatever the horizon. A policy without a batch
    form raises ConfigError. Every scenario is checked against the domain
    before any episode runs; OutOfDomain's row is the first outside. The
    campaigns have no condition name and master seed 0.
    """
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        values = [operator.index(s) for s in seeds]
        bad = [s for s in values if not 0 <= s < 2**64]
        if bad:
            raise ConfigError(f"seeds must be non-negative and below 2**64, "
                              f"got {bad[0]}")
        seeds = np.array(values, dtype=np.uint64)
    if len(seeds) != len(scenarios):
        raise ConfigError(f"{len(seeds)} seeds for {len(scenarios)} "
                          f"scenarios")
    makers = [batch_form(p) for p in policies]
    xs = scenario_domain(cfg).check_points(scenarios)
    shape = (len(makers), len(xs))   # one row per policy
    modes = np.empty(shape, dtype=np.int8)
    steps = np.empty(shape, dtype=np.int64)
    final = np.empty(shape)
    for start in range(0, len(xs), _BLOCK):
        block = slice(start, start + _BLOCK)
        modes[:, block], steps[:, block], final[:, block] = _run_block(
            cfg, makers, xs[block], seeds[block])
    return tuple(TestCampaign("", xs, m, s, f)
                 for m, s, f in zip(modes, steps, final))


def _noise(streams: SeededStreams, rows: Iterable[int],
           seconds: int) -> np.ndarray:
    """Standard normals of shape (len(streams), seconds, 3): for each
    episode j in ``rows``, the next seconds × 3 of stream j, which continue
    where its last draw left it; zeros for the episodes not drawn. Streams
    take only standard normals, 64-bit draws (see domain.SeededStreams)."""
    noise = np.zeros((len(streams), seconds, 3))
    for j, rng in streams.each(rows):
        rng.standard_normal(out=noise[j])
    return noise


def _read_rows(controllers, n: int) -> Iterable[int]:
    """The episodes that some controller may still read: every one if a
    controller has no ``settled()``, else those not settled in all of them
    (see policies.BatchPolicy). Ask only after every controller's first
    act."""
    read = np.zeros(n, dtype=bool)
    for controller in controllers:
        settled = getattr(controller, "settled", None)
        if settled is None:
            return range(n)
        read |= ~settled()
    return np.flatnonzero(read).tolist()


def _readings(cfg: EnvConfig, xs: np.ndarray, noise: np.ndarray,
              start: int) -> np.ndarray:
    """Turn a chunk's noise, (episodes, seconds, 3) from second ``start``
    on, into its sensor readings in place, as run_episode makes them from
    the leading edge it computes; return whether the obstacle occupies
    the robot's column at each second start..start + seconds, as a
    (seconds + 1, episodes) bool array."""
    v, t, y = xs.T
    seconds = noise.shape[1]
    # made before the edges, so that the path can reuse the edges' memory
    occupied = np.empty((seconds + 1, len(xs)), dtype=bool)
    edge = np.arange(start, start + seconds + 1.0)[:, None] - t
    np.maximum(0.0, edge, out=edge)
    edge *= v
    np.subtract(cfg.obstacle_spawn_offset, edge, out=edge)
    # a column at a time: numpy steps a (3,) broadcast three elements at
    # a time, at twice the cost
    for column, sigma, mean in zip(
            noise.transpose(2, 0, 1),
            (cfg.noise_sigma_obstacle_pos, cfg.noise_sigma_speed,
             cfg.noise_sigma_goal),
            (edge[:seconds].T, v[:, None], y[:, None])):
        column *= sigma
        column += mean
    np.less_equal(edge, 0.0, out=occupied)
    edge += cfg.obstacle_width
    occupied &= 0.0 < edge
    return occupied


def _run_block(cfg: EnvConfig, makers, xs: np.ndarray,
               seeds: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mode codes, steps and final positions of the episodes of one block,
    as (controllers, episodes) arrays: one row for the controller each of
    ``makers`` builds.

    The block runs in chunks of seconds [0, _CHUNK), [_CHUNK, 2 × _CHUNK),
    ..., the last one ending at the horizon (see _run_chunk). The first
    chunk's noise is drawn for every episode, and each later chunk's only
    for the episodes some controller may still read (_read_rows, asked
    afresh at each chunk boundary), each row's stream resumed where its
    last draw left it; the others read zero noise, which no controller acts
    on."""
    n, horizon = len(xs), cfg.episode_seconds
    controllers = [make_controller(n) for make_controller in makers]
    streams = seeded_streams(seeds)
    position = np.full((len(controllers), n), cfg.robot_bounds[0])
    # the first collision second, or 0 if none: every robot starts out of
    # danger
    first = np.zeros(position.shape, dtype=np.int64)
    final, reached = position.copy(), position >= xs[:, 2]
    for start in range(0, horizon, _CHUNK):
        rows = range(n) if start == 0 else _read_rows(controllers, n)
        _run_chunk(cfg, controllers, xs,
                   _noise(streams, rows, min(_CHUNK, horizon - start)),
                   start, (position, first, final, reached))
    steps = np.where(first > 0, first, horizon)
    modes = np.select([first > 0, reached],
                      [BehaviorMode.HARMFUL_FAILURE.code,
                       BehaviorMode.SUCCESS.code],
                      BehaviorMode.TASK_FAILURE.code)
    return modes, steps, final


def _run_chunk(cfg: EnvConfig, controllers, xs: np.ndarray,
               noise: np.ndarray, start: int, ends: tuple) -> None:
    """Step the block's episodes through the seconds of one chunk of
    ``noise`` (see _noise), from second ``start``. ``ends`` holds, per
    controller and episode, the position, the first collision second (0 if
    none), the position at the episode's end and whether the goal was
    reached, and is brought up to the chunk's last second in place.

    The chunk's obstacle and sensor readings do not depend on the robot and
    come first; each second then only moves the robots along the chunk's
    path, on past a collision, and the outcomes are read from the path
    afterwards."""
    position, first, final, reached = ends
    occupied = _readings(cfg, xs, noise, start)
    lo, hi = cfg.robot_bounds
    delta = np.array([-cfg.step_inches, cfg.step_inches])
    path = np.empty((noise.shape[1] + 1,) + position.shape)
    path[0] = position
    forward = np.empty(position.shape, dtype=bool)
    for k in range(noise.shape[1]):
        for c, controller in enumerate(controllers):
            forward[c] = controller.act(Observation(
                obstacle_pos_noisy=noise[:, k, 0],
                robot_pos=path[k, c],
                obstacle_speed_noisy=noise[:, k, 1],
                goal_noisy=noise[:, k, 2],
            ))
        moved = path[k + 1]
        np.add(path[k], delta.take(forward.view(np.int8)), out=moved)
        # run_episode's min(max(moved, lo), hi), down to which zero it keeps
        # on a tie: np.maximum would turn a -0.0 bound into a 0.0 position
        np.copyto(moved, lo, where=lo > moved)
        np.copyto(moved, hi, where=hi < moved)
    # a collision at the chunk's first second is the last chunk's, and
    # argmax reads it as none
    hit = ((path >= cfg.danger_height) & occupied[:, None]).argmax(axis=0)
    running = first == 0
    last = np.where(hit > 0, hit, len(path) - 1)
    np.copyto(final, np.take_along_axis(path, last[None], axis=0)[0],
              where=running)
    np.copyto(first, start + hit, where=running & (hit > 0))
    reached |= (path >= xs[:, 2]).any(axis=0)
    position[:] = path[-1]
