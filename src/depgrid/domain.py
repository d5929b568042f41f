"""Domain spaces, condition distributions, and grid partitions.

The domain is a bounded continuous box. A condition set assigns one marginal
distribution per dimension (an independent product distribution); Gaussian
marginals are clipped to the dimension bounds, which places point atoms of
probability on the boundary values. A condition's region masses are one C-order
vector per grid (``region_mass_vector``), computed without sampling: each
marginal gives the masses of its dimension's bins from the bin edges as one
array (``bin_masses``), and the vector is the outer product of those arrays.

A scenario is a point of the domain given by its coordinates, in dimension
order: a row of an (n, ndim) float array on the campaign path (``sample``
returns one), or any coordinate sequence where one scenario is handled on its
own.

Bin-edge convention: every bin is half-open [lo, hi) except the last bin of
each dimension, which is closed [lo, hi]. A value lying exactly on an interior
edge belongs to the higher bin.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import (ConfigError, DepgridError, InvalidGrid, OutOfDomain,
                     check_finite, check_rows)

_SQRT2 = math.sqrt(2.0)


def norm_cdf(z: float) -> float:
    """Standard normal CDF via erfc (error below 1e-12; 0 and 1 at -+inf)."""
    return 0.5 * math.erfc(-z / _SQRT2)


# ---------------------------------------------------------------------------
# Domain geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dimension:
    """One bounded axis of the domain, e.g. obstacle speed in [0, 10] in/s."""

    name: str
    min: float
    max: float
    unit: str = ""

    def __post_init__(self):
        if not self.name:
            raise ConfigError("dimension name must be non-empty")
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ConfigError(f"dimension {self.name!r}: bounds must be finite")
        if not self.min < self.max:
            raise ConfigError(
                f"dimension {self.name!r}: min ({self.min}) must be < max ({self.max})"
            )
        if not math.isfinite(self.max - self.min):
            raise ConfigError(
                f"dimension {self.name!r}: width max - min overflows "
                f"([{self.min}, {self.max}])")

    @property
    def width(self) -> float:
        return self.max - self.min

    @property
    def label(self) -> str:
        return f"{self.name} [{self.unit}]" if self.unit else self.name


@dataclass(frozen=True)
class DomainSpace:
    """An ordered tuple of dimensions; the box they span is the domain."""

    dims: tuple[Dimension, ...]

    def __post_init__(self):
        if not self.dims:
            raise ConfigError("domain space needs at least one dimension")
        names = [d.name for d in self.dims]
        if len(set(names)) != len(names):
            raise ConfigError(f"dimension names must be unique, got {names}")

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.dims)

    def index_of(self, name: str) -> int:
        for i, d in enumerate(self.dims):
            if d.name == name:
                return i
        raise ConfigError(f"unknown dimension {name!r}; domain has {self.names}")

    def check_points(self, xs) -> np.ndarray:
        """The points xs as an (n, ndim) float array. A point with the wrong
        number of coordinates or one outside its bounds (NaN and infinities
        included) raises OutOfDomain, whose ``row`` is the first such point."""
        try:
            xs = np.asarray(xs, dtype=float)
        except (ValueError, TypeError) as e:
            raise OutOfDomain(f"scenario coordinates are not an (n, ndim) array "
                              f"of numbers: {e}") from None
        if xs.shape[:1] == (0,):
            return np.empty((0, self.ndim))
        if xs.shape[1:] != (self.ndim,):
            e = OutOfDomain(f"scenarios need {self.ndim} coordinates each, got "
                            f"an array of shape {xs.shape}")
            e.row = 0  # every point has the wrong count
            raise e
        lo, hi = np.array([(d.min, d.max) for d in self.dims]).T
        inside = (xs >= lo) & (xs <= hi)  # NaN fails both

        def outside(i):
            k = int(inside[i].argmin())  # the first coordinate outside
            return f"{self.names[k]} = {xs[i, k]} outside [{lo[k]}, {hi[k]}]"
        # all(axis=1) over short rows takes some 25 times the whole all():
        # reduce row by row only to find a bad row
        check_rows(inside.all() or inside.all(axis=1), outside, OutOfDomain)
        return xs


# ---------------------------------------------------------------------------
# Marginal distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Uniform:
    """Uniform(a, b). Support must lie inside the dimension bounds."""

    a: float
    b: float

    kind = "uniform"

    def __post_init__(self):
        check_finite(self)
        if not self.a < self.b:
            raise ConfigError(f"uniform: a ({self.a}) must be < b ({self.b})")

    def validate_for(self, dim: Dimension) -> None:
        if self.a < dim.min or self.b > dim.max:
            raise ConfigError(
                f"uniform support [{self.a}, {self.b}] exceeds "
                f"{dim.name} bounds [{dim.min}, {dim.max}]"
            )

    def bin_masses(self, edges: np.ndarray) -> np.ndarray:
        """The mass of each bin between consecutive edges: its overlap with
        [a, b] over b - a."""
        overlap = np.minimum(edges[1:], self.b) - np.maximum(edges[:-1], self.a)
        return np.maximum(0.0, overlap) / (self.b - self.a)


@dataclass(frozen=True)
class ClippedGaussian:
    """Gaussian(mu, sigma) with samples clipped to the dimension bounds.

    Clipping moves out-of-range probability onto atoms at the boundary
    values, so the first and last bins of a partition absorb the lower and
    upper tail mass respectively.
    """

    mu: float
    sigma: float

    kind = "clipped_gaussian"

    def __post_init__(self):
        check_finite(self)
        if not self.sigma > 0:
            raise ConfigError(f"clipped gaussian: sigma ({self.sigma}) must be > 0")

    def validate_for(self, dim: Dimension) -> None:
        pass  # any mu/sigma is legal; clipping handles the tails

    def bin_masses(self, edges: np.ndarray) -> np.ndarray:
        """The mass of each bin between consecutive edges: the difference of
        norm_cdf at its two edges, the first and last edges taken as -inf
        and +inf, so the end bins hold the clipped tails."""
        z = ((edges - self.mu) / self.sigma).tolist()
        z[0], z[-1] = -math.inf, math.inf
        return np.diff([norm_cdf(v) for v in z])


MarginalDistribution = Union[Uniform, ClippedGaussian]


# ---------------------------------------------------------------------------
# Partition grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionGrid:
    """Equal-width bin counts per dimension; edges are implied by the space.
    A region is its index (one bin number per dimension) or its number in C
    order (last dimension fastest)."""

    bins: tuple[int, ...]

    def __post_init__(self):
        for d, b in enumerate(self.bins):
            # what operator.index takes (it has __index__), but no bool
            if type(b) is bool or not hasattr(b, "__index__") or b < 1:
                raise InvalidGrid(f"dimension {d}: bin count must be an "
                                  f"integer >= 1, got {b!r}")
        if 24 * self.n_regions > 2**63 - 1:  # bytes of tally's int64 counts
            raise InvalidGrid(f"a grid of {self.n_regions} regions is too "
                              f"large: at most {(2**63 - 1) // 24}")

    @property
    def n_regions(self) -> int:
        return math.prod(map(operator.index, self.bins))

    def edges(self, space: DomainSpace, d: int) -> np.ndarray:
        dim = space.dims[d]
        return np.linspace(dim.min, dim.max, self.bins[d] + 1)


def validate_grid(grid: PartitionGrid, space: DomainSpace) -> None:
    """Check the grid partitions the space: its rank matches the space's.

    PartitionGrid rejects bin counts below 1 at construction; disjointness
    and full coverage hold by construction of the equal-width edges.
    """
    if len(grid.bins) != space.ndim:
        raise InvalidGrid(
            f"grid has {len(grid.bins)} dimensions, domain has {space.ndim}"
        )


def partition_indices(grid: PartitionGrid, space: DomainSpace,
                      xs: np.ndarray) -> np.ndarray:
    """Vectorized bin indices, shape (n, ndim), of the points xs, an (n, ndim)
    array.

    Interior edges belong to the higher bin; the domain maximum belongs to
    the last bin. Points outside the domain raise OutOfDomain (see
    DomainSpace.check_points).

    A coordinate x of a dimension of b bins is first estimated to lie in bin
    trunc((x - min) / width · b), clipped to [0, b - 1]; in that order every
    intermediate is finite. The estimate is then corrected against the
    grid's own edges e, in passes: down one where x < e[i], then up one
    where x is at or above the bin's upper edge (e[i + 1], or +inf for the
    closed last bin), until a pass moves no point. Where bins are many ulps
    wide the estimate is off by at most one, for a point on or next to an
    edge, and one pass finds nothing to move on random points; where edges
    lie closer than an ulp, and some are equal, the passes walk each point
    on to its bin. The result is the bin a binary search finds,
    searchsorted(e, x, "right") - 1, capped at b - 1.
    """
    validate_grid(grid, space)
    xs = space.check_points(xs)
    out = np.empty(xs.shape, dtype=np.int64)
    for d, (dim, b) in enumerate(zip(space.dims, grid.bins)):
        e = grid.edges(space, d)
        upper = np.append(e[1:-1], np.inf)
        x = xs[:, d]
        i = ((x - dim.min) / dim.width * b).astype(np.int64)
        np.clip(i, 0, b - 1, out=i)
        while True:
            down = x < e[i]
            i -= down
            up = x >= upper[i]
            i += up
            if not (down.any() or up.any()):
                break
        out[:, d] = i
    return out


# ---------------------------------------------------------------------------
# Condition sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionSet:
    """A named independent product distribution over a domain space."""

    name: str
    space: DomainSpace
    marginals: tuple[MarginalDistribution, ...]

    def __post_init__(self):
        if len(self.marginals) != self.space.ndim:
            raise ConfigError(
                f"condition {self.name!r}: {len(self.marginals)} marginals for "
                f"{self.space.ndim} dimensions"
            )
        for m, d in zip(self.marginals, self.space.dims):
            m.validate_for(d)

    def dim_masses(self, grid: PartitionGrid, d: int) -> np.ndarray:
        """Per-bin probability masses along dimension d (sums to 1)."""
        return self.marginals[d].bin_masses(grid.edges(self.space, d))

    def region_mass_vector(self, grid: PartitionGrid) -> np.ndarray:
        """Masses of all regions, raveled in C order. Sums to 1 analytically."""
        validate_grid(grid, self.space)
        per_dim = [self.dim_masses(grid, d) for d in range(self.space.ndim)]
        out = per_dim[0]
        for v in per_dim[1:]:
            out = np.multiply.outer(out, v)
        return out.reshape(-1)


# ---------------------------------------------------------------------------
# Seeding
# ---------------------------------------------------------------------------
# numpy's SeedSequence and PCG64 (numpy/random/bit_generator.pyx and
# pcg64.h), for many entropy rows at once. An entropy word is a Python int
# below 2**32 where all rows share it, else a uint32 array, whose arithmetic
# wraps modulo 2**32 as SeedSequence's does; a step on ints alone runs once,
# on Python ints masked to 32 bits. A 128-bit PCG64 value is its (high, low)
# pair of uint64 arrays. An int meets an array only as an np.uint32 or
# np.uint64 of its low bits: numpy 2 (NEP 50) raises OverflowError for a
# Python int the array's type cannot hold, where numpy 1.x promotes.
# SeedSequence pads entropy shorter than its pool with zero words, so a seed
# in [0, 2**64) is its low and high word, then two zeros, and a substream
# is its master's words, zero-padded to the pool, then its index.

_M32 = 0xFFFF_FFFF
_XSHIFT = np.uint32(16)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
_LOW32, _SHIFT32 = np.uint64(_M32), np.uint64(32)
# PCG64's multiplier: its high and low halves, then the low half's halves
_MULT_HI, _MULT_LO, _MULT_LO1, _MULT_LO0 = map(np.uint64, (
    0x2360_ED05_1FC6_5DA4, 0x4385_DF64_9FCC_F645, 0x4385_DF64, 0x9FCC_F645))


def _spawn_entropy(master_seed: int, n: int) -> list:
    """Entropy of SeedSequence(master_seed, spawn_key=(i,)) for i in
    range(n): the master's padded words as Python ints, then the indices as
    a uint32 array. A negative master seed, or an n outside [0, 2**32],
    raises ConfigError before anything is allocated."""
    master, n = operator.index(master_seed), operator.index(n)
    if master < 0:
        raise ConfigError(f"seeds must be non-negative, got {master}")
    if not 0 <= n <= 2**32:
        raise ConfigError(f"substream count must be in [0, 2**32], got {n}")
    words = [master >> s & _M32
             for s in range(0, max(master.bit_length(), 32 * _POOL), 32)]
    return [*words, np.arange(n, dtype=np.uint32)]


def _hashmix(hash_const: int, mult: int):
    """numpy's hashmix with its running constant: each call xors the word
    with the constant, steps it, then multiplies by it; an int word gives
    an int, an array word a new uint32 array."""
    def hashmix(word):
        nonlocal hash_const
        old, hash_const = hash_const, hash_const * mult & _M32
        if isinstance(word, int):
            v = (word ^ old) * hash_const & _M32
            return v ^ v >> 16
        v = word ^ np.uint32(old)
        v *= np.uint32(hash_const)
        v ^= v >> _XSHIFT
        return v
    return hashmix


def _mix(x, y):
    """numpy's mix, L·x − R·y mod 2**32 with its xorshift: an int of ints,
    else a uint32 array written over an array operand the caller gives up."""
    if isinstance(x, int) and isinstance(y, int):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16
    x, y = (np.uint32(k * w & _M32) if isinstance(w, int)
            else np.multiply(w, np.uint32(k), out=w)
            for w, k in ((x, _MIX_L), (y, _MIX_R)))
    r = np.subtract(x, y, out=x if isinstance(x, np.ndarray) else y)
    r ^= r >> _XSHIFT
    return r


def _generate_state(entropy: list, n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words, np.uint64) for the entropy rows,
    at least the pool's words, each an int or a uint32 array and at least
    one an array (see _spawn_entropy): a (rows, n_words) uint64 array. The
    steps on the int words before the first array run once, on ints."""
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state's output loop: the same step, its own constants, run
    # once over the (2·n_words, rows) output words, its running constants a
    # column; a uint64 is two words, the low one first
    consts = [_INIT_B]
    for _ in range(2 * n_words):
        consts.append(consts[-1] * _MULT_B & _M32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    words = np.stack([pool[i % _POOL] for i in range(2 * n_words)])
    words ^= consts[:-1]
    words *= consts[1:]
    words ^= words >> _XSHIFT
    words = words.astype(np.uint64)
    return (words[::2] | words[1::2] << _SHIFT32).T


def _pcg64_step(state, inc) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step, state·MULT + inc mod 2**128, on (high, low) uint64
    halves: low is one wrapping multiply, high is hi·M_lo + lo·M_hi, plus
    the high word of lo·M_lo from four 32-bit partial products, whose sums
    cannot wrap. An add carries exactly when its sum is below an addend."""
    hi, lo = state
    lo0, lo1 = lo & _LOW32, lo >> _SHIFT32
    t = lo1 * _MULT_LO0 + (lo0 * _MULT_LO0 >> _SHIFT32)
    u = lo0 * _MULT_LO1 + (t & _LOW32)
    high = (lo1 * _MULT_LO1 + (t >> _SHIFT32) + (u >> _SHIFT32)
            + hi * _MULT_LO + lo * _MULT_HI + inc[0])
    low = lo * _MULT_LO + inc[1]
    return high + (low < inc[1]), low


def _pcg64_states(entropy) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The (state, inc) of PCG64(SeedSequence(row)) for the entropy rows (as
    _generate_state takes them), each a (high, low) pair of uint64 arrays.
    PCG64 reads generate_state(4, np.uint64) as a 128-bit initial state and
    stream, high word first, then runs pcg_setseq_128_srandom_r: inc is the
    stream shifted up with its low bit set, and the state is two LCG steps
    from 0 with the initial state added after the first, which gives inc."""
    start_hi, start_lo, seq_hi, seq_lo = _generate_state(entropy, 4).T
    one = np.uint64(1)
    inc = (seq_hi << one | seq_lo >> np.uint64(63), seq_lo << one | one)
    low = inc[1] + start_lo
    return _pcg64_step((inc[0] + start_hi + (low < start_lo), low), inc), inc


def _xsl_rr(state) -> np.ndarray:
    """PCG64's 64-bit output of each (high, low) state: high ^ low, rotated
    right by the top six bits of high."""
    hi, lo = state
    x, r = hi ^ lo, hi >> np.uint64(58)
    return (x >> r) | (x << ((np.uint64(64) - r) & np.uint64(63)))


def _state_words(bitgen: np.random.PCG64) -> memoryview:
    """A writable byte view of the 32 bytes, four 64-bit words, of bitgen's
    pcg64_random_t, the (state, inc) struct that the first member of its
    pcg64_state, at ``bitgen.ctypes.state_address``, points at. The view
    does not keep bitgen alive: use it only while bitgen is referenced."""
    struct = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    raw = (ctypes.c_ubyte * 32).from_address(struct)
    return memoryview(np.frombuffer(raw, dtype=np.uint8))


# four distinct words: state low, state high, inc low, inc high
_PROBE = (0x0123_4567_89AB_CDEF, 0x1032_5476_98BA_DCFE,
          0x2301_6745_AB89_EFCD, 0x3210_7654_BA98_FEDC)


def _word_order(bitgen: np.random.PCG64, view: memoryview) -> list[int]:
    """The places, as 64-bit words, in ``view`` (see _state_words) of
    PCG64's (state low, state high, inc low, inc high), read after numpy's
    own ``state`` setter has set a known state: gcc and clang, with
    __uint128_t, store each 128-bit value low word first, MSVC's emulated
    pcg128_t high word first. Words that are not all found raise
    DepgridError naming numpy's version, so no stream is drawn from an
    unchecked state."""
    s_lo, s_hi, i_lo, i_hi = _PROBE
    doc = bitgen.state   # its bit_generator names the class the setter takes
    doc.update(state={"state": s_hi << 64 | s_lo, "inc": i_hi << 64 | i_lo},
               has_uint32=0, uinteger=0)
    bitgen.state = doc
    found = np.frombuffer(view, dtype=np.uint64).tolist()
    if sorted(found) != sorted(_PROBE):
        raise DepgridError(
            f"numpy {np.__version__}: PCG64's state words are not where its "
            f"state address points, so streams cannot be seeded in place")
    return [found.index(w) for w in _PROBE]


class SeededStreams:
    """The PCG64 streams of many rows, drawn through one generator.

    Given _pcg64_states(entropy), row j's stream is that of
    ``np.random.Generator(np.random.PCG64(np.random.SeedSequence(row)))``
    for entropy row j, without building either per row. A row's state is
    its 32 bytes, the four uint64 halves of its (state, inc) in the order
    _word_order finds, the only call to numpy's ``state`` setter. ``each``
    writes a row's bytes into the one PCG64's state memory, a slice of the
    memoryview of _state_words, before it yields the row's generator, and
    first reads back, as bytes, the state of the row drawn before; so a row
    visited again, by the same pass or a later one, resumes its stream
    where its last draws left it. The setter's has_uint32 and uinteger
    (both 0) are not rewritten, so a row may take only draws of whole
    64-bit words, such as ``standard_normal`` and ``random``; a 32-bit draw
    would leave a buffered half word for the next row. Each instance has
    its own PCG64, so two may be drawn in alternation.
    """

    def __init__(self, state, inc):
        bitgen = np.random.PCG64(0)
        self._rng = np.random.Generator(bitgen)
        self._state = _state_words(bitgen)
        order = _word_order(bitgen, self._state)
        words = np.empty((len(state[0]), 4), dtype=np.uint64)
        words[:, order] = np.stack((state[1], state[0], inc[1], inc[0]), 1)
        raw = words.tobytes()
        # one more entry, the row the generator holds before the first
        self._rows = [raw[at:at + 32] for at in range(0, len(raw), 32)]
        self._rows.append(b"")
        self._held = -1

    def __len__(self) -> int:
        return len(self._rows) - 1

    def each(self, rows: Iterable[int]
             ) -> Iterator[tuple[int, np.random.Generator]]:
        """(j, generator) for each row index j of ``rows`` in turn, the
        generator at row j's state. Take row j's draws before asking for
        another row."""
        state, saved, rng = self._state, self._rows, self._rng
        for j in rows:
            saved[self._held] = state.tobytes()
            state[:] = saved[j]
            self._held = j
            yield j, rng


def seeded_streams(seeds: np.ndarray) -> SeededStreams:
    """The streams of ``np.random.Generator(np.random.PCG64(seed))`` for
    each seed of a uint64 array, as SeededStreams: the states of all the
    seeds are computed at once, from the seeds' low and high words as
    uint32 arrays, and each row's are written straight into one PCG64's
    state memory when it is drawn. Take only 64-bit draws
    (``standard_normal``, ``random``)."""
    high = (seeds >> _SHIFT32).astype(np.uint32)
    return SeededStreams(*_pcg64_states([seeds.astype(np.uint32), high, 0, 0]))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------
# Stream-splitting rule: unit i of the work under a master seed m (scenario
# i of a sample, episode i of a campaign) draws from the substream keyed by
# SeedSequence(m, spawn_key=(i,)). A unit's draws therefore depend only on
# (m, i), not on how many units there are or in what order they run.

def substream_seed(master_seed: int, index: int) -> int:
    """A 64-bit integer seed identifying substream ``index`` (for records).

    The scalar reference for substream_seeds.
    """
    ss = np.random.SeedSequence(master_seed, spawn_key=(index,))
    return int(ss.generate_state(1, np.uint64)[0])


def substream_seeds(master_seed: int, n: int) -> np.ndarray:
    """The seeds of substreams 0..n-1 as a uint64 array.

    Element i is ``SeedSequence(master_seed, spawn_key=(i,))
    .generate_state(1, np.uint64)[0]``, equal to substream_seed(master_seed,
    i), computed for all indices at once, the master's words mixed once as
    Python ints (see _spawn_entropy). A negative master seed, or an n
    outside [0, 2**32], raises ConfigError.
    """
    return _generate_state(_spawn_entropy(master_seed, n), 1)[:, 0]


def sample(cond: ConditionSet, n: int, seed: int) -> np.ndarray:
    """Draw n scenarios from the condition's product distribution, as the
    rows of an (n, ndim) float array.

    Row i draws one value per dimension, in dimension order, from
    PCG64(SeedSequence(seed, spawn_key=(i,))), so the result is a pure
    function of (cond, n, seed) and its first k rows equal sample(cond, k,
    seed): a Uniform(a, b) value is ``rng.uniform(a, b)`` and a
    ClippedGaussian one ``min(max(rng.normal(mu, sigma), lo), hi)`` of that
    row's generator. Every row's state is computed at once as (high, low)
    uint64 halves (see _pcg64_states), which the leading run of Uniform
    marginals steps for all rows at once: a unit draw is the output's top
    53 bits over 2**53, as ``Generator.random`` makes it. From the first
    other marginal on, one generator serves every row, its state memory
    written once per row (see SeededStreams), and fills the row's standard
    normals and unit uniforms with one call per run of marginals of one
    kind. Then each column becomes mu + sigma·z, clipped as min(max(g, lo),
    hi) is, or a + (b - a)·u, as ``Generator.uniform`` computes it. A
    negative seed, or an n outside [0, 2**32], raises ConfigError.
    """
    state, inc = _pcg64_states(_spawn_entropy(seed, n))
    uniform = [isinstance(m, Uniform) for m in cond.marginals]
    k = uniform.index(False) if False in uniform else len(uniform)
    raw = np.empty((n, len(uniform)))
    for j in range(k):
        state = _pcg64_step(state, inc)
        raw[:, j] = (_xsl_rr(state) >> np.uint64(11)) * 2.0**-53
    # the rest of each row as runs of one kind of marginal: (columns, fill)
    runs, start = [], k
    for is_uniform, same in itertools.groupby(uniform[k:]):
        stop = start + len(list(same))
        runs.append((slice(start, stop), np.random.Generator.random
                     if is_uniform else np.random.Generator.standard_normal))
        start = stop
    if runs:
        for j, rng in SeededStreams(state, inc).each(range(n)):
            for columns, fill in runs:
                fill(rng, out=raw[j, columns])
    for j, (m, d) in enumerate(zip(cond.marginals, cond.space.dims)):
        if isinstance(m, Uniform):
            a = float(m.a)
            raw[:, j] = a + (float(m.b) - a) * raw[:, j]
        else:
            g = float(m.mu) + float(m.sigma) * raw[:, j]
            lo, hi = float(d.min), float(d.max)
            g = np.where(lo > g, lo, g)
            raw[:, j] = np.where(hi < g, hi, g)
    return raw
