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
        k = inside.argmin(axis=1)  # the first coordinate outside, if any
        check_rows(inside.all(axis=1),
                   lambda i: f"{self.names[k[i]]} = {xs[i, k[i]]} outside "
                             f"[{lo[k[i]]}, {hi[k[i]]}]", OutOfDomain)
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
    """
    validate_grid(grid, space)
    xs = space.check_points(xs)
    out = np.empty(xs.shape, dtype=np.int64)
    for d in range(space.ndim):
        e = grid.edges(space, d)
        out[:, d] = np.minimum(np.searchsorted(e, xs[:, d], side="right") - 1,
                               grid.bins[d] - 1)
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
# pcg64.h), computed for many entropy rows at once. Integers are held as
# 32-bit words in uint64 arrays: entropy as a list of word columns, and a
# 128-bit PCG64 value as four limbs, least significant first. Every row of a
# call has the same word count, at least the pool's: SeedSequence pads
# entropy shorter than its pool with zero words, so [w] and [w, 0, 0, 0] mix
# alike, and a seed in [0, 2**64) is its low and high word, then two zeros.
# A substream of a master seed is the master's words, padded with zeros to
# the pool, then its index, one word below 2**32.
# A product of two 32-bit words fits, and every result is masked back to 32
# bits. Every operand is a uint64 (numpy 1.x promotes a uint64 combined with
# a Python int to float64), so the arithmetic is the same under numpy 1.x and
# 2.x promotion rules.

_M32 = np.uint64(0xFFFF_FFFF)
_XSHIFT = np.uint64(16)
_SHIFT32 = np.uint64(32)
_POOL = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = np.uint64(0xCA01_F9DD), np.uint64(0x4973_F715)


def _limbs(value: int) -> tuple[np.uint64, ...]:
    """A 128-bit constant's four 32-bit limbs, least significant first."""
    return tuple(np.uint64((value >> s) & 0xFFFF_FFFF) for s in (0, 32, 64, 96))


_ONE = _limbs(1)
_PCG_MULT = _limbs(0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645)


def _spawn_entropy(master_seed: int, n: int) -> list[np.ndarray]:
    """Entropy of SeedSequence(master_seed, spawn_key=(i,)) for i in
    range(n), as word columns: the master's padded words, each one row that
    stands for all n, then the indices. A negative master seed, or an n
    outside [0, 2**32], raises ConfigError before anything is allocated."""
    master, n = operator.index(master_seed), operator.index(n)
    if master < 0:
        raise ConfigError(f"seeds must be non-negative, got {master}")
    if not 0 <= n <= 2**32:
        raise ConfigError(f"substream count must be in [0, 2**32], got {n}")
    words = [(master >> s) & 0xFFFF_FFFF
             for s in range(0, max(master.bit_length(), 32 * _POOL), 32)]
    return [*np.array(words, dtype=np.uint64)[:, None],
            np.arange(n, dtype=np.uint64)]


def _hashmix(hash_const: int, mult: int):
    """numpy's hashmix with its running constant: each call xors the word
    with the constant, steps the constant, then multiplies by it."""
    def hashmix(words: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        old, hash_const = hash_const, (hash_const * mult) & 0xFFFF_FFFF
        v = ((words ^ np.uint64(old)) * np.uint64(hash_const)) & _M32
        return v ^ (v >> _XSHIFT)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # the uint64 difference wraps modulo 2**64, a multiple of 2**32
    r = ((_MIX_L * x) - (_MIX_R * y)) & _M32
    return r ^ (r >> _XSHIFT)


def _generate_state(entropy: list[np.ndarray], n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words) for the entropy rows of word
    columns, at least the pool's, one of them a column of all the rows: a
    (rows, n_words) uint64 array of 32-bit words."""
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state's output loop: the same step, its own constants
    hashmix = _hashmix(_INIT_B, _MULT_B)
    return np.stack([hashmix(pool[i % _POOL]) for i in range(n_words)],
                    axis=1)


def _mul_add(a, m, c) -> list[np.ndarray]:
    """a·m + c mod 2**128 on limbs: schoolbook, each 64-bit partial product
    split into the 32-bit halves its output limb and the next one take. No
    sum reaches 2**36, so none wraps."""
    out, carry = [], np.uint64(0)
    for k in range(4):
        low, high = carry + c[k], np.uint64(0)
        for i in range(k + 1):
            p = a[i] * m[k - i]
            low, high = low + (p & _M32), high + (p >> _SHIFT32)
        out.append(low & _M32)
        carry = high + (low >> _SHIFT32)
    return out


def _pcg64_limbs(entropy) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The limbs of the (state, inc) of PCG64(SeedSequence(row)) for the
    entropy rows of word columns (as _generate_state takes them).

    PCG64 reads generate_state(4, np.uint64) as a 128-bit initial state and
    stream, high word first, then runs pcg_setseq_128_srandom_r: inc is the
    stream shifted up with its low bit set, and the state is two LCG steps
    from 0 with the initial state added after the first.
    """
    w = _generate_state(entropy, 8)[:, [2, 3, 0, 1, 6, 7, 4, 5]].T
    start, seq = w[:4], w[4:]
    low_bits = [np.ones_like(seq[0])] + [q >> np.uint64(31) for q in seq[:3]]
    inc = [((q << np.uint64(1)) & _M32) | b for q, b in zip(seq, low_bits)]
    return _mul_add(_mul_add(inc, _ONE, start), _PCG_MULT, inc), inc


def _xsl_rr(state) -> np.ndarray:
    """PCG64's 64-bit output of each 128-bit state: the xor of its two
    halves, rotated right by the state's top six bits."""
    x = ((state[3] ^ state[1]) << _SHIFT32) | (state[2] ^ state[0])
    r = state[3] >> np.uint64(26)
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

    Given _pcg64_limbs(entropy), row j's stream is that of
    ``np.random.Generator(np.random.PCG64(np.random.SeedSequence(row)))``
    for entropy row j, without building either per row. A row's state is
    its 32 bytes: the four 64-bit words of its (state, inc), put once in
    the order _word_order finds, which is the only call to numpy's
    ``state`` setter. ``each`` writes a row's bytes into the one PCG64's
    state memory, as a slice assignment to the memoryview of _state_words,
    before it yields the row's generator, and first reads back, as bytes,
    the state of the row drawn before; so a row visited again, by the same
    pass or a later one, resumes its stream where its last draws left it.
    The setter's has_uint32 and uinteger (both 0) are not rewritten, so a
    row may take only draws of whole 64-bit words, such as
    ``standard_normal`` and ``random``; a 32-bit draw would leave a
    buffered half word for the next row. Each instance has its own PCG64,
    so two may be drawn in alternation.
    """

    def __init__(self, state, inc):
        bitgen = np.random.PCG64(0)
        self._rng = np.random.Generator(bitgen)
        self._state = _state_words(bitgen)
        order = _word_order(bitgen, self._state)
        words = np.empty((len(state[0]), 4), dtype=np.uint64)
        for k, (low, high) in zip(order, (state[:2], state[2:], inc[:2],
                                          inc[2:])):
            words[:, k] = (high << _SHIFT32) | low
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
    seeds are computed at once, and each row's are written straight into
    one PCG64's state memory when it is drawn. Take only 64-bit draws
    (``standard_normal``, ``random``)."""
    return SeededStreams(*_pcg64_limbs(
        [seeds & _M32, seeds >> _SHIFT32, *np.zeros((2, 1), dtype=np.uint64)]))


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
    i), computed for all indices at once from their entropy word columns
    (see _spawn_entropy). A negative master seed, or an n outside [0,
    2**32], raises ConfigError.
    """
    w = _generate_state(_spawn_entropy(master_seed, n), 2)
    return w[:, 0] | (w[:, 1] << _SHIFT32)


def sample(cond: ConditionSet, n: int, seed: int) -> np.ndarray:
    """Draw n scenarios from the condition's product distribution, as the
    rows of an (n, ndim) float array.

    Row i draws one value per dimension, in dimension order, from
    PCG64(SeedSequence(seed, spawn_key=(i,))), so the result is a pure
    function of (cond, n, seed) and its first k rows equal sample(cond, k,
    seed): a Uniform(a, b) value is ``rng.uniform(a, b)`` and a
    ClippedGaussian one ``min(max(rng.normal(mu, sigma), lo), hi)`` of that
    row's generator. The substream states are computed for all indices at
    once, from their entropy word columns (see _spawn_entropy). The unit
    draws of the leading run of Uniform marginals are made for all rows at
    once from the stepped states, as ``Generator.random`` computes them:
    the top 53 bits of the output over 2**53. From the first other marginal
    on, one generator serves every row: the state bytes the leading draws
    left are written into its state memory once per row, the same write as
    the episode noise's (see SeededStreams), and it fills the row's
    standard normals and unit uniforms, both 64-bit draws, into the same
    array, with one call per run of marginals of one kind. Then each column
    becomes mu + sigma·z, clipped to the dimension bounds as min(max(g,
    lo), hi) is, or a + (b - a)·u, as ``Generator.uniform`` computes it. A
    negative seed, or an n outside [0, 2**32], raises ConfigError.
    """
    state, inc = _pcg64_limbs(_spawn_entropy(seed, n))
    uniform = [isinstance(m, Uniform) for m in cond.marginals]
    k = uniform.index(False) if False in uniform else len(uniform)
    raw = np.empty((n, len(uniform)))
    for j in range(k):
        state = _mul_add(state, _PCG_MULT, inc)
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
