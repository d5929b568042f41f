from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, strategies as st
from scipy.integrate import quad

from depgrid import (
    ClippedGaussian,
    ConditionSet,
    ConfigError,
    Dimension,
    DomainSpace,
    InvalidGrid,
    OutOfDomain,
    PartitionGrid,
    Uniform,
    norm_cdf,
    partition_indices,
    sample,
    validate_grid,
)
from depgrid import presets
from reference import Table, in_region, region_mass

# Frozen standard-normal CDF values, computed with scipy.special.ndtr.
PHI_MINUS_1 = 0.15865525393145707
PHI_MINUS_1_5 = 0.06680720126885807
ONE_MINUS_PHI_1 = 0.1586552539314571
# Frozen quadrature of the N(3, 2^2) density over [4, 5) (scipy.integrate.quad).
GAUSS_3_2_BIN_4_5 = 0.14988228479452986


def region_of(grid: PartitionGrid, space: DomainSpace, x) -> tuple[int, ...]:
    """The index of the region that partition_indices puts the scenario x, a
    coordinate sequence, in."""
    (index,) = partition_indices(grid, space, [x])
    return tuple(index.tolist())


def line_domain() -> DomainSpace:
    return DomainSpace((Dimension("x", 0.0, 10.0),))


def test_norm_cdf_against_independent_oracle():
    for z in (-8.0, -2.5, -1.5, -1.0, 0.0, 0.3, 1.0, 4.0, 8.0):
        assert norm_cdf(z) == pytest.approx(float(scipy.special.ndtr(z)), abs=1e-13)
    assert (norm_cdf(-math.inf), norm_cdf(math.inf)) == (0.0, 1.0)


def mass_at(cond, grid: PartitionGrid, i: tuple[int, ...]) -> float:
    """The entry of the condition's mass vector for the region at index i."""
    return cond.region_mass_vector(grid)[np.ravel_multi_index(i, grid.bins)]


@pytest.mark.parametrize("build, error", [
    (lambda: Dimension("", 0.0, 1.0), "name must be non-empty"),
    (lambda: Dimension("v", 0.0, math.inf), "bounds must be finite"),
    (lambda: DomainSpace(()), "at least one dimension"),
    (lambda: Uniform(5.0, 1.0), r"a \(5.0\) must be < b \(1.0\)"),
    (lambda: Uniform(-math.inf, 1.0), "^a must be finite"),
    (lambda: ClippedGaussian(1.0, 0.0), r"sigma \(0.0\) must be > 0"),
    (lambda: ClippedGaussian(math.nan, 1.0), "^mu must be finite"),
], ids=["unnamed_dimension", "infinite_bound", "no_dimensions",
        "uniform_a_above_b", "infinite_uniform_a", "zero_sigma", "nan_mu"])
def test_domain_classes_refuse_bad_values(build, error):
    with pytest.raises(ConfigError, match=error):
        build()


def test_check_points_names_the_first_point_outside(space):
    xs = [[5.0, 5.0, 30.0], [11.0, 5.0, 30.0], [5.0, 5.0, 30.0],
          [5.0, -1.0, 30.0]]
    with pytest.raises(OutOfDomain, match=r"^v = 11.0 outside \[0.0, 10.0\]$") as e:
        space.check_points(xs)
    assert e.value.row == 1
    with pytest.raises(OutOfDomain, match="3 coordinates") as e:
        space.check_points([[5.0, 5.0], [5.0, 5.0]])
    assert e.value.row == 0
    assert space.check_points(xs[:1]).shape == (1, 3)
    assert space.check_points([]).shape == (0, 3)


class TestPartitionIndex:
    def test_first_bin(self):
        space = line_domain()
        grid = PartitionGrid((10,))
        assert region_of(grid, space, (0.5,)) == (0,)

    def test_domain_max_belongs_to_closed_last_bin(self):
        space = line_domain()
        grid = PartitionGrid((10,))
        assert region_of(grid, space, (10.0,)) == (9,)

    def test_interior_edge_belongs_to_higher_bin(self):
        space = line_domain()
        grid = PartitionGrid((10,))
        assert region_of(grid, space, (3.0,)) == (3,)

    def test_experiment_domain_3d(self, space, grid):
        # independent oracle: floor((x - min) / width) per dimension
        x = (3.2, 9.9, 38.5)
        expect = tuple(
            int(math.floor((v - d.min) / (d.width / b)))
            for v, d, b in zip(x, space.dims, grid.bins)
        )
        assert expect == (3, 9, 7)
        assert region_of(grid, space, x) == expect

    def test_out_of_domain(self, space, grid):
        with pytest.raises(OutOfDomain):
            region_of(grid, space, (11.0, 0.0, 0.0))
        with pytest.raises(OutOfDomain):
            region_of(grid, space, (5.0, 0.0, -0.1))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(OutOfDomain):
                region_of(grid, space, (bad, 5.0, 1.0))
            with pytest.raises(OutOfDomain):
                region_of(grid, space, (5.0, 5.0, bad))

    def test_scenario_lies_within_returned_region(self, space, grid):
        rng = np.random.default_rng(3)
        for _ in range(200):
            x = tuple(float(rng.uniform(d.min, d.max)) for d in space.dims)
            assert in_region(grid, space, region_of(grid, space, x), x)


class TestRegionMass:
    def test_uniform_bin(self):
        space = line_domain()
        grid = PartitionGrid((10,))
        cond = ConditionSet("u", space, (Uniform(0.0, 10.0),))
        assert mass_at(cond, grid, (0,)) == pytest.approx(0.1, abs=1e-15)

    def test_clipped_gaussian_first_bin_includes_atom(self):
        space = line_domain()
        grid = PartitionGrid((10,))
        cond = ConditionSet("g", space, (ClippedGaussian(3.0, 2.0),))
        for mass in (mass_at, region_mass):
            assert mass(cond, grid, (0,)) == pytest.approx(PHI_MINUS_1,
                                                           abs=1e-12)

    def test_clipped_gaussian_last_bin_includes_atom(self):
        space = DomainSpace((Dimension("y", 0.0, 50.0),))
        grid = PartitionGrid((10,))
        cond = ConditionSet("g", space, (ClippedGaussian(35.0, 10.0),))
        assert grid.edges(space, 0)[9:].tolist() == [45.0, 50.0]
        for mass in (mass_at, region_mass):
            assert mass(cond, grid, (9,)) == pytest.approx(ONE_MINUS_PHI_1,
                                                           abs=1e-12)

    def test_clipped_gaussian_interior_bin_quadrature_oracle(self):
        space = line_domain()
        grid = PartitionGrid((10,))
        cond = ConditionSet("g", space, (ClippedGaussian(3.0, 2.0),))
        for mass in (mass_at, region_mass):
            assert mass(cond, grid, (4,)) == pytest.approx(GAUSS_3_2_BIN_4_5,
                                                           abs=1e-12)
        # recompute the oracle here so the frozen value stays auditable
        live, err = quad(lambda v: scipy.stats.norm.pdf(v, 3.0, 2.0), 4.0, 5.0)
        assert live == pytest.approx(GAUSS_3_2_BIN_4_5, abs=1e-12)

    def test_single_bin_dimension_takes_all_mass(self):
        space = line_domain()
        grid = PartitionGrid((1,))
        cond = ConditionSet("g", space, (ClippedGaussian(-4.0, 0.5),))
        assert mass_at(cond, grid, (0,)) == pytest.approx(1.0, abs=1e-15)

    def test_discrete_table_follows_the_bin_edge_convention(self):
        space = line_domain()
        grid = PartitionGrid((10,))
        # the domain minimum, an interior edge, just below it, the maximum
        cond = Table("d", space, ((0.0,), (3.0,), (2.999,), (10.0,)),
                     (0.1, 0.2, 0.3, 0.4))
        masses = [0.1, 0, 0.3, 0.2, 0, 0, 0, 0, 0, 0.4]
        assert [region_mass(cond, grid, (i,)) for i in range(10)] == masses
        assert cond.region_mass_vector(grid).tolist() == masses

    def test_presets_normalize(self, grid):
        for name in ("testing", "oc1", "oc2", "oc3", "oc4"):
            m = presets.condition(name).region_mass_vector(grid)
            assert float(m.sum()) == pytest.approx(1.0, abs=1e-9)
            assert float(m.min()) >= 0.0

    def test_uniform_marginals_give_equal_in_support_masses(self, grid):
        cond = presets.condition("oc2")  # y ~ U(30, 50): 4 of 10 y-bins
        masses = cond.region_mass_vector(grid).reshape(10, 10, 10)
        in_support = masses[:, :, 6:]
        assert np.all(in_support > 0)
        assert np.allclose(in_support, 1.0 / 400.0, atol=1e-12)
        assert np.all(masses[:, :, :6] == 0.0)

    def test_vector_matches_scalar_path(self, grid):
        """Every region of every built-in condition at 10^3, against the
        reference oracle's scalar per-region mass."""
        for name in presets.CONDITION_NAMES:
            vec = presets.condition(name).region_mass_vector(grid)
            want = [region_mass(presets.condition(name), grid, index)
                    for index in np.ndindex(*grid.bins)]
            assert vec.tolist() == pytest.approx(want, rel=0, abs=1e-15)


@st.composite
def random_condition(draw):
    ndim = draw(st.integers(1, 3))
    dims = []
    marginals = []
    for i in range(ndim):
        lo = draw(st.floats(-50, 50).filter(lambda v: abs(v) > 1e-6))
        width = draw(st.floats(0.5, 100))
        dims.append(Dimension(f"d{i}", lo, lo + width))
        if draw(st.booleans()):
            a = draw(st.floats(0, 0.45))
            b = draw(st.floats(0.55, 1.0))
            marginals.append(Uniform(lo + a * width, lo + b * width))
        else:
            mu = draw(st.floats(lo - width, lo + 2 * width))
            sigma = draw(st.floats(0.01 * width, 3 * width))
            marginals.append(ClippedGaussian(mu, sigma))
    space = DomainSpace(tuple(dims))
    bins = tuple(draw(st.integers(1, 12)) for _ in range(ndim))
    return ConditionSet("rand", space, tuple(marginals)), PartitionGrid(bins)


@given(random_condition())
def test_mass_normalization_property(cond_grid):
    cond, grid = cond_grid
    m = cond.region_mass_vector(grid)
    assert float(m.min()) >= 0.0
    assert float(m.sum()) == pytest.approx(1.0, abs=1e-9)


@given(random_condition())
def test_random_condition_masses_match_the_oracle(cond_grid):
    """Every region of a random condition, against the reference oracle's
    scalar per-region mass."""
    cond, grid = cond_grid
    want = [region_mass(cond, grid, index) for index in np.ndindex(*grid.bins)]
    assert cond.region_mass_vector(grid).tolist() == pytest.approx(
        want, rel=0, abs=1e-14)


@given(random_condition(), st.integers(0, 2**31 - 1))
def test_sampled_scenarios_partition_totally(cond_grid, seed):
    cond, grid = cond_grid
    for s in sample(cond, 5, seed):
        index = region_of(grid, cond.space, s)  # must not raise
        assert in_region(grid, cond.space, index, s)


class TestSample:
    def test_empty(self):
        cond = presets.condition("testing")
        xs = sample(cond, 0, 1)
        assert xs.shape == (0, 3) and xs.dtype == np.float64

    def test_deterministic(self):
        cond = presets.condition("oc4")
        xs = sample(cond, 64, 9)
        assert xs.shape == (64, 3) and xs.dtype == np.float64
        assert xs.tobytes() == sample(cond, 64, 9).tobytes()

    def test_prefix_stability_from_substreams(self):
        # scenario i depends only on (condition, seed, i), not on n
        cond = presets.condition("oc3")
        assert sample(cond, 20, 5)[:8].tobytes() == sample(cond, 8, 5).tobytes()

    def test_uniform_bin_frequencies_within_4_se(self):
        space = line_domain()
        grid = PartitionGrid((10,))
        cond = ConditionSet("u", space, (Uniform(0.0, 10.0),))
        n = 100_000
        xs = sample(cond, n, 12)
        idx = partition_indices(grid, space, xs)[:, 0]
        freq = np.bincount(idx, minlength=10) / n
        p = 0.1
        se = math.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) < 4 * se)

    def test_clipped_atom_frequency_within_4_se(self):
        space = line_domain()
        cond = ConditionSet("g", space, (ClippedGaussian(3.0, 2.0),))
        n = 100_000
        xs = sample(cond, n, 13)[:, 0]
        frac_at_zero = float(np.mean(xs == 0.0))
        se = math.sqrt(PHI_MINUS_1_5 * (1 - PHI_MINUS_1_5) / n)
        assert abs(frac_at_zero - PHI_MINUS_1_5) < 4 * se
        assert np.all(xs <= 10.0) and np.all(xs >= 0.0)


class TestValidation:
    def test_experiment_grid_ok(self, space):
        validate_grid(PartitionGrid((10, 10, 10)), space)

    def test_zero_bins_rejected(self):
        with pytest.raises(InvalidGrid):
            PartitionGrid((10, 0, 10))

    @pytest.mark.parametrize("count", [2.0, 2.5, np.float64(2.0), True, "2",
                                       None],
                             ids=["float", "fraction", "numpy_float", "bool",
                                  "string", "none"])
    def test_bin_counts_must_be_integers(self, count):
        """A float, a bool or a string is no bin count: it is refused at
        construction, not met later as a TypeError in np.linspace or kept as
        a count of 1."""
        with pytest.raises(InvalidGrid, match="integer >= 1"):
            PartitionGrid((count, 2, 2))

    def test_numpy_integer_bin_counts_ok(self, space):
        grid = PartitionGrid((np.int64(2), 2, 2))
        assert grid.n_regions == 8 and len(grid.edges(space, 0)) == 3

    def test_grid_too_large_for_int64_tally_keys_is_refused(self):
        """n_regions is exact, and a grid whose tally, an (n_regions, 3)
        int64 array, would hold more bytes than an intp counts is refused
        at construction; building a grid allocates nothing."""
        limit = (2**63 - 1) // 24
        assert PartitionGrid((limit,)).n_regions == limit
        for bins in [(limit + 1,), (10**6,) * 3, (10**7,) * 3,
                     (np.int64(2**31),) * 2, (10**22, 2, 2)]:
            with pytest.raises(InvalidGrid, match="too large"):
                PartitionGrid(bins)

    def test_single_region_grid_ok(self, space):
        validate_grid(PartitionGrid((1, 1, 1)), space)

    def test_rank_mismatch(self, space):
        with pytest.raises(InvalidGrid):
            validate_grid(PartitionGrid((10, 10)), space)

    def test_dimension_bounds(self):
        with pytest.raises(ConfigError):
            Dimension("x", 1.0, 1.0)

    def test_dimension_width_must_be_finite(self):
        # both bounds are finite, but max - min overflows to inf
        with pytest.raises(ConfigError, match="width"):
            Dimension("x", -1e308, 1e308)
        Dimension("x", -8e307, 8e307)

    @pytest.mark.parametrize("mu, sigma", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0), (0.0, math.inf)])
    def test_clipped_gaussian_parameters_must_be_finite(self, mu, sigma):
        with pytest.raises(ConfigError, match="finite"):
            ClippedGaussian(mu, sigma)

    def test_duplicate_dimension_names(self):
        with pytest.raises(ConfigError):
            DomainSpace((Dimension("x", 0, 1), Dimension("x", 0, 2)))

    def test_uniform_support_must_fit_domain(self):
        space = line_domain()
        with pytest.raises(ConfigError):
            ConditionSet("bad", space, (Uniform(-1.0, 5.0),))

    def test_marginal_count_must_match(self, space):
        with pytest.raises(ConfigError):
            ConditionSet("bad", space, (Uniform(0, 10), Uniform(0, 10)))
