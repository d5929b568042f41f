"""Analytic region masses for shifted operating conditions.

Builds the five built-in condition sets over the (v, t, y) box, partitions
the box into 10x10x10 voxels, and prints the per-condition mass landscape.
No sampling anywhere: every number is a closed-form CDF evaluation.
"""

import numpy as np

from depgrid import presets
from depgrid import ClippedGaussian, ConditionSet, region_mass

grid = presets.default_grid()
space = presets.domain_space()

print("=== mass normalization across the built-in conditions ===")
for name in ("testing", "oc1", "oc2", "oc3", "oc4"):
    cond = presets.condition(name)
    masses = cond.region_mass_vector(grid)
    print(f"{name:>8}: sum = {masses.sum():.15f}   "
          f"max voxel = {masses.max():.5f}   zero voxels = {(masses == 0).sum()}")

# The clipped Gaussian moves its out-of-range tails onto the boundary
# values, so the first and last bins absorb extra mass.
print()
print("=== clipped-Gaussian speed marginal of oc3: per-bin mass ===")
oc3 = presets.condition("oc3")
v_bins = oc3.dim_masses(grid, 0)
for i, m in enumerate(v_bins):
    bar = "#" * int(round(m * 200))
    print(f"v in [{i:2d}, {i + 1:2d}): {m:.4f} {bar}")
print(f"lower tail folded into bin 0, upper tail into bin 9; "
      f"sum = {v_bins.sum():.12f}")

# Individual voxels are queryable too: a voxel is its grid index.
voxel = (3, 9, 7)
bounds = tuple(tuple(grid.edges(space, d)[i:i + 2].tolist())
               for d, i in enumerate(voxel))
print()
print(f"voxel {voxel} bounds: {bounds}")
for name in ("testing", "oc4"):
    mass = region_mass(presets.condition(name), grid, voxel)
    print(f"  mass under {name}: {mass:.6f}")

# A condition built from scratch: slow obstacles, mid-range goals.
custom = ConditionSet("slow_mid", space, (
    ClippedGaussian(1.0, 1.0),
    presets.condition("testing").marginals[1],
    ClippedGaussian(25.0, 5.0),
))
masses = custom.region_mass_vector(grid)
print()
print(f"custom condition normalizes as well: sum = {masses.sum():.15f}")
