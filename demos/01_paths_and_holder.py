#!/usr/bin/env python3
"""Dyadic grids, sampled paths and Hölder regularity.

Everything in roughstruct lives on uniform dyadic grids t_k = k T 2^-J.
This script generates the stock test paths, estimates their Hölder
regularity from grid increments, and shows how localized test functions
probe a path at a chosen scale.
"""

import numpy as np

from roughstruct import (
    SampledPath,
    TestFunction,
    generate_path,
    holder_seminorm,
    make_dyadic_grid,
)

grid = make_dyadic_grid(1.0, 10)
print(f"grid: {grid.num_intervals} intervals of width {grid.step:.2e} on [0, 1]")

# deterministic generators
smooth = generate_path("sin_cos", grid, dim=2)
sqrt_path = SampledPath(grid, np.sqrt(grid.nodes))

# fractional Brownian motion with the exact covariance, drawn by circulant
# embedding of its increments in O(N log N); reproducible from the seed
rough = generate_path("fbm", grid, hurst=0.4, seed=7)

print("\nHölder seminorm estimates (max increment quotient over grid pairs):")
for name, path, alpha in [
    ("(sin t, cos t)  at alpha=1.0", smooth, 1.0),
    ("sqrt(t)         at alpha=0.5", sqrt_path, 0.5),
    ("fBm H=0.4       at alpha=0.40", rough, 0.40),
    ("fBm H=0.4       at alpha=0.55", rough, 0.55),
]:
    print(f"  {name}: {holder_seminorm(path, alpha):8.3f}")
print("(the fBm quotient blows up past its Hurst index: that IS the regularity)")

# quadratic variation sanity check at H = 1/2
qv = float(np.sum(generate_path("fbm", grid, hurst=0.5, seed=1).increments() ** 2))
print(f"\nH=1/2 quadratic variation over [0,1]: {qv:.3f} (Brownian scaling gives 1)")

# localized test functions: one bump, shrinking scale
print("\nlocalized bump eta_s^lambda at s = 0.5:")
for lam in (0.5, 0.1, 0.02):
    probe = TestFunction(center=0.5, scale=lam)
    x = np.linspace(*probe.support, 7)
    peak = probe(0.5)
    print(f"  lambda = {lam:5.2f}: support {probe.support}, peak {peak:7.3f}")
print("the peak grows like 1/lambda while the integral stays fixed")
