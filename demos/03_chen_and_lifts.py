#!/usr/bin/env python3
"""Second-order processes, Chen's relation and the wavelet lift.

A rough path is a path together with a postulated table of iterated
integrals WW_{s,t}.  Storing only the finest-interval tensors and
assembling everything else through Chen's relation makes the algebraic
constraint hold by construction; what remains is building good tensors.
The wavelet lift builds them from the path alone.
"""

import numpy as np

from roughstruct import (
    chen_defect,
    daubechies_basis,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    rough_path_seminorm,
    wavelet_lift,
)

# exact lift of a piecewise-linear path: two unit-speed segments
grid2 = make_dyadic_grid(2.0, 1)
zigzag = generate_path(
    "piecewise_linear",
    grid2,
    knots=[(0.0, np.array([0.0, 0.0])), (1.0, np.array([1.0, 0.0])), (2.0, np.array([1.0, 1.0]))],
)
rp = lift_piecewise_smooth(zigzag, "linear", alpha=0.5)
print("two segments e1 then e2, WW_{0,2} via Chen:")
print(rp.pair(0, 2))
print("(= [[1/2, 1], [0, 1/2]]: half squares on the diagonal, full cross area)")

# the canonical smooth lift of (sin t, cos t) has Levy area -pi/4 over a
# quarter period; its Chen defect is pure round-off
grid = make_dyadic_grid(np.pi / 2, 10)
w = generate_path("sin_cos", grid, dim=2)
analytic = lift_piecewise_smooth(w, "sin_cos", alpha=0.45)
print(f"\nanalytic lift: WW^12_(0,T) = {analytic.pair(0, grid.num_intervals)[0, 1]:+.6f}  (-pi/4 = {-np.pi/4:.6f})")
print(f"Chen defect: {chen_defect(analytic):.2e}")

# the wavelet lift reconstructs the area from path samples alone
basis = daubechies_basis(4)
print("\nwavelet lift convergence to the canonical area:")
for level in (6, 8, 10):
    g = make_dyadic_grid(np.pi / 2, level + 2)
    wl = wavelet_lift(generate_path("sin_cos", g, dim=2), 0.45, basis, trunc_level=level)
    got = wl.pair(0, g.num_intervals)[0, 1]
    print(f"  truncation {level:2d}: {got:+.6f}   error {abs(got + np.pi/4):.2e}")

# rough-path seminorms of an fBm lift
fbm = generate_path("fbm", make_dyadic_grid(1.0, 8), dim=2, hurst=0.45, seed=9)
first, second, total = rough_path_seminorm(lift_piecewise_smooth(fbm, "linear", 0.42))
print(f"\nfBm lift seminorms at alpha=0.42: |W| = {first:.2f}, |WW| = {second:.2f}, sum = {total:.2f}")
