#!/usr/bin/env python3
"""Two independent routes to the rough integral.

The compensated Riemann route sums y_u W_{u,v} + y'_u WW_{u,v} over a
partition; the wavelet route reconstructs the product jet and integrates
the result.  They must agree, and the local defect
|I_{s,t} - y_s W_{s,t} - y'_s WW_{s,t}| must scale like |t-s|^(3 alpha).
"""

import numpy as np

from roughstruct import (
    ControlledPath,
    convergence_order_fit,
    daubechies_basis,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    refinement_errors,
    rough_integral_path,
    rough_integral_sum,
    three_point_defect,
    wavelet_rough_integral,
    young_integral,
)
from roughstruct.grids import SampledPath

alpha = 0.4
grid = make_dyadic_grid(1.0, 12)
w = generate_path("sin_cos", grid, dim=2)
rp = lift_piecewise_smooth(w, "sin_cos", alpha)

# integrand y = sin(W^1) controlled by the first component
wv = w.values[:, 0]
yp = np.zeros((grid.num_nodes, 1, 2))
yp[:, 0, 0] = np.cos(wv)
cp = ControlledPath(np.sin(wv), yp, w)

riemann = rough_integral_path(cp, rp)
basis = daubechies_basis(4)
wavelet = wavelet_rough_integral(cp, rp, basis, trunc_level=10)
certificate = three_point_defect(wavelet.values, cp, rp)
gap = np.abs(wavelet.values - riemann).max() / np.abs(riemann).max()
print(f"route agreement (relative sup gap): {gap:.2e}")
print(f"I(T) riemann = {riemann[-1]},\n     wavelet  = {wavelet.values[-1]}")

# three-point defect scaling over the measurable octaves
table = {round(np.log2(s / grid.step)): d for s, d in certificate}
rows = [(grid.step * 2**m, table[m]) for m in (8, 9, 10, 11)]
slope, r2 = convergence_order_fit(rows, drop_coarsest=0)
print(f"\nthree-point defect slope: {slope:.2f} (bound predicts >= 3 alpha = {3 * alpha})")

# mesh-refinement Cauchy differences for a genuinely rough driver
rough_w = generate_path("fbm", make_dyadic_grid(1.0, 10), hurst=0.5, seed=5)
rough_rp = lift_piecewise_smooth(rough_w, "linear", 0.45)
rv = rough_w.values[:, 0]
rough_cp = ControlledPath(np.sin(rv), np.cos(rv), rough_w)
rows = refinement_errors(rough_cp, rough_rp)
slope, _ = convergence_order_fit(rows, drop_coarsest=2)
print(f"mesh-refinement Cauchy slope on fBm: {slope:.2f} (theory: >= 3 alpha - 1 = {3 * 0.45 - 1:.2f})")

# Young's integral handles the smooth case and cross-checks the rough one
y_only = SampledPath(grid, cp.y[:, 0])
young_val = young_integral(y_only, w)
rough_val = rough_integral_sum(cp, rp)
print(f"\nYoung vs compensated on the smooth driver: {np.abs(young_val - rough_val).max():.2e}")
