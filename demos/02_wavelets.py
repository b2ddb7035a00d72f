#!/usr/bin/env python3
"""Daubechies wavelets by the cascade algorithm.

The scaling function is pinned down by its two-scale relation; its
values at the integers (the eigenvector of the two-scale matrix) are
stored beside the filters and dyadic refinement fills the table.  The
mother wavelet is read from that table by the same relation, and its two
vanishing moments are what make coefficients of smooth measures collapse.
"""

import numpy as np

from roughstruct import (
    SampledPath,
    StieltjesMeasure,
    cascade_evaluate,
    daubechies_basis,
    generate_path,
    make_dyadic_grid,
    wavelet_coefficients,
)

basis = daubechies_basis(4)
print(f"family {basis.family}: {basis.taps} taps, support radius {basis.support_radius},")
print(f"regularity ~{basis.regularity}, {basis.vanishing_moments} vanishing moments")

# partition of unity: integer translates of phi resolve constants
t0 = 0.37
total = sum(cascade_evaluate(basis, "father", 0, k, t0) for k in range(-5, 6))
print(f"\nsum_k phi(t - k) at t = {t0}: {total:.8f}")

# vanishing moments from the table
c = basis.support_radius
t = np.arange(-basis.center_shift, basis.taps - 1 - basis.center_shift + 1e-9, basis.table_step)
psi = basis.evaluate("mother", t)
for p in (0, 1):
    print(f"int psi(t) t^{p} dt = {np.trapezoid(psi * t**p, t):+.2e}")

# coefficient decay against dW: interior coefficients of smooth measures
# vanish to quadrature precision, rough measures decay like 2^(j/2 - j a)
grid = make_dyadic_grid(1.0, 12)
smooth = StieltjesMeasure(SampledPath(grid, grid.nodes**2 / 2))  # density t
fbm = StieltjesMeasure(generate_path("fbm", grid, hurst=0.45, seed=3))

for name, xi in [("dZ with density t", smooth), ("dW of fBm(0.45)", fbm)]:
    table = wavelet_coefficients(xi, basis, max_level=8)
    print(f"\nmax |<xi, psi^j_k>| per level for {name}:")
    for j in range(table.base_level, 9):
        interior = [
            abs(v)
            for k, v in zip(basis.index_set(j), table.psi_row(j))
            if k - c >= 0 and k + c <= (1 << j)
        ]
        if interior:
            print(f"  level {j}: {max(interior):.3e}   (2^(j/2 - j*0.45) = {2**(j/2 - j*0.45):.3e})")
