from __future__ import annotations

import math

import numpy as np
import pytest

from roughstruct import (
    SampledPath,
    StieltjesMeasure,
    cascade_evaluate,
    daubechies_basis,
    generate_path,
    make_dyadic_grid,
    wavelet_coefficients,
)
from roughstruct.wavelets import DAUBECHIES_FILTERS


@pytest.mark.parametrize("moments", sorted(DAUBECHIES_FILTERS))
def test_filter_normalization_and_orthogonality(moments):
    h = np.array(DAUBECHIES_FILTERS[moments])
    assert h.sum() == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert np.dot(h, h) == pytest.approx(1.0, abs=1e-10)
    for shift in range(1, moments):
        assert abs(np.dot(h[: -2 * shift], h[2 * shift :])) < 1e-10


def test_scaling_filter_sum(basis):
    assert basis.scaling_filter.sum() == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_compact_support(basis):
    c = basis.support_radius
    assert cascade_evaluate(basis, "father", 0, 0, c + 0.5) == 0.0
    assert cascade_evaluate(basis, "father", 0, 0, -c - 0.5) == 0.0
    assert cascade_evaluate(basis, "mother", 0, 0, c + 1.0) == 0.0


def test_partition_of_unity(basis):
    # any orthonormal scaling family resolves constants
    t0 = 0.37
    total = sum(
        cascade_evaluate(basis, "father", 0, k, t0)
        for k in range(-int(basis.support_radius) - 1, int(basis.support_radius) + 2)
    )
    assert total == pytest.approx(1.0, abs=1e-4)


def _table_grid(basis):
    c_left = -basis.center_shift
    c_right = basis.taps - 1 - basis.center_shift
    return np.arange(c_left, c_right + 1e-12, basis.table_step)


def test_mother_vanishing_moments(basis):
    t = _table_grid(basis)
    psi = basis.evaluate("mother", t)
    for power in (0, 1):
        moment = np.trapezoid(psi * t**power, t)
        assert abs(moment) < 1e-8


def test_orthonormality_spot_checks(basis):
    t = _table_grid(basis)
    phi = basis.evaluate("father", t)
    psi = basis.evaluate("mother", t)
    assert np.trapezoid(phi * phi, t) == pytest.approx(1.0, abs=1e-4)
    assert abs(np.trapezoid(phi * psi, t)) < 1e-4


def test_cross_level_orthogonality(basis):
    u = np.linspace(-8.0, 8.0, 1 << 17)
    du = u[1] - u[0]
    phi = basis.evaluate("father", u)
    for level, shift in [(1, 0), (1, 3), (2, 1)]:
        psi = 2.0 ** (level / 2) * basis.evaluate("mother", (1 << level) * u - shift)
        assert abs(np.sum(phi * psi) * du) < 1e-6


def test_table_level_guard():
    with pytest.raises(ValueError):
        daubechies_basis(4, table_level=4)
    with pytest.raises(ValueError):
        daubechies_basis(17)


def test_basis_is_memoised_and_read_only():
    basis = daubechies_basis(4)
    assert daubechies_basis(4) is basis
    for table in (basis.scaling_filter, basis._phi, basis._psi, basis._phi_cum, basis._psi_cum):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_min_base_level(basis):
    level = basis.min_base_level()
    assert 2.0**-level * basis.support_radius <= 1.0
    assert 2.0 ** -(level - 1) * basis.support_radius > 1.0


def test_index_set_matches_support(basis):
    c = int(math.floor(basis.support_radius))
    idx = basis.index_set(3)
    assert idx[0] == -c
    assert idx[-1] == 8 + c


# ---------------------------------------------------------------------------
# Stieltjes measures and coefficients


def test_constant_integrator_gives_zero_coefficients(basis):
    grid = make_dyadic_grid(1.0, 8)
    xi = StieltjesMeasure(SampledPath(grid, np.ones(grid.num_nodes)))
    table = wavelet_coefficients(xi, basis, max_level=5)
    assert all(v == 0.0 for v in table.phi.values())
    assert all(v == 0.0 for v in table.psi.values())


def test_lebesgue_interior_psi_coefficients_vanish(basis):
    # zeroth vanishing moment annihilates dZ = dt away from the boundary
    grid = make_dyadic_grid(1.0, 10)
    xi = StieltjesMeasure(SampledPath(grid, grid.nodes))
    table = wavelet_coefficients(xi, basis, max_level=6)
    c = basis.support_radius
    for (j, k), val in table.psi.items():
        if k - c >= 0 and k + c <= (1 << j):  # support inside [0, 1]
            assert abs(val) < 1e-6


def test_quadratic_interior_psi_coefficients_vanish(basis):
    # dZ = t dt: the first vanishing moment kills interior coefficients.
    # Oracle: brute-force quadrature of psi^j_k(t) * t at resolution J + 6
    grid = make_dyadic_grid(1.0, 12)
    xi = StieltjesMeasure(SampledPath(grid, grid.nodes**2 / 2.0))
    table = wavelet_coefficients(xi, basis, base_level=2, max_level=6)
    c = basis.support_radius
    fine = np.linspace(0.0, 1.0, (1 << 12) + 1)
    mid = 0.5 * (fine[:-1] + fine[1:])
    for (j, k), val in table.psi.items():
        if k - c >= 0 and k + c <= (1 << j):
            assert abs(val) < 1e-5
            oracle = float(
                np.sum(cascade_evaluate(basis, "mother", j, k, mid) * mid) / (1 << 12)
            )
            assert val == pytest.approx(oracle, abs=1e-5)


def test_coefficient_decay_for_fbm(basis):
    # |<dW, psi^j_k>| <= C 2^(j/2 - j alpha) with C stable across levels
    alpha = 0.45
    grid = make_dyadic_grid(1.0, 12)
    path = generate_path("fbm", grid, hurst=alpha, seed=31)
    xi = StieltjesMeasure(path)
    table = wavelet_coefficients(xi, basis, max_level=8)
    constants = {}
    for (j, k), val in table.psi.items():
        bound = 2.0 ** (j / 2.0 - j * alpha)
        constants[j] = max(constants.get(j, 0.0), abs(val) / bound)
    values = [constants[j] for j in sorted(constants) if j >= 3]
    assert max(values) / min(values) < 3.0


def test_coefficients_reject_overfine_levels(basis):
    grid = make_dyadic_grid(1.0, 6)
    xi = StieltjesMeasure(generate_path("fbm", grid, hurst=0.5, seed=0))
    with pytest.raises(ValueError):
        wavelet_coefficients(xi, basis, max_level=7)
    with pytest.raises(ValueError):
        wavelet_coefficients(xi, basis, base_level=0, max_level=5)
