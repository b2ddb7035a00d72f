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
from reference_impl import synthesise_loop
from roughstruct.wavelets import (
    DAUBECHIES_FILTERS,
    DAUBECHIES_INTEGER_VALUES,
    _daubechies_basis,
    stencil,
    synthesise,
)


def _masked_cascade(h: np.ndarray, levels: int) -> np.ndarray:
    """Reference phi table: the element loop for the integer values, then
    the boolean-mask, fancy-index refinement loop."""
    taps = len(h)
    mat = np.zeros((taps - 2, taps - 2))
    for i in range(1, taps - 1):
        for j in range(1, taps - 1):
            if 0 <= 2 * i - j < taps:
                mat[i - 1, j - 1] = math.sqrt(2.0) * h[2 * i - j]
    eigvals, eigvecs = np.linalg.eig(mat)
    v = np.real(eigvecs[:, int(np.argmin(np.abs(eigvals - 1.0)))])
    vals = np.zeros(taps)
    vals[1 : taps - 1] = v / v.sum()
    for p in range(1, levels + 1):
        size = (taps - 1) * (1 << p) + 1
        new = np.zeros(size)
        new[::2] = vals
        odd = np.arange(1, size, 2)
        acc = np.zeros(odd.size)
        for k in range(taps):
            src = odd - k * (1 << (p - 1))
            ok = (src >= 0) & (src < vals.size)
            acc[ok] += h[k] * vals[src[ok]]
        new[odd] = math.sqrt(2.0) * acc
        vals = new
    return vals


def _masked_mother(h: np.ndarray, phi_vals: np.ndarray, levels: int) -> np.ndarray:
    """Reference psi table from the reference phi, by the same masked loop."""
    taps = len(h)
    g = np.array([(-1) ** k * h[taps - 1 - k] for k in range(taps)])
    size = (taps - 1) * (1 << levels) + 1
    out = np.zeros(size)
    idx = np.arange(size)
    for k in range(taps):
        src = 2 * idx - k * (1 << levels)
        ok = (src >= 0) & (src < size)
        out[ok] += g[k] * phi_vals[src[ok]]
    return math.sqrt(2.0) * out


@pytest.mark.parametrize("moments", sorted(DAUBECHIES_FILTERS))
def test_sliced_cascade_tables_equal_masked_loop(moments):
    basis = daubechies_basis(moments)
    level = basis.dyadic_table_level
    phi = _masked_cascade(np.array(DAUBECHIES_FILTERS[moments]), level)
    assert np.array_equal(basis._phi, phi)
    # psi is kept by no one: made from phi's table at every node it is read
    psi = basis.evaluate("mother", _table_grid(basis))
    assert np.array_equal(psi, _masked_mother(basis.scaling_filter, phi, level))


@pytest.mark.parametrize("moments", [2, 3, 4, 8])
def test_psi_stencils_are_two_scale_sums_of_phi_stencils(moments):
    # psi_{j,0} = sum_k g_k phi_{j+1, k - center_shift}: the level-j psi midpoint stencil
    # is the g-weighted sum of the level-(j + 1) phi stencil, shifted by
    # (k - center_shift + c) s / 2 intervals.  Read from a psi table of level <= 14,
    # psi stencils of grids finer than the table missed this by up to 2.4e-2 (db2, J = 18)
    basis = daubechies_basis(moments)
    h = basis.scaling_filter
    g = [(-1) ** k * h[basis.taps - 1 - k] for k in range(basis.taps)]
    c = int(basis.support_radius)
    for grid_level in (8, 13, 16, 18):
        for j in range(basis.min_base_level(), basis.min_base_level() + 4):
            psi = stencil(basis, "mother", j, grid_level).ravel()
            phi = stencil(basis, "father", j + 1, grid_level).ravel()
            half = 1 << (grid_level - j - 1)
            want = np.zeros_like(psi)
            for k, gk in enumerate(g):
                at = (k - basis.center_shift + c) * half
                want[at : at + phi.size] += gk * phi
            assert np.abs(psi - want).max() <= 1e-13 * np.abs(psi).max(), (grid_level, j)


@pytest.mark.parametrize("cumulative", [False, True], ids=["midpoint", "cumulative"])
@pytest.mark.parametrize("moments", [2, 3, 4, 6, 8])
def test_synthesise_equals_row_loop_bit_for_bit(moments, cumulative):
    # the einsum sums each cell over the stencil rows q = 0 .. 2c - 1 from
    # zero, as the loop does: equal values and sign bits (a tenth of the
    # coefficients are -0.0), magnitudes 1e-12 .. 1e12; levels above 14 take
    # two value shapes, to keep the loop's time down
    basis = daubechies_basis(moments)
    rng = np.random.default_rng(moments + 10 * cumulative)
    for grid_level in range(6, 19):
        level = max(basis.min_base_level(), grid_level - 2)
        table = stencil(basis, "father", level, grid_level, cumulative=cumulative)
        k = basis.index_set(level).size
        shapes = [(), (1,), (4,), (2, 2), (3, 3)] if grid_level <= 14 else [(), (2, 2)]
        for shape in shapes:
            coeffs = rng.normal(size=(k, *shape)) * 10.0 ** rng.uniform(-12, 12, (k, *shape))
            coeffs[rng.random(coeffs.shape) < 0.1] = -0.0
            got, want = synthesise(coeffs, table), synthesise_loop(coeffs, table)
            assert got.shape == want.shape == ((1 << grid_level), *shape)
            assert np.array_equal(got, want), (grid_level, shape)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (grid_level, shape)


def test_basis_build_calls_no_lapack(monkeypatch):
    # phi at the integers is stored beside the filters, not solved for by eig
    def no_lapack(*args, **kwargs):
        raise AssertionError("the basis build called LAPACK")

    for name in ("eig", "eigvals", "solve", "lstsq"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    for moments in sorted(DAUBECHIES_FILTERS):  # uncached, so every table is built here
        basis = _daubechies_basis.__wrapped__(moments)
        assert basis._phi[:: 1 << 14].tolist() == [0.0, *DAUBECHIES_INTEGER_VALUES[moments], 0.0]


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
        daubechies_basis(17)


def test_basis_is_memoised_and_read_only():
    basis = daubechies_basis(4)
    assert daubechies_basis(4) is basis
    for table in (basis.scaling_filter, basis._phi, basis._phi_cum):
        with pytest.raises(ValueError):
            table[0] = 1.0


def test_basis_is_memoised_however_spelled():
    basis = daubechies_basis()
    for args, kwargs in [((4,), {}), ((), {"vanishing_moments": 4})]:
        assert daubechies_basis(*args, **kwargs) is basis


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


def _psi_entries(table, basis):
    """``((j, k), coefficient)`` for every psi coefficient of the table."""
    for j in range(table.base_level, table.max_level + 1):
        yield from zip(((j, int(k)) for k in basis.index_set(j)), table.psi_row(j))


def test_constant_integrator_gives_zero_coefficients(basis):
    grid = make_dyadic_grid(1.0, 8)
    xi = StieltjesMeasure(SampledPath(grid, np.ones(grid.num_nodes)))
    table = wavelet_coefficients(xi, basis, max_level=5)
    assert all(v == 0.0 for v in table.phi)
    assert all(v == 0.0 for v in table.psi)


def test_psi_rows_cover_the_table_and_refuse_other_levels(basis):
    grid = make_dyadic_grid(1.0, 8)
    table = wavelet_coefficients(StieltjesMeasure(generate_path("fbm", grid, seed=2)), basis,
                                 max_level=6)
    levels = range(table.base_level, table.max_level + 1)
    assert table.phi.size == basis.index_set(table.base_level).size
    assert np.array_equal(np.concatenate([table.psi_row(j) for j in levels]), table.psi)
    assert [table.psi_row(j).size for j in levels] == [basis.index_set(j).size for j in levels]
    for j in (table.base_level - 1, table.max_level + 1):
        with pytest.raises(ValueError):
            table.psi_row(j)
    assert table == table  # a generated __eq__ over the array fields raised


def test_lebesgue_interior_psi_coefficients_vanish(basis):
    # zeroth vanishing moment annihilates dZ = dt away from the boundary
    grid = make_dyadic_grid(1.0, 10)
    xi = StieltjesMeasure(SampledPath(grid, grid.nodes))
    table = wavelet_coefficients(xi, basis, max_level=6)
    c = basis.support_radius
    for (j, k), val in _psi_entries(table, basis):
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
    for (j, k), val in _psi_entries(table, basis):
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
    for (j, k), val in _psi_entries(table, basis):
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


@pytest.mark.parametrize("vm", sorted(DAUBECHIES_FILTERS))
def test_father_center_of_mass_is_the_exact_first_moment(vm):
    # the closed form sum_k k h_k / sqrt2 - c against trapezoid quadrature
    # of t phi(t) on the level-14 table, whose error is below 5e-12 here
    basis = daubechies_basis(vm)
    t = np.arange(-basis.center_shift, basis.taps - 1 - basis.center_shift + 1e-9,
                  basis.table_step)
    quadrature = float(np.trapezoid(basis.evaluate("father", t) * t, t))
    assert basis.father_center_of_mass == pytest.approx(quadrature, rel=0.0, abs=5e-12)
    h = basis.scaling_filter
    exact = sum(k * hk for k, hk in enumerate(h)) / math.sqrt(2.0) - basis.center_shift
    assert basis.father_center_of_mass == pytest.approx(exact, rel=0.0, abs=1e-15)
