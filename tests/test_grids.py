from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import simpson

from roughstruct import (
    SampledPath,
    TestFunction,
    generate_path,
    holder_seminorm,
    make_dyadic_grid,
    read_path_csv,
    write_path_csv,
)
from roughstruct.grids import (
    fbm_covariance,
    fgn_from_normals,
    profile_c1_norm,
    profile_integral,
)


def test_smallest_grid():
    grid = make_dyadic_grid(1.0, 0)
    assert np.allclose(grid.nodes, [0.0, 1.0])


def test_quarter_grid():
    grid = make_dyadic_grid(1.0, 2)
    assert np.allclose(grid.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_wide_grid():
    grid = make_dyadic_grid(2.0, 1)
    assert np.allclose(grid.nodes, [0.0, 1.0, 2.0])


@pytest.mark.parametrize("horizon,level", [(-1.0, 3), (0.0, 3), (1.0, -1), (1.0, 25)])
def test_grid_rejects_bad_arguments(horizon, level):
    with pytest.raises(ValueError):
        make_dyadic_grid(horizon, level)


def test_holder_linear_path_alpha_one():
    grid = make_dyadic_grid(1.0, 6)
    path = SampledPath(grid, grid.nodes)
    assert holder_seminorm(path, 1.0) == pytest.approx(1.0)


def test_holder_constant_path_is_zero():
    grid = make_dyadic_grid(1.0, 5)
    path = SampledPath(grid, np.full(grid.num_nodes, 3.3))
    assert holder_seminorm(path, 0.5) == 0.0


def test_holder_sqrt_path():
    # brute-force max over all grid pairs at J=10; the pair (0, t) attains
    # the analytic bound |sqrt(t) - sqrt(s)| <= |t-s|^(1/2) with constant 1
    grid = make_dyadic_grid(1.0, 10)
    path = SampledPath(grid, np.sqrt(grid.nodes))
    value = holder_seminorm(path, 0.5)
    assert value == pytest.approx(1.0, abs=1e-12)


def test_holder_rejects_bad_alpha():
    grid = make_dyadic_grid(1.0, 3)
    path = SampledPath(grid, grid.nodes)
    for alpha in (0.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            holder_seminorm(path, alpha)


def test_holder_monotone_under_refinement():
    for level in (6, 8):
        fine = generate_path("fbm", make_dyadic_grid(1.0, level + 1), hurst=0.4, seed=5)
        coarse = SampledPath(fine.grid.subgrid(level), fine.values[::2])
        assert holder_seminorm(coarse, 0.35) <= holder_seminorm(fine, 0.35) + 1e-14


def test_holder_dominates_every_pair():
    path = generate_path("fbm", make_dyadic_grid(1.0, 7), hurst=0.5, seed=2)
    alpha = 0.45
    c = holder_seminorm(path, alpha)
    t = path.grid.nodes
    for s_idx in range(0, path.grid.num_nodes, 7):
        for t_idx in range(s_idx + 1, path.grid.num_nodes, 11):
            inc = np.linalg.norm(path.increment(s_idx, t_idx))
            assert inc <= c * (t[t_idx] - t[s_idx]) ** alpha + 1e-12


def _all_pairs_holder(path, alpha, dense=None):
    # exact lags (t - s) * h: differences of nodes off a dyadic horizon carry
    # round-off up to N * eps relative at the shortest lags.  dense=None:
    # every pair up to grid level 12, aligned dyadic pairs beyond; False:
    # aligned dyadic pairs
    n_int = path.grid.num_intervals
    if dense is None and path.grid.level <= 12:
        s, t = np.triu_indices(n_int + 1, k=1)
    else:
        s = np.concatenate([np.arange(0, n_int, 1 << m) for m in range(path.grid.level + 1)])
        t = s + np.concatenate([np.full(n_int >> m, 1 << m) for m in range(path.grid.level + 1)])
    num = np.linalg.norm(path.values[t] - path.values[s], axis=1)
    return float(np.max(num / ((t - s) * path.grid.step) ** alpha))


@pytest.mark.parametrize("dense", [None, False])
@pytest.mark.parametrize("alpha", [0.3, 0.45, 1.0])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_holder_lag_scan_matches_pair_list(dim, alpha, dense):
    # dense selects the oracle's pair family and the level where
    # holder_seminorm scans it: all pairs at J = 10 (several lag blocks, the
    # last one partial), aligned dyadic pairs at J = 13
    grid = make_dyadic_grid(1.3, 10 if dense is None else 13)
    rng = np.random.default_rng(dim)
    walk = SampledPath(grid, np.cumsum(rng.standard_normal((grid.num_nodes, dim)), axis=0))
    expected = _all_pairs_holder(walk, alpha, dense)
    assert holder_seminorm(walk, alpha) == pytest.approx(expected, rel=1e-15, abs=0.0)
    flat = SampledPath(grid, np.full((grid.num_nodes, dim), -2.5))
    assert holder_seminorm(flat, alpha) == 0.0
    line = SampledPath(grid, np.outer(grid.nodes, np.eye(dim)[0]))
    assert holder_seminorm(line, 1.0) == pytest.approx(1.0, rel=1e-15)


def test_holder_scan_memory_is_linear():
    # the all-pairs index arrays alone were 134 MB at J = 12
    path = generate_path("fbm", make_dyadic_grid(1.0, 12), dim=2, hurst=0.5, seed=0)
    tracemalloc.start()
    try:
        holder_seminorm(path, 0.45)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_sin_cos_generator():
    grid = make_dyadic_grid(1.0, 3)
    path = generate_path("sin_cos", grid, dim=2)
    assert np.allclose(path.values[:, 0], np.sin(grid.nodes))
    assert np.allclose(path.values[:, 1], np.cos(grid.nodes))


def test_piecewise_linear_generator():
    grid = make_dyadic_grid(2.0, 1)
    knots = [
        (0.0, np.array([0.0, 0.0])),
        (1.0, np.array([1.0, 0.0])),
        (2.0, np.array([1.0, 1.0])),
    ]
    path = generate_path("piecewise_linear", grid, knots=knots)
    assert np.allclose(path.values, [[0, 0], [1, 0], [1, 1]])


def test_fbm_quadratic_variation_half():
    # H = 1/2 is standard Brownian covariance min(s, t): QV over [0,1] -> 1
    grid = make_dyadic_grid(1.0, 12)
    for seed in range(5):
        path = generate_path("fbm", grid, hurst=0.5, seed=seed)
        qv = float(np.sum(path.increments() ** 2))
        assert abs(qv - 1.0) < 0.15


def test_fbm_covariance_matches_min():
    t = np.array([0.25, 0.5, 0.75, 1.0])
    cov = fbm_covariance(t, 0.5)
    assert np.allclose(cov, np.minimum.outer(t, t))


@pytest.mark.parametrize("hurst", [0.3, 0.45, 0.7])
def test_circulant_embedding_covariance_is_exact(hurst):
    # the draw is linear in the normals: feeding it the identity gives the
    # factor whose Gram matrix is the implied fBm covariance
    grid = make_dyadic_grid(1.3, 6)
    n = grid.num_intervals
    factor = np.cumsum(fgn_from_normals(np.eye(2 * n), hurst, grid.step), axis=1)
    expected = fbm_covariance(grid.nodes[1:], hurst)
    assert np.allclose(factor.T @ factor, expected, rtol=0.0, atol=1e-12)


def test_brownian_draw_is_cholesky_of_min_covariance():
    grid = make_dyadic_grid(1.0, 8)
    path = generate_path("fbm", grid, dim=2, hurst=0.5, seed=5)
    chol = np.linalg.cholesky(fbm_covariance(grid.nodes[1:], 0.5))
    z = np.random.default_rng(5).standard_normal((2, grid.num_intervals))
    assert np.all(path.values[0] == 0.0)
    assert np.allclose(path.values[1:], (chol @ z.T), rtol=0.0, atol=1e-13)


def test_fbm_draw_memory_is_linear():
    # an N x N covariance would need about 34 GB at J = 16
    grid = make_dyadic_grid(1.0, 16)
    tracemalloc.start()
    try:
        path = generate_path("fbm", grid, dim=2, hurst=0.4, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.values.shape == (grid.num_nodes, 2)
    assert peak < 64 * 2**20


def test_fbm_independent_increments_at_half():
    grid = make_dyadic_grid(1.0, 6)
    mid = grid.num_intervals // 2
    first, second = [], []
    for seed in range(200):
        path = generate_path("fbm", grid, hurst=0.5, seed=seed)
        first.append(path.values[mid, 0] - path.values[0, 0])
        second.append(path.values[-1, 0] - path.values[mid, 0])
    corr = np.corrcoef(first, second)[0, 1]
    assert abs(corr) < 0.1


def test_fbm_reproducible_from_seed():
    grid = make_dyadic_grid(1.0, 8)
    a = generate_path("fbm", grid, hurst=0.4, seed=77)
    b = generate_path("fbm", grid, hurst=0.4, seed=77)
    assert np.array_equal(a.values, b.values)


def test_generator_rejects_unknown_kind():
    with pytest.raises(ValueError):
        generate_path("brownian_bridge", make_dyadic_grid(1.0, 3))


def test_bump_value_at_center_of_half_scale():
    # localized bump, center 1, scale 0.5, evaluated at the center:
    # (1 / 0.5) * eta(0) = 2 * exp(-1)
    f = TestFunction("bump", center=1.0, scale=0.5)
    assert f(1.0) == pytest.approx(2.0 * math.exp(-1.0))


def test_test_function_vanishes_outside_support():
    f = TestFunction("bump", center=0.3, scale=0.2)
    assert f(0.3 + 0.4) == 0.0
    assert f(-0.2) == 0.0


def test_identity_scaling():
    f = TestFunction("bump", center=0.0, scale=1.0)
    assert f(0.0) == pytest.approx(math.exp(-1.0))


@pytest.mark.parametrize("center,scale", [(0.0, 1.0), (0.7, 0.25), (-1.2, 0.03125)])
def test_localized_integral_invariant(center, scale):
    # composite Simpson at step scale/64: the integral never depends on
    # where or how tightly the profile is localized
    f = TestFunction("bump", center, scale)
    x = np.linspace(center - scale, center + scale, 129)
    val = simpson(f(x), x=x)
    assert val == pytest.approx(profile_integral("bump"), rel=1e-6)


def test_b1_profile_in_unit_ball():
    norm = profile_c1_norm("bump")
    assert norm > 1.0  # the raw bump is not in B_1; that is why we rescale
    f = TestFunction("bump_b1", 0.0, 1.0)
    u = np.linspace(-1, 1, 20001)
    vals = f(u)
    deriv = np.gradient(vals, u)
    assert np.max(np.abs(vals)) + np.max(np.abs(deriv)) <= 1.0 + 1e-6


def test_unit_profile_integrates_to_one():
    f = TestFunction("bump_unit", 0.5, 0.125)
    x = np.linspace(0.375, 0.625, 4097)
    assert simpson(f(x), x=x) == pytest.approx(1.0, rel=1e-6)


def test_csv_round_trip_bit_exact(tmp_path):
    grid = make_dyadic_grid(1.0, 6)
    path = generate_path("fbm", grid, dim=3, hurst=0.37, seed=123)
    fname = tmp_path / "w.csv"
    write_path_csv(path, str(fname))
    back = read_path_csv(str(fname))
    assert np.array_equal(back.values, path.values)
    assert back.grid.level == path.grid.level
    assert back.grid.horizon == path.grid.horizon


def test_csv_header_format(tmp_path):
    path = generate_path("sin_cos", make_dyadic_grid(1.0, 2), dim=2)
    fname = tmp_path / "w.csv"
    write_path_csv(path, str(fname))
    header = fname.read_text().splitlines()[0]
    assert header == "t,x1,x2"
