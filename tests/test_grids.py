from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
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
from roughstruct import _fmt17
from roughstruct.grids import (
    TABLE_BLOCK_ROWS,
    fgn_from_normals,
    write_table,
)

from conftest import traced_peak
from reference_impl import fbm_covariance, holder_lag_scan
from test_io_golden import _reference_table


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
        coarse = SampledPath(make_dyadic_grid(1.0, level), fine.values[::2])
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
    # the all-pairs index arrays alone were 134 MB at J = 12; the line at
    # alpha = 1 ties every pair, so no band prunes and all go dense
    path = generate_path("fbm", make_dyadic_grid(1.0, 12), dim=2, hurst=0.5, seed=0)
    line = SampledPath(path.grid, np.outer(path.grid.nodes, [1.0, -0.5]))
    for p, alpha in ((path, 0.45), (line, 1.0)):
        assert traced_peak(lambda: holder_seminorm(p, alpha)) < 16 * 2**20


def _adversarial_path(case: str, grid, dim: int) -> tuple[np.ndarray, float]:
    # values and alpha of a path whose max sits where a pruned scan can miss it
    t, n = grid.nodes, grid.num_nodes
    direction = np.array([1.1, -0.7, 0.3][:dim])
    if case == "constant":
        return np.full((n, dim), -2.5), 0.5
    if case == "line":  # every quotient 1 up to round-off: all pairs tie
        return np.outer(t, direction), 1.0
    if case == "max_at_lag_n":  # (t - s)**0.7 grows with the lag
        return np.outer(t, direction), 0.3
    if case == "spike_at_n":  # the padding edge
        values = np.zeros((n, dim))
        values[-1] = 3.0
        return values, 0.45
    if case == "max_at_lag_1":
        values = 1e-3 * np.cumsum(np.random.default_rng(dim).standard_normal((n, dim)), axis=0)
        values[n // 2 :] += direction
        return values, 0.45
    if case == "near_tie":
        # a 16-lag ramp is the max; a 17-lag ramp, the best bound in the band
        # of lags 16 and 17, falls 1e-10 short of it, inside the 1e-9 margin
        k, den = np.arange(n), (np.array([16.0, 17.0]) * grid.step) ** 0.5
        profile = (np.clip((k - n // 8) / 17, 0, 1) * den[1] / den[0] * (1 - 1e-10)
                   + np.clip((k - n // 2) / 16, 0, 1))
        return np.outer(profile, direction), 0.5
    hurst = {"fbm_rough": 0.3, "fbm_smooth": 0.7}[case]
    return generate_path("fbm", grid, dim=dim, hurst=hurst, seed=dim).values, 0.35


@pytest.mark.parametrize("horizon", [1.0, 1.3])
@pytest.mark.parametrize("level", [1, 2, 3, 8, 10, 12])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("case", ["constant", "line", "max_at_lag_n", "spike_at_n",
                                  "max_at_lag_1", "near_tie", "fbm_rough", "fbm_smooth"])
def test_holder_pruned_scan_equals_lag_scan(case, dim, level, horizon):
    grid = make_dyadic_grid(horizon, level)
    values, alpha = _adversarial_path(case, grid, dim)
    path = SampledPath(grid, values)
    assert holder_seminorm(path, alpha) == holder_lag_scan(path, alpha)


@settings(max_examples=40, deadline=None)
@given(
    hurst=hst.floats(min_value=0.3, max_value=0.7),
    alpha=hst.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    dim=hst.integers(min_value=1, max_value=3),
    level=hst.integers(min_value=1, max_value=10),
    horizon=hst.sampled_from([1.0, 1.3]),
    seed=hst.integers(min_value=0, max_value=2**16),
)
def test_holder_pruned_scan_equals_lag_scan_on_fbm(hurst, alpha, dim, level, horizon, seed):
    path = generate_path("fbm", make_dyadic_grid(horizon, level), dim=dim, hurst=hurst, seed=seed)
    assert holder_seminorm(path, alpha) == holder_lag_scan(path, alpha)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("level", [10, 14])
def test_holder_rejects_non_finite_values(level, bad):
    # the NaN once dropped out of the all-pairs max (this walk: 76.0 at
    # J = 10, 104.1 clean) and made the aligned-pair max at J = 14 nan
    grid = make_dyadic_grid(1.0, level)
    values = np.cumsum(np.random.default_rng(3).standard_normal((grid.num_nodes, 2)), axis=0)
    values[grid.num_nodes // 3, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        holder_seminorm(SampledPath(grid, values), 0.45)


def test_path_csv_write_memory_is_blocked(tmp_path):
    # one %-format of the whole J = 18 table peaks at 52 MiB, one block of
    # TABLE_BLOCK_ROWS rows at 17 MiB
    path = generate_path("fbm", make_dyadic_grid(1.0, 18), dim=2, hurst=0.5, seed=0)
    assert traced_peak(lambda: write_path_csv(path, str(tmp_path / "w.csv"))) < 24 * 2**20


def test_wide_table_write_memory_is_blocked_by_cells(tmp_path):
    # 2^15 rows of 32 cells: one block of 2^15 rows held every cell's Python
    # float and text at once (tens of MiB), blocks of 2^16 cells a few MiB
    data = np.random.default_rng(0).standard_normal((2**15, 32))
    header = ",".join(f"c{i}" for i in range(32))
    assert traced_peak(lambda: write_table(str(tmp_path / "wide.csv"), header, data)) < 8 * 2**20


def test_one_table_block_write_memory_is_bounded(tmp_path):
    # one block of 2^16 cells (0.5 MiB stacked) formatted in sub-blocks of
    # 2^12 cells: 4.31 MiB when one %-format held every cell's float and text
    data = np.random.default_rng(1).standard_normal((2**15, 2))
    assert traced_peak(lambda: write_table(str(tmp_path / "t.csv"), "a,b", data)) <= 2.5 * 2**20


def test_path_csv_read_memory_is_linear(tmp_path):
    # np.genfromtxt's per-cell Python objects took 119 MiB at J = 18
    path = generate_path("fbm", make_dyadic_grid(1.0, 18), dim=2, hurst=0.5, seed=0)
    write_path_csv(path, str(tmp_path / "w.csv"))
    assert traced_peak(lambda: read_path_csv(str(tmp_path / "w.csv"))) < 16 * 2**20


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


@pytest.mark.parametrize("times", [(0.0, 0.7, 0.3, 1.0), (0.0, 0.5, 0.5, 1.0)],
                         ids=["out-of-order", "repeated"])
def test_piecewise_linear_refuses_knot_times_that_do_not_increase(times):
    # np.interp needs sorted times: out of order, the path missed a knot and
    # never reached 3; repeated, one of the two values was silently taken
    knots = [(t, np.array([v])) for t, v in zip(times, (0.0, 3.0, 1.0, 1.0))]
    with pytest.raises(ValueError, match="knot times must strictly increase"):
        generate_path("piecewise_linear", make_dyadic_grid(1.0, 3), knots=knots)


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
    paths = []
    peak = traced_peak(lambda: paths.append(generate_path("fbm", grid, dim=2, hurst=0.4, seed=0)))
    assert paths[0].values.shape == (grid.num_nodes, 2)
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
    f = TestFunction(center=1.0, scale=0.5)
    assert f(1.0) == pytest.approx(2.0 * math.exp(-1.0))


def test_test_function_vanishes_outside_support():
    f = TestFunction(center=0.3, scale=0.2)
    assert f(0.3 + 0.4) == 0.0
    assert f(-0.2) == 0.0


def test_identity_scaling():
    f = TestFunction(center=0.0, scale=1.0)
    assert f(0.0) == pytest.approx(math.exp(-1.0))


@pytest.mark.parametrize("center,scale", [(0.0, 1.0), (0.7, 0.25), (-1.2, 0.03125)])
def test_localized_integral_invariant(center, scale):
    # composite Simpson at step scale/64: the integral never depends on
    # where or how tightly the profile is localized
    f = TestFunction(center, scale)
    x = np.linspace(center - scale, center + scale, 129)
    val = simpson(f(x), x=x)
    u = np.linspace(-1.0, 1.0, 200001)
    assert val == pytest.approx(np.trapezoid(TestFunction()(u), u), rel=1e-6)


def test_csv_round_trip_bit_exact(tmp_path):
    grid = make_dyadic_grid(1.0, 6)
    path = generate_path("fbm", grid, dim=3, hurst=0.37, seed=123)
    fname = tmp_path / "w.csv"
    write_path_csv(path, str(fname))
    back = read_path_csv(str(fname))
    assert np.array_equal(back.values, path.values)
    assert back.grid.level == path.grid.level
    assert back.grid.horizon == path.grid.horizon


def test_csv_crlf_and_padded_cells_parse_bit_identically(tmp_path):
    path = generate_path("fbm", make_dyadic_grid(1.13, 6), dim=2, hurst=0.4, seed=3)
    plain = tmp_path / "w.csv"
    write_path_csv(path, str(plain))
    header, *rows = plain.read_text().splitlines()
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes("".join(line + "\r\n" for line in [header, *rows]).encode())
    padded = tmp_path / "padded.csv"
    padded.write_text("".join(line + "\n" for line in [header] + [
        ",".join(f" {cell}\t" for cell in row.split(",")) for row in rows]))
    for fname in (crlf, padded):
        back = read_path_csv(str(fname))
        assert back.grid == path.grid
        assert back.values.tobytes() == path.values.tobytes()


def test_csv_header_format(tmp_path):
    path = generate_path("sin_cos", make_dyadic_grid(1.0, 2), dim=2)
    fname = tmp_path / "w.csv"
    write_path_csv(path, str(fname))
    header = fname.read_text().splitlines()[0]
    assert header == "t,x1,x2"


def _ties(n: int) -> np.ndarray:
    """Exact rounding ties of %.17g: 1e15 + j + 1/4 has 18 digits, the last a 5."""
    return (4e15 + 2 * np.arange(n) + 1) / 4


def _table_bytes(tmp_path, header: str, *columns) -> bytes:
    write_table(str(tmp_path / "t.csv"), header, *columns)
    return (tmp_path / "t.csv").read_bytes()


def test_table_matches_row_formatter_on_every_float_class(tmp_path):
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2**64, size=2**15, dtype=np.uint64).view(float)
    powers = 10.0 ** np.arange(-300, 301)
    cells = np.concatenate([
        bits[np.isfinite(bits)],
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1.7976931348623157e308],
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers,
        *(_ties(3000) * 2.0**-k for k in range(0, 60, 6)), -_ties(100),
        np.arange(-20000, 20001), 2.0 ** np.arange(-1074, 1024, 7),
        [1e-251, 1e-250, 1e250, 1e251, 1e-300, -1e300, np.nan, np.inf, -np.inf],
    ])
    cells = np.resize(rng.permutation(cells), (len(cells) + 2) // 3 * 3).reshape(-1, 3)
    assert _table_bytes(tmp_path, "a,b,c", cells) == _reference_table("a,b,c", cells)


@pytest.mark.parametrize("width", [2, 3, 4, 5, 7])  # 4: a dim-3 path; 7: a d = 3 solve table
def test_table_straddling_sub_block_and_block_matches_row_formatter(tmp_path, width):
    sub_rows, block_rows = 2**12 // width, TABLE_BLOCK_ROWS // width  # 2^12-cell sub-blocks
    data = np.random.default_rng(width).standard_normal((block_rows + sub_rows + 3, width - 1))
    edges = [sub_rows - 1, sub_rows, block_rows - 1, block_rows, block_rows + sub_rows]
    data[edges, 0] = _ties(len(edges))
    header = ",".join(["k"] + [f"c{i}" for i in range(width - 1)])
    expected = _reference_table(header, np.column_stack([np.arange(len(data)), data]))
    assert _table_bytes(tmp_path, header, range(len(data)), data) == expected


def _one_digit_cells(rng) -> np.ndarray:
    """Cells whose 17 digits are d0 and 16 zeros, as 0.5, 100 and 1e+20."""
    cells = [v for v in np.outer(np.arange(1, 10), 10.0 ** np.arange(-30, 40)).ravel().tolist()
             if f"{v:.16e}"[1:].startswith(".0000000000000000e")]
    return rng.choice(cells + [0.0], 12000)


_CELL_KINDS = {  # cells of one kind, and the kind's test on _digits' (q, rem, X)
    "point-inside": (lambda r: np.concatenate([10 ** r.uniform(1, 16.99, 6000),
                                               np.round(10 ** r.uniform(1, 16.99, 6000))]),
                     lambda q, rem, x: (x >= 1) & (x <= 16)),
    "exponent-2-digits": (lambda r: 10 ** np.concatenate([r.uniform(-99, -5.01, 6000), r.uniform(17.01, 99.9, 6000)]),
                          lambda q, rem, x: ((x < -4) | (x > 16)) & (np.abs(x) < 100)),
    "exponent-3-digits": (lambda r: 10 ** np.concatenate([r.uniform(-249, -100.01, 6000), r.uniform(100.01, 249, 6000)]),
                          lambda q, rem, x: np.abs(x) >= 100),
    "fixed-point-x-at-most-0": (lambda r: 10 ** r.uniform(-3.99, 0.99, 12000),
                                lambda q, rem, x: (x >= -4) & (x <= 0)),
    "one-digit": (_one_digit_cells, lambda q, rem, x: (q % 10**8 == 0) & (rem == 0)),
}


@pytest.mark.parametrize("kind", sorted(_CELL_KINDS))
def test_chunks_of_one_cell_kind_match_row_formatter(tmp_path, kind):
    # each kind has its own assembly: fixed point with X <= 0, exponent form,
    # the point inside the digits (1 <= X <= 16), every fraction digit stripped
    rng = np.random.default_rng(len(kind))
    make, is_kind = _CELL_KINDS[kind]
    cells = (make(rng) * rng.choice([-1.0, 1.0], 12000)).reshape(-1, 3)
    q, rem, x, undecided = _fmt17._digits(cells.ravel())
    assert undecided.mean() < 0.1 and is_kind(q, rem, x)[~undecided].all()  # near-ties go to %
    assert _table_bytes(tmp_path, "a,b,c", cells) == _reference_table("a,b,c", cells)


@pytest.mark.parametrize("level", [18, 19])
def test_exact_ties_of_dyadic_nodes_are_rounded_in_numpy(tmp_path, level):
    # an odd k/2^J >= 0.1 (J >= 18) has 18 or more significant digits ending
    # in 5: an exact tie at 17 digits, which % rounds half to even; these
    # cells, a third of the nodes at J = 18, went to % one by one
    nodes = np.arange(1, 1 << level, 2) / 2.0**level
    assert not _fmt17._digits(nodes)[3].any()
    cells = nodes.reshape(-1, 2)
    assert _table_bytes(tmp_path, "a,b", cells) == _reference_table("a,b", cells)


def test_fast_path_leaves_no_workload_cell_to_python(tmp_path, monkeypatch):
    # near-ties, cells outside [1e-250, 1e250] (both to %) and cells with the point
    # inside the digits (permuted by class): none is in the tables the CLI writes
    from roughstruct.cli import main
    from roughstruct.grids import read_table

    monkeypatch.chdir(tmp_path)
    for argv in (["--grid-level", "12", "--seed", "5", "--out", "w.csv", "gen", "--kind", "fbm",
                  "--hurst", "0.5", "--dim", "2"],
                 ["--out", "I.csv", "integrate", "w.csv", "--route", "rough-riemann"],
                 ["--grid-level", "13", "--out", "s.csv", "gen", "--kind", "sin_cos", "--dim", "2"],
                 ["--grid-level", "12", "--horizon", "1.2", "--out", "s1.csv", "gen", "--kind", "sin_cos"],
                 ["--out", "sol.csv", "solve", "s1.csv", "--F", "tanh", "--lift-mode", "sin_cos"]):
        assert main(argv) == 0
    for name in ("w.csv", "I.csv", "s.csv", "sol.csv"):
        _, _, x, undecided = _fmt17._digits(read_table(name).ravel())
        assert not undecided.any() and not ((x >= 1) & (x <= 16)).any(), name


def test_formatter_tables_are_built_on_first_write_only(tmp_path):
    code = ("import sys, roughstruct, roughstruct.grids; roughstruct.daubechies_basis(4); "
            "print(sys.modules['roughstruct._fmt17']._tables.cache_info().currsize)")
    path = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(_fmt17.__file__)),
                                         os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": path}).stdout
    assert out.split() == ["0"]
