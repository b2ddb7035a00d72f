from __future__ import annotations

import os

import numpy as np
import pytest
from scipy.integrate import simpson

from roughstruct import (
    RoughPath,
    SampledPath,
    chen_defect,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    read_path_csv,
    read_rough_path_json,
    rough_path_seminorm,
    write_path_csv,
    write_rough_path_json,
)
from roughstruct import roughpath
from roughstruct.cli import main
from roughstruct.grids import TestFunction

from conftest import traced_peak
from reference_impl import chen_extend


def _two_segment_path():
    grid = make_dyadic_grid(2.0, 1)
    knots = [
        (0.0, np.array([0.0, 0.0])),
        (1.0, np.array([1.0, 0.0])),
        (2.0, np.array([1.0, 1.0])),
    ]
    return generate_path("piecewise_linear", grid, knots=knots)


def test_chen_extend_empty_interval():
    rp = lift_piecewise_smooth(_two_segment_path(), "linear", 0.45)
    assert np.array_equal(chen_extend(rp.second, rp.path, 1, 1), np.zeros((2, 2)))


def test_chen_extend_single_interval():
    rp = lift_piecewise_smooth(_two_segment_path(), "linear", 0.45)
    got = chen_extend(rp.second, rp.path, 0, 1)
    assert np.allclose(got, rp.second[0])


def test_chen_extend_two_unit_segments():
    # direct iterated integral of the two-segment path: on [0,1] the path
    # runs along e1 (integral e1 x e1 / 2), on [1,2] along e2, picking up
    # the cross term e1 x e2 and e2 x e2 / 2
    rp = lift_piecewise_smooth(_two_segment_path(), "linear", 0.45)
    got = chen_extend(rp.second, rp.path, 0, 2)
    expected = np.array([[0.5, 1.0], [0.0, 0.5]])
    assert np.allclose(got, expected, atol=1e-14)


def test_chen_extend_rejects_reversed_indices():
    rp = lift_piecewise_smooth(_two_segment_path(), "linear", 0.45)
    with pytest.raises(ValueError):
        chen_extend(rp.second, rp.path, 2, 0)


def test_chen_extend_additivity_random_triples(rng):
    path = generate_path("fbm", make_dyadic_grid(1.0, 7), dim=2, hurst=0.5, seed=6)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    for _ in range(25):
        s, u, t = sorted(rng.integers(0, path.grid.num_nodes, size=3))
        lhs = chen_extend(rp.second, rp.path, s, t)
        rhs = (
            chen_extend(rp.second, rp.path, s, u)
            + chen_extend(rp.second, rp.path, u, t)
            + np.outer(path.increment(s, u), path.increment(u, t))
        )
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_pair_matches_fold():
    path = generate_path("fbm", make_dyadic_grid(1.0, 6), dim=2, hurst=0.45, seed=8)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    for s, t in [(0, 64), (3, 41), (10, 11)]:
        assert np.allclose(rp.pair(s, t), chen_extend(rp.second, rp.path, s, t), atol=1e-12)


def test_defect_of_exact_lift_is_roundoff():
    path = generate_path("fbm", make_dyadic_grid(1.0, 6), dim=2, hurst=0.5, seed=1)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    assert chen_defect(rp) <= 1e-12


def test_pairs_match_pair():
    path = generate_path("fbm", make_dyadic_grid(1.0, 5), dim=2, hurst=0.45, seed=2)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    s, t = np.triu_indices(path.grid.num_nodes)
    s = np.concatenate([s, [4, 7, 4]])
    t = np.concatenate([t, [30, 8, 30]])
    got = rp.pairs(s, t)
    assert np.array_equal(got, np.stack([rp.pair(int(i), int(j)) for i, j in zip(s, t)]))


@pytest.mark.parametrize("i, j", [(-1, 3), (0, 33), (-4, 40), (5, 4)])
def test_pair_refuses_nodes_off_the_grid(i, j):
    # node -1 was read as node N, and j = N + 1 raised IndexError
    path = generate_path("fbm", make_dyadic_grid(1.0, 5), dim=2, hurst=0.45, seed=2)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    with pytest.raises(ValueError, match=rf"need 0 <= i <= j <= 32, got \({i}, {j}\)"):
        rp.pair(i, j)
    assert np.array_equal(rp.pair(0, 32), rp.pairs(np.array([0]), np.array([32]))[0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rough_path_refuses_tensors_of_another_shape(dim):
    path = generate_path("fbm", make_dyadic_grid(1.0, 4), dim=dim, hurst=0.45, seed=dim)
    n_int, inc = 16, lift_piecewise_smooth(path, "linear", 0.45).second
    assert inc.shape == (n_int, dim, dim)
    for shape in [(n_int - 1, dim, dim), (n_int, dim, dim + 1), (n_int, dim * dim),
                  (n_int, dim + 1, dim + 1)]:
        with pytest.raises(ValueError, match=r"second must be \(num_intervals, n, n\)"):
            RoughPath(path, np.zeros(shape), 0.45)
    assert RoughPath(path, inc, 0.45).second is inc


@pytest.mark.parametrize("horizon", [1.0, 1.3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_restrict_is_the_parents_window(dim, horizon):
    path = generate_path("fbm", make_dyadic_grid(horizon, 6), dim=dim, hurst=0.45, seed=dim)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    for start, level in [(0, 6), (16, 4), (40, 3), (63, 0)]:
        window = rp.restrict(start, level)
        n = 1 << level
        assert np.array_equal(window.second, rp.second[start : start + n])
        a, b = np.triu_indices(n + 1)  # every window pair, a == b included
        assert np.allclose(window.pairs(a, b), rp.pairs(start + a, start + b), rtol=0, atol=1e-12)


@pytest.mark.parametrize("start, level", [(-4, 1), (-1, 0), (15, 1), (16, 0), (0, 5)])
def test_restrict_refuses_a_window_off_the_grid(start, level):
    # a negative start was read from the end: (-4, 1) gave nodes 13-15
    path = generate_path("fbm", make_dyadic_grid(1.0, 4), dim=2, hurst=0.45, seed=4)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    for whole in (path, rp):
        with pytest.raises(ValueError, match=rf"window \[{start}, {start + (1 << level)}\] exceeds grid \[0, 16\]"):
            whole.restrict(start, level)
    assert rp.restrict(0, 4).second.shape == rp.second.shape


def test_defect_of_analytic_sincos_lift():
    grid = make_dyadic_grid(np.pi / 2, 8)
    w = generate_path("sin_cos", grid, dim=2)
    rp = lift_piecewise_smooth(w, "sin_cos", 0.45)
    assert chen_defect(rp) <= 1e-10


def test_perturbation_closure_with_smooth_bump():
    # adding increments F_t - F_s of any two-parameter-compatible function
    # keeps Chen's relation (second-order processes are never unique)
    path = generate_path("fbm", make_dyadic_grid(1.0, 6), dim=2, hurst=0.5, seed=12)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    bump = TestFunction(0.5, 0.4)
    f_vals = np.array([bump(t) for t in path.grid.nodes])
    pert = rp.second + np.diff(f_vals)[:, None, None] * np.ones((2, 2))
    rp2 = RoughPath(path, pert, 0.45)
    assert chen_defect(rp2) <= 1e-10


def test_scalar_linear_lift_symmetric_identity():
    path = generate_path("fbm", make_dyadic_grid(1.0, 8), hurst=0.5, seed=3)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    for s, t in [(0, 256), (17, 200), (100, 101)]:
        dw = path.increment(s, t)[0]
        assert rp.pair(s, t)[0, 0] == pytest.approx(dw**2 / 2, abs=1e-12)


def test_linear_lift_direction_one_one():
    grid = make_dyadic_grid(1.0, 0)
    path = SampledPath(grid, np.array([[0.0, 0.0], [1.0, 1.0]]))
    rp = lift_piecewise_smooth(path, "linear", 0.5)
    assert np.allclose(rp.second[0], 0.5 * np.ones((2, 2)))


def test_sincos_levy_area_quarter_period():
    # closed form: int_0^{pi/2} sin u d(cos u) = -pi/4, cross-checked by
    # composite Simpson at 2^14 points
    grid = make_dyadic_grid(np.pi / 2, 8)
    w = generate_path("sin_cos", grid, dim=2)
    rp = lift_piecewise_smooth(w, "sin_cos", 0.45)
    u = np.linspace(0, np.pi / 2, (1 << 14) + 1)
    oracle = simpson(np.sin(u) * (-np.sin(u)), x=u)
    assert oracle == pytest.approx(-np.pi / 4, abs=1e-9)
    got = rp.pair(0, grid.num_intervals)[0, 1]
    assert got == pytest.approx(-np.pi / 4, abs=1e-12)


def test_polynomial_analytic_lift_matches_linear_limit():
    # W(t) = (t, t^2): analytic iterated integrals vs fine linear lift
    grid = make_dyadic_grid(1.0, 8)
    coeffs = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    w = generate_path("polynomial", grid, dim=2, coeffs=coeffs)
    rp = lift_piecewise_smooth(w, "polynomial", 0.5, coeffs=coeffs)
    # oracle: WW^{12}_{0,1} = int_0^1 t d(t^2) = int 2t^2 = 2/3
    assert rp.pair(0, 256)[0, 1] == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert chen_defect(rp) < 1e-12


def test_analytic_lift_rejects_unknown_form():
    w = generate_path("sin_cos", make_dyadic_grid(1.0, 4), dim=2)
    with pytest.raises(ValueError):
        lift_piecewise_smooth(w, "fourier", 0.45)
    with pytest.raises(ValueError):
        lift_piecewise_smooth(w, "polynomial", 0.45)  # coeffs missing


def test_closed_form_lift_refuses_another_path():
    # the closed-form tensors never read the samples: an fBm path got the
    # sin/cos area, Chen-consistent by construction
    grid = make_dyadic_grid(1.0, 6)
    fbm = generate_path("fbm", grid, dim=2, hurst=0.5, seed=4)
    coeffs = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0]])
    with pytest.raises(ValueError, match="sin_cos lift"):
        lift_piecewise_smooth(fbm, "sin_cos", 0.45)
    with pytest.raises(ValueError, match="polynomial lift"):
        lift_piecewise_smooth(fbm, "polynomial", 0.45, coeffs=coeffs)
    near = generate_path("sin_cos", grid, dim=2)
    near.values[7, 1] += 1e-9
    with pytest.raises(ValueError, match="sin_cos lift"):
        lift_piecewise_smooth(near, "sin_cos", 0.45)


def test_closed_form_lift_accepts_its_generator_after_a_csv_round_trip(tmp_path):
    w = generate_path("sin_cos", make_dyadic_grid(1.3, 7), dim=2)
    write_path_csv(w, str(tmp_path / "w.csv"))
    back = read_path_csv(str(tmp_path / "w.csv"))
    rp = lift_piecewise_smooth(back, "sin_cos", 0.45)
    want = lift_piecewise_smooth(w, "sin_cos", 0.45).second
    assert np.array_equal(rp.second, want)
    assert chen_defect(rp) <= 1e-12


def test_seminorm_of_linear_path():
    grid = make_dyadic_grid(1.0, 8)
    w = SampledPath(grid, grid.nodes)
    rp = lift_piecewise_smooth(w, "linear", 0.5)
    first, second, total = rough_path_seminorm(rp)
    assert first == pytest.approx(1.0)
    assert second == pytest.approx(0.5)
    assert total == pytest.approx(1.5)


def test_seminorm_constant_path_zero():
    grid = make_dyadic_grid(1.0, 5)
    w = SampledPath(grid, np.zeros(grid.num_nodes))
    rp = lift_piecewise_smooth(w, "linear", 0.5)
    assert rough_path_seminorm(rp) == (0.0, 0.0, 0.0)


def test_seminorm_reproducible_from_seed():
    grid = make_dyadic_grid(1.0, 8)
    vals = [
        rough_path_seminorm(
            lift_piecewise_smooth(
                generate_path("fbm", grid, hurst=0.5, seed=99), "linear", 0.45
            )
        )
        for _ in range(2)
    ]
    assert vals[0] == vals[1]
    assert all(np.isfinite(v) for v in vals[0])


def test_rough_path_json_round_trip(tmp_path):
    path = generate_path("fbm", make_dyadic_grid(1.0, 5), dim=2, hurst=0.5, seed=21)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    json_file = tmp_path / "rp.json"
    csv_file = tmp_path / "rp_path.csv"
    write_rough_path_json(rp, str(json_file), str(csv_file))
    back = read_rough_path_json(str(json_file))
    assert back.alpha == rp.alpha
    assert np.array_equal(back.path.values, rp.path.values)
    assert np.array_equal(back.second, rp.second)


def test_rough_path_json_write_memory_is_blocked(tmp_path):
    # one json.dumps of the whole J = 17 document peaks at 32 MiB, one block
    # of TABLE_BLOCK_ROWS intervals at 16 MiB
    rp = lift_piecewise_smooth(generate_path("fbm", make_dyadic_grid(1.0, 17), hurst=0.5, seed=0),
                               "linear", 0.45)
    peak = traced_peak(
        lambda: write_rough_path_json(rp, str(tmp_path / "rp.json"), str(tmp_path / "rp_path.csv")))
    assert peak < 24 * 2**20


def test_rough_path_json_write_memory_is_blocked_by_floats(tmp_path):
    # at dim 3 one interval holds 9 floats: blocks of 2^16 intervals peaked
    # at 27.6 MiB here (J = 15), blocks of 2^16 floats at 8.6 MiB
    path = generate_path("fbm", make_dyadic_grid(1.0, 15), dim=3, hurst=0.5, seed=0)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    peak = traced_peak(
        lambda: write_rough_path_json(rp, str(tmp_path / "rp.json"), str(tmp_path / "rp_path.csv")))
    assert peak < 24 * 2**20


def test_rough_path_json_read_memory_is_linear(tmp_path):
    # json.load with one Python list per interval peaked at 26 MiB here
    # (J = 16, dim 2: 2 MiB of tensors)
    path = generate_path("fbm", make_dyadic_grid(1.0, 16), dim=2, hurst=0.5, seed=0)
    write_rough_path_json(lift_piecewise_smooth(path, "linear", 0.45),
                          str(tmp_path / "rp.json"), str(tmp_path / "rp_path.csv"))
    peak = traced_peak(lambda: read_rough_path_json(str(tmp_path / "rp.json")))
    assert peak < 8 * 2**20


def test_rough_path_read_memory_holds_the_tensors_once(tmp_path):
    # at J = 18, dim 2 the tensors are 8 MiB and the path 6 MiB: parsing the
    # tensors as CSV text with an index column peaked at 24.0 MiB
    path = generate_path("fbm", make_dyadic_grid(1.0, 18), dim=2, hurst=0.5, seed=0)
    write_rough_path_json(lift_piecewise_smooth(path, "linear", 0.45),
                          str(tmp_path / "rp.json"), str(tmp_path / "rp_path.csv"))
    peak = traced_peak(lambda: read_rough_path_json(str(tmp_path / "rp.json")))
    assert peak < 18 * 2**20


def test_rough_path_write_memory_is_blocked(tmp_path):
    # the writers stacked the whole table before blocking it: at J = 18,
    # dim 2 the path CSV peaked at 9.8 MiB and the rough path (which writes
    # the path CSV too, so its peak covers both) at 13.8 MiB
    path = generate_path("fbm", make_dyadic_grid(1.0, 18), dim=2, hurst=0.5, seed=0)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    peak = traced_peak(
        lambda: write_rough_path_json(rp, str(tmp_path / "rp.json"), str(tmp_path / "rp_path.csv")))
    assert peak < 8 * 2**20


def test_rough_path_files_read_after_a_move(tmp_path, monkeypatch):
    # lifted in the cwd, the three files moved into b/, then a decoy lift on
    # the same grid written under the same names in the cwd
    path = generate_path("fbm", make_dyadic_grid(1.0, 5), dim=2, hurst=0.5, seed=21)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "b").mkdir()
    write_rough_path_json(rp, "rp.json", "rp_path.csv")
    for name in ("rp.json", "rp_path.csv", "rp_second.npy"):
        os.rename(name, os.path.join("b", name))
    decoy = lift_piecewise_smooth(
        generate_path("fbm", make_dyadic_grid(1.0, 5), dim=2, hurst=0.5, seed=22), "linear", 0.45)
    write_rough_path_json(decoy, "rp.json", "rp_path.csv")
    read = []
    monkeypatch.setattr(roughpath, "read_rough_path_json",
                        lambda name: read.append(read_rough_path_json(name)) or read[-1])
    assert main(["chen", "b/rp.json"]) == 0  # the CLI reads through the module
    for back in (read_rough_path_json(str(tmp_path / "b" / "rp.json")),
                 read_rough_path_json("b/rp.json"), *read):
        assert np.array_equal(back.path.values, rp.path.values)
        assert np.array_equal(back.second, rp.second)
    assert len(read) == 1


def test_alpha_range_enforced():
    path = generate_path("sin_cos", make_dyadic_grid(1.0, 4), dim=2)
    with pytest.raises(ValueError):
        lift_piecewise_smooth(path, "linear", 0.3)
    with pytest.raises(ValueError):
        lift_piecewise_smooth(path, "linear", 0.6)
