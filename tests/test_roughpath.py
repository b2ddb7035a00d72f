from __future__ import annotations

import itertools

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
    assert np.allclose(got, rp.second.increments[0])


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


def test_defect_detects_single_interval_perturbation():
    path = generate_path("fbm", make_dyadic_grid(1.0, 5), dim=2, hurst=0.5, seed=4)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    k = 7
    bumped = rp.pair(k, k + 1)
    bumped[0, 0] += 1.0
    broken = rp.second.with_pair_override(k, k + 1, bumped)
    from roughstruct import RoughPath

    assert chen_defect(RoughPath(path, broken, 0.45)) >= 1.0 - 1e-12


def _with_overrides(rp, shifts):
    second = rp.second
    for (i, j), delta in shifts.items():
        second = second.with_pair_override(i, j, rp.pair(i, j) + delta)
    return RoughPath(rp.path, second, rp.alpha)


def _all_triples_defect(rp):
    w = rp.path.values
    best = 0.0
    for s, u, t in itertools.combinations(range(rp.path.grid.num_nodes), 3):
        d = rp.pair(s, t) - rp.pair(s, u) - rp.pair(u, t) - np.outer(w[u] - w[s], w[t] - w[u])
        best = max(best, float(np.linalg.norm(d)))
    return best


def test_pairs_match_pair_with_overrides():
    path = generate_path("fbm", make_dyadic_grid(1.0, 5), dim=2, hurst=0.45, seed=2)
    rng = np.random.default_rng(2)
    keys = [(0, 1), (4, 30), (7, 8), (0, 32)]
    rp = _with_overrides(
        lift_piecewise_smooth(path, "linear", 0.45),
        {key: rng.standard_normal((2, 2)) for key in keys},
    )
    s, t = np.triu_indices(path.grid.num_nodes)
    s = np.concatenate([s, [4, 7, 4]])
    t = np.concatenate([t, [30, 8, 30]])
    got = rp.pairs(s, t)
    assert np.array_equal(got, np.stack([rp.pair(int(i), int(j)) for i, j in zip(s, t)]))
    assert all(np.array_equal(rp.pair(i, j), rp.second.pair_overrides[(i, j)]) for i, j in keys)


# Overrides whose broken triples sit in given roles of the override pair:
# (0, N) outer only, (0, 1) left inner only, (N-1, N) right inner only,
# boundary-anchored long pairs in two roles, interior pairs in all three,
# and pairs of overrides that meet in one triple.
_N4 = 16


@pytest.mark.parametrize("keys", [
    [(0, _N4)], [(0, 1)], [(_N4 - 1, _N4)], [(0, 11)], [(5, _N4)],
    [(7, 8)], [(3, 13)], [(2, 6), (6, 11)], [(2, 6), (2, 11)], [(2, 11), (6, 11)],
])
def test_defect_matches_all_triples_with_overrides(keys):
    path = generate_path("fbm", make_dyadic_grid(1.0, 4), dim=2, hurst=0.45, seed=3)
    rng = np.random.default_rng(len(keys) + keys[0][0])
    rp = _with_overrides(
        lift_piecewise_smooth(path, "linear", 0.45),
        {key: rng.standard_normal((2, 2)) for key in keys},
    )
    assert chen_defect(rp) == pytest.approx(_all_triples_defect(rp), rel=1e-12)


_N10 = 1024


@pytest.mark.parametrize("shifts", [
    {(0, _N10): 1.0, (0, _N10 // 2): 0.5},         # outer: (0, u, N), u != N/2
    {(0, 1): 1.0, (0, 2): 0.5},                     # left inner: (0, 1, t), t > 2
    {(_N10 - 1, _N10): 1.0, (_N10 - 2, _N10): 0.5},  # right inner: (s, N-1, N), s < N-2
], ids=["outer", "left_inner", "right_inner"])
def test_override_detected_in_each_role_at_j10(shifts):
    # the full shift shows only in triples where the first override plays
    # the named role; in the probed triples that hold it, the second
    # override cancels half of it
    path = generate_path("fbm", make_dyadic_grid(1.0, 10), dim=2, hurst=0.45, seed=4)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    delta = np.array([[0.3, -0.2], [0.1, 0.4]])
    broken = _with_overrides(rp, {key: scale * delta for key, scale in shifts.items()})
    assert chen_defect(rp) <= 1e-12
    assert chen_defect(broken) == pytest.approx(np.linalg.norm(delta), rel=1e-12)


def test_restrict_keeps_overrides_inside_the_window():
    path = generate_path("fbm", make_dyadic_grid(1.0, 6), dim=2, hurst=0.5, seed=0)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    delta = np.array([[0.3, -0.2], [0.1, 0.4]])
    broken = _with_overrides(rp, {(0, 8): delta})
    window = broken.restrict(0, 4)
    assert chen_defect(window) == pytest.approx(chen_defect(broken), rel=1e-12)
    assert chen_defect(window) == pytest.approx(np.linalg.norm(delta), rel=1e-12)
    # re-keyed to window nodes, the ends included; straddling ones dropped
    shifted = _with_overrides(rp, {(18, 24): delta, (16, 32): delta, (14, 20): delta,
                                   (30, 40): delta})
    sub = shifted.restrict(16, 4)
    assert set(sub.second.pair_overrides) == {(2, 8), (0, 16)}
    assert np.array_equal(sub.pair(2, 8), shifted.pair(18, 24))
    assert chen_defect(_with_overrides(rp, {(2, 20): delta}).restrict(0, 4)) <= 1e-12


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
    pert = rp.second.increments + np.diff(f_vals)[:, None, None] * np.ones((2, 2))
    from roughstruct import RoughPath, SecondOrderProcess

    rp2 = RoughPath(path, SecondOrderProcess(path.grid, pert), 0.45)
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
    assert np.allclose(rp.second.increments[0], 0.5 * np.ones((2, 2)))


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
    want = lift_piecewise_smooth(w, "sin_cos", 0.45).second.increments
    assert np.array_equal(rp.second.increments, want)
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
    assert np.array_equal(back.second.increments, rp.second.increments)


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


def test_rough_path_files_read_after_a_move(tmp_path):
    path = generate_path("fbm", make_dyadic_grid(1.0, 5), dim=2, hurst=0.5, seed=21)
    rp = lift_piecewise_smooth(path, "linear", 0.45)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    write_rough_path_json(rp, str(tmp_path / "a" / "rp.json"), str(tmp_path / "a" / "rp_path.csv"))
    for name in ("rp.json", "rp_path.csv", "rp_second.npy"):
        (tmp_path / "a" / name).rename(tmp_path / "b" / name)
    back = read_rough_path_json(str(tmp_path / "b" / "rp.json"))
    assert np.array_equal(back.path.values, rp.path.values)
    assert np.array_equal(back.second.increments, rp.second.increments)


def test_alpha_range_enforced():
    path = generate_path("sin_cos", make_dyadic_grid(1.0, 4), dim=2)
    with pytest.raises(ValueError):
        lift_piecewise_smooth(path, "linear", 0.3)
    with pytest.raises(ValueError):
        lift_piecewise_smooth(path, "linear", 0.6)
