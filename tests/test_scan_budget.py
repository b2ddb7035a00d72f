"""The chunked pair, triple and germ scans: bit-exact across chunk budgets,
and bounded working memory.

``grids.scan_chunks`` gives each scan ``PAIR_CHUNK // 8 // width`` rows per
chunk for ``width`` floats per row.  The budget tests shrink ``PAIR_CHUNK``
so that a scan takes 2 or 3 rows at a time, which leaves one-row tails on
odd and on ``3k + 1`` counts: einsum sums a one-row reduction in another
order, so the tails must not change a bit.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from roughstruct import (
    ControlledPath,
    RoughPath,
    chen_defect,
    controlled_seminorm,
    generate_path,
    lift_piecewise_smooth,
    make_dyadic_grid,
    read_path_csv,
    rough_integral_path,
    rough_path_distance,
    rough_path_seminorm,
    three_point_defect,
    write_path_csv,
)
from roughstruct import grids, wavelets
from roughstruct.integration import rough_integral, scalar_one_form
from roughstruct.reconstruction import (
    antiderivative_from_distribution,
    wavelet_lift,
    wavelet_rough_integral,
)

from conftest import traced_peak

ALPHA = 0.45
MIB = 2**20


@pytest.mark.parametrize("count", [0, 1, 2, 3, 4, 5, 6, 7, 10])
@pytest.mark.parametrize("rows", [2, 3])
def test_scan_chunks_cover_the_range_without_one_row_tails(monkeypatch, count, rows):
    monkeypatch.setattr(grids, "PAIR_CHUNK", 8 * rows * 5)
    chunks = grids.scan_chunks(count, 5)
    assert [i for lo, hi in chunks for i in range(lo, hi)] == list(range(count))
    sizes = [hi - lo for lo, hi in chunks]
    assert all(size <= rows + 1 for size in sizes)
    assert count < 2 or min(sizes) >= 2


def test_scan_chunks_default_budget_is_256_kib():
    assert grids.scan_chunks(100_000, 4)[0] == (0, (1 << 15) // 4)


def _fbm_lift(level: int, dim: int, horizon: float, seed: int) -> RoughPath:
    w = generate_path("fbm", make_dyadic_grid(horizon, level), dim=dim, hurst=0.4, seed=seed)
    return lift_piecewise_smooth(w, "linear", ALPHA)


def _fresh(rp: RoughPath) -> RoughPath:
    """The same rough path with empty caches, so a call builds its own."""
    return RoughPath(rp.path, rp.second, rp.alpha)


def _controlled(rp: RoughPath) -> ControlledPath:
    w = rp.path
    y = np.sin(w.values[:, 0]) + w.grid.nodes
    yp = np.zeros((w.grid.num_nodes, 1, w.dim))
    yp[:, 0, :] = np.cos(w.values)
    return ControlledPath(y, yp, w)


# name: (floats per row the scan declares, the call); the pair scans run at
# levels 5 and 9, their all-pairs and dyadic regimes, the others at level 5
def _cases(dim: int, horizon: float) -> dict:
    small, large = (_fbm_lift(level, dim, horizon, seed=level + dim) for level in (5, 9))
    other = _fbm_lift(9, dim, horizon, seed=99)
    cp = _controlled(small)
    integral = rough_integral_path(cp, small)
    return {
        "chen": (dim**2, lambda: chen_defect(_fresh(small))),
        "seminorm-all-pairs": (dim**2, lambda: rough_path_seminorm(_fresh(small))),
        "seminorm-dyadic": (dim**2, lambda: rough_path_seminorm(_fresh(large))),
        "distance": (dim**2, lambda: rough_path_distance(_fresh(large), _fresh(other))),
        "controlled-all-pairs": (dim, lambda: controlled_seminorm(cp, ALPHA)),
        "controlled-dyadic": (dim, lambda: controlled_seminorm(_controlled(large), ALPHA)),
        "three-point": (dim**3, lambda: three_point_defect(integral, cp, _fresh(small))),
        "integral": (dim**3, lambda: rough_integral_path(cp, _fresh(small)).tobytes()),
    }


@pytest.mark.parametrize("horizon", [1.0, 1.3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_scans_are_bit_exact_across_chunk_budgets(monkeypatch, dim, horizon):
    for name, (width, call) in _cases(dim, horizon).items():
        want = call()
        for rows in (2, 3):
            with monkeypatch.context() as patch:
                patch.setattr(grids, "PAIR_CHUNK", 8 * rows * width)
                got = call()
            assert got == want, (name, rows)


@pytest.mark.parametrize("horizon", [1.0, 1.3])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_chunked_integral_is_the_unchunked_sum(monkeypatch, dim, horizon):
    rp = _fbm_lift(7, dim, horizon, seed=dim)
    cp = _controlled(rp)
    want = rough_integral(*scalar_one_form(cp), rp).tobytes()
    for rows in (2, 3, 5):
        with monkeypatch.context() as patch:
            patch.setattr(grids, "PAIR_CHUNK", 8 * rows * dim**3)
            assert rough_integral_path(cp, _fresh(rp)).tobytes() == want, rows


def test_read_path_csv_values_are_c_contiguous(tmp_path):
    # a strided data[:, 1:] view made every np.take gather copy the whole table
    path = generate_path("fbm", make_dyadic_grid(1.0, 6), dim=3, hurst=0.5, seed=1)
    write_path_csv(path, str(tmp_path / "w.csv"))
    back = read_path_csv(str(tmp_path / "w.csv"))
    assert back.values.flags.c_contiguous
    assert np.array_equal(back.values, path.values)


# J = 16, dim 2: the path is 1 MiB and each cache of the rough path 2 MiB;
# the unchunked scans peaked at 24.0 (Chen), 19.0 (seminorm), 24.5 MiB
# (three-point) and 10.0 MiB (the integral, fine tensors cached), and the basis with its quadrature centre of mass at 9.6 MiB


@pytest.fixture(scope="module")
def fbm_j16() -> RoughPath:
    return _fbm_lift(16, 2, 1.0, seed=0)


def test_chen_defect_memory_is_chunked(fbm_j16):
    assert traced_peak(lambda: chen_defect(_fresh(fbm_j16))) <= 6 * MIB


def test_rough_path_seminorm_memory_is_chunked(fbm_j16):
    assert traced_peak(lambda: rough_path_seminorm(_fresh(fbm_j16))) <= 6 * MIB


def test_three_point_defect_memory_is_chunked(fbm_j16):
    cp = _controlled(fbm_j16)
    integral = rough_integral_path(cp, fbm_j16)
    assert traced_peak(lambda: three_point_defect(integral, cp, _fresh(fbm_j16))) <= 8 * MIB


def test_rough_integral_path_memory_is_chunked(fbm_j16):
    # the germs read the stored fine tensors, so a fresh rough path assembles
    # no (N, n, n) table (the Chen-assembled ones traced 11.4 MiB); the
    # one-form over every node, (N, n, n) and (N, n, n, n), traced 10.0 MiB
    cp = _controlled(fbm_j16)
    assert traced_peak(lambda: rough_integral_path(cp, _fresh(fbm_j16))) <= 2.5 * MIB


# the wavelet route, with its basis already built (2.2 MiB more on a first
# call): both traced 13.4-13.6 MiB against 1.6 MiB for the Riemann integral
def test_wavelet_lift_memory(fbm_j16):
    wavelets.daubechies_basis(4)
    assert traced_peak(lambda: wavelet_lift(fbm_j16.path, ALPHA)) <= 16 * MIB


def test_wavelet_rough_integral_memory(fbm_j16):
    wavelets.daubechies_basis(4)
    cp = _controlled(fbm_j16)
    assert traced_peak(lambda: wavelet_rough_integral(cp, _fresh(fbm_j16))) <= 16 * MIB


def test_basis_build_memory_is_its_tables():
    # phi and its cumulative table hold 1.75 MiB at db4, level 14, and the
    # cascade peaks at 2.2 MiB (3.5 MiB while psi and its cumulative table were
    # built too); the uncached builder is called so the shared basis cache stays intact
    def build():
        return wavelets._daubechies_basis.__wrapped__(4).father_center_of_mass

    assert traced_peak(build) <= 3.6 * MIB


def test_scalar_psi_reads_make_no_table():
    # psi and its primitive at a point are read from phi's tables at the point;
    # 1,345 KiB were traced while whole psi tables were made for these reads
    basis = wavelets.daubechies_basis(4)
    basis.evaluate("mother", 0.3)

    def read():
        basis.evaluate("mother", 0.3)
        basis.integral("mother", [0.1, 0.7])

    assert traced_peak(read) <= 64 * 1024


def test_basis_keeps_the_phi_tables_only():
    # phi and its cumulative table, 2 tables of (taps - 1) * 2**14 + 1 = 114,689
    # floats at db4, level 14 (1.75 MiB), and 4 KiB for the objects around
    # them, also after psi and its primitive were read: both are read from
    # phi's tables at the point, and no table of them is made
    xi = wavelets.StieltjesMeasure(generate_path("fbm", make_dyadic_grid(1.0, 13), seed=5))
    t = np.linspace(-4.0, 4.0, 1001)

    def read_psi(basis):
        antiderivative_from_distribution(xi, basis)
        basis.evaluate("mother", t)
        basis.integral("mother", t)

    read_psi(wavelets.daubechies_basis(4))  # fills the interpreter's tuple free lists untraced
    tracemalloc.start()
    try:
        basis = wavelets._daubechies_basis.__wrapped__(4)
        kept = [tracemalloc.get_traced_memory()[0]]
        read_psi(basis)
        kept.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert basis._phi.size == 114_689 and max(kept) <= 2 * 114_689 * 8 + 4096, kept
