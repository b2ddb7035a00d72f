from __future__ import annotations

import numpy as np
import pytest

from roughstruct import daubechies_basis, generate_path, lift_piecewise_smooth, make_dyadic_grid
from roughstruct import reconstruction


@pytest.fixture(scope="session")
def basis():
    return daubechies_basis(4)


@pytest.fixture(scope="session")
def basis_db3():
    return daubechies_basis(3)


@pytest.fixture(scope="session")
def sincos_rough_path():
    """Canonical smooth 2-D rough path on [0, 1] at grid level 10."""
    grid = make_dyadic_grid(1.0, 10)
    w = generate_path("sin_cos", grid, dim=2)
    return lift_piecewise_smooth(w, "sin_cos", alpha=0.45)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def reconstruct_calls(monkeypatch):
    """Counts reconstructions made by the library, as applications of a
    ``reconstruction.ReconstructionPlan`` (``reconstruct`` is one plan applied
    once): the list receives each application's modelled distribution."""
    calls = []
    original = reconstruction.ReconstructionPlan.apply

    def counted(plan, f):
        calls.append(f)
        return original(plan, f)

    monkeypatch.setattr(reconstruction.ReconstructionPlan, "apply", counted)
    return calls
