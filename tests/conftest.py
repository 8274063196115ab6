"""Fixtures shared by the test modules."""

import pytest

from mckaydeform.poly import MPoly, VarTable
from mckaydeform.rootdata import cartan_matrix


def _coweight_reflection_subs(t, j, names):
    """r_{alpha_j^vee} on coweight coordinates, mu_i -> mu_i - C_ij mu_j,
    as a substitution on ``names``."""
    C = cartan_matrix(t)
    V = VarTable(names)
    x = [MPoly.variable(V, v) for v in names]
    return {v: x[i] - C[i][j - 1] * x[j - 1] for i, v in enumerate(names)}


@pytest.fixture
def coweight_subs():
    """The substitution of a simple coweight reflection, built from the
    Cartan matrix: ``coweight_subs(t, j, names)``."""
    return _coweight_reflection_subs
