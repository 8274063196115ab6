"""Fixtures shared by the test modules."""

import pytest

from mckaydeform import deform, flat, quiver, quotient
from mckaydeform.poly import MPoly, VarTable
from mckaydeform.rootdata import cartan_matrix


@pytest.fixture(autouse=True)
def fresh_family_caches():
    """Each test builds its families, quivers, exact central values,
    eigenvalue parameters and the E6 Frame checks' (x, y) coordinates anew:
    a test that patches a builder (``family_D4``, ``McKayQuiver``, say) or
    changes a family sees only its own build."""
    deform._family.cache_clear()
    quotient._quotient_family.cache_clear()
    quiver._quiver.cache_clear()
    quiver._lambda_from_central.cache_clear()
    quiver._exact_central.cache_clear()
    flat._pq_route.cache_clear()


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
