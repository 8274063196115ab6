"""Representation spaces, symplectic structure, actions, samplers."""

import numpy as np
import pytest

from mckaydeform.poly import MPoly
from mckaydeform.quiver import (McKayQuiver, SymbolicRep,
                                check_action_admissible, fibre_residual,
                                invariants_at_point, lambda_from_central,
                                moment_map, numeric_moment_map,
                                random_numeric_rep, reference_action,
                                sample_moment_fibre, symbolic_action_order,
                                symplectic_form,
                                verify_moment_equivariance_numeric,
                                verify_symplectic_action)
from mckaydeform.rootdata import DynkinType

A3 = DynkinType("A", 3)
A5 = DynkinType("A", 5)
D4 = DynkinType("D", 4)
E6 = DynkinType("E", 6)


def test_quiver_shapes():
    q = McKayQuiver(A3)
    assert q.vertex_count() == 4 and len(q.arrows) == 8
    assert q.dims == (1, 1, 1, 1)
    qd = McKayQuiver(D4)
    assert qd.dims == (1, 1, 2, 1, 1)
    assert qd.shape("pa0") == (2, 1) and qd.shape("pb0") == (1, 2)
    qe = McKayQuiver(E6)
    assert qe.dims == (1, 1, 1, 2, 2, 2, 3)
    assert qe.shape("pa3") == (3, 2)
    q7 = McKayQuiver(DynkinType("E", 7))
    assert sum(d * d for d in q7.dims) == 48  # sum of squares of delta


def test_positive_arrows_point_toward_the_larger_dimension():
    # one rule orients every D and E edge; these are the arrows, names and
    # order the D4 and E6 actions and samplers were written against
    d4 = [(a.name, a.src, a.tgt) for a in McKayQuiver(D4)
          .positive_arrows()]
    assert d4 == [("pa0", 0, 2), ("pa1", 1, 2), ("pa3", 3, 2),
                  ("pa4", 4, 2)]
    e6 = [(a.name, a.src, a.tgt) for a in McKayQuiver(E6)
          .positive_arrows()]
    assert e6 == [("pa0", 0, 3), ("pa3", 3, 6), ("pa1", 1, 4),
                  ("pa4", 4, 6), ("pa2", 2, 5), ("pa5", 5, 6)]


def test_symplectic_antisymmetry_bilinearity():
    for t in (A3, D4):
        q = McKayQuiver(t)
        phi = SymbolicRep(q, "f_")
        psi = SymbolicRep(q, "g_")
        form = symplectic_form(q, phi.matrices, psi.matrices)
        swap = symplectic_form(q, psi.matrices, phi.matrices)
        assert (form + swap).is_zero()
        assert symplectic_form(q, phi.matrices, phi.matrices).is_zero()
        assert form  # non-degenerate pairing is not the zero polynomial


def test_symplectic_bilinearity():
    q = McKayQuiver(A3)
    phi = SymbolicRep(q, "f_")
    phi2 = SymbolicRep(q, "h_")
    psi = SymbolicRep(q, "g_")
    merged = {}
    for a in q.arrows:
        m1 = phi.matrices[a.name]
        m2 = phi2.matrices[a.name]
        merged[a.name] = tuple(
            tuple(x.extend(_union(phi, phi2)) + y.extend(_union(phi, phi2))
                  for x, y in zip(r1, r2)) for r1, r2 in zip(m1, m2))
    total = symplectic_form(q, merged, psi.matrices)
    p1 = symplectic_form(q, phi.matrices, psi.matrices)
    p2 = symplectic_form(q, phi2.matrices, psi.matrices)
    parts = p1.extend(total.vars) + p2.extend(total.vars)
    assert total == parts


def _union(a, b):
    from mckaydeform.poly import VarTable
    return VarTable(tuple(sorted(set(a.vars.names) | set(b.vars.names))))


def test_symplectic_single_arrow_term():
    q = McKayQuiver(A3)
    phi = SymbolicRep(q, "f_")
    psi = SymbolicRep(q, "g_")
    form = symplectic_form(q, phi.matrices, psi.matrices)
    # the a0 phi / b0 psi coefficient survives with sign eps(a0) = +1
    names = form.vars.names
    target = tuple(1 if n in ("f_a0", "g_b0") else 0 for n in names)
    assert form.terms.get(target) == 1


def test_moment_map_center_vertex_d4():
    q = McKayQuiver(D4)
    phi = SymbolicRep(q)
    mm = moment_map(q, phi.matrices)
    expect = None
    for i in (0, 1, 3, 4):
        prod = None
        a = phi.matrices[f"pa{i}"]
        b = phi.matrices[f"pb{i}"]
        term = tuple(tuple(a[r][0] * b[0][c] for c in range(2))
                     for r in range(2))
        expect = term if expect is None else tuple(
            tuple(expect[r][c] + term[r][c] for c in range(2))
            for r in range(2))
    assert all((mm[2][r][c] - expect[r][c]).is_zero()
               for r in range(2) for c in range(2))


def test_moment_trace_vanishes():
    # each arrow pair enters with opposite signs at its two ends
    for t in (A3, D4, E6):
        q = McKayQuiver(t)
        phi = SymbolicRep(q)
        total = MPoly(phi.vars)
        for mat in moment_map(q, phi.matrices).values():
            for i in range(len(mat)):
                total = total + mat[i][i]
        assert total.is_zero()


@pytest.mark.parametrize("t", (A3, D4, E6))
def test_numeric_moment_map_matches_the_exact_one(t):
    q = McKayQuiver(t)
    phi = SymbolicRep(q)
    exact = moment_map(q, phi.matrices)
    for seed in (0, 1):
        rep = random_numeric_rep(q, seed)
        point = {}
        for a in q.arrows:
            rows, cols = q.shape(a.name)
            for i in range(rows):
                for j in range(cols):
                    name = a.name if rows == cols == 1 else \
                        f"{a.name}_{i + 1}{j + 1}"
                    point[name] = rep[a.name][i, j]
        numeric = numeric_moment_map(q, rep)
        for v, mat in exact.items():
            d = len(mat)
            assert numeric[v].shape == (d, d)
            for i in range(d):
                for j in range(d):
                    assert abs(mat[i][j].evaluate_numeric(point)
                               - numeric[v][i, j]) < 1e-12


def test_zero_rep_moment_is_zero():
    q = McKayQuiver(A3)
    phi = SymbolicRep(q)
    zero = {a.name: tuple(tuple(MPoly(phi.vars) for _ in row)
                          for row in phi.matrices[a.name])
            for a in q.arrows}
    mm = moment_map(q, zero)
    assert all(entry.is_zero() for mat in mm.values()
               for row in mat for entry in row)


def test_reference_actions_admissible():
    for t, gen in ((A3, "sigma"), (A5, "sigma"), (D4, "sigma"),
                   (D4, "rho"), (E6, "sigma")):
        act = reference_action(t, gen)
        rep = check_action_admissible(act)
        assert rep["ok"], rep
        want = "reverses" if t.family == "A" else "preserves"
        assert act.orientation_behavior() == want
        assert symbolic_action_order(act) == (3 if gen == "rho" else 2)


def test_all_ones_a_action_fails():
    act = reference_action(A3, "sigma")
    # overwrite every scalar with +1: lambda_i delta_i = +1 != -1
    act.arrow_map = {k: (src, abs(sc)) for k, (src, sc)
                     in act.arrow_map.items()}
    rep = check_action_admissible(act)
    rows = {r["condition"]: r["ok"] for r in rep["rows"]}
    assert not rows["lambda_i*delta_i == -1"]
    assert not rep["ok"]


def test_symplectic_action_identities():
    for t, gen in ((A3, "sigma"), (D4, "sigma"), (D4, "rho"),
                   (E6, "sigma")):
        assert verify_symplectic_action(reference_action(t, gen))


def test_symplectic_action_sign_perturbation_fails():
    assert not verify_symplectic_action(
        reference_action(A3, "sigma", flip="a0"))
    assert not verify_symplectic_action(
        reference_action(D4, "sigma", flip="pb3"))


def test_s3_relation_on_symbols():
    q = McKayQuiver(D4)
    s = reference_action(D4, "sigma")
    r = reference_action(D4, "rho")
    m0 = SymbolicRep(q).matrices
    srs = s.apply_symbolic(r.apply_symbolic(s.apply_symbolic(m0)))
    rr = r.apply_symbolic(r.apply_symbolic(m0))
    assert all(srs[a.name] == rr[a.name] for a in q.arrows)


def test_moment_equivariance_numeric():
    for t, gen in ((A3, "sigma"), (A5, "sigma"), (D4, "sigma"),
                   (D4, "rho")):
        rep = verify_moment_equivariance_numeric(
            reference_action(t, gen), seed=5, trials=40)
        assert rep["ok"], rep
    identity = reference_action(D4, "sigma")
    identity.arrow_map = {}
    identity.vertex_perm = tuple(range(5))
    rep = verify_moment_equivariance_numeric(identity, seed=5, trials=5)
    assert rep["max_residual"] == 0.0


def test_sample_fibre_a3():
    rng = np.random.default_rng(1)
    z = rng.normal(size=4) + 1j * rng.normal(size=4)
    z[0] = -z[1:].sum()
    s = sample_moment_fibre(A3, z, seed=7)
    assert fibre_residual(s) < 1e-10
    x, y, zc = invariants_at_point(A3, s)
    lam = lambda_from_central(z)
    val = np.prod([zc - l for l in lam]) - x * y
    assert abs(val) / max(abs(x * y), 1) < 1e-8


def test_sample_zero_fibre_constant_c():
    s = sample_moment_fibre(A3, [0, 0, 0, 0], seed=3)
    rep = s["rep"]
    cs = [complex(rep[f"a{i}"][0, 0] * rep[f"b{i}"][0, 0])
          for i in range(4)]
    assert max(abs(c - cs[0]) for c in cs) < 1e-12
    x, y, zc = invariants_at_point(A3, s)
    assert abs(zc - cs[0]) < 1e-12


def test_sample_fibre_d4_and_trace_identities():
    mu = (1, 1, -2, 1, 1)
    s = sample_moment_fibre(D4, mu, seed=42)
    assert fibre_residual(s) < 1e-10
    rep = s["rep"]
    m = {i: rep[f"pa{i}"] @ rep[f"pb{i}"] for i in (0, 1, 3, 4)}

    def tr(*idx):
        return complex(np.trace(np.linalg.multi_dot([m[i] for i in idx])))
    mu0, mu1, mu2, mu3, mu4 = (complex(v) for v in mu)
    lhs = tr(0, 1) + tr(0, 3) + tr(0, 4)
    assert abs(lhs + mu0 * (mu0 + mu2)) < 1e-9
    assert abs(tr(0, 3, 0) + mu0 * tr(0, 3)) < 1e-9
    assert abs(tr(3, 4, 3) + mu3 * tr(3, 4)) < 1e-9


def test_sampler_determinism():
    mu = (1, 1, -2, 1, 1)
    s1 = sample_moment_fibre(D4, mu, seed=7)
    s2 = sample_moment_fibre(D4, mu, seed=7)
    for name in s1["rep"]:
        assert np.array_equal(s1["rep"][name], s2["rep"][name])


def test_sampler_rejects_bad_central_value():
    with pytest.raises(ValueError):
        sample_moment_fibre(A3, [1, 0, 0, 0], seed=0)


def test_random_rep_annulus_bounds():
    q = McKayQuiver(D4)
    rep = random_numeric_rep(q, seed=0)
    mods = np.concatenate([np.abs(m).ravel() for m in rep.values()])
    assert mods.min() >= 0.5 - 1e-12 and mods.max() <= 2.0 + 1e-12
