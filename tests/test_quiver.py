"""Representation spaces, symplectic structure, actions, samplers."""

import random
from math import prod

import pytest

from mckaydeform.cli import _d4_family_residual
from mckaydeform.exact import QQ, mat_mul, trace
from mckaydeform.poly import MPoly
from mckaydeform.quiver import (McKayQuiver, SymbolicRep,
                                check_action_admissible, fibre_residual,
                                invariants_at_point, lambda_from_central,
                                moment_map, reference_action,
                                sample_moment_fibre, symbolic_action_order,
                                symplectic_form,
                                verify_moment_equivariance_numeric,
                                verify_symplectic_action)
from mckaydeform.rootdata import (DynkinType, UnsupportedType, extended_edges,
                                  mckay_dimension_vector, parse_type)

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
    target = tuple(1 if n in ("f_a0_11", "g_b0_11") else 0 for n in names)
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
def test_moment_map_at_an_exact_point_is_the_symbolic_map_evaluated_there(t):
    # one moment map serves symbols and points: at a rational point it
    # equals the symbolic map with every symbol bound to that point
    q = McKayQuiver(t)
    phi = SymbolicRep(q)
    symbolic = moment_map(q, phi.matrices)
    rng = random.Random(0)
    point = {name: QQ(rng.randint(-9, 9), rng.randint(1, 5))
             for name in phi.vars.names}

    def at(mat):
        return [[x.substitute(point).terms.get((), 0) for x in row]
                for row in mat]
    at_point = moment_map(q, {a: at(m) for a, m in phi.matrices.items()})
    assert list(at_point) == list(symbolic)
    for v, mat in symbolic.items():
        assert at(mat) == at_point[v]
        assert all(type(x) is QQ for row in at_point[v] for x in row)


def test_zero_rep_moment_is_zero():
    q = McKayQuiver(A3)
    phi = SymbolicRep(q)
    zero = {a.name: tuple(tuple(MPoly(phi.vars) for _ in row)
                          for row in phi.matrices[a.name])
            for a in q.arrows}
    mm = moment_map(q, zero)
    assert all(not entry for mat in mm.values()
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


@pytest.mark.parametrize("tname, gen", (
    ("A1", "sigma"), ("A3", "sigma"), ("A5", "sigma"), ("A7", "sigma"),
    ("D4", "sigma"), ("D4", "rho"), ("D5", "sigma"), ("D6", "sigma"),
    ("E6", "sigma")))
def test_reference_action_is_a_symmetry_of_the_extended_diagram(tname, gen):
    # the vertex permutation is the Dynkin generator with 0 fixed: it maps
    # the extended edges onto themselves and keeps the dimension vector
    t = parse_type(tname)
    act = reference_action(t, gen)
    pi = act.vertex_perm
    assert pi[0] == 0 and sorted(pi) == list(range(t.rank + 1))
    edges = sorted(tuple(sorted(e)) for e in extended_edges(t))
    assert sorted(tuple(sorted((pi[i], pi[j]))) for i, j in edges) == edges
    d = mckay_dimension_vector(t)
    assert all(d[pi[v]] == d[v] for v in range(len(d)))


@pytest.mark.parametrize("tname, gen", (
    ("A4", "sigma"), ("A3", "rho"), ("D5", "rho"), ("E7", "sigma"),
    ("D4", "tau")))
def test_reference_action_refusals(tname, gen):
    with pytest.raises(UnsupportedType):
        reference_action(parse_type(tname), gen)


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
                   (D4, "rho"), (E6, "sigma")):
        rep = verify_moment_equivariance_numeric(
            reference_action(t, gen), seed=5, trials=40)
        assert rep["ok"] and rep["max_residual"] == 0, rep
    identity = reference_action(D4, "sigma")
    identity.arrow_map = {}
    identity.vertex_perm = tuple(range(5))
    rep = verify_moment_equivariance_numeric(identity, seed=5, trials=5)
    assert rep["max_residual"] == 0


@pytest.mark.parametrize("t, gen, slot", (
    (A3, "sigma", "a0"), (D4, "sigma", "pb3"), (A5, "sigma", "b2"),
    (D4, "rho", "pa1"), (E6, "sigma", "pb4"),
    (DynkinType("D", 5), "sigma", "pa4")))
def test_flipped_scalar_fails_moment_equivariance(t, gen, slot):
    # the identity is exact, so one negated slot scalar must break it
    rep = verify_moment_equivariance_numeric(
        reference_action(t, gen, flip=slot))
    assert not rep["ok"] and rep["max_residual"] > 0


def test_equivariance_verdict_ignores_seed_and_trials():
    act = reference_action(D4, "rho")
    assert verify_moment_equivariance_numeric(act, seed=0, trials=1) == \
        verify_moment_equivariance_numeric(act, seed=9, trials=100)


def test_sample_fibre_a3():
    rng = random.Random(1)
    z = [QQ(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(4)]
    z[0] = -sum(z[1:])
    s = sample_moment_fibre(A3, z, seed=7)
    assert fibre_residual(s) == 0
    x, y, zc = invariants_at_point(A3, s)
    lam = lambda_from_central(z)
    assert prod(zc - v for v in lam) == x * y


def test_sample_zero_fibre_constant_c():
    s = sample_moment_fibre(A3, [0, 0, 0, 0], seed=3)
    rep = s["rep"]
    cs = [rep[f"a{i}"][0][0] * rep[f"b{i}"][0][0] for i in range(4)]
    assert len(set(cs)) == 1
    x, y, zc = invariants_at_point(A3, s)
    assert zc == cs[0]


def test_sample_fibre_d4_and_trace_identities():
    mu = (1, 1, -2, 1, 1)
    s = sample_moment_fibre(D4, mu, seed=42)
    assert fibre_residual(s) == 0
    rep = s["rep"]
    m = {i: mat_mul(rep[f"pa{i}"], rep[f"pb{i}"]) for i in (0, 1, 3, 4)}

    def tr(*idx):
        out = m[idx[0]]
        for i in idx[1:]:
            out = mat_mul(out, m[i])
        return trace(out)
    mu0, mu1, mu2, mu3, mu4 = mu
    assert tr(0, 1) + tr(0, 3) + tr(0, 4) + mu0 * (mu0 + mu2) == 0
    assert tr(0, 3, 0) + mu0 * tr(0, 3) == 0
    assert tr(3, 4, 3) + mu3 * tr(3, 4) == 0
    assert _d4_family_residual(mu, *invariants_at_point(D4, s)) == 0


def test_sampled_points_are_exact_rationals():
    for t, mu in ((A5, ["1/2", "-1/4", "3/4", -1, 0.25, "-1/4"]),
                  (D4, (1, 1, -2, 1, 1))):
        s = sample_moment_fibre(t, mu, seed=11)
        assert all(type(x) is QQ for mat in s["rep"].values()
                   for row in mat for x in row)


def test_sampler_determinism():
    mu = (1, 1, -2, 1, 1)
    s1 = sample_moment_fibre(D4, mu, seed=7)
    s2 = sample_moment_fibre(D4, mu, seed=7)
    assert s1["rep"] == s2["rep"]
    assert s1["rep"] != sample_moment_fibre(D4, mu, seed=8)["rep"]


def test_sampler_rejects_bad_central_value():
    with pytest.raises(ValueError):
        sample_moment_fibre(A3, [1, 0, 0, 0], seed=0)


def test_complex_central_value_is_refused():
    with pytest.raises(ValueError, match="real"):
        sample_moment_fibre(A3, [1j, -1j, 0, 0], seed=0)
    with pytest.raises(ValueError, match="real"):
        lambda_from_central([1 + 0j, -1, 0, 0])


def test_float_central_value_is_taken_at_its_binary_value():
    # 0.1 is not 1/10 in binary, so the sum condition fails exactly
    with pytest.raises(ValueError, match="sum"):
        sample_moment_fibre(A3, [-0.3, 0.1, 0.1, 0.1], seed=0)
    s = sample_moment_fibre(A3, [-0.75, 0.25, 0.25, 0.25], seed=0)
    assert s["central"] == [QQ(-3, 4)] + [QQ(1, 4)] * 3


@pytest.mark.parametrize("t, mu", ((A3, (3, -1, -1, -1)),
                                   (A5, (1, 2, -3, 1, -2, 1)),
                                   (D4, (1, 1, -2, 1, 1))))
def test_bumped_entry_fails_the_fibre(t, mu):
    s = sample_moment_fibre(t, mu, seed=4)
    assert fibre_residual(s) == 0
    name = sorted(s["rep"])[1]
    bumped = [list(row) for row in s["rep"][name]]
    bumped[0][0] += 1
    s["rep"] = {**s["rep"], name: bumped}
    assert fibre_residual(s) > 0


def test_d4_point_against_another_central_value_fails_the_family():
    s = sample_moment_fibre(D4, (1, 1, -2, 1, 1), seed=5)
    point = invariants_at_point(D4, s)
    assert _d4_family_residual((1, 1, -2, 1, 1), *point) == 0
    assert _d4_family_residual((2, 0, -2, 1, 1), *point) > 0


# Points drawn before the sampler moved onto int numerators: type, central
# value, then per seed 0-4 the entries of every arrow matrix, arrows in
# name order, rows in order.
PINNED_POINTS = (
    ("A3", [1.5, -0.5, 0.25, -1.25], (
        "1 -3 -1 2 1 -1/2 -5/4 5/4",
        "2 -3 -1 -3 -1 1/2 7/4 1/6",
        "-3 -3 -1 -2 1 5/6 11/4 3/4",
        "2 2 -2 -1 -1 -3/4 7/8 1/2",
        "-1 -3 3 1 2 1/2 -7/12 -1/2")),
    ("A5", [0.5, -0.25, 0.75, -1.0, 0.25, -0.25], (
        "1 -3 -1 2 1 1 1 -5/12 -1/2 3/4 5/4 3/2",
        "2 -3 -1 -3 1 1 -1 7/12 5/2 1/2 -7/4 -3/2",
        "-3 -3 -1 -2 3 3 1 11/12 7/2 5/4 -11/12 -5/6",
        "2 2 -2 -1 2 1 -1 -7/8 5/4 3/2 -7/8 -3/2",
        "-1 -3 3 1 1 -2 2 7/12 -5/6 -3/2 -7/4 3/4")),
    ("D4", [1, 1, -2, 1, 1], (
        "1 1 -3 -1 2 1 1 -1 17/2 -19/2 -7/2 23/2 -11 21 1 2",
        "-2 2 -3 -1 -3 1 1 1 -3/2 -2 4/3 -3 4/3 3 3 -4",
        "-3 -3 -3 -1 -2 3 3 -1 -29/30 13/10 27/22 -59/22 -49/55 -51/55 -1 -2",
        "-2 2 2 -2 -1 2 1 3 27/8 23/8 2 5/2 -1 -1 -1/4 -1/4",
        "-2 -1 -3 3 1 1 -2 -3 -7/9 23/9 -1/27 -10/27 -29/3 26/3 -3 7/3")),
    ("D4", ["1/3", "2/5", "-1", "1/2", "23/30"], (
        "1 1 -3 -1 2 1 1 -1 457/60 -159/20 -217/60 45/4 -307/30 599/30 "
        "1 53/30",
        "-2 2 -3 -1 -3 1 1 1 -179/120 -199/120 211/180 -187/60 52/45 89/30 "
        "3 -113/30",
        "-3 -3 -3 -1 -2 3 3 -1 -317/300 1051/900 237/220 -623/220 -567/550 "
        "-1409/1650 -1 -67/30",
        "-2 2 2 -2 -1 2 1 3 581/240 541/240 2 11/5 -11/150 -43/150 -139/600 "
        "-107/600",
        "-2 -1 -3 3 1 1 -2 -3 -67/54 76/27 -41/324 -421/1620 -355/36 337/36 "
        "-3 203/90")),
)


@pytest.mark.parametrize("tname, mu, points", PINNED_POINTS)
def test_sampled_points_are_the_pinned_ones(tname, mu, points):
    t = parse_type(tname)
    for seed, want in enumerate(points):
        rep = sample_moment_fibre(t, mu, seed)["rep"]
        assert [x for a in sorted(rep) for row in rep[a] for x in row] \
            == [QQ(w) for w in want.split()]


def test_non_dyadic_d4_points_lie_on_the_fibre_and_the_family():
    mu = ["1/3", "2/5", "-1", "1/2", "23/30"]
    for seed in range(5):
        s = sample_moment_fibre(D4, mu, seed)
        assert fibre_residual(s) == 0
        assert _d4_family_residual(mu, *invariants_at_point(D4, s)) == 0


@pytest.mark.parametrize("t, mu, seed, name, step, want", (
    (D4, ["1/3", "2/5", "-1", "1/2", "23/30"], 2, "pb0", (0, 1, QQ(1, 7)),
     QQ(3, 7)),
    (A5, [0.5, -0.25, 0.75, -1.0, 0.25, -0.25], 1, "a2", (0, 0, QQ(2, 9)),
     QQ(5, 9))))
def test_bumped_residual_over_mixed_denominators_is_exact(t, mu, seed, name,
                                                          step, want):
    # the entries' denominators (up to 1650 on D4) and the bump's 7 or 9
    # share no common one: the residual is still the exact largest entry
    s = sample_moment_fibre(t, mu, seed)
    i, j, delta = step
    bumped = [list(row) for row in s["rep"][name]]
    bumped[i][j] += delta
    s["rep"] = {**s["rep"], name: bumped}
    got = fibre_residual(s)
    assert got == want and type(got) is QQ


def test_quiver_is_built_once_per_type_and_patches_see_their_own(
        monkeypatch):
    import mckaydeform.quiver as quiver
    built = []

    class Counted(McKayQuiver):
        def __init__(self, t):
            built.append(t)
            super().__init__(t)
    monkeypatch.setattr(quiver, "McKayQuiver", Counted)
    first = sample_moment_fibre(D4, (1, 1, -2, 1, 1), seed=0)
    second = sample_moment_fibre(D4, (1, 1, -2, 1, 1), seed=1)
    assert built == [D4] and type(first["quiver"]) is Counted
    assert second["quiver"] is first["quiver"]


def test_lambda_from_central_returns_a_fresh_list():
    central = [1.5, -0.5, 0.25, -1.25]
    lam = lambda_from_central(central)
    want = list(lam)
    lam[0] = QQ(99)
    lam.append(QQ(1))
    assert lambda_from_central(central) == want
    assert lambda_from_central([QQ(3, 2), "-1/2", "1/4", -1.25]) == want
