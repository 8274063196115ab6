"""Root systems, foldings, automorphisms, reflections."""

import pytest

from mckaydeform.exact import QQ, embed_complex
from mckaydeform.rootdata import (ClosureBudgetExceeded,
                                  DiagramAutomorphism, DynkinType,
                                  InvalidAutomorphism, UnsupportedType,
                                  build_root_system, cartan_matrix,
                                  dynkin_edges, extended_edges,
                                  fold, mckay_dimension_vector, omega_average,
                                  omega_generators, orbit, parse_type,
                                  standard_omega, vanishing_roots)

A5 = DynkinType("A", 5)
D4 = DynkinType("D", 4)
E6 = DynkinType("E", 6)


def test_orbit_is_breadth_first_once_per_key():
    # x -> 2x, x + 3 modulo 10 from 1; keyed by parity, each key keeps
    # the first element that reached it
    def step(x):
        return (2 * x) % 10, (x + 3) % 10

    assert orbit([1], step) == [1, 2, 4, 5, 8, 7, 0, 6, 3, 9]
    assert orbit([1, 1, 2], step)[:2] == [1, 2]
    assert orbit([1], step, key=lambda x: x % 2) == [1, 2]
    assert orbit([1], step, cap=10) == orbit([1], step)
    with pytest.raises(ClosureBudgetExceeded):
        orbit([1], step, cap=9)


def test_type_validation():
    with pytest.raises(UnsupportedType):
        DynkinType("D", 3)
    with pytest.raises(UnsupportedType):
        DynkinType("C", 2)
    with pytest.raises(UnsupportedType):
        DynkinType("E", 9)
    assert str(parse_type("a5")) == "A5"


def test_positive_root_counts():
    assert len(build_root_system(A5).positive_roots) == 15
    assert len(build_root_system(D4).positive_roots) == 12
    assert len(build_root_system(E6).positive_roots) == 36


def _unit(n, *signed):
    v = [QQ(0)] * n
    for i, c in signed:
        v[i] = QQ(c)
    return tuple(v)


def test_closure_gives_the_classical_positive_roots():
    # A_r: e_i - e_j (i < j) in r + 1 coordinates; D_r: e_i -+ e_j (i < j)
    for r in range(1, 8):
        rs = build_root_system(DynkinType("A", r))
        want = {_unit(r + 1, (i, 1), (j, -1))
                for i in range(r + 1) for j in range(i + 1, r + 1)}
        assert len(rs.positive_roots) == len(want)
        assert set(rs.positive_roots) == want, r
    for r in range(4, 8):
        rs = build_root_system(DynkinType("D", r))
        want = {_unit(r, (i, 1), (j, s)) for i in range(r)
                for j in range(i + 1, r) for s in (1, -1)}
        assert len(rs.positive_roots) == len(want)
        assert set(rs.positive_roots) == want, r


def test_e6_positive_roots_have_norm_two_and_integer_coefficients():
    rs = build_root_system(E6)
    assert len(rs.positive_coeffs) == len(set(rs.positive_coeffs)) == 36
    for b, alpha in zip(rs.positive_coeffs, rs.positive_roots):
        assert all(type(c) is int and c >= 0 for c in b)
        assert sum((x * x for x in alpha), QQ(0)) == 2
    assert max(rs.positive_coeffs, key=sum) == (1, 1, 2, 2, 2, 3)


def test_coxeter_element_order_is_one_plus_the_highest_height():
    from mckaydeform.rootdata import _positive_coeffs, coxeter_number
    types = [DynkinType("A", r) for r in range(1, 8)] + \
        [DynkinType("D", r) for r in range(4, 8)] + [E6]
    for t in types:
        heights = [sum(b) for b in build_root_system(t).positive_coeffs]
        assert coxeter_number(t) == 1 + max(heights), t
    # E7 and E8 have no embedding here; their Cartan matrices close alike
    for rank, h, count in ((7, 18, 63), (8, 30, 120)):
        t = DynkinType("E", rank)
        roots = _positive_coeffs(cartan_matrix(t))
        assert len(roots) == count and 2 * count == rank * h
        assert coxeter_number(t) == h == 1 + max(map(sum, roots))


def test_an_embedding_without_the_cartan_gram_matrix_is_refused():
    from mckaydeform.rootdata import DimensionMismatch, RootSystem
    simples = build_root_system(D4).simple_roots
    with pytest.raises(DimensionMismatch, match="Gram matrix"):
        RootSystem(D4, 4, simples[:3] + [_unit(4, (2, 1), (3, -1))])


def test_h_outside_the_root_span_is_refused():
    from mckaydeform.rootdata import omega_action_on_cartan
    rs = build_root_system(A5)
    swap = standard_omega(A5, "z2")[1]
    # alpha_i -> alpha_(6-i) is v -> -(v reversed) on the trace-zero plane
    inside = tuple(QQ(v) for v in (1, 2, -3, 5, 0, -5))
    assert omega_action_on_cartan(rs, swap, inside) == tuple(
        -x for x in reversed(inside))
    with pytest.raises(ValueError, match="outside the span"):
        omega_action_on_cartan(rs, swap, (QQ(1),) * 6)


def test_a5_ambient_is_trace_zero_hyperplane():
    rs = build_root_system(A5)
    assert rs.ambient_dim == 6
    for alpha in rs.simple_roots:
        assert sum(alpha) == 0


def test_e6_simple_roots_are_scaled_frame_normals():
    rs = build_root_system(E6)
    for alpha in rs.simple_roots:
        norm = sum(abs(embed_complex(c)) ** 2 for c in alpha)
        assert abs(norm - 2) < 1e-12
    assert rs.cartan == cartan_matrix(E6)


def _frame_normals_table():
    """The 36 normals written out as one table, cos and sin of 2 pi k / 3."""
    import itertools
    from mckaydeform.exact import Cyclo, sqrt3
    one, zero = Cyclo.from_rat(1, 24), Cyclo.from_rat(0, 24)
    half = Cyclo.from_rat(QQ(1, 2), 24)
    r3 = sqrt3().lift(24)
    cos = {1: -half, 2: -half, 3: one}
    sin = {1: r3 * half, 2: -(r3 * half), 3: zero}
    table = {}
    for k in (1, 2, 3):
        table[k, 0, 0] = (-sin[k], cos[k], zero, zero, zero, zero)
        table[0, k, 0] = (zero, zero, -sin[k], cos[k], zero, zero)
        table[0, 0, k] = (zero, zero, zero, zero, -sin[k], cos[k])
    for k, l, m in itertools.product((1, 2, 3), repeat=3):
        table[k, l, m] = tuple(r3 / 3 * c for c in (
            cos[k], sin[k], cos[l], sin[l], cos[m], sin[m]))
    return table


def test_each_frame_normal_is_built_alone():
    from mckaydeform.rootdata import _FRAME_KEYS, _frame_normal
    table = _frame_normals_table()
    assert list(_FRAME_KEYS) == list(table)
    for key, normal in table.items():
        assert _frame_normal(key) == normal
    with pytest.raises(KeyError):
        _frame_normal((0, 0, 0))
    with pytest.raises(KeyError):
        _frame_normal((1, 2, 0))


def test_frame_reflection_subs_builds_one_normal(monkeypatch):
    # the whole table costs about 170 Cyclo products; one reflection
    # needs its own normal and the products of its nonzero entries
    from mckaydeform.exact import Cyclo
    from mckaydeform.flat import FRAME_GENERATOR_KEYS, frame_reflection_subs
    calls = [0]
    mul = Cyclo.__mul__

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(Cyclo, "__mul__", counted)
    monkeypatch.setattr(Cyclo, "__rmul__", counted)
    for key in FRAME_GENERATOR_KEYS:
        calls[0] = 0
        frame_reflection_subs(key)
        assert calls[0] <= 16, key


def test_folding_table():
    cases = [("A3", "z2", "B2"), ("A5", "z2", "B3"), ("A7", "z2", "B4"),
             ("A4", "z2", "B2"), ("A6", "z2", "C3"), ("A8", "z2", "C4"),
             ("D4", "z2", "C3"), ("D5", "z2", "C4"), ("D6", "z2", "C5"),
             ("E6", "z2", "F4"), ("D4", "s3", "G2"), ("D4", "z3", "G2")]
    for tname, om, want in cases:
        t = parse_type(tname)
        assert str(fold(t, standard_omega(t, om))) == want, tname


def test_fold_trivial_is_identity():
    for tname in ("A5", "D4", "E6"):
        t = parse_type(tname)
        assert fold(t, standard_omega(t, "trivial")) == t


def test_fold_rejects_bad_permutation():
    with pytest.raises(InvalidAutomorphism):
        fold(A5, [DiagramAutomorphism((2, 1, 3, 4, 5))])


def _reflect(a, v):
    """s_a(v) = v - 2 (v.a)/(a.a) a."""
    c = 2 * sum((x * y for x, y in zip(v, a)), QQ(0)) / sum(
        (x * x for x in a), QQ(0))
    return tuple(x - c * y for x, y in zip(v, a))


def test_reflections_square_to_identity():
    for t in (A5, D4, E6):
        rs = build_root_system(t)
        for a in rs.simple_roots:
            for v in rs.simple_roots:
                assert _reflect(a, _reflect(a, v)) == v


def test_reflection_permutes_positive_roots():
    # s_i sends positives to positives except its own root
    for t in (A5, D4, E6):
        rs = build_root_system(t)
        for i, a in enumerate(rs.simple_roots):
            flipped = 0
            for alpha in rs.positive_roots:
                image = _reflect(a, alpha)
                if image in rs.positive_roots:
                    continue
                neg = tuple(-c for c in image)
                assert neg == rs.simple_roots[i]
                flipped += 1
            assert flipped == 1


def test_d4_coweight_reflection_formula(coweight_subs):
    # mu_i -> mu_i - C_i1 mu_1
    names = ("m1", "m2", "m3", "m4")
    subs = coweight_subs(D4, 1, names)
    point = dict(zip(names, (QQ(1), QQ(2), QQ(3), QQ(4))))
    # each image is a constant polynomial: its one coefficient
    image = tuple(sum(subs[n].substitute(point).terms.values(), QQ(0))
                  for n in names)
    assert image == (-1, 3, 3, 4)


def test_e6_frame_reflection_diagonal():
    # the reflection normal to (0, 1, 0, 0, 0, 0) is diag(1,-1,1,1,1,1)
    from mckaydeform.flat import frame_reflection_subs
    from mckaydeform.flat import XY_VARS
    from mckaydeform.poly import MPoly
    subs = frame_reflection_subs((3, 0, 0))
    assert subs["y1"] == -MPoly.variable(XY_VARS, "y1")
    assert subs["x1"] == MPoly.variable(XY_VARS, "x1")


def test_vanishing_roots_example():
    rs = build_root_system(A5)
    h = tuple(QQ(v) for v in (1, 2, -3, -3, 2, 1))
    got = {tuple(int(c) for c in v) for v in vanishing_roots(rs, h)}
    assert got == {(0, 0, 1, 0, 0), (0, 1, 1, 1, 0), (1, 1, 1, 1, 1)}


def test_vanishing_roots_generic_and_zero():
    rs = build_root_system(A5)
    generic = tuple(QQ(v) for v in (5, 1, -2, -11, 17, -10))
    assert vanishing_roots(rs, generic) == []
    zero = (QQ(0),) * 6
    assert len(vanishing_roots(rs, zero)) == 15


@pytest.mark.parametrize("tname", [f"A{r}" for r in range(1, 8)]
                         + [f"D{r}" for r in range(4, 9)]
                         + ["E6", "E7", "E8"])
def test_extended_diagram_is_the_dynkin_diagram_plus_vertex_0(tname):
    # the extended edges are built on the Dynkin numbering: without vertex
    # 0's edges they are the Dynkin edges; and 2 d_v = sum of the
    # neighbours' d, the defining balance of delta, holds on them
    t = parse_type(tname)
    edges = extended_edges(t)
    assert {frozenset(e) for e in edges if 0 not in e} == \
        {frozenset(e) for e in dynkin_edges(t)}
    assert sum(0 in e for e in edges) == (2 if t.family == "A" else 1)
    d = mckay_dimension_vector(t)
    around = [0] * len(d)
    for i, j in edges:
        around[i] += d[j]
        around[j] += d[i]
    assert around == [2 * v for v in d]


def test_omega_generators_close_to_the_named_groups():
    assert omega_generators(D4, "z3") == [DiagramAutomorphism((4, 2, 1, 3))]
    assert [len(standard_omega(D4, n)) for n in ("z2", "z3", "s3")] == \
        [2, 3, 6]
    # A1's involution is the identity on its one Dynkin vertex, so the
    # closed group has one element while the generator is still there
    A1 = DynkinType("A", 1)
    assert omega_generators(A1, "z2") == [DiagramAutomorphism((1,))]
    assert len(standard_omega(A1, "z2")) == 1
    for tname, name in (("E7", "z2"), ("D5", "z3"), ("A3", "s3")):
        with pytest.raises(UnsupportedType):
            omega_generators(parse_type(tname), name)


def test_omega_average():
    rs = build_root_system(A5)
    omega = standard_omega(A5, "z2")
    h = tuple(QQ(v) for v in (1, 2, -3, -3, 2, 1))
    assert omega_average(rs, omega, h) == (0,) * 6
    fixed = tuple(QQ(v) for v in (1, 0, 2, -2, 0, -1))
    assert omega_average(rs, omega, fixed) == fixed


def test_e6_omega_action_and_average_at_a_rational_h():
    # the E6 simple roots lie in Q(zeta_24), so the Cartan solve's right
    # side does; the values are pinned from the field elimination that
    # the rational inverse of the Cartan matrix replaced
    from mckaydeform.exact import scalar_to_json
    from mckaydeform.rootdata import omega_action_on_cartan
    rs = build_root_system(E6)
    omega = standard_omega(E6, "z2")
    h = (QQ(1, 2), QQ(-1, 3), QQ(2), QQ(3, 5), QQ(-1), QQ(7, 4))
    assert [scalar_to_json(c) for c in omega_action_on_cartan(
        rs, omega[1], h)] == ["-1", "7/4", "2", "3/5", "1/2", "-1/3"]
    assert [scalar_to_json(c) for c in omega_average(rs, omega, h)] == [
        "-1/4", "17/24", "2", "3/5", "-1/4", "17/24"]
    # a simple root goes to the simple root its vertex is sent to
    for i, a in enumerate(rs.simple_roots, 1):
        assert omega_action_on_cartan(rs, omega[1], a) == \
            rs.simple_roots[omega[1](i) - 1]


def test_mckay_dimension_vectors():
    # independent references: the minimal imaginary roots of the affine
    # diagrams, in the package's vertex numbering
    assert mckay_dimension_vector(DynkinType("E", 6)) == \
        (1, 1, 1, 2, 2, 2, 3)
    assert mckay_dimension_vector(DynkinType("E", 7)) == \
        (1, 2, 2, 3, 4, 3, 2, 1)
    assert mckay_dimension_vector(DynkinType("E", 8)) == \
        (1, 2, 3, 4, 6, 5, 4, 3, 2)
    assert mckay_dimension_vector(D4) == (1, 1, 2, 1, 1)
    assert mckay_dimension_vector(A5) == (1,) * 6
    with pytest.raises(UnsupportedType):
        mckay_dimension_vector(DynkinType("B", 3))



# -- the coweight chart -------------------------------------------------------

CHART_TYPES = ([DynkinType("A", r) for r in range(1, 8)]
               + [DynkinType("D", r) for r in (4, 5, 6)] + [E6])


@pytest.mark.parametrize("t", CHART_TYPES, ids=str)
def test_cartan_point_pairs_each_simple_root_to_minus_mu(t):
    # <h, alpha_i> = -mu_i exactly at seeded rational mu, and the chart on
    # polynomial mu, evaluated there, is the same point
    import random

    from mckaydeform.poly import MPoly, VarTable
    from mckaydeform.rootdata import cartan_point
    rng = random.Random(str(t))
    mu = [QQ(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(t.rank)]
    h = cartan_point(t, mu)
    simples = build_root_system(t).simple_roots
    assert [sum(x * y for x, y in zip(h, a)) for a in simples] == [
        -m for m in mu]
    V = VarTable(tuple(f"mu{i}" for i in range(1, t.rank + 1)))
    chart = cartan_point(t, [MPoly.variable(V, v) for v in V.names])
    point = dict(zip(V.names, mu))
    assert len(chart) == len(h)
    assert all(p.substitute(point) == c for p, c in zip(chart, h))


def _linear_forms(V, rows):
    """The linear forms on V with these coefficient rows ('p/q' text)."""
    from mckaydeform.poly import MPoly
    return [sum((MPoly.variable(V, v) * QQ(c) for v, c in zip(V.names, row)
                 if QQ(c)), MPoly(V)) for row in rows]


# the typed charts cartan_point replaced, as they computed them: eigenvalues
# lambda at a central value z (A), xi1..xi4 in mu (D4), and the parts of
# x1, x2, x3, y1, y2, y3 over sqrt(6) resp. sqrt(2) in mu (E6)
TYPED_LAMBDAS = (
    (["5/6", "-5/6"], ["5/12", "-5/12"]),
    (["1/5", "0", "-1/5"], ["1/15", "1/15", "-2/15"]),
    (["-35/3", "7/3", "1/3", "9"], ["-25/6", "-11/6", "-3/2", "15/2"]),
    (["-5", "7", "-1", "2", "-3"], ["-26/5", "9/5", "4/5", "14/5", "-1/5"]),
    (["443/60", "-9/2", "1", "-4/3", "-4/5", "-7/4"],
     ["517/120", "-23/120", "97/120", "-21/40", "-53/40", "-123/40"]))
TYPED_D4_XI = (("-1", "-1", "-1/2", "-1/2"), ("0", "-1", "-1/2", "-1/2"),
               ("0", "0", "-1/2", "-1/2"), ("0", "0", "1/2", "-1/2"))
TYPED_E6_XY = (("1/6", "0", "0", "1/3", "0", "0"),
               ("-1/6", "-1/6", "0", "-1/3", "-1/3", "-1/2"),
               ("0", "1/6", "0", "0", "1/3", "0"),
               ("-1/2", "0", "0", "0", "0", "0"),
               ("1/2", "1/2", "1", "1", "1", "3/2"),
               ("0", "-1/2", "0", "0", "0", "0"))


@pytest.mark.parametrize("z, lam", TYPED_LAMBDAS)
def test_lambda_from_central_is_the_typed_eigenvalue_chart(z, lam):
    from mckaydeform.quiver import lambda_from_central
    assert lambda_from_central(z) == [QQ(v) for v in lam]


def test_the_d4_and_e6_charts_are_the_typed_ones_term_for_term():
    from mckaydeform.deform import D4_MU, _variables
    from mckaydeform.flat import MU_VARS, e6_xy_of_mu
    from mckaydeform.rootdata import cartan_point
    xi = cartan_point(D4, _variables(D4_MU, D4_MU.names))
    assert [p.terms for p in xi] == [
        p.terms for p in _linear_forms(D4_MU, TYPED_D4_XI)]
    xs, ys = e6_xy_of_mu()
    assert [p.terms for p in xs + ys] == [
        p.terms for p in _linear_forms(MU_VARS, TYPED_E6_XY)]


def test_an_irrational_e6_part_is_refused(monkeypatch):
    # each part of x over sqrt(6) and of y over sqrt(2) is certified
    # rational: Lambda_1 times sqrt(3) leaves parts in Q(sqrt 3)
    from mckaydeform import flat, rootdata
    from mckaydeform.exact import sqrt3
    lam = rootdata.coweights(E6)
    monkeypatch.setattr(rootdata, "coweights", lambda t: (
        tuple(c * sqrt3() for c in lam[0]),) + lam[1:])
    with pytest.raises(ArithmeticError, match="not rational"):
        flat.e6_xy_of_mu()


def test_swapped_coweights_fail_the_d4_rows_a_fibre_and_the_back_check(
        monkeypatch):
    # negative control: Lambda_1 and Lambda_2 swapped in the one chart
    # (in the suites: base[D4], d4_coefficients, mc_fibres[A3|A5|D4] and
    # e6_coefficients_weyl_invariant fail)
    from mckaydeform import cli, deform, quiver, rootdata
    from mckaydeform.rootdata import omega_action_on_cartan
    A3, central = DynkinType("A", 3), ["3/2", "-1/2", "1/4", "-5/4"]
    point = quiver.invariants_at_point(
        A3, quiver.sample_moment_fibre(A3, central, seed=0))
    assert cli._family_residual(A3, central, *point) == 0
    lam = rootdata.coweights
    monkeypatch.setattr(rootdata, "coweights",
                        lambda t: (lam(t)[1], lam(t)[0]) + lam(t)[2:])
    cli._fibre.cache_clear()
    try:
        assert cli._family_residual(A3, central, *point) != 0
    finally:
        cli._fibre.cache_clear()
    assert deform.verify_d4_coefficients()["ok"] is False
    with pytest.raises(ValueError, match="outside the span"):
        omega_action_on_cartan(build_root_system(D4), standard_omega(
            D4, "s3")[1], tuple(QQ(v) for v in (1, 2, 0, 3)))
