"""Polynomial arithmetic, substitution, Groebner machinery."""

import itertools
import random
from operator import add

import pytest

from mckaydeform import poly
from mckaydeform.exact import QQ, sqrt3
from mckaydeform.poly import (BudgetExceeded, ExponentOverflow, Ideal, MPoly,
                              VariableMismatch, VarTable, equal_mod_vars,
                              grevlex_key, order_key, quotient_basis)

V = VarTable(("x", "y", "z"))
x, y, z = (MPoly.variable(V, n) for n in "xyz")


def _random_poly(rng, vars=V, nterms=4, deg=2, bound=3):
    p = MPoly(vars)
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(len(vars)))
        c = rng.randint(-bound, bound)
        if c:
            p = p + MPoly(vars, {e: QQ(c)})
    return p


def monomials_of_degree(vars, d):
    """All monomials of total degree exactly d, their exponent tuples in
    ascending order."""
    return [MPoly(vars, {e: QQ(1)})
            for e in itertools.product(range(d + 1), repeat=len(vars))
            if sum(e) == d]


def test_substitute_even_power():
    p = z * z
    assert p.substitute({"z": -z}) == p


def test_substitute_klein_parametrisation():
    # X^{2r} - YZ dies on X = z1 z2, Y = z1^{2r}, Z = z2^{2r} (r = 2)
    XV = VarTable(("X", "Y", "Z"))
    X, Y, Z = (MPoly.variable(XV, n) for n in "XYZ")
    ZV = VarTable(("z1", "z2"))
    z1, z2 = (MPoly.variable(ZV, n) for n in ("z1", "z2"))
    p = X ** 4 - Y * Z
    assert p.substitute({"X": z1 * z2, "Y": z1 ** 4,
                         "Z": z2 ** 4}).is_zero()


def test_substitute_merge():
    YV = VarTable(("x", "y"))
    p = MPoly.variable(YV, "x") + MPoly.variable(YV, "y")
    W = VarTable(("w",))
    w = MPoly.variable(W, "w")
    out = p.substitute({"x": w, "y": w})
    assert out == w * 2


def test_substitute_unknown_variable():
    with pytest.raises(VariableMismatch):
        x.substitute({"q": x})


def test_partial_derivative():
    assert (z * z).diff("z") == 2 * z
    assert MPoly.constant(V, QQ(5)).diff("x").is_zero()


def test_partial_derivative_of_quotient_normal_form():
    # dY of the printed G2 quotient equation on the section (X, 0, 0)
    from mckaydeform.quotient import g2_star2_equation
    f = g2_star2_equation()
    section = {"Y": QQ(0), "Z": QQ(0)}
    dY = f.diff("Y").substitute(section)
    NV = dY.vars
    X = MPoly.variable(NV, "X")
    t2 = MPoly.variable(NV, "t2")
    t6 = MPoly.variable(NV, "t6")
    stated = X ** 3 + (t2 ** 4 * QQ(-15, 16) - t2 * t6 * 81) * X \
        + t2 ** 6 * QQ(-11, 32) + t2 ** 3 * t6 * QQ(-189, 4) \
        - t6 ** 2 * 729
    assert equal_mod_vars(dY, stated)


def test_groebner_trivial():
    gb = Ideal([x, y]).groebner_basis()
    assert sorted(repr(g) for g in gb) == ["(1)*x", "(1)*y"]
    assert Ideal([MPoly.constant(V, QQ(1))]).groebner_basis() == [
        MPoly.constant(V, QQ(1))]


def test_quotient_dimensions():
    f = z * z - x ** 3 + 3 * x * y * y + x * x + y * y
    ideal = Ideal([f, f.diff("x"), f.diff("y"), f.diff("z")])
    assert ideal.quotient_dimension() == 1
    g = z * z - x ** 3 + 3 * x * y * y
    ideal = Ideal([g, g.diff("x"), g.diff("y"), g.diff("z")])
    assert ideal.quotient_dimension() == 4
    assert Ideal([x, y, z]).quotient_dimension() == 1
    V1 = VarTable(("x",))
    x1 = MPoly.variable(V1, "x")
    assert Ideal([x1 * x1]).quotient_dimension() == 2
    assert Ideal([x * x]).quotient_dimension() == "infinite"


def test_ideal_refuses_a_scalar_generator():
    # a dropped unit would leave (x^2, y^2) with quotient dimension 4
    with pytest.raises(TypeError, match="generator 1"):
        Ideal([x ** 2, y ** 2, QQ(1)])
    assert Ideal([x ** 2, y ** 2, MPoly.constant(V, 1)]) \
        .quotient_dimension() == 0


def test_normal_form_examples():
    rng = random.Random(3)
    f = x ** 2 + y * z - 2 * z
    ideal = Ideal([f])
    for _ in range(10):
        g = _random_poly(rng)
        assert ideal.normal_form(g * f).is_zero()
    QV = VarTable(("z", "q"))
    zz, q = (MPoly.variable(QV, n) for n in ("z", "q"))
    assert Ideal([zz * zz - q]).normal_form(zz ** 4) == q * q


def test_normal_form_monic_cubic_multiple():
    # multiples of a monic cubic reduce to zero (Kas-Schlessinger check)
    CV = VarTable(("X", "t"))
    X, t = (MPoly.variable(CV, n) for n in ("X", "t"))
    cubic = X ** 3 - X * t + t ** 3
    ideal = Ideal([cubic], order="lex")
    rng = random.Random(5)
    for _ in range(10):
        h = _random_poly(rng, CV, nterms=4, deg=3)
        assert ideal.normal_form(cubic * h).is_zero()


def test_normal_form_idempotent():
    rng = random.Random(9)
    ideal = Ideal([x * x - y, y * z - 1])
    for _ in range(20):
        p = _random_poly(rng)
        r = ideal.normal_form(p)
        assert ideal.normal_form(r) == r


def test_ring_axioms_randomised():
    rng = random.Random(13)
    for _ in range(60):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_groebner_deterministic_under_generator_order():
    rng = random.Random(17)
    for _ in range(20):
        gens = [_random_poly(rng) for _ in range(3)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        gb1 = Ideal(list(gens)).groebner_basis()
        shuffled = list(gens)
        rng.shuffle(shuffled)
        gb2 = Ideal(shuffled).groebner_basis()
        assert sorted(repr(g) for g in gb1) == sorted(repr(g) for g in gb2)


def test_groebner_matches_sympy_oracle():
    import sympy as sp
    sx, sy, sz = sp.symbols("x y z")
    rng = random.Random(23)
    for _ in range(8):
        gens = [_random_poly(rng) for _ in range(3)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        sp_gens = [
            sum(sp.Rational(str(c)) * sx ** e[0] * sy ** e[1] * sz ** e[2]
                for e, c in g.terms.items()) for g in gens]
        G = sp.groebner(sp_gens, sx, sy, sz, order="grevlex")
        mine = Ideal(gens).groebner_basis()

        def monic_sp(expr):
            p = sp.Poly(expr, sx, sy, sz)
            lead = p.monoms(order="grevlex")[0]
            lc = p.coeff_monomial(sx ** lead[0] * sy ** lead[1]
                                  * sz ** lead[2])
            return sp.expand(expr / lc)

        theirs = sorted(sp.srepr(monic_sp(e)) for e in G.exprs)
        ours = sorted(
            sp.srepr(sp.expand(sum(
                sp.Rational(str(c)) * sx ** e[0] * sy ** e[1] * sz ** e[2]
                for e, c in g.terms.items()))) for g in mine)
        assert ours == theirs


def test_evaluate_numeric():
    assert abs((x + y).evaluate_numeric({"x": 1, "y": 2, "z": 0}) - 3) \
        < 1e-15
    f = z * z - x ** 3 + 3 * x * y * y + x * x + y * y - QQ(4, 27)
    assert abs(f.evaluate_numeric({"x": 2 / 3, "y": 0, "z": 0})) < 1e-12
    assert MPoly(V).evaluate_numeric({"x": 9, "y": 9, "z": 9}) == 0


def test_evaluate_substitute_consistency():
    rng = random.Random(29)
    for _ in range(20):
        p = _random_poly(rng, nterms=5, deg=3)
        m = {"x": _random_poly(rng, nterms=2, deg=1),
             "y": _random_poly(rng, nterms=2, deg=1)}
        pt = {"x": rng.uniform(-1, 1), "y": rng.uniform(-1, 1),
              "z": rng.uniform(-1, 1)}
        lhs = p.substitute(m).evaluate_numeric(pt)
        composed = dict(pt)
        composed["x"] = m["x"].evaluate_numeric(pt)
        composed["y"] = m["y"].evaluate_numeric(pt)
        rhs = p.evaluate_numeric(composed)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


def test_budget_exceeded():
    f = x ** 3 * y - z + 1
    g = y ** 3 * z - x
    h = z ** 3 * x - y
    with pytest.raises(BudgetExceeded):
        Ideal([f, g, h], budget=5).groebner_basis()


def test_json_round_trip():
    p = x * x * QQ(3, 7) - y * z + MPoly.constant(V, QQ(-1, 2))
    # grevlex-descending term order, exact coefficients as strings
    assert p.to_json() == {"vars": ["x", "y", "z"], "terms": [
        {"c": "3/7", "e": [2, 0, 0]},
        {"c": "-1", "e": [0, 1, 1]},
        {"c": "-1/2", "e": [0, 0, 0]}]}


def test_quotient_basis_and_monomials():
    ideal = Ideal([x * x - 1, y - 2, z])
    assert sorted(quotient_basis(ideal)) == [(0, 0, 0), (1, 0, 0)]
    assert len(monomials_of_degree(V, 3)) == 10


# -- the rational path against the generic loop ------------------------------

def _dense_poly(rng, vars, nterms, deg, coeffs):
    terms = {}
    while len(terms) < nterms:
        e = tuple(rng.randint(0, deg) for _ in range(len(vars)))
        terms[e] = rng.choice(coeffs)
    return MPoly(vars, terms)


def _generic(monkeypatch, fn):
    """fn() with every product and substitution on the generic loop."""
    with monkeypatch.context() as m:
        m.setattr(poly, "_FIELD_LIMIT", 0)
        return fn()


def _same_terms(p, q):
    # values, coefficient types and term order all agree
    return (p.vars == q.vars
            and [(e, type(c), c) for e, c in p.terms.items()]
            == [(e, type(c), c) for e, c in q.terms.items()])


def test_rational_product_matches_generic_loop(monkeypatch):
    rng = random.Random(31)
    coeffs = [QQ(k, d) for k in (-2, -1, 1, 3) for d in (1, 2, 3, 4)]
    cases = []
    for _ in range(40):
        a = _dense_poly(rng, V, rng.randint(8, 20), 3, coeffs)
        b = _dense_poly(rng, V, rng.randint(8, 20), 3, coeffs)
        cases.append((a, b))
    # cancellation: (x^2 - y^2) from the sum times the difference
    s = x + y + MPoly.constant(V, QQ(1, 3))
    cases.append((s ** 4, (x - y + z) ** 4))
    cases.append((MPoly.constant(V, QQ(-7, 5)), (x + y + z) ** 6))
    big = (x + y * QQ(1, 2) + z) ** 5
    cases.append(((x - y * QQ(1, 2)) ** 5, big))
    for a, b in cases:
        got = a * b
        want = _generic(monkeypatch, lambda: a * b)
        assert _same_terms(got, want)
    # terms that cancel inside the product are gone, not stored as 0
    prod = (x + y) ** 4 * (x - y) ** 4
    assert prod == (x * x - y * y) ** 4
    assert all(prod.terms.values())


def test_rational_substitution_matches_generic_loop(monkeypatch):
    rng = random.Random(37)
    coeffs = [QQ(k, d) for k in (-3, -1, 1, 2) for d in (1, 2, 5)]
    W = VarTable(("u", "v"))
    for _ in range(30):
        p = _dense_poly(rng, V, rng.randint(1, 15), 4, coeffs)
        bindings = {"x": _dense_poly(rng, W, rng.randint(1, 4), 2, coeffs),
                    "y": rng.choice([QQ(0), QQ(2, 3), QQ(-1)]),
                    "z": MPoly.constant(W, rng.choice(coeffs))}
        if rng.random() < 0.5:
            del bindings["z"]           # z passes through
        got = p.substitute(bindings)
        want = _generic(monkeypatch, lambda: p.substitute(bindings))
        assert _same_terms(got, want)
    # the whole composition cancels to the zero polynomial
    U = VarTable(("u",))
    u = MPoly.variable(U, "u")
    f = x ** 3 - x * y * 2 + z
    zero = f.substitute({"x": u + 1, "y": (u + 1) ** 2 * QQ(1, 2),
                         "z": (u + 1) ** 3 * QQ(0) + u * 0})
    assert zero.is_zero() and zero.vars == U
    const = MPoly.constant(V, QQ(3)).substitute({"x": u, "y": u,
                                                 "z": QQ(2)})
    assert _same_terms(const, MPoly.constant(U, QQ(3)))


MU = VarTable(tuple(f"mu{i}" for i in range(1, 7)))


def test_coweight_reflections_match_generic_loop(monkeypatch,
                                                coweight_subs):
    # every E6 coweight reflection fixes some mu_i, flips the sign of one
    # and moves its neighbours: one-term and multi-term bindings together
    from mckaydeform.rootdata import DynkinType
    rng = random.Random(43)
    coeffs = [QQ(k, d) for k in (-3, -1, 1, 2) for d in (1, 2, 7)]
    p = _dense_poly(rng, MU, 150, 6, coeffs)
    for j in range(1, 7):
        subs = coweight_subs(DynkinType("E", 6), j, MU.names)
        got = p.substitute(subs)
        want = _generic(monkeypatch, lambda: p.substitute(subs))
        assert _same_terms(got, want)


def test_one_term_binding_with_a_coefficient(monkeypatch):
    rng = random.Random(47)
    coeffs = [QQ(k, d) for k in (-2, 1, 3) for d in (1, 4, 5)]
    mu1, mu2, mu3 = (MPoly.variable(MU, f"mu{i}") for i in (1, 2, 3))
    bindings = {"mu1": mu2 ** 2 * QQ(2, 3), "mu2": mu2 + mu3 * QQ(1, 2),
                "mu4": mu3 * QQ(-5, 7), "mu5": QQ(3, 4)}
    for _ in range(10):
        p = _dense_poly(rng, MU, rng.randint(1, 40), 4, coeffs)
        got = p.substitute(bindings)
        want = _generic(monkeypatch, lambda: p.substitute(bindings))
        assert _same_terms(got, want)
    moved = (mu1 ** 3 * mu2).substitute(bindings)
    assert equal_mod_vars(moved, mu2 ** 6 * (mu2 + mu3 * QQ(1, 2))
                          * QQ(8, 27))


def test_zero_polynomial_binding(monkeypatch):
    rng = random.Random(53)
    coeffs = [QQ(k, d) for k in (-1, 1, 2) for d in (1, 3)]
    W = VarTable(("u", "v"))
    u, v = (MPoly.variable(W, n) for n in "uv")
    bindings = {"x": MPoly(W), "y": u - v * QQ(2, 3), "z": u + v}
    for _ in range(10):
        p = _dense_poly(rng, V, rng.randint(1, 30), 3, coeffs)
        got = p.substitute(bindings)
        want = _generic(monkeypatch, lambda: p.substitute(bindings))
        assert _same_terms(got, want)
        # only the terms free of x survive
        free = MPoly(V, {e: c for e, c in p.terms.items() if not e[0]})
        assert got == free.substitute(bindings)
    assert (x * y + x ** 2).substitute(bindings).is_zero()


def test_each_binding_power_product_is_built_once(monkeypatch,
                                                  coweight_subs):
    # Ax2 under r_6: the product of the moved variables' powers is one
    # chain of _mul_packed calls per distinct exponent pattern on them (one
    # call fewer than the pattern's nonzero exponents), on top of the calls
    # that build each binding's powers
    from mckaydeform.deform import e6_mu_coefficients
    from mckaydeform.rootdata import DynkinType
    p = e6_mu_coefficients()["Ax2"]
    subs = coweight_subs(DynkinType("E", 6), 6, p.vars.names)
    moved = [i for i, v in enumerate(p.vars.names)
             if len(subs[v].terms) > 1]
    assert len(moved) >= 2
    patterns = {tuple(e[i] for i in moved) for e in p.terms}
    chains = sum(max(sum(1 for k in pat if k) - 1, 0) for pat in patterns)
    powers = sum(max(e[i] for e in p.terms) - 1 for i in moved)
    calls = [0]
    mul_packed = poly._mul_packed

    def counted(a, b):
        calls[0] += 1
        return mul_packed(a, b)

    monkeypatch.setattr(poly, "_mul_packed", counted)
    moved_p = p.substitute(subs)
    assert moved_p == p
    assert calls[0] <= chains + powers
    assert chains + powers < len(p.terms)


def _reference_product(a, b):
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = c1 * c2 if e not in out else out[e] + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_product_past_the_exponent_field_falls_back():
    # each exponent fits one byte, their sums do not
    a = MPoly(V, {(200 + i, i, 0): QQ(i + 1, 2) for i in range(9)})
    b = MPoly(V, {(50 + i, 0, i): QQ(1, i + 1) for i in range(9)})
    assert len(a.terms) * len(b.terms) >= poly._PACKED_MIN_PRODUCTS
    prod = a * b
    assert prod.terms == _reference_product(a, b)
    assert prod.terms[(258, 4, 4)] != 0
    # just below the limit the rational path gives the same answer
    c = MPoly(V, {(10 + i, 0, i): QQ(1, i + 1) for i in range(9)})
    assert (a * c).terms == _reference_product(a, c)
    U = VarTable(("u",))
    u = MPoly.variable(U, "u")
    assert equal_mod_vars((x ** 100).substitute({"x": u ** 3}), u ** 300)


def test_cyclo_and_int_coefficients_keep_the_generic_types():
    rng = random.Random(41)
    ints = _dense_poly(rng, V, 12, 3, [-2, -1, 1, 3])
    assert all(type(c) is int for c in ints.terms.values())
    prod = ints * ints
    assert prod.terms == _reference_product(ints, ints)
    assert all(type(c) is int for c in prod.terms.values())
    r3 = sqrt3()
    cyc = _dense_poly(rng, V, 12, 3, [r3, -r3, r3 * QQ(1, 2)])
    rational = _dense_poly(rng, V, 12, 3, [QQ(1, 2), QQ(-3)])
    prod = cyc * rational
    assert prod.terms == _reference_product(cyc, rational)
    want = {e: type(c) for e, c in _reference_product(cyc, rational).items()}
    assert {e: type(c) for e, c in prod.terms.items()} == want
    moved = rational.substitute({"x": x * r3})
    assert any(type(c) is not type(QQ(1)) for c in moved.terms.values())
    assert moved == rational.substitute({"x": x}).substitute({"x": x * r3})


# -- the packed form of rational results --------------------------------------

def _packed_pair(rng, vars, coeffs):
    """A rational product, held packed, and an equal polynomial held as a
    terms dict."""
    a = _dense_poly(rng, vars, 6, 2, coeffs)
    b = _dense_poly(rng, vars, 5, 2, coeffs)
    p = a * b
    assert p._packed is not None
    return p, MPoly(vars, dict((a * b).terms))


def test_packed_and_materialized_compare_equal():
    rng = random.Random(83)
    coeffs = [QQ(k, d) for k in (-3, 1, 2) for d in (1, 2, 9)]
    for _ in range(10):
        p, q = _packed_pair(rng, V, coeffs)
        assert p == q and q == p and p._packed is not None
        r = (p * QQ(6)) * QQ(1, 6)         # built over another denominator
        assert r._packed is not None and r == p and r._packed == p._packed
        s = p * QQ(2, 3) * QQ(3, 2)
        assert s == q and s == r
        e = next(iter(q.terms))
        off = MPoly(V, dict(q.terms))
        off.terms[e] += 1
        assert p != off and off != p and p != p * QQ(2)
    # over two products with different denominators
    u = (x * QQ(1, 2) + y * QQ(1, 3) + z) ** 4
    w = (x * 3 + y * 2 + z * 6) ** 4 * QQ(1, 1296)
    assert u._packed is not None and w._packed is not None
    assert u == w and u._packed == w._packed
    assert u == MPoly(V, dict(((x * 3 + y * 2 + z * 6) ** 4).terms)) * QQ(
        1, 1296)


def test_a_write_through_terms_is_seen_by_every_operation():
    rng = random.Random(89)
    coeffs = [QQ(k, d) for k in (-2, 1, 5) for d in (1, 3, 4)]
    U = VarTable(("u",))
    u = MPoly.variable(U, "u")
    subs = {"x": u + 1, "y": u * QQ(1, 2), "z": QQ(3)}
    for _ in range(5):
        p, q = _packed_pair(rng, V, coeffs)
        p.terms[(5, 0, 1)] = QQ(7, 3)       # the read drops the packed form
        q.terms[(5, 0, 1)] = QQ(7, 3)
        assert p._packed is None and p == q
        assert p * x == q * x and (p * x).terms == (q * x).terms
        assert p.substitute(subs) == q.substitute(subs)
        assert poly.fold_root(p, "x", 2, QQ(3)) == \
            poly.fold_root(q, "x", 2, QQ(3))
        # a packed result written through after its read
        r = p * p
        r.terms[(0, 0, 0)] = r.terms.get((0, 0, 0), QQ(0)) + 1
        want = MPoly(V, dict((q * q).terms)) + 1
        assert r == want and r * x == want * x
        assert r.substitute(subs) == want.substitute(subs)
        assert poly.fold_root(r, "y", 3, QQ(1, 2)) == \
            poly.fold_root(want, "y", 3, QQ(1, 2))


@pytest.mark.parametrize("c", [QQ(3, 2), 6, QQ(-1)])
def test_packed_fold_root_keeps_the_generic_term_order(c):
    rng = random.Random(97)
    A = VarTable(("x", "a", "y"))
    coeffs = [QQ(k, d) for k in (-3, -1, 2) for d in (1, 2, 5)]
    for _ in range(10):
        a = _dense_poly(rng, A, 8, 3, coeffs)
        b = _dense_poly(rng, A, 6, 3, coeffs)
        p = a * b
        assert p._packed is not None
        dict_held = MPoly(A, dict((a * b).terms))
        assert _same_terms(poly.fold_root(p, "a", 2, c),
                           poly.fold_root(dict_held, "a", 2, c))
    # a folded term that cancels drops its key; one that returns lands last
    ax = MPoly.variable(A, "a")
    p = (ax ** 2 - c) * _dense_poly(rng, A, 9, 2, coeffs)
    assert p._packed is not None and poly.fold_root(p, "a", 2, c).is_zero()


def test_extend_drops_only_unused_variables():
    W = VarTable(("w", "x", "y", "z"))
    p = (x + y * QQ(1, 2)) ** 4 * (x - y * 3) ** 4
    assert p._packed is not None
    wide = p.extend(W)
    held = dict(((x + y * QQ(1, 2)) ** 4 * (x - y * 3) ** 4).terms)
    assert wide._packed is not None and wide == MPoly(W, {
        (0,) + e: c for e, c in held.items()})
    assert wide.extend(V) == p
    assert wide.extend(VarTable(("x", "y"))).extend(V) == p
    with pytest.raises(VariableMismatch):
        wide.extend(VarTable(("w", "x", "z")))
    # a packed form whose variables change places, and a terms dict
    assert wide.extend(VarTable(("y", "x"))).extend(V) == p
    as_dict = MPoly(W, dict(wide.terms))
    assert as_dict.extend(VarTable(("y", "x"))).extend(V) == p
    with pytest.raises(VariableMismatch):
        as_dict.extend(VarTable(("w", "y", "z")))


def test_a_packed_zero_reads_as_zero_everywhere():
    # a substitution that cancels every term gives a packed zero
    zero = (x * y - y * y).substitute({"x": y})
    assert zero._packed is not None and zero.is_zero() and not zero
    assert zero == MPoly(zero.vars) and MPoly(zero.vars) == zero
    assert zero != x.extend(zero.vars) and x.extend(zero.vars) != zero
    assert (zero * x.extend(zero.vars)).is_zero()
    assert (zero * QQ(5, 2)).is_zero()
    assert poly.fold_root(zero, "y", 2, QQ(3)).is_zero()
    assert zero.extend(VarTable(("w",))).is_zero()
    assert zero.substitute({"y": x + 1}).is_zero()
    assert poly.reflection_invariant(zero, "x", {"x": 2, "y": -1})
    assert zero.terms == {} and zero._packed is None


def test_a_packed_polynomial_copies_and_pickles_packed():
    import copy
    import pickle
    p = (x + y * QQ(1, 2)) ** 4 * (x - z * 3) ** 4
    packed = p._packed
    copies = [copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))]
    assert packed is not None and p._packed is packed
    for q in copies:
        assert q._packed == packed and q == p and bool(q)
    terms = dict(p.terms)
    for q in copies:
        assert q.terms == terms and (q * x).terms == (p * x).terms


# -- the mirror test: reflection invariance without substitution ---------------

@pytest.mark.parametrize("label", ["A3", "D4", "E6"])
def test_mirror_test_agrees_with_substitution(label, coweight_subs):
    from mckaydeform.rootdata import cartan_matrix, parse_type
    t = parse_type(label)
    names = tuple(f"mu{i}" for i in range(1, t.rank + 1))
    W = VarTable(names)
    C = cartan_matrix(t)
    rng = random.Random(101 + t.rank)
    coeffs = [QQ(k, d) for k in (-3, -1, 1, 2) for d in (1, 2, 7)]
    for j in range(1, t.rank + 1):
        subs = coweight_subs(t, j, names)
        direction = {v: C[i][j - 1] for i, v in enumerate(names)}
        verdicts = []
        for _ in range(3):
            p = _dense_poly(rng, W, 10, 3, coeffs)
            sym = p + p.substitute(subs)
            square = sym * sym                  # packed, invariant
            bumped = sym + MPoly(W, {next(iter(p.terms)): QQ(1, 3)})
            for q in (p, sym, square, bumped, sym * p):
                want = q.substitute(subs) == q
                assert poly.reflection_invariant(q, names[j - 1],
                                                 direction) == want
                verdicts.append(want)
        assert True in verdicts and False in verdicts


def test_mirror_test_reaches_every_odd_order():
    # t^3 along c, t = mu_j / 2: its first derivative along c vanishes on
    # the mirror mu_j = 0, its third does not
    from mckaydeform.rootdata import DynkinType, cartan_matrix
    C = cartan_matrix(DynkinType("E", 6))
    for j in range(1, 7):
        name = MU.names[j - 1]
        direction = {v: C[i][j - 1] for i, v in enumerate(MU.names)}
        mu = MPoly.variable(MU, name)
        # a variable the reflection fixes
        w = next(MPoly.variable(MU, v) for v, k in direction.items() if not k)
        for p in (mu ** 3, mu ** 3 * w * QQ(5, 4), mu ** 5 + mu ** 2):
            assert not poly.reflection_invariant(p, name, direction)
        for p in (mu ** 2, mu ** 4 * QQ(1, 3) + 7, MPoly(MU)):
            assert poly.reflection_invariant(p, name, direction)


def test_mirror_test_off_the_packed_path():
    # a Cyclo coefficient or a degree past the packed field: substitution
    A2 = VarTable(("mu1", "mu2"))
    m1, m2 = (MPoly.variable(A2, v) for v in A2.names)
    direction = {"mu1": 2, "mu2": -1}
    r3 = sqrt3()
    subs = {"mu1": -m1, "mu2": m2 + m1}
    for p in (m1 * m2 * r3, (m1 + m2 * 2) * m1 * r3 + m2, m1 ** 2 * r3):
        assert poly.reflection_invariant(p, "mu1", direction) == (
            p.substitute(subs) == p)
    assert poly.reflection_invariant(m1 ** 2 * r3, "mu1", direction)
    assert not poly.reflection_invariant(m1 * r3, "mu1", direction)
    assert poly.reflection_invariant(m1 ** 300, "mu1", direction)
    assert not poly.reflection_invariant(m1 ** 301, "mu1", direction)
    with pytest.raises(ValueError):
        poly.reflection_invariant(m1, "mu1", {"mu1": 1})
    with pytest.raises(VariableMismatch):
        poly.reflection_invariant(m1, "mu3", direction)
    with pytest.raises(VariableMismatch):       # c on a variable p lacks
        poly.reflection_invariant(m1, "mu1", {**direction, "mu3": -1})


# -- Groebner bases: lex, local Tjurina ideals, the pair criteria -------------

def _as_sympy(g, syms):
    import sympy as sp
    return sp.expand(sum(
        sp.Rational(str(c)) * sp.Mul(*(s ** k for s, k in zip(syms, e)))
        for e, c in g.terms.items()))


def _sympy_reduced_basis(gens, order):
    """sympy's reduced basis, each element divided by its leading coefficient
    (over ZZ sympy clears denominators instead)."""
    import sympy as sp
    syms = sp.symbols("x y z")
    G = sp.groebner([_as_sympy(g, syms) for g in gens], *syms, order=order)
    return sorted(
        sp.srepr(sp.expand(e / sp.Poly(e, *syms).LC(order=order)))
        for e in G.exprs)


def _reduced_basis(gens, order):
    import sympy as sp
    syms = sp.symbols("x y z")
    return sorted(sp.srepr(_as_sympy(g, syms))
                  for g in Ideal(gens, order=order).groebner_basis())


def _count_reductions(monkeypatch):
    """A one-element list counting the calls of poly.reduce_poly."""
    calls = [0]
    reduce = poly.reduce_poly

    def counted(*args):
        calls[0] += 1
        return reduce(*args)

    monkeypatch.setattr(poly, "reduce_poly", counted)
    return calls


def test_lex_groebner_matches_sympy_oracle():
    rng = random.Random(31)
    for _ in range(12):
        gens = [g for g in (_random_poly(rng) for _ in range(3)) if g]
        assert _reduced_basis(gens, "lex") == _sympy_reduced_basis(gens, "lex")


# f, N and the most S-pairs the smallest-lcm-first strategy with the
# Gebauer-Moller criteria reduces on (f, df/dx, df/dy, df/dz) + m^N
TJURINA_SHAPES = [
    (x ** 3 + y ** 3 + z ** 3 + x * y * z, 4, 24),
    (x ** 3 + y ** 3 + z ** 3 + x * y * z, 5, 30),
    (x ** 2 * y + y ** 4 + z ** 2 + x ** 3, 4, 18),
    (x ** 2 * y + y ** 4 + z ** 2 + x ** 3, 5, 24),
]


@pytest.mark.parametrize("f, n, most", TJURINA_SHAPES)
def test_local_tjurina_ideal_matches_sympy(monkeypatch, f, n, most):
    # a Buchberger oracle on f, its partials and every monomial of degree
    # n (m^n), the later generators' leads divisible by the earlier ones'
    gens = [f] + [f.diff(v) for v in "xyz"] + monomials_of_degree(V, n)
    assert _reduced_basis(gens, "grevlex") == \
        _sympy_reduced_basis(gens, "grevlex")
    calls = _count_reductions(monkeypatch)
    gb = poly.buchberger(gens, poly._PackedOrder(grevlex_key, V))
    # every call past the final tail reduction of each element is an S-pair
    assert calls[0] - len(gb) <= most


def test_coprime_leads_need_no_s_pair(monkeypatch):
    # leads x^3, y^2, z^2 are pairwise coprime: the product criterion
    # discards every pair, and the generators already form the basis
    gens = [x ** 3 + y + z, y ** 2 + z, z ** 2 + x]
    order = poly._PackedOrder(grevlex_key, V)
    calls = _count_reductions(monkeypatch)
    gb = poly.buchberger(gens, order)
    assert sorted(repr(poly._monic(r, order)) for r in gb) == \
        sorted(map(repr, gens))
    assert calls[0] == len(gb)
    assert _reduced_basis(gens, "grevlex") == \
        _sympy_reduced_basis(gens, "grevlex")


# -- packed keys: the order, additivity, the field limit ---------------------

@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_packed_keys_sort_like_the_order_and_add(order, n):
    key = order_key(order)
    packed = poly._PackedOrder(key, VarTable(tuple("abcd"[:n])))
    edge = list(itertools.product((0, 1, 126, 127), repeat=n))
    assert sorted(edge, key=packed.key) == sorted(edge, key=key)
    box = list(itertools.product((0, 1, 2, 63), repeat=n))
    assert sorted(box, key=packed.key) == sorted(box, key=key)
    assert all(packed.exponents(packed.key(e)) == e for e in box + edge)
    for a in box:
        ka = packed.key(a)
        for b in box:
            assert packed.key(tuple(map(add, a, b))) == ka + packed.key(b)


def test_exponent_past_the_packed_field_raises():
    with pytest.raises(ExponentOverflow):
        Ideal([x ** 300 - y]).groebner_basis()
    # grevlex: the step by x^64 + y^64 turns x^64 y^100 into -y^164
    ideal = Ideal([x ** 64 + y ** 64])
    with pytest.raises(ExponentOverflow):
        ideal.normal_form(x ** 64 * y ** 100)
    assert ideal.normal_form(x ** 64 * y ** 63) == -(y ** 127)
    # lex: x - y^100 reduces x^2 to y^200
    with pytest.raises(ExponentOverflow):
        Ideal([x - y ** 100], order="lex").normal_form(x ** 2)
    with pytest.raises(ExponentOverflow):
        Ideal([x - y ** 130], order="lex").normal_form(x ** 2)
    assert Ideal([x - y ** 63], order="lex").normal_form(x ** 2) == y ** 126


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_bases_and_normal_forms_keep_terms_in_decreasing_order(order):
    # float evaluation and --out see the terms in this sequence
    key = order_key(order)

    def decreasing(p):
        return list(p.terms) == sorted(p.terms, key=key, reverse=True)

    rng = random.Random(59)
    for _ in range(4):
        gens = [g for g in (_random_poly(rng) for _ in range(3)) if g]
        if not gens:
            continue
        ideal = Ideal(gens, order=order)
        assert all(decreasing(g) for g in ideal.groebner_basis())
        for _ in range(6):
            p = _random_poly(rng, nterms=8, deg=3)
            assert decreasing(ideal.normal_form(p))


# -- fraction-free division: integer basis elements, exact normal forms ------

# rational generators whose primitive integer leads are not 1
FRACTIONAL_IDEALS = [
    [x ** 2 * 7 + y * z * QQ(1, 3) - QQ(11, 4), y ** 2 * QQ(11, 4) - x * 7,
     z ** 2 * 3 + x * y * QQ(1, 3) + 5],
    [x * y * QQ(7, 2) - z * QQ(1, 3), y ** 3 * 11 - x ** 2 * QQ(4, 9) + 1,
     x * z * QQ(5, 6) + y - QQ(7, 3)],
]


def _from_sympy(expr, syms, vars):
    import sympy as sp
    terms = sp.Poly(expr, *syms, domain=sp.QQ).terms()
    return MPoly(vars, {e: QQ(str(c)) for e, c in terms})


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("k", range(len(FRACTIONAL_IDEALS)))
def test_normal_form_is_exact_with_integer_leads(order, k):
    import sympy as sp
    syms = sp.symbols("x y z")
    gens = FRACTIONAL_IDEALS[k]
    ideal = Ideal(gens, order=order)
    ideal.groebner_basis()
    assert any(r.lc > 1 for r in ideal._reducers)
    G = sp.groebner([_as_sympy(g, syms) for g in gens], *syms, order=order,
                    domain=sp.QQ)
    rng = random.Random(67 + k)
    for _ in range(6):
        p = _random_poly(rng, nterms=6, deg=3) * QQ(rng.randint(1, 9), 7) \
            + MPoly.constant(V, QQ(1, 5))
        _, want = sp.reduced(_as_sympy(p, syms), G.exprs, *syms, order=order,
                             domain=sp.QQ)
        got = ideal.normal_form(p)
        assert got.terms == _from_sympy(want, syms, V).terms
        assert all(type(c) is type(QQ(1)) for c in got.terms.values())


def test_rational_ideal_holds_int_reducers():
    for gens in FRACTIONAL_IDEALS:
        ideal = Ideal(gens)
        ideal.groebner_basis()
        for r in ideal._reducers:
            assert type(r.lc) is int and r.lc > 0
            assert all(type(c) is int for _, c in r.tail)
        # bare int coefficients are rationals too, not a scaled remainder
        bare = {(3, 1, 0): 5, (0, 2, 2): -3, (1, 0, 0): 2}
        assert ideal.normal_form(MPoly(V, bare)) == ideal.normal_form(
            MPoly(V, {e: QQ(c) for e, c in bare.items()}))


@pytest.mark.parametrize("order", ["grevlex", "lex"])
@pytest.mark.parametrize("field", ["rational", "cyclo"])
def test_monic_basis_is_built_only_when_asked(field, order):
    r3 = sqrt3()
    gens = FRACTIONAL_IDEALS[0] if field == "rational" else [
        x ** 2 - y * r3, y ** 2 + x * z * (r3 * 2) - 1,
        z ** 2 - x + r3 * QQ(1, 2)]
    ideal = Ideal(gens, order=order)
    assert ideal.quotient_dimension() == 8
    ideal.normal_form(x ** 3 * y - z * QQ(2, 3))
    assert ideal._gb is None

    def typed(basis):
        return [[(e, type(c), c) for e, c in g.terms.items()] for g in basis]

    late = ideal.groebner_basis()
    assert typed(late) == typed(Ideal(gens, order=order).groebner_basis())
    assert all(next(iter(g.terms.values())) == 1 for g in late)


class _Mpz(int):
    """An integer type that is not ``int`` and keeps its type under * and
    //, as gmpy2's ``mpz``, the numerator type of its ``mpq``, does."""

    def __mul__(self, o):
        return _Mpz(int(self) * int(o)) if isinstance(o, int) \
            else NotImplemented

    __rmul__ = __mul__

    def __floordiv__(self, o):
        return _Mpz(int(self) // int(o)) if isinstance(o, int) \
            else NotImplemented

    def __rfloordiv__(self, o):
        return _Mpz(int(o) // int(self)) if isinstance(o, int) \
            else NotImplemented


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_rationals_with_non_int_numerators_give_the_same_ideals(
        order, monkeypatch):
    from fractions import Fraction
    rng = random.Random(79)
    polys = [_random_poly(rng, nterms=6, deg=3) * QQ(5, 3) for _ in range(4)]
    want = []
    for gens in FRACTIONAL_IDEALS:
        ideal = Ideal(gens, order=order)
        want.append((ideal.groebner_basis(),
                     [ideal.normal_form(p) for p in polys]))
    if QQ is Fraction:      # with gmpy2, QQ's numerators are mpz already
        for name in ("numerator", "denominator"):
            monkeypatch.setattr(Fraction, name, property(
                lambda a, f="_" + name: _Mpz(getattr(a, f))))
    assert type(QQ(3, 2).numerator) is not int
    for gens, (gb, nfs) in zip(FRACTIONAL_IDEALS, want):
        ideal = Ideal(gens, order=order)
        assert ideal.groebner_basis() == gb
        assert [ideal.normal_form(p) for p in polys] == nfs
        assert all(type(r.lc) is int for r in ideal._reducers)


def test_rational_ideal_reduces_cyclo_coefficients_linearly():
    # the route of quotient._at_witness: over Q(zeta_24) the normal form of
    # sum_j P_j zeta^j by a rational ideal is sum_j NF(P_j) zeta^j
    from mckaydeform.exact import Cyclo
    ideal = Ideal(FRACTIONAL_IDEALS[0])
    rng = random.Random(71)
    for _ in range(4):
        parts = [_random_poly(rng, nterms=5, deg=3) * QQ(rng.randint(1, 5), 3)
                 for _ in range(8)]
        p = MPoly(V)
        for j, part in enumerate(parts):
            p = p + part * Cyclo.zeta(24, j)
        got = ideal.normal_form(p)
        nfs = [ideal.normal_form(part).terms for part in parts]
        want = {e: Cyclo(24, [nf.get(e, 0) for nf in nfs])
                for e in set().union(*nfs)}
        assert set(got.terms) == {e for e, c in want.items() if c}
        assert all(got.terms[e] == want[e] for e in got.terms)


def test_cyclo_ideal_matches_sympy_with_a_root_variable():
    # Q(sqrt3)[x, y, z] is Q[x, y, z, s]/(s^2 - 3); lex with s last keeps
    # the x, y, z order, so the normal forms agree with s for sqrt3
    import sympy as sp
    from mckaydeform.exact import split_quadratic
    r3 = sqrt3()
    gens = [x ** 2 - y * r3, y ** 2 + x * z * (r3 * 2) - 1,
            z ** 2 - x + r3 * QQ(1, 2)]
    ideal = Ideal(gens, order="lex")
    X, Y, Z, s = sp.symbols("x y z s")

    def lifted(p):
        out = 0
        for (i, j, k), c in p.terms.items():
            a, b = split_quadratic(c, r3)
            out += (sp.Rational(str(a)) + sp.Rational(str(b)) * s) \
                * X ** i * Y ** j * Z ** k
        return sp.expand(out)

    G = sp.groebner([lifted(g) for g in gens] + [s ** 2 - 3], X, Y, Z, s,
                    order="lex", domain=sp.QQ)
    rng = random.Random(73)
    for _ in range(4):
        p = _random_poly(rng, nterms=5, deg=3) \
            + _random_poly(rng, nterms=3, deg=2) * r3
        _, want = sp.reduced(lifted(p), G.exprs, X, Y, Z, s, order="lex",
                             domain=sp.QQ)
        assert sp.expand(lifted(ideal.normal_form(p)) - want) == 0


@pytest.mark.parametrize("label, power, weight, c", [
    ("B2", 4, "t4", 64),
    ("G2", 6, "t6", 11664),
])
def test_lex_elimination_gives_the_discriminant(label, power, weight, c):
    from mckaydeform.deform import family
    f = family(label).equation
    gb = Ideal([f] + [f.diff(v) for v in "xyz"], order="lex").groebner_basis()
    t2, tw = (MPoly.variable(f.vars, v) for v in ("t2", weight))
    assert t2 ** power - tw ** 2 * c in gb
