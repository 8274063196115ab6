"""Flat coordinate systems and their invariance properties."""

import random

import pytest

from mckaydeform import flat
from mckaydeform.exact import QQ, Cyclo, imag_unit, rref, sqrt2, sqrt3
from mckaydeform.flat import (FRAME_GENERATOR_KEYS, MU_VARS, PQ_VARS,
                              PQ_WEIGHTS, PQR_VARS, SQRT6_VAR, XY_VARS,
                              FlatSystem, e6_tower, e6_xy_of_mu,
                              elementary_symmetric, epsilon_from_psi,
                              flat_coords_A, flat_coords_D, flat_coords_E6,
                              frame_reflection_subs, lambda_table,
                              pochhammer, pq_in_xy, psi_A_in_lambda,
                              psi_D_in_xi, psi_E6_in_xy, psi_E6_of_mu,
                              verify_w_invariance, weighted_degrees,
                              xi_table)
from mckaydeform.poly import MPoly, VarTable, fold_root


def test_pochhammer():
    assert pochhammer(QQ(1, 6), 2) == QQ(7, 36)
    assert pochhammer(QQ(5), 0) == 1


def test_a_type_low_degrees():
    fs = flat_coords_A(2)
    coord = {name: p for _, name, p in fs.coords}
    V = fs.natural_vars
    e2 = MPoly.variable(V, "eps2")
    e4 = MPoly.variable(V, "eps4")
    assert coord["psi2"] == e2
    assert coord["psi3"] == MPoly.variable(V, "eps3")
    assert coord["psi4"] == e4 - e2 * e2 * QQ(1, 8)


def test_a_type_no_constant_term():
    for r in (2, 3):
        fs = flat_coords_A(r)
        for _, _, p in fs.coords:
            assert not any(sum(e) == 0 for e in p.terms)


def test_epsilon_round_trip():
    for r in (2, 3):
        fs = flat_coords_A(r)
        psi_sub = {name: p for _, name, p in fs.coords}
        for i, name, f in epsilon_from_psi(r):
            back = f.substitute(psi_sub)
            assert back == MPoly.variable(fs.natural_vars, f"eps{i}")


def test_epsilon_from_psi_values():
    eps = dict((i, p) for i, _, p in epsilon_from_psi(2))
    V = eps[2].vars
    p2 = MPoly.variable(V, "psi2")
    p4 = MPoly.variable(V, "psi4")
    assert eps[2] == p2
    assert eps[4] == p4 + p2 * p2 * QQ(1, 8)


def test_d4_flat_list():
    fs = flat_coords_D(3)
    coord = {name: p for _, name, p in fs.coords}
    V = fs.natural_vars
    x2, x4, x6 = (MPoly.variable(V, f"x{i}") for i in (2, 4, 6))
    assert coord["psi2"] == x2
    assert coord["psi4"] == x4 - x2 ** 2 * QQ(1, 4)
    assert coord["psi6"] == x6 - x2 * x4 * QQ(1, 6) \
        + x2 ** 3 * QQ(7, 216)
    # degree 2 in the x variables
    assert max(sum(e) for e in coord["psi4"].terms) == 2


def test_d_psi_is_product():
    psis = psi_D_in_xi(3)
    ones = {f"xi{i}": 1.0 for i in range(1, 5)}
    assert abs(psis["psi"].evaluate_numeric(ones) - 1) < 1e-15


def test_e6_homogeneity_degrees():
    fs = flat_coords_E6()
    assert [d for d, _, _ in fs.coords] == [2, 5, 6, 8, 9, 12]
    for d, _, p in fs.coords:
        assert weighted_degrees(p, PQ_WEIGHTS) == {d}


def test_e6_flat_coordinates_are_built_once_and_shared():
    fs = flat_coords_E6()
    assert flat_coords_E6() is fs
    assert isinstance(fs.coords, tuple)
    assert fs == flat_coords_E6.__wrapped__()


def test_e6_psi2_is_A():
    fs = flat_coords_E6()
    coord = {name: p for _, name, p in fs.coords}
    tower = e6_tower()
    assert coord["psi2"] == tower["A"]
    a = sum((MPoly.variable(PQ_VARS, f"p{i}") for i in (1, 2, 3)),
            MPoly(PQ_VARS))
    assert tower["A"] == a


def test_e6_invariance_under_plane_reflection():
    # s_(3,0,0) is y1 -> -y1; every flat coordinate is even in y1
    xy = psi_E6_in_xy()
    subs = frame_reflection_subs((3, 0, 0))
    for name, p in xy.items():
        assert (p.substitute(subs) - p).is_zero()


def test_e6_full_frame_invariance():
    fs = flat_coords_E6()
    xy = psi_E6_in_xy()
    gens = [(str(k), frame_reflection_subs(k))
            for k in FRAME_GENERATOR_KEYS]
    rep = verify_w_invariance(fs, gens, expand=xy)
    assert rep["ok"]


def test_frame_verdicts_match_the_cyclo_substitution():
    # the 36 verdicts of the s^2 = 3 route against MPoly.substitute run
    # directly with the Cyclo-coefficient substitutions
    fs = flat_coords_E6()
    xy = psi_E6_in_xy()
    for k in FRAME_GENERATOR_KEYS:
        subs = frame_reflection_subs(k)
        rep = verify_w_invariance(fs, [(str(k), subs)], expand=xy)
        want = [xy[name].substitute(subs) == xy[name]
                for _, name, _ in fs.coords]
        assert [c["ok"] for c in rep["checks"]] == want


def _sheared_sqrt3_generator():
    # (1, 0, 0) has sqrt(3) entries; y1 += x1 makes it non-orthogonal
    subs = dict(frame_reflection_subs((1, 0, 0)))
    subs["y1"] = subs["y1"] + MPoly.variable(XY_VARS, "x1")
    return subs


def test_sheared_sqrt3_generator_moves_every_coordinate():
    rep = verify_w_invariance(flat_coords_E6(),
                              [("sheared", _sheared_sqrt3_generator())],
                              expand=psi_E6_in_xy())
    assert [c["ok"] for c in rep["checks"]] == [False] * 6


def test_frame_check_multiplies_no_cyclo_inside_substitute(monkeypatch):
    fs = flat_coords_E6()
    xy = psi_E6_in_xy()
    gens = [(str(k), frame_reflection_subs(k)) for k in FRAME_GENERATOR_KEYS]
    gens.append(("sheared", _sheared_sqrt3_generator()))
    inside, count = [False], [0]
    substitute, cyclo_mul = MPoly.substitute, Cyclo.__mul__

    def traced_substitute(self, bindings):
        inside[0] = True
        try:
            return substitute(self, bindings)
        finally:
            inside[0] = False

    def counted_mul(self, other):
        count[0] += inside[0]
        return cyclo_mul(self, other)

    monkeypatch.setattr(MPoly, "substitute", traced_substitute)
    monkeypatch.setattr(Cyclo, "__mul__", counted_mul)
    rep = verify_w_invariance(fs, gens, expand=xy)
    assert len(rep["checks"]) == 42 and count[0] == 0


def test_frame_check_refuses_a_coefficient_outside_q_sqrt3():
    subs = dict(frame_reflection_subs((3, 0, 0)))
    subs["x1"] = subs["x1"] * sqrt2()
    with pytest.raises(ValueError):
        verify_w_invariance(flat_coords_E6(), [("sqrt2", subs)],
                            expand=psi_E6_in_xy())


def test_the_plane_generators_fix_p_and_q_and_333_is_a_rational_reflection():
    # route 1 rests on the five W(A2)^3 generators fixing the six natural
    # variables; (3, 3, 3) moves each of them and goes to its mirror
    natural = pq_in_xy()
    for k in FRAME_GENERATOR_KEYS[:5]:
        subs = frame_reflection_subs(k)
        assert all(n.substitute(subs) == n for n in natural.values()), k
    subs = frame_reflection_subs((3, 3, 3))
    assert all(n.substitute(subs) != n for n in natural.values())
    names, c, alpha = flat._rational_reflection(subs)
    assert names == XY_VARS.names and c == [1, 0, 1, 0, 1, 0]
    assert alpha == [QQ(2, 3) * k for k in c]


def _random_reflection(rng, orthogonal):
    """s = I - c alpha^T on (x, y), alpha(c) = 2: c an int vector on one to
    three variables, alpha 2 c / |c|^2 or a random rational form; with the
    linear form alpha(v)."""
    c = [0] * 6
    for i in rng.sample(range(6), rng.randint(1, 3)):
        c[i] = rng.choice((-2, -1, 1, 2))
    raw, dot = c, 0
    while not dot:
        if not orthogonal:
            raw = [QQ(rng.randint(-3, 3), rng.randint(1, 3))
                   * (rng.random() < 0.5) for _ in c]
        dot = sum(a * k for a, k in zip(raw, c))
    x = [MPoly.variable(XY_VARS, v) for v in XY_VARS.names]
    form = sum((v * (QQ(2 * a) / dot) for v, a in zip(x, raw) if a),
               MPoly(XY_VARS))
    return {v: x[i] - form * c[i] for i, v in enumerate(XY_VARS.names)}, form


@pytest.mark.parametrize("seed", range(6))
def test_mirror_verdicts_match_the_substitution(seed):
    # seeded rational reflections, orthogonal on even seeds: on the six
    # psi, on psi + psi o s (invariant, s being an involution) and on that
    # plus alpha^deg (invariant exactly at even degree)
    rng = random.Random(3700 + seed)
    subs, form = _random_reflection(rng, seed % 2 == 0)
    assert flat._rational_reflection(subs) is not None
    fs, xy = flat_coords_E6(), psi_E6_in_xy()
    moved = {n: xy[n].substitute(subs) for _, n, _ in fs.coords}
    fixed = {n: xy[n] + moved[n] for n in moved}
    bumped = {n: fixed[n] + form ** d for d, n, _ in fs.coords}
    for expand, want in (
            (xy, [moved[n] == xy[n] for n in moved]), (fixed, [True] * 6),
            (bumped, [bumped[n].substitute(subs) == bumped[n]
                      for n in moved])):
        rep = verify_w_invariance(fs, [("s", subs)], expand=expand)
        assert [c["ok"] for c in rep["checks"]] == want


def test_an_expand_off_p_and_q_falls_back_to_substitution():
    xy = dict(psi_E6_in_xy())
    xy["psi8"] = xy["psi8"] + MPoly.variable(XY_VARS, "x1") ** 8
    subs = frame_reflection_subs((1, 0, 0))
    rep = verify_w_invariance(flat_coords_E6(), [("(1, 0, 0)", subs)],
                              expand=xy)
    got = [c["ok"] for c in rep["checks"]]
    assert got == [True, True, True, False, True, True]
    assert got == [xy[n].substitute(subs) == xy[n] for n in sorted(
        xy, key=lambda n: int(n[3:]))]


def test_a_coordinate_off_the_cache_is_composed_on_the_fly(monkeypatch):
    # psi8 with 5/191 for 5/192 is composed with (p, q)(x, y) once per
    # call; the five cached coordinates are not composed again
    t = e6_tower()
    psi8 = t["H"] - t["A"] * t["C"] * QQ(1, 4) + t["A"] ** 4 * QQ(5, 191)
    fs = flat_coords_E6()
    coords = [(d, n, psi8 if n == "psi8" else p) for d, n, p in fs.coords]
    system = FlatSystem(fs.dtype, fs.coxeter_number, coords, PQ_VARS)
    xy = dict(psi_E6_in_xy())
    xy["psi8"] = psi8.substitute(pq_in_xy())
    gens = [(str(k), frame_reflection_subs(k)) for k in FRAME_GENERATOR_KEYS]
    flat._pq_route()
    composed = []
    real = flat.pq_in_xy
    monkeypatch.setattr(flat, "pq_in_xy",
                        lambda: composed.append(1) or real())
    rep = verify_w_invariance(system, gens, expand=xy)
    assert len(composed) == 1
    got = [c["ok"] for c in rep["checks"] if c["coordinate"] == "psi8"]
    assert got == [xy["psi8"].substitute(subs) == xy["psi8"]
                   for _, subs in gens]


def _xy(name):
    return MPoly.variable(XY_VARS, name)


def _fixed_by(p, subs):
    """The substitution verdict; unbound variables move to the end of the
    result's table."""
    moved = p.substitute(subs)
    return moved == p.extend(moved.vars)


@pytest.mark.parametrize("subs", [
    {"x1": _xy("y1"), "y1": _xy("x1")},
    {"x1": _xy("x2"), "y1": _xy("y2"), "x2": _xy("x1"), "y2": _xy("y1")},
    {"x1": -_xy("x1")},
    {"x1": -_xy("x1"), "y1": -_xy("y1")},
    {"x1": _xy("x1") + _xy("y1")},
    {"x1": _xy("x1") * 3},
], ids=["x1<->y1", "plane-swap", "x1->-x1", "half-turn", "transvection",
        "x1->3x1"])
def test_generators_off_w_a2_cubed_match_the_substitution(subs):
    # no coordinate to compose: were a control decided on p and q, F o N
    # would be asked of None and raise.  The last two are I - c alpha^T
    # with alpha(c) = 0 and -2, no reflections
    fs, xy = flat_coords_E6(), psi_E6_in_xy()
    blind = FlatSystem(fs.dtype, fs.coxeter_number,
                       [(d, n, None) for d, n, _ in fs.coords], PQ_VARS)
    rep = verify_w_invariance(blind, [("control", subs)], expand=xy)
    assert [c["ok"] for c in rep["checks"]] == [
        _fixed_by(xy[n], subs) for _, n, _ in fs.coords]

def _random_over_root(rng, vars, nterms, deg, k=2):
    """Random rational polynomial on ``vars`` (last variable the root) of
    degree below k in the root."""
    p = MPoly(vars)
    for _ in range(nterms):
        e = tuple(rng.randint(0, deg) for _ in range(len(vars) - 1))
        c = QQ(rng.randint(-4, 4), rng.randint(1, 3))
        p = p + MPoly(vars, {e + (rng.randint(0, k - 1),): c})
    return p


def _fold_against_cyclo(root, c, value, seed):
    # a substitution over Q(a), a^2 = c, run with a as a variable and folded
    # equals the same substitution run on Cyclo coefficients, once a is
    # replaced by its value
    rng = random.Random(seed)
    V = VarTable(("x", "y", "z", root))
    a = MPoly.variable(VarTable((root,)), root)
    to_cyclo = {root: value}
    for _ in range(12):
        p = _random_over_root(rng, V, 6, 3)
        subs = {v: _random_over_root(rng, V, 3, 2) for v in "xyz"}
        folded = fold_root(p.substitute({**subs, root: a}), root, 2, c)
        assert max((e[-1] for e in folded.terms), default=0) <= 1
        generic = p.substitute(to_cyclo).substitute(
            {v: b.substitute(to_cyclo) for v, b in subs.items()})
        assert folded.substitute(to_cyclo) == generic


def test_fold_matches_the_cyclo_substitution():
    _fold_against_cyclo("s", 3, sqrt3(), 31)


def test_fold_by_i_matches_the_cyclo_substitution():
    _fold_against_cyclo("i", -1, imag_unit(), 37)


def test_fold_by_a_cube_root_matches_sympy():
    # a^3 = 2: the fold of a product is its remainder modulo a^3 - 2
    import sympy
    rng = random.Random(41)
    V = VarTable(("x", "y", "a"))
    sx, sy, sa = sympy.symbols("x y a")
    for _ in range(12):
        p, q = (_random_over_root(rng, V, 5, 3, k=3) for _ in range(2))
        folded = fold_root(p * q, "a", 3, 2)
        want = sympy.Poly(sympy.rem(sympy.expand(_sympy(p, sx, sy, sa)
                                                 * _sympy(q, sx, sy, sa)),
                                    sa ** 3 - 2, sa), sx, sy, sa)
        assert {e: sympy.Rational(c.numerator, c.denominator)
                for e, c in folded.terms.items()} == dict(want.terms())


def _sympy(p, *symbols):
    import sympy
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.prod([s ** k for s, k in zip(symbols, e)])
                for e, c in p.terms.items()), sympy.Integer(0))


def test_fold_square_reduces_powers():
    V = VarTable(("x", "a"))
    x, a = (MPoly.variable(V, n) for n in ("x", "a"))
    assert fold_root(a ** 5 * x + a ** 2, "a", 2, 6) == a * x * 36 + 6
    assert fold_root(a ** 2 - 6, "a", 2, 6).is_zero()
    assert fold_root(a ** 7 * x + a ** 3, "a", 3, 2) == a * x * 4 + 2


def test_a_type_weyl_invariance_under_transpositions():
    r = 2
    psis = psi_A_in_lambda(r)
    LV = lambda_table(r)
    for k in range(3):
        swap = {f"lam{k}": MPoly.variable(LV, f"lam{k + 1}"),
                f"lam{k + 1}": MPoly.variable(LV, f"lam{k}")}
        for name, p in psis.items():
            moved = p.substitute(swap)
            assert (moved.extend(p.vars) - p).is_zero() \
                or moved == p


def test_d_type_sign_change_behaviour():
    psis = psi_D_in_xi(3)
    XV = xi_table(3)
    even = {"xi3": -MPoly.variable(XV, "xi3"),
            "xi4": -MPoly.variable(XV, "xi4")}
    for name, p in psis.items():
        assert (p.substitute(even) - p).is_zero()
    # a single sign change flips the odd coordinate: expected non-invariance
    single = {"xi4": -MPoly.variable(XV, "xi4")}
    assert (psis["psi"].substitute(single) + psis["psi"]).is_zero()
    assert (psis["psi2"].substitute(single) - psis["psi2"]).is_zero()


def test_a_type_sigma_linearity():
    # sigma: psi_i -> (-1)^i psi_i through lambda -> reversed-negated
    for r in (2, 3):
        psis = psi_A_in_lambda(r)
        LV = lambda_table(r)
        n = 2 * r
        subs = {f"lam{i}": -MPoly.variable(LV, f"lam{n - 1 - i}")
                for i in range(n)}
        for i in range(2, n + 1):
            p = psis[f"psi{i}"]
            assert (p.substitute(subs) - p * QQ(-1) ** i).is_zero()


def test_algebraic_independence_at_random_point():
    # Jacobian of the A3 flat coordinates at a rational point has full rank
    r = 2
    psis = psi_A_in_lambda(r)
    LV = lambda_table(r)
    rng = random.Random(2)
    point = {f"lam{i}": QQ(rng.randint(1, 9), 7) for i in range(2 * r)}
    rows = []
    for i in range(2, 2 * r + 1):
        p = psis[f"psi{i}"]
        rows.append([p.diff(f"lam{j}").substitute(point).terms.get((), QQ(0))
                     for j in range(2 * r)])
    _, pivots = rref(rows, 2 * r)
    assert len(pivots) == 2 * r - 1


@pytest.fixture(scope="module")
def psi_mu():
    return psi_E6_of_mu()


def test_psi_mu_parity_structure(psi_mu):
    # psi5 and psi9 are r = sqrt(6) times rational polynomials, the others
    # free of r
    for name, p in psi_mu.items():
        r = p.vars.index[SQRT6_VAR]
        assert {e[r] for e in p.terms} == (
            {1} if name in ("psi5", "psi9") else {0}), name


def test_psi_mu_equals_the_parity_split_substitution(psi_mu):
    # each term's q-degree b split as 6^(b // 2) r^(b % 2) by hand, then
    # one substitution of all six bindings: the polynomials of
    # psi_E6_of_mu's r tag and fold
    xs, ys = e6_xy_of_mu()
    subs = {}
    for i, (x, y) in enumerate(zip(xs, ys), 1):
        subs[f"p{i}"] = x * x * 6 + y * y * 2
        subs[f"q{i}"] = x ** 3 * QQ(2) - x * (y * y) * 2
    for _, name, poly in flat_coords_E6().coords:
        part = MPoly(PQR_VARS)
        for e, c in poly.terms.items():
            b = e[3] + e[4] + e[5]
            part.terms[e + (b % 2,)] = c * 6 ** (b // 2)
        got = psi_mu[name]
        assert set(got.vars.names) == set(MU_VARS.names) | {SQRT6_VAR}
        assert got.terms == part.substitute(subs).extend(got.vars).terms, \
            name


def test_psi_mu_maps_any_pq_polynomials(psi_mu):
    # the flat coordinates on the (p, q, r) table map as in the default
    # call, and an r a term already has adds to the r of its q-degree
    r = MPoly.variable(PQR_VARS, SQRT6_VAR)
    coords = {name: p.extend(PQR_VARS)
              for _, name, p in flat_coords_E6().coords}
    got = psi_E6_of_mu(coords)
    assert got.keys() == psi_mu.keys()
    for name, p in psi_mu.items():
        assert got[name] == p, name
    for name in ("psi2", "psi5"):
        got = psi_E6_of_mu({name: coords[name] * r})[name]
        p = psi_mu[name]
        want = fold_root(p * MPoly.variable(p.vars, SQRT6_VAR),
                         SQRT6_VAR, 2, 6)
        assert got == want.extend(got.vars), name


def test_elementary_symmetric():
    V = VarTable(("a", "b", "c"))
    e2 = elementary_symmetric(V, 2)
    assert len(e2.terms) == 3
    assert {sum(e) for e in e2.terms} == {2}
