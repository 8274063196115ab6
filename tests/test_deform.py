"""Deformation families, coefficient identities, fibre analysis."""

import pytest

from mckaydeform import deform
from mckaydeform.deform import (UnsupportedLabel, analyze_fibre,
                                analyze_hypersurface, d4_mu_coefficients,
                                e6_flat_coefficients, e6_mu_coefficients,
                                family, fixed_parameter_locus,
                                special_fibre_normal_form,
                                verify_d4_coefficients,
                                verify_e6_coefficients, verify_equivariance,
                                verify_parameter_actions)
from mckaydeform.exact import QQ, rat, sqrt6
from mckaydeform.poly import MPoly, VarTable
from mckaydeform.rootdata import DiagramAutomorphism

ALL_LABELS = ("A3", "A5", "B2", "B3", "D4", "C3", "G2", "E6", "F4")
XYZ = ("x", "y", "z")


def test_family_labels_and_special_fibres():
    assert family("B2").special_fibre() == family("A3").special_fibre()
    assert family("G2").special_fibre() == family("D4").special_fibre()
    assert family("F4").special_fibre() == family("E6").special_fibre()
    with pytest.raises(UnsupportedLabel):
        family("H17")


def test_b2_equation_matches_printed_form():
    fam = family("B2")
    V = fam.vars
    x, y, z, t2, t4 = (MPoly.variable(V, n) for n in V.names)
    expect = z ** 4 + t2 * z ** 2 + (t4 + t2 ** 2 * QQ(1, 8)) - x * y
    assert fam.equation == expect


def test_c3_special_values():
    fam = family("C3")
    fibre = fam.fibre_equation({})
    V = fibre.vars
    x, y, z = (MPoly.variable(V, n) for n in ("x", "y", "z"))
    assert fibre == z ** 2 - x * y * (x + y)


def test_f4_special_fibre_value():
    fam = family("F4")
    fibre = fam.special_fibre()
    V = fibre.vars
    x, y, z = (MPoly.variable(V, n) for n in ("x", "y", "z"))
    assert fibre == x ** 4 * QQ(-1, 4) + y ** 3 + z ** 2


@pytest.mark.parametrize("label", ALL_LABELS)
def test_equivariance(label):
    rep = verify_equivariance(family(label))
    assert rep["ok"], rep


def test_e6_sigma_without_the_t5_flip_fails():
    # negative control on the Cyclo path: the sqrt(6) x y and sqrt(6) x
    # rows are odd in x, so sigma must negate t5 as well as t9
    fam = family("E6")
    sigma = {k: v for k, v in fam.omega_action["sigma"].items() if k != "t5"}
    fam.omega_action = {"sigma": sigma}
    rep = verify_equivariance(fam)
    failed = [c for c in rep["checks"] if not c["ok"]]
    assert [c["check"] for c in failed] == ["sigma preserves equation"]
    assert failed[0]["residual_terms"] > 0 and not rep["ok"]


@pytest.mark.parametrize("label", ("A3", "A5", "D4", "C3", "G2", "E6",
                                   "F4"))
def test_parameter_actions(label):
    rep = verify_parameter_actions(family(label))
    assert rep["ok"], rep


@pytest.mark.parametrize("label", ("D4", "C3", "G2"))
def test_parameter_actions_check_the_family_rho(label, monkeypatch):
    # the expected images come from the D4 family itself, so a wrong rho
    # coefficient in family_D4 fails rho: psi4
    built = deform.family_D4

    def mutated():
        fam = built()
        t4, t = (MPoly.variable(fam.vars, n) for n in ("t4", "t"))
        fam.param_actions["rho"]["t4"] = t4 * QQ(-1, 2) - 2 * t
        return fam

    monkeypatch.setattr(deform, "family_D4", mutated)
    rep = verify_parameter_actions(family(label))
    assert [c["check"] for c in rep["checks"] if not c["ok"]] == [
        "rho: psi4"]


@pytest.mark.parametrize("label", ("D4", "C3", "G2"))
def test_parameter_actions_read_rho_from_the_diagram(label, monkeypatch):
    # rho acts on mu as the z3 vertex permutation of omega_generators: its
    # inverse (3, 2, 4, 1) fixes psi2 and psi6 but not psi4 and psi
    table = deform.omega_generators

    def inverse_z3(t, name):
        if name == "z3":
            return [DiagramAutomorphism((3, 2, 4, 1))]
        return table(t, name)

    monkeypatch.setattr(deform, "omega_generators", inverse_z3)
    rep = verify_parameter_actions(family(label))
    assert [c["check"] for c in rep["checks"] if not c["ok"]] == [
        "rho: psi4", "rho: psi"]


def test_d4_family_equation_term_for_term():
    # the printed D4 equation, in the order its terms are written
    fam = family("D4")
    x, y, z, t2, t4, t6, t = (MPoly.variable(fam.vars, n)
                              for n in fam.vars.names)
    printed = z ** 2 - x * y * (x + y) + t2 * x * y * QQ(1, 2) + t * y \
        + (t + t4 * QQ(1, 2)) * x * QQ(1, 2) \
        - (t6 + t2 * t4 * QQ(1, 6) + t * t2 + t2 ** 3 * QQ(1, 108)) * QQ(1, 4)
    assert list(fam.equation.terms.items()) == list(printed.terms.items())


def test_fixed_parameter_loci():
    assert fixed_parameter_locus(family("A5")) == ["t3", "t5"]
    assert fixed_parameter_locus(family("D4")) == ["t", "t4"]
    assert fixed_parameter_locus(family("E6")) == ["t5", "t9"]


@pytest.mark.parametrize("label, params, gens", (
    ("B2", ("t2", "t4"), {"sigma"}),
    ("B3", ("t2", "t4", "t6"), {"sigma"}),
    ("C3", ("t2", "t4", "t6"), {"sigma"}),
    ("G2", ("t2", "t6"), {"sigma", "rho"}),
    ("F4", ("t2", "t6", "t8", "t12"), {"sigma"})))
def test_restricted_family_parameters_and_generators(label, params, gens):
    # the parameters the symmetry fixes, in the base family's order; only
    # G2 gains an action (rho) that exists downstairs alone
    fam = family(label)
    assert fam.restricted and fam.param_vars == params
    assert set(fam.omega_action) == gens
    assert fam.vars.names == ("x", "y", "z") + params


_D4_CHANGE = "X=-4^(-1/3) x, Y=-4^(1/6) (y+x/2), Z=z"
NORMAL_FORM_CHANGES = {"A3": "(X, Y, Z) = (z, x, y)",
                       "A5": "(X, Y, Z) = (z, x, y)",
                       "B2": "(X, Y, Z) = (z, x, y)",
                       "B3": "(X, Y, Z) = (z, x, y)",
                       "D4": _D4_CHANGE, "C3": _D4_CHANGE, "G2": _D4_CHANGE,
                       "E6": "x = (1+i) X", "F4": "x = (1+i) X"}


@pytest.mark.parametrize("label", ALL_LABELS)
def test_normal_forms(label):
    # the same report on every label family() accepts, whether the change
    # adjoins no root (A, B), 2^(1/3) (D4 type) or i (E6 type)
    gens = {"sigma": True, "rho": True} if label == "G2" else {"sigma": True}
    assert special_fibre_normal_form(family(label)) == {
        "label": label, "change": NORMAL_FORM_CHANGES[label],
        "relation_match": True, "action_match": True,
        "per_generator": gens, "ok": True}


def test_g2_normal_form_checks_both_generators():
    rep = special_fibre_normal_form(family("G2"))
    assert rep["per_generator"] == {"sigma": True, "rho": True}


def test_normal_form_rejects_a_wrong_action():
    # negative control: sigma fixing z still preserves the special fibre
    # relation's form but is not the Klein generator h
    fam = family("C3")
    fam.omega_action["sigma"]["z"] = MPoly.variable(fam.vars, "z")
    rep = special_fibre_normal_form(fam)
    assert rep["relation_match"]
    assert rep["action_match"] is False and not rep["ok"]
    assert rep["per_generator"] == {"sigma": False}


def test_normal_form_rejects_a_nonlinear_action():
    # negative control: sigma with z -> -z + x^2 transports to an action
    # that is not linear on (X, Y, Z), so it matches no row of the table
    fam = family("C3")
    x, z = (MPoly.variable(fam.vars, v) for v in ("x", "z"))
    fam.omega_action["sigma"]["z"] = -z + x ** 2
    rep = special_fibre_normal_form(fam)
    assert rep["relation_match"]
    assert rep["per_generator"] == {"sigma": False} and not rep["ok"]


def test_d4_coefficient_identities():
    rep = verify_d4_coefficients()
    assert rep["ok"], [c for c in rep["checks"] if not c["ok"]]


def test_d4_coefficient_A_value():
    coeffs = d4_mu_coefficients()
    V = coeffs["A"].vars
    m1, m2, m3, m4 = (MPoly.variable(V, n) for n in V.names)
    expect = -m1 * m2 - m2 * m3 - m2 * m4 - m2 ** 2 - (
        m1 * m4 + m1 * m3 + m3 * m4 + m1 ** 2 + m3 ** 2 + m4 ** 2
    ) * QQ(1, 2)
    assert coeffs["A"] == expect


def test_e6_coefficients_invariant():
    rep = verify_e6_coefficients()
    assert rep["ok"], [c for c in rep["checks"] if not c["ok"]]


def test_e6_flat_coefficient_table_golden():
    import json
    import pathlib
    coeffs = e6_flat_coefficients()
    payload = {k: v.to_json() for k, v in sorted(coeffs.items())}
    golden = pathlib.Path(__file__).with_name("golden_e6_coefficients.json")
    assert json.loads(golden.read_text()) == json.loads(
        json.dumps(payload))


def test_e6_mu_coefficients_are_rational():
    for name, p in e6_mu_coefficients().items():
        for c in p.terms.values():
            assert QQ(c) == c


def test_e6_small_rows_equal_the_rows_composed_in_mu():
    # the rows are composed in (p, q) and mapped to mu once; composing
    # them in mu from psi_E6_of_mu() gives the same polynomials
    from mckaydeform.flat import MU_VARS, SQRT6_VAR, psi_E6_of_mu
    from mckaydeform.poly import fold_root
    psi = psi_E6_of_mu()
    r = MPoly.variable(psi["psi5"].vars, SQRT6_VAR)
    got = e6_mu_coefficients()
    coeffs = e6_flat_coefficients()
    for name in ("Ax2y", "Axy", "Ax2"):
        row = coeffs[name].substitute(psi)
        if name == "Axy":
            row = row * r * QQ(1, 12)
        want = fold_root(row, SQRT6_VAR, 2, 6).extend(MU_VARS)
        assert got[name].terms == want.terms, name


def test_e6_ax_row_without_its_sqrt6_is_refused(monkeypatch):
    # negative control: Ax is odd in q, so without its factor r = sqrt(6)
    # one r is left after the fold and the row is not rational in mu
    ax = e6_flat_coefficients()["Ax"]
    monkeypatch.setattr(deform, "e6_flat_coefficients", lambda: {"Ax": ax})
    assert set(e6_mu_coefficients()) == {"Ax"}
    monkeypatch.setattr(deform, "E6_SQRT6_ROWS", {})
    with pytest.raises(ArithmeticError, match="Ax is not rational in mu"):
        e6_mu_coefficients()


def test_example_fibre_one_a1():
    V = VarTable(("x", "y", "z"))
    x, y, z = (MPoly.variable(V, n) for n in "xyz")
    f = z * z - x ** 3 + 3 * x * y * y + x * x + y * y
    rep = analyze_hypersurface(f, XYZ)
    assert rep.global_tjurina == 1
    point = rep.singular_points[0]
    assert point.ade == "A1" and point.exact
    assert point.coords_exact == (0, 0, 0)


def test_example_fibre_three_a1():
    V = VarTable(("x", "y", "z"))
    x, y, z = (MPoly.variable(V, n) for n in "xyz")
    f = z * z - x ** 3 + 3 * x * y * y + x * x + y * y - QQ(4, 27)
    rep = analyze_hypersurface(f, XYZ)
    assert rep.global_tjurina == 3
    assert [p.ade for p in rep.singular_points] == ["A1"] * 3
    xs = sorted(round(p.coords_numeric[0].real, 8)
                for p in rep.singular_points)
    assert xs == [round(-1 / 3, 8), round(-1 / 3, 8), round(2 / 3, 8)]
    ys = sorted(round(p.coords_numeric[1].real, 8)
                for p in rep.singular_points)
    assert abs(ys[0] + 3 ** -0.5) < 1e-8 and abs(ys[2] - 3 ** -0.5) < 1e-8
    # the rational point is split off its class and prints as rationals;
    # the other two are the roots of one quadratic
    data = [p.to_json() for p in rep.singular_points]
    assert data[2]["coords"] == ["2/3", "0", "0"] and "minpoly" not in data[2]
    assert data[0]["minpoly"] == data[1]["minpoly"] is not None


@pytest.fixture
def ideals_built(monkeypatch):
    """Every ``Ideal`` the analyzer builds, in order."""
    built = []

    class Recorded(deform.Ideal):
        def __init__(self, generators, *args, **kwargs):
            super().__init__(generators, *args, **kwargs)
            built.append(self)

    monkeypatch.setattr(deform, "Ideal", Recorded)
    return built


def test_morse_points_build_no_local_ideal(ideals_built):
    # Hessian corank 0 is A1 with Tjurina number 1: only the global
    # Jacobian ideal is built
    V = VarTable(("x", "y", "z"))
    x, y, z = (MPoly.variable(V, n) for n in "xyz")
    rep = analyze_hypersurface(z * z - x ** 3 + 3 * x * y * y + x * x
                               + y * y - QQ(4, 27), XYZ)
    assert [(p.ade, p.tjurina, p.exact) for p in rep.singular_points] == \
        [("A1", 1, True)] * 3
    assert len(ideals_built) == 1
    # two A1 points (0, 0, +-i): the roots a of a^2 + 1, at z = a
    rep = analyze_fibre(family("B2"), {"t2": rat(2), "t4": QQ(1, 2)})
    assert [(p.ade, p.tjurina, p.exact) for p in rep.singular_points] == \
        [("A1", 1, True)] * 2
    for p in rep.singular_points:
        assert p.minpoly == (1, 0, 1)
        assert p.coords_exact == ((0, 0), (0, 0), (0, 1))
    assert [round(p.coords_numeric[2].imag, 12)
            for p in rep.singular_points] == [-1, 1]
    assert len(ideals_built) == 2


# the special fibre of each family is the simple singularity it unfolds,
# one point at the origin; a restricted family's is its base family's
SPECIAL_FIBRES = [("A3", "A3", 3), ("A5", "A5", 5), ("B2", "A3", 3),
                  ("B3", "A5", 5), ("D4", "D4", 4), ("C3", "D4", 4),
                  ("G2", "D4", 4), ("F4", "E6", 6)]


@pytest.mark.parametrize("label, ade, tjurina", SPECIAL_FIBRES)
def test_special_fibre_is_its_simple_singularity(label, ade, tjurina):
    rep = analyze_fibre(family(label), {})
    assert rep.global_tjurina == tjurina
    [point] = rep.singular_points
    assert (point.ade, point.tjurina, point.exact) == (ade, tjurina, True)
    assert point.coords_exact == (0, 0, 0)


@pytest.mark.parametrize("height, origin, other", [
    # z^3 (z - 1)^2: A2 at the origin, A1 at z = 1
    (lambda z: z ** 3 * (z - 1) ** 2, ("A2", 2), (1, ("A1", 1))),
    # z^4 (z + 2)^2 (z - 1): A3 at the origin, A1 at z = -2, smooth at 1
    (lambda z: z ** 4 * (z + 2) ** 2 * (z - 1), ("A3", 3), (-2, ("A1", 1))),
], ids=["A2+A1", "A3+A1"])
def test_degenerate_point_beside_another(ideals_built, height, origin,
                                         other):
    # beside (f, df): the radical, which certifies that x + y + z tells the
    # points apart, and (f, df) plus its cube, which types them
    V = VarTable(("x", "y", "z"))
    x, y, z = (MPoly.variable(V, n) for n in "xyz")
    rep = analyze_hypersurface(x * x + y * y + height(z), XYZ)
    assert rep.global_tjurina == origin[1] + other[1][1]
    found = {p.coords_exact: (p.ade, p.tjurina)
             for p in rep.singular_points}
    assert found == {(0, 0, 0): origin, (0, 0, other[0]): other[1]}
    assert len(ideals_built) == 3


def _xyz():
    V = VarTable(("x", "y", "z"))
    return [MPoly.variable(V, n) for n in "xyz"]


# normal forms with their type and Tjurina number: A_k, D_k, E_k, and three
# beyond ADE (corank 3, X9 and J10)
TYPING_TABLE = {
    **{f"A{k}": (lambda x, y, z, k=k: x ** 2 + y ** 2 + z ** (k + 1),
                 f"A{k}", k) for k in range(1, 7)},
    **{f"D{k}": (lambda x, y, z, k=k: x ** 2 + y ** 2 * z + z ** (k - 1),
                 f"D{k}", k) for k in range(4, 8)},
    "E6": (lambda x, y, z: x ** 2 + y ** 3 + z ** 4, "E6", 6),
    "E7": (lambda x, y, z: x ** 2 + y ** 3 + y * z ** 3, "E7", 7),
    "E8": (lambda x, y, z: x ** 2 + y ** 3 + z ** 5, "E8", 8),
    "x3+y3+z3": (lambda x, y, z: x ** 3 + y ** 3 + z ** 3,
                 "unclassified", 8),
    "z2+x4+y4": (lambda x, y, z: z ** 2 + x ** 4 + y ** 4,
                 "unclassified", 9),
    "z2+x3+y6": (lambda x, y, z: z ** 2 + x ** 3 + y ** 6,
                 "unclassified", 10),
}


@pytest.mark.parametrize("name", TYPING_TABLE)
def test_normal_form_types(name):
    form, ade, tau = TYPING_TABLE[name]
    rep = analyze_hypersurface(form(*_xyz()), XYZ)
    assert rep.global_tjurina == tau
    assert [(p.coords_exact, p.ade, p.tjurina)
            for p in rep.singular_points] == [((0, 0, 0), ade, tau)]


@pytest.mark.parametrize("name", ("A1", "A3", "A4", "A5", "D4", "D5", "D6",
                                  "E6", "E7", "E8"))
def test_sheared_normal_form_types(name):
    # x -> x + y, y -> y - z, z -> z + 1 moves the point to (1, -1, -1)
    # and leaves no variable in which it is a Jordan block of its own
    form, ade, tau = TYPING_TABLE[name]
    x, y, z = _xyz()
    rep = analyze_hypersurface(form(x + y, y - z, z + 1), XYZ)
    assert [(p.coords_exact, p.ade, p.tjurina)
            for p in rep.singular_points] == [((1, -1, -1), ade, tau)]


def test_points_x_plus_y_plus_z_cannot_tell_apart(ideals_built):
    # theta = x + y + z takes the value 0 at (1, -1, 0) and (-1, 1, 0):
    # the radical shows four points, and x + 2y + 4z tells them apart
    x, y, z = _xyz()
    rep = analyze_hypersurface(z ** 2 + (x ** 2 - 1) ** 2 + (y ** 2 - 1) ** 2,
                               XYZ)
    assert [(p.coords_exact, p.ade, p.minpoly)
            for p in rep.singular_points] == [
        ((-1, -1, 0), "A1", None), ((-1, 1, 0), "A1", None),
        ((1, -1, 0), "A1", None), ((1, 1, 0), "A1", None)]
    assert len(ideals_built) == 2


def test_conjugate_degenerate_points_form_one_class():
    # two A2 points at z = +-sqrt 2, the roots of a^2 - 2
    x, y, z = _xyz()
    rep = analyze_hypersurface(x ** 2 + y ** 2 + (z ** 2 - 2) ** 3, XYZ)
    assert rep.global_tjurina == 4
    for p in rep.singular_points:
        assert (p.ade, p.tjurina, p.minpoly) == ("A2", 2, (-2, 0, 1))
        assert p.coords_exact == ((0, 0), (0, 0), (0, 1))
    assert [round(p.coords_numeric[2].real, 12)
            for p in rep.singular_points] == [round(-2 ** 0.5, 12),
                                              round(2 ** 0.5, 12)]


def test_points_over_a_cyclotomic_field():
    # coefficients in Q(zeta_24): an A2 point at the origin and an A1 point
    # at z = sqrt 6, a root of a linear factor over the field
    x, y, z = _xyz()
    rep = analyze_hypersurface(x ** 2 + y ** 2 + z ** 3 * (z - sqrt6()) ** 2,
                               XYZ)
    assert [(p.coords_exact, p.ade, p.minpoly)
            for p in rep.singular_points] == [
        ((0, 0, 0), "A2", None), ((0, 0, sqrt6()), "A1", None)]


@pytest.mark.parametrize("label", ("F4", "E6"))
def test_a3_point_of_a_triple_root(label):
    # x's multiplication matrix has a triple eigenvalue 0, which a float
    # eigenvalue solver splits by about 5e-6
    rep = analyze_fibre(family(label), {"t2": rat(-6), "t8": QQ(27, 2)})
    assert rep.global_tjurina == 3
    assert [(p.coords_exact, p.ade, p.tjurina)
            for p in rep.singular_points] == [((0, QQ(-3, 8), 0), "A3", 3)]


def test_special_fibre_d4():
    V = VarTable(("x", "y", "z"))
    x, y, z = (MPoly.variable(V, n) for n in "xyz")
    rep = analyze_hypersurface(z * z - x ** 3 + 3 * x * y * y, XYZ)
    assert rep.global_tjurina == 4
    assert rep.singular_points[0].ade == "D4"


def test_smooth_fibre():
    V = VarTable(("x", "y", "z"))
    x, y, z = (MPoly.variable(V, n) for n in "xyz")
    rep = analyze_hypersurface(z * z - x * y + 1, XYZ)
    assert rep.is_smooth and rep.global_tjurina == 0


def test_c3_family_fibre_at_zero():
    rep = analyze_fibre(family("C3"), {})
    assert rep.global_tjurina == 4
    assert rep.singular_points[0].ade == "D4"


def test_b2_fibre_with_rational_parameters():
    rep = analyze_fibre(family("B2"), {"t2": rat(1), "t4": QQ(-1, 8)})
    # f4 = t4 + t2^2/8 = 0 branch: singular at the origin
    assert not rep.is_smooth
    origin = [p for p in rep.singular_points
              if max(abs(c) for c in p.coords_numeric) < 1e-9]
    assert origin


def test_float_parameters_are_refused():
    # parameters must be exact: a float is never rounded to a rational
    with pytest.raises(TypeError):
        analyze_fibre(family("B2"), {"t2": 1.0, "t4": QQ(-1, 8)})


def test_a5_family_fibre_generic_smooth():
    rep = analyze_fibre(family("B3"),
                        {"t2": rat(1), "t4": QQ(1, 3), "t6": QQ(1, 5)})
    assert isinstance(rep.global_tjurina, (int, str))


def test_report_json_shape():
    rep = analyze_fibre(family("C3"), {})
    data = rep.to_json()
    assert data["global_tjurina"] == 4 and data["smooth"] is False
    assert data["points"][0]["ade"] == "D4"


@pytest.mark.parametrize("label, build, verify, row", [
    ("D4", "d4_mu_coefficients", verify_d4_coefficients, "B"),
    ("E6", "e6_mu_coefficients", verify_e6_coefficients, "Ax2"),
])
def test_a_perturbed_row_fails_where_substitution_fails(
        monkeypatch, coweight_subs, label, build, verify, row):
    # negative control: one term of one row is off by 1; exactly the
    # reflections under which substitution moves that row must fail
    from mckaydeform.rootdata import parse_type
    t = parse_type(label)
    coeffs = getattr(deform, build)()
    p = coeffs[row]
    e = min(p.terms, key=lambda e: sum(1 for k in e if k))
    perturbed = p + MPoly(p.vars, {e: QQ(1)})
    monkeypatch.setattr(deform, build, lambda: {**coeffs, row: perturbed})
    rep = verify()
    failed = {c["check"] for c in rep["checks"]
              if not c["ok"] and "invariant" in c["check"]}
    moved = {f"{row} invariant under r_{j}" for j in range(1, t.rank + 1)
             if perturbed.substitute(coweight_subs(t, j, p.vars.names))
             != perturbed}
    assert failed == moved and 0 < len(moved) < t.rank and not rep["ok"]
