"""Quotient families: generators, pullbacks, certificates, discriminant."""

import cmath

import pytest

from mckaydeform.deform import analyze_hypersurface
from mckaydeform import quotient
from mckaydeform.exact import QQ, Cyclo
from mckaydeform.poly import MPoly
from mckaydeform.quotient import (UnsupportedLabel, discriminant_B2,
                                  g2_intermediate_generators,
                                  g2_star2_equation,
                                  non_semiuniversality_check,
                                  quotient_family, verify_g2_intermediate,
                                  verify_invariant_generators,
                                  verify_quotient_pullback,
                                  verify_singular_locus)


def test_b2_quotient_equation():
    qf = quotient_family("B2")
    V = qf.equation.vars
    X, Z, W, t2, t4 = (MPoly.variable(V, n) for n in V.names)
    f2 = t2
    f4 = t4 + t2 ** 2 * QQ(1, 8)
    expect = Z * (X ** 2 - 4 * Z ** 2) + W ** 2 - 4 * f2 * Z ** 2 \
        - 4 * f4 * Z
    assert qf.equation == expect
    assert str(qf.target_ade) == "D4"


def test_f4_quotient_equation_matches_printed_form():
    # built from the E6 rows without sqrt(6); the printed form at t5 = t9 = 0
    qf = quotient_family("F4")
    V = qf.equation.vars
    X, Y, Z, t2, t6, t8, t12 = (MPoly.variable(V, n) for n in V.names)
    expect = X ** 3 * QQ(-1, 4) + X * Y ** 3 + Z ** 2 \
        - t2 * X ** 2 * Y * QQ(1, 4) \
        + (t6 - t2 ** 3 * QQ(1, 8)) * X ** 2 * QQ(1, 48) \
        + (-t8 + t6 * t2 * QQ(1, 4) - t2 ** 4 * QQ(1, 192)) * X * Y \
        * QQ(1, 48) \
        + (t12 - t8 * t2 ** 2 * QQ(1, 8) - t6 ** 2 * QQ(1, 8)
           + t6 * t2 ** 3 * QQ(1, 96)) * X * QQ(1, 576)
    assert V.names == ("X", "Y", "Z", "t2", "t6", "t8", "t12")
    assert qf.equation == expect


def test_c3_quotient_coefficients():
    qf = quotient_family("C3")
    V = qf.equation.vars
    # A_{X^4} = t2/32: the X^4 t2 coefficient
    key = tuple(4 if n == "X" else (1 if n == "t2" else 0)
                for n in V.names)
    assert qf.equation.terms[key] == QQ(1, 32)
    key0 = tuple(5 if n == "t2" else 0 for n in V.names)
    assert qf.equation.terms[key0] == QQ(1, 13824)
    assert str(qf.target_ade) == "D6"


@pytest.mark.parametrize("label", ("B2", "B3", "C3", "G2", "F4"))
def test_invariant_generators(label):
    rep = verify_invariant_generators(label)
    assert rep["ok"], rep


@pytest.mark.parametrize("label", ("B2", "B3", "C3", "F4"))
def test_exact_pullbacks(label):
    rep = verify_quotient_pullback(label)
    assert rep["ok"] and rep["residual_terms"] == 0
    # the tier follows the map status: only G2's fitted map is exact-fit
    assert rep["map_status"] == "complete" and rep["tier"] == "exact"


def test_g2_intermediate_presentation():
    rep = verify_g2_intermediate()
    assert rep["ok"], rep


def test_g2_fit_and_pullback():
    qf = quotient_family("G2")
    data = g2_intermediate_generators()
    V = data["fam"].vars
    z, t2 = (MPoly.variable(V, n) for n in ("z", "t2"))
    assert qf.invariant_map["X"] == data["W"] - t2 ** 2 * QQ(3, 4)
    assert qf.invariant_map["Y"] == z * z
    assert qf.invariant_map["Z"] == data["Yg"] * z * QQ(1, 2)
    # the chain runs over Q(zeta_3): no coefficient needs a larger field
    for image in qf.invariant_map.values():
        assert all(c.n == 3 for c in image.terms.values()
                   if isinstance(c, Cyclo))
    rep = verify_quotient_pullback("G2")
    assert rep["ok"] and rep["residual_terms"] == 0
    assert rep["map_status"] == "fitted" and rep["tier"] == "exact-fit"


@pytest.mark.parametrize("entry", ("X", "Y", "Z"))
def test_g2_scaled_map_fails_pullback(entry, monkeypatch):
    stored = quotient._quotient_G2

    def scaled():
        qf = stored()
        qf.invariant_map[entry] = qf.invariant_map[entry] * QQ(2, 3)
        return qf

    monkeypatch.setattr(quotient, "_quotient_G2", scaled)
    rep = verify_quotient_pullback("G2")
    assert not rep["ok"] and rep["residual_terms"] > 0


def test_g2_image_moved_by_rho_fails_invariance(monkeypatch):
    # negative control on the Cyclo path: X + x is fixed by sigma (which
    # fixes x) and moved by rho (which sends x to y)
    stored = quotient._quotient_G2

    def shifted():
        qf = stored()
        x = MPoly.variable(qf.invariant_map["X"].vars, "x")
        qf.invariant_map["X"] = qf.invariant_map["X"] + x
        return qf

    monkeypatch.setattr(quotient, "_quotient_G2", shifted)
    rep = verify_invariant_generators("G2")
    failed = {(c["generator"], c["image"]) for c in rep["checks"]
              if not c["ok"]}
    assert failed == {("rho", "X")} and not rep["ok"]


LABELS = ("B2", "B3", "C3", "G2", "F4")
QUOTIENT_VARS = {"B2": "XZW", "B3": "XZW", "C3": "XYW", "G2": "XYZ",
                 "F4": "XYZ"}


@pytest.mark.parametrize("label", LABELS)
def test_singular_locus_certificate_names(label):
    rep = verify_singular_locus(label)
    assert [c["check"] for c in rep["checks"]] == [
        "R = F(P(s)) has a root over every t"] + [
        f"{n} at the image of P(s) mod R"
        for n in ["f"] + [f"df/d{v}" for v in QUOTIENT_VARS[label]]]


def _failed(rep):
    return [c["check"].split(" ")[0] for c in rep["checks"] if not c["ok"]]


def _patched(monkeypatch, change):
    stored = quotient.quotient_family

    def patched(label):
        qf = stored(label)
        change(qf)
        return qf
    monkeypatch.setattr(quotient, "quotient_family", patched)


@pytest.mark.parametrize("label", LABELS)
def test_singular_locus_fails_on_a_shifted_equation(label, monkeypatch):
    # negative control: t2 X / 7 added to the quotient equation; F4's X = x^2
    # is 0 at the fixed point, so there only df/dX sees it
    def shift(qf):
        V = qf.equation.vars
        qf.equation = qf.equation + MPoly.variable(V, "t2") \
            * MPoly.variable(V, "X") * QQ(1, 7)
    _patched(monkeypatch, shift)
    rep = verify_singular_locus(label)
    assert _failed(rep) == (["df/dX"] if label == "F4" else ["f", "df/dX"])
    assert not rep["ok"]


def test_singular_locus_fails_on_c3_without_the_shift(monkeypatch):
    # negative control: C3's Y image as yp^2, without its shift
    def unshifted(qf):
        x, y, t2 = (MPoly.variable(qf.source.vars, n)
                    for n in ("x", "y", "t2"))
        yp = x * QQ(1, 2) + y - t2 * QQ(1, 4)
        qf.invariant_map["Y"] = yp * yp
    _patched(monkeypatch, unshifted)
    assert _failed(verify_singular_locus("C3")) == ["f", "df/dX", "df/dY"]


def test_singular_locus_needs_a_root_over_every_t(monkeypatch):
    # negative control: F4's sigma scaling y by 2 t2 - 1 averages y = s to
    # t2 s, so R(s) is the true relation at t2 s.  Every vanishing check
    # still holds modulo it, but its leading coefficient is a multiple of
    # t2, and over t2 = 0 it has no root.
    def scaled(qf):
        V = qf.source.vars
        y, t2 = (MPoly.variable(V, n) for n in ("y", "t2"))
        qf.source.omega_action["sigma"]["y"] = y * (t2 * 2 - 1)
    _patched(monkeypatch, scaled)
    rep = verify_singular_locus("F4")
    assert _failed(rep) == ["R"] and not rep["ok"]


def test_quotient_family_calls_return_equal_but_independent_families():
    # each quotient family is built once per process: a caller's change to
    # its dicts or its source family's must not reach the next call
    first, second = quotient_family("F4"), quotient_family("F4")
    assert first == second and first is not second
    imap, sigma = dict(second.invariant_map), dict(
        second.source.omega_action["sigma"])
    first.invariant_map["X"] = first.invariant_map["Y"]
    first.source.omega_action["sigma"]["x"] = first.invariant_map["Z"]
    del first.source.omega_action["sigma"]["z"]
    third = quotient_family("F4")
    assert third.invariant_map == second.invariant_map == imap
    assert third.source.omega_action["sigma"] == sigma
    assert second.source.omega_action["sigma"] == sigma
    assert verify_invariant_generators("F4")["ok"]
    assert verify_quotient_pullback("F4")["ok"]


def test_discriminant_b2_check_names():
    rep = discriminant_B2()
    assert [c["check"] for c in rep["checks"]] == [
        "origin singular when f4 = 0", "(0,0,s) singular when f2^2 = 4 f4"]


@pytest.mark.parametrize("label", LABELS)
def test_singular_locus_certificates(label):
    rep = verify_singular_locus(label)
    assert rep["ok"], rep


def test_discriminant_b2():
    rep = discriminant_B2()
    assert rep["ok"]
    cond1, cond2 = rep["conditions"]
    V = cond1.vars
    t2, t4 = (MPoly.variable(V, n) for n in ("t2", "t4"))
    assert cond1 == t4 + t2 ** 2 * QQ(1, 8)
    assert cond2 == t2 ** 2 * QQ(1, 2) - 4 * t4
    # the origin of the base lies on both branches
    zero = {"t2": QQ(0), "t4": QQ(0)}
    assert not cond1.substitute(zero)
    assert not cond2.substitute(zero)


def test_discriminant_b2_certifies_the_conditions_it_reports(monkeypatch):
    # negative control: with f4 off the family's by t2^2/56, the reported
    # conditions are wrong, and neither witness is singular modulo them
    real = quotient._b_f_polys

    def shifted(r):
        fs = real(r)
        t2 = MPoly.variable(fs[4].vars, "t2")
        return {**fs, 4: fs[4] + t2 ** 2 * QQ(1, 56)}
    monkeypatch.setattr(quotient, "_b_f_polys", shifted)
    rep = discriminant_B2()
    assert [c["ok"] for c in rep["checks"]] == [False, False]
    assert rep["conditions"][0] == shifted(2)[4] and not rep["ok"]


def test_non_semiuniversality():
    expect = {"B2": (2, 4), "B3": (3, 5), "C3": (3, 6), "G2": (2, 7),
              "F4": (4, 7)}
    for label, (dim, rank) in expect.items():
        rep = non_semiuniversality_check(label)
        assert rep["ok"]
        assert (rep["base_dim"], rep["target_rank"]) == (dim, rank)


def test_quotient_special_fibre_types():
    expect = {"B2": ("D4", 4), "C3": ("D6", 6), "G2": ("E7", 7),
              "F4": ("E7", 7)}
    for label, (ade, tau) in expect.items():
        qf = quotient_family(label)
        rep = analyze_hypersurface(qf.special_fibre(), qf.quotient_vars)
        assert rep.global_tjurina == tau, label
        assert [p.ade for p in rep.singular_points] == [ade], label


def test_b2_quotient_grid_always_singular():
    # every fibre on a 5x5 rational grid is singular, at (+-2 sqrt(f4),0,0)
    qf = quotient_family("B2")
    grid = [QQ(k, 3) for k in (-2, -1, 0, 1, 2)]
    for t2 in grid:
        for t4 in grid:
            fibre = qf.equation.substitute({"t2": t2, "t4": t4})
            rep = analyze_hypersurface(fibre, qf.quotient_vars)
            assert not rep.is_smooth, (t2, t4)
            f4 = complex(QQ(t4) + QQ(t2) ** 2 / 8)
            root = cmath.sqrt(f4)
            found = {round(p.coords_numeric[0].real, 8)
                     + 1j * round(p.coords_numeric[0].imag, 8)
                     for p in rep.singular_points}
            for want in (2 * root, -2 * root):
                assert any(abs(w - want) < 1e-8 for w in found), (t2, t4)


def test_unknown_label():
    with pytest.raises(UnsupportedLabel):
        quotient_family("Q9")


def test_f4_pullback_sees_a_row_misplaced_in_family_e6_alone(monkeypatch):
    # _quotient_F4 builds its equation from e6_flat_coefficients apart from
    # family_E6, so the F4 pullback is the suites' check of where
    # family_E6 puts each row: Ax2 at x^2 y instead of x^2 fails it, while
    # the E6 and F4 families still pass their own checks
    from mckaydeform import deform
    from mckaydeform.cli import run
    monkeypatch.setattr(deform, "E6_MONOMIALS",
                        dict(deform.E6_MONOMIALS, Ax2=(2, 1)))
    assert quotient.E6_MONOMIALS["Ax2"] == (2, 0)
    assert verify_quotient_pullback("F4")["ok"] is False
    for label in ("E6", "F4"):
        assert run(["family", "--label", label])[0] == 0


def test_star2_equation_shape():
    eqn = g2_star2_equation()
    V = eqn.vars
    key = tuple(3 if n == "X" else (1 if n == "Y" else 0)
                for n in V.names)
    assert eqn.terms[key] == 1
