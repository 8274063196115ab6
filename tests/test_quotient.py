"""Quotient families: generators, pullbacks, certificates, discriminant."""

import numpy as np
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


CERTIFICATE_NAMES = {
    "B2": [f"{n} at (2s, 0, 0) mod s^2 = f4"
           for n in ("f", "df/dX", "df/dZ", "df/dW")],
    "C3": [f"{n} at (Xs, Ys, 0) mod cubic"
           for n in ("f", "df/dX", "df/dY", "df/dW")],
    "G2": [f"{n} vanishes on (X, 0, 0)" for n in ("f", "df/dX", "df/dZ")]
    + ["df/dY on the section is the stated cubic"],
}


@pytest.mark.parametrize("label", ("B2", "C3", "G2"))
def test_singular_locus_certificate_names(label):
    rep = verify_singular_locus(label)
    assert [c["check"] for c in rep["checks"]] == CERTIFICATE_NAMES[label]


def test_discriminant_b2_check_names():
    rep = discriminant_B2()
    assert [c["check"] for c in rep["checks"]] == [
        "origin singular when f4 = 0", "(0,0,s) singular when f2^2 = 4 f4"]


@pytest.mark.parametrize("label", ("B2", "C3", "G2"))
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
            root = np.sqrt(f4)
            found = {round(p.coords_numeric[0].real, 8)
                     + 1j * round(p.coords_numeric[0].imag, 8)
                     for p in rep.singular_points}
            for want in (2 * root, -2 * root):
                assert any(abs(w - want) < 1e-8 for w in found), (t2, t4)


def test_unknown_label():
    with pytest.raises(UnsupportedLabel):
        quotient_family("Q9")


def test_star2_equation_shape():
    eqn = g2_star2_equation()
    V = eqn.vars
    key = tuple(3 if n == "X" else (1 if n == "Y" else 0)
                for n in V.names)
    assert eqn.terms[key] == 1
