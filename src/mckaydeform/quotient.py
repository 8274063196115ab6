"""Quotients of the restricted families by their symmetry groups.

For each of B_r, C3, G2, F4 the invariant generators, the quotient
hypersurface equation, and its relation to the source family are stored
and verified:

* B_r and C3: the full invariant-theory substitution chain is in closed
  form, so the quotient equation pulls back to an exact multiple of the
  family equation (checked by reduction).
* F4: the invariant map (X, Y, Z) -> (x^2, y, x z) reproduces the quotient
  equation times x^2 exactly.
* G2: the intermediate presentation (eigenbasis cube invariants) is
  verified exactly; the last, unpublished change of variables is recovered
  by fitting an invertible weighted-linear map from the eliminated
  presentation onto the printed normal form, making the pullback exact.

Also here: the singular-section certificates behind the everywhere-
singular propositions, and the two-branch discriminant of the B2 case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .deform import UnsupportedLabel, family, _full_subs
from .exact import QQ, imag_unit, omega as omega_scalar, sqrt_rational
from .flat import epsilon_from_psi
from .poly import Ideal, MPoly, VarTable, equal_mod_vars
from .rootdata import DynkinType


class PullbackMismatch(AssertionError):
    pass


@dataclass
class QuotientFamily:
    source_label: str
    quotient_vars: tuple
    param_vars: tuple
    equation: MPoly
    invariant_map: dict      # quotient var -> MPoly in source variables
    map_status: str          # 'complete' | 'fitted' | 'partial'
    target_ade: DynkinType

    def special_fibre(self) -> MPoly:
        subs = {v: QQ(0) for v in self.param_vars}
        return self.equation.substitute(subs)


def _b_f_polys(r: int) -> dict:
    """f_{2i}(t_2, .., t_{2r}): elementary symmetric in flat coordinates
    with the odd coordinates set to zero."""
    out = {}
    rename = {f"psi{i}": f"t{i}" for i in range(2, 2 * r + 1)}
    kill = {f"t{i}": QQ(0) for i in range(3, 2 * r + 1, 2)}
    for i, _, f in epsilon_from_psi(r):
        if i % 2 == 0:
            out[i] = f.rename(rename).substitute(kill)
    return out


def quotient_family(label: str) -> QuotientFamily:
    label = label.upper()
    if label.startswith("B"):
        return _quotient_B(int(label[1:]))
    if label == "C3":
        return _quotient_C3()
    if label == "G2":
        return _quotient_G2()
    if label == "F4":
        return _quotient_F4()
    raise UnsupportedLabel(label)


def _quotient_B(r: int) -> QuotientFamily:
    tnames = tuple(f"t{i}" for i in range(2, 2 * r + 1, 2))
    V = VarTable(("X", "Z", "W") + tnames)
    X, Z, W = (MPoly.variable(V, v) for v in ("X", "Z", "W"))
    fs = _b_f_polys(r)
    even = (r % 2 == 0)
    sign = QQ(-4) if even else QQ(4)
    eqn = Z * (X ** 2 + (QQ(-4) if even else QQ(4)) * Z ** r) + W ** 2
    for i in range(1, r + 1):
        eqn = eqn + fs[2 * i].extend(V) * sign * Z ** (r - i + 1)
    SV = family(f"B{r}").vars
    x, y, z = (MPoly.variable(SV, v) for v in ("x", "y", "z"))
    i_unit = imag_unit()
    if even:
        imap = {"X": x + y, "Z": z * z, "W": z * (x - y) * i_unit}
    else:
        imap = {"X": x - y, "Z": z * z, "W": z * (x + y) * i_unit}
    return QuotientFamily(f"B{r}", ("X", "Z", "W"), tnames, eqn, imap,
                          "complete", DynkinType("D", r + 2))


def _quotient_C3() -> QuotientFamily:
    tnames = ("t2", "t4", "t6")
    V = VarTable(("X", "Y", "W") + tnames)
    X, Y, W = (MPoly.variable(V, v) for v in ("X", "Y", "W"))
    t2, t4, t6 = (MPoly.variable(V, v) for v in tnames)
    A_X4 = t2 * QQ(1, 32)
    A_X3 = t2 ** 2 * QQ(-3, 128) - t4 * QQ(1, 32)
    A_X2 = t2 * t4 * QQ(7, 192) + t6 * QQ(1, 32) + t2 ** 3 * QQ(7, 864)
    A_X = -t6 * t2 * QQ(1, 32) - t2 ** 2 * t4 * QQ(5, 384) \
        - t2 ** 4 * QQ(35, 27648) - t4 ** 2 * QQ(1, 64)
    A_Y = t6 * QQ(1, 4) + t2 * t4 * QQ(1, 24) + t2 ** 3 * QQ(1, 432)
    A_0 = t6 * t2 ** 2 * QQ(1, 128) + t6 * t4 * QQ(1, 32) \
        + t2 ** 3 * t4 * QQ(11, 6912) + t2 * t4 ** 2 * QQ(1, 192) \
        + t2 ** 5 * QQ(1, 13824)
    eqn = X ** 5 * QQ(-1, 64) + X * Y ** 2 - W ** 2 + A_X4 * X ** 4 \
        + A_X3 * X ** 3 + A_X2 * X ** 2 + A_X * X + A_Y * Y + A_0
    SV = family("C3").vars
    x, y, z = (MPoly.variable(SV, v) for v in ("x", "y", "z"))
    st2, st4 = (MPoly.variable(SV, v) for v in ("t2", "t4"))
    yp = x * QQ(1, 2) + y - st2 * QQ(1, 4)
    shift = x ** 2 * QQ(1, 8) - x * st2 * QQ(1, 8) + st2 ** 2 * QQ(1, 32) \
        + st4 * QQ(1, 8)
    imap = {"X": x, "Y": yp * yp - shift, "W": yp * z}
    return QuotientFamily("C3", ("X", "Y", "W"), tnames, eqn, imap,
                          "complete", DynkinType("D", 6))


def g2_star2_equation(V=None) -> MPoly:
    """The printed G2 quotient normal form on (X, Y, Z; t2, t6)."""
    if V is None:
        V = VarTable(("X", "Y", "Z", "t2", "t6"))
    X, Y, Z, t2, t6 = (MPoly.variable(V, v)
                       for v in ("X", "Y", "Z", "t2", "t6"))
    P = t2 ** 6 * QQ(-11, 32) + t2 ** 3 * t6 * QQ(-189, 4) \
        - t6 ** 2 * 729
    Qc = t2 ** 4 * QQ(-15, 16) - t2 * t6 * 81
    R = t2 ** 3 * 189 + t6 * 5832
    return X ** 3 * Y - Y ** 3 * 11664 + Z ** 2 + P * Y + Qc * X * Y \
        + 324 * t2 * X * Y ** 2 + R * Y ** 2


def g2_intermediate_generators():
    """The eigenbasis invariants of the S3-action on the G2 family.

    XX and YY diagonalise the three-cycle; the S3-invariant ring is
    generated by W = XX YY, Xg = XX^3 + YY^3, Yg = XX^3 - YY^3 (sign-odd),
    z^2 and Yg z, subject to Yg^2 = Xg^2 - 4 W^3.
    """
    fam = family("G2")
    V = fam.vars
    x, y, z = (MPoly.variable(V, v) for v in ("x", "y", "z"))
    t2 = MPoly.variable(V, "t2")
    i3 = (imag_unit() * sqrt_rational(3)).lift(24)
    a = QQ(-3) - i3
    b = QQ(-3) + i3
    XX = x * a + y * b + t2
    YY = x * b + y * a + t2
    return {"fam": fam, "XX": XX, "YY": YY, "W": XX * YY,
            "Xg": XX ** 3 + YY ** 3, "Yg": XX ** 3 - YY ** 3, "z": z}


def verify_g2_intermediate() -> dict:
    """Exact checks of the two intermediate relations and the invariances."""
    data = g2_intermediate_generators()
    fam = data["fam"]
    V = fam.vars
    z = MPoly.variable(V, "z")
    t2 = MPoly.variable(V, "t2")
    t6 = MPoly.variable(V, "t6")
    checks = []
    # relation 1: -z^2 - Xg/216 - t2^3/432 + W t2/72 + t6/4 = 0 mod fibre
    rel1 = -z * z - data["Xg"] * QQ(1, 216) - t2 ** 3 * QQ(1, 432) \
        + data["W"] * t2 * QQ(1, 72) + t6 * QQ(1, 4)
    ideal = Ideal([fam.equation])
    checks.append({"check": "eigenbasis cubic relation",
                   "ok": ideal.normal_form(rel1).is_zero()})
    # relation 2: (Xg^2 - Yg^2)/4 = W^3, an algebra identity
    rel2 = (data["Xg"] ** 2 - data["Yg"] ** 2) * QQ(1, 4) == data["W"] ** 3
    checks.append({"check": "Xg^2 - Yg^2 == 4 W^3", "ok": rel2})
    # eigenvector property and invariance of the generators
    w = omega_scalar().lift(24)
    for gen, expect in (("rho", {"XX": w, "YY": w * w}),
                        ("sigma", {"XX": None, "YY": None})):
        subs = _full_subs(fam, gen)
        movedXX = data["XX"].substitute(subs)
        movedYY = data["YY"].substitute(subs)
        if gen == "rho":
            okX = equal_mod_vars(movedXX, data["XX"] * w)
            okY = equal_mod_vars(movedYY, data["YY"] * (w * w))
            checks.append({"check": "rho eigenvalues (omega, omega^2)",
                           "ok": okX and okY})
        else:
            okX = equal_mod_vars(movedXX, data["YY"] * w)
            okY = equal_mod_vars(movedYY, data["XX"] * (w * w))
            checks.append({"check": "sigma swaps eigenlines",
                           "ok": okX and okY})
        for name in ("W", "Xg"):
            moved = data[name].substitute(subs)
            checks.append({"check": f"{gen} fixes {name}",
                           "ok": equal_mod_vars(moved, data[name])})
        sign = QQ(1) if gen == "rho" else QQ(-1)
        movedY = data["Yg"].substitute(subs)
        checks.append({"check": f"{gen} on odd generator",
                       "ok": equal_mod_vars(movedY, data["Yg"] * sign)})
    return {"checks": checks, "ok": all(c["ok"] for c in checks)}


G2_FIT_VARS = VarTable(("u", "v", "T", "t2", "t6"))


def _g2_eliminated_form() -> MPoly:
    """T^2 = v (Xg(u,v)^2 - 4u^3) with Xg eliminated by the cubic relation,
    in u = W, v = z^2, T = Yg z."""
    u, v, T, t2, t6 = (MPoly.variable(G2_FIT_VARS, n)
                       for n in G2_FIT_VARS.names)
    Xg = -v * 216 - t2 ** 3 * QQ(1, 2) + t2 * u * 3 + t6 * 54
    return T ** 2 - v * (Xg ** 2 - u ** 3 * 4)


STAR2_SUPPORT = {
    (3, 1, 0, 0, 0), (0, 3, 0, 0, 0), (0, 0, 2, 0, 0),
    (0, 1, 0, 6, 0), (0, 1, 0, 3, 1), (0, 1, 0, 0, 2),
    (1, 1, 0, 4, 0), (1, 1, 0, 1, 1), (1, 2, 0, 1, 0),
    (0, 2, 0, 3, 0), (0, 2, 0, 0, 1),
}


def g2_fit_map() -> dict:
    """Recover the unpublished change of variables onto the normal form.

    Stage 1 rewrites the eliminated presentation T^2 = v (Xg^2 - 4u^3) in
    candidate normal-form coordinates X' = 16u + b t2^2, Y' = 64v + d t2 u
    + e t2^3 + f t6, Z' = 256 T and solves for the shifts that kill every
    monomial outside the printed support (these conditions do not see the
    weighted rescaling).  Stage 2 detects the remaining weighted scale
    mu from one coefficient ratio and verifies the rescaled map exactly:
    star2(map) == lambda * (T^2 - v (Xg^2 - 4u^3)).
    """
    F = _g2_eliminated_form()
    unknown_names = ("bb", "dd", "ee", "ff")
    names = ("X", "Y", "Z", "t2", "t6") + unknown_names
    BIG = VarTable(names)
    X, Y, Z, t2, t6, bb, dd, ee, ff = (MPoly.variable(BIG, n)
                                       for n in names)
    u_of = (X - bb * t2 ** 2) * QQ(1, 16)
    v_of = (Y - dd * t2 * u_of - ee * t2 ** 3 - ff * t6) * QQ(1, 64)
    T_of = Z * QQ(1, 256)
    H = F.substitute({"u": u_of, "v": v_of, "T": T_of,
                      "t2": t2, "t6": t6}) * QQ(65536)
    UNK = VarTable(unknown_names)
    groups = {}
    split = [BIG.index[n] for n in ("X", "Y", "Z", "t2", "t6")]
    unk_pos = [BIG.index[n] for n in unknown_names]
    for e, c in H.terms.items():
        key = tuple(e[i] for i in split)
        ue = tuple(e[i] for i in unk_pos)
        poly = groups.setdefault(key, MPoly(UNK))
        poly.terms[ue] = poly.terms.get(ue, QQ(0)) + c
    eqs = []
    for key, poly in groups.items():
        poly.terms = {e: c for e, c in poly.terms.items() if c}
        if poly and key not in STAR2_SUPPORT:
            eqs.append(poly)
    gb = Ideal(eqs).groebner_basis()
    values = {}
    for g in gb:
        involved = [n for i, n in enumerate(UNK.names)
                    if any(e[i] for e in g.terms)]
        if len(involved) != 1 or g.degree() != 1:
            raise PullbackMismatch("shift system is not linear-solvable")
        name = involved[0]
        lead = g.terms[tuple(1 if n == name else 0 for n in UNK.names)]
        values[name] = -g.constant_term() / lead
    if set(values) != set(unknown_names):
        raise PullbackMismatch("shift system does not determine the map")
    # stage 2: the weighted scale from the X Y^2 t2 coefficient ratio,
    # a monomial with t-weight 2: printed / derived = mu^-2
    NV = VarTable(("X", "Y", "Z", "t2", "t6"))
    H0 = H.substitute(values).extend(NV)
    star2 = g2_star2_equation(NV)
    key_xy2 = (1, 2, 0, 1, 0)
    s = QQ(star2.terms[key_xy2] / H0.terms[key_xy2])  # s = mu^-2
    FV = G2_FIT_VARS
    u, v, T, ft2, ft6 = (MPoly.variable(FV, n) for n in FV.names)
    g_scalar = sqrt_rational(QQ(256) ** 2 * s ** 9)   # 256 mu^-9
    if g_scalar is None:
        raise PullbackMismatch("weighted scale is not rational")
    mapped = {
        "X": (u * 16 + ft2 ** 2 * values["bb"]) * s ** 2,
        "Y": (v * 64 + ft2 * u * values["dd"]
              + ft2 ** 3 * values["ee"] + ft6 * values["ff"]) * s ** 3,
        "Z": T * QQ(g_scalar),
        "t2": ft2, "t6": ft6,
    }
    lam = QQ(g_scalar) ** 2
    if star2.substitute(mapped) != F * lam:
        raise PullbackMismatch("fitted map fails exact verification")
    return {"b": values["bb"], "d": values["dd"], "e": values["ee"],
            "f": values["ff"], "scale": s, "lambda": lam, "map": mapped}


def _quotient_G2() -> QuotientFamily:
    eqn = g2_star2_equation()
    data = g2_intermediate_generators()
    fam = data["fam"]
    V = fam.vars
    z = MPoly.variable(V, "z")
    t2 = MPoly.variable(V, "t2")
    t6 = MPoly.variable(V, "t6")
    fit = g2_fit_map()
    s = fit["scale"]
    g_scalar = sqrt_rational(fit["lambda"])
    u = data["W"]
    imap = {
        "X": (u * 16 + t2 ** 2 * fit["b"]) * s ** 2,
        "Y": (z * z * 64 + t2 * u * fit["d"] + t2 ** 3 * fit["e"]
              + t6 * fit["f"]) * s ** 3,
        "Z": data["Yg"] * z * QQ(g_scalar),
    }
    return QuotientFamily("G2", ("X", "Y", "Z"), ("t2", "t6"), eqn, imap,
                          "fitted", DynkinType("E", 7))


def _quotient_F4() -> QuotientFamily:
    tnames = ("t2", "t6", "t8", "t12")
    V = VarTable(("X", "Y", "Z") + tnames)
    X, Y, Z, t2, t6, t8, t12 = (MPoly.variable(V, v) for v in V.names)
    eqn = X ** 3 * QQ(-1, 4) + X * Y ** 3 + Z ** 2 \
        - t2 * X ** 2 * Y * QQ(1, 4) \
        + (t6 - t2 ** 3 * QQ(1, 8)) * X ** 2 * QQ(1, 48) \
        + (-t8 + t6 * t2 * QQ(1, 4) - t2 ** 4 * QQ(1, 192)) * X * Y \
        * QQ(1, 48) \
        + (t12 - t8 * t2 ** 2 * QQ(1, 8) - t6 ** 2 * QQ(1, 8)
           + t6 * t2 ** 3 * QQ(1, 96)) * X * QQ(1, 576)
    SV = family("F4").vars
    x, y, z = (MPoly.variable(SV, v) for v in ("x", "y", "z"))
    imap = {"X": x * x, "Y": y, "Z": x * z}
    return QuotientFamily("F4", ("X", "Y", "Z"), tnames, eqn, imap,
                          "complete", DynkinType("E", 7))


# -- verification -----------------------------------------------------------------

def verify_invariant_generators(label: str) -> dict:
    """Every invariant-map image is fixed by all the symmetry generators."""
    qf = quotient_family(label)
    fam = family(qf.source_label)
    checks = []
    for gen in fam.omega_action:
        subs = _full_subs(fam, gen)
        for name, image in qf.invariant_map.items():
            moved = image.substitute(subs)
            checks.append({"generator": gen, "image": name,
                           "ok": equal_mod_vars(moved, image)})
    return {"label": label, "checks": checks,
            "ok": all(c["ok"] for c in checks)}


def verify_quotient_pullback(label: str) -> dict:
    """The quotient equation pulls back to 0 modulo the family equation."""
    qf = quotient_family(label)
    fam = family(qf.source_label)
    subs = dict(qf.invariant_map)
    for v in qf.param_vars:
        subs[v] = MPoly.variable(fam.vars, v)
    pulled = qf.equation.substitute(subs)
    ideal = Ideal([fam.equation.extend(pulled.vars)])
    residual = ideal.normal_form(pulled)
    report = {"label": label, "map_status": qf.map_status,
              "residual_terms": len(residual.terms),
              "ok": residual.is_zero()}
    if label.upper() == "G2":
        report["tier"] = "exact-fit"
    return report


def verify_singular_locus(label: str) -> dict:
    """Exact certificates that every fibre of the quotient is singular."""
    label = label.upper()
    checks = []
    if label == "B2":
        qf = quotient_family("B2")
        V = VarTable(("X", "Z", "W", "t2", "t4", "s"))
        eqn = qf.equation.extend(V)
        t2, t4, s = (MPoly.variable(V, v) for v in ("t2", "t4", "s"))
        f4 = t4 + t2 ** 2 * QQ(1, 8)
        witness = {"X": s * 2, "Z": MPoly.constant(V, QQ(0)),
                   "W": MPoly.constant(V, QQ(0))}
        ideal = Ideal([s * s - f4])
        for name, p in [("f", eqn)] + [
                (f"df/d{v}", eqn.diff(v)) for v in ("X", "Z", "W")]:
            value = p.substitute(witness)
            checks.append({"check": f"{name} at (2s, 0, 0) mod s^2 = f4",
                           "ok": ideal.normal_form(value).is_zero()})
    elif label == "C3":
        qf = quotient_family("C3")
        V = VarTable(("Xs", "t2", "t4", "t6"))
        Xs, t2, t4, t6 = (MPoly.variable(V, v) for v in V.names)
        cubic = Xs ** 3 - t2 * Xs ** 2 \
            + (t4 + t2 ** 2 * QQ(1, 4)) * Xs \
            - (t2 ** 3 + t2 * t4 * 18 + t6 * 108) * QQ(1, 108)
        Ys = (Xs ** 2 * 4 - Xs * t2 * 4 + t2 ** 2 + t4 * 4) * QQ(-1, 32)
        witness = {"X": Xs, "Y": Ys, "W": MPoly.constant(V, QQ(0))}
        ideal = Ideal([cubic], order="lex")
        for name, p in [("f", qf.equation)] + [
                (f"df/d{v}", qf.equation.diff(v))
                for v in ("X", "Y", "W")]:
            value = p.substitute(witness)
            checks.append({"check": f"{name} at (Xs, Ys, 0) mod cubic",
                           "ok": ideal.normal_form(value).is_zero()})
    elif label == "G2":
        qf = quotient_family("G2")
        V = VarTable(("X", "t2", "t6"))
        X, t2, t6 = (MPoly.variable(V, v) for v in V.names)
        section = {"Y": MPoly.constant(V, QQ(0)),
                   "Z": MPoly.constant(V, QQ(0)), "X": X}
        for name, p, expect_zero in [
                ("f", qf.equation, True),
                ("df/dX", qf.equation.diff("X"), True),
                ("df/dZ", qf.equation.diff("Z"), True)]:
            value = p.substitute(section)
            checks.append({"check": f"{name} vanishes on (X, 0, 0)",
                           "ok": value.is_zero()})
        dY = qf.equation.diff("Y").substitute(section)
        stated = X ** 3 + (t2 ** 4 * QQ(-15, 16) - t2 * t6 * 81) * X \
            + t2 ** 6 * QQ(-11, 32) + t2 ** 3 * t6 * QQ(-189, 4) \
            - t6 ** 2 * 729
        checks.append({"check": "df/dY on the section is the stated cubic",
                       "ok": equal_mod_vars(dY, stated)})
    else:
        raise UnsupportedLabel(label)
    return {"label": label, "checks": checks,
            "ok": all(c["ok"] for c in checks)}


def discriminant_B2() -> dict:
    """The two singular-fibre conditions of the restricted B2 family.

    Returns the branch polynomials in (t2, t4) and exact witnesses: the
    origin on the f4 = 0 branch, and (0, 0, s) with s^2 = -t2/2 on the
    f2^2 = 4 f4 branch.
    """
    V = VarTable(("t2", "t4"))
    t2, t4 = (MPoly.variable(V, v) for v in V.names)
    f2 = t2
    f4 = t4 + t2 ** 2 * QQ(1, 8)
    cond1 = f4
    cond2 = f2 ** 2 - f4 * 4
    fam = family("B2")
    FV = fam.vars
    x, y, z = (MPoly.variable(FV, v) for v in ("x", "y", "z"))
    checks = []
    # branch 1: fibre over (t2, -t2^2/8) is singular at the origin
    on1 = {"t4": MPoly.variable(VarTable(("t2",)), "t2") ** 2 * QQ(-1, 8)}
    fibre1 = fam.equation.substitute(on1)
    at0 = {"x": QQ(0), "y": QQ(0), "z": QQ(0)}
    vals = [fibre1.substitute(at0)] + [
        fibre1.diff(v).substitute(at0) for v in ("x", "y", "z")]
    checks.append({"check": "origin singular when f4 = 0",
                   "ok": all(v.is_zero() for v in vals)})
    # branch 2: fibre over (t2, t2^2/8) is singular at (0, 0, s)
    WV = VarTable(("t2", "s"))
    s = MPoly.variable(WV, "s")
    st2 = MPoly.variable(WV, "t2")
    on2 = {"t4": st2 ** 2 * QQ(1, 8)}
    fibre2 = fam.equation.substitute(on2)
    at_s = {"x": MPoly.constant(WV, QQ(0)), "y": MPoly.constant(WV, QQ(0)),
            "z": s}
    ideal = Ideal([s * s + st2 * QQ(1, 2)])
    vals = [fibre2.substitute(at_s)] + [
        fibre2.diff(v).substitute(at_s) for v in ("x", "y", "z")]
    checks.append({"check": "(0,0,s) singular when f2^2 = 4 f4",
                   "ok": all(ideal.normal_form(v).is_zero() for v in vals)})
    return {"conditions": [cond1, cond2], "checks": checks,
            "ok": all(c["ok"] for c in checks)}


def non_semiuniversality_check(label: str) -> dict:
    """dim (h/W)^Omega < rank of the quotient's ADE type, always strict."""
    qf = quotient_family(label)
    base_dim = len(qf.param_vars)
    target_rank = qf.target_ade.rank
    return {"label": label, "base_dim": base_dim,
            "target": str(qf.target_ade), "target_rank": target_rank,
            "ok": base_dim < target_rank}
