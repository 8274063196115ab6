"""Quotients of the restricted families by their symmetry groups.

For each of B_r, C3, G2, F4 the invariant generators, the quotient
hypersurface equation, and its relation to the source family are stored
and verified:

* B_r and C3: the full invariant-theory substitution chain is in closed
  form, so the quotient equation pulls back to an exact multiple of the
  family equation (checked by reduction).
* F4: the invariant map (X, Y, Z) -> (x^2, y, x z) reproduces the quotient
  equation times x^2 exactly.
* G2: the intermediate presentation (eigenbasis cube invariants, over
  Q(zeta_3)) is verified exactly; the last change of variables onto the
  printed normal form is not published.  It is stated here as found by an
  exact fit, and the pullback and invariance checks certify it exactly.

Each quotient family carries the source family it is the quotient of.
Also here: one fixed-point certificate, read off the two families, that
every quotient fibre is singular, and the two-branch discriminant of the
B2 case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

from .deform import (E6_MONOMIALS, E6_SQRT6_ROWS, DeformationFamily,
                     UnsupportedLabel, e6_flat_coefficients, family,
                     _fresh, _full_subs)
from .exact import QQ, imag_unit, omega as omega_scalar
from .flat import epsilon_from_psi
from .poly import Ideal, MPoly, VarTable, equal_mod_vars
from .rootdata import DynkinType, parse_type


@dataclass
class QuotientFamily:
    source: DeformationFamily
    quotient_vars: tuple
    param_vars: tuple
    equation: MPoly
    invariant_map: dict      # quotient var -> MPoly in source variables
    map_status: str          # 'complete' | 'fitted'
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
    """Built once per process; each call returns a copy, as ``family``."""
    qf = _quotient_family(str(parse_type(label)))
    return replace(qf, source=_fresh(qf.source),
                   invariant_map=dict(qf.invariant_map))


@cache
def _quotient_family(label: str) -> QuotientFamily:
    if label.startswith("B"):
        return _quotient_B(int(label[1:]))
    if label == "C3":
        return _quotient_C3()
    if label == "G2":
        return _quotient_G2()
    if label == "F4":
        return _quotient_F4()
    raise UnsupportedLabel(f"no quotient family for {label}")


def _quotient_B(r: int) -> QuotientFamily:
    tnames = tuple(f"t{i}" for i in range(2, 2 * r + 1, 2))
    V = VarTable(("X", "Z", "W") + tnames)
    X, Z, W = (MPoly.variable(V, v) for v in ("X", "Z", "W"))
    fs = _b_f_polys(r)
    even = (r % 2 == 0)
    sign = QQ(-4) if even else QQ(4)
    eqn = Z * (X ** 2 + sign * Z ** r) + W ** 2
    for i in range(1, r + 1):
        eqn = eqn + fs[2 * i].extend(V) * sign * Z ** (r - i + 1)
    fam = family(f"B{r}")
    x, y, z = (MPoly.variable(fam.vars, v) for v in ("x", "y", "z"))
    i_unit = imag_unit()
    if even:
        imap = {"X": x + y, "Z": z * z, "W": z * (x - y) * i_unit}
    else:
        imap = {"X": x - y, "Z": z * z, "W": z * (x + y) * i_unit}
    return QuotientFamily(fam, ("X", "Z", "W"), tnames, eqn, imap,
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
    fam = family("C3")
    x, y, z, st2, st4 = (MPoly.variable(fam.vars, v)
                         for v in ("x", "y", "z", "t2", "t4"))
    yp = x * QQ(1, 2) + y - st2 * QQ(1, 4)
    shift = x ** 2 * QQ(1, 8) - x * st2 * QQ(1, 8) + st2 ** 2 * QQ(1, 32) \
        + st4 * QQ(1, 8)
    imap = {"X": x, "Y": yp * yp - shift, "W": yp * z}
    return QuotientFamily(fam, ("X", "Y", "W"), tnames, eqn, imap,
                          "complete", DynkinType("D", 6))


def g2_star2_equation() -> MPoly:
    """The printed G2 quotient normal form on (X, Y, Z; t2, t6)."""
    V = VarTable(("X", "Y", "Z", "t2", "t6"))
    X, Y, Z, t2, t6 = (MPoly.variable(V, v) for v in V.names)
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
    z^2 and Yg z, subject to Yg^2 = Xg^2 - 4 W^3.  The coefficients lie in
    Q(zeta_3): i sqrt(3) = 2 zeta_3 + 1.
    """
    fam = family("G2")
    V = fam.vars
    x, y, t2 = (MPoly.variable(V, v) for v in ("x", "y", "t2"))
    i3 = omega_scalar() * 2 + 1
    a = QQ(-3) - i3
    b = QQ(-3) + i3
    XX = x * a + y * b + t2
    YY = x * b + y * a + t2
    return {"fam": fam, "XX": XX, "YY": YY, "W": XX * YY,
            "Xg": XX ** 3 + YY ** 3, "Yg": XX ** 3 - YY ** 3}


def verify_g2_intermediate() -> dict:
    """Exact checks of the two intermediate relations and the invariances."""
    data = g2_intermediate_generators()
    fam = data["fam"]
    V = fam.vars
    z, t2, t6 = (MPoly.variable(V, v) for v in ("z", "t2", "t6"))
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
    w = omega_scalar()
    XX, YY = data["XX"], data["YY"]
    # rho: (XX, YY) -> (w XX, w^2 YY); sigma: (XX, YY) -> (w YY, w^2 XX)
    for gen, title, images, sign in (
            ("rho", "rho eigenvalues (omega, omega^2)", (XX, YY), QQ(1)),
            ("sigma", "sigma swaps eigenlines", (YY, XX), QQ(-1))):
        subs = _full_subs(fam, gen)
        ok = all(equal_mod_vars(p.substitute(subs), q * c)
                 for p, q, c in zip((XX, YY), images, (w, w * w)))
        checks.append({"check": title, "ok": ok})
        for name in ("W", "Xg"):
            moved = data[name].substitute(subs)
            checks.append({"check": f"{gen} fixes {name}",
                           "ok": equal_mod_vars(moved, data[name])})
        movedY = data["Yg"].substitute(subs)
        checks.append({"check": f"{gen} on odd generator",
                       "ok": equal_mod_vars(movedY, data["Yg"] * sign)})
    return {"checks": checks, "ok": all(c["ok"] for c in checks)}


def _quotient_G2() -> QuotientFamily:
    """The map onto the printed normal form is not published.  It was found
    by an exact fit of weighted shifts and one weighted scale to
    T^2 = z^2 (Xg^2 - 4 W^3) with T = Yg z, which gave these entries."""
    data = g2_intermediate_generators()
    V = data["fam"].vars
    z, t2 = (MPoly.variable(V, v) for v in ("z", "t2"))
    imap = {"X": data["W"] - t2 ** 2 * QQ(3, 4), "Y": z * z,
            "Z": data["Yg"] * z * QQ(1, 2)}
    return QuotientFamily(data["fam"], ("X", "Y", "Z"), ("t2", "t6"),
                          g2_star2_equation(), imap, "fitted",
                          DynkinType("E", 7))


def _quotient_F4() -> QuotientFamily:
    tnames = ("t2", "t6", "t8", "t12")
    V = VarTable(("X", "Y", "Z") + tnames)
    X, Y, Z = (MPoly.variable(V, v) for v in ("X", "Y", "Z"))
    # E6 at t5 = t9 = 0 times x^2 = X: a row's x^a y^b is X^(a/2 + 1) Y^b
    eqn = X ** 3 * QQ(-1, 4) + X * Y ** 3 + Z ** 2
    rows, to_t = e6_flat_coefficients(), {"psi" + t[1:]: t for t in tnames}
    for name, (a, b) in E6_MONOMIALS.items():
        if name not in E6_SQRT6_ROWS:
            eqn = eqn + rows[name].substitute({"psi5": 0}).rename(
                to_t).extend(V) * X ** (a // 2 + 1) * Y ** b
    fam = family("F4")
    x, y, z = (MPoly.variable(fam.vars, v) for v in ("x", "y", "z"))
    imap = {"X": x * x, "Y": y, "Z": x * z}
    return QuotientFamily(fam, ("X", "Y", "Z"), tnames, eqn, imap,
                          "complete", DynkinType("E", 7))


# -- verification -----------------------------------------------------------------

def verify_invariant_generators(label: str) -> dict:
    """Every invariant-map image is fixed by all the symmetry generators."""
    qf = quotient_family(label)
    fam = qf.source
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
    """The quotient equation pulls back to 0 modulo the family equation.
    The tier is 'exact-fit' for a fitted invariant map, else 'exact'."""
    qf = quotient_family(label)
    fam = qf.source
    subs = dict(qf.invariant_map)
    for v in qf.param_vars:
        subs[v] = MPoly.variable(fam.vars, v)
    pulled = qf.equation.substitute(subs)
    ideal = Ideal([fam.equation.extend(pulled.vars)])
    residual = ideal.normal_form(pulled)
    return {"label": label, "map_status": qf.map_status,
            "tier": "exact-fit" if qf.map_status == "fitted" else "exact",
            "residual_terms": len(residual.terms), "ok": residual.is_zero()}


def _at_witness(f, names, point, ideal):
    """f and its partials in ``names`` at ``point``, each value reduced
    modulo the ideal of relations the point satisfies: (name, vanishes)
    pairs."""
    partials = [(f"df/d{v}", f.diff(v)) for v in names]
    return [(name, ideal.normal_form(p.substitute(point)).is_zero())
            for name, p in [("f", f)] + partials]


def verify_singular_locus(label: str) -> dict:
    """Exact certificate that every fibre of the quotient is singular.

    sigma fixes P(s) = (v + sigma v)/2, where v is s on the first ambient
    coordinate whose average depends on s; P(s) is on the source fibre
    where R(s) = F(P(s)) = 0.  R must have degree >= 1 in s and a nonzero
    constant leading coefficient, so that it has a root over every t.
    A point fixed by an order-2 symmetry that is no reflection there maps
    to an A1 point of the quotient (Slodowy, LNM 815, 1980): the quotient
    equation and its partials vanish at ``invariant_map(P(s))`` modulo R.
    """
    qf = quotient_family(label)
    fam = qf.source
    V = VarTable(("s",) + fam.vars.names)
    s = MPoly.variable(V, "s")
    sigma = _full_subs(fam, "sigma")
    for a in fam.ambient_vars:
        v = {b: s if b == a else MPoly(V) for b in fam.ambient_vars}
        point = {b: (sigma[b].substitute(v).extend(V) + v[b]) * QQ(1, 2)
                 for b in fam.ambient_vars}
        if any(e[0] for p in point.values() for e in p.terms):
            break
    # lex with s first: R leads with a pure power of s exactly when its
    # leading coefficient in s is a constant, and reducing modulo R is
    # then division by R in s
    ideal = Ideal([fam.equation.substitute(point).extend(V)], order="lex")
    (k, *rest), = ideal.leading_exponents()
    images = {q: qf.invariant_map[q].substitute(point)
              for q in qf.quotient_vars}
    checks = [{"check": "R = F(P(s)) has a root over every t",
               "ok": k >= 1 and not any(rest)}]
    checks += [{"check": f"{name} at the image of P(s) mod R", "ok": ok}
               for name, ok in _at_witness(qf.equation, qf.quotient_vars,
                                           images, ideal)]
    return {"label": label, "checks": checks,
            "ok": all(c["ok"] for c in checks)}


def discriminant_B2() -> dict:
    """The two singular-fibre conditions of the restricted B2 family, f4 and
    f2^2 - 4 f4 in (t2, t4), each certified by its witness: the origin is
    singular modulo f4, and (0, 0, s) modulo f2^2 - 4 f4 and s^2 + f2/2.
    """
    fs = _b_f_polys(2)
    V = VarTable(("x", "y", "z", "t2", "t4", "s"))
    f2, f4, s = fs[2].extend(V), fs[4].extend(V), MPoly.variable(V, "s")
    eqn = family("B2").equation.extend(V)
    origin = _at_witness(eqn, ("x", "y", "z"),
                         {"x": QQ(0), "y": QQ(0), "z": QQ(0)}, Ideal([f4]))
    at_s = _at_witness(eqn, ("x", "y", "z"), {"x": QQ(0), "y": QQ(0), "z": s},
                       Ideal([f2 ** 2 - f4 * 4, s * s + f2 * QQ(1, 2)]))
    checks = [{"check": "origin singular when f4 = 0",
               "ok": all(ok for _, ok in origin)},
              {"check": "(0,0,s) singular when f2^2 = 4 f4",
               "ok": all(ok for _, ok in at_s)}]
    return {"conditions": [fs[4], fs[2] ** 2 - fs[4] * 4], "checks": checks,
            "ok": all(c["ok"] for c in checks)}


def non_semiuniversality_check(label: str) -> dict:
    """dim (h/W)^Omega < rank of the quotient's ADE type, always strict."""
    qf = quotient_family(label)
    base_dim = len(qf.param_vars)
    target_rank = qf.target_ade.rank
    return {"label": label, "base_dim": base_dim,
            "target": str(qf.target_ade), "target_rank": target_rank,
            "ok": base_dim < target_rank}
