"""Flat coordinate systems on h/W for types A_{2r-1}, D_{r+1} and E6.

Type A flat coordinates are polynomials in the elementary symmetric
functions eps_i of the eigenvalue coordinates; type D uses the elementary
symmetric functions x_{2i} of the squares plus the odd product coordinate;
type E6 is generated from the two differential operators on the invariants
p_i = x_i^2 + y_i^2, q_i = x_i^3/3 - x_i y_i^2 of the 27-line model.

The series coefficients use the rising factorial (a, n) = a (a+1) ...
(a+n-1) and never truncate: for fixed degree i only finitely many
compositions contribute.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial

from .exact import QQ, split_quadratic, sqrt3
from .poly import MPoly, VarTable, fold_root
from .rootdata import DynkinType


def pochhammer(a, n: int):
    out = QQ(1)
    for k in range(n):
        out = out * (a + k)
    return out


def _compositions(total: int, parts):
    """Ordered tuples from ``parts`` summing to ``total``."""
    if total == 0:
        yield ()
        return
    for p in parts:
        if p <= total:
            for rest in _compositions(total - p, parts):
                yield (p,) + rest


@dataclass
class FlatSystem:
    dtype: DynkinType
    coxeter_number: int
    coords: list          # ordered (degree, name, MPoly in natural vars)
    natural_vars: VarTable



def _composition_series(i: int, gens: dict, vars: VarTable, coeff) -> MPoly:
    """sum_d coeff(d) * sum of gens[j_1] ... gens[j_d] over the ordered
    compositions i = j_1 + ... + j_d into parts from ``gens``."""
    by_length = {}
    for comp in _compositions(i, sorted(gens)):
        by_length.setdefault(len(comp), []).append(comp)
    total = MPoly(vars)
    for d in sorted(by_length):
        comp_sum = MPoly(vars)
        for comp in by_length[d]:
            term = MPoly.constant(vars, QQ(1))
            for j in comp:
                term = term * gens[j]
            comp_sum = comp_sum + term
        total = total + comp_sum * coeff(d)
    return total


def _saito_series(i: int, h: int, gens: dict, vars: VarTable) -> MPoly:
    """psi_i = sum_d (-1)^(d-1) ((h-i+1)/h, d-1)/d! * X_i^d."""
    return _composition_series(
        i, gens, vars, lambda d: QQ(-1) ** (d - 1)
        * pochhammer(QQ(h - i + 1, h), d - 1) / factorial(d))


def flat_coords_A(r: int) -> FlatSystem:
    """Flat coordinates psi_2 .. psi_2r of A_{2r-1} in the eps variables."""
    if r < 2:
        raise ValueError("need r >= 2")
    h = 2 * r
    names = tuple(f"eps{i}" for i in range(2, 2 * r + 1))
    V = VarTable(names)
    gens = {i: MPoly.variable(V, f"eps{i}") for i in range(2, 2 * r + 1)}
    coords = []
    for i in range(2, 2 * r + 1):
        coords.append((i, f"psi{i}", _saito_series(i, h, gens, V)))
    return FlatSystem(DynkinType("A", 2 * r - 1), h, coords, V)


def flat_coords_D(r: int) -> FlatSystem:
    """Flat coordinates psi_2, psi_4, ..., psi_2r, psi of D_{r+1}.

    Natural variables are x_{2i} (elementary symmetric in the xi^2) and the
    coordinate ``psi`` = prod(xi) itself.
    """
    if r < 3:
        raise ValueError("need r >= 3")
    h = 2 * r
    names = tuple(f"x{2 * i}" for i in range(1, r + 1)) + ("psi",)
    V = VarTable(names)
    gens = {2 * i: MPoly.variable(V, f"x{2 * i}") for i in range(1, r + 1)}
    coords = []
    for i in range(1, r + 1):
        coords.append((2 * i, f"psi{2 * i}",
                       _saito_series(2 * i, h, gens, V)))
    coords.append((r + 1, "psi", MPoly.variable(V, "psi")))
    return FlatSystem(DynkinType("D", r + 1), h, coords, V)


def epsilon_from_psi(r: int) -> list:
    """eps_i as polynomials f_i in the flat coordinates psi_2 .. psi_2r."""
    h = 2 * r
    names = tuple(f"psi{i}" for i in range(2, 2 * r + 1))
    V = VarTable(names)
    gens = {i: MPoly.variable(V, f"psi{i}") for i in range(2, 2 * r + 1)}
    out = []
    for i in range(2, 2 * r + 1):
        total = _composition_series(
            i, gens, V, lambda d: pochhammer(QQ(h - i + 1), d - 1)
            / (factorial(d) * QQ(h) ** (d - 1)))
        out.append((i, f"eps{i}", total))
    return out


# -- expansions into eigenvalue coordinates ----------------------------------

def elementary_symmetric(vars: VarTable, k: int) -> MPoly:
    names = vars.names
    out = MPoly(vars)
    for combo in itertools.combinations(range(len(names)), k):
        e = [0] * len(names)
        for i in combo:
            e[i] = 1
        out.terms[tuple(e)] = QQ(1)
    return out


def lambda_table(r: int) -> VarTable:
    return VarTable(tuple(f"lam{i}" for i in range(2 * r)))


def psi_A_in_lambda(r: int) -> dict:
    """psi_i expanded in the 2r eigenvalue variables lam0..lam{2r-1}."""
    fs = flat_coords_A(r)
    LV = lambda_table(r)
    eps = {f"eps{i}": elementary_symmetric(LV, i) for i in range(2, 2 * r + 1)}
    return {name: p.substitute(eps) for _, name, p in fs.coords}


def xi_table(r: int) -> VarTable:
    return VarTable(tuple(f"xi{i}" for i in range(1, r + 2)))


def psi_D_in_xi(r: int) -> dict:
    """D_{r+1} flat coordinates expanded in xi_1 .. xi_{r+1}."""
    fs = flat_coords_D(r)
    XV = xi_table(r)
    sq = {f"xi{i}": MPoly.variable(XV, f"xi{i}") ** 2
          for i in range(1, r + 2)}
    subs = {}
    for i in range(1, r + 1):
        subs[f"x{2 * i}"] = elementary_symmetric(XV, i).substitute(sq)
    prod = MPoly.constant(XV, QQ(1))
    for i in range(1, r + 2):
        prod = prod * MPoly.variable(XV, f"xi{i}")
    subs["psi"] = prod
    return {name: p.substitute(subs) for _, name, p in fs.coords}


# -- E6 ------------------------------------------------------------------------

PQ_VARS = VarTable(("p1", "p2", "p3", "q1", "q2", "q3"))
XY_VARS = VarTable(("x1", "y1", "x2", "y2", "x3", "y3"))

_CYCLIC = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


def _pq(name, i):
    return MPoly.variable(PQ_VARS, f"{name}{i}")


def theta_operator(f: MPoly) -> MPoly:
    """First Saito operator on polynomials in (p_i, q_i); degree +3."""
    out = MPoly(PQ_VARS)
    for i, j, k in _CYCLIC:
        cp = 3 * _pq("q", i) * (_pq("p", j) - _pq("p", k)) \
            - 2 * _pq("p", i) * (_pq("q", j) - _pq("q", k))
        cq = _pq("p", i) ** 2 * (_pq("p", j) - _pq("p", k)) * QQ(1, 2) \
            - 3 * _pq("q", i) * (_pq("q", j) - _pq("q", k))
        out = out + cp * f.diff(f"p{i}") + cq * f.diff(f"q{i}")
    return out


def delta_operator(f: MPoly) -> MPoly:
    """Second Saito operator; degree -2."""
    out = MPoly(PQ_VARS)
    for i in (1, 2, 3):
        pi, qi = f"p{i}", f"q{i}"
        out = out + 4 * (_pq("p", i) * f.diff(pi)).diff(pi)
        out = out + 12 * _pq("q", i) * f.diff(pi).diff(qi)
        out = out + _pq("p", i) ** 2 * f.diff(qi).diff(qi)
    return out


def e6_tower() -> dict:
    """The ladder A, B, H, C, J, K in the (p, q) variables."""
    A = _pq("p", 1) + _pq("p", 2) + _pq("p", 3)
    B = theta_operator(A) * QQ(1, 5)
    H = theta_operator(B)
    C = delta_operator(H) * QQ(1, 16)
    J = (theta_operator(C) - 3 * A ** 2 * B) * QQ(1, 9)
    K = theta_operator(J) * QQ(2, 3)
    return {"A": A, "B": B, "H": H, "C": C, "J": J, "K": K}


def flat_coords_E6() -> FlatSystem:
    t = e6_tower()
    A, B, H, C, J, K = (t[k] for k in "ABHCJK")
    coords = [
        (2, "psi2", A),
        (5, "psi5", B),
        (6, "psi6", C - A ** 3 * QQ(1, 8)),
        (8, "psi8", H - A * C * QQ(1, 4) + A ** 4 * QQ(5, 192)),
        (9, "psi9", J),
        (12, "psi12", K - A ** 2 * H * QQ(1, 8) - C ** 2 * QQ(1, 8)
         + A ** 3 * C * QQ(5, 96) - A * B ** 2 - A ** 6 * QQ(1, 256)),
    ]
    return FlatSystem(DynkinType("E", 6), 12, coords, PQ_VARS)


def pq_in_xy() -> dict:
    """p_i = x_i^2 + y_i^2 and q_i = x_i^3/3 - x_i y_i^2."""
    subs = {}
    for i in (1, 2, 3):
        x = MPoly.variable(XY_VARS, f"x{i}")
        y = MPoly.variable(XY_VARS, f"y{i}")
        subs[f"p{i}"] = x ** 2 + y ** 2
        subs[f"q{i}"] = x ** 3 * QQ(1, 3) - x * y ** 2
    return subs


def psi_E6_in_xy() -> dict:
    subs = pq_in_xy()
    fs = flat_coords_E6()
    return {name: p.substitute(subs) for _, name, p in fs.coords}


# degrees of the natural variables p1, p2, p3 and q1, q2, q3
PQ_WEIGHTS = (2, 2, 2, 3, 3, 3)


def weighted_degrees(p: MPoly, weights):
    """Set of weighted degrees of the terms of p, the variables weighted
    by ``weights`` in table order."""
    return {sum(w * k for w, k in zip(weights, e)) for e in p.terms}


def frame_reflection_subs(normal_key) -> dict:
    """The Frame reflection s_k = Id - 2 D_k D_k^T as a substitution."""
    from .rootdata import _frame_normal
    D = _frame_normal(normal_key)
    outer = {}                          # 2 D_i D_j, over the nonzero D_i
    for i, j in itertools.combinations_with_replacement(range(6), 2):
        if D[i] and D[j]:
            outer[i, j] = outer[j, i] = (D[i] + D[i]) * D[j]
    names = XY_VARS.names
    subs = {}
    for i in range(6):
        p = MPoly(XY_VARS)
        for j in range(6):
            coef = QQ(1) if i == j else QQ(0)
            if (i, j) in outer:
                coef = (coef - outer[i, j]).reduce_rat()
            if coef:
                p = p + MPoly.variable(XY_VARS, names[j]) * coef
        subs[names[i]] = p
    return subs


FRAME_GENERATOR_KEYS = ((1, 0, 0), (0, 1, 0), (0, 0, 1),
                        (3, 0, 0), (0, 0, 3), (3, 3, 3))


SQRT3_VAR = "s"


def _over_sqrt3(p: MPoly) -> MPoly:
    """``p`` on its table plus s, each coefficient a + b sqrt(3) held as the
    rational terms a and b s (``ValueError`` outside Q(sqrt 3))."""
    out = MPoly(VarTable(p.vars.names + (SQRT3_VAR,)))
    if p.is_rational():
        return p.extend(out.vars)
    root = sqrt3()
    for e, c in p.terms.items():
        for k, part in enumerate(split_quadratic(c, root)):
            if part:
                out.terms[e + (k,)] = part
    return out


def verify_w_invariance(fs: FlatSystem, generator_subs, expand=None) -> dict:
    """Exact invariance of each flat coordinate under each generator.

    ``generator_subs`` is a list of (label, substitution dict) with
    coefficients in Q(sqrt 3); ``expand`` optionally maps the system into
    the variables the substitutions act on (e.g. the eigenvalue
    coordinates).  sqrt(3) is the extra variable s, so every substitution
    runs on the rational kernel; the moved coordinate is folded by s^2 = 3
    and compared with the coordinate.
    """
    checks = []
    coords = [(name, _over_sqrt3(expand[name] if expand else p))
              for _, name, p in fs.coords]
    for label, subs in generator_subs:
        lifted = {v: _over_sqrt3(b) for v, b in subs.items()}
        lifted[SQRT3_VAR] = MPoly.variable(VarTable((SQRT3_VAR,)), SQRT3_VAR)
        for name, p in coords:
            moved = fold_root(p.substitute(lifted), SQRT3_VAR, 2, 3)
            checks.append({"generator": label, "coordinate": name,
                           "ok": moved == p.extend(moved.vars)})
    return {"checks": checks, "ok": all(c["ok"] for c in checks)}


# -- E6 flat coordinates in the coweight (mu) variables -----------------------

MU_VARS = VarTable(tuple(f"mu{i}" for i in range(1, 7)))


def e6_xy_of_mu():
    """The linear map mu -> (x, y) of the 27-line model, up to sqrt(6) and
    sqrt(2).

    Returns (x_parts, y_parts): x_i = sqrt(6) * x_parts[i], y_i = sqrt(2) *
    y_parts[i] with rational linear forms in mu (mu_i = -lambda_i).
    """
    mu = [MPoly.variable(MU_VARS, f"mu{i}") for i in range(1, 7)]
    lam = [-m for m in mu]
    x1 = lam[0] * QQ(-1, 6) + lam[3] * QQ(-1, 3)
    y1 = lam[0] * QQ(1, 2)
    x2 = lam[0] * QQ(1, 6) + lam[1] * QQ(1, 6) + lam[3] * QQ(1, 3) \
        + lam[4] * QQ(1, 3) + lam[5] * QQ(1, 2)
    y2 = (lam[0] + lam[1]) * QQ(-1, 2) - lam[2] - lam[3] - lam[4] \
        - lam[5] * QQ(3, 2)
    x3 = lam[1] * QQ(-1, 6) + lam[4] * QQ(-1, 3)
    y3 = lam[1] * QQ(1, 2)
    return (x1, x2, x3), (y1, y2, y3)


SQRT6_VAR = "r"


def psi_E6_of_mu() -> dict:
    """Each flat coordinate as a rational polynomial in mu1..mu6 and r,
    r = sqrt(6), of degree at most 1 in r.

    With x_i = sqrt(6) x~_i and y_i = sqrt(2) y~_i (``e6_xy_of_mu``),
    p_i = 6 x~_i^2 + 2 y~_i^2 is rational and q_i = r q~_i with
    q~_i = 2 x~_i^3 - 2 x~_i y~_i^2.  Each term c p^a q^b is tagged by r^b
    on the (p, q) side and folded by r^2 = 6, then p and q~ are bound (so
    psi5 and psi9 come out as r times a rational polynomial, the others
    free of r).

    p1, q1, p3, q3 have three or four terms in mu, p2 and q2 have 21 and
    55, so the sparse four are bound first and p2, q2 second: the
    substitution then builds each product p2^a q2^b once, for all the
    terms that share it.
    """
    xs, ys = e6_xy_of_mu()
    subs = {}
    for i in (1, 2, 3):
        x, y = xs[i - 1], ys[i - 1]
        subs[f"p{i}"] = x * x * 6 + y * y * 2
        subs[f"q{i}"] = x ** 3 * QQ(2) - x * (y * y) * 2
    dense = {v: subs.pop(v) for v in ("p2", "q2")}
    tagged = VarTable(PQ_VARS.names + (SQRT6_VAR,))
    out = {}
    for _, name, poly in flat_coords_E6().coords:
        p = MPoly(tagged, {e + (e[3] + e[4] + e[5],): c
                           for e, c in poly.terms.items()})
        out[name] = fold_root(p, SQRT6_VAR, 2, 6).substitute(
            subs).substitute(dense)
    return out
