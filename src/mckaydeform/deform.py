"""Explicit deformation families, their symmetries, and fibre analysis.

The three family presentations:

* type A_{2r-1}: z^(2r) + sum (-1)^i f_i(t) z^(2r-i) = x y with the f_i the
  elementary symmetric functions written in flat coordinates;
* type D4: z^2 = xy(x+y) - t2/2 xy - t y - (t + t4/2)/2 x + (t6 + t2 t4/6
  + t t2 + t2^3/108)/4, whose four coefficients are the rows of
  ``d4_flat_coefficients``;
* type E6: the degree-12 normal form whose six coefficients are the rows
  of ``e6_flat_coefficients``, two of them normalised by sqrt(6).

B_r, C3, G2 and F4 are each one row (base, generators): the base family
on the parameters those generators fix.  The coefficients in mu are read
at ``rootdata.cartan_point``.  E6's hold sqrt(6) and the linear changes P
onto the Klein relations hold 2^(1/3) or i, each as one more variable of a
rational polynomial, folded by its relation (``poly.fold_root``).  A
symmetry alpha is checked against Klein's matrix M as P o alpha = M o P.

``analyze_fibre`` finds every singular point of a fibre exactly, from the
exact multiplication matrices of the quotient by the Jacobian ideal
(f, df): the characteristic polynomial of a separating linear form gives
the points and their Tjurina numbers, its traces give their coordinates
as polynomials in one root of a univariate factor, and the length of each
local algebra modulo the cube of the maximal ideal gives the ADE type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, reduce
from math import lcm

import numpy as np

from .exact import (QQ, Cyclo, charpoly, embed_complex, inverse_mod, mat_mul,
                    poly_divmod, poly_gcd, poly_mul, rref, scalar_to_json,
                    sqrt6, squarefree_split)
from .flat import (MU_VARS, PQR_VARS, SQRT6_VAR, epsilon_from_psi,
                   flat_coords_E6, psi_A_in_lambda, psi_D_in_xi, psi_E6_of_mu)
from .poly import (DEFAULT_BUDGET, Ideal, MPoly, VariableMismatch, VarTable,
                   equal_mod_vars, fold_root, quotient_basis,
                   reflection_invariant)
from .rootdata import (DynkinType, UnsupportedType, cartan_matrix,
                       cartan_point, omega_generators, parse_type)

# a label that names no family: the refusal ``parse_type`` raises too
UnsupportedLabel = UnsupportedType


class UnknownParameter(ValueError):
    """A parameter value names no parameter of the family."""


@dataclass
class DeformationFamily:
    label: str
    ambient_vars: tuple
    param_vars: tuple
    equation: MPoly               # fibre equation, = 0 on the family
    omega_action: dict            # generator -> substitution dict
    # the label of the A_(2r-1), D4 or E6 family this one restricts; its
    # own label for those three
    base: str
    # generators whose whole substitutions preserve the equation only on a
    # restricted family's locus (the D4 three-cycle, on t4 = t = 0)
    param_actions: dict = field(default_factory=dict)
    vars: VarTable = field(init=False)

    def __post_init__(self):
        self.vars = self.equation.vars

    def fibre_equation(self, values: dict) -> MPoly:
        """Equation of the fibre at exact parameter values.

        Parameters left out are 0; a name that is not a parameter of the
        family raises ``UnknownParameter``, and a value that is not an exact
        scalar (a float, say) raises ``TypeError``.
        """
        unknown = sorted(set(values) - set(self.param_vars))
        if unknown:
            raise UnknownParameter(
                f"{self.label} has no parameter {', '.join(unknown)}; "
                f"its parameters are {', '.join(self.param_vars)}")
        return self.equation.substitute(
            {v: values.get(v, QQ(0)) for v in self.param_vars})

    def special_fibre(self) -> MPoly:
        return self.fibre_equation({})


def _variables(V, names):
    return [MPoly.variable(V, n) for n in names]


# -- family constructors -------------------------------------------------------

def family_A(r: int) -> DeformationFamily:
    """The full A_{2r-1} family over flat coordinates t_2 .. t_{2r}."""
    tnames = tuple(f"t{i}" for i in range(2, 2 * r + 1))
    V = VarTable(("x", "y", "z") + tnames)
    x, y, z = _variables(V, ("x", "y", "z"))
    eqn = z ** (2 * r) - x * y
    rename = {f"psi{i}": f"t{i}" for i in range(2, 2 * r + 1)}
    for i, _, f in epsilon_from_psi(r):
        fi = f.rename(rename).extend(V)
        eqn = eqn + fi * (QQ(-1) ** i) * z ** (2 * r - i)
    sgn = QQ(-1) ** r
    sigma = {"x": MPoly.variable(V, "y") * sgn,
             "y": MPoly.variable(V, "x") * sgn,
             "z": -MPoly.variable(V, "z")}
    for i in range(2, 2 * r + 1):
        sigma[f"t{i}"] = MPoly.variable(V, f"t{i}") * (QQ(-1) ** i)
    label = f"A{2 * r - 1}"
    return DeformationFamily(label, ("x", "y", "z"), tnames, eqn,
                             {"sigma": sigma}, label)


def family_D4() -> DeformationFamily:
    """z^2 - xy(x+y) minus the ``d4_flat_coefficients`` times xy, y, x, 1."""
    tnames = ("t2", "t4", "t6", "t")
    V = VarTable(("x", "y", "z") + tnames)
    x, y, z = _variables(V, ("x", "y", "z"))
    t2, t4, t6, t = _variables(V, tnames)
    eqn = z ** 2 - x * y * (x + y)
    to_t = dict(zip(PSI_D4_VARS.names, tnames))
    monomials = {"A": x * y, "B": y, "C": x, "D": MPoly.constant(V, QQ(1))}
    for name, row in d4_flat_coefficients().items():
        eqn = eqn - row.rename(to_t).extend(V) * monomials[name]
    sigma = {"x": x, "y": -x - y + t2 * QQ(1, 2), "z": -z, "t": -t}
    # the three-cycle preserves the equation only on t4 = t = 0
    rho = {"x": y, "y": -x - y + t2 * QQ(1, 2), "z": z,
           "t4": t4 * QQ(-1, 2) - 3 * t, "t": t4 * QQ(1, 4) - t * QQ(1, 2)}
    return DeformationFamily("D4", ("x", "y", "z"), tnames, eqn,
                             {"sigma": sigma}, "D4",
                             param_actions={"rho": rho})


def family_E6() -> DeformationFamily:
    """The degree-12 normal form: x^4/(-4) + y^3 + z^2 plus each row of
    ``e6_flat_coefficients`` (on t for psi) times its monomial, sqrt(6)
    kept as a ``Cyclo`` scalar in the Ax and Axy rows."""
    tnames = ("t2", "t5", "t6", "t8", "t9", "t12")
    V = VarTable(("x", "y", "z") + tnames)
    x, y, z, t5, t9 = _variables(V, ("x", "y", "z", "t5", "t9"))
    eqn = x ** 4 * QQ(-1, 4) + y ** 3 + z ** 2
    to_t = dict(zip(PSI_E6_VARS.names, tnames))
    coeffs = e6_flat_coefficients()
    for name, (a, b) in E6_MONOMIALS.items():
        row = coeffs[name].rename(to_t).extend(V) * x ** a * y ** b
        eqn = eqn + (row * (sqrt6() * E6_SQRT6_ROWS[name])
                     if name in E6_SQRT6_ROWS else row)
    sigma = {"x": -x, "z": -z, "t5": -t5, "t9": -t9}
    return DeformationFamily("E6", ("x", "y", "z"), tnames, eqn,
                             {"sigma": sigma}, "E6")


def _restrict(base: DeformationFamily, label: str, gens) -> DeformationFamily:
    """``base`` on the parameters that the generators ``gens`` fix: those
    ``fixed_parameter_locus`` kills are 0, the rest keep the base family's
    order, and the family carries each generator's whole substitution,
    restricted to the new table, and no other generator."""
    zero = {v: QQ(0) for v in fixed_parameter_locus(base, gens)}
    tnames = tuple(v for v in base.param_vars if v not in zero)
    V = VarTable(base.ambient_vars + tnames)
    subs = {**base.param_actions, **base.omega_action}
    actions = {gen: {k: p.substitute(zero).extend(V)
                     for k, p in subs[gen].items() if k not in zero}
               for gen in gens}
    return DeformationFamily(label, base.ambient_vars, tnames,
                             base.equation.substitute(zero).extend(V),
                             actions, base.label)


def family(label: str) -> DeformationFamily:
    """A_{2r-1} (r >= 2), D4 and E6 are built directly; B_r, C3, G2 and F4
    restrict A_{2r-1}, D4 or E6 to the parameters the diagram symmetry
    fixes.  Each family is built once per process; every call returns a
    copy whose dicts the caller may change (the polynomials are shared)."""
    return _fresh(_family(str(parse_type(label))))


def _fresh(fam: DeformationFamily) -> DeformationFamily:
    """``fam`` with its action dicts copied two levels deep."""
    return replace(fam, omega_action={g: dict(subs) for g, subs
                                      in fam.omega_action.items()},
                   param_actions={g: dict(subs) for g, subs
                                  in fam.param_actions.items()})


@cache
def _family(label: str) -> DeformationFamily:
    r = int(label[1:])
    if label[0] == "A" and r % 2 == 1 and r > 1:
        return family_A((r + 1) // 2)
    # each restricted family as (base, generators) (Slodowy, LNM 815, 1980)
    restrictions = {f"B{r}": (f"A{2 * r - 1}", ("sigma",)),
                    "C3": ("D4", ("sigma",)), "G2": ("D4", ("sigma", "rho")),
                    "F4": ("E6", ("sigma",))}
    if label in restrictions:
        base, gens = restrictions[label]
        return _restrict(_family(base), label, gens)
    if label == "D4":
        return family_D4()
    if label == "E6":
        return family_E6()
    raise UnsupportedLabel(f"no deformation family for {label}")


# -- equivariance ---------------------------------------------------------------

def _full_subs(fam: DeformationFamily, gen: str) -> dict:
    subs = dict(fam.omega_action[gen])
    for name in fam.vars.names:
        subs.setdefault(name, MPoly.variable(fam.vars, name))
    return subs


def verify_equivariance(fam: DeformationFamily) -> dict:
    """The equation is exactly preserved and the generators satisfy their
    group relations on coordinates."""
    checks = []
    for gen in fam.omega_action:
        subs = _full_subs(fam, gen)
        residual = fam.equation.substitute(subs) - fam.equation
        checks.append({"check": f"{gen} preserves equation",
                       "ok": residual.is_zero(),
                       "residual_terms": len(residual.terms)})
        order = 2 if gen == "sigma" else 3
        current = {n: MPoly.variable(fam.vars, n) for n in fam.vars.names}
        for _ in range(order):
            current = {n: current[n].substitute(subs) for n in current}
        ok = all(current[n] == MPoly.variable(fam.vars, n)
                 for n in fam.vars.names)
        checks.append({"check": f"{gen}^{order} is the identity", "ok": ok})
    if {"sigma", "rho"} <= set(fam.omega_action):
        s = _full_subs(fam, "sigma")
        r = _full_subs(fam, "rho")

        def compose(outer, inner):
            return {n: inner[n].substitute(outer) for n in fam.vars.names}

        srs = compose(s, compose(r, s))
        rr = compose(r, r)
        checks.append({"check": "sigma rho sigma == rho^-1",
                       "ok": all(srs[n] == rr[n] for n in fam.vars.names)})
    return {"label": fam.label, "checks": checks,
            "ok": all(c["ok"] for c in checks)}


def parameter_action_matrix(fam: DeformationFamily, gen: str):
    """Linear action on the parameters (rows indexed like param_vars)."""
    source = {}
    if gen in fam.omega_action:
        source.update({k: v for k, v in fam.omega_action[gen].items()
                       if k in fam.param_vars})
    if gen in fam.param_actions:
        source.update(fam.param_actions[gen])
    n = len(fam.param_vars)
    M = [[QQ(1) if i == j else QQ(0) for j in range(n)] for i in range(n)]
    for i, name in enumerate(fam.param_vars):
        if name not in source:
            continue
        p = source[name]
        row = [QQ(0)] * n
        for j, other in enumerate(fam.param_vars):
            row[j] = _linear_coeff(p, other)
        M[i] = row
    return M


def fixed_parameter_locus(fam: DeformationFamily, gens=None):
    """Parameters forced to zero on the common fixed locus of the actions
    of ``gens`` (by default every generator), sorted by name; a locus that
    is no coordinate subspace raises ``ValueError``."""
    if gens is None:
        gens = [*fam.omega_action, *fam.param_actions]
    n = len(fam.param_vars)
    rows = []
    for gen in gens:
        M = parameter_action_matrix(fam, gen)
        for i in range(n):
            row = [M[i][j] - (QQ(1) if i == j else QQ(0)) for j in range(n)]
            if any(row):
                rows.append(row)
    rows, pivots = rref(rows, n)
    if any(sum(1 for x in row if x) != 1 for row in rows[:len(pivots)]):
        raise ValueError(f"the fixed locus of {fam.label} is no coordinate "
                         "subspace")
    return sorted(fam.param_vars[c] for c in pivots)


def verify_parameter_actions(fam: DeformationFamily) -> dict:
    """The base family's linear parameter actions hold exactly upstairs on h.

    Each flat coordinate's expected image is read off the
    ``parameter_action_matrix`` of ``fam.base``, and compared with the
    Cartan-space action substituted into it: reversal-negation for type A;
    for D4 and E6, each generator's ``omega_generators`` vertex
    permutation, mu_i -> mu_g(i) (D4's sigma and rho are z2 and z3).
    """
    t, base = parse_type(fam.base), _family(fam.base)
    if t.family == "A":
        r = (t.rank + 1) // 2
        psis = psi_A_in_lambda(r)
        lam = _variables(next(iter(psis.values())).vars,
                         [f"lam{i}" for i in range(2 * r)])
        actions = {"sigma": {f"lam{i}": -lam[2 * r - 1 - i]
                             for i in range(2 * r)}}
        title = "{name} -> (-1)^{degree} {name}"
    else:
        if t.family == "E":
            psis = psi_E6_of_mu()
            gens, title = {"sigma": "z2"}, "{gen}: {name} -> {sign:+d} {name}"
        else:
            psis = psi_D4_of_mu()
            gens, title = {"rho": "z3", "sigma": "z2"}, "{gen}: {name}"
        mu = psis["psi2"].vars
        actions = {}
        for gen, name in gens.items():
            g, = omega_generators(t, name)
            actions[gen] = {f"mu{i}": MPoly.variable(mu, f"mu{j}")
                            for i, j in enumerate(g.vertex_perm, 1) if i != j}
    names = ["psi" + v[1:] for v in base.param_vars]
    checks = []
    for gen, subs in actions.items():
        M = parameter_action_matrix(base, gen)
        for i, name in enumerate(names):
            want = MPoly(psis[name].vars)
            for other, c in zip(names, M[i]):
                if c:
                    want = want + psis[other] * c
            ok = equal_mod_vars(psis[name].substitute(subs), want)
            check = title.format(gen=gen, name=name, degree=name[3:],
                                 sign=int(M[i][i]))
            checks.append({"check": check, "ok": ok})
    return {"label": fam.label, "checks": checks,
            "ok": all(c["ok"] for c in checks)}


# -- special fibre normal forms ---------------------------------------------------

def special_fibre_normal_form(fam: DeformationFamily) -> dict:
    """Exact change of variables onto the Klein relation, plus the
    transported symmetry action compared with the printed action matrices.

    The change is rational in one adjoined root a, a^k = c, held as one
    more variable; each composite is folded by a^k = c.
    """
    from .klein import klein_data

    W = VarTable(fam.vars.names + ("a",))
    klein_type = parse_type(fam.base)
    root, fwd, change, gens = _klein_change(klein_type, W)

    def fold(p):
        return fold_root(p, "a", *root) if root else p

    klein = klein_data(klein_type)
    image = fold(klein.relation.substitute(fwd))
    match = image == fam.special_fibre().extend(image.vars)
    zero_t = {n: QQ(0) for n in fam.param_vars}
    details = {}
    for gen, klein_gen in gens.items():
        if gen not in fam.omega_action:
            continue
        subs0 = {k: v.substitute(zero_t)
                 for k, v in _full_subs(fam, gen).items()}
        # P o alpha = M o P on each slot, M's row from Klein's table: the
        # relation match certifies P invertible, so P o alpha o P^-1 = M
        details[gen] = all(equal_mod_vars(
            fold(fwd[name].substitute(subs0)),
            sum((fwd[s] * c for s, c in zip("XYZ", row) if c), MPoly(W)))
            for name, row in zip("XYZ", klein.omega_action[klein_gen][1]))
    action_ok = all(details.values())
    return {"label": fam.label, "change": change,
            "relation_match": match, "action_match": action_ok,
            "per_generator": details, "ok": match and action_ok}


def _klein_change(t: DynkinType, W: VarTable):
    """For a family whose base family has type t, its special fibre's
    Klein type: the relation a^k = c, as (k, c), of the root a its change
    of variables adjoins (None when it adjoins none); the change onto the
    Klein relation (X, Y, Z in x, y, z, a), rational in a; the change as
    text; and the Klein generator each family generator becomes.
    """
    x, y, z, a = _variables(W, ("x", "y", "z", "a"))
    if t.family == "A":
        # identity change up to slot names
        return (None, {"X": z, "Y": x, "Z": y}, "(X, Y, Z) = (z, x, y)",
                {"sigma": "h"})
    if t.family == "D":
        # a = 2^(1/3)
        return ((3, QQ(2)),
                {"X": -x * a * QQ(1, 2), "Y": -(y + x * QQ(1, 2)) * a,
                 "Z": z},
                "X=-4^(-1/3) x, Y=-4^(1/6) (y+x/2), Z=z",
                {"sigma": "h", "rho": "g"})
    # E6: a = i; 1/(1+i) = (1-i)/2
    return ((2, QQ(-1)), {"X": (x - x * a) * QQ(1, 2), "Y": y, "Z": z},
            "x = (1+i) X", {"sigma": "g"})


def _linear_coeff(p: MPoly, name: str):
    if name not in p.vars.index:
        return QQ(0)
    e = tuple(int(v == name) for v in p.vars.names)
    return p.terms.get(e, QQ(0))


# -- the D4 coefficient identities -----------------------------------------------

D4_MU = VarTable(("mu1", "mu2", "mu3", "mu4"))


def d4_mu_coefficients() -> dict:
    """The quartic-family coefficients as polynomials in mu_1..mu_4."""
    m1, m2, m3, m4 = _variables(D4_MU, D4_MU.names)
    A = -m1 * m2 - m2 * m3 - m2 * m4 - m2 ** 2 \
        - (m1 * m4 + m1 * m3 + m3 * m4 + m1 ** 2 + m3 ** 2 + m4 ** 2) \
        * QQ(1, 2)
    B = (m3 - m4) * (m3 + m4) * (2 * m2 + m3 + m4) \
        * (2 * m1 + 2 * m2 + m3 + m4) * QQ(1, 16)
    C = (m1 - m4) * (m1 + m4) * (2 * m2 + m1 + m4) \
        * (2 * m3 + 2 * m2 + m1 + m4) * QQ(1, 16)
    D = (2 * m1 * m2 + m1 * m3 + m1 * m4 + 2 * m2 ** 2 + 2 * m2 * m3
         + 2 * m2 * m4 + m3 * m4 + m4 ** 2) \
        * (m1 * m3 + m1 * m4 + 2 * m2 * m4 + m3 * m4 + m4 ** 2) \
        * (m1 * m3 - m1 * m4 - 2 * m2 * m4 - m3 * m4 - m4 ** 2) * QQ(-1, 32)
    return {"A": A, "B": B, "C": C, "D": D}


def psi_D4_of_mu() -> dict:
    """The D4 flat coordinates ``psi_D_in_xi(3)`` at xi = ``cartan_point``
    of mu, as polynomials in mu_1..mu_4."""
    h = cartan_point(DynkinType("D", 4), _variables(D4_MU, D4_MU.names))
    xi = {f"xi{k}": p for k, p in enumerate(h, 1)}
    return {name: p.substitute(xi) for name, p in psi_D_in_xi(3).items()}


PSI_D4_VARS = VarTable(("psi2", "psi4", "psi6", "psi"))


def d4_flat_coefficients() -> dict:
    """The four D4 family coefficients in the flat coordinates: the family
    is z^2 = xy(x+y) + A xy + B y + C x + D."""
    p2, p4, p6, pp = _variables(PSI_D4_VARS, PSI_D4_VARS.names)
    return {
        "A": p2 * QQ(-1, 2),
        "B": -pp,
        "C": (pp + p4 * QQ(1, 2)) * QQ(-1, 2),
        "D": (p6 + p2 * p4 * QQ(1, 6) + pp * p2 + p2 ** 3 * QQ(1, 108))
        * QQ(1, 4),
    }


def verify_d4_coefficients() -> dict:
    """W-invariance of the mu-coefficients and their flat-coordinate match."""
    coeffs = d4_mu_coefficients()
    checks = _reflection_checks(DynkinType("D", 4), D4_MU.names, coeffs)
    psimu = psi_D4_of_mu()
    for name, row in d4_flat_coefficients().items():
        expected = row.substitute(psimu)
        ok = coeffs[name].extend(expected.vars) == expected
        checks.append({"check": f"{name} matches its flat form", "ok": ok})
    return {"checks": checks, "ok": all(c["ok"] for c in checks)}


# -- the E6 coefficient identities -------------------------------------------------

PSI_E6_VARS = VarTable(("psi2", "psi5", "psi6", "psi8", "psi9", "psi12"))


def e6_flat_coefficients() -> dict:
    """The six E6 family coefficients as polynomials in the flat coordinates.

    A_x and A_xy carry a factor sqrt(6); they are stored as the rational
    polynomial multiplying sqrt(6)/144 resp. 1/(2 sqrt(6)) = sqrt(6)/12
    (``E6_SQRT6_ROWS``) exactly as in the family equation.
    """
    p2, p5, p6, p8, p9, p12 = _variables(PSI_E6_VARS, PSI_E6_VARS.names)
    return {
        "A0": (p12 - p8 * p2 ** 2 * QQ(1, 8) - p6 ** 2 * QQ(1, 8)
               + p6 * p2 ** 3 * QQ(1, 96) - p5 ** 2 * p2) * QQ(1, 576),
        "Ax": (-p9 + p5 * p2 ** 2 * QQ(1, 4)),      # times sqrt(6)/144
        "Ay": (-p8 + p6 * p2 * QQ(1, 4) - p2 ** 4 * QQ(1, 192)) * QQ(1, 48),
        "Ax2": (p6 - p2 ** 3 * QQ(1, 8)) * QQ(1, 48),
        "Axy": p5,                                   # times 1/(2 sqrt(6))
        "Ax2y": p2 * QQ(-1, 4),
    }


# the monomial x^a y^b of each coefficient, as (a, b), in the family
# equation and (times x^2, as X^(a/2 + 1) Y^b) in the F4 quotient; and the
# rational factor beside sqrt(6) in the two rows that carry it
E6_MONOMIALS = {"Ax2y": (2, 1), "Axy": (1, 1), "Ax2": (2, 0), "Ay": (0, 1),
                "Ax": (1, 0), "A0": (0, 0)}
E6_SQRT6_ROWS = {"Ax": QQ(1, 144), "Axy": QQ(1, 12)}


def e6_mu_coefficients() -> dict:
    """The six coefficients as rational polynomials in mu_1..mu_6.

    Each row of ``e6_flat_coefficients`` is composed with the flat
    coordinates in (p, q), at most 103 terms a row, times r/144 resp. r/12
    (r = sqrt(6)) in the Ax and Axy rows, and mapped to mu once by
    ``psi_E6_of_mu``, which gives each term r to its q-degree.  The Ax and
    Axy rows are odd in q, so with their own r no r is left; a row left
    with r is not rational in mu (``ArithmeticError``).
    """
    psi = {name: p.extend(PQR_VARS) for _, name, p in flat_coords_E6().coords}
    r = MPoly.variable(PQR_VARS, SQRT6_VAR)
    rows = {}
    for name, coeff in e6_flat_coefficients().items():
        rows[name] = coeff.substitute(psi)
        if name in E6_SQRT6_ROWS:
            rows[name] = rows[name] * r * E6_SQRT6_ROWS[name]
    out = {}
    for name, p in psi_E6_of_mu(rows).items():
        try:
            out[name] = p.extend(MU_VARS)
        except VariableMismatch:
            raise ArithmeticError(f"{name} is not rational in mu") from None
    return out


def verify_e6_coefficients() -> dict:
    """Exact W-invariance of the six coefficients in mu coordinates."""
    checks = _reflection_checks(DynkinType("E", 6), MU_VARS.names,
                                e6_mu_coefficients())
    return {"checks": checks, "ok": all(c["ok"] for c in checks)}


def _reflection_checks(t: DynkinType, names, coeffs) -> list:
    """Each coefficient under each simple coweight reflection r_j,
    mu_i -> mu_i - C_ij mu_j, that is v -> v - v_j c with c the j-th
    column of the Cartan matrix, decided on the mirror mu_j = 0."""
    C = cartan_matrix(t)
    return [{"check": f"{name} invariant under r_{j + 1}",
             "ok": reflection_invariant(p, names[j], {
                 v: C[i][j] for i, v in enumerate(names)})}
            for j in range(t.rank) for name, p in coeffs.items()]


# -- singularity analysis -----------------------------------------------------------

@dataclass
class SingularPoint:
    """A singular point: its coordinates as scalars of the coefficient
    field, or, when ``minpoly`` (monic, low degree first) has degree d > 1,
    as polynomials in a root a of it, each held on the power basis 1, a,
    ..., a^(d-1).  The d points of such a class differ only numerically."""
    coords_exact: tuple
    coords_numeric: tuple
    tjurina: int
    ade: str
    minpoly: tuple | None
    exact = True        # every point is; the report keeps the key

    def to_json(self):
        out = {"coords_numeric": [[z.real, z.imag]
                                  for z in self.coords_numeric],
               "tjurina": self.tjurina, "ade": self.ade, "exact": self.exact}
        if self.minpoly is None:
            out["coords"] = [scalar_to_json(c) for c in self.coords_exact]
        else:
            out["coords"] = [[scalar_to_json(c) for c in v]
                             for v in self.coords_exact]
            out["minpoly"] = [scalar_to_json(c) for c in self.minpoly]
        return out


@dataclass
class SingularityReport:
    singular_points: list
    global_tjurina: object
    is_smooth: bool

    def to_json(self):
        return {"points": [p.to_json() for p in self.singular_points],
                "global_tjurina": self.global_tjurina,
                "smooth": self.is_smooth}


def _multiplication_matrix(ideal: Ideal, basis, h: MPoly):
    """Multiplication by h on the quotient by ``ideal``: column j holds the
    normal form of h times the standard monomial basis[j]."""
    lookup = {e: i for i, e in enumerate(basis)}
    M = [[QQ(0)] * len(basis) for _ in basis]
    for j, e in enumerate(basis):
        nf = ideal.normal_form(h * MPoly(ideal.vars, {e: QQ(1)}))
        for e2, c in nf.terms.items():
            M[lookup[e2]][j] = c
    return M


def _univariate(coeffs) -> MPoly:
    return MPoly(VarTable(("a",)), {(k,): c for k, c in enumerate(coeffs)})


def _coefficients(p: MPoly):
    """The coefficient list of a polynomial in one variable."""
    top = max((e[0] for e in p.terms), default=0)
    return [p.terms.get((k,), QQ(0)) for k in range(top + 1)]


def _ade(tau: int, d3: int) -> str:
    """The type from the Tjurina number and the length d3 of the local
    algebra modulo the cube of the maximal ideal: the normal forms give d3
    = min(k, 3) for A_k, 4 for D_k, 5 for E_k, 6 for X9, 7+ at corank 3."""
    if d3 <= 3:
        return f"A{tau}"
    if d3 == 4:
        return f"D{tau}"
    if d3 == 5 and tau in (6, 7, 8):
        return f"E{tau}"
    return "unclassified"


def _split_rational_roots(m):
    """The monic square-free m as its linear factors T - q with q rational,
    and the cofactor when it is not constant.  By the rational root theorem
    a rational root has a denominator dividing the lcm of m's denominators;
    each root of m in floats proposes the nearest such q, kept only where m
    vanishes exactly."""
    den = lcm(*(q.denominator for c in m
                for q in (c.coeffs if isinstance(c, Cyclo) else (c,))))
    out = []
    for alpha in np.roots([embed_complex(c) for c in reversed(m)]):
        fr = Fraction(alpha.real).limit_denominator(den)
        linear = [QQ(-fr.numerator, fr.denominator), QQ(1)]
        cofactor, rem = poly_divmod(m, linear)
        if not any(rem):
            out.append(linear)
            m = cofactor
    return out + ([m] if len(m) > 1 else [])


def _class_points(gens, names, m, coords, tau, ade):
    """The points of one class: the roots of m, with coordinate v the
    polynomial ``coords[v]`` in the root.  f and df must vanish there
    modulo m; a class that fails is a fault of the program."""
    polys = [_univariate(r) for r in coords]
    at_class = dict(zip(names, polys))
    for g in gens:
        if any(poly_divmod(_coefficients(g.substitute(at_class)), m)[1]):
            raise AssertionError(f"{g} does not vanish on the class of {m}")
    d = len(m) - 1
    if d == 1:
        exact, minpoly = tuple(r[0] for r in coords), None
    else:
        exact = tuple(tuple(r + [QQ(0)] * (d - len(r))) for r in coords)
        minpoly = tuple(m)
    return [SingularPoint(exact, tuple(p.evaluate_numeric({"a": alpha})
                                       for p in polys), tau, ade, minpoly)
            for alpha in np.roots([embed_complex(c) for c in reversed(m)])]


def analyze_hypersurface(f: MPoly, ambient_names,
                         budget: int = DEFAULT_BUDGET) -> SingularityReport:
    """Singular points of the hypersurface f = 0, each exact, with its
    Tjurina number and type.

    All is read from the exact multiplication matrices M_v of K[x]/I,
    I = (f, df), which is finite over the coefficient field K exactly when
    the points are isolated.  The characteristic polynomial of
    theta = x + c y + c^2 z is the product of (T - theta(p))^tau_p, so
    Yun's square-free split gives {tau: g_tau}, g_tau vanishing at the
    theta-values of the points of Tjurina number tau.  theta separates the
    points when that polynomial is square-free, or else when the product
    of the g_tau has degree dim K[x]/R, R = I + (P_x(x), P_y(y), P_z(z))
    the radical, P_v the square-free part of the characteristic polynomial
    of M_v (Cox, Little & O'Shea, ch. 2 Prop. 2.7).  c = 1, 2, ... is
    tried in turn; each pair of points rules out at most two values.  The
    same split over K[x]/(I + P^3) gives each point's d3 for ``_ade``.
    Coordinates come from the rational univariate representation
    (Rouillier, AAECC 9, 1999): v = g_v / g_1 modulo each class factor m,
    with g_v = sum_i Tr(M_v M_theta^i) H_i, the H_i the Horner shifts of
    the product of the g_tau.  Numeric coordinates, from the roots of m in
    floats, serve display and the order of the points only.
    """
    names = list(ambient_names)
    gens = [g for g in [f] + [f.diff(nm) for nm in names] if g]
    ideal = Ideal(gens, budget=budget)
    dim = ideal.quotient_dimension()
    if dim == 0:
        return SingularityReport([], 0, True)
    if dim == "infinite":
        return SingularityReport([], "infinite", False)
    coords = [MPoly.variable(f.vars, nm) for nm in names]
    basis = quotient_basis(ideal)
    mats = [_multiplication_matrix(ideal, basis, v) for v in coords]
    eliminants = None
    for c in itertools.count(1):
        weights = [QQ(c ** k) for k in range(len(names))]
        m_theta = [[sum((w * M[i][j] for w, M in zip(weights, mats)), QQ(0))
                    for j in range(dim)] for i in range(dim)]
        tau_classes = squarefree_split(charpoly(m_theta))
        if set(tau_classes) == {1}:
            break
        if eliminants is None:
            eliminants = [_univariate(reduce(poly_mul, squarefree_split(
                charpoly(M)).values())).substitute({"a": v})
                for M, v in zip(mats, coords)]
            npoints = Ideal(gens + eliminants,
                            budget=budget).quotient_dimension()
        if sum(len(g) - 1 for g in tau_classes.values()) == npoints:
            break
    classes = [(tau, g, 1) for tau, g in tau_classes.items()]
    if max(tau_classes) > 1:
        cubes = [a * b * e for a, b, e in
                 itertools.combinations_with_replacement(eliminants, 3)]
        jet = Ideal(gens + cubes, budget=budget)
        theta = sum((w * v for w, v in zip(weights, coords)), MPoly(f.vars))
        d3_classes = squarefree_split(charpoly(
            _multiplication_matrix(jet, quotient_basis(jet), theta)))
        classes = [(tau, m, d3) for tau, g in tau_classes.items()
                   for d3, h in d3_classes.items()
                   for m in [poly_gcd(g, h)] if len(m) > 1]
    # the rational univariate representation, 1 and then each coordinate
    root_poly = reduce(poly_mul, tau_classes.values())
    rur = [[QQ(0)] * (len(root_poly) - 1) for _ in range(len(mats) + 1)]
    one = [[QQ(int(i == j)) for j in range(dim)] for i in range(dim)]
    power = one
    for i in range(len(root_poly) - 1):
        for g, M in zip(rur, [one] + mats):
            # Tr(M M_theta^i)
            t = sum((a * power[k][j] for j, row in enumerate(M)
                     for k, a in enumerate(row) if a), QQ(0))
            for j, a in enumerate(root_poly[i + 1:]):
                g[j] += t * a
        power = mat_mul(m_theta, power)
    out = []
    for tau, m, d3 in classes:
        for factor in _split_rational_roots(m):
            inv = inverse_mod(poly_divmod(rur[0], factor)[1], factor)
            at = [poly_divmod(poly_mul(g, inv), factor)[1] for g in rur[1:]]
            out += _class_points(gens, names, factor, at, tau, _ade(tau, d3))
    out.sort(key=lambda p: [(round(z.real, 9), round(z.imag, 9))
                            for z in p.coords_numeric])
    return SingularityReport(out, dim, False)


def analyze_fibre(fam: DeformationFamily, values: dict,
                  budget: int = DEFAULT_BUDGET) -> SingularityReport:
    """Singularity report of the fibre of a family at parameter values."""
    return analyze_hypersurface(fam.fibre_equation(values),
                                fam.ambient_vars, budget=budget)
