"""Finite subgroups of SU(2) and the invariant presentations of C^2/Gamma.

Groups are generated by exact 2x2 cyclotomic matrices and enumerated by
closure.  For each singularity type the three invariant polynomials X, Y, Z
and their single relation are stored with any irrational normalising
constant (4^(1/r), 4^(1/3), 108^(1/4)) kept as a *formal* scale: a base and
a rational exponent.  Invariance checks run on the scale-free parts, and
the relation check clears the scales exactly -- every monomial of each
relation combines the scales into a rational number, which is multiplied
into the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exact import QQ, Cyclo, embed_complex, imag_unit, sqrt2, zeta
from .poly import MPoly, VarTable
from .rootdata import DynkinType, UnsupportedType


class ClosureBudgetExceeded(RuntimeError):
    pass


# -- 2x2 matrices over exact scalars ----------------------------------------

def mat_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0],
         A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0],
         A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def mat_det(A):
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def _mat_key(A):
    out = []
    for row in A:
        for x in row:
            z = embed_complex(x)
            out.append((round(z.real, 9), round(z.imag, 9)))
    return tuple(out)


def identity_matrix():
    return ((QQ(1), QQ(0)), (QQ(0), QQ(1)))


@dataclass
class SU2Group:
    label: str
    generators: list
    order_expected: int
    elements: list = field(default=None, repr=False)

    def enumerate(self, cap: int = 500):
        if self.elements is not None:
            return self.elements
        for g in self.generators:
            if mat_det(g) != 1:
                raise ValueError(f"{self.label}: generator not in SL2")
        seen = {_mat_key(identity_matrix()): identity_matrix()}
        frontier = [identity_matrix()]
        while frontier:
            new = []
            for e in frontier:
                for g in self.generators:
                    h = mat_mul(g, e)
                    k = _mat_key(h)
                    if k in seen:
                        # the float key finds the candidate; the exact
                        # entries decide
                        if seen[k] != h:
                            raise ArithmeticError(
                                f"{self.label}: unequal elements share the "
                                f"key {k}")
                    else:
                        if len(seen) >= cap:
                            raise ClosureBudgetExceeded(
                                f"{self.label}: more than {cap} elements")
                        seen[k] = h
                        new.append(h)
            frontier = new
        self.elements = list(seen.values())
        return self.elements

    def order(self) -> int:
        return len(self.enumerate())


def cyclic_group(n: int) -> SU2Group:
    zero = Cyclo.from_rat(0, n)
    g = ((zeta(n), zero), (zero, zeta(n, n - 1)))
    return SU2Group(f"C{n}", [g], n)


def binary_dihedral(n: int) -> SU2Group:
    """Binary dihedral group of order 4n."""
    i = imag_unit()
    zero = QQ(0)
    a = ((zeta(2 * n), zero), (zero, zeta(2 * n, 2 * n - 1)))
    b = ((zero, i), (i, zero))
    return SU2Group(f"D{n}", [a, b], 4 * n)


def binary_tetrahedral() -> SU2Group:
    i = imag_unit().lift(8)
    zero = Cyclo.from_rat(0, 8)
    eps = zeta(8)
    inv_s2 = sqrt2().inverse()
    c = ((inv_s2 * zeta(8, 7), inv_s2 * zeta(8, 7)),
         (-(inv_s2 * eps), inv_s2 * eps))
    s = ((i, zero), (zero, -i))
    t = ((zero, i), (i, zero))
    return SU2Group("T", [s, t, c], 24)


def binary_octahedral() -> SU2Group:
    g = binary_tetrahedral()
    zero = Cyclo.from_rat(0, 8)
    h = ((zeta(8, 3), zero), (zero, zeta(8, 5)))
    return SU2Group("O", g.generators + [h], 48)


# -- invariant data -----------------------------------------------------------

def rational_power(base: int, exp) -> "QQ | None":
    """base**exp as an exact rational, or None if irrational."""
    exp = QQ(exp)
    num, den = int(exp.numerator), int(exp.denominator)
    value = QQ(base) ** abs(num)
    # take the den-th root of value if it is a perfect power
    p, q = int(value.numerator), int(value.denominator)

    def iroot(m, k):
        if m == 0:
            return 0
        lo, hi = 0, max(2, 1 << ((m.bit_length() + k - 1) // k + 1))
        while lo < hi:
            mid = (lo + hi) // 2
            if mid ** k < m:
                lo = mid + 1
            else:
                hi = mid
        return lo if lo ** k == m else None

    rp, rq = iroot(p, den), iroot(q, den)
    if rp is None or rq is None:
        return None
    root = QQ(rp, rq)
    return root if num >= 0 else QQ(1) / root


@dataclass
class ScaledPoly:
    """scale * poly with scale = rad_base ** rad_exp kept formal."""
    poly: MPoly
    rad_base: int = 1
    rad_exp: object = QQ(0)


Z_VARS = VarTable(("z1", "z2"))
XYZ_VARS = VarTable(("X", "Y", "Z"))


def _zpoly():
    return (MPoly.variable(Z_VARS, "z1"), MPoly.variable(Z_VARS, "z2"))


def substitute_matrix(p: MPoly, M) -> MPoly:
    """p(z) -> p(M z) for a 2x2 matrix acting on (z1, z2)."""
    z1, z2 = _zpoly()
    return p.substitute({
        "z1": z1 * M[0][0] + z2 * M[0][1],
        "z2": z1 * M[1][0] + z2 * M[1][1],
    })


@dataclass
class KleinData:
    label: str
    gamma_type: DynkinType
    X: ScaledPoly
    Y: ScaledPoly
    Z: ScaledPoly
    relation: MPoly
    gamma: SU2Group
    gamma_prime: "SU2Group | None"
    omega_action: dict        # generator name -> (matrix, 3x3 action on XYZ)
    no_valid_gamma_prime: bool = False

    def scaled(self):
        return {"X": self.X, "Y": self.Y, "Z": self.Z}


def klein_data(t: DynkinType, variant: str = "paper") -> KleinData:
    """Invariant parametrisation of C^2/Gamma and the Gamma'-action tables.

    Supported: A_{2r-1} (r >= 1), A_{2r} (r >= 1, flagged: no valid
    Gamma'), D_{r+1} (r >= 3), E6, and D4 with its full S3 symmetry.  For
    D_{r+1} the ``variant`` flag 'swapped' builds the opposite sign
    convention for comparison.
    """
    z1, z2 = _zpoly()
    X, Y, Z = (MPoly.variable(XYZ_VARS, v) for v in "XYZ")
    i = imag_unit()

    if t.family == "A":
        n = t.rank + 1  # |Gamma| = n, Gamma = C_n
        ident3 = ((QQ(1), QQ(0), QQ(0)), (QQ(0), QQ(1), QQ(0)),
                  (QQ(0), QQ(0), QQ(1)))
        data_X = ScaledPoly(z1 * z2)
        data_Y = ScaledPoly(z1 ** n)
        data_Z = ScaledPoly(z2 ** n)
        relation = X ** n - Y * Z
        gamma = cyclic_group(n)
        if t.rank % 2 == 1:
            r = (t.rank + 1) // 2
            g = ((zeta(4 * r), Cyclo.from_rat(0, 4 * r)),
                 (Cyclo.from_rat(0, 4 * r), zeta(4 * r, 4 * r - 1)))
            g2 = mat_mul(g, g)
            h = ((QQ(0), i), (i, QQ(0)))
            gamma_prime = SU2Group(f"D{r}", [g2, h], 4 * r)
            sgn = QQ(-1) ** r
            act_h = ((QQ(-1), QQ(0), QQ(0)),
                     (QQ(0), QQ(0), sgn),
                     (QQ(0), sgn, QQ(0)))
            omega = {"g2": (g2, ident3), "h": (h, act_h)}
            return KleinData(f"A{t.rank}", t, data_X, data_Y, data_Z,
                             relation, gamma, gamma_prime, omega)
        # even A: the candidate C_{4r+2}-action fails to lift (stored flag)
        m = 2 * n
        g = ((zeta(m), Cyclo.from_rat(0, m)),
             (Cyclo.from_rat(0, m), zeta(m, m - 1)))
        act_g = ((QQ(1), QQ(0), QQ(0)), (QQ(0), QQ(-1), QQ(0)),
                 (QQ(0), QQ(0), QQ(-1)))
        gamma_prime = SU2Group(f"C{m}", [g], m)
        return KleinData(f"A{t.rank}", t, data_X, data_Y, data_Z, relation,
                         gamma, gamma_prime, {"g": (g, act_g)},
                         no_valid_gamma_prime=True)

    if t.family == "D" and t.rank >= 5:
        r = t.rank - 1  # D_{r+1}, Gamma = binary dihedral D_{r-1}
        sY = 1 if variant == "paper" else -1
        sgn_y = QQ(-1) ** (r + 1) * sY
        sgn_z = QQ(-1) ** r * sY
        w = 2 * (r - 1)
        data_X = ScaledPoly((z1 * z2) ** 2, 4, QQ(1, r))
        data_Y = ScaledPoly(z1 ** w + sgn_y * z2 ** w, 4, QQ(-1, 2 * r))
        data_Z = ScaledPoly((z1 * z2) * (z1 ** w + sgn_z * z2 ** w) * i)
        relation = X * Y ** 2 + QQ(-1) ** r * X ** r + Z ** 2
        gamma = binary_dihedral(r - 1)
        gamma_prime = binary_dihedral(2 * (r - 1))
        g = gamma_prime.generators[0]
        h = gamma_prime.generators[1]
        act_g = ((QQ(1), QQ(0), QQ(0)), (QQ(0), QQ(-1), QQ(0)),
                 (QQ(0), QQ(0), QQ(-1)))
        ident = ((QQ(1), QQ(0), QQ(0)), (QQ(0), QQ(1), QQ(0)),
                 (QQ(0), QQ(0), QQ(1)))
        omega = {"g": (g, act_g), "h": (h, ident)}
        return KleinData(f"D{t.rank}", t, data_X, data_Y, data_Z, relation,
                         gamma, gamma_prime, omega)

    if t == DynkinType("D", 4):
        # Gamma = D2 (quaternion), Gamma' = O, Omega = S3
        data_X = ScaledPoly((z1 * z2) ** 2, 4, QQ(1, 3))
        data_Y = ScaledPoly(z1 ** 4 + z2 ** 4, 4, QQ(-1, 6))
        data_Z = ScaledPoly(z1 * z2 * (z1 ** 4 - z2 ** 4) * i)
        relation = X * Y ** 2 - X ** 3 + Z ** 2
        gamma = binary_dihedral(2)
        gamma_prime = binary_octahedral()
        inv_s2 = sqrt2().inverse()
        # this octahedral representative induces the order-3 action below;
        # the diagonal-antidiagonal representative induces its square
        g = ((inv_s2 * zeta(8, 7), inv_s2 * zeta(8, 7)),
             (-(inv_s2 * zeta(8)), inv_s2 * zeta(8)))
        zero8 = Cyclo.from_rat(0, 8)
        h = ((zeta(8, 3), zero8), (zero8, zeta(8, 5)))
        half = QQ(1, 2)
        act_g = ((-half, half, QQ(0)),
                 (QQ(-3) * half, -half, QQ(0)),
                 (QQ(0), QQ(0), QQ(1)))
        act_h = ((QQ(1), QQ(0), QQ(0)), (QQ(0), QQ(-1), QQ(0)),
                 (QQ(0), QQ(0), QQ(-1)))
        omega = {"g": (g, act_g), "h": (h, act_h)}
        return KleinData("D4", t, data_X, data_Y, data_Z, relation, gamma,
                         gamma_prime, omega)

    if t == DynkinType("E", 6):
        z6 = zeta(6)
        data_X = ScaledPoly(z1 * z2 * (z1 ** 4 - z2 ** 4), 108, QQ(1, 4))
        data_Y = ScaledPoly(
            (z1 ** 8 + z2 ** 8 + 14 * (z1 * z2) ** 4) * z6)
        data_Z = ScaledPoly(
            (z1 ** 4 + z2 ** 4) ** 3 - 36 * (z1 * z2) ** 4 *
            (z1 ** 4 + z2 ** 4))
        relation = X ** 4 + Y ** 3 + Z ** 2
        gamma = binary_tetrahedral()
        gamma_prime = binary_octahedral()
        zero8 = Cyclo.from_rat(0, 8)
        g = ((zeta(8, 3), zero8), (zero8, zeta(8, 5)))
        act_g = ((QQ(-1), QQ(0), QQ(0)), (QQ(0), QQ(1), QQ(0)),
                 (QQ(0), QQ(0), QQ(-1)))
        omega = {"g": (g, act_g)}
        return KleinData("E6", t, data_X, data_Y, data_Z, relation, gamma,
                         gamma_prime, omega)

    raise UnsupportedType(f"no Klein data for {t}")


# -- verification -------------------------------------------------------------

def verify_invariance(kd: KleinData) -> dict:
    """Gamma fixes X, Y, Z and the relation vanishes on the parametrisation.

    Both checks are exact: generator invariance is tested on the
    scale-free parts, and the relation is tested after clearing scales
    (each relation monomial must combine them to a rational number).
    """
    checks = []
    for gi, gen in enumerate(kd.gamma.generators):
        for name, sp in kd.scaled().items():
            moved = substitute_matrix(sp.poly, gen)
            checks.append({
                "check": f"gamma_gen{gi}_fixes_{name}",
                "ok": moved == sp.poly,
            })
    scaled = kd.scaled()
    total = MPoly(Z_VARS)
    clearable = True
    for e, c in kd.relation.terms.items():
        factor = QQ(1)
        base_exp = {}
        term = MPoly.constant(Z_VARS, QQ(1))
        for k, name in zip(e, "XYZ"):
            if not k:
                continue
            sp = scaled[name]
            if sp.rad_base != 1:
                base_exp[sp.rad_base] = base_exp.get(sp.rad_base, QQ(0)) \
                    + k * QQ(sp.rad_exp)
            term = term * sp.poly ** k
        for b, ex in base_exp.items():
            r = rational_power(b, ex)
            if r is None:
                clearable = False
                break
            factor = factor * r
        if not clearable:
            break
        total = total + term * (factor * c)
    checks.append({"check": "relation_vanishes",
                   "ok": clearable and total.is_zero()})
    return {"label": kd.label, "checks": checks,
            "ok": all(c["ok"] for c in checks)}


def verify_omega_action(kd: KleinData) -> dict:
    """The printed Gamma'-action tables hold exactly on the parametrisation.

    For generator gamma' with action matrix M: substituting z -> gamma' z
    into the scale-free part of P_i must equal sum_j M_ij (scale_j /
    scale_i) P~_j, and every needed scale ratio must be rational.
    """
    checks = []
    names = ("X", "Y", "Z")
    scaled = kd.scaled()
    for gname, (gen, M) in kd.omega_action.items():
        for a, name in enumerate(names):
            sp = scaled[name]
            moved = substitute_matrix(sp.poly, gen)
            expect = MPoly(Z_VARS)
            ok = True
            for b, other in enumerate(names):
                coef = M[a][b]
                if not coef:
                    continue
                so = scaled[other]
                if so.rad_base == sp.rad_base:
                    ratio = rational_power(
                        sp.rad_base, QQ(so.rad_exp) - QQ(sp.rad_exp))
                elif sp.rad_base == 1:
                    ratio = rational_power(so.rad_base, QQ(so.rad_exp))
                elif so.rad_base == 1:
                    ratio = rational_power(sp.rad_base, -QQ(sp.rad_exp))
                else:
                    ratio = None
                if ratio is None:
                    ok = False
                    break
                expect = expect + so.poly * (coef * ratio)
            status = ok and moved == expect
            checks.append({"generator": gname, "polynomial": name,
                           "ok": status})
    report = {"label": kd.label, "checks": checks,
              "ok": all(c["ok"] for c in checks)}
    if kd.no_valid_gamma_prime:
        report["no_valid_gamma_prime"] = True
    return report
