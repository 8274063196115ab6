"""Finite subgroups of SU(2) and the invariant presentations of C^2/Gamma.

Groups are generated by exact 2x2 cyclotomic matrices and enumerated by
closure, each element keyed by the exact coordinates of its entries over
one common conductor.  For each singularity type the three invariant
polynomials X, Y, Z and their single relation are stored exactly.  An
irrational normalising constant (4^(1/r), 4^(1/3), 108^(1/4)) is a power of
one adjoined root a, held as one more variable beside z1, z2: a^r = 2 on
D_(r+1) (D4 included) and a^4 = 108 on E6.  Every check is one
substitution folded by that relation (``poly.fold_root``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm

from .exact import QQ, Cyclo, imag_unit, mat_mul, sqrt2, zeta
from .poly import MPoly, VarTable, fold_root
from .rootdata import DynkinType, UnsupportedType, orbit


# a group closure that reaches more elements is refused
CLOSURE_CAP = 500


@dataclass
class SU2Group:
    label: str
    generators: list
    order_expected: int
    elements: list = field(default=None, repr=False)

    def enumerate(self):
        if self.elements is not None:
            return self.elements
        for (a, b), (c, d) in self.generators:
            if a * d - b * c != 1:
                raise ValueError(f"{self.label}: generator not in SL2")
        # one conductor for every entry: then the entries' (nums, den) are
        # an exact key, equal for equal elements only
        n = lcm(*(x.n for g in self.generators for row in g for x in row
                  if isinstance(x, Cyclo)))

        def lifted(x):
            return x.lift(n) if isinstance(x, Cyclo) else Cyclo.from_rat(x, n)

        gens = [[[lifted(x) for x in row] for row in g]
                for g in self.generators]
        one = [[lifted(QQ(int(i == j))) for j in range(2)] for i in range(2)]
        self.elements = orbit(
            [one], lambda e: (mat_mul(g, e) for g in gens),
            key=lambda A: tuple((y.nums, y.den) for row in A
                                for y in map(lifted, row)),
            cap=CLOSURE_CAP)
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

Z_VARS = VarTable(("z1", "z2", "a"))
XYZ_VARS = VarTable(("X", "Y", "Z"))


def _zpoly():
    return tuple(MPoly.variable(Z_VARS, v) for v in Z_VARS.names)


def substitute_matrix(p: MPoly, M) -> MPoly:
    """p(z) -> p(M z) for a 2x2 matrix acting on (z1, z2); a stays."""
    z1, z2, a = _zpoly()
    return p.substitute({
        "z1": z1 * M[0][0] + z2 * M[0][1],
        "z2": z1 * M[1][0] + z2 * M[1][1],
        "a": a,
    })


@dataclass
class KleinData:
    label: str
    gamma_type: DynkinType
    X: MPoly
    Y: MPoly
    Z: MPoly
    relation: MPoly
    gamma: SU2Group
    gamma_prime: "SU2Group | None"
    omega_action: dict        # generator name -> (matrix, 3x3 action on XYZ)
    root: "tuple | None" = None   # (k, c): a^k = c, None when a is unused
    no_valid_gamma_prime: bool = False

    def invariants(self):
        return {"X": self.X, "Y": self.Y, "Z": self.Z}

    def fold(self, p: MPoly) -> MPoly:
        return fold_root(p, "a", *self.root) if self.root else p


def _diag(*d):
    """The diagonal 3x3 action table with entries d."""
    return tuple(tuple(QQ(x) if i == j else QQ(0) for j in range(3))
                 for i, x in enumerate(d))


def klein_data(t: DynkinType) -> KleinData:
    """Invariant parametrisation of C^2/Gamma and the Gamma'-action tables.

    Supported: A_{2r-1} (r >= 1), A_{2r} (r >= 1, flagged: no valid
    Gamma'), D_{r+1} (r >= 3; D4 with its full S3 symmetry) and E6.  The
    Gamma' generators are read off the groups that build them.
    """
    z1, z2, a = _zpoly()
    X, Y, Z = (MPoly.variable(XYZ_VARS, v) for v in "XYZ")
    i = imag_unit()

    if t.family == "A":
        n = t.rank + 1  # |Gamma| = n, Gamma = C_n
        data = (z1 * z2, z1 ** n, z2 ** n)
        relation = X ** n - Y * Z
        gamma = cyclic_group(n)
        if t.rank % 2 == 1:
            r = (t.rank + 1) // 2
            gamma_prime = binary_dihedral(r)
            g2, h = gamma_prime.generators
            sgn = QQ(-1) ** r
            act_h = ((QQ(-1), QQ(0), QQ(0)),
                     (QQ(0), QQ(0), sgn),
                     (QQ(0), sgn, QQ(0)))
            omega = {"g2": (g2, _diag(1, 1, 1)), "h": (h, act_h)}
            return KleinData(f"A{t.rank}", t, *data, relation, gamma,
                             gamma_prime, omega)
        # even A: the candidate C_{4r+2}-action fails to lift (stored flag)
        gamma_prime = cyclic_group(2 * n)
        omega = {"g": (gamma_prime.generators[0], _diag(1, -1, -1))}
        return KleinData(f"A{t.rank}", t, *data, relation, gamma,
                         gamma_prime, omega, no_valid_gamma_prime=True)

    if t.family == "D":
        r = t.rank - 1  # D_{r+1}, Gamma = binary dihedral D_{r-1}
        sgn_y = QQ(-1) ** (r + 1)
        sgn_z = QQ(-1) ** r
        w = 2 * (r - 1)
        # a = 2^(1/r): the scales 4^(1/r) and 4^(-1/(2r)) are a^2 and
        # a^(r-1)/2
        data = (a ** 2 * (z1 * z2) ** 2,
                a ** (r - 1) * (z1 ** w + sgn_y * z2 ** w) * QQ(1, 2),
                (z1 * z2) * (z1 ** w + sgn_z * z2 ** w) * i)
        relation = X * Y ** 2 + QQ(-1) ** r * X ** r + Z ** 2
        gamma = binary_dihedral(r - 1)
        flip = _diag(1, -1, -1)
        if r == 3:
            # D4: Gamma = D2 (quaternion), Gamma' = O, Omega = S3; the
            # tetrahedral generator c induces the order-3 action below (the
            # diagonal-antidiagonal representative induces its square)
            gamma_prime = binary_octahedral()
            _, _, g, h = gamma_prime.generators
            half = QQ(1, 2)
            act_g = ((-half, half, QQ(0)),
                     (QQ(-3) * half, -half, QQ(0)),
                     (QQ(0), QQ(0), QQ(1)))
            omega = {"g": (g, act_g), "h": (h, flip)}
        else:
            gamma_prime = binary_dihedral(2 * (r - 1))
            g, h = gamma_prime.generators
            omega = {"g": (g, flip), "h": (h, _diag(1, 1, 1))}
        return KleinData(f"D{t.rank}", t, *data, relation, gamma,
                         gamma_prime, omega, root=(r, 2))

    if t == DynkinType("E", 6):
        z6 = zeta(6)
        # a = 108^(1/4)
        data = (a * z1 * z2 * (z1 ** 4 - z2 ** 4),
                (z1 ** 8 + z2 ** 8 + 14 * (z1 * z2) ** 4) * z6,
                (z1 ** 4 + z2 ** 4) ** 3 - 36 * (z1 * z2) ** 4 *
                (z1 ** 4 + z2 ** 4))
        relation = X ** 4 + Y ** 3 + Z ** 2
        gamma = binary_tetrahedral()
        gamma_prime = binary_octahedral()
        omega = {"g": (gamma_prime.generators[-1], _diag(-1, 1, -1))}
        return KleinData("E6", t, *data, relation, gamma, gamma_prime,
                         omega, root=(4, 108))

    raise UnsupportedType(f"no Klein data for {t}")


# -- verification -------------------------------------------------------------

def verify_invariance(kd: KleinData) -> dict:
    """Gamma fixes X, Y, Z and the relation vanishes on the parametrisation.

    Each check is one exact substitution folded by the relation of a."""
    checks = []
    invariants = kd.invariants()
    for gi, gen in enumerate(kd.gamma.generators):
        for name, p in invariants.items():
            moved = kd.fold(substitute_matrix(p, gen))
            checks.append({"check": f"gamma_gen{gi}_fixes_{name}",
                           "ok": moved == p})
    image = kd.fold(kd.relation.substitute(invariants))
    checks.append({"check": "relation_vanishes", "ok": image.is_zero()})
    return {"label": kd.label, "checks": checks,
            "ok": all(c["ok"] for c in checks)}


def verify_omega_action(kd: KleinData) -> dict:
    """The printed Gamma'-action tables hold exactly on the parametrisation.

    For generator gamma' with action matrix M: substituting z -> gamma' z
    into P_i, folded by the relation of a, must equal sum_j M_ij P_j.
    """
    checks = []
    invariants = kd.invariants()
    for gname, (gen, M) in kd.omega_action.items():
        for row, (name, p) in zip(M, invariants.items()):
            expect = MPoly(Z_VARS)
            for coef, q in zip(row, invariants.values()):
                if coef:
                    expect = expect + q * coef
            moved = kd.fold(substitute_matrix(p, gen))
            checks.append({"generator": gname, "polynomial": name,
                           "ok": moved == expect})
    report = {"label": kd.label, "checks": checks,
              "ok": all(c["ok"] for c in checks)}
    if kd.no_valid_gamma_prime:
        report["no_valid_gamma_prime"] = True
    return report
