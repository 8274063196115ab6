"""Root systems, the coweight chart, automorphisms, foldings, McKay data.

Types A_r and D_r live in Bourbaki orthonormal coordinates over Q.  Type E6
uses the six-dimensional model in which the Weyl group is the symmetry group
of the 27-vertex polytope: simple roots are sqrt(2) times the unit normals
of six reflection hyperplanes, over Q(zeta_24) (sqrt 2, sqrt 3, sqrt 6),
numbered as the deformation computations number them, not as the books do.
The point h = -sum mu_i Lambda_i^vee that a central value or coweight
coordinate mu names is stated here alone, in these models (``cartan_point``).

Root identity, positivity and height are integer facts: the positive roots
are integer coefficient vectors over the simple roots, closed under the
simple reflections through the Cartan matrix, and an embedded root is the
same combination of the embedded simple roots.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .exact import QQ, Cyclo, mat_mul, rref, sqrt2, sqrt3


class UnsupportedType(ValueError):
    pass


class InvalidAutomorphism(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class ClosureBudgetExceeded(RuntimeError):
    pass


def orbit(seeds, images, key=lambda x: x, cap=None):
    """Every element reached from ``seeds`` by repeated ``images`` (a
    function from an element to its neighbours), once per ``key``, in
    breadth-first order; more than ``cap`` elements raise
    ``ClosureBudgetExceeded``."""
    seen, frontier = {}, []
    for x in seeds:
        if seen.setdefault(key(x), x) is x:
            frontier.append(x)
    while frontier:
        new = []
        for x in frontier:
            for y in images(x):
                k = key(y)
                if k not in seen:
                    if cap is not None and len(seen) >= cap:
                        raise ClosureBudgetExceeded(
                            f"a closure of more than {cap} elements")
                    seen[k] = y
                    new.append(y)
        frontier = new
    return list(seen.values())


@dataclass(frozen=True)
class DynkinType:
    family: str
    rank: int

    def __post_init__(self):
        fam, r = self.family, self.rank
        ok = (fam == "A" and r >= 1) or (fam == "B" and r >= 2) \
            or (fam == "C" and r >= 3) or (fam == "D" and r >= 4) \
            or (fam == "E" and r in (6, 7, 8)) or (fam == "F" and r == 4) \
            or (fam == "G" and r == 2)
        if not ok:
            raise UnsupportedType(f"invalid Dynkin type {fam}{r}")

    @property
    def homogeneous(self) -> bool:
        return self.family in ("A", "D", "E")

    def __str__(self):
        return f"{self.family}{self.rank}"


def parse_type(text: str) -> DynkinType:
    """The type a label such as "E6" names; any other text raises
    ``UnsupportedType`` naming it."""
    try:
        rank = int(text[1:])
    except ValueError:
        raise UnsupportedType(f"invalid Dynkin type {text}") from None
    return DynkinType(text[0].upper(), rank)


# Paper numbering of the E6 diagram: chain 1-4-6-5-2 with 3 on the centre 6,
# listed so that the extended diagram's arrows come out in the order the
# quiver actions were written against.
E6_EDGES = ((3, 6), (1, 4), (4, 6), (2, 5), (5, 6))


def dynkin_edges(t: DynkinType):
    """Unordered edges of the Dynkin diagram, vertices 1..rank."""
    fam, r = t.family, t.rank
    if fam == "A":
        return tuple((i, i + 1) for i in range(1, r))
    if fam == "D":
        # alpha_i = e_i - e_{i+1} (i < r), alpha_r = e_{r-1} + e_r:
        # chain 1..r-1 plus r attached to r-2.
        return tuple((i, i + 1) for i in range(1, r - 1)) + ((r - 2, r),)
    if fam == "E" and r == 6:
        return E6_EDGES
    if fam == "E" and r == 7:
        return ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4))
    if fam == "E" and r == 8:
        return ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
    raise UnsupportedType(f"no simply laced diagram for {t}")


def cartan_matrix(t: DynkinType):
    """Cartan matrix for the package's vertex numbering (A/D/E only)."""
    r = t.rank
    edges = dynkin_edges(t)
    C = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j in edges:
        C[i - 1][j - 1] = C[j - 1][i - 1] = -1
    return C


# -- root systems ------------------------------------------------------------

class RootSystem:
    """Simple roots in orthonormal coordinates (exact) and the positive
    roots.  ``positive_coeffs`` holds each positive root's integer
    coefficients over the simple roots; ``positive_roots`` the same
    combinations of the embedded simple roots."""

    def __init__(self, dtype, ambient_dim, simple_roots):
        self.dtype = dtype
        self.ambient_dim = ambient_dim
        self.simple_roots = simple_roots
        self.cartan = cartan_matrix(dtype)
        gram = [[_dot(a, b) for b in simple_roots] for a in simple_roots]
        if gram != self.cartan:
            raise DimensionMismatch(
                f"the embedded simple roots of {dtype} do not have its "
                f"Cartan matrix as Gram matrix")
        self.positive_coeffs = _positive_coeffs(self.cartan)
        self.positive_roots = [_combine(b, simple_roots)
                               for b in self.positive_coeffs]


def _dot(u, v):
    total = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        total = total + a * b
    return total


def _combine(coeffs, vectors):
    """sum_i coeffs[i] * vectors[i], coordinate by coordinate."""
    return tuple(sum((c * v[k] for c, v in zip(coeffs, vectors) if c), QQ(0))
                 for k in range(len(vectors[0])))


def _positive_coeffs(C):
    """The positive roots of the Cartan matrix C as integer coefficient
    vectors over the simple roots, by height: the unit vectors closed
    under s_i(b) = b - <b, a_i^v> a_i, keeping the roots whose
    coefficients are all >= 0 (Humphreys, Introduction to Lie Algebras
    and Representation Theory, §10)."""
    r = len(C)

    def reflections(b):
        return (b[:i] + (b[i] - sum(b[j] * C[j][i] for j in range(r)),)
                + b[i + 1:] for i in range(r))

    units = [tuple(int(i == j) for j in range(r)) for i in range(r)]
    return sorted((b for b in orbit(units, reflections) if min(b) >= 0),
                  key=lambda b: (sum(b), b))


_FRAME_KEYS = tuple(
    [key for k in (1, 2, 3) for key in ((k, 0, 0), (0, k, 0), (0, 0, k))]
    + list(itertools.product((1, 2, 3), repeat=3)))


def _frame_normal(key):
    """One of the 36 unit normals of the E6 mirror arrangement, over
    Q(zeta_24).  With (c_k, s_k) = (cos, sin)(2 pi k / 3), (k, 0, 0) is
    (-s_k, c_k) in the first coordinate plane (likewise (0, k, 0), (0, 0, k))
    and (k, l, m) is (c_k, s_k, c_l, s_l, c_m, s_m) / sqrt(3)."""
    if key not in _FRAME_KEYS:
        raise KeyError(key)
    zero = Cyclo.from_rat(0, 24)
    half = Cyclo.from_rat(QQ(1, 2), 24)
    r3 = sqrt3().lift(24)

    def cos_sin(k):
        if k == 3:
            return Cyclo.from_rat(1, 24), zero
        s = r3 * half
        return -half, (s if k == 1 else -s)

    if key.count(0) == 2:
        normal = ()
        for k in key:
            c, s = cos_sin(k) if k else (zero, zero)
            normal += (-s, c)
        return normal
    inv_r3 = r3 / 3
    return tuple(inv_r3 * c for k in key for c in cos_sin(k))


E6_SIMPLE_NORMALS = {1: (3, 0, 0), 2: (0, 0, 3), 3: (0, 1, 0),
                     4: (1, 0, 0), 5: (0, 0, 1), 6: (3, 3, 3)}


def _simple_roots(t: DynkinType):
    fam, r = t.family, t.rank
    if fam in ("A", "D"):
        # alpha_i = e_i - e_(i+1); D's last one is e_(r-1) + e_r
        n = r + 1 if fam == "A" else r
        simples = [tuple(QQ(int(k == i) - int(k == i + 1)) for k in range(n))
                   for i in range(r if fam == "A" else r - 1)]
        if fam == "D":
            simples.append(tuple(QQ(int(k >= r - 2)) for k in range(n)))
        return simples
    if fam == "E" and r == 6:
        s2 = sqrt2().lift(24)
        return [tuple(s2 * c for c in _frame_normal(E6_SIMPLE_NORMALS[i]))
                for i in range(1, 7)]
    raise UnsupportedType(f"root system not built for {t}")


def build_root_system(t: DynkinType) -> RootSystem:
    simples = _simple_roots(t)
    return RootSystem(t, len(simples[0]), simples)


@functools.cache
def coweights(t: DynkinType) -> tuple:
    """The fundamental coweights Lambda_i^vee = sum_j (C^-1)_ij alpha_j
    (alpha_i^vee = alpha_i here), so <Lambda_i^vee, alpha_j> = delta_ij;
    C^-1 is the right half of one ``rref`` of [C | I]."""
    r, simples = t.rank, _simple_roots(t)
    inverse, _ = rref([row + [int(i == j) for j in range(r)]
                       for i, row in enumerate(cartan_matrix(t))], r)
    return tuple(_combine(row[r:], simples) for row in inverse)


def cartan_point(t: DynkinType, mu) -> tuple:
    """h = -sum mu_i Lambda_i^vee, the point with alpha_i(h) = -mu_i that a
    McKay central value or coweight coordinate mu names (Kronheimer, J.
    Differential Geom. 29, 1989), for rational or polynomial mu."""
    return _combine([-m for m in mu], coweights(t))


def coxeter_number(t: DynkinType) -> int:
    """The order of the Coxeter element s_1 ... s_r, the simple reflections
    acting on simple-root coordinates through the Cartan matrix."""
    C = cartan_matrix(t)
    r = t.rank
    ident = [[int(i == j) for j in range(r)] for i in range(r)]
    c = ident
    for i in range(r):
        # s_i(b) = b - <b, a_i^v> a_i changes coordinate i only
        s = [row[:] for row in ident]
        s[i] = [int(i == j) - C[j][i] for j in range(r)]
        c = mat_mul(c, s)
    power, h = c, 1
    while power != ident:
        power, h = mat_mul(power, c), h + 1
    return h


# -- diagram automorphisms ---------------------------------------------------

@dataclass(frozen=True)
class DiagramAutomorphism:
    """Permutation of {1..rank} preserving the Cartan matrix."""
    vertex_perm: tuple

    def __call__(self, i: int) -> int:
        return self.vertex_perm[i - 1]

    def compose(self, other: "DiagramAutomorphism") -> "DiagramAutomorphism":
        return DiagramAutomorphism(
            tuple(self.vertex_perm[j - 1] for j in other.vertex_perm))


def validate_automorphism(t: DynkinType, sigma: DiagramAutomorphism):
    C = cartan_matrix(t)
    r = t.rank
    p = sigma.vertex_perm
    if sorted(p) != list(range(1, r + 1)):
        raise InvalidAutomorphism(f"not a permutation of 1..{r}")
    for i in range(r):
        for j in range(r):
            if C[p[i] - 1][p[j] - 1] != C[i][j]:
                raise InvalidAutomorphism(
                    f"permutation {p} breaks the Cartan matrix")


def close_group(gens):
    """Close a list of DiagramAutomorphism under composition."""
    if not gens:
        return []
    ident = DiagramAutomorphism(tuple(range(1, len(gens[0].vertex_perm) + 1)))
    return orbit([ident], lambda e: (g.compose(e) for g in gens))


def omega_generators(t: DynkinType, name: str):
    """Validated generators of the named symmetry group: 'trivial', 'z2',
    'z3' (D4), 's3' (D4)."""
    r = t.rank
    ident = tuple(range(1, r + 1))
    if name == "trivial":
        perms = [ident]
    elif name == "z2":
        if t.family == "A":
            perms = [ident[::-1]]
        elif t.family == "D":
            perms = [ident[: r - 2] + (r, r - 1)]
        elif t == DynkinType("E", 6):
            perms = [(2, 1, 3, 5, 4, 6)]
        else:
            raise UnsupportedType(f"no involution for {t}")
    elif name in ("z3", "s3"):
        if t != DynkinType("D", 4):
            raise UnsupportedType(f"{name} symmetry needs D4")
        # rho: 1 -> 4 -> 3 -> 1; s3 adds the swap of 3 and 4
        rho = (4, 2, 1, 3)
        perms = [rho] if name == "z3" else [rho, (1, 2, 4, 3)]
    else:
        raise UnsupportedType(f"unknown symmetry name {name!r}")
    gens = [DiagramAutomorphism(p) for p in perms]
    for g in gens:
        validate_automorphism(t, g)
    return gens


def standard_omega(t: DynkinType, name: str):
    """The named symmetry group, closed from ``omega_generators``."""
    return close_group(omega_generators(t, name))


# -- folding -----------------------------------------------------------------

def _candidate_cartans(k: int):
    out = {}
    if k >= 1:
        out[f"A{k}"] = cartan_matrix(DynkinType("A", k))
    if k >= 2:
        B = [row[:] for row in out[f"A{k}"]]
        B[k - 2][k - 1] = -2
        out[f"B{k}"] = B
    if k >= 3:
        Cm = [row[:] for row in out[f"A{k}"]]
        Cm[k - 1][k - 2] = -2
        out[f"C{k}"] = Cm
    if k == 4:
        out["F4"] = [[2, -1, 0, 0], [-1, 2, -2, 0],
                     [0, -1, 2, -1], [0, 0, -1, 2]]
    if k == 2:
        out["G2"] = [[2, -1], [-3, 2]]
    if k >= 4:
        out[f"D{k}"] = cartan_matrix(DynkinType("D", k))
    return out


def fold(t: DynkinType, omega) -> DynkinType:
    """Type of the invariant root lattice Q^Omega.

    ``omega`` is a list of DiagramAutomorphism (any generating set).  The
    folded Cartan matrix is computed from orbit sums of simple roots; an
    orbit of adjacent vertices (the even-A case) folds to type C by the
    standard convention for that degenerate orbit geometry.
    """
    if not t.homogeneous:
        raise UnsupportedType(f"can only fold simply laced types, got {t}")
    group = close_group(list(omega))
    for g in group:
        validate_automorphism(t, g)
    r = t.rank
    orbits = sorted({tuple(sorted({g(i) for g in group}))
                     for i in range(1, r + 1)})
    if len(orbits) == r:
        return t
    C = cartan_matrix(t)
    adjacent_orbit = any(
        C[i - 1][j - 1] == -1
        for P in orbits for i in P for j in P if i < j)
    k = len(orbits)
    if adjacent_orbit:
        # Even-A folding: an orbit of two adjacent vertices.  The invariant
        # lattice is isometric to the odd case, but the folded root system
        # is type C (B2 stands in for C2, A1 for C1).
        if k == 1:
            return DynkinType("A", 1)
        return DynkinType("C", k) if k >= 3 else DynkinType("B", 2)
    gram = [[sum(QQ(C[i - 1][j - 1]) for i in P for j in Q)
             for Q in orbits] for P in orbits]
    cartan = [[2 * gram[a][b] / gram[b][b] for b in range(k)]
              for a in range(k)]
    candidates = _candidate_cartans(k)
    for label, M in candidates.items():
        for p in itertools.permutations(range(k)):
            if all(cartan[p[i]][p[j]] == M[i][j]
                   for i in range(k) for j in range(k)):
                return DynkinType(label[0], int(label[1:]))
    raise InvalidAutomorphism("folded lattice is not of B/C/F/G/ADE type")


# -- Weyl group action -------------------------------------------------------

def vanishing_roots(rs: RootSystem, h):
    """Positive roots alpha with alpha(h) = 0, as simple-root coefficients;
    alpha(h) is the same integer combination of the alpha_i(h)."""
    if len(h) != rs.ambient_dim:
        raise DimensionMismatch(
            f"expected ambient dim {rs.ambient_dim}, got {len(h)}")
    pairings = [_dot(a, h) for a in rs.simple_roots]
    return sorted(b for b in rs.positive_coeffs
                  if not sum(c * p for c, p in zip(b, pairings)))


def omega_action_on_cartan(rs: RootSystem, sigma: DiagramAutomorphism, h):
    """sigma . h: h = sum_j <h, alpha_j> Lambda_j^vee, and sigma sends
    Lambda_j^vee to Lambda_sigma(j)^vee; an h outside the span of the
    simple roots fails the exact back-check and is refused."""
    lam = coweights(rs.dtype)
    pairings = [_dot(h, a) for a in rs.simple_roots]
    if _combine(pairings, lam) != tuple(h):
        raise ValueError(
            f"h is outside the span of the simple roots of {rs.dtype}")
    return _combine(pairings, [lam[p - 1] for p in sigma.vertex_perm])


def omega_average(rs: RootSystem, omega, h):
    """p(h) = |Omega|^-1 sum_sigma sigma.h on the Cartan space."""
    group = close_group(list(omega))
    if len(h) != rs.ambient_dim:
        raise DimensionMismatch("bad vector arity")
    total = [QQ(0)] * rs.ambient_dim
    for g in group:
        moved = omega_action_on_cartan(rs, g, h)
        total = [x + y for x, y in zip(total, moved)]
    return tuple(x / len(group) for x in total)


# -- McKay data --------------------------------------------------------------

def extended_edges(t: DynkinType):
    """Edges of the extended (affine) diagram: vertex 0's edges, then the
    Dynkin edges in their numbering.  A1's two edges join 0 and 1."""
    if not t.homogeneous:
        raise UnsupportedType(f"{t} has no McKay quiver")
    if t.family == "A":
        return ((0, 1),) + dynkin_edges(t) + ((t.rank, 0),)
    # vertex 0 hangs on the one simple root that pairs with the highest root
    hook = 2 if t.family == "D" else {6: 3, 7: 1, 8: 8}[t.rank]
    return ((0, hook),) + dynkin_edges(t)


@functools.cache
def mckay_dimension_vector(t: DynkinType):
    """The minimal imaginary root delta on the extended diagram: 1 at the
    affine vertex 0, then the coefficients of the highest root, the last
    positive root by height."""
    if not t.homogeneous:
        raise UnsupportedType(f"{t} has no McKay quiver")
    return (1,) + _positive_coeffs(cartan_matrix(t))[-1]
