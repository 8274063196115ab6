"""McKay quiver representation spaces, moment maps and symmetry actions.

The doubled quiver on the extended Dynkin diagram carries an orientation
eps with eps(a) = -eps(abar) = 1 on the chosen positive arrows.  The
symplectic form is sum_a eps(a) Tr(phi_a psi_abar) and the moment map has
vertex-v entry sum_{t(a)=v} eps(a) phi_a phi_abar.  Symmetry actions are
stored as an arrow bijection with scalar factors; admissibility couples
those scalars to the orientation (symplecticity) and to the central-fibre
conditions of the special fibre.

One moment map and one action serve MPoly symbols and exact rational
points alike: equivariance is decided as an identity on symbols, and
seeded exact points sample the fibres of types A and D4 (A's eigenvalues
are ``rootdata.cartan_point`` of the central value).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, lru_cache
from math import lcm, prod

from .exact import QQ, mat_mul, over_one_den, rat, rref, trace
from .poly import MPoly, VarTable
from .rootdata import (DynkinType, UnsupportedType, cartan_point,
                       extended_edges, mckay_dimension_vector,
                       omega_generators)


class SingularSystem(RuntimeError):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    src: int
    tgt: int


class McKayQuiver:
    """Doubled quiver on the extended diagram with a signed orientation."""

    def __init__(self, base_type: DynkinType):
        self.base_type = base_type
        self.dims = mckay_dimension_vector(base_type)
        self.arrows = []
        self.orientation = {}
        self.reverse = {}
        pos = _positive_arrows(base_type)
        for name, src, tgt in pos:
            bar = "b" + name[1:] if name[0] == "a" else "pb" + name[2:]
            self.arrows.append(Arrow(name, src, tgt))
            self.arrows.append(Arrow(bar, tgt, src))
            self.orientation[name] = 1
            self.orientation[bar] = -1
            self.reverse[name] = bar
            self.reverse[bar] = name
        self.by_name = {a.name: a for a in self.arrows}
        # vertex v -> (a, abar, eps(a)) for the arrows a with target v
        self.incoming = tuple(
            tuple((a.name, self.reverse[a.name], self.orientation[a.name])
                  for a in self.arrows if a.tgt == v)
            for v in range(len(self.dims)))

    def shape(self, arrow_name: str):
        a = self.by_name[arrow_name]
        return (self.dims[a.tgt], self.dims[a.src])

    def positive_arrows(self):
        return [a for a in self.arrows if self.orientation[a.name] == 1]

    def vertex_count(self):
        return len(self.dims)


@cache
def _quiver(t: DynkinType) -> McKayQuiver:
    """The McKay quiver of t, built once per process: the fibre samplers
    share it and nothing writes to it."""
    return McKayQuiver(t)


def _positive_arrows(t: DynkinType):
    fam, r = t.family, t.rank
    if fam == "A":
        return [(f"a{i}", i, (i + 1) % (r + 1)) for i in range(r + 1)]
    d = mckay_dimension_vector(t)
    # D and E: orient every edge toward the larger dimension (toward the
    # centre)
    out = []
    for i, j in extended_edges(t):
        src, tgt = (i, j) if d[i] <= d[j] else (j, i)
        out.append((f"pa{src}", src, tgt))
    return out


# -- symbolic representations -------------------------------------------------

class SymbolicRep:
    """One MPoly matrix per arrow, entries fresh symbols."""

    def __init__(self, quiver: McKayQuiver, prefix: str = ""):
        self.quiver = quiver
        names = {}
        for a in quiver.arrows:
            rows, cols = quiver.shape(a.name)
            names[a.name] = []
            for i in range(1, rows + 1):
                names[a.name].append(
                    [f"{prefix}{a.name}_{i}{j}" for j in range(1, cols + 1)])
        self.vars = VarTable(tuple(n for m in names.values()
                                   for row in m for n in row))
        self.matrices = {}
        for arrow, m in names.items():
            self.matrices[arrow] = tuple(
                tuple(MPoly.variable(self.vars, n) for n in row) for row in m)


def _table(matrices: dict) -> VarTable:
    """The variable table of an arrow -> matrix dict, read off an entry."""
    return next(iter(matrices.values()))[0][0].vars


def symplectic_form(quiver: McKayQuiver, phi: dict, psi: dict) -> MPoly:
    """<phi, psi> = sum_a eps(a) Tr(phi_a psi_abar), an exact polynomial;
    phi and psi map arrows to matrices of polynomials."""
    merged = VarTable(tuple(sorted(set(_table(phi).names)
                                   | set(_table(psi).names))))
    total = MPoly(merged)
    for a in quiver.arrows:
        P = tuple(tuple(x.extend(merged) for x in row)
                  for row in phi[a.name])
        Q = tuple(tuple(x.extend(merged) for x in row)
                  for row in psi[quiver.reverse[a.name]])
        term = trace(mat_mul(P, Q))
        total = total + term * QQ(quiver.orientation[a.name])
    return total


def moment_map(quiver: McKayQuiver, phi: dict) -> dict:
    """Vertex v -> sum over arrows a with target v of eps(a) phi_a phi_abar,
    for phi mapping arrows to matrices of polynomials or exact scalars.
    Each block starts from its first product, as ``mat_mul``'s entries do."""
    out = {}
    for v, arrows in enumerate(quiver.incoming):
        acc = None
        for a, bar, eps in arrows:
            block = mat_mul(phi[a], phi[bar])
            if eps < 0:
                block = [[-x for x in row] for row in block]
            acc = block if acc is None else [
                [x + y for x, y in zip(r, b)] for r, b in zip(acc, block)]
        out[v] = acc
    return out


# -- symmetry actions ----------------------------------------------------------

@dataclass
class OmegaActionOnM:
    """(sigma phi)_slot = scalar * phi_source for each arrow slot."""
    label: str
    quiver: McKayQuiver
    vertex_perm: tuple            # pi[v] = image vertex
    arrow_map: dict               # slot name -> (source arrow name, scalar)

    def orientation_behavior(self) -> str:
        eps = self.quiver.orientation
        kinds = {eps[src] * eps[slot]
                 for slot, (src, _) in self.arrow_map.items()}
        if kinds == {1}:
            return "preserves"
        if kinds == {-1}:
            return "reverses"
        return "mixed"

    def apply_symbolic(self, matrices: dict) -> dict:
        """sigma applied to an arrow -> matrix dict of polynomials."""
        out = {}
        for slot, (src, scalar) in self.arrow_map.items():
            out[slot] = tuple(tuple(x * scalar for x in row)
                              for row in matrices[src])
        for a in self.quiver.arrows:
            out.setdefault(a.name, matrices[a.name])
        return out

    def scalar(self, slot: str):
        if slot in self.arrow_map:
            return QQ(self.arrow_map[slot][1])
        return QQ(1)

    def pair_products(self) -> dict:
        """Product of the two slot scalars on each positive-arrow pair."""
        out = {}
        for a in self.quiver.positive_arrows():
            bar = self.quiver.reverse[a.name]
            out[a.name] = self.scalar(a.name) * self.scalar(bar)
        return out


# the diagram symmetries act with order 2 or 3
ACTION_ORDER_CAP = 6


def symbolic_action_order(act: OmegaActionOnM) -> int:
    start = current = SymbolicRep(act.quiver).matrices
    for k in range(1, ACTION_ORDER_CAP + 1):
        current = act.apply_symbolic(current)
        if all(current[a.name] == start[a.name] for a in act.quiver.arrows):
            return k
    raise ValueError(f"action order exceeds {ACTION_ORDER_CAP}")


def check_action_admissible(act: OmegaActionOnM) -> dict:
    """Orientation/scalar conditions for a symplectic, fibre-compatible action.

    Rows: (1) per-pair symplectic compatibility s_c s_cbar =
    eps(image)/eps(slot); (2) the central-fibre scalar conditions of the
    action table for the quiver's type; (3) the required orientation
    behavior (reversed exactly for odd-A involutions); (4) the group
    relation on symbols.
    """
    q = act.quiver
    t = q.base_type
    rows = []
    eps = q.orientation
    sympl_ok = True
    for slot, (src, scalar) in act.arrow_map.items():
        bar_slot = q.reverse[slot]
        bar_src, bar_scalar = act.arrow_map.get(bar_slot, (bar_slot, QQ(1)))
        want = QQ(eps[src] * eps[slot])
        have = QQ(scalar) * QQ(bar_scalar)
        if q.reverse[src] != bar_src:
            sympl_ok = False
        if have != want:
            sympl_ok = False
    rows.append({"condition": "symplectic_orientation_compatibility",
                 "ok": sympl_ok})

    pair = act.pair_products()
    if t.family == "A" and t.rank % 2 == 1:
        r = (t.rank + 1) // 2
        lam = QQ(1)
        delta = QQ(1)
        for a in q.positive_arrows():
            lam = lam * act.scalar(a.name)
            delta = delta * act.scalar(q.reverse[a.name])
        prods_ok = all(v == -1 for v in pair.values())
        rows.append({"condition": "lambda_i*delta_i == -1", "ok": prods_ok})
        rows.append({"condition": "prod(lambda) == prod(delta) == (-1)^r",
                     "ok": lam == delta == QQ(-1) ** r})
        want_behavior = "reverses"
    else:
        moved_pairs = {slot for slot in act.arrow_map
                       if act.arrow_map[slot][0] != slot}
        prods_ok = all(
            pair[a.name] == 1 for a in q.positive_arrows()
            if a.name in moved_pairs or q.reverse[a.name] in moved_pairs)
        rows.append({"condition": "moved-pair scalar products == 1",
                     "ok": prods_ok})
        want_behavior = "preserves"
    rows.append({"condition": f"orientation behavior == {want_behavior}",
                 "ok": act.orientation_behavior() == want_behavior})
    try:
        order = symbolic_action_order(act)
        rows.append({"condition": "finite order on M(Gamma)", "ok": True,
                     "order": order})
    except ValueError:
        rows.append({"condition": "finite order on M(Gamma)", "ok": False})
    return {"label": act.label, "rows": rows,
            "ok": all(r["ok"] for r in rows)}


def verify_symplectic_action(act: OmegaActionOnM) -> bool:
    """<sigma phi, sigma psi> == <phi, psi> as an exact symbolic identity."""
    q = act.quiver
    phi = SymbolicRep(q, "f_")
    psi = SymbolicRep(q, "g_")
    base = symplectic_form(q, phi.matrices, psi.matrices)
    form = symplectic_form(q, act.apply_symbolic(phi.matrices),
                           act.apply_symbolic(psi.matrices))
    return form == base


# -- reference actions ---------------------------------------------------------

def reference_action(t: DynkinType, generator: str,
                     flip: str | None = None) -> OmegaActionOnM:
    """The concrete admissible actions used throughout the computations:
    sigma is the diagram involution and rho (D4) the order-3 rotation of
    ``omega_generators``, with the affine vertex 0 fixed.

    On D and E each arrow goes to the arrow joining the images of its ends,
    with scalar 1.  On A_(2r-1), a_i -> b_(n-1-i) and b_i -> a_(n-1-i) with
    lambda_i delta_i = -1 (ends alone are ambiguous on A1's double edge).
    ``flip`` names an arrow slot whose scalar is negated, producing the
    deliberately broken variant used to exercise the failure paths.
    """
    q = McKayQuiver(t)
    name = {"sigma": "z2", "rho": "z3"}.get(generator)
    if name is None or t.family == "A" and (t.rank % 2 == 0 or name == "z3"):
        raise UnsupportedType(f"no reference action for {t}/{generator}")
    g, = omega_generators(t, name)
    perm = (0,) + g.vertex_perm
    arrow_map = {}
    if t.family == "A":
        n = t.rank + 1
        for i in range(n):
            s = QQ(-1) if 2 * i < n else QQ(1)
            arrow_map[f"a{i}"] = (f"b{n - 1 - i}", s)
            arrow_map[f"b{i}"] = (f"a{n - 1 - i}", -s)
    else:
        by_ends = {(a.src, a.tgt): a.name for a in q.arrows}
        for a in q.arrows:
            image = by_ends[perm[a.src], perm[a.tgt]]
            if image != a.name:
                arrow_map[image] = (a.name, QQ(1))
    if flip is not None:
        src, sc = arrow_map[flip]
        arrow_map[flip] = (src, -sc)
    return OmegaActionOnM(f"{t}:{generator}", q, perm, arrow_map)


# -- moment-map equivariance and fibres ----------------------------------------

def verify_moment_equivariance_numeric(act: OmegaActionOnM, seed: int = 0,
                                       trials: int = 100) -> dict:
    """mu(sigma phi) equals the vertex-permuted mu(phi), decided once as an
    exact identity on symbols, as ``verify_symplectic_action`` is.

    The witness is the largest coefficient of any entry of the difference.
    ``seed`` and ``trials`` are accepted for callers that pass them; they
    do not change the verdict.
    """
    q = act.quiver
    phi = SymbolicRep(q).matrices
    mm = moment_map(q, phi)
    moved = moment_map(q, act.apply_symbolic(phi))
    worst = max((abs(c) for v, w in enumerate(act.vertex_perm)
                 for row, want in zip(moved[w], mm[v])
                 for x, y in zip(row, want) for c in (x - y).terms.values()),
                default=QQ(0))
    return {"label": act.label, "max_residual": worst, "ok": worst == 0}


def exact_central(central) -> list:
    """A central value as exact rationals: ints, rationals, 'p/q' strings,
    or floats at their exact binary value.  A complex value is refused."""
    if any(isinstance(v, complex) for v in central):
        raise ValueError(f"central value must be real: {central!r}")
    return [rat(v) for v in central]


def sample_moment_fibre(t: DynkinType, central, seed: int) -> dict:
    """One exact rational point of the moment-map fibre over a central value.

    Type A: the cycle telescopes, so the products c_i = a_i b_i are fixed
    by c_0 and the central value; a_i and c_0 are drawn, b_i = c_i / a_i.
    Type D4: the four columns c_i are drawn.  Outer vertex i fixes the row
    (u_i, w_i) by w_i = (-z_i - c_i0 u_i) / c_i1.  The centre block's
    (1, 1) entry follows from the others through its trace, since
    sum_i d_i z_i = 0, so three equations in the u_i remain, solved by
    ``rref`` with the free u_i drawn.

    The draws are ints and the central value is read as ints Z over one
    denominator D, so every entry is one int quotient.
    """
    q = _quiver(t)
    rng = random.Random(seed)

    def draw():         # a small nonzero integer
        return rng.choice((-3, -2, -1, 1, 2, 3))
    z = exact_central(central)
    if len(z) != q.vertex_count():
        raise ValueError(f"central value arity: {t} needs "
                         f"{q.vertex_count()} values, got {len(z)}")
    Z, D = over_one_den(z)
    if sum(d * m for d, m in zip(q.dims, Z)):
        raise ValueError("central value must satisfy sum d_i z_i = 0")
    if t.family == "A":
        n = t.rank + 1
        c = [D * draw()]                # D c_i
        for i in range(1, n):
            c.append(c[i - 1] - Z[i])
        a = [draw() for _ in range(n)]
        rep = {f"a{i}": ((QQ(a[i]),),) for i in range(n)}
        rep.update({f"b{i}": ((QQ(c[i], D * a[i]),),) for i in range(n)})
        return {"rep": rep, "quiver": q, "central": z}
    if t == DynkinType("D", 4):
        outer = (0, 1, 3, 4)
        for _ in range(10):
            cols = [(draw(), draw()) for _ in outer]
            # centre entries (0, 0), (0, 1), (1, 0): sum_i c_i0 u_i = z_2,
            # sum_i c_i0 w_i = 0 and sum_i c_i1 u_i = 0; the first times D,
            # the second times D m, m the lcm of the c_i1
            m = lcm(*(c1 for _, c1 in cols))
            rows = [[D * c0 for c0, _ in cols] + [Z[2]],
                    [-D * (m // c1) * c0 * c0 for c0, c1 in cols] + [sum(
                        (m // c1) * c0 * Z[i]
                        for (c0, c1), i in zip(cols, outer))],
                    [c1 for _, c1 in cols] + [0]]
            red, pivots = rref(rows, 4)
            if any(r[4] for r in red[len(pivots):]):
                continue        # inconsistent: draw new columns
            free = [k for k in range(4) if k not in pivots]
            u = {k: (draw(), 1) for k in free}      # u_k = U / e
            for r, k in zip(red, pivots):
                nums, e = over_one_den(r)
                u[k] = (nums[4] - sum(nums[f] * u[f][0] for f in free), e)
            rep = {}
            for k, (i, (c0, c1)) in enumerate(zip(outer, cols)):
                U, e = u[k]
                rep[f"pa{i}"] = ((QQ(c0),), (QQ(c1),))
                rep[f"pb{i}"] = ((QQ(U, e), QQ(-Z[i] * e - c0 * U * D,
                                                D * e * c1)),)
            return {"rep": rep, "quiver": q, "central": z}
        raise SingularSystem("no consistent system in 10 attempts")
    raise UnsupportedType(f"no sampler for {t}")


def fibre_residual(sample: dict):
    """Largest |entry| of mu(point) - z_v Id: exact, 0 on the fibre.

    The point and z are read as int matrices over one denominator D, so
    each vertex block is an int product, compared with D^2 z_v Id."""
    q, z, rep = sample["quiver"], sample["central"], sample["rep"]
    D = lcm(*(x.denominator for x in z), *(
        x.denominator for m in rep.values() for row in m for x in row))
    ints = {a: [[x.numerator * (D // x.denominator) for x in row]
                for row in m] for a, m in rep.items()}
    worst = 0
    for v, arrows in enumerate(q.incoming):
        n = q.dims[v]
        block = [[0] * n for _ in range(n)]
        for a, bar, eps in arrows:
            cols = list(zip(*ints[bar]))
            for i, row in enumerate(ints[a]):
                for j, col in enumerate(cols):
                    block[i][j] += eps * sum(x * y for x, y in zip(row, col))
        zv = z[v].numerator * (D // z[v].denominator) * D
        worst = max(worst, *(abs(x - zv if i == j else x)
                             for i, row in enumerate(block)
                             for j, x in enumerate(row)))
    return QQ(worst, D * D)


def invariants_at_point(t: DynkinType, sample: dict):
    """The invariant coordinates (x, y, z) of a sampled fibre point."""
    rep = sample["rep"]
    if t.family == "A":
        n = t.rank + 1
        a = [rep[f"a{i}"][0][0] for i in range(n)]
        b = [rep[f"b{i}"][0][0] for i in range(n)]
        return prod(a), prod(b), sum(x * y for x, y in zip(a, b)) / n
    if t == DynkinType("D", 4):
        def s(i, j):        # the 1 x 1 product pb_i pa_j
            (p0, p1), = rep[f"pb{i}"]
            (q0,), (q1,) = rep[f"pa{j}"]
            return p0 * q0 + p1 * q1
        # m_i = pa_i pb_i has rank 1, so a trace of a product of the m_i
        # is a product of the scalars s(i, j) = pb_i pa_j
        p03 = s(0, 3) * s(3, 0)         # tr(m_0 m_3)
        p34 = s(3, 4) * s(4, 3)         # tr(m_3 m_4)
        q034 = s(4, 3) * s(3, 0) * s(0, 4)      # tr(m_4 m_3 m_0)
        mu0, mu1, mu2, mu3, mu4 = sample["central"]
        x = p34 + (mu3 - mu4) ** 2 / 4
        y = p03 + (mu3 - mu0) ** 2 / 4
        zc = q034 - (p03 * (mu3 - mu4) + p34 * (mu3 - mu0)
                     + mu3 * (mu2 + mu3) * (mu1 + mu2 + mu3)) / 2
        return x, y, zc
    raise UnsupportedType(f"no invariants for {t}")


def lambda_from_central(central) -> list:
    """Eigenvalue parameters from a type-A central value: the point h =
    ``cartan_point`` of mu = (z_1, ..., z_r), so alpha_i(h) = -z_i; for
    the cycle, lambda_i - lambda_{i-1} = z_i with sum(lambda) = 0.
    Memoised on the exact central value; each call returns its own list.
    """
    return list(_lambda_from_central(tuple(exact_central(central))))


@lru_cache(maxsize=16)
def _lambda_from_central(z: tuple) -> tuple:
    return cartan_point(DynkinType("A", len(z) - 1), z[1:])
