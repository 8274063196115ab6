"""Sparse multivariate polynomials over exact scalars, plus ideal machinery.

``MPoly`` maps exponent tuples to nonzero exact coefficients (rational or
``Cyclo``).  Products and substitutions take one of two coefficient paths:

* the rational path, when every coefficient involved is a ``QQ`` rational
  (and, for a product, the operands are not tiny): exponent tuples are
  packed into one int, one byte per variable, coefficients become int
  numerators over one common denominator, and each result coefficient
  becomes a ``QQ`` once, at the end;
* the generic path, a loop over the exact scalars themselves, for
  ``Cyclo`` or bare ``int`` coefficients and for tiny products.

A call whose result could reach an exponent of 256, the field width, takes
the generic path.  Both paths build the result's terms in the same order,
so float evaluation of a result sums in the same order either way.

A coefficient in a field Q(a), a^k = c rational, can stay on the rational
path: a becomes one more variable and ``fold_root`` maps a^j to
c^(j//k) a^(j%k).  sqrt(3), sqrt(6), 2^(1/3), i, 2^(1/r) and 108^(1/4) are
held this way.

An ``Ideal`` is its reduced Groebner basis (Buchberger's algorithm with a
pair heap and the Gebauer-Moller update), held as ``buchberger`` returns
it: each element prepared once for division, on packed keys whose integer
order is the monomial order and whose sum is the product of the monomials
(``_PackedOrder``; an exponent of 128 or more raises ``ExponentOverflow``).
It is fraction-free: an element with rational coefficients is an integer
polynomial with content 1 from the generators to the final basis, and a
normal form of rational terms runs on int numerators over one scale; an
element with a ``Cyclo`` coefficient is held monic.  The monic basis is
built only when asked for.  Quotient dimensions are counted from the
staircase of leading terms.
"""

from __future__ import annotations

import heapq
import itertools
from collections import namedtuple
from math import gcd, lcm
from operator import add, mul

from .exact import QQ, Cyclo, embed_complex, is_rat, scalar_to_json


class VariableMismatch(KeyError):
    pass


class BudgetExceeded(RuntimeError):
    pass


class VarTable:
    """Ordered, unique variable names; fixes exponent-vector positions."""

    __slots__ = ("names", "index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        self.names = names
        self.index = {v: i for i, v in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarTable{self.names}"


# -- monomial orders --------------------------------------------------------

def grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def lex_key(e):
    return e


ORDERS = {"grevlex": grevlex_key, "lex": lex_key}


def order_key(order):
    try:
        return ORDERS[order]
    except KeyError:
        raise ValueError(f"unknown monomial order {order!r}") from None


class MPoly:
    """Sparse polynomial; ``terms`` maps exponent tuples to coefficients."""

    __slots__ = ("vars", "terms")

    def __init__(self, vars: VarTable, terms=None):
        self.vars = vars
        self.terms = {}
        if terms:
            n = len(vars)
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if len(e) != n:
                    raise VariableMismatch(f"exponent arity {len(e)} != {n}")
                if c:
                    e = tuple(e)
                    acc = self.terms.get(e)
                    c = c if acc is None else acc + c
                    if c:
                        self.terms[e] = c
                    elif acc is not None:
                        del self.terms[e]

    # -- constructors --------------------------------------------------
    @staticmethod
    def constant(vars: VarTable, c) -> "MPoly":
        p = MPoly(vars)
        if c:
            p.terms[(0,) * len(vars)] = c
        return p

    @staticmethod
    def variable(vars: VarTable, name: str) -> "MPoly":
        if name not in vars.index:
            raise VariableMismatch(name)
        e = [0] * len(vars)
        e[vars.index[name]] = 1
        p = MPoly(vars)
        p.terms[tuple(e)] = QQ(1)
        return p

    def _check(self, other):
        if self.vars != other.vars:
            raise VariableMismatch(
                f"{self.vars.names} vs {other.vars.names}")

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, MPoly):
            return self + MPoly.constant(self.vars, _coeff(other))
        self._check(other)
        out = dict(self.terms)
        _add_terms(out, other.terms.items())
        p = MPoly(self.vars)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self):
        p = MPoly(self.vars)
        p.terms = {e: -c for e, c in self.terms.items()}
        return p

    def __sub__(self, other):
        if not isinstance(other, MPoly):
            return self + MPoly.constant(self.vars, -_coeff(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            c0 = _coeff(other)
            if not c0:
                return MPoly(self.vars)
            p = MPoly(self.vars)
            p.terms = {e: c * c0 for e, c in self.terms.items()}
            return p
        self._check(other)
        a, b = self.terms, other.terms
        if (len(a) * len(b) >= _PACKED_MIN_PRODUCTS and _rational(a)
                and _rational(b) and _degree(a) + _degree(b) < _FIELD_LIMIT):
            da, db = _denominator(a), _denominator(b)
            return _unpack(self.vars, _mul_packed(_pack(a, da), _pack(b, db)),
                           da * db)
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            _add_terms(out, [(tuple(map(add, e1, e2)), c1 * c2)
                             for e2, c2 in b.items()])
        p = MPoly(self.vars)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = MPoly.constant(self.vars, QQ(1))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.vars == other.vars and self.terms == other.terms
        return (self - other).is_zero()

    def is_zero(self) -> bool:
        return not self.terms

    # -- structure ---------------------------------------------------------
    def sorted_terms(self):
        """Terms in decreasing grevlex order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]),
                      reverse=True)

    # -- calculus ------------------------------------------------------------
    def diff(self, name: str) -> "MPoly":
        if name not in self.vars.index:
            raise VariableMismatch(name)
        i = self.vars.index[name]
        p = MPoly(self.vars)
        for e, c in self.terms.items():
            if e[i]:
                p.terms[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return p

    # -- substitution ------------------------------------------------------
    def substitute(self, bindings: dict) -> "MPoly":
        """Exact composition; unbound variables pass through.

        ``bindings`` maps variable names to MPoly (over any VarTable) or
        scalars.  The result lives on the union table of the passthrough
        variables and all binding tables, in first-seen order.
        """
        for v in bindings:
            if v not in self.vars.index:
                raise VariableMismatch(v)
        norm = {}
        out_names = [v for v in self.vars.names if v not in bindings]
        for v, b in bindings.items():
            if isinstance(b, MPoly):
                norm[v] = b
                for name in b.vars.names:
                    if name not in out_names:
                        out_names.append(name)
            else:
                norm[v] = _coeff(b)
        out_vars = VarTable(out_names)
        binding_polys = {
            v: (_retable(b, out_vars) if isinstance(b, MPoly) else b)
            for v, b in norm.items()}
        if _rational(self.terms) and all(
                _rational(b.terms) if isinstance(b, MPoly)
                else type(b) is _RAT for b in binding_polys.values()):
            weight = {v: (_degree(b.terms) if isinstance(b, MPoly) else 0)
                      for v, b in binding_polys.items()}
            weights = [weight.get(v, 1) for v in self.vars.names]
            top = max((sum(map(mul, weights, e)) for e in self.terms),
                      default=0)
            if top < _FIELD_LIMIT:
                return _substitute_rational(self, out_vars, binding_polys)
        powers = {}             # (name, k) -> binding^k, from binding^(k-1)

        def bound_power(v, k):
            if (v, k) not in powers:
                base = binding_polys[v]
                if not isinstance(base, MPoly):
                    powers[v, k] = base ** k
                else:
                    powers[v, k] = (bound_power(v, k - 1) if k > 1 else
                                    MPoly.constant(out_vars, QQ(1))) * base
            return powers[v, k]

        total = MPoly(out_vars)
        for e, c in self.terms.items():
            passthrough = [0] * len(out_vars)
            factors = []
            for name, k in zip(self.vars.names, e):
                if k and name in binding_polys:
                    factors.append((name, k))
                elif k:
                    passthrough[out_vars.index[name]] = k
            term = MPoly(out_vars)
            term.terms[tuple(passthrough)] = c
            for name, k in factors:
                term = term * bound_power(name, k)
            total = total + term
        return total

    def rename(self, mapping: dict) -> "MPoly":
        """Rename variables (bijective on the used names)."""
        names = tuple(mapping.get(v, v) for v in self.vars.names)
        out = MPoly(VarTable(names))
        out.terms = dict(self.terms)
        return out

    def extend(self, vars: VarTable) -> "MPoly":
        """Re-express on a larger variable table."""
        return _retable(self, vars)

    # -- numeric shadow -------------------------------------------------------
    def evaluate_numeric(self, point: dict) -> complex:
        for v in self.vars.names:
            if v not in point:
                raise VariableMismatch(f"unbound variable {v}")
        values = [complex(point[v]) for v in self.vars.names]
        powers = [[1.0 + 0j] for _ in values]
        for i, d in enumerate(map(max, zip(*self.terms))):
            for _ in range(d):
                powers[i].append(powers[i][-1] * values[i])
        total = 0j
        for e, c in self.terms.items():
            m = embed_complex(c)
            for i, k in enumerate(e):
                if k:
                    m *= powers[i][k]
            total += m
        return total

    # -- io ------------------------------------------------------------------
    def to_json(self):
        terms = [{"c": scalar_to_json(c), "e": list(e)}
                 for e, c in self.sorted_terms()]
        return {"vars": list(self.vars.names), "terms": terms}

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms()[:12]:
            mono = "*".join(f"{v}^{k}" if k > 1 else v
                            for v, k in zip(self.vars.names, e) if k)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        tail = " + ..." if len(self.terms) > 12 else ""
        return " + ".join(bits) + tail


def _coeff(x):
    if is_rat(x) or isinstance(x, Cyclo):
        return QQ(x) if isinstance(x, int) else x
    raise TypeError(f"not an exact scalar: {x!r}")


def _add_terms(out, pairs):
    """Add (key, nonzero coefficient) pairs into the dict ``out``; a sum
    that reaches zero drops its key."""
    get = out.get
    for k, c in pairs:
        acc = get(k)
        if acc is None:
            out[k] = c
        else:
            acc += c
            if acc:
                out[k] = acc
            else:
                del out[k]


# -- the rational path: packed monomials, int numerators ----------------------

_RAT = type(QQ(1))
# One byte per exponent: packed monomials add like exponent tuples while
# every exponent stays below 256.
_FIELD_LIMIT = 256
# Below this many coefficient products, packing the operands and building
# the result's QQ coefficients costs more than the generic loop saves (the
# two cross between 9 and 16 products of random 5-variable rational
# polynomials, Python 3.11, Fraction rationals).
_PACKED_MIN_PRODUCTS = 16


def _rational(terms) -> bool:
    return all(type(c) is _RAT for c in terms.values())


def _degree(terms) -> int:
    return max(map(sum, terms), default=0)


def _denominator(terms) -> int:
    return lcm(*{c.denominator for c in terms.values()})


def _numerators(terms, den):
    """Rational terms as int numerators over ``den``, a common multiple of
    their denominators (``int`` also turns gmpy2's ``mpz`` into one)."""
    return {k: int(c.numerator) * (den // int(c.denominator))
            for k, c in terms.items()}


def _pack(terms, den):
    """(packed monomial, numerator over ``den``) pairs of rational terms."""
    return [(int.from_bytes(bytes(e), "little"), c)
            for e, c in _numerators(terms, den).items()]


def _unpack(vars, pairs, den) -> MPoly:
    n = len(vars)
    p = MPoly(vars)
    p.terms = {tuple(m.to_bytes(n, "little")): QQ(c, den) for m, c in pairs}
    return p


def _mul_packed(a, b):
    """Product of two packed term lists, built in the generic loop's order.

    As in ``MPoly.__mul__``, the outer loop runs over the shorter operand
    and a sum that reaches zero drops its key, so both paths give the same
    term order.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        (m1, c1), = a
        return [(m1 + m2, c1 * c2) for m2, c2 in b]
    out = {}
    get = out.get
    for m1, c1 in a:
        for m2, c2 in b:
            m = m1 + m2
            acc = get(m)
            if acc is None:
                out[m] = c1 * c2
            else:
                acc += c1 * c2
                if acc:
                    out[m] = acc
                else:
                    del out[m]
    return list(out.items())


def _substitute_rational(p: MPoly, out_vars: VarTable, bindings) -> MPoly:
    """``p.substitute`` when every coefficient and binding is rational.

    A binding of at most one term, c * m, is folded into each term up
    front (m^k into its packed monomial, c^k into its numerator and
    denominator).  The product of the other bindings' powers depends only
    on a term's exponents on them, its pattern: it is built once per
    pattern by one chain of ``_mul_packed`` calls, and dropped after the
    pattern's last use; each term adds a copy shifted by its monomial and
    scaled by its numerator, in ints over one common denominator.  Shifting
    and scaling keep every key collision and zero sum of the generic loop,
    which multiplies each term by the same chain, so the result has the
    generic loop's terms in its order.
    """
    n = len(out_vars)
    folds = []              # (position, packed monomial, num, den)
    moved = []              # (position, name) of the multi-term bindings
    polys = {}              # name -> (denominator, {k: power})
    used = list(map(any, zip(*p.terms))) or [False] * len(p.vars)
    for i, v in enumerate(p.vars.names):
        if not used[i]:             # v occurs in no term: nothing to bind
            continue
        if v not in bindings:       # v passes through
            folds.append((i, 1 << 8 * out_vars.index[v], 1, 1))
            continue
        b = bindings[v]
        terms = b.terms if isinstance(b, MPoly) else {(0,) * n: b}
        if len(terms) > 1:
            den = _denominator(terms)
            polys[v] = (den, {1: _pack(terms, den)})
            moved.append((i, v))
        else:                       # the zero polynomial folds as 0
            (e, c), = terms.items() or [((0,) * n, QQ(0))]
            folds.append((i, int.from_bytes(bytes(e), "little"),
                          c.numerator, c.denominator))
    at = [i for i, _ in moved]

    def power(v, k):
        cache = polys[v][1]
        if k not in cache:
            best = max(j for j in cache if j <= k)
            value = cache[best]
            for j in range(best + 1, k + 1):
                value = _mul_packed(value, cache[1])
                cache[j] = value
        return cache[k]

    plans = []              # (monomial, numerator, denominator, pattern)
    uses = {}
    den = 1
    for e, c in p.terms.items():
        m, num, d = 0, c.numerator, c.denominator
        for i, mv, nv, dv in folds:
            k = e[i]
            if k:
                m += mv * k
                num *= nv ** k
                d *= dv ** k
        pattern = tuple(map(e.__getitem__, at))
        for (_, v), k in zip(moved, pattern):
            d *= polys[v][0] ** k
        if num:
            plans.append((m, num, d, pattern))
            uses[pattern] = uses.get(pattern, 0) + 1
            den = lcm(den, d)

    products = {}
    total = {}
    get = total.get
    for m, num, d, pattern in plans:
        product = products.pop(pattern, None)
        if product is None:
            for (_, v), k in zip(moved, pattern):
                if k:
                    product = (power(v, k) if product is None
                               else _mul_packed(product, power(v, k)))
            if product is None:
                product = [(0, 1)]
        uses[pattern] -= 1
        if uses[pattern]:
            products[pattern] = product
        scale = num * (den // d)
        for mq, cq in product:
            mq += m
            acc = get(mq)
            if acc is None:
                total[mq] = scale * cq
            else:
                acc += scale * cq
                if acc:
                    total[mq] = acc
                else:
                    del total[mq]
    return _unpack(out_vars, total.items(), den)


def _retable(p: MPoly, vars: VarTable) -> MPoly:
    if p.vars == vars:
        return p
    pos = []
    for v in p.vars.names:
        if v not in vars.index:
            raise VariableMismatch(v)
        pos.append(vars.index[v])
    out = MPoly(vars)
    n = len(vars)
    for e, c in p.terms.items():
        e2 = [0] * n
        for i, k in enumerate(e):
            e2[pos[i]] = k
        out.terms[tuple(e2)] = c
    return out


def fold_root(p: MPoly, name: str, k: int, c) -> MPoly:
    """``p`` reduced by a^k = c in its variable a = ``name``: each a^j
    becomes c^(j//k) a^(j%k), so the result has degree below k in a."""
    if name not in p.vars.index:
        raise VariableMismatch(name)
    i = p.vars.index[name]
    return MPoly(p.vars, [
        (e[:i] + (e[i] % k,) + e[i + 1:], x * c ** (e[i] // k))
        if e[i] >= k else (e, x) for e, x in p.terms.items()])


def equal_mod_vars(a: MPoly, b: MPoly) -> bool:
    """Equality after aligning the two variable tables (sorted union)."""
    union = VarTable(tuple(sorted(set(a.vars.names) | set(b.vars.names))))
    return _retable(a, union) == _retable(b, union)


# -- division and Groebner bases ---------------------------------------------

def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _elcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _coprime(e1, e2):
    return not any(a and b for a, b in zip(e1, e2))


class ExponentOverflow(OverflowError):
    """A division met an exponent of 128 or more: past the packed field."""


class _PackedOrder:
    """A monomial order on one variable table, as additive packed keys.

    With m the exponents as the bytes of one int, little-endian for grevlex
    (m = sum e_i 256^i) and big-endian for lex, the key of e is
    (|e| << 8n) - m for grevlex and m for lex: the integer order of keys is
    the monomial order, and key(a + b) = key(a) + key(b) while every
    exponent stays below 256.  ``plain`` gives back m."""

    __slots__ = ("vars", "graded", "byteorder", "shift", "guard")

    def __init__(self, key, vars):
        if key not in ORDERS.values():
            raise ValueError(f"no packed form for the order key {key!r}")
        self.vars = vars
        self.graded = key is grevlex_key
        self.byteorder = "little" if self.graded else "big"
        self.shift = 8 * len(vars)
        self.guard = int.from_bytes(b"\x80" * len(vars), "little")

    def key(self, e):
        if max(e, default=0) >= 128:
            raise ExponentOverflow(e)
        m = int.from_bytes(bytes(e), self.byteorder)
        return (sum(e) << self.shift) - m if self.graded else m

    def plain(self, k):
        return (-(-k >> self.shift) << self.shift) - k if self.graded else k

    def exponents(self, k):
        return tuple(self.plain(k).to_bytes(len(self.vars), self.byteorder))

    def pack(self, p: MPoly):
        """Keys to coefficients, a bare int as a ``QQ``: ``reduce_poly``
        reads an all-int dict as one it may scale."""
        return {self.key(e): QQ(c) if type(c) is int else c
                for e, c in p.terms.items()}

    def unpack(self, terms) -> MPoly:
        return MPoly(self.vars, [(self.exponents(k), c)
                                 for k, c in terms.items()])


# A basis element prepared for dividing by: its lead's plain form and key,
# its lead coefficient (an int, or the 1 of a monic element), and its tail
# as (key - lead key, -coefficient) pairs.
_Reducer = namedtuple("_Reducer", "lead key lc tail")


def _prepare(terms, order: _PackedOrder) -> _Reducer:
    lk = max(terms)
    return _Reducer(order.plain(lk), lk, terms[lk],
                    [(k - lk, -c) for k, c in terms.items() if k != lk])


def _monic(r: _Reducer, order: _PackedOrder) -> MPoly:
    """The element ``r`` prepares, made monic: an int element's terms over
    its lead coefficient, a monic one's as they are."""
    terms = {r.key: r.lc}
    terms.update((r.key + off, -c) for off, c in r.tail)
    if type(r.lc) is int:
        terms = {k: QQ(c, r.lc) for k, c in terms.items()}
    return order.unpack(terms)


def _normalize(h):
    """h as a basis element: over the integers with content 1 and a
    positive lead when its coefficients are rational, else monic."""
    lk = max(h)
    if all(map(is_rat, h.values())):
        h = _numerators(h, _denominator(h))
        g = gcd(*h.values())
        g = g if h[lk] > 0 else -g
        return {k: c // g for k, c in h.items()}
    if h[lk] == 1:
        return h
    inv = _inv(h[lk])
    return {k: c * inv for k, c in h.items()}


class _Budget:
    __slots__ = ("left",)

    def __init__(self, steps):
        self.left = steps

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise BudgetExceeded("reduction budget exhausted")


DEFAULT_BUDGET = 10 ** 6


def reduce_poly(p, basis, key, budget=None):
    """Remainder of p on complete division by the ``_Reducer``s ``basis``;
    p and the remainder map keys of the ``_PackedOrder`` ``key`` to
    coefficients, the remainder's in decreasing order.  Each step divides
    the largest term left by the first reducer whose lead divides it.  Taken
    terms and reducers have every exponent below 128, so a step's keys have
    them below 256, and a lead divides a term when subtracting it from the
    term with every guard bit set clears none.

    An int term c met by a lead coefficient lc > 1 stays integral: with
    g = gcd(c, lc), what is left and the remainder are multiplied by
    lc // g, and c // g times the reducer is subtracted.  So an all-int p
    has a positive multiple of its remainder returned; any other p its
    exact remainder (rational terms as int numerators over one scale)."""
    budget = budget or _Budget(DEFAULT_BUDGET)
    guard = key.guard
    exact = not all(type(c) is int for c in p.values())
    rational = exact and _rational(p)
    scale = _denominator(p) if rational else 1
    work = _numerators(p, scale) if rational else dict(p)
    remainder = {}
    while work:
        k = max(work)
        c = work.pop(k)
        m = key.plain(k)
        if m & guard:
            raise ExponentOverflow(key.exponents(k))
        m |= guard
        for lead, lk, lc, tail in basis:
            if (m - lead) & guard == guard:
                budget.spend()
                if lc != 1 and type(c) is int:
                    g = gcd(c, lc)
                    s, c = lc // g, c // g
                    if s != 1:
                        work = {t: v * s for t, v in work.items()}
                        remainder = {t: v * s for t, v in remainder.items()}
                        scale *= s
                elif lc != 1:
                    c /= lc
                _add_terms(work, [(k + off, c * nc) for off, nc in tail])
                break
        else:
            remainder[k] = c
    if not exact:
        return remainder
    return {k: QQ(c, scale) if type(c) is int else c if scale == 1
            else c / scale for k, c in remainder.items()}


def _spoly(f: _Reducer, g: _Reducer, l):
    """S-polynomial, up to a positive factor, of f and g, whose leads' lcm
    x^a lead(f) = x^b lead(g) has the key l, from their tails: with d =
    gcd(lc(f), lc(g)), lc(g)/d x^a f - lc(f)/d x^b g (a monic lc is 1)."""
    fl, gl = (r.lc if type(r.lc) is int else 1 for r in (f, g))
    d = gcd(fl, gl)
    a, b = gl // d, fl // d
    s = {l + off: -c if a == 1 else -a * c for off, c in f.tail}
    _add_terms(s, [(l + off, c if b == 1 else b * c) for off, c in g.tail])
    return s


def _inv(c):
    return QQ(1) / c if is_rat(c) else c.inverse()


def buchberger(gens, order: _PackedOrder, budget=None):
    """Reduced Groebner basis of ``gens`` in ``order``, as ``_Reducer``s:
    Buchberger's algorithm, pairs taken smallest lcm first, with the
    Gebauer-Moller update (J. Symb. Comput. 6, 1988).  Each element is held
    as ``_normalize`` leaves it, from the generators to the final basis."""
    budget = budget or _Budget(DEFAULT_BUDGET)
    basis, reducers, leads = [], [], []     # normalized, prepared, leads
    live, heap = {}, []         # pair (t, g), t > g -> lcm; heap of live keys
    G = []                      # elements whose lead no later lead divides

    def update(h):
        t = len(basis)
        basis.append(_normalize(h))
        reducers.append(_prepare(basis[t], order))
        e = order.exponents(reducers[t].key)
        leads.append(e)
        new = {g: _elcm(leads[g], e) for g in G}
        # M and F: keep a new pair unless another new pair's lcm divides its
        # lcm; coprime pairs stay as witnesses and are dropped afterwards
        kept = []
        for n, g in enumerate(G):
            if _coprime(leads[g], e) or not any(
                    _divides(new[o], new[g]) for o in G[n + 1:] + kept):
                kept.append(g)
        # B_k: drop old pairs (i, j) with e | l, lcm(i, e) != l != lcm(j, e)
        for (i, j), l in list(live.items()):
            if (_divides(e, l) and _elcm(leads[i], e) != l
                    and _elcm(leads[j], e) != l):
                del live[i, j]
        for g in kept:
            if not _coprime(leads[g], e):
                live[t, g] = new[g]
                heapq.heappush(heap, (order.key(new[g]), t, g))
        G[:] = [g for g in G if not _divides(e, leads[g])] + [t]

    for g in gens:
        if g:
            update(order.pack(g))
    while heap:
        l, i, j = heapq.heappop(heap)
        if live.pop((i, j), None) is None:
            continue
        r = reduce_poly(_spoly(reducers[i], reducers[j], l), reducers, order,
                        budget)
        if r:
            update(r)
    # minimize: drop elements whose leading term another one divides
    minimal = []
    for g in sorted(G, key=lambda g: reducers[g].key):
        if not any(_divides(leads[h], leads[g]) for h in minimal):
            minimal.append(g)
    # tail-reduce each against the others (leading terms are now stable);
    # one with a non-rational coefficient is multiplied by its lead's inverse
    final = []
    for g in minimal:
        r = reduce_poly(basis[g], [reducers[h] for h in minimal if h != g],
                        order, budget)
        if not all(map(is_rat, r.values())):
            inv = _inv(r[reducers[g].key])
            r = {k: c * inv for k, c in r.items()}
        final.append(_prepare(_normalize(r), order))
    return final


class Ideal:
    """Polynomial ideal with a monomial order and its reduced basis, held
    prepared for division; the monic basis is built when asked for."""

    def __init__(self, generators, order="grevlex", budget=DEFAULT_BUDGET):
        gens = list(generators)
        if not gens:
            raise ValueError("need at least one generator")
        for g in gens:
            if not isinstance(g, MPoly):
                raise TypeError(f"generator {g} is not a polynomial")
            if g.vars != gens[0].vars:
                raise VariableMismatch("generators on different tables")
        self.generators = gens
        self.vars = gens[0].vars
        self.order = order
        self.budget = budget
        self._packed = _PackedOrder(order_key(order), self.vars)
        self._gb = self._reducers = None

    def _basis(self):
        """The reduced basis as ``_Reducer``s, computed once and checked:
        every generator reduces to zero."""
        if self._reducers is None:
            packed = self._packed
            reducers = buchberger(self.generators, packed,
                                  _Budget(self.budget))
            for g in self.generators:
                if g and reduce_poly(packed.pack(g), reducers, packed,
                                     _Budget(self.budget)):
                    raise AssertionError("generator fails self-reduction")
            self._reducers = reducers
        return self._reducers

    def groebner_basis(self):
        """The reduced basis, each element monic."""
        if self._gb is None:
            self._gb = [_monic(r, self._packed) for r in self._basis()]
        return self._gb

    def normal_form(self, p: MPoly) -> MPoly:
        r = reduce_poly(self._packed.pack(_retable(p, self.vars)),
                        self._basis(), self._packed, _Budget(self.budget))
        return self._packed.unpack(r)

    def leading_exponents(self):
        return [self._packed.exponents(r.key) for r in self._basis()]

    def quotient_dimension(self):
        """Number of standard monomials, or the string 'infinite'."""
        leads = self.leading_exponents()
        if any(not any(e) for e in leads):
            return 0  # the ideal is (1)
        basis = _staircase(leads, len(self.vars))
        return "infinite" if basis is None else len(basis)


def _staircase(leads, n):
    """Monomials no leading exponent divides, or None when they are infinite.

    They are finite exactly when every variable has a pure power among the
    leads; that power bounds the variable's exponent.
    """
    bounds = [min((e[i] for e in leads if 0 < e[i] == sum(e)), default=None)
              for i in range(n)]
    if any(b is None for b in bounds):
        return None
    return [mono for mono in itertools.product(*(range(b) for b in bounds))
            if not any(_divides(e, mono) for e in leads)]


def quotient_basis(ideal: Ideal):
    """Standard monomials (exponent tuples) of a zero-dimensional ideal."""
    basis = _staircase(ideal.leading_exponents(), len(ideal.vars))
    if basis is None:
        raise ValueError("ideal is not zero-dimensional")
    basis.sort(key=grevlex_key)
    return basis
