"""Sparse multivariate polynomials over exact scalars, plus ideal machinery.

``MPoly`` maps exponent tuples to nonzero exact coefficients (rational or
``Cyclo``).  Products and substitutions take one of two coefficient paths:

* the rational path, when every coefficient involved is a ``QQ`` rational
  (and, for a product, the operands are not tiny): exponent tuples are
  packed into one int, one byte per variable, and coefficients become int
  numerators over one common denominator;
* the generic path, a loop over the exact scalars themselves, for
  ``Cyclo`` or bare ``int`` coefficients and for tiny products.

A call whose result could reach an exponent of 256, the field width, takes
the generic path.  Both paths build the result's terms in the same order,
so float evaluation of a result sums in the same order either way.

A result of the rational path keeps its packed form, (den, [(packed
monomial, int numerator)]) with gcd(den, numerators) = 1, a content times
an integer polynomial.  ``*``, ``substitute``, ``fold_root``, ``extend``,
``==`` and ``reflection_invariant`` read it as it is; the ``Fraction``
coefficients are built only when ``terms`` is first read, and that read
drops the packed form, so a write through ``terms`` is seen by every later
operation.

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
    """Sparse polynomial; ``terms`` maps exponent tuples to coefficients.

    ``_packed`` is None here; a packed result of the rational path is a
    ``_Packed`` until its ``terms`` is read."""

    __slots__ = ("vars", "terms", "_packed")

    def __init__(self, vars: VarTable, terms=None):
        self.vars = vars
        self._packed = None
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

    def is_rational(self) -> bool:
        """Whether every coefficient is a ``QQ`` rational."""
        return _rational(self.terms)

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
            if self._packed is not None and type(c0) is _RAT:
                den, pairs = self._packed
                num = int(c0.numerator)
                return _from_packed(self.vars, den * int(c0.denominator),
                                    [(m, c * num) for m, c in pairs])
            p = MPoly(self.vars)
            p.terms = {e: c * c0 for e, c in self.terms.items()}
            return p
        self._check(other)
        if ((self._packed or other._packed or len(self.terms) * len(
                other.terms) >= _PACKED_MIN_PRODUCTS)
                and self.is_rational() and other.is_rational()
                and _degree(self) + _degree(other) < _FIELD_LIMIT):
            (da, a), (db, b) = _packed_of(self), _packed_of(other)
            return _from_packed(self.vars, da * db, _mul_packed(a, b))
        a, b = self.terms, other.terms
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
        if not isinstance(other, MPoly):
            return (self - other).is_zero()
        a, b = self._packed, other._packed
        if a is None and b is None:
            return self.vars == other.vars and self.terms == other.terms
        if self.vars != other.vars:
            return False
        if a is None or b is None:
            return _equals_packed(*((self, other) if b is None
                                    else (other, self)))
        # both canonical: one positive den, numerators of gcd 1 with it;
        # equal terms in one order are the common case
        return a[0] == b[0] and len(a[1]) == len(b[1]) and (
            a[1] == b[1] or dict(a[1]) == dict(b[1]))

    def is_zero(self) -> bool:
        return not self

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
        if self.is_rational() and all(
                b.is_rational() if isinstance(b, MPoly)
                else type(b) is _RAT for b in binding_polys.values()):
            weight = {v: (_degree(b) if isinstance(b, MPoly) else 0)
                      for v, b in binding_polys.items()}
            weights = [weight.get(v, 1) for v in self.vars.names]
            top = max((sum(map(mul, weights, e)) for e in _exponents(self)),
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
        """Re-express on another table holding every variable p uses."""
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


def _exponents(p: MPoly):
    """The exponents of p's terms: tuples, or a packed form's bytes."""
    if p._packed is None:
        return p.terms
    n = len(p.vars)
    return [m.to_bytes(n, "little") for m, _ in p._packed[1]]


def _degree(p: MPoly) -> int:
    return max(map(sum, _exponents(p)), default=0)


def _equals_packed(p: MPoly, q: MPoly) -> bool:
    """``p == q`` for a packed p and a q held as terms, neither rebuilt: a
    rational coefficient of q is compared crosswise with p's c/den."""
    den, pairs = p._packed
    terms = q.terms
    if len(pairs) != len(terms):
        return False
    n = len(p.vars)
    for m, c in pairs:
        x = terms.get(tuple(m.to_bytes(n, "little")))
        if type(x) is _RAT:
            if x.numerator * den != c * x.denominator:
                return False
        elif x is None or x != QQ(c, den):
            return False
    return True


def _denominator(terms) -> int:
    return lcm(*{c.denominator for c in terms.values()})


def _numerators(terms, den):
    """Rational terms as int numerators over ``den``, a common multiple of
    their denominators (``int`` also turns gmpy2's ``mpz`` into one)."""
    return {k: int(c.numerator) * (den // int(c.denominator))
            for k, c in terms.items()}


def _packed_of(p: MPoly):
    """The packed form of a rational p: kept, or its terms as (packed
    monomial, numerator) pairs over their least common denominator, which
    leaves gcd(den, numerators) = 1 as well."""
    if p._packed is not None:
        return p._packed
    den = _denominator(p.terms)
    return den, [(int.from_bytes(bytes(e), "little"), c)
                 for e, c in _numerators(p.terms, den).items()]


def _from_packed(vars, den, pairs) -> MPoly:
    """The polynomial sum c/den x^m over the pairs (m, c), held packed,
    with den and the numerators divided by their gcd."""
    g = gcd(den, *[c for _, c in pairs]) if den > 1 else 1
    if g > 1:
        den //= g
        pairs = [(m, c // g) for m, c in pairs]
    return _packed_poly(vars, (den, pairs))


def _packed_poly(vars, packed) -> MPoly:
    p = _Packed.__new__(_Packed)
    p.vars, p._packed = vars, packed
    return p


class _Packed(MPoly):
    """An ``MPoly`` held packed, ``terms`` unset.  Its first read builds
    the ``Fraction`` terms in the packed term order, drops the packed form
    and turns the object into a plain ``MPoly``; only this class pays for
    the ``__getattr__`` hook."""

    __slots__ = ()

    def __getattr__(self, name):
        if name != "terms":
            raise AttributeError(name)
        den, pairs = self._packed
        n = len(self.vars)
        self.terms = {tuple(m.to_bytes(n, "little")): QQ(c, den)
                      for m, c in pairs}
        self._packed = None
        self.__class__ = MPoly
        return self.terms

    def is_rational(self) -> bool:
        return True

    def __bool__(self):
        return bool(self._packed[1])

    def __reduce__(self):
        # copy and pickle read every slot: ``terms`` would be built
        # through the hook while the copy is made
        return _packed_poly, (self.vars, self._packed)


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
    folds = []              # (position, packed monomial, num, den)
    moved = []              # (position, name) of the multi-term bindings
    polys = {}              # name -> (denominator, {k: power})
    used = _used(p)
    for i, v in enumerate(p.vars.names):
        if not used[i]:             # v occurs in no term: nothing to bind
            continue
        if v not in bindings:       # v passes through
            folds.append((i, 1 << 8 * out_vars.index[v], 1, 1))
            continue
        b = bindings[v]
        den, terms = (_packed_of(b) if isinstance(b, MPoly)
                      else (b.denominator, [(0, b.numerator)]))
        if len(terms) > 1:
            polys[v] = (den, {1: terms})
            moved.append((i, v))
        else:                       # the zero polynomial folds as 0
            (m, c), = terms or [(0, 0)]
            folds.append((i, m, c, den))
    at = [i for i, _ in moved]
    n = len(p.vars)
    if p._packed is None:
        rows = ((e, c.numerator, c.denominator) for e, c in p.terms.items())
    else:
        den_p, pairs = p._packed
        rows = ((m.to_bytes(n, "little"), c, den_p) for m, c in pairs)

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
    for e, num, d in rows:
        m = 0
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
    return _from_packed(out_vars, den, list(total.items()))


def _used(p: MPoly):
    """Per variable of p, whether some term has it."""
    if p._packed is None:
        return list(map(any, zip(*p.terms))) or [False] * len(p.vars)
    acc = 0
    for m, _ in p._packed[1]:
        acc |= m
    return [bool(b) for b in acc.to_bytes(len(p.vars), "little")]


def _retable(p: MPoly, vars: VarTable) -> MPoly:
    """p on the table ``vars``; a variable of p that ``vars`` lacks must
    occur in no term (``VariableMismatch`` otherwise)."""
    if p.vars == vars:
        return p
    index = vars.index
    pos = []                # each variable's place in ``vars``, or None
    for v in p.vars.names:
        pos.append(index.get(v))
    if None in pos:
        for v, at, u in zip(p.vars.names, pos, _used(p)):
            if at is None and u:
                raise VariableMismatch(v)
    n = len(vars)
    if p._packed is None:
        out = MPoly(vars)
        terms = out.terms
        for e, c in p.terms.items():
            terms[_move(e, pos, n)] = c
        return out
    den, pairs = p._packed
    offsets = {at - i for i, (at, u) in enumerate(zip(pos, _used(p))) if u}
    if len(offsets) > 1:        # rebuild each monomial's bytes
        size = len(p.vars)
        pairs = [(int.from_bytes(bytes(_move(m.to_bytes(size, "little"),
                                             pos, n)), "little"), c)
                 for m, c in pairs]
    elif offsets and offsets != {0}:    # the used variables move as a block
        d = 8 * offsets.pop()
        pairs = [(m << d if d > 0 else m >> -d, c) for m, c in pairs]
    return _packed_poly(vars, (den, pairs))


def _move(e, pos, n):
    """The exponents e on n places, each nonzero e_i at ``pos[i]``."""
    e2 = [0] * n
    for at, k in zip(pos, e):
        if k:
            e2[at] = k
    return tuple(e2)


def fold_root(p: MPoly, name: str, k: int, c) -> MPoly:
    """``p`` reduced by a^k = c in its variable a = ``name``: each a^j
    becomes c^(j//k) a^(j%k), so the result has degree below k in a.  A
    folded term lands where its monomial first appears."""
    if name not in p.vars.index:
        raise VariableMismatch(name)
    i = p.vars.index[name]
    if p._packed is None or not is_rat(c) or not c:
        return MPoly(p.vars, [
            (e[:i] + (e[i] % k,) + e[i + 1:], x * c ** (e[i] // k))
            if e[i] >= k else (e, x) for e, x in p.terms.items()])
    # packed: over den * cd^top, a^j's numerator gains cn^q cd^(top - q)
    den, pairs = p._packed
    c, shift = QQ(c), 8 * i
    cn, cd = int(c.numerator), int(c.denominator)
    top = max(((m >> shift & 255) // k for m, _ in pairs), default=0)
    scale = [cn ** q * cd ** (top - q) for q in range(top + 1)]
    folded = []
    for m, x in pairs:
        q = (m >> shift & 255) // k
        folded.append((m - (q * k << shift), x * scale[q]))
    out = {}
    _add_terms(out, folded)
    return _from_packed(p.vars, den * cd ** top, list(out.items()))


def reflection_invariant(p: MPoly, name: str, direction: dict) -> bool:
    """Whether p(v - v_j c) = p(v), with v_j the variable ``name`` and c
    the integer vector ``direction`` (variable names to entries, c_j = 2).

    The reflection fixes its mirror v_j = 0 pointwise and negates c.  With
    v = w + t c, w on the mirror, p(w + t c) = sum_k t^k/k! (D_c^k p)(w),
    so p is invariant exactly when, for every odd k, D_c^k p has no term
    free of v_j.  A rational p is tested on its packed form, one order of
    D_c at a time; a term whose v_j power cannot fall to 0 by the last odd
    order is dropped.  Any other p is substituted and compared.
    """
    for v in (name, *direction):
        if v not in p.vars.index:
            raise VariableMismatch(v)
    j = p.vars.index[name]
    c = [direction.get(v, 0) for v in p.vars.names]
    if c[j] != 2:
        raise ValueError(f"direction has {c[j]} at {name}, not 2")
    degree = _degree(p)
    if not (p.is_rational() and degree < _FIELD_LIMIT):
        x = {v: MPoly.variable(p.vars, v) for v in p.vars.names}
        return p.substitute({v: x[v] - x[name] * k for v, k in zip(
            p.vars.names, c) if k}) == p
    last = degree - 1 + degree % 2          # the largest odd order <= degree
    shift = 8 * j
    steps = [(1 << 8 * i, 8 * i, k) for i, k in enumerate(c) if k]
    level = {m: x for m, x in _packed_of(p)[1] if m >> shift & 255 <= last}
    for order in range(1, last + 1):
        out = {}
        get = out.get
        for m, x in level.items():
            for unit, at, k in steps:
                e = m >> at & 255
                if e:
                    out[m - unit] = get(m - unit, 0) + x * k * e
        reach = last - order
        level = {m: x for m, x in out.items()
                 if x and m >> shift & 255 <= reach}
        if order % 2 and any(not m >> shift & 255 for m in level):
            return False
    return True


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
