"""Exact scalar arithmetic: rationals and cyclotomic fields.

Every symbolic computation in this package runs over one of two scalar
kinds:

* plain rationals (gmpy2 ``mpq``, falling back to ``fractions.Fraction``),
* ``Cyclo`` -- elements of Q(zeta_n) on the power basis 1, zeta, ...,
  zeta^(phi(n)-1) reduced modulo the n-th cyclotomic polynomial, as int
  coordinates over one denominator in lowest terms (H. Cohen, GTM 138,
  4.2): a product is an int convolution and reduction, with one gcd.

Values are immutable; mixed arithmetic coerces upward (rational -> Cyclo)
and across conductors via the lcm embedding.  A float shadow
``embed_complex`` maps any scalar to a complex number with
zeta_n = exp(2*pi*i/n).  A single root a with a^k = c rational, such as
sqrt(6) or 2^(1/3), is no scalar kind of its own: polynomials hold it as
one more variable, folded by ``poly.fold_root``.

Univariate polynomials (coefficient lists, low degree first) and matrices
(lists of rows) over either kind carry what the fibre analysis needs:
division, inverse modulo a polynomial, gcd, Yun's square-free split and
the characteristic polynomial; ``rref`` reduces rational matrices alone.
``mat_mul`` and ``trace`` are the package's one matrix product and trace,
over exact scalars or ``MPoly`` entries alike; a product whose shapes do
not match raises ``ShapeMismatch``.
"""

from __future__ import annotations

import cmath
from math import gcd, lcm

try:
    from gmpy2 import mpq as QQ
except ImportError:  # pragma: no cover
    from fractions import Fraction as QQ

RAT_TYPES = (int, type(QQ(1)))


class DivisionByZero(ZeroDivisionError):
    pass


class ShapeMismatch(ValueError):
    pass


def rat(p):
    """Exact rational from an int or a 'p/q' string.

    A string with a zero denominator is malformed input: ``ValueError``.
    """
    if isinstance(p, str):
        try:
            return QQ(p)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {p!r}") from None
    return QQ(p)


def is_rat(x) -> bool:
    return isinstance(x, RAT_TYPES)


def over_one_den(xs) -> tuple:
    """(nums, den): the rationals xs as int numerators over the lcm of
    their denominators."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _euler_phi(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


_CYCLO_CACHE: dict[int, tuple] = {}


def _cyclo_data(n: int):
    """(phi, reduction rows) for Q(zeta_n); rows express zeta^k, k >= phi."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    # Phi_n by exact division of x^n - 1 by each lower Phi_d, whose
    # coefficients are the negated first row of its own (cached) data; the
    # divisors are monic, so the division runs on ints
    cyc = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        lower = [-c for c in _cyclo_data(d)[1][0]] + [1]
        cyc, rem = poly_divmod(cyc, lower)
        if any(rem):
            raise ArithmeticError("non-exact division in cyclotomic setup")
        cyc = list(map(int, cyc))       # the quotient's zeros are QQ(0)
    phi = len(cyc) - 1
    assert phi == _euler_phi(n)
    # zeta^k on the power basis for phi <= k <= max needed (2*phi - 2 covers
    # products; n covers conductor embeddings)
    top = [-c for c in cyc[:phi]]
    rows = [top]
    for _ in range(phi, max(2 * phi - 2, n)):
        prev = rows[-1]
        nxt = [0] + prev[: phi - 1]
        lead = prev[phi - 1]
        if lead:
            nxt = [a + lead * b for a, b in zip(nxt, top)]
        rows.append(nxt)
    _CYCLO_CACHE[n] = (phi, rows)
    return _CYCLO_CACHE[n]


class Cyclo:
    """Element of Q(zeta_n): int coordinates ``nums`` over one positive
    int ``den``, gcd 1, so equal elements of one conductor have equal
    fields; ``coeffs`` derives the rational coordinates."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, coeffs):
        phi, _ = _cyclo_data(n)
        coeffs = tuple(coeffs)
        if len(coeffs) != phi:
            raise ValueError(f"need {phi} coordinates for conductor {n}")
        if not all(map(is_rat, coeffs)):
            raise TypeError(f"coordinates must be exact rationals: {coeffs}")
        self._set(n, *over_one_den(coeffs))

    def _set(self, n, nums, den):
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [c // g for c in nums], den // g
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)
        return self

    @staticmethod
    def _new(n: int, nums, den) -> "Cyclo":
        """nums / den brought to lowest terms; len(nums) must be phi(n)."""
        return object.__new__(Cyclo)._set(n, nums, den)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    @property
    def coeffs(self) -> tuple:
        return tuple(QQ(c, self.den) for c in self.nums)

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_rat(x, n: int) -> "Cyclo":
        phi, _ = _cyclo_data(n)
        return Cyclo._new(n, [x.numerator] + [0] * (phi - 1), x.denominator)

    @staticmethod
    def zeta(n: int, power: int = 1) -> "Cyclo":
        phi, rows = _cyclo_data(n)
        power %= n
        if power < phi:
            nums = [0] * phi
            nums[power] = 1
            return Cyclo._new(n, nums, 1)
        return Cyclo._new(n, rows[power - phi], 1)

    # -- conductor handling -------------------------------------------
    def lift(self, m: int) -> "Cyclo":
        """Embed into Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise ValueError("conductor must be a multiple")
        phi, rows = _cyclo_data(m)
        step, nums = m // self.n, [0] * m
        for j, c in enumerate(self.nums):
            nums[j * step] = c          # zeta_n^j = zeta_m^(j step)
        return Cyclo._new(m, _reduce(nums, phi, rows), self.den)

    def reduce_rat(self):
        """Return a plain rational if the element lies in Q, else self."""
        if any(self.nums[1:]):
            return self
        return QQ(self.nums[0], self.den)

    @staticmethod
    def _pair(a, b):
        if is_rat(b):
            b = Cyclo.from_rat(b, a.n)
        elif isinstance(b, Cyclo):
            if a.n != b.n:
                m = a.n * b.n // gcd(a.n, b.n)
                return a.lift(m), b.lift(m)
        else:
            return NotImplemented
        return a, b

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        pair = Cyclo._pair(self, other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return Cyclo._new(a.n, [x * b.den + y * a.den
                                for x, y in zip(a.nums, b.nums)],
                          a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        return Cyclo._new(self.n, [-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if is_rat(other):
            if other == 1:      # immutable: the product is self
                return self
            return Cyclo._new(self.n, [c * other.numerator for c in self.nums],
                              self.den * other.denominator)
        if not isinstance(other, Cyclo):
            return NotImplemented
        a, b = Cyclo._pair(self, other)
        phi, rows = _cyclo_data(a.n)
        conv = [0] * (2 * phi - 1)
        for i, x in enumerate(a.nums):
            if x:
                for j, y in enumerate(b.nums):
                    conv[i + j] += x * y
        return Cyclo._new(a.n, _reduce(conv, phi, rows), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if not self:
            raise DivisionByZero("inverse of zero")
        # Phi_n rebuilt from x^phi = rows[0]; 1/(nums/den) = den/nums
        _, rows = _cyclo_data(self.n)
        modulus = [-c for c in rows[0]] + [1]
        return Cyclo(self.n, inverse_mod(self.nums, modulus)) * self.den

    def __truediv__(self, other):
        if is_rat(other):
            if other == 0:
                raise DivisionByZero("division by zero")
            return self * (QQ(1) / QQ(other))
        if isinstance(other, Cyclo):
            a, b = Cyclo._pair(self, other)
            return a * b.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = Cyclo.from_rat(1, self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- predicates ------------------------------------------------------
    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        if is_rat(other):
            return not any(self.nums[1:]) and \
                self.nums[0] * other.denominator == other.numerator * self.den
        if isinstance(other, Cyclo):
            a, b = Cyclo._pair(self, other)
            return a.nums == b.nums and a.den == b.den
        return NotImplemented

    def __repr__(self):
        terms = []
        for j, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if j == 0 else f"{c}*z{self.n}^{j}")
        return " + ".join(terms) if terms else "0"


def _reduce(nums, phi, rows):
    """The phi int coordinates of sum_k nums[k] zeta^k modulo Phi_n."""
    out = nums[:phi]
    for k in range(phi, len(nums)):
        if nums[k]:
            out = [o + nums[k] * r for o, r in zip(out, rows[k - phi])]
    return out


# -- univariate polynomials over any exact scalar (lists, low degree first) --

def _deg(p):
    d = len(p) - 1
    while d >= 0 and not p[d]:
        d -= 1
    return d


def _trim(p):
    d = _deg(p)
    return list(p[: d + 1]) if d >= 0 else [QQ(0)]


def _poly_sub(a, b):
    m = max(len(a), len(b))
    a = list(a) + [QQ(0)] * (m - len(a))
    b = list(b) + [QQ(0)] * (m - len(b))
    return _trim([x - y for x, y in zip(a, b)])


def poly_mul(a, b):
    out = [QQ(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def poly_divmod(a, b):
    """(quotient, remainder) of long division; only the nonzero
    coefficients below the divisor's lead are subtracted, and a monic
    divisor's lead divides nothing."""
    r, b = _trim(a), _trim(b)
    db = _deg(b)
    inv_lead = None if b[db] == 1 else QQ(1) / b[db]
    tail = [(j, y) for j, y in enumerate(b[:db]) if y]
    q = [QQ(0)] * max(1, len(r) - len(b) + 1)
    dr = _deg(r)
    while dr >= db:
        c = r[dr] if inv_lead is None else r[dr] * inv_lead
        q[dr - db] = c
        r[dr] = 0
        for j, y in tail:
            r[dr - db + j] -= c * y
        dr = _deg(r)
    return _trim(q), _trim(r)


def inverse_mod(coeffs, modulus):
    """The deg(modulus) coordinates of 1/a(x) modulo ``modulus``, by the
    extended Euclid; DivisionByZero when a(x) shares a factor with it."""
    r0, r1 = _trim(modulus), _trim(coeffs)
    s0, s1 = [QQ(0)], [QQ(1)]
    while _deg(r1) > 0:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, poly_mul(q, s1))
    if _deg(r1) < 0:
        raise DivisionByZero("element not invertible")
    inv_lead = QQ(1) / r1[0]
    k = len(modulus) - 1
    inv = [c * inv_lead for c in s1[:k]]
    return inv + [QQ(0)] * (k - len(inv))


def _derivative(p):
    return _trim([c * k for k, c in enumerate(p)][1:] or [QQ(0)])


def poly_gcd(a, b):
    """Monic greatest common divisor of two polynomials, not both zero."""
    a, b = _trim(a), _trim(b)
    while _deg(b) >= 0:
        a, b = b, poly_divmod(a, b)[1]
    inv_lead = QQ(1) / a[-1]
    return [c * inv_lead for c in a]


def squarefree_split(p):
    """Yun's square-free factorisation of a nonconstant polynomial over a
    field of characteristic 0: {k: g_k}, the g_k monic, square-free,
    pairwise coprime and of positive degree, with p a constant times the
    product of the g_k^k."""
    dp = _derivative(p)
    b = poly_gcd(p, dp)
    c = poly_divmod(p, b)[0]
    d = _poly_sub(poly_divmod(dp, b)[0], _derivative(c))
    out, k = {}, 1
    while _deg(c) > 0:
        a = poly_gcd(c, d)
        if _deg(a) > 0:
            out[k] = a
        c = poly_divmod(c, a)[0]
        d = _poly_sub(poly_divmod(d, a)[0], _derivative(c))
        k += 1
    return out


# -- matrices over any exact scalar (lists of rows) --------------------------

def mat_mul(A, B):
    """A B for lists of rows over exact scalars or ``MPoly``s.

    Each entry starts from its first nonzero product (an all-zero entry is
    ``QQ(0)``), so a polynomial entry never passes through a constant."""
    cols = len(B[0]) if B else 0
    if any(len(row) != len(B) for row in A) or \
            any(len(row) != cols for row in B):
        raise ShapeMismatch("matrix product of mismatched shapes")
    zero, out = QQ(0), []
    for row in A:
        acc = [None] * cols
        for a, brow in zip(row, B):
            if a:
                for j, b in enumerate(brow):
                    if b:
                        acc[j] = a * b if acc[j] is None else acc[j] + a * b
        out.append([zero if x is None else x for x in acc])
    return out


def trace(M):
    """Sum of the diagonal of a nonempty square matrix."""
    if any(len(row) != len(M) for row in M):
        raise ShapeMismatch("trace of a non-square matrix")
    total = M[0][0]
    for i in range(1, len(M)):
        total = total + M[i][i]
    return total


def charpoly(M):
    """det(T - M), low degree first, by Faddeev-LeVerrier: with N_0 = 0
    and N_k = M N_(k-1) + c_(n-k+1) times the identity, the coefficient
    c_(n-k) of T^(n-k) is -tr(M N_k) / k."""
    n = len(M)
    coeffs = [QQ(0)] * n + [QQ(1)]
    MN = [[QQ(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        for i in range(n):
            MN[i][i] += coeffs[n - k + 1]       # MN is now N_k
        MN = mat_mul(M, MN)
        coeffs[n - k] = -trace(MN) * QQ(1, k)
    return coeffs


def rref(rows, ncols):
    """Reduced row echelon form of rational rows; any other entry raises
    ``TypeError``.

    Pivots on the first ``ncols`` columns (later columns, e.g. a right-hand
    side, are carried along).  Returns (rows, pivots): the reduced rows, the
    pivot rows first, and the pivot column of each of those rows.  A row
    after the pivots is zero on the first ``ncols`` columns and is returned
    only up to a nonzero factor.

    The rows are scaled to int rows and eliminated fraction-free (Bareiss,
    Math. Comp. 22, 1968): row i becomes p row_i - f row_pivot, over the
    content of that row, and each pivot row is divided by its pivot once
    at the end.  Every row stays a nonzero multiple of plain Gauss-Jordan
    elimination's, so the pivots and pivot rows are its.
    """
    if not all(is_rat(x) for r in rows for x in r):
        raise TypeError("rref takes rational rows only")
    rows = [over_one_den(r)[0] for r in rows]
    pivots = []
    for col in range(ncols):
        rp = len(pivots)
        if rp == len(rows):
            break
        piv = next((i for i in range(rp, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rp], rows[piv] = rows[piv], rows[rp]
        prow = rows[rp]
        p = prow[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i != rp and f:
                new = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*new) or 1      # 0: the row is now zero
                rows[i] = [x // g for x in new]
        pivots.append(col)
    out = [[QQ(x, r[c]) for x in r] for r, c in zip(rows, pivots)]
    return out + [[QQ(x) for x in r] for r in rows[len(pivots):]], pivots


# -- named constants ------------------------------------------------------

def zeta(n: int, power: int = 1) -> Cyclo:
    return Cyclo.zeta(n, power)


def imag_unit() -> Cyclo:
    return zeta(4)


def sqrt2() -> Cyclo:
    # zeta_8 + zeta_8^-1 = 2 cos(pi/4)
    return zeta(8) + zeta(8, 7)


def sqrt3() -> Cyclo:
    # zeta_12 + zeta_12^-1 = 2 cos(pi/6)
    return zeta(12) + zeta(12, 11)


def sqrt6() -> Cyclo:
    # 2 cos(pi/12) + 2 cos(5 pi/12)
    return zeta(24) + zeta(24, 23) + zeta(24, 5) + zeta(24, 19)


def omega() -> Cyclo:
    return zeta(3)


def split_quadratic(x, root: Cyclo) -> tuple:
    """Rationals (a, b) with x = a + b * root, for an irrational ``root``
    whose square is rational (such as ``sqrt3()``).

    Exact, on the int coordinates: b is read off one coordinate j where
    ``root`` is nonzero, a off the constant one, and every other
    coordinate k is checked by X_k R_j == X_j R_k.  An x outside Q(root)
    raises ``ValueError``.
    """
    if is_rat(x):
        return QQ(x), QQ(0)
    if not isinstance(x, Cyclo):
        raise ValueError(f"{x!r} is not a cyclotomic scalar")
    x, r = Cyclo._pair(x, root)
    X, R = x.nums, r.nums
    j = next((j for j, c in enumerate(R) if j and c), None)
    if j is None:
        raise ValueError(f"{root} is rational")
    if any(X[k] * R[j] != X[j] * R[k] for k in range(1, len(X))):
        raise ValueError(f"{x} does not lie in Q({root})")
    den = x.den * R[j]
    return QQ(X[0] * R[j] - X[j] * R[0], den), QQ(X[j] * r.den, den)


# -- numeric shadow --------------------------------------------------------

def embed_complex(x) -> complex:
    """Complex value of any exact scalar, zeta_n = exp(2*pi*i/n)."""
    if is_rat(x):
        return complex(QQ(x))
    if isinstance(x, Cyclo):
        z = cmath.exp(2j * cmath.pi / x.n)
        value = 0j
        for c in reversed(x.coeffs):
            value = value * z + complex(c)
        return value
    raise TypeError(f"not an exact scalar: {x!r}")


def scalar_to_json(x):
    """Report form: rationals as 'p/q' strings, Cyclo as conductor+coords."""
    if is_rat(x):
        return str(QQ(x))
    if isinstance(x, Cyclo):
        r = x.reduce_rat()
        if is_rat(r):
            return str(r)
        return {"conductor": x.n, "coords": [str(c) for c in x.coeffs]}
    raise TypeError(f"not an exact scalar: {x!r}")
