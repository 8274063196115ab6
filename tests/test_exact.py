"""Scalar arithmetic: canonical forms, embeddings, square roots; and the
univariate and matrix helpers over those scalars."""

import random
from math import gcd, lcm

import pytest

from mckaydeform import exact
from mckaydeform.exact import (Cyclo, DivisionByZero, QQ, ShapeMismatch,
                               charpoly, embed_complex, imag_unit, mat_mul,
                               poly_divmod, poly_mul, rat, rref, scalar_to_json,
                               split_quadratic, sqrt2, sqrt3, sqrt6,
                               squarefree_split, trace, zeta)
from mckaydeform.poly import MPoly, VarTable


def test_embed_zeta4_is_i():
    assert abs(embed_complex(zeta(4)) - 1j) < 1e-15


def test_embed_two_cos_pi_over_4():
    value = embed_complex(zeta(8) + zeta(8, 7))
    assert abs(value - 1.4142135623730951) < 1e-12


def test_embed_one_in_big_field():
    assert abs(embed_complex(Cyclo.from_rat(1, 24)) - 1.0) < 1e-15


def test_rational_arithmetic():
    assert QQ(1, 2) + QQ(1, 3) == QQ(5, 6)


@pytest.mark.parametrize("text", ("1/0", "-3/0", " 0/0"))
def test_zero_denominator_string_is_a_value_error(text):
    # malformed input, not an arithmetic fault of the program
    with pytest.raises(ValueError, match="zero denominator"):
        rat(text)


def test_root_of_unity_order():
    w = zeta(3)
    assert (w * w * w).reduce_rat() == 1


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        zeta(8).inverse() * Cyclo.from_rat(0, 8).inverse()


def test_split_quadratic_round_trips_random_sqrt3_elements():
    rng = random.Random(29)
    r3 = sqrt3()
    for _ in range(40):
        a = QQ(rng.randint(-9, 9), rng.randint(1, 7))
        b = QQ(rng.randint(-9, 9), rng.randint(1, 7))
        x = r3 * b + a
        assert split_quadratic(x, r3) == (a, b)
        assert split_quadratic(x.lift(24), r3) == (a, b)
        assert split_quadratic(x, r3.lift(24)) == (a, b)
    assert split_quadratic(QQ(5, 3), r3) == (QQ(5, 3), 0)


@pytest.mark.parametrize("x", [zeta(24), sqrt2(), sqrt6(), imag_unit(),
                               sqrt3() + zeta(24, 5)],
                         ids=["zeta24", "sqrt2", "sqrt6", "i", "mixed"])
def test_split_quadratic_refuses_an_element_outside_q_sqrt3(x):
    with pytest.raises(ValueError):
        split_quadratic(x, sqrt3())


def test_split_quadratic_refuses_a_rational_root():
    with pytest.raises(ValueError):
        split_quadratic(sqrt3(), Cyclo.from_rat(2, 12))


def _fraction_split(x, root):
    """(a, b) on the ``Fraction`` coordinates, or None outside Q(root): the
    field formulas the int version replaced."""
    x, r = Cyclo._pair(x, root)
    j = next(j for j, c in enumerate(r.coeffs) if j and c)
    b = x.coeffs[j] / r.coeffs[j]
    a = x.coeffs[0] - b * r.coeffs[0]
    want = [b * c for c in r.coeffs]
    want[0] += a
    return (a, b) if list(x.coeffs) == want else None


def test_split_quadratic_equals_the_fraction_formulas():
    # property test: seeded elements of Q(zeta_12) and Q(zeta_24), inside
    # and outside Q(sqrt 3), against scaled and lifted roots
    rng = random.Random(31)

    def q():
        return QQ(rng.randint(-9, 9), rng.randint(1, 7))
    r3 = sqrt3()
    roots = (r3, r3 * QQ(-2, 3), r3.lift(24), r3 * QQ(5, 4))
    seen = set()
    for k in range(60):
        x = r3 * q() + q()
        if k % 3:           # move it off Q(sqrt 3), or not at all
            x = x + zeta(12, rng.randrange(4)) * q() * rng.randint(0, 1)
        if k % 4 == 0:
            x = x.lift(24)
        want = _fraction_split(x, roots[k % 4])
        seen.add(want is None)
        if want is None:
            with pytest.raises(ValueError, match="does not lie"):
                split_quadratic(x, roots[k % 4])
        else:
            got = split_quadratic(x, roots[k % 4])
            assert got == want and all(type(v) is type(QQ(1)) for v in got)
    assert seen == {True, False}


def test_named_square_roots():
    for root, target in ((sqrt2(), 2), (sqrt3(), 3), (sqrt6(), 6)):
        assert (root * root).reduce_rat() == target


def test_canonical_form_randomised():
    # a - a == 0 with a unique zero representation, 10^4 operand pairs
    rng = random.Random(20260810)
    zero = Cyclo.from_rat(0, 24)
    for _ in range(10_000):
        coeffs = [QQ(rng.randint(-50, 50), rng.randint(1, 20))
                  for _ in range(8)]
        a = Cyclo(24, coeffs)
        b = Cyclo(24, [QQ(rng.randint(-50, 50), rng.randint(1, 20))
                       for _ in range(8)])
        d = (a + b) - b - a
        assert d == zero and not d


def test_embedding_is_multiplicative():
    rng = random.Random(7)
    for _ in range(300):
        a = Cyclo(24, [QQ(rng.randint(-1000, 1000)) for _ in range(8)])
        b = Cyclo(24, [QQ(rng.randint(-1000, 1000)) for _ in range(8)])
        lhs = embed_complex(a * b)
        rhs = embed_complex(a) * embed_complex(b)
        scale = max(abs(rhs), 1.0)
        assert abs(lhs - rhs) / scale < 1e-12


def test_conductor_round_trip():
    a = zeta(8) + 3 * zeta(8, 2) - QQ(7, 2)
    lifted = a.lift(24)
    assert lifted == a
    assert abs(embed_complex(lifted) - embed_complex(a)) < 1e-14


def test_field_inverse_randomised():
    rng = random.Random(11)
    for _ in range(100):
        a = Cyclo(12, [QQ(rng.randint(-9, 9)) for _ in range(4)])
        if not a:
            continue
        assert (a * a.inverse()).reduce_rat() == 1


def test_scalar_serialization():
    assert scalar_to_json(QQ(3, 4)) == "3/4"
    payload = scalar_to_json(zeta(4))
    assert payload == {"conductor": 4, "coords": ["0", "1"]}
    assert scalar_to_json(Cyclo.from_rat(QQ(-2, 7), 8)) == "-2/7"


@pytest.mark.parametrize("x", [0.5, 1.5 + 2j])
def test_scalar_to_json_refuses_a_float(x):
    # the report form is exact: a float is no scalar of the package
    with pytest.raises(TypeError):
        scalar_to_json(x)


@pytest.mark.parametrize("coords", ([0.1, 1], [QQ(1), 1j], ["1/2", 0]))
def test_cyclo_refuses_a_coordinate_that_is_no_rational(coords):
    # a float would be read as its binary value, 0.1 as 3602879701896397/2^55
    with pytest.raises(TypeError):
        Cyclo(4, coords)


def test_cyclo_is_unhashable():
    # equality crosses conductors; no hash is kept in step with it
    with pytest.raises(TypeError):
        hash(zeta(4))


def test_cyclo_times_a_rational_one_is_itself():
    # Cyclo is immutable: multiplying by 1 rebuilds no coordinate
    z = sqrt6() + zeta(24)
    assert z * 1 is z and z * QQ(1) is z and QQ(1) * z is z
    assert z * QQ(2) == z + z and z * QQ(2) is not z


def test_mat_mul_matches_the_entrywise_sum():
    rng = random.Random(17)
    for _ in range(30):
        m, k, n = (rng.randint(1, 4) for _ in range(3))
        A = [[QQ(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(k)]
             for _ in range(m)]
        B = [[QQ(rng.randint(-2, 2)) for _ in range(n)] for _ in range(k)]
        assert mat_mul(A, B) == [[sum((A[i][t] * B[t][j] for t in range(k)),
                                      QQ(0)) for j in range(n)]
                                 for i in range(m)]


def test_mat_mul_over_polynomials():
    # an entry is a polynomial from its first nonzero product on; an
    # all-zero entry is the rational 0
    V = VarTable(("x", "y"))
    x, y = (MPoly.variable(V, v) for v in "xy")
    P = mat_mul([[x, QQ(0)], [y, x]], [[y, QQ(0)], [x, QQ(0)]])
    assert P == [[x * y, QQ(0)], [y * y + x * x, QQ(0)]]
    assert isinstance(P[0][0], MPoly) and P[0][1] == 0 and \
        not isinstance(P[0][1], MPoly)
    assert trace(P) == x * y


@pytest.mark.parametrize("A, B", [([[1, 2]], [[1]]),
                                  ([[1], [1, 2]], [[1], [1]]),
                                  ([[1, 2]], [[1], [1, 2]])])
def test_mat_mul_refuses_mismatched_shapes(A, B):
    # zip would silently drop the unmatched entries: [[1, 2]] [[1]] = [[1]]
    with pytest.raises(ShapeMismatch):
        mat_mul(A, B)


def test_trace_refuses_a_non_square_matrix():
    with pytest.raises(ShapeMismatch):
        trace([[QQ(1), QQ(2)]])


def _sympy_rational(x):
    import sympy
    return sympy.Rational(x.numerator, x.denominator)


def _random_rational_matrix(rng, m, n, rank):
    """m x n with rank at most ``rank``: random rows, then combinations."""
    base = [[QQ(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(rank)]
    rows = list(base)
    while len(rows) < m:
        f = [QQ(rng.randint(-3, 3)) for _ in range(rank)]
        rows.append([sum((fk * b[j] for fk, b in zip(f, base)), QQ(0))
                     for j in range(n)])
    rng.shuffle(rows)
    return rows


def test_rref_matches_sympy_on_random_rational_matrices():
    import sympy
    rng = random.Random(23)
    for trial in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 6)
        rank = rng.randint(0, min(m, n))
        rows = _random_rational_matrix(rng, m, n, rank)
        got, pivots = rref(rows, n)
        want, want_pivots = sympy.Matrix(
            [[_sympy_rational(x) for x in row] for row in rows]).rref()
        assert tuple(pivots) == want_pivots
        assert [[_sympy_rational(x) for x in row] for row in got] \
            == want.tolist()


def test_rref_leaves_an_inconsistent_right_hand_side_in_a_zero_row():
    import sympy
    # column 2 = column 0 + column 1, so (0, 0, 1) is outside the span
    A = [[QQ(1), QQ(2), QQ(3)], [QQ(2), QQ(-1), QQ(1)], [QQ(4), QQ(3), QQ(7)]]
    rhs = [QQ(1), QQ(0), QQ(5)]
    rows, pivots = rref([a + [b] for a, b in zip(A, rhs)], 3)
    want, want_pivots = sympy.Matrix(
        [[_sympy_rational(x) for x in a + [b]] for a, b in zip(A, rhs)]).rref()
    assert pivots == [0, 1] and want_pivots == (0, 1, 3)
    # same left block as sympy; the spare row keeps a nonzero right side
    assert [[_sympy_rational(x) for x in row[:3]] for row in rows] \
        == want[:, :3].tolist()
    assert not any(rows[2][:3]) and rows[2][3]


def test_rref_stops_once_every_row_has_a_pivot():
    rows, pivots = rref([[QQ(2), QQ(4), QQ(6)]], 3)
    assert pivots == [0] and rows == [[1, 2, 3]]


def _field_rref(rows, ncols):
    """rref as a plain field loop: each pivot row scaled to 1, then its
    column cleared in every other row."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(ncols):
        rp = len(pivots)
        if rp == len(rows):
            break
        piv = next((i for i in range(rp, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rp], rows[piv] = rows[piv], rows[rp]
        inv = QQ(1) / rows[rp][col]
        rows[rp] = [x * inv for x in rows[rp]]
        for i, row in enumerate(rows):
            if i != rp and row[col]:
                f = row[col]
                rows[i] = [a - f * b for a, b in zip(row, rows[rp])]
        pivots.append(col)
    return rows, pivots


def test_rational_rref_matches_the_field_loop():
    # fraction-free on ints: the same pivots and pivot rows; a row after
    # the pivots is zero on the pivot columns and a nonzero multiple of
    # the loop's row (right-hand sides make some of them nonzero)
    rng = random.Random(30)
    for trial in range(300):
        m, n, extra = rng.randint(1, 5), rng.randint(1, 6), rng.randint(0, 2)
        rows = _random_rational_matrix(rng, m, n + extra,
                                       rng.randint(0, min(m, n + extra)))
        rows = [[int(x) if x.denominator == 1 and rng.random() < 0.5 else x
                 for x in row] for row in rows]
        got, pivots = rref(rows, n)
        want, want_pivots = _field_rref(rows, n)
        assert pivots == want_pivots
        k = len(pivots)
        assert got[:k] == want[:k]
        assert all(type(x) is QQ for row in got for x in row)
        for g, w in zip(got[k:], want[k:]):
            assert not any(g[:n])
            j = next((j for j, x in enumerate(w) if x), None)
            if j is None:
                assert not any(g)
            else:
                assert g[j] and g == [x * (g[j] / w[j]) for x in w]


def test_rref_refuses_a_cyclotomic_entry():
    # rref is over Q alone: a Q(zeta_n) system is solved another way (the
    # E6 Cartan solve multiplies by the rational inverse)
    rows = [[QQ(1), QQ(2)], [QQ(3), sqrt3()]]
    with pytest.raises(TypeError, match="rational rows only"):
        rref(rows, 2)
    with pytest.raises(TypeError, match="rational rows only"):
        rref([[Cyclo.from_rat(QQ(1, 2), 12), QQ(1)]], 1)


CONDUCTORS = (3, 4, 8, 12, 24)


def _random_cyclo(rng, n):
    phi, _ = exact._cyclo_data(n)
    return Cyclo(n, [QQ(rng.randint(-9, 9), rng.randint(1, 6))
                     for _ in range(phi)])


def _sympy_element(x, m):
    """x in Q(zeta_m) for sympy: its power-basis polynomial at X^(m/n)."""
    import sympy
    step = m // x.n
    return sympy.Poly.from_dict(
        {(j * step,): _sympy_rational(c) for j, c in enumerate(x.coeffs)},
        sympy.Symbol("X"), domain="QQ")


def _sympy_reduced(p, m):
    """The phi(m) coordinates of p modulo cyclotomic_poly(m)."""
    import sympy
    phi_m = sympy.Poly(sympy.cyclotomic_poly(m, p.gen), p.gen, domain="QQ")
    coords = p.rem(phi_m).all_coeffs()[::-1]
    return coords + [0] * (exact._cyclo_data(m)[0] - len(coords))


def _is_canonical(x):
    # one positive denominator, in lowest terms with the integer coordinates
    return type(x.den) is int and x.den > 0 and gcd(x.den, *x.nums) == 1 \
        and all(type(c) is int for c in x.nums)


def test_cyclo_arithmetic_matches_sympy_modulo_the_cyclotomic_polynomial():
    import sympy
    rng = random.Random(2029)
    for trial in range(60):
        na, nb = rng.choice(CONDUCTORS), rng.choice(CONDUCTORS)
        m = lcm(na, nb)
        a, b = _random_cyclo(rng, na), _random_cyclo(rng, nb)
        A, B = _sympy_element(a, m), _sympy_element(b, m)
        An, Bn = _sympy_element(a, na), _sympy_element(b, nb)
        k = rng.randint(2, 5)
        cases = [(a.lift(m), m, A), (a + b, m, A + B), (a - b, m, A - B),
                 (a * b, m, A * B), (a ** k, na, An ** k)]
        if b:
            phi_b = sympy.Poly(sympy.cyclotomic_poly(nb, Bn.gen), Bn.gen)
            phi_m = sympy.Poly(sympy.cyclotomic_poly(m, B.gen), B.gen)
            cases += [(b.inverse(), nb, Bn.invert(phi_b)),
                      (b ** -k, nb, Bn.invert(phi_b) ** k),
                      (a / b, m, A * B.invert(phi_m))]
        for got, n, want in cases:
            assert got.n == n and _is_canonical(got)
            assert [_sympy_rational(c) for c in got.coeffs] == \
                _sympy_reduced(want, n)


def test_equal_cyclo_values_have_equal_fields():
    rng = random.Random(2030)
    for trial in range(60):
        n = rng.choice(CONDUCTORS)
        a, b, c = (_random_cyclo(rng, n) for _ in range(3))
        lhs, rhs = a * (b + c), a * b + a * c
        assert _is_canonical(lhs) and _is_canonical(rhs)
        assert (lhs.n, lhs.nums, lhs.den) == (rhs.n, rhs.nums, rhs.den)
        twice = (a + a) * QQ(1, 2)
        assert (twice.nums, twice.den) == (a.nums, a.den)
        zero = a - a
        assert (zero.nums, zero.den) == ((0,) * len(a.nums), 1)
    x = Cyclo(4, [QQ(2, 4), QQ(-6, 8)])
    assert (x.nums, x.den) == ((2, -3), 4) and x.coeffs == (QQ(1, 2),
                                                            QQ(-3, 4))
    y = Cyclo(4, [QQ(4), QQ(-6)]) / -2
    assert (y.nums, y.den) == ((-2, 3), 1)


def test_charpoly_matches_sympy_on_random_rational_matrices():
    import sympy
    rng = random.Random(41)
    T = sympy.Symbol("T")
    for trial in range(40):
        n = rng.randint(1, 6)
        M = _random_rational_matrix(rng, n, n, rng.randint(0, n))
        want = sympy.Matrix([[_sympy_rational(x) for x in row]
                             for row in M]).charpoly(T).all_coeffs()
        assert [_sympy_rational(c) for c in reversed(charpoly(M))] == want


def test_charpoly_over_a_cyclotomic_field():
    # a Jordan block at sqrt(6) and the eigenvalue i: (T - sqrt 6)^2 (T - i)
    r6, i = sqrt6(), imag_unit()
    zero = QQ(0)
    M = [[r6, QQ(1), zero], [zero, r6, zero], [zero, zero, i]]
    want = poly_mul(poly_mul([-r6, QQ(1)], [-r6, QQ(1)]), [-i, QQ(1)])
    assert charpoly(M) == want


def test_squarefree_split_matches_sympy():
    import sympy
    rng = random.Random(13)
    T = sympy.Symbol("T")
    for trial in range(40):
        p = [QQ(rng.randint(1, 5), rng.randint(1, 3))]
        for k in range(1, 4):
            for _ in range(rng.randint(0, 2)):
                root = QQ(rng.randint(-20, 20), rng.randint(1, 4))
                for _ in range(k):
                    p = poly_mul(p, [-root, QQ(1)])
        if len(p) == 1:
            continue
        got = squarefree_split(p)
        _, factors = sympy.sqf_list(sympy.Poly(
            [_sympy_rational(c) for c in reversed(p)], T))
        assert {k: [_sympy_rational(c) for c in reversed(g)]
                for k, g in got.items()} == \
            {k: f.monic().all_coeffs() for f, k in factors}


def test_squarefree_split_over_a_cyclotomic_field():
    r6, i = sqrt6(), imag_unit()
    p = poly_mul(poly_mul([-r6, QQ(1)], [-r6, QQ(1)]), [-i, QQ(1)])
    assert squarefree_split(p) == {1: [-i, QQ(1)], 2: [-r6, QQ(1)]}


def _mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_cyclotomic_polynomials_are_the_mobius_products():
    # Phi_n = prod over d | n of (x^d - 1)^mu(n/d), in integers
    exact._CYCLO_CACHE.clear()
    for n in range(1, 31):
        num, den = [1], [1]
        for d in range(1, n + 1):
            if n % d == 0 and _mobius(n // d):
                factor = [-1] + [0] * (d - 1) + [1]
                if _mobius(n // d) > 0:
                    num = _int_mul(num, factor)
                else:
                    den = _int_mul(den, factor)
        q = [0] * (len(num) - len(den) + 1)        # den is monic
        for i in range(len(q) - 1, -1, -1):
            q[i] = num[i + len(den) - 1]
            for j, y in enumerate(den):
                num[i + j] -= q[i] * y
        assert not any(num)
        phi, rows = exact._cyclo_data(n)
        assert [-c for c in rows[0]] + [1] == q and len(q) == phi + 1
        assert all(type(c) is int for row in rows for c in row)


def test_long_division_by_sparse_and_non_monic_divisors():
    rng = random.Random(7)
    for b in ([QQ(1), 0, 0, 0, QQ(1)], [QQ(1), 0, QQ(-1), 0, QQ(1)],
              [QQ(2, 3), 0, 0, QQ(-3, 5)], [QQ(0), QQ(7)]):
        for _ in range(5):
            a = [QQ(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(9)]
            q, r = poly_divmod(a, b)
            assert len(r) < len(b) or not any(r)
            back = poly_mul(q, b) + [QQ(0)] * len(a)
            rr = list(r) + [QQ(0)] * len(back)
            assert [x + y for x, y in zip(back, rr)][:len(a)] == a
