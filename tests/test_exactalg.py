"""Scalar tower and exact linear algebra."""

import itertools
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from qbruhat import exactalg
from qbruhat.exactalg import (Laurent, ONE, RatFun, Subspace, ZERO,
                              charpoly, format_scalar, identity_matrix,
                              kernel, mat_mul, parse_laurent, q_binomial,
                              q_factorial, q_int, q_power_roots,
                              reduce_against, rref, solve)

q = Laurent.q_power(1)
qi = Laurent.q_power(-1)


@st.composite
def laurents(draw, max_terms=4, max_exp=5):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    out = ZERO
    for _ in range(n):
        e = draw(st.integers(min_value=-max_exp, max_value=max_exp))
        c = draw(st.fractions(min_value=-9, max_value=9, max_denominator=7))
        out = out + Laurent({e: Fraction(c)})
    return out


class TestLaurent:
    def test_constants(self):
        assert not ZERO
        assert ONE
        assert ONE * q == q
        assert q * qi == ONE

    def test_arithmetic(self):
        a = parse_laurent("1 + q")
        b = parse_laurent("1 - q")
        assert a * b == parse_laurent("1 - q^2")
        assert a + b == Laurent.const(2)
        assert a - a == ZERO

    def test_format_round_trip(self):
        for text in ["0", "1", "q", "-q^-1", "1 + q + q^2",
                     "q^-2 + 2 + q^2", "3/2 - 5q"]:
            assert parse_laurent(format_scalar(parse_laurent(text))) == \
                parse_laurent(text)

    def test_exact_division(self):
        num = q ** 3 - qi ** 3
        den = q - qi
        assert num / den == parse_laurent("q^-2 + 1 + q^2")

    def test_rational_fallback(self):
        r = ONE / (ONE + q)
        assert isinstance(r, RatFun)
        assert r * (ONE + q) == ONE
        assert r != ZERO

    def test_ratfun_constructor_is_canonical(self):
        r = RatFun(q ** 2 - ONE, q - ONE)
        assert isinstance(r, Laurent)
        assert r == q + ONE
        assert isinstance(RatFun(ONE, ONE + q), RatFun)
        assert q / RatFun(ONE, ONE + q) == q + q ** 2

    @given(laurents(), laurents().filter(bool))
    @settings(max_examples=60, deadline=None)
    def test_ratfun_of_exact_quotient_is_laurent(self, a, b):
        r = RatFun(a * b, b)
        assert isinstance(r, Laurent)
        assert r == a

    @given(laurents(), laurents())
    @settings(max_examples=60, deadline=None)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(laurents(), laurents(), laurents())
    @settings(max_examples=40, deadline=None)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(laurents())
    @settings(max_examples=60, deadline=None)
    def test_parse_format_round_trip(self, a):
        assert parse_laurent(format_scalar(a)) == a


def fraction_poly_gcd(a, b):
    """Monic gcd over Q by the Euclidean algorithm on Fraction
    coefficients: the reference for the integer pseudo-remainder gcd."""
    a = {e: Fraction(c) for e, c in a.items()}
    b = {e: Fraction(c) for e, c in b.items()}
    while b:
        db = max(b)
        lead = b[db]
        while a and max(a) >= db:
            da = max(a)
            f = a[da] / lead
            for e, c in b.items():
                ne = da - db + e
                s = a.get(ne, 0) - f * c
                if s:
                    a[ne] = s
                elif ne in a:
                    del a[ne]
        a, b = b, a
    if not a:
        return {0: Fraction(1)}
    lead = a[max(a)]
    return {e: c / lead for e, c in a.items()}


def ordinary_poly(p):
    """q^-min_exp(p) * p as an exponent dict with nonzero constant term."""
    low = p.min_exp()
    return {e - low: c for e, c in p.coeffs.items()}


def stored_coeffs(x):
    if isinstance(x, RatFun):
        return list(x.num.coeffs.values()) + list(x.den.coeffs.values())
    return list(x.coeffs.values())


def canonical_coeff(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


class TestCanonicalCoefficients:
    def test_integral_fraction_is_stored_as_int(self):
        a = Laurent({0: Fraction(4, 2)})
        b = Laurent({0: 2})
        assert a == b
        assert hash(a) == hash(b)
        assert str(a) == str(b) == "2"
        assert type(a.coeffs[0]) is int

    def test_float_coefficient_is_rejected(self):
        with pytest.raises(TypeError):
            Laurent({0: 0.5})

    def test_constants_are_int(self):
        assert all(type(c) is int for c in stored_coeffs(ONE))
        assert all(type(c) is int for c in stored_coeffs(q))
        assert all(type(c) is int
                   for c in stored_coeffs(parse_laurent("-q^-1 + 3")))

    @given(st.lists(laurents(), min_size=2, max_size=4),
           st.lists(st.tuples(st.sampled_from("+-*/"),
                              st.integers(0, 3), st.integers(0, 3)),
                    min_size=1, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_arithmetic_keeps_canonical_coefficients(self, seeds, ops):
        vals = list(seeds)
        for op, i, j in ops:
            x, y = vals[i % len(vals)], vals[j % len(vals)]
            if op == "+":
                vals.append(x + y)
            elif op == "-":
                vals.append(x - y)
            elif op == "*":
                vals.append(x * y)
            elif y:
                vals.append(x / y)
        for v in vals:
            assert all(canonical_coeff(c) for c in stored_coeffs(v)), v

    @given(laurents(), laurents().filter(bool), laurents().filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_make_ratfun_matches_fraction_gcd(self, a, b, c):
        num, den = a * c, b * c
        assume(num)
        new = exactalg._make_ratfun(num, den)
        with mock.patch.object(exactalg, "_poly_gcd", fraction_poly_gcd):
            old = exactalg._make_ratfun(num, den)
        assert type(new) is type(old)
        assert new == old
        assert str(new) == str(old)

    @given(laurents().filter(bool), laurents().filter(bool),
           laurents().filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_poly_gcd_is_monic_gcd_up_to_scale(self, a, b, c):
        pa, pb = ordinary_poly(a * c), ordinary_poly(b * c)
        g = exactalg._poly_gcd(pa, pb)
        assert all(type(x) is int for x in g.values())
        lead = g[max(g)]
        assert lead > 0
        assert ({e: Fraction(x, lead) for e, x in g.items()}
                == fraction_poly_gcd(pa, pb))


def oracle_make_ratfun(num, den):
    """num/den by one full gcd of the whole numerator and denominator: the
    reference for the reduced-operand RatFun operators."""
    if not den:
        raise ZeroDivisionError("division by zero scalar")
    if not num:
        return ZERO
    sn, sd = num.min_exp(), den.min_exp()
    pn = {e - sn: c for e, c in num.coeffs.items()}
    pd = {e - sd: c for e, c in den.coeffs.items()}
    g = exactalg._poly_gcd(pn, pd)
    if max(g) > 0:
        gl = Laurent(g)
        pn_l, r1 = exactalg._laurent_divmod(Laurent(pn), gl)
        pd_l, r2 = exactalg._laurent_divmod(Laurent(pd), gl)
        assert not r1 and not r2
        pn, pd = pn_l.coeffs, pd_l.coeffs
    lead = pd[max(pd)]
    if lead != 1:
        pn = {e: Fraction(c, lead) for e, c in pn.items()}
        pd = {e: Fraction(c, lead) for e, c in pd.items()}
    shift = sn - sd
    if max(pd) == 0:
        return Laurent({e + shift: c for e, c in pn.items()})
    rf = object.__new__(RatFun)
    rf.num = Laurent({e + shift: c for e, c in pn.items()})
    rf.den = Laurent(pd)
    rf._hash = None
    return rf


def oracle_parts(y):
    return (y, ONE) if isinstance(y, Laurent) else (y.num, y.den)


def oracle_add(x, y):
    """x + y for a RatFun x by one full gcd."""
    on, od = oracle_parts(y)
    return oracle_make_ratfun(x.num * od + on * x.den, x.den * od)


def oracle_neg(x):
    return oracle_make_ratfun(-x.num, x.den) if isinstance(x, RatFun) else -x


def oracle_mul(x, y):
    on, od = oracle_parts(y)
    return oracle_make_ratfun(x.num * on, x.den * od)


def oracle_truediv(x, y):
    """x / y for a RatFun x, or for a Laurent x and a RatFun y."""
    if isinstance(x, Laurent):
        return oracle_make_ratfun(x * y.den, y.num)
    on, od = oracle_parts(y)
    return oracle_make_ratfun(x.num * od, x.den * on)


def oracle_inverse(x):
    return oracle_make_ratfun(x.den, x.num)


def oracle_pow(x, n):
    if n < 0:
        x, n = oracle_inverse(x), -n
        if isinstance(x, Laurent):
            return x ** n
    out = ONE
    for _ in range(n):
        out = oracle_mul(x, out)
    return out


def assert_same(new, old):
    assert type(new) is type(old)
    assert str(new) == str(old)
    assert new == old
    assert hash(new) == hash(old)
    assert all(canonical_coeff(c) for c in stored_coeffs(new)), new


FACTORS = [parse_laurent(t) for t in ("1 + q", "1 - q", "1 + q^2",
                                      "1 + q + q^2", "2 + q", "1/2 + q^3",
                                      "q^-1 + q")]


def product(fs):
    out = ONE
    for f in fs:
        out = out * f
    return out


factor_products = st.lists(st.sampled_from(FACTORS), max_size=3).map(product)
nonzero_coeffs = st.fractions(min_value=-5, max_value=5,
                              max_denominator=3).filter(bool)


@st.composite
def ratfun_pairs(draw):
    """A RatFun x and a second operand y of one of four kinds, built from a
    small pool of factors so that common factors are frequent."""
    shared = product(draw(st.lists(st.sampled_from(FACTORS), min_size=1,
                                   max_size=2)))
    x = oracle_make_ratfun(draw(laurents().filter(bool))
                           * draw(factor_products),
                           shared * draw(factor_products))
    assume(isinstance(x, RatFun))
    kind = draw(st.sampled_from(["monomial", "laurent", "same-den",
                                 "other-den"]))
    if kind == "monomial":
        y = Laurent({draw(st.integers(-4, 4)): draw(nonzero_coeffs)})
    elif kind == "laurent":
        y = draw(laurents()) * draw(factor_products)
    elif kind == "same-den":
        # n1 + n2 = f*k: a common factor with x.den whenever f divides it
        f = draw(st.sampled_from(FACTORS))
        m = f * draw(laurents()) - x.num
        assume(m)
        y = oracle_make_ratfun(m, x.den)
    else:
        y = oracle_make_ratfun(draw(laurents().filter(bool))
                               * draw(factor_products),
                               shared * draw(factor_products))
    return x, y


class TestReducedOperandArithmetic:
    @given(ratfun_pairs(), st.integers(-2, 3))
    @settings(max_examples=150, deadline=None)
    def test_operators_match_full_gcd_oracle(self, pair, n):
        x, y = pair
        assert_same(x + y, oracle_add(x, y))
        assert_same(y + x, oracle_add(x, y))
        assert_same(x - y, oracle_add(x, oracle_neg(y)))
        assert_same(y - x, oracle_add(oracle_neg(x), y))
        assert_same(-x, oracle_neg(x))
        assert_same(x * y, oracle_mul(x, y))
        assert_same(y * x, oracle_mul(x, y))
        if y:
            assert_same(x / y, oracle_truediv(x, y))
        assert_same(y / x, oracle_truediv(y, x))
        assert_same(ONE / x, oracle_inverse(x))
        assert_same(x ** n, oracle_pow(x, n))
        if isinstance(y, RatFun):
            assert_same(y ** n, oracle_pow(y, n))

    def test_every_branch_matches_the_oracle(self):
        d = parse_laurent("1 + q^2")
        x = RatFun(parse_laurent("2 + q"), d * FACTORS[0])
        cases = [
            ("monomial", Laurent({-3: Fraction(2, 3)})),
            ("laurent", parse_laurent("q^-1 + q")),
            ("same-den", RatFun(parse_laurent("q^3 + 2*q^2 - 2 + q"),
                                d * FACTORS[0])),
            ("other-den", RatFun(ONE, d * FACTORS[2])),
            ("coprime-den", RatFun(q, FACTORS[4])),
            ("cross-gcd", RatFun(FACTORS[0] * FACTORS[4], FACTORS[1])),
        ]
        for kind, y in cases:
            assert_same(x + y, oracle_add(x, y))
            assert_same(x * y, oracle_mul(x, y))
            assert_same(x / y, oracle_truediv(x, y))
            assert_same(y / x, oracle_truediv(y, x))
        for n in range(-2, 4):
            assert_same(x ** n, oracle_pow(x, n))

    def test_demotion_to_laurent(self):
        a = RatFun(q, parse_laurent("1 + q^2")) * parse_laurent("q^-1 + q")
        assert type(a) is Laurent and a == ONE
        b = (RatFun(q ** 2, parse_laurent("1 + q^2"))
             + RatFun(ONE, parse_laurent("1 + q^2")))
        assert type(b) is Laurent and b == ONE
        assert type(a.coeffs[0]) is int and type(b.coeffs[0]) is int

    def test_trusted_constructor_stores_int(self):
        half = Laurent({0: Fraction(1, 2)})
        s = half + half
        assert s == ONE and type(s.coeffs[0]) is int
        t = Laurent({1: Fraction(1, 3)}) * 3
        assert t == q and type(t.coeffs[1]) is int
        assert type((Laurent({1: Fraction(1, 3)})
                     * Laurent({0: Fraction(3, 2)})).coeffs[1]) is Fraction

    def test_gcd_runs_only_where_a_factor_can_remain(self):
        x = RatFun(parse_laurent("2 + q"), parse_laurent("1 + q + q^3"))
        free = [lambda: -x, lambda: x + parse_laurent("q^-2 - 5*q"),
                lambda: parse_laurent("3 + q^4") - x, lambda: x * q ** -3,
                lambda: ONE / x, lambda: x ** 3, lambda: x ** -2]
        with mock.patch.object(exactalg, "_poly_gcd",
                               wraps=exactalg._poly_gcd) as gcd:
            for op in free:
                op()
            assert gcd.call_count == 0
            x * x
            assert gcd.call_count == 2


@st.composite
def primitive_polys(draw):
    """A primitive integer polynomial of positive degree with nonzero
    constant term and positive leading coefficient, as ``_common_factor``
    returns it."""
    inner = draw(st.lists(st.integers(-4, 4), max_size=3))
    ends = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=2,
                         max_size=2))
    coeffs = [ends[0]] + inner + [ends[1]]
    p = exactalg._primitive({e: c for e, c in enumerate(coeffs) if c})
    return Laurent(p)


class TestExactQuotient:
    @given(laurents(), primitive_polys())
    @settings(max_examples=150, deadline=None)
    def test_quotient_of_a_multiple(self, a, g):
        quo = exactalg._exact_quo(a * g, g)
        assert type(quo) is Laurent
        assert quo == a
        assert all(canonical_coeff(c) for c in quo.coeffs.values())

    @given(laurents(), laurents())
    @settings(max_examples=150, deadline=None)
    def test_divmod_identity(self, a, b):
        """a = quo*b + rem, with rem's exponents below min(a) + span(b)."""
        assume(b)
        quo, rem = exactalg._laurent_divmod(a, b)
        assert quo * b + rem == a
        if rem:
            assert a.min_exp() <= rem.min_exp()
            assert rem.max_exp() < a.min_exp() + b.max_exp() - b.min_exp()
        for part in (quo, rem):
            assert all(canonical_coeff(c) for c in part.coeffs.values())

    def test_non_divisor_raises(self):
        g = parse_laurent("1 + q")
        with pytest.raises(AssertionError):
            exactalg._exact_quo(parse_laurent("1 + q^2"), g)
        with pytest.raises(AssertionError):
            exactalg._exact_quo(parse_laurent("q^-1 + 2*q + q^2"), g)
        assert exactalg._exact_quo(parse_laurent("q^-1 + 2 + q"),
                                   g) == parse_laurent("q^-1 + 1")


class TestLaurentDivision:
    @given(laurents(), factor_products, laurents().filter(bool),
           factor_products)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_gcd_path(self, a, fa, b, fb):
        """An inexact quotient takes its common factor from the divisor
        and the remainder; the result is the one a full gcd of both
        operands gives."""
        num, den = a * fa, b * fb
        with mock.patch.object(exactalg, "_poly_gcd",
                               wraps=exactalg._poly_gcd) as gcd:
            got = num / den
        assert gcd.call_count <= 1
        assert_same(got, exactalg._make_ratfun(num, den) if num else ZERO)

    def test_shared_factor_is_cancelled(self):
        f = parse_laurent("1 + q + q^2")
        got = (f * parse_laurent("2 + q")) / (f * parse_laurent("1 - q"))
        assert_same(got, RatFun(parse_laurent("2 + q"),
                                parse_laurent("1 - q")))
        assert str(got) == "(-2 - q)/(-1 + q)"


def scalars(draw):
    """A Laurent polynomial, or now and then a reduced ratio of them."""
    x = draw(laurents(max_terms=2, max_exp=2))
    if draw(st.integers(0, 3)) == 0:
        x = x / draw(st.sampled_from(FACTORS))
    return x


@st.composite
def square_matrices(draw, max_size=4):
    n = draw(st.integers(1, max_size))
    return [[scalars(draw) for _ in range(n)] for _ in range(n)]


def leibniz_det(m):
    total = ZERO
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = ONE if inversions % 2 == 0 else -ONE
        for i, j in enumerate(perm):
            term = term * m[i][j]
        total = total + term
    return total


def poly_times_linear(coeffs, root):
    """Coefficients (highest first) of the polynomial times (x - root)."""
    return [a - root * b for a, b in zip(coeffs + [ZERO], [ZERO] + coeffs)]


class TestCharacteristicPolynomial:
    @given(square_matrices())
    @settings(max_examples=60, deadline=None)
    def test_cayley_hamilton(self, m):
        chi = charpoly(m)
        assert len(chi) == len(m) + 1 and chi[0] == ONE
        acc = [[ZERO] * len(m) for _ in m]
        for c in chi:
            acc = mat_mul(acc, m)
            for i in range(len(m)):
                acc[i][i] = acc[i][i] + c
        assert all(not x for row in acc for x in row)

    @given(square_matrices(), st.integers(-2, 2))
    @settings(max_examples=60, deadline=None)
    def test_values_are_leibniz_determinants(self, m, k):
        s = Laurent.q_power(k)
        value = ZERO
        for c in charpoly(m):
            value = value * s + c
        shifted = [[(s if i == j else ZERO) - x for j, x in enumerate(row)]
                   for i, row in enumerate(m)]
        assert value == leibniz_det(shifted)

    def test_frozen_two_by_two(self):
        assert charpoly([[ZERO, q], [ONE, ZERO]]) == [ONE, ZERO, -q]
        assert charpoly([]) == [ONE]
        assert charpoly(identity_matrix(3)) == [ONE, -3 * ONE, 3 * ONE,
                                                -ONE]


class TestQPowerRoots:
    @given(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_products_of_linear_factors(self, exps):
        coeffs = [ONE]
        for e in exps:
            coeffs = poly_times_linear(coeffs, Laurent.q_power(e))
        assert q_power_roots(coeffs) == (dict(Counter(exps)), [ONE])

    @given(st.lists(st.integers(-3, 3), max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_leftover_factor_is_returned(self, exps):
        rest = [ONE, ZERO, -q]                  # x^2 - q
        coeffs = rest
        for e in exps:
            coeffs = poly_times_linear(coeffs, Laurent.q_power(e))
        assert q_power_roots(coeffs) == (dict(Counter(exps)), rest)

    def test_frozen_cases(self):
        assert q_power_roots([ONE, ZERO, -q]) == ({}, [ONE, ZERO, -q])
        # x (x - q): the root 0 is not a q-power
        assert q_power_roots([ONE, -q, ZERO]) == ({1: 1}, [ONE, ZERO])
        # (x - q^-1)^2 (x - q^3), with a fraction-field coefficient
        # scaling the whole polynomial
        r = ONE / parse_laurent("1 + q")
        coeffs = [ONE]
        for e in (-1, -1, 3):
            coeffs = poly_times_linear(coeffs, Laurent.q_power(e))
        assert q_power_roots([r * c for c in coeffs]) == (
            {-1: 2, 3: 1}, [r])


class TestQCombinatorics:
    def test_q_int(self):
        assert q_int(1) == ONE
        assert q_int(2) == parse_laurent("q^-1 + q")
        assert q_int(3) == parse_laurent("q^-2 + 1 + q^2")
        assert q_int(-2) == -q_int(2)

    def test_doubled_variable(self):
        assert q_int(2, 2) == parse_laurent("q^-2 + q^2")

    def test_factorial(self):
        assert q_factorial(3) == q_int(1) * q_int(2) * q_int(3)

    def test_binomial_values(self):
        assert q_binomial(4, 2) == parse_laurent(
            "q^-4 + q^-2 + 2 + q^2 + q^4")
        assert q_binomial(5, 0) == ONE

    def test_binomial_pascal(self):
        # balanced Pascal rule: [n k] = q^k [n-1 k] + q^(k-n) [n-1 k-1]
        for n in range(2, 7):
            for k in range(1, n):
                lhs = q_binomial(n, k)
                rhs = (Laurent.q_power(k) * q_binomial(n - 1, k)
                       + Laurent.q_power(k - n) * q_binomial(n - 1, k - 1))
                assert lhs == rhs


def rows_strategy():
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    scalar = entries.map(Laurent.const)
    return st.lists(st.lists(scalar, min_size=3, max_size=3),
                    min_size=1, max_size=4)


class TestLinearAlgebra:
    def test_rref_pivots(self):
        rows = [[ONE, q, ZERO], [ONE, q, ONE]]
        ech, piv = rref(rows)
        assert piv == [0, 2]
        assert ech[0] == [ONE, q, ZERO]
        assert ech[1] == [ZERO, ZERO, ONE]

    def test_kernel_dimension(self):
        rows = [[ONE, ONE, ONE]]
        basis, piv = kernel(rows, 3)
        assert len(basis) == 2
        assert (basis, piv) == rref(basis)
        for vec in basis:
            assert sum(vec, ZERO) == ZERO

    def test_kernel_of_nothing(self):
        basis, piv = kernel([], 3)
        assert len(basis) == 3
        assert piv == [0, 1, 2]

    def test_solve_consistent(self):
        rows = [[ONE, ZERO], [ONE, ONE]]
        x = solve(rows, [q, ZERO])
        assert x is not None
        assert mat_mul(rows, [[c] for c in x]) == [[q], [ZERO]]

    def test_solve_inconsistent(self):
        rows = [[ONE, ONE], [ONE, ONE]]
        assert solve(rows, [ONE, q]) is None

    def test_reduce_against(self):
        ech, piv = rref([[ONE, ZERO, q]])
        res = reduce_against(ech, piv, [q, ONE, q * q])
        assert res[0] == ZERO
        assert res[1] == ONE

    @given(rows_strategy())
    @settings(max_examples=40, deadline=None)
    def test_kernel_annihilates(self, rows):
        for vec in kernel(rows, 3)[0]:
            image = mat_mul(rows, [[c] for c in vec])
            assert all(cell[0] == ZERO for cell in image)

    @given(rows_strategy())
    @settings(max_examples=40, deadline=None)
    def test_rank_nullity(self, rows):
        _, piv = rref(rows)
        assert len(piv) + len(kernel(rows, 3)[0]) == 3


class TestSubspace:
    def test_containment(self):
        v = Subspace.from_vectors(3, [[ONE, q, ZERO]])
        assert v.contains([q, q * q, ZERO])
        assert not v.contains([ONE, ZERO, ZERO])

    def test_sum_and_intersection(self):
        a = Subspace.from_vectors(3, [[ONE, ZERO, ZERO]])
        b = Subspace.from_vectors(3, [[ZERO, ONE, ZERO]])
        assert a.sum(b).dim == 2
        assert a.intersect(b).dim == 0
        assert a.sum(b).intersect(a) == a

    def test_orthogonal_complement(self):
        v = Subspace.from_vectors(3, [[ONE, ONE, ONE]])
        w = v.orthogonal_complement()
        assert w.dim == 2
        assert v.sum(w) == Subspace.full(3)

    def test_subspace_order(self):
        small = Subspace.from_vectors(2, [[ONE, q]])
        assert small.is_subspace_of(Subspace.full(2))
        assert Subspace.zero(2).is_subspace_of(small)
        assert not Subspace.full(2).is_subspace_of(small)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_intersect_matches_complement_formula(self, data):
        n = data.draw(st.integers(min_value=1, max_value=4))
        vec = st.lists(laurents(max_terms=2, max_exp=2), min_size=n,
                       max_size=n)
        common = data.draw(st.lists(vec, max_size=2))
        a = Subspace.from_vectors(
            n, common + data.draw(st.lists(vec, max_size=2)))
        b = Subspace.from_vectors(
            n, common + data.draw(st.lists(vec, max_size=2)))
        meet = a.intersect(b)
        assert meet == oracle_intersect(a, b)
        assert meet == b.intersect(a)
        assert meet.is_subspace_of(a) and meet.is_subspace_of(b)


def oracle_intersect(a, b):
    """U meet W as the complement of the sum of the complements."""
    comp = a.orthogonal_complement().sum(b.orthogonal_complement())
    return comp.orthogonal_complement()
