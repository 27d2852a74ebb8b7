"""Scalar tower and exact linear algebra."""

import copy
import itertools
import pickle
from collections import Counter
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from qbruhat import exactalg
from qbruhat.exactalg import (Laurent, ONE, RatFun, Subspace, ZERO,
                              charpoly, format_scalar, identity_matrix,
                              kernel, mat_mul, parse_laurent, q_binomial,
                              q_factorial, q_int, q_power_roots,
                              reduce_against, rref, solve)

from oracles import (fraction_poly_add, fraction_poly_gcd, fraction_poly_mul,
                     gauss_jordan_rref, laurent_add, laurent_mul, min_exp,
                     monic_text, ratfun_mul, zassenhaus_intersect)

q = Laurent.q_power(1)
qi = Laurent.q_power(-1)


@st.composite
def laurents(draw, max_terms=4, max_exp=5):
    """A Laurent polynomial over Q: a ``Laurent`` when its coefficients
    are integers, else a ``RatFun`` over their common denominator."""
    n = draw(st.integers(min_value=0, max_value=max_terms))
    out = ZERO
    for _ in range(n):
        e = draw(st.integers(min_value=-max_exp, max_value=max_exp))
        c = draw(st.fractions(min_value=-9, max_value=9, max_denominator=7))
        out = out + Laurent({e: Fraction(c)})
    return out


def numerator(x):
    """The Laurent polynomial over Z of a scalar in the Laurent ring or,
    for a ``RatFun``, its numerator."""
    return x if isinstance(x, Laurent) else x.num


# Laurent polynomials over Z, for the helpers that work in Z[q, q^-1]:
# the numerators of drawn Laurent polynomials over Q
int_laurents = laurents().map(numerator)


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
        """An exact quotient is a ``Laurent`` exactly when its value is
        in Z[q, q^-1]; over Q it is the canonical ``RatFun``."""
        r = RatFun(a * b, b)
        assert r == a
        assert type(r) is type(a)

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


@pytest.mark.parametrize("build, text", [
    (lambda: ONE / (2 * q + 1), "(1/2)/(1/2 + q)"),
    (lambda: (q + 1) / 2, "1/2 + 1/2*q"),
    (lambda: exactalg.coerce_scalar(Fraction(3, 2)) * q, "3/2*q"),
    (lambda: q / (1 - 3 * q ** 2), "(-1/3*q)/(-1/3 + q^2)"),
    (lambda: (2 * q + 2) / (4 * q ** 2 - 4), "(1/2)/(-1 + q)"),
    (lambda: parse_laurent("3/2 - 5*q"), "3/2 - 5*q"),
])
def test_fractional_text_is_pinned(build, text):
    """Scalars with fractional coefficients print over a monic
    denominator, whatever form they are stored in."""
    x = build()
    assert str(x) == format_scalar(x) == text


@given(st.integers(-40, 40), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_constants_compare_and_hash_like_numbers(a, b):
    """A constant scalar equals the int or Fraction it stands for, from
    either side, and hashes like it, however it was built; no scalar
    equals a different number."""
    f = Fraction(a, b)
    for x in (exactalg.coerce_scalar(f), Laurent.const(f),
              Laurent.const(a) / b, parse_laurent(str(f))):
        assert type(x) is (Laurent if f.denominator == 1 else RatFun)
        assert x == f and f == x
        assert not x != f and not f != x
        assert hash(x) == hash(f)
        assert {f: "f"}[x] == "f" and {x: "x"}[f] == "x"
        assert x != f + 1 and f + 1 != x
        assert not a or (x != f * q and f * q != x)
    n = Laurent.const(a)
    assert n == a and a == n and hash(n) == hash(a)
    assert q != f and f != q


FRACTION_FACTORS = [{0: 1, 1: 1}, {0: Fraction(1, 2), 3: 1}, {0: 2, 1: -3},
                    {0: 1, 2: 1}, {1: Fraction(2, 3)}]
fraction_polys = st.dictionaries(
    st.integers(-3, 3), st.fractions(-5, 5, max_denominator=4), max_size=3)


@st.composite
def fraction_quotients(draw):
    """A numerator and a nonzero denominator over Q as Fraction exponent
    dicts, sharing a factor half of the time."""
    num = draw(fraction_polys)
    den = draw(fraction_polys.filter(lambda p: any(p.values())))
    if draw(st.booleans()):
        f = draw(st.sampled_from(FRACTION_FACTORS))
        num, den = fraction_poly_mul(num, f), fraction_poly_mul(den, f)
    return num, den


def fraction_poly_pow(p, n):
    out = {0: 1}
    for _ in range(n):
        out = fraction_poly_mul(out, p)
    return out


@given(fraction_quotients(), fraction_quotients(), st.integers(-2, 3))
@settings(max_examples=100, deadline=None)
def test_every_operator_prints_the_monic_text(x, y, n):
    """Operands enter as Fraction exponent dicts through ``Laurent``;
    each operator's result prints as Euclid's algorithm over Q reduces
    the same quotient of dicts, over a monic denominator."""
    (nx, dx), (ny, dy) = x, y
    a, b = Laurent(nx) / Laurent(dx), Laurent(ny) / Laurent(dy)
    add, mul = fraction_poly_add, fraction_poly_mul

    def neg(p):
        return {e: -c for e, c in p.items()}

    cases = [(a, nx, dx), (-a, neg(nx), dx),
             (a + b, add(mul(nx, dy), mul(ny, dx)), mul(dx, dy)),
             (a - b, add(mul(nx, dy), neg(mul(ny, dx))), mul(dx, dy)),
             (a * b, mul(nx, ny), mul(dx, dy))]
    if b:
        cases.append((a / b, mul(nx, dy), mul(dx, ny)))
    if n >= 0:
        cases.append((a ** n, fraction_poly_pow(nx, n),
                      fraction_poly_pow(dx, n)))
    elif a:
        cases.append((a ** n, fraction_poly_pow(dx, -n),
                      fraction_poly_pow(nx, -n)))
    for value, num, den in cases:
        assert_canonical(value)
        assert str(value) == format_scalar(value) == monic_text(num, den)


def ordinary_poly(p):
    """q^-min_exp(p) * p as an exponent dict with nonzero constant term."""
    low = min_exp(p)
    return {e - low: c for e, c in p.coeffs.items()}


def stored_coeffs(x):
    if isinstance(x, RatFun):
        return list(x.num.coeffs.values()) + list(x.den.coeffs.values())
    return list(x.coeffs.values())


def assert_canonical(x):
    """x is in the one canonical form: nonzero int coefficients, and for
    a RatFun a denominator other than 1 with lowest exponent 0 and a
    positive leading coefficient, sharing no factor with the numerator,
    integer content included."""
    assert type(x) in (Laurent, RatFun), x
    assert all(type(c) is int and c for c in stored_coeffs(x)), x
    if isinstance(x, RatFun):
        d = x.den.coeffs
        assert min(d) == 0 and d[max(d)] > 0 and d != {0: 1}, x
        assert gcd(*stored_coeffs(x)) == 1, x
        assert fraction_poly_gcd(ordinary_poly(x.num), d) == {0: 1}, x


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
        """Every result of a chain of operations, on Laurent polynomials
        over Q, is in the canonical form over Z."""
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
            assert_canonical(v)

    @given(int_laurents, int_laurents.filter(bool),
           int_laurents.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_make_ratfun_matches_fraction_gcd(self, a, b, c):
        """Cancelling the gcd over Z, content included, gives the value
        and the text that Euclid's algorithm over Q gives."""
        num, den = a * c, b * c
        got = exactalg._make_ratfun(num, den)
        assert_canonical(got)
        assert got * den == num
        assert str(got) == monic_text(num.coeffs, den.coeffs)

    @given(int_laurents.filter(bool), int_laurents.filter(bool),
           int_laurents.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_poly_gcd_is_monic_gcd_up_to_scale(self, a, b, c):
        pa, pb = ordinary_poly(a * c), ordinary_poly(b * c)
        g = exactalg._poly_gcd(pa, pb)
        assert all(type(x) is int for x in g.values())
        lead = g[max(g)]
        assert lead > 0
        assert ({e: Fraction(x, lead) for e, x in g.items()}
                == fraction_poly_gcd(pa, pb))


def oracle_parts(y):
    """(numerator, denominator) of any scalar, a Laurent over ONE."""
    y = exactalg.coerce_scalar(y)
    return (y, ONE) if isinstance(y, Laurent) else (y.num, y.den)


def oracle_make_ratfun(num, den):
    """num/den by one full gcd over Z, content included, of the whole
    numerator and denominator, then the unit +-q^s moved out of the
    denominator: the reference for the reduced-operand RatFun
    operators.  num and den may be any scalars."""
    (n1, d1), (n2, d2) = oracle_parts(num), oracle_parts(den)
    num, den = n1 * d2, d1 * n2
    if not den:
        raise ZeroDivisionError("division by zero scalar")
    if not num:
        return ZERO
    pn, pd = ordinary_poly(num), ordinary_poly(den)
    content = gcd(*pn.values(), *pd.values())
    g = Laurent({e: content * c
                 for e, c in exactalg._poly_gcd(pn, pd).items()})
    pn_l, r1 = exactalg._laurent_divmod(Laurent(pn), g)
    pd_l, r2 = exactalg._laurent_divmod(Laurent(pd), g)
    assert not r1 and not r2
    sign = 1 if pd_l.coeffs[pd_l.max_exp()] > 0 else -1
    shift = min_exp(num) - min_exp(den)
    n = Laurent({e + shift: sign * c for e, c in pn_l.coeffs.items()})
    d = {e: sign * c for e, c in pd_l.coeffs.items()}
    if d == {0: 1}:
        return n
    rf = object.__new__(RatFun)
    rf.num, rf.den, rf._hash = n, Laurent(d), None
    return rf


def oracle_add(x, y):
    """x + y by one full gcd."""
    (nx, dx), (ny, dy) = oracle_parts(x), oracle_parts(y)
    return oracle_make_ratfun(nx * dy + ny * dx, dx * dy)


def oracle_neg(x):
    nx, dx = oracle_parts(x)
    return oracle_make_ratfun(-nx, dx)


def oracle_mul(x, y):
    (nx, dx), (ny, dy) = oracle_parts(x), oracle_parts(y)
    return oracle_make_ratfun(nx * ny, dx * dy)


def oracle_truediv(x, y):
    (nx, dx), (ny, dy) = oracle_parts(x), oracle_parts(y)
    return oracle_make_ratfun(nx * dy, dx * ny)


def oracle_inverse(x):
    return oracle_truediv(ONE, x)


def oracle_pow(x, n):
    if n < 0:
        x, n = oracle_inverse(x), -n
    out = ONE
    for _ in range(n):
        out = oracle_mul(x, out)
    return out


def assert_same(new, old):
    assert type(new) is type(old)
    assert str(new) == str(old)
    assert new == old
    assert hash(new) == hash(old)
    assert_canonical(new)


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
        """Each operator case of ``RatFun``, on a denominator of content
        one and on one of content 6, which a monomial, an integer or a
        rational constant can share."""
        d = parse_laurent("1 + q^2")
        cases = [
            ("unit", -q ** -3),
            ("monomial", Laurent({-3: 4})),
            ("rational monomial", Laurent({-3: Fraction(2, 3)})),
            ("rational constant", Laurent.const(Fraction(9, 4))),
            ("laurent", parse_laurent("q^-1 + q")),
            ("same-den", RatFun(parse_laurent("q^3 + 2*q^2 - 2 + q"),
                                d * FACTORS[0])),
            ("other-den", RatFun(ONE, d * FACTORS[2])),
            ("coprime-den", RatFun(q, FACTORS[4])),
            ("cross-gcd", RatFun(FACTORS[0] * FACTORS[4], FACTORS[1])),
            ("content", RatFun(3 * FACTORS[0], 2 * FACTORS[1])),
        ]
        for x in (RatFun(parse_laurent("2 + q"), d * FACTORS[0]),
                  RatFun(parse_laurent("5 + q"), 6 * d * FACTORS[0])):
            assert_canonical(x)
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
        """A non-integral coefficient enters as a RatFun over Z, and the
        results, in the Laurent ring or out of it, store ints only."""
        half = Laurent({0: Fraction(1, 2)})
        assert type(half) is RatFun
        assert (half.num, half.den) == (ONE, Laurent.const(2))
        s = half + half
        assert s == ONE and type(s) is Laurent and type(s.coeffs[0]) is int
        t = Laurent({1: Fraction(1, 3)}) * 3
        assert t == q and type(t) is Laurent and type(t.coeffs[1]) is int
        u = Laurent({1: Fraction(1, 3)}) * Laurent({0: Fraction(3, 2)})
        assert type(u) is RatFun and (u.num, u.den) == (q, Laurent.const(2))
        assert str(u) == "1/2*q"
        assert_canonical(u)

    def test_gcd_runs_only_where_a_factor_can_remain(self):
        """The coefficient 97 keeps these operands out of every other
        test, so the product's cancellations meet a cold table: the two
        cross pairs run one gcd each, and the same product again, with
        operands built anew, runs none."""
        def operands():
            return (RatFun(parse_laurent("97 + q"),
                           parse_laurent("1 + q + q^3")),
                    RatFun(parse_laurent("97 - q^2"),
                           parse_laurent("1 + 97*q + q^2")))

        x, y = operands()
        x2, y2 = operands()
        free = [lambda: -x, lambda: x + parse_laurent("q^-2 - 5*q"),
                lambda: parse_laurent("3 + q^4") - x, lambda: x * q ** -3,
                lambda: ONE / x, lambda: x ** 3, lambda: x ** -2]
        with mock.patch.object(exactalg, "_poly_gcd",
                               wraps=exactalg._poly_gcd) as gcd:
            for op in free:
                op()
            assert gcd.call_count == 0
            first = x * y
            assert gcd.call_count == 2
            again = x2 * y2
            assert gcd.call_count == 2
        assert_same(again, first)


monomials = st.builds(
    lambda e, c: Laurent({e: c}), st.integers(-3, 3),
    st.sampled_from([1, -1, 2, -7]) | nonzero_coeffs)
laurent_operands = st.one_of(st.just(ZERO), st.just(ONE), monomials,
                             laurents())
plain_numbers = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)


@st.composite
def sharing_products(draw):
    """A RatFun x and a Laurent or RatFun y whose product has a factor
    to cancel: f divides the denominator of x and the numerator of y,
    and g the numerator of x and, for a RatFun y, the denominator of y."""
    f, g = draw(st.sampled_from(FACTORS)), draw(st.sampled_from(FACTORS))
    x = RatFun(g * draw(laurents().filter(bool)), f * draw(factor_products))
    assume(isinstance(x, RatFun))
    y = f * draw(laurents().filter(bool))
    if draw(st.booleans()):
        y = RatFun(y, g * draw(factor_products))
    return x, y


class TestCopies:
    @pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
    def test_ratfun_round_trips(self, how):
        x = RatFun(ONE, ONE + q)
        y = {"copy": copy.copy, "deepcopy": copy.deepcopy,
             "pickle": lambda v: pickle.loads(pickle.dumps(v))}[how](x)
        assert type(y) is RatFun
        assert y == x and hash(y) == hash(x)
        assert (y.num, y.den) == (x.num, x.den)


class TestRingFastPaths:
    """The monomial, ZERO and ONE shortcuts and the remembered
    cancellations give what the general loops and a fresh gcd give.
    Every example is evaluated twice, so that the second pass is
    answered from the cancellation table."""

    @given(laurent_operands, laurent_operands | plain_numbers)
    @settings(max_examples=300, deadline=None)
    def test_laurent_sum_and_product(self, x, y):
        """Operands over Q outside the Laurent ring, rational constants
        and monomials among them, are RatFuns and meet the full-gcd
        oracle instead of the general loops."""
        in_ring = (type(x) is Laurent
                   and type(exactalg.coerce_scalar(y)) is Laurent)
        add, mul = ((laurent_add, laurent_mul) if in_ring
                    else (oracle_add, oracle_mul))
        for _ in range(2):
            assert_same(x + y, add(x, y))
            assert_same(y + x, add(x, y))
            assert_same(x * y, mul(x, y))
            assert_same(y * x, mul(x, y))
            assert_same(x - y, add(x, -y))
            assert_same(y - x, add(-x, y))

    @given(st.one_of(ratfun_pairs(), sharing_products()))
    @settings(max_examples=200, deadline=None)
    def test_ratfun_product(self, pair):
        x, y = pair
        for _ in range(2):
            assert_same(x * y, ratfun_mul(x, y))
            assert_same(y * x, ratfun_mul(x, y))
            if isinstance(y, Laurent):
                assert_same(y * x, laurent_mul(y, x))


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
    @given(int_laurents, primitive_polys())
    @settings(max_examples=150, deadline=None)
    def test_quotient_of_a_multiple(self, a, g):
        quo = exactalg._exact_quo(a * g, g)
        assert type(quo) is Laurent
        assert quo == a
        assert_canonical(quo)

    @given(int_laurents, int_laurents)
    @settings(max_examples=150, deadline=None)
    def test_divmod_identity(self, a, b):
        """a = quo*b + rem over Z.  A nonzero remainder lies at or above
        min(a), and either below min(a) + span(b), where the division
        ends, or leading with a coefficient that b's leading coefficient
        does not divide, where it stops.  A multiple of b, content and
        all, leaves none."""
        assume(b)
        quo, rem = exactalg._laurent_divmod(a, b)
        assert quo * b + rem == a
        if rem:
            top, lead = rem.max_exp(), b.coeffs[b.max_exp()]
            assert min_exp(a) <= min_exp(rem)
            assert (top < min_exp(a) + b.max_exp() - min_exp(b)
                    or rem.coeffs[top] % lead)
        for part in (quo, rem):
            assert_canonical(part)
        assert exactalg._laurent_divmod(a * b, b) == (a, ZERO)

    def test_non_divisor_raises(self):
        g = parse_laurent("1 + q")
        with pytest.raises(AssertionError):
            exactalg._exact_quo(parse_laurent("1 + q^2"), g)
        with pytest.raises(AssertionError):
            exactalg._exact_quo(parse_laurent("q^-1 + 2*q + q^2"), g)
        assert exactalg._exact_quo(parse_laurent("q^-1 + 2 + q"),
                                   g) == parse_laurent("q^-1 + 1")


class TestLaurentDivision:
    @given(int_laurents, factor_products, int_laurents.filter(bool),
           factor_products)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_gcd_path(self, a, fa, b, fb):
        """An inexact quotient of Laurent polynomials over Z takes its
        common factor from the divisor and the remainder; the result is
        the one a full gcd of both operands gives."""
        num, den = numerator(a * fa), numerator(b * fb)
        with mock.patch.object(exactalg, "_poly_gcd",
                               wraps=exactalg._poly_gcd) as poly_gcd:
            got = num / den
        assert poly_gcd.call_count <= 1
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

    def test_binomial_outside_the_ring_raises(self):
        """The check raises under ``python -O`` too, naming (n, k, d)."""
        fake = {3: ONE, 1: ONE + q, 2: ONE + q}
        with mock.patch.object(exactalg, "q_factorial",
                               lambda n, d=1: fake[n]):
            with pytest.raises(AssertionError,
                               match=r"^q-binomial \(n, k, d\) = \(3, 1, 2\)"):
                q_binomial(3, 1, 2)

    def test_binomial_pascal(self):
        # balanced Pascal rule: [n k] = q^k [n-1 k] + q^(k-n) [n-1 k-1]
        for n in range(2, 7):
            for k in range(1, n):
                lhs = q_binomial(n, k)
                rhs = (Laurent.q_power(k) * q_binomial(n - 1, k)
                       + Laurent.q_power(k - n) * q_binomial(n - 1, k - 1))
                assert lhs == rhs


def rows_strategy(scalar=None):
    """Up to four rows of three entries; rational constants unless
    another scalar strategy is given."""
    if scalar is None:
        scalar = st.fractions(min_value=-4, max_value=4,
                              max_denominator=3).map(Laurent.const)
    return st.lists(st.lists(scalar, min_size=3, max_size=3),
                    min_size=1, max_size=4)


# rows over Laurent polynomials and now and then a RatFun
tower_rows = rows_strategy(st.composite(scalars)())


class TestLinearAlgebra:
    def test_rref_pivots(self):
        rows = [[ONE, q, ZERO], [ONE, q, ONE]]
        ech, piv = rref(rows)
        assert piv == [0, 2]
        assert ech[0] == [ONE, q, ZERO]
        assert ech[1] == [ZERO, ZERO, ONE]

    def test_lone_pivots_build_no_ratfun(self):
        """A pivot that is its row's only entry becomes one without being
        inverted, and clearing it from other rows costs no product: the
        reduction builds no RatFun and runs no gcd."""
        p = ONE + q
        rows = [[ZERO, p, ZERO, ZERO], [RatFun(ONE, p), ZERO, ZERO, ZERO],
                [ZERO, ZERO, ZERO, ZERO], [ZERO, q * q - 3, ZERO, ZERO],
                [ZERO, ZERO, ZERO, RatFun(q, p * p + 1)]]

        def forbidden(*args):
            raise AssertionError("rref built a quotient")

        with mock.patch.multiple(exactalg, _inverse=forbidden,
                                 _make_ratfun=forbidden, _ratfun=forbidden,
                                 _common_factor=forbidden):
            ech, piv = rref(rows)
        assert piv == [0, 1, 3]
        assert ech == [[ONE if j == k else ZERO for j in range(4)]
                       for k in piv]

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

    @given(rows_strategy() | tower_rows, st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_rref_matches_gauss_jordan_in_any_row_order(self, rows, rnd):
        """The fold of insertions gives Gauss-Jordan's canonical rows and
        pivots, whatever order the rows come in."""
        got = rref(rows)
        assert got == gauss_jordan_rref(rows)
        shuffled = list(rows)
        rnd.shuffle(shuffled)
        assert rref(shuffled) == got
        assert [[str(c) for c in r] for r in got[0]] == \
            [[str(c) for c in r] for r in gauss_jordan_rref(shuffled)[0]]


_echelon_entries = st.sampled_from([ZERO, ZERO, ZERO, ONE, -ONE, q, 2 * qi,
                                    ONE + q, Laurent.const(Fraction(1, 2))])


class TestReduceAgainst:
    @given(st.lists(st.lists(_echelon_entries, min_size=4, max_size=4),
                    min_size=1, max_size=4),
           st.lists(_echelon_entries, min_size=4, max_size=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_pivoting_anywhere_match_solve(self, gens, target, data):
        """Rows [x | t] kept as the tensor closures keep them, each
        pivoting on any nonzero coordinate of its residue, give the same
        membership and coefficients as ``solve`` on the kept vectors,
        whether a row is one at its pivot or scaled by a nonzero Laurent
        factor."""
        n, m = 4, len(gens)
        rows, pivots, kept = [], [], []
        for g in gens:
            v = reduce_against(rows, pivots, list(g) + [ZERO] * m)
            support = [t for t in range(n) if v[t]]
            if not support:
                continue
            p = data.draw(st.sampled_from(support))
            v[n + len(kept)] = ONE
            scale = data.draw(laurents(max_terms=2, max_exp=2).filter(bool)
                              | st.just(ONE))
            inv = scale / v[p]
            rows.append([c * inv for c in v])
            pivots.append(p)
            kept.append(g)
        assert len(kept) == len(rref(gens)[1])
        if data.draw(st.booleans()):
            # a member of the span half of the time
            coeffs = data.draw(st.lists(_echelon_entries, min_size=len(kept),
                                        max_size=len(kept)))
            target = [sum((c * g[t] for c, g in zip(coeffs, kept)), ZERO)
                      for t in range(n)]
        res = reduce_against(rows, pivots, target + [ZERO] * m)
        assert not any(res[p] for p in pivots)
        cols = [[g[t] for g in kept] for t in range(n)]
        x = solve(cols, target)
        assert (x is not None) == (not any(res[:n]))
        if x is not None:
            assert [-c for c in res[n:n + len(kept)]] == x


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

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_intersect_matches_zassenhaus(self, data):
        """Zero, full and proper operands, on either side, meet as the
        Zassenhaus reduction says."""
        n = data.draw(st.integers(min_value=1, max_value=4))
        vec = st.lists(laurents(max_terms=2, max_exp=2), min_size=n,
                       max_size=n)
        proper = Subspace.from_vectors(n, data.draw(st.lists(vec,
                                                             max_size=3)))
        for a in (Subspace.zero(n), Subspace.full(n), proper):
            for b in (Subspace.zero(n), Subspace.full(n), proper):
                assert a.intersect(b) == zassenhaus_intersect(a, b)

    @given(rows_strategy() | tower_rows, rows_strategy() | tower_rows)
    @settings(max_examples=40, deadline=None)
    def test_sum_inserting_second_operand_matches_from_vectors(self, ra,
                                                               rb):
        a = Subspace.from_vectors(3, ra)
        b = Subspace.from_vectors(3, rb)
        assert a.sum(b) == Subspace.from_vectors(3, a.rows + b.rows)
        assert a.sum(b) == b.sum(a)

    def test_trivial_operands_skip_the_reduction(self, monkeypatch):
        line = Subspace.from_vectors(3, [[ONE, q, ZERO]])
        zero, full = Subspace.zero(3), Subspace.full(3)
        # what a reduction gives for the complements of trivial operands
        reduced = {"zero": Subspace(3, *kernel(zero.rows, 3)),
                   "full": Subspace(3, *kernel(full.rows, 3))}
        # and for their sums with the line
        summed = {"zero": Subspace.from_vectors(3, line.rows),
                  "full": Subspace.from_vectors(3, line.rows + full.rows)}

        def no_reduction(*args, **kwargs):
            raise AssertionError("trivial operand ran a reduction")

        for name in ("rref", "echelon_insert", "kernel"):
            monkeypatch.setattr(exactalg, name, no_reduction)
        for other in (zero, full):
            assert line.intersect(other) == other.intersect(line)
        assert line.intersect(full) is line
        assert full.intersect(line) is line
        assert line.intersect(zero).dim == 0
        assert zero.orthogonal_complement() == reduced["zero"] == full
        assert full.orthogonal_complement() == reduced["full"] == zero
        for a, b in ((line, zero), (zero, line)):
            assert a.sum(b) is line and line == summed["zero"]
        for a, b in ((line, full), (full, line)):
            assert a.sum(b) is full and full == summed["full"]
        assert zero.sum(zero) == zero and full.sum(full) == full


def oracle_intersect(a, b):
    """U meet W as the complement of the sum of the complements."""
    comp = a.orthogonal_complement().sum(b.orthogonal_complement())
    return comp.orthogonal_complement()
