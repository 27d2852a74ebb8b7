"""Exact scalars and exact linear algebra.

Every scalar in this package lies in Z[q, q^-1], the Laurent
polynomials in a formal variable q with integer coefficients, or in its
fraction field, and every stored coefficient is an ``int``.  A value of
the ring is a ``Laurent``; any other value is a ``RatFun`` n/d with n in
Z[q, q^-1] and d in Z[q], where d has a nonzero constant term and a
positive leading coefficient, d is not 1, and n and d are coprime in
Z[q, q^-1], integer content included: 1/2 is the ``RatFun`` 1 over 2.
The units of Z[q, q^-1] are the monomials +-q^k, and the conditions on
d fix that unit, so the form is unique: two equal scalars always
compare equal, hash alike and print identically.  A rational constant
also compares equal to, and hashes like, the ``int`` or ``Fraction`` it
equals.  Rational coefficients enter only through ``Laurent(coeffs)``
and leave only at print time, where a ratio is written over its monic
denominator.  No floating point is used anywhere.  Arithmetic stays
inside the Laurent ring whenever it can; division promotes to the
fraction field only when the quotient is not itself a Laurent
polynomial, and results whose reduced denominator is a unit are demoted
back to Laurent form.

The canonical form is kept cheaply.  Laurent sums, differences,
negations and products build their results through a trusted
constructor; a sum with zero, a product with one and a product with a
monomial skip the general loops.  Fraction-field operators use that
their operands are already reduced and run a gcd only on the factors
that can still share a divisor (Henrici, J. ACM 3, 1956): adding a
Laurent polynomial, negating, multiplying by a unit, taking a
reciprocal or a power runs no gcd at all.  A gcd is the gcd of the
integer contents times the primitive gcd of a pseudo-remainder sequence
over Z (Collins, J. ACM 14, 1967; Knuth, TAOCP vol. 2, 4.6.1).  The
cancellations of a product are memoised (``obs.memo``) on their operand
pair, since a matrix reduction meets the same pairs again and again.
``RatFun`` lists every case with the reason its result is reduced.

The matrix layer is deliberately plain: matrices are lists of lists of
scalars, and the one Gauss-Jordan step is ``echelon_insert``, which
grows a canonical reduced row echelon form by one vector.  ``rref`` is
its fold over the rows; a subspace sum or Zassenhaus meet starts from
the first operand's basis, already reduced, and inserts only the
second operand's rows.  Subspaces are stored by their echelon basis, so
equality of subspaces is equality of representations.  Characteristic
polynomials are computed without division, and their integer q-power
roots are found exactly from the Newton polygon of the coefficients'
q-degrees.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm

from .obs import memo


class Laurent:
    """A Laurent polynomial in q with integer coefficients.

    Stored as a dict mapping integer exponents to nonzero ``int``
    coefficients.  Instances are immutable in practice; do not mutate
    ``coeffs``.  ``Laurent(coeffs)`` is the one entry point that also
    takes ``Fraction`` coefficients: when one is not integral, it returns
    the canonical ``RatFun`` over their common denominator, as
    ``RatFun(num, den)`` returns a ``Laurent`` when the quotient is one.
    """

    __slots__ = ("coeffs", "_hash")

    def __new__(cls, coeffs=None):
        clean = {}
        for e, c in (coeffs or {}).items():
            if not isinstance(c, (int, Fraction)):
                raise TypeError("expected an integer or Fraction, got %r"
                                % (c,))
            if c:
                clean[int(e)] = c
        den = lcm(*(c.denominator for c in clean.values()))
        num = Laurent._raw({e: c.numerator * (den // c.denominator)
                            for e, c in clean.items()})
        return num if den == 1 else _make_ratfun(num, Laurent._raw({0: den}))

    @staticmethod
    def const(x):
        return Laurent({0: x})

    @staticmethod
    def q_power(n):
        return Laurent._raw({int(n): 1})

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self):
        return not self.coeffs or set(self.coeffs) == {0}

    def is_monomial(self):
        return len(self.coeffs) == 1

    def max_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _raw(coeffs):
        """Trusted constructor: ``coeffs`` already maps int exponents to
        nonzero int coefficients, and is stored without a copy."""
        p = object.__new__(Laurent)
        p.coeffs = coeffs
        p._hash = None
        return p

    def __add__(self, other):
        if type(other) is not Laurent:
            other = coerce_scalar(other)
            if isinstance(other, RatFun):
                return other + self
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return Laurent._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._raw({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if type(other) is not Laurent or not other.coeffs:
            return self + (-coerce_scalar(other))
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                del out[e]
        return Laurent._raw(out)

    def __rsub__(self, other):
        return coerce_scalar(other) + (-self)

    def __mul__(self, other):
        # a Laurent operand times ONE; an int or Fraction is coerced below
        if other is ONE:
            return self
        if self is ONE and type(other) is Laurent:
            return other
        if type(other) is not Laurent:
            other = coerce_scalar(other)
            if isinstance(other, RatFun):
                return other * self
        small, big = ((self, other) if len(self.coeffs) <= len(other.coeffs)
                      else (other, self))
        a, b = small.coeffs, big.coeffs
        if not a:
            return ZERO
        if len(a) == 1:
            # a monomial shifts and scales the other factor
            (s, c), = a.items()
            if c == 1 and not s:
                return big
            return Laurent._raw({e + s: c * v for e, v in b.items()})
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Laurent._raw(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return ONE / (self ** (-n))
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        other = coerce_scalar(other)
        if isinstance(other, RatFun):
            return self * _inverse(other)
        if not other:
            raise ZeroDivisionError("division by zero scalar")
        if not self:
            return ZERO
        q_, r = _laurent_divmod(self, other)
        if not r:
            return q_
        # gcd(self, other) = gcd(other, r) up to units, as r = self - q_*other
        g = _common_factor(other, r)
        if g is None:
            return _coprime_quotient(self, other)
        return _coprime_quotient(_exact_quo(self, g), _exact_quo(other, g))

    def __rtruediv__(self, other):
        return coerce_scalar(other) / self

    # -- comparison -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Laurent):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == coerce_scalar(other)
        if isinstance(other, RatFun):
            # a canonical RatFun is never in the Laurent ring
            return False
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            if self.is_constant():
                self._hash = hash(self.coeffs.get(0, 0))
            else:
                self._hash = hash(tuple(sorted(self.coeffs.items())))
        return self._hash

    def __str__(self):
        return _format_terms(self.coeffs)

    def __repr__(self):
        return "Laurent(%s)" % self


def _laurent_divmod(a, b):
    """Divide Laurent a by nonzero Laurent b over Z: returns (quotient,
    remainder).

    Long division from the top term down, over the exponents from max(a)
    to min(a) + max(b) - min(b); it stops at the first coefficient that
    the leading coefficient of b does not divide.  Either way the
    remainder is a - quotient*b, and it is zero exactly when b divides a
    in Z[q, q^-1].
    """
    if not a:
        return ZERO, ZERO
    bc = b.coeffs
    top = max(bc)
    lead = bc[top]
    if len(bc) == 1 and not any(c % lead for c in a.coeffs.values()):
        return (Laurent._raw({e - top: c // lead
                              for e, c in a.coeffs.items()}), ZERO)
    rest = [(e - top, c) for e, c in bc.items() if e != top]
    rem = dict(a.coeffs)
    quo = {}
    for k in range(max(rem), min(rem) - min(bc) + top - 1, -1):
        c = rem.get(k)
        if not c:
            continue
        f, r = divmod(c, lead)
        if r:
            break
        del rem[k]
        quo[k - top] = f
        for d, bd in rest:
            e = k + d
            s = rem.get(e, 0) - f * bd
            if s:
                rem[e] = s
            else:
                del rem[e]
    return Laurent._raw(quo), (Laurent._raw(rem) if rem else ZERO)


def _primitive(p):
    """Integer polynomial p divided by its content, leading term positive."""
    g = gcd(*p.values())
    if p[max(p)] < 0:
        g = -g
    if g == 1:
        return p
    return {e: c // g for e, c in p.items()}


def _poly_gcd(a, b):
    """Primitive gcd over Z of two nonzero integer polynomials given as
    exponent dicts.

    A pseudo-remainder sequence runs over the integers, taking the
    primitive part of every remainder (Collins, J. ACM 14, 1967), so no
    coefficient ever becomes a fraction.  The result has content one and
    a positive leading coefficient: it is the gcd of the primitive parts
    of a and b.
    """
    a = dict(_primitive(a))
    b = dict(_primitive(b))
    while b:
        # a pseudo-remainder of a by b, up to a nonzero integer factor
        db = max(b)
        lead = b[db]
        while a and max(a) >= db:
            da = max(a)
            g = gcd(a[da], lead)
            fa, fb = lead // g, a[da] // g
            if fa != 1:
                a = {e: fa * c for e, c in a.items()}
            shift = da - db
            for e, c in b.items():
                ne = shift + e
                s = a.get(ne, 0) - fb * c
                if s:
                    a[ne] = s
                elif ne in a:
                    del a[ne]
        a, b = b, (_primitive(a) if a else a)
    return a


def _shifted(p):
    """The exponent dict of q^-s * p, s = min exponent: an ordinary
    polynomial with nonzero constant term."""
    s = min(p.coeffs)
    if not s:
        return p.coeffs
    return {e - s: c for e, c in p.coeffs.items()}


def _common_factor(a, b):
    """The gcd in Z[q, q^-1] of two nonzero Laurent polynomials, up to
    the units +-q^k, or None when it is a unit.

    It is the gcd of their integer contents times the primitive gcd of
    their shifted parts, so it is an ordinary polynomial with nonzero
    constant term and positive leading coefficient.  A monomial can
    share only its content."""
    g = {0: 1}
    if len(a.coeffs) > 1 and len(b.coeffs) > 1:
        g = _poly_gcd(_shifted(a), _shifted(b))
    content = gcd(*a.coeffs.values(), *b.coeffs.values())
    if content != 1:
        g = {e: content * c for e, c in g.items()}
    return None if g == {0: 1} else Laurent._raw(g)


def _is_unit(p):
    """Whether the Laurent polynomial p is a unit +-q^k of Z[q, q^-1]."""
    return len(p.coeffs) == 1 and abs(next(iter(p.coeffs.values()))) == 1


def _cancel(a, b):
    """(a/g, b/g) for the common factor g of two nonzero Laurent
    polynomials, or None when they share none.  A unit shares none, so
    it is answered before the memo table is consulted."""
    if _is_unit(a) or _is_unit(b):
        return None
    return _cancel_nonunits(a, b)


@memo(lambda a, b: (a, b))
def _cancel_nonunits(a, b):
    g = _common_factor(a, b)
    return None if g is None else (_exact_quo(a, g), _exact_quo(b, g))


def _exact_quo(a, g):
    """a/g for a Laurent polynomial g known to divide a; raises if any
    remainder is left."""
    quo, rem = _laurent_divmod(a, g)
    if rem:
        raise AssertionError("%s does not divide %s" % (g, a))
    return quo


def _ratfun(num, den):
    """Trusted RatFun: num and den are already in canonical form."""
    rf = object.__new__(RatFun)
    rf.num = num
    rf.den = den
    rf._hash = None
    return rf


def _coprime_quotient(num, den):
    """num/den in canonical form for nonzero num and den that are coprime
    in Z[q, q^-1]: only the unit +-q^s moves from den to num, s being
    den's lowest exponent and the sign that of its leading coefficient.
    No gcd and no scaling."""
    d = den.coeffs
    s = min(d)
    sign = 1 if d[max(d)] > 0 else -1
    if s or sign < 0:
        num = Laurent._raw({e - s: sign * c for e, c in num.coeffs.items()})
        d = {e - s: sign * c for e, c in d.items()}
        den = Laurent._raw(d)
    return num if d == {0: 1} else _ratfun(num, den)


def _make_ratfun(num, den):
    """Build num/den in canonical form, demoting to Laurent when possible."""
    if not den:
        raise ZeroDivisionError("division by zero scalar")
    if not num:
        return ZERO
    g = _common_factor(num, den)
    if g is not None:
        num, den = _exact_quo(num, g), _exact_quo(den, g)
    return _coprime_quotient(num, den)


def _inverse(x):
    """1/x for a nonzero scalar x.  Numerator and denominator of a
    canonical RatFun are coprime, and 1 is coprime to everything, so the
    reciprocal only needs its unit moved."""
    if isinstance(x, RatFun):
        return _coprime_quotient(x.den, x.num)
    if not x:
        raise ZeroDivisionError("division by zero scalar")
    return _coprime_quotient(ONE, x)


class RatFun:
    """A reduced ratio n/d of Laurent polynomials outside the Laurent ring.

    Canonical form: d is an ordinary integer polynomial with nonzero
    constant term and positive leading coefficient, and not 1; n and d
    are coprime in Z[q, q^-1], integer content included.  A constant d
    is allowed, so a rational constant or a Laurent polynomial over Q
    with a non-integral coefficient is a RatFun too.  Every operation
    returns this form and demotes to ``Laurent`` whenever the reduced
    denominator is a unit, so equal values always share a
    representation.  The text is printed over the monic denominator
    d / lead(d).

    Since the operands are already reduced, each operator runs a gcd only
    on the factors that can still share a divisor (Henrici, J. ACM 3,
    1956; Knuth, TAOCP vol. 2, 4.5.1).  Z[q, q^-1] is a unique
    factorisation domain, and a common factor below may be an integer as
    well as a polynomial.  For n/d:

    - ``-(n/d) = (-n)/d``, and ``n/d + l = (n + l*d)/d`` for a Laurent l,
      are reduced as they stand: a factor of d dividing n + l*d would
      divide n.
    - ``n/d * (+-q^e) = (+-q^e*n)/d`` is reduced, a unit sharing nothing.
    - ``n/d * l`` for any other Laurent l divides l and d by gcd(l, d),
      which for a monomial c*q^e is gcd(c, content(d)).
    - ``n1/d + n2/d`` divides n1 + n2 and d by gcd(n1 + n2, d).
    - ``n1/d1 * n2/d2`` uses the cross gcds gcd(n1, d2) and gcd(n2, d1).
      The product cancellations, here and for a Laurent l, are memoised
      on their operand pair; the other gcds repeat less often and are
      not kept, which keeps the table small.
    - ``n1/d1 + n2/d2`` with g = gcd(d1, d2) forms t = n1*(d2/g) +
      n2*(d1/g); t is coprime to d1/g and d2/g, so only g2 = gcd(t, g)
      remains, and the sum is (t/g2) / ((d1/g) * (d2/g2)).
    - the reciprocal d/n and the power n^k/d^k only move a unit.
    """

    __slots__ = ("num", "den", "_hash")

    def __new__(cls, num, den):
        """``RatFun(num, den)`` is num / den, for any two scalars, in
        canonical form: a ``Laurent`` when the quotient is one."""
        return coerce_scalar(num) / den

    def __reduce__(self):
        # copies and pickles rebuild the canonical form as it stands
        return _ratfun, (self.num, self.den)

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = coerce_scalar(other)
        n1, d1 = self.num, self.den
        if isinstance(other, Laurent):
            return _ratfun(n1 + other * d1, d1) if other else self
        n2, d2 = other.num, other.den
        if d1 == d2:
            return _make_ratfun(n1 + n2, d1)
        g = _common_factor(d1, d2)
        if g is None:
            return _ratfun(n1 * d2 + n2 * d1, d1 * d2)
        d1 = _exact_quo(d1, g)
        t = n1 * _exact_quo(d2, g) + n2 * d1
        g2 = _common_factor(t, g)
        if g2 is not None:
            t, d2 = _exact_quo(t, g2), _exact_quo(d2, g2)
        return _coprime_quotient(t, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return _ratfun(-self.num, self.den)

    def __sub__(self, other):
        return self + (-coerce_scalar(other))

    def __rsub__(self, other):
        return coerce_scalar(other) + (-self)

    def __mul__(self, other):
        other = coerce_scalar(other)
        n1, d1 = self.num, self.den
        if isinstance(other, Laurent):
            if not other:
                return ZERO
            pair = _cancel(other, d1)
            if pair is None:
                return _ratfun(n1 * other, d1)
            other, d1 = pair
            return _coprime_quotient(n1 * other, d1)
        n2, d2 = other.num, other.den
        pair = _cancel(n1, d2)
        if pair is not None:
            n1, d2 = pair
        pair = _cancel(n2, d1)
        if pair is not None:
            n2, d1 = pair
        return _coprime_quotient(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _inverse(coerce_scalar(other))

    def __rtruediv__(self, other):
        return coerce_scalar(other) * _inverse(self)

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            return _inverse(self) ** (-n)
        if not n:
            return ONE
        return _ratfun(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, RatFun):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self == coerce_scalar(other)
        if isinstance(other, Laurent):
            # a canonical RatFun is never in the Laurent ring
            return False
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            if self.num.is_constant() and self.den.is_constant():
                # a rational constant hashes like the Fraction it equals
                self._hash = hash(Fraction(self.num.coeffs[0],
                                           self.den.coeffs[0]))
            else:
                self._hash = hash((hash(self.num), hash(self.den)))
        return self._hash

    def __str__(self):
        d = self.den.coeffs
        lead = d[max(d)]
        num = _format_terms(self.num.coeffs, lead)
        if len(d) == 1:
            return num
        return "(%s)/(%s)" % (num, _format_terms(d, lead))

    def __repr__(self):
        return "RatFun(%s)" % self


ZERO = Laurent({})
ONE = Laurent({0: 1})
Q = Laurent({1: 1})


def coerce_scalar(x):
    """Coerce ints and Fractions into the scalar tower."""
    if isinstance(x, (Laurent, RatFun)):
        return x
    if isinstance(x, (int, Fraction)):
        return Laurent.const(x)
    raise TypeError("cannot use %r as an exact scalar" % (x,))


def q_int(n, d=1):
    """The balanced q-integer (q_d^n - q_d^-n)/(q_d - q_d^-1), q_d = q^d."""
    n = int(n)
    if n < 0:
        return -q_int(-n, d)
    return Laurent._raw({d * (n - 1 - 2 * k): 1 for k in range(n)})


def q_factorial(n, d=1):
    out = ONE
    for k in range(2, n + 1):
        out = out * q_int(k, d)
    return out


def q_binomial(n, k, d=1):
    if k < 0 or k > n:
        return ZERO
    num = q_factorial(n, d)
    den = q_factorial(k, d) * q_factorial(n - k, d)
    out = num / den
    if not isinstance(out, Laurent):
        raise AssertionError("q-binomial (n, k, d) = (%d, %d, %d) is not a "
                             "Laurent polynomial: %s" % (n, k, d, out))
    return out


def _format_terms(coeffs, den=1):
    """Canonical text of the sum of (c/den)*q^e over the exponent dict
    ``coeffs``, ascending exponents: e.g. ``q^-1 + 2 + q`` or
    ``1/2 - 3/2*q``.  ``den`` is positive and each coefficient prints in
    lowest terms."""
    if not coeffs:
        return "0"
    parts = []
    for e in sorted(coeffs):
        g = gcd(coeffs[e], den)
        n, m = coeffs[e] // g, den // g
        body = str(n) if m == 1 else "%d/%d" % (n, m)
        if e:
            qpart = "q" if e == 1 else "q^%d" % e
            if body in ("1", "-1"):
                body = body[:-1] + qpart
            else:
                body = "%s*%s" % (body, qpart)
        parts.append(body)
    text = parts[0]
    for body in parts[1:]:
        if body.startswith("-"):
            text += " - " + body[1:]
        else:
            text += " + " + body
    return text


def format_scalar(x):
    return str(coerce_scalar(x))


def parse_laurent(text):
    """Inverse of ``str`` on a Laurent polynomial over Q: one with a
    non-integral coefficient comes back as its canonical ``RatFun``."""
    text = text.strip()
    if text == "0":
        return ZERO
    text = text.replace(" - ", " + -")
    out = {}
    for term in text.split(" + "):
        term = term.strip()
        if "q" in term:
            coeff_s, _, qpart = term.partition("q")
            coeff_s = coeff_s.rstrip("*").strip()
            if coeff_s in ("", "+"):
                c = 1
            elif coeff_s == "-":
                c = -1
            else:
                c = Fraction(coeff_s)
            e = 1 if not qpart else int(qpart.lstrip("^"))
        else:
            c = Fraction(term)
            e = 0
        out[e] = out.get(e, 0) + c
    return Laurent(out)


# ---------------------------------------------------------------------------
# matrices and subspaces


def echelon_insert(rows, pivots, vec):
    """Grow a canonical reduced echelon basis in place by one vector.

    ``rows`` and ``pivots`` hold a reduced row echelon form, pivots
    ascending.  The residue of ``vec`` is zero at every pivot, so scaling
    it to one at its first nonzero entry and clearing that column from
    the earlier rows gives the canonical basis of the larger span.
    Returns whether ``vec`` was independent.  Only the entries right of
    the new pivot are scaled, and none when the pivot is the residue's
    only entry, so a lone pivot is never inverted."""
    res = reduce_against(rows, pivots, vec)
    p = next((t for t, c in enumerate(res) if c), None)
    if p is None:
        return False
    right = [t for t in range(p + 1, len(res)) if res[t]]
    if right:
        inv = ONE / res[p]
        for t in right:
            res[t] = res[t] * inv
    res[p] = ONE
    for row in rows:
        f = row[p]
        if f:
            for t in right:
                row[t] = row[t] - f * res[t]
            row[p] = ZERO
    at = bisect(pivots, p)
    rows.insert(at, res)
    pivots.insert(at, p)
    return True


def rref(rows):
    """Canonical reduced row echelon form, as the fold of
    ``echelon_insert`` over the rows.

    Returns (echelon_rows, pivot_columns).  Zero rows are dropped.  Pivots
    are normalized to one with zeros above and below, so the result is the
    unique canonical basis of the row space.
    """
    ech, pivots = [], []
    for row in rows:
        echelon_insert(ech, pivots, row)
    return ech, pivots


def reduce_against(rows, pivots, vec):
    """Reduce ``vec`` against an echelon basis; returns the residue.
    Each row is zero at the earlier rows' pivots and nonzero at its own,
    where it need not be one: the multiplier is divided by the pivot
    entry unless that entry is ``ONE``.  A row is subtracted along its
    whole support, left of its pivot too."""
    v = [coerce_scalar(x) for x in vec]
    for row, p in zip(rows, pivots):
        f = v[p]
        if f:
            d = row[p]
            if d is not ONE:
                f = f / d
            for j, x in enumerate(row):
                if x and j != p:
                    v[j] = v[j] - f * x
            v[p] = ZERO
    return v


def kernel(rows, ncols=None):
    """Canonical basis of the right kernel {x : M x = 0}.

    Returns (echelon_rows, pivot_columns), the ``rref`` of the kernel.
    """
    if ncols is None:
        if not rows:
            raise ValueError("kernel of an empty matrix needs ncols")
        ncols = len(rows[0])
    ech, pivots = rref(rows)
    pivset = set(pivots)
    free = [j for j in range(ncols) if j not in pivset]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(ech, pivots):
            if row[f]:
                v[p] = -row[f]
        basis.append(v)
    return rref(basis)


def solve(rows, rhs):
    """One solution x of M x = rhs, or None when the system is inconsistent.

    Free coordinates are set to zero, which makes the answer canonical;
    when M has full column rank the solution is the unique one.
    """
    if not rows:
        if any(coerce_scalar(b) for b in rhs):
            return None
        return []
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    ech, pivots = rref(aug)
    x = [ZERO] * ncols
    for row, p in zip(ech, pivots):
        if p == ncols:
            return None
        x[p] = row[ncols]
    return x


def mat_mul(a, b):
    """The product a b; for matrices acting on rows, apply a, then b."""
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = [[ZERO] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] = oi[j] + x * bt[j]
    return out


def identity_matrix(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def dot(a, b):
    """Sum of the products of two scalar vectors, skipping zeros."""
    acc = ZERO
    for x, y in zip(a, b):
        if x and y:
            acc = acc + x * y
    return acc


def charpoly(rows):
    """Coefficients [c_0, ..., c_n] of det(x I - M), highest power of x
    first, so c_0 = 1 and c_k multiplies x^(n-k).

    Berkowitz's division-free recursion (Inf. Proc. Lett. 18, 1984): let
    A be the leading k x k block of M, and R, C the parts of row and
    column k of M left of and above the diagonal.  The polynomial of the
    next leading block is the lower triangular Toeplitz matrix with first
    column (1, -m_kk, -R C, -R A C, ..., -R A^(k-1) C) times the
    polynomial of A.  Only ring operations are used, so entries in the
    fraction field never trigger a division.
    """
    m = [[coerce_scalar(x) for x in row] for row in rows]
    poly = [ONE]
    for k in range(len(m)):
        row = m[k][:k]
        toeplitz = [ONE, -m[k][k]]
        vec = [m[i][k] for i in range(k)]
        for j in range(k):
            toeplitz.append(-dot(row, vec))
            if j < k - 1:
                vec = [dot(m[i][:k], vec) for i in range(k)]
        poly = [dot([toeplitz[i - j] for j in range(min(i, k) + 1)], poly)
                for i in range(k + 2)]
    return poly


def _top_exp(x):
    """The q-degree of a nonzero scalar: its highest exponent, and for a
    ratio the degree of the numerator minus that of the denominator."""
    if isinstance(x, RatFun):
        return x.num.max_exp() - x.den.max_exp()
    return x.max_exp()


def _root_candidates(coeffs):
    """Every integer e for which q^e can be a root of the polynomial with
    these coefficients (highest power first): in a vanishing sum the top
    q-degree deg(c_k) + e * (n - k) of the terms is attained at least
    twice, so e is an integer slope of the upper Newton polygon."""
    n = len(coeffs) - 1
    pts = [(n - k, _top_exp(c)) for k, c in enumerate(coeffs) if c]
    out = set()
    for a, (pa, da) in enumerate(pts):
        for pb, db in pts[a + 1:]:
            e, r = divmod(db - da, pa - pb)
            if not r and da + e * pa == max(d + e * p for p, d in pts):
                out.add(e)
    return sorted(out)


def _deflate(coeffs, s):
    """Synthetic division by x - s: (quotient coefficients, remainder),
    the remainder being the Horner value at s."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + s * out[-1])
    return out[:-1], out[-1]


def q_power_roots(coeffs):
    """Strip the integer q-power roots off a polynomial over the scalars.

    ``coeffs`` lists the coefficients highest power first.  Returns
    ``({e: multiplicity}, leftover)``: every root q^e found, with its
    multiplicity, and the coefficients of the factor left when they are
    divided out, which has no integer q-power root.  Each Newton-polygon
    candidate is confirmed exactly by synthetic division, and the search
    repeats on the quotient until no candidate is a root.
    """
    roots = {}
    poly = list(coeffs)
    while len(poly) > 1:
        for e in _root_candidates(poly):
            quo, rem = _deflate(poly, Laurent.q_power(e))
            if not rem:
                break
        else:
            break
        roots[e] = roots.get(e, 0) + 1
        poly = quo
    return roots, poly


class Subspace:
    """A subspace of coordinate n-space stored by its canonical basis.

    Built through ``rref``, so two Subspace objects are equal exactly when
    they describe the same subspace of the same ambient space.
    """

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient, rows, pivots):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots

    @staticmethod
    def from_vectors(ambient, vectors):
        vecs = [v for v in vectors]
        for v in vecs:
            if len(v) != ambient:
                raise ValueError("vector length %d does not match ambient %d"
                                 % (len(v), ambient))
        ech, piv = rref(vecs)
        return Subspace(ambient, ech, piv)

    @staticmethod
    def zero(ambient):
        return Subspace(ambient, [], [])

    @staticmethod
    def full(ambient):
        return Subspace(ambient, identity_matrix(ambient),
                        list(range(ambient)))

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, vec):
        res = reduce_against(self.rows, self.pivots, vec)
        return not any(res)

    def is_subspace_of(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        return all(other.contains(row) for row in self.rows)

    def sum(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        # a zero or full operand decides the sum without a reduction
        if not other.rows or len(self.rows) == self.ambient:
            return self
        if not self.rows or len(other.rows) == self.ambient:
            return other
        # the first operand is already reduced: only the second's rows
        # are inserted
        rows, pivots = [list(r) for r in self.rows], list(self.pivots)
        for row in other.rows:
            echelon_insert(rows, pivots, row)
        return Subspace(self.ambient, rows, pivots)

    def orthogonal_complement(self):
        """All x with r . x = 0 for every basis row r (standard pairing)."""
        # a zero or full operand decides the complement without a reduction
        if not self.rows:
            return Subspace.full(self.ambient)
        if len(self.rows) == self.ambient:
            return Subspace.zero(self.ambient)
        return Subspace(self.ambient, *kernel(self.rows, self.ambient))

    def intersect(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        n = self.ambient
        # a zero or full operand decides the meet without a reduction
        if not self.rows or len(other.rows) == n:
            return self
        if not other.rows or len(self.rows) == n:
            return other
        # Zassenhaus: rref of [[U, U], [W, 0]]; the rows pivoting in the
        # right half are zero on the left and their right halves are the
        # canonical basis of U meet W.  The rows [u | u] are already
        # reduced, so only the rows [w | 0] are inserted.
        ech, piv = [row + row for row in self.rows], list(self.pivots)
        for row in other.rows:
            echelon_insert(ech, piv, row + [ZERO] * n)
        meet = [(row[n:], p - n) for row, p in zip(ech, piv) if p >= n]
        return Subspace(n, [r for r, _ in meet], [p for _, p in meet])

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient == other.ambient and self.pivots == other.pivots
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, tuple(self.pivots),
                     tuple(tuple(r) for r in self.rows)))

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient)
