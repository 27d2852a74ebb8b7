"""Exact scalars and exact linear algebra.

Every computation in this package runs over an exact coefficient tower:
rational numbers, Laurent polynomials in a formal variable q with rational
coefficients, and ratios of such polynomials.  A coefficient is stored in
one canonical form: an ``int`` when it is integral, a ``Fraction`` only
when its denominator is greater than one, and coefficient quotients go
through one exact helper.  No floating point is used anywhere.
Arithmetic stays inside the Laurent ring whenever it can; division
promotes to the fraction field only when the quotient is not itself a
Laurent polynomial, and results whose reduced denominator is a power of
q are demoted back to Laurent form.  Consequently two equal
scalars always compare equal and print identically.

The canonical form is kept cheaply.  Laurent sums, negations and
products build their results through a trusted constructor that
normalises only the coefficients that are not ints.  Fraction-field
operators use that their operands are already reduced and run a gcd
only on the factors that can still share a divisor (Henrici, J. ACM 3,
1956): adding a Laurent polynomial, negating, multiplying by a power of
q, taking a reciprocal or a power runs no gcd at all.  ``RatFun`` lists
every case with the reason its result is reduced.

The matrix layer is deliberately plain: matrices are lists of lists of
scalars, and the central routine is a canonical reduced row echelon form.
Subspaces are stored by their echelon basis, so equality of subspaces is
equality of representations.  Characteristic polynomials are computed
without division, and their integer q-power roots are found exactly from
the Newton polygon of the coefficients' q-degrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _fr(x):
    """Canonical coefficient: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError("expected an integer or Fraction, got %r" % (x,))


def _div(a, b):
    """Exact quotient of two coefficients, in canonical form."""
    if type(a) is int and type(b) is int:
        quo, rem = divmod(a, b)
        if not rem:
            return quo
    return _fr(Fraction(a, b))


class Laurent:
    """A Laurent polynomial in q with rational coefficients.

    Stored as a dict mapping integer exponents to nonzero coefficients, each
    an ``int`` when integral and a ``Fraction`` with denominator greater
    than one otherwise.  Instances are immutable in practice; do not mutate
    ``coeffs``.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if type(c) is not int:
                    c = _fr(c)
                if c:
                    clean[int(e)] = c
        self.coeffs = clean
        self._hash = None

    @staticmethod
    def const(x):
        return Laurent({0: x})

    @staticmethod
    def q_power(n):
        return Laurent({int(n): 1})

    def __bool__(self):
        return bool(self.coeffs)

    def is_constant(self):
        return not self.coeffs or set(self.coeffs) == {0}

    def is_monomial(self):
        return len(self.coeffs) == 1

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return self.coeffs.get(0, 0)

    def min_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self.coeffs)

    def max_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self.coeffs)

    # -- arithmetic -----------------------------------------------------

    @staticmethod
    def _raw(coeffs):
        """Trusted constructor: ``coeffs`` already maps int exponents to
        nonzero canonical coefficients, and is stored without a copy."""
        p = object.__new__(Laurent)
        p.coeffs = coeffs
        p._hash = None
        return p

    def __add__(self, other):
        other = coerce_scalar(other)
        if isinstance(other, RatFun):
            return other + self
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for e, c in b.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s if type(s) is int else _fr(s)
            elif e in out:
                del out[e]
        return Laurent._raw(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent._raw({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-coerce_scalar(other))

    def __rsub__(self, other):
        return coerce_scalar(other) + (-self)

    def __mul__(self, other):
        other = coerce_scalar(other)
        if isinstance(other, RatFun):
            return other * self
        if not self.coeffs or not other.coeffs:
            return ZERO
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        for e, c in out.items():
            if type(c) is not int:
                out[e] = _fr(c)
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
        # gcd(self, other) = gcd(other, r) up to units, and r is the
        # smaller operand
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
            return self.coeffs == Laurent.const(other).coeffs
        if isinstance(other, RatFun):
            return other == self
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            if self.is_constant():
                self._hash = hash(self.coeffs.get(0, 0))
            else:
                self._hash = hash(tuple(sorted(self.coeffs.items())))
        return self._hash

    def __str__(self):
        return format_laurent(self)

    def __repr__(self):
        return "Laurent(%s)" % self


def _laurent_divmod(a, b):
    """Divide Laurent a by nonzero Laurent b: returns (quotient, remainder).

    Long division from the top term down, over the exponents from max(a)
    to min(a) + max(b) - min(b); the remainder keeps the terms below that
    range, so it is zero exactly when b divides a in the Laurent ring.
    Each quotient coefficient comes out of ``_div`` in canonical form, so
    the quotient is built with the trusted constructor.
    """
    if not a:
        return ZERO, ZERO
    bc = b.coeffs
    if len(bc) == 1:
        (eb, cb), = bc.items()
        return (Laurent._raw({e - eb: _div(c, cb)
                              for e, c in a.coeffs.items()}), ZERO)
    top = max(bc)
    lead = bc[top]
    rest = [(e - top, c) for e, c in bc.items() if e != top]
    rem = dict(a.coeffs)
    quo = {}
    for k in range(max(rem), min(rem) - min(bc) + top - 1, -1):
        c = rem.pop(k, 0)
        if not c:
            continue
        f = quo[k - top] = _div(c, lead)
        for d, bd in rest:
            e = k + d
            s = rem.get(e, 0) - f * bd
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return Laurent._raw(quo), (Laurent(rem) if rem else ZERO)


def _primitive(p):
    """Integer polynomial p divided by its content, leading term positive."""
    g = 0
    for c in p.values():
        g = gcd(g, c)
        if g == 1:
            break
    if p[max(p)] < 0:
        g = -g
    if g == 1:
        return p
    return {e: c // g for e, c in p.items()}


def _clear_denominators(p):
    """A positive integer multiple of p with integer coefficients."""
    m = 1
    for c in p.values():
        if type(c) is not int:
            m = lcm(m, c.denominator)
    if m == 1:
        return p
    return {e: int(c * m) for e, c in p.items()}


def _poly_gcd(a, b):
    """Primitive gcd over Z of two nonzero polynomials given as exponent dicts.

    The denominators are cleared first; then a pseudo-remainder sequence
    runs over the integers, taking the primitive part of every remainder
    (Collins, J. ACM 14, 1967), so no coefficient ever becomes a fraction.
    The result has integer coefficients, content one and a positive leading
    coefficient; it is the monic gcd over Q up to that leading coefficient.
    """
    a = dict(_primitive(_clear_denominators(a)))
    b = dict(_primitive(_clear_denominators(b)))
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
    """The gcd of two nonzero Laurent polynomials up to units, as a
    polynomial of positive degree, or None when they share no factor.
    Powers of q are units, so a monomial never shares one."""
    if len(a.coeffs) == 1 or len(b.coeffs) == 1:
        return None
    g = _poly_gcd(_shifted(a), _shifted(b))
    return Laurent._raw(g) if max(g) else None


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
    """num/den in canonical form for nonzero num and den that share no
    polynomial factor: a shift and a monic scaling, no gcd."""
    d = den.coeffs
    s = min(d)
    lead = d[max(d)]
    if lead == 1 and not s and len(d) > 1:
        return _ratfun(num, den)
    num = Laurent._raw({e - s: _div(c, lead) for e, c in num.coeffs.items()})
    if len(d) == 1:
        return num
    return _ratfun(num, Laurent._raw({e - s: _div(c, lead)
                                      for e, c in d.items()}))


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
    reciprocal only needs renormalising."""
    if isinstance(x, RatFun):
        return _coprime_quotient(x.den, x.num)
    if not x:
        raise ZeroDivisionError("division by zero scalar")
    return _coprime_quotient(ONE, x)


class RatFun:
    """A reduced ratio of Laurent polynomials outside the Laurent ring.

    Canonical form: the denominator is an ordinary polynomial, monic, with
    nonzero constant term and positive degree; numerator and denominator
    share no polynomial factor.  Every operation returns this form and
    demotes to ``Laurent`` whenever the reduced denominator is trivial, so
    equal values always share a representation.

    Since the operands are already reduced, each operator runs a gcd only
    on the factors that can still share a divisor (Henrici, J. ACM 3,
    1956; Knuth, TAOCP vol. 2, 4.5.1).  For n/d with d coprime to q:

    - ``-(n/d) = (-n)/d``, and ``n/d + l = (n + l*d)/d`` for a Laurent l,
      are reduced as they stand: a factor of d dividing n + l*d would
      divide n.
    - ``n/d * c*q^e = (c*q^e*n)/d`` is reduced, q being coprime to d.
    - ``n/d * l`` for a Laurent polynomial l divides l and d by gcd(l, d).
    - ``n1/d + n2/d`` divides n1 + n2 and d by gcd(n1 + n2, d).
    - ``n1/d1 * n2/d2`` uses the cross gcds gcd(n1, d2) and gcd(n2, d1).
    - ``n1/d1 + n2/d2`` with g = gcd(d1, d2) forms t = n1*(d2/g) +
      n2*(d1/g); t is coprime to d1/g and d2/g, so only g2 = gcd(t, g)
      remains, and the sum is (t/g2) / ((d1/g) * (d2/g2)).
    - the reciprocal d/n and the power n^k/d^k only shift and rescale.
    """

    __slots__ = ("num", "den", "_hash")

    def __new__(cls, num, den):
        """``RatFun(num, den)`` is num/den in canonical form: a ``Laurent``
        when the quotient is one."""
        return _make_ratfun(coerce_scalar(num), coerce_scalar(den))

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
            g = _common_factor(other, d1)
            if g is None:
                return _ratfun(n1 * other, d1)
            return _coprime_quotient(n1 * _exact_quo(other, g),
                                     _exact_quo(d1, g))
        n2, d2 = other.num, other.den
        g = _common_factor(n1, d2)
        if g is not None:
            n1, d2 = _exact_quo(n1, g), _exact_quo(d2, g)
        g = _common_factor(n2, d1)
        if g is not None:
            n2, d1 = _exact_quo(n2, g), _exact_quo(d1, g)
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
        if isinstance(other, (Laurent, int, Fraction)):
            # canonical RatFun always has a nontrivial denominator
            return False
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((hash(self.num), hash(self.den)))
        return self._hash

    def __str__(self):
        return "(%s)/(%s)" % (self.num, self.den)

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
    return Laurent({d * (n - 1 - 2 * k): 1 for k in range(n)})


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
    assert isinstance(out, Laurent)
    return out


def format_laurent(p):
    """Canonical text form, ascending exponents: e.g. ``q^-1 + 2 + q``."""
    if not p.coeffs:
        return "0"
    parts = []
    for e in sorted(p.coeffs):
        c = p.coeffs[e]
        if e == 0:
            body = _format_coeff(c, standalone=True)
        else:
            qpart = "q" if e == 1 else "q^%d" % e
            if c == 1:
                body = qpart
            elif c == -1:
                body = "-" + qpart
            else:
                body = "%s*%s" % (_format_coeff(c, standalone=True), qpart)
        parts.append(body)
    text = parts[0]
    for body in parts[1:]:
        if body.startswith("-"):
            text += " - " + body[1:]
        else:
            text += " + " + body
    return text


def _format_coeff(c, standalone=False):
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def format_scalar(x):
    x = coerce_scalar(x)
    if isinstance(x, Laurent):
        return format_laurent(x)
    return str(x)


def parse_laurent(text):
    """Inverse of ``format_laurent`` on its canonical output."""
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


def mat_copy(rows):
    return [[coerce_scalar(x) for x in row] for row in rows]


def rref(rows):
    """Canonical reduced row echelon form.

    Returns (echelon_rows, pivot_columns).  Zero rows are dropped.  Pivots
    are normalized to one with zeros above and below, so the result is the
    unique canonical basis of the row space.
    """
    m = mat_copy(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        # prefer a cheap pivot (monomial) when one is available
        for i in range(pivot_row, len(m)):
            x = m[i][col]
            if isinstance(x, Laurent) and x and x.is_monomial():
                pivot_row = i
                break
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][col]
        m[r] = [x * inv if x else ZERO for x in m[r]]
        m[r][col] = ONE
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                row_i, row_r = m[i], m[r]
                for j in range(col, ncols):
                    if row_r[j]:
                        row_i[j] = row_i[j] - f * row_r[j]
                row_i[col] = ZERO
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def reduce_against(rows, pivots, vec):
    """Reduce ``vec`` against an echelon basis; returns the residue."""
    v = [coerce_scalar(x) for x in vec]
    for row, p in zip(rows, pivots):
        if v[p]:
            f = v[p]
            for j in range(p, len(v)):
                if row[j]:
                    v[j] = v[j] - f * row[j]
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
    m = mat_copy(rows)
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
        return Subspace.from_vectors(self.ambient, self.rows + other.rows)

    def orthogonal_complement(self):
        """All x with r . x = 0 for every basis row r (standard pairing)."""
        if not self.rows:
            return Subspace.full(self.ambient)
        return Subspace(self.ambient, *kernel(self.rows, self.ambient))

    def intersect(self, other):
        if self.ambient != other.ambient:
            raise ValueError("ambient mismatch")
        # Zassenhaus: rref of [[U, U], [W, 0]]; the rows pivoting in the
        # right half are zero on the left and their right halves are the
        # canonical basis of U meet W.
        n = self.ambient
        ech, piv = rref([row + row for row in self.rows]
                        + [row + [ZERO] * n for row in other.rows])
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
