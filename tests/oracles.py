"""Earlier implementations, kept as test oracles.

Each computes the same thing as a faster routine of the library by a
different road: the fixed lattice by an exact kernel over Laurent
scalars, Bruhat covers by scanning the neighbouring length level, the
pair poset by testing every pair of the group, and scalar sums and
products by the general loops and an uncached gcd on every product.
"""

from qbruhat.exactalg import (Laurent, RatFun, Subspace, ZERO, _common_factor,
                              _coprime_quotient, _exact_quo, _fr, _ratfun,
                              coerce_scalar, kernel)


def fixed_lattice(group, w):
    """Kernel of w - 1 on the weight lattice, as an exact Subspace."""
    n = group.rank
    rows = [[Laurent.const(w.mat[i][j] - (1 if i == j else 0))
             for j in range(n)] for i in range(n)]
    return Subspace(n, *kernel(rows, n))


def level_scan_covers(group):
    """Lower and upper covers of every element, as index lists sorted by
    index: the elements one length down (up) that are Bruhat-below
    (above) it."""
    levels = {}
    for w in group.elements:
        levels.setdefault(w.length, []).append(w)
    lower = [[u.idx for u in levels.get(z.length - 1, ())
              if group.bruhat_leq(u, z)] for z in group.elements]
    upper = [[v.idx for v in levels.get(y.length + 1, ())
              if group.bruhat_leq(y, v)] for y in group.elements]
    return lower, upper


def all_pairs_filter(group, anchor=None):
    """Every (y, z) of W x W with y <= z, and y <= anchor <= z when an
    anchor is given, in (y.length, y.word, z.length, z.word) order."""
    elements = sorted(group.elements, key=lambda w: (w.length, w.word))
    pairs = []
    for y in elements:
        for z in elements:
            if not group.bruhat_leq(y, z):
                continue
            if anchor is not None:
                if not (group.bruhat_leq(y, anchor)
                        and group.bruhat_leq(anchor, z)):
                    continue
            pairs.append((y, z))
    return pairs


def laurent_add(x, other):
    """Laurent x + other, every pair of terms through the general loop."""
    other = coerce_scalar(other)
    if isinstance(other, RatFun):
        return other + x
    a, b = x.coeffs, other.coeffs
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


def laurent_mul(x, other):
    """Laurent x * other by the double loop over both term lists."""
    other = coerce_scalar(other)
    if isinstance(other, RatFun):
        return ratfun_mul(other, x)
    if not x.coeffs or not other.coeffs:
        return ZERO
    a, b = x.coeffs, other.coeffs
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


def ratfun_mul(x, other):
    """RatFun x * other, computing every common factor afresh."""
    other = coerce_scalar(other)
    n1, d1 = x.num, x.den
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
