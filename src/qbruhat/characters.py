"""Formal characters: Demazure operators and truncated cell characters.

A character is a finite integer combination of lattice points, stored in
fundamental-weight coordinates.  Demazure operators act monomial by
monomial, so the Weyl character of a dominant weight comes out of the
longest-word composite with no division anywhere; it is kept, by
``memo``, once per type and highest weight.

The truncated cell character of w counts, up to a depth cutoff, the
multisets of roots w(-alpha), alpha > 0, summing to each lattice point
mu.  Such a multiset sums to mu exactly when its alpha sum to
-w^-1 mu, so the count is Kostant's partition count p(-w^-1 mu), kept
by ``memo`` in one table per type with one integer per argument.  Depth
of a lattice point means the sum of the absolute values of its
simple-root coordinates.  The ball is counted before it is built, and
one over the depth-ball row of ``cartan.SCOPE`` is refused.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import add, sub

from .cartan import SCOPE
from .emit import json_document
from .obs import memo

SCHEMA_CHAR = "qbruhat/char-v1"


class FormalCharacter:
    """Finite integer combination of weights."""

    __slots__ = ("datum", "terms")

    def __init__(self, datum, terms=None):
        self.datum = datum
        self.terms = dict(terms or {})

    @classmethod
    def monomial(cls, datum, mu):
        return cls(datum, {tuple(mu): 1})

    def coefficient(self, mu):
        return self.terms.get(tuple(mu), 0)

    def mass(self):
        return sum(self.terms.values())

    def __eq__(self, other):
        if not isinstance(other, FormalCharacter):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        items = ", ".join("%s: %d" % (mu, c)
                          for mu, c in sorted(self.terms.items()))
        return "FormalCharacter({%s})" % items


def demazure_step(char, i):
    """Apply the i-th Demazure operator monomial by monomial."""
    datum = char.datum
    alpha = datum.simple_root(i)
    out = {}

    def bump(mu, c):
        out[mu] = out.get(mu, 0) + c
        if not out[mu]:
            del out[mu]

    for mu, c in char.terms.items():
        m = datum.coroot_pairing(mu, i)
        if m >= 0:
            for k in range(m + 1):
                bump(datum.sub(mu, tuple(k * a for a in alpha)), c)
        elif m == -1:
            continue
        else:
            for k in range(1, -m):
                bump(datum.add(mu, tuple(k * a for a in alpha)), -c)
    return FormalCharacter(datum, out)


def demazure_character(datum, w, lam):
    """Character of the Demazure piece attached to w at dominant lam."""
    if not datum.is_dominant(lam):
        raise ValueError("weight %s is not dominant" % (lam,))
    ch = FormalCharacter.monomial(datum, lam)
    for i in reversed(w.word):
        ch = demazure_step(ch, i)
    return ch


@memo(lambda datum, group, lam: (datum.label, tuple(lam)))
def weyl_character(datum, group, lam):
    return demazure_character(datum, group.longest, lam)


def weight_multiplicity(datum, group, lam, mu):
    return weyl_character(datum, group, lam).coefficient(mu)


def weyl_dim(datum, lam):
    """Dimension by the product formula; exact integer."""
    rho = datum.rho()
    num = 1
    den = 1
    shifted = datum.add(lam, rho)
    for coords in datum.positive_roots:
        alpha = datum.root_to_fund(coords)
        num_f = datum.inner(shifted, alpha)
        den_f = datum.inner(rho, alpha)
        num *= num_f.numerator * den_f.denominator
        den *= num_f.denominator * den_f.numerator
    if num % den:
        raise AssertionError("dimension product for %s is %d/%d, not an "
                             "integer" % (lam, num, den))
    return num // den


@memo(lambda datum: datum.label)
def _partition_counts(datum):
    """The table behind ``kostant``: p(nu) by nu, one integer each,
    filled as queries reach it."""
    return {datum.zero(): 1}


def kostant(datum, nu):
    """Kostant's partition count p(nu): the number of multisets of
    positive roots summing to nu, in simple-root coordinates.

    Applying the derivation e^nu -> ht(nu) e^nu to the generating
    function prod over alpha > 0 of (1 - e^alpha)^-1 gives
    ht(nu) p(nu) = sum over alpha > 0 and m >= 1 of
    ht(alpha) p(nu - m alpha).  Every nu - m alpha is lexicographically
    below nu inside the box [0, nu], so one pass over the box in
    lexicographic order fills what nu needs, with no recursion."""
    counts = _partition_counts(datum)
    nu = tuple(nu)
    if nu not in counts and min(nu) >= 0:
        for pt in itertools.product(*(range(c + 1) for c in nu)):
            if pt not in counts:
                total = 0
                for alpha in datum.positive_roots:
                    rest = tuple(map(sub, pt, alpha))
                    while min(rest) >= 0:
                        total += sum(alpha) * counts[rest]
                        rest = tuple(map(sub, rest, alpha))
                counts[pt] = total // sum(pt)
    return counts.get(nu, 0)


def check_depth(rank, depth):
    """Refuse a depth whose ball is over the depth-ball row of
    ``cartan.SCOPE``, counting it without building a point: a point with
    k nonzero root coordinates picks them, their signs and their sizes,
    k positive integers of sum at most depth, in 2^k C(rank, k)
    C(depth, k) ways.  ValueError names the depth, the rank and the
    count."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    size = sum(2 ** k * comb(rank, k) * comb(depth, k)
               for k in range(rank + 1))
    if size > SCOPE["depth_ball"]:
        raise ValueError("the depth-%d ball of rank %d has %d points, over "
                         "the cap %d" % (depth, rank, size,
                                         SCOPE["depth_ball"]))


def cell_translate_character(group, w, depth):
    """Truncated character of the cone spanned by w applied to the
    negative roots: coefficient of mu counts multisets of those roots
    summing to mu, for every mu of depth at most the cutoff.

    The coefficient of mu is p(-w^-1 mu): a multiset of roots w(-alpha)
    sums to mu exactly when its alpha sum to -w^-1 mu.  Each mu of the
    depth ball is mapped there in integer simple-root coordinates, and
    kept in fundamental coordinates when -w^-1 mu >= 0, where p >= 1.
    Terms come in (depth, weight) order.  ``check_depth`` refuses a
    ball over the scope first."""
    datum = group.datum
    n = datum.rank
    check_depth(n, depth)
    # the ball grows one simple root alpha_j at a time, each point
    # carrying (depth, mu in fundamental coordinates, -w^-1 mu)
    ball = [(0, datum.zero(), datum.zero())]
    for j in range(n):
        alpha = datum.simple_root(j)
        gamma = [int(g) for g in datum.root_coords(
            datum.reflect(datum.neg(alpha), w.word))]
        steps = [(abs(c), tuple(c * x for x in alpha),
                  tuple(c * g for g in gamma))
                 for c in range(-depth, depth + 1)]
        # steps[s:2 * depth + 1 - s] are the c with |c| <= depth - s
        ball = [(s + t, tuple(map(add, mu, dmu)), tuple(map(add, nu, dnu)))
                for s, mu, nu in ball
                for t, dmu, dnu in steps[s:2 * depth + 1 - s]]
    return FormalCharacter(datum, {mu: kostant(datum, nu) for _, mu, nu in
                                   sorted(p for p in ball if min(p[2]) >= 0)})


def character_to_json(char, label, w_text, depth):
    """The character's terms as a JSON document, in the character's own
    order: (depth, weight) for a cell character."""
    doc = {
        "schema": SCHEMA_CHAR,
        "type": label,
        "w": w_text,
        "depth": depth,
        "terms": [{"weight": list(mu), "coeff": c}
                  for mu, c in char.terms.items()],
    }
    return json_document(doc)
