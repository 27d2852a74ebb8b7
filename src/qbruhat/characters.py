"""Formal characters: Demazure operators and truncated cell characters.

A character is a finite integer combination of lattice points, stored in
fundamental-weight coordinates.  Demazure operators act monomial by
monomial, so the Weyl character of a dominant weight comes out of the
longest-word composite with no division anywhere; it is kept, by
``memo``, once per type and highest weight.

The truncated cell character counts, up to a depth cutoff, the monoid
elements spanned by a Weyl translate of the negative roots, with
multiplicity the number of ways to write each point as a sum.  Depth of
a lattice point means the sum of the absolute values of its simple-root
coordinates.
"""

from __future__ import annotations

from operator import add

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


def cell_translate_character(group, w, depth):
    """Truncated character of the cone spanned by w applied to the
    negative roots: coefficient of mu counts multisets of those roots
    summing to mu, for every mu of depth at most the cutoff.

    Enumerates partitions directly with a positivity budget, so no
    cancellation between truncated factors can corrupt coefficients.
    The walk runs in simple-root coordinates, where depth is the sum of
    absolute values, and kept terms go back to fundamental coordinates.
    """
    datum = group.datum
    a, d, n = datum.cartan, datum.d, datum.rank
    word = w.word
    # budget(mu) = -(w rho, mu) is linear, so each root has an integer
    # cost and every partial sum carries its budget along; on
    # gamma = w(-alpha) it is (rho, alpha) = sum_j d_j alpha_j > 0.
    roots = []
    for coords in datum.positive_roots:
        gamma = [-c for c in coords]
        for i in reversed(word):
            gamma[i] -= sum(a[i][j] * gamma[j] for j in range(n))
        cost = sum(dj * c for dj, c in zip(d, coords))
        roots.append((datum.root_to_fund(gamma), tuple(gamma), cost))
    # the roots' fundamental coordinates fix the walk's order, and with
    # it the insertion order of the terms
    roots.sort()
    # (w rho, alpha_i) = d_i <w rho, alpha_i^vee>, and w rho in
    # fundamental coordinates is the row sums of w's matrix.
    # Every target of depth <= cutoff satisfies budget(mu) <= cap, and the
    # budget is strictly positive on each root, so partial sums past the
    # cap can never reach a target and are safe to drop.
    budget_cap = depth * max(abs(d[i] * sum(w.mat[i])) for i in range(n))

    counts = {datum.zero(): 1}
    budget = {datum.zero(): 0}
    for _, gamma, cost in roots:
        new = dict(counts)
        cur = counts
        while True:
            nxt = {}
            for mu, c in cur.items():
                b = budget[mu] + cost
                if b > budget_cap:
                    continue
                mu2 = tuple(map(add, mu, gamma))
                budget[mu2] = b
                nxt[mu2] = nxt.get(mu2, 0) + c
            if not nxt:
                break
            for mu, c in nxt.items():
                new[mu] = new.get(mu, 0) + c
            cur = nxt
        counts = new
    terms = {datum.root_to_fund(mu): c for mu, c in counts.items()
             if sum(map(abs, mu)) <= depth}
    return FormalCharacter(datum, terms)


def character_to_json(char, label, w_text, depth):
    datum = char.datum
    items = sorted(char.terms.items(),
                   key=lambda kv: (datum.depth(kv[0]), kv[0]))
    doc = {
        "schema": SCHEMA_CHAR,
        "type": label,
        "w": w_text,
        "depth": depth,
        "terms": [{"weight": list(mu), "coeff": c} for mu, c in items],
    }
    return json_document(doc)
