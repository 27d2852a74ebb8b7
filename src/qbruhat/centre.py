"""Centre dimensions of the cell algebras, from Weyl combinatorics alone.

For each Weyl element w the centre of the attached cell algebra is a
Laurent polynomial ring whose rank is read off two conditions on the
fundamental weights: an orbit of the diagram involution contributes on
the minus side when w fixes its fundamental weights, and on the plus
side when w sends them where the longest element does.  Orbits of size
two contribute through their combined weight, which is the one whose
extreme coefficients can pair into a central element.

The centrality exponent is the bookkeeping identity behind those
generators: moving the product of the top and bottom extreme rows of
degree nu past a coefficient of weight data (lam, mu) multiplies it by
q to the power (nu + w0 nu, mu - lam), which vanishes exactly when w0
negates nu.  It is computed symbolically; nothing here touches module
arithmetic.  The contributing orbits depend on w only through the
supports of w and of w0 w, so they are worked out once per type and
pair of support masks.
"""

from __future__ import annotations

from .obs import memo
from .weyl import WeylGroup, format_word


class CentreData:
    """Per-element centre description: the contributing orbit indices on
    each side and the resulting dimension."""

    def __init__(self, w, minus_fixed, minus_paired, plus_fixed,
                 plus_paired):
        self.w = w
        self.minus_fixed = minus_fixed
        self.minus_paired = minus_paired
        self.plus_fixed = plus_fixed
        self.plus_paired = plus_paired

    @property
    def dim(self):
        return (len(self.minus_fixed) + len(self.minus_paired)
                + len(self.plus_fixed) + len(self.plus_paired))

    def generators(self):
        out = []
        for i in self.minus_fixed:
            out.append("z[w%d]" % (i + 1))
        for i, j in self.minus_paired:
            out.append("z[w%d+w%d]" % (i + 1, j + 1))
        for i in self.plus_fixed:
            out.append("z[w%d]^-1" % (i + 1))
        for i, j in self.plus_paired:
            out.append("z[w%d+w%d]^-1" % (i + 1, j + 1))
        return out

    def __repr__(self):
        return "CentreData(%s, dim %d)" % (format_word(self.w.word),
                                           self.dim)


def centre_of(group, w):
    """The centre data of w, whose four orbit lists depend only on the
    support masks of w and of w0 w (``_orbit_lists``)."""
    return CentreData(w, *_orbit_lists(group, *group.supports()[w.idx]))


@memo(lambda group, moved, flipped: (group.datum.label, moved, flipped))
def _orbit_lists(group, moved, flipped):
    """The contributing orbits on each side for an element whose support
    is the mask ``moved`` and that of w0 w the mask ``flipped``, kept once
    per type and pair of masks and shared by every ``CentreData`` with
    those masks.

    The stabiliser of a dominant weight is the standard parabolic
    subgroup of the simple reflections that fix it (Humphreys, 1.10-1.12),
    so w . omega_i = omega_i iff s_i is not in the support of w.  And
    w . omega_i = w0 . omega_i = -omega_theta(i) iff w0 w fixes omega_i."""
    theta = group.theta()
    n = group.rank
    fixed = [i for i in range(n) if theta[i] == i]
    paired = [(i, theta[i]) for i in range(n) if theta[i] > i]
    minus_fixed = [i for i in fixed if not moved >> i & 1]
    minus_paired = [(i, j) for i, j in paired
                    if not (moved >> i | moved >> j) & 1]
    plus_fixed = [i for i in fixed if not flipped >> i & 1]
    plus_paired = [(i, j) for i, j in paired
                   if not (flipped >> i | flipped >> j) & 1]
    return minus_fixed, minus_paired, plus_fixed, plus_paired


def centre_table(label):
    """(element, CentreData) for every element, in (length, word) order."""
    group = WeylGroup.build(label)
    return [(w, centre_of(group, w)) for w in group.sorted_elements()]


def full_centre_rank(label):
    """Centre dimension of the two extreme cells: one contribution per
    orbit of the diagram involution."""
    group = WeylGroup.build(label)
    theta = group.theta()
    return sum(1 for i in range(group.rank) if theta[i] >= i)


def distinguishing_scan(labels=("A1", "A2", "A3", "B2", "B3")):
    """Check, type by type, that the centre dimension separates the two
    extreme cells from all others: dim at e equals dim at w0 equals the
    orbit count, and every other element comes out strictly smaller.
    Returns a report list; raises on a counterexample."""
    report = []
    for label in labels:
        group = WeylGroup.build(label)
        w0 = group.longest
        expect = full_centre_rank(label)
        table = centre_table(label)
        dims = {w.idx: data.dim for w, data in table}
        for name, w in (("e", group.identity), ("w0", w0)):
            if dims[w.idx] != expect:
                raise AssertionError("%s: dim at %s is %d, expected %d"
                                     % (label, name, dims[w.idx], expect))
        middle = [w for w, _ in table
                  if w.idx not in (group.identity.idx, w0.idx)]
        offenders = [w for w in middle if dims[w.idx] >= expect]
        if offenders:
            raise AssertionError(
                "%s: %s reaches the extreme centre dimension"
                % (label, format_word(offenders[0].word)))
        report.append({
            "type": label,
            "order": len(group),
            "extreme_dim": expect,
            "max_middle_dim": max((dims[w.idx] for w in middle), default=0),
        })
    return report


def centrality_exponent(datum, group, nu, lam, mu):
    """The two q-exponents picked up when the paired extreme rows of
    degree nu move past a coefficient with weights (lam, mu), and their
    sum.  Requires w0(nu) = -nu, the condition for the pair to exist."""
    w0 = group.longest
    w0nu = w0.act(nu)
    if datum.add(nu, w0nu) != datum.zero():
        raise ValueError("degree %s is not negated by the longest element"
                         % (nu,))
    shift = datum.sub(mu, lam)
    top = datum.inner(nu, shift)
    bottom = datum.inner(w0nu, shift)
    return top, bottom, top + bottom
