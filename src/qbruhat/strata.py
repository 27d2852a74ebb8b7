"""The poset of comparable Bruhat pairs and its stratum ranks.

A pair (y, z) with y <= z in Bruhat order indexes a stratum; the partial
order used throughout is

    (y, z) >= (y', z')   iff   y <= y' and z' <= z,

so going down shrinks the interval from both ends at once.  Closures are
downward sets, Hasse edges are the covers of this order, and the rank
attached to a pair is the dimension of the fixed space of y^{-1} z.

The pair set, anchored or not, is convex in the product order
(W, >=) x (W, <=): if (y, z) >= (u, v) >= (y', z') with both ends in the
set, then u <= y' <= z' <= v (and u <= y' <= a <= z' <= v for an anchor
a), so (u, v) is in the set too.  Bruhat order is graded by length
(Bjorner-Brenti, *Combinatorics of Coxeter Groups*, ch. 2), so the covers
of a convex subset of the product are the product covers: move one end by
one Bruhat cover.  The Hasse diagram is built from that rule, on the
group's cover lists.

The pairs themselves come from the same lists: the upper set of each y
unanchored, and the product of the lower set [e, a] with the upper set
[a, w0] for an anchor a, since y <= a <= z already gives y <= z.  The
whole poset, without an anchor, is built only for the groups within the
poset row of ``cartan.SCOPE``; an anchored one for any group that is
built.
"""

from __future__ import annotations

from .cartan import check_scope
from .emit import csv_text, strata_document
from .weyl import format_word

SCHEMA_STRATA = "qbruhat/strata-v1"


class DiamondPoset:
    """All comparable pairs of a Weyl group, ordered by interval reversal.

    With an anchor a only the pairs y <= a <= z survive, i.e. the strata
    whose closure contains the anchored point.
    """

    def __init__(self, group, anchor=None):
        self.group = group
        self.anchor = anchor
        # y runs in (length, word) order and each list of z is sorted the
        # same way, so the pairs come out sorted by
        # (y.length, y.word, z.length, z.word)
        if anchor is None:
            check_scope(group.datum, "poset")
            ends = group.sorted_elements()
            rows = [(y, group.upper_set(y)) for y in ends]
        else:
            below, above = group.lower_set(anchor), group.upper_set(anchor)
            ends = below + above
            rows = [(y, above) for y in below]
        self.pairs = [(y, z) for y, zs in rows for z in zs]
        self._ends = ends
        # y.idx -> {z.idx: position of (y, z)}, rows in position order
        pos, k = {}, 0
        for y, zs in rows:
            pos[y.idx] = dict(zip([z.idx for z in zs], range(k, k + len(zs))))
            k += len(zs)
        self._rows = pos

    def __len__(self):
        return len(self.pairs)

    def index(self, y, z):
        return self._rows[y.idx][z.idx]

    def geq(self, i, j):
        """pairs[i] >= pairs[j] in the interval-reversal order."""
        (y1, z1), (y2, z2) = self.pairs[i], self.pairs[j]
        g = self.group
        return g.bruhat_leq(y1, y2) and g.bruhat_leq(z2, z1)

    def closure(self, i):
        """Indices of all pairs below pairs[i], itself included: the
        pairs (u, v) of the set with u and v both in [y, z]."""
        y, z = self.pairs[i]
        inside = [w.idx for w in self.group.interval(y, z)]
        out = []
        for u in inside:
            row = self._rows.get(u)
            if row:
                out += [row[v] for v in inside if v in row]
        return sorted(out)

    def _edges(self):
        """Covering edges (i, j) with pairs[i] covering pairs[j], in
        sorted order, one at a time.

        By convexity (see the module docstring) pairs[i] = (y, z) covers
        exactly the pairs (y, z') with z' a lower Bruhat cover of z and
        (y', z) with y' an upper Bruhat cover of y that lie in the set.
        Both are read off the group's cover lists in (length, word)
        order: the first kind lie in the row of y in that order, and the
        second in the later rows of the longer y', in the order of y'.
        """
        lower, upper = self.group.sorted_cover_lists()
        rows = self._rows
        for y, row in rows.items():
            above = [r for r in map(rows.get, upper[y]) if r is not None]
            for z, i in row.items():
                for u in lower[z]:
                    j = row.get(u)
                    if j is not None:
                        yield i, j
                for r in above:
                    j = r.get(z)
                    if j is not None:
                        yield i, j

    def hasse_edges(self):
        """Covering edges (i, j) with pairs[i] covering pairs[j], sorted."""
        return list(self._edges())

    def stratum_rank(self, i):
        y, z = self.pairs[i]
        return self.group.fixed_space_rank(self.group.left_quotient(y, z))

    def rank_table(self):
        g = self.group
        rank, quotient = g.fixed_space_rank, g.left_quotient
        return [rank(quotient(y, z)) for y, z in self.pairs]

    # -- serialization ---------------------------------------------------

    def _words(self):
        """The word text of every element of a pair, by index."""
        return {w.idx: format_word(w.word) for w in self._ends}

    def to_json(self):
        """The ``qbruhat/strata-v1`` document, written by template
        (``emit.strata_document``)."""
        anchor = self.anchor
        return strata_document(
            SCHEMA_STRATA, self.group.datum.label,
            format_word(anchor.word) if anchor is not None else None,
            self._words(),
            ((r, y.idx, z.idx)
             for r, (y, z) in zip(self.rank_table(), self.pairs)),
            self._edges())

    def to_dot(self):
        words = self._words()
        lines = ["digraph strata {"]
        lines += ['  n%d [label="%s | %s (r=%d)"];'
                  % (k, words[y.idx], words[z.idx], r)
                  for k, (r, (y, z))
                  in enumerate(zip(self.rank_table(), self.pairs))]
        lines += ["  n%d -> n%d;" % edge for edge in self._edges()]
        lines.append("}")
        return "\n".join(lines) + "\n"

    def to_csv(self):
        words = self._words()
        return csv_text(["y", "z", "rank"],
                        ([words[y.idx], words[z.idx], r]
                         for r, (y, z) in zip(self.rank_table(), self.pairs)))


def order_isomorphic(p1, p2):
    """Whether two finite posets given as DiamondPosets are isomorphic.

    Backtracking over length-profile classes; fine at the sizes here.
    """
    n1, n2 = len(p1), len(p2)
    if n1 != n2:
        return False
    rel1 = [[p1.geq(i, j) for j in range(n1)] for i in range(n1)]
    rel2 = [[p2.geq(i, j) for j in range(n2)] for i in range(n2)]
    # invariants per node: (# above, # below)
    def profile(rel):
        n = len(rel)
        return [(sum(rel[k][i] for k in range(n)),
                 sum(rel[i][k] for k in range(n))) for i in range(n)]
    pr1, pr2 = profile(rel1), profile(rel2)
    if sorted(pr1) != sorted(pr2):
        return False
    order = sorted(range(n1), key=lambda i: pr1[i])
    assign = [None] * n1
    used = [False] * n2

    def backtrack(pos):
        if pos == n1:
            return True
        i = order[pos]
        for j in range(n2):
            if used[j] or pr1[i] != pr2[j]:
                continue
            ok = True
            for pos2 in range(pos):
                k = order[pos2]
                m = assign[k]
                if rel1[i][k] != rel2[j][m] or rel1[k][i] != rel2[m][j]:
                    ok = False
                    break
            if ok:
                assign[i] = j
                used[j] = True
                if backtrack(pos + 1):
                    return True
                assign[i] = None
                used[j] = False
        return False

    return backtrack(0)
