"""Finite Weyl groups acting on fundamental-weight coordinates.

An element w is keyed by the vector w(rho) in fundamental coordinates:
the orbit of rho is regular (Humphreys, *Reflection Groups and Coxeter
Groups*, 1.12), so the vector determines w.  The whole group is one
breadth-first search over these vectors from rho, after its known order
(``group_order``) has been checked against the group row of
``cartan.SCOPE``; its step is the simple reflection of
``CartanDatum.reflect``, which changes only the coordinates k with
a[k][i] != 0.  The search keeps, for each simple generator s_i, the
table of left multiplication by s_i, an element's length (the depth at
which the search first reaches it) and its left descents, read off the
signs: s_i is a left descent of w iff (w rho)_i < 0.  The vectors are
dropped after the search, and construction does nothing else.

No element keeps a matrix.  An element acts on a weight by its word,
one ``reflect`` step per letter, right to left.  Fixed-space ranks read
the images w(omega_1), ..., w(omega_n), a ``memo`` table on the group
filled along descents: the images of w come from those of s_i w, for
the least left descent s_i, by one reflection each (Casselman,
"Computation in Coxeter groups I", Electron. J. Combin. 9, 2002).

Canonical reduced words are the lexicographically least ones:
word(w) = (i,) + word(s_i w) with s_i the least left descent of w.  On
the first read of any element's ``word`` the group fills the word of
every element in one pass in index order; breadth-first indices grow
with length, so s_i w, one shorter, is already done.  After that a word
is a slot on its element.  Bruhat order comes from Deodhar's descent
recursion on the table, and y^-1 z (``left_quotient``) is one walk of
y's word from z on it.  The Bruhat covers of every element are filled
in once per group, on first use, by the lifting property; intervals,
lower and upper sets are traversals of those cover lists.  One group is
kept per type; the word pass, covers (by index and in (length, word)
order), supports, fundamental images, fixed-space ranks, the diagram
involution and the sorted order are ``memo`` tables on the group, word
texts are a ``memo`` table on ``format_word``, and Bruhat comparisons
keep a table of every pair the descent recursion meets.  The
matrix-keyed search, the recursive word memo, the subword test, a
reflection-chain closure, the covers found by scanning neighbouring
length levels and y^-1 z as the inverse times z live in the test suite
as oracles.
"""

from __future__ import annotations

import re

from .cartan import build_cartan, check_scope, group_order
from .obs import memo


class WeylElem:
    __slots__ = ("group", "idx", "length", "_word")

    def __init__(self, group, idx, length):
        self.group = group
        self.idx = idx
        self.length = length
        self._word = None

    @property
    def word(self):
        """The canonical reduced word, 0-based letters."""
        word = self._word
        if word is None:
            self.group._fill_words()
            word = self._word
        return word

    def act(self, mu):
        """w(mu), the letters of the word applied right to left."""
        return self.group.datum.reflect(mu, reversed(self.word))

    def __mul__(self, other):
        return self.group.multiply(self, other)

    def inverse(self):
        return self.group.inverse(self)

    def __eq__(self, other):
        if not isinstance(other, WeylElem):
            return NotImplemented
        return self.group is other.group and self.idx == other.idx

    def __hash__(self):
        return hash((id(self.group), self.idx))

    def __repr__(self):
        return "WeylElem(%s)" % (format_word(self.word),)


@memo(tuple)
def format_word(word):
    """The text of a word, ``s1 s2 s1`` or ``e``.  The library formats
    only canonical words, so the table holds at most |W| entries for each
    type whose group has been built."""
    if not word:
        return "e"
    return " ".join(["s%d" % (i + 1) for i in word])


def parse_word(text, rank):
    """Parse a word like ``s1 s2 s1`` (or ``e``) into 0-based letters.
    A generator is ``s`` and an index in ASCII digits with no leading
    zero; signs, underscores and other digits are bad tokens."""
    text = text.strip()
    if text in ("", "e"):
        return ()
    letters = []
    for tok in text.split():
        if not re.fullmatch(r"s(0|[1-9][0-9]*)", tok):
            raise ValueError("bad generator token %r" % (tok,))
        i = int(tok[1:])
        if not 1 <= i <= rank:
            raise ValueError("generator index %d out of range 1..%d"
                             % (i, rank))
        letters.append(i - 1)
    return tuple(letters)


class WeylGroup:
    """A finite Weyl group with its Bruhat combinatorics."""

    def __init__(self, datum):
        check_scope(datum, "group")
        self.datum = datum
        self.rank = n = datum.rank
        expected = group_order(datum.family, datum.rank)
        rho = (1,) * n
        index = {rho: 0}
        order = [rho]
        lengths = [0]
        lmul = [[] for _ in range(n)]
        descents = []
        # Breadth-first from rho: the depth at which w(rho) is first
        # reached is the distance of w in the Cayley graph, i.e. its
        # length, lmul[i][idx] is the index of s_i . elements[idx], and
        # bit i of descents[idx] is set iff s_i is a left descent.  The
        # loop writes out the step of ``datum.reflect`` on the datum's
        # table: one call per element and generator made the E6 search
        # about 20 % slower (0.22 s -> 0.27 s, 2-core VM, Python 3.11).
        for idx, v in enumerate(order):
            d = 0
            for i, col in enumerate(datum.reflection_steps):
                vi = v[i]
                if vi < 0:
                    d |= 1 << i
                u = list(v)
                for k, aki in col:
                    u[k] -= aki * vi
                p = tuple(u)
                j = index.get(p)
                if j is None:
                    j = index[p] = len(order)
                    order.append(p)
                    lengths.append(lengths[idx] + 1)
                lmul[i].append(j)
            descents.append(d)
        if len(order) != expected:
            raise AssertionError("enumerated %d elements, expected %d"
                                 % (len(order), expected))
        self.elements = [WeylElem(self, idx, length)
                         for idx, length in enumerate(lengths)]
        self._descents = descents
        self._lmul = lmul
        self._length = lengths
        self.identity = self.elements[0]
        self.gens = [self.elements[lmul[i][0]] for i in range(n)]
        # filled by bruhat_leq with every pair its descent loop meets,
        # so it is a path table rather than one memo entry per call
        self._bruhat = {}
        # w0 rho = -rho
        self.longest = self.elements[index[(-1,) * n]]
        n_pos = len(datum.positive_roots)
        if self.longest.length != n_pos:
            raise AssertionError("longest element length %d != %d"
                                 % (self.longest.length, n_pos))

    @classmethod
    @memo(lambda cls, datum_or_label: _as_datum(datum_or_label).label)
    def build(cls, datum_or_label):
        """The group of a datum or type label, one per type."""
        return cls(_as_datum(datum_or_label))

    # -- group structure ------------------------------------------------

    def __len__(self):
        return len(self.elements)

    def element(self, idx):
        return self.elements[idx]

    def _left_apply(self, letters, j):
        """Index of s_{a_k} ... s_{a_1} . elements[j] for letters a_1..a_k:
        each letter left-multiplies in turn."""
        for i in letters:
            j = self._lmul[i][j]
        return j

    def multiply(self, x, y):
        return self.elements[self._left_apply(reversed(x.word), y.idx)]

    def inverse(self, x):
        """Applying x's word in order to e spells the reversed word."""
        return self.elements[self._left_apply(x.word, 0)]

    def left_quotient(self, y, z):
        """y^-1 z, by one walk of y's word from z: for y = s_{a_1} ...
        s_{a_k}, y^-1 z = s_{a_k} ... s_{a_1} z, so the letters
        left-multiply z in the order they are written."""
        return self.elements[self._left_apply(y.word, z.idx)]

    def from_word(self, word):
        return self.elements[self._left_apply(reversed(word), 0)]

    def parse(self, text):
        return self.from_word(parse_word(text, self.rank))

    @memo()
    def _fill_words(self):
        """Set every element's word, in index order: s_i w has a smaller
        index than w for a left descent s_i."""
        elements, lmul = self.elements, self._lmul
        elements[0]._word = ()
        for w in elements[1:]:
            i = self._first_descent(w.idx)
            w._word = (i,) + elements[lmul[i][w.idx]]._word

    def _first_descent(self, idx):
        """The least i with s_i a left descent of elements[idx]."""
        d = self._descents[idx]
        return (d & -d).bit_length() - 1

    def left_descent(self, w, i):
        return bool(self._descents[w.idx] >> i & 1)

    # -- Bruhat order ---------------------------------------------------

    def bruhat_leq(self, y, z):
        """Deodhar's descent recursion (the Z-property): for a left
        descent s of z, y <= z iff sy <= sz when sy < y, and iff y <= sz
        otherwise.  Each step shortens z, so a query takes at most l(z)
        steps; every pair met on the way shares the answer and is
        memoised."""
        memo = self._bruhat
        key = (y.idx, z.idx)
        result = memo.get(key)
        if result is not None:
            return result
        length, lmul = self._length, self._lmul
        yi, zi = key
        met = [key]
        while True:
            ly, lz = length[yi], length[zi]
            if ly >= lz:
                result = yi == zi
                break
            if ly == 0:
                result = True
                break
            s = self._first_descent(zi)
            sy = lmul[s][yi]
            if length[sy] < ly:
                yi = sy
            zi = lmul[s][zi]
            key = (yi, zi)
            if key in memo:
                result = memo[key]
                break
            met.append(key)
        for key in met:
            memo[key] = result
        return result

    # -- Bruhat covers ---------------------------------------------------

    @memo()
    def cover_lists(self):
        """Lower and upper Bruhat covers of every element, as index lists
        sorted by index; built once per group, on first use.

        Lifting property (Bjorner-Brenti, Prop. 2.2.7): for a left
        descent s of w, the coatoms of w are sw and s.x for each coatom x
        of sw with s.x > x.  Breadth-first indices grow with length, so
        sw is done before w.  Upper covers are the transposed lists.
        """
        length, lmul = self._length, self._lmul
        lower = [[]]
        for w in range(1, len(length)):
            row = lmul[self._first_descent(w)]
            v = row[w]
            covers = [v]
            for x in lower[v]:
                sx = row[x]
                if length[sx] > length[x]:
                    covers.append(sx)
            covers.sort()
            lower.append(covers)
        upper = [[] for _ in lower]
        for w, covers in enumerate(lower):
            for u in covers:
                upper[u].append(w)
        return lower, upper

    @memo()
    def sorted_cover_lists(self):
        """The lists of ``cover_lists``, each in (length, word) order."""
        position = self._sorted()[1].__getitem__
        return tuple([sorted(covers, key=position) for covers in lists]
                     for lists in self.cover_lists())

    def _reach(self, start, covers, keep=None):
        """Elements reachable from index ``start`` through ``covers``,
        visiting only indices that pass ``keep``; sorted by
        (length, word)."""
        seen = {start}
        stack = [start]
        while stack:
            for v in covers[stack.pop()]:
                if v not in seen and (keep is None or keep(v)):
                    seen.add(v)
                    stack.append(v)
        return [self.elements[u]
                for u in sorted(seen, key=self._sorted()[1].__getitem__)]

    def interval(self, y, z):
        """All w with y <= w <= z, sorted by (length, word); empty unless
        y <= z.  A downward traversal from z that visits only elements
        above y: intervals are graded, so every element of [y, z] lies on
        a chain of covers from z that stays inside [y, z]."""
        if not self.bruhat_leq(y, z):
            return []
        return self._reach(z.idx, self.cover_lists()[0],
                           lambda u: self.bruhat_leq(y, self.elements[u]))

    def lower_set(self, z):
        """All w <= z, sorted by (length, word)."""
        return self._reach(z.idx, self.cover_lists()[0])

    def upper_set(self, y):
        """All w >= y, sorted by (length, word)."""
        return self._reach(y.idx, self.cover_lists()[1])

    # -- reflection-length data -----------------------------------------

    @memo(lambda self, w: w.idx)
    def fundamental_images(self, w):
        """w(omega_1), ..., w(omega_n), from the images of s_i w for the
        least left descent s_i of w by one reflection each; s_i fixes an
        image whose i-th coordinate is 0, which is kept as it is.  Only
        the descent chain of w down to e is filled."""
        datum = self.datum
        if not w.idx:
            return tuple(datum.fund(j) for j in range(self.rank))
        i = self._first_descent(w.idx)
        images = self.fundamental_images(self.elements[self._lmul[i][w.idx]])
        return tuple(self._image_step(mu, i) if mu[i] else mu
                     for mu in images)

    @memo(lambda self, mu, i: (mu, i))
    def _image_step(self, mu, i):
        """s_i mu, one tuple per (mu, i): the images lie in the orbits of
        the fundamental weights, so the images of E6's 51 840 elements
        share 1 272 entries of this table instead of holding about
        200 000 tuples of their own."""
        return self.datum.reflect(mu, (i,))

    @memo(lambda self, w: w.idx)
    def fixed_space_rank(self, w):
        """Dimension of the fixed lattice of w, the corank of w - 1, whose
        transpose has the rows w(omega_j) - omega_j."""
        rows = [[c - (j == k) for k, c in enumerate(mu)]
                for j, mu in enumerate(self.fundamental_images(w))]
        return self.rank - _integer_rank(rows)

    def reflection_length(self, w):
        """Codimension of the fixed space (Carter's theorem)."""
        return self.rank - self.fixed_space_rank(w)

    # -- the diagram involution -----------------------------------------

    @memo()
    def theta(self):
        """Permutation t with w0 . omega_i = -omega_{t(i)} (0-based): each
        w0(omega_i) must come out as -e_t for some t."""
        n = self.rank
        out = []
        for i in range(n):
            v = self.longest.act(self.datum.fund(i))
            if sorted(v) != [-1] + [0] * (n - 1):
                raise AssertionError("longest element does not negate "
                                     "fundamental weight %d" % (i + 1))
            out.append(v.index(-1))
        return tuple(out)

    # -- supports -------------------------------------------------------

    @memo()
    def supports(self):
        """(support of w, support of w0 w) for every element, by index,
        as bit masks: bit i is set iff s_i occurs in a reduced word.  For
        the first letter s_i of w's word, supp(w) = supp(s_i w) + {i} and
        w0 w = s_theta(i) . w0 (s_i w), because w0 s_i w0 = s_theta(i);
        indices grow with length, so s_i w is done before w."""
        lmul, theta = self._lmul, self.theta()
        supp, opp = [0], [self.longest.idx]
        for w in self.elements[1:]:
            i = w.word[0]
            v = lmul[i][w.idx]
            supp.append(supp[v] | 1 << i)
            opp.append(lmul[theta[i]][opp[v]])
        return [(s, supp[o]) for s, o in zip(supp, opp)]

    @memo()
    def _sorted(self):
        """The elements in (length, word) order, and the position of each
        element in it, by index."""
        order = sorted(self.elements, key=lambda w: (w.length, w.word))
        position = [0] * len(order)
        for k, w in enumerate(order):
            position[w.idx] = k
        return order, position

    def sorted_elements(self):
        """All elements in (length, word) order."""
        return list(self._sorted()[0])

    def __repr__(self):
        return "WeylGroup(%s, order %d)" % (self.datum.label, len(self))


def _as_datum(datum_or_label):
    if isinstance(datum_or_label, str):
        return build_cartan(datum_or_label)
    return datum_or_label


def _integer_rank(rows):
    """Rank of a square integer matrix, given as a list of rows that is
    reduced in place, by fraction-free elimination: each row below the
    pivot becomes pivot * row - entry * pivot row."""
    rank = 0
    for c in range(len(rows)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[c]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c]
            if f:
                rows[r] = [p * x - f * t for x, t in zip(rows[r], top)]
        rank += 1
    return rank

