"""Finite Weyl groups acting on fundamental-weight coordinates.

Elements are integer matrices.  The whole group is materialized eagerly
by a breadth-first search from the identity, after its known order has
been checked against a cap (``group_order``).  The search keeps, for each
simple generator s_i, the table of left multiplication by s_i, and an
element's length is the depth at which the search first reaches it.
Canonical reduced words are the lexicographically least ones, and Bruhat
order comes from Deodhar's descent recursion on the table.  The subword
test and a reflection-chain closure live in the test suite as oracles.
"""

from __future__ import annotations

from math import factorial

from .exactalg import Laurent, Subspace, kernel
from .cartan import build_cartan


class WeylElem:
    __slots__ = ("group", "idx", "mat", "length")

    def __init__(self, group, idx, mat, length):
        self.group = group
        self.idx = idx
        self.mat = mat
        self.length = length

    @property
    def word(self):
        return self.group.canonical_word(self)

    def act(self, mu):
        m = self.mat
        n = len(m)
        return tuple(sum(m[i][j] * mu[j] for j in range(n)) for i in range(n))

    def __mul__(self, other):
        return self.group.multiply(self, other)

    def inverse(self):
        return self.group.inverse(self)

    def is_identity(self):
        return self.length == 0

    def __eq__(self, other):
        if not isinstance(other, WeylElem):
            return NotImplemented
        return self.group is other.group and self.idx == other.idx

    def __hash__(self):
        return hash((id(self.group), self.idx))

    def __repr__(self):
        return "WeylElem(%s)" % (format_word(self.word),)


def format_word(word):
    if not word:
        return "e"
    return " ".join("s%d" % (i + 1) for i in word)


def parse_word(text, rank):
    """Parse a word like ``s1 s2 s1`` (or ``e``) into 0-based letters."""
    text = text.strip()
    if text in ("", "e"):
        return ()
    letters = []
    for tok in text.split():
        if not tok.startswith("s"):
            raise ValueError("bad generator token %r" % (tok,))
        try:
            i = int(tok[1:])
        except ValueError:
            raise ValueError("bad generator token %r" % (tok,))
        if not 1 <= i <= rank:
            raise ValueError("generator index %d out of range 1..%d"
                             % (i, rank))
        letters.append(i - 1)
    return tuple(letters)


def group_order(family, rank):
    """Order of the Weyl group of a type, known before enumeration."""
    if family == "A":
        return factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * factorial(rank)
    return _EXCEPTIONAL_ORDERS[(family, rank)]


_EXCEPTIONAL_ORDERS = {("E", 6): 51840, ("E", 7): 2903040,
                       ("E", 8): 696729600, ("F", 4): 1152, ("G", 2): 12}


class WeylGroup:
    """A finite Weyl group with its Bruhat combinatorics."""

    _CACHE = {}

    def __init__(self, datum, max_order=500000):
        self.datum = datum
        self.rank = datum.rank
        expected = group_order(datum.family, datum.rank)
        if expected > max_order:
            raise ValueError("the Weyl group of %s has order %d, over the "
                             "cap %d" % (datum.label, expected, max_order))
        # g_i . m changes only the rows k with a[k][i] != 0:
        # row_k -= a[k][i] * row_i.
        a = datum.cartan
        columns = [[(k, a[k][i]) for k in range(self.rank) if a[k][i]]
                   for i in range(self.rank)]
        ident = tuple(tuple(1 if i == j else 0 for j in range(self.rank))
                      for i in range(self.rank))
        index = {ident: 0}
        order = [ident]
        lengths = [0]
        lmul = [[] for _ in range(self.rank)]
        # Breadth-first from the identity: the depth at which an element
        # is first reached is its distance in the Cayley graph, i.e. its
        # length, and lmul[i][idx] is the index of s_i . elements[idx].
        for idx, m in enumerate(order):
            for i, col in enumerate(columns):
                rows = list(m)
                row_i = m[i]
                for k, aki in col:
                    rows[k] = tuple(x - aki * y for x, y in zip(m[k], row_i))
                p = tuple(rows)
                j = index.get(p)
                if j is None:
                    j = index[p] = len(order)
                    order.append(p)
                    lengths.append(lengths[idx] + 1)
                lmul[i].append(j)
        if len(order) != expected:
            raise AssertionError("enumerated %d elements, expected %d"
                                 % (len(order), expected))
        self.elements = [WeylElem(self, idx, m, lengths[idx])
                         for idx, m in enumerate(order)]
        self._lmul = lmul
        self._length = lengths
        self.identity = self.elements[0]
        self.gens = [self.elements[lmul[i][0]] for i in range(self.rank)]
        self._words = {0: ()}
        self._bruhat = {}
        self._fixed_rank = {}
        self.longest = max(self.elements, key=lambda e: e.length)
        n_pos = len(datum.positive_roots)
        if self.longest.length != n_pos:
            raise AssertionError("longest element length %d != %d"
                                 % (self.longest.length, n_pos))
        self._theta = self._diagram_involution()

    @classmethod
    def build(cls, datum_or_label, max_order=500000):
        if isinstance(datum_or_label, str):
            datum = build_cartan(datum_or_label)
        else:
            datum = datum_or_label
        key = datum.label
        if key not in cls._CACHE:
            cls._CACHE[key] = cls(datum, max_order=max_order)
        return cls._CACHE[key]

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
        word = self.canonical_word(x)
        return self.elements[self._left_apply(reversed(word), y.idx)]

    def inverse(self, x):
        """Applying x's word in order to e spells the reversed word."""
        return self.elements[self._left_apply(self.canonical_word(x), 0)]

    def from_word(self, word):
        return self.elements[self._left_apply(reversed(word), 0)]

    def parse(self, text):
        return self.from_word(parse_word(text, self.rank))

    def canonical_word(self, w):
        """The lexicographically least reduced word of w."""
        if w.idx not in self._words:
            i = next(i for i in range(self.rank) if self.left_descent(w, i))
            rest = self.elements[self._lmul[i][w.idx]]
            self._words[w.idx] = (i,) + self.canonical_word(rest)
        return self._words[w.idx]

    def left_descent(self, w, i):
        return self._length[self._lmul[i][w.idx]] < w.length

    def right_descent(self, w, i):
        return self.multiply(w, self.gens[i]).length < w.length

    def demazure_product(self, i, w):
        """The longer of s_i w and w."""
        sw = self.elements[self._lmul[i][w.idx]]
        return sw if sw.length > w.length else w

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
            s = next(i for i in range(self.rank) if length[lmul[i][zi]] < lz)
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

    def interval(self, y, z):
        """All w with y <= w <= z, sorted by (length, word)."""
        out = [w for w in self.elements
               if self.bruhat_leq(y, w) and self.bruhat_leq(w, z)]
        out.sort(key=lambda w: (w.length, w.word))
        return out

    # -- reflection-length data -----------------------------------------

    def fixed_lattice(self, w):
        """Kernel of w - 1 on the weight lattice, as an exact Subspace."""
        n = self.rank
        rows = [[Laurent.const(w.mat[i][j] - (1 if i == j else 0))
                 for j in range(n)] for i in range(n)]
        return Subspace(n, *kernel(rows, n))

    def fixed_space_rank(self, w):
        """Dimension of the fixed lattice of w, memoised by element."""
        rank = self._fixed_rank.get(w.idx)
        if rank is None:
            rank = self._fixed_rank[w.idx] = self.fixed_lattice(w).dim
        return rank

    def reflection_length(self, w):
        """Codimension of the fixed space (Carter's theorem)."""
        return self.rank - self.fixed_space_rank(w)

    def reflections(self):
        return [w for w in self.elements
                if w.length > 0 and self.fixed_space_rank(w) == self.rank - 1]

    # -- the diagram involution -----------------------------------------

    def theta(self):
        """Permutation t with w0 . omega_i = -omega_{t(i)} (0-based)."""
        return self._theta

    def _diagram_involution(self):
        w0 = self.longest
        out = []
        for i in range(self.rank):
            img = w0.act(self.datum.fund(i))
            target = None
            for j in range(self.rank):
                if img == self.datum.neg(self.datum.fund(j)):
                    target = j
                    break
            if target is None:
                raise AssertionError("longest element does not negate "
                                     "fundamental weight %d" % (i + 1))
            out.append(target)
        return tuple(out)

    def sorted_elements(self):
        return sorted(self.elements, key=lambda w: (w.length, w.word))

    def __repr__(self):
        return "WeylGroup(%s, order %d)" % (self.datum.label, len(self))

