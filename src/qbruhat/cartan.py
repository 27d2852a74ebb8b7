"""Cartan data for the finite crystallographic types.

Weights are plain tuples of integers in fundamental-weight coordinates
throughout the package; this module owns the conversions and pairings.
The symmetric bilinear form is normalized so short roots have squared
length two, which keeps every pairing of a root-lattice element with an
integral weight an integer.  One datum is kept per type, whatever the
case of its label.

The supported scope is declared here once, in ``SCOPE``: the ranks of
each family, the largest Weyl group enumerated, the largest group whose
whole pair poset is built without an anchor, the types with module
arithmetic, the largest module built and the largest depth ball a cone
character is truncated to.  ``build_cartan`` refuses a
rank outside its family's range; ``check_scope`` refuses a type outside
the group, poset or module row, from the known group order
(``group_order``), so nothing is enumerated to decide.  Each layer calls
it before it builds anything, and the command line calls it for every
layer a subcommand uses before any of them runs.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, gcd, lcm

from .obs import memo


# The supported scope, one row per layer, in the order the command line
# checks them.
SCOPE = {
    # data: each family's least and greatest rank
    "ranks": {"A": (1, 8), "B": (2, 4), "C": (2, 4), "D": (4, 5),
              "E": (6, 8), "F": (4, 4), "G": (2, 2)},
    # group: the largest Weyl group enumerated; E7 and E8 are refused
    "group": 500000,
    # poset: the largest group whose whole pair poset is built without an
    # anchor (D5); an anchored poset needs only its group
    "poset": 1920,
    # modules: the types with module arithmetic, one seed table each in
    # ``uqmodules``, and the largest module built
    "modules": ("A1", "A2", "B2"),
    "module_dim": 400,
    # characters: the most lattice points in the depth ball of a cone
    # character; A8 has 40 081 at the default depth 6
    "depth_ball": 50000,
}


class ModuleScopeError(ValueError):
    """Module arithmetic was requested outside the supported scope."""


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


def check_scope(datum, *layers):
    """Refuse ``datum`` unless each named layer, taken in order, supports
    it: ``"group"`` enumerates its Weyl group, ``"poset"`` builds the
    whole pair poset without an anchor, ``"modules"`` does module
    arithmetic.  The group and poset rows raise ValueError, the module
    row ModuleScopeError."""
    order = group_order(datum.family, datum.rank)
    for layer in layers:
        if layer == "modules" and datum.label not in SCOPE["modules"]:
            *names, last = SCOPE["modules"]
            raise ModuleScopeError("module arithmetic is limited to types "
                                   "%s and %s" % (", ".join(names), last))
        if layer != "modules" and order > SCOPE[layer]:
            use = (" for a pair poset without an anchor"
                   if layer == "poset" else "")
            raise ValueError("the Weyl group of %s has order %d, over the "
                             "cap %d%s" % (datum.label, order, SCOPE[layer],
                                           use))


def _dynkin_edges(family, rank):
    """Edge list (i, j, a_ij, a_ji) on 0-based nodes, i < j."""
    edges = []
    if family == "A":
        for i in range(rank - 1):
            edges.append((i, i + 1, -1, -1))
    elif family == "B":
        # the last simple root is the short one
        for i in range(rank - 2):
            edges.append((i, i + 1, -1, -1))
        edges.append((rank - 2, rank - 1, -1, -2))
    elif family == "C":
        for i in range(rank - 2):
            edges.append((i, i + 1, -1, -1))
        edges.append((rank - 2, rank - 1, -2, -1))
    elif family == "D":
        for i in range(rank - 3):
            edges.append((i, i + 1, -1, -1))
        edges.append((rank - 3, rank - 2, -1, -1))
        edges.append((rank - 3, rank - 1, -1, -1))
    elif family == "E":
        # nodes 0,2,3,4,...,rank-1 form a chain; node 1 hangs off node 3
        chain = [0, 2, 3] + list(range(4, rank))
        for a, b in zip(chain, chain[1:]):
            edges.append((min(a, b), max(a, b), -1, -1))
        edges.append((1, 3, -1, -1))
    elif family == "F":
        edges.append((0, 1, -1, -1))
        edges.append((1, 2, -1, -2))
        edges.append((2, 3, -1, -1))
    elif family == "G":
        # first root short, second long
        edges.append((0, 1, -3, -1))
    return edges


def _cartan_matrix(family, rank):
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2
    for i, j, aij, aji in _dynkin_edges(family, rank):
        a[i][j] = aij
        a[j][i] = aji
    return tuple(tuple(row) for row in a)


def _symmetrizers(a):
    """Minimal positive integers d with d_i a_ij = d_j a_ji."""
    n = len(a)
    d = [None] * n
    d[0] = Fraction(1)
    queue = [0]
    while queue:
        i = queue.pop()
        for j in range(n):
            if i != j and a[i][j] and d[j] is None:
                d[j] = d[i] * Fraction(a[i][j], a[j][i])
                queue.append(j)
    if any(x is None for x in d):
        raise ValueError("Dynkin diagram is not connected")
    denom = lcm(*(x.denominator for x in d))
    ints = [x * denom for x in d]
    g = gcd(*(x.numerator for x in ints))
    return tuple(int(x / g) for x in ints)


def _invert_rational(mat):
    n = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(n)]
           + [Fraction(1 if j == i else 0) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [x / f for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                g = aug[r][col]
                aug[r] = [x - g * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


class CartanDatum:
    """Cartan matrix, symmetrizers, bilinear form and positive roots."""

    def __init__(self, label, family, rank):
        self.label = label
        self.family = family
        self.rank = rank
        self.cartan = _cartan_matrix(family, rank)
        self.d = _symmetrizers(self.cartan)
        # The inverse Cartan matrix as integer numerators over one common
        # denominator, so root coordinates and everything built on them
        # (inner, depth, height, dominance) stay in the integers.
        inv = _invert_rational(self.cartan)
        self._coord_den = lcm(*(x.denominator for row in inv for x in row))
        self._coord_num = tuple(tuple(int(x * self._coord_den) for x in row)
                                for row in inv)
        # s_i changes only the coordinates k with a[k][i] != 0:
        # v_k -= a[k][i] * v_i; ``reflect`` applies it, and the Weyl
        # group's search reads the table directly.
        a = self.cartan
        self.reflection_steps = tuple(
            tuple((k, a[k][i]) for k in range(rank) if a[k][i])
            for i in range(rank))
        self.positive_roots = self._close_roots()

    # -- weights (fundamental coordinates) ------------------------------

    def zero(self):
        return (0,) * self.rank

    def fund(self, i):
        """The i-th fundamental weight, 0-based index."""
        return tuple(1 if j == i else 0 for j in range(self.rank))

    def rho(self):
        return (1,) * self.rank

    def simple_root(self, i):
        """Fundamental coordinates of the i-th simple root."""
        return tuple(self.cartan[k][i] for k in range(self.rank))

    def add(self, mu, nu):
        return tuple(a + b for a, b in zip(mu, nu))

    def sub(self, mu, nu):
        return tuple(a - b for a, b in zip(mu, nu))

    def neg(self, mu):
        return tuple(-a for a in mu)

    def coroot_pairing(self, mu, i):
        """<mu, alpha_i^vee>; in fundamental coordinates just mu[i]."""
        return mu[i]

    def _scaled_coords(self, mu):
        """Root coordinates of mu times ``_coord_den``, as integers."""
        return tuple(sum(a * m for a, m in zip(row, mu))
                     for row in self._coord_num)

    def root_coords(self, mu):
        """Coordinates of mu over the simple roots, as Fractions."""
        den = self._coord_den
        return tuple(Fraction(n, den) for n in self._scaled_coords(mu))

    def root_to_fund(self, coords):
        return tuple(sum(self.cartan[i][j] * coords[j]
                         for j in range(self.rank))
                     for i in range(self.rank))

    def inner(self, mu, nu):
        """The W-invariant form (mu, nu), short roots of squared length 2."""
        r = self._scaled_coords(mu)
        return Fraction(sum(r[j] * self.d[j] * nu[j]
                            for j in range(self.rank)), self._coord_den)

    def dominance_leq(self, mu, nu):
        """True iff nu - mu is a nonnegative integer sum of simple roots."""
        den = self._coord_den
        return all(n >= 0 and n % den == 0
                   for n in self._scaled_coords(self.sub(nu, mu)))

    def is_dominant(self, mu):
        return all(c >= 0 for c in mu)

    def height(self, mu):
        """Sum of root coordinates; only sensible on root-lattice weights."""
        total, rem = divmod(sum(self._scaled_coords(mu)), self._coord_den)
        if rem:
            raise ValueError("%r is not in the root lattice" % (mu,))
        return total

    def depth(self, mu):
        """Sum of absolute root coordinates of a root-lattice weight."""
        total, rem = divmod(sum(abs(n) for n in self._scaled_coords(mu)),
                            self._coord_den)
        if rem:
            raise ValueError("%r is not in the root lattice" % (mu,))
        return total

    # -- roots ----------------------------------------------------------

    def reflect(self, mu, letters):
        """s_{i_k} ... s_{i_1} mu for letters i_1, ..., i_k: each letter
        reflects the weight in turn, in fundamental coordinates."""
        v = list(mu)
        steps = self.reflection_steps
        for i in letters:
            vi = v[i]
            if vi:
                for k, aki in steps[i]:
                    v[k] -= aki * vi
        return tuple(v)

    def _close_roots(self):
        """The positive roots in simple-root coordinates, sorted by
        (height, coordinates): the closure of the simple roots under the
        simple reflections, read in root coordinates."""
        n = self.rank
        seen = {self.simple_root(i) for i in range(n)}
        queue = list(seen)
        while queue:
            mu = queue.pop()
            for i in range(n):
                new = self.reflect(mu, (i,))
                if new not in seen:
                    seen.add(new)
                    queue.append(new)
        den = self._coord_den
        roots = [tuple(c // den for c in self._scaled_coords(mu))
                 for mu in seen]
        return tuple(sorted((c for c in roots if min(c) >= 0),
                            key=lambda c: (sum(c), c)))

    def __repr__(self):
        return "CartanDatum(%s)" % self.label


def build_cartan(label):
    """Cartan datum for a type label such as ``A2``, ``B3`` or ``G2``;
    labels that spell the same type (``a2``, ``A2``) give one datum."""
    ranks = SCOPE["ranks"]
    if not label or label[0].upper() not in ranks:
        raise ValueError("unknown type label %r" % (label,))
    family = label[0].upper()
    try:
        rank = int(label[1:])
    except ValueError:
        raise ValueError("bad rank in type label %r" % (label,))
    lo, hi = ranks[family]
    if not lo <= rank <= hi:
        raise ValueError("rank %d out of the supported range %d..%d for %s"
                         % (rank, lo, hi, family))
    return _datum(family + str(rank), family, rank)


@memo(lambda label, family, rank: label)
def _datum(label, family, rank):
    return CartanDatum(label, family, rank)
