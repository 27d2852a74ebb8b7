"""Earlier implementations of Weyl-group queries, kept as test oracles.

Each computes the same thing as a faster routine of the library by a
different road: the fixed lattice by an exact kernel over Laurent
scalars, Bruhat covers by scanning the neighbouring length level, and
the pair poset by testing every pair of the group.
"""

from qbruhat.exactalg import Laurent, Subspace, kernel


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
