"""Earlier implementations, kept as test oracles.

Each computes the same thing as a faster routine of the library by a
different road: a Weyl group by a breadth-first search over whole
action matrices (``matrix_keyed_search``, its matrices kept per datum
by ``search_matrices``), the fixed lattice by an exact kernel over
Laurent scalars of such a matrix, the positive roots by closing the
simple roots in root coordinates (``root_coordinate_closure``),
Bruhat covers by scanning the neighbouring length level, canonical
words by a recursion memoised per element
(``recursive_canonical_word``), the pair poset by testing every pair of
the group, its JSON document as a dict-of-dicts through ``json.dumps``
(``dict_strata_json``), y^-1 z as the inverse times z
(``inverse_product``), the centre's orbit lists element by element
rather than once per pair of support masks (``per_element_centre``),
scalar sums and products
by the general loops and an uncached gcd on every product, the printed
text of a ratio by Euclid's algorithm over Q on ``Fraction``
coefficients, over a monic denominator (``monic_text``), canonical
echelon forms by Gauss-Jordan elimination over the whole matrix with a
monomial pivot preferred in each column (``gauss_jordan_rref``),
subspace meets by a Zassenhaus reduction whatever the operands,
closures by a breadth-first search reduced afresh on every insertion,
their orthogonals as (rows, pivots) tuples by ``kernel``, pair pieces
as the sum of the two orthogonals
(``sum_of_orthogonals_pair_piece``), modules by stepping off the
fundamental weight of the highest index, saturation steps by the kernel
of that sum of orthogonals in degree nu + k rho, against products with
the extreme row itself, its scalar included, tensor closures by a
block solver with its own elimination and change-of-basis table, and
the raising matrices of the fundamental seeds as the mirrors of their
lowering edges.  Tensor
closures also by rows pivoting on their first nonzero coordinate, and
module relations by the commutator E_i F_j - F_j E_i, negated product
and all, and by the Serre relations, which the library derives from the
commutators and the weight grading, summed by Horner's scheme with
X_i X_j and X_j X_i shared (``serre_failures``).  B2's
vector module V(omega_1), a seed in the library, also as the closure
from the highest-weight line of spin ox spin, the kernel of the tensor
raising action ``_tensor_e`` on its weight block
(``_submodule_from_highest``).  The q-commutation congruences on dense
product rows of length dim V(nu + lam), and the left-ideal pieces they
are tested against from the same dense rows
(``dense_check_commutation``), each product a dense row by the
earlier dense ``multiply`` (``dense_multiply``).  The canonical extreme
vectors, which the library no longer builds, by divided lowering
powers along the canonical word (``canonical_extreme_vector``), and the
extreme rows scaled to take value 1 on them (``canonical_extreme_row``).

Cone multiplicities by brute-force partition enumeration
(``brute_cone_count``), which never calls the library's character code.

Small helpers that only tests call live here too: root-lattice
membership (``in_root_lattice``), the lowest exponent of a Laurent
polynomial (``min_exp``), a dense row as a sparse one (``sparse``),
the scalar of a product of extreme rows (``extreme_product_scalar``),
the comparable pairs of a group in (length, word) order
(``bruhat_pairs``) and the block offsets a sweep of small modules
reaches (``eta_sweep``).
"""

import functools
import itertools
import json
from collections import Counter, deque
from fractions import Fraction

from qbruhat.characters import weyl_character, weyl_dim
from qbruhat.coordring import _transpose
from qbruhat.exactalg import (Laurent, ONE, RatFun, Subspace, ZERO,
                              _common_factor, _coprime_quotient, _exact_quo,
                              _ratfun, coerce_scalar, dot,
                              identity_matrix, kernel, q_binomial,
                              q_factorial, q_int, reduce_against)
from qbruhat.strata import SCHEMA_STRATA
from qbruhat.uqmodules import (_SEED_TABLE, _bump, _close_tensor,
                               _compose, _module_from_edges,
                               _raising_matrices, _reorder_module,
                               _tensor_f, GradedPiece, UqModule)


class _BlockSolver:
    """Growing independent family inside one weight block.

    Vectors live in an ambient space indexed by arbitrary hashable keys.
    Adopted vectors keep their raw coordinates; an echelon copy plus a
    change-of-basis table lets dependent vectors be written exactly over
    the adopted ones.
    """

    def __init__(self, keys):
        self.keys = list(keys)
        self.pos = {k: t for t, k in enumerate(self.keys)}
        self.rows = []
        self.pivots = []
        self.trans = []
        self.adopted = []

    def _reduce(self, vec):
        v = [ZERO] * len(self.keys)
        for k, c in vec.items():
            v[self.pos[k]] = c
        used = []
        for k, (row, p) in enumerate(zip(self.rows, self.pivots)):
            c = v[p]
            if not c:
                continue
            used.append((k, c))
            for t in range(len(v)):
                if row[t]:
                    v[t] = v[t] - c * row[t]
        return v, used

    def _combo(self, used):
        coeffs = {}
        for k, c in used:
            for j, t in enumerate(self.trans[k]):
                if t:
                    coeffs[j] = coeffs.get(j, ZERO) + c * t
        return [(self.adopted[j], c) for j, c in sorted(coeffs.items()) if c]

    def add(self, vec, global_id):
        """Adopt vec under global_id if independent (returning None),
        otherwise return its expression over the earlier vectors."""
        v, used = self._reduce(vec)
        piv = next((t for t, c in enumerate(v) if c), None)
        if piv is None:
            return self._combo(used)
        inv = ONE / v[piv]
        tnew = [ZERO] * len(self.adopted)
        for k, c in used:
            for j, t in enumerate(self.trans[k]):
                if t:
                    tnew[j] = tnew[j] - c * t
        tnew = [x * inv for x in tnew]
        tnew.append(inv)
        for t in self.trans:
            t.append(ZERO)
        self.rows.append([x * inv for x in v])
        self.pivots.append(piv)
        self.trans.append(tnew)
        self.adopted.append(global_id)
        return None


def mirror_module_from_edges(datum, lam, weights, edges):
    """A seed module from its lowering edges, every raising edge the
    mirror of a lowering one with entry 1."""
    rank = datum.rank
    fmat = [dict() for _ in range(rank)]
    emat = [dict() for _ in range(rank)]
    parents = [None] * len(weights)
    for gen, src, dst in edges:
        fmat[gen].setdefault(src, {})[dst] = ONE
        emat[gen].setdefault(dst, {})[src] = ONE
        if parents[dst] is None and dst:
            parents[dst] = (src, gen)
    return UqModule(datum, lam, weights, parents, fmat, emat)


def matrix_keyed_search(datum):
    """The Weyl group of a datum as (matrices, lengths, lmul): a search
    from the identity matrix, one length level at a time and, within a
    level, generator by generator, each product keyed by its whole
    matrix, with lmul[i][idx] the index of s_i . matrices[idx].  A
    product new to the search is one level up.  g_i . m changes only the
    rows k with a[k][i] != 0: row_k -= a[k][i] * row_i."""
    n, a = datum.rank, datum.cartan
    columns = [[(k, a[k][i]) for k in range(n) if a[k][i]] for i in range(n)]
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    index, order, lengths = {ident: 0}, [ident], [0]
    lmul = [[] for _ in range(n)]
    start, depth = 0, 0
    while start < len(order):
        level, start = order[start:], len(order)
        depth += 1
        for i, col in enumerate(columns):
            for m in level:
                rows = list(m)
                for k, aki in col:
                    rows[k] = tuple([x - aki * y
                                     for x, y in zip(m[k], m[i])])
                p = tuple(rows)
                j = index.get(p)
                if j is None:
                    j = index[p] = len(order)
                    order.append(p)
                    lengths.append(depth)
                lmul[i].append(j)
    return order, lengths, lmul


@functools.cache
def search_matrices(datum):
    """The action matrices of ``matrix_keyed_search``, kept per datum; a
    group's element of index idx has matrix ``search_matrices(datum)
    [idx]``, since the two searches share their left multiplication
    table (``test_group_matches_matrix_keyed_search``)."""
    return matrix_keyed_search(datum)[0]


def fixed_lattice(group, w):
    """Kernel of w - 1 on the weight lattice, as an exact Subspace, from
    w's matrix in the matrix-keyed search."""
    n = group.rank
    mat = search_matrices(group.datum)[w.idx]
    rows = [[Laurent.const(mat[i][j] - (1 if i == j else 0))
             for j in range(n)] for i in range(n)]
    return Subspace(n, *kernel(rows, n))


def root_coordinate_closure(datum):
    """The positive roots in simple-root coordinates, sorted by (height,
    coordinates): the simple roots closed under the simple reflections
    written in root coordinates, c_i -= sum_j a[i][j] c_j."""
    n = datum.rank
    a = datum.cartan
    simple = [tuple(1 if j == i else 0 for j in range(n))
              for i in range(n)]
    seen = set(simple)
    queue = list(simple)
    while queue:
        c = queue.pop()
        for i in range(n):
            pairing = sum(a[i][j] * c[j] for j in range(n))
            new = list(c)
            new[i] -= pairing
            new = tuple(new)
            if new not in seen:
                seen.add(new)
                queue.append(new)
    pos = [c for c in seen if all(x >= 0 for x in c)]
    pos.sort(key=lambda c: (sum(c), c))
    return tuple(pos)


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


def recursive_canonical_word(group, w, table=None):
    """The lexicographically least reduced word of w: its least left
    descent s_i, then the word of s_i w, memoised per element index in
    ``table``."""
    if table is None:
        table = {}
    if w.idx == 0:
        return ()
    if w.idx not in table:
        i = next(i for i in range(group.rank) if group.left_descent(w, i))
        table[w.idx] = (i,) + recursive_canonical_word(
            group, group.elements[group._lmul[i][w.idx]], table)
    return table[w.idx]


def dict_strata_json(poset):
    """The strata document of a DiamondPoset, built as a dict-of-dicts
    and encoded by ``json.dumps(indent=2, sort_keys=True)``, with words
    from the recursion and spelled out here."""
    table = {}

    def word(w):
        letters = recursive_canonical_word(poset.group, w, table)
        return " ".join("s%d" % (i + 1) for i in letters) or "e"

    doc = {
        "schema": SCHEMA_STRATA,
        "type": poset.group.datum.label,
        "anchor": word(poset.anchor) if poset.anchor is not None else None,
        "pairs": [
            {"y": word(y), "z": word(z),
             "rank": poset.group.fixed_space_rank(inverse_product(y, z))}
            for y, z in poset.pairs
        ],
        "edges": [[i, j] for i, j in poset.hasse_edges()],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def inverse_product(y, z):
    """y^-1 z as the product of the inverse element and z: two walks of
    y's word, the road stratum ranks took before ``left_quotient``."""
    return y.inverse() * z


def per_element_centre(group, w):
    """The four contributing orbit lists of w's centre (minus fixed,
    minus paired, plus fixed, plus paired), worked out for w alone from
    its two support masks."""
    theta = group.theta()
    n = group.rank
    moved, flipped = group.supports()[w.idx]
    fixed = [i for i in range(n) if theta[i] == i]
    paired = [(i, theta[i]) for i in range(n) if theta[i] > i]
    return ([i for i in fixed if not moved >> i & 1],
            [(i, j) for i, j in paired if not (moved >> i | moved >> j) & 1],
            [i for i in fixed if not flipped >> i & 1],
            [(i, j) for i, j in paired
             if not (flipped >> i | flipped >> j) & 1])


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
            out[e] = s
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


def fraction_poly_add(a, b):
    """a + b for polynomials over Q given as exponent dicts."""
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def fraction_poly_mul(a, b):
    """a * b for polynomials over Q given as exponent dicts."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def fraction_poly_gcd(a, b):
    """Monic gcd over Q by the Euclidean algorithm on Fraction
    coefficients: the reference for the integer pseudo-remainder gcd."""
    a = {e: Fraction(c) for e, c in a.items()}
    b = {e: Fraction(c) for e, c in b.items()}
    while b:
        db = max(b)
        lead = b[db]
        while a and max(a) >= db:
            da = max(a)
            f = a[da] / lead
            for e, c in b.items():
                ne = da - db + e
                s = a.get(ne, 0) - f * c
                if s:
                    a[ne] = s
                elif ne in a:
                    del a[ne]
        a, b = b, a
    if not a:
        return {0: Fraction(1)}
    lead = a[max(a)]
    return {e: c / lead for e, c in a.items()}


def _fraction_quotient(a, g):
    """a / g over Q for an ordinary polynomial g dividing a."""
    a, quo = dict(a), {}
    dg = max(g)
    while a and max(a) >= dg:
        da = max(a)
        f = quo[da - dg] = a[da] / g[dg]
        a = fraction_poly_add(a, {da - dg + e: -f * c for e, c in g.items()})
    if a:
        raise AssertionError("%s does not divide %s" % (g, a))
    return quo


def _fraction_text(p):
    """Ascending text of a Laurent polynomial over Q, written out term by
    term from its Fraction coefficients."""
    if not p:
        return "0"
    text = ""
    for e in sorted(p):
        c = p[e]
        if not e:
            body = str(c)
        else:
            qpart = "q" if e == 1 else "q^%d" % e
            body = (qpart if c == 1 else "-" + qpart if c == -1
                    else "%s*%s" % (c, qpart))
        if not text:
            text = body
        elif body.startswith("-"):
            text += " - " + body[1:]
        else:
            text += " + " + body
    return text


def monic_text(num, den):
    """The printed text of num/den for Laurent polynomials over Q given as
    exponent dicts, den nonzero: both parts divided by their monic gcd
    over Q (Euclid on Fractions), the power of q moved out of the
    denominator and the denominator made monic.  A quotient that is a
    Laurent polynomial prints as one."""
    num = {e: Fraction(c) for e, c in num.items() if c}
    den = {e: Fraction(c) for e, c in den.items() if c}
    if not num:
        return "0"
    shift = min(num) - min(den)
    num = {e - min(num): c for e, c in num.items()}
    den = {e - min(den): c for e, c in den.items()}
    g = fraction_poly_gcd(num, den)
    num, den = _fraction_quotient(num, g), _fraction_quotient(den, g)
    lead = den[max(den)]
    num = {e + shift: c / lead for e, c in num.items()}
    den = {e: c / lead for e, c in den.items()}
    if den == {0: 1}:
        return _fraction_text(num)
    return "(%s)/(%s)" % (_fraction_text(num), _fraction_text(den))


def gauss_jordan_rref(rows):
    """Canonical reduced row echelon form by column-by-column Gauss-Jordan
    elimination over the whole matrix, preferring a monomial pivot in
    each column.  Returns (echelon_rows, pivot_columns)."""
    m = [[coerce_scalar(x) for x in row] for row in rows]
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
        for i in range(pivot_row, len(m)):
            x = m[i][col]
            if isinstance(x, Laurent) and x and x.is_monomial():
                pivot_row = i
                break
        m[r], m[pivot_row] = m[pivot_row], m[r]
        row_r = m[r]
        right = [j for j in range(col + 1, ncols) if row_r[j]]
        if right:
            inv = ONE / row_r[col]
            for j in right:
                row_r[j] = row_r[j] * inv
        row_r[col] = ONE
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                row_i = m[i]
                for j in right:
                    row_i[j] = row_i[j] - f * row_r[j]
                row_i[col] = ZERO
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def zassenhaus_intersect(a, b):
    """U meet W by one Zassenhaus reduction, for every pair of operands."""
    n = a.ambient
    ech, piv = gauss_jordan_rref([row + row for row in a.rows]
                                 + [row + [ZERO] * n for row in b.rows])
    meet = [(row[n:], p - n) for row, p in zip(ech, piv) if p >= n]
    return Subspace(n, [r for r, _ in meet], [p for _, p in meet])


def rref_demazure_blocks(module, w, sign):
    """Per-weight echelon bases of the closure of the extreme vector,
    each block reduced afresh by ``gauss_jordan_rref`` whenever it
    grows."""
    apply_gen = module.e_apply if sign == "+" else module.f_apply
    blocks = {}

    def insert(vec):
        wt = module.weights[min(vec)]
        rng = module.weight_indices(wt)
        dense = [ZERO] * len(rng)
        for k, c in vec.items():
            dense[k - rng.start] = c
        rows, piv = blocks.get(wt, ([], []))
        res = reduce_against(rows, piv, dense)
        if not any(res):
            return False
        blocks[wt] = gauss_jordan_rref(rows + [res])
        return True

    start = canonical_extreme_vector(module, w)
    insert(start)
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(module.datum.rank):
                img = apply_gen(i, v)
                if img and insert(img):
                    nxt.append(img)
        frontier = nxt
    return blocks


def tuple_demazure_orth(module, w, sign):
    """The blocks of ``CoordinateModel.demazure_orth`` as (rows, pivots)
    tuples over the ``rref_demazure_blocks`` closure: a block the
    closure misses is the full block, a full closure block is skipped,
    and any other block is the ``kernel`` of the closure rows."""
    closure = rref_demazure_blocks(module, w, sign)
    blocks = {}
    for wt in module.block_order:
        n = len(module.weight_indices(wt))
        entry = closure.get(wt)
        if entry is None:
            blocks[wt] = (identity_matrix(n), list(range(n)))
        elif len(entry[0]) < n:
            blocks[wt] = kernel([list(r) for r in entry[0]], n)
    return blocks


def sum_of_orthogonals_pair_piece(model, y, z, lam, orths=None):
    """The pair piece of (y, z) in degree lam as the sum of two
    orthogonals: per block, the ``gauss_jordan_rref`` of the rows of the
    ``tuple_demazure_orth`` blocks of y with sign '-' and of z with sign
    '+'.  ``orths``, when given, keeps those blocks across calls."""
    orths = {} if orths is None else orths
    module = model.module(lam)
    parts = []
    for w, sign in ((y, "-"), (z, "+")):
        key = (w.idx, sign, tuple(lam))
        if key not in orths:
            orths[key] = tuple_demazure_orth(module, w, sign)
        parts.append(orths[key])
    blocks = {}
    for wt in module.block_order:
        rows = [list(r) for part in parts for r in part.get(wt, ([],))[0]]
        if rows:
            blocks[wt] = Subspace(len(module.weight_indices(wt)),
                                  *gauss_jordan_rref(rows))
    return GradedPiece(module, blocks)


def max_index_irrep(datum, lam, built):
    """The module of highest weight lam, stepping off the fundamental
    weight of the highest index in lam's support; every smaller module
    is built the same way and kept in ``built``, none is taken from the
    library's table.  Modules are not verified."""
    lam = tuple(lam)
    if lam in built:
        return built[lam]
    nz = [i for i in range(datum.rank) if lam[i]]
    if len(nz) == 1 and lam[nz[0]] == 1:
        module = _module_from_edges(
            datum, lam, *_SEED_TABLE[datum.family, datum.rank][nz[0]])
    else:
        step = datum.fund(max(nz))
        module = _close_tensor(
            datum, max_index_irrep(datum, datum.sub(lam, step), built),
            max_index_irrep(datum, step, built), lam, weyl_dim(datum, lam))
    built[lam] = module
    return module


def restrict_cell(module, cell, wt, scale):
    """Dense coordinates, times scale, of a sparse product cell on the
    block of weight wt; raises when the cell leaves that block."""
    trg = module.weight_indices(wt)
    out = [ZERO] * len(trg)
    for t, c in cell.items():
        if t not in trg:
            raise AssertionError("product escapes the target block")
        out[t - trg.start] = scale * c
    return out


def pair_piece_saturation(model, y, z, nu, bound, by="z"):
    """The pieces of ``model.saturation``, each step k taking the kernel
    of the pair piece of degree nu + k rho, built as a sum of
    orthogonals, on the blocks it reads.  The products are taken with
    the anchor's canonical extreme row, its scalar ex included, and
    each block is checked to equal the one taken with the unit row of
    the line j0."""
    datum = model.datum
    anchor = z if by == "z" else y
    mnu = model.module(nu)
    pieces = [sum_of_orthogonals_pair_piece(model, y, z, nu)]
    for k in range(1, bound + 1):
        krho = tuple(k * c for c in datum.rho())
        lam_t = datum.add(nu, krho)
        target = sum_of_orthogonals_pair_piece(model, y, z, lam_t)
        big = model.module(lam_t)
        (j0, ex), = canonical_extreme_row(model, krho, anchor).items()
        table = model.pair_table(krho, nu)
        shift = anchor.act(krho)
        blocks = {}
        for wt in mnu.block_order:
            rng = mnu.weight_indices(wt)
            twt = datum.add(shift, wt)
            trg = big.weight_indices(twt)
            entry = target.blocks.get(twt)
            srows = [list(r) for r in entry.rows] if entry else []
            cons = kernel(srows, len(trg))[0] if len(trg) else []
            if not cons:
                blocks[wt] = Subspace.full(len(rng))
                continue
            found = []
            for scale in (ex, ONE):
                imgs = [restrict_cell(big, table.get((j0, t), {}), twt,
                                      scale) for t in rng]
                gmat = [[dot(img, kr) for kr in cons] for img in imgs]
                found.append(kernel(_transpose(gmat, len(cons)), len(rng)))
            if found[0] != found[1]:
                raise AssertionError("the extreme scalar changes block %s "
                                     "at step %d" % (wt, k))
            ech, piv = found[0]
            if ech:
                blocks[wt] = Subspace(len(rng), ech, piv)
        pieces.append(GradedPiece(mnu, blocks))
    return pieces


def dense_multiply(model, lam, rowa, mu, rowb):
    """Product of two dense dual rows, as a dense row of degree lam+mu,
    every pair of nonzero entries summed into it through its product
    cell."""
    big = model.module(model.datum.add(lam, mu))
    table = model.pair_table(lam, mu)
    out = [ZERO] * big.dim
    for r, a in enumerate(rowa):
        if not a:
            continue
        for s, b in enumerate(rowb):
            if not b:
                continue
            cell = table.get((r, s))
            if not cell:
                continue
            ab = a * b
            for t, c in cell.items():
                out[t] = out[t] + ab * c
    return out


def sparse(row):
    """A dense row as a sparse one: its nonzero entries by index."""
    return {k: c for k, c in enumerate(row) if c}


def dense_product_cell(model, lam, r, mu, s):
    """The product of the dual basis rows delta_r (degree lam) and
    delta_s (degree mu) as a dense row, by ``dense_multiply`` on unit
    rows."""
    def unit(deg, k):
        return [ONE if t == k else ZERO
                for t in range(model.module(deg).dim)]
    return dense_multiply(model, lam, unit(lam, r), mu, unit(mu, s))


def dense_left_ideal_piece(model, lam, eta, side, nu):
    """``model.left_ideal_piece`` from dense product rows, each cut to
    its weight block and reduced by ``Subspace.from_vectors``."""
    datum = model.datum
    mlam = model.module(lam)
    nu_dim = model.module(nu).dim
    big = model.module(datum.add(nu, lam))
    per = {}
    for wt in mlam.block_order:
        below, above = (wt, eta) if side == "+" else (eta, wt)
        if tuple(wt) == tuple(eta) or not datum.dominance_leq(below, above):
            continue
        for s in mlam.weight_indices(wt):
            for r in range(nu_dim):
                row = dense_product_cell(model, nu, r, lam, s)
                supp = [k for k, c in enumerate(row) if c]
                if not supp:
                    continue
                rng = big.weight_indices(big.weights[supp[0]])
                if supp[-1] >= rng.stop:
                    raise AssertionError("product spans two weight blocks")
                per.setdefault(big.weights[supp[0]], []).append(
                    [row[k] for k in rng])
    return GradedPiece(big, {wt: Subspace.from_vectors(len(rws[0]), rws)
                             for wt, rws in per.items()})


def dense_check_commutation(model, nu, mu, lam, eta):
    """``model.check_commutation`` on dense rows: both products as rows
    of length dim V(nu + lam), subtracted entry by entry, and tested
    against the dense left-ideal pieces; raises the library's text."""
    qe = model.commutation_factor(lam, nu, mu, eta)
    jplus = dense_left_ideal_piece(model, lam, eta, "+", nu)
    jminus = dense_left_ideal_piece(model, lam, eta, "-", nu)
    for r in model.module(nu).weight_indices(mu):
        for s in model.module(lam).weight_indices(eta):
            front = dense_product_cell(model, nu, r, lam, s)
            back = dense_product_cell(model, lam, s, nu, r)
            diff = [a - qe * b for a, b in zip(front, back)]
            if not jplus.contains_cell(sparse(diff)):
                raise AssertionError(
                    "plus congruence fails at (r=%d, s=%d), weights "
                    "mu=%s eta=%s, degrees nu=%s lam=%s"
                    % (r, s, mu, eta, tuple(nu), tuple(lam)))
            diff2 = [b - qe * a for a, b in zip(front, back)]
            if not jminus.contains_cell(sparse(diff2)):
                raise AssertionError(
                    "minus congruence fails at (r=%d, s=%d), weights "
                    "mu=%s eta=%s, degrees nu=%s lam=%s"
                    % (r, s, mu, eta, tuple(nu), tuple(lam)))
    return True


def first_pivot_close_tensor(datum, m1, m2, seed, lam, expected):
    """The lowering closure inside m1 ox m2 whose echelon rows pivot on
    the first nonzero coordinate of their residue, whatever it is."""
    rank = datum.rank
    pos, size = {}, Counter()
    for r in range(m1.dim):
        for s in range(m2.dim):
            wt = datum.add(m1.weights[r], m2.weights[s])
            pos[r, s] = size[wt]
            size[wt] += 1
    blocks = {}

    def adopt(vec, wt, idx):
        rows, pivots, adopted = blocks.setdefault(wt, ([], [], []))
        n = size[wt]
        v = [ZERO] * (2 * n)
        for key, c in vec.items():
            v[pos[key]] = c
        v = reduce_against(rows, pivots, v)
        p = next((t for t in range(n) if v[t]), None)
        if p is None:
            return {adopted[j]: -c for j, c in enumerate(v[n:]) if c}
        v[n + len(adopted)] = ONE
        inv = ONE / v[p]
        rows.append([c * inv for c in v])
        pivots.append(p)
        adopted.append(idx)
        return None

    basis, wts, parents = [dict(seed)], [lam], [None]
    if adopt(basis[0], lam, 0) is not None:
        raise AssertionError("seed vector is zero")
    fmat = [dict() for _ in range(rank)]
    queue = deque([0])
    while queue:
        k = queue.popleft()
        for i in range(rank):
            img = _tensor_f(datum, m1, m2, i, basis[k])
            if not img:
                continue
            wt2 = datum.sub(wts[k], datum.simple_root(i))
            idx = len(basis)
            res = adopt(img, wt2, idx)
            if res is None:
                basis.append(img)
                wts.append(wt2)
                parents.append((k, i))
                fmat[i].setdefault(k, {})[idx] = ONE
                queue.append(idx)
            elif res:
                fmat[i][k] = res
    if len(basis) != expected:
        raise AssertionError("lowering closure reached dimension %d, "
                             "expected %d" % (len(basis), expected))
    return _reorder_module(datum, lam, wts, parents, fmat,
                           _raising_matrices(datum, wts, parents, fmat))


def _tensor_e(datum, m1, m2, i, vec):
    out = {}
    di = datum.d[i]
    for (r, s), c in vec.items():
        col = m1.emat[i].get(r)
        if col:
            kpow = -di * datum.coroot_pairing(m2.weights[s], i)
            cc = c * Laurent.q_power(kpow)
            for r2, f in col.items():
                _bump(out, (r2, s), cc * f)
        col = m2.emat[i].get(s)
        if col:
            for s2, f in col.items():
                _bump(out, (r, s2), c * f)
    return out


def _submodule_from_highest(datum, m1, m2, wt, expected):
    """Cyclic module generated by the highest-weight line of the given
    weight inside m1 ox m2; the line must be one-dimensional."""
    rank = datum.rank
    block = [(r, s) for r in range(m1.dim) for s in range(m2.dim)
             if datum.add(m1.weights[r], m2.weights[s]) == wt]
    rows = []
    for i in range(rank):
        imgs = {}
        for t, key in enumerate(block):
            img = _tensor_e(datum, m1, m2, i, {key: ONE})
            for pair, c in img.items():
                imgs.setdefault(pair, [ZERO] * len(block))[t] = c
        rows.extend(imgs.values())
    null, _ = kernel(rows, len(block))
    if len(null) != 1:
        raise AssertionError("highest-weight line at %s has dimension %d"
                             % (wt, len(null)))
    seed = {key: c for key, c in zip(block, null[0]) if c}
    return first_pivot_close_tensor(datum, m1, m2, seed, wt, expected)


def _mat_accum(total, mat, scal):
    """total += scal * mat on sparse matrices, in place."""
    for col, roww in mat.items():
        dst = total.setdefault(col, {})
        for r, c in roww.items():
            _bump(dst, r, scal * c)
        if not dst:
            del total[col]
    return total


def _serre_sum(xi, xj, m, d, xixj, xjxi):
    """sum_k (-1)^k [m k]_d xi^(m-k) xj xi^k, by Horner in xi: with
    R_k = xj xi^k, S <- xi S + c_k R_k for k = 1..m from S = R_0.  The
    (j, i) sum shares the products xixj = xi xj and xjxi = R_1, so the
    first step accumulates into a copy; later ones own their dicts."""
    term = xjxi
    total = _mat_accum({col: dict(r) for col, r in xixj.items()}, term,
                       -q_binomial(m, 1, d))
    for k in range(2, m + 1):
        term = _compose(term, xi)
        coeff = q_binomial(m, k, d)
        total = _mat_accum(_compose(xi, total), term,
                           -coeff if k % 2 else coeff)
    return total


def serre_failures(module):
    """The (side, i, j) whose quantum Serre sum is not zero on the
    module, side "E" or "F", each pair {i, j} sharing X_i X_j and
    X_j X_i."""
    datum = module.datum
    rank = datum.rank
    failed = []
    for side, mats in (("E", module.emat), ("F", module.fmat)):
        prods = {(i, j): _compose(mats[i], mats[j])
                 for i in range(rank) for j in range(rank) if i != j}
        for i, j in sorted(prods):
            m = 1 - datum.cartan[i][j]
            if _serre_sum(mats[i], mats[j], m, datum.d[i], prods[i, j],
                          prods[j, i]):
                failed.append((side, i, j))
    return failed


def negated_verify_module(module, group):
    """The defining relations checked as E_i F_j - F_j E_i = delta_ij
    [h_i], the product F_j E_i multiplied by -1, and then the Serre sums
    of ``serre_failures``; raises with the library's messages up to the
    commutators.  Where the library then checks the weight grading, this
    check sums the Serre relations instead."""
    datum = module.datum
    rank = datum.rank
    if module.dim != weyl_dim(datum, module.lam):
        raise AssertionError("dimension %d differs from the character "
                             "prediction %d"
                             % (module.dim, weyl_dim(datum, module.lam)))
    expected = weyl_character(datum, group, module.lam).terms
    if dict(Counter(module.weights)) != expected:
        raise AssertionError("weight multiset mismatch for %s"
                             % (module.lam,))
    for i in range(rank):
        for j in range(rank):
            comm = _compose(module.emat[i], module.fmat[j])
            _mat_accum(comm, _compose(module.fmat[j], module.emat[i]), -ONE)
            want = {}
            if i == j:
                for k in range(module.dim):
                    m = datum.coroot_pairing(module.weights[k], i)
                    val = q_int(m, datum.d[i])
                    if val:
                        want[k] = {k: val}
            if comm != want:
                raise AssertionError("commutator relation fails at (%d, %d)"
                                     % (i, j))
    failed = serre_failures(module)
    if failed:
        raise AssertionError("Serre relation fails at (%d, %d)"
                             % failed[0][1:])


def in_root_lattice(datum, mu):
    """True iff mu is an integer sum of simple roots."""
    den = datum._coord_den
    return all(n % den == 0 for n in datum._scaled_coords(mu))


def min_exp(p):
    """The lowest exponent of a nonzero Laurent polynomial."""
    if not p.coeffs:
        raise ValueError("zero polynomial has no exponents")
    return min(p.coeffs)


def canonical_extreme_vector(module, w):
    """Coordinates of the canonical extreme vector of weight w(lam):
    v_e is the highest vector, and v_w = F_i^(n) v_{s_i w} for the first
    letter i of the canonical word of w, with n = <s_i w lam, alpha_i^v>
    and the divided power F_i^(n) = F_i^n / [n]_{d_i}!."""
    if w.length == 0:
        return {0: ONE}
    i = w.word[0]
    grp = w.group
    shorter = grp.multiply(grp.gens[i], w)
    n = module.datum.coroot_pairing(shorter.act(module.lam), i)
    if n < 0:
        raise AssertionError("negative lowering exponent on the way "
                             "to %r" % (w,))
    vec = canonical_extreme_vector(module, shorter)
    for _ in range(n):
        vec = module.f_apply(i, vec)
    fact = q_factorial(n, module.datum.d[i])
    return {k: c / fact for k, c in vec.items()}


def canonical_extreme_row(model, lam, w):
    """The sparse dual row c_w(lam) of degree lam: the row of the extreme
    line of weight w(lam) taking value 1 on the canonical extreme
    vector; raises unless that vector lies on one line."""
    (j, c), = canonical_extreme_vector(model.module(lam), w).items()
    return {j: ONE / c}


def extreme_product_scalar(model, lam, mu, w):
    """The scalar s with c_w(lam) c_w(mu) = s . c_w(lam+mu), for the
    canonical extreme rows."""
    prod = model.multiply(lam, canonical_extreme_row(model, lam, w),
                          mu, canonical_extreme_row(model, mu, w))
    target = canonical_extreme_row(model, model.datum.add(lam, mu), w)
    (j, c), = target.items()
    s = prod.get(j, ZERO) / c
    if {j: s * c} != prod:
        raise AssertionError("extreme product is not proportional to "
                             "the extreme row")
    return s


def brute_cone_count(datum, target_rc, positives):
    """Number of ways to write target_rc as a nonnegative integer
    combination of the given positive-root coordinate vectors, by
    enumerating the multiplicity of each root in turn; it never calls
    the library's character or partition code."""
    def rec(rest, k):
        if k == len(positives):
            return 1 if all(c == 0 for c in rest) else 0
        root = positives[k]
        bound = min((rest[i] // root[i] for i in range(len(rest))
                     if root[i]), default=0)
        total = 0
        for m in range(int(bound) + 1):
            total += rec(tuple(rest[i] - m * root[i]
                               for i in range(len(rest))), k + 1)
        return total

    if any(c < 0 or c != int(c) for c in target_rc):
        return 0
    return rec(tuple(int(c) for c in target_rc), 0)


def bruhat_pairs(group):
    """The pairs y <= z, in (length, word) order of y, then of z."""
    return [(y, z) for y in group.sorted_elements()
            for z in group.sorted_elements() if group.bruhat_leq(y, z)]


def eta_sweep(model, w, top=2):
    """Every block offset of w reachable from a module with coordinates
    at most top."""
    etas = set()
    for lam in itertools.product(range(top + 1), repeat=model.datum.rank):
        mod = model.module(lam)
        wl = w.act(lam)
        for blk in mod.block_order:
            etas.add(model.datum.sub(blk, wl))
    return sorted(etas)
