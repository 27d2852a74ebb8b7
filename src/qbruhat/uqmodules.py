"""Integrable highest-weight modules for rank <= 2 quantized enveloping
algebras, over the exact scalar field.

Each module carries sparse lowering and raising matrices for the Chevalley
generators, a weight for every basis vector, and the exact lowering word
that produced each basis vector from the highest one (its parent chain).
That last piece is what lets the coordinate-ring layer replay any basis
vector inside a tensor product without choosing new bases.

Every fundamental module is a seed entered by hand.  Every other module
is one cyclic lowering closure inside a tensor product of smaller ones;
independence is decided one weight block at a time.  V(lam) is closed
from v_lam' ox v_omega_i inside V(lam') ox V(omega_i), lam' = lam -
omega_i, with omega_i the fundamental weight of least dimension among
lam's nonzero coordinates, ties going to the larger coordinate and then
to the higher index.  On A2 this walks the staircase k.rho, (k, k-1),
(k-1, k-1), ... that the coordinate ring needs anyway; on B2 it steps
off the spin module whenever lam has a spin coordinate.  The module does
not depend on that choice.  The closure replays F-words on the highest
weight vector breadth first and keeps a word exactly when it is
independent of the earlier ones in its weight block; each block keeps
an echelon basis whose rows carry their coordinates over the kept
words.  While a block holds fewer words than its multiplicity in the
Weyl character, ``reduce_against`` decides independence and leaves the
coefficients of a dependent word in the residue.  Once it holds that
many, every later word landing there is dependent: its image is
computed only at the block's pivot coordinates and its coefficients
are solved from the triangular system the rows form there
(``_close_tensor`` has the argument, and why a wrong multiplicity
cannot pass).  A row is kept as its residue stands, not scaled to one
at its pivot, and pivots on a monomial coordinate, a unit of
Z[q, q^-1], when it has one, so most rows stay in the Laurent ring.
What it records, the kept words (parents) and the coefficients of each
dependent word over them (fmat), are linear relations among F-words
applied to v_lam, which hold in V(lam) itself, whatever tensor product
or echelon basis realizes it; the coefficients are unique, so neither
the pivots nor the way they are solved for changes them.

The raising matrices are not computed in the tensor product: each basis
vector t = F_i p gets E_j t = F_i E_j p +
delta_ij [<wt p, alpha_i^v>]_{d_i} p from its parent, so they follow from
the lowering matrices by the relation [E_i, F_j] = delta_ij [h_i].  The
fundamental modules entered by hand get theirs by the same rule.  Every
construction is then checked against the dimension formula, the weight
multiset, all commutators (E_i F_j against F_j E_i + delta_ij [h_i]) and
the weight grading of every matrix entry; the quantum Serre relations
follow from those (see ``verify_module``), and that check is the only
guard on the matrices.  Verified modules are kept per type and highest
weight, and extreme vectors per module and Weyl element, by ``memo``.
Modules are built only for the types of the module row of
``cartan.SCOPE``, one seed table each, and only up to its largest
dimension.

The extreme-vector (Demazure) closures follow Demazure's recursion.
The raising closure V_w of v_{w lam} is, for s_i u > u, U(p_i) V_u =
sum_k F_i^k V_u (Joseph; Andersen-Polo-Wen, Invent. Math. 104, 1991;
Kashiwara, Duke Math. J. 71, 1993), so it is the line v_lam closed
under one F_i per letter of the reduced word of w, read right to left.
The lowering closure of v_{y lam} is the same statement twisted by the
Chevalley involution, which swaps E_i with F_i and lam with -w0 lam:
the lowest line closed under E_i along the reversed word of y w0.
``demazure_blocks`` has the argument.

Conventions.  The comultiplication used for tensor actions is

    F (x ox y) = F x ox y + K x ox F y
    E (x ox y) = E x ox K^{-1} y + x ox E y

and dual vectors are rows paired against the basis, carrying the right
action (r . u)(v) = r(u v).  A row supported in the weight-mu block has
support weight mu; the lowering generators raise support weight by a
simple root and the raising generators lower it.  String lengths on rows
satisfy <support weight, coroot_i> = eps_i - phi_i.
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import groupby

from .cartan import SCOPE, ModuleScopeError, check_scope
from .exactalg import (Laurent, ONE, ZERO, Subspace, echelon_insert,
                       q_factorial, q_int, reduce_against)
from .characters import weyl_character, weyl_dim
from .obs import memo
from .weyl import WeylGroup


def _row_apply(mat, row, dim):
    """Dense row times sparse matrix (column -> {row: entry})."""
    out = [ZERO] * dim
    for k in range(dim):
        col = mat.get(k)
        if not col:
            continue
        acc = ZERO
        for r, f in col.items():
            if row[r]:
                acc = acc + row[r] * f
        out[k] = acc
    return out


def _bump(out, key, c):
    """out[key] += c in a sparse vector: c is stored on first touch, and
    a zero sum is dropped."""
    s = out.get(key)
    if s is None:
        out[key] = c
    elif s := s + c:
        out[key] = s
    else:
        del out[key]


def _apply(mat, vec):
    """Sparse matrix (column -> {row: entry}) times sparse vector; an
    entry ONE skips its product."""
    out = {}
    for k, c in vec.items():
        col = mat.get(k)
        if not col:
            continue
        for r, f in col.items():
            _bump(out, r, f if c is ONE else c if f is ONE else c * f)
    return out


class UqModule:
    """A finite-dimensional module with exact matrices for the generators.

    fmat[i] and emat[i] map a column index to the sparse image vector of
    that basis vector; weights are fundamental-coordinate tuples; parents
    records, for each non-highest basis vector, the pair (parent index,
    generator) whose raw lowering image it is.  Basis order groups equal
    weights into contiguous blocks, highest weight first.
    """

    def __init__(self, datum, lam, weights, parents, fmat, emat):
        self.datum = datum
        self.lam = tuple(lam)
        self.weights = list(weights)
        self.parents = list(parents)
        self.fmat = fmat
        self.emat = emat
        self.dim = len(weights)
        self.blocks = {}
        stop = 0
        for wt, run in groupby(self.weights):
            if wt in self.blocks:
                raise AssertionError("weight block %s is not contiguous"
                                     % (wt,))
            start, stop = stop, stop + len(list(run))
            self.blocks[wt] = range(start, stop)
        self.block_order = list(self.blocks)
        if self.weights[0] != self.lam:
            raise AssertionError("basis does not start at the highest weight")

    def weight_indices(self, wt):
        return self.blocks.get(tuple(wt), range(0))

    # -- actions on column vectors (dicts index -> scalar) ---------------

    def f_apply(self, i, vec):
        return _apply(self.fmat[i], vec)

    def e_apply(self, i, vec):
        return _apply(self.emat[i], vec)

    def f_divided(self, i, vec, n):
        for _ in range(n):
            vec = self.f_apply(i, vec)
        fact = q_factorial(n, self.datum.d[i])
        return {k: c / fact for k, c in vec.items()}

    @memo(lambda self, w: w.idx)
    def extreme_vector(self, w):
        """Coordinates of the canonical extreme vector of weight w(lam),
        produced by divided lowering powers along the canonical word."""
        if w.length == 0:
            return {0: ONE}
        i = w.word[0]
        grp = w.group
        shorter = grp.multiply(grp.gens[i], w)
        n = self.datum.coroot_pairing(shorter.act(self.lam), i)
        if n < 0:
            raise AssertionError("negative lowering exponent on the way "
                                 "to %r" % (w,))
        return self.f_divided(i, self.extreme_vector(shorter), n)

    # -- right action on rows (dense lists) -------------------------------

    def row_f(self, i, row):
        return _row_apply(self.fmat[i], row, self.dim)

    def row_e(self, i, row):
        return _row_apply(self.emat[i], row, self.dim)

    def row_support_weight(self, row):
        """The single block weight carrying the support of the row."""
        wts = {self.weights[k] for k, c in enumerate(row) if c}
        if len(wts) != 1:
            raise ValueError("row support spans %d weight blocks" % len(wts))
        return next(iter(wts))

    def __repr__(self):
        return "UqModule(%s, lam=%s, dim %d)" % (self.datum.label, self.lam,
                                                 self.dim)


# -- defining-relation verification ---------------------------------------


def _compose(a, b):
    out = {}
    for col, brow in b.items():
        acc = {}
        for r, c in brow.items():
            arow = a.get(r)
            if not arow:
                continue
            for r2, c2 in arow.items():
                _bump(acc, r2, c2 if c is ONE else c if c2 is ONE else c * c2)
        if acc:
            out[col] = acc
    return out


def verify_module(module, group):
    """Recheck the dimension, the weight multiset, the commutators and
    the weight grading of the generators; raises on the first failure.

    The quantum Serre relations follow from these checks and are not
    summed.  Let K_i act on weight mu by q_i^{mu_i}, q_i = q^{d_i}.  If
    every F_i (E_i) maps weight mu to mu - alpha_i (mu + alpha_i), with
    alpha_i the i-th column of the Cartan matrix, then K_i E_j K_i^-1 =
    q_i^{a_ij} E_j and K_i F_j K_i^-1 = q_i^{-a_ij} F_j; with [E_i, F_j]
    = delta_ij [h_i]_{d_i}, each E_i, F_i, K_i make the module M a
    U_{q_i}(sl_2)-module whose K_i-eigenvalues are integral powers of
    q_i.  So is End(M) under the adjoint action of the coproduct
    Delta E = E ox 1 + K ox E, Delta F = F ox K^-1 + 1 ox F (Jantzen,
    Lectures on Quantum Groups, ch. 4):

        ad E_i(phi) = E_i phi - K_i phi K_i^-1 E_i,
        ad F_i(phi) = (F_i phi - phi F_i) K_i.

    Take j != i and N = 1 - a_ij.  Then ad E_i(F_j K_j) = [E_i, F_j] K_j
    = 0, so F_j K_j is primitive of weight -a_ij = N - 1, and ad F_i(E_j)
    = [F_i, E_j] K_i = 0, so E_j is killed by ad F_i at weight a_ij.  In
    a finite-dimensional U_q(sl_2)-module with integral weights, a
    primitive vector of weight n is killed by F^{n+1}, and a vector of
    weight -n that F kills is killed by E^{n+1} (Jantzen, ch. 2: if F^s v
    != 0 = F^{s+1} v, then 0 = E F^{s+1} v = [s+1][n-s] F^s v forces
    s = n).  Using only the K relations,

        (ad F_i)^N (F_j K_j) = sum_r (-1)^r [N r]_{q_i}
                               F_i^{N-r} F_j F_i^r K_j K_i^N,
        (ad E_i)^N (E_j) = sum_r (-1)^r [N r]_{q_i} E_i^{N-r} E_j E_i^r,

    so both Serre sums vanish on M, K being invertible.  The grading is
    one pass over the matrix entries, after the commutators.
    """
    datum = module.datum
    rank = datum.rank
    weights = module.weights
    if module.dim != weyl_dim(datum, module.lam):
        raise AssertionError("dimension %d differs from the character "
                             "prediction %d"
                             % (module.dim, weyl_dim(datum, module.lam)))
    expected = weyl_character(datum, group, module.lam).terms
    got = Counter(weights)
    if dict(got) != expected:
        raise AssertionError("weight multiset mismatch for %s"
                             % (module.lam,))
    for i in range(rank):
        for j in range(rank):
            # E_i F_j = F_j E_i + delta_ij [h_i]_{d_i}
            want = _compose(module.fmat[j], module.emat[i])
            if i == j:
                for k in range(module.dim):
                    val = q_int(datum.coroot_pairing(weights[k], i),
                                datum.d[i])
                    if val:
                        col = want.setdefault(k, {})
                        _bump(col, k, val)
                        if not col:
                            del want[k]
            if _compose(module.emat[i], module.fmat[j]) != want:
                raise AssertionError("commutator relation fails at (%d, %d)"
                                     % (i, j))
    for name, mats, step in (("F", module.fmat, datum.sub),
                             ("E", module.emat, datum.add)):
        for i, mat in enumerate(mats):
            root = datum.simple_root(i)
            for col, image in mat.items():
                target = step(weights[col], root)
                for r in image:
                    if weights[r] != target:
                        raise AssertionError(
                            "%s_%d maps column %d of weight %s to weight %s"
                            % (name, i, col, weights[col], weights[r]))


# -- construction ----------------------------------------------------------

# The fundamental modules, entered by hand: weight list plus lowering
# edges (generator, source, target), every entry 1, each target after
# its source.  Each weight has multiplicity one and each weight below
# the top is reached from exactly one weight by one simple root, so the
# F-words along the edges are a basis with these entries.  The raising
# matrices follow by ``_raising_matrices`` (B2's V(omega_1) gets [2]_q
# on its short string), and the verification in ``build_irrep`` pins
# these down completely.  Its types are the module row of
# ``cartan.SCOPE``.
_SEED_TABLE = {
    ("A", 1): {
        0: ([(1,), (-1,)], [(0, 0, 1)]),
    },
    ("A", 2): {
        0: ([(1, 0), (-1, 1), (0, -1)], [(0, 0, 1), (1, 1, 2)]),
        1: ([(0, 1), (1, -1), (-1, 0)], [(1, 0, 1), (0, 1, 2)]),
    },
    ("B", 2): {
        0: ([(1, 0), (-1, 2), (0, 0), (1, -2), (-1, 0)],
            [(0, 0, 1), (1, 1, 2), (1, 2, 3), (0, 3, 4)]),
        1: ([(0, 1), (1, -1), (-1, 1), (0, -1)],
            [(1, 0, 1), (0, 1, 2), (1, 2, 3)]),
    },
}

@memo(lambda datum, lam: (datum.label, tuple(lam)))
def build_irrep(datum, lam):
    """The integrable module of highest weight lam, fully verified."""
    check_scope(datum, "modules")
    lam = tuple(lam)
    if len(lam) != datum.rank or any(c < 0 for c in lam):
        raise ValueError("bad dominant weight %s" % (lam,))
    group = WeylGroup.build(datum)
    module = _build_irrep_inner(datum, group, lam)
    verify_module(module, group)
    return module


def check_module_dim(datum, lam):
    """dim V(lam) by the Weyl dimension formula; ModuleScopeError when it
    exceeds the module cap of the scope table."""
    dim = weyl_dim(datum, lam)
    if dim > SCOPE["module_dim"]:
        raise ModuleScopeError("dimension %d exceeds the cap %d"
                               % (dim, SCOPE["module_dim"]))
    return dim


def _build_irrep_inner(datum, group, lam):
    if not any(lam):
        return _module_from_edges(datum, lam, [lam], [])
    expected = check_module_dim(datum, lam)
    nz = [i for i in range(datum.rank) if lam[i]]
    if len(nz) == 1 and lam[nz[0]] == 1:
        return _module_from_edges(
            datum, lam, *_SEED_TABLE[datum.family, datum.rank][nz[0]])
    # the least-dimensional fundamental weight in lam, ties to the larger
    # coordinate, then to the higher index
    i = max(nz, key=lambda j: (-weyl_dim(datum, datum.fund(j)), lam[j], j))
    step = datum.fund(i)
    m1 = build_irrep(datum, datum.sub(lam, step))
    m2 = build_irrep(datum, step)
    return _close_tensor(datum, m1, m2, lam, expected)


def _module_from_edges(datum, lam, weights, edges):
    fmat = [dict() for _ in range(datum.rank)]
    parents = [None] * len(weights)
    for gen, src, dst in edges:
        fmat[gen].setdefault(src, {})[dst] = ONE
        if parents[dst] is None and dst:
            parents[dst] = (src, gen)
    if any(parents[t] is None for t in range(1, len(weights))):
        raise AssertionError("seed table leaves a basis vector unreached")
    return UqModule(datum, lam, weights, parents, fmat,
                    _raising_matrices(datum, weights, parents, fmat))


def _tensor_f(datum, m1, m2, i, vec, keys=None):
    """F_i on a vector of m1 ox m2 (a dict over index pairs (r, s)); with
    ``keys``, only the coordinates at those pairs are computed."""
    out = {}
    di = datum.d[i]
    for (r, s), c in vec.items():
        col = m1.fmat[i].get(r)
        if col:
            for r2, f in col.items():
                if keys is None or (r2, s) in keys:
                    _bump(out, (r2, s), c * f)
        col = m2.fmat[i].get(s)
        if col:
            cc = None
            for s2, f in col.items():
                if keys is None or (r, s2) in keys:
                    if cc is None:
                        kpow = di * datum.coroot_pairing(m1.weights[r], i)
                        cc = c * Laurent.q_power(kpow)
                    _bump(out, (r, s2), cc * f)
    return out


def _close_tensor(datum, m1, m2, lam, expected):
    """The lowering closure of v_lam' ox v_omega inside m1 ox m2.

    A block of V(lam) at weight mu has dimension mult = mult_lam(mu),
    read from ``weyl_character``.  Once a block has adopted mult words,
    they span V(lam)_mu, so every later image F_i v_k landing there is
    dependent: it is computed only at the block's pivot keys, and its
    coefficients come from the triangular system the rows form there.
    Row r is zero at the pivots of the rows before it, so at p_r the
    image reads v[p_r] = sum_{r' <= r} c_r' row_r'[p_r], and c_r =
    (v[p_r] - sum_{r' < r} c_r' row_r'[p_r]) / row_r[p_r]; the
    coefficients are unique, so they are the ones a full reduction
    leaves.  A block not yet full reduces each image along its whole
    support.  A weight of multiplicity zero is a full block without
    pivots, so no image landing there is computed at all.  A wrong
    multiplicity cannot pass: one too high never fills
    its block, the full reduction runs, and ``verify_module`` rejects
    the weight multiset; one too low can skip an independent word, but
    every block then holds at most its true dimension and one holds
    less, so the closure falls short of ``weyl_dim`` and raises.

    The blocks are an echelon of their own, not ``echelon_insert``'s:
    a row is kept unscaled and pivots on a monomial coordinate when it
    has one, so dividing by a pivot stays in the Laurent ring, and so do
    the module's matrices; a canonical form, one at every pivot, would
    divide by whatever entry leads the residue."""
    rank = datum.rank
    mult = weyl_character(datum, WeylGroup.build(datum), lam).terms
    # the tensor keys of each weight block, by position, and per block an
    # echelon basis of rows [v | e_j] over the vectors a_j it adopted,
    # kept in adoption order
    pos, keys = {}, {}
    for r in range(m1.dim):
        for s in range(m2.dim):
            blk = keys.setdefault(datum.add(m1.weights[r], m2.weights[s]), [])
            pos[r, s] = len(blk)
            blk.append((r, s))
    blocks = {}
    # the pivot keys of each full block
    full = {}

    def adopt(vec, wt, idx):
        """None after adopting vec as basis vector idx if it is
        independent in its block, otherwise its coefficients over the
        block's earlier vectors."""
        rows, pivots, adopted = blocks.setdefault(wt, ([], [], []))
        n = len(keys[wt])
        v = [ZERO] * (2 * n)
        for key, c in vec.items():
            v[pos[key]] = c
        # the residue [x | t] has x = vec + sum_j t_j a_j
        v = reduce_against(rows, pivots, v)
        nz = [t for t in range(n) if v[t]]
        if not nz:
            return {adopted[j]: -c for j, c in enumerate(v[n:]) if c}
        # the row is kept as the residue stands, not scaled to one at
        # its pivot (``reduce_against`` divides by the pivot entry); it
        # pivots on a monomial, a unit of Z[q, q^-1], when x has one, so
        # that dividing by it keeps later residues in the Laurent ring
        p = next((t for t in nz if type(v[t]) is Laurent
                  and v[t].is_monomial()), nz[0])
        v[n + len(adopted)] = ONE
        rows.append(v)
        pivots.append(p)
        adopted.append(idx)
        if len(adopted) == mult.get(wt, 0):
            full[wt] = {keys[wt][t] for t in pivots}
        return None

    def solve(vec, wt):
        """The coefficients of a dependent vec over the adopted vectors of
        its full block, from vec's coordinates at the block's pivots."""
        rows, pivots, adopted = blocks[wt]
        n = len(keys[wt])
        cs = []
        for row, p in zip(rows, pivots):
            x = vec.get(keys[wt][p], ZERO)
            for c, prev in zip(cs, rows):
                if c and prev[p]:
                    x = x - c * prev[p]
            if x and row[p] is not ONE:
                x = x / row[p]
            cs.append(x)
        out = {}
        for c, row in zip(cs, rows):
            if c:
                for j, a in enumerate(adopted):
                    if row[n + j]:
                        _bump(out, a, c * row[n + j])
        return out

    # the product of the highest weight vectors of m1 and m2
    basis = [{(0, 0): ONE}]
    wts = [lam]
    parents = [None]
    adopt(basis[0], lam, 0)
    fmat = [dict() for _ in range(rank)]
    queue = deque([0])
    while queue:
        k = queue.popleft()
        for i in range(rank):
            wt2 = datum.sub(wts[k], datum.simple_root(i))
            if not mult.get(wt2):
                # V(lam) has no weight wt2, so the image is zero
                continue
            if wt2 in full:
                res = solve(_tensor_f(datum, m1, m2, i, basis[k],
                                      full[wt2]), wt2)
                if res:
                    fmat[i][k] = res
                continue
            img = _tensor_f(datum, m1, m2, i, basis[k])
            if not img:
                continue
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
        raise AssertionError("lowering closure of V%s reached dimension %d, "
                             "expected %d" % (lam, len(basis), expected))
    return _reorder_module(datum, lam, wts, parents, fmat,
                           _raising_matrices(datum, wts, parents, fmat))


def _raising_matrices(datum, wts, parents, fmat):
    """The raising matrices from the lowering ones: E_j t for t = F_i p
    is F_i E_j p + delta_ij [<wt p, alpha_i^v>]_{d_i} p, and E_j p is
    known because parents precede children."""
    rank = datum.rank
    emat = [dict() for _ in range(rank)]
    for t in range(1, len(wts)):
        p, i = parents[t]
        for j in range(rank):
            col = _apply(fmat[i], emat[j].get(p, {}))
            if i == j:
                val = col.get(p, ZERO) + q_int(
                    datum.coroot_pairing(wts[p], i), datum.d[i])
                if val:
                    col[p] = val
                else:
                    col.pop(p, None)
            if col:
                emat[j][t] = {k: col[k] for k in sorted(col)}
    return emat


def _reorder_module(datum, lam, wts, parents, fmat, emat):
    n = len(wts)
    perm = sorted(range(n),
                  key=lambda t: (datum.height(datum.sub(lam, wts[t])),
                                 wts[t], t))
    newpos = {old: new for new, old in enumerate(perm)}
    weights = [wts[old] for old in perm]
    pars = []
    for old in perm:
        p = parents[old]
        pars.append(None if p is None else (newpos[p[0]], p[1]))

    def remap(mats):
        out = []
        for m in mats:
            d = {}
            for col, roww in m.items():
                d[newpos[col]] = {newpos[r]: c for r, c in roww.items()}
            out.append(d)
        return out

    return UqModule(datum, lam, weights, pars, remap(fmat), remap(emat))


# -- extreme vectors and their duals --------------------------------------


extreme_vector = UqModule.extreme_vector


def extreme_dual_row(module, w):
    """The dual row taking value 1 on the extreme vector of weight w(lam)
    and vanishing on every other weight block."""
    wt = w.act(module.lam)
    rng = module.weight_indices(wt)
    if len(rng) != 1:
        raise AssertionError("extreme weight %s has multiplicity %d"
                             % (wt, len(rng)))
    j = rng.start
    vec = extreme_vector(module, w)
    if set(vec) != {j}:
        raise AssertionError("extreme vector is not supported on its line")
    row = [ZERO] * module.dim
    row[j] = ONE / vec[j]
    return row


# -- Demazure pieces -------------------------------------------------------


def demazure_blocks(module, w, sign):
    """The span of the extreme vector of weight w(lam) under raising
    (sign '+') or lowering (sign '-') closure, as {weight: Subspace} over
    the blocks it meets, in block-local coordinates.  The two closures
    that are the whole module, lowering at e and raising at the longest
    element, are returned as full blocks without a search.

    The span is built by Demazure's recursion.  Write V_u = U+ v_{u lam}
    for the raising closure.  If s_i u > u, then U(p_i) V_u = V_{s_i u},
    p_i the parabolic spanned by b+ and F_i (Joseph; Andersen-Polo-Wen,
    Invent. Math. 104, 1991; Kashiwara, Duke Math. J. 71, 1993), and V_u
    being stable under b+, that is the F_i-closure sum_k F_i^k V_u.
    Along a reduced word w = s_{i_1} ... s_{i_l}, V_w is therefore the
    line v_lam closed under F_{i_l}, then F_{i_{l-1}}, ..., then
    F_{i_1}.  The lowering closure U- v_{y lam} is the same statement
    twisted by the Chevalley involution, which swaps E_i and F_i and
    negates weights.  It makes V(lam) a module of highest weight
    -w0 lam, with highest line v_{w0 lam}, in which v_{y lam} has weight
    -y lam = (y w0)(-w0 lam); so U- v_{y lam} is the raising closure at
    y w0 read through the twist: the line v_{w0 lam} closed under E_i
    along the reversed word of y w0.  One X_i-closure step applies X_i
    once to every vector of the running span list, those it appends
    included, and keeps an image only when it is independent.

    Each block is kept in canonical reduced echelon form as it grows,
    one ``echelon_insert`` per image, so the result does not depend on
    the order the vectors arrive in."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    group = w.group
    if w == (group.identity if sign == "-" else group.longest):
        # the highest weight vector spans the module under lowering, and
        # so, the module being irreducible, does the lowest under raising
        return {wt: Subspace.full(len(rng))
                for wt, rng in module.blocks.items()}
    if sign == "+":
        apply_gen, start, u = module.f_apply, {0: ONE}, w
    else:
        apply_gen = module.e_apply
        start = extreme_vector(module, group.longest)
        u = group.multiply(w, group.longest)
    blocks = {}

    def insert(vec):
        wt = module.weights[min(vec)]
        rng = module.weight_indices(wt)
        dense = [ZERO] * len(rng)
        for k, c in vec.items():
            dense[k - rng.start] = c
        # the block's Subspace is fresh and not yet handed out, so its
        # lists may grow in place
        sub = blocks.setdefault(wt, Subspace.zero(len(rng)))
        return echelon_insert(sub.rows, sub.pivots, dense)

    insert(start)
    span = [start]
    for i in reversed(u.word):
        # the loop reaches the images it appends, so the span ends
        # closed under X_i
        for v in span:
            img = apply_gen(i, v)
            if img and insert(img):
                span.append(img)
    return blocks


def blocks_to_subspace(module, blocks):
    """Assemble per-block Subspaces into one global canonical Subspace.

    Valid because rows from different weight blocks have disjoint support
    and block index ranges increase along the basis order.
    """
    rows = []
    pivots = []
    for wt in module.block_order:
        if wt not in blocks:
            continue
        rng = module.weight_indices(wt)
        for row, p in zip(blocks[wt].rows, blocks[wt].pivots):
            g = [ZERO] * module.dim
            for t, c in enumerate(row):
                if c:
                    g[rng.start + t] = c
            rows.append(g)
            pivots.append(rng.start + p)
    return Subspace(module.dim, rows, pivots)


def demazure_submodule(module, w, sign):
    return blocks_to_subspace(module, demazure_blocks(module, w, sign))


# -- string data on dual rows ---------------------------------------------


def string_counts(module, row, i):
    """(phi, eps): how often the row survives the lowering-side and the
    raising-side right actions for direction i."""
    if not any(row):
        return 0, 0
    return (_string_length(module.row_f, i, row, module.dim),
            _string_length(module.row_e, i, row, module.dim))


def _string_length(act, i, row, dim):
    """How often act(i, .) applied to the row stays nonzero."""
    n = 0
    cur = act(i, row)
    while any(cur):
        cur = act(i, cur)
        n += 1
        if n > dim:
            raise AssertionError("runaway string in direction %d" % i)
    return n


def lowering_string_to(module, row, w):
    """Iterated full lowering strings along the canonical word of w: for
    each letter i, the last nonzero row of the i-string (the row itself
    when the string has length zero, zero stays zero)."""
    for i in w.word:
        while True:
            nxt = module.row_f(i, row)
            if not any(nxt):
                break
            row = nxt
    return row
