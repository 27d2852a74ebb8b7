"""Integrable highest-weight modules for rank <= 2 quantized enveloping
algebras, over the exact scalar field.

Each module carries sparse lowering and raising matrices for the Chevalley
generators, a weight for every basis vector, and the exact lowering word
that produced each basis vector from the highest one (its parent chain).
That last piece is what lets the coordinate-ring layer replay any basis
vector inside a tensor product without choosing new bases.

Modules beyond the fundamentals are generated as cyclic lowering closures
inside a tensor product of smaller ones; independence is decided one
weight block at a time.  The raising matrices are not computed in the
tensor product: each basis vector t = F_i p gets E_j t = F_i E_j p +
delta_ij [<wt p, alpha_i^v>]_{d_i} p from its parent, so they follow from
the lowering matrices by the relation [E_i, F_j] = delta_ij [h_i].  Every
construction is then checked against the dimension formula, the weight
multiset, all commutators and the quantum Serre relations (summed by
Horner's scheme); that check is the only guard on the matrices.

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

from .exactalg import (Laurent, ONE, ZERO, Subspace, kernel, q_binomial,
                       q_factorial, q_int, reduce_against, rref)
from .characters import weyl_character, weyl_dim
from .weyl import WeylGroup


class ModuleScopeError(ValueError):
    """Module arithmetic was requested outside the supported scope."""


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


def _apply(mat, vec):
    """Sparse matrix (column -> {row: entry}) times sparse vector."""
    out = {}
    for k, c in vec.items():
        col = mat.get(k)
        if not col:
            continue
        for r, f in col.items():
            s = out.get(r, ZERO) + c * f
            if s:
                out[r] = s
            elif r in out:
                del out[r]
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
        self.block_order = []
        t = 0
        while t < self.dim:
            wt = self.weights[t]
            stop = t
            while stop < self.dim and self.weights[stop] == wt:
                stop += 1
            if wt in self.blocks:
                raise AssertionError("weight block %s is not contiguous"
                                     % (wt,))
            self.blocks[wt] = range(t, stop)
            self.block_order.append(wt)
            t = stop
        if self.weights[0] != self.lam:
            raise AssertionError("basis does not start at the highest weight")
        self._extreme = {}

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

    # -- right action on rows (dense lists) -------------------------------

    def row_f(self, i, row):
        mat = self.fmat[i]
        out = [ZERO] * self.dim
        for k in range(self.dim):
            col = mat.get(k)
            if not col:
                continue
            acc = ZERO
            for r, f in col.items():
                if row[r]:
                    acc = acc + row[r] * f
            out[k] = acc
        return out

    def row_e(self, i, row):
        mat = self.emat[i]
        out = [ZERO] * self.dim
        for k in range(self.dim):
            col = mat.get(k)
            if not col:
                continue
            acc = ZERO
            for r, f in col.items():
                if row[r]:
                    acc = acc + row[r] * f
            out[k] = acc
        return out

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
                s = acc.get(r2, ZERO) + c * c2
                if s:
                    acc[r2] = s
                elif r2 in acc:
                    del acc[r2]
        if acc:
            out[col] = acc
    return out


def _mat_accum(total, mat, scal):
    for col, roww in mat.items():
        dst = total.setdefault(col, {})
        for r, c in roww.items():
            s = dst.get(r, ZERO) + scal * c
            if s:
                dst[r] = s
            elif r in dst:
                del dst[r]
        if not dst:
            del total[col]
    return total


def _serre_sum(xi, xj, m, d):
    """sum_k (-1)^k [m k]_d xi^(m-k) xj xi^k, by Horner in xi: with
    R_k = xj xi^k, S <- xi S + c_k R_k for k = 1..m from S = R_0."""
    term = total = xj  # _compose returns fresh dicts, so xj is not mutated
    for k in range(1, m + 1):
        term = _compose(term, xi)
        coeff = q_binomial(m, k, d)
        total = _mat_accum(_compose(xi, total), term,
                           -coeff if k % 2 else coeff)
    return total


def verify_module(module, group):
    """Recheck the defining relations and the weight multiset; raises on
    any failure."""
    datum = module.datum
    rank = datum.rank
    if module.dim != weyl_dim(datum, module.lam):
        raise AssertionError("dimension %d differs from the character "
                             "prediction %d"
                             % (module.dim, weyl_dim(datum, module.lam)))
    expected = weyl_character(datum, group, module.lam).terms
    got = Counter(module.weights)
    if dict(got) != expected:
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
    for mats in (module.emat, module.fmat):
        for i in range(rank):
            for j in range(rank):
                if i == j:
                    continue
                m = 1 - datum.cartan[i][j]
                if _serre_sum(mats[i], mats[j], m, datum.d[i]):
                    raise AssertionError("Serre relation fails at (%d, %d)"
                                         % (i, j))


# -- construction ----------------------------------------------------------

# Fundamental modules entered by hand: weight list plus lowering edges
# (generator, source, target), every matrix entry 1.  The raising edges
# are the mirrors.  The startup verification pins these down completely.
_SEED_TABLE = {
    ("A", 1): {
        0: ([(1,), (-1,)], [(0, 0, 1)]),
    },
    ("A", 2): {
        0: ([(1, 0), (-1, 1), (0, -1)], [(0, 0, 1), (1, 1, 2)]),
        1: ([(0, 1), (1, -1), (-1, 0)], [(1, 0, 1), (0, 1, 2)]),
    },
    ("B", 2): {
        1: ([(0, 1), (1, -1), (-1, 1), (0, -1)],
            [(1, 0, 1), (0, 1, 2), (1, 2, 3)]),
    },
}

_MODULE_CACHE = {}


def build_irrep(datum, lam, max_dim=400):
    """The integrable module of highest weight lam, fully verified."""
    lam = tuple(lam)
    key = (datum.label, lam)
    if key in _MODULE_CACHE:
        return _MODULE_CACHE[key]
    if len(lam) != datum.rank or any(c < 0 for c in lam):
        raise ValueError("bad dominant weight %s" % (lam,))
    group = WeylGroup.build(datum)
    module = _build_irrep_inner(datum, group, lam, max_dim)
    verify_module(module, group)
    _MODULE_CACHE[key] = module
    return module


def _build_irrep_inner(datum, group, lam, max_dim):
    fam = (datum.family, datum.rank)
    if not any(lam):
        return UqModule(datum, lam, [lam], [None],
                        [dict() for _ in range(datum.rank)],
                        [dict() for _ in range(datum.rank)])
    if fam not in _SEED_TABLE:
        raise ModuleScopeError("module arithmetic is limited to types "
                               "A1, A2 and B2")
    expected = weyl_dim(datum, lam)
    if expected > max_dim:
        raise ModuleScopeError("dimension %d exceeds the cap %d"
                               % (expected, max_dim))
    seeds = _SEED_TABLE[fam]
    nz = [i for i in range(datum.rank) if lam[i]]
    if len(nz) == 1 and lam[nz[0]] == 1 and nz[0] in seeds:
        weights, edges = seeds[nz[0]]
        return _module_from_edges(datum, lam, weights, edges)
    if fam == ("B", 2) and lam == (1, 0):
        spin = build_irrep(datum, (0, 1))
        return _submodule_from_highest(datum, spin, spin, lam, expected)
    i = max(nz)
    step = tuple(1 if j == i else 0 for j in range(datum.rank))
    m1 = build_irrep(datum, datum.sub(lam, step))
    m2 = build_irrep(datum, step)
    seed = {(0, 0): ONE}
    return _close_tensor(datum, m1, m2, seed, lam, expected)


def _module_from_edges(datum, lam, weights, edges):
    rank = datum.rank
    fmat = [dict() for _ in range(rank)]
    emat = [dict() for _ in range(rank)]
    parents = [None] * len(weights)
    for gen, src, dst in edges:
        fmat[gen].setdefault(src, {})[dst] = ONE
        emat[gen].setdefault(dst, {})[src] = ONE
        if parents[dst] is None and dst:
            parents[dst] = (src, gen)
    if any(parents[t] is None for t in range(1, len(weights))):
        raise AssertionError("seed table leaves a basis vector unreached")
    return UqModule(datum, lam, weights, parents, fmat, emat)


def _tensor_f(datum, m1, m2, i, vec):
    out = {}
    di = datum.d[i]

    def bump(key, c):
        s = out.get(key, ZERO) + c
        if s:
            out[key] = s
        elif key in out:
            del out[key]

    for (r, s), c in vec.items():
        col = m1.fmat[i].get(r)
        if col:
            for r2, f in col.items():
                bump((r2, s), c * f)
        col = m2.fmat[i].get(s)
        if col:
            kpow = di * datum.coroot_pairing(m1.weights[r], i)
            cc = c * Laurent.q_power(kpow)
            for s2, f in col.items():
                bump((r, s2), cc * f)
    return out


def _tensor_e(datum, m1, m2, i, vec):
    out = {}
    di = datum.d[i]

    def bump(key, c):
        s = out.get(key, ZERO) + c
        if s:
            out[key] = s
        elif key in out:
            del out[key]

    for (r, s), c in vec.items():
        col = m1.emat[i].get(r)
        if col:
            kpow = -di * datum.coroot_pairing(m2.weights[s], i)
            cc = c * Laurent.q_power(kpow)
            for r2, f in col.items():
                bump((r2, s), cc * f)
        col = m2.emat[i].get(s)
        if col:
            for s2, f in col.items():
                bump((r, s2), c * f)
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
    return _close_tensor(datum, m1, m2, seed, wt, expected)


def _close_tensor(datum, m1, m2, seed, lam, expected):
    rank = datum.rank
    blocks_keys = {}
    for r in range(m1.dim):
        for s in range(m2.dim):
            wt = datum.add(m1.weights[r], m2.weights[s])
            blocks_keys.setdefault(wt, []).append((r, s))
    solvers = {}

    def solver_for(wt):
        if wt not in solvers:
            solvers[wt] = _BlockSolver(blocks_keys.get(wt, []))
        return solvers[wt]

    basis = [dict(seed)]
    wts = [lam]
    parents = [None]
    if solver_for(lam).add(basis[0], 0) is not None:
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
            res = solver_for(wt2).add(img, len(basis))
            if res is None:
                idx = len(basis)
                basis.append(img)
                wts.append(wt2)
                parents.append((k, i))
                fmat[i].setdefault(k, {})[idx] = ONE
                queue.append(idx)
            else:
                entry = {j: c for j, c in res}
                if entry:
                    fmat[i][k] = entry
    if len(basis) != expected:
        raise AssertionError("lowering closure reached dimension %d, "
                             "expected %d" % (len(basis), expected))
    # E_j t for t = F_i p is F_i E_j p + delta_ij [<wt p, alpha_i^v>] p,
    # and E_j p is known because parents precede children.
    emat = [dict() for _ in range(rank)]
    for t in range(1, len(basis)):
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
    return _reorder_module(datum, lam, wts, parents, fmat, emat)


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


def extreme_vector(module, w):
    """Coordinates of the canonical extreme vector of weight w(lam),
    produced by divided lowering powers along the canonical word."""
    cache = module._extreme
    if w.idx in cache:
        return cache[w.idx]
    if w.length == 0:
        vec = {0: ONE}
    else:
        i = w.word[0]
        grp = w.group
        shorter = grp.multiply(grp.gens[i], w)
        prev = extreme_vector(module, shorter)
        n = module.datum.coroot_pairing(shorter.act(module.lam), i)
        if n < 0:
            raise AssertionError("negative lowering exponent on the way "
                                 "to %r" % (w,))
        vec = module.f_divided(i, prev, n)
    cache[w.idx] = vec
    return vec


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
    """Per-weight echelon bases of the span of the extreme vector under
    raising (sign '+') or lowering (sign '-') closure."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    apply_gen = module.e_apply if sign == "+" else module.f_apply
    blocks = {}

    def insert(vec):
        ks = sorted(vec)
        wt = module.weights[ks[0]]
        rng = module.weight_indices(wt)
        dense = [ZERO] * len(rng)
        for k, c in vec.items():
            dense[k - rng.start] = c
        rows, piv = blocks.get(wt, ([], []))
        res = reduce_against(rows, piv, dense)
        if not any(res):
            return False
        nr, np_ = rref(rows + [res])
        blocks[wt] = (nr, np_)
        return True

    start = extreme_vector(module, w)
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


def blocks_to_subspace(module, blocks):
    """Assemble per-block echelon rows into one global canonical Subspace.

    Valid because rows from different weight blocks have disjoint support
    and block index ranges increase along the basis order.
    """
    rows = []
    pivots = []
    for wt in module.block_order:
        if wt not in blocks:
            continue
        rng = module.weight_indices(wt)
        brows, bpiv = blocks[wt]
        for row, p in zip(brows, bpiv):
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
    phi = 0
    cur = module.row_f(i, row)
    while any(cur):
        cur = module.row_f(i, cur)
        phi += 1
        if phi > module.dim:
            raise AssertionError("runaway string in direction %d" % i)
    eps = 0
    cur = module.row_e(i, row)
    while any(cur):
        cur = module.row_e(i, cur)
        eps += 1
        if eps > module.dim:
            raise AssertionError("runaway string in direction %d" % i)
    return phi, eps


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
