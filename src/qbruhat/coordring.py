"""Graded model of the algebra of quantum matrix coefficients.

The algebra lives here degree by degree: the piece of degree lam is the
dual of the integrable module of highest weight lam, and the product of
two dual rows is read off from the canonical embedding of the module of
the summed weight into the tensor product (replaying exact lowering
words, so no basis choices enter).  A dual row is sparse, a dict from
basis index to scalar, like a product cell; the row of an extreme
coefficient c_w(lam) is the unit cell of its line, because every check
below asks only whether that line lies in a subspace.  Everything
downstream is blockwise linear algebra over the exact scalars.
Closures and ideal pieces are ``GradedPiece``s of ``uqmodules``, one
canonical ``Subspace`` per weight block, and each module converts
between its indices and block-local coordinates:

* pair pieces, the graded ideal pieces attached to a pair (y, z) of
  Weyl elements: in each block the orthogonal (A meet B)^perp, with A
  the lowering closure of the y-extreme vector and B the raising
  closure of the z-extreme vector; the piece of one element and a sign
  is the pair piece whose other closure is the whole module;
* truncated left ideals, used to check the q-commutation congruences;
  the product cells they are spanned by, and the two products each
  congruence compares, stay sparse, so no coordinate outside a cell's
  support is multiplied or subtracted;
* conjugation operators solving c . x = a . c past an extreme
  coefficient, on the unit row of its line, their twisted
  eigen-decompositions, and the induced splitting of each weight
  block, whose eigenvalues are the exact integer q-power roots of each
  operator's characteristic polynomial;
* saturation chains that divide an ideal piece by an extreme
  coefficient until the chain stabilizes, and the support extremes
  that recover the pair of Weyl elements labelling a stratum.  A step
  reads the kernel of a pair piece only on the blocks shift + wt, and
  that kernel is A meet B itself, so a step meets two closure blocks and
  builds no pair piece above the starting degree.

One model is kept per type, and each model keeps its product tables,
closures, ideal pieces, saturations and decompositions in ``memo``
tables that live as long as the model.
"""

from __future__ import annotations

from fractions import Fraction

from .cartan import ModuleScopeError, build_cartan, check_scope
from .exactalg import (Laurent, ONE, ZERO, Subspace, charpoly, dot,
                       kernel, mat_mul, q_power_roots, rref)
from .characters import weight_multiplicity
from .obs import memo
from .uqmodules import (GradedPiece, build_irrep, demazure_blocks,
                        lowering_string_to, _bump, _tensor_f)
from .weyl import WeylGroup


class SufficiencyError(RuntimeError):
    """A conjugation solve failed or was ambiguous at this degree."""


class EigenvalueError(RuntimeError):
    """A conjugation operator has spectrum outside the integer q-powers."""


class NonStratumError(RuntimeError):
    """The support extremes of an ideal piece are not singletons."""


class SaturationResult:
    """Outcome of dividing an ideal piece by powers of an extreme
    coefficient.  The chain of preimages is kept; ``stabilized`` records
    whether the last two agree, which is the only honest certificate of
    convergence this computation offers."""

    def __init__(self, y, z, nu, bound, by, pieces):
        self.y = y
        self.z = z
        self.nu = tuple(nu)
        self.bound = bound
        self.by = by
        self.pieces = pieces
        self.stabilized = bound >= 1 and pieces[-1] == pieces[-2]

    @property
    def final(self):
        return self.pieces[-1]

    @property
    def dims(self):
        return [p.dim for p in self.pieces]

    def __repr__(self):
        return ("SaturationResult(dims %s, stabilized=%s)"
                % (self.dims, self.stabilized))


class CoordinateModel:
    """All graded data of the matrix-coefficient algebra for one type.
    A type outside the module row of ``cartan.SCOPE`` raises
    ModuleScopeError before its group is built."""

    def __init__(self, label):
        self.datum = build_cartan(label)
        check_scope(self.datum, "modules")
        self.group = WeylGroup.build(self.datum)

    @classmethod
    @memo(lambda cls, label: build_cartan(label).label)
    def get(cls, label):
        """The model of a type, one per type."""
        return cls(label)

    # -- degrees and products -------------------------------------------

    def module(self, lam):
        return build_irrep(self.datum, tuple(lam))

    def iota_vectors(self, lam, mu):
        """Tensor coordinates of every basis vector of the module of
        weight lam+mu inside module(lam) ox module(mu), by replaying the
        exact lowering word of each basis vector."""
        m1 = self.module(lam)
        m2 = self.module(mu)
        big = self.module(self.datum.add(lam, mu))
        vecs = [None] * big.dim
        vecs[0] = {(0, 0): ONE}
        for t in range(1, big.dim):
            p, i = big.parents[t]
            if p >= t:
                raise AssertionError("parent order violated at index %d" % t)
            vecs[t] = _tensor_f(self.datum, m1, m2, i, vecs[p])
        return vecs

    @memo(lambda self, lam, mu: (tuple(lam), tuple(mu)))
    def pair_table(self, lam, mu):
        """Sparse product rows: table[(r, s)] maps basis index t of the
        summed degree to the t-coordinate of the product of dual rows
        delta_r (degree lam) and delta_s (degree mu)."""
        vecs = self.iota_vectors(lam, mu)
        table = {}
        for t, vec in enumerate(vecs):
            for pair, c in vec.items():
                table.setdefault(pair, {})[t] = c
        return table

    def multiply(self, lam, rowa, mu, rowb):
        """Product of two sparse dual rows, a sparse row of degree
        lam+mu: the sum of the product cells (r, s) times rowa[r] rowb[s]."""
        table = self.pair_table(lam, mu)
        out = {}
        for r, a in rowa.items():
            for s, b in rowb.items():
                cell = table.get((r, s))
                if cell and a and b:
                    ab = a * b
                    for t, c in cell.items():
                        _bump(out, t, ab * c)
        return out

    # -- graded ideal pieces --------------------------------------------

    @memo(lambda self, w, sign, lam: (w.idx, sign, tuple(lam)))
    def closure(self, w, sign, lam):
        """The extreme-vector closure of w with the given sign, raising
        ('+') or lowering ('-'), as a ``GradedPiece`` of the module."""
        return demazure_blocks(self.module(lam), w, sign)

    def demazure_orth(self, w, sign, lam):
        """Dual rows vanishing on the extreme-vector closure of w with
        the given sign: the pair piece of (w, w0) for '-' and of (e, w)
        for '+', whose other closure is the whole module."""
        g = self.group
        if sign == "-":
            return self.pair_piece(w, g.longest, lam)
        if sign == "+":
            return self.pair_piece(g.identity, w, lam)
        raise ValueError("sign must be '+' or '-'")

    @memo(lambda self, y, z, lam: (y.idx, z.idx, tuple(lam)))
    def pair_piece(self, y, z, lam):
        """The orthogonal of the meet of the lowering closure of y and the
        raising closure of z, block by block; a block either closure
        misses is the full block."""
        module = self.module(lam)
        return GradedPiece(module, {
            wt: self._closure_meet(y, z, lam, wt).orthogonal_complement()
            for wt in module.blocks})

    def _closure_meet(self, y, z, lam, wt):
        """A meet B on the block of weight wt in degree lam, A the
        lowering closure of y and B the raising closure of z."""
        return self.closure(y, "-", lam).block_subspace(wt).intersect(
            self.closure(z, "+", lam).block_subspace(wt))

    @memo(lambda self, lam, eta, side, nu:
          (tuple(lam), tuple(eta), side, tuple(nu)))
    def left_ideal_piece(self, lam, eta, side, nu):
        """Degree nu+lam slice of the left ideal generated by all dual
        rows of degree lam whose support weight is strictly below eta
        (side '+') or strictly above it (side '-') in dominance order."""
        if side not in ("+", "-"):
            raise ValueError("side must be '+' or '-'")
        mlam = self.module(lam)
        mnu = self.module(nu)
        big = self.module(self.datum.add(nu, lam))
        table = self.pair_table(nu, lam)
        rows = []
        for wt in mlam.block_order:
            if tuple(wt) == tuple(eta):
                continue
            below, above = (wt, eta) if side == "+" else (eta, wt)
            if not self.datum.dominance_leq(below, above):
                continue
            for s in mlam.weight_indices(wt):
                for r in range(mnu.dim):
                    rows.append(table.get((r, s), {}))
        return GradedPiece.from_rows(big, rows)

    # -- q-commutation ---------------------------------------------------

    def commutation_factor(self, lam, nu, mu, eta):
        """q^e for the integer exponent e = (lam, nu) - (eta, mu)."""
        e = self.datum.inner(lam, nu) - self.datum.inner(eta, mu)
        return _q_power(e, "commutation exponent %s is not an integer", e)

    def check_commutation(self, nu, mu, lam, eta):
        """Both congruences for every pair of dual basis rows with the
        given support weights; raises with detail on the first failure.
        The products are the sparse cells of the two product tables, each
        difference is formed on the union of their supports, and its
        membership is tested block by block."""
        mnu = self.module(nu)
        mlam = self.module(lam)
        qe = self.commutation_factor(lam, nu, mu, eta)
        jplus = self.left_ideal_piece(lam, eta, "+", nu)
        jminus = self.left_ideal_piece(lam, eta, "-", nu)
        front_tbl = self.pair_table(nu, lam)
        back_tbl = self.pair_table(lam, nu)
        for r in mnu.weight_indices(mu):
            for s in mlam.weight_indices(eta):
                front = front_tbl.get((r, s), {})
                back = back_tbl.get((s, r), {})
                for side, piece, a, b in (("plus", jplus, front, back),
                                          ("minus", jminus, back, front)):
                    # a - q^e b on the union of the two supports
                    diff = dict(a)
                    for t, c in b.items():
                        x = diff.get(t)
                        diff[t] = -(qe * c) if x is None else x - qe * c
                    if not piece.contains_cell(diff):
                        raise AssertionError(
                            "%s congruence fails at (r=%d, s=%d), weights "
                            "mu=%s eta=%s, degrees nu=%s lam=%s"
                            % (side, r, s, mu, eta, tuple(nu), tuple(lam)))
        return True

    def check_extreme_relations(self, lam, nu):
        """Exact commutation past the highest and lowest extreme rows of
        degree nu: no left-ideal correction term at all.  An extreme row
        is c times the unit row of its line j, so its products with the
        unit row of index r are c times the product cells (r, j) and
        (j, r); c cancels, and the relation compares the two cells."""
        datum = self.datum
        mlam = self.module(lam)
        front_tbl = self.pair_table(lam, nu)
        back_tbl = self.pair_table(nu, lam)
        # the highest row commutes with exponent (nu, mu - lam), the
        # lowest with -(w0 nu, mu - w0 lam)
        mnu = self.module(nu)
        extremes = [(name, sign, w.act(nu), w.act(lam), mnu.extreme_index(w))
                    for name, sign, w in [("highest", 1, self.group.identity),
                                          ("lowest", -1, self.group.longest)]]
        for r in range(mlam.dim):
            mu = mlam.weights[r]
            for name, sign, wnu, wlam, j in extremes:
                qe = _q_power(sign * datum.inner(wnu, datum.sub(mu, wlam)),
                              "%s-row exponent not integral", name)
                back = back_tbl.get((j, r), {})
                if front_tbl.get((r, j), {}) != {t: qe * c
                                                 for t, c in back.items()}:
                    raise AssertionError(
                        "%s-row relation fails at index %d of degree %s, "
                        "extreme degree nu=%s"
                        % (name, r, tuple(lam), tuple(nu)))
        return True

    # -- conjugation operators ------------------------------------------

    def conj_block(self, w, nu, lam, blk):
        """Matrix rows of the operator x -> solution of
        c_w(nu) . x = a . c_w(nu) on the dual block of weight blk in
        degree lam: row t lists the block coordinates of the image of
        the t-th unit row.  Raises SufficiencyError when the solve is
        inconsistent or ambiguous.

        The extreme row c_w(nu) is a scalar times the unit row of its
        line j0, and that scalar stands on both sides of c . x = a . c,
        so the equation is solved with the unit row: the product cells
        (j0, u) and (t, j0) as they are."""
        datum = self.datum
        mlam = self.module(lam)
        blk = tuple(blk)
        rng = mlam.weight_indices(blk)
        if not len(rng):
            return []
        j0 = self.module(nu).extreme_index(w)
        target_wt = datum.add(w.act(nu), blk)
        big = self.module(self.datum.add(nu, lam))
        n = len(big.weight_indices(target_wt))
        left_tbl = self.pair_table(nu, lam)
        right_tbl = self.pair_table(lam, nu)
        lrows = [_restrict(big, left_tbl.get((j0, u), {}), target_wt)
                 for u in rng]
        rrows = [_restrict(big, right_tbl.get((t, j0), {}), target_wt)
                 for t in rng]
        # one reduction of [L^T | R^T]: the first b pivots certify that
        # left multiplication is injective, a later one that some image
        # row is not in its span; otherwise column b + t holds row t of
        # the operator
        b = len(rng)
        ech, piv = rref([lcol + rcol for lcol, rcol in
                         zip(_transpose(lrows, n), _transpose(rrows, n))])
        if piv[:b] != list(range(b)):
            raise SufficiencyError(
                "left multiplication by the extreme row is not injective "
                "on block %s of degree %s" % (blk, lam))
        if len(piv) > b:
            raise SufficiencyError(
                "conjugation solve inconsistent on block %s of degree "
                "%s" % (blk, lam))
        return [[ech[u][b + t] for u in range(b)] for t in range(b)]

    def twisted_conj_block(self, w, i, lam, blk):
        """Conjugation by the i-th fundamental extreme row, scaled by
        q^(inner(w^-1 eta, omega_i)) where eta is the block weight
        relative to w(lam)."""
        datum = self.datum
        step = tuple(1 if j == i else 0 for j in range(datum.rank))
        phi = self.conj_block(w, step, lam, blk)
        eta = datum.sub(tuple(blk), w.act(lam))
        tq = _q_power(datum.inner(w.inverse().act(eta), datum.fund(i)),
                      "twist exponent is not integral")
        return [[tq * c for c in row] for row in phi]

    def sufficient_degree(self, w, eta):
        """The least degree k.rho at which the eta-block multiplicity of
        w is stable, plus that multiplicity.

        With beta = -w^-1 eta in simple-root coordinates, the block is
        V(lam)_{lam-beta}: U^- in weight -beta modulo the left ideal of
        the f_i^(lam_i+1) (Humphreys, Introduction to Lie Algebras, 21.4;
        Jantzen, Lectures on Quantum Groups, ch. 5).  The ideal misses
        that weight, so the multiplicity is the partition count p(beta),
        once every lam_i >= beta_i, that is from k* = max(1, max beta_i)
        on.  Below k*, some beta_i = k* > lam_i and the ideal holds
        f_i^k* U^-_{-beta+k* alpha_i}, which is nonzero because U^- is a
        domain, so k* is the least stable degree.  A beta outside the
        positive root cone gives (rho, 0)."""
        datum = self.datum
        beta = datum.root_coords(datum.neg(w.inverse().act(eta)))
        if any(c < 0 or c.denominator != 1 for c in beta):
            return datum.rho(), 0
        top = max(1, *(int(c) for c in beta))
        lam = tuple(top * c for c in datum.rho())
        return lam, weight_multiplicity(datum, self.group, lam,
                                        datum.add(w.act(lam), eta))

    def twisted_decomposition(self, w, eta, lam=None):
        """Simultaneous generalized eigen-decomposition of the twisted
        conjugation operators on the eta-block.

        Returns a fresh sorted list of (label, Subspace over block
        coords) with labels in twice the negative root lattice; the
        subspaces fill the whole block.  The eigenvalues of operator i
        are the integer q-power roots q^e_i of its characteristic
        polynomial, found exactly; each subspace is an intersection of
        generalized eigenspaces ker (M_i - q^e_i)^m_i, m_i the root's
        multiplicity, and its label has root coordinates e_i / d_i.
        EigenvalueError is raised when the operators do not commute,
        when a characteristic polynomial keeps a factor with no integer
        q-power root, or when a label falls outside twice the root
        lattice.  The operators are built in the one degree lam, by
        default the stable degree of ``sufficient_degree``: a failed
        solve there raises SufficiencyError, and a degree whose modules
        exceed the supported scope raises ModuleScopeError naming the
        block and the degree.  Results for each degree are memoised."""
        eta = tuple(eta)
        lam = tuple(self.sufficient_degree(w, eta)[0] if lam is None else lam)
        try:
            return list(self._twisted_decomposition(w, eta, lam))
        except ModuleScopeError as err:
            raise ModuleScopeError(
                "block %s of degree %s: %s"
                % (self.datum.add(w.act(lam), eta), lam, err)) from err

    @memo(lambda self, w, eta, lam: (w.idx, tuple(eta), tuple(lam)))
    def _twisted_decomposition(self, w, eta, lam):
        datum = self.datum
        blk = datum.add(w.act(lam), eta)
        b = len(self.module(lam).weight_indices(blk))
        if b == 0:
            return []
        mats = [self.twisted_conj_block(w, i, lam, blk)
                for i in range(datum.rank)]
        for i in range(datum.rank):
            for j in range(i + 1, datum.rank):
                if mat_mul(mats[i], mats[j]) != mat_mul(mats[j], mats[i]):
                    raise EigenvalueError(
                        "twisted conjugation operators do not commute on "
                        "block %s of degree %s" % (blk, lam))
        # the generalized eigenspaces of the commuting operators, met
        # only along exponent tuples whose intersection is nonzero
        parts = [((), Subspace.full(b))]
        for i, mat in enumerate(mats):
            roots, rest = q_power_roots(charpoly(mat))
            if len(rest) > 1:
                raise EigenvalueError(
                    "twisted conjugation operator %d on block %s of degree "
                    "%s has a factor of degree %d with no integer q-power "
                    "root" % (i, blk, lam, len(rest) - 1))
            if len(roots) == 1:
                parts = [(es + tuple(roots), sub) for es, sub in parts]
                continue
            spaces = []
            for e, mult in sorted(roots.items()):
                s = Laurent.q_power(e)
                shifted = [[c - s if t == u else c for u, c in enumerate(row)]
                           for t, row in enumerate(mat)]
                power = shifted
                for _ in range(mult - 1):
                    power = mat_mul(power, shifted)
                spaces.append((e, Subspace(b, *kernel(_transpose(power, b),
                                                      b))))
            parts = [(es + (e,), sub.intersect(space))
                     for es, sub in parts for e, space in spaces]
            parts = [(es, sub) for es, sub in parts if sub.dim]
        found = []
        for es, sub in parts:
            coords = []
            for e, d in zip(es, datum.d):
                c, r = divmod(e, d)
                if r or c % 2:
                    raise EigenvalueError(
                        "eigenvalue exponents %s on block %s of degree %s "
                        "give a label outside twice the root lattice"
                        % (es, blk, lam))
                coords.append(c)
            found.append((datum.root_to_fund(coords), sub))
        found.sort(key=lambda it: it[0])
        return found

    def lowering_split_check(self, w, eta, lam=None):
        """Cross-checks on one block: the non-central part of the
        twisted decomposition must coincide with the plus-piece of w,
        the central part must meet it trivially, and every labelled
        subspace must shift support weight by half its label under the
        full lowering strings along w.

        Returns a detail dict; raises on any failed cross-check."""
        datum = self.datum
        if lam is None:
            lam, _ = self.sufficient_degree(w, eta)
        lam = tuple(lam)
        parts = self.twisted_decomposition(w, eta, lam=lam)
        blk = datum.add(w.act(lam), tuple(eta))
        mlam = self.module(lam)
        b = len(mlam.weight_indices(blk))
        zero = datum.zero()
        qp_block = self.demazure_orth(w, "+", lam).block_subspace(blk)
        central = next((sub for mu, sub in parts if mu == zero),
                       Subspace.zero(b))
        rest = Subspace.zero(b)
        for mu, sub in parts:
            if mu != zero:
                rest = rest.sum(sub)
        if rest != qp_block:
            raise AssertionError("non-central span differs from the "
                                 "plus-piece block at %s" % (blk,))
        if central.intersect(qp_block).dim:
            raise AssertionError("central part meets the plus-piece "
                                 "at %s" % (blk,))
        if central.dim + qp_block.dim != b:
            raise AssertionError("block %s does not split" % (blk,))
        for mu, sub in parts:
            half = tuple(Fraction(c, 2) for c in datum.root_coords(mu))
            expect = datum.add(lam, datum.root_to_fund(half))
            for row in sub.rows:
                top = lowering_string_to(mlam, mlam.globalize(blk, row), w)
                got = mlam.row_support_weight(top)
                if tuple(got) != tuple(expect):
                    raise AssertionError(
                        "lowering string of a label-%s row lands at %s, "
                        "expected %s" % (mu, got, expect))
        return {
            "degree": lam,
            "block": blk,
            "block_dim": b,
            "central_dim": central.dim,
            "labels": [(mu, sub.dim) for mu, sub in parts],
        }

    # -- saturation ------------------------------------------------------

    @memo(lambda self, y, z, nu, bound, by="z":
          (y.idx, z.idx, tuple(nu), bound, by))
    def saturation(self, y, z, nu, bound, by="z"):
        """Chain of preimages of the pair piece under left multiplication
        by extreme rows of growing degree k.rho.

        Step k keeps the rows of degree nu whose product with the anchor's
        extreme row of degree k.rho lies in the pair piece of degree
        lam = nu + k.rho.  Such a product lies in the block shift + wt of
        degree lam, shift the anchor's image of k.rho, and only those
        blocks are read.  There the pair piece is (A meet B)^perp, A and B
        the lowering closure of y and the raising closure of z, so the
        step takes the canonical meet of the two closure blocks instead of
        the kernel of the pair piece's block, with the same rows.

        The anchor's extreme row is a scalar times the unit row of its
        line j0.  That scalar only scales the matrix of pairings whose
        kernel a step takes, so the step multiplies by the unit row: the
        product cells (j0, t) as they are."""
        if by not in ("y", "z"):
            raise ValueError("by must be 'y' or 'z'")
        datum = self.datum
        anchor = z if by == "z" else y
        rho = datum.rho()
        mnu = self.module(nu)
        pieces = [self.pair_piece(y, z, nu)]
        for k in range(1, bound + 1):
            krho = tuple(k * c for c in rho)
            lam_t = datum.add(nu, krho)
            big = self.module(lam_t)
            j0 = self.module(krho).extreme_index(anchor)
            table = self.pair_table(krho, nu)
            shift = anchor.act(krho)
            blocks = {}
            for wt in mnu.block_order:
                rng = mnu.weight_indices(wt)
                twt = datum.add(shift, wt)
                cons = self._closure_meet(y, z, lam_t, twt).rows
                if not cons:
                    blocks[wt] = Subspace.full(len(rng))
                    continue
                imgs = [_restrict(big, table.get((j0, t), {}), twt)
                        for t in rng]
                gmat = [[dot(img, kr) for kr in cons] for img in imgs]
                blocks[wt] = Subspace(len(rng), *kernel(
                    _transpose(gmat, len(cons)), len(rng)))
            piece = GradedPiece(mnu, blocks)
            if not pieces[-1].is_subpiece(piece):
                raise AssertionError(
                    "saturation chain failed to grow monotonically at "
                    "step %d" % k)
            pieces.append(piece)
        return SaturationResult(y, z, nu, bound, by, pieces)

    # -- support extremes and stratum recovery ---------------------------

    def support_extremes(self, piece):
        """Weights whose block is not fully inside the piece, with the
        dominance-maximal and dominance-minimal ones singled out."""
        module = piece.module
        support = []
        for wt in module.block_order:
            if piece.block_dim(wt) < len(module.weight_indices(wt)):
                support.append(wt)
        maximal = [wt for wt in support
                   if not any(other != wt
                              and self.datum.dominance_leq(wt, other)
                              for other in support)]
        minimal = [wt for wt in support
                   if not any(other != wt
                              and self.datum.dominance_leq(other, wt)
                              for other in support)]
        return support, sorted(maximal), sorted(minimal)

    def weight_to_element(self, nu, wt):
        """The shortest Weyl element sending nu to wt, or None."""
        for w in self.group.sorted_elements():
            if w.act(nu) == tuple(wt):
                return w
        return None

    def stratum_of(self, y, z, nu, bound=2, by="z"):
        """Recover the labelling pair from the saturated piece: the
        dominance-maximal support weight must be the single y-extreme
        and the minimal one the single z-extreme."""
        sat = self.saturation(y, z, nu, bound, by=by)
        _, maximal, minimal = self.support_extremes(sat.final)
        if len(maximal) != 1 or len(minimal) != 1:
            raise NonStratumError(
                "support extremes are not singletons: max %s, min %s"
                % (maximal, minimal))
        wy = self.weight_to_element(nu, maximal[0])
        wz = self.weight_to_element(nu, minimal[0])
        if wy is None or wz is None:
            raise NonStratumError("support extreme is not an extreme "
                                  "weight of degree %s" % (nu,))
        return wy, wz, sat


def _q_power(e, message, *args):
    """q^e for an exponent e that must be an integer; AssertionError with
    the text message % args when it is not."""
    if e.denominator != 1:
        raise AssertionError(message % args)
    return Laurent.q_power(int(e))


def _restrict(module, cell, wt):
    """Dense coordinates of a sparse product row on the block of weight
    wt of the module it lands in."""
    local = module.localize(cell)
    if any(other != wt for other in local):
        raise AssertionError("product escapes the target block")
    return local.get(wt) or [ZERO] * len(module.weight_indices(wt))


def _transpose(rows, ncols):
    return [[row[c] for row in rows] for c in range(ncols)]
