"""Graded coordinate-ring model: products, congruences, ideals,
saturation."""

import itertools
from unittest import mock

import pytest

from qbruhat.cartan import build_cartan
from qbruhat.characters import kostant, weight_multiplicity
from qbruhat.coordring import (CoordinateModel, EigenvalueError,
                               SufficiencyError)
from qbruhat.exactalg import ONE, ZERO, Laurent, Subspace, kernel, mat_mul
from qbruhat.uqmodules import ModuleScopeError, build_irrep
from oracles import (brute_cone_count, bruhat_pairs, dense_check_commutation,
                     dense_left_ideal_piece, eta_sweep,
                     extreme_product_scalar, pair_piece_saturation,
                     sum_of_orthogonals_pair_piece, tuple_demazure_orth)

Q = Laurent({1: 1})


@pytest.fixture(scope="module")
def a1():
    return CoordinateModel.get("A1")


class TestProducts:
    def test_rank_one_frozen_products(self, a1):
        g = a1.group
        top = a1.extreme_row((1,), g.identity)
        bot = a1.extreme_row((1,), g.longest)
        assert a1.multiply((1,), bot, (1,), top) == [ZERO, ONE, ZERO]
        assert a1.multiply((1,), top, (1,), bot) == [ZERO, Q, ZERO]
        assert a1.multiply((1,), top, (1,), top) == [ONE, ZERO, ZERO]

    def test_extreme_product_scalars_rank_one(self, a1):
        for w in a1.group.elements:
            assert extreme_product_scalar(a1, (1,), (1,), w) == ONE

    def test_extreme_product_scalars_a2(self, a2_model):
        # c_w(lam) c_w(mu) is always a nonzero multiple of c_w(lam+mu)
        for w in a2_model.group.elements:
            s = extreme_product_scalar(a2_model, (1, 0), (0, 1), w)
            assert s
            assert s.is_monomial()

    def test_product_degree_additivity(self, a2_model):
        g = a2_model.group
        row = a2_model.extreme_row((1, 0), g.gens[0])
        other = a2_model.extreme_row((0, 1), g.gens[1])
        prod = a2_model.multiply((1, 0), row, (0, 1), other)
        big = a2_model.module((1, 1))
        assert len(prod) == big.dim
        assert any(prod)

    def test_exact_relations_with_corner_rows(self, a2_model, b2_model):
        assert a2_model.check_extreme_relations((1, 1), (1, 0))
        assert b2_model.check_extreme_relations((1, 0), (0, 1))

    def test_spoiled_cell_breaks_an_extreme_relation(self):
        """One product cell of a fresh model, raised by one, breaks the
        relation past the highest row; the message names the row, the
        index and both degrees."""
        model = CoordinateModel("A2")
        lam, nu = (1, 0), (0, 1)
        # index 0 of V(0,1) is its highest line
        cell = model.pair_table(lam, nu)[(0, 0)]
        t = min(cell)
        cell[t] = cell[t] + ONE
        with pytest.raises(AssertionError) as err:
            model.check_extreme_relations(lam, nu)
        assert str(err.value) == (
            "highest-row relation fails at index 0 of degree (1, 0), "
            "extreme degree nu=(0, 1)")


class TestCommutation:
    def test_rank_one_full_grid(self, a1):
        m = a1.module((1,))
        for mu in m.block_order:
            for eta in m.block_order:
                assert a1.check_commutation((1,), mu, (1,), eta)

    def test_a2_fundamental_sample(self, a2_model):
        ma = a2_model.module((1, 0))
        mb = a2_model.module((0, 1))
        for mu in ma.block_order:
            for eta in mb.block_order:
                assert a2_model.check_commutation((1, 0), mu, (0, 1), eta)

    def test_b2_sample(self, b2_model):
        mv = b2_model.module((1, 0))
        ms = b2_model.module((0, 1))
        for mu in list(mv.block_order)[:2]:
            for eta in list(ms.block_order)[:2]:
                assert b2_model.check_commutation((1, 0), mu, (0, 1), eta)

    def test_dense_oracle_holds_on_the_a2_grid(self, a2_model):
        """The dense congruences, left-ideal pieces included, hold for
        every degree pair nu, lam <= (1, 1), and each sparse left-ideal
        piece equals its dense one."""
        degrees = list(itertools.product(range(2), repeat=2))
        for nu, lam in itertools.product(degrees, repeat=2):
            for eta in a2_model.module(lam).block_order:
                for side in "+-":
                    assert a2_model.left_ideal_piece(lam, eta, side, nu) == \
                        dense_left_ideal_piece(a2_model, lam, eta, side, nu)
                for mu in a2_model.module(nu).block_order:
                    assert dense_check_commutation(a2_model, nu, mu, lam, eta)
                    assert a2_model.check_commutation(nu, mu, lam, eta)

    def test_dense_oracle_holds_on_a_b2_cell(self, b2_model):
        nu, mu, lam, eta = (0, 1), (1, -1), (1, 0), (0, 0)
        assert dense_check_commutation(b2_model, nu, mu, lam, eta)
        assert b2_model.check_commutation(nu, mu, lam, eta)

    @pytest.mark.parametrize("key,side", [((0, 0), "plus"),
                                          ((0, 2), "minus")])
    def test_spoiled_cell_fails_with_the_oracle_text(self, key, side):
        """One product cell of a fresh model, raised by one, breaks a
        congruence; the library and the dense oracle name the same side,
        rows, weights and degrees."""
        model = CoordinateModel("A2")
        nu, lam = (1, 0), (0, 1)
        cell = model.pair_table(lam, nu)[key]
        t = min(cell)
        cell[t] = cell[t] + ONE
        s, r = key
        args = (nu, model.module(nu).weights[r], lam,
                model.module(lam).weights[s])
        with pytest.raises(AssertionError) as lib:
            model.check_commutation(*args)
        with pytest.raises(AssertionError) as dense:
            dense_check_commutation(model, *args)
        assert str(lib.value) == str(dense.value)
        assert str(lib.value).startswith(
            "%s congruence fails at (r=%d, s=%d)" % (side, r, s))
        assert str(lib.value).endswith(", degrees nu=(1, 0) lam=(0, 1)")

    def test_exponent_integrality_guard(self, b2_model):
        # spinor-spinor pairings stay integral even though the form has
        # half-integral values on single fundamental weights
        e = b2_model.commutation_exponent((0, 1), (0, 1), (0, 1), (0, -1))
        assert isinstance(e, int)


class TestIdealPieces:
    def test_pair_piece_boundaries(self, a2_model):
        """The piece of one element and a sign is the sum of orthogonals
        whose other closure is the whole module."""
        g = a2_model.group
        lam = (1, 1)
        for w in g.elements:
            for sign, y, z in (("-", w, g.longest), ("+", g.identity, w)):
                want = sum_of_orthogonals_pair_piece(a2_model, y, z, lam)
                assert a2_model.pair_piece(y, z, lam) == want
                assert a2_model.demazure_orth(w, sign, lam) == want

    @pytest.mark.parametrize("label,top", [("A2", 2), ("B2", 1)])
    def test_pair_pieces_match_sum_of_orthogonals(self, label, top):
        """Every pair (y, z), y <= z or not, meets its two closures to the
        rows and pivots of the sum of their orthogonals."""
        model = CoordinateModel.get(label)
        elements = model.group.elements
        orths = {}
        for lam in itertools.product(range(top + 1),
                                     repeat=model.datum.rank):
            for y, z in itertools.product(elements, elements):
                assert model.pair_piece(y, z, lam) == \
                    sum_of_orthogonals_pair_piece(model, y, z, lam, orths), \
                    (lam, y.word, z.word)

    def test_plus_piece_dims_complement_closures(self, a2_model):
        # orthogonal pieces have complementary dimension blockwise
        from qbruhat.uqmodules import demazure_submodule
        lam = (1, 1)
        m = a2_model.module(lam)
        for w in a2_model.group.elements:
            piece = a2_model.demazure_orth(w, "+", lam)
            sub = demazure_submodule(m, w, "+")
            assert piece.dim + sub.dim == m.dim

    def test_support_extremes_of_plus_piece(self, a2_model):
        lam = (1, 1)
        for w in a2_model.group.elements:
            piece = a2_model.demazure_orth(w, "+", lam)
            support, maximal, minimal = a2_model.support_extremes(piece)
            assert maximal == [tuple(lam)]
            assert minimal == [w.act(lam)]
            assert set(maximal + minimal) <= set(support)

    def test_full_interval_piece_is_zero(self, a2_model):
        # the zero piece supports the whole quotient, so its extremes
        # are the highest and lowest weights of the degree
        g = a2_model.group
        piece = a2_model.pair_piece(g.identity, g.longest, (1, 1))
        assert piece.dim == 0
        support, maximal, minimal = a2_model.support_extremes(piece)
        assert support == list(a2_model.module((1, 1)).block_order)
        assert maximal == [(1, 1)]
        assert minimal == [(-1, -1)]

    def test_incomparable_support_extremes(self, a2_model):
        # a hand-made piece missing two incomparable blocks reports both
        # as maximal and as minimal
        from qbruhat.coordring import GradedPiece
        m = a2_model.module((1, 1))
        holes = {(2, -1), (-1, 2)}
        rows = []
        for k in range(m.dim):
            if m.weights[k] in holes:
                continue
            rows.append({k: ONE})
        piece = GradedPiece.from_rows(m, rows)
        support, maximal, minimal = a2_model.support_extremes(piece)
        assert set(support) == holes
        assert maximal == sorted(holes)
        assert minimal == sorted(holes)


def assert_subspace_blocks(module, blocks):
    """Every block value is a nonzero Subspace of its block's size."""
    for wt, sub in blocks.items():
        assert isinstance(sub, Subspace), wt
        assert sub.ambient == len(module.weight_indices(wt)), wt
        assert sub.dim > 0, wt


class TestBlockRepresentation:
    @pytest.mark.parametrize("label,top", [("A2", 3), ("B2", 2)])
    def test_orthogonals_match_tuple_oracle(self, label, top):
        """Complements of the closure blocks give the weights, rows and
        pivots of the tuple blocks taken by ``kernel``."""
        model = CoordinateModel.get(label)
        for lam in itertools.product(range(top + 1),
                                     repeat=model.datum.rank):
            m = model.module(lam)
            for w in model.group.elements:
                for sign in "+-":
                    got = model.demazure_orth(w, sign, lam).blocks
                    want = tuple_demazure_orth(m, w, sign)
                    assert list(got) == list(want), (lam, w.word, sign)
                    for wt, (rows, piv) in want.items():
                        sub = got[wt]
                        assert sub.ambient == len(m.weight_indices(wt))
                        assert sub.pivots == list(piv)
                        assert sub.rows == [list(r) for r in rows]
                        assert ([[str(c) for c in r] for r in sub.rows]
                                == [[str(c) for c in r] for r in rows])

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_closures_and_orthogonals_hold_subspaces(self, label):
        model = CoordinateModel.get(label)
        for lam in [(1, 0), (0, 1), (1, 1), (2, 1)]:
            m = model.module(lam)
            for w in model.group.elements:
                for sign in "+-":
                    assert_subspace_blocks(m, model.closure(w, sign, lam))
                    assert_subspace_blocks(
                        m, model.demazure_orth(w, sign, lam).blocks)

    def test_pair_left_ideal_and_saturation_pieces_hold_subspaces(
            self, a2_model):
        g = a2_model.group
        for y, z in bruhat_pairs(g):
            piece = a2_model.pair_piece(y, z, (1, 1))
            assert_subspace_blocks(piece.module, piece.blocks)
            for by in "yz":
                for piece in a2_model.saturation(y, z, (1, 0), 2,
                                                 by=by).pieces:
                    assert_subspace_blocks(piece.module, piece.blocks)
        for eta in a2_model.module((1, 0)).block_order:
            for side in "+-":
                piece = a2_model.left_ideal_piece((1, 0), eta, side, (0, 1))
                assert_subspace_blocks(piece.module, piece.blocks)


class TestTwistedDecomposition:
    def test_blocks_split_completely(self, a2_model):
        g = a2_model.group
        m = a2_model.module((1, 1))
        w = g.parse("s1 s2")
        nonempty = 0
        for eta in m.block_order:
            lam, mult = a2_model.sufficient_degree(w, eta)
            parts = a2_model.twisted_decomposition(w, eta, lam=lam)
            labels = [mu for mu, _ in parts]
            assert labels == sorted(labels)
            assert len(set(labels)) == len(labels)
            total = sum(sub.dim for _, sub in parts)
            assert total == mult
            nonempty += bool(parts)
        assert nonempty >= 4

    def test_split_check_details(self, a2_model):
        g = a2_model.group
        detail = a2_model.lowering_split_check(g.gens[0], (0, 0))
        assert detail["central_dim"] >= 1
        assert detail["block_dim"] == (detail["central_dim"]
                                       + sum(d for mu, d in detail["labels"]
                                             if mu != (0, 0)))

    def test_decomposition_is_memoised_per_degree(self, a2_model):
        w = a2_model.group.gens[1]
        lam, _ = a2_model.sufficient_degree(w, (0, 0))
        first = a2_model.twisted_decomposition(w, (0, 0), lam=lam)
        with mock.patch.object(CoordinateModel, "conj_block",
                               side_effect=AssertionError("recomputed")):
            again = a2_model.twisted_decomposition(w, (0, 0), lam=lam)
            detail = a2_model.lowering_split_check(w, (0, 0), lam=lam)
        assert again == first
        again.clear()
        assert a2_model.twisted_decomposition(w, (0, 0), lam=lam) == first
        assert detail["labels"] == [(mu, sub.dim) for mu, sub in first]

    def test_sufficient_degree_is_regular_enough(self, a2_model):
        g = a2_model.group
        lam, mult = a2_model.sufficient_degree(g.longest, (0, 0))
        assert mult >= 1
        m = a2_model.module(lam)
        blk = a2_model.datum.add(g.longest.act(lam), (0, 0))
        assert len(m.weight_indices(blk)) == mult


class TestStabilisingDegree:
    @pytest.mark.parametrize("label,cases", [("A2", 294), ("B2", 392)])
    def test_degree_carries_the_cone_count(self, label, cases):
        """For every w and beta in [0, 6]^rank, with eta = w(-beta): the
        multiplicity returned is the cone count p(beta), the eta-block
        has it at the returned degree k.rho, and has less at (k-1).rho."""
        model = CoordinateModel.get(label)
        datum, group = model.datum, model.group
        positives = [tuple(int(c) for c in rc)
                     for rc in datum.positive_roots]

        def mult(w, eta, k):
            lam = (k,) * datum.rank
            return weight_multiplicity(datum, group, lam,
                                       datum.add(w.act(lam), eta))

        checked = 0
        for w in group.elements:
            for beta in itertools.product(range(7), repeat=datum.rank):
                eta = w.act(datum.root_to_fund([-c for c in beta]))
                lam, m = model.sufficient_degree(w, eta)
                k = lam[0]
                assert lam == (k,) * datum.rank
                assert m == brute_cone_count(datum, beta, positives)
                assert mult(w, eta, k) == m
                assert k == 1 or mult(w, eta, k - 1) < m
                checked += 1
        assert checked == cases

    @pytest.mark.parametrize("label,blocks", [("A2", 114), ("B2", 296)])
    def test_multiplicity_is_the_kostant_count(self, label, blocks):
        """The multiplicity read off the Weyl character at k*.rho equals
        Kostant's partition count p(-w^-1 eta); every offset the sweep
        reaches lies in the cone, so each count is positive."""
        model = CoordinateModel.get(label)
        datum = model.datum
        checked = 0
        for w in model.group.elements:
            winv = w.inverse()
            for eta in eta_sweep(model, w):
                beta = [-c for c in datum.root_coords(winv.act(eta))]
                assert all(c.denominator == 1 for c in beta)
                count = kostant(datum, [int(c) for c in beta])
                assert model.sufficient_degree(w, eta)[1] == count >= 1
                checked += 1
        assert checked == blocks

    def test_offsets_off_the_cone_are_empty(self, a2_model):
        g = a2_model.group
        # beta = -w^-1 eta: (1, 0) and (4, 0) are off the root lattice,
        # -alpha_1 and 3 alpha_1 - alpha_2 have a negative coordinate
        for w, eta in [(g.identity, (-1, 0)), (g.identity, (-4, 0)),
                       (g.identity, (2, -1)), (g.longest, (-2, 1)),
                       (g.identity, (-7, 5))]:
            assert a2_model.sufficient_degree(w, eta) == ((1, 1), 0)

    def test_plateau_before_the_stable_degree(self, a2_model):
        """The multiplicities at k.rho for k = 1..4 are 0, 0, 1, 1: the
        first repeat is not the stable value."""
        e = a2_model.group.identity
        assert a2_model.sufficient_degree(e, (3, -6)) == ((3, 3), 1)
        parts = a2_model.twisted_decomposition(e, (3, -6))
        assert [(mu, sub.dim) for mu, sub in parts] == [((6, -12), 1)]

    @pytest.mark.parametrize("lam", [None, (8, 8)],
                             ids=["lam-omitted", "lam-given"])
    def test_out_of_scope_degree_names_the_block_and_degree(self, lam):
        """eta = (-16, 8) at w = e has k* = 8, and V(8, 8) is past the
        module cap: the error names the block and the degree whether lam
        is given or left to the stabilising degree."""
        model = CoordinateModel.get("A2")
        e = model.group.identity
        assert model.sufficient_degree(e, (-16, 8))[0] == (8, 8)
        with pytest.raises(ModuleScopeError) as err:
            model.twisted_decomposition(e, (-16, 8), lam=lam)
        assert str(err.value) == ("block (-8, 16) of degree (8, 8): "
                                  "dimension 729 exceeds the cap 400")

    def test_failed_solve_at_the_stable_degree_propagates(self):
        """A SufficiencyError at k*.rho is raised as it is; no higher
        degree is tried."""
        model = CoordinateModel("A2")
        tried = []

        def solve(w, eta, lam):
            tried.append(lam)
            raise SufficiencyError("conjugation solve inconsistent")

        with mock.patch.object(CoordinateModel, "_twisted_decomposition",
                               side_effect=solve):
            with pytest.raises(SufficiencyError,
                               match="conjugation solve inconsistent"):
                model.twisted_decomposition(model.group.identity, (2, -4))
        assert tried == [(2, 2)]


def box_decomposition(model, w, eta, lam, margin=2):
    """The candidate-box search: every label with even root coordinates
    in a margin-wide box around the block offset, kept when the kernels
    of (M_i - q^e_i)^b meet in a nonzero subspace."""
    datum = model.datum
    blk = datum.add(w.act(lam), eta)
    b = len(model.module(lam).weight_indices(blk))
    if not b:
        return []
    mats = [model.twisted_conj_block(w, i, lam, blk)
            for i in range(datum.rank)]
    ranges = [range(2 * int(c) - 2 * margin, 2 * margin + 1, 2)
              for c in datum.root_coords(w.inverse().act(eta))]
    found = []
    for coords in itertools.product(*ranges):
        mu = datum.root_to_fund(coords)
        space = Subspace.full(b)
        for i, mat in enumerate(mats):
            s = Laurent.q_power(int(datum.inner(mu, datum.fund(i))))
            shifted = [[c - s if t == u else c for u, c in enumerate(row)]
                       for t, row in enumerate(mat)]
            power = shifted
            for _ in range(b - 1):
                power = mat_mul(power, shifted)
            cols = [[row[c] for row in power] for c in range(b)]
            space = space.intersect(Subspace(b, *kernel(cols, b)))
        if space.dim:
            found.append((mu, space))
    assert sum(sub.dim for _, sub in found) == b
    return sorted(found, key=lambda it: it[0])


def spelled(parts):
    return [(mu, [[str(c) for c in row] for row in sub.rows], sub.pivots)
            for mu, sub in parts]


class TestEigenOracle:
    @pytest.mark.parametrize("label,top,blocks",
                             [("A2", 2, 54), ("B2", 1, 56)])
    def test_exact_roots_match_the_box_search(self, label, top, blocks):
        """Labels, echelon rows and pivots agree with the box search on
        every block whose stabilising degree is at most 2.rho."""
        model = CoordinateModel.get(label)
        checked = 0
        for w in model.group.sorted_elements():
            for eta in eta_sweep(model, w, top=top):
                lam, mult = model.sufficient_degree(w, eta)
                if max(lam) > 2:
                    continue
                parts = model.twisted_decomposition(w, eta, lam=lam)
                assert sum(sub.dim for _, sub in parts) == mult
                assert spelled(parts) == spelled(
                    box_decomposition(model, w, eta, lam))
                checked += 1
        assert checked == blocks

    def test_non_q_power_eigenvalue_names_block_and_degree(self):
        model = CoordinateModel("A2")
        swap = [[ZERO, Q], [ONE, ZERO]]           # x^2 - q
        with mock.patch.object(CoordinateModel, "twisted_conj_block",
                               return_value=swap):
            with pytest.raises(EigenvalueError) as err:
                model.twisted_decomposition(model.group.identity, (-1, -1),
                                            lam=(1, 1))
        msg = str(err.value)
        assert "block (0, 0) of degree (1, 1)" in msg
        assert "factor of degree 2" in msg
        assert "candidate box" not in msg

    def test_jordan_block_gives_the_generalized_eigenspace(self):
        model = CoordinateModel("A2")
        q2 = Q * Q
        jordan = [[q2, ONE, ZERO], [ZERO, q2, ZERO], [ZERO, ZERO, ONE]]
        with mock.patch.object(CoordinateModel, "twisted_conj_block",
                               return_value=jordan):
            parts = model.twisted_decomposition(model.group.identity,
                                                (-2, -2), lam=(2, 2))
        assert parts == [((0, 0), Subspace.from_vectors(3, [[ZERO, ZERO,
                                                              ONE]])),
                         ((2, 2), Subspace.from_vectors(3, [[ONE, ZERO, ZERO],
                                                            [ZERO, ONE,
                                                             ZERO]]))]

    def test_label_outside_twice_the_root_lattice(self):
        model = CoordinateModel("A2")
        with mock.patch.object(CoordinateModel, "twisted_conj_block",
                               return_value=[[Q]]):
            with pytest.raises(EigenvalueError) as err:
                model.twisted_decomposition(model.group.identity, (0, 0),
                                            lam=(1, 1))
        assert "block (1, 1) of degree (1, 1)" in str(err.value)


class TestConjugationSolve:
    def test_frozen_operator(self, a2_model):
        assert a2_model.conj_block(a2_model.group.identity, (1, 0), (0, 0),
                                   (0, 0)) == [[ONE]]

    def test_inconsistent_solve(self, a2_model):
        w = a2_model.group.gens[0]
        with pytest.raises(SufficiencyError, match="conjugation solve "
                           "inconsistent on block \\(1, -1\\) of degree "
                           "\\(0, 1\\)"):
            a2_model.conj_block(w, (1, 0), (0, 1), (1, -1))

    def test_injectivity_is_checked_first(self):
        """Keeping one left product row makes the solve both singular and
        inconsistent (three pivots on a two-dimensional block); the
        injectivity error wins, as it always has."""
        model = CoordinateModel("A2")
        real = CoordinateModel.pair_table
        first = model.module((2, 1)).weight_indices((-1, 1)).start

        def one_left_row(self, lam, mu):
            table = real(self, lam, mu)
            if (tuple(lam), tuple(mu)) != ((0, 1), (2, 1)):
                return table
            return {k: v for k, v in table.items() if k[1] == first}

        with mock.patch.object(CoordinateModel, "pair_table", one_left_row):
            with pytest.raises(SufficiencyError, match="not injective on "
                               "block \\(-1, 1\\) of degree \\(2, 1\\)"):
                model.conj_block(model.group.gens[1], (0, 1), (2, 1),
                                 (-1, 1))


class TestSaturation:
    def test_inner_pair_stabilizes(self, a2_model):
        g = a2_model.group
        y, z = g.gens[0], g.parse("s1 s2")
        sat = a2_model.saturation(y, z, (1, 1), 2)
        assert sat.stabilized
        assert sat.dims == [6, 6, 6]

    def test_anchor_symmetry(self, a2_model):
        g = a2_model.group
        y, z = g.gens[0], g.parse("s1 s2")
        by_z = a2_model.saturation(y, z, (1, 1), 2, by="z")
        by_y = a2_model.saturation(y, z, (1, 1), 2, by="y")
        assert by_z.final == by_y.final

    def test_saturation_grows_where_raw_piece_is_small(self, a2_model):
        # the recovered piece at a fundamental degree can strictly exceed
        # the raw pair piece
        g = a2_model.group
        y, z = g.gens[0], g.parse("s1 s2")
        sat = a2_model.saturation(y, z, (0, 1), 2)
        assert sat.dims[0] == 0
        assert sat.final.dim == 1
        assert sat.stabilized
        assert sat.final.contains_row(a2_model.extreme_row((0, 1),
                                                           g.gens[1]))

    def test_stratum_round_trip(self, a2_model):
        g = a2_model.group
        cases = [(g.identity, g.gens[0]), (g.gens[0], g.parse("s1 s2")),
                 (g.gens[1], g.longest), (g.identity, g.identity),
                 (g.identity, g.longest)]
        for y, z in cases:
            wy, wz, sat = a2_model.stratum_of(y, z, (1, 1))
            assert wy == y and wz == z
            assert sat.stabilized

    def test_round_trip_at_non_regular_degree(self, a2_model):
        # a degree with a stabilizer recovers the pair only through its
        # orbit: the reported elements are the shortest representatives
        g = a2_model.group
        y, z = g.gens[1], g.longest
        wy, wz, sat = a2_model.stratum_of(y, z, (1, 0))
        assert wy.act((1, 0)) == y.act((1, 0))
        assert wz.act((1, 0)) == z.act((1, 0))
        assert wy == g.identity
        assert wz.length <= z.length

    def test_non_orbit_weight_has_no_element(self, a2_model):
        assert a2_model.weight_to_element((1, 0), (0, 0)) is None
        w = a2_model.weight_to_element((1, 1), (-1, -1))
        assert w == a2_model.group.longest

    @pytest.mark.parametrize("label,nus,bound,anchors", [
        ("A2", [(1, 0), (0, 1)], 3, ["y", "z"]),
        ("B2", [(0, 1)], 2, ["z"]),
    ])
    def test_steps_match_pair_piece_kernels(self, label, nus, bound,
                                            anchors):
        """Each step's closure intersections give the rows and pivots of
        the kernel of the whole pair piece of degree nu + k rho."""
        model = CoordinateModel.get(label)
        for y, z in bruhat_pairs(model.group):
            for nu in nus:
                for by in anchors:
                    sat = model.saturation(y, z, nu, bound, by=by)
                    assert sat.pieces == pair_piece_saturation(
                        model, y, z, nu, bound, by), (y, z, nu, by)

    def test_steps_build_no_pair_piece_above_nu(self, monkeypatch):
        model = CoordinateModel("A2")
        g = model.group
        degrees = []
        real = CoordinateModel.pair_piece

        def spy(self, y, z, lam):
            degrees.append(tuple(lam))
            return real(self, y, z, lam)

        monkeypatch.setattr(CoordinateModel, "pair_piece", spy)
        model.saturation(g.gens[0], g.longest, (1, 0), 3, by="y")
        assert degrees == [(1, 0)]

    def test_held_scalars_have_integer_coefficients(self, a2_model):
        """After an A2 saturation sweep at nu = (1,0), bound 2, and a B2
        (2,1) build, the module matrices, the closures, the pair pieces
        and the saturated pieces hold int coefficients only, in
        numerators and denominators alike."""
        nu, bound = (1, 0), 2
        datum = a2_model.datum
        degrees = [datum.add(nu, tuple(k * c for c in datum.rho()))
                   for k in range(bound + 1)]
        rows = []
        for y, z in bruhat_pairs(a2_model.group):
            sat = a2_model.saturation(y, z, nu, bound)
            held = [piece.blocks for piece in sat.pieces]
            held.append(a2_model.pair_piece(y, z, nu).blocks)
            for lam in degrees:
                held += [a2_model.closure(y, "-", lam),
                         a2_model.closure(z, "+", lam)]
            rows += [row for blocks in held for sub in blocks.values()
                     for row in sub.rows]
        modules = [a2_model.module(lam) for lam in degrees]
        modules.append(build_irrep(build_cartan("B2"), (2, 1)))
        for m in modules:
            rows += [list(vec.values()) for mat in m.fmat + m.emat
                     for vec in mat.values()]
        scalars = [x for row in rows for x in row if x]
        parts = [p for x in scalars
                 for p in ((x,) if isinstance(x, Laurent) else (x.num, x.den))]
        assert len(scalars) > 1000
        assert all(type(c) is int for p in parts for c in p.coeffs.values())

    def test_bad_anchor_flag(self, a2_model):
        g = a2_model.group
        with pytest.raises(ValueError):
            a2_model.saturation(g.identity, g.gens[0], (1, 1), 1,
                                by="w")


class TestScope:
    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            CoordinateModel.get("Q5")

    def test_get_caches(self):
        assert CoordinateModel.get("A2") is CoordinateModel.get("A2")
