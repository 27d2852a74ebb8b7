"""End-to-end acceptance checks.

Eleven criteria, each asserted with exact arithmetic only (integer and
Laurent-polynomial equality, never approximation) and each reporting one
pass/fail line through the terminal summary.

The paper's checks that ``qbruhat verify`` also runs are functions of
``qbruhat.verify``, written once; a criterion calls them with its own
arguments, where the suite calls them with its own.  They are the worked
example (criterion 01), the commutation grids and extreme relations
(02), stratum indexing (05), centre sizes and walk exponents (09) and
stratum ranks (10).  Criteria 05, 06 and 11 run on B2 as well as A2.

The independent oracles live in ``tests/oracles.py`` (cone
multiplicities by brute-force partition enumeration, the fixed lattice
by an exact kernel) and in ``qbruhat.verify`` (reflection lengths by
breadth-first search over the reflections, which the CLI needs too), so
agreement is meaningful.
"""

import itertools

from qbruhat.cartan import build_cartan
from qbruhat.characters import (cell_translate_character, demazure_character,
                                weyl_dim)
from qbruhat.exactalg import ZERO, Laurent
from qbruhat.strata import DiamondPoset
from qbruhat.uqmodules import build_irrep, demazure_blocks
from qbruhat.verify import (check_centre_tables, check_commutation_grid,
                            check_distinguishing_scan,
                            check_extreme_relations_grid, check_sl3_pieces,
                            check_sl3_product, check_sl3_saturation,
                            check_stratum_indexing, check_stratum_ranks,
                            check_walk_exponent, reflection_lengths)
from qbruhat.weyl import WeylGroup
from oracles import (brute_cone_count, bruhat_pairs, eta_sweep,
                     fixed_lattice, search_matrices)

# the fundamental degrees and rho of a rank-two type
DEGREES = [(1, 0), (0, 1), (1, 1)]


def test_criterion_01_rank_two_worked_example(criterion, a2_model):
    with criterion(1, "rank-two worked example reproduced exactly"):
        check_sl3_pieces(a2_model)
        check_sl3_product(a2_model)
        check_sl3_saturation(a2_model)


def test_criterion_02_commutation_congruences(criterion, a1_model,
                                              a2_model, b2_model):
    with criterion(2, "q-commutation congruences and exact extreme "
                      "relations in ranks one and two"):
        a1_degrees = [(1,), (2,)]
        assert check_commutation_grid(a2_model, DEGREES) == 169
        check_commutation_grid(a1_model, a1_degrees)
        check_commutation_grid(b2_model, DEGREES[:2])
        check_extreme_relations_grid(a2_model, DEGREES, DEGREES)
        check_extreme_relations_grid(a1_model, a1_degrees, a1_degrees)
        check_extreme_relations_grid(b2_model, DEGREES, DEGREES[:2])


def test_criterion_03_twisted_eigenvalues(criterion, a2_model):
    with criterion(3, "twisted conjugation operators commute and split "
                      "into integer q-power eigenspaces"):
        datum = a2_model.datum
        g = a2_model.group
        positives = [tuple(int(c) for c in rc)
                     for rc in datum.positive_roots]
        checked = 0
        for w in g.sorted_elements():
            winv = w.inverse()
            for eta in eta_sweep(a2_model, w):
                lam, mult = a2_model.sufficient_degree(w, eta)
                # the stable block multiplicity is a cone count
                offset = datum.root_coords(winv.act(eta))
                expect = brute_cone_count(
                    datum, tuple(-c for c in offset), positives)
                assert mult == expect
                parts = a2_model.twisted_decomposition(w, eta, lam=lam)
                labels = [mu for mu, _ in parts]
                assert labels == sorted(labels)
                assert len(set(labels)) == len(labels)
                assert sum(sub.dim for _, sub in parts) == mult
                for mu, _ in parts:
                    for i in range(datum.rank):
                        e = datum.inner(mu, datum.fund(i))
                        assert e.denominator == 1
                checked += 1
        assert checked == 114

        # direct annihilation check at the smallest stabilizing degree:
        # (M_i - q^e)^b kills each labelled subspace
        for w in g.sorted_elements():
            for eta in eta_sweep(a2_model, w):
                lam, mult = a2_model.sufficient_degree(w, eta)
                if lam != (1, 1):
                    continue
                blk = datum.add(w.act(lam), eta)
                b = len(a2_model.module(lam).weight_indices(blk))
                parts = a2_model.twisted_decomposition(w, eta, lam=lam)
                for i in range(datum.rank):
                    mat = a2_model.twisted_conj_block(w, i, lam, blk)
                    for mu, sub in parts:
                        e = int(datum.inner(mu, datum.fund(i)))
                        s = Laurent.q_power(e)
                        for row in sub.rows:
                            cur = list(row)
                            for _ in range(b):
                                cur = [
                                    sum((mat[t][u] * cur[t]
                                         for t in range(b)), ZERO)
                                    - s * cur[u]
                                    for u in range(b)]
                            assert not any(cur)


def test_criterion_04_block_splitting(criterion, a2_model):
    with criterion(4, "central and ideal parts split every block and "
                      "the two membership descriptions agree"):
        g = a2_model.group
        checked = 0
        for w in g.sorted_elements():
            for eta in eta_sweep(a2_model, w):
                detail = a2_model.lowering_split_check(w, eta)
                rest = sum(d for mu, d in detail["labels"] if mu != (0, 0))
                assert detail["block_dim"] == detail["central_dim"] + rest
                central_labelled = sum(d for mu, d in detail["labels"]
                                       if mu == (0, 0))
                assert detail["central_dim"] == central_labelled
                checked += 1
        assert checked == 114


def test_criterion_05_stratum_indexing(criterion, a2_model, b2_model):
    with criterion(5, "saturated pieces index the strata: support "
                      "extremes recover the pair, interval coefficients "
                      "stay outside"):
        assert check_stratum_indexing(a2_model, DEGREES, 3) == 19
        assert check_stratum_indexing(b2_model, DEGREES, 2) == 33


def test_criterion_06_inclusion_matches_order(criterion, a2_model, b2_model):
    with criterion(6, "ideal inclusion matches the pair order and "
                      "closures are downward sets"):
        # B2 only at rho: at its fundamental degrees distinct pairs can
        # share a piece
        for model, bound, size in [(a2_model, 3, 19), (b2_model, 2, 33)]:
            poset = DiamondPoset(model.group)
            n = len(poset)
            assert n == size
            finals = [model.saturation(y, z, (1, 1), bound).final
                      for y, z in poset.pairs]
            for i in range(n):
                for j in range(n):
                    assert finals[i].is_subpiece(finals[j]) == \
                        poset.geq(i, j)

            # reachability through covering edges regenerates the closures
            edges = poset.hasse_edges()
            below = {i: {i} for i in range(n)}
            changed = True
            while changed:
                changed = False
                for i, j in edges:
                    new = below[j] - below[i]
                    if new:
                        below[i] |= new
                        changed = True
            for i in range(n):
                assert below[i] == set(poset.closure(i))
                for j in poset.closure(i):
                    for k in poset.closure(j):
                        assert k in poset.closure(i)


def test_criterion_07_closure_dims_match_characters(criterion):
    with criterion(7, "extreme closure dimensions equal character "
                      "masses and inclusion mirrors the word order"):
        for label in ["A1", "A2", "B2"]:
            datum = build_cartan(label)
            group = WeylGroup.build(datum)
            w0 = group.longest
            for lam in itertools.product(range(3), repeat=datum.rank):
                m = build_irrep(datum, lam)
                lam_star = tuple(-c for c in w0.act(lam))
                for w in group.elements:
                    plus = demazure_blocks(m, w, "+")
                    assert plus.dim == demazure_character(
                        datum, w, lam).mass()
                    minus = demazure_blocks(m, w, "-")
                    assert minus.dim == demazure_character(
                        datum, group.multiply(w, w0),
                        lam_star).mass()
            lam = tuple(2 for _ in range(datum.rank))
            m = build_irrep(datum, lam)
            for sign in ["+", "-"]:
                subs = {w.idx: demazure_blocks(m, w, sign)
                        for w in group.elements}
                for y in group.elements:
                    for z in group.elements:
                        expect = (group.bruhat_leq(y, z) if sign == "+"
                                  else group.bruhat_leq(z, y))
                        got = subs[y.idx].is_subpiece(subs[z.idx])
                        assert got == expect


def test_criterion_08_translated_cone_character(criterion, a2_group):
    with criterion(8, "truncated cone character equals brute-force "
                      "counting and the dimension formula matches "
                      "module sizes"):
        datum = a2_group.datum
        positives = [tuple(int(c) for c in rc)
                     for rc in datum.positive_roots]
        depth = 6
        ch = cell_translate_character(a2_group, a2_group.identity, depth)
        seen = set()
        for mu, c in ch.terms.items():
            rc = datum.root_coords(mu)
            assert datum.depth(mu) <= depth
            assert c == brute_cone_count(
                datum, tuple(-x for x in rc), positives)
            seen.add(tuple(int(-x) for x in rc))
        # completeness: every cone point within the truncation appears
        for a in range(depth + 1):
            for b in range(depth + 1 - a):
                if brute_cone_count(datum, (a, b), positives):
                    assert (a, b) in seen

        for label, tops in [("A1", 5), ("A2", 3), ("B2", 3)]:
            d = build_cartan(label)
            for lam in itertools.product(range(tops), repeat=d.rank):
                assert build_irrep(d, lam).dim == weyl_dim(d, lam)


def test_criterion_09_centre_dimensions(criterion):
    with criterion(9, "centre sizes single out the extreme cells in "
                      "every scanned type"):
        check_centre_tables()
        assert check_distinguishing_scan(
            ("A1", "A2", "A3", "B2", "B3")) == 5

        # the paired generators commute past everything exactly
        for label, rank in [("A1", 1), ("B2", 2), ("B3", 3)]:
            grid = list(itertools.product(range(-1, 2), repeat=rank))
            check_walk_exponent(
                label, itertools.product(
                    itertools.product(range(3), repeat=rank), grid, grid))
        grid = list(itertools.product(range(-1, 2), repeat=2))
        check_walk_exponent("A2", itertools.product([(1, 1)], grid, grid))


def test_criterion_10_stratum_ranks(criterion, a2_group, b2_group):
    with criterion(10, "stratum ranks agree with fixed-lattice "
                       "dimensions and with length minus reflection "
                       "length"):
        for group, full_rank in [(a2_group, 1), (b2_group, 0)]:
            check_stratum_ranks(group, full_rank)
            dist = reflection_lengths(group)
            mats = search_matrices(group.datum)
            for z in group.elements:
                fl = fixed_lattice(group, z)
                assert fl.dim == group.fixed_space_rank(z)
                assert fl.dim == group.rank - dist[z.idx]
                # the fixed lattice really is fixed
                for row in fl.rows:
                    img = [sum((row[c] * mats[z.idx][r][c]
                                for c in range(group.rank)), ZERO)
                           for r in range(group.rank)]
                    assert img == list(row)


def test_criterion_11_saturation_behaviour(criterion, a2_model, b2_model):
    with criterion(11, "saturation is anchor-symmetric and stabilizes "
                       "within three steps in every measured case"):
        for model, bound in [(a2_model, 3), (b2_model, 2)]:
            worst = 0
            for nu in DEGREES:
                for y, z in bruhat_pairs(model.group):
                    by_z = model.saturation(y, z, nu, bound, by="z")
                    by_y = model.saturation(y, z, nu, bound, by="y")
                    assert by_z.final == by_y.final
                    assert by_z.stabilized and by_y.stabilized
                    first = next(k for k in range(len(by_z.pieces) - 1)
                                 if by_z.pieces[k] == by_z.pieces[k + 1])
                    worst = max(worst, first)
            assert worst <= bound
