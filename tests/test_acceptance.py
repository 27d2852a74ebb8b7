"""End-to-end acceptance checks.

Eleven criteria, each asserted with exact arithmetic only (integer and
Laurent-polynomial equality, never approximation) and each reporting one
pass/fail line through the terminal summary.  Where a criterion needs an
independent cross-check, the oracle is implemented here from scratch:
reflection lengths come from breadth-first search over the reflection
Cayley graph and cone multiplicities from brute-force partition
enumeration, so agreement is meaningful.
"""

import itertools

from qbruhat.cartan import build_cartan
from qbruhat.centre import (centrality_exponent, centre_table,
                            distinguishing_scan)
from qbruhat.characters import (cell_translate_character, demazure_character,
                                weyl_dim)
from qbruhat.exactalg import ZERO, Laurent
from qbruhat.strata import DiamondPoset
from qbruhat.uqmodules import build_irrep, demazure_submodule
from qbruhat.weyl import WeylGroup
from oracles import fixed_lattice

A2_DEGREES = [(1, 0), (0, 1), (1, 1)]


# -- independent oracles ---------------------------------------------------


def reflection_length_oracle(group):
    """BFS distance from the identity in the all-reflections Cayley
    graph, computed without the fixed-lattice shortcut."""
    refl = [t for t in group.elements
            if group.fixed_space_rank(t) == group.rank - 1]
    dist = {group.identity.idx: 0}
    frontier = [group.identity]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for w in frontier:
            for t in refl:
                u = w * t
                if u.idx not in dist:
                    dist[u.idx] = d
                    nxt.append(u)
        frontier = nxt
    return dist


def brute_cone_count(datum, target_rc, positives):
    """Number of ways to write target_rc as a nonnegative integer
    combination of the given positive-root coordinate vectors."""
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


def bruhat_pairs(group):
    return [(y, z) for y in group.sorted_elements()
            for z in group.sorted_elements() if group.bruhat_leq(y, z)]


# -- criteria --------------------------------------------------------------


def test_criterion_01_rank_two_worked_example(criterion, a2_model):
    with criterion(1, "rank-two worked example reproduced exactly"):
        g = a2_model.group
        s1, s2 = g.gens
        w12 = g.parse("s1 s2")

        minus = {deg: a2_model.demazure_orth(s1, "-", deg)
                 for deg in A2_DEGREES}
        assert [minus[d].dim for d in A2_DEGREES] == [1, 0, 3]
        assert minus[(1, 0)].weight_dims() == [((1, 0), 1)]
        assert minus[(0, 1)].weight_dims() == []
        assert minus[(1, 1)].weight_dims() == [((0, 0), 1), ((1, 1), 1),
                                               ((2, -1), 1)]

        plus = {deg: a2_model.demazure_orth(w12, "+", deg)
                for deg in A2_DEGREES}
        assert [plus[d].dim for d in A2_DEGREES] == [1, 0, 3]
        assert plus[(1, 0)].weight_dims() == [((0, -1), 1)]
        assert plus[(0, 1)].weight_dims() == []
        assert plus[(1, 1)].weight_dims() == [((-1, -1), 1), ((0, 0), 1),
                                              ((1, -2), 1)]

        # the product of the two short extreme coefficients lands in the
        # plane spanned by the zero-weight generators of the two pieces
        prod = a2_model.multiply((1, 0), a2_model.extreme_row((1, 0), s1),
                                 (0, 1), a2_model.extreme_row((0, 1), s2))
        mod = a2_model.module((1, 1))
        assert any(prod)
        assert all(mod.weights[k] == (0, 0)
                   for k, c in enumerate(prod) if c)
        pair = a2_model.pair_piece(s1, w12, (1, 1))
        assert minus[(1, 1)].block_dim((0, 0)) == 1
        assert plus[(1, 1)].block_dim((0, 0)) == 1
        assert pair.block_dim((0, 0)) == 2
        assert pair.contains_row(prod)

        # the long extreme coefficient is missed by the raw pair piece
        # at its own degree and recovered by one saturation step
        assert a2_model.pair_piece(s1, w12, (0, 1)).dim == 0
        sat = a2_model.saturation(s1, w12, (0, 1), 1)
        assert sat.dims[0] == 0
        assert sat.final.dim == 1
        assert sat.final.contains_row(a2_model.extreme_row((0, 1), s2))


def test_criterion_02_commutation_congruences(criterion, a1_model,
                                              a2_model, b2_model):
    with criterion(2, "q-commutation congruences and exact extreme "
                      "relations in ranks one and two"):
        lines = 0
        for nu in A2_DEGREES:
            for lam in A2_DEGREES:
                for mu in a2_model.module(nu).block_order:
                    for eta in a2_model.module(lam).block_order:
                        assert a2_model.check_commutation(nu, mu, lam, eta)
                        lines += 1
        assert lines == 169

        for nu in [(1,), (2,)]:
            for lam in [(1,), (2,)]:
                for mu in a1_model.module(nu).block_order:
                    for eta in a1_model.module(lam).block_order:
                        assert a1_model.check_commutation(nu, mu, lam, eta)

        b2_degrees = [(1, 0), (0, 1)]
        for nu in b2_degrees:
            for lam in b2_degrees:
                for mu in b2_model.module(nu).block_order:
                    for eta in b2_model.module(lam).block_order:
                        assert b2_model.check_commutation(nu, mu, lam, eta)

        for lam in A2_DEGREES:
            for nu in A2_DEGREES:
                assert a2_model.check_extreme_relations(lam, nu)
        for lam in [(1,), (2,)]:
            for nu in [(1,), (2,)]:
                assert a1_model.check_extreme_relations(lam, nu)
        for lam in [(1, 0), (0, 1), (1, 1)]:
            for nu in b2_degrees:
                assert b2_model.check_extreme_relations(lam, nu)


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


def test_criterion_05_stratum_indexing(criterion, a2_model):
    with criterion(5, "saturated pieces index the strata: support "
                      "extremes recover the pair, interval coefficients "
                      "stay outside"):
        g = a2_model.group
        for nu in A2_DEGREES:
            for y, z in bruhat_pairs(g):
                wy, wz, sat = a2_model.stratum_of(y, z, nu, bound=3)
                assert sat.stabilized
                assert wy.act(nu) == y.act(nu)
                assert wz.act(nu) == z.act(nu)
                _, maximal, minimal = a2_model.support_extremes(sat.final)
                assert maximal == [y.act(nu)]
                assert minimal == [z.act(nu)]
                for w in g.sorted_elements():
                    inside = (g.bruhat_leq(y, w) and g.bruhat_leq(w, z))
                    has = sat.final.contains_row(
                        a2_model.extreme_row(nu, w))
                    if inside:
                        assert not has
                    elif nu == (1, 1):
                        # at a regular degree membership is exactly the
                        # complement of the interval
                        assert has


def test_criterion_06_inclusion_matches_order(criterion, a2_model):
    with criterion(6, "ideal inclusion matches the pair order and "
                      "closures are downward sets"):
        g = a2_model.group
        poset = DiamondPoset(g)
        n = len(poset)
        assert n == 19
        finals = [a2_model.saturation(y, z, (1, 1), 3).final
                  for y, z in poset.pairs]
        for i in range(n):
            for j in range(n):
                assert finals[i].is_subpiece(finals[j]) == poset.geq(i, j)

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
                    plus = demazure_submodule(m, w, "+")
                    assert plus.dim == demazure_character(
                        datum, group, w, lam).mass()
                    minus = demazure_submodule(m, w, "-")
                    assert minus.dim == demazure_character(
                        datum, group, group.multiply(w, w0),
                        lam_star).mass()
            lam = tuple(2 for _ in range(datum.rank))
            m = build_irrep(datum, lam)
            for sign in ["+", "-"]:
                subs = {w.idx: demazure_submodule(m, w, sign)
                        for w in group.elements}
                for y in group.elements:
                    for z in group.elements:
                        expect = (group.bruhat_leq(y, z) if sign == "+"
                                  else group.bruhat_leq(z, y))
                        got = subs[y.idx].is_subspace_of(subs[z.idx])
                        assert got == expect


def test_criterion_08_translated_cone_character(criterion, a2_group):
    with criterion(8, "truncated cone character equals brute-force "
                      "counting and the dimension formula matches "
                      "module sizes"):
        datum = a2_group.datum
        positives = [tuple(int(c) for c in rc)
                     for rc in datum.positive_roots]
        ch = cell_translate_character(a2_group, a2_group.identity, 6)
        seen = set()
        for mu, c in ch.terms.items():
            rc = datum.root_coords(mu)
            assert c == brute_cone_count(
                datum, tuple(-x for x in rc), positives)
            seen.add(tuple(int(-x) for x in rc))
        # completeness: every cone point within the truncation appears
        for a in range(7):
            for b in range(7):
                if a + b > 6:
                    continue
                expect = brute_cone_count(datum, (a, b), positives)
                if expect:
                    assert (a, b) in seen

        for label, tops in [("A1", 5), ("A2", 3), ("B2", 3)]:
            d = build_cartan(label)
            for lam in itertools.product(range(tops), repeat=d.rank):
                assert build_irrep(d, lam).dim == weyl_dim(d, lam)


def test_criterion_09_centre_dimensions(criterion):
    with criterion(9, "centre sizes single out the extreme cells in "
                      "every scanned type"):
        a2 = {w.word: data.dim for w, data in centre_table("A2")}
        assert a2 == {(): 1, (0,): 0, (1,): 0, (0, 1): 0, (1, 0): 0,
                      (0, 1, 0): 1}
        b2 = {w.word: data.dim for w, data in centre_table("B2")}
        assert b2[()] == 2 and b2[(0, 1, 0, 1)] == 2
        assert all(d < 2 for word, d in b2.items()
                   if word not in ((), (0, 1, 0, 1)))

        report = distinguishing_scan(("A1", "A2", "A3", "B2", "B3"))
        assert [r["type"] for r in report] == ["A1", "A2", "A3", "B2",
                                               "B3"]

        # the paired generators commute past everything exactly
        for label in ["A1", "B2", "B3"]:
            datum = build_cartan(label)
            group = WeylGroup.build(datum)
            grid = list(itertools.product(range(-1, 2),
                                          repeat=datum.rank))
            for nu in itertools.product(range(3), repeat=datum.rank):
                for lam in grid:
                    for mu in grid:
                        assert centrality_exponent(
                            datum, group, nu, lam, mu)[2] == 0
        datum = build_cartan("A2")
        group = WeylGroup.build(datum)
        for lam in itertools.product(range(-1, 2), repeat=2):
            for mu in itertools.product(range(-1, 2), repeat=2):
                assert centrality_exponent(
                    datum, group, (1, 1), lam, mu)[2] == 0


def test_criterion_10_stratum_ranks(criterion, a2_group, b2_group):
    with criterion(10, "stratum ranks agree with fixed-lattice "
                       "dimensions and with length minus reflection "
                       "length"):
        for group in [a2_group, b2_group]:
            dist = reflection_length_oracle(group)
            for z in group.elements:
                fl = fixed_lattice(group, z)
                assert fl.dim == group.fixed_space_rank(z)
                assert fl.dim == group.rank - dist[z.idx]
                # the fixed lattice really is fixed
                for row in fl.rows:
                    img = [sum((row[c] * z.mat[r][c]
                                for c in range(group.rank)), ZERO)
                           for r in range(group.rank)]
                    assert img == list(row)
            poset = DiamondPoset(group)
            for i, (y, z) in enumerate(poset.pairs):
                u = y.inverse() * z
                assert poset.stratum_rank(i) == group.fixed_space_rank(u)
                assert poset.stratum_rank(i) == group.rank - dist[u.idx]


def test_criterion_11_saturation_behaviour(criterion, a2_model):
    with criterion(11, "saturation is anchor-symmetric and stabilizes "
                       "within three steps in every measured case"):
        g = a2_model.group
        worst = 0
        for nu in A2_DEGREES:
            for y, z in bruhat_pairs(g):
                by_z = a2_model.saturation(y, z, nu, 3, by="z")
                by_y = a2_model.saturation(y, z, nu, 3, by="y")
                assert by_z.final == by_y.final
                assert by_z.stabilized and by_y.stabilized
                first = next(k for k in range(len(by_z.pieces) - 1)
                             if by_z.pieces[k] == by_z.pieces[k + 1])
                assert first <= 3
                worst = max(worst, first)
        assert worst <= 3
