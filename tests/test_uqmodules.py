"""Integrable highest-weight modules and their string combinatorics."""

import copy
import hashlib
import itertools
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qbruhat import uqmodules
from qbruhat.cartan import build_cartan
from qbruhat.characters import demazure_character, weyl_character, weyl_dim
from qbruhat.exactalg import (Laurent, ONE, RatFun, Subspace, ZERO,
                              q_binomial)
from qbruhat.uqmodules import (GradedPiece, ModuleScopeError, _SEED_TABLE,
                               _compose, _module_from_edges,
                               _reorder_module, _tensor_f, build_irrep,
                               demazure_blocks,
                               extreme_dual_row, lowering_string_to,
                               string_counts,
                               verify_module)
from qbruhat.weyl import WeylGroup

import oracles
from oracles import (_BlockSolver, _mat_accum, _serre_sum, _tensor_e,
                     canonical_extreme_vector, first_pivot_close_tensor,
                     max_index_irrep,
                     mirror_module_from_edges, negated_verify_module,
                     rref_demazure_blocks)

q = Laurent.q_power(1)


def module_of(label, lam):
    return build_irrep(build_cartan(label), lam)


@pytest.mark.parametrize("label,lam", [
    ("A1", (1,)), ("A1", (4,)),
    ("A2", (1, 0)), ("A2", (1, 1)), ("A2", (2, 2)),
    ("B2", (1, 0)), ("B2", (0, 1)), ("B2", (1, 1)), ("B2", (2, 0)),
])
def test_build_matches_dim_formula(label, lam):
    m = module_of(label, lam)
    assert m.dim == weyl_dim(build_cartan(label), lam)


@pytest.mark.parametrize("label,lam", [("A2", (2, 1)), ("B2", (1, 2))])
def test_weight_multiset_matches_character(label, lam):
    datum = build_cartan(label)
    group = WeylGroup.build(datum)
    m = module_of(label, lam)
    ch = weyl_character(datum, group, lam)
    for wt, c in ch.terms.items():
        assert len(m.weight_indices(wt)) == c
    assert m.dim == ch.mass()


def test_verify_module_accepts_builds():
    datum = build_cartan("B2")
    group = WeylGroup.build(datum)
    verify_module(module_of("B2", (1, 1)), group)


def test_trivial_module():
    m = module_of("A2", (0, 0))
    assert m.dim == 1
    assert m.weights == [(0, 0)]


def test_scope_cap():
    with pytest.raises(ModuleScopeError):
        build_irrep(build_cartan("B2"), (9, 9))


def test_f_and_e_move_weights():
    datum = build_cartan("A2")
    m = module_of("A2", (1, 1))
    for i in range(2):
        alpha = datum.simple_root(i)
        for k in range(m.dim):
            src = m.weights[k]
            for j in m.f_apply(i, {k: ONE}):
                assert m.weights[j] == datum.sub(src, alpha)
            for j in m.e_apply(i, {k: ONE}):
                assert m.weights[j] == datum.add(src, alpha)


def test_extreme_vector_weights(a2_group):
    m = module_of("A2", (2, 1))
    for w in a2_group.elements:
        vec = canonical_extreme_vector(m, w)
        wts = {m.weights[k] for k, c in vec.items() if c}
        assert wts == {w.act((2, 1))}
        # extreme blocks are lines, so the vector spans its block
        assert len(m.weight_indices(w.act((2, 1)))) == 1


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_canonical_extreme_vectors_lie_on_their_lines(label):
    """For every w on every module up to (2, 2), the divided-power
    extreme vector is nonzero and lies exactly on the line
    ``extreme_index(w)``, and ``extreme_dual_row`` is the unit cell of
    that line, pairing nonzero with the vector."""
    group = WeylGroup.build(build_cartan(label))
    for lam in _COORD_RANGES[label]:
        m = module_of(label, lam)
        for w in group.elements:
            j = m.extreme_index(w)
            vec = canonical_extreme_vector(m, w)
            assert list(vec) == [j] and vec[j]
            assert extreme_dual_row(m, w) == {j: ONE}


def test_extreme_dual_row_pairing(b2_group):
    m = module_of("B2", (1, 1))
    for w in b2_group.elements:
        vec = canonical_extreme_vector(m, w)
        row = extreme_dual_row(m, w)
        assert row == {m.extreme_index(w): ONE}
        pairing = sum((row.get(k, ZERO) * c for k, c in vec.items()), ZERO)
        assert pairing and pairing == vec[m.extreme_index(w)]


def test_string_counts_identity():
    # the string difference equals the coroot pairing of the support
    # weight, everywhere it makes sense
    datum = build_cartan("B2")
    m = module_of("B2", (1, 1))
    for wt in m.block_order:
        rng = m.weight_indices(wt)
        for k in rng:
            row = {k: ONE}
            for i in range(2):
                phi, eps = string_counts(m, row, i)
                assert eps - phi == datum.coroot_pairing(wt, i)


def test_string_counts_zero_row():
    m = module_of("A2", (1, 0))
    assert string_counts(m, {}, 0) == (0, 0)
    assert string_counts(m, {k: ZERO for k in range(m.dim)}, 0) == (0, 0)


def test_a_string_longer_than_the_module_is_a_runaway(monkeypatch):
    """A right action that never kills a row stops after dim steps, in
    both string walks."""
    m = module_of("A2", (1, 0))
    monkeypatch.setattr(m, "row_f", lambda i, row: row)
    for walk in (lambda: string_counts(m, {0: ONE}, 1),
                 lambda: lowering_string_to(
                     m, {0: ONE}, WeylGroup.build(m.datum).gens[1])):
        with pytest.raises(AssertionError,
                           match="runaway string in direction 1"):
            walk()


def test_extreme_string_vanishing_at_regular_weights(a2_group):
    # at a regular dominant weight the string in direction i vanishes on
    # the lowering side iff s_i w goes up in Bruhat order
    for lam in [(1, 1), (2, 2)]:
        m = module_of("A2", lam)
        for w in a2_group.elements:
            row = extreme_dual_row(m, w)
            for i in range(2):
                phi, eps = string_counts(m, row, i)
                s_i_w = a2_group.gens[i] * w
                if s_i_w.length > w.length:
                    assert phi == 0 and eps > 0
                else:
                    assert eps == 0 and phi > 0


# highest weights of the closure tests: every A2 degree of the
# benchmark, up to (4, 3) and (3, 4)
_CLOSURE_RANGES = {
    "A1": [(a,) for a in range(8)],
    "A2": [lam for lam in itertools.product(range(5), repeat=2)
           if lam != (4, 4)],
    "B2": list(itertools.product(range(3), repeat=2)),
}


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_demazure_dims_match_characters(label):
    """Closure dimensions against the character recursion, weight by
    weight and for both signs: the '+' closure at w has the Demazure
    character of w at lam, and the '-' closure at w that of w w0 at
    -w0 lam with every weight negated."""
    datum = build_cartan(label)
    group = WeylGroup.build(datum)
    w0 = group.longest
    for lam in _CLOSURE_RANGES[label]:
        m = module_of(label, lam)
        lam_star = tuple(-c for c in w0.act(lam))
        for w in group.elements:
            plus = demazure_character(datum, w, lam)
            minus = demazure_character(datum, group.multiply(w, w0),
                                       lam_star)
            for sign, char, flip in (("+", plus, 1), ("-", minus, -1)):
                piece = demazure_blocks(m, w, sign)
                got = {wt: sub.dim for wt, sub in piece.blocks.items()}
                want = {wt: char.coefficient(tuple(flip * c for c in wt))
                        for wt in m.block_order}
                assert got == {wt: k for wt, k in want.items() if k}, \
                    (lam, w.word, sign)
                assert piece.dim == char.mass()


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_bruhat_equals_closure_inclusion(label, sign):
    datum = build_cartan(label)
    group = WeylGroup.build(datum)
    lam = tuple([2] * datum.rank)  # regular, so the order is faithful
    m = module_of(label, lam)
    subs = {w.idx: demazure_blocks(m, w, sign) for w in group.elements}
    for y in group.elements:
        for z in group.elements:
            if sign == "+":
                expect = group.bruhat_leq(y, z)
            else:
                expect = group.bruhat_leq(z, y)
            assert subs[y.idx].is_subpiece(subs[z.idx]) == expect, \
                (label, sign, y.word, z.word)


def test_adjoint_lowering_closure_of_short_element(a2_group):
    # lowering closure of the extreme vector at s1 inside the 8-dim
    # module: one line in the zero block plus four extreme lines below
    m = module_of("A2", (1, 1))
    piece = demazure_blocks(m, a2_group.gens[0], "-")
    assert piece.dim == 5
    per_block = {wt: sub.dim for wt, sub in piece.blocks.items()}
    assert per_block == {(-1, 2): 1, (0, 0): 1, (-2, 1): 1,
                         (1, -2): 1, (-1, -1): 1}


# -- block-local coordinates and extreme lines ------------------------------

_COORD_RANGES = {
    "A1": [(a,) for a in range(3)],
    "A2": list(itertools.product(range(3), repeat=2)),
    "B2": list(itertools.product(range(3), repeat=2)),
}


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_localize_globalize_round_trip(label):
    """Every block of every module up to (2, 2): a unit vector and a
    vector with every block coordinate nonzero localize to that block
    alone and globalize back to the same sparse row, whose support is
    the block; a zero local coordinate is dropped."""
    for lam in _COORD_RANGES[label]:
        m = module_of(label, lam)
        for wt, rng in m.blocks.items():
            local = [Laurent.q_power(t) + ONE for t in range(len(rng))]
            g = m.globalize(wt, local)
            assert sorted(g) == list(rng)
            assert all(g.values())
            assert m.localize(g) == {wt: local}
            for k in rng:
                unit = m.localize({k: ONE})
                assert list(unit) == [wt]
                assert m.globalize(wt, unit[wt]) == {k: ONE}
            assert m.globalize(wt, [ZERO] * len(rng)) == {}


def test_localize_splits_a_vector_across_blocks():
    m = module_of("A2", (1, 1))
    zero_block = m.weight_indices((0, 0))
    vec = {0: ONE, zero_block.start + 1: 2 * q, m.dim - 1: ZERO}
    assert m.localize(vec) == {(1, 1): [ONE], (0, 0): [ZERO, 2 * q]}
    assert m.localize({}) == {}


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_extreme_index_is_the_support_of_the_dual_row(label):
    m = module_of(label, (1, 1))
    for w in WeylGroup.build(build_cartan(label)).elements:
        assert extreme_dual_row(m, w) == {m.extreme_index(w): ONE}


@pytest.mark.parametrize("block", [range(0, 2), range(0)])
def test_extreme_index_rejects_a_block_of_multiplicity_other_than_one(
        a2_group, block, monkeypatch):
    m = module_of("A2", (1, 1))
    monkeypatch.setitem(m.blocks, (1, 1), block)
    with pytest.raises(AssertionError,
                       match=r"extreme weight \(1, 1\) has multiplicity %d"
                       % len(block)):
        m.extreme_index(a2_group.identity)


def test_row_support_weight_rejects_rows_over_several_blocks():
    m = module_of("A2", (1, 1))
    for row in ({}, {0: ZERO}):
        with pytest.raises(ValueError, match="spans 0 weight blocks"):
            m.row_support_weight(row)
    with pytest.raises(ValueError, match="spans 2 weight blocks"):
        m.row_support_weight({0: ONE, m.dim - 1: ONE})


def test_graded_piece_rejects_a_row_over_two_blocks():
    m = module_of("A2", (1, 1))
    with pytest.raises(ValueError,
                       match="row spans more than one weight block"):
        GradedPiece.from_rows(m, [{0: ONE}, {1: ONE, m.dim - 1: q}])


def test_lowering_string_reaches_extreme_weight():
    m = module_of("A2", (1, 1))
    group = WeylGroup.build(build_cartan("A2"))
    w = group.parse("s1 s2")
    row = extreme_dual_row(m, group.identity)
    top = lowering_string_to(m, row, w)
    assert top == row
    assert m.row_support_weight(top) == (1, 1)
    # from the lowest line, the strings along w0 climb to the highest
    top = lowering_string_to(m, extreme_dual_row(m, group.longest),
                             group.longest)
    assert list(top) == [m.extreme_index(group.identity)]


# -- raising matrices against the tensor-side oracle -----------------------


def oracle_close_tensor(datum, m1, m2, seed, lam, expected):
    """The lowering closure with every raising image computed inside
    m1 ox m2 and solved back into the basis block by block."""
    rank = datum.rank
    keys = {}
    for r in range(m1.dim):
        for s in range(m2.dim):
            wt = datum.add(m1.weights[r], m2.weights[s])
            keys.setdefault(wt, []).append((r, s))
    solvers = {wt: _BlockSolver(ks) for wt, ks in keys.items()}
    basis, wts, parents = [dict(seed)], [lam], [None]
    assert solvers[lam].add(basis[0], 0) is None
    fmat = [dict() for _ in range(rank)]
    queue = deque([0])
    while queue:
        k = queue.popleft()
        for i in range(rank):
            img = _tensor_f(datum, m1, m2, i, basis[k])
            if not img:
                continue
            wt2 = datum.sub(wts[k], datum.simple_root(i))
            res = solvers[wt2].add(img, len(basis))
            if res is None:
                fmat[i].setdefault(k, {})[len(basis)] = ONE
                queue.append(len(basis))
                basis.append(img)
                wts.append(wt2)
                parents.append((k, i))
            elif res:
                fmat[i][k] = dict(res)
    assert len(basis) == expected
    emat = [dict() for _ in range(rank)]
    for k, vec in enumerate(basis):
        for i in range(rank):
            img = _tensor_e(datum, m1, m2, i, vec)
            if not img:
                continue
            solver = solvers[datum.add(wts[k], datum.simple_root(i))]
            residue, used = solver._reduce(img)
            assert not any(residue), "raising image leaves the span"
            emat[i][k] = dict(solver._combo(used))
    return _reorder_module(datum, lam, wts, parents, fmat, emat)


def from_highest_pair(close):
    """A closure taking a seed, called as the library's seedless
    ``_close_tensor`` from the product of the two highest vectors."""
    def closed(datum, m1, m2, lam, expected):
        return close(datum, m1, m2, {(0, 0): ONE}, lam, expected)
    return closed


def module_strings(m):
    def mats(ms):
        return [{c: {r: str(x) for r, x in col.items()}
                 for c, col in mat.items()} for mat in ms]
    return m.weights, m.parents, mats(m.fmat), mats(m.emat)


def _a2_small():
    datum = build_cartan("A2")
    return [lam for lam in itertools.product(range(10), repeat=2)
            if weyl_dim(datum, lam) <= 64]


# the modules the library enters without a closure, the seeds and V(0),
# with two modules whose product has a one-dimensional highest line of
# weight lam
_HIGHEST_LINES = {
    ("A1", (0,)): ((1,), (1,)),
    ("A1", (1,)): ((2,), (1,)),
    ("A2", (0, 0)): ((1, 0), (0, 1)),
    ("A2", (1, 0)): ((0, 1), (0, 1)),
    ("A2", (0, 1)): ((1, 0), (1, 0)),
    ("B2", (1, 0)): ((0, 1), (0, 1)),
}


@pytest.mark.parametrize("label,lam",
                         [("A1", (a,)) for a in range(7)]
                         + [("A2", lam) for lam in _a2_small()]
                         + [("B2", lam) for lam in
                            [(1, 0), (1, 1), (2, 0), (2, 2)]])
def test_raising_matrices_match_tensor_oracle(label, lam):
    """Every module equals the closure that solves each raising image
    inside a tensor product: a closed module inside the product of its
    two factors, and a module entered without a closure inside the
    product named in ``_HIGHEST_LINES``, from its highest line."""
    datum = build_cartan(label)
    built = module_of(label, lam)  # caches every smaller module first
    if (label, lam) in _HIGHEST_LINES:
        m1, m2 = (module_of(label, mu) for mu in _HIGHEST_LINES[label, lam])
        with mock.patch.object(oracles, "first_pivot_close_tensor",
                               oracle_close_tensor):
            oracle = oracles._submodule_from_highest(datum, m1, m2, lam,
                                                     built.dim)
    else:
        with mock.patch.object(uqmodules, "_close_tensor",
                               from_highest_pair(oracle_close_tensor)):
            oracle = uqmodules._build_irrep_inner(
                datum, WeylGroup.build(datum), lam)
    assert module_strings(built) == module_strings(oracle)


@pytest.mark.parametrize("close", [first_pivot_close_tensor,
                                   oracle_close_tensor])
def test_b2_vector_seed_is_the_highest_line_of_spin_squared(close):
    """The B2 V(omega_1) seed is the module generated by the highest
    line of weight (1, 0) in spin ox spin, raising matrices included:
    ``oracle_close_tensor`` computes them inside the tensor product."""
    datum = build_cartan("B2")
    spin = module_of("B2", (0, 1))
    seed = module_of("B2", (1, 0))
    with mock.patch.object(oracles, "first_pivot_close_tensor", close):
        oracle = oracles._submodule_from_highest(datum, spin, spin, (1, 0),
                                                 5)
    assert module_strings(seed) == module_strings(oracle)


def test_deep_copy_keeps_ratfun_entries():
    emat = module_of("A2", (2, 2)).emat
    entries = [c for mat in emat for col in mat.values()
               for c in col.values() if isinstance(c, RatFun)]
    assert entries
    dup = copy.deepcopy(emat)
    assert dup == emat
    for mat, twin in zip(emat, dup):
        for k, col in mat.items():
            for r, c in col.items():
                assert hash(twin[k][r]) == hash(c)


# the four seeds whose raising entries are all 1; B2's V(omega_1) has
# [2]_q entries on its short string
@pytest.mark.parametrize("fam,i", [(("A", 1), 0), (("A", 2), 0),
                                   (("A", 2), 1), (("B", 2), 1)])
def test_seed_raising_matrices_are_the_mirrored_edges(fam, i):
    datum = build_cartan("%s%d" % fam)
    weights, edges = _SEED_TABLE[fam][i]
    lam = datum.fund(i)
    built = _module_from_edges(datum, lam, weights, edges)
    assert module_strings(built) == module_strings(
        mirror_module_from_edges(datum, lam, weights, edges))


@pytest.mark.parametrize("label,lams", [
    ("A2", [lam for lam in itertools.product(range(5), repeat=2)
            if any(lam) and sum(lam) <= 7]),
    ("B2", [lam for lam in itertools.product(range(3), repeat=2)
            if any(lam)]),
])
def test_step_rule_does_not_change_the_module(label, lams):
    """Stepping off the highest index gives the same weights, parents
    and matrices as the library's least-dimension rule."""
    datum = build_cartan(label)
    built = {}
    for lam in lams:
        assert module_strings(module_of(label, lam)) == \
            module_strings(max_index_irrep(datum, lam, built)), lam


@pytest.mark.parametrize("label,lam,asked", [
    ("A2", (4, 3), [(3, 3), (1, 0)]),
    ("A2", (3, 3), [(3, 2), (0, 1)]),
    ("B2", (2, 2), [(2, 1), (0, 1)]),
])
def test_step_requests_only_its_two_factors(label, lam, asked, monkeypatch):
    datum = build_cartan(label)
    requests = []
    real = uqmodules.build_irrep

    def spy(d, mu):
        requests.append(tuple(mu))
        return real(d, mu)

    monkeypatch.setattr(uqmodules, "build_irrep", spy)
    uqmodules._build_irrep_inner(datum, WeylGroup.build(datum), lam)
    assert requests == asked


def _blocks_strings(blocks):
    return {wt: ([[str(c) for c in row] for row in sub.rows],
                 list(sub.pivots), sub.ambient)
            for wt, sub in blocks.items()}


@pytest.mark.parametrize("label,top", [("A2", 3), ("B2", 2)])
def test_incremental_closures_match_rref_oracle(label, top):
    """Closures built by Demazure's recursion, each block kept in echelon
    form as it grows, equal the breadth-first closures over every
    generator reduced afresh, rows and printed scalars alike.  A2 adds
    the benchmark's largest degrees (4, 3) and (3, 4).  B2 (1, 1) is the
    smallest module here where a new residue's pivot column must be
    cleared from earlier rows (at s1 with sign '-'); no A2 module here
    needs it."""
    datum = build_cartan(label)
    group = WeylGroup.build(datum)
    lams = [lam for lam in _CLOSURE_RANGES[label] if max(lam) <= top]
    if label == "A2":
        lams += [(4, 3), (3, 4)]
    for lam in lams:
        m = module_of(label, lam)
        for w in group.elements:
            for sign in "+-":
                got = demazure_blocks(m, w, sign).blocks
                want = {wt: Subspace(len(m.weight_indices(wt)), *entry)
                        for wt, entry in
                        rref_demazure_blocks(m, w, sign).items()}
                assert got == want
                assert _blocks_strings(got) == _blocks_strings(want)


# -- verify_module: Horner Serre sums and rejections ------------------------


def serre_terms(xi, xj, m, d):
    """sum_k (-1)^k [m k]_d xi^(m-k) xj xi^k, term by term."""
    total = {}
    for k in range(m + 1):
        term = xj
        for _ in range(k):
            term = _compose(term, xi)
        for _ in range(m - k):
            term = _compose(xi, term)
        coeff = q_binomial(m, k, d)
        _mat_accum(total, term, -coeff if k % 2 else coeff)
    return total


_scalars = st.one_of(
    st.builds(lambda c, e: c * Laurent.q_power(e),
              st.integers(min_value=-3, max_value=3),
              st.integers(min_value=-2, max_value=2)),
    st.builds(lambda c, e: RatFun(Laurent.const(c), ONE + Laurent.q_power(e)),
              st.integers(min_value=1, max_value=3),
              st.integers(min_value=1, max_value=2)))


@st.composite
def sparse_mats(draw, n=3):
    cells = draw(st.dictionaries(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        _scalars, max_size=5))
    mat = {}
    for (col, row), c in cells.items():
        if c:
            mat.setdefault(col, {})[row] = c
    return mat


def serre(xi, xj, m, d):
    """``_serre_sum`` on products computed here."""
    return _serre_sum(xi, xj, m, d, _compose(xi, xj), _compose(xj, xi))


@given(sparse_mats(), sparse_mats(), st.sampled_from([2, 3]),
       st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_serre_horner_matches_expansion(xi, xj, m, d):
    assert serre(xi, xj, m, d) == serre_terms(xi, xj, m, d)


@given(sparse_mats(), sparse_mats(), st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_serre_sum_leaves_the_shared_products_alone(xi, xj, m, d):
    """The (i, j) and (j, i) sums of ``verify_module`` read the same two
    products, so neither may change them."""
    xixj, xjxi = _compose(xi, xj), _compose(xj, xi)
    before = ({c: dict(r) for c, r in xixj.items()},
              {c: dict(r) for c, r in xjxi.items()})
    assert _serre_sum(xi, xj, m, d, xixj, xjxi) == \
        serre_terms(xi, xj, m, d)
    assert _serre_sum(xj, xi, m, d, xjxi, xixj) == \
        serre_terms(xj, xi, m, d)
    assert (xixj, xjxi) == before


def test_serre_sum_zero_and_nonzero():
    # xi = xj = (q) gives q^3 (1 - [2] + 1), which is not zero
    assert serre({0: {0: q}}, {0: {0: q}}, 2, 1) == \
        {0: {0: q ** 3 * (Laurent.const(2) - q - q ** -1)}}
    datum = build_cartan("B2")
    m = module_of("B2", (1, 1))
    for mats in (m.emat, m.fmat):
        for i, j in [(0, 1), (1, 0)]:
            mij = 1 - datum.cartan[i][j]
            assert serre(mats[i], mats[j], mij, datum.d[i]) == {}
            assert serre(mats[i], mats[j], mij, 3 - datum.d[i])


def _scaled_entry(mats, i):
    out = [dict(mat) for mat in mats]
    col = min(out[i])
    row = min(out[i][col])
    out[i][col] = dict(out[i][col])
    out[i][col][row] = out[i][col][row] * q
    return out


def _bad_e1(m):
    m.emat = _scaled_entry(m.emat, 1)


def _bad_f1(m):
    m.fmat = _scaled_entry(m.fmat, 1)


def _swap_weights(m):
    m.weights = list(m.weights)
    m.weights[0], m.weights[-1] = m.weights[-1], m.weights[0]


def _lowest_to_highest(m):
    """F_0 sends the lowest vector to the highest one.  Every E_i F_j
    and F_j E_i is unchanged: E_i F_0 v_low = E_i v_high = 0 as before,
    and no E_i image has a part on the lowest vector."""
    m.fmat = [dict(mat) for mat in m.fmat]
    m.fmat[0][m.dim - 1] = {0: ONE}


def _highest_to_lowest(m):
    """E_0 sends the highest vector to the lowest one, the mirror of
    ``_lowest_to_highest``: no F_j image has a part on the highest
    vector, and F_j E_0 v_high = F_j v_low = 0 as before."""
    m.emat = [dict(mat) for mat in m.emat]
    m.emat[0][0] = {m.dim - 1: ONE}


@pytest.mark.parametrize("label,lam", [("A2", (1, 1)), ("B2", (1, 1))])
@pytest.mark.parametrize("spoil,message", [
    (_bad_e1, r"^commutator relation fails at \(1, 0\)$"),
    (_bad_f1, r"^commutator relation fails at \(0, 1\)$"),
    (_swap_weights, r"^commutator relation fails at \(0, 0\)$"),
    (_lowest_to_highest, r"^F_0 maps column \d+ of weight \(-1, -1\) "
     r"to weight \(1, 1\)$"),
    (_highest_to_lowest, r"^E_0 maps column 0 of weight \(1, 1\) "
     r"to weight \(-1, -1\)$"),
])
def test_verify_module_rejects_spoiled_copies(label, lam, spoil, message):
    datum = build_cartan(label)
    good = module_of(label, lam)
    bad = copy.copy(good)
    spoil(bad)
    with pytest.raises(AssertionError, match=message):
        verify_module(bad, WeylGroup.build(datum))
    verify_module(good, WeylGroup.build(datum))


@pytest.mark.parametrize("spoil,message", [
    (_lowest_to_highest, r"^F_0 maps column 2 of weight \(-2,\) to weight "
     r"\(2,\)$"),
    (_highest_to_lowest, r"^E_0 maps column 0 of weight \(2,\) to weight "
     r"\(-2,\)$"),
])
def test_grading_rejects_a1_spoils_the_commutators_accept(spoil, message):
    """On A1 (2) these spoils pass the commutators and there is no Serre
    relation, so the relations alone accept them; the grading does
    not."""
    datum = build_cartan("A1")
    group = WeylGroup.build(datum)
    bad = copy.copy(module_of("A1", (2,)))
    spoil(bad)
    negated_verify_module(bad, group)
    with pytest.raises(AssertionError, match=message):
        verify_module(bad, group)


def _drop_weight(m):
    m.dim -= 1


def _repeat_weight(m):
    m.weights = list(m.weights)
    m.weights[-1] = m.weights[0]


def _zero_first_generator(m):
    m.fmat = [dict(mat) for mat in m.fmat]
    m.emat = [dict(mat) for mat in m.emat]
    m.fmat[0], m.emat[0] = {}, {}


@pytest.mark.parametrize("label,lam", [("A2", (1, 1)), ("A2", (2, 1)),
                                       ("B2", (1, 1)), ("B2", (0, 2))])
@pytest.mark.parametrize("spoil", [None, _bad_e1, _bad_f1, _swap_weights,
                                   _drop_weight, _repeat_weight,
                                   _zero_first_generator,
                                   _lowest_to_highest, _highest_to_lowest])
def test_verify_module_matches_negated_commutator_oracle(label, lam, spoil):
    """Comparing E_i F_j with F_j E_i + delta_ij [h_i] and checking the
    grading accepts what the commutators and Serre sums accept and
    rejects the rest, with the same message up to the commutators.  A
    spoil that passes the commutators is caught by the grading here and
    by a Serre sum in the oracle."""
    datum = build_cartan(label)
    group = WeylGroup.build(datum)
    bad = copy.copy(module_of(label, lam))
    if spoil is not None:
        spoil(bad)
    outcomes = []
    for check in (verify_module, negated_verify_module):
        try:
            check(bad, group)
            outcomes.append(None)
        except AssertionError as err:
            outcomes.append(str(err))
    if spoil in (_lowest_to_highest, _highest_to_lowest):
        assert None not in outcomes
    else:
        assert outcomes[0] == outcomes[1]
    assert (outcomes[0] is None) == (spoil is None)


def _k_power(m, i, power):
    """K_i^power, K_i acting on weight mu by q^{d_i mu_i}."""
    d = m.datum.d[i]
    return {k: {k: Laurent.q_power(power * d * wt[i])}
            for k, wt in enumerate(m.weights)}


def _ad_f(m, i, phi):
    """ad F_i(phi) = (F_i phi - phi F_i) K_i."""
    comm = _mat_accum(_compose(m.fmat[i], phi), _compose(phi, m.fmat[i]),
                      -ONE)
    return _compose(comm, _k_power(m, i, 1))


def _ad_e(m, i, phi):
    """ad E_i(phi) = E_i phi - K_i phi K_i^-1 E_i."""
    conj = _compose(_compose(_k_power(m, i, 1), phi),
                    _compose(_k_power(m, i, -1), m.emat[i]))
    return _mat_accum(_compose(m.emat[i], phi), conj, -ONE)


@pytest.mark.parametrize("label,lam", [("A2", (2, 1)), ("B2", (1, 1))])
@pytest.mark.parametrize("spoil", [None, _bad_e1, _bad_f1])
def test_adjoint_action_gives_the_serre_sums(label, lam, spoil):
    """The identities ``verify_module`` rests on, with K diagonal from
    the weights and N = 1 - a_ij: (ad F_i)^N (F_j K_j) is the F Serre
    sum times K_j K_i^N, and (ad E_i)^N (E_j) is the E Serre sum.  They
    need only the grading, so they hold on the graded spoils too, where
    a sum is not zero.  On the module itself F_j K_j is primitive for
    ad E_i, ad F_i kills E_j, and every sum vanishes."""
    datum = build_cartan(label)
    m = copy.copy(module_of(label, lam))
    if spoil is not None:
        spoil(m)
    sums = []
    for i, j in [(0, 1), (1, 0)]:
        n = 1 - datum.cartan[i][j]
        phi = _compose(m.fmat[j], _k_power(m, j, 1))
        psi = m.emat[j]
        if spoil is None:
            assert _ad_e(m, i, phi) == {}
            assert _ad_f(m, i, psi) == {}
        for _ in range(n):
            phi, psi = _ad_f(m, i, phi), _ad_e(m, i, psi)
        fsum = serre(m.fmat[i], m.fmat[j], n, datum.d[i])
        esum = serre(m.emat[i], m.emat[j], n, datum.d[i])
        assert phi == _compose(fsum, _compose(_k_power(m, j, 1),
                                              _k_power(m, i, n)))
        assert psi == esum
        sums += [fsum, esum]
    assert any(sums) == (spoil is not None)


# -- closures on unit pivots ------------------------------------------------

_DIGEST_RANGES = {"A1": [(a,) for a in range(8)],
                  "A2": list(itertools.product(range(5), repeat=2)),
                  "B2": list(itertools.product(range(3), repeat=2))}


def module_text(m):
    def mats(ms):
        return [[(c, [(r, str(x)) for r, x in sorted(mat[c].items())])
                 for c in sorted(mat)] for mat in ms]
    return repr((m.lam, m.weights, m.parents, mats(m.fmat), mats(m.emat)))


# generated by closures whose rows pivot on their first nonzero coordinate
_DIGESTS = {
    "A1": "d3b8f337e3c1dd1e2c903475f618d2bc404c92dfe028e13c66089fd3e23bbc5c",
    "A2": "e6b67cbeef607358a46b84c101b4fac96eb1c8c010c9462afc87422917aacd34",
    "B2": "e662c45a818191e0568cfe619a038803bdd44baad0a819887361935bfe5fb330",
}


@pytest.mark.parametrize("label", sorted(_DIGESTS))
def test_module_strings_match_pinned_digest(label):
    """One sha256 over the weights, parents and matrices of every module
    of A1 up to 7, A2 up to (4, 4) and B2 up to (2, 2)."""
    h = hashlib.sha256()
    for lam in _DIGEST_RANGES[label]:
        h.update(module_text(module_of(label, lam)).encode())
    assert h.hexdigest() == _DIGESTS[label]


@pytest.mark.parametrize("label", sorted(_DIGEST_RANGES))
def test_built_modules_satisfy_the_serre_relations(label):
    """Every module of the digest ranges passes the Horner Serre sums,
    which ``verify_module`` derives instead of summing, and the sums
    catch a spoil that passes the commutators."""
    for lam in _DIGEST_RANGES[label]:
        assert oracles.serre_failures(module_of(label, lam)) == [], lam
    if label != "A1":
        bad = copy.copy(module_of(label, (1, 1)))
        _lowest_to_highest(bad)
        assert oracles.serre_failures(bad)


# modules whose closures fill blocks of dimension 2, 3 and 4 and then
# solve many dependent words on their pivots
_FULL_BLOCKS = {"B2": [(3, 1), (1, 3)]}


@pytest.mark.parametrize("label", sorted(_DIGEST_RANGES))
def test_unit_pivots_match_first_pivot_oracle(label):
    """Rows pivoting on a monomial give the same modules as rows
    pivoting on their first nonzero coordinate: fmat holds the unique
    coefficients of a dependent word over the adopted ones.  The oracle
    reduces every word in full, full blocks included."""
    datum = build_cartan(label)
    group = WeylGroup.build(datum)
    for lam in _DIGEST_RANGES[label] + _FULL_BLOCKS.get(label, []):
        built = module_of(label, lam)  # caches every smaller module first
        with mock.patch.object(uqmodules, "_close_tensor",
                               from_highest_pair(first_pivot_close_tensor)):
            oracle = uqmodules._build_irrep_inner(datum, group, lam)
        assert module_strings(built) == module_strings(oracle), lam


@pytest.mark.parametrize("wt", [(1, 0), (0, 2)])
@pytest.mark.parametrize("delta,message", [
    (1, r"weight multiset mismatch for \(2, 1\)"),
    (-1, r"lowering closure of V\(2, 1\) reached dimension \d+, "
         r"expected 15")])
def test_wrong_multiplicity_never_builds_a_module(wt, delta, message):
    """A character that reports one multiplicity of A2 (2, 1) one too
    high or one too low makes the build raise: a block that never fills
    runs the full reduction and fails the weight multiset, and a block
    filled early skips an independent word and fails the dimension.
    The memoised build's own body is called, so a module an earlier test
    cached cannot answer."""
    datum = build_cartan("A2")
    lam = (2, 1)
    real = uqmodules.weyl_character

    def spoiled(d, g, top):
        char = real(d, g, top)
        if tuple(top) != lam:
            return char
        terms = dict(char.terms)
        terms[wt] += delta
        return type(char)(d, terms)

    with mock.patch.object(uqmodules, "weyl_character", spoiled):
        with pytest.raises(AssertionError, match=message):
            uqmodules.build_irrep.__wrapped__(datum, lam)
