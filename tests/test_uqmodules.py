"""Integrable highest-weight modules and their string combinatorics."""

import copy
import itertools
from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qbruhat import uqmodules
from qbruhat.cartan import build_cartan
from qbruhat.characters import demazure_character, weyl_character, weyl_dim
from qbruhat.exactalg import Laurent, ONE, RatFun, ZERO, q_binomial
from qbruhat.uqmodules import (ModuleScopeError, _BlockSolver, _compose,
                               _mat_accum, _reorder_module, _serre_sum,
                               _tensor_e, _tensor_f, build_irrep,
                               demazure_submodule, extreme_dual_row,
                               extreme_vector, lowering_string_to,
                               string_counts, verify_module)
from qbruhat.weyl import WeylGroup

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
        vec = extreme_vector(m, w)
        wts = {m.weights[k] for k, c in vec.items() if c}
        assert wts == {w.act((2, 1))}
        # extreme blocks are lines, so the vector spans its block
        assert len(m.weight_indices(w.act((2, 1)))) == 1


def test_extreme_dual_row_pairing(b2_group):
    m = module_of("B2", (1, 1))
    for w in b2_group.elements:
        vec = extreme_vector(m, w)
        row = extreme_dual_row(m, w)
        pairing = sum((row[k] * c for k, c in vec.items()), ZERO)
        assert pairing == ONE


def test_string_counts_identity():
    # the string difference equals the coroot pairing of the support
    # weight, everywhere it makes sense
    datum = build_cartan("B2")
    m = module_of("B2", (1, 1))
    for wt in m.block_order:
        rng = m.weight_indices(wt)
        for k in rng:
            row = [ONE if j == k else ZERO for j in range(m.dim)]
            for i in range(2):
                phi, eps = string_counts(m, row, i)
                assert eps - phi == datum.coroot_pairing(wt, i)


def test_string_counts_zero_row():
    m = module_of("A2", (1, 0))
    assert string_counts(m, [ZERO] * m.dim, 0) == (0, 0)


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


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
def test_demazure_dims_match_characters(label):
    """Closure dimensions against the character recursion, both signs."""
    datum = build_cartan(label)
    group = WeylGroup.build(datum)
    w0 = group.longest
    grids = itertools.product(range(3), repeat=datum.rank)
    for lam in grids:
        m = module_of(label, lam)
        lam_star = tuple(-c for c in w0.act(lam))
        for w in group.elements:
            plus = demazure_submodule(m, w, "+")
            assert plus.dim == demazure_character(datum, group, w,
                                                  lam).mass()
            minus = demazure_submodule(m, w, "-")
            twisted = group.multiply(w, w0)
            assert minus.dim == demazure_character(datum, group, twisted,
                                                   lam_star).mass()


@pytest.mark.parametrize("label", ["A1", "A2", "B2"])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_bruhat_equals_closure_inclusion(label, sign):
    datum = build_cartan(label)
    group = WeylGroup.build(datum)
    lam = tuple([2] * datum.rank)  # regular, so the order is faithful
    m = module_of(label, lam)
    subs = {w.idx: demazure_submodule(m, w, sign) for w in group.elements}
    for y in group.elements:
        for z in group.elements:
            if sign == "+":
                expect = group.bruhat_leq(y, z)
            else:
                expect = group.bruhat_leq(z, y)
            assert subs[y.idx].is_subspace_of(subs[z.idx]) == expect, \
                (label, sign, y.word, z.word)


def test_adjoint_lowering_closure_of_short_element(a2_group):
    # lowering closure of the extreme vector at s1 inside the 8-dim
    # module: one line in the zero block plus four extreme lines below
    m = module_of("A2", (1, 1))
    sub = demazure_submodule(m, a2_group.gens[0], "-")
    assert sub.dim == 5
    per_block = {}
    for row in sub.rows:
        wt = m.row_support_weight(row)
        per_block[wt] = per_block.get(wt, 0) + 1
    assert per_block == {(-1, 2): 1, (0, 0): 1, (-2, 1): 1,
                         (1, -2): 1, (-1, -1): 1}


def test_lowering_string_reaches_extreme_weight():
    m = module_of("A2", (1, 1))
    group = WeylGroup.build(build_cartan("A2"))
    w = group.parse("s1 s2")
    row = extreme_dual_row(m, group.identity)
    top = lowering_string_to(m, row, w)
    assert any(top)
    assert m.row_support_weight(top) == (1, 1)


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


def module_strings(m):
    def mats(ms):
        return [{c: {r: str(x) for r, x in col.items()}
                 for c, col in mat.items()} for mat in ms]
    return m.weights, m.parents, mats(m.fmat), mats(m.emat)


def _a2_small():
    datum = build_cartan("A2")
    return [lam for lam in itertools.product(range(10), repeat=2)
            if weyl_dim(datum, lam) <= 64]


@pytest.mark.parametrize("label,lam",
                         [("A1", (a,)) for a in range(7)]
                         + [("A2", lam) for lam in _a2_small()]
                         + [("B2", lam) for lam in
                            [(1, 0), (1, 1), (2, 0), (2, 2)]])
def test_raising_matrices_match_tensor_oracle(label, lam):
    datum = build_cartan(label)
    built = module_of(label, lam)  # caches every smaller module first
    with mock.patch.object(uqmodules, "_close_tensor", oracle_close_tensor):
        oracle = uqmodules._build_irrep_inner(
            datum, WeylGroup.build(datum), lam, 400)
    assert module_strings(built) == module_strings(oracle)


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


@given(sparse_mats(), sparse_mats(), st.sampled_from([2, 3]),
       st.sampled_from([1, 2]))
@settings(max_examples=60, deadline=None)
def test_serre_horner_matches_expansion(xi, xj, m, d):
    assert _serre_sum(xi, xj, m, d) == serre_terms(xi, xj, m, d)


def test_serre_sum_zero_and_nonzero():
    # xi = xj = (q) gives q^3 (1 - [2] + 1), which is not zero
    assert _serre_sum({0: {0: q}}, {0: {0: q}}, 2, 1) == \
        {0: {0: q ** 3 * (Laurent.const(2) - q - q ** -1)}}
    datum = build_cartan("B2")
    m = module_of("B2", (1, 1))
    for mats in (m.emat, m.fmat):
        for i, j in [(0, 1), (1, 0)]:
            mij = 1 - datum.cartan[i][j]
            assert _serre_sum(mats[i], mats[j], mij, datum.d[i]) == {}
            assert _serre_sum(mats[i], mats[j], mij, 3 - datum.d[i])


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


@pytest.mark.parametrize("label,lam", [("A2", (1, 1)), ("B2", (1, 1))])
@pytest.mark.parametrize("spoil,message", [
    (_bad_e1, r"^commutator relation fails at \(1, 0\)$"),
    (_bad_f1, r"^commutator relation fails at \(0, 1\)$"),
    (_swap_weights, r"^commutator relation fails at \(0, 0\)$"),
])
def test_verify_module_rejects_spoiled_copies(label, lam, spoil, message):
    datum = build_cartan(label)
    good = module_of(label, lam)
    bad = copy.copy(good)
    spoil(bad)
    with pytest.raises(AssertionError, match=message):
        verify_module(bad, WeylGroup.build(datum))
    verify_module(good, WeylGroup.build(datum))
