"""Weyl group construction, Bruhat order, and rank statistics.

The Bruhat, length and reflection-length checks run against independent
oracles built by brute force, so the library cannot agree with itself by
construction.  Bruhat order by reflection chains and reflection length
by breadth-first search are in ``qbruhat.verify``, which the CLI's
``verify`` suites share; the subword property and inversion counts are
built here.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qbruhat.cartan import build_cartan
from qbruhat.centre import centre_table
from qbruhat import weyl
from qbruhat.verify import check_bruhat_chains, reflection_lengths
from qbruhat.weyl import (WeylElem, WeylGroup, format_word, group_order,
                          parse_word)
from oracles import (fixed_lattice, level_scan_covers, matrix_keyed_search,
                     recursive_canonical_word, search_matrices)


ORDERS = {"A1": 2, "A2": 6, "A3": 24, "B2": 8, "B3": 48, "G2": 12}
LONGEST_LENGTHS = {"A1": 1, "A2": 3, "A3": 6, "B2": 4, "B3": 9, "G2": 6}


def group_of(label):
    return WeylGroup.build(build_cartan(label))


def bruhat_subword(group, y, z):
    """Subword property: y <= z iff some subword of a reduced word of z
    is a reduced word of y.  Tries every position subset, so it is
    exponential in l(z) and only usable on small groups."""
    if y.length > z.length:
        return False
    if y.length == z.length:
        return y.idx == z.idx
    zw = z.word
    k = y.length
    for positions in combinations(range(len(zw)), k):
        v = group.identity
        for p in positions:
            v = v * group.gens[zw[p]]
        if v.length == k and v.idx == y.idx:
            return True
    return False


def inversion_count(group, w):
    """Number of positive roots that w sends to negative roots."""
    datum = group.datum
    count = 0
    for coords in datum.positive_roots:
        image = w.act(datum.root_to_fund(coords))
        if all(c <= 0 for c in datum.root_coords(image)):
            count += 1
    return count


@pytest.mark.parametrize("label", sorted(ORDERS))
def test_group_order(label):
    group = group_of(label)
    assert len(group.elements) == ORDERS[label]


@pytest.mark.parametrize("label", sorted(LONGEST_LENGTHS))
def test_longest_element(label):
    group = group_of(label)
    w0 = group.longest
    assert w0.length == LONGEST_LENGTHS[label]
    assert max(w.length for w in group.elements) == w0.length
    assert w0 * w0 == group.identity


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "B2", "B3",
                                   "G2", "D4"])
def test_length_is_inversion_count(label):
    group = group_of(label)
    for w in group.elements:
        assert w.length == inversion_count(group, w), format_word(w.word)


@pytest.mark.parametrize("label", ["A1", "A4", "B3", "C3", "D4", "F4", "G2"])
def test_known_order_matches_enumeration(label):
    datum = build_cartan(label)
    assert len(group_of(label)) == group_order(datum.family, datum.rank)


@pytest.mark.parametrize("label", ["E7", "E8"])
def test_order_cap_checked_before_enumeration(label):
    with pytest.raises(ValueError, match="over the cap"):
        WeylGroup(build_cartan(label))


def test_length_matches_word_length():
    group = group_of("B2")
    for w in group.elements:
        assert len(w.word) == w.length


def test_canonical_words_a2():
    group = group_of("A2")
    words = sorted(format_word(w.word) for w in group.elements)
    assert words == ["e", "s1", "s1 s2", "s1 s2 s1", "s2", "s2 s1"]


def test_word_round_trip():
    group = group_of("B2")
    for w in group.elements:
        assert group.parse(format_word(w.word)).idx == w.idx


def test_parse_rejects_garbage():
    group = group_of("A2")
    with pytest.raises(ValueError):
        group.parse("s3")
    with pytest.raises(ValueError):
        group.parse("t1")
    assert parse_word("e", 2) == ()
    assert parse_word("s1 s2 s1", 2) == (0, 1, 0)


@pytest.mark.parametrize("token", ["s+1", "s01", "s\u0661", "s1_0", "s-1",
                                   "s", "s 1x", "S1", "s1.0", "s\u00b9"])
def test_parse_accepts_only_ascii_digit_indices(token):
    with pytest.raises(ValueError, match="^bad generator token"):
        parse_word(token, 10)


@pytest.mark.parametrize("text,rank,word", [("s1", 1, (0,)),
                                            ("s10 s9", 10, (9, 8)),
                                            ("  s2\ts1 ", 2, (1, 0))])
def test_parse_reads_ascii_digit_indices(text, rank, word):
    assert parse_word(text, rank) == word


@pytest.mark.parametrize("text,index", [("s0", 0), ("s3", 3), ("s10", 10)])
def test_parse_names_an_index_out_of_range(text, index):
    with pytest.raises(ValueError, match="^generator index %d out of range "
                                         "1..2$" % index):
        parse_word(text, 2)


def test_multiplication_table_closed():
    group = group_of("A2")
    for a in group.elements:
        for b in group.elements:
            c = a * b
            assert c.idx in range(len(group.elements))
            assert c.length <= a.length + b.length


def test_multiplication_matches_matrix_product():
    for label in ("B2", "A3", "G2"):
        group = group_of(label)
        mats = search_matrices(group.datum)
        n = group.rank
        for a in group.elements:
            ma = mats[a.idx]
            for b in group.elements:
                mb = mats[b.idx]
                prod = tuple(tuple(sum(ma[i][k] * mb[k][j]
                                       for k in range(n))
                                   for j in range(n)) for i in range(n))
                assert mats[(a * b).idx] == prod


def test_inverse():
    for label in ("B2", "A4", "D4"):
        group = group_of(label)
        for w in group.elements:
            assert w * w.inverse() == group.identity
            assert w.inverse() * w == group.identity
            assert w.inverse().length == w.length


def test_action_preserves_inner_product():
    group = group_of("B2")
    datum = group.datum
    weights = [(1, 0), (0, 1), (1, 1), (2, -1)]
    for w in group.elements:
        for a in weights:
            for b in weights:
                assert datum.inner(w.act(a), w.act(b)) == datum.inner(a, b)


def test_descents_track_length():
    group = group_of("B2")
    for w in group.elements:
        for i in range(group.rank):
            s = group.gens[i]
            assert group.left_descent(w, i) == ((s * w).length < w.length)


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_bruhat_against_oracle(label):
    check_bruhat_chains(group_of(label))


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
def test_bruhat_against_subword(label):
    group = group_of(label)
    for y in group.elements:
        for z in group.elements:
            assert group.bruhat_leq(y, z) == bruhat_subword(group, y, z), \
                (format_word(y.word), format_word(z.word))


@pytest.mark.parametrize("label", ["A2", "B2", "A3"])
def test_reflection_length_against_oracle(label):
    # the search raises on the first element whose length disagrees; a
    # Coxeter element has reflection length equal to the rank
    group = group_of(label)
    assert max(reflection_lengths(group).values()) == group.rank


def test_fixed_lattice_really_fixed():
    group = group_of("B2")
    mats = search_matrices(group.datum)
    n = group.rank
    for w in group.elements:
        lattice = fixed_lattice(group, w)
        assert lattice.dim == group.fixed_space_rank(w)
        for row in lattice.rows:
            image = [sum((row[j] * mats[w.idx][i][j] for j in range(n)),
                         start=row[0] - row[0]) for i in range(n)]
            assert image == list(row)


def test_interval():
    group = group_of("A2")
    e = group.identity
    w0 = group.longest
    assert len(group.interval(e, w0)) == 6
    s1 = group.parse("s1")
    s12 = group.parse("s1 s2")
    seg = group.interval(s1, s12)
    assert sorted(format_word(w.word) for w in seg) == ["s1", "s1 s2"]


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "B2", "B3", "C3",
                                   "D4", "G2", "F4"])
def test_fixed_space_rank_against_fixed_lattice(label):
    group = WeylGroup(build_cartan(label))
    for w in group.elements:
        assert group.fixed_space_rank(w) == fixed_lattice(group, w).dim, \
            format_word(w.word)


@pytest.mark.parametrize("label", ["A3", "A4", "B3", "C3", "D4", "G2", "F4"])
def test_cover_lists_match_level_scan(label):
    group = WeylGroup(build_cartan(label))
    lower, upper = level_scan_covers(group)
    assert group.cover_lists() == (lower, upper)


def test_cover_lists_are_built_lazily_once(monkeypatch):
    """Construction builds no covers; the first call builds them, with
    one descent lookup per non-identity element; the second call returns
    the same lists."""
    calls = []
    real = WeylGroup._first_descent

    def counted(self, idx):
        calls.append(idx)
        return real(self, idx)

    monkeypatch.setattr(WeylGroup, "_first_descent", counted)
    group = WeylGroup(build_cartan("B3"))
    assert calls == []
    lower, upper = group.cover_lists()
    assert sorted(calls) == list(range(1, len(group)))
    again = group.cover_lists()
    assert again[0] is lower and again[1] is upper
    assert len(calls) == len(group) - 1


@pytest.mark.parametrize("label", ["A1", "A2", "B2", "G2", "A3", "B3",
                                   "C3", "A4", "D4", "F4"])
def test_words_match_recursion_oracle(label):
    group = WeylGroup(build_cartan(label))
    table = {}
    for w in group.elements:
        assert w.word == recursive_canonical_word(group, w, table)


def test_words_are_filled_lazily_once(monkeypatch):
    """Construction fills no word; the first read of a word fills every
    element's, one descent lookup per non-identity element; later reads
    look nothing up."""
    calls = []
    real = WeylGroup._first_descent

    def counted(self, idx):
        calls.append(idx)
        return real(self, idx)

    monkeypatch.setattr(WeylGroup, "_first_descent", counted)
    group = WeylGroup(build_cartan("B3"))
    assert calls == []
    assert group.longest.word == recursive_canonical_word(group,
                                                          group.longest)
    assert len(calls) == len(group) - 1
    assert sorted(calls) == list(range(1, len(group)))
    words = [w.word for w in group.elements]
    assert group.gens[0].word == (0,)
    assert len(calls) == len(group) - 1
    assert len(set(words)) == len(group)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "A6",
                                   "A7", "B2", "B3", "B4", "C2", "C3",
                                   "C4", "D4", "D5", "G2", "F4", "E6"])
def test_group_matches_matrix_keyed_search(label):
    """Keying the search by w(rho) gives the order, the left
    multiplication table and the lengths of the search keyed by whole
    matrices; the fundamental images of each element are its matrix's
    columns, and w(rho) is the sum of them."""
    datum = build_cartan(label)
    mats, lengths, lmul = matrix_keyed_search(datum)
    group = WeylGroup(datum)
    assert group._lmul == lmul
    assert [w.length for w in group.elements] == lengths
    rho = datum.rho()
    for w, mat in zip(group.elements, mats):
        assert group.fundamental_images(w) == tuple(zip(*mat))
        assert w.act(rho) == tuple(map(sum, mat))


def test_fundamental_images_are_filled_lazily_along_descents(monkeypatch):
    """Construction, theta, the sorted order, covers, Bruhat comparisons
    and the centre table fill no entry of the fundamental-image table;
    one fixed-space rank fills the entries of its element's descent
    chain down to e, and nothing else."""
    group = WeylGroup(build_cartan("F4"))
    monkeypatch.setattr(WeylGroup, "build", lambda label: group)
    group.theta()
    group.sorted_elements()
    group.cover_lists()
    assert all(group.bruhat_leq(group.identity, w) for w in group.elements)
    assert len(centre_table("F4")) == len(group)
    assert group.__dict__.get("_memo_fundamental_images", {}) == {}
    w = group.parse("s1 s2 s3 s2 s4")
    chain = [w.idx]
    while chain[-1]:
        x = chain[-1]
        chain.append(group._lmul[group._first_descent(x)][x])
    group.fixed_space_rank(w)
    table = group.__dict__["_memo_fundamental_images"]
    assert sorted(table) == sorted(chain)
    mats = search_matrices(group.datum)
    assert all(table[x] == tuple(zip(*mats[x])) for x in chain)


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "G2"])
def test_supports_are_the_letters_of_w_and_w0_w(label):
    group = group_of(label)
    supports = group.supports()
    for w in group.elements:
        opposite = group.longest * w
        assert supports[w.idx] == (sum(1 << i for i in set(w.word)),
                                   sum(1 << i for i in set(opposite.word)))


def test_format_word_is_memoised_per_word():
    assert format_word(()) == "e"
    assert format_word((0, 2, 1)) == "s1 s3 s2"
    assert format_word([0, 2, 1]) is format_word((0, 2, 1))


def test_interval_empty_when_incomparable():
    group = group_of("A3")
    s1, s2 = group.parse("s1"), group.parse("s2")
    assert group.interval(s1, s2) == []
    assert group.interval(group.longest, group.identity) == []
    assert group.interval(s1, s1) == [s1]


@pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
def test_interval_and_sets_against_filter(label):
    group = group_of(label)
    key = lambda w: (w.length, w.word)
    elements = group.elements
    for y in elements:
        above = sorted((z for z in elements if group.bruhat_leq(y, z)),
                       key=key)
        below = sorted((z for z in elements if group.bruhat_leq(z, y)),
                       key=key)
        assert group.upper_set(y) == above
        assert group.lower_set(y) == below
        assert group.interval(group.identity, y) == below
        for z in elements:
            expect = sorted((w for w in elements if group.bruhat_leq(y, w)
                             and group.bruhat_leq(w, z)), key=key)
            assert group.interval(y, z) == expect


@pytest.mark.parametrize("label", ["A1", "A3", "B3", "D4", "G2", "F4"])
def test_sorted_elements_against_word_sort(label):
    group = WeylGroup(build_cartan(label))
    expect = sorted(group.elements, key=lambda w: (w.length, w.word))
    assert group.sorted_elements() == expect


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "B3", "D4", "D5",
                                   "F4", "G2"])
def test_theta_against_action(label):
    """Column i of w0's matrix in the matrix-keyed search is
    -omega_theta(i)."""
    group = group_of(label)
    datum = group.datum
    w0 = search_matrices(datum)[group.longest.idx]
    for i in range(group.rank):
        column = tuple(row[i] for row in w0)
        assert column == datum.neg(datum.fund(group.theta()[i]))


def test_theta_involution():
    a2 = group_of("A2")
    assert a2.theta() == (1, 0)
    b2 = group_of("B2")
    assert b2.theta() == (0, 1)
    a3 = group_of("A3")
    assert a3.theta() == (2, 1, 0)


def test_fixed_rank_and_theta_are_computed_once(monkeypatch):
    group = WeylGroup(build_cartan("B3"))
    w = group.parse("s1 s2 s3")
    rank, theta = group.fixed_space_rank(w), group.theta()

    def recomputed(*args):
        raise AssertionError("a memoised value was recomputed")

    monkeypatch.setattr(weyl, "_integer_rank", recomputed)
    monkeypatch.setattr(WeylElem, "act", recomputed)
    assert group.fixed_space_rank(w) == rank
    assert group.reflection_length(w) == group.rank - rank
    assert group.theta() == theta


def test_sorted_elements_order():
    group = group_of("B2")
    lengths = [w.length for w in group.sorted_elements()]
    assert lengths == sorted(lengths)


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=8))
@settings(max_examples=60, deadline=None)
def test_from_word_consistent(word):
    group = group_of("B2")
    w = group.from_word(word)
    step = group.identity
    for i in word:
        step = step * group.gens[i]
    assert w.idx == step.idx


@given(st.lists(st.integers(min_value=0, max_value=1), max_size=8))
@settings(max_examples=40, deadline=None)
def test_canonical_word_minimal(word):
    group = group_of("A2")
    w = group.from_word(word)
    # canonical word must be reduced and evaluate back to w
    assert len(w.word) == w.length
    assert group.from_word(w.word).idx == w.idx
