"""Cartan data: matrices, roots, pairings, dominance."""

from fractions import Fraction

import pytest

import itertools

from qbruhat.cartan import _invert_rational, build_cartan
from oracles import in_root_lattice, root_coordinate_closure


EXPECTED_CARTAN = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -1), (-2, 2)),
    "B3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "C2": ((2, -2), (-1, 2)),
    "G2": ((2, -3), (-1, 2)),
}

POSITIVE_ROOT_COUNTS = {"A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15,
                        "A6": 21, "A7": 28, "A8": 36, "B2": 4, "B3": 9,
                        "B4": 16, "C2": 4, "C3": 9, "C4": 16, "D4": 12,
                        "D5": 20, "E6": 36, "E7": 63, "E8": 120, "F4": 24,
                        "G2": 6}

# every type in scope
LABELS = sorted(POSITIVE_ROOT_COUNTS)


@pytest.mark.parametrize("label", sorted(EXPECTED_CARTAN))
def test_cartan_matrix(label):
    datum = build_cartan(label)
    assert datum.cartan == EXPECTED_CARTAN[label]
    assert datum.rank == len(EXPECTED_CARTAN[label])


@pytest.mark.parametrize("label", LABELS)
def test_positive_root_count(label):
    datum = build_cartan(label)
    assert len(datum.positive_roots) == POSITIVE_ROOT_COUNTS[label]


@pytest.mark.parametrize("label", LABELS)
def test_positive_roots_match_root_coordinate_closure(label):
    """Closing the simple roots under ``reflect`` in fundamental
    coordinates gives the roots, in the same order, of the closure
    written in root coordinates."""
    datum = build_cartan(label)
    assert datum.positive_roots == root_coordinate_closure(datum)


def _coxeter_exponent(datum, i, j):
    """The order m_ij of s_i s_j: 2, 3, 4 or 6 as a_ij a_ji is 0, 1, 2
    or 3."""
    return {0: 2, 1: 3, 2: 4, 3: 6}[datum.cartan[i][j] * datum.cartan[j][i]]


@pytest.mark.parametrize("label", LABELS)
def test_reflect_is_the_simple_reflection(label):
    """Each s_i is an involution that negates alpha_i, fixes omega_j for
    j != i and keeps the form; (s_i s_j)^m_ij fixes rho."""
    datum = build_cartan(label)
    n = datum.rank
    weights = [datum.rho(), datum.fund(0), datum.fund(n - 1),
               tuple(range(-1, n - 1)), datum.simple_root(n // 2)]
    for i in range(n):
        alpha = datum.simple_root(i)
        assert datum.reflect(alpha, (i,)) == datum.neg(alpha)
        for j in range(n):
            if j != i:
                assert datum.reflect(datum.fund(j), (i,)) == datum.fund(j)
            m = _coxeter_exponent(datum, i, j) if j != i else 1
            # rho is regular, so no shorter power of s_i s_j fixes it
            orbit = [datum.reflect(datum.rho(), (i, j) * k)
                     for k in range(1, m + 1)]
            assert orbit.index(datum.rho()) == m - 1
        for mu in weights:
            s_mu = datum.reflect(mu, (i,))
            assert datum.reflect(s_mu, (i,)) == mu
            for nu in weights:
                assert datum.inner(s_mu, datum.reflect(nu, (i,))) == \
                    datum.inner(mu, nu)


@pytest.mark.parametrize("label", sorted(EXPECTED_CARTAN))
def test_simple_roots_and_pairing(label):
    datum = build_cartan(label)
    for i in range(datum.rank):
        alpha = datum.simple_root(i)
        for j in range(datum.rank):
            # <alpha_i, alpha_j-coroot> reproduces the Cartan matrix
            assert datum.coroot_pairing(alpha, j) == datum.cartan[j][i]


@pytest.mark.parametrize("label", ["A2", "B2", "G2"])
def test_root_coordinate_round_trip(label):
    # positive roots are stored in root coordinates
    datum = build_cartan(label)
    for rc in datum.positive_roots:
        mu = datum.root_to_fund(rc)
        back = datum.root_coords(mu)
        assert tuple(back) == tuple(Fraction(c) for c in rc)
        assert in_root_lattice(datum, mu)


@pytest.mark.parametrize("label", ["A1", "A3", "A4", "B2", "B3", "C3",
                                   "D4", "G2", "F4"])
def test_integer_coordinates_match_fraction_inverse(label):
    """root_coords, inner, height, depth, in_root_lattice and dominance
    agree with the same formulas over the Fraction-valued inverse."""
    datum = build_cartan(label)
    inv = _invert_rational(datum.cartan)
    n = datum.rank
    span = range(-2, 3) if n <= 3 else range(-1, 2)
    for mu in itertools.product(span, repeat=n):
        rc = tuple(sum(inv[i][j] * mu[j] for j in range(n)) for i in range(n))
        assert datum.root_coords(mu) == rc
        assert all(type(c) is Fraction for c in datum.root_coords(mu))
        integral = all(c.denominator == 1 for c in rc)
        assert in_root_lattice(datum, mu) == integral
        assert datum.dominance_leq(datum.zero(), mu) == (
            integral and all(c >= 0 for c in rc))
        for nu in (datum.rho(), datum.fund(n - 1), mu):
            inner = sum(rc[j] * datum.d[j] * nu[j] for j in range(n))
            assert datum.inner(mu, nu) == inner
            assert type(datum.inner(mu, nu)) is Fraction
        for method, total in ((datum.height, sum(rc)),
                              (datum.depth, sum(abs(c) for c in rc))):
            if total.denominator == 1:
                assert method(mu) == total and type(method(mu)) is int
            else:
                with pytest.raises(ValueError):
                    method(mu)


def test_inner_product_symmetric():
    datum = build_cartan("B2")
    weights = [(1, 0), (0, 1), (2, -1), (-1, 3)]
    for a in weights:
        for b in weights:
            assert datum.inner(a, b) == datum.inner(b, a)


def test_inner_product_normalization():
    # short roots have squared length 2, so (alpha, alpha)/2 gives d_i
    for label in ["A2", "B2", "G2"]:
        datum = build_cartan(label)
        for i in range(datum.rank):
            alpha = datum.simple_root(i)
            assert datum.inner(alpha, alpha) == 2 * datum.d[i]


def test_rho_pairs_to_one():
    for label in ["A2", "B2", "B3"]:
        datum = build_cartan(label)
        rho = datum.rho()
        assert all(c == 1 for c in rho)
        for i in range(datum.rank):
            assert datum.coroot_pairing(rho, i) == 1


def test_dominance_order():
    datum = build_cartan("A2")
    rho = (1, 1)
    assert datum.dominance_leq((1, -2), rho)  # rho - (1,-2) = alpha2
    assert datum.dominance_leq((-1, -1), rho)
    assert not datum.dominance_leq((2, 2), rho)
    assert datum.dominance_leq((2, -4), (1, -2))  # gap is alpha2
    assert not datum.dominance_leq((1, -2), (2, -4))


def test_dominant_detection():
    datum = build_cartan("B2")
    assert datum.is_dominant((0, 0))
    assert datum.is_dominant((3, 1))
    assert not datum.is_dominant((-1, 2))


def test_height_and_depth():
    datum = build_cartan("A2")
    assert datum.height((1, 1)) == 2  # alpha + beta
    assert datum.height((2, -1)) == 1
    assert datum.depth((-1, -1)) == 2
    spinor = build_cartan("B2")
    with pytest.raises(ValueError):
        spinor.height((0, 1))  # half-integral root coordinates


def test_bad_labels_rejected():
    with pytest.raises(ValueError):
        build_cartan("Z9")
    with pytest.raises(ValueError):
        build_cartan("A0")
    with pytest.raises(ValueError):
        build_cartan("G5")


@pytest.mark.parametrize("label", ["", "Z9", "h3", "1A"])
def test_unknown_family_is_named_in_the_message(label):
    with pytest.raises(ValueError) as err:
        build_cartan(label)
    assert str(err.value) == "unknown type label %r" % (label,)


@pytest.mark.parametrize("label", ["a1", "b2", "c3", "d4", "e6", "f4",
                                   "g2"])
def test_every_family_is_accepted_in_either_case(label):
    assert build_cartan(label).label == label.upper()
