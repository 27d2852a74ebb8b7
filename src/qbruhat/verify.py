"""Self-check suites runnable from the command line, and the paper's
checks they share with the acceptance criteria.

Each paper check is one function of what its statement is about: a
model or a group, the degrees and the bound.  It raises
``AssertionError`` naming the pair, block or degree where it fails and
returns the counts a suite's detail text needs.  The suites below and
the acceptance criteria of the test suite call the same functions, each
with its own arguments.

Each suite is a list of named checks over frozen, hand-checkable data.
The anchor names are stable identifiers meant for scripting against;
the details say what was actually computed.
"""

from __future__ import annotations

from .cartan import build_cartan
from .centre import centre_table, centrality_exponent, distinguishing_scan
from .characters import (cell_translate_character, demazure_character,
                         weyl_character, weyl_dim)
from .coordring import CoordinateModel
from .exactalg import Laurent, ONE, format_scalar, parse_laurent, q_binomial
from .strata import DiamondPoset
from .uqmodules import build_irrep, extreme_dual_row, string_counts
from .weyl import WeylGroup, format_word


class CheckResult:
    def __init__(self, name, ok, detail=""):
        self.name = name
        self.ok = ok
        self.detail = detail

    def line(self):
        status = "ok  " if self.ok else "FAIL"
        out = "%s %s" % (status, self.name)
        if self.detail:
            out += " -- %s" % self.detail
        return out


def _check(name, fn, detail):
    """Run one check; on success ``detail`` is filled in, by
    ``str.format``, with the count or the tuple of counts ``fn``
    returns."""
    try:
        result = fn()
    except Exception as err:  # noqa: BLE001 - report, do not crash the run
        return CheckResult(name, False, "%s: %s" % (type(err).__name__, err))
    counts = result if isinstance(result, tuple) else (result,)
    return CheckResult(name, True, detail.format(*counts))


def _pair(y, z, nu):
    return "pair (%s, %s) at degree %s" % (format_word(y.word),
                                           format_word(z.word), tuple(nu))


# -- independent oracles ----------------------------------------------------


def _reflections(group):
    """The reflections as the conjugates w s_i w^-1 of the simple ones."""
    return [group.element(k) for k in sorted(
        {(w * s * w.inverse()).idx for w in group.elements
         for s in group.gens})]


def _distances(start, step):
    """Breadth-first distances {idx: steps} from ``start``, moving from
    w to each element of ``step(w)``."""
    dist = {start.idx: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for v in step(w):
                if v.idx not in dist:
                    dist[v.idx] = dist[w.idx] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def reflection_lengths(group):
    """Reflection length of each element, {idx: length}, by breadth-first
    search from e over the reflections, checked against
    ``group.reflection_length``.  The search never calls
    ``reflection_length`` nor the fixed-lattice rank that Carter's
    theorem reads it off."""
    refl = _reflections(group)
    dist = _distances(group.identity, lambda w: [t * w for t in refl])
    for w in group.elements:
        if group.reflection_length(w) != dist.get(w.idx):
            raise AssertionError("reflection length of %s in %s"
                                 % (format_word(w.word), group.datum.label))
    return dist


def check_bruhat_chains(group):
    """Bruhat order as the reflexive, transitive closure of w < w t for
    the reflections t that raise the length, compared with
    ``group.bruhat_leq`` on every pair.  The chains never call
    ``bruhat_leq``."""
    refl = _reflections(group)
    for y in group.elements:
        reach = _distances(y, lambda w: [v for v in (w * t for t in refl)
                                         if v.length > w.length])
        for z in group.elements:
            if group.bruhat_leq(y, z) != (z.idx in reach):
                raise AssertionError("Bruhat order of %s and %s in %s"
                                     % (format_word(y.word),
                                        format_word(z.word),
                                        group.datum.label))


# -- the paper's checks -----------------------------------------------------


SL3_DEGREES = [(1, 0), (0, 1), (1, 1)]


def check_sl3_pieces(model):
    """The worked rank-two example: the minus piece of s1 and the plus
    piece of s1 s2 in degrees omega_1, omega_2 and rho have dimensions
    1, 0, 3 and the weights the paper diagrams."""
    group = model.group
    expect = [
        (group.parse("s1"), "-",
         [[((1, 0), 1)], [], [((0, 0), 1), ((1, 1), 1), ((2, -1), 1)]]),
        (group.parse("s1 s2"), "+",
         [[((0, -1), 1)], [], [((-1, -1), 1), ((0, 0), 1), ((1, -2), 1)]]),
    ]
    for w, sign, weights in expect:
        got = [model.demazure_orth(w, sign, lam).weight_dims()
               for lam in SL3_DEGREES]
        if got != weights:
            raise AssertionError("%s-piece of %s has weights %s"
                                 % (sign, format_word(w.word), got))


def check_sl3_product(model):
    """The product of the short extreme coefficients of s1 and s2 lies
    in the zero-weight block of degree rho, in the plane spanned by the
    zero lines of the two pieces of the pair (s1, s1 s2)."""
    group = model.group
    s1, s2, s12 = (group.parse(w) for w in ("s1", "s2", "s1 s2"))
    wa, wb, rho = (1, 0), (0, 1), (1, 1)
    prod = model.multiply(wa, extreme_dual_row(model.module(wa), s1),
                          wb, extreme_dual_row(model.module(wb), s2))
    if not prod:
        raise AssertionError("product vanished")
    if list(model.module(rho).localize(prod)) != [(0, 0)]:
        raise AssertionError("support beyond the zero-weight block")
    if model.demazure_orth(s1, "-", rho).block_dim((0, 0)) != 1:
        raise AssertionError("minus piece should give one zero line")
    if model.demazure_orth(s12, "+", rho).block_dim((0, 0)) != 1:
        raise AssertionError("plus piece should give one zero line")
    pair = model.pair_piece(s1, s12, rho)
    if pair.block_dim((0, 0)) != 2:
        raise AssertionError("the two zero lines should be independent")
    if not pair.contains_cell(prod):
        raise AssertionError("product escapes the raw pair piece")


def check_sl3_saturation(model):
    """The long extreme coefficient of s2 is missed by the raw piece of
    (s1, s1 s2) at its own degree omega_2 and recovered by saturating,
    from either anchor: one step gives the line, the second confirms."""
    group = model.group
    s1, s2, s12 = (group.parse(w) for w in ("s1", "s2", "s1 s2"))
    wb = (0, 1)
    row = extreme_dual_row(model.module(wb), s2)
    if model.pair_piece(s1, s12, wb).dim != 0:
        raise AssertionError("raw sum at this degree should vanish")
    for by in ("y", "z"):
        sat = model.saturation(s1, s12, wb, 2, by=by)
        if not sat.stabilized:
            raise AssertionError("saturation by %s did not stabilize" % by)
        if sat.dims[0] != 0 or sat.final.dim != 1:
            raise AssertionError("saturation by %s has dims %s"
                                 % (by, sat.dims))
        if not sat.final.contains_cell(row):
            raise AssertionError("anchor %s misses the extreme row" % by)


def check_commutation_grid(model, degrees):
    """Both q-commutation congruences for every pair of weight lines of
    every pair of degrees; returns the number of weight-line pairs."""
    lines = 0
    for nu in degrees:
        for lam in degrees:
            for mu in model.module(nu).block_order:
                for eta in model.module(lam).block_order:
                    model.check_commutation(nu, mu, lam, eta)
                    lines += 1
    return lines


def check_extreme_relations_grid(model, lams, nus):
    """Exact commutation of every row of each degree lam past the highest
    and lowest extreme rows of each degree nu."""
    for lam in lams:
        for nu in nus:
            model.check_extreme_relations(lam, nu)


def check_stratum_indexing(model, degrees, bound):
    """Each pair y <= z is recovered from its saturated piece: the chain
    stabilizes within ``bound`` steps, the dominance-maximal and minimal
    support weights are y(nu) and z(nu) alone, and ``stratum_of`` returns
    elements with those weights.  No extreme row of the interval [y, z]
    lies in the piece, and at a regular degree (every coordinate of nu
    positive) every other one does.  Returns the number of pairs."""
    group = model.group
    pairs = DiamondPoset(group).pairs
    for nu in degrees:
        regular = all(c > 0 for c in nu)
        for y, z in pairs:
            sat = model.saturation(y, z, nu, bound)
            if not sat.stabilized:
                raise AssertionError("saturation of %s did not stabilize"
                                     % _pair(y, z, nu))
            _, maximal, minimal = model.support_extremes(sat.final)
            if maximal != [y.act(nu)] or minimal != [z.act(nu)]:
                raise AssertionError("support extremes of %s are max %s, "
                                     "min %s" % (_pair(y, z, nu), maximal,
                                                 minimal))
            wy, wz, _ = model.stratum_of(y, z, nu, bound=bound)
            if wy.act(nu) != y.act(nu) or wz.act(nu) != z.act(nu):
                raise AssertionError("%s recovered as (%s, %s)"
                                     % (_pair(y, z, nu), format_word(wy.word),
                                        format_word(wz.word)))
            for w in group.sorted_elements():
                inside = group.bruhat_leq(y, w) and group.bruhat_leq(w, z)
                has = sat.final.contains_cell(
                    extreme_dual_row(model.module(nu), w))
                if has == inside and (inside or regular):
                    raise AssertionError(
                        "extreme row of %s %s the piece of %s"
                        % (format_word(w.word),
                           "lies in" if has else "is missing from",
                           _pair(y, z, nu)))
    return len(pairs)


def check_stratum_ranks(group, full_rank):
    """The stratum of each pair (y, z) has rank dim fix(y^-1 z), which is
    the rank minus the reflection length of y^-1 z; the stratum of the
    full interval (e, w0) has rank ``full_rank``."""
    poset = DiamondPoset(group)
    if poset.stratum_rank(poset.index(group.identity,
                                      group.longest)) != full_rank:
        raise AssertionError("full interval of %s" % group.datum.label)
    dist = reflection_lengths(group)
    for i, (y, z) in enumerate(poset.pairs):
        u = y.inverse() * z
        rank = poset.stratum_rank(i)
        if rank != group.fixed_space_rank(u) or \
                rank != group.rank - dist[u.idx]:
            raise AssertionError("stratum (%s, %s) of %s has rank %d"
                                 % (format_word(y.word), format_word(z.word),
                                    group.datum.label, rank))


def check_centre_tables():
    """Centre dimensions cell by cell: A2's whole table, and in B2 the
    two extreme cells at 2 with every other cell below."""
    dims = {format_word(w.word): data.dim for w, data in centre_table("A2")}
    if dims != {"e": 1, "s1": 0, "s2": 0, "s1 s2": 0, "s2 s1": 0,
                "s1 s2 s1": 1}:
        raise AssertionError("A2 centre dimensions %s" % dims)
    dims = {format_word(w.word): data.dim for w, data in centre_table("B2")}
    extremes = ("e", "s1 s2 s1 s2")
    if [dims[w] for w in extremes] != [2, 2] or \
            any(d >= 2 for w, d in dims.items() if w not in extremes):
        raise AssertionError("B2 centre dimensions %s" % dims)


def check_distinguishing_scan(labels):
    """The centre dimension separates the two extreme cells in each
    type; returns the number of types scanned."""
    report = distinguishing_scan(labels)
    if [r["type"] for r in report] != list(labels):
        raise AssertionError("scan reported %s"
                             % [r["type"] for r in report])
    return len(report)


def check_walk_exponent(label, grid):
    """The paired extreme rows of each degree nu pick up no net q-power
    past a coefficient with weights (lam, mu), for every (nu, lam, mu) of
    the grid."""
    datum = build_cartan(label)
    group = WeylGroup.build(datum)
    for nu, lam, mu in grid:
        if centrality_exponent(datum, group, nu, lam, mu)[2] != 0:
            raise AssertionError("walk exponent of %s at nu=%s, lam=%s, "
                                 "mu=%s" % (label, nu, lam, mu))


# -- suites -----------------------------------------------------------------


def suite_scalars():
    def canonical_division():
        q = Laurent.q_power(1)
        a = (q ** 3 - ONE) / (q - ONE)
        if format_scalar(a) != "1 + q + q^2":
            raise AssertionError(format_scalar(a))
        b = ONE / (q + ONE)
        if parse_laurent("1 + q") * b != ONE:
            raise AssertionError("division does not invert")

    def binomial_symmetry():
        for n in range(8):
            for k in range(n + 1):
                if q_binomial(n, k) != q_binomial(n, n - k):
                    raise AssertionError((n, k))

    return [_check("scalars-canonical-division", canonical_division,
                   "geometric quotient and rational inverse"),
            _check("scalars-binomial-symmetry", binomial_symmetry,
                   "q-binomials symmetric up to n=7")]


def suite_weyl():
    def orders():
        facts = {"A1": 2, "A2": 6, "B2": 8, "A3": 24, "B3": 48, "G2": 12}
        for label, order in facts.items():
            group = WeylGroup.build(label)
            if len(group) != order:
                raise AssertionError(label)
            # reflection_length is the rank minus the fixed-space rank
            reflection_lengths(group)

    def bruhat_two_ways():
        for label in ("A2", "B2"):
            check_bruhat_chains(WeylGroup.build(label))

    return [_check("weyl-orders-and-rank-split", orders,
                   "orders and rank splits for A1-A3, B2, B3, G2"),
            _check("weyl-bruhat-two-ways", bruhat_two_ways,
                   "descent-recursion order equals reflection-chain order "
                   "on A2, B2")]


def suite_characters():
    def dims():
        datum = build_cartan("A2")
        group = WeylGroup.build(datum)
        for lam in [(1, 0), (1, 1), (2, 2), (4, 4)]:
            if weyl_character(datum, group, lam).mass() != weyl_dim(datum,
                                                                    lam):
                raise AssertionError(lam)

    def demazure_chain():
        datum = build_cartan("A2")
        group = WeylGroup.build(datum)
        masses = sorted(demazure_character(datum, w, (1, 1)).mass()
                        for w in group.elements)
        if masses != [1, 2, 2, 5, 5, 8]:
            raise AssertionError(masses)

    def cell_coefficients():
        group = WeylGroup.build("A2")
        datum = group.datum
        ch = cell_translate_character(group, group.identity, 6)
        target = datum.neg(datum.root_to_fund((1, 1)))
        if ch.coefficient(target) != 2:
            raise AssertionError(ch.coefficient(target))

    return [_check("characters-dim-formula", dims,
                   "character mass equals product-formula dimension"),
            _check("characters-demazure-masses", demazure_chain,
                   "adjoint Demazure masses 1,2,2,5,5,8"),
            _check("characters-cell-count", cell_coefficients,
                   "negative-cone count at depth 6")]


def suite_modules():
    def constructions():
        dims = []
        for label, lam in [("A1", (2,)), ("A2", (1, 1)), ("B2", (1, 1))]:
            datum = build_cartan(label)
            dims.append(build_irrep(datum, lam).dim)
        if dims != [3, 8, 16]:
            raise AssertionError(dims)

    def string_identity():
        datum = build_cartan("A2")
        group = WeylGroup.build(datum)
        module = build_irrep(datum, (1, 1))
        for w in group.sorted_elements():
            row = extreme_dual_row(module, w)
            mu = w.act((1, 1))
            for i in range(2):
                phi, eps = string_counts(module, row, i)
                if eps - phi != datum.coroot_pairing(mu, i):
                    raise AssertionError((w.word, i))

    return [_check("modules-verified-builds", constructions,
                   "verified builds of dimensions 3, 8, 16"),
            _check("modules-string-identity", string_identity,
                   "string difference equals the coroot pairing")]


def suite_ideals():
    model = CoordinateModel.get("A2")
    fundamental = [(1, 0), (0, 1)]
    return [_check("ideals-adjoint-pieces", lambda: check_sl3_pieces(model),
                   "adjoint piece supports for the worked pair"),
            _check("ideals-commutation",
                   lambda: check_commutation_grid(model, fundamental),
                   "both congruences over the fundamental degrees"),
            _check("ideals-extreme-relations",
                   lambda: check_extreme_relations_grid(model, SL3_DEGREES,
                                                        fundamental),
                   "exact relations past the top and bottom rows")]


def suite_strata():
    model = CoordinateModel.get("A2")

    def ranks():
        for label, full_rank in [("A2", 1), ("B2", 0)]:
            check_stratum_ranks(WeylGroup.build(label), full_rank)

    return [_check("strata-pair-recovery",
                   lambda: check_stratum_indexing(model, [(1, 0), (0, 1)],
                                                  2),
                   "all {} pairs recovered at the fundamental degrees"),
            _check("strata-rank-extremes", ranks,
                   "fixed-lattice rank matches rank minus reflection "
                   "length")]


def suite_centre():
    datum = build_cartan("B2")
    grid = [(nu, lam, datum.add(lam, datum.root_to_fund(shift)))
            for nu in [(1, 0), (0, 1), (2, 1)]
            for lam in [(1, 0), (1, 1)]
            for shift in [(-1, 0), (0, -1), (-1, -1)]]
    return [_check("centre-dimension-tables", check_centre_tables,
                   "A2 and B2 tables as expected"),
            _check("centre-distinguishing-scan",
                   lambda: check_distinguishing_scan(
                       ("A1", "A2", "A3", "B2", "B3")),
                   "extremes separated in {} types"),
            _check("centre-walk-exponent",
                   lambda: check_walk_exponent("B2", grid),
                   "walk exponent vanishes on the sample grid")]


def suite_example_sl3():
    model = CoordinateModel.get("A2")
    return [_check("example-sl3-pieces", lambda: check_sl3_pieces(model),
                   "piece dims (1, 0, 3) twice, with the diagrammed "
                   "weights"),
            _check("example-sl3-product", lambda: check_sl3_product(model),
                   "the mixed product lies in the span of the two zero "
                   "lines"),
            _check("example-sl3-saturation",
                   lambda: check_sl3_saturation(model),
                   "saturating grows the degree where the raw sum is "
                   "zero")]


def suite_commutation_a2():
    model = CoordinateModel.get("A2")
    return [_check("commutation-A2",
                   lambda: check_commutation_grid(model, SL3_DEGREES),
                   "both congruences over {} weight-line pairs")]


def suite_eigen_qpowers():
    def sweep():
        model = CoordinateModel.get("A2")
        blocks = 0
        spaces = 0
        for w in model.group.sorted_elements():
            for eta in model.module((1, 1)).block_order:
                spaces += len(model.twisted_decomposition(w, eta))
                blocks += 1
        return blocks, spaces

    return [_check("eigen-qpowers", sweep,
                   "{} blocks decompose into {} labelled eigenspaces")]


SUITES = {
    "scalars": suite_scalars,
    "weyl": suite_weyl,
    "characters": suite_characters,
    "modules": suite_modules,
    "ideals": suite_ideals,
    "strata": suite_strata,
    "centre": suite_centre,
    "example-sl3": suite_example_sl3,
    "commutation-A2": suite_commutation_a2,
    "eigen-qpowers": suite_eigen_qpowers,
}


def run_suites(names):
    results = []
    for name in names:
        results.extend(SUITES[name]())
    return results
