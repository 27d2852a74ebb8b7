"""Self-check suites runnable from the command line.

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


def _check(name, fn):
    try:
        detail = fn()
        return CheckResult(name, True, detail or "")
    except Exception as err:  # noqa: BLE001 - report, do not crash the run
        return CheckResult(name, False, "%s: %s" % (type(err).__name__, err))


def suite_scalars():
    def canonical_division():
        q = Laurent.q_power(1)
        a = (q ** 3 - ONE) / (q - ONE)
        if format_scalar(a) != "1 + q + q^2":
            raise AssertionError(format_scalar(a))
        b = ONE / (q + ONE)
        if parse_laurent("1 + q") * b != ONE:
            raise AssertionError("division does not invert")
        return "geometric quotient and rational inverse"

    def binomial_symmetry():
        for n in range(8):
            for k in range(n + 1):
                if q_binomial(n, k) != q_binomial(n, n - k):
                    raise AssertionError((n, k))
        return "q-binomials symmetric up to n=7"

    return [_check("scalars-canonical-division", canonical_division),
            _check("scalars-binomial-symmetry", binomial_symmetry)]


def _reflection_lengths(group):
    """Reflection length of each element by breadth-first search from e
    over the reflections, checked against ``group.reflection_length``,
    which Carter's theorem reads off the fixed lattice instead."""
    refl = group.reflections()
    dist = {group.identity.idx: 0}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for w in frontier:
            for t in refl:
                tw = t * w
                if tw.idx not in dist:
                    dist[tw.idx] = dist[w.idx] + 1
                    nxt.append(tw)
        frontier = nxt
    for w in group.elements:
        if group.reflection_length(w) != dist.get(w.idx):
            raise AssertionError((group.datum.label, w.word,
                                  "reflection length"))
    return dist


def suite_weyl():
    def orders():
        facts = {"A1": 2, "A2": 6, "B2": 8, "A3": 24, "B3": 48, "G2": 12}
        for label, order in facts.items():
            group = WeylGroup.build(label)
            if len(group) != order:
                raise AssertionError(label)
            dist = _reflection_lengths(group)
            for w in group.elements:
                if group.fixed_space_rank(w) + dist[w.idx] != group.rank:
                    raise AssertionError((label, w.word))
        return "orders and rank splits for A1-A3, B2, B3, G2"

    def bruhat_reflection_oracle():
        for label in ("A2", "B2"):
            group = WeylGroup.build(label)
            reach = {(w.idx, w.idx) for w in group.elements}
            refl = group.reflections()
            grew = True
            while grew:
                grew = False
                for (a, b) in list(reach):
                    wb = group.element(b)
                    for t in refl:
                        nxt = group.multiply(wb, t)
                        if nxt.length > wb.length and (a, nxt.idx) not in reach:
                            reach.add((a, nxt.idx))
                            grew = True
            for y in group.elements:
                for z in group.elements:
                    if group.bruhat_leq(y, z) != ((y.idx, z.idx) in reach):
                        raise AssertionError((label, y.word, z.word))
        return ("descent-recursion order equals reflection-chain order "
                "on A2, B2")

    return [_check("weyl-orders-and-rank-split", orders),
            _check("weyl-bruhat-two-ways", bruhat_reflection_oracle)]


def suite_characters():
    def dims():
        datum = build_cartan("A2")
        group = WeylGroup.build(datum)
        for lam in [(1, 0), (1, 1), (2, 2), (4, 4)]:
            if weyl_character(datum, group, lam).mass() != weyl_dim(datum,
                                                                    lam):
                raise AssertionError(lam)
        return "character mass equals product-formula dimension"

    def demazure_chain():
        datum = build_cartan("A2")
        group = WeylGroup.build(datum)
        masses = sorted(demazure_character(datum, group, w, (1, 1)).mass()
                        for w in group.elements)
        if masses != [1, 2, 2, 5, 5, 8]:
            raise AssertionError(masses)
        return "adjoint Demazure masses 1,2,2,5,5,8"

    def cell_coefficients():
        group = WeylGroup.build("A2")
        datum = group.datum
        ch = cell_translate_character(group, group.identity, 6)
        target = datum.neg(datum.root_to_fund((1, 1)))
        if ch.coefficient(target) != 2:
            raise AssertionError(ch.coefficient(target))
        return "negative-cone count at depth 6"

    return [_check("characters-dim-formula", dims),
            _check("characters-demazure-masses", demazure_chain),
            _check("characters-cell-count", cell_coefficients)]


def suite_modules():
    def constructions():
        dims = []
        for label, lam in [("A1", (2,)), ("A2", (1, 1)), ("B2", (1, 1))]:
            datum = build_cartan(label)
            dims.append(build_irrep(datum, lam).dim)
        if dims != [3, 8, 16]:
            raise AssertionError(dims)
        return "verified builds of dimensions 3, 8, 16"

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
        return "string difference equals the coroot pairing"

    return [_check("modules-verified-builds", constructions),
            _check("modules-string-identity", string_identity)]


def suite_ideals():
    def adjoint_pieces():
        model = CoordinateModel.get("A2")
        s1 = model.group.gens[0]
        s12 = model.group.gens[0] * model.group.gens[1]
        left = model.demazure_orth(s1, "-", (1, 1))
        right = model.demazure_orth(s12, "+", (1, 1))
        if sorted(wt for wt, _ in left.weight_dims()) != [(0, 0), (1, 1),
                                                          (2, -1)]:
            raise AssertionError(left.weight_dims())
        if sorted(wt for wt, _ in right.weight_dims()) != [(-1, -1), (0, 0),
                                                           (1, -2)]:
            raise AssertionError(right.weight_dims())
        return "adjoint piece supports for the worked pair"

    def commutation():
        model = CoordinateModel.get("A2")
        for nu in [(1, 0), (0, 1)]:
            for lam in [(1, 0), (0, 1)]:
                for mu in model.module(nu).block_order:
                    for eta in model.module(lam).block_order:
                        model.check_commutation(nu, mu, lam, eta)
        return "both congruences over the fundamental degrees"

    def extreme_relations():
        model = CoordinateModel.get("A2")
        for lam in [(1, 0), (0, 1), (1, 1)]:
            for nu in [(1, 0), (0, 1)]:
                model.check_extreme_relations(lam, nu)
        return "exact relations past the top and bottom rows"

    return [_check("ideals-adjoint-pieces", adjoint_pieces),
            _check("ideals-commutation", commutation),
            _check("ideals-extreme-relations", extreme_relations)]


def suite_strata():
    def recovery():
        model = CoordinateModel.get("A2")
        poset = DiamondPoset(model.group)
        for (y, z) in poset.pairs:
            for nu in [(1, 0), (0, 1)]:
                wy, wz, sat = model.stratum_of(y, z, nu, bound=2)
                if wy.act(nu) != y.act(nu) or wz.act(nu) != z.act(nu):
                    raise AssertionError((y.word, z.word, nu))
                if not sat.stabilized:
                    raise AssertionError(("unstable", y.word, z.word, nu))
        return "all 19 pairs recovered at the fundamental degrees"

    def ranks():
        for label, full_rank in [("A2", 1), ("B2", 0)]:
            group = WeylGroup.build(build_cartan(label))
            poset = DiamondPoset(group)
            e = group.identity
            w0 = group.longest
            if poset.stratum_rank(poset.index(e, w0)) != full_rank:
                raise AssertionError((label, "full interval"))
            if poset.stratum_rank(poset.index(e, e)) != group.rank:
                raise AssertionError((label, "point interval"))
            dist = _reflection_lengths(group)
            for i, (y, z) in enumerate(poset.pairs):
                u = y.inverse() * z
                if poset.stratum_rank(i) != group.rank - dist[u.idx]:
                    raise AssertionError((label, y.word, z.word))
        return "fixed-lattice rank matches rank minus reflection length"

    return [_check("strata-pair-recovery", recovery),
            _check("strata-rank-extremes", ranks)]


def suite_centre():
    def tables():
        dims = {format_word(w.word): data.dim
                for w, data in centre_table("A2")}
        if dims != {"e": 1, "s1": 0, "s2": 0, "s1 s2": 0, "s2 s1": 0,
                    "s1 s2 s1": 1}:
            raise AssertionError(dims)
        dims = {format_word(w.word): data.dim
                for w, data in centre_table("B2")}
        if dims["e"] != 2 or dims["s1 s2 s1 s2"] != 2:
            raise AssertionError(dims)
        return "A2 and B2 tables as expected"

    def scan():
        report = distinguishing_scan()
        return "extremes separated in %d types" % len(report)

    def exponent():
        datum = build_cartan("B2")
        group = WeylGroup.build(datum)
        for nu in [(1, 0), (0, 1), (2, 1)]:
            for lam in [(1, 0), (1, 1)]:
                for shift in [(-1, 0), (0, -1), (-1, -1)]:
                    mu = datum.add(lam, datum.root_to_fund(shift))
                    _, _, total = centrality_exponent(datum, group, nu,
                                                      lam, mu)
                    if total != 0:
                        raise AssertionError((nu, lam, mu))
        return "walk exponent vanishes on the sample grid"

    return [_check("centre-dimension-tables", tables),
            _check("centre-distinguishing-scan", scan),
            _check("centre-walk-exponent", exponent)]


def suite_example_sl3():
    def pieces():
        model = CoordinateModel.get("A2")
        group = model.group
        s1 = group.parse("s1")
        s12 = group.parse("s1 s2")
        degrees = [(1, 0), (0, 1), (1, 1)]
        minus = [model.demazure_orth(s1, "-", lam) for lam in degrees]
        plus = [model.demazure_orth(s12, "+", lam) for lam in degrees]
        if [p.dim for p in minus] != [1, 0, 3]:
            raise AssertionError([p.dim for p in minus])
        if [p.dim for p in plus] != [1, 0, 3]:
            raise AssertionError([p.dim for p in plus])
        if minus[0].weight_dims() != [((1, 0), 1)]:
            raise AssertionError(minus[0].weight_dims())
        if plus[0].weight_dims() != [((0, -1), 1)]:
            raise AssertionError(plus[0].weight_dims())
        if minus[2].weight_dims() != [((0, 0), 1), ((1, 1), 1),
                                      ((2, -1), 1)]:
            raise AssertionError(minus[2].weight_dims())
        if plus[2].weight_dims() != [((-1, -1), 1), ((0, 0), 1),
                                     ((1, -2), 1)]:
            raise AssertionError(plus[2].weight_dims())
        return "piece dims (1, 0, 3) twice, with the diagrammed weights"

    def product_membership():
        model = CoordinateModel.get("A2")
        group = model.group
        s1 = group.parse("s1")
        s2 = group.parse("s2")
        s12 = group.parse("s1 s2")
        wa, wb, rho = (1, 0), (0, 1), (1, 1)
        prod = model.multiply(wa, model.extreme_row(wa, s1),
                              wb, model.extreme_row(wb, s2))
        if not any(prod):
            raise AssertionError("product vanished")
        module = model.module(rho)
        rng = module.weight_indices((0, 0))
        if any(c for k, c in enumerate(prod)
               if c and not rng.start <= k < rng.stop):
            raise AssertionError("support beyond the zero-weight block")
        pair = model.pair_piece(s1, s12, rho)
        if model.demazure_orth(s1, "-", rho).block_dim((0, 0)) != 1:
            raise AssertionError("minus piece should give one zero line")
        if model.demazure_orth(s12, "+", rho).block_dim((0, 0)) != 1:
            raise AssertionError("plus piece should give one zero line")
        if pair.block_dim((0, 0)) != 2:
            raise AssertionError("the two zero lines should be independent")
        if not pair.contains_row(prod):
            raise AssertionError("product escapes the raw pair piece")
        return "the mixed product lies in the span of the two zero lines"

    def saturation_membership():
        model = CoordinateModel.get("A2")
        group = model.group
        s1 = group.parse("s1")
        s2 = group.parse("s2")
        s12 = group.parse("s1 s2")
        wb = (0, 1)
        row = model.extreme_row(wb, s2)
        raw = model.pair_piece(s1, s12, wb)
        if raw.dim != 0:
            raise AssertionError("raw sum at this degree should vanish")
        for by in ("y", "z"):
            sat = model.saturation(s1, s12, wb, 2, by=by)
            if not sat.stabilized:
                raise AssertionError("saturation did not stabilize")
            if not sat.final.contains_row(row):
                raise AssertionError("anchor %s misses the extreme row"
                                     % by)
            if sat.dims[0] != 0:
                raise AssertionError(sat.dims)
        return "saturating grows the degree where the raw sum is zero"

    return [_check("example-sl3-pieces", pieces),
            _check("example-sl3-product", product_membership),
            _check("example-sl3-saturation", saturation_membership)]


def suite_commutation_a2():
    def full_grid():
        model = CoordinateModel.get("A2")
        degrees = [(1, 0), (0, 1), (1, 1)]
        lines = 0
        for nu in degrees:
            for lam in degrees:
                for mu in model.module(nu).block_order:
                    for eta in model.module(lam).block_order:
                        model.check_commutation(nu, mu, lam, eta)
                        lines += 1
        return "both congruences over %d weight-line pairs" % lines

    return [_check("commutation-A2", full_grid)]


def suite_eigen_qpowers():
    def sweep():
        model = CoordinateModel.get("A2")
        group = model.group
        blocks = 0
        spaces = 0
        for w in group.sorted_elements():
            for eta in model.module((1, 1)).block_order:
                parts = model.twisted_decomposition(w, eta)
                blocks += 1
                spaces += len(parts)
        return ("%d blocks decompose into %d labelled eigenspaces"
                % (blocks, spaces))

    return [_check("eigen-qpowers", sweep)]


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
