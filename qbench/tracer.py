"""Per-layer tracing of the library from outside it.

``Tracer.install`` replaces each traced function with a wrapper under
every name it is bound to: the defining module, every ``from ... import``
binding in the other ``qbruhat`` modules, and the class attribute for
methods.  The wrapper records, per call path (the chain of traced
functions on the stack), the number of calls, their total time and the
time spent in traced callees, so self time is total minus that.  Spans
are aggregated as they close; no per-call record is kept, because the A4
poset alone makes about 18 million Bruhat queries.

A call is a repeat when its arguments were already seen in the run,
compared by value for containers and exact scalars and by identity for
objects without value equality.  The seen keys themselves are kept, not
their hashes: ``hash(-1) == hash(-2)``, so hashes of weight tuples
collide.  A few functions also feed exact work counts from their
arguments or results.

This module imports nothing from ``qbruhat`` at import time, so the
benchmark's parent process can read the metric names cheaply.
"""

import functools
import importlib
import sys
import time

# (layer, metric name, attribute path inside the layer's module)
TARGETS = [
    ("exactalg", "rref", "rref"),
    ("exactalg", "kernel", "kernel"),
    ("exactalg", "solve", "solve"),
    ("exactalg", "reduce_against", "reduce_against"),
    ("exactalg", "Subspace.intersect", "Subspace.intersect"),
    ("uqmodules", "build_irrep", "build_irrep"),
    ("uqmodules", "verify_module", "verify_module"),
    ("uqmodules", "demazure_blocks", "demazure_blocks"),
    ("uqmodules", "extreme_dual_row", "extreme_dual_row"),
    ("uqmodules", "lowering_string_to", "lowering_string_to"),
    ("coordring", "iota_vectors", "CoordinateModel.iota_vectors"),
    ("coordring", "pair_table", "CoordinateModel.pair_table"),
    ("coordring", "conj_block", "CoordinateModel.conj_block"),
    ("coordring", "twisted_decomposition",
     "CoordinateModel.twisted_decomposition"),
    ("coordring", "sufficient_degree", "CoordinateModel.sufficient_degree"),
    ("coordring", "lowering_split_check",
     "CoordinateModel.lowering_split_check"),
    ("coordring", "demazure_orth", "CoordinateModel.demazure_orth"),
    ("coordring", "pair_piece", "CoordinateModel.pair_piece"),
    ("coordring", "saturation", "CoordinateModel.saturation"),
    ("coordring", "stratum_of", "CoordinateModel.stratum_of"),
    ("coordring", "check_commutation", "CoordinateModel.check_commutation"),
    ("weyl", "WeylGroup.build", "WeylGroup.build"),
    ("weyl", "bruhat_leq", "WeylGroup.bruhat_leq"),
    ("weyl", "fixed_space_rank", "WeylGroup.fixed_space_rank"),
    ("weyl", "sorted_elements", "WeylGroup.sorted_elements"),
    ("strata", "DiamondPoset", "DiamondPoset.__init__"),
    ("strata", "hasse_edges", "DiamondPoset.hasse_edges"),
    ("strata", "rank_table", "DiamondPoset.rank_table"),
    ("strata", "to_json", "DiamondPoset.to_json"),
    ("characters", "weyl_character", "weyl_character"),
    ("characters", "cell_translate_character", "cell_translate_character"),
    ("centre", "centre_table", "centre_table"),
]

# exact work counts beyond calls / self time / repeats
EXTRA_COUNTS = [
    "exactalg.rref.cells",
    "exactalg.rref.ratfun_calls",
    "uqmodules.build_irrep.dim_sum",
    "uqmodules.ratfun_entries",
    "coordring.sufficient_degree.k_max",
    "strata.DiamondPoset.pairs",
    "strata.hasse_edges.edges",
    "characters.cell_translate_character.terms",
]

OVERHEAD = "trace.overhead_s"


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer, name, _ in TARGETS:
        prefix = "%s.%s" % (layer, name)
        out += [(prefix + ".calls", "count"), (prefix + ".self_s", "s"),
                (prefix + ".repeats", "count")]
    out += [(name, "count") for name in EXTRA_COUNTS]
    out.append((OVERHEAD, "s"))
    return out


class _Ident:
    """Hashable stand-in for an unhashable object, equal only to itself;
    holding the object keeps its id from being reused."""

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self):
        return id(self.obj)

    def __eq__(self, other):
        return isinstance(other, _Ident) and other.obj is self.obj


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(v) for v in x)
    if isinstance(x, dict):
        return frozenset((k, _freeze(v)) for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return frozenset(_freeze(v) for v in x)
    try:
        hash(x)
    except TypeError:
        return _Ident(x)
    return x


def _arg_key(args, kwargs):
    key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
    try:
        hash(key)
    except TypeError:
        return _freeze(key)
    return key


# -- exact work counts ----------------------------------------------------


def _count_rref(counts, args, result, new):
    from qbruhat.exactalg import RatFun
    rows = args[0]
    counts["exactalg.rref.cells"] += len(rows) * (len(rows[0]) if rows
                                                  else 0)
    if any(isinstance(x, RatFun) for row in rows for x in row):
        counts["exactalg.rref.ratfun_calls"] += 1


def _count_build_irrep(counts, args, module, new):
    from qbruhat.exactalg import RatFun
    if not new:
        return
    counts["uqmodules.build_irrep.dim_sum"] += module.dim
    for mats in (module.fmat, module.emat):
        for mat in mats:
            for row in mat.values():
                counts["uqmodules.ratfun_entries"] += sum(
                    isinstance(c, RatFun) for c in row.values())


def _count_sufficient_degree(counts, args, result, new):
    lam = result[0]
    key = "coordring.sufficient_degree.k_max"
    counts[key] = max(counts[key], int(lam[0]))


def _count_poset(counts, args, result, new):
    counts["strata.DiamondPoset.pairs"] += len(args[0])


def _count_edges(counts, args, result, new):
    counts["strata.hasse_edges.edges"] += len(result)


def _count_terms(counts, args, result, new):
    counts["characters.cell_translate_character.terms"] += len(result.terms)


HOOKS = {
    "exactalg.rref": _count_rref,
    "uqmodules.build_irrep": _count_build_irrep,
    "coordring.sufficient_degree": _count_sufficient_degree,
    "strata.DiamondPoset": _count_poset,
    "strata.hasse_edges": _count_edges,
    "characters.cell_translate_character": _count_terms,
}


class Tracer:
    """Aggregated call-path spans and counters for one process."""

    def __init__(self):
        self.names = ["<untraced>"]
        self.parents = [None]
        self.stats = [[0, 0.0, 0.0]]      # calls, total s, callee s
        self.node_of = {}
        self.stack = [0]
        self.repeats = {}
        self.counts = dict.fromkeys(EXTRA_COUNTS, 0)

    def _node(self, parent, name):
        node = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.stats.append([0, 0.0, 0.0])
        self.node_of[(parent, name)] = node
        return node

    def _wrap(self, name, fn, skip_self=False):
        seen = set()
        repeats = self.repeats
        repeats[name] = 0
        hook = HOOKS.get(name)
        counts = self.counts
        node_of, stats, stack = self.node_of, self.stats, self.stack
        clock = time.perf_counter
        first = 1 if skip_self else 0

        def wrapper(*args, **kwargs):
            key = _arg_key(args[first:], kwargs)
            new = key not in seen
            if new:
                seen.add(key)
            else:
                repeats[name] += 1
            parent = stack[-1]
            node = node_of.get((parent, name))
            if node is None:
                node = self._node(parent, name)
            stack.append(node)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                st = stats[node]
                st[0] += 1
                st[1] += dt
                stats[parent][2] += dt
            if hook is not None:
                hook(counts, args, result, new)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self):
        """Wrap every target under every name bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qbruhat" or n.startswith("qbruhat.")]
        for layer, name, attr in TARGETS:
            prefix = "%s.%s" % (layer, name)
            module = importlib.import_module("qbruhat." + layer)
            owner_name, _, fname = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = vars(owner)[fname]
                if isinstance(raw, classmethod):
                    setattr(owner, fname,
                            classmethod(self._wrap(prefix, raw.__func__)))
                else:
                    setattr(owner, fname, self._wrap(
                        prefix, raw, skip_self=(fname == "__init__")))
                continue
            orig = getattr(module, fname)
            wrapped = self._wrap(prefix, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def path(self, node):
        names = []
        while node:
            names.append(self.names[node])
            node = self.parents[node]
        return " > ".join(reversed(names))

    def report(self, top=25):
        """Per-function totals and extra counts as a flat dict, plus the
        call paths with the most self time."""
        per = {}
        for node in range(1, len(self.names)):
            calls, total, callee = self.stats[node]
            acc = per.setdefault(self.names[node], [0, 0.0])
            acc[0] += calls
            acc[1] += total - callee
        values = {}
        for layer, name, _ in TARGETS:
            prefix = "%s.%s" % (layer, name)
            calls, self_s = per.get(prefix, (0, 0.0))
            values[prefix + ".calls"] = calls
            values[prefix + ".self_s"] = self_s
            values[prefix + ".repeats"] = self.repeats.get(prefix, 0)
        values.update(self.counts)
        paths = []
        for node in range(1, len(self.names)):
            calls, total, callee = self.stats[node]
            paths.append((total - callee, calls, total, self.path(node)))
        paths.sort(reverse=True)
        return values, [{"path": p, "calls": c, "total_s": t, "self_s": s}
                        for s, c, t, p in paths[:top]]
