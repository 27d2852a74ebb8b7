"""Command-line interface.

Subcommands mirror the library layers: ``weyl`` for group facts,
``strata`` for the pair poset, ``char`` for characters, ``ideal`` for
graded ideal pieces and saturated strata, ``centre`` for centre
dimensions, ``verify`` for the self-check suites.

Exit codes: 0 on success, 1 when a computation violates an invariant,
2 on unusable or out-of-scope arguments.  Each subcommand checks its type
against the rows of ``cartan.SCOPE`` for the layers it uses, in the order
data, group, unanchored poset, modules, before it builds anything;
``ideal stratum`` also checks the dimension of its largest module, and
``char sw`` the size of its depth ball.
Output for a fixed invocation is byte-identical across runs.
"""

from __future__ import annotations

import sys

import click

from .cartan import SCOPE, ModuleScopeError, build_cartan, check_scope
from .centre import centre_table
from .characters import (cell_translate_character, character_to_json,
                         check_depth)
from .coordring import CoordinateModel
from .emit import csv_text, json_document
from .exactalg import format_scalar
from .strata import DiamondPoset
from .uqmodules import check_module_dim
from .verify import SUITES, run_suites
from .weyl import WeylGroup, format_word

SCHEMA_IDEAL = "qbruhat/ideal-v1"
SCHEMA_STRATUM = "qbruhat/stratum-v1"
SCHEMA_CENTRE = "qbruhat/centre-v1"
SCHEMA_WEYL = "qbruhat/weyl-v1"


def _in_scope(label, *layers):
    """Refuse a type outside the scope of any layer named, before anything
    is built: the data and group rows as a bad ``--type``, the module row
    as out of scope (``main``)."""
    try:
        check_scope(build_cartan(label), *layers)
    except ModuleScopeError:
        raise
    except ValueError as err:
        raise click.BadParameter(str(err), param_hint="--type")


def _load_group(label, *layers):
    _in_scope(label, "group", *layers)
    return WeylGroup.build(label)


def _parse_element(group, text, hint):
    try:
        return group.parse(text)
    except ValueError as err:
        raise click.BadParameter(str(err), param_hint=hint)


def _parse_dominant(datum, text, hint, what):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != datum.rank:
        raise click.BadParameter(
            "expected %d comma-separated integers" % datum.rank,
            param_hint=hint)
    try:
        weight = tuple(int(p) for p in parts)
    except ValueError:
        raise click.BadParameter("weights are comma-separated integers",
                                 param_hint=hint)
    if not datum.is_dominant(weight):
        raise click.BadParameter("%s must be dominant" % what,
                                 param_hint=hint)
    return weight


@click.group()
def cli():
    """Exact combinatorics and ideals of quantum cell translates."""


# -- weyl -----------------------------------------------------------------


@cli.group()
def weyl():
    """Weyl group facts."""


@weyl.command("info")
@click.option("--type", "label", required=True, help="Cartan type, e.g. A2.")
@click.option("--w", "wtext", default="e", help="Element as a word in s1..sn.")
def weyl_info(label, wtext):
    """Length, word, rank data and descents of one element."""
    group = _load_group(label)
    w = _parse_element(group, wtext, "--w")
    doc = {
        "schema": SCHEMA_WEYL,
        "type": label,
        "word": format_word(w.word),
        "length": w.length,
        "reflection_length": group.reflection_length(w),
        "fixed_space_rank": group.fixed_space_rank(w),
        "inverse": format_word(w.inverse().word),
        "left_descents": [i + 1 for i in range(group.rank)
                          if group.left_descent(w, i)],
        "is_longest": w.idx == group.longest.idx,
    }
    click.echo(json_document(doc))


@weyl.command("elements")
@click.option("--type", "label", required=True, help="Cartan type, e.g. A2.")
def weyl_elements(label):
    """All elements with lengths, in (length, word) order."""
    group = _load_group(label)
    for w in group.sorted_elements():
        click.echo("%s\t%d" % (format_word(w.word), w.length))


# -- strata ---------------------------------------------------------------


@cli.group()
def strata():
    """The poset of comparable pairs."""


@strata.command("build")
@click.option("--type", "label", required=True, help="Cartan type, e.g. A2.")
@click.option("--anchor", default=None,
              help="Keep only pairs whose closure contains this element.  "
                   "Required for a group of more than %d elements."
                   % SCOPE["poset"])
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "dot", "csv"]))
def strata_build(label, anchor, fmt):
    """Emit the pair poset with stratum ranks and covering edges."""
    group = _load_group(label, *(() if anchor else ("poset",)))
    anchor_elem = (_parse_element(group, anchor, "--anchor")
                   if anchor else None)
    poset = DiamondPoset(group, anchor=anchor_elem)
    if fmt == "json":
        click.echo(poset.to_json())
    elif fmt == "dot":
        click.echo(poset.to_dot(), nl=False)
    else:
        click.echo(poset.to_csv(), nl=False)


# -- characters -----------------------------------------------------------


@cli.group()
def char():
    """Formal characters."""


@char.command("sw")
@click.option("--type", "label", required=True, help="Cartan type, e.g. A2.")
@click.option("--w", "wtext", default="e", help="Element as a word in s1..sn.")
@click.option("--depth", default=6, show_default=True,
              help="Truncation depth (sum of root-coordinate sizes).")
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "csv"]))
def char_sw(label, wtext, depth, fmt):
    """Truncated character of the cell cone translated by w."""
    _in_scope(label, "group")
    try:
        check_depth(build_cartan(label).rank, depth)
    except ValueError as err:
        raise click.BadParameter(str(err), param_hint="--depth")
    group = WeylGroup.build(label)
    w = _parse_element(group, wtext, "--w")
    ch = cell_translate_character(group, w, depth)
    if fmt == "json":
        click.echo(character_to_json(ch, label, format_word(w.word), depth))
        return
    # the terms come in (depth, weight) order
    click.echo(csv_text(["weight", "coeff"],
                        ([" ".join(map(str, mu)), c]
                         for mu, c in ch.terms.items())), nl=False)


# -- ideals ---------------------------------------------------------------


@cli.group()
def ideal():
    """Graded ideal pieces."""


@ideal.command("demazure")
@click.option("--type", "label", required=True, help="Cartan type, e.g. A2.")
@click.option("--lambda", "lamtext", required=True,
              help="Dominant weight, e.g. 1,1.")
@click.option("--y", "ytext", required=True,
              help="Weyl element as a word in s1..sn.")
@click.option("--sign", required=True, type=click.Choice(["+", "-"]))
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "text"]))
def ideal_demazure(label, lamtext, ytext, sign, fmt):
    """One graded piece: dual rows vanishing on the extreme closure."""
    _in_scope(label, "group", "modules")
    model = CoordinateModel.get(label)
    lam = _parse_dominant(model.datum, lamtext, "--lambda", "weight")
    y = _parse_element(model.group, ytext, "--y")
    piece = model.demazure_orth(y, sign, lam)
    module = piece.module
    basis = []
    for wt in module.block_order:
        entry = piece.blocks.get(wt)
        if not entry:
            continue
        rng = module.weight_indices(wt)
        for row in entry.rows:
            values = [format_scalar(c) for c in row]
            basis.append({"weight": list(wt),
                          "indices": [rng.start, rng.stop],
                          "values": values})
    if fmt == "json":
        doc = {
            "schema": SCHEMA_IDEAL,
            "type": label,
            "lambda": list(lam),
            "y": format_word(y.word),
            "sign": sign,
            "dim": piece.dim,
            "module_dim": module.dim,
            "basis": basis,
        }
        click.echo(json_document(doc))
        return
    click.echo("piece dim %d inside a module of dim %d"
               % (piece.dim, module.dim))
    for entry in basis:
        click.echo("  weight %s: [%s]"
                   % (tuple(entry["weight"]), ", ".join(entry["values"])))


@ideal.command("stratum")
@click.option("--type", "label", required=True, help="Cartan type, e.g. A2.")
@click.option("--y", "ytext", required=True)
@click.option("--z", "ztext", required=True)
@click.option("--nu", "nutext", required=True,
              help="Dominant degree, e.g. 1,1.")
@click.option("--bound", default=2, show_default=True,
              help="Saturation steps to take.")
@click.option("--format", "fmt", default="json",
              type=click.Choice(["json", "text"]))
def ideal_stratum(label, ytext, ztext, nutext, bound, fmt):
    """Saturated pair piece with its support extremes."""
    if bound < 1:
        raise click.BadParameter("bound must be at least 1",
                                 param_hint="--bound")
    _in_scope(label, "group", "modules")
    model = CoordinateModel.get(label)
    nu = _parse_dominant(model.datum, nutext, "--nu", "degree")
    # the saturation's largest module is V(nu + bound rho), rho = (1, ..., 1)
    check_module_dim(model.datum, [c + bound for c in nu])
    y = _parse_element(model.group, ytext, "--y")
    z = _parse_element(model.group, ztext, "--z")
    if not model.group.bruhat_leq(y, z):
        raise click.BadParameter("need y <= z in Bruhat order",
                                 param_hint="--y/--z")
    sat = model.saturation(y, z, nu, bound)
    support, maximal, minimal = model.support_extremes(sat.final)
    doc = {
        "schema": SCHEMA_STRATUM,
        "type": label,
        "y": format_word(y.word),
        "z": format_word(z.word),
        "nu": list(nu),
        "bound": bound,
        "piece_dim": sat.final.dim,
        "chain_dims": sat.dims,
        "stabilized": sat.stabilized,
        "basis_weights": [[list(wt), d] for wt, d in
                          sat.final.weight_dims()],
        "support": [list(wt) for wt in support],
        "D_minus": [list(wt) for wt in maximal],
        "D_plus": [list(wt) for wt in minimal],
    }
    if fmt == "json":
        click.echo(json_document(doc))
        return
    click.echo("piece dim %d, chain %s, stabilized %s"
               % (doc["piece_dim"], doc["chain_dims"], doc["stabilized"]))
    click.echo("D- %s  D+ %s" % (doc["D_minus"], doc["D_plus"]))


# -- centre ---------------------------------------------------------------


@cli.group()
def centre():
    """Centre dimensions of the cell algebras."""


@centre.command("dim")
@click.option("--type", "label", required=True, help="Cartan type, e.g. B2.")
@click.option("--format", "fmt", default="csv",
              type=click.Choice(["csv", "json"]))
def centre_dim(label, fmt):
    """Centre dimension and generators for every element."""
    _in_scope(label, "group")
    table = centre_table(label)
    if fmt == "json":
        doc = {
            "schema": SCHEMA_CENTRE,
            "type": label,
            "rows": [{"w": format_word(w.word), "dim": data.dim,
                      "generators": data.generators()}
                     for w, data in table],
        }
        click.echo(json_document(doc))
        return
    click.echo(csv_text(["w", "dim", "generators"],
                        ([format_word(w.word), data.dim,
                          ";".join(data.generators())] for w, data in table)),
               nl=False)


# -- verify ---------------------------------------------------------------


@cli.command("verify")
@click.option("--suite", "suites", multiple=True,
              help="Suite to run; repeatable.  Without it, list suites.")
def verify_cmd(suites):
    """Run self-check suites."""
    if not suites:
        for name in sorted(SUITES):
            click.echo(name)
        return
    for name in suites:
        if name not in SUITES:
            raise click.BadParameter("unknown suite %r (have: %s)"
                                     % (name, ", ".join(sorted(SUITES))),
                                     param_hint="--suite")
    results = run_suites(list(suites))
    failed = 0
    for res in results:
        click.echo(res.line())
        if not res.ok:
            failed += 1
    if failed:
        click.echo("%d of %d checks failed" % (failed, len(results)))
        sys.exit(1)
    click.echo("all %d checks passed" % len(results))


def main():
    try:
        sys.exit(cli(standalone_mode=False) or 0)
    except click.exceptions.NoArgsIsHelpError as err:
        err.show()  # a group without a subcommand prints its help
        sys.exit(err.exit_code)
    except click.UsageError as err:  # one line: no usage line, no hint
        click.echo("Error: %s" % err.format_message(), err=True)
        sys.exit(err.exit_code)
    except click.Abort:
        click.echo("Aborted!", err=True)
        sys.exit(1)
    except ModuleScopeError as err:
        click.echo("out of scope: %s" % err, err=True)
        sys.exit(2)
    except (AssertionError, RuntimeError) as err:
        click.echo("invariant violation: %s" % err, err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
