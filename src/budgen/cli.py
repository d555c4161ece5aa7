"""Command-line front end.

Exit codes: 0 success, 1 invalid input, 2 divergence (a fixpoint had no
certified truncation).  Progress and diagnostics go to stderr; all data
goes to stdout and is byte-stable across runs.
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click

from . import grammars, typecount
from . import series as series_mod
from . import systems as systems_mod
from .core import BudgenError, DivergenceError, dumps_type


def _parse_arities(text: str | None):
    if text is None:
        return None
    try:
        return [int(p) for p in text.replace(",", " ").split()]
    except ValueError:
        raise BudgenError("bad arity list %r" % text)


def _load_system(system_file, builtin_name, gamma, arities):
    if (system_file is None) == (builtin_name is None):
        raise BudgenError("give exactly one of --system and --builtin")
    if system_file is not None:
        with open(system_file) as handle:
            return systems_mod.system_loads(handle.read())
    return systems_mod.builtin(builtin_name, gamma=gamma,
                               arities=_parse_arities(arities))


def _system_options(f):
    f = click.option("--system", "system_file", metavar="FILE",
                     help="load a system from a JSON file")(f)
    f = click.option("--builtin", "builtin_name", metavar="NAME",
                     help="use a named preset system")(f)
    f = click.option("--gamma", type=int, default=None,
                     help="parameter of the bdias preset")(f)
    f = click.option("--arities", default=None, metavar="LIST",
                     help="arity list of the btree preset, e.g. 2,3")(f)
    return f


def _check_bound(ctx, param, value):
    if value < 1:
        raise BudgenError("--max-arity must be >= 1")
    return value


_max_arity_option = click.option("--max-arity", default=8, show_default=True,
                                 callback=_check_bound)


@click.group()
def cli():
    """Bud generating systems: enumeration, series, and verdicts."""


@cli.command(name="enumerate")
@_system_options
@_max_arity_option
@click.option("--sync", is_flag=True, help="count the synchronous language")
@click.option("--format", "fmt", default="text",
              type=click.Choice(["text", "csv", "bfile"]))
def cmd_enumerate(system_file, builtin_name, gamma, arities, max_arity,
                  sync, fmt):
    """Per-arity counts of the (synchronous) language, n = 1..N."""
    system = _load_system(system_file, builtin_name, gamma, arities)
    if sync:
        counts, method = typecount.sync_counting_series(system, max_arity)
    else:
        counts, method = typecount.lang_counting_series(system, max_arity)
    click.echo("counting method: %s" % method, err=True)
    if method == "type-recurrence" and max_arity > typecount.PROBE_BOUND:
        click.echo("warning: unambiguity checked up to arity %d only; above "
                   "it the counts are derivation counts if the system is "
                   "ambiguous" % typecount.PROBE_BOUND, err=True)
    sep = "," if fmt == "csv" else " "
    for n, a in enumerate(counts, start=1):
        click.echo("%d%s%d" % (n, sep, a))


@cli.command(name="series")
@_system_options
@_max_arity_option
@click.option("--kind", default="synt", show_default=True,
              type=click.Choice(["hook", "synt", "sync"]))
def cmd_series(system_file, builtin_name, gamma, arities, max_arity, kind):
    """Dump a generating series as `coeff * element` lines."""
    system = _load_system(system_file, builtin_name, gamma, arities)
    f = getattr(system, kind + "_series")(max_arity)
    text = f.dumps()
    if text:
        click.echo(text)


@cli.command(name="colt")
@_system_options
@_max_arity_option
@click.option("--kind", default="synt", show_default=True,
              type=click.Choice(["hook", "synt", "sync"]))
@click.option("--format", "fmt", default="csv",
              type=click.Choice(["text", "csv"]), show_default=True)
def cmd_colt(system_file, builtin_name, gamma, arities, max_arity, kind, fmt):
    """Series coefficients pushed to (output color, input color type)."""
    system = _load_system(system_file, builtin_name, gamma, arities)
    f = getattr(system, kind + "_series")(max_arity)
    table = series_mod.colt_table(f)
    color_index = {c: i for i, c in enumerate(system.colors)}
    rows = sorted(table.items(),
                  key=lambda kv: (sum(kv[0][1]), color_index[kv[0][0]], kv[0][1]))
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["color", "type", "coefficient"])
        for (color, alpha), coeff in rows:
            writer.writerow([color, dumps_type(alpha), coeff])
        click.echo(out.getvalue(), nl=False)
    else:
        for (color, alpha), coeff in rows:
            click.echo("%s (%s) %s" % (color, dumps_type(alpha), coeff))


@cli.command(name="graph")
@_system_options
@_max_arity_option
@click.option("--sync", is_flag=True, help="synchronous derivations")
@click.option("--format", "fmt", default="dot",
              type=click.Choice(["text", "dot"]), show_default=True)
def cmd_graph(system_file, builtin_name, gamma, arities, max_arity, sync, fmt):
    """Derivation graph from the initial units, up to the arity bound."""
    system = _load_system(system_file, builtin_name, gamma, arities)
    graph = system.derivation_graph(max_arity, synchronous=sync)
    if fmt == "dot":
        click.echo(graph.to_dot())
    else:
        for x, y, mult in graph.serialized()[1]:
            click.echo("%s -> %s [%d]" % (x, y, mult))


@cli.command(name="check")
@_system_options
@_max_arity_option
def cmd_check(system_file, builtin_name, gamma, arities, max_arity):
    """Verdict report: finitely factorizing, faithful, unambiguous.

    The faithfulness/unambiguity verdicts are certificates up to the
    arity bound only."""
    system = _load_system(system_file, builtin_name, gamma, arities)
    ok, chain = system.ff_check()
    click.echo("max_arity=%d" % max_arity)
    click.echo("finitely_factorizing=%s" % str(ok).lower())
    if ok:
        click.echo("longest_unary_chain=%d" % chain)
        checks = [("faithful", system.is_faithful),
                  ("unambiguous", system.is_unambiguous),
                  ("sync_faithful", system.is_sync_faithful),
                  ("sync_unambiguous", system.is_sync_unambiguous)]
        for label, check in checks:
            click.echo("%s=%s" % (label, str(check(max_arity)).lower()))


@cli.command(name="compile")
@click.argument("grammar_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--kind", default=None,
              type=click.Choice(["cfg", "rtg", "sg"]),
              help="grammar class (default: from the file extension)")
@click.option("--cap", type=int, default=None,
              help="arity cap of the compiled synchronous-grammar ground")
def cmd_compile(grammar_file, kind, cap):
    """Compile a grammar file into a bud system, printed as JSON."""
    if kind is None:
        ext = grammar_file.rsplit(".", 1)[-1].lower()
        if ext not in ("cfg", "rtg", "sg"):
            raise BudgenError("cannot infer the grammar class from %r; "
                              "pass --kind" % grammar_file)
        kind = ext
    with open(grammar_file) as handle:
        text = handle.read()
    if kind == "cfg":
        system = grammars.cfg_to_bud(grammars.parse_cfg(text))
    elif kind == "rtg":
        system = grammars.rtg_to_bud(grammars.parse_rtg(text))
    else:
        system = grammars.sg_to_bud(grammars.parse_sg(text), cap=cap)
    click.echo(systems_mod.system_dumps(system), nl=False)


def main():
    try:
        cli(standalone_mode=False)
    except DivergenceError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(2)
    except BudgenError as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(1)
    except click.ClickException as exc:
        click.echo("error: %s" % exc.format_message(), err=True)
        sys.exit(1)
    except click.exceptions.Abort:
        sys.exit(1)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        click.echo("error: %s" % exc, err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
