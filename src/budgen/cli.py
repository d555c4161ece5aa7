"""Command-line front end.

Exit codes: 0 success, 1 invalid input or a request out of memory, 2
divergence (a fixpoint had no certified truncation).  Progress and
diagnostics go to stderr; all data goes to stdout and is byte-stable
across runs.

The argument parser is table-driven and uses the standard library only:
every command has an option table and at most one positional argument.
The help pages and usage-error messages are frozen in tests/data/help and
tests/test_cli.py.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from types import SimpleNamespace
from typing import NamedTuple

from . import grammars, typecount
from . import series as series_mod
from . import systems as systems_mod
from .core import BudgenError, DivergenceError, dumps_type


class UsageError(BudgenError):
    """A malformed command line."""


class Opt(NamedTuple):
    """One `--name` option.  `type` is int, str, a tuple of choices, or
    bool for a flag, which takes no value.  A str option names its value
    by `metavar`; an int option's value shows as INTEGER."""
    type: object
    default: object = None
    help: str = ""
    metavar: str = ""
    show_default: bool = False


HELP = "Show this message and exit."

SYSTEM_OPTIONS = [
    ("--arities", Opt(str, None, "arity list of the btree preset, e.g. 2,3",
                      "LIST")),
    ("--gamma", Opt(int, None, "parameter of the bdias preset")),
    ("--builtin", Opt(str, None, "use a named preset system", "NAME")),
    ("--system", Opt(str, None, "load a system from a JSON file", "FILE")),
    ("--max-arity", Opt(int, 8, "truncate all results at this arity",
                        show_default=True)),
]
KIND = ("--kind", Opt(("hook", "synt", "sync"), "synt", show_default=True))


def _echo(text, err=False):
    """Write one line in one call, so that a reader that closes the pipe
    early (`| head -1`) does not cut it in two."""
    (sys.stderr if err else sys.stdout).write(text + "\n")


def _integer(text: str) -> int | None:
    """The value of an optional `-` and ASCII digits, else None: int()
    would also read "1_0", "+3", " 3" and non-ASCII digits."""
    digits = text[1:] if text[:1] == "-" else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def _parse_arities(text: str | None):
    if text is None:
        return None
    arities = [_integer(p) for p in text.split(",")]
    if None in arities:
        raise BudgenError("bad arity list %r" % text)
    return arities


def _load_system(args):
    if (args.system is None) == (args.builtin is None):
        raise BudgenError("give exactly one of --system and --builtin")
    if args.system is not None:
        for name in ("gamma", "arities"):
            if getattr(args, name) is not None:
                raise BudgenError("--%s applies to a --builtin preset only"
                                  % name)
        with open(args.system) as handle:
            return systems_mod.system_loads(handle.read())
    return systems_mod.builtin(args.builtin, gamma=args.gamma,
                               arities=_parse_arities(args.arities))


def cmd_enumerate(args):
    """Per-arity counts of the (synchronous) language, n = 1..N."""
    system = _load_system(args)
    if args.sync:
        counts, method = typecount.sync_counting_series(system, args.max_arity)
    else:
        counts, method = typecount.lang_counting_series(system, args.max_arity)
    _echo("counting method: %s" % method, err=True)
    if (method == "type-recurrence"
            and args.max_arity > typecount.PROBE_BOUND):
        _echo("warning: unambiguity checked up to arity %d only; above "
              "it the counts are derivation counts if the system is "
              "ambiguous" % typecount.PROBE_BOUND, err=True)
    sep = "," if args.format == "csv" else " "
    for n, a in enumerate(counts, start=1):
        _echo("%d%s%d" % (n, sep, a))


def cmd_series(args):
    """Dump a generating series as `coeff * element` lines."""
    system = _load_system(args)
    text = getattr(system, args.kind + "_series")(args.max_arity).dumps()
    if text:
        _echo(text)


def cmd_colt(args):
    """Series coefficients pushed to (output color, input color type)."""
    system = _load_system(args)
    f = getattr(system, args.kind + "_series")(args.max_arity)
    table = series_mod.colt_table(f)
    color_index = {c: i for i, c in enumerate(system.colors)}
    rows = sorted(table.items(),
                  key=lambda kv: (sum(kv[0][1]), color_index[kv[0][0]], kv[0][1]))
    if args.format == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["color", "type", "coefficient"])
        for (color, alpha), coeff in rows:
            writer.writerow([color, dumps_type(alpha), coeff])
        sys.stdout.write(out.getvalue())
    else:
        for (color, alpha), coeff in rows:
            _echo("%s (%s) %s" % (color, dumps_type(alpha), coeff))


def cmd_graph(args):
    """Derivation graph from the initial units, up to the arity bound."""
    system = _load_system(args)
    graph = system.derivation_graph(args.max_arity, synchronous=args.sync)
    if args.format == "dot":
        _echo(graph.to_dot())
    else:
        for x, y, mult in graph.serialized()[1]:
            _echo("%s -> %s [%d]" % (x, y, mult))


def cmd_check(args):
    """Verdict report: finitely factorizing, faithful, unambiguous.

    The faithfulness/unambiguity verdicts are certificates up to the
    arity bound only."""
    system = _load_system(args)
    ok, chain = system.ff_check()
    _echo("max_arity=%d" % args.max_arity)
    _echo("finitely_factorizing=%s" % str(ok).lower())
    if ok:
        _echo("longest_unary_chain=%d" % chain)
        checks = [("faithful", system.is_faithful),
                  ("unambiguous", system.is_unambiguous),
                  ("sync_faithful", system.is_sync_faithful),
                  ("sync_unambiguous", system.is_sync_unambiguous)]
        for label, check in checks:
            _echo("%s=%s" % (label, str(check(args.max_arity)).lower()))


def cmd_compile(args):
    """Compile a grammar file into a bud system, printed as JSON."""
    kind = args.kind
    if kind is None:
        ext = args.grammar_file.rsplit(".", 1)[-1].lower()
        if ext not in ("cfg", "rtg", "sg"):
            raise BudgenError("cannot infer the grammar class from %r; "
                              "pass --kind" % args.grammar_file)
        kind = ext
    with open(args.grammar_file) as handle:
        text = handle.read()
    if kind == "cfg":
        system = grammars.cfg_to_bud(grammars.parse_cfg(text))
    elif kind == "rtg":
        system = grammars.rtg_to_bud(grammars.parse_rtg(text))
    else:
        system = grammars.sg_to_bud(grammars.parse_sg(text), cap=args.cap)
    sys.stdout.write(systems_mod.system_dumps(system))


# name -> (function, option table, positional argument or None)
COMMANDS = {
    "enumerate": (cmd_enumerate, SYSTEM_OPTIONS + [
        ("--sync", Opt(bool, False, "count the synchronous language")),
        ("--format", Opt(("text", "csv"), "text"))], None),
    "series": (cmd_series, SYSTEM_OPTIONS + [KIND], None),
    "colt": (cmd_colt, SYSTEM_OPTIONS + [
        KIND, ("--format", Opt(("text", "csv"), "csv", show_default=True))],
        None),
    "graph": (cmd_graph, SYSTEM_OPTIONS + [
        ("--sync", Opt(bool, False, "synchronous derivations")),
        ("--format", Opt(("text", "dot"), "dot", show_default=True))], None),
    "check": (cmd_check, SYSTEM_OPTIONS, None),
    "compile": (cmd_compile, [
        ("--kind", Opt(("cfg", "rtg", "sg"), None,
                       "grammar class (default: from the file extension)")),
        ("--cap", Opt(int, None,
                      "arity cap of the compiled synchronous-grammar ground"))],
        "GRAMMAR_FILE"),
}
DESCRIPTION = "Bud generating systems: enumeration, series, and verdicts."


def _no_such(what, name, names):
    message = "No such %s %r." % (what, name)
    # imported here: only a mistyped name pays for difflib
    from difflib import get_close_matches
    near = sorted(get_close_matches(name, names))
    if len(near) == 1:
        message += " Did you mean %r?" % near[0]
    elif near:
        message += " (Did you mean one of: %s?)" % ", ".join(map(repr, near))
    return UsageError(message)


def _split(options, argv, interspersed=True):
    """Split `argv` into ({option: text}, positionals, --help given).

    Options keep the order of their first appearance; the last value
    wins.  `--opt value` and `--opt=value` are the same; a flag takes no
    value.  `--` ends the options, and so does the first positional when
    not `interspersed`."""
    table = {**dict(options), "--help": Opt(bool)}
    given, rest, argv = {}, [], list(argv)
    while argv:
        arg = argv.pop(0)
        if arg == "--":
            rest += argv
            break
        if arg[:1] != "-" or arg == "-":
            rest.append(arg)
            if not interspersed:
                rest += argv
                break
            continue
        if arg[:2] == "--":
            name, eq, value = arg.partition("=")
        else:
            name, eq, value = arg[:2], "", ""
        if name not in table:
            raise _no_such("option", name, list(table))
        if table[name].type is bool:
            if eq:
                raise UsageError("Option %r does not take a value." % name)
            value = True
        elif not eq:
            if not argv:
                raise UsageError("Option %r requires an argument." % name)
            value = argv.pop(0)
        given[name] = value
    return given, rest, given.pop("--help", False)


def _convert(name, opt, text):
    if opt.type is int:
        value = _integer(text)
        if value is not None:
            return value
        problem = "%r is not a valid integer." % text
    elif isinstance(opt.type, tuple) and text not in opt.type:
        problem = "%r is not one of %s." % (
            text, ", ".join(map(repr, opt.type)))
    else:
        return text
    raise UsageError("Invalid value for %r: %s" % (name, problem))


def _parse(options, positional, argv):
    """The namespace of one command's arguments, or None for --help."""
    given, rest, show_help = _split(options, argv)
    if show_help:
        return None
    table = dict(options)
    args = SimpleNamespace(**{name[2:].replace("-", "_"): opt.default
                              for name, opt in options})
    for name, text in given.items():
        value = _convert(name, table[name], text)
        if name == "--max-arity" and value < 1:
            raise BudgenError("--max-arity must be >= 1")
        setattr(args, name[2:].replace("-", "_"), value)
    if positional is not None:
        if not rest:
            raise UsageError("Missing argument %r." % positional)
        path = rest.pop(0)
        problem = ("does not exist" if not os.path.exists(path)
                   else "is a directory" if os.path.isdir(path) else None)
        if problem:
            raise UsageError("Invalid value for %r: File '%s' %s."
                             % (positional, path, problem))
        setattr(args, positional.lower(), path)
    if rest:
        raise UsageError("Got unexpected extra argument%s (%s)"
                         % ("s" if len(rest) > 1 else "", " ".join(rest)))
    return args


def _wrap(text):
    """Greedy word wrap of one paragraph, indented by two spaces, to the
    help pages' 78 columns."""
    lines = ["  "]
    for word in text.split():
        if lines[-1] == "  ":
            lines[-1] += word
        elif len(lines[-1]) + 1 + len(word) > 78:
            lines.append("  " + word)
        else:
            lines[-1] += " " + word
    return lines


def _table(rows):
    """Two aligned columns; a row with no text is its term alone."""
    width = max(len(term) for term, _ in rows) + 2
    return ["  " + (term.ljust(width) + text if text else term)
            for term, text in rows]


def _group_help(prog):
    # docstrings are absent under `python -OO`
    rows = [(name, (COMMANDS[name][0].__doc__ or "").split("\n")[0])
            for name in sorted(COMMANDS)]
    return "\n".join(
        ["Usage: %s [OPTIONS] COMMAND [ARGS]..." % prog, "",
         "  " + DESCRIPTION, "", "Options:"] + _table([("--help", HELP)])
        + ["", "Commands:"] + _table(rows))


def _command_help(prog, name):
    func, options, positional = COMMANDS[name]
    lines = ["Usage: %s %s [OPTIONS]%s"
             % (prog, name, " " + positional if positional else "")]
    for paragraph in filter(None, (func.__doc__ or "").split("\n\n")):
        lines += [""] + _wrap(paragraph)
    rows = []
    for option, opt in options:
        if opt.type is bool:
            term = option
        elif isinstance(opt.type, tuple):
            term = "%s [%s]" % (option, "|".join(opt.type))
        else:
            term = "%s %s" % (option, opt.metavar or "INTEGER")
        shown = "[default: %s]" % opt.default if opt.show_default else ""
        rows.append((term, " ".join(filter(None, [opt.help, shown]))))
    return "\n".join(lines + ["", "Options:"]
                     + _table(rows + [("--help", HELP)]))


def _run(prog, argv):
    _, rest, show_help = _split([], argv, interspersed=False)
    if show_help:
        _echo(_group_help(prog))
        return
    if not rest:
        # the usage, marked as an error, on stderr
        raise UsageError(_group_help(prog))
    name, argv = rest[0], rest[1:]
    if name not in COMMANDS:
        raise _no_such("command", name, list(COMMANDS))
    func, options, positional = COMMANDS[name]
    args = _parse(options, positional, argv)
    if args is None:
        _echo(_command_help(prog, name))
        return
    try:
        func(args)
        return
    except MemoryError:
        pass  # raise below, once the frames that held the memory are gone
    # str(MemoryError()) is empty: name the bound that was asked for
    bound = getattr(args, "max_arity", None)
    raise BudgenError("out of memory" if bound is None
                      else "out of memory at arity bound %d" % bound)


def main(argv=None):
    """Run one command; `argv` defaults to the process's arguments."""
    # the usage line names `python -m budgen.cli` when run as a module
    # (also through runpy), and the console script otherwise
    prog = "python -m budgen.cli" if __name__ == "__main__" else "budgen"
    try:
        _run(prog, sys.argv[1:] if argv is None else argv)
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): stop quietly, and
        # keep the flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except DivergenceError as exc:
        _echo("error: %s" % exc, err=True)
        sys.exit(2)
    except (BudgenError, OSError, json.JSONDecodeError, RecursionError) as exc:
        _echo("error: %s" % exc, err=True)
        sys.exit(1)
    except KeyboardInterrupt:
        _echo("", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
