import hashlib
import json
import pathlib
import subprocess
import sys
from typing import NamedTuple

import pytest

from budgen import systems
from budgen.cli import main
from budgen.systems import system_loads

DATA = pathlib.Path(__file__).parent / "data"


class Result(NamedTuple):
    exit_code: int
    output: str
    stderr: str


@pytest.fixture
def invoke(capsys):
    """Run `main(args)` in this process; its exit code and output."""
    def run(args):
        capsys.readouterr()
        try:
            main(args)
            code = 0
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return Result(code, out, err)
    return run


@pytest.fixture
def run_ok(invoke):
    def run(args):
        result = invoke(args)
        assert result.exit_code == 0, result.stderr
        return result
    return run


def run_main(args, input_text=None):
    """Run the installed entry point to observe real exit codes."""
    return subprocess.run([sys.executable, "-m", "budgen.cli"] + args,
                          capture_output=True, text=True, input=input_text)


def test_enumerate_motzkin_like():
    proc = run_main(["enumerate", "--builtin", "motz-nohh",
                     "--max-arity", "9"])
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "1 1"
    assert lines[-1] == "9 129"
    assert "counting method:" in proc.stderr


def test_enumerate_csv_and_sync():
    proc = run_main(["enumerate", "--builtin", "bbt", "--max-arity", "6",
                     "--sync", "--format", "csv"])
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines() == [
        "1,1", "2,1", "3,2", "4,1", "5,4", "6,6"]


def test_series_hook_shows_multiplicity(run_ok):
    result = run_ok(["series", "--builtin", "bdias", "--gamma", "1",
                     "--kind", "hook", "--max-arity", "4"])
    assert "2 * 101" in result.output


def test_series_requires_exactly_one_source(invoke):
    result = invoke(["series"])
    assert result.exit_code != 0


def test_check_reports_ambiguity(run_ok):
    result = run_ok(["check", "--builtin", "bdias", "--gamma", "1",
                     "--max-arity", "3"])
    assert "finitely_factorizing=true" in result.output
    assert "unambiguous=false" in result.output
    assert "faithful=true" in result.output


def test_graph_dot_output(run_ok):
    result = run_ok(["graph", "--builtin", "bp", "--max-arity", "4",
                     "--format", "dot"])
    assert result.output.startswith("digraph")
    assert '"1::1" -> "1:H:2,2";' in result.output
    assert '"1:H:2,2" ->' not in result.output


# stdout held byte for byte under tests/data/stdout: the order of
# `Series.dumps` and of the DOT text, and Dias grafting
FROZEN_STDOUT = {
    "series-bdias2-%s.txt" % kind: ["series", "--builtin", "bdias", "--gamma",
                                    "2", "--max-arity", "5", "--kind", kind]
    for kind in ("hook", "synt", "sync")}
FROZEN_STDOUT["graph-bbt-sync.dot"] = ["graph", "--builtin", "bbt", "--sync",
                                       "--max-arity", "5", "--format", "dot"]


@pytest.mark.parametrize("name", sorted(FROZEN_STDOUT))
def test_stdout_is_frozen(run_ok, name):
    expected = (DATA / "stdout" / name).read_text()
    assert run_ok(FROZEN_STDOUT[name]).output == expected


# sha256 of stdout at the default bound 8, above the benchmark's bounds:
# the element texts of the free and Schroeder grounds, their order and
# every coefficient
FROZEN_DIGESTS = {
    "series-b2-hook": (
        ["series", "--builtin", "b2", "--kind", "hook"],
        "be84fa6738cb6ecf034c4477f8e1eaf83e08e7a82674b88f5be01b863c5e612d"),
    "series-bs-synt": (
        ["series", "--builtin", "bs"],
        "7cba1f69b0fc4b739e1821cd5999e539c98755bd3a1c8026dd7c5ba86f706559"),
    # bs and b3 have wide rules of a non-initial output color, whose
    # roots the last slice of their hook run does not build
    "series-bs-hook": (
        ["series", "--builtin", "bs", "--kind", "hook"],
        "4f029a2565f036fe216c015fb28ddf9629125703a6f5d7009540b150b29eed90"),
    "series-b3-hook": (
        ["series", "--builtin", "b3", "--kind", "hook"],
        "762bfd38befe08a90dde966db2b593c63fbe0144f44d9b92c72c759e2426b923"),
    # a ground per splice: Dias raises letters (1,793 lines), Motz splices
    # steps between steps, and bbt's sync star runs on magmatic trees
    "series-bdias2-hook": (
        ["series", "--builtin", "bdias", "--gamma", "2", "--kind", "hook"],
        "0bf49edb7096ed96decfded62b77ec3b68d1aa3f035d3c5395f1625aa00cd06e"),
    "series-hook-motz-hook": (
        ["series", "--builtin", "hook-motz", "--kind", "hook"],
        "1f66391a237e497479c0adb4648c8f09e5caa03da5d126ddea1ffb62cd507908"),
    "series-bbt-sync": (
        ["series", "--builtin", "bbt", "--kind", "sync"],
        "aa11b96b2da4e7ee176e4647729daa348c7db393068a2c4a0c1f7eff15eb34f6"),
}


@pytest.mark.parametrize("name", sorted(FROZEN_DIGESTS))
def test_stdout_digest_is_frozen(run_ok, name):
    args, digest = FROZEN_DIGESTS[name]
    output = run_ok(args).output
    assert hashlib.sha256(output.encode()).hexdigest() == digest


def test_graph_text_output(run_ok):
    result = run_ok(["graph", "--builtin", "bdias", "--gamma", "1",
                     "--max-arity", "2", "--format", "text"])
    assert result.output.splitlines() == ["0 -> 01 [1]", "0 -> 10 [1]"]
    result = run_ok(["graph", "--builtin", "bdias", "--gamma", "1",
                     "--max-arity", "3", "--format", "text"])
    assert result.output.splitlines() == [
        "0 -> 01 [1]", "0 -> 10 [1]", "01 -> 011 [3]", "01 -> 101 [1]",
        "10 -> 101 [1]", "10 -> 110 [3]"]
    # edges sort by the source key first, then by the target key
    result = run_ok(["graph", "--builtin", "bbt", "--max-arity", "3",
                     "--sync", "--format", "text"])
    assert result.output.splitlines()[3:] == [
        "1:c(*,*):1,2 -> 1:c(c(*,*),*):1,1,1 [1]",
        "1:c(*,*):1,2 -> 1:c(c(*,*),*):1,2,1 [1]",
        "1:c(*,*):1,2 -> 1:c(c(*,*),*):2,1,1 [1]",
        "1:c(*,*):2,1 -> 1:c(*,c(*,*)):1,1,1 [1]",
        "1:c(*,*):2,1 -> 1:c(*,c(*,*)):1,1,2 [1]",
        "1:c(*,*):2,1 -> 1:c(*,c(*,*)):1,2,1 [1]"]


def test_colt_csv_header_and_rows(run_ok):
    result = run_ok(["colt", "--builtin", "bbt", "--kind", "sync",
                     "--max-arity", "4"])
    lines = result.output.strip().splitlines()
    assert lines[0] == "color,type,coefficient"
    assert all(line.count(",") >= 2 for line in lines[1:])


def test_compile_round_trip(tmp_path, run_ok):
    for name in ["dyck.cfg", "bintree.rtg", "balanced.sg"]:
        result = run_ok(["compile", str(DATA / name)])
        system = system_loads(result.output)
        assert system.rules
        json.loads(result.output)  # well-formed JSON


def test_compile_kind_override(tmp_path, run_ok, invoke):
    path = tmp_path / "grammar.txt"
    path.write_text((DATA / "anbn.cfg").read_text())
    result = run_ok(["compile", str(path), "--kind", "cfg"])
    assert '"kind": "as"' in result.output
    bad = invoke(["compile", str(path)])
    assert bad.exit_code != 0


def test_exit_code_bad_input():
    proc = run_main(["enumerate", "--builtin", "nosuch"])
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    proc = run_main(["series"])
    assert proc.returncode == 1


@pytest.mark.parametrize("command,bound", [
    ("check", "-3"), ("graph", "0"), ("enumerate", "0"), ("series", "0"),
    ("colt", "-1")])
def test_arity_bound_below_1_is_an_input_error(command, bound):
    # rejected before any output, by every command that takes the bound
    proc = run_main([command, "--builtin", "bbt", "--max-arity", bound])
    assert proc.returncode == 1
    assert proc.stderr == "error: --max-arity must be >= 1\n"
    assert proc.stdout == ""


def test_exit_code_divergence(tmp_path):
    cyclic = {
        "name": "cyclic",
        "ground": {"kind": "mag"},
        "colors": ["1", "2"],
        "rules": [{"out": "1", "elem": "*", "ins": ["2"]},
                  {"out": "2", "elem": "*", "ins": ["1"]}],
        "initial": ["1"],
        "terminal": ["1"],
    }
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(cyclic))
    proc = run_main(["series", "--system", str(path), "--max-arity", "3"])
    assert proc.returncode == 2
    proc = run_main(["check", "--system", str(path)])
    assert proc.returncode == 0
    assert "finitely_factorizing=false" in proc.stdout


@pytest.mark.parametrize("sync", [[], ["--sync"]], ids=["plain", "sync"])
def test_graph_on_a_color_cycle_exits_2(sync):
    # the arity-1 rule a1 makes the derivation closure infinite
    proc = subprocess.run(
        [sys.executable, "-m", "budgen.cli", "graph", "--builtin", "btree",
         "--arities", "1,2", "--max-arity", "3"] + sync,
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: derivation graph diverges")
    assert proc.stdout == ""


def test_graph_above_the_vertex_budget_is_an_input_error(invoke,
                                                         monkeypatch):
    # bbu's graph grows about 16x per arity: at the default bound it would
    # need hundreds of millions of vertices
    monkeypatch.setattr(systems, "GRAPH_VERTEX_BUDGET", 1000)
    result = invoke(["graph", "--builtin", "bbu"])
    assert result.exit_code == 1
    assert result.stderr == ("error: derivation graph exceeds 1000 vertices "
                             "at arity bound 8\n")
    assert result.output == ""


def test_out_of_memory_is_an_input_error(invoke, monkeypatch):
    # str(MemoryError()) is empty, so the message names the bound instead
    def exhaust(self, bound):
        raise MemoryError()

    monkeypatch.setattr(systems.BudSystem, "hook_series", exhaust)
    result = invoke(["series", "--builtin", "bbu", "--kind", "hook",
                     "--max-arity", "12"])
    assert result.exit_code == 1
    assert result.stderr == "error: out of memory at arity bound 12\n"
    assert result.output == ""


RELABEL = """start: 1
terminal: 2
1 -> n2(1,2)
1 -> 2
2 -> n1(2)
"""


@pytest.mark.parametrize("kind", ["hook", "synt", "sync"])
def test_series_on_a_color_cycle_exits_2(tmp_path, kind, run_ok):
    # the arity-1 rule 2 -> n1(2) is a color cycle
    grammar = tmp_path / "relabel.sg"
    grammar.write_text(RELABEL)
    system = tmp_path / "relabel.json"
    system.write_text(run_ok(["compile", str(grammar)]).output)
    proc = run_main(["series", "--system", str(system), "--kind", kind,
                     "--max-arity", "4"])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "diverges" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", [
    ["enumerate"], ["series", "--kind", "synt"], ["colt"]],
    ids=["enumerate", "synt", "colt"])
def test_rule_equal_to_a_unit_exits_2(tmp_path, command, invoke, run_ok):
    # S -> S compiles to the unit of S: a color self-loop, not a missing
    # unit coefficient of u - r
    grammar = tmp_path / "loop.cfg"
    grammar.write_text("S -> S\nS -> a\n")
    system = tmp_path / "loop.json"
    system.write_text(run_ok(["compile", str(grammar)]).output)
    result = invoke(command + ["--system", str(system), "--max-arity", "3"])
    assert result.exit_code == 2
    assert result.stderr == ("error: composition inverse diverges: arity-1 "
                             "support admits a color cycle\n")
    assert result.output == ""


@pytest.fixture
def unit_chain(tmp_path, run_ok):
    """A system file of 1,500 chained variables, A1 -> A2, .., A1500 -> a."""
    grammar = tmp_path / "chain.cfg"
    grammar.write_text("".join("A%d -> A%d\n" % (i, i + 1)
                               for i in range(1, 1500)) + "A1500 -> a\n")
    system = tmp_path / "chain.json"
    system.write_text(run_ok(["compile", str(grammar)]).output)
    return system


def test_graph_of_a_long_unit_chain(unit_chain):
    # the cycle check and the path walk keep their own stacks, so
    # nothing recurses once per variable
    proc = run_main(["graph", "--system", str(unit_chain), "--max-arity", "1",
                     "--format", "text"])
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 1500
    assert proc.stderr == ""


@pytest.mark.parametrize("kind", ["synt", "hook"])
def test_series_of_a_long_unit_chain(unit_chain, kind):
    # an increment round composes only the arity-1 rules whose input
    # color gained terms in the round before: one rule per round here
    proc = run_main(["series", "--system", str(unit_chain), "--kind", kind,
                     "--max-arity", "1"])
    assert proc.returncode == 0
    assert proc.stdout == "1 * A1:1:a\n"
    assert proc.stderr == ""


CHAIN_CHECK = """max_arity=1
finitely_factorizing=true
longest_unary_chain=1500
faithful=true
unambiguous=true
sync_faithful=true
sync_unambiguous=true
"""
CHAIN_COLT = 'color,type,coefficient\nA1,"%s",1\n' % ",".join(["0"] * 1500
                                                            + ["1"])
COUNTED = "counting method: type-recurrence\n"


@pytest.mark.parametrize("args,stdout,stderr", [
    (["series", "--kind", "sync"], "1 * A1:1:a\n", ""),
    (["check"], CHAIN_CHECK, ""),
    (["colt", "--kind", "sync"], CHAIN_COLT, ""),
    (["enumerate"], "1 1\n", COUNTED),
    (["enumerate", "--sync"], "1 1\n", COUNTED),
], ids=["series-sync", "check", "colt-sync", "enumerate", "enumerate-sync"])
def test_sync_series_and_counts_of_a_long_unit_chain(unit_chain, args, stdout,
                                                     stderr):
    # a height level of the composition star composes only the rules out
    # of the colors it holds, and the type recurrences follow only the
    # arity-1 rules out of the colors a layer or an increment holds, so
    # no level walks all 1,500 rules
    proc = run_main(args[:1] + ["--system", str(unit_chain), "--max-arity",
                                "1"] + args[1:])
    assert proc.returncode == 0
    assert proc.stdout == stdout
    assert proc.stderr == stderr


TWO_PARSES = """S -> A B
S -> C D
A -> a a a
B -> a a a
C -> a a
D -> a a a a
"""
PROBE_WARNING = ("warning: unambiguity checked up to arity 5 only; above "
                 "it the counts are derivation counts if the system is "
                 "ambiguous")


def test_enumerate_the_five_letter_grammar(tmp_path, run_ok):
    # the words of length n are {a, b, c, e}^(n-1) d
    grammar = tmp_path / "five.cfg"
    grammar.write_text("S -> a S\nS -> b S\nS -> c S\nS -> e S\nS -> d\n")
    system = tmp_path / "five.json"
    system.write_text(run_ok(["compile", str(grammar)]).output)
    proc = run_main(["enumerate", "--system", str(system),
                     "--max-arity", "40"])
    assert proc.returncode == 0
    assert proc.stdout == "".join("%d %d\n" % (n, 4 ** (n - 1))
                                  for n in range(1, 41))
    assert proc.stderr.splitlines() == ["counting method: type-recurrence",
                                        PROBE_WARNING]


@pytest.mark.parametrize("bound,warned", [(5, False), (7, True)])
def test_enumerate_warns_above_the_probe_bound(tmp_path, bound, warned,
                                               run_ok):
    grammar = tmp_path / "twoparse.cfg"
    grammar.write_text(TWO_PARSES)
    system = tmp_path / "twoparse.json"
    system.write_text(run_ok(["compile", str(grammar)]).output)
    proc = run_main(["enumerate", "--system", str(system),
                     "--max-arity", str(bound)])
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert lines[0] == "counting method: type-recurrence"
    assert (PROBE_WARNING in lines) == warned
    assert len(lines) == (2 if warned else 1)


def test_series_drops_rules_above_the_bound(run_ok):
    result = run_ok(["series", "--builtin", "btree", "--arities", "2,3,4",
                     "--max-arity", "3", "--kind", "sync"])
    assert result.output.splitlines() == [
        "1 * !1", "1 * a2(*,*)", "1 * a3(*,*,*)"]


@pytest.mark.parametrize("field,value", [("rules", None), ("colors", 3)],
                         ids=["missing-rules", "int-colors"])
def test_malformed_system_file_is_an_input_error(tmp_path, field, value):
    data = {"ground": {"kind": "mag", "params": {}}, "colors": ["1"],
            "rules": [{"out": "1", "elem": "c(*,*)", "ins": ["1", "1"]}],
            "initial": ["1"], "terminal": ["1"]}
    if value is None:
        del data[field]
    else:
        data[field] = value
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    proc = run_main(["enumerate", "--system", str(path), "--max-arity", "3"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: malformed system file: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", [2.5, True, "2"],
                         ids=["float", "bool", "string"])
@pytest.mark.parametrize("field", ["gamma", "arity"])
def test_a_ground_parameter_must_be_a_json_integer(tmp_path, invoke, field,
                                                   value):
    # int() would read 2.5 as 2, true as 1 and "2" as 2
    if field == "gamma":
        ground = {"kind": "dias", "params": {"gamma": value}}
        elem = "01"
    else:
        ground = {"kind": "free",
                  "params": {"generators": [{"name": "g", "arity": value}]}}
        elem = "g(*,*)"
    data = {"ground": ground, "colors": ["1"],
            "rules": [{"out": "1", "elem": elem, "ins": ["1", "1"]}],
            "initial": ["1"], "terminal": ["1"]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    result = invoke(["enumerate", "--system", str(path), "--max-arity", "3"])
    assert result.exit_code == 1
    assert result.stderr == ("error: malformed system file: %s must be an "
                             "integer\n" % field)


@pytest.mark.parametrize("elem", ["2", 2.7, " 2", "+2", "2_0", True, 2, "02"],
                         ids=["canonical", "float", "space", "plus",
                              "underscore", "bool", "number", "leading-zero"])
def test_an_associative_element_is_canonical_decimal_text(tmp_path, invoke,
                                                          elem):
    # int() would read 2.7 as 2, " 2" and "+2" as 2, "2_0" as 20, true as 1
    data = {"ground": {"kind": "as", "params": {}}, "colors": ["S"],
            "rules": [{"out": "S", "elem": elem, "ins": ["S", "S"]}],
            "initial": ["S"], "terminal": ["S"]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    result = invoke(["enumerate", "--system", str(path), "--max-arity", "3"])
    if elem == "2":
        assert (result.exit_code, result.output) == (0, "1 1\n2 1\n3 1\n")
    else:
        assert result.exit_code == 1
        assert result.stderr == ("error: arity must be a decimal integer: "
                                 "%r\n" % (elem,))


def test_unit_below_the_root_is_an_input_error(tmp_path, invoke):
    # in the free operad g(!1,*) is g(*,*), so the term is refused on load
    gens = [{"name": "g", "arity": 2}]
    data = {"ground": {"kind": "free", "params": {"generators": gens}},
            "colors": ["1"],
            "rules": [{"out": "1", "elem": "g(!1,*)", "ins": ["1", "1"]}],
            "initial": ["1"], "terminal": ["1"]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    result = invoke(["series", "--system", str(path), "--max-arity", "3"])
    assert result.exit_code == 1
    assert result.stderr == "error: unit !1 below the root of g(!1,*)\n"
    assert result.output == ""


def test_reader_closing_the_pipe_early_ends_quietly():
    # 880 kB of edges: far more than a pipe holds, so the writer meets
    # the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "budgen.cli", "graph", "--builtin", "bbu",
         "--max-arity", "4", "--format", "text"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "1:!1:1 -> 1:a(*):2 [1]\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == ""


def test_entry_point_enumerate_matches_runner():
    proc = run_main(["enumerate", "--builtin", "aschr-catalan",
                     "--max-arity", "6"])
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines() == [
        "1 1", "2 1", "3 2", "4 5", "5 14", "6 42"]


def test_deeply_nested_term_is_an_input_error(tmp_path):
    elem = "*"
    for _ in range(3000):
        elem = "c(%s,*)" % elem
    data = {"ground": {"kind": "mag", "params": {}}, "colors": ["1"],
            "rules": [{"out": "1", "elem": elem, "ins": ["1"] * 3001}],
            "initial": ["1"], "terminal": ["1"]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data))
    proc = run_main(["enumerate", "--system", str(path), "--max-arity", "3"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: term nested deeper than ")
    assert "Traceback" not in proc.stderr


def test_series_nested_deeper_than_its_rules_prints(tmp_path):
    # the rule is within the nesting limit, its compositions are not, and
    # the printer walks them without recursion
    elem = "b(*,*)"
    for _ in range(99):
        elem = "u(%s)" % elem
    gens = [{"name": "u", "arity": 1}, {"name": "b", "arity": 2}]
    data = {"ground": {"kind": "free", "params": {"generators": gens}},
            "colors": ["1"],
            "rules": [{"out": "1", "elem": elem, "ins": ["1", "1"]}],
            "initial": ["1"], "terminal": ["1"]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data))
    proc = run_main(["series", "--system", str(path), "--max-arity", "8"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == 626


def test_cli_import_does_not_load_sympy():
    # budgen.cli, and the typecount functions that return polynomials,
    # load no third-party package (sympy included): every module they
    # add to those of a bare interpreter is in the standard library or in
    # budgen.  The tracer wraps the seven budgen modules right after
    # `import budgen.cli`, so all of them must be loaded.
    calls = ("import budgen; s = budgen.builtin('bbt'); budgen.g_poly(s); "
             "budgen.solve_synt_system(s, 4); budgen.solve_sync_system(s, 4); "
             "budgen.sync_iterates(s, 2, 4); budgen.refined_perfect(5); "
             "budgen.lang_counting_series(budgen.builtin('bs'), 6)")
    loaded = {}
    for statement in ["import budgen.cli", calls]:
        code = ("import json, sys; before = set(sys.modules); %s; "
                "print(json.dumps(sorted(set(sys.modules) - before)))"
                % statement)
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        loaded[statement] = set(json.loads(proc.stdout))
        assert "sympy" not in loaded[statement]
        foreign = ({m.split(".")[0] for m in loaded[statement]} - {"budgen"}
                   - set(sys.stdlib_module_names))
        assert not foreign, statement
    assert {"budgen." + m for m in ["core", "operads", "series", "systems",
                                    "typecount", "grammars", "cli"]
            } <= loaded["import budgen.cli"]


HELP_PAGES = ["main", "enumerate", "series", "colt", "graph", "check",
              "compile"]


@pytest.mark.parametrize("page", HELP_PAGES)
def test_help_pages_are_frozen(page):
    # tests/data/help holds the pages byte for byte
    args = ["--help"] if page == "main" else [page, "--help"]
    proc = run_main(args)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == (DATA / "help" / (page + ".txt")).read_text()


@pytest.mark.parametrize("args,message", [
    ([], "error: Usage: budgen [OPTIONS] COMMAND [ARGS]...\n"),
    (["nosuch"], "error: No such command 'nosuch'.\n"),
    (["seris"], "error: No such command 'seris'. Did you mean 'series'?\n"),
    (["series", "--nosuch"], "error: No such option '--nosuch'.\n"),
    (["series", "--builtin", "bs", "--max-arity"],
     "error: Option '--max-arity' requires an argument.\n"),
    (["series", "--builtin", "bs", "--max-arity", "x"],
     "error: Invalid value for '--max-arity': 'x' is not a valid integer.\n"),
    (["enumerate", "--builtin", "bs", "--format", "foo"],
     "error: Invalid value for '--format': 'foo' is not one of 'text', "
     "'csv'.\n"),
    (["enumerate", "--builtin", "bs", "--sync=1"],
     "error: Option '--sync' does not take a value.\n"),
    (["compile"], "error: Missing argument 'GRAMMAR_FILE'.\n"),
    (["compile", str(DATA / "nosuch.cfg")],
     "error: Invalid value for 'GRAMMAR_FILE': File '%s' does not exist.\n"
     % (DATA / "nosuch.cfg")),
    (["compile", str(DATA)],
     "error: Invalid value for 'GRAMMAR_FILE': File '%s' is a directory.\n"
     % DATA),
    (["compile", str(DATA / "dyck.cfg"), str(DATA / "anbn.cfg")],
     "error: Got unexpected extra argument (%s)\n" % (DATA / "anbn.cfg")),
    (["series", "--builtin", "bdias", "--gamma", "10"],
     "error: gamma must be <= 9\n"),
], ids=["no-args", "unknown-command", "near-command", "unknown-option",
        "missing-value", "bad-integer", "bad-choice", "flag-with-value",
        "compile-no-file", "compile-missing-file", "compile-directory",
        "compile-two-files", "gamma-above-9"])
def test_usage_errors_exit_1(invoke, args, message):
    result = invoke(args)
    assert result.exit_code == 1
    assert result.stderr.startswith(message)
    assert result.output == ""
    assert "Traceback" not in result.stderr


def test_option_value_may_follow_an_equals_sign(run_ok):
    spaced = run_ok(["series", "--builtin", "bs", "--max-arity", "3"])
    joined = run_ok(["series", "--builtin=bs", "--max-arity=3"])
    assert joined.output == spaced.output
    assert spaced.output.count("\n") == 4
    # options may come in any order
    reordered = run_ok(["series", "--max-arity", "3", "--builtin", "bs"])
    assert reordered.output == spaced.output


@pytest.mark.parametrize("option,value", [
    ("--max-arity", "1_0"), ("--max-arity", "+3"), ("--max-arity", " 3"),
    ("--max-arity", "3 "), ("--max-arity", "--3"), ("--max-arity", "-"),
    ("--max-arity", ""), ("--gamma", "\u0661"), ("--gamma", "2.0"),
    ("--arities", "2_0"), ("--arities", ",2,,3,"), ("--arities", "2, 3"),
    ("--arities", "2 3"), ("--arities", "+2"), ("--arities", ""),
    ("--arities", "\u0662")])
def test_integers_are_an_optional_minus_and_ascii_digits(invoke, option,
                                                         value):
    # int() would read 1_0 as 10, and +3, " 3" and an Arabic-Indic digit
    preset = {"--gamma": "bdias", "--arities": "btree"}.get(option, "bs")
    args = ["series", "--builtin", preset, option, value]
    if option != "--max-arity":
        args += ["--max-arity", "3"]
    result = invoke(args)
    assert result.exit_code == 1
    assert result.output == ""
    assert result.stderr == (
        "error: bad arity list %r\n" % value if option == "--arities" else
        "error: Invalid value for %r: %r is not a valid integer.\n"
        % (option, value))


@pytest.mark.parametrize("args,message", [
    (["--builtin", "bs", "--gamma", "3"],
     "error: --gamma applies to the bdias preset only\n"),
    (["--builtin", "bdias", "--gamma", "1", "--arities", "2"],
     "error: --arities applies to the btree preset only\n"),
    (["--system", str(DATA / "nosuch.json"), "--gamma", "1"],
     "error: --gamma applies to a --builtin preset only\n"),
    (["--system", str(DATA / "nosuch.json"), "--arities", "2,3"],
     "error: --arities applies to a --builtin preset only\n"),
], ids=["gamma-bs", "arities-bdias", "gamma-system", "arities-system"])
def test_unread_preset_parameters_are_input_errors(invoke, args, message):
    result = invoke(["series", "--max-arity", "3"] + args)
    assert result.exit_code == 1
    assert result.stderr == message
    assert result.output == ""
