import contextlib
import dataclasses
import io
import json
import math
import os
import random
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from doublemarkov import ci, cli, graphs, matrices
from doublemarkov.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
STAR_PATH = os.path.join(DATA, "star_path.pair")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


COUNTEREXAMPLE_PAIR = ("n 6\nG 1-2 1-3 2-3 4-5 4-6 5-6 1-6 2-4 2-5 2-6 3-5\n"
                       "H 1-2 1-3 2-3 4-5 4-6 5-6 1-4 1-5 3-4 3-6\n")


def counterexample_text():
    x14 = np.sqrt(981.0 / 1210.0)
    rows = [
        [10, 1, 1, x14, 11 * x14, 0],
        [1, 10, 1, 0, 0, 0],
        [1, 1, 10, -x14, 0, -11 * x14],
        [x14, 0, -x14, 10, 1, 1],
        [11 * x14, 0, 0, 1, 10, 1],
        [0, 0, -11 * x14, 1, 1, 10],
    ]
    return "6\n" + "\n".join(" ".join(repr(float(v)) for v in row) for row in rows) + "\n"


def test_analyze_star_path(tmp_path, capsys):
    out = str(tmp_path / "rep.json")
    assert main(["analyze", STAR_PATH, "--json", out]) == 0
    text = capsys.readouterr().out
    assert "blocks: {1 2} {3} {4}" in text
    assert "model <= 5, correlation <= 1" in text
    assert "s_13" in text and "s_34" in text
    rep = json.loads(Path(out).read_text())
    assert rep["dimension_bound"] == {"model": 5, "correlation": 1}
    assert rep["decomposition"]["blocks"] == [[1, 2], [3], [4]]
    assert rep["ideal"]["generators"] == ["s_13", "s_14", "s_23", "s_24", "s_34"]
    assert rep["transverse_at_identity"] is False


def test_analyze_golden_report():
    from doublemarkov import graphs
    g, h = graphs.parse_pair_file(Path(STAR_PATH).read_text())
    rep = cli.build_report(g, h)
    golden = Path(DATA, "star_path_report.json").read_text()
    assert rep.to_json() == golden


def _report_facts(g, h):
    """The parts of the report that the symmetries of the model keep, in two groups:
    (kept under relabelling only, kept under the G/H swap as well)."""
    rep = cli.build_report(g, h)
    gens = rep.ideal.get("generators")
    case = rep.classification and rep.classification["case"]
    return ((rep.connectedness_certificate["kind"], gens and len(gens), case),
            (rep.ci["relation_size"], rep.ci["gaussoid"], len(rep.ci["violations"]),
             rep.dimension_bound))


@pytest.mark.parametrize("n", [4, 5])
def test_report_is_equivariant_under_relabelling_and_swap(n):
    rng = random.Random(61 + n)
    for _ in range(100):
        g, h = (graphs.graph_from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2))
                for _ in range(2))
        perm = rng.sample(range(1, n + 1), n)
        moved = [graphs.Graph.from_edges(n, [(perm[i - 1], perm[j - 1]) for i, j in x.edges])
                 for x in (g, h)]
        facts = _report_facts(g, h)
        assert _report_facts(*moved) == facts
        assert _report_facts(h, g)[1] == facts[1]


def test_analyze_complete_pair(tmp_path, capsys):
    pair = write(tmp_path, "k4.pair", "n 4\nG " + " ".join(
        f"{i}-{j}" for i in range(1, 5) for j in range(i + 1, 5)) + "\nH " + " ".join(
        f"{i}-{j}" for i in range(1, 5) for j in range(i + 1, 5)) + "\n")
    assert main(["analyze", pair]) == 0
    text = capsys.readouterr().out
    assert "transverse at identity: True" in text
    assert "model <= 10, correlation <= 6" in text


def test_analyze_without_unique_paths_reports_no_ideal(tmp_path, capsys):
    # each non-edge of the 4-cycle G is joined by both halves of the 4-cycle H
    pair = write(tmp_path, "c4.pair", "n 4\nG 1-2 2-3 3-4 1-4\nH 1-2 2-3 3-4 1-4\n")
    out = str(tmp_path / "rep.json")
    assert main(["analyze", pair, "--json", out]) == 0
    text = capsys.readouterr().out
    assert "  unique-path hypothesis fails; no monomial ideal reported\n" in text
    assert "connectedness certificate: Unknown\n" in text
    assert json.loads(Path(out).read_text())["ideal"] == {"unique_path": False}


def test_analyze_prints_each_violation_once_in_the_library_text(tmp_path, capsys):
    text = "n 4\nG 1-3 2-3\nH 1-3 2-3\n"
    assert main(["analyze", write(tmp_path, "ns.pair", text)]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines() if "violated" in line]
    assert printed == [
        "    violated weak-transitivity: (1 2 |) & (1 2 | 3) without (1 3 |) | (2 3 |)",
        "    violated weak-transitivity: (1 2 | 4) & (1 2 | 3 4) without (1 3 | 4) | (2 3 | 4)"]
    violations = ci.check_axioms(ci.double_markov_relation(*graphs.parse_pair_file(text)))
    assert [f"[{line.split()[1][:-1]}] {line.split(': ', 1)[1]}" for line in printed] == [
        repr(v) for v in violations]


def test_analyze_says_how_many_violations_it_does_not_print(tmp_path, capsys):
    for text, total in (("n 5\nG 1-2 1-3 1-4 1-5\nH 1-2 2-3 3-4 4-5\n", 35),
                        ("n 5\nG 1-2 2-3\nH 1-3\n", 16), ("n 4\nG 1-2 2-3\nH 1-3\n", 8)):
        out = str(tmp_path / "rep.json")
        assert main(["analyze", write(tmp_path, "p.pair", text), "--json", out]) == 0
        printed = capsys.readouterr().out
        assert len(json.loads(Path(out).read_text())["ci"]["violations"]) == total
        assert printed.count("    violated ") == min(total, 10)
        assert printed.count(" more\n") == (total > 10)
        assert (f"    ... {total - 10} more\n" in printed) == (total > 10)


def test_analyze_point_reproducible(tmp_path):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert main(["analyze", STAR_PATH, "--point", "--seed", "11", "--json", out1]) == 0
    assert main(["analyze", STAR_PATH, "--point", "--seed", "11", "--json", out2]) == 0
    assert Path(out1).read_bytes() == Path(out2).read_bytes()
    rep = json.loads(Path(out1).read_text())
    assert rep["model_point"]["converged"] is True
    assert rep["model_point"]["residual"] <= 1e-10


def test_analyze_point_is_identical_across_processes(tmp_path):
    # separate interpreters with different hash seeds must write the same bytes
    import subprocess
    import sys

    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    outs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"point{hash_seed}.json"
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        subprocess.run([sys.executable, "-m", "doublemarkov.cli", "analyze", STAR_PATH,
                        "--point", "--seed", "11", "--json", str(out)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    point = json.loads(outs[0])["model_point"]
    assert point["converged"] is True and len(point["matrix"]) == 4


def test_analyze_point_negative_seed_is_usage_error(tmp_path, capsys):
    # the second pair shares no edge, so no block is searched and no start is drawn
    no_common = write(tmp_path, "disjoint.pair", "n 4\nG 1-3 2-4\nH 1-2 2-3 3-4\n")
    for pair in (STAR_PATH, no_common):
        assert main(["analyze", pair, "--point", "--seed", "-1"]) == 2
        assert capsys.readouterr().err.startswith("error: seed must be non-negative")


def _run_without_modules(args, modules):
    """Run ``main(args)`` in a fresh interpreter and fail if it imported any of ``modules``
    (a module counts with its submodules)."""
    import subprocess
    import sys

    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = ("import contextlib, io, sys\n"
            "from doublemarkov import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({args!r}) == 0\n"
            f"heavy = {{m for m in sys.modules if any(m == h or m.startswith(h + '.')\n"
            f"                                        for h in {modules!r})}}\n"
            "assert not heavy, sorted(heavy)\n")
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                   check=True)


# numpy.ma (np.unique) costs 1.2 MB of resident memory, numpy.random 6.1 MB (it loads
# secrets, hashlib and OpenSSL), scipy more; none of them is a dependency.
HEAVY_MODULES = ("numpy.ma", "numpy.random", "scipy")


def test_analyze_point_does_not_import_numpy_random():
    """The start points of the model-point search come from stdlib random."""
    _run_without_modules(["analyze", STAR_PATH, "--point"], ("numpy.random",))


def test_analyze_does_not_import_numpy_ma():
    """The axiom tables sort and diff instead of calling np.unique; scipy is not used."""
    _run_without_modules(["analyze", STAR_PATH, "--point"], ("numpy.ma", "scipy"))


IMPORT_CASES = {  # the command's arguments, with the files written by the test
    "closure": lambda d: ["closure", write(d, "inc.rel", "n 4\n(1 2 |)\n(1 3 | 2)\n"),
                          "--rules", "all"],
    "verify": lambda d: ["verify", write(d, "sol.mat", "4\n2 1 0 0\n1 2 0 0\n0 0 1 0\n0 0 0 1\n"),
                         STAR_PATH],
    "enumerate": lambda d: ["enumerate", "4"],
}


@pytest.mark.parametrize("command", sorted(IMPORT_CASES))
def test_command_does_not_import_heavy_modules(tmp_path, command):
    _run_without_modules(IMPORT_CASES[command](tmp_path), HEAVY_MODULES)


def test_analyze_malformed_edge(tmp_path, capsys):
    pair = write(tmp_path, "bad.pair", "n 4\nG 1-1\nH\n")
    assert main(["analyze", pair]) == 2
    assert "1-1" in capsys.readouterr().err


def test_enumerate_cli(tmp_path, capsys):
    out = str(tmp_path / "enum.csv")
    assert main(["enumerate", "3", "--connected", "--out", out]) == 0
    assert capsys.readouterr().out.strip() == "count=4"
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "canonical_hex,n,rep_G_edges,rep_H_edges"
    assert len(lines) == 5


def test_verify_identity_member(tmp_path, capsys):
    mat = write(tmp_path, "eye.mat", "4\n" + "\n".join(
        " ".join("1.0" if i == j else "0.0" for j in range(4)) for i in range(4)) + "\n")
    assert main(["verify", mat, STAR_PATH]) == 0
    assert "member" in capsys.readouterr().out


def test_verify_star_path_solution(tmp_path, capsys):
    rows = np.eye(4)
    rows[0, 1] = rows[1, 0] = 0.5
    mat = write(tmp_path, "sol.mat", matrices.format_matrix(rows))
    assert main(["verify", mat, STAR_PATH]) == 0


def test_verify_non_member(tmp_path, capsys):
    rows = np.eye(4)
    rows[0, 2] = rows[2, 0] = 0.5  # violates sigma_13 = 0
    mat = write(tmp_path, "bad.mat", matrices.format_matrix(rows))
    assert main(["verify", mat, STAR_PATH]) == 1
    assert "not a member" in capsys.readouterr().out


def test_verify_counterexample_non_pd(tmp_path, capsys):
    mat = write(tmp_path, "cex.mat", counterexample_text())
    pair = write(tmp_path, "cex.pair", COUNTEREXAMPLE_PAIR)
    assert main(["verify", mat, pair]) == 1
    out = capsys.readouterr().out
    assert "not positive definite" in out
    assert "all nonzero" in out
    det = float(out.split("determinant: ")[1].splitlines()[0])
    assert det == pytest.approx(-4374 / 55, abs=1e-9)


def rescaled_counterexample():
    d = np.diag([1e3, 1, 1, 1e-3, 1, 1])
    return d @ matrices.parse_matrix(counterexample_text()) @ d


@pytest.mark.parametrize("matrix, pair", [
    (lambda: np.diag([1000, 0.5, -1]), "n 3\nG\nH\n"),  # no minor near 0 at its own scale
    (rescaled_counterexample, COUNTEREXAMPLE_PAIR),
], ids=["diagonal", "rescaled-counterexample"])
def test_verify_non_pd_minors_are_judged_at_their_own_scale(tmp_path, capsys, matrix, pair):
    a = matrix()
    files = [write(tmp_path, "m.mat", matrices.format_matrix(a)), write(tmp_path, "p.pair", pair)]
    assert main(["verify", *files]) == 1
    out = capsys.readouterr().out
    assert "not positive definite" in out
    assert f"proper principal minors: {2 ** len(a) - 2} checked, all nonzero" in out


BIG = "1" + "0" * 400  # 10^400, beyond the float range


@pytest.mark.parametrize("matrix, order", [
    # the order-2 pivot fails PIVOT_TOL, though that minor's float determinant is 2e-13 > 0
    ("3\n1 0.9999999999999 0\n0.9999999999999 1 0\n0 0 1\n", 2),
    # exactly singular, with a float determinant that rounds to 8.6e-15
    ("3\n49/9 -14/5 0\n-14/5 1924/225 -28/9\n0 -28/9 49/36\n", 3),
    # exact entries beyond the float range
    (f"3\n1/2 {BIG} 0\n{BIG} 1 0\n0 0 1\n", 2),
], ids=["pivot-tolerance", "exact-singular", "beyond-float"])
def test_verify_names_the_leading_minor_the_pd_test_refused(tmp_path, capsys, matrix, order):
    pair = "n 3\nG 1-2 1-3 2-3\nH 1-2 1-3 2-3\n"
    files = [write(tmp_path, "m.mat", matrix), write(tmp_path, "p.pair", pair)]
    assert main(["verify", *files]) == 1
    out = capsys.readouterr().out
    assert "not positive definite" in out
    assert f"first failing leading principal minor: order {order}\n" in out


@pytest.mark.parametrize("matrix, pair, rc, line", [
    # not positive definite: the float diagnostics cannot convert the entries
    (f"2\n1/2 {BIG}\n{BIG} 1\n", "n 2\nG 1-2\nH 1-2\n", 1,
     "entries exceed the float range: no minor diagnostics"),
    # positive definite with a residual (the 1-2 entry, H empty) beyond the float range
    (f"2\n1{BIG}{BIG[1:]} {BIG}\n{BIG} 1/1\n", "n 2\nG\nH\n", 1, "max residual: inf"),
    # Fraction would expand the exponent into a billion-digit integer
    ("2\n1e999999999 0\n0 1/1\n", "n 2\nG\nH\n", 2, "exceeds 4300"),
    # Fraction reads a sign and underscores in the exponent too
    ("2\n1E+4301 0\n0 1/1\n", "n 2\nG\nH\n", 2, "exceeds 4300"),
    ("2\n1/1 0\n0 2.5e-4_301\n", "n 2\nG\nH\n", 2, "exceeds 4300"),
])
def test_verify_exact_entries_beyond_float_range(tmp_path, capsys, matrix, pair, rc, line):
    files = [write(tmp_path, "big.mat", matrix), write(tmp_path, "p.pair", pair)]
    assert main(["verify", *files]) == rc
    assert line in capsys.readouterr()[rc == 2]  # stderr for an input error, else stdout


@pytest.mark.parametrize("entry", [f"1e{matrices.MAX_EXPONENT}", f"1E-{matrices.MAX_EXPONENT}"])
def test_verify_exponents_up_to_the_bound_are_exact(tmp_path, entry):
    mat = write(tmp_path, "e.mat", f"2\n{entry} 0\n0 1/1\n")
    assert matrices.parse_matrix(Path(mat).read_text())[0, 0] == Fraction(entry)
    assert main(["verify", mat, write(tmp_path, "p.pair", "n 2\nG\nH\n")]) == 0


@pytest.mark.parametrize("matrix, rc, verdict", [
    # exact: the inverse's 1-2 entry is -10^11 / (10^22 - 1), small but not 0
    ("2\n1 1/100000000000\n1/100000000000 1\n", 1, "not a member"),
    # its float twin is within the default --tol
    ("2\n1 1e-11\n1e-11 1\n", 0, "member"),
])
def test_verify_agrees_with_is_member(tmp_path, capsys, matrix, rc, verdict):
    mat, pair = write(tmp_path, "m.mat", matrix), write(tmp_path, "p.pair", "n 2\nG\nH 1-2\n")
    assert main(["verify", mat, pair]) == rc
    assert capsys.readouterr().out == f"max residual: 1.000000e-11\n{verdict}\n"
    g, h = graphs.parse_pair_file(Path(pair).read_text())
    assert matrices.is_member(matrices.parse_matrix(Path(mat).read_text()), g, h) == (rc == 0)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_verify_judges_the_correlation_matrix(tmp_path, capsys, scale):
    # G complete, H the path 1-2-3: the residual is the (1, 3) entry of the
    # correlation matrix, 5e-9 at every scale
    a = np.eye(3)
    a[0, 2] = a[2, 0] = 5e-9
    mat = write(tmp_path, "m.mat", matrices.format_matrix(scale * a))
    pair = write(tmp_path, "p.pair", "n 3\nG 1-2 1-3 2-3\nH 1-2 2-3\n")
    assert main(["verify", mat, pair]) == 0
    assert capsys.readouterr().out == "max residual: 5.000000e-09\nmember\n"


@pytest.mark.parametrize("flags", [[]])
def test_enumerate_6_is_past_its_budget(capsys, flags):
    # over all pairs only: enumerate 6 --connected answers in seconds
    assert main(["enumerate", "6", *flags]) == 3
    assert "802,788 orbits" in capsys.readouterr().err


RULE17_CLOSED = ["(1 2 |)", "(1 2 | 3)", "(1 2 | 4)", "(1 2 | 3 4)",
                 "(1 3 |)", "(1 3 | 2)", "(1 3 | 4)", "(1 3 | 2 4)",
                 "(2 4 |)", "(2 4 | 1)", "(2 4 | 3)", "(2 4 | 1 3)",
                 "(3 4 |)", "(3 4 | 1)", "(3 4 | 2)", "(3 4 | 1 2)"]


def test_closure_cli(tmp_path, capsys):
    rel = write(tmp_path, "inc.rel",
                "n 4\n(1 2 |)\n(3 4 |)\n(1 3 | 2 4)\n(2 4 | 1 3)\n")
    # every rule with an instance whose premises hold in the closure and which
    # concludes a statement outside the input, in HORN_RULES order for any --rules order
    fired = "# 16 statements; rules fired: semigraphoid, intersection, composition, rule17"
    for rules in ["all", "rule17,composition,intersection,semigraphoid"]:
        assert main(["closure", rel, "--rules", rules]) == 0
        assert capsys.readouterr().out.splitlines() == RULE17_CLOSED + [fired]
    empty = write(tmp_path, "empty.rel", "n 4\n")
    assert main(["closure", empty, "--rules", "semigraphoid"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# 0 statements")


def test_closure_cli_names_a_repeated_rule_once(tmp_path, capsys):
    rel = write(tmp_path, "sg.rel", "n 4\n(1 2 |)\n(1 3 | 2)\n")
    assert main(["closure", rel, "--rules", "semigraphoid,semigraphoid"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "# 4 statements; rules fired: semigraphoid"


def test_closure_cli_refuses_unknown_rules_like_the_library(tmp_path, capsys):
    for text in ["n 4\n(1 2 |)\n(3 4 |)\n", "n 2\n"]:
        rel = write(tmp_path, "r.rel", text)
        for rules in ["bogus", "semigraphoid,weak-transitivity"]:
            with pytest.raises(ValueError) as from_closure:
                ci.closure(ci.parse_relation(text), rules.split(","))
            assert main(["closure", rel, "--rules", rules]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {from_closure.value}\n"


def test_closure_very_not_realizable(tmp_path, capsys):
    # <G> for G = {12, 23} with 4 isolated, joined with the dual for H = {13}
    from doublemarkov import Graph, ci
    g = Graph.from_edges(4, [(1, 2), (2, 3)])
    h = Graph.from_edges(4, [(1, 3)])
    rel = ci.double_markov_relation(g, h)
    path = write(tmp_path, "vnr.rel", ci.relation_to_text(rel, "hex"))
    assert main(["closure", path, "--rules", "semigraphoid"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith("# 24 statements")


def test_missing_file_is_usage_error(capsys):
    assert main(["analyze", "/nonexistent/file.pair"]) == 2


def test_analyze_past_its_budget_is_resource_error(tmp_path, capsys):
    """An n = 16 pair would need several GB of axiom tables; it is refused at once."""
    assert cli.MAX_TABLE_N >= 11
    pair = write(tmp_path, "big.pair", "n 16\nG " + " ".join(f"1-{v}" for v in range(2, 17))
                 + "\nH " + " ".join(f"{v}-{v + 1}" for v in range(1, 16)) + "\n")
    start = time.perf_counter()
    assert main(["analyze", pair, "--point"]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"n <= {cli.MAX_TABLE_N}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["n 16\n(1 2 |)\n", "n 13\n",
                                  "n 16\nhex " + "0" * 491520 + "\n"], ids=["list", "empty", "hex"])
def test_closure_past_its_budget_is_resource_error(tmp_path, capsys, text):
    """closure shares analyze's bound: its rule tables more than double with every vertex."""
    rel = write(tmp_path, "big.rel", text)
    start = time.perf_counter()
    assert main(["closure", rel, "--rules", "semigraphoid,intersection,composition"]) == 3
    assert time.perf_counter() - start < 1.0
    assert f"closure is limited to n <= {cli.MAX_TABLE_N}" in capsys.readouterr().err


def test_analyze_has_no_cap_option(capsys):
    # under the unique-path hypothesis the generators never meet a path cap
    with pytest.raises(SystemExit) as exc:
        main(["analyze", STAR_PATH, "--cap", "1"])
    assert exc.value.code == 2
    assert "--cap" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


def test_analyze_has_no_tolerance_option(tmp_path, capsys):
    # the report has no tolerance-dependent part, so analyze takes no --tol;
    # verify keeps its own
    with pytest.raises(SystemExit) as exc:
        main(["analyze", STAR_PATH, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err
    eye = write(tmp_path, "eye.mat", "2\n1 0\n0 1\n")
    pair = write(tmp_path, "p.pair", "n 2\nG\nH\n")
    assert main(["verify", eye, pair, "--tol", "1e-3"]) == 0


def test_parser_is_built_once():
    assert cli.make_parser() is cli.make_parser()


def test_trailing_or_short_inputs_are_usage_errors(tmp_path, capsys):
    mat = write(tmp_path, "extra.mat", "2\n1 0\n0 1\n1 1\n")
    pair2 = write(tmp_path, "p2.pair", "n 2\nG 1-2\nH 1-2\n")
    assert main(["verify", mat, pair2]) == 2
    eye = write(tmp_path, "eye.mat", "2\n1 0\n0 1\n")
    extra_pair = write(tmp_path, "extra.pair", "n 2\nG 1-2\nH 1-2\nH\n")
    assert main(["verify", eye, extra_pair]) == 2
    short_hex = write(tmp_path, "short.rel", "n 4\nhex ff\n")
    assert main(["closure", short_hex]) == 2
    errors = capsys.readouterr().err
    assert "expected 2 matrix rows" in errors and "three" in errors and "hex bytes" in errors


def test_zero_denominator_is_usage_error(tmp_path, capsys):
    mat = write(tmp_path, "zero.mat", "2\n1 1/0\n1/0 1\n")
    pair = write(tmp_path, "p.pair", "n 2\nG\nH\n")
    assert main(["verify", mat, pair]) == 2
    assert "line 2: bad matrix entry" in capsys.readouterr().err


@pytest.mark.parametrize("command, name, text, line", [
    ("closure", "r.rel", "n 4\n(1 3 | 2)\n\n(1 2 | 3 3)\n",
     "line 4: statement (1 2 | 3 3) does not fit ground set 1..4"),
    ("closure", "r.rel", "\nn 4\n\n(1 2 | 9)\n", "line 4: statement (1 2 | 9) does not fit"),
    ("closure", "r.rel", "n 4\n\n\nhex 00\n", "line 4: 24 statements need 3 hex bytes"),
    ("analyze", "p.pair", "\n\nn 4\n\nG 1-2\nH 1-2 2-5\n", "line 6: malformed edge token '2-5'"),
    ("analyze", "p.pair", "n 4\nG 1-2\nH\n\nG 2-3\n",
     "line 5: pair file needs exactly three non-blank lines (n, G, H), found 4"),
    ("verify", "m.mat", "2\n\n1 0\n\n0 one\n", "line 5: bad matrix entry"),
    ("verify", "m.mat", "\n0\n", "line 2: vertex count must be in 1..16, got 0"),
    ("verify", "m.mat", "-1\n", "line 1: vertex count must be in 1..16, got -1"),
])
def test_refusals_name_the_line_in_the_file(tmp_path, capsys, command, name, text, line):
    files = [write(tmp_path, name, text)]
    if command == "verify":
        files.append(write(tmp_path, "p.pair", "n 2\nG\nH\n"))
    assert main([command, *files]) == 2
    assert line in capsys.readouterr().err


@pytest.mark.parametrize("matrix", ["2\n1 0\n0 1\n", "2\n1 2\n2 1\n", "2\n-1 0\n0 1\n"])
def test_verify_refuses_a_size_mismatch_before_definiteness(tmp_path, capsys, matrix):
    mat = write(tmp_path, "a.mat", matrix)
    pair = write(tmp_path, "k3.pair", "n 3\nG 1-2\nH 2-3\n")
    assert main(["verify", mat, pair]) == 2
    assert capsys.readouterr().err == ("error: matrix and graphs must share the ground set "
                                       "(a 2 x 2 matrix, graphs on 3 and 3 vertices)\n")


@pytest.mark.parametrize("scale", [1e-14, 1.0, 1e6])
def test_verify_refuses_an_asymmetric_matrix_at_every_scale(tmp_path, capsys, scale):
    a = scale * np.array([[1, .5, 0], [.5003, 1, .2], [0, .2, 1]])
    mat = write(tmp_path, "a.mat", "3\n" + "\n".join(" ".join(map(repr, row)) for row in a.tolist()))
    pair = write(tmp_path, "k3.pair", "n 3\nG 1-2 1-3 2-3\nH 1-2 1-3 2-3\n")
    assert main(["verify", mat, pair]) == 2
    assert "matrix must be symmetric" in capsys.readouterr().err


def test_analyze_prints_why_a_pair_is_unclassified(tmp_path, capsys):
    star = write(tmp_path, "star.pair", "n 4\nG 1-2 1-3 1-4\nH 1-2 1-3 1-4\n")
    assert main(["analyze", star]) == 0
    assert ("  classification: three shared edges form a star, which is outside the "
            "classified cases\n") in capsys.readouterr().out


def test_cli_import_does_not_load_scipy():
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import doublemarkov.cli, sys; "
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# -- the report writer --------------------------------------------------------

def _report(fill, violations):
    """A report with every field set to fill and ci set to {gaussoid: fill, violations}."""
    rep = cli.ModelReport(**{f.name: fill for f in dataclasses.fields(cli.ModelReport)})
    rep.ci = {"gaussoid": fill, "violations": violations}
    return rep


def _templated_rows(rep) -> int:
    """How many rows rep.to_json() writes through the row template: each templated row
    is marked with a non-ASCII character, which json.dumps never writes."""
    template = cli._violation_rows_json

    def marked(x, inner):
        items = template(x, inner)
        return items and [row + "\u00a7" for row in items]

    with mock.patch.object(cli, "_violation_rows_json", marked):
        return rep.to_json().count("\u00a7")


JSON_TEXT = st.text() | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "caf\u00e9 \u2028 \U0001f600", "\ud800", "a\"b\\c\n\t"])
JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.integers(min_value=-10**40, max_value=10**40) | st.floats()
               | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2**70]) | JSON_TEXT)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda kids: (st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(JSON_TEXT, kids, max_size=4)),
    max_leaves=12)


@given(JSON_TREES)
@example([[], {}, [[]], {"": {}}, ((),), {"a": [{}, []]}])
@example({"x": math.nan, "y": [-math.inf, -0.0, 5e-324, 10**30, True, None]})
@example(({"rule": "r", "premises": ["(1 2 |)"], "missing": ["(1 3 |)"]},))  # spliced tuple
def test_report_writer_matches_json_dumps(tree):
    rep = _report(tree, tree)
    assert rep.to_json() == json.dumps(vars(rep), sort_keys=True, indent=2) + "\n"


VIOLATIONS = st.lists(st.fixed_dictionaries({
    "rule": JSON_TEXT, "premises": st.lists(JSON_TEXT, min_size=1, max_size=2),
    "missing": st.lists(JSON_TEXT, min_size=1, max_size=2)}), min_size=1, max_size=4)
OFF_SHAPE = {  # one row changed so that the row template no longer applies
    "empty missing": lambda v: {**v, "missing": []},
    "empty premises": lambda v: {**v, "premises": []},
    "non-str cell": lambda v: {**v, "premises": [*v["premises"], 7]},
    "None cell": lambda v: {**v, "missing": [None]},
    "non-str rule": lambda v: {**v, "rule": ["semigraphoid"]},
    "extra key": lambda v: {**v, "reason": "x"},
    "missing key": lambda v: {"rule": v["rule"], "premises": v["premises"]},
    "tuple cell list": lambda v: {**v, "missing": tuple(v["missing"])},
    "tuple premises": lambda v: {**v, "premises": tuple(v["premises"])},
    "str premises": lambda v: {**v, "premises": "(1 2 |)"},
    "not a dict": lambda v: sorted(v.items()),
}


@given(VIOLATIONS)
@example([{"rule": "weak-transitivity", "premises": ["(1 2 |)", "(1 2 | 3)"],
           "missing": ["(1 3 |)", "(2 3 |)"]}])
@example([{"rule": "r\"\\\n", "premises": ["caf\u00e9 \u2028", "\ud800"], "missing": ["%s %%"]}])
def test_violation_row_template_matches_json_dumps(rows):
    rep = _report(None, rows)
    assert rep.to_json() == json.dumps(vars(rep), sort_keys=True, indent=2) + "\n"
    assert _templated_rows(rep) == len(rows)


@given(VIOLATIONS)
def test_to_json_falls_back_when_the_stand_in_repeats(rows):
    rep = _report({"violations": []}, rows)  # a second '"violations": []' at the same depth
    assert rep.to_json() == json.dumps(vars(rep), sort_keys=True, indent=2) + "\n"
    assert _templated_rows(rep) == 0


@given(VIOLATIONS, st.sampled_from(sorted(OFF_SHAPE)), st.data())
def test_off_shape_violation_lists_fall_back(rows, change, data):
    at = data.draw(st.integers(0, len(rows) - 1))
    rows[at] = OFF_SHAPE[change](rows[at])
    rep = _report(None, rows)
    assert rep.to_json() == json.dumps(vars(rep), sort_keys=True, indent=2) + "\n"
    assert _templated_rows(rep) == 0


def _expected_entries(relation):
    return [{"rule": v.rule, "premises": list(map(repr, v.premises)),
             "missing": list(map(repr, v.missing))} for v in ci.check_axioms(relation)]


def test_violation_entries_equal_check_axioms_for_every_small_relation():
    seen = set()
    for n in range(2, 5):
        every = [graphs.graph_from_edge_mask(n, m) for m in range(1 << n * (n - 1) // 2)]
        for g in every:
            for h in every:
                r = ci.double_markov_relation(g, h)
                if (n, r.bits) not in seen:
                    seen.add((n, r.bits))
                    assert cli._violation_entries(r) == _expected_entries(r)
    assert len(seen) == 2100


def test_report_violations_equal_check_axioms_on_seeded_pairs():
    rng = random.Random(8)
    total = 0
    for t in range(30):
        n = 5 + t % 3
        g, h = (graphs.Graph.from_edges(n, [e for e in graphs.pairs_lex(n) if rng.random() < 0.5])
                for _ in "GH")
        violations = cli.build_report(g, h).ci["violations"]
        assert violations == _expected_entries(ci.double_markov_relation(g, h))
        total += len(violations)
    assert total > 100


def test_to_json_matches_json_dumps_on_seeded_reports():
    rng = random.Random(20211)
    cases, points = set(), set()
    for t in range(200):
        n = 4 + t % 4
        g, h = (graphs.Graph.from_edges(n, [e for e in graphs.pairs_lex(n) if rng.random() < 0.5])
                for _ in "GH")
        rep = cli.build_report(g, h, seed=t, want_point=t // 4 % 2 == 1)
        assert rep.to_json() == json.dumps(vars(rep), sort_keys=True, indent=2) + "\n"
        assert _templated_rows(rep) == len(rep.ci["violations"])
        cases.add((rep.classification or {}).get("case"))
        points.add(rep.model_point and rep.model_point["converged"])
    assert {"unclassified", "single-edge", None} <= cases and {None, True} <= points


# -- arbitrary input files ----------------------------------------------------

PAIRS = ["n 4\nG 1-2 1-3 1-4\nH 1-2 2-3 3-4\n", "n 6\nG 1-2 2-3 4-5\nH 1-6 2-3 3-4 5-6\n",
         "n 2\nG\nH 1-2\n", "n 3\nG 1-2 2-3\nH 1-2 2-3\n"]
VALID_INPUTS = {  # the files each command reads, in argument order
    "analyze": [(pair,) for pair in PAIRS + ["n 16\nG 1-2 2-16\nH 1-16 3-4\n", "n 13\nG\nH 12-13\n"]],
    "closure": [("n 4\n(1 2 |)\n(1 3 | 2)\n(2 4 | 1 3)\n",), ("n 3\nhex fc\n",),
                ("n 4\nhex 0f00f1\n",), ("n 5\n(1 2 | 3 4 5)\n(3 5 |)\n",),
                ("n 16\n(1 2 | 3 16)\n(15 16 |)\n",)],
    "verify": [("4\n2 1 0 0\n1 2 0 0\n0 0 1 0\n0 0 0 1\n", PAIRS[0]),
               ("2\n1 0\n0 1\n", PAIRS[2]), ("2\n1 2\n2 1\n", PAIRS[2]),
               ("3\n2 1/2 0\n1/2 2 0\n0 0 1\n", PAIRS[3])],
}
KINDS = {"analyze": ("pair",), "closure": ("relation",), "verify": ("matrix", "pair")}
PARSERS = {"pair": lambda text: graphs.parse_pair_file(text)[0].n,
           "relation": lambda text: ci.parse_relation(text).n,
           "matrix": lambda text: matrices.parse_matrix(text).shape[0]}
FLAGS = {"analyze": [[], ["--point", "--seed", "0"]]}  # each flag set runs on every input
MAX_FUZZ_N = 6  # analyze and closure grow about 2x per vertex beyond this; both
# refuse n above cli.MAX_TABLE_N at once, so those headers are fed too


@st.composite
def mutated(draw, text):
    """text with one or two digits changed or bytes inserted, deleted or replaced."""
    data = bytearray(text.encode())
    rnd = draw(st.randoms(use_true_random=False))  # uniform positions, unlike shrinkable ints
    for _ in range(rnd.randint(1, 2)):
        op = rnd.choice(["digit", "insert", "delete", "replace"])
        digits = [t for t, b in enumerate(data) if chr(b).isdigit()]
        if op == "digit" and digits:
            data[rnd.choice(digits)] = rnd.choice(b"0123456789")
            continue
        at = rnd.randint(0, len(data))
        byte = rnd.choice([rnd.choice(b"0123456789 -/|()\nnGHhex.e+_"), rnd.randrange(256)])
        data[at:at + (op != "insert")] = b"" if op == "delete" else bytes([byte])
    return bytes(data)


def _run_on_files(tmp_dir, command, contents):
    paths = []
    for kind, data in zip(KINDS[command], contents):
        path = os.path.join(tmp_dir, f"{command}.{kind}")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            with open(path) as fh:
                size = PARSERS[kind](fh.read())
        except ValueError:
            size = None
        past_budget = command in ("analyze", "closure") and size is not None and size > cli.MAX_TABLE_N
        assume(size is None or size <= MAX_FUZZ_N or past_budget)
        paths.append(path)
    for flags in FLAGS.get(command, [[]]):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command, *paths, *flags])
        assert rc in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if past_budget:
            assert rc == 3 and time.perf_counter() - start < 1.0


def _fuzzed_inputs(data, command, corrupt):
    """A valid input of the command with a nonempty set of its files passed through corrupt."""
    case = data.draw(st.sampled_from(VALID_INPUTS[command]))
    hit = data.draw(st.sets(st.sampled_from(range(len(case))), min_size=1))
    return [data.draw(corrupt(text)) if t in hit else text.encode() for t, text in enumerate(case)]


FUZZ = settings(max_examples=80, deadline=None, derandomize=True)


@pytest.mark.parametrize("command", sorted(KINDS))
@FUZZ
@given(data=st.data())
def test_cli_never_tracebacks_on_arbitrary_bytes(tmp_path_factory, command, data):
    contents = _fuzzed_inputs(data, command, lambda _: st.binary(max_size=64))
    _run_on_files(str(tmp_path_factory.getbasetemp()), command, contents)


@pytest.mark.parametrize("command", sorted(KINDS))
@FUZZ
@given(data=st.data())
def test_cli_never_tracebacks_on_mutated_files(tmp_path_factory, command, data):
    contents = _fuzzed_inputs(data, command, mutated)
    _run_on_files(str(tmp_path_factory.getbasetemp()), command, contents)


@st.composite
def huge_exact_entries(draw, text):
    """An exact matrix text (every entry p/q) with one symmetric pair of entries, or one
    diagonal entry, replaced by a token with a huge integer or decimal exponent."""
    n, *rows = text.split("\n")[:-1]
    cells = [[tok if "/" in tok else tok + "/1" for tok in row.split()] for row in rows]
    digits = draw(st.integers(1, 4400))
    token = draw(st.sampled_from([
        "9" * digits, "1/" + "7" * digits, "-" + "1" + "0" * digits + "/3",
        f"1e{draw(st.integers(0, 10**12))}", f"2.5E-{draw(st.integers(0, 10**12))}",
        f"1e{draw(st.integers(4290, 4310))}", f"3e-{digits}", f"1e{digits:_}"]))
    i, j = draw(st.integers(0, len(cells) - 1)), draw(st.integers(0, len(cells) - 1))
    cells[i][j] = cells[j][i] = token
    return ("\n".join([n, *(" ".join(row) for row in cells)]) + "\n").encode()


@FUZZ
@given(data=st.data())
def test_verify_never_tracebacks_on_huge_exact_entries(tmp_path_factory, data):
    matrix, pair = data.draw(st.sampled_from(VALID_INPUTS["verify"]))
    contents = [data.draw(huge_exact_entries(matrix)), pair.encode()]
    _run_on_files(str(tmp_path_factory.getbasetemp()), "verify", contents)


def _int_or_none(token):
    try:
        return int(token)
    except ValueError:
        return None


# enumerate 5 and enumerate 6 --connected take seconds, so neither an integer nor a junk
# string may read as 5 or 6; the example below has the refused all-pairs n = 6
ENUMERATE_TOKENS = st.one_of(
    st.integers(-5, 40).filter(lambda n: n not in (5, 6)).map(str),
    st.text(max_size=8).filter(lambda t: _int_or_none(t) not in (5, 6)))


@FUZZ
@given(token=ENUMERATE_TOKENS, connected=st.booleans())
@example(token="3", connected=False)
@example(token="4", connected=False)
@example(token="4", connected=True)
@example(token="6", connected=False)
@example(token="-h", connected=False)
def test_enumerate_never_tracebacks(token, connected):
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = main(["enumerate", token] + ["--connected"] * connected)
        except SystemExit as e:  # argparse refuses a token that is not an integer
            rc = e.code
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_verify_refuses_bad_tolerances(tmp_path, capsys, tol):
    eye = write(tmp_path, "eye.mat", "3\n1 0 0\n0 1 0\n0 0 1\n")
    not_pd = write(tmp_path, "not_pd.mat", "3\n1 2 0\n2 1 0\n0 0 1\n")
    pair = write(tmp_path, "p.pair", "n 3\nG 1-2\nH 2-3\n")
    for mat in (eye, not_pd):  # refused before the matrix is judged
        assert main(["verify", mat, pair, "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and non-negative" in captured.err
    assert main(["verify", eye, pair, "--tol", "0"]) == 0
    assert capsys.readouterr().out.endswith("\nmember\n")
    assert cli.make_parser().parse_args(["verify", eye, pair]).tol == matrices.DEFAULT_TOL


@pytest.mark.parametrize("n", range(MAX_FUZZ_N + 1, cli.MAX_TABLE_N + 1))
def test_closure_of_relation_headers_past_the_fuzz_bound_is_fast(tmp_path, capsys, n):
    """The fuzz tests skip relation headers with MAX_FUZZ_N < n <= MAX_TABLE_N; time one each."""
    rel = write(tmp_path, "one.rel", f"n {n}\n(1 2 | 3)\n")
    start = time.perf_counter()
    assert main(["closure", rel, "--rules", "all"]) == 0
    assert time.perf_counter() - start < 5.0
    assert capsys.readouterr().out.startswith("(1 2 | 3)\n")


def test_verify_refuses_extra_tokens_on_the_size_line(tmp_path, capsys):
    mat = write(tmp_path, "foo.mat", "3 foo\n1 0 0\n0 1 0\n0 0 1\n")
    pair = write(tmp_path, "p.pair", "n 3\nG 1-2\nH 2-3\n")
    assert main(["verify", mat, pair]) == 2
    assert "line 1: expected the matrix size, got '3 foo'" in capsys.readouterr().err


def test_report_reads_transversality_and_unique_path_like_the_library():
    from doublemarkov import geometry, ideal
    for n in (1, 2, 3):
        for g in graphs.all_graphs(n):
            for h in graphs.all_graphs(n):
                rep = cli.build_report(g, h)
                assert rep.transverse_at_identity == geometry.is_transverse_at(np.eye(n), g, h)
                assert rep.ideal["unique_path"] == ideal.unique_path_hypothesis(g, h)
