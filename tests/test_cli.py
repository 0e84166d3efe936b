import json
import os

import numpy as np
import pytest

from doublemarkov import cli, matrices
from doublemarkov.cli import main

DATA = os.path.join(os.path.dirname(__file__), "data")
STAR_PATH = os.path.join(DATA, "star_path.pair")


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


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
    rep = json.loads(open(out).read())
    assert rep["dimension_bound"] == {"model": 5, "correlation": 1}
    assert rep["decomposition"]["blocks"] == [[1, 2], [3], [4]]
    assert rep["ideal"]["generators"] == ["s_13", "s_14", "s_23", "s_24", "s_34"]
    assert rep["transverse_at_identity"] is False


def test_analyze_golden_report():
    from doublemarkov import graphs
    g, h = graphs.parse_pair_file(open(STAR_PATH).read())
    rep = cli.build_report(g, h)
    golden = open(os.path.join(DATA, "star_path_report.json")).read()
    assert rep.to_json() == golden


def test_analyze_complete_pair(tmp_path, capsys):
    pair = write(tmp_path, "k4.pair", "n 4\nG " + " ".join(
        f"{i}-{j}" for i in range(1, 5) for j in range(i + 1, 5)) + "\nH " + " ".join(
        f"{i}-{j}" for i in range(1, 5) for j in range(i + 1, 5)) + "\n")
    assert main(["analyze", pair]) == 0
    text = capsys.readouterr().out
    assert "transverse at identity: True" in text
    assert "model <= 10, correlation <= 6" in text


def test_analyze_point_reproducible(tmp_path):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert main(["analyze", STAR_PATH, "--point", "--seed", "11", "--json", out1]) == 0
    assert main(["analyze", STAR_PATH, "--point", "--seed", "11", "--json", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    rep = json.loads(open(out1).read())
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


def test_analyze_point_does_not_import_numpy_random():
    """numpy.random pulls in secrets, hashlib and OpenSSL: 6.1 MB of resident memory.

    The start points of the model-point search come from stdlib random, so
    a whole analyze --point run must never import it.
    """
    import subprocess
    import sys

    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    code = ("import contextlib, io, sys\n"
            "from doublemarkov import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main(['analyze', {STAR_PATH!r}, '--point']) == 0\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n")
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                   check=True)


def test_analyze_malformed_edge(tmp_path, capsys):
    pair = write(tmp_path, "bad.pair", "n 4\nG 1-1\nH\n")
    assert main(["analyze", pair]) == 2
    assert "1-1" in capsys.readouterr().err


def test_enumerate_cli(tmp_path, capsys):
    out = str(tmp_path / "enum.csv")
    assert main(["enumerate", "3", "--connected", "--out", out]) == 0
    assert capsys.readouterr().out.strip() == "count=4"
    lines = open(out).read().strip().splitlines()
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
    pair = write(tmp_path, "cex.pair",
                 "n 6\nG 1-2 1-3 2-3 4-5 4-6 5-6 1-6 2-4 2-5 2-6 3-5\n"
                 "H 1-2 1-3 2-3 4-5 4-6 5-6 1-4 1-5 3-4 3-6\n")
    assert main(["verify", mat, pair]) == 1
    out = capsys.readouterr().out
    assert "not positive definite" in out
    assert "all nonzero" in out
    det = float(out.split("determinant: ")[1].splitlines()[0])
    assert det == pytest.approx(-4374 / 55, abs=1e-9)


def test_closure_cli(tmp_path, capsys):
    rel = write(tmp_path, "inc.rel",
                "n 4\n(1 2 |)\n(3 4 |)\n(1 3 | 2 4)\n(2 4 | 1 3)\n")
    assert main(["closure", rel, "--rules", "all"]) == 0
    out = capsys.readouterr().out
    assert "(1 3 |)" in out.splitlines()
    assert "rule17" in out
    empty = write(tmp_path, "empty.rel", "n 4\n")
    assert main(["closure", empty, "--rules", "semigraphoid"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# 0 statements")


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


def test_path_cap_is_resource_error(capsys):
    # cap 0 makes any path enumeration overflow while parsing succeeds
    assert main(["analyze", STAR_PATH, "--cap", "0"]) == 3
    assert "cap" in capsys.readouterr().err


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


def test_cli_import_does_not_load_scipy():
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = ("import doublemarkov.cli, sys; "
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
