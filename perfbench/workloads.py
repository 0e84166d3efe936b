"""The ops of each workload and the checks on their outputs.

An op drives doublemarkov the way its command line does.  Checks run after
the timed phase, and each check function returns a list of problems (empty
when the output is right), so tests can feed them corrupted outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

CLOSURE_RULES = ("semigraphoid", "intersection", "composition")
GOLDEN_PAIR = Path("tests/data/star_path.pair")
GOLDEN_REPORT = Path("tests/data/star_path_report.json")
ENUMERATE_COUNT = {3: 4, 4: 55, 5: 2644}  # the paper's counts for connected pairs


def run_cli(cli, argv):
    """cli.main with its standard output captured; returns (exit code, output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# -- checks -------------------------------------------------------------------

def check_analyze_report(rc: int, rep: dict) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if rep["transverse_at_identity"] != rep["union_complete"]:
        problems.append("transverse_at_identity differs from union_complete")
    point = rep["model_point"]
    if point is None:
        problems.append("no model point in the report")
    elif point["converged"] and (point["local_tangent_dimension"]
                                 > rep["dimension_bound"]["correlation"]):
        problems.append("local tangent dimension exceeds the correlation bound")
    return problems


def check_golden(produced: bytes, golden: bytes) -> list[str]:
    return [] if produced == golden else ["star_path report differs from the golden file"]


def check_enumerate_output(rc: int, stdout: str, csv_text: str, n: int) -> list[str]:
    expected = ENUMERATE_COUNT[n]
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    if stdout.strip() != f"count={expected}":
        problems.append(f"printed {stdout.strip()!r}, expected count={expected}")
    rows = csv_text.splitlines()[1:]
    if len(rows) != expected:
        problems.append(f"CSV has {len(rows)} rows, expected {expected}")
    return problems


def check_distinct_structures(dm, csv_text: str) -> list[str]:
    """The representatives' CI relations are pairwise inequivalent."""
    seen = set()
    for row in csv_text.splitlines()[1:]:
        _, n, g_edges, h_edges = row.split(",")
        g, h = (dm.Graph.from_edges(int(n), [tuple(map(int, e.split("-")))
                                             for e in edges.split()])
                for edges in (g_edges, h_edges))
        seen.add(dm.canonical_form(dm.double_markov_relation(g, h)))
    rows = len(csv_text.splitlines()) - 1
    return [] if len(seen) == rows else [f"{rows - len(seen)} duplicate CI structures"]


def check_matrix_op(rc_member, rc_nonmember, relation, subset, closed, source) -> list[str]:
    problems = []
    if rc_member != 0:
        problems.append(f"verify on the model's pair exited {rc_member}, expected 0")
    if rc_nonmember != 1:
        problems.append(f"verify on a foreign pair exited {rc_nonmember}, expected 1")
    if relation != source:
        problems.append("relation_of_matrix differs from relation_of_graph(G)")
    if not closed.issubset(source):
        problems.append("closure leaves the source relation")
    if not subset.issubset(closed):
        problems.append("closure lost an input statement")
    return problems


# -- workloads ----------------------------------------------------------------

class Analyze:
    """analyze --point on a seeded corpus of random pairs; writes the JSON report."""

    def __init__(self, dm, manifest, out: Path, root: Path):
        self.dm, self.ops, self.warm, self.out, self.root = (
            dm, manifest["ops"], manifest["warmup"], out, root)

    def _analyze(self, entry, json_path):
        return run_cli(self.dm.cli, ["analyze", entry["pair"], "--point",
                                     "--seed", str(entry["k"]), "--json", str(json_path)])[0]

    def warm_up(self):
        for entry in self.warm:
            self._analyze(entry, self.out / "warmup.json")

    def run(self, i):
        path = self.out / f"report{i}.json"
        return self._analyze(self.ops[i % len(self.ops)], path), path

    def check(self, records):
        problems = [check_analyze_report(rc, json.loads(path.read_text()))
                    for rc, path in records]
        golden_json = self.out / "star_path.json"
        run_cli(self.dm.cli, ["analyze", str(self.root / GOLDEN_PAIR),
                              "--json", str(golden_json)])
        problems.append(check_golden(golden_json.read_bytes(),
                                     (self.root / GOLDEN_REPORT).read_bytes()))
        return problems


class Enumerate:
    """enumerate 5 --connected --out CSV: the paper's 2644 count."""

    def __init__(self, dm, manifest, out: Path, root: Path):
        self.dm, self.op, self.warm, self.out = (
            dm, manifest["ops"][0], manifest["warmup"][0], out)

    def _enumerate(self, entry, csv_path):
        rc, text = run_cli(self.dm.cli, ["enumerate", str(entry["n"]), "--connected",
                                         "--out", str(csv_path)])
        return rc, text, csv_path

    def warm_up(self):
        self._enumerate(self.warm, self.out / "warmup.csv")

    def run(self, i):
        return self._enumerate(self.op, self.out / f"reps{i}.csv")

    def check(self, records):
        problems = []
        first = None
        for rc, text, path in records:
            csv_text = path.read_text()
            found = check_enumerate_output(rc, text, csv_text, self.op["n"])
            if first is None:
                first = csv_text
                found += check_distinct_structures(self.dm, csv_text)
            elif csv_text != first:
                found.append("CSV differs from the first op's")
            problems.append(found)
        return problems


class MatrixCI:
    """verify (member and non-member), relation_of_matrix and closure per matrix file."""

    def __init__(self, dm, manifest, out: Path, root: Path):
        self.dm, self.ops, self.warm = dm, manifest["ops"], manifest["warmup"]

    def _op(self, entry):
        dm = self.dm
        rc_member = run_cli(dm.cli, ["verify", entry["matrix"], entry["member"]])[0]
        rc_nonmember = run_cli(dm.cli, ["verify", entry["matrix"], entry["nonmember"]])[0]
        with open(entry["matrix"]) as fh:
            relation = dm.matrices.relation_of_matrix(dm.matrices.parse_matrix(fh.read()))
        with open(entry["relation"]) as fh:
            subset = dm.ci.parse_relation(fh.read())
        closed = dm.ci.closure(subset, CLOSURE_RULES)
        return rc_member, rc_nonmember, relation, subset, closed

    def warm_up(self):
        for entry in self.warm:
            self._op(entry)

    def run(self, i):
        return (i % len(self.ops),) + self._op(self.ops[i % len(self.ops)])

    def check(self, records):
        sources = {}
        problems = []
        for t, *outputs in records:
            if t not in sources:
                with open(self.ops[t]["member"]) as fh:
                    g, _ = self.dm.graphs.parse_pair_file(fh.read())
                sources[t] = self.dm.ci.relation_of_graph(g)
            problems.append(check_matrix_op(*outputs, sources[t]))
        return problems


WORKLOADS = {"analyze": Analyze, "enumerate": Enumerate, "matrix_ci": MatrixCI}
