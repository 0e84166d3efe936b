"""Tests of the benchmark itself: inputs, output checks, tracing, metric names."""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import doublemarkov
import doublemarkov.cli
import inputs
import run
import spans
import workloads
from doublemarkov import ci

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(dest: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(dest.iterdir()) if p.name != "manifest.json"}


@pytest.mark.parametrize("workload", ["analyze", "matrix_ci"])
def test_inputs_follow_the_seed(tmp_path, workload):
    first = inputs.write_inputs(workload, 11, tmp_path / "a")
    again = inputs.write_inputs(workload, 11, tmp_path / "b")
    other = inputs.write_inputs(workload, 12, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")
    assert len(first["ops"]) == len(again["ops"]) == len(other["ops"])


def test_edge_counts_keep_the_binomial_but_balance_each_block():
    m, blocks = 21, 300  # n = 7
    counts = inputs.stratified_edge_counts(random.Random(4), 7, inputs.STRATA * blocks)
    assert statistics.mean(counts) == pytest.approx(m * inputs.EDGE_PROB, abs=0.1)
    assert statistics.pvariance(counts) == pytest.approx(m * 0.25, rel=0.1)
    block_means = [statistics.mean(counts[b:b + inputs.STRATA])
                   for b in range(0, len(counts), inputs.STRATA)]
    # Independent draws would give block means a spread of about 0.51.
    assert statistics.pstdev(block_means) < 0.2


def test_graphical_matrix_inverts_a_graph_patterned_matrix():
    rng = random.Random(5)
    edges = [(1, 2), (2, 3), (1, 4)]
    sigma, strongest = inputs.graphical_matrix(rng, 4, edges)
    a = doublemarkov.rational_matrix(sigma)
    k = doublemarkov.inverse(a)
    assert all(k[i - 1, j - 1] == 0 for i, j in [(1, 3), (2, 4), (3, 4)])
    assert strongest in edges
    assert doublemarkov.relation_of_matrix(a) == ci.relation_of_graph(
        doublemarkov.Graph.from_edges(4, edges))


def test_independent_separation_matches_the_program():
    rng = random.Random(3)
    for n in (4, 5, 6):
        edges = inputs.random_graph(rng, n)
        g = doublemarkov.Graph.from_edges(n, edges)
        assert ci.Relation.from_statements(
            n, inputs.separation_statements(n, edges)) == ci.relation_of_graph(g)


def test_analyze_checks_reject_corrupted_reports(tmp_path):
    golden = (ROOT / workloads.GOLDEN_REPORT).read_bytes()
    out = tmp_path / "star.json"
    rc, _ = workloads.run_cli(doublemarkov.cli, ["analyze", str(ROOT / workloads.GOLDEN_PAIR),
                                                 "--point", "--json", str(out)])
    rep = json.loads(out.read_text())
    assert workloads.check_analyze_report(rc, rep) == []
    assert workloads.check_golden(golden, golden) == []
    changed = bytearray(golden)
    changed[len(changed) // 2] ^= 1
    assert workloads.check_golden(bytes(changed), golden)
    flipped = dict(rep, transverse_at_identity=not rep["transverse_at_identity"])
    assert workloads.check_analyze_report(rc, flipped)
    bound = rep["dimension_bound"]["correlation"]
    too_big = dict(rep, model_point=dict(rep["model_point"], local_tangent_dimension=bound + 1))
    assert workloads.check_analyze_report(rc, too_big)


def test_enumerate_checks_reject_corrupted_output(tmp_path):
    csv = tmp_path / "reps.csv"
    rc, text = workloads.run_cli(doublemarkov.cli, ["enumerate", "4", "--connected",
                                                    "--out", str(csv)])
    csv_text = csv.read_text()
    assert workloads.check_enumerate_output(rc, text, csv_text, 4) == []
    assert workloads.check_distinct_structures(doublemarkov, csv_text) == []
    assert workloads.check_enumerate_output(rc, "count=54\n", csv_text, 4)
    lines = csv_text.splitlines(keepends=True)
    assert workloads.check_enumerate_output(rc, text, "".join(lines[:-1]), 4)
    duplicated = "".join(lines[:-1] + [lines[1]])
    assert workloads.check_distinct_structures(doublemarkov, duplicated)


def _matrix_entry(tmp_path, n, exact, seed):
    case = inputs.matrix_case(random.Random(seed), n, exact)
    entry = {}
    for key in inputs.MATRIX_FILE_KEYS:
        path = tmp_path / f"{seed}.{key}"
        path.write_text(case[key])
        entry[key] = str(path)
    return entry


@pytest.mark.parametrize("n,exact", [(5, False), (4, True)])
def test_matrix_checks_reject_corrupted_output(tmp_path, n, exact):
    entry = _matrix_entry(tmp_path, n, exact, seed=n)
    wl = workloads.MatrixCI(doublemarkov, {"ops": [entry], "warmup": []}, tmp_path, ROOT)
    record = wl.run(0)
    assert wl.check([record]) == [[]]
    _, rc_member, rc_nonmember, relation, subset, closed = record
    source = relation
    flipped = ci.Relation(relation.n, relation.bits ^ 1)
    assert workloads.check_matrix_op(rc_member, rc_nonmember, flipped, subset, closed, source)
    outside = next(b for b in range(ci.num_statements(n)) if not source.bits >> b & 1)
    grown = ci.Relation(n, closed.bits | 1 << outside)
    assert workloads.check_matrix_op(rc_member, rc_nonmember, relation, subset, grown, source)
    assert workloads.check_matrix_op(1, rc_nonmember, relation, subset, closed, source)
    assert workloads.check_matrix_op(rc_member, 0, relation, subset, closed, source)


def test_self_times_add_up_to_the_op_and_uninstall_restores(tmp_path):
    tracer = spans.Tracer()
    closure = ci.closure
    tracer.install(doublemarkov)
    try:
        entry = _matrix_entry(tmp_path, 5, False, seed=1)
        wl = workloads.MatrixCI(doublemarkov, {"ops": [entry], "warmup": []}, tmp_path, ROOT)
        tracer.op(wl.run, 0)
        tracer.op(workloads.run_cli, doublemarkov.cli,
                  ["analyze", str(ROOT / workloads.GOLDEN_PAIR), "--point"])
    finally:
        tracer.uninstall()
    assert ci.closure is closure
    layer = tracer.per_layer(2)
    self_ms = sum(v for k, v in layer.items() if k.endswith("self_ms"))
    assert self_ms == pytest.approx(layer["trace.op_ms"], rel=1e-9)
    assert layer["ci.closure.self_ms"] > 0 and layer["geometry.find_model_point.self_ms"] > 0
    assert layer["matrices.det.calls"] > 0


class _FakeRunner:
    """Stands in for worker processes so the metric assembly runs in-process."""

    def __init__(self, per_layer):
        self.per_layer = per_layer

    def worker(self, mode, seconds=0.0, max_ops=None):
        ready = {"import_s": 0.3, "warmup_s": 0.2}
        if mode == "setup":
            return 0.5, ready, {"calibration_s": [0.003]}
        return 0.5, ready, {"ops": 4, "latencies_s": [0.4, 0.5, 0.5, 0.6],
                            "references_s": [0.003] * 4, "calibration_s": [0.003],
                            "peak_rss_mb": 80.0, "attempted": 4, "failed": 0,
                            "per_layer": self.per_layer if mode == "trace" else None}

    def importtime_scipy_ms(self):
        return 300.0


def test_metric_names_match_benchmark_json():
    declared = {kind: {m["name"] for m in BENCHMARK[kind]}
                for kind in ("end_to_end", "per_layer")}
    fake = _FakeRunner(spans.Tracer().per_layer(1))
    assert set(run.end_to_end(fake, 1.0)[0]) == declared["end_to_end"]
    assert set(run.per_layer(fake, 1.0)[0]) == declared["per_layer"]


def test_scaled_times_follow_the_machine_speed():
    nominal = run.REF_NOMINAL_S
    # The machine halves its speed midway: ops and references slow alike.
    scaled = run.scaled([0.01] * 20 + [0.02] * 20, [nominal] * 20 + [2 * nominal] * 20)
    assert scaled[:10] == pytest.approx([0.01] * 10)
    assert scaled[-10:] == pytest.approx([0.01] * 10)
    # One disturbed reference moves nothing.
    references = [nominal] * 20
    references[5] *= 10
    assert run.scaled([0.01] * 20, references) == pytest.approx([0.01] * 20)
    # A single time (a set-up) is scaled by the median of its references.
    assert run.scaled([1.0], [2 * nominal, 2 * nominal, 9 * nominal]) == pytest.approx([0.5])


def test_scipy_import_time_counts_outermost_scipy_modules():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy",
        "import time:        10 |         10 |         scipy.version",
        "import time:        50 |         60 |       scipy",
        "import time:        40 |        100 |     scipy.linalg",
        "import time:        20 |        220 |   doublemarkov.matrices",
        "import time:         5 |          5 |   scipy.special",
    ])
    assert run.scipy_import_ms(log) == pytest.approx(0.105)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "analyze",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
