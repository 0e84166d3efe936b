"""Command line front end.

Subcommands: analyze (full report for a graph pair), enumerate (count
inequivalent CI structures), verify (matrix membership), closure (Horn
closure of a relation file).

Exit codes: 0 success / member, 1 non-member or no verdict, 2 usage or
input errors, 3 resource exhaustion (the size budgets of analyze, closure and
enumerate).
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from . import ci, classify, geometry, graphs, ideal, matrices
from .errors import BudgetExceeded, NotPositiveDefinite, UniquePathRequired


@dataclasses.dataclass
class ModelReport:
    """Everything cmd_analyze computes, JSON-serializable and reproducible."""

    input: dict
    decomposition: dict
    dimension_bound: dict
    union_complete: bool
    transverse_at_identity: bool
    connectedness_certificate: dict
    ci: dict
    ideal: dict
    classification: dict | None
    model_point: dict | None

    def to_json(self) -> str:
        """json.dumps(vars(self), sort_keys=True, indent=2) and a newline.

        The violation rows, the one large list, are spliced in through the row
        template where an empty list stands in for them in the dump; a report
        whose rows are empty or off-shape, or whose dump shows the stand-in
        more than once, is dumped as it is.
        """
        inner = "\n      "  # the rows sit three levels down: report, ci, violations
        items = _violation_rows_json(self.ci["violations"], inner)
        if items:
            key = '\n    "violations": '
            parts = json.dumps({**vars(self), "ci": {**self.ci, "violations": []}},
                               sort_keys=True, indent=2).split(key + "[]")
            if len(parts) == 2:
                return f"{parts[0]}{key}[{inner}{(',' + inner).join(items)}\n    ]{parts[1]}\n"
        return json.dumps(vars(self), sort_keys=True, indent=2) + "\n"


def _violation_rows_json(x, inner: str) -> list[str] | None:
    """The items of x through one row template, or None unless every item is
    {"missing": [str, ...], "premises": [str, ...], "rule": str} with both lists non-empty."""
    key, cell = inner + "  ", inner + "    "  # K, C and I below: key, cell and item indents
    row = ('{K"missing": [C%sK],K"premises": [C%sK],K"rule": %sI}'
           .replace("K", key).replace("C", cell).replace("I", inner))
    sep, enc = "," + cell, encode_basestring_ascii
    try:  # TypeError: a cell that is not a str, or an x that is not a container
        items = [row % (sep.join(map(enc, v["missing"])), sep.join(map(enc, v["premises"])),
                        enc(v["rule"]))
                 for v in x if type(v) is dict and v.keys() == {"missing", "premises", "rule"}
                 and type(v["missing"]) is list and v["missing"]
                 and type(v["premises"]) is list and v["premises"]]
    except TypeError:
        return None
    return items if len(items) == len(x) else None


def _violation_entries(relation: ci.Relation) -> list[dict]:
    """check_axioms(relation) as report entries of statement texts, with no Statement built."""
    text = ci._statement_texts(relation.n)
    return [{"rule": rule, "premises": [text[s] for s in ps], "missing": [text[s] for s in ms]}
            for rule, prems, missing in ci._violation_rows(relation)
            for ps, ms in zip(prems, missing)]


def _edge_list(g: graphs.Graph) -> list[list[int]]:
    return [list(e) for e in g.edges]


# analyze and closure build rule tables that more than double with every
# vertex.  The star/path report takes 0.10 s and 58 MB at n = 11, 0.27 s and
# 101 MB at n = 12 and 0.64 s and 208 MB at n = 13; closure of one statement
# under semigraphoid, intersection and composition, with its rules-fired
# line, takes 0.03 s and 47 MB at n = 11 and 0.08 s and 75 MB at n = 12
# (fastest of three processes, after import; 2-vCPU host).  At n = 16 each
# needs more than a gigabyte.
MAX_TABLE_N = 12


def _check_budget(command: str, n: int):
    if n > MAX_TABLE_N:
        raise BudgetExceeded(f"{command} is limited to n <= {MAX_TABLE_N} vertices, got n = {n}"
                             f" (its tables more than double with every vertex)")


def build_report(g, h, seed: int = 0, want_point: bool = False) -> ModelReport:
    _check_budget("analyze", g.n)
    dec = geometry.decompose(g, h)
    bounds = geometry.dimension_bound(g, h)
    union_complete = graphs.edge_union(g, h).num_edges == g.n * (g.n - 1) // 2
    cert = geometry.connectedness_certificate(g, h)
    relation = ci.double_markov_relation(g, h)
    violations = _violation_entries(relation)
    ci_part = {"relation_size": len(relation), "gaussoid": not violations, "violations": violations}
    unique = cert.kind == "UniquePath"  # the certificate tests unique_path_hypothesis first
    ideal_part = {"unique_path": unique}
    if unique:
        gens = ideal.sci_monomial_generators(g, h)
        ideal_part["generators"] = gens.generator_strings()
    shared = graphs.edge_intersection(g, h)
    classification = None
    if shared.num_edges <= 3:
        try:
            desc = classify.classify_small_intersection(g, h)
            classification = {
                "case": desc.case,
                "support": list(desc.support),
                "swapped": desc.swapped,
                "dimension": desc.dimension,
                "component_count": desc.component_count,
                "families": [
                    {"name": f.name, "params": list(f.params),
                     "entries": {f"{i},{j}": e for (i, j), e in sorted(f.entries.items())},
                     "domain": f.domain}
                    for f in desc.families
                ],
            }
        except ValueError as e:
            classification = {"case": "unclassified", "reason": str(e)}
    point_part = None
    if want_point:
        res = geometry.find_model_point(g, h, seed=seed)
        point_part = {
            "converged": res.converged,
            "residual": res.residual,
            "seed": res.seed,
            "restarts_used": res.restarts_used,
        }
        if res.converged:
            point_part["matrix"] = [[repr(float(x)) for x in row] for row in res.matrix]
            point_part["local_tangent_dimension"] = geometry.local_tangent_dimension(res.matrix, g, h)
    return ModelReport(
        input={"n": g.n, "G": _edge_list(g), "H": _edge_list(h)},
        decomposition={"blocks": [list(b) for b in dec.blocks]},
        dimension_bound={"model": bounds[0], "correlation": bounds[1]},
        union_complete=union_complete,
        transverse_at_identity=union_complete,  # equivalent: test_criterion_6_transversality
        connectedness_certificate={"kind": cert.kind, "witness": cert.witness},
        ci=ci_part,
        ideal=ideal_part,
        classification=classification,
        model_point=point_part,
    )


def _print_report(rep: ModelReport):
    p = sys.stdout.write
    inp = rep.input
    p(f"model of G, H on {inp['n']} vertices\n")
    p(f"  blocks: {' '.join('{' + ' '.join(map(str, b)) + '}' for b in rep.decomposition['blocks'])}\n")
    p(f"  dimension bound: model <= {rep.dimension_bound['model']}, "
      f"correlation <= {rep.dimension_bound['correlation']}\n")
    p(f"  union complete: {rep.union_complete}; "
      f"transverse at identity: {rep.transverse_at_identity}\n")
    cert = rep.connectedness_certificate
    witness = f"({cert['witness']})" if cert["witness"] is not None else ""
    p(f"  connectedness certificate: {cert['kind']}{witness}\n")
    p(f"  CI relation: {rep.ci['relation_size']} statements, "
      f"gaussoid: {rep.ci['gaussoid']}\n")
    violations = rep.ci["violations"]
    for v in violations[:10]:
        p(f"    violated {v['rule']}: {ci._violation_text(**v)}\n")
    if len(violations) > 10:
        p(f"    ... {len(violations) - 10} more\n")
    if rep.ideal.get("unique_path"):
        p("  ideal generators:\n")
        for s in rep.ideal["generators"]:
            p(f"    {s}\n")
    else:
        p("  unique-path hypothesis fails; no monomial ideal reported\n")
    if rep.classification:
        c = rep.classification
        if c.get("case") == "unclassified":
            p(f"  classification: {c['reason']}\n")
        else:
            p(f"  classification: {c['case']} on support {c['support']}"
              f"{' (graphs swapped)' if c['swapped'] else ''}, "
              f"dimension {c['dimension']}, {c['component_count']} component(s)\n")
    if rep.model_point:
        mp = rep.model_point
        p(f"  model point: converged={mp['converged']} residual={mp['residual']:.3e}\n")
        if mp["converged"]:
            p(f"    local tangent dimension (correlation): {mp['local_tangent_dimension']}\n")


def cmd_analyze(args) -> int:
    with open(args.pair_file) as fh:
        g, h = graphs.parse_pair_file(fh.read())
    rep = build_report(g, h, seed=args.seed, want_point=args.point)
    _print_report(rep)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(rep.to_json())
    return 0


def cmd_enumerate(args) -> int:
    res = classify.enumerate_inequivalent(args.n, connected_only=args.connected)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("canonical_hex,n,rep_G_edges,rep_H_edges\n")
            for key, g, h in res.representatives:
                fh.write(f"{key.hex()},{res.n},{graphs._edge_text(g)},{graphs._edge_text(h)}\n")
    print(f"count={res.count}")
    return 0


def cmd_verify(args) -> int:
    with open(args.matrix_file) as fh:
        a = matrices.parse_matrix(fh.read())
    with open(args.pair_file) as fh:
        g, h = graphs.parse_pair_file(fh.read())
    matrices._check_tol(args.tol)
    try:
        res, member, *_ = matrices._membership(a, g, h, args.tol)
    except NotPositiveDefinite:
        _non_pd_diagnostics(a)
        return 1
    try:
        rmax = float(max(map(abs, res.tolist()), default=0.0))
    except OverflowError:  # an exact residual beyond the float range
        rmax = math.inf
    print(f"max residual: {rmax:.6e}")
    print("member" if member else "not a member")
    return 0 if member else 1


def _non_pd_diagnostics(a):
    print("not positive definite")
    n = a.shape[0]
    # the test that refused a, on a as parsed, so exact stays exact
    order = next((k for k in range(1, n) if not matrices._is_pd(a[:k, :k])), n)
    print(f"first failing leading principal minor: order {order}")
    try:
        af = a.astype(float)
    except OverflowError:  # an exact entry beyond the float range
        print("entries exceed the float range: no minor diagnostics")
        return
    print(f"determinant: {matrices.det(af):.17g}")
    if n <= 12:
        # each minor against the product of its diagonal entries, the scale of
        # relation_of_matrix, so the verdicts survive positive diagonal rescaling
        diag = np.abs(np.diag(af))
        subsets = [list(S) for r in range(1, n) for S in itertools.combinations(range(n), r)]
        vanished = sum(abs(matrices.det(af[np.ix_(S, S)])) <= 1e-9 * diag[S].prod()
                       for S in subsets)
        kind = "all nonzero" if vanished == 0 else f"{vanished} vanish"
        print(f"proper principal minors: {len(subsets)} checked, {kind}")


def cmd_closure(args) -> int:
    with open(args.relation_file) as fh:
        r = ci.parse_relation(fh.read())
    _check_budget("closure", r.n)
    rules = tuple(args.rules.split(",")) if args.rules != "all" else ci.HORN_RULES
    closed = ci.closure(r, rules)
    for s in closed.statements():
        print(repr(s))
    used = ci._rules_fired(r, closed, rules)
    print(f"# {len(closed)} statements; rules fired: {', '.join(used) or 'none'}")
    return 0


@lru_cache(maxsize=1)
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="doublemarkov",
        description="Analyze Gaussian double Markovian models of a graph pair.")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="full report for a graph pair file")
    pa.add_argument("pair_file")
    pa.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--point", action="store_true",
                    help="search for a numerical model point")
    pa.set_defaults(func=cmd_analyze)

    pe = sub.add_parser("enumerate", help="count inequivalent CI structures")
    pe.add_argument("n", type=int)
    pe.add_argument("--connected", action="store_true",
                    help="restrict to pairs of connected graphs")
    pe.add_argument("--out", metavar="CSV", help="write representatives as CSV")
    pe.set_defaults(func=cmd_enumerate)

    pv = sub.add_parser("verify", help="check matrix membership in a model")
    pv.add_argument("matrix_file")
    pv.add_argument("pair_file")
    pv.add_argument("--tol", type=float, default=matrices.DEFAULT_TOL)
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("closure", help="Horn closure of a relation file")
    pc.add_argument("relation_file")
    pc.add_argument("--rules", default="semigraphoid",
                    help="comma list of semigraphoid,intersection,composition,rule17 or 'all'")
    pc.set_defaults(func=cmd_closure)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (NotPositiveDefinite, UniquePathRequired, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
