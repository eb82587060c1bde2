"""Command-line front end: check, solve, verify, oracle, gen, reduce-hp,
extract-hp.

Output is line-oriented and deterministic; ``--json`` mirrors the same
information as a single JSON object and ``--quiet`` suppresses stdout,
leaving only the exit code.  Exit codes are stable: 0 success, 1 no
solution or invalid data, 2 usage or format error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from enum import IntEnum

from .digestgraph import build_graph, export_edges
from .generator import CutModel, InfeasibleParams, instance_from_cuts, random_instance
from .instance import (
    AssignmentCapExceeded,
    EddInstance,
    ParseError,
    label_duplicates,
    parse_instance,
    serialize_instance,
    validate_consistency,
)
from .reduction import (
    MalformedSolution,
    PathSearchCapExceeded,
    extract_path,
    parse_graph,
    reduce_graph,
)
from .solver import (
    DEFAULT_MAX_ASSIGNMENTS,
    DEFAULT_MAX_EXPANSIONS,
    SolutionFamily,
    expand_family,
    solve,
)
from .verifier import OracleCapExceeded, brute_force_solve, verify_permutation


class ExitStatus(IntEnum):
    OK = 0
    NO_SOLUTION = 1
    USAGE = 2
    CAP_EXCEEDED = 3


class _Output:
    def __init__(self, quiet: bool, as_json: bool):
        self.quiet = quiet
        self.as_json = as_json
        self.payload: dict = {}

    def line(self, text: str = ""):
        if not self.quiet and not self.as_json:
            print(text)

    def emit_json(self):
        if not self.quiet and self.as_json:
            print(json.dumps(self.payload, indent=2))


def _read_file(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _fail(message: str, code: ExitStatus) -> int:
    print(f"error: {message}", file=sys.stderr)
    return int(code)


def _load_instance(path: str) -> EddInstance:
    return parse_instance(_read_file(path))


def _parse_index_list(text: str, count: int, name: str) -> tuple[int, ...]:
    tokens = text.replace(",", " ").split()
    try:
        idx = tuple(int(t) for t in tokens)
    except ValueError:
        raise ValueError(f"{name} must be a list of integers") from None
    if sorted(idx) != list(range(1, count + 1)):
        raise ValueError(f"{name} must be a permutation of 1..{count}")
    return tuple(i - 1 for i in idx)


def _family_slots(fam: SolutionFamily) -> list:
    """The family's JSON slots, in one pass over its values and block spans."""
    values = fam.c_value_array().tolist()
    p = fam.labeled.base.p
    slots = []
    pos = 0
    for s, e, node in zip(fam.block_starts.tolist(), fam.block_ends.tolist(),
                          fam.block_attach.tolist()):
        slots.extend({"fixed": v} for v in values[pos:s])
        slots.append({"block": values[s:e],
                      "attachment": f"A{node + 1}" if node < p else f"B{node - p + 1}"})
        pos = e
    slots.extend({"fixed": v} for v in values[pos:])
    return slots


def _family_notation(slots: list) -> str:
    return " ".join("[" + " ".join(map(str, slot["block"])) + "]" if "block" in slot
                    else str(slot["fixed"]) for slot in slots)


def _solution_lines(out: _Output, inst: EddInstance, sol) -> dict:
    pa_idx = [i + 1 for i in sol.pi_a]
    pb_idx = [j + 1 for j in sol.pi_b]
    out.line("piA: " + " ".join(map(str, sol.a_values(inst))))
    out.line("piB: " + " ".join(map(str, sol.b_values(inst))))
    out.line("paIdx: " + " ".join(map(str, pa_idx)))
    out.line("pbIdx: " + " ".join(map(str, pb_idx)))
    return {"piA": list(sol.a_values(inst)), "piB": list(sol.b_values(inst)),
            "paIdx": pa_idx, "pbIdx": pb_idx, "piC": list(sol.c_values())}


def _violation_json(v, graph) -> dict | None:
    if v is None:
        return None
    return {"kind": v.kind, "witness": [graph.node_name(r) for r in v.nodes]}


def cmd_check(args, out: _Output) -> int:
    inst = _load_instance(args.file)
    report = validate_consistency(inst)
    out.payload = {"status": "ok" if report.ok else "invalid",
                   "violations": [{"rule": v.rule, "detail": v.detail}
                                  for v in report.violations]}
    if report.ok:
        out.line("ok")
    else:
        for v in report.violations:
            out.line(f"{v.rule}: {v.detail}")
    out.emit_json()
    return int(ExitStatus.OK if report.ok else ExitStatus.NO_SOLUTION)


def cmd_solve(args, out: _Output) -> int:
    inst = _load_instance(args.file)
    report = validate_consistency(inst)
    if not report.ok:
        out.payload = {"status": "inconsistent",
                       "violations": [{"rule": v.rule, "detail": v.detail}
                                      for v in report.violations]}
        for v in report.violations:
            out.line(f"{v.rule}: {v.detail}")
        out.emit_json()
        return int(ExitStatus.NO_SOLUTION)

    if args.dump_graph:
        first = next(iter(label_duplicates(inst)))
        with open(args.dump_graph, "w", encoding="utf-8") as fh:
            fh.write(export_edges(build_graph(first)))

    try:
        result = solve(inst, max_assignments=args.max_assignments)
    except AssignmentCapExceeded as err:
        out.payload = {"status": "cap-exceeded", "detail": str(err)}
        out.line(f"cap-exceeded: {err}")
        out.emit_json()
        return int(ExitStatus.CAP_EXCEEDED)

    if not result:
        reason = result.first_violation
        g = build_graph(next(iter(label_duplicates(inst))))
        out.payload = {"status": "no-solution",
                       "assignmentsTried": result.assignments_tried,
                       "violation": _violation_json(reason, g)}
        out.line("status: no-solution")
        if reason is not None:
            names = " ".join(g.node_name(r) for r in reason.nodes)
            out.line(f"reason: {reason.kind}")
            out.line(f"witness: {names}")
        out.emit_json()
        return int(ExitStatus.NO_SOLUTION)

    out.line("status: ok")
    out.line(f"assignments: {result.assignments_tried}")
    budget = args.max_solutions
    truncated = False
    fam_payload = []
    for idx, (aid, fam) in enumerate(result):
        out.line(f"assignment: {aid}")
        slots = _family_slots(fam)
        if args.emit_families:
            out.line(f"family: {_family_notation(slots)}")
        count, digits = fam.expansion_count, sys.get_int_max_str_digits()
        info = {"assignment": aid, "family": slots,
                # an exact count too long to print is left out
                "expansionCount": count if not digits or count < 10 ** digits else None,
                "expansionCountLog10": math.fsum(math.lgamma(k + 1) / math.log(10)
                                                 for k in fam.block_sizes()),
                "solutions": []}
        fam_payload.append(info)
        expand_this = args.all or idx == 0
        if expand_this and budget > 0:
            expansion = expand_family(fam, max_expansions=budget if args.all else 1)
            for i, sol in enumerate(expansion, start=1):
                out.line(f"solution: {i}")
                info["solutions"].append(_solution_lines(out, inst, sol))
            if args.all:
                budget -= len(expansion.solutions)
                if expansion.truncated:
                    truncated = True
        elif args.all:
            truncated = True
    if truncated:
        out.line("truncated: true")
    out.payload = {"status": "ok", "assignmentsTried": result.assignments_tried,
                   "families": fam_payload, "truncated": truncated}
    out.emit_json()
    return int(ExitStatus.CAP_EXCEEDED if truncated else ExitStatus.OK)


def cmd_verify(args, out: _Output) -> int:
    inst = _load_instance(args.file)
    try:
        pa = _parse_index_list(args.pa, inst.p, "--pa")
        pb = _parse_index_list(args.pb, inst.q, "--pb")
    except ValueError as err:
        return _fail(str(err), ExitStatus.USAGE)
    verdict = verify_permutation(inst, pa, pb)
    out.payload = {"valid": verdict.ok, "reason": verdict.reason}
    out.line("valid" if verdict.ok else f"invalid: {verdict.reason}")
    out.emit_json()
    return int(ExitStatus.OK if verdict.ok else ExitStatus.NO_SOLUTION)


def cmd_oracle(args, out: _Output) -> int:
    inst = _load_instance(args.file)
    try:
        solutions = brute_force_solve(inst, max_total=args.max_total)
    except OracleCapExceeded as err:
        return _fail(str(err), ExitStatus.CAP_EXCEEDED)
    out.line(f"solutions: {len(solutions)}")
    payload = []
    for i, sol in enumerate(solutions, start=1):
        out.line(f"solution: {i}")
        payload.append(_solution_lines(out, inst, sol))
    out.payload = {"solutions": payload}
    out.emit_json()
    return int(ExitStatus.OK if solutions else ExitStatus.NO_SOLUTION)


def _parse_cut_list(text: str) -> tuple[int, ...]:
    tokens = text.replace(",", " ").split()
    return tuple(int(t) for t in tokens)


def cmd_gen(args, out: _Output) -> int:
    if (args.cuts_a is None) != (args.cuts_b is None):
        return _fail("--cuts-a and --cuts-b must be given together", ExitStatus.USAGE)
    try:
        if args.cuts_a is not None:
            model = CutModel(args.total, _parse_cut_list(args.cuts_a),
                             _parse_cut_list(args.cuts_b))
            inst, _truth = instance_from_cuts(model)
            cuts_a, cuts_b = model.cuts_a, model.cuts_b
        else:
            if args.p is None or args.q is None or args.seed is None:
                return _fail("gen needs --seed, --p and --q (or explicit cuts)",
                             ExitStatus.USAGE)
            inst, truth = random_instance(args.seed, args.p, args.q, args.total,
                                          min_duplicates=args.min_duplicates,
                                          duplicate_free=args.duplicate_free)
            bounds_a = [0]
            for i in truth.pi_a[:-1]:
                bounds_a.append(bounds_a[-1] + inst.a_lengths[i])
            cuts_a = tuple(bounds_a[1:])
            bounds_b = [0]
            for j in truth.pi_b[:-1]:
                bounds_b.append(bounds_b[-1] + inst.b_lengths[j])
            cuts_b = tuple(bounds_b[1:])
    except (ValueError, InfeasibleParams) as err:
        return _fail(str(err), ExitStatus.USAGE)

    text = serialize_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        if not out.quiet and not out.as_json:
            sys.stdout.write(text)
    if args.sidecar:
        with open(args.sidecar, "w", encoding="utf-8") as fh:
            fh.write("GT-A " + " ".join(map(str, cuts_a)) + "\n")
            fh.write("GT-B " + " ".join(map(str, cuts_b)) + "\n")
    out.payload = {"instance": text, "cutsA": list(cuts_a), "cutsB": list(cuts_b)}
    out.emit_json()
    return int(ExitStatus.OK)


def cmd_reduce_hp(args, out: _Output) -> int:
    h = parse_graph(_read_file(args.graphfile))
    red = reduce_graph(h)
    lines = [serialize_instance(red.instance).rstrip("\n")]
    for i, v in enumerate(red.a_nodes, start=1):
        lines.append(f"# node A{i} = {red.node_label(v)}")
    for j, (v, copy) in enumerate(red.b_nodes, start=1):
        label = red.node_label(v) if copy == 0 else f"{red.node_label(v)}({copy})"
        lines.append(f"# node B{j} = {label}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not out.quiet and not out.as_json:
        sys.stdout.write(text)
    out.payload = {"instance": serialize_instance(red.instance),
                   "aNodes": [red.node_label(v) for v in red.a_nodes],
                   "bNodes": [red.node_label(v) if c == 0 else f"{red.node_label(v)}({c})"
                              for v, c in red.b_nodes]}
    out.emit_json()
    return int(ExitStatus.OK)


def _parse_solution_file(text: str):
    pa = pb = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if tokens[0] == "PA":
            pa = tokens[1:]
        elif tokens[0] == "PB":
            pb = tokens[1:]
        else:
            raise ValueError(f"line {line_no}: expected PA or PB line")
    if pa is None or pb is None:
        raise ValueError("solution file needs PA and PB lines")
    return " ".join(pa), " ".join(pb)


def cmd_extract_hp(args, out: _Output) -> int:
    h = parse_graph(_read_file(args.graphfile))
    red = reduce_graph(h)
    try:
        pa_text, pb_text = _parse_solution_file(_read_file(args.solutionfile))
        pa = _parse_index_list(pa_text, red.instance.p, "PA")
        pb = _parse_index_list(pb_text, red.instance.q, "PB")
    except ValueError as err:
        return _fail(str(err), ExitStatus.USAGE)
    verdict = verify_permutation(red.instance, pa, pb)
    if not verdict:
        out.payload = {"path": None, "reason": verdict.reason}
        out.line(f"invalid: {verdict.reason}")
        out.emit_json()
        return int(ExitStatus.NO_SOLUTION)
    try:
        path = extract_path(pa, h)
    except MalformedSolution as err:
        return _fail(str(err), ExitStatus.NO_SOLUTION)
    out.payload = {"path": list(path)}
    out.line("path: " + " ".join(map(str, path)))
    out.emit_json()
    return int(ExitStatus.OK)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON object")
    common.add_argument("--quiet", action="store_true", help="suppress stdout")

    parser = argparse.ArgumentParser(
        prog="edd",
        description="Reconstruct fragment orderings from enhanced double digest data.")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("check", parents=[common],
                       help="validate the consistency rules of an EDD file")
    s.add_argument("file")
    s.set_defaults(func=cmd_check)

    s = sub.add_parser("solve", parents=[common], help="find valid fragment orderings")
    s.add_argument("file")
    s.add_argument("--all", action="store_true", help="expand every family")
    s.add_argument("--max-solutions", type=int, default=DEFAULT_MAX_EXPANSIONS)
    s.add_argument("--max-assignments", type=int, default=DEFAULT_MAX_ASSIGNMENTS)
    s.add_argument("--emit-families", action="store_true",
                   help="print the compact block notation")
    s.add_argument("--dump-graph", metavar="PATH",
                   help="write the first assignment's digest graph edges")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("verify", parents=[common], help="check one candidate ordering")
    s.add_argument("file")
    s.add_argument("--pa", required=True, help="1-based A-fragment order")
    s.add_argument("--pb", required=True, help="1-based B-fragment order")
    s.set_defaults(func=cmd_verify)

    s = sub.add_parser("oracle", parents=[common],
                       help="exhaustive reference solver (small instances)")
    s.add_argument("file")
    s.add_argument("--max-total", type=int, default=12,
                   help="refuse when p + q exceeds this")
    s.set_defaults(func=cmd_oracle)

    s = sub.add_parser("gen", parents=[common], help="generate a ground-truth instance")
    s.add_argument("--total", type=int, required=True)
    s.add_argument("--seed", type=int)
    s.add_argument("--p", type=int)
    s.add_argument("--q", type=int)
    s.add_argument("--cuts-a", help="explicit first-enzyme cut positions")
    s.add_argument("--cuts-b", help="explicit second-enzyme cut positions")
    s.add_argument("--min-duplicates", type=int, default=0)
    s.add_argument("--duplicate-free", action="store_true")
    s.add_argument("--out", help="write the instance here instead of stdout")
    s.add_argument("--sidecar", help="write GT-A/GT-B cut positions here")
    s.set_defaults(func=cmd_gen)

    s = sub.add_parser("reduce-hp", parents=[common],
                       help="encode a graph's Hamiltonian-path question as an EDD file")
    s.add_argument("graphfile")
    s.add_argument("--out")
    s.set_defaults(func=cmd_reduce_hp)

    s = sub.add_parser("extract-hp", parents=[common],
                       help="recover a Hamiltonian path from a solved reduction")
    s.add_argument("graphfile")
    s.add_argument("solutionfile")
    s.set_defaults(func=cmd_extract_hp)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(ExitStatus.USAGE) if exc.code else 0
    out = _Output(args.quiet, args.json)
    try:
        return args.func(args, out)
    except ParseError as err:
        return _fail(str(err), ExitStatus.USAGE)
    except FileNotFoundError as err:
        return _fail(str(err), ExitStatus.USAGE)
    except (OracleCapExceeded, AssignmentCapExceeded, PathSearchCapExceeded) as err:
        return _fail(str(err), ExitStatus.CAP_EXCEEDED)


if __name__ == "__main__":
    sys.exit(main())
