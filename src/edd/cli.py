"""Command-line front end: check, solve, verify, oracle, gen, reduce-hp,
extract-hp.

Output is line-oriented and deterministic; ``--json`` mirrors the same
information as a single JSON object and ``--quiet`` suppresses stdout,
leaving only the exit code.  Exit codes are stable: 0 success, 1 no
solution or invalid data, 2 usage or format error, 3 cap exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import nullcontext
from enum import IntEnum
from itertools import chain, islice, product, repeat
from operator import itemgetter

import numpy as np

from .digestgraph import build_graph, export_edges
from .generator import CutModel, InfeasibleParams, instance_from_cuts, random_instance
from .instance import (
    AssignmentCapExceeded,
    EddInstance,
    ParseError,
    _SENTINEL_BYTES,
    _labeling_plan,
    parse_instance,
    serialize_instance,
    validate_consistency,
)
from .reduction import (
    MalformedSolution,
    PathSearchCapExceeded,
    ReductionCapExceeded,
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
from .verifier import OracleCapExceeded, _is_permutation, brute_force_solve, verify_permutation


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


def _read_file(path: str, ascii_bytes: bool = False) -> str | bytearray:
    """The text of a file as text-mode ``open`` gives it (UTF-8, universal
    newlines), read once with ``readinto``.  With ``ascii_bytes`` an ASCII
    file comes undecoded, in a bytearray with room for the sentinels that
    ``parse_instance`` appends."""
    with open(path, "rb", buffering=0) as fh:
        buf, size = bytearray(os.fstat(fh.fileno()).st_size + _SENTINEL_BYTES), 0
        while True:
            if size == len(buf):   # a pipe, or a file that grew
                buf += bytes(size + 4096)
            with memoryview(buf)[size:] as rest:
                if not (got := fh.readinto(rest)):
                    break
            size += got
    del buf[size:]
    if ascii_bytes and buf.isascii():
        return buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in buf else buf
    try:
        text = buf.decode("utf-8")
    except UnicodeDecodeError as err:
        data, at = err.object, err.start
        line, column = data.count(b"\n", 0, at) + 1, at - data.rfind(b"\n", 0, at)
        message = f"{path} is not UTF-8: byte 0x{data[at]:02x} at column {column}"
        raise ParseError(line, message) from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _fail(message: str, code: ExitStatus) -> int:
    print(f"error: {message}", file=sys.stderr)
    return int(code)


def _load_instance(path: str) -> EddInstance:
    return parse_instance(_read_file(path, ascii_bytes=True))


def _parse_index_list(text: str, count: int, name: str) -> np.ndarray:
    """A 1-based permutation of 1..count as 0-based int64 indices.

    Text of only digits, spaces and commas is read by one
    ``np.fromstring``; any other text token by token with ``int()``.  A
    number past int64 reads as 2^63 - 1 in the first and overflows in
    the second, and either way is not an index.
    """
    spaced = text.replace(",", " ")
    if spaced.isascii() and not spaced.encode().translate(None, b"0123456789 "):
        idx = np.fromstring(spaced, dtype=np.int64, sep=" ") - 1   # " " reads as [0]: no permutation
    else:
        try:
            idx = np.array(list(map(int, spaced.split())), dtype=np.int64) - 1
        except ValueError:
            raise ValueError(f"{name} must be a list of integers") from None
        except OverflowError:   # beyond int64, so not an index
            idx = None
    if idx is None or not _is_permutation(idx, count):
        raise ValueError(f"{name} must be a permutation of 1..{count}")
    return idx


def _read_orders(path: str, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The PA and PB lines of a solution file as 0-based index arrays."""
    found = {}
    for line_no, raw in enumerate(_read_file(path).splitlines(), start=1):
        parts = raw.split("#", 1)[0].split(None, 1)
        if not parts:
            continue
        if parts[0] not in ("PA", "PB"):
            raise ValueError(f"line {line_no}: expected PA or PB line")
        if parts[0] in found:
            raise ValueError(f"line {line_no}: duplicate {parts[0]} line")
        found[parts[0]] = parts[1] if len(parts) > 1 else ""
    if len(found) < 2:
        raise ValueError("solution file needs PA and PB lines")
    return _parse_index_list(found["PA"], p, "PA"), _parse_index_list(found["PB"], q, "PB")


def _family_slots(fam: SolutionFamily, values: list) -> list:
    """The family's JSON slots, in one pass over its values and block spans."""
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


def _text(values) -> str:
    """A sequence of Python ints as decimal text, one space apart.

    The one formatting kernel of the CLI: a template of one ``%d`` per
    value, filled by one ``%``.  ``%d`` writes each value's digits into
    the result string, where joining each value's ``str`` first makes an
    object per value: 1.7 against 2.7 ms for 20,000 ints of 45 bits
    (CPython 3.11 on a 2-core shared Xeon VM), and no allocation per
    value."""
    return " ".join(["%d"] * len(values)) % tuple(values)


_BRACKET_CODES = np.array(["%d", "[%d", "%d]", "[%d]"], dtype=object)   # by start + 2 * end


def _family_notation(fam: SolutionFamily, values: list) -> str:
    """Fixed values as they are, each block's values in brackets: one
    code per position, from whether a block starts or ends there."""
    code = np.zeros(len(values), dtype=np.intp)
    code[fam.block_starts] = 1
    code[fam.block_ends - 1] += 2
    return " ".join(_BRACKET_CODES[code].tolist()) % tuple(values)


def _printable_count(fam: SolutionFamily, log10: float) -> int | None:
    """The family's exact expansion count, or None when it has more
    digits than ``int`` may print (``sys.get_int_max_str_digits()``).
    ``log10`` decides first, with a digit to spare, so that a count too
    long to print is never built: 200,000! takes about half a second."""
    digits = sys.get_int_max_str_digits()
    if digits and log10 >= digits + 1:
        return None
    count = fam.expansion_count
    return count if not digits or count < 10 ** digits else None


def _layout_tokens(inst: EddInstance, pi_a: np.ndarray, pi_b: np.ndarray,
                   c_values: np.ndarray | None = None) -> list[np.ndarray]:
    """A layout's lines as token arrays: piA, piB, paIdx, pbIdx (and piC under --json)."""
    a_len, b_len = inst._length_arrays()
    tokens = [a_len[pi_a], b_len[pi_b], pi_a + 1, pi_b + 1]
    return tokens if c_values is None else tokens + [c_values]


_LINE_NAMES = ("piA", "piB", "paIdx", "pbIdx", "piC")
_BATCH_CHARS = 1 << 16   # of records per batch of a streamed block's texts


def _write_layouts(inst: EddInstance, expansion, write) -> None:
    """Write the layouts of ``expansion`` as text records, numbered from 1.

    The record is formatted once, with a hole for each segment of a
    varying block: its values in piA or piB, its indices in paIdx or
    pbIdx.  Per run of ``expansion.groups``, the outer blocks' holes are
    filled in and the text is cut around the inner ones'.  The inner
    holes' texts are columns over the product of the inner blocks,
    made once, or per batch of about ``_BATCH_CHARS`` characters where
    the streamed first block is inner.  Each record is one join of the
    pieces, its number and its texts, and is its own write: batches
    joined into one string made an ``io.StringIO`` stdout fault in about
    540 fresh pages per call of 8,640 layouts, and records of 300
    characters none."""
    fam, lab, varying = expansion.family, expansion.family.labeled, expansion.varying
    which, at = (a.tolist() for a in fam.block_segments()) if varying else ((), ())
    template, holes = "", []   # holes: (place in varying, 0 values or 1 indices), in text order
    chars = 0   # of a record's hole texts, the same in every layout
    for li, tokens in enumerate(_layout_tokens(inst, *fam.induced_index_arrays())):
        line = tokens.tolist()
        codes = ["%d"] * len(line)
        here = [(v, k) for v, k in enumerate(varying) if which[k] == li % 2]   # piA, paIdx: pi_a's
        for v, k in reversed(here):
            seg = slice(at[k], at[k] + fam.block_ends[k] - fam.block_starts[k])
            chars += len(_text(line[seg]))
            del line[seg]
            codes[seg] = ["%%s"]   # the hole, left as %s by the line's own %
        holes += [(v, li // 2) for v, _k in here]
        template += f"\n{_LINE_NAMES[li]}: " + " ".join(codes) % tuple(line)
        del line, codes   # one line's tokens at a time
    template += "\n"
    if not varying:
        write("solution: 1" + template)
        return
    owners = (lab.a_owners, lab.b_owners)

    def texts(k: int, members: np.ndarray) -> tuple[str, str]:
        return _text(lab.values[members].tolist()), _text((owners[which[k]][members] + 1).tolist())

    inner, runs = expansion.groups(texts)
    outer = len(varying) - len(inner)
    streamed = int(not outer)   # the first varying block is inner, and its views stream
    per = math.prod(map(len, inner[streamed:]))   # layouts per streamed view, or per run
    cut = [(v - outer, kind) for v, kind in holes if v >= outer]   # the inner holes
    by_block = [None] * streamed + list(zip(*product(*inner[streamed:])))
    full = [by_block[j] and list(map(itemgetter(kind), by_block[j])) for j, kind in cut]
    heads = max(1, _BATCH_CHARS // ((len(template) + chars) * per))   # streamed views per batch
    number = 0
    for views, size in runs:
        row = [*views, *repeat(("\0", "\0"), len(inner))]   # inner holes: where the text is cut
        pieces = (f"solution: \0{template}" % tuple([row[v][kind] for v, kind in holes])).split("\0")
        for lo in range(0, size, per * heads):
            columns = full
            if streamed:   # each streamed text for per layouts, the later blocks' product for each
                batch = list(islice(inner[0], heads))
                columns = [column * len(batch) if column else
                           chain.from_iterable(map(repeat, map(itemgetter(kind), batch), repeat(per)))
                           for column, (_j, kind) in zip(full, cut)]
            numbers = _text(range(number + lo + 1, number + min(size, lo + per * heads) + 1)).split(" ")
            slots = [*chain.from_iterable(zip(map(repeat, pieces), [numbers, *columns])), repeat(pieces[-1])]
            for record in map("".join, zip(*slots)):   # a piece before each number and text
                write(record)
        number += size


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
        with open(args.dump_graph, "w", encoding="utf-8") as fh:
            fh.write(export_edges(build_graph(_labeling_plan(inst)[0])))

    try:
        result = solve(inst, max_assignments=args.max_assignments)
    except AssignmentCapExceeded as err:
        out.payload = {"status": "cap-exceeded", "detail": str(err)}
        out.line(f"cap-exceeded: {err}")
        out.emit_json()
        return int(ExitStatus.CAP_EXCEEDED)

    if not result:
        reason = result.first_violation
        g = build_graph(result.violation_labeling) if reason is not None else None
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
    show = not out.quiet   # --quiet builds no family or layout text
    for idx, (aid, fam) in enumerate(result):
        out.line(f"assignment: {aid}")
        values = (fam.c_value_array().tolist()
                  if show and (out.as_json or args.emit_families) else None)
        if args.emit_families and show:
            out.line(f"family: {_family_notation(fam, values)}")
        info: dict = {}
        if out.as_json and show:
            log10 = math.fsum(math.lgamma(k + 1) / math.log(10) for k in fam.block_sizes())
            info = {"assignment": aid, "family": _family_slots(fam, values),
                    "expansionCount": _printable_count(fam, log10),
                    "expansionCountLog10": log10, "solutions": []}
            fam_payload.append(info)
        if (args.all or idx == 0) and budget > 0:
            expansion = expand_family(fam, max_expansions=budget if args.all else 1)
            if out.as_json and show:
                for pi_a, pi_b, c_order in expansion:
                    tokens = _layout_tokens(inst, pi_a, pi_b, fam.labeled.values[c_order])
                    info["solutions"].append(dict(zip(_LINE_NAMES, (t.tolist() for t in tokens))))
            elif show:
                _write_layouts(inst, expansion, sys.stdout.write)
            if args.all:
                budget -= len(expansion)
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
    if args.orders is not None and (args.pa, args.pb) != (None, None):
        return _fail("--orders cannot be combined with --pa/--pb", ExitStatus.USAGE)
    if args.orders is None and None in (args.pa, args.pb):
        return _fail("verify needs --pa and --pb, or --orders", ExitStatus.USAGE)
    inst = _load_instance(args.file)
    try:
        if args.orders is not None:
            pa, pb = _read_orders(args.orders, inst.p, inst.q)
        else:
            pa = _parse_index_list(args.pa, inst.p, "--pa")
            pb = _parse_index_list(args.pb, inst.q, "--pb")
    except ValueError as err:
        return _fail(str(err), ExitStatus.USAGE)
    verdict = verify_permutation(inst, pa, pb, checked=True)
    out.payload = {"valid": verdict.ok, "reason": verdict.reason}
    out.line("valid" if verdict.ok else f"invalid: {verdict.reason}")
    out.emit_json()
    return int(ExitStatus.OK if verdict.ok else ExitStatus.NO_SOLUTION)


def cmd_oracle(args, out: _Output) -> int:
    inst = _load_instance(args.file)
    solutions = brute_force_solve(inst, max_total=args.max_total)
    out.line(f"solutions: {len(solutions)}")
    payload = []
    fmt = list if out.as_json else _text
    for i, sol in enumerate(solutions, start=1):
        tokens = _layout_tokens(inst, np.array(sol.pi_a, dtype=np.int64),
                                np.array(sol.pi_b, dtype=np.int64),
                                np.array(sol.c_values()) if out.as_json else None)
        lines = [fmt(line.tolist()) for line in tokens]
        if out.as_json:
            payload.append(dict(zip(_LINE_NAMES, lines)))
        else:
            out.line("\n".join([f"solution: {i}", *map("{}: {}".format, _LINE_NAMES, lines)]))
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
            a_len, b_len = inst._length_arrays()
            cuts_a = np.cumsum(a_len[list(truth.pi_a)])[:-1].tolist()
            cuts_b = np.cumsum(b_len[list(truth.pi_b)])[:-1].tolist()
    except (ValueError, InfeasibleParams) as err:
        return _fail(str(err), ExitStatus.USAGE)

    text = serialize_instance(inst)
    # the sidecar opens first, so that one that cannot be written fails before any output
    with open(args.sidecar, "w", encoding="utf-8") if args.sidecar else nullcontext() as side:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        elif not out.quiet and not out.as_json:
            sys.stdout.write(text)
        if side:
            side.write(f"GT-A {_text(cuts_a)}\nGT-B {_text(cuts_b)}\n")
    out.payload = {"instance": text, "cutsA": list(cuts_a), "cutsB": list(cuts_b)}
    out.emit_json()
    return int(ExitStatus.OK)


def cmd_reduce_hp(args, out: _Output) -> int:
    h = parse_graph(_read_file(args.graphfile))
    red = reduce_graph(h)
    if out.quiet and not args.out:
        return int(ExitStatus.OK)
    instance_text = serialize_instance(red.instance)
    lines = [instance_text.rstrip("\n")]
    for i, v in enumerate(red.a_nodes, start=1):
        lines.append(f"# node A{i} = {red.node_label(v)}")
    b_labels = [red.node_label(v) if c == 0 else f"{red.node_label(v)}({c})"
                for v, c in red.b_nodes]
    lines += [f"# node B{j} = {label}" for j, label in enumerate(b_labels, start=1)]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    elif not out.quiet and not out.as_json:
        sys.stdout.write(text)
    out.payload = {"instance": instance_text,
                   "aNodes": [red.node_label(v) for v in red.a_nodes],
                   "bNodes": b_labels}
    out.emit_json()
    return int(ExitStatus.OK)


def cmd_extract_hp(args, out: _Output) -> int:
    h = parse_graph(_read_file(args.graphfile))
    red = reduce_graph(h)
    try:
        pa, pb = _read_orders(args.solutionfile, red.instance.p, red.instance.q)
    except ValueError as err:
        return _fail(str(err), ExitStatus.USAGE)
    verdict = verify_permutation(red.instance, pa, pb, checked=True)
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
    out.line("path: " + _text(path))
    out.emit_json()
    return int(ExitStatus.OK)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one line, like the commands' own errors."""

    def error(self, message):
        self.exit(int(ExitStatus.USAGE), f"error: {message}\n")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it unchanged, so
    every ``main`` call after the first reuses it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON object")
    common.add_argument("--quiet", action="store_true", help="suppress stdout")

    parser = _Parser(
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
    s.add_argument("--max-solutions", type=_int_at_least(0), default=DEFAULT_MAX_EXPANSIONS)
    s.add_argument("--max-assignments", type=_int_at_least(1), default=DEFAULT_MAX_ASSIGNMENTS)
    s.add_argument("--emit-families", action="store_true",
                   help="print the compact block notation")
    s.add_argument("--dump-graph", metavar="PATH",
                   help="write the first assignment's digest graph edges")
    s.set_defaults(func=cmd_solve)

    s = sub.add_parser("verify", parents=[common], help="check one candidate ordering")
    s.add_argument("file")
    s.add_argument("--pa", help="1-based A-fragment order")
    s.add_argument("--pb", help="1-based B-fragment order")
    s.add_argument("--orders", metavar="ORDERS",
                   help="read both orders from a file of PA and PB lines instead")
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
    except OSError as err:   # a file that cannot be read or written
        return _fail(str(err), ExitStatus.USAGE)
    except (OracleCapExceeded, AssignmentCapExceeded, PathSearchCapExceeded,
            ReductionCapExceeded) as err:
        return _fail(str(err), ExitStatus.CAP_EXCEEDED)


if __name__ == "__main__":
    sys.exit(main())
