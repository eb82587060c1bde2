"""The eager expansion and per-layout printing that `edd solve` used
before it streamed layouts from the family's block structure, kept as
the reference for the equivalence tests: `induced_permutation` groups a
C-ordering into its Solution, `reference_expand_family` holds every
layout as one, `reference_solution_lines` formats one from its
Solution, `reference_family_notation` writes a family in the bracket
notation token by token, and `reference_cmd_solve` is the `solve`
command built on them."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from edd.cli import (
    ExitStatus,
    _family_slots,
    _load_instance,
    _Output,
    _violation_json,
)
from edd.digestgraph import build_graph, export_edges
from edd.instance import (
    AssignmentCapExceeded,
    CPermutation,
    EddInstance,
    LabeledInstance,
    label_duplicates,
    validate_consistency,
)
from edd.solver import (
    DEFAULT_MAX_EXPANSIONS,
    Solution,
    SolutionFamily,
    _dedupe_runs,
    solve,
)


def induced_permutation(pc: CPermutation, inst: LabeledInstance) -> Solution:
    """Group a C-ordering into its fragment orders (pi_a, pi_b).

    Maximal runs sharing an owner, read from the ordering's owner
    columns, become that owner's slot.  An owner split across runs
    raises NotConsecutiveError, naming the smallest split A-owner, else
    the smallest split B-owner.
    """
    if len(pc) != inst.n:
        raise ValueError("ordering does not cover C")
    pi_a = _dedupe_runs(pc.columns[1], inst.base.p, "A")
    pi_b = _dedupe_runs(pc.columns[2], inst.base.q, "B")
    return Solution(tuple(pi_a.tolist()), tuple(pi_b.tolist()), pc)


@dataclass(eq=False)
class ReferenceExpansion:
    solutions: tuple[Solution, ...]
    truncated: bool

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)


def _next_permutation(arr: list[int]) -> bool:
    """Step ``arr`` to its next lexicographic ordering in place, equal
    items counting as one; past the last one, reset it to ascending and
    return False."""
    i = len(arr) - 2
    while i >= 0 and arr[i] >= arr[i + 1]:
        i -= 1
    if i >= 0:
        j = len(arr) - 1
        while arr[j] <= arr[i]:
            j -= 1
        arr[i], arr[j] = arr[j], arr[i]
    arr[i + 1:] = reversed(arr[i + 1:])
    return i >= 0


def reference_expand_family(fam: SolutionFamily,
                            max_expansions: int = DEFAULT_MAX_EXPANSIONS) -> ReferenceExpansion:
    """Enumerate the family's distinct layouts into Solutions.

    A multiset odometer over the blocks of ``fam.order``: each block
    steps through the next lexicographic permutation of its values, the
    last block varying fastest, and the copies of an equal value keep
    their ascending order.  The members of a block hang off one spine
    node, each with a single-piece fragment of its own length on the
    other side, so equal values are interchangeable: every distinct
    layout comes exactly once, where it first comes in
    ``itertools.product`` order over the block positions, and the cost
    follows the number of distinct layouts.  Each layout's C-ordering
    gathers the instance's columns; pi_a / pi_b come from its owner
    columns.  Enumeration stops at the cap with ``truncated`` set.
    """
    inst = fam.labeled
    elems = inst.c_elements
    values = inst.values[fam.order]
    spans = list(zip(fam.block_starts.tolist(), fam.block_ends.tolist()))
    blocks: dict[int, list[int]] = {}   # block -> its values, as stepped so far
    at = np.arange(len(fam.order))      # the layout, as positions in fam.order
    solutions: list[Solution] = []
    while len(solutions) < max_expansions:
        solutions.append(induced_permutation(elems.take(fam.order[at]), inst))
        # advance the last block; a block that wraps around carries into the one before
        for k in range(len(spans) - 1, -1, -1):
            s, e = spans[k]
            if k not in blocks:
                blocks[k] = values[s:e].tolist()
            block = blocks[k]
            stepped = _next_permutation(block)
            # a block of fam.order ascends by (value, copy), so the t-th
            # copy of a value takes that value's t-th position
            at[s + np.argsort(block, kind="stable")] = np.arange(s, e)
            if stepped:
                break
        else:
            return ReferenceExpansion(tuple(solutions), False)
    return ReferenceExpansion(tuple(solutions), True)


def reference_family_notation(fam: SolutionFamily, values: list) -> str:
    """Fixed values as they are, each block's values in brackets, one
    ``str`` per value and the brackets added per block span."""
    tokens = list(map(str, values))
    for s, e in zip(fam.block_starts.tolist(), fam.block_ends.tolist()):
        tokens[s] = "[" + tokens[s]
        tokens[e - 1] += "]"
    return " ".join(tokens)


def reference_solution_lines(out: _Output, inst: EddInstance, sol) -> dict | None:
    """Print one layout, or return its JSON record under ``--json``."""
    a_values, b_values = sol.a_values(inst), sol.b_values(inst)
    pa_idx = [i + 1 for i in sol.pi_a]
    pb_idx = [j + 1 for j in sol.pi_b]
    if out.as_json:
        return {"piA": list(a_values), "piB": list(b_values),
                "paIdx": pa_idx, "pbIdx": pb_idx, "piC": list(sol.c_values())}
    out.line("piA: " + " ".join(map(str, a_values)))
    out.line("piB: " + " ".join(map(str, b_values)))
    out.line("paIdx: " + " ".join(map(str, pa_idx)))
    out.line("pbIdx: " + " ".join(map(str, pb_idx)))
    return None


def reference_cmd_solve(args, out: _Output) -> int:
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
    for idx, (aid, fam) in enumerate(result):
        out.line(f"assignment: {aid}")
        values = fam.c_value_array().tolist() if args.emit_families or out.as_json else None
        if args.emit_families:
            out.line(f"family: {reference_family_notation(fam, values)}")
        info: dict = {}
        if out.as_json:
            count, digits = fam.expansion_count, sys.get_int_max_str_digits()
            info = {"assignment": aid, "family": _family_slots(fam, values),
                    # an exact count too long to print is left out
                    "expansionCount": count if not digits or count < 10 ** digits else None,
                    "expansionCountLog10": math.fsum(math.lgamma(k + 1) / math.log(10)
                                                     for k in fam.block_sizes()),
                    "solutions": []}
            fam_payload.append(info)
        expand_this = args.all or idx == 0
        if expand_this and budget > 0:
            expansion = reference_expand_family(fam, max_expansions=budget if args.all else 1)
            for i, sol in enumerate(expansion, start=1):
                out.line(f"solution: {i}")
                record = reference_solution_lines(out, inst, sol)
                if out.as_json:
                    info["solutions"].append(record)
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
