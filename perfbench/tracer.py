"""Span tracing from outside the program.

``instrument`` wraps the public functions of each ``edd`` layer in every
module namespace that imported them (``edd.cli.parse_instance``,
``edd.solver.check_structure``, ...), so calls between modules are seen
without touching the program.  Spans (name, start, end, parent, op id)
stay in memory until ``dump``.  Counters read from arguments and return
values are taken after a span ends, so their cost lands in the op's own
remainder, not in a layer's time.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP = range(5)

# layer -> public functions whose calls are spans
LAYERS = {
    "instance": ("parse_instance", "validate_consistency", "label_duplicates"),
    "digestgraph": ("build_graph", "check_structure"),
    "solver": ("solve", "solve_labeled", "dangler_first_search", "expand_family"),
    "verifier": ("verify_permutation",),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """Root span of one op; spans are only recorded inside one."""
        self.op = op_id
        try:
            with self.span("op") as rec:
                yield rec
        finally:
            self.op = None

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, result, error)`` runs untimed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            result = error = None
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                if after is not None:
                    after(args, result, error)
        return traced

    def patch(self, module, attr: str, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def note_max(self, key: str, value: float):
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread and nest, so children never overlap and
    the self times of one op's spans add up to its root's duration."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def _log10_factorial(k: int) -> float:
    return math.lgamma(k + 1) / math.log(10)


def instrument(tracer: Tracer):
    """Wrap every function of LAYERS wherever an ``edd`` module holds it."""
    from edd.instance import AssignmentCapExceeded, count_assignments

    counts = tracer.counts

    def after_parse(args, result, error):
        counts["instance.parse_instance.bytes"] += len(args[0])

    def after_check(args, result, error):
        if result is not None:
            kind = result.violation.kind if result.violation is not None else "ok"
            counts[f"digestgraph.verdict.{kind}"] += 1

    def after_solve(args, result, error):
        counts["solver.assignments.raw"] += count_assignments(args[0])
        if isinstance(error, AssignmentCapExceeded):
            counts["solver.solve.cap_exceeded"] += 1
        if result is None:
            return
        counts["solver.assignments.tried"] += result.assignments_tried
        counts["solver.families"] += len(result)
        for _aid, fam in result:
            sizes = fam.block_sizes()
            counts["solver.family.blocks"] += len(sizes)
            counts["solver.family.log10_expansions"] += sum(map(_log10_factorial, sizes))
            tracer.note_max("solver.family.max_block", max(sizes, default=0))

    def after_expand(args, result, error):
        if result is not None:
            counts["solver.expand_family.layouts"] += len(result)
            counts["solver.expand_family.truncated"] += int(result.truncated)

    after = {"parse_instance": after_parse, "check_structure": after_check,
             "solve": after_solve, "expand_family": after_expand}
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "edd" or name.startswith("edd."))]
    for layer, names in LAYERS.items():
        home = sys.modules[f"edd.{layer}"]
        for fn_name in names:
            original = getattr(home, fn_name)
            traced = tracer.wrap(f"{layer}.{fn_name}", original, after.get(fn_name))
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    tracer.patch(module, fn_name, traced)
