"""Data model for enhanced double digest (EDD) length data.

An EDD dataset describes a linear DNA target cut by two restriction
enzymes: the fragment-length multisets A and B from each single digest,
plus, for every single-digest fragment, the multiset of sub-lengths
obtained by re-digesting it with the other enzyme (AB_i for the i-th
A-fragment, BA_j for the j-th B-fragment).  This module holds the
instance types, the line-oriented text format, the consistency rules
every physically realizable dataset satisfies, and the labeling step
that disambiguates equal sub-fragment lengths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, permutations, product
from typing import Iterator, NamedTuple, Sequence

import numpy as np

MAX_LENGTH = 2**63 - 1

# Consistency rule identifiers.
SUM_A = "SUM_A"
SUM_B = "SUM_B"
UNION_MISMATCH = "UNION_MISMATCH"
COUNT = "COUNT"


class ParseError(ValueError):
    """Syntax or structural error in an EDD document, with its line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
        self.message = message


class AssignmentCapExceeded(RuntimeError):
    """Too many duplicate assignments to enumerate under the given cap."""

    def __init__(self, count: int, cap: int):
        super().__init__(f"{count} duplicate assignments exceed cap {cap}")
        self.count = count
        self.cap = cap


def _as_multiset(values) -> tuple[int, ...]:
    return tuple(sorted(values))


@dataclass(frozen=True)
class EddInstance:
    """EDD length data: A, B, and the per-fragment cross-digest multisets.

    Multisets are normalized to ascending order on construction, so two
    instances with the same data compare equal and serialization is
    canonical.  The order of ``a_lengths``/``b_lengths`` is meaningful
    (fragment i owns ``ab_sets[i]``) and is preserved.
    """

    a_lengths: tuple[int, ...]
    b_lengths: tuple[int, ...]
    ab_sets: tuple[tuple[int, ...], ...]
    ba_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "a_lengths", tuple(self.a_lengths))
        object.__setattr__(self, "b_lengths", tuple(self.b_lengths))
        object.__setattr__(self, "ab_sets", tuple(_as_multiset(s) for s in self.ab_sets))
        object.__setattr__(self, "ba_sets", tuple(_as_multiset(s) for s in self.ba_sets))
        if not self.a_lengths or not self.b_lengths:
            raise ValueError("need at least one fragment per enzyme")
        if len(self.ab_sets) != len(self.a_lengths):
            raise ValueError(f"expected {len(self.a_lengths)} AB multisets, got {len(self.ab_sets)}")
        if len(self.ba_sets) != len(self.b_lengths):
            raise ValueError(f"expected {len(self.b_lengths)} BA multisets, got {len(self.ba_sets)}")
        for group in (self.a_lengths, self.b_lengths,
                      chain.from_iterable(self.ab_sets), chain.from_iterable(self.ba_sets)):
            vals = group if isinstance(group, tuple) else tuple(group)
            if vals and not (1 <= min(vals) and max(vals) <= MAX_LENGTH):
                bad = next(v for v in vals if not 1 <= v <= MAX_LENGTH)
                raise ValueError(f"length {bad} outside [1, 2^63 - 1]")

    @property
    def p(self) -> int:
        return len(self.a_lengths)

    @property
    def q(self) -> int:
        return len(self.b_lengths)

    def _flats(self):
        """Flattened cross-digest data as int64 arrays (cached).

        Returns (ab_values, ab_owner, ab_offsets, ba_values, ba_owner,
        ba_offsets); the AB side is flattened in (fragment, ascending
        value) order, offsets delimit each fragment's segment.
        """
        cached = self.__dict__.get("_flats_cache")
        if cached is None:
            cached = (_flatten(self.ab_sets), _flatten(self.ba_sets))
            object.__setattr__(self, "_flats_cache", cached)
        (fa, oa, offa), (fb, ob, offb) = cached
        return fa, oa, offa, fb, ob, offb


def _flatten(sets: tuple[tuple[int, ...], ...]):
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    total = int(sizes.sum())
    values = np.fromiter(chain.from_iterable(sets), dtype=np.int64, count=total)
    owner = np.repeat(np.arange(len(sets), dtype=np.int64), sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return values, owner, offsets


class LabeledLength(NamedTuple):
    """One element of C: a sub-fragment length tagged with its owners.

    ``copy_id`` numbers equal-valued copies 1, 2, ... in the order they
    appear on the AB side, so (value, copy_id) identifies an element
    uniquely within a LabeledInstance.
    """

    value: int
    a_owner: int
    b_owner: int
    copy_id: int


class _CElementSeq(Sequence):
    """Array-backed sequence of LabeledLength, materialized on access."""

    __slots__ = ("_values", "_a", "_b", "_copy")

    def __init__(self, values, a_owners, b_owners, copy_ids):
        self._values = values
        self._a = a_owners
        self._b = b_owners
        self._copy = copy_ids

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(self[i] for i in range(*k.indices(len(self))))
        return LabeledLength(int(self._values[k]), int(self._a[k]),
                             int(self._b[k]), int(self._copy[k]))

    def __iter__(self) -> Iterator[LabeledLength]:
        return (LabeledLength(v, a, b, c)
                for v, a, b, c in zip(self._values.tolist(), self._a.tolist(),
                                      self._b.tolist(), self._copy.tolist()))

    def __eq__(self, other):
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(x == y for x, y in zip(self, other))
        return NotImplemented


@dataclass(frozen=True, eq=False)
class LabeledInstance:
    """An EddInstance whose C-elements carry a concrete duplicate assignment.

    The parallel int64 arrays are the canonical storage; ``c_elements``
    is an object view over them.  Elements are ordered by (a_owner,
    ascending value), i.e. the flattened AB side.
    """

    base: EddInstance
    values: np.ndarray
    a_owners: np.ndarray
    b_owners: np.ndarray
    copy_ids: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def c_elements(self) -> Sequence[LabeledLength]:
        return _CElementSeq(self.values, self.a_owners, self.b_owners, self.copy_ids)


class ConsistencyViolation(NamedTuple):
    rule: str
    detail: str


@dataclass(frozen=True)
class ConsistencyReport:
    violations: tuple[ConsistencyViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def rules(self) -> tuple[str, ...]:
        return tuple(v.rule for v in self.violations)


# --- text format -----------------------------------------------------------

def parse_instance(text: str) -> EddInstance:
    """Parse an EDD document.

    Format: first content line ``EDD 1``; one ``A`` line and one ``B``
    line (in that region, before any AB/BA lines); then one ``AB i ...``
    line per A-fragment and one ``BA j ...`` per B-fragment, 1-based,
    each index exactly once.  ``#`` starts a comment; blank lines are
    ignored.  Only syntax is checked here, not consistency.
    """
    header_seen = False
    a_vals: list[int] | None = None
    b_vals: list[int] | None = None
    ab_lines: dict[int, list[int]] = {}
    ba_lines: dict[int, list[int]] = {}

    def parse_length(tok: str, line_no: int) -> int:
        try:
            v = int(tok)
        except ValueError:
            raise ParseError(line_no, f"invalid integer {tok!r}") from None
        if v < 1:
            raise ParseError(line_no, f"non-positive length {v}")
        if v > MAX_LENGTH:
            raise ParseError(line_no, f"length {v} exceeds 63-bit range")
        return v

    def parse_indexed(tokens: list[str], line_no: int, kind: str, limit: int | None,
                      seen: dict[int, list[int]]):
        if len(tokens) < 2:
            raise ParseError(line_no, f"{kind} line needs an index")
        try:
            idx = int(tokens[1])
        except ValueError:
            raise ParseError(line_no, f"invalid {kind} index {tokens[1]!r}") from None
        if limit is None:
            raise ParseError(line_no, f"{kind} line before {kind[0]} line")
        if not 1 <= idx <= limit:
            raise ParseError(line_no, f"{kind} index {idx} out of range 1..{limit}")
        if idx in seen:
            raise ParseError(line_no, f"duplicate {kind} line for index {idx}")
        seen[idx] = [parse_length(t, line_no) for t in tokens[2:]]

    last_line = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line = line_no
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        if not header_seen:
            if tokens != ["EDD", "1"]:
                raise ParseError(line_no, "expected 'EDD 1' header")
            header_seen = True
            continue
        kind = tokens[0]
        if kind == "A":
            if a_vals is not None:
                raise ParseError(line_no, "duplicate A line")
            a_vals = [parse_length(t, line_no) for t in tokens[1:]]
            if not a_vals:
                raise ParseError(line_no, "A line needs at least one length")
        elif kind == "B":
            if b_vals is not None:
                raise ParseError(line_no, "duplicate B line")
            b_vals = [parse_length(t, line_no) for t in tokens[1:]]
            if not b_vals:
                raise ParseError(line_no, "B line needs at least one length")
        elif kind == "AB":
            parse_indexed(tokens, line_no, "AB", None if a_vals is None else len(a_vals), ab_lines)
        elif kind == "BA":
            parse_indexed(tokens, line_no, "BA", None if b_vals is None else len(b_vals), ba_lines)
        else:
            raise ParseError(line_no, f"unknown line kind {kind!r}")

    if not header_seen:
        raise ParseError(last_line or 1, "missing 'EDD 1' header")
    if a_vals is None:
        raise ParseError(last_line, "missing A line")
    if b_vals is None:
        raise ParseError(last_line, "missing B line")
    for name, want, got in (("AB", len(a_vals), ab_lines), ("BA", len(b_vals), ba_lines)):
        missing = [i for i in range(1, want + 1) if i not in got]
        if missing:
            raise ParseError(last_line, f"missing {name} line for index {missing[0]}")

    return EddInstance(
        a_lengths=tuple(a_vals),
        b_lengths=tuple(b_vals),
        ab_sets=tuple(tuple(ab_lines[i]) for i in range(1, len(a_vals) + 1)),
        ba_sets=tuple(tuple(ba_lines[j]) for j in range(1, len(b_vals) + 1)),
    )


def serialize_instance(inst: EddInstance) -> str:
    """Render the canonical text form; round-trips through parse_instance."""
    lines = ["EDD 1"]
    lines.append("A " + " ".join(map(str, inst.a_lengths)))
    lines.append("B " + " ".join(map(str, inst.b_lengths)))
    for i, s in enumerate(inst.ab_sets, start=1):
        lines.append(f"AB {i} " + " ".join(map(str, s)) if s else f"AB {i}")
    for j, s in enumerate(inst.ba_sets, start=1):
        lines.append(f"BA {j} " + " ".join(map(str, s)) if s else f"BA {j}")
    return "\n".join(lines) + "\n"


# --- consistency -----------------------------------------------------------

def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    # cumsum-diff handles empty segments; callers re-check near-overflow data.
    csum = np.concatenate(([0], np.cumsum(values)))
    return csum[offsets[1:]] - csum[offsets[:-1]]


def _check_sums(lengths, values, offsets, rule, label, violations):
    sums = _segment_sums(values, offsets)
    want = np.asarray(lengths, dtype=np.int64)
    bad = np.flatnonzero(sums != want)
    if len(values) and int(values.max()) * int(np.diff(offsets).max()) >= 2**63:
        # some segment's sum may wrap in int64; redo exactly in Python.
        exact = [sum(seg.tolist()) for seg in np.split(values, offsets[1:-1])]
        bad = np.flatnonzero(np.fromiter((e != w for e, w in zip(exact, lengths)),
                                         dtype=bool, count=len(lengths)))
        sums = exact
    for i in bad.tolist():
        violations.append(ConsistencyViolation(
            rule, f"{label.lower()}_{i + 1} = {lengths[i]} but {label}{'B' if label == 'A' else 'A'}_{i + 1} sums to {int(sums[i])}"))


def validate_consistency(inst: EddInstance) -> ConsistencyReport:
    """Check the three realizability rules; report every violation.

    1. each a_i equals the sum of AB_i, each b_j the sum of BA_j;
    2. the AB and BA sides flatten to the same multiset C;
    3. |C| = p + q - 1 (counted on the AB side).
    """
    fa, _, offa, fb, _, offb = inst._flats()
    violations: list[ConsistencyViolation] = []
    _check_sums(inst.a_lengths, fa, offa, SUM_A, "A", violations)
    _check_sums(inst.b_lengths, fb, offb, SUM_B, "B", violations)

    sa, sb = np.sort(fa), np.sort(fb)
    if len(sa) != len(sb):
        violations.append(ConsistencyViolation(
            UNION_MISMATCH, f"AB side has {len(sa)} elements, BA side {len(sb)}"))
    elif not np.array_equal(sa, sb):
        k = int(np.flatnonzero(sa != sb)[0])
        violations.append(ConsistencyViolation(
            UNION_MISMATCH, f"multisets differ at sorted position {k}: {int(sa[k])} vs {int(sb[k])}"))

    expected = inst.p + inst.q - 1
    if len(fa) != expected:
        violations.append(ConsistencyViolation(
            COUNT, f"|C| = {len(fa)} but p + q - 1 = {expected}"))
    return ConsistencyReport(tuple(violations))


# --- duplicate labeling ----------------------------------------------------

def count_assignments(inst: EddInstance) -> int:
    """Number of duplicate assignments: product of multiplicity factorials."""
    fa = inst._flats()[0]
    _, counts = np.unique(fa, return_counts=True)
    total = 1
    for m in counts.tolist():
        total *= math.factorial(m)
    return total


class _LabelingPlan(NamedTuple):
    values: np.ndarray        # C values in AB-side order
    a_owners: np.ndarray
    copy_ids: np.ndarray
    base_b: np.ndarray        # b_owners for all unique-valued elements
    groups: list[tuple[list[int], list[int]]]  # (c positions, BA-side owners) per duplicated value
    total: int                # product of multiplicity factorials


def _labeling_plan(inst: EddInstance) -> _LabelingPlan:
    fa, oa, _, fb, ob, _ = inst._flats()
    n = len(fa)
    order_a = np.argsort(fa, kind="stable")
    order_b = np.argsort(fb, kind="stable")
    sv = fa[order_a]
    if not np.array_equal(sv, fb[order_b]):
        raise ValueError("inconsistent instance: AB and BA multisets differ")

    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    sizes = np.diff(np.append(starts, n))
    within = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    copy_ids = np.empty(n, dtype=np.int64)
    copy_ids[order_a] = within + 1

    base_b = np.empty(n, dtype=np.int64)
    base_b[order_a] = ob[order_b]  # identity matching per value group

    total = 1
    groups: list[tuple[list[int], list[int]]] = []
    for g in np.flatnonzero(sizes > 1).tolist():
        s, m = int(starts[g]), int(sizes[g])
        total *= math.factorial(m)
        cpos = order_a[s:s + m].tolist()
        owners = ob[order_b[s:s + m]].tolist()
        groups.append((cpos, owners))
    return _LabelingPlan(fa, oa, copy_ids, base_b, groups, total)


def label_duplicates(inst: EddInstance,
                     max_assignments: int | None = None) -> Iterator[LabeledInstance]:
    """Enumerate every assignment of equal-valued copies to their BA slots.

    For each distinct value with multiplicity m, all m! bijections
    between its AB-side and BA-side copies are combined across values
    (values ascending, later values varying fastest; bijections in
    lexicographic order).  Yields lazily; raises AssignmentCapExceeded
    up front if the total exceeds ``max_assignments``.
    """
    plan = _labeling_plan(inst)
    if max_assignments is not None and plan.total > max_assignments:
        raise AssignmentCapExceeded(plan.total, max_assignments)
    return _iter_labelings(inst, plan)


def _iter_labelings(inst: EddInstance, plan: _LabelingPlan) -> Iterator[LabeledInstance]:
    if not plan.groups:
        yield LabeledInstance(inst, plan.values, plan.a_owners, plan.base_b, plan.copy_ids)
        return
    for combo in product(*(permutations(range(len(g[0]))) for g in plan.groups)):
        b_own = plan.base_b.copy()
        for (cpos, owners), perm in zip(plan.groups, combo):
            for t, s in enumerate(perm):
                b_own[cpos[t]] = owners[s]
        yield LabeledInstance(inst, plan.values, plan.a_owners, b_own, plan.copy_ids)
