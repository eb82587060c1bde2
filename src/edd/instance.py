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
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
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
    """Too many duplicate assignments to enumerate under the given cap.
    With ``distinct``, counting stopped once it passed the cap, so
    ``count`` is only a lower bound."""

    def __init__(self, count: int, cap: int, *, distinct: bool = False):
        super().__init__(f"more than {cap} distinct duplicate assignments (cap {cap})"
                         if distinct else f"{count} duplicate assignments exceed cap {cap}")
        self.count = count
        self.cap = cap


def _as_multiset(values) -> tuple[int, ...]:
    return tuple(sorted(values))


def _int64(values: tuple) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        # beyond int64; kept exact so the range check can name it
        return np.array(values, dtype=object)


def _flatten(sets: tuple[tuple[int, ...], ...]):
    """(values, owner, offsets) of ascending multisets, in fragment order."""
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    values = _int64(tuple(chain.from_iterable(sets)))
    owner = np.repeat(np.arange(len(sets), dtype=np.int64), sizes)
    return values, owner, _offsets(sizes)


def _offsets(sizes: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _unflatten(values: np.ndarray, offsets: np.ndarray) -> tuple[tuple[int, ...], ...]:
    vals, offs = values.tolist(), offsets.tolist()
    return tuple(tuple(vals[s:e]) for s, e in zip(offs, offs[1:]))


class EddInstance:
    """EDD length data: A, B, and the per-fragment cross-digest multisets.

    Multisets are normalized to ascending order on construction, so two
    instances with the same data compare equal and serialization is
    canonical.  The order of ``a_lengths``/``b_lengths`` is meaningful
    (fragment i owns ``ab_sets[i]``) and is preserved.

    The cross-digest data is stored as int64 arrays (see ``_flats``);
    ``a_lengths``/``b_lengths`` are tuples, while ``ab_sets``/``ba_sets``
    are tuples of tuples built from the arrays on first access and then
    cached.  Instances are immutable and compare and hash by all four
    fields.
    """

    def __init__(self, a_lengths, b_lengths, ab_sets, ba_sets):
        ab_sets = tuple(map(_as_multiset, ab_sets))
        ba_sets = tuple(map(_as_multiset, ba_sets))
        self._init(_int64(tuple(a_lengths)), _int64(tuple(b_lengths)),
                   _flatten(ab_sets), _flatten(ba_sets))
        self.__dict__.update(ab_sets=ab_sets, ba_sets=ba_sets)

    def _init(self, a: np.ndarray, b: np.ndarray, ab: tuple, ba: tuple):
        """The one construction and validation path: A and B as arrays,
        the AB and BA sides as (values, owner, offsets) flats."""
        if not len(a) or not len(b):
            raise ValueError("need at least one fragment per enzyme")
        if len(ab[2]) - 1 != len(a):
            raise ValueError(f"expected {len(a)} AB multisets, got {len(ab[2]) - 1}")
        if len(ba[2]) - 1 != len(b):
            raise ValueError(f"expected {len(b)} BA multisets, got {len(ba[2]) - 1}")
        for vals in (a, b, ab[0], ba[0]):
            if len(vals) and (vals.dtype == object or vals.min() < 1):
                bad = vals[(vals < 1) | (vals > MAX_LENGTH)][0]
                raise ValueError(f"length {bad} outside [1, 2^63 - 1]")
        self.__dict__.update(a_lengths=tuple(a.tolist()), b_lengths=tuple(b.tolist()),
                             _a=a, _b=b, _ab=ab, _ba=ba)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def ab_sets(self) -> tuple[tuple[int, ...], ...]:
        return _unflatten(self._ab[0], self._ab[2])

    @cached_property
    def ba_sets(self) -> tuple[tuple[int, ...], ...]:
        return _unflatten(self._ba[0], self._ba[2])

    def _key(self):
        return (self.a_lengths, self.b_lengths, self.ab_sets, self.ba_sets)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"EddInstance(a_lengths={self.a_lengths!r}, b_lengths={self.b_lengths!r}, "
                f"ab_sets={self.ab_sets!r}, ba_sets={self.ba_sets!r})")

    @property
    def p(self) -> int:
        return len(self.a_lengths)

    @property
    def q(self) -> int:
        return len(self.b_lengths)

    def _flats(self):
        """Flattened cross-digest data as int64 arrays.

        Returns (ab_values, ab_owner, ab_offsets, ba_values, ba_owner,
        ba_offsets); the AB side is flattened in (fragment, ascending
        value) order, offsets delimit each fragment's segment.
        """
        return (*self._ab, *self._ba)

    def _length_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``a_lengths`` and ``b_lengths`` as int64 arrays."""
        return self._a, self._b


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


@dataclass(frozen=True, eq=False, slots=True)
class CPermutation(Sequence):
    """An ordering of labeled C-elements, held as one (4, n) int64 array.

    ``columns`` rows are value, a_owner, b_owner and copy_id, each in
    reading order; orderings are built by gathering or slicing them
    (``take``).  Indexing and iteration give ``LabeledLength`` rows, an
    object view for the API edge; ``order`` is the ordering itself.
    """

    columns: np.ndarray

    @classmethod
    def along_line(cls, values, a_owners, b_owners) -> CPermutation:
        """Pieces in line order, equal values' copies numbered 1, 2, ... from the left."""
        return cls(np.stack((values, a_owners, b_owners, _occurrence_counts(values))))

    @property
    def order(self) -> CPermutation:
        return self

    def take(self, index) -> CPermutation:
        return CPermutation(self.columns[:, index])

    def values(self) -> tuple[int, ...]:
        return tuple(self.columns[0].tolist())

    def __len__(self) -> int:
        return self.columns.shape[1]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return self.take(k)
        return LabeledLength(*self.columns[:, k].tolist())

    def __iter__(self) -> Iterator[LabeledLength]:
        return map(LabeledLength._make, zip(*self.columns.tolist()))


def _occurrence_counts(values: np.ndarray) -> np.ndarray:
    """1-based per-value occurrence counter, in sequence order."""
    n = len(values)
    order = np.argsort(values, kind="stable")
    sv = values[order]
    starts = np.flatnonzero(np.concatenate(([True], sv[1:] != sv[:-1])))
    sizes = np.diff(np.append(starts, n))
    within = np.arange(n, dtype=np.int64) - np.repeat(starts, sizes)
    out = np.empty(n, dtype=np.int64)
    out[order] = within + 1
    return out


@dataclass(frozen=True, eq=False)
class LabeledInstance:
    """An EddInstance whose C-elements carry a concrete duplicate assignment.

    The parallel int64 arrays are the canonical storage; ``c_elements``
    stacks them into a CPermutation.  Elements are ordered by (a_owner,
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
    def c_elements(self) -> CPermutation:
        return CPermutation(np.stack((self.values, self.a_owners, self.b_owners, self.copy_ids)))


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

    A document in plain shape, as ``serialize_instance`` writes it, is
    read in a fixed number of whole-buffer passes, with no Python loop
    over its lines (``_read_plain``).  Plain shape is ``EDD 1`` and a
    newline, then the A line, the B line and the AB and BA lines, each
    line starting with its kind and a space, and no byte other than
    digits, spaces, newlines and the letters A and B.  Any other
    document is first normalised (``_read_lines``): a copy with each
    line's tokens joined by one space, comments and blank lines dropped,
    goes through the same whole-buffer passes.  Only a document that
    this copy cannot take exactly is read line by line with ``int()``
    per token (``_read_exact``), the one reader that holds every rule
    and message, so the same results and the same ParseErrors come out
    either way: the first bad line, its line number and message.
    """
    return _assemble(*(_read_plain(text) or _read_lines(text)))


_KINDS = ("A", "B", "AB", "BA")
_TAGS = {kind: tag for tag, kind in enumerate(_KINDS)}
# The kind of a line from its first two bytes: "A ", "B ", "AB" or "BA".
_KIND_OF = np.full((256, 256), -1, dtype=np.int8)
_KIND_OF[[ord(k[0]) for k in _KINDS], [ord((k + " ")[1]) for k in _KINDS]] = range(len(_KINDS))


def _read_plain(text: str):
    """(lengths, sizes, index, tags, p, q) of a document in plain shape
    (see ``parse_instance``), read in whole-buffer passes; None for any
    other document.

    The bytes after each newline give each line's kind (``_KIND_OF``).
    Each kind is overwritten in place: its first letter by a ``0``, the
    second letter of ``AB`` and ``BA`` by a space.  A ``0 `` line is
    appended as the sentinel, and the header becomes spaces.  After that
    the text must hold nothing but digits, spaces and newlines, so a
    letter anywhere but at a line start, or a line that starts with
    anything but its kind, gives None.  One ``np.fromstring`` reads the
    rest.  No length or index is 0, so the zeros read are the marks: the
    line starts and the sentinel, all of which must be read, so a 0 in
    the text or a short read cannot pass.  The gaps between the marks
    are the line sizes.  fromstring reads a number beyond int64 as
    2^63 - 1, so a 2^63 - 1 anywhere, an index out of range or repeated,
    or a missing line gives None too: the line path names the error or
    reads exactly.  Overwriting in place takes fewer passes over the
    text than a ``bytes.replace`` for each of the four line starts.
    """
    if not text.startswith("EDD 1\n") or not text.isascii():
        return None
    buf = bytearray(text, "ascii")
    buf[:5] = b"     "
    buf += b"0 " if text.endswith("\n") else b"\n0 "
    view = np.frombuffer(buf, dtype=np.uint8)
    starts = np.flatnonzero(view == ord("\n"))[:-1] + 1   # the last newline is the sentinel's
    tags = _KIND_OF[view[starts], view[starts + 1]]
    indexed = tags >= 2
    if (tags < 0).any() or (view[starts[indexed] + 2] != ord(" ")).any():
        return None
    view[starts] = ord("0")
    view[starts[indexed] + 1] = ord(" ")
    del view
    if buf.translate(None, b"0123456789 \n"):
        return None
    data = bytes(buf)
    del buf
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    del data
    marks = np.flatnonzero(values == 0)
    if len(marks) != len(starts) + 1:
        return None
    kinds = np.bincount(tags, minlength=len(_KINDS)).tolist()
    if kinds[:2] != [1, 1] or tags[0] != 0 or tags[1] != 1:
        return None
    if (values == MAX_LENGTH).any():
        return None
    at = marks[:-1][indexed] + 1   # where each AB and BA index is
    index = np.zeros(len(tags), dtype=np.int64)
    index[indexed] = values[at]
    sizes = np.diff(marks) - 1 - indexed
    p, q = int(sizes[0]), int(sizes[1])
    if not p or not q:
        return None
    for tag, count in ((2, p), (3, q)):
        got = index[tags == tag]
        if (kinds[tag] != count or got.min() < 1 or got.max() > count
                or np.bincount(got).max() > 1):
            return None
    keep = np.ones(len(values), dtype=bool)
    keep[marks] = False
    keep[at] = False
    return values[keep], sizes, index, tags, p, q


def _read_lines(text: str):
    """What ``_read_plain`` returns, for a document not in plain shape.

    The document is only normalised: each line's tokens joined by one
    space, comments and blank lines dropped.  The copy goes to
    ``_read_plain``; a document it cannot take exactly is read again by
    ``_read_exact``, which also raises the first bad line's error.
    """
    lines = (line.split("#", 1)[0].split() for line in text.splitlines())
    kept = [" ".join(tokens) for tokens in lines if tokens]
    return _read_plain("\n".join(kept) + "\n") or _read_exact(text)


def _read_exact(text: str):
    """What ``_read_plain`` returns, for any document, read in one pass
    over its lines with ``int()`` per token; raises the ParseError of the
    first bad line.  Every rule of the grammar and every message is here."""
    values: list[int] = []
    sizes, index, tags = [], [], []
    limits: list = [None, None]   # length counts of the A and B lines
    seen: tuple[set, set] = (set(), set())
    header_seen = False
    line_no = 0
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        if not header_seen:
            if tokens != ["EDD", "1"]:
                raise ParseError(line_no, "expected 'EDD 1' header")
            header_seen = True
            continue
        kind = tokens[0]
        tag = _TAGS.get(kind)
        if tag is None:
            raise ParseError(line_no, f"unknown line kind {kind!r}")
        idx = 0
        if tag >= 2:
            if len(tokens) < 2:
                raise ParseError(line_no, f"{kind} line needs an index")
            idx = _index(kind, tokens[1], limits[tag - 2], seen[tag - 2], line_no)
        elif limits[tag] is not None:
            raise ParseError(line_no, f"duplicate {kind} line")
        lengths = [_length(tok, line_no) for tok in tokens[1 + (tag >= 2):]]
        if tag < 2:
            if not lengths:
                raise ParseError(line_no, f"{kind} line needs at least one length")
            limits[tag] = len(lengths)
        values += lengths
        sizes.append(len(lengths))
        index.append(idx)
        tags.append(tag)
    if not header_seen:
        raise ParseError(line_no or 1, "missing 'EDD 1' header")
    p, q = limits
    if p is None:
        raise ParseError(line_no, "missing A line")
    if q is None:
        raise ParseError(line_no, "missing B line")
    for tag, want in ((2, p), (3, q)):
        if len(seen[tag - 2]) < want:
            missing = next(i for i in range(1, want + 1) if i not in seen[tag - 2])
            raise ParseError(line_no, f"missing {_KINDS[tag]} line for index {missing}")
    return (np.array(values, dtype=np.int64), np.array(sizes, dtype=np.int64),
            np.array(index, dtype=np.int64), np.array(tags, dtype=np.int8), p, q)


def _index(kind: str, tok: str, limit: int | None, seen: set, line_no: int) -> int:
    """The index of an AB or BA line, checked against the lines before."""
    try:
        idx = int(tok)
    except ValueError:
        raise ParseError(line_no, f"invalid {kind} index {tok!r}") from None
    if limit is None:
        raise ParseError(line_no, f"{kind} line before {kind[0]} line")
    if not 1 <= idx <= limit:
        raise ParseError(line_no, f"{kind} index {idx} out of range 1..{limit}")
    if idx in seen:
        raise ParseError(line_no, f"duplicate {kind} line for index {idx}")
    seen.add(idx)
    return idx


def _length(tok: str, line_no: int) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise ParseError(line_no, f"invalid integer {tok!r}") from None
    if v < 1:
        raise ParseError(line_no, f"non-positive length {v}")
    if v > MAX_LENGTH:
        raise ParseError(line_no, f"length {v} exceeds 63-bit range")
    return v


def _assemble(values: np.ndarray, sizes: np.ndarray, index: np.ndarray, tags: np.ndarray,
              p: int, q: int) -> EddInstance:
    """The instance of the lines read: their lengths in file order, their
    length counts, indices and kinds."""
    kinds = np.repeat(tags, sizes)
    owner = np.repeat(index - 1, sizes)
    ab, ba = kinds == 2, kinds == 3
    inst = EddInstance.__new__(EddInstance)
    inst._init(values[kinds == 0], values[kinds == 1],
               _grouped(values[ab], owner[ab], p), _grouped(values[ba], owner[ba], q))
    return inst


def _grouped(values: np.ndarray, owner: np.ndarray, count: int):
    """(values, owner, offsets) sorted by (owner, value), owners 0..count-1."""
    if len(values) > 1 and not np.all((owner[1:] > owner[:-1]) | (
            (owner[1:] == owner[:-1]) & (values[1:] >= values[:-1]))):
        order = np.argsort(values)
        order = order[np.argsort(owner[order], kind="stable")]
        values, owner = values[order], owner[order]
    return values, owner, _offsets(np.bincount(owner, minlength=count))


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
    return math.prod(map(math.factorial, counts[counts > 1].tolist()))


class _LabelingPlan(NamedTuple):
    values: np.ndarray        # C values in AB-side order
    a_owners: np.ndarray
    copy_ids: np.ndarray
    base_b: np.ndarray        # b_owners for all unique-valued elements
    groups: list[tuple[list[int], list[int]]]  # (c positions, BA-side owners) per duplicated value


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

    groups: list[tuple[list[int], list[int]]] = []
    for g in np.flatnonzero(sizes > 1).tolist():
        s, m = int(starts[g]), int(sizes[g])
        cpos = order_a[s:s + m].tolist()
        owners = ob[order_b[s:s + m]].tolist()
        groups.append((cpos, owners))
    return _LabelingPlan(fa, oa, copy_ids, base_b, groups)


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
    if max_assignments is not None:
        total = count_assignments(inst)
        if total > max_assignments:
            raise AssignmentCapExceeded(total, max_assignments)
    return (_labeling(inst, plan, combo)
            for combo in product(*(permutations(range(len(cpos))) for cpos, _ in plan.groups)))


def _labeling(inst: EddInstance, plan: _LabelingPlan, perms) -> LabeledInstance:
    """The labeling that gives each group's t-th AB-side copy the BA-side
    owner ``owners[perm[t]]``, one perm per group."""
    b_own = plan.base_b.copy()
    for (cpos, owners), perm in zip(plan.groups, perms):
        for t, s in enumerate(perm):
            b_own[cpos[t]] = owners[s]
    return LabeledInstance(inst, plan.values, plan.a_owners, b_own, plan.copy_ids)
