"""Data model for enhanced double digest (EDD) length data.

An EDD dataset describes a linear DNA target cut by two restriction
enzymes: the fragment-length multisets A and B from each single digest,
plus, for every single-digest fragment, the multiset of sub-lengths
obtained by re-digesting it with the other enzyme (AB_i for the i-th
A-fragment, BA_j for the j-th B-fragment).  This module holds the
instance types, whose data is int64 arrays that every constructor sorts
the one same way, with tuple views built only on demand; the
line-oriented text format; the consistency rules every physically
realizable dataset satisfies; and the labeling step that disambiguates
equal sub-fragment lengths.
"""

from __future__ import annotations

import math
import os
import threading
from bisect import bisect_left, insort
from dataclasses import FrozenInstanceError, dataclass, replace
from functools import cached_property
from itertools import chain
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


def _int64(values) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        # beyond int64; kept exact so the range check can name it
        return np.array(values, dtype=object)


def _flatten(sets: tuple[tuple[int, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """(values, owner) of the multisets, in fragment order."""
    sizes = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
    return (_int64(tuple(chain.from_iterable(sets))),
            np.repeat(np.arange(len(sets), dtype=np.int64), sizes))


def _unflatten(values: np.ndarray, offsets: np.ndarray) -> tuple[tuple[int, ...], ...]:
    vals, offs = values.tolist(), offsets.tolist()
    return tuple(tuple(vals[s:e]) for s, e in zip(offs, offs[1:]))


class EddInstance:
    """EDD length data: A, B, and the per-fragment cross-digest multisets.

    The data is held as int64 arrays: the lengths of A and B in fragment
    order (fragment i owns ``ab_sets[i]``), and each cross-digest side
    flattened in (fragment, ascending value) order (see ``_flats``).
    Every constructor ends in ``_from_arrays``, which sorts each side
    with ``_grouped``, so two instances with the same data compare and
    hash equal and serialize alike, however they were built.
    ``a_lengths``, ``b_lengths``, ``ab_sets`` and ``ba_sets`` are tuple
    views for the API edge, built from the arrays on first access and
    then cached.  Instances are immutable.
    """

    def __init__(self, a_lengths, b_lengths, ab_sets, ba_sets):
        a, b = _int64(tuple(a_lengths)), _int64(tuple(b_lengths))
        ab_sets, ba_sets = tuple(map(tuple, ab_sets)), tuple(map(tuple, ba_sets))
        if not len(a) or not len(b):
            raise ValueError("need at least one fragment per enzyme")
        for kind, sets, count in (("AB", ab_sets, len(a)), ("BA", ba_sets, len(b))):
            if len(sets) != count:
                raise ValueError(f"expected {count} {kind} multisets, got {len(sets)}")
        self.__dict__.update(vars(self._from_arrays(a, b, *_flatten(ab_sets), *_flatten(ba_sets))))

    @classmethod
    def _from_arrays(cls, a, b, ab_values, ab_owner, ba_values, ba_owner) -> EddInstance:
        """The one construction path: A and B lengths as arrays, and each
        cross-digest side as values with their 0-based owners, in any
        order.  ``_grouped`` sorts each side; every length is checked
        against [1, 2^63 - 1]."""
        ab, ba = _grouped(ab_values, ab_owner, len(a)), _grouped(ba_values, ba_owner, len(b))
        for vals in (a, b, ab[0], ba[0]):
            if (vals.dtype == object and len(vals)) or np.count_nonzero(vals < 1):
                bad = vals[(vals < 1) | (vals > MAX_LENGTH)][0]
                raise ValueError(f"length {bad} outside [1, 2^63 - 1]")
        inst = cls.__new__(cls)
        inst.__dict__.update(_a=a, _b=b, _ab=ab, _ba=ba)
        return inst

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @cached_property
    def a_lengths(self) -> tuple[int, ...]:
        return tuple(self._a.tolist())

    @cached_property
    def b_lengths(self) -> tuple[int, ...]:
        return tuple(self._b.tolist())

    @cached_property
    def ab_sets(self) -> tuple[tuple[int, ...], ...]:
        return _unflatten(self._ab[0], self._ab[2])

    @cached_property
    def ba_sets(self) -> tuple[tuple[int, ...], ...]:
        return _unflatten(self._ba[0], self._ba[2])

    def _key(self):
        return tuple(x.tobytes() for x in (self._a, self._b, self._ab[0], self._ab[2],
                                           self._ba[0], self._ba[2]))

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
        return len(self._a)

    @property
    def q(self) -> int:
        return len(self._b)

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

    @cached_property
    def _ranked(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the AB and BA flats in (value, position) order:
        each side sorted once, for ``validate_consistency`` and the
        labeling plan alike."""
        return _rank(self._ab[0]), _rank(self._ba[0])


def _rank(values: np.ndarray) -> np.ndarray:
    """The order a stable argsort gives, from default-kind sorts.  Each
    (value >> shift, position) pair is packed into one int64 key, with
    the least shift that makes the keys fit (none for lengths below
    (2^63 - 1) / n), and one sort of those distinct keys gives the
    order, each key's position being its remainder mod n; a sort moves
    only the keys, so it is about four times faster than an argsort.
    After a shift the order holds when the values read nondecreasing
    in it.  When they do not (two values that differ only in the
    shifted-out bits lie in reverse order), it is one argsort of the
    values, then, only when some values repeat, one more over the
    distinct keys (tie run, position) to put each run in position order."""
    n = len(values)
    if not n:
        return np.arange(0)
    shift = (int(values.max()) // (MAX_LENGTH // n)).bit_length()
    order = np.sort((values >> shift) * n + np.arange(n)) % n
    if not shift or ((sv := values[order])[1:] >= sv[:-1]).all():
        return order
    order = np.argsort(values)
    sv = values[order]
    starts_run = sv[1:] != sv[:-1]
    if not starts_run.all():
        run = np.concatenate(([0], np.cumsum(starts_run)))
        order = order[np.argsort(run * n + order)]
    return order


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
        copy_ids = _copy_numbers(values, _rank(values))[0]
        return cls(np.stack((values, a_owners, b_owners, copy_ids)))

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


@dataclass(frozen=True, eq=False)
class LabeledInstance:
    """An EddInstance whose C-elements carry a concrete duplicate assignment.

    The parallel int64 arrays are the canonical storage; ``c_elements``
    stacks them into a CPermutation.  Elements are ordered by (a_owner,
    ascending value), i.e. the flattened AB side.  ``rank`` gives each
    element's place in (value, copy_id) order, a permutation of 0..n-1.
    It is also the digest graph: element k is an edge from A-fragment
    ``a_owners[k]`` to B-fragment ``b_owners[k]``.
    """

    base: EddInstance
    values: np.ndarray
    a_owners: np.ndarray
    b_owners: np.ndarray
    copy_ids: np.ndarray
    rank: np.ndarray

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def q(self) -> int:
        return self.base.q

    def node_name(self, ref) -> str:
        """A digest-graph node's name: A1, B2, or C<value>#<copy> (a NodeRef)."""
        if ref.kind != "C":
            return f"{ref.kind}{ref.index + 1}"
        return f"C{int(self.values[ref.index])}#{int(self.copy_ids[ref.index])}"

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

def parse_instance(text: str | bytearray) -> EddInstance:
    """Parse an EDD document.

    Format: first content line ``EDD 1``; one ``A`` line and one ``B``
    line (in that region, before any AB/BA lines); then one ``AB i ...``
    line per A-fragment and one ``BA j ...`` per B-fragment, 1-based,
    each index exactly once.  ``#`` starts a comment; blank lines are
    ignored.  Only syntax is checked here, not consistency.

    A document in plain shape, as ``serialize_instance`` writes it, is
    read in a fixed number of whole-buffer passes, with no Python loop
    over its lines (``_read_plain``), and each of A, B, AB and BA is one
    slice of the numbers read.  Plain shape is ``EDD 1`` and a newline,
    then the A line, the B line, the AB lines in index order and the BA
    lines in index order, each line starting with its kind and a space,
    and no byte other than digits, spaces, newlines and the letters A
    and B.  Any other document is first normalised (``_read_lines``): a
    copy with each line's tokens joined by one space, comments and blank
    lines dropped, goes through the same whole-buffer passes.  Only a
    document whose copy is not in plain shape (lines in another order,
    a stray sign, a value at or past 2^63 - 1) is read line by line with
    ``int()`` per token (``_read_exact``), the one reader that holds
    every rule and message, so the same results and the same ParseErrors
    come out either way: the first bad line, its line number and message.

    A plain document of at least 512 KiB (``_TWO_PARTS``) is read as two
    line-aligned parts at once, the second in a thread that is joined
    before this returns, when the process may run on two CPUs or more.
    The whole-buffer passes release the GIL, so the parts run on two
    cores; that is why the byte check is numpy comparisons rather than
    a ``bytearray.translate``, which holds the GIL.  A parse starts no
    other thread, and none outlives it.

    ``text`` may also be a bytearray, as ``edd`` reads a file: the plain
    reader marks it in place with no copy, so the caller gives it up.  One
    not in plain shape gets its bytes back and is decoded as UTF-8 for
    ``_read_lines``.
    """
    return _read_plain(text) or _read_lines(
        text if isinstance(text, str) else text.decode("utf-8"))


_KINDS = ("A", "B", "AB", "BA")
_TAGS = {kind: tag for tag, kind in enumerate(_KINDS)}
# The kind of a line from its first two bytes: "A ", "B ", "AB" or "BA".
_KIND_OF = np.full((256, 256), -1, dtype=np.int8)
_KIND_OF[[ord(k[0]) for k in _KINDS], [ord((k + " ")[1]) for k in _KINDS]] = range(len(_KINDS))


# A document of at least this many bytes is read as two parts at once
# (see ``_read_plain``).
_TWO_PARTS = 512 * 1024
# The most bytes ``_read_parts`` appends: a sentinel line and one at the cut.
_SENTINEL_BYTES = 6


def _read_plain(text: str | bytearray) -> EddInstance | None:
    """The instance of a document in plain shape (see ``parse_instance``),
    read in whole-buffer passes; None for any other document.

    A ``str`` is read from an ASCII copy; a bytearray in place, with no
    copy when it has ``_SENTINEL_BYTES`` to spare, and ``_unmark`` puts its
    bytes back when the document is not in plain shape.

    A document of at least ``_TWO_PARTS`` bytes, on a machine where this
    process may run on two CPUs or more, is cut at the first newline
    after its middle into two parts, which ``_read_parts`` reads at the
    same time.  The line sizes, indices and kinds of the parts are then
    joined, and the order of the lines is checked once: A, B, then AB 1
    to p and BA 1 to q, with neither A nor B empty.

    A second thread costs about 0.4 ms in start-up and GIL hand-offs, so
    small documents take one part: in alternating parses of big-map
    documents on a 2-core VM, two parts start to win between 400 and 530 KB.
    """
    if isinstance(text, str):
        plain = text.startswith("EDD 1\n") and text.isascii()
        text = bytearray(text, "ascii") if plain else bytearray()
    if not text.startswith(b"EDD 1\n") or not text.isascii():
        return None
    size, cut = len(text), -1
    if size >= _TWO_PARTS and _cpus() > 1:
        cut = text.find(b"\n", size // 2, size - 1)
    parts = _read_parts(text, cut)
    if None in parts:
        return _unmark(text, cut, size, parts)
    values, sizes, index, tags = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    p, q = (int(sizes[0]), int(sizes[1])) if len(sizes) > 1 else (0, 0)
    if (not p or not q or len(tags) != p + q + 2 or tags[0] != 0 or tags[1] != 1
            or np.count_nonzero(tags[2:p + 2] != 2) + np.count_nonzero(tags[p + 2:] != 3)
            + np.count_nonzero(index[2:p + 2] != np.arange(1, p + 1))
            + np.count_nonzero(index[p + 2:] != np.arange(1, q + 1))):
        return _unmark(text, cut, size, parts)
    del parts   # the halves of a two-part read, joined above
    split = p + q + int(sizes[2:p + 2].sum())   # where the BA lengths start
    return EddInstance._from_arrays(
        values[:p], values[p:p + q],
        values[p + q:split], np.arange(p, dtype=np.int64).repeat(sizes[2:p + 2]),
        values[split:], np.arange(q, dtype=np.int64).repeat(sizes[p + 2:]))


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_parts(buf: bytearray, cut: int) -> list:
    """``_read_part`` of each part of a document that starts with its
    header: the whole buffer when ``cut`` is -1, else the buffer up to
    the newline at ``cut`` and the buffer from that newline on.

    The buffer, read in place, gets its header blanked and a ``0 ``
    sentinel line after each part, so that each part ends in its own
    sentinel and the second starts with the newline.  The second part is
    read in a thread of its own, which is joined before this returns or
    raises, and whose exception is raised here.
    """
    buf[:5] = b"     "
    buf += b"0 " if buf.endswith(b"\n") else b"\n0 "
    if cut < 0:
        return [_read_part(np.frombuffer(buf, dtype=np.uint8))]
    buf[cut + 1:cut + 1] = b"0 \n"
    view = np.frombuffer(buf, dtype=np.uint8)
    second: list = []

    def run():
        try:
            second.append(_read_part(view[cut + 3:]))
        except BaseException as err:   # raised again in the caller
            second.append(err)

    worker = threading.Thread(target=run, name="edd-read-part")
    worker.start()
    try:
        first = _read_part(view[:cut + 3])
    finally:
        worker.join()
    if isinstance(second[0], BaseException):
        raise second[0]
    return [first, second[0]]


def _read_part(view: np.ndarray):
    """(lengths, sizes, index, tags) of the lines of one part of a
    document, as bytes in a uint8 array that it may overwrite: a part
    that starts with the blanked header or with a newline, and ends in a
    ``0 `` sentinel line.  None when the part is not in plain shape,
    with any kinds it overwrote written back.

    The bytes after each newline give each line's kind (``_KIND_OF``).
    Each kind is overwritten in place: its first letter by a ``0``, the
    second letter of ``AB`` and ``BA`` by a space.  After that the part
    must hold nothing but digits, spaces and newlines, so a letter
    anywhere but at a line start, or a line that starts with anything
    but its kind, gives None.  That byte check counts the digits and the
    spaces in numpy passes, which release the GIL, rather than calling
    ``bytearray.translate``, which holds it and would make two parts
    read in turn.  One ``np.fromstring`` reads the rest, from the array
    itself, with no copy of the part as ``bytes``.  No length or index
    is 0, so the zeros read are the marks: the line starts and the
    sentinel, all of which must be read, so a 0 in the text or a short
    read cannot pass.  The gaps between the marks are the line sizes.
    fromstring reads a number beyond int64 as 2^63 - 1, so a 2^63 - 1
    anywhere gives None too: the line path names the error or reads
    exactly.  Overwriting in place takes fewer passes over the text than
    a ``bytes.replace`` for each of the four line starts.
    """
    scratch = np.empty(len(view), dtype=bool)   # the one temporary of the whole-part passes
    newline = np.equal(view, ord("\n"), out=scratch)
    starts = newline.nonzero()[0][:-1] + 1   # the last newline is the sentinel's
    tags = _KIND_OF[view[starts], view[starts + 1]]
    indexed = tags >= 2
    if np.count_nonzero(tags < 0) or np.count_nonzero(view[starts[indexed] + 2] != ord(" ")):
        return None
    view[starts] = ord("0")
    view[starts[indexed] + 1] = ord(" ")
    digit = np.less(np.subtract(view, ord("0"), out=scratch.view(np.uint8)), 10, out=scratch)
    digits = np.count_nonzero(digit)
    spaces = np.count_nonzero(np.equal(view, ord(" "), out=scratch))
    if digits + spaces + len(starts) + 1 != len(view):
        return _put_kinds(view, starts, tags)
    del scratch, newline, digit
    values = np.fromstring(view, dtype=np.int64, sep=" ")
    marks = (values == 0).nonzero()[0]
    if len(marks) != len(starts) + 1 or np.count_nonzero(values == MAX_LENGTH):
        return _put_kinds(view, starts, tags)
    at = marks[:-1][indexed] + 1   # where each AB and BA index is
    index = np.zeros(len(tags), dtype=np.int64)
    index[indexed] = values[at]
    keep = np.ones(len(values), dtype=bool)
    keep[marks] = keep[at] = False
    return values[keep], marks[1:] - marks[:-1] - 1 - indexed, index, tags


_LEADS = np.frombuffer(b"ABAB", dtype=np.uint8)   # by tag; tag ^ 1 gives AB's and BA's second


def _put_kinds(view: np.ndarray, starts: np.ndarray, tags: np.ndarray) -> None:
    """Write back the kinds of the lines at ``starts`` that ``_read_part`` overwrote."""
    view[starts] = _LEADS[tags]
    indexed = tags >= 2
    view[starts[indexed] + 1] = _LEADS[tags[indexed] ^ 1]


def _unmark(buf: bytearray, cut: int, size: int, parts: list) -> None:
    """Give a bytearray back its ``size`` bytes as they were before
    ``_read_parts`` read it in place, cut at ``cut``: the header, the
    line kinds of each part read (a part not read put back its own), and
    no sentinels."""
    view = np.frombuffer(buf, dtype=np.uint8)
    bounds = [0, len(view)] if cut < 0 else [0, cut + 3, len(view)]
    for lo, hi, part in zip(bounds, bounds[1:], parts):
        if part is not None:
            _put_kinds(view, lo + np.flatnonzero(view[lo:hi] == ord("\n"))[:-1] + 1, part[3])
    del view   # its export would keep the bytearray from shrinking
    buf[:5] = b"EDD 1"
    if cut >= 0:
        del buf[cut + 1:cut + 4]
    del buf[size:]


def _read_lines(text: str) -> EddInstance:
    """The instance of a document not in plain shape.

    The document is only normalised: each line's tokens joined by one
    space, comments and blank lines dropped.  The copy goes to
    ``_read_plain``; a document whose copy is not in plain shape is read
    again by ``_read_exact``, which also raises the first bad line's error.
    """
    lines = (line.split("#", 1)[0].split() for line in text.splitlines())
    kept = [" ".join(tokens) for tokens in lines if tokens]
    return _read_plain("\n".join(kept) + "\n") or _read_exact(text)


def _read_exact(text: str) -> EddInstance:
    """The instance of any document, read in one pass over its lines
    with ``int()`` per token, in any order; raises the ParseError of the
    first bad line.  Every rule of the grammar and every message is here."""
    lines: list = [None, None, {}, {}]   # by tag: the A and B lengths, {index: lengths} of AB and BA
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
        if tag >= 2:
            if len(tokens) < 2:
                raise ParseError(line_no, f"{kind} line needs an index")
            idx = _index(kind, tokens[1], lines[tag - 2], lines[tag], line_no)
        elif lines[tag] is not None:
            raise ParseError(line_no, f"duplicate {kind} line")
        lengths = [_length(tok, line_no) for tok in tokens[1 + (tag >= 2):]]
        if tag >= 2:
            lines[tag][idx] = lengths
        elif lengths:
            lines[tag] = lengths
        else:
            raise ParseError(line_no, f"{kind} line needs at least one length")
    if not header_seen:
        raise ParseError(line_no or 1, "missing 'EDD 1' header")
    a, b, ab, ba = lines
    if a is None:
        raise ParseError(line_no, "missing A line")
    if b is None:
        raise ParseError(line_no, "missing B line")
    for kind, sets, count in (("AB", ab, len(a)), ("BA", ba, len(b))):
        if len(sets) < count:
            missing = next(i for i in range(1, count + 1) if i not in sets)
            raise ParseError(line_no, f"missing {kind} line for index {missing}")
    return EddInstance(a, b, map(ab.get, range(1, len(a) + 1)), map(ba.get, range(1, len(b) + 1)))


def _index(kind: str, tok: str, lengths: list | None, seen: dict, line_no: int) -> int:
    """The index of an AB or BA line, checked against the A or B line's
    ``lengths`` and the indices ``seen`` before."""
    try:
        idx = int(tok)
    except ValueError:
        raise ParseError(line_no, f"invalid {kind} index {tok!r}") from None
    if lengths is None:
        raise ParseError(line_no, f"{kind} line before {kind[0]} line")
    if not 1 <= idx <= len(lengths):
        raise ParseError(line_no, f"{kind} index {idx} out of range 1..{len(lengths)}")
    if idx in seen:
        raise ParseError(line_no, f"duplicate {kind} line for index {idx}")
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


def _grouped(values: np.ndarray, owner: np.ndarray, count: int):
    """(values, owner, offsets) sorted by (owner, value), owners 0..count-1."""
    if len(values) > 1 and np.count_nonzero((owner[1:] < owner[:-1]) | (
            (owner[1:] == owner[:-1]) & (values[1:] < values[:-1]))):
        order = values.argsort()
        order = order[owner[order].argsort(kind="stable")]
        values, owner = values[order], owner[order]
    return values, owner, np.concatenate(([0], np.bincount(owner, minlength=count).cumsum()))


_LINE_CODES = np.array([" %d", "\nAB %d", "\nBA %d"], dtype=object)   # a value, a line head


def serialize_instance(inst: EddInstance) -> str:
    """Render the canonical text form; round-trips through parse_instance.

    The document is one template with a ``%d`` per value and per AB/BA
    line number, filled by one ``%``: no ``str`` object per value."""
    fa, _, offa, fb, _, offb = inst._flats()
    a, b = inst._length_arrays()
    template = ["EDD 1\nA " + " ".join(["%d"] * len(a)), "\nB " + " ".join(["%d"] * len(b))]
    values = [a, b]
    for kind, flat, offsets in ((1, fa, offa), (2, fb, offb)):
        lines = len(offsets) - 1
        heads = offsets[:-1] + np.arange(lines)   # each line's number goes before its values
        code = np.zeros(len(flat) + lines, dtype=np.intp)
        code[heads] = kind
        doc = np.empty(len(code), dtype=np.int64)
        doc[heads] = np.arange(1, lines + 1)
        doc[code == 0] = flat
        template += _LINE_CODES[code].tolist()
        values.append(doc)
    return ("".join(template) + "\n") % tuple(np.concatenate(values).tolist())


# --- consistency -----------------------------------------------------------

def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    # cumsum-diff handles empty segments; callers re-check near-overflow data.
    csum = np.concatenate(([0], values.cumsum()))
    return csum[offsets[1:]] - csum[offsets[:-1]]


def _check_sums(lengths: np.ndarray, values, offsets, rule, label, violations):
    sums = _segment_sums(values, offsets)
    bad = (sums != lengths).nonzero()[0]
    if len(values) and int(values.max()) * int((offsets[1:] - offsets[:-1]).max()) >= 2**63:
        # some segment's sum may wrap in int64; redo exactly in Python.
        exact = list(map(sum, _unflatten(values, offsets)))
        bad = np.flatnonzero(np.fromiter((e != w for e, w in zip(exact, lengths.tolist())),
                                         dtype=bool, count=len(lengths)))
        sums = exact
    for i in bad.tolist():
        violations.append(ConsistencyViolation(
            rule, f"{label.lower()}_{i + 1} = {int(lengths[i])} but {label}{'B' if label == 'A' else 'A'}_{i + 1} sums to {int(sums[i])}"))


def validate_consistency(inst: EddInstance) -> ConsistencyReport:
    """Check the three realizability rules; report every violation.

    1. each a_i equals the sum of AB_i, each b_j the sum of BA_j;
    2. the AB and BA sides flatten to the same multiset C;
    3. |C| = p + q - 1 (counted on the AB side).
    """
    fa, _, offa, fb, _, offb = inst._flats()
    violations: list[ConsistencyViolation] = []
    a_lengths, b_lengths = inst._length_arrays()
    _check_sums(a_lengths, fa, offa, SUM_A, "A", violations)
    _check_sums(b_lengths, fb, offb, SUM_B, "B", violations)

    if len(fa) != len(fb):
        violations.append(ConsistencyViolation(
            UNION_MISMATCH, f"AB side has {len(fa)} elements, BA side {len(fb)}"))
    else:
        order_a, order_b = inst._ranked
        sa, sb = fa[order_a], fb[order_b]
        if (sa != sb).any():
            k = int((sa != sb).argmax())
            violations.append(ConsistencyViolation(
                UNION_MISMATCH,
                f"multisets differ at sorted position {k}: {int(sa[k])} vs {int(sb[k])}"))

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


def _copy_numbers(values: np.ndarray, order: np.ndarray):
    """(copy_ids, sorted, starts, sizes): equal values' copies numbered
    1, 2, ... in position order, ``values[order]``, and the start and
    size of each of its equal-value runs.  ``order`` is the (value,
    position) order of ``values``, from ``_rank`` or ``_ranked``."""
    n = len(values)
    sv = values[order]
    starts = np.concatenate(([True], sv[1:] != sv[:-1])).nonzero()[0]
    sizes = np.concatenate((starts[1:], [n])) - starts
    if len(starts) == n:   # no value repeats, so every copy is the first
        return np.ones(n, dtype=np.int64), sv, starts, sizes
    copy_ids = np.empty(n, dtype=np.int64)
    copy_ids[order] = np.arange(1, n + 1, dtype=np.int64) - starts.repeat(sizes)
    return copy_ids, sv, starts, sizes


def _labeling_plan(inst: EddInstance) -> tuple[LabeledInstance, list]:
    """The identity labeling, which matches each value's t-th AB-side copy
    with its t-th BA-side copy, and the duplicate groups, as (c
    positions, BA-side owners) per repeated value; all read off the
    instance's one ranking of each side (``_ranked``)."""
    fa, oa, _, fb, ob, _ = inst._flats()
    order_a, order_b = inst._ranked
    copy_ids, sv, starts, sizes = _copy_numbers(fa, order_a)
    if len(sv) != len(fb) or (sv != fb[order_b]).any():
        raise ValueError("inconsistent instance: AB and BA multisets differ")
    n = len(fa)
    rank = np.empty(n, dtype=np.int64)
    rank[order_a] = np.arange(n, dtype=np.int64)   # copies number in position order
    b_owners = np.empty(n, dtype=np.int64)
    b_owners[order_a] = ob[order_b]

    groups: list[tuple[list[int], list[int]]] = []
    for g in (sizes > 1).nonzero()[0].tolist():
        s, m = int(starts[g]), int(sizes[g])
        groups.append((order_a[s:s + m].tolist(), ob[order_b[s:s + m]].tolist()))
    return LabeledInstance(inst, fa, oa, b_owners, copy_ids, rank), groups


def label_duplicates(inst: EddInstance,
                     max_assignments: int | None = None) -> Iterator[LabeledInstance]:
    """Enumerate every assignment of equal-valued copies to their BA slots.

    For each distinct value with multiplicity m, all m! bijections
    between its AB-side and BA-side copies are combined across values
    (values ascending, later values varying fastest; bijections in
    lexicographic order).  Yields lazily; raises AssignmentCapExceeded
    up front if the total exceeds ``max_assignments``.  It is
    ``_labelings`` with each copy and slot its own label and class.
    """
    ident, groups = _labeling_plan(inst)
    if max_assignments is not None:
        total = count_assignments(inst)
        if total > max_assignments:
            raise AssignmentCapExceeded(total, max_assignments)
    return (lab for _aid, lab in _labelings(ident, groups,
                                            lambda cpos, _owners: (range(len(cpos)),) * 2))


def _labelings(ident: LabeledInstance, groups, labels) -> Iterator[tuple[int, LabeledInstance]]:
    """(assignment id, labeling) for each combination of the groups'
    ``_distinct_matchings`` classes, the last group fastest.  The id is
    the mixed-radix number of the groups' ranks, radix m! for m copies:
    the place of the class's first assignment in ``label_duplicates``.

    ``labels(cpos, owners)`` gives a group's (AB-side, BA-side) labels
    whenever its classes start over, as every later group's do when a
    group steps.  Only the groups that moved rewrite their copies'
    ``b_owners``: the t-th AB-side copy takes ``owners[perm[t]]``.
    """
    radices = [math.factorial(len(cpos)) for cpos, _ in groups]
    streams, ranks = [None] * len(groups), [0] * len(groups)
    b_own = ident.b_owners.copy()
    moved, record = 0, None   # the group that stepped, and to which class
    while True:
        for g in range(moved, len(groups)):
            if record is None:   # each group after ``moved`` starts over
                streams[g] = _distinct_matchings(*labels(*groups[g]))
                record = next(streams[g])
            ranks[g], first, tail = record
            cpos, owners = groups[g]
            for t, s in enumerate(tail, start=first):
                b_own[cpos[t]] = owners[s]
            record = None
        aid = 0
        for rank, radix in zip(ranks, radices):
            aid = aid * radix + rank
        yield aid, replace(ident, b_owners=b_own.copy())
        moved = len(groups) - 1
        while moved >= 0 and (record := next(streams[moved], None)) is None:
            moved -= 1
        if moved < 0:
            return


def _distinct_matchings(a_labels, b_labels) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """One representative bijection per distinct pairing multiset.

    Bijections pairing the same multiset of (AB-side label, BA-side
    label) produce digest graphs identical up to renaming interchangeable
    fragments, hence identical value-level families.  Each class is
    represented by its first bijection in lexicographic order.  Yields
    a (rank, first, tail) record per class, ranks ascending: ``rank`` is
    the place in the full lexicographic enumeration, ``first`` the first
    position where the perm differs from the previous class's (0 for the
    first class), ``tail`` perm[first:].  With every label distinct on
    both sides, each bijection is its own class.

    One depth-first search in lexicographic order lists just these:
    position t takes some BA-side label's smallest free slot, labels
    ascending by that slot, and bans for later positions with its AB-side
    label the labels tried before at t (swapping them would give a
    smaller bijection of the same class).  Ranks accumulate by Horner's
    rule over the free slots below each pick.  A pick that leaves fewer
    free slots outside the ban than later positions with t's AB-side
    label has no completion; as the ban only grows, neither has any
    later pick at t, so t's loop ends there.
    """
    m = len(a_labels)
    slots: dict = {}   # BA-side label -> its free slots, descending
    later, seen = [0] * m, {}   # later[t]: the positions after t with t's AB-side label
    for s in range(m - 1, -1, -1):
        slots.setdefault(b_labels[s], []).append(s)
        later[s] = seen.get(a_labels[s], 0)
        seen[a_labels[s]] = later[s] + 1
    heads = sorted((ss[-1], label) for label, ss in slots.items())   # (smallest free slot, label)
    free = list(range(m))
    banned = {a: set() for a in a_labels}   # AB-side label -> BA-side labels it may not take
    perm = [0] * m

    def picks(t: int, rank: int):
        """Take in turn each label position t may take; yield each pick's rank so far."""
        ban = banned[a_labels[t]]
        need = later[t]
        blocked = sum(len(slots[label]) for label in ban) if need else 0   # free slots the ban holds
        tried = []
        i = 0
        while i < len(heads):
            s, label = heads[i]
            if label in ban:
                i += 1
                continue
            if need and len(free) - 1 - blocked < need:
                break
            below = bisect_left(free, s)
            del free[below], heads[i]
            own = slots[label]
            own.pop()
            if own:
                insort(heads, (own[-1], label))
            perm[t] = s
            yield rank * (m - t) + below
            if own:
                del heads[bisect_left(heads, (own[-1], label))]
            own.append(s)
            heads.insert(i, (s, label))
            free.insert(below, s)
            ban.add(label)
            blocked += len(own)
            tried.append(label)
            i += 1
        ban.difference_update(tried)

    # depth-first, one generator per depth on an explicit stack: the
    # depth is the number of copies, past Python's recursion limit
    stack = [picks(0, 0)]
    first = 0   # the shallowest position picked again since the last class
    while stack:
        rank = next(stack[-1], None)
        if rank is None:
            stack.pop()
            continue
        first = min(first, len(stack) - 1)
        if len(stack) < m:
            stack.append(picks(len(stack), rank))
        else:
            yield rank, first, tuple(perm[first:])
            first = m
