"""Ground-truth layout check and exhaustive reference solver.

``verify_permutation`` takes candidate fragment orders as index
sequences, plots both digests on one line as arrays, derives the
overlap sub-fragments, and checks them against the cross-digest data --
the defining test of a valid layout.  It returns a verdict; the plotted
pieces are not kept as objects.  The exhaustive solver tries every
permutation pair and keeps what passes; it exists to witness the fast
solver's answers and deliberately shares none of its machinery (only
the plain Solution containers and the orientation key are imported).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .instance import MAX_LENGTH, CPermutation, EddInstance
from .solver import Solution, canonical_key, canonicalize_solution

COINCIDENT_CUT = "COINCIDENT_CUT"
SUM_MISMATCH = "SUM_MISMATCH"


class LayoutError(ValueError):
    rule = "LAYOUT"


class CoincidentCut(LayoutError):
    """An internal cut of one digest lands exactly on a cut of the other;
    the two enzymes never share a site, so such a layout is unphysical."""

    rule = COINCIDENT_CUT

    def __init__(self, position: int):
        super().__init__(f"cut position {position} appears in both digests")
        self.position = position


class SumMismatch(LayoutError):
    rule = SUM_MISMATCH

    def __init__(self, total_a: int, total_b: int):
        super().__init__(f"digest totals differ: {total_a} vs {total_b}")
        self.total_a = total_a
        self.total_b = total_b


class OracleCapExceeded(RuntimeError):
    def __init__(self, p: int, q: int, cap: int):
        super().__init__(f"p + q = {p + q} exceeds exhaustive-search cap {cap}")


def _is_permutation(idx: np.ndarray, count: int) -> bool:
    """True when ``idx`` holds each of 0..count-1 exactly once: a range
    check and one count per index, in linear time."""
    if idx.shape != (count,) or not count:
        return idx.shape == (count,)
    if idx.min() < 0 or idx.max() >= count:
        return False
    return bool((np.bincount(idx.astype(np.intp, copy=False), minlength=count) == 1).all())


def _check_permutation(seq, count, name) -> np.ndarray:
    idx = np.asarray(seq)
    if idx.dtype.kind not in "iu" or not _is_permutation(idx, count):
        raise ValueError(f"{name} is not a permutation of 0..{count - 1}")
    return idx.astype(np.int64, copy=False)


def _cut_arrays(pa, pb, inst: EddInstance):
    """Prefix sums of both orderings and the pieces they cut.

    Returns (a_prefix, b_prefix, bounds, a_index, b_index): ``bounds``
    holds 0, every cut and the total in ascending order, and piece k,
    from ``bounds[k]`` to ``bounds[k + 1]``, lies in A-fragment
    ``a_index[k]`` and B-fragment ``b_index[k]``.  Positions are exact
    Python ints in object arrays when a digest's total passes int64.
    ``pa`` and ``pb`` are known to be permutations.
    """
    pa, pb = np.asarray(pa), np.asarray(pb)
    a_len, b_len = inst._length_arrays()
    a, b = a_len[pa], b_len[pb]
    a_prefix, b_prefix = np.cumsum(a), np.cumsum(b)
    # lengths are below 2^63, so a total past int64 wraps some prefix below 0
    if a_prefix.min() < 0 or b_prefix.min() < 0:
        a_prefix, b_prefix = np.cumsum(a.astype(object)), np.cumsum(b.astype(object))
    if a_prefix[-1] != b_prefix[-1]:
        raise SumMismatch(int(a_prefix[-1]), int(b_prefix[-1]))
    a_cuts, b_cuts = a_prefix[:-1], b_prefix[:-1]
    bounds = np.concatenate(([0], a_cuts, b_cuts, a_prefix[-1:]))
    # two ascending runs, 0 and the A cuts, then the B cuts and the total:
    # a stable argsort merges them in linear time
    order = np.argsort(bounds, kind="stable")
    bounds = bounds[order]
    # each digest's cuts rise strictly inside (0, total): a repeat is a shared cut
    shared = np.flatnonzero(bounds[1:] == bounds[:-1])
    if len(shared):
        raise CoincidentCut(int(bounds[shared[0]]))
    # every piece but the first starts at a cut; count the A cuts up to each start
    a_count = np.cumsum((order[:-1] >= 1) & (order[:-1] <= len(a_cuts)))
    a_index = pa[a_count]
    b_index = pb[np.arange(len(a_count)) - a_count]
    return a_prefix, b_prefix, bounds, a_index, b_index


def _first_mismatch(keys: np.ndarray, n: int, lengths: np.ndarray,
                    values: np.ndarray, want_owner: np.ndarray) -> int | None:
    """The smallest fragment whose pieces differ, as a multiset, from its
    segment of the flats ``values``/``want_owner``; None when all agree.

    ``keys`` are the pieces' owner * n + length rank, sorted, so they
    list the pieces by (owner, length) as the flats list their values;
    ``lengths`` are the n piece lengths in rank order.
    At the first position where the two lists differ, one of them holds
    the smallest mismatched fragment, and the other a larger one.
    """
    owners, got = keys // n, lengths[keys % n]
    m = min(len(owners), len(want_owner))
    diff = np.flatnonzero((owners[:m] != want_owner[:m]) | (got[:m] != values[:m]))
    if len(diff):
        k = diff[0]
        return int(min(owners[k], want_owner[k]))
    if len(owners) != len(want_owner):
        return int(owners[m] if len(owners) > m else want_owner[m])
    return None


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_permutation(inst: EddInstance, pa, pb, *, checked: bool = False) -> VerifyResult:
    """Decide whether (pa, pb) is a valid layout of the instance.

    Valid means: the overlap pieces reproduce the multiset C, and the
    pieces covered by each fragment reproduce exactly its cross-digest
    multiset.  The first failing check is reported, in this order: the
    digest totals, a coincident cut (the smallest), C, then the smallest
    mismatched AB_i, then the smallest mismatched BA_j.

    The work is array-wide: prefix sums place the cuts, one stable
    argsort merges them into pieces, a running count of the A cuts
    among them gives each piece's owners, and one sort of (owner, length
    rank) keys lines the pieces up against the flats of both sides.
    Positions are exact Python ints when a digest's total passes int64.
    Raises ValueError when pa or pb is not a permutation; ``checked``
    says that they are int64 arrays already known to be permutations, so
    that they are not checked again.
    """
    if not checked:
        pa, pb = _check_permutation(pa, inst.p, "pa"), _check_permutation(pb, inst.q, "pb")
    try:
        _, _, bounds, a_index, b_index = _cut_arrays(pa, pb, inst)
    except LayoutError as err:
        return VerifyResult(False, err.rule)
    # a piece is no longer than the fragments holding it, so lengths fit int64
    pieces = np.diff(bounds).astype(np.int64)
    fa, oa, _, fb, ob, _ = inst._flats()
    n = len(pieces)
    if int(pieces.max()) < MAX_LENGTH // n:
        # distinct (length, position) keys: a sort, not an argsort, orders them
        keys = np.sort(pieces * n + np.arange(n))
        by_length, lengths = keys % n, keys // n
    else:
        by_length = np.argsort(pieces)
        lengths = pieces[by_length]
    if n != len(fa) or (lengths != np.sort(fa)).any():
        return VerifyResult(False, "piece multiset differs from C")
    rank = np.empty(n, dtype=np.int64)
    rank[by_length] = np.arange(n)
    # B-fragment j is owner p + j, so one pass checks AB_i before BA_j
    p = inst.p
    keys = np.sort(np.concatenate((a_index, b_index + p)) * n + np.tile(rank, 2))
    bad = _first_mismatch(keys, n, lengths, np.concatenate((fa, fb)),
                          np.concatenate((oa, ob + p)))
    if bad is None:
        return VerifyResult(True)
    return VerifyResult(False, f"AB_{bad + 1} mismatch" if bad < p else f"BA_{bad - p + 1} mismatch")


def _solution_from_layout(inst: EddInstance, pa, pb) -> Solution:
    _, _, bounds, a_index, b_index = _cut_arrays(pa, pb, inst)
    pieces = np.diff(bounds).astype(np.int64)
    return Solution(tuple(pa), tuple(pb), CPermutation.along_line(pieces, a_index, b_index))


DEFAULT_ORACLE_CAP = 12


def brute_force_solve(inst: EddInstance, max_total: int = DEFAULT_ORACLE_CAP) -> list[Solution]:
    """Try all p!*q! permutation pairs; return the valid layouts.

    Output is canonicalized for orientation, deduplicated, and sorted by
    its canonical key, so it compares directly against the fast solver.
    """
    p, q = inst.p, inst.q
    if p + q > max_total:
        raise OracleCapExceeded(p, q, max_total)
    found: dict = {}
    for pa in permutations(range(p)):
        for pb in permutations(range(q)):
            if verify_permutation(inst, pa, pb):
                sol = canonicalize_solution(inst, _solution_from_layout(inst, pa, pb))
                key = canonical_key(inst, sol)
                if key not in found:
                    found[key] = sol
    return [found[k] for k in sorted(found)]
