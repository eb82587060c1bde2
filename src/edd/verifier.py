"""Ground-truth layout check and exhaustive reference solver.

``verify_permutation`` takes candidate fragment orders as index
sequences, plots both digests on one line as arrays, derives the
overlap sub-fragments, and checks them against the cross-digest data --
the defining test of a valid layout.  It returns a verdict; the plotted
pieces are not kept as objects.  The exhaustive solver tries every
permutation pair and keeps what passes; it exists to witness the fast
solver's answers and shares none of its search (only the Solution
container and the orientation key come from the solver).  It does
share the instance's sorting: ``_rank`` orders the pieces, the
instance's ``_ranked`` and ``_grouped`` its flats, and pieces come out
as a ``CPermutation``; ``test_rank_matches_stable_argsort`` checks that
ranking against numpy's stable argsort.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .instance import CPermutation, EddInstance, _grouped, _rank
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
    """True when ``idx`` holds each of 0..count-1 exactly once: its count
    entries lie in range and reach every index, in linear time."""
    if idx.shape != (count,) or not count:
        return idx.shape == (count,)
    if np.count_nonzero((idx < 0) | (idx >= count)):
        return False
    return np.count_nonzero(np.bincount(idx.astype(np.intp, copy=False), minlength=count)) == count


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
    a_prefix, b_prefix = a.cumsum(), b.cumsum()
    # lengths are below 2^63, so a total past int64 wraps some prefix below 0
    if np.count_nonzero(a_prefix < 0) or np.count_nonzero(b_prefix < 0):
        a_prefix, b_prefix = a.astype(object).cumsum(), b.astype(object).cumsum()
    if a_prefix[-1] != b_prefix[-1]:
        raise SumMismatch(int(a_prefix[-1]), int(b_prefix[-1]))
    a_cuts, b_cuts = a_prefix[:-1], b_prefix[:-1]
    bounds = np.concatenate(([0], a_cuts, b_cuts, a_prefix[-1:]))
    # two ascending runs, 0 and the A cuts, then the B cuts and the total:
    # a stable argsort merges them in linear time
    order = bounds.argsort(kind="stable")
    bounds = bounds[order]
    # each digest's cuts rise strictly inside (0, total): a repeat is a shared cut
    shared = (bounds[1:] == bounds[:-1]).nonzero()[0]
    if len(shared):
        raise CoincidentCut(int(bounds[shared[0]]))
    # each piece starts at a cut but the first, at 0 (order[0]); count the A cuts up to each start
    a_count = (order[:-1] <= len(a_cuts)).cumsum() - 1
    a_index = pa[a_count]
    b_index = pb[np.arange(len(a_count)) - a_count]
    return a_prefix, b_prefix, bounds, a_index, b_index


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
    argsort merges them into pieces, and a running count of the A cuts
    among them gives each piece's owners.  ``_rank`` puts the pieces in
    length order and the instance's ranking (``_ranked``) each side's
    flats in (value, owner) order, so that owners compare position by
    position once one sort of (run, owner) keys orders the pieces'
    owners within each run of equal lengths.  Where a run first differs,
    the smaller owner is the run's smallest mismatched fragment, and no
    later position of the run names a smaller one.  A BA side that is
    not C (an inconsistent instance) is compared in (owner, length) order.
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
    pieces = (bounds[1:] - bounds[:-1]).astype(np.int64, copy=False)
    fa, oa, _, fb, ob, _ = inst._flats()
    by_length = _rank(pieces)
    order_a, order_b = inst._ranked
    lengths = pieces[by_length]
    if len(lengths) != len(fa) or np.count_nonzero(lengths != fa[order_a]):
        return VerifyResult(False, "piece multiset differs from C")
    got_a, got_b = a_index[by_length], b_index[by_length]
    same = np.concatenate(([False], lengths[1:] == lengths[:-1], [False]))
    if np.count_nonzero(same):   # put the pieces' owners in order within each run of equal lengths
        tied = (same[1:] | same[:-1]).nonzero()[0]
        run = (~same[:-1]).cumsum()[tied]
        for got, count in ((got_a, inst.p), (got_b, inst.q)):
            got[tied] = np.sort(run * count + got[tied]) % count
    for name, got, want in (("AB", got_a, oa[order_a]), ("BA", got_b, ob[order_b])):
        if name == "BA" and (len(fb) != len(lengths) or np.count_nonzero(lengths != fb[order_b])):
            # the BA side is not C: line the pieces up with it by (owner, length)
            values, got, _ = _grouped(lengths, got, inst.q)
            m = min(len(got), len(fb))
            k = np.concatenate(((got[:m] != ob[:m]) | (values[:m] != fb[:m]), [True])).argmax()
            bad = min(got[k:k + 1].tolist() + ob[k:k + 1].tolist())   # k = m: one list ended
        else:
            differ = got != want
            bad = int(np.minimum(got, want)[differ].min()) if np.count_nonzero(differ) else None
        if bad is not None:
            return VerifyResult(False, f"{name}_{bad + 1} mismatch")
    return VerifyResult(True)


def _solution_from_layout(inst: EddInstance, pa, pb) -> Solution:
    _, _, bounds, a_index, b_index = _cut_arrays(pa, pb, inst)
    pieces = (bounds[1:] - bounds[:-1]).astype(np.int64, copy=False)
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
