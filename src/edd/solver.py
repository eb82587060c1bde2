"""All-solutions search for consistent EDD instances.

The search runs on the digest graph: a labeled instance is solvable
exactly when its graph is a tree whose diameter carries everything else
as 2-node danglers.  Walking the diameter and reading dangler groups as
interchangeable blocks yields a compact family describing every valid
layout; duplicate values are handled by running the walk once per
class of duplicate assignments that relabel one another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice, product, repeat
from typing import Iterator

import numpy as np

from .digestgraph import (
    StructureVerdict,
    StructureViolation,
    build_graph,
    check_structure,
)
from .instance import (
    AssignmentCapExceeded,
    CPermutation,
    EddInstance,
    LabeledInstance,
    _distinct_matchings,
    _labeling_plan,
    _labelings,
)

DEFAULT_MAX_ASSIGNMENTS = 10_080  # 7! * 2
DEFAULT_MAX_EXPANSIONS = 10_000
GROUP_LAYOUTS = 64  # fewest layouts per run of FamilyExpansion.groups, where blocks allow


class NotConsecutiveError(ValueError):
    """A candidate C-ordering scatters some fragment's elements."""

    def __init__(self, kind: str, index: int):
        super().__init__(f"elements of {kind}-fragment {index + 1} are not consecutive")
        self.kind = kind
        self.index = index


@dataclass(frozen=True, eq=False)
class Solution:
    """A valid layout: fragment orders pi_a / pi_b (tuples of 0-based
    indices) plus the C-ordering they were induced from, a CPermutation
    whose columns hold the elements' values, owners and copy ids."""

    pi_a: tuple[int, ...]
    pi_b: tuple[int, ...]
    pi_c: CPermutation

    def a_values(self, inst: EddInstance) -> tuple[int, ...]:
        return tuple(inst.a_lengths[i] for i in self.pi_a)

    def b_values(self, inst: EddInstance) -> tuple[int, ...]:
        return tuple(inst.b_lengths[j] for j in self.pi_b)

    def c_values(self) -> tuple[int, ...]:
        return self.pi_c.values()


def mirror_solution(sol: Solution) -> Solution:
    return Solution(sol.pi_a[::-1], sol.pi_b[::-1], sol.pi_c[::-1])


def canonical_key(inst: EddInstance, sol: Solution):
    """Orientation-free identity of a layout.

    A layout read right-to-left is the same physical map, so the key is
    the lexicographically smaller of the value sequences (C, A, B) and
    their reversals.
    """
    c = sol.c_values()
    a = sol.a_values(inst)
    b = sol.b_values(inst)
    forward = (c, a, b)
    backward = (c[::-1], a[::-1], b[::-1])
    return min(forward, backward)


def canonicalize_solution(inst: EddInstance, sol: Solution) -> Solution:
    forward = (sol.c_values(), sol.a_values(inst), sol.b_values(inst))
    return sol if canonical_key(inst, sol) == forward else mirror_solution(sol)


# --- solution families -----------------------------------------------------

@dataclass(eq=False)
class SolutionFamily:
    """Compact form of every valid C-ordering for one labeled instance.

    The family is its int64 arrays.  ``order`` lists C-indices in the
    canonical reading direction, with each block's interior ascending by
    (value, copy); ``c_value_array()`` gives their values.  Block k is
    the half-open range ``block_starts[k]:block_ends[k]`` of ``order``,
    attached at contracted node ``block_attach[k]`` (A-fragment i is node
    i, B-fragment j is node p + j); every position outside a block is a
    fixed slot.  Expanding the blocks in all ways yields every valid
    layout: ``block_sizes()`` and ``expansion_count`` measure that, and
    ``induced_index_arrays()`` gives pi_a / pi_b of the canonical
    expansion.  The family is stored in the lexicographically smaller of
    the two reading directions."""

    labeled: LabeledInstance
    order: np.ndarray
    block_starts: np.ndarray
    block_ends: np.ndarray
    block_attach: np.ndarray   # contracted node id per block

    def block_sizes(self) -> tuple[int, ...]:
        return tuple((self.block_ends - self.block_starts).tolist())

    @property
    def expansion_count(self) -> int:
        """Number of raw expansions: product of block-size factorials."""
        return math.prod(map(math.factorial, self.block_sizes()))

    def c_value_array(self) -> np.ndarray:
        return self.labeled.values[self.order]

    def family_key(self) -> tuple:
        """Identity up to renaming fragments of equal length: equal keys
        expand to equal layout sets.

        Besides the C values along ``order`` and the block spans, each
        position carries the lengths of its A-owner and B-owner and both
        owners renumbered by first appearance (each owner is one run of
        ``order``), so assignments that lay different A/B runs over one
        C-value sequence stay apart.  O(n).
        """
        lab = self.labeled
        key = [self.c_value_array(), self.block_starts, self.block_ends]
        for owners, lengths, runs in zip((lab.a_owners, lab.b_owners),
                                         lab.base._length_arrays(), self._run_index()):
            key += [lengths[owners[self.order]], runs]
        return tuple(k.tobytes() for k in key)

    def induced_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """pi_a / pi_b for the canonical expansion, as index arrays."""
        lab = self.labeled
        pi_a = _dedupe_runs(lab.a_owners[self.order], lab.base.p, "A")
        pi_b = _dedupe_runs(lab.b_owners[self.order], lab.base.q, "B")
        return pi_a, pi_b

    def block_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Which fragment order each block permutes (1, pi_b, for a block
        at an A-node, whose members each have a single-piece B-fragment;
        0, pi_a, for one at a B-node) and where the block starts in it:
        the block holds ``pi[t:t + size]`` of the canonical expansion, and
        reordering it changes nothing else."""
        at_a = self.block_attach < self.labeled.base.p
        a_runs, b_runs = (runs[self.block_starts] for runs in self._run_index())
        return at_a.astype(np.int64), np.where(at_a, b_runs, a_runs)

    def _run_index(self) -> list[np.ndarray]:
        """Per pi, the index of the owner run that holds each position of ``order``."""
        lab = self.labeled
        return [np.cumsum(np.diff(owners, prepend=owners[:1]) != 0)
                for owners in (lab.a_owners[self.order], lab.b_owners[self.order])]


def _dedupe_runs(owners: np.ndarray, count: int, kind: str) -> np.ndarray:
    if not len(owners):
        raise ValueError("empty ordering")
    first = np.empty(len(owners), dtype=bool)   # True where a run starts
    first[0] = True
    np.not_equal(owners[1:], owners[:-1], out=first[1:])
    runs = owners[first]
    if len(runs) != count:
        seen = np.bincount(runs, minlength=count)
        bad = int(np.flatnonzero(seen != 1)[0])
        raise NotConsecutiveError(kind, bad)
    return runs


def _lex_less(x: np.ndarray, y: np.ndarray) -> bool:
    diff = np.flatnonzero(x != y)
    if not len(diff):
        return False
    i = diff[0]
    return bool(x[i] < y[i])


def _assemble(spine: np.ndarray, links: np.ndarray, pend_c: np.ndarray,
              pend_pos: np.ndarray):
    """Lay out pendant blocks and spine links in reading order."""
    m1 = len(spine)
    counts = np.bincount(pend_pos, minlength=m1)
    sizes = counts.copy()
    if m1 > 1:
        sizes[:-1] += 1
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    order = np.empty(int(offsets[-1]), dtype=np.int64)
    if len(pend_c):
        first = np.cumsum(counts) - counts
        within = np.arange(len(pend_c), dtype=np.int64) - np.repeat(first, counts)
        order[offsets[pend_pos] + within] = pend_c
    if m1 > 1:
        order[offsets[:m1 - 1] + counts[:m1 - 1]] = links
    bpos = np.flatnonzero(counts >= 2)
    return (order, offsets[bpos], offsets[bpos] + counts[bpos], spine[bpos])


def dangler_first_search(lab: LabeledInstance, verdict: StructureVerdict) -> SolutionFamily:
    """Read the diameter once, emitting dangler groups as blocks.

    Fixed slots carry the diameter's interior C-nodes in walk order; at
    every diameter node the C-elements that hang off it as danglers --
    plus, at the two interior end nodes, the terminal diameter C-node,
    whose position is equally free -- form one interchangeable block
    placed right after the incoming C-slot.  O(n).
    """
    if not verdict.is_tree or verdict.violation is not None:
        raise ValueError("dangler-first search requires a violation-free verdict")
    pay = verdict.payload
    empty = np.empty(0, dtype=np.int64)
    if pay.single:
        return SolutionFamily(lab, np.zeros(1, dtype=np.int64), empty, empty, empty)

    order, starts, ends, attach = _assemble(pay.spine, pay.links, pay.pend_c, pay.pend_pos)
    # the other reading: ``order`` reversed, each block span flipped back
    # to ascending, so block [s, e) lands on [n - e, n - s) in its order
    n = len(order)
    sizes = ends - starts
    members = np.arange(int(sizes.sum()), dtype=np.int64) + np.repeat(
        starts - (np.cumsum(sizes) - sizes), sizes)
    rev = order[::-1].copy()
    rev[members + np.repeat(n - ends - starts, sizes)] = order[members]
    if _lex_less(lab.values[rev], lab.values[order]):
        return SolutionFamily(lab, rev, (n - ends)[::-1], (n - starts)[::-1], attach[::-1])
    return SolutionFamily(lab, order, starts, ends, attach)


def solve_labeled(inst: LabeledInstance) -> SolutionFamily | StructureViolation:
    """Run the core pipeline on one labeled instance: check it as a
    digest graph, screen its structure, then walk the diameter; or
    return the violation that rules out every layout.  O(n)."""
    verdict = check_structure(build_graph(inst))
    if verdict.violation is not None:
        return verdict.violation
    return dangler_first_search(inst, verdict)


def _next_permutation(arr: list[int]) -> None:
    """Step ``arr``, not yet in its last lexicographic ordering, to the
    next one in place, equal items counting as one (Knuth's Algorithm L)."""
    i = len(arr) - 2
    while arr[i] >= arr[i + 1]:
        i -= 1
    j = len(arr) - 1
    while arr[j] <= arr[i]:
        j -= 1
    arr[i], arr[j] = arr[j], arr[i]
    arr[i + 1:] = reversed(arr[i + 1:])


def _order_count(values: np.ndarray, past: int) -> int:
    """The distinct orders of ``values``, k! / prod(m_v!) for k values
    with multiplicities m_v, or some number above ``past`` that is at
    most that.

    The count is the multinomial of the values taken so far, the most
    frequent value first: the t-th copy of a value, as the s-th value
    taken, multiplies it by s / t, which is at least 2 after the first
    value.  So about log2(past) steps reach ``past``, and no number much
    larger than it is built."""
    copies = np.sort(np.unique(values, return_counts=True)[1])[::-1]
    count, taken = 1, int(copies[0])
    for m in copies[1:].tolist():
        for t in range(1, m + 1):
            taken += 1
            count = count * taken // t
            if count > past:
                return count
    return count


class FamilyExpansion:
    """A family's distinct layouts, at most ``max_expansions`` of them:
    the product of its blocks' distinct orders, the last block fastest,
    the canonical expansion first; no layout is held.

    A block of k values with multiplicities m_v has k! / prod(m_v!)
    orders, so ``len()``, ``truncated`` and ``varying`` are known before
    iteration; each is counted only until the product passes the cap.
    ``varying`` maps each block that the first ``len()`` layouts take
    through two or more orders to that number, in block order; every
    other block keeps its canonical order.  Iterating gives each layout
    as fresh int64 arrays (pi_a, pi_b, c_order), ``c_order`` indexing
    ``family.labeled``.
    """

    def __init__(self, family: SolutionFamily, max_expansions: int):
        self.family = family
        starts, ends, values = family.block_starts, family.block_ends, family.labeled.values
        orders, count = {}, 1   # block -> its orders, from the last back until past the cap
        for k in range(len(starts) - 1, -1, -1):
            # past the cap, a lower bound that passes it gives the same len() and varying
            orders[k] = _order_count(values[family.order[starts[k]:ends[k]]],
                                     max_expansions // count)
            count *= orders[k]
            if count > max_expansions:
                break
        self._len, self.truncated = min(count, max_expansions), count > max_expansions
        # block k takes min(its orders, ceil(len / the orders of the blocks after it))
        self.varying: dict[int, int] = {}
        for k, c in reversed(orders.items()):   # count becomes the orders after block k
            count //= c
            if c > 1 and self._len > count:
                self.varying[k] = min(c, -(-self._len // count))

    def __len__(self) -> int:
        return self._len

    def orders(self, k: int) -> Iterator[np.ndarray]:
        """Block k's C-indices in each distinct order of its values, in
        lexicographic order, as many as the first ``len()`` layouts
        reach; the t-th copy of a value takes that value's t-th place."""
        fam = self.family
        canonical = fam.order[fam.block_starts[k]:fam.block_ends[k]]   # by (value, copy)
        values = fam.labeled.values[canonical].tolist()
        for r in range(self.varying.get(k, min(1, self._len))):
            if r:
                _next_permutation(values)
            members = np.empty_like(canonical)
            members[np.argsort(values, kind="stable")] = canonical
            yield members

    def groups(self, view) -> tuple[list, Iterator[tuple[list, int]]]:
        """The first ``len()`` layouts, two or more, by ``view(k, members)``
        of the varying blocks' orders, as ``(inner, runs)``.  The inner
        blocks are the last varying ones, as few as give ``GROUP_LAYOUTS``
        layouts per run where they can; ``inner`` holds their views, a
        list per block, but a stream for the first varying block, whose
        views are made as they are reached.  Per combination of the outer
        blocks' orders, ``runs`` yields their views and the run's length,
        that many of the product of ``inner``, the last block fastest."""
        first, *later = (map(view, repeat(k), self.orders(k)) for k in self.varying)
        counts = list(self.varying.values())
        cut, size = len(counts), 1   # inner: the varying blocks from cut on
        while cut and size < GROUP_LAYOUTS:
            cut -= 1
            size *= counts[cut]
        later = list(map(list, later))
        if not cut:   # one run takes every layout
            return [first, *later], iter([([], len(self))])

        def runs():
            left = len(self)
            for head in first:
                for rest in product(*later[:cut - 1]):
                    yield [head, *rest], min(size, left)
                    left -= size
                    if left <= 0:
                        return
        return later[cut - 1:], runs()

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        fam = self.family
        layout, pis = fam.order.copy(), list(fam.induced_index_arrays())
        if not self.varying:   # the canonical layout, or none under a cap of 0
            yield from [(pis[0], pis[1], layout)] * len(self)
            return
        which, at = fam.block_segments()
        owners = (fam.labeled.a_owners, fam.labeled.b_owners)

        def place(k: int, members: np.ndarray):   # in the layout and in the pi it permutes
            s, e, w = fam.block_starts[k], fam.block_ends[k], which[k]
            layout[s:e] = members
            pis[w][at[k]:at[k] + e - s] = owners[w][members]

        inner, runs = self.groups(lambda k, members: (k, members))
        for outer, size in runs:
            for k, members in outer:
                place(k, members)
            combos = product(*inner) if outer else (   # no outer block: inner[0] streams
                (head, *rest) for head in inner[0] for rest in product(*inner[1:]))
            for views in islice(combos, size):
                for k, members in views:
                    place(k, members)
                yield pis[0].copy(), pis[1].copy(), layout.copy()


def expand_family(fam: SolutionFamily,
                  max_expansions: int = DEFAULT_MAX_EXPANSIONS) -> FamilyExpansion:
    """The family's distinct layouts up to the cap, lazily.  Members of a
    block hang off one spine node, each with a single-piece fragment of
    its own length on the other side, so equal values are
    interchangeable: taking each block through the distinct orders of
    its values (a multiset) gives each distinct layout exactly once,
    where it first comes in ``itertools.product`` order."""
    return FamilyExpansion(fam, max_expansions)


# --- duplicate assignments -------------------------------------------------

def _distinct_labelings(inst: EddInstance, max_assignments: int | None):
    """(assignment id, labeling) for one assignment per class of
    assignments that provably relabel one another, ids ascending: the
    classes of ``_distinct_matchings``, streamed by ``_labelings``.

    A copy's label is -1 when its owner fragment has one sub-length
    (such fragments of one length are interchangeable), else its owner.
    Raises AssignmentCapExceeded before the first labeling if the
    representatives exceed ``max_assignments``: the product of the
    groups' classes, each counted to one past the cap, is checked as it grows.
    """
    ident, groups = _labeling_plan(inst)
    _, _, ab_offsets, _, _, ba_offsets = inst._flats()
    a_label = np.where(np.diff(ab_offsets)[ident.a_owners] == 1, -1, ident.a_owners)
    b_label = np.where(np.diff(ba_offsets) == 1, -1, np.arange(inst.q))

    def labels(cpos, owners):   # per group, so that no group's labels outlive its search
        return a_label[cpos].tolist(), b_label[owners].tolist()

    if max_assignments is not None:
        total = 1
        for group in groups:
            total *= sum(1 for _ in islice(_distinct_matchings(*labels(*group)),
                                           max_assignments + 1))
            if total > max_assignments:
                raise AssignmentCapExceeded(total, max_assignments, distinct=True)
    return _labelings(ident, groups, labels)


@dataclass(eq=False)
class SolveResult:
    """Families found per duplicate assignment; behaves as a sequence of
    (assignment-id, family) pairs and is truthy iff solutions exist.
    ``violation_labeling`` is the labeling that gave ``first_violation``,
    whose witness nodes it names; an empty result always has both, as at
    least one labeling is tried."""

    families: list[tuple[int, SolutionFamily]]
    assignments_tried: int
    first_violation: StructureViolation | None
    violation_labeling: LabeledInstance | None

    def __iter__(self):
        return iter(self.families)

    def __len__(self) -> int:
        return len(self.families)

    def __getitem__(self, k):
        return self.families[k]

    def __bool__(self) -> bool:
        return bool(self.families)


def solve(inst: EddInstance, *,
          max_assignments: int | None = DEFAULT_MAX_ASSIGNMENTS,
          first_only: bool = False) -> SolveResult:
    """Solve a consistent instance across all duplicate assignments.

    Assignments that provably relabel one another form a class, and the
    linear pipeline runs once per class, on its first assignment in the
    enumeration order of ``label_duplicates``, whose id it reports; this
    collapses the factorial blowup on symmetric inputs.  Families with
    equal ``family_key()`` are reported once, under the first id that
    produced them; the keys are built only once a second family appears.
    The labeling behind the first violation is kept for naming its
    witness.  ``first_only`` stops at the first family (existence
    checks).  ``max_assignments`` must be at least 1 or None (no cap).
    """
    if max_assignments is not None and max_assignments < 1:
        raise ValueError(f"max_assignments must be at least 1, got {max_assignments}")
    families: list[tuple[int, SolutionFamily]] = []
    seen_keys: set = set()
    first_violation = violation_labeling = None
    tried = 0
    for aid, lab in _distinct_labelings(inst, max_assignments):
        tried += 1
        out = solve_labeled(lab)
        if isinstance(out, StructureViolation):
            if first_violation is None:
                first_violation, violation_labeling = out, lab
            continue
        if families:
            if not seen_keys:
                seen_keys.add(families[0][1].family_key())
            key = out.family_key()
            if key in seen_keys:
                continue
            seen_keys.add(key)
        families.append((aid, out))
        if first_only:
            break
    return SolveResult(families, tried, first_violation, violation_labeling)
