"""All-solutions search for consistent EDD instances.

The search runs on the digest graph: a labeled instance is solvable
exactly when its graph is a tree whose diameter carries everything else
as 2-node danglers.  Walking the diameter and reading dangler groups as
interchangeable blocks yields a compact family describing every valid
layout; duplicate values are handled by running the walk once per
duplicate assignment.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

from .digestgraph import (
    DigestGraph,
    StructureVerdict,
    StructureViolation,
    build_graph,
    check_structure,
)
from .instance import (
    AssignmentCapExceeded,
    EddInstance,
    LabeledInstance,
    LabeledLength,
    _labeling,
    _labeling_plan,
    label_duplicates,
)

DEFAULT_MAX_ASSIGNMENTS = 10_080  # 7! * 2
DEFAULT_MAX_EXPANSIONS = 10_000


class NotConsecutiveError(ValueError):
    """A candidate C-ordering scatters some fragment's elements."""

    def __init__(self, kind: str, index: int):
        super().__init__(f"elements of {kind}-fragment {index + 1} are not consecutive")
        self.kind = kind
        self.index = index


@dataclass(frozen=True, eq=False)
class CPermutation:
    """An ordering of the labeled C-elements."""

    order: Sequence[LabeledLength]

    def values(self) -> tuple[int, ...]:
        return tuple(e.value for e in self.order)

    def __len__(self) -> int:
        return len(self.order)


@dataclass(frozen=True, eq=False)
class Solution:
    """A valid layout: fragment orders pi_a / pi_b (0-based indices) plus
    the C-ordering they were induced from."""

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
    return Solution(tuple(reversed(sol.pi_a)), tuple(reversed(sol.pi_b)),
                    CPermutation(tuple(reversed(tuple(sol.pi_c.order)))))


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
    the two reading directions (``canonical_orientation``)."""

    labeled: LabeledInstance
    order: np.ndarray
    block_starts: np.ndarray
    block_ends: np.ndarray
    block_attach: np.ndarray   # contracted node id per block
    canonical_orientation: bool = True

    def block_sizes(self) -> tuple[int, ...]:
        return tuple((self.block_ends - self.block_starts).tolist())

    @property
    def expansion_count(self) -> int:
        """Number of raw expansions: product of block-size factorials."""
        return math.prod(map(math.factorial, self.block_sizes()))

    def c_value_array(self) -> np.ndarray:
        return self.labeled.values[self.order]

    def family_key(self) -> tuple:
        """Value-level identity: equal keys expand to equal layout sets."""
        return (self.c_value_array().tobytes(),
                self.block_starts.tobytes(), self.block_ends.tobytes())

    def induced_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """pi_a / pi_b for the canonical expansion, as index arrays."""
        lab = self.labeled
        pi_a = _dedupe_runs(lab.a_owners[self.order], lab.base.p, "A")
        pi_b = _dedupe_runs(lab.b_owners[self.order], lab.base.q, "B")
        return pi_a, pi_b


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


def _assemble(lab: LabeledInstance, spine: np.ndarray, links: np.ndarray,
              pend_c: np.ndarray, pend_pos: np.ndarray):
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


def dangler_first_search(g: DigestGraph, verdict: StructureVerdict) -> SolutionFamily:
    """Read the diameter once, emitting dangler groups as blocks.

    Fixed slots carry the diameter's interior C-nodes in walk order; at
    every diameter node the C-elements that hang off it as danglers --
    plus, at the two interior end nodes, the terminal diameter C-node,
    whose position is equally free -- form one interchangeable block
    placed right after the incoming C-slot.  O(n).
    """
    if not verdict.is_tree or verdict.violation is not None:
        raise ValueError("dangler-first search requires a violation-free verdict")
    pay = verdict._payload
    lab = g.labeled
    empty = np.empty(0, dtype=np.int64)
    if pay.single:
        return SolutionFamily(lab, np.zeros(1, dtype=np.int64), empty, empty, empty)

    fwd = _assemble(lab, pay.spine, pay.links, pay.pend_c, pay.pend_pos)
    m1 = len(pay.spine)
    rpos = (m1 - 1) - pay.pend_pos
    rsort = np.lexsort((lab.copy_ids[pay.pend_c], lab.values[pay.pend_c], rpos))
    rev = _assemble(lab, pay.spine[::-1], pay.links[::-1],
                    pay.pend_c[rsort], rpos[rsort])
    chosen = rev if _lex_less(lab.values[rev[0]], lab.values[fwd[0]]) else fwd
    return SolutionFamily(lab, *chosen)


def induced_permutation(pc: CPermutation, inst: LabeledInstance) -> Solution:
    """Group a C-ordering into its fragment orders (pi_a, pi_b).

    Maximal runs sharing an owner become that owner's slot.  An owner
    split across runs raises NotConsecutiveError, naming the smallest
    split A-owner, else the smallest split B-owner.
    """
    if len(pc.order) != inst.n:
        raise ValueError("ordering does not cover C")
    # LabeledLength rows (value, a_owner, b_owner, copy_id) as one array
    rows = np.array(pc.order, dtype=np.int64).reshape(inst.n, 4)
    pi_a = _dedupe_runs(rows[:, 1], inst.base.p, "A")
    pi_b = _dedupe_runs(rows[:, 2], inst.base.q, "B")
    return Solution(tuple(pi_a.tolist()), tuple(pi_b.tolist()), pc)


@dataclass(frozen=True)
class NoSolution:
    """Verdict for an unsolvable labeled instance."""

    violation: StructureViolation


def solve_labeled(inst: LabeledInstance) -> SolutionFamily | NoSolution:
    """Run the core pipeline on one labeled instance: build the digest
    graph, screen its structure, then walk the diameter.  O(n)."""
    g = build_graph(inst)
    verdict = check_structure(g)
    if verdict.violation is not None:
        return NoSolution(verdict.violation)
    return dangler_first_search(g, verdict)


@dataclass(eq=False)
class FamilyExpansion:
    solutions: tuple[Solution, ...]
    truncated: bool

    def __iter__(self) -> Iterator[Solution]:
        return iter(self.solutions)

    def __len__(self) -> int:
        return len(self.solutions)


def _next_permutation(arr: list[int], start: int, end: int) -> bool:
    """Step ``arr[start:end]`` to its next lexicographic ordering in place;
    past the last one, reset it to ascending and return False."""
    i = end - 2
    while i >= start and arr[i] >= arr[i + 1]:
        i -= 1
    if i >= start:
        j = end - 1
        while arr[j] <= arr[i]:
            j -= 1
        arr[i], arr[j] = arr[j], arr[i]
    arr[i + 1:end] = reversed(arr[i + 1:end])
    return i >= start


def expand_family(fam: SolutionFamily, inst: LabeledInstance | None = None,
                  max_expansions: int = DEFAULT_MAX_EXPANSIONS) -> FamilyExpansion:
    """Enumerate block orderings lazily into Solutions.

    An odometer over the block spans of ``fam.order`` visits orderings in
    ``itertools.product`` order: each block's orderings lexicographic by
    value, the last block varying fastest.  Each ordering's pi_a / pi_b
    come from its gathered owner arrays.  Expansions that repeat an
    (A-values, B-values) sequence are dropped, which only happens when
    equal values share a block.  Enumeration stops at the cap with
    ``truncated`` set.
    """
    if inst is None:
        inst = fam.labeled
    elems = list(inst.c_elements)
    a_lengths = np.array(inst.base.a_lengths, dtype=np.int64)
    b_lengths = np.array(inst.base.b_lengths, dtype=np.int64)
    a_owners, b_owners = inst.a_owners[fam.order], inst.b_owners[fam.order]
    spans = list(zip(fam.block_starts.tolist(), fam.block_ends.tolist()))
    pos = list(range(len(fam.order)))   # the odometer: positions in fam.order
    solutions: list[Solution] = []
    seen: set = set()
    truncated = False
    while True:
        at = np.array(pos)
        pi_a = _dedupe_runs(a_owners[at], inst.base.p, "A")
        pi_b = _dedupe_runs(b_owners[at], inst.base.q, "B")
        key = (a_lengths[pi_a].tobytes(), b_lengths[pi_b].tobytes())
        if key not in seen:
            if len(solutions) >= max_expansions:
                truncated = True
                break
            seen.add(key)
            pc = CPermutation(tuple(map(elems.__getitem__, fam.order[at].tolist())))
            solutions.append(Solution(tuple(pi_a.tolist()), tuple(pi_b.tolist()), pc))
        # advance the last block; a block that wraps around carries into the one before
        if not any(_next_permutation(pos, s, e) for s, e in reversed(spans)):
            break
    return FamilyExpansion(tuple(solutions), truncated)


# --- duplicate assignments -------------------------------------------------

def _copy_label(value: int, owner: int, sets: tuple[tuple[int, ...], ...]):
    # single-element fragments of the same length are interchangeable
    if sets[owner] == (value,):
        return ("s",)
    return ("f", owner)


def _lehmer_rank(perm: tuple[int, ...]) -> int:
    m = len(perm)
    rank = 0
    for i in range(m):
        smaller = sum(1 for j in range(i + 1, m) if perm[j] < perm[i])
        rank = rank * (m - i) + smaller
    return rank


def _distinct_matchings(a_labels, b_labels, cap: int | None):
    """One representative bijection per distinct pairing multiset.

    Bijections pairing the same multiset of (AB-side label, BA-side
    label) produce digest graphs identical up to renaming interchangeable
    fragments, hence identical value-level families.  Each class is
    represented by its first bijection in lexicographic order.  Returns
    (perm, rank-in-full-lex-enumeration) pairs, ranks ascending.
    """
    # positions grouped by equal AB-side label; candidates ranked by
    # (BA-side label, index) so each group's picks can be forced into
    # ascending rank order, which makes every pairing multiset unique
    m = len(a_labels)
    pos_order = sorted(range(m), key=lambda t: (a_labels[t], t))
    cand_order = sorted(range(m), key=lambda s: (b_labels[s], s))
    used = [False] * m
    choice_rank = [0] * m
    chosen_slot = [0] * m
    out: list[tuple[tuple[int, ...], int]] = []

    def rec(d: int):
        if cap is not None and len(out) > cap:
            return
        if d == m:
            need = Counter((a_labels[t], b_labels[s]) for t, s in zip(pos_order, chosen_slot))
            perm = _first_bijection(a_labels, b_labels, need)
            out.append((perm, _lehmer_rank(perm)))
            return
        t = pos_order[d]
        start = 0
        if d and a_labels[pos_order[d - 1]] == a_labels[t]:
            start = choice_rank[d - 1] + 1
        tried = set()
        for r in range(start, m):
            s = cand_order[r]
            if used[s] or b_labels[s] in tried:
                continue
            tried.add(b_labels[s])
            used[s] = True
            choice_rank[d] = r
            chosen_slot[d] = s
            rec(d + 1)
            used[s] = False

    rec(0)
    out.sort(key=lambda pr: pr[1])
    return out


def _first_bijection(a_labels, b_labels, need: Counter) -> tuple[int, ...]:
    # greedy is exact: whatever pairs remain needed can always be placed
    # on the remaining positions and slots, whose labels they match
    used = [False] * len(b_labels)
    perm = []
    for a in a_labels:
        s = next(s for s, b in enumerate(b_labels) if not used[s] and need[(a, b)])
        used[s] = True
        need[(a, b_labels[s])] -= 1
        perm.append(s)
    return tuple(perm)


def _distinct_labelings(inst: EddInstance, max_assignments: int | None):
    """(assignment id, labeling) for one assignment per class of
    assignments that provably relabel one another, ids ascending.

    Raises AssignmentCapExceeded before the first labeling if the
    representatives exceed ``max_assignments``.
    """
    plan = _labeling_plan(inst)
    per_group: list[list[tuple[tuple[int, ...], int]]] = []
    radices: list[int] = []
    total = 1
    for cpos, owners in plan.groups:
        value = int(plan.values[cpos[0]])
        a_labels = [_copy_label(value, int(plan.a_owners[cp]), inst.ab_sets) for cp in cpos]
        b_labels = [_copy_label(value, o, inst.ba_sets) for o in owners]
        matchings = _distinct_matchings(a_labels, b_labels, max_assignments)
        per_group.append(matchings)
        radices.append(math.factorial(len(cpos)))
        total *= len(matchings)
        if max_assignments is not None and total > max_assignments:
            raise AssignmentCapExceeded(total, max_assignments)
    suffix = [1] * (len(radices) + 1)
    for i in range(len(radices) - 1, -1, -1):
        suffix[i] = suffix[i + 1] * radices[i]

    for combo in product(*per_group):
        aid = sum(rank * suffix[i + 1] for i, (_perm, rank) in enumerate(combo))
        yield aid, _labeling(inst, plan, [perm for perm, _rank in combo])


@dataclass(eq=False)
class SolveResult:
    """Families found per duplicate assignment; behaves as a sequence of
    (assignment-id, family) pairs and is truthy iff solutions exist."""

    families: list[tuple[int, SolutionFamily]]
    assignments_tried: int
    first_violation: StructureViolation | None

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
          structural_dedup: bool = True,
          first_only: bool = False) -> SolveResult:
    """Solve a consistent instance across all duplicate assignments.

    Each assignment of equal-valued copies is screened with the linear
    pipeline; families that coincide at value level are reported once,
    keyed by the first assignment id that produced them.  With
    ``structural_dedup`` (default) assignments that provably relabel one
    another are skipped up front, which collapses the factorial blowup
    on symmetric inputs; ids still match the full enumeration order.
    ``first_only`` stops at the first family (existence checks).
    """
    if structural_dedup:
        labelings = _distinct_labelings(inst, max_assignments)
    else:
        labelings = enumerate(label_duplicates(inst, max_assignments))
    families: list[tuple[int, SolutionFamily]] = []
    seen_keys: set = set()
    first_violation: StructureViolation | None = None
    tried = 0
    for aid, lab in labelings:
        tried += 1
        out = solve_labeled(lab)
        if isinstance(out, NoSolution):
            if first_violation is None:
                first_violation = out.violation
            continue
        key = out.family_key()
        if key not in seen_keys:
            seen_keys.add(key)
            families.append((aid, out))
            if first_only:
                break
    return SolveResult(families, tried, first_violation)
