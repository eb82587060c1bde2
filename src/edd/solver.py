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
from typing import Iterator

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
    CPermutation,
    EddInstance,
    LabeledInstance,
    _labeling,
    _labeling_plan,
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
        for owners, lengths in zip((lab.a_owners[self.order], lab.b_owners[self.order]),
                                   lab.base._length_arrays()):
            key += [lengths[owners], np.cumsum(np.diff(owners, prepend=owners[:1]) != 0)]
        return tuple(k.tobytes() for k in key)

    def induced_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """pi_a / pi_b for the canonical expansion, as index arrays."""
        lab = self.labeled
        pi_a = _dedupe_runs(lab.a_owners[self.order], lab.base.p, "A")
        pi_b = _dedupe_runs(lab.b_owners[self.order], lab.base.q, "B")
        return pi_a, pi_b

    def block_segments(self) -> np.ndarray:
        """Where each block starts in the fragment order it permutes: each
        member of a block at an A-node has a single-piece B-fragment, so
        the block holds ``pi_b[t:t + size]`` of the canonical expansion
        (pi_a for a B-node), and stepping it changes nothing else."""
        lab = self.labeled
        a_runs, b_runs = (np.cumsum(np.diff(owners, prepend=owners[:1]) != 0)[self.block_starts]
                          for owners in (lab.a_owners[self.order], lab.b_owners[self.order]))
        return np.where(self.block_attach < lab.base.p, b_runs, a_runs)


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
    pay = verdict.payload
    lab = g.labeled
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


class FamilyExpansion:
    """A family's distinct layouts, at most ``max_expansions`` of them,
    streamed from one multiset odometer over its blocks; none is held.

    The family has the product over its blocks of k! / prod(m_v!)
    distinct layouts (k values with multiplicities m_v), so ``len()`` and
    ``truncated`` are known before iteration.  The first layout is the
    canonical expansion; ``steps()`` gives the moves to the others, and
    iterating gives every layout as a Solution.
    """

    def __init__(self, family: SolutionFamily, max_expansions: int):
        self.family = family
        starts, ends, values = family.block_starts, family.block_ends, family.labeled.values
        count = 1   # distinct layouts, counted until they pass the cap
        for k in range(len(starts)):   # a block's distinct orders: k! / prod(m_v!)
            m = Counter(values[family.order[starts[k]:ends[k]]].tolist())
            count *= math.factorial(m.total()) // math.prod(map(math.factorial, m.values()))
            if count > max_expansions:
                break
        self._len = min(count, max_expansions)
        self.truncated = count > max_expansions

    def __len__(self) -> int:
        return self._len

    def steps(self) -> Iterator[tuple[int, list[int]]]:
        """The odometer's move to each layout after the first: block k
        steps to the next lexicographic permutation of its values, the
        last block fastest, and every later block goes back to ascending.
        Yields k and block k's values in their new order, a list that the
        next move changes in place."""
        fam = self.family
        orders: dict[int, list[int]] = {}   # block -> its values, as stepped so far
        for _ in range(len(self) - 1):
            for k in range(len(fam.block_starts) - 1, -1, -1):
                if k not in orders:
                    block = fam.order[fam.block_starts[k]:fam.block_ends[k]]
                    orders[k] = fam.labeled.values[block].tolist()
                if _next_permutation(orders[k]):
                    break
            yield k, orders[k]

    def placed(self, k: int, order: list[int]) -> np.ndarray:
        """Block k's C-indices in the value order ``order``: the block
        ascends by (value, copy), and the t-th copy of a value takes
        that value's t-th place."""
        canonical = self.family.order[self.family.block_starts[k]:self.family.block_ends[k]]
        members = np.empty_like(canonical)
        members[np.argsort(order, kind="stable")] = canonical
        return members

    def __iter__(self) -> Iterator[Solution]:
        fam, layout = self.family, self.family.order.copy()
        elems = fam.labeled.c_elements
        if len(self):
            yield induced_permutation(elems.take(layout), fam.labeled)
        for k, order in self.steps():
            s, e = fam.block_starts[k], fam.block_ends[k]
            layout[s:e] = self.placed(k, order)
            layout[e:] = fam.order[e:]   # later blocks back in ascending order
            yield induced_permutation(elems.take(layout), fam.labeled)


def expand_family(fam: SolutionFamily,
                  max_expansions: int = DEFAULT_MAX_EXPANSIONS) -> FamilyExpansion:
    """The family's distinct layouts up to the cap, lazily.  Members of a
    block hang off one spine node, each with a single-piece fragment of
    its own length on the other side, so equal values are
    interchangeable: stepping each block through the permutations of
    its values (a multiset) gives each distinct layout exactly once,
    where it first comes in ``itertools.product`` order."""
    return FamilyExpansion(fam, max_expansions)


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

    def picks(d: int):
        """Pick each slot that position ``pos_order[d]`` may take, one
        per BA-side label; release it when asked for the next."""
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
            yield s
            used[s] = False

    # depth-first, one generator per depth on an explicit stack: the
    # depth is the number of copies, past Python's recursion limit
    stack = [picks(0)]
    while stack and (cap is None or len(out) <= cap):
        if next(stack[-1], None) is None:
            stack.pop()
        elif len(stack) < m:
            stack.append(picks(len(stack)))
        else:
            need = Counter((a_labels[t], b_labels[s]) for t, s in zip(pos_order, chosen_slot))
            perm = _first_bijection(a_labels, b_labels, need)
            out.append((perm, _lehmer_rank(perm)))
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
            raise AssignmentCapExceeded(total, max_assignments, distinct=True)
    suffix = [1] * (len(radices) + 1)
    for i in range(len(radices) - 1, -1, -1):
        suffix[i] = suffix[i + 1] * radices[i]

    for combo in product(*per_group):
        aid = sum(rank * suffix[i + 1] for i, (_perm, rank) in enumerate(combo))
        yield aid, _labeling(inst, plan, [perm for perm, _rank in combo])


@dataclass(eq=False)
class SolveResult:
    """Families found per duplicate assignment; behaves as a sequence of
    (assignment-id, family) pairs and is truthy iff solutions exist.
    ``violation_labeling`` is the labeling that gave ``first_violation``,
    whose witness nodes it names."""

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

    Assignments that provably relabel one another are skipped up front,
    which collapses the factorial blowup on symmetric inputs; the ids of
    the rest still match the full enumeration order of
    ``label_duplicates``.  Each is screened with the linear pipeline, and
    families with equal ``family_key()`` are reported once, keyed by the
    first assignment id that produced them; the keys are built only once
    a second family appears.  The labeling behind the first violation is
    kept for naming its witness.  ``first_only`` stops at the first
    family (existence checks).  ``max_assignments`` must be at least 1
    or None (no cap).
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
        if isinstance(out, NoSolution):
            if first_violation is None:
                first_violation, violation_labeling = out.violation, lab
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
