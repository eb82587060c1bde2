import math
import random
import sys
import tracemalloc
from collections import Counter
from itertools import islice, permutations, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from edd.cli import main
from edd.digestgraph import HAS_CYCLE, StructureViolation, build_graph, check_structure
from edd.generator import CutModel, InfeasibleParams, instance_from_cuts, random_instance
from edd.instance import (
    AssignmentCapExceeded,
    EddInstance,
    _labeling_plan,
    count_assignments,
    label_duplicates,
    parse_instance,
    serialize_instance,
)
from edd.solver import (
    FamilyExpansion,
    NotConsecutiveError,
    Solution,
    SolutionFamily,
    _assemble,
    _dedupe_runs,
    _distinct_labelings,
    _lex_less,
    _order_count,
    canonical_key,
    canonicalize_solution,
    dangler_first_search,
    expand_family,
    mirror_solution,
    solve,
    solve_labeled,
)
from edd.reduction import complete_graph, reduce_graph, serialize_graph
from edd.verifier import brute_force_solve, verify_permutation

from solve_reference import assert_names_its_violation, naive_solve

from conftest import (
    deep_subtree_instance,
    demo_instance,
    disconnected_instance,
    dup_instance,
    expanded_solutions,
    multi_dup_instance,
    two_block_instance,
)


def first_labeling(inst):
    return next(iter(label_duplicates(inst)))


def slot_shape(family):
    """(kind, values, attachment-name) triples read from the family's arrays."""
    values = family.c_value_array().tolist()
    p = family.labeled.base.p
    blocks = {s: (e, a) for s, e, a in zip(family.block_starts.tolist(),
                                           family.block_ends.tolist(),
                                           family.block_attach.tolist())}
    shape = []
    pos = 0
    while pos < len(values):
        if pos in blocks:
            end, node = blocks[pos]
            name = f"A{node + 1}" if node < p else f"B{node - p + 1}"
            shape.append(("block", tuple(values[pos:end]), name))
            pos = end
        else:
            shape.append(("fixed", (values[pos],), None))
            pos += 1
    return shape


def solution_keys(inst, result):
    keys = set()
    for _aid, fam in result:
        for sol in expanded_solutions(fam):
            keys.add(canonical_key(inst, sol))
    return keys


def oracle_keys(inst):
    return {canonical_key(inst, s) for s in brute_force_solve(inst)}


def test_demo_family_slots():
    inst = demo_instance()
    lab = first_labeling(inst)
    fam = dangler_first_search(build_graph(lab), check_structure(build_graph(lab)))
    assert slot_shape(fam) == [
        ("fixed", (6,), None),
        ("fixed", (3,), None),
        ("block", (12, 15), "B2"),
        ("fixed", (8,), None),
        ("fixed", (29,), None),
        ("fixed", (17,), None),
    ]
    assert fam.expansion_count == 2


def test_single_fragment_family():
    inst = EddInstance((5,), (5,), ((5,),), ((5,),))
    fam = solve_labeled(first_labeling(inst))
    assert slot_shape(fam) == [("fixed", (5,), None)]
    assert fam.expansion_count == 1


def test_dup_tree_assignment_family_merges_terminals():
    labs = list(label_duplicates(dup_instance()))
    fam = solve_labeled(labs[0])
    assert slot_shape(fam) == [
        ("block", (4, 8), "A2"),
        ("fixed", (7,), None),
        ("fixed", (6,), None),
        ("block", (5, 7), "A1"),
    ]
    assert fam.expansion_count == 4


def test_dup_cycle_assignment_rejected():
    labs = list(label_duplicates(dup_instance()))
    out = solve_labeled(labs[1])
    assert isinstance(out, StructureViolation)
    assert out.kind == HAS_CYCLE


def test_reversed_pendant_order_matches_lexsort():
    # the reversed reading is the family assembled from the reversed spine,
    # with pendants sorted by (reversed position, value, copy)
    seen_groups = reversed_families = 0
    instances = [random_instance(seed, 3 + seed % 40, 3 + seed % 37, 10**6)[0]
                 for seed in range(60)]
    for inst in instances + [dup_instance(), multi_dup_instance(), two_block_instance()]:
        for lab in label_duplicates(inst):
            g = build_graph(lab)
            verdict = check_structure(g)
            if verdict.payload is None or verdict.payload.single:
                continue
            pay = verdict.payload
            rpos = (len(pay.spine) - 1) - pay.pend_pos
            by = np.lexsort((lab.copy_ids[pay.pend_c], lab.values[pay.pend_c], rpos))
            fwd = _assemble(pay.spine, pay.links, pay.pend_c, pay.pend_pos)
            rev = _assemble(pay.spine[::-1], pay.links[::-1], pay.pend_c[by], rpos[by])
            want = rev if _lex_less(lab.values[rev[0]], lab.values[fwd[0]]) else fwd
            fam = dangler_first_search(g, verdict)
            got = (fam.order, fam.block_starts, fam.block_ends, fam.block_attach)
            for mine, ref in zip(got, want):
                assert np.array_equal(mine, ref)
            seen_groups += int((np.diff(pay.pend_pos) == 0).sum())
            reversed_families += want is rev
    assert seen_groups > 100 and reversed_families > 10


def test_dedupe_runs_rejects_split_runs():
    inst = demo_instance()
    lab = first_labeling(inst)
    by_value = {e.value: k for k, e in enumerate(lab.c_elements)}
    order = np.array([by_value[v] for v in (6, 12, 3, 15, 8, 29, 17)])
    with pytest.raises(NotConsecutiveError) as exc:
        _dedupe_runs(lab.a_owners[order], inst.p, "A")
    assert exc.value.kind == "A" and exc.value.index == 0


def test_solve_demo():
    inst = demo_instance()
    res = solve(inst)
    assert len(res) == 1 and res.assignments_tried == 1
    aid, fam = res[0]
    assert aid == 0
    sols = list(expand_family(fam))
    assert len(sols) == 2
    for pi_a, pi_b, _c_order in sols:
        assert verify_permutation(inst, pi_a, pi_b)


def test_solve_dup_instance():
    inst = dup_instance()
    res = solve(inst)
    assert res.assignments_tried == 2
    assert len(res) == 1
    assert res[0][0] == 0
    assert res.first_violation is not None and res.first_violation.kind == HAS_CYCLE
    assert solution_keys(inst, res) == oracle_keys(inst)


def test_solve_unsolvable_instances():
    for inst in (deep_subtree_instance(),
                 disconnected_instance(True), disconnected_instance(False)):
        res = solve(inst)
        assert not res
        assert res.first_violation is not None
        assert solve_labeled(res.violation_labeling) == res.first_violation
        assert brute_force_solve(inst) == []


def test_two_block_family_expansion_count():
    inst = two_block_instance()
    res = solve(inst)
    assert len(res) == 1
    fam = res[0][1]
    assert sorted(fam.block_sizes()) == [2, 3]
    exp = expand_family(fam)
    assert len(exp) == 12 and not exp.truncated
    assert fam.expansion_count == 12
    assert solution_keys(inst, res) == oracle_keys(inst)


def test_expand_family_cap_truncates():
    inst = two_block_instance()
    fam = solve(inst)[0][1]
    exp = expand_family(fam, max_expansions=5)
    assert len(exp) == 5 and exp.truncated


def test_expansion_length_known_before_iteration():
    # 5, 5, 5, 7, 7, 9 in one block: 6! / (3! * 2!) = 60 distinct layouts
    leaves = (5, 5, 5, 7, 7, 9)
    inst = EddInstance((sum(leaves),), leaves, (leaves,), tuple((v,) for v in leaves))
    (_aid, fam), = solve(inst)
    for cap, truncated in ((60, False), (59, True), (10_000, False)):
        exp = expand_family(fam, max_expansions=cap)
        assert (len(exp), exp.truncated) == (min(cap, 60), truncated)
        assert len(list(exp)) == len(exp)
    two = solve(two_block_instance())[0][1]   # 3! * 2! = 12
    for cap, truncated in ((12, False), (11, True)):
        exp = expand_family(two, max_expansions=cap)
        assert (len(exp), exp.truncated, len(list(exp))) == (cap, truncated, cap)


def _exact_expansion(blocks: list, cap: int) -> tuple:
    """len(), truncated and varying of a family with these block values,
    from every block's exact k! / prod(m_v!)."""
    orders = [math.factorial(len(b)) // math.prod(map(math.factorial, Counter(b).values()))
              for b in blocks]
    size = min(math.prod(orders), cap)
    varying, after = {}, 1
    for k in range(len(blocks) - 1, -1, -1):
        if orders[k] > 1 and size > after:
            varying[k] = min(orders[k], -(-size // after))
        after *= orders[k]
    return size, math.prod(orders) > cap, dict(sorted(varying.items()))


def _fake_family(blocks: list, fixed: int) -> SimpleNamespace:
    """What FamilyExpansion.__init__ reads of a family: each block's
    values, ascending, after ``fixed`` fixed values."""
    values = np.array([0] * fixed + [v for b in blocks for v in sorted(b)], dtype=np.int64)
    ends = fixed + np.cumsum([len(b) for b in blocks], dtype=np.int64)
    return SimpleNamespace(block_starts=ends - [len(b) for b in blocks], block_ends=ends,
                           order=np.arange(len(values)), labeled=SimpleNamespace(values=values))


def test_expansion_counts_match_exact_orders_at_every_cap():
    rng = random.Random(17)
    for _ in range(300):
        blocks = [[rng.randint(1, rng.randint(1, 6)) for _ in range(rng.randint(1, 9))]
                  for _ in range(rng.randint(1, 4))]
        for cap in (0, 1, 2, 5, 64, 1000, 10**6, 10**12):
            exp = FamilyExpansion(_fake_family(blocks, rng.randint(0, 3)), cap)
            assert (len(exp), exp.truncated, exp.varying) == _exact_expansion(blocks, cap), \
                (blocks, cap)


def test_expansion_counts_orders_only_up_to_the_cap(monkeypatch):
    # one block of 200,000 distinct leaves: 200,000! orders, counted
    # only until past the cap; the exact count alone takes half a second
    leaves = tuple(range(1, 200_001))
    inst = EddInstance((sum(leaves),), leaves, (leaves,), tuple((v,) for v in leaves))
    (_aid, fam), = solve(inst)
    built = []
    monkeypatch.setattr(math, "factorial", lambda n: built.append(n))
    monkeypatch.setattr(math, "comb", lambda n, k: built.append((n, k)))
    for cap, varying in ((1, {}), (10**6, {0: 10**6})):
        exp = expand_family(fam, max_expansions=cap)
        assert (len(exp), exp.truncated, exp.varying) == (cap, True, varying)
    assert built == []
    for past in (0, 1, 10**4, 10**18):
        count = _order_count(np.array(leaves), past)
        assert past < count <= max(past, 1) * len(leaves)


def _expansion_peak(fam, cap: int) -> int:
    """Peak traced bytes while expanding ``fam`` and iterating every layout."""
    tracemalloc.start()
    try:
        count = sum(1 for _sol in expand_family(fam, max_expansions=cap))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == cap
    return peak


def test_expansion_memory_stays_at_a_few_layouts():
    # 2x10^4 fragments: one layout holds about 2 MB of arrays, tuples and ints
    inst = random_instance(1, 10_001, 10_000, 4 * 10**17, duplicate_free=True)[0]
    (_aid, fam), = solve(inst)
    assert _expansion_peak(fam, 200) < 3 * _expansion_peak(fam, 1)


def eager_expansion(fam):
    """Reference: every block ordering in itertools.product order, minus
    the layouts that repeat an (A-values, B-values) pair."""
    inst = fam.labeled
    base = fam.order.tolist()
    spans = list(zip(fam.block_starts.tolist(), fam.block_ends.tolist()))
    out, seen = [], set()
    for combo in product(*(permutations(base[s:e]) for s, e in spans)):
        arr = base[:]
        for (s, e), perm in zip(spans, combo):
            arr[s:e] = perm
        pi_a, pi_b = ([o for i, o in enumerate(owners) if i == 0 or owners[i - 1] != o]
                      for owners in (inst.a_owners[arr].tolist(), inst.b_owners[arr].tolist()))
        key = (tuple(inst.base.a_lengths[i] for i in pi_a),
               tuple(inst.base.b_lengths[j] for j in pi_b))
        if key not in seen:
            seen.add(key)
            out.append((tuple(pi_a), tuple(pi_b), tuple(arr)))
    return out


def test_expansion_order_matches_eager_reference():
    cases = [two_block_instance(), dup_instance(), multi_dup_instance()]
    cases += [random_instance(seed, 4, 5, 14, min_duplicates=2, max_retries=2000)[0]
              for seed in range(12)]
    for inst in cases:
        for _aid, fam in solve(inst, max_assignments=None):
            got = [tuple(tuple(x.tolist()) for x in layout) for layout in expand_family(fam)]
            assert got == eager_expansion(fam)


def test_mixed_multiplicity_star_matches_eager_reference():
    # one block of 5, 5, 5, 7, 7, 9: 6! orderings, 6! / (3! * 2!) distinct layouts
    leaves = (5, 5, 5, 7, 7, 9)
    inst = EddInstance((sum(leaves),), leaves, (leaves,), tuple((v,) for v in leaves))
    (_aid, fam), = solve(inst)
    assert fam.block_sizes() == (6,)
    got = [tuple(tuple(x.tolist()) for x in layout) for layout in expand_family(fam)]
    assert len(got) == 60
    assert got == eager_expansion(fam)


def test_no_dangler_family_single_expansion():
    # strictly alternating cuts: every fragment spans two pieces
    inst = EddInstance(
        a_lengths=(3, 7, 11, 16),
        b_lengths=(1, 5, 9, 13, 9),
        ab_sets=((1, 2), (3, 4), (5, 6), (7, 9)),
        ba_sets=((1,), (2, 3), (4, 5), (6, 7), (9,)),
    )
    res = solve(inst)
    assert len(res) == 1
    fam = res[0][1]
    assert fam.block_sizes() == ()
    assert fam.expansion_count == 1
    assert solution_keys(inst, res) == oracle_keys(inst)


def test_consecutiveness_of_expansions():
    for inst in (demo_instance(), dup_instance(), two_block_instance()):
        for _aid, fam in solve(inst):
            for _pi_a, _pi_b, c_order in expand_family(fam):
                for owners in (fam.labeled.a_owners[c_order].tolist(),
                               fam.labeled.b_owners[c_order].tolist()):
                    runs = [o for i, o in enumerate(owners)
                            if i == 0 or owners[i - 1] != o]
                    assert len(runs) == len(set(runs))


def test_canonical_key_orientation_free():
    inst = demo_instance()
    for _aid, fam in solve(inst):
        for sol in expanded_solutions(fam):
            assert canonical_key(inst, sol) == canonical_key(inst, mirror_solution(sol))
            canon = canonicalize_solution(inst, sol)
            assert canonical_key(inst, canon) == canonical_key(inst, sol)
            assert (canon.c_values(), canon.a_values(inst), canon.b_values(inst)) \
                == canonical_key(inst, sol)


def test_structural_dedup_matches_naive():
    cases = [multi_dup_instance(), dup_instance()]
    for seed in range(25):
        p = seed % 3 + 1
        q = (seed * 7) % 3 + 2
        try:
            inst, _ = random_instance(seed, p, q, p + q + 2, min_duplicates=1,
                                      max_retries=2000)
        except Exception:
            continue
        cases.append(inst)
    for inst in cases:
        fast = solve(inst, max_assignments=None)
        naive = naive_solve(inst)
        assert fast.assignments_tried <= naive.assignments_tried
        assert [aid for aid, _ in fast] == [aid for aid, _ in naive]
        assert [fam.family_key() for _, fam in fast] == [fam.family_key() for _, fam in naive]
        assert bool(fast) == bool(naive)


def test_empty_results_name_their_violation():
    # generated maps have a layout; moving one sub-fragment takes it from most
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import break_layout
    empty = 0
    for seed in range(100):
        p, q = 2 + seed % 4, 2 + (seed // 4) % 4
        inst, truth = random_instance(seed, p, q, 3 * (p + q) + seed % 20)
        try:
            cases = [inst, break_layout(inst, truth, random.Random(seed))]
        except ValueError:   # no sub-fragment can move
            cases = [inst]
        for case in cases:
            for res in (solve(case, max_assignments=None), naive_solve(case)):
                assert_names_its_violation(res)
                empty += not res
    assert empty >= 100   # 50 maps with no layout, each solved two ways


def test_solve_assignment_cap():
    inst = multi_dup_instance()
    with pytest.raises(AssignmentCapExceeded):
        solve(inst, max_assignments=3)


def test_solve_rejects_non_positive_assignment_cap():
    for cap in (0, -3):
        with pytest.raises(ValueError):
            solve(demo_instance(), max_assignments=cap)


def test_solve_reads_labels_from_the_flats(monkeypatch, tmp_path):
    # the tuple views are for the API edge: solving a parsed instance with
    # repeated lengths never builds them, nor do solve, verify, gen and
    # reduce-hp on the command line
    def built(inst):
        raise AssertionError("a tuple view was built")

    for view in ("a_lengths", "b_lengths", "ab_sets", "ba_sets"):
        monkeypatch.setattr(EddInstance, view, property(built))
    inst = parse_instance(serialize_instance(multi_dup_instance()))
    assert len(solve(inst)) == 2
    mapped, truth = random_instance(3, 6, 5, 40, min_duplicates=1)
    path, graph, side = tmp_path / "map.edd", tmp_path / "k4.graph", tmp_path / "gt"
    path.write_text(serialize_instance(mapped))
    graph.write_text(serialize_graph(complete_graph(4)))
    pa, pb = (" ".join(str(i + 1) for i in pi) for pi in (truth.pi_a, truth.pi_b))
    for argv in (["solve", path], ["solve", path, "--json"], ["solve", path, "--all"],
                 ["verify", path, "--pa", pa, "--pb", pb],
                 ["gen", "--seed", "1", "--p", "3", "--q", "3", "--total", "100",
                  "--sidecar", side],
                 ["gen", "--total", "100", "--cuts-a", "5", "--cuts-b", "3"],
                 ["reduce-hp", graph]):
        assert main(list(map(str, argv))) == 0, argv


def test_family_key_only_built_to_compare(monkeypatch):
    calls = []
    original = SolutionFamily.family_key
    monkeypatch.setattr(SolutionFamily, "family_key",
                        lambda fam: calls.append(fam) or original(fam))
    assert len(solve(demo_instance())) == 1   # duplicate-free
    assert len(solve(dup_instance())) == 1     # one solvable assignment
    assert calls == []
    # the first family's key is built once a second family appears
    res = solve(multi_dup_instance())
    assert len(res) == 2
    assert calls[0] is res[0][1]


def _duplicate_heavy_instances():
    """p, q in 3..5 on a line only 2 to 5 units longer than p + q, with
    at least two repeated values: seeds 1..90, and 107."""
    for seed in [*range(1, 91), 107]:
        p, q = 3 + seed % 3, 3 + (seed // 3) % 3
        try:
            yield seed, random_instance(seed, p, q, p + q + 2 + seed % 4, min_duplicates=2)[0]
        except InfeasibleParams:
            continue


def test_duplicate_heavy_oracle_sweep():
    # Seeds 8, 17, 23 and 107 lose layouts when families are told apart
    # by their C values and block spans alone: two assignments can lay
    # different A/B runs over one C-value sequence.
    mismatches = []
    for seed, inst in _duplicate_heavy_instances():
        if solution_keys(inst, solve(inst, max_assignments=None)) != oracle_keys(inst):
            mismatches.append(seed)
    assert mismatches == []


def test_expansion_pis_are_owner_runs_of_c_order():
    # each step rewrites pi_a / pi_b in place; every yielded pair must
    # still be the owner runs of the yielded C-order, on the oracle
    # sweep's duplicate-heavy maps and on duplicate-free ones of up to 80
    # fragments with many blocks
    cases = [inst for _seed, inst in _duplicate_heavy_instances()]
    cases += [random_instance(seed, 3 + seed % 40, 3 + seed % 37, 10**6)[0] for seed in range(30)]
    layouts = 0
    for inst in cases:
        for _aid, fam in solve(inst, max_assignments=None):
            lab = fam.labeled
            for pi_a, pi_b, c_order in expand_family(fam, max_expansions=500):
                assert pi_a.dtype == pi_b.dtype == c_order.dtype == np.int64
                for pi, owners in ((pi_a, lab.a_owners[c_order]), (pi_b, lab.b_owners[c_order])):
                    assert np.array_equal(pi, owners[np.diff(owners, prepend=-1) != 0])
                layouts += 1
    assert layouts > 5000


def test_solve_first_only_stops_early():
    inst = dup_instance()
    res = solve(inst, first_only=True)
    assert len(res) == 1


def _distinct_by_scan(a_labels, b_labels):
    """Oracle: full lexicographic scan keeps the first bijection per class."""
    m = len(a_labels)
    seen: dict = {}
    for rank, perm in enumerate(permutations(range(m))):
        sig = tuple(sorted(zip(a_labels, (b_labels[s] for s in perm))))
        if sig not in seen:
            seen[sig] = (perm, rank)
    return list(seen.values())


def _perms_of_records(records):
    """(perm, rank) per class, rebuilt from the matcher's (rank, first,
    tail) records; each record must start where its perm first differs
    from the previous one."""
    perm, out = [], []
    for rank, first, tail in records:
        assert first == 0 if not out else perm[first] != tail[0]
        perm[first:] = tail
        out.append((tuple(perm), rank))
    return out


def test_distinct_matching_strategies_agree():
    import random as _random

    from edd.instance import _distinct_matchings

    rng = _random.Random(0)
    pool = [("s",), ("f", 1), ("f", 2), ("f", 3), ("f", 4)]
    cases = []
    for _trial in range(200):
        m = rng.randint(1, 7)
        cases.append(([rng.choice(pool) for _ in range(m)],
                      [rng.choice(pool) for _ in range(m)]))
    # nine copies: the first size the solver never scanned
    rng = _random.Random(9)
    cases.append(([rng.choice(pool) for _ in range(9)], [rng.choice(pool) for _ in range(9)]))
    for al, bl in cases:
        full = _distinct_by_scan(al, bl)
        assert _perms_of_records(_distinct_matchings(al, bl)) == full
        # the stream cut after cap + 1 classes is their first cap + 1
        cap = rng.randint(1, len(full))
        assert _perms_of_records(islice(_distinct_matchings(al, bl), cap + 1)) == full[:cap + 1]
    # symmetric cases collapse completely
    assert sum(1 for _ in _distinct_matchings([("f", i) for i in range(10)],
                                              [("s",)] * 10)) == 1


def _nth_labeling_owners(inst, aid):
    """``b_owners`` of the aid-th labeling of ``label_duplicates``,
    unranked: the id's mixed-radix digits, radix m! per group of m
    copies, are each group's place among its bijections in
    lexicographic order."""
    ident, groups = _labeling_plan(inst)
    b_own = ident.b_owners.copy()
    for cpos, owners in reversed(groups):
        aid, rank = divmod(aid, math.factorial(len(cpos)))
        free, perm = list(range(len(cpos))), []
        for t in range(len(cpos) - 1, -1, -1):
            k, rank = divmod(rank, math.factorial(t))
            perm.append(free.pop(k))
        b_own[cpos] = [owners[s] for s in perm]
    assert aid == 0
    return b_own


def test_distinct_labeling_ids_index_label_duplicates():
    """Every class the solver screens, failing ones too, is the
    labeling of ``label_duplicates`` that its id numbers."""
    cases = [dup_instance(), multi_dup_instance(),
             reduce_graph(complete_graph(3)).instance, reduce_graph(complete_graph(4)).instance]
    cases += [random_instance(seed, 4, 5, 16, min_duplicates=2)[0] for seed in range(30)]
    for inst in cases:
        got = list(_distinct_labelings(inst, None))
        assert [aid for aid, _ in got] == sorted({aid for aid, _ in got})
        if count_assignments(inst) <= 10_000:
            labs = label_duplicates(inst)
            at = 0
            for aid, lab in got:
                want = next(islice(labs, aid - at, None)).b_owners
                at = aid + 1
                assert np.array_equal(lab.b_owners, want)
                assert np.array_equal(want, _nth_labeling_owners(inst, aid))
        else:   # K4's 39,813,120 labelings: unranked, not walked
            for aid, lab in got:
                assert np.array_equal(lab.b_owners, _nth_labeling_owners(inst, aid))


def test_solve_streams_the_classes_of_one_group():
    # pieces 1000, 1, 1000, 2, ..., 1000, 9 with a B cut after each 1000
    # and an A cut after each short piece but the last: the nine 1000s
    # form one group whose 9! bijections are each their own class, and
    # the first class lays out the map
    cuts_a, cuts_b, at = [], [], 0
    for i in range(9):
        cuts_b.append(at + 1000)
        at += 1000 + i + 1
        cuts_a.append(at)
    inst = instance_from_cuts(CutModel(at, tuple(cuts_a[:-1]), tuple(cuts_b)))[0]
    assert [len(c) for c, _ in _labeling_plan(inst)[1]] == [9]
    tracemalloc.start()
    try:
        res = solve(inst, max_assignments=None, first_only=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(res) == 1 and res.assignments_tried == 1
    assert peak < 5 * 2**20, peak


def test_assignment_cap_memory_stays_small():
    # dup_1e4: 9,981 of its 9,999 copies in 115 groups of up to 510 copies;
    # the matcher keeps what changes between classes, not every class's perm
    inst = random_instance(7, 5001, 4999, 200_000)[0]
    tracemalloc.start()
    try:
        with pytest.raises(AssignmentCapExceeded):
            solve(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_star_of_2000_equal_leaves_solves():
    # one group of 2,000 equal copies: the matching search goes one level
    # deeper per copy, past Python's recursion limit
    inst = EddInstance((10_000,), (5,) * 2000, ((5,) * 2000,), ((5,),) * 2000)
    assert [aid for aid, _fam in solve(inst)] == [0]


def test_solutions_pass_verifier_sweep():
    for seed in range(20):
        p = seed % 4 + 1
        q = (seed * 3) % 4 + 1
        inst, _ = random_instance(seed + 500, p, q, 300)
        for _aid, fam in solve(inst):
            for pi_a, pi_b, _c_order in expand_family(fam):
                assert verify_permutation(inst, pi_a, pi_b)
