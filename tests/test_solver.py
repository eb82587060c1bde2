from itertools import permutations, product

import pytest

from edd.digestgraph import HAS_CYCLE, build_graph, check_structure
from edd.generator import random_instance
from edd.instance import AssignmentCapExceeded, EddInstance, label_duplicates
from edd.solver import (
    CPermutation,
    NoSolution,
    NotConsecutiveError,
    Solution,
    canonical_key,
    canonicalize_solution,
    dangler_first_search,
    expand_family,
    induced_permutation,
    mirror_solution,
    solve,
    solve_labeled,
)
from edd.verifier import brute_force_solve, verify_permutation

from conftest import (
    deep_subtree_instance,
    demo_instance,
    disconnected_instance,
    dup_instance,
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
        for sol in expand_family(fam):
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
    assert fam.canonical_orientation
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
    assert isinstance(out, NoSolution)
    assert out.violation.kind == HAS_CYCLE


def test_induced_permutation_demo():
    inst = demo_instance()
    lab = first_labeling(inst)
    by_value = {e.value: e for e in lab.c_elements}
    pc = CPermutation(tuple(by_value[v] for v in (6, 3, 12, 15, 8, 29, 17)))
    sol = induced_permutation(pc, lab)
    assert sol.pi_a == (0, 1, 2, 4, 3)
    assert sol.pi_b == (0, 1, 2)
    assert sol.a_values(inst) == (9, 12, 15, 37, 17)
    assert sol.b_values(inst) == (6, 38, 46)

    pc_swapped = CPermutation(tuple(by_value[v] for v in (6, 3, 15, 12, 8, 29, 17)))
    assert induced_permutation(pc_swapped, lab).pi_a == (0, 2, 1, 4, 3)


def test_induced_permutation_rejects_split_runs():
    inst = demo_instance()
    lab = first_labeling(inst)
    by_value = {e.value: e for e in lab.c_elements}
    pc = CPermutation(tuple(by_value[v] for v in (6, 12, 3, 15, 8, 29, 17)))
    with pytest.raises(NotConsecutiveError) as exc:
        induced_permutation(pc, lab)
    assert exc.value.kind == "A" and exc.value.index == 0


def test_solve_demo():
    inst = demo_instance()
    res = solve(inst)
    assert len(res) == 1 and res.assignments_tried == 1
    aid, fam = res[0]
    assert aid == 0
    sols = list(expand_family(fam))
    assert len(sols) == 2
    for sol in sols:
        assert verify_permutation(inst, sol.pi_a, sol.pi_b)


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


def eager_expansion(fam):
    """Reference: every block ordering in itertools.product order, minus
    the layouts that repeat an (A-values, B-values) pair."""
    inst = fam.labeled
    elems = list(inst.c_elements)
    base = fam.order.tolist()
    spans = list(zip(fam.block_starts.tolist(), fam.block_ends.tolist()))
    out, seen = [], set()
    for combo in product(*(permutations(base[s:e]) for s, e in spans)):
        arr = base[:]
        for (s, e), perm in zip(spans, combo):
            arr[s:e] = perm
        pc = tuple(elems[k] for k in arr)
        pi_a, pi_b = ([o for i, o in enumerate(owners) if i == 0 or owners[i - 1] != o]
                      for owners in ([e.a_owner for e in pc], [e.b_owner for e in pc]))
        key = (tuple(inst.base.a_lengths[i] for i in pi_a),
               tuple(inst.base.b_lengths[j] for j in pi_b))
        if key not in seen:
            seen.add(key)
            out.append((tuple(pi_a), tuple(pi_b), pc))
    return out


def test_expansion_order_matches_eager_reference():
    cases = [two_block_instance(), dup_instance(), multi_dup_instance()]
    cases += [random_instance(seed, 4, 5, 14, min_duplicates=2, max_retries=2000)[0]
              for seed in range(12)]
    for inst in cases:
        for _aid, fam in solve(inst, max_assignments=None):
            got = [(s.pi_a, s.pi_b, tuple(s.pi_c.order)) for s in expand_family(fam)]
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
            for sol in expand_family(fam):
                for owners in (tuple(e.a_owner for e in sol.pi_c.order),
                               tuple(e.b_owner for e in sol.pi_c.order)):
                    runs = [o for i, o in enumerate(owners)
                            if i == 0 or owners[i - 1] != o]
                    assert len(runs) == len(set(runs))


def test_canonical_key_orientation_free():
    inst = demo_instance()
    for _aid, fam in solve(inst):
        for sol in expand_family(fam):
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
        naive = solve(inst, max_assignments=None, structural_dedup=False)
        assert fast.assignments_tried <= naive.assignments_tried
        assert [aid for aid, _ in fast] == [aid for aid, _ in naive]
        assert [fam.family_key() for _, fam in fast] == [fam.family_key() for _, fam in naive]
        assert bool(fast) == bool(naive)


def test_solve_assignment_cap():
    inst = multi_dup_instance()
    with pytest.raises(AssignmentCapExceeded):
        solve(inst, max_assignments=3, structural_dedup=False)


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


def test_distinct_matching_strategies_agree():
    import random as _random

    from edd.solver import _distinct_matchings, _lehmer_rank

    rng = _random.Random(0)
    pool = [("s",), ("f", 1), ("f", 2), ("f", 3)]
    cases = []
    for _trial in range(200):
        m = rng.randint(1, 6)
        cases.append(([rng.choice(pool) for _ in range(m)],
                      [rng.choice(pool) for _ in range(m)]))
    # nine copies: the first size the solver never scanned
    rng = _random.Random(9)
    cases.append(([rng.choice(pool) for _ in range(9)], [rng.choice(pool) for _ in range(9)]))
    for al, bl in cases:
        rec = _distinct_matchings(al, bl, None)
        assert rec == _distinct_by_scan(al, bl)
        for p, r in rec:
            assert _lehmer_rank(p) == r
    # symmetric cases collapse completely
    assert len(_distinct_matchings([("f", i) for i in range(10)],
                                   [("s",)] * 10, None)) == 1


def test_solutions_pass_verifier_sweep():
    for seed in range(20):
        p = seed % 4 + 1
        q = (seed * 3) % 4 + 1
        inst, _ = random_instance(seed + 500, p, q, 300)
        for _aid, fam in solve(inst):
            for sol in expand_family(fam):
                assert verify_permutation(inst, sol.pi_a, sol.pi_b)
