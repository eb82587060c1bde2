"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values come from three independent routes: hand-traceable
worked examples, the exhaustive layout oracle, and naive structure
checks implemented here from scratch.
"""

import functools
import random
import time
from collections import deque
from itertools import combinations

from edd.digestgraph import HAS_CYCLE
from edd.generator import InfeasibleParams, random_instance
from edd.instance import (
    COUNT,
    SUM_A,
    SUM_B,
    UNION_MISMATCH,
    EddInstance,
    label_duplicates,
    validate_consistency,
)
from edd.reduction import SimpleGraph, extract_path, has_hamiltonian_path, reduce_graph
from edd.solver import canonical_key, expand_family, solve
from edd.verifier import brute_force_solve, verify_permutation

from conftest import demo_instance, dup_instance


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")
        return run
    return wrap


def solution_key_set(inst, result, cap=100_000):
    keys = set()
    for _aid, fam in result:
        for sol in expand_family(fam, max_expansions=cap):
            keys.add(canonical_key(inst, sol))
    return keys


def oracle_key_set(inst):
    return {canonical_key(inst, s) for s in brute_force_solve(inst)}


@criterion(1, "worked 5x3 example reproduces the family and both layouts exactly")
def test_criterion_1_demo_reproduction():
    inst = demo_instance()
    start = time.perf_counter()
    result = solve(inst)
    assert len(result) == 1 and result.assignments_tried == 1
    _aid, fam = result[0]
    assert fam.c_value_array().tolist() == [6, 3, 12, 15, 8, 29, 17]
    assert fam.block_starts.tolist() == [2] and fam.block_ends.tolist() == [4]
    assert fam.block_attach.tolist() == [inst.p + 1]   # B2

    expansion = expand_family(fam)
    elapsed = time.perf_counter() - start
    sols = list(expansion)
    assert len(sols) == 2 and not expansion.truncated
    assert [s.a_values(inst) for s in sols] == [
        (9, 12, 15, 37, 17), (9, 15, 12, 37, 17)]
    assert all(s.b_values(inst) == (6, 38, 46) for s in sols)
    assert len({canonical_key(inst, s) for s in sols}) == 2
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "duplicate example: one of two assignments solves; oracle set matches")
def test_criterion_2_duplicate_example():
    # Of the two ways to pair up the equal sub-lengths, only one yields a
    # tree: the one sending copy 1 (owned by the first A-fragment) to the
    # single-value B-fragment.  The mirrored pairing closes a 4-cycle.
    inst = dup_instance()
    start = time.perf_counter()
    result = solve(inst)
    assert result.assignments_tried == 2
    assert len(result) == 1
    assert result.first_violation is not None
    assert result.first_violation.kind == HAS_CYCLE

    sols = list(expand_family(result[0][1]))
    assert all(verify_permutation(inst, s.pi_a, s.pi_b) for s in sols)
    assert solution_key_set(inst, result) == oracle_key_set(inst)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def _sweep_instances():
    """200 seeded instances with p + q <= 8, half forced to contain
    duplicate values."""
    out = []
    i = 0
    while len(out) < 200:
        i += 1
        p = i % 4 + 1
        q = (i * 3) % 4 + 1
        force_dupes = len(out) % 2 == 1 and p + q >= 4
        try:
            if force_dupes:
                inst, _ = random_instance(i, p, q, p + q + 3,
                                          min_duplicates=1, max_retries=3000)
            else:
                inst, _ = random_instance(i, p, q, 5000)
        except InfeasibleParams:
            continue
        out.append(inst)
    return out


@criterion(3, "200-instance sweep: solver and oracle find identical layout sets")
def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    mismatches = []
    for idx, inst in enumerate(_sweep_instances()):
        assert validate_consistency(inst).ok
        got = solution_key_set(inst, solve(inst, max_assignments=None))
        want = oracle_key_set(inst)
        if got != want:
            mismatches.append(idx)
    assert mismatches == []
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


# --- criterion 4: independent structure check (no solver machinery) --------

def _naive_assignment_ok(lab):
    """Tree whose hanging subtrees off some longest path are all 2-node."""
    n = lab.n
    nodes = [("A", i) for i in range(lab.base.p)]
    nodes += [("B", j) for j in range(lab.base.q)]
    nodes += [("C", k) for k in range(n)]
    adj = {u: [] for u in nodes}
    for k in range(int(n)):
        c = ("C", k)
        for other in (("A", int(lab.a_owners[k])), ("B", int(lab.b_owners[k]))):
            adj[c].append(other)
            adj[other].append(c)

    def bfs(src):
        dist = {src: 0}
        parent = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
        return dist, parent

    dist0, _ = bfs(nodes[0])
    if len(dist0) != len(nodes):
        return False  # disconnected; with |E| = |V| - 1 it cannot be a tree
    # connected with one fewer edge than nodes: a tree
    all_dist = {u: bfs(u)[0] for u in nodes}
    longest = max(max(d.values()) for d in all_dist.values())
    for u in nodes:
        for v, d in all_dist[u].items():
            if d != longest:
                continue
            _, parent = bfs(u)
            path = set()
            x = v
            while x is not None:
                path.add(x)
                x = parent[x]
            ok = True
            for c in (("C", k) for k in range(int(n))):
                if c in path:
                    continue
                ends = [w for w in adj[c] if w in path]
                if len(ends) != 1:
                    ok = False
                    break
                hang_leaf = next(w for w in adj[c] if w not in path)
                if len(adj[hang_leaf]) != 1:
                    ok = False
                    break
            if ok:
                return True
    return False


def _naive_solvable(inst):
    return any(_naive_assignment_ok(lab) for lab in label_duplicates(inst))


def _unsolvable_instances():
    """50 consistent datasets with no valid layout: 30 hubs with three
    deep legs, 20 split into a cycle component plus a path component."""
    out = []
    for k in range(30):
        x, y, z = 1 + k, 41 + k, 81 + k
        w1, w2, w3 = 121 + k, 161 + k, 201 + k
        out.append(EddInstance(
            (x + w1, y + w2, z + w3),
            (x + y + z, w1, w2, w3),
            ((x, w1), (y, w2), (z, w3)),
            ((x, y, z), (w1,), (w2,), (w3,))))
    for k in range(20):
        a, b, c = 1 + k, 41 + k, 81 + k
        out.append(EddInstance(
            (a + b, c), (a + b, c), ((a, b), (c,)), ((a, b), (c,))))
    return out


@criterion(4, "solvability matches the naive tree-plus-danglers test on 250 instances")
def test_criterion_4_structure_equivalence():
    disagreements = 0
    for inst in _sweep_instances():
        if bool(solve(inst, max_assignments=None)) != _naive_solvable(inst):
            disagreements += 1
    bad = _unsolvable_instances()
    assert len(bad) == 50
    for inst in bad:
        assert validate_consistency(inst).ok
        assert not _naive_solvable(inst)
        if solve(inst, max_assignments=None):
            disagreements += 1
    assert disagreements == 0


def _connected_graphs_up_to_4():
    """All connected graphs on <= 4 nodes, one per isomorphism class."""
    return [
        SimpleGraph(1, frozenset()),
        SimpleGraph(2, frozenset({(1, 2)})),
        SimpleGraph(3, frozenset({(1, 2), (2, 3)})),                    # path
        SimpleGraph(3, frozenset({(1, 2), (2, 3), (1, 3)})),            # triangle
        SimpleGraph(4, frozenset({(1, 2), (2, 3), (3, 4)})),            # path
        SimpleGraph(4, frozenset({(1, 2), (1, 3), (1, 4)})),            # star
        SimpleGraph(4, frozenset({(1, 2), (2, 3), (1, 3), (3, 4)})),    # triangle+pendant
        SimpleGraph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4)})),    # cycle
        SimpleGraph(4, frozenset({(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)})),  # diamond
        SimpleGraph(4, frozenset(combinations(range(1, 5), 2))),        # complete
    ]


@criterion(5, "Hamiltonian-path equivalence on 10 exhaustive + 20 random graphs")
def test_criterion_5_reduction_equivalence():
    start = time.perf_counter()
    graphs = _connected_graphs_up_to_4()
    rng = random.Random(505)
    for _ in range(20):
        edges = {e for e in combinations(range(1, 6), 2) if rng.random() < 0.5}
        graphs.append(SimpleGraph(5, frozenset(edges)))
    assert len(graphs) == 30

    mismatches = []
    for gi, h in enumerate(graphs):
        red = reduce_graph(h)
        expected = has_hamiltonian_path(h)
        result = solve(red.instance, max_assignments=None, first_only=True)
        if bool(result) != expected:
            mismatches.append(gi)
            continue
        if result:
            for sol in expand_family(result[0][1], max_expansions=24):
                path = extract_path(sol, h)
                assert sorted(path) == list(range(1, h.node_count + 1))
                for u, v in zip(path, path[1:]):
                    assert (min(u, v), max(u, v)) in h.edges
    assert mismatches == []
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


@criterion(6, "duplicate-free solve scales linearly: 1e6 under 10 s, ratio in [3, 30]")
def test_criterion_6_linear_scaling():
    small, _ = random_instance(7, 50_001, 50_000, 10**16,
                               duplicate_free=True, max_retries=50)
    big, _ = random_instance(7, 500_001, 500_000, 4 * 10**18,
                             duplicate_free=True, max_retries=50)

    def timed(inst):
        inst.__dict__.pop("_flats_cache", None)
        t0 = time.perf_counter()
        result = solve(inst)
        elapsed = time.perf_counter() - t0
        assert len(result) == 1
        return elapsed, result[0][1]

    timed(small)  # warm numpy/scipy code paths and page caches
    timed(big)
    small_times, big_times = [], []
    for _ in range(4):
        small_times.append(timed(small)[0])
        big_times.append(timed(big)[0])
    t_small = min(small_times)
    t_big, fam = min(big_times), timed(big)[1]

    # sanity on the 1e6 output: every fragment appears exactly once
    pa, pb = fam.induced_index_arrays()
    assert len(pa) == big.p and len(pb) == big.q
    assert len(fam.order) == big.p + big.q - 1

    # full ground-truth verification at the smaller scale
    fam_small = solve(small)[0][1]
    pa5, pb5 = fam_small.induced_index_arrays()
    assert verify_permutation(small, tuple(pa5.tolist()), tuple(pb5.tolist()))

    assert t_big < 10.0, f"1e6 solve took {t_big:.2f}s"
    ratio = t_big / t_small
    assert 3.0 <= ratio <= 30.0, \
        f"ratio {ratio:.1f} (1e5: {t_small:.3f}s, 1e6: {t_big:.3f}s)"


@criterion(7, "each consistency rule is flagged exactly by its targeted violation")
def test_criterion_7_validator_rules():
    inst = demo_instance()
    assert validate_consistency(inst).rules() == ()

    sum_a = EddInstance((10,) + inst.a_lengths[1:], inst.b_lengths,
                        inst.ab_sets, inst.ba_sets)
    assert validate_consistency(sum_a).rules() == (SUM_A,)

    sum_b = EddInstance(inst.a_lengths, (7,) + inst.b_lengths[1:],
                        inst.ab_sets, inst.ba_sets)
    assert validate_consistency(sum_b).rules() == (SUM_B,)

    union = EddInstance(inst.a_lengths[:1] + (13,) + inst.a_lengths[2:],
                        inst.b_lengths,
                        (inst.ab_sets[0], (13,)) + inst.ab_sets[2:],
                        inst.ba_sets)
    assert validate_consistency(union).rules() == (UNION_MISMATCH,)

    count = EddInstance(inst.a_lengths[:3] + (22,) + inst.a_lengths[4:],
                        inst.b_lengths[:2] + (51,),
                        inst.ab_sets[:3] + ((5, 17),) + inst.ab_sets[4:],
                        inst.ba_sets[:2] + ((5, 17, 29),))
    assert validate_consistency(count).rules() == (COUNT,)
