import random
import time

import pytest

from edd.instance import ParseError, count_assignments, validate_consistency
from edd.reduction import (
    MalformedSolution,
    PathSearchCapExceeded,
    SimpleGraph,
    augment,
    complete_graph,
    extract_path,
    has_hamiltonian_path,
    parse_graph,
    reduce_graph,
    serialize_graph,
)
from edd.solver import expand_family, solve

from solve_reference import naive_solve


def path_graph(n):
    return SimpleGraph(n, frozenset((i, i + 1) for i in range(1, n)))


def star_graph(leaves):
    return SimpleGraph(leaves + 1, frozenset((1, i) for i in range(2, leaves + 2)))


def test_augment_single_node():
    aug = augment(SimpleGraph(1, frozenset()))
    assert aug.node_count == 3 and aug.t == 2 and aug.z == 3
    assert sorted(aug.edges) == [(1, 2), (2, 3)]
    assert aug.kappa(aug.t) == 2 and aug.kappa(aug.z) == 1


def test_augment_edge_graph():
    aug = augment(SimpleGraph(2, frozenset({(1, 2)})))
    assert aug.node_count == 4
    assert sorted(aug.edges) == [(1, 2), (1, 3), (2, 3), (3, 4)]


def test_augment_triangle_degrees():
    aug = augment(complete_graph(3))
    assert aug.node_count == 5
    assert aug.kappa(aug.t) == 4
    assert all(aug.kappa(v) == 3 for v in (1, 2, 3))


def test_reduce_single_node_values():
    red = reduce_graph(SimpleGraph(1, frozenset()))
    # ell = 3, t = 2, z = 3, primes add 3
    assert red.instance.a_lengths == (6, 6, 5)
    assert red.instance.ab_sets == ((1, 5), (2, 4), (5,))
    assert red.instance.b_lengths == (5, 7, 5)
    assert red.instance.ba_sets == ((1, 4), (2, 5), (5,))


def test_reduce_edge_graph_values():
    red = reduce_graph(SimpleGraph(2, frozenset({(1, 2)})))
    inst = red.instance
    assert inst.a_lengths == (14, 14, 14, 7)
    assert inst.ab_sets == ((1, 6, 7), (2, 5, 7), (3, 5, 6), (7,))
    assert validate_consistency(inst).ok
    assert red.a_nodes == (1, 2, 3, 4)
    assert red.node_label(3) == "t" and red.node_label(4) == "z"


def test_reduce_count_rule_always_holds():
    rng = random.Random(11)
    for nodes in (1, 2, 3, 4, 5):
        for _ in range(4):
            edges = {(u, v) for u in range(1, nodes + 1) for v in range(u + 1, nodes + 1)
                     if rng.random() < 0.5}
            red = reduce_graph(SimpleGraph(nodes, frozenset(edges)))
            inst = red.instance
            assert validate_consistency(inst).ok
            assert sum(len(s) for s in inst.ab_sets) == inst.p + inst.q - 1


def test_extract_path_edge_graph():
    h = SimpleGraph(2, frozenset({(1, 2)}))
    red = reduce_graph(h)
    res = solve(red.instance, max_assignments=None)
    assert res
    paths = set()
    for _aid, fam in res:
        for pi_a, _pi_b, _c_order in expand_family(fam):
            paths.add(extract_path(pi_a, h))
    assert paths <= {(1, 2), (2, 1)} and paths


def test_extract_path_triangle():
    h = complete_graph(3)
    red = reduce_graph(h)
    res = solve(red.instance, max_assignments=None, first_only=True)
    assert res
    pi_a, _pi_b, _c_order = next(iter(expand_family(res[0][1])))
    path = extract_path(pi_a, h)
    assert sorted(path) == [1, 2, 3]
    for u, v in zip(path, path[1:]):
        assert (min(u, v), max(u, v)) in h.edges


def test_extract_path_single_node():
    h = SimpleGraph(1, frozenset())
    res = solve(reduce_graph(h).instance, max_assignments=None, first_only=True)
    pi_a, _pi_b, _c_order = next(iter(expand_family(res[0][1])))
    assert extract_path(pi_a, h) == (1,)


def test_extract_path_rejects_non_adjacent_order():
    h = path_graph(3)  # 1-2-3; augmented t=4, z=5
    with pytest.raises(MalformedSolution):
        extract_path((0, 2, 1, 3, 4), h)  # 1,3 not adjacent
    with pytest.raises(MalformedSolution):
        extract_path((0, 1), h)


def test_has_hamiltonian_path_examples():
    assert has_hamiltonian_path(path_graph(3))
    assert not has_hamiltonian_path(star_graph(3))
    assert has_hamiltonian_path(complete_graph(4))
    assert has_hamiltonian_path(SimpleGraph(1, frozenset()))
    assert not has_hamiltonian_path(SimpleGraph(2, frozenset()))  # disconnected


def test_has_hamiltonian_path_cap():
    with pytest.raises(PathSearchCapExceeded):
        has_hamiltonian_path(path_graph(11))
    assert has_hamiltonian_path(path_graph(11), cap=11)


def test_reduction_equivalence_tiny():
    """Solvability of the reduced instance tracks path existence, in both
    solve and the naive reference loop, for every graph on up to 3 nodes."""
    graphs = []
    for nodes in (1, 2, 3):
        all_pairs = [(u, v) for u in range(1, nodes + 1) for v in range(u + 1, nodes + 1)]
        for mask in range(1 << len(all_pairs)):
            edges = {e for i, e in enumerate(all_pairs) if mask >> i & 1}
            graphs.append(SimpleGraph(nodes, frozenset(edges)))
    for h in graphs:
        red = reduce_graph(h)
        expected = has_hamiltonian_path(h)
        fast = solve(red.instance, max_assignments=None, first_only=True)
        assert bool(fast) == expected
        naive = naive_solve(red.instance, first_only=True)
        assert bool(naive) == expected
        if expected:
            for pi_a, _pi_b, _c_order in expand_family(fast[0][1]):
                path = extract_path(pi_a, h)
                assert sorted(path) == list(range(1, h.node_count + 1))


def test_reduce_graph_of_2000_nodes_is_fast():
    # neighbor lists are built once, not by scanning every edge per node
    rng = random.Random(2000)
    edges = set()
    while len(edges) < 10_000:
        u, v = rng.sample(range(1, 2001), 2)
        edges.add((min(u, v), max(u, v)))
    h = SimpleGraph(2000, frozenset(edges))
    start = time.perf_counter()
    red = reduce_graph(h)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    # a B-fragment per edge end of the augmented graph, except pendant z's
    assert red.instance.p == 2002 and red.instance.q == 2 * (10_000 + 2000 + 1) - 1
    for v in (1, 1000, 2000):
        assert h.neighbors(v) == tuple(sorted(u if w == v else w for u, w in edges if v in (u, w)))
        assert red.augmented.kappa(v) == len(h.neighbors(v)) + 1   # plus the hub


def test_structural_dedup_collapses_reduction():
    h = complete_graph(3)
    inst = reduce_graph(h).instance
    full = count_assignments(inst)
    res = solve(inst, max_assignments=None)
    assert res.assignments_tried < full


def test_graph_format_roundtrip():
    h = SimpleGraph(4, frozenset({(1, 2), (2, 3), (1, 4)}))
    assert parse_graph(serialize_graph(h)) == h
    text = "# comment\nGRAPH 3\n1 2   # edge\n\n2 3\n"
    assert parse_graph(text) == path_graph(3)


@pytest.mark.parametrize("text,fragment", [
    ("1 2\n", "GRAPH"),
    ("GRAPH 0\n", "positive"),
    ("GRAPH 2\n1 1\n", "self-loop"),
    ("GRAPH 2\n1 3\n", "outside"),
    ("GRAPH 2\n1\n", "edge line"),
    ("", "missing"),
])
def test_graph_format_rejects(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_graph(text)
    assert fragment.lower() in str(exc.value).lower()
