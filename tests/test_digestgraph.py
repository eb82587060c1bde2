import dataclasses
import random
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import edd
import edd.digestgraph
from edd.digestgraph import (
    DEEP_SUBTREE,
    HAS_CYCLE,
    NOT_CONNECTED,
    NodeRef,
    _contracted_ref,
    _face_walk,
    build_graph,
    check_structure,
    export_edges,
)
from edd.instance import EddInstance, LabeledInstance, label_duplicates, validate_consistency
from edd.generator import CutModel, instance_from_cuts, random_instance
from edd.solver import dangler_first_search

from structure_reference import reference_structure

from conftest import (
    deep_subtree_instance,
    demo_instance,
    disconnected_instance,
    dup_instance,
)


def first_labeling(inst):
    return next(iter(label_duplicates(inst)))


def graph_of(inst):
    return build_graph(first_labeling(inst))


def names(g, refs):
    return [g.node_name(r) for r in refs]


def c_names(g, ks):
    return [g.node_name(NodeRef("C", k)) for k in ks.tolist()]


def fragment_names(g, nodes):
    return [g.node_name(_contracted_ref(g.p, x)) for x in nodes.tolist()]


PAYLOAD_ARRAYS = ("spine", "links", "pend_c", "pend_pos")


def test_demo_graph_counts_and_adjacency():
    g = graph_of(demo_instance())
    assert (g.p, g.q, g.n) == (5, 3, 7)
    assert set(g.values[g.b_owners == 1].tolist()) == {3, 8, 12, 15}
    assert np.bincount(g.a_owners, minlength=g.p).tolist() == [2, 1, 1, 1, 2]


def test_single_fragment_graph_is_path():
    g = graph_of(EddInstance((5,), (5,), ((5,),), ((5,),)))
    v = check_structure(g)
    assert v.is_tree and v.violation is None
    assert v.payload.single
    assert all(len(getattr(v.payload, name)) == 0 for name in PAYLOAD_ARRAYS)


def test_build_graph_rejects_inconsistent_count():
    inst = EddInstance((4, 6), (4, 6), ((4,), (6,)), ((4,), (6,)))
    with pytest.raises(ValueError):
        build_graph(first_labeling(inst))


def test_build_graph_rejects_out_of_range_owner():
    lab = first_labeling(demo_instance())
    assert build_graph(lab) is lab
    b_owners = lab.b_owners.copy()
    b_owners[-1] = lab.q
    with pytest.raises(ValueError, match="^owner index out of range$"):
        build_graph(dataclasses.replace(lab, b_owners=b_owners))


def test_demo_structure_verdict():
    g = graph_of(demo_instance())
    v = check_structure(g)
    assert v.is_tree and v.violation is None
    pay = v.payload
    # diameter B1 C6 A1 C3 B2 C8 A5 C29 B3 C17 A4; C12 and C15 dangle off B2
    assert fragment_names(g, pay.spine) == ["A1", "B2", "A5", "B3"]
    assert c_names(g, pay.links) == ["C3#1", "C8#1", "C29#1"]
    assert c_names(g, pay.pend_c) == ["C6#1", "C12#1", "C15#1", "C17#1"]
    assert pay.pend_pos.tolist() == [0, 1, 1, 3]


def test_dup_assignment_cycle_witness():
    labs = list(label_duplicates(dup_instance()))
    g = build_graph(labs[1])
    v = check_structure(g)
    assert not v.is_tree
    assert v.violation.kind == HAS_CYCLE
    assert len(v.violation.nodes) == 4
    assert set(names(g, v.violation.nodes)) == {"A1", "C6#1", "B5", "C7#1"}
    assert v.payload is None


def test_disconnected_verdicts():
    g = graph_of(disconnected_instance(cycle_first=True))
    v = check_structure(g)
    assert v.violation.kind == HAS_CYCLE

    g = graph_of(disconnected_instance(cycle_first=False))
    v = check_structure(g)
    assert v.violation.kind == NOT_CONNECTED
    assert v.violation.nodes == (NodeRef("A", 1),)


def test_deep_subtree_verdict():
    inst = deep_subtree_instance()
    assert validate_consistency(inst).ok
    g = graph_of(inst)
    v = check_structure(g)
    assert v.is_tree
    assert v.violation.kind == DEEP_SUBTREE
    assert v.violation.nodes[0].kind == "C"
    assert v.payload is None


def _naive_distances(g):
    """All-pairs hop distances over the full digest graph."""
    adj: dict = {}
    for k in range(g.n):
        a = ("A", int(g.a_owners[k]))
        b = ("B", int(g.b_owners[k]))
        c = ("C", k)
        for u, w in ((a, c), (b, c)):
            adj.setdefault(u, []).append(w)
            adj.setdefault(w, []).append(u)
    dist = {}
    for s in adj:
        d = {s: 0}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in d:
                    d[w] = d[u] + 1
                    queue.append(w)
        dist[s] = d
    return dist


@pytest.mark.parametrize("seed", range(12))
def test_diameter_is_longest_path(seed):
    p = seed % 3 + 1
    q = (seed * 5) % 4 + 1
    inst, _ = random_instance(seed, p, q, 500)
    for lab in label_duplicates(inst):
        g = build_graph(lab)
        v = check_structure(g)
        if not v.is_tree:
            continue
        dist = _naive_distances(g)
        longest = max(max(d.values()) for d in dist.values())
        pay = v.payload
        assert (2 if pay.single else 2 * len(pay.spine) + 2) == longest


def assert_cycle_witness(g, nodes):
    """A simple closed cycle in A1's component: fragment and C nodes
    alternate, and each C-node joins the fragments listed beside it."""
    assert len(nodes) >= 4 and len(nodes) % 2 == 0
    assert len(set(nodes)) == len(nodes)
    for i in range(0, len(nodes), 2):
        frag, c, nxt = nodes[i], nodes[i + 1], nodes[(i + 2) % len(nodes)]
        assert frag.kind in ("A", "B") and c.kind == "C"
        owners = {NodeRef("A", int(g.a_owners[c.index])), NodeRef("B", int(g.b_owners[c.index]))}
        assert {frag, nxt} == owners
    assert nodes[0] in _naive_distances(g)[NodeRef("A", 0)]


def assert_matches_reference(g):
    """The engine against the plain breadth-first reference: equal
    payload arrays and witnesses; any cycle may serve as witness."""
    got = check_structure(g)
    want = reference_structure(g)
    assert got.is_tree == want.is_tree
    assert (got.payload is None) == (want.payload is None)
    if want.payload is not None:
        assert got.payload.single == want.payload.single
        for name in PAYLOAD_ARRAYS:
            assert np.array_equal(getattr(got.payload, name), getattr(want.payload, name)), name
    assert (got.violation is None) == (want.violation is None)
    if want.violation is None:
        return
    assert got.violation.kind == want.violation.kind
    if want.violation.kind == HAS_CYCLE:
        assert_cycle_witness(g, got.violation.nodes)
    else:
        assert got.violation == want.violation


@pytest.mark.parametrize("seed", range(20))
def test_engines_agree(seed):
    p = seed % 5 + 1
    q = (seed * 3) % 5 + 1
    dup = seed % 2 == 1
    inst, _ = random_instance(seed, p, q, p + q + 4 if dup else 10_000,
                              max_retries=2000)
    for lab in label_duplicates(inst):
        assert_matches_reference(build_graph(lab))


def _leaf_stripping_cases():
    """Maps at the edges of the leaf-stripped screen."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import break_layout
    big, truth = random_instance(13, 1000, 1000, 4 * 10**17, duplicate_free=True)
    return (
        # A1 is a leaf: the walk starts at its neighbour B2
        EddInstance((12, 9, 15, 17, 37), (6, 38, 46),
                    ((12,), (3, 6), (15,), (17,), (8, 29)),
                    ((6,), (3, 8, 12, 15), (17, 29))),
        # A3-B2 is a two-leaf component; A1's component A1-B1-A2 is a tree
        EddInstance((1, 2, 10, 12), (3, 10, 12), ((1,), (2,), (10,), (3, 4, 5)),
                    ((1, 2), (10,), (3, 4, 5))),
        # a star around B1: the stripped graph is B1 alone, with no edge
        EddInstance((1, 2, 3, 4), (10,), ((1,), (2,), (3,), (4,)), ((1, 2, 3, 4),)),
        # a path with no danglers: A1 B1 A2 B2 A3 B3 A4 B4
        instance_from_cuts(CutModel(70, (3, 12, 30), (7, 20, 45)))[0],
        EddInstance((5,), (5,), ((5,),), ((5,),)),
        big,
        break_layout(big, truth, random.Random(13)),
    )


def test_engines_agree_on_crafted_cases():
    for inst in (demo_instance(), dup_instance(), deep_subtree_instance(),
                 disconnected_instance(True), disconnected_instance(False),
                 *_leaf_stripping_cases()):
        for lab in label_duplicates(inst):
            assert_matches_reference(build_graph(lab))


def test_node_accounting_invariant():
    for seed in range(15):
        inst, _ = random_instance(seed + 100, seed % 4 + 1, seed % 3 + 2, 2000)
        for lab in label_duplicates(inst):
            g = build_graph(lab)
            v = check_structure(g)
            if v.violation is None:
                assert len(v.payload.links) + len(v.payload.pend_c) == g.n


def test_engine_tiny_star():
    # p=1, q=3: one hub fragment, all pieces interchangeable
    inst = EddInstance((6,), (1, 2, 3), ((1, 2, 3),), ((1,), (2,), (3,)))
    g = graph_of(inst)
    assert_matches_reference(g)
    v = check_structure(g)
    assert v.violation is None
    # one spine node, the hub, carries all three pendants; two of them
    # serve as the diameter's ends
    assert v.payload.spine.tolist() == [0]
    assert v.payload.pend_pos.tolist() == [0, 0, 0]


def tree_instance(p, q, edges, values=None):
    """The map whose contracted digest graph has the C-edges ``edges``,
    0-based (A-fragment, B-fragment) pairs, with the given lengths
    (1, 2, ... by default); each fragment is as long as its pieces."""
    values = list(values or range(1, len(edges) + 1))
    ab, ba = [[] for _ in range(p)], [[] for _ in range(q)]
    for (a, b), v in zip(edges, values):
        ab[a].append(v)
        ba[b].append(v)
    return EddInstance([sum(c) for c in ab], [sum(c) for c in ba], ab, ba)


def random_tree_instance(rng, nodes):
    """A random tree on ``nodes`` contracted nodes, its fragments numbered
    and its distinct lengths dealt at random: each new node joins a node
    of the other enzyme's kind."""
    kinds = ["A", "B"]
    edges = [(0, 0)]
    for _ in range(nodes - 2):
        a_side = rng.random() < 0.5
        kinds.append("A" if a_side else "B")
        ours = kinds.count("A" if a_side else "B") - 1
        theirs = rng.randrange(kinds.count("B" if a_side else "A"))
        edges.append((ours, theirs) if a_side else (theirs, ours))
    p, q = kinds.count("A"), kinds.count("B")
    a_ids, b_ids = rng.sample(range(p), p), rng.sample(range(q), q)
    edges = [(a_ids[a], b_ids[b]) for a, b in edges]
    return tree_instance(p, q, edges, rng.sample(range(1, 10 * nodes), len(edges)))


# caterpillars: (name, p, q, edges, expected spine as fragment names)
CATERPILLARS = (
    # a single stripped edge A1-B1; the smallest leaf A2 hangs off B1 (stars, with
    # no stripped edge, are in test_engine_tiny_star and _leaf_stripping_cases)
    ("one_edge", 3, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0)], ["B1", "A1"]),
    # path B1 A2 B2 A3; the smallest leaf A1 hangs off the end B1
    ("leaf_at_end", 4, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (1, 2), (3, 1), (2, 3)],
     ["B1", "A2", "B2", "A3"]),
    # the smallest leaf A1 hangs off B3, the far end of the walk from B1
    ("leaf_at_far_end", 4, 3, [(1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (3, 0)],
     ["B3", "A3", "B2", "A2", "B1"]),
    # path A2 B1 A3, A1 hanging off its middle: both ends lie two steps
    # from A1, and the end whose smallest leaf is the larger comes first
    ("middle_b2_at_a2", 3, 3, [(0, 0), (1, 0), (2, 0), (1, 1), (2, 2)], ["A3", "B1", "A2"]),
    ("middle_b2_at_a3", 3, 3, [(0, 0), (1, 0), (2, 0), (2, 1), (1, 2)], ["A2", "B1", "A3"]),
    # the same tie on a longer path, A1 hanging off the middle node B2
    ("middle_long", 5, 5, [(0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (3, 0), (4, 2), (3, 3),
                           (4, 4)], ["A5", "B3", "A3", "B2", "A2", "B1", "A4"]),
)


@pytest.mark.parametrize("case", CATERPILLARS, ids=[c[0] for c in CATERPILLARS])
def test_caterpillar_edge_cases(case):
    _, p, q, edges, spine = case
    g = graph_of(tree_instance(p, q, edges))
    assert_matches_reference(g)
    v = check_structure(g)
    assert v.violation is None
    assert fragment_names(g, v.payload.spine) == spine


def test_caterpillars_read_no_distances(monkeypatch):
    """A solvable map's spine is read off the walk: the tour depths run
    only to name a DEEP_SUBTREE witness."""
    def refuse(*args):
        raise AssertionError("distance pass on a caterpillar")

    monkeypatch.setattr(edd.digestgraph, "_tour_places", refuse)
    cases = _leaf_stripping_cases()
    maps = [tree_instance(p, q, edges) for _, p, q, edges, _ in CATERPILLARS]
    maps += [demo_instance(), dup_instance(), cases[0], *cases[2:6]]
    maps += [random_instance(seed, 7, 9, 10**6)[0] for seed in range(20)]
    for inst in maps:
        verdicts = [check_structure(build_graph(lab)) for lab in label_duplicates(inst)]
        assert any(v.violation is None for v in verdicts)
    with pytest.raises(AssertionError, match="distance pass"):
        check_structure(graph_of(deep_subtree_instance()))


def test_engines_agree_on_duplicate_free_sweep():
    rng = random.Random(20)
    for seed in range(400):
        inst, _ = random_instance(seed, rng.randint(2, 41), rng.randint(2, 41), 10**12,
                                  duplicate_free=True)
        g = graph_of(inst)
        assert_matches_reference(g)
        assert check_structure(g).violation is None


# trees that are no caterpillar, each a DEEP_SUBTREE
NON_CATERPILLARS = (
    # a spider: three legs of two C-edges from B1
    ("spider", 3, 4, [(0, 0), (1, 0), (2, 0), (0, 1), (1, 2), (2, 3)]),
    # a path A1 B1 A2 B2 A3 with a two-edge branch B3 A4 off A2
    ("broom", 4, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (1, 2), (3, 2)]),
    # two branch points, B1 and B2, each with a deep branch
    ("two_branches", 6, 5, [(0, 0), (1, 0), (1, 1), (2, 1), (3, 0), (3, 2), (4, 1), (4, 3),
                            (5, 3), (2, 4)]),
    # a complete binary tree of depth three from A1
    ("binary", 5, 6, [(0, 0), (0, 1), (1, 0), (2, 0), (3, 1), (4, 1), (1, 2), (1, 3),
                      (2, 4), (2, 5)]),
    # a path B1 A2 B2 A3 B3, with leaves at its ends, and a two-edge tooth A5 B4 off B2
    ("long_tooth", 5, 4, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (4, 1), (4, 3)]),
)


@pytest.mark.parametrize("case", NON_CATERPILLARS, ids=[c[0] for c in NON_CATERPILLARS])
def test_non_caterpillars_are_deep_subtrees(case):
    _, p, q, edges = case
    g = graph_of(tree_instance(p, q, edges))
    assert_matches_reference(g)
    assert check_structure(g).violation.kind == DEEP_SUBTREE


def test_engines_agree_on_random_trees():
    rng = random.Random(7)
    kinds = []
    for _ in range(300):
        g = graph_of(random_tree_instance(rng, rng.randint(3, 30)))
        assert_matches_reference(g)
        v = check_structure(g)
        kinds.append(v.violation.kind if v.violation else "ok")
    assert kinds.count("ok") >= 30 and kinds.count(DEEP_SUBTREE) >= 30
    assert set(kinds) == {"ok", DEEP_SUBTREE}


def palindromic_maps():
    """Maps laid out mirror-symmetrically, so that their pieces read the
    same both ways along the line."""
    yield instance_from_cuts(CutModel(20, (5, 15), (8, 12)))[0]
    rng = random.Random(5)
    for _ in range(12):
        half = 1000
        cuts = sorted(rng.sample(range(1, half), rng.randint(2, 6)))
        a = [c for i, c in enumerate(cuts) if i % 2 == 0]
        b = [c for i, c in enumerate(cuts) if i % 2 == 1]
        # mirror each enzyme's cuts, with the middle cut on one side only
        yield instance_from_cuts(CutModel(2 * half, tuple(a + [half] + [2 * half - c for c in a[::-1]]),
                                          tuple(b + [2 * half - c for c in b[::-1]])))[0]


def test_palindromes_keep_the_payload_orientation():
    """When a family reads the same both ways, dangler_first_search keeps
    the payload's reading: the arrays the CLI prints follow the spine's
    orientation, which must be the reference's."""
    ties = 0
    for inst in palindromic_maps():
        for lab in label_duplicates(inst):
            g = build_graph(lab)
            assert_matches_reference(g)
            got, want = check_structure(g), reference_structure(g)
            if got.violation is not None:
                continue
            fam, ref = dangler_first_search(g, got), dangler_first_search(g, want)
            for name in ("order", "block_starts", "block_ends", "block_attach"):
                assert np.array_equal(getattr(fam, name), getattr(ref, name)), name
            values = fam.c_value_array()
            ties += bool((values == values[::-1]).all())
    assert ties >= 10


def test_face_walk_turns_in_dart_order():
    """Darts that share a tail are taken around it in dart-id order, also
    past 16 of them, where numpy's default sort is no insertion sort."""
    k = 40
    # a star: spoke j is dart j, from node j + 1, and dart k + j back from the hub 0
    tail = np.concatenate((np.arange(1, k + 1), np.zeros(k, np.int64)))
    walk = _face_walk(tail, 0)
    assert walk.tolist() == [d for j in range(k) for d in (k + j, j)]
    # the same around a hub of 41 among other nodes, its darts scattered
    rng = random.Random(3)
    others = rng.sample(range(1, 10 * k), k)
    tail = np.array(others + [0] * k, np.int64)
    assert _face_walk(tail, 0)[::2].tolist() == list(range(k, 2 * k))


def test_export_edges_golden():
    g = graph_of(EddInstance((5,), (5,), ((5,),), ((5,),)))
    assert export_edges(g) == "A1 C5#1\nB1 C5#1\n"
    g = graph_of(demo_instance())
    lines = export_edges(g).splitlines()
    assert len(lines) == 14
    assert lines[0] == "A1 C3#1"
    assert "B2 C12#1" in lines


def test_package_exports_resolve():
    assert [name for name in edd.__all__ if not hasattr(edd, name)] == []
