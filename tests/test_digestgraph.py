import random
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import edd
from edd.digestgraph import (
    DEEP_SUBTREE,
    HAS_CYCLE,
    NOT_CONNECTED,
    NodeRef,
    _contracted_ref,
    build_graph,
    check_structure,
    export_edges,
)
from edd.instance import EddInstance, LabeledInstance, label_duplicates, validate_consistency
from edd.generator import CutModel, instance_from_cuts, random_instance

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
    assert set(g.labeled.values[g.b_owners == 1].tolist()) == {3, 8, 12, 15}
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
    assert v.payload is not None


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
