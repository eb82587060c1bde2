"""Digest-graph construction and structural screening.

The digest graph joins every labeled C-element to the A-fragment and
B-fragment that contain it, so A/B nodes carry fragments and C-nodes
carry sub-fragments.  An instance admits a left-to-right layout exactly
when this graph is a tree whose longest path carries everything else as
danglers (2-node stubs: one C-node plus one single-piece fragment).
check_structure decides that, producing either a violation witness or
the diameter as int64 arrays: its interior nodes, the C-edges linking
them, and the pendant C-edges grouped by the diameter node they hang
from.

Internally the graph is contracted: A/B fragments are the nodes and
each C-element is an edge between its two owners.  One numpy engine
screens every graph size: an Euler tour ranked by pointer jumping gives
connectivity and tree distances for the two-pass diameter, and masks
give the danglers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .instance import LabeledInstance


NOT_CONNECTED = "NOT_CONNECTED"
HAS_CYCLE = "HAS_CYCLE"
DEEP_SUBTREE = "DEEP_SUBTREE"


class NodeRef(NamedTuple):
    """A node of the digest graph: kind 'A', 'B' or 'C' plus 0-based index."""

    kind: str
    index: int


@dataclass(frozen=True, eq=False)
class DigestGraph:
    """Immutable digest graph over a LabeledInstance."""

    labeled: LabeledInstance

    @property
    def p(self) -> int:
        return self.labeled.base.p

    @property
    def q(self) -> int:
        return self.labeled.base.q

    @property
    def n(self) -> int:
        return self.labeled.n

    @property
    def a_owners(self) -> np.ndarray:
        return self.labeled.a_owners

    @property
    def b_owners(self) -> np.ndarray:
        return self.labeled.b_owners

    def node_name(self, ref: NodeRef) -> str:
        if ref.kind == "A":
            return f"A{ref.index + 1}"
        if ref.kind == "B":
            return f"B{ref.index + 1}"
        lab = self.labeled
        return f"C{int(lab.values[ref.index])}#{int(lab.copy_ids[ref.index])}"


def build_graph(inst: LabeledInstance) -> DigestGraph:
    """Wrap a labeled instance as its digest graph (O(n), arrays shared)."""
    p, q, n = inst.base.p, inst.base.q, inst.n
    if n != p + q - 1:
        raise ValueError(f"|C| = {n} but p + q - 1 = {p + q - 1}; instance is inconsistent")
    if n and (int(inst.a_owners.min()) < 0 or int(inst.a_owners.max()) >= p
              or int(inst.b_owners.min()) < 0 or int(inst.b_owners.max()) >= q):
        raise ValueError("owner index out of range")
    return DigestGraph(inst)


def export_edges(g: DigestGraph) -> str:
    """Debug dump: one edge per line with stable node names."""
    lines = []
    ao = g.a_owners.tolist()
    bo = g.b_owners.tolist()
    for k in range(g.n):
        cname = g.node_name(NodeRef("C", k))
        lines.append(f"A{ao[k] + 1} {cname}")
        lines.append(f"B{bo[k] + 1} {cname}")
    return "\n".join(lines) + "\n" if lines else ""


@dataclass(frozen=True)
class StructureViolation:
    """Why the graph admits no layout, with a witness node sequence."""

    kind: str                      # NOT_CONNECTED, HAS_CYCLE or DEEP_SUBTREE
    nodes: tuple[NodeRef, ...]     # unreachable node / cycle / hanging-subtree root


@dataclass(eq=False)
class _TreePayload:
    """Diameter decomposition of a tree-shaped digest graph, as arrays.

    ``single`` marks the one-element instance, whose payload arrays are
    empty.  Otherwise ``spine`` lists the contracted interior nodes of
    the diameter in listing order and ``links`` the C-edges between
    consecutive spine nodes.  ``pend_c`` holds the pendant C-edges
    (exactly one leaf endpoint) sorted by (spine position, value, copy),
    with their spine positions in ``pend_pos``; the two diameter
    terminals are pendants of the first and last spine node.
    """

    single: bool
    spine: np.ndarray
    links: np.ndarray
    pend_c: np.ndarray
    pend_pos: np.ndarray


def _contracted_ref(p: int, node: int) -> NodeRef:
    return NodeRef("A", node) if node < p else NodeRef("B", node - p)


@dataclass(eq=False)
class StructureVerdict:
    """Outcome of the tree-plus-danglers screening: ``payload`` is the
    diameter decomposition whenever ``is_tree`` holds."""

    is_tree: bool
    violation: StructureViolation | None
    payload: _TreePayload | None


def check_structure(g: DigestGraph) -> StructureVerdict:
    """Decide tree-ness and the dangler condition on one diameter.

    The graph always has one more node than edges, so it is a tree
    exactly when the Euler-tour walk from node A1 covers every edge.
    Otherwise the verdict describes A1's component: HAS_CYCLE with a
    cycle when it holds as many C-edges as nodes, NOT_CONNECTED with the
    smallest unreached node when it is a tree itself.  On a tree the
    diameter is found by two farthest-node passes from the smallest
    leaf, each breaking ties toward the smallest node id, and every
    C-edge hanging off it must reach a leaf; the smallest one that does
    not is the DEEP_SUBTREE witness.  A tree's verdict carries the
    diameter as the spine, link and pendant arrays of ``_TreePayload``.
    O(n log n) array work, with no Python loop over nodes.
    """
    p, q, n = g.p, g.q, g.n
    if n == 1:
        empty = np.empty(0, np.int64)
        return StructureVerdict(True, None, _TreePayload(True, empty, empty, empty, empty))
    nn = p + q
    u = g.a_owners
    w = g.b_owners + p
    tail = np.concatenate((u, w))
    head = np.concatenate((w, u))
    deg = np.bincount(tail, minlength=nn)
    walk = _face_walk(tail, deg, 0)
    if len(walk) < 2 * n:
        return StructureVerdict(False, _off_tree_violation(g, walk, tail, head), None)

    # depth along the Euler tour from node 0: a dart steps down unless
    # its edge was walked before; first[x] is where the tour reaches x
    walked_at = np.empty(2 * n, np.int64)
    walked_at[walk] = np.arange(2 * n)
    down = np.arange(2 * n) < walked_at[(walk + n) % (2 * n)]
    depth_seq = np.concatenate(([0], np.cumsum(np.where(down, 1, -1))))
    first = np.zeros(nn, np.int64)
    first[head[walk[down]]] = np.flatnonzero(down) + 1
    depth = depth_seq[first]

    def dist_from(x):
        # the least depth the tour passes between x and y is their lca's
        f = first[x]
        low = np.empty_like(depth_seq)
        low[f:] = np.minimum.accumulate(depth_seq[f:])
        low[:f + 1] = np.minimum.accumulate(depth_seq[f::-1])[::-1]
        return depth[x] + depth - 2 * low[first]

    start = int(np.argmax(deg == 1))
    e1 = int(np.argmax(dist_from(start)))
    d_e1 = dist_from(e1)
    e2 = int(np.argmax(d_e1))
    # the diameter is read from e2; pos[x] is x's distance from e2
    pos = dist_from(e2)
    length = int(d_e1[e2])
    on_diam = pos + d_e1 == length
    on_u, on_w = on_diam[u], on_diam[w]
    diam_edges = np.flatnonzero(on_u & on_w)
    edges = np.empty(length, np.int64)
    edges[np.minimum(pos[u[diam_edges]], pos[w[diam_edges]])] = diam_edges
    path = np.empty(length + 1, np.int64)
    path[pos[on_diam]] = np.flatnonzero(on_diam)

    hanging = np.flatnonzero(on_u ^ on_w)
    att = np.where(on_u[hanging], u[hanging], w[hanging])
    leaf = np.where(on_u[hanging], w[hanging], u[hanging])
    deep = deg[leaf] != 1
    # the two diameter terminals join the end blocks like any other pendant
    pend_c = np.concatenate((hanging[~deep], edges[[0, -1]]))
    pend_pos = np.concatenate((pos[att[~deep]], pos[path[[1, -2]]])) - 1
    lab = g.labeled
    by_pos = np.lexsort((lab.copy_ids[pend_c], lab.values[pend_c], pend_pos))
    payload = _TreePayload(False, path[1:-1], edges[1:-1], pend_c[by_pos], pend_pos[by_pos])
    violation = None
    if deep.any():
        violation = StructureViolation(DEEP_SUBTREE, (NodeRef("C", int(hanging[deep][0])),))
    return StructureVerdict(True, violation, payload)


def _face_walk(tail: np.ndarray, deg: np.ndarray, root: int) -> np.ndarray:
    """Darts, in walk order, of the closed walk that starts with
    ``root``'s first dart and leaves every node it reaches by the dart
    that follows, around that node, the reverse of the dart it came by.

    Dart k < n runs along C-edge k from its A-owner to its B-owner, dart
    n + k back; the darts around a node are ordered cyclically by index.
    On a tree the walk is an Euler tour: each edge once in each
    direction.  It is ranked by pointer jumping, in log2(2n) rounds.
    """
    m = len(tail)
    if not deg[root]:
        return np.empty(0, np.int64)
    # work on slots: darts sorted by tail, so a node's darts are adjacent
    by_tail = np.argsort(tail)
    slot = np.empty(m, np.int64)
    slot[by_tail] = np.arange(m)
    offsets = np.concatenate(([0], np.cumsum(deg)))
    turn = np.arange(1, m + 1)
    used = deg > 0
    turn[offsets[1:][used] - 1] = offsets[:-1][used]
    succ = np.append(turn[slot[(by_tail + m // 2) % m]], m)
    s0 = offsets[root]
    del slot, turn, offsets  # peak memory: ranking holds four arrays of this size
    succ[succ == s0] = m  # cut the walk just before it returns to its first dart
    rank = np.ones(m + 1, np.int64)
    rank[m] = 0
    for _ in range(m.bit_length()):
        rank += np.take(rank, succ)
        succ = np.take(succ, succ)
    walked = np.flatnonzero(succ[:m] == m)
    length = rank[s0]
    out = np.empty(length, np.int64)
    out[length - rank[walked]] = by_tail[walked]
    return out


def _off_tree_violation(g: DigestGraph, walk, tail, head) -> StructureViolation:
    """Cycle or unreached node, judged on the component of node 0.

    The walk from node 0 covers that component when it is a tree.  When
    it is not, the walk uses at least as many edges as it reaches nodes:
    were its edges a tree, it would pass each both ways, so turn through
    every dart around each node it reaches and cover the component.
    """
    p, n, nn = g.p, g.n, g.p + g.q
    visits = np.concatenate(([0], head[walk]))
    reached = np.zeros(nn, dtype=bool)
    reached[visits] = True
    walked = np.zeros(n, dtype=bool)
    walked[walk % n] = True
    if walked.sum() < reached.sum():
        return StructureViolation(NOT_CONNECTED, (_contracted_ref(p, int(np.argmin(reached))),))
    # each node's first entry is a tree edge; any other edge walked closes a cycle
    nodes, first = np.unique(visits, return_index=True)
    entry = walk[first[1:] - 1]
    par = np.full(nn, -1, dtype=np.int64)
    par[nodes[1:]] = tail[entry]
    pare = np.full(nn, -1, dtype=np.int64)
    pare[nodes[1:]] = entry % n
    walked[entry % n] = False
    k = int(np.argmax(walked))
    return StructureViolation(HAS_CYCLE, _extract_cycle(
        g, par.tolist(), pare.tolist(), int(tail[k]), int(head[k]), k))


def _extract_cycle(g: DigestGraph, par, pare, u, w, k) -> tuple[NodeRef, ...]:
    p = g.p
    ancestors = set()
    x = u
    while x != -1:
        ancestors.add(x)
        x = par[x]
    w_chain = []
    x = w
    while x not in ancestors:
        w_chain.append((x, pare[x]))
        x = par[x]
    lca = x
    out: list[NodeRef] = []
    x = u
    while x != lca:
        out.append(_contracted_ref(p, x))
        out.append(NodeRef("C", pare[x]))
        x = par[x]
    out.append(_contracted_ref(p, lca))
    for node, edge in reversed(w_chain):
        out.append(NodeRef("C", edge))
        out.append(_contracted_ref(p, node))
    out.append(NodeRef("C", k))  # the edge closing w back to u
    return tuple(out)
