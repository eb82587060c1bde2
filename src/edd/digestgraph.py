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

The graph is the labeling itself: a LabeledInstance's ``a_owners`` and
``b_owners`` are its edge list.  It is screened contracted: A/B
fragments are the nodes and each C-element is an edge between its two
owners.  One numpy engine screens every graph size, on the stripped
graph: the contracted graph without its leaves (about half the nodes of
a solvable map), which has the same cycles and, unless an edge joins
two leaves, the same connectivity.  An Euler tour of it, ranked by
pointer jumping, gives connectivity.  A tree passes when it is a
caterpillar, the stripped graph a path, whose spine the tour reads in
one pass; only a tree that is not, always DEEP_SUBTREE, takes the
tour's distances for the two-pass diameter, a leaf lying one step past
its neighbour, and masks for the witness.
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


def build_graph(inst: LabeledInstance) -> LabeledInstance:
    """Check that a labeled instance is a digest graph, its C-elements
    the edges between their owners, and return it.  O(n)."""
    p, q, n = inst.p, inst.q, inst.n
    if n != p + q - 1:
        raise ValueError(f"|C| = {n} but p + q - 1 = {p + q - 1}; instance is inconsistent")
    if n and (int(inst.a_owners.min()) < 0 or int(inst.a_owners.max()) >= p
              or int(inst.b_owners.min()) < 0 or int(inst.b_owners.max()) >= q):
        raise ValueError("owner index out of range")
    return inst


def export_edges(g: LabeledInstance) -> str:
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
    diameter decomposition of a tree that passes, else None."""

    is_tree: bool
    violation: StructureViolation | None
    payload: _TreePayload | None


def check_structure(g: LabeledInstance) -> StructureVerdict:
    """Decide tree-ness and the dangler condition on one diameter.

    The graph always has one more node than edges, so it is a tree
    exactly when it is connected.  The screen runs on the stripped
    graph: the contracted graph with its leaves, and the C-edges to
    them, removed.  A leaf changes neither connectivity nor acyclicity,
    unless its one neighbour is a leaf too (a two-node component, so the
    graph is not connected); otherwise the graph is a tree exactly when
    the stripped graph is one, which the Euler-tour walk from A1, or
    from A1's neighbour when A1 is a leaf, shows by reaching all of it.
    When it is not, the verdict describes A1's component: HAS_CYCLE with
    a cycle, which never passes through a leaf, when the component holds
    as many C-edges as nodes; NOT_CONNECTED with the smallest node
    outside it when it is a tree itself.

    A tree passes exactly when it is a caterpillar: when no stripped
    node has three stripped neighbours, so the stripped tree is a path.
    Its diameter is then that path with a leaf at each end, and every
    other C-edge is a dangler.  The walk passes along the path from one
    end to the other, which gives the spine and its links with no
    distance pass; the pendants are all the leaf edges, at their
    anchors' spine positions.  The spine is listed from the end the
    two-pass diameter from the smallest leaf would list it from, each
    pass taking the smallest farthest node: from the end farther from
    the smallest leaf, or, when both ends are as far, from the end whose
    smallest leaf is the larger.  Any other tree is DEEP_SUBTREE (a
    stripped node lies off every longest path), and ``_deep_subtree``
    names the witness by the distance passes.  A passing tree's verdict
    carries the diameter as the spine, link and pendant arrays of
    ``_TreePayload``, the pendants ordered by one sort of (spine
    position, rank) keys, the rank being the labeling's (value, copy)
    order.  O(n log n) array work, with no Python loop over nodes.
    """
    p, q, n = g.p, g.q, g.n
    if n == 1:
        empty = np.empty(0, np.int64)
        return StructureVerdict(True, None, _TreePayload(True, empty, empty, empty, empty))
    nn = p + q
    u = g.a_owners
    w = g.b_owners + p
    leaf = np.concatenate((np.bincount(u, minlength=p), np.bincount(g.b_owners, minlength=q))) == 1
    # a leaf's one neighbour; every other node is its own anchor
    anchor = np.arange(nn, dtype=np.int64)
    at_u, at_w = leaf[u], leaf[w]
    for ends, other, at in ((u, w, at_u), (w, u, at_w)):
        k = at.nonzero()[0]
        anchor[ends[k]] = other[k]
    leafy = at_u | at_w
    inner = (~leafy).nonzero()[0]   # the stripped graph's C-edges
    m = len(inner)
    tail = np.concatenate((u[inner], w[inner]))
    head = np.concatenate((w[inner], u[inner]))
    root = int(anchor[0])
    walk = _face_walk(tail, root)
    degree = np.bincount(tail, minlength=nn)   # stripped neighbours
    # without two-leaf edges the stripped graph has one more node than
    # edges, so it is a tree when the walk covers it and no node of it is bare
    if (at_u & at_w).any() or (m and (len(walk) < 2 * m or np.count_nonzero(
            degree) < nn - np.count_nonzero(leaf))):
        return StructureVerdict(False, _off_tree_violation(g, walk, tail, head, inner, anchor,
                                                           root), None)
    del tail, at_u, at_w
    if degree.max() > 2:
        depth_seq, first_at = _tour_places(walk, head, anchor)
        del walk, head   # peak memory: the distances hold several node arrays
        return _deep_subtree(g, depth_seq, first_at, leaf)

    if m:
        # the walk's first arrival at an end of the path starts its one pass along it
        start = int((degree[head[walk]] == 1).argmax())
        window = walk[start:start + m + 1]
        spine, links = head[window], inner[window[1:] % m]
    else:   # a star: the stripped graph is its centre
        spine, links = np.array([root], np.int64), inner
    del walk, head
    place = np.empty(nn, np.int64)
    place[spine] = np.arange(m + 1)
    # start at the end farther from the smallest leaf; on a tie, at the
    # end whose smallest leaf is the larger (the second diameter pass's end)
    twice = 2 * int(place[anchor[leaf.argmax()]])   # twice the smallest leaf's place
    if twice > m or (twice == m and _end_leaf(leaf, anchor, spine[0])
                  < _end_leaf(leaf, anchor, spine[-1])):
        spine, links = spine[::-1], links[::-1]
        place[spine] = np.arange(m + 1)
    pend_c = leafy.nonzero()[0]
    pend_pos = place[anchor[u[pend_c]]]
    by_pos = (pend_pos * n + g.rank[pend_c]).argsort()
    return StructureVerdict(True, None, _TreePayload(False, spine, links, pend_c[by_pos],
                                                     pend_pos[by_pos]))


def _end_leaf(leaf: np.ndarray, anchor: np.ndarray, end: int) -> int:
    """The smallest leaf hanging from ``end``."""
    return int((leaf & (anchor == end)).argmax())


def _deep_subtree(g: LabeledInstance, depth_seq, first_at, leaf) -> StructureVerdict:
    """DEEP_SUBTREE on a tree that is no caterpillar, with no payload.

    The diameter is found by two farthest-node passes from the smallest
    leaf, each breaking ties toward the smallest node id.  Distances come
    from the stripped tree's Euler tour, as ``_tour_places`` gives it, a
    leaf lying one step past its neighbour.  The witness is the smallest
    C-edge that hangs off the diameter and does not reach a leaf.
    """
    u = g.a_owners
    w = g.b_owners + g.p
    depth_at = depth_seq[first_at] + leaf   # a leaf lies one deeper than its anchor

    def dist_from(x):
        # x is a leaf; the least depth the tour passes between two places is their lca's
        f = first_at[x]
        low = np.empty_like(depth_seq)
        low[f:] = np.minimum.accumulate(depth_seq[f:])
        low[:f + 1] = np.minimum.accumulate(depth_seq[f::-1])[::-1]
        dist = depth_at[x] + depth_at - 2 * low[first_at]
        dist[x] = 0
        return dist

    start = int(leaf.argmax())
    e1 = int(dist_from(start).argmax())
    d_e1 = dist_from(e1)
    e2 = int(d_e1.argmax())
    on_diam = dist_from(e2) + d_e1 == int(d_e1[e2])
    on_u, on_w = on_diam[u], on_diam[w]
    hanging = (on_u ^ on_w).nonzero()[0]
    tip = np.where(on_u[hanging], w[hanging], u[hanging])
    witness = NodeRef("C", int(hanging[~leaf[tip]][0]))   # the smallest deep hanging edge
    return StructureVerdict(True, StructureViolation(DEEP_SUBTREE, (witness,)), None)


def _tour_places(walk: np.ndarray, head: np.ndarray, anchor: np.ndarray):
    """The depth at each step of an Euler tour from its root, and where
    the tour first reaches each node's anchor.  A dart steps down unless
    its edge was walked before."""
    m = len(walk) // 2
    walked_at = np.empty(2 * m, np.int64)
    walked_at[walk] = np.arange(2 * m)
    down = np.arange(2 * m) < walked_at[np.where(walk < m, walk + m, walk - m)]
    depth_seq = np.concatenate(([0], np.where(down, 1, -1).cumsum()))
    first = np.zeros(len(anchor), np.int64)
    first[head[walk[down]]] = down.nonzero()[0] + 1
    return depth_seq, first[anchor]


def _face_walk(tail: np.ndarray, root: int) -> np.ndarray:
    """Darts, in walk order, of the closed walk that starts with
    ``root``'s first dart and leaves every node it reaches by the dart
    that follows, around that node, the reverse of the dart it came by.

    Of e edges, edge k gives dart k, from ``tail[k]`` to ``tail[e + k]``,
    and dart e + k back; the darts around a node are in dart-id order,
    cyclically, so the walk, and the cycle a HAS_CYCLE witness reads off
    it, do not depend on how a sort breaks ties.  That order is one
    stable sort by tail, near-linear when the first half of ``tail`` is
    ascending, as the A side's is.  On a tree the walk is an Euler tour:
    each edge once in each direction.  It is ranked by pointer jumping,
    in log2(2e) rounds.
    """
    m = len(tail)
    # work on slots: darts sorted by tail, so a node's darts are adjacent
    by_tail = tail.argsort(kind="stable")
    sorted_tail = tail[by_tail]
    s0 = int(sorted_tail.searchsorted(root))
    if s0 == m or sorted_tail[s0] != root:
        return np.empty(0, np.int64)
    # each slot turns to the next around its node, a node's last to its first
    last = (sorted_tail[1:] != sorted_tail[:-1]).nonzero()[0]
    del sorted_tail
    turn = np.arange(1, m + 1)
    turn[np.concatenate((last, [m - 1]))] = np.concatenate(([0], last + 1))
    slot = np.empty(m, np.int64)
    slot[by_tail] = np.arange(m)
    succ = np.concatenate((turn[slot[(by_tail + m // 2) % m]], [m]))
    del slot, turn  # peak memory: ranking holds four arrays of this size
    succ[succ == s0] = m  # cut the walk just before it returns to its first dart
    rank = np.ones(m + 1, np.int64)
    rank[m] = 0
    for _ in range(m.bit_length()):
        rank += rank.take(succ)
        succ = succ.take(succ)
    walked = (succ[:m] == m).nonzero()[0]
    length = rank[s0]
    out = np.empty(length, np.int64)
    out[length - rank[walked]] = by_tail[walked]
    return out


def _off_tree_violation(g: LabeledInstance, walk, tail, head, inner, anchor,
                        root: int) -> StructureViolation:
    """Cycle or unreached node, judged on the component of node 0.

    ``walk`` runs on the stripped graph from ``root``, whose dart k and
    m + k are C-edge ``inner[k]``.  It covers root's component of the
    stripped graph when that is a tree.  When it is not, the walk uses
    at least as many edges as it reaches nodes: were its edges a tree,
    it would pass each both ways, so turn through every dart around each
    node it reaches and cover the component.  Node 0's component is the
    nodes reached and their leaves, or node 0 and root when both are
    leaves.
    """
    p, nn, m = g.p, g.p + g.q, len(inner)
    heads = head[walk]
    reached = np.zeros(nn, dtype=bool)
    reached[root] = True
    reached[heads] = True
    walked = np.zeros(m, dtype=bool)
    walked[np.where(walk < m, walk, walk - m)] = True
    if walked.sum() < reached.sum():
        reached |= reached[anchor]
        return StructureViolation(NOT_CONNECTED, (_contracted_ref(p, int(np.argmin(reached))),))
    # each node's first entry is a tree edge; any other edge walked closes a cycle
    nodes, first = np.unique(heads, return_index=True)
    entered = nodes != root
    nodes, entry = nodes[entered], walk[first[entered]]
    par = np.full(nn, -1, dtype=np.int64)
    par[nodes] = tail[entry]
    pare = np.full(nn, -1, dtype=np.int64)
    entry_edge = np.where(entry < m, entry, entry - m)
    pare[nodes] = inner[entry_edge]
    walked[entry_edge] = False
    k = int(walked.argmax())
    return StructureViolation(HAS_CYCLE, _extract_cycle(
        g, par.tolist(), pare.tolist(), int(tail[k]), int(head[k]), int(inner[k])))


def _extract_cycle(g: LabeledInstance, par, pare, u, w, k) -> tuple[NodeRef, ...]:
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
