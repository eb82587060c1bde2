"""Reference structure engine: the plain breadth-first screen.

A pure-Python breadth-first search over the contracted digest graph,
kept as the oracle that ``check_structure`` is compared against.  It
breaks ties exactly as the array engine must: the first diameter end is
the smallest farthest node from the smallest leaf, the second the
smallest farthest node from the first.
"""

import numpy as np

from edd.digestgraph import (
    DEEP_SUBTREE,
    HAS_CYCLE,
    NOT_CONNECTED,
    NodeRef,
    StructureVerdict,
    StructureViolation,
    _contracted_ref,
    _extract_cycle,
    _TreePayload,
)
from edd.instance import LabeledInstance


def reference_structure(g: LabeledInstance) -> StructureVerdict:
    """The reference engine's verdict, wrapped like ``check_structure``'s."""
    result = _check_python(g)
    if isinstance(result, StructureViolation):
        return StructureVerdict(result.kind == DEEP_SUBTREE, result, None)
    if isinstance(result, tuple):
        payload, violation = result
        return StructureVerdict(True, violation, payload)
    return StructureVerdict(True, None, result)


def _adjacency(g: LabeledInstance):
    p = g.p
    nn = p + g.q
    adj: list[list[tuple[int, int]]] = [[] for _ in range(nn)]
    ao = g.a_owners.tolist()
    bo = g.b_owners.tolist()
    for k in range(g.n):
        u = ao[k]
        w = p + bo[k]
        adj[u].append((w, k))
        adj[w].append((u, k))
    return adj


def _bfs(adj, start, want_cycle=False):
    nn = len(adj)
    dist = [-1] * nn
    par = [-1] * nn
    pare = [-1] * nn
    dist[start] = 0
    order = [start]
    head = 0
    cycle = None
    while head < len(order):
        u = order[head]
        head += 1
        du = dist[u] + 1
        for w, k in adj[u]:
            if dist[w] < 0:
                dist[w] = du
                par[w] = u
                pare[w] = k
                order.append(w)
            elif want_cycle and cycle is None and k != pare[u] and k != pare[w]:
                cycle = (u, w, k)
    return dist, par, pare, order, cycle


def _check_python(g: LabeledInstance):
    """Returns a _TreePayload, a StructureViolation, or a (payload,
    violation) pair for a tree with a deep subtree."""
    p, q, n = g.p, g.q, g.n
    if n == 1:
        empty = np.empty(0, np.int64)
        return _TreePayload(True, empty, empty, empty, empty)
    nn = p + q
    adj = _adjacency(g)

    dist0, par0, pare0, order0, cycle = _bfs(adj, 0, want_cycle=True)
    if cycle is not None:
        u, w, k = cycle
        return StructureViolation(HAS_CYCLE, _extract_cycle(g, par0, pare0, u, w, k))
    if len(order0) < nn:
        visited = set(order0)
        missing = min(x for x in range(nn) if x not in visited)
        return StructureViolation(NOT_CONNECTED, (_contracted_ref(p, missing),))

    # Tree (node count exceeds edge count by one).  Two-pass diameter,
    # farthest ties broken toward the smallest node id.
    start = next(u for u in range(nn) if len(adj[u]) == 1)
    dist1 = _bfs(adj, start)[0]
    far = max(dist1)
    e1 = dist1.index(far)
    dist2, par2, pare2, _, _ = _bfs(adj, e1)
    far2 = max(dist2)
    e2 = dist2.index(far2)

    path = [e2]
    edges = []
    x = e2
    while x != e1:
        edges.append(pare2[x])
        x = par2[x]
        path.append(x)

    spine = path[1:-1]
    pos = {s: i for i, s in enumerate(spine)}
    on_diam = set(path)
    diam_edges = set(edges)

    pendants = []
    deep: list[int] = []
    for k in range(n):
        if k in diam_edges:
            continue
        u = int(g.a_owners[k])
        w = p + int(g.b_owners[k])
        u_on = u in on_diam
        w_on = w in on_diam
        if u_on and w_on:
            raise AssertionError("off-diameter edge between diameter nodes in a tree")
        if not u_on and not w_on:
            continue  # deep interior; its subtree root is caught below
        att, leaf = (u, w) if u_on else (w, u)
        if len(adj[leaf]) != 1:
            deep.append(k)
        else:
            pendants.append((pos[att], k))

    complete = len(edges) + len(pendants) == n
    # the two diameter terminals join the end blocks like any other pendant
    pendants.append((0, edges[0]))
    pendants.append((len(spine) - 1, edges[-1]))
    payload = _payload_from_parts(g, spine, edges, pendants)
    if deep:
        return payload, StructureViolation(DEEP_SUBTREE, (NodeRef("C", min(deep)),))
    if not complete:
        raise AssertionError("node accounting failed on a clean tree")
    return payload


def _payload_from_parts(g, spine, edges, pendants):
    lab = g
    pendants.sort(key=lambda t: (t[0], int(lab.values[t[1]]), int(lab.copy_ids[t[1]])))
    return _TreePayload(
        False,
        np.asarray(spine, dtype=np.int64),
        np.asarray(edges[1:-1], dtype=np.int64),
        np.asarray([k for _, k in pendants], dtype=np.int64),
        np.asarray([i for i, _ in pendants], dtype=np.int64),
    )
