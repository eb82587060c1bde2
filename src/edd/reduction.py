"""Hard EDD instances from undirected graphs, and back.

Any graph maps in polynomial time to an EDD instance that is solvable
exactly when the graph has a Hamiltonian path, which makes the general
problem intractable and gives this toolkit a supply of adversarial
inputs.  The construction augments the graph with a tail (a hub ``t``
joined to every node plus a pendant ``z``), encodes each node v by the
pair of values v and v' = v + node_count, and forces consecutive
A-fragments in any layout to be adjacent nodes.  extract_path inverts
the encoding, recovering a Hamiltonian path from any valid layout.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

from .instance import EddInstance, ParseError, validate_consistency


class MalformedSolution(RuntimeError):
    pass


class PathSearchCapExceeded(RuntimeError):
    def __init__(self, nodes: int, cap: int):
        super().__init__(f"{nodes} nodes exceed the exhaustive path-search cap {cap}")


class ReductionCapExceeded(RuntimeError):
    def __init__(self, nodes: int, cap: int):
        super().__init__(f"{nodes} nodes exceed the reduction cap {cap}")


class _Adjacency:
    """Neighbor lists read from ``edges`` once, on first use."""

    @cached_property
    def _adjacency(self) -> dict[int, list[int]]:
        adj = defaultdict(list)
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(sorted(self._adjacency.get(v, ())))


@dataclass(frozen=True)
class SimpleGraph(_Adjacency):
    """Undirected graph on nodes 1..node_count, no loops or multi-edges."""

    node_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            if not (1 <= u <= self.node_count and 1 <= v <= self.node_count):
                raise ValueError(f"edge ({u}, {v}) outside 1..{self.node_count}")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))
        if self.node_count < 1:
            raise ValueError("graph needs at least one node")


@dataclass(frozen=True)
class AugmentedGraph(_Adjacency):
    """The input graph plus hub t (joined to every original node) and
    pendant z (joined to t only)."""

    base: SimpleGraph
    node_count: int   # original count + 2
    t: int
    z: int
    edges: frozenset[tuple[int, int]]

    def kappa(self, v: int) -> int:
        return len(self._adjacency.get(v, ()))

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


def augment(h: SimpleGraph) -> AugmentedGraph:
    """Add the hub-and-pendant tail; Hamiltonian-path existence carries
    over unchanged in both directions."""
    n0 = h.node_count
    t, z = n0 + 1, n0 + 2
    edges = set(h.edges)
    edges.update((v, t) for v in range(1, n0 + 1))
    edges.add((t, z))
    return AugmentedGraph(h, n0 + 2, t, z, frozenset(edges))


@dataclass(frozen=True)
class ReducedInstance:
    """Reduction output: the instance plus the fragment-to-node maps.

    A-fragment values can collide, so positions (not values) identify
    nodes: A position i holds node ``a_nodes[i]``; B position j holds
    ``b_nodes[j]`` as (node, copy) with copy 0 for the paired fragment
    and 1.. for the single-value extras."""

    instance: EddInstance
    augmented: AugmentedGraph
    a_nodes: tuple[int, ...]
    b_nodes: tuple[tuple[int, int], ...]

    def node_label(self, v: int) -> str:
        if v == self.augmented.t:
            return "t"
        if v == self.augmented.z:
            return "z"
        return str(v)


# `edd reduce-hp` on 10^5 nodes and 2 * 10^5 edges: about 8 s and 600 MB on a 2-core VM
MAX_REDUCTION_NODES = 100_000


def reduce_graph(h: SimpleGraph) -> ReducedInstance:
    """Build the EDD instance encoding Hamiltonian paths of ``h``.

    With ell the augmented node count and v' = v + ell: node v becomes
    an A-fragment of value v plus the primed values of its neighbors
    (the hub and pendant get special fragments), while the B side pairs
    each v with its prime once and pads the remaining kappa(v) - 1
    occurrences of v' with single-value fragments.  The output always
    passes the consistency rules.  Past ``MAX_REDUCTION_NODES`` nodes it
    raises ReductionCapExceeded: the hub alone takes one edge per node.
    """
    if h.node_count > MAX_REDUCTION_NODES:
        raise ReductionCapExceeded(h.node_count, MAX_REDUCTION_NODES)
    aug = augment(h)
    ell, t, z = aug.node_count, aug.t, aug.z
    prime = lambda v: v + ell

    a_lengths: list[int] = []
    ab_sets: list[tuple[int, ...]] = []
    a_nodes: list[int] = []
    originals = range(1, h.node_count + 1)
    for v in range(1, ell + 1):
        a_nodes.append(v)
        if v == z:
            a_lengths.append(prime(t))
            ab_sets.append((prime(t),))
        elif v == t:
            vals = [prime(u) for u in originals]
            a_lengths.append(t + sum(vals))
            ab_sets.append(tuple(vals) + (t,))
        else:
            vals = [prime(u) for u in aug.neighbors(v)]
            a_lengths.append(v + sum(vals))
            ab_sets.append(tuple(vals) + (v,))

    b_lengths: list[int] = []
    ba_sets: list[tuple[int, ...]] = []
    b_nodes: list[tuple[int, int]] = []
    for v in range(1, ell + 1):
        if v == z:
            continue
        b_lengths.append(v + prime(v))
        ba_sets.append((v, prime(v)))
        b_nodes.append((v, 0))
        for i in range(1, aug.kappa(v)):
            b_lengths.append(prime(v))
            ba_sets.append((prime(v),))
            b_nodes.append((v, i))

    inst = EddInstance(tuple(a_lengths), tuple(b_lengths),
                       tuple(ab_sets), tuple(ba_sets))
    report = validate_consistency(inst)
    if not report.ok:
        raise AssertionError(f"reduction produced an inconsistent instance: {report.violations}")
    return ReducedInstance(inst, aug, tuple(a_nodes), tuple(b_nodes))


def extract_path(pi_a: Sequence[int], h: SimpleGraph) -> tuple[int, ...]:
    """Read a Hamiltonian path of ``h`` off the A-fragment order ``pi_a`` of reduce_graph(h).

    Consecutive A-fragments must be adjacent augmented nodes and the
    tail must sit at one end; anything else raises MalformedSolution.
    A-fragment i encodes node i + 1.
    """
    aug = augment(h)
    if sorted(pi_a) != list(range(aug.node_count)):
        raise MalformedSolution("pi_a is not a permutation of the A-fragments")
    nodes = [int(i) + 1 for i in pi_a]
    for u, v in zip(nodes, nodes[1:]):
        if not aug.adjacent(u, v):
            raise MalformedSolution(f"consecutive fragments map to non-adjacent nodes {u}, {v}")
    if nodes[0] == aug.z:
        nodes.reverse()
    if nodes[-1] != aug.z or nodes[-2] != aug.t:
        raise MalformedSolution("tail nodes t, z are not at one end")
    path = tuple(nodes[:-2])
    if sorted(path) != list(range(1, h.node_count + 1)):
        raise MalformedSolution("extracted path does not visit every original node once")
    return path


DEFAULT_PATH_SEARCH_CAP = 10


def has_hamiltonian_path(h: SimpleGraph, cap: int = DEFAULT_PATH_SEARCH_CAP) -> bool:
    """Exhaustive Hamiltonian-path decision for small graphs."""
    n = h.node_count
    if n > cap:
        raise PathSearchCapExceeded(n, cap)
    if n == 1:
        return True
    adj = {v: set(h.neighbors(v)) for v in range(1, n + 1)}
    visited = set()

    def walk(v: int, left: int) -> bool:
        if left == 0:
            return True
        visited.add(v)
        for u in adj[v]:
            if u not in visited and walk(u, left - 1):
                visited.discard(v)
                return True
        visited.discard(v)
        return False

    return any(walk(s, n - 1) for s in range(1, n + 1))


# --- graph text format -----------------------------------------------------

def parse_graph(text: str) -> SimpleGraph:
    """Parse the GRAPH format: ``GRAPH <node_count>`` then one ``u v``
    edge per line, 1-based; ``#`` comments and blank lines ignored."""
    node_count = None
    edges = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if node_count is None:
            if len(tokens) != 2 or tokens[0] != "GRAPH":
                raise ParseError(line_no, "expected 'GRAPH <node_count>' header")
            try:
                node_count = int(tokens[1])
            except ValueError:
                raise ParseError(line_no, f"invalid node count {tokens[1]!r}") from None
            if node_count < 1:
                raise ParseError(line_no, "node count must be positive")
            continue
        if len(tokens) != 2:
            raise ParseError(line_no, "expected edge line 'u v'")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(line_no, "invalid edge endpoints") from None
        if u == v:
            raise ParseError(line_no, f"self-loop at node {u}")
        if not (1 <= u <= node_count and 1 <= v <= node_count):
            raise ParseError(line_no, f"edge ({u}, {v}) outside 1..{node_count}")
        edges.add((min(u, v), max(u, v)))
    if node_count is None:
        raise ParseError(1, "missing 'GRAPH' header")
    return SimpleGraph(node_count, frozenset(edges))


def serialize_graph(h: SimpleGraph) -> str:
    lines = [f"GRAPH {h.node_count}"]
    lines.extend(f"{u} {v}" for u, v in sorted(h.edges))
    return "\n".join(lines) + "\n"


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, frozenset((u, v) for u, v in combinations(range(1, n + 1), 2)))
