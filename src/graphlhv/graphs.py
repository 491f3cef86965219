"""Undirected graphs on 1-indexed nodes: named families and structural queries."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Callable, Hashable, Iterable, Sequence, Sized


class GraphFormatError(ValueError):
    """A graph description is malformed (bad endpoint, self-loop, duplicate edge)."""


class UnsupportedSizeError(ValueError):
    """An input exceeds the documented guard of an exact algorithm."""


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with nodes 1..n and canonically sorted edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise GraphFormatError(f"node count must be a positive integer, got {self.n!r}")
        seen: set[tuple[int, int]] = set()
        canon = []
        for pair in self.edges:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise GraphFormatError(f"edge {pair!r} is not a node pair") from None
            if not (_is_int(u) and _is_int(v)):
                raise GraphFormatError(f"edge {pair!r} has a non-integer endpoint")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise GraphFormatError(f"edge ({u}, {v}) leaves the node range 1..{self.n}")
            if u == v:
                raise GraphFormatError(f"self-loop at node {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphFormatError(f"duplicate edge ({u}, {v})")
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """neighbors[j - 1] is the sorted neighborhood of node j."""
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u - 1].append(v)
            nbrs[v - 1].append(u)
        return tuple(tuple(sorted(b)) for b in nbrs)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """neighbor_masks[j - 1] has bit k-1 set for every neighbor k of node j."""
        masks = []
        for block in self.neighbors:
            m = 0
            for k in block:
                m |= 1 << (k - 1)
            masks.append(m)
        return tuple(masks)

    def check_node(self, j: int) -> None:
        if not (1 <= j <= self.n):
            raise ValueError(f"node {j} outside 1..{self.n}")

    def check_measurement(self, m: Sized) -> None:
        """Refuse a measurement word whose length is not the number of nodes."""
        if len(m) != self.n:
            raise ValueError(f"measurement length {len(m)} does not match n={self.n}")

    def neighborhood(self, j: int) -> tuple[int, ...]:
        self.check_node(j)
        return self.neighbors[j - 1]

    def degree(self, j: int) -> int:
        return len(self.neighborhood(j))

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": self.edges}, sort_keys=True)


def _cycle_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((j, j + 1) for j in range(1, n)) + ((n, 1),)


def ring(n: int) -> Graph:
    """Cycle 1-2-...-n-1."""
    if n < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {n}")
    return Graph(n, _cycle_edges(n))


def chain(n: int) -> Graph:
    """Path 1-2-...-n."""
    if n < 1:
        raise ValueError(f"a chain needs at least 1 node, got {n}")
    return Graph(n, tuple((j, j + 1) for j in range(1, n)))


def star(n: int) -> Graph:
    """Node 1 adjacent to every other node."""
    if n < 1:
        raise ValueError(f"a star needs at least 1 node, got {n}")
    return Graph(n, tuple((1, j) for j in range(2, n + 1)))


def grid(rows: int, cols: int) -> Graph:
    """rows x cols square lattice, row-major numbering (node = (r-1)*cols + c)."""
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be positive, got {rows}x{cols}")
    edges = []
    for r in range(1, rows + 1):
        for c in range(1, cols + 1):
            node = (r - 1) * cols + c
            if c < cols:
                edges.append((node, node + 1))
            if r < rows:
                edges.append((node, node + cols))
    return Graph(rows * cols, tuple(edges))


def padded_ring(n: int) -> Graph:
    """Ring of size n - r on nodes 1..n-r plus r = (n - 12) mod 24 isolated nodes."""
    if n < 12:
        raise ValueError(f"padded ring needs at least 12 nodes, got {n}")
    return Graph(n, _cycle_edges(n - (n - 12) % 24))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with parts 1..a and a+1..a+b."""
    if a < 1 or b < 1:
        raise ValueError(f"part sizes must be positive, got {a}, {b}")
    edges = tuple((u, v) for u in range(1, a + 1) for v in range(a + 1, a + b + 1))
    return Graph(a + b, edges)


# Relabeling of the row-major 2x3 grid that numbers the nodes around the
# boundary cycle (top row left to right, bottom row right to left).
CLOCKWISE_2X3 = {1: 1, 2: 2, 3: 3, 4: 6, 5: 5, 6: 4}


def _parse_one(p: str) -> tuple[int]:
    return (int(p),)


def _parse_dims(p: str) -> tuple[int, int]:
    a, sep, b = p.partition("x")
    if not sep:
        raise GraphFormatError(f"expected AxB dimensions, got {p!r}")
    return int(a), int(b)


# name -> (parameter parser, constructor, node count of the parsed integers)
_FAMILIES = {
    "ring": (_parse_one, ring, lambda n: n),
    "chain": (_parse_one, chain, lambda n: n),
    "star": (_parse_one, star, lambda n: n),
    "padded-ring": (_parse_one, padded_ring, lambda n: n),
    "grid": (_parse_dims, grid, lambda rows, cols: rows * cols),
    "complete-bipartite": (_parse_dims, complete_bipartite, lambda a, b: a + b),
}


def _family(spec: str) -> tuple[Callable[..., Graph], tuple[int, ...], int]:
    """Constructor, integer parameters and node count of a family spec."""
    name, sep, param = spec.partition(":")
    if not sep or name not in _FAMILIES:
        raise GraphFormatError(
            f"unknown graph spec {spec!r}; expected one of "
            + ", ".join(f"{k}:<param>" for k in sorted(_FAMILIES))
        )
    parse, build, nodes = _FAMILIES[name]
    try:
        params = parse(param)
    except ValueError as exc:
        raise GraphFormatError(f"bad parameter in graph spec {spec!r}: {exc}") from exc
    return build, params, nodes(*params)


def family_node_count(spec: str) -> int:
    """Node count of a family spec such as 'ring:12', read from its integers
    without building the graph (the parameters' ranges are not checked)."""
    return _family(spec)[2]


def named_graph(spec: str) -> Graph:
    """Build a graph from a family spec such as 'ring:12' or 'grid:2x3'."""
    build, params, _ = _family(spec)
    try:
        return build(*params)
    except ValueError as exc:
        raise GraphFormatError(f"bad parameter in graph spec {spec!r}: {exc}") from exc


def graph_from_json(text: str) -> Graph:
    """Parse the JSON graph format {"n": int, "edges": [[u, v], ...]}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise GraphFormatError('graph JSON must be an object with "n" and "edges"')
    edges = data["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) for e in edges):
        raise GraphFormatError('"edges" must be a list of [u, v] pairs')
    return Graph(data["n"], tuple(tuple(e) for e in edges))


def ball(g: Graph, j: int, d: int) -> frozenset[int]:
    """Nodes reachable from j along at most d edges, including j itself:
    the sites of j's entry in ``ball_masks``, which refuses d < 0."""
    g.check_node(j)
    return frozenset(_sites(ball_masks(g, d)[j - 1]))


def ball_masks(g: Graph, d: int) -> tuple[int, ...]:
    """Every node's distance-d ball as a bitmask: entry j - 1 has bit k - 1
    set for each node k reachable from j along at most d edges.

    All balls grow together: each round ORs a node's mask with its
    neighbours' masks from the round before, two big-int ORs per edge. There
    are at most min(d, n - 1) rounds, and the loop stops at the first round
    in which no mask grows.
    """
    if d < 0:
        raise ValueError(f"distance must be non-negative, got {d}")
    edges = [(u - 1, v - 1) for u, v in g.edges]
    masks = [1 << j for j in range(g.n)]
    for _ in range(min(d, g.n - 1)):
        grown = masks.copy()
        for u, v in edges:
            grown[u] |= masks[v]
            grown[v] |= masks[u]
        if grown == masks:
            break
        masks = grown
    return tuple(masks)


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _bit_indices(mask: int) -> tuple[int, ...]:
    """The positions of a non-negative mask's set bits, ascending."""
    return tuple(compress(range(mask.bit_length()), bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)))


def _sites(mask: int) -> tuple[int, ...]:
    """The sites of a site mask (bit j - 1 for site j), ascending."""
    return _bit_indices(mask << 1)


def automorphisms(g: Graph, labels: Sequence[Hashable] | None = None) -> list[tuple[int, ...]]:
    """All node permutations preserving edges and the node labels (labels[j-1] for node j).

    The exhaustive reference: a complete backtracking enumeration with pruning
    on degree and color, whose cost grows with the order of the group (8! on
    star:9). Orbits come from ``automorphism_orbits``, which finds only a
    generating set; tests compare the two. Permutations are returned as
    tuples p with p[j-1] the image of node j, sorted lexicographically; the
    identity is always present. Graphs above 12 nodes are refused.
    """
    if g.n > 12:
        raise UnsupportedSizeError(f"automorphism search is guarded at 12 nodes, got {g.n}")
    if labels is None:
        labels = ("*",) * g.n
    if len(labels) != g.n:
        raise ValueError("labels must name every node")
    degs = [g.degree(j) for j in range(1, g.n + 1)]
    adj = [set(g.neighbors[j]) for j in range(g.n)]

    n = g.n
    image = [0] * (n + 1)
    used = [False] * (n + 1)
    found: list[tuple[int, ...]] = []

    def place(u: int) -> None:
        if u > n:
            found.append(tuple(image[1:]))
            return
        for v in range(1, n + 1):
            if used[v] or labels[v - 1] != labels[u - 1] or degs[v - 1] != degs[u - 1]:
                continue
            ok = True
            for w in range(1, u):
                if (w in adj[u - 1]) != (image[w] in adj[v - 1]):
                    ok = False
                    break
            if ok:
                used[v] = True
                image[u] = v
                place(u + 1)
                used[v] = False
        image[u] = 0

    place(1)
    return sorted(found)


def orbits(n: int, perms: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Orbits of nodes 1..n under a set of permutations, sorted by smallest member."""
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in perms:
        for j in range(1, n + 1):
            ra, rb = find(j), find(p[j - 1])
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list[int]] = {}
    for j in range(1, n + 1):
        groups.setdefault(find(j), []).append(j)
    return tuple(sorted((tuple(sorted(v)) for v in groups.values()), key=lambda t: t[0]))


def _refine(nbrs: Sequence[Sequence[int]], sides: list[list[int]]) -> list[list[int]]:
    """Refine colorings of one graph together to the coarsest equitable partition.

    Each round recolors a node by the rank of (its color, its neighbors'
    sorted colors) among the signatures of every side, until the number of
    colors stops growing. Ranks depend on nothing but the signatures, so the
    colors of one side compare with the other's: an automorphism carrying
    one input coloring to the other carries the refined ones too.
    """
    count = len(set().union(*sides))
    while True:
        sigs = [[(side[i], tuple(sorted(side[k] for k in nb))) for i, nb in enumerate(nbrs)]
                for side in sides]
        rank = {s: r for r, s in enumerate(sorted(set().union(*sigs)))}
        sides = [[rank[s] for s in sig] for sig in sigs]
        if len(rank) == count:
            return sides
        count = len(rank)


def _individualized(nbrs, a: list[int], b: list[int], x: int, y: int) -> list[list[int]]:
    """Give x on side a and y on side b one fresh color, then refine both."""
    a, b = list(a), list(b)
    a[x] = b[y] = max(a + b) + 1
    return _refine(nbrs, [a, b])


def _candidate(a: list[int], b: list[int]) -> list[int]:
    """One bijection carrying coloring a to coloring b (equal color counts):
    a node with one color on both sides maps to itself, and the other nodes
    of each color pair up in ascending order. On discrete colorings it is the
    bijection matching equal colors."""
    moved = [j for j in range(len(a)) if a[j] != b[j]]
    perm = list(range(len(a)))
    # stable sorts: within a color, both sides' moved nodes stay ascending
    for x, y in zip(sorted(moved, key=a.__getitem__), sorted(moved, key=b.__getitem__)):
        perm[x] = y
    return perm


def _extend(nbrs, adj, labels, a: list[int], b: list[int]) -> list[int] | None:
    """An automorphism carrying coloring a to coloring b, or None.

    Both colorings are equitable and refined together. First try one early
    leaf, ``_candidate(a, b)``, and return it if it preserves every label and
    edge: on symmetric graphs the nodes that individualization left alone
    usually stay put, so the search stops here instead of walking every
    cell down to singletons. Otherwise branch on the first cell with more
    than one node: fix one of its nodes on side a and try every node of the
    cell on side b, since refinement does not tell which of them lead to an
    automorphism. At a discrete leaf the candidate is the bijection matching
    equal colors, which joint refinement makes an automorphism, so its
    failure there raises ``RuntimeError``.
    """
    if sorted(a) != sorted(b):
        return None
    perm = _candidate(a, b)
    if all(labels[j] == labels[perm[j]] for j in range(len(a))) and all(
        perm[k] in adj[perm[j]] for j, nb in enumerate(nbrs) for k in nb
    ):
        return perm
    cell = min((c for c, k in Counter(a).items() if k > 1), default=None)
    if cell is None:
        # Joint refinement makes the leaf hold; a failure is a bug, not a dead end.
        raise RuntimeError("refined leaf is not an automorphism")
    x = a.index(cell)
    for y, c in enumerate(b):
        if c == cell:
            perm = _extend(nbrs, adj, labels, *_individualized(nbrs, a, b, x, y))
            if perm is not None:
                return perm
    return None


def automorphism_orbits(g: Graph, labels: Sequence[Hashable] | None = None) -> tuple[tuple[int, ...], ...]:
    """Orbits of the automorphisms preserving edges and the node labels.

    Same result as ``orbits(g.n, automorphisms(g, labels))``, from a
    generating set instead of the whole group (the individualization and
    refinement scheme of nauty/Traces). The coloring is refined to the
    coarsest equitable partition; then each node v is matched against one
    representative u < v of every earlier orbit in its refined cell, by a
    backtracking search for one automorphism with u -> v (``_extend``).
    Earlier orbits are complete by then, so one success settles v. The
    automorphisms found are merged by ``orbits``, so the work follows the
    number of orbits and of nodes, not the order of the group; with the
    early leaf of ``_extend``, star:n and K_{a,b} take one individualization
    per node. Every automorphism returned has been checked against every
    edge and label. Labels need only be hashable.
    """
    if labels is None:
        labels = ("*",) * g.n
    if len(labels) != g.n:
        raise ValueError("labels must name every node")
    nbrs = [[k - 1 for k in block] for block in g.neighbors]
    adj = [set(nb) for nb in nbrs]
    index: dict = {}
    colors = _refine(nbrs, [[index.setdefault(label, len(index)) for label in labels]])[0]
    gens: list[tuple[int, ...]] = []
    rep = list(range(g.n))  # smallest member of each node's orbit so far
    for v in range(g.n):
        if rep[v] != v:
            continue
        for u in range(v):
            if rep[u] != u or colors[u] != colors[v]:
                continue
            perm = _extend(nbrs, adj, labels, *_individualized(nbrs, colors, colors, u, v))
            if perm is not None:
                gens.append(tuple(k + 1 for k in perm))
                for orb in orbits(g.n, gens):
                    for j in orb:
                        rep[j - 1] = orb[0] - 1
                break
    return orbits(g.n, gens)


def is_chain(g: Graph) -> bool:
    """True when g is exactly the path 1-2-...-n."""
    return g.edges == tuple((j, j + 1) for j in range(1, g.n))
