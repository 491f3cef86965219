"""Independent references that only the tests use.

Each one recomputes, by a different route, something the library computes
in production, so that tests can compare the two.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence

from graphlhv.chain_protocol import Sentence
from graphlhv.graphs import Graph, _bit_indices, automorphism_orbits, ball_masks
from graphlhv.nogo import (
    CertainSubmeasurement,
    ContextVariable,
    Equation,
    OrbitVariable,
    ParityConstraintSystem,
)
from graphlhv.pauli import Measurement


def gf2_nullspace(rows: Sequence[int], ncols: int) -> list[int]:
    """Basis of {x : every row . x = 0 mod 2}, rows and vectors as bitmasks."""
    reduced: list[tuple[int, int]] = []  # (pivot, mask)
    for mask in rows:
        for pivot, pmask in reduced:
            if (mask >> pivot) & 1:
                mask ^= pmask
        if mask == 0:
            continue
        pivot = (mask & -mask).bit_length() - 1
        reduced = [
            (p, pm ^ mask if (pm >> pivot) & 1 else pm) for p, pm in reduced
        ]
        reduced.append((pivot, mask))
    pivot_cols = {p for p, _ in reduced}
    basis = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        vec = 1 << free
        for pivot, pmask in reduced:
            if (pmask >> free) & 1:
                vec |= 1 << pivot
        basis.append(vec)
    return basis


def relabel(g: Graph, mapping: Mapping[int, int]) -> Graph:
    """Apply a node bijection to a graph."""
    if sorted(mapping) != list(range(1, g.n + 1)) or sorted(mapping.values()) != list(range(1, g.n + 1)):
        raise ValueError("mapping must be a bijection on 1..n")
    return Graph(g.n, tuple((mapping[u], mapping[v]) for u, v in g.edges))


def local_complement(g: Graph, v: int) -> Graph:
    """tau_v(G), the local complement at v: every edge between two neighbours
    of v is toggled, and every other edge stays."""
    g.check_node(v)
    return Graph(g.n, tuple(set(g.edges) ^ set(combinations(g.neighbors[v - 1], 2))))


def communication_counts(g: Graph, m: Measurement) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The message round neighbour by neighbour: c_j is 1 when site j measures
    X or Y, and t_j sums c over j's neighbourhood, mod 4."""
    c = tuple(1 if ch in "XY" else 0 for ch in m.letters)
    t = tuple(sum(c[k - 1] for k in g.neighborhood(j)) % 4 for j in range(1, g.n + 1))
    return c, t


def diameter(g: Graph) -> int:
    """Largest eccentricity over all nodes, taken within each component."""
    best = 0
    for j in range(1, g.n + 1):
        seen = {j}
        frontier = [j]
        depth = 0
        while True:
            nxt = [k for u in frontier for k in g.neighborhood(u) if k not in seen]
            if not nxt:
                break
            seen.update(nxt)
            frontier = nxt
            depth += 1
        best = max(best, depth)
    return best


def ball(g: Graph, j: int, d: int) -> frozenset[int]:
    """Nodes reachable from j along at most d edges, including j itself, by a
    breadth-first search from j alone, against which ``ball_masks`` and the
    views built from it are checked."""
    g.check_node(j)
    if d < 0:
        raise ValueError(f"distance must be non-negative, got {d}")
    nbrs = g.neighbors  # every node reached is in range once j is
    seen = {j}
    frontier = [j]
    for _ in range(d):
        nxt = [k for u in frontier for k in nbrs[u - 1] if k not in seen]
        if not nxt:
            break
        seen.update(nxt)
        frontier = nxt
    return frozenset(seen)


def letter_at(sentence: Sentence, p: int) -> str:
    """Letter of the sentence at position p in [left, right]."""
    if not (sentence.left <= p <= sentence.right):
        raise ValueError(
            f"position {p} outside sentence span [{sentence.left}, {sentence.right}]"
        )
    if p == sentence.left or p == sentence.right:
        return "Z"
    for w in sentence.words:
        if w.start <= p <= w.end:
            return w.letters[p - w.start]
    return "I"


def edge_loop_state(g: Graph):
    """The scaled graph-state vector with one pass over the index array per
    edge: amplitude i is -1 to the number of edges with both ends set in i."""
    import numpy as np

    idx = np.arange(1 << g.n)
    odd = np.zeros_like(idx)
    for u, v in g.edges:
        odd ^= (idx >> (u - 1)) & (idx >> (v - 1)) & 1
    return (1 - 2 * odd).astype(np.int8)


def view_keyed_system(
    g: Graph, cases: Sequence[CertainSubmeasurement], d: int
) -> ParityConstraintSystem:
    """The distance system by its own loop over (case, site) view keys, on
    cases already checked against g."""
    all_masks = ball_masks(g, d)
    sites = sorted(set().union(*(case.sub.support() for case in cases)))
    masks = {j: all_masks[j - 1] for j in sites}
    views = {j: _pairs_at(_bit_indices(mask)) for j, mask in masks.items()}
    index: dict[tuple, int] = {}  # (site, view's x bits, view's z bits) -> variable position
    variables = []
    equations = []
    for case in cases:
        word = case.global_measurement.letters
        x, z = case.global_measurement.bits()
        pairs = tuple(enumerate(word, start=1))  # (node, letter) at index node - 1
        # sites in decimal-string order (1, 10, 2, ...): the published variable order
        row = 0
        for j in sorted(case.sub.support(), key=str):
            key = (j, x & masks[j], z & masks[j])
            i = index.get(key)
            if i is None:
                i = index[key] = len(variables)
                variables.append(ContextVariable(j, word[j - 1].lower(), views[j](pairs)))
            row |= 1 << i
        equations.append(Equation(row, case.expected_sign, case.name))
    return ParityConstraintSystem(tuple(variables), tuple(equations))


def _pairs_at(indices: Sequence[int]) -> Callable[[tuple], tuple]:
    """Picks the entries at the given indices out of a tuple, as a tuple."""
    if len(indices) == 1:  # itemgetter of one index returns the bare entry
        i = indices[0]
        return lambda pairs: (pairs[i],)
    return itemgetter(*indices)


def orbit_keyed_system(
    g: Graph, global_m: Measurement, certain_subs: Sequence[tuple[Iterable[int], int]]
) -> ParityConstraintSystem:
    """The site-invariance system by its own loop over orbit bits."""
    g.check_measurement(global_m)
    orbs = automorphism_orbits(g, global_m.letters)
    orbit_bit: dict[int, int] = {}
    declared = []
    for orb in orbs:
        letter = global_m.letter(orb[0])
        if letter == "I":
            continue
        for j in orb:
            orbit_bit[j] = 1 << len(declared)
        declared.append(OrbitVariable(orb, letter.lower()))
    equations = []
    for k, (support, sign) in enumerate(certain_subs):
        sites = sorted(set(support))
        row = 0
        for j in sites:
            g.check_node(j)
            if global_m.letter(j) == "I":
                raise ValueError(f"support site {j} is unmeasured in the global measurement")
            row ^= orbit_bit[j]  # two sites of one orbit cancel
        equations.append(Equation(row, sign, f"sub{k}:{sites}"))
    return ParityConstraintSystem(tuple(declared), tuple(equations))
