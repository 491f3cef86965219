"""Independent references that only the tests use.

Each one recomputes, by a different route, something the library computes
in production, so that tests can compare the two.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from graphlhv.chain_protocol import Sentence
from graphlhv.graphs import Graph
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
