"""Graph families, balls, automorphisms, and the JSON format."""

import itertools
import json
import math
import random
from collections import Counter

import pytest

from graphlhv import chain_protocol, graphs, lhv, nogo, oracle
from graphlhv.graphs import (
    CLOCKWISE_2X3,
    Graph,
    GraphFormatError,
    UnsupportedSizeError,
    automorphism_orbits,
    automorphisms,
    ball,
    ball_masks,
    chain,
    complete_bipartite,
    graph_from_json,
    grid,
    is_chain,
    named_graph,
    orbits,
    padded_ring,
    ring,
    star,
)
from graphlhv.pauli import Measurement
from reference import ball as reference_ball, diameter, relabel


def test_ring_shape():
    g = ring(12)
    assert g.n == 12
    assert len(g.edges) == 12
    assert all(g.degree(j) == 2 for j in range(1, 13))


def test_ring_triangle():
    assert set(ring(3).edges) == {(1, 2), (2, 3), (1, 3)}


def test_ring_24_connected():
    g = ring(24)
    assert all(g.degree(j) == 2 for j in range(1, 25))
    assert ball(g, 1, g.n) == frozenset(range(1, 25))


def test_ring_too_small():
    with pytest.raises(ValueError):
        ring(2)


def test_chain_star_shapes():
    assert chain(5).edges == ((1, 2), (2, 3), (3, 4), (4, 5))
    assert sorted(star(4).degree(j) for j in range(1, 5)) == [1, 1, 1, 3]


def test_grid_row_major():
    g = grid(2, 3)
    assert set(g.edges) == {(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)}


def test_grid_clockwise_relabeling_matches_boundary_cycle():
    g = relabel(grid(2, 3), CLOCKWISE_2X3)
    assert set(g.edges) == {(1, 2), (2, 3), (1, 6), (2, 5), (3, 4), (4, 5), (5, 6)}


def test_padded_ring():
    g = padded_ring(14)
    assert g.n == 14
    assert g.degree(13) == 0 and g.degree(14) == 0
    assert all(g.degree(j) == 2 for j in range(1, 13))
    assert padded_ring(12).edges == ring(12).edges
    assert padded_ring(36).edges == ring(36).edges
    with pytest.raises(ValueError):
        padded_ring(11)


def test_complete_bipartite():
    g = complete_bipartite(2, 3)
    assert g.n == 5
    assert len(g.edges) == 6
    assert g.neighborhood(1) == (3, 4, 5)


def test_graph_validation():
    with pytest.raises(GraphFormatError):
        Graph(3, ((1, 1),))
    with pytest.raises(GraphFormatError):
        Graph(3, ((1, 4),))
    with pytest.raises(GraphFormatError):
        Graph(3, ((1, 2), (2, 1)))  # reversed duplicate
    with pytest.raises(GraphFormatError):
        Graph(2, ((1, 2), (1, 2)))
    for pair in ((1, 2, 3), 5):
        with pytest.raises(GraphFormatError, match="is not a node pair"):
            Graph(3, (pair,))


def test_relabel_refuses_a_non_bijection():
    for mapping in ({1: 1, 2: 1, 3: 3}, {1: 1, 2: 2}, {1: 2, 2: 3, 3: 4}):
        with pytest.raises(ValueError, match="bijection"):
            relabel(chain(3), mapping)


# Every entry point that takes a graph and a measurement word refuses a word of
# the wrong length through `Graph.check_measurement`, with one message.
@pytest.mark.parametrize(
    "call",
    [
        lambda g, m: oracle.classify(g, m),
        lambda g, m: oracle.statevector_verdict(g, m),
        lambda g, m: lhv.communication_round(g, m),
        lambda g, m: lhv.product_report(g, m),
        lambda g, m: chain_protocol.ChainBroadcast().flip_sites(g, m),
        lambda g, m: lhv.run(g, m, (1, 1, 1, 1), chain_protocol.ChainBroadcast()),
        lambda g, m: nogo._signed_kernel(g, m),
        lambda g, m: nogo.site_invariance_system(g, m, ()),
        lambda g, m: nogo.measurement_view(g, m, 1, 1),
    ],
    ids=["classify", "statevector_verdict", "communication_round", "product_report",
         "flip_decision", "run_chain_protocol", "signed_kernel", "site_invariance_system",
         "measurement_view"],
)
@pytest.mark.parametrize("letters", ["XXX", "XXXXX"], ids=["short", "long"])
def test_measurement_length_is_checked_once(call, letters):
    g = chain(4)
    with pytest.raises(ValueError, match=rf"^measurement length {len(letters)} does not match n=4$"):
        call(g, Measurement(letters))
    g.check_measurement(Measurement("XXXX"))


def test_neighborhood_symmetry_over_families():
    rng = random.Random(7)
    graphs = [ring(rng.randrange(3, 15)) for _ in range(3)]
    graphs += [chain(rng.randrange(1, 15)), star(rng.randrange(1, 15))]
    graphs += [grid(rng.randrange(1, 5), rng.randrange(1, 5)) for _ in range(3)]
    graphs += [padded_ring(rng.randrange(12, 60)), complete_bipartite(2, 3)]
    for g in graphs:
        for j in range(1, g.n + 1):
            assert j not in g.neighborhood(j)
            for k in g.neighborhood(j):
                assert j in g.neighborhood(k)


def test_ball_examples():
    g = ring(12)
    assert ball(g, 1, 1) == frozenset({12, 1, 2})
    assert ball(g, 1, 0) == frozenset({1})
    assert ball(padded_ring(14), 13, 5) == frozenset({13})


def test_ball_at_diameter_is_component():
    for g in (ring(7), chain(5), grid(3, 3), padded_ring(14)):
        d = diameter(g)
        for j in range(1, g.n + 1):
            assert ball(g, j, d) == ball(g, j, g.n)


def _mask(nodes):
    return sum(1 << (k - 1) for k in nodes)


def test_ball_masks_match_ball_on_random_graphs():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def graphs(draw):
        # sparse edge draws leave isolated nodes and several components
        n = draw(st.integers(1, 12))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, tuple(p for p, k in zip(pairs, keep) if k == 0))
        return g, draw(st.integers(0, n + 1))

    @settings(max_examples=300, deadline=None)
    @given(graphs())
    def check(instance):
        g, d = instance
        masks = ball_masks(g, d)
        assert masks == tuple(_mask(reference_ball(g, j, d)) for j in range(1, g.n + 1))

    check()


def test_ball_masks_on_padded_ring_and_negative_distance():
    g = padded_ring(38)
    for d in (0, 1, 5, 12, 13, 37, 10**11):
        assert ball_masks(g, d) == tuple(_mask(reference_ball(g, j, d)) for j in range(1, g.n + 1))
    for d in (-1, -5):
        with pytest.raises(ValueError):
            ball(g, 1, d)
        with pytest.raises(ValueError):
            ball_masks(g, d)


def test_set_bit_listers_match_a_per_bit_reference():
    rng = random.Random(28)
    masks = [0, 1, 2, 1 << 64, (1 << 64) - 1]
    masks += [rng.getrandbits(rng.randint(1, 300)) for _ in range(200)]
    masks.append(rng.getrandbits(20_000) | 1 << 19_999 | 1)
    for mask in masks:
        reference = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        assert graphs._bit_indices(mask) == reference
        assert graphs._sites(mask) == tuple(i + 1 for i in reference)


def _brute_force_automorphisms(g, labels=None):
    labels = labels or ("*",) * g.n
    edge_set = {frozenset(e) for e in g.edges}
    out = []
    for perm in itertools.permutations(range(1, g.n + 1)):
        if any(labels[perm[j] - 1] != labels[j] for j in range(g.n)):
            continue
        if {frozenset((perm[u - 1], perm[v - 1])) for u, v in g.edges} == edge_set:
            out.append(perm)
    return sorted(out)


def test_automorphisms_grid_2x3():
    g = grid(2, 3)
    auts = automorphisms(g)
    assert len(auts) == 4
    assert auts == _brute_force_automorphisms(g)
    assert orbits(6, auts) == ((1, 3, 4, 6), (2, 5))


def test_automorphisms_chain3():
    auts = automorphisms(chain(3))
    assert len(auts) == 2
    assert auts == _brute_force_automorphisms(chain(3))


def test_automorphisms_match_brute_force_small():
    for g in (ring(5), star(4), complete_bipartite(2, 2), chain(4)):
        assert automorphisms(g) == _brute_force_automorphisms(g)


def test_automorphisms_respect_coloring():
    g = chain(3)
    auts = automorphisms(g, ("a", "b", "c"))
    assert auts == [(1, 2, 3)]
    auts = automorphisms(g, ("a", "b", "a"))
    assert len(auts) == 2


def test_automorphism_group_closure():
    for g in (grid(2, 3), ring(6), star(5)):
        auts = set(automorphisms(g))
        ident = tuple(range(1, g.n + 1))
        assert ident in auts
        for p in auts:
            inv = [0] * g.n
            for j, img in enumerate(p, start=1):
                inv[img - 1] = j
            assert tuple(inv) in auts
            for q in auts:
                comp = tuple(q[p[j] - 1] for j in range(g.n))
                assert comp in auts


def test_automorphism_guard():
    with pytest.raises(UnsupportedSizeError, match="guarded at 12 nodes, got 13"):
        automorphisms(ring(13))
    for labels in ("XY", "XYZZ"):
        with pytest.raises(ValueError, match="labels must name every node"):
            automorphisms(chain(3), labels)


def _enumerated_orbits(g, labels):
    return orbits(g.n, automorphisms(g, labels))


# The reference enumeration lists the whole group; 7! permutations take a few
# tens of milliseconds, 9! (edgeless or complete, one letter) several seconds.
_ENUMERATION_CAP = 5040


def _group_order_bound(g, labels):
    """Product of |class|! over the (label, degree) classes: automorphisms keep
    both, so this bounds the order of the group."""
    classes = Counter((labels[j - 1], g.degree(j)) for j in range(1, g.n + 1))
    return math.prod(math.factorial(k) for k in classes.values())


def test_orbit_search_matches_enumeration_on_random_graphs():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st

    @st.composite
    def colored_graphs(draw):
        n = draw(st.integers(1, 9))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        letters = draw(st.text(alphabet="XYZ", min_size=n, max_size=n))
        return Graph(n, tuple(p for p, k in zip(pairs, keep) if k)), tuple(letters)

    @settings(max_examples=100, deadline=None)
    @given(colored_graphs())
    def check(case):
        g, labels = case
        # larger groups (edgeless, complete, star) are fixed cases
        assume(_group_order_bound(g, labels) <= _ENUMERATION_CAP)
        assert automorphism_orbits(g, labels) == _enumerated_orbits(g, labels)

    check()


_K9 = Graph(9, tuple(itertools.combinations(range(1, 10), 2)))


# Edgeless, complete and one-edge have groups past the cap, so only these fixed
# cases (and star9 above) cover them; the others split the same graphs by letter.
@pytest.mark.parametrize(
    "g, letters, expected",
    [
        (Graph(9, ()), "X" * 9, (tuple(range(1, 10)),)),
        (_K9, "Y" * 9, (tuple(range(1, 10)),)),
        (Graph(9, ()), "XYZXYZXYZ", ((1, 4, 7), (2, 5, 8), (3, 6, 9))),
        (_K9, "ZZZZZXXXX", ((1, 2, 3, 4, 5), (6, 7, 8, 9))),
        (Graph(9, ((1, 2),)), "X" * 9, ((1, 2), tuple(range(3, 10)))),
    ],
    ids=["edgeless", "complete", "edgeless-3letters", "complete-2letters", "one-edge"],
)
def test_orbit_search_on_symmetric_graphs_with_known_orbits(g, letters, expected):
    assert automorphism_orbits(g, letters) == expected


def _disjoint_stars(copies, size):
    """``copies`` stars of ``size`` nodes each, star i centred at node 1 + i*size."""
    return Graph(copies * size, tuple(
        (1 + i * size, j + i * size) for i in range(copies) for j in range(2, size + 1)))


def _cocktail_party(m):
    """K_{2m} minus the perfect matching {1, 2}, {3, 4}, ..."""
    n = 2 * m
    return Graph(n, tuple((u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
                          if not (u % 2 and v == u + 1)))


# Families whose groups are far past the enumeration cap, with their orbits
# known in closed form: centre and leaves, the two parts (one orbit when equal),
# centres and leaves of equal stars, and every node of the cocktail party graph.
_SYMMETRIC_FAMILIES = [
    (star(12), ((1,), tuple(range(2, 13)))),
    (star(40), ((1,), tuple(range(2, 41)))),
    (complete_bipartite(5, 10), (tuple(range(1, 6)), tuple(range(6, 16)))),
    (complete_bipartite(15, 20), (tuple(range(1, 16)), tuple(range(16, 36)))),
    (complete_bipartite(10, 10), (tuple(range(1, 21)),)),
    (complete_bipartite(20, 20), (tuple(range(1, 41)),)),
    (_disjoint_stars(3, 4), ((1, 5, 9), (2, 3, 4, 6, 7, 8, 10, 11, 12))),
    (_disjoint_stars(5, 8), (tuple(range(1, 41, 8)),
                             tuple(j for j in range(1, 41) if j % 8 != 1))),
    (_cocktail_party(6), (tuple(range(1, 13)),)),
    (_cocktail_party(20), (tuple(range(1, 41)),)),
]


@pytest.mark.parametrize("g, expected", _SYMMETRIC_FAMILIES,
                         ids=["star12", "star40", "K5,10", "K15,20", "K10,10", "K20,20",
                              "3stars4", "5stars8", "cocktail12", "cocktail40"])
def test_orbit_search_on_symmetric_families_past_the_cap(g, expected):
    assert _group_order_bound(g, ("X",) * g.n) > _ENUMERATION_CAP
    assert automorphism_orbits(g, ("X",) * g.n) == expected


def _individualized_calls(monkeypatch, g):
    calls = []
    real = graphs._individualized

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(graphs, "_individualized", counting)
    automorphism_orbits(g, ("X",) * g.n)
    return len(calls)


@pytest.mark.parametrize("build", [
    star,
    lambda n: complete_bipartite(n // 4, n - n // 4),
    lambda n: complete_bipartite(n // 2, n - n // 2),
], ids=["star", "K_{n/4,3n/4}", "K_{n/2,n/2}"])
def test_orbit_search_work_grows_linearly(monkeypatch, build):
    # The work of the search, counted without timing it: every node after the
    # first of its orbit costs one individualization, because the early leaf
    # maps the nodes that individualization left alone to themselves. Walking
    # each pair search down the leaf cell instead costs about n^2 of them.
    for n in (8, 16, 24, 32, 40):
        assert _individualized_calls(monkeypatch, build(n)) <= n - 2


# Every fixed graph of at most 10 nodes that the suite builds elsewhere; the last
# is the eight-mismatch instance of test_kernel_sweep.py.
_SUITE_GRAPHS = [
    chain(2), chain(3), chain(4), chain(5), chain(6), chain(10), ring(3), ring(4), ring(5),
    ring(6), ring(7), ring(9), star(3), star(4), star(5), grid(2, 2), grid(2, 3), grid(3, 3),
    complete_bipartite(2, 2), complete_bipartite(2, 3), relabel(grid(2, 3), CLOCKWISE_2X3),
    Graph(8, ((2, 3), (2, 6), (2, 7), (3, 5), (3, 6), (4, 7), (4, 8),
              (5, 6), (5, 7), (5, 8), (7, 8))),
]


@pytest.mark.parametrize("g", _SUITE_GRAPHS, ids=lambda g: f"n{g.n}e{len(g.edges)}")
def test_orbit_search_matches_enumeration_on_suite_graphs(g):
    for labels in (("*",) * g.n, tuple("XYZ"[j % 3] for j in range(g.n)),
                   tuple("XY"[(j * j) % 5 < 2] for j in range(g.n))):
        assert automorphism_orbits(g, labels) == _enumerated_orbits(g, labels)
    assert automorphism_orbits(g) == orbits(g.n, automorphisms(g))


@pytest.mark.parametrize(
    "g, letter",
    [(star(9), "X"), (star(8), "X"), (grid(2, 3), "Y"), (grid(3, 4), "Y"), (grid(2, 6), "Y"),
     (ring(12), "Y"), (ring(10), "X"), (complete_bipartite(4, 4), "X"),
     (complete_bipartite(3, 5), "X")],
    ids=["star9", "star8", "grid2x3", "grid3x4", "grid2x6", "ring12", "ring10", "K44", "K35"],
)
def test_orbit_search_matches_enumeration_on_certify_site_graphs(g, letter):
    labels = (letter,) * g.n
    assert automorphism_orbits(g, labels) == _enumerated_orbits(g, labels)


def _frucht():
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = {tuple(sorted((j, (j + 1) % 12))) for j in range(12)}
    edges |= {tuple(sorted((j, (j + s) % 12))) for j, s in enumerate(lcf)}
    return Graph(12, tuple((u + 1, v + 1) for u, v in edges))


def test_orbit_search_is_exact_where_refinement_splits_nothing():
    # Both graphs are regular, so 1-WL leaves one cell; only the search tells.
    frucht = _frucht()
    assert len(frucht.edges) == 18 and {frucht.degree(j) for j in range(1, 13)} == {3}
    assert automorphism_orbits(frucht) == tuple((j,) for j in range(1, 13))
    assert automorphisms(frucht) == [tuple(range(1, 13))]

    hexagon_and_triangles = Graph(12, tuple((j, j % 6 + 1) for j in range(1, 7)) + (
        (7, 8), (8, 9), (7, 9), (10, 11), (11, 12), (10, 12)))
    assert automorphism_orbits(hexagon_and_triangles) == (tuple(range(1, 7)), tuple(range(7, 13)))
    assert automorphism_orbits(hexagon_and_triangles) == orbits(12, automorphisms(hexagon_and_triangles))


def test_orbit_search_backtracks_past_dead_candidates():
    # Two triangles and a pentagon, numbered so that after mapping one triangle
    # onto the other the first candidate tried for the next cell is on the
    # pentagon: refinement cannot tell 2-regular components apart.
    g = Graph(11, ((1, 2), (1, 9), (2, 9), (3, 10), (3, 11), (4, 6), (4, 11), (5, 7), (5, 8),
                   (6, 10), (7, 8)))
    assert automorphism_orbits(g) == ((1, 2, 5, 7, 8, 9), (3, 4, 6, 10, 11))
    assert automorphism_orbits(g) == orbits(11, automorphisms(g))


def test_extension_fails_when_every_candidate_fails():
    # C6 and two triangles: colouring the hexagon 0 and the triangles 1 on one
    # side and the other way round on the other gives two equitable colourings
    # with equal colour counts, yet no automorphism swaps the components, so
    # every candidate of the first branch dies and the search returns None.
    g = Graph(12, tuple((j, j % 6 + 1) for j in range(1, 7)) + (
        (7, 8), (8, 9), (7, 9), (10, 11), (11, 12), (10, 12)))
    nbrs = [[k - 1 for k in block] for block in g.neighbors]
    adj = [set(nb) for nb in nbrs]
    labels = ("*",) * g.n
    hexagon_first = [0] * 6 + [1] * 6
    triangles_first = [1] * 6 + [0] * 6
    a, b = graphs._refine(nbrs, [hexagon_first, triangles_first])
    assert sorted(a) == sorted(b) and len(set(a)) > 1
    assert graphs._extend(nbrs, adj, labels, a, b) is None

    a, b = graphs._refine(nbrs, [hexagon_first, hexagon_first])
    perm = graphs._extend(nbrs, adj, labels, a, b)
    assert sorted(perm) == list(range(g.n))
    assert all(perm[k] in adj[perm[j]] for j, nb in enumerate(nbrs) for k in nb)
    assert [hexagon_first[p] for p in perm] == hexagon_first


def test_a_discrete_leaf_that_is_no_automorphism_raises():
    # _extend trusts joint refinement at a discrete leaf: colorings whose color
    # bijection breaks an edge there are a bug, not a dead end
    g = chain(3)
    nbrs = [[k - 1 for k in block] for block in g.neighbors]
    adj = [set(nb) for nb in nbrs]
    with pytest.raises(RuntimeError, match="^refined leaf is not an automorphism$"):
        graphs._extend(nbrs, adj, ("*",) * 3, [0, 1, 2], [1, 0, 2])
    assert graphs._extend(nbrs, adj, ("*",) * 3, [0, 1, 2], [2, 1, 0]) == [2, 1, 0]


def test_orbit_search_accepts_unorderable_labels():
    g = chain(3)
    assert automorphism_orbits(g, (1, "a", 1)) == ((1, 3), (2,))
    assert automorphism_orbits(g, (None, "a", 1)) == ((1,), (2,), (3,))
    with pytest.raises(ValueError):
        automorphism_orbits(g, ("a", "b"))


def test_json_round_trip():
    g = grid(2, 3)
    assert graph_from_json(g.to_json()).edges == g.edges


def test_json_rejects_reversed_duplicates_and_bad_shapes():
    with pytest.raises(GraphFormatError):
        graph_from_json('{"n": 2, "edges": [[1, 2], [2, 1]]}')
    with pytest.raises(GraphFormatError):
        graph_from_json('[1, 2]')
    err = None
    try:
        graph_from_json('{"n": 2,\n "edges": [[1, 2],]}')
    except GraphFormatError as exc:
        err = str(exc)
    assert err is not None and "line" in err


@pytest.mark.parametrize(
    "text",
    ['{"n": 2, "edges": [[1.0, 2.0]]}', '{"n": 2, "edges": [[1, "2"]]}',
     '{"n": 2, "edges": [[true, 2]]}', '{"n": true, "edges": []}', '{"n": 2.0, "edges": []}',
     '{"n": 2, "edges": 5}', '{"n": 2, "edges": [5]}', '{"n": 2, "edges": null}'],
)
def test_json_rejects_non_integer_values_and_non_list_edges(text):
    with pytest.raises(GraphFormatError):
        graph_from_json(text)


def test_named_graph_specs():
    assert named_graph("ring:12").edges == ring(12).edges
    assert named_graph("grid:2x3").edges == grid(2, 3).edges
    assert named_graph("padded-ring:14").edges == padded_ring(14).edges
    assert named_graph("complete-bipartite:2x3").edges == complete_bipartite(2, 3).edges
    with pytest.raises(GraphFormatError):
        named_graph("torus:3")
    with pytest.raises(GraphFormatError):
        named_graph("grid:23")


def test_is_chain():
    assert is_chain(chain(4))
    assert is_chain(chain(1))
    assert not is_chain(ring(4))
    assert not is_chain(star(4))
    assert not is_chain(Graph(3, ((1, 3), (2, 3))))  # a path, but not 1-2-3
    assert not is_chain(Graph(4, chain(4).edges + ((1, 3),)))
