"""Hidden-variable protocol: rules, exactness of verdicts, global correctness."""

import itertools
import random

import numpy as np
import pytest

from graphlhv import lhv
from graphlhv.graphs import Graph, chain, complete_bipartite, grid, padded_ring, ring, star
from graphlhv.lhv import (
    NO_COMMUNICATION,
    STANDARD_RULES,
    SYMMETRIC_RULES,
    FlipRules,
    all_assignments,
    communication_round,
    derive_xy,
    product_report,
    run,
)
from graphlhv.oracle import Verdict, classify
from graphlhv.pauli import Measurement, generator

SMALL_SUITE = [ring(3), ring(4), chain(2), chain(3), star(3), star(4), grid(2, 2)]


def _all_measurements(n):
    for letters in itertools.product("IXYZ", repeat=n):
        yield Measurement("".join(letters))


def test_derive_xy_all_plus():
    g = ring(5)
    xs, ys = derive_xy(g, [1] * 5)
    assert xs == (1,) * 5 and ys == (1,) * 5


def test_derive_xy_triangle():
    xs, ys = derive_xy(ring(3), (-1, 1, 1))
    assert xs == (1, -1, -1)
    assert ys == (-1, -1, -1)


def test_derive_xy_isolated_node():
    g = padded_ring(14)
    z = [1] * 14
    z[12] = -1  # node 13 is isolated
    xs, ys = derive_xy(g, z)
    assert xs[12] == 1  # empty product
    assert ys[12] == -1


def test_communication_round_all_identity():
    g = ring(6)
    comm = communication_round(g, Measurement("I" * 6))
    assert comm.c == (0,) * 6 and comm.t == (0,) * 6


def test_communication_round_star4_all_x():
    comm = communication_round(star(4), Measurement("XXXX"))
    assert comm.t[0] == 3
    assert comm.t[1:] == (1, 1, 1)


def test_communication_round_ring_pattern():
    g = ring(12)
    letters = "".join("Y" if j % 2 == 1 else ("Y" if j in {4, 8, 12} else "X") for j in range(1, 13))
    comm = communication_round(g, Measurement(letters))
    for j in range(1, 13, 2):
        assert comm.t[j - 1] == 2


def test_local_output_rule_table():
    # (graph, word, site j, t_j, coins, j flips under the standard rules, j's output)
    cases = [
        (chain(1), "Z", 1, 0, (-1,), False, -1),
        (chain(3), "YXY", 2, 2, (1, 1, 1), True, -1),
        (chain(2), "XX", 1, 1, (1, 1), False, 1),
        (chain(1), "Y", 1, 0, (1,), True, -1),
        (chain(2), "YX", 1, 1, (1, 1), False, 1),
        (chain(3), "XYX", 2, 2, (1, 1, 1), False, 1),
        (star(4), "IXXX", 1, 3, (-1, -1, -1, -1), False, 1),
    ]
    for g, letters, j, t, z, flips, out in cases:
        m = Measurement(letters)
        assert communication_round(g, m).t[j - 1] == t
        assert (j in STANDARD_RULES.flip_sites(g, m)) == flips
        assert run(g, m, z).v[j - 1] == out


def test_run_generator_always_plus_one():
    for g in SMALL_SUITE:
        for j in range(1, g.n + 1):
            m = Measurement(generator(g, j).letters)
            for z in all_assignments(g.n):
                out = run(g, m, z)
                assert out.product_over(m.support()) == 1


def test_run_chain3_yxy_always_minus_one():
    g = chain(3)
    m = Measurement("YXY")
    for z in all_assignments(3):
        assert run(g, m, z).product_over((1, 2, 3)) == -1


def test_run_all_identity():
    g = ring(4)
    for z in all_assignments(4):
        assert run(g, Measurement("IIII"), z).v == (1, 1, 1, 1)


def test_unmeasured_sites_output_plus_one():
    g = ring(5)
    m = Measurement("XIZIY")
    for z in all_assignments(5):
        out = run(g, m, z)
        assert out.v[1] == 1 and out.v[3] == 1


def test_product_verdict_full_support_matches_classify():
    for g in SMALL_SUITE:
        for m in _all_measurements(g.n):
            assert product_report(g, m).verdict == classify(g, m)


def test_symmetric_rules_also_globally_correct():
    for g in SMALL_SUITE:
        for m in _all_measurements(g.n):
            assert product_report(g, m, protocol=SYMMETRIC_RULES).verdict == classify(g, m)


def test_breaking_a_forced_rule_bit_fails_globally():
    # X sites always see an even t on a stabilizer word; flipping at t=0
    # breaks the generators themselves.
    broken = FlipRules("broken", frozenset({0, 3}), frozenset({0, 3}))
    failures = 0
    for g in SMALL_SUITE:
        for m in _all_measurements(g.n):
            if product_report(g, m, protocol=broken).verdict != classify(g, m):
                failures += 1
    assert failures > 0


def test_grid_2x3_submeasurement_mismatch():
    g = grid(2, 3)
    m = Measurement("YYYYYY")
    assert product_report(g, m, {1, 2, 3, 5}).verdict == Verdict.deterministic(1)
    assert classify(g, Measurement("YYYIYI")) == Verdict.deterministic(-1)


def test_empty_subset():
    assert product_report(ring(4), Measurement("XXXX"), ()).verdict == Verdict.deterministic(1)


def test_exact_verdict_matches_brute_force():
    rng = random.Random(17)
    graphs = [ring(5), chain(4), star(5), grid(2, 3), complete_bipartite(2, 3)]
    for g in graphs:
        for _ in range(40):
            m = Measurement("".join(rng.choice("IXYZ") for _ in range(g.n)))
            support = m.support()
            k = rng.randrange(len(support) + 1)
            subset = tuple(sorted(rng.sample(support, k)))
            values = {
                run(g, m, z).product_over(subset) for z in all_assignments(g.n)
            }
            expected = (
                Verdict.deterministic(values.pop()) if len(values) == 1 else Verdict.uniform()
            )
            assert product_report(g, m, subset).verdict == expected


def test_uniform_subsets_are_balanced():
    # a uniform verdict means an exact 50/50 split over hidden assignments
    g = ring(4)
    m = Measurement("XZYX")
    for k in range(1, 5):
        for subset in itertools.combinations(m.support(), k):
            products = [run(g, m, z).product_over(subset) for z in all_assignments(4)]
            if product_report(g, m, subset).verdict == Verdict.uniform():
                assert products.count(1) == products.count(-1)


def test_no_communication_baseline_plus_one_on_stabilizer_words():
    from graphlhv.oracle import enumerate_stabilizer_measurements

    for g in (chain(3), ring(4), star(4)):
        for m, _sign in enumerate_stabilizer_measurements(g):
            report = product_report(g, m, protocol=NO_COMMUNICATION)
            assert report.verdict == Verdict.deterministic(1)
            for z in all_assignments(g.n):
                assert run(g, m, z, NO_COMMUNICATION).product_over(m.support()) == 1


def test_flips_depend_only_on_graph_and_measurement():
    g = grid(2, 3)
    m = Measurement("YYYYYY")
    assert STANDARD_RULES.flip_sites(g, m) == frozenset({2, 5})
    assert STANDARD_RULES.flip_sites(g, Measurement("YYYIYI")) == frozenset({2})


def test_subset_expectations_determine_joint_distribution():
    # reconstruct the joint output distribution from subset verdicts alone
    g = chain(3)
    for m in (Measurement("YXY"), Measurement("XZY"), Measurement("ZZZ")):
        support = m.support()
        outcomes = {}
        for z in all_assignments(3):
            key = tuple(run(g, m, z).v[j - 1] for j in support)
            outcomes[key] = outcomes.get(key, 0) + 1
        total = 2 ** 3
        for key in itertools.product((1, -1), repeat=len(support)):
            p = 0.0
            for r in range(len(support) + 1):
                for subset_idx in itertools.combinations(range(len(support)), r):
                    subset = tuple(support[i] for i in subset_idx)
                    v = product_report(g, m, subset).verdict
                    e = v.value if v.is_deterministic else 0
                    chi = 1
                    for i in subset_idx:
                        chi *= key[i]
                    p += e * chi
            p /= 2 ** len(support)
            assert abs(p - outcomes.get(key, 0) / total) < 1e-12


def test_sampling_mode_is_seeded_and_consistent():
    g = ring(12)
    m = Measurement("IXIXIXIXIXIX")
    r1 = product_report(g, m, samples=64, seed=42)
    r2 = product_report(g, m, samples=64, seed=42)
    assert r1 == r2
    assert r1.mode == "sampling" and r1.seed == 42 and r1.samples == 64
    assert r1.verdict == Verdict.deterministic(1)
    u = product_report(g, m, subset=(2,), samples=200, seed=7)
    assert u.verdict == Verdict.uniform()


def _reference_counts(g, m, sites, rules, samples, seed):
    """Sampling mode as one ``run`` per seeded coin vector of size n."""
    rng = np.random.default_rng(seed)
    plus = minus = 0
    for _ in range(samples):
        zs = tuple(1 - 2 * int(b) for b in rng.integers(0, 2, size=g.n))
        if run(g, m, zs, rules).product_over(sites) == 1:
            plus += 1
        else:
            minus += 1
    return plus, minus


@pytest.mark.parametrize(
    "samples",
    [1, lhv._SAMPLE_CHUNK - 1, lhv._SAMPLE_CHUNK, 2 * lhv._SAMPLE_CHUNK + 1],
    ids=["one", "chunk-1", "chunk", "2chunk+1"],
)
def test_batched_sampling_matches_run_loop(samples):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 10))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = tuple(p for p in pairs if draw(st.booleans()))
        m = Measurement(draw(st.text(alphabet="IXYZ", min_size=n, max_size=n)))
        subset = draw(st.none() | st.sets(st.integers(1, n)).map(sorted))
        return Graph(n, edges), m, subset

    @settings(max_examples=60 if samples == 1 else 15, deadline=None)
    @given(cases(), st.sampled_from([STANDARD_RULES, SYMMETRIC_RULES, NO_COMMUNICATION]),
           st.integers(0, 2 ** 32))
    def check(case, rules, seed):
        g, m, subset = case
        rep = product_report(g, m, subset, rules, samples=samples, seed=seed)
        plus, minus = _reference_counts(g, m, rep.subset, rules, samples, seed)
        assert rep.counts == (plus, minus)
        expected = Verdict.uniform() if plus and minus else Verdict.deterministic(1 if plus else -1)
        assert rep.verdict == expected

    check()


def test_sampling_counts_do_not_depend_on_chunk_size(monkeypatch):
    g = grid(3, 3)
    m = Measurement("XYZIXYZXY")
    cases = [(subset, rules) for subset in (None, (2,), (1, 5, 9))
             for rules in (STANDARD_RULES, SYMMETRIC_RULES)]
    expected = [product_report(g, m, s, r, samples=300, seed=4).counts for s, r in cases]
    for chunk in (1, 7, 299, 300):
        monkeypatch.setattr(lhv, "_SAMPLE_CHUNK", chunk)
        assert [product_report(g, m, s, r, samples=300, seed=4).counts for s, r in cases] == expected


# Exact (plus, minus) counts of sampling mode, pinned so that a rewrite of the
# sampler keeps numpy's coin stream: sample counts straddle the chunk edges.
_PIN_SAMPLES = (1, 1023, 1024, 1025, 2049)
# An 11-node graph drawn once with random.Random(5), each pair an edge with
# probability 0.35; under STANDARD_RULES its flip set is {2, 6, 10, 11}.
_PIN_GRAPH = Graph(11, (
    (1, 8), (2, 4), (2, 6), (2, 9), (2, 10), (2, 11), (3, 6), (3, 8), (3, 10),
    (3, 11), (4, 6), (4, 7), (4, 10), (5, 8), (6, 8), (6, 10), (6, 11), (7, 8),
    (7, 9), (7, 11), (8, 10), (8, 11), (10, 11),
))


@pytest.mark.parametrize("g, letters, subset, seed, counts", [
    (ring(24), "X" * 24, None, 3,
     [(1, 0), (1023, 0), (1024, 0), (1025, 0), (2049, 0)]),
    (ring(24), "XYZI" * 6, (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), 3,
     [(0, 1), (532, 491), (533, 491), (534, 491), (1059, 990)]),
    # the subset holds the I sites 4 and 7 and the flipped sites 2, 6, 10, 11
    (_PIN_GRAPH, "XYZIXYIZXYX", (1, 2, 3, 4, 5, 6, 7, 9, 10, 11), 11,
     [(1, 0), (501, 522), (502, 522), (502, 523), (1043, 1006)]),
], ids=["ring24-all-x", "ring24-mixed", "random11-i-and-flips"])
def test_sampling_counts_are_pinned(g, letters, subset, seed, counts):
    m = Measurement(letters)
    got = [product_report(g, m, subset, STANDARD_RULES, samples=s, seed=seed).counts
           for s in _PIN_SAMPLES]
    assert got == counts


def test_hidden_assignment_validation():
    with pytest.raises(ValueError):
        run(ring(3), Measurement("XXX"), (1, 0, 1))
    with pytest.raises(ValueError):
        run(ring(3), Measurement("XXX"), (1, 1))


def test_induction_step_sign_relation():
    # multiplying a stabilizer word by a generator changes the sign by
    # (-1)^r when q + r = 0,1 mod 4 and by (-1)^(r+1) when q + r = 2,3 mod 4,
    # with q and r the X- and Y-measuring neighbors of the new generator.
    from graphlhv.oracle import enumerate_stabilizer_measurements
    from graphlhv.pauli import PhasedPauli, generator, multiply

    rng = random.Random(23)
    for g in (chain(4), ring(5), star(5), grid(2, 3)):
        words = list(enumerate_stabilizer_measurements(g))
        for _ in range(60):
            m, sign = words[rng.randrange(len(words))]
            j = rng.randrange(1, g.n + 1)
            if m.letter(j) not in "IZ":
                continue
            q = sum(1 for k in g.neighborhood(j) if m.letter(k) == "X")
            r = sum(1 for k in g.neighborhood(j) if m.letter(k) == "Y")
            product = multiply(PhasedPauli(m.letters, 0 if sign == 1 else 2), generator(g, j))
            factor = (-1) ** r if (q + r) % 4 in (0, 1) else (-1) ** (r + 1)
            assert product.sign == sign * factor
