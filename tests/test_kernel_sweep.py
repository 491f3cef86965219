"""The kernel sweep against the per-subset sweep it replaced.

The reference functions below classify every one of the 2^|support| subsets,
as the library did before it enumerated only the GF(2) kernel of certain
subsets; they exist only here, as the independent side of the comparison.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from graphlhv import chain_protocol, nogo  # noqa: E402
from graphlhv.chain_protocol import (  # noqa: E402
    NotStabilizerShaped,
    Violation,
    _check_kernel,
    decompose,
    flip_sites_for,
)
from graphlhv.graphs import Graph, chain, grid, named_graph, ring, star  # noqa: E402
from graphlhv.lhv import (  # noqa: E402
    NO_COMMUNICATION,
    STANDARD_RULES,
    SYMMETRIC_RULES,
    _monomial_columns,
    product_report,
)
from graphlhv.nogo import (  # noqa: E402
    SubmeasurementReport,
    SubsetCheck,
    _eliminate,
    _kernel_signs,
    _signed_kernel,
    _word_kernels,
    find_certain_submeasurements,
    verify_all_submeasurements,
)
from graphlhv.oracle import Verdict, classify, statevector_verdict  # noqa: E402
from graphlhv.pauli import Measurement  # noqa: E402
from reference import gf2_nullspace, letter_at  # noqa: E402

SWEEP = settings(max_examples=60, deadline=None)


def _subsets(m):
    support = m.support()
    for smask in range(1 << len(support)):
        yield tuple(support[i] for i in range(len(support)) if (smask >> i) & 1)


def reference_report(g, m, rules):
    deterministic = 0
    mismatches = []
    for sites in _subsets(m):
        sub = m.restricted_to(sites)
        oracle_v = classify(g, sub)
        lhv_v = product_report(g, m, sites, rules).verdict
        deterministic += oracle_v.is_deterministic
        if oracle_v != lhv_v:
            mismatches.append(SubsetCheck(sites, sub, oracle_v, lhv_v))
    return SubmeasurementReport(
        m, rules.name, 1 << len(m.support()), deterministic, tuple(mismatches)
    )


def reference_certain(g, m):
    out = []
    for sites in _subsets(m):
        verdict = classify(g, m.restricted_to(sites))
        if verdict.is_deterministic:
            out.append((sites, verdict.value))
    return tuple(out)


def reference_check_measurement(g, m, flips, violations, overlap_violations):
    """The chain checker's per-subset loop and overlap pass, given the flips."""
    masks = dict(zip(m.support(), _columns(g, m)))
    det_checked = 0
    singles = []
    for sites in _subsets(m):
        sub = m.restricted_to(sites)
        verdict = classify(g, sub)
        if not verdict.is_deterministic:
            continue
        det_checked += 1
        monomial = 0
        for j in sites:
            monomial ^= masks[j]
        protocol_sign = -1 if len(flips & set(sites)) % 2 else 1
        if monomial != 0:
            violations.append(
                Violation(m, sites, verdict.value, None, "output product is not constant")
            )
        elif protocol_sign != verdict.value:
            violations.append(
                Violation(m, sites, verdict.value, protocol_sign, "wrong constant sign")
            )
        try:
            sentences = decompose(sub)
        except NotStabilizerShaped as exc:
            violations.append(
                Violation(m, sites, verdict.value, None, f"grammar rejected a certain word: {exc}")
            )
            continue
        if len(sentences) == 1:
            singles.append(sentences[0])
    pairs = 0
    for s1, s2 in itertools.combinations(singles, 2):
        lo, hi = max(s1.left, s2.left), min(s1.right, s2.right)
        if lo > hi:
            continue
        pairs += 1
        skip = {s1.left, s1.right, s2.left, s2.right}
        for p in range(max(lo, 1), min(hi, g.n) + 1):
            if p not in skip and letter_at(s1, p) != letter_at(s2, p):
                overlap_violations.append(((s1.left, s1.right), (s2.left, s2.right), p))
                break
    return det_checked, pairs


@st.composite
def graph_and_word(draw, max_n=8, alphabet="IXYZ"):
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    edges = [p for p in pairs if draw(st.booleans())] if pairs else []
    letters = draw(st.text(alphabet=alphabet, min_size=n, max_size=n))
    return Graph(n, tuple(edges)), Measurement(letters)


# Up to 10 nodes, words over IXYZ or heavy in Y (most of the certain subsets
# with a minus sign); examples pin an empty kernel and an all-Y grid.
SIGNED_WORDS = st.one_of(graph_and_word(max_n=10), graph_and_word(max_n=10, alphabet="IXYYYYZ"))
_SIGNED_EXAMPLES = (
    (ring(5), Measurement("IIIII")),
    (chain(3), Measurement("XZX")),
    (grid(2, 3), Measurement("YYYYYY")),
    (ring(10), Measurement("Y" * 10)),
)


def _with_signed_examples(*rest):
    def decorate(test):
        for gm in _SIGNED_EXAMPLES:
            test = example(gm, *rest)(test)
        return test

    return decorate


RULE_SETS = st.sampled_from([STANDARD_RULES, SYMMETRIC_RULES, NO_COMMUNICATION])


@SWEEP
@given(SIGNED_WORDS, RULE_SETS)
@_with_signed_examples(NO_COMMUNICATION)
def test_report_matches_per_subset_sweep(gm, rules):
    g, m = gm
    assert verify_all_submeasurements(g, m, rules) == reference_report(g, m, rules)


@SWEEP
@given(graph_and_word())
def test_certain_submeasurements_match_per_subset_sweep(gm):
    g, m = gm
    assert find_certain_submeasurements(g, m) == reference_certain(g, m)


@SWEEP
@given(graph_and_word(), st.data())
def test_oracle_sign_is_multiplicative_on_certain_subsets(gm, data):
    # m|_S · m|_T = m|_{S△T} with no phase, the premise of deciding signs
    # from a kernel basis
    g, m = gm
    certain = reference_certain(g, m)
    (s, sign_s), (t, sign_t) = (data.draw(st.sampled_from(certain)) for _ in range(2))
    assert classify(g, m.restricted_to(set(s) ^ set(t))) == Verdict.deterministic(sign_s * sign_t)


@SWEEP
@given(graph_and_word(), RULE_SETS)
def test_mismatches_are_none_or_half_the_certain_subsets(gm, rules):
    g, m = gm
    reference = reference_report(g, m, rules)
    assert len(reference.mismatches) in (0, reference.deterministic_subsets // 2)
    report = verify_all_submeasurements(g, m, rules)
    assert len(report.mismatches) in (0, report.deterministic_subsets // 2)


@SWEEP
@given(graph_and_word())
def test_certain_iff_monomials_cancel(gm):
    g, m = gm
    kernel = {sites for sites, _ in find_certain_submeasurements(g, m)}
    masks = dict(zip(m.support(), _columns(g, m)))
    for sites in _subsets(m):
        mask = 0
        for j in sites:
            mask ^= masks[j]
        assert classify(g, m.restricted_to(sites)).is_deterministic == (mask == 0)
        assert (sites in kernel) == (mask == 0)


@settings(max_examples=80, deadline=None)
@given(SIGNED_WORDS)
@_with_signed_examples()
def test_kernel_sign_bits_match_both_oracles_on_each_basis_word(gm):
    # The sweep confirms basis words on bitmasks; classify on the word's
    # letters and the dense state vector must read the same sign.
    g, m = gm
    pairs = _pairs(g, m)
    basis, bits = _kernel_signs(g, m.letters, pairs)
    assert basis == list(_eliminate(pairs, {})) and len(bits) == len(basis)
    for vec, bit in zip(basis, bits):
        sub = m.restricted_to(_mask_sites(vec, g.n))
        expected = Verdict.deterministic(-1 if bit else 1)
        assert classify(g, sub) == expected, str(sub)
        assert statevector_verdict(g, sub) == expected, str(sub)


def _columns(g, m):
    return _monomial_columns(g, m.letters, m.support())


def _pairs(g, m):
    """The kernel step's columns: (site bit, monomial mask) per support site."""
    return [(1 << (j - 1), col) for j, col in zip(m.support(), _columns(g, m))]


def _mask_sites(smask, n):
    """The sites of a site mask, bit j - 1 for site j, tested bit by bit."""
    return [j for j in range(1, n + 1) if smask >> (j - 1) & 1]


def _site_mask(support, vec):
    """A vector over support positions (bit i for support[i]) as a site mask."""
    return sum(1 << (j - 1) for i, j in enumerate(support) if vec >> i & 1)


def _transposed(cols, n):
    return [sum(((c >> r) & 1) << i for i, c in enumerate(cols)) for r in range(n)]


def _span(basis):
    span = {0}
    for vec in basis:
        span |= {v ^ vec for v in span}
    return span


@settings(max_examples=100, deadline=None)
@given(graph_and_word(max_n=10))
def test_column_basis_matches_row_nullspace(gm):
    g, m = gm
    support = m.support()
    cols = _columns(g, m)
    basis = list(_eliminate(_pairs(g, m), {}))
    reference = [
        _site_mask(support, vec) for vec in gf2_nullspace(_transposed(cols, g.n), len(cols))
    ]
    assert _span(basis) == _span(reference)
    # A kernel vector supported on one free column plus pivot columns is
    # unique, so the two bases agree vector for vector.
    assert basis == reference
    for k, vec in enumerate(basis):
        top = vec.bit_length() - 1
        assert all(not (other >> top) & 1 for i, other in enumerate(basis) if i != k)
        acc = 0
        for j, col in zip(support, cols):
            if (vec >> (j - 1)) & 1:
                acc ^= col
        assert acc == 0


@settings(max_examples=100, deadline=None)
@given(graph_and_word(max_n=10))
def test_kernel_walk_is_strictly_ascending(gm):
    # in site-mask order and in the support-position order of a sweep over
    # every subset, which the site order preserves
    g, m = gm
    position = {j: i for i, j in enumerate(m.support())}
    subsets = [sites for sites, _ in find_certain_submeasurements(g, m)]
    for bit in (lambda j: j - 1, position.__getitem__):
        masks = [sum(1 << bit(j) for j in sites) for sites in subsets]
        assert masks == sorted(set(masks))
    assert len(subsets) == 1 << len(list(_eliminate(_pairs(g, m), {})))


@settings(max_examples=100, deadline=None)
@given(graph_and_word(max_n=10))
def test_kernel_basis_vectors_are_certain_site_masks_of_the_support(gm):
    g, m = gm
    support_mask = sum(1 << (j - 1) for j in m.support())
    basis, _ = _signed_kernel(g, m)
    for vec in basis:
        assert vec and vec & ~support_mask == 0
        acc = 0
        for col in _monomial_columns(g, m.letters, _mask_sites(vec, g.n)):
            acc ^= col
        assert acc == 0


def test_star16_all_x_kernel_dimension():
    g, m = star(16), Measurement("X" * 16)
    cols = _columns(g, m)
    basis = list(_eliminate(_pairs(g, m), {}))
    assert len(basis) == 14
    reference = gf2_nullspace(_transposed(cols, g.n), len(cols))
    assert basis == [_site_mask(m.support(), vec) for vec in reference]


def test_all_identity_word_has_one_empty_subset():
    g, m = ring(5), Measurement("IIIII")
    assert list(_eliminate(_pairs(g, m), {})) == []
    assert find_certain_submeasurements(g, m) == (((), 1),)
    assert m.restricted_to(()) == m


# Graphs up to 5 nodes, the letters drawn all I and dropped.
SMALL_GRAPHS = graph_and_word(max_n=5, alphabet="I").map(lambda gm: gm[0])


@SWEEP
@given(SMALL_GRAPHS)
@example(named_graph("ring:4"))
@example(named_graph("star:4"))
@example(named_graph("complete-bipartite:2x2"))
@example(named_graph("grid:2x2"))
def test_letter_tree_walk_gives_each_word_its_own_kernel_on_any_graph(g):
    # The walk never reads the chain: on any graph it visits the words in
    # product order, hands each the signed kernel that eliminating it alone
    # gives, and pushes one column per tree node with a non-I letter.
    pushed = []
    original = nogo._eliminate

    def counting(cols, pivots):
        return original((pushed.append(col) or col for col in cols), pivots)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nogo, "_eliminate", counting)
        kernels = _word_kernels(g, lambda *kernel: kernel)
    assert len(pushed) == 4 ** g.n - 1
    assert [k[0] for k in kernels] == list(map("".join, itertools.product("IXYZ", repeat=g.n)))
    for letters, basis, bits in kernels:
        assert (basis, bits) == _signed_kernel(g, Measurement(letters)), letters


def _compare_chain_checks(letters, broadcast_y, silent):
    # The protocol is correct, so with its own flips no sign violation can
    # appear; with no flips at all ("silent") the odd Y X..X Y words give some.
    g, m = chain(len(letters)), Measurement(letters)
    flips = frozenset() if silent else flip_sites_for(m, broadcast_y)
    got_v, got_o = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain_protocol, "flip_sites_for", lambda m, broadcast_y: flips)
        (counts,) = _word_kernels(
            g, lambda *kernel: _check_kernel(*kernel, broadcast_y, got_v, got_o, {}), [letters])
    ref_v, ref_o = [], []
    assert counts == reference_check_measurement(g, m, flips, ref_v, ref_o)
    assert got_v == ref_v
    assert [(o.first_span, o.second_span, o.position) for o in got_o] == ref_o
    return len(got_v)


@SWEEP
@given(
    st.integers(1, 10).flatmap(lambda n: st.text(alphabet="IXYZ", min_size=n, max_size=n)),
    st.booleans(),
    st.booleans(),
)
def test_chain_check_matches_per_subset_sweep(letters, broadcast_y, silent):
    _compare_chain_checks(letters, broadcast_y, silent)


def test_chain_check_matches_on_every_short_chain():
    violations = 0
    for n in range(1, 6):
        for letters in itertools.product("IXYZ", repeat=n):
            for broadcast_y, silent in itertools.product((False, True), repeat=2):
                violations += _compare_chain_checks("".join(letters), broadcast_y, silent)
    assert violations > 0  # the silent runs exercised the sign comparison


# 16 certain subsets, 8 of them mismatched without communication: enough to
# pin the order of the mismatches, not just the set.
_EIGHT_MISMATCHES = Graph(8, ((2, 3), (2, 6), (2, 7), (3, 5), (3, 6), (4, 7), (4, 8),
                              (5, 6), (5, 7), (5, 8), (7, 8)))


@pytest.mark.parametrize(
    "g, letters",
    [(ring(12), "X" * 12), (grid(2, 3), "Y" * 6), (ring(9), "XYZYXYZYX"),
     (_EIGHT_MISMATCHES, "XYYZXYYX")],
    ids=["ring12-allX", "grid2x3-allY", "ring9-mixed", "eight-mismatches"],
)
def test_fixed_instances_match_per_subset_sweep(g, letters):
    m = Measurement(letters)
    for rules in (STANDARD_RULES, SYMMETRIC_RULES, NO_COMMUNICATION):
        assert verify_all_submeasurements(g, m, rules) == reference_report(g, m, rules)
    assert verify_all_submeasurements(g, m).subsets_checked == 2 ** len(m.support())
