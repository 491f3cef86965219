"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check here is exact: either a finite exhaustive sweep or an integer
certificate.
"""

import itertools
import random
import sys
import time

import pytest

from graphlhv.chain_protocol import (
    NotStabilizerShaped,
    compare_readings,
    decompose,
    decomposition_sign,
    verify_chain_exhaustive,
)
from graphlhv.graphs import chain, complete_bipartite, grid, ring, star
from graphlhv.lhv import product_report
from graphlhv.nogo import (
    certify_distance,
    distance_bound,
    distance_constraint_system,
    find_certain_submeasurements,
    gf2_solve,
    site_invariance_system,
    verify_all_submeasurements,
)
from graphlhv.oracle import Verdict, classify, enumerate_stabilizer_measurements, statevector_verdict
from graphlhv.pauli import Measurement

GRAPH_SUITE = [
    ring(3), ring(4), ring(5),
    chain(2), chain(3), chain(4), chain(5),
    star(3), star(4), star(5),
    grid(2, 2),
]


def _announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def _all_measurements(n):
    for letters in itertools.product("IXYZ", repeat=n):
        yield Measurement("".join(letters))


def test_criterion_1_oracle_equivalence(capsys):
    t0 = time.time()
    checked = 0
    for g in GRAPH_SUITE:
        for m in _all_measurements(g.n):
            assert classify(g, m) == statevector_verdict(g, m), (g.n, str(m))
            checked += 1
    _announce(
        capsys,
        f"ACCEPTANCE 1 PASS oracle equivalence: {checked} measurements across "
        f"{len(GRAPH_SUITE)} graphs, exact match ({time.time() - t0:.1f}s)"
    )


def test_criterion_2_global_correctness(capsys):
    t0 = time.time()
    checked = 0
    for g in GRAPH_SUITE:
        for m in _all_measurements(g.n):
            assert product_report(g, m).verdict == classify(g, m), (g.n, str(m))
            checked += 1
    _announce(
        capsys,
        f"ACCEPTANCE 2 PASS global correctness: protocol equals oracle on "
        f"{checked} full-support products ({time.time() - t0:.1f}s)"
    )


def test_criterion_3_triangle_ring_contradiction(capsys):
    t0 = time.time()
    g, cases = ring(12), certify_distance(12, 1).cases

    signs = {c.name: c.expected_sign for c in cases}
    assert signs == {"xxx": 1, "yyy": -1, "yxy": 1, "yyx": 1, "xyy": 1}
    for c in cases:
        assert classify(g, c.sub) == Verdict.deterministic(c.expected_sign)

    system = distance_constraint_system(g, cases, 1)
    expected_structure = [
        ({("x", 2), ("x", 4), ("x", 6), ("x", 8), ("x", 10), ("x", 12)}, 1),
        ({("y", 1), ("x", 2), ("y", 3), ("y", 5), ("x", 6), ("y", 7),
          ("y", 9), ("x", 10), ("y", 11)}, -1),
        ({("y", 1), ("y", 3), ("y", 4), ("x", 6), ("x", 8), ("x", 10), ("y", 12)}, 1),
        ({("x", 2), ("y", 4), ("y", 5), ("y", 7), ("y", 8), ("x", 10), ("x", 12)}, 1),
        ({("x", 2), ("x", 4), ("x", 6), ("y", 8), ("y", 9), ("y", 11), ("y", 12)}, 1),
    ]
    for eq, (names, sign) in zip(system.equations, expected_structure):
        assert {(v.observable, v.site) for v in system.keys(eq)} == names
        assert eq.sign == sign

    solution = gf2_solve(system)
    assert not solution.consistent
    assert solution.certificate == (0, 1, 2, 3, 4)
    counts = {}
    sign = 1
    for i in solution.certificate:
        sign *= system.equations[i].sign
        for v in system.keys(system.equations[i]):
            counts[v] = counts.get(v, 0) + 1
    assert all(c % 2 == 0 for c in counts.values()) and sign == -1
    _announce(
        capsys,
        "ACCEPTANCE 3 PASS triangle-ring contradiction: five-equation "
        f"certificate at d=1, case signs validated ({time.time() - t0:.1f}s)"
    )


def test_criterion_4_distance_bound_sweep(capsys):
    t0 = time.time()
    bounds = {n: distance_bound(n) for n in (12, 14, 36)}
    assert bounds == {12: 1, 14: 1, 36: 5}
    for n, bound in bounds.items():
        cert = certify_distance(n)
        assert cert.d == bound
        assert not cert.solution.consistent, n
        assert cert.max_other_changeable_in_view <= 1
    _announce(
        capsys,
        "ACCEPTANCE 4 PASS distance sweep: bounds {12: 1, 14: 1, 36: 5}, "
        f"certifier inconsistent at each bound ({time.time() - t0:.1f}s)"
    )


def test_criterion_5_grid_site_invariance(capsys):
    t0 = time.time()
    g = grid(2, 3)
    m = Measurement("YYYYYY")

    report = verify_all_submeasurements(g, m)
    flagged = {c.sites: c for c in report.mismatches}
    assert (1, 2, 3, 5) in flagged
    assert flagged[(1, 2, 3, 5)].oracle == Verdict.deterministic(-1)
    assert flagged[(1, 2, 3, 5)].lhv == Verdict.deterministic(1)

    system = site_invariance_system(g, m, [({1, 2, 3, 5}, -1)])
    assert sorted(v.sites for v in system.variables) == [(1, 3, 4, 6), (2, 5)]
    assert not gf2_solve(system).consistent

    subs = find_certain_submeasurements(g, m)
    assert not gf2_solve(site_invariance_system(g, m, subs)).consistent
    _announce(
        capsys,
        "ACCEPTANCE 5 PASS grid 2x3: subset {1,2,3,5} flagged (oracle -1 vs "
        f"rules +1), orbit system inconsistent ({time.time() - t0:.1f}s)"
    )


def test_criterion_6_positive_class(capsys):
    t0 = time.time()
    graphs = [star(n) for n in range(2, 7)] + [complete_bipartite(2, 2), complete_bipartite(2, 3)]
    checked = 0
    for g in graphs:
        for m in _all_measurements(g.n):
            report = verify_all_submeasurements(g, m)
            assert report.clean, (g.edges, str(m), report.mismatches)
            checked += report.subsets_checked
    _announce(
        capsys,
        f"ACCEPTANCE 6 PASS positive class: stars up to 6 nodes and K22/K23, "
        f"{checked} subsets, zero mismatches ({time.time() - t0:.1f}s)"
    )


@pytest.fixture(scope="module")
def chain_reports():
    """One exhaustive run per (n, reading), shared by criteria 7 and 8."""
    return {
        (n, by): verify_chain_exhaustive(n, broadcast_y=by)
        for n in range(1, 8)
        for by in (False, True)
    }


@pytest.mark.parametrize("broadcast_y", [False, True])
def test_chain_sweep_counts_are_pinned(chain_reports, broadcast_y):
    # Per-n counts of the exhaustive sweep, the same in both readings: the
    # certain subsets (empty ones included) and the overlapping pairs of
    # single-sentence subs, whatever walk or parse the checker uses.
    det = [5, 19, 80, 325, 1340, 5500, 22625]
    pairs = [0, 0, 3, 12, 74, 334, 1602]
    for n in range(1, 8):
        report = chain_reports[n, broadcast_y]
        assert report.measurements_checked == 4 ** n
        assert report.deterministic_subs_checked == det[n - 1], n
        assert report.overlap_pairs_checked == pairs[n - 1], n


def test_criterion_7_chain_protocol_and_grammar(capsys, chain_reports):
    t0 = time.time()
    det_total = 0
    for (n, broadcast_y), report in chain_reports.items():
        assert report.violations == (), (n, broadcast_y, report.violations[:3])
        det_total += report.deterministic_subs_checked
    discrepancies = sum(len(compare_readings(n)) for n in range(1, 8))

    # grammar soundness: decompose accepts exactly the stabilizer strings
    for n in range(1, 13):
        g = chain(n)
        for m, sign in enumerate_stabilizer_measurements(g):
            assert decomposition_sign(decompose(m)) == sign
    for n in range(1, 9):
        g = chain(n)
        stabilizer = {str(m) for m, _ in enumerate_stabilizer_measurements(g)}
        accepted = set()
        for letters in itertools.product("IXYZ", repeat=n):
            s = "".join(letters)
            try:
                decompose(s)
                accepted.add(s)
            except NotStabilizerShaped:
                pass
        assert accepted == stabilizer, n
    rng = random.Random(2024)
    for n in (9, 10, 11, 12):
        g = chain(n)
        for _ in range(2000):
            s = "".join(rng.choice("IXYZ") for _ in range(n))
            try:
                decompose(s)
                ok = True
            except NotStabilizerShaped:
                ok = False
            assert ok == classify(g, Measurement(s)).is_deterministic, (n, s)
    _announce(
        capsys,
        f"ACCEPTANCE 7 PASS chain protocol: {det_total} deterministic subs "
        f"verified under both readings (discrepant flip decisions between "
        f"readings: {discrepancies}, all outside deterministic subs); grammar "
        f"exact up to n=12 ({time.time() - t0:.1f}s)"
    )


def test_criterion_8_overlap_property(capsys, chain_reports):
    t0 = time.time()
    pairs = 0
    for (n, _broadcast_y), report in chain_reports.items():
        assert report.overlap_violations == (), n
        pairs += report.overlap_pairs_checked
    _announce(
        capsys,
        f"ACCEPTANCE 8 PASS overlap property: {pairs} sentence pairs agree on "
        f"overlaps up to bracketing Zs ({time.time() - t0:.1f}s)"
    )
