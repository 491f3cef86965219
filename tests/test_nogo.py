"""Constraint systems, the ring distance certifier, and site invariance."""

import hashlib
import itertools
import random
import re
import tracemalloc

import pytest

from graphlhv import nogo
from graphlhv.graphs import (
    Graph,
    UnsupportedSizeError,
    _sites,
    ball_masks,
    chain,
    complete_bipartite,
    grid,
    padded_ring,
    ring,
    star,
)
from graphlhv.lhv import STANDARD_RULES, SYMMETRIC_RULES, all_assignments, product_report, run
from graphlhv.nogo import (
    CertainSubmeasurement,
    ContextVariable,
    Equation,
    GF2Solution,
    ParityConstraintSystem,
    SubmeasurementReport,
    certify_distance,
    distance_bound,
    distance_constraint_system,
    embedded_grid_counterexample,
    find_certain_submeasurements,
    gf2_solve,
    measurement_view,
    site_invariance_system,
    verify_all_submeasurements,
)
from graphlhv.oracle import Verdict, classify
from graphlhv.pauli import Measurement, generator_product, is_submeasurement
from reference import ball, gf2_nullspace, orbit_keyed_system, view_keyed_system


# ---------------------------------------------------------------------------
# GF(2) machinery
# ---------------------------------------------------------------------------

def _check_witness(system, witness):
    # bit i of the witness is the value of system.variables[i], 1 standing for -1
    bits = {v: witness >> i & 1 for i, v in enumerate(system.variables)}
    for eq in system.equations:
        assert (-1) ** sum(bits[v] for v in system.keys(eq)) == eq.sign


def _check_certificate(system, certificate):
    counts = {}
    sign = 1
    for i in certificate:
        eq = system.equations[i]
        sign *= eq.sign
        for v in system.keys(eq):
            counts[v] = counts.get(v, 0) + 1
    assert all(c % 2 == 0 for c in counts.values())
    assert sign == -1


def _row(system, keys):
    """The row of an equation over the given keys, each counted mod 2."""
    row = 0
    for key in keys:
        row ^= 1 << system.variables.index(key)
    return row


def test_gf2_empty_system():
    sol = gf2_solve(ParityConstraintSystem((), ()))
    assert sol.consistent and sol.witness == 0


def test_gf2_simple_systems():
    # a, b, c at bits 0, 1, 2
    eqs = (Equation(0b011, -1), Equation(0b110, 1), Equation(0b101, -1))
    system = ParityConstraintSystem(("a", "b", "c"), eqs)
    sol = gf2_solve(system)
    assert sol.consistent
    _check_witness(system, sol.witness)

    eqs_bad = eqs + (Equation(0b011, 1),)
    system_bad = ParityConstraintSystem(("a", "b", "c"), eqs_bad)
    sol_bad = gf2_solve(system_bad)
    assert not sol_bad.consistent
    _check_certificate(system_bad, sol_bad.certificate)


def test_gf2_multiset_reduction():
    # a key counted twice cancels out of a row, leaving 1 = -1
    system = ParityConstraintSystem(("a", "b"), ())
    assert _row(system, ["a", "a", "b"]) == 0b10
    empty_odd = Equation(_row(system, ["a", "a"]), -1)
    assert empty_odd.row == 0
    system = ParityConstraintSystem(("a",), (empty_odd,))
    assert system.keys(empty_odd) == ()
    assert not gf2_solve(system).consistent


def test_gf2_random_systems_round_trip():
    rng = random.Random(99)
    for _ in range(50):
        nvars = rng.randrange(1, 8)
        variables = tuple(f"v{i}" for i in range(nvars))
        planted = [rng.randrange(2) for _ in variables]
        eqs = []
        for k in range(rng.randrange(1, 10)):
            row = rng.randrange(1 << nvars)
            sign = (-1) ** sum(bit for i, bit in enumerate(planted) if row >> i & 1)
            eqs.append(Equation(row, sign, f"e{k}"))
        system = ParityConstraintSystem(variables, tuple(eqs))
        sol = gf2_solve(system)
        assert sol.consistent  # planted solution exists
        _check_witness(system, sol.witness)


def test_gf2_solve_keeps_no_dependency_per_equation():
    # Every empty row is a dependency, its own bit, as wide as its index; kept,
    # 65,536 of them peaked at 289 MB.
    system = ParityConstraintSystem(("a", "b"), (Equation(0, 1),) * (1 << 16))
    tracemalloc.start()
    try:
        sol = gf2_solve(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol == GF2Solution(True, 0, None)
    assert peak < 1 << 20


def test_gf2_nullspace():
    # kernel of [[1,1,0],[0,1,1]] is spanned by (1,1,1)
    basis = gf2_nullspace([0b011, 0b110], 3)
    assert basis == [0b111]
    assert gf2_nullspace([0b01, 0b10], 2) == []


def test_undeclared_variable_rejected():
    # a bit at or past the number of declared variables, or a negative row
    for variables, row in (((), 0b1), (("a",), 0b100), (("a",), -1)):
        with pytest.raises(ValueError, match="'ghost'"):
            ParityConstraintSystem(variables, (Equation(row, 1, "ghost"),))
    ParityConstraintSystem(("a",), (Equation(0b1, 1, "ghost"),))


def test_plain_variable_is_written_by_repr():
    # a key that is neither a context nor an orbit variable keeps its repr,
    # and the report keeps the right-hand bit: 1 for sign -1
    system = ParityConstraintSystem(
        ("a", "b"), (Equation(0b01, -1, "e"), Equation(0b11, 1, "f"))
    )
    assert system.to_json_dict() == {
        "variables": [{"name": "'a'"}, {"name": "'b'"}],
        "equations": [
            {"label": "e", "rhs": 1, "variables": [0]},
            {"label": "f", "rhs": 0, "variables": [0, 1]},
        ],
    }


@pytest.mark.parametrize("rhs", [0, 2, -2, 3])
def test_right_hand_side_must_be_a_bit(rhs):
    # the right-hand side is a sign: a bit 0 or a stray count must not be
    # read as one, and the refusal names the equation
    with pytest.raises(ValueError, match=f"'odd': sign must be \\+1 or -1, got {rhs}"):
        Equation(0, rhs, "odd")


# ---------------------------------------------------------------------------
# Ring instances
# ---------------------------------------------------------------------------

def _ring_instance(f):
    """ring(12f) and its five cases, as the certifier builds them (for odd f the
    padded ring of 12f nodes has no isolated extra)."""
    return ring(12 * f), certify_distance(12 * f).cases


def test_ring_instance_f1_matches_hand_construction():
    g, cases = _ring_instance(1)
    subs = {c.name: str(c.sub) for c in cases}
    assert subs == {
        "xxx": "IXIXIXIXIXIX",
        "yyy": "YXYIYXYIYXYI",
        "yxy": "YIYYIXIXIXIY",
        "yyx": "IXIYYIYYIXIX",
        "xyy": "IXIXIXIYYIYY",
    }
    signs = {c.name: c.expected_sign for c in cases}
    assert signs == {"xxx": 1, "yyy": -1, "yxy": 1, "yyx": 1, "xyy": 1}
    for c in cases:
        assert is_submeasurement(c.sub, c.global_measurement)
        assert classify(g, c.sub) == Verdict.deterministic(c.expected_sign)


def test_ring_instance_f3_oracle_confirms_signs():
    g, cases = _ring_instance(3)
    for c in cases:
        assert classify(g, c.sub) == Verdict.deterministic(c.expected_sign)


@pytest.mark.parametrize("f", [1, 3])
def test_ring_subs_equal_explicit_generator_products(f):
    g, cases = _ring_instance(f)
    n = g.n
    by_name = {c.name: c for c in cases}

    # product of every second generator
    a = [1 if j % 2 == 0 else 0 for j in range(1, n + 1)]
    p = generator_product(g, a)
    assert p.letters == by_name["xxx"].sub.letters and p.sign == 1

    # product of minus-signed triples at 4j-3, 4j-2, 4j-1
    a = [1 if j % 4 != 0 else 0 for j in range(1, n + 1)]
    p = generator_product(g, a)
    assert p.letters == by_name["yyy"].sub.letters
    assert p.sign * (-1) ** (3 * f) == 1

    # the displayed factorization of the third case
    sites = {1, 4 * f - 1} | {2 * k for k in range(2 * f, 6 * f + 1)}
    for j in range(1, f):
        sites |= {4 * j - 1, 4 * j, 4 * j + 1}
    a = [1 if j in sites else 0 for j in range(1, n + 1)]
    p = generator_product(g, a)
    assert p.letters == by_name["yxy"].sub.letters
    assert p.sign * (-1) ** (f - 1) == 1

    # the other two cases turn that set by 4f and by 8f
    for name, turn in (("yyx", 4 * f), ("xyy", 8 * f)):
        turned = {(j + turn - 1) % n + 1 for j in sites}
        p = generator_product(g, [1 if j in turned else 0 for j in range(1, n + 1)])
        assert p.letters == by_name[name].sub.letters
        assert p.sign == by_name[name].expected_sign == 1


def _digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


def _case_rows(cases):
    return [(c.name, c.global_measurement.letters, c.sub.letters, c.expected_sign) for c in cases]


# sha256 over (name, global letters, sub letters, sign) of every case, recorded
# while the ring's subs were assembled letter by letter from six site classes
# and each was confirmed by ``classify``; building them as generator products
# must not change a letter or a sign.
def test_ring_cases_are_pinned():
    # read directly: through certify_distance the 51 sizes take about three times as long
    rows = (row for f in range(1, 102, 2)
            for row in _case_rows(nogo._ring_cases(ring(12 * f), f)))
    assert _digest(rows) == "610e24b2da5da47273d82aa917d403a4e3bff229402009f5942988cb8ee329c2"


# The same digest over the padded rings, n = 12..139: every padding 0..23 and
# ring sizes 12, 36, 60, 84, 108 and 132. `nogo ring` takes only f, so no
# report pin covers an n that is not 12f.
def test_padded_certify_cases_are_pinned():
    rows = (row for n in range(12, 140) for row in _case_rows(certify_distance(n).cases))
    assert _digest(rows) == "f3759ab263b33aa16e8dd8e5fb2c2b98cd8a17c1593ccf8cdae225a1b4d665dc"


def test_ring_cases_are_cyclic_shifts():
    _, cases = _ring_instance(1)
    by_name = {c.name: c for c in cases}

    def shift(m, k, n):
        return Measurement("".join(m.letters[(j - 1 - k) % n] for j in range(1, n + 1)))

    assert shift(by_name["yxy"].sub, 4, 12).letters == by_name["yyx"].sub.letters
    assert shift(by_name["yyx"].sub, 4, 12).letters == by_name["xyy"].sub.letters


# ---------------------------------------------------------------------------
# Distance certifier
# ---------------------------------------------------------------------------

def test_distance_bound_values():
    assert distance_bound(12) == 1
    assert distance_bound(14) == 1
    assert distance_bound(36) == 5
    assert distance_bound(24) == 1
    assert distance_bound(48) == 5
    assert distance_bound(60) == 9
    with pytest.raises(ValueError):
        distance_bound(11)


def test_triangle_ring_constraint_structure():
    g, cases = _ring_instance(1)
    system = distance_constraint_system(g, cases, 1)
    assert len(system.equations) == 5

    expected = [
        ({("x", 2), ("x", 4), ("x", 6), ("x", 8), ("x", 10), ("x", 12)}, 1),
        ({("y", 1), ("x", 2), ("y", 3), ("y", 5), ("x", 6), ("y", 7), ("y", 9), ("x", 10), ("y", 11)}, -1),
        ({("y", 1), ("y", 3), ("y", 4), ("x", 6), ("x", 8), ("x", 10), ("y", 12)}, 1),
        ({("x", 2), ("y", 4), ("y", 5), ("y", 7), ("y", 8), ("x", 10), ("x", 12)}, 1),
        ({("x", 2), ("x", 4), ("x", 6), ("y", 8), ("y", 9), ("y", 11), ("y", 12)}, 1),
    ]
    for eq, (names, sign) in zip(system.equations, expected):
        assert {(v.observable, v.site) for v in system.keys(eq)} == names
        assert eq.sign == sign

    # at f=1, d=1 every (observable, site) pair names a single shared variable
    by_name = {}
    for i, v in enumerate(system.variables):
        by_name.setdefault((v.observable, v.site), []).append(i)
    assert all(len(positions) == 1 for positions in by_name.values())
    # the midpoint variable x2 is shared across four equations
    (x2,) = by_name[("x", 2)]
    assert sum(1 for eq in system.equations if eq.row >> x2 & 1) == 4

    sol = gf2_solve(system)
    assert not sol.consistent
    assert sol.certificate == (0, 1, 2, 3, 4)
    _check_certificate(system, sol.certificate)


def test_single_instance_always_consistent():
    g, cases = _ring_instance(1)
    system = distance_constraint_system(g, cases[:1], 1)
    sol = gf2_solve(system)
    assert sol.consistent
    _check_witness(system, sol.witness)


def test_full_view_system_is_consistent():
    # with d at the diameter every view is the whole measurement, the five
    # instances stop sharing variables, and a model exists
    g, cases = _ring_instance(1)
    system = distance_constraint_system(g, cases, 6)
    sol = gf2_solve(system)
    assert sol.consistent
    _check_witness(system, sol.witness)


def test_distance_two_already_admits_a_model_at_f1():
    g, cases = _ring_instance(1)
    system = distance_constraint_system(g, cases, 2)
    assert gf2_solve(system).consistent


def test_view_canonicalization_round_trip():
    # a view reads back exactly the measurement letters on the ball, in
    # sorted node order, so byte-equal views mean equal restrictions
    g, cases = _ring_instance(1)
    for case in cases:
        m = case.global_measurement
        for j in range(1, 13):
            for d in (0, 1, 2):
                view = measurement_view(g, m, j, d)
                nodes = tuple(k for k, _ in view)
                assert nodes == tuple(sorted(set(nodes)))
                assert set(nodes) == set(ball(g, j, d))
                for k, letter in view:
                    assert m.letter(k) == letter


def test_certify_distance_sweep():
    for n, expected_bound in ((12, 1), (14, 1), (36, 5)):
        cert = certify_distance(n)
        assert cert.bound == expected_bound
        assert cert.d == expected_bound
        assert not cert.solution.consistent
        assert cert.ok
        assert cert.max_other_changeable_in_view <= 1
        _check_certificate(cert.system, cert.solution.certificate)


def test_certify_distance_refuses_a_negative_distance():
    # the refusal comes from ball_masks, the certifier's one reader of d
    with pytest.raises(ValueError, match="^distance must be non-negative, got -1$"):
        certify_distance(12, -1)


def test_certify_distance_finds_each_ball_once(monkeypatch):
    # one mask pass builds every ball, however many sites and cases share
    # them, and the views still read the measurement on each site's ball
    calls = []

    def counting_ball_masks(g, d):
        calls.append(d)
        return ball_masks(g, d)

    monkeypatch.setattr(nogo, "ball_masks", counting_ball_masks)
    cert = certify_distance(60)
    assert calls == [cert.d]
    g = padded_ring(cert.n)
    for case, eq in zip(cert.cases, cert.system.equations):
        m = case.global_measurement
        assert set(cert.system.keys(eq)) == {
            ContextVariable(j, m.letter(j).lower(), _view(g, m, j, cert.d)) for j in case.sub.support()
        }


def test_certify_distance_padding_is_idle():
    cert = certify_distance(14)
    assert cert.padding == 2 and cert.ring_size == 12 and cert.f == 1
    for case in cert.cases:
        assert case.sub.letters[12:] == "II"
        assert case.global_measurement.letters[12:] == "II"


def _view(g, m, j, d):
    """The measurement letters on the reference search's ball of j, in node order."""
    return tuple((k, m.letter(k)) for k in sorted(ball(g, j, d)))


def _reference_distance_system(g, cases, d):
    """The construction before difference-site keys: a full view per (case, site),
    variables declared in first-use order with each equation sorted by repr."""
    keyed = []
    for case in cases:
        m = case.global_measurement
        keyed.append({ContextVariable(j, m.letter(j).lower(), _view(g, m, j, d))
                      for j in case.sub.support()})
    seen = {}
    for keys in keyed:
        for key in sorted(keys, key=repr):
            seen.setdefault(key, len(seen))
    equations = tuple(
        Equation(sum(1 << seen[key] for key in keys), case.expected_sign, case.name)
        for case, keys in zip(cases, keyed)
    )
    return ParityConstraintSystem(tuple(seen), equations)


def _assert_same_system(got, want):
    assert got.variables == want.variables  # order included
    assert got.equations == want.equations


@pytest.mark.parametrize("f", [1, 3])
def test_distance_system_matches_full_view_reference_on_rings(f):
    g, cases = _ring_instance(f)
    for d in range(0, 6 * f + 2):
        _assert_same_system(
            distance_constraint_system(g, cases, d),
            _reference_distance_system(g, cases, d),
        )


def test_distance_system_matches_full_view_reference_on_random_cases():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def instances(draw):
        n = draw(st.integers(1, 10))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, tuple(p for p, k in zip(pairs, keep) if k))
        base = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
        cases = []
        for k in range(draw(st.integers(1, 5))):
            changed = draw(st.integers(0, (1 << n) - 1))  # bit j-1: site j may differ
            other = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
            glob = "".join(o if (changed >> i) & 1 else b for i, (b, o) in enumerate(zip(base, other)))
            kept = draw(st.integers(0, (1 << n) - 1))
            sub = "".join(ch if (kept >> i) & 1 else "I" for i, ch in enumerate(glob))
            sign = draw(st.sampled_from((1, -1)))
            cases.append(CertainSubmeasurement(f"c{k}", Measurement(glob), Measurement(sub), sign))
        return g, cases, draw(st.integers(0, n))

    @settings(max_examples=200, deadline=None)
    @given(instances())
    def check(instance):
        g, cases, d = instance
        _assert_same_system(
            distance_constraint_system(g, cases, d), _reference_distance_system(g, cases, d)
        )

    check()


@pytest.mark.parametrize(
    "glob, sub",
    [("XIIII", "XIIII"), ("XIIIII", "XIIII"), ("XIIIIII", "XIIIIII"), ("XIIIII", "XIIIIII"),
     ("XIIIII", "XYIIII"), ("XIIIII", "YIIIII")],
    ids=["both-short", "sub-short", "both-long", "sub-long", "extra-site", "other-letter"],
)
def test_distance_system_rejects_malformed_cases(glob, sub):
    g = ring(6)
    good = CertainSubmeasurement("ok", Measurement("XIIIII"), Measurement("XIIIII"), 1)
    bad = CertainSubmeasurement("bad", Measurement(glob), Measurement(sub), 1)
    with pytest.raises(ValueError, match="bad"):
        distance_constraint_system(g, [good, bad], 1)
    assert distance_constraint_system(g, [good], 1).variables[0].observable == "x"


@pytest.mark.parametrize("sign", [0, 2])
def test_distance_system_rejects_a_sign_that_is_not_plus_or_minus_one(sign):
    g = ring(6)
    good = CertainSubmeasurement("ok", Measurement("XIIIII"), Measurement("XIIIII"), 1)
    bad = CertainSubmeasurement("bad", Measurement("XIIIII"), Measurement("XIIIII"), sign)
    with pytest.raises(ValueError, match=f"'bad': .*got {sign}"):
        distance_constraint_system(g, [good, bad], 1)


# ---------------------------------------------------------------------------
# Submeasurement verification
# ---------------------------------------------------------------------------

def test_grid_2x3_mismatch_family_matches_brute_force():
    g = grid(2, 3)
    m = Measurement("YYYYYY")
    report = verify_all_submeasurements(g, m)
    assert not report.clean
    got = {c.sites: (c.oracle, c.lhv) for c in report.mismatches}

    # independent oracle: enumerate hidden assignments by brute force
    expected = {}
    for k in range(7):
        for subset in itertools.combinations(m.support(), k):
            oracle_v = classify(g, m.restricted_to(subset))
            products = {run(g, m, z).product_over(subset) for z in all_assignments(6)}
            lhv_v = (
                Verdict.deterministic(products.pop())
                if len(products) == 1
                else Verdict.uniform()
            )
            if oracle_v != lhv_v:
                expected[subset] = (oracle_v, lhv_v)
    assert got == expected
    assert got[(1, 2, 3, 5)] == (Verdict.deterministic(-1), Verdict.deterministic(1))


def test_verify_report_counts_and_entries():
    g = grid(2, 3)
    m = Measurement("YYYYYY")
    report = verify_all_submeasurements(g, m)
    assert report.subsets_checked == 64
    assert report.deterministic_subsets == 4


def test_report_refuses_a_mismatch_that_is_no_submeasurement():
    check = verify_all_submeasurements(grid(2, 3), Measurement("YYYYYY")).mismatches[0]
    with pytest.raises(ValueError, match="YYYIYI is not a submeasurement of XYYYYY"):
        SubmeasurementReport(Measurement("XYYYYY"), "standard", 64, 4, (check,))


def test_verify_matches_product_verdict_pointwise():
    g = star(4)
    m = Measurement("XYXZ")
    expected = []
    for k in range(len(m.support()) + 1):
        for subset in itertools.combinations(m.support(), k):
            oracle_v = classify(g, m.restricted_to(subset))
            lhv_v = product_report(g, m, subset).verdict
            if oracle_v != lhv_v:
                expected.append((subset, oracle_v, lhv_v))
    report = verify_all_submeasurements(g, m)
    got = [(c.sites, c.oracle, c.lhv) for c in report.mismatches]
    assert sorted(got) == sorted(expected)


def test_verify_star_graphs_clean():
    for n in (3, 4):
        g = star(n)
        for letters in itertools.product("IXYZ", repeat=n):
            report = verify_all_submeasurements(g, Measurement("".join(letters)))
            assert report.clean


def test_verify_uniform_everywhere_trivially_clean():
    g = chain(4)
    m = Measurement("ZIIZ")
    report = verify_all_submeasurements(g, m)
    assert report.clean
    assert report.deterministic_subsets == 1  # only the empty subset


# The smallest chains on which the protocol fails: the symmetric rules at
# four sites, the standard rules only at five. Each failure is one certain
# sub whose oracle sign is +1 while the protocol's product is -1.
@pytest.mark.parametrize(
    "letters, rules, mismatches",
    [
        ("XXXXX", STANDARD_RULES, [((1, 3, 5), "XIXIX")]),
        ("XXXXX", SYMMETRIC_RULES, [((1, 3, 5), "XIXIX")]),
        ("XXYY", STANDARD_RULES, []),
        ("XXYY", SYMMETRIC_RULES, [((1, 3, 4), "XIYY")]),
    ],
    ids=["chain5-standard", "chain5-symmetric", "chain4-standard", "chain4-symmetric"],
)
def test_smallest_failing_chains(letters, rules, mismatches):
    report = verify_all_submeasurements(chain(len(letters)), Measurement(letters), rules)
    assert [(c.sites, str(c.sub)) for c in report.mismatches] == mismatches
    for check in report.mismatches:
        assert check.oracle == Verdict.deterministic(1)
        assert check.lhv == Verdict.deterministic(-1)


def star21_and_grid2x3() -> Graph:
    """star:21 on nodes 1..21 beside grid:2x3 on nodes 22..27, no edge between."""
    shifted = tuple((u + 21, v + 21) for u, v in grid(2, 3).edges)
    return Graph(27, star(21).edges + shifted)


def test_verify_guard():
    # star:23 all-X: the 22 leaves share one monomial, so the kernel has
    # dimension 21, one above the guard on walking it
    g = star(23)
    with pytest.raises(UnsupportedSizeError):
        find_certain_submeasurements(g, Measurement("X" * 23))
    # deciding a clean word needs no walk, so its size is no obstacle
    report = verify_all_submeasurements(g, Measurement("X" * 23))
    assert report.clean and report.deterministic_subsets == 2 ** 21
    # star:21 all-X (dimension 19, clean) beside grid:2x3 all-Y (dimension 2,
    # with mismatches): listing the mismatches walks 2^21 subsets
    with pytest.raises(UnsupportedSizeError):
        verify_all_submeasurements(star21_and_grid2x3(), Measurement("X" * 21 + "Y" * 6))


@pytest.fixture
def classify_calls(monkeypatch):
    """The oracle calls the sweep makes, in order: "bits" for a basis word
    confirmed on its masks, "classify" for a word confirmed as a Measurement."""
    calls = []
    original = nogo._product_bits

    def counting_bits(g, x):
        calls.append("bits")
        return original(g, x)

    def counting_classify(g, m):
        calls.append("classify")
        return classify(g, m)

    monkeypatch.setattr(nogo, "_product_bits", counting_bits)
    monkeypatch.setattr(nogo, "classify", counting_classify)
    return calls


def test_clean_verdict_classifies_only_the_basis(classify_calls):
    # star:11 all-X: the leaves' monomials all equal the centre's coin, so the
    # kernel has dimension 9 out of 11 sites; a walk would classify 2^9 words
    report = verify_all_submeasurements(star(11), Measurement("X" * 11))
    assert report.clean and report.deterministic_subsets == 2 ** 9
    assert classify_calls == ["bits"] * 9


def test_mismatches_are_each_classified_once_more(classify_calls):
    report = verify_all_submeasurements(grid(2, 3), Measurement("Y" * 6))
    assert report.deterministic_subsets == 2 ** 2 and len(report.mismatches) == 2
    assert classify_calls == ["bits"] * 2 + ["classify"] * 2


def test_certain_subsets_classify_only_the_basis(classify_calls):
    subs = find_certain_submeasurements(star(11), Measurement("X" * 11))
    assert len(subs) == 2 ** 9
    assert classify_calls == ["bits"] * 9


def test_verify_large_support_small_kernel():
    # ring:21 all-X has 2^21 subsets but, the ring being odd, only the empty
    # set and the whole ring have an empty neighborhood XOR: dimension 1
    g = ring(21)
    report = verify_all_submeasurements(g, Measurement("X" * 21))
    assert report.subsets_checked == 2 ** 21
    assert report.deterministic_subsets == 2 ** 1
    assert report.clean


# ---------------------------------------------------------------------------
# Site invariance
# ---------------------------------------------------------------------------

def test_grid_2x3_site_invariance_single_sub():
    g = grid(2, 3)
    system = site_invariance_system(g, Measurement("YYYYYY"), [({1, 2, 3, 5}, -1)])
    assert sorted(v.sites for v in system.variables) == [(1, 3, 4, 6), (2, 5)]
    assert len(system.equations) == 1
    assert system.equations[0].row == 0  # orbits cancel pairwise
    assert system.equations[0].sign == -1
    sol = gf2_solve(system)
    assert not sol.consistent
    assert sol.certificate == (0,)


def test_grid_2x3_site_invariance_all_found_subs():
    g = grid(2, 3)
    m = Measurement("YYYYYY")
    subs = find_certain_submeasurements(g, m)
    assert ((1, 2, 3, 5), -1) in subs
    assert ((), 1) in subs
    system = site_invariance_system(g, m, subs)
    assert not gf2_solve(system).consistent


def test_all_plus_subs_consistent_with_zero_flips():
    g = star(4)
    m = Measurement("XXXX")
    subs = [(s.support(), 1) for s in [m.restricted_to(()), m.restricted_to((2, 3))]]
    assert classify(g, m.restricted_to((2, 3))) == Verdict.deterministic(1)
    system = site_invariance_system(g, m, subs)
    sol = gf2_solve(system)
    assert sol.consistent
    assert sol.witness == 0  # every variable +1


def test_embedded_grid_counterexamples():
    for p, q in ((0, 0), (0, 1), (1, 0), (1, 1)):
        g, glob, sub = embedded_grid_counterexample(p, q)
        assert is_submeasurement(sub, glob)
        assert classify(g, sub) == Verdict.deterministic(-1)
        system = site_invariance_system(g, glob, [(sub.support(), -1)])
        sol = gf2_solve(system)
        assert not sol.consistent
        _check_certificate(system, sol.certificate)


# sha256 over (n, edges, global letters, sub letters) for 0 <= p, q <= 3, recorded
# while the sub was assembled by its own letter loop.
def test_embedded_grid_counterexamples_are_pinned():
    rows = []
    for p, q in itertools.product(range(4), repeat=2):
        g, glob, sub = embedded_grid_counterexample(p, q)
        rows.append((g.n, g.edges, glob.letters, sub.letters))
    assert _digest(rows) == "7f8d33a837cf5e2368629d7f5e11bbf4f67bffcd3afbbdb1371da0542a04f0cf"


def test_embedded_counterexample_0_0_is_the_2x3_grid():
    g, glob, sub = embedded_grid_counterexample(0, 0)
    assert str(glob) == "YYYYYY"
    assert str(sub) == "YYYIYI"


@pytest.mark.parametrize("p, q", [(-1, 0), (0, -1)])
def test_embedded_counterexample_refuses_a_negative_margin(p, q):
    with pytest.raises(ValueError, match=f"must be non-negative, got {p}, {q}"):
        embedded_grid_counterexample(p, q)


def test_site_invariance_rejects_unmeasured_support():
    g = grid(2, 3)
    with pytest.raises(ValueError, match=r"^support site 4 is unmeasured in the global measurement$"):
        site_invariance_system(g, Measurement("YYYIYI"), [({4,}, 1)])


@pytest.mark.parametrize(
    "g, letters, subs, message",
    [
        (grid(2, 3), "YYYYYY", [({1, 7}, 1)], "node 7 outside 1..6"),
        # sites are checked in ascending order, not in decimal-string order
        (grid(2, 5), "YIYYYYYYYI", [({10, 2}, 1)],
         "support site 2 is unmeasured in the global measurement"),
        (grid(2, 3), "YYYIYI", [({1, 2, 3, 5}, -1), ({5, 4}, 1)],
         "support site 4 is unmeasured in the global measurement"),
        (grid(2, 3), "YYYYYY", [({1, 2, 3, 5}, -1), ({0}, 1)], "node 0 outside 1..6"),
    ],
    ids=["out-of-range", "lowest-unmeasured", "second-unmeasured", "second-out-of-range"],
)
def test_site_invariance_names_the_first_bad_site(g, letters, subs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        site_invariance_system(g, Measurement(letters), subs)


@pytest.mark.parametrize("sign", [0, 2])
def test_site_invariance_rejects_a_sign_that_is_not_plus_or_minus_one(sign):
    g = grid(2, 3)
    with pytest.raises(ValueError, match=rf"\[1, 2, 3, 5\].*got {sign}"):
        site_invariance_system(g, Measurement("YYYYYY"), [({1, 2, 3, 5}, sign)])


def _orbit_flips_consistent(g, m):
    return gf2_solve(site_invariance_system(g, m, find_certain_submeasurements(g, m))).consistent


def test_orbit_flips_are_consistent_under_a_group_of_odd_order():
    # Averaging a per-site solution over a group of odd order gives an
    # orbit-constant one, and per-site flips always solve one word's system:
    # so only a group of even order can make orbit flips inconsistent.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    from graphlhv.graphs import automorphisms

    @st.composite
    def words(draw):
        n = draw(st.integers(3, 7))
        if draw(st.booleans()):
            g = ring(n)
        else:
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
            g = Graph(n, tuple(p for p, k in zip(pairs, keep) if k))
        return g, Measurement(draw(st.text(alphabet="IXYZ", min_size=n, max_size=n)))

    @settings(max_examples=300, deadline=None)
    @given(words())
    def check(word):
        g, m = word
        if len(automorphisms(g, m.letters)) % 2:
            assert _orbit_flips_consistent(g, m)

    check()
    # the first inconsistent word: its group has order 4
    g, m = ring(6), Measurement("XYYXYY")
    assert len(automorphisms(g, m.letters)) == 4
    assert not _orbit_flips_consistent(g, m)


def _orbit_flips_from_the_basis(g, m):
    basis, bits = nogo._signed_kernel(g, m)
    subs = [(_sites(vec), -1 if bit else 1) for vec, bit in zip(basis, bits)]
    return gf2_solve(site_invariance_system(g, m, subs)).consistent


def test_basis_equations_decide_the_orbit_flip_system():
    # The sign and the flip parity are both linear on the kernel, so every
    # certain subset's equation is a sum of the k basis vectors' equations.
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def words(draw):
        n = draw(st.integers(1, 7))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, tuple(p for p, k in zip(pairs, keep) if k))
        return g, Measurement(draw(st.text(alphabet="IXYZ", min_size=n, max_size=n)))

    @settings(max_examples=200, deadline=None)
    @given(words())
    def check(word):
        g, m = word
        assert _orbit_flips_from_the_basis(g, m) == _orbit_flips_consistent(g, m)

    check()
    # random words are almost never inconsistent, so the two known ones are fixed
    for g, letters in ((grid(2, 3), "YYYYYY"), (ring(6), "XYYXYY")):
        m = Measurement(letters)
        assert not _orbit_flips_consistent(g, m)
        assert not _orbit_flips_from_the_basis(g, m)


def _system_or_error(build, *args):
    """A system's variables and equations, or the text of its ValueError."""
    try:
        system = build(*args)
    except ValueError as exc:
        return str(exc)
    return system.variables, system.equations  # an Equation compares row, sign and label


def test_orbit_key_matches_its_own_loop():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def instances(draw):
        n = draw(st.integers(1, 7))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, tuple(p for p, k in zip(pairs, keep) if k))
        m = Measurement(draw(st.text(alphabet="IXYZ", min_size=n, max_size=n)))
        if draw(st.booleans()):
            return g, m, find_certain_submeasurements(g, m)
        # raw site lists with repeats: measured sites only, or any of 0..n + 1,
        # so that an unmeasured site or one outside 1..n raises
        if m.support() and draw(st.booleans()):
            sites = st.lists(st.sampled_from(m.support()), max_size=2 * n)
        else:
            sites = st.lists(st.integers(0, n + 1), max_size=2 * n)
        return g, m, draw(st.lists(st.tuples(sites, st.sampled_from((1, -1))), max_size=6))

    @settings(max_examples=120, deadline=None)
    @given(instances())
    def check(instance):
        assert (_system_or_error(site_invariance_system, *instance)
                == _system_or_error(orbit_keyed_system, *instance))

    check()


def test_view_key_matches_its_own_loop():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @st.composite
    def instances(draw):
        n = draw(st.integers(12, 84))
        bound = distance_bound(n)
        g = padded_ring(n)
        cases = nogo._ring_cases(g, (n - (n - 12) % 24) // 12)
        return g, cases, draw(st.sampled_from((0, 1, bound, bound + 3)))

    @settings(max_examples=80, deadline=None)
    @given(instances())
    def check(instance):
        got = distance_constraint_system(*instance)
        want = view_keyed_system(*instance)
        assert (got.variables, got.equations) == (want.variables, want.equations)

    check()


def test_complete_bipartite_subs_clean():
    g = complete_bipartite(2, 2)
    for letters in itertools.product("IXYZ", repeat=4):
        report = verify_all_submeasurements(g, Measurement("".join(letters)))
        assert report.clean
