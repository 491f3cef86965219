"""Stabilizer classification against the independent state-vector oracle."""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from graphlhv.chain_protocol import verify_chain_exhaustive
from graphlhv.graphs import Graph, UnsupportedSizeError, chain, grid, ring, star
from graphlhv.nogo import verify_all_submeasurements
from graphlhv.oracle import (
    Verdict,
    _build_state,
    _expectation,
    classify,
    enumerate_stabilizer_measurements,
    stabilizer_word,
    statevector_verdict,
)
from graphlhv.pauli import Measurement, generator_product
from reference import edge_loop_state

_MATS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _kron_state(g):
    """Third opinion: graph state built from explicit Kronecker products."""
    plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
    psi = plus
    for _ in range(g.n - 1):
        psi = np.kron(psi, plus)
    # amplitude index uses bit j-1 for site j, so site 1 is the fastest bit
    cz = np.ones(psi.shape[0])
    for u, v in g.edges:
        for b in range(psi.shape[0]):
            if (b >> (u - 1)) & 1 and (b >> (v - 1)) & 1:
                cz[b] = -cz[b]
    return psi * cz


def _kron_expectation(g, m):
    psi = _kron_state(g)
    op = np.eye(1)
    for ch in m.letters:  # site 1 = lowest bit = rightmost kron factor
        op = np.kron(_MATS[ch], op)
    return (psi.conj() @ (op @ psi)).real


def test_verdict_validation():
    with pytest.raises(ValueError):
        Verdict("deterministic")
    with pytest.raises(ValueError):
        Verdict("uniform", 1)
    with pytest.raises(ValueError):
        Verdict("maybe")
    assert Verdict.deterministic(-1).to_json_dict() == {"kind": "deterministic", "value": -1}


def test_verdict_constructors_build_the_validated_values():
    assert Verdict.deterministic(1) == Verdict("deterministic", 1)
    assert Verdict.deterministic(-1) == Verdict("deterministic", -1)
    assert Verdict.uniform() == Verdict("uniform")
    assert Verdict.deterministic(1) != Verdict.deterministic(-1)
    for bad in (0, 2, None):
        with pytest.raises(ValueError, match="needs a value of [+]1 or -1"):
            Verdict.deterministic(bad)
    with pytest.raises(ValueError, match="carries no value"):
        Verdict("uniform", 1)


def test_clean_sweeps_build_no_verdict(monkeypatch):
    # The sweeps decide certainty and signs on masks, so a Verdict is built
    # only where one is returned, as by classify here.
    built = []
    check = Verdict.__post_init__
    monkeypatch.setattr(Verdict, "__post_init__", lambda self: built.append(self) or check(self))
    assert verify_all_submeasurements(star(11), Measurement("X" * 11)).clean
    assert verify_all_submeasurements(grid(3, 3), Measurement("Y" * 9)).clean
    assert verify_chain_exhaustive(5).clean
    assert verify_chain_exhaustive(5, broadcast_y=True).clean
    assert built == []
    verdict = classify(ring(4), Measurement("XZIZ"))
    assert built == [verdict] and str(verdict) == "deterministic(+1)"


def test_classify_ring_examples():
    g = ring(12)
    assert classify(g, Measurement("IXIXIXIXIXIX")) == Verdict.deterministic(1)
    letters = "".join(
        "Y" if j % 2 == 1 else ("X" if j in {2, 6, 10} else "I") for j in range(1, 13)
    )
    assert classify(g, Measurement(letters)) == Verdict.deterministic(-1)


def test_classify_single_site_uniform():
    for g in (ring(4), chain(3), star(4)):
        for letter in "XYZ":
            m = Measurement(letter + "I" * (g.n - 1))
            assert classify(g, m) == Verdict.uniform()


def test_classify_grid_certain_sub():
    assert classify(grid(2, 3), Measurement("YYYIYI")) == Verdict.deterministic(-1)


def test_statevector_examples():
    assert statevector_verdict(Graph(2, ((1, 2),)), Measurement("YY")) == Verdict.deterministic(1)
    assert statevector_verdict(chain(3), Measurement("YXY")) == Verdict.deterministic(-1)
    for g in (chain(3), ring(4)):
        assert statevector_verdict(g, Measurement("I" * g.n)) == Verdict.deterministic(1)


def test_statevector_guard():
    # n = 20 is the edge: accepted, and it agrees with the closed form
    g = ring(20)
    m = Measurement("YYZ" + "I" * 16 + "Z")  # generators 1 and 2 multiplied
    assert classify(g, m).is_deterministic
    assert statevector_verdict(g, m) == classify(g, m)
    with pytest.raises(UnsupportedSizeError):
        statevector_verdict(ring(21), Measurement("I" * 21))


def _assert_matches_kron(g, m):
    e = _kron_expectation(g, m)
    v = statevector_verdict(g, m)
    if abs(e - 1) < 1e-9:
        assert v == Verdict.deterministic(1)
    elif abs(e + 1) < 1e-9:
        assert v == Verdict.deterministic(-1)
    else:
        assert abs(e) < 1e-9
        assert v == Verdict.uniform()


def test_statevector_matches_kron_oracle():
    # cross-check the vectorized state-vector path against explicit kron math
    for g in (chain(3), ring(4), star(4), grid(2, 2)):
        for letters in itertools.product("IXYZ", repeat=g.n):
            _assert_matches_kron(g, Measurement("".join(letters)))


def test_oracles_agree_small_suite():
    for g in (ring(3), chain(2), star(3), grid(2, 2)):
        for letters in itertools.product("IXYZ", repeat=g.n):
            m = Measurement("".join(letters))
            assert classify(g, m) == statevector_verdict(g, m)


def test_enumeration_chain2():
    entries = [(str(m), s) for m, s in enumerate_stabilizer_measurements(chain(2))]
    assert entries == [("II", 1), ("XZ", 1), ("ZX", 1), ("YY", 1)]


def test_enumeration_counts_and_distinct():
    for g in (chain(3), ring(5), grid(2, 2)):
        entries = list(enumerate_stabilizer_measurements(g))
        assert len(entries) == 2 ** g.n
        assert len({str(m) for m, _ in entries}) == 2 ** g.n
        assert (str(entries[0][0]), entries[0][1]) == ("I" * g.n, 1)


def test_enumeration_ten_qubit_sign():
    g = chain(10)
    target = {1, 2, 3, 5, 6, 9}
    amask = sum(1 << (j - 1) for j in target)
    entries = list(enumerate_stabilizer_measurements(g))
    m, s = entries[amask]
    assert str(m) == "YXYIYYZZXZ"
    assert s == -1


def test_enumeration_is_lazy():
    # entries are produced one at a time, so a large graph needs no guard
    assert next(enumerate_stabilizer_measurements(ring(21))) == (Measurement("I" * 21), 1)


def test_deterministic_count_is_stabilizer_size():
    for g in (chain(3), ring(4), star(4)):
        det = sum(
            1
            for letters in itertools.product("IXYZ", repeat=g.n)
            if classify(g, Measurement("".join(letters))).is_deterministic
        )
        assert det == 2 ** g.n


def test_letters_determine_generator_vector():
    # X/Y support of an enumerated word reads the bit-vector back
    g = grid(2, 2)
    for amask, (m, _) in enumerate(enumerate_stabilizer_measurements(g)):
        xy = sum(1 << (j - 1) for j in m.support() if m.letter(j) in "XY")
        assert xy == amask


def test_measurement_length_checked():
    with pytest.raises(ValueError):
        classify(chain(3), Measurement("XX"))
    with pytest.raises(ValueError):
        statevector_verdict(chain(3), Measurement("XX"))


def _random_graphs(st, max_n):
    @st.composite
    def graphs(draw):
        n = draw(st.integers(1, max_n))
        pairs = itertools.combinations(range(1, n + 1), 2)
        return Graph(n, tuple(p for p in pairs if draw(st.booleans())))

    return graphs()


def test_statevector_matches_kron_oracle_on_random_graphs():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=150, deadline=None)
    @given(_random_graphs(st, 6), st.data())
    def check(g, data):
        letters = data.draw(st.text(alphabet="IXYZ", min_size=g.n, max_size=g.n))
        _assert_matches_kron(g, Measurement(letters))

    check()


def test_stabilizer_word_matches_generator_product():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None)
    @given(_random_graphs(st, 8), st.data())
    def check(g, data):
        sites = data.draw(st.lists(st.integers(1, g.n), max_size=2 * g.n))
        word, sign = stabilizer_word(g, sites)
        p = generator_product(g, [int(j in sites) for j in range(1, g.n + 1)])
        assert (word.letters, sign) == (p.letters, p.sign)

    check()


def test_stabilizer_word_validates_sites():
    g = ring(5)
    for bad in (0, 6):
        with pytest.raises(ValueError, match=f"node {bad} outside 1..5"):
            stabilizer_word(g, [1, bad])
    # a repeated site counts once
    word, sign = stabilizer_word(g, [2, 3, 2])
    assert (word, sign) == stabilizer_word(g, [3, 2])
    assert str(word) == "ZYYZI" and sign == generator_product(g, [0, 1, 1, 0, 0]).sign == 1


def test_closed_form_sign_matches_generator_product():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None)
    @given(_random_graphs(st, 10), st.data())
    def check(g, data):
        a = data.draw(st.lists(st.integers(0, 1), min_size=g.n, max_size=g.n))
        p = generator_product(g, a)
        assert classify(g, Measurement(p.letters)) == Verdict.deterministic(p.sign)

    check()


def test_enumeration_signs_match_generator_products():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=40, deadline=None)
    @given(_random_graphs(st, 6))
    def check(g):
        for amask, (m, sign) in enumerate(enumerate_stabilizer_measurements(g)):
            p = generator_product(g, [(amask >> j) & 1 for j in range(g.n)])
            assert (m.letters, sign) == (p.letters, p.sign)

    check()


_NON_STABILIZER_STATE = """
import numpy as np
import pytest
import graphlhv.oracle as oracle
from graphlhv import Measurement, chain, statevector_verdict

# 2^3 <XII> = 4 on this vector: neither 0 nor +-8, so not a graph state
oracle._build_state = lambda g: np.array([1] * 7 + [-1], dtype=np.int8)
with pytest.raises(RuntimeError, match="not -1, 0 or [+]1"):
    statevector_verdict(chain(3), Measurement("XII"))
print("raised")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_non_stabilizer_total_raises_even_under_optimization(flags):
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _NON_STABILIZER_STATE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"


def test_statevector_totals_are_exact_integers():
    g = chain(10)
    psi = _build_state(g)
    assert psi.dtype == np.int8 and set(psi.tolist()) == {1, -1}
    for letters, total in (("I" * 10, 1024), ("YXYIYYZZXZ", -1024), ("XIIIIIIIII", 0)):
        assert _expectation(g, Measurement(letters), psi) == total
    # 2^14 one-terms at the guard: an int8 accumulator would wrap
    g = ring(14)
    assert _expectation(g, Measurement("I" * 14), _build_state(g)) == 1 << 14


def test_state_grown_qubit_by_qubit_matches_the_edge_loop():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    def same(g):
        psi, want = _build_state(g), edge_loop_state(g)
        assert psi.dtype == want.dtype == np.int8
        assert np.array_equal(psi, want)

    @settings(max_examples=100, deadline=None)
    @given(_random_graphs(st, 12))
    def check(g):
        same(g)

    check()
    same(ring(20))
