"""Pauli algebra: single-site table, generators, generator products."""

import itertools
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from graphlhv.graphs import chain, grid, ring, star
from graphlhv.pauli import (
    Measurement,
    PhasedPauli,
    generator,
    generator_product,
    is_submeasurement,
    multiply,
)

_MATS = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def test_all_16_single_site_products_match_matrices():
    # independent oracle: multiply the actual 2x2 matrices
    for a, b in itertools.product("IXYZ", repeat=2):
        got = multiply(PhasedPauli(a), PhasedPauli(b))
        want = _MATS[a] @ _MATS[b]
        rebuilt = (1j) ** got.phase * _MATS[got.letters]
        assert np.allclose(rebuilt, want), (a, b, str(got))


def test_quoted_products():
    assert str(multiply(PhasedPauli("X"), PhasedPauli("Z"))) == "-iY"
    assert str(multiply(PhasedPauli("Y"), PhasedPauli("Z"))) == "+iX"
    assert str(multiply(PhasedPauli("Z"), PhasedPauli("X"))) == "+iY"


def test_multiply_associative_with_phases():
    rng = random.Random(3)
    for _ in range(50):
        words = [
            PhasedPauli("".join(rng.choice("IXYZ") for _ in range(4)), rng.randrange(4))
            for _ in range(3)
        ]
        p, q, r = words
        assert (p * q) * r == p * (q * r)


def test_square_is_identity_with_plus_sign():
    rng = random.Random(5)
    for _ in range(30):
        p = PhasedPauli("".join(rng.choice("IXYZ") for _ in range(6)))
        sq = p * p
        assert sq.letters == "I" * 6
        assert sq.phase == 0


def test_multiply_length_mismatch():
    with pytest.raises(ValueError):
        multiply(PhasedPauli("XX"), PhasedPauli("X"))


def test_generator_examples():
    assert str(generator(chain(10), 2)) == "+ZXZIIIIIII"
    assert str(generator(star(4), 1)) == "+XZZZ"
    g = generator(ring(12), 1)
    assert g.letters[0] == "X" and g.letters[1] == "Z" and g.letters[11] == "Z"
    assert g.letters[2:11] == "I" * 9


def test_generator_product_ten_qubit_example():
    sites = {1, 2, 3, 5, 6, 9}
    a = [1 if j in sites else 0 for j in range(1, 11)]
    p = generator_product(chain(10), a)
    assert p == PhasedPauli("YXYIYYZZXZ", 2)
    assert p.sign == -1


def test_generator_product_identity():
    for g in (chain(4), ring(5), grid(2, 2)):
        assert generator_product(g, [0] * g.n) == PhasedPauli.identity(g.n)


def test_generator_product_even_ring_sites():
    g = ring(12)
    a = [1 if j % 2 == 0 else 0 for j in range(1, 13)]
    p = generator_product(g, a)
    assert p.sign == 1
    assert p.letters == "IXIXIXIXIXIX"


def test_generator_products_commute_and_compose():
    rng = random.Random(11)
    for g in (chain(5), ring(6), star(5), grid(2, 3)):
        for _ in range(25):
            a = [rng.randrange(2) for _ in range(g.n)]
            b = [rng.randrange(2) for _ in range(g.n)]
            pa, pb = generator_product(g, a), generator_product(g, b)
            assert pa * pb == pb * pa
            ab = [x ^ y for x, y in zip(a, b)]
            assert pa * pb == generator_product(g, ab)


def test_generator_product_has_the_pinned_sign():
    g = chain(10)
    assert generator_product(g, [1, 1, 1, 0, 1, 1, 0, 0, 1, 0]).sign == -1
    assert generator_product(g, [0] * 10).sign == 1


def test_generator_product_validation():
    with pytest.raises(ValueError):
        generator_product(chain(3), [0, 1])
    with pytest.raises(ValueError):
        generator_product(chain(3), [0, 2, 0])


def test_is_submeasurement():
    glob = Measurement("YYYYYY")
    assert is_submeasurement(Measurement("YYYIYI"), glob)
    assert not is_submeasurement(Measurement("X"), Measurement("Y"))
    assert is_submeasurement(Measurement("III"), Measurement("XYZ"))
    with pytest.raises(ValueError):
        is_submeasurement(Measurement("I"), Measurement("II"))


def test_measurement_accessors():
    m = Measurement("YYYIYI")
    assert m.support() == (1, 2, 3, 5)
    assert m.letter(4) == "I"
    for site in (0, 7):
        with pytest.raises(ValueError, match=f"site {site} outside 1..6"):
            m.letter(site)
    assert str(m.restricted_to({1, 3})) == "YIYIII"
    assert m.bits() == (0b010111, 0b010111)
    with pytest.raises(ValueError, match=re.escape(
            "invalid Pauli letters ['Q']; expected only I, X, Y, Z")):
        Measurement("XQ")
    with pytest.raises(ValueError, match=re.escape("invalid Pauli letters ['a', 'x']")):
        Measurement("xIaXx")


def _reference_bits(letters):
    x = z = 0
    for j, ch in enumerate(letters):
        x |= (ch in "XY") << j
        z |= (ch in "YZ") << j
    return x, z


def test_bits_match_a_per_letter_reference():
    rng = random.Random(7)
    words = ["", "I", "I" * 9]
    words += ["".join(rng.choice("IXYZ") for _ in range(rng.randrange(1, 40))) for _ in range(200)]
    # 20,000 letters: parsing the masks in base 2 is exempt from the
    # 4,300-digit limit on int() from a string
    words.append("".join(rng.choice("IXYZ") for _ in range(20_000)))
    for letters in words:
        assert Measurement(letters).bits() == _reference_bits(letters), letters[:40]
    assert Measurement("I" * 9).bits() == (0, 0)
    assert Measurement(words[-1]).bits()[0].bit_length() > 19_900


def test_restricted_to_checks_its_sites():
    m = Measurement("XY")
    assert str(m.restricted_to([2, 2])) == "IY"
    assert str(m.restricted_to([])) == "II"
    assert str(m.restricted_to(iter([2, 1]))) == "XY"
    for bad in ([0, 5], [3], [1, 0], [-1]):
        with pytest.raises(ValueError, match="outside 1..2"):
            m.restricted_to(bad)


def test_phased_pauli_rendering():
    assert str(PhasedPauli("YY", 0)) == "+YY"
    assert str(PhasedPauli("YY", 2)) == "-YY"
    assert str(PhasedPauli("X", 1)) == "+iX"
    assert str(PhasedPauli("X", 3)) == "-iX"
    with pytest.raises(ValueError):
        PhasedPauli("X", 1).sign


_IMAGINARY_PHASE = """
import pytest
import graphlhv.pauli as pauli
from graphlhv import generator_product, ring

def fake(p, q):
    return pauli.PhasedPauli("I" * len(p), 1)  # an imaginary generator product
pauli.multiply = fake
with pytest.raises(RuntimeError, match="imaginary"):
    generator_product(ring(3), [1, 0, 0])
print("raised")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_imaginary_phase_raises_even_under_optimization(flags):
    # the invariant is an exception, not an assert that -O would strip
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _IMAGINARY_PHASE], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"
