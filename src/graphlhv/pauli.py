"""Phase-tracked Pauli words and graph-state stabilizer generators.

Phases are tracked as exponents of i modulo 4 because single-site products
genuinely produce imaginary factors (XZ = -iY, YZ = iX, ...); only full
generator products are guaranteed real. ``multiply`` is the package's one
phase tracker: generator products are ordered products of ``generator``
words, and they serve as the independent reference for the closed-form
signs of the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Graph

PAULI_LETTERS = "IXYZ"

# Single-site products left*right -> (letter, i exponent). XY = iZ, YZ = iX,
# ZX = iY; the reversed orders pick up -i (exponent 3).
_PRODUCT: dict[tuple[str, str], tuple[str, int]] = {
    ("I", "I"): ("I", 0), ("I", "X"): ("X", 0), ("I", "Y"): ("Y", 0), ("I", "Z"): ("Z", 0),
    ("X", "I"): ("X", 0), ("X", "X"): ("I", 0), ("X", "Y"): ("Z", 1), ("X", "Z"): ("Y", 3),
    ("Y", "I"): ("Y", 0), ("Y", "X"): ("Z", 3), ("Y", "Y"): ("I", 0), ("Y", "Z"): ("X", 1),
    ("Z", "I"): ("Z", 0), ("Z", "X"): ("Y", 1), ("Z", "Y"): ("X", 3), ("Z", "Z"): ("I", 0),
}

_PHASE_LABEL = {0: "+", 1: "+i", 2: "-", 3: "-i"}

# Deletes the four Pauli letters, so whatever survives a translate is invalid.
_DROP_PAULI = str.maketrans("", "", PAULI_LETTERS)

# Binary digits of the x and z components: X/Y carry x, Y/Z carry z.
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")

# Hex digit x + 2z of a site back to its letter, the inverse of the two above.
_HEX_LETTERS = str.maketrans("0123", "IXZY")


def _check_letters(letters: str) -> None:
    bad = letters.translate(_DROP_PAULI)
    if bad:
        raise ValueError(f"invalid Pauli letters {sorted(set(bad))}; expected only I, X, Y, Z")


@dataclass(frozen=True)
class PhasedPauli:
    """An n-site Pauli word together with a phase i**phase."""

    letters: str
    phase: int = 0

    def __post_init__(self) -> None:
        _check_letters(self.letters)
        object.__setattr__(self, "phase", self.phase % 4)

    @classmethod
    def identity(cls, n: int) -> "PhasedPauli":
        return cls("I" * n)

    def __str__(self) -> str:
        return _PHASE_LABEL[self.phase] + self.letters

    @property
    def sign(self) -> int:
        """+1 or -1 for a real word; raises on an imaginary phase."""
        if self.phase == 0:
            return 1
        if self.phase == 2:
            return -1
        raise ValueError(f"word has imaginary phase i**{self.phase}")


def multiply(p: PhasedPauli, q: PhasedPauli) -> PhasedPauli:
    """Sitewise Pauli product with the accumulated i exponent."""
    if len(p.letters) != len(q.letters):
        raise ValueError(f"length mismatch: {len(p.letters)} vs {len(q.letters)}")
    phase = p.phase + q.phase
    out = []
    for a, b in zip(p.letters, q.letters):
        letter, ph = _PRODUCT[(a, b)]
        out.append(letter)
        phase += ph
    return PhasedPauli("".join(out), phase % 4)


@dataclass(frozen=True)
class Measurement:
    """What the parties measure: one letter per site, no phase.

    Site 1 is the leftmost character of ``letters``.
    """

    letters: str

    def __post_init__(self) -> None:
        _check_letters(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters

    def letter(self, j: int) -> str:
        if not (1 <= j <= len(self.letters)):
            raise ValueError(f"site {j} outside 1..{len(self.letters)}")
        return self.letters[j - 1]

    def support(self) -> tuple[int, ...]:
        return tuple(j for j, ch in enumerate(self.letters, start=1) if ch != "I")

    def restricted_to(self, sites: Iterable[int]) -> "Measurement":
        """Submeasurement keeping the given sites and writing I elsewhere.

        Raises ValueError for a site outside 1..n; a repeated site is kept once.
        """
        letters = self.letters
        n = len(letters)
        out = ["I"] * n
        for j in sites:
            if not 1 <= j <= n:
                raise ValueError(f"site {j} outside 1..{n}")
            out[j - 1] = letters[j - 1]
        return Measurement("".join(out))

    def bits(self) -> tuple[int, int]:
        """(x-component mask, z-component mask): X/Y set x bits, Y/Z set z bits."""
        return _bits(self.letters)


def _bits(letters: str) -> tuple[int, int]:
    """``Measurement.bits`` of letters already checked. Site 1 is the lowest
    bit, so each mask is the reversed letters read as binary digits; base-2
    parsing has no digit limit."""
    digits = "0" + letters[::-1]  # "0" keeps the empty word parseable
    return int(digits.translate(_X_DIGITS), 2), int(digits.translate(_Z_DIGITS), 2)


def _letters(xmask: int, zmask: int, n: int) -> str:
    """The n letters of the x and z masks, the inverse of ``_bits``. Each
    mask's binary digits read as hex put bit j in hex digit j, so site j's
    digit of x + 2z is its letter's code; base 16, like base 2, parses and
    prints with no digit limit."""
    code = int(bin(xmask)[2:], 16) + 2 * int(bin(zmask)[2:], 16)
    return format(code, "x")[::-1].ljust(n, "0")[:n].translate(_HEX_LETTERS)


def is_submeasurement(sub: Measurement, glob: Measurement) -> bool:
    """True when every non-identity letter of sub matches glob at that site."""
    if len(sub) != len(glob):
        raise ValueError(f"length mismatch: {len(sub)} vs {len(glob)}")
    return all(s == "I" or s == g for s, g in zip(sub.letters, glob.letters))


def generator(g: Graph, j: int) -> PhasedPauli:
    """Stabilizer generator of the graph state: X at j, Z on the neighborhood."""
    g.check_node(j)
    letters = ["I"] * g.n
    letters[j - 1] = "X"
    for k in g.neighborhood(j):
        letters[k - 1] = "Z"
    return PhasedPauli("".join(letters), 0)


def generator_product(g: Graph, a: Sequence[int]) -> PhasedPauli:
    """Ordered product of the generators selected by the bit-vector a.

    The result of a generator product is always real; an imaginary phase
    would indicate a bug and raises RuntimeError.
    """
    if len(a) != g.n:
        raise ValueError(f"bit-vector length {len(a)} does not match n={g.n}")
    if any(bit not in (0, 1) for bit in a):
        raise ValueError("a must contain only bits 0 and 1")
    p = PhasedPauli.identity(g.n)
    for j, bit in enumerate(a, start=1):
        if bit:
            p = multiply(p, generator(g, j))
    if p.phase not in (0, 2):
        raise RuntimeError(f"generator product produced imaginary phase i**{p.phase}")
    return p
