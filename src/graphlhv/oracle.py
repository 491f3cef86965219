"""Exact quantum predictions for Pauli measurements on graph states.

A Pauli measurement on a graph state is deterministic exactly when the word
(or its negative) is a product of the stabilizer generators; otherwise the
outcome is uniformly random. ``classify`` decides this through the generator
structure and reads the sign off a closed form, (-1)^(e(G[S]) + |Y(S)|/2),
with popcounts over the generator set S. Both read only the word's x and z
bitmasks, so ``_classify_bits`` serves callers that hold the masks and no
word. ``statevector_verdict`` recomputes it from a dense state vector built
with controlled-phase gates, sharing no code with the stabilizer path so the
two can cross-check each other. Its
amplitudes are scaled to +1 or -1, so 2^n times an expectation value is an
exact integer and every verdict is decided without rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Graph, UnsupportedSizeError
from .pauli import Measurement

_STATEVECTOR_GUARD = 20


@dataclass(frozen=True)
class Verdict:
    """Outcome prediction: deterministic with a value of +1 or -1, or uniform."""

    kind: str
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("deterministic", "uniform"):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.kind == "deterministic":
            if self.value not in (1, -1):
                raise ValueError("deterministic verdict needs a value of +1 or -1")
        elif self.value is not None:
            raise ValueError("uniform verdict carries no value")

    @classmethod
    def deterministic(cls, value: int) -> "Verdict":
        """The shared verdict for a value of +1 or -1; any other value raises."""
        if value == 1:
            return _PLUS
        if value == -1:
            return _MINUS
        return cls("deterministic", value)

    @classmethod
    def uniform(cls) -> "Verdict":
        return _UNIFORM

    @property
    def is_deterministic(self) -> bool:
        return self.kind == "deterministic"

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def __str__(self) -> str:
        if self.is_deterministic:
            return f"deterministic({self.value:+d})"
        return "uniform"


# The three verdicts there are, built (and validated) once; frozen, so sharing
# them is the same as building a fresh one.
_PLUS = Verdict("deterministic", 1)
_MINUS = Verdict("deterministic", -1)
_UNIFORM = Verdict("uniform")


def _z_image(g: Graph, xmask: int) -> int:
    """XOR of neighborhoods over the selected sites (the forced z-part)."""
    out = 0
    masks = g.neighbor_masks
    m = xmask
    while m:
        low = m & -m
        out ^= masks[low.bit_length() - 1]
        m ^= low
    return out


def _stabilizer_sign(g: Graph, xmask: int, zmask: int) -> int:
    """Sign of the generator product over the sites S of xmask, written with
    Y letters, where zmask is its z-part ``_z_image(g, xmask)``.

    Moving each X of the product of X_j Z_N(j) to the left crosses one Z per
    edge of G[S], and each Y site (S & zmask) reads XZ = -iY, so the sign is
    (-1)^(e + |Y|/2) with e the sum of |N(j) & S| over S, halved.
    """
    masks = g.neighbor_masks
    degrees = 0
    m = xmask
    while m:
        low = m & -m
        degrees += (masks[low.bit_length() - 1] & xmask).bit_count()
        m ^= low
    return -1 if (degrees // 2 + (xmask & zmask).bit_count() // 2) & 1 else 1


def classify(g: Graph, m: Measurement) -> Verdict:
    """Classify a measurement by stabilizer membership.

    Each generator is the only one acting as X or Y at its own site, so the
    generator exponents of any candidate stabilizer element are forced by the
    X/Y support of the word. It only remains to compare letters and take the
    sign of the product in closed form: ``_classify_bits`` on the word's
    masks, once the word is checked against g.
    """
    g.check_measurement(m)
    return _classify_bits(g, *m.bits())


def _classify_bits(g: Graph, xmask: int, zmask: int) -> Verdict:
    """``classify`` on the x and z masks of a word (bit j - 1 for site j),
    which the caller has checked against g: uniform unless the z-part is the
    z-image of the x-part, else the closed-form sign."""
    if _z_image(g, xmask) != zmask:
        return Verdict.uniform()
    return Verdict.deterministic(_stabilizer_sign(g, xmask, zmask))


def _build_state(g: Graph):
    """Dense graph-state vector: |+...+> with a CZ applied along every edge,
    scaled by 2^(n/2) so that every amplitude is an int8 +1 or -1.

    numpy is imported here and in ``_expectation``, not with the module, so
    the stabilizer path runs without loading it.
    """
    import numpy as np

    idx = np.arange(1 << g.n)
    odd = np.zeros_like(idx)
    for u, v in g.edges:
        odd ^= (idx >> (u - 1)) & (idx >> (v - 1)) & 1
    return (1 - 2 * odd).astype(np.int8)


def _expectation(g: Graph, m: Measurement, psi) -> int:
    """2^n times the expectation value of the word, an exact integer, from the
    int8 array that ``_build_state`` returns."""
    import numpy as np

    idx = np.arange(psi.shape[0])
    xmask, zymask = m.bits()  # zymask: sites whose bit flips the sign, Z and Y
    n_y = (xmask & zymask).bit_count()
    signs = 1 - 2 * (np.bitwise_count(idx & zymask) & 1).astype(np.int8)
    # sum of psi[i ^ x] * psi[i] * (-1)^|i & z|; int8 terms, int64 accumulator
    total = int(np.sum(psi[idx ^ xmask] * psi * signs, dtype=np.int64))
    # 2^n <P> = i^n_y * total, real only if total vanishes for odd n_y
    if n_y % 2 and total:
        raise RuntimeError(f"expectation value {total}i/2^{g.n} of a Hermitian word is not real")
    return -total if n_y % 4 == 2 else total


def statevector_verdict(g: Graph, m: Measurement) -> Verdict:
    """Classify a measurement from the dense state vector (guarded at n <= 20)."""
    if g.n > _STATEVECTOR_GUARD:
        raise UnsupportedSizeError(
            f"state-vector check is guarded at {_STATEVECTOR_GUARD} qubits, got {g.n}"
        )
    g.check_measurement(m)
    scaled = _expectation(g, m, _build_state(g))
    if scaled == 0:
        return Verdict.uniform()
    if abs(scaled) == 1 << g.n:
        return Verdict.deterministic(1 if scaled > 0 else -1)
    raise RuntimeError(f"expectation value {scaled}/2^{g.n} is not -1, 0 or +1")


def _signed_word(g: Graph, xmask: int) -> tuple[Measurement, int]:
    """Letters and sign of the product of the generators at the sites of xmask."""
    zmask = _z_image(g, xmask)
    letters = "".join("IXZY"[(xmask >> j & 1) | (zmask >> j & 1) << 1] for j in range(g.n))
    return Measurement(letters), _stabilizer_sign(g, xmask, zmask)


def stabilizer_word(g: Graph, sites: Iterable[int]) -> tuple[Measurement, int]:
    """The product of the generators at the sites, as (letters, sign).

    X or Y stands on the sites themselves and Z or Y on the XOR of their
    neighbourhoods; the sign is the closed form. A repeated site counts once,
    and a site outside 1..n raises ValueError.
    """
    xmask = 0
    for j in sites:
        g.check_node(j)
        xmask |= 1 << (j - 1)
    return _signed_word(g, xmask)


def enumerate_stabilizer_measurements(g: Graph) -> Iterator[tuple[Measurement, int]]:
    """Yield the 2^n signed stabilizer words as (letters, sign) pairs.

    Entries are ordered by the generator bit-vector read as an integer with
    site 1 in the lowest bit; letter strings are pairwise distinct because
    the X/Y support of a word reads the bit-vector back.
    """
    for xmask in range(1 << g.n):
        yield _signed_word(g, xmask)
