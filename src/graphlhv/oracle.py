"""Exact quantum predictions for Pauli measurements on graph states.

A Pauli measurement on a graph state is deterministic exactly when the word
(or its negative) is a product of the stabilizer generators; otherwise the
outcome is uniformly random. ``classify`` decides this through the generator
structure and reads the sign off a closed form, (-1)^(e(G[S]) + |Y(S)|/2),
with popcounts over the generator set S. One pass over S, ``_product_bits``,
gives both the z-part and the sign from the word's x bitmask, so it also
serves callers that hold the masks and no word. ``statevector_verdict``
recomputes it from a dense state vector built with controlled-phase gates,
sharing no code with the stabilizer path so the two can cross-check each
other. Its amplitudes are scaled to +1 or -1, so 2^n times an expectation
value is an exact integer and every verdict is decided without rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Graph, UnsupportedSizeError
from .pauli import Measurement, _letters

_STATEVECTOR_GUARD = 20


@dataclass(frozen=True)
class Verdict:
    """Outcome prediction: deterministic with a value of +1 or -1, or uniform.

    Frozen and compared by value. Each constructor builds a fresh one, and
    ``__post_init__`` refuses any other kind, or a value that does not fit
    the kind.
    """

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
        """The verdict for a value of +1 or -1; any other value raises."""
        return cls("deterministic", value)

    @classmethod
    def uniform(cls) -> "Verdict":
        return cls("uniform")

    @property
    def is_deterministic(self) -> bool:
        return self.kind == "deterministic"

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "value": self.value}

    def __str__(self) -> str:
        if self.is_deterministic:
            return f"deterministic({self.value:+d})"
        return "uniform"


def _product_bits(g: Graph, xmask: int) -> tuple[int, int]:
    """(z mask, sign) of the product of the generators X_j Z_N(j) at the sites
    S of xmask, in one pass over them.

    The z-part is the XOR of their neighbourhoods. Moving each X of the
    product to the left crosses one Z per edge of G[S], and each Y site
    (S & z mask) reads XZ = -iY, so the sign is (-1)^(e + |Y|/2) with e the
    sum of |N(j) & S| over S, halved.
    """
    masks = g.neighbor_masks
    zmask = degrees = 0
    m = xmask
    while m:
        low = m & -m
        nb = masks[low.bit_length() - 1]
        zmask ^= nb
        degrees += (nb & xmask).bit_count()
        m ^= low
    return zmask, -1 if (degrees // 2 + (xmask & zmask).bit_count() // 2) & 1 else 1


def classify(g: Graph, m: Measurement) -> Verdict:
    """Classify a measurement by stabilizer membership.

    Each generator is the only one acting as X or Y at its own site, so the
    generator exponents of any candidate stabilizer element are forced by the
    X/Y support of the word. It only remains to compare the word's z mask
    with the z-part of their product, ``_product_bits`` of its x mask, which
    also gives the sign.
    """
    g.check_measurement(m)
    xmask, zmask = m.bits()
    zpart, sign = _product_bits(g, xmask)
    return Verdict.deterministic(sign) if zpart == zmask else Verdict.uniform()


def _build_state(g: Graph):
    """Dense graph-state vector: |+...+> with a CZ applied along every edge,
    scaled by 2^(n/2) so that every amplitude is an int8 +1 or -1.

    Qubit j + 1 joins by appending the amplitudes so far, each times -1 to
    the parity of its index's bits at j + 1's lower neighbours: O(2^n) for
    any edge count. numpy is imported here and in ``_expectation``, not
    with the module, so the stabilizer path runs without loading it.
    """
    import numpy as np

    psi = np.ones(1, dtype=np.int8)
    for j, mask in enumerate(g.neighbor_masks):  # indices below 2^j keep only the lower bits
        odd = np.bitwise_count(np.arange(1 << j) & mask) & 1
        psi = np.concatenate((psi, np.where(odd, -psi, psi)))
    return psi


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
    zmask, sign = _product_bits(g, xmask)
    return Measurement(_letters(xmask, zmask, g.n)), sign


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
