"""Exact quantum predictions for Pauli measurements on graph states.

A Pauli measurement on a graph state is deterministic exactly when the word
(or its negative) is a product of the stabilizer generators; otherwise the
outcome is uniformly random. ``classify`` decides this through the generator
structure; ``statevector_verdict`` recomputes it from a dense state vector
built with controlled-phase gates, sharing no code with the stabilizer path
so the two can cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .graphs import Graph, UnsupportedSizeError
from .pauli import Measurement, _product_over_sites, _real_sign, letters_from_bits

_STATEVECTOR_GUARD = 14
_ENUMERATION_GUARD = 20
_ATOL = 1e-9


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


def classify(g: Graph, m: Measurement) -> Verdict:
    """Classify a measurement by stabilizer membership.

    Each generator is the only one acting as X or Y at its own site, so the
    generator exponents of any candidate stabilizer element are forced by the
    X/Y support of the word. It only remains to compare letters and read the
    sign off the product's phase.
    """
    if len(m) != g.n:
        raise ValueError(f"measurement length {len(m)} does not match n={g.n}")
    mx, mz = m.bits()
    if _z_image(g, mx) != mz:
        return Verdict.uniform()
    sites = [j + 1 for j in range(g.n) if (mx >> j) & 1]
    _, phase = _product_over_sites(g, sites)
    return Verdict.deterministic(_real_sign(phase))


def _build_state(g: Graph) -> np.ndarray:
    """Dense graph-state vector: |+...+> with a CZ applied along every edge."""
    dim = 1 << g.n
    psi = np.full(dim, 1.0 / np.sqrt(dim))
    idx = np.arange(dim)
    for u, v in g.edges:
        both = ((idx >> (u - 1)) & 1) & ((idx >> (v - 1)) & 1)
        psi = psi * np.where(both == 1, -1.0, 1.0)
    return psi


def _expectation(g: Graph, m: Measurement, psi: np.ndarray) -> float:
    dim = psi.shape[0]
    idx = np.arange(dim)
    xmask = 0
    zymask = 0  # sites whose bit flips the sign: Z and Y
    n_y = 0
    for j, ch in enumerate(m.letters):
        if ch in "XY":
            xmask |= 1 << j
        if ch in "ZY":
            zymask |= 1 << j
        if ch == "Y":
            n_y += 1
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & zymask) & 1)
    coeff = (1j) ** (n_y % 4)
    phi = np.zeros(dim, dtype=complex)
    phi[idx ^ xmask] = coeff * signs * psi
    e = complex(np.vdot(psi, phi))
    if abs(e.imag) > _ATOL:
        raise RuntimeError(f"expectation value {e!r} of a Hermitian word is not real")
    return e.real


def statevector_verdict(g: Graph, m: Measurement) -> Verdict:
    """Classify a measurement from the dense state vector (guarded at n <= 14)."""
    if g.n > _STATEVECTOR_GUARD:
        raise UnsupportedSizeError(
            f"state-vector check is guarded at {_STATEVECTOR_GUARD} qubits, got {g.n}"
        )
    if len(m) != g.n:
        raise ValueError(f"measurement length {len(m)} does not match n={g.n}")
    psi = _build_state(g)
    e = _expectation(g, m, psi)
    for target, verdict in (
        (1.0, Verdict.deterministic(1)),
        (-1.0, Verdict.deterministic(-1)),
        (0.0, Verdict.uniform()),
    ):
        if abs(e - target) <= _ATOL:
            return verdict
    raise RuntimeError(f"expectation value {e!r} is not near -1, 0 or +1")


def enumerate_stabilizer_measurements(g: Graph) -> Iterator[tuple[Measurement, int]]:
    """Yield the 2^n signed stabilizer words as (letters, sign) pairs.

    Entries are ordered by the generator bit-vector read as an integer with
    site 1 in the lowest bit; letter strings are pairwise distinct because
    the X/Y support of a word reads the bit-vector back.
    """
    if g.n > _ENUMERATION_GUARD:
        raise UnsupportedSizeError(
            f"stabilizer enumeration is guarded at {_ENUMERATION_GUARD} qubits, got {g.n}"
        )
    for amask in range(1 << g.n):
        sites = [j + 1 for j in range(g.n) if (amask >> j) & 1]
        _, phase = _product_over_sites(g, sites)
        letters = letters_from_bits(g.n, amask, _z_image(g, amask))
        yield Measurement(letters), _real_sign(phase)
