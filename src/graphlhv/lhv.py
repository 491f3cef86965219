"""Communication-assisted local-hidden-variable protocol on graph states.

Each site holds a fair coin z_j; the x and y entries are derived parities of
the neighborhood. After one round in which every site tells its neighbors
whether it measures X or Y, a site may flip the sign of its entry depending
on the count t_j of X/Y-measuring neighbors mod 4. The flip policy is
pluggable. On a signed stabilizer word an X site always receives an even t
and a Y site an odd t, so global correctness pins down only four of the
eight rule bits: X must flip at t = 2 but not 0, Y at t = 3 but not 1.
``STANDARD_RULES`` is the default; ``SYMMETRIC_RULES`` (X and Y flip under
the same counts) is the documented alternate. The two differ on
submeasurements, where the other parities are exercised.

A protocol is any object with a ``name`` and a ``flip_sites(g, m)`` method
(``FlipProtocol``): the flips depend on (g, m) only, never on the coins, so
``run``, ``product_report`` and ``nogo.verify_all_submeasurements`` take the
rule tables here and ``chain_protocol.ChainBroadcast`` alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from .graphs import Graph, _sites
from .oracle import Verdict
from .pauli import Measurement


class FlipProtocol(Protocol):
    """A flip protocol: its name and the measured sites whose entry it negates."""

    @property
    def name(self) -> str: ...

    def flip_sites(self, g: Graph, m: Measurement) -> frozenset[int]: ...


@dataclass(frozen=True)
class FlipRules:
    """t values (mod 4) at which X- and Y-measuring sites negate their entry."""

    name: str
    x_flips: frozenset[int]
    y_flips: frozenset[int]

    def flip_sites(self, g: Graph, m: Measurement) -> frozenset[int]:
        """Sites whose entry the rules negate; a function of (g, m) only, never of z."""
        rule = {"X": self.x_flips, "Y": self.y_flips}
        t = communication_round(g, m).t
        return frozenset(
            j for j, letter in enumerate(m.letters, start=1) if t[j - 1] in rule.get(letter, ())
        )


STANDARD_RULES = FlipRules("standard", frozenset({2, 3}), frozenset({0, 3}))
SYMMETRIC_RULES = FlipRules("symmetric", frozenset({2, 3}), frozenset({2, 3}))
NO_COMMUNICATION = FlipRules("no-communication", frozenset(), frozenset())


def all_assignments(n: int) -> Iterable[tuple[int, ...]]:
    """Every coin vector in {+1, -1}^n, in a fixed enumeration order."""
    return itertools.product((1, -1), repeat=n)


def _as_z(z: Sequence[int], n: int) -> tuple[int, ...]:
    values = tuple(z)
    if len(values) != n:
        raise ValueError(f"hidden vector length {len(values)} does not match n={n}")
    if any(v not in (1, -1) for v in values):
        raise ValueError("hidden values must be +1 or -1")
    return values


def derive_xy(g: Graph, z: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Derived x and y entries: x_j is the parity of the neighborhood coins,
    y_j = z_j * x_j. An isolated node has the empty product x_j = +1."""
    zs = _as_z(z, g.n)
    xs = []
    for j in range(1, g.n + 1):
        prod = 1
        for k in g.neighborhood(j):
            prod *= zs[k - 1]
        xs.append(prod)
    ys = tuple(zs[i] * xs[i] for i in range(g.n))
    return tuple(xs), ys


@dataclass(frozen=True)
class CommunicationState:
    """Broadcast bits c and the received counts t (mod 4), per site."""

    c: tuple[int, ...]
    t: tuple[int, ...]


def communication_round(g: Graph, m: Measurement) -> CommunicationState:
    """One round of neighbor messages; depends only on the graph and measurement."""
    g.check_measurement(m)
    c = tuple(1 if ch in "XY" else 0 for ch in m.letters)
    t = tuple(
        sum(c[k - 1] for k in g.neighborhood(j)) % 4 for j in range(1, g.n + 1)
    )
    return CommunicationState(c, t)


@dataclass(frozen=True)
class ProtocolOutputs:
    """Per-site outputs v in {+1, -1}^n; unmeasured sites output +1."""

    v: tuple[int, ...]

    def product_over(self, sites: Iterable[int]) -> int:
        prod = 1
        for j in sites:
            prod *= self.v[j - 1]
        return prod


def run(
    g: Graph,
    m: Measurement,
    z: Sequence[int],
    protocol: FlipProtocol = STANDARD_RULES,
) -> ProtocolOutputs:
    """Full protocol: the derived entries, negated at ``protocol.flip_sites(g, m)``.

    A Z site outputs its coin, an X site its x entry, a Y site its y entry
    and an unmeasured site +1.
    """
    zs = _as_z(z, g.n)
    flips = protocol.flip_sites(g, m)
    xs, ys = derive_xy(g, zs)
    entries = {"I": (1,) * g.n, "X": xs, "Y": ys, "Z": zs}
    return ProtocolOutputs(tuple(
        -entries[letter][j - 1] if j in flips else entries[letter][j - 1]
        for j, letter in enumerate(m.letters, start=1)
    ))


# Which coins a site's output carries before flips, as (own, neighbours) masks
# of all bits or none: Z its own coin, X its neighbours' coins, Y both, I none.
LETTER_COINS = {"I": (0, 0), "X": (0, -1), "Y": (-1, -1), "Z": (-1, 0)}


def _monomial_columns(g: Graph, letters: str, sites: Iterable[int]) -> list[int]:
    """Each site's output, before flips, as a product of coins: a bitmask over
    z indices (bit k-1 for z_k). The caller has checked the letters and sites
    against g."""
    masks = g.neighbor_masks
    cols = []
    for j in sites:
        own, neighbours = LETTER_COINS[letters[j - 1]]
        cols.append((1 << (j - 1)) & own | masks[j - 1] & neighbours)
    return cols


@dataclass(frozen=True)
class ProductReport:
    """Verdict for the product of outputs over a subset, with its derivation."""

    verdict: Verdict
    mode: str
    subset: tuple[int, ...]
    flipped: tuple[int, ...]
    monomial: tuple[int, ...]
    rules: str
    samples: int | None = None
    seed: int | None = None
    counts: tuple[int, int] | None = None  # (#(+1), #(-1)) in sampling mode


_SAMPLE_CHUNK = 1024  # coin rows drawn and evaluated at once in sampling mode


def _sampled_minus_count(
    g: Graph,
    m: Measurement,
    sites: Sequence[int],
    flips: frozenset[int],
    samples: int,
    seed: int,
) -> int:
    """Runs of the protocol, out of ``samples``, whose product over ``sites`` is -1.

    The same steps as ``run``, on a block of coin rows at a time, with bit 1
    standing for the value -1 so that products become XORs. The block is
    bit-sliced: each coin column becomes one Python int with bit r for row
    r, so a site's entry XORs its neighbours' ints for X and Y and its own
    for Y and Z (an unmeasured site's +1 is 0), a flip XORs it with all
    ones, the product over ``sites`` is the XOR of their entries and its -1
    rows are counted by ``bit_count``.
    numpy draws {0, 1} values one 32-bit word each and the generator's state
    carries across calls, so a (rows, n) draw continues the stream exactly as
    rows draws of size n would: the counts do not depend on the chunk size.
    Only this sampling mode needs numpy, so it is imported here.
    """
    import numpy as np

    # (column, neighbour columns, letter, flipped) of each site
    steps = [(j - 1, [k - 1 for k in g.neighbors[j - 1]], m.letters[j - 1], j in flips)
             for j in sites]
    rng = np.random.default_rng(seed)
    minus = 0
    for start in range(0, samples, _SAMPLE_CHUNK):
        rows = min(_SAMPLE_CHUNK, samples - start)
        z = rng.integers(0, 2, size=(rows, g.n))
        packed = np.packbits(z.T, axis=1, bitorder="little")
        width = packed.shape[1]
        raw = packed.tobytes()
        coins = [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]
        ones = (1 << rows) - 1
        product = 0
        for i, nbrs, letter, flipped in steps:
            entry = coins[i] if letter in "YZ" else 0  # Y and Z carry their own coin
            if letter in "XY":  # X and Y carry the parity of the neighbourhood
                for k in nbrs:
                    entry ^= coins[k]
            product ^= entry ^ ones if flipped else entry
        minus += product.bit_count()
    return minus


def product_report(
    g: Graph,
    m: Measurement,
    subset: Iterable[int] | None = None,
    protocol: FlipProtocol = STANDARD_RULES,
    samples: int | None = None,
    seed: int = 0,
) -> ProductReport:
    """Distribution of the product of outputs over a subset of sites.

    Both modes take the flip set from one ``protocol.flip_sites`` call; it
    depends only on (g, m). Exact mode: the product is then a fixed sign
    times a monomial in the coins, and the verdict is deterministic exactly
    when the monomial is empty. Sampling mode draws seeded coin vectors and
    reports the empirical outcome. It is evaluated in batches of coin rows,
    yet equal seeds give equal counts across versions: the rows come from
    the same stream as one draw of n coins per sample. It simulates coins,
    entries and product step by step and shares no other shortcut with exact
    mode, so it stays an independent check of exact mode's formula.
    """
    g.check_measurement(m)
    sites = tuple(sorted(set(subset))) if subset is not None else m.support()
    for j in sites:
        g.check_node(j)
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")

    flips = protocol.flip_sites(g, m)
    flipped = tuple(sorted(flips.intersection(sites)))
    if samples is None:
        sign = -1 if len(flipped) % 2 else 1
        mask = 0
        for col in _monomial_columns(g, m.letters, sites):
            mask ^= col
        monomial = _sites(mask)
        verdict = Verdict.deterministic(sign) if mask == 0 else Verdict.uniform()
        return ProductReport(verdict, "exact", sites, flipped, monomial, protocol.name)

    minus = _sampled_minus_count(g, m, sites, flips, samples, seed)
    plus = samples - minus
    if plus and minus:
        verdict = Verdict.uniform()
    else:
        verdict = Verdict.deterministic(1 if plus else -1)
    return ProductReport(
        verdict, "sampling", sites, flipped, (), protocol.name, samples, seed, (plus, minus)
    )
