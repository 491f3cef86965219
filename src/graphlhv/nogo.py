"""Submeasurement verification and parity-contradiction certifiers.

The certain submeasurements of a measurement are the subsets of its support
on which the XOR of the per-site coin monomials vanishes: the kernel of one
GF(2) map, of dimension k. A subset is a site mask, bit j - 1 for site j,
like a word's x and z masks, so each basis vector masks the word down to its
basis word. On the kernel the oracle sign and the protocol's flip parity are
both linear, so deciding the sweep costs k oracle signs, one per basis word,
each read off the masked x and z bitmasks by the oracle's one pass over the
generator set, ``_product_bits``, without building the word. Only listing subsets (the certain ones, or the
mismatches) walks the 2^k kernel elements, and nothing visits all
2^|support| subsets.

Two impossibility arguments are mechanized here as GF(2) constraint systems,
both written by one builder, ``_flip_system``, with its own key per argument.

Distance certifier: on a ring of 12f nodes (f odd) there are five global
measurements, pairwise indistinguishable within communication distance
2f - 1, each containing a submeasurement with a certain outcome. A model
whose per-site outputs depend only on the measurement pattern within
distance d assigns one +/-1 variable per (site, observable, local view),
the view key; the five certain outcomes then impose parity equations that
are jointly unsatisfiable. The certificate keeps each view as the JSON text
its report splices in, cut from per-node fragments of its case word.

Site-invariance certifier: a protocol whose sign-flip decisions are constant
on orbits of measurement-preserving graph automorphisms, applied on top of
hidden variables whose baseline product over any signed stabilizer word is
+1, must explain each certain submeasurement sign by orbit flips alone. One
flip variable per orbit, the orbit key, plus one parity equation per certain
submeasurement again yields an unsatisfiable system on the right graphs.

One GF(2) elimination, ``_eliminate``, serves both halves: a certain subset
is a dependency among the support's monomial columns, and a certificate of
impossibility is the first dependency among the equation rows whose signs
multiply to -1. The signed kernels of many words on one graph come from
``_word_kernels``, which walks the letter tree over every word, pushing
each prefix's column once for all words below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, Iterator, Sequence

from .graphs import (
    Graph,
    UnsupportedSizeError,
    _DIGIT_FLAGS,
    _bit_indices,
    _sites,
    automorphism_orbits,
    ball,
    ball_masks,
    grid,
    padded_ring,
)
from .lhv import STANDARD_RULES, FlipProtocol, _monomial_columns
from .oracle import Verdict, _product_bits, classify, stabilizer_word
from .pauli import Measurement, _bits, _letters, generator_product, is_submeasurement

_KERNEL_GUARD = 20


# ---------------------------------------------------------------------------
# Parity constraint systems over GF(2)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContextVariable:
    """Hidden value at a site for one observable in one local view.

    The view is the measurement restricted to the site's distance-d ball,
    written in canonical node order, so equal views mean equal restrictions.
    """

    site: int
    observable: str
    view: tuple[tuple[int, str], ...]

    def short_name(self) -> str:
        return f"{self.observable}{self.site}"


@dataclass(frozen=True)
class OrbitVariable:
    """One sign-flip decision shared by a whole automorphism orbit."""

    sites: tuple[int, ...]
    observable: str

    def short_name(self) -> str:
        return f"{self.observable}{{{','.join(map(str, self.sites))}}}"


@dataclass(frozen=True)
class Equation:
    """A parity equation: the product of the +/-1 values of the variables at
    the set bits of ``row`` (bit i for the system's ``variables[i]``) is ``sign``."""

    row: int
    sign: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"equation {self.label!r}: sign must be +1 or -1, got {self.sign}")


def _rhs(eq: Equation) -> int:
    """The right-hand bit that reports and the solver use: 1 for sign -1, else 0."""
    return int(eq.sign == -1)


@dataclass(frozen=True)
class ParityConstraintSystem:
    """Parity equations over declared variables, each a row bitmask over them."""

    variables: tuple
    equations: tuple[Equation, ...]

    def __post_init__(self) -> None:
        for eq in self.equations:
            if eq.row < 0 or eq.row >> len(self.variables):
                raise ValueError(
                    f"equation {eq.label!r} names a variable outside the "
                    f"{len(self.variables)} declared"
                )

    def keys(self, eq: Equation) -> tuple:
        """The variables of an equation, in declaration order."""
        return tuple(self.variables[i] for i in _bit_indices(eq.row))

    def to_json_dict(self) -> dict:
        return {
            "variables": [_variable_json(key) for key in self.variables],
            "equations": [
                {"label": eq.label, "rhs": _rhs(eq), "variables": list(_bit_indices(eq.row))}
                for eq in self.equations
            ],
        }


def _flip_system(
    rows: Iterable[tuple], key: Callable, declare: Callable | None = None, declared: Sequence = ()
) -> ParityConstraintSystem:
    """The one builder of both certifiers' systems: an equation per row of
    (global word's x mask, its z mask, sites, sign, label). Each site, in the
    row's order, is named by ``key(site, x, z)``: index i names ``declared[i]``,
    any other key met for the first time is declared as ``declare(site, x, z)``.
    A row XORs its variables' bits, so two sites of one orbit cancel.
    """
    variables = list(declared)
    bits = {i: 1 << i for i in range(len(variables))}
    equations = []
    for x, z, sites, sign, label in rows:
        row = 0
        for j in sites:
            k = key(j, x, z)
            bit = bits.get(k)
            if bit is None:
                bit = bits[k] = 1 << len(variables)
                variables.append(declare(j, x, z))
            row ^= bit
        equations.append(Equation(row, sign, label))
    return ParityConstraintSystem(tuple(variables), tuple(equations))


def _variable_json(key) -> dict:
    if isinstance(key, ContextVariable):  # (node, letter) pairs encode as [node, letter] arrays
        return {"site": key.site, "observable": key.observable, "view": key.view}
    if isinstance(key, OrbitVariable):
        return {"orbit": list(key.sites), "observable": key.observable}
    return {"name": repr(key)}


@dataclass(frozen=True)
class GF2Solution:
    """Either a satisfying assignment or a certificate of inconsistency.

    The witness is a bitmask over the variables like an equation's row: bit i
    set when ``variables[i]`` takes the value -1. The certificate is a list
    of equation indices whose rows XOR to zero and whose signs multiply to -1.
    """

    consistent: bool
    witness: int | None = None
    certificate: tuple[int, ...] | None = None


def _eliminate(
    cols: Iterable[tuple[int, int]], pivots: dict[int, tuple[int, int]]
) -> Iterator[int]:
    """Yield the dependencies of one forward elimination over bitmask columns,
    filling ``pivots`` as it goes.

    Each column comes as (own bit, column), its own bits ascending with the
    columns: a site's bit j - 1 in the kernel step, so that a dependency is
    a site mask, and an equation's index bit in ``gf2_solve``. A reduced
    column carries the bitmask of the own bits it combines. Pivots are keyed by
    their lowest set bit and map to (reduced column, combination), so a
    column is reduced only by the pivots at its lowest bit, which rises with
    every step; the number of pivots is the rank. A column that reduces to
    zero yields its dependency: its own bit plus earlier pivot columns, the
    unique combination of those independent columns. No other dependency
    contains that own bit, which is also its highest, and they come in
    ascending order of it, so they are the kernel basis that
    ``gf2_nullspace`` in ``tests/reference.py`` returns for the transposed
    rows, bit i moved to the own bit of the i-th column. Each caller keeps
    what it reads: ``_kernel_signs`` lists the dependencies, ``gf2_solve``
    only the pivots.
    """
    for combo, col in cols:
        while col:
            low = col & -col
            hit = pivots.get(low)
            if hit is None:
                pivots[low] = (col, combo)
                break
            col ^= hit[0]
            combo ^= hit[1]
        else:
            yield combo


def gf2_solve(system: ParityConstraintSystem) -> GF2Solution:
    """Solve a parity system, or certify that it has no solution.

    Each equation's row, with its sign as one extra top bit (set for -1),
    goes through ``_eliminate`` in order, and only its pivots are kept (at
    most one per variable plus the sign bit), not its dependencies. A row
    that reduces to that bit alone says 1 = -1: its combination, read as
    equation indices, is the certificate, the first dependency among the
    equations whose signs multiply to -1. That is the first inconsistent
    equation plus the unique subset of earlier independent equations whose
    rows sum to its own. Otherwise back-substitution from the highest pivot
    down gives the witness with every free variable 0.
    """
    top = len(system.variables)
    pivots: dict[int, tuple[int, int]] = {}
    rows = ((1 << i, eq.row | _rhs(eq) << top) for i, eq in enumerate(system.equations))
    for _ in _eliminate(rows, pivots):
        pass
    contradiction = pivots.get(1 << top)
    if contradiction is not None:
        return GF2Solution(False, None, _bit_indices(contradiction[1]))
    values = 0
    for low, (row, _) in sorted(pivots.items(), reverse=True):  # a row's other bits are higher
        if ((row >> top) ^ (row & values).bit_count()) & 1:
            values |= low
    return GF2Solution(True, values, None)


# ---------------------------------------------------------------------------
# Submeasurement verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubsetCheck:
    sites: tuple[int, ...]
    sub: Measurement
    oracle: Verdict
    lhv: Verdict

    def to_json_dict(self) -> dict:
        return {
            "sites": list(self.sites),
            "sub": str(self.sub),
            "oracle": self.oracle.to_json_dict(),
            "lhv": self.lhv.to_json_dict(),
            "match": False,  # only mismatches are listed
        }


@dataclass(frozen=True)
class SubmeasurementReport:
    measurement: Measurement
    rules: str
    subsets_checked: int
    deterministic_subsets: int
    mismatches: tuple[SubsetCheck, ...]

    def __post_init__(self) -> None:
        for check in self.mismatches:
            if not is_submeasurement(check.sub, self.measurement):
                raise ValueError(f"{check.sub} is not a submeasurement of {self.measurement}")

    @property
    def clean(self) -> bool:
        return not self.mismatches


def _signed_kernel(g: Graph, m: Measurement) -> tuple[list[int], list[int]]:
    """(kernel basis, sign bits) of a measurement on g, by ``_kernel_signs``
    over the support's monomial masks."""
    g.check_measurement(m)
    support = m.support()
    cols = _monomial_columns(g, m.letters, support)
    return _kernel_signs(g, m.letters, zip((1 << (j - 1) for j in support), cols))


def _kernel_signs(
    g: Graph, letters: str, cols: Iterable[tuple[int, int]]
) -> tuple[list[int], list[int]]:
    """(kernel basis, sign bits) of the word ``letters``: bit 1 for a basis word
    of sign -1. ``cols`` are the (site bit, monomial mask) pairs of the
    support sites in ascending order, the columns of the map; the caller has
    checked ``letters`` against g.

    The basis is the dependencies of one ``_eliminate`` pass over the
    columns, each a site mask, signed by ``_basis_signs``; an empty kernel
    reads no letter at all.
    """
    basis = list(_eliminate(cols, {}))
    return basis, _basis_signs(g, letters, basis) if basis else []


def _basis_signs(g: Graph, letters: str, basis: list[int]) -> list[int]:
    """Sign bits of the words of ``letters`` at the site masks in ``basis``, of
    g's n sites or a prefix of them: the word's x and z masks ANDed with each
    vector, confirmed certain by the oracle's one pass ``_product_bits`` on
    the x mask (certain words are closed under products, so that confirms
    their span), which also gives the sign. No letter string is built
    unless one fails, for the RuntimeError."""
    x, z = _bits(letters)
    bits = []
    for vec in basis:
        zpart, sign = _product_bits(g, x & vec)
        if zpart != z & vec:
            sub = _letters(x & vec, z & vec, g.n)
            raise RuntimeError(f"{sub} has an empty monomial but the oracle finds it uniform")
        bits.append(int(sign == -1))
    return bits


def _word_kernels(
    g: Graph, visit: Callable[[str, list[int], list[int]], object], words: Iterable[str] | None = None
) -> list:
    """``visit(letters, kernel basis, sign bits)``'s results for each word on g
    in order: every word in product order, or each of ``words``, letter
    strings over "IXYZ" of length n that need no check.

    Each site's (site bit, monomial mask) under each letter is read from one
    table, so no word's columns are built. Given ``words``, each goes through
    ``_kernel_signs`` on its own. Otherwise a depth-first walk of the letter
    tree runs: a node with a non-I letter copies its parent's ``_eliminate``
    pivots and pushes its one column, and a dependency found there is signed
    once, on the prefix itself; the words below inherit it, each getting what
    ``_kernel_signs`` finds on it.
    """
    n = g.n
    masks = [1 << i for i in range(n)]
    cols = {c: list(zip(masks, _monomial_columns(g, c * n, range(1, n + 1)))) for c in "XYZ"}
    if words is not None:
        return [visit(w, *_kernel_signs(g, w, [cols[c][i] for i, c in enumerate(w) if c != "I"]))
                for w in words]
    out = []

    def below(prefix: str, pivots: dict, basis: list[int], bits: list[int]) -> None:
        k = len(prefix)
        for c in "IXYZ":
            p, b, s = pivots, basis, bits
            if c != "I":
                p = pivots.copy()
                for vec in _eliminate((cols[c][k],), p):  # at most one
                    b = basis + [vec]
                    s = bits + _basis_signs(g, prefix + c, [vec])
            if k + 1 < n:
                below(prefix + c, p, b, s)
            else:
                out.append(visit(prefix + c, b, s))

    below("", {}, [], [])
    return out


def _walk_kernel(basis: list[int], labels: list[int]) -> Iterator[tuple[int, int]]:
    """Every (site mask, label) of the span, labels XORed along with the masks.

    Refuses a span of more than 2^20 elements before its first step.
    """
    if len(basis) > _KERNEL_GUARD:
        raise UnsupportedSizeError(
            f"{2 ** len(basis)} certain subsets (kernel dimension {len(basis)}) exceed "
            f"the guard of 2^{_KERNEL_GUARD}"
        )
    # Stepping the counter to k flips its bits 0..t, t the lowest set bit of k.
    prefix = []
    acc = label = 0
    for vec, bit in zip(basis, labels):
        acc ^= vec
        label ^= bit
        prefix.append((acc, label))
    smask = label = 0
    for k in range(1 << len(basis)):
        if k:
            step, bit = prefix[(k & -k).bit_length() - 1]
            smask ^= step
            label ^= bit
        yield smask, label


def _sign_labels(basis: list[int], bits: list[int], flips: frozenset[int]) -> list[int]:
    """One label per basis vector. Bit 0: the oracle sign is -1. Bit 1: the
    parity of the flip sites in it differs from that sign, so the protocol's
    sign is wrong. Both are linear on the kernel, so ``_walk_kernel`` carries
    them to every certain subset."""
    flip_mask = sum(1 << (j - 1) for j in flips)
    return [bit | (bit ^ (vec & flip_mask).bit_count() & 1) << 1 for vec, bit in zip(basis, bits)]


def verify_all_submeasurements(
    g: Graph, m: Measurement, protocol: FlipProtocol = STANDARD_RULES
) -> SubmeasurementReport:
    """Compare the oracle with the protocol on every subset of the support.

    The protocol's product over a subset is a fixed sign times the XOR of the
    site monomials, so both sides are certain on exactly the certain subsets
    and agree (uniform) everywhere else. On a certain subset the oracle sign
    is compared with the parity of the protocol's flip sites in it, from one
    ``protocol.flip_sites(g, m)`` call; both are linear on the kernel, so the
    word is clean iff they agree on its k basis vectors, and otherwise they
    disagree on exactly half of it. The basis signs come from
    ``_kernel_signs``, on bitmasks, and the flip parity of a basis vector is
    its AND with the flip sites' mask. Only on a disagreement is the kernel
    walked, to list the mismatches in ascending site-mask order, each
    mask's sites read off by ``graphs._sites``, built as a word and
    confirmed by its own ``classify`` call.
    """
    flips = protocol.flip_sites(g, m)
    basis, bits = _signed_kernel(g, m)
    labels = _sign_labels(basis, bits, flips)
    mismatches: list[SubsetCheck] = []
    if any(label >> 1 for label in labels):
        for smask, label in _walk_kernel(basis, labels):
            if not label >> 1:
                continue
            oracle = Verdict.deterministic(-1 if label & 1 else 1)
            sites = _sites(smask)
            sub = m.restricted_to(sites)
            verdict = classify(g, sub)
            if verdict != oracle:
                raise RuntimeError(f"{sub}: the kernel basis gives {oracle}, the oracle {verdict}")
            mismatches.append(SubsetCheck(sites, sub, oracle, Verdict.deterministic(-oracle.value)))
    return SubmeasurementReport(
        m, protocol.name, 1 << len(m.support()), 1 << len(basis), tuple(mismatches)
    )


def find_certain_submeasurements(g: Graph, m: Measurement) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every subset of the support whose restricted word is certain, with its sign.

    A subset S is certain exactly when the XOR of the site monomials over S
    is empty (the oracle's z-part test, written per site), so the certain
    subsets form the kernel of one GF(2) map. For two of them,
    m|_S · m|_T = m|_{S△T} with no phase, so the sign is a homomorphism on
    the kernel: the oracle's ``_product_bits`` signs the k basis words
    (``_signed_kernel``) and every other sign is a product of theirs. Each
    basis vector is a site mask (bit j - 1 for site j) and owns a highest
    bit that no other contains, so counting through their combinations in
    binary yields the subsets in ascending site-mask order, the order of a
    sweep over every subset, each sign updated by one XOR. Returns (sites,
    sign) pairs, the sites an ascending tuple read off the mask by
    ``graphs._sites``, like ``SubsetCheck.sites``; ``m.restricted_to(sites)``
    is the word.
    Deciding costs k signs on bitmasks; only the walk costs 2^k, and its
    guard at kernel dimension 20, i.e. 2^20 subsets, is the one size limit
    on the listing.
    """
    basis, bits = _signed_kernel(g, m)
    return tuple((_sites(smask), -1 if bit else 1) for smask, bit in _walk_kernel(basis, bits))


# ---------------------------------------------------------------------------
# Ring cases for the distance bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CertainSubmeasurement:
    """A global measurement together with one of its certain submeasurements."""

    name: str
    global_measurement: Measurement
    sub: Measurement
    expected_sign: int


# (name, letters at the vertices 4f, 8f, 12f, sign of the certain sub)
_RING_CASES = (
    ("xxx", "XXX", 1), ("yyy", "YYY", -1), ("yxy", "YXY", 1), ("yyx", "YYX", 1), ("xyy", "XYY", 1),
)


def _ring_cases(g: Graph, f: int) -> tuple[CertainSubmeasurement, ...]:
    """The five cases on a ring of 12f nodes followed by any isolated extras.

    The ring is read as a triangle: its vertices 4f, 8f and 12f measure X or
    Y by case, every other odd site Y and every other even site X. Each
    certain sub is the product of the generators at one site set: every
    even site (xxx), every site that is not a multiple of 4 (yyy), and for
    yxy the sites 1 and 4f - 1, every even site from 4f on and 4j - 1, 4j,
    4j + 1 for 0 < j < f; yyx and xyy turn that set by 4f and 8f. The
    extras lie outside every set and every global measurement, so they read I.
    """
    n = 12 * f
    yxy = {1, 4 * f - 1, *range(4 * f, n + 1, 2)}
    for j in range(1, f):
        yxy |= {4 * j - 1, 4 * j, 4 * j + 1}
    site_sets = (
        range(2, n + 1, 2),
        (j for j in range(1, n + 1) if j % 4),
        yxy,
        ((j + 4 * f - 1) % n + 1 for j in yxy),
        ((j + 8 * f - 1) % n + 1 for j in yxy),
    )
    cases = []
    for (name, vertex_letters, sign), sites in zip(_RING_CASES, site_sets):
        letters = list("YX" * 6 * f)  # Y on odd sites, X on even ones
        letters[4 * f - 1::4 * f] = vertex_letters
        glob = Measurement("".join(letters).ljust(g.n, "I"))
        sub, product_sign = stabilizer_word(g, sites)
        if product_sign != sign:
            raise RuntimeError(f"case {name}: generator product has sign {product_sign:+d}")
        if not is_submeasurement(sub, glob):
            raise RuntimeError(f"case {name}: constructed sub is not a submeasurement")
        cases.append(CertainSubmeasurement(name, glob, sub, sign))
    return tuple(cases)


# ---------------------------------------------------------------------------
# Distance-bound certification
# ---------------------------------------------------------------------------

def measurement_view(g: Graph, m: Measurement, j: int, d: int) -> tuple[tuple[int, str], ...]:
    """Measurement letters on the distance-d ball of j, in canonical node order."""
    g.check_measurement(m)
    return tuple((k, m.letter(k)) for k in sorted(ball(g, j, d)))


def distance_constraint_system(
    g: Graph,
    cases: Sequence[CertainSubmeasurement],
    d: int,
) -> ParityConstraintSystem:
    """One parity equation per certain submeasurement, over view-keyed variables.

    Sites in different cases share a variable exactly when site, measured
    observable and the full distance-d view coincide. The letters of a
    site's view are its case word's x and z masks ANDed with its ball's
    mask, so ``_flip_system`` keys each (case, site) by its site and those
    two ints, and the full view is picked in C out of the case's (node,
    letter) pairs once per distinct key. Every site's ball comes from one
    pass over integer bitmasks (``ball_masks``): at most min(d, n - 1)
    rounds of O(n + |E|) big-int ORs, stopping early once no ball grows, so
    an oversized d costs no more than the graph's diameter. Variables are
    declared in order of first use, an equation's sites taken in the
    published decimal-string order (1, 10, 2, ...). Raises ValueError
    unless every case's words have length n, its sub is a submeasurement
    of its global measurement and its sign is +1 or -1.
    """
    return _distance_system(g, cases, d)[0]


def _distance_system(
    g: Graph, cases: Sequence[CertainSubmeasurement], d: int
) -> tuple[ParityConstraintSystem, dict[int, int], tuple[str, ...]]:
    """``distance_constraint_system``, each support site's ball as a bitmask
    (bit k - 1 for node k) and each variable as its report's JSON object text:
    the view's flags pick its word's per-node fragments ``[k, "L"]``, built
    once a call. ``_variable_json`` writes the same object as a dict."""
    for case in cases:
        glob, sub = case.global_measurement, case.sub
        if len(glob) != g.n or len(sub) != g.n:
            raise ValueError(
                f"case {case.name}: global and sub must have n={g.n} letters, "
                f"got {len(glob)} and {len(sub)}"
            )
        if not is_submeasurement(sub, glob):
            raise ValueError(f"case {case.name}: {sub} is not a submeasurement of {glob}")
    all_masks = ball_masks(g, d)
    masks = {j: all_masks[j - 1] for case in cases for j in case.sub.support()}
    flags = {j: bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS) for j, mask in masks.items()}
    pairs = {case.global_measurement.bits(): tuple(enumerate(case.global_measurement.letters, start=1))
             for case in cases}
    fragments = {bits: [f'[{k}, "{c}"]' for k, c in word] for bits, word in pairs.items()}
    texts = []

    def declare(j: int, x: int, z: int) -> ContextVariable:
        word = pairs[x, z]  # (node, letter) at index node - 1
        observable = word[j - 1][1].lower()
        view = ", ".join(compress(fragments[x, z], flags[j]))  # ball's fragments
        texts.append(f'{{"observable": "{observable}", "site": {j}, "view": [{view}]}}')
        return ContextVariable(j, observable, tuple(compress(word, flags[j])))

    rows = ((*case.global_measurement.bits(), sorted(case.sub.support(), key=str),
             case.expected_sign, case.name) for case in cases)
    system = _flip_system(rows, lambda j, x, z: (j, x & masks[j], z & masks[j]), declare)
    return system, masks, tuple(texts)


def distance_bound(n: int) -> int:
    """Largest communication distance certified to fail on n qubits."""
    if n < 12:
        raise ValueError(f"the construction needs at least 12 qubits, got {n}")
    return 4 * ((n - 12) // 24) + 1


@dataclass(frozen=True)
class DistanceCertificate:
    """The ring's system and its solution, with each variable as the JSON
    object text its report splices in rather than encoding every pair."""

    n: int
    ring_size: int
    padding: int
    f: int
    d: int
    bound: int
    cases: tuple[CertainSubmeasurement, ...]
    system: ParityConstraintSystem
    solution: GF2Solution
    max_other_changeable_in_view: int
    variable_texts: tuple[str, ...]

    @property
    def ok(self) -> bool | None:
        """Whether an in-bound distance is certified; None above the bound,
        where no contradiction is expected and so nothing was checked."""
        if self.d <= self.bound:
            return not self.solution.consistent
        return None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ring_size": self.ring_size,
            "padding": self.padding,
            "f": self.f,
            "d": self.d,
            "bound": self.bound,
            "consistent": self.solution.consistent,
            "certificate": list(self.solution.certificate) if self.solution.certificate else None,
            "equations": [
                {"label": eq.label, "rhs": _rhs(eq), "size": eq.row.bit_count()}
                for eq in self.system.equations
            ],
            "system": self.system.to_json_dict(),
            "max_other_changeable_in_view": self.max_other_changeable_in_view,
            "model_class": "per-site sign choices determined by the measurement "
                           "pattern within distance d, for any shared randomness",
        }


def certify_distance(n: int, d: int | None = None) -> DistanceCertificate:
    """Certify failure of distance-d models on n qubits via the padded ring.

    The instance lives on a ring of n - r nodes with r = (n - 12) mod 24
    isolated extras; d defaults to the certified bound. The construction
    re-derives, rather than assumes, that each support site sees at most one
    changeable (vertex) site within distance d.
    """
    bound = distance_bound(n)
    if d is None:
        d = bound
    if d < 0:
        raise ValueError(f"distance must be non-negative, got {d}")
    g = padded_ring(n)
    ring_size = n - (n - 12) % 24
    f = ring_size // 12
    cases = _ring_cases(g, f)
    system, masks, variable_texts = _distance_system(g, cases, d)
    vertex_mask = sum(1 << (4 * f * k - 1) for k in (1, 2, 3))
    max_other = max(
        ((vertex_mask & mask & ~(1 << (j - 1))).bit_count() for j, mask in masks.items()),
        default=0,
    )
    solution = gf2_solve(system)
    return DistanceCertificate(
        n, ring_size, n - ring_size, f, d, bound, cases, system, solution, max_other, variable_texts
    )


# ---------------------------------------------------------------------------
# Site-invariance certification
# ---------------------------------------------------------------------------

def embedded_grid_counterexample(p: int, q: int) -> tuple[Graph, Measurement, Measurement]:
    """Site-invariance counterexample on a (2+2p) x (3+2q) grid.

    A 2x3 all-Y block sits centered, with Z measured on the surrounding rows
    and columns; the stabilizer word generated by the block's top row plus
    its bottom middle has sign -1, its support meets every orbit of the
    measurement-preserving automorphisms an even number of times, and the
    Z letters it needs are provided by the boundary. Returns (graph, global
    measurement, certain submeasurement); the submeasurement's letters and
    closed-form sign are checked against the phase-tracked generator product.
    """
    if p < 0 or q < 0:
        raise ValueError(f"p and q must be non-negative, got {p}, {q}")
    rows, cols = 2 + 2 * p, 3 + 2 * q
    g = grid(rows, cols)

    def node(r: int, c: int) -> int:
        return (r - 1) * cols + c

    block = [node(r, c) for r in (p + 1, p + 2) for c in (q + 1, q + 2, q + 3)]
    global_m = Measurement(
        "".join("Y" if j in set(block) else "Z" for j in range(1, g.n + 1))
    )
    a_sites = {block[0], block[1], block[2], block[4]}
    sub, sign = stabilizer_word(g, a_sites)
    reference = generator_product(g, [int(j in a_sites) for j in range(1, g.n + 1)])
    if (sub.letters, sign) != (reference.letters, reference.sign):
        raise RuntimeError("embedded counterexample: closed form and generator product disagree")
    if not is_submeasurement(sub, global_m):
        raise RuntimeError("embedded counterexample is not a submeasurement")
    if sign != -1:
        raise RuntimeError("embedded counterexample lost its minus sign")
    return g, global_m, sub


def site_invariance_system(
    g: Graph,
    global_m: Measurement,
    certain_subs: Sequence[tuple[Iterable[int], int]],
) -> ParityConstraintSystem:
    """Parity system for orbit-constant sign flips.

    The baseline product of hidden entries over any signed stabilizer word
    is +1, so the flips alone must account for each certain sign: for every
    certain submeasurement, the product of its sites' orbit flips must equal
    its sign. Orbits are taken under automorphisms preserving the global
    measurement as a coloring, by ``automorphism_orbits``: a refinement
    search for one automorphism per merged pair of nodes, whose cost follows
    the number of orbits, not the order of the group, so no size limit is
    applied here; ``_flip_system`` keys each site, ascending, by its orbit's
    index, declared in that order (an I orbit has none). A certain
    submeasurement's sites may be any iterable, such as the ascending tuples
    of ``find_certain_submeasurements``; a repeated site counts once.
    """
    g.check_measurement(global_m)
    declared = [OrbitVariable(orb, global_m.letter(orb[0]).lower())
                for orb in automorphism_orbits(g, global_m.letters) if global_m.letter(orb[0]) != "I"]
    orbit_of = {j: i for i, var in enumerate(declared) for j in var.sites}

    def orbit(j: int, x: int, z: int) -> int:
        if j not in orbit_of:  # outside 1..n, or unmeasured
            g.check_node(j)
            raise ValueError(f"support site {j} is unmeasured in the global measurement")
        return orbit_of[j]

    x, z = global_m.bits()
    subs = ((sorted(set(support)), sign) for support, sign in certain_subs)
    rows = ((x, z, sites, sign, f"sub{k}:{sites}") for k, (sites, sign) in enumerate(subs))
    return _flip_system(rows, orbit, declared=declared)
