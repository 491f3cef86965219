"""Sentence grammar and site-invariant broadcast protocol for chain graphs.

Every signed stabilizer word of a chain tiles into sentences: words drawn
from {X, YY, Y X..X Y} separated by single Is and bracketed by Zs, where
positions 0 and n+1 count as permanent virtual Zs. Only words of the shape
Y X..X Y with odd length contribute a minus sign, so a protocol in which
X and Z sites broadcast their measurement and each X site flips its entry
exactly when it can be the middle of such an odd word in some submeasurement
sentence reproduces every deterministic prediction. Whether Y sites stay
silent (the default) or broadcast too is a configuration switch; the
exhaustive verifier arbitrates between the two readings.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import Graph, UnsupportedSizeError, chain, is_chain
from .lhv import ProtocolOutputs, derive_xy, _as_z
from .nogo import certain_subsets
from .pauli import Measurement

_FULL_SWEEP_GUARD = 7
_SAMPLED_GUARD = 10


class NotStabilizerShaped(ValueError):
    """The letter string does not tile into sentences (not a stabilizer word)."""


@dataclass(frozen=True)
class Word:
    """One word of a sentence: X, YY, or Y X..X Y starting at a given site."""

    start: int
    letters: str

    def __post_init__(self) -> None:
        if not _word_form_ok(self.letters):
            raise ValueError(f"{self.letters!r} is not a word")

    @property
    def end(self) -> int:
        return self.start + len(self.letters) - 1

    @property
    def sign(self) -> int:
        """-1 exactly for the odd-length Y X..X Y words."""
        if len(self.letters) >= 3 and len(self.letters) % 2 == 1:
            return -1
        return 1

    @property
    def middle(self) -> int | None:
        """The middle site of an odd Y X..X Y word, else None."""
        if self.sign == -1:
            return self.start + len(self.letters) // 2
        return None


def _word_form_ok(letters: str) -> bool:
    if letters == "X" or letters == "YY":
        return True
    return (
        len(letters) >= 3
        and letters[0] == "Y"
        and letters[-1] == "Y"
        and set(letters[1:-1]) == {"X"}
    )


@dataclass(frozen=True)
class Sentence:
    """Words separated by single Is, bracketed by Zs (possibly virtual).

    ``left`` and ``right`` are the bracket positions; 0 and n+1 denote the
    virtual Zs just outside the chain.
    """

    n: int
    left: int
    right: int
    words: tuple[Word, ...]

    @property
    def sign(self) -> int:
        s = 1
        for w in self.words:
            s *= w.sign
        return s

    @property
    def left_virtual(self) -> bool:
        return self.left == 0

    @property
    def right_virtual(self) -> bool:
        return self.right == self.n + 1

    def letter_at(self, p: int) -> str:
        """Letter of the sentence at position p in [left, right]."""
        if not (self.left <= p <= self.right):
            raise ValueError(f"position {p} outside sentence span [{self.left}, {self.right}]")
        if p == self.left or p == self.right:
            return "Z"
        for w in self.words:
            if w.start <= p <= w.end:
                return w.letters[p - w.start]
        return "I"


def decompose(m: "Measurement | str") -> tuple[Sentence, ...]:
    """Parse a chain letter string into sentences, or raise NotStabilizerShaped.

    On success the reconstruction (brackets, words, separating Is, Is between
    sentences) reproduces the input exactly, the product of word signs is the
    sign of the corresponding stabilizer word, and the input with that sign
    is deterministic on the chain. Any string that fails to parse is not a
    signed stabilizer word.
    """
    letters = m.letters if isinstance(m, Measurement) else str(m)
    meas = Measurement(letters)
    n = len(letters)

    runs: list[tuple[int, str]] = []
    pos = 1
    while pos <= n:
        if letters[pos - 1] in "XY":
            start = pos
            while pos <= n and letters[pos - 1] in "XY":
                pos += 1
            runs.append((start, letters[start - 1:pos - 1]))
        else:
            pos += 1

    if not runs:
        if "Z" in letters:
            raise NotStabilizerShaped(
                f"Z at site {letters.index('Z') + 1} brackets no word"
            )
        return ()

    words = []
    for start, run in runs:
        if not _word_form_ok(run):
            raise NotStabilizerShaped(f"block {run!r} at site {start} is not a word")
        words.append(Word(start, run))

    groups: list[list[Word]] = [[words[0]]]
    for prev, nxt in itertools.pairwise(words):
        gap = nxt.start - prev.end - 1
        if gap == 1:
            groups[-1].append(nxt)
        else:
            groups.append([nxt])

    sentences = tuple(
        Sentence(n, group[0].start - 1, group[-1].end + 1, tuple(group))
        for group in groups
    )

    rebuilt = ["I"] * n
    for s in sentences:
        for p in range(max(s.left, 1), min(s.right, n) + 1):
            rebuilt[p - 1] = s.letter_at(p)
    rebuilt_str = "".join(rebuilt)
    if rebuilt_str != letters:
        bad = next(p for p in range(1, n + 1) if rebuilt_str[p - 1] != letters[p - 1])
        raise NotStabilizerShaped(
            f"site {bad}: expected {rebuilt_str[bad - 1]!r} from the sentence tiling, "
            f"found {letters[bad - 1]!r}"
        )
    return sentences


def decomposition_sign(sentences: Iterable[Sentence]) -> int:
    s = 1
    for sent in sentences:
        s *= sent.sign
    return s


@dataclass(frozen=True)
class ChainView:
    """Per-site knowledge after the broadcast round.

    ``letters[p]`` for p in 1..n is 'X' or 'Z' for broadcast sites and '.'
    for silent ones; position 0 is a sentinel. With ``broadcast_y`` the Y
    sites announce themselves too and only I sites stay silent.
    """

    n: int
    letters: str
    broadcast_y: bool

    @classmethod
    def from_measurement(cls, m: Measurement, broadcast_y: bool = False) -> "ChainView":
        shown = "XZY" if broadcast_y else "XZ"
        view = "#" + "".join(ch if ch in shown else "." for ch in m.letters)
        return cls(len(m), view, broadcast_y)


def _flip_sites_for_view(view: ChainView, x_sites: Sequence[int]) -> frozenset[int]:
    n = view.n
    v = view.letters
    yend = "." if not view.broadcast_y else "Y"

    def can_x(p: int) -> bool:
        return 1 <= p <= n and v[p] == "X"

    def can_yend(p: int) -> bool:
        return 1 <= p <= n and v[p] == yend

    def is_bracket(p: int) -> bool:
        return p == 0 or p == n + 1 or (1 <= p <= n and v[p] == "Z")

    left_memo: dict[int, bool] = {}
    right_memo: dict[int, bool] = {}

    def words_ending_at(e: int) -> list[int]:
        """Start positions of view-consistent words ending at e."""
        starts = []
        if can_x(e):
            starts.append(e)
        if can_yend(e):
            if can_yend(e - 1):
                starts.append(e - 1)
            s = e - 2
            while s >= 1 and can_x(s + 1):
                if can_yend(s):
                    starts.append(s)
                s -= 1
        return starts

    def words_starting_at(s: int) -> list[int]:
        ends = []
        if can_x(s):
            ends.append(s)
        if can_yend(s):
            if can_yend(s + 1):
                ends.append(s + 1)
            e = s + 2
            while e <= n and can_x(e - 1):
                if can_yend(e):
                    ends.append(e)
                e += 1
        return ends

    def closes_left(s: int) -> bool:
        """A word starts at s; can the sentence be completed to its left?"""
        if s in left_memo:
            return left_memo[s]
        left_memo[s] = False  # cycles are impossible; positions strictly decrease
        ok = is_bracket(s - 1)
        if not ok and s - 2 >= 1:
            ok = any(closes_left(s2) for s2 in words_ending_at(s - 2))
        left_memo[s] = ok
        return ok

    def closes_right(e: int) -> bool:
        if e in right_memo:
            return right_memo[e]
        right_memo[e] = False
        ok = is_bracket(e + 1)
        if not ok and e + 2 <= n:
            ok = any(closes_right(e2) for e2 in words_starting_at(e + 2))
        right_memo[e] = ok
        return ok

    flips = set()
    for j in x_sites:
        m = 1
        while j - m >= 1 and j + m <= n:
            if m >= 2 and not (can_x(j - m + 1) and can_x(j + m - 1)):
                break
            if (
                can_yend(j - m)
                and can_yend(j + m)
                and closes_left(j - m)
                and closes_right(j + m)
            ):
                flips.add(j)
                break
            m += 1
    return frozenset(flips)


def flip_sites_for(m: Measurement, broadcast_y: bool = False) -> frozenset[int]:
    """All X sites that flip their entry under the broadcast protocol."""
    view = ChainView.from_measurement(m, broadcast_y)
    x_sites = [j for j, ch in enumerate(m.letters, start=1) if ch == "X"]
    return _flip_sites_for_view(view, x_sites)


def flip_decision(g: Graph, m: Measurement, j: int, broadcast_y: bool = False) -> bool:
    """Does the X site j flip? True iff some assignment of Y/I to the silent
    sites yields a sentence, consistent with the broadcast view and bracketed
    by broadcast Zs or chain ends, in which j is the middle of an odd-length
    Y X..X Y word."""
    _require_chain(g)
    if len(m) != g.n:
        raise ValueError(f"measurement length {len(m)} does not match n={g.n}")
    if m.letter(j) != "X":
        raise ValueError(f"site {j} measures {m.letter(j)}, not X")
    return j in flip_sites_for(m, broadcast_y)


def _require_chain(g: Graph) -> None:
    if not is_chain(g):
        raise ValueError("this protocol is defined on chain graphs only")


def run_chain_protocol(
    g: Graph,
    m: Measurement,
    z: Sequence[int],
    broadcast_y: bool = False,
) -> ProtocolOutputs:
    """Protocol outputs: hidden entries with flips applied at X sites only."""
    _require_chain(g)
    if len(m) != g.n:
        raise ValueError(f"measurement length {len(m)} does not match n={g.n}")
    zs = _as_z(z, g.n)
    xs, ys = derive_xy(g, zs)
    flips = flip_sites_for(m, broadcast_y)
    out = []
    for i, ch in enumerate(m.letters):
        j = i + 1
        if ch == "I":
            out.append(1)
        elif ch == "Z":
            out.append(zs[i])
        elif ch == "Y":
            out.append(ys[i])
        else:
            out.append(-xs[i] if j in flips else xs[i])
    return ProtocolOutputs(tuple(out))


@dataclass(frozen=True)
class Violation:
    measurement: Measurement
    sites: tuple[int, ...]
    expected_sign: int
    protocol_sign: int | None
    reason: str

    def to_json_dict(self) -> dict:
        return {
            "measurement": str(self.measurement),
            "sites": list(self.sites),
            "expected_sign": self.expected_sign,
            "protocol_sign": self.protocol_sign,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class OverlapViolation:
    measurement: Measurement
    first_span: tuple[int, int]
    second_span: tuple[int, int]
    position: int

    def to_json_dict(self) -> dict:
        return {
            "measurement": str(self.measurement),
            "first_span": list(self.first_span),
            "second_span": list(self.second_span),
            "position": self.position,
        }


@dataclass(frozen=True)
class ChainReport:
    n: int
    broadcast_y: bool
    mode: str
    measurements_checked: int
    deterministic_subs_checked: int
    violations: tuple[Violation, ...]
    overlap_pairs_checked: int
    overlap_violations: tuple[OverlapViolation, ...]
    sample: int | None = None
    seed: int | None = None

    @property
    def clean(self) -> bool:
        return not self.violations and not self.overlap_violations

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "broadcast_y": self.broadcast_y,
            "mode": self.mode,
            "measurements_checked": self.measurements_checked,
            "deterministic_subs_checked": self.deterministic_subs_checked,
            "violations": [v.to_json_dict() for v in self.violations],
            "overlap_pairs_checked": self.overlap_pairs_checked,
            "overlap_violations": [v.to_json_dict() for v in self.overlap_violations],
            "sample": self.sample,
            "seed": self.seed,
        }


def _check_measurement(
    g: Graph,
    m: Measurement,
    broadcast_y: bool,
    violations: list[Violation],
    overlap_violations: list[OverlapViolation],
) -> tuple[int, int]:
    """Check all deterministic submeasurements of one global measurement.

    They are the subsets ``certain_subsets`` walks: those on which the XOR of
    the outputs' coin monomials vanishes, so the protocol's product there is
    a constant sign by construction and only that sign is compared.
    Returns (deterministic subs checked, overlap pairs checked).
    """
    n = g.n
    flips = flip_sites_for(m, broadcast_y)

    det_checked = 0
    single_sentences: list[Sentence] = []
    for sites, sub, sign in certain_subsets(g, m):
        det_checked += 1
        protocol_sign = -1 if len(flips.intersection(sites)) % 2 else 1
        if protocol_sign != sign:
            violations.append(Violation(m, sites, sign, protocol_sign, "wrong constant sign"))
        try:
            sentences = decompose(sub)
        except NotStabilizerShaped as exc:
            violations.append(
                Violation(m, sites, sign, None, f"grammar rejected a certain word: {exc}")
            )
            continue
        if len(sentences) == 1:
            single_sentences.append(sentences[0])

    pairs = 0
    for s1, s2 in itertools.combinations(single_sentences, 2):
        lo = max(s1.left, s2.left)
        hi = min(s1.right, s2.right)
        if lo > hi:
            continue
        pairs += 1
        skip = {s1.left, s1.right, s2.left, s2.right}
        for p in range(max(lo, 1), min(hi, n) + 1):
            if p in skip:
                continue
            if s1.letter_at(p) != s2.letter_at(p):
                overlap_violations.append(
                    OverlapViolation(m, (s1.left, s1.right), (s2.left, s2.right), p)
                )
                break
    return det_checked, pairs


def _measurements(n: int, sample: int | None, seed: int) -> Iterator[Measurement]:
    """Every measurement on n sites, or ``sample`` seeded random ones."""
    if n < 1:
        raise ValueError(f"a chain needs at least 1 site, got n = {n}")
    if sample is None:
        if n > _FULL_SWEEP_GUARD:
            raise UnsupportedSizeError(
                f"full sweep is guarded at n = {_FULL_SWEEP_GUARD}; pass sample= for larger n"
            )
        return (Measurement("".join(p)) for p in itertools.product("IXYZ", repeat=n))
    if sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    rng = np.random.default_rng(seed)
    return (
        Measurement("".join("IXYZ"[k] for k in rng.integers(0, 4, size=n)))
        for _ in range(sample)
    )


def verify_chain_exhaustive(
    n: int,
    broadcast_y: bool = False,
    sample: int | None = None,
    seed: int = 0,
) -> ChainReport:
    """Check every deterministic submeasurement of every global measurement.

    Exact-by-construction: the product of outputs over a subset is a fixed
    sign times a monomial in the coins, so constancy and the sign are decided
    without enumerating coin vectors; only the subsets with an empty monomial
    (a GF(2) kernel, not all 2^|support| subsets) are visited. Also checks,
    for each global measurement, that its single-sentence certain
    submeasurements agree on overlaps except at bracketing Zs. Full sweep
    up to n = 7; beyond that a seeded sample of measurements is required
    (up to n = 10).
    """
    measurements = _measurements(n, sample, seed)
    if n > _SAMPLED_GUARD:
        raise UnsupportedSizeError(f"sampled sweep is guarded at n = {_SAMPLED_GUARD}")
    g = chain(n)
    violations: list[Violation] = []
    overlap_violations: list[OverlapViolation] = []
    det_total = 0
    pair_total = 0
    count = 0
    for m in measurements:
        count += 1
        det, pairs = _check_measurement(g, m, broadcast_y, violations, overlap_violations)
        det_total += det
        pair_total += pairs
    return ChainReport(
        n,
        broadcast_y,
        "exhaustive" if sample is None else "sampled",
        count,
        det_total,
        tuple(violations),
        pair_total,
        tuple(overlap_violations),
        sample,
        None if sample is None else seed,
    )


@dataclass(frozen=True)
class ReadingDiscrepancy:
    """A site whose flip decision differs between the two broadcast readings."""

    measurement: Measurement
    site: int
    silent_reading: bool
    broadcast_reading: bool


def compare_readings(n: int, sample: int | None = None, seed: int = 0) -> tuple[ReadingDiscrepancy, ...]:
    """Flip-decision differences between the silent-Y and broadcast-Y readings."""
    out = []
    for m in _measurements(n, sample, seed):
        silent = flip_sites_for(m, broadcast_y=False)
        loud = flip_sites_for(m, broadcast_y=True)
        for j in sorted(silent ^ loud):
            out.append(ReadingDiscrepancy(m, j, j in silent, j in loud))
    return tuple(out)
