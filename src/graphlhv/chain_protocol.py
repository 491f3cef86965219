"""Sentence grammar and site-invariant broadcast protocol for chain graphs.

Every signed stabilizer word of a chain tiles into sentences: words drawn
from {X, YY, Y X..X Y} separated by single Is and bracketed by Zs, where
positions 0 and n+1 count as permanent virtual Zs. Only words of the shape
Y X..X Y with odd length contribute a minus sign, so a protocol in which
X and Z sites broadcast their measurement and each X site flips its entry
exactly when it can be the middle of such an odd word in some submeasurement
sentence reproduces every deterministic prediction. The word through an X
site is forced (its Xs are the whole X run around the site), so the flip
rule reads: the run is odd, the site is its middle, both neighbours may be
Y, and their sentence closes on each side. Closing on the left is one
forward pass over the word; the grammar is mirror-symmetric, so closing on
the right is the same pass over the reversed word. Whether Y sites stay
silent (the default) or broadcast too is the ``ChainBroadcast`` value,
a flip protocol that ``lhv.run``, ``lhv.product_report`` and
``nogo.verify_all_submeasurements`` accept; the exhaustive verifier
arbitrates between the two readings. It only checks kernels: each word's
signed kernel comes from ``nogo._word_kernels``, whose full sweep walks the
letter tree. The signed stabilizer words form a regular language, so the
verifier parses each certain word with one compiled pattern and reads its
brackets off the letters; ``decompose``, which builds the sentences, runs
only to word the rejection of a word the pattern refuses. It groups a word's
runs into sentences with one more pattern, ``_SENTENCE``, and then checks
the Zs against the brackets.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Graph, UnsupportedSizeError, _sites, chain, is_chain
from .nogo import _sign_labels, _walk_kernel, _word_kernels
from .pauli import Measurement, _letters

# The full sweep visits 4^n measurements: 0.056-0.061 s at n = 7 and 0.24-0.27 s
# at n = 8 per reading on a shared 2-vCPU VM (Intel Xeon; best of 3 calls,
# over four fresh processes).
_FULL_SWEEP_GUARD = 7

# Byte k of a sampled code row becomes the k-th letter of "IXYZ".
_CODE_LETTERS = bytes.maketrans(bytes(range(4)), b"IXYZ")

_WORD = re.compile("X|YY|YX+Y")
_XY_RUN = re.compile("[XY]+")
_X_RUN = re.compile("X+")
# One sentence before its bracket check: X/Y runs one site apart, whatever
# that site holds, so a Z between two words is grouped and then refused.
_SENTENCE = re.compile("[XY]+(?:[IZ][XY]+)*")

# The signed stabilizer words of a chain as one regular language: all Is, or
# sentences (words one I apart) with a Z at each bracket that lies on the
# chain and Is elsewhere. Backtracking re-enters a finished word only to
# shorten its X run, so a match stays linear in the word's length.
_S = f"(?:{_WORD.pattern})(?:I(?:{_WORD.pattern}))*"
_SHAPED = re.compile(f"I*|(?:I*Z)?{_S}(?:ZI*Z{_S})*(?:ZI*)?")


class NotStabilizerShaped(ValueError):
    """The letter string does not tile into sentences (not a stabilizer word)."""


@dataclass(frozen=True)
class Word:
    """One word of a sentence: X, YY, or Y X..X Y starting at a given site."""

    start: int
    letters: str

    def __post_init__(self) -> None:
        if not _WORD.fullmatch(self.letters):
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


def decompose(m: "Measurement | str") -> tuple[Sentence, ...]:
    """Parse a chain letter string into sentences, or raise NotStabilizerShaped.

    Each maximal X/Y run must be a word. Each ``_SENTENCE`` match is one
    sentence: its words are the runs inside it, one site apart, and its
    brackets are the sites just outside its first and last word. The string
    must then be those words with Zs exactly at the brackets that lie on the
    chain and Is elsewhere, so that the sentences reproduce it.
    On success the product of word signs is the sign of the corresponding
    stabilizer word, and the input with that sign is deterministic on the
    chain. Any string that fails to parse is not a signed stabilizer word.
    """
    letters = m.letters if isinstance(m, Measurement) else Measurement(str(m)).letters
    n = len(letters)

    for run in _XY_RUN.finditer(letters):
        if not _WORD.fullmatch(run.group()):
            raise NotStabilizerShaped(f"block {run.group()!r} at site {run.start() + 1} is not a word")

    sentences = []
    for match in _SENTENCE.finditer(letters):
        words = tuple(Word(run.start() + 1, run.group()) for run in _XY_RUN.finditer(letters, *match.span()))
        sentences.append(Sentence(n, words[0].start - 1, words[-1].end + 1, words))
    if not sentences and "Z" in letters:
        raise NotStabilizerShaped(f"Z at site {letters.index('Z') + 1} brackets no word")

    brackets = {p for s in sentences for p in (s.left, s.right) if 1 <= p <= n}
    z_sites = {p for p, ch in enumerate(letters, start=1) if ch == "Z"}
    if brackets != z_sites:
        bad = min(brackets ^ z_sites)
        expected = "Z" if bad in brackets else "I"
        raise NotStabilizerShaped(
            f"site {bad}: expected {expected!r} from the sentence tiling, "
            f"found {letters[bad - 1]!r}"
        )
    return tuple(sentences)


def decomposition_sign(sentences: Iterable[Sentence]) -> int:
    s = 1
    for sent in sentences:
        s *= sent.sign
    return s


def _closable(letters: str, ends: str) -> list[bool]:
    """``closable[s]``: a sentence through a word starting at site s closes on the left.

    It does when site s-1 is a Z (site 0 is the virtual one), or when a word
    ends at s-2 whose first site is closable; site s-1 is then the separating
    I, whatever it measures globally. Word ends are the sites whose letter is
    in ``ends``. A word ending at e has at most one start: e for X, e-1 for
    YY, or the site before the X run ending at e-1 for Y X..X Y. So one
    forward pass decides every site.
    """
    w = "Z" + letters
    closable = [False] * len(w)
    x_run = [0] * len(w)  # length of the X run ending at each site
    for s in range(1, len(w)):
        x_run[s] = x_run[s - 1] + 1 if w[s] == "X" else 0
        if w[s - 1] == "Z":
            closable[s] = True
        elif w[s - 2] == "X":
            closable[s] = closable[s - 2]
        elif w[s - 2] in ends:
            first = s - 3 - x_run[s - 3]
            closable[s] = w[first] in ends and closable[first]
    return closable


def flip_sites_for(m: Measurement, broadcast_y: bool = False) -> frozenset[int]:
    """All X sites that flip their entry under the broadcast protocol.

    A word end must be a site that may measure Y: any silent site (I or Y)
    in the silent reading, only Y sites with ``broadcast_y``. So the Xs of
    any word through an X site j are the maximal X run around j, and j flips
    iff that run has odd length with j in its middle, both neighbours of the
    run may be Y, the left neighbour's sentence closes on the left and the
    right neighbour's closes on the right. The grammar is mirror-symmetric,
    so closing on the right is the left-hand pass run on the reversed word.
    The two passes run only once some run passes the first three tests.
    """
    letters = m.letters
    n = len(letters)
    ends = "Y" if broadcast_y else "IY"
    left = right = None
    w = "Z" + letters + "Z"
    flips = set()
    for run in _X_RUN.finditer(letters):
        a, b = run.start(), run.end() + 1  # the run's neighbours, as sites
        if (b - a) % 2 or w[a] not in ends or w[b] not in ends:
            continue
        if left is None:
            left = _closable(letters, ends)
            right = _closable(letters[::-1], ends)
        if left[a] and right[n + 1 - b]:
            flips.add((a + b) // 2)
    return frozenset(flips)


@dataclass(frozen=True)
class ChainBroadcast:
    """The broadcast protocol as a flip protocol: Y sites silent (the default)
    or, with ``broadcast_y``, broadcasting like X and Z sites."""

    broadcast_y: bool = False

    @property
    def name(self) -> str:
        return "chain-broadcast-y" if self.broadcast_y else "chain-silent-y"

    def flip_sites(self, g: Graph, m: Measurement) -> frozenset[int]:
        """``flip_sites_for`` on a chain graph; any other graph is refused."""
        if not is_chain(g):
            raise ValueError("this protocol is defined on chain graphs only")
        g.check_measurement(m)
        return flip_sites_for(m, self.broadcast_y)


@dataclass(frozen=True)
class Violation:
    measurement: Measurement
    sites: tuple[int, ...]
    expected_sign: int
    protocol_sign: int | None
    reason: str


@dataclass(frozen=True)
class OverlapViolation:
    measurement: Measurement
    first_span: tuple[int, int]
    second_span: tuple[int, int]
    position: int


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


# What the checker keeps of one certain word's parse: the grammar's rejection,
# the (left, right) brackets of its only sentence, or None when it holds none
# or several. ``_parse`` reads it off the word's letters, with no ``Word`` or
# ``Sentence`` built.
_Parse = NotStabilizerShaped | tuple[int, int] | None


def _parse(word: str) -> _Parse:
    """The checker's parse of one certain word, decided by ``_SHAPED``.

    An accepted word holds one sentence exactly when no Z lies between its
    first and last X/Y letter; its brackets are then the sites just outside
    that stretch. A rejected word goes to ``decompose``, whose exception is
    kept for its message; should ``decompose`` accept it after all, the two
    parsers disagree and RuntimeError is raised.
    """
    if _SHAPED.fullmatch(word):
        body = word.strip("IZ")
        if not body or "Z" in body:
            return None
        first = len(word) - len(word.lstrip("IZ"))
        return first, first + len(body) + 1
    try:
        decompose(word)
    except NotStabilizerShaped as exc:
        return exc
    raise RuntimeError(f"{word} decomposes but the sentence pattern rejects it")


def _check_kernel(
    letters: str, basis: list[int], bits: list[int], broadcast_y: bool, violations: list[Violation],
    overlap_violations: list[OverlapViolation], parses: dict[int, _Parse],
) -> tuple[int, int]:
    """Check all deterministic submeasurements of one global measurement.

    They are the certain subsets: the kernel on which the XOR of the outputs'
    coin monomials vanishes, given by its ``basis`` with each vector's oracle
    sign bit. The protocol's product there is a constant sign by
    construction, so only that sign is compared with the oracle's. Both
    signs are linear on the kernel, so ``_sign_labels`` decides them on the
    basis and the walk over the site-mask basis carries them to each subset
    by one XOR per step.
    The empty subset is counted and passed over: its word is the identity,
    of sign +1 on both sides, and holds no sentence. It is the only certain
    subset for most measurements, which return before a ``Measurement`` is
    built or the flip sites are found. Each distinct word is parsed once per
    ``parses`` dict, which the sweep creates and drops. Every walked subset
    is certain, so its sub word is the stabilizer word of its X/Y sites, and
    the dict is keyed by that generator set alone, the word's x mask ANDed
    with the subset's. A repeated word costs one lookup, and only its first
    parse writes its letters, ``pauli._letters`` of both masks ANDed with
    the subset's, for ``_parse``'s one pattern match.
    Returns (deterministic subs checked, overlap pairs checked).
    """
    if not basis:
        return 1, 0
    m = Measurement(letters)
    x, z = m.bits()
    spans: list[tuple[int, int, int]] = []
    for smask, label in _walk_kernel(basis, _sign_labels(basis, bits, flip_sites_for(m, broadcast_y))):
        if not smask:
            continue
        sign = -1 if label & 1 else 1
        if label & 2:
            violations.append(Violation(m, _sites(smask), sign, -sign, "wrong constant sign"))
        key = x & smask
        try:
            parsed = parses[key]
        except KeyError:
            parsed = parses[key] = _parse(_letters(key, z & smask, len(letters)))
        if isinstance(parsed, NotStabilizerShaped):
            reason = f"grammar rejected a certain word: {parsed}"
            violations.append(Violation(m, _sites(smask), sign, None, reason))
        elif parsed is not None:
            spans.append((*parsed, smask))

    pairs, found = _overlap_violations(m, spans)
    overlap_violations.extend(found)
    return 1 << len(basis), pairs


def _overlap_violations(
    m: Measurement, spans: list[tuple[int, int, int]]
) -> tuple[int, list[OverlapViolation]]:
    """(overlapping pairs, violations) among single-sentence subs of m.

    Each span is (left, right, site mask), the walk's mask of the sub, bit
    j - 1 for site j. Both subs restrict m, so strictly inside both spans
    (where none of the four brackets lies) their letters differ exactly at
    the sites one of them keeps; the lowest such site is reported.
    """
    pairs = 0
    found = []
    for (l1, r1, s1), (l2, r2, s2) in itertools.combinations(spans, 2):
        lo = max(l1, l2)
        hi = min(r1, r2)
        if lo > hi:
            continue
        pairs += 1
        differ = ((s1 ^ s2) >> lo << lo) & ((1 << (hi - 1)) - 1)  # sites lo + 1 .. hi - 1
        if differ:
            position = (differ & -differ).bit_length()
            found.append(OverlapViolation(m, (l1, r1), (l2, r2), position))
    return pairs, found


def check_chain_length(n: int) -> None:
    """Refuse a chain of no sites, whose only word is the empty one."""
    if n < 1:
        raise ValueError(f"a chain needs at least 1 site, got n = {n}")


def _check_full_sweep(n: int, advice: str) -> None:
    """Refuse a sweep over all 4^n measurements past n = 7; each caller words
    its own ``advice`` on getting past the guard, appended to the message."""
    if n > _FULL_SWEEP_GUARD:
        raise UnsupportedSizeError(f"full sweep is guarded at n = {_FULL_SWEEP_GUARD}{advice}")


def _measurements(n: int, sample: int | None, seed: int) -> Iterator[str]:
    """The letters of every measurement on n sites, or of ``sample`` seeded
    random ones. The letters come from "IXYZ" only, so they need no check.
    Callers of the full sweep apply ``_check_full_sweep`` first.

    The sample is one draw of ``sample`` rows of n letter codes, the same
    letters as drawing the rows one by one from the same generator.
    """
    check_chain_length(n)
    if sample is None:
        return map("".join, itertools.product("IXYZ", repeat=n))
    if sample < 1:
        raise ValueError(f"sample must be at least 1, got {sample}")
    import numpy as np  # only the sampled sweep needs it

    codes = np.random.default_rng(seed).integers(0, 4, size=(sample, n))
    letters = codes.astype(np.uint8).tobytes().translate(_CODE_LETTERS).decode()
    return (letters[i:i + n] for i in range(0, sample * n, n))


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
    submeasurements agree on overlaps except at bracketing Zs. The chain's
    columns are built, and each distinct certain word parsed, once per call.
    The kernels come from one ``nogo._word_kernels`` call: the full sweep, up
    to n = 7, walks the letter tree, so each kernel vector is found and signed
    once, on the prefix where it arises. Beyond that a seeded sample of
    measurements is required, each eliminated on its own.
    """
    if sample is None:
        _check_full_sweep(n, "; pass --sample K (sample=K) for larger n")
    measurements = _measurements(n, sample, seed)  # checks n and the sample first
    violations: list[Violation] = []
    overlap_violations: list[OverlapViolation] = []
    parses: dict[int, _Parse] = {}
    checks = _word_kernels(chain(n), lambda letters, basis, bits: _check_kernel(
        letters, basis, bits, broadcast_y, violations, overlap_violations, parses),
        None if sample is None else measurements)
    det_total, pair_total = map(sum, zip(*checks))
    return ChainReport(
        n,
        broadcast_y,
        "exhaustive" if sample is None else "sampled",
        len(checks),
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


def compare_readings(n: int) -> tuple[ReadingDiscrepancy, ...]:
    """Flip-decision differences between the silent-Y and broadcast-Y readings,
    over every measurement on n sites (guarded at n = 7)."""
    _check_full_sweep(n, "")  # no sampled reading to point to
    out = []
    for letters in _measurements(n, None, 0):
        m = Measurement(letters)
        silent = flip_sites_for(m, broadcast_y=False)
        loud = flip_sites_for(m, broadcast_y=True)
        for j in sorted(silent ^ loud):
            out.append(ReadingDiscrepancy(m, j, j in silent, j in loud))
    return tuple(out)
