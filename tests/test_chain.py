"""Chain grammar: decomposition, flip decisions, protocol verification."""

import functools
import hashlib
import itertools
import random
import re

import numpy as np
import pytest

from graphlhv import chain_protocol, lhv, nogo, pauli
from graphlhv.chain_protocol import (
    ChainBroadcast,
    ChainReport,
    NotStabilizerShaped,
    Sentence,
    Word,
    _measurements,
    compare_readings,
    decompose,
    decomposition_sign,
    flip_sites_for,
    verify_chain_exhaustive,
)
from graphlhv.graphs import UnsupportedSizeError, chain, ring
from graphlhv.lhv import all_assignments, run
from graphlhv.nogo import find_certain_submeasurements, verify_all_submeasurements
from graphlhv.oracle import classify, enumerate_stabilizer_measurements
from graphlhv.pauli import Measurement, generator_product
from reference import letter_at


def test_word_forms():
    for good in ("X", "YY", "YXY", "YXXY", "YXXXY"):
        Word(1, good)
    for bad in ("Y", "XX", "YX", "XYX", "YXZY", "YYY"):
        with pytest.raises(ValueError):
            Word(1, bad)


def test_word_signs():
    assert Word(1, "X").sign == 1
    assert Word(1, "YY").sign == 1
    assert Word(1, "YXY").sign == -1
    assert Word(1, "YXXY").sign == 1
    assert Word(1, "YXXXY").sign == -1


def test_decompose_ten_qubit_example():
    sentences = decompose("YXYIYYZZXZ")
    assert len(sentences) == 2
    first, second = sentences
    assert (first.left, first.right) == (0, 7)
    assert first.left_virtual and not first.right_virtual
    assert [(w.start, w.letters) for w in first.words] == [(1, "YXY"), (5, "YY")]
    assert (second.left, second.right) == (8, 10)
    assert [(w.start, w.letters) for w in second.words] == [(9, "X")]
    assert decomposition_sign(sentences) == -1


def test_decompose_small_cases():
    s = decompose("YXY")
    assert len(s) == 1 and s[0].left_virtual and s[0].right_virtual
    assert decomposition_sign(s) == -1

    s = decompose("YY")
    assert decomposition_sign(s) == 1

    assert decompose("III") == ()
    assert decompose("ZXZ")[0].words == (Word(2, "X"),)


def test_decompose_rejections():
    for bad in ("XZX", "ZZ", "IXI", "Y", "YXYIII", "ZYXYZZ", "XX"):
        with pytest.raises(NotStabilizerShaped):
            decompose(bad)


# sha256 of decompose's result on every word of up to 6 letters, in product
# order: one line per word, its sentences as (left, right, [(start, letters),
# ...]) or its NotStabilizerShaped text. Recorded while decompose grouped its
# words pairwise; a change to a sentence, a word or a rejection text moves it.
_DECOMPOSE_DIGEST = "69e28fc6991e101fc39e41382000de2e855fd35531eac9f4e2745d9fd49aa5b1"


def test_decompose_is_pinned_on_every_short_word():
    lines = []
    for word in ("".join(p) for n in range(7) for p in itertools.product("IXYZ", repeat=n)):
        try:
            result = [(s.left, s.right, [(w.start, w.letters) for w in s.words])
                      for s in decompose(word)]
        except NotStabilizerShaped as exc:
            result = str(exc)
        lines.append(f"{word} {result}")
    assert len(lines) == 5461
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == _DECOMPOSE_DIGEST


def test_sentence_letter_at():
    s = decompose("YXYIYYZZXZ")[0]
    assert letter_at(s, 0) == "Z"
    assert letter_at(s, 4) == "I"
    assert letter_at(s, 2) == "X"
    assert letter_at(s, 7) == "Z"
    with pytest.raises(ValueError):
        letter_at(s, 9)


@pytest.mark.parametrize("n", range(1, 11))
def test_grammar_completeness_and_signs(n):
    # every signed stabilizer word decomposes and the word signs multiply to
    # the word's actual sign
    g = chain(n)
    for m, sign in enumerate_stabilizer_measurements(g):
        sentences = decompose(m)
        assert decomposition_sign(sentences) == sign


@pytest.mark.parametrize("n", range(1, 9))
def test_grammar_soundness_full_sweep(n):
    # decompose succeeds on exactly the stabilizer letter strings
    g = chain(n)
    stabilizer_letters = {str(m) for m, _ in enumerate_stabilizer_measurements(g)}
    for letters in itertools.product("IXYZ", repeat=n):
        s = "".join(letters)
        try:
            sentences = decompose(s)
            ok = True
        except NotStabilizerShaped:
            ok = False
        assert ok == (s in stabilizer_letters)
        if ok:
            assert classify(g, Measurement(s)).is_deterministic


def test_decompose_reconstructs_via_generator_products():
    # whatever decompose accepts must be a signed generator product
    rng = random.Random(4)
    for n in (6, 9, 12):
        g = chain(n)
        for m, sign in enumerate_stabilizer_measurements(g):
            sentences = decompose(m)
            sites = set()
            for s in sentences:
                for w in s.words:
                    sites.update(range(w.start, w.end + 1))
            a = [1 if j in sites else 0 for j in range(1, n + 1)]
            p = generator_product(g, a)
            assert p.letters == str(m)
            assert p.sign == decomposition_sign(sentences) == sign
        for _ in range(200):
            s = "".join(rng.choice("IXYZ") for _ in range(n))
            if classify(g, Measurement(s)).is_deterministic:
                continue
            with pytest.raises(NotStabilizerShaped):
                decompose(s)


def test_prefix_freeness_of_word_set():
    # no word is a proper prefix of another, up to length 12
    words = ["X", "YY"] + ["Y" + "X" * (k - 2) + "Y" for k in range(3, 13)]
    for a, b in itertools.permutations(words, 2):
        assert not (len(a) < len(b) and b.startswith(a))


def test_flip_decision_examples():
    protocol = ChainBroadcast()
    assert protocol.flip_sites(chain(3), Measurement("YXY")) == frozenset({2})
    assert protocol.flip_sites(chain(3), Measurement("ZXZ")) == frozenset()
    assert protocol.flip_sites(chain(10), Measurement("IZYXXXYZII")) == frozenset({5})
    with pytest.raises(ValueError):
        protocol.flip_sites(ring(4), Measurement("XXXX"))


def test_flip_sites_silent_vs_broadcast():
    # a lone X between silent identities flips only in the silent reading
    m = Measurement("IXI")
    assert flip_sites_for(m, broadcast_y=False) == frozenset({2})
    assert flip_sites_for(m, broadcast_y=True) == frozenset()
    # both readings flip the middle of a genuine odd word
    m = Measurement("YXY")
    assert flip_sites_for(m, broadcast_y=False) == frozenset({2})
    assert flip_sites_for(m, broadcast_y=True) == frozenset({2})


def _reference_flip_sites(m, broadcast_y=False):
    """The recursive sentence search that the two linear passes replaced.

    Each X site j tries every odd word Y X..X Y centred on it whose ends may
    be Y, and asks whether some word sequence completes its sentence to a Z
    (or a chain end) on either side.
    """
    n = len(m)
    shown = "XZY" if broadcast_y else "XZ"
    v = "#" + "".join(ch if ch in shown else "." for ch in m.letters)
    yend = "Y" if broadcast_y else "."

    def can_x(p):
        return 1 <= p <= n and v[p] == "X"

    def can_yend(p):
        return 1 <= p <= n and v[p] == yend

    def is_bracket(p):
        return p in (0, n + 1) or (1 <= p <= n and v[p] == "Z")

    def words_ending_at(e):
        starts = [e] if can_x(e) else []
        if can_yend(e):
            if can_yend(e - 1):
                starts.append(e - 1)
            s = e - 2
            while s >= 1 and can_x(s + 1):
                if can_yend(s):
                    starts.append(s)
                s -= 1
        return starts

    def words_starting_at(s):
        ends = [s] if can_x(s) else []
        if can_yend(s):
            if can_yend(s + 1):
                ends.append(s + 1)
            e = s + 2
            while e <= n and can_x(e - 1):
                if can_yend(e):
                    ends.append(e)
                e += 1
        return ends

    @functools.cache
    def closes_left(s):
        return is_bracket(s - 1) or any(closes_left(s2) for s2 in words_ending_at(s - 2))

    @functools.cache
    def closes_right(e):
        return is_bracket(e + 1) or any(closes_right(e2) for e2 in words_starting_at(e + 2))

    flips = set()
    for j in range(1, n + 1):
        if not can_x(j):
            continue
        k = 1
        while j - k >= 1 and j + k <= n:
            if k >= 2 and not (can_x(j - k + 1) and can_x(j + k - 1)):
                break
            if (can_yend(j - k) and can_yend(j + k)
                    and closes_left(j - k) and closes_right(j + k)):
                flips.add(j)
                break
            k += 1
    return frozenset(flips)


def _all_words(max_n):
    for n in range(1, max_n + 1):
        for letters in itertools.product("IXYZ", repeat=n):
            yield Measurement("".join(letters))


def test_flip_sites_match_recursive_reference():
    for m in _all_words(6):
        for by in (False, True):
            assert flip_sites_for(m, broadcast_y=by) == _reference_flip_sites(m, by), (m, by)


def test_flip_sites_match_recursive_reference_on_long_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # X runs of every length next to the letters that end or bracket them
    pieces = st.sampled_from(["X", "XX", "XXX", "XXXXX", "Y", "I", "Z"])

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(pieces, min_size=1, max_size=30), st.booleans())
    def check(parts, by):
        m = Measurement("".join(parts)[:60])
        assert flip_sites_for(m, broadcast_y=by) == _reference_flip_sites(m, by)

    check()


def test_flip_sites_see_only_the_broadcast_view():
    # in the silent reading I and Y sites look the same to everyone
    for m in _all_words(6):
        assert flip_sites_for(m) == flip_sites_for(Measurement(m.letters.replace("I", "Y")))


def test_flip_sites_on_a_long_sentence():
    # one sentence of 751 odd words: a recursive search overflows the stack here
    m = Measurement("YXY" + "IYXY" * 750)
    n = len(m)
    assert n == 3003
    middles = frozenset(range(2, n, 4))
    assert flip_sites_for(m) == flip_sites_for(m, broadcast_y=True) == middles
    g = chain(n)
    assert 2 in ChainBroadcast().flip_sites(g, m)
    rng = random.Random(11)
    z = [rng.choice((1, -1)) for _ in range(n)]
    assert run(g, m, z, ChainBroadcast()).product_over(m.support()) == classify(g, m).value == -1


def test_flip_decisions_commute_with_reversal():
    # chain reversal is the non-trivial automorphism; palindromic
    # measurements must flip symmetrically
    for n in (4, 5, 6):
        for letters in itertools.product("IXYZ", repeat=(n + 1) // 2):
            full = list(letters) + list(reversed(letters[: n // 2]))
            m = Measurement("".join(full))
            for by in (False, True):
                flips = flip_sites_for(m, broadcast_y=by)
                assert flips == frozenset(n + 1 - j for j in flips)


def test_run_chain_protocol_signs():
    g = chain(3)
    for z in all_assignments(3):
        assert run(g, Measurement("YXY"), z, ChainBroadcast()).product_over((1, 2, 3)) == -1
    g10 = chain(10)
    m = Measurement("YXYIYYZZXZ")
    for _ in range(10):
        rng = random.Random(_)
        z = [rng.choice((1, -1)) for _ in range(10)]
        assert run(g10, m, z, ChainBroadcast()).product_over(m.support()) == -1


def test_run_chain_protocol_plus_sentences_unflipped():
    # sentences without odd words need no flips and give +1 for every z
    g = chain(6)
    m = Measurement("YYZZXZ")
    sentences = decompose(m)
    assert decomposition_sign(sentences) == 1
    assert flip_sites_for(m) == frozenset()
    for z in all_assignments(6):
        assert run(g, m, z, ChainBroadcast()).product_over(m.support()) == 1


def test_run_chain_protocol_rejects_non_chain():
    with pytest.raises(ValueError, match="chain graphs only"):
        ChainBroadcast().flip_sites(ring(4), Measurement("XXXX"))
    with pytest.raises(ValueError, match="chain graphs only"):
        run(ring(4), Measurement("XXXX"), (1, 1, 1, 1), ChainBroadcast())


def test_protocol_matches_pointwise_enumeration_small():
    # the monomial shortcut used by the verifier equals brute-force products
    for n in (2, 3, 4):
        g = chain(n)
        for letters in itertools.product("IXYZ", repeat=n):
            m = Measurement("".join(letters))
            support = m.support()
            for k in range(len(support) + 1):
                for subset in itertools.combinations(support, k):
                    verdict = classify(g, m.restricted_to(subset))
                    if not verdict.is_deterministic:
                        continue
                    for z in all_assignments(n):
                        out = run(g, m, z, ChainBroadcast())
                        assert out.product_over(subset) == verdict.value


@pytest.mark.parametrize("broadcast_y", [False, True])
def test_verify_chain_exhaustive_small(broadcast_y):
    for n in (1, 2, 3, 4, 5):
        report = verify_chain_exhaustive(n, broadcast_y=broadcast_y)
        assert report.clean
        assert report.measurements_checked == 4 ** n


def test_verify_chain_sampled_mode():
    report = verify_chain_exhaustive(9, sample=150, seed=3)
    assert report.clean
    assert report.mode == "sampled" and report.seed == 3
    with pytest.raises(UnsupportedSizeError):
        verify_chain_exhaustive(8)
    # sampling takes any n the kernel guard admits
    report = verify_chain_exhaustive(40, sample=200, seed=1)
    assert report.clean and report.measurements_checked == 200
    assert report.deterministic_subs_checked == 695


@pytest.mark.parametrize("broadcast_y", [False, True])
@pytest.mark.parametrize(
    "n, sample, det, pairs", [(300, 3, 18944, 12), (120, 20, 645, 27)], ids=["n300", "n120"]
)
def test_sampled_sweep_counts_at_scale_are_pinned(broadcast_y, n, sample, det, pairs):
    # Long words make many certain words, most of them several sentences
    # long: the counts pin what the checker parses, whatever parser it uses.
    report = verify_chain_exhaustive(n, broadcast_y, sample=sample, seed=0)
    assert report.clean
    assert report.measurements_checked == sample
    assert report.deterministic_subs_checked == det
    assert report.overlap_pairs_checked == pairs


def test_sample_is_the_per_row_draw():
    # one draw of sample x n codes gives the letters of drawing each row in turn
    for n, sample, seed in ((1, 7, 0), (3, 40, 1), (8, 40, 2), (10, 25, 49), (40, 5, 3)):
        rng = np.random.default_rng(seed)
        rows = ["".join("IXYZ"[k] for k in rng.integers(0, 4, size=n)) for _ in range(sample)]
        assert list(_measurements(n, sample, seed)) == rows


def _certain_subset_count(g, m):
    """The certain subsets of m's support, the empty one included, by brute force."""
    support = m.support()
    return sum(
        classify(g, m.restricted_to(subset)).is_deterministic
        for k in range(len(support) + 1)
        for subset in itertools.combinations(support, k)
    )


@pytest.mark.parametrize("broadcast_y", [False, True])
def test_flip_sites_are_found_only_for_a_nonempty_certain_subset(monkeypatch, broadcast_y):
    calls = []
    original = chain_protocol.flip_sites_for

    def counting(m, broadcast_y=False):
        calls.append(m.letters)
        return original(m, broadcast_y)

    monkeypatch.setattr(chain_protocol, "flip_sites_for", counting)
    assert verify_chain_exhaustive(4, broadcast_y=broadcast_y).clean
    g = chain(4)
    expected = [
        "".join(p) for p in itertools.product("IXYZ", repeat=4)
        if _certain_subset_count(g, Measurement("".join(p))) > 1
    ]
    assert calls == expected and len(calls) == 59


def test_sweep_classifies_each_basis_word_once(monkeypatch):
    # The sweep walks the letter tree, so a kernel vector is found, and
    # confirmed by one call of the oracle's _product_bits, only on the prefix
    # where it arises: Σ over the 340 prefixes of length 1..4 of the rise in
    # kernel dimension (each prefix padded with Is), counted before patching,
    # against the 64 of Σ dim ker over the 256 words. No classify call at all.
    g = chain(4)

    def dim(prefix):
        return len(nogo._signed_kernel(g, Measurement(prefix.ljust(4, "I")))[0])

    prefixes = ["".join(p) for k in range(1, 5) for p in itertools.product("IXYZ", repeat=k)]
    assert len(prefixes) == 340
    rises = sum(dim(p) - dim(p[:-1]) for p in prefixes)
    assert rises == 43
    assert sum(dim("".join(p)) for p in itertools.product("IXYZ", repeat=4)) == 64
    calls = []
    bits, whole = nogo._product_bits, nogo.classify
    monkeypatch.setattr(nogo, "_product_bits", lambda g, x: calls.append((x,)) or bits(g, x))
    monkeypatch.setattr(nogo, "classify", lambda g, m: calls.append(m.letters) or whole(g, m))
    assert verify_chain_exhaustive(4).clean
    assert len(calls) == rises
    assert all(isinstance(call, tuple) for call in calls)


@pytest.mark.parametrize("broadcast_y", [False, True])
def test_sweep_parses_each_stabilizer_word_once(monkeypatch, broadcast_y):
    # Every walked subset is certain, so its sub word is the stabilizer word
    # of its X/Y sites and the parse table needs only that generator set as
    # its key: the exhaustive sweep parses each of the chain's 2^n - 1
    # nonidentity stabilizer words once, and a sampled one no word twice.
    words = []
    parse = chain_protocol._parse
    monkeypatch.setattr(chain_protocol, "_parse", lambda word: words.append(word) or parse(word))
    for n in range(1, 8):
        words.clear()
        assert verify_chain_exhaustive(n, broadcast_y).clean
        assert len(words) == len(set(words)) == 2**n - 1
    words.clear()
    verify_chain_exhaustive(300, broadcast_y, sample=40)
    assert len(words) == len(set(words)) == 36_617


@pytest.mark.parametrize("n, columns", [(4, 255), (5, 1023)])
def test_sweep_eliminates_each_prefix_column_once(monkeypatch, n, columns):
    # One column per tree node with a non-I letter, 3 * 4^(k-1) at depth k,
    # against the n * 3/4 * 4^n (768, 3840) of eliminating every word anew.
    pushed = []
    original = nogo._eliminate

    def counting(cols, pivots):
        return original((pushed.append(col) or col for col in cols), pivots)

    monkeypatch.setattr(nogo, "_eliminate", counting)
    assert verify_chain_exhaustive(n).clean
    assert len(pushed) == columns == 4 ** n - 1


def _check_words(g, words, broadcast_y, violations, overlaps, parses):
    """The checker's (deterministic subs, overlap pairs) for each of ``words``,
    each word's kernel eliminated on its own, as the sampled sweep does."""
    return nogo._word_kernels(g, lambda *kernel: chain_protocol._check_kernel(
        *kernel, broadcast_y, violations, overlaps, parses), words)


def _word_by_word(n, broadcast_y):
    """The exhaustive report built by eliminating each word alone."""
    g = chain(n)
    violations, overlaps, parses = [], [], {}
    count = det = pairs = 0
    for d, p in _check_words(g, _measurements(n, None, 0), broadcast_y, violations, overlaps, parses):
        count, det, pairs = count + 1, det + d, pairs + p
    return ChainReport(
        n, broadcast_y, "exhaustive", count, det, tuple(violations), pairs, tuple(overlaps)
    )


@pytest.mark.parametrize("flips", ["protocol", "every-x"])
def test_letter_tree_sweep_matches_the_word_by_word_sweep(monkeypatch, flips):
    # The whole report, violations in order included, for every word with
    # n <= 6 in both readings; flipping every X site gives violations to compare.
    if flips == "every-x":
        monkeypatch.setattr(chain_protocol, "flip_sites_for", _every_x)
    wrong = [1, 2, 9, 48, 218, 918] if flips == "every-x" else [0] * 6
    for n in range(1, 7):
        for broadcast_y in (False, True):
            report = verify_chain_exhaustive(n, broadcast_y)
            assert report == _word_by_word(n, broadcast_y), (n, broadcast_y)
            assert len(report.violations) == wrong[n - 1], (n, broadcast_y)


def test_each_word_inherits_its_own_kernel():
    # What a word inherits from its prefixes is what eliminating it alone
    # gives: the same basis, in the same order, with the same sign bits.
    for n in range(1, 7):
        g = chain(n)
        kernels = nogo._word_kernels(g, lambda *kernel: kernel)
        assert [k[0] for k in kernels] == list(_measurements(n, None, 0))
        for letters, basis, bits in kernels:
            assert (basis, bits) == nogo._signed_kernel(g, Measurement(letters)), letters
        assert sum(1 << len(basis) for _, basis, _ in kernels) == (
            verify_chain_exhaustive(n).deterministic_subs_checked
        )


def test_sweep_validates_letters_only_where_a_kernel_is_found(monkeypatch):
    # Every Measurement and every decomposed str goes through
    # pauli._check_letters. The sweep's own letters come from "IXYZ" and are
    # not checked; what is: the 59 words with a non-empty kernel (one
    # Measurement each). Basis words are confirmed on their masks, and the 15
    # distinct non-empty certain words are parsed by the sentence pattern, so
    # none of them builds a word.
    calls = []
    original = pauli._check_letters
    monkeypatch.setattr(
        pauli, "_check_letters", lambda letters: calls.append(letters) or original(letters)
    )
    assert verify_chain_exhaustive(4).clean
    assert len(calls) == 59


def test_an_unconfirmed_basis_word_raises(monkeypatch):
    # With Z carrying no coin a Z site's column is empty, so the word with Z
    # there alone lands in the kernel, and the oracle finds it uniform.
    monkeypatch.setitem(lhv.LETTER_COINS, "Z", (0, 0))
    message = "IIZ has an empty monomial but the oracle finds it uniform"
    with pytest.raises(RuntimeError, match=message):
        verify_chain_exhaustive(3)
    with pytest.raises(RuntimeError, match="IZI has an empty monomial"):
        verify_all_submeasurements(chain(3), Measurement("XZX"))


def _every_x(m, broadcast_y=False):
    return frozenset(j for j, ch in enumerate(m.letters, start=1) if ch == "X")


class _EveryX:
    """A flip protocol that flips every X site."""

    name = "every-x"

    def flip_sites(self, g, m):
        return _every_x(m)


def test_deferred_flips_still_decide_every_sign(monkeypatch):
    # flipping every X site breaks the odd Y X..X Y words' signs and more
    monkeypatch.setattr(chain_protocol, "flip_sites_for", _every_x)
    for broadcast_y in (False, True):
        report = verify_chain_exhaustive(4, broadcast_y=broadcast_y)
        assert len(report.violations) == 48
        assert all(v.reason == "wrong constant sign" for v in report.violations)


def test_each_occurrence_of_a_rejected_word_is_reported(monkeypatch):
    # The sweep parses each distinct certain word once, but a rejection is
    # reported for every (measurement, subset) in which the word occurs.
    target = "XZII"  # X1 Z2, the first generator: certain in 16 measurements
    g = chain(4)
    occurrences = [
        (m, tuple(sorted(sites))) for m in map(Measurement, _measurements(4, None, 0))
        for sites, _ in find_certain_submeasurements(g, m)
        if m.restricted_to(sites).letters == target
    ]
    assert len(occurrences) == 16
    original = chain_protocol._parse
    parsed = []

    def rejecting(word):
        parsed.append(word)
        if word == target:
            return NotStabilizerShaped("rejected for the test")
        return original(word)

    monkeypatch.setattr(chain_protocol, "_parse", rejecting)
    for sweep in (1, 2):  # no parse outlives its sweep
        report = verify_chain_exhaustive(4)
        rejected = [(v.measurement, v.sites) for v in report.violations
                    if v.reason.startswith("grammar rejected")]
        assert rejected == occurrences
        assert all(v.expected_sign == 1 and v.protocol_sign is None
                   for v in report.violations)
        assert parsed.count(target) == sweep
        assert len(parsed) == len(set(parsed)) * sweep


def _assert_parse_matches_decompose(word):
    # The checker's parse, read off decompose's sentences instead: its
    # rejection text, the brackets of a single sentence, or None otherwise.
    got = chain_protocol._parse(word)
    try:
        sentences = decompose(word)
    except NotStabilizerShaped as exc:
        assert isinstance(got, NotStabilizerShaped) and str(got) == str(exc), word
        return
    if len(sentences) == 1:
        assert got == (sentences[0].left, sentences[0].right), word
    else:
        assert got is None, word


def test_parse_agrees_with_decompose_on_every_short_word():
    words = ["".join(p) for n in range(8) for p in itertools.product("IXYZ", repeat=n)]
    assert len(words) == 21845
    for word in words:
        _assert_parse_matches_decompose(word)


def test_parse_agrees_with_decompose_on_long_words():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    # every word shape, the X runs that are no word, and the separators
    pieces = st.sampled_from(["X", "XX", "XXX", "Y", "YY", "I", "Z"])

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.lists(pieces, min_size=1, max_size=60))
    def check(parts):
        _assert_parse_matches_decompose("".join(parts)[:60])

    check()


def test_sentence_pattern_accepts_every_stabilizer_word():
    # tied to the oracle's closed form, not to decompose
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from graphlhv.oracle import stabilizer_word

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        st.integers(1, 40).flatmap(lambda n: st.tuples(st.just(n), st.sets(st.integers(1, n))))
    )
    def check(case):
        n, sites = case
        m, _ = stabilizer_word(chain(n), sites)
        assert chain_protocol._SHAPED.fullmatch(m.letters), m

    check()


def test_parse_of_twenty_thousand_letter_words():
    word = "IZ" + "I".join(["YXXXY", "YY", "X", "YXY"] * 1333) + "IXZI"
    assert len(word) == 20000
    assert chain_protocol._parse(word) == (2, 19999)
    _assert_parse_matches_decompose(word)
    # its sentence no longer closes: the pattern fails at the last letters
    rejected = word[:-2] + "II"
    assert str(chain_protocol._parse(rejected)) == (
        "site 19999: expected 'Z' from the sentence tiling, found 'I'"
    )
    _assert_parse_matches_decompose(rejected)


def test_a_clean_sweep_decomposes_no_word(monkeypatch):
    # every certain word of a clean sweep is accepted by the sentence pattern
    calls = []
    original = chain_protocol.decompose
    monkeypatch.setattr(chain_protocol, "decompose", lambda w: calls.append(w) or original(w))
    assert verify_chain_exhaustive(4).clean
    assert verify_chain_exhaustive(10, sample=100, seed=1).clean
    assert calls == []


def test_a_word_only_decompose_accepts_raises(monkeypatch):
    monkeypatch.setattr(chain_protocol, "_SHAPED", re.compile("(?!)"))  # rejects every word
    with pytest.raises(RuntimeError, match="^IZX decomposes but the sentence pattern rejects it$"):
        verify_chain_exhaustive(3)


@pytest.mark.parametrize("broadcast_y", [False, True])
def test_checker_and_submeasurement_verifier_agree(broadcast_y):
    # Two independent deciders of the same protocol: the checker signs each
    # certain subset along the kernel walk, the verifier compares signs on
    # the kernel basis only.
    protocol = ChainBroadcast(broadcast_y)
    for m in _all_words(6):
        g = chain(len(m))
        violations, overlaps = [], []
        _check_words(g, [m.letters], broadcast_y, violations, overlaps, {})
        assert violations == [] and overlaps == [], m
        assert verify_all_submeasurements(g, m, protocol).clean, m


def test_checker_and_submeasurement_verifier_list_the_same_wrong_signs(monkeypatch):
    g = chain(4)
    verifier = [
        (m, c.sites) for m in map(Measurement, _measurements(4, None, 0))
        for c in verify_all_submeasurements(g, m, _EveryX()).mismatches
    ]
    monkeypatch.setattr(chain_protocol, "flip_sites_for", _every_x)
    report = verify_chain_exhaustive(4)
    checker = [(v.measurement, v.sites) for v in report.violations
               if v.reason == "wrong constant sign"]
    assert checker == verifier and len(verifier) == 48


def test_overlap_pairs_are_checked():
    report = verify_chain_exhaustive(5)
    assert report.overlap_pairs_checked > 0
    assert report.overlap_violations == ()


@pytest.mark.parametrize(
    "words, expected",
    [
        # both span 0..7 and differ at sites 2 and 4: the lowest is reported
        (("XIXIXZ", "YXXXYZ"), [((0, 6), (0, 6), 2)]),
        # common span 3..5 with X at 4 in both; they differ only at 3 and 5
        (("IIZXIX", "ZXIXZI"), []),
        # common span 2..6: only site 5, just inside the upper bracket, differs
        (("IZYYIX", "YXXXYZ"), [((2, 7), (0, 6), 5)]),
    ],
    ids=["differ-inside", "differ-at-ends", "differ-below-upper-bracket"],
)
def test_overlap_check_reports_the_lowest_site_strictly_inside(words, expected):
    # No pair of real certain subs with n <= 7 reaches the reporting branch,
    # nor any two single-sentence restrictions of one word with n <= 6, so
    # the spans of two crafted single-sentence words are fed in directly,
    # each with the site mask of its kept sites (bit j - 1 for site j).
    brackets = [chain_protocol._parse(w) for w in words]
    assert all(isinstance(b, tuple) for b in brackets)  # one sentence each
    spans = [
        (*b, sum(1 << (j - 1) for j, ch in enumerate(w, start=1) if ch != "I"))
        for b, w in zip(brackets, words)
    ]
    m = Measurement("YXXXYZ")
    pairs, overlaps = chain_protocol._overlap_violations(m, spans)
    assert pairs == 1
    assert [(o.first_span, o.second_span, o.position) for o in overlaps] == expected
    assert all(o.measurement == m for o in overlaps)


def test_overlap_ten_qubit_sentences_disjoint():
    sentences = decompose("YXYIYYZZXZ")
    s1, s2 = sentences
    assert s1.right < s2.left  # no overlap, the property holds vacuously


def test_compare_readings_keeps_the_full_sweep_guard():
    # compare_readings has no sampled mode, so its guard must not point to one
    with pytest.raises(UnsupportedSizeError, match="^full sweep is guarded at n = 7$"):
        compare_readings(8)


def test_reading_discrepancies_are_harmless():
    # discrepancies exist (lone X between identities) but never inside a
    # deterministic submeasurement; both readings verify clean
    found = compare_readings(3)
    assert any(str(d.measurement) == "IXI" and d.site == 2 for d in found)
    g = chain(3)
    for d in found:
        m = d.measurement
        support = m.support()
        for k in range(len(support) + 1):
            for subset in itertools.combinations(support, k):
                if d.site not in subset:
                    continue
                assert not classify(g, m.restricted_to(subset)).is_deterministic
