"""Word layer: parsing, the square pattern against its oracle, counting, enumeration."""

import bisect
import itertools
import math
import os
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ternwords import (
    CountBudgetError,
    ParseError,
    SquareWitness,
    Word,
    count_square_free,
    ends_with_square,
    enumerate_square_free,
    find_square,
    is_square_free,
    parse_word,
    reverse,
    shift,
)
from ternwords import _pool, words
from ternwords.words import (
    SQUARE,
    _BITS,
    _find_square_scan,
    _grow,
    _mask,
    square_after,
    square_ends_from,
    square_lines,
)

# a(0) .. a(14), cross-checked against the brute-force filter over all 3^n
# words (test_counts_match_brute_force repeats that check up to n=10).
COUNTS = (1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264, 342, 456)

# a(15) .. a(30): regression pins, recorded from an earlier recursive counter
# that tried all three letters at every step.
COUNTS_TAIL = (
    618, 798, 1044, 1392, 1830, 2388, 3180, 4146,
    5418, 7032, 9198, 11892, 15486, 20220, 26424, 34422,
)

LETTER = st.sampled_from([0, 1, 2])

SQUARE_FREE_12 = tuple(enumerate_square_free(12))


def brute_square(letters) -> bool:
    """Third, deliberately dumb detector: compare halves of every factor."""
    s = "".join(map(str, letters))
    n = len(s)
    for i in range(n):
        for j in range(i + 2, n + 1, 2):
            h = (j - i) // 2
            if s[i : i + h] == s[i + h : j]:
                return True
    return False


class TestWord:
    def test_letters_length_iteration(self):
        w = Word([0, 1, 2])
        assert w.letters == (0, 1, 2)
        assert len(w) == 3
        assert list(w) == [0, 1, 2]
        assert str(w) == "012"

    def test_empty_word_is_valid(self):
        w = Word()
        assert len(w) == 0
        assert str(w) == ""

    def test_rejects_out_of_alphabet_letters(self):
        with pytest.raises(ValueError, match="position 1"):
            Word([0, 3, 1])
        with pytest.raises(ValueError, match="position 0"):
            Word("012")  # characters are not letters

    def test_equality_is_letter_by_letter(self):
        assert Word([0, 1]) == Word((0, 1))
        assert Word([0, 1]) != Word([0, 2])
        assert (Word([0, 1]) == (0, 1)) is False

    def test_hash_and_ordering(self):
        words = {Word([0, 1]), Word([0, 1]), Word([0, 2])}
        assert len(words) == 2
        assert Word([0, 1]) < Word([0, 2]) < Word([1])
        assert sorted([Word([2]), Word([]), Word([0, 1])]) == [
            Word([]),
            Word([0, 1]),
            Word([2]),
        ]

    def test_indexing_and_slicing(self):
        w = Word([2, 1, 0, 2])
        assert w[0] == 2
        assert w[-1] == 2
        piece = w[1:3]
        assert isinstance(piece, Word)
        assert piece == Word([1, 0])

    def test_concatenation(self):
        assert Word([0, 1]) + Word([2]) == Word([0, 1, 2])

    def test_repr_round_trips_through_str(self):
        assert repr(Word([1, 0])) == "Word('10')"


class TestByteStorage:
    """A Word keeps its letters in one bytes object; every view agrees with it."""

    def test_views_agree_exhaustively_up_to_length_6(self):
        for n in range(0, 7):
            for tup in itertools.product((0, 1, 2), repeat=n):
                w = Word(tup)
                assert w.letters == tup
                assert bytes(w) == bytes(w.letters), tup
                for c in (0, 1, 2):
                    assert shift(w, c).letters == tuple((a + c) % 3 for a in w.letters), (tup, c)
                assert reverse(w).letters == tup[::-1]
                assert str(w) == "".join(map(str, tup))
                assert parse_word(str(w)) == w

    def test_bytes_returns_the_stored_object(self):
        w = parse_word("0120")
        assert bytes(w) is bytes(w)
        assert bytes(w[1:3]) == b"\x01\x02"
        assert bytes(w + Word([2])) == b"\x00\x01\x02\x00\x02"

    def test_never_equal_to_its_bytes(self):
        assert Word([0, 1]) != b"\x00\x01"
        assert b"\x00\x01" != Word([0, 1])


class TestParseWord:
    def test_plain_digits(self):
        assert parse_word("012") == Word([0, 1, 2])

    def test_empty_text(self):
        assert parse_word("") == Word([])

    def test_whitespace_is_ignored(self):
        spaced = "2 1 0 2 0 1 2 0 2 1 2 0 1 0 2 0 1 2"
        assert parse_word(spaced) == parse_word("210201202120102012")
        assert len(parse_word(spaced)) == 18

    def test_format_drops_whitespace(self):
        assert str(parse_word("0 1\t2\n")) == "012"

    @pytest.mark.parametrize(
        "text,pos", [("3", 0), ("0x2", 1), ("01 2a", 4)]
    )
    def test_rejects_other_characters(self, text, pos):
        with pytest.raises(ParseError, match=f"position {pos}"):
            parse_word(text)


class TestFindSquare:
    def test_whole_word_square(self):
        assert find_square(Word([0, 1, 0, 1])) == SquareWitness(start=0, period=2)

    def test_square_free_word(self):
        assert find_square(Word([0, 1, 0])) is None

    def test_inner_letter_square(self):
        assert find_square(Word([0, 1, 1, 2])) == SquareWitness(start=1, period=1)

    def test_tie_break_smallest_start_then_period(self):
        # start 0 period 1 beats start 1 period 1
        assert find_square(Word([0, 0, 0])) == SquareWitness(0, 1)
        # the long square at start 0 beats the short one at start 1
        assert find_square(Word([2, 0, 0, 2, 0, 0])) == SquareWitness(0, 3)

    def test_witness_halves_match(self):
        rng = random.Random(4821)
        for _ in range(300):
            letters = [rng.randrange(3) for _ in range(rng.randint(0, 30))]
            w = Word(letters)
            witness = find_square(w)
            assert (witness is None) == (not brute_square(letters))
            if witness is not None:
                s, p = witness
                assert letters[s : s + p] == letters[s + p : s + 2 * p]


class TestKernelAgainstOracle:
    """The compiled pattern behind find_square and ends_with_square against
    the cubic (start, period) scan."""

    def test_exhaustive_up_to_length_10(self):
        for n in range(0, 11):
            for tup in itertools.product((0, 1, 2), repeat=n):
                w = Word(tup)
                assert find_square(w) == _find_square_scan(w), tup
                # a square ends at the last letter of w exactly when one
                # starts at the first letter of w reversed, and the oracle
                # reports the smallest start
                witness = _find_square_scan(reverse(w))
                assert ends_with_square(w) == (
                    witness is not None and witness.start == 0
                ), tup

    @given(st.lists(LETTER, max_size=80))
    def test_random_words(self, letters):
        w = Word(letters)
        assert find_square(w) == _find_square_scan(w)

    @given(st.sampled_from(SQUARE_FREE_12), st.sampled_from(SQUARE_FREE_12))
    def test_joined_square_free_words(self, a, b):
        # any square here crosses the seam, often with a long period
        w = a + b
        assert find_square(w) == _find_square_scan(w)


class TestSquareAfter:
    """The prepend form, capped at half the buffer's length, against the
    pattern on the joined string, on every buffer, square-free or not."""

    def test_exhaustive_up_to_length_10(self):
        for n in range(0, 11):
            for tup in itertools.product((0, 1, 2), repeat=n):
                rev = bytes(tup)
                for a in (0, 1, 2):
                    joined = SQUARE.match(bytes((a,)) + rev) is not None
                    assert (square_after(n)[a](rev) is not None) == joined, (a, tup)

    @given(LETTER, st.lists(LETTER, max_size=80))
    def test_random_buffers(self, a, letters):
        rev = bytes(letters)
        joined = SQUARE.match(bytes((a,)) + rev) is not None
        assert (square_after(len(rev))[a](rev) is not None) == joined


class TestSquareEndsFrom:
    """Whether a square ends at or after a start index, against a scan of
    every square's end and against SQUARE.match on the reversed letters."""

    def test_matches_a_scan(self):
        # every word of length <= 7 and every start
        for n in range(8):
            for letters in itertools.product(b"\0\1\2", repeat=n):
                s = bytes(letters)
                ends = {
                    start + 2 * period - 1
                    for start in range(n)
                    for period in range(1, (n - start) // 2 + 1)
                    if s[start : start + period] == s[start + period : start + 2 * period]
                }
                for start in range(n + 1):
                    expected = any(end >= start for end in ends)
                    assert square_ends_from(s, start) == expected

    @given(
        st.lists(st.integers(0, 2), max_size=6),
        st.lists(st.integers(0, 1), max_size=150),
        st.lists(st.integers(0, 2), max_size=4),
    )
    def test_matches_the_match_scan(self, head, choices, tail):
        # a square-free walk, chosen letter by letter among the letters that
        # keep it square-free, with arbitrary letters on either side (none
        # gives a square-free buffer); SQUARE.match on the reversed letters
        # at each end position, for every start
        rev = b""
        for choice in choices:
            options = [a for a in b"\0\1\2" if SQUARE.match(bytes((a,)) + rev) is None]
            if not options:
                break
            rev = bytes((options[choice % len(options)],)) + rev
        s = bytes(head) + rev[::-1] + bytes(tail)
        back = s[::-1]
        hits = [SQUARE.match(back, pos) is not None for pos in range(len(s))]
        for start in range(len(s) + 1):
            expected = any(hits[: len(s) - start])
            assert square_ends_from(s, start) == expected


def scan_lines(lines) -> int:
    """``square_lines``' answer by the cubic scan: bit 2j for line j with a square."""
    return sum(1 << 2 * j for j, line in enumerate(lines) if _find_square_scan(Word(line)))


# Square-free text to cut lines from: the built-in pair's image of 01201
# with choices UVVUV, 90 letters.
SQUARE_FREE_90 = bytes(
    parse_word("210201202120102012021012102010210120102120210"
               "121021201210201202120102012021012102010210120")
)


class TestSquareLines:
    """The expansion's batch test marks exactly the lines the scan finds a
    square in, so its lowest mark is the first failing line."""

    def test_every_line_up_to_length_10(self):
        # every ternary line of each length, as one batch per length
        for n in range(11):
            lines = [bytes(t) for t in itertools.product(b"\0\1\2", repeat=n)]
            assert square_lines(b"".join(lines), n) == scan_lines(lines), n

    def test_the_empty_batch(self):
        for width in range(5):
            assert square_lines(b"", width) == 0

    @given(
        st.integers(0, 40).flatmap(
            lambda width: st.tuples(
                st.just(width),
                st.lists(
                    st.tuples(
                        st.sampled_from(["square-free", "first", "last", "random"]),
                        st.integers(0, 90 - width),
                        st.integers(1, max(width // 2, 1)),
                        st.lists(LETTER, min_size=width, max_size=width),
                    ),
                    min_size=1,
                    max_size=300,
                ),
            )
        )
    )
    def test_random_batches(self, shape):
        # square-free lines cut from SQUARE_FREE_90, the same with a square
        # of period p put at the first or at the last letters, and random
        # lines, which are square-free only when short
        width, rows = shape
        lines = []
        for kind, offset, p, letters in rows:
            s = SQUARE_FREE_90[offset : offset + width]
            if kind == "first" and 2 * p <= width:
                s = s[:p] * 2 + s[2 * p :]
            elif kind == "last" and 2 * p <= width:
                s = s[: width - 2 * p] + s[width - 2 * p : width - p] * 2
            elif kind == "random":
                s = bytes(letters)
            lines.append(s)
        marks = square_lines(b"".join(lines), width)
        assert marks == scan_lines(lines)
        first = next((j for j, line in enumerate(lines) if _find_square_scan(Word(line))), None)
        assert (marks & -marks).bit_length() // 2 == (0 if first is None else first)
        assert (marks == 0) == (first is None)


def batch(revs) -> bytes:
    """The count's batch form: each reversed prefix led by a newline, its
    letters 0, 1, 2 stored as their bits 1, 2, 4."""
    return b"".join(b"\n" + rev.translate(_BITS) for rev in revs)


def kept_lines(revs, n: int, a: int) -> bytes:
    """The batch lines that letter a extends, with a in front, by the
    prepend form: those that do not start with a and give a.rev no square
    prefix."""
    return batch(
        bytes((a,)) + rev for rev in revs if rev[:1] != bytes((a,)) and square_after(n)[a](rev) is None
    )


def grown(revs, n: int) -> bytes:
    """The next batch of the count: the lines that 0 extends, then 1, then 2."""
    return b"".join(kept_lines(revs, n, a) for a in (0, 1, 2))


class TestBatchFilter:
    """One pass over the batch's columns keeps, per letter a, exactly the
    lines that the prepend form lets a extend, in batch order, leaving out
    the lines that start with a, and puts a in front of them."""

    def test_exhaustive_on_square_free_prefixes_up_to_14(self):
        # the reverse of a square-free word is square-free, so these are
        # every reversed prefix the count can hold, in the count's order
        # and shuffled; from length 3 on each letter keeps some lines of
        # the others' groups and drops others
        rng = random.Random(14)
        for n in range(1, 15):
            revs = sorted(bytes(w)[::-1] for w in enumerate_square_free(n))
            shuffled = rng.sample(revs, len(revs))
            assert _grow(batch(revs), n) == grown(revs, n), n
            assert _grow(batch(shuffled), n) == grown(shuffled, n), n
            for a in (0, 1, 2):
                kept = kept_lines(revs, n, a).count(b"\n")
                others = sum(rev[0] != a for rev in revs)
                assert n < 3 or 0 < kept < others, (n, a)

    def test_short_lines_and_the_empty_batch(self):
        # every line of 0 to 3 letters, square-free or not, in reverse
        # lexicographic order; below length 3 no period p >= 2 fits
        for n in range(0, 4):
            revs = [bytes(t) for t in itertools.product((2, 1, 0), repeat=n)]
            assert _grow(batch(revs), n) == grown(revs, n), n
        for n in range(0, 6):
            assert _grow(b"", n) == b"", n

    # 2.01201 and 0.21021 are squares of period 3; one line per first letter
    @example(5, [[0, 1, 2, 0, 1] + [0] * 35, [2, 1, 0, 2, 1] + [0] * 35, [1] * 40])
    @given(st.integers(0, 40), st.lists(st.lists(LETTER, min_size=40, max_size=40), max_size=16))
    def test_unsorted_batches(self, n, rows):
        # lines of one length in any order, square-free or not, starting
        # with any letter, a's own included
        revs = [bytes(row[:n]) for row in rows]
        assert _grow(batch(revs), n) == grown(revs, n)
        # the count's last length reads only the mask's bits
        survivors = sum(kept_lines(revs, n, a).count(b"\n") for a in (0, 1, 2))
        assert 3 * len(revs) - _mask(batch(revs), n).bit_count() == survivors

    @given(st.integers(1, 40), st.lists(st.lists(LETTER, min_size=40, max_size=40), max_size=12))
    def test_random_buffers(self, n, rows):
        # a batch of buffers of one length, square-free or not, grouped by
        # first letter in any order within a group
        revs = sorted((bytes(row[:n]) for row in rows), key=lambda rev: rev[0])
        assert _grow(batch(revs), n) == grown(revs, n)


class TestIsSquareFree:
    def test_examples(self):
        assert is_square_free(Word([0, 1, 2, 0, 2, 1]))
        assert not is_square_free(Word([0, 1, 0, 1]))
        assert is_square_free(parse_word("210201202120102012"))

    def test_empty_and_single(self):
        assert is_square_free(Word([]))
        assert is_square_free(Word([2]))


class TestEndsWithSquare:
    @pytest.mark.parametrize(
        "letters,expected",
        [
            ([0, 1, 0, 1], True),
            ([0, 1, 0], False),
            ([2, 1, 0, 2, 2], True),
            ([], False),
            ([0], False),
            ([0, 1, 1, 2], False),  # the square does not touch the end
        ],
    )
    def test_examples(self, letters, expected):
        assert ends_with_square(Word(letters)) is expected

    def test_prefix_scan_equals_reference_exhaustively(self):
        for n in range(0, 11):
            for tup in itertools.product((0, 1, 2), repeat=n):
                w = Word(tup)
                sf = is_square_free(w)
                via_prefixes = not any(
                    ends_with_square(w[: i + 1]) for i in range(n)
                )
                assert sf == via_prefixes, tup

    def test_prefix_scan_equals_reference_randomized(self):
        rng = random.Random(99182)
        for _ in range(100_000):
            n = rng.randint(0, 60)
            w = Word(tuple(rng.randrange(3) for _ in range(n)))
            sf = is_square_free(w)
            via_prefixes = not any(ends_with_square(w[: i + 1]) for i in range(n))
            assert sf == via_prefixes, w


class TestCounting:
    def test_known_counts(self):
        for n, expected in enumerate(COUNTS + COUNTS_TAIL):
            assert count_square_free(n) == expected

    def test_counts_match_brute_force(self):
        for n in range(0, 11):
            brute = sum(
                1
                for tup in itertools.product((0, 1, 2), repeat=n)
                if _find_square_scan(Word(tup)) is None
            )
            assert count_square_free(n) == brute

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            count_square_free(-1)

    def test_non_integer_length_rejected(self):
        # a length the walk never reaches: without the check the count
        # spends its whole budget; the budget keeps a regression from hanging
        with pytest.raises(TypeError):
            count_square_free(3.5, node_budget=10**5)

    def test_non_integer_budget_rejected(self):
        with pytest.raises(TypeError):
            count_square_free(10, node_budget=2.5)
        assert count_square_free(3, node_budget=True) == 12

    def test_growth_upper_bound(self):
        counts = COUNTS + COUNTS_TAIL
        for n in range(1, len(counts) - 1):
            assert counts[n + 1] <= 2 * counts[n]

    def test_submultiplicative(self):
        counts = COUNTS + COUNTS_TAIL
        for m in range(len(counts)):
            for n in range(len(counts) - m):
                assert counts[m + n] <= counts[m] * counts[n]

    def test_desk_scale(self):
        # stays snappy well past the lengths the rest of the suite uses
        assert count_square_free(30) == 34422

    def test_node_budget(self):
        # the walk for a(20) visits 1241 prefixes of the 0, 1 class: a(m) / 6
        # summed over m = 2 .. 19
        assert count_square_free(20, node_budget=1241) == 2388
        with pytest.raises(CountBudgetError, match="node budget of 1240"):
            count_square_free(20, node_budget=1240)
        with pytest.raises(CountBudgetError):
            count_square_free(3, node_budget=0)
        # below length 3 nothing is walked: the walk starts from the word 0, 1
        assert [count_square_free(n, node_budget=0) for n in (0, 1, 2)] == [1, 3, 6]
        with pytest.raises(ValueError):
            count_square_free(20, node_budget=-1)


ALL_COUNTS = COUNTS + COUNTS_TAIL


def walked(n: int) -> int:
    """The prefixes the count of a(n) visits: a(m) / 6 for m = 2 .. n-1."""
    return sum(ALL_COUNTS[2:n]) // 6


def one_process(n: int) -> int:
    """a(n), n >= 2, by the depth-first walk that enumeration uses."""
    return 6 * sum(1 for _ in words._walk(n, (b"\x01\x00",)))


@pytest.fixture()
def batches(monkeypatch):
    """The prefix count of every batch that later counts walk in this
    process, in walk order, the batch that overruns a budget included."""
    taken = []
    count_below = words._count_below

    def counting(n, length, batch, take):
        def counted(prefixes):
            taken.append(prefixes)
            take(prefixes)

        return count_below(n, length, batch, counted)

    monkeypatch.setattr(words, "_count_below", counting)
    return taken


class TestBatchCount:
    """The batch counter against the depth-first walk, with any cap."""

    def test_equals_the_walk_on_one_process(self, set_cpus, batches):
        # the batches for a(n) hold a(m) / 6 prefixes of each length m < n
        set_cpus(1)
        prefixes = 1  # the word 0, 1
        for n in range(3, 35):
            batches.clear()
            assert count_square_free(n) == one_process(n), n
            assert sum(batches) == prefixes, n
            prefixes += one_process(n) // 6

    def test_one_process_up_to_45(self, set_cpus):
        # A006156's a(25) .. a(45), on the batch test alone
        set_cpus(1)
        expected = COUNTS_TAIL[10:] + (
            44862, 58446, 76122, 99276, 129516, 168546, 219516, 285750,
            372204, 484446, 630666, 821154, 1069512, 1392270, 1812876,
        )
        assert [count_square_free(n) for n in range(25, 46)] == list(expected)

    def test_a_small_cap(self, monkeypatch, set_cpus, batches):
        set_cpus(1)
        monkeypatch.setattr(words, "_CAP", 16)
        for n in range(3, len(ALL_COUNTS)):
            batches.clear()
            assert count_square_free(n) == ALL_COUNTS[n], n
            assert sum(batches) == walked(n)
            assert max(batches) <= 16

    def test_a_small_cap_on_the_pool(self, monkeypatch, set_cpus, pool_sizes, batches):
        set_cpus(2)
        monkeypatch.setattr(words, "_PARALLEL_MIN_N", words._SPLIT_DEPTH + 1)
        monkeypatch.setattr(words, "_CAP", 16)
        assert count_square_free(30, node_budget=walked(30)) == 34422
        assert sum(batches) == walked(30) - 59  # the parent walks 59 prefixes
        assert max(batches) <= 16
        assert pool_sizes == [2]


class TestBudgetPreCheck:
    """A count that the built-in pair's lower bound on a(m) (``_least``)
    shows to overrun its budget fails before it walks."""

    def test_the_small_counts_are_exact(self):
        assert words._SMALL_COUNTS == ALL_COUNTS[:25]

    def test_the_bound_holds_for_every_pinned_count(self):
        pinned = dict(enumerate(ALL_COUNTS))
        pinned.update({38: 285750, 42: 821154, 45: 1812876, 53: 14956584})
        for m, count in pinned.items():
            assert words._least(m) <= count, m

    def test_against_the_exact_sum(self):
        # the bound restated: a(m) for m <= 24, else 2^(j-1) * least(j+1)
        # with j = m // 18; the pre-check fires exactly past the sum of
        # least(m) / 6 over m = 2 .. n-1
        def least(m):
            return ALL_COUNTS[m] if m <= 24 else 2 ** (m // 18 - 1) * least(m // 18 + 1)

        total = 0
        for n in range(3, 700):
            total += least(n - 1) // 6
            assert not words._overruns_surely(n, total), n
            assert words._overruns_surely(n, total - 1), n

    @pytest.mark.parametrize("n,fires", [(10**5, False), (10**9, True)])
    def test_a_huge_budget_is_summed_a_run_at_a_time(self, monkeypatch, n, fires):
        # past m = 24, _least(m) depends on m // 18 only, so the sum calls
        # it once per run of 18 lengths, not once per length; below
        # m = 10^6 each such call nests at most 4 more
        calls = []
        least = words._least
        monkeypatch.setattr(words, "_least", lambda m: calls.append(m) or least(m))
        budget = 10**4000
        assert words._overruns_surely(n, budget) is fires
        # the run with m // 18 = j adds at least 2^(j-1) // 6 > budget once
        # 2^(j-1) > 6 * budget, so the sum stops by that run
        runs = min(n // 18, (6 * budget).bit_length() + 1)
        assert len(calls) <= 5 * (23 + runs)

    def test_never_fires_on_a_budget_that_fits(self):
        for n in range(3, len(ALL_COUNTS) + 1):
            assert not words._overruns_surely(n, walked(n)), n
        assert not words._overruns_surely(42, 452767)
        assert not words._overruns_surely(100, 7074)

    def test_fires_where_the_bound_passes_the_budget(self):
        # up to a(25) the bound is a(m) itself, so the pre-check fires
        # exactly when the walk would overrun (1241 prefixes at n = 20)
        assert walked(20) == 1241
        for n in range(3, 26):
            assert words._overruns_surely(n, walked(n) - 1), n
        # below a(100) the bound puts walked(25) = 4935 prefixes at the
        # lengths up to 24, then 1, 4, 12, 40 and 112 at each length of
        # 25 .. 35, 36 .. 53, 54 .. 71, 72 .. 89 and 90 .. 99: 7074 in all
        assert words._overruns_surely(100, 7073)
        assert words._overruns_surely(3, 0)
        # from n = 254 the length 253 adds 2^13 * a(15) / 6 = 843776
        # prefixes to 9853474, and the sum passes 10^7
        assert not words._overruns_surely(253, words.DEFAULT_COUNT_BUDGET)
        assert words._overruns_surely(254, words.DEFAULT_COUNT_BUDGET)
        assert words._overruns_surely(10**9, 10**30)
        assert words._overruns_surely(10**9, 10**400)  # exact integers, no cap

    def test_reaches_as_far_as_the_two_older_bounds(self):
        # the pre-check once took Brinkhuis' a(m) >= 2^(m/24), summed in
        # floats up to m = 24000, or the pair's a(18j) >= 2^j * a(j) for
        # j <= 24; both grow with n, so each budget's first firing n is
        # the edge of a firing range, found by bisection, and the sum the
        # pre-check takes grows with n too, so it must fire at that edge
        def older(n, budget):
            r = 2 ** (1 / 24)
            if (r ** min(n, 24000) - r**2) / (r - 1) / 6 * (1 - 1e-9) > budget:
                return True
            lengths = range(1, min((n - 1) // 18, 24) + 1)
            return sum(2**j * ALL_COUNTS[j] // 6 for j in lengths) > budget

        for budget in (c * 10**e for e in range(40) for c in (1, 2, 5)):
            ns = range(3, 4000)
            edge = bisect.bisect_left(ns, True, key=lambda n: older(n, budget))
            assert edge < len(ns), budget
            assert words._overruns_surely(ns[edge], budget), budget

    def test_a_hopeless_count_walks_nothing(self, batches):
        with pytest.raises(
            CountBudgetError,
            match=r"^node budget of 10000000 prefixes exhausted before a\(500\) was counted$",
        ):
            count_square_free(500, node_budget=words.DEFAULT_COUNT_BUDGET)
        assert batches == []

    def test_every_count_has_a_budget(self, batches):
        # the library's default is the budget the CLI passes, and None is
        # not a budget: a count with no argument stops before it walks
        assert count_square_free.__defaults__ == (words.DEFAULT_COUNT_BUDGET,)
        with pytest.raises(
            CountBudgetError,
            match=r"^node budget of 10000000 prefixes exhausted before a\(500\) was counted$",
        ):
            count_square_free(500)
        assert batches == []
        with pytest.raises(TypeError):
            count_square_free(20, node_budget=None)

    def test_a_count_past_the_pair_bound_walks_nothing(self, batches):
        # at 10^7 the bound fires from n = 254 on; Brinkhuis'
        # a(m) >= 2^(m/24) alone would not rule a(400) out
        with pytest.raises(CountBudgetError, match=r"before a\(400\) was counted$"):
            count_square_free(400, node_budget=words.DEFAULT_COUNT_BUDGET)
        assert batches == []


class TestParallelCount:
    """From _PARALLEL_MIN_N on, with two usable CPUs or more,
    count_square_free sums the subtrees below the split depth on a pool,
    with the one-process count and budget outcome."""

    @pytest.fixture()
    def parallel(self, monkeypatch, set_cpus):
        """Two CPUs, and the parallel path from just past the split depth."""
        set_cpus(2)
        monkeypatch.setattr(words, "_PARALLEL_MIN_N", words._SPLIT_DEPTH + 1)

    def test_split(self):
        tally = words._Tally(59)  # the prefixes above the split depth fit
        starts = words._split(tally)
        assert len(starts) == 24
        assert tally.walked == 59  # prefixes the parent walks
        # the count's own batch growth from the word 0, 1, restated: the
        # walker's lines are the batch filter's
        grown = words._START
        for length in range(2, words._SPLIT_DEPTH):
            grown = _grow(grown, length)
        width = words._SPLIT_DEPTH + 1
        assert sorted(starts) == sorted(grown[i : i + width] for i in range(0, len(grown), width))

    def test_equals_one_process(self, parallel):
        for n in range(words._SPLIT_DEPTH + 1, words._PARALLEL_MIN_N + 1):
            assert count_square_free(n) == one_process(n), n

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_budget_is_exact_at_42(self, set_cpus, cpus):
        # the one-process walk for a(42) visits 452767 prefixes
        set_cpus(cpus)
        assert count_square_free(42, node_budget=452767) == 821154
        with pytest.raises(
            CountBudgetError,
            match=r"^node budget of 452766 prefixes exhausted before a\(42\) was counted$",
        ):
            count_square_free(42, node_budget=452766)

    def test_budget_is_exact_at_20(self, parallel):
        assert count_square_free(20, node_budget=1241) == 2388
        with pytest.raises(
            CountBudgetError,
            match=r"^node budget of 1240 prefixes exhausted before a\(20\) was counted$",
        ):
            count_square_free(20, node_budget=1240)

    @pytest.mark.parametrize("budget", [0, 58, 59, 100, 10**5])
    def test_budget_error_names_the_callers_budget(self, set_cpus, budget):
        # the parent walks 59 prefixes to the split depth; from 59 on, the
        # budget runs out in a subtree, inside a worker
        set_cpus(2)
        with pytest.raises(
            CountBudgetError,
            match=rf"^node budget of {budget} prefixes exhausted before a\(42\) was counted$",
        ):
            count_square_free(42, node_budget=budget)

    @pytest.mark.parametrize("cpus,sizes", [(2, [2]), (3, [3]), (10**6, [24]), (1, []), (None, [])])
    def test_pool_size(self, set_cpus, pool_sizes, cpus, sizes):
        n = words._PARALLEL_MIN_N
        set_cpus(cpus)
        assert count_square_free(n) == one_process(n)
        assert pool_sizes == sizes  # one worker per CPU, at most one per subtree

    def test_affinity_mask_caps_the_pool(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        count_square_free(words._PARALLEL_MIN_N)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
        count_square_free(words._PARALLEL_MIN_N)
        assert pool_sizes == [3]

    def test_one_process_below_the_threshold(self, set_cpus, pool_sizes):
        set_cpus(8)
        count_square_free(words._PARALLEL_MIN_N - 1)
        assert pool_sizes == []


class TestSharedBudget:
    """A budgeted subtree takes a shared permit for every whole chunk it
    walks after its first, and stops when none is left, so the workers of
    a count that overruns stop near the budget.  The walk counts a whole
    batch at a time, so it stops after the batch that passes its last
    chunk."""

    @pytest.mark.parametrize("permits", [0, 1, 3])
    def test_a_subtree_stops_after_its_permits(self, batches, permits):
        sem = _pool.context().Semaphore(permits)
        with pytest.raises(CountBudgetError):
            words._count_subtree(sem, 100, (100, 2, words._START))
        # one free chunk and one per permit, and the batch that passed them
        # is the last one walked
        assert sum(batches[:-1]) <= 100 * (permits + 1) < sum(batches)
        assert sem.acquire(False) is False

    def test_a_subtree_that_fits_reports_its_prefixes(self):
        # the walk for a(20) visits 1241 prefixes, in 13 chunks of 100
        sem = _pool.context().Semaphore(100)
        assert words._count_subtree(sem, 100, (20, 2, words._START)) == (2388 // 6, 1241)
        for _ in range(100 - 12):
            assert sem.acquire(False)
        assert sem.acquire(False) is False  # only whole chunks took permits

    def test_many_workers_share_the_budget(self, monkeypatch, set_cpus):
        # more workers than CPUs, each taking a permit every 64 prefixes; a
        # permit lost between them would stop a count that fits its budget
        set_cpus(8)
        monkeypatch.setattr(words, "_CHUNK", 64)
        for _ in range(3):
            assert count_square_free(42, node_budget=452767) == 821154
            with pytest.raises(CountBudgetError):
                count_square_free(42, node_budget=452766)

    def test_an_overrun_stops_near_the_budget(self, set_cpus, pool_sizes, batches):
        # in one process the subtrees run one after another: the first
        # overruns the shared budget and stops within a chunk and a batch
        # of it
        set_cpus(2)
        budget = 10 * words._CHUNK
        with pytest.raises(CountBudgetError, match="node budget of 40960 "):
            count_square_free(100, node_budget=budget)
        walked = 59 + sum(batches)  # the parent walks 59 prefixes
        assert budget < walked <= budget + words._CHUNK + batches[-1]
        assert batches[-1] <= words._CAP
        assert pool_sizes == [2]


class TestEnumeration:
    def test_zero_length(self):
        assert list(enumerate_square_free(0)) == [Word([])]

    def test_length_one(self):
        assert [str(w) for w in enumerate_square_free(1)] == ["0", "1", "2"]

    def test_length_two(self):
        assert [str(w) for w in enumerate_square_free(2)] == [
            "01", "02", "10", "12", "20", "21",
        ]

    def test_length_four(self):
        words = list(enumerate_square_free(4))
        assert len(words) == 18
        assert words[0] == Word([0, 1, 0, 2])
        assert words[-1] == Word([2, 1, 2, 0])

    def test_lexicographic_order(self):
        words = list(enumerate_square_free(7))
        assert words == sorted(words)
        assert len(words) == COUNTS[7]

    def test_matches_brute_filter(self):
        # product yields lexicographic order, so the lists match in order too
        for n in range(0, 9):
            brute = [
                tup
                for tup in itertools.product((0, 1, 2), repeat=n)
                if _find_square_scan(Word(tup)) is None
            ]
            assert [w.letters for w in enumerate_square_free(n)] == brute

    def test_matches_sorted_pattern_filter_up_to_12(self):
        # the filter runs the whole-word search, which TestKernelAgainstOracle
        # holds against the cubic scan; the expansion check's snake order and
        # first_square rely on this order
        for n in range(0, 13):
            brute = sorted(
                letters
                for letters in map(bytes, itertools.product((0, 1, 2), repeat=n))
                if SQUARE.search(letters) is None
            )
            words = SQUARE_FREE_12 if n == 12 else enumerate_square_free(n)
            assert [bytes(w) for w in words] == brute, n

    def test_counts_agree(self):
        for n in range(0, 11):
            assert sum(1 for _ in enumerate_square_free(n)) == count_square_free(n)

    def test_long_word_without_recursion(self):
        w = next(enumerate_square_free(1200))
        assert len(w) == 1200
        assert is_square_free(w)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_square_free(-2))

    def test_non_integer_length_rejected(self):
        with pytest.raises(TypeError):
            list(enumerate_square_free(2.5))


class TestShiftReverse:
    def test_shift_examples(self):
        assert shift(Word([0, 1, 2]), 2) == Word([2, 0, 1])
        w = Word([0, 2, 1])
        assert shift(w, 0) is w

    def test_shift_rejects_other_amounts(self):
        with pytest.raises(ValueError):
            shift(Word([0]), 3)
        with pytest.raises(ValueError):
            shift(Word([0]), -1)

    def test_reverse_examples(self):
        assert reverse(Word([0, 1, 2])) == Word([2, 1, 0])
        assert reverse(Word([])) == Word([])

    def test_shifts_compose_to_identity(self):
        w = parse_word("0120212")
        assert shift(shift(w, 1), 2) == w

    def test_square_freeness_invariant(self):
        rng = random.Random(7302)
        for _ in range(500):
            letters = [rng.randrange(3) for _ in range(rng.randint(0, 40))]
            w = Word(letters)
            sf = is_square_free(w)
            for c in (0, 1, 2):
                assert is_square_free(shift(w, c)) == sf
            assert is_square_free(reverse(w)) == sf


class TestFactorClosure:
    def test_all_factors_of_square_free_words(self):
        for n in range(0, 11):
            for w in enumerate_square_free(n):
                for i in range(n):
                    for j in range(i + 1, n + 1):
                        assert is_square_free(w[i:j]), (w, i, j)


@given(st.lists(LETTER, max_size=40))
def test_parse_format_round_trip(letters):
    w = Word(letters)
    assert parse_word(str(w)) == w


@given(st.lists(LETTER, max_size=40), st.sampled_from([0, 1, 2]))
def test_shift_preserves_square_freeness(letters, c):
    w = Word(letters)
    assert is_square_free(shift(w, c)) == is_square_free(w)


@given(st.lists(LETTER, max_size=40))
def test_reverse_involution(letters):
    w = Word(letters)
    assert reverse(reverse(w)) == w
