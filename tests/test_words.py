"""Word layer: parsing, the square pattern against its oracle, counting, enumeration."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternwords import (
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
from ternwords.words import _find_square_scan

# a(0) .. a(14), cross-checked against the brute-force filter over all 3^n
# words (test_counts_match_brute_force repeats that check up to n=10).
COUNTS = (1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264, 342, 456)

# a(15) .. a(20): regression pins from the depth-first counter itself; the
# recursion is identical to the brute-verified range above.
COUNTS_TAIL = (618, 798, 1044, 1392, 1830, 2388)

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
                w = Word._wrap(tup)
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
                w = Word._wrap(tup)
                sf = is_square_free(w)
                via_prefixes = not any(
                    ends_with_square(w[: i + 1]) for i in range(n)
                )
                assert sf == via_prefixes, tup

    def test_prefix_scan_equals_reference_randomized(self):
        rng = random.Random(99182)
        for _ in range(100_000):
            n = rng.randint(0, 60)
            w = Word._wrap(tuple(rng.randrange(3) for _ in range(n)))
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
                if _find_square_scan(Word._wrap(tup)) is None
            )
            assert count_square_free(n) == brute

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            count_square_free(-1)

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
                if _find_square_scan(Word._wrap(tup)) is None
            ]
            assert [w.letters for w in enumerate_square_free(n)] == brute

    def test_counts_agree(self):
        for n in range(0, 11):
            assert sum(1 for _ in enumerate_square_free(n)) == count_square_free(n)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            list(enumerate_square_free(-2))


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
