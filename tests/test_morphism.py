"""Substitution through a pair, the blow-up check, and the growth bound."""

import itertools
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ternwords import (
    ExpansionBudgetError,
    TriplePair,
    Word,
    builtin_pair,
    enumerate_square_free,
    is_square_free,
    lower_bound,
    make_triple_pair,
    parse_choices,
    parse_word,
    shift,
    substitute,
    verify_expansion,
)


def unverified_pair() -> TriplePair:
    return make_triple_pair(
        [parse_word(t) for t in ("01", "02", "10", "12", "20", "21")]
    )


class TestParseChoices:
    def test_accepts_uv(self):
        assert parse_choices("UVUV") == "UVUV"
        assert parse_choices("") == ""

    @pytest.mark.parametrize("text,pos", [("UXV", 1), ("uv", 0), ("UV ", 2)])
    def test_rejects_anything_else(self, text, pos):
        with pytest.raises(ValueError, match=f"position {pos}"):
            parse_choices(text)


class TestSubstitute:
    def test_single_letter_picks_one_block(self, builtin):
        assert substitute(builtin, Word([0]), "U") == builtin.u[0]
        assert substitute(builtin, Word([2]), "V") == builtin.v[2]

    def test_three_letter_example(self, builtin):
        image = substitute(builtin, Word([0, 1, 2]), "UVU")
        assert image == builtin.u[0] + builtin.v[1] + builtin.u[2]
        assert len(image) == 54
        assert is_square_free(image)

    def test_empty_input(self, builtin):
        assert substitute(builtin, Word([]), "") == Word([])

    def test_length_mismatch(self, builtin):
        with pytest.raises(ValueError, match="does not match"):
            substitute(builtin, Word([0, 1]), "U")

    def test_total_even_for_square_inputs(self, builtin):
        # no square-freeness precondition on the input word
        image = substitute(builtin, Word([0, 0]), "UU")
        assert image == builtin.u[0] + builtin.u[0]
        assert not is_square_free(image)

    def test_output_length_multiplies(self, builtin):
        for n in (1, 2, 5):
            x = next(iter(enumerate_square_free(n)))
            assert len(substitute(builtin, x, "U" * n)) == n * builtin.k


def substitute_oracle(tp: TriplePair, letters: tuple, choices: str) -> tuple:
    """The image's letters, built block by block from letter tuples."""
    out = ()
    for a, c in zip(letters, choices):
        out += (tp.u[a] if c == "U" else tp.v[a]).letters
    return out


@given(
    st.sampled_from([builtin_pair(), unverified_pair()]),
    st.lists(st.tuples(st.sampled_from([0, 1, 2]), st.sampled_from("UV")), max_size=12),
)
def test_substitute_matches_letter_oracle(tp, steps):
    letters = tuple(a for a, _ in steps)
    choices = "".join(c for _, c in steps)
    image = substitute(tp, Word(letters), choices)
    assert image.letters == substitute_oracle(tp, letters, choices)
    assert bytes(image) == bytes(image.letters)


class TestVerifyExpansion:
    @pytest.mark.parametrize("n,total", [(1, 6), (2, 24), (3, 96)])
    def test_small_lengths(self, builtin, n, total):
        report = verify_expansion(builtin, n)
        assert report.total == total
        assert report.all_square_free
        assert report.all_distinct

    def test_unverified_pair_rejected(self):
        with pytest.raises(ValueError, match="fails verification"):
            verify_expansion(unverified_pair(), 1)

    def test_negative_length_rejected(self, builtin):
        with pytest.raises(ValueError):
            verify_expansion(builtin, -1)

    def test_budget_guard_raises_before_work(self, builtin):
        with pytest.raises(ExpansionBudgetError, match="exceeds budget"):
            verify_expansion(builtin, 3, budget=50)

    def test_default_guard_trips_eventually(self, builtin):
        # 2^16 * a(16) is the first count past ten million
        with pytest.raises(ExpansionBudgetError):
            verify_expansion(builtin, 16)

    def test_broken_pair_detected(self, builtin):
        # force a duplicate image by replacing V2 with U2: the certificate
        # fails, so the precondition rejects it before any counting
        broken = TriplePair(u=builtin.u, v=(builtin.v[0], builtin.v[1], builtin.u[2]))
        with pytest.raises(ValueError, match="fails verification"):
            verify_expansion(broken, 1)


class TestCountingInequality:
    """a(n*k) >= 2^n * a(n): the 2^n * a(n) images are distinct and
    square-free exactly when verify_expansion reports both flags true."""

    def test_empty_case(self, builtin):
        report = verify_expansion(builtin, 0)
        assert report.total == 1
        assert report.all_square_free
        assert report.all_distinct

    @pytest.mark.parametrize("n,expected", [(1, 6), (2, 24)])
    def test_small_lengths(self, builtin, n, expected):
        report = verify_expansion(builtin, n)
        assert report.total == expected
        assert report.all_square_free
        assert report.all_distinct

    def test_unverified_pair_rejected(self):
        with pytest.raises(ValueError, match="fails verification"):
            verify_expansion(unverified_pair(), 1)


class TestLowerBound:
    def test_classic_values(self):
        assert lower_bound(18).mu_lower_bound == pytest.approx(2 ** (1 / 17), abs=0)
        assert lower_bound(18).exponent_denominator == 17
        assert f"{lower_bound(18).mu_lower_bound:.5f}" == "1.04162"
        assert f"{lower_bound(25).mu_lower_bound:.5f}" == "1.02930"
        assert f"{lower_bound(23).mu_lower_bound:.5f}" == "1.03201"

    def test_rejects_degenerate_k(self):
        for k in (1, 0, -3):
            with pytest.raises(ValueError):
                lower_bound(k)

    def test_strictly_decreasing(self):
        values = [lower_bound(k).mu_lower_bound for k in range(2, 60)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_shorter_pair_beats_older_bounds(self):
        assert (
            lower_bound(18).mu_lower_bound
            > lower_bound(23).mu_lower_bound
            > lower_bound(25).mu_lower_bound
        )

    def test_exact_formula(self):
        for k in (2, 7, 19, 40):
            assert lower_bound(k).mu_lower_bound == 2.0 ** (1.0 / (k - 1))
            assert math.isclose(lower_bound(k).mu_lower_bound ** (k - 1), 2.0)


class TestEquivariance:
    @pytest.mark.parametrize("c", [1, 2])
    def test_shift_commutes_with_substitution(self, builtin, c):
        # U_{x+c} = shift(U_x, c) for the built-in pair, so shifting the
        # input by c shifts the image by c
        for n in (1, 2, 3, 4):
            for x in enumerate_square_free(n):
                for tup in itertools.product("UV", repeat=n):
                    ch = "".join(tup)
                    assert substitute(builtin, shift(x, c), ch) == shift(
                        substitute(builtin, x, ch), c
                    )


class TestRandomizedImages:
    def test_longer_inputs_stay_square_free_and_distinct(self, builtin):
        rng = random.Random(55119)
        seen = set()
        for _ in range(1050):
            n = rng.choice((6, 7, 8))
            # grow a random square-free word letter by letter
            letters = []
            while len(letters) < n:
                options = [
                    x for x in (0, 1, 2)
                    if is_square_free(Word(letters + [x]))
                ]
                if not options:
                    letters = []
                    continue
                letters.append(rng.choice(options))
            x = Word(letters)
            ch = "".join(rng.choice("UV") for _ in range(n))
            image = substitute(builtin, x, ch)
            assert is_square_free(image)
            seen.add((x.letters, ch, image.letters))
        # sampled injectivity: every sampled (input, choices) pair gave its
        # own image
        assert len({i for _, _, i in seen}) == len(seen)
