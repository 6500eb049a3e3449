"""Substitution through a pair, the blow-up check, and the growth bound."""

import functools
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ternwords import (
    ExpansionBudgetError,
    TriplePair,
    Word,
    builtin_pair,
    enumerate_square_free,
    find_square,
    is_square_free,
    lower_bound,
    make_triple_pair,
    parse_choices,
    parse_word,
    shift,
    substitute,
    verify_expansion,
)
from ternwords import morphism
from ternwords.words import _find_square_scan

from test_search import relabelled


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

    def test_negative_budget_rejected(self, builtin):
        with pytest.raises(ValueError, match=r"^budget must be >= 0, got -1$"):
            verify_expansion(builtin, 0, budget=-1)

    def test_non_integer_length_rejected(self, builtin):
        # a TypeError at once, not a budget error that names 2^30.5
        with pytest.raises(TypeError):
            verify_expansion(builtin, 30.5)
        assert verify_expansion(builtin, True).total == 6

    def test_non_integer_budget_rejected(self, builtin):
        with pytest.raises(TypeError):
            verify_expansion(builtin, 2, budget=100.5)

    def test_budget_guard_raises_before_work(self, builtin):
        with pytest.raises(ExpansionBudgetError, match="exceeds budget"):
            verify_expansion(builtin, 3, budget=50)

    def test_budget_guard_stops_the_enumeration_early(self, monkeypatch, builtin):
        # 2^45 * 29 is the first multiple of 2^45 past 10^15; a(45) is 1812876
        drawn = []

        def counting_enumeration(n):
            for x in enumerate_square_free(n):
                drawn.append(x)
                yield x

        monkeypatch.setattr(morphism, "enumerate_square_free", counting_enumeration)
        with pytest.raises(ExpansionBudgetError, match=r"2\^n \* a\(n\) >= \d+ exceeds budget"):
            verify_expansion(builtin, 45, budget=10**15)
        assert 0 < len(drawn) <= 29

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


@functools.lru_cache(maxsize=None)
def _scan_square_free(normal: bytes) -> bool:
    return _find_square_scan(Word(normal)) is None


def scan_square_free(w: Word) -> bool:
    """The cubic scan's verdict.  Renaming letters maps squares to squares,
    so it is cached per word with its letters renamed in order of first
    appearance, and the 48 relabellings of a pair share one scan per image."""
    b = bytes(w)
    first_seen = bytes(dict.fromkeys(b))
    return _scan_square_free(b.translate(bytes.maketrans(first_seen, bytes(range(len(first_seen))))))


def expansion_oracle(tp: TriplePair, n: int) -> tuple:
    """(total, all square-free, all distinct) by the whole-image path: choice
    strings in product order, ``substitute``, the cubic scan, and a set."""
    words = list(enumerate_square_free(n))
    all_sf, seen = True, set()
    for x in words:
        for tup in itertools.product("UV", repeat=n):
            image = substitute(tp, x, "".join(tup))
            all_sf = all_sf and scan_square_free(image)
            seen.add(image)
    total = len(words) * 2**n
    return total, all_sf, len(seen) == total


def snake_order(n: int):
    """(word, choices) in verify_expansion's visiting order."""
    forward = ["".join(t) for t in itertools.product("UV", repeat=n)]
    for i, x in enumerate(enumerate_square_free(n)):
        yield from ((x, ch) for ch in (forward[::-1] if i % 2 else forward))


def first_square_oracle(tp: TriplePair, n: int):
    """The first image in visiting order with a square, as (word, choices)."""
    for x, ch in snake_order(n):
        if not scan_square_free(substitute(tp, x, ch)):
            return x, ch
    return None


def report_tuple(report) -> tuple:
    return report.total, report.all_square_free, report.all_distinct


def v2_with_letter_raised(tp: TriplePair, pos: int) -> TriplePair:
    """The pair with V2[pos] raised by 1 mod 3."""
    letters = bytearray(bytes(tp.v[2]))
    letters[pos] = (letters[pos] + 1) % 3
    return TriplePair(u=tp.u, v=(tp.v[0], tp.v[1], Word(letters)))


# square-free blocks make images whose squares sit across block boundaries
PAIR_ROWS = st.integers(2, 4).flatmap(
    lambda k: st.lists(
        st.one_of(
            st.sampled_from([w.letters for w in enumerate_square_free(k)]),
            st.lists(st.sampled_from([0, 1, 2]), min_size=k, max_size=k),
        ),
        min_size=6,
        max_size=6,
    )
)


def set_chunk(monkeypatch, images: int, width: int):
    """Make verify_expansion test ``images`` images of ``width`` letters per chunk."""
    monkeypatch.setattr(morphism, "_CHUNK_BYTES", images * width)


def check_against_the_oracle(monkeypatch, rows, n, chunk=None):
    monkeypatch.setattr(morphism, "_require_verified", lambda tp: None)
    tp = make_triple_pair([Word(r) for r in rows])
    if chunk is not None:
        set_chunk(monkeypatch, chunk, n * tp.k)
    report = verify_expansion(tp, n)
    assert report_tuple(report) == expansion_oracle(tp, n)
    first = first_square_oracle(tp, n)
    if first is None:
        assert report.first_square is None
    else:
        assert report.first_square == (*first, _find_square_scan(substitute(tp, *first)))


class TestExpansionAgainstOracle:
    """verify_expansion tests the images in chunks, each as one batch; the
    oracle checks every image on its own."""

    @settings(
        max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
        deadline=None,
    )
    @given(PAIR_ROWS, st.integers(0, 4))
    def test_arbitrary_pairs_match_the_whole_image_oracle(self, monkeypatch, rows, n):
        check_against_the_oracle(monkeypatch, rows, n)

    # chunks of one image, of a few and of more than a word's 2^n images
    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @settings(
        max_examples=300,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
        deadline=None,
    )
    @given(rows=PAIR_ROWS, n=st.integers(0, 4))
    def test_chunk_boundaries_match_the_oracle(self, monkeypatch, chunk, rows, n):
        check_against_the_oracle(monkeypatch, rows, n, chunk)

    def test_builtin_and_its_relabellings(self, builtin):
        for perm in itertools.permutations(range(3)):
            for swaps in range(8):
                tp = relabelled(builtin, perm, swaps)
                for n in range(5):
                    report = verify_expansion(tp, n)
                    assert report_tuple(report) == expansion_oracle(tp, n), (perm, swaps, n)
                    assert report.first_square is None

    def test_every_image_in_snake_order(self, monkeypatch, builtin):
        # the whole visiting order, not just where it first fails: odd-indexed
        # words take their choice strings in reverse product order
        calls = []
        substitute_ = morphism.substitute

        def recording_substitute(tp, x, choices):
            calls.append((x, choices))
            return substitute_(tp, x, choices)

        monkeypatch.setattr(morphism, "substitute", recording_substitute)
        for n in range(6):
            calls.clear()
            assert verify_expansion(builtin, n).all_square_free
            assert calls == list(snake_order(n)), n

    def test_no_memory_per_image(self, builtin):
        # 2^7 * a(7) = 7680 images of length 126; a set of them took 2 MB
        verify_expansion(builtin, 3)  # warm the verify and regex caches
        tracemalloc.start()
        try:
            report = verify_expansion(builtin, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report_tuple(report) == (7680, True, True)
        assert peak < 500_000


FIRST_SQUARES = [
    (0, ("012", "VVV")),  # the first image of a word
    (17, ("020", "UVU")),  # inside a word
]


def check_first_square(monkeypatch, builtin, pos, expected):
    monkeypatch.setattr(morphism, "_require_verified", lambda tp: None)
    tp = v2_with_letter_raised(builtin, pos)
    report = verify_expansion(tp, 3)
    assert not report.all_square_free
    word, choices, witness = report.first_square
    assert (str(word), choices) == expected
    assert (word, choices) == first_square_oracle(tp, 3)
    assert witness is not None
    assert witness == find_square(substitute(tp, word, choices))


class TestFirstSquare:
    @pytest.mark.parametrize("pos,expected", FIRST_SQUARES)
    def test_first_failing_image_in_visiting_order(self, monkeypatch, builtin, pos, expected):
        check_first_square(monkeypatch, builtin, pos, expected)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("pos,expected", FIRST_SQUARES)
    def test_first_failing_image_across_chunks(self, monkeypatch, builtin, pos, expected, chunk):
        set_chunk(monkeypatch, chunk, 3 * builtin.k)
        check_first_square(monkeypatch, builtin, pos, expected)

    def test_stops_at_the_first_square(self, monkeypatch, builtin):
        # the square is in the 19th image of 96; with 8 images per chunk the
        # chunk that holds it ends at image 24, and no later chunk is built
        monkeypatch.setattr(morphism, "_require_verified", lambda tp: None)
        set_chunk(monkeypatch, 8, 3 * builtin.k)
        calls = []
        substitute_ = morphism.substitute
        monkeypatch.setattr(morphism, "substitute", lambda *args: calls.append(args) or substitute_(*args))
        report = verify_expansion(v2_with_letter_raised(builtin, 17), 3)
        word, choices, _ = report.first_square
        assert (str(word), choices) == ("020", "UVU")
        assert len(calls) == 24

    @pytest.mark.parametrize("chunk,built", [(1, 19), (7, 21), (64, 64), (200, 96)])
    def test_stops_at_the_end_of_the_failing_chunk(self, monkeypatch, builtin, chunk, built):
        monkeypatch.setattr(morphism, "_require_verified", lambda tp: None)
        set_chunk(monkeypatch, chunk, 3 * builtin.k)
        calls = []
        substitute_ = morphism.substitute
        monkeypatch.setattr(morphism, "substitute", lambda *args: calls.append(args) or substitute_(*args))
        assert verify_expansion(v2_with_letter_raised(builtin, 17), 3).first_square is not None
        assert len(calls) == built


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
    def test_report_is_immutable(self):
        report = lower_bound(18)
        assert report == (18, 17, 2 ** (1 / 17))
        with pytest.raises(AttributeError):
            report.k = 19

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

    def test_rejects_a_float_k(self):
        with pytest.raises(TypeError):
            lower_bound(2.5)

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
