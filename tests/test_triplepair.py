"""Triple-pair construction, the two defining checks, certificates, file IO."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternwords import (
    ParseError,
    SearchConfig,
    SquareWitness,
    TriplePair,
    Word,
    builtin_pair,
    certificate_text,
    concatenation_words,
    find_pairs,
    head_tail_range,
    heads_and_tails,
    make_triple_pair,
    pair_text,
    parse_pair_text,
    parse_word,
    read_pair_file,
    reverse,
    search,
    shift,
    verify,
)
from ternwords.triplepair import HEADTAIL_LABELS
from ternwords.words import _find_square_scan, enumerate_square_free, is_square_free

DATA = Path(__file__).parent / "data"

# The built-in 18-pair, pinned digit by digit.
BUILTIN_DIGITS = (
    "210201202120102012",  # U0
    "210201021202102012",  # V0
    "021012010201210120",  # U1
    "021012102010210120",  # V1
    "102120121012021201",  # U2
    "102120210121021201",  # V2
)

CONCAT_LABELS = (
    "0U1U", "0U1V", "0V1U", "0V1V",
    "0U2U", "0U2V", "0V2U", "0V2V",
    "1U2U", "1U2V", "1V2U", "1V2V",
    "1U0U", "1U0V", "1V0U", "1V0V",
    "2U0U", "2U0V", "2V0U", "2V0V",
    "2U1U", "2U1V", "2V1U", "2V1V",
)


def tiny_pair() -> TriplePair:
    """k=2 pair that constructs fine and fails verification."""
    return make_triple_pair(
        [parse_word(t) for t in ("01", "02", "10", "12", "20", "21")]
    )


def shift_relabel(tp: TriplePair, c: int) -> TriplePair:
    """Shift every word by c and rotate the indices to match."""
    return TriplePair(
        u=tuple(shift(tp.u[(i - c) % 3], c) for i in range(3)),
        v=tuple(shift(tp.v[(i - c) % 3], c) for i in range(3)),
    )


def swap_index(tp: TriplePair, i: int) -> TriplePair:
    u, v = list(tp.u), list(tp.v)
    u[i], v[i] = v[i], u[i]
    return TriplePair(u=tuple(u), v=tuple(v))


class TestConstruction:
    def test_builtin_constructs(self, builtin):
        assert builtin.k == 18
        assert [str(w) for w in builtin.words_in_file_order()] == list(BUILTIN_DIGITS)

    def test_small_k_constructs_even_if_not_verifiable(self):
        assert tiny_pair().k == 2

    def test_file_order(self, builtin):
        assert builtin.words_in_file_order() == (
            builtin.u[0], builtin.v[0],
            builtin.u[1], builtin.v[1],
            builtin.u[2], builtin.v[2],
        )

    def test_length_mismatch_names_offender(self):
        words = [parse_word(t) for t in BUILTIN_DIGITS]
        words[3] = parse_word(str(words[3])[:-1])
        with pytest.raises(ValueError, match="V1 has length 17"):
            make_triple_pair(words)

    def test_wrong_word_count(self):
        with pytest.raises(ValueError, match="expected 6 words, got 5"):
            make_triple_pair([parse_word("01")] * 5)

    def test_degenerate_k(self):
        with pytest.raises(ValueError, match="k >= 2"):
            make_triple_pair([parse_word(t) for t in "010212"])

    def test_non_word_rejected(self):
        with pytest.raises(ValueError, match="V0 is not a Word"):
            TriplePair(u=(Word([0, 1]),) * 3, v=("01",) * 3)

    def test_copies_are_checked(self, builtin):
        with pytest.raises(ValueError, match="V0 is not a Word"):
            builtin._replace(v=("01",) * 3)
        with pytest.raises(ValueError, match="k >= 2"):
            TriplePair._make(((Word([0]),) * 3, (Word([1]),) * 3))
        assert builtin._replace(u=builtin.u) == builtin

    def test_wrap_skips_the_checks(self):
        tp = TriplePair._wrap(("01",), ())
        assert (type(tp), tp.u, tp.v) == (TriplePair, ("01",), ())

    def test_attributes_cannot_be_assigned(self, builtin):
        for field in ("u", "v", "k", "other"):
            with pytest.raises(AttributeError):
                setattr(builtin, field, None)

    def test_equality_and_hash_are_those_of_the_words(self, builtin):
        again = make_triple_pair([parse_word(t) for t in BUILTIN_DIGITS])
        assert again == builtin and again is not builtin
        assert hash(again) == hash(builtin) == hash((builtin.u, builtin.v))
        assert swap_index(builtin, 0) != builtin
        assert {builtin, again, tiny_pair()} == {builtin, tiny_pair()}
        assert again in {builtin} and swap_index(builtin, 1) not in {builtin}


class TestConcatenations:
    def test_label_order_is_fixed(self, builtin):
        entries = concatenation_words(builtin)
        assert [label for label, _ in entries] == list(CONCAT_LABELS)

    def test_first_entry_is_u0_u1(self, builtin):
        label, word = concatenation_words(builtin)[0]
        assert label == "0U1U"
        assert word == builtin.u[0] + builtin.u[1]

    def test_lengths_are_2k(self, builtin):
        assert all(len(w) == 36 for _, w in concatenation_words(builtin))
        assert all(len(w) == 4 for _, w in concatenation_words(tiny_pair()))

    def test_collapsed_choices_give_six_distinct_words(self, builtin):
        collapsed = TriplePair(u=builtin.u, v=builtin.u)
        entries = concatenation_words(collapsed)
        assert len(entries) == 24
        assert len({w for _, w in entries}) == 6

    def test_builtin_all_pass(self, builtin):
        checks = verify(builtin).concat_results
        assert len(checks) == 24
        assert all(c.ok for c in checks)

    def test_repeated_word_pair_fails_immediately(self):
        w = Word([0, 1])
        degenerate = TriplePair(u=(w, w, w), v=(w, w, w))
        first = verify(degenerate).concat_results[0]
        assert first.label == "0U1U"
        assert first.witness == SquareWitness(start=0, period=2)

    def test_tiny_pair_first_failure(self):
        first = verify(tiny_pair()).concat_results[0]
        # U0 U1 = 0110 stutters in the middle
        assert first.witness == SquareWitness(start=1, period=1)


class TestHeadsAndTails:
    def test_range(self):
        assert head_tail_range(18) == range(9, 18)
        assert head_tail_range(2) == range(1, 2)
        assert head_tail_range(5) == range(3, 5)

    def test_builtin_r9(self, builtin):
        items = heads_and_tails(builtin, 9)
        assert len(items) == 12
        assert all(len(w) == 9 for w in items)
        assert items[0] == parse_word("210201202")

    def test_source_order_heads_then_tails(self, builtin):
        items = heads_and_tails(builtin, 10)
        sources = (
            builtin.u[0], builtin.u[1], builtin.u[2],
            builtin.v[0], builtin.v[1], builtin.v[2],
        )
        assert items[:6] == [w[:10] for w in sources]
        assert items[6:] == [w[8:] for w in sources]

    @pytest.mark.parametrize("r", [8, 18, 0, -1])
    def test_out_of_range_rejected(self, builtin, r):
        with pytest.raises(ValueError, match="outside"):
            heads_and_tails(builtin, r)

    def test_builtin_passes_every_level(self, builtin):
        checks = verify(builtin).headtail_results
        assert [c.r for c in checks] == list(range(9, 18))
        assert all(c.ok for c in checks)

    def test_duplicate_base_word_collides(self, builtin):
        dup = TriplePair(u=builtin.u, v=(builtin.u[0], builtin.v[1], builtin.v[2]))
        checks = verify(dup).headtail_results
        assert all(not c.ok for c in checks)
        assert checks[0].collision == ("headU0", "headV0")

    def test_tiny_pair_fails_by_pigeonhole(self):
        checks = verify(tiny_pair()).headtail_results
        assert len(checks) == 1
        assert not checks[0].ok


class TestVerify:
    def test_builtin_certificate(self, builtin):
        cert = verify(builtin)
        assert cert.verdict
        assert cert.shift_symmetric
        assert not cert.palindromic_base
        assert cert.k == 18

    def test_entry_counts(self, builtin):
        for tp in (builtin, tiny_pair()):
            cert = verify(tp)
            k = tp.k
            assert len(cert.concat_results) == 24
            assert len(cert.headtail_results) == (k - 1) - (k + 1) // 2 + 1

    def test_degraded_pair_fails(self, builtin):
        broken = TriplePair(
            u=(builtin.u[0], builtin.u[0], builtin.u[2]), v=builtin.v
        )
        assert not verify(broken).verdict

    def test_tiny_pair_fails(self):
        assert not verify(tiny_pair()).verdict

    def test_palindromic_flag(self):
        w = Word([0, 1, 0])
        pal = TriplePair(u=(w, w, w), v=(w, w, w))
        cert = verify(pal)
        assert cert.palindromic_base
        assert not cert.shift_symmetric
        assert not cert.verdict

    def test_passing_pair_has_square_free_words(self, builtin):
        from ternwords import is_square_free

        assert all(is_square_free(w) for w in builtin.words_in_file_order())

    def test_pass_implies_u_differs_from_v(self, builtin):
        assert all(builtin.u[i] != builtin.v[i] for i in range(3))


class TestVerifyInvariance:
    @pytest.mark.parametrize("c", [1, 2])
    def test_shift_relabel_preserves_verdict(self, builtin, c):
        assert verify(shift_relabel(builtin, c)).verdict
        assert not verify(shift_relabel(tiny_pair(), c)).verdict

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_per_index_swap_preserves_verdict(self, builtin, i):
        swapped = swap_index(builtin, i)
        assert verify(swapped).verdict
        assert all(swapped.u[j] != swapped.v[j] for j in range(3))

    def test_all_swaps_at_once(self, builtin):
        swapped = swap_index(swap_index(swap_index(builtin, 0), 1), 2)
        assert verify(swapped).verdict

    def test_shift_relabel_fixes_shift_symmetric_pairs(self, builtin):
        # with U_i = shift(U_0, i) the relabeled shift reproduces the pair
        for c in (1, 2):
            assert shift_relabel(builtin, c) == builtin


class TestBuiltinStructure:
    def test_shift_relations(self, builtin):
        assert shift(builtin.u[0], 1) == builtin.u[1]
        assert shift(builtin.u[0], 2) == builtin.u[2]
        assert shift(builtin.v[0], 1) == builtin.v[1]
        assert shift(builtin.v[0], 2) == builtin.v[2]

    def test_base_words_are_mutual_reversals_not_palindromes(self, builtin):
        assert reverse(builtin.u[0]) == builtin.v[0]
        assert reverse(builtin.u[0]) != builtin.u[0]

    def test_fresh_instances_are_equal(self):
        assert builtin_pair() == builtin_pair()


class TestCertificateText:
    def test_builtin_matches_golden_bytes(self, builtin):
        golden = (DATA / "builtin_certificate.txt").read_bytes()
        assert certificate_text(verify(builtin)).encode("ascii") == golden

    def test_stable_across_runs(self, builtin):
        assert certificate_text(verify(builtin)) == certificate_text(verify(builtin))

    def test_failing_pair_lines(self):
        text = certificate_text(verify(tiny_pair()))
        lines = text.splitlines()
        assert lines[0] == "k=2"
        assert lines[1] == "CONCAT 0U1U FAIL square@1 period=1"
        assert lines[25] == "HEADTAIL r=1 FAIL headU0=headV0"
        assert lines[26] == "SHIFTSYM false"
        assert lines[27] == "PALINDROME false"
        assert lines[28] == "VERDICT FAIL"
        assert len(lines) == 29
        assert text.endswith("\n")


class TestPairFiles:
    def test_pair_text_format(self, builtin):
        assert pair_text(builtin) == "\n".join(BUILTIN_DIGITS) + "\n"

    def test_round_trip(self, builtin):
        assert parse_pair_text(pair_text(builtin)) == builtin

    def test_comments_blanks_and_spacing(self, builtin):
        text = "# the classic pair\n\n"
        text += "\n".join(" ".join(d) for d in BUILTIN_DIGITS)
        text += "\n# trailing note\n"
        assert parse_pair_text(text) == builtin

    def test_too_few_words(self):
        with pytest.raises(ParseError, match="expected 6 words, found 5"):
            parse_pair_text("\n".join(BUILTIN_DIGITS[:5]))

    def test_too_many_words(self):
        with pytest.raises(ParseError, match="found 7"):
            parse_pair_text("\n".join(BUILTIN_DIGITS + ("012",)))

    def test_bad_character_reports_line(self):
        text = "# header\n01\n0x\n10\n12\n20\n21\n"
        with pytest.raises(ParseError, match="line 3"):
            parse_pair_text(text)

    def test_read_pair_file(self, tmp_path, builtin):
        path = tmp_path / "pair.txt"
        path.write_text(pair_text(builtin))
        assert read_pair_file(path) == builtin

    def test_read_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_pair_file(tmp_path / "absent.txt")


def reference_certificate(tp: TriplePair) -> str:
    """The certificate text built from the oracle square scan over Words and
    the ordered pairwise head/tail scan, independent of verify's fast paths."""
    slot = {"U": tp.u, "V": tp.v}
    concats = [
        (label, slot[label[1]][int(label[0])] + slot[label[3]][int(label[2])])
        for label in CONCAT_LABELS
    ]
    assert concatenation_words(tp) == concats
    lines = [f"k={tp.k}"]
    verdict = True
    for label, w in concats:
        witness = _find_square_scan(w)
        if witness is None:
            lines.append(f"CONCAT {label} PASS")
        else:
            verdict = False
            lines.append(f"CONCAT {label} FAIL square@{witness.start} period={witness.period}")
    for r in head_tail_range(tp.k):
        items = heads_and_tails(tp, r)
        collision = next(
            (
                (HEADTAIL_LABELS[a], HEADTAIL_LABELS[b])
                for a in range(12)
                for b in range(a + 1, 12)
                if items[a] == items[b]
            ),
            None,
        )
        if collision is None:
            lines.append(f"HEADTAIL r={r} PASS")
        else:
            verdict = False
            lines.append(f"HEADTAIL r={r} FAIL {collision[0]}={collision[1]}")
    sym = all(shift(tp.u[0], c) == tp.u[c] and shift(tp.v[0], c) == tp.v[c] for c in (1, 2))
    pal = reverse(tp.u[0]) == tp.u[0] and reverse(tp.v[0]) == tp.v[0]
    lines.append(f"SHIFTSYM {'true' if sym else 'false'}")
    lines.append(f"PALINDROME {'true' if pal else 'false'}")
    lines.append(f"VERDICT {'PASS' if verdict else 'FAIL'}")
    return "\n".join(lines) + "\n"


def symmetric_pairs(k: int):
    words = list(enumerate_square_free(k))
    for u0 in words:
        for v0 in words:
            yield TriplePair(
                u=(u0, shift(u0, 1), shift(u0, 2)),
                v=(v0, shift(v0, 1), shift(v0, 2)),
            )


@st.composite
def six_words(draw):
    """Six words of one length k in 2..14.  Each slot is a fresh word, a
    copy of an earlier slot, or a shift of one, so head/tail collisions and
    shift-equivalent concatenations both occur."""
    k = draw(st.integers(2, 14))
    letters = st.lists(st.integers(0, 2), min_size=k, max_size=k)
    words = []
    for _ in range(6):
        kind = draw(st.sampled_from(("fresh", "copy", "shift")) if words else st.just("fresh"))
        if kind == "fresh":
            words.append(Word(draw(letters)))
        else:
            w = draw(st.sampled_from(words))
            words.append(w if kind == "copy" else shift(w, draw(st.sampled_from((1, 2)))))
    return make_triple_pair(words)


def search_leaves(monkeypatch, config: SearchConfig) -> list:
    """Every pair the search for ``config`` hands to verify, in call order."""
    leaves = []

    def recording_verify(tp):
        leaves.append(tp)
        return verify(tp)

    with monkeypatch.context() as m:
        m.setattr(search, "verify", recording_verify)
        find_pairs(config)
    return leaves


# The search configurations test_search_leaves runs.
LEAF_CONFIGS = (
    *(SearchConfig(k=k, first_letter=None) for k in range(2, 19)),
    SearchConfig(k=2, shift_symmetry=False, first_letter=None),
    SearchConfig(k=3, shift_symmetry=False),
)
LAZY_CHECKS = ("concat_results", "headtail_results")


def assert_lazy_certificate(tp: TriplePair, first: str):
    """verify stops at the first failing check and builds the check tuples
    only when read; neither may show.  The verdict must be the oracle's,
    and the certificate text, read after ``first``, must be the oracle's
    text."""
    expected = reference_certificate(tp)
    cert = verify(tp)
    assert f"VERDICT {'PASS' if cert.verdict else 'FAIL'}\n" == expected.splitlines(True)[-1], tp
    getattr(cert, first)
    assert certificate_text(cert) == expected, tp


class TestVerifyAgainstOracle:
    """verify's byte-level checks give the oracle's certificate."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_every_symmetric_pair_up_to_k5(self, k):
        for tp in symmetric_pairs(k):
            assert certificate_text(verify(tp)) == reference_certificate(tp), tp

    @settings(max_examples=300, deadline=None)
    @given(six_words())
    def test_arbitrary_six_words(self, tp):
        assert certificate_text(verify(tp)) == reference_certificate(tp)

    @pytest.mark.parametrize(
        "config, calls",
        [
            *(
                pytest.param(SearchConfig(k=k, first_letter=None), n, id=f"shift-k{k}")
                for k, n in zip(range(2, 19), [0] * 11 + [12, 0, 0, 0, 42, 168])
            ),
            pytest.param(
                SearchConfig(k=2, shift_symmetry=False, first_letter=None), 0, id="relaxed-k2"
            ),
            pytest.param(SearchConfig(k=3, shift_symmetry=False), 15360, id="relaxed-k3"),
        ],
    )
    def test_search_leaves(self, monkeypatch, config, calls):
        # calls counts verify at the leaves and on each found pair's canonical form
        leaves = search_leaves(monkeypatch, config)
        assert len(leaves) == calls
        for tp in leaves[:: 1 if config.shift_symmetry else 16]:
            assert certificate_text(verify(tp)) == reference_certificate(tp), tp

    def test_u_led_concatenations_of_shift_leaves_are_square_free(self, monkeypatch):
        # verify tests the V-led concatenations first because at a shift
        # leaf each U-led one is a letter shift of U0 . shift(U0, d) or
        # U0 . shift(V0, d), which the searcher has already passed
        configs = [c for c in LEAF_CONFIGS if c.shift_symmetry]
        leaves = 0
        for config in (*configs, SearchConfig(k=23, first_letter=2)):
            for tp in search_leaves(monkeypatch, config):
                leaves += 1
                for label, w in concatenation_words(tp):
                    assert label[1] == "V" or is_square_free(w), (tp, label)
        assert leaves > 0

    @settings(max_examples=200, deadline=None)
    @given(six_words(), st.sampled_from(LAZY_CHECKS))
    def test_lazy_checks_cannot_be_seen(self, tp, first):
        assert_lazy_certificate(tp, first)

    def test_lazy_checks_cannot_be_seen_on_search_leaves(self, monkeypatch):
        for config in LEAF_CONFIGS:
            for i, tp in enumerate(search_leaves(monkeypatch, config)):
                assert_lazy_certificate(tp, LAZY_CHECKS[i % 2])

    def test_checks_are_frozen_and_shared(self, builtin):
        cert = verify(tiny_pair())
        for obj, field in (
            (cert.concat_results[0], "witness"),
            (cert.headtail_results[0], "collision"),
            (cert, "k"),
            (cert, "concat_results"),
            (cert, "shift_symmetric"),
        ):
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
        with pytest.raises(AttributeError):
            del cert.concat_results
        assert cert.concat_results[0].witness is not None
        for tp in (tiny_pair(), builtin):  # failing and passing checks
            first, again = verify(tp), verify(tp)
            checks = zip(first.concat_results + first.headtail_results,
                         again.concat_results + again.headtail_results)
            # equal, not one object: the checks are built when read
            assert all(a == b for a, b in checks)

    def test_cold_and_warm_cache(self, builtin):
        pairs = [builtin, tiny_pair(), *symmetric_pairs(4)]
        expected = [reference_certificate(tp) for tp in pairs]
        cold = [certificate_text(verify(tp)) for tp in pairs]
        warm = [certificate_text(verify(tp)) for tp in pairs]
        assert cold == expected
        assert warm == expected
