"""Search: configuration, prune soundness, canonical forms, completeness."""

import itertools
import multiprocessing
import os
import random

import pytest

from ternwords import (
    SearchConfig,
    TriplePair,
    Word,
    builtin_pair,
    canonicalize,
    enumerate_square_free,
    find_pairs,
    prune_check,
    reverse,
    shift,
    verify,
)
from ternwords.search import _run_single, _shard_prefixes

# The complete set of canonical shift-symmetric 18-pairs (U0, V0 digits),
# pinned from the exhaustive run; test_exhaustive_set_matches re-derives it.
K18_CANONICAL = (
    ("012021020102120210", "012021201020120210"),
    ("021012010201210120", "021012102010210120"),
    ("102120121012021201", "102120210121021201"),
    ("120102012101201021", "120102101210201021"),
    ("201210120212012102", "201210212021012102"),
    ("210201021202102012", "210201202120102012"),
)


def symmetric_pair(u0: Word, v0: Word) -> TriplePair:
    return TriplePair(
        u=(u0, shift(u0, 1), shift(u0, 2)),
        v=(v0, shift(v0, 1), shift(v0, 2)),
    )


def base_digits(outcome) -> list:
    return [
        (str(tp.words_in_file_order()[0]), str(tp.words_in_file_order()[1]))
        for tp in outcome.pairs_found
    ]


class TestSearchConfig:
    def test_defaults(self):
        cfg = SearchConfig(k=18)
        assert cfg.shift_symmetry
        assert not cfg.palindrome_constraint
        assert cfg.first_letter == 2
        assert cfg.max_results is None
        assert cfg.node_budget is None
        assert cfg.parallel_shards == 1
        assert cfg.canonical

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=1),
            dict(k=6, palindrome_constraint=True, shift_symmetry=False),
            dict(k=6, first_letter=3),
            dict(k=6, max_results=0),
            dict(k=6, node_budget=-1),
            dict(k=6, parallel_shards=0),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SearchConfig(**kwargs)


class TestPruneCheck:
    def test_square_prefix_is_cut(self):
        assert prune_check(SearchConfig(k=18), [2, 1, 1]) is False

    def test_builtin_prefix_is_kept(self, builtin):
        assert prune_check(SearchConfig(k=18), list(builtin.u[0].letters[:9]))

    def test_unavoidable_head_collision_is_cut(self):
        cfg = SearchConfig(k=6, first_letter=None)
        u0 = [0, 1, 0, 2, 0, 1]
        assert prune_check(cfg, u0 + [0, 1, 0]) is False  # equals head of U0
        assert prune_check(cfg, u0 + [1, 2, 1]) is False  # equals its shift
        assert prune_check(cfg, u0 + [0, 1, 2]) is True

    def test_full_mode_interleaved_assignment(self):
        cfg = SearchConfig(k=4, shift_symmetry=False, first_letter=None)
        # one letter per word: all words distinct so far, nothing to cut
        assert prune_check(cfg, [0, 0, 1, 1, 2, 2]) is True
        # second letter of the first word repeats it
        assert prune_check(cfg, [0, 0, 1, 1, 2, 2, 0]) is False

    def test_rejects_bad_letters_and_overflow(self):
        cfg = SearchConfig(k=3)
        with pytest.raises(ValueError, match="position 1"):
            prune_check(cfg, [0, 7])
        with pytest.raises(ValueError, match="longer than"):
            prune_check(cfg, [0, 1] * 4)

    def test_cuts_are_admissible_at_k3(self):
        # every assignment prune_check cuts has no completion that verifies
        cfg = SearchConfig(k=3, first_letter=None)
        for depth in (2, 4, 6):
            for seq in itertools.product((0, 1, 2), repeat=depth):
                if prune_check(cfg, seq):
                    continue
                for rest in itertools.product((0, 1, 2), repeat=6 - depth):
                    full = seq + rest
                    tp = symmetric_pair(Word(full[:3]), Word(full[3:]))
                    assert not verify(tp).verdict, (seq, rest)


class TestCanonicalize:
    def test_idempotent(self, builtin):
        canon = canonicalize(builtin)
        assert canonicalize(canon) == canon

    def test_golden_form_of_builtin(self, builtin):
        rows = [str(w) for w in canonicalize(builtin).words_in_file_order()]
        assert rows == [
            "210201021202102012",
            "210201202120102012",
            "021012010201210120",
            "021012102010210120",
            "102120121012021201",
            "102120210121021201",
        ]

    def test_swapped_variant_maps_to_same_form(self, builtin):
        swapped = TriplePair(
            u=(builtin.v[0], builtin.u[1], builtin.u[2]),
            v=(builtin.u[0], builtin.v[1], builtin.v[2]),
        )
        assert canonicalize(swapped) == canonicalize(builtin)

    def test_shift_relabeled_variant_maps_to_same_form(self, builtin):
        for c in (1, 2):
            relabeled = TriplePair(
                u=tuple(shift(builtin.u[(i - c) % 3], c) for i in range(3)),
                v=tuple(shift(builtin.v[(i - c) % 3], c) for i in range(3)),
            )
            assert canonicalize(relabeled) == canonicalize(builtin)

    def test_verdict_preserved(self, builtin):
        assert verify(canonicalize(builtin)).verdict


class TestImpossibleSmallK:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_shift_symmetric_space_is_empty(self, k):
        outcome = find_pairs(SearchConfig(k=k, first_letter=None))
        assert outcome.pairs_found == []
        assert outcome.exhausted
        assert outcome.nodes_expanded > 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_relaxed_space_is_empty_too(self, k):
        outcome = find_pairs(
            SearchConfig(k=k, shift_symmetry=False, first_letter=None)
        )
        assert outcome.pairs_found == []
        assert outcome.exhausted

    def test_pinning_does_not_change_emptiness(self):
        outcome = find_pairs(SearchConfig(k=5, first_letter=2))
        assert outcome.pairs_found == []
        assert outcome.exhausted


class TestCompletenessK6:
    def test_search_equals_brute_force(self):
        words = list(enumerate_square_free(6))
        assert len(words) == 42
        brute = {
            tp
            for u0 in words
            for v0 in words
            if verify(tp := symmetric_pair(u0, v0)).verdict
        }
        raw = find_pairs(SearchConfig(k=6, first_letter=None, canonical=False))
        assert raw.exhausted
        assert set(raw.pairs_found) == brute
        canon = find_pairs(SearchConfig(k=6, first_letter=None))
        assert {canonicalize(tp) for tp in brute} == set(canon.pairs_found)


class TestK18:
    def test_exhaustive_set_matches(self):
        outcome = find_pairs(SearchConfig(k=18, first_letter=None))
        assert outcome.exhausted
        assert base_digits(outcome) == list(K18_CANONICAL)
        assert all(verify(tp).verdict for tp in outcome.pairs_found)

    def test_builtin_is_found(self, builtin):
        outcome = find_pairs(SearchConfig(k=18, first_letter=None))
        assert canonicalize(builtin) in outcome.pairs_found

    def test_pinned_exhaustive_finds_its_letter_classes(self, builtin):
        outcome = find_pairs(SearchConfig(k=18, first_letter=2))
        assert outcome.exhausted
        assert base_digits(outcome) == [K18_CANONICAL[4], K18_CANONICAL[5]]
        assert canonicalize(builtin) in outcome.pairs_found

    def test_first_hit_under_the_classic_settings(self):
        outcome = find_pairs(SearchConfig(k=18, first_letter=2, max_results=1))
        assert len(outcome.pairs_found) == 1
        assert not outcome.exhausted  # stopped early by the result limit
        assert verify(outcome.pairs_found[0]).verdict
        assert outcome.nodes_expanded < 100_000

    def test_raw_solutions_come_in_swap_twins(self):
        raw = find_pairs(SearchConfig(k=18, first_letter=None, canonical=False))
        assert raw.exhausted
        assert len(raw.pairs_found) == 12
        classes = {canonicalize(tp) for tp in raw.pairs_found}
        assert {
            (str(tp.words_in_file_order()[0]), str(tp.words_in_file_order()[1]))
            for tp in classes
        } == set(K18_CANONICAL)

    def test_deterministic_across_runs(self):
        cfg = SearchConfig(k=18, first_letter=None)
        assert find_pairs(cfg).pairs_found == find_pairs(cfg).pairs_found


class TestBudgets:
    def test_zero_budget_stops_immediately(self):
        outcome = find_pairs(SearchConfig(k=18, node_budget=0))
        assert outcome.pairs_found == []
        assert outcome.nodes_expanded == 0
        assert not outcome.exhausted

    def test_small_budget_reports_truncation(self):
        outcome = find_pairs(SearchConfig(k=18, first_letter=2, node_budget=200))
        assert not outcome.exhausted
        assert outcome.nodes_expanded == 200

    def test_big_budget_reaches_exhaustion(self):
        outcome = find_pairs(SearchConfig(k=5, first_letter=None, node_budget=10**6))
        assert outcome.exhausted

    def test_result_limit_reports_truncation(self):
        outcome = find_pairs(SearchConfig(k=18, first_letter=None, max_results=2))
        assert len(outcome.pairs_found) == 2
        assert not outcome.exhausted
        assert base_digits(outcome) == list(K18_CANONICAL[:2])


class TestSharding:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_same_pairs_any_shard_count(self, shards):
        single = find_pairs(SearchConfig(k=18, first_letter=None))
        sharded = find_pairs(
            SearchConfig(k=18, first_letter=None, parallel_shards=shards)
        )
        assert sharded.exhausted
        assert sharded.pairs_found == single.pairs_found

    def test_sharded_result_limit(self):
        single = find_pairs(SearchConfig(k=18, first_letter=None, max_results=3))
        sharded = find_pairs(
            SearchConfig(k=18, first_letter=None, max_results=3, parallel_shards=3)
        )
        assert sharded.pairs_found == single.pairs_found
        assert not sharded.exhausted

    def test_more_workers_than_work(self):
        outcome = find_pairs(SearchConfig(k=4, first_letter=None, parallel_shards=8))
        assert outcome.pairs_found == []
        assert outcome.exhausted

    def test_shard_prefixes_are_uniform_and_ordered(self):
        for cfg in (
            SearchConfig(k=6, first_letter=None, parallel_shards=2),
            SearchConfig(k=18, first_letter=None, parallel_shards=4),
        ):
            prefixes, _ = _shard_prefixes(cfg)
            assert len(prefixes) >= cfg.parallel_shards
            assert len({len(p) for p in prefixes}) == 1  # one fixed depth
            assert prefixes == sorted(prefixes)
            assert len(set(prefixes)) == len(prefixes)


class TestShardPool:
    """The pool is sized from the shards, the prefixes and the CPUs.

    An in-process stand-in replaces the fork context's Pool, so these tests
    start no worker process at all.
    """

    @pytest.fixture()
    def pool_sizes(self, monkeypatch):
        sizes = []

        class InlinePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", InlinePool)
        return sizes

    @pytest.mark.parametrize(
        "shards,cpus,workers", [(50, 3, 3), (50, None, 1), (2, 8, 2)]
    )
    def test_workers_capped(self, monkeypatch, pool_sizes, shards, cpus, workers):
        cfg = SearchConfig(k=18, first_letter=None, parallel_shards=shards)
        prefixes, _ = _shard_prefixes(cfg)
        assert len(prefixes) > max(shards, workers)  # only the cap limits the pool
        monkeypatch.setattr(os, "cpu_count", lambda: 10**6)
        uncapped = find_pairs(cfg)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        capped = find_pairs(cfg)
        assert pool_sizes == [shards, workers]
        # the cap changes neither the shards nor what they find
        assert capped == uncapped
        assert capped.exhausted
        assert base_digits(capped) == list(K18_CANONICAL)


class TestCutLogAdmissibility:
    def test_every_cut_at_k3_is_final(self):
        cuts = []
        _run_single(SearchConfig(k=3, first_letter=None), cut_log=cuts)
        assert cuts
        for _reason, seq in cuts:
            depth = len(seq)
            for rest in itertools.product((0, 1, 2), repeat=6 - depth):
                full = tuple(seq) + rest
                tp = symmetric_pair(Word(full[:3]), Word(full[3:]))
                assert not verify(tp).verdict, (seq, rest)

    def test_sampled_cuts_at_k5_are_final(self):
        cuts = []
        _run_single(SearchConfig(k=5, first_letter=None), cut_log=cuts)
        deep = [seq for _reason, seq in cuts if len(seq) >= 5]
        rng = random.Random(1405)
        for seq in rng.sample(deep, min(30, len(deep))):
            depth = len(seq)
            for rest in itertools.product((0, 1, 2), repeat=10 - depth):
                full = tuple(seq) + rest
                tp = symmetric_pair(Word(full[:5]), Word(full[5:]))
                assert not verify(tp).verdict, (seq, rest)


class TestPalindromicRegime:
    def test_k25_palindromic_pair_exists(self):
        outcome = find_pairs(
            SearchConfig(k=25, palindrome_constraint=True, max_results=1)
        )
        assert len(outcome.pairs_found) == 1
        tp = outcome.pairs_found[0]
        assert tp.k == 25
        assert verify(tp).verdict
        u0, v0 = tp.words_in_file_order()[:2]
        assert reverse(u0) == u0
        assert reverse(v0) == v0

    def test_builtin_regime_does_not_hold_at_18(self):
        # palindromic bases appear only at larger k; the 18-space has none
        outcome = find_pairs(
            SearchConfig(k=18, palindrome_constraint=True, first_letter=None)
        )
        assert outcome.pairs_found == []
        assert outcome.exhausted
