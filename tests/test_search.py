"""Search: configuration, prune soundness, canonical forms, completeness."""

import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ternwords import (
    SearchConfig,
    TriplePair,
    Word,
    builtin_pair,
    canonicalize,
    enumerate_square_free,
    find_pairs,
    make_triple_pair,
    pair_text,
    parse_word,
    prune_check,
    reverse,
    shift,
    verify,
)
from ternwords import search
from ternwords.search import _new_searcher, _shard_prefixes
from ternwords.words import _find_square_scan

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


# nodes= of the exhaustive one-process shift-symmetric run at k = 2 .. 20,
# with the first letter 2 and free, and the sha256 of the text of the pairs
# it lists (k=18 alone lists any).  In symmetric mode only the cross test
# looks for V0's squares; these pin that it cuts at the same nodes as a
# test of V0 itself would.
PINNED_NODES = {
    2: (4, 10, 22, 58, 70, 142, 172, 250, 358, 502, 706, 1066, 1312, 1768,
        2386, 3400, 4864, 6046, 7450),
    None: (12, 30, 66, 174, 210, 426, 516, 750, 1074, 1506, 2118, 3198, 3936,
           5304, 7158, 10200, 14592, 18138, 22350),
}
PINNED_LISTINGS = {
    (2, 18): "180ca2192651369616b8e4d4c17edd4741b932e2d34009132ed4b4ece334d075",
    (None, 18): "a5d01ffae8c7885b93ee7924c6fd552998177ba1d3ff505da60307a4fea5f849",
}
EMPTY_LISTING = hashlib.sha256(b"").hexdigest()


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
        with pytest.raises(ValueError):
            SearchConfig(k=6)._replace(**kwargs)

    def test_non_integer_k_rejected(self):
        with pytest.raises(TypeError):
            SearchConfig(k=5.5)
        with pytest.raises(TypeError):
            SearchConfig(k=6)._replace(k=5.5)

    @pytest.mark.parametrize("field", ["parallel_shards", "max_results", "node_budget"])
    def test_non_integer_counts_rejected(self, field):
        # a float raises at once, not deep in the search; a bool is an int
        with pytest.raises(TypeError):
            SearchConfig(k=6, **{field: 1.5})
        with pytest.raises(TypeError):
            SearchConfig(k=6)._replace(**{field: 1.5})
        assert getattr(SearchConfig(k=6, **{field: True}), field) is True

    def test_a_copy_changes_only_the_named_fields(self):
        cfg = SearchConfig(k=18, first_letter=None, node_budget=100)
        copy = cfg._replace(parallel_shards=4)
        assert copy == SearchConfig(k=18, first_letter=None, node_budget=100, parallel_shards=4)
        assert cfg.parallel_shards == 1
        assert SearchConfig._make(cfg) == cfg
        with pytest.raises(ValueError, match="k must be >= 2"):
            SearchConfig._make((1, *cfg[1:]))

    def test_fields_cannot_be_assigned(self):
        cfg = SearchConfig(k=18)
        for field in ("k", "node_budget", "other"):
            with pytest.raises(AttributeError):
                setattr(cfg, field, None)
        outcome = find_pairs(SearchConfig(k=5, first_letter=2))
        with pytest.raises(AttributeError):
            outcome.nodes_expanded += 1


class TestPruneCheck:
    def test_square_prefix_is_cut(self):
        assert prune_check(SearchConfig(k=18), [2, 1, 1]) is False

    def test_builtin_prefix_is_kept(self, builtin):
        assert prune_check(SearchConfig(k=18), list(builtin.u[0].letters[:9]))

    def test_unavoidable_head_collision_is_cut(self):
        # U0 must pass its completion checks, which no U0 does at k=6
        cfg = SearchConfig(k=7, first_letter=None)
        u0 = [0, 1, 2, 0, 2, 1, 0]
        assert prune_check(cfg, u0) is True
        assert prune_check(cfg, u0 + [0, 1, 2, 0]) is False  # equals head of U0
        assert prune_check(cfg, u0 + [1, 2, 0, 1]) is False  # equals its shift
        assert prune_check(cfg, u0 + [0, 1, 2, 1]) is True

    def test_v0_head_equal_to_u0_tail_is_cut(self):
        # U0 . V0 is no concatenation of the definition, so no square test
        # cuts this head; U0's tail in the forbidden heads does
        cfg = SearchConfig(k=24)
        u0 = [int(c) for c in "012102010210121021201210"]
        head = [int(c) for c in "0121021201210"]  # U0's tail, r = 13
        assert prune_check(cfg, u0 + head) is False
        assert prune_check(cfg, u0 + head[:-1]) is True

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

    def test_keeps_every_known_pair_at_full_length(self, builtin):
        # True at full length means no cut fired anywhere along the way
        relaxed = SearchConfig(k=18, shift_symmetry=False, first_letter=None)
        symmetric = SearchConfig(k=18, first_letter=None)
        checked = 0
        for perm in itertools.permutations(range(3)):
            for swaps in range(8):
                tp = relabelled(builtin, perm, swaps)
                cert = verify(tp)
                assert cert.verdict
                rows = [bytes(w) for w in tp.words_in_file_order()]
                interleaved = [row[pos] for pos in range(tp.k) for row in rows]
                assert prune_check(relaxed, interleaved), (perm, swaps)
                if cert.shift_symmetric:
                    assert prune_check(symmetric, list(rows[0] + rows[1])), (perm, swaps)
                    checked += 1
        assert checked == 12

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


class TestUCompletionCut:
    """prune_check on a whole U0 against the conditions U0 settles alone,
    restated: U0 . shift(U0, d) is square-free for d = 1, 2, and no head of
    U0 of length r, ceil(k/2) <= r < k, is a tail of U0 or of its shifts."""

    def test_every_square_free_u0(self):
        kept = {}
        for k in range(3, 9):
            cfg = SearchConfig(k=k, first_letter=None)
            kept[k] = 0
            for w in enumerate_square_free(k):
                u = w.letters
                tails = [shift(w, d).letters for d in (0, 1, 2)]
                keeps = all(_find_square_scan(w + shift(w, d)) is None for d in (1, 2)) and not any(
                    u[:r] in [t[k - r :] for t in tails] for r in range((k + 1) // 2, k)
                )
                assert prune_check(cfg, u) is keeps, u
                kept[k] += keeps
        assert kept == {3: 0, 4: 0, 5: 6, 6: 0, 7: 6, 8: 0}


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


def digit_shift(digits: str, c: int) -> str:
    return "".join(str((int(a) + c) % 3) for a in digits)


def canonical_oracle(rows) -> list:
    """Least of the 24 orbit images of a pair given as file-order digit
    strings, compared as the concatenation U0 V0 U1 V1 U2 V2."""
    images = []
    for c in (0, 1, 2):
        u = [digit_shift(rows[2 * ((i - c) % 3)], c) for i in range(3)]
        v = [digit_shift(rows[2 * ((i - c) % 3) + 1], c) for i in range(3)]
        for mask in range(8):
            image = []
            for i in range(3):
                image += [v[i], u[i]] if (mask >> i) & 1 else [u[i], v[i]]
            images.append(image)
    return min(images, key="".join)


def relabelled(tp: TriplePair, perm, swaps: int) -> TriplePair:
    """Letter a becomes perm[a], index i becomes perm[i], and bit j of
    swaps trades U_j with V_j."""
    table = str.maketrans("012", "".join(map(str, perm)))
    rows = [str(w).translate(table) for w in tp.words_in_file_order()]
    u, v = [None] * 3, [None] * 3
    for i in range(3):
        j = perm[i]
        a, b = rows[2 * i], rows[2 * i + 1]
        u[j], v[j] = (b, a) if (swaps >> j) & 1 else (a, b)
    return TriplePair(u=tuple(map(parse_word, u)), v=tuple(map(parse_word, v)))


class TestCanonicalizeAgainstOracle:
    """canonicalize compares six-Word tuples; the oracle compares digit strings."""

    def check(self, tp: TriplePair):
        rows = [str(w) for w in canonicalize(tp).words_in_file_order()]
        assert rows == canonical_oracle([str(w) for w in tp.words_in_file_order()]), tp

    def test_every_k6_symmetric_candidate(self):
        # no shift-symmetric pair passes below k=18, so this takes all 1764
        # candidates; canonicalize does not look at the verdict
        words = list(enumerate_square_free(6))
        for u0 in words:
            for v0 in words:
                self.check(symmetric_pair(u0, v0))

    def test_relabellings_of_builtin(self, builtin):
        for perm in itertools.permutations(range(3)):
            for swaps in range(8):
                tp = relabelled(builtin, perm, swaps)
                assert verify(tp).verdict
                self.check(tp)

    @given(
        st.integers(2, 5).flatmap(
            lambda k: st.lists(
                st.lists(st.sampled_from([0, 1, 2]), min_size=k, max_size=k),
                min_size=6,
                max_size=6,
            )
        )
    )
    def test_arbitrary_six_words(self, rows):
        # shift-symmetric inputs tie U1, U2 to U0, so they cannot tell the
        # file-order key from, say, all U words before all V words
        self.check(make_triple_pair([Word(r) for r in rows]))


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

    @pytest.mark.parametrize(
        "cfg,nodes,verify_calls",
        [
            (SearchConfig(k=18, first_letter=2, max_results=1), 1139, 8),
            (SearchConfig(k=18, first_letter=2), 4864, 56),
            (SearchConfig(k=3, shift_symmetry=False, first_letter=2), 58981, 15360),
        ],
        ids=["1-1139-8", "None-4864-56", "relaxed3-58981-15360"],
    )
    def test_pinned_node_and_leaf_counts(self, monkeypatch, cfg, nodes, verify_calls):
        # verify runs once per leaf and once more per emitted canonical pair:
        # 7 + 1 on the first hit, 54 + 2 exhaustively at k=18, and 15360 + 0
        # in the relaxed space at k=3.  A leaf screen that skips verify must
        # change these numbers on purpose.
        calls = []

        def counting_verify(tp):
            calls.append(tp)
            return verify(tp)

        monkeypatch.setattr(search, "verify", counting_verify)
        outcome = find_pairs(cfg)
        assert outcome.nodes_expanded == nodes
        assert len(calls) == verify_calls

    @pytest.mark.parametrize("first_letter", [2, None])
    def test_pinned_nodes_and_listings_up_to_k20(self, first_letter):
        for k, nodes in enumerate(PINNED_NODES[first_letter], start=2):
            outcome = find_pairs(SearchConfig(k=k, first_letter=first_letter))
            listing = "".join(pair_text(tp) for tp in outcome.pairs_found)
            assert (outcome.nodes_expanded, outcome.exhausted) == (nodes, True), k
            digest = hashlib.sha256(listing.encode()).hexdigest()
            assert digest == PINNED_LISTINGS.get((first_letter, k), EMPTY_LISTING), k

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

    def test_relaxed_budget_stops_at_the_budget(self):
        outcome = find_pairs(SearchConfig(k=3, shift_symmetry=False, node_budget=1000))
        assert outcome == ([], 1000, False)

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

    The ``pool_sizes`` fixture (conftest.py) runs the pool's tasks in this
    process, so these tests start no worker process at all.
    """

    @pytest.mark.parametrize(
        "shards,cpus,workers", [(50, 3, 3), (50, None, 1), (2, 8, 2)]
    )
    def test_workers_capped(self, set_cpus, pool_sizes, shards, cpus, workers):
        cfg = SearchConfig(k=18, first_letter=None, parallel_shards=shards)
        prefixes, _ = _shard_prefixes(cfg)
        assert len(prefixes) > max(shards, workers)  # only the cap limits the pool
        set_cpus(10**6)
        uncapped = find_pairs(cfg)
        set_cpus(cpus)
        capped = find_pairs(cfg)
        assert pool_sizes == [shards, workers]
        # the cap changes neither the shards nor what they find
        assert capped == uncapped
        assert capped.exhausted
        assert base_digits(capped) == list(K18_CANONICAL)

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("budget", [0, 200, 500])
    def test_node_budget_runs_in_one_process(self, pool_sizes, shards, budget):
        cfg = SearchConfig(k=18, first_letter=None, node_budget=budget)
        single = find_pairs(cfg)
        sharded = find_pairs(cfg._replace(parallel_shards=shards))
        assert pool_sizes == []
        assert sharded == single
        assert sharded.nodes_expanded <= budget

    @pytest.mark.parametrize(
        "cfg,count,depth",
        [
            (SearchConfig(k=23, first_letter=0, parallel_shards=2), 10, 5),
            (SearchConfig(k=23, first_letter=1, parallel_shards=2), 10, 5),
            (SearchConfig(k=23, first_letter=2, parallel_shards=2), 10, 5),
            (SearchConfig(k=25, parallel_shards=2), 10, 5),
            (SearchConfig(k=18, first_letter=None, parallel_shards=1000), 1044, 17),
            (SearchConfig(k=2, parallel_shards=2), 1, 1),
        ],
        ids=["k23-0", "k23-1", "k23-2", "k25", "k18-free-1000", "k2"],
    )
    def test_sharded_nodes_add_the_prefix_letters(self, set_cpus, pool_sizes, cfg, count, depth):
        # the scan's nodes are the one-process run's above the shard depth,
        # and each shard places its prefix's letters again; one prefix
        # (k=2, the scan stops at depth 1) is one shard like any other
        prefixes, _ = _shard_prefixes(cfg)
        assert (len(prefixes), {len(p) for p in prefixes}) == (count, {depth})
        single = find_pairs(cfg._replace(parallel_shards=1))
        set_cpus(2)
        sharded = find_pairs(cfg)
        assert pool_sizes == [min(2, count)]
        assert sharded.nodes_expanded == single.nodes_expanded + count * depth
        assert sharded.pairs_found == single.pairs_found
        assert sharded.exhausted

    def test_scan_stops_when_the_frontier_stops_growing(self, monkeypatch, set_cpus, pool_sizes):
        cfg = SearchConfig(k=18, first_letter=None, parallel_shards=1000)
        scans = []

        def counting_searcher(c, **kw):
            scans.append(kw.get("stop_depth"))
            return _new_searcher(c, **kw)

        monkeypatch.setattr(search, "_new_searcher", counting_searcher)
        prefixes, _ = _shard_prefixes(cfg)
        depth = len(prefixes[0])
        assert scans == list(range(1, depth + 2))  # one scan past the widest

        def frontier(d):
            found = []
            _new_searcher(cfg, stop_depth=d, collector=found.append).run()
            return found

        widths = [len(frontier(d)) for d in range(1, depth + 2)]
        assert widths[:-1] == sorted(set(widths[:-1]))  # grew at every depth
        assert widths[-1] <= widths[-2]
        assert len(prefixes) < 4 * cfg.parallel_shards
        assert prefixes == frontier(depth)

        set_cpus(2)
        sharded = find_pairs(cfg)
        assert pool_sizes == [2]
        assert sharded.exhausted
        # the scan reaches depth k, where a U0 that fails its completion
        # checks is cut, so it lists no shard that would find nothing
        assert sharded.nodes_expanded == 32340  # 14592 on one process
        assert sharded.pairs_found == find_pairs(cfg._replace(parallel_shards=1)).pairs_found


def cut_points(cfg: SearchConfig) -> list:
    """Every assignment that prune_check cuts while it keeps the parent,
    found by a depth-first walk of the assignment tree."""
    total = 2 * cfg.k if cfg.shift_symmetry else 6 * cfg.k
    points = []

    def walk(seq):
        for x in (0, 1, 2):
            child = seq + (x,)
            if not prune_check(cfg, child):
                points.append(child)
            elif len(child) < total:
                walk(child)

    walk(())
    return points


class TestCutLogAdmissibility:
    """Every cut point of the search has no completion that verifies."""

    def test_every_cut_at_k3_is_final(self):
        cuts = cut_points(SearchConfig(k=3, first_letter=None))
        # a U0 that fails its completion checks is one cut, at its last letter
        assert len(cuts) == 21
        for seq in cuts:
            for rest in itertools.product((0, 1, 2), repeat=6 - len(seq)):
                full = seq + rest
                tp = symmetric_pair(Word(full[:3]), Word(full[3:]))
                assert not verify(tp).verdict, (seq, rest)

    def test_sampled_cuts_at_k5_are_final(self):
        cuts = cut_points(SearchConfig(k=5, first_letter=None))
        deep = [seq for seq in cuts if len(seq) >= 5]
        assert len(deep) == 90
        # all of them would take seconds; a fixed sample keeps this quick
        rng = random.Random(1405)
        for seq in rng.sample(deep, 30):
            for rest in itertools.product((0, 1, 2), repeat=10 - len(seq)):
                full = seq + rest
                tp = symmetric_pair(Word(full[:5]), Word(full[5:]))
                assert not verify(tp).verdict, (seq, rest)


@st.composite
def relaxed_assignments(draw):
    """k in 4..8 and an interleaved partial assignment of the relaxed
    search: six square-free words of length k, each possibly overwritten
    with the head of an earlier one (which can make squares), read in the
    order U0 V0 U1 V1 U2 V2 position by position and cut at any length."""
    k = draw(st.integers(4, 8))
    pool = square_free_words(k)
    rows = []
    for _ in range(6):
        row = list(draw(st.sampled_from(pool)))
        if rows and draw(st.booleans()):
            r = draw(st.integers(1, k))
            row[:r] = draw(st.sampled_from(rows))[:r]
        rows.append(row)
    length = draw(st.integers(0, 6 * k))
    return k, [rows[d % 6][d // 6] for d in range(length)]


@functools.cache
def square_free_words(k: int) -> list:
    return [w.letters for w in enumerate_square_free(k)]


def relaxed_keeps(k: int, seq: list) -> bool:
    """The relaxed search's cuts, restated: no word's placed letters have a
    square, and no two words' placed heads of one length r, with
    ceil(k/2) <= r < k, coincide."""
    placed = [seq[w::6] for w in range(6)]
    if any(_find_square_scan(Word(p)) is not None for p in placed):
        return False
    for r in range((k + 1) // 2, k):
        heads = [tuple(p[:r]) for p in placed if len(p) >= r]
        if len(set(heads)) < len(heads):
            return False
    return True


class TestRelaxedCutAudit:
    """prune_check on the relaxed searcher against the restated cuts."""

    @settings(max_examples=400, deadline=None)
    @given(relaxed_assignments())
    def test_interleaved_partial_assignments(self, case):
        k, seq = case
        cfg = SearchConfig(k=k, shift_symmetry=False)
        assert prune_check(cfg, seq) is relaxed_keeps(k, seq)


class TestPalindromicRegime:
    def test_k25_palindromic_pair_exists(self):
        outcome = find_pairs(
            SearchConfig(k=25, palindrome_constraint=True, max_results=1)
        )
        assert len(outcome.pairs_found) == 1
        assert outcome.nodes_expanded == 513
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
