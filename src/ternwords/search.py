"""Backtracking search for k-Brinkhuis triple-pairs.

Shift-symmetric mode (the default) assigns the letters of U0, then the
letters of V0, in lexicographic order, and derives U1, U2, V1, V2 as the
letterwise shifts of U0 and V0 by 1 and 2.  The relaxed mode assigns all
six words interleaved position by position, in the order U0, V0, U1, V1,
U2, V2.

Cuts applied while a candidate grows (each is sound: a cut implies no
completion can satisfy the definition):

* a prefix of any constituent word ends with a square;
* two prefixes of length r >= ceil(k/2) that the distinctness condition
  forces apart coincide (in symmetric mode, against the shifted heads and
  tails of the completed U0);
* in symmetric mode, a square appears in a growing cross concatenation
  U0 . shift(V0-prefix, d), or the completed U0 fails its own
  concatenation and head/tail conditions.

Each complete assignment gets one certificate check, a ``verify`` call of
the triplepair module on words read off the reversed buffers; most fail,
and verify's stop at the first failing check keeps that cheap.  Only pairs
whose certificate passes are emitted.  Each cut exists once, in the
searcher that applies it: ``prune_check`` runs that searcher on a fixed
prefix, so tests can hold the cuts against verify.

Each growing word is kept as its letters reversed in a byte string, and
``square_after`` from the words module tells whether a letter put in front
would end a square, before the longer string is built.  Parallel runs
shard the space by fixed-depth prefixes of the assignment sequence, and
record the shards' pairs in lexicographic shard order through one
searcher's ``_record``, as one process would: that keeps the emitted pair
set independent of the shard count.  The pool never has more workers
than shards or CPUs.  A search with a node budget runs in one process.
"""

import functools
from collections import namedtuple
from contextlib import closing

from .words import LETTER_BYTES, SHIFT_TABLES, SQUARE, Word, shift, square_after
from .triplepair import TriplePair, make_triple_pair, verify

__all__ = ["SearchConfig", "SearchOutcome", "find_pairs", "prune_check", "canonicalize"]


class SearchConfig(
    namedtuple(
        "SearchConfig",
        "k shift_symmetry palindrome_constraint first_letter max_results node_budget"
        " parallel_shards canonical",
        defaults=(True, False, 2, None, None, 1, True),
    )
):
    """Search space description; defaults match the classic 18-pair hunt.

    Immutable; ``config._replace(parallel_shards=4)`` makes a copy with
    some fields changed.  Every constructor that takes caller values,
    ``_replace`` included, checks them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.palindrome_constraint and not self.shift_symmetry:
            raise ValueError("palindrome_constraint requires shift_symmetry")
        if self.first_letter not in (None, 0, 1, 2):
            raise ValueError(f"first_letter must be None, 0, 1 or 2, got {self.first_letter!r}")
        if self.max_results is not None and self.max_results < 1:
            raise ValueError("max_results must be >= 1 or None")
        if self.node_budget is not None and self.node_budget < 0:
            raise ValueError("node_budget must be >= 0 or None")
        if self.parallel_shards < 1:
            raise ValueError("parallel_shards must be >= 1")
        return self

    @classmethod
    def _make(cls, iterable) -> "SearchConfig":
        return cls(*iterable)


SearchOutcome = namedtuple("SearchOutcome", "pairs_found nodes_expanded exhausted")


def canonicalize(tp: TriplePair) -> TriplePair:
    """Least orbit representative under the verdict-preserving symmetries.

    The orbit combines the three global letter shifts with the matching
    index rotation and the eight per-index U/V swaps; the representative
    minimizes the words in the order U0 V0 U1 V1 U2 V2, which all have
    length k, so it also minimizes their concatenated letters.
    """
    orbit = []
    for c in (0, 1, 2):
        u = [shift(tp.u[(i - c) % 3], c) for i in range(3)]
        v = [shift(tp.v[(i - c) % 3], c) for i in range(3)]
        for mask in range(8):
            rows = [(v[i], u[i]) if mask >> i & 1 else (u[i], v[i]) for i in range(3)]
            orbit.append(rows[0] + rows[1] + rows[2])
    return make_triple_pair(min(orbit))


def prune_check(config: SearchConfig, letters) -> bool:
    """Whether the search for ``config`` keeps a partial assignment.

    ``letters`` lists the letters placed so far, in the assignment order
    find_pairs uses for ``config``.  The searcher places them as a fixed
    prefix and stops after the last one, so this runs the search's own
    cuts, and returns True when the search places every letter without a
    cut.  Every cut is meant to be final (no completion passes verify), so
    a full-length assignment that passes verify must return True.

    The first-letter restriction, the palindrome restriction and the node
    budget are not applied.  In shift mode, the checks U0 settles alone
    run only when the first V0 letter is placed, so an assignment of
    exactly k letters is not held against them.
    """
    seq = tuple(letters)
    for pos, a in enumerate(seq):
        if not isinstance(a, int) or a not in (0, 1, 2):
            raise ValueError(f"invalid letter {a!r} at position {pos}")
    if len(seq) > (2 if config.shift_symmetry else 6) * config.k:
        raise ValueError("assignment longer than the search space")
    kept = []
    _new_searcher(
        config._replace(node_budget=None), prefix=seq, stop_depth=len(seq), collector=kept.append
    ).run()
    return bool(kept)


class _Stop(Exception):
    """Internal: node budget exhausted or result limit reached."""


class _SearcherBase:
    def __init__(self, cfg: SearchConfig, prefix=(), stop_depth=None, collector=None):
        self.cfg = cfg
        self.k = cfg.k
        self.half = (cfg.k + 1) // 2
        self.prefix = tuple(prefix)
        self.stop_depth = stop_depth
        self.collector = collector
        self.seq = []  # every placed letter, in assignment order
        self.nodes = 0
        self.results = []
        self._seen = set()
        self.exhausted = True

    def run(self):
        try:
            self._extend(0)
        except _Stop:
            self.exhausted = False
        return self

    def _attempt(self):
        budget = self.cfg.node_budget
        if budget is not None and self.nodes >= budget:
            raise _Stop
        self.nodes += 1

    def _record(self, pair: TriplePair):
        if self.cfg.canonical:
            pair = canonicalize(pair)
            if pair in self._seen:
                return
            self._seen.add(pair)
            if not verify(pair).verdict:
                raise AssertionError("canonicalization broke a passing certificate")
        self.results.append(pair)
        limit = self.cfg.max_results
        if limit is not None and len(self.results) >= limit:
            raise _Stop


class _ShiftSearcher(_SearcherBase):
    """Assign U0 then V0; the other four words are shifts.

    Conditions on the derived words reduce to conditions on U0 and V0: the
    24 concatenations collapse to the eight words X . shift(Y, d) for
    X, Y in {U0, V0} and d in {1, 2}, and head/tail collisions collapse to
    comparisons against the three shifts of U0's and V0's heads and tails.
    """

    def __init__(self, cfg, **kw):
        super().__init__(cfg, **kw)
        # reversed letters of U0, V0 and U0 . shift(V0, d) for d = 1, 2
        self.ru = self.rv = self.rb1 = self.rb2 = b""
        self.forbid = {}

    def _candidates(self, depth: int):
        k = self.k
        cfg = self.cfg
        if depth == 0 and cfg.first_letter is not None:
            return (cfg.first_letter,)
        start = 0 if depth < k else k  # where the current word starts in seq
        pos = depth - start
        if cfg.palindrome_constraint and pos >= self.half:
            return (self.seq[start + k - 1 - pos],)
        return (0, 1, 2)

    def _extend(self, depth: int):
        if depth == self.stop_depth:
            self.collector(tuple(self.seq))
            return
        k = self.k
        if depth == 2 * k:
            self._leaf()
            return
        if depth == k and not self._complete_u():
            return
        if depth < len(self.prefix):
            cands = (self.prefix[depth],)
        else:
            cands = self._candidates(depth)
        in_u = depth < k
        for x in cands:
            self._attempt()
            self.seq.append(x)
            saved = self.ru, self.rv, self.rb1, self.rb2
            if self._place_u(x) if in_u else self._place_v(depth - k, x):
                self._extend(depth + 1)
            self.ru, self.rv, self.rb1, self.rb2 = saved
            self.seq.pop()

    def _place_u(self, x: int) -> bool:
        if square_after(len(self.ru))[x](self.ru):
            return False
        self.ru = LETTER_BYTES[x] + self.ru
        return True

    def _complete_u(self) -> bool:
        """Check the conditions U0 settles alone, then set up the V0 phase."""
        k = self.k
        u = bytes(self.seq)
        shifted = [u.translate(SHIFT_TABLES[d]) for d in (1, 2)]
        # U0 . shift(U0, d) must be square-free.  U0 and its shifts already
        # are, so any square found crosses the seam.
        for ud in shifted:
            if SQUARE.search(u + ud):
                return False
        # heads of U0, U1, U2 against tails of U0, U1, U2: the shifted
        # comparisons collapse to head(U0) against all three shifts of
        # tail(U0).  Head against head and tail against tail are distinct
        # automatically for distinct shifts.
        for r in range(self.half, k):
            if u[:r] in (u[k - r :], shifted[0][k - r :], shifted[1][k - r :]):
                return False
        # V0's head of length r, reversed, must miss the reversed heads and
        # tails of length r of U0, U1, U2.
        rev = [w[::-1] for w in (u, *shifted)]
        self.forbid = {
            r: frozenset([w[k - r :] for w in rev] + [w[:r] for w in rev])
            for r in range(self.half, k)
        }
        self.rb1 = self.rb2 = rev[0]
        return True

    def _place_v(self, pos: int, x: int) -> bool:
        x1, x2 = (x + 1) % 3, (x + 2) % 3
        cross = square_after(len(self.rb1))  # rb1 and rb2 have one length
        if square_after(len(self.rv))[x](self.rv) or cross[x1](self.rb1) or cross[x2](self.rb2):
            return False
        rv = LETTER_BYTES[x] + self.rv
        if rv in self.forbid.get(pos + 1, ()):
            return False
        self.rv, self.rb1, self.rb2 = rv, LETTER_BYTES[x1] + self.rb1, LETTER_BYTES[x2] + self.rb2
        return True

    def _leaf(self):
        u0, v0 = self.ru[::-1], self.rv[::-1]
        pair = TriplePair._wrap(
            tuple(Word._wrap(u0.translate(t)) for t in SHIFT_TABLES),
            tuple(Word._wrap(v0.translate(t)) for t in SHIFT_TABLES),
        )
        if verify(pair).verdict:
            self._record(pair)


class _FullSearcher(_SearcherBase):
    """Assign all six words interleaved, position by position."""

    WORDS = 6

    def __init__(self, cfg, **kw):
        super().__init__(cfg, **kw)
        self.revs = [b""] * self.WORDS  # reversed letters of each word

    def _extend(self, depth: int):
        if depth == self.stop_depth:
            self.collector(tuple(self.seq))
            return
        if depth == self.WORDS * self.k:
            self._leaf()
            return
        if depth < len(self.prefix):
            cands = (self.prefix[depth],)
        elif depth == 0 and self.cfg.first_letter is not None:
            cands = (self.cfg.first_letter,)
        else:
            cands = (0, 1, 2)
        w = depth % self.WORDS
        pos = depth // self.WORDS
        for x in cands:
            self._attempt()
            self.seq.append(x)
            saved = self.revs[w]
            if self._place(w, pos, x):
                self._extend(depth + 1)
            self.revs[w] = saved
            self.seq.pop()

    def _place(self, w: int, pos: int, x: int) -> bool:
        if square_after(len(self.revs[w]))[x](self.revs[w]):
            return False
        rev = LETTER_BYTES[x] + self.revs[w]
        # words earlier in the round already have length pos + 1
        if self.half <= pos + 1 < self.k and rev in self.revs[:w]:
            return False
        self.revs[w] = rev
        return True

    def _leaf(self):
        # revs are in file order U0, V0, U1, V1, U2, V2
        words = [Word._wrap(r[::-1]) for r in self.revs]
        pair = TriplePair._wrap(tuple(words[0::2]), tuple(words[1::2]))
        if verify(pair).verdict:
            self._record(pair)


def _new_searcher(cfg: SearchConfig, **kw) -> _SearcherBase:
    if cfg.shift_symmetry:
        return _ShiftSearcher(cfg, **kw)
    return _FullSearcher(cfg, **kw)


def _run(cfg: SearchConfig, prefix=()) -> SearchOutcome:
    s = _new_searcher(cfg, prefix=prefix).run()
    return SearchOutcome(s.results, s.nodes, s.exhausted)


def _shard_prefixes(cfg: SearchConfig):
    """Prefixes of the assignment sequence to shard on, in lexicographic
    order, and the node count of the scan that listed them.

    The scan lists the prefixes at depth 1, 2, ... and stops at the first
    depth with at least four prefixes per shard.  A depth whose frontier is
    no wider than the one before also stops it, and the wider frontier
    before it is used: deeper scans cost more nodes and, as the tree
    narrows, need not give more shards.
    """
    target = cfg.parallel_shards * 4
    total_depth = 2 * cfg.k if cfg.shift_symmetry else 6 * cfg.k
    best, best_nodes = [], 0
    for depth in range(1, total_depth + 1):
        found = []
        s = _new_searcher(cfg, stop_depth=depth, collector=found.append)
        s.run()
        if len(found) <= len(best):
            break
        best, best_nodes = found, s.nodes
        if len(found) >= target:
            break
    return best, best_nodes


def find_pairs(config: SearchConfig) -> SearchOutcome:
    """Run the configured search.

    The outcome lists every emitted pair (canonical representatives unless
    config.canonical is false), the number of letter placement attempts,
    and whether the whole configured space was covered.  A node budget or a
    result limit that stops the run early reports exhausted=False.  A run
    with a node budget uses one process whatever config.parallel_shards
    says, so the budget bounds the whole run and its outcome does not
    depend on the shard count.
    """
    if config.parallel_shards == 1 or config.node_budget is not None:
        return _run(config)

    prefixes, setup_nodes = _shard_prefixes(config)
    if len(prefixes) <= 1:
        out = _run(config)
        return out._replace(nodes_expanded=out.nodes_expanded + setup_nodes)

    from ._pool import pool_imap  # here, so that commands without a pool do not load it

    # the shards' pairs go through one searcher's _record, in shard order
    merged = _new_searcher(config)
    merged.nodes = setup_nodes
    shards = pool_imap(functools.partial(_run, config), prefixes, config.parallel_shards)
    with closing(shards) as stream:
        try:
            for pairs, shard_nodes, shard_exhausted in stream:
                merged.nodes += shard_nodes
                merged.exhausted &= shard_exhausted
                for pair in pairs:
                    merged._record(pair)
        except _Stop:
            merged.exhausted = False
    return SearchOutcome(merged.results, merged.nodes, merged.exhausted)
