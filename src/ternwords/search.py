"""Backtracking search for k-Brinkhuis triple-pairs.

Shift-symmetric mode (the default) assigns the letters of U0, then of V0,
and derives U1, U2, V1, V2 as their letterwise shifts by 1 and 2.  The
relaxed mode assigns all six words interleaved position by position, in
the order U0, V0, U1, V1, U2, V2.  Both modes run one backtracking loop,
which tries the candidate letters, counts nodes against the budget and
gives each full assignment one ``verify`` call of the triplepair module
(most fail, and verify stops at its first failing check); only pairs
whose certificate passes are emitted.  Each mode supplies just its
placement, which applies its cuts, and the pair of a full assignment.

Cuts, each a None from a mode's ``_place`` for a letter (each is sound: a
cut implies no completion can satisfy the definition); ``prune_check``
runs a searcher on a fixed prefix, so tests can hold these cuts against verify:

* a prefix of any constituent word ends with a square (in symmetric
  mode, V0's shows shifted in the cross concatenation below);
* two prefixes of length r >= ceil(k/2) that the distinctness condition
  forces apart coincide (in symmetric mode, V0's head against the three
  shifted heads and the tail of the completed U0);
* in symmetric mode, a square appears in a growing cross concatenation
  U0 . shift(V0-prefix, d), or U0, once its last letter is placed, fails
  its own concatenation conditions.

Two checks of the definition need no code in symmetric mode, as the
concatenation tests imply them (U_d = shift(U0, d), r >= ceil(k/2)):

* head_r(U0) = tail_r(U0) gives U0 the period k - r <= k/2, so a square;
  head_r(U0) = tail_r(U_d), d = 1, 2, puts a square in U_d . U0, which
  shifted by -d is U0 . shift(U0, 3 - d), which U0's completion rejects;
* head_r(V0) = tail_r(U_d), d = 1, 2, puts a square in U_d . V0, which
  shifted by -d is U0 . shift(V0, 3 - d): the cross test cuts it at V0's
  r-th letter, before the forbidden heads are looked up.

Each growing word is kept as its letters reversed in a byte string, and
``square_after`` from the words module tells whether a letter put in front
would end a square, before the longer string is built (a completed U0 gets
``square_ends_from`` past its seams).  Parallel runs shard the space by
fixed-depth prefixes of the assignment sequence, and record the shards'
pairs in lexicographic shard order through one searcher's ``_record``, as
one process would: that keeps the emitted pair set independent of the
shard count.  The pool never has more workers than shards or CPUs, and
each of its ``size`` workers runs every ``size``-th shard, in order.
"""

import functools
import operator
from collections import namedtuple
from contextlib import closing

from . import _PUBLIC
from .words import LETTER_BYTES, SHIFT_TABLES, Word, shift, square_after, square_ends_from
from .triplepair import TriplePair, make_triple_pair, verify

__all__ = _PUBLIC["search"]


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
        if operator.index(self.k) < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.palindrome_constraint and not self.shift_symmetry:
            raise ValueError("the palindrome restriction needs the shift symmetry")
        if self.first_letter not in (None, 0, 1, 2):
            raise ValueError(f"first letter must be 0, 1 or 2, got {self.first_letter!r}")
        if self.max_results is not None and operator.index(self.max_results) < 1:
            raise ValueError(f"result limit must be >= 1, got {self.max_results}")
        if self.node_budget is not None and operator.index(self.node_budget) < 0:
            raise ValueError(f"node budget must be >= 0, got {self.node_budget}")
        if operator.index(self.parallel_shards) < 1:
            raise ValueError(f"shard count must be >= 1, got {self.parallel_shards}")
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
    budget are not applied.
    """
    seq = tuple(Word(letters))
    kept = []
    cfg = config._replace(node_budget=None)
    searcher = _new_searcher(cfg, prefix=seq, stop_depth=len(seq), collector=kept.append)
    if len(seq) > searcher.depth:
        raise ValueError("assignment longer than the search space")
    searcher.run()
    return bool(kept)


class _Stop(Exception):
    """Internal: node budget exhausted or result limit reached."""


class _SearcherBase:
    """The backtracking loop both modes share.  A mode sets ``depth``, the
    length of a full assignment, and ``state``, the immutable data its cuts
    read; ``_place(depth, x)`` returns the state after placing letter x, or
    None to cut, and ``_pair()`` the TriplePair of a full assignment."""

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

    def run(self) -> SearchOutcome:
        try:
            self._extend(0)
        except _Stop:
            self.exhausted = False
        return SearchOutcome(self.results, self.nodes, self.exhausted)

    def _candidates(self, depth: int):
        if depth < len(self.prefix):
            return (self.prefix[depth],)
        if depth == 0 and self.cfg.first_letter is not None:
            return (self.cfg.first_letter,)
        return (0, 1, 2)

    def _extend(self, depth: int):
        if depth == self.stop_depth:
            self.collector(tuple(self.seq))
            return
        if depth == self.depth:
            pair = self._pair()
            if verify(pair).verdict:
                self._record(pair)
            return
        saved = self.state
        budget = self.cfg.node_budget
        for x in self._candidates(depth):
            if budget is not None and self.nodes >= budget:
                raise _Stop
            self.nodes += 1
            state = self._place(depth, x)
            if state is not None:
                self.state = state
                self.seq.append(x)
                self._extend(depth + 1)
                self.seq.pop()
                self.state = saved

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
    The state is U0's reversed letters while U0 grows, then the reversed
    letters of V0 and of U0 . shift(V0, d) for d = 1, 2, and the reversed
    heads of V0 that U0's completion forbids, by length.
    """

    def __init__(self, cfg, **kw):
        super().__init__(cfg, **kw)
        self.depth = 2 * cfg.k
        self.state = b""

    def _candidates(self, depth: int):
        k = self.k
        if self.cfg.palindrome_constraint and depth >= len(self.prefix):
            start = 0 if depth < k else k  # where the current word starts in seq
            pos = depth - start
            if pos >= self.half:
                return (self.seq[start + k - 1 - pos],)
        return super()._candidates(depth)

    def _complete_u(self, u: bytes):
        """The V0 phase's first state, or None when the completed U0 fails
        the conditions it settles alone."""
        k = self.k
        shifted = [u.translate(SHIFT_TABLES[d]) for d in (1, 2)]
        # U0 . shift(U0, d) must be square-free; any square in it ends past the
        # seam.  That settles U0's heads against the tails of U0, U1, U2 too.
        if any(square_ends_from(u + ud, k) for ud in shifted):
            return None
        # V0's head of length r, reversed, must miss the reversed heads of U0,
        # U1, U2 and U0's reversed tail, which cuts at k=24 (U0 . V0 is no
        # concatenation); the cross tests cut the tails of U1, U2 (docstring).
        rev = [w[::-1] for w in (u, *shifted)]
        forbid = {
            r: frozenset([w[k - r :] for w in rev] + [rev[0][:r]]) for r in range(self.half, k)
        }
        return b"", rev[0], rev[0], forbid

    def _place(self, depth: int, x: int):
        k = self.k
        if depth < k:
            ru = self.state
            if square_after(len(ru))[x](ru):
                return None
            ru = LETTER_BYTES[x] + ru
            return ru if depth < k - 1 else self._complete_u(ru[::-1])
        rv, rb1, rb2, forbid = self.state
        x1, x2 = (x + 1) % 3, (x + 2) % 3
        cross = square_after(len(rb1))  # rb1 and rb2 have one length
        if cross[x1](rb1) or cross[x2](rb2):
            return None
        rv = LETTER_BYTES[x] + rv
        if rv in forbid.get(depth - k + 1, ()):
            return None
        return rv, LETTER_BYTES[x1] + rb1, LETTER_BYTES[x2] + rb2, forbid

    def _pair(self):
        k, w, (_, t1, t2) = self.k, Word._wrap, SHIFT_TABLES
        u, v = bytes(self.seq[:k]), bytes(self.seq[k:])
        return TriplePair._wrap((w(u), w(u.translate(t1)), w(u.translate(t2))),
                                (w(v), w(v.translate(t1)), w(v.translate(t2))))


class _FullSearcher(_SearcherBase):
    """Assign all six words interleaved, position by position.

    The state is the six words' reversed letters, starting with the word
    that grows next, so after a full round it is in file order again.
    """

    def __init__(self, cfg, **kw):
        super().__init__(cfg, **kw)
        self.depth = 6 * cfg.k
        self.state = (b"",) * 6

    def _place(self, depth: int, x: int):
        revs = self.state
        if square_after(len(revs[0]))[x](revs[0]):
            return None
        rev = LETTER_BYTES[x] + revs[0]
        pos, w = divmod(depth, 6)
        # the w words earlier in the round, last in the state, have length pos + 1
        if self.half <= pos + 1 < self.k and rev in revs[6 - w :]:
            return None
        return revs[1:] + (rev,)

    def _pair(self):
        u0, v0, u1, v1, u2, v2 = [Word._wrap(r[::-1]) for r in self.state]
        return TriplePair._wrap((u0, u1, u2), (v0, v1, v2))


def _new_searcher(cfg: SearchConfig, **kw) -> _SearcherBase:
    return (_ShiftSearcher if cfg.shift_symmetry else _FullSearcher)(cfg, **kw)


def _run(cfg: SearchConfig, prefix=()) -> SearchOutcome:
    return _new_searcher(cfg, prefix=prefix).run()


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
        nodes = _new_searcher(cfg, stop_depth=depth, collector=found.append).run().nodes_expanded
        if len(found) <= len(best):
            break
        best, best_nodes = found, nodes
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

    Run to the end, a sharded run counts the one-process nodes (the prefix
    scan's among them) plus the letters of every shard prefix, which its
    shard places again.
    """
    if config.parallel_shards == 1 or config.node_budget is not None:
        return _run(config)

    prefixes, setup_nodes = _shard_prefixes(config)

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
