"""Ternary words over {0, 1, 2} and square (xx) factor detection.

A square is a factor of the form xx with x non-empty; a word with no
square factor is square-free.  Every square test in the package runs the
one compiled pattern ``SQUARE`` over the letters as bytes, or its prepend
form ``square_after``:

* ``SQUARE.search`` tries start positions left to right, and its lazy
  group tries periods shortest first, so the first hit is the square with
  the smallest start, then the smallest period.  ``find_square`` reports it.
* A square that ends at the last letter of w is a square prefix of w
  reversed, so ``SQUARE.match`` on the reversed letters answers
  ``ends_with_square``.  A word is square-free iff no prefix of it ends
  with a square, which is the fact the enumerator and the pair search build
  on: they grow words as reversed byte strings, one letter in front at a
  time.  The expansion check matches one reversed image at the start
  positions of its new letters.
* ``square_after(len(rev))[a](rev)`` matches exactly when
  ``SQUARE.match(bytes((a,)) + rev)`` does, so a letter is tested before
  the longer buffer is built: a square prefix xx of a.rev has x = a.y, so
  rev starts with y a y, and conversely.  The pattern is a lazy group y,
  the letter a, then y again.  As y a y must fit in rev, the group is
  capped at half the buffer's length, so a buffer that passes is scanned
  half way, not to its end; hence one pattern per length.

Counting and enumeration share one private walker, ``_walk``, with an
explicit stack in place of recursion, so any length is reachable.  It
proposes only the two letters that differ from the one just placed (a
repeated letter is a square) and hands back each word as its reversed
prefix and last letter, so ``count_square_free`` builds no word.  Its
subtrees share nothing, so a long count can split the walk: this process
walks down to a fixed depth and forked workers (the package's one pool, in
the private ``_pool`` module) walk the subtrees below it, and the counts
add up.  A node budget counts the prefixes of all those walks together,
so it means the same on both paths, and the workers share it while they
walk, so a count that overruns it stops on every CPU soon after.

``_find_square_scan`` is the plain (start, period) scan, kept only as the
oracle the tests hold the pattern against.

A ``Word`` stores its letters as one ``bytes`` object, one byte 0, 1 or 2
per letter, and ``bytes(w)`` returns that object without a copy.  Every
kernel reads letters that way; ``w.letters`` builds a tuple of ints and is
for callers that want one.  ``SHIFT_TABLES[c]`` is the ``bytes.translate``
table that adds c to every letter mod 3, the one whole-word shift.

Words hash as their bytes, and bytes hashes are salted per process, so the
iteration order of a set or dict keyed by Words (or by the TriplePairs
built from them) changes from run to run.  No output may depend on it:
such containers serve membership tests and sizes only.
"""

import functools
import re
from contextlib import closing
from itertools import chain, repeat
from operator import length_hint
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "ALPHABET",
    "CountBudgetError",
    "DEFAULT_COUNT_BUDGET",
    "ParseError",
    "SquareWitness",
    "Word",
    "parse_word",
    "find_square",
    "is_square_free",
    "ends_with_square",
    "shift",
    "reverse",
    "count_square_free",
    "enumerate_square_free",
]

ALPHABET = (0, 1, 2)

# The package's one square test; the module docstring says how it is used.
SQUARE = re.compile(rb"(.+?)\1", re.DOTALL)

# One-byte strings of the letters, for prepending to reversed buffers.
LETTER_BYTES = tuple(bytes((a,)) for a in ALPHABET)

# _OTHERS[x]: the letters the walker proposes after x; x would close xx.
_OTHERS = ((1, 2), (0, 2), (0, 1))

# SHIFT_TABLES[c] adds c to every letter mod 3 under bytes.translate.
SHIFT_TABLES = tuple(
    bytes.maketrans(b"\0\1\2", bytes((a + c) % 3 for a in ALPHABET)) for c in ALPHABET
)


@functools.lru_cache(maxsize=1024)
def square_after(length: int) -> tuple:
    """Prepend tests for reversed buffers of ``length`` letters: entry a
    matches rev exactly when ``SQUARE.match(LETTER_BYTES[a] + rev)`` does,
    without the join.  The module docstring says why."""
    group = rb"(.{0,%d}?)" % (length // 2)
    return tuple(re.compile(group + a + rb"\1", re.DOTALL).match for a in LETTER_BYTES)


class ParseError(ValueError):
    """Text could not be read as a ternary word."""


# The prefixes ``count`` visits unless told otherwise: enough for a(53)
# (8257432 prefixes), not for a(54) (10750196).
DEFAULT_COUNT_BUDGET = 10**7


class CountBudgetError(RuntimeError):
    """A count visited as many prefixes as its node budget allows."""


class SquareWitness(NamedTuple):
    """Location of a square: w[start : start+period] == w[start+period : start+2*period]."""

    start: int
    period: int


class Word:
    """Immutable word over the alphabet {0, 1, 2}, stored as bytes.

    Equality, ordering and hashing are letter by letter.  Slicing returns a
    Word, ``+`` concatenates, ``str`` gives the plain digit string and
    ``bytes`` the stored letter bytes.
    """

    __slots__ = ("_bytes",)

    def __init__(self, letters: Iterable[int] = ()):
        tup = tuple(letters)
        for pos, a in enumerate(tup):
            if not isinstance(a, int) or a not in (0, 1, 2):
                raise ValueError(f"letter {a!r} at position {pos} is not 0, 1 or 2")
        self._bytes = bytes(tup)

    @classmethod
    def _wrap(cls, letters: bytes) -> "Word":
        # Internal constructor for letter bytes that are already validated.
        w = object.__new__(cls)
        w._bytes = letters
        return w

    @property
    def letters(self) -> tuple:
        return tuple(self._bytes)

    def __bytes__(self) -> bytes:
        return self._bytes

    def __len__(self) -> int:
        return len(self._bytes)

    def __iter__(self):
        return iter(self._bytes)

    def __getitem__(self, ix):
        if isinstance(ix, slice):
            return Word._wrap(self._bytes[ix])
        return self._bytes[ix]

    def __eq__(self, other):
        if isinstance(other, Word):
            return self._bytes == other._bytes
        return NotImplemented

    def __hash__(self):
        return hash(self._bytes)

    def __lt__(self, other):
        if isinstance(other, Word):
            return self._bytes < other._bytes
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Word):
            return Word._wrap(self._bytes + other._bytes)
        return NotImplemented

    def __str__(self) -> str:
        return "".join(map(str, self._bytes))

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def parse_word(text: str) -> Word:
    """Read a word from text; whitespace is ignored, anything else rejected."""
    letters = []
    for pos, ch in enumerate(text):
        if ch in "012":
            letters.append(ord(ch) - 48)
        elif ch.isspace():
            continue
        else:
            raise ParseError(f"invalid character {ch!r} at position {pos}")
    return Word._wrap(bytes(letters))


def find_square(w: Word) -> "SquareWitness | None":
    """The square with the smallest start, then the smallest period, or None
    when the word is square-free."""
    m = SQUARE.search(bytes(w))
    if m is None:
        return None
    return SquareWitness(m.start(), m.end(1) - m.start())


def _find_square_scan(w: Word) -> "SquareWitness | None":
    """Reference oracle for ``find_square``: compare the halves of every
    (start, period) pair in that order.  Cubic; only tests call it."""
    ls = w.letters
    n = len(ls)
    for start in range(n):
        for period in range(1, (n - start) // 2 + 1):
            if ls[start : start + period] == ls[start + period : start + 2 * period]:
                return SquareWitness(start, period)
    return None


def is_square_free(w: Word) -> bool:
    return find_square(w) is None


def ends_with_square(w: Word) -> bool:
    """True when some square ends exactly at the last letter."""
    return SQUARE.match(bytes(w)[::-1]) is not None


def shift(w: Word, c: int) -> Word:
    """Add c to every letter mod 3."""
    if c not in (0, 1, 2):
        raise ValueError(f"shift amount must be 0, 1 or 2, got {c!r}")
    if c == 0:
        return w
    return Word._wrap(bytes(w).translate(SHIFT_TABLES[c]))


def reverse(w: Word) -> Word:
    return Word._wrap(bytes(w)[::-1])


def _walk(n: int, starts, turns):
    """Yield (rev, a) for every square-free word of length n that extends
    one of ``starts`` (reversed non-empty square-free words shorter than
    n, at least one): a is its last letter and rev the others, reversed.
    Words come in start order, then lexicographic order.  Each prefix
    popped from the stack takes one item of the iterator ``turns``, so
    ``operator.length_hint(turns)`` afterwards is the budget left; a bare
    CountBudgetError is raised when ``turns`` runs out with prefixes left."""
    stack = list(reversed(starts))
    pop, push = stack.pop, stack.append
    last = n - 1
    # one turn per visited prefix; a budget only bounds the turns, so it
    # adds no test per prefix
    for _ in turns:
        rev = pop()
        length = len(rev)
        square = square_after(length)
        b, c = _OTHERS[rev[0]]
        if length < last:
            # c is pushed first so that b's subtree comes out first
            if square[c](rev) is None:
                push(LETTER_BYTES[c] + rev)
            if square[b](rev) is None:
                push(LETTER_BYTES[b] + rev)
        else:
            if square[b](rev) is None:
                yield rev, b
            if square[c](rev) is None:
                yield rev, c
        if not stack:
            return
    raise CountBudgetError


def _turns(budget: "int | None"):
    return repeat(None) if budget is None else repeat(None, budget)


# The parallel count: the parent walks the 0,1 class to its 24 words of
# length _SPLIT_DEPTH (59 prefixes), and the subtree below each of them is
# one pool task.  _PARALLEL_MIN_N is the shortest length where that beat
# one process in every round of a timed crossover; it exceeds _SPLIT_DEPTH.
# A budgeted subtree walks _CHUNK prefixes between looks at the budget that
# all subtrees share.
_SPLIT_DEPTH = 10
_PARALLEL_MIN_N = 38
_START = b"\x01\x00"  # the word 0, 1 reversed
_CHUNK = 4096


def _count_subtree(permits, chunk: int, task) -> "tuple[int, int | None]":
    """Pool task: the words of length n below one reversed prefix, and the
    prefixes walked (None without a budget, when ``permits`` is None).

    With a budget the walk takes its turns ``chunk`` at a time, and each
    chunk after its first takes one of the shared ``permits`` (a
    semaphore) for the chunk just finished.  The caller makes
    ``left // chunk`` permits, where ``left`` is the budget the subtrees
    share, so when none is left more than ``left`` prefixes have been
    walked in all, and the walk stops with a bare CountBudgetError.
    Permits are taken without waiting and never given back, so a worker
    stopped at any moment leaves no process blocked.
    """
    n, start = task
    if permits is None:
        return sum(1 for _ in _walk(n, (start,), repeat(None))), None
    chunks = []

    def turns():
        while not chunks or permits.acquire(False):
            chunks.append(repeat(None, chunk))
            yield chunks[-1]

    words = sum(1 for _ in _walk(n, (start,), chain.from_iterable(turns())))
    return words, len(chunks) * chunk - length_hint(chunks[-1])


def _count_parallel(n: int, turns, budget: "int | None") -> int:
    """Words of length n in the 0,1 class, walked as subtrees on a pool.

    ``turns`` is the caller's budget iterator; the parent's walk to the
    split depth takes from it, and the subtrees share what is left.  The
    count raises a bare CountBudgetError when a subtree runs out of shared
    permits or the prefixes walked in all pass ``budget``, and the pool
    stops then.
    """
    from . import _pool

    starts = [LETTER_BYTES[a] + rev for rev, a in _walk(_SPLIT_DEPTH, (_START,), turns)]
    tasks = [(n, start) for start in starts]
    if budget is None:
        left = None
        count = functools.partial(_count_subtree, None, None)
    else:
        from multiprocessing.synchronize import SEM_VALUE_MAX

        left = length_hint(turns)
        chunk = max(_CHUNK, left // SEM_VALUE_MAX + 1)  # so the permits fit
        permits = _pool.context().Semaphore(left // chunk)
        count = functools.partial(_count_subtree, permits, chunk)
    total = 0
    with closing(_pool.pool_imap(count, tasks, len(tasks))) as results:
        for words, walked in results:
            total += words
            if left is not None:
                left -= walked
                if left < 0:
                    raise CountBudgetError
    return total


def count_square_free(n: int, node_budget: "int | None" = None) -> int:
    """Number of square-free words of length n (1 for the empty word).

    Words are counted in classes under the six permutations of the
    alphabet: every square-free word of length >= 2 starts with two
    distinct letters, the permutation group moves the class with first
    letters 0,1 onto each of the six ordered pairs, and permutations
    preserve square-freeness.  So only the 0,1 class is walked and the
    count is multiplied by 6.

    From n = ``_PARALLEL_MIN_N`` on, when this process may use two CPUs
    or more, the walk is split: this process walks the class down to the
    words of length ``_SPLIT_DEPTH``, and the subtree below each of them
    is counted in a forked worker process, one per usable CPU.  The
    subtrees share nothing, so their counts add up.  Otherwise one process
    walks the whole class.

    ``node_budget`` caps the prefixes visited, with the same meaning on
    both paths: the prefixes of the parent's walk plus those of every
    subtree equal the one-process count, and the count succeeds exactly
    when that total is at most ``node_budget``.  Otherwise
    CountBudgetError names the budget and n.  The workers share the
    budget while they walk, so a parallel count that overruns stops
    within a few thousand prefixes per subtree of where one process would.
    """
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    if n < 3:
        return (1, 3, 6)[n]
    turns = _turns(node_budget)
    try:
        if n >= _PARALLEL_MIN_N:
            from . import _pool  # here, so that commands without a pool do not load it

            if _pool.usable_cpus() >= 2:
                return 6 * _count_parallel(n, turns, node_budget)
        return 6 * sum(1 for _ in _walk(n, (_START,), turns))
    except CountBudgetError:
        raise CountBudgetError(
            f"node budget of {node_budget} prefixes exhausted before a({n}) was counted"
        ) from None


def enumerate_square_free(n: int) -> Iterator[Word]:
    """Yield every square-free word of length n in lexicographic order (0 < 1 < 2)."""
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if n < 2:
        yield from map(Word._wrap, LETTER_BYTES if n else (b"",))
        return
    for rev, a in _walk(n, LETTER_BYTES, repeat(None)):
        yield Word._wrap((LETTER_BYTES[a] + rev)[::-1])
