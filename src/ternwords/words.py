"""Ternary words over {0, 1, 2} and square (xx) factor detection.

A square is a factor of the form xx with x non-empty; a word with no
square factor is square-free.  Every square test on single words runs
the one compiled pattern ``SQUARE`` over the letters as bytes, or its
prepend form ``square_after``; the batch tests of the count and of the
expansion compare columns instead, and the tests hold them against
``square_after`` and the scan:

* ``SQUARE.search`` tries start positions left to right, and its lazy
  group tries periods shortest first, so the first hit is the square with
  the smallest start, then the smallest period.  ``find_square`` reports it.
* A square that ends at the last letter of w is a square prefix of w
  reversed, so ``SQUARE.match`` on the reversed letters answers
  ``ends_with_square``.  A word is square-free iff no prefix of it ends
  with a square, which is the fact the enumerator and the pair search build
  on: they grow words as reversed byte strings, one letter in front at a
  time.
* ``square_after(len(rev))[a](rev)`` matches exactly when
  ``SQUARE.match(bytes((a,)) + rev)`` does, so a letter is tested before
  the longer buffer is built: a square prefix xx of a.rev has x = a.y, so
  rev starts with y a y, and conversely.  The pattern is a lazy group y,
  the letter a, then y again.  As y a y must fit in rev, the group is
  capped at (len(rev) - 1) // 2 letters, so a buffer that passes is
  scanned half way, not to its end; hence one pattern per length.
* ``square_ends_from(s, start)`` tells whether a square of s ends at index
  ``start`` or later, by the prepend test at each end from ``start`` up, so
  a square just past a seam (``verify``, U0's completion) is met first.

Enumeration runs the private walker ``_walk``, with an explicit stack, so
any length is reachable; it proposes only the two letters that differ from
the one just placed (a repeated letter is a square).

``count_square_free`` needs no order, so it tests a whole batch of
prefixes at once: reversed prefixes of one length, each led by a newline,
with letter c stored as its bit, the byte 1 << c.  Lines have one width,
so ``batch[1 + i :: width]`` is the column of every line's i-th letter,
which ``_mask`` reads as one int as it stands, with no translation.
a.line starts with a square of period p >= 2 exactly when line[p-1] = a
and line[t] = line[t+p] for every t < p-1.  Two letters that differ have
two of the three bits in their XOR, so the OR of those p-1 XORs, spread to
the neighbouring bits, fills the byte of every line with a mismatch, and
column p-1 outside them holds the letter that closes the square.  ORed
over every p and over column 0 (a letter equal to the first closes a
square of period 1), each line's byte holds the letters that cannot extend
it; ``_grow`` keeps the other lines per letter with ``compress`` and puts
the letter in front as it joins them (at the last length only their
number counts: 3 per line less the mask bits).  Batches past ``_CAP``
lines are cut and walked depth first.  Subtrees share nothing, so forked
workers (the package's one pool, in ``_pool``) can count the subtrees
below the prefixes of a fixed length, which the parent reads off the
walker and deals into one batch per worker, and one node budget, shared
while they walk, counts the prefixes of all those batches.  A count that
``_least``, a lower bound on a(m) proven with the built-in 18-pair, shows
to overrun its budget fails before it walks (``_overruns_surely``).

``square_lines`` tests a batch of equal-length lines at once, with no
separator, for the expansion check.  Column i is read as one base-4 int,
the letter of line j as its digit j.  Two letters that differ have a
non-zero XOR, so for a period p the digits of col[i] ^ col[i+p] that are 0
mark the lines whose letters i and i+p agree, and a line has a square of
period p exactly when p of those marks in a row are 0.  ORing the XORs in
windows that double in length, then two windows of the largest power of 2
up to p that overlap to cover p, gives one int per start i <= width - 2p,
whose zero digits are the lines with that square.  Folding each digit's
two bits into its low bit and ANDing over every start and period leaves
the low bit clear on exactly the lines with a square.

``_find_square_scan`` is the plain (start, period) scan, kept only as the
oracle the tests hold the pattern against.

``SquareWitness`` is a ``collections.namedtuple``, as are the package's
other value types: importing the package loads neither ``typing`` nor
``dataclasses`` (which brings ``inspect``, ``ast``, ``dis`` and
``tokenize`` with it), so every command starts sooner.

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
import operator
import re
from collections import namedtuple
from collections.abc import Iterable, Iterator
from contextlib import closing
from itertools import compress

__all__ = [
    "ALPHABET",
    "BudgetError",
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
    without the join.  The module docstring says why.  At length 0 the cap
    is 0, not -1 (which ``re`` would read as literal text)."""
    cap = max((length - 1) // 2, 0)
    return tuple(re.compile(rb"(.{0,%d}?)%c\1" % (cap, a), re.DOTALL).match for a in ALPHABET)


def square_ends_from(s: bytes, start: int) -> bool:
    """Whether a square of the letters ``s`` ends at index ``start`` or later:
    the prepend test of each end's letter, from ``start`` up."""
    rev, n = s[::-1], len(s)
    for end in range(start, n):
        if square_after(end)[s[end]](rev, n - end):
            return True
    return False


class ParseError(ValueError):
    """Text could not be read as a ternary word."""


# The prefixes ``count`` visits unless told otherwise: enough for a(53)
# (8257432 prefixes), not for a(54) (10750196).
DEFAULT_COUNT_BUDGET = 10**7


class BudgetError(RuntimeError):
    """A run would do more work than its budget allows."""


class CountBudgetError(BudgetError):
    """A count visited as many prefixes as its node budget allows."""


SquareWitness = namedtuple("SquareWitness", "start period")
SquareWitness.__doc__ = (
    "Location of a square: w[start : start+period] == w[start+period : start+2*period]."
)


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


def _walk(n: int, starts):
    """Yield the reversed letters of every square-free word of length n
    that extends one of ``starts`` (reversed square-free words of at most
    n letters, non-empty unless n is 0).  Words come in start order, then
    lexicographic order."""
    stack = list(reversed(starts))
    pop, push = stack.pop, stack.append
    while stack:
        rev = pop()
        if len(rev) == n:
            yield rev
            continue
        square = square_after(len(rev))
        b, c = _OTHERS[rev[0]]
        # c is pushed first so that b's subtree comes out first
        if square[c](rev) is None:
            push(LETTER_BYTES[c] + rev)
        if square[b](rev) is None:
            push(LETTER_BYTES[b] + rev)


# Tables of the batch test: a letter's bit, which stands for the letter in
# a batch, and per letter a whether a line's mask byte lets a in.
_BITS = bytes.maketrans(b"\0\1\2", b"\1\2\4")
_KEEP = tuple(bytes(not m >> a & 1 for m in range(256)) for a in ALPHABET)

# "\n" and a letter's bit: the start of a batch line, and its first letter.
_LINE_STARTS = tuple(b"\n" + a.translate(_BITS) for a in LETTER_BYTES)

# The letters as the digits of ``square_lines``' base-4 columns.
_DIGITS = bytes.maketrans(b"\0\1\2", b"012")


def _mask(batch: bytes, length: int) -> int:
    """Bit 1 << a of byte i, and no other bit: letter a does not extend line
    i of ``batch`` to a square-free prefix (see the module docstring)."""
    width = length + 1
    col = [int.from_bytes(batch[1 + i :: width], "little") for i in range(length)]
    mask = col[0] if length else 0
    for p in range(2, (length + 1) // 2 + 1):
        diff = 0
        for t in range(p - 1):
            diff |= col[t] ^ col[t + p]
        mask |= col[p - 1] & ~(diff | diff >> 1 | diff << 1)
    return mask


def square_lines(batch: bytes, width: int) -> int:
    """Bit 2j set, and no other bit, exactly when line j of ``batch`` has a
    square; the lines are ``width`` letters each, back to back, with no
    separator (see the module docstring)."""
    if width < 2 or not batch:
        return 0
    # column i from the last line to the first, so that line j is digit j
    col = [int(batch[i - width :: -width].translate(_DIGITS), 4) for i in range(width)]
    free = -1
    for p in range(1, width // 2 + 1):
        # run[i]: digit j is 0 exactly when letters i .. i + span - 1 of
        # line j equal the letters p further on
        run = [col[i] ^ col[i + p] for i in range(width - p)]
        span = 1
        while 2 * span <= p:
            run = [run[i] | run[i + span] for i in range(len(run) - span)]
            span *= 2
        tail = p - span
        for i in range(width - 2 * p + 1):
            diff = run[i] | run[i + tail]
            free &= diff | diff >> 1
    return ~free & int(b"1" * (len(batch) // width), 4)


def _grow(batch: bytes, length: int) -> bytes:
    """The batch of the next length: a.line for each line of ``batch`` that
    letter a extends to a square-free prefix, the lines of a = 0 first, in
    batch order, then those of 1 and of 2."""
    size = len(batch) // (length + 1)
    lines = batch.split(b"\n")
    marks = b"\0" + _mask(batch, length).to_bytes(size, "little")  # \0: text before line 1
    # the text before line 1 is empty and always kept, so a join that keeps
    # any line starts with "\n" a
    return b"".join([_LINE_STARTS[a].join(compress(lines, marks.translate(_KEEP[a])))
                     for a in ALPHABET])


def _count_below(n: int, length: int, batch: bytes, take) -> int:
    """Words of length n that extend a prefix in ``batch``, a batch of
    prefixes of ``length`` letters, length < n.  ``take`` is called with
    the number of prefixes in each batch before it is filtered."""
    stack = [(length, batch)]
    words = 0
    while stack:
        length, batch = stack.pop()
        size = len(batch) // (length + 1)
        take(size)
        if length == n - 1:
            words += 3 * size - _mask(batch, length).bit_count()
            continue
        batch = _grow(batch, length)
        chunk = _CAP * (length + 2)
        stack.extend((length + 1, batch[i : i + chunk]) for i in range(0, len(batch), chunk))
    return words


class _Tally:
    """The ``take`` of ``_count_below``: counts the prefixes walked, and
    past ``limit`` raises a bare CountBudgetError, unless it can take one
    of the shared ``permits`` (a semaphore) to walk ``chunk`` more."""

    def __init__(self, limit, permits=None, chunk=0):
        self.walked, self.limit, self.permits, self.chunk = 0, limit, permits, chunk

    def __call__(self, prefixes: int) -> None:
        self.walked += prefixes
        while self.walked > self.limit:
            if self.permits is None or not self.permits.acquire(False):
                raise CountBudgetError
            self.limit += self.chunk


# a(0) .. a(24), the counts ``_least`` starts from.
_SMALL_COUNTS = (
    1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264, 342, 456,
    618, 798, 1044, 1392, 1830, 2388, 3180, 4146, 5418, 7032,
)


def _least(m: int) -> int:
    """A proven lower bound on a(m): a(m) itself for m <= 24, else
    2^(j-1) * _least(j+1) with j = m // 18.  The built-in 18-pair maps the
    a(j+1) square-free words of length j+1, with 2^(j+1) choices each, to
    distinct square-free images.  As 18j <= m, the first m letters of an
    image hold j whole blocks, which name the word's first j letters and
    choices, and a length-j word has at most two square-free one-letter
    extensions, so at most four images share those blocks: their first m
    letters are at least 2^(j-1) * a(j+1) square-free words of length m."""
    if m <= 24:
        return _SMALL_COUNTS[m]
    j = m // 18
    return 2 ** (j - 1) * _least(j + 1)


def _overruns_surely(n: int, budget: int) -> bool:
    """True when ``_least`` shows that the count of a(n), which visits
    a(m)/6 prefixes of each length m = 2 .. n-1, visits more than
    ``budget``.  Past m = 24, ``_least(m)`` depends on m // 18 only, so each
    run of lengths with one m // 18 adds its equal terms in one product."""
    total, m = 0, 2
    while m < n:
        end = min(n, m + 1 if m <= 24 else m - m % 18 + 18)
        total += (end - m) * (_least(m) // 6)
        if total > budget:
            return True
        m = end
    return False


# Batches hold at most _CAP lines.  With 2^11 .. 2^14, `count 53` peaked at
# 15.7 / 15.8 / 16.3 / 19.7 MB (273 MB uncapped), and one process took
# 44.6 / 42.0 / 38.5 / 38.3 ms for `_count_below(42, ...)` (best of 9, 2
# CPUs, Python 3.11.7).  The parallel count: the parent reads the 0,1
# class's 24 words of length _SPLIT_DEPTH off the walker (59 shorter
# prefixes) and deals them into one batch per worker, each one pool task.
# In a timed crossover of `count n` on 2 CPUs, Python 3.11.7, fresh
# interpreters, the pool beat one process in 3 of 35 alternating rounds at
# n = 38, 10 of 35 at n = 39, 23 of 35 at n = 40 (medians 50.8 / 51.6 ms),
# 34 of 35 at n = 41 and 32 of 35 at n = 42 (60.8 / 71.5 ms).  A task takes
# a shared permit per _CHUNK prefixes after its first.
_CAP = 4096
_SPLIT_DEPTH = 10
_PARALLEL_MIN_N = 41
_START = b"\n\x02\x01"  # the batch of the word 0, 1
_CHUNK = 4096


def _split(take) -> list:
    """The batch lines of the 0,1 class at length ``_SPLIT_DEPTH``, read
    off the walker; ``take`` is called once with the prefixes of lengths
    2 .. _SPLIT_DEPTH - 1, which ``_count_below`` would have counted."""
    take(sum(_SMALL_COUNTS[2:_SPLIT_DEPTH]) // 6)
    # the walker starts from the word 0, 1 reversed, in letters 0, 1, 2
    return [b"\n" + rev.translate(_BITS) for rev in _walk(_SPLIT_DEPTH, (b"\1\0",))]


def _count_subtree(permits, chunk: int, task) -> "tuple[int, int]":
    """Pool task: the words of length n below one batch, and the prefixes
    walked.  The task walks ``chunk`` prefixes, then takes a permit for
    each further chunk it starts.  The caller makes ``left // chunk``
    permits, where ``left`` is the budget the tasks share, so when none is
    left more than ``left`` prefixes have been walked in all, and the walk
    stops.  Permits are never waited for or given back, so a worker may be
    stopped any time."""
    n, length, batch = task
    tally = _Tally(chunk, permits, chunk)
    return _count_below(n, length, batch, tally), tally.walked


def _count_parallel(n: int, tally: _Tally) -> int:
    """Words of length n in the 0,1 class, walked on a pool.  The lines at
    the split depth are dealt round robin into one batch per worker, so no
    batch is empty.  The prefixes above the split depth are counted in the
    caller's ``tally``, and the batches share what is left of its limit; a
    bare CountBudgetError stops the pool when they overrun it."""
    from multiprocessing.synchronize import SEM_VALUE_MAX

    from . import _pool

    lines = _split(tally)
    workers = min(_pool.usable_cpus(), len(lines))
    tasks = [(n, _SPLIT_DEPTH, b"".join(lines[i::workers])) for i in range(workers)]
    left = tally.limit - tally.walked
    chunk = max(_CHUNK, left // SEM_VALUE_MAX + 1)  # so the permits fit
    permits = _pool.context().Semaphore(left // chunk)
    count = functools.partial(_count_subtree, permits, chunk)
    total = 0
    with closing(_pool.pool_imap(count, tasks, workers)) as results:
        for words, walked in results:
            total += words
            left -= walked
            if left < 0:
                raise CountBudgetError
    return total


def count_square_free(n: int, node_budget: int = DEFAULT_COUNT_BUDGET) -> int:
    """Number of square-free words of length n (1 for the empty word).

    Words are counted in classes under the six permutations of the
    alphabet: every square-free word of length >= 2 starts with two
    distinct letters, the permutation group moves the class with first
    letters 0,1 onto each of the six ordered pairs, and permutations
    preserve square-freeness.  So only the 0,1 class is walked and the
    count is multiplied by 6.

    From n = ``_PARALLEL_MIN_N`` on, when this process may use two CPUs
    or more, the walk is split: this process walks the class down to the
    24 words of length ``_SPLIT_DEPTH`` and deals them into one batch per
    usable CPU (24 at most), and each batch is counted in a forked worker
    process.  The subtrees below the words share nothing, so their counts
    add up.  Otherwise one process walks the whole class.

    ``node_budget``, ``DEFAULT_COUNT_BUDGET`` unless given, caps the
    prefixes visited, with the same meaning on both paths: the prefixes of
    the parent's walk plus those of every subtree equal the one-process
    count, a(m)/6 summed over m = 2 .. n-1, and the count succeeds exactly
    when that total is at most it.  Otherwise CountBudgetError names the
    budget and n.  A count that the built-in pair's lower bound on a(m)
    (``_least``) already shows to overrun fails before it walks.  The
    workers share the budget while they walk, so a parallel count that
    overruns stops within a few thousand prefixes per worker of where one
    process would.
    """
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if operator.index(node_budget) < 0:
        raise ValueError(f"node budget must be >= 0, got {node_budget}")
    if n < 3:
        return _SMALL_COUNTS[n]
    tally = _Tally(node_budget)
    try:
        if _overruns_surely(n, node_budget):
            raise CountBudgetError
        if n >= _PARALLEL_MIN_N:
            from . import _pool  # here, so that commands without a pool do not load it

            if _pool.usable_cpus() >= 2:
                return 6 * _count_parallel(n, tally)
        return 6 * _count_below(n, 2, _START, tally)
    except CountBudgetError:
        raise CountBudgetError(
            f"node budget of {node_budget} prefixes exhausted before a({n}) was counted"
        ) from None


def enumerate_square_free(n: int) -> Iterator[Word]:
    """Yield every square-free word of length n in lexicographic order (0 < 1 < 2)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    for rev in _walk(n, LETTER_BYTES if n else (b"",)):
        yield Word._wrap(rev[::-1])
