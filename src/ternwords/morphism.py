"""Expanding square-free words through a triple-pair, and the growth bound.

``substitute`` replaces each letter x of a word by the block U_x or V_x of
a triple-pair, with a choice string over 'U'/'V' selecting the block per
position.  When the 2^n images of each of the a(n) square-free words of
length n are square-free and distinct, they witness a(n*k) >= 2^n * a(n),
and when that holds for every n, mu >= 2^(1/(k-1)) for the growth rate
mu = lim a(n)^(1/n).  A passing certificate is necessary for this, but not
sufficient: the k=23 pair in tests/data/unsound_k23_pair.txt passes
``verify``, and its image of 010 with choices UUU has a square at n=3.
``verify_expansion`` checks the square-free and distinctness claims
exhaustively at small n; ``lower_bound`` computes the exponent and the
numeric bound.

``verify_expansion`` visits the images in "snake" order: the words in
enumeration order, the choice strings in product order for even-indexed
words and in reverse for odd-indexed ones.  Consecutive images then share
their leading blocks.  Every block is k letters long, so an image shares
with the one before it k letters per leading position whose letter and
choice both agree, plus the common prefix of the two blocks at the first
position that differs.  That prefix is part of a word already found
square-free, so only squares that end after it can be new; they are the
square prefixes of the reversed image at the start positions before the
shared part, one ``SQUARE.match`` each.  An image that shares nothing gets
the whole-word search, ``is_square_free``.  Product order changes the last
choice most often, so about two blocks of an image are new on average.  At
n=6 the built-in pair's 2688 images of length 108 take 3 whole-word
searches, and the other 2685 take 28.5 matches each on average.
"""

import itertools
from dataclasses import dataclass

from .words import SQUARE, Word, enumerate_square_free, find_square, is_square_free
from .triplepair import TriplePair, verify

__all__ = [
    "DEFAULT_EXPANSION_BUDGET",
    "ExpansionBudgetError",
    "BoundReport",
    "ExpansionReport",
    "lower_bound",
    "parse_choices",
    "substitute",
    "verify_expansion",
]

DEFAULT_EXPANSION_BUDGET = 10_000_000


class ExpansionBudgetError(RuntimeError):
    """An expansion run would enumerate more images than the budget allows."""


@dataclass(frozen=True)
class BoundReport:
    k: int
    exponent_denominator: int
    mu_lower_bound: float


def lower_bound(k: int) -> BoundReport:
    """The growth-rate consequence of a k-pair: mu >= 2 ** (1 / (k - 1))."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return BoundReport(
        k=k, exponent_denominator=k - 1, mu_lower_bound=2.0 ** (1.0 / (k - 1))
    )


def parse_choices(text: str) -> str:
    """Validate a choice string: one 'U' or 'V' per position, case sensitive."""
    for pos, ch in enumerate(text):
        if ch not in "UV":
            raise ValueError(f"invalid choice {ch!r} at position {pos}: expected 'U' or 'V'")
    return text


def substitute(tp: TriplePair, x: Word, choices: str) -> Word:
    """Concatenate, for each position t, U_{x[t]} when choices[t] is 'U', else V_{x[t]}.

    Total for any input word; a square-free input and a passing
    certificate do not guarantee a square-free result (see the module
    docstring), ``verify_expansion`` checks it.
    """
    ch = parse_choices(choices)
    if len(ch) != len(x):
        raise ValueError(f"choice string length {len(ch)} does not match word length {len(x)}")
    u, v = [bytes(w) for w in tp.u], [bytes(w) for w in tp.v]
    return Word._wrap(b"".join(u[a] if c == "U" else v[a] for a, c in zip(bytes(x), ch)))


@dataclass(frozen=True)
class ExpansionReport:
    """``first_square`` is None, or (word, choices, witness) for the first
    image in visiting order that has a square, with ``find_square``'s
    witness in that image."""

    total: int
    all_square_free: bool
    all_distinct: bool
    first_square: "tuple | None" = None


def _require_verified(tp: TriplePair):
    if not verify(tp).verdict:
        raise ValueError("triple-pair fails verification; expansion guarantees need a passing pair")


def _square_free_words(n: int, budget: int) -> list:
    """The square-free words of length n.  Raises ExpansionBudgetError as
    soon as the words drawn so far have more than ``budget`` images."""
    # a(n) >= 1, so 2^n alone can exceed the budget; that test is instant,
    # and it keeps a huge n from starting the enumeration at all.
    if 2**n > budget:
        raise ExpansionBudgetError(f"2^n * a(n) >= 2^n = {2**n} exceeds budget {budget}")
    words = []
    for x in enumerate_square_free(n):
        words.append(x)
        if 2**n * len(words) > budget:
            raise ExpansionBudgetError(f"2^n * a(n) >= {2**n * len(words)} exceeds budget {budget}")
    return words


def _common_prefix(a, b) -> int:
    """Length of the longest common prefix of two sequences."""
    t = 0
    for p, q in zip(a, b):
        if p != q:
            break
        t += 1
    return t


def _has_square_ending_from(image: bytes, shared: int) -> bool:
    """True when a square of ``image`` ends at position ``shared`` or later:
    a square prefix of the reversed image starting before len - shared."""
    rev = image[::-1]
    match = SQUARE.match
    for pos in range(len(image) - shared):
        if match(rev, pos) is not None:
            return True
    return False


def verify_expansion(tp: TriplePair, n: int, budget: int = DEFAULT_EXPANSION_BUDGET) -> ExpansionReport:
    """Substitute every (square-free word of length n, choice string) pair.

    Reports the image count 2^n * a(n) and whether all images are
    square-free and pairwise distinct.  Raises ExpansionBudgetError before
    substituting when the image count exceeds the budget, and ValueError
    when the pair itself fails verification.  Both flags true confirms the
    counting step a(n*k) >= 2^n * a(n) at this n: the images are then
    2^n * a(n) distinct square-free words of length n*k.

    Each image is built once by ``substitute`` and kept in a set for the
    distinctness test.  Images are visited in the snake order the module
    docstring describes, and the prefix an image shares with the previous
    one is worked out from the (letter, choice) steps and the common
    prefixes of the six blocks, then confirmed by one bytes comparison.
    While every image so far is square-free, the previous image is, so a
    square can only end after the shared prefix: an image costs one
    ``SQUARE.match`` per letter after it, or one whole-word search when it
    shares nothing.  After the first image with a square, which the report
    names in ``first_square``, images are only collected.
    """
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    _require_verified(tp)
    words = _square_free_words(n, budget)
    forward = ["".join(t) for t in itertools.product("UV", repeat=n)]
    backward = forward[::-1]
    k = tp.k
    blocks = {(a, c): bytes(w) for c, ws in (("U", tp.u), ("V", tp.v)) for a, w in enumerate(ws)}
    block_lcp = {(p, q): _common_prefix(blocks[p], blocks[q]) for p in blocks for q in blocks}
    first_square = None
    seen = set()
    prev_steps = prev = None
    for i, x in enumerate(words):
        for ch in backward if i % 2 else forward:
            img = substitute(tp, x, ch)
            seen.add(img)
            if first_square is not None:
                continue
            b = bytes(img)
            steps = list(zip(bytes(x), ch))
            shared = 0
            if prev_steps is not None:
                # no (word, choices) repeats, so t < n
                t = _common_prefix(steps, prev_steps)
                shared = k * t + block_lcp[steps[t], prev_steps[t]]
                if b[:shared] != prev[:shared]:
                    shared = 0
            if shared == 0:
                has_square = not is_square_free(img)
            else:
                has_square = _has_square_ending_from(b, shared)
            if has_square:
                first_square = (x, ch, find_square(img))
            prev_steps, prev = steps, b
    total = len(words) * len(forward)
    return ExpansionReport(
        total=total,
        all_square_free=first_square is None,
        all_distinct=len(seen) == total,
        first_square=first_square,
    )
