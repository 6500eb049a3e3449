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

Distinctness needs no set of images.  Every block is k letters long, so an
image splits into its n blocks, and when the six words are pairwise
distinct each block names its (letter, choice): the image determines the
word and the choice string.  A pair that passes ``verify`` has six distinct
words, because their heads are distinct.  With two equal words, two images
coincide once two square-free words of length n differ in one letter only,
which holds whenever a(n) > a(n-1), as it does for every n <= 35.

``verify_expansion`` visits the images in "snake" order: the words in
enumeration order, the choice strings in product order for even-indexed
words and in reverse for odd-indexed ones.  Consecutive images then share
their leading blocks, and the check stops at the first image with a
square, so the image before the current one is square-free.  Only squares
that end past the prefix the two images share can be new, and
``square_ends_from`` of the words module looks for them, with one prepend
test per letter past it; the first image shares nothing and is tested
whole.  Product order changes the last choice most often, so about two
blocks of an image are new on average.
"""

import itertools
from collections import namedtuple

from .words import Word, enumerate_square_free, find_square, square_ends_from
from .triplepair import TriplePair, verify

__all__ = [
    "DEFAULT_EXPANSION_BUDGET",
    "ExpansionBudgetError",
    "BoundReport",
    "ExpansionReport",
    "UnverifiedPairError",
    "lower_bound",
    "parse_choices",
    "substitute",
    "verify_expansion",
]

DEFAULT_EXPANSION_BUDGET = 10_000_000


class ExpansionBudgetError(RuntimeError):
    """An expansion run would enumerate more images than the budget allows."""


class UnverifiedPairError(ValueError):
    """The triple-pair fails ``verify``, so its images promise nothing."""


BoundReport = namedtuple("BoundReport", "k exponent_denominator mu_lower_bound")


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


ExpansionReport = namedtuple(
    "ExpansionReport", "total all_square_free all_distinct first_square", defaults=(None,)
)
ExpansionReport.__doc__ = """Outcome of ``verify_expansion``.  ``first_square`` is None, or
(word, choices, witness) for the first image in visiting order that has a
square, with ``find_square``'s witness in that image."""


def _require_verified(tp: TriplePair):
    if not verify(tp).verdict:
        raise UnverifiedPairError("triple-pair fails verification; expansion needs a passing pair")


def _square_free_words(n: int, budget: int) -> list:
    """The square-free words of length n.  Raises ExpansionBudgetError as
    soon as the words drawn so far have more than ``budget`` images."""
    # a(n) >= 1, so 2^n > budget, that is n >= budget.bit_length() for
    # budget >= 0, fails at once: a huge n builds no 2^n, enumerates nothing.
    if n >= budget.bit_length():
        raise ExpansionBudgetError(f"2^n * a(n) >= 2^{n} exceeds budget {budget}")
    words = []
    for x in enumerate_square_free(n):
        words.append(x)
        if 2**n * len(words) > budget:
            raise ExpansionBudgetError(f"2^n * a(n) >= {2**n * len(words)} exceeds budget {budget}")
    return words


def _shared_prefix(a: bytes, b: bytes) -> int:
    """Length of the longest common prefix of two byte strings of one length."""
    return len(a) - ((int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).bit_length() + 7) // 8


def verify_expansion(tp: TriplePair, n: int, budget: int = DEFAULT_EXPANSION_BUDGET) -> ExpansionReport:
    """Substitute every (square-free word of length n, choice string) pair.

    Reports the image count 2^n * a(n) and whether all images are
    square-free and pairwise distinct.  Raises ExpansionBudgetError before
    substituting when the image count exceeds the budget, ValueError for a
    negative n or budget, and UnverifiedPairError, a ValueError, when the
    pair itself fails verification.  Both flags true confirms the
    counting step a(n*k) >= 2^n * a(n) at this n: the images are then
    2^n * a(n) distinct square-free words of length n*k.

    No image is kept.  The images are distinct exactly when n == 0 or the
    six words are pairwise distinct (see the module docstring).  Each image
    is built by ``substitute`` and visited in snake order; only squares
    ending after the prefix it shares with the previous image are tested,
    all of it for the first image.  The check stops at the first image with
    a square, which the report names in ``first_square``.
    """
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    _require_verified(tp)
    words = _square_free_words(n, budget)
    # product over "VU" lists the choice strings in reverse product order
    order = (
        (x, "".join(t))
        for i, x in enumerate(words)
        for t in itertools.product("VU" if i % 2 else "UV", repeat=n)
    )
    first_square = prev = None
    for x, ch in order:
        img = substitute(tp, x, ch)
        b = bytes(img)
        if square_ends_from(b, 0 if prev is None else _shared_prefix(b, prev)):
            first_square = (x, ch, find_square(img))
            break
        prev = b
    return ExpansionReport(
        total=len(words) * 2**n,
        all_square_free=first_square is None,
        all_distinct=n == 0 or len({*tp.u, *tp.v}) == 6,
        first_square=first_square,
    )
