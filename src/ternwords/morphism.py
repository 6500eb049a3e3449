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
words and in reverse for odd-indexed ones.  The order is kept for
``first_square``, which names the first failing image in it; no image's
test uses the image before it.  The images are tested in chunks of up to
``_CHUNK_BYTES`` letters, one batch per chunk, by ``square_lines`` of the
words module, which reads each letter column of the batch as one int and
finds every image with a square in one pass over the periods; the lowest
such image in the chunk is the first failing image, and ``find_square``
gives its witness.  The check stops at the chunk that holds it, so no
image of a later chunk is built.
"""

import itertools
import operator
from collections import namedtuple

from .words import BudgetError, Word, enumerate_square_free, find_square, square_lines
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

# verify_expansion tests the images in chunks of at most this many letters
# (one image when an image is longer).  At n = 7 (126-letter images) 2^16
# kept the tracemalloc peak near 300 KB; 2^17 ran 20% faster at twice that,
# 2^15 50% slower.
_CHUNK_BYTES = 1 << 16


class ExpansionBudgetError(BudgetError):
    """An expansion run would enumerate more images than the budget allows."""


class UnverifiedPairError(ValueError):
    """The triple-pair fails ``verify``, so its images promise nothing."""


BoundReport = namedtuple("BoundReport", "k exponent_denominator mu_lower_bound")


def lower_bound(k: int) -> BoundReport:
    """The growth-rate consequence of a k-pair: mu >= 2 ** (1 / (k - 1))."""
    k = operator.index(k)
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
    if choices.strip("UV"):
        parse_choices(choices)  # names the first bad position
    if len(choices) != len(x):
        raise ValueError(f"choice string length {len(choices)} does not match word length {len(x)}")
    u, v = tp.u, tp.v
    return Word._wrap(b"".join([(u[a] if c == "U" else v[a])._bytes for a, c in zip(bytes(x), choices)]))


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
    """The square-free words of length n.  Raises ExpansionBudgetError when
    they have more than ``budget`` images, after drawing at most
    (budget >> n) + 1 words, the first number whose images overrun."""
    # a(n) >= 1, so 2^n > budget, that is n >= budget.bit_length() for
    # budget >= 0, fails at once: a huge n builds no 2^n, enumerates nothing.
    if n >= budget.bit_length():
        raise ExpansionBudgetError(f"2^n * a(n) >= 2^{n} exceeds budget {budget}")
    words = list(itertools.islice(enumerate_square_free(n), (budget >> n) + 1))
    if len(words) << n > budget:
        raise ExpansionBudgetError(f"2^n * a(n) >= {len(words) << n} exceeds budget {budget}")
    return words


def verify_expansion(tp: TriplePair, n: int, budget: int = DEFAULT_EXPANSION_BUDGET) -> ExpansionReport:
    """Substitute every (square-free word of length n, choice string) pair.

    Reports the image count 2^n * a(n) and whether all images are
    square-free and pairwise distinct.  Raises ExpansionBudgetError before
    substituting when the image count exceeds the budget, ValueError for a
    negative n or budget, and UnverifiedPairError, a ValueError, when the
    pair itself fails verification.  Both flags true confirms the
    counting step a(n*k) >= 2^n * a(n) at this n: the images are then
    2^n * a(n) distinct square-free words of length n*k.

    No image outlives its chunk.  The images are distinct exactly when
    n == 0 or the six words are pairwise distinct (see the module
    docstring).  Each image is built by ``substitute`` in snake order, and
    each chunk of them is tested as one batch.  The check stops at the
    first chunk with a square, and the report names the first image with a
    square in ``first_square``.
    """
    if operator.index(n) < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    if operator.index(budget) < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    _require_verified(tp)
    words = _square_free_words(n, budget)
    # product over "VU" lists the choice strings in reverse product order
    order = (
        (x, "".join(t))
        for i, x in enumerate(words)
        for t in itertools.product("VU" if i % 2 else "UV", repeat=n)
    )
    width = n * tp.k
    per_chunk = max(1, _CHUNK_BYTES // (width or 1))
    first_square = None
    for chunk in iter(lambda: list(itertools.islice(order, per_chunk)), []):
        batch = b"".join([bytes(substitute(tp, x, ch)) for x, ch in chunk])
        lines = square_lines(batch, width)
        if lines:
            j = (lines & -lines).bit_length() // 2  # the lowest set bit is bit 2j
            x, ch = chunk[j]
            first_square = (x, ch, find_square(Word._wrap(batch[j * width : (j + 1) * width])))
            break
    return ExpansionReport(
        total=len(words) * 2**n,
        all_square_free=first_square is None,
        all_distinct=n == 0 or len({*tp.u, *tp.v}) == 6,
        first_square=first_square,
    )
