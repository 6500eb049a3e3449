"""Expanding square-free words through a triple-pair, and the growth bound.

``substitute`` replaces each letter x of a word by the block U_x or V_x of
a triple-pair, with a choice string over 'U'/'V' selecting the block per
position.  For a pair whose certificate passes, every image of a square-free
word is square-free and distinct inputs give distinct images, so the 2^n
images of the a(n) square-free words of length n witness
a(n*k) >= 2^n * a(n), and with it mu >= 2^(1/(k-1)) for the growth rate
mu = lim a(n)^(1/n).  ``verify_expansion`` checks the square-free and
distinctness claims exhaustively at small n; ``lower_bound`` computes the
exponent and the numeric bound.
"""

import itertools
from dataclasses import dataclass

from .words import Word, count_square_free, enumerate_square_free, is_square_free
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

    Total for any input word; square-freeness of the result is only
    guaranteed for verified pairs and square-free inputs.
    """
    ch = parse_choices(choices)
    if len(ch) != len(x):
        raise ValueError(f"choice string length {len(ch)} does not match word length {len(x)}")
    u, v = [bytes(w) for w in tp.u], [bytes(w) for w in tp.v]
    return Word._wrap(b"".join(u[a] if c == "U" else v[a] for a, c in zip(bytes(x), ch)))


@dataclass(frozen=True)
class ExpansionReport:
    total: int
    all_square_free: bool
    all_distinct: bool


def _require_verified(tp: TriplePair):
    if not verify(tp).verdict:
        raise ValueError("triple-pair fails verification; expansion guarantees need a passing pair")


def _check_budget(n: int, budget: int) -> int:
    # a(n) >= 1, so 2^n alone can exceed the budget; that test is instant,
    # while counting a(n) takes time exponential in n.
    if 2**n > budget:
        raise ExpansionBudgetError(f"2^n * a(n) >= 2^n = {2**n} exceeds budget {budget}")
    total = (2**n) * count_square_free(n)
    if total > budget:
        raise ExpansionBudgetError(f"2^n * a(n) = {total} exceeds budget {budget}")
    return total


def _all_images(tp: TriplePair, n: int):
    choice_strings = ["".join(t) for t in itertools.product("UV", repeat=n)]
    for x in enumerate_square_free(n):
        for ch in choice_strings:
            yield substitute(tp, x, ch)


def verify_expansion(tp: TriplePair, n: int, budget: int = DEFAULT_EXPANSION_BUDGET) -> ExpansionReport:
    """Substitute every (square-free word of length n, choice string) pair.

    Reports the image count 2^n * a(n) and whether all images are
    square-free and pairwise distinct.  Raises ExpansionBudgetError before
    enumerating when the image count exceeds the budget, and ValueError
    when the pair itself fails verification.  Both flags true confirms the
    counting step a(n*k) >= 2^n * a(n) at this n: the images are then
    2^n * a(n) distinct square-free words of length n*k.
    """
    if n < 0:
        raise ValueError(f"length must be >= 0, got {n}")
    _require_verified(tp)
    total = _check_budget(n, budget)
    all_sf = True
    seen = set()
    produced = 0
    for img in _all_images(tp, n):
        produced += 1
        if all_sf and not is_square_free(img):
            all_sf = False
        seen.add(img)
    assert produced == total
    return ExpansionReport(total=total, all_square_free=all_sf, all_distinct=len(seen) == total)

