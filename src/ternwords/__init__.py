"""Ternary square-free words, Brinkhuis triple-pairs, and growth bounds.

``_PUBLIC`` below is the one list of public names: a row per module, in
its ``__all__`` order, and each module takes its ``__all__`` from its row.
The names of ``words`` are bound at import.  Those of ``triplepair``,
``morphism`` and ``search`` are looked up by ``__getattr__`` (PEP 562),
which imports their module on first use, so ``import ternwords`` and a
command that needs ``words`` alone compile nothing else.
"""

_PUBLIC = {
    "words": (
        "ALPHABET", "BudgetError", "CountBudgetError", "DEFAULT_COUNT_BUDGET", "ParseError",
        "SquareWitness", "Word", "parse_word", "find_square", "is_square_free",
        "ends_with_square", "shift", "reverse", "count_square_free", "enumerate_square_free",
    ),
    "triplepair": (
        "TriplePair", "ConcatCheck", "HeadTailCheck", "Certificate", "make_triple_pair",
        "concatenation_words", "head_tail_range", "heads_and_tails", "verify",
        "certificate_text", "builtin_pair", "parse_pair_text", "read_pair_file", "pair_text",
    ),
    "morphism": (
        "DEFAULT_EXPANSION_BUDGET", "ExpansionBudgetError", "BoundReport", "ExpansionReport",
        "UnverifiedPairError", "lower_bound", "parse_choices", "substitute", "verify_expansion",
    ),
    "search": ("SearchConfig", "SearchOutcome", "find_pairs", "prune_check", "canonicalize"),
}

from . import words  # noqa: E402
from .words import *  # noqa: E402,F401,F403

__version__ = "0.1.0"

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = name if name in _PUBLIC else _HOME.get(name)
    if module is None:
        # at once, with no import: ``from . import _pool`` and ``hasattr``
        # ask for names that are not here
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)
