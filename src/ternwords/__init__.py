"""Ternary square-free words, Brinkhuis triple-pairs, and growth bounds."""

from . import morphism, search, triplepair, words
from .words import *  # noqa: F401,F403
from .triplepair import *  # noqa: F401,F403
from .morphism import *  # noqa: F401,F403
from .search import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*words.__all__, *triplepair.__all__, *morphism.__all__, *search.__all__, "__version__"]
