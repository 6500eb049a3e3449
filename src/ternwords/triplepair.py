"""Brinkhuis triple-pairs: construction, the defining checks, certificates.

A k-Brinkhuis triple-pair is six ternary words of a common length k,
arranged as [[U0, V0], [U1, V1], [U2, V2]], such that

* all 24 concatenations [U|V]_i [U|V]_j over ordered index pairs i != j
  are square-free, and
* for every r with ceil(k/2) <= r <= k-1, the 12 prefixes and suffixes of
  length r of the six words are pairwise distinct.

Substituting U_x or V_x for each letter x of a square-free word makes the
images the morphism module counts.  The two conditions are necessary for
every image to be square-free, but not sufficient: they see squares inside
two adjacent blocks only.  Pair 2 of the k=23 search with first letter 2
passes both, yet the image of 010 with choices UUU has a square of period
18 across three blocks (tests/data/unsound_k23_pair.txt).

``verify`` works out the verdict first, with the head/tail condition for
each r and then the 24 concatenations, and stops at the first check that
fails.  For the verdict, the head/tail condition at r needs only the size
of the set of 12 factors.  The Certificate it returns builds its tuples of
every individual check, from the same check code, each time they are
read.  ``certificate_text`` renders it in a fixed line-oriented format
suitable for golden-file comparison.

TriplePair, the checks and Certificate are ``collections.namedtuple``
classes: immutable, and equal and hashed as their field tuples.  The
search builds a TriplePair with ``TriplePair._wrap`` and a Certificate at
every leaf, and a namedtuple costs less to build than a frozen dataclass.

The checks read the six words once as byte strings.  For the verdict,
``verify`` tests the 12 concatenations led by a V word before the 12 led
by a U word.  At every leaf of the shift-symmetric search, each U-led one
is a letter shift of U0 . shift(U0, d) or U0 . shift(V0, d), which the
searcher has already passed, so a failing leaf fails in the first group.
The head/tail check tests each length r with one set of the 12 factors,
and looks for the first colliding pair only when two coincide.
"""

from collections import namedtuple
from collections.abc import Sequence

from .words import SHIFT_TABLES, SQUARE, ParseError, Word, find_square, parse_word

__all__ = [
    "TriplePair",
    "ConcatCheck",
    "HeadTailCheck",
    "Certificate",
    "make_triple_pair",
    "concatenation_words",
    "head_tail_range",
    "heads_and_tails",
    "verify",
    "certificate_text",
    "builtin_pair",
    "parse_pair_text",
    "read_pair_file",
    "pair_text",
]

WORD_LABELS = ("U0", "V0", "U1", "V1", "U2", "V2")

# Emission order for the 24 concatenation checks: ordered index pairs, then
# the U/V choice at each of the two slots.
CONCAT_INDEX_PAIRS = ((0, 1), (0, 2), (1, 2), (1, 0), (2, 0), (2, 1))
CONCAT_CHOICES = ("UU", "UV", "VU", "VV")

# Head/tail sources in report order: heads of U0,U1,U2,V0,V1,V2, then tails.
_HT_SOURCES = ("U0", "U1", "U2", "V0", "V1", "V2")
HEADTAIL_LABELS = tuple(f"head{s}" for s in _HT_SOURCES) + tuple(
    f"tail{s}" for s in _HT_SOURCES
)


class TriplePair(namedtuple("TriplePair", "u v")):
    """Six equal-length words, grouped as u = (U0, U1, U2) and v = (V0, V1, V2).

    Immutable, and equal and hashed as the tuple (u, v).  Every constructor
    that takes caller values, ``_replace`` included, checks the words.
    """

    __slots__ = ()

    def __new__(cls, u: tuple, v: tuple):
        tp = tuple.__new__(cls, (u, v))
        if len(u) != 3 or len(v) != 3:
            raise ValueError("a triple-pair needs exactly three U words and three V words")
        k = len(u[0])
        for label, w in zip(WORD_LABELS, tp.words_in_file_order()):
            if not isinstance(w, Word):
                raise ValueError(f"{label} is not a Word")
            if len(w) != k:
                raise ValueError(f"length mismatch: {label} has length {len(w)}, expected {k}")
        if k < 2:
            raise ValueError(f"degenerate length k={k}: a triple-pair needs k >= 2")
        return tp

    @classmethod
    def _make(cls, iterable) -> "TriplePair":
        return cls(*iterable)

    @classmethod
    def _wrap(cls, u: tuple, v: tuple) -> "TriplePair":
        # Internal constructor for words that are already valid, as the
        # search's leaves are: it skips the checks of __new__.
        return tuple.__new__(cls, (u, v))

    @property
    def k(self) -> int:
        return len(self.u[0])

    def words_in_file_order(self) -> tuple:
        """The six words in the order U0, V0, U1, V1, U2, V2."""
        return (self.u[0], self.v[0], self.u[1], self.v[1], self.u[2], self.v[2])


def make_triple_pair(words: Sequence[Word]) -> TriplePair:
    """Build a TriplePair from six words given in the order U0, V0, U1, V1, U2, V2."""
    if len(words) != 6:
        raise ValueError(f"expected 6 words, got {len(words)}")
    u0, v0, u1, v1, u2, v2 = words
    return TriplePair(u=(u0, u1, u2), v=(v0, v1, v2))


class ConcatCheck(namedtuple("ConcatCheck", "label witness")):
    """Outcome of one concatenation check; label is '<i><c1><j><c2>', e.g. '0U1V',
    and witness a SquareWitness or None."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.witness is None


class HeadTailCheck(namedtuple("HeadTailCheck", "r collision")):
    """Distinctness of the 12 heads and tails at one length r.

    On failure, collision holds the lexicographically first colliding pair
    of source labels, e.g. ('headU0', 'tailV2'); it is None on success.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.collision is None


# The 24 concatenations in emission order: the file-order slots (U0, V0,
# U1, V1, U2, V2 are 0..5) of the two halves, and their labels.
_CONCAT_PLAN = tuple(
    (2 * i + (x == "V"), 2 * j + (y == "V"))
    for i, j in CONCAT_INDEX_PAIRS
    for x, y in CONCAT_CHOICES
)
_CONCAT_LABELS = tuple(f"{i}{x}{j}{y}" for i, j in CONCAT_INDEX_PAIRS for x, y in CONCAT_CHOICES)
# The verdict's order: V-led (odd first slot) first; the module docstring says why.
_VERDICT_PLAN = tuple(p for lead in (1, 0) for p in _CONCAT_PLAN if p[0] % 2 == lead)


def concatenation_words(tp: TriplePair) -> list:
    """The 24 labelled length-2k concatenations, in the fixed emission order."""
    words = tp.words_in_file_order()
    return [(label, words[a] + words[b]) for (a, b), label in zip(_CONCAT_PLAN, _CONCAT_LABELS)]


def _letter_bytes(tp: TriplePair) -> tuple:
    """The six words in file order, as byte strings of their letters."""
    (u0, u1, u2), (v0, v1, v2) = tp.u, tp.v
    return (u0._bytes, v0._bytes, u1._bytes, v1._bytes, u2._bytes, v2._bytes)


def head_tail_range(k: int) -> range:
    """The lengths r the distinctness condition quantifies over: ceil(k/2) .. k-1."""
    return range((k + 1) // 2, k)


def heads_and_tails(tp: TriplePair, r: int) -> list:
    """The 12 words of length r: prefixes of U0,U1,U2,V0,V1,V2, then suffixes."""
    rng = head_tail_range(tp.k)
    if r not in rng:
        raise ValueError(f"r={r} outside [{rng.start}, {rng.stop - 1}] for k={tp.k}")
    return [Word._wrap(f) for f in _factors(_letter_bytes(tp), tp.k, r)]


def _factors(ws: tuple, k: int, r: int) -> tuple:
    """The 12 factors of length r of the six words' letters ``ws`` (in file
    order), in HEADTAIL_LABELS order: heads of U0,U1,U2,V0,V1,V2, then tails."""
    u0, v0, u1, v1, u2, v2 = ws
    t = k - r
    return (
        u0[:r], u1[:r], u2[:r], v0[:r], v1[:r], v2[:r],
        u0[t:], u1[t:], u2[t:], v0[t:], v1[t:], v2[t:],
    )


def _headtail_checks(ws: tuple, k: int):
    """Yield the head/tail check of each r in range, in increasing r."""
    for r in head_tail_range(k):
        items = _factors(ws, k, r)
        collision = None
        if len(set(items)) < 12:
            # the smallest a with a later equal item, then the smallest such b
            a = next(a for a in range(11) if items[a] in items[a + 1 :])
            collision = HEADTAIL_LABELS[a], HEADTAIL_LABELS[items.index(items[a], a + 1)]
        yield HeadTailCheck(r, collision)


class Certificate(namedtuple("Certificate", "k verdict letters")):
    """Full record of a verification run.

    The verdict is the conjunction of every individual check; ``verify``
    works it out first and stops at the first failing check.  ``letters``
    holds the six words' letters as byte strings, in file order.  The check
    tuples ``concat_results`` and ``headtail_results``, and the informational
    shift_symmetric and palindromic_base flags, are properties that run the
    same check code again in full each time they are read.  A certificate
    has no per-instance dict, so nothing on it can be assigned or deleted.
    """

    __slots__ = ()

    @property
    def concat_results(self) -> tuple:
        ws = self.letters
        return tuple(
            ConcatCheck(label, find_square(Word._wrap(ws[a] + ws[b])))
            for (a, b), label in zip(_CONCAT_PLAN, _CONCAT_LABELS)
        )

    @property
    def headtail_results(self) -> tuple:
        return tuple(_headtail_checks(self.letters, self.k))

    @property
    def shift_symmetric(self) -> bool:
        """Whether U1, V1, U2, V2 are U0 and V0 shifted letterwise by 1 and 2."""
        u0, v0 = self.letters[:2]
        shifts = tuple(w.translate(SHIFT_TABLES[d]) for d in (1, 2) for w in (u0, v0))
        return self.letters[2:] == shifts

    @property
    def palindromic_base(self) -> bool:
        """Whether U0 and V0 are palindromes."""
        u0, v0 = self.letters[:2]
        return u0 == u0[::-1] and v0 == v0[::-1]


def verify(tp: TriplePair) -> Certificate:
    """Evaluate both defining conditions: the head/tail condition per r,
    then the 24 concatenations, those led by a V word first, up to the
    first that fails.  The verdict needs only the size of each r's set of
    12 factors; which pair collides is worked out when
    ``headtail_results`` is read."""
    ws = _letter_bytes(tp)
    k = len(ws[0])
    distinct = all(len(set(_factors(ws, k, r))) == 12 for r in head_tail_range(k))
    ok = distinct and not any(SQUARE.search(ws[a] + ws[b]) for a, b in _VERDICT_PLAN)
    return Certificate(k, ok, ws)


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def certificate_text(cert: Certificate) -> str:
    """Render a certificate in the fixed line format (byte stable across runs)."""
    lines = [f"k={cert.k}"]
    for c in cert.concat_results:
        if c.ok:
            lines.append(f"CONCAT {c.label} PASS")
        else:
            lines.append(
                f"CONCAT {c.label} FAIL square@{c.witness.start} period={c.witness.period}"
            )
    for h in cert.headtail_results:
        if h.ok:
            lines.append(f"HEADTAIL r={h.r} PASS")
        else:
            lines.append(f"HEADTAIL r={h.r} FAIL {h.collision[0]}={h.collision[1]}")
    lines.append(f"SHIFTSYM {_bool_text(cert.shift_symmetric)}")
    lines.append(f"PALINDROME {_bool_text(cert.palindromic_base)}")
    lines.append(f"VERDICT {'PASS' if cert.verdict else 'FAIL'}")
    return "\n".join(lines) + "\n"


# The classic 18-Brinkhuis triple-pair, built in as a constant.  U1, U2, V1,
# V2 are the letterwise shifts of U0 and V0 by 1 and 2, and V0 is U0 read
# backwards.
_BUILTIN_DIGITS = (
    "210201202120102012",  # U0
    "210201021202102012",  # V0
    "021012010201210120",  # U1
    "021012102010210120",  # V1
    "102120121012021201",  # U2
    "102120210121021201",  # V2
)


def builtin_pair() -> TriplePair:
    return make_triple_pair([parse_word(t) for t in _BUILTIN_DIGITS])


def parse_pair_text(text: str) -> TriplePair:
    """Parse the six-line pair format.

    Lines starting with '#' are comments and blank lines are skipped; the
    remaining lines must be exactly six words, in the order U0, V0, U1, V1,
    U2, V2.  Whitespace inside a word line is allowed.
    """
    rows = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append(parse_word(line))
        except ParseError as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
    if len(rows) != 6:
        raise ParseError(f"expected 6 words, found {len(rows)}")
    return make_triple_pair(rows)


def read_pair_file(path) -> TriplePair:
    with open(path, encoding="utf-8") as f:
        return parse_pair_text(f.read())


def pair_text(tp: TriplePair) -> str:
    """The six words in file order, one digit string per line."""
    return "\n".join(str(w) for w in tp.words_in_file_order()) + "\n"
