"""Command line interface.

Exit codes, shared by every command:
  0  success, or a passing verdict
  1  failing verdict, a square found, or a search that exhausted its space
     without a result
  2  usage or parse errors
  3  budget exhausted without a result

Successful runs write nothing to the error stream.
"""

import argparse
import sys

from .words import CountBudgetError, ParseError, count_square_free, find_square, parse_word
from .words import DEFAULT_COUNT_BUDGET
from .triplepair import (
    _bool_text,
    builtin_pair,
    certificate_text,
    pair_text,
    parse_pair_text,
    read_pair_file,
    verify,
)
from .morphism import (
    DEFAULT_EXPANSION_BUDGET,
    ExpansionBudgetError,
    lower_bound,
    substitute,
    verify_expansion,
)
from .search import SearchConfig, find_pairs

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _load_pair(path: str):
    if path == "-":
        return parse_pair_text(sys.stdin.read())
    return read_pair_file(path)


def _cmd_count(args) -> int:
    if args.n < 0:
        return _fail("n must be >= 0")
    try:
        total = count_square_free(args.n, node_budget=args.nodes)
    except ValueError as exc:
        return _fail(str(exc))
    except CountBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    print(total)
    return EXIT_OK


def _cmd_check(args) -> int:
    try:
        w = parse_word(args.word)
    except ParseError as exc:
        return _fail(str(exc))
    witness = find_square(w)
    if witness is None:
        print("SQUAREFREE")
        return EXIT_OK
    print(f"SQUARE start={witness.start} period={witness.period}")
    return EXIT_FAIL


def _cmd_bound(args) -> int:
    if args.k < 2:
        return _fail("k must be >= 2")
    report = lower_bound(args.k)
    print(f"2^(1/{report.exponent_denominator}) = {report.mu_lower_bound:.10g}")
    return EXIT_OK


def _cmd_pair_verify(args) -> int:
    try:
        tp = _load_pair(args.path)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    cert = verify(tp)
    sys.stdout.write(certificate_text(cert))
    return EXIT_OK if cert.verdict else EXIT_FAIL


def _cmd_pair_show_builtin(_args) -> int:
    sys.stdout.write(pair_text(builtin_pair()))
    return EXIT_OK


def _cmd_pair_search(args) -> int:
    first = None if args.first_letter == "none" else int(args.first_letter)
    try:
        config = SearchConfig(
            k=args.k,
            shift_symmetry=not args.no_shift,
            palindrome_constraint=args.palindrome,
            first_letter=first,
            max_results=args.limit,
            node_budget=args.nodes,
            parallel_shards=args.shards,
            canonical=not args.raw,
        )
    except ValueError as exc:
        return _fail(str(exc))
    outcome = find_pairs(config)
    for idx, pair in enumerate(outcome.pairs_found, start=1):
        sys.stdout.write(f"# pair {idx}\n")
        sys.stdout.write(pair_text(pair))
    found = len(outcome.pairs_found)
    print(
        f"nodes={outcome.nodes_expanded} found={found} "
        f"exhausted={_bool_text(outcome.exhausted)}"
    )
    if found > 0:
        return EXIT_OK
    return EXIT_FAIL if outcome.exhausted else EXIT_BUDGET


def _cmd_expand(args) -> int:
    try:
        tp = _load_pair(args.path)
        word = parse_word(args.word)
        image = substitute(tp, word, args.choices)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    print(image)
    return EXIT_OK


def _cmd_expand_verify(args) -> int:
    try:
        tp = _load_pair(args.path)
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if args.n < 0:
        return _fail("n must be >= 0")
    if not verify(tp).verdict:
        print("error: pair fails verification", file=sys.stderr)
        return EXIT_FAIL
    try:
        report = verify_expansion(tp, args.n, budget=args.budget)
    except ExpansionBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    print(
        f"total={report.total} "
        f"squarefree={_bool_text(report.all_square_free)} "
        f"distinct={_bool_text(report.all_distinct)}"
    )
    if report.first_square is not None:
        word, choices, sq = report.first_square
        print(f"first_square word={word} choices={choices} start={sq.start} period={sq.period}")
    return EXIT_OK if report.all_square_free and report.all_distinct else EXIT_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ternwords",
        description="Ternary square-free words and Brinkhuis triple-pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of square-free words of length n")
    p.add_argument("n", type=int)
    p.add_argument("--nodes", type=int, default=DEFAULT_COUNT_BUDGET, help="prefix visit budget")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("check", help="test a word for squares")
    p.add_argument("word")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("bound", help="growth-rate lower bound from a k-pair")
    p.add_argument("k", type=int)
    p.set_defaults(func=_cmd_bound)

    pair = sub.add_parser("pair", help="triple-pair operations")
    pair_sub = pair.add_subparsers(dest="pair_command", required=True)

    p = pair_sub.add_parser("verify", help="verify a pair file ('-' reads stdin)")
    p.add_argument("path")
    p.set_defaults(func=_cmd_pair_verify)

    p = pair_sub.add_parser("show-builtin", help="print the built-in 18-pair")
    p.set_defaults(func=_cmd_pair_show_builtin)

    p = pair_sub.add_parser("search", help="search for pairs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--no-shift", action="store_true", help="drop the shift symmetry")
    p.add_argument("--palindrome", action="store_true", help="restrict U0, V0 to palindromes")
    p.add_argument(
        "--first-letter", choices=("0", "1", "2", "none"), default="2",
        help="pin U0[0] (default 2; 'none' leaves it free)",
    )
    p.add_argument("--limit", type=int, default=None, help="stop after this many pairs")
    p.add_argument("--nodes", type=int, default=None, help="letter placement budget")
    p.add_argument("--shards", type=int, default=1, help="parallel worker count")
    p.add_argument("--raw", action="store_true", help="emit raw solutions, not canonical forms")
    p.set_defaults(func=_cmd_pair_search)

    p = sub.add_parser("expand", help="substitute a word through a pair")
    p.add_argument("path")
    p.add_argument("--word", required=True)
    p.add_argument("--choices", required=True)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("expand-verify", help="check all images at length n")
    p.add_argument("path")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_EXPANSION_BUDGET)
    p.set_defaults(func=_cmd_expand_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
