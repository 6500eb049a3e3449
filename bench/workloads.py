"""Seeded inputs and checked `ternwords` command lines for the benchmark.

A workload is a list of steps that one client runs in order, each step
waiting for the previous one (a closed loop); one run of the list is a
pass.  A step is one command line plus a check of its exit code and its
standard output against values pinned in this file.  The seed picks the
inputs; every pinned value that does not depend on it is checked the same
way for every seed, which is how the benchmark asserts that the image
count, the exhaustive node counts and the pair count are seed-invariant.
"""

import hashlib
import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("count", "expand", "search")

# Every step any workload runs, in pass order; also the suffixes of the
# per-step metrics (`<step>_s`, `trace.overhead_s.<step>`).
STEPS = (
    "count",
    "pair_verify",
    "expand_verify",
    "first_hit",
    "exhaust",
    "exhaust_shards2",
    "relaxed_exhaust",
)

# The no-op invocation timed as set-up: interpreter start, `import ternwords`
# and building the argument parser, with almost no work after them.
SETUP_ARGV = ("bound", "18")
SETUP_OUTPUT = "2^(1/17) = 1.041616011\n"

COUNT_N = 42
COUNT_OUTPUT = "821154\n"  # a(42), OEIS A006156

EXPAND_N = 6
EXPAND_OUTPUT = "total=2688 squarefree=true distinct=true\n"  # 2^6 * a(6) = 64 * 42

SEARCH_K = 23
RELAXED_K = 3
FIRST_HIT_NODES = {0: 6197, 1: 5162, 2: 2028}
EXHAUST_NODES = 25360
EXHAUST_PAIRS = 6
RELAXED_NODES = 58981
# Extra prefix-scan nodes of the two-shard run on top of EXHAUST_NODES.
SHARDS2_SETUP_NODES = 50
# Leaf `verify` calls of the search and how many of them pass, as the
# traced run counts them.
LEAVES = {"exhaust": 772, "relaxed_exhaust": 15360}
LEAF_PASSES = {"exhaust": 12, "relaxed_exhaust": 0}

# sha256 of the pair listing (the output without its summary line) for
# each `--first-letter`.  The listing is a program output, so it must not
# change with speed work; the node counts above change only with pruning.
FIRST_HIT_LISTING = {
    0: "af8931c431ddb2f805d9fbd5c93cbddf0425346e42685224b74b50adb125c607",
    1: "c938946509cfe99b0c0f0058cd5d7575363ee397b75b7ecde2dc6633e327ff24",
    2: "ffd96dc4a6eae40b6bda277f14aa6d671f32b0834b029aebea01896300e5d1d3",
}
EXHAUST_LISTING = {
    0: "7d36f322f1f6ebf5f9c5bf6af278836f1f9d53c2150e96587c5c9a7eac81eac3",
    1: "87bdf811ccd4c7160e8aebc27777df584c62fd0571725ff15d2543602b7b0738",
    2: "1cedd9847e5f3dc1e862b53b5c08d7d2300f5601e763db11a0a6ed200ef7c39d",
}

# The built-in 18-Brinkhuis triple-pair in file order U0 V0 U1 V1 U2 V2;
# `ternwords pair verify` of it prints tests/data/builtin_certificate.txt.
BUILTIN_DIGITS = (
    "210201202120102012",
    "210201021202102012",
    "021012010201210120",
    "021012102010210120",
    "102120121012021201",
    "102120210121021201",
)
GOLDEN_CERTIFICATE = Path("tests") / "data" / "builtin_certificate.txt"


@dataclass(frozen=True)
class Step:
    """One command line and the check of what it printed.

    ``check(exit_code, stdout, seen)`` returns a list of problems, empty
    when the output is correct; ``seen`` maps the names of the steps run
    earlier in the same pass to their standard output.
    """

    name: str
    argv: tuple
    check: Callable


def has_square(s: str) -> bool:
    """Reference square test on a digit string, independent of the program."""
    n = len(s)
    return any(
        s[i : i + p] == s[i + p : i + 2 * p]
        for i in range(n)
        for p in range(1, (n - i) // 2 + 1)
    )


def is_triple_pair(words) -> bool:
    """Both defining conditions of a Brinkhuis triple-pair, file order U0 V0 U1 V1 U2 V2."""
    words = tuple(words)
    if len(words) != 6:
        return False
    k = len(words[0])
    if k < 2 or any(len(w) != k or set(w) - set("012") for w in words):
        return False
    blocks = (words[0:2], words[2:4], words[4:6])
    for i, j in itertools.permutations(range(3), 2):
        if any(has_square(x + y) for x in blocks[i] for y in blocks[j]):
            return False
    for r in range((k + 1) // 2, k):
        if len({w[:r] for w in words} | {w[k - r :] for w in words}) != 12:
            return False
    return True


def relabel(words, perm, swaps: int) -> tuple:
    """Apply a verdict-preserving symmetry to a pair given in file order.

    Letter a becomes perm[a] in every word, index i becomes perm[i], and
    when bit j of ``swaps`` is set the words U_j and V_j trade places.
    """
    table = str.maketrans("012", "".join(str(perm[a]) for a in range(3)))
    u = [None] * 3
    v = [None] * 3
    for i in range(3):
        j = perm[i]
        a, b = words[2 * i].translate(table), words[2 * i + 1].translate(table)
        u[j], v[j] = (b, a) if (swaps >> j) & 1 else (a, b)
    return (u[0], v[0], u[1], v[1], u[2], v[2])


def _shift(w: str, c: int) -> str:
    return "".join(str((int(a) + c) % 3) for a in w)


def expected_certificate(golden: str, words) -> str:
    """The certificate of a relabelled built-in pair: every check still
    passes, and only the two informational flags are recomputed."""
    u, v = words[0::2], words[1::2]
    sym = all(_shift(u[0], c) == u[c] and _shift(v[0], c) == v[c] for c in (1, 2))
    pal = u[0] == u[0][::-1] and v[0] == v[0][::-1]
    flags = {"SHIFTSYM": sym, "PALINDROME": pal}
    lines = []
    for line in golden.splitlines():
        key = line.split(" ", 1)[0]
        if key in flags:
            line = f"{key} {'true' if flags[key] else 'false'}"
        lines.append(line)
    return "\n".join(lines) + "\n"


_SUMMARY = re.compile(r"nodes=(\d+) found=(\d+) exhausted=(true|false)")


def parse_search_output(out: str):
    """Split `pair search` output into (listing, pairs, (nodes, found, exhausted)).

    Returns None when the output does not have the documented shape.
    """
    lines = out.splitlines()
    if not out.endswith("\n") or not lines:
        return None
    m = _SUMMARY.fullmatch(lines[-1])
    body = lines[:-1]
    if m is None or len(body) % 7:
        return None
    pairs = []
    for idx in range(len(body) // 7):
        block = body[7 * idx : 7 * idx + 7]
        if block[0] != f"# pair {idx + 1}":
            return None
        pairs.append(tuple(block[1:]))
    listing = "".join(line + "\n" for line in body)
    return listing, pairs, (int(m[1]), int(m[2]), m[3] == "true")


def exact_step(name, argv, expected_out, expected_code=0) -> Step:
    def check(code, out, seen):
        problems = []
        if code != expected_code:
            problems.append(f"exit code {code}, expected {expected_code}")
        if out != expected_out:
            problems.append(f"output {out[:200]!r}, expected {expected_out[:200]!r}")
        return problems

    return Step(name, tuple(argv), check)


def search_step(name, argv, code, nodes, found, exhausted, listing_sha=None, same_listing_as=None) -> Step:
    def check(exit_code, out, seen):
        problems = []
        if exit_code != code:
            problems.append(f"exit code {exit_code}, expected {code}")
        parsed = parse_search_output(out)
        if parsed is None:
            return problems + [f"unparsable search output {out[-200:]!r}"]
        listing, pairs, summary = parsed
        if summary != (nodes, found, exhausted):
            problems.append(f"summary {summary}, expected {(nodes, found, exhausted)}")
        if len(pairs) != summary[1]:
            problems.append(f"{len(pairs)} pairs printed, summary says found={summary[1]}")
        if len(set(pairs)) != len(pairs):
            problems.append("a pair is printed twice")
        for pair in pairs:
            if not is_triple_pair(pair):
                problems.append(f"printed pair fails the reference check: {pair}")
        digest = hashlib.sha256(listing.encode()).hexdigest()
        if listing_sha is not None and digest != listing_sha:
            problems.append(f"pair listing sha256 {digest}, expected {listing_sha}")
        if same_listing_as is not None:
            other = parse_search_output(seen.get(same_listing_as, ""))
            if other is None or other[0] != listing:
                problems.append(f"pair listing differs from step {same_listing_as}")
        return problems

    return Step(name, tuple(argv), check)


def setup_step() -> Step:
    return exact_step("setup", SETUP_ARGV, SETUP_OUTPUT)


def choices(workload: str, seed: int) -> dict:
    """The inputs the seed picks for a workload; the program sees only their effect."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "expand":
        return {"perm": rng.choice(list(itertools.permutations(range(3)))), "swaps": rng.randrange(8)}
    if workload == "search":
        return {"first_letter": rng.randrange(3)}
    return {}


def make_steps(workload: str, seed: int, root: Path, work: Path, shards: int) -> list:
    """The steps of one pass, writing any input files into ``work``.

    ``shards`` is the worker count of the sharded step; the caller keeps it
    at or below the number of usable CPUs.
    """
    picked = choices(workload, seed)
    if workload == "count":
        return [exact_step("count", ("count", str(COUNT_N)), COUNT_OUTPUT)]
    if workload == "expand":
        words = relabel(BUILTIN_DIGITS, picked["perm"], picked["swaps"])
        path = work / "pair.txt"
        path.write_text("\n".join(words) + "\n")
        golden = (root / GOLDEN_CERTIFICATE).read_text()
        return [
            exact_step("pair_verify", ("pair", "verify", str(path)), expected_certificate(golden, words)),
            exact_step("expand_verify", ("expand-verify", str(path), "--n", str(EXPAND_N)), EXPAND_OUTPUT),
        ]
    if workload == "search":
        c = picked["first_letter"]
        base = ("pair", "search", "--first-letter", str(c))
        sharded_nodes = EXHAUST_NODES + (SHARDS2_SETUP_NODES if shards == 2 else 0)
        return [
            search_step("first_hit", base + ("--k", str(SEARCH_K), "--limit", "1"),
                         0, FIRST_HIT_NODES[c], 1, False, listing_sha=FIRST_HIT_LISTING[c]),
            search_step("exhaust", base + ("--k", str(SEARCH_K)),
                         0, EXHAUST_NODES, EXHAUST_PAIRS, True, listing_sha=EXHAUST_LISTING[c]),
            search_step("exhaust_shards2", base + ("--k", str(SEARCH_K), "--shards", str(shards)),
                         0, sharded_nodes, EXHAUST_PAIRS, True, same_listing_as="exhaust"),
            search_step("relaxed_exhaust", base + ("--k", str(RELAXED_K), "--no-shift"),
                         1, RELAXED_NODES, 0, True, listing_sha=hashlib.sha256(b"").hexdigest()),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pinned_counters(workload: str, seed: int, shards: int) -> dict:
    """Per-layer counters of a traced pass that must come out exactly."""
    if workload == "count":
        return {"words.find_square.calls": 0, "triplepair.verify.calls": 0}
    if workload == "expand":
        return {"morphism.substitute.calls": 2 ** EXPAND_N * 42}
    c = choices(workload, seed)["first_letter"]
    pinned = {
        "search.nodes.first_hit": FIRST_HIT_NODES[c],
        "search.nodes.exhaust": EXHAUST_NODES,
        "search.nodes.relaxed_exhaust": RELAXED_NODES,
        "search.pairs.exhaust": EXHAUST_PAIRS,
        "search.pairs.relaxed_exhaust": 0,
    }
    for step, leaves in LEAVES.items():
        pinned[f"search.leaves.{step}"] = leaves
        pinned[f"search.leaf_pass_ratio.{step}"] = LEAF_PASSES[step] / leaves
    if shards == 2:
        pinned["search.nodes.exhaust_shards2"] = EXHAUST_NODES + SHARDS2_SETUP_NODES
        pinned["search.shards2.setup_nodes"] = SHARDS2_SETUP_NODES
    return pinned
