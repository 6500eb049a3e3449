"""Tests of the benchmark harness on small instances (a few seconds in all).

    python3 -m pytest bench/test_bench.py
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = (ROOT / workloads.GOLDEN_CERTIFICATE).read_text()


@pytest.fixture(scope="module")
def package():
    return run.load_package()


def small_search_steps():
    base = ("pair", "search", "--k", "18")
    return [
        workloads.search_step("first_hit", base + ("--limit", "1"), 0, 1139, 1, False),
        workloads.search_step("exhaust", base, 0, 4864, 2, True),
    ]


def small_steps(tmp_path):
    pair = tmp_path / "pair.txt"
    pair.write_text("\n".join(workloads.BUILTIN_DIGITS) + "\n")
    return [
        workloads.exact_step("count", ("count", "20"), "2388\n"),
        workloads.exact_step("pair_verify", ("pair", "verify", str(pair)), GOLDEN),
        workloads.exact_step("expand_verify", ("expand-verify", str(pair), "--n", "3"),
                             "total=96 squarefree=true distinct=true\n"),
        *small_search_steps(),
    ]


def traced_pass(package, steps):
    tally = run.Tally()
    with tracing.Tracer(package) as tracer:
        _, outputs = run.run_steps_in_process(package, steps, tally, tracer)
    assert tally.failed == 0, tally.problems
    return tracer, tracing.layer_metrics(tracer, [s.name for s in steps], run.pairs_found(outputs))


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_exact_counters_on_small_instances(package, tmp_path):
    steps = small_steps(tmp_path)
    _, m = traced_pass(package, steps)
    assert m["search.nodes.first_hit"] == 1139
    assert m["search.nodes.exhaust"] == 4864
    assert m["search.pairs.exhaust"] == 2
    assert m["words.count_square_free.s"] > 0
    assert m["morphism.substitute.calls"] == 96
    assert m["words.find_square.calls"] > 0


def test_two_traced_runs_count_the_same(package, tmp_path):
    steps = small_steps(tmp_path)
    first, m1 = traced_pass(package, steps)
    second, m2 = traced_pass(package, steps)
    assert list(first.name_id) == list(second.name_id)
    assert list(first.parent) == list(second.parent)
    assert list(first.value) == list(second.value)
    counts = [k for k in m1 if k.endswith((".calls", ".leaves.exhaust", ".pairs.exhaust")) or ".nodes." in k]
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}


def test_wrappers_are_removed_afterwards(package):
    modules = [package, *(getattr(package, m) for m in tracing.TRACED_MODULES)]
    before = [dict(vars(m)) for m in modules]
    original = package.words.find_square
    with tracing.Tracer(package):
        assert package.triplepair.find_square is not original
        assert package.words.find_square is package.triplepair.find_square
        assert package.cli.count_square_free is package.words.count_square_free
    after = [dict(vars(m)) for m in modules]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(a[k] is b[k] for k in b)


def test_generator_spans_cover_production_not_consumption(package):
    with tracing.Tracer(package) as tracer:
        words = list(package.morphism.enumerate_square_free(4))
    assert len(words) == 18
    spans = [i for i, n in enumerate(tracer.name_id) if tracer.names[n] == "words.enumerate_square_free"]
    assert len(spans) == 19  # one per item, one for the final StopIteration


def test_every_relabelling_keeps_the_verdict(package):
    tp = package.triplepair
    for perm, swaps in itertools.product(itertools.permutations(range(3)), range(8)):
        words = workloads.relabel(workloads.BUILTIN_DIGITS, perm, swaps)
        assert workloads.is_triple_pair(words)
        pair = tp.make_triple_pair([package.words.parse_word(w) for w in words])
        cert = tp.certificate_text(tp.verify(pair))
        assert cert == workloads.expected_certificate(GOLDEN, words), (perm, swaps)


def test_identity_relabelling_expects_the_golden_certificate():
    words = workloads.relabel(workloads.BUILTIN_DIGITS, (0, 1, 2), 0)
    assert words == workloads.BUILTIN_DIGITS
    assert workloads.expected_certificate(GOLDEN, words) == GOLDEN


def test_seed_picks_inputs_deterministically():
    assert workloads.choices("expand", 7) == workloads.choices("expand", 7)
    assert workloads.choices("count", 7) == {}
    assert {workloads.choices("search", s)["first_letter"] for s in range(30)} == {0, 1, 2}


def test_checks_reject_wrong_output(tmp_path):
    first_hit, exhaust = small_search_steps()
    assert exhaust.check(0, "nodes=4864 found=0 exhausted=true\n", {})
    listing = "# pair 1\n" + "\n".join(workloads.BUILTIN_DIGITS[:5]) + "\n0\n"
    assert first_hit.check(0, listing + "nodes=1139 found=1 exhausted=false\n", {})
    assert workloads.is_triple_pair(workloads.BUILTIN_DIGITS)
    assert not workloads.is_triple_pair(("0101",) + workloads.BUILTIN_DIGITS[1:])
    sharded = workloads.search_step("s", (), 0, 1, 0, True, same_listing_as="exhaust")
    empty = "nodes=1 found=0 exhausted=true\n"
    assert sharded.check(0, empty, {"exhaust": empty}) == []
    assert sharded.check(0, empty, {})


def test_a_hanging_invocation_is_killed_and_reported(tmp_path):
    seconds, code, out, err, _ = run.run_cli(("count", "80"), tmp_path, timeout=0.5)
    assert code is None
    assert seconds < 10
    assert run.check_output(workloads.setup_step(), code, out, err, {}) == ["timed out"]


def test_summary_reports_a_tail_only_above_the_median():
    assert run.summary([1.0, 3.0, 2.0], "s") == {"value": 2.0, "unit": "s", "samples": 3}
    tail = run.summary([float(i) for i in range(40)], "s")
    assert tail["p75"] == 29.0


def test_without_the_program_the_benchmark_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "count", "--seed", "1", "--seconds", "1"]) != 0
    assert "correct" not in capsys.readouterr().out
