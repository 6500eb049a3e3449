#!/usr/bin/env python3
"""Benchmark of the ternwords command line, with checked outputs.

    python3 bench/run.py --workload {count,expand,search,all} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs installing.  With
``--trace 0`` every step runs as ``python3 -m ternwords ...`` in its own
process, one pass after another for about ``--seconds`` seconds, and the
end-to-end metrics are medians over the passes.  With ``--trace 1`` the
same steps run once untraced and once traced inside this process, and
the per-layer metrics come from the spans (see tracing.py).

Every invocation's exit code and output are checked.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
same metrics for a reader, with units, sample counts and the machine.  A
record with the raw samples goes to ``bench/out/``.  See bench/README.md
for the workloads and for what each metric should move.
"""

import argparse
import contextlib
import io
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# Printed with the end-to-end metrics, as is failed_frac, but left out of
# the JSON line: each exists on one workload only, and failed_frac is 0 on
# a correct program, so neither can carry a relative bound.
STEP_METRICS = tuple((f"{step}_s", "s") for step in workloads.STEPS)

PER_LAYER = (
    ("words.find_square.calls", "count"),
    ("words.find_square.self_s", "s"),
    *((f"words.find_square.us.len{n}", "us") for n in tracing.SQUARE_LENGTHS),
    ("words.count_square_free.s", "s"),
    ("words.count_square_free.words_per_s", "1/s"),
    ("triplepair.verify.calls", "count"),
    ("triplepair.verify.self_s", "s"),
    ("triplepair.verify.pass_ratio", "ratio"),
    *((f"search.nodes.{step}", "count") for step in tracing.SEARCH_STEPS),
    *((f"search.leaves.{step}", "count") for step in tracing.LEAF_STEPS),
    *((f"search.pairs.{step}", "count") for step in tracing.LEAF_STEPS),
    *((f"search.leaf_pass_ratio.{step}", "ratio") for step in tracing.LEAF_STEPS),
    ("search.self_s", "s"),
    ("search.us_per_node", "us"),
    ("search.canonicalize.s", "s"),
    ("search.shards2.setup_nodes", "count"),
    ("search.shards2.speedup", "ratio"),
    ("morphism.substitute.calls", "count"),
    ("morphism.substitute.s", "s"),
    ("morphism.verify_expansion.self_s", "s"),
    ("morphism.images_per_s", "1/s"),
    ("cli.import_s", "s"),
    *((f"trace.overhead_s.{step}", "s") for step in workloads.STEPS),
)

IMPORT_RUNS = 7  # fresh interpreters per traced run; cli.import_s is their median
CHILD_TIMEOUT_S = 60.0  # one invocation; the slowest takes about 4 s
RUN_DEADLINE_S = 150.0  # the whole run, so that it ends well inside 180 s


class Tally:
    """Checked invocations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, name, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{name}: {p}" for p in problems)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_cli(argv, work: Path, timeout: float):
    """Run ``python3 -m ternwords argv`` in its own process group.

    Returns (seconds, exit code or None on timeout, stdout, stderr, peak RSS
    in KiB of the process and the workers it waited for).  A process that
    outlives ``timeout`` is killed, and so is any worker left behind.
    """
    with open(work / "stdout", "w+b") as out, open(work / "stderr", "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ternwords", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            cwd=work, env=child_env(), start_new_session=True,
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], max(timeout, 0.0))
            if not ready:
                os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - t0
        finally:
            os.close(pidfd)
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    return seconds, (proc.returncode if ready else None), stdout, stderr, usage.ru_maxrss


def _kill_group(pgid: int, limit_s: float = 5.0):
    """Kill what is left of a process group, then wait until it is empty,
    for at most ``limit_s``; members that are not our children cannot be
    reaped here, only seen to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def check_output(step, code, out, err, seen) -> list:
    if code is None:
        return ["timed out"]
    problems = step.check(code, out, seen)
    if err:
        problems.append(f"wrote to stderr: {err[:200]!r}")
    return problems


def summary(samples, unit) -> dict:
    """Median, sample count, and the highest percentile with at least ten
    samples above it; that percentile is left out below 21 samples, where
    it would not lie above the median."""
    s = sorted(samples)
    out = {"value": statistics.median(s), "unit": unit, "samples": len(s)}
    if len(s) >= 21:
        out[f"p{math.floor(100 * (len(s) - 10) / len(s))}"] = s[len(s) - 11]
    return out


def measure_cli(workload, seed, seconds, shards, work, deadline, tally) -> dict:
    """Untraced run: whole passes for about ``seconds``.

    A no-op invocation follows every step, so that the set-up samples
    spread over the same stretch of time as the passes.
    """
    steps = workloads.make_steps(workload, seed, ROOT, work, shards)
    setup = workloads.setup_step()

    def invoke(step, seen):
        timeout = min(CHILD_TIMEOUT_S, deadline - time.monotonic())
        secs, code, out, err, rss = run_cli(step.argv, work, timeout)
        tally.add(step.name, check_output(step, code, out, err, seen))
        seen[step.name] = out
        return secs, rss

    invoke(setup, {})  # untimed: fills the bytecode cache
    walls, setup_s, rss_mb, step_s = [], [], [], {s.name: [] for s in steps}
    begin = time.monotonic()
    while True:
        seen, wall, peak = {}, 0.0, 0
        for step in steps:
            secs, rss = invoke(step, seen)
            step_s[step.name].append(secs)
            wall += secs
            peak = max(peak, rss)
            setup_s.append(invoke(setup, {})[0])
        walls.append(wall)
        rss_mb.append(peak / 1024)
        now = time.monotonic()
        if now - begin + statistics.median(walls) > seconds or now > deadline:
            break
    return {
        "wall_s": walls,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        **{f"{name}_s": v for name, v in step_s.items()},
    }


def run_in_process(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except Exception:  # a crash is a failed invocation, as in a subprocess
            traceback.print_exc()
            code = -1
    return code, out.getvalue(), err.getvalue()


def import_seconds(work) -> list:
    """Time of ``import ternwords`` in fresh interpreters."""
    code = "import time; t = time.perf_counter(); import ternwords; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_RUNS):
        res = subprocess.run(
            [sys.executable, "-c", code], cwd=work, env=child_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        times.append(float(res.stdout))
    return times


def load_package():
    """Import ternwords from this checkout's src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import ternwords
    import ternwords.cli  # noqa: F401  (the package does not import its CLI)

    if Path(ternwords.__file__).resolve().parent != SRC / "ternwords":
        raise RuntimeError(f"imported ternwords from {ternwords.__file__}, not from {SRC}")
    return ternwords


def run_steps_in_process(package, steps, tally, tracer=None):
    """Run each step through ``ternwords.cli.main`` in this process and check it.

    Returns the seconds and the standard output of each step by name.  With
    a tracer, its step id follows the step being run.
    """
    seconds, seen = {}, {}
    for sid, step in enumerate(steps):
        if tracer is not None:
            tracer.step = sid
        t0 = time.perf_counter()
        code, out, err = run_in_process(package.cli.main, step.argv)
        seconds[step.name] = time.perf_counter() - t0
        tally.add(step.name, check_output(step, code, out, err, seen))
        seen[step.name] = out
    return seconds, seen


def pairs_found(outputs) -> dict:
    """The pair count each search step printed."""
    found = {}
    for name, out in outputs.items():
        parsed = workloads.parse_search_output(out)
        if parsed is not None:
            found[name] = parsed[2][1]
    return found


def measure_traced(workload, seed, shards, work, tally, spans_path) -> dict:
    """One untraced and one traced in-process pass; per-layer metrics from the spans."""
    package = load_package()
    steps = workloads.make_steps(workload, seed, ROOT, work, shards)
    untraced, _ = run_steps_in_process(package, steps, tally)
    with tracing.Tracer(package) as tracer:
        traced, outputs = run_steps_in_process(package, steps, tally, tracer)
    metrics = tracing.layer_metrics(tracer, [s.name for s in steps], pairs_found(outputs))
    tracer.write_spans(spans_path)
    metrics["search.shards2.speedup"] = (
        untraced["exhaust"] / untraced["exhaust_shards2"] if "exhaust_shards2" in untraced else 0.0
    )
    metrics["cli.import_s"] = statistics.median(import_seconds(work))
    for name in workloads.STEPS:
        metrics[f"trace.overhead_s.{name}"] = traced.get(name, 0.0) - untraced.get(name, 0.0)
    for name, expected in workloads.pinned_counters(workload, seed, shards).items():
        wrong = metrics[name] != expected
        tally.add(f"counter {name}", [f"{metrics[name]}, expected {expected}"] if wrong else [])
    return metrics


def machine(seed) -> dict:
    cpu = platform.machine() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "commit": commit(),
        "seed": seed,
    }


def commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload, args, shards, work) -> dict:
    tally = Tally()
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.trace:
        raw = measure_traced(workload, args.seed, shards, work, tally,
                             OUT_DIR / f"spans-{workload}.tsv.gz")
        metrics = {name: {"value": raw[name], "unit": unit} for name, unit in PER_LAYER}
        samples = {}
    else:
        samples = measure_cli(workload, args.seed, args.seconds, shards, work, deadline, tally)
        metrics = {}
        for name, unit in END_TO_END + STEP_METRICS:
            if samples.get(name):
                metrics[name] = summary(samples[name], unit)
        metrics["failed_frac"] = {"value": tally.failed / tally.attempted, "unit": "ratio",
                                  "samples": tally.attempted}
    return {
        "workload": workload,
        "inputs": {**workloads.choices(workload, args.seed), "shards": shards},
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": metrics,
        "samples": samples,
    }


def report(record, env):
    print(f"workload={record['workload']} seed={env['seed']} inputs={json.dumps(record['inputs'])} "
          f"correct={record['correct']} attempted={record['attempted']} failed={record['failed']}")
    for name, m in record["metrics"].items():
        tail = " ".join(f"{k}={v:.6g}" for k, v in m.items() if k.startswith("p"))
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<6} n={m.get('samples', 1)} {tail}".rstrip())
    for problem in record["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for needed in (SRC / "ternwords" / "__init__.py", ROOT / workloads.GOLDEN_CERTIFICATE):
        if not needed.is_file():
            print(f"error: {needed} not found; run from a ternwords source checkout", file=sys.stderr)
            return 2

    env = machine(args.seed)
    shards = min(2, env["nproc"])  # never more workers than usable CPUs
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        records = [run_workload(name, args, shards, work) for name in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"machine nproc={env['nproc']} python={env['python']} cpu={env['cpu']!r} "
          f"loadavg={env['loadavg']} commit={env['commit']} trace={args.trace} seconds={args.seconds}")
    for record in records:
        report(record, env)
        path = OUT_DIR / f"record-{record['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"machine": env, "seconds": args.seconds, "trace": args.trace, **record},
                                   indent=1) + "\n")

    wanted = PER_LAYER if args.trace else END_TO_END
    if len(records) == 1:
        metrics = {name: {"value": records[0]["metrics"][name]["value"], "unit": unit}
                   for name, unit in wanted}
    else:
        metrics = {f"{r['workload']}.{name}": {"value": m["value"], "unit": m["unit"]}
                   for r in records for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
