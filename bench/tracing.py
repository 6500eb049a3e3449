"""In-process spans around the public functions of the ternwords modules.

`Tracer` replaces every public function of `cli`, `words`, `triplepair`,
`morphism` and `search` with a timing wrapper, at every module attribute
that refers to it, because that attribute is what callers look up: a call
of `find_square` from `triplepair.check_concatenations` goes through
`ternwords.triplepair.find_square`, one from `words.is_square_free`
through `ternwords.words.find_square`.  Leaving the `with` block puts the
original functions back.  No source file is changed.

Each call is a span (name, start, end, parent span, step id) kept in
flat arrays in memory and written out by `write_spans` at the end.  A
generator function gets one span per resumption, so its spans cover the
time spent producing items and not the consumer's work between them.

Only the process that installed the wrappers records spans.  The sharded
search forks worker processes that inherit the wrappers; there they call
straight through, so the trace of a sharded step covers the parent process
(prefix scan, pool management, merge) and not the shard searches.
"""

import functools
import gzip
import inspect
import os
import time
from array import array

TRACED_MODULES = ("cli", "words", "triplepair", "morphism", "search")

# Integer summaries of a result, kept per span where a metric needs them.
_RESULT_VALUES = {
    "words.find_square": lambda r: int(r is None),
    "words.count_square_free": int,
    "triplepair.verify": lambda r: int(r.verdict),
    "search.find_pairs": lambda r: r.nodes_expanded,
}


def _public_functions(module):
    short = module.__name__.rsplit(".", 1)[-1]
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        fn = getattr(module, name)
        if inspect.isfunction(fn) and fn.__module__ == module.__name__:
            yield f"{short}.{name}", fn


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self, package):
        self.package = package
        self.modules = [getattr(package, m) for m in TRACED_MODULES]
        self.names = []
        self.step = 0
        self.name_id = array("i")
        self.parent = array("i")
        self.step_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.arg_len = array("i")  # length of a Word first argument, else -1
        self.value = array("q")
        self._stack = [-1]
        self._restore = []
        self._word_type = package.words.Word
        self._pid = os.getpid()
        self._t0 = time.perf_counter()

    def __enter__(self):
        wrappers = {}
        for module in self.modules:
            for qualname, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(fn, qualname))
        for module in [self.package, *self.modules]:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()
        return False

    def _open(self, nid: int, first_arg) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.step_id.append(self.step)
        self.arg_len.append(len(first_arg) if type(first_arg) is self._word_type else -1)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter() - self._t0)
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter() - self._t0
        self._stack.pop()

    def _wrap(self, fn, qualname: str):
        nid = len(self.names)
        self.names.append(qualname)
        summarize = _RESULT_VALUES.get(qualname)
        pid = self._pid
        getpid = os.getpid
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if getpid() != pid:
                    return (yield from fn(*args, **kwargs))
                it = fn(*args, **kwargs)
                first = args[0] if args else None
                try:
                    while True:
                        idx = tracer._open(nid, first)
                        try:
                            item = next(it)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            tracer._close(idx)
                        yield item
                finally:
                    it.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getpid() != pid:
                return fn(*args, **kwargs)
            idx = tracer._open(nid, args[0] if args else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if summarize is not None:
                tracer.value[idx] = summarize(result)
            return result

        return traced

    def write_spans(self, path):
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tstep\tparent\tstart_s\tend_s\targ_len\tvalue\n")
            for i in range(len(self.name_id)):
                f.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.step_id[i]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.arg_len[i]}\t{self.value[i]}\n"
                )


def span_table(tracer):
    """Per-span duration, wrapped-children time and find_square descendant time."""
    n = len(tracer.name_id)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    child = [0.0] * n
    square = [0.0] * n
    fs = tracer.names.index("words.find_square")
    # Children open after their parent, so a reverse sweep sees every
    # span's subtree complete before passing its totals up.
    for i in range(n - 1, -1, -1):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
            square[p] += dur[i] if tracer.name_id[i] == fs else square[i]
    return dur, child, square


SEARCH_STEPS = ("first_hit", "exhaust", "exhaust_shards2", "relaxed_exhaust")
SINGLE_PROCESS_SEARCH_STEPS = ("first_hit", "exhaust", "relaxed_exhaust")
LEAF_STEPS = ("exhaust", "relaxed_exhaust")
SQUARE_LENGTHS = (6, 46, 108)


def layer_metrics(tracer, step_names, found) -> dict:
    """Per-layer metrics from the spans of one traced pass.

    ``step_names[i]`` names the step whose spans carry step id i, and
    ``found[name]`` is the number of pairs that search step printed.
    Layers a workload does not reach report 0.
    """
    dur, child, square = span_table(tracer)
    names = tracer.names
    spans = {}
    for i, nid in enumerate(tracer.name_id):
        spans.setdefault(names[nid], []).append(i)
    step_id = {name: i for i, name in enumerate(step_names)}

    def of(qualname, step=None):
        idx = spans.get(qualname, [])
        if step is None:
            return idx
        sid = step_id.get(step)
        return [i for i in idx if tracer.step_id[i] == sid]

    def total(idx):
        return sum(dur[i] for i in idx)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    fs = of("words.find_square")
    m["words.find_square.calls"] = len(fs)
    m["words.find_square.self_s"] = sum(dur[i] - child[i] for i in fs)
    for length in SQUARE_LENGTHS:
        sized = [i for i in fs if tracer.arg_len[i] == length]
        m[f"words.find_square.us.len{length}"] = 1e6 * ratio(total(sized), len(sized))

    csf = of("words.count_square_free")
    m["words.count_square_free.s"] = total(csf)
    m["words.count_square_free.words_per_s"] = ratio(sum(tracer.value[i] for i in csf), total(csf))

    ver = of("triplepair.verify")
    m["triplepair.verify.calls"] = len(ver)
    m["triplepair.verify.self_s"] = sum(dur[i] - square[i] for i in ver)
    m["triplepair.verify.pass_ratio"] = ratio(sum(tracer.value[i] for i in ver), len(ver))

    fp_name = "search.find_pairs"
    fp_id = names.index(fp_name)
    nodes = {}
    for step in SEARCH_STEPS:
        nodes[step] = sum(tracer.value[i] for i in of(fp_name, step))
        m[f"search.nodes.{step}"] = nodes[step]
    for step in LEAF_STEPS:
        # Leaves are the verify calls the search makes itself; with
        # canonical output it verifies each emitted pair once more.
        mine = [
            i for i in of("triplepair.verify", step)
            if tracer.parent[i] >= 0 and tracer.name_id[tracer.parent[i]] == fp_id
        ]
        pairs = found.get(step, 0)
        leaves = len(mine) - pairs
        passed = sum(tracer.value[i] for i in mine) - pairs
        m[f"search.leaves.{step}"] = leaves
        m[f"search.pairs.{step}"] = pairs
        m[f"search.leaf_pass_ratio.{step}"] = ratio(passed, leaves)
    single = [i for step in SINGLE_PROCESS_SEARCH_STEPS for i in of(fp_name, step)]
    m["search.self_s"] = sum(dur[i] - child[i] for i in single)
    single_nodes = sum(nodes[s] for s in SINGLE_PROCESS_SEARCH_STEPS)
    m["search.us_per_node"] = 1e6 * ratio(m["search.self_s"], single_nodes)
    m["search.canonicalize.s"] = total(of("search.canonicalize"))
    both = "exhaust" in step_id and "exhaust_shards2" in step_id
    m["search.shards2.setup_nodes"] = nodes["exhaust_shards2"] - nodes["exhaust"] if both else 0

    sub = of("morphism.substitute")
    ve = of("morphism.verify_expansion")
    m["morphism.substitute.calls"] = len(sub)
    m["morphism.substitute.s"] = total(sub)
    m["morphism.verify_expansion.self_s"] = sum(dur[i] - child[i] for i in ve)
    m["morphism.images_per_s"] = ratio(len(sub), total(ve))
    return m
