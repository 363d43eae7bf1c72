"""Span recorder for the traced benchmark run.

The recorder wraps, from outside the program, the public functions the
CLI calls into each layer of tmcf; nothing under ``src/`` knows about it.
Each name is wrapped where its caller looks it up:

* ``cli`` calls ``tm.x``, ``analysis.x``, ``cf.x`` and ``prefix_cache.x``
  as module attributes, so the CLI's module globals are replaced by views
  that hold the wrapped functions.  A view leaves the module itself alone,
  so ``tm``'s own use of ``digit_sum_stream`` (inside the digit-sum prefix)
  is not mistaken for the CLI's streaming.
* ``analysis`` imported ``tm_digit_sum`` and uses ``SuffixAutomaton`` by
  name, so those are replaced in ``analysis``'s namespace.
* ``TmSequence.prefix`` and ``Writer.emit`` are methods, so they are
  replaced on the class.

Calls made once or a few times per run get a full span: name, start, end,
parent, and ``ru_maxrss`` at both ends.  Calls made per term or per record
(the term streams, ``Writer.emit``, ``tm_digit_sum``,
``check_lemma_recursion``) would cost more to record one by one than the
work they time, so they are accumulated per (name, parent span) as total
time and call count.  Everything stays in memory and is written out once,
after the run.
"""
from __future__ import annotations

import os
import resource
import time
from collections import Counter

clock = time.perf_counter_ns

# Span or accumulated-call name -> the per-layer self-time metric it feeds.
# Every name the recorder uses is here, so the self times partition the
# cli.main span exactly.
SELF_TIME = {
    "cli.main": "cli.self_s",
    "cli.writer": "cli.writer_s",
    "tm.digit_sum_prefix": "tm.digit_sum_prefix_s",
    "tm.morphic_prefix": "tm.morphic_prefix_s",
    "tm.stream": "tm.stream_s",
    "tm.digit_sum": "tm.digit_sum_s",
    "tm.lemma_recursion": "tm.lemma_recursion_s",
    "tm.congruences": "tm.congruences_s",
    "tm.triple_repeat": "tm.triple_repeat_s",
    "tm.first_mismatch": "tm.first_mismatch_s",
    "prefix_cache.load": "prefix_cache.load_s",
    "prefix_cache.store": "prefix_cache.store_s",
    "analysis.complexity": "analysis.complexity_s",
    "analysis.palindrome": "analysis.palindrome_s",
    "analysis.period": "analysis.period_s",
    "analysis.pattern": "analysis.pattern_s",
    "analysis.predicted_011": "analysis.predicted_011_s",
    "cf.evaluate": "cf.evaluate_s",
    "cf.convergents": "cf.convergents_s",
}

# Call counts derived from the spans: span name -> metric.
CALLS = {
    "tm.lemma_recursion": "tm.lemma_recursion_calls",
    "tm.digit_sum": "tm.digit_sum_calls",
    "cf.evaluate": "cf.evaluate_calls",
    "cli.writer": "cli.records_emitted",
}

# Counts the wrappers add up while the run goes.
COUNTED = (
    "tm.terms_generated",
    "prefix_cache.hits",
    "prefix_cache.misses",
    "prefix_cache.bytes_read",
    "prefix_cache.bytes_written",
    "analysis.sam_states",
    "cf.terms_used",
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """Keeps spans, accumulated calls and counts of one traced run."""

    def __init__(self) -> None:
        # [name, start_ns, end_ns, parent_index, maxrss_kb_start, maxrss_kb_end]
        self.spans: list[list] = []
        # (name, parent_index) -> [total_ns, calls]
        self.leaves: dict[tuple[str, int], list[int]] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        record = [name, 0, 0, self._stack[-1] if self._stack else -1, _maxrss_kb(), 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = clock()
            self._stack.pop()
            record[5] = _maxrss_kb()

    def _add_leaf(self, name: str, ns: int) -> None:
        key = (name, self._stack[-1] if self._stack else -1)
        acc = self.leaves.get(key)
        if acc is None:
            self.leaves[key] = [ns, 1]
        else:
            acc[0] += ns
            acc[1] += 1

    def span(self, name, fn, after=None):
        """fn wrapped in a full span; after(result) runs outside the span."""

        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def leaf(self, name, fn):
        """fn with its calls accumulated under the enclosing span."""
        add = self._add_leaf

        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                add(name, clock() - t)

        return wrapper

    def stream(self, name, fn):
        """fn returns an iterator; each item it yields is timed as a leaf."""
        add = self._add_leaf

        def iterate(it):
            while True:
                t = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                add(name, clock() - t)
                yield item

        return lambda *args, **kwargs: iterate(iter(fn(*args, **kwargs)))

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "leaves": [[n, p, ns, c] for (n, p), (ns, c) in self.leaves.items()],
            "counts": dict(self.counts),
        }


class _View:
    """Stands in for a module in the CLI's namespace: wrapped names first,
    everything else from the module."""

    def __init__(self, module, wrapped: dict):
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _cache_bytes() -> int:
    directory = os.environ.get("TMCF_CACHE_DIR")
    if not directory or not os.path.isdir(directory):
        return 0
    return sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())


def install(rec: Recorder) -> None:
    """Wrap the calls the CLI makes into each layer of the imported tmcf.

    A name the program no longer has is left unwrapped; its time then shows
    as the caller's self time.
    """
    from tmcf import analysis, cf, cli, tm

    counts = rec.counts

    def view(module, table):
        return _View(module, {a: wrap(getattr(module, a)) for a, wrap in table.items() if hasattr(module, a)})

    def count(name, amount):
        counts[name] += amount

    cli.tm = view(tm, {
        "first_mismatch": lambda f: rec.span("tm.first_mismatch", f),
        "check_congruences": lambda f: rec.span("tm.congruences", f),
        "find_triple_repeat": lambda f: rec.span("tm.triple_repeat", f),
        "check_lemma_recursion": lambda f: rec.leaf("tm.lemma_recursion", f),
        "digit_sum_stream": lambda f: rec.stream("tm.stream", f),
    })
    cli.analysis = view(analysis, {
        "complexity": lambda f: rec.span("analysis.complexity", f),
        "palindromic_prefixes": lambda f: rec.span("analysis.palindrome", f),
        "find_period": lambda f: rec.span("analysis.period", f),
        "find_pattern": lambda f: rec.span("analysis.pattern", f),
        "predicted_011_positions": lambda f: rec.span("analysis.predicted_011", f),
    })
    cli.cf = view(cf, {
        "evaluate": lambda f: rec.span(
            "cf.evaluate", f, lambda r: count("cf.terms_used", getattr(r, "terms_used", 0))
        ),
        "convergents": lambda f: rec.span("cf.convergents", f),
        # quotients are TM terms pulled through the map: generation work
        "map_alphabet": lambda f: rec.stream("tm.stream", f),
    })
    try:
        from tmcf import prefix_cache
    except ImportError:
        prefix_cache = None
    if prefix_cache is not None:

        def loaded(result):
            if result is None:
                count("prefix_cache.misses", 1)
            else:
                count("prefix_cache.hits", 1)
                count("prefix_cache.bytes_read", _cache_bytes())

        def stored(result):
            if result:
                count("prefix_cache.bytes_written", _cache_bytes())

        cli.prefix_cache = view(prefix_cache, {
            "load_cached_prefix": lambda f: rec.span("prefix_cache.load", f, loaded),
            "store_prefix": lambda f: rec.span("prefix_cache.store", f, stored),
        })

    if hasattr(analysis, "tm_digit_sum"):
        analysis.tm_digit_sum = rec.leaf("tm.digit_sum", analysis.tm_digit_sum)
    if hasattr(analysis, "SuffixAutomaton"):
        automaton = analysis.SuffixAutomaton

        def counted_automaton(*args, **kwargs):
            sa = automaton(*args, **kwargs)
            count("analysis.sam_states", len(getattr(sa, "maxlen", ())))
            return sa

        analysis.SuffixAutomaton = counted_automaton

    prefix = tm.TmSequence.prefix
    morphic = rec.span("tm.morphic_prefix", prefix, lambda r: count("tm.terms_generated", len(r)))
    digit_sum = rec.span("tm.digit_sum_prefix", prefix, lambda r: count("tm.terms_generated", len(r)))
    tm.TmSequence.prefix = lambda self, n: (morphic if self.construction == "morphic" else digit_sum)(self, n)

    cli.Writer.emit = rec.leaf("cli.writer", cli.Writer.emit)


def summarize(trace: dict) -> dict:
    """Per-layer metrics of one traced run: self times, growth of ru_maxrss
    across analysis.complexity, call counts and the recorded counts.

    Raises ValueError when the spans do not nest under a single cli.main
    span or the self times do not add up to it.
    """
    spans, leaves = trace["spans"], trace["leaves"]
    child_ns = [0] * len(spans)
    self_ns = dict.fromkeys(SELF_TIME, 0)
    calls: Counter = Counter()
    rss_kb = 0
    for name, start, end, parent, rss_start, rss_end in spans:
        calls[name] += 1
        if parent >= 0:
            child_ns[parent] += end - start
        if name == "analysis.complexity":
            rss_kb += rss_end - rss_start
    for name, parent, ns, n in leaves:
        if parent < 0:
            raise ValueError(f"{name} ran outside the cli.main span")
        calls[name] += n
        self_ns[name] += ns
        child_ns[parent] += ns
    for index, (name, start, end, *_) in enumerate(spans):
        self_ns[name] += end - start - child_ns[index]

    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1 or roots[0][0] != "cli.main":
        raise ValueError(f"expected one cli.main root span, got {[s[0] for s in roots]}")
    wall_ns = roots[0][2] - roots[0][1]
    if sum(self_ns.values()) != wall_ns or min(self_ns.values()) < 0:
        raise ValueError("self times do not partition the cli.main span")

    metrics = {SELF_TIME[name]: ns / 1e9 for name, ns in self_ns.items()}
    metrics.update({metric: calls[name] for name, metric in CALLS.items()})
    metrics.update({name: trace["counts"].get(name, 0) for name in COUNTED})
    metrics["tm.terms_generated"] += calls["tm.stream"]
    metrics["analysis.complexity_rss_mb"] = rss_kb / 1024
    metrics["trace.wall_s"] = wall_ns / 1e9
    return metrics
