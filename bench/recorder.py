"""In-memory span and counter recorder for the benchmark's traced run.

Spans are kept in parallel arrays (name, start, end, parent span, op id)
and written out when the run ends. Wrappers are installed from outside the
program: every public function of each cohortlex module is replaced, in
every cohortlex module that binds it, by a wrapper that opens a span; the
public `CohortTrie` methods get the same treatment. Nothing is wrapped
while the untraced runs measure.

The span arithmetic (`self_times`, `union_time`, `coverage`) and
`percentile` are plain functions over lists, so the benchmark's own tests
can check them on hand-made spans.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("lexicon", "cohort", "metrics", "stimuli", "continuum", "analysis", "cli")
BENCH_LAYER = "bench"

TRIE_QUERIES = (
    "cohort.CohortTrie.cohort_at",
    "cohort.CohortTrie.prefix_frequency",
    "cohort.CohortTrie.cohort_size",
    "cohort.CohortTrie.conditional_prob",
    "cohort.CohortTrie.uniqueness_point",
)
TRIE_BUILD = ("cohort.build_trie", "cohort.CohortTrie.__init__")
COMPARE_FUNCTIONS = ("metrics.model_correlation", "metrics.model_divergence_ranking")

# Names the per-layer metrics are defined on. A name missing from the
# program is reported as absent and its metrics read 0.
REQUIRED_NAMES = (
    ("lexicon.parse_lexicon",)
    + TRIE_QUERIES
    + TRIE_BUILD
    + COMPARE_FUNCTIONS
    + (
        "metrics.metric_trace",
        "stimuli.find_word_pairs",
        "stimuli.divergence_point",
        "continuum.read_identification_curves",
        "continuum.resample_continuum",
        "analysis.build_trace_set",
        "analysis.simulate_dataset",
        "analysis.ols_fit",
        "analysis.likelihood_ratio_test",
        "analysis.permutation_calibration",
        "cli.main",
        "cli.write_records",
    )
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Recorder:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._op_id = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def new_op(self) -> None:
        self._op_id += 1

    def count(self, counter: str, n: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def span_names(self) -> list[str]:
        return [self.names[i] for i in self.name]

    def write_csv(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            handle.write("name,start,end,parent,op\n")
            names = self.names
            for i in range(len(self.start)):
                handle.write(
                    f"{names[self.name[i]]},{self.start[i]:.9f},{self.end[i]:.9f},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )


# --- span arithmetic -------------------------------------------------------


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans nest (one thread), so children never overlap each other and the
    difference is the time the span spent in its own code.
    """
    own = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    return own


def union_time(names, starts, ends, parents, selected, indices=None) -> float:
    """Wall time covered by spans whose name is in `selected`.

    A selected span nested under another selected span is already covered
    by its ancestor and is not counted again. `indices`, when given, lists
    the candidate spans, so callers with an index by name skip the rest.
    """
    total = 0.0
    for i in range(len(names)) if indices is None else indices:
        if names[i] not in selected:
            continue
        p = parents[i]
        while p >= 0 and names[p] not in selected:
            p = parents[p]
        if p < 0:
            total += ends[i] - starts[i]
    return total


def coverage(names, starts, ends, parents) -> float:
    """Share of op wall time that falls under a span of a program layer
    other than `cli`.

    Op roots are the spans without a parent; the covered time is the union
    of the outermost spans whose layer is neither `cli` nor the
    benchmark's own.
    """
    uncovered_layers = ("cli", BENCH_LAYER)
    root_time = sum(e - s for s, e, p in zip(starts, ends, parents) if p < 0)
    if root_time <= 0:
        return 0.0
    selected = {n for n in names if layer_of(n) not in uncovered_layers}
    return union_time(names, starts, ends, parents, selected) / root_time


def percentile(values, q: float) -> float:
    """The q-th percentile (0-100) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# --- wrappers --------------------------------------------------------------


def _len_or_zero(value) -> int:
    try:
        return len(value)
    except TypeError:
        return 0


def _hooks(recorder: Recorder) -> dict:
    """Counters taken from a wrapped call's arguments, result or error."""

    def on_parse(args, result):
        recorder.count("lexicon.entries", _len_or_zero(result))

    def on_cohort(args, result):
        recorder.count("cohort.members", _len_or_zero(getattr(result, "members", ())))

    def on_trace(args, result):
        recorder.count("metrics.points", _len_or_zero(getattr(result, "points", ())))

    def on_pairs(args, result):
        recorder.count("stimuli.pairs_found", _len_or_zero(result))

    def on_simulate(args, result):
        recorder.count("analysis.rows_simulated", _len_or_zero(result))

    def on_write(args, result):
        recorder.count("cli.records_written", _len_or_zero(args[0] if args else ()))

    return {
        "lexicon.parse_lexicon": on_parse,
        "cohort.CohortTrie.cohort_at": on_cohort,
        "metrics.metric_trace": on_trace,
        "stimuli.find_word_pairs": on_pairs,
        "analysis.simulate_dataset": on_simulate,
        "cli.write_records": on_write,
    }


# Errors counted per wrapped name: (exception class name, counter).
_ERROR_COUNTERS = {
    "metrics.metric_trace": ("ImpossibleContinuationError", "metrics.traces_skipped"),
    "analysis.ols_fit": ("SingularDesignError", "analysis.fits_singular"),
}


def _wrap(recorder: Recorder, name: str, fn, on_result):
    name_id = recorder.name_id(name)
    error = _ERROR_COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = recorder.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            if error is not None and type(exc).__name__ == error[0]:
                recorder.count(error[1])
            raise
        finally:
            recorder.finish(index)
        if on_result is not None:
            on_result(args, result)
        return result

    return wrapper


def _public_functions(module) -> dict:
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    }


class Tracing:
    """Installs span wrappers on the cohortlex package; restores on exit."""

    def __init__(self, recorder: Recorder, package):
        self.recorder = recorder
        self.package = package
        self.wrapped: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        hooks = _hooks(self.recorder)
        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == self.package.__name__ or key.startswith(self.package.__name__ + ".")
        ]
        wrappers = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules.get(f"{self.package.__name__}.{layer}")
            for fname, fn in _public_functions(module).items() if module else ():
                name = f"{layer}.{fname}"
                wrappers[id(fn)] = _wrap(self.recorder, name, fn, hooks.get(name))
                self.wrapped.add(name)
        trie = getattr(self.package, "CohortTrie", None)
        for mname, fn in list(vars(trie).items()) if isinstance(trie, type) else ():
            if inspect.isfunction(fn) and (mname == "__init__" or not mname.startswith("_")):
                name = f"cohort.CohortTrie.{mname}"
                self._replace(trie, mname, _wrap(self.recorder, name, fn, hooks.get(name)))
                self.wrapped.add(name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._replace(module, attr, wrappers[id(value)])
        return self

    def _replace(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def absent(self) -> list[str]:
        return [name for name in REQUIRED_NAMES if name not in self.wrapped]


# --- per-layer metrics -----------------------------------------------------

PER_LAYER_UNITS = {
    "lexicon.parse_s": "s",
    "lexicon.entries_per_s": "1/s",
    "cohort.build_s": "s",
    "cohort.query_s": "s",
    "cohort.query_calls": "count",
    "cohort.members_materialised": "count",
    "cohort.members_per_point": "ratio",
    "metrics.trace_s": "s",
    "metrics.points": "count",
    "metrics.traces_attempted": "count",
    "metrics.traces_skipped": "count",
    "metrics.trace_yield": "ratio",
    "metrics.compare_s": "s",
    "stimuli.search_s": "s",
    "stimuli.candidates": "count",
    "stimuli.pairs_found": "count",
    "stimuli.pair_yield": "ratio",
    "continuum.read_s": "s",
    "continuum.fit_s": "s",
    "continuum.items": "count",
    "analysis.trace_set_s": "s",
    "analysis.simulate_s": "s",
    "analysis.rows_simulated": "count",
    "analysis.fit_s": "s",
    "analysis.fits": "count",
    "analysis.fits_singular": "count",
    "analysis.lrt_s": "s",
    "analysis.calibration_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.records_written": "count",
    "cli.bytes_written": "count",
    **{f"{layer}.layer_self_s": "s" for layer in LAYERS},
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(recorder: Recorder, cycles: int, overhead_ratio: float) -> dict:
    """Per-layer values of the traced run, averaged per traced cycle.

    `_s` values are wall seconds: `time` of a set of functions is the
    union of their spans (their own code plus everything they call), while
    the `self` values exclude time spent under other wrapped functions.
    """
    names = recorder.span_names()
    starts, ends, parents = recorder.start, recorder.end, recorder.parent
    own = self_times(starts, ends, parents)
    self_by_name: dict[str, float] = {}
    by_name: dict[str, list[int]] = {}
    for i, (name, t) in enumerate(zip(names, own)):
        self_by_name[name] = self_by_name.get(name, 0.0) + t
        by_name.setdefault(name, []).append(i)

    def time_of(*selected):
        indices = sorted(i for n in selected for i in by_name.get(n, ()))
        return union_time(names, starts, ends, parents, set(selected), indices)

    def self_of(predicate):
        return sum(t for n, t in self_by_name.items() if predicate(n))

    def calls_of(*selected):
        return sum(len(by_name.get(n, ())) for n in selected)

    counter = recorder.counters.get
    values = {
        "lexicon.parse_s": time_of("lexicon.parse_lexicon"),
        "cohort.build_s": time_of(*TRIE_BUILD),
        "cohort.query_s": time_of(*TRIE_QUERIES),
        "cohort.query_calls": calls_of(*TRIE_QUERIES),
        "cohort.members_materialised": counter("cohort.members", 0),
        "metrics.trace_s": self_of(
            lambda n: layer_of(n) == "metrics" and n not in COMPARE_FUNCTIONS
        ),
        "metrics.points": counter("metrics.points", 0),
        "metrics.traces_attempted": calls_of("metrics.metric_trace"),
        "metrics.traces_skipped": counter("metrics.traces_skipped", 0),
        "metrics.compare_s": time_of(*COMPARE_FUNCTIONS),
        "stimuli.search_s": time_of("stimuli.find_word_pairs"),
        "stimuli.candidates": calls_of("stimuli.divergence_point"),
        "stimuli.pairs_found": counter("stimuli.pairs_found", 0),
        "continuum.read_s": time_of("continuum.read_identification_curves"),
        "continuum.fit_s": time_of("continuum.resample_continuum"),
        "continuum.items": calls_of("continuum.resample_continuum"),
        "analysis.trace_set_s": time_of("analysis.build_trace_set"),
        "analysis.simulate_s": time_of("analysis.simulate_dataset"),
        "analysis.rows_simulated": counter("analysis.rows_simulated", 0),
        "analysis.fit_s": time_of("analysis.ols_fit"),
        "analysis.fits": calls_of("analysis.ols_fit"),
        "analysis.fits_singular": counter("analysis.fits_singular", 0),
        "analysis.lrt_s": time_of("analysis.likelihood_ratio_test"),
        "analysis.calibration_s": time_of("analysis.permutation_calibration"),
        "cli.self_s": self_of(lambda n: layer_of(n) == "cli" and n != "cli.write_records"),
        "cli.write_s": time_of("cli.write_records"),
        "cli.records_written": counter("cli.records_written", 0),
        "cli.bytes_written": counter("cli.bytes_written", 0),
    }
    for layer in LAYERS:
        values[f"{layer}.layer_self_s"] = self_of(lambda n, layer=layer: layer_of(n) == layer)
    values = {
        key: value // cycles if isinstance(value, int) and value % cycles == 0 else value / cycles
        for key, value in values.items()
    }
    built = values["metrics.traces_attempted"] - values["metrics.traces_skipped"]
    values["lexicon.entries_per_s"] = _ratio(
        counter("lexicon.entries", 0) / cycles, values["lexicon.parse_s"]
    )
    values["cohort.members_per_point"] = _ratio(
        values["cohort.members_materialised"], values["metrics.points"]
    )
    values["metrics.trace_yield"] = _ratio(built, values["metrics.traces_attempted"])
    values["stimuli.pair_yield"] = _ratio(
        values["stimuli.pairs_found"], values["stimuli.candidates"]
    )
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.coverage"] = coverage(names, starts, ends, parents)
    return {key: values[key] for key in PER_LAYER_UNITS}
