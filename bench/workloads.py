"""The benchmark's three workloads: inputs, set-up, ops, output checks.

Each workload is closed-loop with one client: a pass runs the workload's
ops one after the other, each op waiting for the previous one. CLI ops go
through `cohortlex.cli.main(argv)` in-process with stdout and stderr
captured; library ops call the package's public functions. Every name is
looked up on the module at call time, so the traced run's wrappers see
the calls.

Why these three:

- trace-all (8,000 words; trace --all then compare for B/P, D/T, G/K):
  cohort materialisation plus the metric arithmetic are nearly all of
  the time, analysis does nothing. The incremental trie walk must show
  here.
- recovery (64-word mirrored B/P lexicon; simfit per generator plus one
  permutation calibration): the analysis layer does nearly all the work.
  simfit solves many designs with one response each, calibration one
  design against many responses, so a regression change that helps one
  at the other's cost shows.
- big-lexicon (128,000 words; single-word lookups, pairs, continuum):
  parse and trie build dominate set-up, and stimuli, continuum and
  large-output writing are only measured here. Work moved from lookups
  into the build shows as set-up time and peak memory rising.
"""

from __future__ import annotations

import csv
import io
import math
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen
from recorder import percentile

VOICING_PAIRS = (("B", "P"), ("D", "T"), ("G", "K"))
P_A = 0.75
ORACLE_SAMPLE = 20  # trace --all words checked against the oracle, per pair
LOOKUPS = 100
CONTINUUM_ITEMS = 1000
SIMFIT_ARGS = ("--subjects", "10", "--trials", "500", "--noise", "0.5",
               "--betas", "1,1", "--position", "2")
SIMS = 100
PERMUTATIONS = 1000
DETECTION_GATE = 0.90
TRACE_TOL = 1e-6  # printed values carry 6 decimals
LOOKUP_TOL = 1e-9


class CheckFailure(Exception):
    """An op produced a wrong output; the whole run is incorrect."""


@dataclass
class Op:
    """One closed-loop request: a CLI argv or a library call."""

    kind: str
    argv: list | None = None
    call: Callable | None = None
    check: Callable | None = None  # check(result) on the first pass
    digest: Callable | None = None  # comparable form of a library result


@dataclass
class OpResult:
    kind: str
    wall_s: float
    rc: int | None  # None: timed out
    out: str = ""
    err: str = ""
    value: object = None

    @property
    def failed(self) -> bool:
        return self.rc != 0

    @property
    def error_line(self) -> str:
        """The op's first `error:` line on stderr (warnings may precede it)."""
        if self.rc is None:
            return "timeout"
        lines = self.err.strip().splitlines()
        errors = [line for line in lines if line.startswith("error:")]
        return (errors or lines or [f"exit {self.rc}"])[0]


@dataclass
class Workload:
    name: str
    make_inputs: Callable  # (seed, tmp) -> dict of input facts
    ops: Callable  # (cohortlex, inputs, state) -> list[Op]
    summarize: Callable  # (list[OpResult]) -> {metric: (value, unit, n)}


def _csv_rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(
        math.isfinite(got) and abs(got - want) <= tol,
        f"{what}: program {got!r}, oracle {want!r}",
    )


def setup(cl, inputs):
    """Set-up of every workload: parse its lexicon and build the trie."""
    lexicon = cl.parse_lexicon(inputs["lexicon"])
    return {"lexicon": lexicon, "trie": cl.build_trie(lexicon)}


def _lexicon_inputs(seed, tmp, n_words, rows_fn=gen.lexicon_rows):
    rows = rows_fn(seed, n_words)
    path = Path(tmp) / f"lexicon-{len(rows)}.tsv"
    gen.write_lexicon_tsv(rows, path)
    return {
        "lexicon": str(path),
        "rows": rows,
        "facts": {"seed": seed, "words": len(rows), "onset_shares": gen.onset_shares(rows)},
    }


# --- oracle ------------------------------------------------------------------


def oracle_point(inputs, pron, partner, position):
    """Oracle values of one trace row, evidence on the word's own onset.

    The values depend only on the prefix, so they are cached by prefix:
    every lookup of a B-onset word shares its position-1 row, the costliest.
    """
    key = (pron[:position], partner)
    cache = inputs["oracle_cache"]
    if key not in cache:
        cache[key] = _oracle_point(inputs["oracle"], inputs["naive"](), pron, partner, position)
    return cache[key]


def _oracle_point(oracle, naive, pron, partner, position):
    onset = pron[0]
    prefix = pron[:position]
    tail = pron[1:position]
    if position == 1:
        ac_surprisal = oracle.acoustic_surprisal_onset(naive, onset, partner, P_A)
    else:
        ac_surprisal = oracle.acoustic_surprisal(naive, onset, partner, P_A, tail)
    weights = oracle.acoustic_probs(naive, onset, partner, P_A, tail)
    return {
        "switch_surprisal": oracle.switch_surprisal(naive, prefix),
        "acoustic_surprisal": ac_surprisal,
        "switch_entropy": oracle.switch_entropy(naive, prefix),
        "acoustic_entropy": oracle.entropy_bits(weights.values()),
        "switch_cohort_size": int(naive.mask(prefix).sum()),
        "joint_cohort_size": sum(1 for w in weights.values() if w > 0),
    }


def attach_oracle(inputs, oracle) -> None:
    """Give the checks the oracle module and a lazily built naive lexicon.

    With `oracle_onsets` in the inputs, the naive lexicon holds only the
    words with those onsets plus one row, under an onset no word has,
    carrying the summed frequency of all other words. Every quantity of a
    prefix starting with one of those onsets, total frequency included, is
    then the same as over the whole lexicon (the sums are of integers, so
    exact), and each full scan is several times shorter.
    """
    cache = []

    def naive():
        if not cache:
            rows, onsets = inputs["rows"], inputs.get("oracle_onsets")
            if onsets is not None:
                rest = sum(freq for _, pron, freq in rows if pron[0] not in onsets)
                rows = [row for row in rows if row[1][0] in onsets]
                rows.append(("<rest>", ("<rest>",), rest))
            cache.append(oracle.NaiveLexicon(rows))
        return cache[0]

    inputs["oracle"] = oracle
    inputs["naive"] = naive
    inputs["oracle_cache"] = {}


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


# --- trace-all ---------------------------------------------------------------


def _trace_all_ops(cl, inputs, state):
    ops = []
    for a, b in VOICING_PAIRS:
        common = ["--lexicon", inputs["lexicon"], "--pair", f"{a},{b}", "--p-a", str(P_A)]
        ops.append(Op("trace", ["trace", "--all"] + common,
                      check=lambda r, a=a, b=b: _check_trace_all(inputs, (a, b), r)))
        ops.append(Op("compare", ["compare"] + common, check=_check_compare))
    return ops


def _check_trace_all(inputs, pair, result):
    rows = _csv_rows(result.out)
    words = [(orth, pron) for orth, pron, _ in inputs["rows"] if pron[0] in pair]
    _require(
        len(rows) == sum(len(pron) for _, pron in words),
        f"trace --all {pair}: {len(rows)} rows for {len(words)} words",
    )
    by_word: dict[str, list[dict]] = {}
    for row in rows:
        by_word.setdefault(row["word"], []).append(row)
    _require(set(by_word) == {orth for orth, _ in words},
             f"trace --all {pair}: traced words differ from the lexicon's")
    rng = random.Random(f"oracle-{inputs['facts']['seed']}-{pair}")
    for orth, pron in rng.sample(sorted(words), min(ORACLE_SAMPLE, len(words))):
        partner = pair[1] if pron[0] == pair[0] else pair[0]
        for row in by_word[orth]:
            position = int(row["position"])
            want = oracle_point(inputs, pron, partner, position)
            _require(row["phoneme"] == pron[position - 1], f"{orth}: phoneme column")
            for key, value in want.items():
                if key.endswith("_size"):
                    _require(int(row[key]) == value, f"{orth} pos {position} {key}")
                else:
                    _close(float(row[key]), value, TRACE_TOL, f"{orth} pos {position} {key}")


def _check_compare(result):
    rows = _csv_rows(result.out)
    _require(bool(rows), "compare printed no rows")
    for row in rows:
        _require(math.isfinite(float(row["value"])), f"compare: non-finite value {row}")


def _summarize_trace_all(results):
    traces = [r for r in results if r.kind == "trace"]
    compares = [r for r in results if r.kind == "compare"]
    points = sum(r.out.count("\n") - 1 for r in traces if not r.failed)
    return {
        "trace_points_per_s": (_rate(points, sum(r.wall_s for r in traces)), "1/s",
                               len(traces)),
        "compare_s": (statistics.median(r.wall_s for r in compares), "s", len(compares)),
    }


# --- recovery ----------------------------------------------------------------


def _recovery_ops(cl, inputs, state):
    seed = str(inputs["facts"]["seed"])
    ops = [
        Op("simfit", ["simfit", "--lexicon", inputs["lexicon"], "--generator", generator,
                      "--sims", str(SIMS), "--seed", seed, *SIMFIT_ARGS],
           check=_check_simfit)
        for generator in ("acoustic", "switch")
    ]

    def calibrate():
        traces = cl.build_trace_set(state["trie"])
        rows = cl.simulate_dataset(traces, 2, "acoustic", (1.0, 1.0), 0.5, 10, 1.0, 500,
                                   int(seed))
        start = time.perf_counter()
        result = cl.permutation_calibration(rows, PERMUTATIONS, 0.05, int(seed))
        return result, time.perf_counter() - start

    ops.append(Op("calibrate", call=calibrate, check=_check_calibration,
                  digest=lambda value: tuple(value[0].p_values)))
    return ops


def _check_simfit(result):
    lines = [line for line in result.err.splitlines() if line.startswith("detection rates:")]
    _require(len(lines) == 1, "simfit: no detection-rate line on stderr")
    rate = float(lines[0].rsplit("generating=", 1)[1])
    _require(rate >= DETECTION_GATE,
             f"simfit: generating-model detection rate {rate} below {DETECTION_GATE}")
    rows = _csv_rows(result.out)
    sims = [r for r in rows if r["kind"] == "sim"]
    _require(len(sims) == 2 * SIMS, f"simfit: {len(sims)} sim records for {SIMS} sims")
    for row in sims:
        _require(0.0 <= float(row["p_value"]) <= 1.0, f"simfit: p-value {row['p_value']}")


def _check_calibration(result):
    calibration, _ = result.value
    _require(len(calibration.p_values) == PERMUTATIONS,
             f"calibration: {len(calibration.p_values)} p-values")
    _require(all(0.0 <= p <= 1.0 for p in calibration.p_values), "calibration: p-value range")
    below = sum(p < calibration.alpha for p in calibration.p_values) / PERMUTATIONS
    _require(abs(below - calibration.fraction_below_alpha) < 1e-12,
             "calibration: fraction below alpha disagrees with its p-values")


def _summarize_recovery(results):
    simfits = [r for r in results if r.kind == "simfit"]
    calibrations = [r for r in results if r.kind == "calibrate" and not r.failed]
    sims = SIMS * sum(1 for r in simfits if not r.failed)
    return {
        "sims_per_s": (_rate(sims, sum(r.wall_s for r in simfits)), "1/s", len(simfits)),
        "permutations_per_s": (
            _rate(PERMUTATIONS * len(calibrations), sum(r.value[1] for r in calibrations)),
            "1/s", len(calibrations),
        ),
    }


# --- big-lexicon -------------------------------------------------------------


def _big_inputs(seed, tmp):
    inputs = _lexicon_inputs(seed, tmp, 128_000)
    curves = Path(tmp) / "curves.csv"
    gen.write_curves_csv(gen.curve_rows(seed, CONTINUUM_ITEMS), curves)
    inputs["curves"] = str(curves)
    inputs["facts"]["curve_items"] = CONTINUUM_ITEMS
    rng = random.Random(f"lookups-{seed}")
    candidates = sorted(
        (orth, pron) for orth, pron, _ in inputs["rows"] if pron[0] in ("B", "P")
    )
    inputs["lookup_words"] = rng.sample(candidates, LOOKUPS)
    inputs["oracle_onsets"] = ("B", "P")
    return inputs


def _big_ops(cl, inputs, state):
    lexicon, trie = state["lexicon"], state["trie"]
    ops = []
    for orth, pron in inputs["lookup_words"]:
        (entry,) = [e for e in lexicon.lookup(orth) if e.pron == pron]
        partner = "P" if pron[0] == "B" else "B"
        evidence = cl.AcousticEvidence(pron[0], partner, P_A)
        ops.append(Op(
            "lookup",
            call=lambda entry=entry, evidence=evidence: cl.metric_trace(trie, entry, evidence),
            check=lambda r, pron=pron, partner=partner: _check_lookup(inputs, pron, partner, r),
            digest=lambda value: tuple(value.points),
        ))
    ops.append(Op("pairs", ["pairs", "--lexicon", inputs["lexicon"], "--min-shared", "2"],
                  check=lambda r: _check_pairs(inputs, r)))
    ops.append(Op("continuum", ["continuum", "--in", inputs["curves"]],
                  check=_check_continuum))
    return ops


def _check_lookup(inputs, pron, partner, result):
    points = result.value.points
    _require(len(points) == len(pron), f"lookup {pron}: {len(points)} points")
    for point in points:
        want = oracle_point(inputs, pron, partner, point.position)
        for key, value in want.items():
            got = getattr(point, key)
            if key.endswith("_size"):
                _require(got == value, f"lookup {pron} pos {point.position} {key}")
            else:
                _close(got, value, LOOKUP_TOL, f"lookup {pron} pos {point.position} {key}")


def _check_pairs(inputs, result):
    pron_of = {orth: pron for orth, pron, _ in inputs["rows"]}
    reader = csv.reader(io.StringIO(result.out))
    column = {name: i for i, name in enumerate(next(reader))}
    word_a, word_b = column["word_a"], column["word_b"]
    onset_a, onset_b = column["onset_a"], column["onset_b"]
    shared, divergence = column["shared_len"], column["divergence_point"]
    seen = set()
    for row in reader:
        a, b = pron_of[row[word_a]], pron_of[row[word_b]]
        onsets = (row[onset_a], row[onset_b])
        _require(onsets in VOICING_PAIRS and (a[0], b[0]) == onsets,
                 f"pairs: {row} is not a voiced/voiceless onset pair")
        point = next((i + 1 for i in range(1, min(len(a), len(b))) if a[i] != b[i]), None)
        _require(point is not None and row[divergence] == str(point),
                 f"pairs: {row} divergence point, recomputed {point}")
        _require(int(row[shared]) == point - 2 >= 2, f"pairs: {row} shared_len")
        key = frozenset((row[word_a], row[word_b]))
        _require(key not in seen, f"pairs: duplicate pair {row}")
        seen.add(key)
    _require(bool(seen), "pairs printed no rows")


def _check_continuum(result):
    steps: dict[str, set] = {}
    for row in _csv_rows(result.out):
        steps.setdefault(row["item"], set()).add(int(row["step"]))
    _require(len(steps) == CONTINUUM_ITEMS, f"continuum: {len(steps)} items")
    bad = [item for item, s in steps.items() if len(s) != 5]
    _require(not bad, f"continuum: items without 5 distinct steps: {bad[:3]}")


def _summarize_big(results):
    lookups_ms = [1000 * r.wall_s for r in results if r.kind == "lookup"]
    pairs = [r.wall_s for r in results if r.kind == "pairs"]
    continua = [r for r in results if r.kind == "continuum"]
    items = sum(CONTINUUM_ITEMS for r in continua if not r.failed)
    return {
        "lookup_p50_ms": (percentile(lookups_ms, 50), "ms", len(lookups_ms)),
        "lookup_p90_ms": (percentile(lookups_ms, 90), "ms", len(lookups_ms)),
        "pairs_s": (statistics.median(pairs), "s", len(pairs)),
        "continuum_items_per_s": (_rate(items, sum(r.wall_s for r in continua)), "1/s",
                                  len(continua)),
    }


WORKLOADS = {
    "trace-all": Workload(
        "trace-all",
        make_inputs=lambda seed, tmp: _lexicon_inputs(seed, tmp, 8_000),
        ops=_trace_all_ops,
        summarize=_summarize_trace_all,
    ),
    "recovery": Workload(
        "recovery",
        make_inputs=lambda seed, tmp: _lexicon_inputs(seed, tmp, 32, gen.mirrored_rows),
        ops=_recovery_ops,
        summarize=_summarize_recovery,
    ),
    "big-lexicon": Workload(
        "big-lexicon",
        make_inputs=_big_inputs,
        ops=_big_ops,
        summarize=_summarize_big,
    ),
}
