"""Tests of the benchmark's own arithmetic: self time, union, coverage, percentiles."""

import pytest

import gen
import recorder as rec

# Hand-made spans of one op (times in seconds):
#   0 bench.op          0 .. 10
#   1 cli.main          1 ..  9   parent 0
#   2 metrics.trace     2 ..  7   parent 1
#   3 cohort.query      3 ..  5   parent 2
#   4 cohort.query      5 ..  6   parent 2
#   5 cli.write         7 ..  8   parent 1
NAMES = ["bench.op", "cli.main", "metrics.trace", "cohort.query", "cohort.query", "cli.write"]
STARTS = [0.0, 1.0, 2.0, 3.0, 5.0, 7.0]
ENDS = [10.0, 9.0, 7.0, 5.0, 6.0, 8.0]
PARENTS = [-1, 0, 1, 2, 2, 1]


def test_self_time_subtracts_direct_children_only():
    own = rec.self_times(STARTS, ENDS, PARENTS)
    assert own == pytest.approx([2.0, 2.0, 2.0, 2.0, 1.0, 1.0])
    assert sum(own) == pytest.approx(ENDS[0] - STARTS[0])


def test_union_time_counts_nested_selected_spans_once():
    def union(*selected):
        return rec.union_time(NAMES, STARTS, ENDS, PARENTS, set(selected))

    assert union("cohort.query") == pytest.approx(3.0)
    assert union("metrics.trace", "cohort.query") == pytest.approx(5.0)
    assert union("cli.main", "cli.write") == pytest.approx(8.0)
    assert union("absent.name") == 0.0
    only_second = rec.union_time(NAMES, STARTS, ENDS, PARENTS, {"cohort.query"}, [4])
    assert only_second == pytest.approx(1.0)


def test_coverage_is_non_cli_time_over_op_time():
    assert rec.coverage(NAMES, STARTS, ENDS, PARENTS) == pytest.approx(5.0 / 10.0)
    # a second op entirely inside the library layer is fully covered
    names = NAMES + ["bench.op", "analysis.fit"]
    starts, ends = STARTS + [20.0, 20.0], ENDS + [30.0, 30.0]
    parents = PARENTS + [-1, 6]
    assert rec.coverage(names, starts, ends, parents) == pytest.approx(15.0 / 20.0)
    assert rec.coverage([], [], [], []) == 0.0


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert rec.percentile(values, 50) == 3.0
    assert rec.percentile(values, 0) == 1.0
    assert rec.percentile(values, 100) == 5.0
    assert rec.percentile(values, 90) == pytest.approx(4.6)
    assert rec.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        rec.percentile([], 50)


def test_layer_metrics_from_recorded_spans():
    recorder = rec.Recorder()
    ids = {name: recorder.name_id(name) for name in (
        "bench.op", "metrics.metric_trace", "cohort.CohortTrie.cohort_at")}
    for name, start, end, parent in (
        ("bench.op", 0.0, 4.0, -1),
        ("metrics.metric_trace", 0.5, 3.5, 0),
        ("cohort.CohortTrie.cohort_at", 1.0, 3.0, 1),
    ):
        recorder.name.append(ids[name])
        recorder.start.append(start)
        recorder.end.append(end)
        recorder.parent.append(parent)
        recorder.op.append(1)
    recorder.count("cohort.members", 30)
    recorder.count("metrics.points", 3)
    values = rec.layer_metrics(recorder, cycles=1, overhead_ratio=1.5)
    assert set(values) == set(rec.PER_LAYER_UNITS)
    assert values["cohort.query_s"] == pytest.approx(2.0)
    assert values["cohort.query_calls"] == 1
    assert values["metrics.trace_s"] == pytest.approx(1.0)
    assert values["metrics.traces_attempted"] == 1
    assert values["metrics.trace_yield"] == 1.0
    assert values["cohort.members_per_point"] == pytest.approx(10.0)
    assert values["trace.coverage"] == pytest.approx(3.0 / 4.0)
    assert values["trace.overhead_ratio"] == 1.5
    assert values["stimuli.pair_yield"] == 0.0


def test_tracing_wraps_lookup_sites_and_restores_them():
    import cohortlex
    import cohortlex.analysis
    import cohortlex.cli
    import cohortlex.metrics

    originals = (cohortlex.cli.metric_trace, cohortlex.analysis.metric_trace,
                 cohortlex.CohortTrie.cohort_at)
    recorder = rec.Recorder()
    with rec.Tracing(recorder, cohortlex) as tracing:
        assert cohortlex.cli.metric_trace is not originals[0]
        assert cohortlex.analysis.metric_trace is cohortlex.metrics.metric_trace
        lexicon = cohortlex.make_lexicon([("bat", "B AE T", 3.0), ("pat", "P AE T", 1.0)])
        trie = cohortlex.build_trie(lexicon)
        evidence = cohortlex.AcousticEvidence("B", "P", 0.75)
        cohortlex.analysis.metric_trace(trie, lexicon.entries[0], evidence)
    assert tracing.absent() == []
    assert (cohortlex.cli.metric_trace, cohortlex.analysis.metric_trace,
            cohortlex.CohortTrie.cohort_at) == originals
    names = recorder.span_names()
    assert names.count("metrics.metric_trace") == 1
    assert "cohort.CohortTrie.__init__" in names
    assert recorder.counters["metrics.points"] == 3
    assert all(e >= s for s, e in zip(recorder.start, recorder.end))


def test_generator_fixes_work_but_not_words():
    a, b = gen.lexicon_rows(1, 2000), gen.lexicon_rows(2, 2000)
    assert a == gen.lexicon_rows(1, 2000)
    assert a != b
    assert gen.onset_shares(a) == gen.onset_shares(b)
    for rows in (a, b):
        assert all(3 <= len(pron) <= 8 for _, pron, _ in rows)
        assert all(isinstance(freq, int) and freq >= 1 for _, _, freq in rows)
        assert len({orth for orth, _, _ in rows}) == len(rows)
    assert sorted(len(p) for _, p, _ in a) == sorted(len(p) for _, p, _ in b)
    mirrored = gen.mirrored_rows(3, 32)
    tails = {}
    for _, pron, _ in mirrored:
        tails.setdefault(pron[1:], set()).add(pron[0])
    assert len(tails) == 32 and all(onsets == {"B", "P"} for onsets in tails.values())
    assert gen.allocate({"x": 1, "y": 2}, 10) == {"x": 3, "y": 7}
