import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cohortlex import (
    AcousticEvidence,
    ImpossibleContinuationError,
    LexiconEntry,
    MetricPoint,
    MetricTrace,
    UndefinedCorrelationError,
    acoustic_entropy,
    acoustic_surprisal,
    build_trie,
    make_lexicon,
    metric_trace,
    model_correlation,
    model_divergence_ranking,
    switch_entropy,
    switch_surprisal,
)

import cohortlex
import naive_oracle as oracle
from weighted_cohort import acoustic_weighted_probs

# Hand-enumerated values, frozen at full precision by an independent
# enumeration script before this module was written.
H_75_25 = 0.8112781244591328
TOY_A_ACOUSTIC_ONSET_H = 1.4197367178034825
TOY_B_SWITCH_S_BAE = 0.4150374992788437
TOY_B_ACOUSTIC_S_T2 = 1.6780719051126376
TOY_B_ACOUSTIC_S_ONSET = 2.3625700793847084
TOY_B_ACOUSTIC_S_T2_PA1 = 1.6374299206152918
TOY_B_ACOUSTIC_S_T2_PAT_VIEW = 1.762960802699151

EV = AcousticEvidence("B", "P", 0.75)


def close(a, b, tol=1e-12):
    return math.isclose(a, b, rel_tol=0, abs_tol=tol)


# ---------------------------------------------------------------- evidence


def test_evidence_mass_and_commitment():
    ev = AcousticEvidence("B", "P", 0.75)
    assert ev.p_b == 0.25
    assert ev.committed == "B"
    assert AcousticEvidence("B", "P", 0.25).committed == "P"
    # tie commits to phoneme_a
    assert AcousticEvidence("B", "P", 0.5).committed == "B"


def test_evidence_validation():
    with pytest.raises(ValueError):
        AcousticEvidence("B", "B", 0.5)
    with pytest.raises(ValueError):
        AcousticEvidence("B", "P", 1.5)
    with pytest.raises(ValueError):
        AcousticEvidence("B", "P", -0.1)


# ---------------------------------------------------------- switch entropy


def test_switch_entropy_toy_a(trie_a):
    assert close(switch_entropy(trie_a, ("B",)), H_75_25)


def test_switch_entropy_single_survivor(trie_b):
    assert switch_entropy(trie_b, ("B", "AE", "T")) == 0.0


def test_switch_entropy_equifrequent_pair():
    trie = build_trie(make_lexicon([("bat", "B AE T", 2.0), ("ban", "B AE N", 2.0)]))
    assert close(switch_entropy(trie, ("B",)), 1.0)


def test_switch_entropy_empty_cohort(trie_b):
    with pytest.raises(ImpossibleContinuationError):
        switch_entropy(trie_b, ("Z",))


def test_entropy_maximal_iff_uniform():
    uniform = build_trie(
        make_lexicon([(f"w{i}", f"B S{i}", 7.0) for i in range(8)])
    )
    assert close(switch_entropy(uniform, ("B",)), 3.0)
    skewed = build_trie(
        make_lexicon(
            [("w0", "B S0", 8.0)] + [(f"w{i}", f"B S{i}", 7.0) for i in range(1, 8)]
        )
    )
    assert switch_entropy(skewed, ("B",)) < 3.0


# ------------------------------------------------------- weighted cohorts


def test_weighted_probs_toy_a(trie_a):
    weighted = acoustic_weighted_probs(trie_a, EV, ())
    probs = {e.orthography: p for e, p in weighted.members}
    assert probs == {"bat": 0.5625, "ban": 0.1875, "pat": 0.25}
    assert weighted.raw_mass == 1.0
    assert close(sum(probs.values()), 1.0, tol=1e-9)


def test_weighted_probs_degenerate_evidence_matches_cohort(trie_b):
    weighted = acoustic_weighted_probs(trie_b, AcousticEvidence("B", "P", 1.0), ())
    live = {e.orthography: p for e, p in weighted.members if p > 0}
    cohort = {e.orthography: p for e, p in trie_b.cohort_at(("B",)).members}
    assert live == cohort


def test_weighted_probs_empty_subcohort_renormalizes():
    lex = make_lexicon([("bat", "B AE T", 3.0), ("ban", "B AE N", 1.0)])
    trie = build_trie(lex)
    weighted = acoustic_weighted_probs(trie, EV, ())
    probs = {e.orthography: p for e, p in weighted.members}
    assert probs == {"bat": 0.75, "ban": 0.25}
    assert weighted.raw_mass == 0.75


def test_weighted_probs_both_empty(trie_b):
    with pytest.raises(ImpossibleContinuationError):
        acoustic_weighted_probs(trie_b, EV, ("ZZ",))


def test_weighted_probs_normalized_across_sweep(trie_b):
    for p_a in np.linspace(0.0, 1.0, 21):
        for continuation in [(), ("AE",), ("IH",), ("IH", "N")]:
            weighted = acoustic_weighted_probs(
                trie_b, AcousticEvidence("B", "P", float(p_a)), continuation
            )
            assert abs(sum(p for _, p in weighted.members) - 1.0) <= 1e-9


# -------------------------------------------------------- acoustic entropy


def test_acoustic_entropy_toy_a_onset(trie_a):
    assert close(acoustic_entropy(trie_a, EV, ()), TOY_A_ACOUSTIC_ONSET_H)


def test_acoustic_entropy_impossible(trie_b):
    message = r"neither /B/ nor /P/ admits the continuation /AE S/"
    with pytest.raises(ImpossibleContinuationError, match=message):
        acoustic_entropy(trie_b, EV, ("AE", "S"))


def test_acoustic_entropy_reduces_at_certainty(trie_b, toy_b):
    for p_a, onset in ((1.0, "B"), (0.0, "P")):
        ev = AcousticEvidence("B", "P", p_a)
        for continuation in [(), ("AE",)]:
            got = acoustic_entropy(trie_b, ev, continuation)
            want = switch_entropy(trie_b, (onset,) + continuation)
            assert close(got, want)


def test_acoustic_entropy_mirror_lexicon_adds_one_bit():
    mirror = build_trie(
        make_lexicon(
            [
                ("bat", "B AE T", 3.0),
                ("ban", "B AE N", 1.0),
                ("pat", "P AE T", 3.0),
                ("pan", "P AE N", 1.0),
            ]
        )
    )
    ev = AcousticEvidence("B", "P", 0.5)
    assert close(
        acoustic_entropy(mirror, ev, ()), switch_entropy(mirror, ("B",)) + 1.0
    )


# -------------------------------------------------------- switch surprisal


def test_switch_surprisal_toy_b(trie_b):
    assert close(switch_surprisal(trie_b, ("B", "AE")), TOY_B_SWITCH_S_BAE)
    assert close(switch_surprisal(trie_b, ("P", "AE")), 1.0)


def test_switch_surprisal_deterministic_continuation(trie_b):
    assert switch_surprisal(trie_b, ("B", "IH", "N")) == 0.0


def test_switch_surprisal_impossible(trie_b):
    with pytest.raises(ImpossibleContinuationError):
        switch_surprisal(trie_b, ("B", "AE", "S"))


# ------------------------------------------------------ acoustic surprisal


def test_acoustic_surprisal_toy_b_t2(trie_b):
    assert close(acoustic_surprisal(trie_b, EV, ("AE",)), TOY_B_ACOUSTIC_S_T2)


def test_acoustic_surprisal_certainty_does_not_reduce_to_switch(trie_b):
    # With p_a = 1 the lexical weighting Q still reflects both onsets'
    # continuations, so the value differs from the switch surprisal as
    # long as the other onset admits the continuation.
    got = acoustic_surprisal(trie_b, AcousticEvidence("B", "P", 1.0), ("AE",))
    assert close(got, TOY_B_ACOUSTIC_S_T2_PA1)
    assert not close(got, switch_surprisal(trie_b, ("B", "AE")), tol=1e-3)


def test_acoustic_surprisal_single_onset_reduces():
    lex = make_lexicon([("bat", "B AE T", 3.0), ("ban", "B AE N", 1.0)])
    trie = build_trie(lex)
    got = acoustic_surprisal(trie, EV, ("AE",))
    assert close(got, -math.log2(0.75 * 1.0))


def test_acoustic_surprisal_empty_continuation_is_the_onset(trie_b):
    # an empty continuation is position 1, the value metric_trace reports
    got = acoustic_surprisal(trie_b, EV, ())
    assert close(got, TOY_B_ACOUSTIC_S_ONSET)
    words = [e for e in trie_b.lexicon.entries if e.onset == EV.phoneme_a]
    assert words
    for word in words:
        assert metric_trace(trie_b, word, EV).points[0].acoustic_surprisal == got


def test_acoustic_surprisal_impossible(trie_b):
    with pytest.raises(ImpossibleContinuationError):
        acoustic_surprisal(trie_b, EV, ("AE", "S"))


def test_acoustic_surprisal_onset_toy_b(trie_b):
    assert close(acoustic_surprisal(trie_b, EV, ()), TOY_B_ACOUSTIC_S_ONSET)


def test_acoustic_surprisal_onset_single_onset_reductions():
    lex = make_lexicon([("bat", "B AE T", 3.0), ("mat", "M AE T", 1.0)])
    trie = build_trie(lex)
    got = acoustic_surprisal(trie, AcousticEvidence("B", "P", 1.0), ())
    assert close(got, -math.log2(3.0 / 4.0))
    got = acoustic_surprisal(trie, AcousticEvidence("P", "B", 0.0), ())
    assert close(got, -math.log2(3.0 / 4.0))


def test_acoustic_surprisal_onset_both_absent(trie_b):
    with pytest.raises(ImpossibleContinuationError, match="nor /ZH/ starts any word"):
        acoustic_surprisal(trie_b, AcousticEvidence("Z", "ZH", 0.5), ())


def test_acoustic_entropy_onset_both_absent():
    # an empty continuation is the onset position, worded as the surprisal's
    trie = build_trie(make_lexicon([("bat", "B AE T", 1.0), ("pat", "P AE T", 1.0)]))
    with pytest.raises(ImpossibleContinuationError, match=r"^neither /D/ nor /T/ starts any word$"):
        acoustic_entropy(trie, AcousticEvidence("D", "T", 0.75), ())


def test_surprisal_nonnegative_across_sweep(trie_b):
    for p_a in np.linspace(0.0, 1.0, 21):
        ev = AcousticEvidence("B", "P", float(p_a))
        assert acoustic_surprisal(trie_b, ev, ()) >= 0.0
        for continuation in [("AE",), ("IH",), ("IH", "N")]:
            assert acoustic_surprisal(trie_b, ev, continuation) >= 0.0


def test_metrics_continuous_in_p_a(trie_b):
    # No discontinuities while both sub-cohorts stay alive: halving the
    # grid step should roughly halve the largest jump.
    def sweep(fn, step):
        grid = np.arange(0.0, 1.0 + step / 2, step)
        values = [fn(AcousticEvidence("B", "P", float(p))) for p in grid]
        return max(abs(b - a) for a, b in zip(values, values[1:]))

    for fn in (
        lambda ev: acoustic_entropy(trie_b, ev, ("AE",)),
        lambda ev: acoustic_surprisal(trie_b, ev, ("AE",)),
        lambda ev: acoustic_surprisal(trie_b, ev, ()),
    ):
        coarse = sweep(fn, 0.01)
        fine = sweep(fn, 0.001)
        assert coarse <= 15.0 * fine


# ------------------------------------------------------------ metric_trace


def test_metric_trace_toy_b(trie_b, toy_b):
    trace = metric_trace(trie_b, toy_b.lookup("bat")[0], EV)
    assert len(trace.points) == 3
    assert [p.position for p in trace.points] == [1, 2, 3]
    assert [p.phoneme for p in trace.points] == ["B", "AE", "T"]
    t2 = trace.point_at(2)
    assert close(t2.acoustic_surprisal, TOY_B_ACOUSTIC_S_T2)
    assert close(t2.switch_surprisal, TOY_B_SWITCH_S_BAE)
    assert trace.point_at(4) is None
    assert trace.point_at(0) is None


def test_metric_trace_certainty_matches_switch_entropy(trie_b, toy_b):
    ev = AcousticEvidence("B", "P", 1.0)
    trace = metric_trace(trie_b, toy_b.lookup("bat")[0], ev)
    for point in trace.points:
        assert close(point.switch_entropy, point.acoustic_entropy)


def test_metric_trace_single_word_lexicon():
    lex = make_lexicon([("bat", "B AE T", 3.0)])
    trace = metric_trace(build_trie(lex), lex.entries[0], EV)
    for point in trace.points:
        assert point.switch_entropy == 0.0
        assert point.acoustic_entropy == 0.0
        if point.position > 1:
            assert point.switch_surprisal == 0.0
    assert trace.points[0].switch_surprisal == 0.0  # only onset in the lexicon


def test_metric_trace_requires_matching_onset(trie_b, toy_b):
    with pytest.raises(ValueError, match="onset"):
        metric_trace(trie_b, toy_b.lookup("bin")[0], AcousticEvidence("D", "T", 0.75))


def test_metric_trace_commitment_is_fixed_for_whole_trace(trie_b, toy_b):
    # Evidence favoring B commits the switch model to the B path even
    # when the traced word starts with P.
    bat = metric_trace(trie_b, toy_b.lookup("bat")[0], EV)
    pat = metric_trace(trie_b, toy_b.lookup("pat")[0], EV)
    assert close(pat.point_at(2).switch_surprisal, bat.point_at(2).switch_surprisal)
    assert close(pat.point_at(2).switch_entropy, bat.point_at(2).switch_entropy)


def test_metric_trace_entropy_zero_iff_single_member(trie_b, toy_b):
    rng = np.random.default_rng(21)
    for _ in range(50):
        word = toy_b.entries[int(rng.integers(len(toy_b.entries)))]
        onset = word.onset
        other = "P" if onset == "B" else "B"
        ev = AcousticEvidence(onset, other, float(rng.uniform(0.5, 1.0)))
        for point in metric_trace(trie_b, word, ev).points:
            assert (point.acoustic_entropy == 0.0) == (point.joint_cohort_size == 1)
            assert (point.switch_entropy == 0.0) == (point.switch_cohort_size == 1)


# ------------------------------------------------- correlation and ranking


def _fake_trace(orth, value_pairs):
    """A trace whose surprisal and entropy values are set directly."""
    pron = tuple("X" * (i + 1) for i in range(len(value_pairs)))
    entry = LexiconEntry(orth, pron, 1.0)
    points = tuple(
        MetricPoint(
            position=i + 1,
            phoneme=pron[i],
            switch_surprisal=s,
            acoustic_surprisal=a,
            switch_entropy=s,
            acoustic_entropy=a,
            switch_cohort_size=1,
            joint_cohort_size=1,
        )
        for i, (s, a) in enumerate(value_pairs)
    )
    return MetricTrace(entry, AcousticEvidence("X", "Y", 0.75), points)


def test_correlation_perfect_linearity():
    traces = [
        _fake_trace("u", [(1.0, 2.0)]),
        _fake_trace("v", [(2.0, 4.0)]),
        _fake_trace("w", [(3.0, 6.0)]),
    ]
    assert close(model_correlation(traces, 1, "surprisal"), 1.0)


def test_correlation_hand_value():
    traces = [
        _fake_trace("u", [(1.0, 2.0)]),
        _fake_trace("v", [(2.0, 1.0)]),
        _fake_trace("w", [(3.0, 3.0)]),
    ]
    assert close(model_correlation(traces, 1, "surprisal"), 0.5)


def test_correlation_identity_at_certainty(trie_b, toy_b):
    # p_a = 1 toward each word's own onset: acoustic equals switch
    # everywhere, so the pairs land exactly on the diagonal.
    traces = [
        metric_trace(
            trie_b, e, AcousticEvidence(e.onset, "P" if e.onset == "B" else "B", 1.0)
        )
        for e in toy_b.entries
    ]
    assert close(model_correlation(traces, 1, "entropy"), 1.0)


def test_correlation_needs_three_points():
    traces = [_fake_trace("u", [(1.0, 2.0)]), _fake_trace("v", [(2.0, 1.0)])]
    with pytest.raises(ValueError, match="3"):
        model_correlation(traces, 1, "surprisal")


def test_correlation_constant_vector_undefined():
    traces = [
        _fake_trace("u", [(1.0, 2.0)]),
        _fake_trace("v", [(1.0, 1.0)]),
        _fake_trace("w", [(1.0, 3.0)]),
    ]
    with pytest.raises(UndefinedCorrelationError):
        model_correlation(traces, 1, "surprisal")


def test_correlation_unknown_quantity():
    traces = [_fake_trace("u", [(1.0, 2.0)])] * 3
    with pytest.raises(ValueError):
        model_correlation(traces, 1, "energy")


def test_divergence_ranking_orders_by_gap():
    traces = [
        _fake_trace("big", [(0.0, 3.0)]),
        _fake_trace("mid", [(0.0, 1.0)]),
        _fake_trace("nil", [(2.0, 2.0)]),
    ]
    ranking = model_divergence_ranking(traces, 1, "surprisal")
    assert [(e.orthography, d) for e, d in ranking] == [
        ("big", 3.0),
        ("mid", 1.0),
        ("nil", 0.0),
    ]


def test_divergence_ranking_tie_breaks_by_orthography(trie_b, toy_b):
    # Same evidence object for both words: identical acoustic values and
    # identical committed-path switch values, so the gaps tie exactly.
    traces = [
        metric_trace(trie_b, toy_b.lookup("bat")[0], EV),
        metric_trace(trie_b, toy_b.lookup("pat")[0], EV),
    ]
    ranking = model_divergence_ranking(traces, 2, "surprisal")
    gap = TOY_B_ACOUSTIC_S_T2 - TOY_B_SWITCH_S_BAE
    assert [e.orthography for e, _ in ranking] == ["bat", "pat"]
    assert all(close(d, gap) for _, d in ranking)


def test_divergence_ranking_word_oriented_evidence(trie_b, toy_b):
    # Evidence oriented per word (own onset first): bat's gap exceeds
    # pat's, so bat is the bigger outlier.
    traces = [
        metric_trace(trie_b, toy_b.lookup("bat")[0], AcousticEvidence("B", "P", 0.75)),
        metric_trace(trie_b, toy_b.lookup("pat")[0], AcousticEvidence("P", "B", 0.75)),
    ]
    ranking = model_divergence_ranking(traces, 2, "surprisal")
    assert [e.orthography for e, _ in ranking] == ["bat", "pat"]
    assert close(ranking[0][1], TOY_B_ACOUSTIC_S_T2 - TOY_B_SWITCH_S_BAE)
    assert close(ranking[1][1], TOY_B_ACOUSTIC_S_T2_PAT_VIEW - 1.0)


def test_divergence_ranking_zero_gaps_alphabetical(trie_b, toy_b):
    ev = AcousticEvidence("B", "P", 1.0)
    traces = [metric_trace(trie_b, e, ev) for e in toy_b.entries]
    ranking = model_divergence_ranking(traces, 1, "entropy")
    gaps = [d for _, d in ranking]
    assert all(close(d, 0.0) for d in gaps)
    assert [e.orthography for e, _ in ranking] == sorted(
        e.orthography for e in toy_b.entries
    )


def test_divergence_ranking_singleton():
    traces = [_fake_trace("solo", [(1.0, 2.5)])]
    ranking = model_divergence_ranking(traces, 1, "entropy")
    assert len(ranking) == 1
    assert close(ranking[0][1], 1.5)


def test_divergence_ranking_empty_position():
    traces = [_fake_trace("solo", [(1.0, 2.5)])]
    with pytest.raises(ValueError):
        model_divergence_ranking(traces, 9, "entropy")


# ------------------------------------------------------- oracle equivalence


def _oracle_point(naive, ev, pron, t):
    """MetricPoint field values at position t from the naive oracle, or
    None when the position is an impossible continuation."""
    a, b, p_a = ev.phoneme_a, ev.phoneme_b, ev.p_a
    continuation = tuple(pron[1:t])
    switch_prefix = (ev.committed,) + continuation
    try:
        if t == 1:
            ac_surprisal = oracle.acoustic_surprisal_onset(naive, a, b, p_a)
        else:
            ac_surprisal = oracle.acoustic_surprisal(naive, a, b, p_a, continuation)
        weights = oracle.acoustic_probs(naive, a, b, p_a, continuation)
        sw_surprisal = oracle.switch_surprisal(naive, switch_prefix)
        sw_entropy = oracle.switch_entropy(naive, switch_prefix)
    except ValueError:
        return None
    return MetricPoint(
        position=t,
        phoneme=pron[t - 1],
        switch_surprisal=sw_surprisal,
        acoustic_surprisal=ac_surprisal,
        switch_entropy=sw_entropy,
        acoustic_entropy=oracle.entropy_bits(weights.values()),
        switch_cohort_size=int(naive.mask(switch_prefix).sum()),
        joint_cohort_size=sum(1 for w in weights.values() if w > 0),
    )


def _trace_or_none(trie, entry, ev):
    try:
        return metric_trace(trie, entry, ev)
    except ImpossibleContinuationError:
        return None


def _assert_point_matches(got: MetricPoint, want: MetricPoint | None):
    assert want is not None
    assert (got.position, got.phoneme) == (want.position, want.phoneme)
    for name in (
        "switch_surprisal", "acoustic_surprisal", "switch_entropy", "acoustic_entropy",
    ):
        assert close(getattr(got, name), getattr(want, name)), name
    assert got.switch_cohort_size == want.switch_cohort_size
    assert got.joint_cohort_size == want.joint_cohort_size


def test_metrics_match_naive_oracle_small():
    rng = np.random.default_rng(22)
    rows = oracle.random_rows(rng, 120, n_phonemes=8)
    lex = make_lexicon(rows)
    trie = build_trie(lex)
    naive = oracle.NaiveLexicon([(o, tuple(p.split()), f) for o, p, f in rows])
    onsets = sorted({e.onset for e in lex.entries})
    for entry in lex.entries[:40]:
        onset = entry.onset
        other = next(o for o in onsets if o != onset)
        for p_a in (0.0, 0.3, 0.75, 1.0):
            ev = AcousticEvidence(onset, other, p_a)
            committed = ev.committed
            trace = _trace_or_none(trie, entry, ev)
            impossible_seen = False
            for t in range(1, len(entry.pron) + 1):
                # metric_trace raises iff some position is impossible;
                # otherwise every point matches the oracle.
                want_point = _oracle_point(naive, ev, entry.pron, t)
                impossible_seen |= want_point is None
                if trace is not None:
                    _assert_point_matches(trace.points[t - 1], want_point)
                continuation = entry.pron[1:t]
                switch_prefix = (committed,) + continuation
                if naive.prefix_frequency(switch_prefix) > 0:
                    assert close(
                        switch_entropy(trie, switch_prefix),
                        oracle.switch_entropy(naive, switch_prefix),
                    )
                    assert close(
                        switch_surprisal(trie, switch_prefix),
                        oracle.switch_surprisal(naive, switch_prefix),
                    )
                assert close(
                    acoustic_entropy(trie, ev, continuation),
                    oracle.acoustic_entropy(naive, onset, other, p_a, continuation),
                )
                # p_a = 0 toward an onset that does not admit the
                # continuation zeroes the inner term; both sides must
                # then refuse rather than return infinity.
                try:
                    if t == 1:
                        want = oracle.acoustic_surprisal_onset(naive, onset, other, p_a)
                    else:
                        want = oracle.acoustic_surprisal(
                            naive, onset, other, p_a, continuation
                        )
                except ValueError:
                    with pytest.raises(ImpossibleContinuationError):
                        if t == 1:
                            acoustic_surprisal(trie, ev, ())
                        else:
                            acoustic_surprisal(trie, ev, continuation)
                    continue
                if t == 1:
                    got = acoustic_surprisal(trie, ev, ())
                else:
                    got = acoustic_surprisal(trie, ev, continuation)
                assert close(got, want)
            assert (trace is None) == impossible_seen


@pytest.mark.parametrize(
    "rows",
    [
        # f * log2 f overflows to inf for these, but the ratios do not.
        [("bat", "B AE T", 8e307), ("bad", "B AE D", 8e307), ("pat", "P AE T", 1e307)],
        # A dominant word beside a tiny one: the case most prone to
        # cancellation in a log2 F - S/F closed form.
        [("bat", "B AE T", 1e15), ("bad", "B AE D", 1.0), ("pat", "P AE T", 1.0)],
    ],
    ids=["near-float-max", "dominant-word"],
)
def test_entropies_match_oracle_at_extreme_frequencies(rows):
    lex = make_lexicon(rows)
    trie = build_trie(lex)
    naive = oracle.NaiveLexicon([(o, tuple(p.split()), f) for o, p, f in rows])
    for entry in lex.entries:
        other = "P" if entry.onset == "B" else "B"
        for p_a in (0.0, 0.3, 0.5, 0.75, 1.0):
            ev = AcousticEvidence(entry.onset, other, p_a)
            trace = _trace_or_none(trie, entry, ev)
            for t in range(1, len(entry.pron) + 1):
                continuation = entry.pron[1:t]
                prefix = entry.pron[:t]
                assert close(
                    switch_entropy(trie, prefix), oracle.switch_entropy(naive, prefix)
                )
                assert close(
                    acoustic_entropy(trie, ev, continuation),
                    oracle.acoustic_entropy(naive, entry.onset, other, p_a, continuation),
                )
                want_point = _oracle_point(naive, ev, entry.pron, t)
                if trace is not None:
                    _assert_point_matches(trace.points[t - 1], want_point)


# ------------------------------------------- single walk vs per-prefix calls


def reference_metric_trace(trie, word, evidence):
    """`metric_trace` composed from the public per-prefix functions, each
    walking from the root, in the order the trace used to call them."""
    committed = evidence.committed
    points = []
    for position in range(1, len(word.pron) + 1):
        continuation = word.pron[1:position]
        switch_prefix = (committed,) + continuation
        if position == 1:
            ac_surprisal = acoustic_surprisal(trie, evidence, ())
        else:
            ac_surprisal = acoustic_surprisal(trie, evidence, continuation)
        ac_entropy = acoustic_entropy(trie, evidence, continuation)
        size_a = trie.cohort_size((evidence.phoneme_a,) + continuation)
        size_b = trie.cohort_size((evidence.phoneme_b,) + continuation)
        if size_a and size_b:
            joint_size = size_a * (evidence.p_a > 0) + size_b * (evidence.p_b > 0)
        else:
            joint_size = size_a + size_b
        points.append(
            MetricPoint(
                position=position,
                phoneme=word.pron[position - 1],
                switch_surprisal=switch_surprisal(trie, switch_prefix),
                acoustic_surprisal=ac_surprisal,
                switch_entropy=switch_entropy(trie, switch_prefix),
                acoustic_entropy=ac_entropy,
                switch_cohort_size=trie.cohort_size(switch_prefix),
                joint_cohort_size=joint_size,
            )
        )
    return MetricTrace(word, evidence, tuple(points))


def _trace_outcome(trace_fn, trie, word, evidence):
    """repr of the points (exact floats, signed zeros), or the error raised."""
    try:
        return repr(trace_fn(trie, word, evidence).points)
    except ValueError as exc:
        return type(exc), str(exc)


def _extreme_rows(rng):
    rows = oracle.random_rows(rng, 40, n_phonemes=4)
    return [(o, p, float(10.0 ** rng.uniform(-300, 300))) for o, p, _ in rows]


@pytest.mark.parametrize(
    "rows",
    [
        oracle.random_rows(np.random.default_rng(23), 60, n_phonemes=5),
        oracle.random_rows(np.random.default_rng(24), 60, n_phonemes=8, min_len=1),
        _extreme_rows(np.random.default_rng(25)),
        [("bat", "B AE T", 8e307), ("bad", "B AE D", 8e307), ("pat", "P AE T", 1e307)],
        [("bat", "B AE T", 1e15), ("bad", "B AE D", 1.0), ("pat", "P AE T", 1.0)],
    ],
    ids=["random", "random-short", "log-uniform", "near-float-max", "dominant-word"],
)
def test_single_walk_trace_matches_per_prefix_reference(rows):
    # Every truncation of every word is traced, so an error must come
    # from the same position: the truncation just before it traces, and
    # it and every longer one raise the same error.
    lex = make_lexicon(rows)
    trie, reference_trie = build_trie(lex), build_trie(lex)
    onsets = sorted({e.onset for e in lex.entries})
    n_errors = 0
    for entry in lex.entries:
        others = [o for o in onsets if o != entry.onset][:2] + ["ABSENT"]
        for other in others:
            for p_a in (0.0, 0.25, 0.5, 0.75, 1.0):
                for ev in (
                    AcousticEvidence(entry.onset, other, p_a),
                    AcousticEvidence(other, entry.onset, p_a),
                ):
                    for t in range(1, len(entry.pron) + 1):
                        word = dataclasses.replace(entry, pron=entry.pron[:t])
                        got = _trace_outcome(metric_trace, trie, word, ev)
                        want = _trace_outcome(
                            reference_metric_trace, reference_trie, word, ev
                        )
                        assert got == want, (entry, ev, t)
                        n_errors += isinstance(got, tuple)
    assert n_errors > 0  # impossible continuations are covered


def test_weighted_inner_check_survives_python_O():
    # Non-finite frequencies (NaN from inf/inf) or inconsistent ones (a
    # conditional probability above 1) must raise, not reach the output,
    # even with asserts stripped.
    script = (
        "import math\n"
        "from cohortlex import AcousticEvidence, ImpossibleContinuationError\n"
        "from cohortlex.metrics import _weighted_inner\n"
        "evidence = AcousticEvidence('B', 'P', 0.75)\n"
        "for now, before in (((math.inf, 1.0), (math.inf, 1.0)), ((4.0, 0.0), (1.0, 1.0))):\n"
        "    try:\n"
        "        print('returned', _weighted_inner(evidence, now, before))\n"
        "    except ImpossibleContinuationError as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(cohortlex.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "weighted inner term nan exceeds 1",
        "weighted inner term 3.0 exceeds 1",
    ]
