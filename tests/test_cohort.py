import math
import sys
from concurrent.futures import ThreadPoolExecutor
from threading import Barrier

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortlex import (
    AcousticEvidence,
    ImpossibleContinuationError,
    build_trace_set,
    build_trie,
    make_lexicon,
    metric_trace,
    switch_entropy,
    switch_surprisal,
)

import naive_oracle as oracle


def test_root_total(trie_b):
    assert trie_b.prefix_frequency(()) == 12.0


def test_onset_sums(trie_b):
    assert trie_b.prefix_frequency(("B",)) == 4.0
    assert trie_b.prefix_frequency(("P",)) == 8.0


def test_single_word_chain():
    trie = build_trie(make_lexicon([("a", "AH", 5.0)]))
    assert trie.prefix_frequency(()) == 5.0
    assert trie.prefix_frequency(("AH",)) == 5.0


def test_prefix_frequency_absent_is_zero(trie_b):
    assert trie_b.prefix_frequency(("Z",)) == 0.0
    assert trie_b.prefix_frequency(("B", "AE", "T", "S")) == 0.0


def test_cohort_probabilities(trie_b):
    cohort = trie_b.cohort_at(("B",))
    probs = {e.orthography: p for e, p in cohort.members}
    assert probs == {"bat": 0.75, "bin": 0.25}


def test_cohort_single_survivor(trie_b):
    cohort = trie_b.cohort_at(("B", "AE", "T"))
    assert [(e.orthography, p) for e, p in cohort.members] == [("bat", 1.0)]
    assert cohort.size == 1


def test_cohort_impossible_prefix(trie_b):
    with pytest.raises(ImpossibleContinuationError):
        trie_b.cohort_at(("Z",))
    with pytest.raises(ImpossibleContinuationError, match=r"^no word starts with /B Z/$"):
        switch_entropy(trie_b, ("B", "Z"))


def test_word_equal_to_prefix_stays_in_cohort():
    trie = build_trie(make_lexicon([("cat", "K AE T", 1.0), ("cats", "K AE T S", 1.0)]))
    members = {e.orthography for e, _ in trie.cohort_at(("K", "AE", "T")).members}
    assert members == {"cat", "cats"}


def test_conditional_prob(trie_b):
    assert trie_b.conditional_prob(("B", "AE")) == 0.75
    assert trie_b.conditional_prob(("P", "AE")) == 0.5


def test_conditional_prob_deterministic_continuation(trie_b):
    # [B, IH] leads only to N.
    assert trie_b.conditional_prob(("B", "IH", "N")) == 1.0


def test_conditional_prob_needs_nonempty_prefix(trie_b):
    # one check, in the shared lookup, whose message names no function
    for query in (trie_b.conditional_prob, lambda p: switch_surprisal(trie_b, p)):
        with pytest.raises(ValueError, match=r"^prefix must have length >= 1$"):
            query(())


def test_conditional_prob_dead_denominator(trie_b):
    with pytest.raises(ImpossibleContinuationError):
        trie_b.conditional_prob(("Z", "AE"))


def test_conditional_prob_zero_numerator_is_zero(trie_b):
    assert trie_b.conditional_prob(("B", "AE", "S")) == 0.0


def test_uniqueness_point(trie_b, toy_b):
    bin_entry = toy_b.lookup("bin")[0]
    assert trie_b.uniqueness_point(bin_entry) == 2


def test_uniqueness_point_single_word():
    lex = make_lexicon([("a", "AH", 5.0)])
    assert build_trie(lex).uniqueness_point(lex.entries[0]) == 1


def test_uniqueness_point_prefix_embedded_word_is_none():
    lex = make_lexicon([("cat", "K AE T", 1.0), ("cats", "K AE T S", 1.0)])
    trie = build_trie(lex)
    assert trie.uniqueness_point(lex.lookup("cat")[0]) is None
    assert trie.uniqueness_point(lex.lookup("cats")[0]) == 4


def test_uniqueness_point_homophones_never_isolate():
    lex = make_lexicon([("bear", "B EH R", 3.0), ("bare", "B EH R", 5.0)])
    trie = build_trie(lex)
    assert trie.uniqueness_point(lex.lookup("bear")[0]) is None


def test_uniqueness_point_unknown_entry(trie_b):
    stranger = make_lexicon([("zoo", "Z UW", 1.0)]).entries[0]
    with pytest.raises(KeyError):
        trie_b.uniqueness_point(stranger)


def test_empty_lexicon_rejected():
    # Lexicon validation is the one empty check: no trie is built from
    # an empty lexicon because no empty Lexicon exists.
    with pytest.raises(ValueError, match="empty lexicon"):
        build_trie(make_lexicon([]))


def _walk(node, path=()):
    yield path, node
    for phoneme, child in node.children.items():
        yield from _walk(child, path + (phoneme,))


def test_node_frequency_invariant():
    rng = np.random.default_rng(11)
    rows = oracle.random_rows(rng, 60)
    trie = build_trie(make_lexicon(rows))
    for path, node in _walk(trie._node_at(())):
        child_sum = sum(c.cum_freq for c in node.children.values())
        terminal_sum = sum(trie.lexicon.frequencies[i] for i in node.terminals)
        assert math.isclose(
            node.cum_freq, child_sum + terminal_sum, rel_tol=0, abs_tol=1e-9
        ), path
        assert node.cum_freq > 0


def test_prefix_frequency_monotone_under_extension():
    rng = np.random.default_rng(12)
    rows = oracle.random_rows(rng, 80)
    lex = make_lexicon(rows)
    trie = build_trie(lex)
    for entry in lex.entries:
        previous = trie.prefix_frequency(())
        for t in range(1, len(entry.pron) + 1):
            now = trie.prefix_frequency(entry.pron[:t])
            assert now <= previous
            previous = now


def _prefix_frequency_ratio(trie, prefix):
    """conditional_prob's definition from two prefix_frequency walks: the
    reference its one-descent lookup is pinned to."""
    denominator = trie.prefix_frequency(prefix[:-1])
    if denominator == 0:
        raise ImpossibleContinuationError(
            f"prefix /{' '.join(prefix[:-1])}/ has no cohort"
        )
    return trie.prefix_frequency(prefix) / denominator


def _outcome(query, prefix):
    try:
        return ("value", query(prefix))
    except ValueError as exc:  # ImpossibleContinuationError included
        return (type(exc), str(exc))


_PHONEMES = ("B", "P", "AE", "T")
_lexicon_rows = st.lists(
    st.tuples(
        st.lists(st.sampled_from(_PHONEMES), min_size=1, max_size=5),
        st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=25,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=_lexicon_rows)
def test_conditional_prob_is_the_prefix_frequency_ratio(rows):
    trie = build_trie(
        make_lexicon([(f"w{i}", tuple(pron), freq) for i, (pron, freq) in enumerate(rows)])
    )
    live = {tuple(pron[:k]) for pron, _ in rows for k in range(len(pron) + 1)}
    # Every live prefix one phoneme on (dead where no word continues so,
    # "Z" is in no lexicon), and each dead one a phoneme further.
    extended = {p + (ph,) for p in live for ph in _PHONEMES + ("Z",)}
    prefixes = extended | {p + ("B",) for p in extended - live}
    for prefix in sorted(prefixes):
        got = _outcome(trie.conditional_prob, prefix)
        assert got == _outcome(lambda p: _prefix_frequency_ratio(trie, p), prefix)
        if got[0] == "value" and got[1] > 0:
            assert switch_surprisal(trie, prefix) == max(0.0, -math.log2(got[1]))
        elif got[0] == "value":
            with pytest.raises(ImpossibleContinuationError, match="no surviving cohort"):
                switch_surprisal(trie, prefix)
        else:
            assert _outcome(lambda p: switch_surprisal(trie, p), prefix) == got


def test_conditional_prob_telescopes():
    rng = np.random.default_rng(13)
    rows = oracle.random_rows(rng, 80)
    lex = make_lexicon(rows)
    trie = build_trie(lex)
    total = trie.prefix_frequency(())
    for entry in lex.entries:
        product = 1.0
        for t in range(1, len(entry.pron) + 1):
            product *= trie.conditional_prob(entry.pron[:t])
        expected = trie.prefix_frequency(entry.pron) / total
        assert math.isclose(product, expected, rel_tol=1e-12)


def test_cohort_probs_sum_to_one():
    rng = np.random.default_rng(14)
    rows = oracle.random_rows(rng, 120)
    lex = make_lexicon(rows)
    trie = build_trie(lex)
    naive = oracle.NaiveLexicon([(o, tuple(p.split()), f) for o, p, f in rows])
    for prefix in naive.all_prefixes():
        members = trie.cohort_at(prefix).members
        assert abs(sum(p for _, p in members) - 1.0) <= 1e-9


def test_oracle_equivalence_small():
    rng = np.random.default_rng(15)
    rows = oracle.random_rows(rng, 150)
    lex = make_lexicon(rows)
    trie = build_trie(lex)
    naive = oracle.NaiveLexicon([(o, tuple(p.split()), f) for o, p, f in rows])
    for prefix in naive.all_prefixes():
        assert trie.prefix_frequency(prefix) == naive.prefix_frequency(prefix)
        expected = naive.cohort(prefix)
        got = {
            (e.orthography, e.pron): p for e, p in trie.cohort_at(prefix).members
        }
        assert got.keys() == expected.keys()
        for key, p in expected.items():
            assert abs(got[key] - p) <= 1e-12
        assert (
            abs(switch_entropy(trie, prefix) - oracle.switch_entropy(naive, prefix))
            <= 1e-12
        )


def test_entropy_of_a_pronunciation_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    pron = " ".join(["AH", "T"] * (depth // 2))
    trie = build_trie(make_lexicon([("long", pron, 1.0), ("short", "AH T", 1.0)]))
    assert switch_entropy(trie, ()) == 1.0
    assert switch_entropy(trie, ("AH", "T", "AH")) == 0.0


def _first_queries(rows):
    """Entropy at the root and every prefix, then a trace of every word:
    (lexicon, number of queries, query(trie, i))."""
    prefixes = [()] + oracle.NaiveLexicon(
        [(o, tuple(p.split()), f) for o, p, f in rows]
    ).all_prefixes()
    lex = make_lexicon(rows)
    onsets = sorted({e.onset for e in lex.entries})
    evidences = [
        AcousticEvidence(e.onset, next(o for o in onsets if o != e.onset), 0.75)
        for e in lex.entries
    ]

    def query(trie, i):
        if i < len(prefixes):
            return switch_entropy(trie, prefixes[i])
        j = i - len(prefixes)
        try:
            return metric_trace(trie, lex.entries[j], evidences[j]).points
        except ImpossibleContinuationError as exc:
            return str(exc)

    return lex, len(prefixes) + len(lex.entries), query


def test_onset_growth_is_safe_under_concurrent_first_queries():
    # Covers the trie's one first-use write: threads that reach an ungrown
    # onset each grow its whole subtree, entropies included, and publish it
    # by one assignment, the later replacing the earlier.
    rng = np.random.default_rng(16)
    lex, n_queries, query = _first_queries(oracle.random_rows(rng, 300))
    want = [query(build_trie(lex), i) for i in range(n_queries)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            # A fresh trie each round, so every thread races on ungrown
            # onsets: all start together on the whole-trie entropy, which
            # grows every onset, then query in different orders.
            trie = build_trie(lex)
            orders = [[0] + list(range(n_queries))[::step] for step in (1, -1, 1, -1)]
            barrier = Barrier(len(orders))

            def run(order):
                barrier.wait(timeout=60)
                return [(i, query(trie, i)) for i in order]

            with ThreadPoolExecutor(max_workers=len(orders)) as pool:
                futures = [pool.submit(run, order) for order in orders]
                for future in futures:
                    for i, got in future.result(timeout=60):
                        assert got == want[i]
    finally:
        sys.setswitchinterval(old_interval)


def _values(node):
    return [
        (path, n.cum_freq, n.n_entries, n.terminals, n.entropy) for path, n in _walk(node)
    ]


def test_a_race_that_grows_an_onset_twice_reads_equal_values():
    # The interleaving a lock would prevent: a second thread found an onset
    # ungrown before the first published it, and its subtree replaces the
    # one the first thread is still reading.
    rng = np.random.default_rng(18)
    lex, n_queries, query = _first_queries(oracle.random_rows(rng, 100, n_phonemes=4))
    reference = build_trie(lex)
    want = [query(reference, i) for i in range(n_queries)]
    trie = build_trie(lex)
    for onset in trie._onset_entries:
        first = trie._onset(onset)
        del trie._onsets[onset]  # the second thread's check saw no subtree
        second = trie._onset(onset)
        assert second is not first and trie._onset(onset) is second
        assert _values(first) == _values(second) == _values(reference._onset(onset))
    assert [query(trie, i) for i in range(n_queries)] == want


def test_tracing_one_pair_leaves_other_onsets_unexpanded():
    rows = [
        (f"{onset.lower()}{i}", f"{onset} {vowel} {coda}", float(i + 1))
        for onset in ("B", "P", "D", "T", "AH")
        for i, (vowel, coda) in enumerate(
            [("AE", "T"), ("AE", "D"), ("IH", "N"), ("EH", "K")]
        )
    ]
    trie = build_trie(make_lexicon(rows))
    traces = build_trace_set(trie, (0.25, 0.75), (("B", "P"),))
    assert {t.word.onset for t in traces} == {"B", "P"}
    # Read the grown onsets without growing any: only the traced pair's.
    assert list(trie._onsets) == ["B", "P"]
    for onset in ("B", "P"):
        assert _values(trie._onsets[onset]) == _values(build_trie(trie.lexicon)._onset(onset))


def _eager_listing(entries, depth):
    """Entries in the order a fully built trie lists a cohort: a node's own
    entries in lexicon order, then each child's listing, the children in
    order of first appearance."""
    listing = [e for e in entries if len(e.pron) == depth]
    groups = {}
    for e in entries:
        if len(e.pron) > depth:
            groups.setdefault(e.pron[depth], []).append(e)
    for group in groups.values():
        listing += _eager_listing(group, depth + 1)
    return listing


def test_lazy_trie_matches_an_eager_build_bit_for_bit():
    # Non-integer frequencies, so a total that is not correctly rounded
    # would show in the last bits; prefixes are queried in random order, so
    # onsets are first grown in an arbitrary order.
    rng = np.random.default_rng(17)
    rows = [
        (o, p, float(rng.lognormal(0.0, 3.0)))
        for o, p, _ in oracle.random_rows(rng, 200, n_phonemes=5)
    ]
    lex = make_lexicon(rows)
    trie = build_trie(lex)
    naive = oracle.NaiveLexicon([(o, tuple(p.split()), f) for o, p, f in rows])
    # The empty prefix too: the root's total, size, listing and entropy.
    prefixes = [()] + naive.all_prefixes()
    for i in rng.permutation(len(prefixes)):
        prefix = prefixes[i]
        matching = [e for e in lex.entries if e.pron[: len(prefix)] == prefix]
        total = math.fsum(e.frequency for e in matching)
        assert trie.prefix_frequency(prefix) == total
        assert trie.cohort_size(prefix) == len(matching)
        members = trie.cohort_at(prefix).members
        assert [e for e, _ in members] == _eager_listing(matching, len(prefix))
        assert [p for _, p in members] == [e.frequency / total for e, _ in members]
    assert abs(switch_entropy(trie, ()) - oracle.switch_entropy(naive, ())) <= 1e-12


def test_cohort_deterministic_order(trie_b):
    first = [e.orthography for e, _ in trie_b.cohort_at(("P",)).members]
    second = [e.orthography for e, _ in trie_b.cohort_at(("P",)).members]
    assert first == second == ["pat", "pin"]
