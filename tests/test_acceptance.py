"""Acceptance suite: the end-to-end guarantees the library promises.

One test per guarantee, each printing a single summary line with its key
measurements (visible under pytest -s, or in the captured-output section
of a failure report). Statistical checks run at fixed seeds so the suite
is deterministic; timed suites assert their runtime budgets.
"""

import ast
import inspect
import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import cohortlex
from cohortlex import (
    AcousticEvidence,
    ImpossibleContinuationError,
    acoustic_entropy,
    acoustic_surprisal,
    build_trace_set,
    build_trie,
    chi_square_sf,
    find_word_pairs,
    make_lexicon,
    metric_trace,
    model_correlation,
    model_recovery,
    permutation_calibration,
    simulate_dataset,
    switch_entropy,
    switch_surprisal,
)
from tests import naive_oracle as oracle
from tests.conftest import SIM_ROWS, TOY_A_ROWS, TOY_B_ROWS
from tests.weighted_cohort import acoustic_weighted_probs


def build_both(rows):
    """The package trie and the naive oracle over the same rows."""
    triples = [(o, tuple(p.split()), f) for o, p, f in rows]
    return build_trie(make_lexicon(triples)), oracle.NaiveLexicon(triples)


def distinct_prefixes(rows):
    seen = set()
    for _, pron, _ in rows:
        pron = tuple(pron.split())
        for k in range(1, len(pron) + 1):
            seen.add(pron[:k])
    return sorted(seen, key=lambda p: (len(p), p))


def test_certain_evidence_entropy_reduction_suite():
    # with all evidence mass on one onset, the weighted distribution must
    # collapse to the committed cohort: entropies equal within 1e-12,
    # checked at every prefix of 100 random lexicons (10 to 1000 words)
    rng = np.random.default_rng(101)
    sizes = (
        [int(rng.integers(10, 101)) for _ in range(85)]
        + [int(rng.integers(101, 401)) for _ in range(12)]
        + [int(rng.integers(700, 1001)) for _ in range(3)]
    )
    start = time.monotonic()
    n_checks = 0
    worst = 0.0
    for i, size in enumerate(sizes):
        rows = oracle.random_rows(np.random.default_rng(1000 + i), size)
        trie, _ = build_both(rows)
        inventory = sorted({ph for _, pron, _ in rows for ph in pron.split()})
        for prefix in distinct_prefixes(rows):
            onset = prefix[0]
            other = inventory[0] if inventory[0] != onset else inventory[1]
            tail = prefix[1:]
            reference = switch_entropy(trie, prefix)
            for evidence in (
                AcousticEvidence(onset, other, 1.0),
                AcousticEvidence(other, onset, 0.0),
            ):
                deviation = abs(acoustic_entropy(trie, evidence, tail) - reference)
                worst = max(worst, deviation)
                assert deviation <= 1e-12
                n_checks += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"PASS reduction identity: {len(sizes)} lexicons "
        f"({min(sizes)}-{max(sizes)} words), {n_checks} checks, "
        f"max deviation {worst:.2e}, {elapsed:.1f}s"
    )


def test_trie_matches_naive_enumeration_suite():
    # the trie's cumulative counts, cohort distributions, and all four
    # metrics must agree with full-lexicon rescanning within 1e-12
    start = time.monotonic()
    n_checks = 0
    worst = 0.0

    def close(a, b):
        nonlocal n_checks, worst
        deviation = abs(a - b)
        worst = max(worst, deviation)
        assert deviation <= 1e-12
        n_checks += 1

    for size, seed in ((10, 7), (37, 8), (120, 9), (400, 10), (1000, 11)):
        rng = np.random.default_rng(seed)
        rows = oracle.random_rows(rng, size)
        trie, naive = build_both(rows)
        inventory = sorted(naive.symbol_id)
        close(trie.prefix_frequency(()), naive.total_frequency())
        for prefix in naive.all_prefixes():
            close(trie.prefix_frequency(prefix), naive.prefix_frequency(prefix))
            expected = naive.cohort(prefix)
            members = trie.cohort_at(prefix).members
            assert {
                (e.orthography, e.pron) for e, _ in members
            } == set(expected)
            for entry, prob in members:
                close(prob, expected[(entry.orthography, entry.pron)])
            close(switch_entropy(trie, prefix), oracle.switch_entropy(naive, prefix))
            close(
                switch_surprisal(trie, prefix),
                oracle.switch_surprisal(naive, prefix),
            )
            onset = prefix[0]
            other = inventory[int(rng.integers(len(inventory)))]
            if other == onset:
                other = inventory[0] if inventory[0] != onset else inventory[1]
            tail = prefix[1:]
            for p_a in (0.0, 0.25, 0.6, 1.0):
                evidence = AcousticEvidence(onset, other, p_a)
                close(
                    acoustic_entropy(trie, evidence, tail),
                    oracle.acoustic_entropy(naive, onset, other, p_a, tail),
                )
                if tail:
                    try:
                        expected_s = oracle.acoustic_surprisal(
                            naive, onset, other, p_a, tail
                        )
                    except ValueError:
                        with pytest.raises(ImpossibleContinuationError):
                            acoustic_surprisal(trie, evidence, tail)
                        continue
                    close(acoustic_surprisal(trie, evidence, tail), expected_s)
                else:
                    try:
                        expected_s = oracle.acoustic_surprisal_onset(
                            naive, onset, other, p_a
                        )
                    except ValueError:
                        with pytest.raises(ImpossibleContinuationError):
                            acoustic_surprisal(trie, evidence, ())
                        continue
                    close(acoustic_surprisal(trie, evidence, ()), expected_s)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"PASS naive-oracle agreement: lexicons up to 1000 words, "
        f"{n_checks} comparisons, max deviation {worst:.2e}, {elapsed:.1f}s"
    )


def test_hand_computed_fixture_values():
    # three independently hand-derived values on the toy lexicons
    trie_a = build_trie(make_lexicon(TOY_A_ROWS))
    trie_b = build_trie(make_lexicon(TOY_B_ROWS))
    evidence = AcousticEvidence("B", "P", 0.75)
    onset_h = acoustic_entropy(trie_a, evidence, ())
    t2_acoustic = acoustic_surprisal(trie_b, evidence, ("AE",))
    t2_switch = switch_surprisal(trie_b, ("B", "AE"))
    assert abs(onset_h - 1.419736) <= 1e-6
    assert abs(t2_acoustic - 1.678072) <= 1e-6
    assert abs(t2_switch - 0.415037) <= 1e-6
    print(
        f"PASS hand fixtures: onset entropy {onset_h:.6f}, "
        f"weighted surprisal {t2_acoustic:.6f}, "
        f"committed surprisal {t2_switch:.6f} (all within 1e-6)"
    )


def test_weighted_distribution_normalization_suite():
    # the evidence-weighted word distribution is a probability
    # distribution: 10,000 randomized queries must sum to 1 +- 1e-9
    rng = np.random.default_rng(202)
    n_queries = 0
    worst = 0.0
    while n_queries < 10_000:
        size = int(rng.integers(10, 301))
        rows = oracle.random_rows(rng, size)
        trie, _ = build_both(rows)
        prons = [tuple(p.split()) for _, p, _ in rows]
        inventory = sorted({ph for pron in prons for ph in pron})
        for _ in range(100):
            if n_queries >= 10_000:
                break
            pron = prons[int(rng.integers(len(prons)))]
            t = int(rng.integers(1, len(pron) + 1))
            alive, partner = pron[0], inventory[int(rng.integers(len(inventory)))]
            if partner == alive:
                partner = inventory[0] if inventory[0] != alive else inventory[1]
            if rng.random() < 0.5:
                evidence = AcousticEvidence(alive, partner, float(rng.uniform(0, 1)))
            else:
                evidence = AcousticEvidence(partner, alive, float(rng.uniform(0, 1)))
            weighted = acoustic_weighted_probs(trie, evidence, pron[1:t])
            deviation = abs(math.fsum(p for _, p in weighted.members) - 1.0)
            worst = max(worst, deviation)
            assert deviation <= 1e-9
            n_queries += 1
    print(
        f"PASS normalization: {n_queries} weighted-distribution queries, "
        f"max |sum - 1| = {worst:.2e}"
    )


def test_chi_square_reference_values():
    # survival-function arithmetic for the df=1 statistics the comparison
    # harness reports, plus the exact df=2 closed form
    references = [
        (5.02, 0.0251),
        (2.62, 0.1055),
        (3.49, 0.0617),
        (5.26, 0.0218),
    ]
    for x, expected in references:
        assert abs(chi_square_sf(x, 1) - expected) <= 5e-4
    for x in (0.0, 0.1, 0.5, 1.0, 2.63, 5.0, 12.0, 40.0):
        assert abs(chi_square_sf(x, 2) - math.exp(-x / 2.0)) <= 1e-12
    computed = ", ".join(f"sf({x},1)={chi_square_sf(x, 1):.4f}" for x, _ in references)
    print(f"PASS chi-square arithmetic: {computed}; df=2 closed form to 1e-12")


def test_model_recovery_detects_generator():
    # responses generated from the weighted model must be attributed to
    # it: detection >= 90% with real effects, and at the nominal false
    # rate with null effects
    trie = build_trie(make_lexicon(SIM_ROWS))
    traces = build_trace_set(trie)
    start = time.monotonic()
    positive = model_recovery(
        traces, position=2, generator="acoustic", betas=(1.0, 1.0),
        noise_sd=0.5, n_subjects=10, subject_sd=1.0, trials_per_subject=500,
        n_sims=100, alpha=0.05, seed=2026,
    )
    null = model_recovery(
        traces, position=2, generator="acoustic", betas=(0.0, 0.0),
        noise_sd=0.5, n_subjects=10, subject_sd=1.0, trials_per_subject=500,
        n_sims=100, alpha=0.05, seed=2027,
    )
    elapsed = time.monotonic() - start
    assert positive.generating_detection_rate >= 0.90
    assert 0.02 <= null.generating_detection_rate <= 0.08
    assert elapsed < 300.0
    print(
        f"PASS model recovery: detection "
        f"{positive.generating_detection_rate:.2f} with real effects, "
        f"false rate {null.generating_detection_rate:.2f} with null effects "
        f"(100 sims each, {elapsed:.1f}s)"
    )


def test_permutation_rejection_rate_calibrated():
    # with responses shuffled, the removal test must reject at the
    # nominal rate: 0.05 +- 0.03 over 500 permutations
    trie = build_trie(make_lexicon(SIM_ROWS))
    traces = build_trace_set(trie)
    data = simulate_dataset(
        traces, position=2, generator="acoustic", betas=(1.0, 1.0),
        noise_sd=0.5, n_subjects=10, subject_sd=1.0, trials_per_subject=500,
        seed=11,
    )
    result = permutation_calibration(data, n_permutations=500, alpha=0.05, seed=2028)
    assert 0.02 <= result.fraction_below_alpha <= 0.08
    print(
        f"PASS permutation calibration: rejection rate "
        f"{result.fraction_below_alpha:.3f} at alpha 0.05 over 500 permutations"
    )


def paired_lexicon(seed, n_pairs=55):
    """Random voicing-paired lexicon: every B-word has a P twin."""
    rng = np.random.default_rng(seed)
    vowels = ["AE", "IH", "EH", "AA", "UH", "IY", "OW", "AO"]
    codas = ["T", "D", "N", "S", "K", "G", "M", "L"]
    tails = [(v, c) for v in vowels for c in codas]
    rng.shuffle(tails)
    rows = []
    for i, (vowel, coda) in enumerate(tails[:n_pairs]):
        rows.append((f"b{i:03d}", ("B", vowel, coda), float(rng.integers(1, 100))))
        rows.append((f"p{i:03d}", ("P", vowel, coda), float(rng.integers(1, 100))))
    return make_lexicon(rows)


def test_cross_model_correlation_tightens_with_certainty():
    # as the evidence sharpens the weighted entropy converges on the
    # committed-cohort entropy, so their correlation at the second
    # phoneme must rise (weakly) to 1.0 across the sweep
    trie = build_trie(paired_lexicon(7))
    assert len(trie.lexicon) >= 100  # 50+ onset pairs
    sweep = [0.5 + 0.1 * step for step in range(6)]
    entropy_r = []
    surprisal_r = []
    for p_a in sweep:
        traces = build_trace_set(trie, ambiguities=(p_a,))
        assert len(traces) == len(trie.lexicon)
        entropy_r.append(model_correlation(traces, 2, "entropy"))
        surprisal_r.append(model_correlation(traces, 2, "surprisal"))
    for earlier, later in zip(entropy_r, entropy_r[1:]):
        assert later - earlier >= -1e-6
    assert entropy_r[-1] == pytest.approx(1.0, abs=1e-9)
    assert entropy_r[-1] > entropy_r[0]
    path = " -> ".join(f"{r:.4f}" for r in entropy_r)
    print(
        f"PASS correlation sweep: entropy r {path} over p_a 0.5..1.0 "
        f"(surprisal r ends at {surprisal_r[-1]:.4f}, not asserted: the "
        f"weighted surprisal keeps its joint-cohort term at certainty)"
    )


def test_paired_stimulus_search_fixture():
    # the canonical long-overlap pair must be found with its shared
    # phonemes at positions 2-4 and divergence at position 5
    lexicon = make_lexicon(
        [
            ("balance", "B AE L AH N S", 10.0),
            ("palate", "P AE L AH T", 4.0),
            ("bin", "B IH N", 2.0),
            ("mat", "M AE T", 7.0),
            ("pat", "P AE T", 5.0),
        ]
    )
    pairs = find_word_pairs(lexicon, min_shared=3)
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.word_a == "balance"
    assert pair.word_b == "palate"
    assert (pair.onset_a, pair.onset_b) == ("B", "P")
    assert pair.shared_len == 3
    (entry_a,) = lexicon.lookup(pair.word_a)
    (entry_b,) = lexicon.lookup(pair.word_b)
    assert entry_a.pron[1:4] == entry_b.pron[1:4]
    assert pair.divergence_point == 5
    print(
        "PASS stimulus fixture: balance/palate shares phonemes 2-4 and "
        "diverges at position 5"
    )


def test_package_checks_survive_python_optimize():
    # `python -O` strips assert statements, so a check written as one
    # would vanish; every check in the package raises instead
    sources = sorted(Path(cohortlex.__file__).parent.glob("*.py"))
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert sources and found == [], f"assert statements in the package: {found}"
    print(f"PASS no assert statements in {len(sources)} package modules")


def test_all_lists_exactly_the_public_functions_and_classes():
    modules = ("lexicon", "cohort", "metrics", "stimuli", "continuum", "analysis")
    defined = {
        name
        for module in modules
        for name, value in vars(getattr(cohortlex, module)).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == f"cohortlex.{module}"
    }
    exported = {name: getattr(cohortlex, name) for name in cohortlex.__all__}
    assert len(exported) == len(cohortlex.__all__)
    listed = {
        name for name, value in exported.items()
        if inspect.isfunction(value) or inspect.isclass(value)
    }
    assert listed == defined
    print(f"PASS __all__ lists {len(listed)} functions and classes, no others")


def test_readme_library_tour_runs_and_prints_its_values():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1].split("```python\n", 1)[1]
    code = tour.split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    commented = [
        (match[1], float(match[2]))
        for match in re.finditer(r"^(.+?)\s+# ([0-9.]+) bits", code, re.MULTILINE)
    ]
    assert [value for _, value in commented] == [0.415037, 1.678072, 2.362570]
    for expression, value in commented:
        assert f"{eval(expression, namespace):.6f}" == f"{value:.6f}", expression
    print(f"PASS README library tour: {len(commented)} commented values reproduced")
