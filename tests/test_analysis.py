import csv
import math
import tracemalloc
from dataclasses import asdict, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortlex import (
    AMBIGUITY_LEVELS,
    FULL_PREDICTORS,
    MODEL_PREDICTORS,
    PLOSIVE_VOICING_PAIRS,
    REGRESSION_FIELDS,
    AcousticEvidence,
    CalibrationResult,
    ComparisonRecord,
    FitResult,
    ImpossibleContinuationError,
    NestingError,
    RegressionDataset,
    SingularDesignError,
    bonferroni_alpha,
    build_trace_set,
    build_trie,
    chi_square_sf,
    compare_removals,
    likelihood_ratio_test,
    make_lexicon,
    metric_trace,
    model_recovery,
    ols_fit,
    permutation_calibration,
    simulate_dataset,
    write_dataset,
)
from cohortlex import analysis
from cohortlex.analysis import VARIANCE_FLOOR, _design_matrix
from tests.conftest import SIM_ROWS

METRIC_NAMES = (
    "acoustic_surprisal",
    "acoustic_entropy",
    "switch_surprisal",
    "switch_entropy",
)


COLUMN_DEFAULTS = {
    "acoustic_surprisal": 1.0,
    "acoustic_entropy": 0.5,
    "switch_surprisal": 1.2,
    "switch_entropy": 0.4,
    "phoneme_latency": 87.0,
    "trial_number": 1,
    "block_number": 1,
    "onset_amplitude": 0.0,
    "phoneme_pair": "B-P",
    "ambiguity": 0.75,
    "subject_id": "s1",
}


def without_model(model):
    """The full predictor set minus one model's surprisal and entropy."""
    return tuple(name for name in FULL_PREDICTORS if name not in MODEL_PREDICTORS[model])


def make_dataset(response, **overrides):
    """A dataset with the given responses; every other column is the
    override (a sequence, or one value for every row) or its default."""
    n = len(response)
    columns = {"response": response}
    for name, value in {**COLUMN_DEFAULTS, **overrides}.items():
        columns[name] = value if isinstance(value, (list, np.ndarray)) else [value] * n
    return RegressionDataset(columns)


def random_dataset(rng, n, response=None):
    # one observation at a time, drawing in field order
    columns = {name: [] for name in REGRESSION_FIELDS}
    for i in range(n):
        columns["response"].append(
            response[i] if response is not None else float(rng.normal())
        )
        columns["acoustic_surprisal"].append(float(rng.normal(2.0, 1.0)))
        columns["acoustic_entropy"].append(float(rng.normal(1.0, 0.5)))
        columns["switch_surprisal"].append(float(rng.normal(2.0, 1.0)))
        columns["switch_entropy"].append(float(rng.normal(1.0, 0.5)))
        columns["phoneme_latency"].append(float(rng.normal(87.0, 25.0)))
        columns["trial_number"].append(int(rng.integers(1, 100)))
        columns["block_number"].append(int(rng.integers(1, 6)))
        columns["onset_amplitude"].append(float(rng.normal()))
        columns["phoneme_pair"].append(("B-P", "D-T")[int(rng.integers(2))])
        columns["ambiguity"].append(AMBIGUITY_LEVELS[int(rng.integers(2))])
        columns["subject_id"].append(f"s{int(rng.integers(1, 5))}")
    return RegressionDataset(columns)


def same_data(first, second):
    """Every column equal, value for value."""
    return all(
        first.columns[name].tolist() == second.columns[name].tolist()
        for name in REGRESSION_FIELDS
    )


def test_dataset_rejects_invalid_columns():
    with pytest.raises(
        ValueError, match=r"ambiguity must be one of \(0.25, 0.75\), got 0.5"
    ):
        make_dataset([0.0], ambiguity=0.5)
    columns = make_dataset([0.0, 1.0]).columns
    missing = {k: v for k, v in columns.items() if k != "subject_id"}
    with pytest.raises(ValueError, match=r"missing columns: \['subject_id'\]"):
        RegressionDataset(missing)
    with pytest.raises(ValueError, match=r"unknown dataset columns: \['word'\]"):
        RegressionDataset({**columns, "word": columns["subject_id"]})
    with pytest.raises(ValueError, match="unequal lengths"):
        RegressionDataset({**columns, "trial_number": [1, 2, 3]})
    with pytest.raises(ValueError, match="1-D"):
        RegressionDataset({**columns, "response": [[0.0, 1.0]]})


def test_ols_recovers_exact_linear_relation():
    rng = np.random.default_rng(11)
    response, surprisal, entropy = [], [], []
    for _ in range(50):
        s = float(rng.normal(2.0, 1.0))
        h = float(rng.normal(1.0, 0.5))
        response.append(2.0 + 1.5 * s - 0.5 * h)
        surprisal.append(s)
        entropy.append(h)
    data = make_dataset(response, acoustic_surprisal=surprisal, acoustic_entropy=entropy)
    fit = ols_fit(data, ("acoustic_surprisal", "acoustic_entropy"))
    assert fit.coefficients["(intercept)"] == pytest.approx(2.0, abs=1e-9)
    assert fit.coefficients["acoustic_surprisal"] == pytest.approx(1.5, abs=1e-9)
    assert fit.coefficients["acoustic_entropy"] == pytest.approx(-0.5, abs=1e-9)
    assert fit.n == 50
    assert fit.p == 3
    # noiseless fit bottoms out at the variance floor instead of log(0)
    assert fit.residual_variance == VARIANCE_FLOOR
    assert math.isfinite(fit.log_likelihood)


def test_ols_rejects_an_unknown_predictor():
    data = random_dataset(np.random.default_rng(12), 20)
    with pytest.raises(ValueError, match=r"unknown predictors: \['loudness'\]"):
        ols_fit(data, ("acoustic_surprisal", "loudness"))


def test_dummy_coding_drops_first_sorted_level():
    rng = np.random.default_rng(12)
    data = random_dataset(rng, 80)
    fit = ols_fit(data, ("phoneme_pair", "ambiguity", "subject_id"))
    assert set(fit.coefficients) == {
        "(intercept)",
        "phoneme_pair=D-T",
        "ambiguity=0.75",
        "subject_id=s2",
        "subject_id=s3",
        "subject_id=s4",
    }


def test_dummy_offsets_recovered_exactly():
    rng = np.random.default_rng(13)
    response, pairs, ambiguities = [], [], []
    for _ in range(40):
        pair = ("B-P", "D-T")[int(rng.integers(2))]
        amb = AMBIGUITY_LEVELS[int(rng.integers(2))]
        y = 1.0 + (2.0 if pair == "D-T" else 0.0) + (-3.0 if amb == 0.75 else 0.0)
        response.append(y)
        pairs.append(pair)
        ambiguities.append(amb)
    data = make_dataset(response, phoneme_pair=pairs, ambiguity=ambiguities)
    fit = ols_fit(data, ("phoneme_pair", "ambiguity"))
    assert fit.coefficients["(intercept)"] == pytest.approx(1.0, abs=1e-9)
    assert fit.coefficients["phoneme_pair=D-T"] == pytest.approx(2.0, abs=1e-9)
    assert fit.coefficients["ambiguity=0.75"] == pytest.approx(-3.0, abs=1e-9)


def test_duplicate_column_is_singular():
    rng = np.random.default_rng(14)
    response, surprisal = [], []
    for _ in range(30):
        s = float(rng.normal())
        surprisal.append(s)
        response.append(float(rng.normal()))
    data = make_dataset(
        response, acoustic_surprisal=surprisal, switch_surprisal=surprisal
    )
    with pytest.raises(SingularDesignError) as excinfo:
        ols_fit(data, ("acoustic_surprisal", "switch_surprisal"))
    assert "surprisal" in str(excinfo.value)


def test_constant_predictor_collides_with_intercept():
    data = make_dataset([float(i) for i in range(20)], acoustic_entropy=0.7)
    with pytest.raises(SingularDesignError):
        ols_fit(data, ("acoustic_entropy",))


def test_log_likelihood_monotone_under_nesting():
    rng = np.random.default_rng(15)
    data = random_dataset(rng, 120)
    nested = [
        ("acoustic_surprisal",),
        ("acoustic_surprisal", "acoustic_entropy"),
        ("acoustic_surprisal", "acoustic_entropy", "phoneme_latency"),
        ("acoustic_surprisal", "acoustic_entropy", "phoneme_latency", "phoneme_pair"),
        FULL_PREDICTORS,
    ]
    logliks = [ols_fit(data, preds).log_likelihood for preds in nested]
    for smaller, larger in zip(logliks, logliks[1:]):
        assert larger >= smaller - 1e-9


def test_lrt_identical_models_is_null_result():
    rng = np.random.default_rng(16)
    data = random_dataset(rng, 60)
    fit = ols_fit(data, ("acoustic_surprisal", "acoustic_entropy"))
    result = likelihood_ratio_test(fit, fit)
    assert result.chi2 == 0.0
    assert result.df == 0
    assert result.p_value == 1.0


def test_lrt_default_df_is_parameter_difference():
    rng = np.random.default_rng(17)
    data = random_dataset(rng, 100)
    full = ols_fit(data, FULL_PREDICTORS)
    reduced = ols_fit(data, without_model("acoustic"))
    result = likelihood_ratio_test(full, reduced)
    assert result.df == 2
    assert result.chi2 >= 0.0
    assert result.chi2 == pytest.approx(
        2.0 * (full.log_likelihood - reduced.log_likelihood), abs=1e-9
    )
    assert result.p_value == pytest.approx(chi_square_sf(result.chi2, 2), abs=1e-15)


def test_lrt_df_override():
    rng = np.random.default_rng(18)
    data = random_dataset(rng, 100)
    full = ols_fit(data, ("acoustic_surprisal", "acoustic_entropy"))
    reduced = ols_fit(data, ("acoustic_surprisal",))
    result = likelihood_ratio_test(full, reduced, df=3)
    assert result.df == 3
    assert result.p_value == pytest.approx(chi_square_sf(result.chi2, 3), abs=1e-15)
    with pytest.raises(NestingError):
        likelihood_ratio_test(full, reduced, df=-1)


@pytest.mark.parametrize("df", [None, 0])
def test_lrt_nan_gain_raises_and_negative_gain_clamps(df):
    def fit(log_likelihood, predictors):
        return FitResult({}, 1.0, log_likelihood, n=10, p=1 + len(predictors),
                         predictors=frozenset(predictors))

    reduced = fit(-5.0, ("acoustic_surprisal",))
    with pytest.raises(ValueError, match="NaN"):
        likelihood_ratio_test(fit(math.nan, METRIC_NAMES), reduced, df=df)
    result = likelihood_ratio_test(fit(-6.0, METRIC_NAMES), reduced, df=df)
    assert (result.chi2, result.delta_loglik) == (0.0, -1.0)


def test_lrt_rejects_non_nested_models():
    rng = np.random.default_rng(19)
    data = random_dataset(rng, 60)
    acoustic = ols_fit(data, ("acoustic_surprisal", "acoustic_entropy"))
    switch = ols_fit(data, ("switch_surprisal", "switch_entropy"))
    with pytest.raises(NestingError):
        likelihood_ratio_test(acoustic, switch)


def test_lrt_rejects_mismatched_row_counts():
    rng = np.random.default_rng(20)
    data = random_dataset(rng, 60)
    full = ols_fit(data, ("acoustic_surprisal", "acoustic_entropy"))
    first_50 = RegressionDataset({k: v[:50] for k, v in data.columns.items()})
    reduced = ols_fit(first_50, ("acoustic_surprisal",))
    with pytest.raises(NestingError):
        likelihood_ratio_test(full, reduced)


def test_null_lrt_matches_chi_square_reference():
    # under a true null the statistic should look like chi-square(df=2):
    # its mean sits near 2 and small p-values appear at the nominal rate
    rng = np.random.default_rng(21)
    chi2s = []
    pvals = []
    for _ in range(300):
        data = random_dataset(rng, 80)
        full = ols_fit(
            data, ("phoneme_latency", "acoustic_surprisal", "acoustic_entropy")
        )
        reduced = ols_fit(data, ("phoneme_latency",))
        result = likelihood_ratio_test(full, reduced)
        chi2s.append(result.chi2)
        pvals.append(result.p_value)
    assert 1.5 < float(np.mean(chi2s)) < 2.7
    fraction = float(np.mean(np.asarray(pvals) < 0.05))
    assert 0.01 < fraction < 0.12


def test_chi_square_sf_at_zero():
    for df in range(1, 11):
        assert chi_square_sf(0.0, df) == 1.0


def test_chi_square_sf_df1_matches_erfc():
    for x in (0.001, 0.1, 0.5, 1.0, 2.62, 3.49, 5.02, 5.26, 10.0, 30.0):
        assert chi_square_sf(x, 1) == pytest.approx(
            math.erfc(math.sqrt(x / 2.0)), abs=1e-12
        )


def test_chi_square_sf_df2_closed_form():
    for x in (0.0, 0.3, 1.0, 2.63, 7.5, 40.0):
        assert abs(chi_square_sf(x, 2) - math.exp(-x / 2.0)) < 1e-12


def chi_square_sf_closed_form(x, df):
    """Chi-square upper tail from its finite-sum closed forms."""
    t = x / 2.0
    if df % 2 == 0:
        terms = [math.exp(-t) * t**k / math.factorial(k) for k in range(df // 2)]
    else:
        terms = [math.erfc(math.sqrt(t))] + [
            math.exp(-t) * t ** (k - 0.5) / math.gamma(k + 0.5)
            for k in range(1, (df - 1) // 2 + 1)
        ]
    return math.fsum(terms)


def test_chi_square_sf_matches_closed_forms():
    for df in range(1, 11):
        for x in (0.0, 0.05, 0.8, 2.0, 4.0, 9.0, 25.0, 80.0, 200.0):
            assert chi_square_sf(x, df) == pytest.approx(
                chi_square_sf_closed_form(x, df), abs=1e-12
            )


def test_chi_square_sf_monotone():
    xs = np.linspace(0.01, 20.0, 60)
    for df in (1, 2, 5):
        values = [chi_square_sf(float(x), df) for x in xs]
        for earlier, later in zip(values, values[1:]):
            assert later < earlier
    # heavier tails with more degrees of freedom
    assert chi_square_sf(4.0, 1) < chi_square_sf(4.0, 2) < chi_square_sf(4.0, 5)


def test_chi_square_sf_extremes_stay_in_unit_interval():
    assert 0.0 <= chi_square_sf(800.0, 1) < 1e-100
    assert chi_square_sf(1e-12, 3) <= 1.0
    assert chi_square_sf(math.inf, 3) == 0.0


def test_chi_square_sf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chi_square_sf(-0.1, 1)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 0)
    # a NaN statistic is an error, not the smallest possible p-value
    with pytest.raises(ValueError):
        chi_square_sf(math.nan, 1)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, math.nan)


def test_chi_square_sf_returns_python_floats():
    assert type(chi_square_sf(3.0, 2)) is float


def test_chi_square_sf_matches_closed_forms_from_df_11_to_40():
    # with test_chi_square_sf_matches_closed_forms: df 1-40
    for df in range(11, 41):
        for x in (0.0, 0.05, 0.8, 2.0, 4.0, 9.0, 25.0, 80.0, 200.0):
            assert chi_square_sf(x, df) == pytest.approx(
                chi_square_sf_closed_form(x, df), abs=1e-12
            )


def test_chi_square_sf_matches_scipy_chdtrc():
    # scipy is a test dependency only: the package sums the closed forms
    from scipy import special

    for df in range(1, 41):
        xs = np.concatenate([
            np.geomspace(1e-12, 5 * df + 50, 120), np.linspace(0.5, 5 * df + 50, 60),
        ])
        for x in xs.tolist():
            assert chi_square_sf(x, df) == pytest.approx(
                float(special.chdtrc(df, x)), rel=1e-12, abs=0
            )
    # far in the tail, where the plain product of the terms underflows
    tail = chi_square_sf(1495.0, 500)
    assert math.isfinite(tail) and tail > 0.0
    assert tail == pytest.approx(float(special.chdtrc(500, 1495.0)), rel=1e-12, abs=0)


def test_chi_square_sf_ends_of_the_range():
    for df in (1, 2, 3, 40, 501):
        assert chi_square_sf(math.inf, df) == 0.0
        assert chi_square_sf(0.0, df) == 1.0


def test_chi_square_sf_with_a_huge_df_sums_only_the_peak():
    # the terms far from j = x/2 are not summed: a df of 10^12 costs what
    # its peak's width does
    assert chi_square_sf(3.0, 10**12) == 1.0
    assert chi_square_sf(3.0, 10**12 + 1) == 1.0
    assert chi_square_sf(1e6, 2) == 0.0


def test_non_integer_df_is_rejected():
    with pytest.raises(ValueError, match=r"df must be an integer, got 1\.5"):
        chi_square_sf(3.0, 1.5)
    data = random_dataset(np.random.default_rng(19), 60)
    full = ols_fit(data, ("acoustic_surprisal", "acoustic_entropy"))
    reduced = ols_fit(data, ("acoustic_surprisal",))
    with pytest.raises(ValueError, match=r"df must be an integer, got 1\.5"):
        likelihood_ratio_test(full, reduced, df=1.5)
    with pytest.raises(ValueError, match=r"df must be an integer, got 2\.5"):
        compare_removals(data, df=2.5)
    # an integral float is an integer df
    assert chi_square_sf(3.0, 2.0) == chi_square_sf(3.0, 2)


def test_bonferroni_alpha():
    assert bonferroni_alpha(0.05) == pytest.approx(0.05 / 6)


def test_build_trace_set_orients_evidence_per_word(trie_b):
    traces = build_trace_set(trie_b)
    # four onset-paired words at two ambiguity levels
    assert len(traces) == 8
    for trace in traces:
        assert trace.evidence.phoneme_a == trace.word.onset
        assert trace.evidence.p_a in AMBIGUITY_LEVELS


def test_build_trace_set_traces_one_phoneme_words():
    trie = build_trie(make_lexicon(SIM_ROWS + [("b", "B", 1.0)]))
    traces = [t for t in build_trace_set(trie) if t.word.orthography == "b"]
    assert [t.evidence.p_a for t in traces] == list(AMBIGUITY_LEVELS)
    assert all(len(t.points) == 1 for t in traces)


@st.composite
def lognormal_lexicon_rows(draw):
    """Rows of a random lexicon with lognormal frequencies, so no float sum
    of them is exact. Few phonemes make shared prefixes and partner paths
    that die part way; no word starts with K, so the partner path of the
    G word in every lexicon dies at its onset."""
    words = draw(st.lists(
        st.tuples(
            st.sampled_from(("B", "P", "D", "T", "G", "S")),
            st.lists(st.sampled_from(("AE", "IH", "T", "N")), max_size=3),
        ),
        min_size=1,
        max_size=24,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    frequencies = rng.lognormal(0.0, 3.0, len(words) + 1).tolist()
    prons = [("G", "AE")] + [(onset, *rest) for onset, rest in words]
    return [(f"w{i}", " ".join(pron), f) for i, (pron, f) in enumerate(zip(prons, frequencies))]


TRACED_LEVELS = (0.25, 0.5, 0.75)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=lognormal_lexicon_rows())
def test_build_trace_set_is_metric_trace_word_by_word(rows):
    # The builder's contract: one metric_trace per voicing-onset word and
    # level, in lexicon order and then level order, and each impossible
    # continuation reported to on_skip at the same place in that order.
    trie = build_trie(make_lexicon(rows))
    skipped = []
    traces = build_trace_set(
        trie, TRACED_LEVELS, on_skip=lambda entry, p_a: skipped.append((entry, p_a))
    )
    partner = dict(PLOSIVE_VOICING_PAIRS + tuple((b, a) for a, b in PLOSIVE_VOICING_PAIRS))
    want, want_skipped = [], []
    for entry in trie.lexicon.entries:
        if entry.onset not in partner:
            continue
        for p_a in TRACED_LEVELS:
            evidence = AcousticEvidence(entry.onset, partner[entry.onset], p_a)
            try:
                want.append(metric_trace(trie, entry, evidence))
            except ImpossibleContinuationError:
                want_skipped.append((entry, p_a))
    assert traces == want
    assert skipped == want_skipped
    assert (trie.lexicon.entry(0), 0.25) in skipped


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rows=lognormal_lexicon_rows(), data=st.data())
def test_row_order_does_not_reach_totals_or_trace_bits(rows, data):
    # Every sum over the lexicon's words is correctly rounded, so a
    # reordering of the rows changes no bit of the total or of any point.
    order = data.draw(st.permutations(range(len(rows))))
    for smoothing in (0.0, 0.1):
        # parse_lexicon's smoothing adds the constant to each frequency
        smoothed = [(o, p, f + smoothing) for o, p, f in rows]
        results = []
        for lexicon_rows in (smoothed, [smoothed[i] for i in order]):
            trie = build_trie(make_lexicon(lexicon_rows))
            results.append((
                trie.lexicon.total_frequency,
                {
                    (t.word.orthography, t.word.pron, t.evidence.p_a): repr(t.points)
                    for t in build_trace_set(trie, TRACED_LEVELS)
                },
            ))
        assert results[0] == results[1]


def test_simulate_dataset_is_deterministic(trie_b):
    traces = build_trace_set(trie_b)
    kwargs = dict(
        position=2,
        generator="acoustic",
        betas=(1.0, 1.0),
        noise_sd=0.5,
        n_subjects=3,
        subject_sd=1.0,
        trials_per_subject=20,
        seed=42,
    )
    first = simulate_dataset(traces, **kwargs)
    second = simulate_dataset(traces, **kwargs)
    assert same_data(first, second)
    different = simulate_dataset(traces, **{**kwargs, "seed": 43})
    assert not same_data(first, different)


def test_simulate_dataset_shape_and_fields(trie_b):
    traces = build_trace_set(trie_b)
    data = simulate_dataset(
        traces,
        position=2,
        generator="switch",
        betas=(1.0, 1.0),
        noise_sd=0.5,
        n_subjects=12,
        subject_sd=1.0,
        trials_per_subject=7,
        seed=1,
    )
    assert not any(column.flags.writeable for column in data.columns.values())
    columns = {name: data.columns[name].tolist() for name in REGRESSION_FIELDS}
    assert len(data) == 12 * 7
    assert set(columns["subject_id"]) == {f"s{i:02d}" for i in range(1, 13)}
    assert set(columns["phoneme_pair"]) == {"B-P"}
    assert set(columns["ambiguity"]) <= set(AMBIGUITY_LEVELS)
    assert all(1 <= t <= 7 for t in columns["trial_number"])
    assert all(1 <= b <= 5 for b in columns["block_number"])


def test_simulate_dataset_noise_free_response_is_linear(trie_b):
    traces = build_trace_set(trie_b)
    data = simulate_dataset(
        traces,
        position=2,
        generator="acoustic",
        betas=(2.0, -1.0),
        noise_sd=0.0,
        n_subjects=2,
        subject_sd=0.0,
        trials_per_subject=30,
        seed=9,
    )
    columns = data.columns
    for response, surprisal, entropy in zip(
        columns["response"], columns["acoustic_surprisal"], columns["acoustic_entropy"]
    ):
        expected = 2.0 * surprisal - 1.0 * entropy
        assert response == pytest.approx(expected, abs=1e-12)


def test_simulate_dataset_null_betas_leave_metrics_uncorrelated(trie_sim):
    traces = build_trace_set(trie_sim)
    data = simulate_dataset(
        traces,
        position=2,
        generator="acoustic",
        betas=(0.0, 0.0),
        noise_sd=1.0,
        n_subjects=4,
        subject_sd=0.0,
        trials_per_subject=600,
        seed=3,
    )
    y = data.columns["response"]
    for name in METRIC_NAMES:
        x = data.columns[name]
        assert abs(float(np.corrcoef(x, y)[0, 1])) < 0.1


def test_simulate_dataset_argument_validation(trie_b):
    traces = build_trace_set(trie_b)
    common = dict(
        betas=(1.0, 1.0),
        noise_sd=0.5,
        n_subjects=3,
        subject_sd=1.0,
        trials_per_subject=5,
        seed=0,
    )
    with pytest.raises(ValueError):
        simulate_dataset(traces, position=2, generator="hybrid", **common)
    with pytest.raises(ValueError):
        simulate_dataset(traces, position=9, generator="acoustic", **common)
    with pytest.raises(ValueError):
        simulate_dataset(
            traces, position=2, generator="acoustic",
            **{**common, "n_subjects": 1},
        )


@pytest.mark.parametrize(
    "override, name",
    [
        ({"trials_per_subject": 0}, "trials_per_subject"),
        ({"trials_per_subject": -1}, "trials_per_subject"),
        ({"noise_sd": -1.0}, "noise_sd"),
        ({"noise_sd": math.inf}, "noise_sd"),
        ({"noise_sd": math.nan}, "noise_sd"),
        ({"subject_sd": -0.5}, "subject_sd"),
        ({"subject_sd": math.nan}, "subject_sd"),
        ({"betas": (math.nan, 1.0)}, "betas"),
        ({"betas": (1.0, -math.inf)}, "betas"),
    ],
)
def test_simulate_dataset_rejects_bad_parameters_by_name(trie_b, override, name):
    traces = build_trace_set(trie_b)
    kwargs = dict(
        position=2, generator="acoustic", betas=(1.0, 1.0), noise_sd=0.5,
        n_subjects=3, subject_sd=1.0, trials_per_subject=5, seed=0,
    )
    with pytest.raises(ValueError, match=name):
        simulate_dataset(traces, **{**kwargs, **override})


def test_write_dataset_round_trip(tmp_path, trie_b):
    traces = build_trace_set(trie_b)
    data = simulate_dataset(
        traces,
        position=2,
        generator="acoustic",
        betas=(1.0, 1.0),
        noise_sd=0.5,
        n_subjects=2,
        subject_sd=1.0,
        trials_per_subject=4,
        seed=2,
    )
    path = tmp_path / "sim.csv"
    write_dataset(data, path)
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        assert tuple(reader.fieldnames) == REGRESSION_FIELDS
        parsed = list(reader)
    assert len(parsed) == len(data)
    assert float(parsed[0]["response"]) == pytest.approx(data.columns["response"][0])
    assert parsed[0]["subject_id"] == data.columns["subject_id"][0]


def test_compare_removals_detects_only_the_generator(trie_sim):
    traces = build_trace_set(trie_sim)
    data = simulate_dataset(
        traces,
        position=2,
        generator="acoustic",
        betas=(1.0, 1.0),
        noise_sd=0.3,
        n_subjects=6,
        subject_sd=1.0,
        trials_per_subject=400,
        seed=8,
    )
    results = compare_removals(data)
    assert set(results) == {"acoustic", "switch"}
    assert results["acoustic"].df == 2
    assert results["switch"].df == 2
    assert results["acoustic"].p_value < 1e-6
    assert results["acoustic"].chi2 > results["switch"].chi2


def test_model_recovery_needs_a_simulation(trie_sim):
    with pytest.raises(ValueError, match="need at least one simulation, got 0"):
        model_recovery(
            build_trace_set(trie_sim), position=2, generator="acoustic",
            betas=(1.0, 1.0), noise_sd=0.3, n_subjects=4, subject_sd=0.5,
            trials_per_subject=20, n_sims=0, alpha=0.05, seed=5,
        )


@pytest.mark.parametrize("alpha", [float("nan"), 0.0, 1.0, 1.5, -1.0])
def test_recovery_and_calibration_reject_alpha_outside_0_1(trie_sim, alpha):
    recovery = dict(
        traces=build_trace_set(trie_sim), position=2, generator="acoustic",
        betas=(1.0, 1.0), noise_sd=0.3, n_subjects=4, subject_sd=0.5,
        trials_per_subject=20, n_sims=1, alpha=alpha, seed=5,
    )
    data = random_dataset(np.random.default_rng(14), 40)
    message = rf"^alpha must be in \(0, 1\), got {alpha}$"
    with pytest.raises(ValueError, match=message):
        model_recovery(**recovery)
    with pytest.raises(ValueError, match=message):
        permutation_calibration(data, n_permutations=5, alpha=alpha, seed=1)
    # The count checks still come first.
    with pytest.raises(ValueError, match="need at least one simulation"):
        model_recovery(**{**recovery, "n_sims": 0})
    with pytest.raises(ValueError, match="need at least one permutation"):
        permutation_calibration(data, n_permutations=0, alpha=alpha, seed=1)


def test_model_recovery_small_run(trie_sim):
    traces = build_trace_set(trie_sim)
    summary = model_recovery(
        traces,
        position=2,
        generator="acoustic",
        betas=(1.0, 1.0),
        noise_sd=0.3,
        n_subjects=4,
        subject_sd=0.5,
        trials_per_subject=200,
        n_sims=4,
        alpha=0.05,
        seed=5,
    )
    assert summary.n_sims == 4
    assert len(summary.records) == 8
    assert summary.generating_detection_rate == summary.acoustic_detection_rate
    for rate in (summary.acoustic_detection_rate, summary.switch_detection_rate):
        assert 0.0 <= rate <= 1.0
    # strong signal, low noise: the generator should be found every time
    assert summary.generating_detection_rate == 1.0
    by_sim = {}
    for record in summary.records:
        by_sim.setdefault(record.sim, set()).add(record.removed)
        # the CSV and JSON writers print bool and float cells by exact type
        assert type(record.p_value) is float
        assert type(record.detected) is bool
    assert all(models == {"acoustic", "switch"} for models in by_sim.values())


def test_model_recovery_memory_does_not_grow_with_subjects_times_rows(trie_sim):
    # Demeaning within subject takes per-subject sums over row segments;
    # a dense rows x subjects operator would hold 64 MB per array here
    # (4,000 rows x 2,000 subjects).
    traces = build_trace_set(trie_sim)
    tracemalloc.start()
    try:
        model_recovery(
            traces, position=2, generator="acoustic", betas=(1.0, 1.0), noise_sd=0.5,
            n_subjects=2000, subject_sd=1.0, trials_per_subject=2, n_sims=1,
            alpha=0.05, seed=1,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_permutation_calibration_fraction_near_alpha(trie_sim):
    traces = build_trace_set(trie_sim)
    data = simulate_dataset(
        traces,
        position=2,
        generator="acoustic",
        betas=(1.0, 1.0),
        noise_sd=0.5,
        n_subjects=4,
        subject_sd=1.0,
        trials_per_subject=100,
        seed=6,
    )
    result = permutation_calibration(data, n_permutations=200, alpha=0.05, seed=44)
    assert isinstance(result, CalibrationResult)
    assert result.n_permutations == 200
    assert len(result.p_values) == 200
    assert all(0.0 <= p <= 1.0 for p in result.p_values)
    # loose sanity band; the tight calibration check runs many more
    # permutations in the acceptance suite
    assert 0.0 <= result.fraction_below_alpha <= 0.15
    repeat = permutation_calibration(data, n_permutations=200, alpha=0.05, seed=44)
    assert repeat.p_values == result.p_values


def test_permutation_calibration_argument_validation(trie_sim):
    traces = build_trace_set(trie_sim)
    data = simulate_dataset(
        traces,
        position=2,
        generator="acoustic",
        betas=(1.0, 1.0),
        noise_sd=0.5,
        n_subjects=2,
        subject_sd=1.0,
        trials_per_subject=30,
        seed=6,
    )
    with pytest.raises(ValueError):
        permutation_calibration(data, n_permutations=0, alpha=0.05, seed=1)


def test_permutation_calibration_rejects_singular_design():
    rng = np.random.default_rng(14)
    data = random_dataset(rng, 40)
    data = RegressionDataset(
        {**data.columns, "switch_surprisal": data.columns["acoustic_surprisal"]}
    )
    with pytest.raises(SingularDesignError, match="surprisal"):
        ols_fit(data, FULL_PREDICTORS)
    with pytest.raises(SingularDesignError, match="surprisal"):
        permutation_calibration(data, n_permutations=5, alpha=0.05, seed=1)


def test_removal_tests_need_more_rows_than_parameters():
    # 12 rows and 12 parameters: intercept, eight continuous columns, one
    # ambiguity dummy and two subject dummies, with a single phoneme pair
    data = random_dataset(np.random.default_rng(15), 12)
    data = RegressionDataset({
        **data.columns,
        "phoneme_pair": ["B-P"] * 12,
        "ambiguity": list(AMBIGUITY_LEVELS) * 6,
        "subject_id": ["s1", "s2", "s3"] * 4,
    })
    assert _design_matrix(data, FULL_PREDICTORS)[0].shape == (12, 12)
    message = r"need more rows than parameters: n=12, p=12"
    with pytest.raises(ValueError, match=message):
        ols_fit(data, FULL_PREDICTORS)
    with pytest.raises(ValueError, match=message):
        compare_removals(data)
    with pytest.raises(ValueError, match=message):
        permutation_calibration(data, n_permutations=5, alpha=0.05, seed=1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_design_columns_are_named(bad):
    data = random_dataset(np.random.default_rng(18), 40)
    entropy = data.columns["acoustic_entropy"].copy()
    entropy[3] = bad
    data = RegressionDataset({**data.columns, "acoustic_entropy": entropy})
    message = r"design columns are not finite: \['acoustic_entropy'\]"
    with pytest.raises(ValueError, match=message):
        ols_fit(data, FULL_PREDICTORS)
    with pytest.raises(ValueError, match=message):
        compare_removals(data)
    with pytest.raises(ValueError, match=message):
        permutation_calibration(data, n_permutations=5, alpha=0.05, seed=1)


def test_removal_tests_reject_negative_df():
    data = random_dataset(np.random.default_rng(16), 40)
    message = r"negative degrees of freedom: -1"
    with pytest.raises(NestingError, match=message):
        compare_removals(data, df=-1)


def test_calibration_p_values_equal_compare_removals():
    # each permutation round is compare_removals' acoustic removal on the
    # permuted dataset
    data = random_dataset(np.random.default_rng(17), 60)
    result = permutation_calibration(data, n_permutations=15, alpha=0.05, seed=9)
    y = data.columns["response"]
    permutations = np.random.default_rng(9)
    expected = []
    for _ in range(15):
        shuffled = RegressionDataset(
            {**data.columns, "response": y[permutations.permutation(len(y))]}
        )
        expected.append(compare_removals(shuffled)["acoustic"].p_value)
    assert result.p_values == tuple(expected)
    assert len(set(expected)) == 15


def test_least_squares_matches_lstsq_reference():
    # ols_fit and permutation_calibration share one QR factor-and-solve
    # path; pin both to an independent SVD least-squares solve.
    rng = np.random.default_rng(22)
    data = random_dataset(rng, 120)
    n = len(data)
    X_full, names = _design_matrix(data, FULL_PREDICTORS)
    X_reduced, _ = _design_matrix(data, without_model("acoustic"))
    y = data.columns["response"]

    def sse(X, response):
        beta, *_ = np.linalg.lstsq(X, response, rcond=None)
        return float(np.sum((response - X @ beta) ** 2)), beta

    sse_full, beta_full = sse(X_full, y)
    fit = ols_fit(data, FULL_PREDICTORS)
    assert [fit.coefficients[name] for name in names] == pytest.approx(
        beta_full.tolist(), abs=1e-10
    )
    assert fit.residual_variance == pytest.approx(sse_full / n, rel=1e-10)

    permutations = np.random.default_rng(5)
    expected = []
    for _ in range(20):
        shuffled = y[permutations.permutation(n)]
        chi2 = n * math.log(sse(X_reduced, shuffled)[0] / sse(X_full, shuffled)[0])
        expected.append(chi_square_sf(max(0.0, chi2), 2))
    result = permutation_calibration(data, n_permutations=20, alpha=0.05, seed=5)
    assert result.p_values == pytest.approx(expected, abs=1e-9)


def grouped_columns(rng, rows_per_subject, pairs=("B-P", "D-T", "G-K")):
    """random_dataset's columns with phoneme pairs drawn from `pairs` and
    subject k (s1, s2, ...) on rows_per_subject[k] consecutive rows."""
    data = random_dataset(rng, sum(rows_per_subject))
    return {
        **data.columns,
        "phoneme_pair": rng.choice(pairs, len(data)),
        "subject_id": np.repeat(
            [f"s{k + 1}" for k in range(len(rows_per_subject))], rows_per_subject
        ),
    }


# Removal-test designs: three subjects of unequal size, and the recovery
# benchmark's shape, 10 subjects x 500 trials numbered 1-500 with latency
# N(87, 25), the scales that set its conditioning.
LSTSQ_DESIGNS = {
    "unequal subjects": lambda rng: grouped_columns(rng, [17, 40, 63]),
    "benchmark shape": lambda rng: {
        **grouped_columns(rng, [500] * 10),
        "trial_number": rng.integers(1, 501, 5000),
    },
}


@pytest.mark.parametrize("df", [None, 1])
def test_removal_test_sses_match_lstsq_reference(monkeypatch, df):
    # The removal tests demean within subject and factor the design once;
    # every SSE they take (the full fit's, then each reduced fit's) must
    # equal an SVD least-squares solve of the whole design, or of its
    # column subset, to 1e-12.
    loglik_from_sse = analysis._loglik_from_sse
    for design in LSTSQ_DESIGNS.values():
        data = RegressionDataset(design(np.random.default_rng(24)))
        y = data.columns["response"]
        seen = []

        def record(n, sse):
            seen.append(sse)
            return loglik_from_sse(n, sse)

        monkeypatch.setattr(analysis, "_loglik_from_sse", record)
        results = analysis._removal_tests(data, MODEL_PREDICTORS, df)(y)
        expected = []
        for predictors in (FULL_PREDICTORS, without_model("acoustic"), without_model("switch")):
            X, _ = _design_matrix(data, predictors)
            beta, *_ = np.linalg.lstsq(X, y, rcond=None)
            expected.append(float(np.sum((y - X @ beta) ** 2)))
        assert seen == pytest.approx(expected, rel=1e-12)
        assert [result.df for result in results.values()] == [2 if df is None else df] * 2


@pytest.mark.parametrize("shape", ["square", "column left reduced"])
def test_householder_factors_reproduce_numpy_qr_when_a_tau_is_zero(shape):
    # A Householder step whose column has nothing below the diagonal has
    # tau = 0: the last step of a square design, or a column that the
    # first reflector, acting on two rows only, leaves reduced. The
    # compact-WY factors must still give numpy's Q and R.
    rng = np.random.default_rng(3)
    if shape == "square":
        design, zero = rng.normal(size=(5, 5)), 4
    else:
        design, zero = rng.normal(size=(8, 3)), 1
        design[2:, :2] = 0.0
    assert np.linalg.qr(design, mode="raw")[1][zero] == 0.0
    names = [f"x{j}" for j in range(design.shape[1])]
    v, t, r = analysis._householder(design, names)
    q, r_reference = np.linalg.qr(design, mode="complete")
    y = rng.normal(size=len(design))
    assert np.allclose(y - v @ (t.T @ (v.T @ y)), q.T @ y, rtol=0, atol=1e-12)
    assert np.allclose(np.eye(len(design)) - v @ t @ v.T, q, rtol=0, atol=1e-12)
    assert np.allclose(r, r_reference[: design.shape[1]], rtol=0, atol=1e-12)


@st.composite
def small_datasets(draw):
    """Random datasets of 2-5 subjects with unequal row counts and 1-3
    phoneme pairs, with one of two kinds of damage or none: a duplicated
    surprisal column, or a covariate constant within each subject.
    Sometimes the subjects are ids among s1-s12 in an order their string
    sort need not keep, and their rows are interleaved."""
    rows = draw(st.lists(st.integers(8, 30), min_size=2, max_size=5, unique=True))
    pairs = draw(st.integers(1, 3))
    damage = draw(st.sampled_from([None, None, "duplicate", "within-subject"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = grouped_columns(rng, rows, ("B-P", "D-T", "G-K")[:pairs])
    if damage == "duplicate":
        columns["switch_surprisal"] = columns["acoustic_surprisal"]
    elif damage == "within-subject":
        columns["onset_amplitude"] = np.repeat(rng.normal(size=len(rows)), rows)
    if draw(st.booleans()):
        ids = draw(st.permutations(range(1, 13)))[: len(rows)]
        columns["subject_id"] = np.repeat([f"s{k}" for k in ids], rows)
        shuffle = rng.permutation(sum(rows))
        columns = {name: np.asarray(column)[shuffle] for name, column in columns.items()}
    return RegressionDataset(columns), damage


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(drawn=small_datasets())
def test_removal_tests_match_separate_fits(drawn):
    # compare_removals partials out one design; ols_fit fits each design
    # apart. Both must agree on every test, or both reject the design.
    data, damage = drawn
    if damage is not None:
        with pytest.raises(SingularDesignError) as separate:
            ols_fit(data, FULL_PREDICTORS)
        with pytest.raises(SingularDesignError) as partialled:
            compare_removals(data)
        if damage == "duplicate":
            assert "surprisal" in str(separate.value)
            assert "surprisal" in str(partialled.value)
        return
    full = ols_fit(data, FULL_PREDICTORS)
    for df in (None, 1):
        assert_same_tests(compare_removals(data, df), {
            model: likelihood_ratio_test(full, ols_fit(data, without_model(model)), df=df)
            for model in MODEL_PREDICTORS
        })


def spanned_by_earlier(X):
    """The columns of X, in order, that raise no matrix rank of the
    columns before them."""
    ranks = [0] + [np.linalg.matrix_rank(X[:, : j + 1]) for j in range(X.shape[1])]
    return [j for j in range(X.shape[1]) if ranks[j + 1] == ranks[j]]


DAMAGES = ("duplicate", "sum", "scaled", "constant", "dummy", "within-subject")


@st.composite
def damaged_columns(draw):
    """Grouped dataset columns (grouped_columns) with 0-3 exact collinearities
    drawn from DAMAGES, each setting one continuous column: a copy, a sum
    or a scaled copy of others, a constant (the intercept), the 0.75
    ambiguity dummy, or a value per subject (the subject intercepts).
    Sometimes each pair's ambiguity is fixed, so that a pair dummy equals
    the ambiguity dummy."""
    rows = draw(st.lists(st.integers(8, 15), min_size=2, max_size=4, unique=True))
    pairs = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = grouped_columns(rng, rows, ("B-P", "D-T", "G-K")[:pairs])
    if pairs == 2 and draw(st.booleans()):
        columns["ambiguity"] = np.where(columns["phoneme_pair"] == "B-P", 0.25, 0.75)
    names = list(analysis.CONTINUOUS_PREDICTORS)
    for damage in draw(st.lists(st.sampled_from(DAMAGES), max_size=3)):
        target, first, second = draw(st.permutations(names))[:3]
        columns[target] = {
            "duplicate": lambda: columns[first],
            "sum": lambda: np.add(columns[first], columns[second], dtype=float),
            "scaled": lambda: 3.7 * np.asarray(columns[first], dtype=float),
            "constant": lambda: np.full(sum(rows), 2.5),
            "dummy": lambda: (np.asarray(columns["ambiguity"]) == 0.75).astype(float),
            "within-subject": lambda: np.repeat(rng.normal(size=len(rows)), rows),
        }[damage]()
    return columns


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(columns=damaged_columns())
def test_singular_designs_name_the_columns_spanned_by_earlier_ones(columns):
    # The rank rule: a column is named when it lies in the span of the
    # columns before it, in each path's design order. ols_fit's order is
    # _design_matrix's; the removal test absorbs the intercept and the
    # subject dummies first, then takes the nuisance block, then the metrics.
    data = RegressionDataset(columns)
    X, names = _design_matrix(data, FULL_PREDICTORS)
    expected = [names[j] for j in spanned_by_earlier(X)]
    if expected:
        with pytest.raises(SingularDesignError) as excinfo:
            ols_fit(data, FULL_PREDICTORS)
        assert str(excinfo.value) == f"collinear design columns: {expected}"
    else:
        ols_fit(data, FULL_PREDICTORS)
    absorbed = [j for j, name in enumerate(names) if j == 0 or name.startswith("subject_id=")]
    metrics = [names.index(name) for name in METRIC_NAMES]
    order = absorbed + [j for j in range(len(names)) if j not in absorbed + metrics] + metrics
    expected = [names[order[j]] for j in spanned_by_earlier(X[:, order])]
    if expected:
        with pytest.raises(SingularDesignError) as excinfo:
            compare_removals(data)
        assert str(excinfo.value) == f"collinear design columns: {expected}"
    else:
        compare_removals(data)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    traces=st.integers(2, 12),
    pairs=st.integers(1, 3),
    damages=st.lists(st.sampled_from(DAMAGES[:5]), max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_singular_cells_name_the_columns_spanned_by_earlier_ones(traces, pairs, damages, seed):
    # the cell check names the same columns, in the order intercept, pair
    # dummies, ambiguity dummies, metrics; fewer traces than columns included
    rng = np.random.default_rng(seed)
    per_trace = {name: rng.normal(size=traces) for name in METRIC_NAMES}
    per_trace["phoneme_pair"] = rng.choice(("B-P", "D-T", "G-K")[:pairs], traces)
    per_trace["ambiguity"] = rng.choice(AMBIGUITY_LEVELS, traces)
    for damage, names in zip(damages, (rng.permutation(METRIC_NAMES) for _ in damages)):
        target, first, second = names[:3]
        per_trace[target] = {
            "duplicate": per_trace[first],
            "sum": per_trace[first] + per_trace[second],
            "scaled": 3.7 * per_trace[first],
            "constant": np.full(traces, 2.5),
            "dummy": (per_trace["ambiguity"] == 0.75).astype(float),
        }[damage]
    levels = {name: analysis._levels(per_trace[name]) for name in ("phoneme_pair", "ambiguity")}
    columns, names = [np.ones(traces)], ["(intercept)"]
    for name, (labels, codes) in levels.items():
        for label, dummy in analysis._dummies(name, labels, codes):
            columns.append(dummy)
            names.append(label)
    columns.extend(per_trace[name] for name in METRIC_NAMES)
    names.extend(METRIC_NAMES)
    expected = [names[j] for j in spanned_by_earlier(np.column_stack(columns))]
    if expected:
        with pytest.raises(SingularDesignError) as excinfo:
            analysis._check_cells(per_trace, levels, 2)
        assert str(excinfo.value) == (
            f"position 2: the cells of the traces that reach it cannot separate "
            f"columns {expected}"
        )
    else:
        analysis._check_cells(per_trace, levels, 2)


def test_a_badly_scaled_design_is_named_as_too_badly_scaled_to_rank():
    # One 1e300 cell sets the rank rule's tolerance far above every other
    # column's norm. Those columns are negligible next to it, not in the
    # span of the columns before them, and the intercept comes first.
    columns = grouped_columns(np.random.default_rng(3), [20, 20])
    entropy = np.array(columns["acoustic_entropy"], dtype=float)
    ols_fit(RegressionDataset({**columns, "acoustic_entropy": entropy}), FULL_PREDICTORS)
    compare_removals(RegressionDataset({**columns, "acoustic_entropy": entropy}))
    entropy[5] = 1e300
    data = RegressionDataset({**columns, "acoustic_entropy": entropy})
    nuisance = ["phoneme_latency", "trial_number", "block_number", "onset_amplitude",
                "phoneme_pair=D-T", "phoneme_pair=G-K", "ambiguity=0.75"]
    others = ["acoustic_surprisal", "switch_surprisal", "switch_entropy"]
    in_design_order = ["(intercept)", *others, *nuisance, "subject_id=s2"]
    with pytest.raises(SingularDesignError) as excinfo:
        ols_fit(data, FULL_PREDICTORS)
    assert str(excinfo.value) == (
        f"design too badly scaled to rank: columns {in_design_order} "
        "are negligible next to column 'acoustic_entropy'"
    )
    # the removal tests absorb the intercept and the subject dummies
    with pytest.raises(SingularDesignError) as excinfo:
        compare_removals(data)
    assert str(excinfo.value) == (
        f"design too badly scaled to rank: columns {nuisance + others} "
        "are negligible next to column 'acoustic_entropy'"
    )
    # the cell check, on 12 traces of one pair
    rng = np.random.default_rng(4)
    per_trace = {name: rng.normal(size=12) for name in METRIC_NAMES}
    per_trace["phoneme_pair"] = np.full(12, "B-P")
    per_trace["ambiguity"] = np.tile(AMBIGUITY_LEVELS, 6)
    levels = {name: analysis._levels(per_trace[name]) for name in ("phoneme_pair", "ambiguity")}
    analysis._check_cells(per_trace, levels, 2)
    per_trace["switch_surprisal"][0] = 1e300
    with pytest.raises(SingularDesignError) as excinfo:
        analysis._check_cells(per_trace, levels, 2)
    assert str(excinfo.value) == (
        "design too badly scaled to rank: columns ['(intercept)', 'ambiguity=0.75', "
        "'acoustic_surprisal', 'acoustic_entropy', 'switch_entropy'] "
        "are negligible next to column 'switch_surprisal'"
    )


def test_an_all_zero_column_is_collinear_not_badly_scaled():
    # an all-zero column lies in every span, so it keeps the collinear wording
    columns = grouped_columns(np.random.default_rng(3), [20, 20])
    data = RegressionDataset({**columns, "onset_amplitude": np.zeros(40)})
    for fit in (lambda: ols_fit(data, FULL_PREDICTORS), lambda: compare_removals(data)):
        with pytest.raises(SingularDesignError) as excinfo:
            fit()
        assert str(excinfo.value) == "collinear design columns: ['onset_amplitude']"


def reference_simulate_rows(traces, position, generator, betas, noise_sd,
                            n_subjects, subject_sd, trials_per_subject, seed):
    """The per-row simulation loop the columnar simulator replaced."""
    eligible = [t for t in traces if t.point_at(position) is not None]
    beta_surprisal, beta_entropy = betas
    rng = np.random.default_rng(seed)
    intercepts = rng.normal(0.0, subject_sd, n_subjects)
    width = len(str(n_subjects))
    rows = []
    for s in range(n_subjects):
        subject_id = f"s{s + 1:0{width}d}"
        trace_idx = rng.integers(0, len(eligible), trials_per_subject)
        latency = rng.normal(87.0, 25.0, trials_per_subject)
        amplitude = rng.normal(0.0, 1.0, trials_per_subject)
        trial_numbers = rng.integers(1, trials_per_subject + 1, trials_per_subject)
        blocks = rng.integers(1, 6, trials_per_subject)
        noise = rng.normal(0.0, noise_sd, trials_per_subject)
        for k in range(trials_per_subject):
            trace = eligible[trace_idx[k]]
            point = trace.point_at(position)
            surprisal, entropy = (
                getattr(point, name) for name in MODEL_PREDICTORS[generator]
            )
            response = (
                beta_surprisal * surprisal + beta_entropy * entropy
                + intercepts[s] + noise[k]
            )
            rows.append(dict(
                response=float(response),
                acoustic_surprisal=point.acoustic_surprisal,
                acoustic_entropy=point.acoustic_entropy,
                switch_surprisal=point.switch_surprisal,
                switch_entropy=point.switch_entropy,
                phoneme_latency=float(latency[k]),
                trial_number=int(trial_numbers[k]),
                block_number=int(blocks[k]),
                onset_amplitude=float(amplitude[k]),
                phoneme_pair="-".join(sorted(
                    (trace.evidence.phoneme_a, trace.evidence.phoneme_b)
                )),
                ambiguity=trace.evidence.p_a,
                subject_id=subject_id,
            ))
    return rows


def dataset_of(rows):
    """A dataset built from per-row dicts, column by column."""
    return RegressionDataset(
        {name: [row[name] for row in rows] for name in REGRESSION_FIELDS}
    )


def reference_compare_removals(rows, df):
    """Three independent row fits, each building its own design."""
    data = dataset_of(rows)
    full = ols_fit(data, FULL_PREDICTORS)
    return {
        model: likelihood_ratio_test(full, ols_fit(data, without_model(model)), df=df)
        for model in ("acoustic", "switch")
    }


# The removal tests partial the subject intercepts out of one design and
# factor it once (Frisch-Waugh), while the reference fits three designs
# apart: a numerical-contract change lets chi2, delta_loglik and p_value
# differ in their last bits, never in the printed six decimals. Every other
# field stays exact.
LAST_BITS = {"chi2": 1e-9, "delta_loglik": 1e-9, "p_value": 1e-10}


def assert_same_tests(actual, expected):
    """Removal tests (a sequence of records, or a {model: result} dict) equal
    field by field, the LAST_BITS fields within their absolute tolerance."""
    if isinstance(expected, dict):
        assert list(actual) == list(expected)
        actual, expected = list(actual.values()), list(expected.values())
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        got, want = (asdict(r) if is_dataclass(r) else r._asdict() for r in (got, want))
        assert list(got) == list(want)
        for field, value in want.items():
            if field in LAST_BITS:
                assert got[field] == pytest.approx(value, rel=0, abs=LAST_BITS[field])
            else:
                assert got[field] == value


@pytest.mark.parametrize("generator", ["acoustic", "switch"])
def test_columnar_recovery_matches_row_reference(tmp_path, trie_sim, generator):
    # model_recovery simulates columns and fits column subsets of one
    # design; every record must equal the per-row loop plus three
    # separately built fits, bit for bit.
    traces = build_trace_set(trie_sim)
    params = dict(
        position=2, generator=generator, betas=(1.0, -0.5), noise_sd=0.5,
        n_subjects=4, subject_sd=1.0, trials_per_subject=60,
    )
    for df in (None, 1):
        summary = model_recovery(traces, n_sims=4, alpha=0.05, seed=30, df=df, **params)
        expected = []
        for sim in range(4):
            rows = reference_simulate_rows(traces, seed=30 + sim, **params)
            for model, result in reference_compare_removals(rows, df).items():
                expected.append(ComparisonRecord(
                    sim=sim, removed=model, chi2=result.chi2, df=result.df,
                    p_value=result.p_value, delta_loglik=result.delta_loglik,
                    detected=result.p_value < 0.05,
                ))
        assert_same_tests(summary.records, expected)
    data = simulate_dataset(traces, seed=31, **params)
    reference = reference_simulate_rows(traces, seed=31, **params)
    assert tuple(data.columns) == REGRESSION_FIELDS
    for name in REGRESSION_FIELDS:
        assert data.columns[name].tolist() == [row[name] for row in reference]
    write_dataset(data, tmp_path / "columnar.csv")
    write_dataset(dataset_of(reference), tmp_path / "reference.csv")
    assert (tmp_path / "columnar.csv").read_bytes() == (
        tmp_path / "reference.csv"
    ).read_bytes()
    assert_same_tests(compare_removals(data), reference_compare_removals(reference, None))


def test_simulate_dataset_rejects_off_grid_evidence(trie_sim):
    traces = build_trace_set(trie_sim, ambiguities=(0.5,))
    kwargs = dict(
        position=2, generator="acoustic", betas=(1.0, 1.0), noise_sd=0.5,
        n_subjects=2, subject_sd=1.0, trials_per_subject=5,
    )
    with pytest.raises(ValueError, match="ambiguity must be one of"):
        simulate_dataset(traces, seed=0, **kwargs)
    with pytest.raises(ValueError, match="ambiguity must be one of"):
        model_recovery(traces, n_sims=1, alpha=0.05, seed=0, **kwargs)


def test_an_undrawn_off_grid_trace_is_rejected(trie_sim):
    # every trace that reaches the position is checked, drawn or not
    on_grid = build_trace_set(trie_sim)
    odd = next(
        t for t in build_trace_set(trie_sim, ambiguities=(0.5,))
        if t.point_at(2) is not None
    )
    kwargs = dict(
        position=2, generator="acoustic", betas=(1.0, 1.0), noise_sd=0.5,
        n_subjects=2, subject_sd=1.0, trials_per_subject=5,
    )
    # the draws depend on the number of traces, not on their values: with
    # an on-grid trace in its place, seed 1 never draws the last index
    stand_in = analysis._trace_columns(on_grid + on_grid[:1], position=2)
    draw_kwargs = {key: value for key, value in kwargs.items() if key != "position"}
    trace_idx = analysis._trials(**draw_kwargs)[0](stand_in, 1)[0]
    assert len(on_grid) not in trace_idx
    message = r"ambiguity must be one of \(0.25, 0.75\), got 0.5$"
    with pytest.raises(ValueError, match=message):
        simulate_dataset(on_grid + [odd], seed=1, **kwargs)
    with pytest.raises(ValueError, match=message):
        model_recovery(on_grid + [odd], n_sims=1, alpha=0.05, seed=1, **kwargs)


def test_off_grid_traces_are_reported_before_singular_cells(trie_sim):
    kwargs = dict(
        position=1, generator="acoustic", betas=(1.0, 1.0), noise_sd=0.5,
        n_subjects=2, subject_sd=1.0, trials_per_subject=50,
        n_sims=1, alpha=0.05, seed=0,
    )
    # position 1's cells cannot identify the metrics, on grid or off it
    with pytest.raises(SingularDesignError, match="position 1: the cells"):
        model_recovery(build_trace_set(trie_sim), **kwargs)
    off_grid = build_trace_set(trie_sim, ambiguities=(0.5, 0.6))
    with pytest.raises(ValueError, match=r"ambiguity must be one of .*, got 0.5$"):
        model_recovery(off_grid, **kwargs)


@pytest.mark.parametrize(
    "override",
    [{"betas": (1e308, 1e308)}, {"noise_sd": 1e308}],
    ids=["betas", "noise_sd"],
)
def test_simulate_dataset_rejects_overflowing_responses(trie_sim, override):
    traces = build_trace_set(trie_sim)
    kwargs = dict(
        position=2, generator="acoustic", betas=(1.0, 1.0), noise_sd=0.5,
        n_subjects=4, subject_sd=1.0, trials_per_subject=100, seed=0,
    )
    with pytest.raises(ValueError, match="betas, noise_sd or subject_sd") as excinfo:
        simulate_dataset(traces, **{**kwargs, **override})
    assert "not finite" in str(excinfo.value)


def test_negative_zero_spreads_act_as_zero(trie_sim):
    traces = build_trace_set(trie_sim)
    kwargs = dict(
        position=2, generator="acoustic", betas=(1.0, 1.0),
        n_subjects=2, trials_per_subject=5, seed=0,
    )
    assert same_data(
        simulate_dataset(traces, noise_sd=-0.0, subject_sd=-0.0, **kwargs),
        simulate_dataset(traces, noise_sd=0.0, subject_sd=0.0, **kwargs),
    )


def test_least_squares_rejects_overflowing_sse():
    # responses near 1e200 are finite, but their squares are not
    rng = np.random.default_rng(23)
    data = random_dataset(rng, 60, response=(1e200 * rng.normal(size=60)).tolist())
    with pytest.raises(ValueError, match="residual sum of squares is not finite"):
        ols_fit(data, FULL_PREDICTORS)
    with pytest.raises(ValueError, match="residual sum of squares is not finite"):
        compare_removals(data)


# Lexicons for the coded-recovery tests: voicing pair k (B/P, D/T, G/K)
# over the first counts[k] of eight continuations, mirrored, with uneven
# frequencies. B/P keeps all eight, so position 2 is identifiable; a pair
# with few continuations is often undrawn in a small simulation.
CONTINUATIONS = (
    ("AE T", 3.0), ("AE D", 2.0), ("IH N", 2.0), ("IH D", 1.0),
    ("EH T", 5.0), ("EH K", 1.0), ("AA G", 2.0), ("AA B", 2.0),
)
VOICING_PAIRS = (("B", "P"), ("D", "T"), ("G", "K"))


def pair_traces(counts):
    rows = []
    for k, ((voiced, voiceless), count) in enumerate(zip(VOICING_PAIRS, counts)):
        for j, (continuation, frequency) in enumerate(CONTINUATIONS[:count]):
            rows.append((f"{voiced.lower()}{j}", f"{voiced} {continuation}", frequency + k))
            rows.append((
                f"{voiceless.lower()}{j}", f"{voiceless} {continuation}",
                1.0 + (j * (k + 2)) % 5,
            ))
    return build_trace_set(build_trie(make_lexicon(rows)))


def composed_recovery(traces, n_sims, alpha, seed, df, datasets, **params):
    """model_recovery's records from the public steps: simulate_dataset,
    then compare_removals. Each (sim, dataset) is appended to `datasets`."""
    records = []
    for sim in range(n_sims):
        data = simulate_dataset(traces, seed=seed + sim, **params)
        datasets.append((sim, data))
        for model, result in compare_removals(data, df).items():
            records.append(ComparisonRecord(
                sim, model, result.chi2, result.df, result.p_value,
                result.delta_loglik, result.p_value < alpha,
            ))
    return tuple(records)


def outcome(run):
    """The repr of what `run` returns, or of the error it raises."""
    try:
        return repr(run())
    except (ValueError, SingularDesignError) as exc:
        return f"{type(exc).__name__}: {exc}"


def assert_recovery_is_composition(traces, n_sims, alpha, seed, df, **params):
    """Assert model_recovery's records, or its error, are the composition's;
    return the composition's (sim, dataset) pairs."""
    datasets = []
    got = outcome(lambda: model_recovery(
        traces, n_sims=n_sims, alpha=alpha, seed=seed, df=df, **params
    ).records)
    want = outcome(
        lambda: composed_recovery(traces, n_sims, alpha, seed, df, datasets, **params)
    )
    # repr round-trips every float, so equal reprs are equal bits
    assert got == want
    return datasets


@st.composite
def recovery_cases(draw):
    """1-3 voicing pairs, the 0.75 traces repeated so that 0.25 draws are
    rare, and runs small enough that a level often goes undrawn."""
    counts = [8] + draw(st.lists(st.integers(1, 8), max_size=2))
    traces = pair_traces(counts)
    repeat = draw(st.integers(1, 12))
    traces = [t for t in traces if t.evidence.p_a == 0.75] * repeat + [
        t for t in traces if t.evidence.p_a == 0.25
    ]
    params = dict(
        position=2, generator=draw(st.sampled_from(["acoustic", "switch"])),
        betas=(1.0, -0.5), noise_sd=0.5, n_subjects=draw(st.integers(2, 4)),
        subject_sd=1.0, trials_per_subject=draw(st.integers(6, 16)),
    )
    return traces, draw(st.sampled_from([None, 0, 1])), draw(st.integers(0, 2**16)), params


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=recovery_cases())
def test_model_recovery_is_simulate_then_compare_removals(case):
    # model_recovery fits each draw from trace indices and integer codes;
    # every record and error must be those of the public composition, bit
    # for bit.
    traces, df, seed, params = case
    assert_recovery_is_composition(traces, 4, 0.05, seed, df, **params)


def test_model_recovery_fits_draws_with_an_undrawn_pair():
    # seed 3 draws no D-T trial: its dummy is left out, as np.unique on the
    # dataset leaves it out, rather than entering as a zero column
    traces = pair_traces([8, 1])
    params = dict(
        position=2, generator="acoustic", betas=(1.0, 1.0), noise_sd=0.5,
        n_subjects=2, subject_sd=1.0, trials_per_subject=8,
    )
    seen = assert_recovery_is_composition(traces, 2, 0.05, 2, None, **params)
    assert [sorted(set(data.columns["phoneme_pair"].tolist())) for _, data in seen] == [
        ["B-P", "D-T"], ["B-P"],
    ]


def test_model_recovery_runs_leak_no_state_through_their_workspace(trie_sim):
    # Each run owns its draw columns and design buffers. Runs of another
    # shape in between, one whose pair-dummy count changes between rounds
    # and one that fails, must not change a repeated run's records.
    params = dict(
        position=2, generator="acoustic", betas=(1.0, 1.0), noise_sd=0.5,
        subject_sd=1.0, alpha=0.05,
    )
    traces = build_trace_set(trie_sim)

    def run_a():
        return repr(model_recovery(
            traces, n_subjects=4, trials_per_subject=60, n_sims=3, seed=21, **params
        ).records)

    first = run_a()
    # seed 2 draws a D-T trial and seed 3 none, so the second round has one
    # pair dummy fewer
    pairs = pair_traces([8, 1])
    model_recovery(pairs, n_subjects=2, trials_per_subject=8, n_sims=2, seed=2, **params)
    with pytest.raises(ValueError, match=r"^need more rows than parameters: n=10, p=11$"):
        model_recovery(pairs, n_subjects=2, trials_per_subject=5, n_sims=1, seed=3, **params)
    assert run_a() == first


def recovery_error(run):
    with pytest.raises((ValueError, SingularDesignError)) as excinfo:
        run()
    return type(excinfo.value), str(excinfo.value)


def assert_same_error(traces, n_sims, seed, **params):
    want = recovery_error(lambda: composed_recovery(
        traces, n_sims, 0.05, seed, None, [], **params
    ))
    assert recovery_error(lambda: model_recovery(
        traces, n_sims=n_sims, alpha=0.05, seed=seed, **params
    )) == want
    return want


def test_model_recovery_errors_match_the_composition(trie_sim):
    params = dict(
        position=2, generator="acoustic", betas=(1.0, 1.0), noise_sd=0.5,
        n_subjects=2, subject_sd=1.0, trials_per_subject=5,
    )
    # seed 3 draws no D-T trial, so p counts one pair dummy fewer
    assert assert_same_error(pair_traces([8, 1]), 1, 3, **params) == (
        ValueError, "need more rows than parameters: n=10, p=11",
    )
    # nearly every trial draws one trace: the drawn design is singular,
    # though the trace cells are not
    traces = build_trace_set(trie_sim)
    assert assert_same_error(
        [traces[0]] * 300 + traces, 1, 4, **{**params, "trials_per_subject": 10}
    ) == (SingularDesignError, "collinear design columns: ['switch_entropy']")
    # two off-grid levels: the first in trace order is named
    off_grid = build_trace_set(trie_sim, ambiguities=(0.5, 0.6))
    kind, message = assert_same_error(off_grid, 1, 0, **params)
    assert kind is ValueError and message.startswith("ambiguity must be one of")
    assert message.endswith(("got 0.5", "got 0.6"))
    for betas in ((1e308, 1e308), (1e200, 1e200)):
        kind, message = assert_same_error(
            traces, 2, 0, **{**params, "betas": betas, "trials_per_subject": 40}
        )
        assert kind is ValueError and "not finite" in message
