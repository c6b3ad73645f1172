import csv
import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from cohortlex import (
    AMBIGUITY_LEVELS,
    FULL_PREDICTORS,
    MODEL_PREDICTORS,
    REGRESSION_FIELDS,
    CalibrationResult,
    ComparisonRecord,
    NestingError,
    RegressionRow,
    SingularDesignError,
    bonferroni_alpha,
    build_trace_set,
    chi_square_sf,
    compare_removals,
    likelihood_ratio_test,
    model_recovery,
    ols_fit,
    permutation_calibration,
    reduced_predictors,
    simulate_dataset,
    write_dataset,
)
from cohortlex.analysis import VARIANCE_FLOOR, _columns_of, _design_matrix

METRIC_NAMES = (
    "acoustic_surprisal",
    "acoustic_entropy",
    "switch_surprisal",
    "switch_entropy",
)


def make_row(response, **overrides):
    values = {
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
    values.update(overrides)
    return RegressionRow(response=response, **values)


def random_rows(rng, n, response=None):
    rows = []
    for i in range(n):
        rows.append(
            make_row(
                response[i] if response is not None else float(rng.normal()),
                acoustic_surprisal=float(rng.normal(2.0, 1.0)),
                acoustic_entropy=float(rng.normal(1.0, 0.5)),
                switch_surprisal=float(rng.normal(2.0, 1.0)),
                switch_entropy=float(rng.normal(1.0, 0.5)),
                phoneme_latency=float(rng.normal(87.0, 25.0)),
                trial_number=int(rng.integers(1, 100)),
                block_number=int(rng.integers(1, 6)),
                onset_amplitude=float(rng.normal()),
                phoneme_pair=("B-P", "D-T")[int(rng.integers(2))],
                ambiguity=AMBIGUITY_LEVELS[int(rng.integers(2))],
                subject_id=f"s{int(rng.integers(1, 5))}",
            )
        )
    return rows


def test_regression_row_rejects_off_grid_ambiguity():
    with pytest.raises(ValueError):
        make_row(0.0, ambiguity=0.5)


def test_ols_recovers_exact_linear_relation():
    rng = np.random.default_rng(11)
    rows = []
    for _ in range(50):
        s = float(rng.normal(2.0, 1.0))
        h = float(rng.normal(1.0, 0.5))
        rows.append(
            make_row(2.0 + 1.5 * s - 0.5 * h, acoustic_surprisal=s, acoustic_entropy=h)
        )
    fit = ols_fit(rows, ("acoustic_surprisal", "acoustic_entropy"))
    assert fit.coefficients["(intercept)"] == pytest.approx(2.0, abs=1e-9)
    assert fit.coefficients["acoustic_surprisal"] == pytest.approx(1.5, abs=1e-9)
    assert fit.coefficients["acoustic_entropy"] == pytest.approx(-0.5, abs=1e-9)
    assert fit.n == 50
    assert fit.p == 3
    # noiseless fit bottoms out at the variance floor instead of log(0)
    assert fit.residual_variance == VARIANCE_FLOOR
    assert math.isfinite(fit.log_likelihood)


def test_dummy_coding_drops_first_sorted_level():
    rng = np.random.default_rng(12)
    rows = random_rows(rng, 80)
    fit = ols_fit(rows, ("phoneme_pair", "ambiguity", "subject_id"))
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
    rows = []
    for _ in range(40):
        pair = ("B-P", "D-T")[int(rng.integers(2))]
        amb = AMBIGUITY_LEVELS[int(rng.integers(2))]
        y = 1.0 + (2.0 if pair == "D-T" else 0.0) + (-3.0 if amb == 0.75 else 0.0)
        rows.append(make_row(y, phoneme_pair=pair, ambiguity=amb))
    fit = ols_fit(rows, ("phoneme_pair", "ambiguity"))
    assert fit.coefficients["(intercept)"] == pytest.approx(1.0, abs=1e-9)
    assert fit.coefficients["phoneme_pair=D-T"] == pytest.approx(2.0, abs=1e-9)
    assert fit.coefficients["ambiguity=0.75"] == pytest.approx(-3.0, abs=1e-9)


def test_duplicate_column_is_singular():
    rng = np.random.default_rng(14)
    rows = []
    for _ in range(30):
        s = float(rng.normal())
        rows.append(
            make_row(float(rng.normal()), acoustic_surprisal=s, switch_surprisal=s)
        )
    with pytest.raises(SingularDesignError) as excinfo:
        ols_fit(rows, ("acoustic_surprisal", "switch_surprisal"))
    assert "surprisal" in str(excinfo.value)


def test_constant_predictor_collides_with_intercept():
    rows = [make_row(float(i), acoustic_entropy=0.7) for i in range(20)]
    with pytest.raises(SingularDesignError):
        ols_fit(rows, ("acoustic_entropy",))


def test_log_likelihood_monotone_under_nesting():
    rng = np.random.default_rng(15)
    rows = random_rows(rng, 120)
    nested = [
        ("acoustic_surprisal",),
        ("acoustic_surprisal", "acoustic_entropy"),
        ("acoustic_surprisal", "acoustic_entropy", "phoneme_latency"),
        ("acoustic_surprisal", "acoustic_entropy", "phoneme_latency", "phoneme_pair"),
        FULL_PREDICTORS,
    ]
    logliks = [ols_fit(rows, preds).log_likelihood for preds in nested]
    for smaller, larger in zip(logliks, logliks[1:]):
        assert larger >= smaller - 1e-9


def test_lrt_identical_models_is_null_result():
    rng = np.random.default_rng(16)
    rows = random_rows(rng, 60)
    fit = ols_fit(rows, ("acoustic_surprisal", "acoustic_entropy"))
    result = likelihood_ratio_test(fit, fit)
    assert result.chi2 == 0.0
    assert result.df == 0
    assert result.p_value == 1.0


def test_lrt_default_df_is_parameter_difference():
    rng = np.random.default_rng(17)
    rows = random_rows(rng, 100)
    full = ols_fit(rows, FULL_PREDICTORS)
    reduced = ols_fit(rows, reduced_predictors("acoustic"))
    result = likelihood_ratio_test(full, reduced)
    assert result.df == 2
    assert result.chi2 >= 0.0
    assert result.chi2 == pytest.approx(
        2.0 * (full.log_likelihood - reduced.log_likelihood), abs=1e-9
    )
    assert result.p_value == pytest.approx(chi_square_sf(result.chi2, 2), abs=1e-15)


def test_lrt_df_override():
    rng = np.random.default_rng(18)
    rows = random_rows(rng, 100)
    full = ols_fit(rows, ("acoustic_surprisal", "acoustic_entropy"))
    reduced = ols_fit(rows, ("acoustic_surprisal",))
    result = likelihood_ratio_test(full, reduced, df=3)
    assert result.df == 3
    assert result.p_value == pytest.approx(chi_square_sf(result.chi2, 3), abs=1e-15)
    with pytest.raises(NestingError):
        likelihood_ratio_test(full, reduced, df=-1)


def test_lrt_rejects_non_nested_models():
    rng = np.random.default_rng(19)
    rows = random_rows(rng, 60)
    acoustic = ols_fit(rows, ("acoustic_surprisal", "acoustic_entropy"))
    switch = ols_fit(rows, ("switch_surprisal", "switch_entropy"))
    with pytest.raises(NestingError):
        likelihood_ratio_test(acoustic, switch)


def test_lrt_rejects_mismatched_row_counts():
    rng = np.random.default_rng(20)
    rows = random_rows(rng, 60)
    full = ols_fit(rows, ("acoustic_surprisal", "acoustic_entropy"))
    reduced = ols_fit(rows[:50], ("acoustic_surprisal",))
    with pytest.raises(NestingError):
        likelihood_ratio_test(full, reduced)


def test_null_lrt_matches_chi_square_reference():
    # under a true null the statistic should look like chi-square(df=2):
    # its mean sits near 2 and small p-values appear at the nominal rate
    rng = np.random.default_rng(21)
    chi2s = []
    pvals = []
    for _ in range(300):
        rows = random_rows(rng, 80)
        full = ols_fit(
            rows, ("phoneme_latency", "acoustic_surprisal", "acoustic_entropy")
        )
        reduced = ols_fit(rows, ("phoneme_latency",))
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


def test_chi_square_sf_matches_scipy():
    for df in (1, 2, 3, 5, 10, 30):
        for x in (0.05, 0.8, 2.0, 4.0, 9.0, 25.0, 80.0):
            assert chi_square_sf(x, df) == pytest.approx(
                float(scipy.stats.chi2.sf(x, df)), abs=1e-10
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


def test_chi_square_sf_rejects_bad_arguments():
    with pytest.raises(ValueError):
        chi_square_sf(-0.1, 1)
    with pytest.raises(ValueError):
        chi_square_sf(1.0, 0)


def test_bonferroni_alpha():
    assert bonferroni_alpha(0.05) == pytest.approx(0.05 / 6)
    assert bonferroni_alpha(0.05, n_comparisons=3) == pytest.approx(0.05 / 3)


def test_build_trace_set_orients_evidence_per_word(trie_b):
    traces = build_trace_set(trie_b)
    # four onset-paired words at two ambiguity levels
    assert len(traces) == 8
    for trace in traces:
        assert trace.evidence.phoneme_a == trace.word.onset
        assert trace.evidence.p_a in AMBIGUITY_LEVELS
    assert build_trace_set(trie_b, min_length=4) == []


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
    assert first == second
    different = simulate_dataset(traces, **{**kwargs, "seed": 43})
    assert first != different


def test_simulate_dataset_shape_and_fields(trie_b):
    traces = build_trace_set(trie_b)
    rows = simulate_dataset(
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
    assert len(rows) == 12 * 7
    assert {r.subject_id for r in rows} == {f"s{i:02d}" for i in range(1, 13)}
    assert {r.phoneme_pair for r in rows} == {"B-P"}
    assert {r.ambiguity for r in rows} <= set(AMBIGUITY_LEVELS)
    assert all(1 <= r.trial_number <= 7 for r in rows)
    assert all(1 <= r.block_number <= 5 for r in rows)


def test_simulate_dataset_noise_free_response_is_linear(trie_b):
    traces = build_trace_set(trie_b)
    rows = simulate_dataset(
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
    for row in rows:
        expected = 2.0 * row.acoustic_surprisal - 1.0 * row.acoustic_entropy
        assert row.response == pytest.approx(expected, abs=1e-12)


def test_simulate_dataset_null_betas_leave_metrics_uncorrelated(trie_sim):
    traces = build_trace_set(trie_sim)
    rows = simulate_dataset(
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
    y = np.array([r.response for r in rows])
    for name in METRIC_NAMES:
        x = np.array([getattr(r, name) for r in rows])
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
    rows = simulate_dataset(
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
    write_dataset(rows, path)
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        assert tuple(reader.fieldnames) == REGRESSION_FIELDS
        parsed = list(reader)
    assert len(parsed) == len(rows)
    assert float(parsed[0]["response"]) == pytest.approx(rows[0].response)
    assert parsed[0]["subject_id"] == rows[0].subject_id


def test_compare_removals_detects_only_the_generator(trie_sim):
    traces = build_trace_set(trie_sim)
    rows = simulate_dataset(
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
    results = compare_removals(rows)
    assert set(results) == {"acoustic", "switch"}
    assert results["acoustic"].df == 2
    assert results["switch"].df == 2
    assert results["acoustic"].p_value < 1e-6
    assert results["acoustic"].chi2 > results["switch"].chi2


def test_reduced_predictors_removes_both_model_terms():
    for model, terms in MODEL_PREDICTORS.items():
        remaining = reduced_predictors(model)
        assert len(remaining) == len(FULL_PREDICTORS) - 2
        for term in terms:
            assert term not in remaining


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
    assert summary.other_detection_rate == summary.switch_detection_rate
    for rate in (
        summary.acoustic_detection_rate,
        summary.switch_detection_rate,
        summary.exclusive_generating_rate,
        summary.either_rate,
    ):
        assert 0.0 <= rate <= 1.0
    assert summary.either_rate >= summary.generating_detection_rate
    # strong signal, low noise: the generator should be found every time
    assert summary.generating_detection_rate == 1.0
    by_sim = {}
    for record in summary.records:
        by_sim.setdefault(record.sim, set()).add(record.removed)
    assert all(models == {"acoustic", "switch"} for models in by_sim.values())


def test_permutation_calibration_fraction_near_alpha(trie_sim):
    traces = build_trace_set(trie_sim)
    rows = simulate_dataset(
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
    result = permutation_calibration(rows, n_permutations=200, alpha=0.05, seed=44)
    assert isinstance(result, CalibrationResult)
    assert result.n_permutations == 200
    assert len(result.p_values) == 200
    assert all(0.0 <= p <= 1.0 for p in result.p_values)
    # loose sanity band; the tight calibration check runs many more
    # permutations in the acceptance suite
    assert 0.0 <= result.fraction_below_alpha <= 0.15
    repeat = permutation_calibration(rows, n_permutations=200, alpha=0.05, seed=44)
    assert repeat.p_values == result.p_values
    switch_side = permutation_calibration(
        rows, n_permutations=10, alpha=0.05, seed=44, removed="switch"
    )
    assert len(switch_side.p_values) == 10


def test_permutation_calibration_argument_validation(trie_sim):
    traces = build_trace_set(trie_sim)
    rows = simulate_dataset(
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
        permutation_calibration(rows, n_permutations=0, alpha=0.05, seed=1)
    with pytest.raises(ValueError):
        permutation_calibration(
            rows, n_permutations=5, alpha=0.05, seed=1, removed="hybrid"
        )


def test_permutation_calibration_rejects_singular_design():
    rng = np.random.default_rng(14)
    rows = [
        dataclasses.replace(row, switch_surprisal=row.acoustic_surprisal)
        for row in random_rows(rng, 40)
    ]
    with pytest.raises(SingularDesignError, match="surprisal"):
        ols_fit(rows, FULL_PREDICTORS)
    with pytest.raises(SingularDesignError, match="surprisal"):
        permutation_calibration(rows, n_permutations=5, alpha=0.05, seed=1)


def test_least_squares_matches_lstsq_reference():
    # ols_fit and permutation_calibration share one QR factor-and-solve
    # path; pin both to an independent SVD least-squares solve.
    rng = np.random.default_rng(22)
    rows = random_rows(rng, 120)
    n = len(rows)
    X_full, names = _design_matrix(_columns_of(rows), FULL_PREDICTORS)
    X_reduced, _ = _design_matrix(_columns_of(rows), reduced_predictors("acoustic"))
    y = np.array([r.response for r in rows])

    def sse(X, response):
        beta, *_ = np.linalg.lstsq(X, response, rcond=None)
        return float(np.sum((response - X @ beta) ** 2)), beta

    sse_full, beta_full = sse(X_full, y)
    fit = ols_fit(rows, FULL_PREDICTORS)
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
    result = permutation_calibration(rows, n_permutations=20, alpha=0.05, seed=5)
    assert result.p_values == pytest.approx(expected, abs=1e-9)


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
            rows.append(RegressionRow(
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


def reference_compare_removals(rows, df):
    """Three independent row fits, each building its own design."""
    full = ols_fit(rows, FULL_PREDICTORS)
    return {
        model: likelihood_ratio_test(full, ols_fit(rows, reduced_predictors(model)), df=df)
        for model in ("acoustic", "switch")
    }


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
    assert tuple(f.name for f in dataclasses.fields(RegressionRow)) == REGRESSION_FIELDS
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
        assert summary.records == tuple(expected)
    rows = simulate_dataset(traces, seed=31, **params)
    reference = reference_simulate_rows(traces, seed=31, **params)
    assert rows == reference
    assert [type(v) for v in dataclasses.astuple(rows[0])] == [
        type(v) for v in dataclasses.astuple(reference[0])
    ]
    write_dataset(rows, tmp_path / "columnar.csv")
    write_dataset(reference, tmp_path / "reference.csv")
    assert (tmp_path / "columnar.csv").read_bytes() == (
        tmp_path / "reference.csv"
    ).read_bytes()
    assert compare_removals(rows) == reference_compare_removals(reference, None)


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
    assert simulate_dataset(traces, noise_sd=-0.0, subject_sd=-0.0, **kwargs) == (
        simulate_dataset(traces, noise_sd=0.0, subject_sd=0.0, **kwargs)
    )


def test_least_squares_rejects_overflowing_sse():
    # responses near 1e200 are finite, but their squares are not
    rng = np.random.default_rng(23)
    rows = random_rows(rng, 60, response=(1e200 * rng.normal(size=60)).tolist())
    with pytest.raises(ValueError, match="residual sum of squares is not finite"):
        ols_fit(rows, FULL_PREDICTORS)
    with pytest.raises(ValueError, match="residual sum of squares is not finite"):
        compare_removals(rows)
