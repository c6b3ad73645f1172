"""Nested-regression comparison of the two activation models.

Synthetic responses stand in for the averaged auditory-cortex amplitudes
the models were designed to predict; a fixed-effects OLS with per-subject
intercept dummies replaces random-slope mixed-effects estimation (the
likelihood-ratio logic and predictor structure are unchanged). The
harness simulates datasets from a chosen generator model, fits the full
predictor set and the two reduced sets with one model's predictors
removed, and checks which removal loses significant likelihood.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import linalg, special

from .cohort import CohortTrie, ImpossibleContinuationError
from .lexicon import PLOSIVE_VOICING_PAIRS, LexiconEntry
from .metrics import AcousticEvidence, MetricTrace, metric_trace

VARIANCE_FLOOR = 1e-12

MODEL_PREDICTORS = {
    "acoustic": ("acoustic_surprisal", "acoustic_entropy"),
    "switch": ("switch_surprisal", "switch_entropy"),
}

CONTINUOUS_PREDICTORS = (
    "acoustic_surprisal",
    "acoustic_entropy",
    "switch_surprisal",
    "switch_entropy",
    "phoneme_latency",
    "trial_number",
    "block_number",
    "onset_amplitude",
)
CATEGORICAL_PREDICTORS = ("phoneme_pair", "ambiguity", "subject_id")
FULL_PREDICTORS = CONTINUOUS_PREDICTORS + CATEGORICAL_PREDICTORS

REGRESSION_FIELDS = ("response",) + FULL_PREDICTORS

AMBIGUITY_LEVELS = (0.25, 0.75)

N_BLOCKS = 5


class SingularDesignError(ValueError):
    """Design matrix is rank deficient."""


class NestingError(ValueError):
    """Likelihood-ratio inputs are not properly nested fits."""


@dataclass(frozen=True, eq=False)
class RegressionDataset:
    """A regression dataset: one 1-D numpy array per REGRESSION_FIELDS name.

    `columns` maps every field, in REGRESSION_FIELDS order, to a
    read-only copy of its column; all columns have one length, the number
    of observations, and `ambiguity` values lie on AMBIGUITY_LEVELS.
    Construction is the one place a dataset is validated. Columns keep
    the values and dtype given (strings for `phoneme_pair`/`subject_id`,
    integers for the trial and block numbers of a simulated dataset);
    continuous ones are read as floats when the design matrix is built.
    """

    columns: Mapping[str, np.ndarray]

    def __post_init__(self):
        missing = [name for name in REGRESSION_FIELDS if name not in self.columns]
        if missing:
            raise ValueError(f"dataset is missing columns: {missing}")
        unknown = sorted(set(self.columns) - set(REGRESSION_FIELDS))
        if unknown:
            raise ValueError(f"unknown dataset columns: {unknown}")
        columns = {}
        for name in REGRESSION_FIELDS:
            # a read-only copy: the caller's arrays stay theirs to change
            columns[name] = np.array(self.columns[name])
            columns[name].flags.writeable = False
        not_1d = [name for name, column in columns.items() if column.ndim != 1]
        if not_1d:
            raise ValueError(f"dataset columns must be 1-D: {not_1d}")
        lengths = {name: len(column) for name, column in columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"dataset columns have unequal lengths: {lengths}")
        ambiguity = columns["ambiguity"]
        off_grid = np.flatnonzero(~np.isin(ambiguity, AMBIGUITY_LEVELS))
        if off_grid.size:
            raise ValueError(
                f"ambiguity must be one of {AMBIGUITY_LEVELS}, "
                f"got {ambiguity[off_grid[0]].item()}"
            )
        object.__setattr__(self, "columns", MappingProxyType(columns))

    def __len__(self) -> int:
        return len(self.columns["response"])


@dataclass(frozen=True)
class FitResult:
    """OLS fit: coefficients, ML residual variance, Gaussian log-likelihood."""

    coefficients: dict[str, float]
    residual_variance: float
    log_likelihood: float
    n: int
    p: int
    predictors: frozenset[str]


@dataclass(frozen=True)
class ModelComparisonResult:
    chi2: float
    df: int
    p_value: float
    delta_loglik: float


class ComparisonRecord(NamedTuple):
    """One removal test inside a recovery simulation, fields in the order
    `simfit` prints them."""

    sim: int
    removed: str
    chi2: float
    df: int
    p_value: float
    delta_loglik: float
    detected: bool


@dataclass(frozen=True)
class RecoverySummary:
    """Detection rates over repeated simulate-fit-compare rounds: per model,
    the share of simulations in which removing it lost significant
    likelihood (the generating rate is the generator's). `records` holds
    every removal test."""

    generator: str
    n_sims: int
    alpha: float
    acoustic_detection_rate: float
    switch_detection_rate: float
    generating_detection_rate: float
    records: tuple[ComparisonRecord, ...]


def _design_matrix(
    dataset: RegressionDataset, predictors: Iterable[str]
) -> tuple[np.ndarray, list[str]]:
    """Intercept + continuous columns + reference-coded dummies.

    Column order is canonical (FULL_PREDICTORS order) regardless of the
    order `predictors` arrives in; categorical levels are sorted by their
    string form and the first level is the reference.
    """
    wanted = set(predictors)
    unknown = wanted - set(FULL_PREDICTORS)
    if unknown:
        raise ValueError(f"unknown predictors: {sorted(unknown)}")
    columns = dataset.columns
    design = [np.ones(len(dataset))]
    names = ["(intercept)"]
    for name in CONTINUOUS_PREDICTORS:
        if name in wanted:
            design.append(np.asarray(columns[name], dtype=float))
            names.append(name)
    for name in CATEGORICAL_PREDICTORS:
        if name not in wanted:
            continue
        levels, codes = np.unique(columns[name], return_inverse=True)
        levels = levels.tolist()
        order = sorted(range(len(levels)), key=lambda i: str(levels[i]))
        for i in order[1:]:
            design.append((codes == i).astype(float))
            names.append(f"{name}={levels[i]}")
    return np.column_stack(design), names


def ols_fit(dataset: RegressionDataset, predictors: Iterable[str]) -> FitResult:
    """Least-squares fit of `response` on the selected predictor set.

    The log-likelihood uses the maximum-likelihood variance estimate
    (SSE/n) floored at 1e-12 so exact fits stay finite. Rank-deficient
    designs raise SingularDesignError naming the collinear columns.
    """
    predictors = frozenset(predictors)
    X, names = _design_matrix(dataset, predictors)
    n, p = X.shape
    beta, sse = _least_squares(X, names)(dataset.columns["response"])
    return FitResult(
        coefficients=dict(zip(names, beta.tolist())),
        residual_variance=max(sse / n, VARIANCE_FLOOR),
        log_likelihood=_loglik_from_sse(n, sse),
        n=n,
        p=p,
        predictors=predictors,
    )


def _least_squares(
    X: np.ndarray, names: Sequence[str]
) -> Callable[[np.ndarray], tuple[np.ndarray, float]]:
    """Factor X once by pivoted QR; return a solver y -> (beta, SSE).

    Raises ValueError unless X has more rows than columns, and
    SingularDesignError naming the collinear columns when X is rank
    deficient. The SSE is summed from the explicit residuals; when it is
    not finite (responses too large, or not finite) the solver raises
    ValueError.
    """
    n, p = X.shape
    if n <= p:
        raise ValueError(f"need more rows than parameters: n={n}, p={p}")
    q, r_matrix, pivots = linalg.qr(X, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r_matrix))
    tol = diag[0] * max(n, p) * np.finfo(float).eps if diag[0] > 0 else 0.0
    rank = int(np.sum(diag > tol))
    if rank < p:
        collinear = [names[j] for j in sorted(pivots[rank:])]
        raise SingularDesignError(f"collinear design columns: {collinear}")

    def solve(y: np.ndarray) -> tuple[np.ndarray, float]:
        beta = np.empty(p)
        with np.errstate(over="ignore", invalid="ignore"):
            beta[pivots] = linalg.solve_triangular(
                r_matrix, q.T @ y, check_finite=False
            )
            residuals = y - X @ beta
            sse = float(residuals @ residuals)
        if not math.isfinite(sse):
            raise ValueError(
                "residual sum of squares is not finite: responses too large "
                "or not finite"
            )
        return beta, sse

    return solve


def _loglik_from_sse(n: int, sse: float) -> float:
    sigma2 = max(sse / n, VARIANCE_FLOOR)
    return -0.5 * n * math.log(2 * math.pi * sigma2) - sse / (2 * sigma2)


def likelihood_ratio_test(
    full: FitResult, reduced: FitResult, df: int | None = None
) -> ModelComparisonResult:
    """Chi-square test of nested OLS fits on the same rows.

    df defaults to the parameter-count difference; pass an explicit df to
    override (the reported statistics elsewhere imply single-df tests, so
    both conventions are supported). A NaN log-likelihood raises ValueError.
    """
    if not reduced.predictors <= full.predictors:
        raise NestingError(
            "reduced predictors are not a subset of the full predictors"
        )
    if full.n != reduced.n:
        raise NestingError(f"fits use different row counts: {full.n} vs {reduced.n}")
    return _chi_square_test(
        full.log_likelihood - reduced.log_likelihood,
        full.p - reduced.p if df is None else df,
    )


def _chi_square_test(delta: float, df: int) -> ModelComparisonResult:
    """Chi-square test of a log-likelihood gain: chi2 = 2*delta clamped at
    0, p = 1 at df 0; a negative df raises NestingError and a NaN gain
    raises ValueError."""
    if df < 0:
        raise NestingError(f"negative degrees of freedom: {df}")
    if math.isnan(delta):
        raise ValueError("log-likelihood gain is NaN")
    chi2 = max(0.0, 2.0 * delta)
    p_value = 1.0 if df == 0 else chi_square_sf(chi2, df)
    return ModelComparisonResult(chi2=chi2, df=df, p_value=p_value, delta_loglik=delta)


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution.

    scipy's `special.chdtrc`, the regularized upper incomplete gamma
    Q(df/2, x/2); the test suite pins it to the closed forms for df 1-10.
    A NaN statistic or df is rejected; x = inf gives 0.0 and x = 0 gives 1.0.
    """
    if not x >= 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if not df >= 1:
        raise ValueError(f"df must be >= 1, got {df}")
    return float(special.chdtrc(df, x))


def bonferroni_alpha(alpha: float) -> float:
    """Alpha divided by 6, the number of phoneme positions tested."""
    return alpha / 6


def build_trace_set(
    trie: CohortTrie,
    ambiguities: Sequence[float] = AMBIGUITY_LEVELS,
    pairs: Sequence[tuple[str, str]] = PLOSIVE_VOICING_PAIRS,
    min_length: int = 2,
    *,
    on_skip: Callable[[LexiconEntry, float], None] | None = None,
) -> list[MetricTrace]:
    """Traces for every voicing-onset word at each ambiguity level.

    Evidence is oriented per word (phoneme_a = the word's own onset,
    phoneme_b = its voicing partner). Word/ambiguity combinations whose
    committed-onset path dies (impossible continuation) are skipped, the
    way untraceable trials drop out of an observed dataset; `on_skip`,
    when given, is called with each skipped entry and evidence level.
    """
    partner = {}
    for first, second in pairs:
        partner[first] = second
        partner[second] = first
    traces = []
    for entry in trie.lexicon.entries:
        other = partner.get(entry.onset)
        if other is None or len(entry.pron) < min_length:
            continue
        for p_a in ambiguities:
            evidence = AcousticEvidence(entry.onset, other, p_a)
            try:
                traces.append(metric_trace(trie, entry, evidence))
            except ImpossibleContinuationError:
                if on_skip is not None:
                    on_skip(entry, p_a)
    return traces


def simulate_dataset(
    traces: Sequence[MetricTrace],
    position: int,
    generator: str,
    betas: tuple[float, float],
    noise_sd: float,
    n_subjects: int,
    subject_sd: float,
    trials_per_subject: int,
    seed: int,
) -> RegressionDataset:
    """Synthetic responses driven by one model's metrics at one position.

    response = beta_surprisal * surprisal + beta_entropy * entropy
    + subject intercept ~ N(0, subject_sd^2) + noise ~ N(0, noise_sd^2),
    with the generating model's values supplying the metric terms. Each
    subject runs `trials_per_subject` trials drawn uniformly from the
    traces that reach `position`. Nuisance covariates are drawn
    independently per trial: phoneme latency N(87, 25) (second-phoneme
    timing), onset amplitude N(0, 1), trial number uniform over
    1..trials_per_subject, block number uniform over 1..5. Traces must be
    at the partially ambiguous evidence levels (0.25/0.75).

    The random draws are made subject by subject in a fixed order; each
    trial's metrics are then gathered from per-trace arrays by its drawn
    trace index. All randomness comes from numpy's seeded PCG64
    generator, so a fixed seed reproduces the dataset exactly.
    Parameters so large that a response overflows raise ValueError.
    """
    if generator not in MODEL_PREDICTORS:
        raise ValueError(f"generator must be 'acoustic' or 'switch', got {generator!r}")
    if n_subjects < 2:
        raise ValueError(f"need at least 2 subjects, got {n_subjects}")
    if trials_per_subject < 1:
        raise ValueError(
            f"trials_per_subject must be >= 1, got {trials_per_subject}"
        )
    for name, sd in (("noise_sd", noise_sd), ("subject_sd", subject_sd)):
        if not (math.isfinite(sd) and sd >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {sd}")
    if not all(math.isfinite(b) for b in betas):
        raise ValueError(f"betas must be finite, got {tuple(betas)}")
    # numpy rejects a scale of -0.0 as negative
    noise_sd, subject_sd = abs(noise_sd), abs(subject_sd)
    eligible = [t for t in traces if t.point_at(position) is not None]
    if not eligible:
        raise ValueError(f"no trace reaches position {position}")
    beta_surprisal, beta_entropy = betas
    rng = np.random.default_rng(seed)
    intercepts = rng.normal(0.0, subject_sd, n_subjects)
    draws = [
        (
            rng.integers(0, len(eligible), trials_per_subject),
            rng.normal(87.0, 25.0, trials_per_subject),
            rng.normal(0.0, 1.0, trials_per_subject),
            rng.integers(1, trials_per_subject + 1, trials_per_subject),
            rng.integers(1, N_BLOCKS + 1, trials_per_subject),
            rng.normal(0.0, noise_sd, trials_per_subject),
        )
        for _ in range(n_subjects)
    ]
    trace_idx, latency, amplitude, trial_numbers, blocks, noise = (
        np.concatenate(draw) for draw in zip(*draws)
    )
    subject = np.repeat(np.arange(n_subjects), trials_per_subject)
    points = [t.point_at(position) for t in eligible]
    columns = {
        name: np.array([getattr(point, name) for point in points], dtype=float)[trace_idx]
        for model in MODEL_PREDICTORS.values()
        for name in model
    }
    surprisal, entropy = (columns[name] for name in MODEL_PREDICTORS[generator])
    with np.errstate(over="ignore", invalid="ignore"):
        response = (
            beta_surprisal * surprisal + beta_entropy * entropy
            + intercepts[subject] + noise
        )
    pair_labels = np.array([
        "-".join(sorted((t.evidence.phoneme_a, t.evidence.phoneme_b)))
        for t in eligible
    ])
    width = len(str(n_subjects))
    subject_ids = np.array([f"s{s + 1:0{width}d}" for s in range(n_subjects)])
    # built before the overflow check, so that an off-grid ambiguity is
    # reported first
    dataset = RegressionDataset({
        **columns,
        "response": response,
        "phoneme_latency": latency,
        "trial_number": trial_numbers,
        "block_number": blocks,
        "onset_amplitude": amplitude,
        "phoneme_pair": pair_labels[trace_idx],
        "ambiguity": np.array([t.evidence.p_a for t in eligible], dtype=float)[trace_idx],
        "subject_id": subject_ids[subject],
    })
    if not np.isfinite(response).all():
        raise ValueError(
            "simulated responses are not finite: betas, noise_sd or subject_sd "
            "too large"
        )
    return dataset


def _removal_tests(
    dataset: RegressionDataset, models: Iterable[str], df: int | None
) -> Callable[[np.ndarray], dict[str, ModelComparisonResult]]:
    """y -> {model: test of removing that model}, for each of `models`.

    The full design is built and factored once, as is each reduced
    design: the full design's columns without the model's two, in the
    same order and row-major layout, so all fits share one dummy coding.
    """
    X, names = _design_matrix(dataset, FULL_PREDICTORS)
    n, p = X.shape
    solve_full = _least_squares(X, names)
    reduced = {}
    for model in models:
        keep = [j for j, name in enumerate(names) if name not in MODEL_PREDICTORS[model]]
        solve = _least_squares(np.ascontiguousarray(X[:, keep]), [names[j] for j in keep])
        reduced[model] = solve, (p - len(keep) if df is None else df)

    def test(y: np.ndarray) -> dict[str, ModelComparisonResult]:
        loglik_full = _loglik_from_sse(n, solve_full(y)[1])
        return {
            model: _chi_square_test(loglik_full - _loglik_from_sse(n, solve(y)[1]), df_used)
            for model, (solve, df_used) in reduced.items()
        }

    return test


def compare_removals(
    dataset: RegressionDataset, df: int | None = None
) -> dict[str, ModelComparisonResult]:
    """Fit the full model and both single-model removals, test each removal."""
    return _removal_tests(dataset, MODEL_PREDICTORS, df)(dataset.columns["response"])


def model_recovery(
    traces: Sequence[MetricTrace],
    position: int,
    generator: str,
    betas: tuple[float, float],
    noise_sd: float,
    n_subjects: int,
    subject_sd: float,
    trials_per_subject: int,
    n_sims: int,
    alpha: float,
    seed: int,
    df: int | None = None,
    *,
    on_dataset: Callable[[int, RegressionDataset], None] | None = None,
) -> RecoverySummary:
    """Repeated simulate-and-compare rounds scoring model detection.

    A model counts as detected in a simulation when removing its
    surprisal and entropy predictors from the full fit loses significant
    likelihood (p < alpha). Simulation i uses seed + i, so rounds are
    independent and the whole run is reproducible. `on_dataset`, when
    given, is called with each simulation's index and dataset before that
    dataset is fitted.
    """
    if n_sims < 1:
        raise ValueError(f"need at least one simulation, got {n_sims}")
    records = []
    tallies = {"acoustic": 0, "switch": 0}
    for sim in range(n_sims):
        dataset = simulate_dataset(
            traces, position, generator, betas, noise_sd,
            n_subjects, subject_sd, trials_per_subject, seed + sim,
        )
        if on_dataset is not None:
            on_dataset(sim, dataset)
        for model, result in compare_removals(dataset, df).items():
            detected = result.p_value < alpha
            tallies[model] += detected
            records.append(ComparisonRecord(
                sim, model, result.chi2, result.df, result.p_value,
                result.delta_loglik, detected,
            ))
    return RecoverySummary(
        generator=generator,
        n_sims=n_sims,
        alpha=alpha,
        acoustic_detection_rate=tallies["acoustic"] / n_sims,
        switch_detection_rate=tallies["switch"] / n_sims,
        generating_detection_rate=tallies[generator] / n_sims,
        records=tuple(records),
    )


@dataclass(frozen=True)
class CalibrationResult:
    """Null-distribution check from response permutations."""

    n_permutations: int
    alpha: float
    fraction_below_alpha: float
    p_values: tuple[float, ...]


def permutation_calibration(
    dataset: RegressionDataset,
    n_permutations: int,
    alpha: float,
    seed: int,
    removed: str = "acoustic",
    df: int | None = None,
) -> CalibrationResult:
    """False-positive rate of the removal test under permuted responses.

    Shuffling the response column breaks every response-predictor link,
    so the removal test's p-values should be roughly uniform and the
    fraction below alpha should sit near alpha. Each round is
    compare_removals' test of `removed` on the shuffled response; the
    designs are fixed across permutations and factored once. Designs
    compare_removals rejects (too few rows, rank deficient, a negative
    df) raise the same errors here.
    """
    if removed not in MODEL_PREDICTORS:
        raise ValueError(f"removed must be 'acoustic' or 'switch', got {removed!r}")
    if n_permutations < 1:
        raise ValueError(f"need at least one permutation, got {n_permutations}")
    test = _removal_tests(dataset, (removed,), df)
    y = dataset.columns["response"]
    rng = np.random.default_rng(seed)
    p_values = [
        test(y[rng.permutation(len(y))])[removed].p_value
        for _ in range(n_permutations)
    ]
    below = sum(1 for pv in p_values if pv < alpha)
    return CalibrationResult(
        n_permutations=n_permutations,
        alpha=alpha,
        fraction_below_alpha=below / n_permutations,
        p_values=tuple(p_values),
    )


def write_dataset(dataset: RegressionDataset, path: str | Path) -> None:
    """One CSV row per observation, headed by the REGRESSION_FIELDS names."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(REGRESSION_FIELDS)
        writer.writerows(
            zip(*(dataset.columns[name].tolist() for name in REGRESSION_FIELDS))
        )
