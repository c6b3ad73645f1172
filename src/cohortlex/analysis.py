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
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import linalg

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


@dataclass(frozen=True)
class RegressionRow:
    """One synthetic observation: response plus all predictors."""

    response: float
    acoustic_surprisal: float
    acoustic_entropy: float
    switch_surprisal: float
    switch_entropy: float
    phoneme_latency: float
    trial_number: int
    block_number: int
    onset_amplitude: float
    phoneme_pair: str
    ambiguity: float
    subject_id: str

    def __post_init__(self):
        if self.ambiguity not in AMBIGUITY_LEVELS:
            raise ValueError(
                f"ambiguity must be one of {AMBIGUITY_LEVELS}, got {self.ambiguity}"
            )


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


@dataclass(frozen=True)
class ComparisonRecord:
    """One removal test inside a recovery simulation."""

    sim: int
    removed: str
    chi2: float
    df: int
    p_value: float
    delta_loglik: float
    detected: bool


@dataclass(frozen=True)
class RecoverySummary:
    """Detection rates over repeated simulate-fit-compare rounds."""

    generator: str
    n_sims: int
    alpha: float
    acoustic_detection_rate: float
    switch_detection_rate: float
    generating_detection_rate: float
    other_detection_rate: float
    exclusive_generating_rate: float
    either_rate: float
    records: tuple[ComparisonRecord, ...]


def _columns_of(rows: Sequence[RegressionRow]) -> dict[str, np.ndarray]:
    """The dataset as one numpy array per REGRESSION_FIELDS column."""
    columns = {}
    for name in REGRESSION_FIELDS:
        values = [getattr(r, name) for r in rows]
        columns[name] = np.array(
            values, dtype=None if name in CATEGORICAL_PREDICTORS else float
        )
    return columns


def _rows_of(columns: dict[str, np.ndarray]) -> list[RegressionRow]:
    """The RegressionRow view of a columnar dataset (Python scalars)."""
    values = [columns[name].tolist() for name in REGRESSION_FIELDS]
    return [RegressionRow(*row) for row in zip(*values)]


def _design_matrix(
    columns: dict[str, np.ndarray], predictors: Iterable[str]
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
    design = [np.ones(len(columns["response"]))]
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


def ols_fit(rows: Sequence[RegressionRow], predictors: Iterable[str]) -> FitResult:
    """Least-squares fit of `response` on the selected predictor set.

    The log-likelihood uses the maximum-likelihood variance estimate
    (SSE/n) floored at 1e-12 so exact fits stay finite. Rank-deficient
    designs raise SingularDesignError naming the collinear columns.
    """
    columns = _columns_of(rows)
    X, names = _design_matrix(columns, predictors)
    return _fit(X, names, columns["response"], frozenset(predictors))


def _fit(
    X: np.ndarray, names: list[str], y: np.ndarray, predictors: frozenset[str]
) -> FitResult:
    """ols_fit on a design matrix already built."""
    n, p = X.shape
    if n <= p:
        raise ValueError(f"need more rows than parameters: n={n}, p={p}")
    beta, sse = _least_squares(X, names)(y)
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

    Raises SingularDesignError naming the collinear columns when X is
    rank deficient. The SSE is summed from the explicit residuals; when
    it is not finite (responses too large, or not finite) the solver
    raises ValueError.
    """
    n, p = X.shape
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
    both conventions are supported).
    """
    if not reduced.predictors <= full.predictors:
        raise NestingError(
            "reduced predictors are not a subset of the full predictors"
        )
    if full.n != reduced.n:
        raise NestingError(f"fits use different row counts: {full.n} vs {reduced.n}")
    delta = full.log_likelihood - reduced.log_likelihood
    chi2 = max(0.0, 2.0 * delta)
    df_used = full.p - reduced.p if df is None else df
    if df_used < 0:
        raise NestingError(f"negative degrees of freedom: {df_used}")
    p_value = 1.0 if df_used == 0 else chi_square_sf(chi2, df_used)
    return ModelComparisonResult(
        chi2=chi2, df=df_used, p_value=p_value, delta_loglik=delta
    )


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability of the chi-square distribution.

    Regularized upper incomplete gamma Q(df/2, x/2): power series for
    small arguments, Lentz continued fraction for large. Absolute error
    well under 1e-10 on the df <= 20, x <= 100 range.
    """
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    shape = df / 2.0
    t = x / 2.0
    if t == 0.0:
        return 1.0
    if t < shape + 1.0:
        return min(1.0, max(0.0, 1.0 - _gamma_p_series(shape, t)))
    return min(1.0, max(0.0, _gamma_q_continued_fraction(shape, t)))


def _gamma_p_series(shape: float, t: float) -> float:
    term = 1.0 / shape
    total = term
    denom = shape
    for _ in range(500):
        denom += 1.0
        term *= t / denom
        total += term
        if abs(term) < abs(total) * 1e-17:
            break
    return total * math.exp(-t + shape * math.log(t) - math.lgamma(shape))


def _gamma_q_continued_fraction(shape: float, t: float) -> float:
    tiny = 1e-300
    b = t + 1.0 - shape
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, 500):
        a_i = -i * (i - shape)
        b += 2.0
        d = a_i * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a_i / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-t + shape * math.log(t) - math.lgamma(shape))


def bonferroni_alpha(alpha: float, n_comparisons: int = 6) -> float:
    """Alpha corrected for testing multiple phoneme positions."""
    return alpha / n_comparisons


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
) -> list[RegressionRow]:
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

    All randomness comes from numpy's seeded PCG64 generator, so a fixed
    seed reproduces the dataset exactly. Parameters so large that a
    response overflows raise ValueError.
    """
    return _rows_of(_simulate_columns(
        traces, position, generator, betas, noise_sd,
        n_subjects, subject_sd, trials_per_subject, seed,
    ))


def _simulate_columns(
    traces: Sequence[MetricTrace],
    position: int,
    generator: str,
    betas: tuple[float, float],
    noise_sd: float,
    n_subjects: int,
    subject_sd: float,
    trials_per_subject: int,
    seed: int,
) -> dict[str, np.ndarray]:
    """simulate_dataset's dataset as numpy columns (see _columns_of).

    The random draws are made subject by subject in a fixed order; each
    trial's metrics are then gathered from per-trace arrays by its drawn
    trace index.
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
    ambiguity = np.array([t.evidence.p_a for t in eligible], dtype=float)[trace_idx]
    off_grid = np.flatnonzero(~np.isin(ambiguity, AMBIGUITY_LEVELS))
    if off_grid.size:
        p_a = eligible[trace_idx[off_grid[0]]].evidence.p_a
        raise ValueError(f"ambiguity must be one of {AMBIGUITY_LEVELS}, got {p_a}")
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
    if not np.isfinite(response).all():
        raise ValueError(
            "simulated responses are not finite: betas, noise_sd or subject_sd "
            "too large"
        )
    pair_labels = np.array([
        "-".join(sorted((t.evidence.phoneme_a, t.evidence.phoneme_b)))
        for t in eligible
    ])
    width = len(str(n_subjects))
    subject_ids = np.array([f"s{s + 1:0{width}d}" for s in range(n_subjects)])
    columns.update(
        response=response,
        phoneme_latency=latency,
        trial_number=trial_numbers,
        block_number=blocks,
        onset_amplitude=amplitude,
        phoneme_pair=pair_labels[trace_idx],
        ambiguity=ambiguity,
        subject_id=subject_ids[subject],
    )
    return columns


def reduced_predictors(removed_model: str) -> tuple[str, ...]:
    """The full predictor set minus one model's surprisal and entropy."""
    removed = MODEL_PREDICTORS[removed_model]
    return tuple(name for name in FULL_PREDICTORS if name not in removed)


def compare_removals(
    rows: Sequence[RegressionRow], df: int | None = None
) -> dict[str, ModelComparisonResult]:
    """Fit the full model and both single-model removals, test each removal."""
    return _compare_columns(_columns_of(rows), df)


def _reduced_design(
    X: np.ndarray, names: Sequence[str], removed_model: str
) -> tuple[np.ndarray, list[str]]:
    """The full design without one model's columns, as _design_matrix
    would build it (same column order, same row-major layout)."""
    removed = MODEL_PREDICTORS[removed_model]
    keep = [j for j, name in enumerate(names) if name not in removed]
    return np.ascontiguousarray(X[:, keep]), [names[j] for j in keep]


def _compare_columns(
    columns: dict[str, np.ndarray], df: int | None
) -> dict[str, ModelComparisonResult]:
    """compare_removals on a columnar dataset: the full design is built
    once and each reduced design is a subset of its columns."""
    X, names = _design_matrix(columns, FULL_PREDICTORS)
    y = columns["response"]
    full_fit = _fit(X, names, y, frozenset(FULL_PREDICTORS))
    results = {}
    for model in ("acoustic", "switch"):
        reduced_fit = _fit(
            *_reduced_design(X, names, model), y, frozenset(reduced_predictors(model))
        )
        results[model] = likelihood_ratio_test(full_fit, reduced_fit, df=df)
    return results


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
) -> RecoverySummary:
    """Repeated simulate-and-compare rounds scoring model detection.

    A model counts as detected in a simulation when removing its
    surprisal and entropy predictors from the full fit loses significant
    likelihood (p < alpha). Simulation i uses seed + i, so rounds are
    independent and the whole run is reproducible.
    """
    if n_sims < 1:
        raise ValueError(f"need at least one simulation, got {n_sims}")
    other = "switch" if generator == "acoustic" else "acoustic"
    records = []
    tallies = {"acoustic": 0, "switch": 0}
    exclusive = 0
    either = 0
    for sim in range(n_sims):
        columns = _simulate_columns(
            traces, position, generator, betas, noise_sd,
            n_subjects, subject_sd, trials_per_subject, seed + sim,
        )
        comparisons = _compare_columns(columns, df)
        detected = {}
        for model, result in comparisons.items():
            detected[model] = result.p_value < alpha
            tallies[model] += detected[model]
            records.append(
                ComparisonRecord(
                    sim=sim,
                    removed=model,
                    chi2=result.chi2,
                    df=result.df,
                    p_value=result.p_value,
                    delta_loglik=result.delta_loglik,
                    detected=detected[model],
                )
            )
        exclusive += detected[generator] and not detected[other]
        either += detected[generator] or detected[other]
    return RecoverySummary(
        generator=generator,
        n_sims=n_sims,
        alpha=alpha,
        acoustic_detection_rate=tallies["acoustic"] / n_sims,
        switch_detection_rate=tallies["switch"] / n_sims,
        generating_detection_rate=tallies[generator] / n_sims,
        other_detection_rate=tallies[other] / n_sims,
        exclusive_generating_rate=exclusive / n_sims,
        either_rate=either / n_sims,
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
    rows: Sequence[RegressionRow],
    n_permutations: int,
    alpha: float,
    seed: int,
    removed: str = "acoustic",
    df: int | None = None,
) -> CalibrationResult:
    """False-positive rate of the removal test under permuted responses.

    Shuffling the response column breaks every response-predictor link,
    so the removal test's p-values should be roughly uniform and the
    fraction below alpha should sit near alpha. The design matrices are
    fixed across permutations and factored once; each round re-solves the
    two least-squares problems against the shuffled response. A rank
    deficient design raises SingularDesignError, as in ols_fit.
    """
    if removed not in MODEL_PREDICTORS:
        raise ValueError(f"removed must be 'acoustic' or 'switch', got {removed!r}")
    if n_permutations < 1:
        raise ValueError(f"need at least one permutation, got {n_permutations}")
    columns = _columns_of(rows)
    X_full, full_names = _design_matrix(columns, FULL_PREDICTORS)
    X_reduced, reduced_names = _reduced_design(X_full, full_names, removed)
    solve_full = _least_squares(X_full, full_names)
    solve_reduced = _least_squares(X_reduced, reduced_names)
    y = columns["response"]
    n = len(y)
    df_used = X_full.shape[1] - X_reduced.shape[1] if df is None else df
    rng = np.random.default_rng(seed)
    p_values = []
    for _ in range(n_permutations):
        shuffled = y[rng.permutation(n)]
        ll_full = _loglik_from_sse(n, solve_full(shuffled)[1])
        ll_reduced = _loglik_from_sse(n, solve_reduced(shuffled)[1])
        chi2 = max(0.0, 2.0 * (ll_full - ll_reduced))
        p_values.append(1.0 if df_used == 0 else chi_square_sf(chi2, df_used))
    below = sum(1 for pv in p_values if pv < alpha)
    return CalibrationResult(
        n_permutations=n_permutations,
        alpha=alpha,
        fraction_below_alpha=below / n_permutations,
        p_values=tuple(p_values),
    )


def write_dataset(rows: Sequence[RegressionRow], path: str | Path) -> None:
    """One CSV row per observation, headed by the RegressionRow field names."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(REGRESSION_FIELDS)
        for row in rows:
            writer.writerow([getattr(row, field) for field in REGRESSION_FIELDS])
