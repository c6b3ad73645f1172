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
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

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
_METRICS = tuple(name for model in MODEL_PREDICTORS.values() for name in model)

REGRESSION_FIELDS = ("response",) + FULL_PREDICTORS

AMBIGUITY_LEVELS = (0.25, 0.75)

N_BLOCKS = 5

_SSE_NOT_FINITE = (
    "residual sum of squares is not finite: responses too large or not finite"
)


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
        _check_ambiguity(columns["ambiguity"])
        object.__setattr__(self, "columns", MappingProxyType(columns))

    def __len__(self) -> int:
        return len(self.columns["response"])


def _check_ambiguity(ambiguity: np.ndarray) -> None:
    """Raise ValueError naming the first value, in row order, that is not
    on AMBIGUITY_LEVELS."""
    off_grid = np.flatnonzero(~np.isin(ambiguity, AMBIGUITY_LEVELS))
    if off_grid.size:
        raise ValueError(
            f"ambiguity must be one of {AMBIGUITY_LEVELS}, "
            f"got {ambiguity[off_grid[0]].item()}"
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
        if name in wanted:
            for label, dummy in _dummies(name, *_levels(columns[name])):
                design.append(dummy)
                names.append(label)
    return np.column_stack(design), names


def _levels(values) -> tuple[list, np.ndarray]:
    """(labels, codes) of one categorical column: its distinct values
    sorted by their string form, and each row's index into them."""
    levels, codes = np.unique(values, return_inverse=True)
    levels = levels.tolist()
    order = sorted(range(len(levels)), key=lambda i: str(levels[i]))
    rank = np.empty(len(order), dtype=codes.dtype)
    rank[order] = np.arange(len(order))
    return [levels[i] for i in order], rank[codes]


def _dummies(name: str, labels: Sequence, codes: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Reference-coded dummy columns `name=label` of one coded categorical
    column, for the labels that occur in `codes`; the first of them is the
    reference."""
    present = np.flatnonzero(np.bincount(codes, minlength=len(labels)))
    return [(f"{name}={labels[k]}", (codes == k).astype(float)) for k in present[1:]]


def ols_fit(dataset: RegressionDataset, predictors: Iterable[str]) -> FitResult:
    """Least-squares fit of `response` on the selected predictor set.

    The design is factored by a QR without pivoting (Golub & Van Loan,
    Matrix Computations, 5.2). It must have more rows than columns (else
    ValueError), and a rank-deficient one raises SingularDesignError
    naming, in design order, the columns that lie in the span of the
    columns before them, or the columns too small to rank next to the
    largest (see _check_rank). The SSE is summed from the explicit
    residuals; when it is not finite (responses too large, or not
    finite) the fit raises ValueError, as does a design column holding a
    NaN or an infinity. The log-likelihood uses the maximum-likelihood
    variance estimate (SSE/n) floored at 1e-12 so exact fits stay finite.
    """
    predictors = frozenset(predictors)
    X, names = _design_matrix(dataset, predictors)
    n, p = X.shape
    if n <= p:
        raise ValueError(f"need more rows than parameters: n={n}, p={p}")
    _require_finite(dict(zip(names, X.T)))
    q, r_matrix = np.linalg.qr(X)
    _check_rank(X, r_matrix, names, "collinear design columns:")
    y = dataset.columns["response"]
    with np.errstate(over="ignore", invalid="ignore"):
        beta = np.linalg.solve(r_matrix, q.T @ y)
        residuals = y - X @ beta
        sse = float(residuals @ residuals)
    if not math.isfinite(sse):
        raise ValueError(_SSE_NOT_FINITE)
    return FitResult(
        coefficients=dict(zip(names, beta.tolist())),
        residual_variance=max(sse / n, VARIANCE_FLOOR),
        log_likelihood=_loglik_from_sse(n, sse),
        n=n,
        p=p,
        predictors=predictors,
    )


def _require_finite(columns: Mapping[str, np.ndarray]) -> None:
    """Raise ValueError naming the design columns that hold a NaN or an
    infinity: no QR of them has a rank."""
    bad = [name for name, column in columns.items() if not np.isfinite(column).all()]
    if bad:
        raise ValueError(f"design columns are not finite: {bad}")


def _check_rank(
    design: np.ndarray,
    r: np.ndarray,
    names: Sequence[str],
    describe: str,
    columns: np.ndarray | None = None,
) -> None:
    """Raise SingularDesignError when `design`, factored without pivoting
    with triangular factor `r`, is rank deficient.

    The rank rule: the tolerance is the largest column norm of R (R's
    column norms are the design's) times max(n, p) times machine epsilon,
    and a column is lost when its |R| diagonal entry is at or below it; a
    design with fewer rows than columns has a trapezoidal R and is rank
    deficient. A column whose own norm (in `columns`, by default the
    design) is not zero but at or below the tolerance is negligible next
    to the largest, not in a span: the error then says the design is too
    badly scaled to rank, naming those columns and the largest. Otherwise
    it names after `describe`, in design order, the columns in the span
    of the columns before them (see _spanned_columns); an all-zero column
    lies in every span.
    """
    n, p = design.shape
    # hypot sums the squares without overflow
    norms = np.hypot.reduce(r, axis=0)
    tol = float(norms.max(initial=0.0)) * max(n, p) * np.finfo(float).eps
    if r.shape[0] == p and not np.any(np.abs(np.diagonal(r)) <= tol):
        return
    own = np.hypot.reduce(design if columns is None else columns, axis=0)
    negligible = [names[j] for j in np.flatnonzero((own > 0) & (own <= tol))]
    if negligible:
        raise SingularDesignError(
            f"design too badly scaled to rank: columns {negligible} are negligible "
            f"next to column {names[int(np.argmax(norms))]!r}"
        )
    spanned = [names[j] for j in _spanned_columns(design, tol)]
    raise SingularDesignError(f"{describe} {spanned}")


def _spanned_columns(x: np.ndarray, tol: float) -> list[int]:
    """Indices, in order, of the columns of `x` that lie in the span of
    the columns before them: those whose |R| diagonal entry, in a QR of
    the columns before them that are not themselves lost, is at or below
    `tol`. Each lost column is dropped and the rest refactored, so no
    pivot order and no lost column's rounding direction decides a later
    column. Zero rows are added to a design with fewer rows than
    columns; they change no column's distance from a span.
    """
    n, p = x.shape
    if n < p:
        x = np.vstack([x, np.zeros((p - n, p))])
    kept, lost, start = list(range(p)), [], 0
    while True:
        diag = np.abs(np.diagonal(np.linalg.qr(x[:, kept], mode="r")))
        small = np.flatnonzero(diag[start:] <= tol)
        if not small.size:
            return lost
        start += int(small[0])
        lost.append(kept.pop(start))


def _householder(
    design: np.ndarray, names: Sequence[str], columns: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Householder QR of `design` (columns `names`) without pivoting,
    Q kept as its reflectors in compact-WY form, Q = I - V T V' (Golub &
    Van Loan, Matrix Computations, 5.1-5.2; Schreiber & Van Loan 1989),
    so Q'y = y - V (T' (V' y)) and no Q is formed.

    Returns (V, T, R): V unit lower trapezoidal and Fortran-ordered, the
    layout on which V'y and V z run fastest; T upper triangular, built by
    LAPACK dlarft's recurrence, which divides by nothing, so a tau of 0 (a
    column with nothing below the diagonal, as the last of a square
    design) is no special case; R upper triangular, or trapezoidal when
    `design` has fewer rows than columns. A rank-deficient design raises
    SingularDesignError naming its collinear columns (see _check_rank,
    which takes `columns`).
    """
    # numpy factors a copy of the design and returns it transposed: h holds
    # R on and above the diagonal and the reflectors' tails below it
    h, tau = np.linalg.qr(np.asfortranarray(design), mode="raw")
    h = h.T
    k = len(tau)
    r = np.triu(h[:k])
    _check_rank(design, r, names, "collinear design columns:", columns)
    # the reflectors are written over h's copy of the design, which a
    # Fortran-ordered design leaves Fortran-ordered
    v = np.asfortranarray(h[:, :k])
    v[:k] = np.tril(v[:k], -1) + np.eye(k)
    gram = v.T @ v
    t = np.zeros((k, k))
    for j in range(k):
        t[:j, j] = -tau[j] * (t[:j, :j] @ gram[:j, j])
        t[j, j] = tau[j]
    return v, t, r


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

    The regularized upper incomplete gamma Q(df/2, x/2) for an integer
    df >= 1, from its finite sum in h = x/2 (Abramowitz & Stegun
    26.4.4-26.4.5): the terms e^-h h^j / j! for j = 0, 1, ... < df/2 at
    even df, and erfc(sqrt(h)) plus the terms e^-h h^j / Gamma(j + 1) for
    j = 1/2, 3/2, ... < df/2 at odd df. Each term is taken in log space,
    so none underflows before the sum does, and the terms are added
    exactly by `math.fsum`. The terms rise up to j near h and fall after
    it; those more than 40 (sqrt(h) + 1) from the largest one are below
    e^-800 of it and are not summed, so a large df costs no more than
    its peak's width. A NaN statistic, a df below 1 or a non-integer df
    raises ValueError; x = inf gives 0.0 and x = 0 gives 1.0.
    """
    if not x >= 0:
        raise ValueError(f"x must be >= 0, got {x}")
    if not float(df).is_integer():
        raise ValueError(f"df must be an integer, got {df}")
    if not df >= 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = x / 2.0
    log_h = math.log(h)
    df = int(df)
    offset = (df % 2) / 2.0
    width = math.ceil(40.0 * (math.sqrt(h) + 1.0))
    count = df // 2
    peak = min(max(round(h - offset), 0), count - 1)
    first, stop = max(peak - width, 0), min(peak + width + 1, count)
    terms = [
        math.exp(j * log_h - h - math.lgamma(j + 1.0))
        for j in (offset + i for i in range(first, stop))
    ]
    if df % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return min(1.0, math.fsum(terms))


def bonferroni_alpha(alpha: float) -> float:
    """Alpha divided by 6, the number of phoneme positions tested."""
    return alpha / 6


def build_trace_set(
    trie: CohortTrie,
    ambiguities: Sequence[float] = AMBIGUITY_LEVELS,
    pairs: Sequence[tuple[str, str]] = PLOSIVE_VOICING_PAIRS,
    *,
    on_skip: Callable[[LexiconEntry, float], None] | None = None,
) -> list[MetricTrace]:
    """Traces for each voicing-onset word of any length at each ambiguity level.

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
    lexicon = trie.lexicon
    onsets = map(lexicon.phonemes.__getitem__, lexicon.codes[lexicon.offsets[:-1]].tolist())
    traces = []
    for index, onset in enumerate(onsets):
        other = partner.get(onset)
        if other is None:
            continue
        entry = lexicon.entry(index)
        for p_a in ambiguities:
            evidence = AcousticEvidence(onset, other, p_a)
            try:
                traces.append(metric_trace(trie, entry, evidence))
            except ImpossibleContinuationError:
                if on_skip is not None:
                    on_skip(entry, p_a)
    return traces


def _trace_columns(traces: Sequence[MetricTrace], position: int) -> dict[str, np.ndarray]:
    """One entry per trace that reaches `position`: the four metric columns
    and the `phoneme_pair` and `ambiguity` columns. An `ambiguity` off
    AMBIGUITY_LEVELS raises ValueError naming the first, in trace order."""
    eligible = [t for t in traces if t.point_at(position) is not None]
    if not eligible:
        raise ValueError(f"no trace reaches position {position}")
    points = [t.point_at(position) for t in eligible]
    columns = {
        name: np.array([getattr(point, name) for point in points], dtype=float)
        for name in _METRICS
    }
    columns["phoneme_pair"] = np.array([
        "-".join(sorted((t.evidence.phoneme_a, t.evidence.phoneme_b)))
        for t in eligible
    ])
    columns["ambiguity"] = np.array([t.evidence.p_a for t in eligible], dtype=float)
    _check_ambiguity(columns["ambiguity"])
    return columns


def _check_cells(
    per_trace: Mapping[str, np.ndarray],
    levels: Mapping[str, tuple[list, np.ndarray]],
    position: int,
) -> None:
    """Raise SingularDesignError when the traces that reach `position` cannot
    identify the metric effects, whatever the draws.

    A trial's intercept, pair and ambiguity dummies and four metrics are
    fixed by its trace's cell: the voicing pair, the word's own onset,
    `p_a` and, past position 1, the metric values of its continuation. The
    cell-level design has these columns and one row per distinct cell.
    Only its R is formed, by the QR whose R _householder keeps (numpy's,
    without pivoting). When that R is rank deficient under ols_fit's
    tolerance rule, or the cells are fewer than the columns, every
    simulated design is too; the message names the position and, in
    design order, the columns that lie in the span of the columns before
    them, unless the cells are too badly scaled to rank (see
    _check_rank). `levels` holds the pair and ambiguity columns as
    _levels codes them.
    """
    names = ["(intercept)"]
    nuisance = [np.ones(len(per_trace["ambiguity"]))]
    for name, (labels, codes) in levels.items():
        for label, dummy in _dummies(name, labels, codes):
            names.append(label)
            nuisance.append(dummy)
    names.extend(_METRICS)
    cells = np.unique(
        np.column_stack(nuisance + [per_trace[name] for name in _METRICS]), axis=0
    )
    _check_rank(
        cells,
        np.linalg.qr(cells, mode="r"),
        names,
        f"position {position}: the cells of the traces that reach it cannot separate columns",
    )


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
    1..trials_per_subject, block number uniform over 1..5. Every trace
    that reaches `position` must be at the partially ambiguous evidence
    levels (0.25/0.75); an off-grid one raises ValueError before any draw,
    whether or not a draw would pick it.

    The random draws are made subject by subject in a fixed order; each
    trial's metrics are then gathered from per-trace arrays by its drawn
    trace index. All randomness comes from numpy's seeded PCG64
    generator, so a fixed seed reproduces the dataset exactly.
    Parameters so large that a response overflows raise ValueError.
    """
    draw, subject = _trials(
        generator, betas, noise_sd, n_subjects, subject_sd, trials_per_subject
    )
    per_trace = _trace_columns(traces, position)
    trace_idx, covariates, response = draw(per_trace, seed)
    width = len(str(n_subjects))
    subject_ids = np.array([f"s{s + 1:0{width}d}" for s in range(n_subjects)])
    return RegressionDataset({
        **{name: column[trace_idx] for name, column in per_trace.items()},
        **covariates,
        "response": response,
        "subject_id": subject_ids[subject],
    })


def _trials(
    generator: str,
    betas: tuple[float, float],
    noise_sd: float,
    n_subjects: int,
    subject_sd: float,
    trials_per_subject: int,
) -> tuple[Callable[[Mapping[str, np.ndarray], int], tuple], np.ndarray]:
    """simulate_dataset's argument checks, in its order; then (draw, subject):
    its draws, bound to these parameters, and each trial's subject code
    (0..n_subjects-1, subject by subject), which the parameters fix. Per
    trial, draw(per_trace, seed) on _trace_columns' columns gives its trace
    index, four covariates and response; it raises ValueError when a
    response is not finite.

    The draw owns its columns: they are allocated here, once, and every
    draw writes over them, so a draw's arrays are valid until the next
    draw. Trace indices and trial and block numbers are int64."""
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
    beta_surprisal, beta_entropy = betas
    predictors = MODEL_PREDICTORS[generator]
    if n_subjects * trials_per_subject > np.iinfo(np.intp).max:
        raise ValueError(
            f"too many rows to draw: {n_subjects} subjects x {trials_per_subject} trials"
        )
    subject = np.repeat(np.arange(n_subjects), trials_per_subject)
    n = len(subject)
    trace_idx, trial_numbers, blocks = np.empty((3, n), dtype=np.int64)
    latency, amplitude, noise, response, scratch = np.empty((5, n))

    def draw(per_trace: Mapping[str, np.ndarray], seed: int) -> tuple:
        rng = np.random.default_rng(seed)
        intercepts = rng.normal(0.0, subject_sd, n_subjects)
        n_traces = len(per_trace["ambiguity"])
        for start in range(0, n, trials_per_subject):
            rows = slice(start, start + trials_per_subject)
            trace_idx[rows] = rng.integers(0, n_traces, trials_per_subject)
            latency[rows] = rng.normal(87.0, 25.0, trials_per_subject)
            amplitude[rows] = rng.normal(0.0, 1.0, trials_per_subject)
            trial_numbers[rows] = rng.integers(1, trials_per_subject + 1, trials_per_subject)
            blocks[rows] = rng.integers(1, N_BLOCKS + 1, trials_per_subject)
            noise[rows] = rng.normal(0.0, noise_sd, trials_per_subject)
        surprisal, entropy = predictors
        # beta_surprisal * surprisal + beta_entropy * entropy + intercept +
        # noise, added in that order; mode="clip" lets take write straight
        # into `out` ("raise" fills a copy first), and every index is in range
        with np.errstate(over="ignore", invalid="ignore"):
            np.take(per_trace[surprisal], trace_idx, out=response, mode="clip")
            np.multiply(response, beta_surprisal, out=response)
            np.take(per_trace[entropy], trace_idx, out=scratch, mode="clip")
            np.multiply(scratch, beta_entropy, out=scratch)
            np.add(response, scratch, out=response)
            np.add(response, np.take(intercepts, subject, out=scratch, mode="clip"), out=response)
            np.add(response, noise, out=response)
        if not np.isfinite(response).all():
            raise ValueError(
                "simulated responses are not finite: betas, noise_sd or subject_sd "
                "too large"
            )
        covariates = {
            "phoneme_latency": latency,
            "trial_number": trial_numbers,
            "block_number": blocks,
            "onset_amplitude": amplitude,
        }
        return trace_idx, covariates, response

    return draw, subject


def _removal_tests(
    dataset: RegressionDataset, models: Iterable[str], df: int | None
) -> Callable[[np.ndarray], dict[str, ModelComparisonResult]]:
    """_coded_removal_tests on a dataset's columns, with a workspace of its
    own: the categorical columns are coded by _levels, and the rows put in
    subject order once by a stable sort of the subject codes; the returned
    test takes y in dataset order and gathers it the same way. A
    continuous column with a NaN or an infinity raises ValueError naming
    it."""
    columns = dataset.columns
    subjects = _levels(columns["subject_id"])[1]
    order = np.argsort(subjects, kind="stable")
    continuous = {
        name: np.asarray(columns[name][order], dtype=float) for name in CONTINUOUS_PREDICTORS
    }
    _require_finite(continuous)
    categorical = {
        name: _levels(columns[name][order]) for name in ("phoneme_pair", "ambiguity")
    }
    test = _coded_removal_tests(subjects[order], models, df)(continuous, categorical)
    return lambda y: test(y[order])


def _coded_removal_tests(
    subject: np.ndarray, models: Iterable[str], df: int | None
) -> Callable[..., Callable[[np.ndarray], dict[str, ModelComparisonResult]]]:
    """fit(continuous, categorical) -> test, and test(y) -> {model: test
    of removing that model}, for each of `models`.

    `subject` holds each row's subject code: the rows are in subject
    order, every subject 0..S-1 has at least one, subject 0's first. Each
    design is given as columns: `continuous` maps every
    CONTINUOUS_PREDICTORS name to its column, `categorical` maps
    `phoneme_pair` and then `ambiguity` to (labels, codes) as _levels
    gives them (labels that no code uses get no dummy). The full design
    is built once per fit, so all of its tests share one dummy coding,
    and solved within subject (Frisch & Waugh 1933; Lovell 1963):
    demeaning every column within subject absorbs the intercept and the
    subject dummies exactly, so neither is built. A subject's mean is the
    sum of its segment of rows over its count, gathered back to its rows
    by subject code, so nothing rows x subjects is built either. The
    demeaned design [nuisance block | metrics] (the nuisance block:
    latency, trial, block, amplitude, pair and ambiguity dummies) is
    factored once by one Householder QR (_householder). For each
    demeaned response, u = Q'y: the full fit's SSE is the sum of squares
    of u below the design's columns, and a reduced fit's SSE adds the
    residual of u's metric rows, c, on the kept columns of R's metric
    block, a 4 x 2 least-squares problem. The full design's rank is the
    number of subjects plus the demeaned design's, checked by ols_fit's
    tolerance rule, so a rank-deficient design names its columns in the
    order [nuisance block | metrics].

    One run owns the workspace this returns with fit: the subject layout
    and each model's kept columns are fixed here, and every fit stacks
    and demeans its design into the same two k x n buffers, reallocated
    only when a fit's column count k differs from the last one's. A test
    stays valid after the next fit, since it holds its own factor.
    """
    n = len(subject)
    counts = np.bincount(subject)
    starts = np.cumsum(counts) - counts
    kept = {}
    for model in models:
        keep = [j for j, name in enumerate(_METRICS) if name not in MODEL_PREDICTORS[model]]
        kept[model] = keep, (len(_METRICS) - len(keep) if df is None else df)
    held = np.empty((2, 0, n))
    y_demeaned = np.empty(n)

    # z's subject means are gathered into `out` and z subtracted from them
    # there; mode="clip" lets take write straight into `out` ("raise" fills
    # a copy first), and every subject code is in range
    def demean(z: np.ndarray, out: np.ndarray) -> np.ndarray:
        means = np.add.reduceat(z, starts, axis=-1) / counts
        np.take(means, subject, axis=-1, out=out, mode="clip")
        return np.subtract(z, out, out=out)

    def fit(
        continuous: Mapping[str, np.ndarray],
        categorical: Mapping[str, tuple[Sequence, np.ndarray]],
    ) -> Callable[[np.ndarray], dict[str, ModelComparisonResult]]:
        nonlocal held
        names = [name for name in CONTINUOUS_PREDICTORS if name not in _METRICS]
        block = [continuous[name] for name in names]
        for name, (labels, codes) in categorical.items():
            for label, dummy in _dummies(name, labels, codes):
                names.append(label)
                block.append(dummy)
        split = len(block)
        names.extend(_METRICS)
        block.extend(continuous[name] for name in _METRICS)
        k = len(names)
        p = 1 + k + max(len(counts) - 1, 0)
        if n <= p:
            raise ValueError(f"need more rows than parameters: n={n}, p={p}")
        if held.shape[1] != k:
            held = np.empty((2, k, n))
        # the columns are stacked as rows, so every transpose is Fortran-ordered
        stacked, demeaned = held
        for row, column in zip(stacked, block):
            row[...] = column
        with np.errstate(over="ignore", invalid="ignore"):
            design = demean(stacked, demeaned).T
        # a column constant within subject demeans to rounding residue: it is
        # in the subject dummies' span, so its own norm is taken before demeaning
        v, t, r = _householder(design, names, stacked.T)
        r_m = r[split:, split:]
        reduced = {}
        for model, (keep, df_used) in kept.items():
            # an orthonormal basis of the complement of the kept columns' span
            complement = np.linalg.qr(r_m[:, keep], mode="complete")[0][:, len(keep):]
            reduced[model] = complement, df_used

        def test(y: np.ndarray) -> dict[str, ModelComparisonResult]:
            with np.errstate(over="ignore", invalid="ignore"):
                u = demean(y, y_demeaned)
                u = u - v @ (t.T @ (v.T @ u))
                sse = float(u[k:] @ u[k:])
                c = u[split:k]
                sse_reduced = {
                    model: sse + float(np.sum((complement.T @ c) ** 2))
                    for model, (complement, _) in reduced.items()
                }
            if not all(map(math.isfinite, (sse, *sse_reduced.values()))):
                raise ValueError(_SSE_NOT_FINITE)
            loglik_full = _loglik_from_sse(n, sse)
            return {
                model: _chi_square_test(
                    loglik_full - _loglik_from_sse(n, sse_reduced[model]), df_used
                )
                for model, (_, df_used) in reduced.items()
            }

        return test

    return fit


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
) -> RecoverySummary:
    """Repeated simulate-and-compare rounds scoring model detection.

    A model counts as detected in a simulation when removing its
    surprisal and entropy predictors from the full fit loses significant
    likelihood (p < alpha). Simulation i uses seed + i, so rounds are
    independent and the whole run is reproducible. Each round is
    compare_removals on simulate_dataset with seed + i, bit for bit, but
    fitted from the draw's trace indices and integer codes, so no dataset
    is built. The trials are drawn in subject order, so the subjects' row
    layout, which the parameters fix, is taken once and demeans every
    round. simulate_dataset's argument checks, the off-grid ambiguity
    included, run once, before the cell check.

    The run owns one workspace, allocated before its first round and
    reused by every round: the draw's columns (see _trials), the gathered
    metric and code columns, and the design buffers of its removal tests
    (see _coded_removal_tests). Nothing of it outlives the run.
    """
    if n_sims < 1:
        raise ValueError(f"need at least one simulation, got {n_sims}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    draw, subject = _trials(
        generator, betas, noise_sd, n_subjects, subject_sd, trials_per_subject
    )
    per_trace = _trace_columns(traces, position)
    levels = {name: _levels(per_trace[name]) for name in ("phoneme_pair", "ambiguity")}
    _check_cells(per_trace, levels, position)
    fit = _coded_removal_tests(subject, MODEL_PREDICTORS, df)
    metrics = {name: np.empty(len(subject)) for name in _METRICS}
    codes = {
        name: np.empty(len(subject), dtype=level_codes.dtype)
        for name, (_, level_codes) in levels.items()
    }
    records = []
    for sim in range(n_sims):
        trace_idx, covariates, response = draw(per_trace, seed + sim)
        # mode="clip" writes straight into `out`; every trace index is in range
        for name, column in metrics.items():
            np.take(per_trace[name], trace_idx, out=column, mode="clip")
        categorical = {
            name: (labels, np.take(level_codes, trace_idx, out=codes[name], mode="clip"))
            for name, (labels, level_codes) in levels.items()
        }
        test = fit({**covariates, **metrics}, categorical)
        for model, result in test(response).items():
            records.append(ComparisonRecord(
                sim, model, result.chi2, result.df, result.p_value,
                result.delta_loglik, result.p_value < alpha,
            ))
    detections = Counter(record.removed for record in records if record.detected)
    return RecoverySummary(
        generator=generator,
        n_sims=n_sims,
        alpha=alpha,
        acoustic_detection_rate=detections["acoustic"] / n_sims,
        switch_detection_rate=detections["switch"] / n_sims,
        generating_detection_rate=detections[generator] / n_sims,
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
) -> CalibrationResult:
    """False-positive rate of the removal test under permuted responses.

    Shuffling the response column breaks every response-predictor link,
    so the removal test's p-values should be roughly uniform and the
    fraction below alpha should sit near alpha. Each round is
    compare_removals' test of removing the acoustic model, at the
    parameter-count df, on the shuffled response; the designs are fixed
    across permutations and factored once. Designs compare_removals
    rejects (too few rows, rank deficient) raise the same errors here.
    """
    if n_permutations < 1:
        raise ValueError(f"need at least one permutation, got {n_permutations}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    test = _removal_tests(dataset, ("acoustic",), None)
    y = dataset.columns["response"]
    rng = np.random.default_rng(seed)
    p_values = [test(rng.permutation(y))["acoustic"].p_value for _ in range(n_permutations)]
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
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(REGRESSION_FIELDS)
        writer.writerows(
            zip(*(dataset.columns[name].tolist() for name in REGRESSION_FIELDS))
        )
