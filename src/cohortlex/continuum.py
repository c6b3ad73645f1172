"""Perceptual resampling of 11-step identification continua.

A behavioral pretest yields, per continuum step, the proportion of
listeners labelling the onset as the first category. Those proportions
turn the 11-step acoustic continuum into a 5-step perceptually defined
one by picking the steps closest to the target probabilities; each
point keeps its target, achieved proportion and fitted probability.

The fitted probabilities come from a descending logistic fitted to each
curve by least squares. All curves of a file are fitted together in one
Levenberg-Marquardt run in numpy, so a file of a thousand curves costs
about as many array passes as one curve does, and no scipy is loaded.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

N_STEPS = 11

# Target identification probabilities of the resampled 5-step continuum,
# endpoint / partially-ambiguous / midpoint grid. Selection order matters:
# greedy assignment walks this tuple left to right.
CONTINUUM_TARGETS = (1.0, 0.75, 0.5, 0.25, 0.0)

_FIT_START = (6.0, 1.0)  # (midpoint, slope) initialization
# Midpoints, at slope 1, from which a fit that ends ascending or
# unconverged is searched again. One start alone leaves curves whose
# descending optimum only the other finds.
_RETRY_MIDPOINTS = (1.0, 11.0)
# Levenberg-Marquardt settings. A curve has converged when a trial step
# is at most _FIT_TOLERANCE of its (slope, intercept), when a step the
# model predicted well lowers its sum of squares by at most
# _FIT_TOLERANCE of it, or when the part of its residual that a
# Gauss-Newton step could still remove is below _FIT_TOLERANCE (scaled,
# on a steep fit, by how far rounding the parameters moves the curve);
# one that has not within _FIT_MAX_ITERATIONS trial steps did not
# converge.
_FIT_TOLERANCE = 1e-15
_FIT_MAX_ITERATIONS = 2000
_RADIUS_ITERATIONS = 10  # Newton steps on the damping that fits the trust radius


class DegenerateCurveError(ValueError):
    """No descending logistic fits the identification proportions: they are
    all equal, the fit did not converge, it is no better than a flat line,
    or its slope is not positive."""


@dataclass(frozen=True)
class IdentificationCurve:
    """Proportion of first-category responses at continuum steps 1..11."""

    proportions: tuple[float, ...]

    def __post_init__(self):
        if len(self.proportions) != N_STEPS:
            raise ValueError(
                f"expected {N_STEPS} proportions, got {len(self.proportions)}"
            )
        bad = [p for p in self.proportions if not 0.0 <= p <= 1.0]
        if bad:
            raise ValueError(f"proportions outside [0, 1]: {bad}")

    @classmethod
    def from_pairs(cls, pairs) -> "IdentificationCurve":
        """Build from (step index, proportion) pairs in any order."""
        by_step = {}
        for step, proportion in pairs:
            step = int(step)
            if step in by_step:
                raise ValueError(f"duplicate step index {step}")
            by_step[step] = float(proportion)
        if sorted(by_step) != list(range(1, N_STEPS + 1)):
            raise ValueError(
                f"step indices must be exactly 1..{N_STEPS}, got {sorted(by_step)}"
            )
        return cls(tuple(by_step[s] for s in range(1, N_STEPS + 1)))

    def proportion_at(self, step: int) -> float:
        return self.proportions[step - 1]


class ContinuumPoint(NamedTuple):
    """One step of a resampled continuum, fields in `continuum` column order."""

    target: float
    step: int
    achieved_proportion: float
    fitted_probability: float


@dataclass(frozen=True)
class PerceptualContinuum:
    """5-step resampled continuum plus the psychometric fit behind it."""

    points: tuple[ContinuumPoint, ...]
    midpoint: float
    slope: float


def logistic_identification(step, midpoint: float, slope: float):
    """Two-parameter descending logistic: 1 / (1 + exp(slope*(step-midpoint))),
    broadcast over array arguments."""
    return 1.0 / (1.0 + np.exp(slope * (np.asarray(step, dtype=float) - midpoint)))


def _damped_step(d_b, d_a, residual, damping):
    """(a, b) step of every row that solves [J; sqrt(damping) I] step =
    [-residual; 0] in least squares, where J's columns are `d_a`, `d_b`.

    The solve is Gram-Schmidt on the two columns: the normal equations
    would square J's condition number, which passes 1 / eps on a steep
    curve with one intermediate step, so the `d_a` column's part
    orthogonal to `d_b`, `rest`, is formed entry by entry. A row whose J
    is all zeros gets a zero step.
    """
    norm_b = (d_b * d_b).sum(axis=1)
    cross = (d_b * d_a).sum(axis=1)
    proj = cross / (norm_b + damping)
    rest = d_a - proj[:, None] * d_b
    rest_norm = (rest * rest).sum(axis=1) + (proj * proj + 1.0) * damping
    step_a = np.where(rest_norm > 0, -(rest * residual).sum(axis=1) / rest_norm, 0.0)
    grad_b = (d_b * residual).sum(axis=1)
    step_b = np.where(norm_b + damping > 0, -(grad_b + cross * step_a) / (norm_b + damping), 0.0)
    return step_a, step_b


def _radius_damping(norm_a, norm_b, cross, det, grad_a, grad_b, radius):
    """Damping of every row whose damped step has length `radius`.

    The step's length falls with the damping `lam` as
    sqrt(sum_k (g . v_k)^2 / (e_k + lam)^2) over the eigenpairs (e_k, v_k)
    of J'J = [[norm_a, cross], [cross, norm_b]] (determinant `det`) and
    the gradient g. The root is found by safeguarded Newton steps on that
    length, as scipy's `solve_lsq_trust_region` does, for a fixed number
    of steps. Only used where the Gauss-Newton step is longer than
    `radius`; the step itself is then formed by `_damped_step`.
    """
    large = 0.5 * (norm_a + norm_b) + np.hypot(0.5 * (norm_a - norm_b), cross)
    small = det / large
    # the eigenvector of `large`, from whichever row of J'J - large I
    # leaves the longer one
    first = np.stack([cross, large - norm_a])
    second = np.stack([large - norm_b, cross])
    vector = np.where(np.hypot(*first) >= np.hypot(*second), first, second)
    vx, vy = vector / np.hypot(*vector)
    along = (grad_a * vx + grad_b * vy) ** 2
    across = (grad_b * vx - grad_a * vy) ** 2

    def excess(lam):  # step length minus the radius, and its derivative
        length = np.sqrt(along / (large + lam) ** 2 + across / (small + lam) ** 2)
        slope = -(along / (large + lam) ** 3 + across / (small + lam) ** 3) / length
        return length - radius, slope

    upper = np.hypot(grad_a, grad_b) / radius
    full_rank = np.sqrt(small) > np.finfo(float).eps * N_STEPS * np.sqrt(large)
    phi, phi_slope = excess(0.0)
    lower = np.where(full_rank, -phi / phi_slope, 0.0)
    lam = np.maximum(0.001 * upper, np.sqrt(lower * upper))
    for _ in range(_RADIUS_ITERATIONS):
        outside = (lam < lower) | (lam > upper)
        lam = np.where(outside, np.maximum(0.001 * upper, np.sqrt(lower * upper)), lam)
        phi, phi_slope = excess(lam)
        upper = np.where(phi < 0, lam, upper)
        newton = phi / phi_slope
        lower = np.maximum(lower, lam - newton)
        lam = lam - (phi + radius) / radius * newton
    return lam


def _levenberg_marquardt(proportions: np.ndarray, midpoint, slope):
    """Least-squares logistic fit of every row of an (n, 11) array at once.

    Returns (midpoints, slopes, converged), one entry per row. Each row
    runs its own Levenberg-Marquardt iteration from its start (`midpoint`,
    `slope`: arrays, or numbers for every row), in the trust-region form
    of Moré (1978) that MINPACK and scipy's TRF use:
    a row keeps a trust radius, starting at the length of its start
    parameters, and its step is the Gauss-Newton step when that fits in
    the radius, else the damped step whose length is the radius. A step
    is taken if it lowers the residual sum of squares. The radius shrinks
    to a quarter of the step when the sum of squares falls by less than
    a quarter of what the linear model predicted, and doubles when it
    falls by more than three quarters of it on a step at the radius.

    The parameters (a, b) are the logistic's exponent `slope * step +
    intercept` (intercept = -slope * midpoint), with the analytic
    Jacobian: a curve whose fit steepens without end then follows a
    straight valley, and a curve flat to within a few percent has its
    optimum at a finite (slope, intercept) where its midpoint would be
    far off the continuum. Every operation is elementwise or a sum along
    one row, so a row's result does not depend on the other rows.
    """
    steps = np.arange(1, N_STEPS + 1, dtype=float)
    n = len(proportions)
    first = np.zeros(n) + slope
    second = np.zeros(n) - slope * midpoint
    radius = np.hypot(first, second)
    converged = np.zeros(n, dtype=bool)
    active = np.arange(n)
    # exp overflows to inf for very steep or distant fits; the logistic
    # and its derivative then come out as exact 0 or 1. Rows with a zero
    # Jacobian divide by zero in the radius search; `_damped_step` gives
    # them a zero step, and they have converged.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_FIT_MAX_ITERATIONS):
            if not len(active):
                break
            target, delta = proportions[active], radius[active]
            a, b = first[active], second[active]
            z = a[:, None] * steps + b[:, None]
            fitted = 1.0 / (1.0 + np.exp(z))
            d_z = -fitted / (1.0 + np.exp(-z))  # -fitted * (1 - fitted), no cancellation
            d_a, d_b = steps * d_z, d_z
            residual = fitted - target
            cost = (residual * residual).sum(axis=1)
            grad_b = (d_b * residual).sum(axis=1)
            grad_a = (d_a * residual).sum(axis=1)
            norm_b = (d_b * d_b).sum(axis=1)
            norm_a = (d_a * d_a).sum(axis=1)
            cross = (d_b * d_a).sum(axis=1)
            plain = d_a - (cross / norm_b)[:, None] * d_b
            plain_norm = (plain * plain).sum(axis=1)
            # The residual's projection on J's columns is the most a
            # Gauss-Newton step could still remove. It cannot shrink
            # below what rounding the parameters moves the curve by,
            # about eps * (|a| |J_a| + |b| |J_b|), which passes 1e-15
            # on a steep fit, so the test allows for it.
            explained = np.where(norm_b > 0, grad_b**2 / norm_b, 0.0) + np.where(
                plain_norm > 0, (plain * residual).sum(axis=1) ** 2 / plain_norm, 0.0
            )
            resolution = 1.0 + a * a * norm_a + b * b * norm_b
            stalled = explained <= _FIT_TOLERANCE**2 * resolution

            step_a, step_b = _damped_step(d_b, d_a, residual, 0.0)
            outside = ~(np.hypot(step_a, step_b) <= delta)
            if outside.any():
                lam = _radius_damping(
                    norm_a, norm_b, cross, norm_b * plain_norm, grad_a, grad_b, delta
                )
                damped_a, damped_b = _damped_step(
                    d_b, d_a, residual, np.where(outside, lam, 0.0)
                )
                step_a = np.where(outside, damped_a, step_a)
                step_b = np.where(outside, damped_b, step_b)
            length = np.hypot(step_a, step_b)
            moved = d_a * step_a[:, None] + d_b * step_b[:, None]
            predicted = -(2.0 * (grad_a * step_a + grad_b * step_b) + (moved * moved).sum(axis=1))
            trial_a, trial_b = a + step_a, b + step_b
            trial = 1.0 / (1.0 + np.exp(trial_a[:, None] * steps + trial_b[:, None])) - target
            actual = cost - (trial * trial).sum(axis=1)
            ratio = np.where(
                predicted > 0,
                actual / predicted,
                np.where((predicted == 0) & (actual == 0), 1.0, 0.0),
            )
            radius[active] = np.where(
                ratio < 0.25,
                0.25 * length,
                np.where((ratio > 0.75) & (length > 0.95 * delta), 2.0 * delta, delta),
            )
            better = ~stalled & (actual > 0)
            first[active] = np.where(better, trial_a, a)
            second[active] = np.where(better, trial_b, b)
            done = (
                stalled
                | ((actual < _FIT_TOLERANCE * cost) & (ratio > 0.25))
                | (length < _FIT_TOLERANCE * (_FIT_TOLERANCE + np.hypot(a, b)))
            )
            converged[active[done]] = True
            active = active[~done]
        return -second / first, first, converged  # slope 0: no midpoint


def _sum_of_squares(proportions, midpoint, slope):
    """Residual sum of squares of each row's logistic (midpoint, slope)."""
    steps = np.arange(1, N_STEPS + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        fitted = logistic_identification(steps, midpoint[:, None], slope[:, None])
    return ((fitted - proportions) ** 2).sum(axis=1)


def _fit_batch(proportions: np.ndarray):
    """(midpoints, slopes, converged) of every row of an (n, 11) array.

    A constant row is not fitted and counts as not converged. A row
    whose search from _FIT_START ends ascending or unconverged is
    searched again from each of _RETRY_MIDPOINTS at slope 1, all starts
    in one run on the retried rows stacked. It takes the converged
    descending result with the smallest sum of squares, when that is
    smaller than the first result's; on equal sums the earlier start
    wins.
    """
    flat = np.all(proportions == proportions[:, :1], axis=1)
    n = len(proportions)
    midpoint, slope, converged = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    midpoint[~flat], slope[~flat], converged[~flat] = _levenberg_marquardt(
        proportions[~flat], *_FIT_START
    )
    retry = np.flatnonzero(~flat & ~(converged & (slope > 0)))
    if len(retry):
        rows = proportions[retry]
        starts = len(_RETRY_MIDPOINTS)
        found = _levenberg_marquardt(
            np.tile(rows, (starts, 1)), np.repeat(_RETRY_MIDPOINTS, len(retry)), 1.0
        )
        best = _sum_of_squares(rows, midpoint[retry], slope[retry])
        for again_midpoint, again_slope, again_converged in zip(
            *(np.split(result, starts) for result in found)
        ):
            again = _sum_of_squares(rows, again_midpoint, again_slope)
            take = again_converged & (again_slope > 0) & (again < best)
            midpoint[retry[take]], slope[retry[take]] = again_midpoint[take], again_slope[take]
            converged[retry[take]] = True
            best = np.where(take, again, best)
    return midpoint, slope, converged


def _fit_rows(proportions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(midpoints, slopes) of every row of an (n, 11) proportion array.

    Raises DegenerateCurveError for the first row, in row order, that
    is constant, whose fit did not converge, whose fit is no better than
    the flat line at its mean proportion, or whose fitted slope is not
    positive. "No better" is a sum of squares within _FIT_TOLERANCE of
    the flat line's: the fitted slope is then zero up to rounding, as on
    a curve symmetric about step 6, and its sign says nothing.
    """
    midpoint, slope, converged = _fit_batch(proportions)
    flat_sse = ((proportions - proportions.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    with np.errstate(invalid="ignore"):
        tilted = _sum_of_squares(proportions, midpoint, slope) < flat_sse - _FIT_TOLERANCE
    failed = ~converged | ~tilted | ~(slope > 0)
    if failed.any():
        row = int(np.argmax(failed))
        if np.all(proportions[row] == proportions[row, 0]):
            raise DegenerateCurveError("all identification proportions are equal")
        if not converged[row]:
            raise DegenerateCurveError(
                f"logistic fit did not converge in {_FIT_MAX_ITERATIONS} iterations"
            )
        if not tilted[row]:
            raise DegenerateCurveError(
                "logistic fit is no better than a flat line: the curve does not descend"
            )
        raise DegenerateCurveError(
            f"fitted slope {slope[row]:.6f} is not positive: the curve does not descend"
        )
    return midpoint, slope


def fit_psychometric(curve: IdentificationCurve) -> tuple[float, float]:
    """Least-squares logistic fit of an identification curve.

    Returns (midpoint, slope): the one-curve case of the batched
    Levenberg-Marquardt fit that `resample_continua` runs, so a curve
    fits to the same bits alone or in a batch. The fit starts from
    (6, 1) and stops when a step is at most 1e-15 of its parameters, when
    a step lowers the sum of squares by at most 1e-15 of it, or when the
    part of the residual a Gauss-Newton step could still remove is below
    1e-15 (see `_levenberg_marquardt`); a fit that ends ascending or
    unconverged is searched again from midpoints 1 and 11 (see
    `_fit_batch`). Raises DegenerateCurveError for a constant curve (it
    has no midpoint), for a fit that does not converge within 2,000
    iterations, for a fit no better than the flat line at the mean
    proportion (its slope is zero up to rounding), and for a fitted
    slope that is not positive (a curve that does not descend from the
    first category to the second).
    """
    midpoint, slope = _fit_rows(np.array([curve.proportions], dtype=float))
    return float(midpoint[0]), float(slope[0])


def _resampled(
    curve: IdentificationCurve, mode: str, midpoint: float, slope: float
) -> PerceptualContinuum:
    fitted = logistic_identification(np.arange(1, N_STEPS + 1), midpoint, slope)
    reference = fitted if mode == "fitted" else np.array(curve.proportions)

    used: set[int] = set()
    points = []
    for target in CONTINUUM_TARGETS:
        step = min(
            (s for s in range(1, N_STEPS + 1) if s not in used),
            key=lambda s: (abs(reference[s - 1] - target), s),
        )
        used.add(step)
        points.append(ContinuumPoint(
            target, step, curve.proportion_at(step), float(fitted[step - 1])
        ))
    return PerceptualContinuum(tuple(points), midpoint, slope)


def resample_continua(
    curves: Sequence[IdentificationCurve], mode: str = "raw"
) -> list[PerceptualContinuum]:
    """`resample_continuum` of every curve, with all fits in one batch.

    Raises DegenerateCurveError for the first curve, in the given order,
    that `fit_psychometric` rejects.
    """
    if mode not in ("raw", "fitted"):
        raise ValueError(f"mode must be 'raw' or 'fitted', got {mode!r}")
    proportions = np.array([curve.proportions for curve in curves], dtype=float)
    midpoints, slopes = _fit_rows(proportions.reshape(-1, N_STEPS))
    return [
        _resampled(curve, mode, midpoint, slope)
        for curve, midpoint, slope in zip(curves, midpoints.tolist(), slopes.tolist())
    ]


def resample_continuum(
    curve: IdentificationCurve, mode: str = "raw"
) -> PerceptualContinuum:
    """Pick the 5 steps nearest the target identification probabilities.

    Greedy assignment in target order 1 -> 0; each step is used at most
    once; distance ties break toward the lower step index. `mode`
    selects what "nearest" compares against: the raw pretest proportions
    (default) or the fitted logistic probabilities.
    """
    (continuum,) = resample_continua([curve], mode)
    return continuum


def read_identification_curves(path: str | Path) -> dict[str, IdentificationCurve]:
    """Read identification curves from CSV.

    Two layouts: `step,proportion` (one curve, keyed by the file stem) or
    long-format `item,step,proportion`. Column order is free; headers are
    required, blank lines are skipped, and a header that names a column
    twice (after stripping and lower-casing) or a row whose cell count
    differs from the header's is rejected. Errors name the offending row's line,
    or the item whose step set is incomplete, and a file that is not UTF-8
    text is named. A leading UTF-8 byte-order mark is ignored.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"{path}: empty file")
            column = {}
            for i, name in enumerate(header):
                name = name.strip().lower()
                if name in column:
                    raise ValueError(f"{path}: column {name!r} is named more than once")
                column[name] = i
            if not {"step", "proportion"} <= column.keys():
                raise ValueError(
                    f"{path}: expected columns step,proportion (plus optional item), "
                    f"got {sorted(column)}"
                )
            item_at = column.get("item")
            step_at, proportion_at = column["step"], column["proportion"]
            rows_by_item: dict[str, list[tuple[int, float]]] = {}
            for cells in reader:
                if not cells:
                    continue
                where = f"{path}: line {reader.line_num}"
                if len(cells) != len(header):
                    problem = "missing" if len(cells) < len(header) else "extra"
                    raise ValueError(
                        f"{where}: {problem} cells (expected {len(header)}, got {len(cells)})"
                    )
                item = cells[item_at].strip() if item_at is not None else path.stem
                try:
                    pair = (int(cells[step_at]), float(cells[proportion_at]))
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
                rows_by_item.setdefault(item, []).append(pair)
    except UnicodeDecodeError:
        raise ValueError(f"{path}: not UTF-8 text") from None
    if not rows_by_item:
        raise ValueError(f"{path}: no data rows")
    curves = {}
    for item, pairs in rows_by_item.items():
        try:
            curves[item] = IdentificationCurve.from_pairs(pairs)
        except ValueError as exc:
            raise ValueError(f"{path}: item {item!r}: {exc}") from None
    return curves
