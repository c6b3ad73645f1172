"""Perceptual resampling of 11-step identification continua.

A behavioral pretest yields, per continuum step, the proportion of
listeners labelling the onset as the first category. Those proportions
turn the 11-step acoustic continuum into a 5-step perceptually defined
one by picking the steps closest to the target probabilities; each
point keeps its target, achieved proportion and fitted probability.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

N_STEPS = 11

# Target identification probabilities of the resampled 5-step continuum,
# endpoint / partially-ambiguous / midpoint grid. Selection order matters:
# greedy assignment walks this tuple left to right.
CONTINUUM_TARGETS = (1.0, 0.75, 0.5, 0.25, 0.0)

_FIT_START = (6.0, 1.0)  # (midpoint, slope) initialization
_FIT_MAX_EVALS = 200
_FD_REL_STEP = np.finfo(np.float64).eps ** 0.5  # scipy's '2-point' relative step


class DegenerateCurveError(ValueError):
    """No descending logistic fits the identification proportions: they are
    all equal, the fit did not converge, or its slope is not positive."""


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


def _forward_step(x: float) -> float:
    """scipy's '2-point' absolute step: sqrt(eps) * sign(x) * max(1, |x|),
    with sign(0) = +1."""
    return _FD_REL_STEP * (1.0 if x >= 0 else -1.0) * max(abs(x), 1.0)


def fit_psychometric(curve: IdentificationCurve) -> tuple[float, float]:
    """Least-squares logistic fit of an identification curve.

    Returns (midpoint, slope). Deterministic: scipy's trust-region
    reflective solver from the fixed start (6, 1) with a budget of 200
    residual evaluations. Raises DegenerateCurveError for a constant
    curve (it has no midpoint), for a fit that does not converge within
    the budget, and for a fitted slope that is not positive (a curve that
    does not descend from the first category to the second).

    The Jacobian is scipy's own `'2-point'` forward difference (step
    sqrt(eps) * sign(x) * max(1, |x|), denominator (x + h) - x, numerator
    f(x + h) - f(x)), with f at x and at both perturbed points computed
    in one broadcast call. It is bit for bit the Jacobian `least_squares`
    builds by default, so the solver takes the same steps within the same
    budget (only residual calls count) and returns the same fit. A test
    pins the result to a default-Jacobian `least_squares` call, so a
    change in scipy's rule shows up there.
    """
    from scipy.optimize import least_squares  # here: `import cohortlex` never loads scipy

    proportions = np.array(curve.proportions)
    if np.all(proportions == proportions[0]):
        raise DegenerateCurveError("all identification proportions are equal")
    steps = np.arange(1, N_STEPS + 1, dtype=float)

    def residual(params):
        midpoint, slope = params
        return logistic_identification(steps, midpoint, slope) - proportions

    def jacobian(params):
        midpoint, slope = params.tolist()
        shifted_midpoint = midpoint + _forward_step(midpoint)
        shifted_slope = slope + _forward_step(slope)
        # rows: the residual at x, at x + h0 e0 and at x + h1 e1
        values = logistic_identification(
            steps,
            np.array([[midpoint], [shifted_midpoint], [midpoint]]),
            np.array([[slope], [slope], [shifted_slope]]),
        ) - proportions
        delta = np.array([[shifted_midpoint - midpoint], [shifted_slope - slope]])
        # built as (n, m) and transposed, the layout scipy returns
        return ((values[1:] - values[0]) / delta).T

    result = least_squares(residual, _FIT_START, jac=jacobian, max_nfev=_FIT_MAX_EVALS)
    if not result.success:
        raise DegenerateCurveError(
            f"logistic fit did not converge in {_FIT_MAX_EVALS} evaluations"
        )
    midpoint, slope = (float(x) for x in result.x)
    if not slope > 0:
        raise DegenerateCurveError(
            f"fitted slope {slope:.6f} is not positive: the curve does not descend"
        )
    return midpoint, slope


def resample_continuum(
    curve: IdentificationCurve, mode: str = "raw"
) -> PerceptualContinuum:
    """Pick the 5 steps nearest the target identification probabilities.

    Greedy assignment in target order 1 -> 0; each step is used at most
    once; distance ties break toward the lower step index. `mode`
    selects what "nearest" compares against: the raw pretest proportions
    (default) or the fitted logistic probabilities.
    """
    if mode not in ("raw", "fitted"):
        raise ValueError(f"mode must be 'raw' or 'fitted', got {mode!r}")
    midpoint, slope = fit_psychometric(curve)
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
