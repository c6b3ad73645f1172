"""Slow reference for `fit_psychometric`: scipy's trust-region reflective
least squares run to tight tolerances, under the same four exit-3 rules,
from every start the fit retries from and one more.

`least_squares` stops at xtol = ftol = gtol = 1e-15 with an analytic
Jacobian and a generous evaluation budget, so its result is the
least-squares optimum to within rounding wherever one exists. It
searches the logistic's exponent `slope * step + intercept` from the
fit's start (midpoint 6, slope 1), as the fit does: in (midpoint, slope)
the optimum of a curve flat to within a few percent lies at a midpoint
far off the continuum, and the search there spends its budget creeping
toward it. Where that search ends ascending or unconverged, exponent
searches follow from three more starts: where a search in (midpoint,
slope) from the fit's start stops after 200 trial steps, and the fit's
own retry starts, midpoints 1 and 11 at slope 1. The reference takes
the converged descending result with the smallest sum of squares, when
that is smaller than the first search's. The fit has no (midpoint,
slope) search; the reference keeps it because an extra start can only
lower the reference's sum of squares, so it makes the pin stricter,
never looser.
"""

import numpy as np
from scipy.optimize import least_squares
from scipy.special import expit

from cohortlex import N_STEPS, DegenerateCurveError

TOLERANCE = 1e-15
MAX_EVALS = 10_000
MIDPOINT_EVALS = 201  # 200 trial steps, plus the evaluation at the start
STEPS = np.arange(1, N_STEPS + 1, dtype=float)
RETRY_STARTS = ((1.0, -1.0), (1.0, -11.0))  # (slope, intercept): midpoints 1 and 11


def _search(proportions, start, by_midpoint=False, max_nfev=MAX_EVALS):
    """`least_squares` over (slope, intercept), or (midpoint, slope)."""

    def exponent(params):
        if by_midpoint:
            midpoint, slope = params
            return slope * (STEPS - midpoint), np.column_stack((np.full(N_STEPS, -slope), STEPS - midpoint))
        slope, intercept = params
        return slope * STEPS + intercept, np.column_stack((STEPS, np.ones(N_STEPS)))

    def residual(params):
        return expit(-exponent(params)[0]) - proportions

    def jacobian(params):
        z, dz = exponent(params)
        return -(expit(-z) * expit(z))[:, None] * dz  # d expit(-z) = -expit(-z) expit(z) dz

    return least_squares(
        residual, start, jac=jacobian, max_nfev=max_nfev,
        xtol=TOLERANCE, ftol=TOLERANCE, gtol=TOLERANCE,
    )


def reference_fit(proportions) -> tuple[float, float]:
    """(midpoint, slope) of the logistic nearest `proportions` in least
    squares; raises DegenerateCurveError as `fit_psychometric` does, with
    the reference's own evaluation budget in the message."""
    proportions = np.asarray(proportions, dtype=float)
    if np.all(proportions == proportions[0]):
        raise DegenerateCurveError("all identification proportions are equal")
    found = _search(proportions, (1.0, -6.0))
    if not (found.success and found.x[0] > 0):
        midpoint, slope = _search(proportions, (6.0, 1.0), True, MIDPOINT_EVALS).x
        for start in ((slope, -slope * midpoint),) + RETRY_STARTS:
            again = _search(proportions, start)
            if again.success and again.x[0] > 0 and again.cost < found.cost:
                found = again
    if not found.success:
        raise DegenerateCurveError(
            f"logistic fit did not converge in {MAX_EVALS} evaluations"
        )
    slope, intercept = (float(x) for x in found.x)
    if not 2.0 * found.cost < np.sum((proportions - proportions.mean()) ** 2) - TOLERANCE:
        raise DegenerateCurveError(
            "logistic fit is no better than a flat line: the curve does not descend"
        )
    if not slope > 0:
        raise DegenerateCurveError(
            f"fitted slope {slope:.6f} is not positive: the curve does not descend"
        )
    return -intercept / slope, slope


def sum_of_squares(proportions, midpoint: float, slope: float) -> float:
    """Residual sum of squares of the logistic (midpoint, slope) against
    `proportions`, computed the same way for every fit it compares."""
    residual = expit(-slope * (STEPS - midpoint)) - np.asarray(proportions, dtype=float)
    return float(np.dot(residual, residual))
