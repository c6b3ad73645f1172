import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from cohortlex import (
    CONTINUUM_TARGETS,
    DegenerateCurveError,
    IdentificationCurve,
    N_STEPS,
    fit_psychometric,
    logistic_identification,
    read_identification_curves,
    resample_continuum,
)

EXAMPLE = IdentificationCurve(
    (1.0, 1.0, 0.97, 0.9, 0.8, 0.6, 0.4, 0.2, 0.08, 0.02, 0.0)
)


def synthetic_curve(midpoint, slope):
    steps = np.arange(1, N_STEPS + 1)
    return IdentificationCurve(tuple(logistic_identification(steps, midpoint, slope)))


def test_curve_validation():
    with pytest.raises(ValueError):
        IdentificationCurve((1.0,) * 10)
    with pytest.raises(ValueError):
        IdentificationCurve((0.5,) * 10 + (1.5,))


def test_curve_from_pairs_requires_full_step_set():
    pairs = [(s, 1.0 - s / 11) for s in range(1, 12)]
    curve = IdentificationCurve.from_pairs(pairs)
    assert curve.proportion_at(1) == pairs[0][1]
    with pytest.raises(ValueError):
        IdentificationCurve.from_pairs(pairs[:-1])
    with pytest.raises(ValueError):
        IdentificationCurve.from_pairs(pairs[:-1] + [(13, 0.0)])


def test_fit_recovers_generating_parameters():
    midpoint, slope = fit_psychometric(synthetic_curve(6.0, 1.5))
    assert abs(midpoint - 6.0) < 1e-3
    assert abs(slope - 1.5) < 1e-3


def test_fit_residual_on_own_curve():
    curve = synthetic_curve(5.2, 0.9)
    midpoint, slope = fit_psychometric(curve)
    regenerated = logistic_identification(
        np.arange(1, N_STEPS + 1), midpoint, slope
    )
    residual = np.abs(regenerated - np.array(curve.proportions)).max()
    assert residual < 1e-6


def test_fit_step_function():
    curve = IdentificationCurve((1.0,) * 5 + (0.0,) * 6)
    midpoint, slope = fit_psychometric(curve)
    assert 5.0 < midpoint < 6.0
    assert slope > 2.0


def test_fit_constant_curve_degenerate():
    with pytest.raises(DegenerateCurveError):
        fit_psychometric(IdentificationCurve((0.5,) * 11))


def test_fit_reversed_curve_does_not_converge():
    # an ascending step at the last point drives the midpoint off to
    # about -1.2e5 until the evaluation budget runs out
    with pytest.raises(DegenerateCurveError, match="did not converge"):
        fit_psychometric(IdentificationCurve((0.0,) * 10 + (1.0,)))


def test_fit_nearly_flat_curve_has_no_positive_slope():
    # converges, but to a slightly ascending curve (slope about -0.0018)
    with pytest.raises(DegenerateCurveError, match="slope -0.001818 is not positive"):
        fit_psychometric(IdentificationCurve((0.5,) * 10 + (0.51,)))


def test_fit_deterministic():
    assert fit_psychometric(EXAMPLE) == fit_psychometric(EXAMPLE)


def test_resample_example_curve():
    continuum = resample_continuum(EXAMPLE)
    assert [p.step for p in continuum.points] == [1, 5, 6, 8, 11]
    assert [p.target for p in continuum.points] == list(CONTINUUM_TARGETS)
    # the 0.5 target ties between 0.6 (step 6) and 0.4 (step 7)
    middle = continuum.points[CONTINUUM_TARGETS.index(0.5)]
    assert middle.step == 6
    assert middle.achieved_proportion == 0.6


def test_resample_exact_hits():
    curve = IdentificationCurve((1.0, 0.75, 0.5, 0.25, 0.0) + (0.0,) * 6)
    continuum = resample_continuum(curve)
    assert [p.step for p in continuum.points] == [1, 2, 3, 4, 5]
    assert [p.achieved_proportion for p in continuum.points] == [
        1.0, 0.75, 0.5, 0.25, 0.0,
    ]


def test_resample_monotone_curve_gives_increasing_steps():
    curve = synthetic_curve(6.0, 0.8)
    steps = [p.step for p in resample_continuum(curve).points]
    assert steps == sorted(steps)
    assert len(set(steps)) == 5


def test_resample_reapplication_is_stable():
    continuum = resample_continuum(EXAMPLE)
    chosen = {p.step: p.achieved_proportion for p in continuum.points}
    available = set(chosen)
    for point in continuum.points:
        best = min(
            sorted(available),
            key=lambda s: (abs(chosen[s] - point.target), s),
        )
        assert best == point.step
        available.remove(best)


def test_resample_fitted_mode():
    continuum = resample_continuum(EXAMPLE, mode="fitted")
    assert len({p.step for p in continuum.points}) == 5
    for point in continuum.points:
        expected = logistic_identification(
            point.step, continuum.midpoint, continuum.slope
        )
        assert math.isclose(point.fitted_probability, float(expected), rel_tol=1e-12)


def test_resample_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        resample_continuum(EXAMPLE, mode="spline")


def test_read_long_format_with_byte_order_mark(tmp_path):
    path = tmp_path / "curves.csv"
    lines = ["item,step,proportion"] + [
        f"bp,{s},{p}" for s, p in zip(range(1, 12), EXAMPLE.proportions)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert read_identification_curves(path) == {"bp": EXAMPLE}


def test_read_single_curve(tmp_path):
    path = tmp_path / "bp_item.csv"
    lines = ["step,proportion"] + [
        f"{s},{p}" for s, p in zip(range(1, 12), EXAMPLE.proportions)
    ]
    path.write_text("\n".join(lines) + "\n")
    curves = read_identification_curves(path)
    assert list(curves) == ["bp_item"]
    assert curves["bp_item"] == EXAMPLE


def test_read_long_format(tmp_path):
    path = tmp_path / "all.csv"
    lines = ["item,step,proportion"]
    for item, midpoint in (("alpha", 5.0), ("beta", 7.0)):
        curve = synthetic_curve(midpoint, 1.2)
        lines += [
            f"{item},{s},{p}" for s, p in zip(range(1, 12), curve.proportions)
        ]
    path.write_text("\n".join(lines) + "\n")
    curves = read_identification_curves(path)
    assert set(curves) == {"alpha", "beta"}
    m_alpha, _ = fit_psychometric(curves["alpha"])
    m_beta, _ = fit_psychometric(curves["beta"])
    assert m_alpha < m_beta


def test_read_rejects_missing_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="step,proportion"):
        read_identification_curves(path)


def test_read_rejects_incomplete_steps(tmp_path):
    path = tmp_path / "short.csv"
    lines = ["step,proportion"] + [f"{s},0.5" for s in range(1, 11)]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_identification_curves(path)


def test_read_rejects_rows_with_missing_cells(tmp_path):
    path = tmp_path / "short.csv"
    for text in ("item,step,proportion\na,1\n", "step,proportion,item\n1,0.5\n"):
        path.write_text(text)
        with pytest.raises(ValueError, match="line 2: missing cells"):
            read_identification_curves(path)


def write_long_curves(path, rows):
    """An item,step,proportion file: items a and b with steps 1..11 each,
    then `rows` (lines without their newline) appended."""
    lines = ["item,step,proportion"] + [
        f"{item},{step},{1 - step / 12:.2f}" for item in "ab" for step in range(1, 12)
    ]
    path.write_text("\n".join(lines + rows) + "\n")


def test_read_rejects_rows_with_extra_cells(tmp_path):
    path = tmp_path / "curves.csv"
    path.write_text("item,step,proportion\n" + "".join(
        f"a,{step},0.5\n" if step != 4 else "a,4,0.70,99\n" for step in range(1, 12)
    ))
    with pytest.raises(
        ValueError, match=r"curves.csv: line 5: extra cells \(expected 3, got 4\)$"
    ):
        read_identification_curves(path)


def test_read_names_the_line_of_a_bad_cell(tmp_path):
    path = tmp_path / "curves.csv"
    for row, message in (
        ("c,x,0.5", "invalid literal for int"),
        ("c,1,high", "could not convert string to float"),
    ):
        write_long_curves(path, [row])
        with pytest.raises(ValueError, match=rf"curves.csv: line 24: {message}"):
            read_identification_curves(path)


def test_read_names_the_item_with_an_incomplete_step_set(tmp_path):
    path = tmp_path / "curves.csv"
    write_long_curves(path, [])
    text = path.read_text().replace("b,11,0.08\n", "\n")
    path.write_text(text)
    with pytest.raises(
        ValueError, match=r"curves.csv: item 'b': step indices must be exactly 1..11"
    ):
        read_identification_curves(path)
    path.write_text(text + "b,10,0.10\n")
    with pytest.raises(ValueError, match=r"curves.csv: item 'b': duplicate step index 10"):
        read_identification_curves(path)


def default_jacobian_fit(curve):
    """`fit_psychometric`'s outcome with scipy's default `jac='2-point'`:
    (midpoint, slope), or the DegenerateCurveError message."""
    proportions = np.array(curve.proportions)
    if np.all(proportions == proportions[0]):
        return "all identification proportions are equal"
    steps = np.arange(1, N_STEPS + 1, dtype=float)

    def residual(params):
        midpoint, slope = params
        return logistic_identification(steps, midpoint, slope) - proportions

    result = least_squares(residual, (6.0, 1.0), max_nfev=200)
    if not result.success:
        return "logistic fit did not converge in 200 evaluations"
    midpoint, slope = (float(x) for x in result.x)
    if not slope > 0:
        return f"fitted slope {slope:.6f} is not positive: the curve does not descend"
    return midpoint, slope


proportion = st.floats(0.0, 1.0)


@st.composite
def pin_curves(draw):
    """Descending logistics (slope 0.05-30, optionally noisy and rounded),
    saturated 0/1 runs, flat and near-flat curves, and curves whose last
    step ascends."""
    kind = draw(st.sampled_from(["logistic", "saturated", "flat", "near-flat", "last-up"]))
    if kind == "logistic":
        midpoint = draw(st.floats(-2.0, 14.0))
        slope = draw(st.floats(0.05, 30.0))
        noise = draw(st.sampled_from([0.0, 0.01, 0.05]))
        values = logistic_identification(np.arange(1, N_STEPS + 1), midpoint, slope)
        values = values + noise * np.array(
            draw(st.lists(st.floats(-1.0, 1.0), min_size=N_STEPS, max_size=N_STEPS))
        )
        values = np.clip(values, 0.0, 1.0)
        if draw(st.booleans()):
            values = np.round(values, 3)
        return tuple(float(v) for v in values)
    if kind == "saturated":
        ones = draw(st.integers(0, N_STEPS))
        return (1.0,) * ones + (0.0,) * (N_STEPS - ones)
    if kind == "flat":
        return (draw(proportion),) * N_STEPS
    if kind == "near-flat":
        level = draw(st.floats(0.01, 0.99))
        bump = draw(st.floats(1e-6, 0.01)) * draw(st.sampled_from([1.0, -1.0]))
        values = [level] * N_STEPS
        values[draw(st.integers(0, N_STEPS - 1))] = level + bump
        return tuple(values)
    descending = sorted(
        draw(st.lists(proportion, min_size=N_STEPS - 1, max_size=N_STEPS - 1)),
        reverse=True,
    )
    return tuple(descending) + (draw(st.floats(descending[-1], 1.0)),)


def bits(outcome):
    return outcome if isinstance(outcome, str) else tuple(x.hex() for x in outcome)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(proportions=pin_curves())
def test_fit_matches_default_jacobian_least_squares(proportions):
    # the fit's own Jacobian is scipy's '2-point' rule in one call; equal
    # bits here mean the solver took the same steps
    curve = IdentificationCurve(proportions)
    try:
        got = fit_psychometric(curve)
    except DegenerateCurveError as exc:
        got = str(exc)
    assert bits(got) == bits(default_jacobian_fit(curve))
