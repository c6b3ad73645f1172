import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cohortlex.continuum as continuum
from cohortlex import (
    CONTINUUM_TARGETS,
    DegenerateCurveError,
    IdentificationCurve,
    N_STEPS,
    fit_psychometric,
    logistic_identification,
    read_identification_curves,
    resample_continua,
    resample_continuum,
)
from tests.continuum_reference import reference_fit, sum_of_squares

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


def test_fit_reversed_curve_has_no_positive_slope():
    # converges, to a logistic that ascends steeply at the last step
    with pytest.raises(DegenerateCurveError, match="slope -71.290169 is not positive"):
        fit_psychometric(IdentificationCurve((0.0,) * 10 + (1.0,)))


def test_fit_that_reaches_the_iteration_cap_does_not_converge(monkeypatch):
    monkeypatch.setattr(continuum, "_FIT_MAX_ITERATIONS", 3)
    with pytest.raises(DegenerateCurveError, match="did not converge in 3 iterations$"):
        fit_psychometric(EXAMPLE)


def test_fit_symmetric_curve_is_no_better_than_a_flat_line():
    # the least-squares slope is 0; the fit's is 0 up to rounding, of
    # either sign
    with pytest.raises(DegenerateCurveError, match="no better than a flat line"):
        fit_psychometric(IdentificationCurve((0.5,) * 5 + (0.51,) + (0.5,) * 5))


def test_fit_takes_a_better_descending_minimum_from_the_second_search():
    # the exponent search from (6, 1) ends at an ascending minimum; the
    # search from midpoint 1 or 11 finds this descending one, which fits
    # better
    curve = (0.979, 1.0, 0.999, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.946, 1.0)
    assert fit_psychometric(IdentificationCurve(curve)) == pytest.approx(
        (24.677148, 0.291057), rel=1e-6
    )


def test_fit_takes_a_descending_fit_the_first_search_missed():
    # the search from (6, 1) ends at an ascending minimum whose sum of
    # squares is 0.044744 (slope -0.076663); a retry start reaches a steep
    # descent at the last step that fits better
    curve = (0.912, 1.0, 1.0, 0.812, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.869)
    midpoint, slope = fit_psychometric(IdentificationCurve(curve))
    assert (midpoint, slope) == pytest.approx((11.104827, 18.050164), rel=1e-6)
    assert sum_of_squares(curve, midpoint, slope) < 0.044744


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


def test_read_rejects_a_column_named_twice(tmp_path):
    # The third column counts down, so reading it as the steps would fit
    # a rising curve instead of naming the header fault.
    path = tmp_path / "twice.csv"
    lines = ["step,proportion, STEP "] + [
        f"{s},{1 - (s - 1) / 10},{12 - s}" for s in range(1, 12)
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"twice\.csv: column 'step' is named more than once$"):
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


def outcome(fit, proportions):
    """A fit's (midpoint, slope), or the kind of DegenerateCurveError it raised."""
    try:
        return fit(proportions)
    except DegenerateCurveError as exc:
        return next(
            kind for kind in ("equal", "converge", "flat line", "positive") if kind in str(exc)
        )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(proportions=pin_curves())
# flat to within 0.3%, midpoint far off the continuum
@example(proportions=(1.0,) * 9 + (0.997, 1.0))
# the exponent search from (6, 1) ends ascending; a search from a retry
# start finds a better, descending fit
@example(proportions=(0.979, 1.0, 0.999, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.946, 1.0))
@example(proportions=(0.938, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.958, 1.0, 0.824))
# dips below saturation: only the retry starts at midpoints 1 and 11 find
# the descending fit, which a (midpoint, slope) search misses
@example(proportions=(0.912, 1.0, 1.0, 0.812, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.869))
@example(proportions=(0.851, 1.0, 1.0, 1.0, 1.0, 0.84, 1.0, 1.0, 1.0, 1.0, 0.858))
@example(proportions=(1.0, 0.994, 0.844, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.917))
@example(proportions=(0.128, 0.0, 0.0, 0.0, 0.0, 0.0, 0.103, 0.0, 0.0, 0.156, 0.0))
# symmetric about step 6: the optimum slope is 0
@example(proportions=(0.875,) * 5 + (0.8706025052210794,) + (0.875,) * 5)
def test_fit_matches_tight_least_squares(proportions):
    # Same outcome, and where both fit, a sum of squares no larger than
    # the reference's. The parameters themselves are not compared: a
    # step-like curve has no attained minimum (both fits steepen until
    # they stop), and on a flat or steep noisy curve the sum of squares
    # resolves them only to about 1e-7.
    got = outcome(lambda p: fit_psychometric(IdentificationCurve(p)), proportions)
    want = outcome(reference_fit, proportions)
    if isinstance(want, tuple):
        assert isinstance(got, tuple)
        assert sum_of_squares(proportions, *got) <= sum_of_squares(proportions, *want) + 1e-15
    else:
        assert got == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(batch=st.lists(pin_curves(), min_size=1, max_size=8))
def test_a_curve_fits_to_the_same_bits_alone_and_in_a_batch(batch):
    midpoints, slopes, converged = continuum._fit_batch(np.array(batch))
    for row, proportions in enumerate(batch):
        alone = continuum._fit_batch(np.array([proportions]))
        assert (midpoints[row].hex(), slopes[row].hex(), converged[row]) == (
            alone[0][0].hex(), alone[1][0].hex(), alone[2][0]
        )


def test_resample_continua_equals_one_curve_at_a_time():
    curves = [EXAMPLE, synthetic_curve(5.2, 0.9), synthetic_curve(7.5, 2.0)]
    for mode in ("raw", "fitted"):
        assert resample_continua(curves, mode) == [
            resample_continuum(curve, mode) for curve in curves
        ]


def test_resample_continua_names_the_first_failing_curve():
    rising = IdentificationCurve((0.0,) * 10 + (1.0,))
    flat = IdentificationCurve((0.5,) * 11)
    with pytest.raises(DegenerateCurveError, match="not positive"):
        resample_continua([EXAMPLE, rising, flat])
    with pytest.raises(DegenerateCurveError, match="are equal"):
        resample_continua([flat, rising, EXAMPLE])
