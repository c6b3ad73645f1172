import contextlib
import csv
import gc
import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortlex import cli, make_lexicon, write_lexicon
from tests import records_reference as reference
from tests.conftest import SIM_ROWS, TOY_B_ROWS

# Disjoint post-onset continuations: nothing after a B onset exists after a
# P onset, so with fully certain evidence the joint path reduces to the
# committed path and both models agree exactly at every position. Position
# 4 is reachable by only two words, which exercises the small-sample skip.
DISJOINT_ROWS = [
    ("bat", "B AE T", 3.0),
    ("bats", "B AE T S", 1.0),
    ("ban", "B AE N", 2.0),
    ("bet", "B EH T", 2.0),
    ("pot", "P AA T", 4.0),
    ("pots", "P AA T S", 2.0),
    ("pawn", "P AA N", 1.0),
    ("put", "P UH T", 2.0),
]


@pytest.fixture
def toy_path(tmp_path):
    path = tmp_path / "toy.tsv"
    write_lexicon(make_lexicon(TOY_B_ROWS), path)
    return str(path)


@pytest.fixture
def disjoint_path(tmp_path):
    path = tmp_path / "disjoint.tsv"
    write_lexicon(make_lexicon(DISJOINT_ROWS), path)
    return str(path)


@pytest.fixture
def sim_path(tmp_path):
    path = tmp_path / "sim.tsv"
    write_lexicon(make_lexicon(SIM_ROWS), path)
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_ingest_check_summary(capsys, toy_path):
    code, out, _ = run_cli(capsys, ["ingest-check", "--lexicon", toy_path])
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["n_entries"] == "4"
    assert rows[0]["total_frequency"] == "12.000000"
    assert rows[0]["inventory_size"] == "6"
    assert rows[0]["frequency_unit"] == "counts"


def test_trace_single_word(capsys, toy_path):
    code, out, _ = run_cli(
        capsys,
        ["trace", "--lexicon", toy_path, "--word", "bat",
         "--pair", "B,P", "--p-a", "0.75"],
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 3
    assert "word" not in rows[0]
    assert [r["position"] for r in rows] == ["1", "2", "3"]
    assert [r["phoneme"] for r in rows] == ["B", "AE", "T"]
    assert rows[1]["acoustic_surprisal"] == "1.678072"
    assert rows[1]["switch_surprisal"] == "0.415037"


def test_trace_certain_evidence_collapses_entropies(capsys, toy_path):
    code, out, _ = run_cli(
        capsys,
        ["trace", "--lexicon", toy_path, "--word", "bat",
         "--pair", "B,P", "--p-a", "1.0"],
    )
    assert code == 0
    for row in parse_csv(out):
        assert row["acoustic_entropy"] == row["switch_entropy"]


def test_trace_unknown_word_exits_2(capsys, toy_path):
    code, _, err = run_cli(
        capsys,
        ["trace", "--lexicon", toy_path, "--word", "zzz", "--pair", "B,P"],
    )
    assert code == 2
    assert "zzz" in err


def test_trace_all_words(capsys, toy_path):
    code, out, _ = run_cli(
        capsys,
        ["trace", "--lexicon", toy_path, "--all", "--pair", "B,P"],
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 12
    assert {r["word"] for r in rows} == {"bat", "bin", "pat", "pin"}


def test_trace_csv_header_order_is_pinned(capsys, toy_path):
    columns = (
        "position,phoneme,switch_surprisal,acoustic_surprisal,"
        "switch_entropy,acoustic_entropy,switch_cohort_size,joint_cohort_size\n"
    )
    base = ["trace", "--lexicon", toy_path, "--pair", "B,P"]
    for selection, header in ((["--word", "bat"], columns), (["--all"], "word," + columns)):
        code, out, _ = run_cli(capsys, base + selection)
        assert code == 0
        assert out[:len(header)] == header


def test_trace_rejects_out_of_range_evidence(capsys, toy_path):
    code, _, err = run_cli(
        capsys,
        ["trace", "--lexicon", toy_path, "--word", "bat",
         "--pair", "B,P", "--p-a", "1.5"],
    )
    assert code == 1
    assert "p-a" in err


def test_trace_requires_word_or_all(toy_path):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["trace", "--lexicon", toy_path, "--pair", "B,P"])
    assert excinfo.value.code == 2


def test_compare_certain_evidence_gives_unit_correlation(capsys, disjoint_path):
    code, out, err = run_cli(
        capsys,
        ["compare", "--lexicon", disjoint_path, "--pair", "B,P", "--p-a", "1.0"],
    )
    assert code == 0
    rows = parse_csv(out)
    correlations = [r for r in rows if r["kind"] == "correlation"]
    # positions 1 to 3 for both quantities; position 4 has only two words
    assert len(correlations) == 6
    assert all(r["value"] == "1.000000" for r in correlations)
    assert {r["position"] for r in correlations} == {"1", "2", "3"}
    assert "position 4" in err and "skipped" in err
    divergences = [r for r in rows if r["kind"] == "divergence"]
    assert divergences
    assert all(r["word"] for r in divergences)


def test_compare_small_lexicon_warns_but_completes(capsys, tmp_path):
    path = tmp_path / "two.tsv"
    write_lexicon(
        make_lexicon([("bat", "B AE T", 3.0), ("pat", "P AE T", 4.0)]), path
    )
    code, out, err = run_cli(
        capsys, ["compare", "--lexicon", str(path), "--pair", "B,P"]
    )
    assert code == 0
    assert "2 traceable words" in err
    rows = parse_csv(out)
    assert all(r["kind"] == "divergence" for r in rows)


def test_compare_skips_constant_metric_with_warning(capsys, tmp_path):
    # every word's values are equal at every position, so no correlation
    # is defined: each cell is skipped with a warning and the divergence
    # rankings still come out
    path = tmp_path / "mirror.tsv"
    write_lexicon(
        make_lexicon(
            [
                ("bat", "B AE T", 2.0),
                ("ban", "B AE N", 2.0),
                ("pat", "P AE T", 2.0),
                ("pan", "P AE N", 2.0),
            ]
        ),
        path,
    )
    code, out, err = run_cli(
        capsys, ["compare", "--lexicon", str(path), "--pair", "B,P"]
    )
    assert code == 0
    assert err.splitlines() == [
        f"warning: position {position}: constant {quantity} values, "
        "correlation skipped"
        for position in (1, 2, 3)
        for quantity in ("surprisal", "entropy")
    ]
    rows = parse_csv(out)
    assert all(r["kind"] == "divergence" for r in rows)
    assert len(rows) == 3 * 2 * 4
    first = [(r["word"], r["rank"], r["value"]) for r in rows[:4]]
    assert first == [
        ("ban", "1", "1.000000"),
        ("bat", "2", "1.000000"),
        ("pan", "3", "1.000000"),
        ("pat", "4", "1.000000"),
    ]


def test_compare_skips_only_the_flat_cell(capsys, tmp_path):
    path = tmp_path / "mixed.tsv"
    write_lexicon(
        make_lexicon(
            [
                ("bat", "B AE T", 2.0),
                ("ban", "B AE N", 2.0),
                ("pat", "P AE T", 2.0),
                ("pan", "P AE N", 2.0),
                ("bid", "B IH D", 1.0),
                ("pid", "P IH D", 3.0),
            ]
        ),
        path,
    )
    code, out, err = run_cli(
        capsys, ["compare", "--lexicon", str(path), "--pair", "B,P", "--top-k", "1"]
    )
    assert code == 0
    assert err == (
        "warning: position 3: constant entropy values, correlation skipped\n"
    )
    rows = parse_csv(out)
    correlations = {
        (r["position"], r["quantity"]) for r in rows if r["kind"] == "correlation"
    }
    assert correlations == {
        (position, quantity)
        for position in ("1", "2", "3")
        for quantity in ("surprisal", "entropy")
    } - {("3", "entropy")}
    divergence = [
        (r["position"], r["quantity"], r["word"], r["value"])
        for r in rows
        if r["kind"] == "divergence"
    ]
    assert len(divergence) == 6
    assert divergence[-1] == ("3", "entropy", "ban", "0.811278")


def test_pairs_shared_phonemes(capsys, tmp_path):
    path = tmp_path / "pairs.tsv"
    write_lexicon(
        make_lexicon(
            [
                ("balance", "B AE L AH N S", 10.0),
                ("palate", "P AE L AH T", 4.0),
                ("bin", "B IH N", 2.0),
            ]
        ),
        path,
    )
    code, out, _ = run_cli(
        capsys, ["pairs", "--lexicon", str(path), "--min-shared", "3"]
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0] == {
        "word_a": "balance",
        "word_b": "palate",
        "onset_a": "B",
        "onset_b": "P",
        "shared_len": "3",
        "divergence_point": "5",
    }


def test_pairs_keep_undiverged_blank_divergence(capsys, tmp_path):
    path = tmp_path / "embed.tsv"
    write_lexicon(
        make_lexicon([("bat", "B AE T", 3.0), ("pat", "P AE T", 4.0)]), path
    )
    code, out, _ = run_cli(
        capsys,
        ["pairs", "--lexicon", str(path), "--min-shared", "2", "--keep-undiverged"],
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["divergence_point"] == ""
    code, out, _ = run_cli(
        capsys,
        ["pairs", "--lexicon", str(path), "--min-shared", "2",
         "--keep-undiverged", "--format", "json"],
    )
    assert json.loads(out)[0]["divergence_point"] is None


def write_curve(path, proportions, item=None):
    lines = ["item,step,proportion"] if item else ["step,proportion"]
    for step, prop in enumerate(proportions, start=1):
        prefix = f"{item}," if item else ""
        lines.append(f"{prefix}{step},{prop}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_continuum_resampling_steps(capsys, tmp_path):
    curve_path = tmp_path / "ident.csv"
    write_curve(
        curve_path, [1.0, 1.0, 0.97, 0.9, 0.8, 0.6, 0.4, 0.2, 0.08, 0.02, 0.0]
    )
    code, out, _ = run_cli(capsys, ["continuum", "--in", str(curve_path)])
    assert code == 0
    rows = parse_csv(out)
    assert [r["step"] for r in rows] == ["1", "5", "6", "8", "11"]
    assert [r["target"] for r in rows] == [
        "1.000000", "0.750000", "0.500000", "0.250000", "0.000000",
    ]
    assert rows[0]["item"] == "ident"
    assert len({r["midpoint"] for r in rows}) == 1


def test_continuum_fitted_mode_and_multiple_items(capsys, tmp_path):
    curve_path = tmp_path / "multi.csv"
    rows_a = [1.0, 0.99, 0.97, 0.9, 0.8, 0.6, 0.4, 0.2, 0.08, 0.02, 0.0]
    rows_b = [1.0, 0.98, 0.95, 0.85, 0.7, 0.5, 0.3, 0.15, 0.05, 0.01, 0.0]
    lines = ["item,step,proportion"]
    for item, props in (("alpha", rows_a), ("beta", rows_b)):
        for step, prop in enumerate(props, start=1):
            lines.append(f"{item},{step},{prop}")
    curve_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, ["continuum", "--in", str(curve_path), "--mode", "fitted"]
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 10
    assert [r["item"] for r in rows] == ["alpha"] * 5 + ["beta"] * 5
    for row in rows:
        assert row["fitted_probability"] != ""


def test_csv_labels_with_commas_and_quotes_stay_one_cell(capsys, tmp_path):
    lexicon_path = tmp_path / "commas.tsv"
    write_lexicon(make_lexicon([
        ("b,at", "B AE T", 3.0), ('p"at', "P AE T", 2.0), ("bin", "B IH N", 1.0),
    ]), lexicon_path)
    code, out, _ = run_cli(
        capsys, ["trace", "--all", "--pair", "B,P", "--lexicon", str(lexicon_path)]
    )
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert all(len(row) == len(header) for row in rows)
    assert {row[header.index("word")] for row in rows} == {"b,at", 'p"at', "bin"}

    curve_path = tmp_path / "items.csv"
    props = [1.0, 0.99, 0.97, 0.9, 0.8, 0.6, 0.4, 0.2, 0.08, 0.02, 0.0]
    curve_path.write_text("item,step,proportion\n" + "".join(
        f'"x,y",{step},{prop}\n' for step, prop in enumerate(props, start=1)
    ), encoding="utf-8")
    code, out, _ = run_cli(capsys, ["continuum", "--in", str(curve_path)])
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert len(rows) == 5
    assert all(len(row) == len(header) for row in rows)
    assert {row[header.index("item")] for row in rows} == {"x,y"}


# Three noisy descending curves whose 6-decimal midpoint, slope or fitted
# probability moves by one last digit when the fit's Jacobian is the
# analytic derivative instead of scipy's 2-point difference.
GOLDEN_CURVES = {
    "early": [0.945, 0.954, 0.939, 0.55, 0.094, 0.0, 0.0, 0.004, 0.0, 0.0, 0.0],
    "dip": [1.0, 0.973, 0.958, 0.534, 0.064, 0.049, 0.0, 0.022, 0.038, 0.0, 0.002],
    "late": [1.0, 1.0, 0.99, 0.927, 0.82, 0.357, 0.069, 0.036, 0.0, 0.003, 0.042],
}

GOLDEN_CONTINUUM = {
    "raw": """\
item,target,step,achieved_proportion,fitted_probability,midpoint,slope
dip,1.000000,1,1.000000,0.999799,4.051099,2.790535
dip,0.750000,3,0.958000,0.949460,4.051099,2.790535
dip,0.500000,4,0.534000,0.535588,4.051099,2.790535
dip,0.250000,5,0.064000,0.066116,4.051099,2.790535
dip,0.000000,7,0.000000,0.000267,4.051099,2.790535
early,1.000000,2,0.954000,0.993944,4.080962,2.451079
early,0.750000,3,0.939000,0.933982,4.080962,2.451079
early,0.500000,4,0.550000,0.549449,4.080962,2.451079
early,0.250000,5,0.094000,0.095122,4.080962,2.451079
early,0.000000,6,0.000000,0.008980,4.080962,2.451079
late,1.000000,1,1.000000,0.999904,5.713753,1.961821
late,0.750000,5,0.820000,0.802224,5.713753,1.961821
late,0.500000,6,0.357000,0.363185,5.713753,1.961821
late,0.250000,7,0.069000,0.074235,5.713753,1.961821
late,0.000000,9,0.000000,0.001583,5.713753,1.961821
""",
    "fitted": """\
item,target,step,achieved_proportion,fitted_probability,midpoint,slope
dip,1.000000,1,1.000000,0.999799,4.051099,2.790535
dip,0.750000,3,0.958000,0.949460,4.051099,2.790535
dip,0.500000,4,0.534000,0.535588,4.051099,2.790535
dip,0.250000,5,0.064000,0.066116,4.051099,2.790535
dip,0.000000,11,0.002000,0.000000,4.051099,2.790535
early,1.000000,1,0.945000,0.999475,4.080962,2.451079
early,0.750000,3,0.939000,0.933982,4.080962,2.451079
early,0.500000,4,0.550000,0.549449,4.080962,2.451079
early,0.250000,5,0.094000,0.095122,4.080962,2.451079
early,0.000000,11,0.000000,0.000000,4.080962,2.451079
late,1.000000,1,1.000000,0.999904,5.713753,1.961821
late,0.750000,5,0.820000,0.802224,5.713753,1.961821
late,0.500000,6,0.357000,0.363185,5.713753,1.961821
late,0.250000,7,0.069000,0.074235,5.713753,1.961821
late,0.000000,11,0.042000,0.000031,5.713753,1.961821
""",
}


@pytest.mark.parametrize("mode", ["raw", "fitted"])
def test_continuum_output_bytes_are_pinned(capsys, tmp_path, mode):
    curve_path = tmp_path / "golden.csv"
    curve_path.write_text("item,step,proportion\n" + "".join(
        f"{item},{step},{prop}\n"
        for item, props in GOLDEN_CURVES.items()
        for step, prop in enumerate(props, start=1)
    ), encoding="utf-8")
    code, out, err = run_cli(
        capsys, ["continuum", "--in", str(curve_path), "--mode", mode]
    )
    assert (code, err) == (0, "")
    assert out == GOLDEN_CONTINUUM[mode]


class Label(str):
    pass


# Cells the writer passes to csv.writer as they are, and every other cell
# type a command could hand it. numpy integers and booleans have no JSON
# encoding, so those rows end in the same TypeError in both writers.
plain_cells = st.one_of(
    st.text(st.sampled_from(["a", " ", ",", '"', "\n", "\r"]), max_size=4),
    st.integers(),
    st.none(),
)
any_cells = st.one_of(
    plain_cells,
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.floats(),
    st.floats().map(np.float64),
    st.sampled_from([-0.0, 1e300, np.float64(-0.0), np.float64(1e300)]),
    st.text(max_size=3).map(Label),
)


@st.composite
def record_tables(draw):
    """Field names and rows as tuples; each column draws either plain cells
    only or any cells, so both CSV column paths come up."""
    n_fields = draw(st.integers(1, 4))
    fieldnames = tuple(f"f{i}" for i in range(n_fields))
    n_rows = draw(st.integers(0, 6))
    columns = [
        draw(st.lists(
            plain_cells if draw(st.booleans()) else any_cells,
            min_size=n_rows, max_size=n_rows,
        ))
        for _ in fieldnames
    ]
    return fieldnames, list(zip(*columns))


def written(write, rows, fieldnames, fmt):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            write(rows, fieldnames, None, fmt)
    except TypeError as exc:
        return f"TypeError: {exc}"
    return out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table=record_tables(), drop_none=st.booleans())
def test_rows_write_the_bytes_of_the_dict_writer(table, drop_none):
    # The dict writer read a field a record lacks as None, so a dict may
    # also leave out its None cells.
    fieldnames, rows = table
    records = [
        {f: v for f, v in zip(fieldnames, row) if not (drop_none and v is None)}
        for row in rows
    ]
    for fmt in ("csv", "json"):
        expected = written(reference.write_records, records, fieldnames, fmt)
        assert written(cli.write_records, rows, fieldnames, fmt) == expected
        # blocks of two rows, so a column's cell types change across blocks
        with mock.patch.object(cli, "_CSV_BLOCK_ROWS", 2):
            assert written(cli.write_records, rows, fieldnames, fmt) == expected


def test_no_rows_write_the_header_or_an_empty_array():
    fieldnames = ("a", "b")
    for write in (cli.write_records, reference.write_records):
        assert written(write, [], fieldnames, "csv") == "a,b\n"
        assert written(write, [], fieldnames, "json") == "[]\n"


def test_continuum_degenerate_curve_exits_3(capsys, tmp_path):
    curve_path = tmp_path / "flat.csv"
    write_curve(curve_path, [0.5] * 11)
    code, _, err = run_cli(capsys, ["continuum", "--in", str(curve_path)])
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "proportions, message",
    [
        ([0.0] * 10 + [1.0], "did not converge"),
        ([0.5] * 10 + [0.51], "is not positive"),
    ],
    ids=["reversed", "nearly-flat"],
)
@pytest.mark.parametrize("mode", ["raw", "fitted"])
def test_continuum_failed_fit_exits_3(capsys, tmp_path, proportions, message, mode):
    curve_path = tmp_path / "bad.csv"
    write_curve(curve_path, proportions)
    code, out, err = run_cli(
        capsys, ["continuum", "--in", str(curve_path), "--mode", mode]
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1


def test_simfit_small_run(capsys, tmp_path, sim_path):
    data_out = tmp_path / "sim_rows.csv"
    code, out, err = run_cli(
        capsys,
        ["simfit", "--lexicon", sim_path, "--generator", "acoustic",
         "--betas", "1,1", "--noise", "0.3", "--subjects", "3",
         "--trials", "60", "--sims", "2", "--seed", "7",
         "--data-out", str(data_out)],
    )
    assert code == 0
    rows = parse_csv(out)
    sim_rows = [r for r in rows if r["kind"] == "sim"]
    summary_rows = [r for r in rows if r["kind"] == "summary"]
    assert len(sim_rows) == 4
    assert len(summary_rows) == 2
    assert {r["removed"] for r in summary_rows} == {"acoustic", "switch"}
    for row in summary_rows:
        assert 0.0 <= float(row["rate"]) <= 1.0
    assert "generator=acoustic sims=2" in err
    assert "bonferroni_alpha=0.008333" in err
    with open(data_out, newline="") as handle:
        header = next(csv.reader(handle))
    assert header[0] == "response"
    assert "subject_id" in header


def test_simfit_rejects_bad_alpha(capsys, sim_path):
    code, _, err = run_cli(
        capsys, ["simfit", "--lexicon", sim_path, "--alpha", "1.5", "--sims", "1"]
    )
    assert code == 1
    assert "alpha" in err


# simfit output of the SIM_ROWS lexicon at --subjects 3 --trials 60 --sims 3
# --seed 7, with the default and a single-df likelihood-ratio test. Six
# decimals hide the last bits of the chi-square tail and the fits, so a
# change in p-values, degrees of freedom or the regression shows up here.
GOLDEN_SIMFIT_ERR = (
    "generator=acoustic sims=3 alpha=0.050000 bonferroni_alpha=0.008333\n"
    "detection rates: acoustic=0.666667 switch=0.000000 generating=0.666667\n"
)
GOLDEN_SIMFIT = {
    (None, "csv"): """\
kind,sim,removed,chi2,df,p_value,delta_loglik,detected,rate
sim,0,acoustic,3.738715,2,0.154223,1.869357,false,
sim,0,switch,0.587195,2,0.745577,0.293597,false,
sim,1,acoustic,8.015792,2,0.018172,4.007896,true,
sim,1,switch,0.186983,2,0.910746,0.093492,false,
sim,2,acoustic,8.650878,2,0.013228,4.325439,true,
sim,2,switch,1.779622,2,0.410733,0.889811,false,
summary,,acoustic,,,,,,0.666667
summary,,switch,,,,,,0.000000
""",
    (None, "json"): """\
[
  {
    "kind": "sim",
    "sim": 0,
    "removed": "acoustic",
    "chi2": 3.738715,
    "df": 2,
    "p_value": 0.154223,
    "delta_loglik": 1.869357,
    "detected": false,
    "rate": null
  },
  {
    "kind": "sim",
    "sim": 0,
    "removed": "switch",
    "chi2": 0.587195,
    "df": 2,
    "p_value": 0.745577,
    "delta_loglik": 0.293597,
    "detected": false,
    "rate": null
  },
  {
    "kind": "sim",
    "sim": 1,
    "removed": "acoustic",
    "chi2": 8.015792,
    "df": 2,
    "p_value": 0.018172,
    "delta_loglik": 4.007896,
    "detected": true,
    "rate": null
  },
  {
    "kind": "sim",
    "sim": 1,
    "removed": "switch",
    "chi2": 0.186983,
    "df": 2,
    "p_value": 0.910746,
    "delta_loglik": 0.093492,
    "detected": false,
    "rate": null
  },
  {
    "kind": "sim",
    "sim": 2,
    "removed": "acoustic",
    "chi2": 8.650878,
    "df": 2,
    "p_value": 0.013228,
    "delta_loglik": 4.325439,
    "detected": true,
    "rate": null
  },
  {
    "kind": "sim",
    "sim": 2,
    "removed": "switch",
    "chi2": 1.779622,
    "df": 2,
    "p_value": 0.410733,
    "delta_loglik": 0.889811,
    "detected": false,
    "rate": null
  },
  {
    "kind": "summary",
    "sim": null,
    "removed": "acoustic",
    "chi2": null,
    "df": null,
    "p_value": null,
    "delta_loglik": null,
    "detected": null,
    "rate": 0.666667
  },
  {
    "kind": "summary",
    "sim": null,
    "removed": "switch",
    "chi2": null,
    "df": null,
    "p_value": null,
    "delta_loglik": null,
    "detected": null,
    "rate": 0.0
  }
]
""",
    ("1", "csv"): """\
kind,sim,removed,chi2,df,p_value,delta_loglik,detected,rate
sim,0,acoustic,3.738715,1,0.053165,1.869357,false,
sim,0,switch,0.587195,1,0.443506,0.293597,false,
sim,1,acoustic,8.015792,1,0.004637,4.007896,true,
sim,1,switch,0.186983,1,0.665439,0.093492,false,
sim,2,acoustic,8.650878,1,0.003269,4.325439,true,
sim,2,switch,1.779622,1,0.182196,0.889811,false,
summary,,acoustic,,,,,,0.666667
summary,,switch,,,,,,0.000000
""",
    ("1", "json"): """\
[
  {
    "kind": "sim",
    "sim": 0,
    "removed": "acoustic",
    "chi2": 3.738715,
    "df": 1,
    "p_value": 0.053165,
    "delta_loglik": 1.869357,
    "detected": false,
    "rate": null
  },
  {
    "kind": "sim",
    "sim": 0,
    "removed": "switch",
    "chi2": 0.587195,
    "df": 1,
    "p_value": 0.443506,
    "delta_loglik": 0.293597,
    "detected": false,
    "rate": null
  },
  {
    "kind": "sim",
    "sim": 1,
    "removed": "acoustic",
    "chi2": 8.015792,
    "df": 1,
    "p_value": 0.004637,
    "delta_loglik": 4.007896,
    "detected": true,
    "rate": null
  },
  {
    "kind": "sim",
    "sim": 1,
    "removed": "switch",
    "chi2": 0.186983,
    "df": 1,
    "p_value": 0.665439,
    "delta_loglik": 0.093492,
    "detected": false,
    "rate": null
  },
  {
    "kind": "sim",
    "sim": 2,
    "removed": "acoustic",
    "chi2": 8.650878,
    "df": 1,
    "p_value": 0.003269,
    "delta_loglik": 4.325439,
    "detected": true,
    "rate": null
  },
  {
    "kind": "sim",
    "sim": 2,
    "removed": "switch",
    "chi2": 1.779622,
    "df": 1,
    "p_value": 0.182196,
    "delta_loglik": 0.889811,
    "detected": false,
    "rate": null
  },
  {
    "kind": "summary",
    "sim": null,
    "removed": "acoustic",
    "chi2": null,
    "df": null,
    "p_value": null,
    "delta_loglik": null,
    "detected": null,
    "rate": 0.666667
  },
  {
    "kind": "summary",
    "sim": null,
    "removed": "switch",
    "chi2": null,
    "df": null,
    "p_value": null,
    "delta_loglik": null,
    "detected": null,
    "rate": 0.0
  }
]
""",
}


@pytest.mark.parametrize("df", [None, "1"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_simfit_output_bytes_are_pinned(capsys, sim_path, df, fmt):
    argv = ["simfit", "--lexicon", sim_path, "--subjects", "3", "--trials", "60",
            "--sims", "3", "--seed", "7", "--format", fmt]
    if df is not None:
        argv += ["--df", df]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, GOLDEN_SIMFIT_ERR)
    assert out == GOLDEN_SIMFIT[df, fmt]


def test_seed_belongs_to_simfit_only(capsys, toy_path, sim_path):
    # only simfit draws random numbers; its seed-7 output is pinned above
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["trace", "--lexicon", toy_path, "--all", "--pair", "B,P", "--seed", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["simfit", "--lexicon", sim_path, "--subjects", "3",
                                    "--trials", "60", "--sims", "3", "--seed", "8"])
    assert code == 0 and out != GOLDEN_SIMFIT[None, "csv"]


def test_csv_and_json_outputs_carry_identical_values(capsys, tmp_path, toy_path):
    csv_path = tmp_path / "trace.csv"
    json_path = tmp_path / "trace.json"
    base = ["trace", "--lexicon", toy_path, "--word", "bat", "--pair", "B,P"]
    assert cli.main(base + ["--out", str(csv_path)]) == 0
    assert cli.main(base + ["--out", str(json_path), "--format", "json"]) == 0
    with open(csv_path, newline="") as handle:
        csv_rows = list(csv.DictReader(handle))
    json_rows = json.loads(json_path.read_text())
    assert len(csv_rows) == len(json_rows) == 3
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert set(csv_row) == set(json_row)
        for field, csv_value in csv_row.items():
            json_value = json_row[field]
            if isinstance(json_value, float):
                assert float(csv_value) == json_value
            elif isinstance(json_value, int):
                assert int(csv_value) == json_value
            else:
                assert csv_value == str(json_value)


def test_malformed_lexicon_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("#unit: counts\n#inventory: B AE T\nbat\tB AE T\n")
    code, _, err = run_cli(capsys, ["ingest-check", "--lexicon", str(path)])
    assert code == 1
    assert "line" in err


def test_missing_lexicon_file_exits_1(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["ingest-check", "--lexicon", str(tmp_path / "nope.tsv")]
    )
    assert code == 1
    assert "error" in err


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


def test_trace_all_warns_and_drops_words_whose_committed_path_dies(capsys, tmp_path):
    # At p_a 0.25 each word commits to its voicing partner's onset, and
    # /P IH/ starts no word, so "bin" has no trace.
    path = tmp_path / "dies.tsv"
    write_lexicon(
        make_lexicon(
            [("bat", "B AE T", 3.0), ("bin", "B IH N", 1.0), ("pat", "P AE T", 4.0)]
        ),
        path,
    )
    code, out, err = run_cli(
        capsys,
        ["trace", "--lexicon", str(path), "--all", "--pair", "B,P", "--p-a", "0.25"],
    )
    assert code == 0
    assert err == "warning: bin: committed path leaves the lexicon, skipped\n"
    assert {r["word"] for r in parse_csv(out)} == {"bat", "pat"}


@pytest.mark.parametrize("command", [["trace", "--all"], ["compare"]])
def test_all_skipped_pair_names_the_untraceable_words(capsys, tmp_path, command):
    # At p_a 0.25 "bat" commits to /P AE/ and "pin" to /B IH/: both words
    # start with B or P, and neither has a trace.
    path = tmp_path / "all_skipped.tsv"
    path.write_text("bat\tB AE T\t1\npin\tP IH N\t1\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, [*command, "--lexicon", str(path), "--pair", "B,P", "--p-a", "0.25"]
    )
    assert (code, out) == (1, "")
    assert err == (
        "warning: bat: committed path leaves the lexicon, skipped\n"
        "warning: pin: committed path leaves the lexicon, skipped\n"
        "error: no traceable word starts with B or P\n"
    )


@pytest.mark.parametrize("command", [["trace", "--all"], ["compare"]])
def test_pair_without_words_exits_1(capsys, tmp_path, command):
    path = tmp_path / "no_bp.tsv"
    path.write_text("dot\tD AA T\t1\ntot\tT AA T\t1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, [*command, "--lexicon", str(path), "--pair", "B,P"])
    assert (code, out) == (1, "")
    assert err == "error: no traceable word starts with B or P\n"


def test_trace_word_in_lexicon_with_byte_order_mark(capsys, tmp_path):
    path = tmp_path / "bom.tsv"
    path.write_text("bat\tB AE T\t3\npat\tP AE T\t1\n", encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, _ = run_cli(
        capsys, ["trace", "--lexicon", str(path), "--word", "bat", "--pair", "B,P"]
    )
    assert code == 0
    assert [r["phoneme"] for r in parse_csv(out)] == ["B", "AE", "T"]


def test_compare_rejects_negative_top_k(capsys, disjoint_path):
    code, out, err = run_cli(
        capsys,
        ["compare", "--lexicon", disjoint_path, "--pair", "B,P", "--top-k", "-1"],
    )
    assert code == 1
    assert out == ""
    assert err == "error: --top-k must be >= 0\n"


def test_simfit_rejects_negative_df(capsys, sim_path):
    code, out, err = run_cli(
        capsys, ["simfit", "--lexicon", sim_path, "--df", "-1", "--sims", "1"]
    )
    assert code == 1
    assert out == ""
    assert err == "error: --df must be >= 0\n"


@pytest.mark.parametrize(
    "rows",
    ["bat\tB AE T\tinf\npat\tP AE T\t1\n", "bat\tB AE T\t1e308\npat\tP AE T\t1e308\n"],
    ids=["inf", "overflowing-sum"],
)
def test_non_finite_frequencies_exit_1_with_one_error_line(capsys, tmp_path, rows):
    path = tmp_path / "huge.tsv"
    path.write_text(rows, encoding="utf-8")
    for command in (["ingest-check"], ["trace", "--all", "--pair", "B,P"]):
        code, out, err = run_cli(capsys, command + ["--lexicon", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--betas", "1e200,1e200"], "residual sum of squares is not finite"),
        (["--betas", "1e308,1e308"], "simulated responses are not finite"),
        (["--noise", "1e308"], "simulated responses are not finite"),
        (["--subject-sd", "1e308"], "not finite"),
    ],
    ids=["sse-overflow", "betas", "noise", "subject-sd"],
)
def test_simfit_overflow_exits_1_with_one_error_line(capsys, sim_path, flags, message):
    code, out, err = run_cli(
        capsys,
        ["simfit", "--lexicon", sim_path, "--sims", "1", "--trials", "40", *flags],
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_simfit_reports_skipped_traces_on_stderr(capsys, tmp_path, sim_path):
    # /P AH/ starts no word, so "bug" has no trace when its evidence
    # leans to P (p_a 0.25): one of 34 word/ambiguity traces is skipped.
    path = tmp_path / "skip.tsv"
    write_lexicon(make_lexicon(SIM_ROWS + [("bug", "B AH G", 1.0)]), path)
    argv = ["simfit", "--sims", "2", "--trials", "40", "--subjects", "3"]
    code, out, err = run_cli(capsys, argv + ["--lexicon", str(path)])
    assert code == 0
    lines = err.splitlines()
    assert lines[0] == (
        "warning: 1 of 34 word/ambiguity traces skipped (impossible continuation)"
    )
    assert [line for line in lines if line.startswith("warning")] == lines[:1]
    assert len(parse_csv(out)) == 2 * 2 + 2
    code, _, err = run_cli(capsys, argv + ["--lexicon", sim_path])
    assert code == 0
    assert "warning" not in err


@pytest.fixture
def argv_by_exit(tmp_path, toy_path):
    flat = tmp_path / "flat.csv"
    write_curve(flat, [0.5] * 11)
    return {
        0: ["ingest-check", "--lexicon", toy_path],
        1: ["ingest-check", "--lexicon", str(tmp_path / "missing.tsv")],
        2: ["trace", "--lexicon", toy_path, "--word", "zzz", "--pair", "B,P"],
        3: ["continuum", "--in", str(flat)],
    }


@pytest.mark.parametrize("code", [0, 1, 2, 3])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_main_restores_collector_state(capsys, monkeypatch, argv_by_exit, code, enabled):
    # The command itself runs with the cyclic collector paused; main hands
    # back the state it found, whichever way the command ends.
    during = []
    command = argv_by_exit[code][0]
    func_name = "cmd_" + command.replace("-", "_")
    func = getattr(cli, func_name)

    def spy(args):
        during.append(gc.isenabled())
        return func(args)

    monkeypatch.setattr(cli, func_name, spy)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run_cli(capsys, argv_by_exit[code])[0] == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]


def test_usage_error_leaves_collector_enabled(toy_path):
    assert gc.isenabled()
    with pytest.raises(SystemExit):
        cli.main(["trace", "--lexicon", toy_path, "--pair", "B,P"])
    assert gc.isenabled()
