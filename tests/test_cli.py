import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohortlex import (
    analysis, build_trie, cli, continuum, make_lexicon, parse_lexicon, write_lexicon,
)
from tests import records_reference as reference
from tests.conftest import SIM_ROWS, TOY_B_ROWS, generated_rows, mirrored_rows

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


def scipy_modules_after(argvs):
    """Run `cli.main` on each argv in a fresh interpreter that first
    imports the package: each command's name and exit code, then the
    sorted scipy modules loaded by the end."""
    script = f"""
import contextlib, io, sys
import cohortlex, cohortlex.cli
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cohortlex.cli.main(argv)
    print(argv[0], code)
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
    return run_python(script).splitlines()


def fresh_env():
    """os.environ with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))


def run_python(script):
    """Run `script` in a fresh interpreter; its stdout, once it exits 0."""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=fresh_env(),
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_commands_that_fit_nothing_never_load_scipy(sim_path):
    # The regression is numpy's QR and the package's own chi-square tail,
    # so no command, simfit included, loads scipy.
    assert scipy_modules_after([
        ["ingest-check", "--lexicon", sim_path],
        ["trace", "--lexicon", sim_path, "--all", "--pair", "B,P"],
        ["compare", "--lexicon", sim_path, "--pair", "B,P"],
        ["pairs", "--lexicon", sim_path, "--min-shared", "1"],
        ["simfit", "--lexicon", sim_path, "--position", "2", "--sims", "3", "--trials", "40"],
    ]) == ["ingest-check 0", "trace 0", "compare 0", "pairs 0", "simfit 0", "[]"]


def test_the_regression_runs_where_scipy_cannot_be_imported(sim_path):
    # `sys.modules["scipy"] = None` makes every scipy import fail
    script = f"""
import contextlib, io, math, sys
sys.modules["scipy"] = None
from cohortlex import analysis, build_trie, cli, parse_lexicon
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(["simfit", "--lexicon", {sim_path!r}, "--position", "2", "--sims", "3",
                     "--trials", "40"])
traces = analysis.build_trace_set(build_trie(parse_lexicon({sim_path!r})))
data = analysis.simulate_dataset(traces, 2, "acoustic", (1.0, 1.0), 0.5, 3, 1.0, 40, 0)
fit = analysis.ols_fit(data, analysis.FULL_PREDICTORS)
tests = analysis.compare_removals(data)
calibration = analysis.permutation_calibration(data, 20, 0.05, 1)
values = [fit.log_likelihood, calibration.fraction_below_alpha, analysis.chi_square_sf(3.0, 2)]
values += [result.p_value for result in tests.values()]
print(code, len(out.getvalue().splitlines()), all(map(math.isfinite, values)))
"""
    assert run_python(script) == "0 9 True\n"


def test_a_closed_stdout_ends_quietly(tmp_path):
    # A reader that takes one line and closes the pipe (`| head -1`) ends
    # the command with exit 0 and nothing on stderr. The pairs fill far
    # more than a pipe's buffer, so the writer meets the closed pipe.
    path = tmp_path / "many.tsv"
    path.write_text("".join(
        f"{onset.lower()}{i}\t{onset} AE X{i}\t1\n" for i in range(200) for onset in "BP"
    ), encoding="utf-8")
    process = subprocess.Popen(
        [sys.executable, "-m", "cohortlex.cli", "pairs", "--lexicon", str(path),
         "--min-shared", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env(),
    )
    assert process.stdout.readline() == b"word_a,word_b,onset_a,onset_b,shared_len,divergence_point\n"
    process.stdout.close()
    assert process.wait(timeout=60) == 0
    assert process.stderr.read() == b""
    process.stderr.close()


def test_continuum_never_loads_scipy(tmp_path):
    # the logistic fits are the package's own Levenberg-Marquardt, in numpy
    curve_path = tmp_path / "curves.csv"
    write_curve(curve_path, [1.0, 1.0, 0.97, 0.9, 0.8, 0.6, 0.4, 0.2, 0.08, 0.02, 0.0])
    argv = ["continuum", "--in", str(curve_path)]
    assert scipy_modules_after([argv, argv + ["--mode", "fitted"]]) == [
        "continuum 0", "continuum 0", "[]",
    ]


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


def test_trace_word_skips_homographs_whose_onset_is_not_in_the_pair(capsys, tmp_path):
    path = tmp_path / "mixed.tsv"
    path.write_text("bat\tB AE T\t3\nbat\tS AE T\t2\npat\tP AE T\t1\n")
    argv = ["trace", "--lexicon", str(path), "--word", "bat", "--pair", "B,P"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert [r["phoneme"] for r in parse_csv(out)] == ["B", "AE", "T"]
    assert err == "warning: bat /S AE T/: onset is not in --pair, skipped\n"
    # With no entry left, today's onset error stands.
    code, out, err = run_cli(capsys, argv[:-1] + ["D,T"])
    assert (code, out) == (1, "")
    assert err == "error: word onset /B/ is neither evidence candidate (/D/, /T/)\n"


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


def test_compare_warns_once_per_position_with_too_few_traces(capsys, tmp_path):
    # only "bats" reaches position 4: one warning for the position, not
    # one per quantity
    path = tmp_path / "five.tsv"
    write_lexicon(
        make_lexicon(
            [
                ("bat", "B AE T", 3.0),
                ("pat", "P AE T", 2.0),
                ("bin", "B IH N", 1.0),
                ("pin", "P IH N", 4.0),
                ("bats", "B AE T S", 1.0),
            ]
        ),
        path,
    )
    code, _, err = run_cli(capsys, ["compare", "--lexicon", str(path), "--pair", "B,P"])
    assert code == 0
    warning = "warning: position 4: only 1 traces, correlation skipped"
    assert err.splitlines().count(warning) == 1


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
# probability moves by a last digit or more when the fit stops short of
# the least-squares optimum: every cell equals a fit by
# `continuum_reference.reference_fit` at 1e-15 tolerances.
GOLDEN_CURVES = {
    "early": [0.945, 0.954, 0.939, 0.55, 0.094, 0.0, 0.0, 0.004, 0.0, 0.0, 0.0],
    "dip": [1.0, 0.973, 0.958, 0.534, 0.064, 0.049, 0.0, 0.022, 0.038, 0.0, 0.002],
    "late": [1.0, 1.0, 0.99, 0.927, 0.82, 0.357, 0.069, 0.036, 0.0, 0.003, 0.042],
}

GOLDEN_CONTINUUM = {
    "raw": """\
item,target,step,achieved_proportion,fitted_probability,midpoint,slope
dip,1.000000,1,1.000000,0.999799,4.051098,2.790542
dip,0.750000,3,0.958000,0.949460,4.051098,2.790542
dip,0.500000,4,0.534000,0.535588,4.051098,2.790542
dip,0.250000,5,0.064000,0.066115,4.051098,2.790542
dip,0.000000,7,0.000000,0.000267,4.051098,2.790542
early,1.000000,2,0.954000,0.993944,4.080962,2.451081
early,0.750000,3,0.939000,0.933982,4.080962,2.451081
early,0.500000,4,0.550000,0.549449,4.080962,2.451081
early,0.250000,5,0.094000,0.095122,4.080962,2.451081
early,0.000000,6,0.000000,0.008980,4.080962,2.451081
late,1.000000,1,1.000000,0.999904,5.713753,1.961822
late,0.750000,5,0.820000,0.802225,5.713753,1.961822
late,0.500000,6,0.357000,0.363185,5.713753,1.961822
late,0.250000,7,0.069000,0.074235,5.713753,1.961822
late,0.000000,9,0.000000,0.001583,5.713753,1.961822
""",
    "fitted": """\
item,target,step,achieved_proportion,fitted_probability,midpoint,slope
dip,1.000000,1,1.000000,0.999799,4.051098,2.790542
dip,0.750000,3,0.958000,0.949460,4.051098,2.790542
dip,0.500000,4,0.534000,0.535588,4.051098,2.790542
dip,0.250000,5,0.064000,0.066115,4.051098,2.790542
dip,0.000000,11,0.002000,0.000000,4.051098,2.790542
early,1.000000,1,0.945000,0.999475,4.080962,2.451081
early,0.750000,3,0.939000,0.933982,4.080962,2.451081
early,0.500000,4,0.550000,0.549449,4.080962,2.451081
early,0.250000,5,0.094000,0.095122,4.080962,2.451081
early,0.000000,11,0.000000,0.000000,4.080962,2.451081
late,1.000000,1,1.000000,0.999904,5.713753,1.961822
late,0.750000,5,0.820000,0.802225,5.713753,1.961822
late,0.500000,6,0.357000,0.363185,5.713753,1.961822
late,0.250000,7,0.069000,0.074235,5.713753,1.961822
late,0.000000,11,0.042000,0.000031,5.713753,1.961822
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


# md5 of stdout at scale: an 8k generated lexicon (seed 101) with homographs,
# where sort order among equal shared_len values, the homograph dedupe,
# signed zeros and rounding-boundary cells can show.
SCALE_PINS = {
    "trace --all --pair B,P --p-a 0.25": "871c89cb84dad322c06c9aacb58ca8ff",
    "trace --all --pair B,P --p-a 0.75": "6ec02d6cc0e3cd549f8c4d0444b1aea4",
    "trace --all --pair D,T --p-a 0.25": "b87939793b07e0b5b4558d1ed7abba7b",
    "trace --all --pair D,T --p-a 0.75": "73666b65313ebe9f7cfb367d3e6afd1a",
    "trace --all --pair G,K --p-a 0.25": "4d55fa15b7b3da7003a4a949d854b143",
    "trace --all --pair G,K --p-a 0.75": "06af1cfe5f63af4ffb9b1e9cc40c86d5",
    "compare --pair B,P": "4ee3b11cae7aa30df1bbddde6714ec87",
    "compare --pair D,T": "a4dea74cd6e387160832dee09afc5f92",
    "compare --pair G,K": "2bb21b82dce1ef39e46984c67cd1f4ca",
    "pairs --min-shared 2": "9baf02a572ce3e756d130d19b3eb5ca4",
    "pairs --min-shared 2 --keep-undiverged": "9de4fd76b4a3f50d62057fa1a103f0c8",
    "trace --all --pair B,P --smoothing 0.1": "394258ca2baab1e579ed7555a334c7e5",
    "trace --all --pair D,T --smoothing 0.1": "d679dde3339075b4f6326121121d411c",
    "trace --all --pair G,K --smoothing 0.1": "643a8c13d268d9862ad99acab7bc3924",
    # 1,000 generated curves (see scale_curves_path)
    "continuum --mode raw": "b7ccdcde46aa1e0487bd0e1f16a28abe",
    "continuum --mode fitted": "788b17e77587552067a083f2deab8951",
}


@pytest.fixture(scope="module")
def scale_path(tmp_path_factory):
    rows = generated_rows(101, 8_000)
    # every 300th plosive-onset spelling again with its onset's voicing
    # partner, and again with its last phoneme replaced
    partner = dict(zip("BPDTGK", "PBTDKG"))
    for row in [row for row in rows if row[0].upper() in partner][::300]:
        spelling, pron, count = row.split("\t")
        onset, *rest = pron.split()
        rows.append(f"{spelling}\t{' '.join([partner[onset], *rest])}\t{count}")
        rows.append(f"{spelling}\t{' '.join([onset, *rest[:-1], 'Z'])}\t{count}")
    path = tmp_path_factory.mktemp("scale") / "scale.tsv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def scale_curves_path(tmp_path_factory):
    # noisy descending logistics rounded to 3 decimals, as a pretest
    # reports them, with midpoints and slopes over the usual range
    rng = random.Random(101)
    lines = ["item,step,proportion"]
    for item in range(1_000):
        midpoint, slope = rng.uniform(4.0, 8.0), rng.uniform(0.8, 2.5)
        for step in range(1, 12):
            p = 1.0 / (1.0 + math.exp(slope * (step - midpoint))) + rng.gauss(0.0, 0.03)
            lines.append(f"item{item:04d},{step},{min(1.0, max(0.0, p)):.3f}")
    path = tmp_path_factory.mktemp("scale") / "curves.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("command", SCALE_PINS)
def test_outputs_at_scale_are_pinned(capsys, request, command):
    if command.startswith("continuum"):
        inputs = ["--in", request.getfixturevalue("scale_curves_path")]
    else:
        inputs = ["--lexicon", request.getfixturevalue("scale_path")]
    code, out, _ = run_cli(capsys, command.split() + inputs)
    assert code == 0
    assert hashlib.md5(out.encode()).hexdigest() == SCALE_PINS[command]


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
    """Field names and one list of cells per field; each column draws either
    plain cells only or any cells, so both column paths come up."""
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
    return fieldnames, columns


def written(write, table, fieldnames, fmt):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            write(table, fieldnames, None, fmt)
    except TypeError as exc:
        return f"TypeError: {exc}"
    return out.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table=record_tables(), drop_none=st.booleans())
def test_columns_write_the_bytes_of_the_dict_writer(table, drop_none):
    # The dict writer read a field a record lacks as None, so a dict may
    # also leave out its None cells.
    fieldnames, columns = table
    records = [
        {f: v for f, v in zip(fieldnames, row) if not (drop_none and v is None)}
        for row in zip(*columns)
    ]
    for fmt in ("csv", "json"):
        expected = written(reference.write_records, records, fieldnames, fmt)
        assert written(cli.write_records, columns, fieldnames, fmt) == expected
        # blocks of two rows, so a column's cell types change across blocks
        with mock.patch.object(cli, "_BLOCK_ROWS", 2):
            assert written(cli.write_records, columns, fieldnames, fmt) == expected


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(table=record_tables())
def test_numpy_object_columns_write_the_bytes_of_the_dict_writer(table):
    fieldnames, columns = table
    records = [dict(zip(fieldnames, row)) for row in zip(*columns)]
    arrays = []
    for column in columns:
        array = np.empty(len(column), dtype=object)
        array[:] = column
        arrays.append(array)
    for fmt in ("csv", "json"):
        expected = written(reference.write_records, records, fieldnames, fmt)
        with mock.patch.object(cli, "_BLOCK_ROWS", 2):
            assert written(cli.write_records, arrays, fieldnames, fmt) == expected


def test_no_rows_write_the_header_or_an_empty_array():
    fieldnames = ("a", "b")
    for write, table in ((cli.write_records, [[], []]), (reference.write_records, [])):
        assert written(write, table, fieldnames, "csv") == "a,b\n"
        assert written(write, table, fieldnames, "json") == "[]\n"


class ChunkRecorder:
    """A stdout that keeps each item passed to `writelines`."""

    def __init__(self):
        self.chunks = []

    def writelines(self, chunks):
        self.chunks.extend(chunks)


def recorded_chunks(columns, fieldnames, fmt):
    stdout = ChunkRecorder()
    with mock.patch.object(cli, "_BLOCK_ROWS", 2), mock.patch.object(sys, "stdout", stdout):
        cli.write_records(columns, fieldnames, None, fmt)
    return stdout.chunks


def test_both_formats_are_written_a_block_of_rows_at_a_time():
    fieldnames = ("word", "n", "value")
    columns = [["a", "b,c", "d", "e", "f"], [1, 2, None, 4, 5], [0.5, None, 1.25, True, -2.0]]
    records = [dict(zip(fieldnames, row)) for row in zip(*columns)]
    csv_chunks = recorded_chunks(columns, fieldnames, "csv")
    json_chunks = recorded_chunks(columns, fieldnames, "json")
    # the header, then one chunk per block of two rows
    assert csv_chunks[0] == "word,n,value\n" and len(csv_chunks) == 4
    assert len(json_chunks) >= 3
    for fmt, chunks in (("csv", csv_chunks), ("json", json_chunks)):
        assert "".join(chunks) == written(reference.write_records, records, fieldnames, fmt)


def test_an_unknown_format_is_rejected():
    for write in (cli.write_records, reference.write_records):
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            write([(1, 2)], ("a", "b"), None, "xml")


def test_continuum_header_without_rows_exits_1(capsys, tmp_path):
    curve_path = tmp_path / "header.csv"
    curve_path.write_text("step,proportion\n\n")
    code, out, err = run_cli(capsys, ["continuum", "--in", str(curve_path)])
    assert (code, out, err) == (1, "", f"error: {curve_path}: no data rows\n")


def test_continuum_degenerate_curve_exits_3(capsys, tmp_path):
    curve_path = tmp_path / "flat.csv"
    write_curve(curve_path, [0.5] * 11)
    code, _, err = run_cli(capsys, ["continuum", "--in", str(curve_path)])
    assert code == 3
    assert "error" in err


def test_continuum_column_named_twice_exits_1(capsys, tmp_path):
    curve_path = tmp_path / "twice.csv"
    lines = ["step,proportion,step"] + [
        f"{s},{1 - (s - 1) / 10},{12 - s}" for s in range(1, 12)
    ]
    curve_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, ["continuum", "--in", str(curve_path)])
    assert (code, out) == (1, "")
    assert err == f"error: {curve_path}: column 'step' is named more than once\n"


@pytest.mark.parametrize(
    "proportions, message",
    [
        ([0.0] * 10 + [1.0], "is not positive"),
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


def test_continuum_reports_the_first_failing_item_in_sorted_order(
    capsys, tmp_path, monkeypatch
):
    # file order z, b, a: "a" rises (slope not positive) and sorts first,
    # ahead of the flat "b"; once the cap is cut to 3 iterations, "a"
    # stops converging first instead
    curves = {
        "z": [1.0, 1.0, 0.97, 0.9, 0.8, 0.6, 0.4, 0.2, 0.08, 0.02, 0.0],
        "b": [0.5] * 11,
        "a": [0.0] * 10 + [1.0],
    }
    curve_path = tmp_path / "items.csv"
    curve_path.write_text("item,step,proportion\n" + "".join(
        f"{item},{step},{prop}\n"
        for item, props in curves.items()
        for step, prop in enumerate(props, start=1)
    ), encoding="utf-8")
    argv = ["continuum", "--in", str(curve_path)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: fitted slope -") and err.count("\n") == 1
    assert "is not positive" in err
    monkeypatch.setattr(continuum, "_FIT_MAX_ITERATIONS", 3)
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (3, "", "error: logistic fit did not converge in 3 iterations\n")


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
    data = data_out.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n") and data.count(b"\n") == 1 + 3 * 60


@pytest.mark.parametrize("generator", ["acoustic", "switch"])
def test_simfit_data_out_is_the_first_simulated_dataset(
    capsys, tmp_path, sim_path, generator
):
    data_out = tmp_path / "first.csv"
    code, _, _ = run_cli(
        capsys,
        ["simfit", "--lexicon", sim_path, "--generator", generator,
         "--betas", "1,-0.5", "--noise", "0.3", "--subjects", "3",
         "--subject-sd", "0.7", "--trials", "40", "--sims", "2", "--seed", "11",
         "--position", "2", "--data-out", str(data_out)],
    )
    assert code == 0
    traces = analysis.build_trace_set(build_trie(parse_lexicon(sim_path)))
    expected = tmp_path / "expected.csv"
    analysis.write_dataset(
        analysis.simulate_dataset(traces, 2, generator, (1.0, -0.5), 0.3, 3, 0.7, 40, 11),
        expected,
    )
    assert data_out.read_bytes() == expected.read_bytes()


def test_simfit_failed_run_writes_no_data_out(capsys, tmp_path, sim_path):
    # 2 x 5 trials are too few rows for the full design: the run fails at
    # its first fit and leaves no dataset behind
    data_out = tmp_path / "first.csv"
    code, out, err = run_cli(
        capsys,
        ["simfit", "--lexicon", sim_path, "--subjects", "2", "--trials", "5",
         "--data-out", str(data_out)],
    )
    assert (code, out) == (1, "")
    assert err == "error: need more rows than parameters: n=10, p=11\n"
    assert not data_out.exists()


def test_simfit_position_1_fails_before_simulating(capsys, monkeypatch, tmp_path, sim_path):
    # At position 1 a trace's four metrics are fixed by its cell (voicing
    # pair, own onset, p_a), and a B/P lexicon has 4 cells for the
    # intercept, the ambiguity dummy and four metrics: no draw can fit.
    simulated, seeded = [], []
    for module in (analysis, cli):
        monkeypatch.setattr(module, "simulate_dataset", lambda *a, **k: simulated.append(a))
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda *a, **k: seeded.append(a) or default_rng(*a, **k)
    )
    data_out = tmp_path / "first.csv"
    code, out, err = run_cli(
        capsys,
        ["simfit", "--lexicon", sim_path, "--position", "1", "--data-out", str(data_out)],
    )
    assert code == 3
    assert out == ""
    assert err == (
        "error: position 1: the cells of the traces that reach it cannot separate "
        "columns ['acoustic_entropy', 'switch_surprisal', 'switch_entropy']\n"
    )
    assert simulated == [] and seeded == []
    assert not data_out.exists()


def test_simfit_without_voicing_onset_words_exits_1(capsys, tmp_path):
    path = tmp_path / "nasal.tsv"
    path.write_text("mat\tM AE T\t2\nsat\tS AE T\t1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["simfit", "--lexicon", str(path), "--sims", "1"])
    assert (code, out) == (1, "")
    assert err == "error: no traceable voicing-onset words in the lexicon\n"


def test_simfit_rejects_bad_alpha(capsys, sim_path):
    code, _, err = run_cli(
        capsys, ["simfit", "--lexicon", sim_path, "--alpha", "1.5", "--sims", "1"]
    )
    assert (code, err) == (1, "error: --alpha must be in (0, 1)\n")


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


# md5s of simfit's stdout and stderr at the recovery benchmark's shape: a
# 64-word mirrored B/P lexicon, 10 subjects x 500 trials, 100 simulations.
# Every printed cell of the 200 removal tests is covered.
BENCH_SHAPE_SIMFIT_ARGS = [
    "--subjects", "10", "--trials", "500", "--sims", "100", "--position", "2",
    "--noise", "0.5", "--betas", "1,1",
]
BENCH_SHAPE_SIMFIT_PINS = {
    ("acoustic", None): (
        "25107701295168beb9b48c13aae6437b", "ed28cb245a847ab3e86e75221c8b3a99"
    ),
    ("acoustic", "1"): (
        "cc4fd7a5895b457ec58d439641503ecc", "ae501e810c2c062ce7c73dceeec7280c"
    ),
    ("switch", None): (
        "d8337f7d704e06f348b91a2fa119bdf5", "1f266373d6007823220f324c7d21a6c1"
    ),
    ("switch", "1"): (
        "7d639a6951a125eb73319bd52cd7ee6b", "afe2270229be6c5ff1909a7efc21b224"
    ),
}


@pytest.fixture(scope="module")
def mirrored_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mirrored") / "mirrored.tsv"
    path.write_text("\n".join(mirrored_rows(7201, 32)) + "\n", encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("generator, df", BENCH_SHAPE_SIMFIT_PINS)
def test_simfit_output_at_the_benchmark_shape_is_pinned(capsys, mirrored_path, generator, df):
    argv = ["simfit", "--lexicon", mirrored_path, "--generator", generator,
            *BENCH_SHAPE_SIMFIT_ARGS]
    if df is not None:
        argv += ["--df", df]
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert (
        hashlib.md5(out.encode()).hexdigest(), hashlib.md5(err.encode()).hexdigest()
    ) == BENCH_SHAPE_SIMFIT_PINS[generator, df]


# `trace` and `compare` output for the onset pair B,P, per run: whether the
# lexicon gains "bug B AH G" (no word starts /P AH/, so at --p-a 0.25 its
# committed path dies and its warning line is pinned) and the arguments.
# CSV runs on SIM_ROWS; JSON, a dozen lines per row, on TOY_B_ROWS.
GOLDEN_TRACE_RUNS = {
    "trace --all": (False, ["trace", "--all", "--p-a", "0.75"]),
    "compare": (False, ["compare", "--top-k", "2", "--p-a", "0.75"]),
    "trace --all, skip": (True, ["trace", "--all", "--p-a", "0.25"]),
    "compare, skip": (True, ["compare", "--top-k", "2", "--p-a", "0.25"]),
    "trace --word": (False, ["trace", "--word", "bat"]),
}
GOLDEN_COMPARE_ERR = {
    "csv": "warning: position 3: constant entropy values, correlation skipped\n",
    "json": (
        "warning: position 2: constant entropy values, correlation skipped\n"
        "warning: position 3: constant surprisal values, correlation skipped\n"
        "warning: position 3: constant entropy values, correlation skipped\n"
    ),
}
GOLDEN_SKIP_ERR = "warning: bug: committed path leaves the lexicon, skipped\n"
GOLDEN_TRACE = {
    ("csv", "trace --all"): """\
word,position,phoneme,switch_surprisal,acoustic_surprisal,switch_entropy,acoustic_entropy,switch_cohort_size,joint_cohort_size
bat,1,B,1.187627,2.163396,2.816340,3.616764,8,16
bat,2,AE,1.847997,2.928615,0.970951,1.719973,2,4
bat,3,T,0.736966,1.703018,0.000000,0.811278,1,2
bad,1,B,1.187627,2.163396,2.816340,3.616764,8,16
bad,2,AE,1.847997,2.928615,0.970951,1.719973,2,4
bad,3,D,1.321928,2.206451,0.000000,0.811278,1,2
bin,1,B,1.187627,2.163396,2.816340,3.616764,8,16
bin,2,IH,2.584963,3.553936,0.918296,1.729574,2,4
bin,3,N,0.584963,1.847997,0.000000,0.811278,1,2
bid,1,B,1.187627,2.163396,2.816340,3.616764,8,16
bid,2,IH,2.584963,3.553936,0.918296,1.729574,2,4
bid,3,D,1.584963,2.847997,0.000000,0.811278,1,2
bet,1,B,1.187627,2.163396,2.816340,3.616764,8,16
bet,2,EH,1.584963,2.634265,0.650022,1.541533,2,4
bet,3,T,0.263034,1.074001,0.000000,0.811278,1,2
beck,1,B,1.187627,2.163396,2.816340,3.616764,8,16
beck,2,EH,1.584963,2.634265,0.650022,1.541533,2,4
beck,3,K,2.584963,2.798366,0.000000,0.811278,1,2
bog,1,B,1.187627,2.163396,2.816340,3.616764,8,16
bog,2,AA,2.169925,3.197269,1.000000,1.709196,2,4
bog,3,G,1.000000,1.974465,0.000000,0.811278,1,2
bob,1,B,1.187627,2.163396,2.816340,3.616764,8,16
bob,2,AA,2.169925,3.197269,1.000000,1.709196,2,4
bob,3,B,1.000000,1.932886,0.000000,0.811278,1,2
pat,1,P,0.833990,1.814992,2.772924,3.595056,8,16
pat,2,AE,2.201634,3.104772,0.721928,1.595462,2,4
pat,3,T,0.321928,1.296393,0.000000,0.811278,1,2
pad,1,P,0.833990,1.814992,2.772924,3.595056,8,16
pad,2,AE,2.201634,3.104772,0.721928,1.595462,2,4
pad,3,D,2.321928,3.099536,0.000000,0.811278,1,2
pin,1,P,0.833990,1.814992,2.772924,3.595056,8,16
pin,2,IH,1.938599,2.792620,0.918296,1.729574,2,4
pin,3,N,0.584963,1.362570,0.000000,0.811278,1,2
pid,1,P,0.833990,1.814992,2.772924,3.595056,8,16
pid,2,IH,1.938599,2.792620,0.918296,1.729574,2,4
pid,3,D,1.584963,2.362570,0.000000,0.811278,1,2
pet,1,P,0.833990,1.814992,2.772924,3.595056,8,16
pet,2,EH,2.201634,3.064130,0.970951,1.701997,2,4
pet,3,T,1.321928,2.092194,0.000000,0.811278,1,2
peck,1,P,0.833990,1.814992,2.772924,3.595056,8,16
peck,2,EH,2.201634,3.064130,0.970951,1.701997,2,4
peck,3,K,0.736966,1.523186,0.000000,0.811278,1,2
pog,1,P,0.833990,1.814992,2.772924,3.595056,8,16
pog,2,AA,1.716207,2.595455,0.591673,1.505033,2,4
pog,3,G,0.222392,0.961865,0.000000,0.811278,1,2
pob,1,P,0.833990,1.814992,2.772924,3.595056,8,16
pob,2,AA,1.716207,2.595455,0.591673,1.505033,2,4
pob,3,B,2.807355,3.070389,0.000000,0.811278,1,2
""",
    ("csv", "compare"): """\
kind,position,quantity,n,word,rank,value
correlation,1,surprisal,16,,,1.000000
divergence,1,surprisal,,pad,1,0.981002
divergence,1,surprisal,,pat,2,0.981002
correlation,1,entropy,16,,,1.000000
divergence,1,entropy,,pad,1,0.822132
divergence,1,entropy,,pat,2,0.822132
correlation,2,surprisal,16,,,0.960022
divergence,2,surprisal,,bad,1,1.080618
divergence,2,surprisal,,bat,2,1.080618
correlation,2,entropy,16,,,0.965353
divergence,2,entropy,,pob,1,0.913360
divergence,2,entropy,,pog,2,0.913360
correlation,3,surprisal,16,,,0.944782
divergence,3,surprisal,,bid,1,1.263034
divergence,3,surprisal,,bin,2,1.263034
divergence,3,entropy,,bad,1,0.811278
divergence,3,entropy,,bat,2,0.811278
""",
    ("csv", "trace --all, skip"): """\
word,position,phoneme,switch_surprisal,acoustic_surprisal,switch_entropy,acoustic_entropy,switch_cohort_size,joint_cohort_size
bat,1,B,0.868755,1.856857,2.772924,3.632367,8,17
bat,2,AE,2.201634,3.127633,0.721928,1.595462,2,4
bat,3,T,0.321928,1.296393,0.000000,0.811278,1,2
bad,1,B,0.868755,1.856857,2.772924,3.632367,8,17
bad,2,AE,2.201634,3.127633,0.721928,1.595462,2,4
bad,3,D,2.321928,3.099536,0.000000,0.811278,1,2
bin,1,B,0.868755,1.856857,2.772924,3.632367,8,17
bin,2,IH,1.938599,2.799946,0.918296,1.729574,2,4
bin,3,N,0.584963,1.362570,0.000000,0.811278,1,2
bid,1,B,0.868755,1.856857,2.772924,3.632367,8,17
bid,2,IH,1.938599,2.799946,0.918296,1.729574,2,4
bid,3,D,1.584963,2.362570,0.000000,0.811278,1,2
bet,1,B,0.868755,1.856857,2.772924,3.632367,8,17
bet,2,EH,2.201634,3.093289,0.970951,1.701997,2,4
bet,3,T,1.321928,2.092194,0.000000,0.811278,1,2
beck,1,B,0.868755,1.856857,2.772924,3.632367,8,17
beck,2,EH,2.201634,3.093289,0.970951,1.701997,2,4
beck,3,K,0.736966,1.523186,0.000000,0.811278,1,2
bog,1,B,0.868755,1.856857,2.772924,3.632367,8,17
bog,2,AA,1.716207,2.604756,0.591673,1.505033,2,4
bog,3,G,0.222392,0.961865,0.000000,0.811278,1,2
bob,1,B,0.868755,1.856857,2.772924,3.632367,8,17
bob,2,AA,1.716207,2.604756,0.591673,1.505033,2,4
bob,3,B,2.807355,3.070389,0.000000,0.811278,1,2
pat,1,P,1.144390,2.129999,2.965584,3.728697,9,17
pat,2,AE,1.925999,2.990130,0.970951,1.719973,2,4
pat,3,T,0.736966,1.703018,0.000000,0.811278,1,2
pad,1,P,1.144390,2.129999,2.965584,3.728697,9,17
pad,2,AE,1.925999,2.990130,0.970951,1.719973,2,4
pad,3,D,1.321928,2.206451,0.000000,0.811278,1,2
pin,1,P,1.144390,2.129999,2.965584,3.728697,9,17
pin,2,IH,2.662965,3.591580,0.918296,1.729574,2,4
pin,3,N,0.584963,1.847997,0.000000,0.811278,1,2
pid,1,P,1.144390,2.129999,2.965584,3.728697,9,17
pid,2,IH,2.662965,3.591580,0.918296,1.729574,2,4
pid,3,D,1.584963,2.847997,0.000000,0.811278,1,2
pet,1,P,1.144390,2.129999,2.965584,3.728697,9,17
pet,2,EH,1.662965,2.700027,0.650022,1.541533,2,4
pet,3,T,0.263034,1.074001,0.000000,0.811278,1,2
peck,1,P,1.144390,2.129999,2.965584,3.728697,9,17
peck,2,EH,1.662965,2.700027,0.650022,1.541533,2,4
peck,3,K,2.584963,2.798366,0.000000,0.811278,1,2
pog,1,P,1.144390,2.129999,2.965584,3.728697,9,17
pog,2,AA,2.247928,3.240108,1.000000,1.709196,2,4
pog,3,G,1.000000,1.974465,0.000000,0.811278,1,2
pob,1,P,1.144390,2.129999,2.965584,3.728697,9,17
pob,2,AA,2.247928,3.240108,1.000000,1.709196,2,4
pob,3,B,1.000000,1.932886,0.000000,0.811278,1,2
""",
    ("csv", "compare, skip"): """\
kind,position,quantity,n,word,rank,value
correlation,1,surprisal,16,,,1.000000
divergence,1,surprisal,,bad,1,0.988101
divergence,1,surprisal,,bat,2,0.988101
correlation,1,entropy,16,,,1.000000
divergence,1,entropy,,bad,1,0.859443
divergence,1,entropy,,bat,2,0.859443
correlation,2,surprisal,16,,,0.973935
divergence,2,surprisal,,pad,1,1.064130
divergence,2,surprisal,,pat,2,1.064130
correlation,2,entropy,16,,,0.965353
divergence,2,entropy,,bob,1,0.913360
divergence,2,entropy,,bog,2,0.913360
correlation,3,surprisal,16,,,0.944782
divergence,3,surprisal,,pid,1,1.263034
divergence,3,surprisal,,pin,2,1.263034
divergence,3,entropy,,bad,1,0.811278
divergence,3,entropy,,bat,2,0.811278
""",
    ("csv", "trace --word"): """\
position,phoneme,switch_surprisal,acoustic_surprisal,switch_entropy,acoustic_entropy,switch_cohort_size,joint_cohort_size
1,B,1.187627,2.163396,2.816340,3.616764,8,16
2,AE,1.847997,2.928615,0.970951,1.719973,2,4
3,T,0.736966,1.703018,0.000000,0.811278,1,2
""",
    ("json", "trace --all"): """\
[
  {
    "word": "bat",
    "position": 1,
    "phoneme": "B",
    "switch_surprisal": 1.584963,
    "acoustic_surprisal": 2.36257,
    "switch_entropy": 0.811278,
    "acoustic_entropy": 1.669737,
    "switch_cohort_size": 2,
    "joint_cohort_size": 4
  },
  {
    "word": "bat",
    "position": 2,
    "phoneme": "AE",
    "switch_surprisal": 0.415037,
    "acoustic_surprisal": 1.678072,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "bat",
    "position": 3,
    "phoneme": "T",
    "switch_surprisal": 0.0,
    "acoustic_surprisal": 1.106915,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "bin",
    "position": 1,
    "phoneme": "B",
    "switch_surprisal": 1.584963,
    "acoustic_surprisal": 2.36257,
    "switch_entropy": 0.811278,
    "acoustic_entropy": 1.669737,
    "switch_cohort_size": 2,
    "joint_cohort_size": 4
  },
  {
    "word": "bin",
    "position": 2,
    "phoneme": "IH",
    "switch_surprisal": 2.0,
    "acoustic_surprisal": 2.862496,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "bin",
    "position": 3,
    "phoneme": "N",
    "switch_surprisal": 0.0,
    "acoustic_surprisal": 1.514573,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "pat",
    "position": 1,
    "phoneme": "P",
    "switch_surprisal": 0.584963,
    "acoustic_surprisal": 1.469485,
    "switch_entropy": 1.0,
    "acoustic_entropy": 1.764098,
    "switch_cohort_size": 2,
    "joint_cohort_size": 4
  },
  {
    "word": "pat",
    "position": 2,
    "phoneme": "AE",
    "switch_surprisal": 1.0,
    "acoustic_surprisal": 1.762961,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "pat",
    "position": 3,
    "phoneme": "T",
    "switch_surprisal": 0.0,
    "acoustic_surprisal": 0.900464,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "pin",
    "position": 1,
    "phoneme": "P",
    "switch_surprisal": 0.584963,
    "acoustic_surprisal": 1.469485,
    "switch_entropy": 1.0,
    "acoustic_entropy": 1.764098,
    "switch_cohort_size": 2,
    "joint_cohort_size": 4
  },
  {
    "word": "pin",
    "position": 2,
    "phoneme": "IH",
    "switch_surprisal": 1.0,
    "acoustic_surprisal": 1.678072,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "pin",
    "position": 3,
    "phoneme": "N",
    "switch_surprisal": 0.0,
    "acoustic_surprisal": 0.621488,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  }
]
""",
    ("json", "compare"): """\
[
  {
    "kind": "correlation",
    "position": 1,
    "quantity": "surprisal",
    "n": 4,
    "word": null,
    "rank": null,
    "value": 1.0
  },
  {
    "kind": "divergence",
    "position": 1,
    "quantity": "surprisal",
    "n": null,
    "word": "pat",
    "rank": 1,
    "value": 0.884523
  },
  {
    "kind": "divergence",
    "position": 1,
    "quantity": "surprisal",
    "n": null,
    "word": "pin",
    "rank": 2,
    "value": 0.884523
  },
  {
    "kind": "correlation",
    "position": 1,
    "quantity": "entropy",
    "n": 4,
    "word": null,
    "rank": null,
    "value": 1.0
  },
  {
    "kind": "divergence",
    "position": 1,
    "quantity": "entropy",
    "n": null,
    "word": "bat",
    "rank": 1,
    "value": 0.858459
  },
  {
    "kind": "divergence",
    "position": 1,
    "quantity": "entropy",
    "n": null,
    "word": "bin",
    "rank": 2,
    "value": 0.858459
  },
  {
    "kind": "correlation",
    "position": 2,
    "quantity": "surprisal",
    "n": 4,
    "word": null,
    "rank": null,
    "value": 0.920268
  },
  {
    "kind": "divergence",
    "position": 2,
    "quantity": "surprisal",
    "n": null,
    "word": "bat",
    "rank": 1,
    "value": 1.263034
  },
  {
    "kind": "divergence",
    "position": 2,
    "quantity": "surprisal",
    "n": null,
    "word": "bin",
    "rank": 2,
    "value": 0.862496
  },
  {
    "kind": "divergence",
    "position": 2,
    "quantity": "entropy",
    "n": null,
    "word": "bat",
    "rank": 1,
    "value": 0.811278
  },
  {
    "kind": "divergence",
    "position": 2,
    "quantity": "entropy",
    "n": null,
    "word": "bin",
    "rank": 2,
    "value": 0.811278
  },
  {
    "kind": "divergence",
    "position": 3,
    "quantity": "surprisal",
    "n": null,
    "word": "bin",
    "rank": 1,
    "value": 1.514573
  },
  {
    "kind": "divergence",
    "position": 3,
    "quantity": "surprisal",
    "n": null,
    "word": "bat",
    "rank": 2,
    "value": 1.106915
  },
  {
    "kind": "divergence",
    "position": 3,
    "quantity": "entropy",
    "n": null,
    "word": "bat",
    "rank": 1,
    "value": 0.811278
  },
  {
    "kind": "divergence",
    "position": 3,
    "quantity": "entropy",
    "n": null,
    "word": "bin",
    "rank": 2,
    "value": 0.811278
  }
]
""",
    ("json", "trace --all, skip"): """\
[
  {
    "word": "bat",
    "position": 1,
    "phoneme": "B",
    "switch_surprisal": 0.70044,
    "acoustic_surprisal": 1.639328,
    "switch_entropy": 1.0,
    "acoustic_entropy": 1.904016,
    "switch_cohort_size": 2,
    "joint_cohort_size": 5
  },
  {
    "word": "bat",
    "position": 2,
    "phoneme": "AE",
    "switch_surprisal": 1.0,
    "acoustic_surprisal": 1.843881,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "bat",
    "position": 3,
    "phoneme": "T",
    "switch_surprisal": 0.0,
    "acoustic_surprisal": 0.900464,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "bin",
    "position": 1,
    "phoneme": "B",
    "switch_surprisal": 0.70044,
    "acoustic_surprisal": 1.639328,
    "switch_entropy": 1.0,
    "acoustic_entropy": 1.904016,
    "switch_cohort_size": 2,
    "joint_cohort_size": 5
  },
  {
    "word": "bin",
    "position": 2,
    "phoneme": "IH",
    "switch_surprisal": 1.0,
    "acoustic_surprisal": 1.68966,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "bin",
    "position": 3,
    "phoneme": "N",
    "switch_surprisal": 0.0,
    "acoustic_surprisal": 0.621488,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "pat",
    "position": 1,
    "phoneme": "P",
    "switch_surprisal": 1.378512,
    "acoustic_surprisal": 2.281938,
    "switch_entropy": 1.370951,
    "acoustic_entropy": 2.089491,
    "switch_cohort_size": 3,
    "joint_cohort_size": 5
  },
  {
    "word": "pat",
    "position": 2,
    "phoneme": "AE",
    "switch_surprisal": 0.736966,
    "acoustic_surprisal": 1.91983,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "pat",
    "position": 3,
    "phoneme": "T",
    "switch_surprisal": 0.0,
    "acoustic_surprisal": 1.106915,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "pin",
    "position": 1,
    "phoneme": "P",
    "switch_surprisal": 1.378512,
    "acoustic_surprisal": 2.281938,
    "switch_entropy": 1.370951,
    "acoustic_entropy": 2.089491,
    "switch_cohort_size": 3,
    "joint_cohort_size": 5
  },
  {
    "word": "pin",
    "position": 2,
    "phoneme": "IH",
    "switch_surprisal": 2.321928,
    "acoustic_surprisal": 2.943416,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "word": "pin",
    "position": 3,
    "phoneme": "N",
    "switch_surprisal": 0.0,
    "acoustic_surprisal": 1.514573,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  }
]
""",
    ("json", "compare, skip"): """\
[
  {
    "kind": "correlation",
    "position": 1,
    "quantity": "surprisal",
    "n": 4,
    "word": null,
    "rank": null,
    "value": 1.0
  },
  {
    "kind": "divergence",
    "position": 1,
    "quantity": "surprisal",
    "n": null,
    "word": "bat",
    "rank": 1,
    "value": 0.938888
  },
  {
    "kind": "divergence",
    "position": 1,
    "quantity": "surprisal",
    "n": null,
    "word": "bin",
    "rank": 2,
    "value": 0.938888
  },
  {
    "kind": "correlation",
    "position": 1,
    "quantity": "entropy",
    "n": 4,
    "word": null,
    "rank": null,
    "value": 1.0
  },
  {
    "kind": "divergence",
    "position": 1,
    "quantity": "entropy",
    "n": null,
    "word": "bat",
    "rank": 1,
    "value": 0.904016
  },
  {
    "kind": "divergence",
    "position": 1,
    "quantity": "entropy",
    "n": null,
    "word": "bin",
    "rank": 2,
    "value": 0.904016
  },
  {
    "kind": "correlation",
    "position": 2,
    "quantity": "surprisal",
    "n": 4,
    "word": null,
    "rank": null,
    "value": 0.949023
  },
  {
    "kind": "divergence",
    "position": 2,
    "quantity": "surprisal",
    "n": null,
    "word": "pat",
    "rank": 1,
    "value": 1.182864
  },
  {
    "kind": "divergence",
    "position": 2,
    "quantity": "surprisal",
    "n": null,
    "word": "bat",
    "rank": 2,
    "value": 0.843881
  },
  {
    "kind": "divergence",
    "position": 2,
    "quantity": "entropy",
    "n": null,
    "word": "bat",
    "rank": 1,
    "value": 0.811278
  },
  {
    "kind": "divergence",
    "position": 2,
    "quantity": "entropy",
    "n": null,
    "word": "bin",
    "rank": 2,
    "value": 0.811278
  },
  {
    "kind": "divergence",
    "position": 3,
    "quantity": "surprisal",
    "n": null,
    "word": "pin",
    "rank": 1,
    "value": 1.514573
  },
  {
    "kind": "divergence",
    "position": 3,
    "quantity": "surprisal",
    "n": null,
    "word": "pat",
    "rank": 2,
    "value": 1.106915
  },
  {
    "kind": "divergence",
    "position": 3,
    "quantity": "entropy",
    "n": null,
    "word": "bat",
    "rank": 1,
    "value": 0.811278
  },
  {
    "kind": "divergence",
    "position": 3,
    "quantity": "entropy",
    "n": null,
    "word": "bin",
    "rank": 2,
    "value": 0.811278
  }
]
""",
    ("json", "trace --word"): """\
[
  {
    "position": 1,
    "phoneme": "B",
    "switch_surprisal": 1.584963,
    "acoustic_surprisal": 2.36257,
    "switch_entropy": 0.811278,
    "acoustic_entropy": 1.669737,
    "switch_cohort_size": 2,
    "joint_cohort_size": 4
  },
  {
    "position": 2,
    "phoneme": "AE",
    "switch_surprisal": 0.415037,
    "acoustic_surprisal": 1.678072,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  },
  {
    "position": 3,
    "phoneme": "T",
    "switch_surprisal": 0.0,
    "acoustic_surprisal": 1.106915,
    "switch_entropy": 0.0,
    "acoustic_entropy": 0.811278,
    "switch_cohort_size": 1,
    "joint_cohort_size": 2
  }
]
""",
}


@pytest.mark.parametrize("label", GOLDEN_TRACE_RUNS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_trace_and_compare_output_bytes_are_pinned(capsys, tmp_path, fmt, label):
    with_bug, argv = GOLDEN_TRACE_RUNS[label]
    rows = SIM_ROWS if fmt == "csv" else TOY_B_ROWS
    if with_bug:
        rows = rows + [("bug", "B AH G", 1.0)]
    path = tmp_path / "golden.tsv"
    write_lexicon(make_lexicon(rows), path)
    argv = argv + ["--pair", "B,P", "--lexicon", str(path), "--format", fmt]
    code, out, err = run_cli(capsys, argv)
    expected_err = (GOLDEN_SKIP_ERR if with_bug else "") + (
        GOLDEN_COMPARE_ERR[fmt] if argv[0] == "compare" else ""
    )
    assert (code, err) == (0, expected_err)
    assert out == GOLDEN_TRACE[fmt, label]


def test_seed_belongs_to_simfit_only(capsys, toy_path, sim_path):
    # only simfit draws random numbers; its seed-7 output is pinned above
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["trace", "--lexicon", toy_path, "--all", "--pair", "B,P", "--seed", "1"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, ["simfit", "--lexicon", sim_path, "--subjects", "3",
                                    "--trials", "60", "--sims", "3", "--seed", "8"])
    assert code == 0 and out != GOLDEN_SIMFIT[None, "csv"]


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest-check"],
        ["trace", "--word", "beh2reh2", "--pair", "B,P"],
        ["trace", "--all", "--pair", "B,P"],
        ["compare", "--pair", "B,P"],
        ["pairs", "--min-shared", "1", "--keep-undiverged"],
        ["continuum"],
        ["simfit", "--sims", "3"],
    ],
    ids=["ingest-check", "trace-word", "trace-all", "compare", "pairs", "continuum", "simfit"],
)
def test_csv_and_json_outputs_carry_identical_values(tmp_path, mirrored_path, argv):
    # a JSON null is an empty CSV cell and a JSON boolean is written
    # true/false in CSV; every other value reads back equal
    if argv[0] == "continuum":
        lines = ["item,step,proportion"] + [
            f"{item},{step},{min(1.0, max(0.0, 1.2 - step / 9 - shift)):.3f}"
            for item, shift in (("ba", 0.0), ("da", 0.1), ("ga", 0.2))
            for step in range(1, 12)
        ]
        curve_path = tmp_path / "curves.csv"
        curve_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = argv + ["--in", str(curve_path)]
    else:
        argv = argv + ["--lexicon", mirrored_path]
    csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(csv_path)]) == 0
    assert cli.main(argv + ["--out", str(json_path), "--format", "json"]) == 0
    with open(csv_path, newline="") as handle:
        csv_rows = list(csv.DictReader(handle))
    json_rows = json.loads(json_path.read_text())
    assert len(csv_rows) == len(json_rows) > 0
    for csv_row, json_row in zip(csv_rows, json_rows):
        assert list(csv_row) == list(json_row)
        for field, csv_value in csv_row.items():
            json_value = json_row[field]
            if json_value is None:
                assert csv_value == ""
            elif isinstance(json_value, bool):
                assert csv_value == str(json_value).lower()
            elif isinstance(json_value, float):
                assert float(csv_value) == json_value
            elif isinstance(json_value, int):
                assert int(csv_value) == json_value
            else:
                assert csv_value == json_value


def test_malformed_lexicon_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("#unit: counts\n#inventory: B AE T\nbat\tB AE T\n")
    code, _, err = run_cli(capsys, ["ingest-check", "--lexicon", str(path)])
    assert code == 1
    assert "line" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_bad_smoothing_exits_1_naming_the_flag(capsys, toy_path, value):
    code, out, err = run_cli(
        capsys, ["ingest-check", "--lexicon", toy_path, f"--smoothing={value}"]
    )
    assert code == 1
    assert out == ""
    assert err == f"error: smoothing must be finite and >= 0, got {float(value)}\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ["ingest-check", "--lexicon"],
        ["trace", "--all", "--pair", "B,P", "--lexicon"],
        ["compare", "--pair", "B,P", "--lexicon"],
        ["pairs", "--lexicon"],
        ["simfit", "--lexicon"],
        ["continuum", "--in"],
    ],
    ids=["ingest-check", "trace", "compare", "pairs", "simfit", "continuum"],
)
def test_file_that_is_not_utf8_is_named(capsys, tmp_path, argv):
    # a Latin-1 "é" is not UTF-8; each reader names the file, not a byte offset
    path = tmp_path / "latin1.txt"
    if argv[0] == "continuum":
        text = "item,step,proportion\ncaf\xe9,1,0.9\n"
    else:
        text = "caf\xe9\tK AE F\t1\n"
    path.write_bytes(text.encode("latin-1"))
    code, out, err = run_cli(capsys, argv + [str(path)])
    assert (code, out, err) == (1, "", f"error: {path}: not UTF-8 text\n")


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


PAIR_ERROR = "--pair needs two distinct phonemes like B,P, got {!r}"
BETAS_ERROR = "--betas needs two comma-separated numbers, got {!r}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trace", "--all", "--pair", "B"], PAIR_ERROR.format("B")),
        (["trace", "--word", "bat", "--pair", "B,b"], PAIR_ERROR.format("B,b")),
        (["compare", "--pair", "B,P,T"], PAIR_ERROR.format("B,P,T")),
        (["simfit", "--betas", "1,"], BETAS_ERROR.format("1,")),
        (["simfit", "--betas", "1,x"], BETAS_ERROR.format("1,x")),
        (["simfit", "--betas", "1,2,3"], BETAS_ERROR.format("1,2,3")),
        (["simfit", "--betas", "nan,1"], "--betas must be finite"),
        (["simfit", "--betas", "1,inf"], "--betas must be finite"),
        (["simfit", "--seed", "-1"], "--seed must be >= 0"),
        (["simfit", "--alpha", "1.5"], "--alpha must be in (0, 1)"),
        (["simfit", "--alpha", "nan"], "--alpha must be in (0, 1)"),
    ],
    ids=["trace-all", "trace-word", "compare", "betas-one", "betas-text",
         "betas-three", "betas-nan", "betas-inf", "seed", "alpha-1.5", "alpha-nan"],
)
def test_flags_are_checked_before_the_lexicon_is_read(capsys, tmp_path, argv, message):
    # the lexicon does not exist, so an error naming the flag shows that
    # the flag was checked first
    missing = str(tmp_path / "missing.tsv")
    code, out, err = run_cli(capsys, argv + ["--lexicon", missing])
    assert (code, out, err) == (1, "", f"error: {message}\n")


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


# Petabyte draws: numpy refuses the allocation at once, whatever the
# machine's memory. Row counts past the platform's index range are
# refused before numpy sees them.
@pytest.mark.parametrize(
    "flag, value, error",
    [
        ("--trials", "1000000000000000", "error: Unable to allocate "),
        ("--subjects", "1000000000000000", "error: Unable to allocate "),
        ("--trials", "9223372036854775807", "error: too many rows to draw: 10 subjects x "),
        ("--trials", "9223372036854775808", "error: too many rows to draw: 10 subjects x "),
    ],
    ids=["--trials", "--subjects", "--trials-intp-max", "--trials-past-intp-max"],
)
def test_simfit_too_large_to_allocate_exits_1_with_one_error_line(
    capsys, sim_path, flag, value, error
):
    code, out, err = run_cli(
        capsys, ["simfit", "--lexicon", sim_path, "--sims", "1", flag, value]
    )
    assert code == 1
    assert out == ""
    assert err.startswith(error) and err.count("\n") == 1
    assert "Traceback" not in err


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simfit", "--sims", "0"], "--sims must be >= 1"),
        (["simfit", "--subjects", "1"], "--subjects must be >= 2"),
        (["simfit", "--trials", "0"], "--trials must be >= 1"),
        (["simfit", "--position", "0"], "--position must be >= 1"),
        (["simfit", "--noise=-1"], "--noise must be finite and >= 0"),
        (["simfit", "--noise", "nan"], "--noise must be finite and >= 0"),
        (["simfit", "--subject-sd", "inf"], "--subject-sd must be finite and >= 0"),
        (["pairs", "--min-shared", "0"], "--min-shared must be >= 1"),
    ],
    ids=["sims", "subjects", "trials", "position", "noise", "noise-nan",
         "subject-sd", "min-shared"],
)
def test_range_flags_are_checked_before_the_lexicon_is_read(
    capsys, tmp_path, argv, message
):
    # the lexicon does not exist: the flag's error comes first, and names
    # the flag rather than the library parameter
    missing = str(tmp_path / "missing.tsv")
    code, out, err = run_cli(capsys, argv + ["--lexicon", missing])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_negative_zero_spreads_pass_the_flag_checks(capsys, sim_path):
    argv = ["simfit", "--lexicon", sim_path, "--sims", "1", "--trials", "40",
            "--noise=-0.0", "--subject-sd=-0.0"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0 and out
