import csv
import io
import json

import pytest

from cohortlex import cli, make_lexicon, write_lexicon
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


def test_compare_constant_metric_exits_3(capsys, tmp_path):
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
    code, _, err = run_cli(
        capsys, ["compare", "--lexicon", str(path), "--pair", "B,P"]
    )
    assert code == 3
    assert "constant" in err


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


def test_continuum_degenerate_curve_exits_3(capsys, tmp_path):
    curve_path = tmp_path / "flat.csv"
    write_curve(curve_path, [0.5] * 11)
    code, _, err = run_cli(capsys, ["continuum", "--in", str(curve_path)])
    assert code == 3
    assert "error" in err


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
