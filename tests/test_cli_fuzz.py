"""Property test: every command line ends in a documented exit code.

Arbitrary lexicon text, identification-curve text and flag values go
through `cli.main`; the run must end with exit code 0-3 and put no NaN or
infinity in any numeric output cell. With valid flags, `pairs` CSV must
read back as the reference pair search's pairs.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohortlex import cli, parse_lexicon
from tests import word_pairs_reference as reference

# Phonemes include the voicing-pair onsets, so that trace/compare/simfit
# get past the "no word starts with" checks often enough to matter, and
# two that read as numbers, which must not be mistaken for output values.
PHONEMES = ("B", "P", "D", "T", "G", "K", "AE", "IH", "AA", "N", "S", "nan", "inf")
VOWELS = ("AE", "IH", "AA")
CODAS = ("D", "T", "G", "K", "N", "S")
# Columns whose cells are words or labels rather than numbers.
TEXT_COLUMNS = {
    "word", "word_a", "word_b", "onset_a", "onset_b", "phoneme",
    "frequency_unit", "kind", "quantity", "removed", "detected", "item",
}


def mostly(usual, anything):
    """`usual` about three draws in four, else `anything`: arbitrary values
    still come up, but most runs get past input validation."""
    return st.sampled_from([usual, usual, usual, anything]).flatmap(lambda s: s)


numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1e-320, 0.25, 0.75, 1.0, 1e150, 1e200, 1e308]),
    st.integers(-3, 1_000),
)
frequency_text = st.one_of(
    numbers.map(str),
    st.sampled_from(["", "x", "1e999", "-inf", "nan", "1_0", " 3 "]),
)
# Commas and quotes in words must not shift the CSV columns.
orthography = st.text(alphabet='bcdgkptuy,"', min_size=1, max_size=5)
pronunciation = st.lists(st.sampled_from(PHONEMES), min_size=1, max_size=6).map(" ".join)
valid_line = st.builds(
    lambda o, p, f: f"{o}\t{p}\t{f}", orthography, pronunciation, st.integers(1, 1_000)
)
dirty_line = st.builds(
    lambda o, p, f: f"{o}\t{p}\t{f}",
    orthography | st.sampled_from(["", " ", "b\tp"]),
    pronunciation | st.just(""),
    frequency_text,
)
header_lines = st.lists(
    st.sampled_from([
        "#unit: counts", "#unit: per-million", "#unit: zipf",
        "#inventory: B P D T G K AE IH AA N S nan inf", "#inventory: B P", "#",
    ]),
    max_size=2,
)
# A lexicon of well-formed rows, sometimes with a header and sometimes
# with one arbitrary row among them.
structured_lexicon = st.builds(
    lambda head, body, dirty, at: "\n".join(head + body[:at] + dirty + body[at:]) + "\n",
    mostly(st.just([]), header_lines),
    st.lists(valid_line, min_size=1, max_size=10),
    mostly(st.just([]), st.lists(dirty_line, min_size=1, max_size=1)),
    st.integers(0, 10),
)
# Every continuation under both B and P onsets, as in the simulation
# fixtures, so that simfit gets traces at both ambiguity levels.
mirrored_lexicon = st.lists(
    st.tuples(
        st.builds(
            lambda vowel, codas: " ".join((vowel, *codas)),
            st.sampled_from(VOWELS),
            st.lists(st.sampled_from(CODAS), min_size=1, max_size=2),
        ),
        st.integers(1, 1_000),
        st.integers(1, 1_000),
        orthography,
    ),
    min_size=2,
    max_size=12,
    unique_by=lambda row: row[0],
).map(lambda rows: "".join(
    f"b{word}{i}\tB {tail}\t{fb}\np{word}{i}\tP {tail}\t{fp}\n"
    for i, (tail, fb, fp, word) in enumerate(rows)
))
# Every continuation under both B and P onsets, spelled from a few short
# words with commas and quotes, so that homographs (one spelling under
# both onsets, or under two continuations) come up in most draws.
homograph_spelling = st.text(alphabet='bp,"', min_size=1, max_size=2)
mirrored_homograph_lexicon = st.lists(
    st.tuples(
        st.builds(
            lambda vowel, codas: " ".join((vowel, *codas)),
            st.sampled_from(VOWELS),
            st.lists(st.sampled_from(CODAS), min_size=1, max_size=3),
        ),
        homograph_spelling,
        homograph_spelling,
    ),
    min_size=2,
    max_size=12,
    unique_by=lambda row: row[0],
).map(lambda rows: "".join(
    f"{b}\tB {tail}\t1\n{p}\tP {tail}\t1\n" for tail, b, p in rows
))
raw_lexicon = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80
)
lexicon_text = mostly(structured_lexicon | mirrored_lexicon, raw_lexicon)

flag_value = numbers.map(str)


def flag(name, value):
    # --name=value, so that values such as "-inf" are not read as options
    return f"--{name}={value}"


def mostly_flag(usual):
    return mostly(st.sampled_from(usual), flag_value)


pair = st.sampled_from(["B,P", "D,T", "G,K", "P,B", "B,B", "X,Y", "B"])
p_a = mostly_flag(["0", "0.25", "0.75", "1"])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(["ingest-check", "trace", "compare", "pairs", "simfit"]))
    argv = [command, flag("smoothing", draw(mostly_flag(["0", "0.5"])))]
    if command == "trace":
        if draw(st.booleans()):
            argv += ["--all"]
        else:
            argv += [flag("word", draw(orthography))]
        argv += [flag("pair", draw(pair)), flag("p-a", draw(p_a))]
    elif command == "compare":
        argv += [flag("pair", draw(pair)), flag("p-a", draw(p_a)),
                 flag("top-k", draw(st.integers(-2, 4)))]
    elif command == "pairs":
        argv += [flag("min-shared", draw(st.integers(-2, 4)))]
        if draw(st.booleans()):
            argv += ["--keep-undiverged"]
    elif command == "simfit":
        argv += [
            "--sims=1",
            flag("generator", draw(st.sampled_from(["acoustic", "switch"]))),
            flag("betas", f"{draw(mostly_flag(['1', '0']))},{draw(mostly_flag(['1', '-2']))}"),
            flag("noise", draw(mostly_flag(["0.5", "0"]))),
            flag("subject-sd", draw(mostly_flag(["1", "0"]))),
            flag("trials", draw(mostly(st.integers(20, 60), st.integers(-1, 19)))),
            flag("subjects", draw(mostly(st.integers(2, 4), st.integers(-1, 1)))),
            flag("position", draw(mostly(st.just(2), st.integers(-1, 5)))),
        ]
    fmt = draw(st.sampled_from(["csv", "json"]))
    return argv + [flag("format", fmt)], fmt


# Identification curves: 11 proportions in [0, 1] (sorted descending
# half the time), steps 1..11 in any order. About one curve in four is
# damaged: one cell replaced by arbitrary text, one row cut short, or one
# row dropped. Several items, or arbitrary text in place of the CSV, come
# up as well.
odd_cell = st.one_of(
    numbers.map(str), st.sampled_from(["", "x", "0.5.0", " 0.5 ", "0", "12", "1.5"])
)


@st.composite
def curve_rows(draw, item):
    """The CSV rows of one item."""
    proportions = draw(st.lists(st.floats(0.0, 1.0), min_size=11, max_size=11))
    if draw(st.booleans()):
        proportions.sort(reverse=True)
    rows = [
        ([] if item is None else [item]) + [str(step), repr(proportion)]
        for step, proportion in zip(
            draw(st.permutations(range(1, 12))), proportions
        )
    ]
    damage = draw(mostly(st.just(None), st.sampled_from(["cell", "short", "drop"])))
    row = draw(st.integers(0, 10))
    if damage == "cell":
        rows[row][draw(st.integers(-2, -1))] = draw(odd_cell)
    elif damage == "short":
        rows[row] = rows[row][:-1]
    elif damage == "drop":
        del rows[row]
    return rows


@st.composite
def structured_curves(draw):
    items = draw(mostly(st.just([None]), st.lists(
        st.text(alphabet="abxyz", min_size=1, max_size=3),
        min_size=1, max_size=3, unique=True,
    )))
    rows = [row for item in items for row in draw(curve_rows(item))]
    header = ["step", "proportion"] if items == [None] else ["item", "step", "proportion"]
    return "\n".join(",".join(cells) for cells in [header] + rows) + "\n"


curve_text = mostly(
    structured_curves(),
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=80),
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def numeric_cells(text, fmt):
    if not text:
        return
    if fmt == "json":
        records = json.loads(text)
    else:
        records = list(csv.DictReader(io.StringIO(text)))
        # a row with more cells than the header keeps the rest under None
        assert all(None not in record for record in records), text
    for record in records:
        for field, value in record.items():
            if field in TEXT_COLUMNS or value in (None, ""):
                continue
            yield field, value


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(lexicon=lexicon_text, command=command_lines())
def test_cli_ends_in_documented_exit_with_finite_output(lexicon, command):
    argv, fmt = command
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lexicon.tsv"
        path.write_text(lexicon, encoding="utf-8")
        code, out, err = run_main(argv + ["--lexicon", str(path)])
    assert code in (0, 1, 2, 3), (code, err)
    if code != 0:
        assert out == ""
    for field, value in numeric_cells(out, fmt):
        assert math.isfinite(float(value)), (field, value, argv)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    curves=curve_text,
    mode=st.sampled_from(["raw", "fitted"]),
    fmt=st.sampled_from(["csv", "json"]),
)
def test_continuum_ends_in_documented_exit_with_finite_output(curves, mode, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "curves.csv"
        path.write_text(curves, encoding="utf-8")
        code, out, err = run_main(
            ["continuum", "--in", str(path), flag("mode", mode), flag("format", fmt)]
        )
    assert code in (0, 1, 2, 3), (code, err)
    if code != 0:
        assert out == ""
    for field, value in numeric_cells(out, fmt):
        assert math.isfinite(float(value)), (field, value, curves)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    lexicon=mirrored_lexicon,
    command=st.sampled_from(
        [["trace", "--all", "--pair=B,P"], ["compare", "--pair=B,P"], ["pairs"]]
    ),
)
def test_csv_words_with_commas_and_quotes_keep_their_columns(lexicon, command):
    # mirrored lexicons always trace and pair, so every run prints words
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lexicon.tsv"
        path.write_text(lexicon, encoding="utf-8")
        code, out, err = run_main(command + ["--lexicon", str(path)])
    assert code == 0, err
    for field, value in numeric_cells(out, "csv"):
        assert math.isfinite(float(value)), (field, value, command)


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    lexicon=mirrored_homograph_lexicon,
    min_shared=st.integers(1, 3),
    keep_undiverged=st.booleans(),
)
def test_pairs_csv_reads_back_as_the_reference_pairs(lexicon, min_shared, keep_undiverged):
    # valid flags only, so every run prints its pairs
    argv = ["pairs", flag("min-shared", min_shared)]
    if keep_undiverged:
        argv.append("--keep-undiverged")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lexicon.tsv"
        path.write_text(lexicon, encoding="utf-8")
        code, out, err = run_main(argv + ["--lexicon", str(path)])
        expected = reference.find_word_pairs(
            parse_lexicon(path), min_shared, require_divergence=not keep_undiverged
        )
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "word_a", "word_b", "onset_a", "onset_b", "shared_len", "divergence_point",
    ]
    assert rows[1:] == [
        [
            pair.word_a,
            pair.word_b,
            pair.onset_a,
            pair.onset_b,
            str(pair.shared_len),
            "" if pair.divergence_point is None else str(pair.divergence_point),
        ]
        for pair in expected
    ]
