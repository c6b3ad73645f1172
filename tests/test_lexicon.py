import copy
import dataclasses
import math
import pickle
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cohortlex import (
    Lexicon,
    LexiconEntry,
    LexiconError,
    LexiconParseError,
    LexiconValidationError,
    PLOSIVE_VOICING_PAIRS,
    build_trie,
    find_word_pairs,
    make_lexicon,
    parse_lexicon,
    switch_entropy,
    write_lexicon,
)
from tests import lexicon_reference as reference
from tests.conftest import generated_rows

TOY_TSV = "bat\tB AE T\t3\nban\tB AE N\t1\npat\tP AE T\t4\n"


def write(tmp_path, text, name="lex.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_readback(tmp_path):
    lex = parse_lexicon(write(tmp_path, TOY_TSV))
    assert len(lex) == 3
    assert lex.inventory == {"B", "AE", "T", "N", "P"}
    assert [e.orthography for e in lex.entries] == ["bat", "ban", "pat"]
    assert lex.entries[0].pron == ("B", "AE", "T")
    assert lex.entries[0].frequency == 3.0
    assert lex.frequency_unit == "counts"


def test_parse_without_trailing_newline(tmp_path):
    lex = parse_lexicon(write(tmp_path, TOY_TSV.rstrip("\n")))
    assert len(lex) == 3


def test_empty_file_is_rejected(tmp_path):
    with pytest.raises(LexiconValidationError, match="empty lexicon"):
        parse_lexicon(write(tmp_path, "# just a comment\n"))


def test_zero_frequency_rejected_with_line_number(tmp_path):
    path = write(tmp_path, "bat\tB AE T\t0\n")
    with pytest.raises(LexiconValidationError, match="line 1"):
        parse_lexicon(path)
    path = write(tmp_path, "bat\tB AE T\t3\nbin\t \t1\n")
    with pytest.raises(LexiconValidationError, match="line 2: 'bin': empty pronunciation"):
        parse_lexicon(path)


@pytest.mark.parametrize("freq", ["inf", "nan", "1e309"])
def test_non_finite_frequency_rejected_with_line_number(tmp_path, freq):
    path = write(tmp_path, f"bat\tB AE T\t3\npat\tP AE T\t{freq}\n")
    with pytest.raises(LexiconValidationError, match="line 2: 'pat': .*finite"):
        parse_lexicon(path)


@pytest.mark.parametrize("orthography", ["", "  "])
def test_blank_orthography_rejected_with_line_number(tmp_path, orthography):
    path = write(tmp_path, f"{orthography}\tB AE T\t3\n")
    with pytest.raises(LexiconValidationError, match="line 1: .*empty orthography"):
        parse_lexicon(path)


def test_overflowing_total_frequency_rejected(tmp_path):
    path = write(tmp_path, "bat\tB AE T\t1e308\npat\tP AE T\t1e308\n")
    with pytest.raises(LexiconValidationError, match="overflows"):
        parse_lexicon(path)


def test_negative_frequency_rejected_even_with_smoothing(tmp_path):
    path = write(tmp_path, "bat\tB AE T\t-2\n")
    with pytest.raises(LexiconValidationError, match="negative"):
        parse_lexicon(path, smoothing=5.0)


def test_non_numeric_frequency_rejected(tmp_path):
    path = write(tmp_path, "bat\tB AE T\tmany\n")
    with pytest.raises(LexiconValidationError, match="non-numeric"):
        parse_lexicon(path)


def test_wrong_column_count_is_parse_error_with_line_number(tmp_path):
    path = write(tmp_path, "bat\tB AE T\t3\nban B AE N 1\n")
    with pytest.raises(LexiconParseError, match="line 2"):
        parse_lexicon(path)


def test_duplicate_orthography_pron_rejected(tmp_path):
    path = write(tmp_path, "bat\tB AE T\t3\nbat\tB AE T\t5\n")
    with pytest.raises(LexiconValidationError, match="duplicate"):
        parse_lexicon(path)


def test_duplicate_entry_error_names_its_line(tmp_path):
    path = write(tmp_path, "bat\tB AE T\t3\n# note\n\nbin\tB IH N\t1\nbat\tB AE T\t5\n")
    with pytest.raises(
        LexiconValidationError, match=r"^line 5: duplicate entry 'bat' /B AE T/$"
    ):
        parse_lexicon(path)
    # A row's own fields are checked while the file is read, duplicates
    # after it, so a later empty pronunciation is reported first.
    path = write(tmp_path, "bat\tB AE T\t3\nbat\tB AE T\t5\nbin\t \t1\n")
    with pytest.raises(LexiconValidationError, match="^line 3: 'bin': empty pronunciation$"):
        parse_lexicon(path)


def test_homophones_are_distinct_entries(tmp_path):
    path = write(tmp_path, "bear\tB EH R\t3\nbare\tB EH R\t5\n")
    lex = parse_lexicon(path)
    assert len(lex) == 2
    assert lex.total_frequency == 8.0


def test_homographs_are_distinct_entries(tmp_path):
    path = write(tmp_path, "read\tR IY D\t3\nread\tR EH D\t5\n")
    lex = parse_lexicon(path)
    assert len(lex.lookup("read")) == 2


def test_unit_header(tmp_path):
    path = write(tmp_path, "#unit: per-million\nbat\tB AE T\t3.5\n")
    assert parse_lexicon(path).frequency_unit == "per-million"


def test_byte_order_mark_is_ignored(tmp_path):
    path = tmp_path / "bom.tsv"
    path.write_text(TOY_TSV, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    assert parse_lexicon(path) == parse_lexicon(write(tmp_path, TOY_TSV))
    path.write_text("#unit: per-million\n" + TOY_TSV, encoding="utf-8-sig")
    assert parse_lexicon(path).frequency_unit == "per-million"


def test_unknown_unit_rejected(tmp_path):
    path = write(tmp_path, "#unit: logfreq\nbat\tB AE T\t3\n")
    with pytest.raises(LexiconParseError, match="unknown frequency unit"):
        parse_lexicon(path)


def test_declared_inventory_is_enforced(tmp_path):
    path = write(tmp_path, "#inventory: B AE\nbat\tB AE T\t3\n")
    with pytest.raises(LexiconValidationError, match="outside the inventory"):
        parse_lexicon(path)


def test_inventory_error_names_its_line(tmp_path):
    path = write(tmp_path, "#inventory: B AE T\nbat\tB AE T\t3\nbin\tB IH N\t1\n")
    with pytest.raises(
        LexiconValidationError,
        match=r"^line 3: 'bin' uses phonemes outside the inventory: \['IH', 'N'\]$",
    ):
        parse_lexicon(path)


def test_declared_inventory_may_exceed_observed(tmp_path):
    path = write(tmp_path, "#inventory: B AE T ZH\nbat\tB AE T\t3\n")
    assert "ZH" in parse_lexicon(path).inventory


def test_phonemes_normalized_to_upper(tmp_path):
    lex = parse_lexicon(write(tmp_path, "bat\tb ae t\t3\n"))
    assert lex.entries[0].pron == ("B", "AE", "T")


def test_smoothing_adds_lambda_everywhere(tmp_path):
    path = write(tmp_path, "bat\tB AE T\t0\nban\tB AE N\t2\n")
    lex = parse_lexicon(path, smoothing=0.5)
    assert [e.frequency for e in lex.entries] == [0.5, 2.5]


def test_negative_smoothing_rejected(tmp_path):
    with pytest.raises(ValueError, match=r"^smoothing must be finite and >= 0, got -1.0$"):
        parse_lexicon(write(tmp_path, TOY_TSV), smoothing=-1.0)


@pytest.mark.parametrize("smoothing", [math.nan, math.inf, -math.inf])
def test_non_finite_smoothing_rejected_before_any_row(tmp_path, smoothing):
    with pytest.raises(ValueError) as caught:
        parse_lexicon(write(tmp_path, TOY_TSV), smoothing=smoothing)
    assert type(caught.value) is ValueError
    assert str(caught.value) == f"smoothing must be finite and >= 0, got {smoothing}"


def test_blank_lines_skipped(tmp_path):
    lex = parse_lexicon(write(tmp_path, "\nbat\tB AE T\t3\n\n  \npat\tP AE T\t4\n"))
    assert len(lex) == 2


def test_voicing_pairs_exact():
    assert PLOSIVE_VOICING_PAIRS == (("B", "P"), ("D", "T"), ("G", "K"))
    assert ("B", "P") in PLOSIVE_VOICING_PAIRS
    assert ("M", "N") not in PLOSIVE_VOICING_PAIRS


def test_round_trip(tmp_path):
    original = parse_lexicon(write(tmp_path, "#unit: per-million\n" + TOY_TSV))
    out = tmp_path / "roundtrip.tsv"
    write_lexicon(original, out)
    again = parse_lexicon(out)
    assert again == original


def test_round_trip_preserves_non_integer_frequencies(tmp_path):
    lex = make_lexicon([("bat", "B AE T", 0.1 + 0.2)])
    out = tmp_path / "exact.tsv"
    write_lexicon(lex, out)
    assert parse_lexicon(out).entries[0].frequency == 0.1 + 0.2


def test_total_frequency_matches_independent_text_scan(tmp_path):
    path = write(tmp_path, TOY_TSV)
    lex = parse_lexicon(path)
    scanned = sum(
        float(line.split("\t")[2])
        for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    )
    assert math.isclose(lex.total_frequency, scanned, rel_tol=0, abs_tol=0)


def test_entry_invariants():
    with pytest.raises(LexiconValidationError, match="empty pronunciation"):
        LexiconEntry("bad", (), 1.0)
    with pytest.raises(LexiconValidationError, match="> 0"):
        LexiconEntry("bad", ("B",), 0.0)
    assert LexiconEntry("bat", ("B", "AE", "T"), 3.0).onset == "B"


def test_lexicon_rejects_pron_outside_inventory():
    entry = LexiconEntry("bat", ("B", "AE", "T"), 3.0)
    with pytest.raises(LexiconValidationError, match="outside the inventory"):
        Lexicon((entry,), frozenset({"B", "AE"}))


def test_lexicon_index_and_total_are_not_constructor_parameters():
    entry = LexiconEntry("bat", ("B", "AE", "T"), 3.0)
    with pytest.raises(TypeError):
        Lexicon((entry,), frozenset(entry.pron), "counts", {}, 99.0)
    with pytest.raises(TypeError):
        Lexicon((entry,), frozenset(entry.pron), _total_frequency=99.0)
    assert Lexicon((entry,), frozenset(entry.pron)).total_frequency == 3.0


def test_entry_copies_pickles_and_replaces():
    entry = LexiconEntry("bat", ("B", "AE", "T"), 3.0)
    assert copy.copy(entry) == entry
    assert copy.deepcopy(entry) == entry
    assert pickle.loads(pickle.dumps(entry)) == entry
    assert dataclasses.replace(entry, frequency=5.0) == LexiconEntry(
        "bat", ("B", "AE", "T"), 5.0
    )
    with pytest.raises(LexiconValidationError, match="> 0"):
        dataclasses.replace(entry, frequency=0.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.frequency = 1.0


def test_lexicon_errors_keep_entry_order():
    bat = LexiconEntry("bat", ("B", "AE", "T"), 3.0)
    zoo = LexiconEntry("zoo", ("Z", "UW"), 1.0)
    inventory = frozenset({"B", "AE", "T"})
    outside = r"^'zoo' uses phonemes outside the inventory: \['UW', 'Z'\]$"
    with pytest.raises(LexiconValidationError, match=outside):
        Lexicon((bat, zoo, bat), inventory)
    with pytest.raises(LexiconValidationError, match="^duplicate entry 'bat' /B AE T/$"):
        Lexicon((bat, bat, zoo), inventory)


def test_upper_casing_never_creates_or_removes_whitespace():
    # Pronunciations are upper-cased before they are split; that equals
    # splitting first only if no code point changes whitespace-ness.
    for code in range(sys.maxunicode + 1):
        char = chr(code)
        want = [] if char.isspace() else [char.upper()]
        assert char.upper().split() == want, hex(code)


def test_lookup_missing_word_returns_empty():
    lex = make_lexicon([("bat", "B AE T", 3.0)])
    assert lex.lookup("zzz") == ()


def test_errors_share_a_base_class(tmp_path):
    with pytest.raises(LexiconError):
        parse_lexicon(write(tmp_path, "bat only\n"))


# Columnar parse against the entry-based reference parse.

# Upper- and lower-case spellings of a few phonemes, so that duplicates
# and homophones come up, some only after upper-casing.
PHONEME_TOKENS = ("B", "P", "AE", "T", "IH", "b", "ae", "t")
pronunciations = st.lists(st.sampled_from(PHONEME_TOKENS), min_size=1, max_size=3).map(" ".join)
valid_row_lines = st.builds(
    lambda o, p, f: f"{o}\t{p}\t{f!r}",
    st.text(alphabet="bpa", min_size=1, max_size=3),
    pronunciations,
    st.floats(1e-3, 1e6),
)
# Zero, negative, non-finite and non-numeric frequencies, and two that
# pass.
frequency_texts = st.sampled_from(["0", "-1", "-0.5", "nan", "inf", "-inf", "x", "", "2", "3.5"])
row_lines = st.builds(
    lambda o, p, f: f"{o}\t{p}\t{f}",
    st.sampled_from(["ba", "pa", "Ba", " ", ""]),
    pronunciations | st.just(""),
    frequency_texts,
)
header_lines = st.sampled_from([
    "#unit: counts", "#unit: per-million", "#inventory: B P AE T IH",
    "#INVENTORY: b p ae t", "# note", "", "  ",
])
other_lines = header_lines | st.sampled_from([
    "#", "#unit: zipf", "ba\tB AE", "ba\tB AE\t3\textra", "ba B AE 3",
])
# One line breaking each rule checked while the file is read.
broken_lines = st.sampled_from([
    "ba\tB AE", "ba\tB AE\t3\textra", "ba B AE 3", "ba\tB AE\tmany", "ba\tB AE\t",
    "ba\tB AE\t-1", "ba\tB AE\t0", "ba\tB AE\tnan", "ba\tB AE\tinf", " \tB AE\t2",
    "\tB AE\t2", "ba\t \t2", "#unit: zipf",
])
FILE_KINDS = ("valid", "broken lines", "arbitrary lines", "duplicate", "overflow")


@st.composite
def lexicon_files(draw):
    """Up to two header lines, then valid rows (in about half the files at
    least 8, enough for a pairwise sum to differ from a sequential one),
    then by the file's kind nothing more, or inserted among them:
    - broken lines: one or two lines, each breaking a rule checked while
      the file is read;
    - arbitrary lines: one to three rows, header, comment or blank lines;
    - duplicate: a copy of an earlier line, and the one row using ZH
      under an inventory without ZH, so that a phoneme outside the
      inventory comes before or after the duplicate;
    - overflow: two rows whose frequencies sum past the float maximum.
    """
    lines = draw(st.lists(header_lines, max_size=2))
    lines += draw(
        st.lists(valid_row_lines, max_size=4) | st.lists(valid_row_lines, min_size=8, max_size=30)
    )
    kind = draw(st.sampled_from(FILE_KINDS))
    extras = []
    if kind == "broken lines":
        extras = draw(st.lists(broken_lines, min_size=1, max_size=2))
    elif kind == "arbitrary lines":
        extras = draw(st.lists(row_lines | other_lines, min_size=1, max_size=3))
    elif kind == "duplicate":
        extras = [None, "zha\tZH AE\t2"]
        lines.insert(0, "#inventory: B P AE T IH")
    elif kind == "overflow":
        extras = ["big\tB\t1e308", "bog\tB\t1.5e308"]
    for line in extras:
        at = draw(st.integers(0, len(lines)))
        if line is None:  # a copy of an earlier line
            line = lines[draw(st.integers(0, at - 1))] if at else ""
        lines.insert(at, line)
    return "\n".join(lines) + "\n"


def _parse_outcome(parse, path, smoothing):
    try:
        return parse(path, smoothing), None
    except Exception as exc:  # the outcomes compared include the error
        return None, exc


# Every rule and ordering is in the drawn files; these pin the ones a
# rule-order or summation mistake would change.
ORDERING_EXAMPLES = (
    # A duplicate, then a phoneme outside the inventory: the duplicate.
    "#inventory: B AE T\nba\tB AE\t1\nba\tb ae\t2\nzha\tZH AE\t2\n",
    # The other way round: the phoneme.
    "#inventory: B AE T\nzha\tZH AE\t2\nba\tB AE\t1\nba\tB AE\t2\n",
    # A duplicate, then two broken rows: the first broken row.
    "ba\tB AE\t3\nba\tB AE\t5\n\n# note\nbi\t \t1\npa\tP\tnan\n",
    # Frequencies sqrt(1..10), whose pairwise sum differs in the last bit.
    "".join(f"w{i}\tB AE\t{math.sqrt(i)!r}\n" for i in range(1, 11)),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(text=lexicon_files(), smoothing=st.sampled_from([0.0, 0.0, 0.5, 1.0]))
@example(text=ORDERING_EXAMPLES[0], smoothing=0.0)
@example(text=ORDERING_EXAMPLES[1], smoothing=0.0)
@example(text=ORDERING_EXAMPLES[2], smoothing=0.0)
@example(text=ORDERING_EXAMPLES[3], smoothing=0.0)
def test_columnar_parse_matches_entry_reference(text, smoothing):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lexicon.tsv"
        path.write_text(text, encoding="utf-8")
        got, got_error = _parse_outcome(parse_lexicon, path, smoothing)
        want, want_error = _parse_outcome(reference.parse_lexicon, path, smoothing)
    if want_error is not None:
        assert got_error is not None, text
        assert (type(got_error), str(got_error)) == (type(want_error), str(want_error))
        return
    assert got_error is None, (text, got_error)
    assert got.entries == want.entries
    assert got.inventory == want.inventory
    assert got.frequency_unit == want.frequency_unit
    assert got.total_frequency.hex() == want.total_frequency.hex()
    assert Lexicon(want.entries, want.inventory, want.frequency_unit) == got
    for orthography in {e.orthography for e in want.entries}:
        assert got.lookup(orthography) == tuple(
            e for e in want.entries if e.orthography == orthography
        )


# Parsing, the trie, the pair search and writing build no entry objects.


def test_hot_paths_build_no_entries(tmp_path, monkeypatch):
    toy = write(tmp_path, TOY_TSV, "toy.tsv")
    generated = write(tmp_path, "#unit: counts\n" + "\n".join(generated_rows(7, 2_000)) + "\n")

    def refuse(entry):
        raise AssertionError(f"built an entry for {entry.orthography!r}")

    monkeypatch.setattr(LexiconEntry, "__post_init__", refuse)
    with pytest.raises(AssertionError, match="built an entry"):
        LexiconEntry("bat", ("B", "AE", "T"), 3.0)
    for path in (toy, generated):
        lex = parse_lexicon(path)
        trie = build_trie(lex)
        for index in range(0, len(lex), 7):
            codes = lex.codes[lex.offsets[index]:lex.offsets[index + 1]].tolist()
            pron = tuple(lex.phonemes[code] for code in codes)
            for end in range(len(pron) + 1):
                assert trie.prefix_frequency(pron[:end]) > 0
                assert trie.cohort_size(pron[:end]) >= 1
                assert switch_entropy(trie, pron[:end]) >= 0
        find_word_pairs(lex, 1, require_divergence=False)
        write_lexicon(lex, tmp_path / "out.tsv")
        assert parse_lexicon(tmp_path / "out.tsv") == lex


def test_lexicon_copies_pickles_and_stays_read_only():
    lex = make_lexicon([("bat", "B AE T", 3.0), ("bat", "B AA T", 0.1), ("pat", "P AE T", 2.0)])
    for other in (copy.copy(lex), copy.deepcopy(lex), pickle.loads(pickle.dumps(lex))):
        assert other == lex and hash(other) == hash(lex)
        assert other.lookup("bat") == lex.lookup("bat")
        for column in (other.codes, other.offsets, other.frequencies):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
    with pytest.raises(AttributeError, match="immutable"):
        lex.frequency_unit = "per-million"
    with pytest.raises(AttributeError, match="cannot delete field 'codes'"):
        del lex.codes
    assert lex != make_lexicon([("bat", "B AE T", 3.0)])
    assert lex != "lexicon" and lex.__eq__(lex.orthographies) is NotImplemented
    assert repr(lex) == "Lexicon(3 entries, 5 phonemes, 'counts')"


def test_more_phonemes_than_int16_codes_hold(tmp_path):
    rows = [(f"w{i}", f"P{i} AA", 1.0) for i in range(40_000)]
    lex = make_lexicon(rows)
    assert lex.codes.dtype == np.int32 and len(lex.phonemes) == 40_001
    assert lex.lookup("w39999")[0].pron == ("P39999", "AA")
    assert build_trie(lex).cohort_size(("P39999",)) == 1
    write_lexicon(lex, tmp_path / "wide.tsv")
    assert parse_lexicon(tmp_path / "wide.tsv") == lex
