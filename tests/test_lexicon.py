import copy
import dataclasses
import math
import pickle
import sys

import pytest

from cohortlex import (
    Lexicon,
    LexiconEntry,
    LexiconError,
    LexiconParseError,
    LexiconValidationError,
    PLOSIVE_VOICING_PAIRS,
    make_lexicon,
    parse_lexicon,
    write_lexicon,
)

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
    with pytest.raises(ValueError, match="smoothing"):
        parse_lexicon(write(tmp_path, TOY_TSV), smoothing=-1.0)


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
