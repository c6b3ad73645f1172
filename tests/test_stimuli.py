import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohortlex import (
    WordPair, cli, divergence_point, find_word_pairs, make_lexicon, write_lexicon,
)
from tests import records_reference
from tests import word_pairs_reference as reference

LONG_OVERLAP_ROWS = [
    ("balance", "B AE L AH N S", 10.0),
    ("palate", "P AE L AH T", 4.0),
    ("bin", "B IH N", 2.0),
    ("mat", "M AE T", 7.0),
]


def test_shared_three_phoneme_pair_found():
    lexicon = make_lexicon(LONG_OVERLAP_ROWS)
    pairs = find_word_pairs(lexicon, min_shared=3)
    assert len(pairs) == 1
    pair = pairs[0]
    assert pair.word_a == "balance"  # voiced member first
    assert pair.word_b == "palate"
    assert (pair.onset_a, pair.onset_b) == ("B", "P")
    (entry_a,) = lexicon.lookup(pair.word_a)
    (entry_b,) = lexicon.lookup(pair.word_b)
    assert entry_a.pron[1:4] == ("AE", "L", "AH") == entry_b.pron[1:4]
    assert pair.shared_len == 3
    assert pair.divergence_point == 5


def test_single_onset_lexicon_has_no_pairs():
    lex = make_lexicon([("bat", "B AE T", 3.0), ("ban", "B AE N", 1.0)])
    assert find_word_pairs(lex, min_shared=1) == []


def test_full_post_onset_match_needs_divergence_flag():
    lex = make_lexicon([("bat", "B AE T", 3.0), ("pat", "P AE T", 4.0)])
    assert find_word_pairs(lex, min_shared=2) == []
    pairs = find_word_pairs(lex, min_shared=2, require_divergence=False)
    assert len(pairs) == 1
    assert pairs[0].divergence_point is None
    assert pairs[0].shared_len == 2


def test_prefix_embedding_counts_as_no_divergence():
    lex = make_lexicon([("bat", "B AE T", 3.0), ("pats", "P AE T S", 4.0)])
    assert find_word_pairs(lex, min_shared=2) == []
    pairs = find_word_pairs(lex, min_shared=2, require_divergence=False)
    assert pairs[0].divergence_point is None
    # shared through the shorter pronunciation
    assert pairs[0].shared_len == 2


def test_divergence_point_long_overlap_pair():
    assert divergence_point(
        ("P", "AE", "L", "AH", "T"), ("B", "AE", "L", "AH", "N", "S")
    ) == 5


def test_divergence_point_identical_prons():
    assert divergence_point(("B", "AE", "T"), ("B", "AE", "T")) is None


def test_divergence_point_immediate():
    assert divergence_point(("B", "AE"), ("P", "IH")) == 2


def test_divergence_point_requires_length_two():
    with pytest.raises(ValueError):
        divergence_point(("B",), ("P", "AE"))


def test_min_shared_validation():
    lex = make_lexicon(LONG_OVERLAP_ROWS)
    with pytest.raises(ValueError):
        find_word_pairs(lex, min_shared=0)


def test_short_words_are_skipped():
    lex = make_lexicon([("bay", "B EY", 3.0), ("pay", "P EY", 4.0)])
    assert find_word_pairs(lex, min_shared=2) == []
    assert len(find_word_pairs(lex, min_shared=1, require_divergence=False)) == 1


def test_all_three_voicing_contrasts():
    lex = make_lexicon(
        [
            ("bat", "B AE T", 1.0),
            ("pan", "P AE N", 1.0),
            ("dock", "D AA K", 1.0),
            ("tot", "T AA T", 1.0),
            ("gore", "G AO R", 1.0),
            ("core", "K AO L", 1.0),
        ]
    )
    pairs = find_word_pairs(lex, min_shared=1)
    assert {(p.onset_a, p.onset_b) for p in pairs} == {("B", "P"), ("D", "T"), ("G", "K")}
    for pair in pairs:
        (entry_a,) = lex.lookup(pair.word_a)
        assert entry_a.onset == pair.onset_a


def test_order_invariance():
    lex = make_lexicon(LONG_OVERLAP_ROWS)
    reversed_lex = make_lexicon(list(reversed(LONG_OVERLAP_ROWS)))
    def summary(pairs):
        return [
            (
                p.word_a,
                p.word_b,
                p.shared_len,
                p.divergence_point,
            )
            for p in pairs
        ]
    assert summary(find_word_pairs(lex, 1)) == summary(find_word_pairs(reversed_lex, 1))


def test_sorted_by_shared_length_then_orthography():
    lex = make_lexicon(
        [
            ("balance", "B AE L AH N S", 1.0),
            ("palate", "P AE L AH T", 1.0),
            ("bat", "B AE T", 1.0),
            ("pan", "P AE N", 1.0),
            ("bad", "B AE D", 1.0),
        ]
    )
    pairs = find_word_pairs(lex, min_shared=1)
    keys = [(-p.shared_len, p.word_a, p.word_b) for p in pairs]
    assert keys == sorted(keys)
    assert (pairs[0].word_a, pairs[0].word_b) == ("balance", "palate")
    assert {(p.word_a, p.word_b) for p in pairs[1:]} == {
        ("balance", "pan"),
        ("bat", "palate"),
        ("bat", "pan"),
        ("bad", "palate"),
        ("bad", "pan"),
    }


def test_reported_pairs_verified_by_direct_comparison():
    rng = np.random.default_rng(31)
    onsets = ["B", "P", "D", "T", "G", "K", "M"]
    vowels = ["AE", "IH", "AA"]
    codas = ["N", "S", "L", "R"]
    rows = []
    for i in range(120):
        pron = [
            onsets[int(rng.integers(len(onsets)))],
            vowels[int(rng.integers(len(vowels)))],
            codas[int(rng.integers(len(codas)))],
        ]
        if rng.random() < 0.5:
            pron.append(codas[int(rng.integers(len(codas)))])
        rows.append((f"w{i}", " ".join(pron), float(rng.integers(1, 50))))
    lex = make_lexicon(rows)
    voiced_of = {"B": "B", "D": "D", "G": "G", "P": "B", "T": "D", "K": "G"}
    for min_shared in (1, 2):
        pairs = find_word_pairs(lex, min_shared=min_shared)
        seen = set()
        for pair in pairs:
            (a,) = lex.lookup(pair.word_a)
            (b,) = lex.lookup(pair.word_b)
            assert voiced_of[a.onset] == a.onset
            assert voiced_of[b.onset] == a.onset
            assert a.pron[1 : 1 + min_shared] == b.pron[1 : 1 + min_shared]
            point = pair.divergence_point
            assert point is not None and point >= 2
            assert a.pron[1 : point - 1] == b.pron[1 : point - 1]
            assert a.pron[point - 1] != b.pron[point - 1]
            assert pair.shared_len == point - 2
            key = frozenset((a.orthography, b.orthography))
            assert key not in seen
            seen.add(key)


# Few spellings and few, short tails, so that homographs (one spelling
# under several onsets, such as a B-onset and a P-onset entry), shared
# bucket keys and prefix embeddings (a tail cut short) come up in most
# draws.
SPELLINGS = ("ba", "pa", "bat", "pat", "da", "ta", "ga", "ka")
ONSETS = ("B", "P", "D", "T", "G", "K", "S")


@st.composite
def pair_lexicons(draw):
    stems = draw(st.lists(
        st.lists(st.sampled_from(("AE", "N", "T")), min_size=1, max_size=4),
        min_size=1,
        max_size=2,
    ))
    rows = {}
    for spelling, onset, stem, cut, frequency in draw(st.lists(
        st.tuples(
            st.sampled_from(SPELLINGS),
            st.sampled_from(ONSETS),
            st.sampled_from(stems),
            st.integers(0, 2),
            st.integers(1, 9),
        ),
        min_size=8,
        max_size=30,
    )):
        pron = " ".join((onset, *stem[:max(1, len(stem) - cut)]))
        rows.setdefault((spelling, pron), frequency)
    return make_lexicon((spelling, pron, f) for (spelling, pron), f in rows.items())


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(lexicon=pair_lexicons())
def test_pairs_match_reference_search(lexicon):
    # WordPair equality compares every field `pairs` prints, onsets and
    # divergence included, so this also pins which of two pairs with the
    # same unordered orthographies is kept, as far as the output shows it.
    for min_shared in (1, 2, 3):
        for require_divergence in (True, False):
            assert find_word_pairs(
                lexicon, min_shared, require_divergence
            ) == reference.find_word_pairs(lexicon, min_shared, require_divergence)


@settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(lexicon=pair_lexicons())
def test_pairs_match_reference_search_at_min_shared_4(lexicon):
    # test_pairs_match_reference_search covers min_shared 1-3; at 4 the
    # key spans a whole drawn stem, so most candidates are too short.
    for require_divergence in (True, False):
        assert find_word_pairs(
            lexicon, 4, require_divergence
        ) == reference.find_word_pairs(lexicon, 4, require_divergence)


@pytest.mark.parametrize(
    "rows, min_shared_values",
    [
        # no plosive onset at all
        ([("mat", "M AE T", 1.0), ("sat", "S AE T", 2.0)], (1, 2)),
        # voiced onsets without their voiceless partners
        ([("bat", "B AE T", 1.0), ("dot", "D AA T", 2.0), ("gut", "G AH T", 3.0)], (1, 2)),
        # a voiced onset whose only plosive company is another pair's
        ([("bat", "B AE T", 1.0), ("tat", "T AE T", 2.0)], (1, 2)),
        # every word shorter than 1 + min_shared
        ([("bay", "B EY", 1.0), ("pay", "P EY", 2.0), ("bait", "B EY T", 1.0),
          ("pate", "P EY T", 1.0), ("b", "B", 1.0), ("p", "P", 1.0)], (3, 4)),
    ],
    ids=["no-candidate", "voiced-only", "partner-missing", "all-short"],
)
def test_pairs_without_candidates_or_partners(rows, min_shared_values):
    lexicon = make_lexicon(rows)
    for min_shared in min_shared_values:
        for require_divergence in (True, False):
            assert find_word_pairs(lexicon, min_shared, require_divergence) == []
            assert reference.find_word_pairs(lexicon, min_shared, require_divergence) == []


def cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(lexicon=pair_lexicons(), min_shared=st.integers(1, 3), keep=st.booleans())
def test_pairs_prints_the_bytes_of_the_written_pair_list(lexicon, min_shared, keep):
    pairs = find_word_pairs(lexicon, min_shared, require_divergence=not keep)
    with tempfile.TemporaryDirectory() as tmp:
        lexicon_path, out_path = Path(tmp) / "lexicon.tsv", Path(tmp) / "pairs.out"
        write_lexicon(lexicon, lexicon_path)
        for fmt in ("csv", "json"):
            want = io.StringIO()
            with contextlib.redirect_stdout(want):
                records_reference.write_records(
                    [pair._asdict() for pair in pairs], WordPair._fields, None, fmt
                )
            argv = ["pairs", "--lexicon", str(lexicon_path), "--min-shared",
                    str(min_shared), "--format", fmt] + (["--keep-undiverged"] if keep else [])
            assert cli_output(argv) == (0, want.getvalue())
            assert cli_output(argv + ["--out", str(out_path)]) == (0, "")
            assert out_path.read_bytes() == want.getvalue().encode("utf-8")


def test_pairs_builds_no_word_pair(tmp_path, monkeypatch):
    rows = [(f"b{i}", f"B AE {i % 7} T", 1.0) for i in range(100)]
    rows += [(f"p{i}", f"P AE {i % 5} T", 1.0) for i in range(100)]
    path = tmp_path / "lexicon.tsv"
    write_lexicon(make_lexicon(rows), path)

    def refuse(*args):
        raise AssertionError("built a WordPair")

    monkeypatch.setattr(WordPair, "_make", classmethod(refuse))
    monkeypatch.setattr(WordPair, "__new__", refuse)
    with pytest.raises(AssertionError, match="built a WordPair"):
        find_word_pairs(make_lexicon(rows), 1)
    code, out = cli_output(["pairs", "--lexicon", str(path), "--min-shared", "1"])
    assert code == 0 and len(out.splitlines()) > 1
