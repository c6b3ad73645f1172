import random

import pytest

from cohortlex import build_trie, make_lexicon

TOY_A_ROWS = [
    ("bat", "B AE T", 3.0),
    ("ban", "B AE N", 1.0),
    ("pat", "P AE T", 4.0),
]

TOY_B_ROWS = [
    ("bat", "B AE T", 3.0),
    ("bin", "B IH N", 1.0),
    ("pat", "P AE T", 4.0),
    ("pin", "P IH N", 4.0),
]

# Mirrored onset pairs over four vowel groups with uneven frequencies.
# Every continuation exists under both onsets, so no trace is skipped,
# and the position-2 metric vectors span enough directions for the full
# regression design to be non-singular (the toy lexicons collapse to too
# few distinct metric points for that).
SIM_ROWS = [
    ("bat", "B AE T", 3.0),
    ("bad", "B AE D", 2.0),
    ("bin", "B IH N", 2.0),
    ("bid", "B IH D", 1.0),
    ("bet", "B EH T", 5.0),
    ("beck", "B EH K", 1.0),
    ("bog", "B AA G", 2.0),
    ("bob", "B AA B", 2.0),
    ("pat", "P AE T", 4.0),
    ("pad", "P AE D", 1.0),
    ("pin", "P IH N", 4.0),
    ("pid", "P IH D", 2.0),
    ("pet", "P EH T", 2.0),
    ("peck", "P EH K", 3.0),
    ("pog", "P AA G", 6.0),
    ("pob", "P AA B", 1.0),
]


def generated_rows(seed: int, n_words: int) -> list[str]:
    """Rows of a synthetic consonant-vowel lexicon with stress-marked
    vowels and Zipf-like integer counts, in `bench/gen.py`'s style."""
    rng = random.Random(seed)
    onsets = ["B", "P", "D", "T", "G", "K", "M", "S", "L"]
    vowels = [f"{v}{s}" for v in ("AE", "IH", "UW", "AO") for s in "012"]
    codas = ["N", "T", "K", "S", "R"]
    rows, taken = [], set()
    while len(rows) < n_words:
        pron = [rng.choice(onsets)]
        for _ in range(rng.randint(1, 3)):
            pron += [rng.choice(vowels), rng.choice(codas)]
        spelling = "".join(pron).lower()
        if spelling in taken:
            continue
        taken.add(spelling)
        rows.append(f"{spelling}\t{' '.join(pron)}\t{int(1 / (1 - rng.random()))}")
    return rows


def mirrored_rows(seed: int, n_continuations: int) -> list[str]:
    """Rows of a synthetic B/P lexicon in which every continuation exists
    under both onsets, 2-7 phonemes after the onset, with Zipf-like
    integer counts, in the shape of `bench/gen.py`'s mirrored lexicon."""
    rng = random.Random(seed)
    vowels = [f"{v}{s}" for v in ("AE", "IH", "UW", "AO", "EH", "AA") for s in "012"]
    consonants = ["N", "T", "K", "S", "R", "D", "M", "L"]
    tails = []
    while len(tails) < n_continuations:
        length = 2 + len(tails) % 6
        tail = tuple(rng.choice(consonants if i % 2 else vowels) for i in range(length))
        if tail not in tails:
            tails.append(tail)
    return [
        f"{onset.lower()}{''.join(tail).lower()}\t{onset} {' '.join(tail)}"
        f"\t{int(1 / (1 - rng.random()))}"
        for tail in tails
        for onset in "BP"
    ]


@pytest.fixture
def toy_a():
    return make_lexicon(TOY_A_ROWS)


@pytest.fixture
def toy_b():
    return make_lexicon(TOY_B_ROWS)


@pytest.fixture
def trie_a(toy_a):
    return build_trie(toy_a)


@pytest.fixture
def trie_b(toy_b):
    return build_trie(toy_b)


@pytest.fixture
def trie_sim():
    return build_trie(make_lexicon(SIM_ROWS))
