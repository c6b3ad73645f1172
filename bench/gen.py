"""Seeded synthetic inputs for the benchmark: lexicon TSVs and a curve CSV.

Four properties set the amount of work, so that a new seed changes the
words but not the workload:

- Onset shares are fixed and English-like (word-initial consonant shares
  of a CMUdict-sized lexicon, rounded); the per-onset word counts are
  allocated exactly from them, never drawn.
- Phonotactics alternate consonant and vowel after the onset, with skewed
  (Zipf-like) phoneme weights, so words share prefixes the way real words
  do and cohorts shrink over the first few positions.
- Words are 3-8 phonemes long, with fixed length shares.
- Frequencies are integer Zipf draws, so every float sum of frequencies is
  exact and the naive oracle agrees with the trie bit for bit on sums.

Only the standard library is used, so that `import numpy` is paid inside
the timed `import cohortlex`.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

ONSET_SHARES = {
    "S": 0.105, "K": 0.085, "P": 0.075, "B": 0.060, "M": 0.060,
    "T": 0.055, "D": 0.055, "R": 0.050, "F": 0.045, "L": 0.045,
    "HH": 0.040, "G": 0.035, "W": 0.035, "N": 0.030, "SH": 0.020,
    "V": 0.015, "JH": 0.015, "CH": 0.015, "TH": 0.010, "Y": 0.010,
    "Z": 0.005, "DH": 0.005,
}
LENGTH_SHARES = {3: 0.20, 4: 0.22, 5: 0.20, 6: 0.16, 7: 0.12, 8: 0.10}

# CMUdict-style vowels carry a stress digit (1 primary, 0 none, 2 secondary).
_VOWEL_BASES = ("AH", "IH", "EH", "AE", "IY", "ER", "AA", "EY", "OW", "AY", "UW",
                "AO", "AW", "UH", "OY")
_STRESS_SHARES = (("1", 0.5), ("0", 0.4), ("2", 0.1))
CONSONANTS = ("T", "N", "R", "S", "L", "D", "K", "M", "Z", "P", "B", "V",
              "NG", "F", "G", "SH", "W", "HH", "TH", "Y", "CH", "JH", "DH", "ZH")

# Rank weights 1/sqrt(rank+1): a few phonemes are common, most are rare.
VOWELS = tuple(base + digit for base in _VOWEL_BASES for digit, _ in _STRESS_SHARES)
_VOWEL_WEIGHTS = [share / (rank + 1) ** 0.5
                  for rank in range(len(_VOWEL_BASES)) for _, share in _STRESS_SHARES]
_CONSONANT_WEIGHTS = [1.0 / (rank + 1) ** 0.5 for rank in range(len(CONSONANTS))]

ZIPF_MAX = 1_000_000


def allocate(shares: dict, total: int) -> dict:
    """Split `total` over `shares` by largest remainder (exact, seed-free)."""
    norm = sum(shares.values())
    raw = {key: total * share / norm for key, share in shares.items()}
    counts = {key: math.floor(value) for key, value in raw.items()}
    short = total - sum(counts.values())
    for key in sorted(raw, key=lambda k: (counts[k] - raw[k], str(k)))[:short]:
        counts[key] += 1
    return counts


def zipf_count(rng: random.Random) -> int:
    """Integer draw with P(K >= k) ~ 1/k (Zipf exponent 2), capped."""
    return min(ZIPF_MAX, int(1.0 / (1.0 - rng.random())))


def _continuation(rng: random.Random, length: int) -> tuple:
    """`length` phonemes after a consonant onset: V C V C ..."""
    phonemes = []
    for index in range(length):
        if index % 2 == 0:
            phonemes.append(rng.choices(VOWELS, _VOWEL_WEIGHTS)[0])
        else:
            phonemes.append(rng.choices(CONSONANTS, _CONSONANT_WEIGHTS)[0])
    return tuple(phonemes)


def _spelling(pron: tuple, taken: set) -> str:
    base = "".join(p.lower() for p in pron)
    spelling, n = base, 1
    while spelling in taken:
        n += 1
        spelling = f"{base}_{n}"
    taken.add(spelling)
    return spelling


def lexicon_rows(seed: int, n_words: int) -> list:
    """(orthography, pron tuple, integer frequency) rows of a synthetic lexicon."""
    rng = random.Random(f"lexicon-{seed}-{n_words}")
    onsets = [o for o, c in allocate(ONSET_SHARES, n_words).items() for _ in range(c)]
    lengths = [n for n, c in allocate(LENGTH_SHARES, n_words).items() for _ in range(c)]
    rng.shuffle(lengths)
    rows, taken = [], set()
    for onset, length in zip(onsets, lengths):
        pron = (onset,) + _continuation(rng, length - 1)
        rows.append((_spelling(pron, taken), pron, zipf_count(rng)))
    rng.shuffle(rows)
    return rows


def mirrored_rows(seed: int, n_continuations: int) -> list:
    """A B/P lexicon in which every continuation exists under both onsets."""
    rng = random.Random(f"mirrored-{seed}-{n_continuations}")
    lengths = [n for n, c in allocate(LENGTH_SHARES, n_continuations).items()
               for _ in range(c)]
    continuations: list = []
    seen: set = set()
    for length in lengths:
        tail = _continuation(rng, length - 1)
        while tail in seen:
            tail = _continuation(rng, length - 1)
        seen.add(tail)
        continuations.append(tail)
    rows, taken = [], set()
    for tail in continuations:
        for onset in ("B", "P"):
            pron = (onset,) + tail
            rows.append((_spelling(pron, taken), pron, zipf_count(rng)))
    return rows


def curve_rows(seed: int, n_items: int) -> list:
    """(item, step, proportion) rows of descending 11-step identification curves."""
    rng = random.Random(f"curves-{seed}-{n_items}")
    rows = []
    for i in range(n_items):
        midpoint = rng.uniform(4.0, 8.0)
        slope = rng.uniform(0.8, 2.5)
        for step in range(1, 12):
            p = 1.0 / (1.0 + math.exp(slope * (step - midpoint)))
            p = min(1.0, max(0.0, p + rng.gauss(0.0, 0.03)))
            rows.append((f"item{i:05d}", step, round(p, 3)))
    return rows


def onset_shares(rows: list) -> dict:
    """Measured share of words per onset phoneme."""
    counts: dict = {}
    for _, pron, _ in rows:
        counts[pron[0]] = counts.get(pron[0], 0) + 1
    return {onset: round(n / len(rows), 6) for onset, n in sorted(counts.items())}


def write_lexicon_tsv(rows: list, path: Path) -> None:
    lines = ["#unit: counts"]
    lines += [f"{orth}\t{' '.join(pron)}\t{freq}" for orth, pron, freq in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_curves_csv(rows: list, path: Path) -> None:
    lines = ["item,step,proportion"]
    lines += [f"{item},{step},{p}" for item, step, p in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
