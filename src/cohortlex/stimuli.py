"""Search for voicing-contrast word pairs usable as continuum endpoints.

A usable pair starts with a voiced/voiceless plosive contrast (B/P, D/T,
G/K), shares its post-onset phoneme sequence for some stretch, and then
genuinely diverges so listeners get a point of disambiguation.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .lexicon import PLOSIVE_VOICING_PAIRS, Lexicon, Phoneme, PhonemeSeq


class WordPair(NamedTuple):
    """A voiced/voiceless onset pair with a shared post-onset stretch: one
    row of `pairs`, fields in column order.

    `word_a` is always the voiced member. `divergence_point` is the
    1-based position of the first post-onset mismatch, or None when one
    pronunciation is a prefix of the other (they never diverge).
    """

    word_a: str
    word_b: str
    onset_a: Phoneme
    onset_b: Phoneme
    shared_len: int
    divergence_point: int | None


def divergence_point(pron_a: PhonemeSeq, pron_b: PhonemeSeq) -> int | None:
    """First position >= 2 where the pronunciations differ (None = never)."""
    if len(pron_a) < 2 or len(pron_b) < 2:
        raise ValueError("divergence_point needs pronunciations of length >= 2")
    for index in range(1, min(len(pron_a), len(pron_b))):
        if pron_a[index] != pron_b[index]:
            return index + 1
    return None


def find_word_pairs(
    lexicon: Lexicon, min_shared: int, require_divergence: bool = True
) -> list[WordPair]:
    """All voicing-contrast pairs sharing >= min_shared post-onset phonemes.

    Pairs are keyed by the post-onset prefix of length `min_shared`, so
    both members must be at least that long plus the onset. With
    `require_divergence` (default) pairs where one pronunciation merely
    prefixes the other are dropped: the paradigm needs a disambiguation
    point. Output is deduplicated by unordered orthography pair and
    sorted by (shared_len descending, orthographies); the voiced member
    comes first in each pair. Of two pairs with the same orthographies
    (possible only through homographs) the first in search order is
    kept: B/P, D/T, G/K in turn, then buckets, voiced entries and
    voiceless entries each in lexicon order.
    """
    if min_shared < 1:
        raise ValueError(f"min_shared must be >= 1, got {min_shared}")
    start = 1 + min_shared
    orthographies = lexicon.orthographies
    codes = memoryview(lexicon.codes)
    raw = lexicon.codes.tobytes()
    width = lexicon.codes.itemsize
    offsets = lexicon.offsets.tolist()
    code_of = {phoneme: code for code, phoneme in enumerate(lexicon.phonemes)}
    # One pass over the lexicon fills every voicing pair's buckets. A
    # bucket holds the voiced and the voiceless entries sharing one
    # post-onset stretch of codes, each list in lexicon order.
    by_pair: list[tuple[tuple[Phoneme, Phoneme], dict]] = []
    side_of: dict[int, tuple[dict, int]] = {}
    for onset_pair in PLOSIVE_VOICING_PAIRS:
        buckets: dict[bytes, tuple[list, list]] = {}
        by_pair.append((onset_pair, buckets))
        for side, onset in enumerate(onset_pair):
            if onset in code_of:
                side_of[code_of[onset]] = (buckets, side)
    onsets = lexicon.codes[lexicon.offsets[:-1]]
    long_enough = np.diff(lexicon.offsets) >= start
    candidates = np.flatnonzero(np.isin(onsets, list(side_of)) & long_enough)
    # Two candidates can share an unordered orthography pair only through
    # a spelling with two bucketed entries, so only such pairs are
    # checked against (and added to) the dedupe set.
    spelled: set[str] = set()
    homographs: set[str] = set()
    for index in candidates.tolist():
        first = offsets[index]
        buckets, side = side_of[codes[first]]
        # The codes of positions 2..start, as bytes: a hashable run.
        key = raw[(first + 1) * width:(first + start) * width]
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = ([], [])
        bucket[side].append((orthographies[index], first, offsets[index + 1] - first))
        if orthographies[index] in spelled:
            homographs.add(orthographies[index])
        spelled.add(orthographies[index])
    results: list[WordPair] = []
    seen: set[frozenset[str]] = set()
    for (voiced, voiceless), buckets in by_pair:
        for voiced_entries, voiceless_entries in buckets.values():
            for orth_a, first_a, len_a in voiced_entries:
                homograph_a = orth_a in homographs
                for orth_b, first_b, len_b in voiceless_entries:
                    # The bucket key already matches up to `start`.
                    end = min(len_a, len_b)
                    index = start
                    while index < end and codes[first_a + index] == codes[first_b + index]:
                        index += 1
                    if index < end:
                        point = index + 1
                        shared_len = index - 1
                    elif require_divergence:
                        continue
                    else:
                        point = None
                        shared_len = end - 1
                    if homograph_a or orth_b in homographs:
                        orth_key = frozenset((orth_a, orth_b))
                        if orth_key in seen:
                            continue
                        seen.add(orth_key)
                    results.append(WordPair(
                        orth_a, orth_b, voiced, voiceless, shared_len, point,
                    ))
    # The dedupe leaves no two pairs with equal (word_a, word_b), so the
    # tuple order never compares past word_b; the stable second sort then
    # gives (shared_len descending, word_a, word_b) without building a key
    # tuple per pair.
    results.sort()
    results.sort(key=itemgetter(4), reverse=True)
    return results
