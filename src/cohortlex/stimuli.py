"""Search for voicing-contrast word pairs usable as continuum endpoints.

A usable pair starts with a voiced/voiceless plosive contrast (B/P, D/T,
G/K), shares its post-onset phoneme sequence for some stretch, and then
genuinely diverges so listeners get a point of disambiguation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lexicon import PLOSIVE_VOICING_PAIRS, Lexicon, LexiconEntry, Phoneme, PhonemeSeq


@dataclass(frozen=True)
class WordPair:
    """A voiced/voiceless onset pair with a shared post-onset stretch.

    `entry_a` is always the voiced member. `divergence_point` is the
    1-based position of the first post-onset mismatch, or None when one
    pronunciation is a prefix of the other (they never diverge).
    """

    entry_a: LexiconEntry
    entry_b: LexiconEntry
    onset_pair: tuple[Phoneme, Phoneme]
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
    # One pass over the lexicon fills every voicing pair's buckets. A
    # bucket holds the voiced and the voiceless entries sharing one
    # post-onset stretch, each list in lexicon order.
    by_pair: list[tuple[tuple[Phoneme, Phoneme], dict]] = []
    side_of: dict[Phoneme, tuple[dict, int]] = {}
    for onset_pair in PLOSIVE_VOICING_PAIRS:
        buckets: dict[PhonemeSeq, tuple[list, list]] = {}
        by_pair.append((onset_pair, buckets))
        side_of[onset_pair[0]] = (buckets, 0)
        side_of[onset_pair[1]] = (buckets, 1)
    # Two candidates can share an unordered orthography pair only through
    # a spelling with two bucketed entries, so only such pairs are
    # checked against (and added to) the dedupe set.
    spelled: set[str] = set()
    homographs: set[str] = set()
    for entry in lexicon.entries:
        pron = entry.pron
        side = side_of.get(pron[0])
        if side is None or len(pron) < start:
            continue
        buckets, index = side
        key = pron[1:start]
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = ([], [])
        bucket[index].append(entry)
        if entry.orthography in spelled:
            homographs.add(entry.orthography)
        spelled.add(entry.orthography)
    results: list[WordPair] = []
    seen: set[frozenset[str]] = set()
    for onset_pair, buckets in by_pair:
        for voiced_entries, voiceless_entries in buckets.values():
            for entry_a in voiced_entries:
                pron_a = entry_a.pron
                len_a = len(pron_a)
                homograph_a = entry_a.orthography in homographs
                for entry_b in voiceless_entries:
                    # The bucket key already matches up to `start`.
                    pron_b = entry_b.pron
                    end = min(len_a, len(pron_b))
                    index = start
                    while index < end and pron_a[index] == pron_b[index]:
                        index += 1
                    if index < end:
                        point = index + 1
                        shared_len = index - 1
                    elif require_divergence:
                        continue
                    else:
                        point = None
                        shared_len = end - 1
                    if homograph_a or entry_b.orthography in homographs:
                        orth_key = frozenset((entry_a.orthography, entry_b.orthography))
                        if orth_key in seen:
                            continue
                        seen.add(orth_key)
                    results.append(
                        WordPair(entry_a, entry_b, onset_pair, shared_len, point)
                    )
    results.sort(
        key=lambda pair: (
            -pair.shared_len,
            pair.entry_a.orthography,
            pair.entry_b.orthography,
        )
    )
    return results
