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


def _shared_len(pron_a: PhonemeSeq, pron_b: PhonemeSeq, point: int | None) -> int:
    if point is None:
        return min(len(pron_a), len(pron_b)) - 1
    return point - 2


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
    comes first in each pair.
    """
    if min_shared < 1:
        raise ValueError(f"min_shared must be >= 1, got {min_shared}")
    results: list[WordPair] = []
    seen: set[frozenset[str]] = set()
    for voiced, voiceless in PLOSIVE_VOICING_PAIRS:
        buckets: dict[PhonemeSeq, tuple[list, list]] = {}
        for entry in lexicon.entries:
            if len(entry.pron) < 1 + min_shared:
                continue
            key = entry.pron[1:1 + min_shared]
            if entry.onset == voiced:
                buckets.setdefault(key, ([], []))[0].append(entry)
            elif entry.onset == voiceless:
                buckets.setdefault(key, ([], []))[1].append(entry)
        for voiced_entries, voiceless_entries in buckets.values():
            for entry_a in voiced_entries:
                for entry_b in voiceless_entries:
                    point = divergence_point(entry_a.pron, entry_b.pron)
                    if require_divergence and point is None:
                        continue
                    orth_key = frozenset((entry_a.orthography, entry_b.orthography))
                    if orth_key in seen:
                        continue
                    seen.add(orth_key)
                    results.append(
                        WordPair(
                            entry_a=entry_a,
                            entry_b=entry_b,
                            onset_pair=(voiced, voiceless),
                            shared_len=_shared_len(entry_a.pron, entry_b.pron, point),
                            divergence_point=point,
                        )
                    )
    results.sort(
        key=lambda pair: (
            -pair.shared_len,
            pair.entry_a.orthography,
            pair.entry_b.orthography,
        )
    )
    return results
