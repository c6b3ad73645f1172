"""The bucket-per-voicing-pair word-pair search, kept as a test reference.

The package's `find_word_pairs` buckets the lexicon once for all three
voicing pairs, compares pronunciations only past the shared bucket key,
and checks the orthography dedupe set only for homograph spellings. This
is the search it replaced, which buckets once per voicing pair, calls
`divergence_point` per candidate and dedupes every pair. The tests assert
that both return equal `WordPair` lists, including which of two pairs
with the same unordered orthographies is kept.
"""

from __future__ import annotations

from cohortlex import Lexicon, WordPair, divergence_point
from cohortlex.lexicon import PLOSIVE_VOICING_PAIRS, PhonemeSeq


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
