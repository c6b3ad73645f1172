"""Search for voicing-contrast word pairs usable as continuum endpoints.

A usable pair starts with a voiced/voiceless plosive contrast (B/P, D/T,
G/K), shares its post-onset phoneme sequence for some stretch, and then
genuinely diverges so listeners get a point of disambiguation.
"""

from __future__ import annotations

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
    columns = _pair_columns(lexicon, min_shared, require_divergence)
    return list(map(WordPair._make, zip(*columns)))


def _pair_columns(lexicon: Lexicon, min_shared: int, require_divergence: bool):
    """`find_word_pairs`' pairs as columns in `WordPair` field order: one
    numpy object array of str, int or None cells per field.

    The search runs in numpy over the candidates' padded code rows.
    """
    if min_shared < 1:
        raise ValueError(f"min_shared must be >= 1, got {min_shared}")
    start = 1 + min_shared
    codes, offsets = lexicon.codes, lexicon.offsets
    # 2 * voicing pair + side (0 voiced, 1 voiceless) per onset code, -1
    # for codes that are not a plosive onset.
    group_of = np.full(len(lexicon.phonemes), -1, np.int8)
    code_of = {phoneme: code for code, phoneme in enumerate(lexicon.phonemes)}
    for pair_index, onset_pair in enumerate(PLOSIVE_VOICING_PAIRS):
        for side, onset in enumerate(onset_pair):
            if onset in code_of:
                group_of[code_of[onset]] = 2 * pair_index + side
    group = group_of[codes[offsets[:-1]]]
    lengths = np.diff(offsets)
    candidates = np.flatnonzero((group >= 0) & (lengths >= start))
    n = len(candidates)
    if not n:
        return [np.empty(0, object)] * len(WordPair._fields)
    group, lengths, firsts = group[candidates], lengths[candidates], offsets[candidates]
    pair, side = group >> 1, group & 1
    # tails[j] holds each candidate's code at position j + 1, or -1 past
    # its end (row 0, the onset, is not filled); the last row is all -1,
    # so every comparison ends.
    width = int(lengths.max())
    tails = np.full((width + 1, n), -1, codes.dtype)
    for j in range(1, width):
        has = np.flatnonzero(lengths > j)
        tails[j, has] = codes[firsts[has] + j]

    # Buckets: candidates of one voicing pair with equal codes at
    # positions 2..start. One stable sort puts each bucket's voiced
    # entries, then its voiceless ones, together, each in lexicon order.
    order = np.lexsort((side, *tails[min_shared:0:-1], pair)).astype(np.int32)
    new = np.zeros(n, bool)
    new[0] = True
    for column in (pair, *tails[1:start]):
        column = column[order]
        new[1:] |= column[1:] != column[:-1]
    bucket_start = np.flatnonzero(new).astype(np.int32)
    voiced = np.add.reduceat(side[order] == 0, bucket_start, dtype=np.int32)
    voiceless = np.diff(bucket_start, append=np.int32(n)) - voiced
    # Search order: voicing pair, then the bucket's first entry in
    # lexicon order. A bucket missing a side holds no pair.
    first = np.minimum.reduceat(order, bucket_start)
    buckets = np.lexsort((first, pair[order[bucket_start]]))
    buckets = buckets[(voiced[buckets] > 0) & (voiceless[buckets] > 0)]

    # Each bucket's voiced x voiceless product, in (voiced, voiceless)
    # order: each voiced entry meets the run of its bucket's voiceless
    # entries. `a` and `b` are candidate indices, one per pair.
    starts, voiced, voiceless = bucket_start[buckets], voiced[buckets], voiceless[buckets]
    runs = np.repeat(voiceless, voiced)
    a = order[np.repeat(_ranges(starts, voiced), runs)]
    b = order[_ranges(np.repeat(starts + voiced, voiced), runs)]
    pair = pair[a]

    # The first position past the key where the two differ, or where one
    # ends, one column at a time over the pairs still equal.
    stop = np.empty(len(a), np.int32)
    diverged = np.empty(len(a), bool)
    left = np.arange(len(a), dtype=np.int32)
    for j in range(start, width + 1):
        code_a, code_b = tails[j][a[left]], tails[j][b[left]]
        ends = (code_a < 0) | (code_b < 0)
        done = ends | (code_a != code_b)
        stop[left[done]] = j
        diverged[left[done]] = ~ends[done]
        left = left[~done]
    if require_divergence:
        a, b, pair, stop, diverged = (x[diverged] for x in (a, b, pair, stop, diverged))

    spellings = np.array(lexicon.orthographies, dtype=object)[candidates]
    rank = _spelling_ranks(spellings.tolist())
    # Two pairs can share an unordered spelling pair only through a
    # spelling of two candidates, so only those pairs are deduped: the
    # first in search order is kept.
    homograph = np.bincount(rank)[rank] > 1
    maybe = np.flatnonzero(homograph[a] | homograph[b])
    if len(maybe):
        rank_a, rank_b = rank[a[maybe]].astype(np.int64), rank[b[maybe]]
        key = np.minimum(rank_a, rank_b) * n + np.maximum(rank_a, rank_b)
        keep = np.ones(len(a), bool)
        keep[maybe] = False
        keep[maybe[np.unique(key, return_index=True)[1]]] = True
        a, b, pair, stop, diverged = (x[keep] for x in (a, b, pair, stop, diverged))
    shown = np.lexsort((rank[b], rank[a], -stop))
    a, b, pair, stop, diverged = (x[shown] for x in (a, b, pair, stop, diverged))
    voiced_onsets, voiceless_onsets = (
        np.array(onsets, dtype=object) for onsets in zip(*PLOSIVE_VOICING_PAIRS)
    )
    return [
        spellings[a],
        spellings[b],
        voiced_onsets[pair],
        voiceless_onsets[pair],
        (stop - 1).astype(object),
        np.where(diverged, stop + 1, None),
    ]


def _spelling_ranks(spellings: list[str]) -> np.ndarray:
    """Each spelling's rank among the distinct ones in code-point order,
    which is Python's `str` order."""
    ordered = sorted(set(spellings))
    rank_of = dict(zip(ordered, range(len(ordered))))
    return np.fromiter(map(rank_of.__getitem__, spellings), np.int32, len(spellings))


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """`arange(s, s + c)` for each start s and count c > 0, concatenated,
    as int32: a run of 1 steps, with a jump to each next start, summed."""
    ends = np.cumsum(counts, dtype=np.int64)
    steps = np.ones(int(ends[-1]) if len(ends) else 0, np.int32)
    if len(steps):
        steps[0] = starts[0]
        steps[ends[:-1]] = starts[1:] - starts[:-1] - counts[:-1] + 1
    return np.cumsum(steps, out=steps)
