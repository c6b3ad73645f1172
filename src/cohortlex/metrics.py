"""Switch-based and acoustic-weighted cohort activation metrics.

Two models of how graded evidence about a word's onset phoneme reaches the
lexicon. The switch model commits to the more probable onset and computes
entropy/surprisal over that single cohort. The acoustic-weighted model keeps
both candidate onsets alive: word probabilities mix the two onset
sub-cohorts weighted by the onset evidence, and phoneme surprisal scales
each onset's conditional continuation probability by the evidence weight
and by a lexical weighting Q (the share of the observed continuation's
frequency carried by that onset's sub-cohort).

Rounding the evidence weights to 0/1 collapses the acoustic-weighted
entropy onto the switch entropy; the surprisal definitions do not collapse
the same way because Q keeps referring to both sub-cohorts.

All logarithms are base 2; every value is in bits and non-negative.
Impossible continuations raise rather than returning infinities.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import NamedTuple

from .cohort import CohortTrie, ImpossibleContinuationError, _child, _subtree_entropy
from .lexicon import LexiconEntry, Phoneme, PhonemeSeq

_INNER_TOL = 1e-12


class UndefinedCorrelationError(ValueError):
    """Pearson r is undefined (a constant value vector)."""


@dataclass(frozen=True)
class AcousticEvidence:
    """Graded two-alternative evidence about a word-initial phoneme.

    `p_a` is the probability that the signal realises `phoneme_a`;
    `phoneme_b` carries the remaining mass.
    """

    phoneme_a: Phoneme
    phoneme_b: Phoneme
    p_a: float

    def __post_init__(self):
        if self.phoneme_a == self.phoneme_b:
            raise ValueError("evidence needs two distinct candidate phonemes")
        if not 0.0 <= self.p_a <= 1.0:
            raise ValueError(f"p_a must be in [0, 1], got {self.p_a}")

    @property
    def p_b(self) -> float:
        return 1.0 - self.p_a

    @property
    def committed(self) -> Phoneme:
        """The onset the switch model commits to: the more probable one.

        Ties (p_a = 0.5) deterministically commit to phoneme_a.
        """
        return self.phoneme_a if self.p_a >= 0.5 else self.phoneme_b


class MetricPoint(NamedTuple):
    """Both models' values at one phoneme position of a trace: one row of
    `trace`, fields in column order."""

    position: int
    phoneme: Phoneme
    switch_surprisal: float
    acoustic_surprisal: float
    switch_entropy: float
    acoustic_entropy: float
    switch_cohort_size: int
    joint_cohort_size: int


TRACE_FIELDS = MetricPoint._fields


@dataclass(frozen=True)
class MetricTrace:
    """Per-position metric values for one word under fixed onset evidence."""

    word: LexiconEntry
    evidence: AcousticEvidence
    points: tuple[MetricPoint, ...]

    def point_at(self, position: int) -> MetricPoint | None:
        if 1 <= position <= len(self.points):
            return self.points[position - 1]
        return None


def _entropy_bits(probs) -> float:
    h = -sum(p * math.log2(p) for p in probs if p > 0.0)
    return max(0.0, h)


def switch_entropy(trie: CohortTrie, prefix: PhonemeSeq) -> float:
    """Entropy in bits of the frequency-normalized cohort at `prefix`.

    Read from the trie's memoized subtree entropy, which the grouping
    rule builds from child-subtree entropies; no cohort is listed.
    """
    return trie.entropy(prefix)


# Node-level helpers. The public per-prefix functions walk the trie to
# their nodes and `metric_trace` steps one child per position; both then
# compute every value through these, so there is one arithmetic path.
# A node is None where no word continues the prefix.


def _freq(node) -> float:
    return node.cum_freq if node is not None else 0.0


def _no_onset_admits(evidence: AcousticEvidence, continuation: PhonemeSeq):
    return ImpossibleContinuationError(
        f"neither /{evidence.phoneme_a}/ nor /{evidence.phoneme_b}/ admits "
        f"the continuation /{' '.join(continuation)}/"
    )


def _node_and_parent_freq(trie: CohortTrie, prefix: PhonemeSeq):
    """The node at non-empty `prefix` and its parent's frequency."""
    parent = trie._node_at(prefix[:-1])
    if parent is None:
        return None, 0.0
    return _child(parent, prefix[-1]), parent.cum_freq


def _acoustic_entropy_and_size(evidence, node_a, node_b, continuation):
    """Entropy and size of the evidence-weighted distribution, from node totals.

    The onset sub-cohorts are disjoint, so by the grouping rule the mixed
    entropy is p_a*H_a + p_b*H_b + h(p_a) when both survive, and the lone
    survivor's renormalized entropy H_survivor otherwise. The size counts
    a sub-cohort only when its evidence weight is non-zero, except for a
    lone survivor, which counts whatever its weight, so a member whose
    weighted probability underflows to 0 still counts. Raises when
    neither onset survives.
    """
    if node_a is not None and node_b is not None:
        p_a, p_b = evidence.p_a, evidence.p_b
        h = (
            p_a * _subtree_entropy(node_a)
            + p_b * _subtree_entropy(node_b)
            + _entropy_bits((p_a, p_b))
        )
        size = node_a.n_entries * (p_a > 0) + node_b.n_entries * (p_b > 0)
        return max(0.0, h), size
    survivor = node_a if node_a is not None else node_b
    if survivor is None:
        raise _no_onset_admits(evidence, continuation)
    return _subtree_entropy(survivor), survivor.n_entries


def acoustic_entropy(
    trie: CohortTrie, evidence: AcousticEvidence, continuation: PhonemeSeq
) -> float:
    """Entropy in bits of the evidence-weighted word distribution.

    Computed by the grouping rule from the two onset sub-cohorts' memoized
    entropies (p_a*H_a + p_b*H_b + h(p_a), or the lone survivor's H), so
    no cohort is listed. The weighted distribution gives each word of
    onset x's sub-cohort P(word | sub-cohort) * P(x | evidence), with a
    lone surviving sub-cohort renormalized to sum to 1.
    """
    continuation = tuple(continuation)
    node_a = trie._node_at((evidence.phoneme_a,) + continuation)
    node_b = trie._node_at((evidence.phoneme_b,) + continuation)
    return _acoustic_entropy_and_size(evidence, node_a, node_b, continuation)[0]


def _switch_surprisal(node, before: float, prefix: PhonemeSeq) -> float:
    """Surprisal of `prefix`'s last phoneme from its node and its parent's total."""
    if before == 0:
        raise ImpossibleContinuationError(
            f"prefix /{' '.join(prefix[:-1])}/ has no cohort"
        )
    conditional = _freq(node) / before
    if conditional == 0:
        raise ImpossibleContinuationError(
            f"/{' '.join(prefix)}/ has no surviving cohort"
        )
    return max(0.0, -math.log2(conditional))


def switch_surprisal(trie: CohortTrie, prefix: PhonemeSeq) -> float:
    """Surprisal in bits of the last phoneme of `prefix` given the rest.

    At prefix length 1 the conditioning set is the whole lexicon. A zero
    conditional probability is an impossible continuation and raises.
    """
    prefix = tuple(prefix)
    if len(prefix) < 1:
        raise ValueError("conditional_prob needs a prefix of length >= 1")
    node, before = _node_and_parent_freq(trie, prefix)
    return _switch_surprisal(node, before, prefix)


def _weighted_inner(evidence, freqs_now, freqs_before) -> float:
    """Evidence- and lexically-weighted continuation probability.

    Per-onset term: P(onset|evidence) * conditional continuation
    probability * Q, where Q is that onset's share of the combined
    continuation frequency. An onset with no surviving continuation
    contributes zero. The sum is provably <= 1 for finite frequencies, so
    a larger or NaN sum raises instead of reaching the output.
    """
    freq_a, freq_b = freqs_now
    before_a, before_b = freqs_before
    joint = freq_a + freq_b
    inner = 0.0
    if freq_a > 0:
        inner += evidence.p_a * (freq_a / before_a) * (freq_a / joint)
    if freq_b > 0:
        inner += evidence.p_b * (freq_b / before_b) * (freq_b / joint)
    if not inner <= 1.0 + _INNER_TOL:
        raise ImpossibleContinuationError(f"weighted inner term {inner} exceeds 1")
    return inner


def _acoustic_surprisal(evidence, node_a, node_b, before_a, before_b, continuation):
    """Acoustic-weighted surprisal from both onsets' nodes and parents' totals.

    An empty `continuation` is the onset position (both parents are the
    root).
    """
    inner = _weighted_inner(
        evidence, (_freq(node_a), _freq(node_b)), (before_a, before_b)
    )
    if inner <= 0:
        if continuation:
            raise _no_onset_admits(evidence, continuation)
        raise ImpossibleContinuationError(
            f"neither /{evidence.phoneme_a}/ nor /{evidence.phoneme_b}/ "
            "starts any word"
        )
    return max(0.0, -math.log2(inner))


def acoustic_surprisal(
    trie: CohortTrie, evidence: AcousticEvidence, continuation: PhonemeSeq
) -> float:
    """Acoustic-weighted surprisal of the final continuation phoneme.

    `continuation` is the post-onset phoneme sequence up to and including
    the current position, so the current position is len(continuation)+1;
    an empty continuation is the onset itself (position 1), whose
    conditional terms are each onset's frequency over the lexicon total.
    Raises when neither onset admits the continuation.
    """
    continuation = tuple(continuation)
    node_a, before_a = _node_and_parent_freq(trie, (evidence.phoneme_a,) + continuation)
    node_b, before_b = _node_and_parent_freq(trie, (evidence.phoneme_b,) + continuation)
    return _acoustic_surprisal(
        evidence, node_a, node_b, before_a, before_b, continuation
    )


def metric_trace(
    trie: CohortTrie, word: LexiconEntry, evidence: AcousticEvidence
) -> MetricTrace:
    """Both models' entropy and surprisal at every position of `word`.

    The switch model walks the cohort of the committed onset (the
    evidence argmax) followed by the word's post-onset phonemes; the
    acoustic-weighted model mixes both onset sub-cohorts throughout. The
    onset commitment is fixed for the whole trace. Raises if a position
    is an impossible continuation under either model. One walk serves
    the whole trace: both onsets' nodes step one child per position, and
    every value, entropies and cohort sizes included, comes from those
    nodes' totals, so no cohort is listed.
    """
    if word.onset not in (evidence.phoneme_a, evidence.phoneme_b):
        raise ValueError(
            f"word onset /{word.onset}/ is neither evidence candidate "
            f"(/{evidence.phoneme_a}/, /{evidence.phoneme_b}/)"
        )
    committed = evidence.committed
    committed_a = committed == evidence.phoneme_a
    root = trie._root
    node_a = _child(root, evidence.phoneme_a)
    node_b = _child(root, evidence.phoneme_b)
    before_a = before_b = root.cum_freq
    points = []
    for position in range(1, len(word.pron) + 1):
        phoneme = word.pron[position - 1]
        if position > 1:
            before_a, before_b = _freq(node_a), _freq(node_b)
            node_a = _child(node_a, phoneme) if node_a is not None else None
            node_b = _child(node_b, phoneme) if node_b is not None else None
        continuation = word.pron[1:position]
        ac_surprisal = _acoustic_surprisal(
            evidence, node_a, node_b, before_a, before_b, continuation
        )
        ac_entropy, joint_size = _acoustic_entropy_and_size(
            evidence, node_a, node_b, continuation
        )
        switch_node, switch_before = (
            (node_a, before_a) if committed_a else (node_b, before_b)
        )
        # A switch node that survives the surprisal check is not None.
        points.append(
            MetricPoint(
                position=position,
                phoneme=phoneme,
                switch_surprisal=_switch_surprisal(
                    switch_node, switch_before, (committed,) + continuation
                ),
                acoustic_surprisal=ac_surprisal,
                switch_entropy=_subtree_entropy(switch_node),
                acoustic_entropy=ac_entropy,
                switch_cohort_size=switch_node.n_entries,
                joint_cohort_size=joint_size,
            )
        )
    return MetricTrace(word, evidence, tuple(points))


def _values_at(traces, position: int, quantity: str):
    if quantity not in ("surprisal", "entropy"):
        raise ValueError(f"quantity must be 'surprisal' or 'entropy', got {quantity!r}")
    pairs = []
    for trace in traces:
        point = trace.point_at(position)
        if point is None:
            continue
        if quantity == "surprisal":
            pairs.append((trace, point.switch_surprisal, point.acoustic_surprisal))
        else:
            pairs.append((trace, point.switch_entropy, point.acoustic_entropy))
    return pairs


def model_correlation(traces, position: int, quantity: str) -> float:
    """Pearson r between the two models' values at `position` across traces."""
    pairs = _values_at(traces, position, quantity)
    if len(pairs) < 3:
        raise ValueError(
            f"need at least 3 traces with position {position}, have {len(pairs)}"
        )
    switch_values = [s for _, s, _ in pairs]
    acoustic_values = [a for _, _, a in pairs]
    try:
        return statistics.correlation(switch_values, acoustic_values)
    except statistics.StatisticsError:
        raise UndefinedCorrelationError(
            f"constant {quantity} values at position {position}: "
            "correlation undefined"
        ) from None


def model_divergence_ranking(
    traces, position: int, quantity: str
) -> list[tuple[LexiconEntry, float]]:
    """Words ranked by |acoustic - switch| at `position`, largest first.

    Ties break by orthography, so the ranking is deterministic.
    """
    pairs = _values_at(traces, position, quantity)
    if not pairs:
        raise ValueError(f"no trace has a point at position {position}")
    ranked = sorted(
        ((trace.word, abs(acoustic - switch)) for trace, switch, acoustic in pairs),
        key=lambda item: (-item[1], item[0].orthography),
    )
    return ranked
