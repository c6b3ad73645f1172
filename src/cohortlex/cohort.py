"""Incremental cohort queries over a phoneme prefix trie.

Every trie node aggregates the summed frequency of all words whose
pronunciation passes through it, so prefix frequencies, cohort sizes,
conditional continuation probabilities, and uniqueness points all resolve
in O(prefix length) walks. Cohort entropy needs no subtree collection
either: each node holds its subtree entropy, set from its children's by
the grouping rule when the node is built. Only `cohort_at` lists members.

The trie reads the lexicon's columns, not entry objects, and grows one
onset at a time. Building it takes only the columns; the first query that
reaches an onset groups the entries by onset, and grows that onset's whole
subtree (totals, entry counts, terminals and entropies) before one dict
assignment publishes it. So a node is complete before any query can reach
it, a query grows only the onsets it reaches, and every value is bitwise
that of a trie built whole. A trie is safe to share across threads without
a lock: two threads that grow the same onset each get a complete, equal
subtree.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .lexicon import Lexicon, LexiconEntry, PhonemeSeq


class ImpossibleContinuationError(ValueError):
    """Raised when a queried prefix has no surviving cohort.

    Raising instead of returning an infinite surprisal keeps silent
    infinities out of downstream datasets.
    """


@dataclass(frozen=True)
class Cohort:
    """Words consistent with a heard prefix, with normalized probabilities.

    Member probability is the word's frequency divided by the prefix
    frequency, so probabilities sum to 1. A word whose pronunciation
    equals the prefix exactly is still a member; it only drops out once a
    further phoneme arrives.
    """

    prefix: PhonemeSeq
    members: tuple[tuple[LexiconEntry, float], ...]

    @property
    def size(self) -> int:
        return len(self.members)


class _Columns(NamedTuple):
    """The lexicon columns a trie's nodes read, as lists, which index
    faster than the arrays. `phonemes` is the code column decoded through
    the lexicon's code table (`Lexicon.flat_phonemes`): a node's children
    are keyed by phoneme, and grouping on the table's own strings keys
    them without a second pass over each node's groups."""

    phonemes: list[str]
    offsets: list[int]
    frequencies: list[float]


class _Node:
    __slots__ = ("children", "cum_freq", "n_entries", "terminals", "entropy")

    def __init__(self):
        self.children: dict[str, _Node] = {}
        self.cum_freq = 0.0
        self.n_entries = 0
        self.terminals: list[int] = []  # indices of the entries that end here
        self.entropy = 0.0  # subtree entropy, set once every child's is


def _set_entropy(node: _Node, frequencies: list[float]) -> None:
    """Set the entropy in bits of the frequency-normalized words below `node`.

    Grouping rule (Shannon 1948; Cover & Thomas, Elements of Information
    Theory, ch. 2): with groups c = the child subtrees and the node's own
    terminal entries, w_c = F_c / F_node and a terminal's H_c = 0,
    H(node) = sum_c w_c * (H_c - log2 w_c), its terms summed correctly
    rounded. It uses ratios only, so frequencies near the float maximum
    cannot overflow it. Every child's entropy must already be set.
    """
    total = node.cum_freq
    groups = [(child.cum_freq / total, child.entropy) for child in node.children.values()]
    groups += [(frequencies[index] / total, 0.0) for index in node.terminals]
    node.entropy = max(0.0, math.fsum(w * (h - math.log2(w)) for w, h in groups if w > 0))


def _grown(columns: _Columns, indices: list[int]) -> _Node:
    """The complete subtree of one onset, whose entries are `indices` in lexicon order.

    Nodes are grouped top down with an explicit stack (no recursion limit
    on pronunciation length): a node's entries that end there are its
    terminals, and the rest are grouped by their next phoneme into
    children, in order of first appearance. Each total is its entries'
    frequencies summed correctly rounded. Entropies are then set bottom
    up, each node's after its children's.
    """
    phonemes, offsets, frequencies = columns
    onset = _Node()
    stack = [(onset, indices, 1)]
    built = []
    while stack:
        node, entries, depth = stack.pop()
        built.append(node)
        node.cum_freq = math.fsum(map(frequencies.__getitem__, entries))
        node.n_entries = len(entries)
        groups: defaultdict[str, list[int]] = defaultdict(list)
        for index in entries:
            at = offsets[index] + depth
            if at == offsets[index + 1]:
                node.terminals.append(index)
            else:
                groups[phonemes[at]].append(index)
        for phoneme, group in groups.items():
            child = node.children[phoneme] = _Node()
            stack.append((child, group, depth + 1))
    for node in reversed(built):
        _set_entropy(node, frequencies)
    return onset


def _freq(node: _Node | None) -> float:
    """The node's total, or 0.0 where no word continues (`node` is None)."""
    return node.cum_freq if node is not None else 0.0


def _conditional(node: _Node | None, before: float, prefix: tuple) -> float:
    """P(last phoneme of `prefix` | the rest): `node`'s total over its parent's, `before`."""
    if before == 0:
        raise ImpossibleContinuationError(
            f"prefix /{' '.join(prefix[:-1])}/ has no cohort"
        )
    return _freq(node) / before


class CohortTrie:
    """Phoneme prefix trie with cumulative frequency at every node."""

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon
        self._columns = _Columns(
            lexicon.flat_phonemes(),
            lexicon.offsets.tolist(),
            lexicon.frequencies.tolist(),
        )
        self._onsets: dict[str, _Node] = {}  # each onset's subtree, once grown

    @cached_property
    def _onset_entries(self) -> dict[str, list[int]]:
        """Entry indices by onset in lexicon order, onsets in order of first appearance."""
        phonemes, offsets, _ = self._columns
        groups = defaultdict(list)
        for index, at in enumerate(offsets[:-1]):
            groups[phonemes[at]].append(index)
        return dict(groups)

    def _onset(self, phoneme: str) -> _Node | None:
        """The node of onset `phoneme`, grown on first use, or None when no word starts so."""
        node = self._onsets.get(phoneme)
        if node is None and phoneme in self._onset_entries:
            node = self._onsets[phoneme] = _grown(self._columns, self._onset_entries[phoneme])
        return node

    def _node_at(self, prefix: PhonemeSeq) -> _Node | None:
        """The node at `prefix`, or None where no word continues so. The
        empty prefix's node is the root, built fresh over every onset."""
        if not prefix:
            root = _Node()
            root.cum_freq, root.n_entries = self.lexicon.total_frequency, len(self.lexicon)
            root.children = {onset: self._onset(onset) for onset in self._onset_entries}
            _set_entropy(root, self._columns.frequencies)
            return root
        return self._node_and_parent_freq(prefix)[0]

    def _node_and_parent_freq(self, prefix: tuple) -> tuple[_Node | None, float]:
        """The node at non-empty `prefix` and its parent's total (0.0 where
        no word continues the parent's prefix either)."""
        if not prefix:
            raise ValueError("prefix must have length >= 1")
        node, before = self._onset(prefix[0]), self.lexicon.total_frequency
        for phoneme in prefix[1:]:
            if node is None:
                return None, 0.0
            node, before = node.children.get(phoneme), node.cum_freq
        return node, before

    def _cohort_node(self, prefix: tuple) -> _Node:
        node = self._node_at(prefix)
        if node is None:
            raise ImpossibleContinuationError(
                f"no word starts with /{' '.join(prefix)}/"
            )
        return node

    def prefix_frequency(self, prefix: PhonemeSeq) -> float:
        """Summed frequency of words starting with `prefix` (0 if none).

        The empty prefix returns the total lexicon frequency.
        """
        prefix = tuple(prefix)
        if not prefix:
            return self.lexicon.total_frequency
        return _freq(self._node_at(prefix))

    def cohort_size(self, prefix: PhonemeSeq) -> int:
        """Number of entries whose pronunciation starts with `prefix`."""
        prefix = tuple(prefix)
        if not prefix:
            return len(self.lexicon)
        node = self._node_at(prefix)
        return node.n_entries if node is not None else 0

    def cohort_at(self, prefix: PhonemeSeq) -> Cohort:
        """The cohort of words consistent with `prefix`.

        Raises ImpossibleContinuationError when no word survives.
        """
        prefix = tuple(prefix)
        node = self._cohort_node(prefix)
        total = node.cum_freq
        members = []
        stack = [node]
        while stack:
            current = stack.pop()
            for index in current.terminals:
                entry = self.lexicon.entry(index)
                members.append((entry, entry.frequency / total))
            stack.extend(reversed(current.children.values()))
        return Cohort(prefix, tuple(members))

    def conditional_prob(self, prefix: PhonemeSeq) -> float:
        """P(last phoneme | preceding phonemes) by prefix-frequency ratio.

        For a length-1 prefix the denominator is the total lexicon
        frequency. A zero denominator means the preceding prefix itself is
        impossible and raises ImpossibleContinuationError.
        """
        prefix = tuple(prefix)
        return _conditional(*self._node_and_parent_freq(prefix), prefix)

    def uniqueness_point(self, entry: LexiconEntry) -> int | None:
        """Earliest position at which `entry` is the only surviving word.

        Returns None when the full pronunciation never isolates the entry
        (a longer word embeds it as a prefix, or a homophone shares the
        whole pronunciation).
        """
        homographs = self.lexicon.lookup(entry.orthography)
        if not any(e.pron == entry.pron for e in homographs):
            raise KeyError(
                f"entry {entry.orthography!r} /{' '.join(entry.pron)}/ "
                "is not in this trie's lexicon"
            )
        for position in range(1, len(entry.pron) + 1):
            if self.cohort_size(entry.pron[:position]) == 1:
                return position
        return None


def build_trie(lexicon: Lexicon) -> CohortTrie:
    """Index a lexicon for incremental cohort queries."""
    return CohortTrie(lexicon)
