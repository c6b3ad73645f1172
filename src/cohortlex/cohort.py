"""Incremental cohort queries over a phoneme prefix trie.

Every trie node aggregates the summed frequency of all words whose
pronunciation passes through it, so prefix frequencies, cohort sizes,
conditional continuation probabilities, and uniqueness points all resolve
in O(prefix length) walks. Cohort entropy needs no subtree collection
either: each node memoizes its subtree entropy, computed on first query
from its children's by the grouping rule, so every node is computed at
most once. Only `cohort_at` lists members.

The trie is expanded lazily and reads the lexicon's columns, not entry
objects. Building it takes the root total from the lexicon and hands the
root every entry index; a node groups its pending entry indices by their
next phoneme on its first visit, which sets each child's total, entry
count and pending indices (all in lexicon order) and the node's own
terminal indices. A query therefore expands only the nodes on its path,
plus the subtree below a node whose entropy or cohort it reads, and its
values are bitwise those of a fully built trie. A trie is safe to share
across threads without a lock: a visit reads `pending` once, publishes
`children` and `terminals` before clearing it, and a thread that loses
the race rebuilds equal values; the entropy memo writes are idempotent
in the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    __slots__ = (
        "children", "cum_freq", "n_entries", "terminals", "entropy", "depth", "pending",
        "columns",
    )

    def __init__(self, columns: _Columns, depth: int, pending):
        self.children: dict[str, _Node] | None = None  # set on first visit
        self.cum_freq = 0.0
        self.n_entries = 0
        self.terminals: list[int] | None = None  # entry indices, set on first visit
        self.entropy: float | None = None  # subtree entropy, set on first query
        self.depth = depth  # phonemes on the path from the root
        self.pending = pending  # indices of entries passing through, until the first visit
        self.columns = columns


def _expanded(node: _Node) -> _Node:
    """`node` with its children and terminals set, grouping them on first visit.

    Entries are grouped in lexicon order, so every child's total is summed
    in the order an eager build would sum it. `pending` is read once and
    cleared only after `children` and `terminals` are published, so a
    concurrent visit either sees the published groups or rebuilds equal
    ones from the same entries.
    """
    pending = node.pending
    if pending is None:
        return node
    columns = node.columns
    phonemes, offsets, frequencies = columns
    depth = node.depth
    children: dict[str, _Node] = {}
    terminals = []
    for index in pending:
        at = offsets[index] + depth
        if at == offsets[index + 1]:
            terminals.append(index)
            continue
        child = children.get(phonemes[at])
        if child is None:
            child = children[phonemes[at]] = _Node(columns, depth + 1, [])
        child.pending.append(index)
        child.cum_freq += frequencies[index]
    for child in children.values():
        child.n_entries = len(child.pending)
    node.children = children
    node.terminals = terminals
    node.pending = None
    return node


def _child(node: _Node, phoneme: str) -> _Node | None:
    """The child of `node` along `phoneme`, or None when no word continues so."""
    return _expanded(node).children.get(phoneme)


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


def _subtree_entropy(node: _Node) -> float:
    """Entropy in bits of the frequency-normalized words below `node`.

    Grouping rule (Shannon 1948; Cover & Thomas, Elements of Information
    Theory, ch. 2): with groups c = the child subtrees and the node's own
    terminal entries, w_c = F_c / F_node and a terminal's H_c = 0,
    H(node) = sum_c w_c * (H_c - log2 w_c). It uses ratios only, so
    frequencies near the float maximum cannot overflow it. Children are
    resolved first with an explicit stack (no recursion limit on
    pronunciation length) and each result is memoized on its node.
    """
    frequencies = node.columns.frequencies
    stack = [node] if node.entropy is None else []
    while stack:
        current = stack[-1]
        # One read of `children`: a concurrent first visit may publish an
        # equal dict of fresh nodes, whose entropies this pass never set.
        children = _expanded(current).children
        unresolved = [c for c in children.values() if c.entropy is None]
        if unresolved:
            stack.extend(unresolved)
            continue
        stack.pop()
        total = current.cum_freq
        h = 0.0
        for child in children.values():
            w = child.cum_freq / total
            if w > 0:
                h += w * (child.entropy - math.log2(w))
        for index in current.terminals:
            w = frequencies[index] / total
            if w > 0:
                h -= w * math.log2(w)
        current.entropy = max(0.0, h)
    return node.entropy


class CohortTrie:
    """Phoneme prefix trie with cumulative frequency at every node."""

    def __init__(self, lexicon: Lexicon):
        self.lexicon = lexicon
        columns = _Columns(
            lexicon.flat_phonemes(),
            lexicon.offsets.tolist(),
            lexicon.frequencies.tolist(),
        )
        self._root = _Node(columns, 0, range(len(lexicon)))
        self._root.cum_freq = lexicon.total_frequency
        self._root.n_entries = len(lexicon)

    def _node_at(self, prefix: PhonemeSeq) -> _Node | None:
        node = self._root
        for phoneme in prefix:
            node = _child(node, phoneme)
            if node is None:
                return None
        return node

    def _node_and_parent_freq(self, prefix: tuple) -> tuple[_Node | None, float]:
        """The node at non-empty `prefix` and its parent's total."""
        if not prefix:
            raise ValueError("prefix must have length >= 1")
        parent = self._node_at(prefix[:-1])
        if parent is None:
            return None, 0.0
        return _child(parent, prefix[-1]), parent.cum_freq

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
        return _freq(self._node_at(tuple(prefix)))

    def cohort_size(self, prefix: PhonemeSeq) -> int:
        """Number of entries whose pronunciation starts with `prefix`."""
        node = self._node_at(tuple(prefix))
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
            current = _expanded(stack.pop())
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
        node = self._root
        for position, phoneme in enumerate(entry.pron, start=1):
            node = _child(node, phoneme)
            if node.n_entries == 1:
                return position
        return None


def build_trie(lexicon: Lexicon) -> CohortTrie:
    """Index a lexicon for incremental cohort queries."""
    return CohortTrie(lexicon)
