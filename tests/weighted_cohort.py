"""The evidence-weighted word distribution, listed member by member.

The package computes acoustic-weighted entropies and cohort sizes from
trie node totals and never lists the weighted distribution. The tests
list it here, through the package's `CohortTrie.cohort_at`, to check two
invariants: the weighted distribution always sums to 1 (to 1e-9, over
10,000 randomized queries in the acceptance suite), and it collapses onto
the committed cohort at certain evidence. Unlike `naive_oracle`, this
helper reads the package's trie.
"""

from __future__ import annotations

from dataclasses import dataclass

from cohortlex import AcousticEvidence, CohortTrie, LexiconEntry
from cohortlex.metrics import _no_onset_admits


@dataclass(frozen=True)
class WeightedCohort:
    """Evidence-weighted distribution over both onset sub-cohorts.

    `raw_mass` is the probability mass the weighting assigns before
    renormalization: 1 when both sub-cohorts are alive, the surviving
    onset's evidence weight when one is empty (the returned probabilities
    are always renormalized to sum to 1).
    """

    members: tuple[tuple[LexiconEntry, float], ...]
    raw_mass: float


def acoustic_weighted_probs(
    trie: CohortTrie, evidence: AcousticEvidence, continuation
) -> WeightedCohort:
    """Word distribution mixing both onset sub-cohorts by evidence weight.

    Each word in the sub-cohort of onset x (prefix [x] + continuation)
    gets weight P(word | sub-cohort) * P(x | evidence). If exactly one
    sub-cohort is empty the survivor is renormalized to a proper
    distribution and the pre-renormalization mass is reported as raw_mass.
    Raises ImpossibleContinuationError when neither onset survives.
    """
    continuation = tuple(continuation)
    prefix_a = (evidence.phoneme_a,) + continuation
    prefix_b = (evidence.phoneme_b,) + continuation
    alive_a = trie._node_at(prefix_a) is not None
    alive_b = trie._node_at(prefix_b) is not None
    if alive_a and alive_b:
        members = [
            (entry, p * evidence.p_a)
            for entry, p in trie.cohort_at(prefix_a).members
        ]
        members += [
            (entry, p * evidence.p_b)
            for entry, p in trie.cohort_at(prefix_b).members
        ]
        return WeightedCohort(tuple(members), raw_mass=1.0)
    # Lone surviving sub-cohort: its conditional distribution, renormalized.
    if alive_a:
        survivor, mass = prefix_a, evidence.p_a
    elif alive_b:
        survivor, mass = prefix_b, evidence.p_b
    else:
        raise _no_onset_admits(evidence, continuation)
    return WeightedCohort(trie.cohort_at(survivor).members, raw_mass=mass)
