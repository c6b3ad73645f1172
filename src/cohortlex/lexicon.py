"""Pronunciation lexicon with frequency counts.

The on-disk format is TSV: ``orthography<TAB>PH1 PH2 ...<TAB>frequency``.
Lines starting with '#' are headers; ``#unit:`` declares the frequency unit
and ``#inventory:`` pins an explicit phoneme inventory. All downstream math
works on frequency ratios, so counts and per-million files behave the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable

Phoneme = str
PhonemeSeq = tuple[Phoneme, ...]

# Voiced/voiceless plosive onset contrasts used throughout stimulus design.
PLOSIVE_VOICING_PAIRS: tuple[tuple[Phoneme, Phoneme], ...] = (
    ("B", "P"),
    ("D", "T"),
    ("G", "K"),
)

KNOWN_UNITS = ("counts", "per-million")


class LexiconError(ValueError):
    """Base class for lexicon file problems."""


class LexiconParseError(LexiconError):
    """Structurally malformed row (wrong column count, bad header)."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class LexiconValidationError(LexiconError):
    """Well-formed row violating a lexicon invariant."""


@dataclass(frozen=True, slots=True)
class LexiconEntry:
    """One word: spelling, phoneme pronunciation, finite positive frequency."""

    orthography: str
    pron: PhonemeSeq
    frequency: float

    def __post_init__(self):
        if not self.orthography.strip():
            raise LexiconValidationError(f"{self.orthography!r}: empty orthography")
        if not self.pron:
            raise LexiconValidationError(f"{self.orthography!r}: empty pronunciation")
        if not 0 < self.frequency < math.inf:
            raise LexiconValidationError(
                f"{self.orthography!r}: frequency must be finite and > 0, "
                f"got {self.frequency}"
            )

    @property
    def onset(self) -> Phoneme:
        return self.pron[0]


@dataclass(frozen=True)
class Lexicon:
    """Immutable word list plus its phoneme inventory.

    Homophones (same pronunciation, different orthography) are distinct
    entries; the same orthography+pronunciation pair may appear only once.
    A lexicon has at least one entry, and its summed frequency is finite.
    """

    entries: tuple[LexiconEntry, ...]
    inventory: frozenset[Phoneme]
    frequency_unit: str = "counts"
    _by_orthography: dict = field(init=False, repr=False, compare=False)
    _total_frequency: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.entries:
            raise LexiconValidationError("empty lexicon")
        # One superset test; entries are scanned for the offender only
        # when it fails, so errors keep their entry order.
        in_inventory = self.inventory.issuperset(
            chain.from_iterable(e.pron for e in self.entries)
        )
        by_orth: dict[str, list[LexiconEntry]] = {}
        total = 0.0
        for entry in self.entries:
            spelled = by_orth.setdefault(entry.orthography, [])
            if any(other.pron == entry.pron for other in spelled):
                raise LexiconValidationError(
                    f"duplicate entry {entry.orthography!r} /{' '.join(entry.pron)}/"
                )
            if not in_inventory:
                missing = set(entry.pron) - self.inventory
                if missing:
                    raise LexiconValidationError(
                        f"{entry.orthography!r} uses phonemes outside the inventory: "
                        f"{sorted(missing)}"
                    )
            spelled.append(entry)
            total += entry.frequency
        if not math.isfinite(total):
            raise LexiconValidationError("summed frequency overflows a float")
        object.__setattr__(self, "_by_orthography", by_orth)
        object.__setattr__(self, "_total_frequency", total)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def total_frequency(self) -> float:
        """Summed frequency, added up in entry order."""
        return self._total_frequency

    def lookup(self, orthography: str) -> tuple[LexiconEntry, ...]:
        """All entries spelled `orthography` (empty tuple if absent)."""
        return tuple(self._by_orthography.get(orthography, ()))


def _normalize_pron(raw: str) -> PhonemeSeq:
    # Upper-casing never creates or removes whitespace, so this splits
    # exactly as upper-casing each token would.
    return tuple(raw.upper().split())


def parse_lexicon(path: str | Path, smoothing: float = 0.0) -> Lexicon:
    """Parse a TSV lexicon file.

    `smoothing` adds a constant to every frequency (add-lambda), letting
    files with zero counts through; with the default 0.0 a non-positive
    frequency is rejected.

    Raises LexiconParseError for malformed rows (with the line number) and
    LexiconValidationError for invariant violations, including an empty
    lexicon. Errors raised for a single row carry its line number.
    """
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    path = Path(path)
    unit = "counts"
    declared_inventory: frozenset[Phoneme] | None = None
    entries: list[LexiconEntry] = []
    with path.open(encoding="utf-8-sig") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip():
                continue
            if line.startswith("#"):
                header = line[1:].strip()
                if header.lower().startswith("unit:"):
                    unit = header[len("unit:"):].strip()
                    if unit not in KNOWN_UNITS:
                        raise LexiconParseError(
                            f"unknown frequency unit {unit!r} "
                            f"(expected one of {KNOWN_UNITS})",
                            line_number,
                        )
                elif header.lower().startswith("inventory:"):
                    declared_inventory = frozenset(
                        _normalize_pron(header[len("inventory:"):])
                    )
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise LexiconParseError(
                    f"expected 3 tab-separated columns, got {len(fields)}",
                    line_number,
                )
            orthography, pron_field, freq_field = fields
            try:
                raw_freq = float(freq_field)
            except ValueError:
                raise LexiconValidationError(
                    f"line {line_number}: non-numeric frequency {freq_field!r}"
                ) from None
            if raw_freq < 0:
                raise LexiconValidationError(
                    f"line {line_number}: negative frequency {raw_freq}"
                )
            try:
                entries.append(LexiconEntry(
                    orthography, _normalize_pron(pron_field), raw_freq + smoothing
                ))
            except LexiconValidationError as exc:
                raise LexiconValidationError(f"line {line_number}: {exc}") from None
    observed = frozenset(chain.from_iterable(e.pron for e in entries))
    inventory = declared_inventory if declared_inventory is not None else observed
    return Lexicon(tuple(entries), inventory, unit)


def write_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    """Serialize back to the TSV format parse_lexicon reads (round-trips)."""
    path = Path(path)
    lines = [f"#unit: {lexicon.frequency_unit}"]
    lines.append(f"#inventory: {' '.join(sorted(lexicon.inventory))}")
    for e in lexicon.entries:
        lines.append(f"{e.orthography}\t{' '.join(e.pron)}\t{e.frequency!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def make_lexicon(rows: Iterable[tuple[str, str | PhonemeSeq, float]]) -> Lexicon:
    """Build a Lexicon from (orthography, pron, frequency) triples.

    `pron` may be a space-separated string or a phoneme tuple; the
    frequency unit is "counts" and the inventory is the phonemes used.
    Convenience constructor for tests and embedding callers.
    """
    entries = []
    for orthography, pron, frequency in rows:
        if isinstance(pron, str):
            pron = _normalize_pron(pron)
        else:
            pron = tuple(p.upper() for p in pron)
        entries.append(LexiconEntry(orthography, pron, float(frequency)))
    inventory = frozenset(ph for e in entries for ph in e.pron)
    return Lexicon(tuple(entries), inventory)
