"""The entry-based lexicon parse, kept as a test reference.

The package's `parse_lexicon` fills `Lexicon`'s columns (orthographies,
integer phoneme codes with offsets, a frequency array) as it reads the
file and builds no `LexiconEntry`. This is the parse it replaced, which
builds one `LexiconEntry` per row and validates the whole lexicon in
`ReferenceLexicon.__post_init__`. The tests assert that both accept the
same files with equal entries, inventory, unit and a bit-equal total
frequency, and reject the same files with the same exception type and
message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from cohortlex.lexicon import (
    KNOWN_UNITS,
    LexiconEntry,
    LexiconParseError,
    LexiconValidationError,
    Phoneme,
    PhonemeSeq,
)


@dataclass(frozen=True)
class ReferenceLexicon:
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
        for index, entry in enumerate(self.entries):
            spelled = by_orth.setdefault(entry.orthography, [])
            if any(other.pron == entry.pron for other in spelled):
                raise LexiconValidationError(
                    f"duplicate entry {entry.orthography!r} /{' '.join(entry.pron)}/",
                    index,
                )
            if not in_inventory:
                missing = set(entry.pron) - self.inventory
                if missing:
                    raise LexiconValidationError(
                        f"{entry.orthography!r} uses phonemes outside the inventory: "
                        f"{sorted(missing)}",
                        index,
                    )
            spelled.append(entry)
        try:
            total = math.fsum(e.frequency for e in self.entries)
        except OverflowError:
            raise LexiconValidationError("summed frequency overflows a float") from None
        object.__setattr__(self, "_by_orthography", by_orth)
        object.__setattr__(self, "_total_frequency", total)

    @property
    def total_frequency(self) -> float:
        return self._total_frequency


def _normalize_pron(raw: str) -> PhonemeSeq:
    # Upper-casing never creates or removes whitespace, so this splits
    # exactly as upper-casing each token would.
    return tuple(raw.upper().split())


def parse_lexicon(path: str | Path, smoothing: float = 0.0) -> ReferenceLexicon:
    """Parse a TSV lexicon file.

    `smoothing` adds a constant to every frequency (add-lambda), letting
    files with zero counts through; with the default 0.0 a non-positive
    frequency is rejected.

    Raises LexiconParseError for malformed rows (with the line number) and
    LexiconValidationError for invariant violations, including an empty
    lexicon. Errors raised for a single row carry its line number. Each row's
    fields are checked as it is read, duplicates and the inventory after.
    """
    if smoothing < 0:
        raise ValueError(f"smoothing must be >= 0, got {smoothing}")
    path = Path(path)
    unit = "counts"
    declared_inventory: frozenset[Phoneme] | None = None
    entries: list[LexiconEntry] = []
    entry_lines: list[int] = []
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
            entry_lines.append(line_number)
    observed = frozenset(chain.from_iterable(e.pron for e in entries))
    inventory = declared_inventory if declared_inventory is not None else observed
    try:
        return ReferenceLexicon(tuple(entries), inventory, unit)
    except LexiconValidationError as exc:
        if exc.entry_index is None:
            raise
        raise LexiconValidationError(f"line {entry_lines[exc.entry_index]}: {exc}") from None
