"""Pronunciation lexicon with frequency counts.

The on-disk format is TSV: ``orthography<TAB>PH1 PH2 ...<TAB>frequency``.
Lines starting with '#' are headers; ``#unit:`` declares the frequency unit
and ``#inventory:`` pins an explicit phoneme inventory. All downstream math
works on frequency ratios, so counts and per-million files behave the same.

A `Lexicon` holds columns: orthographies, integer phoneme codes with
per-entry offsets, and a frequency array. `parse_lexicon` fills them as it
reads the file; `LexiconEntry` values are built only when asked for.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

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
    """Well-formed row violating a lexicon invariant. `entry_index` is the
    offending entry's index in `Lexicon.entries`, or None when the error is
    not about one entry of a lexicon."""

    def __init__(self, message: str, entry_index: int | None = None):
        super().__init__(message)
        self.entry_index = entry_index


def _check_row(orthography: str, pron, frequency: float) -> None:
    """The one check of a word's own fields, run by `LexiconEntry` and by
    `parse_lexicon` on each row it reads: a non-blank orthography, at
    least one phoneme and a finite positive frequency."""
    if not orthography.strip():
        raise LexiconValidationError(f"{orthography!r}: empty orthography")
    if not pron:
        raise LexiconValidationError(f"{orthography!r}: empty pronunciation")
    if not 0 < frequency < math.inf:
        raise LexiconValidationError(
            f"{orthography!r}: frequency must be finite and > 0, got {frequency}"
        )


@dataclass(frozen=True, slots=True)
class LexiconEntry:
    """One word: spelling, phoneme pronunciation, finite positive frequency."""

    orthography: str
    pron: PhonemeSeq
    frequency: float

    def __post_init__(self):
        _check_row(self.orthography, self.pron, self.frequency)

    @property
    def onset(self) -> Phoneme:
        return self.pron[0]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Lexicon:
    """Immutable word list plus its phoneme inventory, held as columns.

    Entry i is spelled `orthographies[i]`, is pronounced by the phonemes
    `phonemes[c]` for the codes c in `codes[offsets[i]:offsets[i + 1]]`,
    and has the frequency `frequencies[i]`. `phonemes` numbers the
    phonemes the entries use in order of first use; `inventory` is the
    phoneme alphabet, which may hold more. The arrays are read-only.
    `LexiconEntry` values are built on demand by `entry`, `lookup` and
    `entries` (which keeps the tuple it builds).

    Homophones (same pronunciation, different orthography) are distinct
    entries; the same orthography+pronunciation pair may appear only once.
    A lexicon has at least one entry, and its summed frequency is finite.
    """

    orthographies: tuple[str, ...]
    phonemes: tuple[Phoneme, ...]
    codes: np.ndarray
    offsets: np.ndarray
    frequencies: np.ndarray
    inventory: frozenset[Phoneme]
    frequency_unit: str

    def __init__(
        self,
        entries: Iterable[LexiconEntry],
        inventory: Iterable[Phoneme],
        frequency_unit: str = "counts",
    ):
        entries = tuple(entries)
        code_of = _CodeTable()
        codes: list[int] = []
        for entry in entries:
            codes += map(code_of.__getitem__, entry.pron)
        self._set_columns(
            [e.orthography for e in entries],
            tuple(code_of),
            codes,
            [len(e.pron) for e in entries],
            [e.frequency for e in entries],
            frozenset(inventory),
            frequency_unit,
        )

    @classmethod
    def _from_columns(cls, *columns) -> Lexicon:
        """The lexicon of `_set_columns`'s arguments, built without entries."""
        lexicon = cls.__new__(cls)
        lexicon._set_columns(*columns)
        return lexicon

    def _set_columns(
        self, orthographies, phonemes, codes, lengths, frequencies, inventory, frequency_unit
    ) -> None:
        """Store and validate the columns.

        `codes` is every entry's phoneme codes in entry order, numbering
        the `phonemes` in order of first use, and `lengths` the entries'
        phoneme counts; an `inventory` of None is the phonemes used. The
        checks run over whole columns. An error about one entry names the
        first entry that breaks a rule, checking an entry for a duplicate
        before its phonemes; the summed frequency is checked last.
        """
        if not orthographies:
            raise LexiconValidationError("empty lexicon")
        dtype = np.int16 if len(phonemes) <= 1 << 15 else np.int32
        codes = np.array(codes, dtype)
        offsets = np.zeros(len(lengths) + 1, np.int64)
        np.cumsum(lengths, out=offsets[1:])
        columns = {
            "orthographies": tuple(orthographies),
            "phonemes": phonemes,
            "codes": _read_only(codes),
            "offsets": _read_only(offsets),
            "frequencies": _read_only(np.array(frequencies, np.float64)),
            "inventory": frozenset(phonemes) if inventory is None else inventory,
            "frequency_unit": frequency_unit,
        }
        self.__dict__.update(columns)
        # Every index of each spelling used more than once; only those
        # entries can be duplicates.
        homographs: dict[str, list[int]] = {}
        if len(set(self.orthographies)) < len(self):
            for i, orthography in enumerate(self.orthographies):
                homographs.setdefault(orthography, []).append(i)
            homographs = {o: g for o, g in homographs.items() if len(g) > 1}
        self.__dict__["_homographs"] = homographs

        duplicate = None
        for group in homographs.values():
            seen = set()
            for i in group:
                pron = self._codes_of(i).tobytes()
                if pron in seen:
                    duplicate = i if duplicate is None else min(duplicate, i)
                    break
                seen.add(pron)
        outside = [code for code, p in enumerate(phonemes) if p not in self.inventory]
        # Codes number phonemes in order of first use, so the first entry
        # using a phoneme outside the inventory uses the lowest such code.
        offender = None
        if outside:
            first_use = int(np.argmax(codes == outside[0]))
            offender = int(np.searchsorted(offsets, first_use, side="right")) - 1
        if duplicate is not None and (offender is None or duplicate <= offender):
            raise LexiconValidationError(
                f"duplicate entry {self.orthographies[duplicate]!r} "
                f"/{' '.join(self._pron(duplicate))}/",
                duplicate,
            )
        if offender is not None:
            missing = set(self._pron(offender)) - self.inventory
            raise LexiconValidationError(
                f"{self.orthographies[offender]!r} uses phonemes outside the inventory: "
                f"{sorted(missing)}",
                offender,
            )
        try:
            self.__dict__["_total_frequency"] = math.fsum(self.frequencies.tolist())
        except OverflowError:
            raise LexiconValidationError("summed frequency overflows a float") from None

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Lexicon is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: Lexicon is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lexicon):
            return NotImplemented
        # Equal entries code their phonemes alike, so equal columns and
        # equal phoneme tables mean equal entries.
        return (
            self.orthographies == other.orthographies
            and self.phonemes == other.phonemes
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.offsets, other.offsets)
            and np.array_equal(self.frequencies, other.frequencies)
            and self.inventory == other.inventory
            and self.frequency_unit == other.frequency_unit
        )

    def __reduce__(self):
        # Pickles and deep copies are rebuilt from the columns, so their
        # arrays are read-only too.
        return Lexicon._from_columns, (
            self.orthographies,
            self.phonemes,
            self.codes,
            np.diff(self.offsets).tolist(),
            self.frequencies.tolist(),
            self.inventory,
            self.frequency_unit,
        )

    def __hash__(self) -> int:
        return hash((self.orthographies, self.inventory, self.frequency_unit))

    def __repr__(self) -> str:
        return (
            f"Lexicon({len(self)} entries, {len(self.inventory)} phonemes, "
            f"{self.frequency_unit!r})"
        )

    def __len__(self) -> int:
        return len(self.orthographies)

    def flat_phonemes(self) -> list[Phoneme]:
        """Every entry's phonemes in entry order, as one list decoded from
        `codes`: entry i's are items `offsets[i]` to `offsets[i + 1]`."""
        return np.array(self.phonemes, dtype=object)[self.codes].tolist()

    def _codes_of(self, index: int) -> np.ndarray:
        return self.codes[self.offsets[index]:self.offsets[index + 1]]

    def _pron(self, index: int) -> PhonemeSeq:
        return tuple(map(self.phonemes.__getitem__, self._codes_of(index).tolist()))

    @property
    def total_frequency(self) -> float:
        """Summed frequency, correctly rounded, so the same whatever the row order."""
        return self._total_frequency

    def entry(self, index: int) -> LexiconEntry:
        """Entry `index` (negative counts from the end), built on each call."""
        index = range(len(self))[index]
        return LexiconEntry(
            self.orthographies[index], self._pron(index), self.frequencies.item(index)
        )

    @cached_property
    def entries(self) -> tuple[LexiconEntry, ...]:
        """Every entry in lexicon order, built on first access and kept."""
        return tuple(map(self.entry, range(len(self))))

    @cached_property
    def _index(self) -> dict[str, int]:
        """The last index of each spelling, built on the first lookup."""
        return dict(zip(self.orthographies, range(len(self))))

    def lookup(self, orthography: str) -> tuple[LexiconEntry, ...]:
        """All entries spelled `orthography`, in lexicon order (empty tuple if absent)."""
        indices = self._homographs.get(orthography)
        if indices is None:
            index = self._index.get(orthography)
            indices = () if index is None else (index,)
        return tuple(map(self.entry, indices))


class _CodeTable(dict):
    """Phoneme -> code; a phoneme not yet in the table gets the next code,
    so codes number the phonemes in order of first use."""

    def __missing__(self, phoneme: Phoneme) -> int:
        code = self[phoneme] = len(self)
        return code


def _split_pron(raw: str) -> list[Phoneme]:
    # Upper-casing never creates or removes whitespace, so this splits
    # exactly as upper-casing each token would.
    return raw.upper().split()


def parse_lexicon(path: str | Path, smoothing: float = 0.0) -> Lexicon:
    """Parse a TSV lexicon file into a `Lexicon`'s columns.

    `smoothing` adds a constant to every frequency (add-lambda), letting
    files with zero counts through; with the default 0.0 a non-positive
    frequency is rejected. A negative or non-finite `smoothing` raises
    ValueError before the file is read.

    Raises LexiconParseError for malformed rows (with the line number) and
    LexiconValidationError for invariant violations, including an empty
    lexicon. Errors raised for a single row carry its line number. Each row's
    fields are checked as it is read, duplicates and the inventory after.
    A file that is not UTF-8 text raises LexiconError naming the file.
    """
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise ValueError(f"smoothing must be finite and >= 0, got {smoothing}")
    path = Path(path)
    unit = "counts"
    declared_inventory: frozenset[Phoneme] | None = None
    orthographies: list[str] = []
    code_of = _CodeTable()
    codes: list[int] = []
    lengths: list[int] = []
    # Arrays, not lists, so as not to keep an object per float and line
    # number.
    frequencies = array("d")
    entry_lines = array("i")
    try:
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
                            _split_pron(header[len("inventory:"):])
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
                pron = _split_pron(pron_field)
                frequency = raw_freq + smoothing
                try:
                    _check_row(orthography, pron, frequency)
                except LexiconValidationError as exc:
                    raise LexiconValidationError(f"line {line_number}: {exc}") from None
                orthographies.append(orthography)
                codes += map(code_of.__getitem__, pron)
                lengths.append(len(pron))
                frequencies.append(frequency)
                entry_lines.append(line_number)
    except UnicodeDecodeError:
        raise LexiconError(f"{path}: not UTF-8 text") from None
    try:
        return Lexicon._from_columns(
            orthographies, tuple(code_of), codes, lengths, frequencies, declared_inventory, unit
        )
    except LexiconValidationError as exc:
        if exc.entry_index is None:
            raise
        raise LexiconValidationError(f"line {entry_lines[exc.entry_index]}: {exc}") from None


def write_lexicon(lexicon: Lexicon, path: str | Path) -> None:
    """Serialize back to the TSV format parse_lexicon reads (round-trips)."""
    path = Path(path)
    lines = [f"#unit: {lexicon.frequency_unit}"]
    lines.append(f"#inventory: {' '.join(sorted(lexicon.inventory))}")
    phonemes = lexicon.flat_phonemes()
    offsets = lexicon.offsets.tolist()
    for orthography, start, end, frequency in zip(
        lexicon.orthographies, offsets, offsets[1:], lexicon.frequencies.tolist()
    ):
        lines.append(f"{orthography}\t{' '.join(phonemes[start:end])}\t{frequency!r}")
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
            pron = tuple(_split_pron(pron))
        else:
            pron = tuple(p.upper() for p in pron)
        entries.append(LexiconEntry(orthography, pron, float(frequency)))
    inventory = frozenset(ph for e in entries for ph in e.pron)
    return Lexicon(tuple(entries), inventory)
