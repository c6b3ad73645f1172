"""The dict-per-record output writer, kept as a test reference.

The package's `cli.write_records` takes rows as tuples in field order and
converts CSV cells a column at a time, passing columns of plain str, int
and None cells to `csv.writer` untouched. This is the writer it
replaced, which takes one dict per record, looks every field up with
`record.get` and converts every cell through `_csv_cell`. The tests
assert that both write the same bytes for the same rows.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

from cohortlex.cli import _csv_cell, _json_cell


def write_records(records, fieldnames, out_path: str | None, fmt: str) -> None:
    """Serialize records (dicts) as CSV rows or a JSON array.

    Floats are rounded to 6 decimals in both formats, so the two carry
    identical values field for field. A CSV cell holding a comma or a
    quote is quoted, so every row keeps one cell per field.
    """
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows(
            [_csv_cell(record.get(f)) for f in fieldnames] for record in records
        )
        text = buffer.getvalue()
    elif fmt == "json":
        payload = [
            {f: _json_cell(record.get(f)) for f in fieldnames} for record in records
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out_path is None:
        sys.stdout.write(text)
    else:
        Path(out_path).write_text(text, encoding="utf-8")
