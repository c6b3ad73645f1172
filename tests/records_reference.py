"""The dict-per-record output writer, kept as a test reference.

The package's `cli.write_records` takes the table as columns, one per
field, and converts and writes it a block of rows at a time, passing a
block's columns of plain str, int and None cells on untouched. This is
the writer it replaced, which takes one dict per record, looks every
field up with `record.get`, converts every cell and builds the whole
text before writing it. The tests assert that both write the same bytes
for the same records.
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
