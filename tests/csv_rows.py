"""Reading emitted CSV back into typed rows, for the round-trip tests of ``report.emit_csv``.

The package only writes CSV; the tests read it back to check that every
emitted value parses to the same number and re-emits byte for byte.
"""

import csv
import io


def parse_csv(text: str) -> tuple[list[str], list[list]]:
    """Parse an emitted CSV back into typed rows (int, float or str cells)."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("CSV is empty: missing header row") from None
    rows = []
    for row in reader:
        typed = []
        for cell in row:
            try:
                typed.append(int(cell))
            except ValueError:
                try:
                    typed.append(float(cell))
                except ValueError:
                    typed.append(cell)
        rows.append(typed)
    return header, rows
