"""Per-cell reference writer for the CLI's reports.

The CLI's tables write their own rows: a tournament formats each
distinct row once and streams the text, and every JSON report splices
its rows into the summary's text.  This module writes the same reports
the plain way: every cell of every row formatted one by one, the CSV
through `csv.writer`, and the JSON through one `json.dump` of the
summary with the rows embedded.  The tests require the two to agree
byte for byte.
"""
import csv
import json

from qgames.cli import _fmt, _RoundLog


def cell_rows(table) -> list:
    """The table's rows as tuples of cells, one per round for a round log."""
    if isinstance(table, _RoundLog):
        return [(*head, k, *table.tail(result.rows[code]))
                for head, result in table.blocks for k, code in enumerate(result.log)]
    return list(table)


def write_reports(out_dir, command: str, fmt: str, summary: dict, columns, table) -> None:
    """Write `<command>.json`, and `<command>.csv` unless fmt is "json"."""
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = dict(summary)
    summary["command"] = command
    rows = [[_fmt(x) for x in row] for row in cell_rows(table)]
    if fmt == "json":
        summary["columns"] = list(columns)
        summary["rows"] = rows
    else:
        with open(out_dir / f"{command}.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)
    with open(out_dir / f"{command}.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
