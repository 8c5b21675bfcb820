"""Plain-text table rendering in the style of the paper's tables.

The benchmark harness prints, for every reproduced table, rows with the same
structure as the original (instance size, then avg/med/min/max per core count,
etc.).  Keeping the formatting in one place makes the benchmark output easy to
diff against the paper's tables and keeps the experiment drivers free of string
fiddling.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence

__all__ = ["format_table", "format_paper_table"]


def _format_cell(value, float_format: str) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return float_format.format(value)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    float_format: str = "{:.2f}",
    title: Optional[str] = None,
) -> str:
    """Render a list of rows as an aligned plain-text table.

    ``None`` cells render as ``-`` (the paper's convention for configurations
    that were not run, e.g. sequential times of the largest instances).
    """
    rendered_rows: List[List[str]] = [[str(h) for h in headers]]
    for row in rows:
        rendered_rows.append([_format_cell(cell, float_format) for cell in row])
    widths = [
        max(len(rendered_rows[r][c]) for r in range(len(rendered_rows)))
        for c in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.rjust(w) for h, w in zip(rendered_rows[0], widths))
    lines.append(header_line)
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows[1:]:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def format_paper_table(
    sizes: Sequence[int],
    statistics: Mapping[int, Mapping[str, Mapping[str, float]]],
    columns: Sequence[str],
    *,
    stat_rows: Sequence[str] = ("avg", "med", "min", "max"),
    float_format: str = "{:.2f}",
    title: Optional[str] = None,
) -> str:
    """Render the paper's nested layout: one block of stat rows per instance size.

    Parameters
    ----------
    sizes:
        Instance sizes (the left-most column of the paper's tables).
    statistics:
        ``statistics[size][column][stat]`` — e.g.
        ``statistics[21]["256"]["avg"] = 16.01``.  Missing entries render as
        ``-``.
    columns:
        Column keys, in display order (e.g. core counts as strings).
    stat_rows:
        Which statistics to print per size, in order.
    """
    headers = ["Size", "stat", *columns]
    rows: List[List[object]] = []
    for size in sizes:
        per_size = statistics.get(size, {})
        for stat in stat_rows:
            row: List[object] = [size if stat == stat_rows[0] else "", stat]
            for column in columns:
                value = per_size.get(column, {}).get(stat)
                row.append(value)
            rows.append(row)
    return format_table(headers, rows, float_format=float_format, title=title)
