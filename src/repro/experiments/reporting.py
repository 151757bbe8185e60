"""Plain-text reporting helpers used by the experiment ``main()`` entry points."""

from __future__ import annotations


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a fixed-width text table."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def percentiles(values: list[float], points: tuple[int, ...] = (5, 25, 50, 75, 90)) -> dict[int, float]:
    """Empirical percentiles of ``values`` (the CDF bars of Figure 1)."""
    if not values:
        return {p: 0.0 for p in points}
    ordered = sorted(values)
    result: dict[int, float] = {}
    for p in points:
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        fraction = rank - low
        result[p] = ordered[low] * (1 - fraction) + ordered[high] * fraction
    return result


def format_matchup(rows, key, group, columns) -> str:
    """Render grouped rows side by side (one line per key, groups as columns).

    ``rows`` is any iterable of records; ``key(row)`` labels the line (e.g.
    the scenario name), ``group(row)`` names the competitor (e.g. the
    controller) and ``columns`` is a list of ``(label, fmt)`` pairs applied
    to each record.  Groups appear in first-seen order; a key missing a
    group's record renders blanks.  This is the shape of the SLA
    scorecard -- MeT and Tiramola judged on the same metrics, one scenario
    per line.
    """
    keys: list[str] = []
    groups: list[str] = []
    cells: dict[tuple[str, str], list[str]] = {}
    for row in rows:
        k, g = key(row), group(row)
        if k not in keys:
            keys.append(k)
        if g not in groups:
            groups.append(g)
        cells[(k, g)] = [fmt(row) for _, fmt in columns]
    headers = ["scenario"] + [
        f"{g}:{label}" for g in groups for label, _ in columns
    ]
    blank = [""] * len(columns)
    table_rows = [
        [k] + [cell for g in groups for cell in cells.get((k, g), blank)]
        for k in keys
    ]
    return format_table(headers, table_rows)
