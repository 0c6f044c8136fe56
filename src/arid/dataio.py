"""CSV ingestion, preprocessing, and artefact injection for recorded series."""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np

from .errors import HorizonTooShort, IndexOutOfRange, NonFinite, ParseError, RaggedRows
from .model import TimeSeries


# Rows per formatting call of write_csv; bounds its string buffer on long series.
_WRITE_CHUNK_ROWS = 4096


def load_csv(path, has_header: bool = False, sample_rate_hz: float | None = None) -> TimeSeries:
    """Read a numeric CSV with one column per channel, rows in time order.

    Parse failures and non-finite cells point at the offending row and
    column (one-based, header included in the row count).
    """
    names = None
    with open(path, newline="") as fh:
        if has_header:
            names = next((tuple(cell.strip() for cell in raw) for raw in csv.reader(fh) if not _blank(raw)), None)
        values = _parse_bulk(fh)
    # Anything the bulk path cannot vouch for goes to the row parser, which
    # names the row and column at fault or returns the same array.
    if values is None or (names is not None and len(names) != values.shape[1]) or not np.isfinite(values).all():
        names, values = _parse_rows(path, has_header)
    return TimeSeries(values, sample_rate_hz, names)


def _blank(raw: list[str]) -> bool:
    return all(cell.strip() == "" for cell in raw)


def _parse_bulk(fh) -> np.ndarray | None:
    """The remaining rows in one ``np.loadtxt`` call, or None where only the row parser can judge them.

    Every cell loadtxt accepts, Python's ``float`` accepts with the same
    value, and the two split rows and cells alike on unquoted input; a
    quote, a ``#``, a ragged or whitespace-only row fails here instead.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. "input contained no data"
            values = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, dtype=float)
    except (ValueError, Warning):
        return None
    return values if values.size else None


def _parse_rows(path, has_header: bool) -> tuple[tuple[str, ...] | None, np.ndarray]:
    """Row-by-row parse of a whole file; the reference the bulk path must match, and its error path."""
    names = None
    rows: list[list[float]] = []
    width = None
    non_finite = None
    with open(path, newline="") as fh:
        for row_idx, raw in enumerate(csv.reader(fh), start=1):
            if _blank(raw):
                continue
            if has_header and names is None and not rows:
                names = tuple(cell.strip() for cell in raw)
                continue
            if width is None:
                width = len(raw)
            elif len(raw) != width:
                raise RaggedRows(f"row {row_idx} has {len(raw)} values, expected {width}")
            parsed = []
            for col_idx, cell in enumerate(raw, start=1):
                try:
                    value = float(cell)
                except ValueError as exc:
                    raise ParseError(f"row {row_idx}, column {col_idx}: cannot parse {cell.strip()!r}") from exc
                if non_finite is None and not math.isfinite(value):
                    non_finite = f"row {row_idx}, column {col_idx}: {cell.strip()!r} is not finite"
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    if names is not None and len(names) != width:
        raise RaggedRows(f"header has {len(names)} names, data rows have {width} values")
    if non_finite is not None:
        raise NonFinite(non_finite)
    return names, np.array(rows)


def write_csv(series: TimeSeries, path) -> None:
    """Write a series, one column per channel, so a re-read is bit-exact."""
    write_table(path, series.values, series.channel_names)


def write_table(path, rows, header=None) -> None:
    """Write a numeric table with 17 significant digits so a re-read is bit-exact.

    Every cell is formatted as a float, so integers up to 2**53 in magnitude
    print as integers, and ``nan``, ``inf`` and ``-0.0`` print as Python spells them.
    """
    values = np.asarray(rows, dtype=float)
    with open(path, "w", newline="") as fh:
        if header is not None:
            csv.writer(fh, lineterminator="\n").writerow(header)  # quotes only the names that need it
        if not values.size:
            return
        row = ",".join(["%.17g"] * values.shape[1]) + "\n"
        for start in range(0, len(values), _WRITE_CHUNK_ROWS):
            chunk = values[start : start + _WRITE_CHUNK_ROWS]
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def first_difference(y: TimeSeries) -> TimeSeries:
    """Difference consecutive rows; removes slow drift before fitting."""
    if y.n_steps < 2:
        raise HorizonTooShort("need at least two steps to difference")
    return TimeSeries(np.diff(y.values, axis=0), y.sample_rate_hz, y.channel_names)


def inject_artefact(y: TimeSeries, channel: int, t_start: int, t_end: int, std: float, seed: int) -> TimeSeries:
    """Replace one channel's window with white noise (one-based, inclusive bounds)."""
    if not 1 <= channel <= y.n_channels:
        raise IndexOutOfRange(f"channel {channel} outside 1..{y.n_channels}")
    if not 1 <= t_start <= t_end <= y.n_steps:
        raise IndexOutOfRange(f"window [{t_start}, {t_end}] outside 1..{y.n_steps}")
    if not 0 <= std < np.inf:
        raise ValueError(f"std must be nonnegative and finite, got {std}")
    rng = np.random.Generator(np.random.Philox(key=seed))
    values = y.values.copy()
    values[t_start - 1:t_end, channel - 1] = std * rng.standard_normal(t_end - t_start + 1)
    return TimeSeries(values, y.sample_rate_hz, y.channel_names)
